//! A B+tree over integer-coded composite keys.
//!
//! This is the *only* index structure in the system, mirroring the paper's
//! setup ("we exclusively rely on the vanilla B-tree indexes that are
//! provided by any RDBMS kernel"). A key is a fixed-width tuple of `u64`
//! *codes* compared lexicographically as integers — the catalog maps every
//! column value to a code that sorts exactly as the value does (see
//! [`crate::catalog::Database::value_code`]), the way an RDBMS stores keys in a
//! form that compares as raw bytes. Duplicates are allowed.
//!
//! Trees are bulk-loaded (how the catalog builds them): the entries are
//! sorted by `(key, value)` with integer compares and cut into leaves of
//! `ORDER` (64) entries, chained for range scans, under internal levels built
//! bottom-up. Because nothing is ever inserted, the leaf level *is* the
//! sorted entry array — leaf `i` holds entries `i * ORDER ..` — stored flat
//! with stride `key_width`, and the leaf chain is "the next leaf number".

use std::cmp::Ordering;

/// Maximum entries per node (fan-out). 64 keeps the tree shallow.
const ORDER: usize = 64;

/// Compare `probe` (a possibly shorter prefix) against a full key: missing
/// trailing components compare as "matches anything" — i.e. the prefix is
/// equal to any extension. Used for prefix range scans.
fn cmp_prefix(probe: &[u64], key: &[u64]) -> Ordering {
    probe.cmp(&key[..probe.len()])
}

/// First row in `lo..hi` of the flat, stride-`w` array `keys` for which
/// `pred` is false (the rows must be partitioned by `pred`).
fn partition_rows(
    keys: &[u64],
    w: usize,
    mut lo: usize,
    mut hi: usize,
    pred: impl Fn(&[u64]) -> bool,
) -> usize {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(&keys[mid * w..mid * w + w]) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Does an entry with key `k` satisfy the lower bound (`≥ lo`, or `> lo`
/// when strict)?
fn above_lo(lo: &[u64], lo_strict: bool, k: &[u64]) -> bool {
    let c = cmp_prefix(lo, k);
    c == Ordering::Less || (c == Ordering::Equal && !lo_strict)
}

/// Sort flat stride-`w` keys and their values by `(key, value)`.
///
/// When the bit fields that hold each component's codes, plus the 32-bit
/// value, fit in a `u128` — true of every Table 6 index, whose codes are
/// small ranks — each entry packs into one integer and the sort is a plain
/// `u128` sort; otherwise entries are sorted through a comparator on their
/// key rows.
fn sort_entries(w: usize, keys: Vec<u64>, vals: Vec<u32>) -> (Vec<u64>, Vec<u32>) {
    let row = |i: usize| &keys[i * w..i * w + w];
    let mut bits = vec![0u32; w];
    for i in 0..vals.len() {
        for (b, &c) in bits.iter_mut().zip(row(i)) {
            *b = (*b).max(u64::BITS - c.leading_zeros());
        }
    }
    if bits.iter().sum::<u32>() + u32::BITS > u128::BITS {
        let mut order: Vec<u32> = (0..vals.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| {
            let (a, b) = (a as usize, b as usize);
            row(a).cmp(row(b)).then(vals[a].cmp(&vals[b]))
        });
        let mut sorted = Vec::with_capacity(keys.len());
        for &i in &order {
            sorted.extend_from_slice(row(i as usize));
        }
        return (sorted, order.iter().map(|&i| vals[i as usize]).collect());
    }
    // (key fields, value), most significant first.
    let mut packed: Vec<u128> = (0..vals.len())
        .map(|i| {
            let key = row(i).iter().zip(&bits).fold(0u128, |acc, (&c, &b)| (acc << b) | c as u128);
            (key << u32::BITS) | vals[i] as u128
        })
        .collect();
    drop(keys);
    packed.sort_unstable();
    let mut sorted = vec![0u64; packed.len() * w];
    for (k, &p) in sorted.chunks_exact_mut(w.max(1)).zip(&packed) {
        let mut key = p >> u32::BITS;
        for (c, &b) in k.iter_mut().zip(&bits).rev() {
            *c = (key & ((1u128 << b) - 1)) as u64;
            key >>= b;
        }
    }
    (sorted, packed.iter().map(|&p| p as u32).collect())
}

/// An internal node.
#[derive(Debug, Clone)]
struct Internal {
    /// Separator keys, flat with stride `key_width`: separator `i` is the
    /// smallest key reachable under `children[i + 1]`.
    keys: Vec<u64>,
    /// Child node ids (see [`BTree::internal`]).
    children: Vec<usize>,
}

impl Internal {
    /// Child position a lower bound `lo` routes to (the first child whose
    /// subtree can hold an entry not below `lo`); an empty bound routes to
    /// the leftmost child.
    fn route(&self, w: usize, lo: &[u64]) -> usize {
        if lo.is_empty() {
            return 0;
        }
        partition_rows(&self.keys, w, 0, self.children.len() - 1, |k| {
            cmp_prefix(lo, k) == Ordering::Greater
        })
    }
}

/// The B+tree. Entry values are `u32`s (`pre` ranks in the catalog).
#[derive(Debug, Clone)]
pub struct BTree {
    /// Number of key components.
    pub key_width: usize,
    /// Every entry's key in `(key, value)` order, flat with stride
    /// `key_width` — the leaf level.
    keys: Vec<u64>,
    /// Every entry's value, parallel to `keys`.
    vals: Vec<u32>,
    /// Node ids `0..n_leaves` are leaves; id `n_leaves + i` is
    /// `internal[i]`.
    n_leaves: usize,
    internal: Vec<Internal>,
    root: usize,
}

impl BTree {
    /// Empty tree for keys of the given width.
    pub fn new(key_width: usize) -> Self {
        BTree::bulk_load(key_width, Vec::new(), Vec::new())
    }

    /// Bulk-load from entries: `keys` holds one `key_width`-code key per
    /// value in `vals`, flat. Sorts the entries by `(key, value)` and
    /// builds the leaf level plus internal levels bottom-up (the classic
    /// index build).
    pub fn bulk_load(key_width: usize, keys: Vec<u64>, vals: Vec<u32>) -> Self {
        let w = key_width;
        assert_eq!(keys.len(), vals.len() * w, "one key of width {w} per value");
        let (keys, vals) = sort_entries(w, keys, vals);
        let n_leaves = vals.len().div_ceil(ORDER).max(1);
        let mut tree = BTree { key_width, keys, vals, n_leaves, internal: Vec::new(), root: 0 };
        // Each level is a list of (entry index of the subtree's first key,
        // node id).
        let mut level: Vec<(usize, usize)> = (0..n_leaves).map(|l| (l * ORDER, l)).collect();
        while level.len() > 1 {
            let mut next_level = Vec::with_capacity(level.len().div_ceil(ORDER));
            for chunk in level.chunks(ORDER) {
                let mut seps = Vec::with_capacity((chunk.len() - 1) * w);
                for &(first, _) in &chunk[1..] {
                    seps.extend_from_slice(tree.key(first));
                }
                let id = n_leaves + tree.internal.len();
                tree.internal.push(Internal {
                    keys: seps,
                    children: chunk.iter().map(|&(_, c)| c).collect(),
                });
                next_level.push((chunk[0].0, id));
            }
            level = next_level;
        }
        tree.root = level[0].1;
        tree
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.vals.len()
    }

    /// True if the tree holds no entries.
    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    /// Height (levels), for tests/explain.
    pub fn height(&self) -> usize {
        let mut h = 1;
        let mut cur = self.root;
        while let Some(node) = self.internal(cur) {
            cur = node.children[0];
            h += 1;
        }
        h
    }

    /// Key of entry `i`.
    fn key(&self, i: usize) -> &[u64] {
        &self.keys[i * self.key_width..(i + 1) * self.key_width]
    }

    /// The internal node with id `id`, or `None` for a leaf.
    fn internal(&self, id: usize) -> Option<&Internal> {
        id.checked_sub(self.n_leaves).map(|i| &self.internal[i])
    }

    /// Entry range `[start, end)` of leaf `leaf`.
    fn leaf_range(&self, leaf: usize) -> (usize, usize) {
        let start = leaf * ORDER;
        (start, (start + ORDER).min(self.len()))
    }

    /// Does the last entry of `leaf` satisfy the lower bound? If so the
    /// first qualifying entry lies in this leaf or before it.
    fn leaf_reaches(&self, leaf: usize, lo: &[u64], lo_strict: bool) -> bool {
        let (start, end) = self.leaf_range(leaf);
        end > start && above_lo(lo, lo_strict, self.key(end - 1))
    }

    /// First entry of `leaf` that satisfies the lower bound (the leaf end
    /// if none does).
    fn first_in_leaf(&self, leaf: usize, lo: &[u64], lo_strict: bool) -> usize {
        let (start, end) = self.leaf_range(leaf);
        partition_rows(&self.keys, self.key_width, start, end, |k| !above_lo(lo, lo_strict, k))
    }

    /// Range scan: all entries with `lo ≤ key ≤ hi` under prefix
    /// comparison (strict bounds exclude equal-prefix keys). Passing an
    /// empty `lo`/`hi` leaves that end unbounded.
    pub fn scan<'a>(
        &'a self,
        lo: &'a [u64],
        lo_strict: bool,
        hi: &'a [u64],
        hi_strict: bool,
    ) -> Scan<'a> {
        // Descend to the first candidate leaf.
        let mut cur = self.root;
        while let Some(node) = self.internal(cur) {
            cur = node.children[node.route(self.key_width, lo)];
        }
        let pos = if lo.is_empty() { cur * ORDER } else { self.first_in_leaf(cur, lo, lo_strict) };
        // The lower bound travels with the iterator: a duplicate run may
        // span leaves, so the bound is re-checked per entry.
        Scan { tree: self, pos, lo, lo_strict, hi, hi_strict }
    }

    /// Start a galloping seek pass: a cursor advanced with non-decreasing
    /// lower bounds that retains its root-to-leaf descent path and
    /// re-descends from the lowest ancestor whose subtree can contain the
    /// target — O(log distance) per seek, however far apart successive
    /// probe keys lie in the index. This is how the batch pipeline serves
    /// every sorted variable-probe batch.
    pub fn seek_cursor(&self) -> SeekCursor<'_> {
        SeekCursor {
            tree: self,
            path: Vec::new(),
            leaf: self.root,
            pos: 0,
            started: false,
            descents: 0,
            seeks: 0,
            node_hops: 0,
        }
    }

    /// All entries with key prefix exactly `prefix`.
    pub fn scan_prefix<'a>(&'a self, prefix: &'a [u64]) -> Scan<'a> {
        self.scan(prefix, false, prefix, false)
    }

    /// Iterate everything (for tests and stats).
    pub fn iter(&self) -> Scan<'_> {
        self.scan(&[], false, &[], false)
    }
}

/// Galloping positioning cursor for sorted, possibly *sparse* probe
/// sequences ([`BTree::seek_cursor`]).
///
/// The caller presents non-decreasing lower bounds, and the cursor keeps
/// the root-to-leaf descent path alive: when the current leaf cannot
/// contain the next target it climbs the recorded path only as far as the
/// lowest ancestor whose subtree may hold the target and re-descends from
/// there. A seek therefore costs O(log distance) node visits instead of
/// one key check per intervening leaf — the difference between a merge
/// and a gallop when probe keys skip over large runs of the index.
/// Positioning is conservative (never past the first qualifying entry);
/// [`Scan`] re-checks the bound per entry, so landing early is slower but
/// never wrong.
pub struct SeekCursor<'a> {
    tree: &'a BTree,
    /// Descent path: `(internal node, child position taken)`, root first.
    path: Vec<(usize, usize)>,
    leaf: usize,
    /// Entry index the cursor sits on.
    pos: usize,
    started: bool,
    /// Full descents from the root (1 after the first `position`, plus one
    /// per climb that falls off the recorded path).
    pub descents: u64,
    /// `position` calls served.
    pub seeks: u64,
    /// Internal nodes climbed or re-descended while galloping.
    pub node_hops: u64,
}

impl<'a> SeekCursor<'a> {
    /// Move the cursor to the first entry not below `lo` (strictly above it
    /// when `lo_strict`), under prefix comparison. Successive calls must
    /// present non-decreasing `(lo, lo_strict)` bounds — sorted probe keys
    /// with a per-access constant strictness satisfy this; an empty `lo`
    /// keeps the cursor in place.
    pub fn position(&mut self, lo: &[u64], lo_strict: bool) {
        let tree = self.tree;
        self.seeks += 1;
        if !self.started {
            self.started = true;
            self.descents += 1;
            self.descend_from(tree.root, lo);
        } else if !lo.is_empty() && !tree.leaf_reaches(self.leaf, lo, lo_strict) {
            // The current leaf is exhausted for this bound: climb the
            // recorded path until an ancestor can route to the target.
            loop {
                let Some((pnode, pc)) = self.path.pop() else {
                    self.descents += 1;
                    self.descend_from(tree.root, lo);
                    break;
                };
                self.node_hops += 1;
                let node = tree.internal(pnode).expect("seek paths hold internal nodes");
                let j = node.route(tree.key_width, lo);
                // Routed to the last child: `lo` is at/after that
                // subtree's start, but only an ancestor can prove it is
                // not beyond this node entirely — keep climbing (the
                // root routes regardless).
                if j == node.children.len() - 1 && !self.path.is_empty() {
                    continue;
                }
                // Monotone bounds mean the target's child is never left
                // of the one we came through.
                let child = j.max(pc);
                self.path.push((pnode, child));
                self.descend_from(node.children[child], lo);
                break;
            }
        }
        if lo.is_empty() {
            return;
        }
        // Never move backward: entries before the cursor failed an earlier
        // (≤ current) bound.
        self.pos = self.pos.max(tree.first_in_leaf(self.leaf, lo, lo_strict));
    }

    /// Descend from `start`, recording the path, and land on a leaf.
    fn descend_from(&mut self, start: usize, lo: &[u64]) {
        let tree = self.tree;
        let mut cur = start;
        while let Some(node) = tree.internal(cur) {
            let pos = node.route(tree.key_width, lo);
            self.node_hops += 1;
            self.path.push((cur, pos));
            cur = node.children[pos];
        }
        self.leaf = cur;
        self.pos = cur * ORDER;
    }

    /// Range-scan forward from the current position without moving the
    /// cursor — each probe of a batch gets an independent iterator, so
    /// overlapping ranges (nested containment intervals) still enumerate
    /// every qualifying entry. The bounds may be shorter-lived than the
    /// cursor (reused key buffers); the iterator lives as long as both.
    pub fn scan_from<'b>(
        &self,
        lo: &'b [u64],
        lo_strict: bool,
        hi: &'b [u64],
        hi_strict: bool,
    ) -> Scan<'b>
    where
        'a: 'b,
    {
        Scan { tree: self.tree, pos: self.pos, lo, lo_strict, hi, hi_strict }
    }
}

/// Leaf-level iterator produced by [`BTree::scan`]: `(key, value)` pairs in
/// key order.
pub struct Scan<'a> {
    tree: &'a BTree,
    /// Next entry index.
    pos: usize,
    lo: &'a [u64],
    lo_strict: bool,
    hi: &'a [u64],
    hi_strict: bool,
}

impl<'a> Iterator for Scan<'a> {
    type Item = (&'a [u64], u32);

    fn next(&mut self) -> Option<Self::Item> {
        while self.pos < self.tree.len() {
            let k = self.tree.key(self.pos);
            if !self.lo.is_empty() && !above_lo(self.lo, self.lo_strict, k) {
                self.pos += 1;
                continue;
            }
            if !self.hi.is_empty() {
                let c = cmp_prefix(self.hi, k);
                if c == Ordering::Less || (self.hi_strict && c == Ordering::Equal) {
                    return None;
                }
            }
            let v = self.tree.vals[self.pos];
            self.pos += 1;
            return Some((k, v));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A width-1 tree over `(key, value)` pairs.
    fn tree1(entries: impl IntoIterator<Item = (u64, u32)>) -> BTree {
        let (keys, vals) = entries.into_iter().unzip();
        BTree::bulk_load(1, keys, vals)
    }

    #[test]
    fn bulk_load_and_scan() {
        let t = tree1((0..1000).map(|i| (i, i as u32)));
        assert_eq!(t.len(), 1000);
        assert!(t.height() >= 2);
        let got: Vec<u32> = t.scan(&[100], false, &[110], false).map(|(_, v)| v).collect();
        assert_eq!(got, (100..=110).collect::<Vec<u32>>());
        // Strict bounds.
        let got: Vec<u32> = t.scan(&[100], true, &[110], true).map(|(_, v)| v).collect();
        assert_eq!(got, (101..=109).collect::<Vec<u32>>());
    }

    #[test]
    fn bulk_load_sorts_its_input() {
        // Descending input, and equal keys ordered by value.
        let t = tree1((0..500u64).rev().map(|i| (i / 2, i as u32)));
        let all: Vec<u32> = t.iter().map(|(_, v)| v).collect();
        assert_eq!(all, (0..500).collect::<Vec<u32>>());
        assert!(t.height() >= 2);
    }

    #[test]
    fn wide_codes_sort_through_the_comparator() {
        // Two near-`u64::MAX` components need 128 bits: too wide to pack.
        let big = u64::MAX - 10;
        let t = BTree::bulk_load(2, vec![big, 3, big, 1, 5, big, big, 1], vec![0, 1, 2, 3]);
        let all: Vec<(Vec<u64>, u32)> = t.iter().map(|(k, v)| (k.to_vec(), v)).collect();
        let want = [(vec![5, big], 2), (vec![big, 1], 1), (vec![big, 1], 3), (vec![big, 3], 0)];
        assert_eq!(all, want);
    }

    #[test]
    fn duplicates_are_kept() {
        let t = tree1((0..100).map(|i| (7, i)));
        let hits: Vec<u32> = t.scan_prefix(&[7]).map(|(_, v)| v).collect();
        assert_eq!(hits.len(), 100);
        assert!(t.scan_prefix(&[8]).next().is_none());
    }

    #[test]
    fn composite_keys_and_prefix_scan() {
        // Key = (name, kind, pre): like the paper's `nkp` indexes.
        let (mut keys, mut vals) = (Vec::new(), Vec::new());
        for name in 0..3u64 {
            for pre in 0..50u64 {
                let p = pre * 3 + name;
                keys.extend([name, 1, p]);
                vals.push(p as u32);
            }
        }
        let t = BTree::bulk_load(3, keys, vals);
        // Prefix scan on name alone.
        assert_eq!(t.scan_prefix(&[1]).count(), 50);
        // Prefix equality + range on pre: name-1 entries with pre in [30, 60].
        let ranged: Vec<u32> =
            t.scan(&[1, 1, 30], false, &[1, 1, 60], false).map(|(_, v)| v).collect();
        assert!(ranged.iter().all(|&p| (30..=60).contains(&p)));
        assert!(!ranged.is_empty());
    }

    #[test]
    fn empty_and_unbounded() {
        let t = BTree::new(2);
        assert!(t.is_empty());
        assert!(t.iter().next().is_none());
        let t = tree1([(5, 5)]);
        let all: Vec<u32> = t.scan(&[], false, &[], false).map(|(_, v)| v).collect();
        assert_eq!(all, vec![5]);
        // Unbounded below, bounded above.
        assert!(t.scan(&[], false, &[4], false).next().is_none());
    }

    #[test]
    fn seek_cursor_matches_per_probe_scans() {
        // Duplicates, multi-leaf spread, sorted probes with repeats and
        // past-the-end bounds.
        let t = tree1((0..2000).map(|i| (i % 500, i as u32)));
        for strict in [false, true] {
            let mut cur = t.seek_cursor();
            for lo in [0u64, 3, 3, 120, 121, 300, 499, 600] {
                let (lo_k, hi_k) = ([lo], [lo + 4]);
                cur.position(&lo_k, strict);
                let got: Vec<u32> =
                    cur.scan_from(&lo_k, strict, &hi_k, strict).map(|(_, v)| v).collect();
                let fresh: Vec<u32> =
                    t.scan(&lo_k, strict, &hi_k, strict).map(|(_, v)| v).collect();
                assert_eq!(got, fresh, "lo {lo} strict {strict}");
            }
        }
    }

    #[test]
    fn seek_cursor_overlapping_ranges() {
        // Nested containment-style ranges: a wide range followed by a
        // narrower one starting later but ending earlier.
        let t = tree1((0..300).map(|i| (i, i as u32)));
        let mut cur = t.seek_cursor();
        let ranges = [(10u64, 200u64), (20, 50), (21, 30), (180, 260)];
        for (lo, hi) in ranges {
            cur.position(&[lo], false);
            let got: Vec<u32> = cur.scan_from(&[lo], false, &[hi], false).map(|(_, v)| v).collect();
            let expect: Vec<u32> = (lo..=hi.min(299)).map(|i| i as u32).collect();
            assert_eq!(got, expect, "range [{lo}, {hi}]");
        }
    }

    #[test]
    fn seek_cursor_empty_and_unbounded() {
        let t = BTree::new(1);
        let mut cur = t.seek_cursor();
        cur.position(&[5], false);
        assert!(cur.scan_from(&[5], false, &[9], false).next().is_none());
        let t = tree1((0..10).map(|i| (i, i as u32)));
        let mut cur = t.seek_cursor();
        cur.position(&[], false);
        let all: Vec<u32> = cur.scan_from(&[], false, &[], false).map(|(_, v)| v).collect();
        assert_eq!(all, (0..10).collect::<Vec<u32>>());
    }

    #[test]
    fn seek_cursor_duplicate_heavy() {
        // 40 leaves of the same key followed by sparse singletons: seeking
        // into and then past the duplicate run must stay exact.
        let t = tree1(
            (0..3000).map(|i| (7, i)).chain((0..50).map(|i| (100 + i * 10, 10_000 + i as u32))),
        );
        let mut cur = t.seek_cursor();
        for lo in [7u64, 7, 90, 100, 330, 495, 496, 700] {
            let lo_k = [lo];
            cur.position(&lo_k, false);
            let got: Vec<u32> = cur.scan_from(&lo_k, false, &lo_k, false).map(|(_, v)| v).collect();
            let fresh: Vec<u32> = t.scan(&lo_k, false, &lo_k, false).map(|(_, v)| v).collect();
            assert_eq!(got, fresh, "lo {lo}");
        }
    }

    #[test]
    fn seek_cursor_empty_intersections() {
        // Every probe falls in a gap (or past the end): each must come back
        // empty without disturbing later probes.
        let t = tree1((0..500).map(|i| (i * 10, i as u32)));
        let mut cur = t.seek_cursor();
        for lo in [5u64, 15, 1001, 2345] {
            cur.position(&[lo], false);
            assert!(
                cur.scan_from(&[lo], false, &[lo], false).next().is_none(),
                "gap probe {lo} must be empty"
            );
        }
        // An on-key probe after the misses still lands (bounds stay monotone).
        cur.position(&[4990], false);
        assert_eq!(cur.scan_from(&[4990], false, &[4990], false).count(), 1);
        for lo in [4995u64, 5001, 9999] {
            cur.position(&[lo], false);
            assert!(
                cur.scan_from(&[lo], false, &[lo], false).next().is_none(),
                "gap probe {lo} must be empty"
            );
        }
        // Empty tree: all probes empty.
        let t = BTree::new(1);
        let mut cur = t.seek_cursor();
        cur.position(&[5], false);
        assert!(cur.scan_from(&[5], false, &[9], false).next().is_none());
    }

    #[test]
    fn seek_cursor_gallops_past_leaf_runs() {
        // Two sparse probes over a 64k-entry tree, ~1000 leaves apart: the
        // seek cursor must stay logarithmic, not walk the leaf chain.
        let t = tree1((0..65_536).map(|i| (i, i as u32)));
        let mut cur = t.seek_cursor();
        for lo in [10u64, 65_000] {
            cur.position(&[lo], false);
            let got: Vec<u32> = cur.scan_from(&[lo], false, &[lo], false).map(|(_, v)| v).collect();
            assert_eq!(got, vec![lo as u32]);
        }
        assert!(
            cur.node_hops < 40,
            "far seek must gallop, not crawl the leaf chain ({} hops)",
            cur.node_hops
        );
        assert_eq!(cur.seeks, 2);
    }

    #[test]
    fn seek_cursor_random_monotone_probes() {
        // Deterministic pseudo-random monotone probe sequence cross-checked
        // against fresh scans, with duplicates in both tree and probes.
        let t = tree1((0..4000).map(|i| ((i * 7) % 900, i as u32)));
        let mut state = 0xDEADBEEFu64;
        let mut probes: Vec<u64> = (0..200)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 33) % 1000
            })
            .collect();
        probes.sort_unstable();
        for strict in [false, true] {
            let mut cur = t.seek_cursor();
            for &lo in &probes {
                let (lo_k, hi_k) = ([lo], [lo + 3]);
                cur.position(&lo_k, strict);
                let got: Vec<u32> =
                    cur.scan_from(&lo_k, strict, &hi_k, false).map(|(_, v)| v).collect();
                let fresh: Vec<u32> = t.scan(&lo_k, strict, &hi_k, false).map(|(_, v)| v).collect();
                assert_eq!(got, fresh, "lo {lo} strict {strict}");
            }
        }
    }

    #[test]
    fn prefix_cmp_semantics() {
        use Ordering::*;
        assert_eq!(cmp_prefix(&[3], &[3, 9]), Equal);
        assert_eq!(cmp_prefix(&[2], &[3, 9]), Less);
        assert_eq!(cmp_prefix(&[], &[3]), Equal);
    }
}
