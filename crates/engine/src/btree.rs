//! A B+tree over integer-coded composite keys, each packed into one `u128`.
//!
//! This is the *only* index structure in the system, mirroring the paper's
//! setup ("we exclusively rely on the vanilla B-tree indexes that are
//! provided by any RDBMS kernel"). A key is a fixed-width tuple of `u64`
//! *codes* compared lexicographically as integers — the catalog maps every
//! column value to a code that sorts exactly as the value does (see
//! [`crate::catalog::Database::value_code`]), the way an RDBMS stores keys in a
//! form that compares as raw bytes. Duplicates are allowed.
//!
//! The tree stores each key as one `u128`. Component `j` gets a bit field
//! of `bits(max stored code + 1)` bits, most significant component first,
//! so integer order on the packed word is lexicographic order on the codes.
//! Every field's largest value (all its bits set) therefore lies above
//! every code stored in it. A probe still arrives as a `&[u64]` code
//! prefix and is packed once per probe, each component clamped to its
//! field's largest value: a clamped code compares with every stored code
//! exactly as the original does, so the packed bound selects the same
//! entries. A non-strict lower bound packs with zeroed trailing fields, a
//! strict one with them all ones, plus one; an upper bound likewise becomes
//! the exclusive packed limit. Descents route by the non-strict lower
//! bound, as they did on code slices, so every descent, skip and seek is
//! the same. A key wider than 128 bits is refused when the tree is built;
//! every Table 6 key fits for any store under 2³² rows (`nkdlp`, the
//! widest, needs at most 34 + 4 + 34 + 18 + 34 = 124 bits).
//!
//! Trees are bulk-loaded (how the catalog builds them): the entries are
//! sorted by `(key, value)` with integer compares and cut into leaves of
//! `ORDER` (64) entries, chained for range scans, under internal levels built
//! bottom-up. Because nothing is ever inserted, the leaf level *is* the
//! sorted entry array — leaf `i` holds entries `i * ORDER ..` — and the leaf
//! chain is "the next leaf number".

use std::cmp::Ordering;
use std::mem::size_of;

/// Maximum entries per node (fan-out). 64 keeps the tree shallow.
const ORDER: usize = 64;

/// Where one key component lives in the packed key.
#[derive(Debug, Clone, Copy, Default)]
struct Field {
    /// Position of the field's lowest bit.
    shift: u32,
    /// Width in bits.
    bits: u32,
    /// The field's largest value, saturated to `u64::MAX`: above every
    /// stored code of the component (or, saturated, above every other code
    /// too), so clamping a probe code to it is exact.
    max: u64,
}

impl Field {
    /// The component's code in packed key `key`.
    fn code(self, key: u128) -> u64 {
        ((key >> self.shift) & ((1u128 << self.bits) - 1)) as u64
    }
}

/// A probe as it arrives: code prefixes and their strictness (an empty
/// prefix leaves that end unbounded).
#[derive(Debug, Clone, Copy)]
struct Bounds<'a> {
    lo: &'a [u64],
    lo_strict: bool,
    hi: &'a [u64],
    hi_strict: bool,
}

/// A probe packed once into its tree's layout: the entries with
/// `lo ≤ key < hi` qualify; descents route by `route`, the non-strict
/// lower bound.
#[derive(Debug, Clone, Copy)]
struct Packed {
    route: u128,
    lo: u128,
    hi: u128,
}

/// Sort packed keys and their values by `(key, value)`.
///
/// A key that leaves 32 bits free — every Table 6 key at benchmark scale,
/// which needs about 53 — sorts as one `u128` `(key << 32) | value`. A key
/// of 97–128 bits sorts as `(key, value)` pairs: Table 6 keys reach
/// 124 bits on stores near 2³² rows.
fn sort_entries(bits: u32, mut keys: Vec<u128>, mut vals: Vec<u32>) -> (Vec<u128>, Vec<u32>) {
    if bits + u32::BITS > u128::BITS {
        let mut pairs: Vec<(u128, u32)> = keys.into_iter().zip(vals).collect();
        pairs.sort_unstable();
        return pairs.into_iter().unzip();
    }
    for (k, &v) in keys.iter_mut().zip(&vals) {
        *k = (*k << u32::BITS) | v as u128;
    }
    keys.sort_unstable();
    for (v, k) in vals.iter_mut().zip(&mut keys) {
        *v = *k as u32;
        *k >>= u32::BITS;
    }
    (keys, vals)
}

/// An internal node.
#[derive(Debug, Clone)]
struct Internal {
    /// Separator keys: separator `i` is the smallest key reachable under
    /// `children[i + 1]`.
    keys: Vec<u128>,
    /// Child node ids (see [`BTree::internal`]).
    children: Vec<usize>,
}

impl Internal {
    /// Child position a packed lower bound routes to: the first child whose
    /// subtree can hold an entry not below it.
    fn route(&self, lo: u128) -> usize {
        self.keys.partition_point(|&k| k < lo)
    }
}

/// The B+tree. Entry values are `u32`s (`pre` ranks in the catalog).
#[derive(Debug, Clone)]
pub struct BTree {
    /// One bit field per key component, most significant first.
    fields: Vec<Field>,
    /// Every entry's packed key in `(key, value)` order — the leaf level.
    keys: Vec<u128>,
    /// Every entry's value, parallel to `keys`.
    vals: Vec<u32>,
    /// Node ids `0..n_leaves` are leaves; id `n_leaves + i` is
    /// `internal[i]`.
    n_leaves: usize,
    internal: Vec<Internal>,
    root: usize,
}

impl BTree {
    /// Empty tree for keys of the given width (at most 128 components).
    pub fn new(key_width: usize) -> Self {
        BTree::build(key_width, Vec::new(), |_, _| {})
            .expect("an empty tree gives each component one bit")
    }

    /// Bulk-load from entries: `codes` holds one `key_width`-code key per
    /// value in `vals`, flat. Fails if the keys need more than 128 bits.
    pub fn bulk_load(key_width: usize, codes: Vec<u64>, vals: Vec<u32>) -> Result<Self, String> {
        let w = key_width;
        assert_eq!(codes.len(), vals.len() * w, "one key of width {w} per value");
        BTree::build(w, vals, |j, col| {
            for (i, c) in col.iter_mut().enumerate() {
                *c = codes[i * w + j];
            }
        })
    }

    /// Build the tree over one entry per value in `vals` (the classic index
    /// build): `column(j, codes)` fills `codes[i]` with component `j` of
    /// entry `i`'s key. Components are asked for least significant first,
    /// each once, and packed as they come. The entries are then sorted by
    /// `(key, value)` and the internal levels built bottom-up. Fails if the
    /// keys need more than 128 bits.
    pub fn build(
        key_width: usize,
        vals: Vec<u32>,
        mut column: impl FnMut(usize, &mut [u64]),
    ) -> Result<Self, String> {
        let n = vals.len();
        let mut keys = vec![0u128; n];
        let mut codes = vec![0u64; n];
        let mut fields = vec![Field::default(); key_width];
        let mut shift = 0;
        for j in (0..key_width).rev() {
            column(j, &mut codes);
            let top = codes.iter().max().map_or(1, |&c| c as u128 + 1);
            let bits = u128::BITS - top.leading_zeros();
            if shift + bits > u128::BITS {
                return Err(format!("a key of {key_width} components needs more than 128 bits"));
            }
            for (k, &c) in keys.iter_mut().zip(&codes) {
                *k |= (c as u128) << shift;
            }
            let max = u64::try_from((1u128 << bits) - 1).unwrap_or(u64::MAX);
            fields[j] = Field { shift, bits, max };
            shift += bits;
        }
        drop(codes);
        let (keys, vals) = sort_entries(shift, keys, vals);
        let n_leaves = n.div_ceil(ORDER).max(1);
        let mut tree = BTree { fields, keys, vals, n_leaves, internal: Vec::new(), root: 0 };
        // Each level is a list of (entry index of the subtree's first key,
        // node id).
        let mut level: Vec<(usize, usize)> = (0..n_leaves).map(|l| (l * ORDER, l)).collect();
        while level.len() > 1 {
            let mut next_level = Vec::with_capacity(level.len().div_ceil(ORDER));
            for chunk in level.chunks(ORDER) {
                let id = n_leaves + tree.internal.len();
                tree.internal.push(Internal {
                    keys: chunk[1..].iter().map(|&(first, _)| tree.keys[first]).collect(),
                    children: chunk.iter().map(|&(_, c)| c).collect(),
                });
                next_level.push((chunk[0].0, id));
            }
            level = next_level;
        }
        tree.root = level[0].1;
        Ok(tree)
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

    /// Heap bytes the tree holds: packed keys, values and internal nodes.
    pub fn heap_bytes(&self) -> usize {
        let internal: usize = self
            .internal
            .iter()
            .map(|n| {
                n.keys.capacity() * size_of::<u128>() + n.children.capacity() * size_of::<usize>()
            })
            .sum();
        self.fields.capacity() * size_of::<Field>()
            + self.keys.capacity() * size_of::<u128>()
            + self.vals.capacity() * size_of::<u32>()
            + self.internal.capacity() * size_of::<Internal>()
            + internal
    }

    /// The component codes of a packed key, as [`Scan`] yields it.
    pub fn decode(&self, key: u128) -> Vec<u64> {
        self.fields.iter().map(|f| f.code(key)).collect()
    }

    /// `prefix` packed into the leading fields, each code clamped to its
    /// field's largest value; the trailing fields are zero.
    fn pack(&self, prefix: &[u64]) -> u128 {
        debug_assert!(prefix.len() <= self.fields.len(), "a probe is a key prefix");
        prefix
            .iter()
            .zip(&self.fields)
            .fold(0, |acc, (&c, f)| acc | (c.min(f.max) as u128) << f.shift)
    }

    /// All bits of the fields after the first `m` (`m ≥ 1`).
    fn tail(&self, m: usize) -> u128 {
        (1u128 << self.fields[m - 1].shift) - 1
    }

    /// Pack a probe's bounds: each prefix once.
    fn pack_bounds(&self, b: &Bounds<'_>) -> Packed {
        let route = self.pack(b.lo);
        let lo = if b.lo_strict && !b.lo.is_empty() {
            (route | self.tail(b.lo.len())).saturating_add(1)
        } else {
            route
        };
        // No stored key is all ones: every field holds less than its
        // largest value. `u128::MAX` as the exclusive limit admits them all.
        let hi = match (b.hi.len(), self.pack(b.hi)) {
            (0, _) => u128::MAX,
            (_, p) if b.hi_strict => p,
            (m, p) => (p | self.tail(m)).saturating_add(1),
        };
        Packed { route, lo, hi }
    }

    /// Compare `probe` (a possibly shorter prefix) with packed key `key`
    /// component by component, as the bounds were compared before packing:
    /// missing trailing components match anything. Checked builds compare
    /// every packed decision with this.
    fn cmp_prefix(&self, probe: &[u64], key: u128) -> Ordering {
        probe
            .iter()
            .zip(&self.fields)
            .map(|(&c, f)| c.cmp(&f.code(key)))
            .find(|o| o.is_ne())
            .unwrap_or(Ordering::Equal)
    }

    /// Does `key` pass the lower bound of `b`, compared code by code?
    fn admits_lo(&self, b: &Bounds<'_>, key: u128) -> bool {
        b.lo.is_empty()
            || match self.cmp_prefix(b.lo, key) {
                Ordering::Less => true,
                Ordering::Equal => !b.lo_strict,
                Ordering::Greater => false,
            }
    }

    /// Does `key` pass the upper bound of `b`, compared code by code?
    fn admits_hi(&self, b: &Bounds<'_>, key: u128) -> bool {
        b.hi.is_empty()
            || match self.cmp_prefix(b.hi, key) {
                Ordering::Greater => true,
                Ordering::Equal => !b.hi_strict,
                Ordering::Less => false,
            }
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

    /// Does the last entry of `leaf` reach the packed lower bound? If so
    /// the first qualifying entry lies in this leaf or before it.
    fn leaf_reaches(&self, leaf: usize, lo: u128) -> bool {
        let (start, end) = self.leaf_range(leaf);
        end > start && self.keys[end - 1] >= lo
    }

    /// First entry of `leaf` that reaches the packed lower bound (the leaf
    /// end if none does).
    fn first_in_leaf(&self, leaf: usize, b: &Bounds<'_>, p: &Packed) -> usize {
        let (start, end) = self.leaf_range(leaf);
        let at = start + self.keys[start..end].partition_point(|&k| k < p.lo);
        debug_assert!(
            at == end || self.admits_lo(b, self.keys[at]),
            "packed lower bound admits less"
        );
        debug_assert!(
            at == start || !self.admits_lo(b, self.keys[at - 1]),
            "packed lower bound admits more"
        );
        at
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
        let bounds = Bounds { lo, lo_strict, hi, hi_strict };
        let packed = self.pack_bounds(&bounds);
        // Descend to the first candidate leaf.
        let mut cur = self.root;
        while let Some(node) = self.internal(cur) {
            cur = node.children[node.route(packed.route)];
        }
        // The lower bound travels with the iterator: a duplicate run may
        // span leaves, so the bound is re-checked per entry.
        Scan { tree: self, pos: self.first_in_leaf(cur, &bounds, &packed), bounds, packed }
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
    /// Full descents from the root (1 after the first seek, plus one per
    /// climb that falls off the recorded path).
    pub descents: u64,
    /// Seeks served.
    pub seeks: u64,
    /// Internal nodes climbed or re-descended while galloping.
    pub node_hops: u64,
}

impl<'a> SeekCursor<'a> {
    /// Move the cursor to the first entry not below `lo` (strictly above it
    /// when `lo_strict`), under prefix comparison, and range-scan forward
    /// from there up to `hi`, without moving the cursor further — each
    /// probe of a batch gets an independent iterator, so overlapping ranges
    /// (nested containment intervals) still enumerate every qualifying
    /// entry. Each bound is packed once. Successive calls must present
    /// non-decreasing `(lo, lo_strict)` bounds — sorted probe keys with a
    /// per-access constant strictness satisfy this; an empty `lo` keeps the
    /// cursor in place. The bounds may be shorter-lived than the cursor
    /// (reused key buffers); the iterator lives as long as both.
    pub fn seek<'b>(
        &mut self,
        lo: &'b [u64],
        lo_strict: bool,
        hi: &'b [u64],
        hi_strict: bool,
    ) -> Scan<'b>
    where
        'a: 'b,
    {
        let tree = self.tree;
        let bounds = Bounds { lo, lo_strict, hi, hi_strict };
        let packed = tree.pack_bounds(&bounds);
        self.seeks += 1;
        if !self.started {
            self.started = true;
            self.descents += 1;
            self.descend_from(tree.root, packed.route);
        } else if !lo.is_empty() && !tree.leaf_reaches(self.leaf, packed.lo) {
            // The current leaf is exhausted for this bound: climb the
            // recorded path until an ancestor can route to the target.
            loop {
                let Some((pnode, pc)) = self.path.pop() else {
                    self.descents += 1;
                    self.descend_from(tree.root, packed.route);
                    break;
                };
                self.node_hops += 1;
                let node = tree.internal(pnode).expect("seek paths hold internal nodes");
                let j = node.route(packed.route);
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
                self.descend_from(node.children[child], packed.route);
                break;
            }
        }
        if !lo.is_empty() {
            // Never move backward: entries before the cursor failed an
            // earlier (≤ current) bound.
            self.pos = self.pos.max(tree.first_in_leaf(self.leaf, &bounds, &packed));
        }
        Scan { tree, pos: self.pos, bounds, packed }
    }

    /// Descend from `start` by packed lower bound `route`, recording the
    /// path, and land on a leaf.
    fn descend_from(&mut self, start: usize, route: u128) {
        let tree = self.tree;
        let mut cur = start;
        while let Some(node) = tree.internal(cur) {
            let pos = node.route(route);
            self.node_hops += 1;
            self.path.push((cur, pos));
            cur = node.children[pos];
        }
        self.leaf = cur;
        self.pos = cur * ORDER;
    }
}

/// Leaf-level iterator produced by [`BTree::scan`] and
/// [`SeekCursor::seek`]: `(packed key, value)` pairs in key order
/// ([`BTree::decode`] turns a packed key back into codes).
pub struct Scan<'a> {
    tree: &'a BTree,
    /// Next entry index.
    pos: usize,
    /// The probe as given, which checked builds compare each step with.
    bounds: Bounds<'a>,
    packed: Packed,
}

impl Iterator for Scan<'_> {
    type Item = (u128, u32);

    fn next(&mut self) -> Option<Self::Item> {
        let (tree, b) = (self.tree, &self.bounds);
        while let Some(&k) = tree.keys.get(self.pos) {
            if k < self.packed.lo {
                debug_assert!(!tree.admits_lo(b, k), "packed lower bound skips an entry it admits");
                self.pos += 1;
                continue;
            }
            if k >= self.packed.hi {
                debug_assert!(
                    !tree.admits_hi(b, k),
                    "packed upper bound stops at an entry it admits"
                );
                return None;
            }
            debug_assert!(tree.admits_lo(b, k) && tree.admits_hi(b, k), "packed bounds admit more");
            let v = tree.vals[self.pos];
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
        BTree::bulk_load(1, keys, vals).unwrap()
    }

    /// Every entry's codes and value, in scan order.
    fn entries(t: &BTree) -> Vec<(Vec<u64>, u32)> {
        t.iter().map(|(k, v)| (t.decode(k), v)).collect()
    }

    /// The values `cur.seek` yields for one probe.
    fn seek_vals(cur: &mut SeekCursor<'_>, lo: &[u64], ls: bool, hi: &[u64], hs: bool) -> Vec<u32> {
        cur.seek(lo, ls, hi, hs).map(|(_, v)| v).collect()
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
    fn two_wide_64_bit_codes_pack_and_scan() {
        // Two near-`u64::MAX` components take all 128 bits: the entries
        // sort as (key, value) pairs.
        let big = u64::MAX - 10;
        let t =
            BTree::bulk_load(2, vec![big, 3, big, 1, 5, big, big, 1], vec![0, 1, 2, 3]).unwrap();
        let want = [(vec![5, big], 2), (vec![big, 1], 1), (vec![big, 1], 3), (vec![big, 3], 0)];
        assert_eq!(entries(&t), want);
        let got: Vec<u32> = t.scan(&[big, 1], true, &[u64::MAX], false).map(|(_, v)| v).collect();
        assert_eq!(got, [0]);
        let got: Vec<u32> = t.scan(&[big], false, &[big, 3], true).map(|(_, v)| v).collect();
        assert_eq!(got, [1, 3]);
        assert!(t.scan(&[u64::MAX], false, &[], false).next().is_none());
    }

    #[test]
    fn three_wide_64_bit_keys_are_refused() {
        let big = u64::MAX - 10;
        assert!(BTree::bulk_load(3, vec![big, big, big], vec![0]).is_err());
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
        let t = BTree::bulk_load(3, keys, vals).unwrap();
        // Prefix scan on name alone.
        assert_eq!(t.scan_prefix(&[1]).count(), 50);
        // Prefix equality + range on pre: name-1 entries with pre in [30, 60].
        let ranged: Vec<u32> =
            t.scan(&[1, 1, 30], false, &[1, 1, 60], false).map(|(_, v)| v).collect();
        assert!(ranged.iter().all(|&p| (30..=60).contains(&p)));
        assert!(!ranged.is_empty());
        // Decoding gives the codes back.
        assert!(entries(&t).iter().all(|(k, v)| k[2] == *v as u64 && k[1] == 1));
    }

    #[test]
    fn probes_beyond_the_stored_codes_clamp_exactly() {
        // Keys (a, b) with a in 0..4 and b in 0..10: b's codes take 4 bits,
        // whose largest value 15 lies above them, so any b ≥ 15 compares
        // with every entry as 15 does and never spills into a's field.
        let (mut codes, mut vals) = (Vec::new(), Vec::new());
        for a in 0..4u64 {
            for b in 0..10u64 {
                codes.extend([a, b]);
                vals.push((a * 10 + b) as u32);
            }
        }
        let t = BTree::bulk_load(2, codes, vals).unwrap();
        let count = |lo: &[u64], ls: bool, hi: &[u64], hs: bool| t.scan(lo, ls, hi, hs).count();
        for big in [10u64, 15, 16, 1 << 40, u64::MAX] {
            assert_eq!(count(&[1, 9], false, &[1, big], false), 1);
            assert_eq!(count(&[], false, &[1, big], true), 20);
            assert_eq!(count(&[1, big], false, &[], false), 20);
            assert_eq!(count(&[1, big], true, &[], false), 20);
            assert_eq!(count(&[big], false, &[], false), 0);
            assert_eq!(count(&[], false, &[big], false), 40);
        }
        // Strict bounds on a prefix pass over every key that extends it.
        assert_eq!(count(&[1], true, &[2], true), 0);
        assert_eq!(count(&[1], true, &[2], false), 10);
        assert_eq!(count(&[0, 0], true, &[0, 0], false), 0);
        assert_eq!(count(&[], false, &[0, 0], true), 0);
    }

    #[test]
    fn heap_bytes_counts_keys_values_and_nodes() {
        let t = tree1((0..4096).map(|i| (i, i as u32)));
        let per_entry = t.heap_bytes() as f64 / t.len() as f64;
        assert!((20.0..21.0).contains(&per_entry), "{per_entry} B per entry");
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
                let got = seek_vals(&mut cur, &lo_k, strict, &hi_k, strict);
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
            let got = seek_vals(&mut cur, &[lo], false, &[hi], false);
            let expect: Vec<u32> = (lo..=hi.min(299)).map(|i| i as u32).collect();
            assert_eq!(got, expect, "range [{lo}, {hi}]");
        }
    }

    #[test]
    fn seek_cursor_empty_and_unbounded() {
        let t = BTree::new(1);
        let mut cur = t.seek_cursor();
        assert!(seek_vals(&mut cur, &[5], false, &[9], false).is_empty());
        let t = tree1((0..10).map(|i| (i, i as u32)));
        let mut cur = t.seek_cursor();
        assert_eq!(seek_vals(&mut cur, &[], false, &[], false), (0..10).collect::<Vec<u32>>());
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
            let got = seek_vals(&mut cur, &lo_k, false, &lo_k, false);
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
            assert!(seek_vals(&mut cur, &[lo], false, &[lo], false).is_empty(), "gap probe {lo}");
        }
        // An on-key probe after the misses still lands (bounds stay monotone).
        assert_eq!(seek_vals(&mut cur, &[4990], false, &[4990], false).len(), 1);
        for lo in [4995u64, 5001, 9999] {
            assert!(seek_vals(&mut cur, &[lo], false, &[lo], false).is_empty(), "gap probe {lo}");
        }
        // Empty tree: all probes empty.
        let t = BTree::new(1);
        let mut cur = t.seek_cursor();
        assert!(seek_vals(&mut cur, &[5], false, &[9], false).is_empty());
    }

    #[test]
    fn seek_cursor_gallops_past_leaf_runs() {
        // Two sparse probes over a 64k-entry tree, ~1000 leaves apart: the
        // seek cursor must stay logarithmic, not walk the leaf chain.
        let t = tree1((0..65_536).map(|i| (i, i as u32)));
        let mut cur = t.seek_cursor();
        for lo in [10u64, 65_000] {
            assert_eq!(seek_vals(&mut cur, &[lo], false, &[lo], false), vec![lo as u32]);
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
                let got = seek_vals(&mut cur, &lo_k, strict, &hi_k, false);
                let fresh: Vec<u32> = t.scan(&lo_k, strict, &hi_k, false).map(|(_, v)| v).collect();
                assert_eq!(got, fresh, "lo {lo} strict {strict}");
            }
        }
    }

    #[test]
    fn prefix_cmp_semantics() {
        use Ordering::*;
        let t = BTree::bulk_load(2, vec![3, 9], vec![0]).unwrap();
        let k = t.iter().next().unwrap().0;
        assert_eq!(t.cmp_prefix(&[3], k), Equal);
        assert_eq!(t.cmp_prefix(&[2], k), Less);
        assert_eq!(t.cmp_prefix(&[], k), Equal);
        assert_eq!(t.cmp_prefix(&[3, 10], k), Greater);
    }
}
