//! A B+tree over integer-coded composite keys, each packed into one word.
//!
//! This is the *only* index structure in the system, mirroring the paper's
//! setup ("we exclusively rely on the vanilla B-tree indexes that are
//! provided by any RDBMS kernel"). A key is a fixed-width tuple of `u64`
//! *codes* compared lexicographically as integers — the catalog maps every
//! column value to a code that sorts exactly as the value does (see
//! [`crate::catalog::Database::value_code`]), the way an RDBMS stores keys in a
//! form that compares as raw bytes. Duplicates are allowed.
//!
//! An entry is its packed key alone. Component `j` gets a bit field of
//! `bits(max stored code + 1)` bits, most significant component first, so
//! integer order on the packed word is lexicographic order on the codes.
//! The word is a `u64` when the fields fit in 64 bits, a `u128` when they
//! fit in 128, and a 192-bit `U192` otherwise, chosen per tree when it is
//! built. A key whose declared fields need more than 128 bits is refused.
//! Every Table 6 key fits for any store under 2³² rows (`nkdlp`, the
//! widest, needs at most 34 + 4 + 34 + 18 + 34 = 124 bits). On the
//! benchmark's documents each takes at most 53 bits, and at most 61 on
//! XMark 1.0 (1.83 M rows), so all take the 8-byte word.
//!
//! An entry's *value* (its `pre` rank, in the catalog) is not stored beside
//! the key: one field of the key, the *value field*, holds it as the code
//! `2·v + 2`, which is the catalog's code of `pre`, and a scan yields it
//! decoded. A key without such a field ([`BTree::bulk_load`]) takes one
//! appended as its least significant field, so its entries sort by
//! `(key, value)`. The appended field does not count against the 128 bits:
//! a declared key of 97–128 bits plus its value takes the 192-bit word.
//!
//! Every field's largest value (all its bits set) lies above every code
//! stored in it. A probe arrives as a `&[u64]` code prefix and is packed
//! once per probe, each component clamped to its field's largest value: a
//! clamped code compares with every stored code exactly as the original
//! does, so the packed bound selects the same entries. A non-strict lower
//! bound packs with zeroed trailing fields, a strict one with them all
//! ones, plus one; an upper bound likewise becomes the exclusive packed
//! limit. Descents route by the non-strict lower bound, as they did on code
//! slices, so every descent, skip and seek is the same.
//!
//! Trees are bulk-loaded (how the catalog builds them): the packed words
//! are sorted with integer compares and cut into leaves of `ORDER` (64)
//! entries, chained for range scans, under internal levels built bottom-up.
//! Because nothing is ever inserted, the leaf level *is* the sorted word
//! array — leaf `i` holds entries `i * ORDER ..` — and the leaf chain is
//! "the next leaf number".

use std::cmp::Ordering;
use std::fmt::Debug;
use std::mem::size_of;
use std::ops::{BitOr, Shl, Shr, Sub};

/// Maximum entries per node (fan-out). 64 keeps the tree shallow.
const ORDER: usize = 64;

/// A packed key: `u64`, `u128` or [`U192`].
trait Word:
    Copy
    + Ord
    + Debug
    + From<u64>
    + BitOr<Output = Self>
    + Sub<Output = Self>
    + Shl<u32, Output = Self>
    + Shr<u32, Output = Self>
{
    const BITS: u32;
    const ONE: Self;
    const MAX: Self;

    /// The low 64 bits.
    fn low(self) -> u64;

    /// `self + 1`, saturating.
    fn succ(self) -> Self;
}

macro_rules! impl_word {
    ($($w:ty),*) => {$(
        impl Word for $w {
            const BITS: u32 = <$w>::BITS;
            const ONE: Self = 1;
            const MAX: Self = <$w>::MAX;

            fn low(self) -> u64 {
                self as u64
            }

            fn succ(self) -> Self {
                self.saturating_add(1)
            }
        }
    )*};
}

impl_word!(u64, u128);

/// A 192-bit word, most significant limb first, so that the derived
/// (lexicographic) order is integer order. Only a key of 97–128 declared
/// bits plus an appended value field takes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct U192([u64; 3]);

impl U192 {
    /// Limb `i`, or 0 outside the word.
    fn limb(self, i: Option<usize>) -> u64 {
        i.and_then(|i| self.0.get(i)).copied().unwrap_or(0)
    }
}

impl From<u64> for U192 {
    fn from(x: u64) -> Self {
        U192([0, 0, x])
    }
}

impl From<u128> for U192 {
    fn from(x: u128) -> Self {
        U192([0, (x >> 64) as u64, x as u64])
    }
}

impl BitOr for U192 {
    type Output = Self;

    fn bitor(self, o: Self) -> Self {
        U192(std::array::from_fn(|i| self.0[i] | o.0[i]))
    }
}

impl Sub for U192 {
    type Output = Self;

    fn sub(self, o: Self) -> Self {
        let (mut out, mut borrow) = ([0; 3], false);
        for i in (0..3).rev() {
            let (d, b1) = self.0[i].overflowing_sub(o.0[i]);
            let (d, b2) = d.overflowing_sub(borrow as u64);
            (out[i], borrow) = (d, b1 || b2);
        }
        U192(out)
    }
}

impl Shl<u32> for U192 {
    type Output = Self;

    fn shl(self, s: u32) -> Self {
        let (limbs, s) = ((s / 64) as usize, s % 64);
        U192(std::array::from_fn(|i| {
            let carry = if s == 0 { 0 } else { self.limb(Some(i + limbs + 1)) >> (64 - s) };
            self.limb(Some(i + limbs)) << s | carry
        }))
    }
}

impl Shr<u32> for U192 {
    type Output = Self;

    fn shr(self, s: u32) -> Self {
        let (limbs, s) = ((s / 64) as usize, s % 64);
        U192(std::array::from_fn(|i| {
            let from = i.checked_sub(limbs);
            let carry = match from.and_then(|j| j.checked_sub(1)) {
                Some(j) if s > 0 => self.0[j] << (64 - s),
                _ => 0,
            };
            self.limb(from) >> s | carry
        }))
    }
}

impl Word for U192 {
    const BITS: u32 = 192;
    const ONE: Self = U192([0, 0, 1]);
    const MAX: Self = U192([u64::MAX; 3]);

    fn low(self) -> u64 {
        self.0[2]
    }

    fn succ(self) -> Self {
        if self == Self::MAX {
            self
        } else {
            let (lo, c) = self.0[2].overflowing_add(1);
            let (mid, c) = self.0[1].overflowing_add(c as u64);
            U192([self.0[0] + c as u64, mid, lo])
        }
    }
}

/// `f()`, out of line. The 192-bit word's arms of the scan and seek
/// dispatches call through it, and its scans are boxed, so that word costs
/// the others neither inlining nor a larger [`Scan`].
#[cold]
#[inline(never)]
fn cold<T>(f: impl FnOnce() -> T) -> T {
    f()
}

/// The code of value `v` in the value field.
const fn value_code(v: u32) -> u64 {
    2 * v as u64 + 2
}

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
    fn code<W: Word>(self, key: W) -> u64 {
        ((key << (W::BITS - self.shift - self.bits)) >> (W::BITS - self.bits)).low()
    }
}

/// ORs `codes`, each shifted to `shift`, into `keys`.
fn or_codes<W: Word>(keys: &mut [W], codes: &[u64], shift: u32) {
    for (k, &c) in keys.iter_mut().zip(codes) {
        *k = *k | W::from(c) << shift;
    }
}

/// Packed keys under construction, in the narrowest word that holds the
/// fields packed so far.
enum Staged {
    Narrow(Vec<u64>),
    Wide(Vec<u128>),
    Wider(Vec<U192>),
}

impl Staged {
    /// Widen the words, if need be, to hold `top` bits, then OR `codes`
    /// in at `shift`.
    fn or_codes(&mut self, codes: &[u64], shift: u32, top: u32) {
        fn widen<A, B: From<A>>(keys: Vec<A>) -> Vec<B> {
            keys.into_iter().map(B::from).collect()
        }
        let wider = top > u128::BITS;
        *self = match std::mem::replace(self, Staged::Narrow(Vec::new())) {
            Staged::Narrow(k) if wider => Staged::Wider(widen(k)),
            Staged::Narrow(k) if top > u64::BITS => Staged::Wide(widen(k)),
            Staged::Wide(k) if wider => Staged::Wider(widen(k)),
            staged => staged,
        };
        match self {
            Staged::Narrow(k) => or_codes(k, codes, shift),
            Staged::Wide(k) => or_codes(k, codes, shift),
            Staged::Wider(k) => or_codes(k, codes, shift),
        }
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
struct Packed<W> {
    route: W,
    lo: W,
    hi: W,
}

/// An internal node.
#[derive(Debug, Clone)]
struct Internal<W> {
    /// Separator keys: separator `i` is the smallest key reachable under
    /// `children[i + 1]`.
    keys: Vec<W>,
    /// Child node ids (see [`Tree::internal`]).
    children: Vec<usize>,
}

impl<W: Word> Internal<W> {
    /// Child position a packed lower bound routes to: the first child whose
    /// subtree can hold an entry not below it.
    fn route(&self, lo: W) -> usize {
        self.keys.partition_point(|&k| k < lo)
    }
}

/// The tree over one word type.
#[derive(Debug, Clone)]
struct Tree<W> {
    /// One bit field per key component, most significant first.
    fields: Vec<Field>,
    /// The field that holds each entry's value.
    value: Field,
    /// Every entry's packed key in order — the leaf level.
    keys: Vec<W>,
    /// Node ids `0..n_leaves` are leaves; id `n_leaves + i` is
    /// `internal[i]`.
    n_leaves: usize,
    internal: Vec<Internal<W>>,
    root: usize,
}

/// The B+tree. Entry values are `u32`s (`pre` ranks in the catalog).
#[derive(Debug, Clone)]
pub struct BTree(Words);

/// A tree of one word type.
#[derive(Debug, Clone)]
enum Words {
    Narrow(Tree<u64>),
    Wide(Tree<u128>),
    Wider(Tree<U192>),
}

/// `$body` with `$t` bound to `$btree`'s tree, whichever its word.
macro_rules! with_tree {
    ($btree:expr, $t:ident => $body:expr) => {
        match &$btree.0 {
            Words::Narrow($t) => $body,
            Words::Wide($t) => $body,
            Words::Wider($t) => $body,
        }
    };
}

impl BTree {
    /// Empty tree for keys of the given width.
    pub fn new(key_width: usize) -> Self {
        BTree::bulk_load(key_width, Vec::new(), Vec::new())
            .expect("an empty tree gives each component one bit")
    }

    /// Bulk-load from entries: `codes` holds one `key_width`-code key per
    /// value in `vals`, flat. The values become an appended value field.
    /// Fails if the keys need more than 128 bits.
    pub fn bulk_load(key_width: usize, codes: Vec<u64>, vals: Vec<u32>) -> Result<Self, String> {
        let w = key_width;
        assert_eq!(codes.len(), vals.len() * w, "one key of width {w} per value");
        BTree::build(w, w, vals.len(), |j, col| {
            if j == w {
                for (c, &v) in col.iter_mut().zip(&vals) {
                    *c = value_code(v);
                }
            } else {
                for (i, c) in col.iter_mut().enumerate() {
                    *c = codes[i * w + j];
                }
            }
        })
    }

    /// Build the tree over `n` entries (the classic index build):
    /// `column(j, codes)` fills `codes[i]` with component `j` of entry
    /// `i`'s key. Field `value_field` holds each entry's value `v` as the
    /// code `2·v + 2`: one of the `key_width` key fields, or, when it is
    /// `key_width`, a field appended after them. Components are asked for
    /// least significant first, each once, and packed as they come into
    /// `u64` words, which are widened once each time the fields pass 64 or
    /// 128 bits. The words are then sorted and the internal levels built
    /// bottom-up. Fails if the key fields need more than 128 bits.
    pub fn build(
        key_width: usize,
        value_field: usize,
        n: usize,
        mut column: impl FnMut(usize, &mut [u64]),
    ) -> Result<Self, String> {
        assert!(value_field <= key_width, "the value field is a key field or appended");
        let width = key_width.max(value_field + 1);
        let mut codes = vec![0u64; n];
        let mut fields = vec![Field::default(); width];
        let mut staged = Staged::Narrow(vec![0; n]);
        let (mut shift, mut key_bits) = (0, 0);
        for j in (0..width).rev() {
            column(j, &mut codes);
            let top = codes.iter().max().map_or(1, |&c| c as u128 + 1);
            let bits = u128::BITS - top.leading_zeros();
            key_bits += if j < key_width { bits } else { 0 };
            if key_bits > u128::BITS {
                return Err(format!("a key of {key_width} components needs more than 128 bits"));
            }
            if shift + bits > U192::BITS {
                return Err(format!(
                    "a key of {key_width} components and its value need more than 192 bits"
                ));
            }
            staged.or_codes(&codes, shift, shift + bits);
            let max = u64::try_from((1u128 << bits) - 1).unwrap_or(u64::MAX);
            fields[j] = Field { shift, bits, max };
            shift += bits;
        }
        drop(codes);
        let value = fields[value_field];
        Ok(BTree(match staged {
            Staged::Narrow(keys) => Words::Narrow(Tree::new(fields, value, keys)),
            Staged::Wide(keys) => Words::Wide(Tree::new(fields, value, keys)),
            Staged::Wider(keys) => Words::Wider(Tree::new(fields, value, keys)),
        }))
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        with_tree!(self, t => t.keys.len())
    }

    /// True if the tree holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes per packed key: 8, 16 or 24.
    pub fn word_bytes(&self) -> usize {
        match self.0 {
            Words::Narrow(_) => size_of::<u64>(),
            Words::Wide(_) => size_of::<u128>(),
            Words::Wider(_) => size_of::<U192>(),
        }
    }

    /// Height (levels), for tests/explain.
    pub fn height(&self) -> usize {
        with_tree!(self, t => t.height())
    }

    /// Heap bytes the tree holds: packed keys and internal nodes.
    pub fn heap_bytes(&self) -> usize {
        with_tree!(self, t => t.heap_bytes())
    }

    /// Every entry's codes, one per field (an appended value field
    /// included), and its value, in order: for tests.
    pub fn entries(&self) -> Vec<(Vec<u64>, u32)> {
        with_tree!(self, t => {
            let codes = |k| t.fields.iter().map(|f| f.code(k)).collect();
            t.keys.iter().map(|&k| (codes(k), t.value_of(k))).collect()
        })
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
        Scan(match &self.0 {
            Words::Narrow(t) => Scans::Narrow(t.scan(bounds)),
            Words::Wide(t) => Scans::Wide(t.scan(bounds)),
            Words::Wider(t) => Scans::Wider(cold(|| Box::new(t.scan(bounds)))),
        })
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
            leaf: 0,
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

impl<W: Word> Tree<W> {
    /// Sort the packed keys, cut them into leaves and build the internal
    /// levels bottom-up.
    fn new(fields: Vec<Field>, value: Field, mut keys: Vec<W>) -> Self {
        keys.sort_unstable();
        let n_leaves = keys.len().div_ceil(ORDER).max(1);
        let mut tree = Tree { fields, value, keys, n_leaves, internal: Vec::new(), root: 0 };
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
        tree
    }

    /// The value packed key `key` holds.
    fn value_of(&self, key: W) -> u32 {
        (self.value.code(key) / 2 - 1) as u32
    }

    fn height(&self) -> usize {
        let mut h = 1;
        let mut cur = self.root;
        while let Some(node) = self.internal(cur) {
            cur = node.children[0];
            h += 1;
        }
        h
    }

    fn heap_bytes(&self) -> usize {
        let internal: usize = self
            .internal
            .iter()
            .map(|n| {
                n.keys.capacity() * size_of::<W>() + n.children.capacity() * size_of::<usize>()
            })
            .sum();
        self.fields.capacity() * size_of::<Field>()
            + self.keys.capacity() * size_of::<W>()
            + self.internal.capacity() * size_of::<Internal<W>>()
            + internal
    }

    /// `prefix` packed into the leading fields, each code clamped to its
    /// field's largest value; the trailing fields are zero.
    fn pack(&self, prefix: &[u64]) -> W {
        debug_assert!(prefix.len() <= self.fields.len(), "a probe is a key prefix");
        prefix
            .iter()
            .zip(&self.fields)
            .fold(W::from(0), |acc, (&c, f)| acc | W::from(c.min(f.max)) << f.shift)
    }

    /// All bits of the fields after the first `m` (`m ≥ 1`).
    fn tail(&self, m: usize) -> W {
        (W::ONE << self.fields[m - 1].shift) - W::ONE
    }

    /// Pack a probe's bounds: each prefix once.
    fn pack_bounds(&self, b: &Bounds<'_>) -> Packed<W> {
        let route = self.pack(b.lo);
        let lo = if b.lo_strict && !b.lo.is_empty() {
            (route | self.tail(b.lo.len())).succ()
        } else {
            route
        };
        // No stored key is all ones: every field holds less than its
        // largest value. `W::MAX` as the exclusive limit admits them all.
        let hi = match (b.hi.len(), self.pack(b.hi)) {
            (0, _) => W::MAX,
            (_, p) if b.hi_strict => p,
            (m, p) => (p | self.tail(m)).succ(),
        };
        Packed { route, lo, hi }
    }

    /// Compare `probe` (a possibly shorter prefix) with packed key `key`
    /// component by component, as the bounds were compared before packing:
    /// missing trailing components match anything. Checked builds compare
    /// every packed decision with this.
    fn cmp_prefix(&self, probe: &[u64], key: W) -> Ordering {
        probe
            .iter()
            .zip(&self.fields)
            .map(|(&c, f)| c.cmp(&f.code(key)))
            .find(|o| o.is_ne())
            .unwrap_or(Ordering::Equal)
    }

    /// Does `key` pass the lower bound of `b`, compared code by code?
    fn admits_lo(&self, b: &Bounds<'_>, key: W) -> bool {
        b.lo.is_empty()
            || match self.cmp_prefix(b.lo, key) {
                Ordering::Less => true,
                Ordering::Equal => !b.lo_strict,
                Ordering::Greater => false,
            }
    }

    /// Does `key` pass the upper bound of `b`, compared code by code?
    fn admits_hi(&self, b: &Bounds<'_>, key: W) -> bool {
        b.hi.is_empty()
            || match self.cmp_prefix(b.hi, key) {
                Ordering::Greater => true,
                Ordering::Equal => !b.hi_strict,
                Ordering::Less => false,
            }
    }

    /// The internal node with id `id`, or `None` for a leaf.
    fn internal(&self, id: usize) -> Option<&Internal<W>> {
        id.checked_sub(self.n_leaves).map(|i| &self.internal[i])
    }

    /// Entry range `[start, end)` of leaf `leaf`.
    fn leaf_range(&self, leaf: usize) -> (usize, usize) {
        let start = leaf * ORDER;
        (start, (start + ORDER).min(self.keys.len()))
    }

    /// Does the last entry of `leaf` reach the packed lower bound? If so
    /// the first qualifying entry lies in this leaf or before it.
    fn leaf_reaches(&self, leaf: usize, lo: W) -> bool {
        let (start, end) = self.leaf_range(leaf);
        end > start && self.keys[end - 1] >= lo
    }

    /// First entry of `leaf` that reaches the packed lower bound (the leaf
    /// end if none does).
    fn first_in_leaf(&self, leaf: usize, b: &Bounds<'_>, p: &Packed<W>) -> usize {
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

    /// [`BTree::scan`] on this tree.
    fn scan<'a>(&'a self, bounds: Bounds<'a>) -> TreeScan<'a, W> {
        let packed = self.pack_bounds(&bounds);
        // Descend to the first candidate leaf.
        let mut cur = self.root;
        while let Some(node) = self.internal(cur) {
            cur = node.children[node.route(packed.route)];
        }
        // The lower bound travels with the iterator: a duplicate run may
        // span leaves, so the bound is re-checked per entry.
        TreeScan { tree: self, pos: self.first_in_leaf(cur, &bounds, &packed), bounds, packed }
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
        let bounds = Bounds { lo, lo_strict, hi, hi_strict };
        let tree: &'a BTree = self.tree;
        Scan(match &tree.0 {
            Words::Narrow(t) => Scans::Narrow(self.seek_in(t, bounds)),
            Words::Wide(t) => Scans::Wide(self.seek_in(t, bounds)),
            Words::Wider(t) => Scans::Wider(cold(|| Box::new(self.seek_in(t, bounds)))),
        })
    }

    /// [`SeekCursor::seek`] on the cursor's tree.
    fn seek_in<'b, W: Word>(&mut self, tree: &'b Tree<W>, bounds: Bounds<'b>) -> TreeScan<'b, W> {
        let packed = tree.pack_bounds(&bounds);
        self.seeks += 1;
        if !self.started {
            self.started = true;
            self.descents += 1;
            self.descend_from(tree, tree.root, packed.route);
        } else if !bounds.lo.is_empty() && !tree.leaf_reaches(self.leaf, packed.lo) {
            // The current leaf is exhausted for this bound: climb the
            // recorded path until an ancestor can route to the target.
            loop {
                let Some((pnode, pc)) = self.path.pop() else {
                    self.descents += 1;
                    self.descend_from(tree, tree.root, packed.route);
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
                self.descend_from(tree, node.children[child], packed.route);
                break;
            }
        }
        if !bounds.lo.is_empty() {
            // Never move backward: entries before the cursor failed an
            // earlier (≤ current) bound.
            self.pos = self.pos.max(tree.first_in_leaf(self.leaf, &bounds, &packed));
        }
        TreeScan { tree, pos: self.pos, bounds, packed }
    }

    /// Descend from `start` by packed lower bound `route`, recording the
    /// path, and land on a leaf.
    fn descend_from<W: Word>(&mut self, tree: &Tree<W>, start: usize, route: W) {
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
/// [`SeekCursor::seek`]: each qualifying entry's value, in key order.
pub struct Scan<'a>(Scans<'a>);

/// A scan of a tree of one word type.
enum Scans<'a> {
    Narrow(TreeScan<'a, u64>),
    Wide(TreeScan<'a, u128>),
    Wider(Box<TreeScan<'a, U192>>),
}

impl Iterator for Scan<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        match &mut self.0 {
            Scans::Narrow(s) => s.next(),
            Scans::Wide(s) => s.next(),
            Scans::Wider(s) => cold(|| s.next()),
        }
    }
}

/// [`Scan`] over one word type.
struct TreeScan<'a, W> {
    tree: &'a Tree<W>,
    /// Next entry index.
    pos: usize,
    /// The probe as given, which checked builds compare each step with.
    bounds: Bounds<'a>,
    packed: Packed<W>,
}

impl<W: Word> Iterator for TreeScan<'_, W> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
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
            self.pos += 1;
            return Some(tree.value_of(k));
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

    /// Every entry's key codes (without the appended value field) and
    /// value, in scan order.
    fn entries(t: &BTree) -> Vec<(Vec<u64>, u32)> {
        t.entries()
            .into_iter()
            .map(|(mut k, v)| {
                assert_eq!(k.pop(), Some(value_code(v)), "the value field holds the value");
                (k, v)
            })
            .collect()
    }

    /// The values `cur.seek` yields for one probe.
    fn seek_vals(cur: &mut SeekCursor<'_>, lo: &[u64], ls: bool, hi: &[u64], hs: bool) -> Vec<u32> {
        cur.seek(lo, ls, hi, hs).collect()
    }

    #[test]
    fn bulk_load_and_scan() {
        let t = tree1((0..1000).map(|i| (i, i as u32)));
        assert_eq!(t.len(), 1000);
        assert!(t.height() >= 2);
        let got: Vec<u32> = t.scan(&[100], false, &[110], false).collect();
        assert_eq!(got, (100..=110).collect::<Vec<u32>>());
        // Strict bounds.
        let got: Vec<u32> = t.scan(&[100], true, &[110], true).collect();
        assert_eq!(got, (101..=109).collect::<Vec<u32>>());
    }

    #[test]
    fn bulk_load_sorts_its_input() {
        // Descending input, and equal keys ordered by value.
        let t = tree1((0..500u64).rev().map(|i| (i / 2, i as u32)));
        let all: Vec<u32> = t.iter().collect();
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
        let got: Vec<u32> = t.scan(&[big, 1], true, &[u64::MAX], false).collect();
        assert_eq!(got, [0]);
        let got: Vec<u32> = t.scan(&[big], false, &[big, 3], true).collect();
        assert_eq!(got, [1, 3]);
        assert!(t.scan(&[u64::MAX], false, &[], false).next().is_none());
    }

    #[test]
    fn three_wide_64_bit_keys_are_refused() {
        let big = u64::MAX - 10;
        assert!(BTree::bulk_load(3, vec![big, big, big], vec![0]).is_err());
    }

    #[test]
    fn the_word_widens_past_64_bits() {
        // A 60-bit component and the value field: eight values (codes up to
        // 16) take 5 bits, so the key takes 65; seven (up to 14) take 4.
        let narrow = tree1((0..7).map(|v| ((1 << 59) + v as u64, v)));
        assert_eq!(narrow.word_bytes(), 8);
        let wide = tree1((0..8).map(|v| ((1 << 59) + v as u64, v)));
        assert_eq!(wide.word_bytes(), 16);
        for t in [&narrow, &wide] {
            let n = t.len() as u32;
            assert_eq!(t.iter().collect::<Vec<u32>>(), (0..n).collect::<Vec<u32>>());
            let lo = [(1 << 59) + 2];
            assert_eq!(t.scan(&lo, true, &[u64::MAX], false).count(), n as usize - 3);
        }
    }

    #[test]
    fn the_word_widens_past_128_bits() {
        // Two 60-bit components and the value field: 127 values (codes up
        // to 254) take 8 bits and keep the word at 128 bits, 128 (up to 256)
        // take 9 and the 192-bit word; every bound selects the same entries.
        let key = |v: u32| [(1 << 59) + (v % 3) as u64, (1 << 59) + v as u64];
        let tree = |n: u32| BTree::bulk_load(2, (0..n).flat_map(key).collect(), (0..n).collect());
        let (wide, wider) = (tree(127).unwrap(), tree(128).unwrap());
        assert_eq!((wide.word_bytes(), wider.word_bytes()), (16, 24));
        for t in [&wide, &wider] {
            let n = t.len() as u32;
            let mut by_key: Vec<u32> = (0..n).collect();
            by_key.sort_by_key(|&v| key(v));
            assert_eq!(t.iter().collect::<Vec<u32>>(), by_key);
            assert!(entries(t).iter().all(|(k, v)| k[..] == key(*v)));
            let ones: Vec<u32> = t.scan_prefix(&[(1 << 59) + 1]).collect();
            assert_eq!(ones, (1..n).step_by(3).collect::<Vec<u32>>());
            let lo = key(40);
            let got: Vec<u32> = t.scan(&lo, true, &[(1 << 59) + 1, u64::MAX], false).collect();
            assert_eq!(got, (43..n).step_by(3).collect::<Vec<u32>>());
            let mut cur = t.seek_cursor();
            assert_eq!(seek_vals(&mut cur, &key(4), false, &key(4), false), [4]);
            let rest = seek_vals(&mut cur, &key(100), true, &key(100)[..1], false);
            assert_eq!(rest, (103..n).step_by(3).collect::<Vec<u32>>());
        }
    }

    #[test]
    fn the_192_bit_word_shifts_and_subtracts_as_an_integer() {
        let x: u128 = 0x0123_4567_89ab_cdef_fedc_ba98_7654_3210;
        for s in [0, 1, 31, 63, 64, 65, 100, 127] {
            assert_eq!(U192::from(x) >> s, U192::from(x >> s), ">> {s}");
            let high = x >> s; // shifted back left, it fits in 128 bits
            assert_eq!(U192::from(high) << s, U192::from(high << s), "<< {s}");
        }
        let w = U192::from(x) << 64;
        assert_eq!(w.0, [0x0123_4567_89ab_cdef, 0xfedc_ba98_7654_3210, 0]);
        assert_eq!((w << 64).0, [0xfedc_ba98_7654_3210, 0, 0]);
        assert_eq!((w >> 128).0, [0, 0, 0x0123_4567_89ab_cdef]);
        let field = Field { shift: 100, bits: 40, max: 0 };
        assert_eq!(field.code(w), (x >> 36) as u64 & ((1 << 40) - 1));
        assert_eq!(((U192::ONE << 130) - U192::ONE).0, [3, u64::MAX, u64::MAX]);
        assert_eq!(U192([0, u64::MAX, u64::MAX]).succ(), U192([1, 0, 0]));
        assert_eq!(U192::MAX.succ(), U192::MAX);
    }

    #[test]
    fn a_key_field_holds_the_value() {
        // Key (a, p, b) with `p` the value field: scans yield the values
        // decoded from the middle field.
        let (mut codes, mut pres) = (Vec::new(), Vec::new());
        for pre in 0..300u32 {
            codes.extend([(pre % 3) as u64, value_code(pre), (pre % 7) as u64]);
            pres.push(pre);
        }
        let t = BTree::build(3, 1, pres.len(), |j, col| {
            for (i, c) in col.iter_mut().enumerate() {
                *c = codes[i * 3 + j];
            }
        })
        .unwrap();
        let ones: Vec<u32> = t.scan_prefix(&[1]).collect();
        assert_eq!(ones, (0..300).filter(|p| p % 3 == 1).collect::<Vec<u32>>());
        let range: Vec<u32> =
            t.scan(&[2, value_code(20)], false, &[2, value_code(29)], true).collect();
        assert_eq!(range, [20, 23, 26]);
    }

    #[test]
    fn duplicates_are_kept() {
        let t = tree1((0..100).map(|i| (7, i)));
        let hits: Vec<u32> = t.scan_prefix(&[7]).collect();
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
        let ranged: Vec<u32> = t.scan(&[1, 1, 30], false, &[1, 1, 60], false).collect();
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
    fn heap_bytes_counts_words_and_nodes() {
        // One word per entry, its value inside, plus about 1 KB of internal
        // node per 4 096 entries.
        let t = tree1((0..4096).map(|i| (i, i as u32)));
        let per_entry = t.heap_bytes() as f64 / t.len() as f64;
        assert!((8.0..9.0).contains(&per_entry), "{per_entry} B per entry");
        let t = tree1((0..4096).map(|i| (u64::MAX - i, i as u32)));
        let per_entry = t.heap_bytes() as f64 / t.len() as f64;
        assert!((16.0..17.0).contains(&per_entry), "{per_entry} B per entry in the wide word");
    }

    #[test]
    fn empty_and_unbounded() {
        let t = BTree::new(2);
        assert!(t.is_empty());
        assert!(t.iter().next().is_none());
        let t = tree1([(5, 5)]);
        let all: Vec<u32> = t.scan(&[], false, &[], false).collect();
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
                let fresh: Vec<u32> = t.scan(&lo_k, strict, &hi_k, strict).collect();
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
            let fresh: Vec<u32> = t.scan(&lo_k, false, &lo_k, false).collect();
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
                let fresh: Vec<u32> = t.scan(&lo_k, strict, &hi_k, false).collect();
                assert_eq!(got, fresh, "lo {lo} strict {strict}");
            }
        }
    }

    #[test]
    fn prefix_cmp_semantics() {
        use Ordering::*;
        let BTree(Words::Narrow(t)) = BTree::bulk_load(2, vec![3, 9], vec![0]).unwrap() else {
            panic!("a 9-bit key takes the 8-byte word")
        };
        let k = t.keys[0];
        assert_eq!(t.cmp_prefix(&[3], k), Equal);
        assert_eq!(t.cmp_prefix(&[2], k), Less);
        assert_eq!(t.cmp_prefix(&[], k), Equal);
        assert_eq!(t.cmp_prefix(&[3, 10], k), Greater);
    }
}
