//! The database: one `doc` relation, its statistics, and its B-tree indexes.

use crate::btree::BTree;
use crate::stats::DocStats;
use jgi_algebra::cq::DocCol;
use jgi_algebra::Value;
use jgi_sync::AtomicU64;
use jgi_xml::encode::{NO_NAME, NO_PARENT, NO_VALUE};
use jgi_xml::{DocStore, NodeKind};
use std::cmp::Ordering;
use std::sync::Arc;

/// A column usable in an index key: a base `doc` column or the computed
/// column `s = pre + size` (paper Table 6: "s:pre + size" — the subtree end
/// bound, which makes containment ranges sargable from either side).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IndexCol {
    /// A base column.
    Col(DocCol),
    /// `pre + size`.
    PreSize,
}

impl IndexCol {
    /// One-letter code used in index names (paper Table 6 footnote:
    /// `p:pre, s:pre + size, l:level, k:kind, n:name, v:value, d:data`;
    /// we add `q:parent`).
    pub fn letter(self) -> char {
        match self {
            IndexCol::Col(DocCol::Size) => 'z', // raw size (not used by default keys)
            IndexCol::Col(c) => c.letter(),
            IndexCol::PreSize => 's',
        }
    }

    /// Parse a letter code.
    pub fn from_letter(c: char) -> Option<IndexCol> {
        Some(match c {
            'p' => IndexCol::Col(DocCol::Pre),
            's' => IndexCol::PreSize,
            'l' => IndexCol::Col(DocCol::Level),
            'k' => IndexCol::Col(DocCol::Kind),
            'n' => IndexCol::Col(DocCol::Name),
            'v' => IndexCol::Col(DocCol::Value),
            'd' => IndexCol::Col(DocCol::Data),
            'q' => IndexCol::Col(DocCol::Parent),
            'z' => IndexCol::Col(DocCol::Size),
            _ => return None,
        })
    }
}

/// Rank tables of the store's ordered domains: the interned `name`/`value`
/// ids and the distinct `data` decimals.
///
/// The [`jgi_xml::Interner`] hands out ids in *first-occurrence* order, so
/// id comparison only decides equality. `Symbols` adds, per interner, a
/// table mapping each id to its rank in sorted string order — after which
/// every ordered string comparison in the inner loops (`value < "x"`,
/// `value ≤ value`) becomes a plain integer compare with no string access
/// at all — and the sorted distinct `data` values, which rank a decimal by
/// binary search. Together they give every column value its index-key
/// code ([`Database::value_code`]). Built once at load time, O(n log n) in
/// the number of distinct values.
#[derive(Debug, Clone, Default)]
pub struct Symbols {
    /// `name_rank[id]` = rank of `names.resolve(id)` in sorted order.
    pub name_rank: Vec<u32>,
    /// `value_rank[id]` = rank of `values.resolve(id)` in sorted order.
    pub value_rank: Vec<u32>,
    /// Name ids in lexicographic order (`name_sorted[rank] = id`).
    name_sorted: Vec<u32>,
    /// Value ids in lexicographic order.
    value_sorted: Vec<u32>,
    /// Distinct non-NaN `data` values in `f64::total_cmp` order (the order
    /// `Value::cmp` gives decimals).
    data_sorted: Vec<f64>,
}

/// Where a constant string falls in one rank table: its rank if interned,
/// otherwise the rank it *would* insert at (every interned string with a
/// smaller rank is `<` the constant; every other is `>`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankOf {
    /// The constant is interned and has this rank.
    Present(u32),
    /// Not interned; `rank` strings sort strictly below it.
    Absent(u32),
}

impl Symbols {
    /// Build both rank tables from a store's interners.
    pub fn build(store: &DocStore) -> Symbols {
        let rank = |it: &jgi_xml::Interner| -> (Vec<u32>, Vec<u32>) {
            let mut sorted: Vec<u32> = (0..it.len() as u32).collect();
            sorted.sort_by(|&a, &b| it.resolve(a).cmp(it.resolve(b)));
            let mut rank = vec![0u32; it.len()];
            for (r, &id) in sorted.iter().enumerate() {
                rank[id as usize] = r as u32;
            }
            (rank, sorted)
        };
        let (name_rank, name_sorted) = rank(&store.names);
        let (value_rank, value_sorted) = rank(&store.values);
        let mut data_sorted: Vec<f64> =
            store.data.iter().copied().filter(|d| !d.is_nan()).collect();
        data_sorted.sort_unstable_by(f64::total_cmp);
        data_sorted.dedup_by(|a, b| a.total_cmp(b) == Ordering::Equal);
        Symbols { name_rank, value_rank, name_sorted, value_sorted, data_sorted }
    }

    /// The value id of rank `rank`.
    pub(crate) fn value_id(&self, rank: usize) -> u32 {
        self.value_sorted[rank]
    }

    /// Rank position of a decimal among the distinct `data` values, under
    /// `f64::total_cmp`.
    fn data_rank_of(&self, x: f64) -> RankOf {
        let p = self.data_sorted.partition_point(|d| d.total_cmp(&x) == Ordering::Less);
        match self.data_sorted.get(p) {
            Some(d) if d.total_cmp(&x) == Ordering::Equal => RankOf::Present(p as u32),
            _ => RankOf::Absent(p as u32),
        }
    }

    /// Rank position of a constant among the interned *values*.
    pub fn value_rank_of(&self, store: &DocStore, s: &str) -> RankOf {
        let p = self.value_sorted.partition_point(|&id| store.values.resolve(id) < s) as u32;
        match store.values.get(s) {
            Some(_) => RankOf::Present(p),
            None => RankOf::Absent(p),
        }
    }

    /// Rank position of a constant among the interned *names*.
    pub fn name_rank_of(&self, store: &DocStore, s: &str) -> RankOf {
        let p = self.name_sorted.partition_point(|&id| store.names.resolve(id) < s) as u32;
        match store.names.get(s) {
            Some(_) => RankOf::Present(p),
            None => RankOf::Absent(p),
        }
    }
}

/// Index-key code of NULL in every column.
pub(crate) const NULL_CODE: u64 = 0;

/// The integer columns (`pre`, `size`, `level`, `parent`, `pre + size`)
/// code a value as if every integer in `0..INT_DOMAIN` were stored: the
/// value is its own rank. Every such integer is exact as an `f64`, which
/// is how `Value::cmp` compares an `Int` with a `Dec`.
const INT_DOMAIN: u64 = 1 << 53;

/// Code of the stored value of rank `r` in its column's sorted domain.
const fn stored(r: u64) -> u64 {
    2 * r + 2
}

/// Code of a value that is not stored, with `p` stored values below it:
/// strictly between two stored codes, so it equals none of them.
const fn between(p: u64) -> u64 {
    2 * p + 1
}

/// Code of a value whose class sorts below every non-NULL value of the
/// column (a number probing `name`).
const BELOW: u64 = between(0);

/// Code of a value whose class sorts above every value of the column (a
/// string probing `data`).
const ABOVE: u64 = u64::MAX;

impl RankOf {
    fn code(self) -> u64 {
        match self {
            RankOf::Present(r) => stored(r as u64),
            RankOf::Absent(p) => between(p as u64),
        }
    }
}

/// An integer's code in an integer column.
fn int_code(v: i64) -> u64 {
    match u64::try_from(v) {
        Err(_) => BELOW,
        Ok(v) if v >= INT_DOMAIN => between(INT_DOMAIN),
        Ok(v) => stored(v),
    }
}

/// A decimal's code in an integer column, ordered as `Value::cmp` orders
/// `Dec` against `Int` (`f64::total_cmp`, so `-0.0` sorts below `0`).
fn dec_int_code(x: f64) -> u64 {
    if x.total_cmp(&0.0) == Ordering::Less {
        BELOW
    } else if x.is_nan() || x >= INT_DOMAIN as f64 {
        between(INT_DOMAIN)
    } else if x.fract() == 0.0 {
        stored(x as u64)
    } else {
        between(x as u64 + 1)
    }
}

/// A column value borrowed from the store or a probe constant — a
/// [`Value`] that allocates nothing.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Cell<'a> {
    Null,
    Kind(NodeKind),
    Int(i64),
    Dec(f64),
    Str(&'a str),
}

impl<'a> Cell<'a> {
    /// View a value.
    pub(crate) fn of(v: &'a Value) -> Cell<'a> {
        match v {
            Value::Null => Cell::Null,
            Value::Kind(k) => Cell::Kind(*k),
            Value::Int(i) => Cell::Int(*i),
            Value::Dec(d) => Cell::Dec(*d),
            Value::Str(s) => Cell::Str(s),
        }
    }

    /// The owned value.
    pub(crate) fn to_value(self) -> Value {
        match self {
            Cell::Null => Value::Null,
            Cell::Kind(k) => Value::Kind(k),
            Cell::Int(i) => Value::Int(i),
            Cell::Dec(d) => Value::Dec(d),
            Cell::Str(s) => Value::Str(s.to_string()),
        }
    }

    /// Numeric view of `Int`/`Dec` ([`Value::as_f64`]).
    pub(crate) fn as_f64(self) -> Option<f64> {
        match self {
            Cell::Int(i) => Some(i as f64),
            Cell::Dec(d) => Some(d),
            _ => None,
        }
    }
}

/// A B-tree index over the `doc` relation.
#[derive(Debug, Clone)]
pub struct Index {
    /// Name in the paper's letter convention (`nkspl`, `vnlkp`, …; include
    /// columns after a `|`, e.g. `p|nvkls`).
    pub name: String,
    /// Key columns, most significant first.
    pub key: Vec<IndexCol>,
    /// Included (covering) columns — they don't participate in ordering.
    pub include: Vec<IndexCol>,
    /// The tree; entry values are `pre` ranks.
    pub btree: BTree,
}

/// The database a join graph runs against.
///
/// The store is held behind an [`Arc`] so a database can share one infoset
/// encoding with its owning session (and with concurrently-served snapshot
/// readers) instead of deep-copying the column vectors on construction.
#[derive(Debug, Clone)]
pub struct Database {
    /// The XML infoset encoding (shared, immutable).
    pub store: Arc<DocStore>,
    /// Collected statistics.
    pub stats: DocStats,
    /// Available indexes. Add one through [`Database::create_index`] /
    /// [`Database::create_index_by_name`], which also change the
    /// database's [identity](Database::id).
    pub indexes: Vec<Index>,
    /// Lexicographic rank tables for interned names/values (see [`Symbols`]).
    pub symbols: Symbols,
    /// See [`Database::id`].
    id: u64,
}

/// Mint a process-unique database identity.
fn next_database_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    // relaxed: ticket allocator — RMW atomicity alone guarantees the
    // uniqueness we need; an id reaches another thread only together with
    // the `Database` that carries it (audit: DESIGN.md §10).
    NEXT.fetch_add_relaxed(1)
}

impl Database {
    /// Load a store; collects statistics, creates no indexes. Accepts a
    /// plain [`DocStore`] (wrapped) or an existing `Arc<DocStore>` (shared,
    /// no copy).
    pub fn new(store: impl Into<Arc<DocStore>>) -> Database {
        let store = store.into();
        let symbols = Symbols::build(&store);
        let stats = DocStats::collect(&store, &symbols);
        Database { store, stats, indexes: Vec::new(), symbols, id: next_database_id() }
    }

    /// Process-unique identity of what the optimizer reads from this
    /// database: its statistics and its index set. A physical plan is
    /// reusable exactly on the identity it was planned for
    /// ([`crate::optimizer::PlanMemo`]) — it names index slots and embeds
    /// cost decisions. The identity is a ticket, not an address: a freed
    /// database's address can be handed to the next one. Creating an index
    /// takes a new ticket; a clone keeps its original's until then.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// A what-if copy for the index advisor: same store, statistics and
    /// symbols, no indexes, an identity of its own.
    pub fn hypothetical(&self) -> Database {
        Database {
            store: Arc::clone(&self.store),
            stats: self.stats.clone(),
            indexes: Vec::new(),
            symbols: self.symbols.clone(),
            id: next_database_id(),
        }
    }

    /// Load a store and create the paper's Table 6 index family.
    pub fn with_default_indexes(store: impl Into<Arc<DocStore>>) -> Database {
        let mut db = Database::new(store);
        for spec in DEFAULT_INDEXES {
            db.create_index_by_name(spec).expect("default index specs are valid");
        }
        db
    }

    /// Value of an index column for row `pre`.
    pub fn col_value(&self, pre: u32, col: IndexCol) -> Value {
        self.cell(pre, col).to_value()
    }

    /// [`Database::col_value`], borrowed.
    pub(crate) fn cell(&self, pre: u32, col: IndexCol) -> Cell<'_> {
        let p = pre as usize;
        match col {
            IndexCol::PreSize => Cell::Int(pre as i64 + self.store.size[p] as i64),
            IndexCol::Col(DocCol::Pre) => Cell::Int(pre as i64),
            IndexCol::Col(DocCol::Size) => Cell::Int(self.store.size[p] as i64),
            IndexCol::Col(DocCol::Level) => Cell::Int(self.store.level[p] as i64),
            IndexCol::Col(DocCol::Kind) => Cell::Kind(self.store.kind[p]),
            IndexCol::Col(DocCol::Name) => match self.store.name[p] {
                NO_NAME => Cell::Null,
                id => Cell::Str(self.store.names.resolve(id)),
            },
            IndexCol::Col(DocCol::Value) => match self.store.value[p] {
                NO_VALUE => Cell::Null,
                id => Cell::Str(self.store.values.resolve(id)),
            },
            IndexCol::Col(DocCol::Data) => {
                let d = self.store.data[p];
                if d.is_nan() {
                    Cell::Null
                } else {
                    Cell::Dec(d)
                }
            }
            IndexCol::Col(DocCol::Parent) => match self.store.parent[p] {
                NO_PARENT => Cell::Null,
                pp => Cell::Int(pp as i64),
            },
        }
    }

    /// [`Database::value_code`] of row `pre`'s value in `col`, read from
    /// the column vectors without building a `Value`.
    pub(crate) fn code(&self, pre: u32, col: IndexCol) -> u64 {
        let p = pre as usize;
        let s = &self.store;
        match col {
            IndexCol::PreSize => stored(pre as u64 + s.size[p] as u64),
            IndexCol::Col(DocCol::Pre) => stored(pre as u64),
            IndexCol::Col(DocCol::Size) => stored(s.size[p] as u64),
            IndexCol::Col(DocCol::Level) => stored(s.level[p] as u64),
            IndexCol::Col(DocCol::Kind) => stored(s.kind[p] as u64),
            IndexCol::Col(DocCol::Name) => match s.name[p] {
                NO_NAME => NULL_CODE,
                id => stored(self.symbols.name_rank[id as usize] as u64),
            },
            IndexCol::Col(DocCol::Value) => match s.value[p] {
                NO_VALUE => NULL_CODE,
                id => stored(self.symbols.value_rank[id as usize] as u64),
            },
            IndexCol::Col(DocCol::Data) => match s.data[p] {
                d if d.is_nan() => NULL_CODE,
                d => self.symbols.data_rank_of(d).code(),
            },
            IndexCol::Col(DocCol::Parent) => match s.parent[p] {
                NO_PARENT => NULL_CODE,
                pp => stored(pp as u64),
            },
        }
    }

    /// Index-key code of a value — a stored one or a probe constant — in
    /// `col`: an integer that compares with the code of every stored value
    /// of `col` exactly as the values compare under `Value::cmp`.
    ///
    /// NULL codes as 0; the stored value of rank *r* in the column's
    /// sorted domain codes as 2*r* + 2. The domains are the [`Symbols`]
    /// ranks for `name`/`value`, the distinct decimals for `data`, and the
    /// value itself for the integer columns and `kind`. A value that is not
    /// stored codes odd (2*p* + 1 with *p* stored values below it), so
    /// equality with it never matches; a value whose class sorts below the
    /// column's (`Null < Kind < Int/Dec < Str`) codes as 1, one whose class
    /// sorts above as `u64::MAX`.
    pub fn value_code(&self, col: IndexCol, v: &Value) -> u64 {
        self.cell_code(col, Cell::of(v))
    }

    /// [`Database::value_code`] of a borrowed value.
    pub(crate) fn cell_code(&self, col: IndexCol, c: Cell<'_>) -> u64 {
        let col = match col {
            IndexCol::PreSize => DocCol::Pre,
            IndexCol::Col(c) => c,
        };
        match (col, c) {
            (_, Cell::Null) => NULL_CODE,
            (DocCol::Kind, Cell::Kind(k)) => stored(k as u64),
            (DocCol::Kind, _) => ABOVE,
            (DocCol::Name, Cell::Str(s)) => self.symbols.name_rank_of(&self.store, s).code(),
            (DocCol::Value, Cell::Str(s)) => self.symbols.value_rank_of(&self.store, s).code(),
            (DocCol::Name | DocCol::Value, _) => BELOW,
            (_, Cell::Kind(_)) => BELOW,
            (_, Cell::Str(_)) => ABOVE,
            (DocCol::Data, num) => {
                self.symbols.data_rank_of(num.as_f64().expect("a number")).code()
            }
            (_, Cell::Int(v)) => int_code(v),
            (_, Cell::Dec(x)) => dec_int_code(x),
        }
    }

    /// Create an index with the given key/include columns; returns its
    /// slot. Each entry's `pre` is read from the key's `p` field; a key
    /// without one gets `p` appended as its last field in the tree, which
    /// orders equal keys by `pre` (the index's `key` and name stay as
    /// declared). Fails if the declared key needs more than 128 bits (no
    /// Table 6 key does on a store under 2³² rows); the appended `p` does
    /// not count.
    pub fn create_index(
        &mut self,
        key: Vec<IndexCol>,
        include: Vec<IndexCol>,
    ) -> Result<usize, String> {
        let mut name: String = key.iter().map(|c| c.letter()).collect();
        if !include.is_empty() {
            name.push('|');
            name.extend(include.iter().map(|c| c.letter()));
        }
        if let Some(pos) = self.indexes.iter().position(|i| i.name == name) {
            return Ok(pos); // idempotent
        }
        let n = self.store.len() as u32;
        let p = IndexCol::Col(DocCol::Pre);
        let mut fields = key.clone();
        let value_field = key.iter().position(|&c| c == p).unwrap_or_else(|| {
            fields.push(p);
            key.len()
        });
        let btree = BTree::build(key.len(), value_field, n as usize, |j, codes| {
            let col = fields[j];
            for (pre, c) in (0..n).zip(codes) {
                *c = self.code(pre, col);
            }
        })
        .map_err(|e| format!("index `{name}`: {e}"))?;
        self.indexes.push(Index { name, key, include, btree });
        self.id = next_database_id();
        Ok(self.indexes.len() - 1)
    }

    /// Create an index from its letter name (`"nkspl"`, `"p|nvkls"`).
    pub fn create_index_by_name(&mut self, spec: &str) -> Result<usize, String> {
        let (key_s, inc_s) = match spec.split_once('|') {
            Some((k, i)) => (k, i),
            None => (spec, ""),
        };
        let parse = |s: &str| -> Result<Vec<IndexCol>, String> {
            s.chars()
                .map(|c| IndexCol::from_letter(c).ok_or_else(|| format!("bad index letter `{c}`")))
                .collect()
        };
        self.create_index(parse(key_s)?, parse(inc_s)?)
    }

    /// Find an index by name.
    pub fn index_by_name(&self, name: &str) -> Option<&Index> {
        self.indexes.iter().find(|i| i.name == name)
    }
}

/// The default index family of paper Table 6 (plus `nkqp`, which serves the
/// sibling axes via the `parent` column — see DESIGN.md).
pub const DEFAULT_INDEXES: &[&str] = &[
    "nksp",    // node test + descendant preparation, document node access
    "nkspl",   // … + level for child steps
    "nlkps",   // level-organized variant
    "nlkp",    // raw path traversal
    "nlkpv",   // node test + value retrieval
    "vnlkp",   // value-prefixed: atomization/value comparisons
    "nkdlp",   // typed-value comparisons (price > 500)
    "p|nvkls", // serialization support (pre-keyed, covering)
    "nkqp",    // sibling axes (parent-qualified)
];

#[cfg(test)]
mod tests {
    use super::*;
    use jgi_xml::generate::{generate_dblp, generate_xmark, DblpConfig, XmarkConfig};

    fn db() -> Database {
        let t = generate_xmark(XmarkConfig { scale: 0.002, seed: 5 });
        let mut store = DocStore::new();
        store.add_tree(&t);
        Database::with_default_indexes(store)
    }

    #[test]
    fn default_indexes_built() {
        let db = db();
        assert_eq!(db.indexes.len(), DEFAULT_INDEXES.len());
        for idx in &db.indexes {
            assert_eq!(idx.btree.len(), db.store.len());
        }
        assert!(db.index_by_name("nkspl").is_some());
        assert!(db.index_by_name("p|nvkls").is_some());
        assert!(db.index_by_name("zzz").is_none());
    }

    #[test]
    fn index_names_round_trip() {
        let mut db = Database::new(DocStore::new());
        let i = db.create_index_by_name("nkdlp").unwrap();
        assert_eq!(db.indexes[i].name, "nkdlp");
        assert_eq!(db.indexes[i].key.len(), 5);
        assert!(db.create_index_by_name("x").is_err());
        // Idempotent.
        let j = db.create_index_by_name("nkdlp").unwrap();
        assert_eq!(i, j);
    }

    #[test]
    fn keys_wider_than_128_bits_are_refused() {
        // The largest `pre` code is 2n: `bits` bits per `p` component.
        let mut db = db();
        let bits = u64::BITS - (2 * db.store.len() as u64 + 1).leading_zeros();
        let fits = "p".repeat((u128::BITS / bits) as usize);
        let before = db.id();
        let err = db.create_index_by_name(&format!("{fits}p")).unwrap_err();
        assert!(err.contains("128 bits"), "{err}");
        assert_eq!(db.indexes.len(), DEFAULT_INDEXES.len());
        assert_eq!(db.id(), before);
        assert!(db.create_index_by_name(&fits).is_ok());
    }

    #[test]
    fn a_128_bit_key_without_pre_takes_the_widest_word() {
        // `s` (`pre + size`) components up to 128 bits, then `p` appended:
        // the tree passes 128 bits, and still yields every `pre` once, in
        // key order.
        let mut db = db();
        let s = IndexCol::PreSize;
        let top = (0..db.store.len() as u32).map(|pre| db.code(pre, s)).max().unwrap();
        let bits = u64::BITS - (top + 1).leading_zeros();
        let fits = "s".repeat((u128::BITS / bits) as usize);
        assert!(db.create_index_by_name(&format!("{fits}s")).unwrap_err().contains("128 bits"));
        let i = db.create_index_by_name(&fits).unwrap();
        let idx = &db.indexes[i];
        assert_eq!(idx.btree.word_bytes(), 24);
        let pres: Vec<u32> = idx.btree.iter().collect();
        let mut by_key: Vec<u32> = (0..db.store.len() as u32).collect();
        by_key.sort_by_key(|&pre| (db.code(pre, s), pre));
        assert_eq!(pres, by_key);
    }

    #[test]
    fn table6_trees_take_one_word_per_entry() {
        // Each entry is one 8-byte packed key, its `pre` inside, plus about
        // 0.3 bytes of internal node: about 74.5 B per row over nine trees.
        let t = generate_xmark(XmarkConfig { scale: 0.005, seed: 3 });
        let mut store = DocStore::new();
        store.add_tree(&t);
        let db = Database::with_default_indexes(store);
        let bytes: usize = db.indexes.iter().map(|i| i.btree.heap_bytes()).sum();
        let per_row = bytes as f64 / db.store.len() as f64;
        assert!(per_row <= 80.0, "{per_row:.1} B per row over the nine trees");
    }

    #[test]
    fn table6_keys_fit_the_8_byte_word_and_hold_every_pre() {
        let mut store = DocStore::new();
        store.add_tree(&generate_xmark(XmarkConfig { scale: 0.005, seed: 3 }));
        store.add_tree(&generate_dblp(DblpConfig { publications: 1_000, seed: 3 }));
        let db = Database::with_default_indexes(store);
        let n = db.store.len();
        for idx in &db.indexes {
            assert_eq!(idx.btree.word_bytes(), 8, "{}", idx.name);
            let mut seen = vec![false; n];
            for pre in idx.btree.iter() {
                assert!(!std::mem::replace(&mut seen[pre as usize], true), "{}: {pre}", idx.name);
            }
            assert!(seen.iter().all(|&s| s), "{}: every pre once", idx.name);
        }
    }

    #[test]
    fn a_key_without_pre_orders_by_pre() {
        let mut db = db();
        let i = db.create_index_by_name("kl").unwrap();
        let idx = &db.indexes[i];
        assert_eq!(idx.key.len(), 2);
        let entries = idx.btree.entries();
        assert_eq!(entries.len(), db.store.len());
        for ((ka, a), (kb, b)) in entries.iter().zip(&entries[1..]) {
            assert!((ka, a) < (kb, b), "rows {a} and {b} out of order");
            assert_eq!(ka[2], db.code(*a, IndexCol::Col(DocCol::Pre)), "`p` appended");
        }
    }

    #[test]
    fn name_prefixed_index_partitions_by_tag() {
        let db = db();
        let idx = db.index_by_name("nksp").unwrap();
        let probe = [
            db.value_code(IndexCol::Col(DocCol::Name), &Value::Str("price".to_string())),
            db.value_code(IndexCol::Col(DocCol::Kind), &Value::Kind(NodeKind::Elem)),
        ];
        let prices: Vec<u32> = idx.btree.scan_prefix(&probe).collect();
        let expected = db.stats.name_count("price", jgi_xml::NodeKind::Elem);
        assert_eq!(prices.len() as u64, expected);
        // All hits really are price elements.
        for pre in prices {
            assert_eq!(db.store.name_str(pre), Some("price"));
        }
    }

    #[test]
    fn symbol_ranks_follow_string_order() {
        let db = db();
        let sym = &db.symbols;
        // Rank order must agree with string order for every id pair.
        let n = db.store.values.len() as u32;
        for a in (0..n).step_by(7) {
            for b in (0..n).step_by(11) {
                let by_rank = sym.value_rank[a as usize].cmp(&sym.value_rank[b as usize]);
                let by_str = db.store.values.resolve(a).cmp(db.store.values.resolve(b));
                assert_eq!(by_rank, by_str, "ids {a}/{b}");
            }
        }
        // Present constants resolve to their own rank; absent ones to the
        // insertion point (everything below is strictly smaller).
        let some_id = 0u32;
        let s = db.store.values.resolve(some_id).to_string();
        match sym.value_rank_of(&db.store, &s) {
            RankOf::Present(r) => assert_eq!(r, sym.value_rank[some_id as usize]),
            RankOf::Absent(_) => panic!("interned string reported absent"),
        }
        match sym.value_rank_of(&db.store, "\u{10FFFF}not-interned") {
            RankOf::Present(_) => panic!("uninterned string reported present"),
            RankOf::Absent(p) => {
                for id in 0..n {
                    let below = sym.value_rank[id as usize] < p;
                    let smaller = db.store.values.resolve(id) < "\u{10FFFF}not-interned";
                    assert_eq!(below, smaller, "id {id}");
                }
            }
        }
    }

    #[test]
    fn computed_s_column() {
        let db = db();
        let pre = 1u32;
        let s = db.col_value(pre, IndexCol::PreSize);
        assert_eq!(s, Value::Int(1 + db.store.size[1] as i64));
    }

    #[test]
    fn value_prefixed_index_finds_by_value() {
        let db = db();
        let idx = db.index_by_name("vnlkp").unwrap();
        // person0 id attribute value must be findable.
        let probe = [db.value_code(IndexCol::Col(DocCol::Value), &Value::Str("person0".into()))];
        let hits: Vec<u32> = idx.btree.scan_prefix(&probe).collect();
        assert!(!hits.is_empty());
        for pre in hits {
            assert_eq!(db.store.value_str(pre), Some("person0"));
        }
        // An absent value codes odd and matches nothing.
        let absent = db.value_code(IndexCol::Col(DocCol::Value), &Value::Str("person0~".into()));
        assert_eq!(absent % 2, 1);
        assert!(idx.btree.scan_prefix(&[absent]).next().is_none());
    }

    #[test]
    fn edge_values_compare_by_code_as_by_value() {
        let mut t = jgi_xml::Tree::new("e.xml");
        let r = t.add_element(t.root(), "r");
        for text in ["0", "2", "500.5", "x"] {
            t.add_text_element(r, "v", text);
        }
        let mut store = DocStore::new();
        store.add_tree(&t);
        let db = Database::new(store);
        let probes = [
            Value::Kind(NodeKind::Elem),
            Value::Dec(f64::NEG_INFINITY),
            Value::Int(-1),
            Value::Dec(-0.0),
            Value::Int(0),
            Value::Dec(0.5),
            Value::Int(2),
            Value::Dec(2.5),
            Value::Dec(500.5),
            Value::Int(501),
            Value::Int(i64::MAX),
            Value::Dec(f64::INFINITY),
            Value::Dec(f64::NAN),
            Value::Str("".into()),
            Value::Str("v".into()),
            Value::Str("w".into()),
        ];
        let cols = [
            DocCol::Pre,
            DocCol::Size,
            DocCol::Kind,
            DocCol::Name,
            DocCol::Value,
            DocCol::Data,
            DocCol::Parent,
        ];
        for col in cols.map(IndexCol::Col).into_iter().chain([IndexCol::PreSize]) {
            for (a, b) in probes.iter().zip(&probes[1..]) {
                assert!(db.value_code(col, a) <= db.value_code(col, b), "{col:?}: {a} vs {b}");
            }
            for pre in 0..db.store.len() as u32 {
                let stored = db.col_value(pre, col);
                for p in &probes {
                    let by_code = db.value_code(col, p).cmp(&db.code(pre, col));
                    assert_eq!(by_code, p.cmp(&stored), "{col:?}: {p} vs stored {stored}");
                }
            }
        }
    }

    #[test]
    fn codes_order_entries_as_values_do() {
        let db = db();
        for idx in &db.indexes {
            let tuple = |pre: u32| -> Vec<Value> {
                idx.key.iter().map(|&c| db.col_value(pre, c)).collect()
            };
            let entries = idx.btree.entries();
            assert_eq!(entries.len(), db.store.len());
            for pair in entries.windows(2) {
                let ((ka, a), (kb, b)) = (&pair[0], &pair[1]);
                let (va, vb) = (tuple(*a), tuple(*b));
                assert_eq!(ka.cmp(kb), va.cmp(&vb), "{}: rows {a} and {b}", idx.name);
                assert!(
                    va < vb || (va == vb && a < b),
                    "{}: rows {a} and {b} out of order",
                    idx.name
                );
            }
            for (k, pre) in &entries {
                let codes: Vec<u64> = idx.key.iter().map(|&c| db.code(*pre, c)).collect();
                assert_eq!(k, &codes, "{}: row {pre}", idx.name);
                let probed: Vec<u64> =
                    tuple(*pre).iter().zip(&idx.key).map(|(v, &c)| db.value_code(c, v)).collect();
                assert_eq!(probed, codes, "{}: a stored value probes as its own code", idx.name);
            }
        }
    }
}
