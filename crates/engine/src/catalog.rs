//! The database: one `doc` relation, its statistics, and its B-tree indexes.

use crate::btree::BTree;
use crate::stats::DocStats;
use jgi_algebra::cq::DocCol;
use jgi_algebra::Value;
use jgi_xml::encode::{NO_NAME, NO_PARENT, NO_VALUE};
use jgi_sync::AtomicU64;
use jgi_xml::DocStore;
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

/// Lexicographic rank tables over the store's interned `name`/`value` ids.
///
/// The [`jgi_xml::Interner`] hands out ids in *first-occurrence* order, so
/// id comparison only decides equality. `Symbols` adds, per interner, a
/// table mapping each id to its rank in sorted string order — after which
/// every ordered string comparison in the inner loops (`value < "x"`,
/// `value ≤ value`) becomes a plain integer compare with no string access
/// at all. Built once at load time, O(n log n) in the number of distinct
/// strings (dwarfed by the index builds).
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
        Symbols { name_rank, value_rank, name_sorted, value_sorted }
    }

    /// Rank position of a constant among the interned *values*.
    pub fn value_rank_of(&self, store: &DocStore, s: &str) -> RankOf {
        let p = self
            .value_sorted
            .partition_point(|&id| store.values.resolve(id) < s) as u32;
        match store.values.get(s) {
            Some(_) => RankOf::Present(p),
            None => RankOf::Absent(p),
        }
    }

    /// Rank position of a constant among the interned *names*.
    pub fn name_rank_of(&self, store: &DocStore, s: &str) -> RankOf {
        let p =
            self.name_sorted.partition_point(|&id| store.names.resolve(id) < s) as u32;
        match store.names.get(s) {
            Some(_) => RankOf::Present(p),
            None => RankOf::Absent(p),
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
        let stats = DocStats::collect(&store);
        let symbols = Symbols::build(&store);
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
        let p = pre as usize;
        match col {
            IndexCol::PreSize => Value::Int(pre as i64 + self.store.size[p] as i64),
            IndexCol::Col(DocCol::Pre) => Value::Int(pre as i64),
            IndexCol::Col(DocCol::Size) => Value::Int(self.store.size[p] as i64),
            IndexCol::Col(DocCol::Level) => Value::Int(self.store.level[p] as i64),
            IndexCol::Col(DocCol::Kind) => Value::Kind(self.store.kind[p]),
            IndexCol::Col(DocCol::Name) => match self.store.name[p] {
                NO_NAME => Value::Null,
                id => Value::Str(self.store.names.resolve(id).to_string()),
            },
            IndexCol::Col(DocCol::Value) => match self.store.value[p] {
                NO_VALUE => Value::Null,
                id => Value::Str(self.store.values.resolve(id).to_string()),
            },
            IndexCol::Col(DocCol::Data) => {
                let d = self.store.data[p];
                if d.is_nan() {
                    Value::Null
                } else {
                    Value::Dec(d)
                }
            }
            IndexCol::Col(DocCol::Parent) => match self.store.parent[p] {
                NO_PARENT => Value::Null,
                pp => Value::Int(pp as i64),
            },
        }
    }

    /// Create an index with the given key/include columns; returns its slot.
    pub fn create_index(&mut self, key: Vec<IndexCol>, include: Vec<IndexCol>) -> usize {
        let mut name: String = key.iter().map(|c| c.letter()).collect();
        if !include.is_empty() {
            name.push('|');
            name.extend(include.iter().map(|c| c.letter()));
        }
        if let Some(pos) = self.indexes.iter().position(|i| i.name == name) {
            return pos; // idempotent
        }
        let entries: Vec<(Vec<Value>, u32)> = (0..self.store.len() as u32)
            .map(|pre| (key.iter().map(|&c| self.col_value(pre, c)).collect(), pre))
            .collect();
        let btree = BTree::bulk_load(key.len(), entries);
        self.indexes.push(Index { name, key, include, btree });
        self.id = next_database_id();
        self.indexes.len() - 1
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
        Ok(self.create_index(parse(key_s)?, parse(inc_s)?))
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
    use jgi_xml::generate::{generate_xmark, XmarkConfig};

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
    fn name_prefixed_index_partitions_by_tag() {
        let db = db();
        let idx = db.index_by_name("nksp").unwrap();
        let probe = [Value::Str("price".to_string()), Value::Kind(jgi_xml::NodeKind::Elem)];
        let prices: Vec<u32> = idx.btree.scan_prefix(&probe).map(|(_, v)| v).collect();
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
                    let smaller =
                        db.store.values.resolve(id) < "\u{10FFFF}not-interned";
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
        let probe = [Value::Str("person0".to_string())];
        let hits: Vec<u32> = idx.btree.scan_prefix(&probe).map(|(_, v)| v).collect();
        assert!(!hits.is_empty());
        for pre in hits {
            assert_eq!(db.store.value_str(pre), Some("person0"));
        }
    }
}
