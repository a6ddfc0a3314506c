//! Statistics over the `doc` relation.
//!
//! The paper's key observation (§4.1): "the RDBMS's data distribution
//! statistics capture tag name distribution while value-prefixed keys lead
//! to statistics about the distribution of the (untyped) element and
//! attribute values" — and those generic statistics alone let the optimizer
//! reorder steps and reverse axes. We keep exactly that kind of statistics:
//!
//! * exact frequency tables for the low-cardinality columns `name` and
//!   `kind` (an XMark instance has ~77 distinct names regardless of size);
//! * equi-depth histograms for `value` and `data`;
//! * per-name structural aggregates (average subtree size, average level)
//!   feeding the containment-join selectivity model.

use crate::catalog::Symbols;
use jgi_algebra::cq::DocCol;
use jgi_algebra::Value;
use jgi_xml::encode::{NO_NAME, NO_VALUE};
use jgi_xml::{DocStore, NodeKind};
use std::collections::HashMap;

/// Number of equi-depth histogram buckets.
const BUCKETS: usize = 64;

/// An equi-depth histogram over a sortable column.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    /// Bucket boundaries (ascending); bucket `i` covers
    /// `(bounds[i-1], bounds[i]]`.
    pub bounds: Vec<Value>,
    /// Number of (non-null) values summarized.
    pub count: u64,
    /// Approximate distinct count.
    pub n_distinct: u64,
}

impl Histogram {
    /// Build from a sample of values (consumes and sorts them).
    pub fn build(mut values: Vec<Value>) -> Histogram {
        values.sort();
        let distinct = values.windows(2).filter(|w| w[0] != w[1]).count() + 1;
        Histogram::equi_depth(values.len(), distinct, |i| values[i].clone())
    }

    /// The histogram of `count` values, `n_distinct` of them distinct,
    /// whose `i`-th smallest is `nth(i)` (asked for in ascending `i`).
    fn equi_depth(
        count: usize,
        n_distinct: usize,
        mut nth: impl FnMut(usize) -> Value,
    ) -> Histogram {
        if count == 0 {
            return Histogram::default();
        }
        let mut bounds: Vec<Value> =
            (1..=BUCKETS).map(|b| nth(b * (count - 1) / BUCKETS)).collect();
        bounds.dedup();
        Histogram { bounds, count: count as u64, n_distinct: n_distinct as u64 }
    }

    /// Estimated fraction of values `< v` (or `<= v` with `inclusive`).
    pub fn fraction_below(&self, v: &Value, inclusive: bool) -> f64 {
        if self.count == 0 || self.bounds.is_empty() {
            return 0.5;
        }
        let pos = if inclusive {
            self.bounds.partition_point(|b| b <= v)
        } else {
            self.bounds.partition_point(|b| b < v)
        };
        pos as f64 / self.bounds.len() as f64
    }

    /// Estimated selectivity of `col = v`.
    pub fn eq_sel(&self) -> f64 {
        if self.n_distinct == 0 {
            return 0.0;
        }
        1.0 / self.n_distinct as f64
    }
}

/// Per-name structural aggregates.
#[derive(Debug, Clone, Default)]
pub struct NameStats {
    /// Number of nodes carrying this name.
    pub count: u64,
    /// Average subtree size of those nodes.
    pub avg_size: f64,
    /// Average level.
    pub avg_level: f64,
}

/// Statistics for one loaded `doc` relation.
#[derive(Debug, Clone)]
pub struct DocStats {
    /// Total number of rows (nodes).
    pub total: u64,
    /// Exact per-kind counts.
    pub kind_counts: HashMap<NodeKind, u64>,
    /// Exact per-(name, kind) aggregates.
    pub name_stats: HashMap<(String, NodeKind), NameStats>,
    /// Average subtree size over all nodes.
    pub avg_size: f64,
    /// Average number of children (content + attributes).
    pub avg_children: f64,
    /// Maximum level.
    pub max_level: u16,
    /// Histogram over untyped string values.
    pub value_hist: Histogram,
    /// Histogram over typed decimal values.
    pub data_hist: Histogram,
    /// Distinct untyped values.
    pub value_distinct: u64,
}

/// The `value` histogram from occurrence counts per rank: the `i`-th
/// smallest value is the one whose run of the prefix sums holds `i`, which
/// a walk finds for each bucket bound in turn.
fn rank_histogram(store: &DocStore, symbols: &Symbols, per_rank: &[usize]) -> Histogram {
    let count = per_rank.iter().sum();
    let distinct = per_rank.iter().filter(|&&c| c > 0).count();
    let (mut rank, mut below) = (0, 0);
    Histogram::equi_depth(count, distinct, |i| {
        while below + per_rank[rank] <= i {
            below += per_rank[rank];
            rank += 1;
        }
        Value::Str(store.values.resolve(symbols.value_id(rank)).to_string())
    })
}

impl DocStats {
    /// Collect statistics in one pass over the store — the moral
    /// equivalent of `RUNSTATS`. The `value` histogram comes from
    /// occurrence counts per [`Symbols`] rank, the `data` one from sorting
    /// the decimals.
    pub fn collect(store: &DocStore, symbols: &Symbols) -> DocStats {
        let total = store.len() as u64;
        let mut kind_counts: HashMap<NodeKind, u64> = HashMap::new();
        let mut name_agg: HashMap<(u32, NodeKind), (u64, f64, f64)> = HashMap::new();
        let mut size_sum = 0f64;
        let mut max_level = 0u16;
        let mut per_rank = vec![0usize; symbols.value_rank.len()];
        let mut datas: Vec<f64> = Vec::new();
        for pre in 0..store.len() {
            let kind = store.kind[pre];
            *kind_counts.entry(kind).or_default() += 1;
            let size = store.size[pre] as f64;
            size_sum += size;
            let level = store.level[pre];
            max_level = max_level.max(level);
            if store.name[pre] != NO_NAME {
                let e = name_agg.entry((store.name[pre], kind)).or_default();
                e.0 += 1;
                e.1 += size;
                e.2 += level as f64;
            }
            if store.value[pre] != NO_VALUE {
                per_rank[symbols.value_rank[store.value[pre] as usize] as usize] += 1;
            }
            if !store.data[pre].is_nan() {
                datas.push(store.data[pre]);
            }
        }
        let name_stats = name_agg
            .into_iter()
            .map(|((nid, kind), (count, ssum, lsum))| {
                (
                    (store.names.resolve(nid).to_string(), kind),
                    NameStats { count, avg_size: ssum / count as f64, avg_level: lsum / count as f64 },
                )
            })
            .collect();
        // Children = non-root nodes / parents with children ≈ total / inner;
        // use the direct definition: every non-root node is a child.
        let n_docs = *kind_counts.get(&NodeKind::Doc).unwrap_or(&0);
        let non_leaf = store
            .size
            .iter()
            .filter(|&&s| s > 0)
            .count()
            .max(1) as f64;
        let avg_children = (total.saturating_sub(n_docs)) as f64 / non_leaf;
        let value_hist = rank_histogram(store, symbols, &per_rank);
        datas.sort_unstable_by(f64::total_cmp);
        let distinct = datas.windows(2).filter(|w| w[0].total_cmp(&w[1]).is_ne()).count() + 1;
        let data_hist = Histogram::equi_depth(datas.len(), distinct, |i| Value::Dec(datas[i]));
        let value_distinct = value_hist.n_distinct;
        DocStats {
            total,
            kind_counts,
            name_stats,
            avg_size: size_sum / total.max(1) as f64,
            avg_children,
            max_level,
            value_hist,
            data_hist,
            value_distinct,
        }
    }

    /// Number of rows with the given name and kind (exact).
    pub fn name_count(&self, name: &str, kind: NodeKind) -> u64 {
        self.name_stats.get(&(name.to_string(), kind)).map(|s| s.count).unwrap_or(0)
    }

    /// Average subtree size of nodes with this name/kind (falls back to the
    /// global average).
    pub fn name_avg_size(&self, name: &str, kind: NodeKind) -> f64 {
        self.name_stats
            .get(&(name.to_string(), kind))
            .map(|s| s.avg_size)
            .unwrap_or(self.avg_size)
    }

    /// Selectivity of a local predicate `col op const` on one doc row.
    pub fn local_sel(&self, col: DocCol, op: jgi_algebra::pred::CmpOp, v: &Value) -> f64 {
        use jgi_algebra::pred::CmpOp::*;
        match col {
            DocCol::Kind => {
                let Value::Kind(k) = v else { return 0.5 };
                let c = *self.kind_counts.get(k).unwrap_or(&0) as f64;
                let f = c / self.total.max(1) as f64;
                match op {
                    Eq => f,
                    Ne => 1.0 - f,
                    _ => 0.5,
                }
            }
            DocCol::Name => {
                let Value::Str(s) = v else { return 0.5 };
                // Name frequency summed over kinds.
                let c: u64 = self
                    .name_stats
                    .iter()
                    .filter(|((n, _), _)| n == s)
                    .map(|(_, st)| st.count)
                    .sum();
                let f = c as f64 / self.total.max(1) as f64;
                match op {
                    Eq => f,
                    Ne => 1.0 - f,
                    _ => 0.5,
                }
            }
            DocCol::Value => match op {
                Eq => self.value_hist.eq_sel(),
                Ne => 1.0 - self.value_hist.eq_sel(),
                Lt => self.value_hist.fraction_below(v, false),
                Le => self.value_hist.fraction_below(v, true),
                Gt => 1.0 - self.value_hist.fraction_below(v, true),
                Ge => 1.0 - self.value_hist.fraction_below(v, false),
            },
            DocCol::Data => {
                // Only a fraction of rows carry a typed value at all.
                let carry = self.data_hist.count as f64 / self.total.max(1) as f64;
                let f = match op {
                    Eq => self.data_hist.eq_sel(),
                    Ne => 1.0 - self.data_hist.eq_sel(),
                    Lt => self.data_hist.fraction_below(v, false),
                    Le => self.data_hist.fraction_below(v, true),
                    Gt => 1.0 - self.data_hist.fraction_below(v, true),
                    Ge => 1.0 - self.data_hist.fraction_below(v, false),
                };
                carry * f
            }
            DocCol::Level => {
                let levels = self.max_level.max(1) as f64;
                match op {
                    Eq => 1.0 / levels,
                    Ne => 1.0 - 1.0 / levels,
                    _ => 0.5,
                }
            }
            DocCol::Pre | DocCol::Size | DocCol::Parent => match op {
                Eq => 1.0 / self.total.max(1) as f64,
                _ => 0.5,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jgi_algebra::pred::CmpOp;
    use jgi_xml::generate::{generate_dblp, generate_xmark, DblpConfig, XmarkConfig};

    fn xmark_store() -> DocStore {
        let t = generate_xmark(XmarkConfig { scale: 0.005, seed: 3 });
        let mut store = DocStore::new();
        store.add_tree(&t);
        store
    }

    fn collect(store: &DocStore) -> DocStats {
        DocStats::collect(store, &Symbols::build(store))
    }

    fn stats() -> DocStats {
        collect(&xmark_store())
    }

    /// The histograms as they were built before the rank counts: one owned
    /// `Value` per valued row, sorted.
    fn value_and_data_hists_by_sorting(store: &DocStore) -> (Histogram, Histogram) {
        let values = (0..store.len())
            .filter(|&p| store.value[p] != NO_VALUE)
            .map(|p| Value::Str(store.values.resolve(store.value[p]).to_string()))
            .collect();
        let datas = store.data.iter().filter(|d| !d.is_nan()).map(|&d| Value::Dec(d)).collect();
        (Histogram::build(values), Histogram::build(datas))
    }

    #[test]
    fn histograms_match_the_sorting_build() {
        let dblp = generate_dblp(DblpConfig { publications: 500, seed: 2 });
        let mut both = xmark_store();
        both.add_tree(&dblp);
        // A store whose edits left interned values that no row references
        // (as a deleted subtree leaves them): every seventh value id.
        let mut edited = xmark_store();
        for p in 0..edited.len() {
            if edited.value[p].is_multiple_of(7) {
                edited.value[p] = NO_VALUE;
                edited.data[p] = f64::NAN;
            }
        }
        for store in [xmark_store(), both, edited] {
            let s = collect(&store);
            let (value_hist, data_hist) = value_and_data_hists_by_sorting(&store);
            assert_eq!(format!("{:?}", s.value_hist), format!("{value_hist:?}"));
            assert_eq!(format!("{:?}", s.data_hist), format!("{data_hist:?}"));
            assert_eq!(s.value_distinct, value_hist.n_distinct);
            assert!(s.value_hist.bounds.len() > 1 && s.data_hist.bounds.len() > 1);
        }
    }

    #[test]
    fn name_counts_are_exact() {
        let store = xmark_store();
        let s = collect(&store);
        // Count price elements by hand.
        let price_id = store.names.get("price").unwrap();
        let manual = (0..store.len())
            .filter(|&p| store.name[p] == price_id && store.kind[p] == NodeKind::Elem)
            .count() as u64;
        assert_eq!(s.name_count("price", NodeKind::Elem), manual);
        assert_eq!(s.name_count("nonexistent", NodeKind::Elem), 0);
    }

    #[test]
    fn selectivities_are_sane() {
        let s = stats();
        let elem_sel = s.local_sel(
            DocCol::Kind,
            CmpOp::Eq,
            &Value::Kind(NodeKind::Elem),
        );
        assert!(elem_sel > 0.1 && elem_sel < 0.9, "{elem_sel}");
        // price > 500 must be far more selective than price > 0.
        let p500 = s.local_sel(DocCol::Data, CmpOp::Gt, &Value::Dec(500.0));
        let p0 = s.local_sel(DocCol::Data, CmpOp::Gt, &Value::Dec(0.0));
        assert!(p500 < p0, "p500={p500} p0={p0}");
        assert!(p500 < 0.2, "{p500}");
        // Name test selectivity is the name's frequency.
        let bidder = s.local_sel(DocCol::Name, CmpOp::Eq, &Value::Str("bidder".into()));
        assert!(bidder > 0.0 && bidder < 0.1, "{bidder}");
    }

    #[test]
    fn histogram_fractions_monotone() {
        let h = Histogram::build((0..1000).map(Value::Int).collect());
        let f100 = h.fraction_below(&Value::Int(100), false);
        let f500 = h.fraction_below(&Value::Int(500), false);
        let f900 = h.fraction_below(&Value::Int(900), false);
        assert!(f100 < f500 && f500 < f900);
        assert!((f500 - 0.5).abs() < 0.1, "{f500}");
        assert_eq!(h.n_distinct, 1000);
    }

    #[test]
    fn empty_histogram() {
        let h = Histogram::build(vec![]);
        assert_eq!(h.count, 0);
        assert_eq!(h.eq_sel(), 0.0);
    }

    #[test]
    fn structural_aggregates() {
        let s = stats();
        assert!(s.avg_size >= 1.0);
        assert!(s.avg_children >= 1.0);
        assert!(s.max_level >= 4);
        // closed_auction subtrees are larger than price subtrees.
        let ca = s.name_avg_size("closed_auction", NodeKind::Elem);
        let price = s.name_avg_size("price", NodeKind::Elem);
        assert!(ca > price, "ca={ca} price={price}");
    }
}
