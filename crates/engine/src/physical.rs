//! Physical operators (paper Table 7) and the join-graph executor.
//!
//! A [`PhysPlan`] is a left-deep pipeline: a *driver* access produces
//! candidate rows for its alias; each subsequent [`Step`] extends the
//! binding tuple by one alias, either through an index nested-loop join
//! (`NLJOIN` over `IXSCAN`/`TBSCAN`, possibly with the *early-out* flag of
//! paper Fig. 10) or through a hash join (`HSJOIN`, Fig. 11). The tail —
//! `SORT` with duplicate elimination plus `RETURN` — implements the
//! `SELECT DISTINCT … ORDER BY` block.

use crate::catalog::{Cell, Database, IndexCol, NULL_CODE};
use crate::fastpred::{compile_atoms, FastAtom, ProbeSlot};
use jgi_algebra::cq::{ColRef, CqAtom, CqScalar, DocCol};
use jgi_algebra::Value;
use jgi_xml::encode::NO_PARENT;
use std::collections::HashMap;

/// A value computable from the already-bound aliases (plus constants) —
/// what an index probe may use.
#[derive(Debug, Clone, PartialEq)]
pub enum Probe {
    /// Constant.
    Const(Value),
    /// Column of a bound alias.
    Bound(ColRef),
    /// Column of a bound alias plus an integer (`level + 1`, `pre - 1`).
    BoundPlusInt(ColRef, i64),
    /// Sum of two bound columns (`pre + size`).
    BoundPlusBound(ColRef, ColRef),
}

impl Probe {
    /// Evaluate through an alias → `pre` accessor, so the batch pipeline
    /// can evaluate probes straight out of column vectors without
    /// materializing a bindings tuple. `None` when a referenced value is
    /// NULL (the probe then matches nothing).
    pub fn eval_at(&self, db: &Database, get: impl Fn(usize) -> u32) -> Option<Value> {
        self.cell_at(db, get).map(Cell::to_value)
    }

    /// The probe's index-key code against key column `col`
    /// ([`Database::value_code`]); `None` when a referenced value is NULL.
    /// A bound column probing its own index column reads the row's code
    /// straight from the column vectors; no probe builds a `Value`.
    pub(crate) fn code_at(
        &self,
        db: &Database,
        col: IndexCol,
        get: impl Fn(usize) -> u32,
    ) -> Option<u64> {
        match self {
            Probe::Bound(cr) if IndexCol::Col(cr.col) == col => match db.code(get(cr.alias), col) {
                NULL_CODE => None,
                c => Some(c),
            },
            _ => self.cell_at(db, get).map(|c| db.cell_code(col, c)),
        }
    }

    /// The probe as a CQ scalar (the form residual atoms compile from).
    pub(crate) fn to_scalar(&self) -> CqScalar {
        match self {
            Probe::Const(v) => CqScalar::Const(v.clone()),
            Probe::Bound(c) => CqScalar::Col(*c),
            Probe::BoundPlusInt(c, i) => CqScalar::ColPlusInt(*c, *i),
            Probe::BoundPlusBound(a, b) => CqScalar::ColPlusCol(*a, *b),
        }
    }

    /// [`Probe::eval_at`], borrowed.
    fn cell_at<'a>(&'a self, db: &'a Database, get: impl Fn(usize) -> u32) -> Option<Cell<'a>> {
        let col = |cr: &ColRef| -> Option<Cell<'a>> {
            let pre = get(cr.alias);
            debug_assert_ne!(pre, u32::MAX, "probe references an unbound alias");
            match db.cell(pre, IndexCol::Col(cr.col)) {
                Cell::Null => None,
                c => Some(c),
            }
        };
        match self {
            Probe::Const(v) => match Cell::of(v) {
                Cell::Null => None,
                c => Some(c),
            },
            Probe::Bound(cr) => col(cr),
            Probe::BoundPlusInt(cr, i) => match col(cr)? {
                Cell::Int(x) => Some(Cell::Int(x + i)),
                Cell::Dec(x) => Some(Cell::Dec(x + *i as f64)),
                _ => None,
            },
            Probe::BoundPlusBound(a, b) => match (col(a)?, col(b)?) {
                (Cell::Int(x), Cell::Int(y)) => Some(Cell::Int(x + y)),
                (x, y) => Some(Cell::Dec(x.as_f64()? + y.as_f64()?)),
            },
        }
    }
}

/// A range bound on one index column.
#[derive(Debug, Clone, PartialEq)]
pub struct RangeProbe {
    /// Lower bound (value, strict).
    pub lo: Option<(Probe, bool)>,
    /// Upper bound (value, strict).
    pub hi: Option<(Probe, bool)>,
}

/// How one alias is accessed.
#[derive(Debug, Clone, PartialEq)]
pub enum Method {
    /// Full scan of the doc relation.
    TbScan,
    /// B-tree index scan: equality probes for the leading key columns,
    /// optionally a range on the next one.
    IxScan {
        /// Index slot in the database catalog.
        index: usize,
        /// Values for the leading key columns.
        eq: Vec<Probe>,
        /// Range on key column `eq.len()`.
        range: Option<RangeProbe>,
    },
}

/// Access of a single alias, with residual predicates checked per row.
#[derive(Debug, Clone, PartialEq)]
pub struct Access {
    /// The alias this access binds.
    pub alias: usize,
    /// Scan method.
    pub method: Method,
    /// Atoms checked after the scan (all their aliases are bound here).
    pub residual: Vec<CqAtom>,
    /// The *full* applicable atom set (probes included) — used by the
    /// explain renderer for node-test/continuation annotations.
    pub all_atoms: Vec<CqAtom>,
    /// Semijoin: stop after the first match (paper Fig. 10's `early-out`).
    pub early_out: bool,
    /// Estimated matches per invocation (explain/advisor).
    pub est_rows: f64,
}

/// One pipeline step after the driver.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// Index nested-loop join (NLJOIN over the access).
    Nl(Access),
    /// Hash join: build once from an independent access of the alias,
    /// probe with a key computed from the bound aliases.
    Hash {
        /// Build-side access (independent of outer bindings).
        access: Access,
        /// Build key: columns of the step's alias.
        build_key: Vec<DocCol>,
        /// Probe key: computed from bound aliases.
        probe_key: Vec<Probe>,
    },
}

impl Step {
    /// The access inside the step.
    pub fn access(&self) -> &Access {
        match self {
            Step::Nl(a) => a,
            Step::Hash { access, .. } => access,
        }
    }

    /// Short strategy tag for EXPLAIN / lints.
    pub fn strategy(&self) -> &'static str {
        match self {
            Step::Nl(_) => "nl",
            Step::Hash { .. } => "hash",
        }
    }
}

/// A complete physical plan for a join-graph block.
#[derive(Debug, Clone)]
pub struct PhysPlan {
    /// Number of aliases.
    pub n_aliases: usize,
    /// Driver access (outermost).
    pub driver: Access,
    /// Pipeline steps, in execution order.
    pub steps: Vec<Step>,
    /// Output columns (the SELECT list).
    pub select: Vec<ColRef>,
    /// Whether DISTINCT applies.
    pub distinct: bool,
    /// ORDER BY columns (indices into positions of `select`).
    pub order_by: Vec<ColRef>,
    /// Which select column holds the result node reference.
    pub item_output: usize,
    /// Optimizer's total cost estimate.
    pub est_cost: f64,
    /// Optimizer's cardinality estimate.
    pub est_rows: f64,
}

/// Evaluate a scalar over the bindings; `None` for NULL.
pub fn eval_cq_scalar(db: &Database, s: &CqScalar, bindings: &[u32]) -> Option<Value> {
    let col = |cr: &ColRef| -> Option<Value> {
        let v = db.col_value(bindings[cr.alias], IndexCol::Col(cr.col));
        if v.is_null() {
            None
        } else {
            Some(v)
        }
    };
    match s {
        CqScalar::Const(v) => {
            if v.is_null() {
                None
            } else {
                Some(v.clone())
            }
        }
        CqScalar::Col(c) => col(c),
        CqScalar::ColPlusInt(c, i) => match col(c)? {
            Value::Int(x) => Some(Value::Int(x + i)),
            v => Some(Value::Dec(v.as_f64()? + *i as f64)),
        },
        CqScalar::ColPlusCol(a, b) => match (col(a)?, col(b)?) {
            (Value::Int(x), Value::Int(y)) => Some(Value::Int(x + y)),
            (x, y) => Some(Value::Dec(x.as_f64()? + y.as_f64()?)),
        },
    }
}

/// Evaluate a predicate atom (NULL ⇒ false).
pub fn eval_cq_atom(db: &Database, a: &CqAtom, bindings: &[u32]) -> bool {
    match (eval_cq_scalar(db, &a.lhs, bindings), eval_cq_scalar(db, &a.rhs, bindings)) {
        (Some(l), Some(r)) => a.op.test(l.cmp(&r)),
        _ => false,
    }
}

/// Actual counters for one pipeline operator (driver or step), gathered by
/// the executor with plain integer increments — no per-row allocation, no
/// branching on an "enabled" flag (maintaining them costs less than testing
/// for them would).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpActuals {
    /// Times the access ran (driver: 1; NLJOIN: once per outer row;
    /// HSJOIN: once per probe).
    pub invocations: u64,
    /// Candidate rows fetched from the index/table before residual
    /// predicates (for HSJOIN this counts the build-side scan).
    pub rows_in: u64,
    /// Rows surviving the residuals and handed downstream.
    pub rows_out: u64,
    /// B-tree descents performed.
    pub index_probes: u64,
    /// Residual predicate-atom evaluations.
    pub comparisons: u64,
}

/// Execution statistics (EXPLAIN ANALYZE, the query report, and tests).
///
/// The row/probe/comparison counters are *batch-size-independent*: every
/// batch size charges them identically for a given plan. The `vector_*`,
/// `btree_*`, `join_probe_batches` and `join_seeks` counters describe the
/// batch pipeline's physical work and depend on the batch size.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Rows produced by each access (driver first). Kept alongside
    /// `per_op[i].rows_out` (same numbers) for API stability.
    pub rows_scanned: Vec<u64>,
    /// Result rows before DISTINCT.
    pub raw_rows: u64,
    /// Per-operator actuals (driver first, then steps in pipeline order).
    pub per_op: Vec<OpActuals>,
    /// Rows fed into the SORT tail.
    pub sort_rows: u64,
    /// Rows removed by DISTINCT.
    pub dedup_removed: u64,
    /// Column batches pushed through the pipeline.
    pub vector_batches: u64,
    /// Predicate-kernel invocations: one per residual atom per flushed
    /// batch.
    pub vector_kernels: u64,
    /// Rows evaluated through the scalar fallback kernel (atoms without a
    /// specialized batch form).
    pub vector_fallbacks: u64,
    /// Configured rows-per-batch capacity.
    pub vector_batch_size: u64,
    /// Physical B-tree root descents performed by galloping cursors and
    /// shared constant-probe scans of NL steps, early-out ones included.
    /// `per_op[..].index_probes` stays *logical* (one per outer tuple,
    /// identical at every batch size); the gap between probes and descents
    /// is the work batching saved.
    pub btree_descents: u64,
    /// Work done instead of root descents: internal-node hops of galloping
    /// cursors plus outer tuples sharing one constant-probe scan.
    pub btree_skips: u64,
    /// Rows loaded into [`Step::Hash`] build tables. Charged once at build
    /// time, before the pipeline runs, so it is batch-size-*independent*.
    pub join_build_rows: u64,
    /// Sorted variable-probe batches of NL steps, early-out ones included,
    /// served by one galloping [`crate::btree::SeekCursor`] each
    /// (batch-size-dependent, like `vector_*`).
    pub join_probe_batches: u64,
    /// Seeks performed by those cursors, one per logical probe whose key
    /// is not NULL; each replaces a root descent from the top of the tree.
    pub join_seeks: u64,
}

impl ExecStats {
    /// Stats shaped for a plan with `n_ops` operators (driver + steps).
    fn shaped(n_ops: usize) -> ExecStats {
        ExecStats {
            rows_scanned: vec![0; n_ops],
            per_op: vec![OpActuals::default(); n_ops],
            ..Default::default()
        }
    }
}

/// Default rows per column batch: large enough to amortize per-batch
/// bookkeeping across the kernels, small enough that a batch's live
/// columns stay cache-resident.
pub const DEFAULT_BATCH_SIZE: usize = 1024;

/// Executor options. Every query runs on the calling thread, through the
/// batch pipeline (DESIGN.md §8); the options set the batch geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecOptions {
    /// Inert: the executor has one mode, the batch pipeline, whatever this
    /// says. Kept only because the frozen benchmark harness still names it.
    pub vectorized: bool,
    /// Rows per column batch. Results, and every batch-size-independent
    /// [`ExecStats`] counter, are bit-identical at every batch size.
    pub batch_size: usize,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions { vectorized: true, batch_size: DEFAULT_BATCH_SIZE }
    }
}

impl ExecOptions {
    /// The default options, whatever `_threads` says. Inert: the executor
    /// runs every query on one thread. Kept only because the frozen
    /// benchmark harness still constructs options through it.
    pub fn with_parallelism(_threads: usize) -> Self {
        ExecOptions::default()
    }
}

/// Counters accumulated by one `scan_access` call, merged into the
/// operator's [`OpActuals`] by the caller (split this way so the scan's
/// row callback can borrow the stats struct freely).
#[derive(Default, Clone, Copy)]
struct ScanCounts {
    rows_in: u64,
    index_probes: u64,
    comparisons: u64,
}

impl OpActuals {
    /// Add one scan's work (the caller counts the invocation).
    #[inline]
    fn absorb(&mut self, c: ScanCounts) {
        self.rows_in += c.rows_in;
        self.index_probes += c.index_probes;
        self.comparisons += c.comparisons;
    }
}

/// Execute a physical plan; returns the result node sequence (`pre` ranks
/// of the item column, in ORDER BY order).
pub fn execute(db: &Database, plan: &PhysPlan) -> Vec<u32> {
    execute_with_stats(db, plan).0
}

/// Execute and return whole result *rows* (every SELECT column as a `pre`
/// rank), in ORDER BY order — the XMLTABLE-style tuple output.
pub fn execute_rows(db: &Database, plan: &PhysPlan) -> Vec<Vec<u32>> {
    let (rows, _) = execute_rows_with_stats(db, plan);
    rows
}

/// Execute and report per-operator actuals.
pub fn execute_with_stats(db: &Database, plan: &PhysPlan) -> (Vec<u32>, ExecStats) {
    execute_with_stats_opts(db, plan, &ExecOptions::default())
}

/// [`execute_with_stats`] with explicit executor options. The item column
/// is read straight out of the flat result rows.
pub fn execute_with_stats_opts(
    db: &Database,
    plan: &PhysPlan,
    opts: &ExecOptions,
) -> (Vec<u32>, ExecStats) {
    let (flat, stats) = execute_flat(db, plan, opts);
    let width = plan.select.len().max(1);
    let out = flat.iter().skip(plan.item_output).step_by(width).copied().collect();
    (out, stats)
}

/// Row-returning executor at the default options.
pub fn execute_rows_with_stats(db: &Database, plan: &PhysPlan) -> (Vec<Vec<u32>>, ExecStats) {
    execute_rows_opts(db, plan, &ExecOptions::default())
}

/// Row-returning executor: the flat result rows, one `Vec` per row.
pub fn execute_rows_opts(
    db: &Database,
    plan: &PhysPlan,
    opts: &ExecOptions,
) -> (Vec<Vec<u32>>, ExecStats) {
    let (flat, stats) = execute_flat(db, plan, opts);
    (flat.chunks_exact(plan.select.len().max(1)).map(<[u32]>::to_vec).collect(), stats)
}

/// The single code path under every `execute*` entry point; statistics
/// are always collected (plain counter increments). The batch pipeline
/// runs on the calling thread and ends in the SORT tail. The result is one
/// flat buffer of rows `select.len()` cells wide, in SELECT order.
fn execute_flat(db: &Database, plan: &PhysPlan, opts: &ExecOptions) -> (Vec<u32>, ExecStats) {
    let mut stats = ExecStats::shaped(plan.steps.len() + 1);
    // Compile residual predicates once (id-compared fast atoms).
    let driver_fast = compile_atoms(db, &plan.driver.residual);
    let step_fast: Vec<Vec<FastAtom>> =
        plan.steps.iter().map(|s| compile_atoms(db, &s.access().residual)).collect();
    // Pre-build join build sides. Build-side residuals that mention outer
    // aliases cannot run yet; they are re-checked at probe time.
    let tables = build_join_tables(db, plan, &mut stats);

    stats.vector_batch_size = opts.batch_size.max(1) as u64;
    let rows = run_pipeline(db, plan, &driver_fast, &step_fast, &tables, opts, &mut stats);
    (rows, stats)
}

/// Pre-built join build sides, one slot per pipeline step: a value-keyed
/// table for each [`Step::Hash`], built once before the pipeline runs.
pub(crate) type JoinTables = Vec<Option<HashMap<Vec<Value>, Vec<u32>>>>;

/// Pre-build the join tables for every hash step in the plan.
fn build_join_tables(db: &Database, plan: &PhysPlan, stats: &mut ExecStats) -> JoinTables {
    let mut tables: JoinTables = (0..plan.steps.len()).map(|_| None).collect();
    let empty = vec![u32::MAX; plan.n_aliases];
    for (i, step) in plan.steps.iter().enumerate() {
        match step {
            Step::Hash { access, build_key, .. } => {
                let mut table: HashMap<Vec<Value>, Vec<u32>> = HashMap::new();
                let mut scratch = AccessScratch::default();
                // Local-only atoms can run on the build side; the full
                // residual set (join atoms included) is re-checked at
                // probe time.
                let fast: Vec<FastAtom> = access
                    .residual
                    .iter()
                    .filter(|p| p.aliases().iter().all(|&x| x == access.alias))
                    .map(|p| crate::fastpred::compile_atom(db, p))
                    .collect();
                let mut built = 0u64;
                let counts = scan_access(db, access, &fast, &empty, &mut scratch, &mut |pre| {
                    let key: Option<Vec<Value>> = build_key
                        .iter()
                        .map(|&c| {
                            let v = db.col_value(pre, IndexCol::Col(c));
                            if v.is_null() {
                                None
                            } else {
                                Some(v)
                            }
                        })
                        .collect();
                    if let Some(key) = key {
                        table.entry(key).or_default().push(pre);
                        built += 1;
                    }
                    true
                });
                // Build-side work charges the step's operator.
                stats.per_op[i + 1].absorb(counts);
                stats.join_build_rows += built;
                tables[i] = Some(table);
            }
            Step::Nl(_) => {}
        }
    }
    tables
}

/// A SELECT cell: every SELECT column is a node column (`pre`, `size`,
/// `level`, `parent`), read as the `u32` it holds without building a
/// `Value`.
#[inline]
fn node_cell(db: &Database, pre: u32, col: DocCol) -> u32 {
    let p = pre as usize;
    match col {
        DocCol::Pre => pre,
        DocCol::Size => db.store.size[p],
        DocCol::Level => db.store.level[p] as u32,
        DocCol::Parent if db.store.parent[p] != NO_PARENT => db.store.parent[p],
        _ => panic!("select column holds non-node value {}", db.col_value(pre, IndexCol::Col(col))),
    }
}

/// The SORT tail's column order over `width`-column rows: the ORDER BY
/// columns (as SELECT positions, first occurrence), then the remaining
/// SELECT positions in SELECT order. Comparing rows lexicographically in
/// this order is comparing ORDER BY keys first with the whole row as the
/// tiebreak. The tiebreak makes the order *total*, which is what makes the
/// batch pipeline's output independent of the order its sorted probe
/// batches enumerate candidates in — the final sequence is a function of
/// the row multiset alone, not of arrival order. The pipeline writes each
/// row's cells in this order.
fn sort_columns(order: impl IntoIterator<Item = usize>, width: usize) -> Vec<usize> {
    let mut cols = Vec::with_capacity(width);
    for c in order.into_iter().chain(0..width) {
        if !cols.contains(&c) {
            cols.push(c);
        }
    }
    cols
}

/// [`sort_columns`] of a plan.
fn plan_sort_columns(plan: &PhysPlan) -> Vec<usize> {
    let order = plan.order_by.iter().filter_map(|cr| plan.select.iter().position(|s| s == cr));
    sort_columns(order, plan.select.len())
}

/// The SORT tail: one integer sort of the flat rows, written in `cols`
/// order ([`sort_columns`]), then DISTINCT, then the rows back in SELECT
/// order. A one-column row sorts as the bare `u32`; a row of two to four
/// columns as one `u128` holding them, the first most significant; a wider
/// row by its cells. Only identical rows compare equal, so the sort leaves
/// duplicates adjacent.
fn sort_tail(
    mut rows: Vec<u32>,
    cols: &[usize],
    distinct: bool,
    stats: &mut ExecStats,
) -> Vec<u32> {
    let w = cols.len().max(1);
    let n = rows.len() / w;
    stats.sort_rows = n as u64;
    // Cell `j` of a row in `cols` order lands at SELECT position `cols[j]`.
    let unpermute = |out: &mut Vec<u32>, cell: &dyn Fn(usize) -> u32| {
        let base = out.len();
        out.resize(base + w, 0);
        for (j, &c) in cols.iter().enumerate() {
            out[base + c] = cell(j);
        }
    };
    let out = match w {
        1 => {
            rows.sort_unstable();
            if distinct {
                rows.dedup();
            }
            rows
        }
        2..=4 => {
            let mut keys: Vec<u128> = rows
                .chunks_exact(w)
                .map(|r| r.iter().fold(0, |k, &c| k << 32 | c as u128))
                .collect();
            keys.sort_unstable();
            if distinct {
                keys.dedup();
            }
            let mut out = Vec::with_capacity(keys.len() * w);
            for k in keys {
                unpermute(&mut out, &|j| (k >> (32 * (w - 1 - j))) as u32);
            }
            out
        }
        _ => {
            let row = |i: u32| &rows[i as usize * w..(i as usize + 1) * w];
            let mut order: Vec<u32> = (0..n as u32).collect();
            order.sort_unstable_by(|&a, &b| row(a).cmp(row(b)));
            if distinct {
                order.dedup_by(|a, b| row(*a) == row(*b));
            }
            let mut out = Vec::with_capacity(order.len() * w);
            for i in order {
                unpermute(&mut out, &|j| row(i)[j]);
            }
            out
        }
    };
    if distinct {
        stats.dedup_removed = stats.sort_rows - (out.len() / w) as u64;
    }
    out
}

/// Reusable per-access scan state: the bindings-with-self buffer for
/// residual checks plus the coded probe-key buffers.
/// [`AccessScratch::prepare`] codes the constant key slots once and
/// compiles the per-tuple ones into [`ProbeSlot`]s; the per-tuple slots are
/// overwritten with their codes on every probe, so the hot path allocates
/// nothing.
#[derive(Debug, Default)]
struct AccessScratch {
    init: bool,
    /// A constant probe is NULL — the access can never match.
    dead: bool,
    /// Bindings copy the residual check mutates (`alias` slot toggles).
    bindings: Vec<u32>,
    /// Lower key bound (codes), constants pre-filled.
    lo: Vec<u64>,
    /// Upper key bound (codes), constants pre-filled.
    hi: Vec<u64>,
    lo_strict: bool,
    hi_strict: bool,
    /// Per-tuple lower-bound slots in increasing key position: the
    /// variable equality slots, whose codes the upper bound shares, then
    /// the range's lower end if it is variable.
    var_lo: Vec<(usize, ProbeSlot)>,
    /// The range's upper end, if it is variable.
    var_hi: Option<(usize, ProbeSlot)>,
    /// Equality slots of the probe: a `var_lo` slot below this is one.
    n_eq: usize,
}

impl AccessScratch {
    fn prepare(&mut self, db: &Database, access: &Access) {
        if self.init {
            return;
        }
        self.init = true;
        let Method::IxScan { index, eq, range } = &access.method else { return };
        let key = &db.indexes[*index].key;
        self.n_eq = eq.len();
        for (s, p) in eq.iter().enumerate() {
            let c = self.constant(db, key[s], p);
            if c.is_none() {
                self.var_lo.push((s, ProbeSlot::compile(p, key[s])));
            }
            self.lo.push(c.unwrap_or(NULL_CODE));
            self.hi.push(c.unwrap_or(NULL_CODE));
        }
        if let Some(r) = range {
            let s = eq.len();
            if let Some((p, strict)) = &r.lo {
                self.lo_strict = *strict;
                let c = self.constant(db, key[s], p);
                if c.is_none() {
                    self.var_lo.push((s, ProbeSlot::compile(p, key[s])));
                }
                self.lo.push(c.unwrap_or(NULL_CODE));
            }
            if let Some((p, strict)) = &r.hi {
                self.hi_strict = *strict;
                let c = self.constant(db, key[s], p);
                if c.is_none() {
                    self.var_hi = Some((s, ProbeSlot::compile(p, key[s])));
                }
                self.hi.push(c.unwrap_or(NULL_CODE));
            }
        }
    }

    /// The code of a constant probe on key column `col` (a NULL constant
    /// marks the access dead); `None` for a per-tuple probe.
    fn constant(&mut self, db: &Database, col: IndexCol, p: &Probe) -> Option<u64> {
        let Probe::Const(v) = p else { return None };
        self.dead |= v.is_null();
        Some(db.value_code(col, v))
    }

    /// Does the probe depend on the outer tuple?
    fn has_var(&self) -> bool {
        !self.var_lo.is_empty() || self.var_hi.is_some()
    }

    /// Codes per tuple: the `var_lo` slots, then `var_hi`.
    fn width(&self) -> usize {
        self.var_lo.len() + usize::from(self.var_hi.is_some())
    }

    /// Append the per-tuple codes of the tuple `get` binds to `keys`
    /// ([`AccessScratch::width`] of them). A NULL probe matches nothing:
    /// on one, `keys` is left as it was and the answer is false.
    #[inline]
    fn code_tuple(&self, db: &Database, get: impl Fn(usize) -> u32, keys: &mut Vec<u64>) -> bool {
        let start = keys.len();
        for (_, slot) in self.var_lo.iter().chain(&self.var_hi) {
            match slot.code_at(db, &get) {
                Some(c) => keys.push(c),
                None => {
                    keys.truncate(start);
                    return false;
                }
            }
        }
        true
    }

    /// Install one tuple's codes (from [`AccessScratch::code_tuple`]) in
    /// the bounds.
    #[inline]
    fn set_bounds(&mut self, codes: &[u64]) {
        let AccessScratch { lo, hi, var_lo, var_hi, n_eq, .. } = self;
        for (&c, &(s, _)) in codes.iter().zip(var_lo.iter()) {
            lo[s] = c;
            if s < *n_eq {
                hi[s] = c;
            }
        }
        if let Some((s, _)) = var_hi {
            hi[*s] = codes[var_lo.len()];
        }
    }
}

/// Run an access alone: call `f(pre)` for every matching row; `f` returns
/// false to stop early. Serves the driver and hash build sides, both of
/// which probe with constants only. Returns the work counters for the caller to merge (local `u64`s — the
/// hot loop never touches shared state or allocates for accounting).
/// `scratch` must be dedicated to this access and is reused across calls.
fn scan_access(
    db: &Database,
    access: &Access,
    fast: &[FastAtom],
    bindings: &[u32],
    scratch: &mut AccessScratch,
    f: &mut dyn FnMut(u32) -> bool,
) -> ScanCounts {
    let mut counts = ScanCounts::default();
    scratch.prepare(db, access);
    if scratch.dead {
        return counts; // a constant probe is NULL: nothing matches
    }
    assert!(!scratch.has_var(), "a lone access probes with constants only");
    let AccessScratch { bindings: bws, lo, hi, lo_strict, hi_strict, .. } = scratch;
    bws.clear();
    bws.extend_from_slice(bindings);
    let mut check = |pre: u32, c: &mut ScanCounts| -> bool {
        c.rows_in += 1;
        passes(db, fast, bws, access.alias, pre, &mut c.comparisons)
    };
    match &access.method {
        Method::TbScan => {
            for pre in 0..db.store.len() as u32 {
                if check(pre, &mut counts) && !f(pre) {
                    return counts;
                }
            }
        }
        Method::IxScan { index, .. } => {
            counts.index_probes += 1;
            for pre in db.indexes[*index].btree.scan(lo, *lo_strict, hi, *hi_strict) {
                if check(pre, &mut counts) && !f(pre) {
                    return counts;
                }
            }
        }
    }
    counts
}

/// Order a probe batch by lower bound: `order` lists the tuples of `keys`
/// (`w` codes each, the first `nv_lo` of them the variable lower slots)
/// so that their lower bounds ascend, as the galloping cursor needs.
/// Comparing the variable lower slots in slot order is the full-key
/// lexicographic order: constant slots are equal across the batch. A batch
/// whose bounds already ascend (outer rows in document order probing by
/// `pre`, say) is probed as it stands; one linear pass finds it out.
/// Otherwise each tuple's lower codes are packed above its index into one
/// `u128`, at the width of the batch's largest lower code, and the words
/// sorted unstably — an integer sort, on the bare code when there is one
/// variable lower slot. Only lower codes too wide to pack fall back to
/// sorting indices by code slice.
fn order_probes(
    keys: &[u64],
    w: usize,
    nv_lo: usize,
    order: &mut Vec<u32>,
    packed: &mut Vec<u128>,
) {
    let lo_of = |j: usize| &keys[j * w..j * w + nv_lo];
    let n = keys.len() / w;
    order.clear();
    order.extend(0..n as u32);
    if (1..n).all(|j| lo_of(j - 1) <= lo_of(j)) {
        return;
    }
    let top = keys.chunks_exact(w).flat_map(|k| &k[..nv_lo]).max().copied().unwrap_or(0);
    let bits = u64::BITS - top.leading_zeros();
    if nv_lo as u32 * bits + u32::BITS <= u128::BITS {
        packed.clear();
        packed.extend(keys.chunks_exact(w).zip(0u128..).map(|(k, j)| {
            k[..nv_lo].iter().fold(0u128, |p, &c| p << bits | c as u128) << u32::BITS | j
        }));
        packed.sort_unstable();
        order.clear();
        order.extend(packed.iter().map(|&p| p as u32));
    } else {
        order.sort_unstable_by(|&x, &y| lo_of(x as usize).cmp(lo_of(y as usize)));
    }
}

/// Does candidate `pre` for `alias` pass every residual atom over
/// `bindings`? Charges one comparison per atom evaluated, stopping at the
/// first failure.
#[inline]
fn passes(
    db: &Database,
    fast: &[FastAtom],
    bindings: &mut [u32],
    alias: usize,
    pre: u32,
    comparisons: &mut u64,
) -> bool {
    bindings[alias] = pre;
    fast.iter().all(|a| {
        *comparisons += 1;
        a.eval(db, bindings)
    })
}

// ---------------------------------------------------------------------------
// Vectorized batch execution (DESIGN.md §8)
//
// The probe-pipeline suffix operates on *binding batches*: one `Vec<u32>`
// pre-rank column per bound alias, filtered by per-atom predicate kernels
// over a reusable selection vector. The design invariant is that the
// logical counters do not depend on the batch size: they are charged as
// if each row evaluated its residual atoms left-to-right and stopped at
// the first failure, and a batch runs atom k only over the rows that
// survived atoms 0..k — the same comparison multiset, just transposed.
// Candidate enumeration is likewise identical per outer tuple
// (`index_probes` stays logical); only the *physical* B-tree work
// depends on the batch size, tracked by the `btree_descents`/
// `btree_skips` counters.
// ---------------------------------------------------------------------------

/// Struct-of-arrays binding batch: one `pre` column per alias. Only the
/// columns of bound aliases are filled; `rows` is the batch length.
#[derive(Debug, Default)]
struct Batch {
    cols: Vec<Vec<u32>>,
    rows: usize,
}

impl Batch {
    fn shaped(n_aliases: usize) -> Batch {
        Batch { cols: vec![Vec::new(); n_aliases], rows: 0 }
    }

    fn clear(&mut self) {
        for c in &mut self.cols {
            c.clear();
        }
        self.rows = 0;
    }

    /// Append row `i` of `from` (its `outer` alias columns) extended with
    /// `pre` for the newly bound `alias`.
    #[inline]
    fn push_extended(&mut self, from: &Batch, i: usize, outer: &[usize], alias: usize, pre: u32) {
        for &a in outer {
            self.cols[a].push(from.cols[a][i]);
        }
        self.cols[alias].push(pre);
        self.rows += 1;
    }
}

/// Per-step scratch for the batch pipeline. Every buffer lives across
/// batches, so steady-state execution does not allocate.
#[derive(Debug, Default)]
struct VecLevel {
    /// Rows gathered for the next depth.
    next: Batch,
    /// Selection vector over `next` (indices of surviving rows).
    sel: Vec<u32>,
    /// Bindings tuple for early-out residual checks.
    bindings: Vec<u32>,
    /// Scratch bindings for the generic-atom fallback kernel.
    fallback: Vec<u32>,
    /// Probe-key/residual scratch of the step's access.
    access: AccessScratch,
    /// Hash probe-key buffer.
    key: Vec<Value>,
    /// Var-probe key pool: [`AccessScratch::width`] codes per live tuple.
    keys: Vec<u64>,
    /// Selected batch rows whose probe keys are all non-NULL.
    live: Vec<u32>,
    /// Probe order over `live` (ascending lower bounds).
    order: Vec<u32>,
    /// Packed sort keys behind `order` ([`order_probes`]).
    packed: Vec<u128>,
    /// Candidate rows of a shared constant-probe scan.
    cands: Vec<u32>,
}

impl VecLevel {
    fn shaped(n_aliases: usize) -> VecLevel {
        VecLevel { next: Batch::shaped(n_aliases), ..Default::default() }
    }
}

/// Read-only inputs shared by every batch-pipeline function.
struct VecCtx<'a> {
    db: &'a Database,
    plan: &'a PhysPlan,
    tables: &'a JoinTables,
    step_fast: &'a [Vec<FastAtom>],
    /// `bound_at[d]`: aliases bound on entry to step `d` (driver plus
    /// steps `0..d`), i.e. the columns a depth-`d` batch carries.
    bound_at: Vec<Vec<usize>>,
    /// The SELECT columns in [`sort_columns`] order: the cells of each
    /// result row as the pipeline writes them.
    out_cols: Vec<ColRef>,
    batch_size: usize,
}

/// See [`VecCtx::bound_at`].
fn bound_aliases(plan: &PhysPlan) -> Vec<Vec<usize>> {
    let mut out = Vec::with_capacity(plan.steps.len() + 1);
    let mut cur = vec![plan.driver.alias];
    out.push(cur.clone());
    for s in &plan.steps {
        cur.push(s.access().alias);
        out.push(cur.clone());
    }
    out
}

/// Push the gathered batch through the step's residual kernels and recurse
/// into the next depth. `op_idx` is the gathering operator (0 = driver,
/// `d + 1` = step `d`), which makes the child depth exactly `op_idx`.
/// Early-out gathers pass `run_kernels = false`: their rows were already
/// residual-checked (and charged) tuple-at-a-time.
#[allow(clippy::too_many_arguments)]
fn flush_batch(
    cx: &VecCtx,
    fast: &[FastAtom],
    op_idx: usize,
    run_kernels: bool,
    next: &mut Batch,
    sel: &mut Vec<u32>,
    fallback: &mut Vec<u32>,
    deeper: &mut [VecLevel],
    rows: &mut Vec<u32>,
    stats: &mut ExecStats,
) {
    if next.rows == 0 {
        return;
    }
    stats.vector_batches += 1;
    sel.clear();
    sel.extend(0..next.rows as u32);
    if run_kernels {
        for atom in fast {
            if sel.is_empty() {
                break;
            }
            stats.vector_kernels += 1;
            stats.per_op[op_idx].comparisons += sel.len() as u64;
            if atom.is_generic() {
                stats.vector_fallbacks += sel.len() as u64;
            }
            atom.eval_batch(cx.db, &next.cols, sel, fallback);
        }
        stats.rows_scanned[op_idx] += sel.len() as u64;
        stats.per_op[op_idx].rows_out += sel.len() as u64;
    }
    vec_step(cx, op_idx, next, sel, deeper, rows, stats);
    next.clear();
}

/// One pipeline step over a batch: gather (outer row × candidate) pairs
/// into this level's `next` batch, flushing through the residual kernels
/// whenever `batch_size` rows accumulate. At full depth, emit SELECT rows.
fn vec_step(
    cx: &VecCtx,
    depth: usize,
    batch: &Batch,
    sel: &[u32],
    levels: &mut [VecLevel],
    rows: &mut Vec<u32>,
    stats: &mut ExecStats,
) {
    if sel.is_empty() {
        return;
    }
    let db = cx.db;
    if depth == cx.plan.steps.len() {
        stats.raw_rows += sel.len() as u64;
        for &i in sel {
            for cr in &cx.out_cols {
                rows.push(node_cell(db, batch.cols[cr.alias][i as usize], cr.col));
            }
        }
        return;
    }
    let (lvl, deeper) = levels.split_first_mut().expect("scratch level per step");
    let VecLevel {
        next,
        sel: sel_buf,
        bindings,
        fallback,
        access: scr,
        key,
        keys,
        live,
        order,
        packed,
        cands,
    } = lvl;
    let outer: &[usize] = &cx.bound_at[depth];
    let op_idx = depth + 1;
    let fast: &[FastAtom] = &cx.step_fast[depth];
    let step = &cx.plan.steps[depth];
    let access = step.access();
    // An early-out step residual-checks each candidate as it is fetched
    // and stops at an outer tuple's first match, so its rows reach the
    // next depth already checked and charged.
    let early = access.early_out;
    let (mut rows_in, mut comparisons, mut emitted) = (0u64, 0u64, 0u64);
    if early {
        bindings.clear();
        bindings.resize(cx.plan.n_aliases, u32::MAX);
    }
    // Gather one (outer row, candidate) pair, flushing a full batch.
    macro_rules! gather {
        ($i:expr, $pre:expr) => {{
            next.push_extended(batch, $i, outer, access.alias, $pre);
            if next.rows >= cx.batch_size {
                flush_batch(cx, fast, op_idx, !early, next, sel_buf, fallback, deeper, rows, stats);
            }
        }};
    }
    // Early-out: gather outer row `i`'s first candidate that passes the
    // residuals, fetching no further.
    macro_rules! first_match {
        ($i:expr, $cands:expr) => {{
            for &a in outer {
                bindings[a] = batch.cols[a][$i];
            }
            for pre in $cands {
                if passes(db, fast, bindings, access.alias, pre, &mut comparisons) {
                    emitted += 1;
                    gather!($i, pre);
                    break;
                }
            }
        }};
    }
    match step {
        Step::Nl(access) => {
            stats.per_op[op_idx].invocations += sel.len() as u64;
            scr.prepare(db, access);
            if scr.dead {
                return; // NULL constant probe: no candidates, no probes
            }
            match &access.method {
                Method::TbScan => {
                    let n = db.store.len() as u32;
                    for &i in sel {
                        if early {
                            first_match!(i as usize, (0..n).inspect(|_| rows_in += 1));
                        } else {
                            rows_in += n as u64;
                            for pre in 0..n {
                                gather!(i as usize, pre);
                            }
                        }
                    }
                }
                Method::IxScan { index, .. } if !scr.has_var() => {
                    // Constant probe: one shared scan serves the whole
                    // batch. Logically still one probe per outer tuple;
                    // physically a single descent. An early-out step pulls
                    // candidates only as far as some tuple needs them.
                    let tree = &db.indexes[*index].btree;
                    let mut scan = tree.scan(&scr.lo, scr.lo_strict, &scr.hi, scr.hi_strict);
                    cands.clear();
                    stats.per_op[op_idx].index_probes += sel.len() as u64;
                    stats.btree_descents += 1;
                    stats.btree_skips += sel.len() as u64 - 1;
                    if !early {
                        cands.extend(scan);
                        rows_in += cands.len() as u64 * sel.len() as u64;
                        for &i in sel {
                            for &pre in cands.iter() {
                                gather!(i as usize, pre);
                            }
                        }
                    } else {
                        for &i in sel {
                            let pulled = (0..).map_while(|k| match cands.get(k) {
                                Some(&pre) => Some(pre),
                                None => {
                                    let pre = scan.next()?;
                                    cands.push(pre);
                                    Some(pre)
                                }
                            });
                            first_match!(i as usize, pulled.inspect(|_| rows_in += 1));
                        }
                    }
                }
                Method::IxScan { index, .. } => {
                    // Per-tuple probes, batched: code the variable key
                    // slots of every selected tuple, order the tuples by
                    // lower bound, and serve all probes with one galloping
                    // SeekCursor (one descent, then O(log gap) node hops
                    // per probe). The order only permutes candidate
                    // enumeration across outer tuples, which the SORT
                    // tail's total order makes unobservable.
                    let (w, nv_lo) = (scr.width(), scr.var_lo.len());
                    keys.clear();
                    live.clear();
                    for &i in sel {
                        if scr.code_tuple(db, |a| batch.cols[a][i as usize], keys) {
                            live.push(i);
                        }
                    }
                    order_probes(keys, w, nv_lo, order, packed);
                    stats.join_probe_batches += 1;
                    let mut cursor = db.indexes[*index].btree.seek_cursor();
                    for &j in order.iter() {
                        let (j, i) = (j as usize, live[j as usize] as usize);
                        scr.set_bounds(&keys[j * w..(j + 1) * w]);
                        let found = cursor.seek(&scr.lo, scr.lo_strict, &scr.hi, scr.hi_strict);
                        let found = found.inspect(|_| rows_in += 1);
                        if early {
                            first_match!(i, found);
                        } else {
                            for pre in found {
                                gather!(i, pre);
                            }
                        }
                    }
                    stats.btree_descents += cursor.descents;
                    stats.btree_skips += cursor.node_hops;
                    stats.join_seeks += cursor.seeks;
                    stats.per_op[op_idx].index_probes += live.len() as u64;
                }
            }
        }
        Step::Hash { probe_key, .. } => {
            let table = cx.tables[depth].as_ref().expect("hash table built");
            for &i in sel {
                stats.per_op[op_idx].invocations += 1;
                key.clear();
                let mut null_key = false;
                for p in probe_key {
                    match p.eval_at(db, |a| batch.cols[a][i as usize]) {
                        Some(v) => key.push(v),
                        None => {
                            null_key = true;
                            break;
                        }
                    }
                }
                if null_key {
                    continue;
                }
                let Some(matches) = table.get(key.as_slice()) else { continue };
                if early {
                    first_match!(i as usize, matches.iter().copied());
                } else {
                    for &pre in matches {
                        gather!(i as usize, pre);
                    }
                }
            }
        }
    }
    let op = &mut stats.per_op[op_idx];
    op.rows_in += rows_in;
    op.comparisons += comparisons;
    op.rows_out += emitted;
    stats.rows_scanned[op_idx] += emitted;
    flush_batch(cx, fast, op_idx, !early, next, sel_buf, fallback, deeper, rows, stats);
}

/// Vectorized execution: the driver gathers candidates into a
/// column batch, residual kernels filter it through a selection vector,
/// and each step extends surviving batches down the pipeline. The logical
/// counters are the same at every batch size by construction — see the
/// module comment above [`Batch`].
fn run_pipeline(
    db: &Database,
    plan: &PhysPlan,
    driver_fast: &[FastAtom],
    step_fast: &[Vec<FastAtom>],
    tables: &JoinTables,
    opts: &ExecOptions,
    stats: &mut ExecStats,
) -> Vec<u32> {
    let cols = plan_sort_columns(plan);
    let cx = VecCtx {
        db,
        plan,
        tables,
        step_fast,
        bound_at: bound_aliases(plan),
        out_cols: cols.iter().map(|&c| plan.select[c]).collect(),
        batch_size: opts.batch_size.max(1),
    };
    let mut levels: Vec<VecLevel> =
        plan.steps.iter().map(|_| VecLevel::shaped(plan.n_aliases)).collect();
    let mut driver_lvl = VecLevel::shaped(plan.n_aliases);
    let mut rows: Vec<u32> = Vec::new();
    let empty = vec![u32::MAX; plan.n_aliases];
    let driver = &plan.driver;
    let VecLevel { next, sel, fallback, access: scr, .. } = &mut driver_lvl;
    // The driver scan runs with no residuals — candidates gather into the
    // level-0 batch and the driver's own atoms run as kernels at flush
    // time, charging `rows_in`/`comparisons` per row.
    let counts = scan_access(db, driver, &[], &empty, scr, &mut |pre| {
        next.cols[driver.alias].push(pre);
        next.rows += 1;
        if next.rows >= cx.batch_size {
            flush_batch(&cx, driver_fast, 0, true, next, sel, fallback, &mut levels, &mut rows, stats);
        }
        true
    });
    flush_batch(&cx, driver_fast, 0, true, next, sel, fallback, &mut levels, &mut rows, stats);
    stats.per_op[0].invocations += 1;
    stats.per_op[0].absorb(counts);
    sort_tail(rows, &cols, plan.distinct, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jgi_algebra::pred::CmpOp;
    use jgi_xml::generate::{generate_xmark, XmarkConfig};
    use jgi_xml::{DocStore, NodeKind};
    use proptest::prelude::*;

    fn db() -> Database {
        let t = generate_xmark(XmarkConfig { scale: 0.002, seed: 5 });
        let mut store = DocStore::new();
        store.add_tree(&t);
        Database::with_default_indexes(store)
    }

    #[test]
    fn sort_tail_orders_then_dedups_in_one_sort() {
        let rows = vec![vec![2, 1], vec![1, 2], vec![2, 1], vec![1, 1]];
        let mut stats = ExecStats::default();
        let sorted = flat_tail(&rows, 2, &[1], true, &mut stats);
        assert_eq!(sorted, vec![vec![1, 1], vec![2, 1], vec![1, 2]]);
        assert_eq!((stats.sort_rows, stats.dedup_removed), (4, 1));
    }

    /// The flat SORT tail on `width`-column rows with ORDER BY positions
    /// `order_idx`: each row written in sort-column order, as the pipeline
    /// writes it, and the result cut back into rows.
    fn flat_tail(
        rows: &[Vec<u32>],
        width: usize,
        order_idx: &[usize],
        distinct: bool,
        stats: &mut ExecStats,
    ) -> Vec<Vec<u32>> {
        let cols = sort_columns(order_idx.iter().copied(), width);
        let flat = rows.iter().flat_map(|r| cols.iter().map(|&c| r[c])).collect();
        sort_tail(flat, &cols, distinct, stats).chunks_exact(width).map(<[u32]>::to_vec).collect()
    }

    /// The SORT tail as it was over `Vec<Vec<u32>>` rows: ORDER BY keys
    /// first, the whole row as the tiebreak, then `dedup`.
    fn reference_tail(
        mut rows: Vec<Vec<u32>>,
        order_idx: &[usize],
        distinct: bool,
    ) -> (Vec<Vec<u32>>, u64) {
        let n = rows.len();
        rows.sort_unstable_by(|a, b| {
            order_idx.iter().map(|&i| a[i].cmp(&b[i])).find(|o| o.is_ne()).unwrap_or(a.cmp(b))
        });
        if distinct {
            rows.dedup();
        }
        let removed = if distinct { (n - rows.len()) as u64 } else { 0 };
        (rows, removed)
    }

    /// Random rows of one width, ORDER BY positions (repeats allowed) and
    /// a DISTINCT flag. Cells are drawn mostly from a small range, so rows
    /// repeat and tie, and sometimes from the whole `u32` range, so every
    /// bit of a packed key is exercised.
    fn tail_case() -> impl Strategy<Value = (usize, Vec<Vec<u32>>, Vec<usize>, bool)> {
        let cell = prop_oneof![0u32..4, 0u32..4, 0u32..4, any::<u32>()];
        let row = proptest::collection::vec(cell, 5..6);
        (
            1usize..=5,
            proptest::collection::vec(row, 0..40),
            proptest::collection::vec(0usize..5, 0..6),
            any::<bool>(),
        )
            .prop_map(|(w, mut rows, order, distinct)| {
                rows.iter_mut().for_each(|r| r.truncate(w));
                let order = order.into_iter().map(|i| i % w).take(w).collect();
                (w, rows, order, distinct)
            })
    }

    proptest! {
        /// A probe order is a permutation of the batch under which the
        /// lower bounds ascend, whether the codes pack into one word or
        /// (too wide to pack) sort by slice.
        #[test]
        fn probe_order_ascends(
            (w, nv_lo) in (1usize..4, 0usize..4).prop_map(|(w, n)| (w, n.min(w))),
            codes in proptest::collection::vec(
                prop_oneof![0u64..6, 0u64..6, any::<u64>()],
                0..120,
            ),
        ) {
            let keys = &codes[..codes.len() / w * w];
            let (mut order, mut packed) = (Vec::new(), Vec::new());
            order_probes(keys, w, nv_lo, &mut order, &mut packed);
            let mut seen = order.clone();
            seen.sort_unstable();
            prop_assert_eq!(seen, (0..(keys.len() / w) as u32).collect::<Vec<_>>());
            let lo_of = |j: u32| &keys[j as usize * w..j as usize * w + nv_lo];
            prop_assert!(order.windows(2).all(|p| lo_of(p[0]) <= lo_of(p[1])));
        }

        /// The flat tail gives exactly the rows, and the SORT counters, of
        /// the old row-vector sort under the same comparator.
        #[test]
        fn flat_sort_tail_matches_row_vectors((w, rows, order_idx, distinct) in tail_case()) {
            let mut stats = ExecStats::default();
            let flat = flat_tail(&rows, w, &order_idx, distinct, &mut stats);
            let (expect, removed) = reference_tail(rows.clone(), &order_idx, distinct);
            prop_assert_eq!(flat, expect);
            prop_assert_eq!(stats.sort_rows, rows.len() as u64);
            prop_assert_eq!(stats.dedup_removed, removed);
        }
    }

    /// Hand-built plan: all `bidder` elements via the nksp index, in order.
    #[test]
    fn single_access_plan() {
        let db = db();
        let index = db.indexes.iter().position(|i| i.name == "nksp").unwrap();
        let plan = PhysPlan {
            n_aliases: 1,
            driver: Access {
                alias: 0,
                method: Method::IxScan {
                    index,
                    eq: vec![
                        Probe::Const(Value::Str("bidder".into())),
                        Probe::Const(Value::Kind(NodeKind::Elem)),
                    ],
                    range: None,
                },
                residual: vec![],
                all_atoms: vec![],
                early_out: false,
                est_rows: 0.0,
            },
            steps: vec![],
            select: vec![ColRef { alias: 0, col: DocCol::Pre }],
            distinct: true,
            order_by: vec![ColRef { alias: 0, col: DocCol::Pre }],
            item_output: 0,
            est_cost: 0.0,
            est_rows: 0.0,
        };
        let result = execute(&db, &plan);
        let expected = db.stats.name_count("bidder", NodeKind::Elem);
        assert_eq!(result.len() as u64, expected);
        assert!(result.windows(2).all(|w| w[0] < w[1]), "sorted and distinct");
    }

    /// Two-step plan: bidder elements inside each open_auction (NLJOIN with
    /// a parameterized descendant-range IXSCAN on nksp via pre).
    #[test]
    fn nl_join_descendant_plan() {
        let db = db();
        let nksp = db.indexes.iter().position(|i| i.name == "nksp").unwrap();
        let oa = ColRef { alias: 0, col: DocCol::Pre };
        let plan = PhysPlan {
            n_aliases: 2,
            driver: Access {
                alias: 0,
                method: Method::IxScan {
                    index: nksp,
                    eq: vec![
                        Probe::Const(Value::Str("open_auction".into())),
                        Probe::Const(Value::Kind(NodeKind::Elem)),
                    ],
                    range: None,
                },
                residual: vec![],
                all_atoms: vec![],
                early_out: false,
                est_rows: 0.0,
            },
            steps: vec![Step::Nl(Access {
                alias: 1,
                method: Method::IxScan {
                    index: nksp,
                    eq: vec![
                        Probe::Const(Value::Str("bidder".into())),
                        Probe::Const(Value::Kind(NodeKind::Elem)),
                    ],
                    // Range on the `s = pre + size` key column is not what
                    // we want here; nksp key is n,k,s,p — so instead use a
                    // residual containment check.
                    range: None,
                },
                residual: vec![
                    CqAtom {
                        lhs: CqScalar::Col(oa),
                        op: CmpOp::Lt,
                        rhs: CqScalar::Col(ColRef { alias: 1, col: DocCol::Pre }),
                    },
                    CqAtom {
                        lhs: CqScalar::Col(ColRef { alias: 1, col: DocCol::Pre }),
                        op: CmpOp::Le,
                        rhs: CqScalar::ColPlusCol(oa, ColRef { alias: 0, col: DocCol::Size }),
                    },
                ],
                all_atoms: vec![],
                early_out: false,
                est_rows: 0.0,
            })],
            select: vec![
                ColRef { alias: 0, col: DocCol::Pre },
                ColRef { alias: 1, col: DocCol::Pre },
            ],
            distinct: true,
            order_by: vec![ColRef { alias: 1, col: DocCol::Pre }],
            item_output: 1,
            est_cost: 0.0,
            est_rows: 0.0,
        };
        let result = execute(&db, &plan);
        // Every bidder lies inside exactly one open_auction.
        let expected = db.stats.name_count("bidder", NodeKind::Elem);
        assert_eq!(result.len() as u64, expected);
    }

    /// Early-out semijoin: open_auctions *with* a bidder, each exactly once.
    #[test]
    fn early_out_semijoin() {
        let db = db();
        let nksp = db.indexes.iter().position(|i| i.name == "nksp").unwrap();
        let oa_pre = ColRef { alias: 0, col: DocCol::Pre };
        let mk = |early: bool| PhysPlan {
            n_aliases: 2,
            driver: Access {
                alias: 0,
                method: Method::IxScan {
                    index: nksp,
                    eq: vec![
                        Probe::Const(Value::Str("open_auction".into())),
                        Probe::Const(Value::Kind(NodeKind::Elem)),
                    ],
                    range: None,
                },
                residual: vec![],
                all_atoms: vec![],
                early_out: false,
                est_rows: 0.0,
            },
            steps: vec![Step::Nl(Access {
                alias: 1,
                method: Method::IxScan {
                    index: nksp,
                    eq: vec![
                        Probe::Const(Value::Str("bidder".into())),
                        Probe::Const(Value::Kind(NodeKind::Elem)),
                    ],
                    range: None,
                },
                residual: vec![
                    CqAtom {
                        lhs: CqScalar::Col(oa_pre),
                        op: CmpOp::Lt,
                        rhs: CqScalar::Col(ColRef { alias: 1, col: DocCol::Pre }),
                    },
                    CqAtom {
                        lhs: CqScalar::Col(ColRef { alias: 1, col: DocCol::Pre }),
                        op: CmpOp::Le,
                        rhs: CqScalar::ColPlusCol(oa_pre, ColRef { alias: 0, col: DocCol::Size }),
                    },
                ],
                all_atoms: vec![],
                early_out: early,
                est_rows: 0.0,
            })],
            select: vec![oa_pre],
            distinct: true,
            order_by: vec![oa_pre],
            item_output: 0,
            est_cost: 0.0,
            est_rows: 0.0,
        };
        let with_early = mk(true);
        let without = mk(false);
        let (r1, s1) = execute_with_stats(&db, &with_early);
        let (r2, s2) = execute_with_stats(&db, &without);
        assert_eq!(r1, r2, "early-out must not change the distinct result");
        assert!(
            s1.raw_rows < s2.raw_rows,
            "early-out saves work: {} vs {}",
            s1.raw_rows,
            s2.raw_rows
        );
        assert!(!r1.is_empty());
    }

    /// Driver over open_auction plus a bidder step; `step` picks the
    /// probe style so both batch gather paths get covered.
    fn oa_bidder_plan(db: &Database, range_probe: bool, early_out: bool) -> PhysPlan {
        let nksp = db.indexes.iter().position(|i| i.name == "nksp").unwrap();
        let oa = ColRef { alias: 0, col: DocCol::Pre };
        let oa_size = ColRef { alias: 0, col: DocCol::Size };
        let (range, residual) = if range_probe {
            // Descendant direction through the `s = pre + size` key
            // column: per-outer-tuple (variable) probe bounds.
            (
                Some(RangeProbe {
                    lo: Some((Probe::Bound(oa), true)),
                    hi: Some((Probe::BoundPlusBound(oa, oa_size), false)),
                }),
                vec![],
            )
        } else {
            // Constant probes, containment as residual atoms.
            (
                None,
                vec![
                    CqAtom {
                        lhs: CqScalar::Col(oa),
                        op: CmpOp::Lt,
                        rhs: CqScalar::Col(ColRef { alias: 1, col: DocCol::Pre }),
                    },
                    CqAtom {
                        lhs: CqScalar::Col(ColRef { alias: 1, col: DocCol::Pre }),
                        op: CmpOp::Le,
                        rhs: CqScalar::ColPlusCol(oa, oa_size),
                    },
                ],
            )
        };
        PhysPlan {
            n_aliases: 2,
            driver: Access {
                alias: 0,
                method: Method::IxScan {
                    index: nksp,
                    eq: vec![
                        Probe::Const(Value::Str("open_auction".into())),
                        Probe::Const(Value::Kind(NodeKind::Elem)),
                    ],
                    range: None,
                },
                residual: vec![],
                all_atoms: vec![],
                early_out: false,
                est_rows: 0.0,
            },
            steps: vec![Step::Nl(Access {
                alias: 1,
                method: Method::IxScan {
                    index: nksp,
                    eq: vec![
                        Probe::Const(Value::Str("bidder".into())),
                        Probe::Const(Value::Kind(NodeKind::Elem)),
                    ],
                    range,
                },
                residual,
                all_atoms: vec![],
                early_out,
                est_rows: 0.0,
            })],
            select: vec![oa, ColRef { alias: 1, col: DocCol::Pre }],
            distinct: true,
            order_by: vec![ColRef { alias: 1, col: DocCol::Pre }],
            item_output: 1,
            est_cost: 0.0,
            est_rows: 0.0,
        }
    }

    fn assert_invariant_stats_eq(a: &ExecStats, b: &ExecStats, what: &str) {
        assert_eq!(a.rows_scanned, b.rows_scanned, "{what}: rows_scanned");
        assert_eq!(a.per_op, b.per_op, "{what}: per_op");
        assert_eq!(a.raw_rows, b.raw_rows, "{what}: raw_rows");
        assert_eq!(a.sort_rows, b.sort_rows, "{what}: sort_rows");
        assert_eq!(a.dedup_removed, b.dedup_removed, "{what}: dedup_removed");
    }

    /// Every node up to level 2 (driver, a table scan), kept if its parent
    /// is an element: an early-out step probing `p|nvkls` by the driver's
    /// `parent`. The document node's `parent` is NULL, so its probe codes
    /// NULL; the site's parent is the document node, which fails the
    /// residual; every level-2 node's parent is the site.
    fn parent_probe_plan(db: &Database) -> PhysPlan {
        let p = db.indexes.iter().position(|i| i.name == "p|nvkls").unwrap();
        let d0 = |col| ColRef { alias: 0, col };
        PhysPlan {
            n_aliases: 2,
            driver: Access {
                alias: 0,
                method: Method::TbScan,
                residual: vec![CqAtom {
                    lhs: CqScalar::Col(d0(DocCol::Level)),
                    op: CmpOp::Le,
                    rhs: CqScalar::Const(Value::Int(2)),
                }],
                all_atoms: vec![],
                early_out: false,
                est_rows: 0.0,
            },
            steps: vec![Step::Nl(Access {
                alias: 1,
                method: Method::IxScan {
                    index: p,
                    eq: vec![Probe::Bound(d0(DocCol::Parent))],
                    range: None,
                },
                residual: vec![CqAtom {
                    lhs: CqScalar::Col(ColRef { alias: 1, col: DocCol::Kind }),
                    op: CmpOp::Eq,
                    rhs: CqScalar::Const(Value::Kind(NodeKind::Elem)),
                }],
                all_atoms: vec![],
                early_out: true,
                est_rows: 0.0,
            })],
            select: vec![d0(DocCol::Pre)],
            distinct: true,
            order_by: vec![d0(DocCol::Pre)],
            item_output: 0,
            est_cost: 0.0,
            est_rows: 0.0,
        }
    }

    /// The batch pipeline must be bit-identical across batch sizes — rows
    /// and every batch-size-independent counter — with batch 1 (one row
    /// per batch) as the baseline and sizes that force mid-gather flushes.
    /// Early-out steps are covered over a shared constant scan, over
    /// variable range probes and over a `parent` probe that codes NULL.
    #[test]
    fn batch_sizes_agree() {
        let db = db();
        let plans = [(false, false), (false, true), (true, false), (true, true)]
            .map(|(range, early)| {
                (format!("range={range} early={early}"), oa_bidder_plan(&db, range, early))
            })
            .into_iter()
            .chain([("parent probe".to_string(), parent_probe_plan(&db))]);
        for (what, plan) in plans {
            let one = ExecOptions { batch_size: 1, ..ExecOptions::default() };
            let (b_rows, b_stats) = execute_rows_opts(&db, &plan, &one);
            assert!(b_stats.vector_batches > 0, "{what}: no batches recorded");
            for batch in [2usize, 7, 1024] {
                let opts = ExecOptions { batch_size: batch, ..ExecOptions::default() };
                let (v_rows, v_stats) = execute_rows_opts(&db, &plan, &opts);
                let what = format!("{what} batch={batch}");
                assert_eq!(b_rows, v_rows, "{what}: rows diverge");
                assert_invariant_stats_eq(&b_stats, &v_stats, &what);
                assert!(v_stats.vector_batches > 0, "{what}: no batches recorded");
                assert_eq!(v_stats.vector_batch_size, batch as u64);
            }
        }
    }

    /// An early-out probe that codes NULL drops its tuple without counting
    /// a probe or a seek; every other tuple seeks once.
    #[test]
    fn null_early_out_probe_is_dropped_unprobed() {
        let db = db();
        let plan = parent_probe_plan(&db);
        let (rows, st) = execute_rows_opts(&db, &plan, &ExecOptions::default());
        let upper = (0..db.store.len()).filter(|&p| db.store.level[p] <= 2).count() as u64;
        let kept: Vec<u32> =
            (0..db.store.len() as u32).filter(|&p| db.store.level[p as usize] == 2).collect();
        assert_eq!(rows.concat(), kept, "level-2 nodes, whose parent is the site");
        let step = st.per_op[1];
        assert_eq!(step.invocations, upper, "one invocation per outer tuple");
        assert_eq!(step.index_probes, upper - 1, "the document node's NULL probe is not one");
        assert_eq!(step.rows_in, upper - 1, "each `pre` probe finds one row");
        assert_eq!(st.join_seeks, upper - 1, "one seek per non-NULL probe");
    }

    /// Variable-probe steps must probe through one galloping cursor per
    /// sorted batch: one seek per logical probe, fewer physical descents
    /// than probes.
    #[test]
    fn var_probes_gallop_in_batches() {
        let db = db();
        let plan = oa_bidder_plan(&db, true, false);
        let opts = ExecOptions::default();
        let (_, v) = execute_rows_opts(&db, &plan, &opts);
        let probes = v.per_op[1].index_probes;
        assert!(probes > 1, "expected many probes, got {probes}");
        assert!(
            v.btree_descents < probes,
            "batching should save descents: {} vs {probes}",
            v.btree_descents
        );
        assert!(v.join_probe_batches > 0, "no probe batch went through a seek cursor");
        assert_eq!(v.join_seeks, probes, "one seek per logical probe");
        assert!(v.btree_skips > 0, "seeks should gallop through internal nodes");
        // An early-out step seeks through the same cursor, once per
        // non-NULL probe, stopping each tuple at its first match.
        let early = oa_bidder_plan(&db, true, true);
        let (_, e) = execute_rows_opts(&db, &early, &opts);
        let e_probes = e.per_op[1].index_probes;
        assert_eq!(e_probes, probes, "early-out probes the same outer tuples");
        assert_eq!(e.join_seeks, e_probes, "one seek per early-out probe");
        assert_eq!(e.join_probe_batches, v.join_probe_batches);
        assert!(e.btree_descents < e_probes, "early-out probes gallop too");
        assert!(e.per_op[1].rows_in < v.per_op[1].rows_in, "early-out stops at first matches");
        // Constant-probe steps share one scan per batch, early-out or not.
        for early_out in [false, true] {
            let const_plan = oa_bidder_plan(&db, false, early_out);
            let (_, c) = execute_rows_opts(&db, &const_plan, &opts);
            assert!(c.btree_skips > 0, "shared constant scan counts skipped probes");
            assert_eq!(c.btree_descents, 1, "one shared descent serves the one outer batch");
        }
    }

    #[test]
    fn probe_evaluation() {
        let db = db();
        let bindings = |_: usize| 1u32;
        let cr = ColRef { alias: 0, col: DocCol::Pre };
        assert_eq!(Probe::Bound(cr).eval_at(&db, bindings), Some(Value::Int(1)));
        assert_eq!(Probe::BoundPlusInt(cr, 5).eval_at(&db, bindings), Some(Value::Int(6)));
        let size = ColRef { alias: 0, col: DocCol::Size };
        let s = Probe::BoundPlusBound(cr, size).eval_at(&db, bindings).unwrap();
        assert_eq!(s, Value::Int(1 + db.store.size[1] as i64));
        // NULL propagates to None.
        let val = ColRef { alias: 0, col: DocCol::Value };
        // Node 1 is <site> (size > 1) so value is NULL.
        assert_eq!(Probe::Bound(val).eval_at(&db, bindings), None);
    }
}
