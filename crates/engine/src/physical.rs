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
use crate::fastpred::{compile_atoms, FastAtom};
use jgi_algebra::cq::{ColRef, CqAtom, CqScalar, DocCol};
use jgi_algebra::Value;
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
    /// shared constant-probe scans. `per_op[..].index_probes` stays
    /// *logical* (one per outer tuple, identical at every batch size); the
    /// gap between probes and descents is the work batching saved.
    pub btree_descents: u64,
    /// Work done instead of root descents: internal-node hops of galloping
    /// cursors plus outer tuples sharing one constant-probe scan.
    pub btree_skips: u64,
    /// Rows loaded into [`Step::Hash`] build tables. Charged once at build
    /// time, before the pipeline runs, so it is batch-size-*independent*.
    pub join_build_rows: u64,
    /// Sorted variable-probe batches served by one galloping
    /// [`crate::btree::SeekCursor`] each (batch-size-dependent, like
    /// `vector_*`).
    pub join_probe_batches: u64,
    /// Seeks performed by those cursors, one per logical probe; each
    /// replaces a root descent from the top of the tree.
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
    #[inline]
    fn absorb(&mut self, c: ScanCounts) {
        self.invocations += 1;
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

/// [`execute_with_stats`] with explicit executor options.
pub fn execute_with_stats_opts(
    db: &Database,
    plan: &PhysPlan,
    opts: &ExecOptions,
) -> (Vec<u32>, ExecStats) {
    let (rows, stats) = execute_rows_opts(db, plan, opts);
    let out = rows.iter().map(|r| r[plan.item_output]).collect();
    (out, stats)
}

/// Row-returning executor at the default options.
pub fn execute_rows_with_stats(db: &Database, plan: &PhysPlan) -> (Vec<Vec<u32>>, ExecStats) {
    execute_rows_opts(db, plan, &ExecOptions::default())
}

/// Row-returning executor — the single code path under every `execute*`
/// entry point; statistics are always collected (plain counter increments).
/// The batch pipeline runs on the calling thread and ends in the SORT tail.
pub fn execute_rows_opts(
    db: &Database,
    plan: &PhysPlan,
    opts: &ExecOptions,
) -> (Vec<Vec<u32>>, ExecStats) {
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
                let op = &mut stats.per_op[i + 1];
                op.rows_in += counts.rows_in;
                op.index_probes += counts.index_probes;
                op.comparisons += counts.comparisons;
                stats.join_build_rows += built;
                tables[i] = Some(table);
            }
            Step::Nl(_) => {}
        }
    }
    tables
}

/// The SELECT row of one binding tuple (`get`: alias → `pre`). Every
/// SELECT column is a node column (`pre`, `size`, `level`, `parent`), so
/// each cell is read as the `u32` it holds without building a `Value`.
fn select_row(db: &Database, plan: &PhysPlan, get: impl Fn(usize) -> u32) -> Vec<u32> {
    plan.select
        .iter()
        .map(|cr| match db.cell(get(cr.alias), IndexCol::Col(cr.col)) {
            Cell::Int(i) => i as u32,
            other => panic!("select column holds non-node value {}", other.to_value()),
        })
        .collect()
}

/// Positions of the ORDER BY columns inside the SELECT list.
fn order_indices(plan: &PhysPlan) -> Vec<usize> {
    plan.order_by
        .iter()
        .filter_map(|cr| plan.select.iter().position(|s| s == cr))
        .collect()
}

/// The SORT tail's comparator: ORDER BY keys first, then the whole row as
/// a tiebreak. The tiebreak makes the order *total*, which is what makes
/// the batch pipeline's output independent of the order its sorted probe
/// batches enumerate candidates in — the final sequence is a function of
/// the row multiset alone, not of arrival order.
fn cmp_rows(a: &[u32], b: &[u32], order_idx: &[usize]) -> std::cmp::Ordering {
    for &i in order_idx {
        match a[i].cmp(&b[i]) {
            std::cmp::Ordering::Equal => continue,
            other => return other,
        }
    }
    a.cmp(b)
}

/// The SORT tail: one sort under the ORDER BY comparator, then DISTINCT.
/// The comparator breaks ties by the whole row, so only identical rows
/// compare equal and the sort leaves duplicates adjacent.
fn sort_tail(
    mut rows: Vec<Vec<u32>>,
    order_idx: &[usize],
    distinct: bool,
    stats: &mut ExecStats,
) -> Vec<Vec<u32>> {
    stats.sort_rows = rows.len() as u64;
    rows.sort_unstable_by(|a, b| cmp_rows(a, b, order_idx));
    if distinct {
        rows.dedup();
        stats.dedup_removed = stats.sort_rows - rows.len() as u64;
    }
    rows
}

/// Reusable per-access scan state: the bindings-with-self buffer for
/// residual checks plus the coded probe-key buffers.
/// [`AccessScratch::prepare`] codes the constant key slots once (recording
/// which slots are per-tuple); variable slots are overwritten with their
/// codes on every scan, so the hot path allocates nothing.
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
    /// Key-slot positions (lo side) that depend on the outer tuple, in
    /// increasing slot order.
    var_lo: Vec<usize>,
    /// Key-slot positions (hi side) that depend on the outer tuple.
    var_hi: Vec<usize>,
}

impl AccessScratch {
    fn prepare(&mut self, db: &Database, access: &Access) {
        if self.init {
            return;
        }
        self.init = true;
        let Method::IxScan { index, eq, range } = &access.method else { return };
        let key = &db.indexes[*index].key;
        for (s, p) in eq.iter().enumerate() {
            let c = self.constant(db, key[s], p);
            if c.is_none() {
                self.var_lo.push(s);
                self.var_hi.push(s);
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
                    self.var_lo.push(s);
                }
                self.lo.push(c.unwrap_or(NULL_CODE));
            }
            if let Some((p, strict)) = &r.hi {
                self.hi_strict = *strict;
                let c = self.constant(db, key[s], p);
                if c.is_none() {
                    self.var_hi.push(s);
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
}

/// Run an access: call `f(pre)` for every matching row; `f` returns false
/// to stop early (early-out semijoins). Returns the work counters for the
/// caller to merge (local `u64`s — the hot loop never touches shared
/// state or allocates for accounting). `scratch` must be dedicated to
/// this access and is reused across calls.
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
    let AccessScratch { bindings: bws, lo, hi, lo_strict, hi_strict, .. } = scratch;
    bws.clear();
    bws.extend_from_slice(bindings);
    let check = |db: &Database, pre: u32, b: &mut Vec<u32>, c: &mut ScanCounts| -> bool {
        c.rows_in += 1;
        b[access.alias] = pre;
        let ok = fast.iter().all(|a| {
            c.comparisons += 1;
            a.eval(db, b)
        });
        b[access.alias] = u32::MAX;
        ok
    };
    match &access.method {
        Method::TbScan => {
            for pre in 0..db.store.len() as u32 {
                if check(db, pre, bws, &mut counts) && !f(pre) {
                    return counts;
                }
            }
        }
        Method::IxScan { index, eq, range } => {
            // Code the per-tuple key slots (constants sit there already).
            // A NULL probe matches nothing.
            let idx = &db.indexes[*index];
            let code = |s: usize, p: &Probe| p.code_at(db, idx.key[s], |a| bindings[a]);
            for (s, p) in eq.iter().enumerate() {
                if matches!(p, Probe::Const(_)) {
                    continue;
                }
                match code(s, p) {
                    Some(c) => {
                        lo[s] = c;
                        hi[s] = c;
                    }
                    None => return counts,
                }
            }
            if let Some(r) = range {
                let s = eq.len();
                if let Some((p, _)) = &r.lo {
                    if !matches!(p, Probe::Const(_)) {
                        match code(s, p) {
                            Some(c) => lo[s] = c,
                            None => return counts,
                        }
                    }
                }
                if let Some((p, _)) = &r.hi {
                    if !matches!(p, Probe::Const(_)) {
                        match code(s, p) {
                            Some(c) => hi[s] = c,
                            None => return counts,
                        }
                    }
                }
            }
            counts.index_probes += 1;
            for (_, pre) in idx.btree.scan(lo, *lo_strict, hi, *hi_strict) {
                if check(db, pre, bws, &mut counts) && !f(pre) {
                    return counts;
                }
            }
        }
    }
    counts
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
    /// Bindings tuple for per-row detours (early-out scans, hash residual
    /// short-circuits).
    bindings: Vec<u32>,
    /// Scratch bindings for the generic-atom fallback kernel.
    fallback: Vec<u32>,
    /// Probe-key/residual scratch of the step's access.
    access: AccessScratch,
    /// Hash probe-key buffer.
    key: Vec<Value>,
    /// Var-probe key pool: `w` codes per live tuple (lo vars, then hi
    /// vars).
    keys: Vec<u64>,
    /// Selected batch rows whose probe keys are all non-NULL.
    live: Vec<u32>,
    /// Sort permutation over `live` (ascending lo keys).
    order: Vec<u32>,
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
    rows: &mut Vec<Vec<u32>>,
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
    rows: &mut Vec<Vec<u32>>,
    stats: &mut ExecStats,
) {
    if sel.is_empty() {
        return;
    }
    let db = cx.db;
    if depth == cx.plan.steps.len() {
        for &i in sel {
            stats.raw_rows += 1;
            rows.push(select_row(db, cx.plan, |a| batch.cols[a][i as usize]));
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
        cands,
    } = lvl;
    let outer: &[usize] = &cx.bound_at[depth];
    let op_idx = depth + 1;
    let fast: &[FastAtom] = &cx.step_fast[depth];
    match &cx.plan.steps[depth] {
        Step::Nl(access) if !access.early_out => {
            stats.per_op[op_idx].invocations += sel.len() as u64;
            scr.prepare(db, access);
            if scr.dead {
                return; // NULL constant probe: no candidates, no probes
            }
            match &access.method {
                Method::TbScan => {
                    let n = db.store.len() as u32;
                    stats.per_op[op_idx].rows_in += n as u64 * sel.len() as u64;
                    for &i in sel {
                        for pre in 0..n {
                            next.push_extended(batch, i as usize, outer, access.alias, pre);
                            if next.rows >= cx.batch_size {
                                flush_batch(
                                    cx, fast, op_idx, true, next, sel_buf, fallback, deeper, rows,
                                    stats,
                                );
                            }
                        }
                    }
                }
                Method::IxScan { index, eq, range } => {
                    let has_var = eq.iter().any(|p| !matches!(p, Probe::Const(_)))
                        || range.iter().any(|r| {
                            r.lo
                                .iter()
                                .chain(r.hi.iter())
                                .any(|(p, _)| !matches!(p, Probe::Const(_)))
                        });
                    let tree = &db.indexes[*index].btree;
                    if !has_var {
                        // Constant probe: one shared scan serves the whole
                        // batch. Logically still one probe per outer
                        // tuple; physically a single descent.
                        cands.clear();
                        for (_, pre) in tree.scan(&scr.lo, scr.lo_strict, &scr.hi, scr.hi_strict) {
                            cands.push(pre);
                        }
                        stats.per_op[op_idx].index_probes += sel.len() as u64;
                        stats.per_op[op_idx].rows_in += cands.len() as u64 * sel.len() as u64;
                        stats.btree_descents += 1;
                        stats.btree_skips += sel.len() as u64 - 1;
                        for &i in sel {
                            for &pre in cands.iter() {
                                next.push_extended(batch, i as usize, outer, access.alias, pre);
                                if next.rows >= cx.batch_size {
                                    flush_batch(
                                        cx, fast, op_idx, true, next, sel_buf, fallback, deeper,
                                        rows, stats,
                                    );
                                }
                            }
                        }
                    } else {
                        // Per-tuple probes, batched: code the variable key
                        // slots for every selected tuple, sort the tuples
                        // by key, and serve all probes with one galloping
                        // SeekCursor (one descent, then O(log gap) node
                        // hops per probe). Sorting only permutes candidate
                        // enumeration across outer tuples, which the SORT
                        // tail's total order makes unobservable.
                        let key_cols = &db.indexes[*index].key;
                        let nv_lo = scr.var_lo.len();
                        let w = nv_lo + scr.var_hi.len();
                        keys.clear();
                        live.clear();
                        'tuples: for &i in sel {
                            let start = keys.len();
                            let code = |s: usize, p: &Probe| {
                                p.code_at(db, key_cols[s], |a| batch.cols[a][i as usize])
                            };
                            for &s in &scr.var_lo {
                                let p = if s < eq.len() {
                                    &eq[s]
                                } else {
                                    &range.as_ref().expect("var slot beyond eq is the range")
                                        .lo
                                        .as_ref()
                                        .expect("lo var slot recorded")
                                        .0
                                };
                                match code(s, p) {
                                    Some(c) => keys.push(c),
                                    None => {
                                        keys.truncate(start);
                                        continue 'tuples;
                                    }
                                }
                            }
                            for &s in &scr.var_hi {
                                if s < eq.len() {
                                    // Equality slots share the lo-side code.
                                    let pos = scr
                                        .var_lo
                                        .iter()
                                        .position(|&x| x == s)
                                        .expect("eq var slot present on the lo side");
                                    keys.push(keys[start + pos]);
                                } else {
                                    let p = &range
                                        .as_ref()
                                        .expect("var slot beyond eq is the range")
                                        .hi
                                        .as_ref()
                                        .expect("hi var slot recorded")
                                        .0;
                                    match code(s, p) {
                                        Some(c) => keys.push(c),
                                        None => {
                                            keys.truncate(start);
                                            continue 'tuples;
                                        }
                                    }
                                }
                            }
                            live.push(i);
                        }
                        order.clear();
                        order.extend(0..live.len() as u32);
                        // Comparing the variable slots in slot order is the
                        // full-key lexicographic order: constant slots are
                        // equal across the batch and never discriminate.
                        order.sort_by(|&x, &y| {
                            let kx = &keys[x as usize * w..x as usize * w + nv_lo];
                            let ky = &keys[y as usize * w..y as usize * w + nv_lo];
                            kx.cmp(ky)
                        });
                        stats.join_probe_batches += 1;
                        let mut rows_in = 0u64;
                        let mut cursor = tree.seek_cursor();
                        for &o in order.iter() {
                            let j = o as usize;
                            let i = live[j] as usize;
                            let base = j * w;
                            for (t, &s) in scr.var_lo.iter().enumerate() {
                                scr.lo[s] = keys[base + t];
                            }
                            for (t, &s) in scr.var_hi.iter().enumerate() {
                                scr.hi[s] = keys[base + nv_lo + t];
                            }
                            for (_, pre) in
                                cursor.seek(&scr.lo, scr.lo_strict, &scr.hi, scr.hi_strict)
                            {
                                rows_in += 1;
                                next.push_extended(batch, i, outer, access.alias, pre);
                                if next.rows >= cx.batch_size {
                                    flush_batch(
                                        cx, fast, op_idx, true, next, sel_buf, fallback, deeper,
                                        rows, stats,
                                    );
                                }
                            }
                        }
                        stats.btree_descents += cursor.descents;
                        stats.btree_skips += cursor.node_hops;
                        stats.join_seeks += cursor.seeks;
                        stats.per_op[op_idx].rows_in += rows_in;
                        stats.per_op[op_idx].index_probes += live.len() as u64;
                    }
                }
            }
            flush_batch(cx, fast, op_idx, true, next, sel_buf, fallback, deeper, rows, stats);
        }
        Step::Nl(access) => {
            // Early-out semijoin: candidate enumeration stops at the first
            // residual match, so batching the probes would change the
            // work. Run the scan one outer tuple at a time; survivors
            // still flow downstream in batches.
            for &i in sel {
                bindings.clear();
                bindings.resize(cx.plan.n_aliases, u32::MAX);
                for &a in outer {
                    bindings[a] = batch.cols[a][i as usize];
                }
                let counts = scan_access(db, access, fast, bindings, scr, &mut |pre| {
                    stats.rows_scanned[op_idx] += 1;
                    stats.per_op[op_idx].rows_out += 1;
                    next.push_extended(batch, i as usize, outer, access.alias, pre);
                    if next.rows >= cx.batch_size {
                        flush_batch(
                            cx, fast, op_idx, false, next, sel_buf, fallback, deeper, rows, stats,
                        );
                    }
                    false
                });
                stats.per_op[op_idx].absorb(counts);
            }
            flush_batch(cx, fast, op_idx, false, next, sel_buf, fallback, deeper, rows, stats);
        }
        Step::Hash { access, probe_key, .. } if !access.early_out => {
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
                if let Some(matches) = table.get(key.as_slice()) {
                    for &pre in matches {
                        next.push_extended(batch, i as usize, outer, access.alias, pre);
                        if next.rows >= cx.batch_size {
                            flush_batch(
                                cx, fast, op_idx, true, next, sel_buf, fallback, deeper, rows,
                                stats,
                            );
                        }
                    }
                }
            }
            flush_batch(cx, fast, op_idx, true, next, sel_buf, fallback, deeper, rows, stats);
        }
        Step::Hash { access, probe_key, .. } => {
            // Early-out hash semijoin: stop at each outer tuple's first
            // match that passes the residuals.
            let table = cx.tables[depth].as_ref().expect("hash table built");
            let mut comparisons = 0u64;
            let mut emitted = 0u64;
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
                bindings.clear();
                bindings.resize(cx.plan.n_aliases, u32::MAX);
                for &a in outer {
                    bindings[a] = batch.cols[a][i as usize];
                }
                for &pre in matches {
                    bindings[access.alias] = pre;
                    let ok = fast.iter().all(|a| {
                        comparisons += 1;
                        a.eval(db, bindings)
                    });
                    if ok {
                        stats.rows_scanned[op_idx] += 1;
                        emitted += 1;
                        next.push_extended(batch, i as usize, outer, access.alias, pre);
                        if next.rows >= cx.batch_size {
                            flush_batch(
                                cx, fast, op_idx, false, next, sel_buf, fallback, deeper, rows,
                                stats,
                            );
                        }
                        break;
                    }
                }
            }
            let op = &mut stats.per_op[op_idx];
            op.comparisons += comparisons;
            op.rows_out += emitted;
            flush_batch(cx, fast, op_idx, false, next, sel_buf, fallback, deeper, rows, stats);
        }
    }
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
) -> Vec<Vec<u32>> {
    let cx = VecCtx {
        db,
        plan,
        tables,
        step_fast,
        bound_at: bound_aliases(plan),
        batch_size: opts.batch_size.max(1),
    };
    let mut levels: Vec<VecLevel> =
        plan.steps.iter().map(|_| VecLevel::shaped(plan.n_aliases)).collect();
    let mut driver_lvl = VecLevel::shaped(plan.n_aliases);
    let mut rows: Vec<Vec<u32>> = Vec::new();
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
    stats.per_op[0].absorb(counts);
    let order_idx = order_indices(plan);
    sort_tail(rows, &order_idx, plan.distinct, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jgi_algebra::pred::CmpOp;
    use jgi_xml::generate::{generate_xmark, XmarkConfig};
    use jgi_xml::{DocStore, NodeKind};

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
        let sorted = sort_tail(rows, &[1], true, &mut stats);
        assert_eq!(sorted, vec![vec![1, 1], vec![2, 1], vec![1, 2]]);
        assert_eq!((stats.sort_rows, stats.dedup_removed), (4, 1));
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

    /// The batch pipeline must be bit-identical across batch sizes — rows
    /// and every batch-size-independent counter — with batch 1 (one row
    /// per batch) as the baseline and sizes that force mid-gather flushes.
    #[test]
    fn batch_sizes_agree() {
        let db = db();
        for (range_probe, early_out) in
            [(false, false), (false, true), (true, false), (true, true)]
        {
            let plan = oa_bidder_plan(&db, range_probe, early_out);
            let one = ExecOptions { batch_size: 1, ..ExecOptions::default() };
            let (b_rows, b_stats) = execute_rows_opts(&db, &plan, &one);
            let what = format!("range={range_probe} early={early_out}");
            assert!(b_stats.vector_batches > 0, "{what}: no batches recorded");
            for batch in [2usize, 7, 1024] {
                let opts = ExecOptions { batch_size: batch, ..ExecOptions::default() };
                let (v_rows, v_stats) = execute_rows_opts(&db, &plan, &opts);
                let what = format!("range={range_probe} early={early_out} batch={batch}");
                assert_eq!(b_rows, v_rows, "{what}: rows diverge");
                assert_invariant_stats_eq(&b_stats, &v_stats, &what);
                assert!(v_stats.vector_batches > 0, "{what}: no batches recorded");
                assert_eq!(v_stats.vector_batch_size, batch as u64);
            }
        }
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
        // Constant-probe steps share one scan per batch.
        let const_plan = oa_bidder_plan(&db, false, false);
        let (_, c) = execute_rows_opts(&db, &const_plan, &opts);
        assert!(c.btree_skips > 0, "shared constant scan counts skipped probes");
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
