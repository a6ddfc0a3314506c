//! Cost-based join planning for join-graph blocks.
//!
//! A System-R-style left-deep dynamic program over the aliases of a
//! [`ConjunctiveQuery`]: states are alias subsets, extensions prefer
//! connected aliases, and each extension picks the cheapest access path —
//! a B-tree [`Method::IxScan`] whose key prefix is bound by the available
//! equality/range predicates (constants *or* columns of already-bound
//! aliases), a hash join for value-equality edges, or a table scan.
//!
//! Nothing here knows about XML. Step reordering, axis reversal, and path
//! stitching (paper §4.1) *emerge*: an axis predicate like
//! `d2.pre < d6.pre ≤ d2.pre + d2.size` is sargable from the `d6` side
//! through a `…p`-suffixed index (descendant direction) and from the `d2`
//! side through the computed `s = pre + size` key column (ancestor
//! direction); which direction runs is purely a matter of estimated cost.
//!
//! One declared encoding invariant enters planning: `parent` is exact, so
//! a child step's range form implies the key equality `pre = parent°`
//! ([`parent_keys`]). The planner adds that equality to the join atoms, and
//! a child step resolved upward becomes one `pre` probe.

use crate::catalog::{Database, IndexCol};
use crate::physical::{Access, Method, PhysPlan, RangeProbe, Step};
use jgi_algebra::cq::{ColRef, CqAtom, CqScalar, DocCol};
use jgi_algebra::pred::CmpOp;
use jgi_algebra::{ConjunctiveQuery, Value};
use jgi_sync::Mutex;
use jgi_xml::NodeKind;
use std::collections::HashMap;
use std::sync::Arc;

/// Cost of touching one candidate row, as a fraction of a B-tree descent's
/// [`PROBE_COST`]: column-batch kernels amortize predicate interpretation
/// over the batch. Calibrated coarsely on measured runs, like the rest of
/// the unit system.
const ROW_COST: f64 = 0.25;
/// Cost of one B-tree descent.
const PROBE_COST: f64 = 12.0;
/// Cost applied to the strategies a [`JoinStrategy`] forcing knob rules
/// out where the forced strategy is applicable — large enough to dominate
/// any honest estimate, finite so the DP still completes (and falls back
/// naturally where the forced strategy cannot run).
const FORCE_PENALTY: f64 = 1e12;
/// Per-probe cost of a galloping seek: the executor sorts each
/// batch of variable probes and serves it with one shared cursor, so a
/// probe costs a few node hops (O(log gap)) instead of a full root
/// descent. Calibrated coarsely against `PROBE_COST`, like the rest of the
/// unit system.
pub const GALLOP_SEEK_COST: f64 = 2.0;

/// Largest alias count the dynamic program accepts. Its subset table holds
/// 2ⁿ states, so every alias past the bound doubles planning memory and
/// time; [`plan_with_stats_opts`] asserts it, and callers holding a larger
/// join graph must take another execution path.
pub const MAX_ALIASES: usize = 20;

/// Physical join-strategy selection: `auto` lets the DP cost-choose
/// between index nested loop and hash join per join edge; the rest force
/// one family wherever it is applicable (with a natural NL fallback where
/// it is not). Plumbed from `Budgets::join`,
/// `jgi-served --join` and the cross-strategy test matrices. Every
/// strategy produces bit-identical results — this knob only moves work
/// around.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JoinStrategy {
    /// Cost-choose between NL and hash per join edge.
    #[default]
    Auto,
    /// Index nested-loop everywhere — the divergence baseline. Also
    /// disables the generic hash join, so the plan is pure NLJOIN.
    Nl,
    /// Prefer hash steps wherever a usable equality edge exists.
    Hash,
}

impl JoinStrategy {
    /// All strategies, for forcing matrices in tests and benches.
    pub const ALL: [JoinStrategy; 3] = [JoinStrategy::Auto, JoinStrategy::Nl, JoinStrategy::Hash];
}

impl std::str::FromStr for JoinStrategy {
    type Err = String;
    fn from_str(s: &str) -> Result<JoinStrategy, String> {
        match s {
            "auto" => Ok(JoinStrategy::Auto),
            "nl" => Ok(JoinStrategy::Nl),
            "hash" => Ok(JoinStrategy::Hash),
            other => Err(format!("unknown join strategy {other:?} (want nl|hash|auto)")),
        }
    }
}

impl std::fmt::Display for JoinStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            JoinStrategy::Auto => "auto",
            JoinStrategy::Nl => "nl",
            JoinStrategy::Hash => "hash",
        })
    }
}

/// Planner options: join-strategy forcing. Candidate rows cost
/// `ROW_COST` and variable probes [`GALLOP_SEEK_COST`], the rates the
/// batch pipeline runs them at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanOptions {
    /// Strategy forcing (default: auto).
    pub join: JoinStrategy,
    /// Inert: the planner costs for the one executor, the batch pipeline,
    /// whatever this says. Kept only because the frozen benchmark harness
    /// still names it.
    pub vectorized: bool,
}

impl Default for PlanOptions {
    fn default() -> Self {
        PlanOptions { join: JoinStrategy::Auto, vectorized: true }
    }
}

/// Counters describing one run of the dynamic program (for EXPLAIN output
/// and the query report; costs nothing to maintain relative to planning).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// DP states offered to the memo (seeds + extensions).
    pub states_considered: usize,
    /// States discarded because the memo already held a cheaper plan for
    /// the same alias subset.
    pub states_pruned: usize,
    /// Access-path candidates examined across all `best_access` calls
    /// (the table scan plus every index with a usable key prefix).
    pub access_paths_considered: usize,
    /// Hash-join alternatives that were actually constructible.
    pub hash_options_considered: usize,
}

/// Plan a conjunctive query against the database's index set.
pub fn plan(db: &Database, cq: &ConjunctiveQuery) -> PhysPlan {
    plan_with_stats_opts(db, cq, &PlanOptions::default()).0
}

/// Like [`plan`], additionally returning the DP's search-effort counters.
pub fn plan_with_stats(db: &Database, cq: &ConjunctiveQuery) -> (PhysPlan, PlanStats) {
    plan_with_stats_opts(db, cq, &PlanOptions::default())
}

/// [`plan`] with explicit [`PlanOptions`].
pub fn plan_opts(db: &Database, cq: &ConjunctiveQuery, opts: &PlanOptions) -> PhysPlan {
    plan_with_stats_opts(db, cq, opts).0
}

/// One-slot memo of the physical plan of **one** conjunctive query — the
/// caller keeps it beside that query and never offers it another.
///
/// A plan depends on the query, the database's statistics and index set
/// ([`Database::id`]) and the [`PlanOptions`]; none of these change between
/// two executions against the same database, so warm traffic plans once. On
/// a key mismatch (a commit published a new database, a budget changed) the
/// caller re-plans and overwrites the slot: the latest database wins, and
/// two threads racing after a publish each plan once. The slot holds no
/// reference to the database, so a memo never keeps a retired one alive.
pub struct PlanMemo {
    slot: Mutex<Option<MemoEntry>>,
}

struct MemoEntry {
    /// [`Database::id`] the plan was built on.
    db: u64,
    opts: PlanOptions,
    plan: Arc<PhysPlan>,
    stats: PlanStats,
}

impl PlanMemo {
    /// An empty memo.
    pub fn new() -> PlanMemo {
        PlanMemo { slot: Mutex::named("plan_memo", None) }
    }

    /// The plan of `cq` on `db` under `opts`, its search-effort counters,
    /// and whether it came from the memo. A miss runs
    /// [`plan_with_stats_opts`] outside the lock (and emits the `opt.*`
    /// counters); a hit does neither.
    pub fn plan(
        &self,
        db: &Database,
        cq: &ConjunctiveQuery,
        opts: &PlanOptions,
    ) -> (Arc<PhysPlan>, PlanStats, bool) {
        if let Some(e) = self.slot.lock().as_ref() {
            if e.db == db.id() && e.opts == *opts {
                return (Arc::clone(&e.plan), e.stats.clone(), true);
            }
        }
        let (plan, stats) = plan_with_stats_opts(db, cq, opts);
        let plan = Arc::new(plan);
        *self.slot.lock() = Some(MemoEntry {
            db: db.id(),
            opts: *opts,
            plan: Arc::clone(&plan),
            stats: stats.clone(),
        });
        (plan, stats, false)
    }
}

impl Default for PlanMemo {
    fn default() -> PlanMemo {
        PlanMemo::new()
    }
}

/// The dynamic program. Two structural choices keep it off the query's
/// critical path (planning used to dominate Q2's end-to-end latency by
/// two orders of magnitude):
///
/// * **Memoized step options.** Access paths and join alternatives for an
///   alias depend only on *which of its join-graph neighbors* are bound —
///   not on the rest of the mask. Options are memoized under
///   `(alias, mask & rel_mask[alias])`, collapsing the O(n·2ⁿ) calls to
///   `best_access` down to the handful of distinct neighbor subsets.
/// * **Parent-pointer states.** A DP state is a `Copy` cost/cardinality
///   record pointing at its predecessor mask; the winning plan is
///   reconstructed once at the end from the memo, instead of cloning
///   growing `Vec<Step>` plans on every extension.
pub fn plan_with_stats_opts(
    db: &Database,
    cq: &ConjunctiveQuery,
    opts: &PlanOptions,
) -> (PhysPlan, PlanStats) {
    let mut stats = PlanStats::default();
    let n = cq.aliases;
    assert!(n >= 1, "query without relations");
    assert!(n <= MAX_ALIASES, "join graphs beyond {MAX_ALIASES} aliases are out of scope");

    // Pre-split predicates.
    let locals: Vec<Vec<CqAtom>> = (0..n)
        .map(|a| cq.predicates.iter().filter(|p| p.is_local() && p.aliases() == vec![a]).cloned().collect())
        .collect();
    let mut joins: Vec<CqAtom> = cq.predicates.iter().filter(|p| !p.is_local()).cloned().collect();
    let keys = parent_keys(&joins);
    joins.extend(keys.iter().cloned());

    // Join-graph neighbor mask per alias — the memo key projection.
    let mut rel_mask: Vec<u32> = vec![0; n];
    for p in &joins {
        let al = p.aliases();
        for &a in &al {
            for &b in &al {
                if b != a {
                    rel_mask[a] |= 1 << b;
                }
            }
        }
    }
    let mut memo: HashMap<(usize, u32), StepOptions> = HashMap::new();
    // Hash build sides are *independent* accesses (mask 0, local
    // predicates only) — identical for every neighbor subset of an alias,
    // so they are cached per alias rather than per memo key.
    let mut builds: Vec<Option<BuildSide>> = vec![None; n];

    // DP over subsets (left-deep).
    let full: u32 = if n == 32 { u32::MAX } else { (1u32 << n) - 1 };
    let mut best: Vec<Option<Node>> = vec![None; (full as usize) + 1];

    // Seed: single-alias drivers. The cardinality floor (≥ 1 row) matters:
    // without it a sub-1 driver estimate makes every subsequent step look
    // free and the DP loses all discrimination.
    for (a, alias_locals) in locals.iter().enumerate() {
        let o = memo.entry((a, 0u32)).or_insert_with(|| {
            compute_step_options(
                db, cq, a, alias_locals, &joins, &keys, 0, opts.join, &mut builds, &mut stats,
            )
        });
        let node = Node {
            cost: o.probe_cost,
            card: o.per_probe.max(1.0),
            prev: 0,
            alias: a,
            choice: Choice::Nl,
        };
        consider(&mut best, 1 << a, node, &mut stats);
    }

    // Expand.
    for mask in 1..full {
        let Some(cur) = best[mask as usize] else { continue };
        // Prefer connected extensions (a join-graph neighbor already
        // bound, i.e. `rel_mask` intersects); fall back to Cartesian only
        // if no unbound alias is connected.
        let any_connected =
            (0..n).any(|a| mask & (1 << a) == 0 && rel_mask[a] & mask != 0);
        for a in 0..n {
            if mask & (1 << a) != 0 {
                continue;
            }
            if any_connected && rel_mask[a] & mask == 0 {
                continue;
            }
            let key = (a, mask & rel_mask[a]);
            let o = memo.entry(key).or_insert_with(|| {
                compute_step_options(
                    db, cq, a, &locals[a], &joins, &keys, key.1, opts.join, &mut builds,
                    &mut stats,
                )
            });
            let next_mask = mask | (1 << a);
            // Forcing: penalize the strategies the knob rules out, but only
            // where the forced strategy is actually applicable — elsewhere
            // the natural fallback (NL) stays penalty-free.
            let penalty = if opts.join == JoinStrategy::Hash && o.hash.is_some() {
                FORCE_PENALTY
            } else {
                0.0
            };
            // Option A: index nested-loop. The batch pipeline sorts each
            // batch of variable probes and serves it with one galloping
            // cursor, so a variable probe costs a seek, not a root descent.
            let per_probe_cost = if o.has_var {
                GALLOP_SEEK_COST + (o.probe_cost - PROBE_COST).max(0.0)
            } else {
                o.probe_cost
            };
            // A plan always processes at least one outer row; flooring keeps
            // later steps from looking free and preserves candidate-index
            // differentiation for the advisor.
            let nl = Node {
                cost: cur.cost + cur.card * per_probe_cost + penalty,
                card: (cur.card * o.per_probe).max(1.0),
                prev: mask,
                alias: a,
                choice: Choice::Nl,
            };
            consider(&mut best, next_mask, nl, &mut stats);
            // Option B: generic hash join on a value-equality edge.
            if let Some(h) = &o.hash {
                let hash = Node {
                    cost: cur.cost + h.build_cost + cur.card * ROW_COST,
                    card: (cur.card * h.per_probe).max(1.0),
                    prev: mask,
                    alias: a,
                    choice: Choice::Hash,
                };
                consider(&mut best, next_mask, hash, &mut stats);
            }
        }
    }

    // Reconstruct the winning left-deep chain from the parent pointers.
    let final_node = best[full as usize].expect("DP covers the full set");
    let mut chain: Vec<Node> = Vec::new();
    let mut node = final_node;
    loop {
        chain.push(node);
        if node.prev == 0 {
            break;
        }
        node = best[node.prev as usize].expect("prefix state exists");
    }
    chain.reverse();
    let driver = memo[&(chain[0].alias, 0u32)].access.clone();
    let steps: Vec<Step> = chain[1..]
        .iter()
        .map(|nd| {
            let o = &memo[&(nd.alias, nd.prev & rel_mask[nd.alias])];
            match nd.choice {
                Choice::Nl => Step::Nl(o.access.clone()),
                Choice::Hash => o.hash.as_ref().expect("hash option chosen").step.clone(),
            }
        })
        .collect();
    let mut phys = PhysPlan {
        n_aliases: n,
        driver,
        steps,
        select: cq.select.iter().map(|o| o.col).collect(),
        distinct: cq.distinct,
        order_by: cq.order_by.clone(),
        item_output: cq.item_output,
        est_cost: final_node.cost,
        est_rows: final_node.card,
    };
    mark_early_out(&mut phys);
    (phys, stats)
}

/// The key equalities the encoding adds to child steps: `a.pre = b.parent`
/// for every alias pair `(a, b)` whose atoms hold Fig. 3's child-axis form
/// `a.pre < b.pre ∧ b.pre ≤ a.pre + a.size ∧ a.level + 1 = b.level`.
///
/// The two are equivalent because the encoding keeps `parent` exact: it is
/// the node one level up whose subtree holds the row, and the encoder and
/// every edit maintain it (`jgi-mutate` checks it against a full reparse).
/// The SQL keeps the range form; the equality only lets a reversed child
/// step — `a` bound from a bound `b`, `⟨parent of b⟩` — probe `pre` once
/// instead of scanning every same-name node before `b.pre`. The derived
/// atoms live in the planner: they never reach `cq.predicates`.
pub fn parent_keys(atoms: &[CqAtom]) -> Vec<CqAtom> {
    child_pairs(atoms)
        .into_iter()
        .map(|(a, b)| CqAtom {
            lhs: CqScalar::Col(ColRef { alias: a, col: DocCol::Pre }),
            op: CmpOp::Eq,
            rhs: CqScalar::Col(ColRef { alias: b, col: DocCol::Parent }),
        })
        .collect()
}

/// The alias pairs `(parent, child)` whose atoms hold Fig. 3's child-axis
/// form (see [`parent_keys`], [`PairShape::is_child`]), each once, in the
/// order of their first strict `parent.pre < child.pre` atom.
fn child_pairs(atoms: &[CqAtom]) -> Vec<(usize, usize)> {
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    for p in atoms {
        let al = p.aliases();
        for (a, b) in al.iter().flat_map(|&x| al.iter().map(move |&y| (x, y))) {
            if a != b
                && !pairs.contains(&(a, b))
                && pair_shape(std::slice::from_ref(p), a, b).before.strict()
                && pair_shape(atoms, a, b).is_child()
            {
                pairs.push((a, b));
            }
        }
    }
    pairs
}

/// The comparison forms one order term of a [`PairShape`] was written in.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Forms(u8);

impl Forms {
    /// `x < y`, as written.
    const LT: u8 = 1;
    /// `x <= y`, as written.
    const LE: u8 = 2;
    /// `y > x`, the mirrored `<`.
    const GT: u8 = 4;
    /// `y >= x`, the mirrored `<=`.
    const GE: u8 = 8;

    /// Written `<` or `<=`: the term as the estimator and EXPLAIN read it.
    pub(crate) fn written(self) -> bool {
        self.0 & (Forms::LT | Forms::LE) != 0
    }

    /// Strict, in either orientation.
    fn strict(self) -> bool {
        self.0 & (Forms::LT | Forms::GT) != 0
    }

    /// Non-strict, in either orientation.
    fn closed(self) -> bool {
        self.0 & (Forms::LE | Forms::GE) != 0
    }
}

/// What the atoms between aliases `a` and `b` say about the two nodes in
/// Fig. 3's encoding terms: the one reader of an atom pair's axis shape.
/// The estimator, [`parent_keys`], [`lint_parent_probes`] and EXPLAIN's
/// continuation labels each read the part they need. They accept different
/// forms of the same term, so an order term (`x ⊲ y` below: `x < y`,
/// `x <= y`, `y > x` or `y >= x`) keeps the [`Forms`] it was written in,
/// and the level link is kept both as the estimator reads it (any
/// `level + 1`, no direction) and as the child form reads it (a direction).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct PairShape {
    /// `b.pre ⊲ a.pre`: `a` starts after `b`.
    pub after: Forms,
    /// `b.pre + b.size ⊲ a.pre`: `a` follows `b`'s subtree.
    pub after_end: Forms,
    /// `a.pre ⊲ b.pre + b.size`: `a` starts inside `b`'s subtree.
    pub inside: Forms,
    /// `a.pre ⊲ b.pre`: `b` starts after `a`.
    pub before: Forms,
    /// `a.pre + a.size ⊲ b.pre`: `b` follows `a`'s subtree.
    pub before_end: Forms,
    /// `b.pre ⊲ a.pre + a.size`: `b` starts inside `a`'s subtree.
    pub contains: Forms,
    /// An `=` atom with `x.level + 1` on one side, of either alias and
    /// whatever the other side is.
    pub level_link: bool,
    /// `b.level = a.level + 1`, written as `=` of the two level columns
    /// with any offsets.
    pub level_down: bool,
    /// `a.value = b.value`.
    pub value_eq: bool,
    /// An `=` atom with a bare `a.value` on one side.
    pub a_value_eq: bool,
    /// `a.parent = b.parent`.
    pub parent_eq: bool,
    /// Atoms that read as none of the written (`<`, `<=`) order terms,
    /// `level_link`, `value_eq` or `parent_eq`.
    pub other: u32,
}

impl PairShape {
    /// Fig. 3's child axis, `a.pre < b.pre ≤ a.pre + a.size ∧ a.level + 1 =
    /// b.level`, with the start strict, the end closed and either
    /// orientation accepted: `b` is a child of `a`.
    fn is_child(&self) -> bool {
        self.before.strict() && self.contains.closed() && self.level_down
    }
}

/// Read the atoms that mention both `a` and `b` (two distinct aliases) as
/// a [`PairShape`].
pub(crate) fn pair_shape(atoms: &[CqAtom], a: usize, b: usize) -> PairShape {
    debug_assert_ne!(a, b, "a pair of two aliases");
    // A term's place in the encoding: `x.pre` starts `x`, `x.pre + x.size`
    // ends it.
    let place = |s: &CqScalar| match s {
        CqScalar::Col(c) if c.col == DocCol::Pre => Some((c.alias, false)),
        CqScalar::ColPlusCol(u, v)
            if u.alias == v.alias && u.col == DocCol::Pre && v.col == DocCol::Size =>
        {
            Some((u.alias, true))
        }
        _ => None,
    };
    let level = |s: &CqScalar| match s {
        CqScalar::Col(c) if c.col == DocCol::Level => Some((c.alias, 0)),
        CqScalar::ColPlusInt(c, i) if c.col == DocCol::Level => Some((c.alias, *i)),
        _ => None,
    };
    let bare = |s: &CqScalar, x: usize, col: DocCol| {
        matches!(s, CqScalar::Col(c) if c.alias == x && c.col == col)
    };
    let mut shape = PairShape::default();
    for p in atoms {
        let al = p.aliases();
        if !al.contains(&a) || !al.contains(&b) {
            continue;
        }
        let read = match p.op {
            CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => {
                let (form, lo, hi) = match p.op {
                    CmpOp::Lt => (Forms::LT, &p.lhs, &p.rhs),
                    CmpOp::Le => (Forms::LE, &p.lhs, &p.rhs),
                    CmpOp::Gt => (Forms::GT, &p.rhs, &p.lhs),
                    _ => (Forms::GE, &p.rhs, &p.lhs),
                };
                // The atom mentions both aliases, so two places are one
                // of each.
                let term = match (place(lo), place(hi)) {
                    (Some((x, false)), Some((_, false))) => {
                        Some(if x == a { &mut shape.before } else { &mut shape.after })
                    }
                    (Some((x, true)), Some((_, false))) => {
                        Some(if x == a { &mut shape.before_end } else { &mut shape.after_end })
                    }
                    (Some((x, false)), Some((_, true))) => {
                        Some(if x == a { &mut shape.inside } else { &mut shape.contains })
                    }
                    _ => None,
                };
                match term {
                    Some(t) => {
                        t.0 |= form;
                        Forms(form).written()
                    }
                    None => false,
                }
            }
            CmpOp::Eq => {
                let plus_one = |s: &CqScalar| {
                    matches!(s, CqScalar::ColPlusInt(c, 1) if c.col == DocCol::Level)
                };
                let both = |col| {
                    (bare(&p.lhs, a, col) && bare(&p.rhs, b, col))
                        || (bare(&p.lhs, b, col) && bare(&p.rhs, a, col))
                };
                let link = plus_one(&p.lhs) || plus_one(&p.rhs);
                let (value_eq, parent_eq) = (both(DocCol::Value), both(DocCol::Parent));
                // `x.level + i = y.level + j`: `i - j = 1` puts `y` one
                // level below `x`.
                if let (Some((x, i)), Some((y, j))) = (level(&p.lhs), level(&p.rhs)) {
                    let below = match i - j {
                        1 => Some((x, y)),
                        -1 => Some((y, x)),
                        _ => None,
                    };
                    shape.level_down |= below == Some((a, b));
                }
                shape.level_link |= link;
                shape.value_eq |= value_eq;
                shape.parent_eq |= parent_eq;
                shape.a_value_eq |=
                    bare(&p.lhs, a, DocCol::Value) || bare(&p.rhs, a, DocCol::Value);
                link || value_eq || parent_eq
            }
            CmpOp::Ne => false,
        };
        if !read {
            shape.other += 1;
        }
    }
    shape
}

/// DP state: cost/cardinality plus a parent pointer into the subset table.
/// Deliberately `Copy` — extension must not clone partial plans.
#[derive(Clone, Copy)]
struct Node {
    cost: f64,
    card: f64,
    /// Predecessor subset mask; 0 marks a single-alias seed.
    prev: u32,
    /// Alias this state added on top of `prev`.
    alias: usize,
    /// Which join alternative won for that alias.
    choice: Choice,
}

/// Join alternative chosen by a [`Node`] (resolved against the memoized
/// [`StepOptions`] during reconstruction).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Choice {
    Nl,
    Hash,
}

/// Memoized planning work for one `(alias, bound-neighbor set)` pair: the
/// best NL access path plus the constructible hash alternative.
struct StepOptions {
    /// Cheapest access path (the NL option).
    access: Access,
    /// Estimated matches per outer row through `access`.
    per_probe: f64,
    /// Estimated cost per outer row through `access`.
    probe_cost: f64,
    /// Does `access` probe with bound-alias values (a galloping seek
    /// serves it)?
    has_var: bool,
    /// Generic string-keyed hash join, if a value-equality edge exists.
    hash: Option<HashOpt>,
}

/// Generic hash-join alternative (string-keyed, [`Step::Hash`]).
struct HashOpt {
    step: Step,
    build_cost: f64,
    per_probe: f64,
}

/// Cached independent build-side access: `(access, est rows, est cost)`.
type BuildSide = (Access, f64, f64);

/// Fetch (computing at most once per alias) the hash build side:
/// the best access for `alias` with *no* bound partners, local predicates
/// only.
fn build_side<'c>(
    cache: &'c mut [Option<BuildSide>],
    db: &Database,
    cq: &ConjunctiveQuery,
    alias: usize,
    locals: &[CqAtom],
    stats: &mut PlanStats,
) -> &'c BuildSide {
    if cache[alias].is_none() {
        cache[alias] = Some(best_access(db, cq, alias, locals, &[], &[], 0, stats));
    }
    cache[alias].as_ref().expect("just filled")
}

/// Compute the full option set for extending a plan with `alias` when the
/// bound set (projected to `alias`'s join-graph neighbors) is `mask`.
/// `keys` are the [`parent_keys`] among `joins`.
#[allow(clippy::too_many_arguments)]
fn compute_step_options(
    db: &Database,
    cq: &ConjunctiveQuery,
    alias: usize,
    locals: &[CqAtom],
    joins: &[CqAtom],
    keys: &[CqAtom],
    mask: u32,
    join: JoinStrategy,
    builds: &mut [Option<BuildSide>],
    stats: &mut PlanStats,
) -> StepOptions {
    let (access, per_probe, probe_cost) =
        best_access(db, cq, alias, locals, joins, keys, mask, stats);
    let has_var = access.method.probes().any(|p| !p.aliases().is_empty());
    // Under NL forcing the hash join is not merely penalized — it is not
    // even enumerated, so forced-NL planning stays the cheap baseline.
    let hash = if join == JoinStrategy::Nl {
        None
    } else {
        hash_option(db, cq, alias, locals, joins, mask, builds, stats)
            .map(|(step, build_cost, per_probe)| HashOpt { step, build_cost, per_probe })
    };
    StepOptions { access, per_probe, probe_cost, has_var, hash }
}

fn consider(best: &mut [Option<Node>], mask: u32, node: Node, stats: &mut PlanStats) {
    stats.states_considered += 1;
    let slot = &mut best[mask as usize];
    match slot {
        Some(s) if s.cost <= node.cost => stats.states_pruned += 1,
        _ => *slot = Some(node),
    }
}

/// Pick the best access path for `alias` given the bound alias set `mask`.
/// Returns `(access, est matches per probe, est cost per probe)`. The
/// `keys` among `joins` may drive a probe, but the estimate and the
/// residuals use the atoms they are derived from, which the access
/// enforces anyway.
#[allow(clippy::too_many_arguments)]
fn best_access(
    db: &Database,
    cq: &ConjunctiveQuery,
    alias: usize,
    locals: &[CqAtom],
    joins: &[CqAtom],
    keys: &[CqAtom],
    mask: u32,
    stats: &mut PlanStats,
) -> (Access, f64, f64) {
    let n_rows = db.stats.total.max(1) as f64;
    // Applicable atoms: local atoms + join atoms whose other aliases ⊆ mask.
    let mut applicable: Vec<CqAtom> = locals.to_vec();
    for p in joins {
        let al = p.aliases();
        if al.contains(&alias) && al.iter().all(|&x| x == alias || mask & (1 << x) != 0) {
            applicable.push(p.clone());
        }
    }
    // Sargable forms: (index column, op, probe, index of the source atom).
    let sargs: Vec<(IndexCol, CmpOp, CqScalar, usize)> = applicable
        .iter()
        .enumerate()
        .filter_map(|(i, p)| sargable(alias, p, mask).map(|(c, op, pr)| (c, op, pr, i)))
        .collect();

    let stated: Vec<CqAtom> = applicable.iter().filter(|p| !keys.contains(p)).cloned().collect();

    // Total selectivity of all applicable predicates (residuals re-check
    // probes harmlessly, so the estimate uses them all).
    let sel = combined_selectivity(db, cq, alias, &stated, mask);
    let est_result = (n_rows * sel).max(1e-3);

    // Candidate: table scan.
    let mut best_access = Access {
        alias,
        method: Method::TbScan,
        residual: stated,
        all_atoms: applicable.clone(),
        early_out: false,
        est_rows: est_result,
    };
    let mut best_cost = n_rows * ROW_COST;
    stats.access_paths_considered += 1; // the table scan

    // Candidate: each index, matched by key prefix.
    for (i, idx) in db.indexes.iter().enumerate() {
        let mut eq: Vec<CqScalar> = Vec::new();
        let mut range: Option<RangeProbe> = None;
        let mut used_sel = 1.0f64;
        let mut used_atoms: Vec<usize> = Vec::new();
        for &kc in &idx.key {
            // Exact-match probe available?
            if let Some((_, _, probe, ai)) =
                sargs.iter().find(|(c, op, _, _)| *c == kc && *op == CmpOp::Eq)
            {
                used_sel *= col_eq_selectivity(db, cq, alias, kc);
                eq.push(probe.clone());
                used_atoms.push(*ai);
                continue;
            }
            // Range bounds on this column?
            let lo = sargs
                .iter()
                .find(|(c, op, _, _)| *c == kc && matches!(op, CmpOp::Gt | CmpOp::Ge))
                .map(|(_, op, p, ai)| ((p.clone(), *op == CmpOp::Gt), *ai));
            let hi = sargs
                .iter()
                .find(|(c, op, _, _)| *c == kc && matches!(op, CmpOp::Lt | CmpOp::Le))
                .map(|(_, op, p, ai)| ((p.clone(), *op == CmpOp::Lt), *ai));
            if lo.is_some() || hi.is_some() {
                let closed = lo.is_some() && hi.is_some();
                used_sel *= range_selectivity(db, cq, alias, kc, &applicable, mask, closed);
                used_atoms.extend(lo.iter().map(|(_, ai)| *ai));
                used_atoms.extend(hi.iter().map(|(_, ai)| *ai));
                range = Some(RangeProbe {
                    lo: lo.map(|(b, _)| b),
                    hi: hi.map(|(b, _)| b),
                });
            }
            break; // key prefix ends at the first non-eq column
        }
        if eq.is_empty() && range.is_none() {
            continue; // index gives no sargable prefix
        }
        stats.access_paths_considered += 1;
        // Probes enforce their atoms exactly — drop them from the residual.
        let residual: Vec<CqAtom> = applicable
            .iter()
            .enumerate()
            .filter(|&(k, p)| !used_atoms.contains(&k) && !keys.contains(p))
            .map(|(_, p)| p.clone())
            .collect();
        let scanned = (n_rows * used_sel).max(1.0);
        let cost = PROBE_COST + scanned * ROW_COST;
        // Of two scans at the same cost (both at the one-row floor, say),
        // keep the one that leaves fewer atoms to check per row.
        if cost < best_cost
            || (cost == best_cost && residual.len() < best_access.residual.len())
        {
            best_cost = cost;
            best_access = Access {
                alias,
                method: Method::IxScan { index: i, eq, range },
                residual,
                all_atoms: applicable.clone(),
                early_out: false,
                est_rows: est_result,
            };
        }
    }
    (best_access, est_result, best_cost)
}

/// Hash-join option for `alias`: usable when a value-equality edge connects
/// it to the bound set. Returns `(step, build cost, matches per probe)`.
#[allow(clippy::too_many_arguments)]
fn hash_option(
    db: &Database,
    cq: &ConjunctiveQuery,
    alias: usize,
    locals: &[CqAtom],
    joins: &[CqAtom],
    mask: u32,
    builds: &mut [Option<BuildSide>],
    stats: &mut PlanStats,
) -> Option<(Step, f64, f64)> {
    // Find equality atoms `alias.col = bound-expr` suitable as hash keys.
    let mut build_key: Vec<DocCol> = Vec::new();
    let mut probe_key: Vec<CqScalar> = Vec::new();
    let mut residual: Vec<CqAtom> = Vec::new();
    for p in joins {
        let al = p.aliases();
        if !al.contains(&alias) || !al.iter().all(|&x| x == alias || mask & (1 << x) != 0) {
            continue;
        }
        if p.op != CmpOp::Eq {
            residual.push(p.clone());
            continue;
        }
        // Orient: alias side must be a bare column.
        let (mine, other) = match (&p.lhs, &p.rhs) {
            (CqScalar::Col(c), o) if c.alias == alias => (Some(c.col), o),
            (o, CqScalar::Col(c)) if c.alias == alias => (Some(c.col), o),
            _ => (None, &p.lhs),
        };
        match mine {
            Some(col) if bound(other, mask) => {
                build_key.push(col);
                probe_key.push(other.clone());
            }
            _ => residual.push(p.clone()),
        }
    }
    if build_key.is_empty() {
        return None;
    }
    stats.hash_options_considered += 1;
    // Build side: best *independent* access (local predicates only).
    let (mut access, build_rows, build_cost) =
        build_side(builds, db, cq, alias, locals, stats).clone();
    access.residual.extend(residual);
    // Matches per probe ≈ build_rows / ndv(value).
    let ndv = db.stats.value_distinct.max(1) as f64;
    let per_probe = (build_rows / ndv).max(1e-6);
    Some((
        Step::Hash { access, build_key, probe_key },
        build_cost + build_rows * ROW_COST,
        per_probe,
    ))
}

/// Can this atom drive an index probe for `alias` given `mask`?
/// Normalizes to `(alias column, op, probe over the bound side)`.
fn sargable(alias: usize, p: &CqAtom, mask: u32) -> Option<(IndexCol, CmpOp, CqScalar)> {
    let this_side = |s: &CqScalar| -> Option<IndexCol> {
        match s {
            CqScalar::Col(c) if c.alias == alias => Some(IndexCol::Col(c.col)),
            CqScalar::ColPlusCol(a, b)
                if a.alias == alias
                    && b.alias == alias
                    && a.col == DocCol::Pre
                    && b.col == DocCol::Size =>
            {
                Some(IndexCol::PreSize)
            }
            _ => None,
        }
    };
    // alias-col op bound-side
    if let Some(c) = this_side(&p.lhs) {
        if bound(&p.rhs, mask) {
            return Some((c, p.op, p.rhs.clone()));
        }
    }
    if let Some(c) = this_side(&p.rhs) {
        if bound(&p.lhs, mask) {
            return Some((c, p.op.flipped(), p.lhs.clone()));
        }
    }
    // `alias.level + 1 = bound` ⇒ level = bound - 1.
    for (mine, other) in [(&p.lhs, &p.rhs), (&p.rhs, &p.lhs)] {
        if let CqScalar::ColPlusInt(c, i) = mine {
            if c.alias == alias && bound(other, mask) && p.op == CmpOp::Eq {
                return Some((IndexCol::Col(c.col), CmpOp::Eq, shift_probe(other.clone(), -i)?));
            }
        }
    }
    None
}

/// Does the scalar read only constants and aliases of the bound set `mask`,
/// so that a probe can compute it?
fn bound(s: &CqScalar, mask: u32) -> bool {
    s.aliases().iter().all(|&x| mask & (1 << x) != 0)
}

fn shift_probe(p: CqScalar, delta: i64) -> Option<CqScalar> {
    Some(match p {
        CqScalar::Const(Value::Int(i)) => CqScalar::Const(Value::Int(i + delta)),
        CqScalar::Col(c) => CqScalar::ColPlusInt(c, delta),
        CqScalar::ColPlusInt(c, i) => CqScalar::ColPlusInt(c, i + delta),
        _ => return None,
    })
}

/// The node test of `alias`: the name and kind constants its `=` atoms
/// among `atoms` pin (`alias.name = 'n'`, `alias.kind = K`, the last one
/// of each winning). The estimator reads it off the query, EXPLAIN off an
/// access.
pub(crate) fn node_test(atoms: &[CqAtom], alias: usize) -> (Option<&str>, Option<NodeKind>) {
    let mut name = None;
    let mut kind = None;
    for p in atoms.iter().filter(|p| p.op == CmpOp::Eq) {
        if let (CqScalar::Col(c), CqScalar::Const(v)) = (&p.lhs, &p.rhs) {
            if c.alias == alias {
                match (c.col, v) {
                    (DocCol::Name, Value::Str(s)) => name = Some(s.as_str()),
                    (DocCol::Kind, Value::Kind(k)) => kind = Some(*k),
                    _ => {}
                }
            }
        }
    }
    (name, kind)
}

/// Estimated count of rows matching an alias's name/kind tests.
fn alias_count(db: &Database, cq: &ConjunctiveQuery, alias: usize) -> f64 {
    match node_test(&cq.predicates, alias) {
        (Some(n), Some(k)) => db.stats.name_count(n, k) as f64,
        (Some(n), None) => db
            .stats
            .name_stats
            .iter()
            .filter(|((nm, _), _)| *nm == n)
            .map(|(_, s)| s.count)
            .sum::<u64>() as f64,
        (None, Some(k)) => *db.stats.kind_counts.get(&k).unwrap_or(&0) as f64,
        (None, None) => db.stats.total as f64,
    }
    .max(1.0)
}

/// Average subtree size of the alias's nodes.
fn alias_avg_size(db: &Database, cq: &ConjunctiveQuery, alias: usize) -> f64 {
    match node_test(&cq.predicates, alias) {
        (Some(n), Some(k)) => db.stats.name_avg_size(n, k),
        _ => db.stats.avg_size,
    }
    .max(1.0)
}

/// Combined selectivity of all applicable atoms for `alias` at this point.
/// Atom *pairs* forming an axis range are recognized and estimated with the
/// structural model; everything else uses per-atom statistics.
fn combined_selectivity(
    db: &Database,
    cq: &ConjunctiveQuery,
    alias: usize,
    atoms: &[CqAtom],
    mask: u32,
) -> f64 {
    let n = db.stats.total.max(1) as f64;
    let mut sel = 1.0f64;
    // Group join atoms by partner alias.
    let mut partners: Vec<usize> = Vec::new();
    for p in atoms {
        for x in p.aliases() {
            if x != alias && mask & (1 << x) != 0 && !partners.contains(&x) {
                partners.push(x);
            }
        }
    }
    for &b in &partners {
        sel *= structural_pair_selectivity(db, cq, alias, b, &pair_shape(atoms, alias, b), n);
    }
    // Local predicates.
    for p in atoms.iter().filter(|p| p.is_local() && p.aliases() == vec![alias]) {
        sel *= local_atom_selectivity(db, p);
    }
    sel.clamp(1e-12, 1.0)
}

/// Selectivity of one local atom.
fn local_atom_selectivity(db: &Database, p: &CqAtom) -> f64 {
    match (&p.lhs, &p.rhs) {
        (CqScalar::Col(c), CqScalar::Const(v)) => db.stats.local_sel(c.col, p.op, v),
        (CqScalar::Const(v), CqScalar::Col(c)) => db.stats.local_sel(c.col, p.op.flipped(), v),
        _ => 0.5,
    }
}

/// Selectivity of the atom *set* connecting `alias` to bound alias `b`,
/// read as its [`PairShape`]: the containment model P(a inside b) ≈
/// avg_size(b) / N, with the dual for reverse axes and a level factor for
/// child/parent. Order terms count as written with `<`/`<=`, a
/// following/preceding end form as the start it bounds, and the level link
/// without its direction.
fn structural_pair_selectivity(
    db: &Database,
    cq: &ConjunctiveQuery,
    alias: usize,
    b: usize,
    shape: &PairShape,
    n: f64,
) -> f64 {
    let a_low = shape.after.written() || shape.after_end.written();
    let a_in_b = shape.inside.written();
    let b_low = shape.before.written() || shape.before_end.written();
    let b_in_a = shape.contains.written();
    let PairShape { level_link, value_eq, parent_eq, other, .. } = *shape;
    let mut sel = 1.0;
    if a_low && a_in_b {
        // a inside b's subtree (descendant-direction edge).
        sel *= (alias_avg_size(db, cq, b) / n).min(1.0);
        if level_link {
            sel *= 0.6; // child refinement
        }
    } else if b_low && b_in_a {
        // b inside a's subtree: a is an ancestor-side alias.
        sel *= (alias_avg_size(db, cq, alias) / n).min(1.0);
        if level_link {
            sel *= 0.6;
        }
    } else {
        if a_low || b_low || a_in_b || b_in_a {
            sel *= 0.5; // following/preceding style half-plane
        }
        if level_link {
            sel *= 1.0 / db.stats.max_level.max(1) as f64;
        }
    }
    if parent_eq {
        sel *= (db.stats.avg_children / n).min(1.0);
    }
    if value_eq {
        sel *= 1.0 / db.stats.value_distinct.max(1) as f64;
    }
    sel * 0.5f64.powi(other as i32)
}

/// Selectivity used for the key prefix consumed by equality probes.
fn col_eq_selectivity(db: &Database, cq: &ConjunctiveQuery, alias: usize, col: IndexCol) -> f64 {
    let n = db.stats.total.max(1) as f64;
    match col {
        IndexCol::Col(DocCol::Name) | IndexCol::Col(DocCol::Kind) => {
            // Use the exact (name, kind) count when both are pinned.
            let count = alias_count(db, cq, alias);
            // Attribute both columns' selectivity jointly to the first one
            // consumed; the second contributes nothing more.
            let has_name = node_test(&cq.predicates, alias).0.is_some();
            if has_name && matches!(col, IndexCol::Col(DocCol::Kind)) {
                1.0 // already folded into the name column's estimate
            } else {
                (count / n).min(1.0)
            }
        }
        IndexCol::Col(DocCol::Value) => 1.0 / db.stats.value_distinct.max(1) as f64,
        IndexCol::Col(DocCol::Data) => db.stats.data_hist.eq_sel().max(1e-9),
        IndexCol::Col(DocCol::Level) => 1.0 / db.stats.max_level.max(1) as f64,
        IndexCol::Col(DocCol::Parent) => (db.stats.avg_children / n).min(1.0),
        IndexCol::Col(DocCol::Pre) | IndexCol::PreSize | IndexCol::Col(DocCol::Size) => 1.0 / n,
    }
}

/// Selectivity of a range on an index key column; containment ranges use
/// the structural model, value/data ranges use the histograms. `closed`
/// says whether the range has both bounds.
fn range_selectivity(
    db: &Database,
    cq: &ConjunctiveQuery,
    alias: usize,
    col: IndexCol,
    atoms: &[CqAtom],
    mask: u32,
    closed: bool,
) -> f64 {
    let n = db.stats.total.max(1) as f64;
    match col {
        // One bound of a containment range (`pre < b.pre`, `pre + size ≥
        // b.pre`) leaves the scan open to one end of the document, however
        // small the partner's subtree.
        IndexCol::Col(DocCol::Pre) | IndexCol::PreSize if !closed => 0.5,
        IndexCol::Col(DocCol::Pre) | IndexCol::PreSize => {
            // Containment range driven by a bound partner: the partner's
            // average subtree size over N.
            let partner = atoms
                .iter()
                .flat_map(|p| p.aliases())
                .find(|&x| x != alias && mask & (1 << x) != 0);
            match partner {
                Some(b) => (alias_avg_size(db, cq, b).max(alias_avg_size(db, cq, alias)) / n)
                    .min(1.0),
                None => 0.5,
            }
        }
        IndexCol::Col(DocCol::Data) => {
            // Find the constant bound among the atoms.
            for p in atoms {
                if let (CqScalar::Col(c), CqScalar::Const(v)) = (&p.lhs, &p.rhs) {
                    if c.alias == alias && c.col == DocCol::Data {
                        return db.stats.local_sel(DocCol::Data, p.op, v).max(1e-9);
                    }
                }
            }
            0.3
        }
        IndexCol::Col(DocCol::Value) => 0.3,
        _ => 0.5,
    }
}

/// Flag early-out semijoins: an alias whose binding is never used later
/// (not in SELECT/ORDER BY, not referenced by residuals of later steps)
/// only needs an existence check (paper Fig. 10's `n` flag).
fn mark_early_out(plan: &mut PhysPlan) {
    let mut needed: Vec<bool> = vec![false; plan.n_aliases];
    for o in &plan.select {
        needed[o.alias] = true;
    }
    for o in &plan.order_by {
        needed[o.alias] = true;
    }
    for i in (0..plan.steps.len()).rev() {
        let alias = plan.steps[i].access().alias;
        let used_later = plan.steps[i + 1..].iter().any(|s| {
            let in_residual = s.access().residual.iter().any(|p| p.aliases().contains(&alias));
            in_residual || s.probes().any(|p| p.aliases().contains(&alias))
        });
        if !needed[alias] && !used_later {
            match &mut plan.steps[i] {
                Step::Nl(a) => a.early_out = true,
                Step::Hash { access, .. } => access.early_out = true,
            }
        }
    }
}

/// Plan lint: flag a value-join core that executes as NLJOIN when the
/// options-aware DP estimates a hash alternative materially cheaper
/// (beyond a 5% noise margin). Returns human-readable findings, empty when
/// clean; wired into the `lint-plans` bin.
pub fn lint_join_strategies(db: &Database, cq: &ConjunctiveQuery, plan: &PhysPlan) -> Vec<String> {
    // Aliases wearing a bare Value = Value join edge — the cores the new
    // strategies exist for.
    let mut value_aliases: Vec<usize> = Vec::new();
    for p in cq.predicates.iter().filter(|p| !p.is_local() && p.op == CmpOp::Eq) {
        if let (CqScalar::Col(a), CqScalar::Col(b)) = (&p.lhs, &p.rhs) {
            if a.col == DocCol::Value && b.col == DocCol::Value && a.alias != b.alias {
                for al in [a.alias, b.alias] {
                    if !value_aliases.contains(&al) {
                        value_aliases.push(al);
                    }
                }
            }
        }
    }
    let nl_on_value: Vec<usize> = plan
        .steps
        .iter()
        .filter_map(|s| match s {
            Step::Nl(a) if value_aliases.contains(&a.alias) => Some(a.alias),
            _ => None,
        })
        .collect();
    if nl_on_value.is_empty() {
        return Vec::new();
    }
    let auto = plan_opts(db, cq, &PlanOptions::default());
    let (cur_cost, auto_cost) = (plan.est_cost, auto.est_cost);
    if auto_cost * 1.05 >= cur_cost {
        return Vec::new();
    }
    nl_on_value
        .iter()
        .filter_map(|&alias| {
            let picked = auto
                .steps
                .iter()
                .find(|s| s.access().alias == alias)
                .map(|s| s.strategy())?;
            if picked == "nl" {
                return None;
            }
            Some(format!(
                "alias {alias}: value-join core runs as NLJOIN (plan est {cur_cost:.1}) \
                 but auto strategy selection picks {picked} (est {auto_cost:.1})"
            ))
        })
        .collect()
}

/// Plan lint: flag an access that binds the parent of an already-bound
/// alias (EXPLAIN's `⟨parent of dN⟩`) without an equality probe on `pre` —
/// the one-sided containment scan over every same-name node before the
/// child that [`parent_keys`] exists to replace. Returns human-readable
/// findings, empty when clean; wired into the `lint-plans` bin.
pub fn lint_parent_probes(db: &Database, cq: &ConjunctiveQuery, plan: &PhysPlan) -> Vec<String> {
    let pairs = child_pairs(&cq.predicates);
    let mut bound = vec![plan.driver.alias];
    let mut findings = Vec::new();
    for step in &plan.steps {
        let a = step.access();
        let probes_pre = match step {
            Step::Nl(acc) => match &acc.method {
                Method::IxScan { index, eq, .. } => {
                    db.indexes[*index].key[..eq.len()].contains(&IndexCol::Col(DocCol::Pre))
                }
                Method::TbScan => false,
            },
            Step::Hash { build_key, .. } => build_key.contains(&DocCol::Pre),
        };
        if !probes_pre {
            for &(_, child) in pairs.iter().filter(|&&(p, c)| p == a.alias && bound.contains(&c)) {
                findings.push(format!(
                    "alias {}: binds the parent of bound alias {child} without an equality \
                     probe on pre: {}",
                    a.alias,
                    crate::explain::describe_access(db, a)
                ));
            }
        }
        bound.push(a.alias);
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::physical::{Method, Step};
    use jgi_compiler::compile;
    use jgi_rewrite::{extract_cq, isolate};
    use jgi_xml::generate::{generate_xmark, XmarkConfig};
    use jgi_xml::DocStore;
    use jgi_xquery::compile_to_core;

    fn db(scale: f64) -> Database {
        let t = generate_xmark(XmarkConfig { scale, seed: 11 });
        let mut store = DocStore::new();
        store.add_tree(&t);
        Database::with_default_indexes(store)
    }

    fn cq_of(q: &str) -> ConjunctiveQuery {
        let core = compile_to_core(q).unwrap();
        let c = compile(&core).unwrap();
        let mut plan = c.plan;
        let (root, _) = isolate(&mut plan, c.root);
        extract_cq(&plan, root).unwrap()
    }

    /// Which alias drives the plan?
    fn driver_alias(p: &crate::physical::PhysPlan) -> usize {
        p.driver.alias
    }

    /// The name test of an alias in the query.
    fn name_of(cq: &ConjunctiveQuery, alias: usize) -> Option<String> {
        node_test(&cq.predicates, alias).0.map(str::to_string)
    }

    /// §4.1 step reordering: for Q2, evaluation must *not* start at the
    /// document node — a selective access (the typed-value price predicate
    /// or a value-indexed attribute) drives.
    #[test]
    fn q2_starts_mid_path() {
        let db = db(0.005);
        let cq = cq_of(
            r#"let $a := doc("auction.xml")
               for $ca in $a//closed_auction[price > 500],
                   $i in $a//item,
                   $c in $a//category
               where $ca/itemref/@item = $i/@id
                 and $i/incategory/@category = $c/@id
               return $c/name"#,
        );
        let plan = plan(&db, &cq);
        let first = name_of(&cq, driver_alias(&plan));
        assert_ne!(first.as_deref(), Some("auction.xml"), "must not start at doc(·)");
        // Every alias is accessed through an index (never a full scan).
        let all_ix = std::iter::once(&plan.driver)
            .chain(plan.steps.iter().map(|s| s.access()))
            .all(|a| matches!(a.method, Method::IxScan { .. }));
        assert!(all_ix, "Table 6 indexes cover the whole plan");
    }

    /// §4.1 axis reversal: starting from `price`, the `closed_auction`
    /// ancestor is resolved *afterwards* — i.e. in the chosen order the
    /// parent comes after the child for at least one containment edge.
    #[test]
    fn q1_semijoin_is_early_out() {
        let db = db(0.005);
        let cq = cq_of(r#"doc("auction.xml")/descendant::open_auction[bidder]"#);
        let plan = plan(&db, &cq);
        // The bidder existence test must be flagged early-out (Fig. 10's n).
        let bidder_alias = (0..cq.aliases)
            .find(|&a| name_of(&cq, a).as_deref() == Some("bidder"))
            .unwrap();
        let flagged = plan
            .steps
            .iter()
            .any(|s| s.access().alias == bidder_alias && s.access().early_out);
        let bidder_is_driver = plan.driver.alias == bidder_alias;
        assert!(
            flagged || bidder_is_driver,
            "bidder must be an early-out semijoin (or the driver)"
        );
    }

    /// Selective value predicates pick value-bearing indexes (vnlkp/nkdlp),
    /// and the point query is answered with a handful of probes.
    #[test]
    fn point_query_uses_value_index() {
        let db = db(0.005);
        let cq = cq_of(r#"doc("auction.xml")/descendant::person[@id = "person0"]"#);
        let plan = plan(&db, &cq);
        let uses_value_index = std::iter::once(&plan.driver)
            .chain(plan.steps.iter().map(|s| s.access()))
            .any(|a| match &a.method {
                Method::IxScan { index, .. } => {
                    db.indexes[*index].name.contains('v')
                }
                _ => false,
            });
        assert!(uses_value_index, "@id = 'person0' should ride a value-keyed index");
        let (result, stats) = crate::physical::execute_with_stats(&db, &plan);
        assert_eq!(result.len(), 1);
        let touched: u64 = stats.rows_scanned.iter().sum();
        assert!(touched < 50, "point query touched {touched} rows");
    }

    /// Value joins may select HSJOIN — and when they do, results agree with
    /// a forced all-NL plan.
    #[test]
    fn hash_join_option_is_sound() {
        let db = db(0.005);
        let cq = cq_of(
            r#"for $i in doc("auction.xml")//itemref, $x in doc("auction.xml")//item
               where $i/@item = $x/@id return $x"#,
        );
        let plan_full = plan(&db, &cq);
        let result = crate::physical::execute(&db, &plan_full);
        assert!(!result.is_empty());
        // Count hash steps (informational — the cost model may or may not
        // pick them at this scale; soundness is what we assert).
        let _hashes =
            plan_full.steps.iter().filter(|s| matches!(s, Step::Hash { .. })).count();
    }

    /// Every forcing knob yields byte-identical results, and the forced
    /// plans do the join work of the forced kind.
    #[test]
    fn forced_strategies_agree() {
        let db = db(0.005);
        let cq = cq_of(
            r#"for $i in doc("auction.xml")//itemref, $x in doc("auction.xml")//item
               where $i/@item = $x/@id return $x"#,
        );
        let forced = |join| plan_opts(&db, &cq, &PlanOptions { join, ..PlanOptions::default() });
        let baseline = crate::physical::execute(&db, &forced(JoinStrategy::Nl));
        assert!(!baseline.is_empty());
        for join in JoinStrategy::ALL {
            let out = crate::physical::execute(&db, &forced(join));
            assert_eq!(out, baseline, "{join} diverged");
        }
        let hashed = forced(JoinStrategy::Hash);
        assert!(
            hashed.steps.iter().any(|s| matches!(s, Step::Hash { .. })),
            "hash forcing must produce a hash step"
        );
        let (_, st) = crate::physical::execute_with_stats(&db, &hashed);
        assert!(st.join_build_rows > 0, "hash forcing built no table");
        // A forced-NL plan on the batch pipeline serves its variable probes
        // by galloping, one seek per probe.
        let nl = forced(JoinStrategy::Nl);
        let (_, st) = crate::physical::execute_with_stats(&db, &nl);
        assert_eq!(st.join_build_rows, 0, "NL forcing built a hash table");
        assert!(st.join_probe_batches > 0, "no sorted probe batch ran");
        let probes: u64 = st.per_op[1..].iter().map(|o| o.index_probes).sum();
        assert!(st.join_seeks > 0 && st.join_seeks <= probes, "{} seeks", st.join_seeks);
    }

    /// The Q2-style value-join core must not run as per-probe root
    /// descents under auto: the plan either builds a hash table or serves
    /// its sorted probe batches by galloping.
    #[test]
    fn auto_picks_non_nl_for_value_join() {
        let db = db(0.005);
        let cq = cq_of(
            r#"for $i in doc("auction.xml")//itemref, $x in doc("auction.xml")//item
               where $i/@item = $x/@id return $x"#,
        );
        let p = plan(&db, &cq);
        let (_, st) = crate::physical::execute_with_stats(&db, &p);
        assert!(
            st.join_build_rows > 0 || st.join_seeks > 0,
            "auto ran the value join as per-probe descents: {p:?}"
        );
    }

    /// The strategy lint fires on a plan that runs a value-join core as
    /// NLJOIN where auto hashes it at materially lower cost, and stays
    /// quiet on the auto plans themselves.
    #[test]
    fn lint_flags_forced_nl_value_join() {
        let db = db(0.02);
        let cq = cq_of(
            r#"for $i in doc("auction.xml")//itemref, $x in doc("auction.xml")//item
               where $i/@item = $x/@id return $x"#,
        );
        let auto = plan(&db, &cq);
        assert!(lint_join_strategies(&db, &cq, &auto).is_empty(), "lint flagged the auto plan");
        // At this scale auto hashes the `@item` side; the same chain with
        // its hash steps run as NLJOIN, at the forced-NL plan's cost, must
        // lint.
        assert!(auto.steps.iter().any(|s| matches!(s, Step::Hash { .. })), "{auto:?}");
        let nl_opts = PlanOptions { join: JoinStrategy::Nl, ..PlanOptions::default() };
        let nl = plan_opts(&db, &cq, &nl_opts);
        let mut unhashed = auto.clone();
        for s in &mut unhashed.steps {
            if let Step::Hash { access, .. } = s {
                *s = Step::Nl(access.clone());
            }
        }
        unhashed.est_cost = nl.est_cost;
        assert!(
            !lint_join_strategies(&db, &cq, &unhashed).is_empty(),
            "lint must flag the value-join core run as NLJOIN"
        );
    }

    /// The DP must never produce a Cartesian product when the graph is
    /// connected.
    #[test]
    fn connected_queries_have_no_cross_products() {
        let db = db(0.003);
        for q in [
            r#"doc("auction.xml")/descendant::open_auction[bidder]"#,
            r#"doc("auction.xml")/descendant::closed_auction/child::price"#,
        ] {
            let cq = cq_of(q);
            let plan = plan(&db, &cq);
            // Every step's access must reference at least one bound alias
            // (via residual or probes) — i.e. be connected.
            for (i, s) in plan.steps.iter().enumerate() {
                let a = s.access();
                let connected = !a.residual.is_empty()
                    || match &a.method {
                        Method::IxScan { eq, range, .. } => {
                            !eq.is_empty() || range.is_some()
                        }
                        Method::TbScan => false,
                    };
                assert!(connected, "step {i} of {q} is a cross product");
            }
        }
    }

    fn col(alias: usize, col: DocCol) -> CqScalar {
        CqScalar::Col(ColRef { alias, col })
    }

    fn atom(lhs: CqScalar, op: CmpOp, rhs: CqScalar) -> CqAtom {
        CqAtom { lhs, op, rhs }
    }

    /// Fig. 3's `a.pre < b.pre ≤ a.pre + a.size` between aliases 0 and 1.
    fn containment() -> Vec<CqAtom> {
        let end = CqScalar::ColPlusCol(
            ColRef { alias: 0, col: DocCol::Pre },
            ColRef { alias: 0, col: DocCol::Size },
        );
        vec![
            atom(col(0, DocCol::Pre), CmpOp::Lt, col(1, DocCol::Pre)),
            atom(col(1, DocCol::Pre), CmpOp::Le, end),
        ]
    }

    fn level_link(offset: i64) -> CqAtom {
        let level = ColRef { alias: 0, col: DocCol::Level };
        atom(CqScalar::ColPlusInt(level, offset), CmpOp::Eq, col(1, DocCol::Level))
    }

    /// The child-axis form yields exactly `a.pre = b.parent`, in either
    /// orientation of its atoms, once however often they repeat.
    #[test]
    fn child_form_derives_one_parent_key() {
        let key = atom(col(0, DocCol::Pre), CmpOp::Eq, col(1, DocCol::Parent));
        let mut child = containment();
        child.push(level_link(1));
        assert_eq!(parent_keys(&child), vec![key.clone()]);

        let flipped: Vec<CqAtom> = child
            .iter()
            .map(|p| atom(p.rhs.clone(), p.op.flipped(), p.lhs.clone()))
            .collect();
        assert_eq!(parent_keys(&flipped), vec![key.clone()]);

        let mut twice = child.clone();
        twice.extend(child);
        assert_eq!(parent_keys(&twice), vec![key]);
    }

    /// Descendant (no level atom), `level + 2` and sibling forms are not
    /// the child axis and derive nothing.
    #[test]
    fn other_axes_derive_no_parent_key() {
        assert!(parent_keys(&containment()).is_empty(), "descendant");
        let mut grandchild = containment();
        grandchild.push(level_link(2));
        assert!(parent_keys(&grandchild).is_empty(), "level + 2");
        let sibling = vec![
            atom(col(0, DocCol::Parent), CmpOp::Eq, col(1, DocCol::Parent)),
            atom(col(0, DocCol::Pre), CmpOp::Lt, col(1, DocCol::Pre)),
            atom(
                col(0, DocCol::Kind),
                CmpOp::Ne,
                CqScalar::Const(Value::Kind(NodeKind::Attr)),
            ),
        ];
        assert!(parent_keys(&sibling).is_empty(), "sibling");
    }

    /// Planning a path of child steps uses the derived keys without adding
    /// them to the query: its predicates never mention `parent`.
    #[test]
    fn parent_keys_stay_in_the_planner() {
        let db = db(0.005);
        let cq = cq_of(r#"doc("auction.xml")/site/open_auctions/open_auction/bidder"#);
        assert_eq!(parent_keys(&cq.predicates).len(), 4);
        let before = cq.predicates.clone();
        let _ = plan(&db, &cq);
        assert_eq!(cq.predicates, before);
        let parent = |s: &CqScalar| matches!(s, CqScalar::Col(c) if c.col == DocCol::Parent);
        assert!(!cq.predicates.iter().any(|p| parent(&p.lhs) || parent(&p.rhs)));
    }

    /// The parent-probe lint fires on a reversed child step that scans a
    /// containment range, and is quiet on the planner's own plan.
    #[test]
    fn lint_flags_parent_access_without_pre_probe() {
        let db = db(0.005);
        let cq = cq_of(r#"doc("auction.xml")//open_auction[bidder/increase > 20]"#);
        let auto = plan(&db, &cq);
        assert!(lint_parent_probes(&db, &cq, &auto).is_empty(), "{auto:?}");
        // Rebind every parent access to a bare `nksp` scan, which binds no
        // `pre`.
        let nksp = db.indexes.iter().position(|i| i.name == "nksp").unwrap();
        let mut scans = auto.clone();
        let mut bound = vec![scans.driver.alias];
        let pairs = child_pairs(&cq.predicates);
        let mut rebound = 0;
        for step in &mut scans.steps {
            let a = match step {
                Step::Nl(a) => a,
                Step::Hash { access, .. } => access,
            };
            if pairs.iter().any(|&(p, c)| p == a.alias && bound.contains(&c)) {
                a.method = Method::IxScan { index: nksp, eq: Vec::new(), range: None };
                rebound += 1;
            }
            bound.push(a.alias);
        }
        assert!(rebound > 0, "no reversed child step in {auto:?}");
        assert_eq!(lint_parent_probes(&db, &cq, &scans).len(), rebound);
    }

    /// Cost estimates are monotone in instance size (sanity of the model).
    #[test]
    fn costs_grow_with_instance_size()
    {
        let small = db(0.002);
        let large = db(0.008);
        let cq = cq_of(r#"doc("auction.xml")/descendant::open_auction/child::bidder"#);
        let c_small = plan(&small, &cq).est_cost;
        let c_large = plan(&large, &cq).est_cost;
        assert!(c_large >= c_small, "{c_small} vs {c_large}");
    }

}
