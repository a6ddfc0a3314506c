//! End-to-end checks for the observability layer: the per-phase
//! [`QueryReport`], the counters it maps the layers' stats to, the serve
//! registry those counters are folded into, and EXPLAIN ANALYZE.

use jgi_core::queries::{paper_corpus, Q1, Q2};
use jgi_core::{rewrite_counters, Engine, Session, PHASES};
use jgi_xml::generate::{generate_dblp, generate_xmark, DblpConfig, XmarkConfig};
use std::collections::BTreeMap;
use std::time::Duration;

fn xmark_session() -> Session {
    let mut s = Session::new();
    s.add_tree(generate_xmark(XmarkConfig { scale: 0.002, seed: 5 }));
    s
}

/// Q1 on the join-graph back-end produces a report carrying all seven
/// pipeline phases with non-zero wall-clock timings.
#[test]
fn q1_report_covers_all_phases() {
    let mut s = xmark_session();
    let prepared = s.prepare(Q1, None).unwrap();
    let outcome = s.execute(&prepared, Engine::JoinGraph).unwrap();
    let result = outcome.nodes.expect("Q1 finishes");

    let report = s.report().expect("execute records a report");
    for name in PHASES {
        let d = report
            .phase(name)
            .unwrap_or_else(|| panic!("phase {name:?} missing from report"));
        assert!(d > Duration::ZERO, "phase {name:?} has zero duration");
    }
    assert_eq!(report.engine, Some("join graph"));
    assert_eq!(report.rows, Some(result.len()));
    // The same report rides on the outcome itself.
    assert_eq!(outcome.report.rows, Some(result.len()));

    // Optimizer and executor actuals are attached on this back-end.
    let opt = report.optimizer.as_ref().expect("plan stats recorded");
    assert!(opt.states_considered > 0);
    assert!(opt.access_paths_considered > 0);
    let exec = report.exec.as_ref().expect("exec stats recorded");
    assert!(!exec.per_op.is_empty());
    assert_eq!(exec.sort_rows - exec.dedup_removed, result.len() as u64);
}

/// The rewrite counters mapped from Q2's compile agree exactly with the
/// rewrite driver's own `IsolateStats` bookkeeping: one per rule that
/// fired, and the four `rewrite.*` totals.
#[test]
fn q2_rule_fires_match_isolate_stats() {
    let s = xmark_session();
    let prepared = s.prepare(Q2, None).unwrap();
    let stats = &prepared.report.rewrite;
    assert!(!stats.applied.is_empty(), "Q2 must trigger rewrites");
    let counters: BTreeMap<&str, u64> = rewrite_counters(stats).collect();
    assert_eq!(counters.len(), stats.applied.len() + 4, "{counters:?}");
    for (rule, n) in &stats.applied {
        assert_eq!(counters[rule], *n as u64, "fire count for rule {rule} diverges");
    }
    assert_eq!(counters["rewrite.steps"], stats.steps as u64);
    // What the steps cost: property derivations, the transfer-function
    // evaluations behind them, and rebuilt ancestors.
    assert!(stats.props_derived > 0 && stats.props_computed > 0 && stats.nodes_rebuilt > 0);
    assert_eq!(counters["rewrite.props_derived"], stats.props_derived as u64);
    assert_eq!(counters["rewrite.props_computed"], stats.props_computed as u64);
    assert_eq!(counters["rewrite.nodes_rebuilt"], stats.nodes_rebuilt as u64);
}

/// Replace every digit run with `N` so the plan shape can be compared
/// while row counts, probe counts, and costs stay instance-dependent.
fn normalize(s: &str) -> String {
    let mut out = String::new();
    let mut it = s.chars().peekable();
    let mut in_num = false;
    while let Some(c) = it.next() {
        let numeric = c.is_ascii_digit()
            || (in_num && c == '.' && it.peek().is_some_and(|n| n.is_ascii_digit()));
        if numeric {
            if !in_num {
                out.push('N');
                in_num = true;
            }
        } else {
            in_num = false;
            out.push(c);
        }
    }
    out
}

/// Golden shape test: EXPLAIN ANALYZE for Q1 prints the operator tree with
/// `est_rows`/`act_rows` per operator, and the root actual equals the
/// result cardinality. Timings never appear, so the shape is stable.
#[test]
fn explain_analyze_q1_shape() {
    let mut s = xmark_session();
    let prepared = s.prepare(Q1, None).unwrap();
    let result = s.execute(&prepared, Engine::JoinGraph).unwrap().nodes.expect("Q1 finishes");
    let analyze = s.explain_analyze(&prepared).expect("Q1 has a join graph");

    // Root actual cardinality is the result cardinality.
    let first = analyze.lines().next().unwrap();
    assert!(
        first.contains(&format!("act_rows {})", result.len())),
        "root line {first:?} should report act_rows {}",
        result.len()
    );

    // Every access operator carries estimated and actual row counts.
    for line in analyze.lines().filter(|l| l.contains("SCAN")) {
        assert!(line.contains("est_rows "), "missing estimate: {line}");
        assert!(line.contains("act_rows "), "missing actuals: {line}");
    }

    let expected = "\
RETURN (est_rows N, act_rows N)
 SORT (DISTINCT, ORDER BY dN.pre) (rows_in N, dedup_removed N)
 PLAN (cached, states=N)
 VECTORIZED (batch=N, batches=N, kernels=N, fallbacks=N, descents=N, skips=N)
 JOIN (strategy hash+nl, build_rows N, probe_batches N, seeks N)
  NLJOIN (early-out ⋉)
   IXSCAN nksp [N eq-col(s) + range] (dN = ::auction.xml; resume ⟨ancestor of dN⟩) (est_rows N, act_rows N, probes N, comparisons N)
   HSJOIN (on level,parent)
    IXSCAN nksp [N eq-col(s)] (dN = ::bidder) (est_rows N, act_rows N, probes N, comparisons N)
    IXSCAN nksp [N eq-col(s)] (dN = ::open_auction) (est_rows N, act_rows N, probes N, comparisons N)
(estimated cost N)
";
    assert_eq!(normalize(&analyze), expected, "full output:\n{analyze}");
}

/// Serve-style telemetry under contention: 8 client threads hammer one
/// [`jgi_serve::Server`], and (a) every request's execution counters are
/// identical to every other run of the same query — concurrent requests
/// never bleed into each other's report — with `opt.*` present iff the run
/// planned, while (b) the always-on registry's counter totals equal the
/// sum of the per-request counters plus one compile's rewrite counters per
/// query, exactly, for every counter either carries.
#[test]
fn concurrent_requests_isolate_recordings_and_sum_into_registry() {
    let server = jgi_serve::Server::new(jgi_serve::ServeConfig {
        workers: 4,
        ..Default::default()
    });
    server.add_tree(generate_xmark(XmarkConfig { scale: 0.002, seed: 5 }));
    let queries = [Q1, Q2];
    let passes = 2usize;

    // Each reply is tagged with the index of the query that produced it.
    let replies: Vec<(usize, jgi_serve::ExecReply)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let server = &server;
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    for _ in 0..passes {
                        for (qi, q) in queries.iter().enumerate() {
                            let reply = server
                                .execute(q, None, Engine::JoinGraph, None)
                                .expect("corpus executes");
                            mine.push((qi, reply));
                        }
                    }
                    mine
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("client thread")).collect()
    });
    assert_eq!(replies.len(), 8 * passes * queries.len());

    // Trace ids are globally unique across concurrent requests.
    let mut ids: Vec<u64> = replies.iter().map(|(_, r)| r.trace_id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), replies.len(), "trace ids must be unique");

    // (a) Isolation: every concurrent run of a query reports the same
    // rows and identical execution counters as every other run of it —
    // except the optimizer's `opt.*`, which only the runs that planned
    // carry: a memo hit plans nothing. At least one run per query planned,
    // and no more than could have raced on the empty memo (one per worker).
    type RunShape = (Option<usize>, Vec<(&'static str, u64)>);
    let mut reference: BTreeMap<usize, RunShape> = BTreeMap::new();
    let mut planned = vec![0usize; queries.len()];
    for (qi, reply) in &replies {
        let (opt, counters): (Vec<_>, Vec<_>) =
            reply.report.exec_counters().partition(|(k, _)| k.starts_with("opt."));
        assert!(!counters.is_empty(), "report must carry execution counters");
        assert_eq!(opt.is_empty(), reply.report.plan_cached, "opt.* iff this run planned");
        planned[*qi] += usize::from(!reply.report.plan_cached);
        let entry = reference
            .entry(*qi)
            .or_insert_with(|| (reply.report.rows, counters.clone()));
        assert_eq!(entry.0, reply.report.rows, "row count diverged across threads");
        assert_eq!(entry.1, counters, "execution counters diverged across concurrent runs");
    }
    assert_eq!(reference.len(), queries.len());
    assert!(planned.iter().all(|&n| (1..=4).contains(&n)), "planned runs per query: {planned:?}");

    // (b) Registry totals are exactly the sum of per-request execution
    // counters plus each query's single compile.
    let mut expected: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (_, reply) in &replies {
        for (k, v) in reply.report.exec_counters() {
            *expected.entry(k).or_insert(0) += v;
        }
    }
    let totals = server.metrics();
    assert_eq!(totals.counter_value("serve.cache.miss"), queries.len() as u64, "one compile each");
    for q in queries {
        let (prepared, cached) = server.prepare(q, None).expect("cached");
        assert!(cached);
        for (k, v) in rewrite_counters(&prepared.report.rewrite) {
            *expected.entry(k).or_insert(0) += v;
        }
    }
    for (k, v) in expected {
        assert_eq!(
            totals.counter_value(k),
            v,
            "registry total for {k} must equal the per-request and per-compile sum"
        );
    }
    assert_eq!(totals.counter_value("serve.requests"), replies.len() as u64);
}

/// A warm execution adds only its own execution counters to the serve
/// registry: the rewrite counters belong to the compile and are folded in
/// once, however often the cached plan runs.
#[test]
fn rewrite_counters_fold_once_per_compile() {
    let server = jgi_serve::Server::new(jgi_serve::ServeConfig {
        workers: 2,
        ..Default::default()
    });
    server.add_tree(generate_xmark(XmarkConfig { scale: 0.002, seed: 5 }));
    for _ in 0..3 {
        server.execute(Q1, None, Engine::JoinGraph, None).expect("Q1 executes");
    }
    let (prepared, cached) = server.prepare(Q1, None).expect("Q1 compiles");
    assert!(cached, "all three executions shared one compile");
    let stats = &prepared.report.rewrite;
    assert!(stats.steps > 0, "Q1 must trigger rewrites");
    let m = server.metrics();
    assert_eq!(m.counter_value("serve.requests"), 3);
    assert_eq!(m.counter_value("rewrite.steps"), stats.steps as u64);
    for (rule, n) in &stats.applied {
        assert_eq!(m.counter_value(rule), *n as u64, "rule {rule} counted once per compile");
    }
}

/// A vectorized corpus run surfaces the batch-pipeline work in the
/// report: batches actually flow (`exec.vector.batches`) and the sorted
/// batched B-tree probes actually skip descents (`btree.skip`), and the
/// report's counters carry exactly the executor's `ExecStats`.
#[test]
fn vectorized_counters_surface_in_obs() {
    let mut s = Session::new();
    s.add_tree(generate_xmark(XmarkConfig { scale: 0.005, seed: 42 }));
    s.add_tree(generate_dblp(DblpConfig { publications: 1000, seed: 42 }));
    s.budgets.vectorized = true;
    let mut batches = 0u64;
    let mut skips = 0u64;
    for &(_, query, ctx) in &paper_corpus() {
        let prepared = s.prepare(query, ctx).expect("corpus compiles");
        let outcome = s.execute(&prepared, Engine::JoinGraph).expect("corpus executes");
        let Some(exec) = &outcome.report.exec else { continue };
        batches += exec.vector_batches;
        skips += exec.btree_skips;
        let counters: BTreeMap<&str, u64> = outcome.report.exec_counters().collect();
        assert_eq!(counters["exec.vector.batches"], exec.vector_batches);
        assert_eq!(counters["btree.skip"], exec.btree_skips);
    }
    assert!(batches > 0, "no exec.vector.batches recorded across the corpus");
    assert!(skips > 0, "no btree.skip recorded across the corpus");
}
