//! Concurrency correctness for the serving layer: Q1–Q8 executed from 8
//! threads against one shared snapshot must agree byte-for-byte with the
//! single-threaded `Session` baseline, across back-ends, while the plan
//! cache absorbs every recompile.
//!
//! Compilation dominates wall-clock in debug builds (the Q2 three-way
//! join costs seconds to isolate), so the suite compiles each corpus
//! query exactly once: a shared fixture warms the server's plan cache,
//! and the sequential baseline executes the *same* `Prepared` artifacts
//! on a private `Session` over identical trees. After the warm-up, every
//! probe must be a cache hit — asserted below.

use jgi_core::queries::paper_corpus;
use jgi_core::{Engine, Session};
use jgi_serve::{ServeConfig, Server};
use jgi_xml::generate::{generate_dblp, generate_xmark, DblpConfig, XmarkConfig};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

const THREADS: usize = 8;
const PASSES: usize = 3;

fn trees() -> (jgi_xml::Tree, jgi_xml::Tree) {
    (
        generate_xmark(XmarkConfig { scale: 0.002, seed: 42 }),
        generate_dblp(DblpConfig { publications: 300, seed: 42 }),
    )
}

type Reference = HashMap<(&'static str, &'static str), Option<Vec<u32>>>;

struct Fixture {
    /// The shared service under test: both trees loaded (generation 2),
    /// plan cache warmed with the whole corpus.
    server: Arc<Server>,
    /// Sequential reference results keyed on `(engine label, query name)`,
    /// computed by a single-threaded `Session` over identical trees,
    /// executing the server's own cached plans.
    reference: Arc<Reference>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let (xmark, dblp) = trees();
        let server = Arc::new(Server::new(ServeConfig {
            workers: 4,
            queue_depth: THREADS * 4,
            cache_capacity: 64,
            ..ServeConfig::default()
        }));
        server.add_tree(xmark);
        server.add_tree(dblp);

        // Warm the cache: one compile per corpus query, total.
        let plans: Vec<_> = paper_corpus()
            .into_iter()
            .map(|(name, query, ctx)| {
                let (plan, cached) = server.prepare(query, ctx).expect("corpus compiles");
                assert!(!cached, "{name} was already cached before warm-up");
                (name, plan)
            })
            .collect();

        // The single-threaded baseline: same trees, same plans.
        let (xmark, dblp) = trees();
        let mut session = Session::new();
        session.add_tree(xmark);
        session.add_tree(dblp);
        let mut reference: Reference = HashMap::new();
        for engine in [Engine::JoinGraph, Engine::Stacked, Engine::NavSegmented] {
            for (name, plan) in &plans {
                let outcome = session.execute(plan, engine).expect("baseline executes");
                reference.insert((engine.name(), name), outcome.nodes);
            }
        }
        Fixture { server, reference: Arc::new(reference) }
    })
}

#[test]
fn eight_threads_agree_with_sequential_baseline() {
    let fx = fixture();
    let clients: Vec<_> = (0..THREADS)
        .map(|i| {
            let server = Arc::clone(&fx.server);
            let reference = Arc::clone(&fx.reference);
            std::thread::spawn(move || {
                let corpus = paper_corpus();
                for pass in 0..PASSES {
                    // Different starting offsets per thread and pass so the
                    // pool sees interleaved, not lock-step, traffic.
                    for k in 0..corpus.len() {
                        let (name, query, ctx) = corpus[(i + pass + k) % corpus.len()];
                        let reply = server
                            .execute(query, ctx, Engine::JoinGraph, None)
                            .unwrap_or_else(|e| panic!("{name} on thread {i}: {e}"));
                        assert!(reply.cached_plan, "{name} recompiled after warm-up");
                        assert_eq!(
                            reference.get(&("joingraph", name)),
                            Some(&reply.nodes),
                            "{name} diverged on thread {i} pass {pass}"
                        );
                    }
                }
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client thread panicked");
    }

    // Every query compiled exactly once (the fixture warm-up); the whole
    // concurrent run was served out of the cache. The miss count is a
    // *global* invariant of the shared server — no generation changes, so
    // no probe after warm-up may miss, however the tests interleave.
    let cs = fx.server.cache_stats();
    assert_eq!(cs.misses, paper_corpus().len() as u64, "post-warm-up cache miss");
    let total = (THREADS * PASSES * paper_corpus().len()) as u64;
    assert!(cs.hits >= total, "hits {} < this test's {} requests", cs.hits, total);

    let m = fx.server.metrics();
    assert!(m.counter_value("serve.requests") >= total);
    assert_eq!(m.counter_value("serve.errors"), 0);
    assert_eq!(m.counter_value("serve.admission.shed"), 0);
}

#[test]
fn concurrent_stacked_and_nav_agree_too() {
    // The non-relational back-ends share the same snapshot and plan
    // cache; nav evaluation is `&self` over shared trees, the stacked
    // engine materializes per-request state — both must be
    // race-free against the same sequential reference.
    let fx = fixture();
    for engine in [Engine::Stacked, Engine::NavSegmented] {
        let clients: Vec<_> = (0..4)
            .map(|i| {
                let server = Arc::clone(&fx.server);
                let reference = Arc::clone(&fx.reference);
                std::thread::spawn(move || {
                    for (name, query, ctx) in paper_corpus() {
                        let reply = server
                            .execute(query, ctx, engine, None)
                            .unwrap_or_else(|e| panic!("{name} on thread {i}: {e}"));
                        assert_eq!(
                            reference.get(&(engine.name(), name)),
                            Some(&reply.nodes),
                            "{name} diverged on {} thread {i}",
                            engine.name()
                        );
                    }
                })
            })
            .collect();
        for c in clients {
            c.join().expect("client thread panicked");
        }
    }
}

#[test]
fn snapshot_swap_under_load_keeps_readers_consistent() {
    // Loads race with queries: a reader must see either the old or the
    // new generation, never a torn state, and results for the untouched
    // documents must be identical throughout. This test gets a private
    // server (generation churn would poison the shared fixture's cache
    // invariants) and sticks to the cheap-to-compile corpus subset.
    // A load purges nothing: each corpus query compiles once, however
    // many swaps land.
    let fx = fixture();
    let corpus: Vec<_> = paper_corpus()
        .into_iter()
        .filter(|(name, _, _)| matches!(*name, "Q1" | "Q3" | "Q4" | "Q8"))
        .collect();

    let (xmark, dblp) = trees();
    let server = Arc::new(Server::new(ServeConfig {
        workers: 2,
        queue_depth: 16,
        cache_capacity: 64,
        ..ServeConfig::default()
    }));
    server.add_tree(xmark);
    server.add_tree(dblp);

    let loader = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || {
            for i in 0..4 {
                let uri = format!("extra{i}.xml");
                server.load_xml(&uri, "<r><x>1</x><x>2</x></r>").expect("load");
            }
        })
    };
    let clients: Vec<_> = (0..4)
        .map(|i| {
            let server = Arc::clone(&server);
            let reference = Arc::clone(&fx.reference);
            let corpus = corpus.clone();
            std::thread::spawn(move || {
                for pass in 0..2 {
                    for &(name, query, ctx) in &corpus {
                        let reply = server
                            .execute(query, ctx, Engine::JoinGraph, None)
                            .unwrap_or_else(|e| panic!("{name} on thread {i}: {e}"));
                        // New documents append to the store; pre ranks of
                        // the original documents are stable, so results
                        // must match the two-document reference exactly.
                        assert_eq!(
                            reference.get(&("joingraph", name)),
                            Some(&reply.nodes),
                            "{name} diverged during snapshot swaps (pass {pass})"
                        );
                    }
                }
            })
        })
        .collect();
    loader.join().expect("loader");
    for c in clients {
        c.join().expect("client thread panicked");
    }
    // All four loads landed: generation = 2 initial documents + 4 extras.
    assert_eq!(server.snapshot().generation, 6);
    // A compiled query depends on no document: through all four swaps
    // each corpus text compiled exactly once (single-flight).
    let stats = server.cache_stats();
    assert_eq!(stats.misses, corpus.len() as u64, "one compile per distinct text");
    assert_eq!(stats.invalidations, 0);
    let extra = server
        .execute(r#"doc("extra3.xml")/child::r/child::x"#, None, Engine::JoinGraph, None)
        .expect("extra doc queryable");
    assert_eq!(extra.nodes.map(|n| n.len()), Some(2));
}
