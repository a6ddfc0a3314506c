//! Snapshot publication vs. plan-cache invalidation (`jgi-serve`).
//!
//! The server publishes immutable snapshots under an `RwLock` with a
//! generation counter and caches compiled plans. A request reads the
//! published generation, probes the cache, and must never execute a plan
//! compiled against an older snapshot. Publication and cache
//! invalidation are two separate critical sections, so there is a window
//! where the new snapshot is visible but stale cache entries survive —
//! safe only because entries are *keyed by generation*.
//!
//! The refutable variant drops the generation key (probe by query alone)
//! and the checker finds the stale-plan schedule in that window.
//!
//! Historical note: this models the pre-mutation cache, whose key
//! embedded the snapshot generation. The shipped cache has no such
//! window — it holds only document-independent compiled queries and
//! nothing invalidates them; the freshness protocol that *is* shipped
//! (the physical-plan memo keyed on the database identity) is
//! [`super::plan_memo`]. The generation-keyed design stays in the suite
//! because it is the simplest instance of a publish/invalidate window
//! and its refutation still guards the checker against vacuity.

use std::sync::Arc;

use crate::sync::{Mutex, RwLock};
use crate::{ensure, explore, thread, Config, Report};

/// How cache probes match entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheKeying {
    /// Shipped: entries match only if their generation matches the
    /// snapshot the request is executing against.
    ByGeneration,
    /// Broken: any cached plan for the query matches — refutable.
    QueryOnly,
}

struct S {
    /// Published snapshot generation (the real field is
    /// `RwLock<Arc<Snapshot>>`; the generation is what the race is
    /// about).
    published: RwLock<u64>,
    /// Cached plans as `(keyed_generation, compiled_against_generation)`.
    cache: Mutex<Vec<(u64, u64)>>,
}

fn loader(s: &S) {
    {
        let mut g = s.published.write();
        *g = 2;
    }
    // Separate critical section: the invalidation window.
    let mut cache = s.cache.lock();
    cache.retain(|&(keyed, _)| keyed >= 2);
}

fn request(s: &S, keying: CacheKeying) {
    let generation = *s.published.read();
    let hit = s
        .cache
        .lock()
        .iter()
        .find(|&&(keyed, _)| match keying {
            CacheKeying::ByGeneration => keyed == generation,
            CacheKeying::QueryOnly => true,
        })
        .map(|&(_, plan)| plan);
    let plan_generation = match hit {
        Some(plan) => plan,
        None => {
            // Miss: compile against the snapshot we hold and insert.
            let plan = generation;
            s.cache.lock().push((generation, plan));
            plan
        }
    };
    ensure!(
        plan_generation == generation,
        "stale plan: executing a generation-{plan_generation} plan against snapshot \
         generation {generation}"
    );
}

/// One loader republishes (generation 1 → 2) while two requests race
/// through the read-probe-execute path; the cache starts warm with a
/// generation-1 plan so the invalidation window is live.
pub fn check(keying: CacheKeying, cfg: &Config) -> Report {
    explore(cfg, move || {
        let s = Arc::new(S { published: RwLock::named("snapshot", 1), cache: Mutex::named("plan_cache", vec![(1, 1)]) });
        let load = {
            let s = Arc::clone(&s);
            thread::spawn("loader", move || loader(&s))
        };
        let requests: Vec<_> = ["request-a", "request-b"]
            .into_iter()
            .map(|name| {
                let s = Arc::clone(&s);
                thread::spawn(name, move || request(&s, keying))
            })
            .collect();
        load.join().expect("loader");
        for r in requests {
            r.join().expect("request");
        }
        // Quiescent: every surviving entry is self-consistent.
        let cache = s.cache.lock();
        for &(keyed, plan) in cache.iter() {
            ensure!(keyed == plan, "cache entry keyed {keyed} holds generation-{plan} plan");
        }
    })
}
