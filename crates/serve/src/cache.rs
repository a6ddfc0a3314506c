//! The prepared-query cache.
//!
//! What is cached, and what it depends on:
//!
//! * a [`Prepared`] — Core, the isolated plan DAG, the join graph, both
//!   SQL blocks — depends on the **query text and context document only**.
//!   Compilation reads no document, so this cache keys it on exactly that
//!   and **nothing invalidates an entry**: not a load, not a commit. The
//!   paper's *compile once* is literal here; an entry leaves only by LRU
//!   eviction.
//! * the optimizer's physical plan depends on the **database** it runs on
//!   (statistics, index set) and on the plan options. It is not cached
//!   here: it hangs off the `Prepared` as a one-slot memo keyed on
//!   `Database::id` (`jgi_engine::optimizer::PlanMemo`), so the first
//!   execution after a commit re-plans (~0.3 ms) and every other one plans
//!   nothing.
//!
//! [`CacheStats::invalidations`] and [`CacheStats::invalidated_docs`]
//! remain as fields for the `STATS` wire format and stay 0.
//!
//! Eviction is LRU over a monotonic touch tick. The scan on eviction is
//! O(capacity), which is deliberate: capacities are small (hundreds), the
//! common path (hit) is one hash probe, and there is no linked-list
//! unsafe code to audit.

use jgi_core::Prepared;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Cache key: one prepared query per query text and context document —
/// everything a [`Prepared`] depends on.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// The query text, verbatim.
    pub query: String,
    /// The context document rooted paths resolve against.
    pub context_doc: Option<String>,
}

/// Hit/miss/eviction accounting, mirrored into the service metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Probes that found an entry.
    pub hits: u64,
    /// Probes that found nothing usable (caller compiles and inserts).
    pub misses: u64,
    /// Entries evicted by LRU capacity pressure.
    pub evictions: u64,
    /// Always 0: no document change drops an entry. Kept for the `STATS`
    /// wire format.
    pub invalidations: u64,
    /// Always 0, like `invalidations`.
    pub invalidated_docs: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]` (0 when the cache was never probed).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Per-generation accounting: how the queries compiled during one
/// snapshot generation fared. A generation that keeps missing after its
/// load settles points at a churning workload.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GenStats {
    /// Probe hits against entries compiled in this generation.
    pub hits: u64,
    /// Probe misses while this generation was current.
    pub misses: u64,
}

struct Entry {
    plan: Arc<Prepared>,
    /// Snapshot generation the query was compiled in (accounting only).
    generation: u64,
    touched: u64,
}

/// LRU cache of prepared queries.
pub struct PlanCache {
    capacity: usize,
    tick: u64,
    map: HashMap<CacheKey, Entry>,
    stats: CacheStats,
    per_gen: BTreeMap<u64, GenStats>,
}

impl PlanCache {
    /// Cache holding at most `capacity` plans (capacity 0 disables
    /// caching: every probe misses, every insert evicts immediately).
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache {
            capacity,
            tick: 0,
            map: HashMap::new(),
            stats: CacheStats::default(),
            per_gen: BTreeMap::new(),
        }
    }

    /// Look up a prepared query. `generation` is the probing snapshot's
    /// generation, used for the per-generation breakdown only.
    pub fn get(&mut self, key: &CacheKey, generation: u64) -> Option<Arc<Prepared>> {
        self.tick += 1;
        if let Some(e) = self.map.get_mut(key) {
            e.touched = self.tick;
            self.stats.hits += 1;
            self.per_gen.entry(e.generation).or_default().hits += 1;
            return Some(Arc::clone(&e.plan));
        }
        self.stats.misses += 1;
        self.per_gen.entry(generation).or_default().misses += 1;
        None
    }

    /// Re-probe after waiting for another thread's in-flight compile of
    /// the same key. On success the caller's earlier [`PlanCache::get`]
    /// miss is reclassified as a hit — it was served from the cache, just
    /// after a wait — so `misses` keeps meaning *compilations* exactly.
    /// `generation` must be the same probing generation the original miss
    /// was counted under.
    pub fn get_after_wait(&mut self, key: &CacheKey, generation: u64) -> Option<Arc<Prepared>> {
        self.tick += 1;
        let e = self.map.get_mut(key)?;
        e.touched = self.tick;
        self.stats.misses = self.stats.misses.saturating_sub(1);
        self.stats.hits += 1;
        let probed = self.per_gen.entry(generation).or_default();
        probed.misses = probed.misses.saturating_sub(1);
        self.per_gen.entry(e.generation).or_default().hits += 1;
        Some(Arc::clone(&e.plan))
    }

    /// Insert a query compiled during `generation`, evicting the
    /// least-recently-used entry when at capacity. Re-inserting an
    /// existing key refreshes it in place.
    pub fn insert(&mut self, key: CacheKey, plan: Arc<Prepared>, generation: u64) {
        self.tick += 1;
        if let Some(e) = self.map.get_mut(&key) {
            e.plan = plan;
            e.generation = generation;
            e.touched = self.tick;
            return;
        }
        if self.capacity == 0 {
            return;
        }
        if self.map.len() >= self.capacity {
            if let Some(lru) = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.touched)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&lru);
                self.stats.evictions += 1;
            }
        }
        self.map.insert(key, Entry { plan, generation, touched: self.tick });
    }

    /// Live entry count.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Accounting so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Per-generation hit/miss breakdown, generation-ordered. Generations
    /// appear once probed and are retained (`STATS` reports the history).
    pub fn generation_stats(&self) -> impl Iterator<Item = (u64, GenStats)> + '_ {
        self.per_gen.iter().map(|(&g, &s)| (g, s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jgi_core::prepare_on;
    use jgi_xml::DocStore;

    fn key(q: &str) -> CacheKey {
        CacheKey { query: q.to_string(), context_doc: None }
    }

    /// Compilation reads no document: an empty store will do.
    fn plan(q: &str) -> Arc<Prepared> {
        Arc::new(prepare_on(&DocStore::new(), q, None).unwrap())
    }

    #[test]
    fn hit_after_prepare_in_any_later_generation() {
        let mut c = PlanCache::new(4);
        let q = r#"doc("t.xml")/child::a/child::b"#;
        assert!(c.get(&key(q), 1).is_none());
        c.insert(key(q), plan(q), 1);
        let hit = c.get(&key(q), 1).expect("second probe hits");
        assert_eq!(hit.text, q);
        // Generations pass (loads, commits): the entry still hits.
        assert!(c.get(&key(q), 7).is_some());
        assert_eq!(c.stats(), CacheStats { hits: 2, misses: 1, ..Default::default() });
    }

    #[test]
    fn context_document_is_part_of_the_key() {
        let mut c = PlanCache::new(4);
        let q = "/site/people";
        let with = |ctx: &str| CacheKey { query: q.into(), context_doc: Some(ctx.into()) };
        let compiled = Arc::new(prepare_on(&DocStore::new(), q, Some("a.xml")).unwrap());
        c.insert(with("a.xml"), compiled, 1);
        assert!(c.get(&with("a.xml"), 1).is_some());
        assert!(c.get(&with("b.xml"), 1).is_none(), "same text, other context: other query");
    }

    #[test]
    fn lru_eviction_at_capacity() {
        let mut c = PlanCache::new(2);
        let (qa, qb, qc) = (
            r#"doc("t.xml")/child::a"#,
            r#"doc("t.xml")/child::a/child::b"#,
            r#"doc("t.xml")/descendant::b"#,
        );
        c.insert(key(qa), plan(qa), 1);
        c.insert(key(qb), plan(qb), 1);
        // Touch qa so qb becomes the LRU victim.
        assert!(c.get(&key(qa), 1).is_some());
        c.insert(key(qc), plan(qc), 1);
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().evictions, 1);
        assert!(c.get(&key(qa), 1).is_some(), "recently-used survives");
        assert!(c.get(&key(qb), 1).is_none(), "LRU evicted");
        assert!(c.get(&key(qc), 1).is_some());
    }

    #[test]
    fn per_generation_breakdown_credits_the_compiling_generation() {
        let mut c = PlanCache::new(4);
        let q = r#"doc("t.xml")/child::a/child::b"#;
        assert!(c.get(&key(q), 1).is_none()); // miss in gen 1
        c.insert(key(q), plan(q), 1);
        assert!(c.get(&key(q), 1).is_some()); // hit on the gen-1 entry
        assert!(c.get(&key(q), 2).is_some()); // still the gen-1 entry
        assert!(c.get(&key("1 + 1"), 2).is_none()); // miss in gen 2
        let gens: Vec<_> = c.generation_stats().collect();
        assert_eq!(
            gens,
            vec![
                (1, GenStats { hits: 2, misses: 1 }),
                (2, GenStats { hits: 0, misses: 1 }),
            ]
        );
    }

    #[test]
    fn wait_hit_reclassifies_the_miss() {
        let mut c = PlanCache::new(4);
        let q = r#"doc("t.xml")/child::a/child::b"#;
        // Two threads miss; the leader compiles and inserts, the follower
        // re-probes after the wait.
        assert!(c.get(&key(q), 1).is_none()); // leader
        assert!(c.get(&key(q), 1).is_none()); // follower
        c.insert(key(q), plan(q), 1);
        assert!(c.get_after_wait(&key(q), 1).is_some());
        // Net accounting: one compile (the leader), one served-from-cache.
        assert_eq!(c.stats(), CacheStats { hits: 1, misses: 1, ..Default::default() });
        let gens: Vec<_> = c.generation_stats().collect();
        assert_eq!(gens, vec![(1, GenStats { hits: 1, misses: 1 })]);
        // Nothing to wait for (the leader's compile failed): the original
        // miss stands and the caller compiles.
        assert!(c.get_after_wait(&key("1 + 1"), 1).is_none());
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = PlanCache::new(0);
        let q = r#"doc("t.xml")/child::a"#;
        c.insert(key(q), plan(q), 1);
        assert!(c.get(&key(q), 1).is_none());
        assert!(c.is_empty());
    }
}
