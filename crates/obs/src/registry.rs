//! The always-on, lock-striped concurrent metrics registry.
//!
//! A query's own report answers "what did *this query* do"; a
//! long-running service also needs "what is the *service* doing right
//! now", accumulated across every worker thread. This registry is that
//! second shape:
//!
//! * **Lock-striped.** Writers are spread over `shards` independently
//!   locked maps; each thread is pinned to one shard (round-robin at
//!   first use), so with as many shards as worker threads the write path
//!   is an uncontended `Mutex` over a handful of `BTreeMap` entries.
//!   Reads ([`Registry::snapshot`]) lock shards one at a time and merge —
//!   scrapes never stall writers for more than one shard.
//! * **Always-on.** Entry points check one relaxed atomic and return
//!   immediately when the registry is disabled; enabled, a counter bump
//!   is a shard lock + map update. Per-operator hot loops still keep
//!   plain local counters and deposit totals once per query.
//! * **Windowed histograms.** Latency metrics go into
//!   [`WindowHistogram`]s so p50/p90/p99/p999 reflect the last
//!   `slices × slice_len` of traffic, not the process lifetime. All
//!   windows share the registry's single start instant, so slices align
//!   across shards and merge exactly.
//!
//! There is no process-wide instance: the serving layer builds one
//! registry per `jgi_serve::Server`, so tests and multiple services stay
//! isolated.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use jgi_sync::{AtomicBool, AtomicU64, AtomicUsize, Mutex};

use crate::metrics::{Histogram, Metrics};
use crate::window::{WindowHistogram, DEFAULT_SLICES};

/// Default shard count — matches the serve-layer default worker pool
/// order of magnitude; must be small enough that snapshot merges stay
/// cheap.
pub const DEFAULT_SHARDS: usize = 8;

/// Default window slice length (8 slices × 15 s = a 2-minute window).
pub const DEFAULT_SLICE_LEN: Duration = Duration::from_secs(15);

#[derive(Default)]
struct ShardData {
    counters: BTreeMap<&'static str, u64>,
    /// Gauge value plus a registry-wide sequence stamp so "last write
    /// wins" is well-defined across shards.
    gauges: BTreeMap<&'static str, (u64, i64)>,
    windows: BTreeMap<&'static str, WindowHistogram>,
}

/// The concurrent registry. See the module docs for the design.
pub struct Registry {
    enabled: AtomicBool,
    start: Instant,
    slice_len: Duration,
    slices: usize,
    gauge_seq: AtomicU64,
    shards: Vec<Mutex<ShardData>>,
}

/// A point-in-time copy of everything the registry holds, merged across
/// shards. `windows` carries both the sliding-window view (recent
/// quantiles) and the lifetime view (monotone `sum`/`count`).
#[derive(Debug, Clone, Default)]
pub struct RegistrySnapshot {
    /// Monotonic counters, name-ordered.
    pub counters: BTreeMap<&'static str, u64>,
    /// Last-write-wins gauges.
    pub gauges: BTreeMap<&'static str, i64>,
    /// Windowed histograms: `(window, lifetime)` per name.
    pub windows: BTreeMap<&'static str, WindowView>,
}

/// The two views of one windowed histogram at snapshot time.
#[derive(Debug, Clone)]
pub struct WindowView {
    /// Merged distribution of the still-fresh slices (recent traffic).
    pub window: Histogram,
    /// Everything ever observed (monotone).
    pub lifetime: Histogram,
}

impl Registry {
    /// A registry with the default shard count and window geometry.
    pub fn new() -> Registry {
        Registry::with_config(DEFAULT_SHARDS, DEFAULT_SLICES, DEFAULT_SLICE_LEN)
    }

    /// A registry with explicit shard count and window geometry (tests
    /// shrink `slice_len` to exercise rotation without sleeping).
    pub fn with_config(shards: usize, slices: usize, slice_len: Duration) -> Registry {
        Registry {
            enabled: AtomicBool::named("registry_enabled", true),
            start: Instant::now(),
            slice_len: slice_len.max(Duration::from_millis(1)),
            slices: slices.max(1),
            gauge_seq: AtomicU64::named("gauge_seq", 0),
            shards: (0..shards.max(1)).map(|_| Mutex::new(ShardData::default())).collect(),
        }
    }

    /// Disable (or re-enable) every entry point. Disabled, each call is a
    /// single relaxed load — this is the `telemetry off` leg of the
    /// overhead benchmark.
    pub fn set_enabled(&self, enabled: bool) {
        // relaxed: standalone on/off flag; no data is published through it
        // and entry points tolerate a lagged view (audit: DESIGN.md §10).
        self.enabled.store_relaxed(enabled);
    }

    /// Is the registry accepting writes?
    pub fn is_enabled(&self) -> bool {
        // relaxed: see `set_enabled` — flag guards no other data.
        self.enabled.load_relaxed()
    }

    /// Shard count (for tests and docs).
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The current window epoch (slice number since registry start).
    pub fn epoch(&self) -> u64 {
        (self.start.elapsed().as_nanos() / self.slice_len.as_nanos().max(1)) as u64
    }

    fn shard(&self) -> &Mutex<ShardData> {
        // Threads are pinned round-robin at first use; the pin is global
        // (not per registry), which keeps the TLS lookup to one cell and
        // still spreads any registry's writers evenly.
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        thread_local! {
            static PIN: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
        }
        let pin = PIN.with(|c| {
            if c.get() == usize::MAX {
                // relaxed: ticket allocator — only uniqueness matters, and
                // RMW atomicity alone guarantees it (audit: DESIGN.md §10).
                c.set(NEXT.fetch_add_relaxed(1));
            }
            c.get()
        });
        &self.shards[pin % self.shards.len()]
    }

    /// Add `delta` to a named monotonic counter.
    #[inline]
    pub fn counter(&self, name: &'static str, delta: u64) {
        if !self.is_enabled() {
            return;
        }
        let mut s = self.shard().lock();
        *s.counters.entry(name).or_insert(0) += delta;
    }

    /// Set a named gauge (last write wins, across shards).
    #[inline]
    pub fn gauge(&self, name: &'static str, value: i64) {
        if !self.is_enabled() {
            return;
        }
        // relaxed: sequence stamps need uniqueness and per-thread order
        // only; snapshot's max-wins merge runs under the shard locks
        // (audit: DESIGN.md §10).
        let seq = self.gauge_seq.fetch_add_relaxed(1) + 1;
        let mut s = self.shard().lock();
        s.gauges.insert(name, (seq, value));
    }

    /// Record one observation into a named sliding-window histogram.
    #[inline]
    pub fn observe(&self, name: &'static str, value: u64) {
        if !self.is_enabled() {
            return;
        }
        let epoch = self.epoch();
        let slices = self.slices;
        let mut s = self.shard().lock();
        s.windows.entry(name).or_insert_with(|| WindowHistogram::new(slices)).observe(epoch, value);
    }

    /// Record a [`Duration`] in microseconds.
    #[inline]
    pub fn observe_us(&self, name: &'static str, d: Duration) {
        self.observe(name, d.as_micros() as u64);
    }

    /// Add a batch of counter deltas under one shard lock. This is how each
    /// request's counters reach the always-on totals — registry totals
    /// equal the sum of the batches folded in, by construction.
    pub fn merge_counters(&self, deltas: impl IntoIterator<Item = (&'static str, u64)>) {
        if !self.is_enabled() {
            return;
        }
        let mut s = self.shard().lock();
        for (name, v) in deltas {
            *s.counters.entry(name).or_insert(0) += v;
        }
    }

    /// Merge every shard into one point-in-time snapshot. Locks shards
    /// one at a time (writers on other shards proceed), so the snapshot
    /// is per-shard consistent, not globally atomic — fine for metrics.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let epoch = self.epoch();
        let mut counters: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut gauges: BTreeMap<&'static str, (u64, i64)> = BTreeMap::new();
        let mut windows: BTreeMap<&'static str, WindowHistogram> = BTreeMap::new();
        for shard in &self.shards {
            let s = shard.lock();
            for (&name, &v) in &s.counters {
                *counters.entry(name).or_insert(0) += v;
            }
            for (&name, &(seq, v)) in &s.gauges {
                let e = gauges.entry(name).or_insert((seq, v));
                if seq >= e.0 {
                    *e = (seq, v);
                }
            }
            for (&name, w) in &s.windows {
                match windows.get_mut(name) {
                    Some(dst) => dst.merge(w),
                    None => {
                        windows.insert(name, w.clone());
                    }
                }
            }
        }
        RegistrySnapshot {
            counters,
            gauges: gauges.into_iter().map(|(k, (_, v))| (k, v)).collect(),
            windows: windows
                .into_iter()
                .map(|(k, w)| {
                    (k, WindowView { window: w.window(epoch), lifetime: w.lifetime().clone() })
                })
                .collect(),
        }
    }
}

impl Default for Registry {
    fn default() -> Registry {
        Registry::new()
    }
}

impl RegistrySnapshot {
    /// Current value of a counter (0 when never incremented).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The windowed histogram views for `name`, if anything was observed.
    pub fn window(&self, name: &str) -> Option<&WindowView> {
        self.windows.get(name)
    }

    /// Flatten into a plain [`Metrics`] set (lifetime histograms), the
    /// shape the pre-registry serving code — and `STATS` — consume.
    pub fn to_metrics(&self) -> Metrics {
        let mut m = Metrics::default();
        for (&name, &v) in &self.counters {
            m.counter(name, v);
        }
        for (&name, &v) in &self.gauges {
            m.gauge(name, v);
        }
        for (&name, view) in &self.windows {
            m.set_histogram(name, view.lifetime.clone());
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_across_threads() {
        let r = &Registry::with_config(4, 4, Duration::from_secs(60));
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(move || {
                    for _ in 0..1000 {
                        r.counter("hits", 1);
                    }
                    r.observe("lat", 42);
                });
            }
        });
        let snap = r.snapshot();
        assert_eq!(snap.counter_value("hits"), 8000);
        let lat = snap.window("lat").expect("observed");
        assert_eq!(lat.lifetime.count(), 8);
        assert_eq!(lat.window.count(), 8, "all observations inside the fresh window");
        assert_eq!(lat.window.percentile(0.99), Some(42));
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let r = Registry::new();
        r.set_enabled(false);
        r.counter("c", 1);
        r.gauge("g", 2);
        r.observe("h", 3);
        r.merge_counters([("c", 5)]);
        let snap = r.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.windows.is_empty());
        r.set_enabled(true);
        r.counter("c", 1);
        assert_eq!(r.snapshot().counter_value("c"), 1);
    }

    #[test]
    fn gauge_last_write_wins_across_shards() {
        let r = &Registry::with_config(4, 4, Duration::from_secs(60));
        // Writes from many threads land on different shards; the highest
        // sequence stamp must win regardless of shard order.
        std::thread::scope(|s| {
            for i in 0..4 {
                s.spawn(move || r.gauge("depth", i));
            }
        });
        r.gauge("depth", 99);
        assert_eq!(r.snapshot().gauges.get("depth"), Some(&99));
    }

    #[test]
    fn merge_counters_equals_sum_of_deltas() {
        let r = Registry::with_config(2, 4, Duration::from_secs(60));
        let mut total = 0u64;
        for i in 1..=10u64 {
            r.merge_counters([("exec.rows", i), ("exec.batches", 1)]);
            r.observe("wall", i);
            total += i;
        }
        let snap = r.snapshot();
        assert_eq!(snap.counter_value("exec.rows"), total);
        assert_eq!(snap.counter_value("exec.batches"), 10);
        assert_eq!(snap.window("wall").unwrap().lifetime.count(), 10);
        let m = snap.to_metrics();
        assert_eq!(m.counter_value("exec.rows"), total);
        assert_eq!(m.histogram("wall").unwrap().count(), 10);
    }
}
