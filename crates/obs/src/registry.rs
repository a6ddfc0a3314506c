//! The service-wide metrics registry.
//!
//! A query's own report answers "what did *this query* do"; a
//! long-running service also needs "what is the *service* doing right
//! now", accumulated across every worker thread. This registry is that
//! second shape:
//!
//! * **One lock.** Counters, gauges and window rings sit behind a single
//!   `Mutex`. A writer with several updates (a finished request: its
//!   gauge, counters and latency windows) takes it once through
//!   [`Registry::batch`]; a scrape ([`Registry::snapshot`]) takes it once
//!   and sees one consistent state. Per-operator hot loops still keep
//!   plain local counters and deposit totals once per query.
//! * **Windowed histograms.** Latency metrics go into
//!   [`WindowHistogram`]s so p50/p90/p99/p999 reflect the last
//!   `slices × slice_len` of traffic, not the process lifetime. All
//!   windows share the registry's single start instant, so every window
//!   rotates on the same slice boundaries.
//!
//! There is no process-wide instance: the serving layer builds one
//! registry per `jgi_serve::Server`, so tests and multiple services stay
//! isolated.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use jgi_sync::{Mutex, MutexGuard};

use crate::metrics::{Histogram, Metrics};
use crate::window::{WindowHistogram, DEFAULT_SLICES};

/// Default window slice length (8 slices × 15 s = a 2-minute window).
pub const DEFAULT_SLICE_LEN: Duration = Duration::from_secs(15);

#[derive(Default)]
struct Data {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, i64>,
    windows: BTreeMap<&'static str, WindowHistogram>,
}

/// The concurrent registry. See the module docs for the design.
pub struct Registry {
    start: Instant,
    slice_len: Duration,
    slices: usize,
    data: Mutex<Data>,
}

/// A point-in-time copy of everything the registry holds. `windows`
/// carries both the sliding-window view (recent quantiles) and the
/// lifetime view (monotone `sum`/`count`).
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

/// Several updates under one acquisition of the registry's lock: take it
/// with [`Registry::batch`], record, drop. Keep a batch short — every
/// other writer and scrape waits for it.
pub struct Batch<'a> {
    data: MutexGuard<'a, Data>,
    epoch: u64,
    slices: usize,
}

impl Registry {
    /// A registry with the default window geometry.
    pub fn new() -> Registry {
        Registry::with_config(DEFAULT_SLICES, DEFAULT_SLICE_LEN)
    }

    /// A registry with an explicit window geometry (tests shrink
    /// `slice_len` to exercise rotation without sleeping).
    pub fn with_config(slices: usize, slice_len: Duration) -> Registry {
        Registry {
            start: Instant::now(),
            slice_len: slice_len.max(Duration::from_millis(1)),
            slices: slices.max(1),
            data: Mutex::named("registry", Data::default()),
        }
    }

    /// The current window epoch (slice number since registry start).
    fn epoch(&self) -> u64 {
        (self.start.elapsed().as_nanos() / self.slice_len.as_nanos().max(1)) as u64
    }

    /// Take the lock for a batch of updates.
    pub fn batch(&self) -> Batch<'_> {
        // The clock is read before the lock, to keep the lock short; a
        // batch that waited past a slice boundary is the stale writer
        // `WindowHistogram::observe` is built to tolerate.
        let epoch = self.epoch();
        Batch { data: self.data.lock(), epoch, slices: self.slices }
    }

    /// Add `delta` to a named monotonic counter.
    pub fn counter(&self, name: &'static str, delta: u64) {
        self.batch().counter(name, delta);
    }

    /// Set a named gauge (last write wins).
    pub fn gauge(&self, name: &'static str, value: i64) {
        self.batch().gauge(name, value);
    }

    /// Record one observation into a named sliding-window histogram.
    pub fn observe(&self, name: &'static str, value: u64) {
        self.batch().observe(name, value);
    }

    /// Record a [`Duration`] in microseconds.
    pub fn observe_us(&self, name: &'static str, d: Duration) {
        self.batch().observe_us(name, d);
    }

    /// One consistent point-in-time copy of the registry.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let epoch = self.epoch();
        let data = self.data.lock();
        RegistrySnapshot {
            counters: data.counters.clone(),
            gauges: data.gauges.clone(),
            windows: data
                .windows
                .iter()
                .map(|(&k, w)| {
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

impl Batch<'_> {
    /// Add `delta` to a named monotonic counter.
    pub fn counter(&mut self, name: &'static str, delta: u64) {
        *self.data.counters.entry(name).or_insert(0) += delta;
    }

    /// Add a set of counter deltas. This is how each request's counters
    /// reach the service totals — registry totals equal the sum of the
    /// sets folded in, by construction.
    pub fn merge_counters(&mut self, deltas: impl IntoIterator<Item = (&'static str, u64)>) {
        for (name, v) in deltas {
            self.counter(name, v);
        }
    }

    /// Set a named gauge (last write wins).
    pub fn gauge(&mut self, name: &'static str, value: i64) {
        self.data.gauges.insert(name, value);
    }

    /// Record one observation into a named sliding-window histogram.
    pub fn observe(&mut self, name: &'static str, value: u64) {
        let slices = self.slices;
        self.data
            .windows
            .entry(name)
            .or_insert_with(|| WindowHistogram::new(slices))
            .observe(self.epoch, value);
    }

    /// Record a [`Duration`] in microseconds.
    pub fn observe_us(&mut self, name: &'static str, d: Duration) {
        self.observe(name, d.as_micros() as u64);
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
        let r = &Registry::with_config(4, Duration::from_secs(60));
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
    fn merge_counters_equals_sum_of_deltas() {
        let r = Registry::with_config(4, Duration::from_secs(60));
        let mut total = 0u64;
        for i in 1..=10u64 {
            let mut b = r.batch();
            b.merge_counters([("exec.rows", i), ("exec.batches", 1)]);
            b.observe("wall", i);
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
