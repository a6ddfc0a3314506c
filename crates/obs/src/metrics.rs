//! A registry of named counters, gauges, and histograms.
//!
//! Names are `&'static str` so incrementing a metric never allocates; the
//! registry maps are keyed by the pointer'd string and stay small (one entry
//! per metric name, not per observation).

use std::collections::BTreeMap;

use crate::json::Json;

/// A fixed-shape histogram with power-of-two bucket boundaries.
///
/// Bucket `i` counts observations `v` with `floor(log2(max(v,1))) == i`,
/// i.e. bucket 0 is `[0,1]`, bucket 1 is `[2,3]`, bucket 2 is `[4,7]`, …
/// 64 buckets cover the full `u64` range, so recording is a shift, an index,
/// and four scalar updates — no allocation, no rebalancing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 64],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram { buckets: [0; 64], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }
}

impl Histogram {
    /// Index of the bucket that holds `v`.
    #[inline]
    pub fn bucket_index(v: u64) -> usize {
        63 - v.max(1).leading_zeros() as usize
    }

    /// Inclusive value range covered by bucket `i`.
    pub fn bucket_bounds(i: usize) -> (u64, u64) {
        if i == 0 {
            (0, 1)
        } else {
            (1 << i, (1u64 << i).wrapping_mul(2).wrapping_sub(1))
        }
    }

    /// Record one observation.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation, or `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean observation, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Approximate quantile `q` in `[0, 1]`, or `None` when empty.
    ///
    /// Walks the power-of-two buckets until the cumulative count reaches
    /// `ceil(q · count)` and reports that bucket's upper bound (clamped to
    /// the observed min/max), so the estimate errs at most one bucket high
    /// — a factor-of-two resolution, which is exactly the histogram's
    /// storage precision. This is the single stats code path behind the
    /// serving layer's p50/p95/p99 latency summaries.
    pub fn percentile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let (_, hi) = Self::bucket_bounds(i);
                return Some(hi.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Fold another histogram into this one, bucket-wise. Exact for
    /// bucketed quantiles (both sides share the fixed power-of-two
    /// boundaries); `sum` saturates like [`Histogram::record`].
    pub fn merge(&mut self, other: &Histogram) {
        for (i, &n) in other.buckets.iter().enumerate() {
            self.buckets[i] += n;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Occupied buckets as `(lo, hi, count)` triples, low to high.
    pub fn occupied_buckets(&self) -> Vec<(u64, u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| {
                let (lo, hi) = Self::bucket_bounds(i);
                (lo, hi, n)
            })
            .collect()
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("count", Json::UInt(self.count)),
            ("sum", Json::UInt(self.sum)),
            ("min", self.min().map_or(Json::Null, Json::UInt)),
            ("max", self.max().map_or(Json::Null, Json::UInt)),
            (
                "buckets",
                Json::Arr(
                    self.occupied_buckets()
                        .into_iter()
                        .map(|(lo, hi, n)| {
                            Json::obj([
                                ("lo", Json::UInt(lo)),
                                ("hi", Json::UInt(hi)),
                                ("n", Json::UInt(n)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Named counters, gauges, and histograms: a flattened registry snapshot
/// (`STATS`, the repo benchmark) or one report's counters.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, i64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

impl Metrics {
    /// Add `delta` to the named monotonic counter.
    pub fn counter(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    /// Set the named gauge to `value` (last write wins).
    pub fn gauge(&mut self, name: &'static str, value: i64) {
        self.gauges.insert(name, value);
    }

    /// Replace the named histogram with a pre-aggregated one (used when
    /// flattening a registry snapshot back into a `Metrics` set).
    pub fn set_histogram(&mut self, name: &'static str, h: Histogram) {
        self.histograms.insert(name, h);
    }

    /// Current value of a counter (0 when never incremented).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of a gauge.
    pub fn gauge_value(&self, name: &str) -> Option<i64> {
        self.gauges.get(name).copied()
    }

    /// The named histogram, if anything was recorded into it.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters, name-ordered.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(&k, &v)| (k, v))
    }

    /// All gauges, name-ordered.
    pub fn gauges(&self) -> impl Iterator<Item = (&'static str, i64)> + '_ {
        self.gauges.iter().map(|(&k, &v)| (k, v))
    }

    /// All histograms, name-ordered.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &Histogram)> + '_ {
        self.histograms.iter().map(|(&k, v)| (k, v))
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Render as a JSON object with `counters`/`gauges`/`histograms` keys.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "counters",
                Json::Obj(
                    self.counters().map(|(k, v)| (k.to_string(), Json::UInt(v))).collect(),
                ),
            ),
            (
                "gauges",
                Json::Obj(self.gauges().map(|(k, v)| (k.to_string(), Json::Int(v))).collect()),
            ),
            (
                "histograms",
                Json::Obj(
                    self.histograms().map(|(k, h)| (k.to_string(), h.to_json())).collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_boundaries() {
        // Bucket 0 holds 0 and 1; thereafter powers of two open new buckets.
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 0);
        assert_eq!(Histogram::bucket_index(2), 1);
        assert_eq!(Histogram::bucket_index(3), 1);
        assert_eq!(Histogram::bucket_index(4), 2);
        assert_eq!(Histogram::bucket_index(7), 2);
        assert_eq!(Histogram::bucket_index(8), 3);
        assert_eq!(Histogram::bucket_index(u64::MAX), 63);
        // bucket_bounds is the inverse view.
        for i in 0..64 {
            let (lo, hi) = Histogram::bucket_bounds(i);
            assert_eq!(Histogram::bucket_index(lo), i);
            assert_eq!(Histogram::bucket_index(hi), i);
        }
    }

    #[test]
    fn histogram_summary_stats() {
        let mut h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
        for v in [0, 1, 2, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1103);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(1000));
        assert!((h.mean().unwrap() - 220.6).abs() < 1e-9);
        // 0 and 1 share bucket 0; 2, 100, 1000 land alone.
        let occ = h.occupied_buckets();
        assert_eq!(occ, vec![(0, 1, 2), (2, 3, 1), (64, 127, 1), (512, 1023, 1)]);
    }

    #[test]
    fn percentiles_track_buckets() {
        let mut h = Histogram::default();
        assert_eq!(h.percentile(0.5), None);
        for v in 1..=100u64 {
            h.record(v);
        }
        // p50's true value 50 lives in bucket [32,63]; the estimate is the
        // bucket's upper bound.
        assert_eq!(h.percentile(0.5), Some(63));
        // Extremes clamp to the observed range.
        assert_eq!(h.percentile(0.0), Some(1));
        assert_eq!(h.percentile(1.0), Some(100));
        // Single observation: every quantile is that value.
        let mut one = Histogram::default();
        one.record(42);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(one.percentile(q), Some(42));
        }
    }

    #[test]
    fn registry_counters_gauges() {
        let mut m = Metrics::default();
        m.counter("rows", 3);
        m.counter("rows", 4);
        m.gauge("fuel", 10);
        m.gauge("fuel", 7);
        assert_eq!(m.counter_value("rows"), 7);
        assert_eq!(m.counter_value("absent"), 0);
        assert_eq!(m.gauge_value("fuel"), Some(7));
        let mut lat = Histogram::default();
        lat.record(5);
        m.set_histogram("lat", lat);
        assert_eq!(m.histogram("lat").unwrap().count(), 1);
    }

    #[test]
    fn histogram_merge_adds_buckets() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        a.record(4);
        b.record(4);
        b.record(9);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum(), 17);
        assert_eq!(a.min(), Some(4));
        assert_eq!(a.max(), Some(9));
        assert_eq!(a.occupied_buckets(), vec![(4, 7, 2), (8, 15, 1)]);
    }
}
