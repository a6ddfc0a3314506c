//! Sliding-window histograms: recent-traffic latency distributions for a
//! long-running service.
//!
//! A lifetime [`Histogram`] answers "what happened since the process
//! started", which is the wrong question for a server that has been up
//! for a week — yesterday's overload would flatten today's p99 forever.
//! A [`WindowHistogram`] keeps a ring of `slices` log-bucketed histograms
//! and rotates through them as time advances: slice `epoch % slices` is
//! reused for epoch `epoch`, so an observation lands in exactly one slice
//! and a slice older than the window is overwritten in place — fixed
//! memory, no allocation after construction, no background sweeper.
//!
//! Time is expressed as an *epoch* (a monotonically increasing slice
//! number) supplied by the caller — the [`crate::registry::Registry`]
//! derives it from one shared `Instant`, which keeps every window in the
//! registry aligned on the same slice boundaries and makes the type
//! trivially testable (tests pass epochs directly, no sleeping).

use crate::metrics::Histogram;

/// Default number of ring slices.
pub const DEFAULT_SLICES: usize = 8;

/// A ring of histograms covering the last `slices` epochs, plus a
/// cumulative lifetime histogram (Prometheus `_sum`/`_count` need a
/// monotone series; the window quantiles need recency).
#[derive(Debug, Clone)]
pub struct WindowHistogram {
    /// `(epoch, histogram)` per slot; `u64::MAX` marks a never-used slot.
    slices: Vec<(u64, Histogram)>,
    lifetime: Histogram,
}

impl WindowHistogram {
    /// A window of `slices` ring slots (clamped to ≥ 1).
    pub fn new(slices: usize) -> WindowHistogram {
        WindowHistogram {
            slices: vec![(u64::MAX, Histogram::default()); slices.max(1)],
            lifetime: Histogram::default(),
        }
    }

    /// Rotate `slot` forward for `epoch` if needed; returns false when the
    /// caller's epoch is *older* than what the slot holds — a stale writer
    /// (one that read the clock before a slice boundary and wrote after)
    /// must never rotate a slot backwards and wipe a newer slice's counts. The
    /// jgi-model `window-epoch-rotation` model refutes the old
    /// reset-on-any-mismatch rule and certifies this one.
    fn rotate_for(&mut self, slot: usize, epoch: u64) -> bool {
        let current = self.slices[slot].0;
        if current == epoch {
            return true;
        }
        if current == u64::MAX || current < epoch {
            self.slices[slot] = (epoch, Histogram::default());
            return true;
        }
        false
    }

    /// Record one observation at the given epoch. Reuses (and resets) the
    /// ring slot if it holds an older epoch; an observation carrying an
    /// epoch older than the slot's lands in the lifetime totals only.
    pub fn observe(&mut self, epoch: u64, v: u64) {
        let n = self.slices.len() as u64;
        let slot = (epoch % n) as usize;
        if self.rotate_for(slot, epoch) {
            self.slices[slot].1.record(v);
        }
        self.lifetime.record(v);
    }

    /// The merged distribution of every slice still inside the window
    /// ending at `now_epoch` (i.e. epochs in `(now_epoch - slices,
    /// now_epoch]`).
    pub fn window(&self, now_epoch: u64) -> Histogram {
        let n = self.slices.len() as u64;
        let mut out = Histogram::default();
        for (epoch, h) in &self.slices {
            if *epoch <= now_epoch && now_epoch - *epoch < n {
                out.merge(h);
            }
        }
        out
    }

    /// Everything ever observed.
    pub fn lifetime(&self) -> &Histogram {
        &self.lifetime
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_rotates_out_stale_slices() {
        let mut w = WindowHistogram::new(4);
        w.observe(0, 10);
        w.observe(1, 20);
        w.observe(2, 30);
        assert_eq!(w.window(2).count(), 3);
        // Epoch 4 reuses slot 0 (epoch 0's slice is overwritten).
        w.observe(4, 40);
        let win = w.window(4);
        assert_eq!(win.count(), 3, "epochs 1,2,4 remain in a 4-slice window");
        assert_eq!(win.min(), Some(20));
        // Lifetime keeps everything.
        assert_eq!(w.lifetime().count(), 4);
        assert_eq!(w.lifetime().min(), Some(10));
    }

    #[test]
    fn far_future_epoch_empties_the_window() {
        let mut w = WindowHistogram::new(4);
        for e in 0..4 {
            w.observe(e, 100);
        }
        assert_eq!(w.window(3).count(), 4);
        assert_eq!(w.window(100).count(), 0, "everything aged out");
        assert_eq!(w.lifetime().count(), 4);
    }

    #[test]
    fn stale_writer_cannot_rotate_a_slot_backwards() {
        // A writer that computed its epoch before a slice boundary
        // arrives after a newer epoch already claimed the slot. It must not wipe the
        // newer counts; its observation survives in the lifetime view.
        let mut w = WindowHistogram::new(2);
        w.observe(2, 30); // slot 0, epoch 2
        w.observe(0, 10); // stale writer: epoch 0 also maps to slot 0
        assert_eq!(w.slices[0].0, 2, "slot keeps the newer epoch");
        assert_eq!(w.window(2).count(), 1, "newer slice count survives");
        assert_eq!(w.window(2).min(), Some(30));
        assert_eq!(w.lifetime().count(), 2, "stale observation kept for lifetime");
    }
}
