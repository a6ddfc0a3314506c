//! Window-histogram epoch rotation (`jgi-obs` `WindowHistogram`).
//!
//! The real registry computes the current epoch *before* taking its
//! lock, so an observer can reach the ring holding a stale epoch
//! after the clock (and other observers) moved on. Ring slots are reused
//! by `epoch % slots`, lazily rotated on first touch. The rule under
//! test is what rotation does on an epoch mismatch:
//!
//! * `ResetOnMismatch` (the old rule): any mismatch resets the slot to
//!   the observer's epoch — a *stale* observer rotates the slot
//!   backwards and wipes counts a newer epoch already recorded. Refuted.
//! * `DropStale` (the shipped rule): only a *newer* epoch rotates the
//!   slot; a stale observation still lands in the lifetime totals but is
//!   dropped from the windowed view. Certified, with lifetime
//!   conservation intact.

use std::sync::Arc;

use crate::sync::{AtomicUsize, Mutex};
use crate::{ensure, explore, thread, Config, Report};

const SLOTS: usize = 2;

/// Rotation rule on epoch mismatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RotationRule {
    /// Old: reset the slot to the observer's epoch unconditionally.
    ResetOnMismatch,
    /// Shipped: rotate forward only; stale observations count toward
    /// lifetime totals but never touch the ring.
    DropStale,
}

struct Ring {
    /// `(epoch, count)` per slot; `u64::MAX` marks a virgin slot.
    slices: [(u64, u64); SLOTS],
    lifetime: u64,
}

struct W {
    clock: AtomicUsize,
    ring: Mutex<Ring>,
}

fn observe(w: &W, rule: RotationRule) {
    // Epoch is read before the lock — the race under test.
    let epoch = w.clock.load_relaxed() as u64;
    let mut ring = w.ring.lock();
    let slot = (epoch as usize) % SLOTS;
    let current = ring.slices[slot].0;
    if current == epoch {
        ring.slices[slot].1 += 1;
    } else {
        match rule {
            RotationRule::ResetOnMismatch => {
                ensure!(
                    current == u64::MAX || current < epoch,
                    "stale-epoch reset: slot {slot} at epoch {current} rotated backwards to \
                     epoch {epoch}, wiping {} count(s)",
                    ring.slices[slot].1
                );
                ring.slices[slot] = (epoch, 1);
            }
            RotationRule::DropStale => {
                if current == u64::MAX || current < epoch {
                    ring.slices[slot] = (epoch, 1);
                }
                // else: stale observer — lifetime only.
            }
        }
    }
    ring.lifetime += 1;
}

/// A ticker advances the epoch clock by two while two observers record;
/// one observer can hold a pre-tick epoch when it reaches the ring.
pub fn check(rule: RotationRule, cfg: &Config) -> Report {
    explore(cfg, move || {
        let w = Arc::new(W {
            clock: AtomicUsize::named("epoch_clock", 0),
            ring: Mutex::named("window_ring", Ring {
                slices: [(u64::MAX, 0); SLOTS],
                lifetime: 0,
            }),
        });
        let ticker = {
            let w = Arc::clone(&w);
            thread::spawn("ticker", move || {
                w.clock.fetch_add_relaxed(1);
                w.clock.fetch_add_relaxed(1);
            })
        };
        let observers: Vec<_> = ["observer-a", "observer-b"]
            .into_iter()
            .map(|name| {
                let w = Arc::clone(&w);
                thread::spawn(name, move || observe(&w, rule))
            })
            .collect();
        ticker.join().expect("ticker");
        for o in observers {
            o.join().expect("observer");
        }
        let ring = w.ring.lock();
        ensure!(ring.lifetime == 2, "lifetime lost: {} observations of 2", ring.lifetime);
        let windowed: u64 = ring
            .slices
            .iter()
            .filter(|&&(epoch, _)| epoch != u64::MAX)
            .map(|&(_, count)| count)
            .sum();
        ensure!(
            windowed <= ring.lifetime,
            "windowed counts {windowed} exceed lifetime {}",
            ring.lifetime
        );
    })
}
