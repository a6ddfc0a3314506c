//! # jgi-model — deterministic interleaving checker for the serve/obs core
//!
//! The paper's pitch is that isolating the join graph lets a battle-tested
//! engine guarantee the hot path; our reproduction re-implements that hot
//! path as hand-rolled concurrency (atomic queue accounting, copy-on-write
//! snapshot publication, a bounded flight recorder). This crate is the
//! machinery that *proves* those protocols instead of stress-hoping: a
//! loom/CHESS-style stateless model checker, std-only.
//!
//! ## How it works
//!
//! * [`sync`] provides schedule-controlled stand-ins for the primitives the
//!   serving core uses — atomics with explicit-ordering methods,
//!   [`sync::Mutex`], [`sync::RwLock`] — and [`thread::spawn`] for model
//!   threads. Outside an exploration they behave exactly like `std::sync`
//!   (so the same types also back the `jgi-sync` facade under
//!   `cfg(jgi_model)` builds); inside one, every operation is a *yield
//!   point* where a cooperative scheduler decides which thread performs the
//!   next visible operation.
//! * [`mod@explore`] re-executes the model closure once per schedule,
//!   depth-first over the tree of scheduling decisions. Replay of a
//!   recorded choice prefix is exact because model code is deterministic
//!   given the interleaving. Enumeration is bounded CHESS-style: schedules
//!   are explored in order of *preemption count* (a context switch while
//!   the running thread could have continued), so a refutation is reported
//!   with the fewest preemptions that can produce it — the minimal
//!   failing schedule.
//! * **State-hash pruning**: at every decision the runtime hashes the
//!   global state (per-cell values, per-thread observation histories,
//!   thread statuses). A state reached twice behaves identically from
//!   there on, and depth-first order guarantees the first subtree finished
//!   before the second visit, so the duplicate subtree is cut. Pruning is
//!   keyed on `(state, preemptions-used)` so the remaining preemption
//!   budget matches.
//!
//! Invariant models for the live system — admission-queue accounting,
//!   snapshot/cache generation consistency, flight ring admission, window
//!   epoch rotation — live in [`models`], with the
//!   *refuted* historical variants (the pre-PR 6 `queue_len` underflow
//!   ordering, the stale-epoch window reset) kept as executable regression
//!   proofs. The `model-suite` binary runs the catalog and is wired into
//!   CI with a schedule-count floor as a vacuity guard.
//!
//! The checker explores sequentially-consistent interleavings; it proves
//! atomicity/interleaving properties, not weak-memory reorderings. The
//! memory-ordering audit for the surviving `Relaxed` sites is the static
//! half of the story (DESIGN.md §10).

// The scheduler is *built from* real std::sync primitives — this crate
// (with crates/sync) is exempt from the facade discipline it enforces.
#![allow(clippy::disallowed_types)]

pub mod explore;
pub mod models;
pub(crate) mod rt;
pub mod sync;
pub mod thread;

pub use explore::{explore, Config, Outcome, Report};

/// True while the calling thread is executing inside a model exploration
/// (i.e. its synchronization operations are schedule-controlled).
pub fn running_in_model() -> bool {
    rt::current_ctx().is_some()
}

/// Record a checked invariant. Inside an exploration a failure stops the
/// current schedule, captures the interleaving trace, and makes
/// [`explore()`] report [`Outcome::Refuted`] with the failing schedule.
/// Outside an exploration it panics like `assert!`.
#[macro_export]
macro_rules! ensure {
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            $crate::fail_invariant(format!($($fmt)+));
        }
    };
}

/// Implementation detail of [`ensure!`] — report an invariant violation.
pub fn fail_invariant(message: String) -> ! {
    rt::fail_current(message)
}
