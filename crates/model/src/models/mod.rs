//! Executable models of the serving core's concurrency protocols.
//!
//! Each model is a faithful miniature of the real protocol — same
//! operation order, same lock granularity, scaled-down constants so the
//! schedule space is exhaustively explorable — plus the historical or
//! deliberately-broken variant the checker must *refute*. Keeping the
//! refuted variants in the suite is the vacuity guard that matters most:
//! a checker that certifies everything proves nothing.
//!
//! | model                      | mirrors                                   |
//! |----------------------------|-------------------------------------------|
//! | [`queue`]                  | `jgi-serve` admission-queue accounting     |
//! | [`snapshot_cache`]         | the pre-mutation generation-keyed cache    |
//! | [`publish`]                | `jgi-serve` transactional mutation publish |
//! | [`plan_memo`]              | `jgi-serve` publish vs. physical-plan memo |
//! | [`flight`]                 | `jgi-obs` flight-recorder ring admission   |
//! | [`window`]                 | `jgi-obs` window-histogram epoch rotation  |

pub mod flight;
pub mod plan_memo;
pub mod publish;
pub mod queue;
pub mod snapshot_cache;
pub mod window;

use crate::{Config, Report};

/// What the suite expects from a model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expectation {
    /// Every schedule must satisfy the invariants.
    Certify,
    /// Some schedule must violate them (regression models).
    Refute,
}

/// One entry in the model suite.
pub struct ModelSpec {
    pub name: &'static str,
    pub about: &'static str,
    pub expect: Expectation,
    pub run: fn(&Config) -> Report,
}

/// The full suite, certified protocols first, then the regression models
/// that must be refuted.
pub fn catalog() -> Vec<ModelSpec> {
    vec![
        ModelSpec {
            name: "queue-accounting",
            about: "admission queue_len: increment-before-enqueue with rollback (shipped order)",
            expect: Expectation::Certify,
            run: |cfg| queue::check(queue::QueueOrder::IncrementBeforeEnqueue, cfg),
        },
        ModelSpec {
            name: "snapshot-cache-consistency",
            about: "generation-keyed plan cache never serves a stale plan across publish",
            expect: Expectation::Certify,
            run: |cfg| snapshot_cache::check(snapshot_cache::CacheKeying::ByGeneration, cfg),
        },
        ModelSpec {
            name: "snapshot-publish-atomicity",
            about: "single-swap publish: no reader sees a torn batch",
            expect: Expectation::Certify,
            run: |cfg| publish::check(publish::PublishMode::SingleSwap, cfg),
        },
        ModelSpec {
            name: "plan-memo-consistency",
            about: "id-keyed plan memo, no purge: no request runs another database's plan",
            expect: Expectation::Certify,
            run: |cfg| plan_memo::check(plan_memo::MemoKeying::ByDatabaseId, cfg),
        },
        ModelSpec {
            name: "flight-ring-admission",
            about: "flight recorder: two-phase admission keeps pools bounded, counters conserved",
            expect: Expectation::Certify,
            run: flight::check,
        },
        ModelSpec {
            name: "window-epoch-rotation",
            about: "window histogram: stale-epoch observers never rotate a slot backwards",
            expect: Expectation::Certify,
            run: |cfg| window::check(window::RotationRule::DropStale, cfg),
        },
        ModelSpec {
            name: "regression-queue-pre-pr6",
            about: "REGRESSION pre-PR6 enqueue-then-increment order: queue_len underflow",
            expect: Expectation::Refute,
            run: |cfg| queue::check(queue::QueueOrder::EnqueueBeforeIncrement, cfg),
        },
        ModelSpec {
            name: "regression-cache-unkeyed",
            about: "REGRESSION generation-unkeyed plan cache: serves a stale plan",
            expect: Expectation::Refute,
            run: |cfg| snapshot_cache::check(snapshot_cache::CacheKeying::QueryOnly, cfg),
        },
        ModelSpec {
            name: "regression-publish-per-doc",
            about: "REGRESSION per-document publish pointers: reader sees a torn batch",
            expect: Expectation::Refute,
            run: |cfg| publish::check(publish::PublishMode::PerDocument, cfg),
        },
        ModelSpec {
            name: "regression-plan-memo-unkeyed",
            about: "REGRESSION plan memo without the database id: runs the old database's plan",
            expect: Expectation::Refute,
            run: |cfg| plan_memo::check(plan_memo::MemoKeying::Unkeyed, cfg),
        },
        ModelSpec {
            name: "regression-window-stale-reset",
            about: "REGRESSION reset-on-mismatch rotation: stale observer rotates slot backwards",
            expect: Expectation::Refute,
            run: |cfg| window::check(window::RotationRule::ResetOnMismatch, cfg),
        },
    ]
}
