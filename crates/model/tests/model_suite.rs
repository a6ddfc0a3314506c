//! The model suite as a test: every catalog entry must match its
//! expectation, certified models must clear a schedule floor (vacuity
//! guard), and the flagship regression must reproduce the PR 6
//! underflow with a one-preemption minimal schedule.

use jgi_model::models::{catalog, queue, window, Expectation};
use jgi_model::{Config, Outcome};

/// Floor for certified models — an exploration this small would be
/// vacuous for protocols with three racing threads.
const MIN_SCHEDULES: u64 = 30;

#[test]
fn catalog_meets_expectations() {
    for spec in catalog() {
        let report = (spec.run)(&Config::default());
        match spec.expect {
            Expectation::Certify => {
                match report.outcome {
                    Outcome::Certified => {}
                    Outcome::Refuted { ref message, ref trace, .. } => panic!(
                        "{} must certify, got refutation: {message}\n{}",
                        spec.name,
                        trace.join("\n")
                    ),
                }
                assert!(!report.capped, "{}: exploration capped, certification incomplete", spec.name);
                assert!(
                    report.schedules >= MIN_SCHEDULES,
                    "{}: vacuous certification — only {} schedules",
                    spec.name,
                    report.schedules
                );
            }
            Expectation::Refute => {
                assert!(
                    matches!(report.outcome, Outcome::Refuted { .. }),
                    "{} must be refuted but certified over {} schedules",
                    spec.name,
                    report.schedules
                );
            }
        }
    }
}

#[test]
fn pre_pr6_queue_order_underflows_with_one_preemption() {
    let report = queue::check(queue::QueueOrder::EnqueueBeforeIncrement, &Config::default());
    match report.outcome {
        Outcome::Refuted { message, trace, preemptions } => {
            assert!(
                message.contains("underflow"),
                "expected the queue_len underflow, got: {message}"
            );
            assert_eq!(
                preemptions, 1,
                "the underflow needs exactly one preemption (minimal schedule)"
            );
            // The minimal schedule is a worker decrementing between a
            // producer's enqueue and its increment.
            assert!(
                trace.iter().any(|l| l.contains("queue_len.fetch_sub")),
                "trace must show the worker's decrement:\n{}",
                trace.join("\n")
            );
        }
        Outcome::Certified => panic!("pre-PR6 order must be refuted"),
    }
}

#[test]
fn stale_window_reset_is_refuted_and_shipped_rule_certifies() {
    let old = window::check(window::RotationRule::ResetOnMismatch, &Config::default());
    match old.outcome {
        Outcome::Refuted { message, .. } => {
            assert!(message.contains("stale-epoch"), "unexpected message: {message}");
        }
        Outcome::Certified => panic!("reset-on-mismatch rotation must be refuted"),
    }
    let shipped = window::check(window::RotationRule::DropStale, &Config::default());
    assert!(
        matches!(shipped.outcome, Outcome::Certified),
        "shipped drop-stale rotation must certify"
    );
}
