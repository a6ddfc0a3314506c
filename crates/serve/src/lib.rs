//! # jgi-serve — the join-graph workhorse as a concurrent service
//!
//! The paper's economics: XQuery compilation (parse → loop-lift →
//! join-graph isolation → SQL emission) is the once-per-query cost; the
//! relational engine is the workhorse that repeats execution. This crate
//! serves that split to many clients at once:
//!
//! * [`Snapshot`] / [`Master`] — immutable, `Arc`-shared document state,
//!   **segmented per document** (each a [`snapshot::DocSnap`]: tabular
//!   encoding + eagerly-indexed [`jgi_engine::Database`] + navigational
//!   db built on first use, carrying its own version), swapped
//!   atomically on load and on mutation commit so readers never block
//!   writers and vice versa;
//!   unchanged documents share their `DocSnap` `Arc` across generations;
//! * live mutation — [`Server::commit`] applies a batch of
//!   [`jgi_mutate::Op`]s addressed in global `pre` ranks all-or-nothing
//!   by editing the touched documents' columns in place (copy-on-write:
//!   published snapshots are never written), bumps only the touched
//!   documents' versions, and publishes the next generation;
//! * [`PlanCache`] — LRU cache of full [`jgi_core::Prepared`] artifact
//!   sets keyed on `(query, context doc)`; nothing invalidates an entry
//!   (a compiled query depends on no document), and the one thing that
//!   does depend on the document — the physical plan — is memoised on the
//!   `Prepared` under the database's identity;
//! * [`Server`] — worker pool of N OS threads behind a *bounded*
//!   admission queue (full queue = immediate [`ServeError::Overloaded`]
//!   shed), per-request deadlines, structured errors end-to-end;
//! * [`protocol`] — the `jgi-served` line protocol (`LOAD` / `PREPARE` /
//!   `EXEC` / `EXPLAIN` / `INSERT` / `DELETE` / `REPLACE` / `STATS` /
//!   `METRICS` / `TRACE`, one JSON reply
//!   per line except the `METRICS` Prometheus block — the wire format is
//!   specified in PROTOCOL.md at the repository root).
//!
//! The service is measured from outside by the repository benchmark
//! (`benchmark/`, workloads `serve_read` and `serve_write_mix`).
//!
//! Service telemetry (this is DESIGN.md §9): each [`Server`] owns a
//! lock-striped always-on [`jgi_obs::Registry`] — request, shed, and
//! deadline counters, sliding-window latency histograms — exposed as
//! Prometheus text over `METRICS`, while a [`jgi_obs::FlightRecorder`]
//! retains the slowest and every anomalous request (full report, plan
//! fingerprint, EXPLAIN ANALYZE) for live `TRACE` dumps.
//!
//! Binary: `jgi-served` (stdin or TCP transport).

pub mod cache;
pub mod error;
pub mod protocol;
pub mod server;
pub mod snapshot;

pub use cache::{CacheKey, CacheStats, PlanCache};
pub use error::ServeError;
pub use protocol::{handle_command, parse_command, Command, Reply};
pub use server::{ExecReply, ServeConfig, Server};
pub use snapshot::{CommitOutcome, DocEntry, DocSnap, Master, Snapshot};

/// The `Send + Sync` audit, enforced at compile time: everything a worker
/// thread touches — the snapshot (store, database with its B-trees,
/// navigational db) and the cached `Prepared` artifacts (plan DAG, core
/// expression, SQL text, report) — must be freely shareable across OS
/// threads. A regression anywhere down the stack (an `Rc`, a `RefCell`, a
/// raw pointer) fails this compile, not a production service.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Snapshot>();
    assert_send_sync::<jgi_xml::DocStore>();
    assert_send_sync::<jgi_engine::Database>();
    assert_send_sync::<jgi_nav::NavDb>();
    assert_send_sync::<jgi_core::Prepared>();
    assert_send_sync::<Server>();
    assert_send_sync::<ServeError>();
    // Telemetry shared by every worker and the scrape path.
    assert_send_sync::<jgi_obs::Registry>();
    assert_send_sync::<jgi_obs::FlightRecorder>();
    // The jgi-sync facade itself: the model-build substitution must not
    // silently lose thread-safety relative to the std types it mirrors.
    assert_send_sync::<jgi_sync::AtomicUsize>();
    assert_send_sync::<jgi_sync::AtomicU64>();
    assert_send_sync::<jgi_sync::AtomicBool>();
    assert_send_sync::<jgi_sync::Mutex<Vec<u64>>>();
    assert_send_sync::<jgi_sync::RwLock<Vec<u64>>>();
};
