//! # jgi-rewrite — XQuery join graph isolation (paper §3)
//!
//! Rewrites the stacked plans produced by the loop-lifting compiler into the
//! *join graph + plan tail* shape that SQL query optimizers are built for:
//!
//! 1. [`props`] infers the four plan properties of paper §3.1 over the
//!    shared DAG: `icols` (columns required upstream, Table 2), `const`
//!    (constant columns, Table 3), `key` (candidate keys, Table 4), and
//!    `set` (duplicates eliminated upstream, Table 5);
//! 2. [`rules`] implements the rewrite rules (1)–(19) of paper Fig. 5,
//!    each guarded by the inferred properties;
//! 3. [`driver`] applies them with the goal order of §3.2 — house-cleaning
//!    throughout, then a single ϱ in the plan tail, then δ relocation with
//!    equi-join push-down and removal (the Fig. 6 staging);
//! 4. [`extract`] collapses the isolated plan into a
//!    [`jgi_algebra::ConjunctiveQuery`] — the
//!    `SELECT DISTINCT-FROM-WHERE-ORDER BY` block of Figs. 8/9.
//!
//! The XQuery order and duplicate semantics are preserved throughout; the
//! order-encoding ϱ rewrites rely on *order isomorphism* (rank columns are
//! only ever consumed by ordering contexts, so any order-preserving
//! re-encoding is legal — rules (9), (12), (13)).

pub mod driver;
pub mod extract;
pub mod props;
pub mod rules;

pub use driver::{isolate, IsolateStats};
pub use extract::{canonicalize, extract_cq, ExtractError};
pub use props::{infer, Props};
