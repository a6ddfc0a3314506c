//! # jgi-engine — the relational workhorse
//!
//! A from-scratch relational back-end standing in for IBM DB2 V9 (see
//! DESIGN.md for the substitution argument). Nothing in here is
//! XML-specific: the engine provides exactly the *generic* infrastructure
//! the paper credits for its results —
//!
//! * [`table`] — materialized tables of [`jgi_algebra::Value`] rows;
//! * [`docrel`] — the `doc` encoding table as a relation;
//! * [`btree`] — real B+trees with composite keys, duplicates, and range
//!   scans (the only index structure, as in the paper);
//! * [`stats`] — per-column statistics and equi-depth histograms;
//! * [`catalog`] — a database: the `doc` store plus its indexes/statistics;
//! * [`optimizer`] — System-R-style left-deep dynamic-programming join
//!   ordering with B-tree access-path selection;
//! * [`physical`] — the physical operators of paper Table 7 (`IXSCAN`,
//!   `TBSCAN`, `NLJOIN`, `HSJOIN`, `SORT`, `RETURN`) and their executor:
//!   one thread per query, one columnar batch pipeline (see DESIGN.md
//!   §7–§8);
//! * [`explain`] — DB2-visual-explain-style plan rendering with the XPath
//!   *continuation* annotations of paper Figs. 10/11;
//! * [`advisor`] — a db2advis-like index advisor (paper Table 6);
//! * [`logical_exec`] — an operator-at-a-time interpreter of the *logical*
//!   algebra DAG. Executing the unrewritten stacked plan with it mirrors
//!   DB2 executing the stacked CTE SQL (materializing every fragment); it
//!   also serves as the reference semantics for differential tests.

pub mod advisor;
pub mod btree;
pub mod catalog;
pub mod docrel;
pub mod explain;
pub mod fastpred;
pub mod logical_exec;
pub mod optimizer;
pub mod physical;
pub mod stats;
pub mod table;

pub use catalog::{Database, Index, IndexCol, Symbols};
pub use logical_exec::{execute_serialized, ExecBudget, ExecError};
pub use table::Table;

/// Plan and execute a join-graph block in one call.
pub fn run_cq(db: &catalog::Database, cq: &jgi_algebra::ConjunctiveQuery) -> Vec<u32> {
    let plan = optimizer::plan(db, cq);
    physical::execute(db, &plan)
}
