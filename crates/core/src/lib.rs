//! # jgi-core — the XQuery-on-SQL-hosts processor, assembled
//!
//! This facade wires the whole stack of the reproduction together:
//!
//! ```text
//!  XQuery text ──parse──▶ AST ──normalize──▶ Core ──loop-lift──▶ algebra DAG
//!       │                                                          │
//!       │                                   join graph isolation (rules 1–19)
//!       │                                                          │
//!       ▼                                                          ▼
//!  navigational evaluation                   ConjunctiveQuery ──▶ SQL text
//!  (pureXML stand-in)                                │
//!                                     cost-based join planning + B-trees
//! ```
//!
//! [`Session`] owns the documents in all representations (tabular encoding
//! for the relational paths, trees for the navigational path) and runs a
//! prepared query on any of the four back-ends the paper benchmarks
//! ([`Engine`]): the isolated **join graph**, the unrewritten **stacked**
//! plan, and the navigational evaluator in **whole** and **segmented**
//! modes. [`queries`] collects the paper's query set Q0–Q6.

pub mod queries;
pub mod session;
pub mod xmltable;

pub use session::{
    execute_prepared, prepare_on, rewrite_counters, Budgets, Engine, ExecCtx, Parallelism,
    Prepared, QueryOutcome, QueryReport, Session, SessionError, PHASES,
};
pub use xmltable::xmltable;
