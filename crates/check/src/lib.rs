//! # jgi-check — static analysis for algebra plans
//!
//! The rewriter's claim to correctness rests on two pillars: the inferred
//! plan properties (`icols`/`const`/`key`/`set`, paper Tables 2–5) must be
//! *sound*, and every Fig. 5 rule fire must preserve plan semantics. This
//! crate certifies both, plus a lint pass for plan-shape smells:
//!
//! 1. [`cert`] — an independent, deliberately-naive re-derivation of the
//!    four properties (worklist fixpoints instead of the single-pass
//!    topological sweeps in `jgi_rewrite::props`) cross-checked node by
//!    node, and [`oracle`] — a dynamic falsifier that executes sub-plans
//!    on a small embedded document corpus and tries to refute claimed
//!    `const`/`key`/`set` facts with actual rows.
//! 2. [`audit`] — a [`jgi_rewrite::driver::RewriteObserver`] that audits
//!    every rewrite: schema preservation, constant-fact monotonicity,
//!    and (sampled) end-to-end result equivalence via the executor.
//!    Violations abort isolation with an error naming the rule and node.
//! 3. [`mod@lint`] — a registry of plan lints (dead column producers,
//!    redundant projections, stranded `δ`/`ϱ`/`#`, unpushed equi-joins,
//!    redundant self-joins) with structured diagnostics.
//!
//! Everything here is read-only over the plan arena and gated behind
//! explicit calls — the `JGI_CHECK=1` wiring lives in the rewrite driver
//! and in `jgi-core`'s `Session`.

pub mod audit;
pub mod cert;
pub mod corpus;
pub mod lint;
pub mod oracle;
pub mod sync_lint;

use jgi_algebra::NodeId;
use jgi_rewrite::driver::IsolateError;
use std::fmt;

pub use audit::{checked_isolate, AuditObserver, AuditReport};
pub use cert::certify;
pub use lint::{lint, LintDiag, LINTS};
pub use oracle::{falsify, OracleConfig};
pub use sync_lint::{scan_source, scan_workspace, SyncDiag, SyncRule};

/// One certification violation: a property fact claimed by
/// `jgi_rewrite::props` that the checker could not reproduce (static
/// cross-check) or that the executor refuted (dynamic oracle).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which property or check failed (`"icols"`, `"const"`, `"key"`,
    /// `"set"`).
    pub kind: &'static str,
    /// The node the claim is about.
    pub node: NodeId,
    /// What was claimed and what the checker saw instead.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] node {}: {}", self.kind, self.node.0, self.message)
    }
}

/// Failure of a fully-checked isolation run ([`checked_isolate`]).
#[derive(Debug, Clone)]
pub enum CheckError {
    /// A rule fire was rejected by the audit pass (or produced an invalid
    /// plan under `JGI_CHECK=1`).
    Audit(IsolateError),
    /// Property certification of the final plan failed.
    Cert(Vec<Violation>),
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::Audit(e) => write!(f, "rule audit: {e}"),
            CheckError::Cert(vs) => {
                write!(f, "property certification: {} violation(s)", vs.len())?;
                for v in vs.iter().take(4) {
                    write!(f, "; {v}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for CheckError {}

impl From<IsolateError> for CheckError {
    fn from(e: IsolateError) -> CheckError {
        CheckError::Audit(e)
    }
}
