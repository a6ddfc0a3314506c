//! # jgi-nav — a navigational XQuery evaluator (the pureXML™ stand-in)
//!
//! The paper's comparison point is DB2's built-in pureXML processor, whose
//! `XSCAN` operator evaluates XPath by *navigating* stored XML (the
//! TurboXPath algorithm). This crate reproduces that execution model over
//! the documents' pre/size/level encoding, the [`jgi_xml::DocStore`] the
//! relational back-end reads too (and usually the very same one, shared):
//! a child step hops from child to child by `size`, a descendant step
//! walks the `pre` range, parent and ancestor steps follow the `parent`
//! column, and following/preceding visit every row of the document. Each
//! node visited costs one step of the budget.
//!
//! * **whole-document mode** — every query walks the tree from the
//!   document root; a wildcard or `descendant` step visits entire subtrees
//!   (the paper: "the wildcard in Q5 forces the engine to scan the entire
//!   400 MB DBLP instance");
//! * **segmented mode** — an `XMLPATTERN`-like value index (built on the
//!   first segmented query) maps `(element/attribute name, value)` codes
//!   to nodes; selective value predicates then lead directly to few small
//!   segments and the remaining navigation is marginal (the paper's best
//!   case for Q3/Q5/Q6);
//! * value-based **joins** have no index support in either mode (pureXML
//!   "appears to miss the opportunity to perform value-based selections and
//!   joins early") — they run as nested loops and hit the step budget on
//!   larger instances, reported as *dnf* exactly like the paper's 20-hour
//!   cutoff.
//!
//! The evaluator consumes the same normalized [`jgi_xquery::Core`] dialect
//! as the relational compiler, so differential tests can pit all engines
//! against each other.

pub mod eval;

pub use eval::{NavDb, NavError, NavMode, NavOptions, NavStats};
