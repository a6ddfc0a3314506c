//! # jgi-xml — XML substrate for the XQuery join-graph-isolation stack
//!
//! This crate provides everything the rest of the workspace needs to get XML
//! documents in and out of the *tabular infoset encoding* of Grust et al.
//! (EDBT 2010, Fig. 2):
//!
//! * a from-scratch, dependency-free XML 1.0 parser ([`parser`]),
//! * an in-memory document tree ([`tree`]): the parser's output, the
//!   generators' and the encoder's input,
//! * the schema-oblivious **pre/size/level** encoding ([`encode`]): one row
//!   per node with columns `pre | size | level | kind | name | value | data`,
//! * a serializer turning encoded subtrees back into XML text ([`serialize`]),
//! * seeded synthetic workload generators for XMark-like auction documents
//!   and DBLP-like bibliography documents ([`generate`]).
//!
//! The encoding is the `doc` relation referenced by the table algebra: XPath
//! axis steps become conjunctive range predicates over `pre`, `size` and
//! `level` (paper Fig. 3), while kind/name tests and value comparisons become
//! equality/range predicates over `kind`, `name`, `value` and `data`.

pub mod encode;
pub mod error;
pub mod generate;
pub mod interner;
pub mod parser;
pub mod serialize;
pub mod text;
pub mod tree;

pub use encode::{DocStore, NameId, ValId, NO_NAME, NO_VALUE};
pub use error::{XmlError, XmlResult};
pub use interner::Interner;
pub use parser::{parse, ParseOptions, MAX_DEPTH};
pub use tree::{NodeId, NodeKind, Tree};
