//! # jgi-algebra — the logical table algebra (paper Table 1)
//!
//! The compilation target language of the loop-lifting XQuery compiler: a
//! deliberately simple dialect of relational algebra over *tables* (bags of
//! rows with named columns), designed to match SQL engines:
//!
//! | operator | paper notation | here |
//! |---|---|---|
//! | serialize | ⊚ (plan root) | [`Op::Serialize`] |
//! | project/rename | π | [`Op::Project`] |
//! | select | σₚ | [`Op::Select`] |
//! | join | ⋈ₚ | [`Op::Join`] |
//! | cross product | × | [`Op::Cross`] |
//! | duplicate elimination | δ | [`Op::Distinct`] |
//! | column attach | @a:c | [`Op::Attach`] |
//! | row id | #a | [`Op::RowId`] |
//! | row rank | ϱ a:⟨b₁…bₙ⟩ | [`Op::Rank`] |
//! | XML encoding table | doc | [`Op::Doc`] |
//! | literal table | table literal | [`Op::Lit`] |
//! | disjoint union | — (extension for sequence exprs) | [`Op::Union`] |
//!
//! Plans are DAGs with structural sharing ([`Plan`] hash-conses nodes), so a
//! single `doc` leaf serves every node reference, exactly as in paper Fig. 4.
//!
//! [`pred`] provides the predicate language, including the XPath axis
//! predicates of paper Fig. 3 and the kind/name-test predicates.

pub mod col;
pub mod cq;
pub mod op;
pub mod plan;
pub mod pred;
pub mod pretty;
pub mod validate;
pub mod value;

pub use col::{Col, ColSet};
pub use cq::ConjunctiveQuery;
pub use op::Op;
pub use plan::{IdMap, Node, NodeId, OpId, Plan, SchemaId};
pub use pred::{axis_pred, test_pred, Atom, CmpOp, Pred, Scalar};
pub use value::Value;
