//! # jgi-mutate — live document mutation over the pre/size/level encoding
//!
//! The tabular infoset encoding (paper §2.1) keys every node by its
//! document-order rank `pre`, which is what makes XPath axes cheap range
//! predicates — and what makes updates renumber: one subtree insert moves
//! every following node. This crate does exactly that, in place, on one
//! dense copy-on-write [`jgi_xml::DocStore`] per document
//! ([`OverlayDoc`]): an insert encodes the fragment with the loader's own
//! encoder and splices its rows in, a delete drains a subtree's rows, a
//! replace does both at one slot, and each repairs `parent` pointers past
//! the edit and `size` along the ancestor chain. After every operation the
//! columns equal a from-scratch encode of the mutated document, which the
//! full-reparse oracle suite (`tests/oracle.rs`) checks.
//!
//! `jgi-serve` builds its transactional multi-document commit on top: one
//! `OverlayDoc` per loaded document, cloned per batch, and a snapshot
//! rebuilt only for the documents a commit touched, published with a
//! single atomic swap (DESIGN.md §11).

mod edit;

pub use edit::OverlayDoc;

use jgi_xml::{NodeId, NodeKind, Tree};
use std::fmt;

/// One subtree mutation, addressed in the document's current numbering —
/// the `pre` ranks clients observe in query results.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Insert the parsed `xml` fragment as the `pos`-th content child of
    /// the element at `parent` (`pos` is clamped to the child count;
    /// attributes stay pinned before position 0).
    Insert {
        /// `pre` rank of the target parent (must be an element).
        parent: u32,
        /// Content-child position, clamped.
        pos: u32,
        /// Fragment text: a single well-formed element.
        xml: String,
    },
    /// Delete the subtree rooted at `pre` (any node except a document
    /// root).
    Delete {
        /// `pre` rank of the subtree root.
        pre: u32,
    },
    /// Replace the subtree at `pre` with the parsed `xml` fragment,
    /// keeping its position (any node except a document root or an
    /// attribute).
    Replace {
        /// `pre` rank of the subtree to replace.
        pre: u32,
        /// Replacement text: a single well-formed element.
        xml: String,
    },
}

/// Why a mutation was rejected. Every variant maps to a stable wire code
/// (PROTOCOL.md); rejected operations leave the document untouched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MutateError {
    /// The target document is not loaded (raised by the serve layer).
    BadDoc(String),
    /// The target `pre` rank does not exist or has the wrong node kind.
    BadTarget(String),
    /// The fragment failed to parse, is not a single element, or would
    /// nest elements deeper than [`jgi_xml::MAX_DEPTH`].
    BadFragment(String),
}

impl fmt::Display for MutateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MutateError::BadDoc(m) => write!(f, "unknown document: {m}"),
            MutateError::BadTarget(m) => write!(f, "bad mutation target: {m}"),
            MutateError::BadFragment(m) => write!(f, "bad fragment: {m}"),
        }
    }
}

impl std::error::Error for MutateError {}

impl MutateError {
    /// Stable machine-readable code for protocol replies.
    pub fn code(&self) -> &'static str {
        match self {
            MutateError::BadDoc(_) => "mutate_doc",
            MutateError::BadTarget(_) => "mutate_target",
            MutateError::BadFragment(_) => "mutate_fragment",
        }
    }
}

/// Parse a mutation fragment: a single well-formed element (attributes and
/// arbitrary content inside are fine). Returns the parsed tree and the id
/// of the fragment's root element within it.
pub fn parse_fragment(xml: &str) -> Result<(Tree, NodeId), MutateError> {
    let tree =
        jgi_xml::parse("#fragment", xml).map_err(|e| MutateError::BadFragment(e.to_string()))?;
    let kids = tree.content_children(tree.root());
    if kids.len() != 1 || tree.node(kids[0]).kind != NodeKind::Elem {
        return Err(MutateError::BadFragment(
            "fragment must be exactly one element".to_string(),
        ));
    }
    let root = kids[0];
    Ok((tree, root))
}
