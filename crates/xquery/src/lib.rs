//! # jgi-xquery — frontend for the XQuery "workhorse" fragment
//!
//! Implements the source language of paper Fig. 1 — nested `for`/`let` over
//! node sequences, conditionals with an empty `else`, all 12 XPath axes with
//! name and kind tests, and general comparisons — plus the surface sugar the
//! paper's example queries use: path predicates `e[p]`, the `//` and `@`
//! abbreviations, `where` clauses, `and` in predicates, `data(·)`, and
//! parenthesized sequence expressions.
//!
//! The pipeline is:
//!
//! 1. [`lexer`] — tokenization;
//! 2. [`parser`] — recursive descent into the surface [`ast`];
//! 3. [`normalize()`] — **XQuery Core normalization** (paper §2.3): insert
//!    `fs:ddo(·)` after location steps, wrap conditional tests in
//!    `fn:boolean(·)`, expand predicates into `for`/`if`, desugar `//`, `@`,
//!    `where` and `and`; the result is the [`core`] dialect that the
//!    loop-lifting compiler (crate `jgi-compiler`) consumes.

pub mod ast;
pub mod core;
pub mod error;
pub mod lexer;
pub mod normalize;
pub mod parser;

pub use ast::{Axis, CompOp, Expr, Literal, NodeTest};
pub use core::{BoolCore, Core};
pub use error::{ParseError, ParseResult};
pub use normalize::{normalize, NormalizeError};
pub use parser::{parse_query, ParserOptions, MAX_DEPTH};

/// Parse and normalize in one step with default options.
pub fn compile_to_core(input: &str) -> Result<Core, String> {
    let ast = parse_query(input, &ParserOptions::default()).map_err(|e| e.to_string())?;
    normalize(&ast).map_err(|e| e.to_string())
}
