//! Recursive-descent parser for the workhorse fragment.
//!
//! Accepts the grammar of paper Fig. 1 plus the abbreviations used by the
//! paper's queries: FLWOR with multiple `for`/`let` clauses and a `where`
//! clause, predicates `e[p]`, `//`, `@`, `*`, `and`, `.`, `data(·)`,
//! `fs:ddo(·)`, `fn:boolean(·)`, and sequence expressions `(e1, e2, …)`.

use crate::ast::{Axis, CompOp, Expr, Literal, NodeTest};
use crate::error::{ParseError, ParseResult};
use crate::lexer::{tokenize, Token, TokenKind};

/// Deepest expression nesting a query may have (the whole query is level 1;
/// each parenthesis, predicate, function argument, FLWOR clause or branch
/// opens another). The parser recurses through about nine frames per level
/// — roughly 10 kB of stack in a debug build — so the bound keeps a query
/// well inside a 2 MiB thread stack, and deeper input is an error instead
/// of a stack overflow.
pub const MAX_DEPTH: usize = 64;

/// Parser configuration.
#[derive(Debug, Clone, Default)]
pub struct ParserOptions {
    /// Document URI substituted for a leading `/` or `//` (XPath's "context
    /// document"). Table 8 queries such as `/site/people/person…` need this.
    pub context_doc: Option<String>,
}

/// Parse a complete query.
pub fn parse_query(input: &str, opts: &ParserOptions) -> ParseResult<Expr> {
    let tokens = tokenize(input)?;
    let mut p = Parser { tokens, pos: 0, depth: 0, opts };
    let e = p.parse_expr()?;
    p.expect_eof()?;
    Ok(e)
}

struct Parser<'a> {
    tokens: Vec<Token>,
    pos: usize,
    /// Levels of [`Parser::parse_expr`] currently open.
    depth: usize,
    opts: &'a ParserOptions,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek2(&self) -> &TokenKind {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].kind
    }

    fn offset(&self) -> usize {
        self.tokens[self.pos].offset
    }

    fn bump(&mut self) -> TokenKind {
        let t = self.tokens[self.pos].kind.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError::new(self.offset(), msg)
    }

    fn expect(&mut self, kind: &TokenKind) -> ParseResult<()> {
        if self.peek() == kind {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!("expected {}, found {}", kind.describe(), self.peek().describe())))
        }
    }

    fn expect_eof(&self) -> ParseResult<()> {
        if matches!(self.peek(), TokenKind::Eof) {
            Ok(())
        } else {
            Err(self.err(format!("unexpected {} after query", self.peek().describe())))
        }
    }

    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), TokenKind::Name(n) if n == kw)
    }

    fn eat_keyword(&mut self, kw: &str) -> ParseResult<()> {
        if self.at_keyword(kw) {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!("expected `{kw}`, found {}", self.peek().describe())))
        }
    }

    fn parse_var_name(&mut self) -> ParseResult<String> {
        self.expect(&TokenKind::Dollar)?;
        match self.bump() {
            TokenKind::Name(n) => Ok(n),
            other => Err(self.err(format!("expected variable name, found {}", other.describe()))),
        }
    }

    /// Every re-entry into the expression grammar passes through here, so
    /// this is where nesting is counted and bounded.
    fn parse_expr(&mut self) -> ParseResult<Expr> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("expressions nest deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let e = self.parse_expr_unbounded();
        self.depth -= 1;
        e
    }

    // expr := flwor | if | and-expr
    fn parse_expr_unbounded(&mut self) -> ParseResult<Expr> {
        if (self.at_keyword("for") || self.at_keyword("let"))
            && matches!(self.peek2(), TokenKind::Dollar)
        {
            return self.parse_flwor();
        }
        if self.at_keyword("if") && matches!(self.peek2(), TokenKind::LParen) {
            return self.parse_if();
        }
        self.parse_and()
    }

    /// FLWOR: (`for`/`let` clause)+ [`where` e] `return` e.
    /// The `where` clause desugars into `if (cond) then body else ()` around
    /// the return expression (XQuery Core normalization, [9, §4.8.1]).
    fn parse_flwor(&mut self) -> ParseResult<Expr> {
        enum Clause {
            For(String, Expr),
            Let(String, Expr),
        }
        let mut clauses = Vec::new();
        loop {
            if self.at_keyword("for") && matches!(self.peek2(), TokenKind::Dollar) {
                self.bump();
                loop {
                    let var = self.parse_var_name()?;
                    self.eat_keyword("in")?;
                    let seq = self.parse_expr_single()?;
                    clauses.push(Clause::For(var, seq));
                    if matches!(self.peek(), TokenKind::Comma) {
                        self.bump();
                    } else {
                        break;
                    }
                }
            } else if self.at_keyword("let") && matches!(self.peek2(), TokenKind::Dollar) {
                self.bump();
                loop {
                    let var = self.parse_var_name()?;
                    self.expect(&TokenKind::Assign)?;
                    let value = self.parse_expr_single()?;
                    clauses.push(Clause::Let(var, value));
                    if matches!(self.peek(), TokenKind::Comma) {
                        self.bump();
                    } else {
                        break;
                    }
                }
            } else {
                break;
            }
        }
        let cond = if self.at_keyword("where") {
            self.bump();
            Some(self.parse_expr_single()?)
        } else {
            None
        };
        self.eat_keyword("return")?;
        let mut body = self.parse_expr_single()?;
        if let Some(cond) = cond {
            body = Expr::If {
                cond: Box::new(cond),
                then: Box::new(body),
                els: Box::new(Expr::Seq(vec![])),
            };
        }
        for clause in clauses.into_iter().rev() {
            body = match clause {
                Clause::For(var, seq) => {
                    Expr::For { var, seq: Box::new(seq), body: Box::new(body) }
                }
                Clause::Let(var, value) => {
                    Expr::Let { var, value: Box::new(value), body: Box::new(body) }
                }
            };
        }
        Ok(body)
    }

    /// A single expression (no top-level comma).
    fn parse_expr_single(&mut self) -> ParseResult<Expr> {
        self.parse_expr()
    }

    fn parse_if(&mut self) -> ParseResult<Expr> {
        self.eat_keyword("if")?;
        self.expect(&TokenKind::LParen)?;
        let cond = self.parse_seq_body()?;
        self.expect(&TokenKind::RParen)?;
        self.eat_keyword("then")?;
        let then = self.parse_expr_single()?;
        self.eat_keyword("else")?;
        let els = self.parse_expr_single()?;
        Ok(Expr::If { cond: Box::new(cond), then: Box::new(then), els: Box::new(els) })
    }

    fn parse_and(&mut self) -> ParseResult<Expr> {
        let mut lhs = self.parse_cmp()?;
        while self.at_keyword("and") {
            self.bump();
            let rhs = self.parse_cmp()?;
            lhs = Expr::And(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_cmp(&mut self) -> ParseResult<Expr> {
        let lhs = self.parse_path()?;
        let op = match self.peek() {
            TokenKind::Eq => CompOp::Eq,
            TokenKind::Ne => CompOp::Ne,
            TokenKind::Lt => CompOp::Lt,
            TokenKind::Le => CompOp::Le,
            TokenKind::Gt => CompOp::Gt,
            TokenKind::Ge => CompOp::Ge,
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.parse_path()?;
        Ok(Expr::Comparison { op, lhs: Box::new(lhs), rhs: Box::new(rhs) })
    }

    /// Path expression: optional leading `/`/`//` (rooted at the context
    /// document), then `/`- or `//`-separated steps.
    fn parse_path(&mut self) -> ParseResult<Expr> {
        let mut current;
        match self.peek() {
            TokenKind::Slash => {
                self.bump();
                current = self.context_doc()?;
                if self.starts_step() {
                    current = self.parse_step(current, false)?;
                } else {
                    return Ok(current); // a lone `/`
                }
            }
            TokenKind::DoubleSlash => {
                self.bump();
                let doc = self.context_doc()?;
                current = self.parse_step(doc, true)?;
            }
            _ => {
                current = if self.starts_step() {
                    // Relative path: steps apply to the context item.
                    self.parse_step(Expr::ContextItem, false)?
                } else {
                    self.parse_postfixed_primary()?
                };
            }
        }
        loop {
            match self.peek() {
                TokenKind::Slash => {
                    self.bump();
                    current = self.parse_step(current, false)?;
                }
                TokenKind::DoubleSlash => {
                    self.bump();
                    current = self.parse_step(current, true)?;
                }
                _ => return Ok(current),
            }
        }
    }

    fn context_doc(&self) -> ParseResult<Expr> {
        match &self.opts.context_doc {
            Some(uri) => Ok(Expr::Doc(uri.clone())),
            None => Err(self.err(
                "rooted path (`/…`) requires ParserOptions::context_doc to name the context document",
            )),
        }
    }

    /// Does the upcoming token start an axis step (as opposed to a primary)?
    fn starts_step(&self) -> bool {
        match self.peek() {
            TokenKind::At | TokenKind::Star => true,
            TokenKind::Name(n) => {
                if matches!(self.peek2(), TokenKind::DoubleColon) {
                    return Axis::from_name(n).is_some();
                }
                if matches!(self.peek2(), TokenKind::LParen) {
                    // Kind tests are steps; known functions are primaries.
                    return is_kind_test_name(n);
                }
                true // bare name test (child axis)
            }
            _ => false,
        }
    }

    /// Parse one location step applied to `input`; `double` marks a `//`
    /// separator, desugared per the XPath spec:
    /// `e//child::n` ≡ `e/descendant::n`, otherwise
    /// `e//α::n` ≡ `e/descendant-or-self::node()/α::n`.
    fn parse_step(&mut self, input: Expr, double: bool) -> ParseResult<Expr> {
        let (axis, test) = match self.peek().clone() {
            TokenKind::At => {
                self.bump();
                (Axis::Attribute, self.parse_node_test()?)
            }
            TokenKind::Star => {
                self.bump();
                (Axis::Child, NodeTest::Wildcard)
            }
            TokenKind::Name(n) if matches!(self.peek2(), TokenKind::DoubleColon) => {
                let axis = Axis::from_name(&n)
                    .ok_or_else(|| self.err(format!("unknown axis `{n}`")))?;
                self.bump();
                self.bump(); // ::
                (axis, self.parse_node_test()?)
            }
            TokenKind::Name(_) => (Axis::Child, self.parse_node_test()?),
            other => {
                return Err(self.err(format!("expected a location step, found {}", other.describe())))
            }
        };
        let stepped = if double {
            if axis == Axis::Child {
                Expr::Step { input: Box::new(input), axis: Axis::Descendant, test }
            } else {
                let dos = Expr::Step {
                    input: Box::new(input),
                    axis: Axis::DescendantOrSelf,
                    test: NodeTest::AnyKind,
                };
                Expr::Step { input: Box::new(dos), axis, test }
            }
        } else {
            Expr::Step { input: Box::new(input), axis, test }
        };
        self.parse_predicates(stepped)
    }

    fn parse_node_test(&mut self) -> ParseResult<NodeTest> {
        if matches!(self.peek(), TokenKind::Star) {
            self.bump();
            return Ok(NodeTest::Wildcard);
        }
        let name = match self.bump() {
            TokenKind::Name(n) => n,
            other => return Err(self.err(format!("expected a node test, found {}", other.describe()))),
        };
        if matches!(self.peek(), TokenKind::LParen) && is_kind_test_name(&name) {
            self.bump(); // (
            let arg = match self.peek().clone() {
                TokenKind::Name(n) => {
                    self.bump();
                    Some(n)
                }
                TokenKind::Str(s) => {
                    self.bump();
                    Some(s)
                }
                TokenKind::Star => {
                    self.bump();
                    None
                }
                _ => None,
            };
            self.expect(&TokenKind::RParen)?;
            return Ok(match name.as_str() {
                "node" => NodeTest::AnyKind,
                "text" => NodeTest::Text,
                "comment" => NodeTest::Comment,
                "processing-instruction" => NodeTest::Pi(arg),
                "element" => NodeTest::Element(arg),
                "attribute" => NodeTest::AttributeTest(arg),
                "document-node" => NodeTest::Document,
                _ => unreachable!("is_kind_test_name checked"),
            });
        }
        Ok(NodeTest::Name(name))
    }

    /// Zero or more `[pred]` suffixes.
    fn parse_predicates(&mut self, mut input: Expr) -> ParseResult<Expr> {
        while matches!(self.peek(), TokenKind::LBracket) {
            self.bump();
            let pred = self.parse_seq_body()?;
            self.expect(&TokenKind::RBracket)?;
            input = Expr::Filter { input: Box::new(input), pred: Box::new(pred) };
        }
        Ok(input)
    }

    /// A primary expression followed by optional predicates.
    fn parse_postfixed_primary(&mut self) -> ParseResult<Expr> {
        let primary = self.parse_primary()?;
        self.parse_predicates(primary)
    }

    fn parse_primary(&mut self) -> ParseResult<Expr> {
        match self.peek().clone() {
            TokenKind::Dollar => {
                let name = self.parse_var_name()?;
                Ok(Expr::Var(name))
            }
            TokenKind::Str(s) => {
                self.bump();
                Ok(Expr::Literal(Literal::String(s)))
            }
            TokenKind::Num(n) => {
                self.bump();
                Ok(Expr::Literal(Literal::Number(n)))
            }
            TokenKind::Dot => {
                self.bump();
                Ok(Expr::ContextItem)
            }
            TokenKind::LParen => {
                self.bump();
                if matches!(self.peek(), TokenKind::RParen) {
                    self.bump();
                    return Ok(Expr::Seq(vec![]));
                }
                let body = self.parse_seq_body()?;
                self.expect(&TokenKind::RParen)?;
                Ok(body)
            }
            TokenKind::Name(n) if matches!(self.peek2(), TokenKind::LParen) => {
                self.bump(); // name
                self.bump(); // (
                let call = self.parse_call(&n)?;
                self.expect(&TokenKind::RParen)?;
                Ok(call)
            }
            other => Err(self.err(format!("expected an expression, found {}", other.describe()))),
        }
    }

    /// Body of `( … )` or `[ … ]`: one expression or a comma sequence.
    fn parse_seq_body(&mut self) -> ParseResult<Expr> {
        let first = self.parse_expr_single()?;
        if !matches!(self.peek(), TokenKind::Comma) {
            return Ok(first);
        }
        let mut items = vec![first];
        while matches!(self.peek(), TokenKind::Comma) {
            self.bump();
            items.push(self.parse_expr_single()?);
        }
        Ok(Expr::Seq(items))
    }

    fn parse_call(&mut self, name: &str) -> ParseResult<Expr> {
        match name {
            "doc" | "fn:doc" => match self.bump() {
                TokenKind::Str(uri) => Ok(Expr::Doc(uri)),
                other => {
                    Err(self.err(format!("doc() expects a string literal, found {}", other.describe())))
                }
            },
            "data" | "fn:data" => {
                let e = self.parse_seq_body()?;
                Ok(Expr::Data(Box::new(e)))
            }
            "fs:ddo" | "fn:distinct-doc-order" => {
                let e = self.parse_seq_body()?;
                Ok(Expr::Ddo(Box::new(e)))
            }
            "fn:boolean" | "boolean" => {
                let e = self.parse_seq_body()?;
                Ok(Expr::Boolean(Box::new(e)))
            }
            _ => Err(self.err(format!("unknown function `{name}`"))),
        }
    }
}

fn is_kind_test_name(n: &str) -> bool {
    matches!(
        n,
        "node" | "text" | "comment" | "processing-instruction" | "element" | "attribute"
            | "document-node"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Expr {
        parse_query(s, &ParserOptions::default()).unwrap()
    }

    fn parse_ctx(s: &str, doc: &str) -> Expr {
        parse_query(s, &ParserOptions { context_doc: Some(doc.to_string()) }).unwrap()
    }

    #[test]
    fn q1_paper_query() {
        let e = parse(r#"doc("auction.xml")/descendant::open_auction[bidder]"#);
        // Filter(Step(Doc, descendant, open_auction), Step(., child, bidder))
        match e {
            Expr::Filter { input, pred } => {
                match *input {
                    Expr::Step { input: doc, axis, test } => {
                        assert_eq!(*doc, Expr::Doc("auction.xml".into()));
                        assert_eq!(axis, Axis::Descendant);
                        assert_eq!(test, NodeTest::Name("open_auction".into()));
                    }
                    other => panic!("unexpected input: {other:?}"),
                }
                match *pred {
                    Expr::Step { input, axis, test } => {
                        assert_eq!(*input, Expr::ContextItem);
                        assert_eq!(axis, Axis::Child);
                        assert_eq!(test, NodeTest::Name("bidder".into()));
                    }
                    other => panic!("unexpected pred: {other:?}"),
                }
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn q2_paper_query_parses() {
        let q2 = r#"
            let $a := doc("auction.xml")
            for $ca in $a//closed_auction[price > 500],
                $i in $a//item,
                $c in $a//category
            where $ca/itemref/@item = $i/@id
              and $i/incategory/@category = $c/@id
            return $c/name"#;
        let e = parse(q2);
        // let > for(ca) > for(i) > for(c) > if(where) > path
        match e {
            Expr::Let { var, body, .. } => {
                assert_eq!(var, "a");
                let mut cur = *body;
                for expected in ["ca", "i", "c"] {
                    match cur {
                        Expr::For { var, body, .. } => {
                            assert_eq!(var, expected);
                            cur = *body;
                        }
                        other => panic!("expected for, got {other:?}"),
                    }
                }
                match cur {
                    Expr::If { cond, els, .. } => {
                        assert!(matches!(*cond, Expr::And(_, _)));
                        assert!(els.is_empty_seq());
                    }
                    other => panic!("expected where-if, got {other:?}"),
                }
            }
            other => panic!("expected let, got {other:?}"),
        }
    }

    #[test]
    fn double_slash_desugars() {
        let e = parse(r#"doc("d")//bidder"#);
        match e {
            Expr::Step { axis, .. } => assert_eq!(axis, Axis::Descendant),
            other => panic!("{other:?}"),
        }
        // `//@id` keeps the attribute axis behind a descendant-or-self step.
        let e = parse(r#"doc("d")//@id"#);
        match e {
            Expr::Step { input, axis, .. } => {
                assert_eq!(axis, Axis::Attribute);
                assert!(matches!(
                    *input,
                    Expr::Step { axis: Axis::DescendantOrSelf, test: NodeTest::AnyKind, .. }
                ));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rooted_paths_need_context_doc() {
        assert!(parse_query("/site/people", &ParserOptions::default()).is_err());
        let e = parse_ctx("/site/people/person[@id = \"person0\"]/name/text()", "auction.xml");
        // Smoke-test the spine: text() step on top.
        match e {
            Expr::Step { test: NodeTest::Text, .. } => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn wildcard_and_kind_tests() {
        let e = parse_ctx("/dblp/*", "dblp.xml");
        match e {
            Expr::Step { test: NodeTest::Wildcard, axis: Axis::Child, .. } => {}
            other => panic!("{other:?}"),
        }
        let e = parse(r#"doc("d")/child::node()"#);
        match e {
            Expr::Step { test: NodeTest::AnyKind, .. } => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn if_then_else_and_functions() {
        let e = parse(r#"for $x in fs:ddo(doc("a")/descendant::open_auction)
                         return if (fn:boolean(fs:ddo($x/child::bidder))) then $x else ()"#);
        match e {
            Expr::For { body, .. } => match *body {
                Expr::If { cond, then, els } => {
                    assert!(matches!(*cond, Expr::Boolean(_)));
                    assert_eq!(*then, Expr::Var("x".into()));
                    assert!(els.is_empty_seq());
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn comparisons_and_literals() {
        let e = parse("$x/price > 500");
        match e {
            Expr::Comparison { op: CompOp::Gt, rhs, .. } => {
                assert_eq!(*rhs, Expr::Literal(Literal::Number(500.0)));
            }
            other => panic!("{other:?}"),
        }
        let e = parse(r#"$x/year < "1994""#);
        assert!(matches!(e, Expr::Comparison { op: CompOp::Lt, .. }));
    }

    #[test]
    fn sequences() {
        assert_eq!(parse("()"), Expr::Seq(vec![]));
        let e = parse("($a/title, $a/author, $a/year)");
        match e {
            Expr::Seq(items) => assert_eq!(items.len(), 3),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn data_of_context() {
        let e = parse("$x/price[data(.) > 500]");
        match e {
            Expr::Filter { pred, .. } => match *pred {
                Expr::Comparison { lhs, .. } => {
                    assert_eq!(*lhs, Expr::Data(Box::new(Expr::ContextItem)));
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn reverse_axes_parse() {
        for axis in ["parent", "ancestor", "preceding", "preceding-sibling", "ancestor-or-self"] {
            let q = format!("$x/{axis}::node()");
            let e = parse(&q);
            assert!(matches!(e, Expr::Step { .. }), "{q}");
        }
    }

    #[test]
    fn error_cases() {
        assert!(parse_query("for $x in", &ParserOptions::default()).is_err());
        assert!(parse_query("doc(42)", &ParserOptions::default()).is_err());
        assert!(parse_query("$x/unknown:fn()", &ParserOptions::default()).is_err());
        assert!(parse_query("if ($x) then $y", &ParserOptions::default()).is_err());
        assert!(parse_query("$x extra", &ParserOptions::default()).is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        // `levels` nested expression levels: the query itself plus one per
        // parenthesis.
        let nest = |levels: usize| {
            let n = levels - 1;
            format!("{}1{}", "(".repeat(n), ")".repeat(n))
        };
        assert_eq!(parse(&nest(MAX_DEPTH)), Expr::Literal(Literal::Number(1.0)));
        let err = parse_query(&nest(MAX_DEPTH + 1), &ParserOptions::default()).unwrap_err();
        assert!(err.to_string().contains("nest deeper"), "{err}");
        // Predicates count the same way.
        let preds = |levels: usize| {
            let n = levels - 1;
            format!("$x{}{}", "[a".repeat(n), "]".repeat(n))
        };
        assert!(parse_query(&preds(MAX_DEPTH), &ParserOptions::default()).is_ok());
        assert!(parse_query(&preds(MAX_DEPTH + 1), &ParserOptions::default()).is_err());
    }

    #[test]
    fn element_named_like_keyword_in_path() {
        // `and`/`return` are fine as element names in step position.
        let e = parse(r#"doc("d")/child::return/child::and"#);
        assert!(matches!(e, Expr::Step { .. }));
    }
}
