//! A from-scratch XML 1.0 parser.
//!
//! Supports elements, attributes (single- or double-quoted), character data,
//! CDATA sections, comments, processing instructions, the XML declaration,
//! DOCTYPE declarations (skipped, no internal-subset entity definitions), and
//! the predefined/numeric entity references. Namespaces are treated
//! lexically (prefixed names are kept verbatim), which matches the paper's
//! schema-oblivious encoding.
//!
//! The parser is a single forward pass and populates a [`Tree`] directly, so
//! the `NodeId` = document-order invariant holds by construction.

use crate::error::{XmlError, XmlResult};
use crate::text::{is_xml_whitespace, unescape};
use crate::tree::{NodeId, Tree};

/// Deepest element nesting a document may have (the document element is
/// depth 1). The parser recurses once per level, so deeper input is an
/// error instead of a stack overflow; libxml2's default limit is the same.
/// Must stay within `u16`, the `level` column's type.
pub const MAX_DEPTH: usize = 256;

/// Options controlling parse behaviour.
#[derive(Debug, Clone, Copy)]
pub struct ParseOptions {
    /// Keep text nodes that consist only of whitespace (default: `false`,
    /// matching the whitespace-stripped instances the paper benchmarks on).
    pub keep_whitespace_text: bool,
    /// Keep comment nodes (default: `true`).
    pub keep_comments: bool,
    /// Keep processing instructions (default: `true`).
    pub keep_pis: bool,
}

impl Default for ParseOptions {
    fn default() -> Self {
        ParseOptions { keep_whitespace_text: false, keep_comments: true, keep_pis: true }
    }
}

/// Parse `input` into a [`Tree`] whose document URI is `uri`.
pub fn parse(uri: &str, input: &str) -> XmlResult<Tree> {
    parse_with(uri, input, ParseOptions::default())
}

/// Parse with explicit [`ParseOptions`].
pub fn parse_with(uri: &str, input: &str, opts: ParseOptions) -> XmlResult<Tree> {
    let mut p = Parser { input, bytes: input.as_bytes(), pos: 0, opts };
    let mut tree = Tree::new(uri);
    let root = tree.root();
    p.skip_prolog(&mut tree, root)?;
    // Exactly one document element.
    if !p.at(b'<') {
        return Err(p.err("expected document element"));
    }
    p.parse_element(&mut tree, root, 1)?;
    p.skip_misc(&mut tree, root)?;
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing content after document element"));
    }
    Ok(tree)
}

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    opts: ParseOptions,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> XmlError {
        XmlError::new(self.pos, msg)
    }

    fn at(&self, b: u8) -> bool {
        self.bytes.get(self.pos) == Some(&b)
    }

    fn starts_with(&self, s: &str) -> bool {
        self.input[self.pos..].starts_with(s)
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, s: &str) -> XmlResult<()> {
        if self.starts_with(s) {
            self.pos += s.len();
            Ok(())
        } else {
            Err(self.err(format!("expected `{s}`")))
        }
    }

    /// Skip XML declaration, DOCTYPE, and misc (comments/PIs/whitespace)
    /// before the document element; comments/PIs become root children.
    fn skip_prolog(&mut self, tree: &mut Tree, root: NodeId) -> XmlResult<()> {
        self.skip_ws();
        if self.starts_with("<?xml") {
            let end = self.input[self.pos..]
                .find("?>")
                .map(|p| self.pos + p + 2)
                .ok_or_else(|| self.err("unterminated XML declaration"))?;
            self.pos = end;
        }
        loop {
            self.skip_ws();
            if self.starts_with("<!--") {
                self.parse_comment(tree, root)?;
            } else if self.starts_with("<!DOCTYPE") {
                self.skip_doctype()?;
            } else if self.starts_with("<?") {
                self.parse_pi(tree, root)?;
            } else {
                return Ok(());
            }
        }
    }

    /// Misc after the document element.
    fn skip_misc(&mut self, tree: &mut Tree, root: NodeId) -> XmlResult<()> {
        loop {
            self.skip_ws();
            if self.starts_with("<!--") {
                self.parse_comment(tree, root)?;
            } else if self.starts_with("<?") {
                self.parse_pi(tree, root)?;
            } else {
                return Ok(());
            }
        }
    }

    fn skip_doctype(&mut self) -> XmlResult<()> {
        self.expect("<!DOCTYPE")?;
        // Skip to the matching `>`, honouring an optional [...] internal
        // subset (whose entity declarations we do not interpret).
        let mut depth = 0usize;
        while let Some(&b) = self.bytes.get(self.pos) {
            self.pos += 1;
            match b {
                b'[' => depth += 1,
                b']' => depth = depth.saturating_sub(1),
                b'>' if depth == 0 => return Ok(()),
                _ => {}
            }
        }
        Err(self.err("unterminated DOCTYPE"))
    }

    fn parse_name(&mut self) -> XmlResult<&'a str> {
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            let ok = b.is_ascii_alphanumeric()
                || matches!(b, b'_' | b'-' | b'.' | b':')
                || b >= 0x80;
            if !ok {
                break;
            }
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected a name"));
        }
        let first = self.bytes[start];
        if first.is_ascii_digit() || first == b'-' || first == b'.' {
            return Err(XmlError::new(start, "names may not start with a digit, '-' or '.'"));
        }
        Ok(&self.input[start..self.pos])
    }

    /// Parse the element starting here, nested `depth` levels deep.
    fn parse_element(&mut self, tree: &mut Tree, parent: NodeId, depth: usize) -> XmlResult<()> {
        if depth > MAX_DEPTH {
            return Err(self.err(format!("elements nest deeper than {MAX_DEPTH} levels")));
        }
        self.expect("<")?;
        let name = self.parse_name()?;
        let elem = tree.add_element(parent, name);
        // Attributes.
        loop {
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b'>') => {
                    self.pos += 1;
                    break;
                }
                Some(b'/') => {
                    self.expect("/>")?;
                    return Ok(());
                }
                Some(_) => {
                    let aname = self.parse_name()?;
                    self.skip_ws();
                    self.expect("=")?;
                    self.skip_ws();
                    let quote = match self.bytes.get(self.pos) {
                        Some(&q @ (b'"' | b'\'')) => q,
                        _ => return Err(self.err("expected quoted attribute value")),
                    };
                    self.pos += 1;
                    let vstart = self.pos;
                    while let Some(&b) = self.bytes.get(self.pos) {
                        if b == quote {
                            break;
                        }
                        if b == b'<' {
                            return Err(self.err("`<` not allowed in attribute value"));
                        }
                        self.pos += 1;
                    }
                    if !self.at(quote) {
                        return Err(self.err("unterminated attribute value"));
                    }
                    let raw = &self.input[vstart..self.pos];
                    self.pos += 1;
                    let value = unescape(raw, vstart)?;
                    tree.add_attr(elem, aname, &value);
                }
                None => return Err(self.err("unterminated start tag")),
            }
        }
        // Content.
        let mut pending_text = String::new();
        let mut text_start = self.pos;
        loop {
            if self.pos >= self.bytes.len() {
                return Err(self.err(format!("unterminated element <{name}>")));
            }
            if self.at(b'<') {
                if self.starts_with("</") {
                    self.flush_text(tree, elem, &mut pending_text, text_start)?;
                    self.expect("</")?;
                    let close = self.parse_name()?;
                    if close != name {
                        return Err(self.err(format!(
                            "mismatched end tag: expected </{name}>, found </{close}>"
                        )));
                    }
                    self.skip_ws();
                    self.expect(">")?;
                    return Ok(());
                } else if self.starts_with("<!--") {
                    self.flush_text(tree, elem, &mut pending_text, text_start)?;
                    self.parse_comment(tree, elem)?;
                    text_start = self.pos;
                } else if self.starts_with("<![CDATA[") {
                    // CDATA contributes raw text to the pending run.
                    self.pos += "<![CDATA[".len();
                    let end = self.input[self.pos..]
                        .find("]]>")
                        .map(|p| self.pos + p)
                        .ok_or_else(|| self.err("unterminated CDATA section"))?;
                    pending_text.push_str(&self.input[self.pos..end]);
                    self.pos = end + 3;
                } else if self.starts_with("<?") {
                    self.flush_text(tree, elem, &mut pending_text, text_start)?;
                    self.parse_pi(tree, elem)?;
                    text_start = self.pos;
                } else {
                    self.flush_text(tree, elem, &mut pending_text, text_start)?;
                    self.parse_element(tree, elem, depth + 1)?;
                    text_start = self.pos;
                }
            } else {
                let start = self.pos;
                while self.pos < self.bytes.len() && !self.at(b'<') {
                    self.pos += 1;
                }
                pending_text.push_str(&unescape(&self.input[start..self.pos], start)?);
            }
        }
    }

    /// Emit the accumulated character-data run as a single text node.
    fn flush_text(
        &mut self,
        tree: &mut Tree,
        parent: NodeId,
        pending: &mut String,
        _start: usize,
    ) -> XmlResult<()> {
        if pending.is_empty() {
            return Ok(());
        }
        if self.opts.keep_whitespace_text || !is_xml_whitespace(pending) {
            tree.add_text(parent, pending);
        }
        pending.clear();
        Ok(())
    }

    fn parse_comment(&mut self, tree: &mut Tree, parent: NodeId) -> XmlResult<()> {
        self.expect("<!--")?;
        let end = self.input[self.pos..]
            .find("-->")
            .map(|p| self.pos + p)
            .ok_or_else(|| self.err("unterminated comment"))?;
        let content = &self.input[self.pos..end];
        self.pos = end + 3;
        if self.opts.keep_comments {
            tree.add_comment(parent, content);
        }
        Ok(())
    }

    fn parse_pi(&mut self, tree: &mut Tree, parent: NodeId) -> XmlResult<()> {
        self.expect("<?")?;
        let target = self.parse_name()?;
        let end = self.input[self.pos..]
            .find("?>")
            .map(|p| self.pos + p)
            .ok_or_else(|| self.err("unterminated processing instruction"))?;
        let data = self.input[self.pos..end].trim_start();
        self.pos = end + 2;
        if self.opts.keep_pis {
            tree.add_pi(parent, target, data);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::NodeKind;

    #[test]
    fn parses_fig2_document() {
        let xml = r#"<open_auction id="1"><initial>15</initial><bidder>
            <time>18:43</time><increase>4.20</increase></bidder></open_auction>"#;
        let t = parse("auction.xml", xml).unwrap();
        t.assert_preorder();
        assert_eq!(t.len(), 10);
        let oa = t.content_children(t.root())[0];
        assert_eq!(t.name(oa), Some("open_auction"));
        assert_eq!(t.string_value(t.attrs(oa)[0]), "1");
    }

    #[test]
    fn whitespace_text_dropped_by_default() {
        let t = parse("u", "<a>  <b/>  </a>").unwrap();
        assert_eq!(t.len(), 3); // doc, a, b
        let opts = ParseOptions { keep_whitespace_text: true, ..Default::default() };
        let t2 = parse_with("u", "<a>  <b/>  </a>", opts).unwrap();
        assert_eq!(t2.len(), 5);
    }

    #[test]
    fn self_closing_and_quotes() {
        let t = parse("u", r#"<a x="1" y='two'/>"#).unwrap();
        let a = t.content_children(t.root())[0];
        assert_eq!(t.attrs(a).len(), 2);
        assert_eq!(t.string_value(t.attrs(a)[1]), "two");
    }

    #[test]
    fn entities_and_cdata() {
        let t = parse("u", "<a>x &lt;&amp;&gt; <![CDATA[raw <stuff> &amp;]]> y</a>").unwrap();
        let a = t.content_children(t.root())[0];
        // One merged text node.
        assert_eq!(t.content_children(a).len(), 1);
        assert_eq!(t.string_value(a), "x <&> raw <stuff> &amp; y");
    }

    #[test]
    fn comments_and_pis_parsed() {
        let t = parse("u", "<?xml version=\"1.0\"?><!-- top --><a><!-- in --><?pi data?></a>").unwrap();
        let kinds: Vec<NodeKind> = t.ids().map(|i| t.node(i).kind).collect();
        assert_eq!(
            kinds,
            vec![NodeKind::Doc, NodeKind::Comment, NodeKind::Elem, NodeKind::Comment, NodeKind::Pi]
        );
    }

    #[test]
    fn doctype_skipped() {
        let t = parse("u", "<!DOCTYPE dblp SYSTEM \"dblp.dtd\" [<!ENTITY x \"y\">]><a/>").unwrap();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn mismatched_tags_rejected() {
        assert!(parse("u", "<a><b></a></b>").is_err());
        assert!(parse("u", "<a>").is_err());
        assert!(parse("u", "<a></a><b/>").is_err());
        assert!(parse("u", "<a x=1/>").is_err());
        assert!(parse("u", "").is_err());
    }

    #[test]
    fn text_splits_around_child_elements() {
        let t = parse("u", "<a>one<b/>two</a>").unwrap();
        let a = t.content_children(t.root())[0];
        let kinds: Vec<NodeKind> =
            t.content_children(a).iter().map(|&c| t.node(c).kind).collect();
        assert_eq!(kinds, vec![NodeKind::Text, NodeKind::Elem, NodeKind::Text]);
    }

    #[test]
    fn nesting_is_limited_not_recursed_without_bound() {
        let nest = |n: usize| format!("{}{}", "<a>".repeat(n), "</a>".repeat(n));
        assert!(parse("u", &nest(MAX_DEPTH)).is_ok());
        assert!(parse("u", &nest(MAX_DEPTH + 1)).is_err());
        // Deep enough to overflow a 2 MiB thread stack without the limit.
        let err = parse("u", &nest(100_000)).unwrap_err();
        assert!(err.to_string().contains("deeper than"), "{err}");
    }

    #[test]
    fn prefixed_names_kept_verbatim() {
        let t = parse("u", r#"<ns:a xmlns:ns="urn:x" ns:attr="v"/>"#).unwrap();
        let a = t.content_children(t.root())[0];
        assert_eq!(t.name(a), Some("ns:a"));
        assert_eq!(t.name(t.attrs(a)[0]), Some("xmlns:ns"));
    }
}
