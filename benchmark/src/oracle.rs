//! Reference results, never taken from the join-graph engine.
//!
//! A reference is the row count and a hash of the *serialized* result of one
//! query text. It comes from the navigational evaluator: from the committed
//! `expected/<docs>-<doc seed>.json` that `--bless` produced with the step
//! budget lifted, or — for a text the file does not list, such as a family
//! literal — live, under a budget (a text the evaluator cannot finish within
//! it is `unverified`, not wrong).

use crate::docs::{DocText, SessionDocs, DOC_SEED};
use crate::queries::{texts, QueryText, QueryType};
use jgi_nav::{NavError, NavMode, NavOptions};
use jgi_obs::Json;
use jgi_xml::serialize::serialize_nodes;
use jgi_xml::DocStore;
use jgi_xquery::{normalize, parse_query, ParserOptions};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Node visits the live oracle may spend on one text (~1.5 s here). Enough
/// for every text on the small documents and for the binary value joins on
/// the large ones; Q2 and JC on the large documents need 5–40× more, which
/// is what the expected files are for.
pub const LIVE_BUDGET: u64 = 100_000_000;

/// Row count and FNV-1a hash of a serialized result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub rows: u64,
    pub hash: u64,
}

pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
}

/// Fingerprint of the node sequence `nodes` (pre ranks into `store`).
pub fn fingerprint(store: &DocStore, nodes: &[u32]) -> Fingerprint {
    Fingerprint { rows: nodes.len() as u64, hash: fnv1a(serialize_nodes(store, nodes).as_bytes()) }
}

/// Outcome of comparing one result with its reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Match,
    Diverged,
    /// No reference: the navigational evaluator ran out of budget.
    Unverified,
}

/// References for a set of query texts over one document set.
pub struct Oracle {
    refs: BTreeMap<String, Option<Fingerprint>>,
    /// Where the references came from, for the report.
    pub source: String,
}

impl Oracle {
    /// References for the texts of `types`: from the expected file of this
    /// document set where it lists the text, else live from the navigational
    /// evaluator under `budget`.
    pub fn build(
        dir: &Path,
        text: &DocText,
        docs: &SessionDocs,
        types: &[QueryType],
        budget: u64,
    ) -> Oracle {
        let path = expected_path(dir, text);
        let known = read_expected(&path).unwrap_or_default();
        let refs: BTreeMap<_, _> = texts(types)
            .map(|t| {
                (
                    t.key.clone(),
                    known.get(&t.key).copied().or_else(|| nav_reference(docs, t, budget)),
                )
            })
            .collect();
        let blessed = refs.keys().filter(|k| known.contains_key(*k)).count();
        let source = format!(
            "{blessed} texts from {}, {} from the navigational evaluator ({budget} steps per text)",
            path.display(),
            refs.len() - blessed
        );
        Oracle { refs, source }
    }

    /// References straight from the navigational evaluator under `budget`.
    pub fn live(docs: &SessionDocs, types: &[QueryType], budget: u64) -> Oracle {
        let refs = texts(types).map(|t| (t.key.clone(), nav_reference(docs, t, budget))).collect();
        Oracle { refs, source: format!("navigational evaluator, {budget} steps per text") }
    }

    /// The reference for `key`; `None` when unverified.
    pub fn reference(&self, key: &str) -> Option<Fingerprint> {
        *self.refs.get(key).unwrap_or_else(|| panic!("no oracle entry for {key}"))
    }

    pub fn check(&self, key: &str, got: Fingerprint) -> Verdict {
        match self.reference(key) {
            None => Verdict::Unverified,
            Some(want) if want == got => Verdict::Match,
            Some(_) => Verdict::Diverged,
        }
    }

    /// Texts the oracle was built for.
    pub fn texts(&self) -> usize {
        self.refs.len()
    }

    /// Texts without a reference.
    pub fn unverified(&self) -> usize {
        self.refs.values().filter(|r| r.is_none()).count()
    }

    fn to_json(&self, text: &DocText) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"docs\": \"{}\", \"doc_seed\": {DOC_SEED}, \"xmark_scale\": {}, \"dblp_pubs\": {},\n",
            text.spec.name, text.spec.xmark_scale, text.spec.dblp_pubs
        ));
        out.push_str("  \"results\": {\n");
        let known: Vec<_> = self.refs.iter().filter_map(|(k, r)| r.map(|r| (k, r))).collect();
        for (i, (key, r)) in known.iter().enumerate() {
            let sep = if i + 1 < known.len() { "," } else { "" };
            // One entry per line: `read_expected` relies on it.
            out.push_str(&format!(
                "    {}: {{\"rows\": {}, \"hash\": \"{:016x}\"}}{sep}\n",
                Json::str(key.as_str()).render(),
                r.rows,
                r.hash
            ));
        }
        out.push_str("  }\n}\n");
        out
    }
}

/// `expected/<docs>-<doc seed>.json` under the benchmark directory.
pub fn expected_path(dir: &Path, text: &DocText) -> PathBuf {
    dir.join("expected").join(format!("{}-{DOC_SEED}.json", text.spec.name))
}

/// `--bless`: compute every reference with the budget lifted and write the
/// expected file. Minutes on the large documents (JC is a three-deep nested
/// loop for the navigational evaluator).
pub fn bless(
    dir: &Path,
    text: &DocText,
    docs: &SessionDocs,
    types: &[QueryType],
) -> std::io::Result<PathBuf> {
    let refs = texts(types)
        .map(|t| {
            eprintln!("bless {}: {}", text.spec.name, t.key);
            (t.key.clone(), nav_reference(docs, t, u64::MAX))
        })
        .collect();
    let oracle = Oracle { refs, source: String::new() };
    let path = expected_path(dir, text);
    std::fs::create_dir_all(path.parent().expect("expected/ has a parent"))?;
    std::fs::write(&path, oracle.to_json(text))?;
    Ok(path)
}

/// Evaluate one text navigationally; `None` when the budget runs out.
fn nav_reference(docs: &SessionDocs, text: &QueryText, budget: u64) -> Option<Fingerprint> {
    let opts = ParserOptions { context_doc: text.ctx.map(str::to_string) };
    let ast = parse_query(&text.text, &opts).unwrap_or_else(|e| panic!("{}: {e}", text.key));
    let core = normalize(&ast).unwrap_or_else(|e| panic!("{}: {e}", text.key));
    match docs.nav.eval(&core, NavOptions { mode: NavMode::Whole, budget }) {
        Ok(refs) => {
            let pres = docs.nav.to_pre(&refs, &docs.store.doc_roots);
            Some(fingerprint(&docs.store, &pres))
        }
        Err(NavError::Budget) => None,
        Err(e) => panic!("navigational evaluation of {} failed: {e}", text.key),
    }
}

/// Read an expected file written by [`bless`]: one `"key": {"rows": N,
/// "hash": "H"}` entry per line. `None` when the file is missing.
fn read_expected(path: &Path) -> Option<BTreeMap<String, Fingerprint>> {
    let body = std::fs::read_to_string(path).ok()?;
    Some(body.lines().filter_map(parse_expected_line).collect())
}

fn parse_expected_line(line: &str) -> Option<(String, Fingerprint)> {
    let (key, rest) = line.trim().strip_prefix('"')?.split_once("\": {\"rows\": ")?;
    let (rows, rest) = rest.split_once(", \"hash\": \"")?;
    let hash = rest.split('"').next()?;
    Some((
        key.replace("\\\"", "\"").replace("\\\\", "\\"),
        Fingerprint { rows: rows.parse().ok()?, hash: u64::from_str_radix(hash, 16).ok()? },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_known_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn expected_lines_round_trip() {
        let mut refs = BTreeMap::new();
        refs.insert("Q1".to_string(), Some(Fingerprint { rows: 50, hash: 0xdead_beef }));
        refs.insert("Q5lit/conf/c7/1993".to_string(), Some(Fingerprint { rows: 1, hash: 7 }));
        refs.insert("JC".to_string(), None);
        let oracle = Oracle { refs, source: String::new() };
        let text = DocText::generate(crate::docs::TINY);
        let body = oracle.to_json(&text);
        let back: BTreeMap<_, _> = body.lines().filter_map(parse_expected_line).collect();
        assert_eq!(back.len(), 2, "unverified entries are not written:\n{body}");
        assert_eq!(back["Q1"], Fingerprint { rows: 50, hash: 0xdead_beef });
        assert_eq!(back["Q5lit/conf/c7/1993"], Fingerprint { rows: 1, hash: 7 });
    }

    #[test]
    fn verdicts() {
        let mut refs = BTreeMap::new();
        refs.insert("a".to_string(), Some(Fingerprint { rows: 1, hash: 2 }));
        refs.insert("b".to_string(), None);
        let o = Oracle { refs, source: String::new() };
        assert_eq!(o.check("a", Fingerprint { rows: 1, hash: 2 }), Verdict::Match);
        assert_eq!(o.check("a", Fingerprint { rows: 1, hash: 3 }), Verdict::Diverged);
        assert_eq!(o.check("b", Fingerprint { rows: 0, hash: 0 }), Verdict::Unverified);
        assert_eq!(o.unverified(), 1);
    }
}
