//! The benchmark's documents: generated, serialized to XML text, and loaded
//! from that text so every set-up pays for parsing.
//!
//! The documents are the same on every run: they are generated from
//! [`DOC_SEED`], not from `--seed`. Measured on the builder's box, documents
//! drawn per seed spread every timing metric by 12–22 % across ten seeds
//! (the optimizer picks different plans on different instances) against
//! 2–9 % for one seed repeated — no bound under 25 % could have held. The
//! run's seed drives what is done *to* the documents: family literals, the
//! Zipf draws, write targets.

use crate::trace::Recorder;
use jgi_engine::Database;
use jgi_nav::NavDb;
use jgi_xml::generate::{generate_dblp, generate_xmark, DblpConfig, XmarkConfig};
use jgi_xml::serialize::tree_to_xml;
use jgi_xml::{DocStore, Tree};
use std::sync::Arc;

/// Seed of the document generators: the paper's conference date.
pub const DOC_SEED: u64 = 20_100_322;

pub const AUCTION: &str = "auction.xml";
pub const DBLP: &str = "dblp.xml";

/// A document-set size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DocSpec {
    /// Name used in expected-file names and reports.
    pub name: &'static str,
    pub xmark_scale: f64,
    pub dblp_pubs: usize,
}

/// Fits in L2/L3: ~27 k nodes, index build ~0.12 s.
pub const SMALL: DocSpec = DocSpec { name: "small", xmark_scale: 0.005, dblp_pubs: 1_000 };
/// Does not fit in cache: ~109 k nodes, index build ~0.9 s, ~0.3 GB RSS.
pub const LARGE: DocSpec = DocSpec { name: "large", xmark_scale: 0.02, dblp_pubs: 4_000 };
/// `--smoke`: stands in for both sizes.
pub const TINY: DocSpec = DocSpec { name: "tiny", xmark_scale: 0.002, dblp_pubs: 300 };

/// The generated inputs: XML text of both documents, plus the facts about
/// them the query populations and the write generator draw from.
pub struct DocText {
    pub spec: DocSpec,
    pub auction_xml: String,
    pub dblp_xml: String,
    /// `person<k>` ids run over `0..persons`.
    pub persons: usize,
    /// Distinct `@key`s of the generated `proceedings`, sorted, without the
    /// fixed `conf/vldb2001` entry Q5 itself asks for.
    pub proceedings_keys: Vec<String>,
}

impl DocText {
    /// Generate both documents.
    pub fn generate(spec: DocSpec) -> DocText {
        let seed = DOC_SEED;
        let xmark = XmarkConfig { scale: spec.xmark_scale, seed };
        let (_, _, persons, _, _) = xmark.counts();
        let auction = generate_xmark(xmark);
        let dblp = generate_dblp(DblpConfig { publications: spec.dblp_pubs, seed });
        let root = dblp.content_children(dblp.root())[0];
        let mut keys: Vec<String> = dblp
            .content_children(root)
            .iter()
            .filter(|&&c| dblp.name(c) == Some("proceedings"))
            .filter_map(|&c| {
                dblp.attrs(c)
                    .iter()
                    .find(|&&a| dblp.name(a) == Some("key"))
                    .map(|&a| dblp.string_value(a))
            })
            .filter(|k| k != "conf/vldb2001")
            .collect();
        keys.sort();
        keys.dedup();
        DocText {
            spec,
            auction_xml: tree_to_xml(&auction),
            dblp_xml: tree_to_xml(&dblp),
            persons,
            proceedings_keys: keys,
        }
    }

    /// `(uri, xml)` in load order; `auction.xml` is always document 0.
    pub fn docs(&self) -> [(&'static str, &str); 2] {
        [(AUCTION, &self.auction_xml), (DBLP, &self.dblp_xml)]
    }
}

/// What a single-user session holds: the tabular encoding, the indexed
/// relational database over it, and the navigational database. Exactly the
/// state `jgi_core::Session` assembles, built here call by call so the traced
/// run can put a span around each layer.
pub struct SessionDocs {
    pub store: Arc<DocStore>,
    pub db: Database,
    pub nav: NavDb,
}

impl SessionDocs {
    /// Parse, encode, build the navigational database and the index set.
    pub fn build(text: &DocText, rec: &mut Recorder) -> SessionDocs {
        SessionDocs::from_xml(&text.docs(), rec)
    }

    /// [`SessionDocs::build`] over any `(uri, xml)` list.
    pub fn from_xml(docs: &[(&str, &str)], rec: &mut Recorder) -> SessionDocs {
        let root = rec.open("bench.setup");
        let trees: Vec<Tree> = rec.time("xml.parse", || {
            docs.iter()
                .map(|(uri, xml)| jgi_xml::parse(uri, xml).expect("benchmark XML parses"))
                .collect()
        });
        let store = rec.time("xml.encode", || {
            let mut store = DocStore::new();
            for t in &trees {
                store.add_tree(t);
            }
            Arc::new(store)
        });
        let nav = rec.time("nav.build", || {
            let mut nav = NavDb::new();
            for t in trees {
                nav.add_tree(t);
            }
            nav
        });
        let db =
            rec.time("engine.index_build", || Database::with_default_indexes(Arc::clone(&store)));
        rec.close(root);
        SessionDocs { store, db, nav }
    }
}

/// Current and peak resident set size of this process, in bytes, from
/// `/proc/self/status` (`VmRSS`, `VmHWM`).
pub fn rss_bytes() -> (u64, u64) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |key: &str| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|kb| kb.parse::<u64>().ok())
            .map_or(0, |kb| kb * 1024)
    };
    (field("VmRSS:"), field("VmHWM:"))
}
