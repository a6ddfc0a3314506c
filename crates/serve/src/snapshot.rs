//! Immutable shared snapshots of the document state, segmented per
//! document, with transactional multi-document mutation.
//!
//! The serving layer never lets a reader see a half-loaded or
//! half-mutated document set. All mutation happens on a lock-protected
//! [`Master`]; publishing builds a fresh [`Snapshot`] and swaps it in
//! atomically behind an `Arc`. In-flight requests keep the snapshot they
//! started with; new requests pick up the new generation.
//!
//! Since the live-mutation rework the snapshot is **segmented**: each
//! loaded document owns an independent [`DocSnap`] — its single-document
//! tabular encoding, shared by an eagerly-indexed relational database and
//! a navigational database — plus a carried `version`. Publishing a
//! generation reuses the `Arc<DocSnap>` of every document the commit did
//! *not* touch, so a mutation to one document never rebuilds the others'
//! indexes (the old design re-shared one monolithic store and rebuilt the
//! whole relational database per load).
//!
//! Client-visible `pre` ranks stay global: documents are numbered in load
//! order, document `i` starting at the sum of the earlier documents' row
//! counts ([`DocEntry::base_pre`]). Single-document queries — the entire
//! Q1–Q8 corpus — execute against their document's own `DocSnap` and the
//! server adds `base_pre` to every result rank; queries spanning several
//! documents (or none) fall back to a lazily-built, memoized combined
//! view with the identical global numbering.
//!
//! Mutation rides on `jgi-mutate`: the master keeps one
//! [`jgi_mutate::OverlayDoc`] — a copy-on-write store edited in place —
//! per document and [`Master::commit`] applies a batch of [`Op`]s —
//! possibly spanning documents — **all-or-nothing**: ops apply to working
//! copies of the touched documents and only a fully-valid batch replaces
//! them, bumps the touched documents' versions, and advances the
//! generation. A published snapshot shares its store with the master
//! until the next commit, whose first edit copies it, so a pinned
//! snapshot is never written.

use crate::error::ServeError;
use jgi_core::{Budgets, ExecCtx};
use jgi_engine::Database;
use jgi_mutate::{MutateError, Op, OverlayDoc};
use jgi_nav::NavDb;
use jgi_sync::Mutex;
use jgi_xml::{DocStore, Tree};
use std::sync::Arc;

/// One document's fully-indexed state at one version: the single-document
/// store (root at local `pre` 0), the eagerly-indexed relational database
/// over it, and the navigational database. Immutable once built; shared
/// across every generation in which the document is unchanged.
pub struct DocSnap {
    /// Document URI (`doc("uri")` resolves against it).
    pub uri: String,
    /// Document version: 1 on load, +1 per commit that touches it.
    pub version: u64,
    /// Single-document tabular encoding (shared with `db`).
    pub store: Arc<DocStore>,
    /// Relational database, Table 6 indexes eagerly built at publish time.
    pub db: Arc<Database>,
    /// Navigational database over `store` (shared, no copy).
    nav: NavDb,
}

impl DocSnap {
    fn build(uri: String, version: u64, store: Arc<DocStore>) -> DocSnap {
        let db = Arc::new(Database::with_default_indexes(Arc::clone(&store)));
        let nav = NavDb::from(Arc::clone(&store));
        DocSnap { uri, version, store, db, nav }
    }

    /// The execution context for running plans against this document.
    pub fn ctx(&self, budgets: Budgets) -> ExecCtx<'_> {
        ExecCtx { store: &self.store, db: Some(&self.db), nav: Some(&self.nav), budgets }
    }
}

/// One document's slot in a [`Snapshot`]: the shared per-document state
/// plus where the document starts in the global numbering. `base_pre`
/// lives here rather than in [`DocSnap`] because it shifts whenever an
/// *earlier* document changes size — the `DocSnap` itself stays shared.
pub struct DocEntry {
    /// Shared per-document state.
    pub snap: Arc<DocSnap>,
    /// Global `pre` rank of this document's root (prefix sum of earlier
    /// documents' row counts).
    pub base_pre: u32,
}

/// One immutable generation of the document state, shareable across any
/// number of worker threads.
pub struct Snapshot {
    /// Monotonic generation number; bumped by every load and every
    /// committed mutation batch.
    pub generation: u64,
    /// Per-document segments, in load (= global numbering) order.
    pub docs: Vec<DocEntry>,
    /// Execution budgets applied to every request against this snapshot.
    pub budgets: Budgets,
    /// Lazily-built combined view for queries spanning several documents
    /// (or referencing none): all documents concatenated in numbering
    /// order, indexed from scratch. Memoized — at most one build per
    /// generation, and none at all for single-document traffic.
    combined: Mutex<Option<Arc<DocSnap>>>,
}

impl Snapshot {
    /// Loaded document count.
    pub fn documents(&self) -> usize {
        self.docs.len()
    }

    /// Total row count across all documents (the global numbering's size).
    pub fn node_count(&self) -> u64 {
        self.docs.iter().map(|d| d.snap.store.len() as u64).sum()
    }

    /// Version of `uri` in this snapshot; 0 when not loaded.
    pub fn version_of(&self, uri: &str) -> u64 {
        self.docs.iter().find(|d| d.snap.uri == uri).map_or(0, |d| d.snap.version)
    }

    /// Resolve the execution target for a plan depending on `doc_uris`:
    /// the owning document's segment when the dependency set pins a
    /// single loaded document, else the combined view. Returns the
    /// segment and the offset to add to result `pre` ranks.
    pub fn resolve(&self, doc_uris: &[String]) -> (Arc<DocSnap>, u32) {
        if let [uri] = doc_uris {
            if let Some(d) = self.docs.iter().find(|d| d.snap.uri == *uri) {
                return (Arc::clone(&d.snap), d.base_pre);
            }
        }
        if self.docs.len() == 1 {
            // One document loaded: the combined view IS that document.
            return (Arc::clone(&self.docs[0].snap), 0);
        }
        (self.combined(), 0)
    }

    /// The store compilation should run against. Compilation reads no
    /// document in normal operation, but under `JGI_CHECK=1` the prepare
    /// pipeline audits rewrite rules against real documents — give it the
    /// combined view so audit `pre` ranks match what clients see. A query
    /// compiles once, so the audit sees the documents of that moment only.
    pub fn prepare_store(&self) -> Arc<DocStore> {
        match self.docs.as_slice() {
            [d] => Arc::clone(&d.snap.store),
            [] => Arc::new(DocStore::new()),
            _ if jgi_rewrite::driver::check_enabled() => self.combined().store.clone(),
            _ => Arc::new(DocStore::new()),
        }
    }

    /// The combined all-documents view (lazy, memoized).
    pub fn combined(&self) -> Arc<DocSnap> {
        let mut slot = self.combined.lock();
        if let Some(c) = slot.as_ref() {
            return Arc::clone(c);
        }
        let mut store = DocStore::new();
        for d in &self.docs {
            store.add_tree(&d.snap.store.extract_tree(0));
        }
        let combined = Arc::new(DocSnap::build(String::new(), self.generation, Arc::new(store)));
        *slot = Some(Arc::clone(&combined));
        combined
    }
}

/// What one committed mutation batch changed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitOutcome {
    /// Generation after the commit.
    pub generation: u64,
    /// `(uri, new version)` for every document the batch touched, in
    /// numbering order.
    pub touched: Vec<(String, u64)>,
    /// Net row-count change across the batch.
    pub rows_delta: i64,
}

struct DocState {
    uri: String,
    version: u64,
    doc: OverlayDoc,
    /// Cached publish artifact for the current version; cleared by any
    /// commit that touches this document.
    published: Option<Arc<DocSnap>>,
}

/// The mutable master the server mutates under a lock. Readers never touch
/// it — they only ever see published [`Snapshot`]s.
pub struct Master {
    docs: Vec<DocState>,
    generation: u64,
}

impl Master {
    /// Empty master at generation 0.
    pub fn new() -> Master {
        Master { docs: Vec::new(), generation: 0 }
    }

    /// Add (or, for an already-loaded URI, replace) a document tree and
    /// bump the generation. The URI is the tree's own document URI.
    pub fn add_tree(&mut self, tree: Tree) {
        let uri = tree.uri().to_string();
        let mut store = DocStore::new();
        store.add_tree(&tree);
        let store = Arc::new(store);
        self.generation += 1;
        if let Some(d) = self.docs.iter_mut().find(|d| d.uri == uri) {
            d.version += 1;
            d.doc = OverlayDoc::new(Arc::clone(&store));
            d.published = Some(Arc::new(DocSnap::build(uri, d.version, store)));
        } else {
            let version = 1;
            self.docs.push(DocState {
                uri: uri.clone(),
                version,
                doc: OverlayDoc::new(Arc::clone(&store)),
                published: Some(Arc::new(DocSnap::build(uri, version, store))),
            });
        }
    }

    /// Current generation (0 = nothing loaded).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Map a global `pre` rank to `(document index, local pre)` against
    /// the given per-document row counts.
    fn locate_global(lens: &[u32], pre: u32) -> Result<(usize, u32), MutateError> {
        let mut base = 0u32;
        for (i, &len) in lens.iter().enumerate() {
            if pre < base + len {
                return Ok((i, pre - base));
            }
            base += len;
        }
        Err(MutateError::BadTarget(format!("pre {pre} is beyond the document set")))
    }

    /// Apply a batch of mutations, addressed in **global** `pre` ranks,
    /// atomically: either every op validates and applies, or the master is
    /// left untouched. Each op is translated against the state produced by
    /// the ops before it (a batch behaves exactly like a serial sequence).
    /// On success the touched documents' versions bump and the generation
    /// advances by one.
    pub fn commit(&mut self, ops: &[Op]) -> Result<CommitOutcome, MutateError> {
        if ops.is_empty() {
            return Err(MutateError::BadTarget("empty mutation batch".to_string()));
        }
        // Working copies, cloned on first touch (an `Arc` clone; the first
        // edit copies the columns); row counts tracked per document so
        // later ops see earlier ops' row shifts.
        let mut working: Vec<Option<OverlayDoc>> = self.docs.iter().map(|_| None).collect();
        let mut lens: Vec<u32> = self.docs.iter().map(|d| rows(&d.doc)).collect();
        let mut rows_delta = 0i64;
        for op in ops {
            let target = match op {
                Op::Insert { parent, .. } => *parent,
                Op::Delete { pre } | Op::Replace { pre, .. } => *pre,
            };
            let (i, local) = Self::locate_global(&lens, target)?;
            let local_op = match op {
                Op::Insert { pos, xml, .. } => {
                    Op::Insert { parent: local, pos: *pos, xml: xml.clone() }
                }
                Op::Delete { .. } => Op::Delete { pre: local },
                Op::Replace { xml, .. } => Op::Replace { pre: local, xml: xml.clone() },
            };
            let doc = working[i].get_or_insert_with(|| self.docs[i].doc.clone());
            rows_delta += doc.apply(&local_op)?;
            lens[i] = rows(doc);
        }
        // Whole batch validated: install.
        self.generation += 1;
        let mut touched = Vec::new();
        for (i, w) in working.into_iter().enumerate() {
            if let Some(doc) = w {
                let d = &mut self.docs[i];
                d.doc = doc;
                d.version += 1;
                d.published = None;
                touched.push((d.uri.clone(), d.version));
            }
        }
        Ok(CommitOutcome { generation: self.generation, touched, rows_delta })
    }

    /// Publish the current state as an immutable snapshot. Documents
    /// untouched since their last publish reuse their cached
    /// [`DocSnap`] `Arc` — no index rebuild. A document dirtied by a
    /// commit shares the master's store as-is and builds its indexes anew.
    pub fn publish(&mut self, budgets: Budgets) -> Arc<Snapshot> {
        let mut entries = Vec::with_capacity(self.docs.len());
        let mut base_pre = 0u32;
        for d in &mut self.docs {
            let snap = match &d.published {
                Some(s) => Arc::clone(s),
                None => {
                    let store = Arc::clone(d.doc.store());
                    let s = Arc::new(DocSnap::build(d.uri.clone(), d.version, store));
                    d.published = Some(Arc::clone(&s));
                    s
                }
            };
            let len = snap.store.len() as u32;
            entries.push(DocEntry { snap, base_pre });
            base_pre += len;
        }
        Arc::new(Snapshot {
            generation: self.generation,
            docs: entries,
            budgets,
            combined: Mutex::named("snapshot_combined", None),
        })
    }
}

/// Row count of one document.
fn rows(doc: &OverlayDoc) -> u32 {
    doc.store().len() as u32
}

impl Default for Master {
    fn default() -> Master {
        Master::new()
    }
}

/// Convert a mutation rejection into the serve-layer error space.
impl From<MutateError> for ServeError {
    fn from(e: MutateError) -> ServeError {
        ServeError::Mutate(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jgi_xml::generate::{generate_xmark, XmarkConfig};

    fn master_with_two_docs() -> Master {
        let mut m = Master::new();
        m.add_tree(jgi_xml::parse("a.xml", "<r><x>1</x><x>2</x></r>").unwrap());
        m.add_tree(jgi_xml::parse("b.xml", "<r><y>3</y></r>").unwrap());
        m
    }

    #[test]
    fn publish_shares_the_store_allocation() {
        let mut m = Master::new();
        m.add_tree(generate_xmark(XmarkConfig { scale: 0.002, seed: 5 }));
        let snap = m.publish(Budgets::default());
        assert_eq!(snap.generation, 1);
        assert_eq!(snap.documents(), 1);
        // Database and snapshot point at the same DocStore allocation — the
        // satellite fix: no deep copy of the encoding on database build.
        let d = &snap.docs[0];
        assert!(Arc::ptr_eq(&d.snap.store, &d.snap.db.store));
        assert_eq!(d.snap.version, 1);
        assert_eq!(snap.version_of("auction.xml"), 1);
        assert_eq!(snap.version_of("nope.xml"), 0);
    }

    #[test]
    fn master_mutation_does_not_disturb_published_snapshots() {
        let mut m = Master::new();
        m.add_tree(generate_xmark(XmarkConfig { scale: 0.002, seed: 5 }));
        let before = m.publish(Budgets::default());
        let len_before = before.node_count();
        m.add_tree(generate_xmark(XmarkConfig { scale: 0.002, seed: 6 }));
        let after = m.publish(Budgets::default());
        assert_eq!(before.node_count(), len_before, "published snapshot is immutable");
        // Same URI: the reload replaced the document in place.
        assert_eq!(after.documents(), 1);
        assert_eq!(after.generation, 2);
        assert_eq!(after.version_of("auction.xml"), 2);
    }

    #[test]
    fn publish_reuses_untouched_documents() {
        let mut m = master_with_two_docs();
        let s1 = m.publish(Budgets::default());
        // Mutate only a.xml: global pre 1 is a.xml's root element.
        let out = m
            .commit(&[Op::Insert { parent: 1, pos: 0, xml: "<z/>".into() }])
            .expect("commit applies");
        assert_eq!(out.touched, vec![("a.xml".to_string(), 2)]);
        assert_eq!(out.rows_delta, 1);
        let s2 = m.publish(Budgets::default());
        assert!(
            Arc::ptr_eq(&s1.docs[1].snap, &s2.docs[1].snap),
            "untouched b.xml shares its DocSnap across generations"
        );
        assert!(!Arc::ptr_eq(&s1.docs[0].snap, &s2.docs[0].snap));
        // b.xml's numbering shifted by the insert without a rebuild.
        assert_eq!(s2.docs[1].base_pre, s1.docs[1].base_pre + 1);
        assert_eq!(s2.version_of("a.xml"), 2);
        assert_eq!(s2.version_of("b.xml"), 1);
    }

    #[test]
    fn commit_batch_is_all_or_nothing() {
        let mut m = master_with_two_docs();
        let g = m.generation();
        let rows_before = m.publish(Budgets::default()).node_count();
        // Second op targets a pre rank beyond both documents: the whole
        // batch must roll back, including the valid first op.
        let err = m.commit(&[
            Op::Insert { parent: 1, pos: 0, xml: "<z/>".into() },
            Op::Delete { pre: 10_000 },
        ]);
        assert!(matches!(err, Err(MutateError::BadTarget(_))));
        assert_eq!(m.generation(), g, "failed batch leaves the generation alone");
        let s = m.publish(Budgets::default());
        assert_eq!(s.version_of("a.xml"), 1, "failed batch leaves versions alone");
        assert_eq!(s.node_count(), rows_before, "no rows leaked from the rolled-back insert");
    }

    #[test]
    fn commit_spanning_documents_bumps_both_and_tracks_shifts() {
        let mut m = master_with_two_docs();
        // a.xml occupies global pre 0..6 (doc,r,x,text,x,text); b.xml
        // starts right after it.
        let a_len = m.publish(Budgets::default()).docs[1].base_pre;
        let out = m
            .commit(&[
                // Insert under a.xml's root element...
                Op::Insert { parent: 1, pos: 0, xml: "<z/>".into() },
                // ...then delete b.xml's <y> — addressed AFTER the insert
                // shifted everything past a.xml by one.
                Op::Delete { pre: a_len + 1 + 2 },
            ])
            .expect("batch commits");
        assert_eq!(
            out.touched,
            vec![("a.xml".to_string(), 2), ("b.xml".to_string(), 2)]
        );
        assert_eq!(out.rows_delta, 1 - 2, "one row in, <y>3</y> (2 rows) out");
        let s = m.publish(Budgets::default());
        // b.xml shrank to doc,r.
        assert_eq!(s.docs[1].snap.store.len(), 2);
    }

    #[test]
    fn combined_view_matches_global_numbering() {
        let mut m = master_with_two_docs();
        m.commit(&[Op::Insert { parent: 1, pos: 0, xml: "<z>9</z>".into() }])
            .expect("commit");
        let s = m.publish(Budgets::default());
        let combined = s.combined();
        assert_eq!(combined.store.len() as u64, s.node_count());
        assert_eq!(combined.store.doc_roots.len(), 2);
        // Global rank of b.xml's root document node equals its base_pre.
        assert_eq!(combined.store.doc_roots[1], s.docs[1].base_pre);
        // Memoized: the second call returns the same allocation.
        assert!(Arc::ptr_eq(&combined, &s.combined()));
        // The inserted <z>9</z> sits right under a.xml's root element.
        assert_eq!(combined.store.name_str(2), Some("z"));
        assert_eq!(combined.store.value_str(2), Some("9"));
    }

    #[test]
    fn resolve_routes_single_doc_plans_to_their_segment() {
        let mut m = master_with_two_docs();
        let s = m.publish(Budgets::default());
        let (seg, base) = s.resolve(&["b.xml".to_string()]);
        assert_eq!(seg.uri, "b.xml");
        assert_eq!(base, s.docs[1].base_pre);
        let (seg, base) = s.resolve(&["a.xml".to_string(), "b.xml".to_string()]);
        assert_eq!(seg.uri, "", "multi-doc plans hit the combined view");
        assert_eq!(base, 0);
        let (seg, base) = s.resolve(&["ghost.xml".to_string()]);
        assert_eq!(seg.uri, "", "unknown docs fall back to combined");
        assert_eq!(base, 0);
    }
}
