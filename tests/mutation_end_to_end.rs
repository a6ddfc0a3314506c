//! End-to-end correctness for live document mutation.
//!
//! A scripted sequence of `Master::commit` batches — including one batch
//! that touches both documents — edits the XMark/DBLP corpus in place.
//! The oracle is a **full reparse**: shadow trees
//! receive the same operations through the `Tree` editing API, are
//! serialized to XML text, parsed back, and loaded into a fresh
//! [`Session`]. The published snapshot must then answer Q1–Q8
//! byte-identically to the oracle on the join-graph engine and across the
//! independent back-ends (the navigational one builds its DOM from the
//! edited columns on first use).
//!
//! A second test pins the incremental-publish contract: committing to one
//! document must not rebuild the other document's stores or indexes
//! (asserted by `Arc` pointer identity across publishes). A third pins
//! copy-on-write: a commit never writes the columns of a snapshot already
//! published. A fourth pins bounded memory under commits: nothing the
//! server retains — plan memo, flight recorder — keeps a retired document
//! version alive.

use jgi_core::queries::paper_corpus;
use jgi_core::{execute_prepared, prepare_on, Budgets, Engine, Session};
use jgi_mutate::{parse_fragment, Op};
use jgi_serve::{Master, ServeConfig, Server, Snapshot};
use jgi_xml::generate::{generate_dblp, generate_xmark, DblpConfig, XmarkConfig};
use jgi_xml::serialize::tree_to_xml;
use jgi_xml::{parse, DocStore, Tree};
use std::sync::Arc;

fn trees() -> (Tree, Tree) {
    (
        generate_xmark(XmarkConfig { scale: 0.002, seed: 42 }),
        generate_dblp(DblpConfig { publications: 300, seed: 42 }),
    )
}

/// Mirror one **global**-pre operation onto the shadow pair, using the
/// same translation rule as `Master::commit`: document 0 (auction.xml)
/// owns ranks `[0, len0)`, document 1 (dblp.xml) owns the rest, with
/// lengths taken *after* the preceding ops of the batch.
fn apply_global(sx: &mut Tree, sd: &mut Tree, op: &Op) {
    let split = sx.reachable_len() as u32;
    let target = match op {
        Op::Insert { parent, .. } => *parent,
        Op::Delete { pre } | Op::Replace { pre, .. } => *pre,
    };
    let (shadow, local) =
        if target < split { (&mut *sx, target) } else { (&mut *sd, target - split) };
    let order = shadow.preorder();
    match op {
        Op::Insert { pos, xml, .. } => {
            let (ftree, froot) = parse_fragment(xml).expect("scripted fragments parse");
            shadow.graft(order[local as usize], *pos as usize, &ftree, froot);
        }
        Op::Delete { .. } => shadow.detach(order[local as usize]),
        Op::Replace { xml, .. } => {
            let (ftree, froot) = parse_fragment(xml).expect("scripted fragments parse");
            shadow.replace_subtree(order[local as usize], &ftree, froot);
        }
    }
}

/// Commit a batch and mirror it op-by-op onto the shadows.
fn commit_mirrored(master: &mut Master, sx: &mut Tree, sd: &mut Tree, ops: &[Op]) {
    for op in ops {
        apply_global(sx, sd, op);
    }
    master.commit(ops).expect("scripted batch commits");
}

#[test]
fn mutated_corpus_matches_full_reparse_across_modes_and_degrees() {
    let (xmark, dblp) = trees();
    let mut master = Master::new();
    master.add_tree(xmark.clone());
    master.add_tree(dblp.clone());
    let (mut sx, mut sd) = (xmark, dblp);

    // Batch 1: one element subtree under <site> (global pre 1), position 0.
    commit_mirrored(
        &mut master,
        &mut sx,
        &mut sd,
        &[Op::Insert {
            parent: 1,
            pos: 0,
            xml: "<promo><name>hot</name></promo>".into(),
        }],
    );
    // Batch 2: both documents in ONE batch. The dblp address accounts for
    // the 3 rows the first op inserts into auction.xml — batch ops are
    // translated against their predecessors' shifts. dblp's root element
    // sits one past its document row.
    let dblp_root = sx.reachable_len() as u32 + 3 + 1;
    commit_mirrored(
        &mut master,
        &mut sx,
        &mut sd,
        &[
            Op::Insert { parent: 1, pos: 1, xml: "<promo><name>warm</name></promo>".into() },
            Op::Insert {
                parent: dblp_root,
                pos: 0,
                xml: "<article key=\"x/Probe26\"><author>Probe Author</author>\
                      <title>Overlay Stores</title><year>2026</year></article>"
                    .into(),
            },
        ],
    );
    // Batch 3: replace the first promo (pre 2: site's first content child)
    // with a wider subtree, shifting everything after it by two rows.
    commit_mirrored(
        &mut master,
        &mut sx,
        &mut sd,
        &[Op::Replace {
            pre: 2,
            xml: "<promo><name>updated</name><price>3</price></promo>".into(),
        }],
    );
    // Batch 4: delete the second promo. The replacement subtree occupies
    // pre 2..=6 (promo, name, text, price, text), so it starts at pre 7.
    commit_mirrored(&mut master, &mut sx, &mut sd, &[Op::Delete { pre: 7 }]);

    let snapshot = master.publish(Budgets::default());

    // The full-reparse oracle: mutated shadows → XML text → parse →
    // fresh Session. (The scripted ops never create adjacent text nodes,
    // so serialization is lossless here.)
    let mut oracle = Session::new();
    oracle.add_tree(parse("auction.xml", &tree_to_xml(&sx)).expect("mutated xmark reparses"));
    oracle.add_tree(parse("dblp.xml", &tree_to_xml(&sd)).expect("mutated dblp reparses"));
    assert_eq!(
        snapshot.node_count(),
        (sx.reachable_len() + sd.reachable_len()) as u64,
        "published row count disagrees with the shadows"
    );

    for &(name, query, ctx) in &paper_corpus() {
        let prepared = prepare_on(&snapshot.prepare_store(), query, ctx)
            .unwrap_or_else(|e| panic!("{name} fails to prepare on the snapshot: {e}"));
        let oracle_plan = oracle.prepare(query, ctx).expect("corpus compiles on oracle");
        let (segment, base_pre) = snapshot.resolve(&prepared.docs);
        let expect =
            oracle.execute(&oracle_plan, Engine::JoinGraph).expect("oracle executes").nodes;
        let ctx = segment.ctx(Budgets::default());
        let got = execute_prepared(&ctx, &prepared, Engine::JoinGraph)
            .unwrap_or_else(|e| panic!("{name} fails on the snapshot: {e}"))
            .nodes
            .map(|v| v.into_iter().map(|p| p + base_pre).collect::<Vec<_>>());
        assert_eq!(got, expect, "{name} diverged from the full-reparse oracle");
        // The independent back-ends agree on the mutated documents too.
        for engine in [Engine::Stacked, Engine::NavSegmented] {
            let got = execute_prepared(&segment.ctx(Budgets::default()), &prepared, engine)
                .unwrap_or_else(|e| panic!("{name} fails on {engine:?}: {e}"))
                .nodes
                .map(|v| v.into_iter().map(|p| p + base_pre).collect::<Vec<_>>());
            assert_eq!(got, expect, "{name} diverged on {engine:?} after mutation");
        }
    }
}

#[test]
fn publish_rebuilds_only_touched_documents() {
    let (xmark, dblp) = trees();
    let mut master = Master::new();
    master.add_tree(xmark);
    master.add_tree(dblp);
    let s1 = master.publish(Budgets::default());

    // Touch only auction.xml.
    master
        .commit(&[Op::Insert { parent: 1, pos: 0, xml: "<promo/>".into() }])
        .expect("commit");
    let s2 = master.publish(Budgets::default());

    assert!(
        !Arc::ptr_eq(&s1.docs[0].snap, &s2.docs[0].snap),
        "the mutated document must rebuild"
    );
    assert!(
        Arc::ptr_eq(&s1.docs[1].snap, &s2.docs[1].snap),
        "the untouched document's store/index build must be reused, not redone"
    );
    assert_eq!(s2.version_of("auction.xml"), 2);
    assert_eq!(s2.version_of("dblp.xml"), 1);

    // A second publish with no intervening commit reuses everything.
    let s3 = master.publish(Budgets::default());
    assert!(Arc::ptr_eq(&s2.docs[0].snap, &s3.docs[0].snap));
    assert!(Arc::ptr_eq(&s2.docs[1].snap, &s3.docs[1].snap));
}

/// A commit never writes a pinned snapshot: the master and the published
/// snapshot share one store until the next commit, whose first edit must
/// copy it (`Arc::make_mut`) rather than edit the shared columns.
#[test]
fn commits_never_write_a_pinned_snapshot() {
    let (xmark, dblp) = trees();
    let mut master = Master::new();
    master.add_tree(xmark);
    master.add_tree(dblp);
    let s1 = master.publish(Budgets::default());
    let pinned = DocStore::clone(&s1.docs[0].snap.store);
    let (_, q1, ctx) =
        paper_corpus().into_iter().find(|(name, _, _)| *name == "Q1").expect("Q1 in corpus");
    let prepared = prepare_on(&s1.prepare_store(), q1, ctx).expect("Q1 prepares");
    let q1_on = |snapshot: &Snapshot| {
        let (segment, base_pre) = snapshot.resolve(&prepared.docs);
        let ctx = segment.ctx(Budgets::default());
        execute_prepared(&ctx, &prepared, Engine::JoinGraph)
            .expect("Q1 executes")
            .nodes
            .map(|v| v.into_iter().map(|p| p + base_pre).collect::<Vec<_>>())
    };
    let before = q1_on(&s1);

    // Insert under <site>, delete what was inserted, then replace <site>'s
    // original first child: one edit of each kind on auction.xml.
    master
        .commit(&[
            Op::Insert { parent: 1, pos: 0, xml: "<promo><name>new</name></promo>".into() },
            Op::Delete { pre: 2 },
            Op::Insert { parent: 1, pos: 0, xml: "<promo/>".into() },
            Op::Replace { pre: 3, xml: "<regions/>".into() },
        ])
        .expect("batch commits");
    let s2 = master.publish(Budgets::default());

    let store = &s1.docs[0].snap.store;
    assert_eq!(store.size, pinned.size, "size column of the pinned snapshot");
    assert_eq!(store.level, pinned.level, "level column of the pinned snapshot");
    assert_eq!(store.kind, pinned.kind, "kind column of the pinned snapshot");
    assert_eq!(store.name, pinned.name, "name column of the pinned snapshot");
    assert_eq!(store.value, pinned.value, "value column of the pinned snapshot");
    assert_eq!(store.parent, pinned.parent, "parent column of the pinned snapshot");
    assert_eq!(store.values.len(), pinned.values.len(), "value interner of the pinned snapshot");
    assert_eq!(q1_on(&s1), before, "the pinned snapshot answers Q1 as before");
    assert_ne!(s2.docs[0].snap.store.len(), pinned.len(), "the commit did edit auction.xml");
    assert_ne!(q1_on(&s2), before, "and moved Q1's answer");
}

/// Memory stays bounded while commits land: a retired document version
/// (store, nine indexes, navigational database) must be freed once no
/// request runs on it. Asserted by liveness, not by reading RSS: after 64
/// commits with traffic in between — enough to fill the flight recorder's
/// slow pool several times over and to leave a plan memo on every query —
/// at most two databases per document can still be upgraded from `Weak`
/// (the published one, plus slack for a worker that has replied but not
/// yet dropped its job).
#[test]
fn retired_document_versions_are_freed_under_commits() {
    let (xmark, dblp) = trees();
    let server = Server::new(ServeConfig { workers: 2, ..ServeConfig::default() });
    server.add_tree(xmark);
    server.add_tree(dblp);
    let corpus: Vec<_> = paper_corpus()
        .into_iter()
        .filter(|(name, _, _)| matches!(*name, "Q1" | "Q3" | "Q4" | "Q5" | "Q6"))
        .collect();

    let mut versions: [Vec<std::sync::Weak<jgi_engine::Database>>; 2] = [Vec::new(), Vec::new()];
    let mut witness = |server: &Server| {
        let snapshot = server.snapshot();
        for (doc, seen) in versions.iter_mut().enumerate() {
            let db = Arc::downgrade(&snapshot.docs[doc].snap.db);
            if !seen.iter().any(|w| w.ptr_eq(&db)) {
                seen.push(db);
            }
        }
    };
    witness(&server);
    for i in 0..64u32 {
        // Alternate the touched document: global pre 1 is auction.xml's
        // root element, dblp.xml's sits right after auction.xml's rows.
        let parent = if i % 2 == 0 { 1 } else { server.snapshot().docs[1].base_pre + 1 };
        server
            .commit(&[Op::Insert { parent, pos: 0, xml: format!("<probe n=\"{i}\"/>") }])
            .expect("probe commits");
        witness(&server);
        for &(name, query, ctx) in &corpus {
            let reply = server
                .execute(query, ctx, Engine::JoinGraph, None)
                .unwrap_or_else(|e| panic!("{name} after commit {i}: {e}"));
            assert!(reply.cached_plan || i == 0, "{name}: a commit must not cost a compile");
        }
    }
    let (retained, _, _) = server.flight_stats();
    assert!(retained >= 48, "the slow pool is full: {retained} records retained");
    for (doc, seen) in versions.iter().enumerate() {
        assert_eq!(seen.len(), 33, "document {doc}: the load plus 32 commits");
        let alive = seen.iter().filter(|w| w.upgrade().is_some()).count();
        assert!(alive <= 2, "document {doc}: {alive} of {} versions still resident", seen.len());
    }
    // The recorder still answers for requests whose database is gone.
    let dump = server.trace_dump(64);
    assert!(dump.iter().any(|r| r.render().contains("\"explain\":null")));
    assert!(dump.iter().all(|r| r.render().contains("\"report\":{")));
}
