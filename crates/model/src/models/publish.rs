//! Transactional snapshot publish (`jgi-serve` since live mutation).
//!
//! A mutation batch can touch several documents. `Master::commit` bumps
//! every touched document's version inside the master lock, `publish`
//! assembles one immutable snapshot carrying all the versions, and the
//! server installs it with a **single pointer swap**. Nothing follows the
//! swap: compiled queries do not depend on a document, and the physical
//! plan that does is re-validated by every reader ([`super::plan_memo`]).
//!
//! **Publish atomicity** — no reader observes a half-published batch: the
//! versions a request sees are either all pre-commit or all post-commit.
//! The broken variant publishes per-document pointers in two critical
//! sections; the checker finds the torn read.

use std::sync::Arc;

use crate::sync::RwLock;
use crate::{ensure, explore, thread, Config, Report};

/// How a committed batch becomes visible to readers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PublishMode {
    /// Shipped: one immutable snapshot (all document versions), one
    /// pointer swap.
    SingleSwap,
    /// Broken: each document's version published through its own lock in
    /// its own critical section — refutable (torn batch).
    PerDocument,
}

struct S {
    /// The snapshot pointer: versions of documents (a, b), swapped as one
    /// value (the real field is `RwLock<Arc<Snapshot>>`).
    published: RwLock<(u64, u64)>,
    /// Per-document pointers for the broken publish mode.
    published_a: RwLock<u64>,
    published_b: RwLock<u64>,
}

fn read_snapshot(s: &S, mode: PublishMode) -> (u64, u64) {
    match mode {
        PublishMode::SingleSwap => *s.published.read(),
        // Two separate reads: the torn-batch window.
        PublishMode::PerDocument => (*s.published_a.read(), *s.published_b.read()),
    }
}

/// Commit a batch touching BOTH documents (1 → 2) and publish it.
fn writer(s: &S, mode: PublishMode) {
    match mode {
        PublishMode::SingleSwap => {
            let mut p = s.published.write();
            *p = (2, 2);
        }
        PublishMode::PerDocument => {
            {
                let mut a = s.published_a.write();
                *a = 2;
            }
            // Separate critical section: a reader can interleave here and
            // see document A at version 2 with B still at 1.
            let mut b = s.published_b.write();
            *b = 2;
        }
    }
}

/// One request: read the snapshot once and execute against it.
fn request(s: &S, mode: PublishMode) {
    let (va, vb) = read_snapshot(s, mode);
    // The batch bumped both documents together, so any consistent
    // snapshot has them in lockstep.
    ensure!(
        va == vb,
        "torn publish: reader saw document a at v{va} but document b at v{vb}"
    );
}

/// One writer commits a two-document batch while two requests read the
/// snapshot.
pub fn check(mode: PublishMode, cfg: &Config) -> Report {
    explore(cfg, move || {
        let s = Arc::new(S {
            published: RwLock::named("snapshot", (1, 1)),
            published_a: RwLock::named("doc_a", 1),
            published_b: RwLock::named("doc_b", 1),
        });
        let w = {
            let s = Arc::clone(&s);
            thread::spawn("committer", move || writer(&s, mode))
        };
        let requests: Vec<_> = ["request-a", "request-b"]
            .into_iter()
            .map(|name| {
                let s = Arc::clone(&s);
                thread::spawn(name, move || request(&s, mode))
            })
            .collect();
        w.join().expect("committer");
        for r in requests {
            r.join().expect("request");
        }
        // Quiescent: the final snapshot is the fully-published batch.
        let (va, vb) = read_snapshot(&s, mode);
        ensure!((va, vb) == (2, 2), "batch not fully published at quiescence");
    })
}
