//! Snapshot publish vs. the per-query physical-plan memo (`jgi-serve`
//! over `jgi_engine::optimizer::PlanMemo`).
//!
//! A commit publishes a new snapshot whose touched documents carry new
//! databases, each with a fresh identity — and does nothing else: there
//! is no purge step. The compiled query stays cached; what depends on the
//! database, its physical plan, sits in a one-slot memo beside it. A
//! request reads the published snapshot once, takes the slot, compares
//! the slot's database id with the database *it* executes on, and on a
//! mismatch plans (outside the lock) and overwrites the slot. A request
//! still holding the old snapshot may overwrite a newer plan with an
//! older one; that costs the next request a re-plan, never a wrong plan,
//! because every reader compares before it trusts.
//!
//! The refutable variant drops the id from the slot (any memoised plan
//! hits) and the checker finds the request that executes the old
//! database's plan on the new one.

use std::sync::Arc;

use crate::sync::{Mutex, RwLock};
use crate::{ensure, explore, thread, Config, Report};

/// How a request decides the memoised plan is usable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoKeying {
    /// Shipped: the slot hits only for the database it was planned on.
    ByDatabaseId,
    /// Broken: any memoised plan hits — refutable.
    Unkeyed,
}

struct S {
    /// Identity of the database in the published snapshot (the real field
    /// is `RwLock<Arc<Snapshot>>`; the database id is what the race is
    /// about).
    published: RwLock<u64>,
    /// The memo slot as `(database id it is keyed on, database the plan
    /// was built for)`.
    memo: Mutex<Option<(u64, u64)>>,
}

/// Publish the post-commit database. No purge, no second critical section.
fn committer(s: &S) {
    *s.published.write() = 2;
}

fn request(s: &S, keying: MemoKeying) {
    let db = *s.published.read();
    let hit = match *s.memo.lock() {
        Some((id, plan)) if keying == MemoKeying::Unkeyed || id == db => Some(plan),
        _ => None,
    };
    let plan = match hit {
        Some(plan) => plan,
        None => {
            // Planned against the database this request holds, with the
            // slot unlocked; then the slot is overwritten.
            let plan = db;
            *s.memo.lock() = Some((db, plan));
            plan
        }
    };
    ensure!(
        plan == db,
        "stale plan: executing the plan built for database {plan} on database {db}"
    );
}

/// One committer publishes (database 1 → 2) while two requests race the
/// read-probe-execute path; the memo starts warm with database 1's plan,
/// so both the hit and the re-plan path are live.
pub fn check(keying: MemoKeying, cfg: &Config) -> Report {
    explore(cfg, move || {
        let s = Arc::new(S {
            published: RwLock::named("snapshot", 1),
            memo: Mutex::named("plan_memo", Some((1, 1))),
        });
        let commit = {
            let s = Arc::clone(&s);
            thread::spawn("committer", move || committer(&s))
        };
        let requests: Vec<_> = ["request-a", "request-b"]
            .into_iter()
            .map(|name| {
                let s = Arc::clone(&s);
                thread::spawn(name, move || request(&s, keying))
            })
            .collect();
        commit.join().expect("committer");
        for r in requests {
            r.join().expect("request");
        }
        // Quiescent: whichever request wrote last, the slot's key names
        // the database its plan was built for.
        let slot = *s.memo.lock();
        if let Some((id, plan)) = slot {
            ensure!(id == plan, "memo slot keyed on database {id} holds database {plan}'s plan");
        }
    })
}
