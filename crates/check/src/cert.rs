//! Static property certification (paper Tables 2–5).
//!
//! Re-derives `icols`, `const`, `key`, and `set` for every node with a
//! deliberately-naive algorithm — worklist fixpoints over plain `HashSet`s
//! for the top-down properties, a literal transcription of the bottom-up
//! tables for the rest — and cross-checks the result against what
//! `jgi_rewrite::props::infer` claims. The two implementations share no
//! code: a bug in the optimized single-pass inference shows up as a
//! divergence here.
//!
//! Comparison discipline per property:
//! * `icols`, `set`, `const` — exact equality per node.
//! * `key` — soundness containment: every *claimed* key must contain some
//!   naively-derived key (a superset of a key is a key). The naive side
//!   derives without the 16-entry cap that `props` applies, so a claimed
//!   key that matches no naive key is a genuine red flag.

use crate::Violation;
use jgi_algebra::pred::pred_cols;
use jgi_algebra::{Col, ColSet, NodeId, Op, Plan, Value};
use jgi_rewrite::Props;
use std::collections::{HashMap, HashSet};

/// Naive keys per node are capped to keep pathological joins polynomial;
/// nodes that overflow are excluded from the key containment check.
const NAIVE_KEY_CAP: usize = 64;

/// Cross-check `props` (as inferred by `jgi_rewrite`) against a naive
/// re-derivation over the DAG under `root`. Returns all divergences.
pub fn certify(plan: &Plan, root: NodeId, props: &Props) -> Vec<Violation> {
    let topo = plan.topo_order(root);
    let mut out = Vec::new();

    let icols = naive_icols(plan, root, &topo);
    for &id in &topo {
        let claimed: HashSet<Col> = props.icols(id).iter().collect();
        let naive = icols.get(&id).cloned().unwrap_or_default();
        if claimed != naive {
            out.push(Violation {
                kind: "icols",
                node: id,
                message: format!(
                    "claimed {} vs naive {}",
                    render_cols(plan, &claimed),
                    render_cols(plan, &naive)
                ),
            });
        }
    }

    let set = naive_set(plan, root, &topo);
    for &id in &topo {
        let claimed = props.set(id);
        let naive = set.get(&id).copied().unwrap_or(false);
        if claimed != naive {
            out.push(Violation {
                kind: "set",
                node: id,
                message: format!("claimed set={claimed} vs naive set={naive}"),
            });
        }
    }

    let consts = naive_consts(plan, &topo);
    for &id in &topo {
        let mut claimed: Vec<(Col, Value)> = props.consts(id).to_vec();
        let mut naive = consts.get(&id).cloned().unwrap_or_default();
        claimed.sort();
        naive.sort();
        if claimed != naive {
            out.push(Violation {
                kind: "const",
                node: id,
                message: format!(
                    "claimed {} constant column(s) vs naive {}: {:?} vs {:?}",
                    claimed.len(),
                    naive.len(),
                    claimed.iter().map(|(c, v)| (plan.col_name(*c), v)).collect::<Vec<_>>(),
                    naive.iter().map(|(c, v)| (plan.col_name(*c), v)).collect::<Vec<_>>()
                ),
            });
        }
    }

    let (keys, overflow) = naive_keys(plan, &topo, &consts);
    for &id in &topo {
        if overflow.contains(&id) {
            continue;
        }
        let naive = keys.get(&id).map(|v| v.as_slice()).unwrap_or(&[]);
        for claimed in props.keys(id) {
            if !naive.iter().any(|k| k.is_subset(claimed)) {
                out.push(Violation {
                    kind: "key",
                    node: id,
                    message: format!(
                        "claimed key {} contains no naively-derivable key (naive: {})",
                        render_colset(plan, claimed),
                        naive.iter().map(|k| render_colset(plan, k)).collect::<Vec<_>>().join(" ")
                    ),
                });
            }
        }
    }

    out
}

fn render_cols(plan: &Plan, cols: &HashSet<Col>) -> String {
    let mut names: Vec<&str> = cols.iter().map(|&c| plan.col_name(c)).collect();
    names.sort();
    format!("{{{}}}", names.join(","))
}

fn render_colset(plan: &Plan, cols: &ColSet) -> String {
    let mut names: Vec<&str> = cols.iter().map(|c| plan.col_name(c)).collect();
    names.sort();
    format!("{{{}}}", names.join(","))
}

/// Table 2, as a worklist fixpoint: every node starts with ∅; consumers
/// push their requirements down edge by edge until nothing changes.
fn naive_icols(
    plan: &Plan,
    root: NodeId,
    topo: &[NodeId],
) -> HashMap<NodeId, HashSet<Col>> {
    let mut icols: HashMap<NodeId, HashSet<Col>> =
        topo.iter().map(|&id| (id, HashSet::new())).collect();
    let _ = root;
    loop {
        let mut changed = false;
        for &id in topo {
            let node = plan.node(id);
            let my: HashSet<Col> = icols[&id].clone();
            for (slot, &e) in node.inputs.iter().enumerate() {
                let contrib: HashSet<Col> = match &node.op {
                    Op::Serialize { item, pos } => {
                        let mut s = my.clone();
                        s.insert(*item);
                        s.insert(*pos);
                        s
                    }
                    Op::Project(m) => m
                        .iter()
                        .filter(|(out, _)| my.contains(out))
                        .map(|(_, src)| *src)
                        .collect(),
                    Op::Select(p) => {
                        let mut s = my.clone();
                        s.extend(pred_cols(p).iter());
                        s
                    }
                    Op::Join(p) => {
                        let mut s = my.clone();
                        s.extend(pred_cols(p).iter());
                        s.retain(|&c| plan.schema(e).contains(c));
                        s
                    }
                    Op::Cross => {
                        let mut s = my.clone();
                        s.retain(|&c| plan.schema(e).contains(c));
                        s
                    }
                    Op::Distinct | Op::Union => my.clone(),
                    Op::Attach(c, _) | Op::RowId(c) => {
                        let mut s = my.clone();
                        s.remove(c);
                        s
                    }
                    Op::Rank { out, by } => {
                        let mut s = my.clone();
                        s.remove(out);
                        s.extend(by.iter().copied());
                        s
                    }
                    Op::Doc | Op::Lit { .. } => HashSet::new(),
                };
                let _ = slot;
                let dst = icols.get_mut(&e).expect("input reachable");
                for c in contrib {
                    changed |= dst.insert(c);
                }
            }
        }
        if !changed {
            return icols;
        }
    }
}

/// Table 5, as a fixpoint over the consumer relation: `set(n)` holds iff
/// *every* consumer edge guarantees duplicate elimination upstream. The
/// root seeds `false` (serialization observes multiplicity).
fn naive_set(plan: &Plan, root: NodeId, topo: &[NodeId]) -> HashMap<NodeId, bool> {
    // consumer edges: input -> (consumer id)
    let mut consumers: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
    for &id in topo {
        for &e in plan.node(id).inputs {
            consumers.entry(e).or_default().push(id);
        }
    }
    let mut set: HashMap<NodeId, bool> = topo.iter().map(|&id| (id, id != root)).collect();
    loop {
        let mut changed = false;
        for &id in topo {
            if id == root {
                continue;
            }
            let v = consumers
                .get(&id)
                .map(|cs| {
                    cs.iter().all(|&c| match &plan.node(c).op {
                        Op::Serialize { .. } => false,
                        Op::Distinct => true,
                        Op::RowId(_) => false,
                        Op::Project(_)
                        | Op::Select(_)
                        | Op::Join(_)
                        | Op::Cross
                        | Op::Attach(..)
                        | Op::Rank { .. }
                        | Op::Union => set[&c],
                        Op::Doc | Op::Lit { .. } => unreachable!("leaves have no inputs"),
                    })
                })
                .unwrap_or(false);
            if set[&id] != v {
                set.insert(id, v);
                changed = true;
            }
        }
        if !changed {
            return set;
        }
    }
}

/// Table 3, bottom-up with plain maps.
fn naive_consts(plan: &Plan, topo: &[NodeId]) -> HashMap<NodeId, Vec<(Col, Value)>> {
    let mut consts: HashMap<NodeId, Vec<(Col, Value)>> = HashMap::new();
    for &id in topo {
        let node = plan.node(id);
        let inp = |k: usize| consts.get(&node.inputs[k]).cloned().unwrap_or_default();
        let cs: Vec<(Col, Value)> = match &node.op {
            Op::Doc => Vec::new(),
            Op::Lit { cols, rows } => {
                let mut cs = Vec::new();
                if let Some(first) = rows.first() {
                    for (i, &c) in cols.iter().enumerate() {
                        if rows.iter().all(|r| r[i] == first[i]) {
                            cs.push((c, first[i].clone()));
                        }
                    }
                }
                cs
            }
            Op::Attach(c, v) => {
                let mut cs = inp(0);
                cs.push((*c, v.clone()));
                cs
            }
            Op::Project(m) => {
                let ic = inp(0);
                m.iter()
                    .filter_map(|(out, src)| {
                        ic.iter().find(|(c, _)| c == src).map(|(_, v)| (*out, v.clone()))
                    })
                    .collect()
            }
            Op::Serialize { .. } | Op::Select(_) | Op::Distinct | Op::Rank { .. }
            | Op::RowId(_) => inp(0),
            Op::Join(_) | Op::Cross => {
                let mut cs = inp(0);
                cs.extend(inp(1));
                cs
            }
            Op::Union => {
                let c2 = inp(1);
                inp(0).into_iter().filter(|(c, v)| c2.iter().any(|(d, w)| d == c && w == v)).collect()
            }
        };
        consts.insert(id, cs);
    }
    consts
}

/// Table 4 (with the engineering refinements `props` documents: constant
/// columns dropped from keys, single-atom equi-join key transfer), derived
/// bottom-up without the 16-entry cap.
fn naive_keys(
    plan: &Plan,
    topo: &[NodeId],
    consts: &HashMap<NodeId, Vec<(Col, Value)>>,
) -> (HashMap<NodeId, Vec<ColSet>>, HashSet<NodeId>) {
    let mut keys: HashMap<NodeId, Vec<ColSet>> = HashMap::new();
    let mut overflow: HashSet<NodeId> = HashSet::new();
    for &id in topo {
        let node = plan.node(id);
        let inp = |k: usize| keys.get(&node.inputs[k]).cloned().unwrap_or_default();
        let inputs_overflowed =
            node.inputs.iter().any(|e| overflow.contains(e));
        let mut ks: Vec<ColSet> = match &node.op {
            Op::Doc => {
                let pre = plan.cols.get("pre").map(Col).expect("doc table has pre");
                vec![ColSet::single(pre)]
            }
            Op::Lit { cols, rows } => {
                let mut ks = Vec::new();
                for (i, &c) in cols.iter().enumerate() {
                    let mut vals: Vec<&Value> = rows.iter().map(|r| &r[i]).collect();
                    vals.sort();
                    vals.dedup();
                    if vals.len() == rows.len() || rows.len() <= 1 {
                        ks.push(ColSet::single(c));
                    }
                }
                ks
            }
            Op::Serialize { .. } | Op::Select(_) => inp(0),
            Op::Distinct => {
                let mut ks = inp(0);
                let schema = plan.schema(node.inputs[0]).clone();
                if !ks.contains(&schema) {
                    ks.push(schema);
                }
                ks
            }
            Op::Project(m) => {
                let mut ks = Vec::new();
                for k in inp(0) {
                    let mut renamed = ColSet::new();
                    let mut ok = true;
                    for c in k.iter() {
                        match m.iter().find(|(_, src)| *src == c) {
                            Some((out, _)) => renamed.insert(*out),
                            None => {
                                ok = false;
                                break;
                            }
                        }
                    }
                    if ok {
                        ks.push(renamed);
                    }
                }
                ks
            }
            Op::Attach(..) => inp(0),
            Op::RowId(c) => {
                let mut ks = inp(0);
                ks.push(ColSet::single(*c));
                ks
            }
            Op::Rank { out, by } => {
                let mut ks = inp(0);
                let by_set = ColSet::from_iter(by.iter().copied());
                let extra: Vec<ColSet> = ks
                    .iter()
                    .filter(|k| !k.intersect(&by_set).is_empty())
                    .map(|k| {
                        let mut nk = k.minus(&by_set);
                        nk.insert(*out);
                        nk
                    })
                    .collect();
                ks.extend(extra);
                ks
            }
            Op::Join(p) => {
                let k1 = inp(0);
                let k2 = inp(1);
                let mut ks = Vec::new();
                if let [atom] = p.as_slice() {
                    if let Some((a, b)) = atom.as_col_eq() {
                        let (a, b) = if plan.schema(node.inputs[0]).contains(a) {
                            (a, b)
                        } else {
                            (b, a)
                        };
                        let a_key = k1.iter().any(|k| k.len() == 1 && k.contains(a));
                        let b_key = k2.iter().any(|k| k.len() == 1 && k.contains(b));
                        if b_key {
                            ks.extend(k1.iter().cloned());
                            for ka in &k1 {
                                for kb in &k2 {
                                    let mut k = ka.clone();
                                    k.remove(a);
                                    ks.push(k.union(kb));
                                }
                            }
                        }
                        if a_key {
                            ks.extend(k2.iter().cloned());
                            for ka in &k1 {
                                for kb in &k2 {
                                    let mut k = kb.clone();
                                    k.remove(b);
                                    ks.push(ka.union(&k));
                                }
                            }
                        }
                    }
                }
                for ka in &k1 {
                    for kb in &k2 {
                        ks.push(ka.union(kb));
                    }
                }
                ks
            }
            Op::Cross => {
                let mut ks = Vec::new();
                for ka in inp(0) {
                    for kb in inp(1) {
                        ks.push(ka.union(&kb));
                    }
                }
                ks
            }
            Op::Union => Vec::new(),
        };
        // Constant columns discriminate nothing: K \ const is still a key.
        let const_set =
            ColSet::from_iter(consts.get(&id).into_iter().flatten().map(|(c, _)| *c));
        if !const_set.is_empty() {
            let extra: Vec<ColSet> = ks
                .iter()
                .filter(|k| !k.intersect(&const_set).is_empty())
                .map(|k| k.minus(&const_set))
                .filter(|k| !k.is_empty())
                .collect();
            ks.extend(extra);
        }
        ks.sort_by_key(|k| k.len());
        ks.dedup();
        if inputs_overflowed || ks.len() > NAIVE_KEY_CAP {
            ks.truncate(NAIVE_KEY_CAP);
            overflow.insert(id);
        }
        keys.insert(id, ks);
    }
    (keys, overflow)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jgi_rewrite::infer;

    /// The two derivations must agree on a plan that exercises every
    /// operator at least once.
    #[test]
    fn all_operators_certify() {
        let mut p = Plan::new();
        let d = p.doc();
        let pre = p.col("pre");
        let kind = p.col("kind");
        let item = p.col("item");
        let iter = p.col("iter");
        let pos = p.col("pos");
        let inner = p.col("inner");
        let lit = p.lit(
            vec![iter],
            vec![vec![Value::Int(1)], vec![Value::Int(2)]],
        );
        let rid = p.row_id(lit, inner);
        let sel = p.select(
            d,
            vec![jgi_algebra::pred::Atom::col_eq_const(
                kind,
                Value::Kind(jgi_xml::NodeKind::Elem),
            )],
        );
        let proj = p.project(sel, vec![(item, pre)]);
        let j = p.join(rid, proj, vec![jgi_algebra::pred::Atom::col_eq(inner, item)]);
        let dd = p.distinct(j);
        let ranked = p.rank(dd, pos, vec![item]);
        let u = p.union(ranked, ranked);
        let root = p.serialize(u, item, pos);
        let props = infer(&p, root);
        let violations = certify(&p, root, &props);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn detects_a_planted_bad_key() {
        let mut p = Plan::new();
        let iter = p.col("iter");
        let item = p.col("item");
        let pos = p.col("pos");
        let lit = p.lit(
            vec![iter, item],
            vec![
                vec![Value::Int(1), Value::Int(7)],
                vec![Value::Int(2), Value::Int(7)],
            ],
        );
        let att = p.attach(lit, pos, Value::Int(1));
        let root = p.serialize(att, item, pos);
        let mut props = infer(&p, root);
        // Plant an unsound claim: {item} is NOT a key (7 repeats).
        props.plant(lit, |c| c.up.keys.push(ColSet::single(item)));
        let violations = certify(&p, root, &props);
        assert!(
            violations.iter().any(|v| v.kind == "key" && v.node == lit),
            "{violations:?}"
        );
    }
}
