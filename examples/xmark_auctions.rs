//! XMark auction scenario: the paper's Q1 and Q2 on a synthetic XMark
//! instance, with per-back-end timings — a miniature of Table 9's left
//! half.
//!
//! ```sh
//! cargo run --release --example xmark_auctions [scale]
//! ```

use jgi_xml::generate::{generate_xmark, XmarkConfig};
use xq_joingraph::queries::{Q1, Q2};
use xq_joingraph::{Engine, Session};

fn main() {
    let scale: f64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0.01);
    println!("generating XMark instance at scale {scale}…");
    let tree = generate_xmark(XmarkConfig { scale, seed: 42 });
    let mut session = Session::new();
    session.add_tree(tree);
    println!("{} nodes loaded\n", session.store().len());

    for (name, text) in [("Q1", Q1), ("Q2", Q2)] {
        let prepared = session.prepare(text, None).expect("paper query compiles");
        println!("== {name} ==");
        println!(
            "isolation: {} (join graph: {})",
            prepared.report.rewrite.summary(),
            prepared
                .cq
                .as_ref()
                .map(|cq| format!("{}-fold self-join", cq.aliases))
                .unwrap_or_else(|| "not extractable".into())
        );
        if let Ok(plan) = session.explain(&prepared) {
            println!("{plan}");
        }
        for engine in Engine::all() {
            let outcome = session.execute(&prepared, engine).expect("plan executes");
            match &outcome.nodes {
                Some(nodes) => println!(
                    "  {:<16} {:>10.3?}  {} result node(s), {} serialized",
                    engine.label(),
                    outcome.wall,
                    nodes.len(),
                    session.node_count(nodes)
                ),
                None => println!("  {:<16} {:>10}  dnf", engine.label(), "-"),
            }
        }
        println!();
    }
}
