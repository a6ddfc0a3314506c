//! Quickstart: the whole pipeline on the paper's running example.
//!
//! Loads the Fig. 2 document, shows its tabular encoding, compiles Q1
//! through normalization / loop lifting / join graph isolation, prints the
//! emitted SQL (paper Fig. 8) and the optimizer's execution plan (paper
//! Fig. 10 style), and runs the query on all four back-ends.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use xq_joingraph::{Engine, Session};

fn main() {
    let mut session = Session::new();
    session
        .load_xml(
            "auction.xml",
            r#"<open_auction id="1"><initial>15</initial><bidder>
                <time>18:43</time><increase>4.20</increase></bidder></open_auction>"#,
        )
        .expect("well-formed XML");

    println!("== the tabular XML infoset encoding (paper Fig. 2) ==");
    println!("{}", session.store().render(0, 10));

    let q1 = r#"doc("auction.xml")/descendant::open_auction[bidder]"#;
    println!("== query ==\n{q1}\n");

    let prepared = session.prepare(q1, None).expect("query compiles");
    println!("== normalized XQuery Core (paper section 2.4) ==");
    println!("{}", prepared.core.pretty());

    println!("== join graph isolation ==");
    println!("{}\n", prepared.report.rewrite.summary());

    println!("== emitted SQL (paper Fig. 8) ==");
    println!("{}\n", prepared.sql.as_ref().expect("Q1 is extractable"));

    println!("== optimizer's execution plan (paper Fig. 10 style) ==");
    println!("{}", session.explain(&prepared).unwrap());

    println!("== execution on all four back-ends ==");
    for engine in Engine::all() {
        let outcome = session.execute(&prepared, engine).expect("plan executes");
        match &outcome.nodes {
            Some(nodes) => println!(
                "{:<16} -> {} node(s): {}",
                engine.label(),
                nodes.len(),
                session.serialize(nodes)
            ),
            None => println!("{:<16} -> dnf", engine.label()),
        }
    }
}
