//! "Let SQL drive the workhorse", literally: the join graph travels as a
//! plain SQL string — emitted, then *parsed back* and executed, with no
//! XQuery-specific annotations in between (paper §3.3).
//!
//! Also prints the stacked CTE SQL for contrast (the shape that overwhelms
//! optimizers).
//!
//! ```sh
//! cargo run --release --example sql_interchange
//! ```

use jgi_sql::parse_join_graph;
use jgi_xml::generate::{generate_xmark, XmarkConfig};
use xq_joingraph::queries::Q1;
use xq_joingraph::{Engine, Session};

fn main() {
    let mut session = Session::new();
    session.add_tree(generate_xmark(XmarkConfig { scale: 0.005, seed: 42 }));

    let prepared = session.prepare(Q1, None).expect("Q1 compiles");

    let sql = prepared.sql.clone().expect("Q1 is extractable");
    println!("== the join graph as SQL (the only thing the back-end sees) ==");
    println!("{sql}\n");

    // Round-trip: parse the SQL text back and run it.
    let cq = parse_join_graph(&sql).expect("emitted SQL re-parses");
    let db = session.database();
    let plan = jgi_engine::optimizer::plan(db, &cq);
    let from_sql = jgi_engine::physical::execute(db, &plan);

    // Reference: the session's own join-graph path.
    let reference = session.execute(&prepared, Engine::JoinGraph).unwrap().nodes.unwrap();
    assert_eq!(from_sql, reference, "SQL round trip must preserve the result");
    println!(
        "parsed back and executed: {} node(s) — identical to the direct path ✓\n",
        from_sql.len()
    );

    println!("== for contrast: the stacked CTE SQL (first 30 lines) ==");
    let stacked_sql = jgi_sql::stacked_sql(&prepared.plan, prepared.stacked_root);
    for line in stacked_sql.lines().take(30) {
        println!("{line}");
    }
    let total = stacked_sql.lines().count();
    println!("… ({total} lines total — the tall stacked shape of paper Fig. 4)");
}
