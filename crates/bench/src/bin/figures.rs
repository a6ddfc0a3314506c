//! Regenerate the paper's figures as text:
//!
//! * `fig2`  — the tabular encoding of the auction fragment;
//! * `fig4`  — the initial stacked plan for Q1 (text + DOT);
//! * `fig7`  — the isolated plan for Q1;
//! * `fig8`  — the join-graph SQL for Q1;
//! * `fig9`  — the join-graph SQL for Q2;
//! * `fig10` — the optimized execution plan for Q1 (with continuations);
//! * `fig11` — the optimized execution plan for Q2.
//!
//! ```sh
//! cargo run --release -p jgi-bench --bin figures -- fig7 [--dot]
//! cargo run --release -p jgi-bench --bin figures -- all
//! ```

use jgi_algebra::pretty::{render_dot, render_text};
use jgi_core::queries::{Q1, Q2};
use jgi_core::Session;
use jgi_xml::generate::{generate_xmark, XmarkConfig};

fn fig2() {
    let mut s = Session::new();
    s.load_xml(
        "auction.xml",
        r#"<open_auction id="1"><initial>15</initial><bidder>
            <time>18:43</time><increase>4.20</increase></bidder></open_auction>"#,
    )
    .unwrap();
    println!("Fig. 2 — encoding of the infoset of auction.xml:\n");
    println!("{}", s.store().render(0, 10));
}

fn plan_figure(query: &str, isolated: bool, dot: bool, title: &str) {
    let mut s = Session::new();
    s.add_tree(generate_xmark(XmarkConfig { scale: 0.002, seed: 42 }));
    let p = s.prepare(query, None).unwrap();
    let root = if isolated { p.isolated_root } else { p.stacked_root };
    println!("{title}\n");
    if dot {
        println!("{}", render_dot(&p.plan, root, title));
    } else {
        println!("{}", render_text(&p.plan, root));
    }
    if isolated {
        println!("(isolation: {})", p.report.rewrite.summary());
    }
}

fn sql_figure(query: &str, title: &str) {
    let mut s = Session::new();
    s.add_tree(generate_xmark(XmarkConfig { scale: 0.002, seed: 42 }));
    let p = s.prepare(query, None).unwrap();
    println!("{title}\n");
    println!("{}", p.sql.expect("extractable"));
}

fn exec_figure(query: &str, title: &str) {
    let mut s = Session::new();
    s.add_tree(generate_xmark(XmarkConfig { scale: 0.01, seed: 42 }));
    let p = s.prepare(query, None).unwrap();
    println!("{title}\n");
    println!("{}", s.explain(&p).unwrap());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let which = args.first().map(|s| s.as_str()).unwrap_or("all");
    let dot = args.iter().any(|a| a == "--dot");
    const KNOWN: [&str; 8] =
        ["all", "fig2", "fig4", "fig7", "fig8", "fig9", "fig10", "fig11"];
    if !KNOWN.contains(&which) {
        eprintln!("unknown figure `{which}`; expected one of: {}", KNOWN.join(", "));
        std::process::exit(2);
    }
    let run = |name: &str| which == "all" || which == name;
    if run("fig2") {
        fig2();
    }
    if run("fig4") {
        plan_figure(Q1, false, dot, "Fig. 4 — initial stacked plan for Q1:");
    }
    if run("fig7") {
        plan_figure(Q1, true, dot, "Fig. 7 — isolated plan for Q1 (tail + join bundle):");
    }
    if run("fig8") {
        sql_figure(Q1, "Fig. 8 — SQL encoding of Q1's join graph:");
    }
    if run("fig9") {
        sql_figure(Q2, "Fig. 9 — SQL encoding of Q2 (12-fold self-join):");
    }
    if run("fig10") {
        exec_figure(Q1, "Fig. 10 — optimized execution plan for Q1 (with continuations):");
    }
    if run("fig11") {
        exec_figure(Q2, "Fig. 11 — optimized execution plan for Q2:");
    }
}
