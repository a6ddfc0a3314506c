//! The audit checks every rewrite of a batched fire: on the 11 benchmark
//! texts under [`jgi_check::checked_isolate`], the audit's per-rule tallies
//! equal the driver's rule applications (join descents, observed once
//! each, aside). A house-cleaning batch that skipped the per-rewrite audit
//! would show up here.

use jgi_check::checked_isolate;
use jgi_check::corpus::tiny_store;
use jgi_compiler::compile;
use jgi_xquery::{normalize, parse_query, ParserOptions};

#[path = "../../rewrite/tests/texts/mod.rs"]
mod texts;

#[test]
fn audit_tallies_match_rule_applications_on_the_benchmark_texts() {
    let store = tiny_store();
    for (name, text, ctx) in texts::TEXTS {
        let opts = ParserOptions { context_doc: ctx.map(str::to_string) };
        let core = normalize(&parse_query(text, &opts).unwrap()).unwrap();
        let compiled = compile(&core).unwrap();
        let mut plan = compiled.plan;
        let (_, stats, report) = checked_isolate(&mut plan, compiled.root, &store)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(report.unaudited(&stats), vec![], "{name}: {}", report.summary());
        assert!(report.fires >= stats.steps, "{name}: {}", report.summary());
    }
}
