//! Rewriter throughput: compilation and join graph isolation are
//! compile-time costs the paper trades for execution-time wins; these
//! benches keep them honest.

use criterion::{criterion_group, criterion_main, Criterion};
use jgi_compiler::compile;
use jgi_core::queries::{Q1, Q2};
use jgi_rewrite::{extract_cq, isolate};
use jgi_xquery::compile_to_core;

/// Three-way value-join chain: names of items sold to a known buyer. With
/// Q2 the heaviest text to isolate.
const JC: &str = r#"let $a := doc("auction.xml")
    for $ca in $a//closed_auction, $p in $a//person, $i in $a//item
    where $ca/buyer/@person = $p/@id and $ca/itemref/@item = $i/@id
    return $i/name"#;

fn bench_isolation(c: &mut Criterion) {
    let mut group = c.benchmark_group("isolation");
    group.sample_size(10);
    for (name, text) in [("Q1", Q1), ("Q2", Q2), ("JC", JC)] {
        let core = compile_to_core(text).unwrap();
        group.bench_function(format!("{name}/compile"), |b| {
            b.iter(|| compile(&core).unwrap().plan.len())
        });
        group.bench_function(format!("{name}/isolate"), |b| {
            b.iter(|| {
                let compiled = compile(&core).unwrap();
                let mut plan = compiled.plan;
                let (root, stats) = isolate(&mut plan, compiled.root);
                assert!(!stats.fuel_exhausted);
                extract_cq(&plan, root).unwrap().aliases
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_isolation);
criterion_main!(benches);
