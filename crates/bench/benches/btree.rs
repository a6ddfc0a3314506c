//! B+tree micro-benchmarks: bulk load, point probes, range scans — the
//! primitives every IXSCAN in the paper's plans bottoms out in.

use criterion::{criterion_group, criterion_main, Criterion};
use jgi_engine::btree::BTree;

fn bench_btree(c: &mut Criterion) {
    let n: u64 = 100_000;
    let keys: Vec<u64> = (0..n).flat_map(|i| [i * 7 % n, i]).collect();
    let vals: Vec<u32> = (0..n as u32).collect();

    let mut group = c.benchmark_group("btree");
    group.sample_size(10);
    group.bench_function("bulk_load_100k", |b| {
        b.iter(|| BTree::bulk_load(2, keys.clone(), vals.clone()))
    });

    let tree = BTree::bulk_load(2, keys.clone(), vals.clone());
    group.bench_function("point_probe", |b| {
        let mut k = 0u64;
        b.iter(|| {
            k = (k + 101) % n;
            tree.scan_prefix(&[k]).count()
        })
    });
    group.bench_function("range_scan_1pct", |b| {
        let mut k = 0u64;
        b.iter(|| {
            k = (k + 101) % (n - n / 100);
            tree.scan(&[k], false, &[k + n / 100], false).count()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_btree);
criterion_main!(benches);
