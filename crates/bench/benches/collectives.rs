//! Collective benchmarks: the chunk-parallel all-reduce across rank counts
//! and message sizes, and a 4-rank all-gather.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use geofm_bench::quick_criterion;
use geofm_collectives::Group;
use std::hint::black_box;

fn run_all_reduce(ranks: usize, elems: usize) {
    let handles = Group::create(ranks);
    std::thread::scope(|s| {
        for h in handles {
            s.spawn(move || {
                let mut buf = vec![h.rank() as f32; elems];
                h.all_reduce(&mut buf);
                black_box(buf[0]);
            });
        }
    });
}

fn bench_all_reduce(c: &mut Criterion) {
    let mut group = c.benchmark_group("all_reduce");
    for &ranks in &[2usize, 4] {
        for &elems in &[1024usize, 65_536] {
            group.bench_with_input(
                BenchmarkId::new(format!("r{}", ranks), elems),
                &elems,
                |b, &e| b.iter(|| run_all_reduce(ranks, e)),
            );
        }
    }
    group.finish();
}

fn bench_all_gather(c: &mut Criterion) {
    c.bench_function("all_gather_4r_16k", |b| {
        b.iter(|| {
            let handles = Group::create(4);
            std::thread::scope(|s| {
                for h in handles {
                    s.spawn(move || {
                        let local = vec![h.rank() as f32; 16_384];
                        let mut out = Vec::new();
                        h.all_gather(&local, &mut out);
                        black_box(out.len());
                    });
                }
            });
        })
    });
}

criterion_group! {
    name = benches;
    config = quick_criterion();
    targets = bench_all_reduce, bench_all_gather
}
criterion_main!(benches);
