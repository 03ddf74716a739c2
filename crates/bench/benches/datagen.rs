//! Synthetic-scene generation benchmarks (the "IO" producer of the
//! reproduction).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use geofm_bench::quick_criterion;
use geofm_data::{DatasetKind, SceneDataset, SceneRenderer};
use std::hint::black_box;

fn bench_render(c: &mut Criterion) {
    let mut group = c.benchmark_group("render_class");
    for &img in &[16usize, 48] {
        let r = SceneRenderer::new(img, 3, 7);
        group.bench_with_input(BenchmarkId::new("batch8", img), &img, |b, _| {
            b.iter(|| black_box(r.render_class(3, 8, 0)))
        });
    }
    group.finish();
}

fn bench_dataset_generation(c: &mut Criterion) {
    c.bench_function("generate_ucm_64", |b| {
        b.iter(|| black_box(SceneDataset::generate(DatasetKind::Ucm, 64, 24, 3, 0, 1)))
    });
}

criterion_group! {
    name = benches;
    config = quick_criterion();
    targets = bench_render, bench_dataset_generation
}
criterion_main!(benches);
