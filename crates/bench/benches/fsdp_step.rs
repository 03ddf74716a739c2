//! Distributed-step benchmarks per sharding strategy, plus the
//! unit-granularity ablation (per-block FSDP units vs one whole-model flat
//! unit — the message-sizing trade-off §IV-C discusses for DDP vs FSDP).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use geofm_bench::quick_criterion;
use geofm_fsdp::{try_run_data_parallel, FsdpConfig, ResilienceConfig, ShardingStrategy};
use geofm_nn::Module;
use geofm_tensor::TensorRng;
use geofm_vit::{VitConfig, VitModel};
use std::hint::black_box;

fn tiny() -> VitConfig {
    VitConfig {
        name: "bench".into(),
        width: 32,
        depth: 2,
        mlp: 64,
        heads: 4,
        patch: 4,
        img: 8,
        channels: 1,
    }
}

fn run_steps(strategy: ShardingStrategy, world: usize, whole_model_unit: bool) {
    let cfg = tiny();
    let report = try_run_data_parallel(
        FsdpConfig::tuned(strategy),
        world,
        0.01,
        2,
        move |_| {
            let mut rng = TensorRng::seed_from(11);
            let cfg = tiny();
            let mut m = VitModel::new(&cfg, &mut rng);
            let units = if whole_model_unit {
                vec![m.num_params()]
            } else {
                m.unit_param_counts()
            };
            (m, units)
        },
        move |m, rank, step| {
            let mut rng = TensorRng::seed_from(100 + step as u64);
            let imgs = rng.randn(&[4, cfg.channels * 64], 1.0);
            let per = 4 / world;
            let xl = imgs.rows(rank * per, (rank + 1) * per);
            m.zero_grad();
            let enc = m.forward(&xl);
            let n = enc.numel() as f32;
            let loss = enc.sum_sq() / n;
            m.backward(&enc.scale(2.0 / n));
            loss
        },
        |_| 1e-4,
        None,
        ResilienceConfig::disabled(),
    )
    .expect("clean run");
    black_box(report.mean_losses);
}

fn bench_strategies(c: &mut Criterion) {
    let mut group = c.benchmark_group("dist_step");
    for strategy in [
        ShardingStrategy::NoShard,
        ShardingStrategy::ddp_default(),
        ShardingStrategy::FullShard,
        ShardingStrategy::ShardGradOp,
        ShardingStrategy::Hybrid { shard_size: 2 },
    ] {
        group.bench_with_input(
            BenchmarkId::new("strategy", strategy.name()),
            &strategy,
            |b, &s| b.iter(|| run_steps(s, 4, false)),
        );
    }
    group.finish();
}

fn bench_unit_granularity(c: &mut Criterion) {
    let mut group = c.benchmark_group("unit_granularity");
    group.bench_function("per_block_units", |b| {
        b.iter(|| run_steps(ShardingStrategy::FullShard, 4, false))
    });
    group.bench_function("whole_model_unit", |b| {
        b.iter(|| run_steps(ShardingStrategy::FullShard, 4, true))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = quick_criterion();
    targets = bench_strategies, bench_unit_granularity
}
criterion_main!(benches);
