//! Step perf-regression runner: times the real rank-thread FSDP engine per
//! sharding strategy and emits `BENCH_step.json` with the median ns/step of
//! each strategy.
//!
//! Unlike the Criterion benches (which print to stdout and leave no
//! record), this runner produces a small machine-readable artifact CI can
//! upload, diff across commits and gate with `perf_budget` against the
//! committed baseline `results/BENCH_step.json`. Absolute numbers depend on
//! the host; the gate compares each strategy against its own baseline row.
//!
//! Usage: `bench_step [OUT.json]` (default `BENCH_step.json`).

use geofm_fsdp::{try_run_data_parallel, FsdpConfig, ResilienceConfig, ShardingStrategy};
use geofm_nn::Module;
use geofm_tensor::TensorRng;
use geofm_vit::{VitConfig, VitModel};
use std::time::Instant;

// STEPS is deliberately large relative to world spawn/teardown: each timed
// rep launches a fresh world, and at small STEPS that fixed setup cost
// leaks into the per-step figure. 48 steps amortises it below the noise
// floor, and 31 reps keeps the median stable while the whole
// four-strategy run stays short.
const WORLD: usize = 4;
const STEPS: usize = 48;
const REPS: usize = 31;

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

fn run_steps(strategy: ShardingStrategy) {
    let cfg = tiny();
    let report = try_run_data_parallel(
        FsdpConfig::tuned(strategy),
        WORLD,
        0.01,
        STEPS,
        move |_| {
            let mut rng = TensorRng::seed_from(11);
            let mut m = VitModel::new(&tiny(), &mut rng);
            let units = m.unit_param_counts();
            (m, units)
        },
        move |m, rank, step| {
            let mut rng = TensorRng::seed_from(100 + step as u64);
            let imgs = rng.randn(&[4, cfg.channels * 64], 1.0);
            let per = 4 / WORLD;
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
    std::hint::black_box(report.mean_losses);
}

/// Median ns/step over `REPS` timed repetitions, each a full `STEPS`-step
/// distributed run so spawn/teardown amortises across steps.
fn median_ns_per_step(strategy: ShardingStrategy) -> u64 {
    // untimed warmup to fault in code paths and thread stacks
    run_steps(strategy);
    let mut samples: Vec<u64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            run_steps(strategy);
            t0.elapsed().as_nanos() as u64 / STEPS as u64
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn main() {
    let out = std::env::args().nth(1).unwrap_or_else(|| "BENCH_step.json".into());
    let strategies = [
        ShardingStrategy::NoShard,
        ShardingStrategy::FullShard,
        ShardingStrategy::ShardGradOp,
        ShardingStrategy::Hybrid { shard_size: 2 },
    ];

    println!("BENCH step — median ns/step, world {WORLD}, {REPS} reps x {STEPS} steps");
    println!("{:>14} {:>14}", "strategy", "ns_per_step");
    let mut entries = Vec::new();
    for strategy in strategies {
        let ns = median_ns_per_step(strategy);
        assert!(ns > 0, "{}: degenerate timing", strategy.name());
        println!("{:>14} {:>14}", strategy.name(), ns);
        entries.push(format!(
            "    {{\"strategy\": \"{}\", \"ns_per_step\": {}}}",
            strategy.name(),
            ns
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"fsdp_step\",\n  \"world\": {WORLD},\n  \
         \"steps_per_rep\": {STEPS},\n  \"reps\": {REPS},\n  \"unit\": \"ns_per_step\",\n  \
         \"rows\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    std::fs::write(&out, json).expect("cannot write BENCH_step.json");
    println!("  -> wrote {out}");
}
