//! Determinism tests: two training runs with the same seed and strategy
//! must produce bit-identical final weights **and** identical telemetry
//! counter snapshots.
//!
//! Only counters are compared — timing histograms (`*.ns`) record
//! wall-clock durations, which legitimately vary run to run. Counter
//! metrics (`comm.*`, `fsdp.steps`) are pure functions of the collective
//! schedule and must not drift. Histogram *counts* (how many samples each
//! phase recorded) are also schedule-determined, so those are compared too;
//! their sums are not. The `health.*` watchdog counters are excluded like
//! the timing histograms: straggler flags are judgments about *observed
//! wall-clock* step times, so on a µs-scale toy workload scheduler jitter
//! may flag a rank in one run and not another — by design, not by drift.

use geofm_fsdp::{
    try_run_data_parallel, DistReport, FsdpConfig, ResilienceConfig, ShardingStrategy,
};
use geofm_nn::{Linear, Module, ParamVisitor};
use geofm_tensor::{Tensor, TensorRng};
use geofm_telemetry::{MetricsSnapshot, Telemetry};
use std::collections::BTreeMap;

struct Toy {
    a: Linear,
    b: Linear,
}

impl Module for Toy {
    fn visit_params(&mut self, f: &mut ParamVisitor) {
        self.a.visit_params(f);
        self.b.visit_params(f);
    }
}

impl Toy {
    fn new(seed: u64) -> (Self, Vec<usize>) {
        let mut rng = TensorRng::seed_from(seed);
        let mut a = Linear::new(3, 2, &mut rng, "a");
        let mut b = Linear::new(3, 2, &mut rng, "b");
        let units = vec![a.num_params(), b.num_params()];
        (Self { a, b }, units)
    }

    fn compute(&mut self, x: &Tensor, y: &Tensor) -> f32 {
        self.zero_grad();
        let ya = self.a.forward(x);
        let yb = self.b.forward(x);
        let out = ya.add(&yb);
        let diff = out.sub(y);
        let n = diff.numel() as f32;
        let loss = diff.sum_sq() / n;
        let dy = diff.scale(2.0 / n);
        let _ = self.a.backward(&dy);
        let _ = self.b.backward(&dy);
        loss
    }
}

const WORLD: usize = 4;
const STEPS: usize = 3;

fn train_once(strategy: ShardingStrategy) -> (DistReport, MetricsSnapshot) {
    let tel = Telemetry::new();
    let report = try_run_data_parallel(
        FsdpConfig::tuned(strategy),
        WORLD,
        0.01,
        STEPS,
        |_| Toy::new(7),
        |m, rank, step| {
            // Deterministic per-(step, rank) microbatch.
            let mut rng = TensorRng::seed_from(5000 + step as u64);
            let x = rng.randn(&[8, 3], 1.0);
            let y = rng.randn(&[8, 2], 1.0);
            let per = 8 / WORLD;
            let xl = x.rows(rank * per, (rank + 1) * per);
            let yl = y.rows(rank * per, (rank + 1) * per);
            m.compute(&xl, &yl)
        },
        |_| 0.01,
        Some(tel.clone()),
        ResilienceConfig::disabled(),
    )
    .expect("clean run");
    let snap = tel.metrics.snapshot();
    (report, snap)
}

fn histogram_counts(snap: &MetricsSnapshot) -> BTreeMap<String, u64> {
    snap.histograms.iter().map(|(k, v)| (k.clone(), v.count)).collect()
}

/// Schedule-determined counters only: drop the `health.*` watchdog, whose
/// flags depend on observed wall-clock timings (see module docs).
fn schedule_counters(snap: &MetricsSnapshot) -> BTreeMap<String, u64> {
    snap.counters
        .iter()
        .filter(|(k, _)| !k.starts_with("health."))
        .map(|(k, v)| (k.clone(), *v))
        .collect()
}

fn strategies() -> Vec<ShardingStrategy> {
    vec![
        ShardingStrategy::NoShard,
        ShardingStrategy::FullShard,
        ShardingStrategy::ShardGradOp,
        ShardingStrategy::Hybrid { shard_size: 2 },
        ShardingStrategy::Ddp { bucket_bytes: 16 },
    ]
}

#[test]
fn repeated_runs_are_bit_identical_with_identical_counters() {
    for strategy in strategies() {
        let (r1, s1) = train_once(strategy);
        let (r2, s2) = train_once(strategy);

        // Bit-identical final weights: compare raw f32 bit patterns, which
        // is stricter than `==` (distinguishes -0.0, would catch NaN).
        let bits = |p: &[f32]| p.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        assert_eq!(
            bits(&r1.final_params),
            bits(&r2.final_params),
            "{}: final weights differ between identical runs",
            strategy.name()
        );
        assert_eq!(r1.traffic, r2.traffic, "{}: traffic differs", strategy.name());

        // Telemetry counters are a pure function of the schedule.
        assert_eq!(
            schedule_counters(&s1),
            schedule_counters(&s2),
            "{}: counter snapshots differ",
            strategy.name()
        );
        assert_eq!(
            histogram_counts(&s1),
            histogram_counts(&s2),
            "{}: histogram sample counts differ",
            strategy.name()
        );
    }
}

#[test]
fn counters_reflect_the_training_schedule() {
    for strategy in strategies() {
        let (_, snap) = train_once(strategy);
        assert_eq!(
            snap.counter("fsdp.steps"),
            (WORLD * STEPS) as u64,
            "{}: every rank increments fsdp.steps once per step",
            strategy.name()
        );
        // Every strategy moves bytes somewhere at world size 4.
        let moved = snap.counter("comm.all_reduce.bytes")
            + snap.counter("comm.all_gather.bytes")
            + snap.counter("comm.reduce_scatter.bytes");
        assert!(moved > 0, "{}: no communication recorded", strategy.name());
    }
}
