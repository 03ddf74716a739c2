//! Silent-data-corruption campaign: ≥100 seeded corruption-only schedules
//! (gradient bit flips + poisoned losses) against the guarded resilient
//! trainer, each holding THREE invariants:
//!
//! 1. **Zero silent escapes** — every injected corruption event is
//!    detected: the guard trips exactly once per corrupted step and the
//!    final weights are bit-identical to a clean run told to skip the same
//!    steps (an escaped flip would diverge the weights).
//! 2. **Zero hangs** — detection is in-band (the corrupt reduce completes
//!    its barrier schedule before erroring), so no schedule may stall.
//! 3. **Deterministic recovery** — rollback-and-skip is bit-reproducible:
//!    the recovered loss curve equals the clean-with-skips curve bit for
//!    bit, NaN placeholders included.
//!
//! A corrupt reduce surfaces the same verdict on every rank of its group
//! while the remaining collective schedule runs in lockstep, so the
//! guard's trip/rollback/skip accounting is identical on every rank.
//!
//! CI runs this suite under a hard timeout with `GEOFM_CHAOS_SEED` pinned.

use geofm_fsdp::{
    try_run_data_parallel, DistReport, FsdpConfig, GuardConfig, ResilienceConfig, ShardingStrategy,
};
use geofm_nn::{Linear, Module, ParamVisitor};
use geofm_resilience::{FaultKind, FaultMix, FaultPlan};
use geofm_tensor::{Tensor, TensorRng};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

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
const STEPS: usize = 8;
const STRATEGIES: [ShardingStrategy; 4] = [
    ShardingStrategy::FullShard,
    ShardingStrategy::ShardGradOp,
    ShardingStrategy::Hybrid { shard_size: 2 },
    ShardingStrategy::NoShard,
];

fn seed_base() -> u64 {
    std::env::var("GEOFM_CHAOS_SEED").ok().and_then(|v| v.parse().ok()).unwrap_or(0)
}

fn guard(skip_steps: BTreeSet<usize>) -> GuardConfig {
    GuardConfig {
        // generous budget: even a schedule that corrupts every step must
        // recover rather than fail — budget exhaustion is for repeating
        // (non-transient) faults, which one-shot injection never produces
        max_rollbacks: WORLD * STEPS * 2,
        skip_steps,
        ..GuardConfig::default()
    }
}

fn run(
    strategy: ShardingStrategy,
    plan: Arc<FaultPlan>,
    skip_steps: BTreeSet<usize>,
) -> Result<DistReport, geofm_resilience::FailureReport> {
    try_run_data_parallel(
        FsdpConfig::tuned(strategy),
        WORLD,
        0.01,
        STEPS,
        |_| Toy::new(7),
        |m, rank, step| {
            let mut rng = TensorRng::seed_from(5000 + step as u64);
            let x = rng.randn(&[8, 3], 1.0);
            let y = rng.randn(&[8, 2], 1.0);
            let per = 8 / WORLD;
            let xl = x.rows(rank * per, (rank + 1) * per);
            let yl = y.rows(rank * per, (rank + 1) * per);
            m.compute(&xl, &yl)
        },
        |_| 0.01,
        None,
        ResilienceConfig {
            fault_plan: plan,
            collective_timeout: Some(Duration::from_secs(5)),
            guard: Some(guard(skip_steps)),
            ..ResilienceConfig::disabled()
        },
    )
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// One seeded corruption schedule: inject, recover, verify all three
/// invariants.
fn sdc_schedule(seed: u64) {
    let strategy = STRATEGIES[(seed as usize) % STRATEGIES.len()];
    let plan = Arc::new(FaultPlan::seeded(seed, WORLD, STEPS, &FaultMix::corruption_only(0.04)));
    // the steps the schedule corrupts — every one must be caught
    let corrupted: BTreeSet<usize> = plan
        .events()
        .iter()
        .filter_map(|k| match k {
            FaultKind::BitFlipGrad { step, .. } | FaultKind::PoisonLoss { step, .. } => Some(*step),
            _ => None,
        })
        .collect();

    let started = Instant::now();
    let outcome = run(strategy, Arc::clone(&plan), BTreeSet::new());
    let elapsed = started.elapsed();

    // invariant 2: zero hangs — detection is in-band, nothing may stall
    assert!(
        elapsed < Duration::from_secs(60),
        "seed {seed} ({}): schedule took {elapsed:?} — hang regression \
         (plan: {:?})",
        strategy.name(),
        plan.events()
    );

    let report = outcome.unwrap_or_else(|e| {
        panic!(
            "seed {seed} ({}): corruption-only schedule must recover, \
             got: {e} (plan: {:?})",
            strategy.name(),
            plan.events()
        )
    });
    assert_eq!(report.restarts, 0, "seed {seed}: SDC recovery must not burn restarts");

    // invariant 1: zero silent escapes — one trip per corrupted step,
    // every corrupted step skipped, nothing else skipped
    let gr = report.guard.as_ref().expect("guard report must be present");
    let skipped: BTreeSet<usize> = gr.skipped_steps.iter().copied().collect();
    assert_eq!(
        skipped,
        corrupted,
        "seed {seed} ({}): skipped steps must be exactly the corrupted \
         steps (guard: {gr}, plan: {:?})",
        strategy.name(),
        plan.events()
    );
    assert_eq!(
        gr.trips,
        corrupted.len(),
        "seed {seed} ({}): one trip per corrupted step (guard: {gr})",
        strategy.name()
    );
    assert_eq!(gr.rollbacks, gr.trips, "seed {seed}: every trip must roll back ({gr})");
    for (s, l) in report.mean_losses.iter().enumerate() {
        assert_eq!(
            l.is_nan(),
            corrupted.contains(&s),
            "seed {seed}: loss series must be NaN exactly at skipped steps"
        );
    }

    // invariant 3 (and the other half of 1): bit-identical to a clean run
    // with the same skips — an escaped corruption would diverge here
    let clean = run(strategy, Arc::new(FaultPlan::none()), corrupted.clone())
        .expect("clean comparator must succeed");
    assert_eq!(
        bits(&report.final_params),
        bits(&clean.final_params),
        "seed {seed} ({}): recovered weights diverged from \
         clean-with-skips (plan: {:?})",
        strategy.name(),
        plan.events()
    );
    assert_eq!(
        bits(&report.mean_losses),
        bits(&clean.mean_losses),
        "seed {seed} ({}): recovered loss curve diverged (plan: {:?})",
        strategy.name(),
        plan.events()
    );
}

fn sdc_range(lo: u64, hi: u64) {
    let base = seed_base();
    for seed in lo..hi {
        sdc_schedule(base + seed);
    }
}

// 120 schedules, split so the test runner parallelises the batches.

#[test]
fn sdc_seeds_000_029() {
    sdc_range(0, 30);
}

#[test]
fn sdc_seeds_030_059() {
    sdc_range(30, 60);
}

#[test]
fn sdc_seeds_060_089() {
    sdc_range(60, 90);
}

#[test]
fn sdc_seeds_090_119() {
    sdc_range(90, 120);
}

/// The negative control, once per strategy: the same bit flip with the
/// guard OFF completes "successfully" with different weights — the silent
/// escape the guard exists to prevent. If this test ever fails, the fault
/// injection has stopped injecting and the whole suite is vacuous.
#[test]
fn unguarded_corruption_escapes_silently() {
    for (i, strategy) in STRATEGIES.iter().enumerate() {
        let clean = run(*strategy, Arc::new(FaultPlan::none()), BTreeSet::new())
            .expect("clean run");
        let plan = Arc::new(FaultPlan::none().with_bitflip_grad(i % WORLD, 2, 26));
        let corrupted = try_run_data_parallel(
            FsdpConfig::tuned(*strategy),
            WORLD,
            0.01,
            STEPS,
            |_| Toy::new(7),
            |m, rank, step| {
                let mut rng = TensorRng::seed_from(5000 + step as u64);
                let x = rng.randn(&[8, 3], 1.0);
                let y = rng.randn(&[8, 2], 1.0);
                let per = 8 / WORLD;
                m.compute(&x.rows(rank * per, (rank + 1) * per), &y.rows(rank * per, (rank + 1) * per))
            },
            |_| 0.01,
            None,
            ResilienceConfig {
                fault_plan: plan,
                collective_timeout: Some(Duration::from_secs(5)),
                ..ResilienceConfig::disabled()
            },
        )
        .expect("unguarded corruption sails through");
        assert!(corrupted.guard.is_none());
        assert_ne!(
            bits(&clean.final_params),
            bits(&corrupted.final_params),
            "{}: an unguarded exponent-bit flip must actually perturb the weights",
            strategy.name()
        );
    }
}
