//! The rank loop's one position-dependent ordering law.
//!
//! The trainer's rank loop calls its policies in one fixed order (see the
//! `runtime` module docs in `geofm-fsdp` and DESIGN.md §17). Three of its
//! four ordering laws are held by step phase: health and checkpoint run
//! only after the guard's verdict accepted a step, and the drain (the
//! poison) only on the way out of the loop. Law 2 is held by position alone: the
//! guard's skip screen and the fault draws share the phase before the
//! step, and the screen must come first, so a skipped step consumes no
//! faults. That is what lets a clean comparator told to skip the same
//! steps replay a faulted run's fault schedule bit for bit.
//!
//! This file pins law 2 by behaviour. A crash scheduled on a step the
//! guard skips must never fire: with no restart budget, the run must
//! complete and match the same run without the crash bit for bit. If the
//! fault draws ran ahead of the skip screen, rank 1 would crash at step 2
//! and the run would fail.

use geofm_fsdp::{
    try_run_data_parallel, DistReport, FsdpConfig, GuardConfig, ResilienceConfig, ShardingStrategy,
};
use geofm_nn::{Linear, Module, ParamVisitor};
use geofm_resilience::FaultPlan;
use geofm_tensor::{Tensor, TensorRng};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

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

const WORLD: usize = 2;
const STEPS: usize = 4;
const SKIPPED: usize = 2;

/// FULL_SHARD at world 2 with the guard skipping step [`SKIPPED`] and no
/// restart budget, so any fault that fires fails the run.
fn run(plan: FaultPlan) -> DistReport {
    let strategy = ShardingStrategy::FullShard;
    let resilience = ResilienceConfig {
        fault_plan: Arc::new(plan),
        checkpoint_every: 0,
        collective_timeout: Some(Duration::from_secs(10)),
        max_restarts: 0,
        adaptive_timeout: None,
        guard: Some(GuardConfig {
            skip_steps: BTreeSet::from([SKIPPED]),
            ..GuardConfig::default()
        }),
        elastic: None,
    };
    try_run_data_parallel(
        FsdpConfig::tuned(strategy),
        WORLD,
        0.01,
        STEPS,
        |_| Toy::new(7),
        |m: &mut Toy, rank: usize, step: usize| {
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
        resilience,
    )
    .unwrap_or_else(|f| panic!("run failed: {f}"))
}

/// Every field that must be bit-identical between the two runs. The
/// gray-degradation report is wall-clock-derived and left out.
fn fingerprint(r: &DistReport) -> String {
    format!(
        "params={:?} losses={:?} traffic={:?} restarts={} guard={:?}",
        r.final_params.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        r.mean_losses.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        r.traffic,
        r.restarts,
        r.guard,
    )
}

#[test]
fn skip_screen_runs_before_fault_draws() {
    let clean = run(FaultPlan::none());
    assert!(clean.mean_losses[SKIPPED].is_nan(), "step {SKIPPED} must be skipped");
    let faulted = run(FaultPlan::none().with_rank_crash(1, SKIPPED));
    assert_eq!(
        fingerprint(&faulted),
        fingerprint(&clean),
        "a crash on a skipped step changed the run"
    );
}
