//! Workspace-level resilience tests: the fault-injection + recovery path
//! exercised end to end through the public crate APIs.
//!
//! Two properties anchor the suite:
//!
//! 1. **Bit-identical recovery** — a run that loses a rank mid-training and
//!    restarts from the latest checkpoint must finish with exactly the
//!    weights and loss curve of an uninterrupted run (the deterministic
//!    mailbox collectives make this an `assert_eq!`, not a tolerance).
//! 2. **No deadlock** — a rank that dies *without* poisoning its groups (a
//!    hard kill) must surface as `Err(RankLost)` on every surviving peer
//!    within a bounded wait, never as a hang.

use geofm_fsdp::{
    try_run_data_parallel, DistReport, FsdpConfig, ResilienceConfig, ShardingStrategy,
};
use geofm_nn::{Linear, Module, ParamVisitor};
use geofm_resilience::FaultPlan;
use geofm_tensor::{Tensor, TensorRng};
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

fn run(strategy: ShardingStrategy, resilience: ResilienceConfig) -> DistReport {
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
        resilience,
    )
    .expect("run should succeed")
}

#[test]
fn crashed_run_recovers_bit_identically_across_strategies() {
    for strategy in [
        ShardingStrategy::FullShard,
        ShardingStrategy::Hybrid { shard_size: 2 },
    ] {
        let clean = run(strategy, ResilienceConfig::disabled());

        let faulted = run(
            strategy,
            ResilienceConfig {
                fault_plan: Arc::new(FaultPlan::none().with_rank_crash(2, 5)),
                checkpoint_every: 2,
                collective_timeout: Some(Duration::from_secs(30)),
                max_restarts: 2,
                ..ResilienceConfig::disabled()
            },
        );

        assert_eq!(faulted.restarts, 1, "{}: expected exactly one restart", strategy.name());
        let bits = |p: &[f32]| p.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        assert_eq!(
            bits(&clean.final_params),
            bits(&faulted.final_params),
            "{}: recovered weights are not bit-identical",
            strategy.name()
        );
        assert_eq!(
            clean.mean_losses, faulted.mean_losses,
            "{}: recovered loss curve differs",
            strategy.name()
        );
    }
}

#[test]
fn unrecoverable_crash_produces_structured_failure_report() {
    let err = try_run_data_parallel(
        FsdpConfig::tuned(ShardingStrategy::FullShard),
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
            fault_plan: Arc::new(FaultPlan::none().with_rank_crash(1, 3)),
            collective_timeout: Some(Duration::from_secs(30)),
            ..ResilienceConfig::disabled()
        },
    )
    .expect_err("no checkpoint and no restart budget: the run must fail");
    assert!(err.failures.iter().any(|f| f.rank == 1 && f.step == 3));
}

/// A hard-killed rank (no poisoning, no panic hook — it simply never shows
/// up) must not hang its peers: every survivor gets `Err(RankLost)` within
/// roughly one timeout period, and the whole test is wall-clock bounded.
#[test]
fn hard_killed_rank_unblocks_all_peers_within_timeout() {
    use geofm_collectives::Group;

    let timeout = Duration::from_millis(250);
    let handles = Group::create(WORLD);
    let started = Instant::now();
    let results: Vec<Option<Duration>> = std::thread::scope(|s| {
        let joins: Vec<_> = handles
            .iter()
            .map(|h| {
                let h = h.clone().with_timeout(Some(timeout));
                s.spawn(move || {
                    if h.rank() == 3 {
                        return None; // hard kill: vanish without poisoning
                    }
                    let t0 = Instant::now();
                    let mut buf = vec![h.rank() as f32; 8];
                    let _ = h.try_all_reduce(&mut buf).expect_err("peer is dead");
                    Some(t0.elapsed())
                })
            })
            .collect();
        joins.into_iter().map(|j| j.join().unwrap()).collect()
    });
    let total = started.elapsed();

    let survivor_waits: Vec<Duration> = results.into_iter().flatten().collect();
    assert_eq!(survivor_waits.len(), WORLD - 1, "every survivor must return");
    // One timeout unblocks the first waiter, which poisons the barrier and
    // cascades; generous slack for CI schedulers.
    assert!(
        total < timeout * 20,
        "peers took {total:?} to unblock (timeout was {timeout:?}) — deadlock regression"
    );
}
