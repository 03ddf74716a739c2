//! Elastic-resharding acceptance suite: shrink-and-continue on permanent
//! rank loss, re-grow on spare rejoin.
//!
//! The invariant under test: a seeded run that loses a rank permanently
//! mid-training shrinks its world, continues, and produces final
//! parameters **bit-identical** to a reference run launched fresh at the
//! smaller world from the same resharded state — across all sharding
//! strategies and ≥ 64 seeded shrink/grow schedules, with zero hangs.
//! The reference resumes through the on-disk GEOFMCK3 image recorded on
//! the [`ReshardEvent`], so every schedule exercises both the live
//! (in-memory) reshard path and world-size-independent checkpoint
//! recovery from disk.
//!
//! Per strategy, 16 seeded schedules rotate through four shapes:
//!
//! * `seed % 4 == 0` — single permanent leave (shrink once);
//! * `seed % 4 == 1` — leave then spare rejoin (shrink, then grow back);
//! * `seed % 4 == 2` — two leaves across attempts (shrink twice);
//! * `seed % 4 == 3` — single leave, resharded from memory.
//!
//! Even seeds write the GEOFMCK3 image to disk at checkpoint cadence; odd
//! seeds keep it in memory only — the trainer reshards live either way.
//! 5 strategies × 16 seeds = 80 schedules.

use geofm_fsdp::{
    try_run_elastic, DistReport, ElasticConfig, FsdpConfig, ReshardEvent, ReshardKind,
    ResilienceConfig, ShardingStrategy,
};
use geofm_nn::{Linear, Module, ParamVisitor};
use geofm_resilience::{FailureReport, FaultMix, FaultPlan};
use geofm_tensor::{Tensor, TensorRng};
use std::path::PathBuf;
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
/// Global batch: divisible by every world size a schedule can visit (1..=4).
const GLOBAL: usize = 12;

const STRATEGIES: [ShardingStrategy; 5] = [
    ShardingStrategy::FullShard,
    ShardingStrategy::ShardGradOp,
    ShardingStrategy::Hybrid { shard_size: 2 },
    ShardingStrategy::NoShard,
    ShardingStrategy::Ddp { bucket_bytes: 25 * 1024 * 1024 },
];

/// Base offset added to every seed, pinned in CI via `GEOFM_CHAOS_SEED`.
fn seed_base() -> u64 {
    std::env::var("GEOFM_CHAOS_SEED").ok().and_then(|v| v.parse().ok()).unwrap_or(0)
}

fn run(
    config: FsdpConfig,
    world: usize,
    resilience: ResilienceConfig,
) -> Result<DistReport, FailureReport> {
    try_run_elastic(
        config,
        world,
        0.01,
        STEPS,
        |_| Toy::new(7),
        |m, rank, world, step| {
            let mut rng = TensorRng::seed_from(5000 + step as u64);
            let x = rng.randn(&[GLOBAL, 3], 1.0);
            let y = rng.randn(&[GLOBAL, 2], 1.0);
            let per = GLOBAL / world;
            let xl = x.rows(rank * per, (rank + 1) * per);
            let yl = y.rows(rank * per, (rank + 1) * per);
            m.compute(&xl, &yl)
        },
        |_| 0.01,
        None,
        resilience,
    )
}

fn tmp_dir(tag: &str, seed: u64) -> PathBuf {
    std::env::temp_dir().join(format!("geofm-elastic-{tag}-{seed}-{}", std::process::id()))
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Launch the acceptance reference: a fresh, fault-free run at the event's
/// post-transition world, resumed from the event's recorded checkpoint
/// through the GEOFMCK3 **disk** path (an empty checkpoint means the
/// transition restarted from scratch, so the reference starts fresh too).
fn reference_from_event(ev: &ReshardEvent, seed: u64) -> DistReport {
    let clean = ResilienceConfig {
        collective_timeout: Some(Duration::from_secs(5)),
        ..ResilienceConfig::disabled()
    };
    let config = FsdpConfig::tuned(ev.strategy);
    if ev.ckpt.unit_sizes.is_empty() {
        return run(config, ev.to_world, clean).expect("fresh reference must succeed");
    }
    let dir = tmp_dir("ref", seed);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("elastic.ck3");
    ev.ckpt.save(&path).expect("event checkpoint must serialise");
    let report = run(
        config,
        ev.to_world,
        ResilienceConfig {
            elastic: Some(ElasticConfig { checkpoint_path: Some(path), ..ElasticConfig::default() }),
            ..clean
        },
    )
    .expect("disk-resumed reference must succeed");
    let _ = std::fs::remove_dir_all(&dir);
    report
}

/// One seeded shrink/grow schedule for one strategy; asserts the full
/// invariant: completion, a consistent transition chain, bit-identity of
/// the continued run against the reference, and a hang budget.
fn elastic_schedule(strategy: ShardingStrategy, seed: u64) {
    let kind = seed % 4;
    let ck_every = 1 + (seed as usize % 3);
    let leave_step = 1 + (seed as usize % (STEPS - 2));
    let leave_rank = (seed as usize * 7 + 3) % WORLD;

    let mut plan = FaultPlan::none().with_rank_leave(leave_rank, leave_step);
    let mut expected_kinds = vec![ReshardKind::Shrink];
    match kind {
        1 => {
            plan = plan.with_spare_rejoin(leave_step + 1);
            expected_kinds.push(ReshardKind::Grow);
        }
        2 => {
            // second departure lands in the already-shrunken world
            let second_rank = (leave_rank + 1) % (WORLD - 1);
            let second_step = (leave_step + 2).min(STEPS - 1);
            plan = plan.with_rank_leave(second_rank, second_step);
            expected_kinds.push(ReshardKind::Shrink);
        }
        _ => {}
    }
    let config = FsdpConfig::tuned(strategy);

    // even seeds persist the GEOFMCK3 image; odd seeds reshard from memory
    let dir = seed.is_multiple_of(2).then(|| tmp_dir("run", seed));
    if let Some(d) = &dir {
        let _ = std::fs::remove_dir_all(d);
    }
    let resilience = ResilienceConfig {
        fault_plan: Arc::new(plan),
        checkpoint_every: ck_every,
        collective_timeout: Some(Duration::from_secs(5)),
        max_restarts: 4,
        elastic: Some(ElasticConfig {
            checkpoint_path: dir.as_ref().map(|d| d.join("elastic.ck3")),
            ..ElasticConfig::default()
        }),
        ..ResilienceConfig::disabled()
    };

    let started = Instant::now();
    let report = run(config, WORLD, resilience).unwrap_or_else(|e| {
        panic!("{} seed {seed}: schedule must complete, got {e}", strategy.name())
    });
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(60),
        "{} seed {seed}: {elapsed:?} — hang regression",
        strategy.name()
    );
    if let Some(d) = &dir {
        let _ = std::fs::remove_dir_all(d);
    }

    // the transition chain matches the schedule and is internally consistent
    let events = &report.reshard.events;
    let kinds: Vec<ReshardKind> = events.iter().map(|e| e.kind).collect();
    assert_eq!(kinds, expected_kinds, "{} seed {seed}", strategy.name());
    let mut world = WORLD;
    for ev in events {
        assert_eq!(ev.from_world, world, "{} seed {seed}: chain broke", strategy.name());
        world = ev.to_world;
        match ev.kind {
            ReshardKind::Shrink => assert_eq!(ev.to_world, ev.from_world - ev.departed.len()),
            ReshardKind::Grow => assert_eq!(ev.to_world, ev.from_world + 1),
        }
        // the recorded strategy always matches the remap rule
        assert_eq!(ev.strategy, strategy.remap_for_world(ev.to_world));
    }
    assert_eq!(report.mean_losses.len(), STEPS, "{} seed {seed}", strategy.name());

    // bit-identity: the continued run equals a fresh run launched at the
    // final world from the last transition's resharded state
    let last = events.last().expect("every schedule reshards at least once");
    let reference = reference_from_event(last, seed);
    assert_eq!(
        bits(&report.final_params),
        bits(&reference.final_params),
        "{} seed {seed}: post-reshard training diverged from the fresh \
         small-world reference (kind {:?}, step {}, {} -> {})",
        strategy.name(),
        last.kind,
        last.step,
        last.from_world,
        last.to_world,
    );
    assert_eq!(
        bits(&report.mean_losses),
        bits(&reference.mean_losses),
        "{} seed {seed}: loss curve diverged from the reference",
        strategy.name()
    );
}

fn strategy_schedules(idx: usize) {
    for s in 0..16 {
        elastic_schedule(STRATEGIES[idx], seed_base() + s);
    }
}

#[test]
fn full_shard_shrink_grow_schedules() {
    strategy_schedules(0);
}

#[test]
fn shard_grad_op_shrink_grow_schedules() {
    strategy_schedules(1);
}

#[test]
fn hybrid_shrink_grow_schedules() {
    strategy_schedules(2);
}

#[test]
fn no_shard_shrink_grow_schedules() {
    strategy_schedules(3);
}

#[test]
fn ddp_shrink_grow_schedules() {
    strategy_schedules(4);
}

/// Elastic events mixed into a full random fault cocktail: the run either
/// completes (possibly resharded) or fails with a structured report —
/// never a hang. Bit-level checks live in the seeded schedules above;
/// here the mix makes shrink interact with crashes, hangs and stragglers.
#[test]
fn elastic_chaos_mix_never_hangs() {
    let mix = FaultMix {
        crash_prob: 0.02,
        straggler_prob: 0.02,
        straggler_ms: (1, 10),
        degraded_rank_prob: 0.05,
        degraded_link_prob: 0.05,
        slowdown_permille: (1500, 3000),
        hang_prob: 0.005,
        ckpt_crash_prob: 0.02,
        bitflip_prob: 0.0,
        poison_prob: 0.0,
        leave_prob: 0.03,
        rejoin_prob: 0.05,
        ..FaultMix::crashes_only(0.0)
    };
    for s in 0..24u64 {
        let seed = seed_base() + s;
        let strategy = STRATEGIES[(seed as usize) % STRATEGIES.len()];
        let plan = Arc::new(FaultPlan::seeded(seed, WORLD, STEPS, &mix));
        let resilience = ResilienceConfig {
            fault_plan: Arc::clone(&plan),
            checkpoint_every: 2,
            collective_timeout: Some(Duration::from_millis(300)),
            max_restarts: 4,
            elastic: Some(ElasticConfig::default()),
            ..ResilienceConfig::disabled()
        };
        let started = Instant::now();
        let outcome = run(FsdpConfig::tuned(strategy), WORLD, resilience);
        assert!(
            started.elapsed() < Duration::from_secs(60),
            "seed {seed} ({}): hang regression (plan: {:?})",
            strategy.name(),
            plan.events()
        );
        match outcome {
            Ok(report) => {
                assert_eq!(report.mean_losses.len(), STEPS, "seed {seed}");
                let mut world = WORLD;
                for ev in &report.reshard.events {
                    assert_eq!(ev.from_world, world, "seed {seed}: transition chain broke");
                    world = ev.to_world;
                }
            }
            Err(report) => {
                assert!(!report.failures.is_empty(), "seed {seed}: unexplained failure");
            }
        }
    }
}
