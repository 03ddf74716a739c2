//! Seeded chaos harness: ~200 randomized fault schedules against the
//! resilient trainer, each holding ONE invariant:
//!
//! > the run completes **bit-identical** to the fault-free run, or it
//! > returns a structured failure report — it never hangs and never
//! > silently diverges.
//!
//! Each seed samples a [`FaultMix`] of crashes, one-step stragglers,
//! persistently degraded ranks, degraded links, hangs, torn checkpoint
//! writes, silent gradient bit flips, poisoned losses, permanent rank
//! departures, spare rejoins — and, since the streaming ingest plane,
//! I/O faults too: corrupt records, flaky reads, stalled reads, missing
//! / truncated / slow shards — and, since the serving plane, serve-side
//! faults as well: tenant request storms, slow clients, hung inference
//! batches — via `FaultPlan::seeded_with_serve` (deterministic per seed
//! — a failing seed replays exactly; the serve draws are appended
//! strictly after the training streams, so training outcomes are
//! byte-identical to the `seeded_with_io` era), and rotates through the
//! sharding strategies. Batches come through
//! `try_run_streaming` over a fault-injectable `SimShardStore` sharing
//! the same plan; records the plane quarantines extend the comparator
//! the same way guard-skipped steps do — the clean run gets the
//! quarantine set up front. Gray faults must *never* change results;
//! fail-stop and hang faults must either be absorbed by elastic restart
//! (bit-identical completion) or surface in a `FailureReport` within the
//! wall-clock budget. Corruption faults run with the guard enabled: a
//! completed run whose guard skipped steps must be bit-identical to a
//! clean run told to skip the same steps. A permanent departure shrinks
//! the world and continues; the shrunken world reduces in a different
//! order, so those schedules hold the structural invariant (consistent
//! transition chain, full loss series, never hang) while bit-identity of
//! post-shrink training is pinned separately by `tests/elastic_reshard.rs`.
//!
//! Each schedule also runs a serving-plane DES session off the same
//! plan (the serve-side draws are consumed only here): whatever the
//! overload and fault climate, the serving run must terminate in a
//! conserved, structured `ServeReport` — the serving twin of the
//! trainer's invariant. A third of the schedules shut the server down
//! mid-burst instead of draining. Deeper serving chaos (100+ schedules,
//! replay determinism, the real threaded plane) lives in
//! `tests/serve_chaos.rs`.
//!
//! CI runs this suite under a hard timeout with `GEOFM_CHAOS_SEED` pinned,
//! so a regression that reintroduces a deadlock fails fast instead of
//! stalling the pipeline.

use geofm_collectives::AdaptiveTimeoutConfig;
use geofm_data::stream::{Batch, DefenseConfig, StreamConfig};
use geofm_data::store::SimShardStore;
use geofm_data::{DatasetKind, IngestPlane};
use geofm_fsdp::{
    try_run_streaming, DistReport, ElasticConfig, FsdpConfig, GuardConfig, ResilienceConfig,
    ShardingStrategy,
};
use geofm_nn::{Linear, Module, ParamVisitor};
use geofm_resilience::{FaultMix, FaultPlan, RecordId};
use geofm_serve::{run_sim, SimConfig as ServeSimConfig};
use geofm_tensor::{Tensor, TensorRng};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};
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
        let mut a = Linear::new(RECORD_LEN, 2, &mut rng, "a");
        let mut b = Linear::new(RECORD_LEN, 2, &mut rng, "b");
        let units = vec![a.num_params(), b.num_params()];
        (Self { a, b }, units)
    }

    fn compute(&mut self, batch: &Batch) -> f32 {
        self.zero_grad();
        let rows = batch.labels.len();
        // two-hot regression target from the record labels: every
        // surviving row moves the gradients, so a silently consumed
        // corrupt record would break the bit-compare below
        let mut y = Tensor::zeros(&[rows, 2]);
        for (i, &label) in batch.labels.iter().enumerate() {
            y.data_mut()[i * 2 + label % 2] = 1.0;
        }
        let ya = self.a.forward(&batch.images);
        let yb = self.b.forward(&batch.images);
        let out = ya.add(&yb);
        let diff = out.sub(&y);
        let n = diff.numel() as f32;
        let loss = diff.sum_sq() / n;
        let dy = diff.scale(2.0 / n);
        let _ = self.a.backward(&dy);
        let _ = self.b.backward(&dy);
        loss
    }
}

const WORLD: usize = 4;
const STEPS: usize = 6;
// streamed corpus geometry: 144 records, global batch 12 → the batch
// divides every world size a shrink can visit (4, 3, 2)
const SHARDS: usize = 6;
const PER_SHARD: usize = 24;
const IMG: usize = 2;
const CHANNELS: usize = 1;
const RECORD_LEN: usize = CHANNELS * IMG * IMG;
const GLOBAL_BATCH: usize = 12;
const DATA_SEED: u64 = 7;
const SHUFFLE_SEED: u64 = 21;
// serving-leg dimensions baked into every plan (serve draws are appended
// after the training streams, so they do not perturb training outcomes)
const SERVE_TENANTS: usize = 3;
const SERVE_TICKS: usize = 60;
const STRATEGIES: [ShardingStrategy; 4] = [
    ShardingStrategy::FullShard,
    ShardingStrategy::ShardGradOp,
    ShardingStrategy::Hybrid { shard_size: 2 },
    ShardingStrategy::NoShard,
];

/// Base offset added to every seed, pinned in CI via `GEOFM_CHAOS_SEED`.
fn seed_base() -> u64 {
    std::env::var("GEOFM_CHAOS_SEED").ok().and_then(|v| v.parse().ok()).unwrap_or(0)
}

/// The fault cocktail: rare enough that most schedules are survivable
/// within the restart budget, rich enough that every kind appears across
/// 200 seeds.
fn chaos_mix() -> FaultMix {
    FaultMix {
        crash_prob: 0.02,
        straggler_prob: 0.02,
        straggler_ms: (1, 20),
        degraded_rank_prob: 0.08,
        degraded_link_prob: 0.08,
        slowdown_permille: (1500, 4000),
        hang_prob: 0.005,
        ckpt_crash_prob: 0.03,
        bitflip_prob: 0.02,
        poison_prob: 0.02,
        leave_prob: 0.01,
        rejoin_prob: 0.02,
        // the I/O fault kinds ride the same schedules: rare rot, flakes
        // and stalls per record; rare loss/truncation/slowness per shard
        io_corrupt_prob: 0.003,
        io_flaky_prob: 0.01,
        io_stall_prob: 0.002,
        io_stall_ms: (10, 25),
        io_missing_prob: 0.015,
        io_truncate_prob: 0.015,
        io_slow_prob: 0.03,
        io_slow_ms: (1, 3),
        // serve-side faults ride the same schedules (consumed only by
        // the serving DES leg): request storms, slow clients, hung
        // inference batches
        serve_burst_prob: 0.05,
        serve_burst_extra: (8, 32),
        serve_slow_client_prob: 0.05,
        serve_slow_ms: (1, 10),
        serve_hang_prob: 0.05,
    }
}

/// A fault-injectable streamed corpus sharing `plan` with the trainer.
fn plane(plan: Arc<FaultPlan>, quarantine: BTreeSet<RecordId>) -> Arc<IngestPlane> {
    let store = Arc::new(SimShardStore::generate(
        DatasetKind::Ucm,
        SHARDS,
        PER_SHARD,
        IMG,
        CHANNELS,
        DATA_SEED,
        plan,
    ));
    let mut cfg = StreamConfig::new(GLOBAL_BATCH, SHUFFLE_SEED);
    cfg.defense = DefenseConfig { timeout_floor: Duration::from_millis(5), ..Default::default() };
    cfg.quarantine = quarantine;
    Arc::new(IngestPlane::new(store, cfg))
}

fn run(
    strategy: ShardingStrategy,
    resilience: ResilienceConfig,
    plane: Arc<IngestPlane>,
) -> Result<DistReport, geofm_resilience::FailureReport> {
    try_run_streaming(
        FsdpConfig::tuned(strategy),
        WORLD,
        0.01,
        STEPS,
        |_| Toy::new(7),
        plane,
        |m, batch, _rank, _world, _step| m.compute(batch),
        |_| 0.01,
        None,
        resilience,
    )
}

/// Fault-free baseline per strategy, in raw bits (computed once).
fn baseline(strategy_idx: usize) -> &'static (Vec<u32>, Vec<u32>) {
    static BASELINES: [OnceLock<(Vec<u32>, Vec<u32>)>; STRATEGIES.len()] =
        [OnceLock::new(), OnceLock::new(), OnceLock::new(), OnceLock::new()];
    BASELINES[strategy_idx].get_or_init(|| {
        let report = run(
            STRATEGIES[strategy_idx],
            ResilienceConfig::disabled(),
            plane(Arc::new(FaultPlan::none()), BTreeSet::new()),
        )
        .expect("fault-free baseline must succeed");
        (
            report.final_params.iter().map(|v| v.to_bits()).collect(),
            report.mean_losses.iter().map(|v| v.to_bits()).collect(),
        )
    })
}

fn ckpt_dir(seed: u64) -> PathBuf {
    std::env::temp_dir().join(format!("geofm-chaos-{seed}-{}", std::process::id()))
}

/// Run one seeded schedule and assert the chaos invariant.
fn chaos_schedule(seed: u64) {
    let strategy_idx = (seed as usize) % STRATEGIES.len();
    let strategy = STRATEGIES[strategy_idx];
    let plan = Arc::new(FaultPlan::seeded_with_serve(
        seed,
        WORLD,
        STEPS,
        SHARDS,
        PER_SHARD,
        SERVE_TENANTS,
        SERVE_TICKS,
        &chaos_mix(),
    ));
    let dir = ckpt_dir(seed);
    let _ = std::fs::remove_dir_all(&dir);

    let resilience = ResilienceConfig {
        fault_plan: Arc::clone(&plan),
        checkpoint_every: 2,
        collective_timeout: Some(Duration::from_millis(300)),
        max_restarts: 3,
        adaptive_timeout: Some(AdaptiveTimeoutConfig {
            floor: Duration::from_millis(100),
            multiplier: 16.0,
            warmup: 8,
        }),
        guard: Some(GuardConfig::default()),
        elastic: Some(ElasticConfig {
            checkpoint_path: Some(dir.join("elastic.ck3")),
            ..ElasticConfig::default()
        }),
    };

    let started = Instant::now();
    let outcome = run(strategy, resilience, plane(Arc::clone(&plan), BTreeSet::new()));
    let elapsed = started.elapsed();
    let _ = std::fs::remove_dir_all(&dir);

    // never hang: even a schedule that burns the whole restart budget on
    // hangs resolves within a few timeout periods per attempt
    assert!(
        elapsed < Duration::from_secs(60),
        "seed {seed} ({}): schedule took {elapsed:?} — hang regression \
         (plan: {:?})",
        strategy.name(),
        plan.events()
    );

    // the serving plane rides the same schedule: the serve-side draws in
    // the shared plan (bursts, slow clients, hung batches) are consumed
    // only here. Whatever the climate, the run must terminate in a
    // conserved, structured report — never hang. A third of the
    // schedules kill the server mid-burst instead of draining.
    let serve_cfg = ServeSimConfig {
        ticks: SERVE_TICKS,
        base_rate: 1.0 + (seed % 5) as f64,
        drain: !seed.is_multiple_of(3),
        ..ServeSimConfig::default()
    };
    let serve_started = Instant::now();
    let serve_report = run_sim(&serve_cfg, &plan, seed);
    assert!(
        serve_started.elapsed() < Duration::from_secs(30),
        "seed {seed}: serving DES leg exceeded its wall-clock bound — hang regression"
    );
    serve_report.assert_conservation();
    assert!(serve_report.submitted() > 0, "seed {seed}: serving leg generated no traffic");

    match outcome {
        Ok(report) => {
            // A resharded run finished on a different world: the smaller
            // (or re-grown) world reduces in a different order, so the
            // bit-compare against the world-4 baseline cannot hold. Hold
            // the structural invariant instead — the transition chain is
            // consistent and the loss series is complete; bit-identity of
            // post-reshard training has its own suite.
            if !report.reshard.events.is_empty() {
                let mut world = WORLD;
                for ev in &report.reshard.events {
                    assert_eq!(
                        ev.from_world,
                        world,
                        "seed {seed} ({}): reshard chain broke (plan: {:?})",
                        strategy.name(),
                        plan.events()
                    );
                    world = ev.to_world;
                }
                assert_eq!(
                    report.mean_losses.len(),
                    STEPS,
                    "seed {seed} ({}): truncated loss series after reshard",
                    strategy.name()
                );
                return;
            }
            // Steps the guard rolled back and skipped carry the canonical
            // NaN loss placeholder. Derive the skip set from the losses —
            // not the guard report — because a skip can outlive an elastic
            // restart via the checkpointed loss series while the report is
            // per-attempt.
            let skipped: BTreeSet<usize> = report
                .mean_losses
                .iter()
                .enumerate()
                .filter_map(|(s, l)| l.is_nan().then_some(s))
                .collect();
            // records the ingest plane quarantined-and-skipped; the clean
            // comparator gets them up front — the degradation contract
            let quarantined: BTreeSet<RecordId> = report
                .data
                .as_ref()
                .map(|d| d.quarantined.iter().copied().collect())
                .unwrap_or_default();
            // never silently diverge: completion must be bit-identical to
            // the fault-free run — or, when the guard skipped steps or the
            // ingest plane quarantined records, to a clean run told to
            // skip/drop exactly those
            let (base_params, base_losses) = if skipped.is_empty() && quarantined.is_empty() {
                baseline(strategy_idx).clone()
            } else {
                let clean = run(
                    strategy,
                    ResilienceConfig {
                        guard: Some(GuardConfig {
                            skip_steps: skipped.clone(),
                            ..GuardConfig::default()
                        }),
                        ..ResilienceConfig::disabled()
                    },
                    plane(Arc::new(FaultPlan::none()), quarantined.clone()),
                )
                .expect("clean comparator with forced skips must succeed");
                (
                    clean.final_params.iter().map(|v| v.to_bits()).collect(),
                    clean.mean_losses.iter().map(|v| v.to_bits()).collect(),
                )
            };
            let params: Vec<u32> = report.final_params.iter().map(|v| v.to_bits()).collect();
            let losses: Vec<u32> = report.mean_losses.iter().map(|v| v.to_bits()).collect();
            assert_eq!(
                params,
                base_params,
                "seed {seed} ({}): final params diverged from clean run \
                 (skipped: {skipped:?}, plan: {:?})",
                strategy.name(),
                plan.events()
            );
            assert_eq!(
                losses,
                base_losses,
                "seed {seed} ({}): loss curve diverged \
                 (skipped: {skipped:?}, plan: {:?})",
                strategy.name(),
                plan.events()
            );
        }
        Err(report) => {
            // a failed schedule must explain itself
            assert!(
                !report.failures.is_empty(),
                "seed {seed} ({}): failure report with no failures \
                 (plan: {:?})",
                strategy.name(),
                plan.events()
            );
        }
    }
}

fn chaos_range(lo: u64, hi: u64) {
    let base = seed_base();
    for seed in lo..hi {
        chaos_schedule(base + seed);
    }
}

// 200 schedules, split so the test runner parallelises the batches.

#[test]
fn chaos_seeds_000_049() {
    chaos_range(0, 50);
}

#[test]
fn chaos_seeds_050_099() {
    chaos_range(50, 100);
}

#[test]
fn chaos_seeds_100_149() {
    chaos_range(100, 150);
}

#[test]
fn chaos_seeds_150_199() {
    chaos_range(150, 200);
}
