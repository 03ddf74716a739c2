//! Hook-equivalence suite for the composable rank runtime.
//!
//! The middleware refactor's load-bearing claim is that hooks are
//! **observational**: a `RuntimeStack` with extra `Stage::Observe`
//! middleware interleaved between every policy layer must produce
//! bit-identical training outcomes to the bare stack — same final
//! parameter bits, same loss-curve bits, same guard accounting, same
//! structured failures — across the same fault climates the pinned
//! chaos/sdc/elastic corpora exercise.
//!
//! Each schedule here runs twice: once with no probe installed (the
//! production configuration) and once with a process-global
//! [`ProbeCounters`] probe installed, which makes the trainer build its
//! stack with a `ProbeMw` observer between every policy middleware. The
//! deterministic report surface must not move a bit while the probe's
//! hook counters must — proving the observers really ran inside the hot
//! path rather than being compiled away.
//!
//! The probe registry is process-global, so every test that touches it
//! serialises on one mutex; the negative-control tests for stack
//! construction ride the same file because they share the middleware
//! vocabulary.
//!
//! Negative controls (the satellite contract): a misordered stack — the
//! guard ahead of health recording, or a checkpoint scheduled inside the
//! drain layer — must be rejected at **construction** with a structured
//! [`StackError`] naming both offenders, never silently reordered.

use geofm_fsdp::runtime::{install_probe, uninstall_probe};
use geofm_fsdp::{
    try_run_elastic, Descriptor, DistReport, ElasticConfig, FsdpConfig, GuardConfig, ProbeCounters,
    RankMiddleware, ResilienceConfig, RuntimeStack, ShardingStrategy, Stage, StackError,
};
use geofm_nn::{Linear, Module, ParamVisitor};
use geofm_resilience::{FailureReport, FaultMix, FaultPlan};
use geofm_tensor::{Tensor, TensorRng};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
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

const WORLD: usize = 4;
const STEPS: usize = 6;
const STRATEGIES: [ShardingStrategy; 4] = [
    ShardingStrategy::FullShard,
    ShardingStrategy::ShardGradOp,
    ShardingStrategy::Hybrid { shard_size: 2 },
    ShardingStrategy::NoShard,
];

fn seed_base() -> u64 {
    std::env::var("GEOFM_CHAOS_SEED").ok().and_then(|v| v.parse().ok()).unwrap_or(0)
}

/// The probe registry is process-global; serialise every test that
/// installs/uninstalls it (and every trainer run that might observe it).
fn probe_lock() -> &'static Mutex<()> {
    static LOCK: Mutex<()> = Mutex::new(());
    &LOCK
}

/// Gray + corruption faults only: the climates whose outcomes are
/// bit-deterministic between two identical runs. Fail-stop faults are
/// deliberately absent from the sampled mix — a crash's timeout-staggered
/// teardown can consume a varying number of restarts (and with them,
/// which pending fault draws get wasted), so two *identical* runs need
/// not match bit-for-bit; run-to-run nondeterminism would be charged to
/// the probe. Fail-stop and elastic transitions are covered by the
/// scripted single-event corpus below, where the restart boundary is
/// unambiguous.
fn equivalence_mix() -> FaultMix {
    FaultMix {
        straggler_prob: 0.03,
        straggler_ms: (1, 10),
        degraded_rank_prob: 0.08,
        degraded_link_prob: 0.08,
        bitflip_prob: 0.03,
        poison_prob: 0.03,
        ..FaultMix::crashes_only(0.0)
    }
}

fn ckpt_dir(tag: &str, seed: u64) -> PathBuf {
    std::env::temp_dir().join(format!("geofm-rteq-{tag}-{seed}-{}", std::process::id()))
}

fn run_once(
    strategy: ShardingStrategy,
    overlap: bool,
    plan: Arc<FaultPlan>,
    dir: &std::path::Path,
) -> Result<DistReport, FailureReport> {
    let resilience = ResilienceConfig {
        fault_plan: plan,
        checkpoint_every: 2,
        collective_timeout: Some(Duration::from_millis(300)),
        max_restarts: 3,
        adaptive_timeout: None,
        straggler_threshold: 2.5,
        guard: Some(GuardConfig {
            max_rollbacks: WORLD * STEPS * 2,
            ..GuardConfig::default()
        }),
        elastic: Some(ElasticConfig {
            checkpoint_path: Some(dir.join("elastic.ck3")),
            ..ElasticConfig::default()
        }),
    };
    try_run_elastic(
        if overlap { FsdpConfig::overlapped(strategy) } else { FsdpConfig::tuned(strategy) },
        WORLD,
        0.01,
        STEPS,
        |_| Toy::new(7),
        |m: &mut Toy, rank: usize, world: usize, step: usize| {
            let mut rng = TensorRng::seed_from(5000 + step as u64);
            let x = rng.randn(&[8, 3], 1.0);
            let y = rng.randn(&[8, 2], 1.0);
            let per = 8 / world;
            let xl = x.rows(rank * per, (rank + 1) * per);
            let yl = y.rows(rank * per, (rank + 1) * per);
            m.compute(&xl, &yl)
        },
        |_| 0.01,
        None,
        resilience,
    )
}

/// The deterministic face of an outcome: every field that must be
/// bit-identical between a probed and an unprobed run. Wall-clock-derived
/// fields (the gray-degradation report) are intentionally excluded — a
/// probe may legally change timings, never results.
fn fingerprint(outcome: &Result<DistReport, FailureReport>) -> String {
    match outcome {
        Ok(r) => format!(
            "ok params={:?} losses={:?} traffic={:?} restarts={} guard={:?} reshard={:?}",
            r.final_params.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            r.mean_losses.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            r.traffic,
            r.restarts,
            r.guard,
            r.reshard.events,
        ),
        Err(f) => format!(
            "err restarts={} resumed={:?} failures={:?} guard={:?} reshards={:?}",
            f.restarts_used, f.resumed_from_step, f.failures, f.guard, f.reshards,
        ),
    }
}

/// Run one schedule probe-off then probe-on and hold the equivalence
/// invariant. `make_plan` builds a FRESH plan per run: fault draws are
/// consumed as a run takes them, so the two runs must not share one.
/// Returns the probed run's counters for corpus-level checks.
fn assert_equivalent(
    tag: &str,
    seed: u64,
    overlap: bool,
    make_plan: impl Fn() -> FaultPlan,
) -> ProbeCounters {
    use std::sync::atomic::Ordering;
    let strategy = STRATEGIES[(seed as usize) % STRATEGIES.len()];

    let dir = ckpt_dir(tag, seed);
    let _ = std::fs::remove_dir_all(&dir);
    let bare = run_once(strategy, overlap, Arc::new(make_plan()), &dir);
    let _ = std::fs::remove_dir_all(&dir);

    let counters = Arc::new(ProbeCounters::default());
    install_probe(Arc::clone(&counters));
    let probed = run_once(strategy, overlap, Arc::new(make_plan()), &dir);
    uninstall_probe();
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(
        fingerprint(&bare),
        fingerprint(&probed),
        "{tag} seed {seed} ({}, overlap={overlap}): probed run diverged from bare run \
         (plan: {:?})",
        strategy.name(),
        make_plan().events()
    );

    // the observers must actually have run inside the hot path
    let calls = counters.before_forward.load(Ordering::Relaxed)
        + counters.after_backward.load(Ordering::Relaxed)
        + counters.on_step.load(Ordering::Relaxed)
        + counters.on_failure.load(Ordering::Relaxed)
        + counters.on_finish.load(Ordering::Relaxed);
    assert!(calls > 0, "{tag} seed {seed}: probe installed but no hook fired");
    if bare.is_ok() {
        assert!(
            counters.before_forward.load(Ordering::Relaxed) >= STEPS,
            "{tag} seed {seed}: a completed run must cross before_forward every step"
        );
        assert!(
            counters.around_collective.load(Ordering::Relaxed) > 0,
            "{tag} seed {seed}: the step collective schedule was never wrapped"
        );
    }
    Arc::try_unwrap(counters).expect("probe uninstalled; no other owner")
}

/// Chaos-style corpus: the full trainer-side fault cocktail, both
/// engines (odd seeds overlap), sampled across all four strategies.
#[test]
fn probed_runs_match_bare_runs_under_chaos() {
    let _serial = probe_lock().lock().unwrap_or_else(|e| e.into_inner());
    let base = seed_base();
    for seed in 0..16u64 {
        let seed = base + seed;
        assert_equivalent("chaos", seed, seed % 2 == 1, || {
            FaultPlan::seeded(seed, WORLD, STEPS, &equivalence_mix())
        });
    }
}

/// SDC-style corpus: corruption-only schedules with the guard hot — the
/// guard middleware's rollback/skip bookkeeping must be untouched by
/// interleaved observers.
#[test]
fn probed_runs_match_bare_runs_under_corruption() {
    let _serial = probe_lock().lock().unwrap_or_else(|e| e.into_inner());
    let base = seed_base();
    for seed in 0..6u64 {
        let seed = base + 100 + seed;
        assert_equivalent("sdc", seed, seed % 2 == 1, || {
            FaultPlan::seeded(seed, WORLD, STEPS, &FaultMix::corruption_only(0.5))
        });
    }
}

/// Elastic-style corpus: scripted departures and rejoins — the reshard
/// transition chain (drain, consensus, re-partition) must be identical
/// with and without observers, including the recorded ReshardEvents.
#[test]
fn probed_runs_match_bare_runs_across_reshards() {
    let _serial = probe_lock().lock().unwrap_or_else(|e| e.into_inner());
    let base = seed_base();
    let scripted: [fn() -> FaultPlan; 3] = [
        || FaultPlan::none().with_rank_leave(3, 2),
        || FaultPlan::none().with_rank_leave(1, 1).with_spare_rejoin(4),
        || FaultPlan::none().with_rank_crash(2, 3),
    ];
    for (i, make_plan) in scripted.into_iter().enumerate() {
        let seed = base + 200 + i as u64;
        assert_equivalent("elastic", seed, i % 2 == 1, make_plan);
    }
}

// ---------------------------------------------------------------------------
// Negative controls: stack construction rejects broken orderings loudly.
// ---------------------------------------------------------------------------

/// A descriptor-only middleware: `RuntimeStack::new` consults nothing but
/// `descriptor()`, so the ordering laws are testable without constructing
/// any real policy state.
struct At(&'static str, Stage);

impl RankMiddleware<Toy> for At {
    fn descriptor(&self) -> Descriptor {
        Descriptor { name: self.0, stage: self.1 }
    }
}

fn stack_of(mws: Vec<At>) -> Result<RuntimeStack<'static, Toy>, StackError> {
    RuntimeStack::new(
        mws.into_iter().map(|m| Box::new(m) as Box<dyn RankMiddleware<Toy>>).collect(),
    )
}

/// The canonical ordering is accepted (sanity for the controls below).
#[test]
fn canonical_stack_order_is_accepted() {
    let stack = stack_of(vec![
        At("health", Stage::Health),
        At("guard", Stage::Guard),
        At("inject", Stage::Inject),
        At("checkpoint", Stage::Checkpoint),
        At("drain", Stage::Drain),
    ]);
    assert!(stack.is_ok(), "the canonical middleware order must construct");
}

/// Guard ahead of health: a rollback would erase health statistics that
/// were never recorded — rejected at construction, naming both layers.
#[test]
fn guard_before_health_is_rejected_with_structured_error() {
    let err = stack_of(vec![At("guard", Stage::Guard), At("health", Stage::Health)])
        .err()
        .expect("misordered stack must not construct");
    match err {
        StackError::Misordered { first, second, reason } => {
            assert_eq!(first, "guard");
            assert_eq!(second, "health");
            assert!(
                reason.contains("health"),
                "the violation must explain itself, got: {reason}"
            );
        }
        other => panic!("expected Misordered, got {other:?}"),
    }
    // the error is a std::error::Error with a displayable message
    let msg = format!("{}", stack_of(vec![
        At("guard", Stage::Guard),
        At("health", Stage::Health),
    ]).err().unwrap());
    assert!(msg.contains("guard") && msg.contains("health"), "display names both layers: {msg}");
}

/// A checkpoint scheduled inside the drain layer: persisting state after
/// the comm plane has begun tearing down is exactly the torn-write bug
/// the ordering laws exist to forbid.
#[test]
fn checkpoint_inside_drain_is_rejected_with_structured_error() {
    let err = stack_of(vec![
        At("health", Stage::Health),
        At("drain", Stage::Drain),
        At("checkpoint", Stage::Checkpoint),
    ])
    .err()
    .expect("checkpoint after drain must not construct");
    match err {
        StackError::Misordered { first, second, .. } => {
            assert_eq!(first, "drain");
            assert_eq!(second, "checkpoint");
        }
        other => panic!("expected Misordered, got {other:?}"),
    }
}

/// Two policy middleware with the same name would make failure
/// attribution ambiguous — rejected as a duplicate.
#[test]
fn duplicate_policy_names_are_rejected() {
    let err = stack_of(vec![At("guard", Stage::Guard), At("guard", Stage::Guard)])
        .err()
        .expect("duplicate names must not construct");
    assert!(
        matches!(err, StackError::Duplicate { name: "guard" }),
        "expected Duplicate {{ guard }}, got {err:?}"
    );
}

/// Observers are exempt from both ordering and duplication: any number
/// of probes may interleave anywhere — the freedom the equivalence suite
/// above depends on.
#[test]
fn observers_interleave_anywhere_without_tripping_the_ordering_laws() {
    let stack = stack_of(vec![
        At("probe", Stage::Observe),
        At("health", Stage::Health),
        At("probe", Stage::Observe),
        At("guard", Stage::Guard),
        At("probe", Stage::Observe),
        At("drain", Stage::Drain),
        At("probe", Stage::Observe),
    ]);
    assert!(stack.is_ok(), "Observe-stage middleware must be exempt from the ordering laws");
}
