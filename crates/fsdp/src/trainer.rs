//! Convenience harness: run a distributed training job across rank threads
//! and collect the result.
//!
//! Five entry points, all funnelling into one restart loop:
//!
//! * [`run_data_parallel`] / [`run_data_parallel_with_telemetry`] — the
//!   infallible harness. Any rank failure (there should be none without
//!   fault injection) panics with a structured report.
//! * [`try_run_data_parallel`] — the resilient harness. A [`ResilienceConfig`]
//!   supplies a deterministic [`FaultPlan`], a checkpoint cadence, a
//!   bounded collective timeout, and a restart budget. A rank that crashes
//!   (injected or a real panic in `compute`) poisons its groups so every
//!   peer surfaces `Err(RankLost)` within one timeout period; the harness
//!   then restarts the world from the latest GEOFMCK3 checkpoint (or from
//!   scratch without one), resuming **bit-identically** — the final
//!   parameters equal those of a run that never failed.
//! * [`try_run_elastic`] — the loop itself, with a world-aware `compute`
//!   so the world can shrink and re-grow; [`try_run_streaming`] feeds it
//!   from an [`IngestPlane`].
//!
//! Each attempt runs one rank loop per rank thread (`run_attempt`):
//! straight-line code that calls each policy at its one point in the
//! step — the guard's skip screen, the fault draws, `try_step`, the
//! guard's verdict, then the health record, the guard's rollback snapshot
//! and the GEOFMCK3 checkpoint — and drains the comm thread where a rank
//! departs, a spare rejoins, or a rank is lost under elastic resharding.
//! The policies and the ordering laws that order rests on are documented
//! in `runtime.rs`.

use crate::flat::FlatLayout;
use crate::health::HealthMonitor;
use crate::rank::{FsdpRank, StepError};
use crate::reshard::global_to_shard;
use crate::runtime::{Checkpointer, FaultInjector, Guard, RankSlot};
use crate::sentinel::SentinelConfig;
use crate::strategy::{FsdpConfig, ShardingStrategy};
use geofm_collectives::{
    AdaptiveTimeout, AdaptiveTimeoutConfig, ConsensusError, HierarchyLayout,
    ProcessGroups, SurvivorConsensus, TrafficCounter, TrafficSnapshot,
};
use geofm_nn::{AdamWState, Module};
use geofm_data::stream::{Batch, IngestPlane};
use geofm_resilience::{
    DataReport, DegradedReport, ElasticCheckpoint, FailureReport, FaultPlan, GuardReport,
    RankFailure, ReshardSummary,
};
use geofm_telemetry::Telemetry;
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Failure cause recorded by a rank that departs permanently
/// ([`geofm_resilience::FaultKind::RankLeave`]) — the elastic restart loop
/// keys its shrink decision off this exact string.
pub(crate) const CAUSE_LEAVE: &str = "rank left permanently";
/// Failure cause recorded by the rank that observes a spare arriving
/// ([`geofm_resilience::FaultKind::SpareRejoin`]) — keys the grow decision.
pub(crate) const CAUSE_REJOIN: &str = "spare rank rejoined";

/// The outcome of a distributed run.
#[derive(Debug, Clone)]
pub struct DistReport {
    /// Final (materialised) flat parameters, identical on every rank.
    pub final_params: Vec<f32>,
    /// Mean local loss per step, averaged across ranks. Skipped steps
    /// hold the canonical `f32::NAN` placeholder.
    pub mean_losses: Vec<f32>,
    /// Total communication traffic across all ranks and steps.
    pub traffic: TrafficSnapshot,
    /// How many elastic restarts the run needed (0 without faults).
    pub restarts: usize,
    /// Gray-degradation summary from the health monitor: `Some` when at
    /// least one rank ran persistently slower than the healthy median.
    /// A degraded world still completes (bit-identically) — it just
    /// completes slower, and this says by how much and whose fault it was.
    pub degraded: Option<DegradedReport>,
    /// Integrity-guard summary: `Some` whenever the guard was enabled
    /// (zero trips included — a clean guarded run is worth knowing).
    pub guard: Option<GuardReport>,
    /// Elastic world transitions the run performed (empty without
    /// [`ResilienceConfig::elastic`] or without rank-leave/rejoin faults).
    pub reshard: ReshardReport,
    /// Ingest-plane accounting — `Some` only for [`try_run_streaming`]
    /// runs. Distinguishes input-bound steps (high `wait_ns_max`, shallow
    /// queue) from compute stragglers, and records what was quarantined.
    pub data: Option<DataReport>,
}

/// Which way an elastic world transition went.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReshardKind {
    /// Survivors re-partitioned onto a smaller world after permanent loss.
    Shrink,
    /// A spare rejoined and shards redistributed back onto a larger world.
    Grow,
}

/// One elastic world transition, with the full payload the new world
/// resumed from — enough to independently launch a reference run at the
/// new size from the identical state (the bit-identity acceptance check).
#[derive(Debug, Clone)]
pub struct ReshardEvent {
    /// Shrink or grow.
    pub kind: ReshardKind,
    /// Step the new world resumed from (0 = resharded from scratch).
    pub step: u64,
    /// World size before the transition.
    pub from_world: usize,
    /// World size after the transition.
    pub to_world: usize,
    /// Ranks (old-world ids) that departed; empty on grow.
    pub departed: Vec<usize>,
    /// Strategy in force after the transition (`HYBRID(k)` remapped via
    /// [`ShardingStrategy::remap_for_world`]; everything else unchanged).
    pub strategy: ShardingStrategy,
    /// The world-size-independent state the new world resumed from. An
    /// **empty** checkpoint (no units) means no snapshot existed yet and
    /// the new world restarted from scratch.
    pub ckpt: ElasticCheckpoint,
}

/// All elastic transitions of one run, in order.
#[derive(Debug, Clone, Default)]
pub struct ReshardReport {
    /// The transitions, oldest first.
    pub events: Vec<ReshardEvent>,
}

impl ReshardReport {
    /// Number of shrink transitions.
    pub fn shrinks(&self) -> usize {
        self.events.iter().filter(|e| e.kind == ReshardKind::Shrink).count()
    }

    /// Number of grow transitions.
    pub fn grows(&self) -> usize {
        self.events.iter().filter(|e| e.kind == ReshardKind::Grow).count()
    }
}

/// Elastic-resharding policy: what [`try_run_elastic`] does when a rank
/// departs permanently or a spare rejoins.
#[derive(Debug, Clone)]
pub struct ElasticConfig {
    /// Never shrink below this many ranks; a departure that would is a
    /// hard failure (the structured report names the limit).
    pub min_world: usize,
    /// Where the GEOFMCK3 checkpoint lives on disk. When set, every
    /// checkpoint cadence also writes the image (crash-safely) and a cold
    /// start resumes from it at **any** world size. `None` keeps the image
    /// in memory only — restarts, shrinks and grows still resume from the
    /// latest in-memory image.
    pub checkpoint_path: Option<PathBuf>,
    /// Bound on each phase of the survivor-consensus round run between
    /// drain and reshard (see [`SurvivorConsensus`]).
    pub consensus_timeout: Duration,
}

impl Default for ElasticConfig {
    fn default() -> Self {
        Self {
            min_world: 1,
            checkpoint_path: None,
            consensus_timeout: Duration::from_secs(10),
        }
    }
}

/// Policy for the silent-data-corruption / loss-spike guard in
/// [`try_run_data_parallel`]. `Some(GuardConfig)` on
/// [`ResilienceConfig::guard`] turns on (a) checksum verification in every
/// reduce collective, (b) a per-step guard exchange (world all-reduce of
/// `[local loss, corruption flag]`) whose result is identical on every
/// rank, (c) [`Sentinel`](crate::Sentinel) screening of that agreed mean
/// loss and the global grad norm, and (d) deterministic rollback-and-skip
/// on any trip. The guard's rollback snapshots are in memory and separate
/// from the GEOFMCK3 checkpoints.
#[derive(Debug, Clone)]
pub struct GuardConfig {
    /// Sentinel thresholds (NaN/Inf guard + robust z-score spike
    /// detectors).
    pub sentinel: SentinelConfig,
    /// Take an in-memory rollback snapshot every this many completed
    /// steps (≥ 1). Smaller = less re-executed work per rollback, more
    /// snapshot copies.
    pub snapshot_every: usize,
    /// How many rollback-and-skip recoveries the run may perform before
    /// a trip becomes a hard failure (a stream of trips means the fault
    /// is not transient).
    pub max_rollbacks: usize,
    /// Steps to skip unconditionally (canonical NaN loss, no collectives,
    /// no update). This is how a *clean* comparator run reproduces the
    /// exact step schedule of a faulted run that skipped these steps —
    /// the bit-identical-recovery acceptance test.
    pub skip_steps: BTreeSet<usize>,
}

impl Default for GuardConfig {
    fn default() -> Self {
        Self {
            sentinel: SentinelConfig::default(),
            snapshot_every: 2,
            max_rollbacks: 8,
            skip_steps: BTreeSet::new(),
        }
    }
}

/// Fault-tolerance policy for [`try_run_data_parallel`],
/// [`try_run_elastic`] and [`try_run_streaming`].
#[derive(Debug, Clone)]
pub struct ResilienceConfig {
    /// Deterministic fault schedule shared by all rank threads. Crash-type
    /// events are one-shot: they fire on the first attempt only, so the
    /// post-restart re-execution runs through.
    pub fault_plan: Arc<FaultPlan>,
    /// Assemble a GEOFMCK3 checkpoint every this many completed steps
    /// (0 = never). The image is kept in memory, and a restart resumes
    /// from the latest one whatever the `elastic` setting; it is also
    /// written to disk when [`ElasticConfig::checkpoint_path`] is set.
    pub checkpoint_every: usize,
    /// Bound on every barrier wait inside collectives. A rank that dies
    /// without poisoning its groups (hard kill) still unblocks its peers
    /// within this bound. `None` waits forever (poisoning still observed).
    pub collective_timeout: Option<Duration>,
    /// How many times the harness may restart the world after a failed
    /// attempt before giving up and returning the failure report.
    pub max_restarts: usize,
    /// Adaptive collective timeout: each rank tracks an EWMA of observed
    /// collective latency and times out at `multiplier × EWMA` (clamped to
    /// the config's floor), *tightening* `collective_timeout` once warmed
    /// up. This is how a hang is detected relative to real step time
    /// instead of a pessimistic fixed bound.
    pub adaptive_timeout: Option<AdaptiveTimeoutConfig>,
    /// A rank is flagged as a straggler once its local-work EWMA exceeds
    /// this multiple of the healthy median (see [`HealthMonitor`]).
    pub straggler_threshold: f64,
    /// Silent-data-corruption / loss-spike defense. `Some` enables
    /// checksummed reduce collectives, the per-step guard exchange,
    /// [`Sentinel`](crate::Sentinel) screening and deterministic
    /// rollback-and-skip (see [`GuardConfig`]). `None` runs unguarded —
    /// injected corruption propagates silently, exactly like
    /// un-checksummed hardware.
    pub guard: Option<GuardConfig>,
    /// Elastic resharding: `Some` lets the harness shrink the world and
    /// continue after a permanent rank departure (and re-grow on a spare
    /// rejoin) instead of burning restarts at a world size that can no
    /// longer assemble. `None` treats departures like ordinary crashes.
    /// Its [`ElasticConfig::checkpoint_path`] is where checkpoints persist.
    pub elastic: Option<ElasticConfig>,
}

impl ResilienceConfig {
    /// No faults, no checkpoints, no restarts — but still a bounded (60 s)
    /// collective wait, so a genuine deadlock fails loudly instead of
    /// hanging the process. This is what the infallible harness uses.
    pub fn disabled() -> Self {
        Self {
            fault_plan: Arc::new(FaultPlan::none()),
            checkpoint_every: 0,
            collective_timeout: Some(Duration::from_secs(60)),
            max_restarts: 0,
            adaptive_timeout: None,
            straggler_threshold: 2.5,
            guard: None,
            elastic: None,
        }
    }
}

/// Lock a mutex, recovering the guard if a peer panicked while holding it.
/// Rank threads die by design under fault injection; their poison must not
/// cascade into the harness bookkeeping.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// The pool one rank's kernels split across: its share of the machine,
/// `max(1, available_parallelism / world)` threads. Each attempt builds its
/// own, so the survivors of an elastic shrink get the departed ranks' cores.
fn rank_pool(world: usize) -> rayon::ThreadPool {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    rayon::ThreadPoolBuilder::new()
        .num_threads((cores / world).max(1))
        .build()
        .expect("the shim's pools start their helpers lazily and always build")
}

/// Run `steps` collective training steps across `world` rank threads.
///
/// * `make_model(rank)` must construct identically initialised models (use
///   the same seed) and return the model together with its FSDP unit sizes.
/// * `compute(model, rank, step)` performs zero-grad + forward + backward on
///   rank `rank`'s microbatch for `step` and returns the local loss. For
///   correct data-parallel semantics the local loss must be a **mean** over
///   the rank's samples and microbatches must partition the global batch.
/// * `lr_at(step)` supplies the learning rate.
pub fn run_data_parallel<M, FM, FC, FL>(
    config: FsdpConfig,
    world: usize,
    weight_decay: f32,
    steps: usize,
    make_model: FM,
    compute: FC,
    lr_at: FL,
) -> DistReport
where
    M: Module + Send,
    FM: Fn(usize) -> (M, Vec<usize>) + Sync,
    FC: Fn(&mut M, usize, usize) -> f32 + Sync,
    FL: Fn(usize) -> f32 + Sync,
{
    run_data_parallel_with_telemetry(config, world, weight_decay, steps, make_model, compute, lr_at, None)
}

/// [`run_data_parallel`] with an optional shared [`Telemetry`] bundle.
///
/// When supplied, collective traffic is recorded into the bundle's registry
/// (`comm.<kind>.bytes` / `comm.<kind>.calls`), every rank times its step
/// phases (`fsdp.<phase>.ns` histograms + trace spans per rank track), and
/// `fsdp.steps` counts rank-steps.
#[allow(clippy::too_many_arguments)]
pub fn run_data_parallel_with_telemetry<M, FM, FC, FL>(
    config: FsdpConfig,
    world: usize,
    weight_decay: f32,
    steps: usize,
    make_model: FM,
    compute: FC,
    lr_at: FL,
    telemetry: Option<Arc<Telemetry>>,
) -> DistReport
where
    M: Module + Send,
    FM: Fn(usize) -> (M, Vec<usize>) + Sync,
    FC: Fn(&mut M, usize, usize) -> f32 + Sync,
    FL: Fn(usize) -> f32 + Sync,
{
    try_run_data_parallel(
        config,
        world,
        weight_decay,
        steps,
        make_model,
        compute,
        lr_at,
        telemetry,
        ResilienceConfig::disabled(),
    )
    .unwrap_or_else(|report| panic!("distributed run failed: {report}"))
}

/// Fault-tolerant [`run_data_parallel`]: injects the faults scheduled in
/// `resilience.fault_plan`, checkpoints at the configured cadence, and
/// restarts the world from the latest checkpoint after a failed attempt
/// (up to `max_restarts` times). Returns the structured
/// [`FailureReport`] when the restart budget is exhausted.
///
/// Recovery is **bit-identical**: a run that crashes and resumes produces
/// exactly the final parameters and per-step losses of an uninterrupted
/// run, because the checkpoint captures exact f32 shards + AdamW moments
/// and the collectives reduce in deterministic rank order.
#[allow(clippy::too_many_arguments)]
pub fn try_run_data_parallel<M, FM, FC, FL>(
    config: FsdpConfig,
    world: usize,
    weight_decay: f32,
    steps: usize,
    make_model: FM,
    compute: FC,
    lr_at: FL,
    telemetry: Option<Arc<Telemetry>>,
    resilience: ResilienceConfig,
) -> Result<DistReport, FailureReport>
where
    M: Module + Send,
    FM: Fn(usize) -> (M, Vec<usize>) + Sync,
    FC: Fn(&mut M, usize, usize) -> f32 + Sync,
    FL: Fn(usize) -> f32 + Sync,
{
    try_run_elastic(
        config,
        world,
        weight_decay,
        steps,
        make_model,
        move |m: &mut M, rank: usize, _world: usize, step: usize| compute(m, rank, step),
        lr_at,
        telemetry,
        resilience,
    )
}

/// The streaming harness: [`try_run_elastic`] fed by a fault-tolerant
/// [`IngestPlane`] instead of closure-synthesised batches.
///
/// Each rank pulls its slice of every step's global batch through the
/// plane's defended, prefetched path — CRC-verified, hedged against
/// stragglers, quarantine-and-skip on unrecoverable records — and hands
/// it to `compute(model, batch, rank, world, step)`.
///
/// Failure semantics compose with the elastic harness:
///
/// * An [`geofm_data::stream::IngestError`] (a rank's whole batch slice
///   quarantined) panics the rank thread, which the existing unwind
///   boundary converts into a structured [`RankFailure`] — ingest faults
///   **never hang the world**, they surface like any other rank failure
///   and consume a restart.
/// * The plane's [`DataReport`] is attached to the outcome either way:
///   [`DistReport::data`] on success, [`FailureReport::data`] on failure,
///   so quarantined records are visible to the recovery run that must
///   replay them (supply them via `StreamConfig.quarantine` for a
///   bit-identical reproduction).
#[allow(clippy::too_many_arguments)]
pub fn try_run_streaming<M, FM, FC, FL>(
    config: FsdpConfig,
    world: usize,
    weight_decay: f32,
    steps: usize,
    make_model: FM,
    plane: Arc<IngestPlane>,
    compute: FC,
    lr_at: FL,
    telemetry: Option<Arc<Telemetry>>,
    resilience: ResilienceConfig,
) -> Result<DistReport, FailureReport>
where
    M: Module + Send,
    FM: Fn(usize) -> (M, Vec<usize>) + Sync,
    FC: Fn(&mut M, &Batch, usize, usize, usize) -> f32 + Sync,
    FL: Fn(usize) -> f32 + Sync,
{
    let feed = Arc::clone(&plane);
    let result = try_run_elastic(
        config,
        world,
        weight_decay,
        steps,
        make_model,
        move |m: &mut M, rank: usize, world: usize, step: usize| {
            match feed.next_batch(step, rank, world) {
                Ok(batch) => compute(m, &batch, rank, world, step),
                // surfaces as a structured RankFailure via the rank
                // thread's unwind boundary — never a hang
                Err(e) => panic!("{e}"),
            }
        },
        lr_at,
        telemetry,
        resilience,
    );
    match result {
        Ok(mut report) => {
            report.data = Some(plane.report());
            Ok(report)
        }
        Err(mut failure) => {
            failure.data = Some(Box::new(plane.report()));
            Err(failure)
        }
    }
}

/// The elastic harness: [`try_run_data_parallel`] generalised to a compute
/// closure that receives the **current** world size — `compute(model, rank,
/// world, step)` — so microbatch partitioning can follow the world as it
/// shrinks and grows.
///
/// With [`ResilienceConfig::elastic`] set, a permanent rank departure
/// ([`geofm_resilience::FaultKind::RankLeave`]) triggers the shrink
/// protocol instead of a same-size restart:
///
/// 1. **Drain.** The departing rank quiesces its in-flight nonblocking
///    collectives; poisoned groups unblock every survivor within one
///    timeout, and joining the attempt scope drains their comm threads.
/// 2. **Consensus.** Survivors run a fallible [`SurvivorConsensus`] round
///    and must unanimously agree on the survivor set; any timeout or split
///    aborts the reshard with a structured failure (never a minority
///    world).
/// 3. **Reshard.** The world restarts at `world - departed` ranks — the
///    strategy remapped via [`ShardingStrategy::remap_for_world`] — and
///    every rank re-derives its shards from the last world-size-independent
///    snapshot (in-memory, or the GEOFMCK3 file when
///    [`ElasticConfig::checkpoint_path`] is set). Training continues
///    **bit-identically** to a fresh run launched at the smaller world from
///    that same state.
///
/// A [`geofm_resilience::FaultKind::SpareRejoin`] reverses the process:
/// the world re-grows by one rank (never past the original size) and
/// shards redistribute back. Every transition is recorded as a
/// [`ReshardEvent`] on [`DistReport::reshard`].
#[allow(clippy::too_many_arguments)]
pub fn try_run_elastic<M, FM, FC, FL>(
    config: FsdpConfig,
    world: usize,
    weight_decay: f32,
    steps: usize,
    make_model: FM,
    compute: FC,
    lr_at: FL,
    telemetry: Option<Arc<Telemetry>>,
    resilience: ResilienceConfig,
) -> Result<DistReport, FailureReport>
where
    M: Module + Send,
    FM: Fn(usize) -> (M, Vec<usize>) + Sync,
    FC: Fn(&mut M, usize, usize, usize) -> f32 + Sync,
    FL: Fn(usize) -> f32 + Sync,
{
    let mut failure = FailureReport {
        restarts_used: 0,
        resumed_from_step: None,
        failures: Vec::new(),
        degraded: None,
        guard: None,
        reshards: Vec::new(),
        data: None,
    };
    // per-attempt deposit slot for the guard report (every rank computes an
    // identical report; rank 0 — or the rank that exhausts the rollback
    // budget — deposits it)
    let guard_slot: Mutex<Option<GuardReport>> = Mutex::new(None);

    // one monitor and one adaptive tracker per rank for the WHOLE run,
    // reset at every attempt boundary: statistics learned in the old world
    // (inflated by a dying or degraded peer) must never flag healthy ranks
    // or time out healthy collectives in the new one.
    let health = HealthMonitor::new(world, resilience.straggler_threshold)
        .with_telemetry(telemetry.clone());
    let trackers: Option<Vec<Arc<AdaptiveTimeout>>> = resilience.adaptive_timeout.map(|cfg| {
        (0..world)
            .map(|_| {
                let mut t = AdaptiveTimeout::new(cfg);
                if let Some(tel) = telemetry.as_deref() {
                    t = t.with_metrics(tel.metrics.clone());
                }
                Arc::new(t)
            })
            .collect()
    });

    // the latest GEOFMCK3 image, which every attempt resumes from; a cold
    // start picks up the durable image if the elastic config points at one
    let elastic_snapshot: Mutex<Option<ElasticCheckpoint>> = Mutex::new(
        resilience
            .elastic
            .as_ref()
            .and_then(|e| e.checkpoint_path.as_deref())
            .and_then(|p| ElasticCheckpoint::load(p).ok())
            .filter(|ck| (ck.step as usize) <= steps),
    );

    let mut cur_world = world;
    let mut cur_config = config;
    let mut reshard_events: Vec<ReshardEvent> = Vec::new();

    loop {
        *lock(&guard_slot) = None;
        health.reset();
        if let Some(trs) = &trackers {
            for t in trs {
                t.reset();
            }
        }
        let resume = lock(&elastic_snapshot).clone();
        if failure.restarts_used > 0 {
            failure.resumed_from_step = Some(resume.as_ref().map_or(0, |ck| ck.step));
        }
        if let (Some(t), Some(_)) = (telemetry.as_deref(), resilience.elastic.as_ref()) {
            t.metrics.gauge("reshard.world").set(cur_world as i64);
        }
        let recovery_span = (failure.restarts_used > 0)
            .then(|| telemetry.as_deref().map(|t| t.phase("fault.recovery", cur_world as u64)));
        let elastic = ElasticRuntime {
            on: resilience.elastic.is_some(),
            can_grow: cur_world < world,
            snapshot: &elastic_snapshot,
            disk: resilience.elastic.as_ref().and_then(|e| e.checkpoint_path.as_deref()),
            trackers: trackers.as_deref(),
        };
        let outcome = run_attempt(
            cur_config,
            cur_world,
            weight_decay,
            steps,
            &make_model,
            &compute,
            &lr_at,
            telemetry.as_ref(),
            &resilience,
            resume,
            &health,
            &guard_slot,
            &elastic,
        );
        drop(recovery_span);
        match outcome {
            Ok(mut report) => {
                report.restarts = failure.restarts_used;
                report.degraded = health.report();
                report.guard = lock(&guard_slot).take();
                report.reshard = ReshardReport { events: std::mem::take(&mut reshard_events) };
                return Ok(report);
            }
            Err(mut fails) => {
                let mut departed: Vec<usize> = fails
                    .iter()
                    .filter(|f| f.cause == CAUSE_LEAVE)
                    .map(|f| f.rank)
                    .collect();
                departed.sort_unstable();
                departed.dedup();
                let rejoined = fails.iter().any(|f| f.cause == CAUSE_REJOIN);
                failure.failures.append(&mut fails);
                if let Some(gr) = lock(&guard_slot).take() {
                    failure.guard = Some(Box::new(gr));
                }
                if failure.restarts_used >= resilience.max_restarts {
                    failure.degraded = health.report().map(Box::new);
                    return Err(failure);
                }
                failure.restarts_used += 1;
                if let Some(t) = telemetry.as_deref() {
                    t.metrics.counter("fault.restarts").inc(1);
                }

                let Some(ecfg) = resilience.elastic.as_ref() else { continue };
                if !departed.is_empty() {
                    // ---- shrink: drain happened on the way down (the scope
                    // join drained every comm thread); agree, then reshard ----
                    let target = cur_world - departed.len();
                    if target < ecfg.min_world.max(1) {
                        failure.degraded = health.report().map(Box::new);
                        failure.failures.push(RankFailure {
                            rank: departed[0],
                            step: resume_step_of(&elastic_snapshot),
                            cause: format!(
                                "cannot shrink to {target} ranks: below min_world {}",
                                ecfg.min_world.max(1)
                            ),
                        });
                        return Err(failure);
                    }
                    if let Err(e) = survivor_consensus(
                        cur_world,
                        &departed,
                        ecfg.consensus_timeout,
                        telemetry.as_deref(),
                    ) {
                        failure.degraded = health.report().map(Box::new);
                        failure.failures.push(RankFailure {
                            rank: 0,
                            step: resume_step_of(&elastic_snapshot),
                            cause: format!("survivor consensus failed: {e}"),
                        });
                        return Err(failure);
                    }
                    let from_world = cur_world;
                    cur_world = target;
                    cur_config.strategy = config.strategy.remap_for_world(cur_world);
                    let ckpt = lock(&elastic_snapshot).clone().unwrap_or_default();
                    failure.reshards.push(ReshardSummary {
                        step: ckpt.step,
                        from_world,
                        to_world: cur_world,
                    });
                    if let Some(t) = telemetry.as_deref() {
                        t.metrics.counter("reshard.shrinks").inc(1);
                    }
                    reshard_events.push(ReshardEvent {
                        kind: ReshardKind::Shrink,
                        step: ckpt.step,
                        from_world,
                        to_world: cur_world,
                        departed,
                        strategy: cur_config.strategy,
                        ckpt,
                    });
                } else if rejoined && cur_world < world {
                    // ---- grow: the spare takes the next rank slot and
                    // shards redistribute back over the larger world ----
                    let from_world = cur_world;
                    cur_world += 1;
                    cur_config.strategy = config.strategy.remap_for_world(cur_world);
                    let ckpt = lock(&elastic_snapshot).clone().unwrap_or_default();
                    failure.reshards.push(ReshardSummary {
                        step: ckpt.step,
                        from_world,
                        to_world: cur_world,
                    });
                    if let Some(t) = telemetry.as_deref() {
                        t.metrics.counter("reshard.grows").inc(1);
                    }
                    reshard_events.push(ReshardEvent {
                        kind: ReshardKind::Grow,
                        step: ckpt.step,
                        from_world,
                        to_world: cur_world,
                        departed: Vec::new(),
                        strategy: cur_config.strategy,
                        ckpt,
                    });
                }
            }
        }
    }
}

/// Step the next attempt will resume from, for failure bookkeeping.
fn resume_step_of(snapshot: &Mutex<Option<ElasticCheckpoint>>) -> usize {
    lock(snapshot).as_ref().map(|ck| ck.step as usize).unwrap_or(0)
}

/// Run the survivor-agreement round of the shrink protocol: every survivor
/// proposes the same observed view (the old world minus the departed) and
/// the round must return that exact set, unanimously. Any timeout, split
/// or exclusion aborts the reshard.
fn survivor_consensus(
    world: usize,
    departed: &[usize],
    timeout: Duration,
    telemetry: Option<&Telemetry>,
) -> Result<u64, ConsensusError> {
    let mut view = SurvivorConsensus::full_mask(world);
    for &d in departed {
        view &= !(1u64 << d);
    }
    let round = SurvivorConsensus::new(world, timeout);
    let t0 = Instant::now();
    let results: Vec<Result<u64, ConsensusError>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..world)
            .filter(|r| !departed.contains(r))
            .map(|r| {
                let round = &round;
                s.spawn(move || round.propose(r, view))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or(Err(ConsensusError::Timeout { rank: world, waiting_on: world }))
            })
            .collect()
    });
    if let Some(t) = telemetry {
        t.metrics.counter("reshard.consensus.rounds").inc(1);
        t.metrics.histogram("reshard.consensus.ns").record(t0.elapsed().as_nanos() as u64);
    }
    for r in results {
        let agreed = r?;
        debug_assert_eq!(agreed, view, "unanimous proposals can only agree on the view");
    }
    Ok(view)
}

/// Elastic context one attempt runs under.
struct ElasticRuntime<'a> {
    /// Elastic resharding enabled.
    on: bool,
    /// A spare may rejoin (the world is below its original size).
    can_grow: bool,
    /// Latest in-memory GEOFMCK3 image.
    snapshot: &'a Mutex<Option<ElasticCheckpoint>>,
    /// Durable GEOFMCK3 location, if configured.
    disk: Option<&'a Path>,
    /// Per-rank adaptive-timeout trackers shared across attempts (reset by
    /// the restart loop), indexed by global rank.
    trackers: Option<&'a [Arc<AdaptiveTimeout>]>,
}

/// One attempt: fresh process groups, all ranks restore from `resume` (or
/// start fresh without one) and run `start_step..steps`. `Err` carries
/// every rank failure observed this attempt (the root cause plus the
/// cascading `RankLost` of its peers).
#[allow(clippy::too_many_arguments)]
fn run_attempt<M, FM, FC, FL>(
    config: FsdpConfig,
    world: usize,
    weight_decay: f32,
    steps: usize,
    make_model: &FM,
    compute: &FC,
    lr_at: &FL,
    telemetry: Option<&Arc<Telemetry>>,
    resilience: &ResilienceConfig,
    resume: Option<ElasticCheckpoint>,
    health: &HealthMonitor,
    guard_slot: &Mutex<Option<GuardReport>>,
    elastic: &ElasticRuntime<'_>,
) -> Result<DistReport, Vec<RankFailure>>
where
    M: Module + Send,
    FM: Fn(usize) -> (M, Vec<usize>) + Sync,
    FC: Fn(&mut M, usize, usize, usize) -> f32 + Sync,
    FL: Fn(usize) -> f32 + Sync,
{
    let shard_size = config.strategy.shard_group_size(world);
    let layout = HierarchyLayout { world, shard_size };
    let groups = match telemetry {
        Some(tel) => ProcessGroups::hierarchy_with_traffic(
            layout,
            Arc::new(TrafficCounter::with_registry(tel.metrics.clone())),
        ),
        None => ProcessGroups::hierarchy(layout),
    };
    let traffic = groups[0].world.traffic();
    if let Some(tel) = telemetry {
        // surface the overlap knobs next to the per-step overlap.* rows the
        // ranks record, so a trace is self-describing
        tel.metrics.gauge("overlap.enabled").set(i64::from(config.overlap.enabled));
        tel.metrics.gauge("overlap.prefetch.depth").set(config.overlap.prefetch_depth as i64);
    }
    let start_step = resume.as_ref().map_or(0, |ck| ck.step as usize);
    // a resume re-derives shards from the global image, so the per-rank
    // loss series covers only `start_step..steps`; the world-mean prefix
    // for the earlier steps comes from the checkpoint itself
    let loss_prefix: Vec<f32> =
        resume.as_ref().map(|ck| ck.mean_losses.clone()).unwrap_or_default();

    let params_out: Mutex<Option<Vec<f32>>> = Mutex::new(None);
    let losses: Vec<Mutex<Vec<f32>>> = (0..world).map(|_| Mutex::new(Vec::new())).collect();
    // per-rank deposit slots for the two-barrier checkpoint protocol
    let slots: Vec<Mutex<Option<RankSlot>>> = (0..world).map(|_| Mutex::new(None)).collect();
    let failures: Mutex<Vec<RankFailure>> = Mutex::new(Vec::new());

    std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(world);
        for g in groups {
            let resume = &resume;
            let loss_prefix = &loss_prefix;
            let params_out = &params_out;
            let losses = &losses;
            let slots = &slots;
            let telemetry = telemetry.cloned();
            let rank_body = move || -> Result<(), RankFailure> {
                let rank = g.rank;
                let mut g = g.with_timeout(resilience.collective_timeout);
                if let Some(trackers) = elastic.trackers {
                    // run-lifetime trackers, reset by the restart loop after
                    // every recovery/reshard (the stale-straggler defense)
                    g = g.with_adaptive_tracker(Arc::clone(&trackers[rank]));
                }
                if resilience.guard.is_some() {
                    g = g.with_checksums(true);
                }
                // kept outside the unwind boundary so a panicking rank can
                // still unblock its peers
                let peers = g.clone();
                let count = |name: &str| {
                    if let Some(t) = telemetry.as_deref() {
                        t.metrics.counter(name).inc(1);
                    }
                };
                let fail = |step: usize, cause: String| RankFailure { rank, step, cause };
                let current_step = AtomicUsize::new(start_step);

                let body = catch_unwind(AssertUnwindSafe(|| -> Result<(), RankFailure> {
                    let (model, units) = make_model(rank);
                    let mut fr = FsdpRank::new(model, &units, config, g, weight_decay);
                    if let Some(tel) = telemetry.as_ref() {
                        fr = fr.with_telemetry(Arc::clone(tel));
                    }
                    let mut local_losses: Vec<f32> = Vec::with_capacity(steps);
                    if let Some(ck) = resume {
                        // world-size-independent resume: carve this rank's
                        // shards out of the global image under the
                        // attempt's own layout
                        if let Err(e) = ck.validate_units(&units) {
                            fr.poison_groups();
                            return Err(fail(
                                start_step,
                                format!("elastic checkpoint rejected: {e}"),
                            ));
                        }
                        let layout = FlatLayout::new(&units, shard_size);
                        let sr = fr.shard_rank();
                        let params = global_to_shard(&layout, &ck.params, sr);
                        let m = global_to_shard(&layout, &ck.adam_m, sr);
                        let v = global_to_shard(&layout, &ck.adam_v, sr);
                        fr.restore_state(&params, AdamWState { m, v, t: ck.adam_t });
                    }

                    // built post-restore, so the guard's first rollback
                    // snapshot captures the restored state
                    let mut guard = resilience
                        .guard
                        .as_ref()
                        .map(|gc| Guard::new(gc, &fr, start_step, guard_slot, telemetry.clone()));
                    let faults = FaultInjector::new(
                        &resilience.fault_plan,
                        peers.clone(),
                        resilience.collective_timeout,
                        elastic.on,
                        elastic.can_grow,
                        telemetry.clone(),
                    );
                    let checkpointer = Checkpointer::new(
                        resilience,
                        elastic.disk,
                        elastic.snapshot,
                        slots,
                        loss_prefix,
                        units.clone(),
                        shard_size,
                        telemetry.clone(),
                    );

                    // the order of the calls below carries the ordering
                    // laws in runtime.rs's module docs
                    let mut step = start_step;
                    while step < steps {
                        current_step.store(step, Ordering::Relaxed);
                        if guard.as_ref().is_some_and(|g| g.skips(step)) {
                            // canonical NaN loss, no collectives, no faults,
                            // no update — every rank passes over in lockstep
                            local_losses.push(f32::NAN);
                            step += 1;
                            continue;
                        }
                        let draws = faults.draw(&fr, rank, step)?;
                        let mut compute_time = Duration::ZERO;
                        let outcome = fr.try_step(lr_at(step), |m| {
                            let t0 = Instant::now();
                            let loss = compute(m, rank, world, step);
                            // a degraded GCD takes `slowdown ×` as long for
                            // the same (bit-identical) result
                            if let Some(s) = draws.degraded {
                                std::thread::sleep(t0.elapsed().mul_f64(s - 1.0));
                            }
                            compute_time += t0.elapsed();
                            if draws.poison_loss { f32::NAN } else { loss }
                        });
                        let outcome = match outcome {
                            Ok(r) => Ok(r),
                            // the checksum layer flagged this step's reduce;
                            // the step completed its collective schedule
                            // (keeping all ranks aligned) but applied no
                            // update — the guard exchange spreads the
                            // verdict world-wide
                            Err(StepError::Corrupt(c)) if guard.is_some() => Err(c),
                            Err(e) => {
                                count("fault.rank_lost");
                                fr.poison_groups();
                                // survivor half of the drain protocol: under
                                // elastic resharding, empty the comm thread
                                // once groups are poisoned, so no queued job
                                // touches state
                                if elastic.on {
                                    fr.quiesce_comm();
                                }
                                return Err(fail(step, e.to_string()));
                            }
                        };
                        if let Some(g) = guard.as_mut() {
                            let verdict =
                                g.verdict(&mut fr, rank, world, step, &outcome, &mut local_losses)?;
                            if let Some(to_step) = verdict {
                                step = to_step;
                                continue;
                            }
                        }
                        let report = outcome.expect("the guard rolls back every corrupt step");
                        local_losses.push(report.loss);
                        health.record(rank, draws.delay + compute_time);
                        if let Some(g) = guard.as_mut() {
                            g.snapshot(&fr, step, local_losses.len());
                        }
                        checkpointer.after_step(&fr, rank, world, step, &local_losses)?;
                        step += 1;
                    }

                    if let Err(lost) = fr.try_materialize() {
                        count("fault.rank_lost");
                        fr.poison_groups();
                        return Err(fail(steps, lost.to_string()));
                    }
                    *lock(&losses[rank]) = local_losses;
                    if rank == 0 {
                        if let Some(g) = &guard {
                            g.deposit();
                        }
                        *lock(params_out) = Some(fr.packed_params());
                    }
                    Ok(())
                }));
                match body {
                    Ok(result) => result,
                    Err(payload) => {
                        count("fault.rank_panic");
                        peers.poison_all();
                        Err(fail(
                            current_step.load(Ordering::Relaxed),
                            format!("rank thread panicked: {}", panic_message(&*payload)),
                        ))
                    }
                }
            };
            let handle = s.spawn(move || rank_pool(world).install(rank_body));
            handles.push(handle);
        }
        for (rank, handle) in handles.into_iter().enumerate() {
            match handle.join() {
                Ok(Ok(())) => {}
                Ok(Err(f)) => lock(&failures).push(f),
                // a panic that escaped the unwind boundary (should not
                // happen; the boundary covers the whole body)
                Err(payload) => lock(&failures).push(RankFailure {
                    rank,
                    step: start_step,
                    cause: format!("rank thread aborted: {}", panic_message(&*payload)),
                }),
            }
        }
    });

    let fails = failures.into_inner().unwrap_or_else(PoisonError::into_inner);
    if !fails.is_empty() {
        return Err(fails);
    }

    let per_rank: Vec<Vec<f32>> = losses.iter().map(|m| lock(m).clone()).collect();
    // with a resume the rank-local series covers start_step..steps and the
    // earlier world means come from the checkpoint prefix
    let local_steps = steps - loss_prefix.len();
    if per_rank.iter().any(|l| l.len() != local_steps) {
        return Err(vec![RankFailure {
            rank: 0,
            step: steps,
            cause: "incomplete loss series despite clean exit".into(),
        }]);
    }
    let mut mean_losses = loss_prefix;
    mean_losses.extend(
        (0..local_steps).map(|s| per_rank.iter().map(|l| l[s]).sum::<f32>() / world as f32),
    );

    let final_params = match lock(&params_out).take() {
        Some(p) => p,
        None => {
            return Err(vec![RankFailure {
                rank: 0,
                step: steps,
                cause: "rank 0 finished without publishing parameters".into(),
            }])
        }
    };
    Ok(DistReport {
        final_params,
        mean_losses,
        traffic: traffic.snapshot(),
        restarts: 0,
        degraded: None,
        guard: None,
        reshard: ReshardReport::default(),
        data: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::ShardingStrategy;
    use geofm_tensor::{Tensor, TensorRng};
    use geofm_vit::{VitConfig, VitModel};

    fn tiny_vit() -> VitConfig {
        VitConfig {
            name: "dist".into(),
            width: 16,
            depth: 2,
            mlp: 32,
            heads: 4,
            patch: 4,
            img: 8,
            channels: 1,
        }
    }

    /// Deterministic global batch for a step: images + regression targets.
    fn batch(cfg: &VitConfig, step: usize, global: usize) -> (Tensor, Tensor) {
        let mut rng = TensorRng::seed_from(5000 + step as u64);
        let imgs = rng.randn(&[global, cfg.channels * cfg.img * cfg.img], 1.0);
        let tgt = rng.randn(&[global, cfg.tokens(), cfg.width], 0.5);
        (imgs, tgt)
    }

    fn vit_compute(cfg: &VitConfig, m: &mut VitModel, rank: usize, step: usize, world: usize) -> f32 {
        let global = 8;
        let per = global / world;
        let (imgs, tgt) = batch(cfg, step, global);
        let xl = imgs.rows(rank * per, (rank + 1) * per);
        // local target slab
        let tw = cfg.tokens() * cfg.width;
        let tl = Tensor::from_vec(
            &[per, cfg.tokens(), cfg.width],
            tgt.data()[rank * per * tw..(rank + 1) * per * tw].to_vec(),
        );
        m.zero_grad();
        let enc = m.forward(&xl);
        let diff = enc.sub(&tl);
        let n = diff.numel() as f32;
        let loss = diff.sum_sq() / n;
        m.backward(&diff.scale(2.0 / n));
        loss
    }

    fn run(strategy: ShardingStrategy, world: usize) -> DistReport {
        let cfg = tiny_vit();
        run_data_parallel(
            FsdpConfig::tuned(strategy),
            world,
            0.01,
            4,
            |_rank| {
                let mut rng = TensorRng::seed_from(99);
                let cfg = tiny_vit();
                let mut model = VitModel::new(&cfg, &mut rng);
                let units = model.unit_param_counts();
                (model, units)
            },
            |m, rank, step| vit_compute(&cfg, m, rank, step, world),
            |_step| 1e-3,
        )
    }

    fn run_resilient(
        strategy: ShardingStrategy,
        world: usize,
        steps: usize,
        resilience: ResilienceConfig,
    ) -> Result<DistReport, FailureReport> {
        let cfg = tiny_vit();
        try_run_data_parallel(
            FsdpConfig::tuned(strategy),
            world,
            0.01,
            steps,
            |_rank| {
                let mut rng = TensorRng::seed_from(99);
                let cfg = tiny_vit();
                let mut model = VitModel::new(&cfg, &mut rng);
                let units = model.unit_param_counts();
                (model, units)
            },
            |m, rank, step| vit_compute(&cfg, m, rank, step, world),
            |_step| 1e-3,
            None,
            resilience,
        )
    }

    fn ckpt_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("geofm-trainer-{tag}-{}", std::process::id()))
    }

    #[test]
    fn vit_training_is_strategy_invariant() {
        let baseline = run(ShardingStrategy::NoShard, 1);
        for strategy in [
            ShardingStrategy::FullShard,
            ShardingStrategy::ShardGradOp,
            ShardingStrategy::Hybrid { shard_size: 2 },
            ShardingStrategy::ddp_default(),
        ] {
            let result = run(strategy, 4);
            let max_diff = baseline
                .final_params
                .iter()
                .zip(&result.final_params)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max);
            assert!(
                max_diff < 5e-4,
                "{}: max param diff vs single rank = {}",
                strategy.name(),
                max_diff
            );
            // step-0 losses must agree exactly in expectation (same global batch)
            assert!((result.mean_losses[0] - baseline.mean_losses[0]).abs() < 1e-3);
        }
    }

    #[test]
    fn losses_decrease_during_training() {
        // Each step draws a fresh random batch, so single-step losses are
        // noisy; train long enough that the trend dominates the noise and
        // compare first-half vs second-half means.
        let cfg = tiny_vit();
        let world = 2;
        let report = run_data_parallel(
            FsdpConfig::tuned(ShardingStrategy::FullShard),
            world,
            0.01,
            12,
            |_rank| {
                let mut rng = TensorRng::seed_from(99);
                let cfg = tiny_vit();
                let mut model = VitModel::new(&cfg, &mut rng);
                let units = model.unit_param_counts();
                (model, units)
            },
            |m, rank, step| vit_compute(&cfg, m, rank, step, world),
            |_step| 1e-3,
        );
        let losses = &report.mean_losses;
        let half = losses.len() / 2;
        let mean = |s: &[f32]| s.iter().sum::<f32>() / s.len() as f32;
        assert!(
            mean(&losses[half..]) < mean(&losses[..half]),
            "losses did not trend down: {losses:?}"
        );
    }

    #[test]
    fn traffic_grows_with_world_size() {
        let t2 = run(ShardingStrategy::NoShard, 2).traffic;
        let t4 = run(ShardingStrategy::NoShard, 4).traffic;
        assert!(t4.total() > t2.total());
    }

    #[test]
    fn injected_crash_without_restart_budget_reports_failure() {
        let resilience = ResilienceConfig {
            fault_plan: Arc::new(FaultPlan::none().with_rank_crash(1, 2)),
            collective_timeout: Some(Duration::from_secs(5)),
            ..ResilienceConfig::disabled()
        };
        let start = std::time::Instant::now();
        let err = run_resilient(ShardingStrategy::FullShard, 4, 4, resilience)
            .expect_err("crash without restarts must fail");
        assert_eq!(err.restarts_used, 0);
        assert!(
            err.failures.iter().any(|f| f.rank == 1 && f.step == 2),
            "report must contain the root cause: {err}"
        );
        // every survivor must have aborted, not deadlocked
        assert!(start.elapsed() < Duration::from_secs(30));
    }

    #[test]
    fn crash_recovery_from_checkpoint_is_bit_identical() {
        let steps = 6;

        let clean = run_resilient(
            ShardingStrategy::FullShard,
            2,
            steps,
            ResilienceConfig::disabled(),
        )
        .expect("clean run");

        let resilience = ResilienceConfig {
            fault_plan: Arc::new(FaultPlan::none().with_rank_crash(1, 4)),
            checkpoint_every: 2,
            collective_timeout: Some(Duration::from_secs(5)),
            max_restarts: 1,
            ..ResilienceConfig::disabled()
        };
        let recovered = run_resilient(ShardingStrategy::FullShard, 2, steps, resilience)
            .expect("run must recover via restart");
        assert_eq!(recovered.restarts, 1);
        assert_eq!(
            clean.final_params, recovered.final_params,
            "recovered run must be bit-identical to the uninterrupted run"
        );
        assert_eq!(clean.mean_losses, recovered.mean_losses);
    }

    #[test]
    fn torn_checkpoint_write_leaves_previous_durable() {
        let dir = ckpt_dir("torn");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("latest.ck3");
        // checkpoint after steps 2 and 4; the step-4 write is torn mid-buffer
        // (and the writer dies), so recovery resumes from step 2
        let torn = || FaultPlan::none().with_checkpoint_crash(3);
        let config = |plan: FaultPlan, max_restarts, on_disk: bool| ResilienceConfig {
            fault_plan: Arc::new(plan),
            checkpoint_every: 2,
            collective_timeout: Some(Duration::from_secs(5)),
            max_restarts,
            elastic: on_disk.then(|| ElasticConfig {
                checkpoint_path: Some(path.clone()),
                ..ElasticConfig::default()
            }),
            ..ResilienceConfig::disabled()
        };
        let run = |r| run_resilient(ShardingStrategy::ShardGradOp, 2, 6, r);
        let clean = run(ResilienceConfig::disabled()).expect("clean run");
        let recovered = run(config(torn(), 1, false)).expect("must recover from the step-2 image");
        assert_eq!(recovered.restarts, 1);
        assert_eq!(clean.final_params, recovered.final_params);

        // on disk with no restart budget: the step-2 image stays durable and
        // the torn `.tmp` sibling never parses
        let err = run(config(torn(), 0, true)).expect_err("the writer crash fails the run");
        let cause = "injected checkpoint-writer crash";
        assert!(err.failures.iter().any(|f| f.cause == cause), "{err}");
        assert_eq!(ElasticCheckpoint::load(&path).expect("previous image survives").step, 2);
        let tmp = std::fs::read(path.with_extension("tmp")).expect("torn sibling exists");
        assert!(ElasticCheckpoint::from_bytes(&tmp).is_err(), "a torn image must not parse");
        // a cold restart from the same path finishes as if nothing happened
        let resumed = run(config(FaultPlan::none(), 0, true)).expect("cold restart from disk");
        assert_eq!(bits(&clean.final_params), bits(&resumed.final_params));
        assert_eq!(bits(&clean.mean_losses), bits(&resumed.mean_losses));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn straggler_delays_but_does_not_change_results() {
        let resilience = ResilienceConfig {
            fault_plan: Arc::new(
                FaultPlan::none().with_slow_rank(1, 1, Duration::from_millis(30)),
            ),
            ..ResilienceConfig::disabled()
        };
        let clean =
            run_resilient(ShardingStrategy::FullShard, 2, 3, ResilienceConfig::disabled())
                .expect("clean");
        let slowed = run_resilient(ShardingStrategy::FullShard, 2, 3, resilience)
            .expect("straggler must not fail the run");
        assert_eq!(slowed.restarts, 0);
        assert_eq!(clean.final_params, slowed.final_params);
    }

    #[test]
    fn hung_rank_is_detected_by_adaptive_timeout_and_recovered_elastically() {
        let steps = 6;

        let clean = run_resilient(
            ShardingStrategy::FullShard,
            2,
            steps,
            ResilienceConfig::disabled(),
        )
        .expect("clean run");

        // Rank 1 hangs at step 3 (after the step-2 checkpoint). The static
        // timeout is a generous 30 s; detection must come from the adaptive
        // bound, so the whole test finishing quickly proves the EWMA path.
        let resilience = ResilienceConfig {
            fault_plan: Arc::new(FaultPlan::none().with_hang_rank(1, 3)),
            checkpoint_every: 2,
            collective_timeout: Some(Duration::from_secs(30)),
            max_restarts: 1,
            adaptive_timeout: Some(geofm_collectives::AdaptiveTimeoutConfig {
                floor: Duration::from_millis(100),
                multiplier: 16.0,
                warmup: 8,
            }),
            ..ResilienceConfig::disabled()
        };
        let start = std::time::Instant::now();
        let recovered = run_resilient(ShardingStrategy::FullShard, 2, steps, resilience)
            .expect("world must recover from the hang via elastic restart");
        assert_eq!(recovered.restarts, 1, "exactly one restart");
        assert_eq!(
            clean.final_params, recovered.final_params,
            "post-hang recovery must be bit-identical to the uninterrupted run"
        );
        assert_eq!(clean.mean_losses, recovered.mean_losses);
        assert!(
            start.elapsed() < Duration::from_secs(20),
            "adaptive timeout must detect the hang well before the 30 s static bound \
             (took {:?})",
            start.elapsed()
        );
    }

    #[test]
    fn degraded_rank_is_reported_but_run_stays_bit_identical() {
        let clean =
            run_resilient(ShardingStrategy::FullShard, 2, 6, ResilienceConfig::disabled())
                .expect("clean");
        assert!(clean.degraded.is_none(), "healthy run must not report degradation");

        let resilience = ResilienceConfig {
            // rank 1's compute runs 8× slower from step 1 onward
            fault_plan: Arc::new(FaultPlan::none().with_degraded_rank(1, 1, 8.0)),
            ..ResilienceConfig::disabled()
        };
        let degraded = run_resilient(ShardingStrategy::FullShard, 2, 6, resilience)
            .expect("a degraded world completes — slowly");
        assert_eq!(degraded.restarts, 0, "degradation must not trigger restarts");
        assert_eq!(
            clean.final_params, degraded.final_params,
            "slow hardware must not change the math"
        );
        let report = degraded.degraded.expect("health monitor must flag the degraded rank");
        assert_eq!(report.stragglers[0].rank, 1, "{report}");
        assert!(report.stragglers[0].slowdown > 2.5, "{report}");
        assert!(report.goodput_lost > 0.3, "{report}");
    }

    #[test]
    fn degraded_link_slows_collectives_but_preserves_results() {
        let clean =
            run_resilient(ShardingStrategy::ShardGradOp, 2, 4, ResilienceConfig::disabled())
                .expect("clean");
        let resilience = ResilienceConfig {
            fault_plan: Arc::new(FaultPlan::none().with_degraded_link(0, 1, 4.0)),
            ..ResilienceConfig::disabled()
        };
        let degraded = run_resilient(ShardingStrategy::ShardGradOp, 2, 4, resilience)
            .expect("a degraded link completes");
        assert_eq!(clean.final_params, degraded.final_params);
        assert_eq!(clean.mean_losses, degraded.mean_losses);
    }

    /// f32 equality that treats the canonical NaN skip placeholder as equal
    /// to itself (NaN != NaN under IEEE compare).
    fn bitwise_eq(a: &[f32], b: &[f32]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    #[test]
    fn guarded_run_without_faults_is_bit_identical_to_unguarded() {
        let clean = run_resilient(ShardingStrategy::FullShard, 2, 6, ResilienceConfig::disabled())
            .expect("clean");
        assert!(clean.guard.is_none(), "guard off must not report");

        let guarded = run_resilient(
            ShardingStrategy::FullShard,
            2,
            6,
            ResilienceConfig {
                guard: Some(GuardConfig::default()),
                ..ResilienceConfig::disabled()
            },
        )
        .expect("guarded clean run");
        let gr = guarded.guard.expect("guard on must always report");
        assert_eq!(gr.trips, 0, "{gr}");
        assert_eq!(gr.rollbacks, 0);
        // checksums + guard exchange + snapshots must not change the math
        assert_eq!(clean.final_params, guarded.final_params);
        assert_eq!(clean.mean_losses, guarded.mean_losses);
    }

    #[test]
    fn bitflip_is_detected_rolled_back_and_bit_identical_to_clean_skip() {
        // comparator: a clean guarded run told to skip step 3 outright
        let comparator = run_resilient(
            ShardingStrategy::Hybrid { shard_size: 2 },
            4,
            6,
            ResilienceConfig {
                guard: Some(GuardConfig {
                    skip_steps: BTreeSet::from([3]),
                    ..GuardConfig::default()
                }),
                ..ResilienceConfig::disabled()
            },
        )
        .expect("comparator run");

        // faulted: rank 2 flips a gradient bit in its step-3 reduce
        let faulted = run_resilient(
            ShardingStrategy::Hybrid { shard_size: 2 },
            4,
            6,
            ResilienceConfig {
                fault_plan: Arc::new(FaultPlan::none().with_bitflip_grad(2, 3, 17)),
                guard: Some(GuardConfig::default()),
                ..ResilienceConfig::disabled()
            },
        )
        .expect("guard must recover from the bit flip without a restart");
        assert_eq!(faulted.restarts, 0, "SDC recovery must not burn a restart");
        let gr = faulted.guard.expect("guard report");
        assert_eq!(gr.trips, 1, "{gr}");
        assert_eq!(gr.checksum_trips, 1, "{gr}");
        assert_eq!(gr.sentinel_trips, 0, "{gr}");
        assert_eq!(gr.rollbacks, 1, "{gr}");
        assert_eq!(gr.skipped_steps, vec![3], "{gr}");
        assert_eq!(
            comparator.final_params, faulted.final_params,
            "rollback-and-skip must be bit-identical to a clean run with the same skips"
        );
        assert!(bitwise_eq(&comparator.mean_losses, &faulted.mean_losses));
        assert!(faulted.mean_losses[3].is_nan(), "the skipped step holds the NaN placeholder");
    }

    #[test]
    fn poisoned_loss_trips_the_sentinel_and_recovers() {
        let comparator = run_resilient(
            ShardingStrategy::FullShard,
            2,
            5,
            ResilienceConfig {
                guard: Some(GuardConfig {
                    skip_steps: BTreeSet::from([2]),
                    ..GuardConfig::default()
                }),
                ..ResilienceConfig::disabled()
            },
        )
        .expect("comparator run");

        let faulted = run_resilient(
            ShardingStrategy::FullShard,
            2,
            5,
            ResilienceConfig {
                fault_plan: Arc::new(FaultPlan::none().with_poison_loss(1, 2)),
                guard: Some(GuardConfig::default()),
                ..ResilienceConfig::disabled()
            },
        )
        .expect("guard must recover from the poisoned loss");
        let gr = faulted.guard.expect("guard report");
        assert_eq!(gr.sentinel_trips, 1, "NaN loss is the sentinel's job: {gr}");
        assert_eq!(gr.checksum_trips, 0, "{gr}");
        assert_eq!(gr.skipped_steps, vec![2], "{gr}");
        assert_eq!(comparator.final_params, faulted.final_params);
        assert!(bitwise_eq(&comparator.mean_losses, &faulted.mean_losses));
    }

    #[test]
    fn unguarded_bitflip_corrupts_silently() {
        // the negative control: without the guard the same fault completes
        // "successfully" — and produces different weights. This is exactly
        // the failure mode the checksum layer exists to catch.
        let clean = run_resilient(ShardingStrategy::FullShard, 2, 4, ResilienceConfig::disabled())
            .expect("clean");
        let corrupted = run_resilient(
            ShardingStrategy::FullShard,
            2,
            4,
            ResilienceConfig {
                fault_plan: Arc::new(FaultPlan::none().with_bitflip_grad(1, 1, 24)),
                ..ResilienceConfig::disabled()
            },
        )
        .expect("unguarded corruption sails through");
        assert!(corrupted.guard.is_none());
        assert_ne!(
            clean.final_params, corrupted.final_params,
            "a high exponent-bit flip must actually perturb the weights"
        );
    }

    #[test]
    fn rollback_budget_exhaustion_fails_with_guard_report() {
        // poison the loss on every early step: each recovery re-trips until
        // the budget runs out, and the failure carries the guard report
        let mut plan = FaultPlan::none();
        for step in 0..3 {
            plan = plan.with_poison_loss(0, step);
        }
        let err = run_resilient(
            ShardingStrategy::FullShard,
            2,
            6,
            ResilienceConfig {
                fault_plan: Arc::new(plan),
                guard: Some(GuardConfig { max_rollbacks: 2, ..GuardConfig::default() }),
                collective_timeout: Some(Duration::from_secs(5)),
                ..ResilienceConfig::disabled()
            },
        )
        .expect_err("three poisons against a budget of two must fail");
        let gr = err.guard.as_ref().expect("failure must carry the guard report");
        assert_eq!(gr.rollbacks, 2, "{gr}");
        assert_eq!(gr.trips, 3, "{gr}");
        assert!(
            err.failures.iter().any(|f| f.cause.contains("rollback budget exhausted")),
            "{err}"
        );
    }

    #[test]
    fn compute_panic_is_captured_as_rank_failure() {
        let cfg = tiny_vit();
        let world = 2;
        let err = try_run_data_parallel(
            FsdpConfig::tuned(ShardingStrategy::FullShard),
            world,
            0.01,
            3,
            |_rank| {
                let mut rng = TensorRng::seed_from(99);
                let cfg = tiny_vit();
                let mut model = VitModel::new(&cfg, &mut rng);
                let units = model.unit_param_counts();
                (model, units)
            },
            |m, rank, step| {
                if rank == 1 && step == 1 {
                    panic!("simulated OOM on rank 1");
                }
                vit_compute(&cfg, m, rank, step, world)
            },
            |_step| 1e-3,
            None,
            ResilienceConfig {
                collective_timeout: Some(Duration::from_secs(5)),
                ..ResilienceConfig::disabled()
            },
        )
        .expect_err("panicking compute must surface as a failure report");
        assert!(
            err.failures.iter().any(|f| f.cause.contains("simulated OOM")),
            "panic message must be preserved: {err}"
        );
    }

    // ---- elastic resharding ----

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// World-aware compute for the elastic harness: global batch 12 divides
    /// every world size the shrink/grow schedules visit (1..=4).
    fn vit_compute_elastic(
        cfg: &VitConfig,
        m: &mut VitModel,
        rank: usize,
        world: usize,
        step: usize,
    ) -> f32 {
        let global = 12;
        let per = global / world;
        let (imgs, tgt) = batch(cfg, step, global);
        let xl = imgs.rows(rank * per, (rank + 1) * per);
        let tw = cfg.tokens() * cfg.width;
        let tl = Tensor::from_vec(
            &[per, cfg.tokens(), cfg.width],
            tgt.data()[rank * per * tw..(rank + 1) * per * tw].to_vec(),
        );
        m.zero_grad();
        let enc = m.forward(&xl);
        let diff = enc.sub(&tl);
        let n = diff.numel() as f32;
        let loss = diff.sum_sq() / n;
        m.backward(&diff.scale(2.0 / n));
        loss
    }

    fn run_elastic(
        strategy: ShardingStrategy,
        world: usize,
        steps: usize,
        resilience: ResilienceConfig,
    ) -> Result<DistReport, FailureReport> {
        let cfg = tiny_vit();
        try_run_elastic(
            FsdpConfig::tuned(strategy),
            world,
            0.01,
            steps,
            |_rank| {
                let mut rng = TensorRng::seed_from(99);
                let cfg = tiny_vit();
                let mut model = VitModel::new(&cfg, &mut rng);
                let units = model.unit_param_counts();
                (model, units)
            },
            |m, rank, world, step| vit_compute_elastic(&cfg, m, rank, world, step),
            |_step| 1e-3,
            None,
            resilience,
        )
    }

    /// The acceptance invariant: a reference run launched at `world` from
    /// the event's recorded checkpoint (via the durable GEOFMCK3 path) —
    /// with the event's remapped strategy and no faults.
    fn reference_from_event(ev: &ReshardEvent, steps: usize, tag: &str) -> DistReport {
        let dir = ckpt_dir(tag);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("elastic.ck3");
        ev.ckpt.save(&path).expect("event checkpoint must serialise");
        let report = run_elastic(
            ev.strategy,
            ev.to_world,
            steps,
            ResilienceConfig {
                collective_timeout: Some(Duration::from_secs(5)),
                elastic: Some(ElasticConfig {
                    checkpoint_path: Some(path),
                    ..ElasticConfig::default()
                }),
                ..ResilienceConfig::disabled()
            },
        )
        .expect("reference run must succeed");
        let _ = std::fs::remove_dir_all(&dir);
        report
    }

    #[test]
    fn shrink_continues_bit_identical_to_fresh_run_at_smaller_world() {
        let dir = ckpt_dir("elastic-shrink");
        let _ = std::fs::remove_dir_all(&dir);
        let resilience = ResilienceConfig {
            fault_plan: Arc::new(FaultPlan::none().with_rank_leave(2, 3)),
            checkpoint_every: 2,
            collective_timeout: Some(Duration::from_secs(5)),
            max_restarts: 2,
            elastic: Some(ElasticConfig {
                checkpoint_path: Some(dir.join("elastic.ck3")),
                ..ElasticConfig::default()
            }),
            ..ResilienceConfig::disabled()
        };
        let report = run_elastic(ShardingStrategy::FullShard, 3, 6, resilience)
            .expect("losing a rank permanently must shrink and continue");
        assert_eq!(report.reshard.events.len(), 1, "exactly one transition");
        let ev = &report.reshard.events[0];
        assert_eq!(ev.kind, ReshardKind::Shrink);
        assert_eq!((ev.from_world, ev.to_world), (3, 2));
        assert_eq!(ev.departed, vec![2]);
        assert_eq!(ev.step, 2, "the leave at step 3 resumes from the step-2 snapshot");
        assert_eq!(report.mean_losses.len(), 6);

        let reference = reference_from_event(ev, 6, "elastic-shrink-ref");
        assert_eq!(
            bits(&report.final_params),
            bits(&reference.final_params),
            "post-shrink training must be bit-identical to a fresh run at \
             the smaller world from the same resharded state"
        );
        assert_eq!(bits(&report.mean_losses), bits(&reference.mean_losses));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hybrid_shard_group_remaps_on_shrink() {
        // HYBRID(2) at world 4 loses a rank: 2 no longer divides 3, so the
        // shrink remaps to HYBRID(1) — and stays bit-identical.
        let resilience = ResilienceConfig {
            fault_plan: Arc::new(FaultPlan::none().with_rank_leave(3, 3)),
            checkpoint_every: 2,
            collective_timeout: Some(Duration::from_secs(5)),
            max_restarts: 2,
            elastic: Some(ElasticConfig::default()),
            ..ResilienceConfig::disabled()
        };
        let report = run_elastic(ShardingStrategy::Hybrid { shard_size: 2 }, 4, 6, resilience)
            .expect("hybrid shrink must remap the shard group and continue");
        let ev = &report.reshard.events[0];
        assert_eq!((ev.from_world, ev.to_world), (4, 3));
        assert_eq!(ev.strategy, ShardingStrategy::Hybrid { shard_size: 1 });

        let reference = reference_from_event(ev, 6, "elastic-hybrid-ref");
        assert_eq!(bits(&report.final_params), bits(&reference.final_params));
    }

    #[test]
    fn spare_rejoin_grows_the_world_back() {
        let resilience = ResilienceConfig {
            fault_plan: Arc::new(
                FaultPlan::none().with_rank_leave(1, 2).with_spare_rejoin(4),
            ),
            checkpoint_every: 1,
            collective_timeout: Some(Duration::from_secs(5)),
            max_restarts: 2,
            elastic: Some(ElasticConfig::default()),
            ..ResilienceConfig::disabled()
        };
        let report = run_elastic(ShardingStrategy::FullShard, 3, 6, resilience)
            .expect("shrink then grow must complete");
        assert_eq!(report.reshard.shrinks(), 1);
        assert_eq!(report.reshard.grows(), 1);
        let shrink = &report.reshard.events[0];
        let grow = &report.reshard.events[1];
        assert_eq!((shrink.from_world, shrink.to_world), (3, 2));
        assert_eq!((grow.from_world, grow.to_world), (2, 3));
        assert!(grow.step >= shrink.step, "the world only moves forward");
        assert_eq!(report.mean_losses.len(), 6);

        // the re-grown world is bit-identical to a fresh world-3 run from
        // the grow event's snapshot
        let reference = reference_from_event(grow, 6, "elastic-grow-ref");
        assert_eq!(bits(&report.final_params), bits(&reference.final_params));
        assert_eq!(bits(&report.mean_losses), bits(&reference.mean_losses));
    }

    #[test]
    fn leave_before_any_snapshot_reshards_from_scratch() {
        // no checkpoint cadence → no snapshot exists when rank 0 leaves;
        // the shrunken world restarts from step 0 (event records an empty
        // checkpoint) and matches a fresh small-world run exactly.
        let resilience = ResilienceConfig {
            fault_plan: Arc::new(FaultPlan::none().with_rank_leave(0, 1)),
            collective_timeout: Some(Duration::from_secs(5)),
            max_restarts: 1,
            elastic: Some(ElasticConfig::default()),
            ..ResilienceConfig::disabled()
        };
        let report = run_elastic(ShardingStrategy::ShardGradOp, 3, 4, resilience)
            .expect("shrink without a snapshot restarts from scratch");
        let ev = &report.reshard.events[0];
        assert_eq!(ev.step, 0);
        assert!(ev.ckpt.unit_sizes.is_empty(), "no snapshot existed");

        let fresh = run_elastic(
            ShardingStrategy::ShardGradOp,
            2,
            4,
            ResilienceConfig {
                collective_timeout: Some(Duration::from_secs(5)),
                ..ResilienceConfig::disabled()
            },
        )
        .expect("fresh small-world run");
        assert_eq!(bits(&report.final_params), bits(&fresh.final_params));
    }

    #[test]
    fn shrink_below_min_world_is_a_structured_failure() {
        let resilience = ResilienceConfig {
            fault_plan: Arc::new(FaultPlan::none().with_rank_leave(1, 1)),
            checkpoint_every: 1,
            collective_timeout: Some(Duration::from_secs(5)),
            max_restarts: 3,
            elastic: Some(ElasticConfig { min_world: 2, ..ElasticConfig::default() }),
            ..ResilienceConfig::disabled()
        };
        let err = run_elastic(ShardingStrategy::FullShard, 2, 4, resilience)
            .expect_err("shrinking 2 -> 1 under min_world 2 must fail");
        assert!(
            err.failures.iter().any(|f| f.cause.contains("below min_world")),
            "failure must name the limit: {err}"
        );
        assert!(!err.reshards.is_empty() || err.failures.iter().any(|f| f.cause == CAUSE_LEAVE));
    }

    #[test]
    fn leave_without_elastic_config_restarts_at_full_world() {
        // elastic off: a departure is just a crash — the world restarts at
        // the same size and (the leave being one-shot) runs through.
        let resilience = ResilienceConfig {
            fault_plan: Arc::new(FaultPlan::none().with_rank_leave(1, 2)),
            checkpoint_every: 2,
            collective_timeout: Some(Duration::from_secs(5)),
            max_restarts: 1,
            ..ResilienceConfig::disabled()
        };
        let report = run_resilient(ShardingStrategy::FullShard, 4, 4, resilience)
            .expect("one-shot leave with restart budget must recover");
        assert_eq!(report.restarts, 1);
        assert!(report.reshard.events.is_empty(), "no elastic config, no reshard");
    }
}
