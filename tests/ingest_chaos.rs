//! Ingest chaos harness: 120 seeded I/O fault schedules against the
//! streaming ingest plane + resilient trainer, each holding ONE
//! invariant — the data-layer twin of `tests/chaos.rs`:
//!
//! > training never hangs, never consumes a corrupt record silently,
//! > and a completed degraded run is **bit-identical** to a clean run
//! > over the same surviving record set (quarantine supplied up front).
//!
//! Each seed samples per-record corruption / transient flakes / stalled
//! reads and per-shard loss / truncation / slowness via
//! `FaultPlan::seeded_with_io` (deterministic per seed — a failing seed
//! replays exactly) and drives `try_run_streaming` over a
//! fault-injectable [`SimShardStore`]. The defenses must hold:
//!
//! * transient faults (flaky reads, stalls, slow shards) heal in place —
//!   retries and hedges, **zero** quarantines;
//! * persistent faults (rot, missing/truncated shards) quarantine
//!   exactly the planned records, never more;
//! * a rank whose whole slice is quarantined surfaces a structured
//!   [`RankFailure`] — not a hang;
//! * with defenses off, planted rot *does* reach training (the negative
//!   control proving the harness can see silent escapes).
//!
//! CI runs this suite under a hard timeout with `GEOFM_CHAOS_SEED`
//! pinned, alongside the rank-fault chaos suite.

use geofm_data::stream::{DefenseConfig, StreamConfig};
use geofm_data::store::SimShardStore;
use geofm_data::{Batch, DatasetKind, IngestPlane};
use geofm_fsdp::{try_run_streaming, DistReport, FsdpConfig, ResilienceConfig, ShardingStrategy};
use geofm_nn::{Linear, Module, ParamVisitor};
use geofm_resilience::{FailureReport, FaultMix, FaultPlan, RecordId};
use geofm_tensor::{Tensor, TensorRng};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SHARDS: usize = 6;
const PER_SHARD: usize = 24;
const IMG: usize = 2;
const CHANNELS: usize = 1;
const RECORD_LEN: usize = CHANNELS * IMG * IMG; // 4 features
const GLOBAL_BATCH: usize = 12;
const WORLD: usize = 2;
const STEPS: usize = 6;
const DATA_SEED: u64 = 7;
const SHUFFLE_SEED: u64 = 21;

struct Toy {
    a: Linear,
}

impl Module for Toy {
    fn visit_params(&mut self, f: &mut ParamVisitor) {
        self.a.visit_params(f);
    }
}

impl Toy {
    fn new(seed: u64) -> (Self, Vec<usize>) {
        let mut rng = TensorRng::seed_from(seed);
        let mut a = Linear::new(RECORD_LEN, 2, &mut rng, "a");
        let units = vec![a.num_params()];
        (Self { a }, units)
    }

    /// Regress the record features onto a two-hot target derived from the
    /// label — every surviving row influences the gradients, so one
    /// silently corrupted record changes the final parameters.
    fn compute(&mut self, batch: &Batch) -> f32 {
        self.zero_grad();
        let rows = batch.labels.len();
        let mut y = Tensor::zeros(&[rows, 2]);
        for (i, &label) in batch.labels.iter().enumerate() {
            y.data_mut()[i * 2 + label % 2] = 1.0;
        }
        let out = self.a.forward(&batch.images);
        let diff = out.sub(&y);
        let n = diff.numel() as f32;
        let loss = diff.sum_sq() / n;
        let dy = diff.scale(2.0 / n);
        let _ = self.a.backward(&dy);
        loss
    }
}

fn seed_base() -> u64 {
    std::env::var("GEOFM_CHAOS_SEED").ok().and_then(|v| v.parse().ok()).unwrap_or(0)
}

fn store(plan: Arc<FaultPlan>) -> Arc<SimShardStore> {
    Arc::new(SimShardStore::generate(
        DatasetKind::Ucm,
        SHARDS,
        PER_SHARD,
        IMG,
        CHANNELS,
        DATA_SEED,
        plan,
    ))
}

fn stream_cfg(quarantine: BTreeSet<RecordId>, defense: DefenseConfig) -> StreamConfig {
    let mut cfg = StreamConfig::new(GLOBAL_BATCH, SHUFFLE_SEED);
    // keep hedges snappy under injected stalls so 120 schedules stay fast
    cfg.defense = DefenseConfig { timeout_floor: Duration::from_millis(5), ..defense };
    cfg.quarantine = quarantine;
    cfg
}

fn run(plane: Arc<IngestPlane>) -> Result<DistReport, FailureReport> {
    try_run_streaming(
        FsdpConfig::tuned(ShardingStrategy::FullShard),
        WORLD,
        0.01,
        STEPS,
        |_| Toy::new(11),
        plane,
        |m, batch, _rank, _world, _step| m.compute(batch),
        |_| 0.01,
        None,
        ResilienceConfig::disabled(),
    )
}

fn bits(report: &DistReport) -> (Vec<u32>, Vec<u32>) {
    (
        report.final_params.iter().map(|v| v.to_bits()).collect(),
        report.mean_losses.iter().map(|v| v.to_bits()).collect(),
    )
}

/// Run one seeded I/O schedule and assert the ingest chaos invariant.
fn ingest_schedule(seed: u64) {
    let mix = FaultMix {
        // per-record faults: rot, transient flakes, stalls
        io_corrupt_prob: 0.01,
        io_flaky_prob: 0.02,
        io_stall_prob: 0.004,
        io_stall_ms: (10, 25),
        // per-shard faults: loss, truncation, slowness
        io_missing_prob: 0.03,
        io_truncate_prob: 0.03,
        io_slow_prob: 0.05,
        io_slow_ms: (1, 3),
        ..FaultMix::crashes_only(0.0)
    };
    let plan =
        Arc::new(FaultPlan::seeded_with_io(seed, WORLD, STEPS, SHARDS, PER_SHARD, &mix));
    let plane = Arc::new(IngestPlane::new(
        store(Arc::clone(&plan)),
        stream_cfg(BTreeSet::new(), DefenseConfig::default()),
    ));

    let started = Instant::now();
    let outcome = run(Arc::clone(&plane));
    let elapsed = started.elapsed();

    // never hang: stalls are hedged past, structural faults fail fast
    assert!(
        elapsed < Duration::from_secs(30),
        "seed {seed}: schedule took {elapsed:?} — ingest hang regression (plan: {:?})",
        plan.events()
    );

    let data = match &outcome {
        Ok(report) => report.data.clone().expect("streaming run must carry a DataReport"),
        Err(report) => {
            // a failed schedule must explain itself, and still account
            // for its ingest activity
            assert!(!report.failures.is_empty(), "seed {seed}: failure report with no failures");
            *report.data.clone().expect("failed streaming run must carry a DataReport")
        }
    };

    // quarantine soundness: only records a *persistent* planned fault
    // covers may be condemned — transient flakes and stalls must heal
    for id in &data.quarantined {
        let planned = plan.io_corrupt(id.shard, id.record)
            || plan.io_missing(id.shard)
            || plan.io_truncated(id.shard).is_some();
        assert!(
            planned,
            "seed {seed}: record {id} quarantined without a persistent planned fault \
             (plan: {:?})",
            plan.events()
        );
    }
    for &shard in &data.quarantined_shards {
        assert!(
            plan.io_missing(shard) || plan.io_truncated(shard).is_some(),
            "seed {seed}: shard {shard} condemned without a shard-fatal planned fault"
        );
    }

    let Ok(report) = outcome else {
        return; // structured failure is an allowed outcome
    };

    // the degradation contract: bit-identical to a clean run over the
    // same surviving record set, quarantine supplied up front
    let quarantine: BTreeSet<RecordId> = data.quarantined.iter().copied().collect();
    let clean_plane = Arc::new(IngestPlane::new(
        store(Arc::new(FaultPlan::none())),
        stream_cfg(quarantine, DefenseConfig::default()),
    ));
    let clean = run(clean_plane).expect("clean comparator must succeed");
    assert_eq!(
        bits(&report),
        bits(&clean),
        "seed {seed}: degraded run diverged from clean run over the surviving records \
         (quarantined: {:?}, plan: {:?})",
        data.quarantined,
        plan.events()
    );
}

fn ingest_range(lo: u64, hi: u64) {
    let base = seed_base();
    for seed in lo..hi {
        ingest_schedule(base + seed);
    }
}

// 120 schedules, split so the test runner parallelises the batches.

#[test]
fn ingest_chaos_seeds_000_039() {
    ingest_range(0, 40);
}

#[test]
fn ingest_chaos_seeds_040_079() {
    ingest_range(40, 80);
}

#[test]
fn ingest_chaos_seeds_080_119() {
    ingest_range(80, 120);
}

/// The negative control: with defenses off, planted rot flows into
/// training — the run completes but silently diverges from clean. This
/// proves the harness would catch a silent escape if the defenses let
/// one through.
#[test]
fn undefended_rot_is_visible_to_the_harness() {
    let rotten = Arc::new(IngestPlane::new(
        store(Arc::new(FaultPlan::none().with_corrupt_record(2, 5).with_corrupt_record(4, 1))),
        stream_cfg(BTreeSet::new(), DefenseConfig::off()),
    ));
    let clean = Arc::new(IngestPlane::new(
        store(Arc::new(FaultPlan::none())),
        stream_cfg(BTreeSet::new(), DefenseConfig::off()),
    ));
    let a = run(rotten).expect("undefended run still completes");
    let b = run(clean).expect("clean run completes");
    assert!(a.data.as_ref().unwrap().quarantined.is_empty(), "defenses off: nothing quarantined");
    assert_ne!(
        bits(&a),
        bits(&b),
        "consumed rot must change training results — otherwise the bit-identity \
         invariant above is vacuous"
    );
}

/// Same seed, same schedule, same bits: the whole faulted pipeline is
/// deterministic even with hedging and retries in play.
#[test]
fn faulted_runs_are_deterministic_per_seed() {
    let go = || {
        let plan = Arc::new(FaultPlan::seeded_with_io(
            1234,
            WORLD,
            STEPS,
            SHARDS,
            PER_SHARD,
            &FaultMix::io_only(0.02, 0.05),
        ));
        let plane = Arc::new(IngestPlane::new(
            store(plan),
            stream_cfg(BTreeSet::new(), DefenseConfig::default()),
        ));
        run(plane)
    };
    match (go(), go()) {
        (Ok(a), Ok(b)) => {
            assert_eq!(bits(&a), bits(&b));
            assert_eq!(
                a.data.as_ref().unwrap().quarantined,
                b.data.as_ref().unwrap().quarantined
            );
        }
        (Err(a), Err(b)) => {
            assert_eq!(
                a.data.as_ref().unwrap().quarantined,
                b.data.as_ref().unwrap().quarantined
            );
        }
        (a, b) => panic!(
            "same seed produced different outcomes: {:?} vs {:?}",
            a.is_ok(),
            b.is_ok()
        ),
    }
}

/// A rank whose whole slice is quarantined must surface a structured
/// rank failure — never hang, never fabricate data.
#[test]
fn fully_quarantined_slice_fails_structurally() {
    // condemn every record up front
    let all: BTreeSet<RecordId> = (0..SHARDS)
        .flat_map(|s| (0..PER_SHARD).map(move |r| RecordId { shard: s, record: r }))
        .collect();
    let plane = Arc::new(IngestPlane::new(
        store(Arc::new(FaultPlan::none())),
        stream_cfg(all, DefenseConfig::default()),
    ));
    let started = Instant::now();
    let err = run(plane).expect_err("nothing to train on must fail");
    assert!(started.elapsed() < Duration::from_secs(30), "empty corpus must fail fast");
    assert!(
        err.failures.iter().any(|f| f.cause.contains("quarantined")),
        "failure must name the ingest cause: {:?}",
        err.failures
    );
}

/// Satellite: the ingest watermarks ride the DistReport, so an
/// input-bound step is distinguishable from a compute straggler.
#[test]
fn dist_report_surfaces_ingest_watermarks() {
    let plane = Arc::new(IngestPlane::new(
        store(Arc::new(FaultPlan::none())),
        stream_cfg(BTreeSet::new(), DefenseConfig::default()),
    ));
    let report = run(plane).expect("clean streaming run succeeds");
    let data = report.data.expect("streaming runs attach ingest accounting");
    // counted at hand-over, not when a prefetcher assembles a batch, so
    // read-ahead past the final step is not included; at least every
    // consumed record, because a step fed again after a retry or rollback
    // counts again
    assert!(data.records_read >= (GLOBAL_BATCH * STEPS) as u64);
    assert_eq!(data.bytes_read, data.records_read * (RECORD_LEN * 4) as u64);
    assert!(data.wait_ns_max > 0, "first batch always waits on the prefetcher");
    assert!(data.queue_depth_max >= 0);
    assert!(data.quarantined.is_empty() && data.dropped_rows == 0);
}
