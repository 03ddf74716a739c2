//! # geofm-resilience
//!
//! Failure handling for the geofm stack. The paper's pretraining campaigns
//! span hundreds of Frontier nodes, where node loss is routine; its
//! companion OReole-FM report names fault tolerance and checkpoint/restart
//! as the operational core of billion-parameter pretraining. This crate is
//! the substrate the rest of the workspace builds its fault paths on:
//!
//! * [`FaultPlan`] — a deterministic, seedable schedule of injected faults
//!   (rank crash at step *k*, slow-rank straggler delay, checkpoint-write
//!   crash mid-buffer). The same plan drives both the real threaded engine
//!   (`geofm-fsdp`) and the Frontier campaign simulator, so a failure
//!   scenario can be rehearsed in simulation and then replayed for real.
//! * [`ElasticCheckpoint`] — the trainer's one checkpoint format
//!   (`GEOFMCK3`, global state readable at any world size), written
//!   tmp-file → fsync → rename with a CRC32 footer so a torn write can
//!   never be loaded. [`atomic_write`] and [`crc32`] are exported for
//!   other formats (`geofm-core` uses them for its encoder cache).
//! * [`mtbf`] — per-node exponential failure model, restart/rework cost
//!   accounting ([`simulate_campaign`]) and the analytic Young/Daly optimal
//!   checkpoint interval — the machinery behind the `figR` repro binary's
//!   "what checkpoint interval maximises goodput at N nodes?" sweep.
//! * [`FailureReport`] — the structured failure description the trainer
//!   returns instead of deadlocking or double-panicking.
//! * [`GuardReport`] — the integrity-guard summary (sentinel trips,
//!   checksum trips, rollbacks, skipped steps, wasted re-executed work)
//!   attached to both successful runs and failures by the
//!   silent-data-corruption defense in `geofm-fsdp`.
//! * [`DataReport`] / [`RecordId`] — the streaming-ingest summary (reads,
//!   retries, hedged reads, quarantined records) attached by `geofm-data`'s
//!   fault-tolerant shard loader. It lives here for the same reason the
//!   failure types do: both the data plane and the trainer must see it.
//!
//! [`crc32`] is the workspace's one table-driven CRC32 implementation,
//! shared by the training checkpoints here, the encoder checkpoints in
//! `geofm-core`, and the checksummed collectives in `geofm-collectives`.
//! (It lives here rather than in `geofm-core` because `geofm-core` sits at
//! the top of the crate graph — hosting it there would cycle.)

#![warn(missing_docs)]

pub mod ckpt;
pub mod elastic;
pub mod fault;
pub mod mtbf;

pub use ckpt::{atomic_write, crc32, crc32_update};
pub use elastic::{CkptError, ElasticCheckpoint};
pub use fault::{FaultKind, FaultMix, FaultPlan};
pub use mtbf::{
    simulate_campaign, simulate_campaign_with_plan, young_daly_interval, CampaignConfig,
    CampaignOutcome, NodeFailureModel,
};

/// One rank's failure within an attempt of a distributed run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankFailure {
    /// Global rank that failed (or observed the failure).
    pub rank: usize,
    /// Step at which the failure surfaced.
    pub step: usize,
    /// Human-readable cause ("injected rank crash", panic payload,
    /// "peer rank lost: timeout", …).
    pub cause: String,
}

impl std::fmt::Display for RankFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rank {} failed at step {}: {}", self.rank, self.step, self.cause)
    }
}

/// One persistently slow rank as observed by the health monitor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StragglerInfo {
    /// Global rank flagged as a straggler.
    pub rank: usize,
    /// Its step-time EWMA divided by the healthy-median EWMA (≥ 1).
    pub slowdown: f64,
    /// Its mean observed step time in milliseconds.
    pub mean_step_ms: f64,
}

/// Health-monitor summary of gray degradation observed during a run: who
/// was persistently slow, by how much, and the goodput lost to waiting on
/// them. Attached to both successful runs (`DistReport`) and failures
/// ([`FailureReport`]) — gray failures degrade without necessarily killing.
#[must_use = "a degraded-run report describes lost goodput and should be inspected or logged"]
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DegradedReport {
    /// Ranks flagged past the straggler threshold, worst first.
    pub stragglers: Vec<StragglerInfo>,
    /// Median per-rank mean step time in milliseconds (the healthy pace).
    pub median_step_ms: f64,
    /// Fraction of ideal throughput lost to the slowest rank:
    /// `1 − median_total / max_total` over per-rank cumulative step time.
    pub goodput_lost: f64,
}

impl std::fmt::Display for DegradedReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "degradation: {} straggler(s), median step {:.2} ms, goodput lost {:.1}%",
            self.stragglers.len(),
            self.median_step_ms,
            self.goodput_lost * 100.0
        )?;
        for s in &self.stragglers {
            writeln!(
                f,
                "  rank {} running {:.2}x slower (mean step {:.2} ms)",
                s.rank, s.slowdown, s.mean_step_ms
            )?;
        }
        Ok(())
    }
}

/// Structured report returned when a distributed run cannot complete within
/// its restart budget. Every surviving rank contributes what it observed,
/// so the report distinguishes the root-cause rank (panic / injected crash)
/// from collateral `RankLost` observations.
#[must_use = "a failure report explains why the run died and should be inspected or logged"]
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FailureReport {
    /// Restart attempts consumed (0 = first attempt failed with no budget).
    pub restarts_used: usize,
    /// Checkpoint step the final attempt resumed from, if any.
    pub resumed_from_step: Option<u64>,
    /// Per-rank failures observed in the final attempt.
    pub failures: Vec<RankFailure>,
    /// Gray-degradation summary from the health monitor, if it observed
    /// any steps before the run died. Boxed (like `guard` and `data`) to
    /// keep the `Err` variant of `try_*` results small.
    pub degraded: Option<Box<DegradedReport>>,
    /// Integrity-guard summary (sentinel/checksum trips, rollbacks), if
    /// the guard was enabled and observed anything before the run died.
    /// Boxed to keep the `Err` variant of `try_*` results small.
    pub guard: Option<Box<GuardReport>>,
    /// Elastic reshard transitions performed before the run died (empty
    /// unless elastic mode shrank or re-grew the world).
    pub reshards: Vec<ReshardSummary>,
    /// Ingest-plane summary (reads, retries, hedges, quarantines), if the
    /// run was fed by a streaming shard store. Boxed to keep the `Err`
    /// variant of `try_*` results small.
    pub data: Option<Box<DataReport>>,
}

/// One record's identity within a sharded corpus: `(shard, record)`.
///
/// Ordered shard-major so quarantine sets sort into corpus order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RecordId {
    /// Shard index within the corpus.
    pub shard: usize,
    /// Record index within the shard.
    pub record: usize,
}

impl std::fmt::Display for RecordId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.shard, self.record)
    }
}

/// Summary of what the streaming ingest plane did during a run: reads
/// served, defenses exercised (retries, hedges) and records given up on
/// (quarantined). Attached to both successful runs (`DistReport`) and
/// failures ([`FailureReport`]).
///
/// The degradation contract mirrors the guard's: a run that quarantined
/// records is bit-identical to a clean run told to skip the same records
/// up front, so `quarantined` *is* the recovery transcript.
#[must_use = "a data report accounts for skipped records and should be inspected or logged"]
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DataReport {
    /// Records successfully decoded and fed to training.
    pub records_read: u64,
    /// Payload bytes of those records.
    pub bytes_read: u64,
    /// Reads retried after a checksum mismatch.
    pub retries: u64,
    /// Hedged second reads dispatched after a read overran its EWMA
    /// timeout.
    pub hedges: u64,
    /// Hedged reads that beat the original straggling read.
    pub hedge_wins: u64,
    /// Records permanently given up on (persistent checksum failures or
    /// records of lost shards), ascending. Their batch slots were dropped.
    pub quarantined: Vec<RecordId>,
    /// Shards found missing or truncated, ascending; all their affected
    /// records appear in `quarantined`.
    pub quarantined_shards: Vec<usize>,
    /// Batch rows dropped because their record was quarantined (counts
    /// every affected step, not distinct records).
    pub dropped_rows: u64,
    /// Times the consumer found the prefetch queue empty and had to wait.
    pub prefetch_stalls: u64,
    /// High-watermark of `data.wait.ns`: the longest a rank waited on the
    /// prefetcher for one batch, in nanoseconds. Distinguishes input-bound
    /// steps from compute stragglers in health output.
    pub wait_ns_max: u64,
    /// High-watermark of the `data.queue_depth` gauge across the run.
    pub queue_depth_max: i64,
}

impl std::fmt::Display for DataReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "ingest: {} record(s) read, {} retry(ies), {} hedge(s) ({} won), \
             {} record(s) quarantined across {} bad shard(s), {} row(s) dropped",
            self.records_read,
            self.retries,
            self.hedges,
            self.hedge_wins,
            self.quarantined.len(),
            self.quarantined_shards.len(),
            self.dropped_rows
        )?;
        write!(
            f,
            "  prefetch: {} stall(s), max wait {:.2} ms, max queue depth {}",
            self.prefetch_stalls,
            self.wait_ns_max as f64 / 1e6,
            self.queue_depth_max
        )
    }
}

/// One elastic world transition, as recorded on reports. The full reshard
/// payload (checkpoint, strategy) lives on the trainer's `ReshardReport`;
/// this is the light-weight summary attached to [`FailureReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReshardSummary {
    /// Step the new world resumed from.
    pub step: u64,
    /// World size before the transition.
    pub from_world: usize,
    /// World size after the transition.
    pub to_world: usize,
}

impl std::fmt::Display for ReshardSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "resharded {} -> {} ranks at step {} ({})",
            self.from_world,
            self.to_world,
            self.step,
            if self.to_world < self.from_world { "shrink" } else { "grow" }
        )
    }
}

/// Summary of what the silent-data-corruption guard did during a run:
/// how often it tripped, why, and what the trips cost. Attached to both
/// successful runs (`DistReport`) and failures ([`FailureReport`]).
///
/// The guard's contract is that every trip is *globally agreed* (all ranks
/// take the identical rollback decision from identical inputs), so one
/// report describes the whole world, not one rank's view.
#[must_use = "a guard report records corruption detections and should be inspected or logged"]
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GuardReport {
    /// Total guard trips (checksum + sentinel).
    pub trips: usize,
    /// Trips raised by the collective checksum layer (detected bit flips).
    pub checksum_trips: usize,
    /// Trips raised by the numerical sentinel (NaN/Inf or robust-z spike).
    pub sentinel_trips: usize,
    /// Rollback-and-skip recoveries performed (= `trips` unless the
    /// rollback budget ran out mid-recovery).
    pub rollbacks: usize,
    /// Steps skipped after rollback, ascending. Their loss entries are the
    /// canonical `f32::NAN` placeholder and no update was applied.
    pub skipped_steps: Vec<usize>,
    /// Steps of work discarded or re-executed across all rollbacks (the
    /// wasted-work cost of recovery, in steps).
    pub wasted_steps: usize,
}

impl std::fmt::Display for GuardReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "guard: {} trip(s) ({} checksum, {} sentinel), {} rollback(s), \
             {} step(s) skipped {:?}, {} step(s) of work wasted",
            self.trips,
            self.checksum_trips,
            self.sentinel_trips,
            self.rollbacks,
            self.skipped_steps.len(),
            self.skipped_steps,
            self.wasted_steps
        )
    }
}

impl std::fmt::Display for FailureReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "distributed run failed after {} restart(s){}:",
            self.restarts_used,
            match self.resumed_from_step {
                Some(s) => format!(" (last attempt resumed from step {s})"),
                None => String::new(),
            }
        )?;
        for fail in &self.failures {
            writeln!(f, "  {fail}")?;
        }
        for r in &self.reshards {
            writeln!(f, "  {r}")?;
        }
        if let Some(d) = &self.degraded {
            write!(f, "{d}")?;
        }
        if let Some(g) = &self.guard {
            writeln!(f, "{g}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_report_display_lists_ranks() {
        let r = FailureReport {
            restarts_used: 2,
            resumed_from_step: Some(6),
            failures: vec![RankFailure { rank: 1, step: 7, cause: "injected".into() }],
            degraded: None,
            guard: None,
            reshards: vec![ReshardSummary { step: 4, from_world: 4, to_world: 3 }],
            data: None,
        };
        let s = r.to_string();
        assert!(s.contains("2 restart"));
        assert!(s.contains("resumed from step 6"));
        assert!(s.contains("rank 1 failed at step 7"));
        assert!(s.contains("resharded 4 -> 3 ranks at step 4 (shrink)"));
    }

    #[test]
    fn guard_report_display_summarises_trips() {
        let g = GuardReport {
            trips: 3,
            checksum_trips: 2,
            sentinel_trips: 1,
            rollbacks: 3,
            skipped_steps: vec![4, 9, 11],
            wasted_steps: 5,
        };
        let s = g.to_string();
        assert!(s.contains("3 trip(s)"));
        assert!(s.contains("2 checksum"));
        assert!(s.contains("1 sentinel"));
        assert!(s.contains("[4, 9, 11]"));
        assert!(s.contains("5 step(s) of work wasted"));
    }

    #[test]
    fn data_report_display_summarises_ingest() {
        let d = DataReport {
            records_read: 480,
            bytes_read: 30720,
            retries: 3,
            hedges: 2,
            hedge_wins: 1,
            quarantined: vec![RecordId { shard: 1, record: 7 }, RecordId { shard: 2, record: 0 }],
            quarantined_shards: vec![2],
            dropped_rows: 5,
            prefetch_stalls: 4,
            wait_ns_max: 1_500_000,
            queue_depth_max: 2,
        };
        let s = d.to_string();
        assert!(s.contains("480 record(s) read"));
        assert!(s.contains("3 retry(ies)"));
        assert!(s.contains("2 hedge(s) (1 won)"));
        assert!(s.contains("2 record(s) quarantined across 1 bad shard(s)"));
        assert!(s.contains("5 row(s) dropped"));
        assert!(s.contains("max wait 1.50 ms"));
    }

    #[test]
    fn record_ids_sort_shard_major() {
        let mut v = vec![
            RecordId { shard: 2, record: 0 },
            RecordId { shard: 0, record: 9 },
            RecordId { shard: 0, record: 1 },
        ];
        v.sort();
        assert_eq!(
            v,
            vec![
                RecordId { shard: 0, record: 1 },
                RecordId { shard: 0, record: 9 },
                RecordId { shard: 2, record: 0 },
            ]
        );
        assert_eq!(RecordId { shard: 3, record: 4 }.to_string(), "3/4");
    }

    #[test]
    fn degraded_report_display_lists_stragglers() {
        let d = DegradedReport {
            stragglers: vec![StragglerInfo { rank: 3, slowdown: 2.7, mean_step_ms: 54.0 }],
            median_step_ms: 20.0,
            goodput_lost: 0.63,
        };
        let s = d.to_string();
        assert!(s.contains("1 straggler"));
        assert!(s.contains("rank 3 running 2.70x slower"));
        assert!(s.contains("63.0%"));
    }
}
