//! # geofm-telemetry
//!
//! The observability substrate for the `geofm` workspace: a lightweight,
//! thread-safe metrics registry plus a span recorder that exports
//! Chrome-trace-format JSON (loadable in `chrome://tracing` or
//! [Perfetto](https://ui.perfetto.dev)).
//!
//! The paper this repository reproduces is a systems study — its
//! deliverables are step-time breakdowns, communication shares, memory
//! watermarks and power traces — so every layer of the reproduction needs a
//! shared vocabulary for "how many bytes moved", "how long did this phase
//! take" and "what overlapped with what". This crate is that vocabulary:
//!
//! * [`MetricsRegistry`] — named [`Counter`]s, [`Gauge`]s and log₂-bucketed
//!   [`Histogram`]s. Handles are `Arc`s over plain atomics, so the hot path
//!   (a collective recording its bytes, a rank timing a phase) never takes
//!   a lock.
//! * [`PhaseTimer`] / [`Stopwatch`] — scoped wall-clock timers feeding
//!   histograms in nanoseconds.
//! * [`TraceRecorder`] — accumulates spans with either real timestamps
//!   (threaded engine) or *virtual* timestamps (the Frontier discrete-event
//!   simulator), and serialises them as Chrome trace JSON with no external
//!   dependencies.
//! * [`Telemetry`] — the bundle the rest of the workspace passes around:
//!   one registry + one recorder.
//!
//! Consumers: `geofm-collectives` (per-kind communication bytes and call
//! counts), `geofm-fsdp` (per-rank gather/compute/reduce/optimizer phase
//! breakdown), `geofm-frontier` (DES timelines as trace spans),
//! `geofm-data` (loader queue depth and wait time), and the `geofm-repro`
//! binaries (`--trace-out` flag, metrics summaries in CSV artifacts).
//!
//! ## Fault & recovery vocabulary
//!
//! The resilient trainer (`geofm_fsdp::try_run_data_parallel`) and the
//! MTBF simulator emit a shared `fault.*` namespace:
//!
//! | metric | kind | meaning |
//! |--------|------|---------|
//! | `fault.injected_crash` | counter | fault-plan rank crashes fired |
//! | `fault.injected_ckpt_crash` | counter | torn checkpoint writes fired |
//! | `fault.straggler` | counter | slow-rank delays applied |
//! | `fault.injected_hang` | counter | rank hangs fired (adaptive-timeout path) |
//! | `fault.degraded_rank` | counter | steps run by a persistently slow rank |
//! | `fault.degraded_link` | counter | steps run over a degraded link |
//! | `fault.rank_panic` | counter | rank bodies that panicked |
//! | `fault.rank_lost` | counter | collectives that returned `RankLost` |
//! | `fault.checkpoints` | counter | GEOFMCK3 checkpoints committed (in memory, and on disk when a path is set) |
//! | `fault.restarts` | counter | restarts performed by the harness |
//! | `ckpt.write` | phase | atomic GEOFMCK3 write to disk (histogram + span) |
//! | `fault.recovery` | phase | checkpoint load + state restore on restart |
//!
//! The gray-failure watchdog (`geofm_fsdp::HealthMonitor`) and the adaptive
//! collective timeout (`geofm_collectives::AdaptiveTimeout`) add a
//! `health.*` / `comm.*` layer on top:
//!
//! | metric | kind | meaning |
//! |--------|------|---------|
//! | `health.step.ns` | histogram | per-rank *local work* time per step (barrier waits excluded) |
//! | `health.straggler_flags` | counter | ranks newly flagged as persistent stragglers |
//! | `health.stragglers` | gauge | currently-flagged straggler count |
//! | `comm.collective.ns` | histogram | observed collective latencies feeding the timeout EWMA |
//!
//! The silent-data-corruption guard (checksummed collectives in
//! `geofm-collectives`, sentinel + rollback-and-skip in `geofm-fsdp`)
//! emits a `guard.*` namespace, with the injected faults it defends
//! against folded into `fault.*`:
//!
//! | metric | kind | meaning |
//! |--------|------|---------|
//! | `guard.trip` | counter | steps rejected by the guard (checksum or sentinel) |
//! | `guard.rollbacks` | counter | rollback-and-skip recoveries performed |
//! | `guard.rollback.steps` | histogram | steps re-executed per rollback (distance to the snapshot) |
//! | `guard.checksum.ns` | histogram | per-collective checksum verification time |
//! | `fault.injected_bitflip` | counter | gradient bit flips fired by the fault plan |
//! | `fault.injected_poison` | counter | poisoned (NaN) local losses fired by the fault plan |
//!
//! The comm/compute overlap engine (`geofm_fsdp::OverlapConfig` routing
//! collectives through `geofm_collectives::CommThread`) reports how much
//! communication it fails to hide — the threaded measurement of `figU`'s
//! y-axis:
//!
//! | metric | kind | meaning |
//! |--------|------|---------|
//! | `overlap.enabled` | gauge | 1 when the run used the comm-thread engine |
//! | `overlap.prefetch.depth` | gauge | configured in-flight collective budget |
//! | `overlap.step.ns` | histogram | wall time per training step |
//! | `overlap.exposed.ns` | histogram | per-step main-thread time blocked on collectives |
//! | `overlap.exposed.permille` | histogram | exposed-comm share of the step (‰) |
//!
//! The elastic resharding path (`geofm_fsdp::try_run_elastic` shrinking
//! onto survivors after a permanent rank loss and re-growing on spare
//! rejoin) emits a `reshard.*` namespace, with the injected departures
//! folded into `fault.*`:
//!
//! | metric | kind | meaning |
//! |--------|------|---------|
//! | `reshard.world` | gauge | current world size (high-water mark = launch world) |
//! | `reshard.shrinks` | counter | shrink-and-continue transitions performed |
//! | `reshard.grows` | counter | re-grow transitions on spare rejoin |
//! | `reshard.consensus.rounds` | counter | survivor consensus rounds completed |
//! | `reshard.consensus.ns` | histogram | wall time of each survivor consensus round |
//! | `reshard.drain.ns` | histogram | per-rank drain time quiescing in-flight collectives |
//! | `fault.rank_leave` | counter | permanent rank departures fired by the fault plan |
//! | `fault.spare_rejoin` | counter | spare-rejoin events fired by the fault plan |

#![warn(missing_docs)]

mod registry;
mod timer;
mod trace;

pub use registry::{
    Counter, Gauge, GaugeSnapshot, Histogram, HistogramSnapshot, MetricsRegistry,
    MetricsSnapshot, HISTOGRAM_BUCKETS,
};
pub use timer::{PhaseTimer, Stopwatch};
pub use trace::{TraceEvent, TraceRecorder, TraceSpan};

use std::sync::Arc;

/// The bundle threaded through the stack: one metrics registry plus one
/// trace recorder sharing a time origin.
#[derive(Debug, Default)]
pub struct Telemetry {
    /// Named counters / gauges / histograms. `Arc`ed so facades in other
    /// crates (e.g. `geofm-collectives`' `TrafficCounter`) can share it.
    pub metrics: Arc<MetricsRegistry>,
    /// Span recorder for Chrome-trace export.
    pub trace: TraceRecorder,
}

impl Telemetry {
    /// Fresh registry and recorder.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Time a phase: returns a guard that, when dropped, records the
    /// elapsed nanoseconds into histogram `name` **and** emits a trace span
    /// on thread `tid`.
    pub fn phase(&self, name: &str, tid: u64) -> PhaseGuard<'_> {
        PhaseGuard {
            telemetry: self,
            name: name.to_string(),
            tid,
            start: self.trace.now_us(),
            clock: std::time::Instant::now(),
        }
    }
}

/// Guard returned by [`Telemetry::phase`].
#[derive(Debug)]
pub struct PhaseGuard<'a> {
    telemetry: &'a Telemetry,
    name: String,
    tid: u64,
    start: f64,
    clock: std::time::Instant,
}

impl Drop for PhaseGuard<'_> {
    fn drop(&mut self) {
        let ns = self.clock.elapsed().as_nanos() as u64;
        self.telemetry.metrics.histogram(&format!("{}.ns", self.name)).record(ns);
        let dur_us = ns as f64 / 1_000.0;
        self.telemetry.trace.complete(&self.name, "phase", 0, self.tid, self.start, dur_us);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_guard_records_histogram_and_span() {
        let tel = Telemetry::new();
        {
            let _g = tel.phase("fsdp.compute", 3);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let snap = tel.metrics.snapshot();
        let h = &snap.histograms["fsdp.compute.ns"];
        assert_eq!(h.count, 1);
        assert!(h.sum >= 2_000_000, "recorded {} ns", h.sum);
        assert_eq!(tel.trace.len(), 1);
        let json = tel.trace.export_json();
        assert!(json.contains("\"fsdp.compute\""));
    }
}
