//! Logical communication-volume accounting.
//!
//! Every collective records the bytes the *ring algorithm* for that
//! collective would move per rank on a real network. These counters are the
//! bridge between the real threaded engine (`geofm-fsdp`) and the Frontier
//! cost model (`geofm-frontier`): both speak "bytes per rank per collective
//! kind", and an integration test asserts they agree.
//!
//! Since the telemetry refactor, [`TrafficCounter`] is a façade over a
//! [`geofm_telemetry::MetricsRegistry`]: each kind owns a pair of counters
//! (`comm.<kind>.bytes`, `comm.<kind>.calls`), so communication volume shows
//! up in the same [`MetricsSnapshot`](geofm_telemetry::MetricsSnapshot) as
//! phase timings and loader gauges when a shared registry is supplied via
//! [`TrafficCounter::with_registry`]. The original `snapshot()`/`reset()`
//! API is preserved on top.

use geofm_telemetry::{Counter, MetricsRegistry};
use std::sync::Arc;

/// The collective operations used by the sharding strategies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CollectiveKind {
    /// Sum-reduce to all ranks.
    AllReduce,
    /// Concatenate per-rank shards to all ranks.
    AllGather,
    /// Sum-reduce, leaving each rank with one shard.
    ReduceScatter,
}

impl CollectiveKind {
    /// All kinds (for iteration in reports).
    pub const ALL: [CollectiveKind; 3] = [Self::AllReduce, Self::AllGather, Self::ReduceScatter];

    /// Stable snake-case name, used as the metric-name stem.
    pub fn name(&self) -> &'static str {
        match self {
            Self::AllReduce => "all_reduce",
            Self::AllGather => "all_gather",
            Self::ReduceScatter => "reduce_scatter",
        }
    }

    fn index(&self) -> usize {
        match self {
            Self::AllReduce => 0,
            Self::AllGather => 1,
            Self::ReduceScatter => 2,
        }
    }

    /// Ring-algorithm bytes moved **per rank** for a collective over
    /// `total_bytes` of payload among `n` ranks.
    ///
    /// * all-gather / reduce-scatter: `(n-1)/n · total`
    /// * all-reduce: `2(n-1)/n · total` (reduce-scatter + all-gather)
    pub fn ring_bytes_per_rank(&self, total_bytes: u64, n: usize) -> u64 {
        if n <= 1 {
            return 0;
        }
        let frac = |b: u64| b * (n as u64 - 1) / n as u64;
        match self {
            Self::AllReduce => 2 * frac(total_bytes),
            Self::AllGather | Self::ReduceScatter => frac(total_bytes),
        }
    }
}

/// Thread-safe accumulated traffic per collective kind, backed by a
/// [`MetricsRegistry`].
#[derive(Debug)]
pub struct TrafficCounter {
    registry: Arc<MetricsRegistry>,
    /// Cached handles indexed by [`CollectiveKind::index`]; recording stays
    /// lock-free even though the metrics live in a shared registry.
    bytes: [Arc<Counter>; 3],
    calls: [Arc<Counter>; 3],
}

impl Default for TrafficCounter {
    fn default() -> Self {
        Self::with_registry(Arc::new(MetricsRegistry::new()))
    }
}

/// An immutable snapshot of a [`TrafficCounter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TrafficSnapshot {
    /// Bytes attributed to all-reduce.
    pub all_reduce: u64,
    /// Bytes attributed to all-gather.
    pub all_gather: u64,
    /// Bytes attributed to reduce-scatter.
    pub reduce_scatter: u64,
    /// Number of collective calls.
    pub calls: u64,
}

impl TrafficSnapshot {
    /// Total bytes across all kinds.
    pub fn total(&self) -> u64 {
        self.all_reduce + self.all_gather + self.reduce_scatter
    }
}

impl TrafficCounter {
    /// New zeroed counter over a private registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counter recording into `registry` under `comm.<kind>.bytes` /
    /// `comm.<kind>.calls`, so communication volume appears alongside
    /// whatever else the caller registers there.
    pub fn with_registry(registry: Arc<MetricsRegistry>) -> Self {
        let handle = |suffix: &str| {
            CollectiveKind::ALL
                .map(|k| registry.counter(&format!("comm.{}.{}", k.name(), suffix)))
        };
        let bytes = handle("bytes");
        let calls = handle("calls");
        Self { registry, bytes, calls }
    }

    /// The registry backing this counter.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Record one collective of `kind` moving `bytes` (per-rank logical).
    pub fn record(&self, kind: CollectiveKind, bytes: u64) {
        let i = kind.index();
        self.bytes[i].inc(bytes);
        self.calls[i].inc(1);
    }

    /// Bytes recorded for one kind.
    pub fn bytes_for(&self, kind: CollectiveKind) -> u64 {
        self.bytes[kind.index()].get()
    }

    /// Calls recorded for one kind.
    pub fn calls_for(&self, kind: CollectiveKind) -> u64 {
        self.calls[kind.index()].get()
    }

    /// Snapshot current totals.
    pub fn snapshot(&self) -> TrafficSnapshot {
        TrafficSnapshot {
            all_reduce: self.bytes_for(CollectiveKind::AllReduce),
            all_gather: self.bytes_for(CollectiveKind::AllGather),
            reduce_scatter: self.bytes_for(CollectiveKind::ReduceScatter),
            calls: self.calls.iter().map(|c| c.get()).sum(),
        }
    }

    /// Reset this counter's metrics to zero (other metrics in a shared
    /// registry are untouched).
    pub fn reset(&self) {
        for c in self.bytes.iter().chain(&self.calls) {
            c.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_accounting_formulas() {
        // 8 ranks, 800 bytes total
        assert_eq!(CollectiveKind::AllGather.ring_bytes_per_rank(800, 8), 700);
        assert_eq!(CollectiveKind::ReduceScatter.ring_bytes_per_rank(800, 8), 700);
        assert_eq!(CollectiveKind::AllReduce.ring_bytes_per_rank(800, 8), 1400);
    }

    #[test]
    fn single_rank_moves_nothing() {
        for k in CollectiveKind::ALL {
            assert_eq!(k.ring_bytes_per_rank(1000, 1), 0);
        }
    }

    #[test]
    fn record_and_snapshot() {
        let c = TrafficCounter::new();
        c.record(CollectiveKind::AllReduce, 100);
        c.record(CollectiveKind::AllGather, 50);
        c.record(CollectiveKind::AllReduce, 10);
        let s = c.snapshot();
        assert_eq!(s.all_reduce, 110);
        assert_eq!(s.all_gather, 50);
        assert_eq!(s.calls, 3);
        assert_eq!(s.total(), 160);
        assert_eq!(c.calls_for(CollectiveKind::AllReduce), 2);
        c.reset();
        assert_eq!(c.snapshot().total(), 0);
    }

    #[test]
    fn shared_registry_exposes_comm_metrics() {
        let reg = Arc::new(MetricsRegistry::new());
        let c = TrafficCounter::with_registry(reg.clone());
        c.record(CollectiveKind::ReduceScatter, 640);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("comm.reduce_scatter.bytes"), 640);
        assert_eq!(snap.counter("comm.reduce_scatter.calls"), 1);
        assert_eq!(snap.counter("comm.all_gather.bytes"), 0);
    }
}
