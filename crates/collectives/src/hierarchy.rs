//! Group hierarchies for HYBRID_SHARD: a *shard group* (model sharded across
//! its ranks, all-gather/reduce-scatter inside) and a *replica group*
//! (model replicated across groups, all-reduce between them) — §III-C of the
//! paper.

use crate::adaptive::AdaptiveTimeout;
use crate::group::{Group, RankHandle};
use crate::guard::SabotageCell;
use crate::traffic::TrafficCounter;
use std::sync::Arc;
use std::time::Duration;

/// Shape of a two-level hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyLayout {
    /// Total ranks.
    pub world: usize,
    /// Ranks per shard group (the paper's "sharding-group" size).
    pub shard_size: usize,
}

impl HierarchyLayout {
    /// Number of shard groups (= replica-group size).
    pub fn num_shard_groups(&self) -> usize {
        self.world / self.shard_size
    }
}

/// One rank's handles to all three groups.
#[derive(Debug, Clone)]
pub struct RankGroups {
    /// Global rank.
    pub rank: usize,
    /// The full world group.
    pub world: RankHandle,
    /// This rank's shard group (contiguous ranks; size = `shard_size`).
    pub shard: RankHandle,
    /// This rank's replica group (same shard position across shard groups).
    pub replica: RankHandle,
}

impl RankGroups {
    /// Bound every barrier wait in all three groups' collectives (see
    /// [`RankHandle::with_timeout`]). Used by the resilient trainer so a
    /// lost rank surfaces as `Err(RankLost)` instead of a deadlock.
    pub fn with_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.world = self.world.with_timeout(timeout);
        self.shard = self.shard.with_timeout(timeout);
        self.replica = self.replica.with_timeout(timeout);
        self
    }

    /// Attach one shared [`AdaptiveTimeout`] tracker to all three handles:
    /// every collective this rank runs — world, shard or replica — feeds a
    /// single latency EWMA, and once warmed up the adaptive bound tightens
    /// the static timeout on all of them (see
    /// [`RankHandle::with_adaptive`]). The **caller** owns the tracker: the
    /// elastic trainer keeps one per rank alive across restart attempts so
    /// it can [`AdaptiveTimeout::reset`] them all after an elastic recovery
    /// or reshard — latencies learned in the old world (inflated by a dying
    /// peer) must not time out healthy collectives in the new one.
    pub fn with_adaptive_tracker(mut self, tracker: Arc<AdaptiveTimeout>) -> Self {
        self.world = self.world.with_adaptive(Arc::clone(&tracker));
        self.shard = self.shard.with_adaptive(Arc::clone(&tracker));
        self.replica = self.replica.with_adaptive(tracker);
        self
    }

    /// Emulate a degraded link for this rank across all three groups (see
    /// [`RankHandle::set_link_slowdown`]). `1.0` restores a healthy link.
    pub fn set_link_slowdown(&self, slowdown: f64) {
        self.world.set_link_slowdown(slowdown);
        self.shard.set_link_slowdown(slowdown);
        self.replica.set_link_slowdown(slowdown);
    }

    /// Enable (or disable) post-reduce checksum verification on all three
    /// handles (see [`RankHandle::with_checksums`]). All ranks of the
    /// hierarchy must agree on the setting (SPMD contract).
    pub fn with_checksums(mut self, verify: bool) -> Self {
        self.world = self.world.with_checksums(verify);
        self.shard = self.shard.with_checksums(verify);
        self.replica = self.replica.with_checksums(verify);
        self
    }

    /// Share one [`SabotageCell`] across all three handles so an armed
    /// bit flip hits this rank's *next* reduce, whichever group runs it —
    /// mirroring how the link-slowdown injector is shared. Wired by
    /// [`ProcessGroups::hierarchy_with_traffic`]; exposed for tests that
    /// build handles directly.
    pub fn with_shared_sabotage(mut self, cell: Arc<SabotageCell>) -> Self {
        self.world = self.world.with_sabotage(Arc::clone(&cell));
        self.shard = self.shard.with_sabotage(Arc::clone(&cell));
        self.replica = self.replica.with_sabotage(cell);
        self
    }

    /// Arm a one-shot bit flip in this rank's next reduce contribution
    /// (see [`RankHandle::arm_bitflip`]). Safe to call from the fault
    /// driver while the rank's worker thread holds its own clone.
    pub fn arm_bitflip(&self, bit: u32) {
        // the cell is shared across the three handles, so any one arms all
        self.world.arm_bitflip(bit);
    }

    /// Poison all three groups this rank belongs to. A dying rank calls
    /// this so every peer — whichever group it is currently blocked in —
    /// unblocks within one timeout period.
    pub fn poison_all(&self) {
        self.world.poison();
        self.shard.poison();
        self.replica.poison();
    }

    /// Whether any of this rank's groups has been poisoned.
    pub fn any_poisoned(&self) -> bool {
        self.world.is_poisoned() || self.shard.is_poisoned() || self.replica.is_poisoned()
    }
}

/// Factory for group hierarchies.
pub struct ProcessGroups;

impl ProcessGroups {
    /// Build the HYBRID hierarchy: contiguous shard groups of `shard_size`,
    /// replica groups across them. All groups share one traffic counter.
    ///
    /// # Panics
    /// Panics unless `shard_size` divides `world`.
    pub fn hierarchy(layout: HierarchyLayout) -> Vec<RankGroups> {
        Self::hierarchy_with_traffic(layout, Arc::new(TrafficCounter::new()))
    }

    /// [`ProcessGroups::hierarchy`] with a caller-supplied traffic counter,
    /// e.g. one backed by a shared telemetry registry.
    pub fn hierarchy_with_traffic(
        layout: HierarchyLayout,
        traffic: Arc<TrafficCounter>,
    ) -> Vec<RankGroups> {
        let HierarchyLayout { world, shard_size } = layout;
        assert!(world > 0 && shard_size > 0, "sizes must be positive");
        assert_eq!(world % shard_size, 0, "shard size {} must divide world {}", shard_size, world);
        let world_handles = Group::create_with_traffic(world, Arc::clone(&traffic));

        let groups = world / shard_size;
        // shard groups: one per contiguous block
        let mut shard_handles: Vec<Vec<RankHandle>> = (0..groups)
            .map(|_| Group::create_with_traffic(shard_size, Arc::clone(&traffic)))
            .collect();
        // replica groups: one per shard position
        let mut replica_handles: Vec<Vec<RankHandle>> = (0..shard_size)
            .map(|_| Group::create_with_traffic(groups, Arc::clone(&traffic)))
            .collect();

        world_handles
            .into_iter()
            .enumerate()
            .map(|(rank, world_h)| {
                let g = rank / shard_size;
                let p = rank % shard_size;
                // within shard group g, this rank sits at position p;
                // within replica group p, it sits at position g.
                let shard = shard_handles[g][p].clone();
                let replica = replica_handles[p][g].clone();
                // mark slots consumed (handles are clones sharing group state;
                // the position-indexing above is what assigns rank ids)
                let _ = (&mut shard_handles, &mut replica_handles);
                RankGroups { rank, world: world_h, shard, replica }
                    .with_shared_sabotage(Arc::new(SabotageCell::new()))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_counts() {
        let l = HierarchyLayout { world: 16, shard_size: 4 };
        assert_eq!(l.num_shard_groups(), 4);
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn rejects_indivisible() {
        let _ = ProcessGroups::hierarchy(HierarchyLayout { world: 6, shard_size: 4 });
    }

    #[test]
    fn ranks_and_sizes_are_consistent() {
        let groups = ProcessGroups::hierarchy(HierarchyLayout { world: 8, shard_size: 2 });
        assert_eq!(groups.len(), 8);
        for (i, g) in groups.iter().enumerate() {
            assert_eq!(g.rank, i);
            assert_eq!(g.world.size(), 8);
            assert_eq!(g.world.rank(), i);
            assert_eq!(g.shard.size(), 2);
            assert_eq!(g.shard.rank(), i % 2);
            assert_eq!(g.replica.size(), 4);
            assert_eq!(g.replica.rank(), i / 2);
        }
    }

    #[test]
    fn hierarchical_all_reduce_equals_flat() {
        // reduce-scatter in shard group + all-reduce of shards in replica
        // group + all-gather in shard group ≡ world all-reduce.
        let layout = HierarchyLayout { world: 8, shard_size: 4 };
        let groups = ProcessGroups::hierarchy(layout);
        std::thread::scope(|s| {
            for g in groups {
                s.spawn(move || {
                    let base: Vec<f32> = (0..12).map(|i| (i + g.rank * 12) as f32).collect();
                    let expect: Vec<f32> = (0..12)
                        .map(|i| (0..8).map(|r| (i + r * 12) as f32).sum())
                        .collect();

                    // flat
                    let mut flat = base.clone();
                    g.world.all_reduce(&mut flat);
                    assert_eq!(flat, expect);

                    // hierarchical
                    let mut shard = Vec::new();
                    g.shard.reduce_scatter(&base, &mut shard);
                    g.replica.all_reduce(&mut shard);
                    let mut full = Vec::new();
                    g.shard.all_gather(&shard, &mut full);
                    assert_eq!(full, expect);
                });
            }
        });
    }

    #[test]
    fn shard_groups_are_isolated() {
        // an all-reduce within shard groups must not mix data across groups
        let groups = ProcessGroups::hierarchy(HierarchyLayout { world: 4, shard_size: 2 });
        std::thread::scope(|s| {
            for g in groups {
                s.spawn(move || {
                    let mut buf = vec![g.rank as f32];
                    g.shard.all_reduce(&mut buf);
                    let expect = if g.rank < 2 { 1.0 } else { 5.0 }; // 0+1 / 2+3
                    assert_eq!(buf[0], expect);
                });
            }
        });
    }

    #[test]
    fn armed_bitflip_fires_in_whichever_group_reduces_first() {
        use crate::guard::CollectiveError;

        // arm via the RankGroups-level injector; the shard-group
        // reduce-scatter (the first reduce FullShard runs) must trip, and
        // the verdict must name the culprit's *shard-local* rank.
        let groups = ProcessGroups::hierarchy(HierarchyLayout { world: 4, shard_size: 2 });
        std::thread::scope(|s| {
            for g in groups {
                s.spawn(move || {
                    let g = g.with_checksums(true);
                    if g.rank == 3 {
                        g.arm_bitflip(11);
                    }
                    let buf = vec![1.0f32; 8];
                    let mut out = Vec::new();
                    let r = g.shard.try_reduce_scatter(&buf, &mut out);
                    if g.rank >= 2 {
                        // rank 3 sits in shard group 1 at local rank 1
                        match r {
                            Err(CollectiveError::Corrupt(c)) => assert_eq!(c.rank, 1),
                            other => panic!("rank {}: expected Corrupt, got {other:?}", g.rank),
                        }
                    } else {
                        // shard group 0 saw only clean contributions
                        r.unwrap();
                    }
                    // the flip was consumed: the replica all-reduce is clean
                    let mut rep = vec![1.0f32; 4];
                    g.replica.try_all_reduce(&mut rep).unwrap();
                    assert!(rep.iter().all(|&v| v == 2.0));
                });
            }
        });
    }

    #[test]
    fn shared_traffic_counter_aggregates() {
        let groups = ProcessGroups::hierarchy(HierarchyLayout { world: 4, shard_size: 2 });
        let traffic = groups[0].world.traffic();
        std::thread::scope(|s| {
            for g in groups {
                s.spawn(move || {
                    let mut buf = vec![1.0f32; 10];
                    g.shard.all_reduce(&mut buf);
                    g.replica.all_reduce(&mut buf);
                });
            }
        });
        let snap = traffic.snapshot();
        assert_eq!(snap.calls, 8);
        assert!(snap.all_reduce > 0);
    }
}
