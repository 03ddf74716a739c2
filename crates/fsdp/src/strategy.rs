//! Sharding strategies and FSDP configuration knobs.

/// The distributed strategies studied in the paper (§III-C, Figures 2–4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ShardingStrategy {
    /// FSDP `NO_SHARD`: pure data parallelism, per-unit all-reduce.
    NoShard,
    /// PyTorch DDP baseline: data parallelism with **fixed-size** gradient
    /// buckets (default 25 MB), the behaviour §IV-C contrasts with FSDP's
    /// per-module message sizing.
    Ddp {
        /// Bucket size in bytes.
        bucket_bytes: usize,
    },
    /// FSDP `FULL_SHARD`: parameters, gradients and optimizer state sharded
    /// across the whole world; parameters are gathered per unit in the
    /// forward pass and **again** in the backward pass.
    FullShard,
    /// FSDP `SHARD_GRAD_OP`: gradients and optimizer state sharded, but
    /// parameters are gathered once per step and kept through backward.
    ShardGradOp,
    /// FSDP `HYBRID_SHARD` with a sharding group of `shard_size` ranks:
    /// FULL_SHARD semantics inside the group, replication + all-reduce
    /// across groups. `shard_size = 1` is the paper's `HYBRID_1GPU`.
    Hybrid {
        /// Ranks per sharding group.
        shard_size: usize,
    },
}

impl ShardingStrategy {
    /// Paper-style display name.
    pub fn name(&self) -> String {
        match self {
            Self::NoShard => "NO_SHARD".into(),
            Self::Ddp { .. } => "DDP".into(),
            Self::FullShard => "FULL_SHARD".into(),
            Self::ShardGradOp => "SHARD_GRAD_OP".into(),
            Self::Hybrid { shard_size } => format!("HYBRID_{}GPUs", shard_size),
        }
    }

    /// Size of the group across which parameters are sharded, given the
    /// world size (1 ⇒ no parameter sharding).
    pub fn shard_group_size(&self, world: usize) -> usize {
        match self {
            Self::NoShard | Self::Ddp { .. } => 1,
            Self::FullShard | Self::ShardGradOp => world,
            Self::Hybrid { shard_size } => *shard_size,
        }
    }

    /// Whether parameters are re-gathered for the backward pass
    /// (FULL_SHARD semantics) as opposed to kept resident.
    pub fn regathers_in_backward(&self) -> bool {
        matches!(self, Self::FullShard | Self::Hybrid { .. })
    }

    /// DDP with PyTorch's default 25 MB bucket.
    pub fn ddp_default() -> Self {
        Self::Ddp { bucket_bytes: 25 * 1024 * 1024 }
    }

    /// The strategy an elastic reshard continues with at `new_world` ranks.
    ///
    /// Everything except `HYBRID_SHARD(k)` is world-size-agnostic
    /// (`shard_group_size` already follows the world), but a hybrid shard
    /// group must divide the world evenly for the replica groups to form —
    /// so `Hybrid { shard_size: k }` remaps to the **largest divisor of
    /// `new_world` that is ≤ k**: the closest group size that preserves the
    /// intra-group sharding / cross-group replication split without ever
    /// *growing* a group past what the original memory budget allowed.
    pub fn remap_for_world(&self, new_world: usize) -> Self {
        assert!(new_world > 0, "cannot remap to an empty world");
        match self {
            Self::Hybrid { shard_size } => {
                let k = (*shard_size).min(new_world);
                let remapped =
                    (1..=k).rev().find(|s| new_world.is_multiple_of(*s)).expect("1 divides everything");
                Self::Hybrid { shard_size: remapped }
            }
            other => *other,
        }
    }
}

/// Backward-prefetch policy (§IV-B). Only the Frontier simulator reads it
/// (`SimConfig::prefetch`), pricing the overlap differences of Figure 2.
/// The threaded engine blocks on every collective, so it has no prefetch
/// window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PrefetchPolicy {
    /// Request next unit's parameters only after the current unit's
    /// communication completes.
    None,
    /// Request before the current unit drops its parameters, after its
    /// communication is issued.
    BackwardPost,
    /// Request before the current unit's communication calls — maximum
    /// compute/communication overlap (the paper's best setting).
    #[default]
    BackwardPre,
}

impl PrefetchPolicy {
    /// Paper-style display name.
    pub fn name(&self) -> &'static str {
        match self {
            Self::None => "None",
            Self::BackwardPost => "BACKWARD_POST",
            Self::BackwardPre => "BACKWARD_PRE",
        }
    }
}

/// Full FSDP configuration for a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FsdpConfig {
    /// Sharding strategy.
    pub strategy: ShardingStrategy,
}

impl FsdpConfig {
    /// The configuration for `strategy`.
    pub fn tuned(strategy: ShardingStrategy) -> Self {
        Self { strategy }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_paper_vocabulary() {
        assert_eq!(ShardingStrategy::NoShard.name(), "NO_SHARD");
        assert_eq!(ShardingStrategy::FullShard.name(), "FULL_SHARD");
        assert_eq!(ShardingStrategy::ShardGradOp.name(), "SHARD_GRAD_OP");
        assert_eq!(ShardingStrategy::Hybrid { shard_size: 2 }.name(), "HYBRID_2GPUs");
        assert_eq!(ShardingStrategy::ddp_default().name(), "DDP");
        assert_eq!(PrefetchPolicy::BackwardPre.name(), "BACKWARD_PRE");
    }

    #[test]
    fn shard_group_sizes() {
        let w = 16;
        assert_eq!(ShardingStrategy::NoShard.shard_group_size(w), 1);
        assert_eq!(ShardingStrategy::FullShard.shard_group_size(w), 16);
        assert_eq!(ShardingStrategy::ShardGradOp.shard_group_size(w), 16);
        assert_eq!(ShardingStrategy::Hybrid { shard_size: 4 }.shard_group_size(w), 4);
    }

    #[test]
    fn remap_keeps_world_agnostic_strategies() {
        for s in [
            ShardingStrategy::NoShard,
            ShardingStrategy::ddp_default(),
            ShardingStrategy::FullShard,
            ShardingStrategy::ShardGradOp,
        ] {
            assert_eq!(s.remap_for_world(3), s);
            assert_eq!(s.remap_for_world(7), s);
        }
    }

    #[test]
    fn remap_hybrid_to_largest_divisor_not_above_k() {
        let h = |k| ShardingStrategy::Hybrid { shard_size: k };
        // 4 ranks → 3: group of 2 no longer divides, drop to 1
        assert_eq!(h(2).remap_for_world(3), h(1));
        // 8 → 6 with k=4: largest divisor of 6 that is ≤ 4 is 3
        assert_eq!(h(4).remap_for_world(6), h(3));
        // shrink within divisibility keeps the group
        assert_eq!(h(2).remap_for_world(6), h(2));
        // group never grows past the original k
        assert_eq!(h(2).remap_for_world(8), h(2));
        // k larger than the new world clamps then divides
        assert_eq!(h(8).remap_for_world(6), h(6));
        // the remapped group always divides the world
        for k in 1..=8 {
            for w in 1..=8 {
                let ShardingStrategy::Hybrid { shard_size } = h(k).remap_for_world(w) else {
                    panic!("hybrid must stay hybrid");
                };
                assert_eq!(w % shard_size, 0, "k={k} w={w} → {shard_size}");
                assert!(shard_size <= k.min(w).max(1));
            }
        }
    }

    #[test]
    fn backward_regather_semantics() {
        assert!(ShardingStrategy::FullShard.regathers_in_backward());
        assert!(ShardingStrategy::Hybrid { shard_size: 2 }.regathers_in_backward());
        assert!(!ShardingStrategy::ShardGradOp.regathers_in_backward());
        assert!(!ShardingStrategy::NoShard.regathers_in_backward());
    }
}
