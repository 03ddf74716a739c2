//! # geofm-fsdp
//!
//! A real (threaded, shared-memory) implementation of PyTorch-FSDP-style
//! fully sharded data parallelism — the paper's §III-C machinery, built on
//! `geofm-collectives`.
//!
//! Every sharding strategy of the paper is implemented with its exact
//! communication schedule:
//!
//! | strategy        | params            | grads           | optimizer state |
//! |-----------------|-------------------|-----------------|-----------------|
//! | `NO_SHARD`      | replicated        | all-reduce      | replicated      |
//! | `DDP` (baseline)| replicated        | all-reduce (fixed-size buckets) | replicated |
//! | `FULL_SHARD`    | sharded; gathered per unit in fwd **and** bwd | reduce-scatter | sharded |
//! | `SHARD_GRAD_OP` | sharded; gathered once per step | reduce-scatter | sharded |
//! | `HYBRID(k)`     | sharded in groups of k; replicated across groups | reduce-scatter + all-reduce | sharded in group |
//!
//! The engine is **numerically equivalent** across strategies: training the
//! same model with the same global batch under any strategy and world size
//! produces the same weights as single-rank training (verified by the test
//! suite to ~1e-3 in f32). What differs — and what the Frontier simulator
//! prices — is the communication volume and schedule, which the engine
//! meters through the shared [`geofm_collectives::TrafficCounter`].
//!
//! Every collective blocks the rank thread until it completes
//! ([`geofm_collectives::RankHandle`]'s `try_*` verbs). The time a rank
//! spends blocked is its exposed comm, recorded per step as
//! `overlap.exposed.ns` next to the step's wall time `overlap.step.ns`.
//! Hiding that time behind compute is priced by the Frontier simulator
//! (`figU`), not run by this engine.

pub mod flat;
pub mod health;
pub mod rank;
pub mod reshard;
mod runtime;
pub mod sentinel;
pub mod strategy;
pub mod trainer;

pub use flat::FlatLayout;
pub use health::HealthMonitor;
pub use rank::{FsdpRank, StepError, StepReport};
pub use reshard::{global_to_shard, reshard, shards_to_global};
pub use sentinel::{Sentinel, SentinelConfig, SentinelTrip};
pub use strategy::{FsdpConfig, PrefetchPolicy, ShardingStrategy};
pub use trainer::{
    try_run_data_parallel, try_run_elastic, try_run_streaming, DistReport, ElasticConfig,
    GuardConfig, ReshardEvent, ReshardKind, ReshardReport, ResilienceConfig,
};
