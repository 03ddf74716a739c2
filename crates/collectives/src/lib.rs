//! # geofm-collectives
//!
//! Shared-memory process groups and collective operations — the transport
//! substrate under `geofm-fsdp`, playing the role RCCL-over-Slingshot plays
//! on Frontier.
//!
//! A *rank* is an OS thread; a *group* is a set of ranks that synchronise
//! through a custom sense-reversing barrier (built from atomics, per the
//! "Rust Atomics and Locks" playbook) and exchange data through per-rank
//! mailboxes. The collectives are chunk-parallel: every reduce is
//! decomposed into a reduce-scatter-like phase (each rank owns a chunk) and
//! a gather phase, which is work-optimal in shared memory.
//!
//! Every operation updates a [`TrafficCounter`] with the *logical network
//! bytes* the same collective would move on a real interconnect (ring-
//! algorithm accounting). `geofm-frontier` prices those same byte counts,
//! and an integration test cross-validates the two.
//!
//! The reduce collectives additionally carry a silent-data-corruption
//! guard (see [`guard`]): per-chunk CRC32 publication before the exchange
//! and optional post-exchange verification ([`RankHandle::with_checksums`]),
//! surfacing an injected or real bit flip as a structured
//! [`CorruptPayload`] on every rank instead of averaging garbage.
//!
//! Finally, the collectives come in a *nonblocking* flavour: a per-rank
//! [`CommThread`] plays the role of the GPU comm stream, and its
//! `*_async` methods return a [`CollectiveHandle`] whose `wait()` yields
//! bit-identical results to the blocking call (see [`nonblocking`]) —
//! the substrate of `geofm-fsdp`'s comm/compute overlap engine.

pub mod adaptive;
pub mod barrier;
pub mod consensus;
pub mod group;
pub mod guard;
pub mod hierarchy;
pub mod nonblocking;
pub mod pool;
pub mod spsc;
pub mod traffic;

pub use adaptive::{AdaptiveTimeout, AdaptiveTimeoutConfig};
pub use barrier::{RankLost, SenseBarrier};
pub use consensus::{ConsensusError, SurvivorConsensus};
pub use group::{Group, RankHandle};
pub use guard::{CollectiveError, CorruptPayload, SabotageCell};
pub use hierarchy::{HierarchyLayout, ProcessGroups, RankGroups};
pub use nonblocking::{
    AsyncOp, CellPoolStats, CollectiveHandle, CommGroup, CommThread, OwnedAsyncOp,
};
pub use pool::{BufferPool, PoolStats};
pub use traffic::{CollectiveKind, TrafficCounter, TrafficSnapshot};
