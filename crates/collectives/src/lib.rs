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
//! Every collective is blocking: [`RankHandle`]'s verbs (`try_all_gather`,
//! `try_reduce_scatter`, `try_all_reduce`, `try_barrier`) return once the
//! exchange is complete, and they are the only way a rank reaches its
//! peers. Overlap of communication with compute is priced by the
//! `geofm-frontier` simulator, not run here.

pub mod adaptive;
pub mod barrier;
pub mod group;
pub mod guard;
pub mod hierarchy;
pub mod traffic;

pub use adaptive::{AdaptiveTimeout, AdaptiveTimeoutConfig};
pub use barrier::{RankLost, SenseBarrier};
pub use group::{Group, RankHandle};
pub use guard::{CollectiveError, CorruptPayload, SabotageCell};
pub use hierarchy::{HierarchyLayout, ProcessGroups, RankGroups};
pub use traffic::{CollectiveKind, TrafficCounter, TrafficSnapshot};
