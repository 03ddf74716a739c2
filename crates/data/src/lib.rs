//! # geofm-data
//!
//! Synthetic remote-sensing scene datasets and a fault-tolerant streaming
//! ingest plane.
//!
//! The paper pretrains on MillionAID (990 848 optical scenes, 51 classes)
//! and probes on UCM (21), AID (30) and NWPU-RESISC45 (45). Those archives
//! are not redistributable and far exceed this environment, so this crate
//! generates **procedural scenes whose class identity is a conjunction of
//! texture attributes** (layout kind × orientation × spatial frequency ×
//! palette) under heavy per-sample nuisance variation (illumination, phase,
//! jitter, sensor noise).
//!
//! Why this preserves the paper's phenomenon: linear probing from raw pixels
//! is weak because nuisances dominate pixel statistics; recovering the class
//! requires *combinations* of mid-level texture features, which is exactly
//! what MAE-pretrained encoders of growing capacity get progressively better
//! at extracting. That mechanism — not the specific imagery — is what
//! Table III measures.
//!
//! The **fault-tolerant streaming ingest plane** serves them from disk:
//! [`shard`] defines the CRC-checked `GEOFMSH1` on-disk shard format,
//! [`store`] abstracts shard access behind a [`store::ShardStore`] trait
//! (real files or a fault-injectable simulation), and [`stream`] serves
//! verified, hedged, quarantine-aware batches to FSDP ranks.

pub mod datasets;
pub mod scene;
pub mod shard;
pub mod store;
pub mod stream;

pub use datasets::{DatasetKind, SceneDataset, SplitSizes};
pub use scene::{ClassSpec, SceneRenderer};
pub use shard::{build_corpus, CorpusManifest, RawRecord, ShardError, ShardHeader, ShardReader};
pub use store::{FsShardStore, ReadError, ShardStore, SimShardStore, StoreMeta};
pub use stream::{Batch, DefenseConfig, IngestError, IngestPlane, StreamConfig};
