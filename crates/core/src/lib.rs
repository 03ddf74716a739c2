//! # geofm-core
//!
//! The paper's end-to-end recipe (§V): MAE-pretrain a family of ViT
//! encoders on (synthetic) MillionAID, then linear-probe each one on the
//! four scene-classification benchmarks and report top-1/top-5 accuracy as
//! a function of model scale.
//!
//! Everything is scaled down proportionally from the paper's setup (the
//! hardware here is a single CPU core, not 64 Frontier nodes); the
//! hyper-parameter *structure* is preserved: AdamW + cosine + warmup +
//! 75 % masking for pretraining, frozen encoder + LARS + cosine for
//! probing. The scale knobs live in [`RecipeConfig`] and are env-tunable
//! (`GEOFM_SCALE`) so the reproduction can be run at different budgets.

pub mod checkpoint;
pub mod pipeline;
pub mod recipe;

pub use checkpoint::{pretrain_cached, pretrain_cached_in};
pub use pipeline::{pretrain, probe_dataset, DatasetProbe, PretrainOutcome, ProbePoint};
pub use recipe::RecipeConfig;

/// The workspace's single table-driven CRC32 (and its streaming form),
/// re-exported as the canonical integrity primitive. The implementation
/// lives in `geofm_resilience::ckpt` — the most dependency-light crate
/// that needs it — because `geofm-core` sits at the *top* of the workspace
/// graph and hosting it here would cycle; every consumer (checkpoint
/// footers here, collective payload checksums in `geofm-collectives`,
/// GEOFMCK3 training checkpoints in `geofm-resilience`) shares this one
/// table.
pub use geofm_resilience::{crc32, crc32_update};
