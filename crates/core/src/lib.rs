//! # geofm-core
//!
//! The paper's end-to-end recipe (§V): MAE-pretrain a family of ViT
//! encoders on (synthetic) MillionAID, then linear-probe each one on the
//! four scene-classification benchmarks and report top-1/top-5 accuracy as
//! a function of model scale.
//!
//! Pretraining runs through the FSDP engine (`geofm-fsdp`) at world 1, so
//! the figures share the trainer path of the benchmark and the chaos
//! suites, and each encoder trains on all of the host's cores.
//!
//! Everything is scaled down proportionally from the paper's setup (one
//! CPU host here, not 64 Frontier nodes); the hyper-parameter *structure*
//! is preserved: AdamW + cosine + warmup + 75 % masking for pretraining,
//! frozen encoder + LARS + cosine for probing. The scale knobs live in
//! [`RecipeConfig`] and are env-tunable (`GEOFM_SCALE`) so the
//! reproduction can be run at different budgets.

pub mod pipeline;
pub mod recipe;

pub use pipeline::{pretrain, probe_dataset, DatasetProbe, PretrainOutcome, ProbePoint};
pub use recipe::RecipeConfig;
