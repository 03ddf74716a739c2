//! # geofm-mae
//!
//! The masked autoencoder and linear-probe evaluation of the paper's §V
//! pipeline. Pretraining has one loop, the FSDP engine's (`geofm-fsdp`);
//! `geofm-core`'s `pretrain` drives it with the paper's recipe.
//!
//! * [`MaeModel`] — ViT encoder on **visible tokens only** + lightweight
//!   transformer decoder reconstructing the masked patches (He et al. 2022,
//!   the architecture the paper pretrains).
//! * [`MaskSampler`] — per-sample random 75 % masking.
//! * [`LinearProbe`] — frozen-encoder linear classification with LARS
//!   (base lr 0.1, no weight decay, per paper §V-C), reporting top-1/top-5.

pub mod fewshot;
pub mod finetune;
pub mod mask;
pub mod model;
pub mod probe;
pub mod segmentation;

pub use fewshot::{few_shot_eval, FewShotResult};
pub use finetune::FineTuner;
pub use mask::{MaskPlan, MaskSampler};
pub use model::{MaeConfig, MaeModel};
pub use probe::{paper_lr, LinearProbe, ProbeEpochStats};
pub use segmentation::{patch_labels, SegMetrics, SegProbe};
