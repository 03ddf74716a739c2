//! # geofm
//!
//! A Rust reproduction of *"Pretraining Billion-scale Geospatial
//! Foundational Models on Frontier"* (Tsaris et al., ORNL, 2024):
//! MAE-pretrained Vision Transformers for remote-sensing imagery, a real
//! FSDP-style sharded training engine, and a calibrated discrete-event
//! simulator of the Frontier supercomputer that regenerates the paper's
//! performance study.
//!
//! This crate re-exports the whole workspace as one umbrella API:
//!
//! * [`tensor`] — dense f32 tensors + rayon kernels
//! * [`nn`] — layers with explicit backward, optimizers (AdamW/LARS/SGD)
//! * [`vit`] — ViT configurations (paper Table I) and the encoder model
//! * [`mae`] — masked-autoencoder pretraining and linear probing
//! * [`data`] — synthetic MillionAID/UCM/AID/NWPU scene datasets + the
//!   streaming ingest plane
//! * [`collectives`] — threaded process groups (all-reduce/-gather/…)
//! * [`fsdp`] — NO_SHARD / FULL_SHARD / SHARD_GRAD_OP / HYBRID / DDP
//! * [`frontier`] — the Frontier machine model and simulator
//! * [`core`] — the end-to-end pretrain → linear-probe recipe, pretraining
//!   through the FSDP engine
//! * [`telemetry`] — metrics registry + Chrome-trace span recorder
//! * [`resilience`] — fault plans, crash-safe checkpoint format, MTBF /
//!   Young-Daly goodput modeling
//!
//! ## Quickstart
//!
//! ```
//! use geofm::core::{pretrain, probe_dataset, RecipeConfig};
//! use geofm::data::DatasetKind;
//! use geofm::vit::VitConfig;
//!
//! // a tiny budget so the doctest runs in seconds
//! let rc = RecipeConfig {
//!     pretrain_images: 64,
//!     pretrain_epochs: 1,
//!     probe_epochs: 2,
//!     probe_scale: 0.02,
//!     max_test: 60,
//!     ..RecipeConfig::default()
//! };
//! let family = VitConfig::tiny_family();
//! let out = pretrain(&family[0], &rc);
//! let probe = probe_dataset(&out.encoder, DatasetKind::Ucm, &rc);
//! assert!(probe.final_top1 >= 0.0 && probe.final_top5 <= 1.0);
//! ```

pub use geofm_collectives as collectives;
pub use geofm_core as core;
pub use geofm_data as data;
pub use geofm_fsdp as fsdp;
pub use geofm_frontier as frontier;
pub use geofm_mae as mae;
pub use geofm_nn as nn;
pub use geofm_resilience as resilience;
pub use geofm_serve as serve;
pub use geofm_tensor as tensor;
pub use geofm_telemetry as telemetry;
pub use geofm_vit as vit;
