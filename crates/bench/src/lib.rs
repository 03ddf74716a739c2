//! # geofm-bench
//!
//! Criterion benchmarks for the `geofm` workspace. Each bench file covers
//! one performance-critical layer:
//!
//! * `kernels` — matmul variants and attention forward/backward
//! * `collectives` — all-reduce across rank counts and sizes, and all-gather
//! * `fsdp_step` — full distributed step per sharding strategy, plus the
//!   unit-granularity ablation (per-block units vs one whole-model unit)
//! * `simulator` — DES throughput for the paper's largest configurations
//! * `datagen` — synthetic scene rendering
//! * `mae_step` — end-to-end MAE pretraining step for the tiny family
//!
//! All benches use reduced sample counts so `cargo bench --workspace`
//! completes in minutes on one core.

use criterion::Criterion;

/// Shared Criterion configuration: small sample counts, short measurement
/// windows (the suite must run on a single CPU core).
pub fn quick_criterion() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_millis(700))
        .warm_up_time(std::time::Duration::from_millis(200))
        .configure_from_args()
}
