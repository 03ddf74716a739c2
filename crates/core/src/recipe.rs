//! Scaled experiment configuration.

/// Scale knobs for the §V reproduction.
///
/// `scale = 1.0` is the default CPU budget (minutes, not days); the paper's
/// own scale would be `pretrain_images = 990_848`, `pretrain_epochs = 100`,
/// `global_batch = 2048`, probes at the exact Table II sizes.
#[derive(Debug, Clone)]
pub struct RecipeConfig {
    /// Pretraining corpus size (synthetic MillionAID samples).
    pub pretrain_images: usize,
    /// Pretraining epochs.
    pub pretrain_epochs: usize,
    /// Pretraining batch size.
    pub batch: usize,
    /// Effective peak learning rate for AdamW pretraining.
    pub pretrain_lr: f32,
    /// Probe epochs (paper: 100).
    pub probe_epochs: usize,
    /// Probe batch size (paper: 256 / 1024).
    pub probe_batch: usize,
    /// Effective peak learning rate for LARS probing.
    pub probe_lr: f32,
    /// Scale applied to Table II probe split sizes.
    pub probe_scale: f64,
    /// Cap on test-set size per dataset (keeps CPU feature extraction sane).
    pub max_test: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for RecipeConfig {
    fn default() -> Self {
        Self {
            pretrain_images: 768,
            pretrain_epochs: 24,
            batch: 32,
            pretrain_lr: 2e-3,
            probe_epochs: 40,
            probe_batch: 64,
            probe_lr: 8.0,
            probe_scale: 0.15,
            max_test: 1000,
            seed: 42,
        }
    }
}

impl RecipeConfig {
    /// Read the `GEOFM_SCALE` env var (default 1.0) and scale the compute
    /// budget accordingly (corpus size, epochs).
    pub fn from_env() -> Self {
        let scale: f64 = std::env::var("GEOFM_SCALE")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(1.0);
        let base = Self::default();
        Self {
            pretrain_images: ((base.pretrain_images as f64 * scale) as usize).max(64),
            pretrain_epochs: ((base.pretrain_epochs as f64 * scale.sqrt()) as usize).max(2),
            probe_epochs: ((base.probe_epochs as f64 * scale.sqrt()) as usize).max(5),
            probe_scale: (base.probe_scale * scale).clamp(0.02, 1.0),
            ..base
        }
    }

    /// Total pretraining optimizer steps.
    pub fn pretrain_steps(&self) -> usize {
        (self.pretrain_images / self.batch).max(1) * self.pretrain_epochs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_modest() {
        let c = RecipeConfig::default();
        assert!(c.pretrain_steps() > 100);
        assert!(c.pretrain_steps() < 10_000);
    }

    #[test]
    fn from_env_without_var_is_default_sized() {
        std::env::remove_var("GEOFM_SCALE");
        let c = RecipeConfig::from_env();
        assert_eq!(c.pretrain_images, RecipeConfig::default().pretrain_images);
    }
}
