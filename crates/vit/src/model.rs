//! The trainable ViT encoder model.

use crate::config::VitConfig;
use geofm_nn::{LayerNorm, Module, ParamVisitor, PatchEmbed, TransformerBlock};
use geofm_tensor::{Tensor, TensorRng};

/// A ViT encoder: patch embedding → transformer blocks → final LayerNorm.
///
/// The model exposes a *token-level* API (`encode_tokens` /
/// `backward_tokens`) in addition to the image-level one, because MAE
/// pretraining runs the encoder on the **visible subset** of tokens only.
#[derive(Debug, Clone)]
pub struct VitModel {
    /// Architecture description.
    pub config: VitConfig,
    /// Patch + positional embedding stem.
    pub embed: PatchEmbed,
    /// Encoder blocks.
    pub blocks: Vec<TransformerBlock>,
    /// Final LayerNorm.
    pub final_ln: LayerNorm,
}

impl VitModel {
    /// Build a model with ViT-standard initialisation from `rng`.
    pub fn new(config: &VitConfig, rng: &mut TensorRng) -> Self {
        let embed = PatchEmbed::new(
            config.img,
            config.patch,
            config.channels,
            config.width,
            rng,
            &format!("{}.embed", config.name),
        );
        let blocks = (0..config.depth)
            .map(|i| {
                TransformerBlock::new(
                    config.width,
                    config.mlp,
                    config.heads,
                    rng,
                    &format!("{}.block{}", config.name, i),
                )
            })
            .collect();
        let final_ln = LayerNorm::new(config.width, &format!("{}.ln", config.name));
        Self { config: config.clone(), embed, blocks, final_ln }
    }

    /// Embed images into the token sequence (`[b, C·H·W]` → `[b, T, W]`).
    pub fn embed_images(&mut self, images: &Tensor) -> Tensor {
        self.embed.forward(images)
    }

    /// Inference-only embedding.
    pub fn embed_images_inference(&self, images: &Tensor) -> Tensor {
        self.embed.forward_inference(images)
    }

    /// Run the encoder blocks + final LN over a token sequence
    /// (`[b, t, W]` → `[b, t, W]`), caching for backward.
    pub fn encode_tokens(&mut self, tokens: &Tensor) -> Tensor {
        let mut x = tokens.clone();
        for blk in &mut self.blocks {
            x = blk.forward(&x);
        }
        let (b, t, w) = (x.dim(0), x.dim(1), x.dim(2));
        let flat = x.reshape(&[b * t, w]);
        self.final_ln.forward(&flat).reshape(&[b, t, w])
    }

    /// Inference-only encoding.
    pub fn encode_tokens_inference(&self, tokens: &Tensor) -> Tensor {
        let mut x = tokens.clone();
        for blk in &self.blocks {
            x = blk.forward_inference(&x);
        }
        let (b, t, w) = (x.dim(0), x.dim(1), x.dim(2));
        let flat = x.reshape(&[b * t, w]);
        self.final_ln.forward_inference(&flat).reshape(&[b, t, w])
    }

    /// Backward through final LN and blocks; returns gradient w.r.t. the
    /// token sequence passed to [`VitModel::encode_tokens`].
    pub fn backward_tokens(&mut self, dy: &Tensor) -> Tensor {
        let (b, t, w) = (dy.dim(0), dy.dim(1), dy.dim(2));
        let flat = dy.clone().reshape(&[b * t, w]);
        let mut dx = self.final_ln.backward(&flat).reshape(&[b, t, w]);
        for blk in self.blocks.iter_mut().rev() {
            dx = blk.backward(&dx);
        }
        dx
    }

    /// Full forward: images → encoded tokens (cached for backward).
    pub fn forward(&mut self, images: &Tensor) -> Tensor {
        let tokens = self.embed_images(images);
        self.encode_tokens(&tokens)
    }

    /// Full backward: token gradients → parameter gradients (images are
    /// leaves, so nothing is returned).
    pub fn backward(&mut self, dy: &Tensor) {
        let dtokens = self.backward_tokens(dy);
        self.embed.backward(&dtokens);
    }

    /// Mean-pooled features for linear probing: `[b, C·H·W]` → `[b, W]`.
    pub fn features_inference(&self, images: &Tensor) -> Tensor {
        let tokens = self.embed_images_inference(images);
        let enc = self.encode_tokens_inference(&tokens);
        mean_pool_tokens(&enc)
    }

    /// First- and second-moment pooled features: `[b, C·H·W]` → `[b, 2W]`
    /// (`[mean_pool ‖ std_pool]` over the token axis).
    ///
    /// Texture-defined scene classes (orientation × frequency — most of
    /// remote sensing) produce *phase-varying* token features whose mean
    /// cancels across the grid; the per-dimension standard deviation over
    /// tokens retains that energy. This is the classic second-order texture
    /// descriptor, applied to the frozen encoder's token field.
    pub fn features_moments_inference(&self, images: &Tensor) -> Tensor {
        let tokens = self.embed_images_inference(images);
        let enc = self.encode_tokens_inference(&tokens);
        let (b, t, w) = (enc.dim(0), enc.dim(1), enc.dim(2));
        let mean = mean_pool_tokens(&enc);
        let mut out = Tensor::zeros(&[b, 2 * w]);
        let src = enc.data();
        for bi in 0..b {
            let mrow = mean.row(bi);
            let orow = out.row_mut(bi);
            orow[..w].copy_from_slice(mrow);
            for ti in 0..t {
                let row = &src[(bi * t + ti) * w..(bi * t + ti + 1) * w];
                for (j, &v) in row.iter().enumerate() {
                    let d = v - mrow[j];
                    orow[w + j] += d * d;
                }
            }
            for j in 0..w {
                orow[w + j] = (orow[w + j] / t as f32).sqrt();
            }
        }
        out
    }

    /// Parameter counts per FSDP unit: `[embed, block₀ … block_d, final_ln]`.
    ///
    /// This layout is the contract with `geofm-fsdp`'s flat-parameter
    /// sharding and with the Frontier simulator's communication schedule.
    pub fn unit_param_counts(&mut self) -> Vec<usize> {
        let mut counts = vec![self.embed.num_params()];
        for blk in &mut self.blocks {
            counts.push(blk.num_params());
        }
        counts.push(self.final_ln.num_params());
        counts
    }
}

/// Average a token sequence over the token axis: `[b, t, w]` → `[b, w]`.
pub fn mean_pool_tokens(tokens: &Tensor) -> Tensor {
    let (b, t, w) = (tokens.dim(0), tokens.dim(1), tokens.dim(2));
    let mut out = Tensor::zeros(&[b, w]);
    let src = tokens.data();
    let inv_t = 1.0 / t as f32;
    for bi in 0..b {
        let orow = out.row_mut(bi);
        for ti in 0..t {
            let row = &src[(bi * t + ti) * w..(bi * t + ti + 1) * w];
            for (o, &v) in orow.iter_mut().zip(row) {
                *o += v * inv_t;
            }
        }
    }
    out
}

impl Module for VitModel {
    fn visit_params(&mut self, f: &mut ParamVisitor) {
        self.embed.visit_params(f);
        for blk in &mut self.blocks {
            blk.visit_params(f);
        }
        self.final_ln.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::VitConfig;

    fn tiny() -> VitConfig {
        VitConfig {
            name: "test".into(),
            width: 16,
            depth: 2,
            mlp: 32,
            heads: 4,
            patch: 4,
            img: 8,
            channels: 3,
        }
    }

    #[test]
    fn instantiated_params_match_analytic_count() {
        let cfg = tiny();
        let mut rng = TensorRng::seed_from(1);
        let mut model = VitModel::new(&cfg, &mut rng);
        assert_eq!(model.num_params() as u64, cfg.param_count());
    }

    #[test]
    fn tiny_family_instantiated_matches_analytic() {
        for cfg in VitConfig::tiny_family() {
            let mut rng = TensorRng::seed_from(2);
            let mut model = VitModel::new(&cfg, &mut rng);
            assert_eq!(model.num_params() as u64, cfg.param_count(), "{}", cfg.name);
        }
    }

    #[test]
    fn forward_shapes() {
        let cfg = tiny();
        let mut rng = TensorRng::seed_from(3);
        let mut model = VitModel::new(&cfg, &mut rng);
        let imgs = rng.randn(&[2, cfg.channels * cfg.img * cfg.img], 1.0);
        let enc = model.forward(&imgs);
        assert_eq!(enc.shape(), &[2, cfg.tokens(), cfg.width]);
        let feats = model.features_inference(&imgs);
        assert_eq!(feats.shape(), &[2, cfg.width]);
        assert!(!feats.has_non_finite());
    }

    #[test]
    fn unit_param_counts_sum_to_total() {
        let cfg = tiny();
        let mut rng = TensorRng::seed_from(4);
        let mut model = VitModel::new(&cfg, &mut rng);
        let units = model.unit_param_counts();
        assert_eq!(units.len(), cfg.depth + 2);
        assert_eq!(units.iter().sum::<usize>() as u64, cfg.param_count());
    }

    #[test]
    fn moment_features_have_double_width_and_match_mean() {
        let cfg = tiny();
        let mut rng = TensorRng::seed_from(21);
        let model = VitModel::new(&cfg, &mut rng);
        let imgs = rng.randn(&[3, cfg.channels * cfg.img * cfg.img], 1.0);
        let mean = model.features_inference(&imgs);
        let moments = model.features_moments_inference(&imgs);
        assert_eq!(moments.shape(), &[3, 2 * cfg.width]);
        // first half equals the mean pooling
        for b in 0..3 {
            for j in 0..cfg.width {
                assert!((moments.at(&[b, j]) - mean.at(&[b, j])).abs() < 1e-5);
            }
            // std half is non-negative
            for j in cfg.width..2 * cfg.width {
                assert!(moments.at(&[b, j]) >= 0.0);
            }
        }
    }

    #[test]
    fn moment_std_is_zero_for_constant_tokens() {
        // if all tokens were identical the std half would vanish; approximate
        // by checking the computation directly on a hand-made token field
        let t = Tensor::from_vec(&[1, 2, 2], vec![3., 5., 3., 5.]);
        let mean = mean_pool_tokens(&t);
        assert_eq!(mean.data(), &[3., 5.]);
    }

    #[test]
    fn mean_pool_averages() {
        let t = Tensor::from_vec(&[1, 2, 2], vec![1., 2., 3., 4.]);
        let p = mean_pool_tokens(&t);
        assert_eq!(p.data(), &[2., 3.]);
    }

    #[test]
    fn end_to_end_gradients_flow() {
        // One training step reduces a simple loss: L = Σ enc ⊙ target.
        let cfg = tiny();
        let mut rng = TensorRng::seed_from(5);
        let mut model = VitModel::new(&cfg, &mut rng);
        let imgs = rng.randn(&[2, cfg.channels * cfg.img * cfg.img], 1.0);
        let target = rng.randn(&[2, cfg.tokens(), cfg.width], 1.0);

        let loss_of = |m: &mut VitModel| -> f32 {
            let enc = m.forward(&imgs);
            enc.data().iter().zip(target.data()).map(|(a, b)| a * b).sum()
        };

        let before = loss_of(&mut model);
        model.zero_grad();
        let _ = model.forward(&imgs);
        model.backward(&target); // dL/denc = target
        // gradient-descent step over the flat parameters
        let mut flat = Vec::new();
        model.pack_values(&mut flat);
        let mut grads = Vec::new();
        model.pack_grads(&mut grads);
        assert!(grads.iter().any(|&g| g != 0.0), "gradients must be non-zero");
        for (p, g) in flat.iter_mut().zip(&grads) {
            *p -= 1e-3 * g;
        }
        model.unpack_values(&flat);
        let after = loss_of(&mut model);
        assert!(after < before, "loss should decrease: {} -> {}", before, after);
    }

    #[test]
    fn deterministic_construction() {
        let cfg = tiny();
        let mut r1 = TensorRng::seed_from(77);
        let mut r2 = TensorRng::seed_from(77);
        let mut m1 = VitModel::new(&cfg, &mut r1);
        let mut m2 = VitModel::new(&cfg, &mut r2);
        let (mut f1, mut f2) = (Vec::new(), Vec::new());
        m1.pack_values(&mut f1);
        m2.pack_values(&mut f2);
        assert_eq!(f1, f2);
    }
}
