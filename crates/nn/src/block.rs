//! Transformer MLP and the pre-LN encoder block.

use crate::activation::Gelu;
use crate::attention::MultiHeadAttention;
use crate::linear::Linear;
use crate::norm::LayerNorm;
use crate::param::{Module, ParamVisitor};
use geofm_tensor::{Tensor, TensorRng};

/// Two-layer MLP with GELU: `width → mlp_width → width`.
#[derive(Debug, Clone)]
pub struct Mlp {
    /// Expansion projection.
    pub fc1: Linear,
    /// Contraction projection.
    pub fc2: Linear,
    act: Gelu,
}

impl Mlp {
    /// New MLP.
    pub fn new(width: usize, mlp_width: usize, rng: &mut TensorRng, name: &str) -> Self {
        Self {
            fc1: Linear::new(width, mlp_width, rng, &format!("{name}.fc1")),
            fc2: Linear::new(mlp_width, width, rng, &format!("{name}.fc2")),
            act: Gelu::new(),
        }
    }

    /// Forward for `x: [n, width]`.
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        let h = self.fc1.forward(x);
        let a = self.act.forward(&h);
        self.fc2.forward(&a)
    }

    /// Inference-only forward.
    pub fn forward_inference(&self, x: &Tensor) -> Tensor {
        let h = self.fc1.forward_inference(x);
        let a = self.act.forward_inference(&h);
        self.fc2.forward_inference(&a)
    }

    /// Backward; returns `dx`.
    pub fn backward(&mut self, dy: &Tensor) -> Tensor {
        let da = self.fc2.backward(dy);
        let dh = self.act.backward(&da);
        self.fc1.backward(&dh)
    }
}

impl Module for Mlp {
    fn visit_params(&mut self, f: &mut ParamVisitor) {
        self.fc1.visit_params(f);
        self.fc2.visit_params(f);
    }
}

/// Pre-LN transformer encoder block:
/// `x + Attn(LN₁(x))` then `· + MLP(LN₂(·))`.
///
/// This is the unit `geofm-fsdp` wraps (one FSDP "unit" per block), so its
/// parameter visitation order defines a flat-param layout.
#[derive(Debug, Clone)]
pub struct TransformerBlock {
    /// Pre-attention LayerNorm.
    pub ln1: LayerNorm,
    /// Self-attention.
    pub attn: MultiHeadAttention,
    /// Pre-MLP LayerNorm.
    pub ln2: LayerNorm,
    /// Feed-forward network.
    pub mlp: Mlp,
    width: usize,
}

impl TransformerBlock {
    /// New block.
    pub fn new(width: usize, mlp_width: usize, heads: usize, rng: &mut TensorRng, name: &str) -> Self {
        Self {
            ln1: LayerNorm::new(width, &format!("{name}.ln1")),
            attn: MultiHeadAttention::new(width, heads, rng, &format!("{name}.attn")),
            ln2: LayerNorm::new(width, &format!("{name}.ln2")),
            mlp: Mlp::new(width, mlp_width, rng, &format!("{name}.mlp")),
            width,
        }
    }

    /// Forward for `x: [b, t, width]`, caching for backward.
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        let (b, t, w) = (x.dim(0), x.dim(1), x.dim(2));
        assert_eq!(w, self.width, "block width mismatch");
        let flat = x.clone().reshape(&[b * t, w]);
        let n1 = self.ln1.forward(&flat).reshape(&[b, t, w]);
        let attn_out = self.attn.forward(&n1);
        let mut h = x.clone();
        h.add_assign(&attn_out);
        let hflat = h.clone().reshape(&[b * t, w]);
        let n2 = self.ln2.forward(&hflat);
        let mlp_out = self.mlp.forward(&n2).reshape(&[b, t, w]);
        let mut y = h;
        y.add_assign(&mlp_out);
        y
    }

    /// Inference-only forward.
    pub fn forward_inference(&self, x: &Tensor) -> Tensor {
        let (b, t, w) = (x.dim(0), x.dim(1), x.dim(2));
        let flat = x.clone().reshape(&[b * t, w]);
        let n1 = self.ln1.forward_inference(&flat).reshape(&[b, t, w]);
        let attn_out = self.attn.forward_inference(&n1);
        let mut h = x.clone();
        h.add_assign(&attn_out);
        let hflat = h.clone().reshape(&[b * t, w]);
        let n2 = self.ln2.forward_inference(&hflat);
        let mlp_out = self.mlp.forward_inference(&n2).reshape(&[b, t, w]);
        let mut y = h;
        y.add_assign(&mlp_out);
        y
    }

    /// Backward; returns `dx: [b, t, width]`.
    pub fn backward(&mut self, dy: &Tensor) -> Tensor {
        let (b, t, w) = (dy.dim(0), dy.dim(1), dy.dim(2));
        // y = h + mlp(ln2(h)); dh = dy + ln2ᵀ(mlpᵀ(dy))
        let dmlp = self.mlp.backward(&dy.clone().reshape(&[b * t, w]));
        let dh_from_mlp = self.ln2.backward(&dmlp);
        let mut dh = dy.clone();
        dh.add_assign(&dh_from_mlp.reshape(&[b, t, w]));
        // h = x + attn(ln1(x)); dx = dh + ln1ᵀ(attnᵀ(dh))
        let dattn = self.attn.backward(&dh);
        let dx_from_attn = self.ln1.backward(&dattn.reshape(&[b * t, w]));
        let mut dx = dh;
        dx.add_assign(&dx_from_attn.reshape(&[b, t, w]));
        dx
    }
}

impl Module for TransformerBlock {
    fn visit_params(&mut self, f: &mut ParamVisitor) {
        self.ln1.visit_params(f);
        self.attn.visit_params(f);
        self.ln2.visit_params(f);
        self.mlp.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mlp_gradcheck() {
        let mut rng = TensorRng::seed_from(10);
        let mut mlp = Mlp::new(4, 8, &mut rng, "t");
        let x = rng.randn(&[3, 4], 1.0);
        let dy = rng.randn(&[3, 4], 1.0);
        mlp.forward(&x);
        let dx = mlp.backward(&dy);
        let loss = |m: &Mlp, xin: &Tensor| -> f32 {
            m.forward_inference(xin).data().iter().zip(dy.data()).map(|(a, b)| a * b).sum()
        };
        let eps = 1e-2f32;
        for i in [0usize, 5, 11] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let fd = (loss(&mlp, &xp) - loss(&mlp, &xm)) / (2.0 * eps);
            assert!((fd - dx.data()[i]).abs() < 3e-2, "dx[{}]: {} vs {}", i, fd, dx.data()[i]);
        }
        for i in [0usize, 9, 31] {
            let mut mp = mlp.clone();
            mp.fc1.weight.value.data_mut()[i] += eps;
            let mut mm = mlp.clone();
            mm.fc1.weight.value.data_mut()[i] -= eps;
            let fd = (loss(&mp, &x) - loss(&mm, &x)) / (2.0 * eps);
            let an = mlp.fc1.weight.grad.data()[i];
            assert!((fd - an).abs() < 3e-2, "dW1[{}]: {} vs {}", i, fd, an);
        }
    }

    #[test]
    fn block_forward_shape_and_residual() {
        let mut rng = TensorRng::seed_from(11);
        let mut blk = TransformerBlock::new(8, 16, 2, &mut rng, "t");
        let x = rng.randn(&[2, 4, 8], 1.0);
        let y = blk.forward(&x);
        assert_eq!(y.shape(), &[2, 4, 8]);
        // with near-zero init weights the block is approximately identity + noise;
        // output must stay correlated with input (residual path).
        let diff = y.sub(&x);
        assert!(diff.l2_norm() < x.l2_norm(), "residual path should dominate at init");
    }

    #[test]
    fn block_gradcheck() {
        let mut rng = TensorRng::seed_from(12);
        let mut blk = TransformerBlock::new(4, 8, 2, &mut rng, "t");
        let x = rng.randn(&[1, 3, 4], 0.7);
        let dy = rng.randn(&[1, 3, 4], 1.0);
        blk.forward(&x);
        let dx = blk.backward(&dy);
        let loss = |b: &TransformerBlock, xin: &Tensor| -> f32 {
            b.forward_inference(xin).data().iter().zip(dy.data()).map(|(p, q)| p * q).sum()
        };
        let eps = 1e-2f32;
        for i in 0..12 {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let fd = (loss(&blk, &xp) - loss(&blk, &xm)) / (2.0 * eps);
            assert!(
                (fd - dx.data()[i]).abs() < 6e-2,
                "dx[{}]: fd {} vs analytic {}",
                i,
                fd,
                dx.data()[i]
            );
        }
    }

    #[test]
    fn block_param_count() {
        let mut rng = TensorRng::seed_from(13);
        let w = 8;
        let m = 16;
        let mut blk = TransformerBlock::new(w, m, 2, &mut rng, "t");
        let expect = 2 * w // ln1
            + (w * 3 * w + 3 * w) + (w * w + w) // attn
            + 2 * w // ln2
            + (w * m + m) + (m * w + w); // mlp
        assert_eq!(blk.num_params(), expect);
    }

    #[test]
    fn training_and_inference_forward_agree() {
        let mut rng = TensorRng::seed_from(14);
        let mut blk = TransformerBlock::new(8, 16, 2, &mut rng, "t");
        let x = rng.randn(&[2, 3, 8], 1.0);
        let y1 = blk.forward(&x);
        let y2 = blk.forward_inference(&x);
        assert!(y1.max_abs_diff(&y2) < 1e-5);
    }
}
