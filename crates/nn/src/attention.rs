//! Multi-head self-attention with explicit backward.

use crate::linear::Linear;
use crate::param::{Module, ParamVisitor};
use crate::{merge_heads, split_heads};
use geofm_tensor::{bmm, bmm_a_bt, bmm_at_b, Tensor, TensorRng};

/// Multi-head self-attention: fused QKV projection, scaled dot-product
/// attention per head, output projection.
///
/// Input/output shape is `[batch, tokens, width]`.
#[derive(Debug, Clone)]
pub struct MultiHeadAttention {
    /// Fused projection producing `[q|k|v]`, width → 3·width.
    pub qkv: Linear,
    /// Output projection, width → width.
    pub proj: Linear,
    width: usize,
    heads: usize,
    scale: f32,
    cache: Option<AttnCache>,
}

#[derive(Debug, Clone)]
struct AttnCache {
    q: Tensor,
    k: Tensor,
    v: Tensor,
    /// Softmax probabilities, `[b*heads, t, t]`.
    probs: Tensor,
    batch: usize,
    tokens: usize,
}

impl MultiHeadAttention {
    /// New attention layer of the given width and head count.
    ///
    /// # Panics
    /// Panics unless `width % heads == 0`.
    pub fn new(width: usize, heads: usize, rng: &mut TensorRng, name: &str) -> Self {
        assert_eq!(width % heads, 0, "attention width {} not divisible by {} heads", width, heads);
        let head_dim = width / heads;
        Self {
            qkv: Linear::new(width, 3 * width, rng, &format!("{name}.qkv")),
            proj: Linear::new(width, width, rng, &format!("{name}.proj")),
            width,
            heads,
            scale: 1.0 / (head_dim as f32).sqrt(),
            cache: None,
        }
    }

    /// Number of attention heads.
    pub fn heads(&self) -> usize {
        self.heads
    }

    fn split_qkv(&self, qkv: &Tensor, b: usize, t: usize) -> (Tensor, Tensor, Tensor) {
        // qkv: [b*t, 3*width] → three [b, t, width] tensors
        let w = self.width;
        let mut q = Tensor::zeros(&[b, t, w]);
        let mut k = Tensor::zeros(&[b, t, w]);
        let mut v = Tensor::zeros(&[b, t, w]);
        let src = qkv.data();
        for r in 0..b * t {
            let row = &src[r * 3 * w..(r + 1) * 3 * w];
            q.data_mut()[r * w..(r + 1) * w].copy_from_slice(&row[0..w]);
            k.data_mut()[r * w..(r + 1) * w].copy_from_slice(&row[w..2 * w]);
            v.data_mut()[r * w..(r + 1) * w].copy_from_slice(&row[2 * w..3 * w]);
        }
        (q, k, v)
    }

    fn fuse_dqkv(&self, dq: &Tensor, dk: &Tensor, dv: &Tensor, b: usize, t: usize) -> Tensor {
        let w = self.width;
        let mut dqkv = Tensor::zeros(&[b * t, 3 * w]);
        let dst = dqkv.data_mut();
        for r in 0..b * t {
            let row = &mut dst[r * 3 * w..(r + 1) * 3 * w];
            row[0..w].copy_from_slice(&dq.data()[r * w..(r + 1) * w]);
            row[w..2 * w].copy_from_slice(&dk.data()[r * w..(r + 1) * w]);
            row[2 * w..3 * w].copy_from_slice(&dv.data()[r * w..(r + 1) * w]);
        }
        dqkv
    }

    /// Scaled-dot-product core: returns merged `[b*t, w]` context and probs.
    fn core(&self, q: &Tensor, k: &Tensor, v: &Tensor, b: usize, t: usize) -> (Tensor, Tensor) {
        let mut scores = bmm_a_bt(q, k); // [b*h, t, t]
        scores.scale_assign(self.scale);
        let bh = b * self.heads;
        let mut probs = scores.reshape(&[bh * t, t]);
        probs.softmax_rows_inplace();
        let probs = probs.reshape(&[bh, t, t]);
        let ctx = bmm(&probs, v); // [b*h, t, hd]
        let merged = merge_heads(&ctx, self.heads).reshape(&[b * t, self.width]);
        (merged, probs)
    }

    /// Forward pass with caching for backward. `x: [b, t, w]`.
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        assert_eq!(x.ndim(), 3, "attention expects [batch, tokens, width]");
        let (b, t, w) = (x.dim(0), x.dim(1), x.dim(2));
        assert_eq!(w, self.width, "attention width mismatch");
        let flat = x.clone().reshape(&[b * t, w]);
        let qkv = self.qkv.forward(&flat);
        let (q3, k3, v3) = self.split_qkv(&qkv, b, t);
        let q = split_heads(&q3, self.heads);
        let k = split_heads(&k3, self.heads);
        let v = split_heads(&v3, self.heads);
        let (merged, probs) = self.core(&q, &k, &v, b, t);
        let y = self.proj.forward(&merged);
        self.cache = Some(AttnCache { q, k, v, probs, batch: b, tokens: t });
        y.reshape(&[b, t, w])
    }

    /// Inference-only forward (no caching).
    pub fn forward_inference(&self, x: &Tensor) -> Tensor {
        assert_eq!(x.ndim(), 3, "attention expects [batch, tokens, width]");
        let (b, t, w) = (x.dim(0), x.dim(1), x.dim(2));
        assert_eq!(w, self.width, "attention width mismatch");
        let flat = x.clone().reshape(&[b * t, w]);
        let qkv = self.qkv.forward_inference(&flat);
        let (q3, k3, v3) = self.split_qkv(&qkv, b, t);
        let q = split_heads(&q3, self.heads);
        let k = split_heads(&k3, self.heads);
        let v = split_heads(&v3, self.heads);
        let (merged, _probs) = self.core(&q, &k, &v, b, t);
        self.proj.forward_inference(&merged).reshape(&[b, t, w])
    }

    /// Backward pass; returns `dx: [b, t, w]`.
    pub fn backward(&mut self, dy: &Tensor) -> Tensor {
        let c = self.cache.take().expect("MultiHeadAttention::backward before forward");
        let (b, t, w) = (c.batch, c.tokens, self.width);
        assert_eq!(dy.shape(), &[b, t, w], "attention backward shape mismatch");

        // proj backward
        let dmerged = self.proj.backward(&dy.clone().reshape(&[b * t, w]));
        let dctx = split_heads(&dmerged.reshape(&[b, t, w]), self.heads); // [b*h, t, hd]

        // ctx = probs · v
        let dprobs = bmm_a_bt(&dctx, &c.v); // [b*h, t, t]
        let dv = bmm_at_b(&c.probs, &dctx); // [b*h, t, hd]

        // softmax backward (row-wise over last dim)
        let bh = b * self.heads;
        let probs2 = c.probs.reshape(&[bh * t, t]);
        let dprobs2 = dprobs.reshape(&[bh * t, t]);
        let dscores = probs2.softmax_rows_backward(&dprobs2).reshape(&[bh, t, t]);

        // scores = scale · q · kᵀ
        let mut dq = bmm(&dscores, &c.k); // [b*h, t, hd]
        dq.scale_assign(self.scale);
        let mut dk = bmm_at_b(&dscores, &c.q); // [b*h, t, hd]
        dk.scale_assign(self.scale);

        // merge heads back and fuse into dqkv
        let dq3 = merge_heads(&dq, self.heads).reshape(&[b * t, w]);
        let dk3 = merge_heads(&dk, self.heads).reshape(&[b * t, w]);
        let dv3 = merge_heads(&dv, self.heads).reshape(&[b * t, w]);
        let dqkv = self.fuse_dqkv(&dq3, &dk3, &dv3, b, t);

        let dx = self.qkv.backward(&dqkv);
        dx.reshape(&[b, t, w])
    }
}

impl Module for MultiHeadAttention {
    fn visit_params(&mut self, f: &mut ParamVisitor) {
        self.qkv.visit_params(f);
        self.proj.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_shape() {
        let mut rng = TensorRng::seed_from(1);
        let mut attn = MultiHeadAttention::new(8, 2, &mut rng, "t");
        let x = rng.randn(&[2, 5, 8], 1.0);
        let y = attn.forward(&x);
        assert_eq!(y.shape(), &[2, 5, 8]);
        assert!(!y.has_non_finite());
    }

    #[test]
    fn inference_matches_training_forward() {
        let mut rng = TensorRng::seed_from(2);
        let mut attn = MultiHeadAttention::new(8, 4, &mut rng, "t");
        let x = rng.randn(&[1, 6, 8], 1.0);
        let y1 = attn.forward(&x);
        let y2 = attn.forward_inference(&x);
        assert!(y1.max_abs_diff(&y2) < 1e-5);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let mut rng = TensorRng::seed_from(3);
        let mut attn = MultiHeadAttention::new(4, 2, &mut rng, "t");
        let x = rng.randn(&[2, 3, 4], 0.8);
        let dy = rng.randn(&[2, 3, 4], 1.0);

        attn.forward(&x);
        let dx = attn.backward(&dy);

        let loss = |a: &MultiHeadAttention, xin: &Tensor| -> f32 {
            let y = a.forward_inference(xin);
            y.data().iter().zip(dy.data()).map(|(p, q)| p * q).sum()
        };
        let eps = 1e-2f32;
        // input gradient
        for i in [0usize, 5, 13, 23] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let fd = (loss(&attn, &xp) - loss(&attn, &xm)) / (2.0 * eps);
            assert!(
                (fd - dx.data()[i]).abs() < 5e-2,
                "dx[{}]: fd {} vs analytic {}",
                i,
                fd,
                dx.data()[i]
            );
        }
        // qkv weight gradient, a few entries
        for i in [0usize, 17, 40] {
            let mut ap = attn.clone();
            ap.qkv.weight.value.data_mut()[i] += eps;
            let mut am = attn.clone();
            am.qkv.weight.value.data_mut()[i] -= eps;
            let fd = (loss(&ap, &x) - loss(&am, &x)) / (2.0 * eps);
            let an = attn.qkv.weight.grad.data()[i];
            assert!((fd - an).abs() < 5e-2, "dWqkv[{}]: fd {} vs analytic {}", i, fd, an);
        }
        // proj weight gradient
        for i in [0usize, 7, 15] {
            let mut ap = attn.clone();
            ap.proj.weight.value.data_mut()[i] += eps;
            let mut am = attn.clone();
            am.proj.weight.value.data_mut()[i] -= eps;
            let fd = (loss(&ap, &x) - loss(&am, &x)) / (2.0 * eps);
            let an = attn.proj.weight.grad.data()[i];
            assert!((fd - an).abs() < 5e-2, "dWproj[{}]: fd {} vs analytic {}", i, fd, an);
        }
    }

    #[test]
    fn permutation_equivariance() {
        // Self-attention without a mask is equivariant to token permutation.
        let mut rng = TensorRng::seed_from(9);
        let attn = MultiHeadAttention::new(8, 2, &mut rng, "t");
        let x = rng.randn(&[1, 4, 8], 1.0);
        let y = attn.forward_inference(&x);
        // swap tokens 1 and 2
        let mut xp = x.clone();
        for j in 0..8 {
            let a = x.at(&[0, 1, j]);
            let b = x.at(&[0, 2, j]);
            xp.set(&[0, 1, j], b);
            xp.set(&[0, 2, j], a);
        }
        let yp = attn.forward_inference(&xp);
        for j in 0..8 {
            assert!((y.at(&[0, 1, j]) - yp.at(&[0, 2, j])).abs() < 1e-4);
            assert!((y.at(&[0, 2, j]) - yp.at(&[0, 1, j])).abs() < 1e-4);
        }
    }

    #[test]
    fn param_count() {
        let mut rng = TensorRng::seed_from(4);
        let mut attn = MultiHeadAttention::new(16, 4, &mut rng, "t");
        // qkv: 16·48 + 48 ; proj: 16·16 + 16
        assert_eq!(attn.num_params(), 16 * 48 + 48 + 16 * 16 + 16);
    }
}
