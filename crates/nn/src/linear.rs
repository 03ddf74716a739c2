//! Fully-connected layer with explicit backward.

use crate::param::{Module, Param, ParamVisitor};
use geofm_tensor::{matmul, matmul_a_bt, matmul_at_b, Tensor, TensorRng};

/// `y = x · Wᵀ + b` with `W: [out, in]` (PyTorch layout), `b: [out]`.
///
/// `forward` accepts `[n, in]` and caches the input for `backward`.
#[derive(Debug, Clone)]
pub struct Linear {
    /// Weight matrix, `[out_features, in_features]`.
    pub weight: Param,
    /// Bias vector, `[out_features]`.
    pub bias: Param,
    in_features: usize,
    out_features: usize,
    cache_x: Option<Tensor>,
}

impl Linear {
    /// Construct with Xavier-uniform weights (the MAE reference init, which
    /// scales correctly across layer widths) and zero bias.
    pub fn new(in_features: usize, out_features: usize, rng: &mut TensorRng, name: &str) -> Self {
        let weight = Param::new(
            rng.xavier_uniform(out_features, in_features),
            true,
            format!("{name}.weight"),
        );
        let bias = Param::new(Tensor::zeros(&[out_features]), false, format!("{name}.bias"));
        Self { weight, bias, in_features, out_features, cache_x: None }
    }

    /// Input width.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output width.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Forward pass for `x: [n, in]` → `[n, out]`; caches `x`.
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        assert_eq!(x.ndim(), 2, "Linear::forward expects 2-D input");
        assert_eq!(x.dim(1), self.in_features, "Linear::forward width mismatch");
        // y = x · Wᵀ : [n,in]·[out,in]ᵀ — transposes W once, then the AXPY panel.
        let mut y = matmul_a_bt(x, &self.weight.value);
        y.add_row_vector(&self.bias.value);
        self.cache_x = Some(x.clone());
        y
    }

    /// Inference-only forward: does not cache (no backward possible after).
    pub fn forward_inference(&self, x: &Tensor) -> Tensor {
        let mut y = matmul_a_bt(x, &self.weight.value);
        y.add_row_vector(&self.bias.value);
        y
    }

    /// Backward pass: accumulates `dW`, `db` and returns `dx`.
    ///
    /// # Panics
    /// Panics if called before `forward`.
    pub fn backward(&mut self, dy: &Tensor) -> Tensor {
        let x = self.cache_x.take().expect("Linear::backward called before forward");
        assert_eq!(dy.dim(0), x.dim(0), "Linear::backward batch mismatch");
        assert_eq!(dy.dim(1), self.out_features, "Linear::backward width mismatch");
        // dW = dYᵀ · X : [out,n]·[n,in]
        let dw = matmul_at_b(dy, &x);
        self.weight.grad.add_assign(&dw);
        self.bias.grad.add_assign(&dy.sum_rows());
        // dX = dY · W : [n,out]·[out,in]
        matmul(dy, &self.weight.value)
    }
}

impl Module for Linear {
    fn visit_params(&mut self, f: &mut ParamVisitor) {
        f(&mut self.weight);
        f(&mut self.bias);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Central finite-difference check of dloss/dθ for loss = Σ y ⊙ dy.
    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = TensorRng::seed_from(42);
        let mut layer = Linear::new(4, 3, &mut rng, "t");
        // make bias non-zero so its gradient is exercised from a generic point
        layer.bias.value = rng.randn(&[3], 0.1);
        let x = rng.randn(&[5, 4], 1.0);
        let dy = rng.randn(&[5, 3], 1.0);

        let _y = layer.forward(&x);
        let dx = layer.backward(&dy);

        let eps = 1e-2f32;
        let loss = |l: &Linear, xin: &Tensor| -> f32 {
            let y = l.forward_inference(xin);
            y.data().iter().zip(dy.data()).map(|(a, b)| a * b).sum()
        };

        // weight grads
        for i in [0usize, 5, 11] {
            let mut lp = layer.clone();
            lp.weight.value.data_mut()[i] += eps;
            let mut lm = layer.clone();
            lm.weight.value.data_mut()[i] -= eps;
            let fd = (loss(&lp, &x) - loss(&lm, &x)) / (2.0 * eps);
            let an = layer.weight.grad.data()[i];
            assert!((fd - an).abs() < 2e-2, "dW[{}]: fd {} vs analytic {}", i, fd, an);
        }
        // bias grads
        for i in 0..3 {
            let mut lp = layer.clone();
            lp.bias.value.data_mut()[i] += eps;
            let mut lm = layer.clone();
            lm.bias.value.data_mut()[i] -= eps;
            let fd = (loss(&lp, &x) - loss(&lm, &x)) / (2.0 * eps);
            let an = layer.bias.grad.data()[i];
            assert!((fd - an).abs() < 2e-2, "db[{}]: fd {} vs analytic {}", i, fd, an);
        }
        // input grads
        for i in [0usize, 7, 19] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let fd = (loss(&layer, &xp) - loss(&layer, &xm)) / (2.0 * eps);
            let an = dx.data()[i];
            assert!((fd - an).abs() < 2e-2, "dx[{}]: fd {} vs analytic {}", i, fd, an);
        }
    }

    #[test]
    fn forward_shape_and_bias() {
        let mut rng = TensorRng::seed_from(1);
        let mut layer = Linear::new(2, 3, &mut rng, "t");
        layer.weight.value = Tensor::zeros(&[3, 2]);
        layer.bias.value = Tensor::from_vec(&[3], vec![1., 2., 3.]);
        let y = layer.forward(&Tensor::zeros(&[4, 2]));
        assert_eq!(y.shape(), &[4, 3]);
        assert_eq!(y.row(2), &[1., 2., 3.]);
    }

    #[test]
    fn grads_accumulate_across_backwards() {
        let mut rng = TensorRng::seed_from(2);
        let mut layer = Linear::new(2, 2, &mut rng, "t");
        let x = rng.randn(&[3, 2], 1.0);
        let dy = rng.randn(&[3, 2], 1.0);
        layer.forward(&x);
        layer.backward(&dy);
        let g1 = layer.weight.grad.clone();
        layer.forward(&x);
        layer.backward(&dy);
        assert!(layer.weight.grad.max_abs_diff(&g1.scale(2.0)) < 1e-5);
    }

    #[test]
    #[should_panic(expected = "before forward")]
    fn backward_requires_forward() {
        let mut rng = TensorRng::seed_from(3);
        let mut layer = Linear::new(2, 2, &mut rng, "t");
        layer.backward(&Tensor::zeros(&[1, 2]));
    }

    #[test]
    fn module_param_count() {
        let mut rng = TensorRng::seed_from(4);
        let mut layer = Linear::new(8, 16, &mut rng, "t");
        assert_eq!(layer.num_params(), 8 * 16 + 16);
    }
}
