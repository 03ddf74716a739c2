//! GELU activation (tanh approximation) with explicit backward.
//!
//! The forward pass evaluates `gelu(x)` and `gelu'(x)` together and caches
//! the derivative, so the backward pass is one multiply per element. `tanh`
//! is a branch-free rational approximation rather than libm `tanhf`, so the
//! loop vectorises; its accuracy contract is stated in DESIGN.md §13 and
//! pinned by the tests below against the libm formulas.

use geofm_tensor::Tensor;

const SQRT_2_OVER_PI: f32 = 0.797_884_6;
const GELU_C: f32 = 0.044_715;

/// Inputs are clamped to `±TANH_CLAMP`, where the rational form reaches
/// exactly ±1.
const TANH_CLAMP: f32 = 7.905_311;
/// Below this magnitude `tanh(x)` is within an ulp of `x`; returning `x`
/// keeps ±0 and subnormals exact instead of losing bits in `x · p(x²)`.
const TANH_TINY: f32 = 0.0004;

/// `tanh` as the clamped 13/6 odd/even rational minimax used by Eigen's
/// fast float tanh, evaluated with separate multiplies and adds (no FMA).
///
/// `f32::clamp` is two comparisons, so NaN fails both and stays NaN; a
/// clamp built from `f32::min`/`f32::max` would return a bound instead.
#[inline(always)]
fn tanh_rational(a: f32) -> f32 {
    let x = a.clamp(-TANH_CLAMP, TANH_CLAMP);
    let x2 = x * x;
    let mut p = x2 * -2.760_768_4e-16 + 2.000_188e-13;
    p = x2 * p + -8.604_672e-11;
    p = x2 * p + 5.122_297_3e-8;
    p = x2 * p + 1.485_722_35e-5;
    p = x2 * p + 6.372_619_5e-4;
    p = x2 * p + 4.893_524_6e-3;
    p *= x;
    let mut q = x2 * 1.198_258_4e-6 + 1.185_347_1e-4;
    q = x2 * q + 2.268_434_7e-3;
    q = x2 * q + 4.893_525e-3;
    if a.abs() < TANH_TINY {
        a
    } else {
        p / q
    }
}

/// `(gelu(x), gelu'(x))` in one evaluation of `tanh`.
#[inline(always)]
fn gelu_with_grad(x: f32) -> (f32, f32) {
    let t = tanh_rational(SQRT_2_OVER_PI * (x + GELU_C * x * x * x));
    let y = 0.5 * x * (1.0 + t);
    let sech2 = 1.0 - t * t;
    let dy = 0.5 * (1.0 + t) + 0.5 * x * sech2 * SQRT_2_OVER_PI * (1.0 + 3.0 * GELU_C * x * x);
    (y, dy)
}

#[inline(always)]
fn gelu_scalar(x: f32) -> f32 {
    gelu_with_grad(x).0
}

/// Stateless-weights GELU layer; caches `gelu'(x)` for the backward pass.
#[derive(Debug, Clone, Default)]
pub struct Gelu {
    cache_grad: Option<Tensor>,
}

impl Gelu {
    /// New GELU layer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forward pass; caches `gelu'(x)`.
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        let mut y = Tensor::zeros(x.shape());
        let mut grad = Tensor::zeros(x.shape());
        for ((yv, gv), &xv) in y.data_mut().iter_mut().zip(grad.data_mut()).zip(x.data()) {
            (*yv, *gv) = gelu_with_grad(xv);
        }
        self.cache_grad = Some(grad);
        y
    }

    /// Inference-only forward (no caching); bit-identical to
    /// [`Gelu::forward`]'s output.
    pub fn forward_inference(&self, x: &Tensor) -> Tensor {
        x.map(gelu_scalar)
    }

    /// Backward pass: `dx = dy ⊙ gelu'(x)`.
    pub fn backward(&mut self, dy: &Tensor) -> Tensor {
        let mut dx = self.cache_grad.take().expect("Gelu::backward before forward");
        assert_eq!(dx.shape(), dy.shape(), "Gelu::backward shape mismatch");
        dx.mul_assign(dy);
        dx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geofm_tensor::TensorRng;

    /// The libm formulas the rational `tanh` replaced, kept as the
    /// reference the accuracy contract is measured against.
    fn gelu_reference(x: f32) -> f32 {
        0.5 * x * (1.0 + (SQRT_2_OVER_PI * (x + GELU_C * x * x * x)).tanh())
    }

    fn gelu_grad_scalar(x: f32) -> f32 {
        gelu_with_grad(x).1
    }

    fn gelu_grad_reference(x: f32) -> f32 {
        let u = SQRT_2_OVER_PI * (x + GELU_C * x * x * x);
        let t = u.tanh();
        let sech2 = 1.0 - t * t;
        0.5 * (1.0 + t) + 0.5 * x * sech2 * SQRT_2_OVER_PI * (1.0 + 3.0 * GELU_C * x * x)
    }

    /// Contract: `tanh_rational` is within this many ulp of libm `tanhf`
    /// for every non-NaN input (the exhaustive figure is in DESIGN.md §13).
    const TANH_MAX_ULP: u32 = 7;

    /// Distance between two finite-or-infinite floats in units in the
    /// last place: the gap between their positions in the ordered line of
    /// f32 bit patterns, with +0 and -0 adjacent.
    fn ulp_distance(a: f32, b: f32) -> u32 {
        let ordered = |v: f32| {
            let bits = v.to_bits() as i32;
            if bits < 0 {
                i32::MIN - bits
            } else {
                bits
            }
        };
        ordered(a).abs_diff(ordered(b))
    }

    fn assert_tanh_contract(x: f32) {
        let got = tanh_rational(x);
        if x.is_nan() {
            assert!(got.is_nan(), "tanh(NaN {:#x}) = {got}", x.to_bits());
            return;
        }
        let want = x.tanh();
        let ulp = ulp_distance(got, want);
        assert!(
            ulp <= TANH_MAX_ULP,
            "tanh({x:e} = {:#x}): {got:e} vs libm {want:e}, {ulp} ulp",
            x.to_bits()
        );
    }

    #[test]
    fn tanh_within_ulp_bound_of_libm_on_strided_bit_sweep() {
        // a prime stride visits ~4.3M patterns spread over all 2^32,
        // covering every exponent of both signs plus NaNs and infinities
        const STRIDE: u64 = 1_009;
        let mut bits = 0u64;
        while bits <= u32::MAX as u64 {
            assert_tanh_contract(f32::from_bits(bits as u32));
            bits += STRIDE;
        }
    }

    #[test]
    fn tanh_edge_values() {
        assert!(tanh_rational(f32::NAN).is_nan());
        assert!(tanh_rational(-f32::NAN).is_nan());
        assert_eq!(tanh_rational(f32::INFINITY), 1.0);
        assert_eq!(tanh_rational(f32::NEG_INFINITY), -1.0);
        assert_eq!(tanh_rational(0.0).to_bits(), 0.0f32.to_bits());
        assert_eq!(tanh_rational(-0.0).to_bits(), (-0.0f32).to_bits());
        for x in [f32::from_bits(1), f32::MIN_POSITIVE / 2.0, f32::MIN_POSITIVE] {
            assert_eq!(tanh_rational(x), x, "tanh({x:e}) must be exact");
            assert_eq!(tanh_rational(-x), -x, "tanh({:e}) must be exact", -x);
        }
        // both sides of the clamp and of the small-argument cut-over
        for edge in [TANH_CLAMP, TANH_TINY] {
            for x in [f32::from_bits(edge.to_bits() - 1), edge, f32::from_bits(edge.to_bits() + 1)] {
                assert_tanh_contract(x);
                assert_tanh_contract(-x);
            }
        }
        assert_eq!(tanh_rational(TANH_CLAMP), 1.0);
        assert_eq!(tanh_rational(f32::MAX), 1.0);
        assert_eq!(tanh_rational(f32::MIN), -1.0);
    }

    #[test]
    fn gelu_and_grad_match_libm_reference() {
        // every 1009th f32 pattern in [-20, 20] (~2.2M of the ~2.2G), which
        // keeps the debug run short while covering every binade
        let top = 20.0f32.to_bits();
        let mut bits = 0u32;
        while bits <= top {
            for x in [f32::from_bits(bits), -f32::from_bits(bits)] {
                let (y, dy) = gelu_with_grad(x);
                let (y_ref, dy_ref) = (gelu_reference(x), gelu_grad_reference(x));
                assert!(
                    (y - y_ref).abs() <= 1e-6 * x.abs().max(1.0),
                    "gelu({x:e}) = {y:e} vs reference {y_ref:e}"
                );
                assert!((dy - dy_ref).abs() <= 1e-5, "gelu'({x:e}) = {dy:e} vs reference {dy_ref:e}");
            }
            bits += 1_009;
        }
    }

    #[test]
    fn training_and_inference_forwards_agree_bit_for_bit() {
        let mut rng = TensorRng::seed_from(7);
        let mut x = rng.randn(&[33, 17], 3.0);
        x.data_mut()[..4].copy_from_slice(&[0.0, -0.0, f32::INFINITY, f32::NAN]);
        let trained = Gelu::new().forward(&x);
        let served = Gelu::new().forward_inference(&x);
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&trained), bits(&served));
    }

    #[test]
    fn known_values() {
        assert!((gelu_scalar(0.0)).abs() < 1e-7);
        // gelu(x) → x for large positive x, → 0 for large negative x
        assert!((gelu_scalar(10.0) - 10.0).abs() < 1e-4);
        assert!(gelu_scalar(-10.0).abs() < 1e-4);
        // gelu(1) ≈ 0.8412 (tanh approximation)
        assert!((gelu_scalar(1.0) - 0.8412).abs() < 1e-3);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let mut rng = TensorRng::seed_from(5);
        let x = rng.randn(&[40], 1.5);
        let eps = 1e-3f32;
        for i in 0..40 {
            let xi = x.data()[i];
            let fd = (gelu_scalar(xi + eps) - gelu_scalar(xi - eps)) / (2.0 * eps);
            let an = gelu_grad_scalar(xi);
            assert!((fd - an).abs() < 1e-3, "x={}: fd {} vs analytic {}", xi, fd, an);
        }
    }

    #[test]
    fn layer_backward_chains_upstream() {
        let mut rng = TensorRng::seed_from(6);
        let x = rng.randn(&[3, 4], 1.0);
        let dy = rng.randn(&[3, 4], 1.0);
        let mut g = Gelu::new();
        g.forward(&x);
        let dx = g.backward(&dy);
        for i in 0..12 {
            let expect = gelu_grad_scalar(x.data()[i]) * dy.data()[i];
            assert!((dx.data()[i] - expect).abs() < 1e-6);
        }
    }

    #[test]
    fn monotone_for_positive_inputs() {
        let mut last = gelu_scalar(0.0);
        for i in 1..100 {
            let v = gelu_scalar(i as f32 * 0.1);
            assert!(v > last);
            last = v;
        }
    }
}
