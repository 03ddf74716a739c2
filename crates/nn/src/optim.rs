//! Optimizers operating on **flat parameter buffers**.
//!
//! Working on flat `&mut [f32]` slices (rather than per-layer tensors) is
//! what lets `geofm-fsdp` shard optimizer state: a rank that owns elements
//! `[lo, hi)` of a unit's flat parameter simply constructs its optimizer
//! over that range. Per-parameter metadata (weight-decay eligibility, layer
//! boundaries for LARS trust ratios) is carried as index masks/segments with
//! the same flat layout.

use crate::param::Module;

/// A contiguous run of the flat buffer belonging to one parameter tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Start offset in the flat buffer.
    pub start: usize,
    /// Length in elements.
    pub len: usize,
    /// Whether weight decay applies to this tensor.
    pub decay: bool,
}

/// Compute the flat [`Segment`] layout of a module (deterministic order).
pub fn segments_of(module: &mut dyn Module) -> Vec<Segment> {
    let mut segs = Vec::new();
    let mut off = 0;
    module.visit_params(&mut |p| {
        segs.push(Segment { start: off, len: p.numel(), decay: p.decay });
        off += p.numel();
    });
    segs
}

/// Common interface: apply one update step to a flat parameter buffer.
pub trait Optimizer {
    /// `params[i] ← update(params[i], grads[i])` at learning rate `lr`.
    fn step(&mut self, params: &mut [f32], grads: &[f32], lr: f32);
}

/// Plain SGD with optional momentum (reference optimizer for tests).
#[derive(Debug, Clone)]
pub struct Sgd {
    momentum: f32,
    velocity: Vec<f32>,
}

impl Sgd {
    /// New SGD over a buffer of `len` elements.
    pub fn new(len: usize, momentum: f32) -> Self {
        Self { momentum, velocity: vec![0.0; len] }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut [f32], grads: &[f32], lr: f32) {
        assert_eq!(params.len(), self.velocity.len(), "Sgd: buffer length changed");
        assert_eq!(params.len(), grads.len(), "Sgd: grads length mismatch");
        if self.momentum == 0.0 {
            for (p, &g) in params.iter_mut().zip(grads) {
                *p -= lr * g;
            }
        } else {
            for ((p, &g), v) in params.iter_mut().zip(grads).zip(self.velocity.iter_mut()) {
                *v = self.momentum * *v + g;
                *p -= lr * *v;
            }
        }
    }
}

/// AdamW (decoupled weight decay), the paper's pretraining optimizer
/// (base lr 1.5e-4, β = (0.9, 0.95) as in MAE, wd 0.05).
#[derive(Debug, Clone)]
pub struct AdamW {
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    /// Per-element decay eligibility (None ⇒ decay everything).
    decay_mask: Option<Vec<bool>>,
    m: Vec<f32>,
    v: Vec<f32>,
    t: u64,
}

impl AdamW {
    /// New AdamW over a buffer of `len` elements with MAE-style betas.
    pub fn new(len: usize, weight_decay: f32) -> Self {
        Self {
            beta1: 0.9,
            beta2: 0.95,
            eps: 1e-8,
            weight_decay,
            decay_mask: None,
            m: vec![0.0; len],
            v: vec![0.0; len],
            t: 0,
        }
    }

    /// Restrict weight decay to elements where the mask is `true`
    /// (weights yes; biases/norms/embeddings no).
    pub fn with_decay_mask(mut self, mask: Vec<bool>) -> Self {
        assert_eq!(mask.len(), self.m.len(), "AdamW: mask length mismatch");
        self.decay_mask = Some(mask);
        self
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Snapshot the optimizer state (moments + step counter) for
    /// checkpointing. The decay mask and hyper-parameters are *not* part of
    /// the state — they are reconstructed from the model config on restart.
    pub fn export_state(&self) -> AdamWState {
        AdamWState { m: self.m.clone(), v: self.v.clone(), t: self.t }
    }

    /// Restore state captured by [`AdamW::export_state`]. Exact (bit-level)
    /// restoration: a run resumed from this state takes identical steps to
    /// one that never stopped.
    ///
    /// # Panics
    /// Panics if the state's buffer length differs from this optimizer's.
    pub fn load_state(&mut self, state: AdamWState) {
        assert_eq!(state.m.len(), self.m.len(), "AdamW: state length mismatch");
        assert_eq!(state.v.len(), self.v.len(), "AdamW: state length mismatch");
        self.m = state.m;
        self.v = state.v;
        self.t = state.t;
    }

    /// Textbook scalar update — the reference the fused
    /// [`Optimizer::step`] is differentially tested against
    /// (`tests/kernel_differential.rs` asserts bit-identical trajectories).
    pub fn step_reference(&mut self, params: &mut [f32], grads: &[f32], lr: f32) {
        assert_eq!(params.len(), self.m.len(), "AdamW: buffer length changed");
        assert_eq!(params.len(), grads.len(), "AdamW: grads length mismatch");
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        for i in 0..params.len() {
            let g = grads[i];
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g;
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g;
            let mhat = self.m[i] / b1t;
            let vhat = self.v[i] / b2t;
            let decay = match &self.decay_mask {
                Some(mask) => mask[i],
                None => true,
            };
            if decay && self.weight_decay > 0.0 {
                params[i] -= lr * self.weight_decay * params[i];
            }
            params[i] -= lr * mhat / (vhat.sqrt() + self.eps);
        }
    }
}

/// Checkpointable AdamW state: first/second moments and the step counter.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AdamWState {
    /// First-moment estimates, aligned with the parameter buffer.
    pub m: Vec<f32>,
    /// Second-moment estimates, aligned with the parameter buffer.
    pub v: Vec<f32>,
    /// Steps taken so far (drives bias correction).
    pub t: u64,
}

impl Optimizer for AdamW {
    /// Fused update: one pass over `params`/`grads`/`m`/`v` with zipped
    /// iterators (no per-access bounds checks) and the decay branch hoisted
    /// out of the loop. Every per-element operation — the moment updates,
    /// the `m/b1t` and `v/b2t` divisions, the `(lr·wd)·p` decay and the
    /// `(lr·mhat)/(√vhat+ε)` step — runs in exactly the order of
    /// [`AdamW::step_reference`], so the trajectories are bit-identical
    /// (including denormals, zero grads and NaN propagation).
    fn step(&mut self, params: &mut [f32], grads: &[f32], lr: f32) {
        assert_eq!(params.len(), self.m.len(), "AdamW: buffer length changed");
        assert_eq!(params.len(), grads.len(), "AdamW: grads length mismatch");
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        let (b1, b2) = (self.beta1, self.beta2);
        // hoisted constants: `1 - β` and `lr·wd` are pure functions of the
        // hyper-parameters, so hoisting reproduces the reference's
        // left-associated products bit for bit
        let (omb1, omb2) = (1.0 - b1, 1.0 - b2);
        let eps = self.eps;
        let lrwd = lr * self.weight_decay;
        let fused = |p: &mut f32, g: f32, m: &mut f32, v: &mut f32, decay: bool| {
            *m = b1 * *m + omb1 * g;
            *v = b2 * *v + omb2 * g * g;
            let mhat = *m / b1t;
            let vhat = *v / b2t;
            if decay {
                *p -= lrwd * *p;
            }
            *p -= lr * mhat / (vhat.sqrt() + eps);
        };
        let rows = params.iter_mut().zip(grads).zip(self.m.iter_mut()).zip(self.v.iter_mut());
        if self.weight_decay <= 0.0 {
            for (((p, &g), m), v) in rows {
                fused(p, g, m, v, false);
            }
        } else {
            match &self.decay_mask {
                None => {
                    for (((p, &g), m), v) in rows {
                        fused(p, g, m, v, true);
                    }
                }
                Some(mask) => {
                    for ((((p, &g), m), v), &decay) in rows.zip(mask.iter()) {
                        fused(p, g, m, v, decay);
                    }
                }
            }
        }
    }
}

/// LARS (You et al., 2017): layer-wise adaptive rate scaling with momentum —
/// the paper's linear-probing optimizer (base lr 0.1, no weight decay).
///
/// The trust ratio is computed per [`Segment`], i.e. per parameter tensor.
#[derive(Debug, Clone)]
pub struct Lars {
    momentum: f32,
    weight_decay: f32,
    trust_coefficient: f32,
    segments: Vec<Segment>,
    velocity: Vec<f32>,
}

impl Lars {
    /// New LARS over a flat buffer described by `segments`.
    ///
    /// # Panics
    /// Panics if segments are not contiguous from zero.
    pub fn new(segments: Vec<Segment>, weight_decay: f32) -> Self {
        let mut expect = 0;
        for s in &segments {
            assert_eq!(s.start, expect, "Lars: segments must be contiguous");
            expect += s.len;
        }
        Self {
            momentum: 0.9,
            weight_decay,
            trust_coefficient: 0.001,
            velocity: vec![0.0; expect],
            segments,
        }
    }
}

impl Optimizer for Lars {
    fn step(&mut self, params: &mut [f32], grads: &[f32], lr: f32) {
        assert_eq!(params.len(), self.velocity.len(), "Lars: buffer length changed");
        assert_eq!(params.len(), grads.len(), "Lars: grads length mismatch");
        for seg in &self.segments {
            let r = seg.start..seg.start + seg.len;
            let p = &mut params[r.clone()];
            let g = &grads[r.clone()];
            let v = &mut self.velocity[r];
            let p_norm = p.iter().map(|x| (*x as f64) * (*x as f64)).sum::<f64>().sqrt() as f32;
            let g_norm = g.iter().map(|x| (*x as f64) * (*x as f64)).sum::<f64>().sqrt() as f32;
            let wd = if seg.decay { self.weight_decay } else { 0.0 };
            let denom = g_norm + wd * p_norm;
            let trust = if p_norm > 0.0 && denom > 0.0 {
                self.trust_coefficient * p_norm / denom
            } else {
                1.0
            };
            let local_lr = lr * trust;
            for i in 0..p.len() {
                let update = g[i] + wd * p[i];
                v[i] = self.momentum * v[i] + local_lr * update;
                p[i] -= v[i];
            }
        }
    }
}

/// Scale `module`'s gradients in place so their global L2 norm is at most
/// `max_norm`; returns the pre-clip norm. This is the standard
/// pre-optimizer clip. The sum of squares runs in f64 over the gradients
/// in visit order, so the result equals a clip of the packed flat gradient.
pub fn clip_grad_norm(module: &mut dyn Module, max_norm: f32) -> f32 {
    let mut sumsq = 0.0f64;
    module.visit_params(&mut |p| {
        for &g in p.grad.data() {
            sumsq += (g as f64) * (g as f64);
        }
    });
    let norm = sumsq.sqrt() as f32;
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        module.visit_params(&mut |p| {
            for g in p.grad.data_mut() {
                *g *= scale;
            }
        });
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sgd_descends_quadratic() {
        // minimise f(p) = 0.5 p², grad = p
        let mut p = vec![10.0f32];
        let mut opt = Sgd::new(1, 0.0);
        for _ in 0..100 {
            let g = vec![p[0]];
            opt.step(&mut p, &g, 0.1);
        }
        assert!(p[0].abs() < 1e-3);
    }

    #[test]
    fn sgd_momentum_accelerates() {
        let run = |mom: f32| {
            let mut p = vec![10.0f32];
            let mut opt = Sgd::new(1, mom);
            for _ in 0..30 {
                let g = vec![p[0]];
                opt.step(&mut p, &g, 0.01);
            }
            p[0]
        };
        assert!(run(0.9).abs() < run(0.0).abs());
    }

    #[test]
    fn adamw_descends_quadratic() {
        let mut p = vec![5.0f32, -3.0];
        let mut opt = AdamW::new(2, 0.0);
        for _ in 0..600 {
            let g = vec![p[0], p[1]];
            opt.step(&mut p, &g, 0.05);
        }
        assert!(p[0].abs() < 1e-2 && p[1].abs() < 1e-2, "p = {:?}", p);
    }

    #[test]
    fn adamw_weight_decay_shrinks_params_without_grad() {
        let mut p = vec![1.0f32];
        let mut opt = AdamW::new(1, 0.1);
        for _ in 0..10 {
            opt.step(&mut p, &[0.0], 0.1);
        }
        assert!(p[0] < 1.0 && p[0] > 0.8, "p = {:?}", p);
    }

    #[test]
    fn adamw_decay_mask_protects_elements() {
        let mut p = vec![1.0f32, 1.0];
        let mut opt = AdamW::new(2, 0.1).with_decay_mask(vec![true, false]);
        for _ in 0..10 {
            opt.step(&mut p, &[0.0, 0.0], 0.1);
        }
        assert!(p[0] < 1.0);
        assert_eq!(p[1], 1.0);
    }

    #[test]
    fn adamw_state_roundtrip_is_bit_identical() {
        // optimizer A runs 20 steps straight; optimizer B runs 10, is
        // checkpointed/restored, then runs 10 more — trajectories must be
        // bit-identical, which is what crash-safe resume relies on.
        let grads: Vec<Vec<f32>> = (0..20).map(|i| vec![(i as f32).sin(), 0.7 - i as f32]).collect();
        let mut pa = vec![1.0f32, -2.0];
        let mut oa = AdamW::new(2, 0.05);
        for g in &grads {
            oa.step(&mut pa, g, 1e-3);
        }

        let mut pb = vec![1.0f32, -2.0];
        let mut ob = AdamW::new(2, 0.05);
        for g in &grads[..10] {
            ob.step(&mut pb, g, 1e-3);
        }
        let saved = ob.export_state();
        let mut oc = AdamW::new(2, 0.05);
        oc.load_state(saved);
        assert_eq!(oc.steps(), 10);
        for g in &grads[10..] {
            oc.step(&mut pb, g, 1e-3);
        }
        assert_eq!(pa, pb, "resumed trajectory must be bit-identical");
    }

    #[test]
    #[should_panic(expected = "state length mismatch")]
    fn adamw_rejects_wrong_length_state() {
        let mut o = AdamW::new(3, 0.0);
        o.load_state(AdamWState { m: vec![0.0; 2], v: vec![0.0; 2], t: 1 });
    }

    #[test]
    fn adamw_step_size_is_bounded_by_lr() {
        // Adam's |update| ≤ lr / (1-β1) roughly; for one step it's ≈ lr.
        let mut p = vec![0.0f32];
        let mut opt = AdamW::new(1, 0.0);
        opt.step(&mut p, &[1000.0], 0.01);
        assert!(p[0].abs() < 0.05, "p = {:?}", p);
    }

    #[test]
    fn lars_descends_quadratic() {
        let segs = vec![Segment { start: 0, len: 2, decay: true }];
        let mut p = vec![4.0f32, -2.0];
        let mut opt = Lars::new(segs, 0.0);
        for _ in 0..3000 {
            let g = vec![p[0], p[1]];
            opt.step(&mut p, &g, 1.0);
        }
        assert!(p[0].abs() < 0.1 && p[1].abs() < 0.1, "p = {:?}", p);
    }

    #[test]
    fn lars_trust_ratio_scales_with_param_norm() {
        // two segments with the same gradient but different param norms:
        // the bigger-norm segment takes a bigger absolute step.
        let segs = vec![
            Segment { start: 0, len: 1, decay: false },
            Segment { start: 1, len: 1, decay: false },
        ];
        let mut p = vec![10.0f32, 0.1];
        let before = p.clone();
        let mut opt = Lars::new(segs, 0.0);
        opt.step(&mut p, &[1.0, 1.0], 1.0);
        let step0 = (before[0] - p[0]).abs();
        let step1 = (before[1] - p[1]).abs();
        assert!(step0 > step1, "steps: {} vs {}", step0, step1);
    }

    #[test]
    #[should_panic(expected = "contiguous")]
    fn lars_rejects_gappy_segments() {
        let _ = Lars::new(vec![Segment { start: 1, len: 2, decay: true }], 0.0);
    }

    /// A module of one parameter holding the gradient `grad`.
    struct Grad(crate::param::Param);

    impl Module for Grad {
        fn visit_params(&mut self, f: &mut crate::param::ParamVisitor) {
            f(&mut self.0);
        }
    }

    fn with_grad(grad: &[f32]) -> Grad {
        let value = geofm_tensor::Tensor::zeros(&[grad.len()]);
        let mut p = crate::param::Param::new(value, true, "g");
        p.grad.data_mut().copy_from_slice(grad);
        Grad(p)
    }

    #[test]
    fn clip_grad_norm_caps_norm() {
        let mut m = with_grad(&[3.0, 4.0]); // norm 5
        let pre = clip_grad_norm(&mut m, 1.0);
        assert!((pre - 5.0).abs() < 1e-5);
        let g = m.0.grad.data();
        let post = (g[0] * g[0] + g[1] * g[1]).sqrt();
        assert!((post - 1.0).abs() < 1e-5);
    }

    #[test]
    fn clip_grad_norm_noop_below_threshold() {
        let mut m = with_grad(&[0.3, 0.4]);
        clip_grad_norm(&mut m, 1.0);
        assert_eq!(m.0.grad.data(), &[0.3, 0.4]);
    }

    #[test]
    fn segments_of_matches_module_layout() {
        use crate::linear::Linear;
        use geofm_tensor::TensorRng;
        let mut rng = TensorRng::seed_from(1);
        let mut layer = Linear::new(3, 2, &mut rng, "t");
        let segs = segments_of(&mut layer);
        assert_eq!(
            segs,
            vec![
                Segment { start: 0, len: 6, decay: true },
                Segment { start: 6, len: 2, decay: false }
            ]
        );
    }
}
