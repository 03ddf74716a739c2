//! Differential suite for the blocked compute kernels: the cache-blocked
//! matmul family (`geofm_tensor::matmul`) against textbook three-loop
//! references, and the fused AdamW against its retained scalar reference
//! (`AdamW::step_reference`).
//!
//! The contract under test is the one `DESIGN.md` §13 states: blocking,
//! transposing and fusion reorder *memory traffic*, never the per-element
//! floating-point operation sequence. For all six matmul entry points
//! (`matmul`, `matmul_at_b`, `matmul_a_bt` and their batched variants)
//! and for AdamW that means **bit-identical** results — asserted across
//! ~64 seeded shapes per kernel, deliberately including non-multiples of
//! the MC/KC/NC tiles, degenerate dims, denormals, zero gradients and
//! NaN/∞ inputs (NaN lanes canonicalized).

use geofm_nn::{AdamW, Optimizer};
use geofm_tensor::{bmm, bmm_a_bt, bmm_at_b, matmul, matmul_a_bt, matmul_at_b, Tensor, TensorRng};

const TRIALS: u64 = 64;

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Bit patterns with every NaN collapsed to one canonical encoding.
/// IEEE 754 leaves the sign/payload of a NaN *result* unspecified and
/// LLVM exploits that (e.g. commuting a multiply changes which operand's
/// NaN propagates, flipping the sign bit between opt levels), so two
/// correct kernels may legally differ in NaN bits while agreeing on
/// everything observable: which lanes are NaN, and the exact bits of
/// every non-NaN lane — denormals, signed zeros and infinities included.
fn canonical_bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| if x.is_nan() { 0x7FC0_0000 } else { x.to_bits() }).collect()
}

/// Seeded dims sweeping 1..~200: below, at and above every tile boundary
/// (MC=32 rows, KC=64, NC=128), with exact tile multiples mixed in.
fn trial_dims(seed: u64, trial: u64) -> (usize, usize, usize) {
    let mut rng = TensorRng::seed_from(seed ^ trial.wrapping_mul(0x9E37_79B9));
    let pick = |rng: &mut TensorRng| match rng.below(4) {
        0 => rng.below(8) + 1,            // tiny: 1..=8
        1 => [32, 64, 128][rng.below(3)], // exact tile multiples
        2 => [31, 33, 63, 65, 127, 129][rng.below(6)], // straddling tiles
        _ => rng.below(200) + 1,          // anything
    };
    (pick(&mut rng), pick(&mut rng), pick(&mut rng))
}

fn rand_tensor(rng: &mut TensorRng, shape: &[usize]) -> Tensor {
    rng.randn(shape, 1.0)
}

fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.dim(0), a.dim(1));
    let n = b.dim(1);
    let mut out = Tensor::zeros(&[m, n]);
    for i in 0..m {
        for j in 0..n {
            let mut s = 0.0f32;
            for kk in 0..k {
                s += a.at(&[i, kk]) * b.at(&[kk, j]);
            }
            out.set(&[i, j], s);
        }
    }
    out
}

fn naive_at_b(a: &Tensor, b: &Tensor) -> Tensor {
    let (k, m) = (a.dim(0), a.dim(1));
    let n = b.dim(1);
    let mut out = Tensor::zeros(&[m, n]);
    for i in 0..m {
        for j in 0..n {
            let mut s = 0.0f32;
            for kk in 0..k {
                s += a.at(&[kk, i]) * b.at(&[kk, j]);
            }
            out.set(&[i, j], s);
        }
    }
    out
}

fn naive_a_bt(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.dim(0), a.dim(1));
    let n = b.dim(0);
    let mut out = Tensor::zeros(&[m, n]);
    for i in 0..m {
        for j in 0..n {
            let mut s = 0.0f32;
            for kk in 0..k {
                s += a.at(&[i, kk]) * b.at(&[j, kk]);
            }
            out.set(&[i, j], s);
        }
    }
    out
}

#[test]
fn blocked_matmul_bit_identical_to_naive_across_shapes() {
    for trial in 0..TRIALS {
        let (m, k, n) = trial_dims(11, trial);
        let mut rng = TensorRng::seed_from(100 + trial);
        let a = rand_tensor(&mut rng, &[m, k]);
        let b = rand_tensor(&mut rng, &[k, n]);
        let fast = matmul(&a, &b);
        let slow = naive_matmul(&a, &b);
        assert_eq!(
            bits(fast.data()),
            bits(slow.data()),
            "trial {trial} ({m}x{k}x{n}): blocked matmul diverged from naive"
        );
    }
}

#[test]
fn blocked_at_b_bit_identical_to_naive_across_shapes() {
    for trial in 0..TRIALS {
        let (m, k, n) = trial_dims(22, trial);
        let mut rng = TensorRng::seed_from(200 + trial);
        let a = rand_tensor(&mut rng, &[k, m]);
        let b = rand_tensor(&mut rng, &[k, n]);
        let fast = matmul_at_b(&a, &b);
        let slow = naive_at_b(&a, &b);
        assert_eq!(
            bits(fast.data()),
            bits(slow.data()),
            "trial {trial} ({m}x{k}x{n}): blocked matmul_at_b diverged from naive"
        );
    }
}

#[test]
fn blocked_a_bt_bit_identical_to_naive_across_shapes() {
    for trial in 0..TRIALS {
        let (m, k, n) = trial_dims(33, trial);
        let mut rng = TensorRng::seed_from(300 + trial);
        let a = rand_tensor(&mut rng, &[m, k]);
        let b = rand_tensor(&mut rng, &[n, k]);
        let fast = matmul_a_bt(&a, &b);
        let slow = naive_a_bt(&a, &b);
        assert_eq!(
            bits(fast.data()),
            bits(slow.data()),
            "trial {trial} ({m}x{k}x{n}): blocked matmul_a_bt diverged from naive"
        );
    }
}

#[test]
fn batched_kernels_bit_identical_to_their_2d_cores() {
    // bmm routes through the same blocked panel bodies as the 2-D kernels;
    // slabwise results must therefore match the 2-D calls bit for bit
    for trial in 0..16 {
        let (m, k, n) = trial_dims(44, trial);
        let bs = (trial as usize % 3) + 1;
        let mut rng = TensorRng::seed_from(400 + trial);
        let a = rand_tensor(&mut rng, &[bs, m, k]);
        let b = rand_tensor(&mut rng, &[bs, k, n]);
        let out = bmm(&a, &b);
        let abt_b = rand_tensor(&mut rng, &[bs, n, k]);
        let out_abt = bmm_a_bt(&a, &abt_b);
        let at = rand_tensor(&mut rng, &[bs, k, m]);
        let out_atb = bmm_at_b(&at, &b);
        for bi in 0..bs {
            let asl = Tensor::from_vec(&[m, k], a.data()[bi * m * k..(bi + 1) * m * k].to_vec());
            let bsl = Tensor::from_vec(&[k, n], b.data()[bi * k * n..(bi + 1) * k * n].to_vec());
            let expect = matmul(&asl, &bsl);
            assert_eq!(
                bits(expect.data()),
                bits(&out.data()[bi * m * n..(bi + 1) * m * n]),
                "trial {trial} slab {bi}: bmm diverged from matmul"
            );
            let absl =
                Tensor::from_vec(&[n, k], abt_b.data()[bi * n * k..(bi + 1) * n * k].to_vec());
            let expect = matmul_a_bt(&asl, &absl);
            assert_eq!(
                bits(expect.data()),
                bits(&out_abt.data()[bi * m * n..(bi + 1) * m * n]),
                "trial {trial} slab {bi}: bmm_a_bt diverged from matmul_a_bt"
            );
            let atsl = Tensor::from_vec(&[k, m], at.data()[bi * k * m..(bi + 1) * k * m].to_vec());
            let expect = matmul_at_b(&atsl, &bsl);
            assert_eq!(
                bits(expect.data()),
                bits(&out_atb.data()[bi * m * n..(bi + 1) * m * n]),
                "trial {trial} slab {bi}: bmm_at_b diverged from matmul_at_b"
            );
        }
    }
}

#[test]
fn matmul_edge_values_follow_ieee_like_the_reference() {
    // ±0, ∞, NaN, denormals: the blocked kernels, A·B and A·Bᵀ, must
    // propagate them the way the naive loop does (no zero-skip shortcuts)
    let specials = [
        0.0f32,
        -0.0,
        1.0,
        -1.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        f32::MIN_POSITIVE,
        f32::MIN_POSITIVE / 2.0, // denormal
        1e-38,
        1e38,
    ];
    let mut rng = TensorRng::seed_from(77);
    for trial in 0..TRIALS {
        let (m, k, n) = trial_dims(55, trial);
        let fill = |rng: &mut TensorRng, len: usize| -> Vec<f32> {
            (0..len)
                .map(|_| {
                    if rng.below(4) == 0 {
                        specials[rng.below(specials.len())]
                    } else {
                        rng.normal()
                    }
                })
                .collect()
        };
        let a = Tensor::from_vec(&[m, k], fill(&mut rng, m * k));
        let b = Tensor::from_vec(&[k, n], fill(&mut rng, k * n));
        let fast = matmul(&a, &b);
        let slow = naive_matmul(&a, &b);
        assert_eq!(
            canonical_bits(fast.data()),
            canonical_bits(slow.data()),
            "trial {trial} ({m}x{k}x{n}): edge-value matmul diverged \
             (non-NaN bits exact, NaNs canonicalized)"
        );
        let bt = Tensor::from_vec(&[n, k], fill(&mut rng, n * k));
        let fast = matmul_a_bt(&a, &bt);
        let slow = naive_a_bt(&a, &bt);
        assert_eq!(
            canonical_bits(fast.data()),
            canonical_bits(slow.data()),
            "trial {trial} ({m}x{k}x{n}): edge-value matmul_a_bt diverged \
             (non-NaN bits exact, NaNs canonicalized)"
        );
    }
}

// ---------------------------------------------------------------------------
// Fused AdamW vs scalar reference.

fn adamw_pair(len: usize, wd: f32, mask: Option<Vec<bool>>) -> (AdamW, AdamW) {
    let make = || {
        let opt = AdamW::new(len, wd);
        match &mask {
            Some(m) => opt.with_decay_mask(m.clone()),
            None => opt,
        }
    };
    (make(), make())
}

/// Run `steps` updates through both implementations and assert bitwise
/// equality of parameters and exported state after every step (NaN lanes
/// canonicalized — see [`canonical_bits`]; for finite inputs this is
/// plain bit equality).
fn assert_adamw_matches(
    len: usize,
    wd: f32,
    mask: Option<Vec<bool>>,
    lr: f32,
    grad_of: impl Fn(u64, usize) -> f32,
    what: &str,
) {
    let (mut fused, mut reference) = adamw_pair(len, wd, mask);
    let mut pf: Vec<f32> = (0..len).map(|i| (i as f32 * 0.37).sin()).collect();
    let mut pr = pf.clone();
    for step in 0..12u64 {
        let grads: Vec<f32> = (0..len).map(|i| grad_of(step, i)).collect();
        fused.step(&mut pf, &grads, lr);
        reference.step_reference(&mut pr, &grads, lr);
        assert_eq!(
            canonical_bits(&pf),
            canonical_bits(&pr),
            "{what}: params diverged at step {step}"
        );
        let (sf, sr) = (fused.export_state(), reference.export_state());
        assert_eq!(
            canonical_bits(&sf.m),
            canonical_bits(&sr.m),
            "{what}: first moment diverged at step {step}"
        );
        assert_eq!(
            canonical_bits(&sf.v),
            canonical_bits(&sr.v),
            "{what}: second moment diverged at step {step}"
        );
    }
}

#[test]
fn fused_adamw_bit_identical_normal_grads() {
    for trial in 0..16u64 {
        let mut rng = TensorRng::seed_from(500 + trial);
        let len = rng.below(300) + 1;
        let seeds: Vec<f32> = (0..len * 12).map(|_| rng.normal()).collect();
        assert_adamw_matches(
            len,
            0.05,
            None,
            1.5e-4,
            |step, i| seeds[(step as usize * len + i) % seeds.len()],
            &format!("trial {trial} uniform decay"),
        );
    }
}

#[test]
fn fused_adamw_bit_identical_with_decay_mask() {
    for trial in 0..16u64 {
        let mut rng = TensorRng::seed_from(600 + trial);
        let len = rng.below(200) + 1;
        let mask: Vec<bool> = (0..len).map(|_| rng.below(2) == 0).collect();
        let seeds: Vec<f32> = (0..len * 12).map(|_| rng.normal()).collect();
        assert_adamw_matches(
            len,
            0.1,
            Some(mask),
            1e-3,
            |step, i| seeds[(step as usize * len + i) % seeds.len()],
            &format!("trial {trial} masked decay"),
        );
    }
}

#[test]
fn fused_adamw_bit_identical_zero_weight_decay() {
    assert_adamw_matches(64, 0.0, None, 1e-3, |s, i| ((s as f32) - i as f32).cos(), "wd=0");
}

#[test]
fn fused_adamw_bit_identical_on_edge_gradients() {
    // zero grads, denormals, huge/tiny magnitudes, NaN and ±∞ — the fused
    // path must produce the same bits (NaN payload propagation included)
    let specials = [
        0.0f32,
        -0.0,
        f32::MIN_POSITIVE,
        f32::MIN_POSITIVE / 4.0, // denormal
        1e-30,
        1e30,
        f32::MAX,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
    ];
    let len = specials.len() * 4;
    let mask: Vec<bool> = (0..len).map(|i| i % 3 != 0).collect();
    assert_adamw_matches(
        len,
        0.05,
        Some(mask),
        1.5e-4,
        |step, i| {
            let v = specials[(i + step as usize) % specials.len()];
            if i % 2 == 0 {
                v
            } else {
                -v
            }
        },
        "edge gradients",
    );
}
