//! Cache-blocked matrix multiplication kernels with runtime AVX2 dispatch.
//!
//! All accumulating kernels use the `i-k-j` loop order — the innermost loop
//! is an AXPY over a contiguous row of the right operand, which
//! auto-vectorises well — wrapped in a BLIS-style blocking scheme:
//!
//! * rows are processed in panels of `MC` (the rayon work grain),
//! * the reduction dimension in panels of `KC`,
//! * the output columns in panels of `NC`,
//!
//! so the `KC × NC` panel of `B` stays resident in L1/L2 while every row of
//! the `MC` panel consumes it, instead of streaming all of `B` from memory
//! once per output row. Within a panel the k-loop is unrolled 4× so each
//! pass over the C row folds in four rank-1 updates (4× less C traffic).
//!
//! **Bit-exactness contract**: for every output element, the partial
//! products are accumulated in ascending-`k` order, one fused chain per
//! element, exactly like the textbook three-loop kernel. Blocking changes
//! *when* each product is added, never the per-element order — so results
//! are bit-identical to the naive kernel for all inputs and all six entry
//! points, which `tests/kernel_differential.rs` asserts. The one caveat is
//! NaN encodings: IEEE leaves a NaN result's sign/payload unspecified and
//! LLVM exploits that freedom differently across opt levels, so the
//! differential tests demand exact bits for every non-NaN lane and
//! canonicalize NaNs. (This is also why there is no zero-skip: `if a != 0`
//! shortcuts would diverge on `0 × ∞ = NaN` inputs and defeat
//! vectorisation.)
//!
//! Three layout variants cover the forward and backward passes:
//!
//! * [`matmul`]      — `C = A · B`       with `A: [m,k]`, `B: [k,n]`
//! * [`matmul_at_b`] — `C = Aᵀ · B`      with `A: [k,m]`, `B: [k,n]` (weight grads)
//! * [`matmul_a_bt`] — `C = A · Bᵀ`      with `A: [m,k]`, `B: [n,k]` (forward linears, `Q · Kᵀ`)
//!
//! `matmul_at_b` has a panel of its own that reads `A` with stride `m`.
//! `matmul_a_bt` transposes `B` once into a `[k,n]` buffer and runs the
//! `matmul` panel on it, so only two panel bodies carry every product.
//!
//! Batched versions ([`bmm`], [`bmm_at_b`], [`bmm_a_bt`]) operate on 3-D
//! tensors `[batch, ·, ·]`, parallelise over the batch dimension (the
//! natural grain for multi-head attention) and route each slab through the
//! same blocked panels (`bmm_a_bt` after transposing the slab of `B`), so
//! the 2-D and batched kernels cannot drift apart.
//!
//! **Dispatch**: each panel body is `#[inline(always)]` and is compiled
//! twice — once for the build's baseline target and once inside a
//! `#[target_feature(enable = "avx2")]` clone. The panel entry picks the
//! clone when the CPU reports AVX2 at run time. Only AVX2 is enabled, never
//! FMA, so the clone performs the same multiplies and adds in the same
//! order and its results are bit-identical to the portable body's.

use crate::Tensor;
use rayon::prelude::*;

/// Below this many output elements the kernels run sequentially; the rayon
/// fork/join overhead would dominate otherwise.
const PAR_THRESHOLD: usize = 32 * 32;

/// Output rows per parallel panel (the rayon work grain).
const MC: usize = 32;
/// Reduction-dimension panel: `KC × NC` of `B` is the cache-resident block.
const KC: usize = 64;
/// Output-column panel; `KC * NC * 4` bytes ≈ 32 KiB ≈ L1.
const NC: usize = 128;
/// Tile edge of [`transpose`]: one 16×16 tile of the source and one of the
/// destination (1 KiB each) stay in L1 while it is copied.
const TILE: usize = 16;

#[inline(always)]
fn axpy(acc: &mut [f32], x: f32, row: &[f32]) {
    debug_assert_eq!(acc.len(), row.len());
    for (a, &r) in acc.iter_mut().zip(row.iter()) {
        *a += x * r;
    }
}

/// Four rank-1 updates folded into one pass over the C row. Each element
/// still accumulates its four products in ascending-k order, so the result
/// is bit-identical to four sequential [`axpy`] calls.
#[inline(always)]
fn axpy4(acc: &mut [f32], x: [f32; 4], r0: &[f32], r1: &[f32], r2: &[f32], r3: &[f32]) {
    let n = acc.len();
    let (r0, r1, r2, r3) = (&r0[..n], &r1[..n], &r2[..n], &r3[..n]);
    for j in 0..n {
        let mut v = acc[j];
        v += x[0] * r0[j];
        v += x[1] * r1[j];
        v += x[2] * r2[j];
        v += x[3] * r3[j];
        acc[j] = v;
    }
}

/// Blocked `C += A · B` over rows `i0..i0+rows` of `A`/`C` (the sequential
/// per-panel body shared by [`matmul_into`] and [`bmm`]).
fn matmul_panel(a: &[f32], b: &[f32], cpanel: &mut [f32], i0: usize, rows: usize, k: usize, n: usize) {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") {
        // SAFETY: the clone's only requirement is AVX2, which
        // `is_x86_feature_detected!("avx2")` just confirmed.
        return unsafe { matmul_panel_avx2(a, b, cpanel, i0, rows, k, n) };
    }
    matmul_panel_body(a, b, cpanel, i0, rows, k, n)
}

/// [`matmul_panel_body`] compiled with AVX2 enabled.
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn matmul_panel_avx2(
    a: &[f32],
    b: &[f32],
    cpanel: &mut [f32],
    i0: usize,
    rows: usize,
    k: usize,
    n: usize,
) {
    matmul_panel_body(a, b, cpanel, i0, rows, k, n)
}

#[inline(always)]
fn matmul_panel_body(a: &[f32], b: &[f32], cpanel: &mut [f32], i0: usize, rows: usize, k: usize, n: usize) {
    let mut kc = 0;
    while kc < k {
        let kend = (kc + KC).min(k);
        let mut jc = 0;
        while jc < n {
            let jend = (jc + NC).min(n);
            for r in 0..rows {
                let arow = &a[(i0 + r) * k..(i0 + r + 1) * k];
                let crow = &mut cpanel[r * n + jc..r * n + jend];
                let mut kk = kc;
                while kk + 4 <= kend {
                    axpy4(
                        crow,
                        [arow[kk], arow[kk + 1], arow[kk + 2], arow[kk + 3]],
                        &b[kk * n + jc..kk * n + jend],
                        &b[(kk + 1) * n + jc..(kk + 1) * n + jend],
                        &b[(kk + 2) * n + jc..(kk + 2) * n + jend],
                        &b[(kk + 3) * n + jc..(kk + 3) * n + jend],
                    );
                    kk += 4;
                }
                while kk < kend {
                    axpy(crow, arow[kk], &b[kk * n + jc..kk * n + jend]);
                    kk += 1;
                }
            }
            jc = jend;
        }
        kc = kend;
    }
}

/// Blocked `C += Aᵀ · B` panel (`A: [k,m]` accessed with stride `m`);
/// `[k, m, n]` are the problem dimensions.
fn matmul_at_b_panel(a: &[f32], b: &[f32], cpanel: &mut [f32], i0: usize, rows: usize, dims: [usize; 3]) {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") {
        // SAFETY: the clone's only requirement is AVX2, which
        // `is_x86_feature_detected!("avx2")` just confirmed.
        return unsafe { matmul_at_b_panel_avx2(a, b, cpanel, i0, rows, dims) };
    }
    matmul_at_b_panel_body(a, b, cpanel, i0, rows, dims)
}

/// [`matmul_at_b_panel_body`] compiled with AVX2 enabled.
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn matmul_at_b_panel_avx2(
    a: &[f32],
    b: &[f32],
    cpanel: &mut [f32],
    i0: usize,
    rows: usize,
    dims: [usize; 3],
) {
    matmul_at_b_panel_body(a, b, cpanel, i0, rows, dims)
}

#[inline(always)]
fn matmul_at_b_panel_body(
    a: &[f32],
    b: &[f32],
    cpanel: &mut [f32],
    i0: usize,
    rows: usize,
    [k, m, n]: [usize; 3],
) {
    let mut kc = 0;
    while kc < k {
        let kend = (kc + KC).min(k);
        let mut jc = 0;
        while jc < n {
            let jend = (jc + NC).min(n);
            for r in 0..rows {
                let i = i0 + r;
                let crow = &mut cpanel[r * n + jc..r * n + jend];
                let mut kk = kc;
                while kk + 4 <= kend {
                    axpy4(
                        crow,
                        [a[kk * m + i], a[(kk + 1) * m + i], a[(kk + 2) * m + i], a[(kk + 3) * m + i]],
                        &b[kk * n + jc..kk * n + jend],
                        &b[(kk + 1) * n + jc..(kk + 1) * n + jend],
                        &b[(kk + 2) * n + jc..(kk + 2) * n + jend],
                        &b[(kk + 3) * n + jc..(kk + 3) * n + jend],
                    );
                    kk += 4;
                }
                while kk < kend {
                    axpy(crow, a[kk * m + i], &b[kk * n + jc..kk * n + jend]);
                    kk += 1;
                }
            }
            jc = jend;
        }
        kc = kend;
    }
}

/// `C = A · B` for `A: [m,k]`, `B: [k,n]`.
///
/// # Panics
/// Panics if the inner dimensions disagree or either operand is not 2-D.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.ndim(), 2, "matmul: A must be 2-D");
    assert_eq!(b.ndim(), 2, "matmul: B must be 2-D");
    let (m, k) = (a.dim(0), a.dim(1));
    let (kb, n) = (b.dim(0), b.dim(1));
    assert_eq!(k, kb, "matmul: inner dims {} vs {}", k, kb);
    let mut out = Tensor::zeros(&[m, n]);
    matmul_into(a.data(), b.data(), out.data_mut(), m, k, n);
    out
}

/// Raw-slice core of [`matmul`]; also used by the batched variant.
pub fn matmul_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    if m * n >= PAR_THRESHOLD && m > 1 {
        c.par_chunks_mut(MC * n).enumerate().for_each(|(ci, cpanel)| {
            matmul_panel(a, b, cpanel, ci * MC, cpanel.len() / n, k, n);
        });
    } else if n > 0 {
        matmul_panel(a, b, c, 0, m, k, n);
    }
}

/// `C = Aᵀ · B` for `A: [k,m]`, `B: [k,n]` → `C: [m,n]`.
///
/// This is the weight-gradient shape `dW = Xᵀ · dY` without materialising
/// `Xᵀ`. Parallelises over output-row panels; each output row `i`
/// accumulates `sum_k A[k,i] * B[k,:]`.
pub fn matmul_at_b(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.ndim(), 2, "matmul_at_b: A must be 2-D");
    assert_eq!(b.ndim(), 2, "matmul_at_b: B must be 2-D");
    let (k, m) = (a.dim(0), a.dim(1));
    let (kb, n) = (b.dim(0), b.dim(1));
    assert_eq!(k, kb, "matmul_at_b: inner dims {} vs {}", k, kb);
    let mut out = Tensor::zeros(&[m, n]);
    matmul_at_b_into(a.data(), b.data(), out.data_mut(), k, m, n);
    out
}

/// Raw-slice core of [`matmul_at_b`].
pub fn matmul_at_b_into(a: &[f32], b: &[f32], c: &mut [f32], k: usize, m: usize, n: usize) {
    debug_assert_eq!(a.len(), k * m);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    if m * n >= PAR_THRESHOLD && m > 1 {
        c.par_chunks_mut(MC * n).enumerate().for_each(|(ci, cpanel)| {
            matmul_at_b_panel(a, b, cpanel, ci * MC, cpanel.len() / n, [k, m, n]);
        });
    } else if n > 0 {
        matmul_at_b_panel(a, b, c, 0, m, [k, m, n]);
    }
}

/// `C = A · Bᵀ` for `A: [m,k]`, `B: [n,k]` → `C: [m,n]`.
///
/// This is the forward shape `Y = X · Wᵀ` (with `W: [n,k]` stored
/// row-major as out×in) and also the attention-score shape `Q · Kᵀ`.
pub fn matmul_a_bt(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.ndim(), 2, "matmul_a_bt: A must be 2-D");
    assert_eq!(b.ndim(), 2, "matmul_a_bt: B must be 2-D");
    let (m, k) = (a.dim(0), a.dim(1));
    let (n, kb) = (b.dim(0), b.dim(1));
    assert_eq!(k, kb, "matmul_a_bt: inner dims {} vs {}", k, kb);
    let mut out = Tensor::zeros(&[m, n]);
    matmul_a_bt_into(a.data(), b.data(), out.data_mut(), m, k, n);
    out
}

/// Raw-slice core of [`matmul_a_bt`]: transposes `B` into a `[k,n]` buffer
/// once, then adds `A · Bᵀ` into `c` through [`matmul_into`].
pub fn matmul_a_bt_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    matmul_into(a, &transpose(b, n, k), c, m, k, n);
}

/// `src: [rows, cols]` → a fresh `[cols, rows]` buffer, copied in
/// `TILE × TILE` tiles so neither side is streamed with a cache-missing
/// stride. The one transpose of the crate: [`matmul_a_bt`], [`bmm_a_bt`]
/// and [`Tensor::transpose2`] share it.
pub(crate) fn transpose(src: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    debug_assert_eq!(src.len(), rows * cols);
    let mut dst = vec![0.0f32; rows * cols];
    for i0 in (0..rows).step_by(TILE) {
        let iend = (i0 + TILE).min(rows);
        for j0 in (0..cols).step_by(TILE) {
            let jend = (j0 + TILE).min(cols);
            for i in i0..iend {
                for j in j0..jend {
                    dst[j * rows + i] = src[i * cols + j];
                }
            }
        }
    }
    dst
}

fn batch_dims3(t: &Tensor, what: &str) -> (usize, usize, usize) {
    assert_eq!(t.ndim(), 3, "{what}: expected a 3-D tensor, got {:?}", t.shape());
    (t.dim(0), t.dim(1), t.dim(2))
}

/// Batched `C[b] = A[b] · B[b]` for `A: [bs,m,k]`, `B: [bs,k,n]`.
pub fn bmm(a: &Tensor, b: &Tensor) -> Tensor {
    let (bs, m, k) = batch_dims3(a, "bmm A");
    let (bs2, kb, n) = batch_dims3(b, "bmm B");
    assert_eq!(bs, bs2, "bmm: batch dims {} vs {}", bs, bs2);
    assert_eq!(k, kb, "bmm: inner dims {} vs {}", k, kb);
    let mut out = Tensor::zeros(&[bs, m, n]);
    if m * n == 0 {
        return out;
    }
    out.data_mut()
        .par_chunks_mut(m * n)
        .enumerate()
        .for_each(|(bi, cslab)| {
            let aslab = &a.data()[bi * m * k..(bi + 1) * m * k];
            let bslab = &b.data()[bi * k * n..(bi + 1) * k * n];
            matmul_panel(aslab, bslab, cslab, 0, m, k, n);
        });
    out
}

/// Batched `C[b] = A[b] · B[b]ᵀ` for `A: [bs,m,k]`, `B: [bs,n,k]`.
pub fn bmm_a_bt(a: &Tensor, b: &Tensor) -> Tensor {
    let (bs, m, k) = batch_dims3(a, "bmm_a_bt A");
    let (bs2, n, kb) = batch_dims3(b, "bmm_a_bt B");
    assert_eq!(bs, bs2, "bmm_a_bt: batch dims {} vs {}", bs, bs2);
    assert_eq!(k, kb, "bmm_a_bt: inner dims {} vs {}", k, kb);
    let mut out = Tensor::zeros(&[bs, m, n]);
    if m * n == 0 {
        return out;
    }
    out.data_mut()
        .par_chunks_mut(m * n)
        .enumerate()
        .for_each(|(bi, cslab)| {
            let aslab = &a.data()[bi * m * k..(bi + 1) * m * k];
            let bt = transpose(&b.data()[bi * n * k..(bi + 1) * n * k], n, k);
            matmul_panel(aslab, &bt, cslab, 0, m, k, n);
        });
    out
}

/// Batched `C[b] = A[b]ᵀ · B[b]` for `A: [bs,k,m]`, `B: [bs,k,n]`.
pub fn bmm_at_b(a: &Tensor, b: &Tensor) -> Tensor {
    let (bs, k, m) = batch_dims3(a, "bmm_at_b A");
    let (bs2, kb, n) = batch_dims3(b, "bmm_at_b B");
    assert_eq!(bs, bs2, "bmm_at_b: batch dims {} vs {}", bs, bs2);
    assert_eq!(k, kb, "bmm_at_b: inner dims {} vs {}", k, kb);
    let mut out = Tensor::zeros(&[bs, m, n]);
    if m * n == 0 {
        return out;
    }
    out.data_mut()
        .par_chunks_mut(m * n)
        .enumerate()
        .for_each(|(bi, cslab)| {
            let aslab = &a.data()[bi * k * m..(bi + 1) * k * m];
            let bslab = &b.data()[bi * k * n..(bi + 1) * k * n];
            matmul_at_b_panel(aslab, bslab, cslab, 0, m, [k, m, n]);
        });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TensorRng;

    fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.dim(0), a.dim(1));
        let n = b.dim(1);
        let mut out = Tensor::zeros(&[m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0;
                for kk in 0..k {
                    s += a.at(&[i, kk]) * b.at(&[kk, j]);
                }
                out.set(&[i, j], s);
            }
        }
        out
    }

    fn seq_tensor(shape: &[usize], offset: f32) -> Tensor {
        let n: usize = shape.iter().product();
        Tensor::from_vec(shape, (0..n).map(|i| (i as f32) * 0.1 + offset).collect())
    }

    #[test]
    fn matmul_matches_naive_bitwise() {
        let a = seq_tensor(&[5, 7], 0.3);
        let b = seq_tensor(&[7, 4], -1.0);
        let fast = matmul(&a, &b);
        let slow = naive_matmul(&a, &b);
        assert_eq!(
            fast.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            slow.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "blocked kernel must preserve the per-element accumulation order"
        );
    }

    #[test]
    fn matmul_identity() {
        let a = seq_tensor(&[4, 4], 1.0);
        let mut eye = Tensor::zeros(&[4, 4]);
        for i in 0..4 {
            eye.set(&[i, i], 1.0);
        }
        assert!(matmul(&a, &eye).max_abs_diff(&a) < 1e-6);
        assert!(matmul(&eye, &a).max_abs_diff(&a) < 1e-6);
    }

    #[test]
    fn matmul_large_parallel_path() {
        // Big enough to cross PAR_THRESHOLD, KC and NC and exercise the
        // panel boundaries (non-multiples of every block size).
        let a = seq_tensor(&[67, 70], 0.01);
        let b = seq_tensor(&[70, 131], -0.02);
        let fast = matmul(&a, &b);
        let slow = naive_matmul(&a, &b);
        assert_eq!(
            fast.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            slow.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn at_b_equals_explicit_transpose() {
        let a = seq_tensor(&[6, 3], 0.5);
        let b = seq_tensor(&[6, 5], -0.2);
        let fused = matmul_at_b(&a, &b);
        let explicit = matmul(&a.transpose2(), &b);
        assert!(fused.max_abs_diff(&explicit) < 1e-4);
    }

    #[test]
    fn a_bt_equals_explicit_transpose() {
        let a = seq_tensor(&[4, 6], 0.5);
        let b = seq_tensor(&[3, 6], -0.2);
        let fused = matmul_a_bt(&a, &b);
        let explicit = matmul(&a, &b.transpose2());
        assert_eq!(
            fused.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            explicit.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    #[should_panic(expected = "inner dims")]
    fn matmul_rejects_mismatch() {
        let _ = matmul(&Tensor::zeros(&[2, 3]), &Tensor::zeros(&[4, 2]));
    }

    #[test]
    fn bmm_matches_per_batch_matmul() {
        let a = seq_tensor(&[3, 4, 5], 0.1);
        let b = seq_tensor(&[3, 5, 2], -0.3);
        let out = bmm(&a, &b);
        for bi in 0..3 {
            let asl = Tensor::from_vec(&[4, 5], a.data()[bi * 20..(bi + 1) * 20].to_vec());
            let bsl = Tensor::from_vec(&[5, 2], b.data()[bi * 10..(bi + 1) * 10].to_vec());
            let expect = matmul(&asl, &bsl);
            let got = Tensor::from_vec(&[4, 2], out.data()[bi * 8..(bi + 1) * 8].to_vec());
            assert!(got.max_abs_diff(&expect) < 1e-4);
        }
    }

    #[test]
    fn bmm_a_bt_matches_per_batch() {
        let a = seq_tensor(&[2, 3, 4], 0.2);
        let b = seq_tensor(&[2, 5, 4], -0.1);
        let out = bmm_a_bt(&a, &b);
        for bi in 0..2 {
            let asl = Tensor::from_vec(&[3, 4], a.data()[bi * 12..(bi + 1) * 12].to_vec());
            let bsl = Tensor::from_vec(&[5, 4], b.data()[bi * 20..(bi + 1) * 20].to_vec());
            let expect = matmul_a_bt(&asl, &bsl);
            let got = Tensor::from_vec(&[3, 5], out.data()[bi * 15..(bi + 1) * 15].to_vec());
            assert!(got.max_abs_diff(&expect) < 1e-4);
        }
    }

    #[test]
    fn bmm_at_b_matches_per_batch() {
        let a = seq_tensor(&[2, 4, 3], 0.2);
        let b = seq_tensor(&[2, 4, 5], -0.1);
        let out = bmm_at_b(&a, &b);
        for bi in 0..2 {
            let asl = Tensor::from_vec(&[4, 3], a.data()[bi * 12..(bi + 1) * 12].to_vec());
            let bsl = Tensor::from_vec(&[4, 5], b.data()[bi * 20..(bi + 1) * 20].to_vec());
            let expect = matmul_at_b(&asl, &bsl);
            let got = Tensor::from_vec(&[3, 5], out.data()[bi * 15..(bi + 1) * 15].to_vec());
            assert!(got.max_abs_diff(&expect) < 1e-4);
        }
    }

    #[test]
    fn batched_kernels_return_empty_slabs_like_matmul() {
        assert_eq!(matmul(&Tensor::zeros(&[0, 3]), &Tensor::zeros(&[3, 4])).shape(), &[0, 4]);
        for (m, n) in [(0, 4), (4, 0), (0, 0)] {
            let k = 3;
            let out = bmm(&Tensor::zeros(&[2, m, k]), &Tensor::zeros(&[2, k, n]));
            assert_eq!(out.shape(), &[2, m, n]);
            let out = bmm_a_bt(&Tensor::zeros(&[2, m, k]), &Tensor::zeros(&[2, n, k]));
            assert_eq!(out.shape(), &[2, m, n]);
            let out = bmm_at_b(&Tensor::zeros(&[2, k, m]), &Tensor::zeros(&[2, k, n]));
            assert_eq!(out.shape(), &[2, m, n]);
        }
    }

    /// `kernel_differential`'s shape mix: tiny dims, exact MC/KC/NC tile
    /// multiples, dims straddling a tile, and anything up to 200.
    fn trial_dims(rng: &mut TensorRng) -> [usize; 3] {
        let mut pick = || match rng.below(4) {
            0 => rng.below(8) + 1,
            1 => [32, 64, 128][rng.below(3)],
            2 => [31, 33, 63, 65, 127, 129][rng.below(6)],
            _ => rng.below(200) + 1,
        };
        [pick(), pick(), pick()]
    }

    /// Normal draws with a quarter of the entries replaced by ±0, ±∞, NaN,
    /// subnormals and extreme magnitudes.
    fn edge_fill(rng: &mut TensorRng, len: usize) -> Vec<f32> {
        let specials = [
            0.0f32,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::MIN_POSITIVE / 2.0,
            -f32::from_bits(1),
            1e-38,
            1e38,
        ];
        (0..len)
            .map(|_| if rng.below(4) == 0 { specials[rng.below(specials.len())] } else { rng.normal() })
            .collect()
    }

    /// NaN lanes collapsed to one encoding: IEEE leaves a NaN result's
    /// sign and payload unspecified (see the module docs).
    fn canonical_bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| if x.is_nan() { 0x7FC0_0000 } else { x.to_bits() }).collect()
    }

    #[derive(Clone, Copy, Debug)]
    enum Layout {
        Nn,
        AtB,
    }

    /// Run one layout's panel over `[m, n]` in MC-row panels, as the
    /// parallel path splits it, through the portable body or the AVX2 clone.
    fn run_panels(layout: Layout, avx2: bool, a: &[f32], b: &[f32], [m, k, n]: [usize; 3]) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for (ci, cpanel) in c.chunks_mut(MC * n).enumerate() {
            let (i0, rows) = (ci * MC, cpanel.len() / n);
            match (layout, avx2) {
                (Layout::Nn, false) => matmul_panel_body(a, b, cpanel, i0, rows, k, n),
                (Layout::AtB, false) => matmul_at_b_panel_body(a, b, cpanel, i0, rows, [k, m, n]),
                #[cfg(target_arch = "x86_64")]
                (layout, true) => {
                    assert!(is_x86_feature_detected!("avx2"));
                    // SAFETY: the assert above is the clones' runtime AVX2 check.
                    unsafe {
                        match layout {
                            Layout::Nn => matmul_panel_avx2(a, b, cpanel, i0, rows, k, n),
                            Layout::AtB => matmul_at_b_panel_avx2(a, b, cpanel, i0, rows, [k, m, n]),
                        }
                    }
                }
                #[cfg(not(target_arch = "x86_64"))]
                (_, true) => unreachable!("AVX2 clones exist only on x86_64"),
            }
        }
        c
    }

    /// Textbook ascending-k reference for both panel layouts.
    fn naive(layout: Layout, a: &[f32], b: &[f32], [m, k, n]: [usize; 3]) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0f32;
                for kk in 0..k {
                    let av = match layout {
                        Layout::Nn => a[i * k + kk],
                        Layout::AtB => a[kk * m + i],
                    };
                    s += av * b[kk * n + j];
                }
                c[i * n + j] = s;
            }
        }
        c
    }

    #[test]
    fn avx2_clones_bit_identical_to_portable_bodies() {
        #[cfg(target_arch = "x86_64")]
        let avx2 = is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let avx2 = false;
        if !avx2 {
            eprintln!("no AVX2 on this CPU: checked the portable panel bodies against the naive reference");
        }
        let mut rng = TensorRng::seed_from(0xA5C2);
        for trial in 0..64 {
            for layout in [Layout::Nn, Layout::AtB] {
                let dims @ [m, k, n] = trial_dims(&mut rng);
                let a = edge_fill(&mut rng, m * k);
                let b = edge_fill(&mut rng, k * n);
                let portable = run_panels(layout, false, &a, &b, dims);
                assert_eq!(
                    canonical_bits(&portable),
                    canonical_bits(&naive(layout, &a, &b, dims)),
                    "trial {trial} {layout:?} {m}x{k}x{n}: portable body diverged from naive"
                );
                if avx2 {
                    assert_eq!(
                        canonical_bits(&run_panels(layout, true, &a, &b, dims)),
                        canonical_bits(&portable),
                        "trial {trial} {layout:?} {m}x{k}x{n}: AVX2 clone diverged from portable body"
                    );
                }
            }
        }
    }

    #[test]
    fn zero_times_infinity_is_nan_like_the_reference() {
        // the old kernels skipped a == 0.0 as an optimisation, silently
        // turning 0 × ∞ into 0 instead of NaN; the blocked kernels follow
        // IEEE 754 like the naive loop does
        let a = Tensor::from_vec(&[1, 2], vec![0.0, 1.0]);
        let b = Tensor::from_vec(&[2, 1], vec![f32::INFINITY, 1.0]);
        assert!(matmul(&a, &b).data()[0].is_nan());
    }
}
