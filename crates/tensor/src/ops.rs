//! Elementwise operations, reductions, softmax, and indexing helpers.
//!
//! Everything here is either in place (`*_inplace`, `*_assign`) or allocates
//! a fresh output tensor; the naming makes which one obvious. Kernels large
//! enough to benefit are parallelised with rayon.

use crate::Tensor;
use rayon::prelude::*;

/// Minimum number of elements before elementwise kernels go parallel.
const PAR_ELEMS: usize = 16 * 1024;

impl Tensor {
    /// Elementwise sum, allocating the result.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a + b)
    }

    /// Elementwise difference, allocating the result.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product, allocating the result.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a * b)
    }

    /// In-place `self += other`.
    pub fn add_assign(&mut self, other: &Tensor) {
        self.zip_assign(other, |a, b| *a += b);
    }

    /// In-place `self *= other` (elementwise).
    pub fn mul_assign(&mut self, other: &Tensor) {
        self.zip_assign(other, |a, b| *a *= b);
    }

    /// In-place `self += alpha * other` (AXPY).
    pub fn axpy_assign(&mut self, alpha: f32, other: &Tensor) {
        self.zip_assign(other, |a, b| *a += alpha * b);
    }

    /// In-place scalar multiply.
    pub fn scale_assign(&mut self, alpha: f32) {
        if self.numel() >= PAR_ELEMS {
            self.data_mut().par_iter_mut().for_each(|v| *v *= alpha);
        } else {
            for v in self.data_mut() {
                *v *= alpha;
            }
        }
    }

    /// Scalar multiply, allocating the result.
    pub fn scale(&self, alpha: f32) -> Tensor {
        let mut out = self.clone();
        out.scale_assign(alpha);
        out
    }

    /// Apply `f` to every element, allocating the result.
    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync) -> Tensor {
        let mut out = self.clone();
        out.map_inplace(f);
        out
    }

    /// Apply `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32 + Sync) {
        if self.numel() >= PAR_ELEMS {
            self.data_mut().par_iter_mut().for_each(|v| *v = f(*v));
        } else {
            for v in self.data_mut() {
                *v = f(*v);
            }
        }
    }

    fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32 + Sync) -> Tensor {
        assert_eq!(self.shape(), other.shape(), "elementwise op: shape mismatch");
        let mut out = self.clone();
        out.zip_assign(other, |a, b| *a = f(*a, b));
        out
    }

    fn zip_assign(&mut self, other: &Tensor, f: impl Fn(&mut f32, f32) + Sync) {
        assert_eq!(self.shape(), other.shape(), "elementwise op: shape mismatch");
        if self.numel() >= PAR_ELEMS {
            self.data_mut()
                .par_iter_mut()
                .zip(other.data().par_iter())
                .for_each(|(a, &b)| f(a, b));
        } else {
            for (a, &b) in self.data_mut().iter_mut().zip(other.data().iter()) {
                f(a, b);
            }
        }
    }

    /// Sum of all elements (f64 accumulation for stability).
    pub fn sum(&self) -> f32 {
        self.data().iter().map(|&v| v as f64).sum::<f64>() as f32
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f32 {
        if self.numel() == 0 {
            0.0
        } else {
            self.sum() / self.numel() as f32
        }
    }

    /// Sum of squares of all elements.
    pub fn sum_sq(&self) -> f32 {
        self.data().iter().map(|&v| (v as f64) * (v as f64)).sum::<f64>() as f32
    }

    /// L2 norm of the flattened tensor.
    pub fn l2_norm(&self) -> f32 {
        self.sum_sq().sqrt()
    }

    /// Column-wise sum of a 2-D tensor: `[m,n] -> [n]`.
    ///
    /// This is the bias-gradient reduction `db = sum_rows(dY)`.
    pub fn sum_rows(&self) -> Tensor {
        assert_eq!(self.ndim(), 2, "sum_rows requires a 2-D tensor");
        let (m, n) = (self.dim(0), self.dim(1));
        let mut out = vec![0.0f32; n];
        for i in 0..m {
            let row = &self.data()[i * n..(i + 1) * n];
            for (o, &r) in out.iter_mut().zip(row) {
                *o += r;
            }
        }
        Tensor::from_vec(&[n], out)
    }

    /// Broadcast-add a `[n]` vector to every row of a `[m,n]` tensor, in place.
    pub fn add_row_vector(&mut self, bias: &Tensor) {
        assert_eq!(self.ndim(), 2, "add_row_vector requires a 2-D tensor");
        assert_eq!(bias.ndim(), 1, "bias must be 1-D");
        let n = self.dim(1);
        assert_eq!(bias.numel(), n, "bias length must equal row width");
        let bdata = bias.data();
        if self.numel() >= PAR_ELEMS {
            self.data_mut().par_chunks_mut(n).for_each(|row| {
                for (r, &b) in row.iter_mut().zip(bdata) {
                    *r += b;
                }
            });
        } else {
            for row in self.data_mut().chunks_mut(n) {
                for (r, &b) in row.iter_mut().zip(bdata) {
                    *r += b;
                }
            }
        }
    }

    /// Row-wise softmax of a 2-D tensor, in place (numerically stabilised).
    pub fn softmax_rows_inplace(&mut self) {
        assert_eq!(self.ndim(), 2, "softmax_rows requires a 2-D tensor");
        let n = self.dim(1);
        let body = |row: &mut [f32]| {
            let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0f32;
            for v in row.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            let inv = 1.0 / sum;
            for v in row.iter_mut() {
                *v *= inv;
            }
        };
        if self.numel() >= PAR_ELEMS {
            self.data_mut().par_chunks_mut(n).for_each(body);
        } else {
            self.data_mut().chunks_mut(n).for_each(body);
        }
    }

    /// Backward of row-wise softmax: given softmax output `y` (= self) and
    /// upstream gradient `dy`, returns `dx = y ⊙ (dy − (y·dy))` row-wise.
    pub fn softmax_rows_backward(&self, dy: &Tensor) -> Tensor {
        assert_eq!(self.shape(), dy.shape(), "softmax backward: shape mismatch");
        assert_eq!(self.ndim(), 2, "softmax backward requires 2-D tensors");
        let n = self.dim(1);
        let mut dx = Tensor::zeros(self.shape());
        dx.data_mut()
            .par_chunks_mut(n)
            .zip(self.data().par_chunks(n))
            .zip(dy.data().par_chunks(n))
            .for_each(|((dxr, yr), dyr)| {
                let inner: f32 = yr.iter().zip(dyr).map(|(y, d)| y * d).sum();
                for ((dxv, &y), &d) in dxr.iter_mut().zip(yr).zip(dyr) {
                    *dxv = y * (d - inner);
                }
            });
        dx
    }

    /// Gather rows of a 2-D tensor: `out[i,:] = self[idx[i],:]`.
    pub fn gather_rows(&self, idx: &[usize]) -> Tensor {
        assert_eq!(self.ndim(), 2, "gather_rows requires a 2-D tensor");
        let (m, n) = (self.dim(0), self.dim(1));
        let mut out = Tensor::zeros(&[idx.len(), n]);
        for (oi, &src) in idx.iter().enumerate() {
            assert!(src < m, "gather_rows: index {} out of bounds ({} rows)", src, m);
            out.data_mut()[oi * n..(oi + 1) * n].copy_from_slice(&self.data()[src * n..(src + 1) * n]);
        }
        out
    }

    /// Scatter-add rows into a 2-D tensor: `self[idx[i],:] += src[i,:]`.
    pub fn scatter_add_rows(&mut self, idx: &[usize], src: &Tensor) {
        assert_eq!(self.ndim(), 2, "scatter_add_rows requires a 2-D tensor");
        assert_eq!(src.ndim(), 2, "scatter source must be 2-D");
        assert_eq!(idx.len(), src.dim(0), "index count must match source rows");
        let (m, n) = (self.dim(0), self.dim(1));
        assert_eq!(src.dim(1), n, "scatter source width mismatch");
        for (si, &dst) in idx.iter().enumerate() {
            assert!(dst < m, "scatter_add_rows: index {} out of bounds ({} rows)", dst, m);
            let srow = &src.data()[si * n..(si + 1) * n];
            let drow_start = dst * n;
            for (j, &v) in srow.iter().enumerate() {
                self.data_mut()[drow_start + j] += v;
            }
        }
    }

    /// Index of the maximum element of each row of a 2-D tensor.
    pub fn argmax_rows(&self) -> Vec<usize> {
        assert_eq!(self.ndim(), 2, "argmax_rows requires a 2-D tensor");
        let n = self.dim(1);
        self.data()
            .chunks(n)
            .map(|row| {
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            })
            .collect()
    }

    /// Indices of the top-`k` elements of each row, best first.
    pub fn topk_rows(&self, k: usize) -> Vec<Vec<usize>> {
        assert_eq!(self.ndim(), 2, "topk_rows requires a 2-D tensor");
        let n = self.dim(1);
        assert!(k <= n, "topk_rows: k={} exceeds row width {}", k, n);
        self.data()
            .chunks(n)
            .map(|row| {
                let mut order: Vec<usize> = (0..n).collect();
                order.sort_by(|&a, &b| {
                    row[b].partial_cmp(&row[a]).unwrap_or(std::cmp::Ordering::Equal)
                });
                order.truncate(k);
                order
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(shape: &[usize], v: Vec<f32>) -> Tensor {
        Tensor::from_vec(shape, v)
    }

    #[test]
    fn add_sub_mul() {
        let a = t(&[3], vec![1., 2., 3.]);
        let b = t(&[3], vec![4., 5., 6.]);
        assert_eq!(a.add(&b).data(), &[5., 7., 9.]);
        assert_eq!(b.sub(&a).data(), &[3., 3., 3.]);
        assert_eq!(a.mul(&b).data(), &[4., 10., 18.]);
    }

    #[test]
    fn assign_ops() {
        let mut a = t(&[2], vec![1., 2.]);
        a.add_assign(&t(&[2], vec![1., 1.]));
        assert_eq!(a.data(), &[2., 3.]);
        a.axpy_assign(2.0, &t(&[2], vec![1., 0.]));
        assert_eq!(a.data(), &[4., 3.]);
        a.scale_assign(0.5);
        assert_eq!(a.data(), &[2., 1.5]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn elementwise_rejects_shape_mismatch() {
        let _ = t(&[2], vec![1., 2.]).add(&t(&[3], vec![1., 2., 3.]));
    }

    #[test]
    fn reductions() {
        let a = t(&[2, 2], vec![1., 2., 3., 4.]);
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.mean(), 2.5);
        assert_eq!(a.sum_sq(), 30.0);
        assert!((a.l2_norm() - 30f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn sum_rows_is_bias_grad_reduction() {
        let a = t(&[2, 3], vec![1., 2., 3., 10., 20., 30.]);
        assert_eq!(a.sum_rows().data(), &[11., 22., 33.]);
    }

    #[test]
    fn add_row_vector_broadcasts() {
        let mut a = Tensor::zeros(&[2, 3]);
        a.add_row_vector(&t(&[3], vec![1., 2., 3.]));
        assert_eq!(a.data(), &[1., 2., 3., 1., 2., 3.]);
    }

    #[test]
    fn softmax_rows_sum_to_one_and_order_preserved() {
        let mut a = t(&[2, 3], vec![1., 2., 3., -1., 0., 1.]);
        a.softmax_rows_inplace();
        for r in 0..2 {
            let row = a.row(r);
            let s: f32 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
            assert!(row[0] < row[1] && row[1] < row[2]);
        }
    }

    #[test]
    fn softmax_handles_large_logits() {
        let mut a = t(&[1, 2], vec![1000.0, 1001.0]);
        a.softmax_rows_inplace();
        assert!(!a.has_non_finite());
        assert!((a.data()[0] + a.data()[1] - 1.0).abs() < 1e-5);
    }

    #[test]
    fn softmax_backward_matches_finite_difference() {
        let x = t(&[1, 4], vec![0.3, -0.1, 0.7, 0.2]);
        let dy = t(&[1, 4], vec![0.5, -0.2, 0.1, 0.9]);
        let mut y = x.clone();
        y.softmax_rows_inplace();
        let dx = y.softmax_rows_backward(&dy);
        // central finite differences on loss = sum(softmax(x) * dy)
        let eps = 1e-3f32;
        for i in 0..4 {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            xp.softmax_rows_inplace();
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            xm.softmax_rows_inplace();
            let lp: f32 = xp.data().iter().zip(dy.data()).map(|(a, b)| a * b).sum();
            let lm: f32 = xm.data().iter().zip(dy.data()).map(|(a, b)| a * b).sum();
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - dx.data()[i]).abs() < 1e-3,
                "component {}: fd {} vs analytic {}",
                i,
                fd,
                dx.data()[i]
            );
        }
    }

    #[test]
    fn gather_scatter_roundtrip() {
        let base = t(&[4, 2], vec![0., 1., 10., 11., 20., 21., 30., 31.]);
        let picked = base.gather_rows(&[2, 0]);
        assert_eq!(picked.data(), &[20., 21., 0., 1.]);
        let mut acc = Tensor::zeros(&[4, 2]);
        acc.scatter_add_rows(&[2, 0], &picked);
        assert_eq!(acc.at(&[2, 0]), 20.0);
        assert_eq!(acc.at(&[0, 1]), 1.0);
        assert_eq!(acc.at(&[1, 0]), 0.0);
    }

    #[test]
    fn scatter_add_accumulates_duplicates() {
        let mut acc = Tensor::zeros(&[2, 1]);
        let src = t(&[3, 1], vec![1., 2., 4.]);
        acc.scatter_add_rows(&[0, 0, 1], &src);
        assert_eq!(acc.data(), &[3., 4.]);
    }

    #[test]
    fn argmax_and_topk() {
        let a = t(&[2, 4], vec![0.1, 0.9, 0.3, 0.2, 5., 1., 7., 3.]);
        assert_eq!(a.argmax_rows(), vec![1, 2]);
        let tk = a.topk_rows(2);
        assert_eq!(tk[0], vec![1, 2]);
        assert_eq!(tk[1], vec![2, 0]);
    }

    #[test]
    fn map_applies_function() {
        let a = t(&[3], vec![1., -2., 3.]);
        assert_eq!(a.map(|v| v.abs()).data(), &[1., 2., 3.]);
    }
}
