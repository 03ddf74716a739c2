//! The core [`Tensor`] type: a contiguous row-major `f32` buffer plus shape.

/// A dense, contiguous, row-major `f32` tensor.
///
/// `Tensor` is the single numeric container used throughout `geofm`. Shapes
/// are dynamic (a `Vec<usize>`), which keeps the API small; the layers in
/// `geofm-nn` validate shapes at construction and debug-assert them on the
/// hot path.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Build a tensor from an explicit shape and data buffer.
    ///
    /// # Panics
    /// Panics if `data.len()` does not equal the product of `shape`.
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Self {
        let numel: usize = shape.iter().product();
        assert_eq!(
            data.len(),
            numel,
            "Tensor::from_vec: data length {} != shape {:?} product {}",
            data.len(),
            shape,
            numel
        );
        Self { shape: shape.to_vec(), data }
    }

    /// All-zeros tensor of the given shape.
    pub fn zeros(shape: &[usize]) -> Self {
        let numel: usize = shape.iter().product();
        Self { shape: shape.to_vec(), data: vec![0.0; numel] }
    }

    /// All-ones tensor of the given shape.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// Constant-filled tensor of the given shape.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let numel: usize = shape.iter().product();
        Self { shape: shape.to_vec(), data: vec![value; numel] }
    }

    /// The tensor's shape.
    #[inline]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of dimensions.
    #[inline]
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    #[inline]
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Size of dimension `d`.
    ///
    /// # Panics
    /// Panics if `d >= ndim()`.
    #[inline]
    pub fn dim(&self, d: usize) -> usize {
        self.shape[d]
    }

    /// Immutable view of the underlying buffer (row-major).
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying buffer (row-major).
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume the tensor and return its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Reinterpret the buffer under a new shape with the same element count.
    ///
    /// # Panics
    /// Panics if the element counts differ.
    pub fn reshape(mut self, shape: &[usize]) -> Self {
        let numel: usize = shape.iter().product();
        assert_eq!(
            self.data.len(),
            numel,
            "reshape: cannot view {:?} ({} elems) as {:?} ({} elems)",
            self.shape,
            self.data.len(),
            shape,
            numel
        );
        self.shape = shape.to_vec();
        self
    }

    /// In-place variant of [`Tensor::reshape`] for borrowed tensors.
    pub fn reshape_in_place(&mut self, shape: &[usize]) {
        let numel: usize = shape.iter().product();
        assert_eq!(self.data.len(), numel, "reshape_in_place: element count mismatch");
        self.shape = shape.to_vec();
    }

    /// Value at a multi-dimensional index.
    ///
    /// Intended for tests and small reads; hot code should index `data()`.
    pub fn at(&self, idx: &[usize]) -> f32 {
        self.data[self.flat_index(idx)]
    }

    /// Set the value at a multi-dimensional index.
    pub fn set(&mut self, idx: &[usize], value: f32) {
        let flat = self.flat_index(idx);
        self.data[flat] = value;
    }

    fn flat_index(&self, idx: &[usize]) -> usize {
        assert_eq!(idx.len(), self.shape.len(), "index rank mismatch");
        let mut flat = 0usize;
        for (d, (&i, &s)) in idx.iter().zip(self.shape.iter()).enumerate() {
            assert!(i < s, "index {} out of bounds for dim {} of size {}", i, d, s);
            flat = flat * s + i;
        }
        flat
    }

    /// Borrow row `r` of a 2-D tensor as a slice.
    ///
    /// # Panics
    /// Panics if the tensor is not 2-D or `r` is out of range.
    pub fn row(&self, r: usize) -> &[f32] {
        assert_eq!(self.ndim(), 2, "row() requires a 2-D tensor");
        let cols = self.shape[1];
        &self.data[r * cols..(r + 1) * cols]
    }

    /// Mutable borrow of row `r` of a 2-D tensor.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert_eq!(self.ndim(), 2, "row_mut() requires a 2-D tensor");
        let cols = self.shape[1];
        &mut self.data[r * cols..(r + 1) * cols]
    }

    /// Copy a contiguous range of rows of a 2-D tensor into a new tensor.
    pub fn rows(&self, start: usize, end: usize) -> Tensor {
        assert_eq!(self.ndim(), 2, "rows() requires a 2-D tensor");
        assert!(start <= end && end <= self.shape[0], "row range out of bounds");
        let cols = self.shape[1];
        Tensor::from_vec(&[end - start, cols], self.data[start * cols..end * cols].to_vec())
    }

    /// Transpose of a 2-D tensor (allocates; the cache-blocked transpose
    /// that [`crate::matmul_a_bt`] runs on its right operand).
    pub fn transpose2(&self) -> Tensor {
        assert_eq!(self.ndim(), 2, "transpose2() requires a 2-D tensor");
        let (m, n) = (self.shape[0], self.shape[1]);
        Tensor::from_vec(&[n, m], crate::matmul::transpose(&self.data, m, n))
    }

    /// `true` iff any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|v| !v.is_finite())
    }

    /// Maximum absolute difference against another tensor of the same shape.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape, other.shape, "max_abs_diff: shape mismatch");
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_roundtrip() {
        let t = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.numel(), 6);
        assert_eq!(t.at(&[1, 2]), 6.0);
        assert_eq!(t.row(0), &[1., 2., 3.]);
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn from_vec_rejects_bad_len() {
        let _ = Tensor::from_vec(&[2, 2], vec![1.0; 3]);
    }

    #[test]
    fn zeros_ones_full() {
        assert!(Tensor::zeros(&[4]).data().iter().all(|&v| v == 0.0));
        assert!(Tensor::ones(&[4]).data().iter().all(|&v| v == 1.0));
        assert!(Tensor::full(&[4], 2.5).data().iter().all(|&v| v == 2.5));
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(&[2, 3], (0..6).map(|v| v as f32).collect());
        let r = t.clone().reshape(&[3, 2]);
        assert_eq!(r.shape(), &[3, 2]);
        assert_eq!(r.data(), t.data());
    }

    #[test]
    #[should_panic(expected = "reshape")]
    fn reshape_rejects_count_mismatch() {
        let _ = Tensor::zeros(&[2, 3]).reshape(&[4, 2]);
    }

    #[test]
    fn set_and_at() {
        let mut t = Tensor::zeros(&[2, 2, 2]);
        t.set(&[1, 0, 1], 7.0);
        assert_eq!(t.at(&[1, 0, 1]), 7.0);
        assert_eq!(t.data()[5], 7.0);
    }

    #[test]
    fn transpose2_is_involution() {
        let t = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let tt = t.transpose2();
        assert_eq!(tt.shape(), &[3, 2]);
        assert_eq!(tt.at(&[2, 1]), 6.0);
        assert_eq!(tt.transpose2(), t);
    }

    #[test]
    fn rows_slice() {
        let t = Tensor::from_vec(&[3, 2], vec![0., 1., 2., 3., 4., 5.]);
        let mid = t.rows(1, 3);
        assert_eq!(mid.shape(), &[2, 2]);
        assert_eq!(mid.data(), &[2., 3., 4., 5.]);
    }

    #[test]
    fn non_finite_detection() {
        let mut t = Tensor::zeros(&[3]);
        assert!(!t.has_non_finite());
        t.data_mut()[1] = f32::NAN;
        assert!(t.has_non_finite());
    }

    #[test]
    fn max_abs_diff_works() {
        let a = Tensor::from_vec(&[2], vec![1.0, 2.0]);
        let b = Tensor::from_vec(&[2], vec![1.5, 1.0]);
        assert_eq!(a.max_abs_diff(&b), 1.0);
    }
}
