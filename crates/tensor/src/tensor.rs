//! The dense row-major tensor type.

use crate::shape::{numel, Shape};
use rand::Rng;

/// A dense, row-major, heap-allocated `f32` tensor.
///
/// `Tensor` is intentionally simple: data is always contiguous, operations
/// allocate their result, and all indexing is bounds-checked. The people
/// counting models are tiny (8x8 inputs, tens of thousands of parameters)
/// so clarity wins over zero-copy tricks.
///
/// # Example
///
/// ```
/// use pcount_tensor::Tensor;
/// let x = Tensor::zeros(&[1, 1, 8, 8]);
/// assert_eq!(x.numel(), 64);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Shape,
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    pub fn zeros(shape: &[usize]) -> Self {
        Self::full(shape, 0.0)
    }

    /// Creates a tensor filled with ones.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        Self {
            data: vec![value; numel(shape)],
            shape: shape.to_vec(),
        }
    }

    /// Creates a tensor from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the number of elements implied
    /// by `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        assert_eq!(
            data.len(),
            numel(shape),
            "data length {} does not match shape {:?}",
            data.len(),
            shape
        );
        Self {
            data,
            shape: shape.to_vec(),
        }
    }

    /// Creates a tensor with elements drawn from a normal distribution
    /// `N(0, std^2)` using the provided random number generator.
    pub fn randn<R: Rng>(shape: &[usize], std: f32, rng: &mut R) -> Self {
        let n = numel(shape);
        let mut data = Vec::with_capacity(n);
        for _ in 0..n {
            // Box-Muller transform.
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen_range(0.0..1.0);
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos();
            data.push(z * std);
        }
        Self::from_vec(data, shape)
    }

    /// Returns the shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Returns the number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Returns a view of the underlying flat data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Returns a mutable view of the underlying flat data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Returns a copy with a new shape describing the same number of
    /// elements.
    ///
    /// # Panics
    ///
    /// Panics if the new shape has a different number of elements.
    pub fn reshape(&self, shape: &[usize]) -> Self {
        assert_eq!(
            self.numel(),
            numel(shape),
            "cannot reshape {:?} ({}) into {:?} ({})",
            self.shape,
            self.numel(),
            shape,
            numel(shape)
        );
        Self::from_vec(self.data.clone(), shape)
    }

    /// Flat row-major offset of a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if `index` has the wrong rank or is out of bounds.
    pub fn offset(&self, index: &[usize]) -> usize {
        assert_eq!(index.len(), self.shape.len(), "index rank mismatch");
        let mut off = 0usize;
        for (i, (&idx, &dim)) in index.iter().zip(self.shape.iter()).enumerate() {
            assert!(idx < dim, "index {idx} out of bounds for dim {i} ({dim})");
            off = off * dim + idx;
        }
        off
    }

    /// Returns the element at a multi-dimensional index.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.offset(index)]
    }

    /// Sets the element at a multi-dimensional index.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let off = self.offset(index);
        self.data[off] = value;
    }

    /// Element-wise map into a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Self::from_vec(self.data.iter().map(|&x| f(x)).collect(), &self.shape)
    }

    /// Element-wise in-place map.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Element-wise binary op with another tensor of identical shape.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn zip(&self, other: &Self, f: impl Fn(f32, f32) -> f32) -> Self {
        assert_eq!(
            self.shape, other.shape,
            "zip requires identical shapes ({:?} vs {:?})",
            self.shape, other.shape
        );
        Self::from_vec(
            self.data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
            &self.shape,
        )
    }

    /// Element-wise addition.
    pub fn add(&self, other: &Self) -> Self {
        self.zip(other, |a, b| a + b)
    }

    /// Element-wise subtraction.
    pub fn sub(&self, other: &Self) -> Self {
        self.zip(other, |a, b| a - b)
    }

    /// Element-wise multiplication (Hadamard product).
    pub fn mul(&self, other: &Self) -> Self {
        self.zip(other, |a, b| a * b)
    }

    /// Multiplies every element by a scalar.
    pub fn scale(&self, s: f32) -> Self {
        self.map(|x| x * s)
    }

    /// Fills the tensor with a constant.
    pub fn fill(&mut self, value: f32) {
        for x in &mut self.data {
            *x = value;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element (negative infinity for an empty tensor).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (positive infinity for an empty tensor).
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Squared L2 norm of all elements.
    pub fn sq_norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum()
    }

    /// Index of the maximum value along the last axis of a 2-D tensor,
    /// returned per row.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D or has zero columns.
    pub fn argmax_rows(&self) -> Vec<usize> {
        assert_eq!(self.shape.len(), 2, "argmax_rows requires a 2-D tensor");
        let (m, n) = (self.shape[0], self.shape[1]);
        assert!(n > 0, "argmax_rows requires at least one column");
        (0..m)
            .map(|i| {
                let row = &self.data[i * n..(i + 1) * n];
                let mut best = 0usize;
                for (j, &v) in row.iter().enumerate() {
                    if v > row[best] {
                        best = j;
                    }
                }
                best
            })
            .collect()
    }

    /// Returns `true` if every element differs from `other` by at most `tol`.
    pub fn approx_eq(&self, other: &Self, tol: f32) -> bool {
        self.shape == other.shape
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(&a, &b)| (a - b).abs() <= tol)
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Self::zeros(&[0])
    }
}

impl std::fmt::Display for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tensor{:?}", self.shape)?;
        if self.numel() <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn constructors_have_expected_contents() {
        assert!(Tensor::zeros(&[3, 3]).data().iter().all(|&x| x == 0.0));
        assert!(Tensor::ones(&[3]).data().iter().all(|&x| x == 1.0));
        assert!(Tensor::full(&[2, 2], 7.5).data().iter().all(|&x| x == 7.5));
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn from_vec_rejects_bad_length() {
        let _ = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[2, 2]);
    }

    #[test]
    fn indexing_round_trips() {
        let mut t = Tensor::zeros(&[2, 3, 4]);
        t.set(&[1, 2, 3], 9.0);
        assert_eq!(t.at(&[1, 2, 3]), 9.0);
        assert_eq!(t.offset(&[1, 2, 3]), 23);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn indexing_out_of_bounds_panics() {
        let t = Tensor::zeros(&[2, 2]);
        let _ = t.at(&[2, 0]);
    }

    #[test]
    fn argmax_rows_picks_largest() {
        let a = Tensor::from_vec(vec![0.1, 0.9, 0.0, 3.0, -1.0, 2.0], &[2, 3]);
        assert_eq!(a.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn reductions_are_consistent() {
        let a = Tensor::from_vec(vec![1.0, -2.0, 3.0, 4.0], &[4]);
        assert_eq!(a.sum(), 6.0);
        assert_eq!(a.mean(), 1.5);
        assert_eq!(a.max(), 4.0);
        assert_eq!(a.min(), -2.0);
        assert_eq!(a.sq_norm(), 1.0 + 4.0 + 9.0 + 16.0);
    }

    #[test]
    fn randn_statistics_are_sane() {
        let mut rng = StdRng::seed_from_u64(3);
        let t = Tensor::randn(&[10_000], 2.0, &mut rng);
        assert!(t.mean().abs() < 0.1);
        let var = t.map(|x| x * x).mean() - t.mean() * t.mean();
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    proptest! {
        #[test]
        fn reshape_preserves_data(v in proptest::collection::vec(-100.0f32..100.0, 1..64)) {
            let n = v.len();
            let t = Tensor::from_vec(v.clone(), &[n]);
            let r = t.reshape(&[1, n]);
            prop_assert_eq!(r.data(), &v[..]);
            prop_assert_eq!(r.shape(), &[1, n]);
        }

        #[test]
        fn zip_add_commutes(
            v in proptest::collection::vec(-100.0f32..100.0, 8),
            w in proptest::collection::vec(-100.0f32..100.0, 8),
        ) {
            let a = Tensor::from_vec(v, &[2, 4]);
            let b = Tensor::from_vec(w, &[2, 4]);
            prop_assert!(a.add(&b).approx_eq(&b.add(&a), 1e-5));
        }

        #[test]
        fn offset_is_bijective_for_3d(
            i in 0usize..3, j in 0usize..4, k in 0usize..5,
        ) {
            let t = Tensor::zeros(&[3, 4, 5]);
            let off = t.offset(&[i, j, k]);
            prop_assert_eq!(off, i * 20 + j * 5 + k);
            prop_assert!(off < t.numel());
        }
    }
}
