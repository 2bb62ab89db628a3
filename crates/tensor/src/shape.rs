//! Shape arithmetic shared by all tensor operations.

/// A tensor shape: the length of each dimension, outermost first.
pub type Shape = Vec<usize>;

/// Returns the number of elements described by `shape`.
///
/// An empty shape describes a scalar and has one element.
///
/// # Example
///
/// ```
/// assert_eq!(pcount_tensor::numel(&[2, 3, 4]), 24);
/// assert_eq!(pcount_tensor::numel(&[]), 1);
/// ```
pub fn numel(shape: &[usize]) -> usize {
    shape.iter().product()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numel_of_scalar_is_one() {
        assert_eq!(numel(&[]), 1);
    }

    #[test]
    fn numel_with_zero_dim_is_zero() {
        assert_eq!(numel(&[3, 0, 2]), 0);
    }
}
