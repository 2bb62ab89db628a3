//! Dense row-major `f32` tensors and shape utilities.
//!
//! This crate is the numerical substrate of the MAUPITI people-counting
//! stack: a deliberately small, dependency-light n-dimensional array with
//! exactly the operations the training stack ([`pcount-nn`]), the NAS
//! ([`pcount-nas`]) and the quantization flow ([`pcount-quant`]) need.
//!
//! # Example
//!
//! ```
//! use pcount_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
//! let b = Tensor::full(&[2, 2], 0.5);
//! let c = a.mul(&b).add(&b);
//! assert_eq!(c.shape(), &[2, 2]);
//! assert_eq!(c.at(&[1, 0]), 2.0);
//! assert_eq!(c.argmax_rows(), vec![1, 1]);
//! ```
//!
//! [`pcount-nn`]: https://docs.rs/pcount-nn
//! [`pcount-nas`]: https://docs.rs/pcount-nas
//! [`pcount-quant`]: https://docs.rs/pcount-quant

#![deny(unsafe_code)]

mod gemm;
mod shape;
mod tensor;

pub use gemm::{col2im, conv_output_size, gemm, im2col};
pub use shape::{numel, Shape};
pub use tensor::Tensor;

/// Deterministic xorshift-based pseudo random number generator used for
/// reproducible weight initialisation and data generation in tests.
///
/// The training crates use [`rand`] for heavy lifting; `SplitMix64` exists so
/// that low-level tensor tests do not depend on a particular `rand` version
/// and remain bit-reproducible across releases.
///
/// # Example
///
/// ```
/// use pcount_tensor::SplitMix64;
/// let mut rng = SplitMix64::new(42);
/// let a = rng.next_u64();
/// let b = rng.next_u64();
/// assert_ne!(a, b);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a new generator from a seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Returns the next 64-bit pseudo random value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Returns a uniform `f32` in `[0, 1)`.
    pub fn next_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32
    }

    /// Returns an approximately standard-normal `f32` (sum of 12 uniforms).
    pub fn next_normal(&mut self) -> f32 {
        let mut acc = 0.0f32;
        for _ in 0..12 {
            acc += self.next_f32();
        }
        acc - 6.0
    }
}

impl Default for SplitMix64 {
    fn default() -> Self {
        Self::new(0x5EED_5EED_5EED_5EED)
    }
}

#[cfg(test)]
mod rng_tests {
    use super::SplitMix64;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn uniform_is_in_unit_interval() {
        let mut rng = SplitMix64::new(3);
        for _ in 0..1000 {
            let x = rng.next_f32();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn normal_has_reasonable_moments() {
        let mut rng = SplitMix64::new(11);
        let n = 20_000;
        let mut sum = 0.0f64;
        let mut sq = 0.0f64;
        for _ in 0..n {
            let x = rng.next_normal() as f64;
            sum += x;
            sq += x * x;
        }
        let mean = sum / n as f64;
        let var = sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }
}
