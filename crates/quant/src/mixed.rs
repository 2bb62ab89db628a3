//! Layer-wise mixed-precision assignments and their combination space.

use crate::qparams::Precision;
use pcount_nn::CnnConfig;

/// A per-layer precision assignment for the four parameterised layers
/// (conv1, conv2, fc1, fc2).
///
/// MAUPITI only supports 4x4-bit and 8x8-bit SDOTP operations, so weights
/// and input activations of a layer always share the layer's precision.
/// The paper additionally pins the first layer to INT8 because quantising
/// the sensor input to 4 bits destroys accuracy.
///
/// # Example
///
/// ```
/// use pcount_quant::{Precision, PrecisionAssignment};
/// let a = PrecisionAssignment::new([
///     Precision::Int8, Precision::Int4, Precision::Int4, Precision::Int8,
/// ]);
/// assert_eq!(a.to_string(), "INT 8-4-4-8");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PrecisionAssignment([Precision; 4]);

impl PrecisionAssignment {
    /// Creates an assignment from the four per-layer precisions.
    pub fn new(layers: [Precision; 4]) -> Self {
        Self(layers)
    }

    /// All layers at the same precision.
    pub fn uniform(p: Precision) -> Self {
        Self([p; 4])
    }

    /// The per-layer precisions in network order.
    pub fn layers(&self) -> [Precision; 4] {
        self.0
    }

    /// Every assignment with the first layer pinned at INT8 (the search
    /// space explored exhaustively by the paper): 8 combinations.
    pub fn first_layer_int8_combinations() -> Vec<Self> {
        let opts = [Precision::Int8, Precision::Int4];
        let mut out = Vec::with_capacity(8);
        for &p2 in &opts {
            for &p3 in &opts {
                for &p4 in &opts {
                    out.push(Self([Precision::Int8, p2, p3, p4]));
                }
            }
        }
        out
    }

    /// Model weight memory in bytes for `config` under this assignment:
    /// packed sub-byte weights plus 32-bit biases per layer.
    pub fn memory_bytes(&self, config: &CnnConfig) -> usize {
        config
            .layer_dims()
            .iter()
            .zip(self.0.iter())
            .map(|(dims, p)| p.storage_bytes(dims.weight_count()) + dims.out_features * 4)
            .sum()
    }
}

impl std::fmt::Display for PrecisionAssignment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "INT {}-{}-{}-{}",
            self.0[0].label(),
            self.0[1].label(),
            self.0[2].label(),
            self.0[3].label()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combination_space_has_eight_entries_with_int8_first_layer() {
        let all = PrecisionAssignment::first_layer_int8_combinations();
        assert_eq!(all.len(), 8);
        assert!(all.iter().all(|a| a.layers()[0] == Precision::Int8));
        // All combinations are distinct.
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn labels_follow_paper_notation() {
        assert_eq!(
            PrecisionAssignment::uniform(Precision::Int8).to_string(),
            "INT 8-8-8-8"
        );
        assert_eq!(
            PrecisionAssignment::new([
                Precision::Int8,
                Precision::Int4,
                Precision::Int4,
                Precision::Int4
            ])
            .to_string(),
            "INT 8-4-4-4"
        );
    }

    #[test]
    fn memory_decreases_with_lower_precision() {
        let cfg = CnnConfig::seed();
        let m8 = PrecisionAssignment::uniform(Precision::Int8).memory_bytes(&cfg);
        let m4 = PrecisionAssignment::uniform(Precision::Int4).memory_bytes(&cfg);
        let mixed = PrecisionAssignment::new([
            Precision::Int8,
            Precision::Int4,
            Precision::Int4,
            Precision::Int8,
        ])
        .memory_bytes(&cfg);
        assert!(m4 < mixed && mixed < m8);
        // INT8 memory is weights + 4-byte biases.
        assert_eq!(
            m8,
            cfg.layer_dims()
                .iter()
                .map(|d| d.weight_count() + d.out_features * 4)
                .sum::<usize>()
        );
    }
}
