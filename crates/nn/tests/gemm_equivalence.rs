//! Property tests holding the GEMM-lowered `Conv2d`/`Linear` passes to the
//! naive nested-loop reference implementations across stride / padding /
//! channel shapes, including the externally-supplied-weight path the NAS
//! masked layers and the QAT fake-quantised weights ride.
//!
//! Forward/backward results must agree within 1e-5 *relative* tolerance
//! (the GEMM blocks the k dimension, so accumulation order differs); where
//! the accumulation order is preserved — a single k block smaller than one
//! register panel is still summed in index order per output element for
//! the 1x1 kernel with one input channel — the match must be bit-exact.

use pcount_nn::{Conv2d, Layer, Linear, Mode};
use pcount_tensor::Tensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Asserts `a ≈ b` within `tol` relative to the element magnitude.
fn assert_rel_close(got: &Tensor, want: &Tensor, tol: f32, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape mismatch");
    for (i, (&g, &w)) in got.data().iter().zip(want.data().iter()).enumerate() {
        let scale = 1.0f32.max(w.abs());
        assert!(
            (g - w).abs() <= tol * scale,
            "{what}: element {i} diverged (gemm {g}, naive {w})"
        );
    }
}

/// Runs forward + backward through both conv implementations and compares
/// outputs and all gradients. `mask_channels` zeroes a deterministic subset
/// of the effective weight's output channels, mimicking the NAS
/// masked-layer / QAT effective-weight path.
#[allow(clippy::too_many_arguments)]
fn check_conv(
    seed: u64,
    in_c: usize,
    out_c: usize,
    k: usize,
    stride: usize,
    padding: usize,
    n: usize,
    hw: usize,
    mask_channels: bool,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    if hw + 2 * padding < k {
        return; // degenerate geometry
    }
    let mut conv = Conv2d::new(in_c, out_c, k, stride, padding, &mut rng);
    let x = Tensor::randn(&[n, in_c, hw, hw], 1.0, &mut rng);
    let mut weight = conv.weight.clone();
    if mask_channels {
        // Zero every other output channel, like a binarised channel mask
        // applied to the effective weight.
        let per_c = in_c * k * k;
        for co in (1..out_c).step_by(2) {
            weight.data_mut()[co * per_c..(co + 1) * per_c].fill(0.0);
        }
    }

    conv.zero_grad();
    let y_gemm = conv.forward_with_weight(&x, &weight, Mode::Train);
    let gy = y_gemm.scale(0.5); // arbitrary non-trivial upstream gradient
    let gx_gemm = conv.backward_with_weight(&gy, &weight);
    let wg_gemm = conv.weight_grad.clone();
    let bg_gemm = conv.bias_grad.clone();

    conv.zero_grad();
    let y_naive = conv.forward_naive_with_weight(&x, &weight);
    let gx_naive = conv.backward_naive_with_weight(&x, &gy, &weight);
    let wg_naive = conv.weight_grad.clone();
    let bg_naive = conv.bias_grad.clone();

    assert_rel_close(&y_gemm, &y_naive, 1e-5, "conv forward");
    assert_rel_close(&gx_gemm, &gx_naive, 1e-5, "conv input grad");
    assert_rel_close(&wg_gemm, &wg_naive, 1e-5, "conv weight grad");
    assert_rel_close(&bg_gemm, &bg_naive, 1e-5, "conv bias grad");
}

proptest! {
    #[test]
    fn conv_gemm_matches_naive_across_shapes(
        seed in 0u64..1000,
        in_c in 1usize..4,
        out_c in 1usize..6,
        k in 1usize..4,
        stride in 1usize..3,
        padding in 0usize..2,
        n in 1usize..4,
    ) {
        check_conv(seed, in_c, out_c, k, stride, padding, n, 8, false);
    }

    #[test]
    fn conv_gemm_matches_naive_on_masked_weights(
        seed in 0u64..1000,
        out_c in 2usize..8,
        stride in 1usize..3,
    ) {
        check_conv(seed, in_c_for(out_c), out_c, 3, stride, 1, 2, 8, true);
    }

    #[test]
    fn linear_gemm_matches_naive(
        seed in 0u64..1000,
        n in 1usize..6,
        in_f in 1usize..40,
        out_f in 1usize..12,
        mask in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut fc = Linear::new(in_f, out_f, &mut rng);
        let x = Tensor::randn(&[n, in_f], 1.0, &mut rng);
        let mut weight = fc.weight.clone();
        if mask {
            for o in (1..out_f).step_by(2) {
                weight.data_mut()[o * in_f..(o + 1) * in_f].fill(0.0);
            }
        }

        fc.zero_grad();
        let y_gemm = fc.forward_with_weight(&x, &weight);
        let gy = y_gemm.scale(0.5);
        let gx_gemm = fc.backward_with_weight(&gy, &weight);
        let wg_gemm = fc.weight_grad.clone();
        let bg_gemm = fc.bias_grad.clone();

        fc.zero_grad();
        let y_naive = fc.forward_naive_with_weight(&x, &weight);
        let gx_naive = fc.backward_naive_with_weight(&gy, &weight);

        assert_rel_close(&y_gemm, &y_naive, 1e-5, "linear forward");
        assert_rel_close(&gx_gemm, &gx_naive, 1e-5, "linear input grad");
        assert_rel_close(&wg_gemm, &fc.weight_grad, 1e-5, "linear weight grad");
        assert_rel_close(&bg_gemm, &fc.bias_grad, 1e-5, "linear bias grad");
    }
}

/// In-channel count paired to the masked-weight case (keeps the k range
/// that the column matrix spans non-trivial without exploding runtime).
fn in_c_for(out_c: usize) -> usize {
    1 + out_c % 3
}

#[test]
fn conv_1x1_single_channel_is_bit_exact() {
    // One input channel, 1x1 kernel: the GEMM's k dimension is 1, so every
    // output element is a single multiply — accumulation order is trivially
    // preserved and the two implementations must agree bit-for-bit.
    let mut rng = StdRng::seed_from_u64(7);
    let mut conv = Conv2d::new(1, 3, 1, 1, 0, &mut rng);
    let x = Tensor::randn(&[2, 1, 8, 8], 1.0, &mut rng);
    let weight = conv.weight.clone();
    let y_gemm = conv.forward_with_weight(&x, &weight, Mode::Eval);
    let y_naive = conv.forward_naive_with_weight(&x, &weight);
    assert_eq!(y_gemm.data(), y_naive.data(), "1x1 conv must be bit-exact");
}

#[test]
fn layer_trait_path_rides_the_gemm_implementation() {
    // `Layer::forward`/`backward` (the path Sequential drives) must feed
    // the GEMM implementation: train a step through both entry points and
    // compare.
    let mut rng = StdRng::seed_from_u64(9);
    let mut conv = Conv2d::new(2, 4, 3, 1, 1, &mut rng);
    let x = Tensor::randn(&[3, 2, 8, 8], 1.0, &mut rng);
    let weight = conv.weight.clone();
    let via_trait = conv.forward(&x, Mode::Train);
    let via_gemm = conv.forward_with_weight(&x, &weight, Mode::Train);
    assert_eq!(via_trait.data(), via_gemm.data());
}
