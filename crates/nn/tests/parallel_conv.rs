//! Bit-identity of the pool-parallel `Conv2d` batches across pool sizes
//! and against single-image calls.
//!
//! Forward and the input gradient run one GEMM per group of images, the
//! groups fanned out over the `pcount-runtime` pool with disjoint output
//! planes; the weight and bias gradients are per-image partials reduced
//! in image order on the caller. Each group's GEMM runs serially on the
//! thread that took the group, so these groups are the layer's only
//! parallelism. Both must be **bit-identical** for any pool width — this
//! is what makes `POOL_THREADS` a pure performance knob for the whole
//! training stack — and equal to one call per image.

use pcount_nn::{Conv2d, Layer, Mode};
use pcount_runtime::{install, Pool};
use pcount_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn assert_bits_eq(a: &Tensor, b: &Tensor, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape mismatch");
    assert_slice_bits_eq(a.data(), b.data(), what);
}

fn assert_slice_bits_eq(a: &[f32], b: &[f32], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (&x, &y)) in a.iter().zip(b.iter()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: element {i} diverged ({x} vs {y})"
        );
    }
}

/// Runs forward + backward on a fresh layer clone under the given pool
/// and returns (output, input grad, weight grad, bias grad).
fn run_under_pool(
    conv: &Conv2d,
    x: &Tensor,
    gy_scale: f32,
    pool: &Pool,
) -> (Tensor, Tensor, Tensor, Tensor) {
    let mut conv = conv.clone();
    install(pool, || {
        conv.zero_grad();
        let y = conv.forward(x, Mode::Train);
        let gy = y.map(|v| v * gy_scale);
        let gx = conv.backward(&gy);
        (y, gx, conv.weight_grad.clone(), conv.bias_grad.clone())
    })
}

#[test]
fn conv_batches_are_bit_identical_for_any_pool_width() {
    let mut rng = StdRng::seed_from_u64(42);
    for &(in_c, out_c, k, stride, padding, batch) in &[
        (3usize, 8usize, 3usize, 1usize, 1usize, 7usize),
        (2, 5, 3, 2, 1, 4),
        (4, 6, 1, 1, 0, 9),
    ] {
        let conv = Conv2d::new(in_c, out_c, k, stride, padding, &mut rng);
        let x = Tensor::randn(&[batch, in_c, 8, 8], 1.0, &mut rng);
        let serial = run_under_pool(&conv, &x, 0.5, &Pool::new(1));
        for width in [2, 4] {
            let parallel = run_under_pool(&conv, &x, 0.5, &Pool::new(width));
            assert_bits_eq(&serial.0, &parallel.0, "forward");
            assert_bits_eq(&serial.1, &parallel.1, "input grad");
            assert_bits_eq(&serial.2, &parallel.2, "weight grad");
            assert_bits_eq(&serial.3, &parallel.3, "bias grad");
        }
    }
}

#[test]
fn repeated_backward_accumulates_identically_under_a_pool() {
    // Gradient accumulation across steps (without zero_grad) must also be
    // pool-size independent: the per-image partial reduction adds onto
    // whatever is already in the grad tensors.
    let mut rng = StdRng::seed_from_u64(7);
    let conv = Conv2d::new(2, 4, 3, 1, 1, &mut rng);
    let x = Tensor::randn(&[5, 2, 8, 8], 1.0, &mut rng);
    let grads = |pool: &Pool| {
        let mut conv = conv.clone();
        install(pool, || {
            conv.zero_grad();
            for _ in 0..3 {
                let y = conv.forward(&x, Mode::Train);
                let _ = conv.backward(&y);
            }
            (conv.weight_grad.clone(), conv.bias_grad.clone())
        })
    };
    let serial = grads(&Pool::new(1));
    let parallel = grads(&Pool::new(3));
    assert_bits_eq(&serial.0, &parallel.0, "accumulated weight grad");
    assert_bits_eq(&serial.1, &parallel.1, "accumulated bias grad");
}

#[test]
fn batched_conv_equals_single_image_calls_bit_for_bit() {
    // A batch is cut into GEMM groups of 256 / (Ho*Wo) images: 4 on the
    // 8x8 outputs, 16 on the 4x4 ones. Every batch below ends in a ragged
    // group, and the 32-channel case runs the forward product over more
    // than one k block (Ci*k*k = 288).
    let mut rng = StdRng::seed_from_u64(11);
    for &(in_c, out_c, k, stride, padding, size, batch) in &[
        (3usize, 8usize, 3usize, 1usize, 1usize, 8usize, 7usize),
        (2, 5, 3, 2, 1, 8, 18),
        (4, 6, 1, 1, 0, 8, 9),
        (32, 6, 3, 1, 1, 4, 17),
    ] {
        let conv = Conv2d::new(in_c, out_c, k, stride, padding, &mut rng);
        let x = Tensor::randn(&[batch, in_c, size, size], 1.0, &mut rng);
        let chw = in_c * size * size;
        for width in [1, 2] {
            let pool = Pool::new(width);
            let (y, gx, wg, bg) = run_under_pool(&conv, &x, 0.5, &pool);
            let out_len = y.data().len() / batch;
            let what = format!("{in_c}->{out_c} k{k} s{stride} batch {batch} width {width}");
            let mut single = conv.clone();
            install(&pool, || {
                single.zero_grad();
                for i in 0..batch {
                    let xi = Tensor::from_vec(
                        x.data()[i * chw..(i + 1) * chw].to_vec(),
                        &[1, in_c, size, size],
                    );
                    let yi = single.forward(&xi, Mode::Train);
                    let gxi = single.backward(&yi.map(|v| v * 0.5));
                    let image = |t: &Tensor, len: usize| t.data()[i * len..(i + 1) * len].to_vec();
                    assert_slice_bits_eq(
                        &image(&y, out_len),
                        yi.data(),
                        &format!("{what}: output {i}"),
                    );
                    assert_slice_bits_eq(
                        &image(&gx, chw),
                        gxi.data(),
                        &format!("{what}: input grad {i}"),
                    );
                }
            });
            assert_bits_eq(&wg, &single.weight_grad, &format!("{what}: weight grad"));
            assert_bits_eq(&bg, &single.bias_grad, &format!("{what}: bias grad"));
        }
    }
}
