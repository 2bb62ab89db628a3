//! 2-D convolution over NCHW tensors.

use crate::layer::{Layer, Mode};
use pcount_tensor::{col2im, conv_output_size, gemm, im2col, Tensor};
use rand::Rng;
use std::cell::RefCell;

/// Target column count of one GEMM group: `Conv2d` puts
/// `GROUP_COLS / (Ho*Wo)` images (at least one) side by side in each
/// forward and input-gradient product, so a group's `[Ci*k*k, G*Ho*Wo]`
/// column matrix stays cache-sized while W is packed once per group
/// instead of once per image. A blocking constant like the GEMM's
/// `KC`/`NC`: it never changes a result.
const GROUP_COLS: usize = 256;

thread_local! {
    /// Per-thread pool of staging buffers for the convolution passes
    /// (im2col matrices, column gradients, GEMM outputs and gradient
    /// partials). The `pcount-runtime` pool threads are persistent, so
    /// each thread's buffers warm up once and are reused for the rest of
    /// the process.
    static STAGING: RefCell<Vec<Vec<f32>>> = const { RefCell::new(Vec::new()) };
}

/// Takes a buffer of exactly `len` zeroed elements from the calling
/// thread's staging pool (capacity is kept from earlier uses, so
/// steady-state reuse performs no allocation). Return it with
/// [`give_buffer`].
fn take_buffer(len: usize) -> Vec<f32> {
    let mut buf = STAGING.with(|s| s.borrow_mut().pop()).unwrap_or_default();
    buf.clear();
    buf.resize(len, 0.0);
    buf
}

/// Returns a buffer from [`take_buffer`] to the calling thread's pool.
fn give_buffer(buf: Vec<f32>) {
    STAGING.with(|s| s.borrow_mut().push(buf));
}

/// Geometry of one convolution call, shared by the per-group jobs.
#[derive(Clone, Copy)]
struct ConvGeom {
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    padding: usize,
    co: usize,
    ho: usize,
    wo: usize,
}

impl ConvGeom {
    fn plane(&self) -> usize {
        self.ho * self.wo
    }
    fn ckk(&self) -> usize {
        self.c * self.k * self.k
    }
    fn chw(&self) -> usize {
        self.c * self.h * self.w
    }
    /// Output elements of one image.
    fn out_len(&self) -> usize {
        self.co * self.plane()
    }
    /// Images per GEMM group.
    fn group(&self) -> usize {
        (GROUP_COLS / self.plane()).max(1)
    }
    /// Packs image `g` of a group into the group's column matrix, whose
    /// rows hold `ld` columns.
    fn im2col(&self, img: &[f32], col: &mut [f32], g: usize, ld: usize) {
        let (c, h, w, k) = (self.c, self.h, self.w, self.k);
        let col = &mut col[g * self.plane()..];
        im2col(img, c, h, w, k, self.stride, self.padding, col, ld);
    }
    /// Scatter-adds image `g`'s columns of a group's column-matrix
    /// gradient onto that image's gradient.
    fn col2im(&self, col: &[f32], g: usize, ld: usize, grad_img: &mut [f32]) {
        let (c, h, w, k) = (self.c, self.h, self.w, self.k);
        let col = &col[g * self.plane()..];
        col2im(col, ld, c, h, w, k, self.stride, self.padding, grad_img);
    }
}

/// One group of images of the GEMM-lowered forward pass:
/// `Y[Co, G*Ho*Wo] = W · [col(img_0) … col(img_G-1)]`, scattered back to
/// the group's NCHW output planes with the bias added.
fn forward_group(geom: ConvGeom, imgs: &[f32], wd: &[f32], bd: &[f32], dst: &mut [f32]) {
    let plane = geom.plane();
    let cols = dst.len() / geom.out_len() * plane;
    let mut col = take_buffer(geom.ckk() * cols);
    for (g, img) in imgs.chunks_exact(geom.chw()).take(cols / plane).enumerate() {
        geom.im2col(img, &mut col, g, cols);
    }
    let mut y = take_buffer(geom.co * cols);
    gemm(
        false,
        false,
        geom.co,
        cols,
        geom.ckk(),
        wd,
        &col,
        &mut y,
        false,
    );
    for (g, out) in dst.chunks_exact_mut(geom.out_len()).enumerate() {
        for (co, row) in out.chunks_exact_mut(plane).enumerate() {
            for (v, &acc) in row.iter_mut().zip(&y[co * cols + g * plane..]) {
                *v = acc + bd[co];
            }
        }
    }
    give_buffer(y);
    give_buffer(col);
}

/// Input gradient of one group of images:
/// `dcol[Ci*k*k, G*Ho*Wo] = Wᵀ · [dY_0 … dY_G-1]`, then one [`col2im`]
/// scatter-add per image into `grad_imgs`.
fn input_grad_group(geom: ConvGeom, gy: &[f32], wd: &[f32], grad_imgs: &mut [f32]) {
    let plane = geom.plane();
    let cols = grad_imgs.len() / geom.chw() * plane;
    let mut dy = take_buffer(geom.co * cols);
    for (g, gy_n) in gy
        .chunks_exact(geom.out_len())
        .take(cols / plane)
        .enumerate()
    {
        for (co, row) in gy_n.chunks_exact(plane).enumerate() {
            dy[co * cols + g * plane..][..plane].copy_from_slice(row);
        }
    }
    let mut dcol = take_buffer(geom.ckk() * cols);
    gemm(
        true,
        false,
        geom.ckk(),
        cols,
        geom.co,
        wd,
        &dy,
        &mut dcol,
        false,
    );
    for (g, grad_img) in grad_imgs.chunks_exact_mut(geom.chw()).enumerate() {
        geom.col2im(&dcol, g, cols, grad_img);
    }
    give_buffer(dcol);
    give_buffer(dy);
}

/// Weight- and bias-gradient partials of a run of images, one per image:
/// `dW_n = dY_n · col_nᵀ` and `db_n[co] = Σ dY_n[co, :]`, written to
/// consecutive `[dW_n | db_n]` records of `partials`.
fn param_grad_images(geom: ConvGeom, imgs: &[f32], gy: &[f32], partials: &mut [f32]) {
    let (plane, ckk) = (geom.plane(), geom.ckk());
    let wsize = geom.co * ckk;
    let mut col = take_buffer(ckk * plane);
    let images = imgs
        .chunks_exact(geom.chw())
        .zip(gy.chunks_exact(geom.out_len()));
    for (part, (img, gy_n)) in partials.chunks_exact_mut(wsize + geom.co).zip(images) {
        geom.im2col(img, &mut col, 0, plane);
        let (dw_n, db_n) = part.split_at_mut(wsize);
        gemm(false, true, geom.co, ckk, plane, gy_n, &col, dw_n, false);
        for (b, row) in db_n.iter_mut().zip(gy_n.chunks_exact(plane)) {
            *b = row.iter().sum::<f32>();
        }
    }
    give_buffer(col);
}

/// A 2-D convolution layer with square kernels, zero padding and bias.
///
/// Weight layout is `[out_channels, in_channels, k, k]`; inputs and outputs
/// are NCHW. Forward and backward lower to cache-blocked GEMMs over
/// im2col-packed buffers (`pcount-tensor`'s [`gemm`] engine). The forward
/// product and the input-gradient product each run as one GEMM per group
/// of about `256 / (Ho*Wo)` images; the weight and bias gradients keep one
/// partial per image, summed in image order. The original 7-deep nested
/// loops are kept as
/// [`Conv2d::forward_naive_with_weight`] /
/// [`Conv2d::backward_naive_with_weight`] — the bit-for-bit reference the
/// equivalence tests and the training-throughput bench compare against.
///
/// # Example
///
/// ```
/// use pcount_nn::{Conv2d, Layer, Mode};
/// use pcount_tensor::Tensor;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
/// let mut rng = StdRng::seed_from_u64(0);
/// let mut conv = Conv2d::new(1, 8, 3, 1, 1, &mut rng);
/// let y = conv.forward(&Tensor::zeros(&[1, 1, 8, 8]), Mode::Eval);
/// assert_eq!(y.shape(), &[1, 8, 8, 8]);
/// ```
#[derive(Debug, Clone)]
pub struct Conv2d {
    /// Number of input channels.
    pub in_channels: usize,
    /// Number of output channels.
    pub out_channels: usize,
    /// Square kernel size.
    pub kernel: usize,
    /// Stride.
    pub stride: usize,
    /// Zero padding on every border.
    pub padding: usize,
    /// Weights `[out, in, k, k]`.
    pub weight: Tensor,
    /// Bias `[out]`.
    pub bias: Tensor,
    /// Accumulated weight gradient.
    pub weight_grad: Tensor,
    /// Accumulated bias gradient.
    pub bias_grad: Tensor,
    cached_input: Option<Tensor>,
}

impl Conv2d {
    /// Creates a convolution with He-style weight initialisation.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new<R: Rng>(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut R,
    ) -> Self {
        assert!(in_channels > 0 && out_channels > 0 && kernel > 0 && stride > 0);
        let fan_in = (in_channels * kernel * kernel) as f32;
        let std = (2.0 / fan_in).sqrt();
        Self {
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
            weight: Tensor::randn(&[out_channels, in_channels, kernel, kernel], std, rng),
            bias: Tensor::zeros(&[out_channels]),
            weight_grad: Tensor::zeros(&[out_channels, in_channels, kernel, kernel]),
            bias_grad: Tensor::zeros(&[out_channels]),
            cached_input: None,
        }
    }

    /// Creates a convolution with explicitly provided weights and bias.
    ///
    /// # Panics
    ///
    /// Panics if the tensor shapes are inconsistent with the declared
    /// dimensions.
    pub fn from_parts(weight: Tensor, bias: Tensor, stride: usize, padding: usize) -> Self {
        let shape = weight.shape().to_vec();
        assert_eq!(shape.len(), 4, "conv weight must be [out, in, k, k]");
        assert_eq!(shape[2], shape[3], "conv kernel must be square");
        assert_eq!(bias.shape(), &[shape[0]], "bias must match out channels");
        let (out_channels, in_channels, kernel) = (shape[0], shape[1], shape[2]);
        Self {
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
            weight_grad: Tensor::zeros(&shape),
            bias_grad: Tensor::zeros(&[out_channels]),
            weight,
            bias,
            cached_input: None,
        }
    }

    /// Output spatial size for a given input spatial size.
    ///
    /// # Panics
    ///
    /// Panics if the kernel is larger than the padded input
    /// (`input + 2 * padding < kernel`).
    pub fn output_size(&self, input: usize) -> usize {
        conv_output_size(input, self.kernel, self.stride, self.padding)
    }

    /// The geometry of a call on `[n, c, h, w]` inputs.
    fn geom(&self, c: usize, h: usize, w: usize) -> ConvGeom {
        ConvGeom {
            c,
            h,
            w,
            k: self.kernel,
            stride: self.stride,
            padding: self.padding,
            co: self.out_channels,
            ho: self.output_size(h),
            wo: self.output_size(w),
        }
    }

    /// Asserts that an effective weight has this layer's
    /// `[out, in, k, k]` shape.
    fn check_weight(&self, weight: &Tensor) {
        let (co, ci, k) = (self.out_channels, self.in_channels, self.kernel);
        assert_eq!(
            weight.shape(),
            &[co, ci, k, k],
            "conv weight shape mismatch"
        );
    }

    /// Forward pass using an externally supplied effective weight tensor
    /// (used by the QAT fake-quantised weights and the NAS masked-layer
    /// path); caches the input for backward.
    ///
    /// Lowered to one GEMM per group of `G` images, with `G·Ho·Wo` about
    /// 256 columns: `Y[Co, G*Ho*Wo] = W[Co, Ci*k*k] · col[Ci*k*k, G*Ho*Wo]`,
    /// whose columns are the images' im2col matrices side by side; the
    /// result is scattered back to NCHW with the bias added. A GEMM
    /// column depends only on its own image, so grouping never changes a
    /// result. Groups fan out over the persistent `pcount-runtime` pool
    /// (inline on a width-1 pool), and each group's GEMM runs serially on
    /// the thread that took the group, staging its matrices in that
    /// thread's warm buffers. Steady-state training allocates only the
    /// output tensor, and results are bit-identical for any pool size.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not NCHW with `in_channels` channels, if `weight`
    /// is not `[out_channels, in_channels, kernel, kernel]`, or if the
    /// kernel is larger than the padded input.
    pub fn forward_with_weight(&mut self, x: &Tensor, weight: &Tensor) -> Tensor {
        let _span = pcount_telemetry::span("conv_fwd");
        let shape = x.shape();
        assert_eq!(shape.len(), 4, "conv expects NCHW input");
        let (n, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
        assert_eq!(c, self.in_channels, "conv input channel mismatch");
        self.check_weight(weight);
        let geom = self.geom(c, h, w);
        let mut out = Tensor::zeros(&[n, geom.co, geom.ho, geom.wo]);
        let xd = x.data();
        let wd = weight.data();
        let bd = self.bias.data();
        let group = geom.group();
        pcount_runtime::current().par_chunks_mut(
            out.data_mut(),
            group * geom.out_len(),
            0,
            |t, dst| {
                let imgs = &xd[t * group * geom.chw()..];
                forward_group(geom, imgs, wd, bd, dst);
            },
        );
        self.cached_input = Some(x.clone());
        out
    }

    /// Reference forward pass: the original 7-deep nested loops. Kept for
    /// the GEMM-equivalence tests and the `train_throughput` bench; not
    /// used by the training stack.
    pub fn forward_naive_with_weight(&mut self, x: &Tensor, weight: &Tensor) -> Tensor {
        let shape = x.shape();
        assert_eq!(shape.len(), 4, "conv expects NCHW input");
        let (n, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
        assert_eq!(c, self.in_channels, "conv input channel mismatch");
        self.check_weight(weight);
        let ho = self.output_size(h);
        let wo = self.output_size(w);
        let mut out = Tensor::zeros(&[n, self.out_channels, ho, wo]);
        let xd = x.data();
        let wd = weight.data();
        let bd = self.bias.data();
        let od = out.data_mut();
        let k = self.kernel;
        for ni in 0..n {
            #[allow(clippy::needless_range_loop)]
            for co in 0..self.out_channels {
                let wbase_co = co * self.in_channels * k * k;
                let obase = (ni * self.out_channels + co) * ho * wo;
                for oy in 0..ho {
                    for ox in 0..wo {
                        let mut acc = bd[co];
                        for ci in 0..self.in_channels {
                            let ibase = (ni * c + ci) * h * w;
                            let wbase = wbase_co + ci * k * k;
                            for ky in 0..k {
                                let iy = (oy * self.stride + ky) as isize - self.padding as isize;
                                if iy < 0 || iy >= h as isize {
                                    continue;
                                }
                                for kx in 0..k {
                                    let ix =
                                        (ox * self.stride + kx) as isize - self.padding as isize;
                                    if ix < 0 || ix >= w as isize {
                                        continue;
                                    }
                                    acc += xd[ibase + iy as usize * w + ix as usize]
                                        * wd[wbase + ky * k + kx];
                                }
                            }
                        }
                        od[obase + oy * wo + ox] = acc;
                    }
                }
            }
        }
        self.cached_input = Some(x.clone());
        out
    }

    /// Backward pass using an externally supplied effective weight tensor;
    /// accumulates into `weight_grad`/`bias_grad` and returns the input
    /// gradient.
    ///
    /// The input gradient is one GEMM per group of images, as in the
    /// forward pass: `dcol = Wᵀ · dY` over the group's columns, followed by
    /// a [`col2im`] scatter-add per image. The weight and bias gradients
    /// are per-image partials, `dW_n = dY_n · col_nᵀ` and
    /// `db_n[co] = Σ dY_n[co, :]`, computed in parallel and reduced into
    /// `weight_grad`/`bias_grad` in image order on the calling thread —
    /// the reduction order is a function of the batch alone, so results
    /// are bit-identical for any pool size and equal those of one
    /// single-image call per image. All staging buffers, the partials
    /// included, come from per-thread pools, so the grad path performs no
    /// steady-state allocation besides the returned gradient.
    ///
    /// # Panics
    ///
    /// Panics if no forward pass preceded this call, if `grad_out` does not
    /// have the forward output's shape, or if `weight` is not
    /// `[out_channels, in_channels, kernel, kernel]`.
    pub fn backward_with_weight(&mut self, grad_out: &Tensor, weight: &Tensor) -> Tensor {
        let _span = pcount_telemetry::span("conv_bwd");
        let x = self
            .cached_input
            .take()
            .expect("backward called before forward");
        let xs = x.shape();
        let (n, c, h, w) = (xs[0], xs[1], xs[2], xs[3]);
        let geom = self.geom(c, h, w);
        assert_eq!(
            grad_out.shape(),
            &[n, geom.co, geom.ho, geom.wo],
            "conv grad shape mismatch"
        );
        self.check_weight(weight);
        let mut grad_in = Tensor::zeros(&[n, c, h, w]);
        let xd = x.data();
        let wd = weight.data();
        let gd = grad_out.data();
        let group = geom.group();
        let pool = pcount_runtime::current();
        pool.par_chunks_mut(grad_in.data_mut(), group * geom.chw(), 0, |t, grad_imgs| {
            let gy = &gd[t * group * geom.out_len()..];
            input_grad_group(geom, gy, wd, grad_imgs);
        });
        let wsize = geom.co * geom.ckk();
        let record = wsize + geom.co;
        let mut partials = take_buffer(n * record);
        pool.par_chunks_mut(&mut partials, group * record, 0, |t, parts| {
            let imgs = &xd[t * group * geom.chw()..];
            let gy = &gd[t * group * geom.out_len()..];
            param_grad_images(geom, imgs, gy, parts);
        });
        // Canonical-order reduction: image partials land in batch order
        // regardless of which worker computed them, matching the
        // historical serial accumulation exactly for the k-blocking in
        // use (`Ho*Wo <= KC`, one k block per image).
        let wg = self.weight_grad.data_mut();
        let bg = self.bias_grad.data_mut();
        for part in partials.chunks_exact(record) {
            let (dw_n, db_n) = part.split_at(wsize);
            for (acc, &v) in wg.iter_mut().zip(dw_n) {
                *acc += v;
            }
            for (acc, &v) in bg.iter_mut().zip(db_n) {
                *acc += v;
            }
        }
        give_buffer(partials);
        grad_in
    }

    /// Reference backward pass mirroring
    /// [`Conv2d::forward_naive_with_weight`]; accumulates into
    /// `weight_grad`/`bias_grad` and returns the input gradient.
    ///
    /// # Panics
    ///
    /// Panics as [`Conv2d::backward_with_weight`] does.
    pub fn backward_naive_with_weight(&mut self, grad_out: &Tensor, weight: &Tensor) -> Tensor {
        let x = self
            .cached_input
            .as_ref()
            .expect("backward called before forward")
            .clone();
        let xs = x.shape();
        let (n, c, h, w) = (xs[0], xs[1], xs[2], xs[3]);
        let geom = self.geom(c, h, w);
        let (ho, wo) = (geom.ho, geom.wo);
        assert_eq!(
            grad_out.shape(),
            &[n, geom.co, ho, wo],
            "conv grad shape mismatch"
        );
        self.check_weight(weight);
        let mut grad_in = Tensor::zeros(&[n, c, h, w]);
        let k = self.kernel;
        let xd = x.data();
        let wd = weight.data();
        let gd = grad_out.data();
        {
            let wg = self.weight_grad.data_mut();
            let bg = self.bias_grad.data_mut();
            let gi = grad_in.data_mut();
            for ni in 0..n {
                #[allow(clippy::needless_range_loop)]
                for co in 0..self.out_channels {
                    let wbase_co = co * self.in_channels * k * k;
                    let obase = (ni * self.out_channels + co) * ho * wo;
                    for oy in 0..ho {
                        for ox in 0..wo {
                            let g = gd[obase + oy * wo + ox];
                            if g == 0.0 {
                                continue;
                            }
                            bg[co] += g;
                            for ci in 0..self.in_channels {
                                let ibase = (ni * c + ci) * h * w;
                                let wbase = wbase_co + ci * k * k;
                                for ky in 0..k {
                                    let iy =
                                        (oy * self.stride + ky) as isize - self.padding as isize;
                                    if iy < 0 || iy >= h as isize {
                                        continue;
                                    }
                                    for kx in 0..k {
                                        let ix = (ox * self.stride + kx) as isize
                                            - self.padding as isize;
                                        if ix < 0 || ix >= w as isize {
                                            continue;
                                        }
                                        let xi = ibase + iy as usize * w + ix as usize;
                                        let wi = wbase + ky * k + kx;
                                        wg[wi] += g * xd[xi];
                                        gi[xi] += g * wd[wi];
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        grad_in
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, x: &Tensor, _mode: Mode) -> Tensor {
        let weight = self.weight.clone();
        self.forward_with_weight(x, &weight)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let weight = self.weight.clone();
        self.backward_with_weight(grad_out, &weight)
    }

    fn params_and_grads(&mut self) -> Vec<(&mut Tensor, &mut Tensor)> {
        vec![
            (&mut self.weight, &mut self.weight_grad),
            (&mut self.bias, &mut self.bias_grad),
        ]
    }

    fn name(&self) -> &'static str {
        "conv2d"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn finite_diff_check(
        conv: &mut Conv2d,
        x: &Tensor,
        loss: impl Fn(&Tensor) -> f32,
        grad_loss: impl Fn(&Tensor) -> Tensor,
    ) {
        // Analytical gradients.
        conv.zero_grad();
        let y = conv.forward(x, Mode::Train);
        let gy = grad_loss(&y);
        let gx = conv.backward(&gy);
        // Numerical gradient for a handful of input entries.
        let eps = 1e-3;
        for idx in [0usize, 7, 19, 33] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let lp = loss(&conv.forward(&xp, Mode::Train));
            let lm = loss(&conv.forward(&xm, Mode::Train));
            let num = (lp - lm) / (2.0 * eps);
            let ana = gx.data()[idx];
            assert!(
                (num - ana).abs() < 1e-2,
                "input grad mismatch at {idx}: num {num} vs ana {ana}"
            );
        }
        // Numerical gradient for a handful of weights.
        let mut conv2 = conv.clone();
        for idx in [0usize, 5, 11] {
            let orig = conv2.weight.data()[idx];
            conv2.weight.data_mut()[idx] = orig + eps;
            let lp = loss(&conv2.forward(x, Mode::Train));
            conv2.weight.data_mut()[idx] = orig - eps;
            let lm = loss(&conv2.forward(x, Mode::Train));
            conv2.weight.data_mut()[idx] = orig;
            let num = (lp - lm) / (2.0 * eps);
            let ana = conv.weight_grad.data()[idx];
            assert!(
                (num - ana).abs() < 1e-2,
                "weight grad mismatch at {idx}: num {num} vs ana {ana}"
            );
        }
    }

    #[test]
    fn identity_kernel_reproduces_input() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(1, 1, 1, 1, 0, &mut rng);
        conv.weight.fill(1.0);
        conv.bias.fill(0.0);
        let x = Tensor::from_vec((0..16).map(|v| v as f32).collect(), &[1, 1, 4, 4]);
        let y = conv.forward(&x, Mode::Eval);
        assert!(y.approx_eq(&x, 1e-6));
    }

    #[test]
    fn padding_preserves_spatial_size() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        let y = conv.forward(&Tensor::ones(&[2, 2, 8, 8]), Mode::Eval);
        assert_eq!(y.shape(), &[2, 3, 8, 8]);
    }

    #[test]
    fn stride_two_halves_output() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut conv = Conv2d::new(1, 1, 3, 2, 1, &mut rng);
        let y = conv.forward(&Tensor::ones(&[1, 1, 8, 8]), Mode::Eval);
        assert_eq!(y.shape(), &[1, 1, 4, 4]);
    }

    #[test]
    fn bias_shifts_output() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut conv = Conv2d::new(1, 2, 1, 1, 0, &mut rng);
        conv.weight.fill(0.0);
        conv.bias = Tensor::from_vec(vec![1.5, -2.0], &[2]);
        let y = conv.forward(&Tensor::ones(&[1, 1, 2, 2]), Mode::Eval);
        assert!(y.data()[..4].iter().all(|&v| (v - 1.5).abs() < 1e-6));
        assert!(y.data()[4..].iter().all(|&v| (v + 2.0).abs() < 1e-6));
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        let x = Tensor::randn(&[1, 2, 5, 5], 1.0, &mut rng);
        // Loss = sum of squares / 2, so dL/dy = y.
        finite_diff_check(&mut conv, &x, |y| 0.5 * y.sq_norm(), |y| y.clone());
    }

    #[test]
    #[should_panic(expected = "kernel 3 is larger than the padded input (2 + 2 * padding 0)")]
    fn input_smaller_than_the_kernel_is_rejected() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut conv = Conv2d::new(1, 2, 3, 1, 0, &mut rng);
        let _ = conv.forward(&Tensor::ones(&[1, 1, 2, 2]), Mode::Eval);
    }

    #[test]
    #[should_panic(expected = "conv weight shape mismatch")]
    fn forward_rejects_a_weight_of_the_wrong_shape() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        // Same element count as the [3, 2, 3, 3] weight.
        let weight = Tensor::ones(&[2, 3, 3, 3]);
        let _ = conv.forward_with_weight(&Tensor::ones(&[1, 2, 4, 4]), &weight);
    }

    #[test]
    #[should_panic(expected = "conv weight shape mismatch")]
    fn backward_rejects_a_weight_of_the_wrong_shape() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        let y = conv.forward(&Tensor::ones(&[1, 2, 4, 4]), Mode::Train);
        let _ = conv.backward_with_weight(&y, &Tensor::ones(&[2, 3, 3, 3]));
    }

    #[test]
    #[should_panic(expected = "conv grad shape mismatch")]
    fn naive_backward_rejects_a_gradient_of_a_smaller_spatial_size() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        let weight = conv.weight.clone();
        let _ = conv.forward_naive_with_weight(&Tensor::ones(&[1, 2, 4, 4]), &weight);
        let _ = conv.backward_naive_with_weight(&Tensor::ones(&[1, 3, 2, 2]), &weight);
    }

    #[test]
    fn from_parts_validates_shapes() {
        let w = Tensor::zeros(&[4, 2, 3, 3]);
        let b = Tensor::zeros(&[4]);
        let conv = Conv2d::from_parts(w, b, 1, 1);
        assert_eq!(conv.out_channels, 4);
        assert_eq!(conv.in_channels, 2);
        assert_eq!(conv.kernel, 3);
    }
}
