//! 2-D convolution over NCHW tensors.

use crate::layer::{Layer, Mode};
use crate::sums::{channel_sums, SumOrder};
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

/// Width of one strip of the weight gradient's `Ci*k*k` columns: the
/// backward pass fans the weight gradient out over the pool one strip per
/// task. A multiple of the GEMM's 16-column register tile; like
/// [`GROUP_COLS`] it never changes a result.
const STRIP_COLS: usize = 64;

thread_local! {
    /// Per-thread pool of staging buffers for the convolution passes
    /// (eval-mode column matrices, column gradients, GEMM outputs and
    /// weight-gradient strips). The `pcount-runtime` pool threads are
    /// persistent, so each thread's buffers warm up once and are reused
    /// for the rest of the process.
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
    /// Elements of one full group's column matrix.
    fn group_cols(&self) -> usize {
        self.group() * self.plane() * self.ckk()
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

/// One group of images of the GEMM-lowered forward pass: packs the
/// group's images into `col`, its `[Ci*k*k, G*Ho*Wo]` column matrix, then
/// `Y[Co, G*Ho*Wo] = W · [col(img_0) … col(img_G-1)]`, scattered back to
/// the group's NCHW output planes with the bias added.
fn forward_group(
    geom: ConvGeom,
    imgs: &[f32],
    wd: &[f32],
    bd: &[f32],
    dst: &mut [f32],
    col: &mut [f32],
) {
    let plane = geom.plane();
    let cols = dst.len() / geom.out_len() * plane;
    for (g, img) in imgs.chunks_exact(geom.chw()).take(cols / plane).enumerate() {
        geom.im2col(img, col, g, cols);
    }
    let mut y = take_buffer(geom.co * cols);
    gemm(
        false,
        false,
        geom.co,
        cols,
        geom.ckk(),
        wd,
        col,
        cols,
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
        cols,
        &mut dcol,
        false,
    );
    for (g, grad_img) in grad_imgs.chunks_exact_mut(geom.chw()).enumerate() {
        geom.col2im(&dcol, g, cols, grad_img);
    }
    give_buffer(dcol);
    give_buffer(dy);
}

/// One strip of the weight gradient: `strip` is columns
/// `j0..j0 + width` of `dW[Co, Ci*k*k]`, row-major, and comes in holding
/// those columns of the gradient so far. Adds `dY_n · col_nᵀ` for every
/// image `n` in image order, reading each image's columns out of the
/// training forward's group matrices `cols`.
fn weight_grad_strip(geom: ConvGeom, cols: &[f32], gy: &[f32], j0: usize, strip: &mut [f32]) {
    let (plane, ckk) = (geom.plane(), geom.ckk());
    let width = strip.len() / geom.co;
    let mut images = gy.chunks_exact(geom.out_len());
    for group_cols in cols.chunks(geom.group_cols()) {
        let ld = group_cols.len() / ckk;
        for (g, gy_n) in images.by_ref().take(ld / plane).enumerate() {
            let b = &group_cols[j0 * ld + g * plane..];
            gemm(false, true, geom.co, width, plane, gy_n, b, ld, strip, true);
        }
    }
}

/// A 2-D convolution layer with square kernels, zero padding and bias.
///
/// Weight layout is `[out_channels, in_channels, k, k]`; inputs and outputs
/// are NCHW. Forward and backward lower to cache-blocked GEMMs over
/// im2col-packed buffers (`pcount-tensor`'s [`gemm`] engine). The forward
/// product and the input-gradient product each run as one GEMM per group
/// of about `256 / (Ho*Wo)` images. A training-mode forward keeps its
/// groups' column matrices, `Ci*k*k · N·Ho·Wo` floats, and the backward
/// builds the weight and bias gradients from them, adding each image's
/// product onto the gradient in image order; an eval-mode forward keeps
/// nothing, and the backward needs a training-mode forward before it. The
/// original 7-deep nested loops are kept as
/// [`Conv2d::forward_naive_with_weight`] /
/// [`Conv2d::backward_naive_with_weight`] — the reference the equivalence
/// tests and the training-throughput bench compare against.
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
    /// The last training-mode forward's group column matrices, one after
    /// another. Kept between steps so its allocation is reused.
    train_cols: Vec<f32>,
    /// The `[n, c, h, w]` input shape whose columns `train_cols` holds,
    /// until an eval-mode forward or a backward consumes it.
    train_input: Option<[usize; 4]>,
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
            train_cols: Vec::new(),
            train_input: None,
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
            train_cols: Vec::new(),
            train_input: None,
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
    /// path). `mode` is [`Mode::Train`] when a backward pass follows.
    ///
    /// Lowered to one GEMM per group of `G` images, with `G·Ho·Wo` about
    /// 256 columns: `Y[Co, G*Ho*Wo] = W[Co, Ci*k*k] · col[Ci*k*k, G*Ho*Wo]`,
    /// whose columns are the images' im2col matrices side by side; the
    /// result is scattered back to NCHW with the bias added. A GEMM
    /// column depends only on its own image, so grouping never changes a
    /// result. Groups fan out over the persistent `pcount-runtime` pool
    /// (inline on a width-1 pool), and each group's GEMM runs serially on
    /// the thread that took the group. In training mode each group packs
    /// its columns into the layer's own buffer and the layer keeps them
    /// for [`Conv2d::backward_with_weight`]; in eval mode they go to the
    /// thread's warm staging buffers and nothing is kept. Steady-state
    /// training allocates only the output tensor and the short list
    /// pairing each group's output with its columns, and results are
    /// bit-identical for any pool size.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not NCHW with `in_channels` channels, if `weight`
    /// is not `[out_channels, in_channels, kernel, kernel]`, or if the
    /// kernel is larger than the padded input.
    pub fn forward_with_weight(&mut self, x: &Tensor, weight: &Tensor, mode: Mode) -> Tensor {
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
        let run = |t: usize, dst: &mut [f32], col: &mut [f32]| {
            let imgs = &xd[t * group * geom.chw()..];
            forward_group(geom, imgs, wd, bd, dst, col);
        };
        let pool = pcount_runtime::current();
        let group_out = group * geom.out_len();
        self.train_input = match mode {
            Mode::Train => {
                self.train_cols.resize(n * geom.plane() * geom.ckk(), 0.0);
                let mut groups: Vec<_> = out
                    .data_mut()
                    .chunks_mut(group_out)
                    .zip(self.train_cols.chunks_mut(geom.group_cols()))
                    .collect();
                pool.par_chunks_mut(&mut groups, 1, |t, one| {
                    let (dst, col) = &mut one[0];
                    run(t, dst, col);
                });
                Some([n, c, h, w])
            }
            Mode::Eval => {
                pool.par_chunks_mut(out.data_mut(), group_out, |t, dst| {
                    let mut col = take_buffer(dst.len() / geom.co * geom.ckk());
                    run(t, dst, &mut col);
                    give_buffer(col);
                });
                None
            }
        };
        out
    }

    /// Reference forward pass: the original 7-deep nested loops. Kept for
    /// the GEMM-equivalence tests and the `train_throughput` bench; not
    /// used by the training stack. Keeps nothing for a backward pass.
    pub fn forward_naive_with_weight(&self, x: &Tensor, weight: &Tensor) -> Tensor {
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
        out
    }

    /// Backward pass using an externally supplied effective weight tensor;
    /// accumulates into `weight_grad`/`bias_grad` and returns the input
    /// gradient. Consumes the columns of the training-mode forward before
    /// it.
    ///
    /// The input gradient is one GEMM per group of images, as in the
    /// forward pass: `dcol = Wᵀ · dY` over the group's columns, followed by
    /// a [`col2im`] scatter-add per image. The weight gradient adds
    /// `dY_n · col_nᵀ` onto `weight_grad` for each image `n` in image
    /// order, reading image `n`'s columns out of the forward's group
    /// matrices; the work fans out over the pool by strips of 64 of the
    /// gradient's `Ci*k*k` columns, and every strip keeps image order.
    /// The bias gradient adds each image's `Σ dY_n[co, :]` in image order
    /// on the calling thread, through [`channel_sums`]. So results are
    /// bit-identical for any pool size and equal those of one single-image
    /// call per image.
    ///
    /// When `Ho*Wo` is at most the GEMM's k block (256; every layer of the
    /// paper's networks), each image's product is summed from zero and then
    /// added onto the gradient, exactly as a separate per-image product
    /// reduced in image order would be. Above it, each image adds its k
    /// blocks onto the gradient one after another, in k order.
    ///
    /// # Panics
    ///
    /// Panics if no training-mode forward pass preceded this call (an
    /// eval-mode forward keeps nothing to differentiate), if `grad_out`
    /// does not have the forward output's shape, or if `weight` is not
    /// `[out_channels, in_channels, kernel, kernel]`.
    pub fn backward_with_weight(&mut self, grad_out: &Tensor, weight: &Tensor) -> Tensor {
        let _span = pcount_telemetry::span("conv_bwd");
        let [n, c, h, w] = self
            .train_input
            .take()
            .expect("conv backward needs a training-mode forward before it");
        let geom = self.geom(c, h, w);
        assert_eq!(
            grad_out.shape(),
            &[n, geom.co, geom.ho, geom.wo],
            "conv grad shape mismatch"
        );
        self.check_weight(weight);
        let mut grad_in = Tensor::zeros(&[n, c, h, w]);
        let wd = weight.data();
        let gd = grad_out.data();
        let group = geom.group();
        let pool = pcount_runtime::current();
        pool.par_chunks_mut(grad_in.data_mut(), group * geom.chw(), |t, grad_imgs| {
            let gy = &gd[t * group * geom.out_len()..];
            input_grad_group(geom, gy, wd, grad_imgs);
        });
        // Strip `s` holds columns `s * STRIP_COLS..` of every row of dW.
        let (co, ckk) = (geom.co, geom.ckk());
        let mut strips = take_buffer(co * ckk);
        let (cols, wg) = (&self.train_cols, self.weight_grad.data());
        pool.par_chunks_mut(&mut strips, co * STRIP_COLS, |s, strip| {
            let j0 = s * STRIP_COLS;
            let width = strip.len() / co;
            for (row, acc) in strip.chunks_exact_mut(width).enumerate() {
                acc.copy_from_slice(&wg[row * ckk + j0..][..width]);
            }
            weight_grad_strip(geom, cols, gd, j0, strip);
        });
        let wg = self.weight_grad.data_mut();
        for (s, strip) in strips.chunks(co * STRIP_COLS).enumerate() {
            let (j0, width) = (s * STRIP_COLS, strip.len() / co);
            for (row, acc) in strip.chunks_exact(width).enumerate() {
                wg[row * ckk + j0..][..width].copy_from_slice(acc);
            }
        }
        give_buffer(strips);
        // Each image's row sums from -0.0, the start of `Iterator::sum`,
        // so an all-(-0.0) row adds -0.0.
        let dims = [n, co, geom.plane()];
        let bg = self.bias_grad.data_mut();
        channel_sums([gd], dims, bg, SumOrder::PerImage(-0.0), |_, [g]| g);
        grad_in
    }

    /// Reference backward pass mirroring
    /// [`Conv2d::forward_naive_with_weight`] on the forward input `x`;
    /// accumulates into `weight_grad`/`bias_grad` and returns the input
    /// gradient.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not NCHW, or as [`Conv2d::backward_with_weight`]
    /// does on a mismatched gradient or weight.
    pub fn backward_naive_with_weight(
        &mut self,
        x: &Tensor,
        grad_out: &Tensor,
        weight: &Tensor,
    ) -> Tensor {
        let xs = x.shape();
        assert_eq!(xs.len(), 4, "conv expects NCHW input");
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
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let weight = self.weight.clone();
        self.forward_with_weight(x, &weight, mode)
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
        let _ = conv.forward_with_weight(&Tensor::ones(&[1, 2, 4, 4]), &weight, Mode::Eval);
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
        let x = Tensor::ones(&[1, 2, 4, 4]);
        let _ = conv.forward_naive_with_weight(&x, &weight);
        let _ = conv.backward_naive_with_weight(&x, &Tensor::ones(&[1, 3, 2, 2]), &weight);
    }

    #[test]
    #[should_panic(expected = "conv backward needs a training-mode forward before it")]
    fn backward_after_an_eval_forward_is_rejected() {
        // An eval-mode forward keeps no columns, so even after a training
        // forward it leaves nothing to differentiate.
        let mut rng = StdRng::seed_from_u64(9);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        let x = Tensor::ones(&[1, 2, 4, 4]);
        let _ = conv.forward(&x, Mode::Train);
        let y = conv.forward(&x, Mode::Eval);
        let _ = conv.backward(&y);
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
