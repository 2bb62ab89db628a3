//! Cache-blocked GEMM with a register-blocked micro-kernel, plus
//! `im2col`/`col2im` packing for convolution lowering.
//!
//! This module is the training hot path of the whole reproduction: every
//! `Conv2d` and `Linear` forward/backward in `pcount-nn` lowers to calls
//! into [`gemm`], and the QAT sweep in `pcount-core` rides the same code.
//! The design is the classic three-level blocking of Goto-style GEMMs,
//! scaled down for the model sizes of this paper (matrices up to a few
//! hundred on a side):
//!
//! * the innermost **micro-kernel** keeps an `MR x NR` accumulator tile in
//!   registers and streams packed panels of A and B through it. Its loop
//!   nest is compiled twice: once for the baseline target (SSE2 on
//!   x86-64: the tile spills out of the 16 `xmm` registers) and once with
//!   AVX2 enabled (the tile fits in 8 `ymm` registers), and [`gemm`] picks
//!   the AVX2 copy at run time when the CPU has it. Rust never contracts
//!   `a * b + c` into a fused multiply-add, so both copies round every
//!   lane identically and the choice never changes a result;
//! * operands are **packed** into panel-major buffers once per cache
//!   block, which makes transposed operands free (packing reads through
//!   strides) and keeps the micro-kernel's memory traffic unit-stride;
//! * the packed panels live in one private **per-thread arena** that grows
//!   to the largest block the thread has packed and is never shrunk, so a
//!   training loop that issues thousands of small GEMMs per epoch performs
//!   zero allocations after warm-up.
//!
//! [`gemm`] always runs serially on the calling thread and never submits
//! work to the `pcount-runtime` pool. Every product in the workspace is
//! small, and each already runs inside a coarser pool task (a `Conv2d`
//! image group, a fold job or a λ point), so parallelism lives at that one
//! level and one arena per thread is enough.
//!
//! Accumulation order is fixed by the blocking (k is swept in `KC` chunks,
//! innermost), so results are deterministic across runs and threads —
//! parallel fold training in `pcount-core` relies on this. An output
//! element's value depends only on its row of A and its column of B, never
//! on how many columns sit beside it, which is what lets `Conv2d` put
//! several images side by side in one product.

use std::cell::RefCell;

/// Rows of the register tile (accumulator height).
const MR: usize = 4;
/// Columns of the register tile; 16 f32 lanes vectorise to 2–4 SIMD
/// registers per accumulator row.
const NR: usize = 16;
/// k-dimension cache block: one packed A panel column stays in L1/L2.
const KC: usize = 256;
/// m-dimension cache block (multiple of [`MR`]).
const MC: usize = 128;
/// n-dimension cache block (multiple of [`NR`]).
const NC: usize = 1024;

/// The panel-major copies of the current A and B cache blocks.
struct Panels {
    a: Vec<f32>,
    b: Vec<f32>,
}

thread_local! {
    /// The calling thread's packing arena. `pcount-runtime` pool threads
    /// are persistent, so each thread's panels warm up once and are reused
    /// for the rest of the process.
    static PANELS: RefCell<Panels> = const {
        RefCell::new(Panels {
            a: Vec::new(),
            b: Vec::new(),
        })
    };
}

/// `C[m x n] = A_eff[m x k] · B_eff[k x n]` (`+=` when `accumulate`).
///
/// `A_eff` is `a` interpreted as row-major `[m, k]`, or as the transpose
/// of row-major `[k, m]` when `trans_a` is set; `B_eff` likewise is
/// `[k, n]` or the transpose of `[n, k]` when `trans_b` is set. `c` is
/// always row-major `[m, n]` and is overwritten unless `accumulate` asks
/// for `C += A·B` (used to accumulate weight gradients in place).
///
/// Runs serially on the calling thread, packing into that thread's arena.
///
/// # Example
///
/// ```
/// use pcount_tensor::gemm;
/// let (a, b) = (vec![1.0f32; 6], vec![1.0f32; 6]);
/// let mut c = vec![0.0f32; 4];
/// // C[2x2] = A[2x3] * B[3x2]
/// gemm(false, false, 2, 2, 3, &a, &b, &mut c, false);
/// assert_eq!(c, vec![3.0; 4]);
/// ```
///
/// # Panics
///
/// Panics if any slice is shorter than its shape implies.
#[allow(clippy::too_many_arguments)]
pub fn gemm(
    trans_a: bool,
    trans_b: bool,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    accumulate: bool,
) {
    gemm_with_kernel(
        Kernel::detect(),
        trans_a,
        trans_b,
        m,
        n,
        k,
        a,
        b,
        c,
        accumulate,
    );
}

/// [`gemm`] on an explicit compiled copy of the loop nest: the Goto
/// blocking over the whole of C.
#[allow(clippy::too_many_arguments)]
fn gemm_with_kernel(
    kernel: Kernel,
    trans_a: bool,
    trans_b: bool,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    accumulate: bool,
) {
    assert!(a.len() >= m * k, "gemm: A too short for {m}x{k}");
    assert!(b.len() >= k * n, "gemm: B too short for {k}x{n}");
    assert!(c.len() >= m * n, "gemm: C too short for {m}x{n}");
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        if !accumulate {
            c[..m * n].fill(0.0);
        }
        return;
    }
    // Observability only: one relaxed atomic load while telemetry is
    // disabled, a scoped "gemm" span otherwise. Results are unaffected.
    let _span = pcount_telemetry::span("gemm");
    let (rs_a, cs_a) = operand_strides(trans_a, m, k);
    let (rs_b, cs_b) = operand_strides(trans_b, k, n);
    PANELS.with(|panels| {
        let panels = &mut *panels.borrow_mut();
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            let first_k_block = pc == 0;
            for jc in (0..n).step_by(NC) {
                let nc = NC.min(n - jc);
                pack_b(&mut panels.b, b, pc, jc, kc, nc, rs_b, cs_b);
                for ic in (0..m).step_by(MC) {
                    let mc = MC.min(m - ic);
                    pack_a(&mut panels.a, a, ic, pc, mc, kc, rs_a, cs_a);
                    multiply_block(
                        kernel,
                        panels,
                        c,
                        n,
                        ic,
                        jc,
                        mc,
                        nc,
                        kc,
                        accumulate || !first_k_block,
                    );
                }
            }
        }
    });
}

/// `(row stride, column stride)` of an effective `rows x cols` operand
/// stored row-major, or stored as the row-major transpose when `trans`:
/// element `(r, c)` lives at `r * rs + c * cs`.
fn operand_strides(trans: bool, rows: usize, cols: usize) -> (usize, usize) {
    if trans {
        (1, rows)
    } else {
        (cols, 1)
    }
}

/// Which compiled copy of the [`multiply_block`] loop nest runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernel {
    /// Compiled for the baseline target: the only kernel on hosts without
    /// AVX2, and the reference the AVX2 copy is tested against.
    Portable,
    /// The same loop nest compiled with AVX2 enabled. Only constructed
    /// after `is_x86_feature_detected!("avx2")` said yes.
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl Kernel {
    /// The fastest kernel this CPU runs (the detection result is cached
    /// by `std`, so this is one relaxed load per call).
    fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("avx2") {
            return Kernel::Avx2;
        }
        Kernel::Portable
    }
}

/// Packs the `mc x kc` block of A starting at `(ic, pc)` into panels of
/// [`MR`] rows, zero-padding the ragged last panel.
#[allow(clippy::too_many_arguments)]
fn pack_a(
    packed: &mut Vec<f32>,
    a: &[f32],
    ic: usize,
    pc: usize,
    mc: usize,
    kc: usize,
    rs: usize,
    cs: usize,
) {
    let panels = mc.div_ceil(MR);
    packed.resize(panels * kc * MR, 0.0);
    for pi in 0..panels {
        let row0 = ic + pi * MR;
        let rows = MR.min(ic + mc - row0);
        let dst = &mut packed[pi * kc * MR..(pi + 1) * kc * MR];
        if rows < MR {
            dst.fill(0.0);
        }
        for (p, out) in dst.chunks_exact_mut(MR).enumerate() {
            let col = pc + p;
            for (i, slot) in out[..rows].iter_mut().enumerate() {
                *slot = a[(row0 + i) * rs + col * cs];
            }
        }
    }
}

/// Packs the `kc x nc` block of B starting at `(pc, jc)` into panels of
/// [`NR`] columns, zero-padding the ragged last panel.
#[allow(clippy::too_many_arguments)]
fn pack_b(
    packed: &mut Vec<f32>,
    b: &[f32],
    pc: usize,
    jc: usize,
    kc: usize,
    nc: usize,
    rs: usize,
    cs: usize,
) {
    let panels = nc.div_ceil(NR);
    packed.resize(panels * kc * NR, 0.0);
    for pj in 0..panels {
        let col0 = jc + pj * NR;
        let cols = NR.min(jc + nc - col0);
        let dst = &mut packed[pj * kc * NR..(pj + 1) * kc * NR];
        if cols < NR {
            dst.fill(0.0);
        }
        for (p, out) in dst.chunks_exact_mut(NR).enumerate() {
            let row = pc + p;
            if cs == 1 {
                // Contiguous source row: straight copy (the common
                // non-transposed case vectorises to memcpy).
                let base = row * rs + col0;
                out[..cols].copy_from_slice(&b[base..base + cols]);
            } else {
                for (j, slot) in out[..cols].iter_mut().enumerate() {
                    *slot = b[row * rs + (col0 + j) * cs];
                }
            }
        }
    }
}

/// Multiplies the packed A block by the packed B block into the `C` tile
/// at `(ic, jc)` of the row-major C with row stride `ldc`. `kernel` picks
/// the compiled copy of the loop nest; every copy gives bit-identical
/// results.
#[allow(clippy::too_many_arguments)]
fn multiply_block(
    kernel: Kernel,
    panels: &Panels,
    c: &mut [f32],
    ldc: usize,
    ic: usize,
    jc: usize,
    mc: usize,
    nc: usize,
    kc: usize,
    accumulate: bool,
) {
    match kernel {
        Kernel::Portable => block_loops(panels, c, ldc, ic, jc, mc, nc, kc, accumulate),
        #[cfg(target_arch = "x86_64")]
        #[allow(unsafe_code)]
        // SAFETY: `Kernel::Avx2` exists only once AVX2 was detected.
        Kernel::Avx2 => unsafe { block_loops_avx2(panels, c, ldc, ic, jc, mc, nc, kc, accumulate) },
    }
}

/// [`block_loops`] compiled with AVX2 enabled (8-lane `ymm` vectors; no
/// FMA, which Rust would not emit for `a * b + c` anyway).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
fn block_loops_avx2(
    panels: &Panels,
    c: &mut [f32],
    ldc: usize,
    ic: usize,
    jc: usize,
    mc: usize,
    nc: usize,
    kc: usize,
    accumulate: bool,
) {
    block_loops(panels, c, ldc, ic, jc, mc, nc, kc, accumulate);
}

/// The loop nest of [`multiply_block`], inlined into each compiled copy.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn block_loops(
    panels: &Panels,
    c: &mut [f32],
    ldc: usize,
    ic: usize,
    jc: usize,
    mc: usize,
    nc: usize,
    kc: usize,
    accumulate: bool,
) {
    let m_panels = mc.div_ceil(MR);
    let n_panels = nc.div_ceil(NR);
    for pj in 0..n_panels {
        let pb = &panels.b[pj * kc * NR..(pj + 1) * kc * NR];
        let cols = NR.min(nc - pj * NR);
        for pi in 0..m_panels {
            let pa = &panels.a[pi * kc * MR..(pi + 1) * kc * MR];
            let rows = MR.min(mc - pi * MR);
            let mut acc = [[0.0f32; NR]; MR];
            microkernel(kc, pa, pb, &mut acc);
            let c_row0 = ic + pi * MR;
            let c_col0 = jc + pj * NR;
            for (i, acc_row) in acc.iter().enumerate().take(rows) {
                let dst = &mut c[(c_row0 + i) * ldc + c_col0..][..cols];
                if accumulate {
                    for (slot, &v) in dst.iter_mut().zip(acc_row) {
                        *slot += v;
                    }
                } else {
                    dst.copy_from_slice(&acc_row[..cols]);
                }
            }
        }
    }
}

/// The register-blocked inner kernel: `acc[MR][NR] += pa ⊗ pb` over `kc`
/// rank-1 updates. `pa`/`pb` are panel-major, so every iteration reads
/// `MR + NR` contiguous floats; the `NR` loop vectorises to the widest
/// vectors the enclosing copy of [`block_loops`] is compiled for.
#[inline(always)]
fn microkernel(kc: usize, pa: &[f32], pb: &[f32], acc: &mut [[f32; NR]; MR]) {
    for (a, b) in pa.chunks_exact(MR).zip(pb.chunks_exact(NR)).take(kc) {
        for (i, acc_row) in acc.iter_mut().enumerate() {
            let ai = a[i];
            for (j, slot) in acc_row.iter_mut().enumerate() {
                *slot += ai * b[j];
            }
        }
    }
}

/// Output size along one spatial axis of a `k`-tap convolution with the
/// given stride and zero padding: `(input + 2 * padding - k) / stride + 1`.
///
/// # Panics
///
/// Panics if `stride` or `k` is zero, or if the kernel is larger than the
/// padded input (`input + 2 * padding < k`), where no output exists.
pub fn conv_output_size(input: usize, k: usize, stride: usize, padding: usize) -> usize {
    assert!(stride > 0 && k > 0, "conv: kernel and stride must be > 0");
    let padded = input + 2 * padding;
    assert!(
        padded >= k,
        "conv: kernel {k} is larger than the padded input ({input} + 2 * padding {padding})"
    );
    (padded - k) / stride + 1
}

thread_local! {
    /// Per-thread zero-bordered copy of one input plane, shared by
    /// [`im2col`] and [`col2im`] (each call re-zeroes it, so neither
    /// depends on what the other left behind).
    static PADDED_PLANE: std::cell::RefCell<Vec<f32>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Lowers one `[c, h, w]` image into the `c*k*k` rows of a column matrix
/// for a `k x k` convolution with the given stride and zero padding.
///
/// Row `(ci*k + ky)*k + kx` holds, for every output position `(oy, ox)`,
/// the input value under kernel tap `(ky, kx)` of channel `ci` — zero where
/// the tap falls into the padding. It is written to
/// `col[row * ld..row * ld + ho * wo]`, so with `ld = ho * wo` the result is
/// the image's own `[c*k*k, ho*wo]` matrix, and with a wider `ld` several
/// images sit side by side in one matrix (`Conv2d` passes
/// `&mut col[g * ho * wo..]` and `ld = G * ho * wo` for image `g` of a
/// group). A convolution then becomes
/// `out[co][j] = Σ W[co][row] · col[row][j]`, one GEMM for the whole group.
///
/// Each input plane is first copied into a zero-bordered plane, so every
/// output line is a plain copy (stride 1) or a strided gather with no
/// bounds tests.
///
/// Returns `(ho, wo)`.
///
/// # Panics
///
/// Panics if `src` is shorter than `c*h*w`, if `col` cannot hold the rows
/// at stride `ld`, or as [`conv_output_size`] does.
#[allow(clippy::too_many_arguments)]
pub fn im2col(
    src: &[f32],
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    padding: usize,
    col: &mut [f32],
    ld: usize,
) -> (usize, usize) {
    let ho = conv_output_size(h, k, stride, padding);
    let wo = conv_output_size(w, k, stride, padding);
    let plane = ho * wo;
    assert!(src.len() >= c * h * w, "im2col: image too short");
    assert!(
        ld >= plane && col.len() >= (c * k * k).saturating_sub(1) * ld + plane,
        "im2col: column matrix too short"
    );
    let wp = w + 2 * padding;
    PADDED_PLANE.with(|staging| {
        let mut staging = staging.borrow_mut();
        staging.clear();
        staging.resize((h + 2 * padding) * wp, 0.0);
        for ci in 0..c {
            let img = &src[ci * h * w..(ci + 1) * h * w];
            let padded: &[f32] = if padding == 0 {
                img
            } else {
                for (y, line) in img.chunks_exact(w).enumerate() {
                    let at = (y + padding) * wp + padding;
                    staging[at..at + w].copy_from_slice(line);
                }
                &staging[..]
            };
            for ky in 0..k {
                for kx in 0..k {
                    let row = (ci * k + ky) * k + kx;
                    let dst = &mut col[row * ld..row * ld + plane];
                    for (oy, line) in dst.chunks_exact_mut(wo).enumerate() {
                        let at = (oy * stride + ky) * wp + kx;
                        if stride == 1 {
                            line.copy_from_slice(&padded[at..at + wo]);
                        } else {
                            for (ox, slot) in line.iter_mut().enumerate() {
                                *slot = padded[at + ox * stride];
                            }
                        }
                    }
                }
            }
        }
    });
    (ho, wo)
}

/// Scatter-adds the `c*k*k` rows of a column-matrix gradient back onto the
/// `[c, h, w]` image gradient (`dst += col2im(col)`): the exact adjoint of
/// [`im2col`], used for the convolution input gradient. Row `r` is read
/// from `col[r * ld..]`, with `ld` as in [`im2col`].
///
/// Each plane of `dst` is staged in a zero-bordered plane, so taps that
/// land in the padding add into the border instead of being tested for;
/// every pixel still receives its taps in `(ky, kx)` order, on top of the
/// value it came in with.
///
/// # Panics
///
/// Panics if the slices are shorter than their shapes imply, or as
/// [`conv_output_size`] does.
#[allow(clippy::too_many_arguments)]
pub fn col2im(
    col: &[f32],
    ld: usize,
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    padding: usize,
    dst: &mut [f32],
) {
    let ho = conv_output_size(h, k, stride, padding);
    let wo = conv_output_size(w, k, stride, padding);
    let plane = ho * wo;
    assert!(dst.len() >= c * h * w, "col2im: image too short");
    assert!(
        ld >= plane && col.len() >= (c * k * k).saturating_sub(1) * ld + plane,
        "col2im: column matrix too short"
    );
    let wp = w + 2 * padding;
    PADDED_PLANE.with(|staging| {
        let mut staging = staging.borrow_mut();
        staging.clear();
        staging.resize((h + 2 * padding) * wp, 0.0);
        for ci in 0..c {
            let img = &mut dst[ci * h * w..(ci + 1) * h * w];
            if padding > 0 {
                for (y, line) in img.chunks_exact(w).enumerate() {
                    let at = (y + padding) * wp + padding;
                    staging[at..at + w].copy_from_slice(line);
                }
            }
            let padded: &mut [f32] = if padding == 0 {
                &mut *img
            } else {
                &mut staging[..]
            };
            for ky in 0..k {
                for kx in 0..k {
                    let row = (ci * k + ky) * k + kx;
                    let src = &col[row * ld..row * ld + plane];
                    for (oy, line) in src.chunks_exact(wo).enumerate() {
                        let at = (oy * stride + ky) * wp + kx;
                        if stride == 1 {
                            for (slot, &v) in padded[at..at + wo].iter_mut().zip(line) {
                                *slot += v;
                            }
                        } else {
                            for (ox, &v) in line.iter().enumerate() {
                                padded[at + ox * stride] += v;
                            }
                        }
                    }
                }
            }
            if padding > 0 {
                for (y, line) in img.chunks_exact_mut(w).enumerate() {
                    let at = (y + padding) * wp + padding;
                    line.copy_from_slice(&staging[at..at + w]);
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SplitMix64;

    fn random_vec(n: usize, rng: &mut SplitMix64) -> Vec<f32> {
        (0..n).map(|_| rng.next_f32() * 2.0 - 1.0).collect()
    }

    /// One image's own `[c*k*k, ho*wo]` im2col matrix, with `(ho, wo)`.
    fn im2col_matrix(
        src: &[f32],
        (c, h, w): (usize, usize, usize),
        k: usize,
        stride: usize,
        padding: usize,
    ) -> (Vec<f32>, usize, usize) {
        let ho = conv_output_size(h, k, stride, padding);
        let wo = conv_output_size(w, k, stride, padding);
        let mut col = vec![f32::NAN; c * k * k * ho * wo];
        assert_eq!(
            im2col(src, c, h, w, k, stride, padding, &mut col, ho * wo),
            (ho, wo)
        );
        (col, ho, wo)
    }

    /// Naive reference: C = A_eff · B_eff with the same effective-operand
    /// convention as [`gemm`].
    #[allow(clippy::too_many_arguments)]
    fn reference(
        trans_a: bool,
        trans_b: bool,
        m: usize,
        n: usize,
        k: usize,
        a: &[f32],
        b: &[f32],
    ) -> Vec<f32> {
        let a_at = |i: usize, p: usize| if trans_a { a[p * m + i] } else { a[i * k + p] };
        let b_at = |p: usize, j: usize| if trans_b { b[j * k + p] } else { b[p * n + j] };
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f64;
                for p in 0..k {
                    acc += (a_at(i, p) * b_at(p, j)) as f64;
                }
                c[i * n + j] = acc as f32;
            }
        }
        c
    }

    fn assert_close(got: &[f32], want: &[f32], tol: f32) {
        assert_eq!(got.len(), want.len());
        for (i, (&g, &w)) in got.iter().zip(want.iter()).enumerate() {
            let scale = 1.0f32.max(w.abs());
            assert!(
                (g - w).abs() <= tol * scale,
                "element {i}: got {g}, want {w}"
            );
        }
    }

    #[test]
    fn gemm_matches_reference_across_shapes_and_transposes() {
        let mut rng = SplitMix64::new(1);
        for &(m, n, k) in &[
            (1, 1, 1),
            (3, 5, 7),
            (4, 16, 8),
            (5, 17, 9),
            (MR, NR, KC),
            (MR + 1, NR + 1, KC + 1),
            (33, 70, 41),
            (130, 65, 260),
        ] {
            for &(ta, tb) in &[(false, false), (true, false), (false, true), (true, true)] {
                let a = random_vec(m * k, &mut rng);
                let b = random_vec(k * n, &mut rng);
                let mut c = vec![f32::NAN; m * n];
                gemm(ta, tb, m, n, k, &a, &b, &mut c, false);
                let want = reference(ta, tb, m, n, k, &a, &b);
                assert_close(&c, &want, 1e-5);
            }
        }
    }

    #[test]
    fn gemm_accumulate_adds_onto_existing_c() {
        let mut rng = SplitMix64::new(2);
        let (m, n, k) = (7, 19, 300);
        let a = random_vec(m * k, &mut rng);
        let b = random_vec(k * n, &mut rng);
        let init = random_vec(m * n, &mut rng);
        let mut c = init.clone();
        gemm(false, false, m, n, k, &a, &b, &mut c, true);
        let mut want = reference(false, false, m, n, k, &a, &b);
        for (w, &i) in want.iter_mut().zip(init.iter()) {
            *w += i;
        }
        assert_close(&c, &want, 1e-4);
    }

    #[test]
    fn gemm_with_zero_k_clears_or_preserves_c() {
        let mut c = vec![3.0f32; 4];
        gemm(false, false, 2, 2, 0, &[], &[], &mut c, false);
        assert_eq!(c, vec![0.0; 4]);
        let mut c = vec![3.0f32; 4];
        gemm(false, false, 2, 2, 0, &[], &[], &mut c, true);
        assert_eq!(c, vec![3.0; 4]);
    }

    #[test]
    fn gemm_is_deterministic_across_calls_and_scratch_reuse() {
        let mut rng = SplitMix64::new(3);
        let (m, n, k) = (31, 47, 129);
        let a = random_vec(m * k, &mut rng);
        let b = random_vec(k * n, &mut rng);
        let run = || {
            let mut c = vec![0.0f32; m * n];
            gemm(false, false, m, n, k, &a, &b, &mut c, false);
            c
        };
        // A fresh thread packs into a fresh arena.
        let fresh = std::thread::scope(|s| s.spawn(run).join().expect("gemm thread"));
        // A larger product leaves stale panels behind in this thread's
        // arena; the next products must not see them.
        let (big_m, big_n, big_k) = (130, 65, 260);
        let big_a = random_vec(big_m * big_k, &mut rng);
        let big_b = random_vec(big_k * big_n, &mut rng);
        let mut big_c = vec![0.0f32; big_m * big_n];
        gemm(
            true, true, big_m, big_n, big_k, &big_a, &big_b, &mut big_c, false,
        );
        let (c1, c2) = (run(), run());
        assert_eq!(c1, c2, "arena reuse must not change results");
        assert_eq!(c1, fresh, "a fresh arena must not change results");
    }

    /// Direct per-element convolution used as the im2col oracle.
    #[allow(clippy::too_many_arguments)]
    fn conv_reference(
        src: &[f32],
        weight: &[f32],
        c: usize,
        h: usize,
        w: usize,
        co: usize,
        k: usize,
        stride: usize,
        padding: usize,
    ) -> Vec<f32> {
        let ho = conv_output_size(h, k, stride, padding);
        let wo = conv_output_size(w, k, stride, padding);
        let mut out = vec![0.0f32; co * ho * wo];
        for o in 0..co {
            for oy in 0..ho {
                for ox in 0..wo {
                    let mut acc = 0.0f32;
                    for ci in 0..c {
                        for ky in 0..k {
                            for kx in 0..k {
                                let iy = (oy * stride + ky) as isize - padding as isize;
                                let ix = (ox * stride + kx) as isize - padding as isize;
                                if iy < 0 || iy >= h as isize || ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                acc += src[(ci * h + iy as usize) * w + ix as usize]
                                    * weight[((o * c + ci) * k + ky) * k + kx];
                            }
                        }
                    }
                    out[(o * ho + oy) * wo + ox] = acc;
                }
            }
        }
        out
    }

    #[test]
    fn im2col_gemm_equals_direct_convolution() {
        let mut rng = SplitMix64::new(4);
        for &(c, h, w, co, k, stride, padding) in &[
            (1, 8, 8, 4, 3, 1, 1),
            (3, 8, 8, 5, 3, 1, 1),
            (2, 9, 7, 3, 3, 2, 1),
            (2, 8, 8, 3, 1, 1, 0),
            (1, 5, 5, 2, 5, 1, 2),
            (2, 6, 6, 4, 3, 3, 0),
        ] {
            let src = random_vec(c * h * w, &mut rng);
            let weight = random_vec(co * c * k * k, &mut rng);
            let (col, ho, wo) = im2col_matrix(&src, (c, h, w), k, stride, padding);
            let mut out = vec![0.0f32; co * ho * wo];
            gemm(
                false,
                false,
                co,
                ho * wo,
                c * k * k,
                &weight,
                &col,
                &mut out,
                false,
            );
            let want = conv_reference(&src, &weight, c, h, w, co, k, stride, padding);
            assert_close(&out, &want, 1e-5);
        }
    }

    #[test]
    fn col2im_is_the_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y: the defining
        // property of an adjoint pair, which is exactly what the conv
        // backward pass needs.
        let mut rng = SplitMix64::new(5);
        for &(c, h, w, k, stride, padding) in &[
            (2, 8, 8, 3, 1, 1),
            (1, 7, 9, 3, 2, 1),
            (3, 5, 5, 1, 1, 0),
            (1, 6, 6, 3, 3, 0),
        ] {
            let x = random_vec(c * h * w, &mut rng);
            let (col, ho, wo) = im2col_matrix(&x, (c, h, w), k, stride, padding);
            let y = random_vec(c * k * k * ho * wo, &mut rng);
            let lhs: f64 = col
                .iter()
                .zip(y.iter())
                .map(|(&a, &b)| (a * b) as f64)
                .sum();
            let mut back = vec![0.0f32; c * h * w];
            col2im(&y, ho * wo, c, h, w, k, stride, padding, &mut back);
            let rhs: f64 = x
                .iter()
                .zip(back.iter())
                .map(|(&a, &b)| (a * b) as f64)
                .sum();
            assert!(
                (lhs - rhs).abs() <= 1e-3 * lhs.abs().max(1.0),
                "adjoint mismatch: {lhs} vs {rhs}"
            );
        }
    }

    #[test]
    fn im2col_handles_kernels_overhanging_the_full_width() {
        // k > w: some kernel taps never land in-bounds on any output
        // column — their rows must come back all-zero instead of
        // panicking on an underflowed copy offset (regression test).
        let (c, h, w, k, stride, padding) = (1, 6, 2, 6, 1, 2);
        let src: Vec<f32> = (0..c * h * w).map(|i| i as f32 + 1.0).collect();
        let (col, ho, wo) = im2col_matrix(&src, (c, h, w), k, stride, padding);
        assert_eq!((ho, wo), (5, 1));
        // Tap kx=5 needs ix = 0*1 + 5 - 2 = 3 >= w for every ox: all zero.
        for ky in 0..k {
            let row = (ky * k + 5) * ho * wo;
            assert!(col[row..row + ho * wo].iter().all(|&v| v == 0.0));
        }
        // And the whole matrix still matches the direct convolution.
        let weight = vec![1.0f32; k * k];
        let mut out = vec![0.0f32; ho * wo];
        gemm(
            false,
            false,
            1,
            ho * wo,
            c * k * k,
            &weight,
            &col,
            &mut out,
            false,
        );
        let want = conv_reference(&src, &weight, c, h, w, 1, k, stride, padding);
        assert_close(&out, &want, 1e-5);
    }

    #[test]
    fn col2im_accumulates_into_existing_gradient() {
        let (c, h, w, k) = (1, 4, 4, 3);
        let x = vec![1.0f32; c * h * w];
        let (col, ho, wo) = im2col_matrix(&x, (c, h, w), k, 1, 1);
        let ones = vec![1.0f32; col.len()];
        let mut dst = vec![10.0f32; c * h * w];
        col2im(&ones, ho * wo, c, h, w, k, 1, 1, &mut dst);
        // Every interior pixel is covered by k*k = 9 taps; corners by 4.
        assert_eq!(dst[5], 19.0);
        assert_eq!(dst[0], 14.0);
    }

    #[test]
    fn packing_at_a_wider_row_stride_matches_per_image_matrices() {
        // Images packed side by side (image g at column offset g*ho*wo,
        // row stride G*ho*wo) read exactly their own im2col matrices, and
        // col2im from that layout gives exactly the per-image gradients.
        let mut rng = SplitMix64::new(6);
        for &(c, h, w, k, stride, padding) in &[
            (2, 8, 8, 3, 1, 1),
            (3, 7, 9, 3, 2, 1),
            (2, 5, 5, 1, 1, 0),
            (1, 6, 6, 3, 2, 0),
        ] {
            let images = 3;
            let chw = c * h * w;
            let x = random_vec(images * chw, &mut rng);
            let (ho, wo) = (
                conv_output_size(h, k, stride, padding),
                conv_output_size(w, k, stride, padding),
            );
            let (plane, rows) = (ho * wo, c * k * k);
            let ld = images * plane;
            let mut group = vec![f32::NAN; rows * ld];
            for g in 0..images {
                im2col(
                    &x[g * chw..],
                    c,
                    h,
                    w,
                    k,
                    stride,
                    padding,
                    &mut group[g * plane..],
                    ld,
                );
            }
            let dy = random_vec(rows * ld, &mut rng);
            for g in 0..images {
                let (own, _, _) = im2col_matrix(&x[g * chw..], (c, h, w), k, stride, padding);
                for r in 0..rows {
                    let packed = &group[r * ld + g * plane..][..plane];
                    assert_eq!(
                        packed,
                        &own[r * plane..][..plane],
                        "im2col row {r} of image {g}"
                    );
                }
                let own_dy: Vec<f32> = (0..rows)
                    .flat_map(|r| dy[r * ld + g * plane..][..plane].to_vec())
                    .collect();
                let init = random_vec(chw, &mut rng);
                let (mut strided, mut own_grad) = (init.clone(), init);
                col2im(
                    &dy[g * plane..],
                    ld,
                    c,
                    h,
                    w,
                    k,
                    stride,
                    padding,
                    &mut strided,
                );
                col2im(&own_dy, plane, c, h, w, k, stride, padding, &mut own_grad);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&strided), bits(&own_grad), "col2im of image {g}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "larger than the padded input")]
    fn conv_output_size_rejects_kernels_larger_than_the_padded_input() {
        conv_output_size(2, 3, 1, 0);
    }

    #[test]
    fn avx2_kernel_is_bit_identical_to_the_portable_kernel() {
        // Guards the no-FMA property: a contracted multiply-add rounds once
        // where the portable kernel rounds twice, and would show up here.
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("avx2") {
            let mut rng = SplitMix64::new(7);
            for &(m, n, k) in &[
                (1, 1, 1),
                (3, 5, 7),
                (4, 16, 8),
                (5, 17, 9),
                (MR, NR, KC),
                (MR + 1, NR + 1, KC + 1),
                (33, 70, 41),
                (130, 65, 260),
            ] {
                for trans in [(false, false), (true, false), (false, true), (true, true)] {
                    for accumulate in [false, true] {
                        let a = random_vec(m * k, &mut rng);
                        let b = random_vec(k * n, &mut rng);
                        let init = random_vec(m * n, &mut rng);
                        let (mut portable, mut avx2) = (init.clone(), init);
                        for (kernel, c) in
                            [(Kernel::Portable, &mut portable), (Kernel::Avx2, &mut avx2)]
                        {
                            gemm_with_kernel(
                                kernel, trans.0, trans.1, m, n, k, &a, &b, c, accumulate,
                            );
                        }
                        for (i, (p, v)) in portable.iter().zip(&avx2).enumerate() {
                            assert_eq!(
                                p.to_bits(),
                                v.to_bits(),
                                "{m}x{n}x{k} {trans:?} accumulate {accumulate}: element {i}"
                            );
                        }
                    }
                }
            }
        }
    }
}
