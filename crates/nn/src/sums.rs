//! Per-channel sums over NCHW data, several channels side by side.

/// Where each channel's chain of [`channel_sums`] starts, and whether it
/// runs through every image or restarts per image.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SumOrder {
    /// One chain per channel over all of its (image, pixel) terms in
    /// order, starting from the channel's entry of `sums`.
    Running,
    /// Each image's terms are summed in pixel order from this start
    /// value, and each image's partial is then added onto the channel's
    /// entry of `sums`, in image order.
    PerImage(f32),
}

/// Adds, for every channel `ch` of NCHW data of shape `[n, c, plane]`,
/// the terms `term(ch, [input[idx] for each input])` over the channel's
/// elements onto `sums[ch]`, in the order `order` names.
///
/// Every channel keeps one plain `f32` add chain in (image, pixel) order,
/// so the result equals a serial loop per channel bit for bit. Four
/// channels advance side by side (then two or one for the rest), four
/// pixels at a time, so one vector add serves four chains in place of
/// one chain's add latency per element. Four lanes, one SSE vector, read
/// faster than eight on an x86-64 host, where the extra lanes cost more
/// shuffles and register spills than the second chain saves.
///
/// # Panics
///
/// Panics if an input does not hold `n * c * plane` values or `sums`
/// does not hold `c`.
///
/// # Example
///
/// ```
/// use pcount_nn::{channel_sums, SumOrder};
/// // Two images of two channels of two pixels each.
/// let x = [1.0, 2.0, 10.0, 20.0, 3.0, 4.0, 30.0, 40.0];
/// let mut sums = [0.0; 2];
/// channel_sums([&x], [2, 2, 2], &mut sums, SumOrder::Running, |_, [v]| v);
/// assert_eq!(sums, [10.0, 100.0]);
/// ```
pub fn channel_sums<const K: usize>(
    inputs: [&[f32]; K],
    [n, c, plane]: [usize; 3],
    sums: &mut [f32],
    order: SumOrder,
    term: impl Fn(usize, [f32; K]) -> f32,
) {
    for input in inputs {
        assert_eq!(
            input.len(),
            n * c * plane,
            "channel_sums input size mismatch"
        );
    }
    assert_eq!(sums.len(), c, "channel_sums needs one sum per channel");
    let dims = [n, c, plane];
    let mut c0 = 0;
    while c0 < c {
        let lanes = match c - c0 {
            4.. => 4,
            2 | 3 => 2,
            _ => 1,
        };
        let block = &mut sums[c0..c0 + lanes];
        match lanes {
            4 => lane_block::<4, K>(inputs, dims, c0, block, order, &term),
            2 => lane_block::<2, K>(inputs, dims, c0, block, order, &term),
            _ => lane_block::<1, K>(inputs, dims, c0, block, order, &term),
        }
        c0 += lanes;
    }
}

/// [`channel_sums`] over the `L` channels `c0..c0 + L`.
#[inline(always)]
fn lane_block<const L: usize, const K: usize>(
    inputs: [&[f32]; K],
    [n, c, plane]: [usize; 3],
    c0: usize,
    sums: &mut [f32],
    order: SumOrder,
    term: &impl Fn(usize, [f32; K]) -> f32,
) {
    let sums: &mut [f32; L] = sums.try_into().expect("one sum per lane");
    let mut acc = *sums;
    let add = |acc: &mut [f32; L], at: [[&[f32]; L]; K], i: usize| {
        for (l, a) in acc.iter_mut().enumerate() {
            *a += term(c0 + l, std::array::from_fn(|k| at[k][l][i]));
        }
    };
    for img in 0..n {
        let at = (img * c + c0) * plane;
        let planes: [[&[f32]; L]; K] =
            std::array::from_fn(|k| std::array::from_fn(|l| &inputs[k][at + l * plane..][..plane]));
        if let SumOrder::PerImage(start) = order {
            acc = [start; L];
        }
        // Four pixels of every lane are read as one chunk each, so the
        // lanes' values for one pixel gather in registers.
        let mut i = 0;
        while i + 4 <= plane {
            let chunk: [[[f32; 4]; L]; K] = std::array::from_fn(|k| {
                std::array::from_fn(|l| planes[k][l][i..i + 4].try_into().expect("4 pixels"))
            });
            let chunk: [[&[f32]; L]; K] =
                std::array::from_fn(|k| std::array::from_fn(|l| &chunk[k][l][..]));
            for j in 0..4 {
                add(&mut acc, chunk, j);
            }
            i += 4;
        }
        for i in i..plane {
            add(&mut acc, planes, i);
        }
        if let SumOrder::PerImage(_) = order {
            for (s, a) in sums.iter_mut().zip(acc) {
                *s += a;
            }
        }
    }
    if order == SumOrder::Running {
        *sums = acc;
    }
}
