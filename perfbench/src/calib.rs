//! A fixed reference load that measures the host's current speed.
//!
//! The benchmark's host shares its cores, and its speed drifts by tens
//! of percent over minutes. The reference load is the benchmark's own
//! code, independent of every crate, so no change to the program moves
//! it. Timing it next to each pass gives that pass's host speed.

use std::hint::black_box;
use std::time::Instant;

/// Steps of the reference kernel per thread.
const STEPS: u32 = 6_000_000;

/// Integer work shaped like an interpreter loop: unpredictable branches
/// and loads and stores into a 16 KiB table.
fn kernel(seed: u32) -> u32 {
    let mut table = [0u32; 4096];
    let (mut x, mut acc) = (seed | 1, 0u32);
    for i in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        let at = (x as usize) & 4095;
        match x >> 30 {
            0 => table[at] = table[at].wrapping_add(acc),
            1 => acc ^= table[at],
            2 => acc = acc.rotate_left(3).wrapping_add(i),
            _ => acc = acc.wrapping_mul(table[(at + 1) & 4095] | 1),
        }
    }
    acc
}

/// Host seconds the reference load takes on `width` threads at once.
pub fn reference_s(width: usize) -> f64 {
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..width {
            scope.spawn(move || black_box(kernel(black_box(t as u32 + 1))));
        }
    });
    start.elapsed().as_secs_f64()
}
