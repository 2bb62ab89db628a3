//! A frame of the integer golden model allocates nothing.
//!
//! A counting global allocator counts the allocations the test thread
//! makes while its flag is set; every other thread is ignored. After one
//! warm-up call, [`QuantizedCnn::predict_frame`] must make none.

use pcount_nn::CnnConfig;
use pcount_quant::{fold_sequential, Precision, PrecisionAssignment, QatCnn, QuantizedCnn};
use pcount_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting the allocations of flagged threads.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call forwards to `System` with the caller's arguments.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn predict_frame_allocates_nothing_once_warm() {
    let mut rng = StdRng::seed_from_u64(0);
    let frames: Vec<f32> = (0..100 * 64).map(|_| rng.gen_range(-1.0f32..4.0)).collect();
    let cfg = CnnConfig::seed().with_channels(5, 6, 10);
    let folded = fold_sequential(cfg, &cfg.build(&mut rng)).expect("fold");
    let assignment = PrecisionAssignment::new([
        Precision::Int8,
        Precision::Int4,
        Precision::Int4,
        Precision::Int8,
    ]);
    let mut qat = QatCnn::from_folded(&folded, assignment);
    qat.calibrate(&Tensor::from_vec(frames[..8 * 64].to_vec(), &[8, 1, 8, 8]));
    let model = QuantizedCnn::from_qat(&qat);
    let mut predictions = [0usize; 100];
    model.predict_frame(&frames[..64]);

    COUNTING.with(|on| on.set(true));
    for (frame, prediction) in frames.chunks_exact(64).zip(&mut predictions) {
        *prediction = model.predict_frame(frame);
    }
    COUNTING.with(|on| on.set(false));

    assert_eq!(ALLOCATIONS.load(Ordering::Relaxed), 0);
    assert!(predictions.iter().all(|&p| p < cfg.num_classes));
}
