//! Synthetic LINAIGE-like infrared people-counting dataset.
//!
//! The paper evaluates on LINAIGE: 25110 labelled 8x8 thermal frames split
//! into 5 recording sessions, each frame annotated with the number of
//! people (0–3) in the field of view. The real recordings are not
//! redistributable, so this crate generates a synthetic replacement that
//! preserves the four properties the optimisation flow relies on:
//!
//! 1. ultra-low-resolution single-channel inputs (8x8),
//! 2. a 4-class counting label with a skewed class prior,
//! 3. session-level domain shift (different ambient temperature, noise and
//!    person "thermal signature" per session),
//! 4. temporal correlation between consecutive frames (people move with a
//!    random walk and the count changes rarely), which is what the
//!    majority-voting post-processing exploits.
//!
//! # Example
//!
//! ```
//! use pcount_dataset::{DatasetConfig, IrDataset};
//!
//! let data = IrDataset::generate(&DatasetConfig::tiny(), 42);
//! assert_eq!(data.num_sessions(), 5);
//! let folds = data.leave_one_session_out();
//! assert_eq!(folds.len(), 4); // session 1 is always kept for training
//! ```

#![forbid(unsafe_code)]

mod cv;
mod scene;

pub use cv::{CvFold, SplitIndices};
pub use scene::{DatasetConfig, SessionConfig, GRID_SIZE, MAX_PEOPLE};

use pcount_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use scene::SessionSimulator;

/// An in-memory labelled IR dataset with session structure and preserved
/// temporal frame ordering.
#[derive(Debug, Clone)]
pub struct IrDataset {
    frames: Tensor,
    labels: Vec<usize>,
    sessions: Vec<usize>,
    session_sizes: Vec<usize>,
}

impl IrDataset {
    /// Generates a synthetic dataset according to `config`, deterministically
    /// from `seed`.
    pub fn generate(config: &DatasetConfig, seed: u64) -> Self {
        let mut frames_data = Vec::new();
        let mut labels = Vec::new();
        let mut sessions = Vec::new();
        let mut session_sizes = Vec::new();
        for (s, session_cfg) in config.sessions.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(seed ^ (0x9E37 + s as u64 * 0x1000));
            let mut sim = SessionSimulator::new(session_cfg.clone(), &mut rng);
            for _ in 0..session_cfg.num_frames {
                let (frame, count) = sim.next_frame(&mut rng);
                frames_data.extend_from_slice(&frame);
                labels.push(count);
                sessions.push(s);
            }
            session_sizes.push(session_cfg.num_frames);
        }
        let n = labels.len();
        let frames = Tensor::from_vec(frames_data, &[n, 1, GRID_SIZE, GRID_SIZE]);
        Self {
            frames,
            labels,
            sessions,
            session_sizes,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Returns `true` if the dataset holds no samples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of recording sessions.
    pub fn num_sessions(&self) -> usize {
        self.session_sizes.len()
    }

    /// Number of classes (always `MAX_PEOPLE + 1`).
    pub fn num_classes(&self) -> usize {
        MAX_PEOPLE + 1
    }

    /// All frames as an `[N, 1, 8, 8]` tensor (raw, unnormalised).
    pub fn frames(&self) -> &Tensor {
        &self.frames
    }

    /// The people-count label of every frame.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// The session index of every frame.
    pub fn sessions(&self) -> &[usize] {
        &self.sessions
    }

    /// Indices of all frames of one session, in temporal order.
    pub fn session_indices(&self, session: usize) -> Vec<usize> {
        (0..self.len())
            .filter(|&i| self.sessions[i] == session)
            .collect()
    }

    /// Class histogram over the whole dataset.
    pub fn class_histogram(&self) -> Vec<usize> {
        let mut hist = vec![0usize; self.num_classes()];
        for &l in &self.labels {
            hist[l] += 1;
        }
        hist
    }

    /// Gathers the frames at `indices` into a new `[M, 1, 8, 8]` tensor and
    /// matching label vector, normalising each frame by subtracting its own
    /// spatial mean (a cheap ambient-temperature compensation that a real
    /// sensor node would perform before inference).
    pub fn gather_normalized(&self, indices: &[usize]) -> (Tensor, Vec<usize>) {
        let pixels = GRID_SIZE * GRID_SIZE;
        let mut data = Vec::with_capacity(indices.len() * pixels);
        let mut labels = Vec::with_capacity(indices.len());
        for &i in indices {
            assert!(i < self.len(), "index {i} out of bounds");
            let frame = &self.frames.data()[i * pixels..(i + 1) * pixels];
            let mean: f32 = frame.iter().sum::<f32>() / pixels as f32;
            data.extend(frame.iter().map(|&v| v - mean));
            labels.push(self.labels[i]);
        }
        (
            Tensor::from_vec(data, &[indices.len(), 1, GRID_SIZE, GRID_SIZE]),
            labels,
        )
    }

    /// One session as a temporally ordered stream: the normalised frames
    /// (`[M, 1, 8, 8]`, per-frame mean subtracted exactly like
    /// [`IrDataset::gather_normalized`]) and their labels, in recording
    /// order. This is the input shape of the streaming/resilience layer,
    /// which consumes one session as one continuous sensor feed.
    pub fn session_stream(&self, session: usize) -> (Tensor, Vec<usize>) {
        self.gather_normalized(&self.session_indices(session))
    }

    /// A `len`-frame window of one session's stream starting at frame
    /// `start` *modulo the session length* — the window wraps around, so
    /// any `(start, len)` yields exactly `len` frames. This is how the
    /// fleet layer hands each simulated node its own slice of a recorded
    /// session: hundreds of nodes can replay the same session at
    /// different phases without ever running out of frames.
    ///
    /// Panics if the session is empty or `len` is zero.
    pub fn session_stream_window(
        &self,
        session: usize,
        start: usize,
        len: usize,
    ) -> (Tensor, Vec<usize>) {
        let idx = self.session_indices(session);
        assert!(!idx.is_empty(), "session {session} has no frames");
        assert!(len > 0, "window length must be positive");
        let window: Vec<usize> = (0..len).map(|k| idx[(start + k) % idx.len()]).collect();
        self.gather_normalized(&window)
    }

    /// Leave-one-session-out cross-validation folds as used by the paper:
    /// session 0 (the largest, "Session 1" in the paper) is always part of
    /// the training set; every other session is rotated as the test set.
    pub fn leave_one_session_out(&self) -> Vec<CvFold> {
        let mut folds = Vec::new();
        for test_session in 1..self.num_sessions() {
            let mut train = Vec::new();
            let mut test = Vec::new();
            for i in 0..self.len() {
                if self.sessions[i] == test_session {
                    test.push(i);
                } else {
                    train.push(i);
                }
            }
            folds.push(CvFold {
                test_session,
                train: SplitIndices(train),
                test: SplitIndices(test),
            });
        }
        folds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = DatasetConfig::tiny();
        let a = IrDataset::generate(&cfg, 7);
        let b = IrDataset::generate(&cfg, 7);
        assert_eq!(a.labels(), b.labels());
        assert!(a.frames().approx_eq(b.frames(), 0.0));
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = DatasetConfig::tiny();
        let a = IrDataset::generate(&cfg, 1);
        let b = IrDataset::generate(&cfg, 2);
        assert!(!a.frames().approx_eq(b.frames(), 1e-6));
    }

    #[test]
    fn sizes_match_configuration() {
        let cfg = DatasetConfig::tiny();
        let data = IrDataset::generate(&cfg, 0);
        let expected: usize = cfg.sessions.iter().map(|s| s.num_frames).sum();
        assert_eq!(data.len(), expected);
        assert_eq!(data.num_sessions(), cfg.sessions.len());
        assert_eq!(data.frames().shape(), &[expected, 1, 8, 8]);
    }

    #[test]
    fn labels_are_within_class_range() {
        let data = IrDataset::generate(&DatasetConfig::tiny(), 3);
        assert!(data.labels().iter().all(|&l| l <= MAX_PEOPLE));
        let hist = data.class_histogram();
        assert_eq!(hist.iter().sum::<usize>(), data.len());
        // The skewed prior means empty rooms are the most frequent class.
        assert!(hist[0] >= hist[MAX_PEOPLE]);
    }

    #[test]
    fn occupied_frames_are_warmer_than_empty_ones() {
        let data = IrDataset::generate(&DatasetConfig::tiny(), 5);
        let pixels = GRID_SIZE * GRID_SIZE;
        let mut empty_max = Vec::new();
        let mut full_max = Vec::new();
        for i in 0..data.len() {
            let frame = &data.frames().data()[i * pixels..(i + 1) * pixels];
            let peak = frame.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            if data.labels()[i] == 0 {
                empty_max.push(peak);
            } else if data.labels()[i] == 3 {
                full_max.push(peak);
            }
        }
        let mean = |v: &[f32]| v.iter().sum::<f32>() / v.len().max(1) as f32;
        assert!(
            mean(&full_max) > mean(&empty_max) + 1.0,
            "3-person frames should have clearly hotter peaks"
        );
    }

    #[test]
    fn gather_normalized_centres_each_frame() {
        let data = IrDataset::generate(&DatasetConfig::tiny(), 9);
        let idx: Vec<usize> = (0..16).collect();
        let (x, y) = data.gather_normalized(&idx);
        assert_eq!(x.shape(), &[16, 1, 8, 8]);
        assert_eq!(y.len(), 16);
        for i in 0..16 {
            let frame = &x.data()[i * 64..(i + 1) * 64];
            let mean: f32 = frame.iter().sum::<f32>() / 64.0;
            assert!(mean.abs() < 1e-4);
        }
    }

    #[test]
    fn leave_one_session_out_keeps_session_one_in_training() {
        let data = IrDataset::generate(&DatasetConfig::tiny(), 11);
        let folds = data.leave_one_session_out();
        assert_eq!(folds.len(), data.num_sessions() - 1);
        for fold in &folds {
            assert!(fold.test_session != 0);
            // No overlap between train and test.
            for &i in fold.test.as_slice() {
                assert_eq!(data.sessions()[i], fold.test_session);
            }
            for &i in fold.train.as_slice() {
                assert_ne!(data.sessions()[i], fold.test_session);
            }
            assert_eq!(fold.train.len() + fold.test.len(), data.len());
            // Session 0 frames are always in training.
            assert!(fold
                .train
                .as_slice()
                .iter()
                .any(|&i| data.sessions()[i] == 0));
        }
    }

    #[test]
    fn session_stream_matches_gather_normalized_in_temporal_order() {
        let data = IrDataset::generate(&DatasetConfig::tiny(), 11);
        let idx = data.session_indices(1);
        let (x_ref, y_ref) = data.gather_normalized(&idx);
        let (x, y) = data.session_stream(1);
        assert_eq!(x.data(), x_ref.data());
        assert_eq!(y, y_ref);
        assert_eq!(x.shape()[0], idx.len());
    }

    #[test]
    fn temporal_correlation_labels_change_rarely() {
        let data = IrDataset::generate(&DatasetConfig::tiny(), 13);
        let idx = data.session_indices(1);
        let labels: Vec<usize> = idx.iter().map(|&i| data.labels()[i]).collect();
        let changes = labels.windows(2).filter(|w| w[0] != w[1]).count();
        // Counts change on far fewer than half of the transitions.
        assert!(
            changes * 3 < labels.len(),
            "labels changed {changes} times over {} frames",
            labels.len()
        );
    }
}
