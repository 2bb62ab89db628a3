//! Majority-voting post-processing of streaming people-count predictions.
//!
//! The paper's third optimisation step exploits the temporal correlation of
//! consecutive IR frames: the per-frame classifier output is pushed into a
//! small FIFO and the emitted prediction is the most frequent class in the
//! window (mode inference). No re-computation is involved, so the memory
//! cost is a handful of bytes and the latency/energy overhead is
//! negligible; the price is a detection delay of about half the window
//! length when the true count changes.
//!
//! # Example
//!
//! ```
//! use pcount_postproc::MajorityVoter;
//!
//! let mut voter = MajorityVoter::new(5);
//! // A single mis-prediction in a stable scene is filtered out.
//! let stream = [1, 1, 3, 1, 1];
//! let smoothed: Vec<usize> = stream.iter().map(|&p| voter.push(p)).collect();
//! assert_eq!(smoothed[4], 1);
//! ```

#![forbid(unsafe_code)]

use std::collections::VecDeque;

/// Sliding-window majority-vote filter over class predictions.
///
/// Ties are broken in favour of the most recently pushed class among the
/// tied ones, which keeps the filter responsive when the occupancy truly
/// changes.
///
/// # Gap awareness
///
/// A dropped frame carries no prediction, but it still advances time: the
/// window is a *temporal* history, so a gap must age old votes out rather
/// than silently stretching the effective history over a longer wall-clock
/// span. [`MajorityVoter::push_missing`] records such a gap — it occupies
/// a window slot (evicting the oldest entry when full) without casting a
/// vote. Majorities are computed over the votes actually present;
/// [`MajorityVoter::current_opt`] returns `None` when the window holds no
/// votes at all (every slot is a gap).
#[derive(Debug, Clone)]
pub struct MajorityVoter {
    window: VecDeque<Option<usize>>,
    capacity: usize,
}

impl MajorityVoter {
    /// Creates a voter over a window of `capacity` most recent predictions.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be at least 1");
        Self {
            window: VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    /// Window capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of window slots currently occupied (votes *and* gaps).
    pub fn len(&self) -> usize {
        self.window.len()
    }

    /// Number of actual votes in the window (slots that are not gaps).
    pub fn votes(&self) -> usize {
        self.window.iter().filter(|slot| slot.is_some()).count()
    }

    /// Returns `true` if nothing (vote or gap) has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.window.is_empty()
    }

    /// Clears the window (e.g. at a session boundary).
    pub fn reset(&mut self) {
        self.window.clear();
    }

    /// Pushes the newest per-frame prediction and returns the smoothed
    /// (majority) prediction over the current window.
    pub fn push(&mut self, prediction: usize) -> usize {
        self.push_slot(Some(prediction));
        self.current()
    }

    /// Records a dropped frame: the gap occupies a window slot (aging the
    /// oldest entry out when the window is full) but casts no vote.
    /// Returns the majority over the votes still present, or `None` when
    /// the window no longer holds any vote.
    pub fn push_missing(&mut self) -> Option<usize> {
        self.push_slot(None);
        self.current_opt()
    }

    fn push_slot(&mut self, slot: Option<usize>) {
        if self.window.len() == self.capacity {
            self.window.pop_front();
        }
        self.window.push_back(slot);
    }

    /// The majority class of the current window.
    ///
    /// # Panics
    ///
    /// Panics if the window holds no vote (empty, or every slot a gap) —
    /// use [`MajorityVoter::current_opt`] on streams that may drop frames.
    pub fn current(&self) -> usize {
        self.current_opt()
            .expect("no predictions in the voting window")
    }

    /// The majority class over the votes present in the window, or `None`
    /// when the window holds no vote at all.
    ///
    /// Ties break toward the class seen most recently; gaps count toward
    /// ages (they advance time) but never toward any class.
    pub fn current_opt(&self) -> Option<usize> {
        let max_class = self.window.iter().flatten().copied().max()?;
        let mut counts = vec![0usize; max_class + 1];
        let mut last_seen = vec![0usize; max_class + 1];
        let mut most_recent = 0usize;
        for (age, slot) in self.window.iter().enumerate() {
            let Some(p) = *slot else { continue };
            counts[p] += 1;
            last_seen[p] = age;
            most_recent = p;
        }
        let mut best = most_recent;
        for class in 0..counts.len() {
            if counts[class] > counts[best]
                || (counts[class] == counts[best] && last_seen[class] > last_seen[best])
            {
                best = class;
            }
        }
        Some(best)
    }
}

/// Applies majority voting over an ordered prediction stream, resetting
/// nothing: the `i`-th output is the majority over predictions
/// `[max(0, i-window+1) ..= i]`, exactly what a deployed sensor would emit.
pub fn apply_majority(predictions: &[usize], window: usize) -> Vec<usize> {
    let mut voter = MajorityVoter::new(window);
    predictions.iter().map(|&p| voter.push(p)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn single_glitch_is_filtered() {
        let preds = [2, 2, 2, 0, 2, 2, 2];
        let out = apply_majority(&preds, 5);
        // Once the window is warm, the glitch never surfaces.
        assert!(out[3..].iter().all(|&p| p == 2));
    }

    #[test]
    fn persistent_change_is_adopted_after_half_window() {
        let mut preds = vec![1usize; 10];
        preds.extend(vec![3usize; 10]);
        let out = apply_majority(&preds, 5);
        // A perfect classifier's step change surfaces once the window
        // holds a strict majority of new-class frames: window / 2 later.
        let delay = 5 / 2;
        // Before the change: always 1. After change + delay: always 3.
        assert!(out[..10].iter().all(|&p| p == 1));
        assert!(out[10 + delay..].iter().all(|&p| p == 3));
    }

    #[test]
    fn window_of_one_is_identity() {
        let preds = [0, 3, 1, 2, 2, 0];
        assert_eq!(apply_majority(&preds, 1), preds.to_vec());
    }

    #[test]
    fn tie_breaks_towards_most_recent() {
        let mut voter = MajorityVoter::new(4);
        voter.push(1);
        voter.push(1);
        voter.push(2);
        assert_eq!(voter.push(2), 2);
    }

    #[test]
    fn reset_clears_history() {
        let mut voter = MajorityVoter::new(3);
        voter.push(3);
        voter.push(3);
        voter.reset();
        assert!(voter.is_empty());
        assert_eq!(voter.push(0), 0);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_capacity_is_rejected() {
        let _ = MajorityVoter::new(0);
    }

    #[test]
    fn gaps_age_old_votes_out_of_the_window() {
        let mut voter = MajorityVoter::new(3);
        voter.push(1);
        voter.push(1);
        // Two dropped frames advance time: only one vote for class 1 left.
        assert_eq!(voter.push_missing(), Some(1));
        assert_eq!(voter.push_missing(), Some(1));
        assert_eq!(voter.votes(), 1);
        // One fresh vote now outweighs the aged-out majority.
        assert_eq!(voter.push(2), 2);
    }

    #[test]
    fn gap_tie_break_is_deterministic_towards_most_recent() {
        // Window [1, gap, 2, gap]: one vote each; class 2 is more recent.
        let mut voter = MajorityVoter::new(4);
        voter.push(1);
        voter.push_missing();
        voter.push(2);
        assert_eq!(voter.push_missing(), Some(2));
        // Re-running the identical sequence gives the identical answer.
        let mut again = MajorityVoter::new(4);
        again.push(1);
        again.push_missing();
        again.push(2);
        assert_eq!(again.push_missing(), Some(2));
    }

    #[test]
    fn window_of_one_with_missing_frames() {
        let mut voter = MajorityVoter::new(1);
        assert_eq!(voter.push(3), 3);
        // The single slot is now a gap: no vote survives.
        assert_eq!(voter.push_missing(), None);
        assert_eq!(voter.push(0), 0);
    }

    #[test]
    fn all_missing_window_has_no_majority() {
        let mut voter = MajorityVoter::new(3);
        assert_eq!(voter.push_missing(), None);
        assert_eq!(voter.push_missing(), None);
        assert_eq!(voter.push_missing(), None);
        assert_eq!(voter.current_opt(), None);
        assert_eq!(voter.votes(), 0);
        assert_eq!(voter.len(), 3, "gaps still occupy slots");
        // Recovery: the first real vote wins immediately.
        assert_eq!(voter.push(2), 2);
    }

    #[test]
    #[should_panic(expected = "no predictions")]
    fn current_panics_on_vote_free_window() {
        let mut voter = MajorityVoter::new(2);
        voter.push_missing();
        let _ = voter.current();
    }

    #[test]
    fn improves_accuracy_on_noisy_stable_stream() {
        // Ground truth: 40 frames of class 2; classifier is wrong on every
        // 5th frame. Majority voting should fix all errors after warm-up.
        let truth = vec![2usize; 40];
        let noisy: Vec<usize> = (0..40).map(|i| if i % 5 == 4 { 0 } else { 2 }).collect();
        let smoothed = apply_majority(&noisy, 5);
        let raw_errors = noisy.iter().zip(&truth).filter(|(a, b)| a != b).count();
        let smoothed_errors = smoothed.iter().zip(&truth).filter(|(a, b)| a != b).count();
        assert!(smoothed_errors < raw_errors);
        assert_eq!(smoothed_errors, 0);
    }

    proptest! {
        #[test]
        fn output_class_is_always_present_in_window(
            preds in proptest::collection::vec(0usize..4, 1..100),
            window in 1usize..9,
        ) {
            let out = apply_majority(&preds, window);
            prop_assert_eq!(out.len(), preds.len());
            for (i, &o) in out.iter().enumerate() {
                let start = i.saturating_sub(window - 1);
                prop_assert!(preds[start..=i].contains(&o),
                    "output {} not in window {:?}", o, &preds[start..=i]);
            }
        }

        #[test]
        fn constant_stream_is_unchanged(class in 0usize..4, len in 1usize..50, window in 1usize..9) {
            let preds = vec![class; len];
            prop_assert_eq!(apply_majority(&preds, window), preds);
        }
    }
}
