//! Deterministic fault injection over an IR frame stream.
//!
//! A [`FaultPlan`] is a pure, seeded transform: given the same seed,
//! configuration and clean frame tensor it always produces the same
//! [`FaultyStream`], regardless of thread count or call site — the same
//! reproducibility discipline as the rest of the flow (per-decision
//! `SplitMix64` streams derived from one root seed). Every fault class
//! draws from its own per-frame stream, so enabling one class never
//! shifts the random decisions of another.

use pcount_tensor::{SplitMix64, Tensor};

/// The multiplier of the per-frame stream derivation (the same golden
///-ratio constant the flow's `derive_seed` uses).
const STREAM_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// The fault classes the injector can apply to a stream.
///
/// The discriminant order matches
/// [`pcount_telemetry::slo::FAULT_CLASS_COUNTERS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// The frame never arrives (sensor dropped it).
    Drop,
    /// The frame arrives twice (sensor/link re-delivery).
    Duplicate,
    /// A handful of pixels read a dead constant.
    StuckPixels,
    /// A burst of pixels clips at the sensor's saturation level.
    Saturation,
    /// Additive wide-band noise over the whole frame.
    NoiseBurst,
    /// The frame's timestamp jitters off the nominal clock grid.
    ClockJitter,
    /// The simulated core stalls: the inference exceeds a reduced
    /// instruction budget and times out (transiently).
    Stall,
}

impl FaultClass {
    /// Every class, in discriminant order.
    pub const ALL: [FaultClass; 7] = [
        FaultClass::Drop,
        FaultClass::Duplicate,
        FaultClass::StuckPixels,
        FaultClass::Saturation,
        FaultClass::NoiseBurst,
        FaultClass::ClockJitter,
        FaultClass::Stall,
    ];

    /// Stable lowercase name (JSON keys, counter names).
    pub fn name(self) -> &'static str {
        match self {
            FaultClass::Drop => "drop",
            FaultClass::Duplicate => "duplicate",
            FaultClass::StuckPixels => "stuck_pixels",
            FaultClass::Saturation => "saturation",
            FaultClass::NoiseBurst => "noise_burst",
            FaultClass::ClockJitter => "clock_jitter",
            FaultClass::Stall => "stall",
        }
    }

    /// The telemetry counter this class increments per injected event.
    pub fn counter_name(self) -> &'static str {
        pcount_telemetry::slo::FAULT_CLASS_COUNTERS[self.index()]
    }

    /// The class's position in [`FaultClass::ALL`].
    pub fn index(self) -> usize {
        FaultClass::ALL
            .iter()
            .position(|&c| c == self)
            .expect("class in ALL")
    }
}

/// Per-class fault rates and magnitudes of a [`FaultPlan`].
///
/// Rates are per-frame probabilities in `[0, 1]`; magnitudes have units
/// noted per field. [`FaultConfig::off`] disables everything;
/// [`FaultConfig::uniform`] scales all classes from one intensity knob
/// (the axis `evaluate_robustness` sweeps).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Probability a frame is dropped.
    pub drop_rate: f64,
    /// Probability a frame is delivered twice.
    pub duplicate_rate: f64,
    /// Probability a frame carries stuck/dead pixels.
    pub stuck_rate: f64,
    /// Probability a frame carries a saturation burst.
    pub saturation_rate: f64,
    /// Probability a frame carries an additive noise burst.
    pub noise_rate: f64,
    /// Probability a frame's timestamp jitters.
    pub jitter_rate: f64,
    /// Probability a frame's inference stalls on the core.
    pub stall_rate: f64,
    /// Pixels frozen per stuck-pixel event.
    pub stuck_pixels: usize,
    /// Value saturated pixels clip to (normalised frame units; people
    /// blobs peak around 3).
    pub saturation_level: f32,
    /// Standard deviation of the additive noise (normalised units).
    pub noise_sigma: f32,
    /// Maximum timestamp jitter magnitude, in milliseconds.
    pub jitter_ms: u32,
    /// Instruction budget while a stall is active — far below a healthy
    /// inference, so stalled attempts end in `SimError::Timeout`.
    pub stall_budget: u64,
    /// Maximum number of consecutive attempts a stall persists for (the
    /// actual persistence of each event is drawn in `1..=max`).
    pub stall_persistence_max: u32,
}

impl FaultConfig {
    /// No faults at all: the injected stream is the clean stream.
    pub fn off() -> Self {
        Self {
            drop_rate: 0.0,
            duplicate_rate: 0.0,
            stuck_rate: 0.0,
            saturation_rate: 0.0,
            noise_rate: 0.0,
            jitter_rate: 0.0,
            stall_rate: 0.0,
            ..Self::uniform(0.0)
        }
    }

    /// All classes scaled from one `intensity` knob in `[0, 1]`: each
    /// class rate is `intensity` times a fixed per-class weight, with the
    /// default magnitudes. `uniform(0.0)` equals [`FaultConfig::off`].
    pub fn uniform(intensity: f64) -> Self {
        Self {
            drop_rate: 0.5 * intensity,
            duplicate_rate: 0.3 * intensity,
            stuck_rate: 0.4 * intensity,
            saturation_rate: 0.3 * intensity,
            noise_rate: 0.6 * intensity,
            jitter_rate: 0.8 * intensity,
            stall_rate: 0.4 * intensity,
            stuck_pixels: 6,
            saturation_level: 4.0,
            noise_sigma: 0.8,
            jitter_ms: 40,
            stall_budget: 20_000,
            stall_persistence_max: 2,
        }
    }

    /// The per-frame rate of `class`.
    pub fn rate(&self, class: FaultClass) -> f64 {
        match class {
            FaultClass::Drop => self.drop_rate,
            FaultClass::Duplicate => self.duplicate_rate,
            FaultClass::StuckPixels => self.stuck_rate,
            FaultClass::Saturation => self.saturation_rate,
            FaultClass::NoiseBurst => self.noise_rate,
            FaultClass::ClockJitter => self.jitter_rate,
            FaultClass::Stall => self.stall_rate,
        }
    }
}

/// An injected transient core stall attached to a tick: attempts made
/// while the stall persists run under the reduced [`StallFault::budget`]
/// and time out; the stall clears after [`StallFault::persistence`]
/// attempts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallFault {
    /// Instruction budget of a stalled attempt.
    pub budget: u64,
    /// Number of attempts the stall outlasts (1 = only the first attempt
    /// stalls; a retry then succeeds).
    pub persistence: u32,
}

/// One delivery slot of a faulty stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Tick {
    /// Index of the clean source frame this tick was derived from.
    pub source_index: usize,
    /// Delivery timestamp in milliseconds (nominal grid plus any jitter).
    pub timestamp_ms: i64,
    /// The (possibly corrupted) frame data, or `None` for a dropped
    /// frame.
    pub frame: Option<Vec<f32>>,
    /// Injected core stall, if any.
    pub stall: Option<StallFault>,
    /// The fault classes applied to this tick (empty = clean delivery).
    pub faults: Vec<FaultClass>,
}

impl Tick {
    /// `true` when no fault touched this tick.
    pub fn is_clean(&self) -> bool {
        self.faults.is_empty()
    }
}

/// The result of injecting a [`FaultPlan`] into a clean frame stream.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultyStream {
    /// Delivery slots in temporal order. Drops keep their slot (with no
    /// data); duplicates add a slot.
    pub ticks: Vec<Tick>,
    /// Nominal frame period of the stream, in milliseconds.
    pub frame_period_ms: u32,
}

impl FaultyStream {
    /// Fraction of ticks touched by at least one fault.
    pub fn fault_rate(&self) -> f64 {
        if self.ticks.is_empty() {
            return 0.0;
        }
        let faulted = self.ticks.iter().filter(|t| !t.is_clean()).count();
        faulted as f64 / self.ticks.len() as f64
    }

    /// Per-class injected event counts, in [`FaultClass::ALL`] order.
    pub fn fault_counts(&self) -> [u64; 7] {
        let mut counts = [0u64; 7];
        for tick in &self.ticks {
            for &class in &tick.faults {
                counts[class.index()] += 1;
            }
        }
        counts
    }
}

/// A seeded, pure fault-injection plan over an IR frame stream.
///
/// Determinism guarantee: `inject` is a function of `(seed, config,
/// frames)` alone. Each `(frame, class)` pair draws from its own derived
/// `SplitMix64` stream, so the decision for one frame or class never
/// perturbs any other — the injection is reproducible at any thread
/// count and composable with the flow's seed discipline.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    cfg: FaultConfig,
}

impl FaultPlan {
    /// A plan applying `cfg` with randomness derived from `seed`.
    pub fn new(seed: u64, cfg: FaultConfig) -> Self {
        Self { seed, cfg }
    }

    /// The plan's configuration.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// The plan's root seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The independent random stream of `(frame, class)`.
    fn stream(&self, frame: usize, class: FaultClass) -> SplitMix64 {
        SplitMix64::new(
            self.seed
                ^ (frame as u64 + 1).wrapping_mul(STREAM_MUL)
                ^ (class.index() as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03),
        )
    }

    /// Whether `class` fires on `frame`; on `true` the stream is left
    /// positioned after the trigger draw, ready for magnitude draws.
    fn fires(&self, frame: usize, class: FaultClass) -> Option<SplitMix64> {
        let rate = self.cfg.rate(class);
        if rate <= 0.0 {
            return None;
        }
        let mut rng = self.stream(frame, class);
        if (rng.next_f32() as f64) < rate {
            Some(rng)
        } else {
            None
        }
    }

    /// Applies the plan to a clean `[N, 1, H, W]` frame tensor at the
    /// default 10 FPS (100 ms frame period).
    pub fn inject(&self, frames: &Tensor) -> FaultyStream {
        self.inject_with_period(frames, 100)
    }

    /// [`FaultPlan::inject`] with an explicit nominal frame period.
    pub fn inject_with_period(&self, frames: &Tensor, frame_period_ms: u32) -> FaultyStream {
        let n = frames.shape()[0];
        let pixels: usize = frames.shape()[1..].iter().product();
        let mut ticks = Vec::with_capacity(n);
        for i in 0..n {
            let source = &frames.data()[i * pixels..(i + 1) * pixels];
            let mut faults = Vec::new();
            let mut timestamp_ms = i as i64 * frame_period_ms as i64;
            if let Some(mut rng) = self.fires(i, FaultClass::ClockJitter) {
                faults.push(FaultClass::ClockJitter);
                let span = 2 * self.cfg.jitter_ms as i64 + 1;
                timestamp_ms += (rng.next_u64() % span as u64) as i64 - self.cfg.jitter_ms as i64;
            }
            if self.fires(i, FaultClass::Drop).is_some() {
                faults.push(FaultClass::Drop);
                ticks.push(Tick {
                    source_index: i,
                    timestamp_ms,
                    frame: None,
                    stall: None,
                    faults,
                });
                continue;
            }
            let mut data = source.to_vec();
            if let Some(mut rng) = self.fires(i, FaultClass::StuckPixels) {
                faults.push(FaultClass::StuckPixels);
                for _ in 0..self.cfg.stuck_pixels.min(pixels) {
                    let p = (rng.next_u64() % pixels as u64) as usize;
                    data[p] = 0.0;
                }
            }
            if let Some(mut rng) = self.fires(i, FaultClass::Saturation) {
                faults.push(FaultClass::Saturation);
                // A contiguous burst of hot pixels, as a blinding heat
                // source sweeping the array would produce.
                let len = 1 + (rng.next_u64() % (pixels as u64 / 2).max(1)) as usize;
                let start = (rng.next_u64() % pixels as u64) as usize;
                for k in 0..len {
                    data[(start + k) % pixels] = self.cfg.saturation_level;
                }
            }
            if let Some(mut rng) = self.fires(i, FaultClass::NoiseBurst) {
                faults.push(FaultClass::NoiseBurst);
                for v in data.iter_mut() {
                    *v += rng.next_normal() * self.cfg.noise_sigma;
                }
            }
            let stall = self.fires(i, FaultClass::Stall).map(|mut rng| {
                faults.push(FaultClass::Stall);
                StallFault {
                    budget: self.cfg.stall_budget,
                    persistence: 1
                        + (rng.next_u64() % self.cfg.stall_persistence_max.max(1) as u64) as u32,
                }
            });
            let duplicate = self.fires(i, FaultClass::Duplicate).is_some();
            ticks.push(Tick {
                source_index: i,
                timestamp_ms,
                frame: Some(data.clone()),
                stall,
                faults: faults.clone(),
            });
            if duplicate {
                // The re-delivered copy is its own tick, half a period
                // later, and carries the Duplicate marker (the original
                // delivery above does not).
                ticks.push(Tick {
                    source_index: i,
                    timestamp_ms: timestamp_ms + frame_period_ms as i64 / 2,
                    frame: Some(data),
                    stall: None,
                    faults: vec![FaultClass::Duplicate],
                });
            }
        }
        FaultyStream {
            ticks,
            frame_period_ms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frames(n: usize) -> Tensor {
        let mut data = Vec::with_capacity(n * 64);
        for i in 0..n {
            for p in 0..64 {
                data.push(((i * 64 + p) % 7) as f32 * 0.3 - 0.9);
            }
        }
        Tensor::from_vec(data, &[n, 1, 8, 8])
    }

    #[test]
    fn off_plan_is_the_identity_transform() {
        let x = frames(12);
        let stream = FaultPlan::new(42, FaultConfig::off()).inject(&x);
        assert_eq!(stream.ticks.len(), 12);
        assert_eq!(stream.fault_rate(), 0.0);
        for (i, tick) in stream.ticks.iter().enumerate() {
            assert_eq!(tick.source_index, i);
            assert_eq!(tick.timestamp_ms, i as i64 * 100);
            assert_eq!(tick.frame.as_deref(), Some(&x.data()[i * 64..(i + 1) * 64]));
            assert!(tick.stall.is_none());
            assert!(tick.is_clean());
        }
    }

    #[test]
    fn injection_is_bit_reproducible() {
        let x = frames(40);
        let plan = FaultPlan::new(7, FaultConfig::uniform(0.3));
        assert_eq!(plan.inject(&x), plan.inject(&x));
    }

    #[test]
    fn different_seeds_differ() {
        let x = frames(40);
        let cfg = FaultConfig::uniform(0.3);
        let a = FaultPlan::new(1, cfg.clone()).inject(&x);
        let b = FaultPlan::new(2, cfg).inject(&x);
        assert_ne!(a, b);
    }

    #[test]
    fn every_class_fires_at_full_intensity() {
        let x = frames(200);
        let stream = FaultPlan::new(3, FaultConfig::uniform(1.0)).inject(&x);
        let counts = stream.fault_counts();
        for (class, &count) in FaultClass::ALL.iter().zip(counts.iter()) {
            assert!(count > 0, "{} never fired over 200 frames", class.name());
        }
        assert!(stream.fault_rate() > 0.5);
    }

    #[test]
    fn enabling_one_class_does_not_shift_another() {
        // Stall decisions must be identical whether or not drops are
        // enabled: each class draws from its own stream.
        let x = frames(60);
        let mut only_stall = FaultConfig::off();
        only_stall.stall_rate = 0.5;
        let mut both = only_stall.clone();
        both.drop_rate = 0.5;
        let a = FaultPlan::new(9, only_stall).inject(&x);
        let b = FaultPlan::new(9, both).inject(&x);
        for (ta, tb) in a
            .ticks
            .iter()
            .zip(b.ticks.iter().filter(|t| t.frame.is_some()))
        {
            // Among surviving (non-dropped) ticks of the same source
            // frame, the stall decision matches.
            if ta.source_index == tb.source_index {
                assert_eq!(ta.stall, tb.stall, "frame {}", ta.source_index);
            }
        }
    }

    #[test]
    fn drops_keep_their_slot_and_duplicates_add_one() {
        let x = frames(100);
        let mut cfg = FaultConfig::off();
        cfg.drop_rate = 0.3;
        cfg.duplicate_rate = 0.3;
        let stream = FaultPlan::new(5, cfg).inject(&x);
        let counts = stream.fault_counts();
        let drops = counts[FaultClass::Drop.index()];
        let dups = counts[FaultClass::Duplicate.index()];
        assert!(drops > 0 && dups > 0);
        assert_eq!(stream.ticks.len() as u64, 100 + dups);
        let gaps = stream.ticks.iter().filter(|t| t.frame.is_none()).count();
        assert_eq!(gaps as u64, drops);
        // Source indices stay sorted (temporal order survives).
        let sources: Vec<usize> = stream.ticks.iter().map(|t| t.source_index).collect();
        assert!(sources.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn stall_persistence_is_within_the_configured_bound() {
        let x = frames(120);
        let mut cfg = FaultConfig::off();
        cfg.stall_rate = 0.8;
        cfg.stall_persistence_max = 3;
        let stream = FaultPlan::new(11, cfg).inject(&x);
        let stalls: Vec<StallFault> = stream.ticks.iter().filter_map(|t| t.stall).collect();
        assert!(!stalls.is_empty());
        assert!(stalls.iter().all(|s| (1..=3).contains(&s.persistence)));
        assert!(stalls.iter().all(|s| s.budget == 20_000));
    }
}
