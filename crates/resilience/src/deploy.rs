//! Supervised streaming deployment: watchdog, retry/backoff, circuit
//! breaker, graceful degradation and pooled-CPU quarantine.
//!
//! [`ResilientDeployment`] wraps a [`Deployment`] and runs a
//! [`FaultyStream`] end to end without ever aborting: every tick yields a
//! [`FrameOutcome`], faulted inferences are retried under exponential
//! backoff with deterministic jitter, a circuit breaker sheds load after
//! consecutive unrecoverable faults, and unrecoverable ticks degrade to a
//! gap-aware hold-last-good prediction through [`MajorityVoter`] instead
//! of killing the stream.
//!
//! # Determinism
//!
//! The whole supervisor is deterministic and pool-width independent:
//!
//! * The breaker schedule is computed serially from the (deterministic)
//!   fault plan before any inference runs, so which ticks are shed never
//!   depends on execution timing.
//! * Each tick's inference attempts run on a pooled CPU that is restored
//!   from the pristine base before every attempt
//!   ([`pcount_isa::Cpu::restore_from`]), so a tick's result depends only
//!   on its own data — never on which worker ran it or on what faulted
//!   before it.
//! * Backoff jitter is drawn from per-`(tick, attempt)` `SplitMix64`
//!   streams, and the waits are *virtual* (recorded in simulated time,
//!   never slept), so wall clocks never enter any result.
//!
//! With fault injection disabled the per-tick [`InferenceRun`]s are
//! bit-identical to [`Deployment::run_frame`] (asserted by the chaos
//! suite).

use crate::fault::{FaultyStream, StallFault, Tick};
use pcount_isa::Cpu;
use pcount_kernels::{CpuPool, Deployment, InferenceRun, INSTRUCTION_BUDGET};
use pcount_postproc::MajorityVoter;
use pcount_telemetry::slo;
use pcount_telemetry::{ErrorBudget, SloBaseline, SloSnapshot};
use pcount_tensor::SplitMix64;

/// Bounded retry with exponential backoff and deterministic jitter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Maximum retries after the first attempt (total attempts =
    /// `max_retries + 1`).
    pub max_retries: u32,
    /// Backoff before the first retry, in milliseconds.
    pub backoff_base_ms: u32,
    /// Backoff ceiling, in milliseconds.
    pub backoff_max_ms: u32,
    /// Jitter fraction: each wait is scaled by `1 + U[0, jitter_frac)`.
    pub jitter_frac: f32,
}

impl Default for RetryPolicy {
    /// Two retries, 50 ms base doubling to a 400 ms cap, 25% jitter.
    fn default() -> Self {
        Self {
            max_retries: 2,
            backoff_base_ms: 50,
            backoff_max_ms: 400,
            jitter_frac: 0.25,
        }
    }
}

impl RetryPolicy {
    /// Total attempts a tick is allowed (first try + retries).
    pub fn attempts_allowed(&self) -> u32 {
        self.max_retries + 1
    }
}

/// Circuit breaker: trips after a run of consecutive unrecoverable
/// faults, then sheds (skips) ticks for a cooldown window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive unrecoverable ticks that trip the breaker (`0`
    /// disables the breaker).
    pub trip_threshold: u32,
    /// Ticks shed after a trip before the breaker half-opens.
    pub cooldown_ticks: u32,
}

impl Default for BreakerConfig {
    /// Trip after 4 consecutive unrecoverable ticks, shed 8 ticks.
    fn default() -> Self {
        Self {
            trip_threshold: 4,
            cooldown_ticks: 8,
        }
    }
}

/// Configuration of a [`ResilientDeployment`].
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceConfig {
    /// Per-attempt watchdog budget in retired instructions (healthy
    /// attempts run under this; injected stalls reduce it per attempt).
    pub budget: u64,
    /// Retry/backoff policy.
    pub retry: RetryPolicy,
    /// Circuit-breaker policy.
    pub breaker: BreakerConfig,
    /// Majority-voter window of the degradation path.
    pub voter_window: usize,
    /// Error budget the stream is graded against.
    pub error_budget: ErrorBudget,
    /// Simulated core clock (Hz), converting wasted cycles to recovery
    /// latency. MAUPITI runs at 20 MHz.
    pub clock_hz: u64,
    /// Seed of the backoff-jitter streams.
    pub seed: u64,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        Self {
            budget: INSTRUCTION_BUDGET,
            retry: RetryPolicy::default(),
            breaker: BreakerConfig::default(),
            voter_window: 5,
            error_budget: ErrorBudget::default(),
            clock_hz: 20_000_000,
            seed: 0,
        }
    }
}

/// How one tick of a supervised stream ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TickStatus {
    /// First attempt succeeded.
    Ok,
    /// Succeeded after `failed_attempts` faulted attempts.
    Recovered {
        /// Attempts that faulted before the success.
        failed_attempts: u32,
    },
    /// Every attempt faulted; a degraded prediction was emitted.
    Fallback,
    /// The circuit breaker was open; the tick was shed unattempted.
    BreakerOpen,
    /// The frame never arrived (injected drop).
    Gap,
}

/// The supervised result of one stream tick.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameOutcome {
    /// Tick index in the stream.
    pub tick: usize,
    /// Clean source frame this tick derived from.
    pub source_index: usize,
    /// How the tick ended.
    pub status: TickStatus,
    /// The successful inference, when one happened (`Ok`/`Recovered`).
    /// With faults disabled this is bit-identical to
    /// [`Deployment::run_frame`] on the same frame.
    pub run: Option<InferenceRun>,
    /// The prediction emitted downstream: the gap-aware majority vote on
    /// success, the hold-last-good value on degradation.
    pub emitted: usize,
    /// Virtual backoff waited across this tick's retries (ms).
    pub backoff_ms: u64,
}

/// Aggregate recovery statistics of one supervised stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryStats {
    /// Total ticks supervised.
    pub ticks: usize,
    /// Ticks whose first attempt succeeded.
    pub ok_ticks: usize,
    /// Ticks recovered by a retry.
    pub recovered_ticks: usize,
    /// Ticks that exhausted retries and fell back.
    pub fallback_ticks: usize,
    /// Dropped-frame ticks.
    pub gap_ticks: usize,
    /// Ticks shed by the open breaker.
    pub breaker_skips: usize,
    /// Times the breaker tripped.
    pub breaker_trips: usize,
    /// Retry attempts beyond first tries.
    pub retries: u64,
    /// Pooled-CPU resets forced by a faulted attempt.
    pub quarantines: u64,
    /// Total virtual backoff (ms).
    pub total_backoff_ms: u64,
    /// Simulated cycles burned by faulted attempts.
    pub wasted_cycles: u64,
}

impl RecoveryStats {
    /// Ticks that produced no fresh trusted prediction (gap, fallback or
    /// shed) — the frames graded against the error budget.
    pub fn degraded_ticks(&self) -> usize {
        self.gap_ticks + self.fallback_ticks + self.breaker_skips
    }
}

/// The full result of supervising one stream.
#[derive(Debug, Clone)]
pub struct StreamReport {
    /// Per-tick outcomes, in stream order.
    pub outcomes: Vec<FrameOutcome>,
    /// Aggregate recovery statistics.
    pub stats: RecoveryStats,
    /// Error-budget burn of this stream, in milli-units.
    pub error_budget_burn_milli: i64,
    /// The `resilience/*` telemetry window of this run (all zero when
    /// telemetry is disabled).
    pub slo: SloSnapshot,
}

/// What the serial pre-pass decided for a tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Planned {
    /// Dropped frame: nothing to run.
    Gap,
    /// Shed by the open breaker: nothing to run.
    Shed,
    /// Attempt the inference (with the tick's stall, if any).
    Run(Option<StallFault>),
}

/// Raw execution result of one frame's attempt loop, before the serial
/// fold turns it into a [`FrameOutcome`]. `T` is what the successful
/// attempt yields: the whole [`InferenceRun`] from
/// [`ResilientDeployment::attempt_frame`], the predicted class alone from
/// [`ResilientDeployment::attempt_prediction`]. Public so higher layers
/// (the fleet serving simulation) can reuse the supervised attempt loop
/// per admitted frame and do their own folding.
#[derive(Debug, Clone, PartialEq)]
pub struct AttemptOutcome<T = InferenceRun> {
    /// What the successful attempt yielded, if any attempt succeeded.
    pub success: Option<T>,
    /// Attempts that faulted (each forced a pooled-CPU restore).
    pub failed_attempts: u32,
    /// Simulated cycles burned by the faulted attempts.
    pub wasted_cycles: u64,
}

/// A [`Deployment`] wrapped in the resilience supervisor.
#[derive(Debug, Clone)]
pub struct ResilientDeployment {
    inner: Deployment,
    cfg: ResilienceConfig,
}

impl ResilientDeployment {
    /// Wraps `inner` with the supervisor policy `cfg`.
    pub fn new(inner: Deployment, cfg: ResilienceConfig) -> Self {
        Self { inner, cfg }
    }

    /// The wrapped deployment.
    pub fn inner(&self) -> &Deployment {
        &self.inner
    }

    /// The supervisor configuration.
    pub fn config(&self) -> &ResilienceConfig {
        &self.cfg
    }

    /// Supervises `stream` across `pool`, returning one outcome per tick.
    ///
    /// Never aborts: injected drops become gaps, unrecoverable faults
    /// become fallbacks, breaker-shed ticks hold the last good
    /// prediction. Results are bit-identical for every pool width.
    pub fn run_stream(&self, stream: &FaultyStream, pool: &mut CpuPool) -> StreamReport {
        let baseline = SloBaseline::capture();
        let (planned, planned_trips) = self.plan_breaker(&stream.ticks);
        let execs = self.execute(stream, &planned, pool);
        self.fold(stream, &planned, execs, planned_trips, &baseline)
    }

    /// Serial pre-pass: decides which ticks the breaker sheds. Operates
    /// on the *planned* fault schedule (a tick is unrecoverable when its
    /// injected stall outlasts every allowed attempt), so the schedule is
    /// a pure function of the plan and identical for every pool width.
    fn plan_breaker(&self, ticks: &[Tick]) -> (Vec<Planned>, usize) {
        let attempts_allowed = self.cfg.retry.attempts_allowed();
        let threshold = self.cfg.breaker.trip_threshold;
        let mut planned = Vec::with_capacity(ticks.len());
        let mut consecutive = 0u32;
        let mut cooldown = 0u32;
        let mut trips = 0usize;
        for tick in ticks {
            if tick.frame.is_none() {
                // A sensor gap is not a compute fault: it neither trips
                // nor heals the breaker.
                planned.push(Planned::Gap);
                continue;
            }
            if cooldown > 0 {
                cooldown -= 1;
                planned.push(Planned::Shed);
                continue;
            }
            planned.push(Planned::Run(tick.stall));
            let unrecoverable = tick
                .stall
                .is_some_and(|s| s.persistence >= attempts_allowed);
            if unrecoverable {
                consecutive += 1;
                if threshold > 0 && consecutive >= threshold {
                    trips += 1;
                    cooldown = self.cfg.breaker.cooldown_ticks;
                    consecutive = 0;
                }
            } else {
                consecutive = 0;
            }
        }
        (planned, trips)
    }

    /// Parallel phase: runs every scheduled tick's attempt loop across
    /// the pool, in place on the pooled CPUs. Every attempt restores its
    /// CPU from the pristine base, so each result is a pure function of
    /// the tick alone.
    fn execute(
        &self,
        stream: &FaultyStream,
        planned: &[Planned],
        pool: &mut CpuPool,
    ) -> Vec<Option<AttemptOutcome>> {
        pool.map_in_place(stream.ticks.len(), |cpu, base, i| match planned[i] {
            Planned::Gap | Planned::Shed => None,
            Planned::Run(stall) => {
                let frame = stream.ticks[i]
                    .frame
                    .as_deref()
                    .expect("Run ticks carry data");
                Some(self.attempt_frame(cpu, base, frame, stall))
            }
        })
    }

    /// One frame's attempt loop on one pooled CPU, every attempt on the
    /// simulator. The CPU is restored from `base` before *every* attempt
    /// — a faulted attempt leaves a torn memory image and mid-program PC
    /// behind, and even a successful one leaves the CPU halted — so no
    /// architectural state ever leaks between attempts or frames. The
    /// result is a pure function of `(frame, stall)` and the retry
    /// policy: callers may run many of these in parallel on disjoint pool
    /// slots and still fold deterministically.
    pub fn attempt_frame(
        &self,
        cpu: &mut Cpu,
        base: &Cpu,
        frame: &[f32],
        stall: Option<StallFault>,
    ) -> AttemptOutcome {
        self.attempt_loop(stall, |budget| self.simulate(cpu, base, frame, budget))
    }

    /// [`Self::attempt_frame`] for callers that need only the predicted
    /// class, such as the fleet serving layer. An attempt whose watchdog
    /// budget is at least [`INSTRUCTION_BUDGET`] cannot time out (a
    /// healthy inference retires far fewer instructions), so it runs on
    /// the host golden model ([`Deployment::golden_prediction`]), whose
    /// prediction is bit-identical. Only attempts under a smaller budget
    /// run on the simulator, which owns the watchdog and the
    /// wasted-cycle accounting: every stalled attempt, and every attempt
    /// when [`ResilienceConfig::budget`] is set lower. The outcome equals
    /// `attempt_frame`'s with the run reduced to its prediction.
    pub fn attempt_prediction(
        &self,
        cpu: &mut Cpu,
        base: &Cpu,
        frame: &[f32],
        stall: Option<StallFault>,
    ) -> AttemptOutcome<usize> {
        self.attempt_loop(stall, |budget| {
            if budget >= INSTRUCTION_BUDGET {
                Ok(self.inner.golden_prediction(frame))
            } else {
                self.simulate(cpu, base, frame, budget)
                    .map(|run| run.prediction)
            }
        })
    }

    /// The attempt loop both routes share. Attempts run under the
    /// stall's reduced budget while the stall persists and under the
    /// configured budget after, until one succeeds or the retry policy
    /// is exhausted. `attempt(budget)` runs one attempt and returns what
    /// it yielded, or the cycles it burned before faulting.
    fn attempt_loop<T>(
        &self,
        stall: Option<StallFault>,
        mut attempt: impl FnMut(u64) -> Result<T, u64>,
    ) -> AttemptOutcome<T> {
        let mut failed_attempts = 0u32;
        let mut wasted_cycles = 0u64;
        for k in 0..self.cfg.retry.attempts_allowed() {
            let budget = match stall {
                Some(s) if k < s.persistence => s.budget.min(self.cfg.budget),
                _ => self.cfg.budget,
            };
            match attempt(budget) {
                Ok(success) => {
                    return AttemptOutcome {
                        success: Some(success),
                        failed_attempts,
                        wasted_cycles,
                    };
                }
                Err(cycles) => {
                    failed_attempts += 1;
                    wasted_cycles += cycles;
                }
            }
        }
        AttemptOutcome {
            success: None,
            failed_attempts,
            wasted_cycles,
        }
    }

    /// One simulated attempt: restores `cpu` from `base`, then runs
    /// `frame` under a watchdog of `budget` instructions. A fault
    /// returns the cycles the attempt burned.
    fn simulate(
        &self,
        cpu: &mut Cpu,
        base: &Cpu,
        frame: &[f32],
        budget: u64,
    ) -> Result<InferenceRun, u64> {
        cpu.restore_from(base);
        let before = cpu.cycles;
        self.inner
            .run_frame_with_budget(cpu, frame, budget)
            .map_err(|_| cpu.cycles.wrapping_sub(before))
    }

    /// Serial post-pass: folds raw executions into outcomes through the
    /// gap-aware voter, computes backoff/recovery accounting and records
    /// the SLO telemetry.
    fn fold(
        &self,
        stream: &FaultyStream,
        planned: &[Planned],
        execs: Vec<Option<AttemptOutcome>>,
        planned_trips: usize,
        baseline: &SloBaseline,
    ) -> StreamReport {
        let mut voter = MajorityVoter::new(self.cfg.voter_window.max(1));
        let mut last_good: Option<usize> = None;
        let mut stats = RecoveryStats {
            ticks: stream.ticks.len(),
            breaker_trips: planned_trips,
            ..Default::default()
        };
        let mut outcomes = Vec::with_capacity(stream.ticks.len());
        for (i, (tick, exec)) in stream.ticks.iter().zip(execs).enumerate() {
            for &class in &tick.faults {
                pcount_telemetry::counter(class.counter_name()).add(1);
            }
            let held = |voter: &mut MajorityVoter, last_good: Option<usize>| {
                voter.push_missing().or(last_good).unwrap_or(0)
            };
            let (status, run, emitted, backoff_ms) = match planned[i] {
                Planned::Gap => {
                    stats.gap_ticks += 1;
                    (TickStatus::Gap, None, held(&mut voter, last_good), 0)
                }
                Planned::Shed => {
                    stats.breaker_skips += 1;
                    pcount_telemetry::counter(slo::BREAKER_SKIPS).add(1);
                    (
                        TickStatus::BreakerOpen,
                        None,
                        held(&mut voter, last_good),
                        0,
                    )
                }
                Planned::Run(_) => {
                    let exec = exec.expect("Run ticks executed");
                    let retries = exec.failed_attempts.min(self.cfg.retry.max_retries);
                    let backoff_ms = self.total_backoff_ms(i, retries);
                    stats.retries += retries as u64;
                    stats.quarantines += exec.failed_attempts as u64;
                    stats.total_backoff_ms += backoff_ms;
                    stats.wasted_cycles += exec.wasted_cycles;
                    if retries > 0 {
                        pcount_telemetry::counter(slo::RETRIES).add(retries as u64);
                    }
                    if exec.failed_attempts > 0 {
                        pcount_telemetry::counter(slo::QUARANTINES)
                            .add(exec.failed_attempts as u64);
                        let recovery_ns = exec.wasted_cycles.saturating_mul(1_000_000_000)
                            / self.cfg.clock_hz.max(1)
                            + backoff_ms * 1_000_000;
                        pcount_telemetry::histogram(slo::RECOVERY_LATENCY).record(recovery_ns);
                    }
                    match exec.success {
                        Some(run) => {
                            let emitted = voter.push(run.prediction);
                            last_good = Some(emitted);
                            if exec.failed_attempts == 0 {
                                stats.ok_ticks += 1;
                                (TickStatus::Ok, Some(run), emitted, backoff_ms)
                            } else {
                                stats.recovered_ticks += 1;
                                (
                                    TickStatus::Recovered {
                                        failed_attempts: exec.failed_attempts,
                                    },
                                    Some(run),
                                    emitted,
                                    backoff_ms,
                                )
                            }
                        }
                        None => {
                            stats.fallback_ticks += 1;
                            pcount_telemetry::counter(slo::FALLBACK_FRAMES).add(1);
                            (
                                TickStatus::Fallback,
                                None,
                                held(&mut voter, last_good),
                                backoff_ms,
                            )
                        }
                    }
                }
            };
            outcomes.push(FrameOutcome {
                tick: i,
                source_index: tick.source_index,
                status,
                run,
                emitted,
                backoff_ms,
            });
        }
        if planned_trips > 0 {
            pcount_telemetry::counter(slo::BREAKER_TRIPS).add(planned_trips as u64);
        }
        let burn = self
            .cfg
            .error_budget
            .burn_milli(stats.degraded_ticks() as u64, stats.ticks as u64);
        pcount_telemetry::gauge(slo::ERROR_BUDGET_BURN).set(burn);
        StreamReport {
            outcomes,
            stats,
            error_budget_burn_milli: burn,
            slo: SloSnapshot::capture_since(baseline),
        }
    }

    /// Total virtual backoff of `retries` retry waits on tick `i`:
    /// exponential from the base, capped, with deterministic per-attempt
    /// jitter — recorded in simulated time, never slept. Public so the
    /// fleet layer can charge the same deterministic backoff to frames it
    /// retried through [`Self::attempt_prediction`].
    pub fn total_backoff_ms(&self, tick: usize, retries: u32) -> u64 {
        let policy = &self.cfg.retry;
        let mut total = 0u64;
        for attempt in 1..=retries {
            let exp = policy
                .backoff_base_ms
                .saturating_mul(1u32.checked_shl(attempt - 1).unwrap_or(u32::MAX))
                .min(policy.backoff_max_ms) as f64;
            let mut rng = SplitMix64::new(
                self.cfg.seed
                    ^ (tick as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    ^ (attempt as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9),
            );
            let jitter = 1.0 + policy.jitter_frac as f64 * rng.next_f32() as f64;
            total += (exp * jitter).round() as u64;
        }
        total
    }
}
