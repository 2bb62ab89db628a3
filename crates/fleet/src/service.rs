//! The sharded fusion service: virtual-time message scheduling, admission
//! control, bounded queues with backpressure, SLO-driven node quarantine,
//! shard crash/failover with checkpointed recovery and per-room occupancy
//! fusion.
//!
//! # Determinism
//!
//! The whole fleet run follows the serial-plan → parallel-execute →
//! serial-fold pattern of `pcount-resilience`:
//!
//! 1. **Plan (serial).** Every node's messages are merged into one global
//!    virtual-time order `(arrival_ns, node, seq)` and interleaved with
//!    the failover timeline (periodic checkpoints, planned shard crashes
//!    and restarts); each shard's bounded queue, batch server, admission
//!    control, backpressure hysteresis and adaptive watermarks are
//!    simulated against a *nominal* per-frame service cost — so which
//!    frames are shed, downsampled, re-routed, lost in a crash or batched
//!    is a pure function of the fleet seed and the config, never of
//!    execution.
//! 2. **Execute (parallel).** Admitted frames' retry loops
//!    ([`ResilientDeployment::attempt_prediction`]) run across the
//!    [`CpuPool`]. The fold reads only each frame's prediction, failed
//!    attempts and wasted cycles, so that is all the loop yields. An
//!    attempt at the full watchdog budget
//!    ([`INSTRUCTION_BUDGET`](pcount_kernels::INSTRUCTION_BUDGET))
//!    cannot time out, so it runs on the host golden model
//!    ([`Deployment::golden_prediction`]), whose prediction is
//!    bit-identical to the simulator's: every stall-free frame, and the
//!    last attempt of a stalled one. Only attempts under a smaller
//!    budget run on the simulator, each on a CPU restored from the
//!    pristine base: the attempts an injected stall cuts short, and
//!    every attempt when [`ResilienceConfig::budget`] is set lower.
//!    Every result is a pure per-frame function, identical to running
//!    every attempt on the simulator.
//! 3. **Fold (serial).** Outcomes are replayed in arrival order through
//!    the same failover timeline (every node's estimator recorded at a
//!    checkpoint, crashed shards' nodes rolled back to it with
//!    hold-last-good covering the gap) and per-node health windows
//!    (quarantine/readmission with hysteresis) and per-room fusion,
//!    producing the occupancy trajectory, latency and recovery-time
//!    distributions and SLO accounting.
//!
//! Consequently a [`FleetReport`] is bit-identical for every pool width
//! (asserted by the crate's determinism suite and the serve bench
//! tripwire), crashes included.

use std::collections::VecDeque;
use std::fmt;

use crate::failover::{
    failover_timeline, plan_crashes, AdaptiveAdmission, AdaptiveConfig, CrashConfig, CrashEvent,
    CrashPolicy, FailoverEvent, Posture, RouteTable,
};
use crate::msg::{Delivery, DeliveryStatus, FrameMsg};
use crate::node::SensorNode;
use crate::report::{
    CrashReport, FleetReport, NodeReport, OccupancyChange, OccupancyTrajectory, ServeTotals,
    ShardReport,
};
use pcount_dataset::{IrDataset, GRID_SIZE};
use pcount_kernels::{CpuPool, Deployment, SimError};
use pcount_postproc::MajorityVoter;
use pcount_resilience::{AttemptOutcome, ResilienceConfig, ResilientDeployment, StallFault};
use pcount_telemetry::slo;
use pcount_telemetry::{ErrorBudget, HistogramCounts, SloSnapshot};

/// A time-windowed fault storm: a subset of nodes runs at a (usually much
/// higher) fault intensity for the middle stretch of the run.
#[derive(Debug, Clone, PartialEq)]
pub struct StormConfig {
    /// Fault intensity inside the storm window (the fleet's baseline
    /// [`FleetConfig::fault_intensity`] applies outside it).
    pub intensity: f64,
    /// Every `node_stride`-th node is storm-affected (`1` = the whole
    /// fleet).
    pub node_stride: usize,
    /// Storm window as fractions of each affected node's frame count:
    /// frames in `[window.0 * n, window.1 * n)` are injected at the storm
    /// intensity.
    pub window: (f64, f64),
}

impl StormConfig {
    /// Whether `node` is inside the storm's blast radius.
    pub fn affects(&self, node: usize) -> bool {
        node.is_multiple_of(self.node_stride.max(1))
    }
}

impl Default for StormConfig {
    /// A heavy storm over a third of the fleet for the middle half of the
    /// run.
    fn default() -> Self {
        Self {
            intensity: 0.6,
            node_stride: 3,
            window: (0.25, 0.75),
        }
    }
}

/// Why a [`FleetConfig`] was rejected by [`FleetConfig::validated`]. Each
/// variant names the offending knobs so a misconfigured fleet fails with
/// an actionable error instead of a bare assertion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfigError {
    /// `nodes == 0`.
    NoNodes,
    /// `rooms` outside `1..=nodes`.
    BadRooms {
        /// Configured room count.
        rooms: usize,
        /// Configured node count.
        nodes: usize,
    },
    /// `shards` outside `1..=rooms`.
    BadShards {
        /// Configured shard count.
        shards: usize,
        /// Configured room count.
        rooms: usize,
    },
    /// `frames_per_node == 0`.
    NoFrames,
    /// `queue_cap == 0`.
    ZeroQueueCap,
    /// Watermarks violate `low < high <= cap`.
    BadWatermarks {
        /// Configured low watermark.
        low: usize,
        /// Configured high watermark.
        high: usize,
        /// Configured queue capacity.
        cap: usize,
    },
    /// `health_window == 0`.
    ZeroHealthWindow,
    /// `readmit_after == 0`.
    ZeroReadmitStreak,
    /// `service_clock_hz == 0`.
    ZeroServiceClock,
    /// `checkpoint_period_ms == 0`.
    ZeroCheckpointPeriod,
    /// Crash window violates `0 <= start < end`.
    BadCrashWindow {
        /// Configured crash instant (fraction of the run span).
        start: f64,
        /// Configured restart instant (fraction of the run span).
        end: f64,
    },
    /// Crash jitter is negative or not finite.
    BadCrashJitter,
    /// Adaptive evaluation window is zero.
    BadAdaptiveWindow,
    /// Adaptive `watermark_step == 0` (the controller could never move).
    ZeroAdaptiveStep,
    /// Adaptive thresholds violate `relax < tighten` (no hysteresis gap).
    BadAdaptiveThresholds {
        /// Configured relax threshold (milli-units).
        relax: i64,
        /// Configured tighten threshold (milli-units).
        tighten: i64,
    },
    /// Adaptive watermark floor is zero or above the configured high
    /// watermark.
    BadAdaptiveWatermarkFloor {
        /// Configured floor.
        floor: usize,
        /// Configured high watermark.
        high: usize,
    },
    /// Adaptive `max_downsample_stride < 2` (below the static stride).
    BadAdaptiveStride {
        /// Configured stride ceiling.
        max: u32,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NoNodes => write!(f, "fleet needs at least one node"),
            ConfigError::BadRooms { rooms, nodes } => {
                write!(
                    f,
                    "rooms must be in 1..=nodes ({rooms} rooms, {nodes} nodes)"
                )
            }
            ConfigError::BadShards { shards, rooms } => {
                write!(
                    f,
                    "shards must be in 1..=rooms ({shards} shards, {rooms} rooms)"
                )
            }
            ConfigError::NoFrames => write!(f, "nodes need at least one frame"),
            ConfigError::ZeroQueueCap => write!(f, "queue capacity must be positive"),
            ConfigError::BadWatermarks { low, high, cap } => write!(
                f,
                "watermarks must satisfy low < high <= cap (low {low}, high {high}, cap {cap})"
            ),
            ConfigError::ZeroHealthWindow => write!(f, "health window must be positive"),
            ConfigError::ZeroReadmitStreak => write!(f, "readmission streak must be positive"),
            ConfigError::ZeroServiceClock => write!(f, "service clock must be positive"),
            ConfigError::ZeroCheckpointPeriod => {
                write!(f, "checkpoint period must be positive")
            }
            ConfigError::BadCrashWindow { start, end } => write!(
                f,
                "crash window must satisfy 0 <= start < end (start {start}, end {end})"
            ),
            ConfigError::BadCrashJitter => {
                write!(f, "crash jitter must be finite and non-negative")
            }
            ConfigError::BadAdaptiveWindow => {
                write!(f, "adaptive evaluation window must be positive")
            }
            ConfigError::ZeroAdaptiveStep => {
                write!(f, "adaptive watermark step must be positive")
            }
            ConfigError::BadAdaptiveThresholds { relax, tighten } => write!(
                f,
                "adaptive thresholds need a hysteresis gap: relax < tighten \
                 (relax {relax}, tighten {tighten})"
            ),
            ConfigError::BadAdaptiveWatermarkFloor { floor, high } => write!(
                f,
                "adaptive watermark floor must be in 1..=high_watermark \
                 (floor {floor}, high {high})"
            ),
            ConfigError::BadAdaptiveStride { max } => {
                write!(f, "adaptive max downsample stride must be >= 2 (got {max})")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Why [`FleetService::new`] could not provision a fleet.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetError {
    /// The configuration is inconsistent.
    Config(ConfigError),
    /// The deployment could not run the probe frame that measures the
    /// nominal per-frame service cost.
    Probe(SimError),
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::Config(e) => write!(f, "invalid fleet config: {e}"),
            FleetError::Probe(e) => write!(f, "probe inference failed: {e}"),
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetError::Config(e) => Some(e),
            FleetError::Probe(e) => Some(e),
        }
    }
}

/// Configuration of a [`FleetService`] co-simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Number of simulated sensor nodes.
    pub nodes: usize,
    /// Number of rooms; node `i` reports into room `i % rooms`.
    pub rooms: usize,
    /// Number of service shards; room `r` is *homed* on shard
    /// `r % shards` (a crash may migrate it to a failover shard until
    /// the home restarts), so a room never splits across shards.
    pub shards: usize,
    /// Frames in each node's (wrapping) session window.
    pub frames_per_node: usize,
    /// Nominal sensor frame period, in milliseconds (the paper's stream
    /// is 10 FPS = 100 ms).
    pub frame_period_ms: u32,
    /// Baseline fault intensity of every node's [`FaultPlan`]
    /// (`FaultConfig::uniform` knob).
    ///
    /// [`FaultPlan`]: pcount_resilience::FaultPlan
    /// [`FaultConfig::uniform`]: pcount_resilience::FaultConfig::uniform
    pub fault_intensity: f64,
    /// Optional time-windowed fault storm on top of the baseline chaos.
    pub storm: Option<StormConfig>,
    /// Optional deterministic shard-crash/restart schedule (the
    /// shard-level sibling of [`storm`](Self::storm)).
    pub crash: Option<CrashConfig>,
    /// Virtual period of the shard checkpoints a restarting shard
    /// recovers from, in milliseconds. Only exercised when a crash
    /// schedule is configured.
    pub checkpoint_period_ms: u64,
    /// Optional burn-driven adaptive admission: effective watermarks and
    /// downsample stride derived from the error-budget burn of each
    /// shard's recent admission outcomes. `None` keeps the static knobs.
    pub adaptive: Option<AdaptiveConfig>,
    /// Maximum per-node constant clock skew (± milliseconds), drawn from
    /// the fleet seed.
    pub clock_skew_max_ms: u32,
    /// Bounded per-shard queue capacity; arrivals beyond it are shed.
    pub queue_cap: usize,
    /// Maximum frames the shard server batches per dispatch.
    pub batch_max: usize,
    /// Fixed virtual cost of dispatching one batch, in nanoseconds.
    pub batch_overhead_ns: u64,
    /// Queue depth at or above which the shard throttles its nodes
    /// (backpressure: throttled nodes downsample at the source). The
    /// *static* knob — adaptive admission tightens from here.
    pub high_watermark: usize,
    /// Queue depth at or below which the shard releases the throttle.
    pub low_watermark: usize,
    /// Clock of the shard's inference server, in Hz, converting the
    /// deployment's per-frame cycles into virtual service time.
    pub service_clock_hz: u64,
    /// Sliding window (node-caused outcomes) of the sick-node detector.
    pub health_window: usize,
    /// Error-budget burn (milli-units over the window snapshot) at or
    /// above which a node is quarantined.
    pub quarantine_burn_milli: i64,
    /// Consecutive clean outcomes a quarantined node needs before
    /// readmission (the hysteresis that stops flapping).
    pub readmit_after: u32,
    /// Per-frame supervision policy (retries, backoff, budgets) and the
    /// error budget nodes are graded against.
    pub resilience: ResilienceConfig,
    /// Root seed: all per-node chaos, phases, skews and the crash
    /// schedule derive from it.
    pub seed: u64,
}

impl Default for FleetConfig {
    /// A 240-node / 24-room / 4-shard building at 10 FPS with mild
    /// baseline chaos, no crashes and static admission.
    fn default() -> Self {
        Self {
            nodes: 240,
            rooms: 24,
            shards: 4,
            frames_per_node: 24,
            frame_period_ms: 100,
            fault_intensity: 0.08,
            storm: None,
            crash: None,
            checkpoint_period_ms: 400,
            adaptive: None,
            clock_skew_max_ms: 150,
            queue_cap: 64,
            batch_max: 8,
            batch_overhead_ns: 200_000,
            high_watermark: 48,
            low_watermark: 16,
            service_clock_hz: 400_000_000,
            health_window: 8,
            quarantine_burn_milli: 7_000,
            readmit_after: 6,
            resilience: ResilienceConfig::default(),
            seed: 0,
        }
    }
}

impl FleetConfig {
    /// A small fleet for CI smoke runs: still ≥ 200 nodes (the acceptance
    /// floor) but with short per-node windows.
    pub fn smoke() -> Self {
        Self {
            nodes: 200,
            rooms: 20,
            frames_per_node: 6,
            ..Self::default()
        }
    }

    /// Checks every knob for consistency, returning the first violation
    /// as a typed [`ConfigError`].
    ///
    /// # Errors
    ///
    /// Returns the [`ConfigError`] naming the offending knobs when the
    /// configuration is inconsistent (empty fleet, watermarks inverted or
    /// above the queue cap, degenerate crash/adaptive schedules, …).
    pub fn validated(&self) -> Result<(), ConfigError> {
        if self.nodes == 0 {
            return Err(ConfigError::NoNodes);
        }
        if self.rooms == 0 || self.rooms > self.nodes {
            return Err(ConfigError::BadRooms {
                rooms: self.rooms,
                nodes: self.nodes,
            });
        }
        if self.shards == 0 || self.shards > self.rooms {
            return Err(ConfigError::BadShards {
                shards: self.shards,
                rooms: self.rooms,
            });
        }
        if self.frames_per_node == 0 {
            return Err(ConfigError::NoFrames);
        }
        if self.queue_cap == 0 {
            return Err(ConfigError::ZeroQueueCap);
        }
        if self.low_watermark >= self.high_watermark || self.high_watermark > self.queue_cap {
            return Err(ConfigError::BadWatermarks {
                low: self.low_watermark,
                high: self.high_watermark,
                cap: self.queue_cap,
            });
        }
        if self.health_window == 0 {
            return Err(ConfigError::ZeroHealthWindow);
        }
        if self.readmit_after == 0 {
            return Err(ConfigError::ZeroReadmitStreak);
        }
        if self.service_clock_hz == 0 {
            return Err(ConfigError::ZeroServiceClock);
        }
        if self.checkpoint_period_ms == 0 {
            return Err(ConfigError::ZeroCheckpointPeriod);
        }
        if let Some(crash) = &self.crash {
            if !(crash.window.0 >= 0.0 && crash.window.0 < crash.window.1) {
                return Err(ConfigError::BadCrashWindow {
                    start: crash.window.0,
                    end: crash.window.1,
                });
            }
            if !(crash.jitter.is_finite() && crash.jitter >= 0.0) {
                return Err(ConfigError::BadCrashJitter);
            }
        }
        if let Some(adaptive) = &self.adaptive {
            if adaptive.window == 0 {
                return Err(ConfigError::BadAdaptiveWindow);
            }
            if adaptive.watermark_step == 0 {
                return Err(ConfigError::ZeroAdaptiveStep);
            }
            if adaptive.relax_burn_milli >= adaptive.tighten_burn_milli {
                return Err(ConfigError::BadAdaptiveThresholds {
                    relax: adaptive.relax_burn_milli,
                    tighten: adaptive.tighten_burn_milli,
                });
            }
            if adaptive.min_high_watermark == 0 || adaptive.min_high_watermark > self.high_watermark
            {
                return Err(ConfigError::BadAdaptiveWatermarkFloor {
                    floor: adaptive.min_high_watermark,
                    high: self.high_watermark,
                });
            }
            if adaptive.max_downsample_stride < 2 {
                return Err(ConfigError::BadAdaptiveStride {
                    max: adaptive.max_downsample_stride,
                });
            }
        }
        Ok(())
    }
}

/// What the serial plan decided for one delivered message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Decision {
    /// Dropped at the sensor: nothing arrives.
    Gap,
    /// Shed by admission control (queue at capacity, or every shard
    /// down).
    Shed,
    /// Downsampled at the source under backpressure.
    Downsampled,
    /// Admitted and waiting for its batch (transient plan state; every
    /// queued message is resolved to `Execute` or `CrashLost` before the
    /// plan completes).
    Queued,
    /// Lost in a shard crash: queued at the crash instant and disposed
    /// of without executing.
    CrashLost,
    /// Scheduled onto the shard server.
    Execute {
        /// Index into the execution list (and the parallel results).
        exec_idx: usize,
        /// Nominal batch completion time (the whole batch completes as a
        /// unit), before per-frame retry overhead.
        completion_ns: i64,
    },
}

/// One planned delivery: the message plus the front-end's decision.
#[derive(Debug, Clone, Copy)]
struct PlannedDelivery {
    msg: FrameMsg,
    room: usize,
    /// The shard that disposed of the message (the room's *routed* shard
    /// at arrival; re-routing out of a crashed queue updates it to the
    /// shard that actually served the frame).
    shard: usize,
    decision: Decision,
    depth_after: usize,
    /// Served away from the room's home shard (failover admission or a
    /// live queue re-route).
    rerouted: bool,
}

/// Serial simulation state of one shard's bounded queue + batch server.
struct ShardSim {
    /// Queued `(planned index, ready instant)` pairs, FIFO. The ready
    /// instant is the arrival for normal admissions and the crash
    /// instant for frames re-routed out of a crashed queue (they cannot
    /// start before the crash that moved them).
    queue: VecDeque<(usize, i64)>,
    /// When the shard's server is next free (virtual ns).
    server_free_ns: i64,
    /// Backpressure state (hysteresis between the watermarks).
    throttled: bool,
    /// Whether the shard is currently crashed (serves nothing).
    down: bool,
    /// Crashes this shard took during the run.
    crashes: u64,
    /// The shard's admission posture (static or burn-driven).
    adm: AdaptiveAdmission,
    /// The posture at the last checkpoint (the boot posture before the
    /// first): what a restart recovers.
    ckpt: Posture,
    /// Checkpoints this shard took during the run.
    checkpoints: u64,
    /// Highest queue depth observed.
    peak_depth: usize,
    /// Queue depth sampled at every arrival.
    depth_counts: HistogramCounts,
}

impl ShardSim {
    fn new(adm: AdaptiveAdmission) -> Self {
        Self {
            queue: VecDeque::new(),
            server_free_ns: 0,
            throttled: false,
            down: false,
            crashes: 0,
            ckpt: adm.posture(false),
            adm,
            checkpoints: 0,
            peak_depth: 0,
            depth_counts: HistogramCounts::empty(),
        }
    }
}

/// Per-crash accounting drafted by the plan phase: how the queue was
/// disposed of and which rooms were in the shard's scope at the crash
/// (the fold's fusion rollback set).
#[derive(Debug, Clone, Default)]
struct CrashDraft {
    queued_at_crash: u64,
    crash_lost: u64,
    rerouted: u64,
    held: u64,
    migrations_out: u64,
    rooms_at_crash: Vec<u32>,
}

/// Everything the serial plan hands to execution and the fold: the
/// per-message decisions plus the failover timeline both phases replay.
struct PlanOutput {
    planned: Vec<PlannedDelivery>,
    sims: Vec<ShardSim>,
    exec_list: Vec<usize>,
    crash_events: Vec<CrashEvent>,
    timeline: Vec<(i64, FailoverEvent)>,
    drafts: Vec<CrashDraft>,
    migrations: u64,
}

/// A node's fusion and health estimator: what a checkpoint records and
/// a crash rolls back. The node's room contribution is deliberately not
/// part of it — the room holds last-good through the rolled-back gap.
#[derive(Clone)]
struct Estimator {
    voter: MajorityVoter,
    last_good: Option<usize>,
    /// Trailing node-caused outcomes, `true` for a gap or a fallback.
    window: VecDeque<bool>,
    quarantined: bool,
    clean_streak: u32,
}

/// Serial fold state of one node.
struct NodeState {
    est: Estimator,
    /// The estimator at the last checkpoint (boot state before the
    /// first).
    ckpt: Estimator,
    /// The node's current contribution to its room's occupancy.
    contrib: usize,
    /// The node's accounting, counted up as the fold replays it.
    report: NodeReport,
}

impl NodeState {
    fn new(node: &SensorNode, voter_window: usize) -> Self {
        let est = Estimator {
            voter: MajorityVoter::new(voter_window.max(1)),
            last_good: None,
            window: VecDeque::new(),
            quarantined: false,
            clean_streak: 0,
        };
        Self {
            ckpt: est.clone(),
            est,
            contrib: 0,
            report: NodeReport {
                node: node.id,
                room: node.room,
                shard: node.shard,
                ..NodeReport::default()
            },
        }
    }

    /// The finished report: the whole-run burn, graded on the frames
    /// that produced no fresh fused prediction, and the SLO snapshot in
    /// canonical counter order (fixed so shard folds are
    /// order-independent by construction).
    fn finish(self, budget: &ErrorBudget) -> NodeReport {
        let mut r = self.report;
        r.burn_milli = budget.burn_milli(r.deliveries - r.fused, r.deliveries);
        let counters = vec![
            (slo::FLEET_REQUESTS, r.deliveries - r.gaps),
            (slo::FLEET_ADMITTED, r.ok + r.recovered + r.fallback),
            (slo::FLEET_SHED, r.shed),
            (slo::FLEET_DOWNSAMPLED, r.downsampled),
            (slo::FLEET_GAPS, r.gaps),
            (slo::FLEET_FUSED, r.fused),
            (slo::FLEET_QUARANTINED_FRAMES, r.quarantined_frames),
            (slo::FLEET_QUARANTINE_TRIPS, r.quarantine_trips),
            (slo::FLEET_READMISSIONS, r.readmissions),
            (slo::FLEET_CRASH_LOST, r.crash_lost),
            (slo::FLEET_REROUTED, r.rerouted),
            (slo::RETRIES, r.retries),
            (slo::FALLBACK_FRAMES, r.fallback),
            (slo::QUARANTINES, r.cpu_resets),
        ];
        let recovery = std::mem::take(&mut r.slo.recovery_counts);
        r.slo = SloSnapshot::new(counters, r.burn_milli, recovery);
        r
    }
}

/// The deterministic multi-node serving co-simulation.
///
/// Owns the provisioned [`SensorNode`] actors and the (shared, per-fleet)
/// [`ResilientDeployment`] every shard serves with. See the module docs
/// for the three-phase execution model.
pub struct FleetService {
    supervised: ResilientDeployment,
    cfg: FleetConfig,
    nodes: Vec<SensorNode>,
    /// Nominal virtual service cost of one frame on a shard server, in
    /// nanoseconds: the deployment's measured per-inference cycles at
    /// [`FleetConfig::service_clock_hz`].
    per_frame_ns: u64,
}

impl FleetService {
    /// Provisions a fleet of `cfg.nodes` actors over `data` and wraps
    /// `deployment` in the per-frame supervisor.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::Config`] if `cfg` is inconsistent (see
    /// [`FleetConfig::validated`]), and [`FleetError::Probe`] with the
    /// simulator error if the deployment cannot run a probe frame (the
    /// probe measures the nominal per-frame cost the admission plan
    /// schedules with).
    pub fn new(
        deployment: Deployment,
        cfg: FleetConfig,
        data: &IrDataset,
    ) -> Result<Self, FleetError> {
        cfg.validated().map_err(FleetError::Config)?;
        let probe = deployment
            .report(&vec![0.0; GRID_SIZE * GRID_SIZE])
            .map_err(FleetError::Probe)?;
        let per_frame_ns = probe
            .cycles
            .saturating_mul(1_000_000_000)
            .div_euclid(cfg.service_clock_hz)
            .max(1);
        let nodes = (0..cfg.nodes)
            .map(|id| SensorNode::provision(id, data, &cfg))
            .collect();
        Ok(Self {
            supervised: ResilientDeployment::new(deployment, cfg.resilience.clone()),
            cfg,
            nodes,
            per_frame_ns,
        })
    }

    /// The provisioned node actors.
    pub fn nodes(&self) -> &[SensorNode] {
        &self.nodes
    }

    /// The fleet configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.cfg
    }

    /// Nominal virtual service cost of one frame (ns) on a shard server.
    pub fn per_frame_ns(&self) -> u64 {
        self.per_frame_ns
    }

    /// The crash schedule this fleet would execute, in crash order —
    /// a pure function of the config and seed (empty without a
    /// [`FleetConfig::crash`] schedule).
    pub fn crash_schedule(&self) -> Vec<CrashEvent> {
        let Some(crash) = &self.cfg.crash else {
            return Vec::new();
        };
        let (start_ns, end_ns) = self.run_span();
        plan_crashes(crash, self.cfg.shards, self.cfg.seed, start_ns, end_ns)
    }

    /// First/last arrival instants over every node's messages.
    fn run_span(&self) -> (i64, i64) {
        let mut start = i64::MAX;
        let mut end = i64::MIN;
        for node in &self.nodes {
            for m in node.messages() {
                start = start.min(m.arrival_ns);
                end = end.max(m.arrival_ns);
            }
        }
        if start > end {
            (0, 0)
        } else {
            (start, end)
        }
    }

    /// A warmed CPU pool sized for `threads` workers.
    ///
    /// # Errors
    ///
    /// Propagates the simulator error if the warm-up inference fails.
    pub fn make_pool(&self, threads: usize) -> Result<CpuPool, SimError> {
        self.supervised.inner().make_pool(threads)
    }

    /// Runs the whole co-simulation across `pool` and folds it into a
    /// [`FleetReport`]. Bit-identical for every pool width.
    pub fn run(&self, pool: &mut CpuPool) -> FleetReport {
        let plan = self.plan();
        let execs = self.execute(&plan.planned, &plan.exec_list, pool);
        self.fold(plan, execs)
    }

    /// Phase 1 (serial): merge all node messages into virtual-time order,
    /// interleave the failover timeline (checkpoints, crashes, restarts)
    /// and simulate every shard's admission control, bounded queue,
    /// backpressure hysteresis and batch server against the nominal
    /// per-frame cost.
    fn plan(&self) -> PlanOutput {
        let cfg = &self.cfg;
        let mut events: Vec<FrameMsg> = self.nodes.iter().flat_map(|n| n.messages()).collect();
        events.sort_by_key(|m| (m.arrival_ns, m.node, m.seq));
        let start_ns = events.first().map(|m| m.arrival_ns).unwrap_or(0);
        let end_ns = events.last().map(|m| m.arrival_ns).unwrap_or(0);
        let crash_events = match &cfg.crash {
            Some(crash) => plan_crashes(crash, cfg.shards, cfg.seed, start_ns, end_ns),
            None => Vec::new(),
        };
        let period_ns = (cfg.checkpoint_period_ms as i64).saturating_mul(1_000_000);
        let timeline = failover_timeline(&crash_events, start_ns, end_ns, period_ns);
        let mut route = RouteTable::new(cfg.rooms, cfg.shards);
        let mut drafts = vec![CrashDraft::default(); crash_events.len()];
        let mut migrations = 0u64;
        let mut planned: Vec<PlannedDelivery> = Vec::with_capacity(events.len());
        let mut sims: Vec<ShardSim> = (0..cfg.shards)
            .map(|_| {
                ShardSim::new(AdaptiveAdmission::new(
                    cfg.adaptive.clone(),
                    cfg.high_watermark,
                    cfg.low_watermark,
                ))
            })
            .collect();
        let mut throttle_ctr = vec![0u64; self.nodes.len()];
        let mut exec_list: Vec<usize> = Vec::new();
        let mut pending = timeline.iter().copied().peekable();
        // The closing `None` applies the failover events after the last
        // arrival (a late crash still disposes of its queue, a late
        // restart still serves a held one) before the final drain.
        for msg in events.into_iter().map(Some).chain([None]) {
            let now = msg.map_or(i64::MAX, |m| m.arrival_ns);
            while let Some(event) = pending.next_if(|&(t, _)| t <= now) {
                self.apply_plan_event(
                    event,
                    &crash_events,
                    &mut planned,
                    &mut sims,
                    &mut exec_list,
                    &mut route,
                    &mut drafts,
                    &mut migrations,
                );
            }
            let Some(msg) = msg else { break };
            let node = &self.nodes[msg.node];
            let room = node.room;
            let shard = route.shard_for(room);
            let rerouted = shard != node.shard;
            // Let the routed shard's server catch up to the arrival
            // instant before judging the queue: frames it has already
            // started serving no longer occupy queue slots.
            Self::drain(
                &mut planned,
                &mut sims[shard],
                msg.arrival_ns,
                &mut exec_list,
                cfg,
                self.per_frame_ns,
            );
            let idx = planned.len();
            let sim = &mut sims[shard];
            let is_gap = node.stream.ticks[msg.seq].frame.is_none();
            let decision = if is_gap {
                Decision::Gap
            } else if route.is_down(shard) {
                // Every shard is down (a live survivor would have
                // adopted the room): nothing can admit the frame.
                Decision::Shed
            } else if sim.queue.len() >= cfg.queue_cap {
                Decision::Shed
            } else if sim.throttled && {
                throttle_ctr[msg.node] += 1;
                !throttle_ctr[msg.node].is_multiple_of(sim.adm.stride as u64)
            } {
                Decision::Downsampled
            } else {
                Decision::Queued
            };
            planned.push(PlannedDelivery {
                msg,
                room,
                shard,
                decision,
                depth_after: 0,
                rerouted,
            });
            if decision == Decision::Queued {
                sim.queue.push_back((idx, msg.arrival_ns));
            }
            let depth = sim.queue.len();
            planned[idx].depth_after = depth;
            sim.peak_depth = sim.peak_depth.max(depth);
            sim.depth_counts.record(depth as u64);
            if !route.is_down(shard) {
                if depth >= sim.adm.eff_high {
                    sim.throttled = true;
                } else if depth <= sim.adm.eff_low {
                    sim.throttled = false;
                }
                if !is_gap {
                    let degraded = matches!(decision, Decision::Shed | Decision::Downsampled);
                    sim.adm.observe(degraded, &cfg.resilience.error_budget);
                }
            }
        }
        for sim in &mut sims {
            Self::drain(
                &mut planned,
                sim,
                i64::MAX,
                &mut exec_list,
                cfg,
                self.per_frame_ns,
            );
            debug_assert!(sim.queue.is_empty(), "final drain empties every queue");
        }
        PlanOutput {
            planned,
            sims,
            exec_list,
            crash_events,
            timeline,
            drafts,
            migrations,
        }
    }

    /// Applies one failover-timeline event to the plan state: checkpoint
    /// boundaries record every live shard's admission posture, crashes
    /// dispose of the queue per policy and migrate rooms, restarts
    /// recover the posture of the last checkpoint before the crash.
    #[allow(clippy::too_many_arguments)]
    fn apply_plan_event(
        &self,
        (t, ev): (i64, FailoverEvent),
        crash_events: &[CrashEvent],
        planned: &mut [PlannedDelivery],
        sims: &mut [ShardSim],
        exec_list: &mut Vec<usize>,
        route: &mut RouteTable,
        drafts: &mut [CrashDraft],
        migrations: &mut u64,
    ) {
        let cfg = &self.cfg;
        match ev {
            FailoverEvent::Checkpoint => {
                for sim in sims.iter_mut().filter(|sim| !sim.down) {
                    Self::drain(planned, sim, t, exec_list, cfg, self.per_frame_ns);
                    sim.ckpt = sim.adm.posture(sim.throttled);
                    sim.checkpoints += 1;
                }
            }
            FailoverEvent::Crash(k) => {
                let e = crash_events[k];
                let shard = e.shard;
                // Batches the server started before the crash complete
                // (batch-granular failure); only queued frames are at
                // the policy's mercy.
                Self::drain(
                    planned,
                    &mut sims[shard],
                    e.crash_ns,
                    exec_list,
                    cfg,
                    self.per_frame_ns,
                );
                let (migrated, rooms_at_crash) = route.crash(shard);
                *migrations += migrated;
                let draft = &mut drafts[k];
                draft.migrations_out = migrated;
                draft.rooms_at_crash = rooms_at_crash;
                let queue = std::mem::take(&mut sims[shard].queue);
                draft.queued_at_crash = queue.len() as u64;
                let policy = cfg
                    .crash
                    .as_ref()
                    .map(|c| c.policy)
                    .unwrap_or(CrashPolicy::Reroute);
                match policy {
                    CrashPolicy::Hold => {
                        draft.held = queue.len() as u64;
                        sims[shard].queue = queue;
                    }
                    CrashPolicy::Shed => {
                        draft.crash_lost = queue.len() as u64;
                        for (idx, _) in queue {
                            planned[idx].decision = Decision::CrashLost;
                        }
                    }
                    CrashPolicy::Reroute => {
                        for (idx, _) in queue {
                            let target = route.shard_for(planned[idx].room);
                            if route.is_down(target) || sims[target].queue.len() >= cfg.queue_cap {
                                // No surviving shard can absorb it.
                                planned[idx].decision = Decision::CrashLost;
                                draft.crash_lost += 1;
                            } else {
                                // The frame becomes the target's problem;
                                // it cannot start before the crash that
                                // moved it.
                                sims[target].queue.push_back((idx, e.crash_ns));
                                planned[idx].shard = target;
                                planned[idx].rerouted = true;
                                draft.rerouted += 1;
                            }
                        }
                    }
                }
                sims[shard].down = true;
                sims[shard].crashes += 1;
                sims[shard].throttled = false;
            }
            FailoverEvent::Restart(k) => {
                let e = crash_events[k];
                let shard = e.shard;
                let sim = &mut sims[shard];
                sim.down = false;
                sim.server_free_ns = sim.server_free_ns.max(e.restart_ns);
                // A down shard takes no checkpoint, so its last one
                // precedes the crash; a shard that crashed before any
                // checkpoint boots with the configured knobs.
                sim.throttled = sim.adm.restore(sim.ckpt);
                *migrations += route.restart(shard);
            }
        }
    }

    /// Forms and schedules batches on one shard server up to virtual time
    /// `now`: while the server can start a batch no later than `now`, up
    /// to `batch_max` queued frames are dispatched as one unit. A downed
    /// shard serves nothing until its restart.
    fn drain(
        planned: &mut [PlannedDelivery],
        sim: &mut ShardSim,
        now: i64,
        exec_list: &mut Vec<usize>,
        cfg: &FleetConfig,
        per_frame_ns: u64,
    ) {
        if sim.down {
            return;
        }
        while let Some(&(_, ready_ns)) = sim.queue.front() {
            let start = sim.server_free_ns.max(ready_ns);
            if start > now {
                break;
            }
            let take = sim.queue.len().min(cfg.batch_max.max(1));
            let service_ns = cfg.batch_overhead_ns + per_frame_ns * take as u64;
            let completion_ns = start.saturating_add(service_ns as i64);
            for _ in 0..take {
                let (idx, _) = sim.queue.pop_front().expect("batch members queued");
                let exec_idx = exec_list.len();
                exec_list.push(idx);
                planned[idx].decision = Decision::Execute {
                    exec_idx,
                    completion_ns,
                };
            }
            sim.server_free_ns = completion_ns;
        }
    }

    /// Phase 2 (parallel): run every scheduled frame's attempt loop across
    /// the pool, yielding its prediction (see the module docs for which
    /// attempts simulate). Execution order never affects results — each
    /// attempt loop is a pure function of `(frame, stall)`.
    fn execute(
        &self,
        planned: &[PlannedDelivery],
        exec_list: &[usize],
        pool: &mut CpuPool,
    ) -> Vec<AttemptOutcome<usize>> {
        pool.map_in_place(exec_list.len(), |cpu, base, k| {
            let (frame, stall) = self.payload(&planned[exec_list[k]]);
            self.supervised.attempt_prediction(cpu, base, frame, stall)
        })
    }

    /// The frame and injected stall an executed delivery carries.
    fn payload(&self, p: &PlannedDelivery) -> (&[f32], Option<StallFault>) {
        let tick = &self.nodes[p.msg.node].stream.ticks[p.msg.seq];
        let frame = tick.frame.as_deref().expect("executed ticks carry data");
        (frame, tick.stall)
    }

    /// Phase 3 (serial): replay outcomes in arrival order through the
    /// same failover timeline (checkpoints, crash rollbacks), node
    /// health windows, quarantine hysteresis and room fusion, and fold
    /// everything into the report.
    fn fold(&self, plan: PlanOutput, execs: Vec<AttemptOutcome<usize>>) -> FleetReport {
        let PlanOutput {
            planned,
            sims,
            exec_list: _,
            crash_events,
            timeline,
            drafts,
            migrations,
        } = plan;
        let cfg = &self.cfg;
        let budget = &cfg.resilience.error_budget;
        let max_retries = cfg.resilience.retry.max_retries;
        let clock_hz = cfg.resilience.clock_hz.max(1);
        let mut states: Vec<NodeState> = self
            .nodes
            .iter()
            .map(|node| NodeState::new(node, cfg.resilience.voter_window))
            .collect();
        // Which nodes report into each room — the crash rollback scope.
        let mut room_nodes: Vec<Vec<usize>> = vec![Vec::new(); cfg.rooms];
        for node in &self.nodes {
            room_nodes[node.room].push(node.id);
        }
        let mut shard_latency: Vec<HistogramCounts> =
            (0..cfg.shards).map(|_| HistogramCounts::empty()).collect();
        let mut room_totals = vec![0usize; cfg.rooms];
        let mut building = 0usize;
        let mut changes: Vec<OccupancyChange> = Vec::new();
        let mut deliveries: Vec<Delivery> = Vec::with_capacity(planned.len());
        // Earliest fused completion each crashed shard managed after its
        // restart (the recovery-time metric).
        let mut recovery_min: Vec<Option<i64>> = vec![None; crash_events.len()];
        let mut pending = timeline.into_iter().peekable();
        let mut shards_down = 0;
        // Failover events after the last arrival move no reported number,
        // so the fold leaves them unapplied.
        for (i, p) in planned.iter().enumerate() {
            while let Some((_, ev)) = pending.next_if(|&(t, _)| t <= p.msg.arrival_ns) {
                match ev {
                    // While any shard is up the route table leaves no room
                    // on a down shard, so the live shards' checkpoints
                    // cover every node.
                    FailoverEvent::Checkpoint if shards_down < cfg.shards => {
                        for ns in &mut states {
                            ns.ckpt = ns.est.clone();
                        }
                    }
                    FailoverEvent::Checkpoint => {}
                    // The crashed shard's in-memory estimators since the
                    // last checkpoint are gone; whoever serves its rooms
                    // next resumes from the checkpoint.
                    FailoverEvent::Crash(k) => {
                        shards_down += 1;
                        for &room in &drafts[k].rooms_at_crash {
                            for &node in &room_nodes[room as usize] {
                                let ns = &mut states[node];
                                ns.est = ns.ckpt.clone();
                            }
                        }
                    }
                    FailoverEvent::Restart(_) => shards_down -= 1,
                }
            }
            let NodeState {
                est,
                contrib,
                report: r,
                ..
            } = &mut states[p.msg.node];
            r.deliveries += 1;
            if p.rerouted {
                r.rerouted += 1;
            }
            let (status, prediction, latency_ns) = match p.decision {
                Decision::Gap => {
                    r.gaps += 1;
                    (DeliveryStatus::Gap, None, None)
                }
                Decision::Shed => {
                    r.shed += 1;
                    (DeliveryStatus::Shed, None, None)
                }
                Decision::Downsampled => {
                    r.downsampled += 1;
                    (DeliveryStatus::Downsampled, None, None)
                }
                Decision::CrashLost => {
                    r.crash_lost += 1;
                    (DeliveryStatus::CrashLost, None, None)
                }
                Decision::Queued => unreachable!("final drain resolves every queued frame"),
                Decision::Execute {
                    exec_idx,
                    completion_ns,
                } => {
                    let exec = &execs[exec_idx];
                    let retries = exec.failed_attempts.min(max_retries);
                    let backoff_ms = self.supervised.total_backoff_ms(i, retries);
                    r.retries += retries as u64;
                    r.cpu_resets += exec.failed_attempts as u64;
                    // Retry overhead is charged to the affected request
                    // alone (attributable tail latency) — it never shifts
                    // the planned schedule, which keeps the admission
                    // plan independent of execution.
                    let extra_ns = if exec.failed_attempts > 0 {
                        let recovery_ns = exec.wasted_cycles.saturating_mul(1_000_000_000)
                            / clock_hz
                            + backoff_ms * 1_000_000;
                        r.slo.recovery_counts.record(recovery_ns);
                        recovery_ns
                    } else {
                        0
                    };
                    let completion = completion_ns.saturating_add(extra_ns as i64);
                    let latency = completion.saturating_sub(p.msg.arrival_ns).max(0) as u64;
                    match exec.success {
                        Some(prediction) => {
                            if exec.failed_attempts == 0 {
                                r.ok += 1;
                                (DeliveryStatus::Ok, Some(prediction), Some(latency))
                            } else {
                                r.recovered += 1;
                                (
                                    DeliveryStatus::Recovered {
                                        failed_attempts: exec.failed_attempts,
                                    },
                                    Some(prediction),
                                    Some(latency),
                                )
                            }
                        }
                        None => {
                            r.fallback += 1;
                            (DeliveryStatus::Fallback, None, Some(latency))
                        }
                    }
                }
            };
            if let Some(lat) = latency_ns {
                shard_latency[p.shard].record(lat);
                pcount_telemetry::histogram(slo::FLEET_REQUEST_LATENCY).record(lat);
            }
            pcount_telemetry::histogram(slo::FLEET_QUEUE_DEPTH).record(p.depth_after as u64);
            // Fusion is judged against the quarantine state at delivery
            // time; the health update below only affects later frames.
            let was_quarantined = est.quarantined;
            let mut fused = false;
            let new_contrib = match prediction {
                Some(pred) => {
                    let vote = est.voter.push(pred);
                    est.last_good = Some(vote);
                    if was_quarantined {
                        r.quarantined_frames += 1;
                        *contrib
                    } else {
                        fused = true;
                        r.fused += 1;
                        vote
                    }
                }
                None => {
                    let vote = est.voter.push_missing().or(est.last_good).unwrap_or(0);
                    if status.executed() && was_quarantined {
                        r.quarantined_frames += 1;
                    }
                    if was_quarantined {
                        // Quarantined rooms hold their last trusted value.
                        *contrib
                    } else {
                        vote
                    }
                }
            };
            if fused {
                if let Some(lat) = latency_ns {
                    let completion = p.msg.arrival_ns.saturating_add(lat as i64);
                    for (k, e) in crash_events.iter().enumerate() {
                        if e.shard == p.shard && completion >= e.restart_ns {
                            recovery_min[k] = Some(match recovery_min[k] {
                                Some(best) => best.min(completion),
                                None => completion,
                            });
                        }
                    }
                }
            }
            if new_contrib != *contrib {
                room_totals[p.room] = room_totals[p.room] - *contrib + new_contrib;
                building = building - *contrib + new_contrib;
                *contrib = new_contrib;
                changes.push(OccupancyChange {
                    seq: i as u64,
                    room: p.room as u32,
                    room_count: room_totals[p.room] as u32,
                    building: building as u32,
                });
            }
            // Health accounting: only node-caused outcomes move the
            // detector (shed/downsampled/crash-lost frames are the
            // service's doing).
            let health_sample = match status {
                DeliveryStatus::Gap | DeliveryStatus::Fallback => Some(true),
                DeliveryStatus::Ok | DeliveryStatus::Recovered { .. } => Some(false),
                DeliveryStatus::Shed | DeliveryStatus::Downsampled | DeliveryStatus::CrashLost => {
                    None
                }
            };
            if let Some(bad) = health_sample {
                if est.quarantined {
                    if bad {
                        est.clean_streak = 0;
                    } else {
                        est.clean_streak += 1;
                        if est.clean_streak >= cfg.readmit_after {
                            est.quarantined = false;
                            r.readmissions += 1;
                            est.clean_streak = 0;
                            est.window.clear();
                        }
                    }
                } else {
                    est.window.push_back(bad);
                    if est.window.len() > cfg.health_window {
                        est.window.pop_front();
                    }
                    if est.window.len() == cfg.health_window {
                        let bads = est.window.iter().filter(|&&b| b).count() as u64;
                        let burn = budget.burn_milli(bads, est.window.len() as u64);
                        if burn >= cfg.quarantine_burn_milli {
                            est.quarantined = true;
                            r.quarantine_trips += 1;
                            est.clean_streak = 0;
                            est.window.clear();
                        }
                    }
                }
            }
            deliveries.push(Delivery {
                msg: p.msg,
                room: p.room,
                shard: p.shard,
                status,
                queue_depth_after: p.depth_after,
                latency_ns,
                quarantined: was_quarantined,
                fused,
                rerouted: p.rerouted,
            });
        }
        // Finalise the recovery metric: first post-restart fused
        // completion, or the bare downtime when nothing arrived to prove
        // recovery.
        let mut recovery_counts = HistogramCounts::empty();
        let crash_reports: Vec<CrashReport> = crash_events
            .iter()
            .zip(drafts.iter())
            .enumerate()
            .map(|(k, (e, draft))| {
                let recovery_ns = match recovery_min[k] {
                    Some(completion) => completion.saturating_sub(e.crash_ns).max(0) as u64,
                    None => e.restart_ns.saturating_sub(e.crash_ns).max(0) as u64,
                };
                recovery_counts.record(recovery_ns);
                pcount_telemetry::histogram(slo::FLEET_RECOVERY_LATENCY).record(recovery_ns);
                CrashReport {
                    shard: e.shard,
                    crash_ns: e.crash_ns,
                    restart_ns: e.restart_ns,
                    queued_at_crash: draft.queued_at_crash,
                    crash_lost: draft.crash_lost,
                    rerouted: draft.rerouted,
                    held: draft.held,
                    migrations_out: draft.migrations_out,
                    recovery_ns,
                }
            })
            .collect();
        self.reports(
            states,
            sims,
            shard_latency,
            deliveries,
            changes,
            room_totals,
            crash_reports,
            recovery_counts,
            migrations,
        )
    }

    /// Assembles node/shard/fleet reports and mirrors the run's totals
    /// into the global `fleet/*` telemetry instruments.
    #[allow(clippy::too_many_arguments)]
    fn reports(
        &self,
        states: Vec<NodeState>,
        sims: Vec<ShardSim>,
        shard_latency: Vec<HistogramCounts>,
        deliveries: Vec<Delivery>,
        changes: Vec<OccupancyChange>,
        room_totals: Vec<usize>,
        crash_reports: Vec<CrashReport>,
        recovery_counts: HistogramCounts,
        migrations: u64,
    ) -> FleetReport {
        let cfg = &self.cfg;
        let budget = &cfg.resilience.error_budget;
        let node_reports: Vec<NodeReport> =
            states.into_iter().map(|ns| ns.finish(budget)).collect();
        let shard_reports: Vec<ShardReport> = (0..cfg.shards)
            .map(|shard| {
                let members: Vec<&NodeReport> =
                    node_reports.iter().filter(|r| r.shard == shard).collect();
                // The shard SLO is the associative fold of its nodes'
                // snapshots; the burn pools every node's frames so a big
                // healthy node cannot mask a small sick one.
                let slo = members
                    .iter()
                    .fold(SloSnapshot::default(), |acc, r| acc.merge(&r.slo));
                let burn_milli = budget.burn_milli_total(
                    members
                        .iter()
                        .map(|r| (r.deliveries - r.fused, r.deliveries)),
                );
                let sim = &sims[shard];
                ShardReport {
                    shard,
                    nodes: members.len(),
                    queue_depth_peak: sim.peak_depth as u64,
                    queue_depth: sim.depth_counts.summarize(),
                    latency: shard_latency[shard].summarize(),
                    latency_counts: shard_latency[shard].clone(),
                    burn_milli,
                    slo,
                    crashes: sim.crashes,
                    adaptive_tightens: sim.adm.tightens,
                    adaptive_relaxes: sim.adm.relaxes,
                    high_watermark: sim.adm.eff_high,
                    downsample_stride: sim.adm.stride,
                }
            })
            .collect();
        let sum = |count: fn(&NodeReport) -> u64| node_reports.iter().map(count).sum();
        let totals = ServeTotals {
            requests: sum(|r| r.deliveries - r.gaps),
            admitted: sum(|r| r.ok + r.recovered + r.fallback),
            shed: sum(|r| r.shed),
            downsampled: sum(|r| r.downsampled),
            gaps: sum(|r| r.gaps),
            fused: sum(|r| r.fused),
            quarantined_frames: sum(|r| r.quarantined_frames),
            quarantine_trips: sum(|r| r.quarantine_trips),
            readmissions: sum(|r| r.readmissions),
            crash_lost: sum(|r| r.crash_lost),
            rerouted: sum(|r| r.rerouted),
            crashes: crash_reports.len() as u64,
            migrations,
            checkpoints: sims.iter().map(|s| s.checkpoints).sum(),
        };
        for (name, value) in totals.as_counters() {
            if value > 0 {
                pcount_telemetry::counter(name).add(value);
            }
        }
        let queue_depth_peak = sims.iter().map(|s| s.peak_depth).max().unwrap_or(0) as u64;
        let worst_burn = shard_reports
            .iter()
            .map(|s| s.burn_milli)
            .max()
            .unwrap_or(0);
        pcount_telemetry::gauge(slo::FLEET_QUEUE_DEPTH_PEAK).set(queue_depth_peak as i64);
        pcount_telemetry::gauge(slo::FLEET_ERROR_BUDGET_BURN).set(worst_burn);
        let tightest_high = sims
            .iter()
            .map(|s| s.adm.eff_high)
            .min()
            .unwrap_or(cfg.high_watermark);
        let widest_stride = sims.iter().map(|s| s.adm.stride).max().unwrap_or(2);
        pcount_telemetry::gauge(slo::FLEET_ADAPTIVE_HIGH_WATERMARK).set(tightest_high as i64);
        pcount_telemetry::gauge(slo::FLEET_ADAPTIVE_DOWNSAMPLE_STRIDE).set(widest_stride as i64);
        let latency_counts = shard_latency
            .iter()
            .fold(HistogramCounts::empty(), |acc, c| acc.merge(c));
        let queue_depth_counts = sims.iter().fold(HistogramCounts::empty(), |acc, s| {
            acc.merge(&s.depth_counts)
        });
        let occupancy =
            OccupancyTrajectory::new(changes, room_totals.iter().map(|&r| r as u32).collect());
        FleetReport {
            nodes: cfg.nodes,
            rooms: cfg.rooms,
            shards: cfg.shards,
            per_frame_ns: self.per_frame_ns,
            totals,
            latency: latency_counts.summarize(),
            latency_counts,
            queue_depth: queue_depth_counts.summarize(),
            queue_depth_peak,
            worst_shard_burn_milli: worst_burn,
            crash_reports,
            recovery: recovery_counts.summarize(),
            recovery_counts,
            shard_reports,
            node_reports,
            deliveries,
            occupancy,
        }
    }
}

// The fleet suites' fixtures, shared with the in-crate tests below.
#[cfg(test)]
#[allow(dead_code)]
#[path = "../tests/common/mod.rs"]
mod common;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failover::AdaptiveConfig;
    use pcount_kernels::Target;
    use pcount_quant::{Precision, PrecisionAssignment};
    use pcount_resilience::RetryPolicy;

    /// The gate of the golden route: on every fleet configuration family
    /// the suites run, each executed frame's `(prediction, failed
    /// attempts, wasted cycles)` equals the all-simulator attempt loop's,
    /// at pool widths 1 and 4. On the simulator a stall-free frame never
    /// fails an attempt, which is what lets its full-budget attempt skip
    /// the simulator.
    #[test]
    fn golden_route_matches_the_simulator_on_every_executed_frame() {
        let data = common::tiny_dataset();
        let storm = FleetConfig {
            storm: Some(StormConfig {
                intensity: 0.9,
                node_stride: 1,
                window: (0.25, 0.75),
            }),
            // One retry: a stall that persists two attempts exhausts it,
            // so the fallback path runs too.
            resilience: ResilienceConfig {
                retry: RetryPolicy {
                    max_retries: 1,
                    ..RetryPolicy::default()
                },
                ..ResilienceConfig::default()
            },
            ..common::small_cfg()
        };
        let adaptive = FleetConfig {
            crash: None,
            adaptive: Some(AdaptiveConfig {
                window: 16,
                min_high_watermark: 2,
                watermark_step: 2,
                ..AdaptiveConfig::default()
            }),
            ..common::crashy_cfg(CrashPolicy::Reroute)
        };
        let configs = [
            ("small", common::small_cfg()),
            ("crash/reroute", common::crashy_cfg(CrashPolicy::Reroute)),
            ("crash/hold", common::crashy_cfg(CrashPolicy::Hold)),
            ("storm", storm),
            ("adaptive", adaptive),
        ];
        let int8 = PrecisionAssignment::uniform(Precision::Int8);
        let mixed = PrecisionAssignment::new([
            Precision::Int8,
            Precision::Int4,
            Precision::Int4,
            Precision::Int4,
        ]);
        let (mut retried, mut fallbacks) = (0, 0);
        for assignment in [int8, mixed] {
            let model = common::tiny_model(30, assignment);
            for target in [Target::Maupiti, Target::Ibex] {
                let deployment = Deployment::new(&model, target).expect("deploy");
                for (name, cfg) in &configs {
                    let svc =
                        FleetService::new(deployment.clone(), cfg.clone(), &data).expect("fleet");
                    let plan = svc.plan();
                    let pool = svc.make_pool(0).expect("pool");
                    let simulated = pool.map_in_place(plan.exec_list.len(), |cpu, base, k| {
                        let (frame, stall) = svc.payload(&plan.planned[plan.exec_list[k]]);
                        let o = svc.supervised.attempt_frame(cpu, base, frame, stall);
                        if stall.is_none() {
                            assert_eq!((o.failed_attempts, o.wasted_cycles), (0, 0));
                        }
                        let prediction = o.success.map(|run| run.prediction);
                        (prediction, o.failed_attempts, o.wasted_cycles)
                    });
                    retried += simulated.iter().filter(|s| s.1 > 0).count();
                    fallbacks += simulated.iter().filter(|s| s.0.is_none()).count();
                    for width in [1, 4] {
                        let mut pool = svc.make_pool(width).expect("pool");
                        let routed: Vec<_> = svc
                            .execute(&plan.planned, &plan.exec_list, &mut pool)
                            .into_iter()
                            .map(|o| (o.success, o.failed_attempts, o.wasted_cycles))
                            .collect();
                        assert_eq!(
                            routed, simulated,
                            "{name}, {assignment}, {target}, width {width}"
                        );
                    }
                }
            }
        }
        assert!(
            retried > 0 && fallbacks > 0,
            "the configs must retry and fall back"
        );
    }
}
