//! Folded results of a fleet run: per-node and per-shard accounting, the
//! building-wide occupancy trajectory and their conversions to the
//! [`JsonValue`] the serve bench writes into `BENCH_serve.json`.

use crate::msg::Delivery;
use pcount_telemetry::slo;
use pcount_telemetry::{HistogramCounts, HistogramSummary, JsonValue, SloSnapshot};

/// Fleet-wide front-end totals, one value per `fleet/*` counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeTotals {
    /// Frames offered to the front-end (gaps never arrive, so they are
    /// not requests).
    pub requests: u64,
    /// Requests admitted into a shard queue and executed.
    pub admitted: u64,
    /// Requests shed by admission control (queue at capacity).
    pub shed: u64,
    /// Requests downsampled at the source under backpressure.
    pub downsampled: u64,
    /// Sensor gaps (delivery slots whose frame never arrived).
    pub gaps: u64,
    /// Executed frames whose fresh prediction reached room fusion.
    pub fused: u64,
    /// Executed frames withheld from fusion (node quarantined).
    pub quarantined_frames: u64,
    /// Sick-node quarantine trips.
    pub quarantine_trips: u64,
    /// Quarantined nodes readmitted after a clean streak.
    pub readmissions: u64,
    /// Frames lost in shard crashes (queued at the crash instant and
    /// never executed).
    pub crash_lost: u64,
    /// Frames served away from their room's home shard (failover
    /// admissions plus live queue re-routes).
    pub rerouted: u64,
    /// Planned shard crashes executed during the run.
    pub crashes: u64,
    /// Room migrations performed by crash/restart rebalancing.
    pub migrations: u64,
    /// Periodic shard checkpoints taken.
    pub checkpoints: u64,
}

impl ServeTotals {
    /// The totals as `(fleet counter name, value)` pairs; this order is
    /// the canonical order of the fleet counters.
    pub fn as_counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            (slo::FLEET_REQUESTS, self.requests),
            (slo::FLEET_ADMITTED, self.admitted),
            (slo::FLEET_SHED, self.shed),
            (slo::FLEET_DOWNSAMPLED, self.downsampled),
            (slo::FLEET_GAPS, self.gaps),
            (slo::FLEET_FUSED, self.fused),
            (slo::FLEET_QUARANTINED_FRAMES, self.quarantined_frames),
            (slo::FLEET_QUARANTINE_TRIPS, self.quarantine_trips),
            (slo::FLEET_READMISSIONS, self.readmissions),
            (slo::FLEET_CRASHES, self.crashes),
            (slo::FLEET_CRASH_LOST, self.crash_lost),
            (slo::FLEET_REROUTED, self.rerouted),
            (slo::FLEET_MIGRATIONS, self.migrations),
            (slo::FLEET_CHECKPOINTS, self.checkpoints),
        ]
    }
}

/// The totals as a JSON object keyed by counter name.
impl From<&ServeTotals> for JsonValue {
    fn from(t: &ServeTotals) -> Self {
        JsonValue::object(t.as_counters().into_iter().map(|(n, v)| (n, v.into())))
    }
}

/// One node's folded accounting.
#[derive(Debug, Clone)]
pub struct NodeReport {
    /// Fleet-wide node id.
    pub node: usize,
    /// Room the node reports into.
    pub room: usize,
    /// Shard serving that room.
    pub shard: usize,
    /// Delivery slots replayed (arrivals plus gaps).
    pub deliveries: u64,
    /// Sensor gaps.
    pub gaps: u64,
    /// Frames shed by admission control.
    pub shed: u64,
    /// Frames downsampled under backpressure.
    pub downsampled: u64,
    /// Frames lost in a shard crash.
    pub crash_lost: u64,
    /// Frames served away from the room's home shard.
    pub rerouted: u64,
    /// Frames inferred on the first attempt.
    pub ok: u64,
    /// Frames recovered by a retry.
    pub recovered: u64,
    /// Frames that exhausted retries (hold-last-good emitted).
    pub fallback: u64,
    /// Fresh predictions that reached room fusion.
    pub fused: u64,
    /// Executed frames withheld from fusion while quarantined.
    pub quarantined_frames: u64,
    /// Times the sick-node detector quarantined this node.
    pub quarantine_trips: u64,
    /// Times this node was readmitted after a clean streak.
    pub readmissions: u64,
    /// Retry attempts beyond first tries.
    pub retries: u64,
    /// Pooled-CPU restores forced by faulted attempts.
    pub cpu_resets: u64,
    /// Whole-run error-budget burn (milli-units).
    pub burn_milli: i64,
    /// The node's SLO snapshot (canonical counter order, mergeable).
    pub slo: SloSnapshot,
}

/// One shard outage's folded accounting: what happened to the queue at
/// the crash instant and how fast the shard recovered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashReport {
    /// The crashed shard.
    pub shard: usize,
    /// Virtual instant of the crash.
    pub crash_ns: i64,
    /// Virtual instant of the restart.
    pub restart_ns: i64,
    /// Frames sitting in the shard's queue at the crash instant.
    pub queued_at_crash: u64,
    /// Queued frames lost in the crash (never executed).
    pub crash_lost: u64,
    /// Queued frames re-routed live onto surviving shards.
    pub rerouted: u64,
    /// Queued frames held across the downtime (served after restart).
    pub held: u64,
    /// Rooms migrated off the shard at the crash.
    pub migrations_out: u64,
    /// Recovery time: crash to the first fused delivery the shard
    /// completed after its restart (falls back to the bare downtime when
    /// nothing arrived to prove recovery).
    pub recovery_ns: u64,
}

/// The outage as a JSON object (the `failover.events` array of the
/// bench).
impl From<&CrashReport> for JsonValue {
    fn from(c: &CrashReport) -> Self {
        JsonValue::object([
            ("shard", c.shard.into()),
            ("crash_ns", c.crash_ns.into()),
            ("restart_ns", c.restart_ns.into()),
            ("queued_at_crash", c.queued_at_crash.into()),
            ("crash_lost", c.crash_lost.into()),
            ("rerouted", c.rerouted.into()),
            ("held", c.held.into()),
            ("migrations_out", c.migrations_out.into()),
            ("recovery_ns", c.recovery_ns.into()),
        ])
    }
}

/// One shard's folded accounting: the associative merge of its nodes'
/// SLO snapshots plus the queue/latency instruments of its front-end.
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// Shard index.
    pub shard: usize,
    /// Nodes served by this shard.
    pub nodes: usize,
    /// Highest queue depth the shard reached.
    pub queue_depth_peak: u64,
    /// Queue depth distribution (sampled at every arrival).
    pub queue_depth: HistogramSummary,
    /// Request latency distribution of the shard's executed frames.
    pub latency: HistogramSummary,
    /// Raw buckets behind [`ShardReport::latency`] (mergeable).
    pub latency_counts: HistogramCounts,
    /// Pooled error-budget burn of the shard's nodes (milli-units):
    /// bads and totals are summed *before* the burn is computed, so every
    /// frame weighs the same regardless of node sizes.
    pub burn_milli: i64,
    /// Merged SLO snapshot of the shard's nodes.
    pub slo: SloSnapshot,
    /// Times this shard crashed during the run.
    pub crashes: u64,
    /// Adaptive-admission tighten steps this shard took.
    pub adaptive_tightens: u64,
    /// Adaptive-admission relax steps this shard took.
    pub adaptive_relaxes: u64,
    /// Effective high watermark the shard ended the run with.
    pub high_watermark: usize,
    /// Downsample stride the shard ended the run with (2 = static).
    pub downsample_stride: u32,
}

/// The shard as a JSON object (the `shards_detail` array of the bench).
impl From<&ShardReport> for JsonValue {
    fn from(s: &ShardReport) -> Self {
        JsonValue::object([
            ("shard", s.shard.into()),
            ("nodes", s.nodes.into()),
            ("queue_depth_peak", s.queue_depth_peak.into()),
            ("queue_depth", (&s.queue_depth).into()),
            ("latency_ns", (&s.latency).into()),
            ("burn_milli", s.burn_milli.into()),
            ("crashes", s.crashes.into()),
            (
                "adaptive",
                JsonValue::object([
                    ("tightens", s.adaptive_tightens.into()),
                    ("relaxes", s.adaptive_relaxes.into()),
                    ("high_watermark", s.high_watermark.into()),
                    ("downsample_stride", s.downsample_stride.into()),
                ]),
            ),
            ("slo", (&s.slo).into()),
        ])
    }
}

/// One change point of the building-wide occupancy trajectory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OccupancyChange {
    /// Global delivery sequence number at which the estimate changed.
    pub seq: u64,
    /// Room whose estimate changed.
    pub room: u32,
    /// The room's new occupancy estimate.
    pub room_count: u32,
    /// The building-wide total after the change.
    pub building: u32,
}

/// The building's occupancy estimate over virtual time, stored as change
/// points plus a collision-resistant digest — the digest is the
/// bit-reproducibility tripwire the determinism suite and the serve
/// bench compare across pool widths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OccupancyTrajectory {
    /// Every change of any room estimate, in delivery order.
    pub changes: Vec<OccupancyChange>,
    /// Final per-room estimates.
    pub final_rooms: Vec<u32>,
    /// FNV-1a digest of the full change sequence and final state.
    pub hash: u64,
}

impl OccupancyTrajectory {
    /// Folds `changes` and the final room estimates into a trajectory
    /// with its digest.
    pub fn new(changes: Vec<OccupancyChange>, final_rooms: Vec<u32>) -> Self {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            for byte in v.to_le_bytes() {
                hash ^= byte as u64;
                hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        for c in &changes {
            mix(c.seq);
            mix(c.room as u64);
            mix(c.room_count as u64);
            mix(c.building as u64);
        }
        for &r in &final_rooms {
            mix(r as u64);
        }
        Self {
            changes,
            final_rooms,
            hash,
        }
    }

    /// Final building-wide occupancy estimate.
    pub fn final_total(&self) -> u32 {
        self.final_rooms.iter().sum()
    }

    /// The digest as a fixed-width hex string (JSON-friendly).
    pub fn hash_hex(&self) -> String {
        format!("{:016x}", self.hash)
    }
}

/// The trajectory as a JSON object (change points elided, digest and
/// final state kept).
impl From<&OccupancyTrajectory> for JsonValue {
    fn from(o: &OccupancyTrajectory) -> Self {
        JsonValue::object([
            ("hash", o.hash_hex().into()),
            ("changes", o.changes.len().into()),
            ("final_total", o.final_total().into()),
            (
                "final_rooms",
                JsonValue::array(o.final_rooms.iter().copied()),
            ),
        ])
    }
}

/// The full folded result of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Nodes simulated.
    pub nodes: usize,
    /// Rooms fused.
    pub rooms: usize,
    /// Service shards.
    pub shards: usize,
    /// Nominal per-frame service cost the plan scheduled with (ns).
    pub per_frame_ns: u64,
    /// Fleet-wide front-end totals.
    pub totals: ServeTotals,
    /// End-to-end request latency over all shards.
    pub latency: HistogramSummary,
    /// Raw buckets behind [`FleetReport::latency`].
    pub latency_counts: HistogramCounts,
    /// Queue depth distribution over all shards.
    pub queue_depth: HistogramSummary,
    /// Highest queue depth any shard reached.
    pub queue_depth_peak: u64,
    /// Worst per-shard pooled error-budget burn (milli-units).
    pub worst_shard_burn_milli: i64,
    /// One record per executed shard outage, in crash order.
    pub crash_reports: Vec<CrashReport>,
    /// Recovery-time distribution over the run's outages.
    pub recovery: HistogramSummary,
    /// Raw buckets behind [`FleetReport::recovery`] (mergeable).
    pub recovery_counts: HistogramCounts,
    /// Per-shard reports.
    pub shard_reports: Vec<ShardReport>,
    /// Per-node reports.
    pub node_reports: Vec<NodeReport>,
    /// Every delivery's folded record, in arrival order (the invariant
    /// tests assert over these).
    pub deliveries: Vec<Delivery>,
    /// The building's occupancy trajectory and determinism digest.
    pub occupancy: OccupancyTrajectory,
}

impl FleetReport {
    /// Sanity identity of the front-end algebra: every delivery slot is
    /// disposed of exactly once.
    pub fn conservation_holds(&self) -> bool {
        let t = &self.totals;
        t.requests == t.admitted + t.shed + t.downsampled + t.crash_lost
            && self.deliveries.len() as u64 == t.requests + t.gaps
            && t.admitted == t.fused + t.quarantined_frames + self.fallbacks_outside_quarantine()
    }

    /// Executed fallback frames of non-quarantined nodes (they neither
    /// fuse nor count as quarantined).
    fn fallbacks_outside_quarantine(&self) -> u64 {
        self.deliveries
            .iter()
            .filter(|d| d.status == crate::msg::DeliveryStatus::Fallback && !d.quarantined)
            .count() as u64
    }

    /// The report's compact JSON text, `JsonValue::from(self)` written
    /// out: the digest reruns of the same fleet must reproduce.
    pub fn to_json(&self) -> String {
        JsonValue::from(self).to_string()
    }
}

/// The report as a JSON object (the per-run payload of
/// `BENCH_serve.json`).
impl From<&FleetReport> for JsonValue {
    fn from(r: &FleetReport) -> Self {
        JsonValue::object([
            ("nodes", r.nodes.into()),
            ("rooms", r.rooms.into()),
            ("shards", r.shards.into()),
            ("deliveries", r.deliveries.len().into()),
            ("per_frame_ns", r.per_frame_ns.into()),
            ("counters", (&r.totals).into()),
            ("latency_ns", (&r.latency).into()),
            ("queue_depth", (&r.queue_depth).into()),
            ("queue_depth_peak", r.queue_depth_peak.into()),
            ("worst_shard_burn_milli", r.worst_shard_burn_milli.into()),
            (
                "failover",
                JsonValue::object([
                    ("crashes", r.crash_reports.len().into()),
                    ("recovery_ns", (&r.recovery).into()),
                    (
                        "events",
                        JsonValue::array(r.crash_reports.iter().map(JsonValue::from)),
                    ),
                ]),
            ),
            (
                "shards_detail",
                JsonValue::array(r.shard_reports.iter().map(JsonValue::from)),
            ),
            ("occupancy", (&r.occupancy).into()),
        ])
    }
}
