//! Shard failover: deterministic crash/restart scheduling, room
//! migration, the checkpointed admission posture and the burn-driven
//! adaptive admission controller.
//!
//! Shards are the unit of failure that actually takes serving layers
//! down: PR 8's fleet only injected *node*-level chaos, so every fusion
//! shard was immortal. This module teaches the co-simulation that a
//! shard can die mid-run and come back:
//!
//! * [`CrashConfig`] plans [`CrashEvent`]s the way [`StormConfig`] plans
//!   fault storms — seeded from the fleet seed, placed in virtual time,
//!   so the whole failure drill is bit-reproducible at any pool width.
//! * [`CrashPolicy`] decides what happens to the frames queued on a
//!   crashing shard: re-route them to the rooms' failover shards, shed
//!   them (lost-in-crash), or hold them across the downtime.
//! * [`RouteTable`] migrates a crashed shard's rooms to surviving shards
//!   (the ROADMAP's cross-shard rebalancing) and returns them home on
//!   restart — all driven by the virtual-time schedule.
//! * A periodic checkpoint records each live shard's admission
//!   [`Posture`] (throttle flag, adaptive watermarks and stride), which
//!   the shard restores on restart, and every node's fusion/health
//!   estimator, which a crash rolls back to; only the newest checkpoint
//!   is kept. Hold-last-good fusion covers the gap between the
//!   checkpoint and the crash.
//! * [`AdaptiveAdmission`] derives the effective watermarks and the
//!   downsample aggressiveness from the error-budget burn of a sliding
//!   window of admission outcomes instead of the static knobs, with
//!   hysteresis against the error budget — an overloaded or
//!   degraded-by-failover shard trades latency for coverage on its own.
//!
//! [`StormConfig`]: crate::StormConfig

use std::collections::VecDeque;

use pcount_telemetry::ErrorBudget;
use pcount_tensor::SplitMix64;

/// Salt of the per-shard crash-schedule seed (distinct from the node
/// stream and fault salts in `node.rs`).
const CRASH_SALT: u64 = 0xD6E8_FEB8_6659_FD93;

/// What a crashing shard does with the frames sitting in its bounded
/// queue at the instant of the crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPolicy {
    /// Re-enqueue each queued frame onto its room's failover shard (in
    /// queue order, respecting the target's capacity — overflow is
    /// shed). The default: degraded service beats lost frames.
    Reroute,
    /// Drop the queue outright; every queued frame is counted
    /// lost-in-crash ([`DeliveryStatus::CrashLost`]).
    ///
    /// [`DeliveryStatus::CrashLost`]: crate::DeliveryStatus::CrashLost
    Shed,
    /// Keep the queue; the frames wait out the downtime and are served
    /// after the restart (latency absorbs the outage).
    Hold,
}

/// A deterministic shard-crash fault class: every `shard_stride`-th
/// shard crashes once, inside a window placed as fractions of the run
/// span, with seeded per-shard jitter — the shard-level sibling of
/// [`StormConfig`](crate::StormConfig).
#[derive(Debug, Clone, PartialEq)]
pub struct CrashConfig {
    /// Every `shard_stride`-th shard crashes (`1` = every shard).
    pub shard_stride: usize,
    /// `(crash, restart)` instants as fractions of the run span.
    pub window: (f64, f64),
    /// Seeded per-shard jitter on both instants, as a fraction of the
    /// run span (keeps affected shards from failing in lock-step).
    pub jitter: f64,
    /// Disposal of the frames queued at the crash instant.
    pub policy: CrashPolicy,
}

impl CrashConfig {
    /// Whether `shard` is inside the crash schedule's blast radius.
    pub fn affects(&self, shard: usize) -> bool {
        shard.is_multiple_of(self.shard_stride.max(1))
    }
}

impl Default for CrashConfig {
    /// Every other shard crashes around 40% of the run and restarts
    /// around 65%, rerouting its queue.
    fn default() -> Self {
        Self {
            shard_stride: 2,
            window: (0.4, 0.65),
            jitter: 0.04,
            policy: CrashPolicy::Reroute,
        }
    }
}

/// One planned shard outage, in virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashEvent {
    /// The crashing shard.
    pub shard: usize,
    /// Virtual instant of the crash.
    pub crash_ns: i64,
    /// Virtual instant of the restart (strictly after the crash; may
    /// land past the last arrival, in which case the shard recovers
    /// with nothing left to serve).
    pub restart_ns: i64,
}

/// Expands a [`CrashConfig`] into the run's [`CrashEvent`]s. A pure
/// function of `(config, shard count, fleet seed, run span)`, so the
/// plan and fold phases and every pool width agree on the schedule.
pub fn plan_crashes(
    crash: &CrashConfig,
    shards: usize,
    seed: u64,
    start_ns: i64,
    end_ns: i64,
) -> Vec<CrashEvent> {
    let span = end_ns.saturating_sub(start_ns).max(0);
    if span == 0 {
        return Vec::new();
    }
    let mut out = Vec::new();
    for shard in 0..shards {
        if !crash.affects(shard) {
            continue;
        }
        let mut rng = SplitMix64::new(seed ^ (shard as u64 + 1).wrapping_mul(CRASH_SALT));
        let mut jitter = || -> i64 {
            let j = (span as f64 * crash.jitter) as i64;
            if j <= 0 {
                return 0;
            }
            (rng.next_u64() % (2 * j as u64 + 1)) as i64 - j
        };
        let crash_ns = (start_ns + (span as f64 * crash.window.0) as i64 + jitter()).max(start_ns);
        let restart_ns =
            (start_ns + (span as f64 * crash.window.1) as i64 + jitter()).max(crash_ns + 1);
        out.push(CrashEvent {
            shard,
            crash_ns,
            restart_ns,
        });
    }
    out.sort_by_key(|e| (e.crash_ns, e.shard));
    out
}

/// One entry of the failover timeline: checkpoints, crashes and
/// restarts interleaved with arrivals in virtual-time order. Both the
/// plan and the fold replay the same timeline, so admission and fusion
/// recovery agree on every instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FailoverEvent {
    /// Periodic checkpoint boundary: snapshot every live shard.
    Checkpoint,
    /// Shard crash (index into the planned [`CrashEvent`] list).
    Crash(usize),
    /// Shard restart (index into the planned [`CrashEvent`] list).
    Restart(usize),
}

/// Builds the merged `(instant, event)` timeline: checkpoint boundaries
/// every `period_ns` from the first arrival, plus every crash/restart.
/// Ties are broken checkpoint-first (a checkpoint coinciding with a
/// crash still captures the pre-crash state), then crash before
/// restart.
pub(crate) fn failover_timeline(
    events: &[CrashEvent],
    start_ns: i64,
    end_ns: i64,
    period_ns: i64,
) -> Vec<(i64, FailoverEvent)> {
    if events.is_empty() {
        return Vec::new();
    }
    let horizon = events
        .iter()
        .map(|e| e.restart_ns)
        .max()
        .unwrap_or(end_ns)
        .max(end_ns);
    let mut timeline = Vec::new();
    if period_ns > 0 {
        let mut t = start_ns.saturating_add(period_ns);
        while t <= horizon {
            timeline.push((t, FailoverEvent::Checkpoint));
            t = t.saturating_add(period_ns);
        }
    }
    for (i, e) in events.iter().enumerate() {
        timeline.push((e.crash_ns, FailoverEvent::Crash(i)));
        timeline.push((e.restart_ns, FailoverEvent::Restart(i)));
    }
    // Checkpoint < Crash < Restart at equal instants.
    let rank = |ev: &FailoverEvent| match ev {
        FailoverEvent::Checkpoint => 0u8,
        FailoverEvent::Crash(_) => 1,
        FailoverEvent::Restart(_) => 2,
    };
    timeline.sort_by_key(|(t, ev)| (*t, rank(ev)));
    timeline
}

/// The live room→shard routing table. Rooms are homed on
/// `room % shards`; a crash deterministically migrates the crashed
/// shard's rooms to the next surviving shard, and a restart returns the
/// shard's homed rooms (and adopts any room stranded on a still-down
/// shard).
#[derive(Debug, Clone)]
pub(crate) struct RouteTable {
    route: Vec<usize>,
    down: Vec<bool>,
    shards: usize,
}

impl RouteTable {
    pub(crate) fn new(rooms: usize, shards: usize) -> Self {
        Self {
            route: (0..rooms).map(|r| r % shards).collect(),
            down: vec![false; shards],
            shards,
        }
    }

    /// The shard currently serving `room`.
    pub(crate) fn shard_for(&self, room: usize) -> usize {
        self.route[room]
    }

    /// Whether `shard` is currently down.
    pub(crate) fn is_down(&self, shard: usize) -> bool {
        self.down[shard]
    }

    /// The next surviving shard after `from`, scanning round-robin.
    fn next_live(&self, from: usize) -> Option<usize> {
        (1..=self.shards)
            .map(|k| (from + k) % self.shards)
            .find(|&s| !self.down[s])
    }

    /// Marks `shard` down and migrates every room it was serving to the
    /// next surviving shard. Returns `(migrated rooms, rooms that were
    /// routed to the shard at the crash)` — the latter is the fusion
    /// rollback scope.
    pub(crate) fn crash(&mut self, shard: usize) -> (u64, Vec<u32>) {
        self.down[shard] = true;
        let rooms_at_crash: Vec<u32> = self
            .route
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s == shard)
            .map(|(r, _)| r as u32)
            .collect();
        let Some(target) = self.next_live(shard) else {
            return (0, rooms_at_crash);
        };
        for &r in &rooms_at_crash {
            self.route[r as usize] = target;
        }
        (rooms_at_crash.len() as u64, rooms_at_crash)
    }

    /// Marks `shard` live again, returns its homed rooms to it and
    /// adopts any room still routed to a down shard. Returns the number
    /// of migrations.
    pub(crate) fn restart(&mut self, shard: usize) -> u64 {
        self.down[shard] = false;
        let mut migrated = 0;
        for r in 0..self.route.len() {
            let home = r % self.shards;
            if (home == shard && self.route[r] != shard) || self.down[self.route[r]] {
                self.route[r] = shard;
                migrated += 1;
            }
        }
        migrated
    }
}

/// Burn-driven adaptive admission for a [`FleetConfig`]: instead of the
/// static `high_watermark`/`low_watermark`/every-other-frame knobs, the
/// shard derives its effective watermarks and downsample stride from
/// the error-budget burn of a sliding window over its own admission
/// outcomes.
///
/// [`FleetConfig`]: crate::FleetConfig
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveConfig {
    /// Offered frames per evaluation window (per shard).
    pub window: usize,
    /// Burn (milli-units) at or above which the shard tightens:
    /// watermarks step down, the downsample stride steps up.
    pub tighten_burn_milli: i64,
    /// Burn (milli-units) at or below which the shard relaxes back
    /// toward the configured knobs. Must be strictly below
    /// [`tighten_burn_milli`](Self::tighten_burn_milli) — that gap is
    /// the hysteresis that stops flapping.
    pub relax_burn_milli: i64,
    /// Floor of the effective high watermark (never tightened below).
    pub min_high_watermark: usize,
    /// Watermark change per adjustment step.
    pub watermark_step: usize,
    /// Ceiling of the downsample stride (keep 1 frame in `stride`; the
    /// static behaviour is stride 2 = every other frame).
    pub max_downsample_stride: u32,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        Self {
            window: 32,
            tighten_burn_milli: 1_000,
            relax_burn_milli: 250,
            min_high_watermark: 4,
            watermark_step: 8,
            max_downsample_stride: 4,
        }
    }
}

/// A shard's admission posture: the backpressure throttle flag and the
/// effective watermarks and stride. A checkpoint records it and a
/// restart restores it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Posture {
    throttled: bool,
    eff_high: usize,
    eff_low: usize,
    stride: u32,
}

/// The per-shard adaptive admission controller (plan-phase state).
///
/// Every offered frame reports whether admission degraded it (shed or
/// downsampled); once the window fills, its error-budget burn is judged
/// against the hysteresis band and the effective watermarks and stride
/// move one step. A checkpoint records the controller's [`Posture`], so
/// a restarted shard resumes with the admission posture it had at the
/// last checkpoint.
#[derive(Debug, Clone)]
pub(crate) struct AdaptiveAdmission {
    cfg: Option<AdaptiveConfig>,
    base_high: usize,
    base_low: usize,
    /// Effective high watermark (== `base_high` when static).
    pub(crate) eff_high: usize,
    /// Effective low watermark (== `base_low` when static).
    pub(crate) eff_low: usize,
    /// Keep 1 frame in `stride` while throttled (2 = static behaviour).
    pub(crate) stride: u32,
    window: VecDeque<bool>,
    /// Times the controller tightened (watermarks down / stride up).
    pub(crate) tightens: u64,
    /// Times the controller relaxed back toward the configured knobs.
    pub(crate) relaxes: u64,
}

impl AdaptiveAdmission {
    pub(crate) fn new(cfg: Option<AdaptiveConfig>, high: usize, low: usize) -> Self {
        Self {
            cfg,
            base_high: high,
            base_low: low,
            eff_high: high,
            eff_low: low,
            stride: 2,
            window: VecDeque::new(),
            tightens: 0,
            relaxes: 0,
        }
    }

    /// The posture a checkpoint records, with the shard's `throttled`
    /// flag.
    pub(crate) fn posture(&self, throttled: bool) -> Posture {
        Posture {
            throttled,
            eff_high: self.eff_high,
            eff_low: self.eff_low,
            stride: self.stride,
        }
    }

    /// Restores a checkpointed posture and returns its throttle flag.
    /// The evaluation window restarts empty — pre-crash samples
    /// described a queue that no longer exists.
    pub(crate) fn restore(&mut self, posture: Posture) -> bool {
        self.eff_high = posture.eff_high;
        self.eff_low = posture.eff_low;
        self.stride = posture.stride;
        self.window.clear();
        posture.throttled
    }

    /// Derives `eff_low` from `eff_high`, preserving the configured
    /// band's proportions while keeping `low < high`.
    fn scaled_low(&self) -> usize {
        if self.base_high == 0 {
            return 0;
        }
        (self.eff_high * self.base_low / self.base_high).min(self.eff_high.saturating_sub(1))
    }

    /// Feeds one admission outcome (`degraded` = shed or downsampled)
    /// and moves the knobs when the windowed burn crosses the
    /// hysteresis band.
    pub(crate) fn observe(&mut self, degraded: bool, budget: &ErrorBudget) {
        let Some(cfg) = self.cfg.clone() else {
            return;
        };
        self.window.push_back(degraded);
        if self.window.len() > cfg.window {
            self.window.pop_front();
        }
        if self.window.len() < cfg.window {
            return;
        }
        let bad = self.window.iter().filter(|&&d| d).count() as u64;
        let burn = budget.burn_milli(bad, self.window.len() as u64);
        if burn >= cfg.tighten_burn_milli {
            let can_tighten =
                self.eff_high > cfg.min_high_watermark || self.stride < cfg.max_downsample_stride;
            if can_tighten {
                self.eff_high = self
                    .eff_high
                    .saturating_sub(cfg.watermark_step)
                    .max(cfg.min_high_watermark);
                self.eff_low = self.scaled_low();
                self.stride = (self.stride + 1).min(cfg.max_downsample_stride);
                self.tightens += 1;
                self.window.clear();
            }
        } else if burn <= cfg.relax_burn_milli {
            let can_relax = self.eff_high < self.base_high || self.stride > 2;
            if can_relax {
                self.eff_high = (self.eff_high + cfg.watermark_step).min(self.base_high);
                self.eff_low = if self.eff_high == self.base_high {
                    self.base_low
                } else {
                    self.scaled_low()
                };
                self.stride = self.stride.saturating_sub(1).max(2);
                self.relaxes += 1;
                self.window.clear();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_plan_is_seeded_and_respects_the_stride() {
        let cfg = CrashConfig {
            shard_stride: 2,
            window: (0.3, 0.6),
            jitter: 0.05,
            policy: CrashPolicy::Reroute,
        };
        let a = plan_crashes(&cfg, 4, 7, 0, 1_000_000);
        let b = plan_crashes(&cfg, 4, 7, 0, 1_000_000);
        assert_eq!(a, b, "same seed reproduces the schedule");
        let mut shards: Vec<_> = a.iter().map(|e| e.shard).collect();
        shards.sort_unstable();
        assert_eq!(shards, vec![0, 2], "stride 2 hits shards 0 and 2");
        assert!(
            a.windows(2).all(|w| w[0].crash_ns <= w[1].crash_ns),
            "events come out in crash order"
        );
        for e in &a {
            assert!(e.crash_ns < e.restart_ns, "restart strictly after crash");
            assert!(e.crash_ns >= 0);
        }
        let c = plan_crashes(&cfg, 4, 8, 0, 1_000_000);
        assert_ne!(a, c, "a different seed moves the jittered instants");
    }

    #[test]
    fn zero_span_plans_no_crashes() {
        assert!(plan_crashes(&CrashConfig::default(), 4, 7, 5, 5).is_empty());
    }

    #[test]
    fn timeline_orders_checkpoints_before_crashes_at_a_tie() {
        let events = vec![CrashEvent {
            shard: 0,
            crash_ns: 200,
            restart_ns: 400,
        }];
        let tl = failover_timeline(&events, 0, 500, 100);
        let at_200: Vec<_> = tl.iter().filter(|(t, _)| *t == 200).collect();
        assert_eq!(at_200.len(), 2);
        assert_eq!(*at_200[0], (200, FailoverEvent::Checkpoint));
        assert_eq!(*at_200[1], (200, FailoverEvent::Crash(0)));
        // Boundaries extend to the restart horizon even past end_ns.
        let tl2 = failover_timeline(&events, 0, 250, 100);
        assert!(tl2.contains(&(400, FailoverEvent::Restart(0))));
        assert!(tl2
            .iter()
            .any(|(t, e)| *t == 400 && *e == FailoverEvent::Checkpoint));
    }

    #[test]
    fn routes_migrate_on_crash_and_return_on_restart() {
        let mut rt = RouteTable::new(6, 3);
        assert_eq!(rt.shard_for(4), 1);
        let (migrated, rooms) = rt.crash(1);
        assert_eq!(migrated, 2, "rooms 1 and 4 leave shard 1");
        assert_eq!(rooms, vec![1, 4]);
        assert_eq!(rt.shard_for(1), 2);
        assert_eq!(rt.shard_for(4), 2);
        assert!(rt.is_down(1));
        // A second crash strands nothing: rooms hop to the last survivor.
        let (m2, _) = rt.crash(2);
        assert_eq!(m2, 4, "shard 2's own rooms plus the migrants move");
        assert_eq!(rt.shard_for(1), 0);
        // Restart returns homed rooms and adopts nothing extra.
        assert_eq!(rt.restart(1), 2);
        assert_eq!(rt.shard_for(1), 1);
        assert_eq!(rt.shard_for(4), 1);
        assert_eq!(rt.restart(2), 2);
        assert_eq!(rt.shard_for(2), 2);
    }

    #[test]
    fn all_shards_down_strands_rooms_until_a_restart() {
        let mut rt = RouteTable::new(2, 2);
        rt.crash(0);
        let (m, _) = rt.crash(1);
        assert_eq!(m, 0, "no survivor to migrate to");
        assert!(rt.is_down(rt.shard_for(1)), "room stranded on a down shard");
        // First restart adopts every stranded room.
        assert_eq!(rt.restart(0), 2);
        assert_eq!(rt.shard_for(1), 0);
        // The other shard's restart takes its homed room back.
        assert_eq!(rt.restart(1), 1);
        assert_eq!(rt.shard_for(1), 1);
    }

    #[test]
    fn adaptive_tightens_under_burn_and_relaxes_with_hysteresis() {
        let budget = ErrorBudget {
            allowed_bad_per_mille: 50,
        };
        let cfg = AdaptiveConfig {
            window: 8,
            tighten_burn_milli: 1_000,
            relax_burn_milli: 250,
            min_high_watermark: 4,
            watermark_step: 8,
            max_downsample_stride: 4,
        };
        let mut adm = AdaptiveAdmission::new(Some(cfg), 48, 16);
        // A clean window moves nothing (already at the configured knobs).
        for _ in 0..8 {
            adm.observe(false, &budget);
        }
        assert_eq!((adm.eff_high, adm.stride), (48, 2));
        assert_eq!(adm.relaxes, 0, "no-op relax does not count");
        // One degraded frame out of 8 already blows a 5% budget.
        for i in 0..8 {
            adm.observe(i == 0, &budget);
        }
        assert_eq!(adm.tightens, 1);
        assert_eq!(adm.eff_high, 40);
        assert!(adm.eff_low < adm.eff_high);
        assert_eq!(adm.stride, 3);
        // Sustained burn keeps tightening down to the floors.
        for _ in 0..10 {
            for i in 0..8 {
                adm.observe(i < 2, &budget);
            }
        }
        assert_eq!(adm.eff_high, 4);
        assert_eq!(adm.stride, 4);
        let tightens = adm.tightens;
        for i in 0..8 {
            adm.observe(i < 2, &budget);
        }
        assert_eq!(adm.tightens, tightens, "floored controller stops counting");
        // Clean windows relax one step at a time, back to the base.
        for _ in 0..20 {
            for _ in 0..8 {
                adm.observe(false, &budget);
            }
        }
        assert_eq!((adm.eff_high, adm.eff_low, adm.stride), (48, 16, 2));
        assert!(adm.relaxes >= 6);
    }

    #[test]
    fn adaptive_checkpoint_restore_recovers_the_posture() {
        let budget = ErrorBudget {
            allowed_bad_per_mille: 50,
        };
        let mut adm = AdaptiveAdmission::new(Some(AdaptiveConfig::default()), 48, 16);
        for _ in 0..64 {
            adm.observe(true, &budget);
        }
        assert!(adm.eff_high < 48);
        let mut fresh = AdaptiveAdmission::new(Some(AdaptiveConfig::default()), 48, 16);
        let boot = fresh.posture(false);
        assert!(
            fresh.restore(adm.posture(true)),
            "the throttle flag returns"
        );
        assert_eq!(
            (fresh.eff_high, fresh.eff_low, fresh.stride),
            (adm.eff_high, adm.eff_low, adm.stride)
        );
        assert!(!fresh.restore(boot));
        assert_eq!((fresh.eff_high, fresh.eff_low, fresh.stride), (48, 16, 2));
    }

    #[test]
    fn static_controller_never_moves() {
        let budget = ErrorBudget::default();
        let mut adm = AdaptiveAdmission::new(None, 48, 16);
        for _ in 0..256 {
            adm.observe(true, &budget);
        }
        assert_eq!((adm.eff_high, adm.eff_low, adm.stride), (48, 16, 2));
        assert_eq!(adm.tightens + adm.relaxes, 0);
    }
}
