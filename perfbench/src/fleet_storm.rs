//! `fleet_storm`: one `FleetService::run` over the default 240-node,
//! 4-shard building under a fault storm, shard crashes and adaptive
//! admission, with a frame period short enough to overload admission.
//!
//! Arrivals are an open loop in virtual time, so on the host one run is
//! one batch job. Every run must conserve its frames, and the traced
//! run's report must be byte-identical to the untraced one.

use crate::trace::timed;
use crate::{Outcome, Workload};
use pcount_dataset::{DatasetConfig, IrDataset};
use pcount_fleet::{
    AdaptiveConfig, CrashConfig, FleetConfig, FleetReport, FleetService, StormConfig,
};
use pcount_kernels::{CpuPool, Deployment, Target};
use pcount_quant::QuantizedCnn;
use pcount_telemetry::{counter, histogram};
use std::time::Instant;

/// Sensor frame period: short enough that admission sheds and
/// downsamples.
const FRAME_PERIOD_MS: u32 = 50;

/// A provisioned fleet with its warmed CPU pool.
struct Fleet {
    service: FleetService,
    pool: CpuPool,
}

pub struct FleetStorm {
    width: usize,
    model: QuantizedCnn,
    data: IrDataset,
    cfg: FleetConfig,
    /// The fleet set-up provisioned, until the first pass runs it.
    provisioned: Option<Fleet>,
}

impl FleetStorm {
    /// Trains the demo model, compiles it, provisions the fleet and
    /// warms its CPU pool.
    pub fn setup(seed: u64, width: usize) -> Self {
        let (model, _) = pcount_bench::demo_int8_model(seed);
        let data = IrDataset::generate(&DatasetConfig::tiny(), seed);
        let cfg = FleetConfig {
            frame_period_ms: FRAME_PERIOD_MS,
            storm: Some(StormConfig::default()),
            crash: Some(CrashConfig::default()),
            adaptive: Some(AdaptiveConfig::default()),
            seed,
            ..FleetConfig::default()
        };
        let mut storm = Self {
            width,
            model,
            data,
            cfg,
            provisioned: None,
        };
        storm.provisioned = Some(storm.provision());
        storm
    }

    /// Compiles the model, provisions a fleet and warms its pool.
    fn provision(&self) -> Fleet {
        let deployment = timed("kernels", "compile", || {
            Deployment::new(&self.model, Target::Maupiti).expect("demo model fits on-chip")
        });
        let service = timed("fleet", "provision", || {
            FleetService::new(deployment, self.cfg.clone(), &self.data).expect("provision")
        });
        let pool = timed("fleet", "pool_warm", || {
            service.make_pool(self.width).expect("warm-up inference")
        });
        Fleet { service, pool }
    }

    /// A fresh fleet for one pass, as the serve bench starts every run:
    /// the one set-up provisioned, or a new one once that has run. The
    /// caller drops it after the pass, so one fleet is resident at a time.
    fn fleet(&mut self) -> Fleet {
        self.provisioned.take().unwrap_or_else(|| self.provision())
    }

    fn outcome(&self, report: &FleetReport) -> Outcome {
        let t = &report.totals;
        let sum = |f: fn(&pcount_fleet::NodeReport) -> u64| -> u64 {
            report.node_reports.iter().map(f).sum()
        };
        let fallback = sum(|n| n.fallback);
        let retries = sum(|n| n.retries);
        let mut errors = Vec::new();
        if !report.conservation_holds() {
            errors.push("fleet report violates frame conservation".into());
        }
        let requests = t.requests.max(1) as f64;
        Outcome {
            attempted: t.requests,
            failed: t.shed + t.crash_lost + fallback,
            frames: t.requests,
            digest: report.to_json(),
            errors,
            deterministic: vec![
                ("fused_share", t.fused as f64 / requests),
                ("virtual_p99_ms", report.latency.p99 as f64 * 1e-6),
                ("fleet.requests", t.requests as f64),
                ("fleet.admitted", t.admitted as f64),
                ("fleet.shed", t.shed as f64),
                ("fleet.downsampled", t.downsampled as f64),
                ("fleet.crash_lost", t.crash_lost as f64),
                ("fleet.rerouted", t.rerouted as f64),
                ("fleet.quarantine_trips", t.quarantine_trips as f64),
                ("fleet.crashes", t.crashes as f64),
                ("fleet.queue_depth_peak", report.queue_depth_peak as f64),
                ("resilience.retries", retries as f64),
                ("resilience.fallback", fallback as f64),
                ("resilience.cpu_resets", sum(|n| n.cpu_resets) as f64),
                (
                    "resilience.retry_share",
                    retries as f64 / t.admitted.max(1) as f64,
                ),
            ],
            layers: Vec::new(),
        }
    }
}

impl Workload for FleetStorm {
    fn untraced(&mut self) -> (f64, Outcome) {
        let mut fleet = self.fleet();
        let start = Instant::now();
        let report = fleet.service.run(&mut fleet.pool);
        let wall = start.elapsed().as_secs_f64();
        (wall, self.outcome(&report))
    }

    fn traced(&mut self) -> (f64, Outcome) {
        // Provision under spans, after dropping any fleet set-up left.
        self.provisioned = None;
        let Fleet { service, mut pool } = self.provision();
        let frames = counter("deploy/frames").value();
        let latency = histogram("deploy/frame_latency_ns").counts();
        let start = Instant::now();
        let report = timed("fleet", "run", || service.run(&mut pool));
        let wall = start.elapsed().as_secs_f64();
        let busy = histogram("deploy/frame_latency_ns").summary_since(&latency);
        let busy_s = busy.mean * busy.count as f64 * 1e-9;
        let mut outcome = self.outcome(&report);
        outcome.layers = vec![
            (
                "kernels.sim_frames",
                (counter("deploy/frames").value() - frames) as f64,
            ),
            ("kernels.sim_busy_s", busy_s),
            ("kernels.sim_share", busy_s / (wall * pool.threads() as f64)),
        ];
        (wall, outcome)
    }
}
