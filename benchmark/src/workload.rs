//! The benchmark's workloads: the inputs each one derives from `--seed`,
//! and the set-up path from those inputs to a ready engine.

use std::time::Instant;

use sv2p_bench::harness::{to_flow_specs, StrategyKind};
use sv2p_bench::Scale;
use sv2p_netsim::{ChurnPlan, ChurnSpec, Engine, SimConfig};
use sv2p_simcore::SimTime;
use sv2p_topology::FatTreeConfig;
use sv2p_traces::{alibaba, hadoop, TraceFlow};

/// End of simulated time for the churn workload, in horizons (the `churn`
/// experiment's bound; without one a churned run does not terminate).
const CHURN_END_OF_TIME_HORIZONS: u64 = 5;

/// The three named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// FT8-10K fabric, Hadoop flow mix, analysis cache budget.
    Ft8Hadoop,
    /// FT16-400K fabric, 10K short RPCs over 409,600 VMs, cache at 50% of
    /// active addresses.
    Ft16Alibaba,
    /// `Ft8Hadoop` plus heavy VM churn over the Hadoop horizon.
    Ft8Churn,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::Ft8Hadoop,
        Workload::Ft16Alibaba,
        Workload::Ft8Churn,
    ];

    /// Distinct instances (derived seeds) one run simulates: enough that
    /// the medians across them hold steady from one `--seed` to the next.
    pub fn instances(self) -> usize {
        match self {
            Workload::Ft8Hadoop | Workload::Ft8Churn => 5,
            Workload::Ft16Alibaba => 16,
        }
    }

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Ft8Hadoop => "ft8-hadoop",
            Workload::Ft16Alibaba => "ft16-alibaba",
            Workload::Ft8Churn => "ft8-churn",
        }
    }

    /// Parses a `--workload` value.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The fixed configuration of this workload at `seed`.
    pub fn spec(self, seed: u64) -> Spec {
        let scale = Scale::Quick;
        match self {
            Workload::Ft8Hadoop | Workload::Ft8Churn => Spec {
                workload: self,
                topology: scale.ft8(),
                vms_per_server: 80,
                cache_entries: scale.analysis_cache_entries("hadoop"),
                seed,
            },
            Workload::Ft16Alibaba => {
                let (topology, _, vms_per_server) = scale.alibaba();
                Spec {
                    workload: self,
                    topology,
                    vms_per_server,
                    cache_entries: scale.active_addresses("alibaba") / 2,
                    seed,
                }
            }
        }
    }
}

/// One workload at one seed: everything set-up needs besides the flows.
#[derive(Debug, Clone)]
pub struct Spec {
    pub workload: Workload,
    pub topology: FatTreeConfig,
    pub vms_per_server: u32,
    pub cache_entries: usize,
    pub seed: u64,
}

/// Wall-clock of each set-up step, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Flow-trace generation.
    pub gen_s: f64,
    /// `Engine::new`: topology, routing, roles, placement, V2P install,
    /// switch and host agents.
    pub engine_new_s: f64,
    /// `Engine::add_flows`.
    pub add_flows_s: f64,
    /// `ChurnPlan::generate` + `Engine::apply_churn_plan` (churn only).
    pub churn_plan_s: f64,
}

impl SetupTimes {
    /// The whole set-up.
    pub fn total(&self) -> f64 {
        self.gen_s + self.engine_new_s + self.add_flows_s + self.churn_plan_s
    }
}

/// The flow trace of `spec`, generated from its seed.
fn flows(spec: &Spec) -> Vec<TraceFlow> {
    let scale = Scale::Quick;
    match spec.workload {
        Workload::Ft8Hadoop | Workload::Ft8Churn => {
            let mut cfg = scale.hadoop();
            cfg.seed = spec.seed;
            hadoop(&cfg)
        }
        Workload::Ft16Alibaba => {
            let (_, mut cfg, _) = scale.alibaba();
            cfg.seed = spec.seed;
            alibaba(&cfg)
        }
    }
}

/// The churn timeline's horizon: the last Hadoop flow start, in whole µs.
fn horizon_us(flows: &[TraceFlow]) -> u64 {
    let last_ns = flows.iter().map(|f| f.start_ns).max().unwrap_or(0);
    last_ns.div_ceil(1_000).max(1)
}

/// A set-up engine with the inputs it was loaded from.
pub struct Ready {
    pub engine: Engine,
    /// The instance's flow trace.
    pub trace: Vec<TraceFlow>,
    /// Flows handed to the engine: trace flows plus churn tenant flows.
    pub registered: u64,
    pub times: SetupTimes,
}

/// Set-up from the spec to a ready single-threaded SwitchV2P engine, timed
/// step by step.
pub fn setup(spec: &Spec, profile: bool) -> Ready {
    let mut t = SetupTimes::default();

    let t0 = Instant::now();
    let trace = flows(spec);
    t.gen_s = t0.elapsed().as_secs_f64();

    let end_of_time = match spec.workload {
        Workload::Ft8Churn => Some(SimTime::from_micros(
            horizon_us(&trace) * CHURN_END_OF_TIME_HORIZONS,
        )),
        _ => None,
    };
    let cfg = SimConfig {
        seed: spec.seed,
        end_of_time,
        profile,
        ..SimConfig::default()
    };
    let t0 = Instant::now();
    let strategy = StrategyKind::SwitchV2P.build();
    let mut engine = Engine::new(
        cfg,
        &spec.topology,
        strategy.as_ref(),
        spec.cache_entries,
        spec.vms_per_server,
        1,
    );
    t.engine_new_s = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let specs = to_flow_specs(&trace, engine.placement().len());
    let mut registered = specs.len() as u64;
    engine.add_flows(specs);
    t.add_flows_s = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    if spec.workload == Workload::Ft8Churn {
        let churn = ChurnSpec::heavy(spec.seed, horizon_us(&trace));
        let servers: Vec<_> = engine.topology().servers().map(|n| (n.id, n.pip)).collect();
        let plan = ChurnPlan::generate(&churn, engine.placement(), &servers);
        engine.apply_churn_plan(&plan);
        registered += plan.flows.len() as u64;
    }
    t.churn_plan_s = t0.elapsed().as_secs_f64();

    Ready {
        engine,
        trace,
        registered,
        times: t,
    }
}
