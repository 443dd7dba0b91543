//! The engine facade: one experiment-facing type over the single-threaded
//! [`Simulation`] and the multi-core [`ShardedSimulation`].
//!
//! Harnesses pick the engine with one knob (`shards`): `shards <= 1` is the
//! plain simulator, anything larger builds the pod-sharded engine. Both
//! produce byte-identical results (see `tests/sharded_equiv.rs`), so the
//! choice is purely about wall-clock — experiment code never branches on
//! it.

use sv2p_metrics::{Metrics, RunSummary};
use sv2p_packet::{Pip, SwitchTag, Vip};
use sv2p_simcore::{FxHashMap, SimTime};
use sv2p_telemetry::profile::Profiler;
use sv2p_telemetry::Tracer;
use sv2p_topology::{FatTreeConfig, NodeId, NodeKind, RoleMap, Routing, SwitchRole, Topology};
use sv2p_vnet::{GatewayDirectory, MappingDb, Migration, Placement, Strategy};

use crate::churn::ChurnPlan;
use crate::config::SimConfig;
use crate::faults::FaultPlan;
use crate::flows::FlowSpec;
use crate::sharded::ShardedSimulation;
use crate::sim::Simulation;

/// A simulation engine: single-threaded or pod-sharded, same observables.
pub enum Engine {
    /// The plain event-loop simulator (`shards <= 1`).
    Single(Box<Simulation>),
    /// The windowed multi-core engine (`shards > 1`).
    Sharded(Box<ShardedSimulation>),
}

impl Engine {
    /// Builds the engine implied by `shards`: the plain simulator for
    /// `shards <= 1`, the pod-sharded engine otherwise (which itself falls
    /// back to single-threaded execution on degenerate partitions).
    pub fn new(
        cfg: SimConfig,
        ft: &FatTreeConfig,
        strategy: &dyn Strategy,
        total_cache_entries: usize,
        vms_per_server: u32,
        shards: u16,
    ) -> Self {
        if shards <= 1 {
            Engine::Single(Box::new(Simulation::new(
                cfg,
                ft,
                strategy,
                total_cache_entries,
                vms_per_server,
            )))
        } else {
            Engine::Sharded(Box::new(ShardedSimulation::new(
                cfg,
                ft,
                strategy,
                total_cache_entries,
                vms_per_server,
                shards,
            )))
        }
    }

    /// The number of shards actually executing in parallel: 1 for the
    /// single-threaded engine (including sharded fallback).
    pub fn shards(&self) -> u16 {
        match self {
            Engine::Single(_) => 1,
            Engine::Sharded(s) => {
                if s.is_fallback() {
                    1
                } else {
                    s.partition().shards()
                }
            }
        }
    }

    /// Barrier windows the sharded engine dispatched so far (0 for the
    /// single-threaded engine and the sharded fallback).
    pub fn window_count(&self) -> u64 {
        match self {
            Engine::Single(_) => 0,
            Engine::Sharded(s) => s.window_count(),
        }
    }

    /// Cut-link events exchanged between shards so far (0 for the
    /// single-threaded engine and the sharded fallback).
    pub fn cut_events(&self) -> u64 {
        match self {
            Engine::Single(_) => 0,
            Engine::Sharded(s) => s.cut_events(),
        }
    }

    /// Registers the workload.
    pub fn add_flows(&mut self, specs: impl IntoIterator<Item = FlowSpec>) {
        match self {
            Engine::Single(s) => s.add_flows(specs),
            Engine::Sharded(s) => s.add_flows(specs),
        }
    }

    /// Registers a VM migration (sharded: a global event whose flow state
    /// moves between owner shards at the migration instant).
    pub fn add_migration(&mut self, m: Migration) {
        match self {
            Engine::Single(s) => s.add_migration(m),
            Engine::Sharded(s) => s.add_migration(m),
        }
    }

    /// Registers a precomputed churn plan: its flows, migration waves, and
    /// timeline marks.
    pub fn apply_churn_plan(&mut self, plan: &ChurnPlan) {
        match self {
            Engine::Single(s) => s.apply_churn_plan(plan),
            Engine::Sharded(s) => s.apply_churn_plan(plan),
        }
    }

    /// Registers a fault plan.
    pub fn apply_fault_plan(&mut self, plan: FaultPlan) {
        match self {
            Engine::Single(s) => s.apply_fault_plan(plan),
            Engine::Sharded(s) => s.apply_fault_plan(plan),
        }
    }

    /// Runs until the calendar drains.
    pub fn run(&mut self) {
        match self {
            Engine::Single(s) => s.run(),
            Engine::Sharded(s) => s.run(),
        }
    }

    /// Runs all events up to and including instant `t`.
    pub fn run_until(&mut self, t: SimTime) {
        match self {
            Engine::Single(s) => s.run_until(t),
            Engine::Sharded(s) => s.run_until(t),
        }
    }

    /// Finalizes and returns the run summary.
    pub fn summary(&mut self) -> RunSummary {
        match self {
            Engine::Single(s) => s.summary(),
            Engine::Sharded(s) => s.summary(),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        match self {
            Engine::Single(s) => s.now(),
            Engine::Sharded(s) => s.now(),
        }
    }

    /// Events executed so far (identical across engines).
    pub fn events_executed(&self) -> u64 {
        match self {
            Engine::Single(s) => s.events_executed(),
            Engine::Sharded(s) => s.events_executed(),
        }
    }

    /// Packet-hops so far (identical across engines).
    pub fn hops(&self) -> u64 {
        match self {
            Engine::Single(s) => s.hops(),
            Engine::Sharded(s) => s.hops(),
        }
    }

    /// Pending-event high-water mark of the global calendar.
    pub fn peak_queue(&self) -> usize {
        match self {
            Engine::Single(s) => s.peak_queue(),
            Engine::Sharded(s) => s.peak_queue(),
        }
    }

    /// In-flight packet high-water mark (summed across shard arenas).
    pub fn peak_arena(&self) -> usize {
        match self {
            Engine::Single(s) => s.peak_arena(),
            Engine::Sharded(s) => s.peak_arena(),
        }
    }

    /// The telemetry tracer.
    pub fn tracer(&self) -> &Tracer {
        match self {
            Engine::Single(s) => s.tracer(),
            Engine::Sharded(s) => s.tracer(),
        }
    }

    /// Mutable tracer access.
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        match self {
            Engine::Single(s) => s.tracer_mut(),
            Engine::Sharded(s) => s.tracer_mut(),
        }
    }

    /// The engine self-profiler (disabled unless `SimConfig::profile`).
    pub fn profiler(&self) -> &Profiler {
        match self {
            Engine::Single(s) => s.profiler(),
            Engine::Sharded(s) => s.profiler(),
        }
    }

    /// The master metrics. Order-sensitive counters (flow lifecycle) are
    /// exact at any instant; order-free shard-local counters are folded in
    /// by [`Self::summary`].
    pub fn metrics(&self) -> &Metrics {
        match self {
            Engine::Single(s) => &s.metrics,
            Engine::Sharded(s) => s.metrics(),
        }
    }

    /// Read-only topology access.
    pub fn topology(&self) -> &Topology {
        match self {
            Engine::Single(s) => s.topology(),
            Engine::Sharded(s) => s.topology(),
        }
    }

    /// Read-only routing access.
    pub fn routing(&self) -> &Routing {
        match self {
            Engine::Single(s) => s.routing(),
            Engine::Sharded(s) => s.routing(),
        }
    }

    /// Read-only role access.
    pub fn roles(&self) -> &RoleMap {
        match self {
            Engine::Single(s) => s.roles(),
            Engine::Sharded(s) => s.roles(),
        }
    }

    /// The gateway directory in use.
    pub fn gateway_directory(&self) -> &GatewayDirectory {
        match self {
            Engine::Single(s) => s.gateway_directory(),
            Engine::Sharded(s) => s.gateway_directory(),
        }
    }

    /// The VM placement.
    pub fn placement(&self) -> &Placement {
        match self {
            Engine::Single(s) => &s.placement,
            Engine::Sharded(s) => s.placement(),
        }
    }

    /// The ground-truth V2P database.
    pub fn db(&self) -> &MappingDb {
        match self {
            Engine::Single(s) => s.db(),
            Engine::Sharded(s) => s.db(),
        }
    }

    /// Bytes processed by each switch, in `topology().switches()` (NodeId)
    /// order — deterministic across engines and shard counts.
    pub fn per_switch_bytes(&self) -> Vec<(NodeId, NodeKind, u64)> {
        match self {
            Engine::Single(s) => s.per_switch_bytes(),
            Engine::Sharded(s) => s.per_switch_bytes(),
        }
    }

    /// Per-switch cache occupancy, in `topology().switches()` (NodeId)
    /// order — deterministic across engines and shard counts.
    pub fn cache_occupancy(&self) -> Vec<(SwitchTag, usize)> {
        match self {
            Engine::Single(s) => s.cache_occupancy(),
            Engine::Sharded(s) => s.cache_occupancy(),
        }
    }

    /// Every cached `(switch, vip, pip)` line that disagrees with the
    /// ground-truth mapping database — the stale entries a migration left
    /// behind that no strategy machinery has corrected yet.
    pub fn stale_cache_entries(&self) -> Vec<(NodeId, Vip, Pip)> {
        match self {
            Engine::Single(s) => s.stale_cache_entries(),
            Engine::Sharded(s) => s.stale_cache_entries(),
        }
    }

    /// Installs cache entries into the switch agent at `node`.
    pub fn install_cache_entries(&mut self, node: NodeId, clear: bool, entries: &[(Vip, Pip)]) {
        match self {
            Engine::Single(s) => s.install_cache_entries(node, clear, entries),
            Engine::Sharded(s) => s.install_cache_entries(node, clear, entries),
        }
    }

    /// Injects a switch failure (volatile cache loss).
    pub fn fail_switch(&mut self, node: NodeId) {
        match self {
            Engine::Single(s) => s.fail_switch(node),
            Engine::Sharded(s) => s.fail_switch(node),
        }
    }

    /// Fails every switch at once.
    pub fn fail_all_switches(&mut self) {
        match self {
            Engine::Single(s) => s.fail_all_switches(),
            Engine::Sharded(s) => s.fail_all_switches(),
        }
    }

    /// Control-plane role reassignment.
    pub fn reassign_switch_role(&mut self, node: NodeId, role: SwitchRole) {
        match self {
            Engine::Single(s) => s.reassign_switch_role(node, role),
            Engine::Sharded(s) => s.reassign_switch_role(node, role),
        }
    }

    /// Per-(src_vm, dst_vm) data-packet counts (requires
    /// `SimConfig::record_traffic_matrix`).
    pub fn traffic_matrix(&self) -> FxHashMap<(u32, u32), u64> {
        match self {
            Engine::Single(s) => s.traffic_matrix().clone(),
            Engine::Sharded(s) => s.traffic_matrix(),
        }
    }

    /// Resets traffic-matrix counters.
    pub fn clear_traffic_matrix(&mut self) {
        match self {
            Engine::Single(s) => s.clear_traffic_matrix(),
            Engine::Sharded(s) => s.clear_traffic_matrix(),
        }
    }
}
