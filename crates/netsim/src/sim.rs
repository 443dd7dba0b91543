//! The simulation driver: event dispatch, node logic, flow driving.

use std::collections::VecDeque;

use sv2p_metrics::{DropCause, Layer, Metrics, SwitchInfo};
use sv2p_packet::packet::Protocol;
use sv2p_packet::{
    FlowId, InnerHeader, OuterHeader, Packet, PacketId, PacketKind, Pip, SwitchTag, TcpFlags,
    TunnelOptions, Vip,
};
use sv2p_simcore::{EventQueue, FxHashMap, ShardState, SimDuration, SimRng, SimTime};
use sv2p_telemetry::profile::{HistKind, Phase, Profiler};
use sv2p_telemetry::{EventKind, LayerName, Sample, TraceEvent, Tracer};
use sv2p_topology::{
    FatTreeConfig, LinkId, NodeId, NodeKind, RoleMap, Routing, Topology,
};
use sv2p_transport::{SenderOps, TcpSender};
use sv2p_vnet::{
    AgentOutput, GatewayDirectory, HostAgent, HostResolution, MappingDb, MappingOp,
    Migration, MisdeliveryPolicy, PacketAction, Placement, Strategy, SwitchAgent,
    SwitchCtx,
};
use v2p_controlplane::LocalControlPlane;

use crate::arena::{PacketArena, PacketRef};
use crate::churn::{ChurnMark, ChurnPlan};
use crate::config::SimConfig;
use crate::faults::{FaultEvent, FaultPlan};
use crate::flows::{FlowKind, FlowSpec, FlowState};
use crate::link::{EnqueueOutcome, LinkState};
use crate::wire::{
    CutEvent, ExecBlock, FlowXfer, GlobalEvent, JournalOp, MetricOp, MovedEvent, ShardSnapshot,
    WindowReport, WireEvent, WorkerCtx,
};

/// Simulator events. Packet-carrying events hold an arena handle, so an
/// event is a few machine words no matter how fat `TunnelOptions` get.
#[derive(Debug)]
pub(crate) enum Event {
    FlowStart(usize),
    UdpSend { flow: usize, idx: usize },
    LinkArrival { link: LinkId, pkt: PacketRef },
    RtoTimer { flow: usize, gen: u64 },
    GatewayDone { node: NodeId, pkt: PacketRef },
    ReInject { node: NodeId, pkt: PacketRef },
    HostForward { node: NodeId, pkt: PacketRef },
    Migrate(usize),
    FaultStart(usize),
    FaultEnd(usize),
    /// A churn-timeline annotation (tenant arrival/departure, migration
    /// wave): counters and telemetry only, no simulation state change.
    ChurnMark(usize),
    /// Periodic telemetry snapshot; reschedules itself while other events
    /// remain pending (so it never keeps an otherwise-finished run alive).
    TelemetrySample,
}

/// A complete, runnable experiment instance.
pub struct Simulation {
    pub(crate) cfg: SimConfig,
    topo: Topology,
    routing: Routing,
    roles: RoleMap,
    /// The embedded control plane owning the ground-truth V2P database
    /// (the simulator is one in-process client of `v2p-controlplane`;
    /// reads go through [`Simulation::db`], writes through `ctl.apply`).
    ctl: LocalControlPlane,
    dir: GatewayDirectory,
    /// VM placement (kept in sync with `db` across migrations).
    pub placement: Placement,
    /// Follow-me rules at old hosts: (old node, vip) -> new pip.
    follow_me: FxHashMap<(NodeId, Vip), Pip>,
    agents: Vec<Option<Box<dyn SwitchAgent>>>,
    agent_rngs: Vec<SimRng>,
    host_agents: Vec<Option<Box<dyn HostAgent>>>,
    /// Dense switch tags; `tags[node] == None` for hosts.
    tags: Vec<Option<SwitchTag>>,
    tag_pips: Vec<Pip>,
    links: Vec<LinkState>,
    /// In-flight packet bodies; events and link queues hold handles.
    arena: PacketArena,
    /// Reusable ECMP candidate buffer (avoids a per-hop allocation).
    route_scratch: Vec<LinkId>,
    pub(crate) events: EventQueue<Event>,
    pub(crate) flows: Vec<FlowState>,
    migrations: Vec<Migration>,
    /// Churn-timeline marks, indexed by `Event::ChurnMark`.
    churn_marks: Vec<ChurnMark>,
    /// Per-gateway busy flag for the bounded-queue overload model
    /// (`GatewayConfig::queue_cap > 0`; legacy unbounded mode otherwise).
    gw_busy: Vec<bool>,
    /// Per-gateway bounded packet queue (overload model only).
    gw_queue: Vec<VecDeque<PacketRef>>,
    /// Scheduled faults, indexed by `Event::FaultStart`/`FaultEnd`.
    fault_plan: Vec<FaultEvent>,
    /// Per-node blackout flag (rebooting switches, out gateways).
    blackout: Vec<bool>,
    /// Per-link up flag; downed links are masked out of ECMP.
    link_up: Vec<bool>,
    /// Per-link RNG streams for stochastic-loss draws, forked off the seed
    /// so fault draws never perturb agent randomness. One stream per link
    /// makes the draw sequence a function of that link's enqueue order
    /// alone — required for the sharded engine to reproduce the oracle's
    /// draws no matter how execution interleaves across shards.
    fault_rngs: Vec<SimRng>,
    /// All recorded measurements.
    pub metrics: Metrics,
    /// Structured event tracing and time-series sampling.
    tracer: Tracer,
    /// Engine self-profiling (wall-clock side channel; never feeds back
    /// into simulation state).
    pub(crate) profiler: Profiler,
    /// Per-node flag: a switch that actually holds cache lines (gates
    /// `CacheLookup` trace events, so non-caching switches stay silent).
    caching: Vec<bool>,
    pub(crate) next_pkt_id: u64,
    /// Packet-hops: link arrivals executed by this instance.
    hops: u64,
    traffic_matrix: FxHashMap<(u32, u32), u64>,
    misdelivery_policy: MisdeliveryPolicy,
    finalized: bool,
    strategy_name: String,
    /// `Some` when this instance executes as one shard of a
    /// `ShardedSimulation`: side effects are journaled instead of applied
    /// globally. `None` (the default) is the single-threaded oracle path.
    pub(crate) worker: Option<WorkerCtx>,
}

impl Simulation {
    /// Builds an experiment: topology, placement, per-switch agents with the
    /// aggregate `total_cache_entries` split evenly among caching switches,
    /// and per-server host agents.
    pub fn new(
        cfg: SimConfig,
        ft: &FatTreeConfig,
        strategy: &dyn Strategy,
        total_cache_entries: usize,
        vms_per_server: u32,
    ) -> Self {
        let topo = ft.build();
        let routing = Routing::new(ft, &topo);
        let roles = RoleMap::classify(&topo);
        let placement = Placement::uniform(&topo, vms_per_server);
        let ctl = LocalControlPlane::with_db(placement.seed_db());
        let dir = GatewayDirectory::from_topology(&topo);

        // Dense switch tags + metrics registration.
        let mut metrics = Metrics::new();
        let mut tags = vec![None; topo.nodes.len()];
        let mut tag_pips = Vec::new();
        let mut caching_switches = 0usize;
        let mut total_weight = 0.0f64;
        for sw in topo.switches() {
            let tag = SwitchTag(tag_pips.len() as u16);
            tags[sw.id.0 as usize] = Some(tag);
            tag_pips.push(sw.pip);
            let role = roles.role(sw.id).expect("switch role");
            let layer = match role.layer() {
                "ToR" => Layer::Tor,
                "Spine" => Layer::Spine,
                _ => Layer::Core,
            };
            metrics.register_switch(
                tag,
                SwitchInfo {
                    layer,
                    pod: sw.kind.pod(),
                },
            );
            if strategy.caches_at(role) {
                caching_switches += 1;
                total_weight += strategy.cache_weight(role);
            }
        }
        // Budget split: switch i gets total * w_i / sum(w) lines (the
        // homogeneous default reduces to total / #switches, §5).
        let lines_for = |role: sv2p_topology::SwitchRole| -> usize {
            if total_cache_entries == 0 || caching_switches == 0 || !strategy.caches_at(role) {
                return 0;
            }
            let w = strategy.cache_weight(role);
            if total_weight <= 0.0 || w <= 0.0 {
                return 0;
            }
            ((total_cache_entries as f64 * w / total_weight) as usize).max(1)
        };

        let base_rng = SimRng::new(cfg.seed);
        let mut agents: Vec<Option<Box<dyn SwitchAgent>>> = Vec::new();
        let mut agent_rngs = Vec::new();
        let mut host_agents: Vec<Option<Box<dyn HostAgent>>> = Vec::new();
        let mut caching = vec![false; topo.nodes.len()];
        for node in &topo.nodes {
            agent_rngs.push(base_rng.fork(node.id.0 as u64));
            match node.kind {
                k if k.is_switch() => {
                    let role = roles.role(node.id).expect("switch role");
                    let tag = tags[node.id.0 as usize].expect("switch tag");
                    let lines = lines_for(role);
                    caching[node.id.0 as usize] = lines > 0;
                    agents.push(Some(strategy.make_switch_agent(node.id, role, tag, lines)));
                    host_agents.push(None);
                }
                NodeKind::Server { .. } => {
                    agents.push(None);
                    host_agents.push(Some(strategy.make_host_agent(node.id, node.pip)));
                }
                _ => {
                    agents.push(None);
                    host_agents.push(None);
                }
            }
        }

        let links = topo
            .links
            .iter()
            .map(|l| {
                LinkState::new(
                    l.bandwidth_bps,
                    sv2p_simcore::SimDuration::from_nanos(l.delay_ns),
                    cfg.port_buffer_bytes,
                )
            })
            .collect();

        let blackout = vec![false; topo.nodes.len()];
        let gw_busy = vec![false; topo.nodes.len()];
        let gw_queue = vec![VecDeque::new(); topo.nodes.len()];
        let link_up = vec![true; topo.links.len()];
        // Labels far outside the node-id space keep the fault streams
        // disjoint from every per-agent fork.
        let fault_rngs = (0..topo.links.len())
            .map(|i| base_rng.fork((1u64 << 32) + i as u64))
            .collect();

        let tracer = Tracer::new(cfg.telemetry);
        let mut sim = Simulation {
            cfg,
            topo,
            routing,
            roles,
            ctl,
            dir,
            placement,
            follow_me: FxHashMap::default(),
            agents,
            agent_rngs,
            host_agents,
            tags,
            tag_pips,
            links,
            arena: PacketArena::new(),
            route_scratch: Vec::new(),
            events: EventQueue::with_capacity(1 << 16),
            flows: Vec::new(),
            migrations: Vec::new(),
            churn_marks: Vec::new(),
            gw_busy,
            gw_queue,
            fault_plan: Vec::new(),
            blackout,
            link_up,
            fault_rngs,
            metrics,
            tracer,
            profiler: Profiler::new(cfg.profile),
            caching,
            next_pkt_id: 0,
            hops: 0,
            traffic_matrix: FxHashMap::default(),
            misdelivery_policy: strategy.misdelivery_policy(),
            finalized: false,
            strategy_name: strategy.name().to_string(),
            worker: None,
        };
        if sim.tracer.enabled() && sim.tracer.config().sample_every_ns > 0 {
            // First snapshot at t = 0; workload events scheduled later at the
            // same instant run after it (the calendar is FIFO at equal times).
            sim.events.schedule_at(SimTime::ZERO, Event::TelemetrySample);
        }
        sim
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.events.now()
    }

    /// Read view of the ground-truth V2P database (served by the embedded
    /// control plane; all writes go through `v2p-controlplane`).
    pub fn db(&self) -> &MappingDb {
        self.ctl.db()
    }

    /// The embedded control plane's cumulative op counters.
    pub fn ctl_stats(&self) -> v2p_controlplane::ServiceStats {
        self.ctl.stats()
    }

    /// Events executed by the calendar so far (run manifests).
    pub fn events_executed(&self) -> u64 {
        self.events.events_executed()
    }

    /// Packet-hops so far: every link traversal of every packet, data and
    /// protocol alike. Unlike the event count, it does not depend on how
    /// many calendar events the link model spends per hop.
    pub fn hops(&self) -> u64 {
        self.hops
    }

    /// The calendar's pending-event high-water mark (run manifests).
    pub fn peak_queue(&self) -> usize {
        self.events.peak_len()
    }

    /// The packet arena's in-flight high-water mark — a proxy for what the
    /// run would have allocated per-packet without the arena (run
    /// manifests).
    pub fn peak_arena(&self) -> usize {
        self.arena.peak()
    }

    /// Packets currently in flight in the arena (profiler occupancy
    /// samples).
    pub(crate) fn arena_live(&self) -> usize {
        self.arena.live()
    }

    /// The telemetry tracer (read events/samples after a run).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Mutable tracer access (harnesses that write trace files).
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// The engine self-profiler (disabled unless `SimConfig::profile`).
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// Read-only topology access.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Read-only routing access.
    pub fn routing(&self) -> &Routing {
        &self.routing
    }

    /// Read-only role access.
    pub fn roles(&self) -> &RoleMap {
        &self.roles
    }

    /// The gateway directory in use.
    pub fn gateway_directory(&self) -> &GatewayDirectory {
        &self.dir
    }

    /// Registers the workload. Flow ids are assigned densely in call order.
    pub fn add_flows(&mut self, specs: impl IntoIterator<Item = FlowSpec>) {
        for spec in specs {
            let idx = self.flows.len();
            let start = spec.start;
            self.flows.push(FlowState::new(FlowId(idx as u64), spec));
            self.events.schedule_at(start, Event::FlowStart(idx));
        }
    }

    /// Registers a VM migration.
    pub fn add_migration(&mut self, m: Migration) {
        let idx = self.migrations.len();
        self.events.schedule_at(m.at, Event::Migrate(idx));
        self.migrations.push(m);
    }

    /// Registers a generated churn plan: its tenant flows, its migration
    /// schedule, and the timeline marks that feed telemetry and the churn
    /// counters.
    pub fn apply_churn_plan(&mut self, plan: &ChurnPlan) {
        self.add_flows(plan.flows.iter().cloned());
        for &m in &plan.migrations {
            self.add_migration(m);
        }
        self.add_churn_marks(plan.marks.iter().copied());
    }

    /// Schedules churn-timeline marks. Split out of [`Self::apply_churn_plan`]
    /// so the sharded engine can register marks on the driver calendar while
    /// routing the plan's flows to their owner shards.
    pub(crate) fn add_churn_marks(&mut self, marks: impl IntoIterator<Item = ChurnMark>) {
        for mark in marks {
            let idx = self.churn_marks.len();
            self.events.schedule_at(mark.at(), Event::ChurnMark(idx));
            self.churn_marks.push(mark);
        }
    }

    /// The migration table entry scheduled as `Event::Migrate(idx)`.
    pub(crate) fn migration(&self, idx: usize) -> Migration {
        self.migrations[idx]
    }

    /// Runs until the event queue drains (or `end_of_time`).
    pub fn run(&mut self) {
        let horizon = self.cfg.end_of_time.unwrap_or(SimTime::MAX);
        self.run_until(horizon);
    }

    /// Runs all events up to and including instant `t`.
    pub fn run_until(&mut self, t: SimTime) {
        let horizon = match self.cfg.end_of_time {
            Some(h) => h.min(t),
            None => t,
        };
        if self.profiler.enabled() {
            return self.run_until_profiled(horizon);
        }
        while let Some(ev) = self.events.pop_until(horizon) {
            self.dispatch(ev.payload);
        }
    }

    /// The profiled twin of the `run_until` loop: identical event order
    /// and dispatch, plus wall-clock attribution per event class and
    /// deterministic occupancy samples every 1024 executed events (keyed
    /// off the calendar's event counter, so two same-seed profiled runs
    /// sample at identical points).
    fn run_until_profiled(&mut self, horizon: SimTime) {
        let run_t0 = std::time::Instant::now();
        loop {
            let t0 = std::time::Instant::now();
            let Some(ev) = self.events.pop_until(horizon) else {
                break;
            };
            let t1 = std::time::Instant::now();
            let phase = Self::phase_of(&ev.payload);
            self.dispatch(ev.payload);
            let dispatch_ns = t1.elapsed().as_nanos() as u64;
            self.profiler.phase_add(Phase::Pop, (t1 - t0).as_nanos() as u64);
            self.profiler.phase_add(phase, dispatch_ns);
            if self.events.events_executed() & 1023 == 0 {
                let (ready, wheel, overflow) = self.events.occupancy_breakdown();
                self.profiler
                    .record(HistKind::CalendarLen, (ready + wheel + overflow) as u64);
                self.profiler
                    .record(HistKind::CalendarOverflow, overflow as u64);
                self.profiler
                    .record(HistKind::ArenaLive, self.arena.live() as u64);
            }
        }
        self.profiler.add_run_ns(run_t0.elapsed().as_nanos() as u64);
    }

    /// The profiling phase charged with an event's handler dispatch.
    fn phase_of(ev: &Event) -> Phase {
        match ev {
            Event::FlowStart(_) => Phase::FlowStart,
            Event::UdpSend { .. } => Phase::UdpSend,
            Event::LinkArrival { .. } => Phase::LinkArrival,
            Event::RtoTimer { .. } => Phase::RtoTimer,
            Event::GatewayDone { .. } => Phase::Gateway,
            Event::ReInject { .. } => Phase::ReInject,
            Event::HostForward { .. } => Phase::HostForward,
            Event::Migrate(_) => Phase::Migrate,
            Event::FaultStart(_) | Event::FaultEnd(_) => Phase::Fault,
            Event::ChurnMark(_) => Phase::ChurnMark,
            Event::TelemetrySample => Phase::TelemetrySample,
        }
    }

    /// Per-(src_vm, dst_vm) data-packet counts since the last
    /// [`Self::clear_traffic_matrix`] (requires
    /// `SimConfig::record_traffic_matrix`).
    pub fn traffic_matrix(&self) -> &FxHashMap<(u32, u32), u64> {
        &self.traffic_matrix
    }

    /// Resets traffic-matrix counters (Controller epochs).
    pub fn clear_traffic_matrix(&mut self) {
        self.traffic_matrix.clear();
    }

    /// Installs `entries` into the switch agent at `node` (Controller
    /// baseline; clears previously installed state first when `clear`).
    pub fn install_cache_entries(
        &mut self,
        node: NodeId,
        clear: bool,
        entries: &[(Vip, Pip)],
    ) {
        if !self.install_entries_silent(node, clear, entries) {
            return;
        }
        if self.tracer.enabled() {
            let t = self.events.now().as_nanos();
            let layer = self.layer_name(node);
            for &(vip, pip) in entries {
                let mut ev = TraceEvent::new(t, EventKind::CacheOp).at_node(node.0);
                ev.op = Some("install");
                ev.vip = Some(vip.0);
                ev.pip = Some(pip.0);
                ev.layer = Some(layer);
                self.tracer.record(ev);
            }
        }
    }

    /// The agent-mutation half of [`Self::install_cache_entries`], shared
    /// with the sharded engine (which installs silently on the owning shard
    /// and traces once on the master). Returns false if `node` has no
    /// switch agent.
    pub(crate) fn install_entries_silent(
        &mut self,
        node: NodeId,
        clear: bool,
        entries: &[(Vip, Pip)],
    ) -> bool {
        let Some(agent) = self.agents[node.0 as usize].as_mut() else {
            return false;
        };
        if clear {
            agent.clear_installed();
        }
        for &(vip, pip) in entries {
            agent.install(vip, pip);
        }
        true
    }

    /// Control-plane role reassignment (§4 "Gateway migration"): the switch
    /// keeps its cache ("the cache state does not require migration") but
    /// from now on behaves per the new role's Table-1 policies.
    pub fn reassign_switch_role(&mut self, node: NodeId, role: sv2p_topology::SwitchRole) {
        self.roles.set_role(node, role);
    }

    /// Replaces a switch's agent outright (role migration where the
    /// operator prefers a cold cache "rebuilt at the destination").
    pub fn replace_switch_agent(&mut self, node: NodeId, agent: Box<dyn SwitchAgent>) {
        assert!(
            self.agents[node.0 as usize].is_some(),
            "node {node:?} is not a switch"
        );
        self.agents[node.0 as usize] = Some(agent);
    }

    /// Registers a fault plan: every event's start and end are pushed onto
    /// the queue up front, in plan order, so same-instant faults and packet
    /// events tie-break deterministically (the queue is FIFO at equal
    /// times). May be called mid-run; instants already in the past take
    /// effect immediately.
    pub fn apply_fault_plan(&mut self, plan: FaultPlan) {
        let now = self.now();
        for ev in plan.events() {
            let idx = self.fault_plan.len();
            self.events
                .schedule_at(ev.at().max(now), Event::FaultStart(idx));
            self.events
                .schedule_at(ev.end().max(now), Event::FaultEnd(idx));
            self.fault_plan.push(ev.clone());
        }
    }

    /// Injects a switch failure: the switch's volatile state (its cache) is
    /// lost, as after a reboot. Forwarding continues — SwitchV2P's caches
    /// are opportunistic, so correctness must not depend on them (§2.1).
    pub fn fail_switch(&mut self, node: NodeId) {
        let now = self.now();
        self.metrics.record_fault(now, format!("reboot sw{}", node.0));
        self.cold_reset_switch(node);
    }

    /// Fails every switch at once (the harshest reboot storm).
    pub fn fail_all_switches(&mut self) {
        let now = self.now();
        self.metrics.record_fault(now, "reboot storm: all switches");
        for sw in 0..self.agents.len() {
            if self.agents[sw].is_some() {
                self.cold_reset_switch(NodeId(sw as u32));
            }
        }
    }

    /// Cold-starts one switch: its agent loses all volatile state, and if it
    /// is a ToR the attached servers' host agents reset with it (their
    /// vswitches restart when the rack's uplink switch reboots). Shared by
    /// [`Self::fail_switch`], [`Self::fail_all_switches`] and scheduled
    /// [`FaultEvent::SwitchReboot`]s so every reboot path clears per-switch
    /// state uniformly.
    pub(crate) fn cold_reset_switch(&mut self, node: NodeId) {
        if let Some(agent) = self.agents[node.0 as usize].as_mut() {
            agent.reset();
        }
        let is_tor = self
            .roles
            .role(node)
            .is_some_and(|r| r.layer() == "ToR");
        if is_tor {
            for &link in &self.topo.out_links[node.0 as usize] {
                let peer = self.topo.link(link).to;
                if let Some(host) = self.host_agents[peer.0 as usize].as_mut() {
                    host.reset();
                }
            }
        }
    }

    /// Bytes processed by each switch, with its identity (Figures 7-8).
    ///
    /// Rows follow `topology().switches()` enumeration order — ascending
    /// `NodeId` — which is what makes figure output and the sharded
    /// engine's element-wise merge deterministic across engines, shard
    /// counts, and runs.
    pub fn per_switch_bytes(&self) -> Vec<(NodeId, NodeKind, u64)> {
        self.topo
            .switches()
            .map(|sw| {
                let tag = self.tags[sw.id.0 as usize].expect("tag");
                (sw.id, sw.kind, self.metrics.bytes_by_switch[tag.0 as usize])
            })
            .collect()
    }

    /// Per-switch cache occupancy keyed by tag (capacity audits).
    ///
    /// Same ordering contract as [`Simulation::per_switch_bytes`]: rows
    /// follow `topology().switches()` enumeration order (ascending
    /// `NodeId`), so the sharded engine can splice owner-shard occupancies
    /// positionally.
    pub fn cache_occupancy(&self) -> Vec<(SwitchTag, usize)> {
        self.topo
            .switches()
            .map(|sw| {
                let tag = self.tags[sw.id.0 as usize].expect("tag");
                let occ = self.agents[sw.id.0 as usize]
                    .as_ref()
                    .map_or(0, |a| a.occupancy());
                (tag, occ)
            })
            .collect()
    }

    /// Every cached `(switch, vip, pip)` line that disagrees with the
    /// ground-truth mapping database — the stale leftovers of migrations.
    /// Rows follow `topology().switches()` order (same contract as
    /// [`Self::cache_occupancy`]).
    pub fn stale_cache_entries(&self) -> Vec<(NodeId, Vip, Pip)> {
        let mut out = Vec::new();
        for sw in self.topo.switches() {
            if let Some(agent) = self.agents[sw.id.0 as usize].as_ref() {
                for (vip, pip) in agent.entries() {
                    if self.ctl.db().lookup(vip) != Some(pip) {
                        out.push((sw.id, vip, pip));
                    }
                }
            }
        }
        out
    }

    /// Folds receiver/sender statistics into the metrics and returns the
    /// summary. Safe to call repeatedly; the fold happens once.
    pub fn summary(&mut self) -> sv2p_metrics::RunSummary {
        if !self.finalized {
            self.finalized = true;
            for f in &self.flows {
                self.metrics.reordered_segments += f.tcp_rx.reordered_segments;
                if let Some(tx) = &f.tcp_tx {
                    self.metrics.retransmissions += tx.retransmits;
                }
            }
        }
        let name = self.strategy_name.clone();
        self.metrics.summary(&name)
    }

    // ------------------------------------------------------------------
    // Event dispatch
    // ------------------------------------------------------------------

    fn dispatch(&mut self, ev: Event) {
        match ev {
            Event::FlowStart(idx) => self.on_flow_start(idx),
            Event::UdpSend { flow, idx } => self.on_udp_send(flow, idx),
            Event::LinkArrival { link, pkt } => self.on_link_arrival(link, pkt),
            Event::RtoTimer { flow, gen } => self.on_rto_timer(flow, gen),
            Event::GatewayDone { node, pkt } => self.on_gateway_done(node, pkt),
            Event::ReInject { node, pkt } => self.handle_at_switch(node, pkt, None, false),
            Event::HostForward { node, pkt } => self.on_host_forward(node, pkt),
            Event::Migrate(idx) => self.on_migrate(idx),
            Event::FaultStart(idx) => self.on_fault_start(idx),
            Event::FaultEnd(idx) => self.on_fault_end(idx),
            Event::ChurnMark(idx) => self.on_churn_mark(idx),
            Event::TelemetrySample => self.on_telemetry_sample(),
        }
    }

    // ------------------------------------------------------------------
    // Telemetry
    // ------------------------------------------------------------------

    /// Ends a packet's life as a drop: records the metrics counter and a
    /// trace event (data packets only — protocol packets vanish silently,
    /// as before) and frees the arena slot.
    fn drop_packet(
        &mut self,
        h: PacketRef,
        node: NodeId,
        cause: DropCause,
        label: &'static str,
    ) {
        let (is_data, flow, id) = {
            let p = self.arena.get(h);
            (matches!(p.kind, PacketKind::Data), p.flow.0, p.id.0)
        };
        if is_data {
            self.metrics.record_drop(cause);
            if self.tracer.enabled() {
                self.trace_drop_ids(flow, id, node, label);
            }
        }
        self.arena.free(h);
    }

    /// Drop tracing from already-captured packet ids.
    fn trace_drop_ids(&mut self, flow: u64, pkt: u64, node: NodeId, cause: &'static str) {
        let mut ev = TraceEvent::new(self.events.now().as_nanos(), EventKind::Drop)
            .packet(flow, pkt)
            .at_node(node.0);
        ev.cause = Some(cause);
        self.trace(ev);
    }

    /// Lowercase wire name of a switch's layer.
    fn layer_name(&self, node: NodeId) -> LayerName {
        match self.roles.role(node).map(|r| r.layer()) {
            Some("ToR") => "tor",
            Some("Spine") => "spine",
            _ => "core",
        }
    }

    /// Takes one time-series snapshot and re-arms the sampler while any
    /// other event remains pending.
    fn on_telemetry_sample(&mut self) {
        let now = self.events.now();
        let (mut q_total, mut q_max) = (0u64, 0u64);
        for l in &self.links {
            let q = l.queue_len(now) as u64;
            q_total += q;
            q_max = q_max.max(q);
        }
        let (mut occ_tor, mut occ_spine, mut occ_core) = (0u64, 0u64, 0u64);
        for sw in self.topo.switches() {
            let occ = self.agents[sw.id.0 as usize]
                .as_ref()
                .map_or(0, |a| a.occupancy()) as u64;
            match self.roles.role(sw.id).map(|r| r.layer()) {
                Some("ToR") => occ_tor += occ,
                Some("Spine") => occ_spine += occ,
                _ => occ_core += occ,
            }
        }
        let widx = (now.as_nanos() / self.metrics.window_len_ns()) as usize;
        let hit_rate_window = self.metrics.windows.get(widx).and_then(|w| w.hit_rate());
        self.tracer.samples.push(Sample {
            t_ns: now.as_nanos(),
            events_executed: self.events.events_executed(),
            pending_events: self.events.len() as u64,
            queue_pkts_total: q_total,
            queue_pkts_max: q_max,
            occ_tor,
            occ_spine,
            occ_core,
            hit_rate_window,
            hit_rate_cum: self.metrics.hit_rate(),
            gateway_pkts_cum: self.metrics.gateway_packets,
        });
        if !self.events.is_empty() {
            let period = SimDuration::from_nanos(self.tracer.config().sample_every_ns);
            self.events.schedule_in(period, Event::TelemetrySample);
        }
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    fn on_fault_start(&mut self, idx: usize) {
        let now = self.now();
        let ev = self.fault_plan[idx].clone();
        self.metrics.record_fault(now, ev.label());
        match ev {
            FaultEvent::SwitchReboot { node, .. } | FaultEvent::GatewayOutage { node, .. } => {
                self.blackout[node.0 as usize] = true;
            }
            FaultEvent::LinkDown { link, .. } => {
                self.link_up[link.0 as usize] = false;
            }
            FaultEvent::LossRate { link, rate, .. } => match link {
                Some(l) => self.links[l.0 as usize].loss_rate += rate,
                None => {
                    for l in &mut self.links {
                        l.loss_rate += rate;
                    }
                }
            },
        }
    }

    fn on_fault_end(&mut self, idx: usize) {
        let now = self.now();
        let ev = self.fault_plan[idx].clone();
        self.metrics
            .record_fault(now, format!("{} cleared", ev.label()));
        match ev {
            FaultEvent::SwitchReboot { node, .. } => {
                self.blackout[node.0 as usize] = false;
                // Back up, but cold: the reboot lost all volatile state.
                self.cold_reset_switch(node);
            }
            FaultEvent::GatewayOutage { node, .. } => {
                self.blackout[node.0 as usize] = false;
            }
            FaultEvent::LinkDown { link, .. } => {
                self.link_up[link.0 as usize] = true;
            }
            FaultEvent::LossRate { link, rate, .. } => {
                // Subtract rather than zero so overlapping windows compose.
                match link {
                    Some(l) => {
                        let lr = &mut self.links[l.0 as usize].loss_rate;
                        *lr = (*lr - rate).max(0.0);
                    }
                    None => {
                        for l in &mut self.links {
                            l.loss_rate = (l.loss_rate - rate).max(0.0);
                        }
                    }
                }
            }
        }
    }

    fn on_flow_start(&mut self, idx: usize) {
        let now = self.now();
        let id = self.flows[idx].id;
        self.m_flow_started(id);
        match self.flows[idx].spec.kind.clone() {
            FlowKind::Tcp { bytes } => {
                let mut tx = TcpSender::new(self.cfg.tcp, bytes);
                let ops = tx.start(now);
                self.flows[idx].tcp_tx = Some(tx);
                self.apply_sender_ops(idx, ops);
            }
            FlowKind::Udp { schedule } => {
                for (i, &(t, _)) in schedule.sends.iter().enumerate() {
                    self.sched_at(t.max(now), Event::UdpSend { flow: idx, idx: i });
                }
            }
        }
    }

    fn on_udp_send(&mut self, flow: usize, idx: usize) {
        let (len, first) = match &self.flows[flow].spec.kind {
            FlowKind::Udp { schedule } => (schedule.sends[idx].1, idx == 0),
            FlowKind::Tcp { .. } => unreachable!("UdpSend on TCP flow"),
        };
        self.send_flow_packet(flow, idx as u32, len, TcpFlags::default(), first, false);
    }

    fn on_rto_timer(&mut self, flow: usize, gen: u64) {
        // Lazy cancellation: a superseded timer event carries an old
        // generation and fires as a no-op.
        let now = self.now();
        let f = &mut self.flows[flow];
        if gen != f.rto_gen || f.completed {
            return;
        }
        f.rto_live = None;
        if f.rto_deadline > now {
            // ACKs pushed the deadline on since this event was scheduled.
            let deadline = f.rto_deadline;
            f.rto_live = Some(deadline);
            self.sched_at(deadline, Event::RtoTimer { flow, gen });
            return;
        }
        let ops = match self.flows[flow].tcp_tx.as_mut() {
            Some(tx) => tx.on_rto(now),
            None => return,
        };
        self.apply_sender_ops(flow, ops);
    }

    fn apply_sender_ops(&mut self, flow: usize, ops: SenderOps) {
        for seg in &ops.segments {
            let first = seg.seq == 0 && !seg.retransmit;
            self.send_flow_packet(
                flow,
                seg.seq as u32,
                seg.len,
                TcpFlags::default(),
                first,
                false,
            );
        }
        let f = &mut self.flows[flow];
        let complete = f.tcp_tx.as_ref().is_some_and(|tx| tx.is_complete());
        if complete && !f.completed {
            f.completed = true;
            let id = f.id;
            // Invalidate any pending retransmission timer.
            f.rto_gen += 1;
            f.rto_live = None;
            self.m_flow_completed(id);
        } else if let Some(deadline) = ops.arm_rto {
            // One live timer event per flow: a later deadline only moves
            // `rto_deadline`, and the live event re-arms itself there when
            // it fires. Only an earlier deadline needs a new event.
            f.rto_deadline = deadline;
            if f.rto_live.is_none_or(|live| deadline < live) {
                f.rto_gen += 1;
                f.rto_live = Some(deadline);
                let gen = f.rto_gen;
                self.sched_at(deadline, Event::RtoTimer { flow, gen });
            }
        }
    }

    /// Builds and transmits one tenant packet for `flow`. `reverse` sends
    /// from the flow's destination back to its source (ACKs).
    #[allow(clippy::too_many_arguments)]
    fn send_flow_packet(
        &mut self,
        flow: usize,
        seq: u32,
        payload: u32,
        flags: TcpFlags,
        first_of_flow: bool,
        reverse: bool,
    ) {
        let now = self.now();
        let f = &self.flows[flow];
        let (src_vm, dst_vm) = if reverse {
            (f.spec.dst_vm, f.spec.src_vm)
        } else {
            (f.spec.src_vm, f.spec.dst_vm)
        };
        let src_vip = self.placement.vips[src_vm];
        let dst_vip = self.placement.vips[dst_vm];
        let src_node = self.placement.node_of(src_vm);
        let src_pip = self.placement.pip_of(src_vm);
        let proto = if f.is_tcp() {
            Protocol::Tcp
        } else {
            Protocol::Udp
        };
        let (src_port, dst_port) = if reverse {
            (80, f.src_port)
        } else {
            (f.src_port, 80)
        };
        let flow_id = f.id;
        let ts_echo_ns = if flags.ack {
            f.tcp_rx.ts_echo().as_nanos()
        } else {
            0
        };
        // Per-flow, per-direction gateway stickiness.
        let gw_key = flow_id.0 * 2 + reverse as u64;

        let resolution = {
            let agent = self.host_agents[src_node.0 as usize]
                .as_mut()
                .expect("sending node has a host agent");
            agent.resolve(now, self.ctl.db(), dst_vip, gw_key)
        };
        let (dst_pip, resolved) = match resolution {
            HostResolution::Direct(pip) => (pip, true),
            HostResolution::Gateway => (self.dir.pick(gw_key), false),
            HostResolution::FirstHopTor => (Pip(0), false),
        };

        let pkt = Packet {
            id: self.alloc_pkt_id(),
            flow: flow_id,
            kind: PacketKind::Data,
            outer: OuterHeader {
                src_pip,
                dst_pip,
                resolved,
            },
            inner: InnerHeader {
                src_vip,
                dst_vip,
                src_port,
                dst_port,
                protocol: proto,
                seq,
                ack: if flags.ack { seq } else { 0 },
                flags,
            },
            opts: TunnelOptions::default(),
            payload,
            switch_hops: 0,
            sent_ns: now.as_nanos(),
            ts_echo_ns,
            first_of_flow,
            visited_gateway: false,
        };

        self.metrics.record_data_sent(now);
        if self.tracer.enabled() {
            let mut ev = TraceEvent::new(now.as_nanos(), EventKind::PacketSent)
                .packet(flow_id.0, pkt.id.0)
                .at_node(src_node.0);
            ev.resolved = Some(resolved);
            ev.vip = Some(dst_vip.0);
            self.trace(ev);
        }
        if self.cfg.record_traffic_matrix {
            *self
                .traffic_matrix
                .entry((src_vm as u32, dst_vm as u32))
                .or_insert(0) += 1;
        }
        let h = self.arena.alloc(pkt);
        self.transmit_from_host(src_node, h);
    }

    fn alloc_pkt_id(&mut self) -> PacketId {
        match self.worker.as_mut() {
            None => {
                let id = PacketId(self.next_pkt_id);
                self.next_pkt_id += 1;
                id
            }
            Some(w) => {
                // Shards hand out provisional ids; with tracing on, the
                // allocation is journaled so the driver can assign the
                // global id and rewrite trace events to it.
                let id = PacketId(w.provisional_pkt_id());
                if self.tracer.enabled() {
                    w.cur_ops.push(JournalOp::PktAlloc(id.0));
                }
                id
            }
        }
    }

    /// Sends the packet out of host `node`'s NIC.
    fn transmit_from_host(&mut self, node: NodeId, pkt: PacketRef) {
        let uplink = self.topo.out_links[node.0 as usize]
            .first()
            .copied()
            .expect("host has an uplink");
        if !self.link_up[uplink.0 as usize] {
            // The host's only uplink is down: nowhere to go.
            self.drop_packet(pkt, node, DropCause::Unroutable, "unroutable");
            return;
        }
        self.enqueue_on_link(uplink, pkt);
    }

    fn enqueue_on_link(&mut self, link: LinkId, pkt: PacketRef) {
        let wire = self.arena.get(pkt).wire_size();
        let from_node = self.topo.link(link).from;
        let now = self.events.now();
        let l = &mut self.links[link.0 as usize];
        // Draw from the dedicated fault stream only while loss is active, so
        // a healthy run consumes no fault randomness at all.
        let outcome = if l.loss_rate > 0.0 {
            let draw = self.fault_rngs[link.0 as usize].uniform();
            l.enqueue_with_loss(now, wire, draw)
        } else {
            l.enqueue(now, wire)
        };
        match outcome {
            EnqueueOutcome::Arrives(at) => self.sched_at(at, Event::LinkArrival { link, pkt }),
            EnqueueOutcome::Dropped => {
                self.drop_packet(pkt, from_node, DropCause::Queue, "queue");
            }
            EnqueueOutcome::Lost => {
                self.drop_packet(pkt, from_node, DropCause::Loss, "loss");
            }
        }
    }

    fn on_link_arrival(&mut self, link: LinkId, pkt: PacketRef) {
        self.hops += 1;
        let dl = self.topo.link(link);
        let node = dl.to;
        let from = dl.from;
        match self.topo.node(node).kind {
            k if k.is_switch() => {
                let ingress = match self.topo.node(from).kind {
                    fk if fk.is_host() => Some(self.topo.node(from).pip),
                    _ => None,
                };
                self.handle_at_switch(node, pkt, ingress, true);
            }
            NodeKind::Server { .. } => self.handle_at_server(node, pkt),
            NodeKind::Gateway { .. } => self.handle_at_gateway(node, pkt),
            _ => unreachable!(),
        }
    }

    // ------------------------------------------------------------------
    // Switch logic
    // ------------------------------------------------------------------

    fn handle_at_switch(
        &mut self,
        node: NodeId,
        pkt: PacketRef,
        ingress: Option<Pip>,
        count: bool,
    ) {
        let idx = node.0 as usize;
        let now = self.events.now();
        if self.blackout[idx] {
            // A rebooting switch drops everything that traverses it.
            self.drop_packet(pkt, node, DropCause::Blackout, "blackout");
            return;
        }
        let tag = self.tags[idx].expect("switch tag");
        let (is_data, wire, flow_id, pkt_id, was_unresolved, first_of_flow, dst_pip) = {
            let p = self.arena.get_mut(pkt);
            if count {
                p.switch_hops = p.switch_hops.saturating_add(1);
            }
            (
                matches!(p.kind, PacketKind::Data),
                p.wire_size(),
                p.flow.0,
                p.id.0,
                !p.outer.resolved,
                p.first_of_flow,
                p.outer.dst_pip,
            )
        };
        if count {
            self.metrics.record_switch_bytes(tag, wire);
        }
        let trace = self.tracer.enabled();
        // Protocol packets carry the default FlowId(0); tracing them would
        // pollute flow 0's packet trace, so lifecycle events are data-only.
        if trace && count && is_data {
            self.trace(
                TraceEvent::new(now.as_nanos(), EventKind::SwitchIngress)
                    .packet(flow_id, pkt_id)
                    .at_node(node.0),
            );
        }
        let was_unresolved = is_data && was_unresolved;
        let role = self.roles.role(node).expect("switch role");
        let dst_attached = self.dst_attached(node, dst_pip);

        let output = {
            let topo = &self.topo;
            let tag_pips = &self.tag_pips;
            let pod_of =
                move |pip: Pip| -> Option<u16> { topo.node_by_pip(pip).and_then(|n| topo.node(n).kind.pod()) };
            let pip_of_tag = move |t: SwitchTag| tag_pips[t.0 as usize];
            let node_info = topo.node(node);
            let mut ctx = SwitchCtx {
                now,
                node,
                tag,
                switch_pip: node_info.pip,
                role,
                my_pod: node_info.kind.pod(),
                ingress_host: ingress,
                dst_attached,
                db: self.ctl.db(),
                rng: &mut self.agent_rngs[idx],
                base_rtt: self.cfg.base_rtt,
                pod_of: &pod_of,
                pip_of_tag: &pip_of_tag,
                trace_cache_ops: trace,
            };
            match self.agents[idx].as_mut() {
                Some(agent) => agent.on_packet(&mut ctx, self.arena.get_mut(pkt)),
                None => AgentOutput::forward(),
            }
        };

        if output.cache_hit {
            self.metrics.record_cache_hit(tag, first_of_flow);
            if is_data {
                // A hit that rewrote the packet to a PIP the control plane
                // has since migrated away from is a *stale* hit: this packet
                // is headed for a misdelivery. The gap between the migration
                // and the last stale hit is the strategy's recovery time.
                let (vip, cur_dst) = {
                    let p = self.arena.get(pkt);
                    (p.inner.dst_vip, p.outer.dst_pip)
                };
                if self.ctl.db().lookup(vip) != Some(cur_dst) {
                    let age = self.metrics.record_stale_hit(vip.0, now);
                    if trace {
                        let mut ev = TraceEvent::new(now.as_nanos(), EventKind::StaleHit)
                            .packet(flow_id, pkt_id)
                            .at_node(node.0);
                        ev.vip = Some(vip.0);
                        ev.pip = Some(cur_dst.0);
                        ev.layer = Some(self.layer_name(node));
                        ev.latency_ns = age;
                        self.trace(ev);
                    }
                }
            }
        }
        if output.spill_inserted {
            self.metrics.spillover_inserts += 1;
        }
        if output.promotion_inserted {
            self.metrics.promotion_inserts += 1;
        }
        if trace {
            // A data packet that arrived unresolved at a switch holding cache
            // lines probed that cache; the agent reported hit/miss.
            if was_unresolved && self.caching[idx] {
                let mut ev = TraceEvent::new(now.as_nanos(), EventKind::CacheLookup)
                    .packet(flow_id, pkt_id)
                    .at_node(node.0);
                ev.hit = Some(output.cache_hit);
                ev.layer = Some(self.layer_name(node));
                self.trace(ev);
            }
            if !output.cache_ops.is_empty() {
                let layer = self.layer_name(node);
                for op in &output.cache_ops {
                    let mut ev = TraceEvent::new(now.as_nanos(), EventKind::CacheOp)
                        .at_node(node.0);
                    if is_data {
                        ev = ev.packet(flow_id, pkt_id);
                    }
                    ev.op = Some(op.name());
                    ev.vip = Some(op.vip().0);
                    ev.pip = op.pip().map(|p| p.0);
                    ev.layer = Some(layer);
                    self.trace(ev);
                }
            }
        }
        for mut extra in output.emit {
            extra.id = self.alloc_pkt_id();
            extra.sent_ns = now.as_nanos();
            match extra.kind {
                PacketKind::Learning(_) => self.metrics.learning_packets += 1,
                PacketKind::Invalidation(_) => self.metrics.invalidation_packets += 1,
                PacketKind::Data => {}
            }
            let eh = self.arena.alloc(extra);
            self.route_from_switch(node, eh);
        }
        match output.action {
            PacketAction::Forward => self.route_from_switch(node, pkt),
            PacketAction::Delay(d) => {
                self.sched_in(d, Event::ReInject { node, pkt });
            }
            PacketAction::Drop => {
                self.drop_packet(pkt, node, DropCause::Queue, "queue");
            }
            PacketAction::Consume => {
                self.arena.free(pkt);
            }
        }
    }

    fn route_from_switch(&mut self, node: NodeId, pkt: PacketRef) {
        let (dst_pip, key) = {
            let p = self.arena.get(pkt);
            (p.outer.dst_pip, p.ecmp_key())
        };
        let Some(dst_node) = self.topo.node_by_pip(dst_pip) else {
            // Unroutable (e.g. a Bluebird packet no ToR translated): drop.
            self.drop_packet(pkt, node, DropCause::Unroutable, "unroutable");
            return;
        };
        if dst_node == node {
            // Addressed to this switch but the agent chose not to consume it.
            self.arena.free(pkt);
            return;
        }
        let next = {
            let link_up = &self.link_up;
            let usable = |l: LinkId| link_up[l.0 as usize];
            self.routing.next_link_filtered_into(
                &self.topo,
                node,
                dst_node,
                key,
                &usable,
                &mut self.route_scratch,
            )
        };
        match next {
            Some(link) => self.enqueue_on_link(link, pkt),
            None => {
                // No route, or every candidate port is down.
                self.drop_packet(pkt, node, DropCause::Unroutable, "unroutable");
            }
        }
    }

    fn dst_attached(&self, node: NodeId, dst_pip: Pip) -> bool {
        match self.topo.node_by_pip(dst_pip) {
            Some(dst_node) if self.topo.node(dst_node).kind.is_host() => {
                self.routing.tor_of(&self.topo, dst_node) == node
            }
            _ => false,
        }
    }

    // ------------------------------------------------------------------
    // Gateway logic
    // ------------------------------------------------------------------

    fn handle_at_gateway(&mut self, node: NodeId, pkt: PacketRef) {
        let now = self.now();
        if self.blackout[node.0 as usize] {
            // An out gateway answers nothing; senders ride their RTO.
            self.drop_packet(pkt, node, DropCause::Blackout, "blackout");
            return;
        }
        let translatable = {
            let p = self.arena.get(pkt);
            matches!(p.kind, PacketKind::Data) && !p.outer.resolved
        };
        if translatable {
            self.metrics.record_gateway_packet(now);
            if self.tracer.enabled() {
                let (flow, id) = {
                    let p = self.arena.get(pkt);
                    (p.flow.0, p.id.0)
                };
                self.trace(
                    TraceEvent::new(now.as_nanos(), EventKind::GatewayIngress)
                        .packet(flow, id)
                        .at_node(node.0),
                );
            }
            let cap = self.cfg.gateway.queue_cap as usize;
            if cap == 0 {
                // Legacy unbounded model: every packet is processed
                // concurrently after the fixed service delay.
                let delay = self.cfg.gateway.processing();
                self.sched_in(delay, Event::GatewayDone { node, pkt });
            } else if !self.gw_busy[node.0 as usize] {
                self.gw_busy[node.0 as usize] = true;
                let delay = self.cfg.gateway.processing();
                self.sched_in(delay, Event::GatewayDone { node, pkt });
            } else if self.gw_queue[node.0 as usize].len() < cap {
                self.gw_queue[node.0 as usize].push_back(pkt);
            } else {
                // Overloaded: the bounded queue sheds the arrival.
                self.drop_packet(pkt, node, DropCause::GatewayShed, "gateway-shed");
            }
        } else {
            // Resolved tenant traffic or protocol packets have no business
            // at a gateway.
            self.drop_packet(pkt, node, DropCause::Unroutable, "unroutable");
        }
    }

    /// Bounded-queue service discipline: each completed translation pulls
    /// the next queued packet into processing (or clears the busy flag).
    /// No-op in the legacy unbounded model.
    fn gateway_pop_next(&mut self, node: NodeId) {
        if self.cfg.gateway.queue_cap == 0 {
            return;
        }
        if let Some(next) = self.gw_queue[node.0 as usize].pop_front() {
            let delay = self.cfg.gateway.processing();
            self.sched_in(delay, Event::GatewayDone { node, pkt: next });
        } else {
            self.gw_busy[node.0 as usize] = false;
        }
    }

    fn on_gateway_done(&mut self, node: NodeId, pkt: PacketRef) {
        if self.blackout[node.0 as usize] {
            // The outage began while this packet was in processing.
            self.drop_packet(pkt, node, DropCause::Blackout, "blackout");
            self.gateway_pop_next(node);
            return;
        }
        let dst_vip = self.arena.get(pkt).inner.dst_vip;
        match self.ctl.db().lookup(dst_vip) {
            Some(pip) => {
                let (flow, id) = {
                    let p = self.arena.get_mut(pkt);
                    p.outer.dst_pip = pip;
                    p.outer.resolved = true;
                    p.visited_gateway = true;
                    // The gateway translated from ground truth; any
                    // stale-route markings are now moot.
                    p.opts.misdelivery = None;
                    p.opts.hit_switch = None;
                    (p.flow.0, p.id.0)
                };
                if self.tracer.enabled() {
                    let mut ev =
                        TraceEvent::new(self.now().as_nanos(), EventKind::GatewayDone)
                            .packet(flow, id)
                            .at_node(node.0);
                    ev.vip = Some(dst_vip.0);
                    ev.pip = Some(pip.0);
                    self.trace(ev);
                }
                self.transmit_from_host(node, pkt);
            }
            None => {
                self.drop_packet(pkt, node, DropCause::Unroutable, "unroutable");
            }
        }
        self.gateway_pop_next(node);
    }

    // ------------------------------------------------------------------
    // Server logic
    // ------------------------------------------------------------------

    fn handle_at_server(&mut self, node: NodeId, pkt: PacketRef) {
        if !matches!(self.arena.get(pkt).kind, PacketKind::Data) {
            // A learning packet that no ToR consumed: harmlessly absorbed.
            self.arena.free(pkt);
            return;
        }
        let vip = self.arena.get(pkt).inner.dst_vip;
        // Hosting is derived straight from the placement (the per-node
        // VIP-set map it replaced was ~O(VMs) of HashSet overhead at
        // million-VM scale, and `relocate` already keeps placement current).
        let is_hosted = self
            .placement
            .index_of(vip)
            .is_some_and(|vm| self.placement.node_of(vm) == node);
        if !is_hosted {
            self.on_misdelivery(node, pkt);
            return;
        }

        // The packet's life ends here: capture everything delivery needs,
        // then release the slot before the transport reacts (its reaction
        // may allocate ACKs or retransmits into the arena).
        let (flow_id, pkt_id, is_ack, ack_no, seq, payload, sent_ns, ts_echo_ns, hops, first) = {
            let p = self.arena.get(pkt);
            (
                p.flow,
                p.id.0,
                p.inner.flags.ack,
                p.inner.ack,
                p.inner.seq,
                p.payload,
                p.sent_ns,
                p.ts_echo_ns,
                p.switch_hops,
                p.first_of_flow,
            )
        };
        self.arena.free(pkt);

        let now = self.now();
        let flow = flow_id.0 as usize;
        debug_assert!(flow < self.flows.len(), "unknown flow id");

        if is_ack {
            // ACK back at the sender.
            let echo = SimTime::from_nanos(ts_echo_ns);
            let ops = match self.flows[flow].tcp_tx.as_mut() {
                Some(tx) => tx.on_ack(now, ack_no as u64, echo),
                None => return,
            };
            self.apply_sender_ops(flow, ops);
            return;
        }

        // Forward-direction data.
        self.m_delivery(sent_ns, hops);
        if self.tracer.enabled() {
            let mut ev = TraceEvent::new(now.as_nanos(), EventKind::Delivery)
                .packet(flow_id.0, pkt_id)
                .at_node(node.0);
            ev.hops = Some(hops);
            ev.latency_ns = Some(now.as_nanos().saturating_sub(sent_ns));
            self.trace(ev);
        }
        if first {
            self.m_first_packet_delivered(flow_id);
        }
        if self.flows[flow].is_tcp() {
            let sent = SimTime::from_nanos(sent_ns);
            let ack = self.flows[flow].tcp_rx.on_data(seq as u64, payload, sent);
            // Emit a pure ACK back to the sender.
            self.send_flow_packet(
                flow,
                ack as u32,
                0,
                TcpFlags {
                    ack: true,
                    ..TcpFlags::default()
                },
                false,
                true,
            );
        } else {
            let f = &mut self.flows[flow];
            f.udp_delivered += 1;
            if f.udp_delivered >= f.udp_total && !f.completed {
                f.completed = true;
                let id = f.id;
                self.m_flow_completed(id);
            }
        }
    }

    fn on_misdelivery(&mut self, node: NodeId, pkt: PacketRef) {
        let now = self.now();
        self.metrics.record_misdelivery(now);
        if self.tracer.enabled() {
            let (flow, id) = {
                let p = self.arena.get(pkt);
                (p.flow.0, p.id.0)
            };
            self.trace(
                TraceEvent::new(now.as_nanos(), EventKind::Misdelivery)
                    .packet(flow, id)
                    .at_node(node.0),
            );
        }
        self.sched_in(
            self.cfg.misdelivery_penalty,
            Event::HostForward { node, pkt },
        );
    }

    fn on_host_forward(&mut self, node: NodeId, pkt: PacketRef) {
        let vip = self.arena.get(pkt).inner.dst_vip;
        match self.misdelivery_policy {
            MisdeliveryPolicy::FollowMe => {
                match self.follow_me.get(&(node, vip)) {
                    Some(&new_pip) => {
                        let p = self.arena.get_mut(pkt);
                        p.outer.dst_pip = new_pip;
                        p.outer.resolved = true;
                    }
                    None => {
                        // No rule: the VM is simply gone; drop.
                        self.drop_packet(pkt, node, DropCause::Unroutable, "unroutable");
                        return;
                    }
                }
            }
            MisdeliveryPolicy::ToGateway => {
                let gw = self.dir.pick(self.arena.get(pkt).flow.0 * 2);
                // Keep the original outer source so the ToR can recognize
                // the forward as a misdelivery and tag it (§3.3), and keep
                // the hit-switch option so it can target invalidations.
                let p = self.arena.get_mut(pkt);
                p.outer.dst_pip = gw;
                p.outer.resolved = false;
            }
        }
        self.transmit_from_host(node, pkt);
    }

    // ------------------------------------------------------------------
    // Migration
    // ------------------------------------------------------------------

    fn on_migrate(&mut self, idx: usize) {
        let m = self.migrations[idx];
        let vm = self
            .placement
            .index_of(m.vip)
            .expect("migrating unknown VIP");
        let old_node = self.placement.node_of(vm);
        let delta = self.ctl.apply(MappingOp::Migrate {
            vip: m.vip,
            to_pip: m.to_pip,
            at_ns: Some(m.at.as_nanos()),
        });
        debug_assert_eq!(delta.old, Some(self.placement.pip_of(vm)));
        self.placement.relocate(vm, m.to_node, m.to_pip);
        // Andromeda-style follow-me rule at the old host.
        self.follow_me.insert((old_node, m.vip), m.to_pip);
        // Every replica records the migration (sharded mode applies this
        // handler as a broadcast global event) so per-migration recovery
        // entries stay index-aligned for the engine's end-of-run fold. The
        // timestamp is the scheduled instant: worker-replica clocks lag the
        // global event's true time.
        self.metrics.record_migration(m.vip.0, m.at);
    }

    /// Records a churn-timeline mark: counters plus a telemetry event.
    /// Driver/oracle only — marks carry no simulation state change, so the
    /// sharded engine never broadcasts them to workers.
    pub(crate) fn on_churn_mark(&mut self, idx: usize) {
        let now = self.now();
        let mark = self.churn_marks[idx];
        let (kind, tenant, n) = match mark {
            ChurnMark::Arrival { tenant, vms, .. } => {
                self.metrics.churn_arrivals += 1;
                (EventKind::ChurnArrival, tenant, vms)
            }
            ChurnMark::Departure { tenant, vms, .. } => {
                self.metrics.churn_departures += 1;
                (EventKind::ChurnDeparture, tenant, vms)
            }
            ChurnMark::Wave { migrations, .. } => {
                self.metrics.migration_waves += 1;
                (EventKind::MigrationWave, 0, migrations)
            }
        };
        if self.tracer.enabled() {
            // Field reuse on the fixed-layout trace record: `vip` carries
            // the tenant id, `hops` the VM (or migration) count.
            let mut ev = TraceEvent::new(now.as_nanos(), kind);
            ev.vip = Some(tenant);
            ev.hops = Some(n.min(u16::MAX as u32) as u16);
            self.trace(ev);
        }
    }

    // ------------------------------------------------------------------
    // Sharded execution (worker side)
    //
    // A `ShardedSimulation` runs one `Simulation` replica per shard plus a
    // thin driver replica whose calendar holds only global events and
    // whose sequence counter is the global `(time, seq)` authority. Each
    // worker owns the persistent calendar of its partition and executes
    // its events directly, window by window. The hooks below make one
    // handler body serve both modes: on the single-threaded path they
    // apply side effects directly; in worker mode they keep scheduling
    // local and journal only the order-sensitive observables for the
    // driver to replay.
    // ------------------------------------------------------------------

    /// Mode-aware scheduling at an absolute time. A worker keeps every
    /// follow-up event it owns: inside the window it goes straight onto
    /// the shard calendar under a provisional key; at or past the boundary
    /// it parks (arena handles intact) until the merge grants its real
    /// global seq. Only packets crossing the pod cut leave the shard, by
    /// value. Every scheduling burns one window ordinal so the driver's
    /// sequence counter stays in lockstep with the single-threaded
    /// calendar.
    fn sched_at(&mut self, at: SimTime, ev: Event) {
        if self.worker.is_none() {
            self.events.schedule_at(at, ev);
            return;
        }
        let (shard, window_end) = {
            let w = self.worker.as_ref().expect("worker mode");
            (w.shard, w.window_end)
        };
        let owner = {
            let w = self.worker.as_ref().expect("worker mode");
            self.owner_of_event(&ev, &w.shard_map)
                .expect("shard handlers never schedule global events")
        };
        if owner == shard {
            let w = self.worker.as_mut().expect("worker mode");
            w.cur_scheds += 1;
            if at < window_end {
                w.state.sched_local(&mut self.events, at, ev);
            } else {
                let ord = w.state.sched_deferred();
                w.pending.push((ord, at, ev));
            }
        } else {
            let wire = self.dematerialize(ev);
            let w = self.worker.as_mut().expect("worker mode");
            w.cur_scheds += 1;
            w.cut_events += 1;
            let ord = w.state.sched_deferred();
            w.cur_cuts.push(CutEvent {
                to: owner,
                ord,
                at,
                ev: wire,
            });
        }
    }

    /// Mode-aware relative scheduling (mirrors `EventQueue::schedule_in`).
    fn sched_in(&mut self, d: SimDuration, ev: Event) {
        if self.worker.is_none() {
            self.events.schedule_in(d, ev);
        } else {
            let at = self.events.now() + d;
            self.sched_at(at, ev);
        }
    }

    /// Mode-aware trace recording: direct to the ring on the oracle path,
    /// journaled for ordered replay on the master ring in worker mode.
    fn trace(&mut self, ev: TraceEvent) {
        match self.worker.as_mut() {
            None => self.tracer.record(ev),
            Some(w) => w.cur_ops.push(JournalOp::Trace(ev)),
        }
    }

    fn m_flow_started(&mut self, id: FlowId) {
        let now = self.events.now();
        match self.worker.as_mut() {
            None => self.metrics.flow_started(id, now),
            Some(w) => w
                .cur_ops
                .push(JournalOp::Metric(MetricOp::FlowStarted(id.0))),
        }
    }

    fn m_flow_completed(&mut self, id: FlowId) {
        let now = self.events.now();
        match self.worker.as_mut() {
            None => self.metrics.flow_completed(id, now),
            Some(w) => w
                .cur_ops
                .push(JournalOp::Metric(MetricOp::FlowCompleted(id.0))),
        }
    }

    fn m_first_packet_delivered(&mut self, id: FlowId) {
        let now = self.events.now();
        match self.worker.as_mut() {
            None => self.metrics.first_packet_delivered(id, now),
            Some(w) => w
                .cur_ops
                .push(JournalOp::Metric(MetricOp::FirstPacketDelivered(id.0))),
        }
    }

    fn m_delivery(&mut self, sent_ns: u64, hops: u16) {
        let now = self.events.now();
        match self.worker.as_mut() {
            None => {
                self.metrics
                    .record_delivery(SimTime::from_nanos(sent_ns), now, hops)
            }
            Some(w) => w
                .cur_ops
                .push(JournalOp::Metric(MetricOp::Delivery { sent_ns, hops })),
        }
    }

    /// Which shard executes `ev`, given the partition's node → shard map;
    /// `None` for global events the driver executes itself. Flow-driving
    /// events belong to the flow's source host, re-evaluated against the
    /// *current* placement each time: a broadcast migration updates every
    /// replica's placement at the migration instant, so later events route
    /// to the new owner shard (the transport state travels with them, see
    /// [`Self::extract_migrated_flows`]).
    pub(crate) fn owner_of_event(&self, ev: &Event, shard_map: &[u16]) -> Option<u16> {
        let node = match ev {
            Event::FlowStart(i)
            | Event::UdpSend { flow: i, .. }
            | Event::RtoTimer { flow: i, .. } => {
                self.placement.node_of(self.flows[*i].spec.src_vm)
            }
            Event::LinkArrival { link, .. } => self.topo.link(*link).to,
            Event::GatewayDone { node, .. }
            | Event::ReInject { node, .. }
            | Event::HostForward { node, .. } => *node,
            Event::Migrate(_)
            | Event::FaultStart(_)
            | Event::FaultEnd(_)
            | Event::ChurnMark(_)
            | Event::TelemetrySample => return None,
        };
        Some(shard_map[node.0 as usize])
    }

    fn take_pkt(&mut self, h: PacketRef) -> Packet {
        let p = self.arena.get(h).clone();
        self.arena.free(h);
        p
    }

    /// Converts an event to its wire form, pulling any packet body out of
    /// this simulation's arena. Global events never cross shards.
    pub(crate) fn dematerialize(&mut self, ev: Event) -> WireEvent {
        match ev {
            Event::FlowStart(i) => WireEvent::FlowStart(i),
            Event::UdpSend { flow, idx } => WireEvent::UdpSend { flow, idx },
            Event::LinkArrival { link, pkt } => WireEvent::LinkArrival {
                link,
                pkt: self.take_pkt(pkt),
            },
            Event::RtoTimer { flow, gen } => WireEvent::RtoTimer { flow, gen },
            Event::GatewayDone { node, pkt } => WireEvent::GatewayDone {
                node,
                pkt: self.take_pkt(pkt),
            },
            Event::ReInject { node, pkt } => WireEvent::ReInject {
                node,
                pkt: self.take_pkt(pkt),
            },
            Event::HostForward { node, pkt } => WireEvent::HostForward {
                node,
                pkt: self.take_pkt(pkt),
            },
            Event::Migrate(_)
            | Event::FaultStart(_)
            | Event::FaultEnd(_)
            | Event::ChurnMark(_)
            | Event::TelemetrySample => unreachable!("global events never cross shards"),
        }
    }

    /// Converts a wire event back to an event, allocating any packet body
    /// into this simulation's arena.
    pub(crate) fn materialize(&mut self, w: WireEvent) -> Event {
        match w {
            WireEvent::FlowStart(i) => Event::FlowStart(i),
            WireEvent::UdpSend { flow, idx } => Event::UdpSend { flow, idx },
            WireEvent::LinkArrival { link, pkt } => Event::LinkArrival {
                link,
                pkt: self.arena.alloc(pkt),
            },
            WireEvent::RtoTimer { flow, gen } => Event::RtoTimer { flow, gen },
            WireEvent::GatewayDone { node, pkt } => Event::GatewayDone {
                node,
                pkt: self.arena.alloc(pkt),
            },
            WireEvent::ReInject { node, pkt } => Event::ReInject {
                node,
                pkt: self.arena.alloc(pkt),
            },
            WireEvent::HostForward { node, pkt } => Event::HostForward {
                node,
                pkt: self.arena.alloc(pkt),
            },
        }
    }

    /// Turns this replica into shard `shard`'s worker. The construction
    /// calendar is discarded (only the driver pre-schedules global events;
    /// workload events are inserted per-owner at registration) and replaced
    /// with an empty *persistent* shard calendar that lives for the whole
    /// run — windows drain it up to each boundary, they never rebuild it.
    pub(crate) fn attach_worker(&mut self, shard: u16, shard_map: Vec<u16>) {
        debug_assert!(self.worker.is_none(), "already a worker");
        self.events = EventQueue::with_capacity(1 << 16);
        self.worker = Some(WorkerCtx::new(shard, shard_map));
    }

    /// Registers flows without scheduling their start events (worker
    /// replicas: the driver owns the calendar).
    pub(crate) fn register_flows(&mut self, specs: impl IntoIterator<Item = FlowSpec>) {
        for spec in specs {
            let idx = self.flows.len();
            self.flows.push(FlowState::new(FlowId(idx as u64), spec));
        }
    }

    /// Registers a fault plan's events without scheduling them (worker
    /// replicas need the plan table for broadcast `FaultStart`/`FaultEnd`
    /// indices to resolve).
    pub(crate) fn register_fault_events(&mut self, plan: &FaultPlan) {
        for ev in plan.events() {
            self.fault_plan.push(ev.clone());
        }
    }

    /// Registers migrations without scheduling their events (worker
    /// replicas: the driver owns the calendar; broadcast `Migrate` events
    /// carry table indices).
    pub(crate) fn register_migrations(&mut self, ms: impl IntoIterator<Item = Migration>) {
        self.migrations.extend(ms);
    }

    /// Extracts (and locally zeroes) the transport state of every flow
    /// whose endpoint VM `vm` just migrated off a node this shard owns.
    /// Zeroing matters: the end-of-run fold sums transport statistics
    /// (`reordered_segments`, `retransmits`) over *all* replicas, so a
    /// moved machine must not stay behind as a double-counted copy.
    pub(crate) fn extract_migrated_flows(&mut self, vm: usize) -> Vec<FlowXfer> {
        let mut out = Vec::new();
        for (i, f) in self.flows.iter_mut().enumerate() {
            let is_tcp = f.is_tcp();
            if f.spec.src_vm == vm && is_tcp {
                out.push(FlowXfer::Sender {
                    flow: i,
                    tcp_tx: f.tcp_tx.take(),
                    rto_gen: f.rto_gen,
                    rto_deadline: f.rto_deadline,
                    rto_live: f.rto_live,
                    completed: f.completed,
                });
            }
            if f.spec.dst_vm == vm {
                let xfer = FlowXfer::Receiver {
                    flow: i,
                    tcp_rx: std::mem::take(&mut f.tcp_rx),
                    udp_delivered: f.udp_delivered,
                    completed: f.completed,
                };
                f.udp_delivered = 0;
                out.push(xfer);
            }
        }
        out
    }

    /// Installs transport state extracted by another shard's
    /// [`Self::extract_migrated_flows`] after a migration moved the flows'
    /// endpoint VM onto a node this shard owns.
    pub(crate) fn inject_migrated_flows(&mut self, bundles: Vec<FlowXfer>) {
        for b in bundles {
            match b {
                FlowXfer::Sender {
                    flow,
                    tcp_tx,
                    rto_gen,
                    rto_deadline,
                    rto_live,
                    completed,
                } => {
                    let f = &mut self.flows[flow];
                    f.tcp_tx = tcp_tx;
                    f.rto_gen = rto_gen;
                    f.rto_deadline = rto_deadline;
                    f.rto_live = rto_live;
                    f.completed = completed;
                }
                FlowXfer::Receiver {
                    flow,
                    tcp_rx,
                    udp_delivered,
                    completed,
                } => {
                    let f = &mut self.flows[flow];
                    f.tcp_rx = tcp_rx;
                    f.udp_delivered = udp_delivered;
                    if !f.is_tcp() {
                        // TCP completion is authoritative on the sender side.
                        f.completed = completed;
                    }
                }
            }
        }
    }

    /// Flushes the window's parked events under their merge-granted global
    /// seqs (`grants` is indexed by window ordinal) and inserts incoming
    /// cross-shard events (cut packets, or a migrated VM's moved calendar
    /// events), all keyed so global `(time, seq)` order is preserved. Must
    /// run before the next window drains — and before any migration
    /// extraction at this boundary, so the pending buffer is empty
    /// whenever flow events move between shards.
    pub(crate) fn apply_boundary(&mut self, grants: &[u64], incoming: Vec<MovedEvent>) {
        let parked = {
            let w = self.worker.as_mut().expect("worker mode");
            std::mem::take(&mut w.pending)
        };
        for (ord, at, ev) in parked {
            self.events.schedule_at_seq(at, grants[ord as usize], ev);
        }
        for m in incoming {
            let ev = self.materialize(m.ev);
            self.events.schedule_at_seq(m.at, m.seq, ev);
        }
    }

    /// Extracts the still-pending calendar events of every flow whose
    /// source VM `vm` just migrated off a node this shard owns. Their
    /// global `(time, seq)` keys travel with them, so the new owner's
    /// calendar continues exactly where this one stopped. Flow-addressed
    /// events carry no packet bodies, so the arena is untouched.
    pub(crate) fn extract_migrated_events(&mut self, vm: usize) -> Vec<MovedEvent> {
        let flows = &self.flows;
        let moved = self.events.extract_if(|ev| match ev {
            Event::FlowStart(i)
            | Event::UdpSend { flow: i, .. }
            | Event::RtoTimer { flow: i, .. } => flows[*i].spec.src_vm == vm,
            _ => false,
        });
        moved
            .into_iter()
            .map(|e| {
                let ev = self.dematerialize(e.payload);
                MovedEvent {
                    at: e.time,
                    seq: e.seq,
                    ev,
                }
            })
            .collect()
    }

    /// Executes one window: drains the shard calendar up to the boundary
    /// key `(bt, bseq)` — every pending event strictly before it, plus any
    /// causal children that land inside the window — and returns the
    /// journal. Events that neither scheduled nor touched an observable
    /// leave no block (their execution is visible only in the report's
    /// scalar counters); the merge never needs them because only blocks
    /// with schedulings anchor child ordinals.
    pub(crate) fn run_window(&mut self, bt: SimTime, bseq: u64) -> WindowReport {
        {
            let w = self.worker.as_mut().expect("run_window on the driver");
            debug_assert!(w.pending.is_empty(), "boundary not applied");
            w.window_end = bt;
            w.state.open_window();
        }
        let mut blocks = Vec::new();
        let mut executed = 0u64;
        let mut last_time = None;
        while let Some(se) = self.events.pop_before(bt, bseq) {
            let seq_ref = ShardState::resolve(se.seq);
            let time = se.time;
            self.dispatch(se.payload);
            executed += 1;
            last_time = Some(time);
            let w = self.worker.as_mut().expect("worker mode");
            let scheds = std::mem::take(&mut w.cur_scheds);
            let cuts = std::mem::take(&mut w.cur_cuts);
            let ops = std::mem::take(&mut w.cur_ops);
            if scheds > 0 || !cuts.is_empty() || !ops.is_empty() {
                blocks.push(ExecBlock {
                    time,
                    seq_ref,
                    scheds,
                    cuts,
                    ops,
                });
            }
        }
        let w = self.worker.as_ref().expect("worker mode");
        let pending_min = w.pending.iter().map(|&(_, at, _)| at).min();
        WindowReport {
            blocks,
            executed,
            last_time,
            cal_next: self.events.peek_time(),
            pending_min,
            cal_len: (self.events.len() + w.pending.len()) as u64,
            arena_live: self.arena_live() as u64,
        }
    }

    /// Applies a driver-executed global event to this replica's mirrored
    /// state (placement, mapping database, blackouts, link health, loss
    /// rates). Runs *outside* `run_window`, so handlers reached from here
    /// must not journal trace/metric ops in worker mode (they would leak
    /// into the next window's first block); fault and migration handlers
    /// only touch replica-local state and commutative/master-only metrics.
    pub(crate) fn apply_global(&mut self, ev: GlobalEvent) {
        match ev {
            GlobalEvent::FaultStart(i) => self.on_fault_start(i),
            GlobalEvent::FaultEnd(i) => self.on_fault_end(i),
            GlobalEvent::Migrate(i) => self.on_migrate(i),
        }
    }

    /// This shard's contribution to a telemetry sample taken at `now`.
    /// Queue depths, occupancy and traffic counters are only non-zero for
    /// state this shard owns, so the driver can sum snapshots across
    /// shards to reproduce the oracle's sample exactly.
    pub(crate) fn shard_snapshot(&self, now: SimTime) -> ShardSnapshot {
        let widx = (now.as_nanos() / self.metrics.window_len_ns()) as usize;
        let (mut q_total, mut q_max) = (0u64, 0u64);
        for l in &self.links {
            let q = l.queue_len(now) as u64;
            q_total += q;
            q_max = q_max.max(q);
        }
        let (mut occ_tor, mut occ_spine, mut occ_core) = (0u64, 0u64, 0u64);
        for sw in self.topo.switches() {
            let occ = self.agents[sw.id.0 as usize]
                .as_ref()
                .map_or(0, |a| a.occupancy()) as u64;
            match self.roles.role(sw.id).map(|r| r.layer()) {
                Some("ToR") => occ_tor += occ,
                Some("Spine") => occ_spine += occ,
                _ => occ_core += occ,
            }
        }
        let (win_data_sent, win_gateway) = self
            .metrics
            .windows
            .get(widx)
            .map_or((0, 0), |w| (w.data_sent, w.gateway));
        let pending = self.events.len() as u64
            + self.worker.as_ref().map_or(0, |w| w.pending.len() as u64);
        ShardSnapshot {
            q_total,
            q_max,
            occ_tor,
            occ_spine,
            occ_core,
            data_sent_cum: self.metrics.data_packets_sent,
            gateway_cum: self.metrics.gateway_packets,
            win_data_sent,
            win_gateway,
            pending,
        }
    }

    /// Merges this replica's traffic-matrix counts into `into` (the
    /// sharded engine reads the union across shards).
    pub(crate) fn merge_traffic_matrix_into(&self, into: &mut FxHashMap<(u32, u32), u64>) {
        for (&k, &v) in &self.traffic_matrix {
            *into.entry(k).or_insert(0) += v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sv2p_simcore::SimDuration;
    use sv2p_transport::UdpSchedule;
    use sv2p_topology::SwitchRole;
    use sv2p_vnet::agents::NoopSwitchAgent;

    /// The plain gateway design: no caching anywhere (the NoCache baseline
    /// lives in `sv2p-baselines`; this local twin keeps netsim's tests
    /// self-contained).
    struct TestNoCache;

    impl Strategy for TestNoCache {
        fn name(&self) -> &'static str {
            "TestNoCache"
        }
        fn caches_at(&self, _role: SwitchRole) -> bool {
            false
        }
        fn make_switch_agent(
            &self,
            _node: NodeId,
            _role: SwitchRole,
            _tag: SwitchTag,
            _lines: usize,
        ) -> Box<dyn SwitchAgent> {
            Box::new(NoopSwitchAgent)
        }
        fn misdelivery_policy(&self) -> MisdeliveryPolicy {
            MisdeliveryPolicy::FollowMe
        }
    }

    fn small_sim() -> Simulation {
        let ft = FatTreeConfig::scaled_ft8(2);
        Simulation::new(SimConfig::default(), &ft, &TestNoCache, 0, 4)
    }

    #[test]
    fn single_tcp_flow_completes_via_gateway() {
        let mut sim = small_sim();
        sim.add_flows([FlowSpec {
            src_vm: 0,
            dst_vm: sim.placement.len() - 1,
            start: SimTime::ZERO,
            kind: FlowKind::Tcp { bytes: 50_000 },
        }]);
        sim.run();
        let s = sim.summary();
        assert_eq!(s.flows_completed, 1, "{s:?}");
        assert_eq!(s.hit_rate, 0.0, "NoCache must have zero hit rate");
        assert!(s.gateway_packets > 0);
        // Every data packet goes through a gateway: first packet latency must
        // include the 40us processing.
        assert!(
            s.avg_first_packet_latency_us > 40.0,
            "first packet latency {} lacks the gateway detour",
            s.avg_first_packet_latency_us
        );
        assert_eq!(s.packets_dropped, 0);
    }

    #[test]
    fn long_tcp_flow_keeps_one_live_rto_timer() {
        // Every ACK of new data moves the retransmission deadline. With one
        // live timer event per flow, a loss-free flow pops about one
        // `RtoTimer` per RTO (never below `min_rto`) rather than one per
        // ACK: the first arm, one re-arm per elapsed RTO, and the disarmed
        // tail that fires as a no-op after completion.
        let cfg = SimConfig {
            profile: true,
            ..SimConfig::default()
        };
        let ft = FatTreeConfig::scaled_ft8(2);
        let mut sim = Simulation::new(cfg, &ft, &TestNoCache, 0, 4);
        sim.add_flows([FlowSpec {
            src_vm: 0,
            dst_vm: sim.placement.len() - 1,
            start: SimTime::ZERO,
            kind: FlowKind::Tcp { bytes: 50_000_000 },
        }]);
        sim.run();
        let s = sim.summary();
        assert_eq!(s.flows_completed, 1, "{s:?}");
        assert_eq!(s.retransmissions, 0, "the flow must be loss-free");
        let fct_ns = (s.avg_fct_us * 1e3) as u64;
        let min_rto = cfg.tcp.min_rto.as_nanos();
        assert!(fct_ns > 8 * min_rto, "flow too short to re-arm: {fct_ns} ns");
        let timers = sim.profiler().phase_calls(Phase::RtoTimer);
        assert!(
            timers <= fct_ns.div_ceil(min_rto) + 2,
            "{timers} RtoTimer events over a {fct_ns} ns flow"
        );
    }

    #[test]
    fn first_packet_latency_matches_hand_computation() {
        // Same rack sender/receiver: path via gateway =
        // host->ToR->spine->core->spine->gwToR->GW (6 links in FT8-scaled(2))
        // ... depends on pod of gateway; just bound it: must be at least
        // 40us (gateway) + 2 * a few links, and below 100us in an idle net.
        let mut sim = small_sim();
        sim.add_flows([FlowSpec {
            src_vm: 0,
            dst_vm: 1,
            start: SimTime::ZERO,
            kind: FlowKind::Tcp { bytes: 1000 },
        }]);
        sim.run();
        let s = sim.summary();
        assert!(s.avg_first_packet_latency_us > 44.0);
        assert!(
            s.avg_first_packet_latency_us < 100.0,
            "{}",
            s.avg_first_packet_latency_us
        );
    }

    #[test]
    fn udp_flow_delivers_all_datagrams() {
        let mut sim = small_sim();
        let sched = UdpSchedule::cbr(
            SimTime::ZERO,
            SimDuration::from_micros(500),
            48_000_000,
            1000,
        );
        let n = sched.len() as u64;
        sim.add_flows([FlowSpec {
            src_vm: 3,
            dst_vm: 200,
            start: SimTime::ZERO,
            kind: FlowKind::Udp { schedule: sched },
        }]);
        sim.run();
        let s = sim.summary();
        assert_eq!(s.flows_completed, 1);
        assert_eq!(s.data_packets_delivered, n);
        assert_eq!(s.packets_dropped, 0);
    }

    #[test]
    fn many_flows_all_complete() {
        let mut sim = small_sim();
        let vms = sim.placement.len();
        let flows: Vec<FlowSpec> = (0..50)
            .map(|i| FlowSpec {
                src_vm: (i * 7) % vms,
                dst_vm: (i * 13 + 5) % vms,
                start: SimTime::from_micros(i as u64),
                kind: FlowKind::Tcp {
                    bytes: 2_000 + 997 * i as u64,
                },
            })
            .filter(|f| f.src_vm != f.dst_vm)
            .collect();
        let n = flows.len() as u64;
        sim.add_flows(flows);
        sim.run();
        let s = sim.summary();
        assert_eq!(s.flows_completed, n, "{s:?}");
        assert_eq!(s.hit_rate, 0.0);
        assert!(s.avg_stretch > 1.0);
    }

    #[test]
    fn migration_with_follow_me_redelivers() {
        let mut sim = small_sim();
        let dst_vm = 0usize;
        let vip = sim.placement.vips[dst_vm];
        // Pick a target server in the other pod.
        let target = sim
            .topology()
            .servers()
            .map(|n| (n.id, n.pip))
            .last()
            .unwrap();
        // A fast CBR flow (packet every ~1.6 us) so several packets are in
        // flight across the ~50 us gateway path when the migration fires.
        let sched = UdpSchedule::cbr(
            SimTime::ZERO,
            SimDuration::from_millis(1),
            5_000_000_000,
            1000,
        );
        let n = sched.len() as u64;
        sim.add_flows([FlowSpec {
            src_vm: sim.placement.len() - 1,
            dst_vm,
            start: SimTime::ZERO,
            kind: FlowKind::Udp { schedule: sched },
        }]);
        sim.add_migration(Migration::new(
            SimTime::from_micros(500),
            vip,
            target.0,
            target.1,
        ));
        sim.run();
        let s = sim.summary();
        assert!(
            s.misdelivered_packets > 0,
            "packets in flight at migration must misdeliver"
        );
        assert_eq!(
            s.data_packets_delivered, n,
            "follow-me must redeliver everything"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut sim = small_sim();
            let vms = sim.placement.len();
            sim.add_flows((0..20).map(|i| FlowSpec {
                src_vm: i % vms,
                dst_vm: (i + 37) % vms,
                start: SimTime::from_micros(i as u64 / 3),
                kind: FlowKind::Tcp {
                    bytes: 5_000 + i as u64,
                },
            }));
            sim.run();
            let s = sim.summary();
            (
                s.avg_fct_us,
                s.data_packets_sent,
                s.gateway_packets,
                s.total_switch_bytes,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn end_of_time_stops_the_run() {
        let mut sim = {
            let ft = FatTreeConfig::scaled_ft8(2);
            let cfg = SimConfig {
                end_of_time: Some(SimTime::from_micros(10)),
                ..SimConfig::default()
            };
            Simulation::new(cfg, &ft, &TestNoCache, 0, 4)
        };
        sim.add_flows([FlowSpec {
            src_vm: 0,
            dst_vm: 100,
            start: SimTime::ZERO,
            kind: FlowKind::Tcp { bytes: 10_000_000 },
        }]);
        sim.run();
        assert!(sim.now() <= SimTime::from_micros(10));
        let s = sim.summary();
        assert_eq!(s.flows_completed, 0);
    }

    #[test]
    fn heterogeneous_weights_split_the_budget() {
        // A strategy that gives ToRs 3x the core share.
        struct Weighted;
        impl Strategy for Weighted {
            fn name(&self) -> &'static str {
                "Weighted"
            }
            fn caches_at(&self, _role: SwitchRole) -> bool {
                true
            }
            fn cache_weight(&self, role: SwitchRole) -> f64 {
                match role {
                    SwitchRole::Tor | SwitchRole::GatewayTor => 3.0,
                    _ => 1.0,
                }
            }
            fn make_switch_agent(
                &self,
                _node: NodeId,
                role: SwitchRole,
                _tag: SwitchTag,
                lines: usize,
            ) -> Box<dyn SwitchAgent> {
                // Record the capacity through a probe agent.
                struct Probe(usize);
                impl SwitchAgent for Probe {
                    fn on_packet(
                        &mut self,
                        _ctx: &mut SwitchCtx<'_>,
                        _pkt: &mut Packet,
                    ) -> AgentOutput {
                        AgentOutput::forward()
                    }
                    fn occupancy(&self) -> usize {
                        self.0 // repurposed: report configured capacity
                    }
                }
                let _ = role;
                Box::new(Probe(lines))
            }
        }
        let ft = FatTreeConfig::scaled_ft8(2);
        let sim = Simulation::new(SimConfig::default(), &ft, &Weighted, 3200, 4);
        let mut tor_lines = None;
        let mut core_lines = None;
        for sw in sim.topology().switches() {
            let occ = sim.agents[sw.id.0 as usize].as_ref().unwrap().occupancy();
            match sim.roles().role(sw.id).unwrap() {
                SwitchRole::Tor => tor_lines = Some(occ),
                SwitchRole::Core => core_lines = Some(occ),
                _ => {}
            }
        }
        let (t, c) = (tor_lines.unwrap(), core_lines.unwrap());
        // 3:1 split up to integer truncation.
        assert!(
            (t as i64 - 3 * c as i64).abs() <= 3,
            "ToR {t} lines vs core {c}"
        );
    }

    #[test]
    fn telemetry_traces_lifecycle_and_samples() {
        let ft = FatTreeConfig::scaled_ft8(2);
        let cfg = SimConfig {
            telemetry: sv2p_telemetry::TelemetryConfig::enabled(),
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(cfg, &ft, &TestNoCache, 0, 4);
        sim.add_flows([FlowSpec {
            src_vm: 0,
            dst_vm: sim.placement.len() - 1,
            start: SimTime::ZERO,
            kind: FlowKind::Tcp { bytes: 20_000 },
        }]);
        sim.run();
        let tracer = sim.tracer();
        let count = |k: EventKind| tracer.events().filter(|e| e.kind == k).count();
        assert!(count(EventKind::PacketSent) > 0);
        assert!(count(EventKind::SwitchIngress) > 0);
        assert!(
            count(EventKind::GatewayIngress) > 0,
            "NoCache sends every first-sighting through a gateway"
        );
        assert_eq!(
            count(EventKind::GatewayIngress),
            count(EventKind::GatewayDone),
            "a healthy run finishes every gateway translation it starts"
        );
        assert!(count(EventKind::Delivery) > 0);
        assert_eq!(count(EventKind::Drop), 0);
        assert!(!tracer.samples.is_empty(), "sampler must have fired");
        assert_eq!(tracer.dropped(), 0);
        // Events come out in chronological order.
        let ts: Vec<u64> = tracer.events().map(|e| e.t_ns).collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn telemetry_disabled_records_nothing() {
        let mut sim = small_sim();
        sim.add_flows([FlowSpec {
            src_vm: 0,
            dst_vm: 100,
            start: SimTime::ZERO,
            kind: FlowKind::Tcp { bytes: 5_000 },
        }]);
        sim.run();
        assert_eq!(sim.tracer().total_recorded(), 0);
        assert!(sim.tracer().samples.is_empty());
    }

    #[test]
    fn traffic_matrix_records_per_pair_counts() {
        let ft = FatTreeConfig::scaled_ft8(2);
        let cfg = SimConfig {
            record_traffic_matrix: true,
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(cfg, &ft, &TestNoCache, 0, 4);
        sim.add_flows([FlowSpec {
            src_vm: 2,
            dst_vm: 9,
            start: SimTime::ZERO,
            kind: FlowKind::Tcp { bytes: 10_000 },
        }]);
        sim.run();
        let tm = sim.traffic_matrix();
        assert!(tm[&(2, 9)] >= 10, "forward data packets recorded");
        assert!(tm.contains_key(&(9, 2)), "ACK direction recorded");
        sim.clear_traffic_matrix();
        assert!(sim.traffic_matrix().is_empty());
    }
}
