//! The deterministic multi-core engine: conservative pod-partitioned PDES
//! that reproduces the single-threaded execution bit-for-bit.
//!
//! # Architecture
//!
//! A [`ShardedSimulation`] holds one **driver** [`Simulation`] plus one
//! **worker** replica per shard of a [`PodPartition`] (each pod group is a
//! shard; core switches share a shard). Unlike the retired oracle design —
//! where the driver's calendar held *every* event and workers merely
//! replayed dematerialized window batches — each worker owns the
//! *persistent* calendar of its partition: workload events are inserted at
//! the owner shard at registration and live there until they execute. The
//! driver's calendar holds only global events (faults, migrations, churn
//! marks, telemetry samples), and its sequence counter is the global
//! `(time, seq)` authority.
//!
//! The run proceeds in conservative lookahead windows:
//!
//! 1. The driver computes the window boundary: one lookahead (the
//!    partition's minimum cut-link delay) past the earliest pending event
//!    anywhere, clipped to the `(time, seq)` key of the next global event.
//!    Every shard with work before the boundary drains its own calendar in
//!    parallel on scoped threads — pod-local follow-up events that land
//!    inside the window execute immediately under a provisional key;
//!    events past the boundary park in a pending buffer, arena handles
//!    intact. Because the boundary never exceeds the lookahead, no
//!    cut-link packet emitted inside a window can be *due* inside that
//!    same window on another shard: shards never communicate mid-window.
//! 2. Workers journal only the order-sensitive residue of each executed
//!    event: how many schedulings it performed, any cut-link events bound
//!    for other shards, and the observables (flow-lifecycle metrics, trace
//!    events, packet-id allocations). The driver k-way-merges the blocks
//!    back into global `(time, seq)` order, granting each scheduling the
//!    exact global sequence number the single-threaded engine would have
//!    assigned — so summaries and telemetry are byte-identical to a
//!    single-threaded run regardless of shard count.
//! 3. Cut exchange: the routed cut-link events (resolved to their granted
//!    seqs) and the grants for parked events are delivered right after the
//!    merge, before any later command (channels are FIFO), so every
//!    calendar is globally consistent at each boundary and between
//!    `run_until` calls.
//! 4. Global events execute at their exact `(time, seq)` position between
//!    windows: the driver applies them to the composed state and
//!    broadcasts state changes to every worker.
//!
//! # Migrations
//!
//! A VM migration is a global event: every replica applies the mapping,
//! placement, and follow-me updates at the migration instant, so event
//! ownership (which is re-derived from the placement per event) flips to
//! the new shard for everything scheduled afterwards. When the old and new
//! hosts live on different shards, the driver additionally moves the
//! affected flows' transport state (TCP sender/receiver machines, RTO
//! generations, UDP delivery counters) *and their still-pending calendar
//! events* — global `(time, seq)` keys intact — from the old owner replica
//! to the new one. Both shards are quiescent between windows, so the
//! transfer is race-free and the run stays byte-identical to the
//! single-threaded engine (the `#[cfg(test)]` equivalence reference in
//! `tests/sharded_equiv.rs`).
//!
//! # Limitations
//!
//! Degenerate partitions (one shard, or zero lookahead) run the driver
//! alone as a single-threaded fallback: the driver is a complete
//! simulation and simply runs everything itself.

use std::sync::mpsc;
use std::time::Instant;

use sv2p_metrics::Metrics;
use sv2p_packet::{FlowId, Pip, SwitchTag, Vip};
use sv2p_simcore::{merge_journals, FxHashMap, SimDuration, SimTime};
use sv2p_telemetry::profile::{HistKind, Phase, Profiler};
use sv2p_telemetry::{Sample, Tracer};
use sv2p_topology::{FatTreeConfig, NodeId, NodeKind, PodPartition, RoleMap, Routing, Topology};
use sv2p_vnet::{GatewayDirectory, MappingDb, Migration, Placement, Strategy};

use crate::churn::ChurnPlan;
use crate::config::SimConfig;
use crate::faults::FaultPlan;
use crate::flows::FlowSpec;
use crate::sim::{Event, Simulation};
use crate::wire::{
    ExecBlock, FlowXfer, GlobalEvent, JournalOp, MetricOp, MovedEvent, ShardSnapshot,
};

/// Driver → worker commands. The channel is bounded: the protocol is
/// strict request/response per window, so a small depth suffices.
enum ToWorker {
    /// Drain the shard calendar up to (strictly before) boundary key
    /// `(bt, bseq)`; answered with `FromWorker::Report`.
    Window { bt: SimTime, bseq: u64 },
    /// Deliver the merge's results: real global seqs for this window's
    /// schedulings (indexed by window ordinal — the parked events flush
    /// under theirs) plus incoming cross-shard events, already carrying
    /// real `(time, seq)` keys. Sent right after every merge and applied
    /// before any later command (the channel is FIFO), so calendars are
    /// consistent before the next window, snapshot, or migration transfer.
    Apply {
        grants: Vec<u64>,
        incoming: Vec<MovedEvent>,
    },
    Global(GlobalEvent),
    /// Extract the transport state and pending calendar events of flows
    /// whose endpoint VM `vm` just migrated off this shard; answered with
    /// `FromWorker::Migrated`.
    TakeMigrated { vm: usize },
    /// Install transport state and calendar events extracted from the old
    /// owner shard.
    PutMigrated {
        flows: Vec<FlowXfer>,
        moved: Vec<MovedEvent>,
    },
    Snapshot { at: SimTime },
    Finish,
}

/// Worker → driver responses.
enum FromWorker {
    /// A drained window's journal and scalars, plus the worker-side
    /// wall-clock spent draining it (`0` when profiling is off — the
    /// worker times itself because the driver's barrier span cannot
    /// separate one shard's work from another's).
    Report {
        report: crate::wire::WindowReport,
        replay_ns: u64,
    },
    Migrated {
        flows: Vec<FlowXfer>,
        moved: Vec<MovedEvent>,
    },
    Snapshot(ShardSnapshot),
}

/// A pod-sharded, multi-threaded simulation whose observable results are
/// byte-identical to [`Simulation`] run single-threaded.
pub struct ShardedSimulation {
    driver: Simulation,
    replicas: Vec<Simulation>,
    partition: PodPartition,
    /// Executed-event count matching the single-threaded engine's
    /// (shard-window scalars plus driver-executed global events).
    exec_count: u64,
    /// Time of the last executed event anywhere; the driver's calendar
    /// clock can lag it (shard-local events never pop there).
    last_block_time: SimTime,
    /// Provisional → global packet-id map (tracing only).
    pkt_map: FxHashMap<u64, u64>,
    /// Barrier windows dispatched over the run (tracked even when
    /// profiling is off; perfbench schema v4's `window_count`).
    windows: u64,
    /// Cut-link events exchanged between shards over the run (tracked even
    /// when profiling is off; perfbench schema v4's `cut_events`).
    cut_count: u64,
    /// Run the driver alone, single-threaded (degenerate partition: one
    /// shard, or zero lookahead).
    fallback: bool,
    /// Shard-local counters have been folded into the master metrics.
    folded: bool,
    /// Driver-phase self-profiling (enabled by `SimConfig::profile`; in
    /// fallback mode the driver's own per-event profiler runs instead).
    profiler: Profiler,
}

impl ShardedSimulation {
    /// Builds a sharded experiment over at most `shards` shards (clamped
    /// by the partitioner to what the topology supports). All replicas are
    /// constructed identically from the same seed, so per-node RNG streams
    /// agree across the fleet.
    pub fn new(
        cfg: SimConfig,
        ft: &FatTreeConfig,
        strategy: &dyn Strategy,
        total_cache_entries: usize,
        vms_per_server: u32,
        shards: u16,
    ) -> Self {
        let driver = Simulation::new(cfg, ft, strategy, total_cache_entries, vms_per_server);
        let partition = PodPartition::new(driver.topology(), shards);
        let fallback = partition.shards() < 2 || partition.lookahead_ns() == 0;
        let mut replicas = Vec::new();
        if !fallback {
            for s in 0..partition.shards() {
                let mut rep =
                    Simulation::new(cfg, ft, strategy, total_cache_entries, vms_per_server);
                rep.attach_worker(s, partition.shard_map().to_vec());
                replicas.push(rep);
            }
        }
        let mut profiler = Profiler::new(cfg.profile && !fallback);
        if profiler.enabled() {
            profiler.ensure_shards(partition.shards() as usize);
        }
        ShardedSimulation {
            driver,
            replicas,
            partition,
            exec_count: 0,
            last_block_time: SimTime::ZERO,
            pkt_map: FxHashMap::default(),
            windows: 0,
            cut_count: 0,
            fallback,
            folded: false,
            profiler,
        }
    }

    /// The engine self-profiler: the driver-phase profiler when sharding
    /// is live, the driver simulation's per-event profiler in fallback.
    pub fn profiler(&self) -> &Profiler {
        if self.fallback {
            self.driver.profiler()
        } else {
            &self.profiler
        }
    }

    /// The partition in use.
    pub fn partition(&self) -> &PodPartition {
        &self.partition
    }

    /// True when the engine runs the driver alone (degenerate partition).
    pub fn is_fallback(&self) -> bool {
        self.fallback
    }

    /// Barrier windows dispatched to the workers so far (0 in fallback).
    pub fn window_count(&self) -> u64 {
        self.windows
    }

    /// Cut-link events exchanged between shards so far (0 in fallback).
    pub fn cut_events(&self) -> u64 {
        self.cut_count
    }

    /// The shard a VM's current host belongs to.
    fn owner_shard_of_vm(&self, vm: usize) -> usize {
        self.partition.shard_map()[self.driver.placement.node_of(vm).0 as usize] as usize
    }

    /// Registers the workload: the flow table is mirrored fleet-wide, and
    /// each start event is inserted directly at its owner shard's calendar
    /// under the global sequence number the single-threaded engine would
    /// have assigned it (the driver's counter stays the authority).
    pub fn add_flows(&mut self, specs: impl IntoIterator<Item = FlowSpec>) {
        if self.fallback {
            self.driver.add_flows(specs);
            return;
        }
        // One spec at a time so a streaming source is never materialized:
        // replica mirroring, driver registration, and sequence reservation
        // all happen per flow, in the same global order as before.
        for spec in specs {
            let idx = self.driver.flows.len();
            let start = spec.start;
            let owner = self.owner_shard_of_vm(spec.src_vm);
            for rep in &mut self.replicas {
                rep.register_flows([spec.clone()]);
            }
            self.driver.register_flows([spec]);
            let seq = self.driver.events.reserve_seq();
            self.replicas[owner]
                .events
                .schedule_at_seq(start, seq, Event::FlowStart(idx));
        }
    }

    /// Registers a VM migration on the driver's calendar (migrations are
    /// global events) and mirrors the migration table into every worker
    /// replica (broadcast `Migrate` events carry table indices). At the
    /// migration instant the driver closes the window, broadcasts the
    /// placement/database update, and moves the affected flows' transport
    /// state and pending calendar events between owner shards.
    pub fn add_migration(&mut self, m: Migration) {
        for rep in &mut self.replicas {
            rep.register_migrations([m]);
        }
        self.driver.add_migration(m);
    }

    /// Registers a churn plan fleet-wide, consuming driver sequence
    /// numbers in the exact order the single-threaded engine would: flows
    /// first, then migrations, then timeline marks.
    pub fn apply_churn_plan(&mut self, plan: &ChurnPlan) {
        if self.fallback {
            self.driver.apply_churn_plan(plan);
            return;
        }
        self.add_flows(plan.flows.iter().cloned());
        for &m in &plan.migrations {
            self.add_migration(m);
        }
        self.driver.add_churn_marks(plan.marks.iter().copied());
    }

    /// Registers a fault plan on the driver (fault events are global) and
    /// mirrors the plan table into every replica (broadcast fault events
    /// carry plan indices).
    pub fn apply_fault_plan(&mut self, plan: FaultPlan) {
        for rep in &mut self.replicas {
            rep.register_fault_events(&plan);
        }
        self.driver.apply_fault_plan(plan);
    }

    /// Runs until every calendar drains (or the configured end of time).
    pub fn run(&mut self) {
        let horizon = self.driver.cfg.end_of_time.unwrap_or(SimTime::MAX);
        self.run_until(horizon);
    }

    /// Runs all events up to and including instant `t`. Resumable: the
    /// shard calendars persist across calls (pending buffers are always
    /// flushed before a window closes the run), so interleaving
    /// `run_until` with interventions behaves exactly like the
    /// single-threaded engine.
    pub fn run_until(&mut self, t: SimTime) {
        if self.fallback {
            self.driver.run_until(t);
            return;
        }
        let horizon = match self.driver.cfg.end_of_time {
            Some(h) => h.min(t),
            None => t,
        };
        let n = self.replicas.len();
        let Self {
            driver,
            replicas,
            partition,
            exec_count,
            last_block_time,
            pkt_map,
            windows,
            cut_count,
            profiler,
            ..
        } = self;
        let shard_map = partition.shard_map();
        let lookahead = partition.lookahead_ns();
        let prof = profiler.enabled();
        let run_t0 = prof.then(Instant::now);
        // Earliest pending-event time per shard. Exact at entry (pending
        // buffers are always empty between windows — grants are delivered
        // eagerly after every merge), kept current from window reports and
        // cross-shard deliveries. A stale-early bound only costs an empty
        // window; the protocol never lets a bound go stale-late.
        let mut next_t: Vec<Option<SimTime>> =
            replicas.iter().map(|r| r.events.peek_time()).collect();

        std::thread::scope(|scope| {
            let mut to_workers = Vec::with_capacity(n);
            let mut from_workers = Vec::with_capacity(n);
            for rep in replicas.iter_mut() {
                let (tx_cmd, rx_cmd) = mpsc::sync_channel::<ToWorker>(4);
                let (tx_res, rx_res) = mpsc::sync_channel::<FromWorker>(4);
                to_workers.push(tx_cmd);
                from_workers.push(rx_res);
                scope.spawn(move || {
                    while let Ok(msg) = rx_cmd.recv() {
                        match msg {
                            ToWorker::Window { bt, bseq } => {
                                let t0 = prof.then(Instant::now);
                                let report = rep.run_window(bt, bseq);
                                let replay_ns =
                                    t0.map_or(0, |t| t.elapsed().as_nanos() as u64);
                                let _ = tx_res.send(FromWorker::Report { report, replay_ns });
                            }
                            ToWorker::Apply { grants, incoming } => {
                                rep.apply_boundary(&grants, incoming)
                            }
                            ToWorker::Global(g) => rep.apply_global(g),
                            ToWorker::TakeMigrated { vm } => {
                                let flows = rep.extract_migrated_flows(vm);
                                let moved = rep.extract_migrated_events(vm);
                                let _ = tx_res.send(FromWorker::Migrated { flows, moved });
                            }
                            ToWorker::PutMigrated { flows, moved } => {
                                rep.inject_migrated_flows(flows);
                                rep.apply_boundary(&[], moved);
                            }
                            ToWorker::Snapshot { at } => {
                                let _ = tx_res.send(FromWorker::Snapshot(rep.shard_snapshot(at)));
                            }
                            ToWorker::Finish => break,
                        }
                    }
                });
            }

            loop {
                // Window boundary: one lookahead past the earliest pending
                // event anywhere, clipped so events at exactly `horizon`
                // still run — and closed early at the next global event's
                // exact (time, seq) key, which preserves the interleaving
                // of same-instant shard events around the global.
                let adv_t0 = prof.then(Instant::now);
                let gkey = driver.events.peek_key();
                let shard_min = next_t.iter().filter_map(|&t| t).min();
                let w0 = match (gkey.map(|(gt, _)| gt), shard_min) {
                    (None, None) => break,
                    (Some(g), None) => g,
                    (None, Some(s)) => s,
                    (Some(g), Some(s)) => g.min(s),
                };
                if w0 > horizon {
                    break;
                }
                let w_cap = SimTime::from_nanos(
                    w0.as_nanos()
                        .saturating_add(lookahead)
                        .min(horizon.as_nanos().saturating_add(1)),
                );
                let (bt, bseq, global_due) = match gkey {
                    Some((gt, gseq)) if gt < w_cap => (gt, gseq, true),
                    _ => (w_cap, 0, false),
                };
                let mut busy = vec![false; n];
                for (s, tx) in to_workers.iter().enumerate() {
                    // Shard events at exactly `bt` precede the boundary
                    // only when it is a global event's key (bseq > 0): the
                    // global was scheduled earlier, so same-instant shard
                    // children sort after it only if they are children of
                    // this window — which the drain handles itself.
                    if next_t[s].is_some_and(|nt| nt < bt || (nt == bt && bseq > 0)) {
                        busy[s] = true;
                        tx.send(ToWorker::Window { bt, bseq }).expect("worker alive");
                    }
                }
                if let Some(t0) = adv_t0 {
                    profiler.phase_add(Phase::WindowAdvance, t0.elapsed().as_nanos() as u64);
                }
                let any_busy = busy.iter().any(|&b| b);

                let barrier_t0 = (prof && any_busy).then(Instant::now);
                let mut journals: Vec<Vec<ExecBlock>> = Vec::with_capacity(n);
                let mut replay_by_shard = vec![0u64; n];
                let mut parked = vec![false; n];
                let mut shard_cal = 0u64;
                let mut shard_arena = 0u64;
                for (s, rx) in from_workers.iter().enumerate() {
                    if !busy[s] {
                        journals.push(Vec::new());
                        continue;
                    }
                    match rx.recv().expect("worker alive") {
                        FromWorker::Report { report, replay_ns } => {
                            replay_by_shard[s] = replay_ns;
                            *exec_count += report.executed;
                            if let Some(lt) = report.last_time {
                                *last_block_time = (*last_block_time).max(lt);
                            }
                            next_t[s] = match (report.cal_next, report.pending_min) {
                                (Some(a), Some(b)) => Some(a.min(b)),
                                (a, b) => a.or(b),
                            };
                            parked[s] = report.pending_min.is_some();
                            shard_cal += report.cal_len;
                            shard_arena += report.arena_live;
                            journals.push(report.blocks);
                        }
                        _ => unreachable!("no snapshot or transfer pending"),
                    }
                }
                if any_busy {
                    *windows += 1;
                }
                if let (Some(t0), true) = (barrier_t0, any_busy) {
                    // The driver's blocked-at-barrier span splits into the
                    // mean per-shard busy time (useful parallel work) and
                    // the remainder: what the average shard wasted waiting
                    // for the slowest one (imbalance + serialization).
                    let span = t0.elapsed().as_nanos() as u64;
                    let sum_r: u64 = replay_by_shard.iter().sum();
                    let avg_r = (sum_r / n as u64).min(span);
                    let max_r = replay_by_shard.iter().copied().max().unwrap_or(0);
                    profiler.phase_add(Phase::WorkerReplay, avg_r);
                    profiler.phase_add(Phase::BarrierWait, span - avg_r);
                    profiler.record(HistKind::WindowNs, span);
                    for (s, &r) in replay_by_shard.iter().enumerate() {
                        if busy[s] {
                            profiler.record(HistKind::ShardReplayNs, r);
                        }
                        profiler.shard_sample(
                            s,
                            r,
                            max_r.saturating_sub(r),
                            journals[s].len() as u64,
                        );
                    }
                    profiler.windows += 1;
                    // Deterministic once-per-window occupancy samples,
                    // composed across the fleet: the driver calendar holds
                    // only globals, the shard calendars hold the workload.
                    let (ready, wheel, overflow) = driver.events.occupancy_breakdown();
                    profiler.record(
                        HistKind::CalendarLen,
                        (ready + wheel + overflow) as u64 + shard_cal,
                    );
                    profiler.record(HistKind::CalendarOverflow, overflow as u64);
                    profiler.record(
                        HistKind::ArenaLive,
                        driver.arena_live() as u64 + shard_arena,
                    );
                }

                // Merge: replay the observables in global (time, seq)
                // order, grant every scheduling the global sequence number
                // the single-threaded engine would have assigned, and
                // resolve cut events to theirs.
                let merge_t0 = prof.then(Instant::now);
                let mut granted = vec![0u64; n];
                let mut outgoing: Vec<Vec<MovedEvent>> =
                    (0..n).map(|_| Vec::new()).collect();
                let mut cut_routed = 0u64;
                let grants = merge_journals(&journals, |shard, block: &ExecBlock| {
                    if prof {
                        profiler.journal_blocks += 1;
                        profiler.journal_ops += block.ops.len() as u64;
                        profiler.record(HistKind::JournalBlockOps, block.ops.len() as u64);
                    }
                    let base = driver.events.reserve_seqs(block.scheds as u64);
                    // `granted[shard]` counts this shard's schedulings in
                    // earlier blocks of this window, i.e. the window-wide
                    // ordinal of this block's first scheduling.
                    let k = granted[shard];
                    granted[shard] += block.scheds as u64;
                    for cut in &block.cuts {
                        cut_routed += 1;
                        outgoing[cut.to as usize].push(MovedEvent {
                            at: cut.at,
                            seq: base + (cut.ord as u64 - k),
                            ev: cut.ev.clone(),
                        });
                    }
                    for op in &block.ops {
                        match op {
                            JournalOp::PktAlloc(prov) => {
                                let id = driver.next_pkt_id;
                                driver.next_pkt_id += 1;
                                pkt_map.insert(*prov, id);
                            }
                            JournalOp::Metric(m) => match *m {
                                MetricOp::FlowStarted(f) => {
                                    driver.metrics.flow_started(FlowId(f), block.time)
                                }
                                MetricOp::FlowCompleted(f) => {
                                    driver.metrics.flow_completed(FlowId(f), block.time)
                                }
                                MetricOp::FirstPacketDelivered(f) => {
                                    driver
                                        .metrics
                                        .first_packet_delivered(FlowId(f), block.time)
                                }
                                MetricOp::Delivery { sent_ns, hops } => {
                                    driver.metrics.record_delivery(
                                        SimTime::from_nanos(sent_ns),
                                        block.time,
                                        hops,
                                    )
                                }
                            },
                            JournalOp::Trace(ev) => {
                                let mut ev = ev.clone();
                                if let Some(p) = ev.pkt {
                                    ev.pkt = Some(*pkt_map.get(&p).unwrap_or(&p));
                                }
                                driver.tracer_mut().record(ev);
                            }
                        }
                    }
                    (base..base + block.scheds as u64).collect()
                });
                if let Some(t0) = merge_t0 {
                    profiler.phase_add(Phase::JournalMerge, t0.elapsed().as_nanos() as u64);
                }

                // Cut exchange: deliver the grants for parked events and
                // the routed cut events before anything else reaches the
                // workers, so every calendar is consistent at the boundary.
                let cut_t0 = prof.then(Instant::now);
                *cut_count += cut_routed;
                for (s, g) in grants.into_iter().enumerate() {
                    let incoming = std::mem::take(&mut outgoing[s]);
                    if !parked[s] && incoming.is_empty() {
                        continue;
                    }
                    if let Some(m) = incoming.iter().map(|mv| mv.at).min() {
                        next_t[s] = Some(next_t[s].map_or(m, |nt| nt.min(m)));
                    }
                    to_workers[s]
                        .send(ToWorker::Apply {
                            grants: g,
                            incoming,
                        })
                        .expect("worker alive");
                }
                if let Some(t0) = cut_t0 {
                    profiler.phase_add(Phase::CutExchange, t0.elapsed().as_nanos() as u64);
                }

                let global_t0 = (prof && global_due).then(Instant::now);
                if global_due {
                    let se = driver.events.pop().expect("global event due");
                    debug_assert_eq!((se.time, se.seq), (bt, bseq));
                    if prof {
                        profiler.global_events += 1;
                    }
                    *exec_count += 1;
                    *last_block_time = (*last_block_time).max(se.time);
                    match se.payload {
                        Event::TelemetrySample => {
                            for tx in &to_workers {
                                tx.send(ToWorker::Snapshot { at: se.time }).expect("worker alive");
                            }
                            let mut s = ShardSnapshot::default();
                            for rx in &from_workers {
                                match rx.recv().expect("worker alive") {
                                    FromWorker::Snapshot(p) => {
                                        s.q_total += p.q_total;
                                        s.q_max = s.q_max.max(p.q_max);
                                        s.occ_tor += p.occ_tor;
                                        s.occ_spine += p.occ_spine;
                                        s.occ_core += p.occ_core;
                                        s.data_sent_cum += p.data_sent_cum;
                                        s.gateway_cum += p.gateway_cum;
                                        s.win_data_sent += p.win_data_sent;
                                        s.win_gateway += p.win_gateway;
                                        s.pending += p.pending;
                                    }
                                    _ => unreachable!("no window or transfer pending"),
                                }
                            }
                            let hit_rate_window = if s.win_data_sent == 0 {
                                None
                            } else {
                                Some(1.0 - s.win_gateway as f64 / s.win_data_sent as f64)
                            };
                            let hit_rate_cum = if s.data_sent_cum == 0 {
                                0.0
                            } else {
                                1.0 - s.gateway_cum as f64 / s.data_sent_cum as f64
                            };
                            let pending_events = driver.events.len() as u64 + s.pending;
                            driver.tracer_mut().samples.push(Sample {
                                t_ns: se.time.as_nanos(),
                                events_executed: *exec_count,
                                pending_events,
                                queue_pkts_total: s.q_total,
                                queue_pkts_max: s.q_max,
                                occ_tor: s.occ_tor,
                                occ_spine: s.occ_spine,
                                occ_core: s.occ_core,
                                hit_rate_window,
                                hit_rate_cum,
                                gateway_pkts_cum: s.gateway_cum,
                            });
                            if pending_events > 0 {
                                let period = SimDuration::from_nanos(
                                    driver.tracer().config().sample_every_ns,
                                );
                                driver.events.schedule_in(period, Event::TelemetrySample);
                            }
                        }
                        Event::FaultStart(i) => {
                            driver.apply_global(GlobalEvent::FaultStart(i));
                            for tx in &to_workers {
                                tx.send(ToWorker::Global(GlobalEvent::FaultStart(i)))
                                    .expect("worker alive");
                            }
                        }
                        Event::FaultEnd(i) => {
                            driver.apply_global(GlobalEvent::FaultEnd(i));
                            for tx in &to_workers {
                                tx.send(ToWorker::Global(GlobalEvent::FaultEnd(i)))
                                    .expect("worker alive");
                            }
                        }
                        Event::Migrate(i) => {
                            // Resolve old/new owner shards BEFORE the
                            // broadcast mutates the placement fleet-wide.
                            let m = driver.migration(i);
                            let vm = driver
                                .placement
                                .index_of(m.vip)
                                .expect("migrating unknown VIP");
                            let old_shard =
                                shard_map[driver.placement.node_of(vm).0 as usize];
                            let new_shard = shard_map[m.to_node.0 as usize];
                            driver.apply_global(GlobalEvent::Migrate(i));
                            for tx in &to_workers {
                                tx.send(ToWorker::Global(GlobalEvent::Migrate(i)))
                                    .expect("worker alive");
                            }
                            if old_shard != new_shard {
                                // Move the affected flows' transport state
                                // and pending calendar events to the new
                                // owner. Per-channel FIFO means both shards
                                // apply the migration (and any outstanding
                                // boundary grants) before the transfer.
                                to_workers[old_shard as usize]
                                    .send(ToWorker::TakeMigrated { vm })
                                    .expect("worker alive");
                                let (flows, moved) = match from_workers[old_shard as usize]
                                    .recv()
                                    .expect("worker alive")
                                {
                                    FromWorker::Migrated { flows, moved } => (flows, moved),
                                    _ => unreachable!("flow transfer pending"),
                                };
                                // The old shard's next-event bound may now
                                // be stale-early (its earliest event may
                                // have moved away) — harmless: an empty
                                // window refreshes it.
                                if let Some(mn) = moved.iter().map(|mv| mv.at).min() {
                                    let ns = new_shard as usize;
                                    next_t[ns] =
                                        Some(next_t[ns].map_or(mn, |nt| nt.min(mn)));
                                }
                                to_workers[new_shard as usize]
                                    .send(ToWorker::PutMigrated { flows, moved })
                                    .expect("worker alive");
                            }
                        }
                        Event::ChurnMark(i) => driver.on_churn_mark(i),
                        _ => unreachable!("not a global event"),
                    }
                }
                if let Some(t0) = global_t0 {
                    profiler.phase_add(Phase::GlobalExec, t0.elapsed().as_nanos() as u64);
                }
            }

            for tx in &to_workers {
                let _ = tx.send(ToWorker::Finish);
            }
        });
        if let Some(t0) = run_t0 {
            self.profiler.add_run_ns(t0.elapsed().as_nanos() as u64);
        }
    }

    /// Folds order-free shard-local counters (byte/drop/hit counters,
    /// per-window tallies, transport statistics) into the master metrics.
    /// Runs once; call only after the run is complete.
    fn ensure_folded(&mut self) {
        if self.folded || self.fallback {
            return;
        }
        self.folded = true;
        for rep in &self.replicas {
            self.driver.metrics.absorb_shard(&rep.metrics);
            for f in &rep.flows {
                self.driver.metrics.reordered_segments += f.tcp_rx.reordered_segments;
                if let Some(tx) = &f.tcp_tx {
                    self.driver.metrics.retransmissions += tx.retransmits;
                }
            }
        }
    }

    /// Folds shard counters and returns the run summary (byte-identical
    /// to the single-threaded engine's).
    pub fn summary(&mut self) -> sv2p_metrics::RunSummary {
        self.ensure_folded();
        self.driver.summary()
    }

    /// Current virtual time: the later of the driver clock and the last
    /// shard-executed event (shard-local events never pop on the driver).
    pub fn now(&self) -> SimTime {
        self.driver.now().max(self.last_block_time)
    }

    /// Events executed, equal to the single-threaded count: every event a
    /// shard window drained plus every driver-executed global event.
    pub fn events_executed(&self) -> u64 {
        if self.fallback {
            self.driver.events_executed()
        } else {
            self.exec_count
        }
    }

    /// Packet-hops, summed over the driver and every shard replica.
    pub fn hops(&self) -> u64 {
        self.driver.hops() + self.replicas.iter().map(|r| r.hops()).sum::<u64>()
    }

    /// Pending-event high-water mark, summed over the driver calendar
    /// (globals only) and every shard calendar (the workload).
    pub fn peak_queue(&self) -> usize {
        self.driver.peak_queue() + self.replicas.iter().map(|r| r.peak_queue()).sum::<usize>()
    }

    /// In-flight packet high-water mark, summed over the driver's parking
    /// arena and every shard arena.
    pub fn peak_arena(&self) -> usize {
        self.driver.peak_arena() + self.replicas.iter().map(|r| r.peak_arena()).sum::<usize>()
    }

    /// The master telemetry tracer.
    pub fn tracer(&self) -> &Tracer {
        self.driver.tracer()
    }

    /// Mutable master tracer access.
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        self.driver.tracer_mut()
    }

    /// The master metrics (complete after [`Self::summary`] folds shard
    /// counters).
    pub fn metrics(&self) -> &Metrics {
        &self.driver.metrics
    }

    /// Read-only topology access.
    pub fn topology(&self) -> &Topology {
        self.driver.topology()
    }

    /// Read-only routing access.
    pub fn routing(&self) -> &Routing {
        self.driver.routing()
    }

    /// Read-only role access.
    pub fn roles(&self) -> &RoleMap {
        self.driver.roles()
    }

    /// The gateway directory in use.
    pub fn gateway_directory(&self) -> &GatewayDirectory {
        self.driver.gateway_directory()
    }

    /// The VM placement (the driver's copy; broadcast migrations keep it
    /// in sync fleet-wide).
    pub fn placement(&self) -> &Placement {
        &self.driver.placement
    }

    /// Every cached `(switch, vip, pip)` line that disagrees with the
    /// ground-truth mapping database, read from each switch's owning shard
    /// (rows grouped by shard, cache-line order within an agent).
    pub fn stale_cache_entries(&self) -> Vec<(NodeId, Vip, Pip)> {
        if self.fallback {
            return self.driver.stale_cache_entries();
        }
        let mut out = Vec::new();
        for (s, rep) in self.replicas.iter().enumerate() {
            out.extend(
                rep.stale_cache_entries()
                    .into_iter()
                    .filter(|(n, _, _)| self.partition.shard_of(*n) as usize == s),
            );
        }
        out
    }

    /// The ground-truth V2P database.
    pub fn db(&self) -> &MappingDb {
        self.driver.db()
    }

    /// Bytes processed by each switch (summed across shards before the
    /// fold, read from the master after).
    pub fn per_switch_bytes(&self) -> Vec<(NodeId, NodeKind, u64)> {
        let mut out = self.driver.per_switch_bytes();
        if !self.folded && !self.fallback {
            for rep in &self.replicas {
                for (slot, (_, _, b)) in out.iter_mut().zip(rep.per_switch_bytes()) {
                    slot.2 += b;
                }
            }
        }
        out
    }

    /// Per-switch cache occupancy, read from each switch's owning shard
    /// (the only replica whose agent state evolves).
    pub fn cache_occupancy(&self) -> Vec<(SwitchTag, usize)> {
        if self.fallback {
            return self.driver.cache_occupancy();
        }
        let per_rep: Vec<Vec<(SwitchTag, usize)>> =
            self.replicas.iter().map(|r| r.cache_occupancy()).collect();
        self.driver
            .topology()
            .switches()
            .enumerate()
            .map(|(i, sw)| per_rep[self.partition.shard_of(sw.id) as usize][i])
            .collect()
    }

    /// Installs `entries` into the switch agent at `node`: traced on the
    /// master, mirrored silently into the owning shard.
    pub fn install_cache_entries(&mut self, node: NodeId, clear: bool, entries: &[(Vip, Pip)]) {
        self.driver.install_cache_entries(node, clear, entries);
        if !self.fallback {
            let owner = self.partition.shard_of(node) as usize;
            self.replicas[owner].install_entries_silent(node, clear, entries);
        }
    }

    /// Injects a switch failure (volatile cache loss) across the fleet.
    pub fn fail_switch(&mut self, node: NodeId) {
        self.driver.fail_switch(node);
        for rep in &mut self.replicas {
            rep.cold_reset_switch(node);
        }
    }

    /// Fails every switch at once across the fleet.
    pub fn fail_all_switches(&mut self) {
        self.driver.fail_all_switches();
        let switches: Vec<NodeId> = self.driver.topology().switches().map(|s| s.id).collect();
        for rep in &mut self.replicas {
            for &sw in &switches {
                rep.cold_reset_switch(sw);
            }
        }
    }

    /// Control-plane role reassignment, applied fleet-wide.
    pub fn reassign_switch_role(&mut self, node: NodeId, role: sv2p_topology::SwitchRole) {
        self.driver.reassign_switch_role(node, role);
        for rep in &mut self.replicas {
            rep.reassign_switch_role(node, role);
        }
    }

    /// Per-(src_vm, dst_vm) data-packet counts, merged across shards
    /// (sends are counted where they execute).
    pub fn traffic_matrix(&self) -> FxHashMap<(u32, u32), u64> {
        let mut out = self.driver.traffic_matrix().clone();
        for rep in &self.replicas {
            rep.merge_traffic_matrix_into(&mut out);
        }
        out
    }

    /// Resets traffic-matrix counters fleet-wide.
    pub fn clear_traffic_matrix(&mut self) {
        self.driver.clear_traffic_matrix();
        for rep in &mut self.replicas {
            rep.clear_traffic_matrix();
        }
    }
}
