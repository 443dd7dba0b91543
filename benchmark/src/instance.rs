//! One workload instance: set up, run and check it, untraced or traced.

use std::time::Instant;

use sv2p_bench::cli::{peak_rss_bytes, reset_peak_rss};
use sv2p_metrics::RunSummary;
use sv2p_netsim::Engine;
use sv2p_simcore::stats::Percentiles;
use sv2p_telemetry::Phase;
use sv2p_topology::{RoleMap, Routing};
use sv2p_vnet::Placement;

use crate::workload::{setup, Ready, Spec};
use crate::{host, replay};

/// Timed set-ups per untraced instance; the last one is run.
const SETUP_REPS: usize = 3;

/// Replays of each set-up call `Engine::new` makes, per traced instance.
const REPLAYS: usize = 3;

/// Seeds one run's instances apart: instance `i` of `--seed s` simulates
/// seed `s * SEED_STRIDE + i`.
const SEED_STRIDE: u64 = 64;

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// 64-bit FNV-1a over `bytes`, continuing from `h`.
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

/// The seed of instance `i` of a run started with `--seed seed`.
pub fn seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(SEED_STRIDE).wrapping_add(i as u64)
}

/// The sorted samples behind `p`, read back through its nearest-rank
/// quantiles (rank `r` of `n` is the quantile `(r - 0.5) / n`).
fn samples(p: &Percentiles) -> Vec<f64> {
    let mut p = p.clone();
    let n = p.count();
    (1..=n)
        .map(|r| p.quantile((r as f64 - 0.5) / n as f64))
        .collect()
}

/// Simulated results of a finished run, and their checks.
pub struct Simulated {
    pub summary: RunSummary,
    /// Sorted flow completion times, µs.
    pub fct_us: Vec<f64>,
    /// Sorted first-packet latencies, µs.
    pub first_pkt_us: Vec<f64>,
    pub events: u64,
    /// Digest of every simulated statistic (the `RunSummary` fields, both
    /// latency distributions, the event count and the calendar peak).
    pub digest: u64,
    pub checks_ok: bool,
}

fn finish(ready: &mut Ready) -> Simulated {
    let engine = &mut ready.engine;
    let summary = engine.summary();
    let fct_us = samples(&engine.metrics().fct_us);
    let first_pkt_us = samples(&engine.metrics().first_packet_latency_us);
    let mut digest = fnv1a(FNV_OFFSET, format!("{summary:?}").as_bytes());
    for x in fct_us.iter().chain(&first_pkt_us) {
        digest = fnv1a(digest, &x.to_le_bytes());
    }
    let events = engine.events_executed();
    for c in [events, engine.peak_queue() as u64] {
        digest = fnv1a(digest, &c.to_le_bytes());
    }
    // Every started flow either completed (one FCT sample each) or failed,
    // and no more flows started than were registered.
    let checks_ok = fct_us.len() as u64 == summary.flows_completed
        && summary.flows_completed <= summary.flows
        && summary.flows <= ready.registered
        && events > 0
        && (0.0..=1.0).contains(&summary.hit_rate);
    if !checks_ok {
        eprintln!(
            "check failed: fct samples {} completed {} started {} registered {} hit_rate {}",
            fct_us.len(),
            summary.flows_completed,
            summary.flows,
            ready.registered,
            summary.hit_rate
        );
    }
    Simulated {
        summary,
        fct_us,
        first_pkt_us,
        events,
        digest,
        checks_ok,
    }
}

/// An untraced instance: what the end-to-end metrics are made of.
pub struct Outcome {
    pub seed: u64,
    /// Every timed set-up, in order, host-normalised (see [`crate::host`]).
    pub setup_s: Vec<f64>,
    /// `Engine::run`, host-normalised.
    pub run_s: f64,
    /// `Engine::run` as the clock read it.
    pub run_raw_s: f64,
    /// Mean of the host chases before and after the instance.
    pub chase_ns: f64,
    /// Peak RSS over the last set-up and the run, in MB (10^6 bytes).
    pub peak_rss_mb: f64,
    pub sim: Simulated,
}

/// Sets the instance up [`SETUP_REPS`] times, runs the last set-up and
/// checks it, between two host chases. The RSS watermark is reset before
/// the last set-up, so the peak belongs to this instance alone.
pub fn untraced(spec: &Spec) -> Outcome {
    let chase_before = host::chase_ns();
    let mut setup_raw: Vec<f64> = (1..SETUP_REPS)
        .map(|_| setup(spec, false).times.total())
        .collect();
    host::release_free_memory();
    reset_peak_rss();
    let mut ready = setup(spec, false);
    setup_raw.push(ready.times.total());
    let (run_raw_s, ()) = timed(|| ready.engine.run());
    let sim = finish(&mut ready);
    let peak_rss_mb = peak_rss_bytes() as f64 / 1e6;
    drop(ready);
    let chase_ns = (chase_before + host::chase_ns()) / 2.0;
    let scale = host::REFERENCE_NS / chase_ns;
    Outcome {
        seed: spec.seed,
        setup_s: setup_raw.iter().map(|s| s * scale).collect(),
        run_s: run_raw_s * scale,
        run_raw_s,
        chase_ns,
        peak_rss_mb,
        sim,
    }
}

/// Per-layer values of one traced instance.
pub struct Layers {
    pub correct: bool,
    setup_s: f64,
    run_s: f64,
    values: Vec<(&'static str, &'static str, f64)>,
}

impl Layers {
    /// `(name, unit, value)` of every per-layer metric, in report order.
    pub fn metrics(&self) -> &[(&'static str, &'static str, f64)] {
        &self.values
    }

    /// Traced set-up plus run, in seconds.
    pub fn traced_s(&self) -> f64 {
        self.setup_s + self.run_s
    }
}

/// Wall-clock of `f`, in seconds, with its result.
fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_secs_f64(), out)
}

/// Times of a set-up call `Engine::new` makes, replayed on its own: the
/// median of [`REPLAYS`] calls, each result dropped before the next.
fn replayed<T>(mut f: impl FnMut() -> T) -> f64 {
    let mut times: Vec<f64> = (0..REPLAYS).map(|_| timed(&mut f).0).collect();
    times.sort_by(f64::total_cmp);
    times[REPLAYS / 2]
}

/// One switch's cache lines under an even split of the aggregate budget.
fn lines_per_switch(spec: &Spec, engine: &Engine) -> usize {
    spec.cache_entries / engine.topology().switches().count().max(1)
}

/// A traced instance. It first sets up and runs the instance untraced, for
/// the tracing overhead. It then times the set-up layers inside
/// `Engine::new` (topology, placement, V2P install) by replaying their
/// public calls, sets up and runs again with the engine profiler on, and
/// replays the hot-path structures on the instance's flows.
///
/// The accounting is over top-level spans: trace generation, `Engine::new`
/// (whose replayed children are reported beside it), `add_flows`, the
/// churn plan, and the profiler's event-loop phases; what they leave of
/// set-up plus run is `trace.unattributed_s`.
pub fn traced(spec: &Spec) -> Layers {
    host::release_free_memory();
    let chase_ns = host::chase_ns();
    let mut plain = setup(spec, false);
    let (plain_run_s, ()) = timed(|| plain.engine.run());
    let plain_total = plain.times.total() + plain_run_s;
    let plain_digest = finish(&mut plain).digest;
    drop(plain);

    let topology_s = replayed(|| {
        let topo = spec.topology.build();
        let routing = Routing::new(&spec.topology, &topo);
        let roles = RoleMap::classify(&topo);
        (topo, routing, roles)
    });
    let topo = spec.topology.build();
    let placement_s = replayed(|| Placement::uniform(&topo, spec.vms_per_server));
    let placement = Placement::uniform(&topo, spec.vms_per_server);
    let seed_db_s = replayed(|| placement.seed_db());
    drop((placement, topo));

    let mut ready = setup(spec, true);
    let (run_s, ()) = timed(|| ready.engine.run());
    let (summary_s, done) = timed(|| finish(&mut ready));
    let t = ready.times;
    let engine = &ready.engine;
    let s = &done.summary;
    let prof = engine.profiler();
    let phase = |p: Phase| prof.phase_ns(p) as f64 / 1e9;

    let setup_s = t.total();
    let run_phases_s: f64 = Phase::ALL.iter().map(|&p| phase(p)).sum();
    let unattributed_s = run_s - run_phases_s;
    let hops = (s.avg_stretch * s.data_packets_delivered as f64).round();
    let events = done.events as f64;
    let sent = s.data_packets_sent.max(1) as f64;
    let occupancy: usize = engine.cache_occupancy().iter().map(|&(_, n)| n).sum();
    let mapping_bytes = engine.db().resident_bytes() + engine.placement().resident_bytes();
    let r = replay::run(
        engine,
        &ready.trace,
        lines_per_switch(spec, engine),
        engine.peak_queue(),
    );

    let values = vec![
        // Set-up layers.
        ("topology.build_s", "s", topology_s),
        ("vnet.placement_s", "s", placement_s),
        ("vnet.seed_db_s", "s", seed_db_s),
        ("netsim.engine_new_s", "s", t.engine_new_s),
        ("traces.gen_s", "s", t.gen_s),
        ("netsim.add_flows_s", "s", t.add_flows_s),
        ("netsim.churn_plan_s", "s", t.churn_plan_s),
        ("vnet.mapping_bytes", "B", mapping_bytes as f64),
        // Event loop.
        ("simcore.pop_s", "s", phase(Phase::Pop)),
        ("netsim.link_arrival_s", "s", phase(Phase::LinkArrival)),
        ("netsim.link_free_s", "s", phase(Phase::LinkFree)),
        ("netsim.flow_start_s", "s", phase(Phase::FlowStart)),
        ("simcore.events", "count", events),
        ("simcore.peak_queue", "count", engine.peak_queue() as f64),
        ("netsim.peak_arena", "count", engine.peak_arena() as f64),
        ("netsim.hops", "count", hops),
        ("netsim.hops_per_s", "1/s", hops / plain_run_s),
        ("netsim.events_per_hop", "ratio", events / hops.max(1.0)),
        ("simcore.push_ns", "ns", r.queue_push),
        ("simcore.pop_ns", "ns", r.queue_pop),
        ("topology.next_link_ns", "ns", r.next_link),
        // Switch caches.
        ("core.cache_lookup_ns", "ns", r.cache_lookup),
        ("core.cache_insert_ns", "ns", r.cache_insert),
        ("core.hit_share_tor", "frac", s.hit_share_tor),
        ("core.hit_share_spine", "frac", s.hit_share_spine),
        ("core.hit_share_core", "frac", s.hit_share_core),
        ("core.learning_packets", "count", s.learning_packets as f64),
        ("core.cache_occupancy", "count", occupancy as f64),
        // Gateways and the mapping database.
        ("vnet.gateway_s", "s", phase(Phase::Gateway)),
        ("vnet.gateway_packets", "count", s.gateway_packets as f64),
        (
            "vnet.gateway_share",
            "frac",
            s.gateway_packets as f64 / sent,
        ),
        ("vnet.db_lookup_ns", "ns", r.db_lookup),
        // Churn: migrations, follow-me forwarding, invalidation.
        (
            "netsim.host_forward_frac",
            "frac",
            phase(Phase::HostForward) / run_s,
        ),
        ("netsim.migrate_frac", "frac", phase(Phase::Migrate) / run_s),
        (
            "netsim.churn_mark_frac",
            "frac",
            phase(Phase::ChurnMark) / run_s,
        ),
        (
            "core.invalidation_packets",
            "count",
            s.invalidation_packets as f64,
        ),
        (
            "core.misdelivered_packets",
            "count",
            s.misdelivered_packets as f64,
        ),
        ("core.stale_hits", "count", s.stale_cache_hits as f64),
        ("vnet.migrations", "count", s.migrations as f64),
        // Transport.
        ("transport.rto_timer_s", "s", phase(Phase::RtoTimer)),
        (
            "transport.retransmissions",
            "count",
            s.retransmissions as f64,
        ),
        (
            "transport.retx_frac",
            "frac",
            s.retransmissions as f64 / sent,
        ),
        // Accounting.
        ("metrics.summary_s", "s", summary_s),
        ("trace.setup_s", "s", setup_s),
        ("trace.run_s", "s", run_s),
        ("trace.unattributed_s", "s", unattributed_s),
        (
            "trace.overhead_frac",
            "frac",
            (setup_s + run_s) / plain_total - 1.0,
        ),
        ("host.chase_ns", "ns", chase_ns),
    ];
    Layers {
        // Profiling must not change a single simulated statistic.
        correct: done.checks_ok && done.digest == plain_digest,
        setup_s,
        run_s,
        values,
    }
}
