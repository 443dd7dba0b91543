//! Layer replays: busy time per operation of the structures the event loop
//! calls into, driven by the workload's own flows.
//!
//! The engine's profiler charges time to event handlers, not to the
//! structures a handler calls. These replays call those structures through
//! their public APIs, outside the engine, with keys, endpoints and times
//! taken from the instance's flow trace, and report nanoseconds per call.

use std::hint::black_box;
use std::time::Instant;

use sv2p_netsim::Engine;
use sv2p_packet::{Pip, Vip};
use sv2p_simcore::{EventQueue, SimTime};
use sv2p_traces::TraceFlow;
use switchv2p::{Admission, DirectMappedCache};

/// Calls each replay makes at least, so the clock's own cost is amortised.
const MIN_CALLS: usize = 1 << 20;

/// Nanoseconds per call of each replayed operation.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayNs {
    pub cache_lookup: f64,
    pub cache_insert: f64,
    pub db_lookup: f64,
    pub queue_push: f64,
    pub queue_pop: f64,
    pub next_link: f64,
}

/// The flows' (destination VIP, PIP) pairs in trace order: the keys the
/// switches and the gateway resolve.
fn destinations(engine: &Engine, flows: &[TraceFlow]) -> Vec<(Vip, Pip)> {
    let p = engine.placement();
    flows
        .iter()
        .map(|f| {
            let i = f.dst_vm % p.len();
            (p.vip_of(i), p.pip_of(i))
        })
        .collect()
}

/// Repeats of `n` items that make at least [`MIN_CALLS`] calls.
fn passes(n: usize) -> usize {
    MIN_CALLS.div_ceil(n.max(1))
}

fn per_call(t0: Instant, calls: usize) -> f64 {
    t0.elapsed().as_nanos() as f64 / calls.max(1) as f64
}

/// Runs every replay for one instance. `cache_lines` is one switch's cache
/// size; `queue_depth` the calendar depth to hold (the run's peak).
pub fn run(
    engine: &Engine,
    flows: &[TraceFlow],
    cache_lines: usize,
    queue_depth: usize,
) -> ReplayNs {
    let dsts = destinations(engine, flows);
    let (cache_lookup, cache_insert) = cache(&dsts, cache_lines);
    ReplayNs {
        cache_lookup,
        cache_insert,
        db_lookup: db_lookup(engine, &dsts),
        next_link: next_link(engine, flows),
        ..queue(flows, queue_depth)
    }
}

/// `DirectMappedCache::insert` then `lookup` over the destinations, pass by
/// pass: each insert pass fills the cache the lookup pass then probes.
fn cache(dsts: &[(Vip, Pip)], lines: usize) -> (f64, f64) {
    let mut cache = DirectMappedCache::new(lines.max(1));
    let reps = passes(dsts.len());
    let (mut insert_ns, mut lookup_ns) = (0.0, 0.0);
    let mut hits = 0usize;
    for _ in 0..reps {
        let t0 = Instant::now();
        for &(vip, pip) in dsts {
            black_box(cache.insert(black_box(vip), pip, Admission::AbitClear));
        }
        insert_ns += t0.elapsed().as_nanos() as f64;
        let t0 = Instant::now();
        for &(vip, _) in dsts {
            hits += cache.lookup(black_box(vip)).is_some() as usize;
        }
        lookup_ns += t0.elapsed().as_nanos() as f64;
    }
    black_box(hits);
    let calls = (reps * dsts.len()).max(1) as f64;
    (lookup_ns / calls, insert_ns / calls)
}

/// `MappingDb::lookup` (the gateway's read) over the destinations.
fn db_lookup(engine: &Engine, dsts: &[(Vip, Pip)]) -> f64 {
    let db = engine.db();
    let reps = passes(dsts.len());
    let mut found = 0usize;
    let t0 = Instant::now();
    for _ in 0..reps {
        for &(vip, _) in dsts {
            found += db.lookup(black_box(vip)).is_some() as usize;
        }
    }
    let ns = per_call(t0, reps * dsts.len());
    black_box(found);
    ns
}

/// `Routing::next_link`, hop by hop along every flow's path from source to
/// destination server, keyed by flow index.
fn next_link(engine: &Engine, flows: &[TraceFlow]) -> f64 {
    let (topo, routing, p) = (engine.topology(), engine.routing(), engine.placement());
    let ends: Vec<_> = flows
        .iter()
        .map(|f| (p.node_of(f.src_vm % p.len()), p.node_of(f.dst_vm % p.len())))
        .filter(|(s, d)| s != d)
        .collect();
    let mut hops = 0usize;
    let t0 = Instant::now();
    while hops < MIN_CALLS {
        for (key, &(src, dst)) in ends.iter().enumerate() {
            let mut at = src;
            while at != dst {
                let link = routing
                    .next_link(topo, at, dst, black_box(key as u64))
                    .expect("fat-tree paths exist");
                at = topo.link(link).to;
                hops += 1;
            }
        }
    }
    per_call(t0, hops)
}

/// `EventQueue` pop and push at a held depth (the hold model): each round
/// pops half the calendar, then pushes as many events back, each due one
/// increment after the last pop. Increments cycle through the trace's flow
/// inter-arrival gaps.
fn queue(flows: &[TraceFlow], depth: usize) -> ReplayNs {
    let depth = depth.max(2);
    let mut starts: Vec<u64> = flows.iter().map(|f| f.start_ns).collect();
    starts.sort_unstable();
    let gaps: Vec<u64> = starts.windows(2).map(|w| (w[1] - w[0]).max(1)).collect();
    let gaps = if gaps.is_empty() { vec![1] } else { gaps };

    let mut q: EventQueue<u32> = EventQueue::with_capacity(depth);
    let mut g = 0usize;
    let mut next_gap = || {
        g = (g + 1) % gaps.len();
        gaps[g]
    };
    for i in 0..depth {
        q.schedule_at(SimTime::from_nanos(next_gap()), i as u32);
    }
    let half = depth / 2;
    let rounds = passes(half);
    let (mut pop_ns, mut push_ns) = (0.0, 0.0);
    for _ in 0..rounds {
        let mut last = SimTime::ZERO;
        let t0 = Instant::now();
        for _ in 0..half {
            let ev = q.pop().expect("held depth");
            last = black_box(ev.time);
        }
        pop_ns += t0.elapsed().as_nanos() as f64;
        let t0 = Instant::now();
        for i in 0..half {
            let at = SimTime::from_nanos(last.as_nanos() + next_gap());
            q.schedule_at(at, i as u32);
        }
        push_ns += t0.elapsed().as_nanos() as f64;
    }
    let calls = (rounds * half) as f64;
    ReplayNs {
        queue_pop: pop_ns / calls,
        queue_push: push_ns / calls,
        ..ReplayNs::default()
    }
}
