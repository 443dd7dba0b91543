//! Criterion micro-benchmarks of the hot-path primitives, plus a small
//! end-to-end simulation per scheme (the figure binaries under `src/bin/`
//! regenerate the paper's actual tables and figures; these benches track
//! the performance of the reproduction itself).

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use sv2p_bench::harness::{run_spec, ExperimentSpec, StrategyKind};
use sv2p_ilp::{Demand, PlacementProblem};
use sv2p_packet::packet::Protocol;
use sv2p_packet::wire::{decode, encode};
use sv2p_packet::{
    FlowId, InnerHeader, OuterHeader, Packet, PacketId, PacketKind, Pip, TcpFlags,
    TunnelOptions, Vip,
};
use sv2p_simcore::{EventQueue, SimTime};
use sv2p_topology::{FatTreeConfig, NodeId, Routing};
use sv2p_traces::{hadoop, HadoopConfig};
use switchv2p::cache::{Admission, DirectMappedCache};

fn sample_packet() -> Packet {
    Packet {
        id: PacketId(0),
        flow: FlowId(1),
        kind: PacketKind::Data,
        outer: OuterHeader {
            src_pip: Pip(0x0a000101),
            dst_pip: Pip(0x0a030201),
            resolved: false,
        },
        inner: InnerHeader {
            src_vip: Vip(0x14000001),
            dst_vip: Vip(0x14000100),
            src_port: 3333,
            dst_port: 80,
            protocol: Protocol::Tcp,
            seq: 0,
            ack: 0,
            flags: TcpFlags::default(),
        },
        opts: TunnelOptions::default(),
        payload: 1000,
        switch_hops: 0,
        sent_ns: 0,
        ts_echo_ns: 0,
        first_of_flow: false,
        visited_gateway: false,
    }
}

fn bench_cache(c: &mut Criterion) {
    c.bench_function("cache/lookup_hit", |b| {
        let mut cache = DirectMappedCache::new(1024);
        for i in 0..1024u32 {
            cache.insert(Vip(i), Pip(i), Admission::All);
        }
        let mut i = 0u32;
        b.iter(|| {
            i = (i + 1) & 1023;
            black_box(cache.lookup(Vip(i)))
        });
    });
    c.bench_function("cache/insert_evict", |b| {
        let mut cache = DirectMappedCache::new(64);
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(1);
            black_box(cache.insert(Vip(i), Pip(i), Admission::All))
        });
    });
}

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("simcore/event_queue_push_pop", |b| {
        let mut q: EventQueue<u64> = EventQueue::with_capacity(4096);
        // Keep a standing population of 1024 events.
        for i in 0..1024 {
            q.schedule_at(SimTime::from_nanos(i), i);
        }
        b.iter(|| {
            let ev = q.pop().unwrap();
            q.schedule_at(q.now() + sv2p_simcore::SimDuration::from_nanos(1000), ev.payload);
        });
    });
}

fn bench_routing(c: &mut Criterion) {
    let cfg = FatTreeConfig::ft8_10k();
    let topo = cfg.build();
    let routing = Routing::new(&cfg, &topo);
    let servers: Vec<NodeId> = topo.servers().map(|n| n.id).collect();
    c.bench_function("topology/ecmp_next_link", |b| {
        let mut k = 0u64;
        b.iter(|| {
            k = k.wrapping_add(0x9E3779B97F4A7C15);
            let a = servers[(k % servers.len() as u64) as usize];
            let z = servers[((k >> 32) % servers.len() as u64) as usize];
            black_box(routing.next_link(&topo, a, z, k))
        });
    });
}

fn bench_wire(c: &mut Criterion) {
    let pkt = sample_packet();
    c.bench_function("packet/wire_encode", |b| b.iter(|| black_box(encode(&pkt))));
    let buf = encode(&pkt);
    c.bench_function("packet/wire_decode", |b| {
        b.iter(|| black_box(decode(buf.clone()).unwrap()))
    });
    c.bench_function("packet/ecmp_key", |b| b.iter(|| black_box(pkt.ecmp_key())));
}

fn bench_ilp(c: &mut Criterion) {
    let demands: Vec<Demand> = (0..200)
        .map(|i| Demand {
            weight: 1 + (i % 7) as u64,
            mapping: (i % 50) as u32,
            options: vec![((i % 20) as usize, 3.0), (((i + 7) % 20) as usize, 5.0)],
            miss_cost: 25.0,
        })
        .collect();
    let p = PlacementProblem {
        num_switches: 20,
        capacity: 8,
        demands,
    };
    c.bench_function("ilp/greedy_200_demands", |b| {
        b.iter(|| black_box(p.solve_greedy()))
    });
}

fn bench_end_to_end(c: &mut Criterion) {
    let flows = hadoop(&HadoopConfig {
        vms: 256,
        flows: 150,
        hosts: 128,
        ..Default::default()
    });
    let mut group = c.benchmark_group("end_to_end_150_flows");
    group.sample_size(10);
    for strategy in [
        StrategyKind::NoCache,
        StrategyKind::SwitchV2P,
        StrategyKind::LocalLearning,
    ] {
        group.bench_function(strategy.name(), |b| {
            b.iter(|| {
                let spec = ExperimentSpec::builder(FatTreeConfig::scaled_ft8(2), strategy)
                    .vms_per_server(2)
                    .flows(flows.clone())
                    .cache_entries(128)
                    .build();
                black_box(run_spec(&spec))
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_cache,
    bench_event_queue,
    bench_routing,
    bench_wire,
    bench_ilp,
    bench_end_to_end
);
criterion_main!(benches);
