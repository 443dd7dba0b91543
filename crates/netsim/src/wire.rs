//! Wire forms and journals for the sharded engine.
//!
//! A [`crate::sim::Simulation`] event holds packet bodies as arena handles,
//! which are meaningless outside the owning simulation. When a packet event
//! crosses the pod cut (or a migration moves a VM's pending flow events to
//! another shard), the packet travels by value as a [`WireEvent`].
//!
//! While executing a window, a shard keeps every follow-up event it
//! schedules: pod-local events land straight on its own calendar and
//! events past the window boundary park in a pending buffer, arena handles
//! intact. What it *journals* per executed event is only the lean
//! [`ExecBlock`]: how many schedulings the event performed (so the driver
//! can grant the matching run of global sequence numbers), any cut-link
//! events bound for other shards, and the order-sensitive observables
//! (metric updates, trace events, packet-id allocations). The driver
//! replays blocks across shards in global `(time, seq)` order, which makes
//! the master metrics and tracer ring byte-identical to a single-threaded
//! run — without re-executing or re-materializing anything.

use sv2p_packet::Packet;
use sv2p_simcore::{SeqRef, ShardState, SimTime};
use sv2p_telemetry::TraceEvent;
use sv2p_topology::{LinkId, NodeId};
use sv2p_transport::{TcpReceiver, TcpSender};

use crate::sim::Event;

/// A simulator event with packet bodies inlined, safe to move between
/// threads. Only [`WireEvent::LinkArrival`] can cross the cut mid-run;
/// the flow-addressed forms move between shards when a migration
/// re-homes a VM's pending calendar events. Global events (migrations,
/// faults, telemetry samples) never take this form: the driver executes
/// them itself.
#[derive(Debug, Clone)]
pub(crate) enum WireEvent {
    FlowStart(usize),
    UdpSend { flow: usize, idx: usize },
    LinkArrival { link: LinkId, pkt: Packet },
    RtoTimer { flow: usize, gen: u64 },
    GatewayDone { node: NodeId, pkt: Packet },
    ReInject { node: NodeId, pkt: Packet },
    HostForward { node: NodeId, pkt: Packet },
}

/// Events the driver executes itself and broadcasts to every shard so
/// their mirrored state (blackouts, link health, loss rates, the mapping
/// database and VM placement) stays in sync. A migration additionally
/// moves the affected flows' transport state between the old and new
/// owner shards (see [`FlowXfer`]).
#[derive(Debug, Clone, Copy)]
pub(crate) enum GlobalEvent {
    FaultStart(usize),
    FaultEnd(usize),
    Migrate(usize),
}

/// Transport state of one flow in transit between shard replicas after a
/// migration moved the flow's endpoint VM to a node another shard owns.
///
/// A flow's mutable state lives only on the shard owning the relevant
/// endpoint: the sender machine (`tcp_tx`, the RTO timer state and, for
/// TCP, the completion flag) evolves where ACKs are delivered — the source
/// VM's host — while the receiver side (`tcp_rx`, and for UDP the delivery
/// counter plus completion flag) evolves on the destination VM's host.
/// Since a migration is a global event, both shards are quiescent at the
/// exact instant the transfer happens, so moving the state preserves
/// bit-identical behaviour with the single-threaded engine.
#[derive(Debug)]
pub(crate) enum FlowXfer {
    /// Sender-side TCP machine, extracted from the source VM's old shard.
    Sender {
        flow: usize,
        tcp_tx: Option<TcpSender>,
        rto_gen: u64,
        rto_deadline: SimTime,
        rto_live: Option<SimTime>,
        completed: bool,
    },
    /// Receiver-side state, extracted from the destination VM's old shard.
    /// `completed` is authoritative only for UDP flows (TCP completion is
    /// decided on the sender side).
    Receiver {
        flow: usize,
        tcp_rx: TcpReceiver,
        udp_delivered: usize,
        completed: bool,
    },
}

/// A pending calendar event of a migrating flow, extracted with its global
/// `(time, seq)` key intact so the new owner re-inserts it unchanged.
#[derive(Debug)]
pub(crate) struct MovedEvent {
    pub at: SimTime,
    pub seq: u64,
    pub ev: WireEvent,
}

/// An order-sensitive metric update, deferred to the driver's master
/// [`sv2p_metrics::Metrics`]. Only the four flow-lifecycle operations are
/// order-sensitive (they push to per-flow latency/FCT accumulators whose
/// vector order the summary preserves); plain counters accumulate
/// shard-locally and are summed once at the end of the run.
#[derive(Debug, Clone)]
pub(crate) enum MetricOp {
    FlowStarted(u64),
    FlowCompleted(u64),
    FirstPacketDelivered(u64),
    Delivery { sent_ns: u64, hops: u16 },
}

/// One journaled observable, in handler execution order.
#[derive(Debug, Clone)]
pub(crate) enum JournalOp {
    /// The handler allocated a packet id (journaled only while tracing, to
    /// map the shard's provisional id to the global id stream).
    PktAlloc(u64),
    Metric(MetricOp),
    Trace(TraceEvent),
}

/// A follow-up event bound for another shard: a packet crossing the pod
/// cut. `ord` is the scheduling's window-wide ordinal, which the driver
/// resolves to a real global sequence number when the parent block
/// replays; the event reaches shard `to` before the next window opens.
/// `to` is resolved at emission time — ownership cannot drift before
/// delivery because placement only changes at global (boundary) events.
#[derive(Debug)]
pub(crate) struct CutEvent {
    pub to: u16,
    pub ord: u32,
    pub at: SimTime,
    pub ev: WireEvent,
}

/// Everything order-sensitive one event execution did, tagged with when
/// and as-whom it ran so the driver can merge blocks across shards.
/// `scheds` counts *every* scheduling the handler performed (local,
/// parked, or cut) — the driver grants that many consecutive global seqs.
/// Events with no schedulings and no observables leave no block at all;
/// their execution is reported only through the window's scalar counters.
#[derive(Debug)]
pub(crate) struct ExecBlock {
    pub time: SimTime,
    pub seq_ref: SeqRef,
    pub scheds: u32,
    pub cuts: Vec<CutEvent>,
    pub ops: Vec<JournalOp>,
}

impl sv2p_simcore::JournalBlock for ExecBlock {
    fn time(&self) -> SimTime {
        self.time
    }
    fn seq_ref(&self) -> SeqRef {
        self.seq_ref
    }
}

/// Per-shard worker state attached to a `Simulation` replica: which nodes
/// it owns, the current window boundary, ordinal bookkeeping, the pending
/// (past-boundary) buffer and the journal under construction.
#[derive(Debug)]
pub(crate) struct WorkerCtx {
    /// This replica's shard id.
    pub shard: u16,
    /// Node id → owning shard, from the pod partition.
    pub shard_map: Vec<u16>,
    /// Boundary time of the current window: follow-up events at or beyond
    /// it park in `pending` until the merge grants their real seqs.
    pub window_end: SimTime,
    /// Per-window child-ordinal bookkeeping.
    pub state: ShardState,
    /// Past-boundary events of the current window, arena handles intact:
    /// `(window ordinal, due time, event)`.
    pub pending: Vec<(u32, SimTime, Event)>,
    /// Journal of the event currently dispatching.
    pub cur_scheds: u32,
    pub cur_cuts: Vec<CutEvent>,
    pub cur_ops: Vec<JournalOp>,
    /// Next provisional packet-id counter (namespaced by shard in the top
    /// bits; remapped to the global id stream during replay when tracing).
    pub prov_next: u64,
    /// Cut-link events this shard emitted over the whole run.
    pub cut_events: u64,
}

impl WorkerCtx {
    pub fn new(shard: u16, shard_map: Vec<u16>) -> Self {
        WorkerCtx {
            shard,
            shard_map,
            window_end: SimTime::ZERO,
            state: ShardState::new(),
            pending: Vec::new(),
            cur_scheds: 0,
            cur_cuts: Vec::new(),
            cur_ops: Vec::new(),
            prov_next: 0,
            cut_events: 0,
        }
    }

    /// Provisional packet ids live in a per-shard namespace far above any
    /// realistic global id, so a collision with a real id is impossible
    /// and a leak (an unmapped provisional id in a trace) is obvious.
    pub fn provisional_pkt_id(&mut self) -> u64 {
        let id = ((self.shard as u64 + 1) << 48) | self.prov_next;
        self.prov_next += 1;
        id
    }
}

/// What one window execution produced, beyond the journal blocks: the
/// scalars the driver folds without replaying anything. `executed` counts
/// *every* popped event (including block-less ones); `cal_next` and
/// `pending_min` bound the shard's next event so the driver can size the
/// following window.
#[derive(Debug, Default)]
pub(crate) struct WindowReport {
    pub blocks: Vec<ExecBlock>,
    pub executed: u64,
    /// Time of the last executed event, if any.
    pub last_time: Option<SimTime>,
    /// Earliest key still on the shard calendar after the drain.
    pub cal_next: Option<SimTime>,
    /// Earliest due time in the parked (past-boundary) buffer.
    pub pending_min: Option<SimTime>,
    /// Events still pending on this shard (calendar + parked buffer) at
    /// window close — profiler occupancy samples.
    pub cal_len: u64,
    /// Live packets in this shard's arena at window close — profiler
    /// occupancy samples.
    pub arena_live: u64,
}

/// A shard's contribution to one telemetry sample: queue depths and cache
/// occupancy are only meaningful on the owning shard (everywhere else the
/// mirrored state is idle), so the driver sums these across shards.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ShardSnapshot {
    pub q_total: u64,
    pub q_max: u64,
    pub occ_tor: u64,
    pub occ_spine: u64,
    pub occ_core: u64,
    pub data_sent_cum: u64,
    pub gateway_cum: u64,
    pub win_data_sent: u64,
    pub win_gateway: u64,
    /// Events pending on this shard's calendar (plus parked buffer).
    pub pending: u64,
}
