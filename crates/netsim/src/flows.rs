//! Flow specifications and runtime flow state.

use sv2p_packet::FlowId;
use sv2p_simcore::SimTime;
use sv2p_transport::{TcpReceiver, TcpSender, UdpSchedule};

/// What kind of traffic a flow carries.
#[derive(Debug, Clone)]
pub enum FlowKind {
    /// A TCP transfer of `bytes` (Hadoop / WebSearch / Alibaba RPCs).
    Tcp {
        /// Flow size in bytes.
        bytes: u64,
    },
    /// A UDP flow following a precomputed schedule (Video / Microbursts /
    /// incast).
    Udp {
        /// When each datagram leaves the sender.
        schedule: UdpSchedule,
    },
}

/// One flow of the workload, as produced by the trace generators.
#[derive(Debug, Clone)]
pub struct FlowSpec {
    /// Sending VM (index into the placement).
    pub src_vm: usize,
    /// Destination VM (index into the placement).
    pub dst_vm: usize,
    /// When the flow starts.
    pub start: SimTime,
    /// Payload profile.
    pub kind: FlowKind,
}

/// Runtime state of a flow inside the simulator.
#[derive(Debug)]
pub(crate) struct FlowState {
    pub id: FlowId,
    pub spec: FlowSpec,
    /// TCP sender machine (None for UDP flows).
    pub tcp_tx: Option<TcpSender>,
    /// TCP receiver machine.
    pub tcp_rx: TcpReceiver,
    /// Retransmission-timer generation: bumped whenever a new `RtoTimer`
    /// event supersedes the live one (or completion disarms it), and a
    /// pending `RtoTimer` only fires if it still carries the current value.
    /// Plain values (rather than a `TimerWheel` handle) so the whole timer
    /// state travels with the flow when a migration moves it to another
    /// shard's replica.
    pub rto_gen: u64,
    /// When the retransmission timer is due. Re-arming on each ACK only
    /// moves this; the live event re-arms itself here if it fires early.
    pub rto_deadline: SimTime,
    /// Due time of the flow's one live `RtoTimer` event, if any. A new
    /// event is scheduled only when a deadline falls before it.
    pub rto_live: Option<SimTime>,
    /// Datagrams delivered so far (UDP completion tracking).
    pub udp_delivered: usize,
    /// Total datagrams in the UDP schedule.
    pub udp_total: usize,
    pub completed: bool,
    /// Source port (gives distinct ECMP keys per flow).
    pub src_port: u16,
}

impl FlowState {
    pub fn new(id: FlowId, spec: FlowSpec) -> Self {
        let udp_total = match &spec.kind {
            FlowKind::Udp { schedule } => schedule.len(),
            FlowKind::Tcp { .. } => 0,
        };
        FlowState {
            id,
            spec,
            tcp_tx: None,
            tcp_rx: TcpReceiver::new(),
            rto_gen: 0,
            rto_deadline: SimTime::ZERO,
            rto_live: None,
            udp_delivered: 0,
            udp_total,
            completed: false,
            src_port: 1024 + (id.0 % 50_000) as u16,
        }
    }

    pub fn is_tcp(&self) -> bool {
        matches!(self.spec.kind, FlowKind::Tcp { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sv2p_simcore::SimDuration;

    #[test]
    fn udp_flow_tracks_schedule_length() {
        let schedule = UdpSchedule::cbr(
            SimTime::ZERO,
            SimDuration::from_micros(500),
            48_000_000,
            1000,
        );
        let n = schedule.len();
        let f = FlowState::new(
            FlowId(3),
            FlowSpec {
                src_vm: 0,
                dst_vm: 1,
                start: SimTime::ZERO,
                kind: FlowKind::Udp { schedule },
            },
        );
        assert!(!f.is_tcp());
        assert_eq!(f.udp_total, n);
    }

    #[test]
    fn ports_are_flow_distinct() {
        let mk = |id| {
            FlowState::new(
                FlowId(id),
                FlowSpec {
                    src_vm: 0,
                    dst_vm: 1,
                    start: SimTime::ZERO,
                    kind: FlowKind::Tcp { bytes: 1 },
                },
            )
        };
        assert_ne!(mk(1).src_port, mk(2).src_port);
    }
}
