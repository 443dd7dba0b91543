//! Property tests: TCP delivers every byte exactly once over adversarial
//! networks (random loss, reordering, duplication), and the sender always
//! terminates.

use std::collections::VecDeque;

use proptest::prelude::*;
use sv2p_simcore::{SimDuration, SimRng, SimTime};
use sv2p_transport::{Segment, TcpConfig, TcpReceiver, TcpSender};

/// A hostile pipe: drops with probability `loss`, reorders by random extra
/// delay, duplicates with probability `dup`.
struct HostilePipe {
    rng: SimRng,
    loss: f64,
    dup: f64,
    /// (deliver_at, sent_at, segment) — not ordered; we scan for due ones.
    in_flight: Vec<(SimTime, SimTime, Segment)>,
    base_delay: SimDuration,
    jitter_ns: u64,
}

impl HostilePipe {
    fn send(&mut self, now: SimTime, seg: Segment) {
        if self.rng.chance(self.loss) {
            return;
        }
        let jitter = SimDuration::from_nanos(self.rng.gen_range(0..=self.jitter_ns));
        self.in_flight
            .push((now + self.base_delay + jitter, now, seg));
        if self.rng.chance(self.dup) {
            let jitter2 = SimDuration::from_nanos(self.rng.gen_range(0..=self.jitter_ns));
            self.in_flight
                .push((now + self.base_delay + jitter2, now, seg));
        }
    }

    /// Segments due by `now`, with their send times.
    fn due(&mut self, now: SimTime) -> Vec<(SimTime, Segment)> {
        let mut out = Vec::new();
        self.in_flight.retain(|&(at, sent, seg)| {
            if at <= now {
                out.push((sent, seg));
                false
            } else {
                true
            }
        });
        out
    }

    fn next_due(&self) -> Option<SimTime> {
        self.in_flight.iter().map(|&(at, _, _)| at).min()
    }
}

/// Drives sender + receiver over the hostile pipe until completion (or a
/// step bound, which the properties assert is never hit).
fn drive(flow: u64, seed: u64, loss: f64, dup: f64, jitter_ns: u64) -> (TcpSender, TcpReceiver) {
    let cfg = TcpConfig {
        min_rto: SimDuration::from_micros(200),
        initial_rto: SimDuration::from_micros(500),
        ..TcpConfig::default()
    };
    let mut tx = TcpSender::new(cfg, flow);
    let mut rx = TcpReceiver::new();
    let mut data_pipe = HostilePipe {
        rng: SimRng::new(seed),
        loss,
        dup,
        in_flight: Vec::new(),
        base_delay: SimDuration::from_micros(6),
        jitter_ns,
    };
    // ACKs ride a lossy pipe too.
    // (deliver_at, ack, timestamp echo).
    let mut ack_pipe: VecDeque<(SimTime, u64, SimTime)> = VecDeque::new();
    let mut ack_rng = SimRng::new(seed ^ 0xACAC);

    let mut now = SimTime::ZERO;
    let mut rto_deadline: Option<SimTime> = None;
    let ops = tx.start(now);
    for seg in &ops.segments {
        data_pipe.send(now, *seg);
    }
    rto_deadline = ops.arm_rto.or(rto_deadline);

    for _step in 0..200_000 {
        if tx.is_complete() {
            return (tx, rx);
        }
        // Advance to the next event: segment arrival, ACK arrival, or RTO.
        let mut next = SimTime::MAX;
        if let Some(t) = data_pipe.next_due() {
            next = next.min(t);
        }
        if let Some(&(t, _, _)) = ack_pipe.front() {
            next = next.min(t);
        }
        if let Some(t) = rto_deadline {
            next = next.min(t);
        }
        assert!(next != SimTime::MAX, "deadlock: nothing scheduled");
        now = next;

        // Deliver due segments to the receiver; emit (possibly lost) ACKs.
        for (sent, seg) in data_pipe.due(now) {
            let ack = rx.on_data(seg.seq, seg.len, sent);
            if !ack_rng.chance(loss) {
                ack_pipe.push_back((now + SimDuration::from_micros(6), ack, rx.ts_echo()));
            }
        }
        // Deliver due ACKs to the sender.
        while ack_pipe.front().is_some_and(|&(t, _, _)| t <= now) {
            let (_, ack, echo) = ack_pipe.pop_front().unwrap();
            let ops = tx.on_ack(now, ack, echo);
            for seg in &ops.segments {
                data_pipe.send(now, *seg);
            }
            if let Some(t) = ops.arm_rto {
                rto_deadline = Some(t);
            }
        }
        // Fire RTO if due.
        if rto_deadline.is_some_and(|t| t <= now) {
            let ops = tx.on_rto(now);
            for seg in &ops.segments {
                data_pipe.send(now, *seg);
            }
            rto_deadline = ops.arm_rto;
        }
    }
    panic!("flow did not complete within the step bound");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn completes_over_lossless_jittery_network(
        flow in 1u64..200_000,
        seed in any::<u64>(),
        jitter in 0u64..20_000,
    ) {
        let (tx, rx) = drive(flow, seed, 0.0, 0.0, jitter);
        prop_assert!(tx.is_complete());
        prop_assert_eq!(rx.bytes_delivered, flow);
    }

    #[test]
    fn completes_under_loss_and_duplication(
        flow in 1u64..60_000,
        seed in any::<u64>(),
        loss in 0.0f64..0.3,
        dup in 0.0f64..0.2,
    ) {
        let (tx, rx) = drive(flow, seed, loss, dup, 10_000);
        prop_assert!(tx.is_complete());
        // Exactly-once delivery accounting regardless of what the network did.
        prop_assert_eq!(rx.bytes_delivered, flow);
    }

    #[test]
    fn heavy_reordering_with_tolerant_profile_avoids_spurious_retransmits(
        flow in 50_000u64..150_000,
        seed in any::<u64>(),
    ) {
        // Pure reordering (no loss): a 300-dupack profile should complete
        // with no fast retransmits at all.
        let cfg = TcpConfig::reorder_tolerant();
        let mut tx = TcpSender::new(cfg, flow);
        let mut rx = TcpReceiver::new();
        let mut rng = SimRng::new(seed);
        let mut now = SimTime::ZERO;
        let mut pending: Vec<Segment> = tx.start(now).segments;
        let mut guard = 0;
        while !tx.is_complete() {
            now += SimDuration::from_micros(12);
            // Shuffle delivery order within the window.
            rng.shuffle(&mut pending);
            let mut next = Vec::new();
            for seg in pending.drain(..) {
                let ack = rx.on_data(seg.seq, seg.len, now);
                next.extend(tx.on_ack(now, ack, rx.ts_echo()).segments);
            }
            pending = next;
            guard += 1;
            prop_assert!(guard < 20_000, "no progress");
        }
        prop_assert_eq!(tx.fast_retransmits, 0);
        prop_assert_eq!(rx.bytes_delivered, flow);
    }
}
