//! The retired two-event link model, kept as a reference for the analytic
//! [`LinkState`].
//!
//! [`TwoEventLink`] is the store-and-forward port the simulator used to
//! run: a queue of packets with the head on the wire, a `LinkFree` event
//! at every tx end that starts the next packet, and a `LinkArrival`
//! scheduled one propagation delay after it. [`replay_two_event`] drives it
//! with its own calendar, where every enqueue at an instant pops before a
//! `LinkFree` at the same instant (arrivals are scheduled a propagation
//! delay ahead, a `LinkFree` only one serialization ahead). The proptest
//! checks that the closed form gives every packet the same fate.

use std::collections::VecDeque;

use sv2p_simcore::{SimDuration, SimTime};

use crate::link::{EnqueueOutcome, LinkState};

/// The two-event link: the head of `queue` is on the wire.
struct TwoEventLink {
    bandwidth_bps: u64,
    buffer_bytes: u64,
    loss_rate: f64,
    /// `(packet index, wire bytes)`.
    queue: VecDeque<(usize, u32)>,
    /// Bytes queued behind the head.
    queued_bytes: u64,
    busy: bool,
    drops: u64,
    losses: u64,
}

enum OldOutcome {
    StartTx(SimDuration),
    Queued,
    Dropped,
    Lost,
}

impl TwoEventLink {
    fn ser_time(&self, wire: u32) -> SimDuration {
        SimDuration::serialization(wire, self.bandwidth_bps)
    }

    fn enqueue_with_loss(&mut self, pkt: usize, wire: u32, draw: f64) -> OldOutcome {
        if self.loss_rate > 0.0 && draw < self.loss_rate {
            self.losses += 1;
            return OldOutcome::Lost;
        }
        if !self.busy {
            self.busy = true;
            self.queue.push_front((pkt, wire));
            OldOutcome::StartTx(self.ser_time(wire))
        } else if self.queued_bytes + wire as u64 <= self.buffer_bytes {
            self.queued_bytes += wire as u64;
            self.queue.push_back((pkt, wire));
            OldOutcome::Queued
        } else {
            self.drops += 1;
            OldOutcome::Dropped
        }
    }

    /// The head finished transmitting: returns it and, if another packet
    /// is queued, that packet's serialization time.
    fn tx_done(&mut self) -> (usize, Option<SimDuration>) {
        let (sent, _) = self.queue.pop_front().expect("tx_done on an idle link");
        match self.queue.front() {
            Some(&(_, wire)) => {
                self.queued_bytes -= wire as u64;
                (sent, Some(self.ser_time(wire)))
            }
            None => {
                self.busy = false;
                (sent, None)
            }
        }
    }

    fn queue_len(&self) -> usize {
        self.queue.len().saturating_sub(self.busy as usize)
    }
}

/// One enqueue of a schedule: instant, wire bytes, loss draw.
type Offer = (SimTime, u32, f64);

/// Per-packet fate plus the queue depth each offer saw.
#[derive(Debug, PartialEq)]
struct Run {
    fates: Vec<EnqueueOutcome>,
    depths: Vec<usize>,
    drops: u64,
    losses: u64,
}

/// Runs `offers` (non-decreasing in time) through the two-event model.
fn replay_two_event(
    bandwidth_bps: u64,
    delay: SimDuration,
    buffer_bytes: u64,
    loss_rate: f64,
    offers: &[Offer],
) -> Run {
    let mut l = TwoEventLink {
        bandwidth_bps,
        buffer_bytes,
        loss_rate,
        queue: VecDeque::new(),
        queued_bytes: 0,
        busy: false,
        drops: 0,
        losses: 0,
    };
    let mut fates: Vec<Option<EnqueueOutcome>> = (0..offers.len()).map(|_| None).collect();
    let mut depths = Vec::with_capacity(offers.len());
    // The pending `LinkFree` instant, if the link is busy.
    let mut free_at: Option<SimTime> = None;
    let pop_free_before = |l: &mut TwoEventLink,
                           free_at: &mut Option<SimTime>,
                           fates: &mut Vec<Option<EnqueueOutcome>>,
                           t: Option<SimTime>| {
        while let Some(f) = *free_at {
            if t.is_some_and(|t| f >= t) {
                break;
            }
            let (sent, next) = l.tx_done();
            fates[sent] = Some(EnqueueOutcome::Arrives(f + delay));
            *free_at = next.map(|ser| f + ser);
        }
    };
    for (i, &(t, wire, draw)) in offers.iter().enumerate() {
        pop_free_before(&mut l, &mut free_at, &mut fates, Some(t));
        depths.push(l.queue_len());
        match l.enqueue_with_loss(i, wire, draw) {
            OldOutcome::StartTx(ser) => free_at = Some(t + ser),
            OldOutcome::Queued => {}
            OldOutcome::Dropped => fates[i] = Some(EnqueueOutcome::Dropped),
            OldOutcome::Lost => fates[i] = Some(EnqueueOutcome::Lost),
        }
    }
    pop_free_before(&mut l, &mut free_at, &mut fates, None);
    Run {
        fates: fates
            .into_iter()
            .map(|f| f.expect("every packet decided"))
            .collect(),
        depths,
        drops: l.drops,
        losses: l.losses,
    }
}

/// Runs `offers` through the analytic link.
fn replay_analytic(
    bandwidth_bps: u64,
    delay: SimDuration,
    buffer_bytes: u64,
    loss_rate: f64,
    offers: &[Offer],
) -> Run {
    let mut l = LinkState::new(bandwidth_bps, delay, buffer_bytes);
    l.loss_rate = loss_rate;
    let mut fates = Vec::with_capacity(offers.len());
    let mut depths = Vec::with_capacity(offers.len());
    for &(t, wire, draw) in offers {
        depths.push(l.queue_len(t));
        fates.push(l.enqueue_with_loss(t, wire, draw));
    }
    Run {
        fates,
        depths,
        drops: l.drops,
        losses: l.losses,
    }
}

/// Builds a schedule from raw steps `(gap kind, gap, size, draw)`. Gap
/// kinds: 0 same instant, 1 a gap in ns, 2 the tx end of the last accepted
/// packet (the instant the link goes idle), 3 the next tx end after now
/// (a packet behind it starts at that instant). Tx ends come from the
/// analytic arrivals, which the test then checks against the oracle.
fn schedule(
    bandwidth_bps: u64,
    delay: SimDuration,
    buffer_bytes: u64,
    loss_rate: f64,
    steps: &[(u8, u16, u16, u8)],
) -> Vec<Offer> {
    let mut probe = LinkState::new(bandwidth_bps, delay, buffer_bytes);
    probe.loss_rate = loss_rate;
    let mut tx_ends: Vec<SimTime> = Vec::new();
    let mut t = SimTime::ZERO;
    let mut offers = Vec::with_capacity(steps.len());
    for &(kind, gap, size, draw) in steps {
        match kind % 4 {
            0 => {}
            1 => t += SimDuration::from_nanos(gap as u64),
            2 => t = tx_ends.last().copied().unwrap_or(t).max(t),
            _ => {
                if let Some(&end) = tx_ends.iter().find(|&&end| end >= t) {
                    t = end;
                }
            }
        }
        let wire = 40 + (size % 1521) as u32;
        let draw = draw as f64 / 256.0;
        if let EnqueueOutcome::Arrives(a) = probe.enqueue_with_loss(t, wire, draw) {
            tx_ends.push(a - delay);
        }
        offers.push((t, wire, draw));
    }
    offers
}

mod tests {
    use super::*;
    use proptest::prelude::*;

    const RATES: [u64; 4] = [
        10_000_000_000,
        25_000_000_000,
        100_000_000_000,
        3_000_000_007,
    ];

    fn check(rate: u64, delay_ns: u64, buffer: u64, loss: f64, steps: &[(u8, u16, u16, u8)]) {
        let delay = SimDuration::from_nanos(delay_ns);
        let offers = schedule(rate, delay, buffer, loss, steps);
        assert_eq!(
            replay_analytic(rate, delay, buffer, loss, &offers),
            replay_two_event(rate, delay, buffer, loss, &offers),
        );
    }

    #[test]
    fn bursts_at_tx_end_instants_match() {
        // Back-to-back bursts that land exactly on tx ends, with a buffer
        // of a few MSS, on every rate.
        let steps: Vec<_> = (0..300u16)
            .map(|i| ((i % 5) as u8, i % 300, i.wrapping_mul(37), (i % 256) as u8))
            .collect();
        for rate in RATES {
            check(rate, 1000, 4 * 1560, 0.0, &steps);
            check(rate, 1000, 0, 0.0, &steps);
            check(rate, 1, 3000, 0.1, &steps);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn analytic_link_matches_two_event_oracle(
            rate_idx in 0usize..4,
            delay_ns in 1u64..2000,
            buffer in 0u64..8000,
            lossy in any::<bool>(),
            steps in proptest::collection::vec(
                (any::<u8>(), 0u16..400, any::<u16>(), any::<u8>()),
                0..200,
            ),
        ) {
            let loss = if lossy { 0.2 } else { 0.0 };
            let delay = SimDuration::from_nanos(delay_ns);
            let rate = RATES[rate_idx];
            let offers = schedule(rate, delay, buffer, loss, &steps);
            prop_assert_eq!(
                replay_analytic(rate, delay, buffer, loss, &offers),
                replay_two_event(rate, delay, buffer, loss, &offers)
            );
        }
    }
}
