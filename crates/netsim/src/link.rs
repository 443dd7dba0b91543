//! Store-and-forward links with drop-tail egress queues, in closed form.
//!
//! Each directed link owns the egress queue of its sending port. A packet
//! occupies the transmitter for its serialization time and arrives at the
//! receiver one propagation delay after transmission completes — the classic
//! output-queued switch model NS3's point-to-point devices use.
//!
//! A FIFO port with a fixed line rate needs no transmitter events: at
//! enqueue, a packet starts transmitting at `max(now, busy_until)`, frees the
//! wire one serialization later, and arrives one propagation delay after
//! that. [`LinkState::enqueue`] returns that arrival instant, and the caller
//! schedules the arrival event directly. The link keeps only what the
//! drop-tail test needs: `(tx_start, wire bytes)` of the accepted packets
//! that had not started transmitting at the last enqueue, trimmed lazily.
//!
//! **Tie rule.** A packet whose `tx_start` equals `now` still counts as
//! queued. This reproduces the retired two-event model (a `LinkFree` event
//! at tx-end), in which an arrival at a tx-end instant popped before that
//! port's `LinkFree`: arrivals are scheduled at least a propagation delay
//! ahead, a `LinkFree` only one serialization ahead.

use std::collections::VecDeque;

use sv2p_simcore::{SimDuration, SimTime};

/// Runtime state of one directed link.
#[derive(Debug)]
pub struct LinkState {
    /// Line rate, bits per second.
    pub bandwidth_bps: u64,
    /// Propagation delay.
    pub delay: SimDuration,
    /// Buffer limit in bytes (drop-tail beyond it).
    pub buffer_bytes: u64,
    /// `(tx_start, wire bytes)` of accepted packets waiting for the wire,
    /// in FIFO (so `tx_start`) order. Entries with `tx_start < now` have
    /// started transmitting and are trimmed on the next enqueue.
    waiting: VecDeque<(SimTime, u32)>,
    /// Sum of the wire bytes in `waiting`.
    waiting_bytes: u64,
    /// Instant the transmitter finishes the last accepted packet; `None`
    /// before the first one.
    busy_until: Option<SimTime>,
    /// Drops due to a full buffer.
    pub drops: u64,
    /// Injected loss probability per enqueued packet (sum of the active
    /// `LossRate` faults covering this link; 0 when healthy).
    pub loss_rate: f64,
    /// Drops due to injected stochastic loss.
    pub losses: u64,
}

/// What [`LinkState::enqueue`] decided.
#[derive(Debug, PartialEq, Eq)]
pub enum EnqueueOutcome {
    /// The packet was accepted and arrives at the far end at this instant.
    Arrives(SimTime),
    /// Buffer full; the packet was dropped (the caller frees it).
    Dropped,
    /// The packet was discarded by injected stochastic loss before reaching
    /// the queue (the caller frees it).
    Lost,
}

impl LinkState {
    /// A link with the given rate, delay and buffer.
    pub fn new(bandwidth_bps: u64, delay: SimDuration, buffer_bytes: u64) -> Self {
        LinkState {
            bandwidth_bps,
            delay,
            buffer_bytes,
            waiting: VecDeque::new(),
            waiting_bytes: 0,
            busy_until: None,
            drops: 0,
            loss_rate: 0.0,
            losses: 0,
        }
    }

    /// Serialization time of `wire_bytes` on this link.
    pub fn ser_time(&self, wire_bytes: u32) -> SimDuration {
        SimDuration::serialization(wire_bytes, self.bandwidth_bps)
    }

    /// Offers a packet to the egress port at `now`, first exposing it to
    /// the link's injected loss. `draw` is a uniform sample in `[0, 1)` from
    /// the simulation's dedicated fault RNG stream; a draw below the active
    /// loss rate discards the packet before it reaches the queue (the
    /// corruption/loss point of a real wire).
    pub fn enqueue_with_loss(
        &mut self,
        now: SimTime,
        wire_bytes: u32,
        draw: f64,
    ) -> EnqueueOutcome {
        if self.loss_rate > 0.0 && draw < self.loss_rate {
            self.losses += 1;
            return EnqueueOutcome::Lost;
        }
        self.enqueue(now, wire_bytes)
    }

    /// Offers a packet to the egress port at `now`.
    pub fn enqueue(&mut self, now: SimTime, wire_bytes: u32) -> EnqueueOutcome {
        while let Some(&(start, wire)) = self.waiting.front() {
            if start >= now {
                break;
            }
            self.waiting_bytes -= wire as u64;
            self.waiting.pop_front();
        }
        let tx_start = match self.busy_until {
            // Idle: the packet goes straight onto the wire and never
            // occupies the buffer.
            None => now,
            Some(b) if b < now => now,
            Some(b) => {
                if self.waiting_bytes + wire_bytes as u64 > self.buffer_bytes {
                    self.drops += 1;
                    return EnqueueOutcome::Dropped;
                }
                self.waiting_bytes += wire_bytes as u64;
                self.waiting.push_back((b, wire_bytes));
                b
            }
        };
        let tx_end = tx_start + self.ser_time(wire_bytes);
        self.busy_until = Some(tx_end);
        EnqueueOutcome::Arrives(tx_end + self.delay)
    }

    /// Queue depth in packets at `now`: accepted packets that have not
    /// started transmitting (excludes the one on the wire).
    pub fn queue_len(&self, now: SimTime) -> usize {
        self.waiting.len() - self.waiting.partition_point(|&(start, _)| start < now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sv2p_packet::packet::MSS;

    /// Wire size of an MSS data packet with default tunnel options
    /// (60 bytes of headers).
    const MSS_WIRE: u32 = MSS + 60;

    fn link() -> LinkState {
        // 100G, 1us, room for exactly two MSS packets in the queue.
        LinkState::new(
            100_000_000_000,
            SimDuration::from_micros(1),
            2 * MSS_WIRE as u64,
        )
    }

    fn at(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn idle_link_starts_immediately() {
        let mut l = link();
        // 1060 B at 100G = 84.8 -> 85 ns, plus 1 us of propagation.
        assert_eq!(
            l.enqueue(at(0), MSS_WIRE),
            EnqueueOutcome::Arrives(at(1085))
        );
        assert_eq!(l.queue_len(at(0)), 0);
    }

    #[test]
    fn busy_link_queues_back_to_back_then_drops() {
        let mut l = link();
        assert_eq!(
            l.enqueue(at(0), MSS_WIRE),
            EnqueueOutcome::Arrives(at(1085))
        );
        assert_eq!(
            l.enqueue(at(0), MSS_WIRE),
            EnqueueOutcome::Arrives(at(1170))
        );
        assert_eq!(
            l.enqueue(at(0), MSS_WIRE),
            EnqueueOutcome::Arrives(at(1255))
        );
        assert_eq!(l.enqueue(at(0), MSS_WIRE), EnqueueOutcome::Dropped);
        assert_eq!(l.drops, 1);
        assert_eq!(l.queue_len(at(0)), 2);
        // The first waiting packet starts at 85 ns: counted up to and
        // including that instant, gone after it.
        assert_eq!(l.queue_len(at(85)), 2);
        assert_eq!(l.queue_len(at(86)), 1);
        assert_eq!(l.queue_len(at(171)), 0);
    }

    #[test]
    fn packet_starting_now_still_occupies_the_buffer() {
        let mut l = link();
        l.enqueue(at(0), MSS_WIRE); // on the wire until 85
        l.enqueue(at(0), MSS_WIRE); // starts at 85
        l.enqueue(at(0), MSS_WIRE); // starts at 170
                                    // At 85 the second packet is starting; under the tie rule it is
                                    // still queued, so the buffer is full.
        assert_eq!(l.enqueue(at(85), MSS_WIRE), EnqueueOutcome::Dropped);
        // One nanosecond later it has left the buffer.
        assert_eq!(
            l.enqueue(at(86), MSS_WIRE),
            EnqueueOutcome::Arrives(at(1340))
        );
    }

    #[test]
    fn link_goes_idle_after_the_last_tx_end() {
        let mut l = link();
        l.enqueue(at(0), MSS_WIRE);
        // 160 B at 100G = 12.8 -> 13 ns, starting when the first ends.
        assert_eq!(
            l.enqueue(at(10), 100 + 60),
            EnqueueOutcome::Arrives(at(1098))
        );
        // At exactly the tx end the link still counts as busy: the packet
        // queues and starts at that instant, which times out the same.
        assert_eq!(l.enqueue(at(98), 61), EnqueueOutcome::Arrives(at(1103)));
        assert_eq!(l.enqueue(at(500), 61), EnqueueOutcome::Arrives(at(1505)));
        assert_eq!(l.queue_len(at(500)), 0);
    }

    #[test]
    fn injected_loss_discards_below_rate_only() {
        let mut l = link();
        // Healthy link: the draw is irrelevant.
        assert!(matches!(
            l.enqueue_with_loss(at(0), MSS_WIRE, 0.0),
            EnqueueOutcome::Arrives(_)
        ));
        l.loss_rate = 0.01;
        assert_eq!(
            l.enqueue_with_loss(at(1000), MSS_WIRE, 0.005),
            EnqueueOutcome::Lost
        );
        assert_eq!(l.losses, 1);
        assert!(matches!(
            l.enqueue_with_loss(at(1000), MSS_WIRE, 0.5),
            EnqueueOutcome::Arrives(_)
        ));
        // Loss drops never consume buffer space.
        assert_eq!(l.queue_len(at(1000)), 0);
    }
}
