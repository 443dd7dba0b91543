//! The event calendar: a timing-wheel (calendar queue) with deterministic
//! tie-breaking.
//!
//! Two events scheduled for the same instant pop in the order they were
//! pushed (FIFO), which makes whole simulations reproducible regardless of
//! calendar internals. The payload type is generic so unit tests can drive
//! the queue with plain integers while the network simulator uses its own
//! event enum.
//!
//! # Structure
//!
//! A binary heap pays `O(log n)` per operation with `n` = *every* pending
//! event; at FT16-400K scale the calendar holds tens of thousands of events
//! and those comparisons (each moving a full event payload) dominate the
//! scheduler. The calendar queue exploits the fact that simulation events
//! are overwhelmingly near-future (link serializations, per-hop delays) and
//! sorts only what is about to execute:
//!
//! * **ready** — a small binary heap holding every event whose slot is at
//!   or behind the cursor. Only these are ever compared, so the total
//!   `(time, seq)` order among them is exact — this is what keeps pop order
//!   byte-identical to the old global heap.
//! * **wheel** — 8192 slots of 128 ns (≈1 ms horizon), indexed by absolute
//!   slot number modulo the wheel size, with a bitmap for O(words)
//!   next-occupied-slot scans. Each slot is an *unsorted* intrusive singly
//!   linked list: a `u32` head (`NIL` when empty) into one node pool shared
//!   by all slots. Scheduling is O(1): pop a node off the pool's LIFO free
//!   list and push it on the slot's list.
//! * **overflow** — a binary heap for the rare events beyond the horizon
//!   (RTO-scale timers, pre-scheduled flow starts). Each migrates into the
//!   wheel when the cursor comes within one rotation of it.
//!
//! Pop drains the ready heap; when it empties, the cursor jumps to the next
//! occupied slot (or the earliest overflow event, whichever is sooner), any
//! overflow events now within the horizon drop into the wheel, and the new
//! slot's list is walked into the ready heap, its nodes going back on the
//! free list. Every event is heapified exactly once.
//!
//! Because the pool is shared, wheel memory tracks the wheel's *peak
//! occupancy*. Per-slot vectors would each keep the capacity of the densest
//! 128 ns they ever held — with hundreds of busy links landing one arrival
//! per slot, that is 8192 × the densest slot, hundreds of MB on FT8, for a
//! calendar whose live population is a few tens of thousands of events.
//!
//! [`EventQueue::pop_until`] fuses the horizon check with the pop, so a run
//! loop never scans a slot for its minimum (as [`EventQueue::peek_key`]
//! must) only to walk it again on the pop. It may leave the cursor on a
//! slot whose events all lie past the horizon; the ready-heap invariant
//! ("every event whose slot is ≤ the cursor") is what makes that safe: an
//! event later scheduled behind the cursor goes straight into the ready
//! heap, where it still sorts exactly.
//!
//! The old single-heap implementation survives as a `#[cfg(test)]` oracle;
//! an equivalence proptest checks the two produce identical `(time, seq,
//! payload)` pop sequences on random schedules, including same-timestamp
//! ties, far-future overflow events, horizon-bounded pops and extraction.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// An event stamped with its due time and a monotone sequence number.
#[derive(Debug, Clone)]
pub struct ScheduledEvent<E> {
    /// When the event fires.
    pub time: SimTime,
    /// Push order, used to break ties among simultaneous events.
    pub seq: u64,
    /// The caller's payload.
    pub payload: E,
}

impl<E> PartialEq for ScheduledEvent<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for ScheduledEvent<E> {}

impl<E> PartialOrd for ScheduledEvent<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for ScheduledEvent<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// log2 of the slot width: 128 ns per slot, finer than any link delay in
/// the fat-tree configs (1 µs) so back-to-back hops land in distinct slots.
const SLOT_NS_SHIFT: u64 = 7;
/// log2 of the slot count: 8192 slots × 128 ns ≈ 1.05 ms horizon, wide
/// enough that only RTO-scale timers and pre-scheduled flow starts overflow.
const SLOT_BITS: u64 = 13;
/// Number of wheel slots (power of two so modulo is a mask).
const NSLOTS: u64 = 1 << SLOT_BITS;
/// Ring-index mask.
const SLOT_MASK: u64 = NSLOTS - 1;
/// Bitmap words covering the wheel.
const BITMAP_WORDS: usize = (NSLOTS / 64) as usize;
/// Null node index: an empty slot list, or the end of a list.
const NIL: u32 = u32::MAX;

/// One wheel event in the shared node pool. `next` links the node into its
/// slot's list, or into the free list while `ev` is `None`.
#[derive(Debug)]
struct Node<E> {
    ev: Option<ScheduledEvent<E>>,
    next: u32,
}

/// A deterministic discrete-event calendar.
///
/// Invariants:
/// * events pop in nondecreasing time order;
/// * among equal times, in push (FIFO) order;
/// * scheduling in the past is a logic error and panics in debug builds
///   (in release it clamps to "now", which keeps long batch sweeps alive).
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Every event whose slot is ≤ the cursor, fully ordered by
    /// `(time, seq)`.
    ready: BinaryHeap<ScheduledEvent<E>>,
    /// Head node of each wheel slot's list (`NIL` when empty); index =
    /// absolute slot & `SLOT_MASK`.
    heads: Box<[u32]>,
    /// Node pool shared by all wheel slots; it grows to the wheel's peak
    /// occupancy and no further.
    nodes: Vec<Node<E>>,
    /// Head of the pool's LIFO free list.
    free: u32,
    /// One bit per wheel slot: list non-empty.
    occupied: [u64; BITMAP_WORDS],
    /// Events at least one rotation ahead of the cursor.
    overflow: BinaryHeap<ScheduledEvent<E>>,
    /// Absolute slot number (not wrapped) of the last slot opened into the
    /// ready heap: `now`'s slot, or a later one after a `pop_until` or
    /// `pop_before` that found nothing due.
    cursor: u64,
    /// Pending events across ready + wheel + overflow.
    pending: usize,
    next_seq: u64,
    now: SimTime,
    popped: u64,
    peak_len: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty calendar positioned at t = 0.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty calendar with pre-allocated capacity (spread over
    /// the ready and overflow heaps; the wheel's node pool grows on
    /// demand).
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            ready: BinaryHeap::with_capacity(cap / 2),
            heads: vec![NIL; NSLOTS as usize].into_boxed_slice(),
            nodes: Vec::new(),
            free: NIL,
            occupied: [0u64; BITMAP_WORDS],
            overflow: BinaryHeap::with_capacity(cap / 2),
            cursor: 0,
            pending: 0,
            next_seq: 0,
            now: SimTime::ZERO,
            popped: 0,
            peak_len: 0,
        }
    }

    /// The current virtual time: the timestamp of the last popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.pending
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// Total number of events executed so far.
    pub fn events_executed(&self) -> u64 {
        self.popped
    }

    /// Largest number of simultaneously pending events seen so far (the
    /// calendar's memory high-water mark, reported by run manifests).
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// Heap bytes the calendar holds: the slot heads and bitmap, the node
    /// pool and both heaps, at their allocated capacities.
    pub fn resident_bytes(&self) -> usize {
        self.heads.len() * std::mem::size_of::<u32>()
            + std::mem::size_of_val(&self.occupied)
            + self.nodes.capacity() * std::mem::size_of::<Node<E>>()
            + (self.ready.capacity() + self.overflow.capacity())
                * std::mem::size_of::<ScheduledEvent<E>>()
    }

    /// Where the pending events currently sit: `(ready, wheel, overflow)`.
    /// `ready` and `overflow` are the two heaps (the only `O(log n)`
    /// structures); `wheel` is everything parked in `O(1)` slots. The
    /// profiler samples this to histogram calendar occupancy — a growing
    /// overflow share would mean the wheel horizon no longer fits the
    /// workload's timer spread.
    pub fn occupancy_breakdown(&self) -> (usize, usize, usize) {
        let ready = self.ready.len();
        let overflow = self.overflow.len();
        (ready, self.pending - ready - overflow, overflow)
    }

    #[inline]
    fn slot_of(t: SimTime) -> u64 {
        t.as_nanos() >> SLOT_NS_SHIFT
    }

    #[inline]
    fn bit_is_set(&self, ring: usize) -> bool {
        self.occupied[ring / 64] & (1u64 << (ring % 64)) != 0
    }

    #[inline]
    fn set_bit(&mut self, ring: usize) {
        self.occupied[ring / 64] |= 1u64 << (ring % 64);
    }

    #[inline]
    fn clear_bit(&mut self, ring: usize) {
        self.occupied[ring / 64] &= !(1u64 << (ring % 64));
    }

    /// Schedules `payload` at absolute time `at`.
    ///
    /// Returns the sequence number, which uniquely identifies the scheduling
    /// (timers use it for lazy cancellation).
    pub fn schedule_at(&mut self, at: SimTime, payload: E) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.schedule_at_seq(at, seq, payload);
        seq
    }

    /// Schedules `payload` after a delay from the current time.
    pub fn schedule_in(&mut self, delay: crate::time::SimDuration, payload: E) -> u64 {
        self.schedule_at(self.now + delay, payload)
    }

    /// Consumes and returns the next sequence number without scheduling
    /// anything. The sharded engine uses this to mirror the single-threaded
    /// calendar's sequence stream for events that a shard already executed
    /// locally (they never enter this queue, but they did consume a
    /// sequence number in the reference execution).
    pub fn reserve_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Consumes `n` consecutive sequence numbers and returns the first.
    /// The sharded driver grants these blocks to shards whose events
    /// scheduled children during a window, reproducing the single-threaded
    /// calendar's per-event consecutive seq assignment.
    pub fn reserve_seqs(&mut self, n: u64) -> u64 {
        let base = self.next_seq;
        self.next_seq += n;
        base
    }

    /// Schedules `payload` at `at` under an externally-assigned sequence
    /// number, leaving this queue's own seq counter untouched. Shard-local
    /// calendars are fed exclusively through this: real seqs come from the
    /// driver's global counter, provisional seqs carry a high tag bit so
    /// they order after every real seq at the same instant (a child
    /// scheduled mid-window always has a larger global seq than anything
    /// scheduled before the window opened).
    pub fn schedule_at_seq(&mut self, at: SimTime, seq: u64, payload: E) {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: {at:?} < now {:?}",
            self.now
        );
        let at = at.max(self.now);
        let ev = ScheduledEvent {
            time: at,
            seq,
            payload,
        };
        let slot = Self::slot_of(at);
        if slot <= self.cursor {
            // At or behind the cursor (a `pop_until` may have opened a slot
            // past `now`): the ready heap holds every such event.
            self.ready.push(ev);
        } else if slot - self.cursor < NSLOTS {
            self.put_in_wheel(slot, ev);
        } else {
            self.overflow.push(ev);
        }
        self.pending += 1;
        self.peak_len = self.peak_len.max(self.pending);
    }

    /// Links `ev` into its slot's list, reusing a free node if any.
    #[inline]
    fn put_in_wheel(&mut self, slot: u64, ev: ScheduledEvent<E>) {
        let ring = (slot & SLOT_MASK) as usize;
        let next = self.heads[ring];
        let idx = if self.free != NIL {
            let idx = self.free;
            let node = &mut self.nodes[idx as usize];
            self.free = node.next;
            node.ev = Some(ev);
            node.next = next;
            idx
        } else {
            assert!(
                self.nodes.len() < NIL as usize,
                "wheel node pool exceeds u32 indices"
            );
            let idx = self.nodes.len() as u32;
            self.nodes.push(Node { ev: Some(ev), next });
            idx
        };
        self.heads[ring] = idx;
        self.set_bit(ring);
    }

    /// Pops the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        self.pop_until(SimTime::MAX)
    }

    /// Pops the next event only if it is due at or before `horizon`;
    /// otherwise returns `None` and leaves every pending event pending.
    /// This is the run loop's fused peek-and-pop: the cursor opens at most
    /// the horizon's slot, and the slot it opens is walked once, straight
    /// into the ready heap.
    pub fn pop_until(&mut self, horizon: SimTime) -> Option<ScheduledEvent<E>> {
        if !self.fill_ready(Self::slot_of(horizon)) {
            return None;
        }
        let top = self.ready.peek().expect("fill_ready left an event");
        if top.time > horizon {
            return None;
        }
        Some(self.pop_ready())
    }

    /// Pops the next event only if its `(time, seq)` key is strictly below
    /// the boundary `(bt, bseq)`; otherwise leaves the calendar untouched
    /// and returns `None`. This is the conservative-PDES window pop: a
    /// shard drains everything before the boundary, then parks. The cursor
    /// only advances into slots at or before the boundary's slot, so
    /// boundary-time inserts arriving between windows never land behind it.
    pub fn pop_before(&mut self, bt: SimTime, bseq: u64) -> Option<ScheduledEvent<E>> {
        if !self.fill_ready(Self::slot_of(bt)) {
            return None;
        }
        let top = self.ready.peek().expect("fill_ready left an event");
        if (top.time, top.seq) < (bt, bseq) {
            Some(self.pop_ready())
        } else {
            None
        }
    }

    /// Ensures the ready heap holds the next event, opening the next
    /// occupied slot if it is empty — unless nothing is pending or that
    /// slot lies past `last_slot`. Returns whether the ready heap is
    /// non-empty.
    fn fill_ready(&mut self, last_slot: u64) -> bool {
        if self.ready.is_empty() {
            if self.pending == 0 {
                return false;
            }
            let target = self.next_slot().expect("pending > 0 but no occupied slot");
            if target > last_slot {
                return false;
            }
            self.advance_to(target);
        }
        true
    }

    /// Pops the ready heap's top and advances the clock to it.
    /// Precondition: ready non-empty.
    #[inline]
    fn pop_ready(&mut self) -> ScheduledEvent<E> {
        let ev = self.ready.pop().expect("ready heap non-empty");
        debug_assert!(ev.time >= self.now, "calendar produced an out-of-order event");
        self.pending -= 1;
        self.now = ev.time;
        self.popped += 1;
        ev
    }

    /// The absolute slot of the earliest non-ready event (wheel or
    /// overflow). Precondition for `Some`: `pending > ready.len()` or the
    /// queue holds at least one non-ready event.
    fn next_slot(&self) -> Option<u64> {
        let next_wheel = self.next_occupied_after(self.cursor);
        let next_over = self.overflow.peek().map(|e| Self::slot_of(e.time));
        match (next_wheel, next_over) {
            (Some(w), Some(o)) => Some(w.min(o)),
            (Some(w), None) => Some(w),
            (None, Some(o)) => Some(o),
            (None, None) => None,
        }
    }

    /// Moves the cursor to `target` and dumps that slot (plus any overflow
    /// events coming within a rotation) into the ready heap.
    fn advance_to(&mut self, target: u64) {
        self.cursor = target;
        // Overflow events now within one rotation drop into the wheel (or
        // straight into ready, for the slot being opened).
        while let Some(top) = self.overflow.peek() {
            let slot = Self::slot_of(top.time);
            if slot >= target + NSLOTS {
                break;
            }
            let ev = self.overflow.pop().expect("peeked");
            if slot == target {
                self.ready.push(ev);
            } else {
                self.put_in_wheel(slot, ev);
            }
        }
        // Walk the target slot's list into ready, freeing its nodes.
        let ring = (target & SLOT_MASK) as usize;
        if self.bit_is_set(ring) {
            self.clear_bit(ring);
            let mut idx = std::mem::replace(&mut self.heads[ring], NIL);
            while idx != NIL {
                let node = &mut self.nodes[idx as usize];
                let ev = node.ev.take().expect("listed node holds an event");
                let next = node.next;
                node.next = self.free;
                self.free = idx;
                self.ready.push(ev);
                idx = next;
            }
        }
        debug_assert!(!self.ready.is_empty(), "advance chose an empty slot");
    }

    /// The next occupied wheel slot strictly after `cur`, as an absolute
    /// slot number. The cursor's own bit is always clear (its events live
    /// in the ready heap), so a full circular scan is safe.
    fn next_occupied_after(&self, cur: u64) -> Option<u64> {
        let cur_ring = (cur & SLOT_MASK) as usize;
        let ring = self
            .scan_bits(cur_ring + 1, NSLOTS as usize)
            .or_else(|| self.scan_bits(0, cur_ring))?;
        let dist = if ring > cur_ring {
            (ring - cur_ring) as u64
        } else {
            ring as u64 + NSLOTS - cur_ring as u64
        };
        Some(cur + dist)
    }

    /// First set bit with ring index in `[lo, hi)`.
    fn scan_bits(&self, lo: usize, hi: usize) -> Option<usize> {
        if lo >= hi {
            return None;
        }
        let mut w = lo / 64;
        let last_w = (hi - 1) / 64;
        let mut word = self.occupied[w] & (!0u64 << (lo % 64));
        loop {
            if w == last_w {
                let keep = hi - w * 64; // 1..=64
                if keep < 64 {
                    word &= (1u64 << keep) - 1;
                }
            }
            if word != 0 {
                return Some(w * 64 + word.trailing_zeros() as usize);
            }
            if w == last_w {
                return None;
            }
            w += 1;
            word = self.occupied[w];
        }
    }

    /// The events of wheel slot `ring`, in list order.
    fn slot_events(&self, ring: usize) -> impl Iterator<Item = &ScheduledEvent<E>> {
        let mut idx = self.heads[ring];
        std::iter::from_fn(move || {
            if idx == NIL {
                return None;
            }
            let node = &self.nodes[idx as usize];
            idx = node.next;
            node.ev.as_ref()
        })
    }

    /// The timestamp of the next pending event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.peek_key().map(|(t, _)| t)
    }

    /// The `(time, seq)` key of the next pending event without popping it.
    /// The sharded driver peeks its global calendar through this to decide
    /// whether a window's boundary is a global event or pure lookahead.
    pub fn peek_key(&self) -> Option<(SimTime, u64)> {
        if let Some(e) = self.ready.peek() {
            return Some((e.time, e.seq));
        }
        if self.pending == 0 {
            return None;
        }
        let over = self.overflow.peek().map(|e| (e.time, e.seq));
        match self.next_occupied_after(self.cursor) {
            Some(w) if over.is_none_or(|(t, _)| Self::slot_of(t) >= w) => {
                // Earliest event is in wheel slot `w` (an overflow event in
                // the same slot may still be sooner — compare keys).
                let bucket_min = self
                    .slot_events((w & SLOT_MASK) as usize)
                    .map(|e| (e.time, e.seq))
                    .min()
                    .expect("occupied bit set on an empty slot");
                match over {
                    Some(k) if Self::slot_of(k.0) == w => Some(bucket_min.min(k)),
                    _ => Some(bucket_min),
                }
            }
            _ => over,
        }
    }

    /// Removes and returns every pending event whose payload matches
    /// `pred`, sorted by `(time, seq)`; non-matching events stay exactly
    /// where they were. O(pending + wheel slots) — used only at migration
    /// boundaries, where a VM's not-yet-due flow events move to the flow's
    /// new owner shard with their global keys intact.
    pub fn extract_if(&mut self, mut pred: impl FnMut(&E) -> bool) -> Vec<ScheduledEvent<E>> {
        let mut out = Vec::new();
        let mut keep = BinaryHeap::with_capacity(self.ready.len());
        for ev in std::mem::take(&mut self.ready) {
            if pred(&ev.payload) {
                out.push(ev);
            } else {
                keep.push(ev);
            }
        }
        self.ready = keep;
        for ring in 0..NSLOTS as usize {
            if !self.bit_is_set(ring) {
                continue;
            }
            // Unlink matching nodes; `prev` is the last kept node.
            let mut prev = NIL;
            let mut idx = self.heads[ring];
            while idx != NIL {
                let node = &mut self.nodes[idx as usize];
                let next = node.next;
                if pred(&node.ev.as_ref().expect("listed node holds an event").payload) {
                    out.push(node.ev.take().expect("checked"));
                    node.next = self.free;
                    self.free = idx;
                    if prev == NIL {
                        self.heads[ring] = next;
                    } else {
                        self.nodes[prev as usize].next = next;
                    }
                } else {
                    prev = idx;
                }
                idx = next;
            }
            if self.heads[ring] == NIL {
                self.clear_bit(ring);
            }
        }
        let mut keep = BinaryHeap::with_capacity(self.overflow.len());
        for ev in std::mem::take(&mut self.overflow) {
            if pred(&ev.payload) {
                out.push(ev);
            } else {
                keep.push(ev);
            }
        }
        self.overflow = keep;
        self.pending -= out.len();
        out.sort_by_key(|a| (a.time, a.seq));
        out
    }
}

/// The original single-binary-heap calendar, kept as a test oracle: the
/// timing wheel must reproduce its pop order event-for-event.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;

    /// Reference implementation with the same scheduling semantics.
    #[derive(Debug, Default)]
    pub struct HeapQueue<E> {
        heap: BinaryHeap<ScheduledEvent<E>>,
        next_seq: u64,
        now: SimTime,
    }

    impl<E> HeapQueue<E> {
        pub fn new() -> Self {
            HeapQueue {
                heap: BinaryHeap::new(),
                next_seq: 0,
                now: SimTime::ZERO,
            }
        }

        pub fn schedule_at(&mut self, at: SimTime, payload: E) -> u64 {
            let at = at.max(self.now);
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(ScheduledEvent {
                time: at,
                seq,
                payload,
            });
            seq
        }

        pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
            let ev = self.heap.pop()?;
            self.now = ev.time;
            Some(ev)
        }

        pub fn schedule_at_seq(&mut self, at: SimTime, seq: u64, payload: E) {
            self.heap.push(ScheduledEvent {
                time: at.max(self.now),
                seq,
                payload,
            });
        }

        pub fn pop_until(&mut self, horizon: SimTime) -> Option<ScheduledEvent<E>> {
            if self.heap.peek()?.time > horizon {
                return None;
            }
            self.pop()
        }

        pub fn extract_if(&mut self, mut pred: impl FnMut(&E) -> bool) -> Vec<ScheduledEvent<E>> {
            let (mut out, keep): (Vec<_>, Vec<_>) =
                std::mem::take(&mut self.heap).into_iter().partition(|e| pred(&e.payload));
            self.heap = keep.into();
            out.sort_by_key(|e| (e.time, e.seq));
            out
        }

        pub fn peek_time(&self) -> Option<SimTime> {
            self.heap.peek().map(|e| e.time)
        }

        pub fn len(&self) -> usize {
            self.heap.len()
        }

        pub fn now(&self) -> SimTime {
            self.now
        }
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::HeapQueue;
    use super::*;
    use crate::time::SimDuration;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(30), "c");
        q.schedule_at(SimTime::from_nanos(10), "a");
        q.schedule_at(SimTime::from_nanos(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert_eq!(q.now(), SimTime::from_nanos(30));
        assert_eq!(q.events_executed(), 3);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(5);
        for i in 0..100 {
            q.schedule_at(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn schedule_in_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(100), 0);
        q.pop();
        q.schedule_in(SimDuration::from_nanos(50), 1);
        let e = q.pop().unwrap();
        assert_eq!(e.time, SimTime::from_nanos(150));
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(10), 1);
        q.schedule_at(SimTime::from_nanos(40), 4);
        assert_eq!(q.pop().unwrap().payload, 1);
        q.schedule_at(SimTime::from_nanos(20), 2);
        q.schedule_at(SimTime::from_nanos(30), 3);
        let rest: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(rest, vec![2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    #[cfg(debug_assertions)]
    fn scheduling_in_the_past_panics_in_debug() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(100), ());
        q.pop();
        q.schedule_at(SimTime::from_nanos(50), ());
    }

    #[test]
    fn peak_len_tracks_high_water_mark() {
        let mut q = EventQueue::new();
        assert_eq!(q.peak_len(), 0);
        q.schedule_at(SimTime::from_nanos(10), 1);
        q.schedule_at(SimTime::from_nanos(20), 2);
        q.schedule_at(SimTime::from_nanos(30), 3);
        assert_eq!(q.peak_len(), 3);
        q.pop();
        q.pop();
        q.schedule_at(SimTime::from_nanos(40), 4);
        // Draining below the peak must not lower it.
        assert_eq!(q.peak_len(), 3);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn occupancy_breakdown_partitions_pending() {
        let mut q = EventQueue::new();
        assert_eq!(q.occupancy_breakdown(), (0, 0, 0));
        q.schedule_at(SimTime::from_nanos(10), 1); // slot 0: straight to ready
        q.schedule_at(SimTime::from_nanos(500_000), 2); // within horizon: wheel
        q.schedule_at(SimTime::from_millis(50), 3); // beyond horizon: overflow
        let (ready, wheel, overflow) = q.occupancy_breakdown();
        assert_eq!(ready + wheel + overflow, q.len());
        assert_eq!(overflow, 1);
        assert_eq!(ready, 1);
        assert_eq!(wheel, 1);
        q.pop();
        q.pop();
        q.pop();
        assert_eq!(q.occupancy_breakdown(), (0, 0, 0));
    }

    #[test]
    fn peek_does_not_advance_clock() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(10), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(10)));
        assert_eq!(q.now(), SimTime::ZERO);
    }

    #[test]
    fn events_beyond_the_wheel_horizon_pop_in_order() {
        // > 1 ms deltas force the overflow path; interleave with near events.
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(50), "far");
        q.schedule_at(SimTime::from_nanos(10), "near");
        q.schedule_at(SimTime::from_millis(3), "mid");
        q.schedule_at(SimTime::from_millis(50), "far2"); // same-time tie
        assert_eq!(q.pop().unwrap().payload, "near");
        q.schedule_at(SimTime::from_millis(2), "mid0");
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec!["mid0", "mid", "far", "far2"]);
        assert_eq!(q.now(), SimTime::from_millis(50));
    }

    #[test]
    fn wheel_wraps_across_many_rotations() {
        // March the cursor across >> NSLOTS slots with a sparse event train.
        let mut q = EventQueue::new();
        let step = SimDuration::from_nanos(900_000); // ~0.9 ms, near-horizon
        let mut expect = Vec::new();
        q.schedule_at(SimTime::ZERO, 0u32);
        for i in 1..40 {
            let at = SimTime::from_nanos(i as u64 * step.as_nanos());
            q.schedule_at(at, i);
        }
        for i in 0..40u32 {
            expect.push(i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, expect);
    }

    #[test]
    fn reserve_seqs_grants_consecutive_blocks() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert_eq!(q.reserve_seqs(3), 0);
        assert_eq!(q.reserve_seq(), 3);
        assert_eq!(q.reserve_seqs(2), 4);
        assert_eq!(q.schedule_at(SimTime::from_nanos(1), ()), 6);
    }

    #[test]
    fn explicit_seqs_control_tie_order() {
        // Inserts carry externally-assigned seqs; FIFO ties follow the seq,
        // not insertion order, and the queue's own counter is untouched.
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(64);
        q.schedule_at_seq(t, 7, "late");
        q.schedule_at_seq(t, 2, "early");
        q.schedule_at_seq(SimTime::from_millis(40), 1, "far"); // overflow path
        assert_eq!(q.pop().unwrap().payload, "early");
        assert_eq!(q.pop().unwrap().payload, "late");
        assert_eq!(q.pop().unwrap().payload, "far");
        assert_eq!(q.schedule_at(SimTime::from_millis(41), "auto"), 0);
    }

    #[test]
    fn provisional_tag_orders_after_real_seqs() {
        const PROV: u64 = 1 << 63;
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(100);
        q.schedule_at_seq(t, PROV, "child0");
        q.schedule_at_seq(t, 40, "real");
        q.schedule_at_seq(t, PROV | 1, "child1");
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec!["real", "child0", "child1"]);
    }

    #[test]
    fn pop_before_respects_time_and_seq_boundary() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(10), "a"); // seq 0
        q.schedule_at(SimTime::from_nanos(20), "b"); // seq 1
        q.schedule_at(SimTime::from_nanos(20), "c"); // seq 2
        q.schedule_at(SimTime::from_nanos(30), "d"); // seq 3
        // Boundary at (20, seq 2): "a" and "b" drain, "c" parks.
        assert_eq!(q.pop_before(SimTime::from_nanos(20), 2).unwrap().payload, "a");
        assert_eq!(q.pop_before(SimTime::from_nanos(20), 2).unwrap().payload, "b");
        assert!(q.pop_before(SimTime::from_nanos(20), 2).is_none());
        // Next window picks "c" and "d" up where they were left.
        assert_eq!(q.pop_before(SimTime::from_nanos(100), 0).unwrap().payload, "c");
        assert_eq!(q.pop_before(SimTime::from_nanos(100), 0).unwrap().payload, "d");
        assert!(q.pop_before(SimTime::from_nanos(100), 0).is_none());
        assert_eq!(q.events_executed(), 4);
    }

    #[test]
    fn pop_before_leaves_cursor_safe_for_boundary_inserts() {
        // The only pending event is far past the boundary: pop_before must
        // not advance the cursor to it, so a later insert *at* the boundary
        // still lands on a slot >= cursor.
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_micros(500), "far");
        let bt = SimTime::from_micros(10);
        assert!(q.pop_before(bt, 0).is_none());
        q.schedule_at_seq(bt, 100, "boundary");
        assert_eq!(q.pop_before(SimTime::from_micros(600), 0).unwrap().payload, "boundary");
        assert_eq!(q.pop_before(SimTime::from_micros(600), 0).unwrap().payload, "far");
    }

    #[test]
    fn pop_before_drains_wheel_and_overflow_up_to_boundary() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(5), 0u32);
        q.schedule_at(SimTime::from_micros(300), 1); // wheel
        q.schedule_at(SimTime::from_millis(20), 2); // overflow
        let bt = SimTime::from_millis(30);
        let mut got = Vec::new();
        while let Some(e) = q.pop_before(bt, 0) {
            got.push(e.payload);
        }
        assert_eq!(got, vec![0, 1, 2]);
        assert!(q.is_empty());
    }

    #[test]
    fn peek_key_agrees_with_pop_everywhere() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(12), ());
        q.schedule_at(SimTime::from_nanos(12), ());
        q.schedule_at(SimTime::from_micros(200), ());
        q.schedule_at(SimTime::from_millis(90), ());
        while let Some(key) = q.peek_key() {
            let e = q.pop().unwrap();
            assert_eq!(key, (e.time, e.seq));
        }
        assert_eq!(q.peek_key(), None);
    }

    #[test]
    fn extract_if_pulls_matches_from_every_structure() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(3), 10u32); // ready
        q.schedule_at(SimTime::from_nanos(7), 21); // ready, odd
        q.schedule_at(SimTime::from_micros(400), 11); // wheel, odd
        q.schedule_at(SimTime::from_micros(420), 12); // wheel
        q.schedule_at(SimTime::from_millis(50), 13); // overflow, odd
        let odd = q.extract_if(|p| p % 2 == 1);
        let keys: Vec<_> = odd.iter().map(|e| e.payload).collect();
        assert_eq!(keys, vec![21, 11, 13]); // sorted by (time, seq)
        assert_eq!(q.len(), 2);
        let rest: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(rest, vec![10, 12]);
        // Re-inserting under the original keys restores global order.
        let mut q2 = EventQueue::new();
        for e in odd {
            q2.schedule_at_seq(e.time, e.seq, e.payload);
        }
        let back: Vec<_> = std::iter::from_fn(|| q2.pop().map(|e| e.payload)).collect();
        assert_eq!(back, vec![21, 11, 13]);
    }

    #[test]
    fn pop_until_stops_at_the_horizon_and_accepts_behind_cursor_inserts() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(5), "a");
        q.schedule_at(SimTime::from_nanos(1_000), "late"); // slot 7
        assert_eq!(q.pop_until(SimTime::from_nanos(999)).unwrap().payload, "a");
        // Opens slot 7 (the horizon's slot), finds "late" past the horizon.
        assert!(q.pop_until(SimTime::from_nanos(999)).is_none());
        assert_eq!(q.now(), SimTime::from_nanos(5));
        // Slots 0..7 now lie behind the cursor; these must still pop first.
        q.schedule_at(SimTime::from_nanos(300), "b");
        q.schedule_at(SimTime::from_nanos(900), "c");
        q.schedule_at(SimTime::from_nanos(1_000), "late2");
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(300)));
        let order: Vec<_> = std::iter::from_fn(|| q.pop_until(SimTime::MAX).map(|e| e.payload))
            .collect();
        assert_eq!(order, vec!["b", "c", "late", "late2"]);
    }

    #[test]
    fn pop_until_never_opens_a_slot_past_the_horizon() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_micros(500), "far");
        q.schedule_at(SimTime::from_millis(40), "overflow");
        assert!(q.pop_until(SimTime::from_micros(10)).is_none());
        assert_eq!(q.occupancy_breakdown(), (0, 1, 1));
        assert_eq!(q.pop_until(SimTime::from_micros(500)).unwrap().payload, "far");
        assert!(q.pop_until(SimTime::from_millis(39)).is_none());
        assert_eq!(q.pop_until(SimTime::from_millis(40)).unwrap().payload, "overflow");
        assert!(q.pop_until(SimTime::MAX).is_none());
    }

    #[test]
    fn wheel_memory_tracks_pending_not_slot_history() {
        // Bursts of 300 events per slot, every 16th slot, for 3 rotations:
        // at most two bursts are pending at once, but 512 distinct slots
        // each see 300 events. A per-slot bucket keeps its densest
        // capacity forever (~6.5 MB here); the shared pool must stay within
        // a constant factor of the peak population.
        const BURST: u64 = 300;
        const STRIDE: u64 = 16;
        let slot_ns = 1u64 << SLOT_NS_SHIFT;
        let mut q = EventQueue::new();
        let mut payload = 0u64;
        let mut popped = 0u64;
        for step in 0..3 * NSLOTS / STRIDE {
            let base = (step + 1) * STRIDE * slot_ns;
            for i in 0..BURST {
                q.schedule_at(SimTime::from_nanos(base + i % slot_ns), payload);
                payload += 1;
            }
            // Drain everything due before this burst.
            while q.pop_until(SimTime::from_nanos(base - 1)).is_some() {
                popped += 1;
            }
        }
        while q.pop().is_some() {
            popped += 1;
        }
        assert_eq!(popped, payload);
        let fixed = NSLOTS as usize * std::mem::size_of::<u32>() + BITMAP_WORDS * 8;
        let per_event = std::mem::size_of::<Node<u64>>();
        let bound = fixed + 4 * q.peak_len() * per_event;
        assert!(
            q.resident_bytes() <= bound,
            "calendar holds {} B for a peak of {} events (bound {bound} B)",
            q.resident_bytes(),
            q.peak_len()
        );
    }

    /// Replays one op tape against both calendars and compares every
    /// observable: peek, pop sequence (time, seq, payload), now, length.
    ///
    /// `op % 16` picks the operation: 0–1 pop, 2–4 `pop_until` a horizon
    /// `delta` past now (followed, when it returns `None`, by a schedule
    /// between now and that horizon — behind a cursor the failed pop may
    /// have advanced), 5–6 `schedule_at_seq` under a tagged external seq,
    /// 7 `extract_if` on a payload residue, otherwise `schedule_at`. The
    /// shift `op / 16` spreads deltas from same-slot ties to far past the
    /// wheel horizon.
    fn check_equivalence(ops: &[(u16, u8)]) {
        const EXT: u64 = 1 << 62;
        let mut wheel = EventQueue::new();
        let mut heap = HeapQueue::new();
        let mut next_payload = 0u32;
        let mut next_ext = 0u64;
        for &(offset, op) in ops {
            // Shifted offsets reach from same-slot ties (shift 0) to far
            // past the wheel horizon (65535 << 11 ≈ 134 ms).
            let delta = (offset as u64) << ((op / 16) % 12);
            let at = SimTime::from_nanos(wheel.now().as_nanos() + delta);
            match op % 16 {
                0 | 1 => {
                    let (a, b) = (wheel.pop(), heap.pop());
                    assert_same_event(a, b);
                }
                2..=4 => {
                    let (a, b) = (wheel.pop_until(at), heap.pop_until(at));
                    let missed = a.is_none();
                    assert_same_event(a, b);
                    if missed {
                        let t = SimTime::from_nanos(
                            wheel.now().as_nanos() + delta / (1 + offset as u64 % 4),
                        );
                        let sa = wheel.schedule_at(t, next_payload);
                        let sb = heap.schedule_at(t, next_payload);
                        assert_eq!(sa, sb);
                        next_payload += 1;
                    }
                }
                5 | 6 => {
                    wheel.schedule_at_seq(at, EXT | next_ext, next_payload);
                    heap.schedule_at_seq(at, EXT | next_ext, next_payload);
                    next_ext += 1;
                    next_payload += 1;
                }
                7 => {
                    let m = 2 + (offset % 5) as u32;
                    let r = (offset / 5) as u32 % m;
                    let a = wheel.extract_if(|p| p % m == r);
                    let b = heap.extract_if(|p| p % m == r);
                    let key = |v: Vec<ScheduledEvent<u32>>| -> Vec<_> {
                        v.into_iter().map(|e| (e.time, e.seq, e.payload)).collect()
                    };
                    assert_eq!(key(a), key(b));
                }
                _ => {
                    let sa = wheel.schedule_at(at, next_payload);
                    let sb = heap.schedule_at(at, next_payload);
                    assert_eq!(sa, sb);
                    next_payload += 1;
                }
            }
            assert_eq!(wheel.now(), heap.now());
            assert_eq!(wheel.len(), heap.len());
            assert_eq!(wheel.peek_time(), heap.peek_time());
        }
        // Drain both to the end.
        loop {
            match (wheel.pop(), heap.pop()) {
                (None, None) => break,
                (a, b) => assert_same_event(a, b),
            }
        }
    }

    fn assert_same_event(a: Option<ScheduledEvent<u32>>, b: Option<ScheduledEvent<u32>>) {
        match (a, b) {
            (None, None) => {}
            (Some(x), Some(y)) => {
                assert_eq!((x.time, x.seq, x.payload), (y.time, y.seq, y.payload))
            }
            (a, b) => panic!("pop divergence: {a:?} vs {b:?}"),
        }
    }

    #[test]
    fn equivalence_on_dense_ties() {
        // Many zero and tiny offsets: every tie-breaking path.
        let ops: Vec<(u16, u8)> = (0..400)
            .map(|i| ((i % 3) as u16, (i % 11 + 16 * (i % 2)) as u8))
            .collect();
        check_equivalence(&ops);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn wheel_matches_heap_oracle(
            ops in proptest::collection::vec((any::<u16>(), any::<u8>()), 0..300)
        ) {
            check_equivalence(&ops);
        }

        #[test]
        fn windowed_pop_before_is_plain_pop(
            times in proptest::collection::vec(0u64..4_000_000u64, 1..120),
            window in 1u64..700_000,
        ) {
            // Draining through successive pop_before boundaries must yield
            // the exact pop order of an unwindowed queue.
            let mut plain = EventQueue::new();
            let mut windowed = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                plain.schedule_at(SimTime::from_nanos(t), i);
                windowed.schedule_at(SimTime::from_nanos(t), i);
            }
            let expect: Vec<_> =
                std::iter::from_fn(|| plain.pop().map(|e| (e.time, e.seq, e.payload))).collect();
            let mut got = Vec::new();
            let mut bt = 0u64;
            while !windowed.is_empty() {
                bt += window;
                while let Some(e) = windowed.pop_before(SimTime::from_nanos(bt), 0) {
                    got.push((e.time, e.seq, e.payload));
                }
            }
            prop_assert_eq!(got, expect);
        }
    }
}
