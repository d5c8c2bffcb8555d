//! Deterministic time-ordered event queue.
//!
//! [`EventQueue`] is a priority queue keyed by [`SimTime`]. Events scheduled
//! for the same instant are delivered in insertion order (FIFO), which makes
//! simulation runs bit-for-bit reproducible regardless of queue internals:
//! every pop returns the global minimum of `(time, seq)`, where `seq` is a
//! strictly increasing push counter, packed into one `u128` key.
//!
//! The layout follows the traffic the engine generates. Measured over the
//! 16.7M pushes of a 2 ms network-aware VWL+ROO run of mixB on the big
//! ternary tree:
//!
//! - 89% of pushes find 65–128 events pending;
//! - 29% of pushes land at the current instant;
//! - 88% use one of eight fixed delays: 0, 0.64, 2.56 and 3.2 ns for link
//!   and router steps, 30 ns for DRAM reads, and 32 ns, 128 ns and
//!   2.048 µs for ROO turn-off checks;
//! - every push lands within 4.19 µs, except the 21 epoch ends (100 µs).
//!
//! So the queue has three parts, and a pop takes the smallest of their
//! fronts, which makes the delivery sequence identical to a single sorted
//! queue's:
//!
//! - a FIFO *bucket* for events scheduled at the frontier (the time of the
//!   most recent pop), which needs no ordering work at all;
//! - a *timing wheel* of 4096 slots, each 2^10 ps wide, covering the
//!   4.19 µs horizon ahead of its cursor. Each slot holds an ascending
//!   list of its keys, threaded through one node slab with a free list,
//!   and a one-bit-per-slot bitmap scanned from the cursor finds the next
//!   occupied slot;
//! - an ordered *overflow* for the keys the wheel cannot hold: past its
//!   horizon (the epoch ends) or behind its cursor.

use std::collections::{BTreeMap, VecDeque};

use crate::time::SimTime;

/// Packs `(time, seq)` into one `u128` whose integer order equals the
/// lexicographic order of the pair.
#[inline]
fn pack(time: SimTime, seq: u64) -> u128 {
    (u128::from(time.as_ps()) << 64) | u128::from(seq)
}

#[inline]
fn unpack_time(key: u128) -> SimTime {
    SimTime::from_ps((key >> 64) as u64)
}

/// Width of one wheel slot: 2^10 ps = 1.024 ns. The link and router
/// steps (0.64–3.2 ns) land up to four slots past the cursor and the DRAM
/// and short ROO steps (30–128 ns) 29–125 slots past it, so the next
/// occupied slot is nearly always in the cursor's own 64-slot bitmap word:
/// over the run above, a scan reads 0.003 further words on average. The
/// pending events crowd the next few nanoseconds, so a slot still holds a
/// few keys: of the pushes that reach the wheel, 15% find their slot
/// empty, 34% append to its list, 14% prepend, and 37% walk 2.75 nodes on
/// average.
const SLOT_SHIFT: u32 = 10;

/// Slots on the wheel: 4096 × 1.024 ns = a 4.19 µs horizon, which holds
/// every delay the engine schedules (the longest regular one is the
/// 2.048 µs ROO turn-off check) except the 100 µs epoch ends.
const SLOTS: usize = 4096;

/// `u64` words in the occupancy bitmap.
const WORDS: usize = SLOTS / 64;

/// Null node index.
const NIL: u32 = u32::MAX;

/// Absolute wheel slot (not reduced modulo [`SLOTS`]) of a packed key.
#[inline]
fn slot_of(key: u128) -> u64 {
    (key >> 64) as u64 >> SLOT_SHIFT
}

/// One pending event on the wheel, linked into its slot's list.
#[derive(Debug, Clone)]
struct Node<E> {
    key: u128,
    /// Next node in the slot's list (or in the free list).
    next: u32,
    /// `None` only while the node sits on the free list.
    event: Option<E>,
}

/// First and last node of one slot's ascending list (`NIL` when empty).
#[derive(Debug, Clone, Copy)]
struct Slot {
    head: u32,
    tail: u32,
}

/// Where the timeline's earliest key lives.
#[derive(Debug, Clone, Copy)]
enum Front {
    /// The head of this wheel slot (ring index).
    Wheel(usize),
    Overflow,
}

/// Every pending event not in the frontier bucket: a timing wheel for
/// keys in `[cursor, cursor + SLOTS)` (as absolute slots) and an ordered
/// overflow for the rest.
///
/// The cursor only moves forward, and only up to the slot of the key
/// being popped as the global minimum. So every wheel key stays inside
/// that window, and scanning the ring from the cursor meets the keys in
/// time order.
#[derive(Debug, Clone)]
struct Timeline<E> {
    slots: Vec<Slot>,
    /// Bit `r` is set iff slot `r`'s list is non-empty.
    occupied: [u64; WORDS],
    nodes: Vec<Node<E>>,
    /// Head of the free list threaded through `nodes`.
    free: u32,
    /// Absolute slot of the earliest key the wheel may hold.
    cursor: u64,
    /// Events on the wheel (the overflow counts its own).
    on_wheel: usize,
    overflow: BTreeMap<u128, E>,
}

impl<E> Timeline<E> {
    fn with_capacity(cap: usize) -> Self {
        Timeline {
            slots: vec![Slot { head: NIL, tail: NIL }; SLOTS],
            occupied: [0; WORDS],
            nodes: Vec::with_capacity(cap),
            free: NIL,
            cursor: 0,
            on_wheel: 0,
            overflow: BTreeMap::new(),
        }
    }

    #[inline]
    fn len(&self) -> usize {
        self.on_wheel + self.overflow.len()
    }

    fn push(&mut self, key: u128, event: E) {
        let slot = slot_of(key);
        if slot.wrapping_sub(self.cursor) >= SLOTS as u64 {
            self.overflow.insert(key, event);
            return;
        }
        let r = slot as usize % SLOTS;
        let n = self.alloc(key, event);
        self.on_wheel += 1;
        let Slot { head, tail } = self.slots[r];
        if head == NIL {
            self.slots[r] = Slot { head: n, tail: n };
            self.occupied[r / 64] |= 1 << (r % 64);
        } else if self.nodes[tail as usize].key < key {
            // Checked first because it skips the walk: a later push
            // carries a larger seq, and often a time at or after its
            // slot-mates'.
            self.nodes[tail as usize].next = n;
            self.slots[r].tail = n;
        } else if key < self.nodes[head as usize].key {
            self.nodes[n as usize].next = head;
            self.slots[r].head = n;
        } else {
            // Strictly between head and tail (keys are unique), so the
            // walk stops before the end of the list.
            let mut prev = head as usize;
            loop {
                let next = self.nodes[prev].next as usize;
                if self.nodes[next].key > key {
                    break;
                }
                prev = next;
            }
            self.nodes[n as usize].next = self.nodes[prev].next;
            self.nodes[prev].next = n;
        }
    }

    /// Stores `(key, event)` in a free node, growing the slab if none is
    /// free, and returns its index.
    fn alloc(&mut self, key: u128, event: E) -> u32 {
        let node = Node { key, next: NIL, event: Some(event) };
        if self.free == NIL {
            let n = u32::try_from(self.nodes.len()).expect("fewer than 2^32 - 1 pending events");
            self.nodes.push(node);
            n
        } else {
            let n = self.free;
            self.free = self.nodes[n as usize].next;
            self.nodes[n as usize] = node;
            n
        }
    }

    /// Ring index of the first occupied slot at or after the cursor.
    #[inline]
    fn first_slot(&self) -> Option<usize> {
        if self.on_wheel == 0 {
            return None;
        }
        let start = self.cursor as usize % SLOTS;
        let mut word = start / 64;
        let mut bits = self.occupied[word] & (u64::MAX << (start % 64));
        // WORDS + 1 words: the last revisits the start word for the slots
        // below the cursor, which are the far end of the window.
        for _ in 0..=WORDS {
            if bits != 0 {
                return Some(word * 64 + bits.trailing_zeros() as usize);
            }
            word = (word + 1) % WORDS;
            bits = self.occupied[word];
        }
        unreachable!("{} events on the wheel but no occupied slot", self.on_wheel)
    }

    /// The earliest key and where it lives.
    #[inline]
    fn front(&self) -> Option<(u128, Front)> {
        let wheel = self
            .first_slot()
            .map(|r| (self.nodes[self.slots[r].head as usize].key, Front::Wheel(r)));
        match (wheel, self.overflow.first_key_value()) {
            (Some((k, _)), Some((&o, _))) if o < k => Some((o, Front::Overflow)),
            (None, Some((&o, _))) => Some((o, Front::Overflow)),
            (wheel, _) => wheel,
        }
    }

    /// Removes the entry [`Timeline::front`] returned as `(key, at)` and
    /// moves the cursor up to its slot.
    #[inline]
    fn take(&mut self, key: u128, at: Front) -> E {
        match at {
            Front::Wheel(r) => {
                let n = self.slots[r].head;
                let node = &mut self.nodes[n as usize];
                let next = node.next;
                let event = node.event.take().expect("listed nodes hold an event");
                node.next = self.free;
                self.free = n;
                self.slots[r].head = next;
                if next == NIL {
                    self.occupied[r / 64] &= !(1 << (r % 64));
                }
                self.on_wheel -= 1;
                self.cursor = slot_of(key);
                event
            }
            Front::Overflow => {
                let (_, event) = self.overflow.pop_first().expect("front came from the overflow");
                // A key behind the cursor leaves it where it is: moving it
                // back would alias the far end of the window.
                self.cursor = self.cursor.max(slot_of(key));
                event
            }
        }
    }
}

/// A time-ordered queue of simulation events.
///
/// # Examples
///
/// ```
/// use memnet_simcore::{EventQueue, SimTime};
///
/// let mut queue = EventQueue::new();
/// queue.push(SimTime::from_ps(30), 'b');
/// queue.push(SimTime::from_ps(10), 'a');
/// queue.push(SimTime::from_ps(30), 'c');
///
/// let order: Vec<char> = std::iter::from_fn(|| queue.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, ['a', 'b', 'c']); // same-time events keep insertion order
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    timeline: Timeline<E>,
    /// FIFO of entries all scheduled exactly at `bucket_time` (ascending
    /// `seq`), so its front is the bucket's `(time, seq)` minimum.
    bucket: VecDeque<(u64, E)>,
    /// Firing time shared by every entry in `bucket`.
    bucket_time: SimTime,
    /// Time of the most recent pop (starts at the epoch, `SimTime::ZERO`).
    frontier: SimTime,
    seq: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue::with_capacity(0)
    }

    /// Creates an empty queue with capacity for `cap` pending events.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            timeline: Timeline::with_capacity(cap),
            bucket: VecDeque::with_capacity(cap.min(256)),
            bucket_time: SimTime::ZERO,
            frontier: SimTime::ZERO,
            seq: 0,
        }
    }

    /// Schedules `event` to fire at `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.seq;
        self.seq += 1;
        // Same-instant fast path: an event scheduled at the frontier (the
        // time currently being drained) joins the FIFO bucket with no
        // timeline insert. The bucket only ever holds entries for one
        // instant.
        if self.bucket.is_empty() {
            if time == self.frontier {
                self.bucket_time = time;
                self.bucket.push_back((seq, event));
                return;
            }
        } else if time == self.bucket_time {
            self.bucket.push_back((seq, event));
            return;
        }
        self.timeline.push(pack(time, seq), event);
    }

    /// Removes and returns the earliest event, or `None` if the queue is empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_at_or_before(SimTime::MAX)
    }

    /// Removes and returns the earliest event if it fires at or before
    /// `limit`; leaves the queue untouched otherwise.
    ///
    /// This is the main-loop primitive: one call replaces the
    /// `peek_time` + `pop` pair, deciding between the bucket fast path and
    /// the timeline exactly once per event.
    #[inline]
    pub fn pop_at_or_before(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        // Merge the bucket and the timeline by exact (time, seq) order:
        // the bucket's front is its minimum (one shared time, ascending
        // seq), so comparing it against the timeline's front yields the
        // global minimum and delivery order matches a single sorted queue.
        let front = self.timeline.front();
        let take_timeline = match (self.bucket.front(), front) {
            (None, None) => return None,
            (None, Some(_)) => true,
            (Some(_), None) => false,
            (Some(&(bseq, _)), Some((key, _))) => key < pack(self.bucket_time, bseq),
        };
        if take_timeline {
            let (key, at) = front.expect("checked non-empty");
            let time = unpack_time(key);
            if time > limit {
                return None;
            }
            self.frontier = time;
            Some((time, self.timeline.take(key, at)))
        } else {
            if self.bucket_time > limit {
                return None;
            }
            let time = self.bucket_time;
            self.frontier = time;
            self.bucket.pop_front().map(|(_, event)| (time, event))
        }
    }

    /// The firing time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        let timeline_time = self.timeline.front().map(|(key, _)| unpack_time(key));
        let bucket_time = (!self.bucket.is_empty()).then_some(self.bucket_time);
        match (timeline_time, bucket_time) {
            (Some(h), Some(b)) => Some(h.min(b)),
            (h, b) => h.or(b),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.timeline.len() + self.bucket.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ps(5), 5u32);
        q.push(SimTime::from_ps(1), 1);
        q.push(SimTime::from_ps(3), 3);
        let times: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(t, _)| t.as_ps())).collect();
        assert_eq!(times, [1, 3, 5]);
    }

    #[test]
    fn same_time_events_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(SimTime::from_ps(7), i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        let expected: Vec<u32> = (0..100).collect();
        assert_eq!(order, expected);
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        assert!(q.peek_time().is_none());
        q.push(SimTime::from_ps(9), ());
        q.push(SimTime::from_ps(2), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_ps(2)));
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_ps(2));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ps(10), "a");
        q.push(SimTime::from_ps(20), "b");
        assert_eq!(q.pop().unwrap().1, "a");
        q.push(SimTime::from_ps(15), "c");
        q.push(SimTime::from_ps(15), "d");
        assert_eq!(q.pop().unwrap().1, "c");
        assert_eq!(q.pop().unwrap().1, "d");
        assert_eq!(q.pop().unwrap().1, "b");
        assert!(q.is_empty());
    }

    #[test]
    fn frontier_pushes_interleave_with_timeline_entries() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ps(10), "a");
        assert_eq!(q.pop().unwrap(), (SimTime::from_ps(10), "a"));
        // These land in the frontier bucket (scheduled at the current time).
        q.push(SimTime::from_ps(10), "b");
        q.push(SimTime::from_ps(20), "c");
        q.push(SimTime::from_ps(10), "d");
        assert_eq!(q.peek_time(), Some(SimTime::from_ps(10)));
        assert_eq!(q.pop().unwrap(), (SimTime::from_ps(10), "b"));
        assert_eq!(q.pop().unwrap(), (SimTime::from_ps(10), "d"));
        assert_eq!(q.pop().unwrap(), (SimTime::from_ps(20), "c"));
        assert!(q.is_empty());
    }

    #[test]
    fn timeline_entry_scheduled_earlier_beats_bucket_at_same_time() {
        let mut q = EventQueue::new();
        // Both at t=10, pushed before the frontier reaches 10: they go to
        // the timeline with seqs 0 and 1.
        q.push(SimTime::from_ps(10), "a");
        q.push(SimTime::from_ps(10), "b");
        assert_eq!(q.pop().unwrap().1, "a"); // frontier is now 10
                                             // Bucket entry at t=10 has seq 2, after "b"'s seq 1: FIFO order
                                             // must still deliver "b" first.
        q.push(SimTime::from_ps(10), "c");
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "c");
    }

    #[test]
    fn matches_reference_queue_on_random_schedule() {
        // Cross-check against a naive sorted-by-(time, seq) reference over
        // an interleaved push/pop workload biased toward frontier pushes.
        let mut rng = crate::SplitMix64::new(0xBEEF);
        let mut q = EventQueue::new();
        let mut reference: Vec<(u64, u64)> = Vec::new(); // (time_ps, seq)
        let mut seq = 0u64;
        let mut frontier = 0u64;
        let mut popped = Vec::new();
        let mut expected = Vec::new();
        for _ in 0..2000 {
            if rng.next_bool(0.6) {
                let t = if rng.next_bool(0.5) {
                    frontier // same-instant push
                } else {
                    frontier + rng.next_below(50)
                };
                q.push(SimTime::from_ps(t), seq);
                reference.push((t, seq));
                seq += 1;
            } else if let Some((t, e)) = q.pop() {
                frontier = t.as_ps();
                popped.push(e);
                let min = reference
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, &(rt, rs))| (rt, rs))
                    .map(|(i, _)| i)
                    .expect("reference tracks queue");
                expected.push(reference.swap_remove(min).1);
            }
        }
        while let Some((_, e)) = q.pop() {
            popped.push(e);
            let min = reference
                .iter()
                .enumerate()
                .min_by_key(|(_, &(rt, rs))| (rt, rs))
                .map(|(i, _)| i)
                .unwrap();
            expected.push(reference.swap_remove(min).1);
        }
        assert_eq!(popped, expected);
        assert!(reference.is_empty());
    }

    #[test]
    fn pop_at_or_before_matches_reference_at_same_instant_boundaries() {
        // Adversarial cross-check of the main-loop primitive against a
        // naive min-by-(time, seq) reference. The schedule is biased to
        // hammer the decision boundaries: pushes land exactly at the
        // frontier (the FIFO-bucket fast path), exactly at the upcoming
        // limit, and one ps on either side of it; limits frequently equal
        // the pending minimum's firing time exactly. Every outcome must
        // agree with the reference — including the refusals (None), which
        // must leave the queue untouched.
        for salt in [0x5EED_0001u64, 0x5EED_0002, 0x5EED_0003] {
            let mut rng = crate::SplitMix64::new(salt);
            let mut q = EventQueue::new();
            let mut reference: Vec<(u64, u64)> = Vec::new(); // (time_ps, seq)
            let mut seq = 0u64;
            let mut frontier = 0u64;
            for step in 0..4000u64 {
                let roll = rng.next_below(10);
                if roll < 5 {
                    // Push, biased toward the boundary instants.
                    let t = match rng.next_below(5) {
                        0 | 1 => frontier,                 // bucket fast path
                        2 => frontier + rng.next_below(3), // straddles the next limit
                        _ => frontier + rng.next_below(40),
                    };
                    q.push(SimTime::from_ps(t), seq);
                    reference.push((t, seq));
                    seq += 1;
                } else {
                    // Drain with a limit that often equals the pending
                    // minimum exactly, or sits one ps to either side.
                    let min = reference.iter().copied().min();
                    let limit = match (min, rng.next_below(4)) {
                        (Some((t, _)), 0) => t, // exact boundary
                        (Some((t, _)), 1) => t + 1,
                        (Some((t, _)), 2) => t.saturating_sub(1),
                        _ => frontier + rng.next_below(8),
                    };
                    let len_before = q.len();
                    let got = q.pop_at_or_before(SimTime::from_ps(limit));
                    match min {
                        Some((t, s)) if t <= limit => {
                            let (gt, ge) = got.unwrap_or_else(|| {
                                panic!("step {step}: limit {limit} must yield ({t}, {s})")
                            });
                            assert_eq!((gt.as_ps(), ge), (t, s), "step {step}");
                            frontier = t;
                            let at = reference.iter().position(|&e| e == (t, s)).unwrap();
                            reference.swap_remove(at);
                        }
                        _ => {
                            assert!(got.is_none(), "step {step}: limit {limit} must refuse");
                            assert_eq!(q.len(), len_before, "a refusal must not disturb");
                            assert_eq!(
                                q.peek_time().map(|t| t.as_ps()),
                                min.map(|(t, _)| t),
                                "step {step}"
                            );
                        }
                    }
                }
            }
            // Drain the tail through the boundary primitive with an exact
            // limit each time, finishing the FIFO-order proof.
            while let Some(&(t, s)) = reference.iter().min_by_key(|&&(rt, rs)| (rt, rs)) {
                let (gt, ge) = q.pop_at_or_before(SimTime::from_ps(t)).expect("exact limit pops");
                assert_eq!((gt.as_ps(), ge), (t, s));
                let at = reference.iter().position(|&e| e == (t, s)).unwrap();
                reference.swap_remove(at);
            }
            assert!(q.is_empty());
        }
    }

    #[test]
    fn pop_at_or_before_matches_reference_across_wheel_edges() {
        // The same reference cross-check, with delays on the wheel's
        // edges: the frontier instant (bucket), one slot width ±1 ps,
        // the horizon ±1 ps (measured from the frontier and from the
        // cursor slot's start, where the exact edges are), far past the
        // horizon, and behind the frontier and its slot (overflow).
        // Limits refuse exactly below the pending minimum as often as
        // they pop, and the frontier crosses the horizon many times.
        const WIDTH: u64 = 1 << SLOT_SHIFT;
        const HORIZON: u64 = WIDTH * SLOTS as u64;
        for salt in [0x3EE1_0001u64, 0x3EE1_0002, 0x3EE1_0003, 0x3EE1_0004] {
            let mut rng = crate::SplitMix64::new(salt);
            let mut q = EventQueue::new();
            let mut reference: Vec<(u64, u64)> = Vec::new(); // (time_ps, seq)
            let mut seq = 0u64;
            let mut frontier = 0u64;
            let mut refusals = 0;
            for step in 0..20_000u64 {
                // Push at an even rate up to an engine-like depth.
                let depth = reference.len();
                if depth < 8 || (depth < 160 && rng.next_below(2) == 0) {
                    let base = frontier - frontier % WIDTH;
                    let t = match rng.next_below(16) {
                        0 | 1 => frontier,
                        2 => frontier + WIDTH - 1,
                        3 => frontier + WIDTH,
                        4 => frontier + WIDTH + 1,
                        5 => frontier + HORIZON - 1,
                        6 => frontier + HORIZON,
                        7 => frontier + HORIZON + 1,
                        8 => base + HORIZON - 1, // last slot of the window
                        9 => base + HORIZON,     // first slot past it
                        10 => base + WIDTH - 1,
                        11 => frontier + HORIZON * (2 + rng.next_below(6)) + rng.next_below(WIDTH),
                        12 => frontier.saturating_sub(1 + rng.next_below(2 * WIDTH)),
                        _ => frontier + rng.next_below(4 * WIDTH),
                    };
                    q.push(SimTime::from_ps(t), seq);
                    reference.push((t, seq));
                    seq += 1;
                } else {
                    let min = reference.iter().copied().min();
                    let limit = match (min, rng.next_below(3)) {
                        (Some((t, _)), 0) => t,
                        (Some((t, _)), 1) => t.saturating_sub(1),
                        (Some((t, _)), _) => t + rng.next_below(WIDTH),
                        (None, _) => frontier,
                    };
                    let len_before = q.len();
                    let got = q.pop_at_or_before(SimTime::from_ps(limit));
                    match min {
                        Some((t, s)) if t <= limit => {
                            let (gt, ge) = got.unwrap_or_else(|| {
                                panic!("step {step}: limit {limit} must yield ({t}, {s})")
                            });
                            assert_eq!((gt.as_ps(), ge), (t, s), "step {step}");
                            frontier = t;
                            let at = reference.iter().position(|&e| e == (t, s)).unwrap();
                            reference.swap_remove(at);
                        }
                        _ => {
                            assert!(got.is_none(), "step {step}: limit {limit} must refuse");
                            assert_eq!(q.len(), len_before, "a refusal must not disturb");
                            assert_eq!(
                                q.peek_time().map(|t| t.as_ps()),
                                min.map(|(t, _)| t),
                                "step {step}"
                            );
                            refusals += 1;
                        }
                    }
                }
            }
            assert!(refusals > 1000, "only {refusals} refusals");
            assert!(frontier > 3 * HORIZON, "the wheel turned only {} times", frontier / HORIZON);
            while let Some(&(t, s)) = reference.iter().min_by_key(|&&(rt, rs)| (rt, rs)) {
                if t > 0 {
                    assert!(q.pop_at_or_before(SimTime::from_ps(t - 1)).is_none());
                }
                let (gt, ge) = q.pop_at_or_before(SimTime::from_ps(t)).expect("exact limit pops");
                assert_eq!((gt.as_ps(), ge), (t, s));
                let at = reference.iter().position(|&e| e == (t, s)).unwrap();
                reference.swap_remove(at);
            }
            assert!(q.is_empty());
        }
    }
}
