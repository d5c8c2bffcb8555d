//! Deterministic time-ordered event queue.
//!
//! [`EventQueue`] is a priority queue keyed by [`SimTime`]. Events scheduled
//! for the same instant are delivered in insertion order (FIFO), which makes
//! simulation runs bit-for-bit reproducible regardless of queue internals:
//! every pop returns the global minimum of `(time, seq)`, where `seq` is a
//! strictly increasing push counter, packed into one `u128` key.
//!
//! The layout follows the traffic the engine generates. Measured over
//! the pushes of membench's three workloads (`run_long`: a 2 ms
//! network-aware VWL+ROO run of mixB on the big ternary tree, 16.8M
//! pushes; `sweep_cold`: the 1974 2 µs cells of its figure plan, 21.6M;
//! `serve_mix`: 560 20 µs runs over its workload × topology × scale ×
//! policy grid, 61.3M):
//!
//! | delay past the frontier            | run_long | sweep_cold | serve_mix |
//! |------------------------------------|----------|------------|-----------|
//! | 0 (the current instant)            | 28.9%    | 29.1%      | 29.5%     |
//! | under 2 ns (link and router steps) | 9.7%     | 10.7%      | 10.8%     |
//! | 2–131 ns (links, DRAM, 32/128 ns ROO checks) | 60.9% | 54.6% | 54.8% |
//! | 131 ns–2 µs                        | 0.1%     | 0.2%       | 0.1%      |
//! | 2.048 µs (ROO turn-off checks)     | 0.5%     | 5.5%       | 4.9%      |
//! | past 2.1 µs (epoch ends)           | 0.0%     | 0.05%      | 0.01%     |
//!
//! 85% of run_long's pushes find 65–128 events pending; the short cells
//! of the other two mostly find 16–64 or more than 128.
//!
//! So the queue has four parts, and a pop takes the smallest of their
//! fronts, which makes the delivery sequence identical to a single sorted
//! queue's:
//!
//! - a FIFO *bucket* for events scheduled at the frontier (the time of the
//!   most recent pop), which needs no ordering work at all;
//! - a *near wheel* of 4096 slots of 64 ps: a 262 ns window that holds
//!   the 2–131 ns bulk, spread over some 2000 slots so that a push nearly
//!   always finds its slot empty or appends to it;
//! - a *far ring* of 128 slots of 32.8 ns: a 4.2 µs ring past the near
//!   window for the turn-off checks. As the near window's end reaches a
//!   far slot, its list cascades into the near wheel; when the near wheel
//!   is empty, a pop takes the far ring's front directly;
//! - an ordered *overflow* for the keys neither level can hold: past the
//!   far ring (the epoch ends) or behind the cursor.
//!
//! Two levels, because one cannot serve both ends of the mix. 4096 slots of
//! 1.024 ns reach past the turn-off checks but pile the 2–131 ns bulk into
//! shared lists: 37% of such a wheel's pushes walked 2.75 list nodes on
//! average. 4096 slots of 64 ps send the 2.048 µs checks into the
//! overflow's tree, and 32768 slots of 64 ps need a 256 KiB table that
//! every `Engine::new` fills. Each level holds its keys in ascending lists
//! per slot, threaded through one node slab with a free list, and finds its
//! next occupied slot in a one-bit-per-slot bitmap (with a one-bit-per-word
//! summary for the near wheel).

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

/// Width of one near slot: 2^6 ps = 64 ps, a tenth of the 0.64 ns flit
/// time. Keys a few picoseconds apart then rarely share a slot, so a
/// push nearly always finds its slot empty or appends to it.
const NEAR_SHIFT: u32 = 6;

/// Near slots: 4096 × 64 ps = a 262 ns window, which holds the link,
/// router, DRAM and 32/128 ns ROO steps.
const NEAR_SLOTS: usize = 4096;

/// `u64` words in the near occupancy bitmap (one summary bit each).
const NEAR_WORDS: usize = NEAR_SLOTS / 64;

/// Width of one far slot: 2^15 ps = 32.8 ns, so one far slot spans 512
/// near slots and the near ring spans eight far slots.
const FAR_SHIFT: u32 = 15;

/// Near slots per far slot.
const NEAR_PER_FAR: u64 = 1 << (FAR_SHIFT - NEAR_SHIFT);

/// Far slots the near ring spans.
const NEAR_SPAN_FAR: u64 = NEAR_SLOTS as u64 / NEAR_PER_FAR;

/// Far slots: 128 × 32.8 ns = a 4.19 µs ring past the near window, which
/// holds the 512 ns and 2.048 µs ROO turn-off checks.
const FAR_SLOTS: usize = 128;

/// `u64` words in the far occupancy bitmap.
const FAR_WORDS: usize = FAR_SLOTS / 64;

/// Null node index.
const NIL: u32 = u32::MAX;

/// Absolute near slot (not reduced modulo [`NEAR_SLOTS`]) of a packed key.
#[inline]
fn near_of(key: u128) -> u64 {
    (key >> 64) as u64 >> NEAR_SHIFT
}

/// Absolute far slot (not reduced modulo [`FAR_SLOTS`]) of a packed key.
#[inline]
fn far_of(key: u128) -> u64 {
    (key >> 64) as u64 >> FAR_SHIFT
}

/// One pending event on either level, linked into its slot's list.
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

const EMPTY: Slot = Slot { head: NIL, tail: NIL };

/// Where the timeline's earliest key lives.
#[derive(Debug, Clone, Copy)]
enum Front {
    /// The head of this near slot (ring index).
    Near(usize),
    /// The head of this far slot (ring index); only while the near wheel
    /// is empty.
    Far(usize),
    Overflow,
}

/// Every pending event not in the frontier bucket, on two levels of
/// timing wheel and an ordered overflow:
///
/// - the *near* wheel holds the keys whose near slot lies in
///   `[cursor, far_base × 512)`: the rest of the cursor's far slot and
///   the seven after it, 229–262 ns ahead;
/// - the *far* ring holds the keys whose far slot lies in
///   `[far_base, far_base + 128)`;
/// - the overflow holds the rest: keys behind the cursor and past the far
///   ring.
///
/// The cursor only moves forward, and only up to the near slot of the
/// key being popped as the global minimum. When that moves the near
/// window's end past far slots, their lists *cascade* into the near
/// wheel. So every near key is below every far key, each level holds
/// only keys inside its window, and scanning a ring from its start meets
/// its keys in time order.
#[derive(Debug, Clone)]
struct Timeline<E> {
    near: Vec<Slot>,
    /// Bit `r` is set iff near slot `r`'s list is non-empty.
    near_occupied: [u64; NEAR_WORDS],
    /// Bit `w` is set iff `near_occupied[w]` is non-zero.
    near_summary: u64,
    far: [Slot; FAR_SLOTS],
    /// Bit `r` is set iff far slot `r`'s list is non-empty.
    far_occupied: [u64; FAR_WORDS],
    nodes: Vec<Node<E>>,
    /// Head of the free list threaded through `nodes`.
    free: u32,
    /// Absolute near slot of the earliest key the near wheel may hold.
    cursor: u64,
    /// Absolute far slot where the near window ends and the far ring
    /// starts: eight past the cursor's far slot.
    far_base: u64,
    on_near: usize,
    on_far: usize,
    overflow: BTreeMap<u128, E>,
}

impl<E> Timeline<E> {
    fn with_capacity(cap: usize) -> Self {
        Timeline {
            near: vec![EMPTY; NEAR_SLOTS],
            near_occupied: [0; NEAR_WORDS],
            near_summary: 0,
            far: [EMPTY; FAR_SLOTS],
            far_occupied: [0; FAR_WORDS],
            nodes: Vec::with_capacity(cap),
            free: NIL,
            cursor: 0,
            far_base: NEAR_SPAN_FAR,
            on_near: 0,
            on_far: 0,
            overflow: BTreeMap::new(),
        }
    }

    #[inline]
    fn len(&self) -> usize {
        self.on_near + self.on_far + self.overflow.len()
    }

    #[inline]
    fn push(&mut self, key: u128, event: E) {
        let n = near_of(key);
        let near_end = self.far_base * NEAR_PER_FAR;
        if n.wrapping_sub(self.cursor) < near_end - self.cursor {
            let node = self.alloc(key, event);
            self.push_near(n as usize % NEAR_SLOTS, node);
        } else if far_of(key).wrapping_sub(self.far_base) < FAR_SLOTS as u64 {
            let r = far_of(key) as usize % FAR_SLOTS;
            let node = self.alloc(key, event);
            if self.far[r].head == NIL {
                self.far_occupied[r / 64] |= 1 << (r % 64);
            }
            Self::link(&mut self.nodes, &mut self.far[r], node);
            self.on_far += 1;
        } else {
            self.overflow.insert(key, event);
        }
    }

    /// Links `node` into near slot `r`.
    #[inline]
    fn push_near(&mut self, r: usize, node: u32) {
        if self.near[r].head == NIL {
            self.near_occupied[r / 64] |= 1 << (r % 64);
            self.near_summary |= 1 << (r / 64);
        }
        Self::link(&mut self.nodes, &mut self.near[r], node);
        self.on_near += 1;
    }

    /// Inserts `node` into `slot`'s ascending list.
    #[inline]
    fn link(nodes: &mut [Node<E>], slot: &mut Slot, node: u32) {
        let key = nodes[node as usize].key;
        let Slot { head, tail } = *slot;
        if head == NIL {
            *slot = Slot { head: node, tail: node };
        } else if nodes[tail as usize].key < key {
            // Checked first because it skips the walk: a later push
            // carries a larger seq, and often a time at or after its
            // slot-mates'.
            nodes[tail as usize].next = node;
            slot.tail = node;
        } else if key < nodes[head as usize].key {
            nodes[node as usize].next = head;
            slot.head = node;
        } else {
            // Strictly between head and tail (keys are unique), so the
            // walk stops before the end of the list.
            let mut prev = head as usize;
            loop {
                let next = nodes[prev].next as usize;
                if nodes[next].key > key {
                    break;
                }
                prev = next;
            }
            nodes[node as usize].next = nodes[prev].next;
            nodes[prev].next = node;
        }
    }

    /// Stores `(key, event)` in a free node, growing the slab if none is
    /// free, and returns its index.
    #[inline]
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

    /// Ring index of the first occupied near slot at or after the cursor.
    #[inline]
    fn first_near(&self) -> usize {
        let start = self.cursor as usize % NEAR_SLOTS;
        let word = start / 64;
        let bits = self.near_occupied[word] & (u64::MAX << (start % 64));
        if bits != 0 {
            return word * 64 + bits.trailing_zeros() as usize;
        }
        // The summary rotated so bit 0 is the cursor's word, whose slots
        // at or after the cursor are empty; its slots below the cursor
        // are the far end of the window, so it comes last.
        let later = self.near_summary.rotate_right(word as u32) & !1;
        let word =
            if later != 0 { (word + later.trailing_zeros() as usize) % NEAR_WORDS } else { word };
        word * 64 + self.near_occupied[word].trailing_zeros() as usize
    }

    /// Ring index of the first occupied far slot at or after `far_base`.
    #[inline]
    fn first_far(&self) -> usize {
        let start = self.far_base as usize % FAR_SLOTS;
        let mut word = start / 64;
        let mut bits = self.far_occupied[word] & (u64::MAX << (start % 64));
        // FAR_WORDS + 1 words: the last revisits the start word for the
        // slots below `far_base`, which are the far end of the ring.
        for _ in 0..=FAR_WORDS {
            if bits != 0 {
                return word * 64 + bits.trailing_zeros() as usize;
            }
            word = (word + 1) % FAR_WORDS;
            bits = self.far_occupied[word];
        }
        unreachable!("{} events on the far ring but no occupied slot", self.on_far)
    }

    /// The earliest key and where it lives.
    #[inline]
    fn front(&self) -> Option<(u128, Front)> {
        let wheel = if self.on_near > 0 {
            let r = self.first_near();
            Some((self.nodes[self.near[r].head as usize].key, Front::Near(r)))
        } else if self.on_far > 0 {
            let r = self.first_far();
            Some((self.nodes[self.far[r].head as usize].key, Front::Far(r)))
        } else {
            None
        };
        match (wheel, self.overflow.first_key_value()) {
            (Some((k, _)), Some((&o, _))) if o < k => Some((o, Front::Overflow)),
            (None, Some((&o, _))) => Some((o, Front::Overflow)),
            (wheel, _) => wheel,
        }
    }

    /// Removes the entry [`Timeline::front`] returned as `(key, at)` and
    /// moves the cursor up to its near slot.
    #[inline]
    fn take(&mut self, key: u128, at: Front) -> E {
        let event = match at {
            Front::Near(r) => {
                let (event, next) = self.unlink_head(self.near[r].head);
                self.near[r].head = next;
                if next == NIL {
                    self.near_occupied[r / 64] &= !(1 << (r % 64));
                    if self.near_occupied[r / 64] == 0 {
                        self.near_summary &= !(1 << (r / 64));
                    }
                }
                self.on_near -= 1;
                event
            }
            Front::Far(r) => {
                // The rest of this slot cascades below, as the cursor
                // moves into it.
                let (event, next) = self.unlink_head(self.far[r].head);
                self.far[r].head = next;
                if next == NIL {
                    self.far_occupied[r / 64] &= !(1 << (r % 64));
                }
                self.on_far -= 1;
                event
            }
            Front::Overflow => {
                let (_, event) = self.overflow.pop_first().expect("front came from the overflow");
                if near_of(key) < self.cursor {
                    // A key behind the cursor leaves it where it is:
                    // moving it back would alias the far end of the window.
                    return event;
                }
                event
            }
        };
        self.cursor = near_of(key);
        let far_base = far_of(key) + NEAR_SPAN_FAR;
        if far_base > self.far_base {
            self.cascade(far_base);
        }
        event
    }

    /// Frees node `n`, the head of a list, and returns its event and
    /// successor.
    #[inline]
    fn unlink_head(&mut self, n: u32) -> (E, u32) {
        let node = &mut self.nodes[n as usize];
        let next = node.next;
        let event = node.event.take().expect("listed nodes hold an event");
        node.next = self.free;
        self.free = n;
        (event, next)
    }

    /// Moves the far ring's start up to `far_base`, moving the lists of
    /// the far slots it passes into the (empty) near slots they cover.
    fn cascade(&mut self, far_base: u64) {
        let passed = (far_base - self.far_base).min(FAR_SLOTS as u64);
        let first = self.far_base;
        self.far_base = far_base;
        for f in first..first + passed {
            if self.on_far == 0 {
                break;
            }
            let r = f as usize % FAR_SLOTS;
            let mut n = self.far[r].head;
            if n == NIL {
                continue;
            }
            self.far[r] = EMPTY;
            self.far_occupied[r / 64] &= !(1 << (r % 64));
            // The list is ascending and the near slots it covers are
            // empty, so each node appends to its new list.
            while n != NIL {
                let next = self.nodes[n as usize].next;
                self.nodes[n as usize].next = NIL;
                let s = near_of(self.nodes[n as usize].key) as usize % NEAR_SLOTS;
                self.push_near(s, n);
                self.on_far -= 1;
                n = next;
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
    use proptest::prelude::*;

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

    /// One step of a cross-check against a naive pending set: pops from
    /// `q` with `limit` and checks the outcome against the `(time, seq)`
    /// minimum of `reference`, removing it there too. Returns the popped
    /// time, or `None` for a refusal (which must leave `q` untouched).
    fn pop_and_check(
        q: &mut EventQueue<u64>,
        reference: &mut Vec<(u64, u64)>,
        limit: u64,
        step: u64,
    ) -> Option<u64> {
        let min = reference.iter().copied().min();
        let len_before = q.len();
        let got = q.pop_at_or_before(SimTime::from_ps(limit));
        match min {
            Some((t, s)) if t <= limit => {
                let (gt, ge) = got
                    .unwrap_or_else(|| panic!("step {step}: limit {limit} must yield ({t}, {s})"));
                assert_eq!((gt.as_ps(), ge), (t, s), "step {step}");
                let at = reference.iter().position(|&e| e == (t, s)).unwrap();
                reference.swap_remove(at);
                Some(t)
            }
            _ => {
                assert!(got.is_none(), "step {step}: limit {limit} must refuse");
                assert_eq!(q.len(), len_before, "a refusal must not disturb");
                assert_eq!(q.peek_time().map(|t| t.as_ps()), min.map(|(t, _)| t), "step {step}");
                None
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// The reference cross-check with delays on the near wheel's
        /// edges: the frontier instant (bucket), one near slot ±1 ps, the
        /// near ring's span ±1 ps (measured from the frontier and from the
        /// cursor slot's start), many spans ahead, and behind the frontier
        /// and its slot (overflow). Limits refuse exactly below the
        /// pending minimum as often as they pop, and the frontier crosses
        /// the span many times.
        #[test]
        fn pop_at_or_before_matches_reference_across_near_edges(salt in any::<u64>()) {
            const WIDTH: u64 = 1 << NEAR_SHIFT;
            const HORIZON: u64 = WIDTH * NEAR_SLOTS as u64;
            let mut rng = crate::SplitMix64::new(salt);
            let mut q = EventQueue::new();
            let mut reference: Vec<(u64, u64)> = Vec::new();
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
                        8 => base + HORIZON - 1, // last slot of the span
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
                    match pop_and_check(&mut q, &mut reference, limit, step) {
                        Some(t) => frontier = t,
                        None => refusals += 1,
                    }
                }
            }
            prop_assert!(refusals > 1000, "only {} refusals", refusals);
            let turns = frontier / HORIZON;
            prop_assert!(frontier > 3 * HORIZON, "the span turned only {} times", turns);
            while let Some(&(t, _)) = reference.iter().min() {
                if t > 0 {
                    let refused = pop_and_check(&mut q, &mut reference, t - 1, 0);
                    prop_assert!(refused.is_none());
                }
                prop_assert_eq!(pop_and_check(&mut q, &mut reference, t, 0), Some(t));
            }
            prop_assert!(q.is_empty());
        }

        /// The reference cross-check on the far level's edges, measured
        /// from the queue's own window: the near window's end ±1 slot,
        /// far-slot boundaries ±1 ps, the far ring's end ±1 ps and its
        /// last slot. Sparse phases schedule only far keys, so the near
        /// wheel empties, pops come straight off the far ring, and one
        /// pop slides the window over several far slots. The salt comes
        /// from the property runner, so `PROPTEST_SEED` picks new cases.
        #[test]
        fn pop_at_or_before_matches_reference_across_far_edges(salt in any::<u64>()) {
            const NEAR: u64 = 1 << NEAR_SHIFT;
            const FAR: u64 = 1 << FAR_SHIFT;
            let mut rng = crate::SplitMix64::new(salt);
            let mut q = EventQueue::new();
            let mut reference: Vec<(u64, u64)> = Vec::new();
            let mut seq = 0u64;
            let mut frontier = 0u64;
            let (mut far_pops, mut slides, mut cascades) = (0u32, 0u32, 0u32);
            for step in 0..24_000u64 {
                let sparse = (step / 1_500) % 2 == 1;
                let depth = reference.len();
                let push = if sparse {
                    depth < 2 || (depth < 6 && rng.next_below(3) == 0)
                } else {
                    depth < 8 || (depth < 160 && rng.next_below(2) == 0)
                };
                if push {
                    let near_end = q.timeline.far_base * FAR;
                    let far_end = near_end + FAR * FAR_SLOTS as u64;
                    let pick = if sparse { 1 + rng.next_below(10) } else { rng.next_below(16) };
                    let t = match pick {
                        0 => frontier,
                        1 => near_end - NEAR,
                        2 => near_end - 1,
                        3 => near_end,
                        4 => near_end + NEAR,
                        5 => {
                            let k = rng.next_below(FAR_SLOTS as u64);
                            near_end + FAR * k + rng.next_below(3) - 1
                        }
                        6 => far_end - 1,
                        7 => far_end,
                        8 => far_end + 1,
                        9 => far_end - FAR + rng.next_below(FAR),
                        10 => frontier + FAR * (2 + rng.next_below(6)) + rng.next_below(FAR),
                        11 => frontier + 2_048_000,
                        12 => frontier.saturating_sub(1 + rng.next_below(FAR)),
                        _ => frontier + rng.next_below(4 * NEAR),
                    };
                    q.push(SimTime::from_ps(t), seq);
                    reference.push((t, seq));
                    seq += 1;
                } else {
                    let min = reference.iter().copied().min();
                    let limit = match (min, rng.next_below(3)) {
                        (Some((t, _)), 0) => t,
                        (Some((t, _)), 1) => t.saturating_sub(1),
                        (Some((t, _)), _) => t + rng.next_below(NEAR),
                        (None, _) => frontier,
                    };
                    let near_empty = q.timeline.on_near == 0 && q.timeline.on_far > 0;
                    let (far_base, on_far) = (q.timeline.far_base, q.timeline.on_far);
                    if let Some(t) = pop_and_check(&mut q, &mut reference, limit, step) {
                        frontier = t;
                        far_pops += u32::from(near_empty && on_far > q.timeline.on_far);
                        slides += u32::from(q.timeline.far_base >= far_base + 2);
                        cascades += u32::from(q.timeline.on_far + 1 < on_far);
                    }
                }
            }
            prop_assert!(far_pops > 800, "only {} far pops", far_pops);
            prop_assert!(slides > 2_000, "only {} multi-slot slides", slides);
            prop_assert!(cascades > 400, "only {} cascades", cascades);
            while let Some(&(t, _)) = reference.iter().min() {
                if t > 0 {
                    let refused = pop_and_check(&mut q, &mut reference, t - 1, 0);
                    prop_assert!(refused.is_none());
                }
                prop_assert_eq!(pop_and_check(&mut q, &mut reference, t, 0), Some(t));
            }
            prop_assert!(q.is_empty());
        }
    }
}
