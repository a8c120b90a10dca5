//! Time-ordered event queue: a deterministic hierarchical time wheel.
//!
//! The queue used to be a single `BinaryHeap`, which made every push and pop
//! an `O(log n)` sift over the whole pending set. Simulation workloads are
//! heavily skewed towards the near future (network latencies of a few
//! milliseconds, gossip periods of half a second), so the queue is now a
//! two-level time wheel:
//!
//! * a **front heap** holding only the events of the slot currently being
//!   drained — pops are `O(log k)` with `k` the events of one ~1 ms slot;
//! * **level 0**: 256 slots of 1.024 ms each (~0.26 s of horizon), plain FIFO
//!   `Vec` buckets — pushes are `O(1)`, no ordering work until the slot is
//!   promoted;
//! * **level 1**: 64 buckets of ~0.26 s each (~16.8 s of horizon), scattered
//!   into level 0 when the cursor reaches them;
//! * an **overflow heap** for events beyond the level-1 horizon (periodic
//!   timers many seconds out), refilled into the wheels when reached.
//!
//! # Ordering contract
//!
//! Pop order is *exactly* the order the old `BinaryHeap` produced: strictly
//! increasing `(time, seq)` where `seq` is the global push counter. Buckets
//! keep FIFO push order and are only ordered (by promotion into the front
//! heap) when the cursor reaches them; since `seq` is monotone, FIFO within a
//! bucket and the `(time, seq)` sort agree. Events pushed for instants that
//! already passed go straight into the front heap, so arbitrary push/pop
//! interleavings — including pushes "in the past" — pop in the same order a
//! reference heap would produce (see the property test in
//! `tests/wheel_vs_heap.rs`). This is what keeps every golden digest
//! bit-identical across the data-structure swap.
//!
//! # Allocation contract
//!
//! At steady state the queue allocates nothing: bucket `Vec`s and the two
//! heaps retain their capacity across promotions, so once every ring index
//! has been touched at its peak occupancy (one full level-0 rotation of the
//! hottest phase), the event loop runs allocation-free (pinned by
//! `tests/zero_alloc.rs`).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Log2 of the level-0 slot width in microseconds (1024 µs per slot).
const L0_SHIFT: u32 = 10;
/// Number of level-0 slots; must be `1 << (L1_SHIFT - L0_SHIFT)` so one
/// level-1 bucket scatters exactly over the level-0 ring.
const L0_SLOTS: usize = 256;
/// Log2 of the level-1 bucket width in microseconds (~262 ms per bucket).
const L1_SHIFT: u32 = 18;
/// Number of level-1 buckets (~16.8 s of horizon beyond level 0).
const L1_SLOTS: usize = 64;

/// An entry in the queue. Ordered by time, with a monotonically increasing
/// sequence number as a tie-breaker so that events scheduled for the same
/// instant are delivered in scheduling order (FIFO), which keeps runs
/// deterministic.
struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event is popped first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A priority queue of events keyed by simulated time.
///
/// Events at equal times are delivered in the order they were pushed.
pub struct EventQueue<E> {
    /// Events earlier than `window_end`, sorted by `(time, seq)` in
    /// *descending* order so the next event is popped from the back in O(1).
    /// Mid-window pushes (events landing before `window_end`) are rare —
    /// latencies are longer than a slot — and insert by binary search.
    front: Vec<Scheduled<E>>,
    /// Exclusive upper bound (µs) of the front heap's coverage. Every event
    /// stored outside `front` is at `window_end` or later.
    window_end: u64,
    /// Level-0 ring: FIFO buckets for absolute slots
    /// `[l0_base, l0_base + L0_SLOTS)` where `slot = micros >> L0_SHIFT`.
    l0: Vec<Vec<Scheduled<E>>>,
    /// Absolute slot index of `l0[0]`.
    l0_base: u64,
    /// First level-0 index not yet promoted into the front heap.
    l0_cursor: usize,
    /// Level-1 ring: FIFO buckets for absolute slots
    /// `[l1_base, l1_base + L1_SLOTS)` where `slot = micros >> L1_SHIFT`.
    l1: Vec<Vec<Scheduled<E>>>,
    /// Absolute slot index of `l1[0]`.
    l1_base: u64,
    /// First level-1 index not yet scattered into level 0.
    l1_cursor: usize,
    /// Events at or beyond the level-1 horizon.
    overflow: BinaryHeap<Scheduled<E>>,
    /// Warmed, empty bucket `Vec`s recycled across ring indices. Promoting a
    /// bucket parks its capacity here and the next occupied index picks it
    /// up, so steady-state capacity follows the cursor around the rings
    /// instead of being re-grown (allocated) at every first-touched index.
    pool: Vec<Vec<Scheduled<E>>>,
    len: usize,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        // Invariant wiring: the level-0 range must end exactly where the next
        // unscattered level-1 bucket begins, i.e.
        // `(l0_base + L0_SLOTS) << L0_SHIFT == (l1_base + l1_cursor) << L1_SHIFT`.
        // Starting at slot 0 on both levels, that makes bucket 0 of level 1
        // permanently covered by level 0, so the cursor starts past it.
        EventQueue {
            front: Vec::new(),
            window_end: 0,
            l0: std::iter::repeat_with(Vec::new).take(L0_SLOTS).collect(),
            l0_base: 0,
            l0_cursor: 0,
            l1: std::iter::repeat_with(Vec::new).take(L1_SLOTS).collect(),
            l1_base: 0,
            l1_cursor: 1,
            overflow: BinaryHeap::new(),
            pool: Vec::new(),
            len: 0,
            next_seq: 0,
        }
    }

    /// Appends `s` to `bucket`, seeding the bucket with a warmed `Vec` from
    /// the pool when it has never been touched (or was just promoted).
    #[inline]
    fn bucket_push(
        pool: &mut Vec<Vec<Scheduled<E>>>,
        bucket: &mut Vec<Scheduled<E>>,
        s: Scheduled<E>,
    ) {
        if bucket.capacity() == 0 {
            if let Some(warm) = pool.pop() {
                *bucket = warm;
            }
        }
        bucket.push(s);
    }

    /// End (µs, exclusive) of the level-1 coverage.
    #[inline]
    fn l1_end(&self) -> u64 {
        (self.l1_base + L1_SLOTS as u64) << L1_SHIFT
    }

    /// Inserts `s` into the sorted front at its ordered position.
    fn front_insert(front: &mut Vec<Scheduled<E>>, s: Scheduled<E>) {
        let key = (s.time, s.seq);
        let idx = front.partition_point(|e| (e.time, e.seq) > key);
        front.insert(idx, s);
    }

    #[inline]
    fn route(&mut self, s: Scheduled<E>) {
        let m = s.time.as_micros();
        if m < self.window_end {
            Self::front_insert(&mut self.front, s);
        } else if (m >> L0_SHIFT) < self.l0_base + L0_SLOTS as u64 {
            // `m >= window_end >= l0_base << L0_SHIFT`, so the subtraction
            // cannot underflow and the slot is at or past the cursor.
            let idx = ((m >> L0_SHIFT) - self.l0_base) as usize;
            Self::bucket_push(&mut self.pool, &mut self.l0[idx], s);
        } else if (m >> L1_SHIFT) < self.l1_base + L1_SLOTS as u64 {
            let idx = ((m >> L1_SHIFT) - self.l1_base) as usize;
            Self::bucket_push(&mut self.pool, &mut self.l1[idx], s);
        } else {
            self.overflow.push(s);
        }
    }

    /// Schedules `event` for delivery at `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        self.route(Scheduled { time, seq, event });
    }

    /// Schedules a batch of events, delivered at their respective times;
    /// events with equal times keep the iterator's order (FIFO, like
    /// consecutive [`push`](Self::push) calls).
    ///
    /// Wheel buckets absorb pushes in O(1) with pooled capacity, so the only
    /// tier whose insertions are not pre-sized is the front buffer (events
    /// landing inside the already-promoted window — rare, since latencies
    /// exceed a slot). Reserving the size hint there — including for
    /// single-event batches, which the old heap-based code skipped — bounds
    /// the worst case where a whole batch lands sub-window.
    pub fn push_batch<I>(&mut self, events: I)
    where
        I: IntoIterator<Item = (SimTime, E)>,
    {
        let events = events.into_iter();
        let (lower, _) = events.size_hint();
        if lower > 0 {
            self.front.reserve(lower);
        }
        for (time, event) in events {
            self.push(time, event);
        }
    }

    /// Moves the cursor forward until the front heap holds the earliest
    /// pending events. No-op when the front heap is already non-empty or the
    /// queue holds nothing outside it.
    fn advance(&mut self) {
        debug_assert!(self.front.is_empty());
        if self.len == 0 {
            return;
        }
        loop {
            // Level 0: promote the next non-empty slot into the front heap.
            while self.l0_cursor < L0_SLOTS {
                let i = self.l0_cursor;
                self.l0_cursor += 1;
                if !self.l0[i].is_empty() {
                    self.window_end = (self.l0_base + i as u64 + 1) << L0_SHIFT;
                    // The front is empty here (advance's precondition), so
                    // the whole slot becomes the new front after one sort.
                    std::mem::swap(&mut self.front, &mut self.l0[i]);
                    self.front.sort_unstable_by_key(|e| {
                        (std::cmp::Reverse(e.time), std::cmp::Reverse(e.seq))
                    });
                    let slot = std::mem::take(&mut self.l0[i]);
                    self.pool.push(slot); // recycle the warmed capacity
                    return;
                }
            }
            // Level 1: scatter the next non-empty bucket over level 0.
            let mut scattered = false;
            while self.l1_cursor < L1_SLOTS {
                let i = self.l1_cursor;
                self.l1_cursor += 1;
                if !self.l1[i].is_empty() {
                    let bucket_abs = self.l1_base + i as u64;
                    self.l0_base = bucket_abs << (L1_SHIFT - L0_SHIFT);
                    self.l0_cursor = 0;
                    self.window_end = self.l0_base << L0_SHIFT;
                    let mut bucket = std::mem::take(&mut self.l1[i]);
                    for s in bucket.drain(..) {
                        let idx = ((s.time.as_micros() >> L0_SHIFT) - self.l0_base) as usize;
                        Self::bucket_push(&mut self.pool, &mut self.l0[idx], s);
                    }
                    self.pool.push(bucket);
                    scattered = true;
                    break;
                }
            }
            if scattered {
                continue;
            }
            // Both wheels are drained: refill level 1 from the overflow heap.
            let Some(first) = self.overflow.peek() else {
                return; // everything pending already sits in the front heap
            };
            self.l1_base = first.time.as_micros() >> L1_SHIFT;
            self.l1_cursor = 0;
            let horizon = self.l1_end();
            while let Some(s) = self.overflow.peek() {
                if s.time.as_micros() >= horizon {
                    break;
                }
                let s = self.overflow.pop().expect("peeked event must exist");
                let idx = ((s.time.as_micros() >> L1_SHIFT) - self.l1_base) as usize;
                Self::bucket_push(&mut self.pool, &mut self.l1[idx], s);
            }
            // Park level 0 at the end of its (now stale) range; the next
            // iteration scatters the first refilled bucket and re-bases it.
            self.l0_cursor = L0_SLOTS;
        }
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.front.is_empty() {
            self.advance();
        }
        let s = self.front.pop()?;
        self.len -= 1;
        Some((s.time, s.event))
    }

    /// Removes and returns the earliest event if it is due at or before
    /// `deadline`. This is the engine's fast path: a single ordering
    /// comparison decides both "is there an event" and "is it due", instead
    /// of a `peek_time` probe followed by a `pop`.
    pub fn pop_due(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        if self.front.is_empty() {
            self.advance();
        }
        match self.front.last() {
            Some(s) if s.time <= deadline => {
                let s = self.front.pop().expect("peeked event must exist");
                self.len -= 1;
                Some((s.time, s.event))
            }
            _ => None,
        }
    }

    /// The delivery time of the earliest pending event, if any.
    ///
    /// Cold path (`&self` cannot advance the cursor): when the front heap is
    /// empty this scans the wheels for the earliest bucket. The engine's hot
    /// loop uses [`pop_due`](Self::pop_due) instead.
    pub fn peek_time(&self) -> Option<SimTime> {
        if let Some(s) = self.front.last() {
            return Some(s.time);
        }
        let min_of = |bucket: &[Scheduled<E>]| bucket.iter().map(|s| s.time).min();
        for slot in &self.l0[self.l0_cursor..] {
            if let Some(t) = min_of(slot) {
                return Some(t);
            }
        }
        for bucket in &self.l1[self.l1_cursor.min(L1_SLOTS)..] {
            if let Some(t) = min_of(bucket) {
                return Some(t);
            }
        }
        self.overflow.peek().map(|s| s.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.len)
            .field("next_seq", &self.next_seq)
            .field("window_end_us", &self.window_end)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(30), "c");
        q.push(SimTime::from_millis(10), "a");
        q.push(SimTime::from_millis(20), "b");
        assert_eq!(q.pop(), Some((SimTime::from_millis(10), "a")));
        assert_eq!(q.pop(), Some((SimTime::from_millis(20), "b")));
        assert_eq!(q.pop(), Some((SimTime::from_millis(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..100 {
            q.push(t, i);
        }
        let popped: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(popped, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn push_batch_matches_individual_pushes() {
        let t = SimTime::from_millis(1);
        let mut batched = EventQueue::new();
        batched.push(SimTime::from_millis(2), 100);
        batched.push_batch((0..50).map(|i| (t, i)));
        let mut pushed = EventQueue::new();
        pushed.push(SimTime::from_millis(2), 100);
        for i in 0..50 {
            pushed.push(t, i);
        }
        let drain = |mut q: EventQueue<i32>| -> Vec<(SimTime, i32)> {
            std::iter::from_fn(|| q.pop()).collect()
        };
        assert_eq!(drain(batched), drain(pushed));
    }

    #[test]
    fn peek_time_reports_earliest() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_secs(2), ());
        q.push(SimTime::from_secs(1), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1)));
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
    }

    #[test]
    fn pop_due_respects_the_deadline() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(10), "a");
        q.push(SimTime::from_millis(30), "b");
        assert_eq!(
            q.pop_due(SimTime::from_millis(20)),
            Some((SimTime::from_millis(10), "a"))
        );
        assert_eq!(q.pop_due(SimTime::from_millis(20)), None);
        assert_eq!(q.len(), 1, "the undue event stays queued");
        assert_eq!(
            q.pop_due(SimTime::from_millis(30)),
            Some((SimTime::from_millis(30), "b"))
        );
        assert_eq!(q.pop_due(SimTime::MAX), None);
    }

    #[test]
    fn events_across_every_tier_pop_in_order() {
        // One event per tier: front (past), level 0, level 1, overflow.
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(120), "overflow");
        q.push(SimTime::from_millis(2), "l0");
        q.push(SimTime::from_secs(5), "l1");
        assert_eq!(q.pop(), Some((SimTime::from_millis(2), "l0")));
        // The cursor has advanced past 2 ms; a push before that instant must
        // still pop first (BinaryHeap-equivalent semantics).
        q.push(SimTime::from_millis(1), "past");
        assert_eq!(q.pop(), Some((SimTime::from_millis(1), "past")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(5), "l1")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(120), "overflow")));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn far_future_events_survive_many_horizon_refills() {
        let mut q = EventQueue::new();
        // Three overflow refills apart (level-1 horizon is ~16.8 s).
        for secs in [1u64, 20, 45, 90] {
            q.push(SimTime::from_secs(secs), secs);
        }
        let popped: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(popped, vec![1, 20, 45, 90]);
    }
}
