//! Deterministic event queue and simulation clock.
//!
//! The queue orders events by `(time, class, sequence)`: ties at the same
//! instant are broken first by the *ordering class* (see below), then by
//! insertion order, so a simulation that schedules events in a deterministic
//! order replays bit-identically regardless of how many events collide on
//! one timestamp. The payload type `E` needs no `Ord` impl.
//!
//! # Ordering classes
//!
//! A driver that materializes its whole workload up front schedules every
//! arrival before the run starts, so arrivals hold the globally lowest
//! sequence numbers and win every same-instant tie against events scheduled
//! during the run. A *streaming* driver schedules arrivals lazily (one
//! pending at a time) and would lose those ties. The ordering class restores
//! the materialized semantics: arrivals are scheduled with
//! [`CLASS_ARRIVAL`] (0), everything else with [`CLASS_DEFAULT`] (1), and
//! class is compared before sequence. For a driver that pre-schedules all
//! arrivals the class is a no-op (arrivals already held the lowest
//! sequences), so both admission paths yield one identical total order.
//!
//! # Lanes and the horizon
//!
//! [`EventQueue`] keeps two binary heaps that share one sequence counter:
//! the default lane, and a *local* lane ([`EventQueue::push_local`]) for
//! events the driver promises touch only their own component. Popping takes
//! whichever head has the smaller key, so the pop order is exactly that of
//! one heap. The lanes change only what [`EventQueue::horizon`] reports: the
//! earliest pending default-lane event, i.e. the earliest event that could
//! interact with a component that is skipping ahead.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Ordering class for arrival-like events: wins every same-instant tie
/// against [`CLASS_DEFAULT`] events regardless of scheduling order.
pub const CLASS_ARRIVAL: u8 = 0;

/// Ordering class for everything scheduled during the run.
pub const CLASS_DEFAULT: u8 = 1;

/// A scheduled event: payload `E` due at `time`.
struct Scheduled<E> {
    time: SimTime,
    class: u8,
    seq: u64,
    payload: E,
}

impl<E> Scheduled<E> {
    /// The total-order key.
    fn key(&self) -> (SimTime, u8, u64) {
        (self.time, self.class, self.seq)
    }
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap and we want the earliest event
        // (then the lowest class, then the lowest sequence number) on top.
        other.key().cmp(&self.key())
    }
}

/// A min-queue of timestamped events with deterministic tie-breaking and a
/// local lane hidden from the horizon (see the module docs).
pub struct EventQueue<E> {
    /// Default lane: every event not pushed with `push_local`.
    heap: BinaryHeap<Scheduled<E>>,
    /// Local lane: events that touch only their own component.
    local: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            local: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    fn scheduled(&mut self, time: SimTime, class: u8, payload: E) -> Scheduled<E> {
        let seq = self.next_seq;
        self.next_seq += 1;
        Scheduled {
            time,
            class,
            seq,
            payload,
        }
    }

    /// Schedules `payload` to fire at `time` (default lane and class).
    pub fn push(&mut self, time: SimTime, payload: E) {
        self.push_class(time, CLASS_DEFAULT, payload);
    }

    /// Schedules `payload` at `time` with an explicit ordering class
    /// (default lane).
    pub fn push_class(&mut self, time: SimTime, class: u8, payload: E) {
        let s = self.scheduled(time, class, payload);
        self.heap.push(s);
    }

    /// Schedules `payload` at `time` on the local lane (default class): it
    /// pops in the same total order but never bounds [`EventQueue::horizon`].
    pub fn push_local(&mut self, time: SimTime, payload: E) {
        let s = self.scheduled(time, CLASS_DEFAULT, payload);
        self.local.push(s);
    }

    /// [`EventQueue::push_class`] under the name of the removed per-shard
    /// API; `shard` is ignored. Kept only because the `perfbench` crate's
    /// `event_queue` replay calls it and that crate changes only together
    /// with the benchmark definition; delete it once the replay moves to
    /// `push_local`/`push_class`.
    pub fn push_sharded(&mut self, _shard: usize, time: SimTime, class: u8, payload: E) {
        self.push_class(time, class, payload);
    }

    /// Removes and returns the earliest event of either lane, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let local_first = match (self.heap.peek(), self.local.peek()) {
            (Some(d), Some(l)) => l.key() < d.key(),
            (None, l) => l.is_some(),
            (Some(_), None) => false,
        };
        let s = if local_first {
            self.local.pop()
        } else {
            self.heap.pop()
        }?;
        Some((s.time, s.payload))
    }

    /// The due time of the earliest event of either lane, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        let time = |h: &BinaryHeap<Scheduled<E>>| h.peek().map(|s| s.time);
        match (time(&self.heap), time(&self.local)) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// The due time of the earliest default-lane event, if any: local-lane
    /// events never bound it.
    pub fn horizon(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.local.len()
    }

    /// Whether the queue holds no events.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.local.is_empty()
    }
}

/// A simulation clock married to an event queue.
///
/// `Clock` enforces the single invariant every discrete-event simulation
/// depends on: **time never moves backwards**. Components schedule future
/// events through [`Clock::schedule`] (or its class and lane variants); the
/// driver loop repeatedly calls [`Clock::next`], which advances `now` to the
/// event's due time and hands the payload back.
pub struct Clock<E> {
    now: SimTime,
    queue: EventQueue<E>,
}

impl<E> Default for Clock<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Clock<E> {
    /// Creates a clock at t = 0 with an empty queue.
    pub fn new() -> Self {
        Clock {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    fn assert_not_past(&self, at: SimTime) {
        assert!(
            at >= self.now,
            "Clock: cannot schedule at {at}, before now ({})",
            self.now
        );
    }

    /// Schedules `payload` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past: scheduling behind the clock would make
    /// the event fire "now" in an order that depends on queue internals,
    /// which silently breaks determinism. Callers that mean "as soon as
    /// possible" should pass `self.now()`.
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        self.assert_not_past(at);
        self.queue.push(at, payload);
    }

    /// Schedules `payload` at `at` with an explicit ordering class. Same
    /// past-scheduling panic as [`Clock::schedule`].
    pub fn schedule_class(&mut self, at: SimTime, class: u8, payload: E) {
        self.assert_not_past(at);
        self.queue.push_class(at, class, payload);
    }

    /// Schedules `payload` at `at` on the local lane: it never bounds
    /// [`Clock::horizon`]. Same past-scheduling panic as [`Clock::schedule`].
    pub fn schedule_local(&mut self, at: SimTime, payload: E) {
        self.assert_not_past(at);
        self.queue.push_local(at, payload);
    }

    /// Pops the next event, advancing `now` to its due time.
    ///
    /// Deliberately named like `Iterator::next`; `Clock` is not an
    /// iterator because popping mutates the clock, but the call-site
    /// reading ("give me the next event") is the same.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<(SimTime, E)> {
        let (t, e) = self.queue.pop()?;
        debug_assert!(t >= self.now, "event queue yielded an event in the past");
        self.now = t;
        Some((t, e))
    }

    /// Due time of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Due time of the earliest pending event not scheduled with
    /// [`Clock::schedule_local`] (see [`EventQueue::horizon`]).
    pub fn horizon(&self) -> Option<SimTime> {
        self.queue.horizon()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3), "c");
        q.push(SimTime::from_secs(1), "a");
        q.push(SimTime::from_secs(2), "b");
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), "a")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), "b")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(3), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn class_breaks_ties_before_sequence() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        q.push(t, "default-early");
        q.push_class(t, CLASS_ARRIVAL, "arrival-late");
        q.push(t, "default-later");
        // The arrival wins the tie despite its later sequence number.
        assert_eq!(q.pop(), Some((t, "arrival-late")));
        assert_eq!(q.pop(), Some((t, "default-early")));
        assert_eq!(q.pop(), Some((t, "default-later")));
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut c: Clock<u32> = Clock::new();
        c.schedule(SimTime::from_secs(1), 1);
        c.schedule(c.now() + SimDuration::from_millis(10), 2);
        let (t1, e1) = c.next().unwrap();
        assert_eq!((t1, e1), (SimTime::from_millis(10), 2));
        assert_eq!(c.now(), SimTime::from_millis(10));
        let (t2, e2) = c.next().unwrap();
        assert_eq!((t2, e2), (SimTime::from_secs(1), 1));
        assert!(c.next().is_none());
    }

    #[test]
    #[should_panic(expected = "before now")]
    fn scheduling_in_the_past_panics() {
        let mut c: Clock<u32> = Clock::new();
        c.schedule(SimTime::from_secs(1), 1);
        c.next();
        c.schedule(SimTime::from_millis(1), 2);
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(7), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(7)));
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }
}
