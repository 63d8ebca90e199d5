//! A minimal discrete-event simulation core.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A simulation timestamp in seconds.
pub type SimTime = f64;

/// An event priority class: at equal timestamps, lower classes pop first.
///
/// Multi-source simulations (e.g. a cluster front end merging chaos and
/// arrival streams) encode "stream A fires before stream B at the same
/// instant" as a class instead of biasing timestamps, which keeps the
/// clock exact and the ordering auditable.
pub type EventClass = u8;

struct Entry<T> {
    at: SimTime,
    class: EventClass,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.class == other.class && self.seq == other.seq
    }
}

impl<T> Eq for Entry<T> {}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for a min-heap; ties broken first by class, then by
        // insertion order so the simulation is deterministic.
        other
            .at
            .partial_cmp(&self.at)
            .expect("event time must not be NaN")
            .then_with(|| other.class.cmp(&self.class))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic min-heap event queue with a monotonic clock.
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    now: SimTime,
    seq: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            now: 0.0,
            seq: 0,
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `payload` at absolute time `at` in the default class 0.
    ///
    /// # Panics
    ///
    /// Panics if `at` is NaN or in the past.
    pub fn push(&mut self, at: SimTime, payload: T) {
        self.push_class(at, 0, payload);
    }

    /// Schedules `payload` at absolute time `at` with an explicit
    /// priority `class`: at equal timestamps, lower classes pop first.
    ///
    /// # Panics
    ///
    /// Panics if `at` is NaN or in the past.
    pub fn push_class(&mut self, at: SimTime, class: EventClass, payload: T) {
        assert!(!at.is_nan(), "event time must not be NaN");
        assert!(
            at >= self.now - 1e-12,
            "cannot schedule into the past: {at} < {}",
            self.now
        );
        self.heap.push(Entry {
            at,
            class,
            seq: self.seq,
            payload,
        });
        self.seq += 1;
    }

    /// Pops the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        self.pop_classed().map(|(t, _, p)| (t, p))
    }

    /// Pops the next event with its class, advancing the clock.
    pub fn pop_classed(&mut self) -> Option<(SimTime, EventClass, T)> {
        self.heap.pop().map(|e| {
            debug_assert!(e.at >= self.now - 1e-9, "clock went backwards");
            self.now = self.now.max(e.at);
            (self.now, e.class, e.payload)
        })
    }

    /// The next event without popping it: `(time, class, payload)`.
    pub fn peek(&self) -> Option<(SimTime, EventClass, &T)> {
        self.heap.peek().map(|e| (e.at, e.class, &e.payload))
    }

    /// Iterates over every pending event in **arbitrary** (heap) order —
    /// for scans like "earliest pending event matching a predicate",
    /// which callers reduce over the full set rather than relying on
    /// ordering.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, EventClass, &T)> {
        self.heap.iter().map(|e| (e.at, e.class, &e.payload))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events remain.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(3.0, "c");
        q.push(1.0, "a");
        q.push(2.0, "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.push(1.0, 1);
        q.push(1.0, 2);
        q.push(1.0, 3);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn clock_is_monotonic() {
        let mut q = EventQueue::new();
        q.push(5.0, ());
        q.push(7.0, ());
        let (t1, _) = q.pop().unwrap();
        let (t2, _) = q.pop().unwrap();
        assert!(t2 >= t1);
        assert_eq!(q.now(), 7.0);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn rejects_past_events() {
        let mut q = EventQueue::new();
        q.push(5.0, ());
        let _ = q.pop();
        q.push(1.0, ());
    }

    #[test]
    fn classes_order_before_seq_at_equal_time() {
        let mut q = EventQueue::new();
        q.push_class(1.0, 1, "arrival");
        q.push_class(1.0, 0, "chaos");
        q.push_class(1.0, 1, "arrival2");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec!["chaos", "arrival", "arrival2"]);
    }

    #[test]
    fn peek_matches_next_pop() {
        let mut q = EventQueue::new();
        q.push_class(2.0, 1, "b");
        q.push_class(1.0, 1, "a");
        let (t, class, p) = q.peek().expect("non-empty");
        assert_eq!((t, class, *p), (1.0, 1, "a"));
        let (t2, c2, p2) = q.pop_classed().expect("non-empty");
        assert_eq!((t2, c2, p2), (1.0, 1, "a"));
    }

    #[test]
    fn iter_covers_all_pending() {
        let mut q = EventQueue::new();
        q.push(3.0, 30);
        q.push(1.0, 10);
        q.push(2.0, 20);
        let earliest = q
            .iter()
            .filter(|(_, _, p)| **p >= 20)
            .map(|(t, _, _)| t)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(earliest, 2.0);
        assert_eq!(q.len(), 3);
    }
}
