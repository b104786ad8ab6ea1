//! The discrete-event kernel: a time-ordered queue with FIFO tie-breaking.

use std::collections::BinaryHeap;

use crate::time::SimTime;

/// An event scheduled at a time; equal times pop in insertion order.
#[derive(Debug, Clone)]
struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Scheduled<E>) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Scheduled<E>) -> std::cmp::Ordering {
        // Reversed for a min-heap inside BinaryHeap.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Scheduled<E>) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic event queue.
///
/// # Examples
///
/// ```
/// use phoenix_kubesim::events::EventQueue;
/// use phoenix_kubesim::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_secs(5), "later");
/// q.schedule(SimTime::from_secs(1), "sooner");
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1), "sooner")));
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> EventQueue<E> {
        EventQueue::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> EventQueue<E> {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `event` at absolute time `at`.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Scheduled { at, seq, event });
    }

    /// Pops the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|s| (s.at, s.event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), 'c');
        q.schedule(SimTime::from_secs(1), 'a');
        q.schedule(SimTime::from_secs(2), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn fifo_on_ties() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..5 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert_eq!(q.pop(), None);
        q.schedule(SimTime::from_secs(9), ());
        q.schedule(SimTime::from_secs(2), ());
        assert_eq!(q.pop().map(|(at, _)| at), Some(SimTime::from_secs(2)));
        assert_eq!(q.pop().map(|(at, _)| at), Some(SimTime::from_secs(9)));
        assert_eq!(q.pop(), None);
    }
}
