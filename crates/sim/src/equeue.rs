//! The kernel's event queue is one `BinaryHeap` of these items, popped
//! in `(time, seq)` order.

use std::cmp::Ordering;

use crate::engine::{ActorId, Event};
use crate::time::SimTime;

/// One scheduled event (or timer, or restart marker).
pub(crate) struct QueueItem<M> {
    pub(crate) time: SimTime,
    pub(crate) seq: u64,
    pub(crate) target: ActorId,
    pub(crate) event: Event<M>,
    /// Non-zero when this entry is a cancellable timer.
    pub(crate) timer_id: u64,
    /// The target's crash epoch when this entry was enqueued; stale
    /// entries (scheduled before a crash or during the down window) are
    /// dropped at pop time.
    pub(crate) epoch: u64,
    /// True for the internal marker that revives a crashed actor.
    pub(crate) restart: bool,
}

impl<M> PartialEq for QueueItem<M> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<M> Eq for QueueItem<M> {}
impl<M> PartialOrd for QueueItem<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for QueueItem<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we need earliest-first.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BinaryHeap;

    use super::*;

    fn item(time: u64, seq: u64) -> QueueItem<()> {
        QueueItem {
            time: SimTime::from_nanos(time),
            seq,
            target: ActorId(0),
            event: Event::Timer { token: 0 },
            timer_id: 0,
            epoch: 0,
            restart: false,
        }
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = BinaryHeap::new();
        // Sub-millisecond, tens of milliseconds and a minute out; two ties
        // on time broken by sequence number.
        let times = [5u64, 1 << 21, 1 << 21, 90_000_000, 60_000_000_000, 3, 5];
        for (seq, &t) in times.iter().enumerate() {
            q.push(item(t, seq as u64 + 1));
        }
        let mut got = Vec::new();
        while let Some(i) = q.pop() {
            got.push((i.time.as_nanos(), i.seq));
        }
        let mut want: Vec<(u64, u64)> = times
            .iter()
            .enumerate()
            .map(|(s, &t)| (t, s as u64 + 1))
            .collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn peek_matches_next_pop() {
        let mut q = BinaryHeap::new();
        q.push(item(500_000_000, 1));
        q.push(item(10, 2));
        assert_eq!(q.peek().map(|i| i.time), Some(SimTime::from_nanos(10)));
        assert_eq!(q.pop().unwrap().seq, 2);
        assert_eq!(
            q.peek().map(|i| i.time),
            Some(SimTime::from_nanos(500_000_000))
        );
        assert_eq!(q.pop().unwrap().seq, 1);
        assert!(q.peek().is_none());
    }
}
