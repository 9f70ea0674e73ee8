//! Deterministic virtual-time timers.
//!
//! The reliability sublayer in `dsm-net` arms a retransmission timer per
//! send attempt and needs the firing order to be exactly reproducible. A
//! [`TimerQueue`] orders timers by `(deadline, armed order)` — ties fire in
//! the order they were armed — and supports O(log n) cancellation by lazy
//! deletion, so acked attempts never fire.
//!
//! The queue knows nothing about what a timer means; callers keep their own
//! `TimerId → purpose` mapping. All state is integer virtual time
//! ([`Time`]), never host time, so a run's timer history is a pure function
//! of its inputs.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::fasthash::FastSet;
use crate::snapio::{SnapError, SnapReader, SnapWriter};
use crate::state::{State, StateHasher};
use crate::time::Time;

/// Handle for one armed timer (unique within its queue's lifetime).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct TimerId(u64);

/// A cancellable min-queue of virtual-time deadlines.
#[derive(Debug, Default, Clone)]
pub struct TimerQueue {
    /// Min-heap on (deadline, arm sequence).
    heap: BinaryHeap<Reverse<(Time, u64)>>,
    /// Lazily deleted ids (removed when they surface).
    cancelled: FastSet<u64>,
    next_id: u64,
    live: usize,
}

impl TimerQueue {
    pub fn new() -> TimerQueue {
        TimerQueue::default()
    }

    /// Arm a timer for virtual instant `at`.
    pub fn schedule(&mut self, at: Time) -> TimerId {
        let id = self.next_id;
        self.next_id += 1;
        self.heap.push(Reverse((at, id)));
        self.live += 1;
        TimerId(id)
    }

    /// Disarm a timer. Cancelling an already-fired or already-cancelled
    /// timer is a no-op.
    pub fn cancel(&mut self, id: TimerId) {
        if self.cancelled.insert(id.0) {
            self.live = self.live.saturating_sub(1);
        }
    }

    /// Pop the next timer with deadline `<= now`, if any. Timers fire in
    /// deadline order; equal deadlines fire in arming order.
    pub fn pop_due(&mut self, now: Time) -> Option<(Time, TimerId)> {
        while let Some(&Reverse((at, id))) = self.heap.peek() {
            if self.cancelled.remove(&id) {
                self.heap.pop();
                continue;
            }
            if at > now {
                return None;
            }
            self.heap.pop();
            self.live -= 1;
            return Some((at, TimerId(id)));
        }
        None
    }

    /// Earliest live deadline, if any timers are armed.
    pub fn next_deadline(&mut self) -> Option<Time> {
        while let Some(&Reverse((at, id))) = self.heap.peek() {
            if self.cancelled.remove(&id) {
                self.heap.pop();
                continue;
            }
            return Some(at);
        }
        None
    }

    /// Number of armed (not fired, not cancelled) timers.
    pub fn pending(&self) -> usize {
        self.live
    }
}

/// The armed timers in firing order.
fn armed(heap: &BinaryHeap<Reverse<(Time, u64)>>, cancelled: &FastSet<u64>) -> Vec<(Time, u64)> {
    let mut armed: Vec<(Time, u64)> = heap
        .iter()
        .map(|&Reverse(e)| e)
        .filter(|(_, id)| !cancelled.contains(id))
        .collect();
    armed.sort_unstable();
    armed
}

/// Hand-written: the heap and the lazy-deletion set are one logical value,
/// the armed timers in firing order. Cancelled-but-unpopped heap entries
/// are dropped — they can never fire, so a queue restored without them
/// behaves identically. `next_id` is kept exactly so ids armed after a
/// restore sort after every restored id (ties fire in arming order).
impl State for TimerQueue {
    fn encode(&self, w: &mut SnapWriter) {
        let TimerQueue {
            heap,
            cancelled,
            next_id,
            live: _,
        } = self;
        armed(heap, cancelled).encode(w);
        next_id.encode(w);
    }

    fn decode(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let TimerQueue {
            heap,
            cancelled,
            next_id,
            live,
        } = self;
        let mut timers: Vec<(Time, u64)> = Vec::new();
        timers.decode(r)?;
        next_id.decode(r)?;
        *live = timers.len();
        *heap = timers.into_iter().map(Reverse).collect();
        cancelled.clear();
        Ok(())
    }

    fn fold(&self, h: &mut StateHasher) {
        let TimerQueue {
            heap,
            cancelled,
            next_id,
            live: _,
        } = self;
        armed(heap, cancelled).fold(h);
        next_id.fold(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_in_deadline_order() {
        let mut q = TimerQueue::new();
        let a = q.schedule(Time::from_us(30));
        let b = q.schedule(Time::from_us(10));
        let c = q.schedule(Time::from_us(20));
        assert_eq!(q.pending(), 3);
        assert_eq!(q.pop_due(Time::from_us(100)), Some((Time::from_us(10), b)));
        assert_eq!(q.pop_due(Time::from_us(100)), Some((Time::from_us(20), c)));
        assert_eq!(q.pop_due(Time::from_us(100)), Some((Time::from_us(30), a)));
        assert_eq!(q.pop_due(Time::from_us(100)), None);
        assert_eq!(q.pending(), 0);
    }

    #[test]
    fn equal_deadlines_fire_in_arming_order() {
        let mut q = TimerQueue::new();
        let t = Time::from_us(5);
        let first = q.schedule(t);
        let second = q.schedule(t);
        assert_eq!(q.pop_due(t), Some((t, first)));
        assert_eq!(q.pop_due(t), Some((t, second)));
    }

    #[test]
    fn respects_now() {
        let mut q = TimerQueue::new();
        q.schedule(Time::from_us(50));
        assert_eq!(q.pop_due(Time::from_us(49)), None);
        assert!(q.pop_due(Time::from_us(50)).is_some());
    }

    #[test]
    fn cancelled_timers_never_fire() {
        let mut q = TimerQueue::new();
        let a = q.schedule(Time::from_us(1));
        let b = q.schedule(Time::from_us(2));
        q.cancel(a);
        assert_eq!(q.pending(), 1);
        assert_eq!(q.pop_due(Time::from_us(10)), Some((Time::from_us(2), b)));
        // Double-cancel and cancel-after-fire are no-ops.
        q.cancel(a);
        q.cancel(b);
        assert_eq!(q.pending(), 0);
        assert_eq!(q.pop_due(Time::from_us(10)), None);
    }

    #[test]
    fn next_deadline_skips_cancelled() {
        let mut q = TimerQueue::new();
        let a = q.schedule(Time::from_us(1));
        q.schedule(Time::from_us(7));
        q.cancel(a);
        assert_eq!(q.next_deadline(), Some(Time::from_us(7)));
    }

    #[test]
    fn snapshot_drops_cancelled_and_keeps_the_id_counter() {
        let mut q = TimerQueue::new();
        let a = q.schedule(Time::from_us(9));
        q.schedule(Time::from_us(3));
        q.cancel(a);
        let mut w = SnapWriter::new();
        q.encode(&mut w);
        let bytes = w.into_bytes();
        let mut back = TimerQueue::new();
        back.schedule(Time::from_us(1));
        back.decode(&mut SnapReader::new(&bytes)).unwrap();
        assert_eq!(back.pending(), 1);
        let fresh = back.schedule(Time::from_us(3));
        assert_eq!(fresh, TimerId(2), "ids continue past every restored id");
        let t = Time::from_us(3);
        assert_eq!(back.pop_due(t), Some((t, TimerId(1))));
        assert_eq!(back.pop_due(t), Some((t, fresh)));
        assert_eq!(back.pop_due(Time::from_us(99)), None);
    }
}
