//! A bounded, priority-aware MPMC queue with admission control, load
//! shedding, and drain-on-close semantics — the service's backpressure
//! primitive.
//!
//! The queue holds one FIFO band per [`Priority`]; consumers always pop
//! the most urgent non-empty band, FIFO within a band. Producers see a
//! hard admission boundary: [`BoundedQueue::admit`] never lets the
//! queue hold more than `capacity` items, so a saturated service
//! rejects new work instead of buffering without bound (callers that
//! prefer to wait use [`push_blocking`](BoundedQueue::push_blocking)).
//!
//! Overload policy lives in [`BoundedQueue::admit`], which decides
//! atomically under one lock — so the shed invariant ("a shed request
//! is never higher priority than any admitted one at shed time") holds
//! structurally, not statistically:
//!
//! * below the shed watermark, everything is admitted;
//! * at or above the watermark, [`Priority::Background`] arrivals are
//!   shed early, keeping headroom for urgent work;
//! * at capacity, an arrival displaces the *youngest item of the
//!   lowest-priority band strictly below it* (the victim is returned to
//!   the caller to be failed with a structured shed error); if nothing
//!   strictly lower is queued, the arrival itself is refused.
//!
//! Consumers block on [`pop`](BoundedQueue::pop) until an item arrives;
//! after [`close`](BoundedQueue::close) the queue admits nothing new
//! but *drains*: `pop` keeps returning queued items until the queue is
//! empty, then returns `None` — exactly the graceful-shutdown contract
//! the service's workers rely on.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Request urgency class. Declaration order is urgency-descending:
/// `Interactive` is served first and sheds last.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// A user is waiting on the reply (served first, never shed early).
    Interactive,
    /// Bulk work with a deadline measured in minutes — the default.
    Batch,
    /// Best-effort fill work; first to be shed under overload.
    Background,
}

impl Priority {
    /// All priorities, most urgent first.
    pub const ALL: [Priority; 3] = [Priority::Interactive, Priority::Batch, Priority::Background];

    /// Band index (0 = most urgent).
    pub fn index(self) -> usize {
        match self {
            Priority::Interactive => 0,
            Priority::Batch => 1,
            Priority::Background => 2,
        }
    }

    /// Stable lowercase name (metric label / CLI value).
    pub fn as_str(self) -> &'static str {
        match self {
            Priority::Interactive => "interactive",
            Priority::Batch => "batch",
            Priority::Background => "background",
        }
    }
}

/// Outcome of a priority-aware [`BoundedQueue::admit`]. `depth` is the
/// queue depth observed under the admission lock (before any
/// displacement), so refusals carry honest context.
#[derive(Debug, PartialEq, Eq)]
pub enum Admission<T> {
    /// The item was enqueued.
    Enqueued,
    /// The item was enqueued by evicting `victim` (strictly lower
    /// priority); the caller must fail the victim with a shed error.
    Displaced {
        /// The evicted item.
        victim: T,
        /// The evicted item's priority (strictly below the arrival's).
        victim_priority: Priority,
    },
    /// At capacity with nothing strictly lower-priority to displace;
    /// the arrival is returned (plain backpressure).
    Full(T, usize),
    /// The shed watermark refused the arrival early (lowest priority
    /// only); the arrival is returned.
    Shed(T, usize),
    /// The queue was closed; the arrival is returned.
    Closed(T),
}

struct State<T> {
    bands: [VecDeque<(T, Priority)>; 3],
    closed: bool,
}

impl<T> State<T> {
    fn depth(&self) -> usize {
        self.bands.iter().map(VecDeque::len).sum()
    }
}

/// The bounded queue (see the [module docs](self)).
pub struct BoundedQueue<T> {
    state: Mutex<State<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// A queue admitting at most `capacity` undrained items
    /// (`capacity >= 1`).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "queue capacity must be at least 1");
        BoundedQueue {
            state: Mutex::new(State {
                bands: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
        }
    }

    /// The admission capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items currently queued across all bands (racy snapshot, for
    /// stats only).
    pub fn len(&self) -> usize {
        self.state.lock().expect("queue poisoned").depth()
    }

    /// Whether the queue is currently empty (racy snapshot).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Items currently queued at `priority` (racy snapshot).
    pub fn depth_of(&self, priority: Priority) -> usize {
        self.state.lock().expect("queue poisoned").bands[priority.index()].len()
    }

    /// Priority-aware admission under one lock (see the [module
    /// docs](self) for the policy). `shed_watermark` is clamped to
    /// `capacity`; pass `capacity` to disable early shedding.
    pub fn admit(&self, item: T, priority: Priority, shed_watermark: usize) -> Admission<T> {
        let watermark = shed_watermark.min(self.capacity);
        let mut state = self.state.lock().expect("queue poisoned");
        if state.closed {
            return Admission::Closed(item);
        }
        let depth = state.depth();
        if priority == Priority::Background && depth >= watermark {
            return Admission::Shed(item, depth);
        }
        if depth >= self.capacity {
            // evict the youngest item of the lowest-priority non-empty
            // band strictly below the arrival
            for band in (priority.index() + 1..state.bands.len()).rev() {
                if let Some((victim, victim_priority)) = state.bands[band].pop_back() {
                    state.bands[priority.index()].push_back((item, priority));
                    drop(state);
                    self.not_empty.notify_one();
                    return Admission::Displaced {
                        victim,
                        victim_priority,
                    };
                }
            }
            return Admission::Full(item, depth);
        }
        state.bands[priority.index()].push_back((item, priority));
        drop(state);
        self.not_empty.notify_one();
        Admission::Enqueued
    }

    /// Blocking admission into `priority`'s band: waits for space
    /// (never displaces, never sheds), returning `Err(item)` only if
    /// the queue closes while waiting (or was already closed).
    pub fn push_blocking(&self, item: T, priority: Priority) -> Result<(), T> {
        let mut state = self.state.lock().expect("queue poisoned");
        loop {
            if state.closed {
                return Err(item);
            }
            if state.depth() < self.capacity {
                state.bands[priority.index()].push_back((item, priority));
                drop(state);
                self.not_empty.notify_one();
                return Ok(());
            }
            state = self.not_full.wait(state).expect("queue poisoned");
        }
    }

    /// Blocking consume: the most urgent queued item, or `None` once
    /// the queue is closed *and* drained.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.state.lock().expect("queue poisoned");
        loop {
            if let Some((item, _)) = (0..state.bands.len()).find_map(|b| state.bands[b].pop_front())
            {
                drop(state);
                self.not_full.notify_one();
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.not_empty.wait(state).expect("queue poisoned");
        }
    }

    /// Non-blocking consume: the most urgent queued item, or `None`
    /// when nothing is queued right now (whether or not the queue is
    /// closed).
    pub fn try_pop(&self) -> Option<T> {
        let mut state = self.state.lock().expect("queue poisoned");
        let item = (0..state.bands.len()).find_map(|b| state.bands[b].pop_front());
        drop(state);
        if item.is_some() {
            self.not_full.notify_one();
        }
        item.map(|(item, _)| item)
    }

    /// Closes the queue: no further admissions; consumers drain the
    /// remaining items and then observe the end of the stream.
    pub fn close(&self) {
        self.state.lock().expect("queue poisoned").closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Admits `item` at [`Priority::Batch`] with early shedding off.
    fn push<T>(q: &BoundedQueue<T>, item: T) -> Admission<T> {
        q.admit(item, Priority::Batch, q.capacity())
    }

    #[test]
    fn admission_error_when_full() {
        let q = BoundedQueue::new(2);
        assert_eq!(push(&q, 1), Admission::Enqueued);
        assert_eq!(push(&q, 2), Admission::Enqueued);
        assert_eq!(push(&q, 3), Admission::Full(3, 2));
        assert_eq!(q.len(), 2);
        // draining reopens admission
        assert_eq!(q.pop(), Some(1));
        assert_eq!(push(&q, 3), Admission::Enqueued);
    }

    #[test]
    fn close_drains_then_ends() {
        let q = BoundedQueue::new(4);
        push(&q, 1);
        push(&q, 2);
        q.close();
        assert_eq!(push(&q, 3), Admission::Closed(3));
        assert_eq!(q.push_blocking(3, Priority::Batch), Err(3));
        assert_eq!(q.admit(3, Priority::Interactive, 4), Admission::Closed(3));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None, "a closed drained queue stays ended");
    }

    #[test]
    fn fifo_order_preserved() {
        let q = BoundedQueue::new(16);
        for i in 0..10 {
            push(&q, i);
        }
        for i in 0..10 {
            assert_eq!(q.pop(), Some(i));
        }
    }

    #[test]
    fn pop_takes_most_urgent_band_first() {
        let q = BoundedQueue::new(8);
        assert_eq!(q.admit(30, Priority::Background, 8), Admission::Enqueued);
        assert_eq!(q.admit(20, Priority::Batch, 8), Admission::Enqueued);
        assert_eq!(q.admit(10, Priority::Interactive, 8), Admission::Enqueued);
        assert_eq!(q.admit(11, Priority::Interactive, 8), Admission::Enqueued);
        assert_eq!(q.pop(), Some(10), "interactive first, FIFO within band");
        assert_eq!(q.pop(), Some(11));
        assert_eq!(q.pop(), Some(20));
        assert_eq!(q.pop(), Some(30));
    }

    #[test]
    fn full_queue_displaces_strictly_lower_priority_work() {
        let q = BoundedQueue::new(2);
        assert_eq!(q.admit(1, Priority::Background, 2), Admission::Enqueued);
        assert_eq!(q.admit(2, Priority::Batch, 2), Admission::Enqueued);
        // interactive arrival evicts the background item, not the batch one
        assert_eq!(
            q.admit(3, Priority::Interactive, 2),
            Admission::Displaced {
                victim: 1,
                victim_priority: Priority::Background,
            }
        );
        // a batch arrival finds only batch work queued — nothing
        // strictly below it → plain backpressure
        assert_eq!(
            q.admit(4, Priority::Batch, 2),
            Admission::Full(4, 2),
            "equal-priority work is never displaced"
        );
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), Some(2));
    }

    #[test]
    fn watermark_sheds_background_arrivals_early() {
        let q = BoundedQueue::new(4);
        assert_eq!(q.admit(1, Priority::Background, 2), Admission::Enqueued);
        assert_eq!(q.admit(2, Priority::Background, 2), Admission::Enqueued);
        // at the watermark: background refused, urgent work still admitted
        assert_eq!(q.admit(3, Priority::Background, 2), Admission::Shed(3, 2));
        assert_eq!(q.admit(4, Priority::Batch, 2), Admission::Enqueued);
        assert_eq!(q.admit(5, Priority::Interactive, 2), Admission::Enqueued);
        assert_eq!(q.len(), 4);
    }

    #[test]
    fn blocking_push_lands_in_the_requested_band() {
        let q = BoundedQueue::new(4);
        q.push_blocking(30, Priority::Background).unwrap();
        q.push_blocking(20, Priority::Batch).unwrap();
        q.push_blocking(10, Priority::Interactive).unwrap();
        assert_eq!(q.depth_of(Priority::Interactive), 1);
        assert_eq!(q.depth_of(Priority::Batch), 1);
        assert_eq!(q.depth_of(Priority::Background), 1);
        assert_eq!(q.pop(), Some(10));
        assert_eq!(q.pop(), Some(20));
        assert_eq!(q.pop(), Some(30));
    }

    #[test]
    fn blocking_push_waits_for_space() {
        let q = Arc::new(BoundedQueue::new(1));
        push(&q, 0u32);
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push_blocking(1, Priority::Batch).is_ok())
        };
        // the producer is blocked on a full queue until we drain one
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(q.pop(), Some(0));
        assert!(producer.join().unwrap());
        assert_eq!(q.pop(), Some(1));
    }

    #[test]
    fn blocking_push_fails_on_close() {
        let q = Arc::new(BoundedQueue::new(1));
        push(&q, 0u32);
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push_blocking(1, Priority::Batch))
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert_eq!(producer.join().unwrap(), Err(1));
    }

    #[test]
    fn pop_blocks_until_item_arrives() {
        let q = Arc::new(BoundedQueue::new(4));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop())
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        push(&q, 7u32);
        assert_eq!(consumer.join().unwrap(), Some(7));
    }
}
