//! A bounded MPMC queue on `Mutex` + `Condvar` — the admission control of
//! the detonation service.
//!
//! Capacity is the backpressure boundary: [`BoundedQueue::try_push`]
//! rejects when full (the server turns that into a structured `QueueFull`
//! response), [`BoundedQueue::wait_space`] blocks until space frees (the
//! in-process submission path retries its push after it).
//! [`BoundedQueue::close`] flips the queue into drain mode: pushes are
//! refused, pops keep succeeding until the queue is empty, then return
//! `None` — which is exactly the worker-pool shutdown contract ("drain
//! in-flight jobs, reject new ones").

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why a push was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue is at capacity (backpressure; retry or report).
    Full,
    /// The queue is closed (service shutting down).
    Closed,
}

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
    /// Deepest the queue has ever been (for the high-water gauge).
    high_water: usize,
}

/// A bounded multi-producer multi-consumer FIFO queue.
pub struct BoundedQueue<T> {
    cap: usize,
    state: Mutex<State<T>>,
    /// Signals consumers (item available / closed).
    not_empty: Condvar,
    /// Signals blocked producers (space available / closed).
    not_full: Condvar,
}

impl<T> std::fmt::Debug for BoundedQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BoundedQueue").field("capacity", &self.cap).finish()
    }
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` items (min 1).
    pub fn new(capacity: usize) -> BoundedQueue<T> {
        BoundedQueue {
            cap: capacity.max(1),
            state: Mutex::new(State { items: VecDeque::new(), closed: false, high_water: 0 }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    /// The capacity the queue admits.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Current depth.
    pub fn len(&self) -> usize {
        self.state.lock().expect("queue poisoned").items.len()
    }

    /// Returns `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Deepest the queue has ever been.
    pub fn high_water(&self) -> usize {
        self.state.lock().expect("queue poisoned").high_water
    }

    /// Returns `true` once [`BoundedQueue::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.state.lock().expect("queue poisoned").closed
    }

    /// Non-blocking push: refused with [`PushError::Full`] at capacity and
    /// [`PushError::Closed`] after close.
    pub fn try_push(&self, item: T) -> Result<(), PushError> {
        let mut s = self.state.lock().expect("queue poisoned");
        if s.closed {
            return Err(PushError::Closed);
        }
        if s.items.len() >= self.cap {
            return Err(PushError::Full);
        }
        s.items.push_back(item);
        s.high_water = s.high_water.max(s.items.len());
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocks until the queue has space for at least one item (or is
    /// closed). Returns `true` when space was observed, `false` on close.
    /// The space is not reserved — a racing producer may take it, so
    /// callers retry their push.
    pub fn wait_space(&self) -> bool {
        let mut s = self.state.lock().expect("queue poisoned");
        loop {
            if s.closed {
                return false;
            }
            if s.items.len() < self.cap {
                return true;
            }
            s = self.not_full.wait(s).expect("queue poisoned");
        }
    }

    /// Blocking pop: returns `None` only when the queue is closed *and*
    /// drained — consumers exit exactly once the backlog is gone.
    pub fn pop(&self) -> Option<T> {
        let mut s = self.state.lock().expect("queue poisoned");
        loop {
            if let Some(item) = s.items.pop_front() {
                self.not_full.notify_one();
                return Some(item);
            }
            if s.closed {
                return None;
            }
            s = self.not_empty.wait(s).expect("queue poisoned");
        }
    }

    /// Closes the queue: pushes are refused from now on, pops drain what
    /// remains. Wakes every waiter.
    pub fn close(&self) {
        let mut s = self.state.lock().expect("queue poisoned");
        s.closed = true;
        drop(s);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn try_push_respects_capacity() {
        let q = BoundedQueue::new(2);
        assert_eq!(q.try_push(1), Ok(()));
        assert_eq!(q.try_push(2), Ok(()));
        assert_eq!(q.try_push(3), Err(PushError::Full));
        assert_eq!(q.len(), 2);
        assert_eq!(q.high_water(), 2);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.try_push(3), Ok(()));
    }

    #[test]
    fn close_drains_then_stops_consumers() {
        let q = BoundedQueue::new(4);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        q.close();
        assert_eq!(q.try_push(3), Err(PushError::Closed));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None, "closed and drained");
    }

    #[test]
    fn wait_space_unblocks_on_space_and_fails_on_close() {
        let q = Arc::new(BoundedQueue::new(1));
        q.try_push(0u32).unwrap();
        let producer = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.wait_space())
        };
        thread::sleep(Duration::from_millis(20));
        assert_eq!(q.pop(), Some(0), "make space for the blocked producer");
        assert!(producer.join().unwrap());

        let q2 = Arc::new(BoundedQueue::new(1));
        q2.try_push(0u32).unwrap();
        let blocked = {
            let q2 = Arc::clone(&q2);
            thread::spawn(move || q2.wait_space())
        };
        thread::sleep(Duration::from_millis(20));
        q2.close();
        assert!(!blocked.join().unwrap());
    }

    #[test]
    fn mpmc_delivers_every_item_exactly_once() {
        let q = Arc::new(BoundedQueue::new(8));
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(v) = q.pop() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        for i in 0..100u32 {
            while q.try_push(i) == Err(PushError::Full) {
                assert!(q.wait_space());
            }
        }
        q.close();
        let mut all: Vec<u32> =
            consumers.into_iter().flat_map(|c| c.join().unwrap()).collect();
        all.sort_unstable();
        assert_eq!(all, (0..100).collect::<Vec<_>>());
    }
}
