//! Stage plumbing for the pipelined server core: bounded MPMC stage
//! queues with depth-adaptive batch pops, and the single-flight table
//! that coalesces identical in-flight compiles.
//!
//! The daemon's request path is a two-stage pipeline fed by the
//! reactor: *decode* workers parse and screen request JSON, *compile*
//! workers run the scheduling engine and encode replies. Each stage
//! pulls a **batch** whose size adapts to queue depth (roughly
//! `depth / workers`, clamped to [1, max]): near-idle servers get
//! batch-of-1 latency, saturated servers amortize wakeups and lock
//! traffic across larger batches — the batching/overlap idiom the
//! multi-processor scheduling literature argues for (see DESIGN.md
//! §14).
//!
//! Backpressure: `try_push` never blocks. A full queue is an explicit,
//! typed `busy` signal at request granularity — the replacement for
//! the old core's connection-level pool rejection — carrying the fixed
//! [`BUSY_RETRY_MS`] hint. The queue keeps no clock: deadline shedding
//! is the compile stage's job (DESIGN.md §16).
//!
//! All depth and batch arithmetic is checked or saturating: a hostile
//! configuration cannot turn a queue-depth computation into a panic.

use std::collections::{HashMap, VecDeque};
use std::sync::{Condvar, Mutex, MutexGuard};

/// Largest batch one worker pops per wakeup, regardless of depth.
pub const MAX_BATCH: usize = 16;

/// Retry hint attached to `busy` rejections from a full stage queue.
pub const BUSY_RETRY_MS: u64 = 50;

/// Why a push was refused.
#[derive(Debug)]
pub enum PushError<T> {
    /// The queue is at capacity; shed load (`busy`).
    Full(T),
    /// The queue was closed (drain finished); refuse (`draining`).
    Closed(T),
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded multi-producer multi-consumer stage queue.
pub struct StageQueue<T> {
    inner: Mutex<Inner<T>>,
    ready: Condvar,
    cap: usize,
    workers: usize,
}

/// Poison-recovering lock: a panic in one worker must cost its request,
/// not wedge every other producer and consumer of the stage.
fn lock_inner<'a, T>(m: &'a Mutex<Inner<T>>) -> MutexGuard<'a, Inner<T>> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl<T> StageQueue<T> {
    /// A queue holding at most `cap` items, drained by `workers`
    /// consumers (used to scale batch sizes). Zero values are clamped
    /// to 1 so the arithmetic below can never divide by zero.
    pub fn new(cap: usize, workers: usize) -> StageQueue<T> {
        StageQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            cap: cap.max(1),
            workers: workers.max(1),
        }
    }

    /// Enqueue without blocking.
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let mut inner = lock_inner(&self.inner);
        if inner.closed {
            return Err(PushError::Closed(item));
        }
        if inner.items.len() >= self.cap {
            return Err(PushError::Full(item));
        }
        inner.items.push_back(item);
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    /// Block until work arrives, then pop an adaptively sized batch
    /// into `out` (cleared first). Returns `false` when the queue is
    /// closed *and* empty — the consumer should exit.
    pub fn pop_batch(&self, out: &mut Vec<T>) -> bool {
        out.clear();
        let mut inner = lock_inner(&self.inner);
        while inner.items.is_empty() {
            if inner.closed {
                return false;
            }
            inner = self
                .ready
                .wait(inner)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
        let depth = inner.items.len();
        let take = adaptive_batch(depth, self.workers, MAX_BATCH).min(depth);
        out.extend(inner.items.drain(..take));
        let more = !inner.items.is_empty();
        drop(inner);
        if more {
            // Leftover work: make sure another consumer wakes for it.
            self.ready.notify_one();
        }
        true
    }

    /// Close the queue: producers get `Closed`, consumers drain what
    /// remains and then exit.
    pub fn close(&self) {
        lock_inner(&self.inner).closed = true;
        self.ready.notify_all();
    }
}

/// Batch size for the current depth: split the backlog across the
/// stage's workers, floor 1, ceiling `max`. Saturating/checked — no
/// depth can overflow or divide by zero.
pub fn adaptive_batch(depth: usize, workers: usize, max: usize) -> usize {
    depth
        .checked_div(workers.max(1))
        .unwrap_or(1)
        .clamp(1, max.max(1))
}

// ---------------------------------------------------------------------
// Single-flight coalescing
// ---------------------------------------------------------------------

/// What happened when a request met the single-flight table.
pub enum FlightOutcome<E> {
    /// An identical compile was already in flight; the request was
    /// attached as a follower and will receive the leader's reply.
    Attached,
    /// No flight existed; one was opened and the leader's job was
    /// enqueued.
    Opened,
    /// No flight existed and the enqueue was refused (stage full or
    /// closed); the just-opened entry was removed again.
    Refused(E),
}

/// Coalesces identical in-flight compiles: the first request with a
/// given key becomes the *leader* whose job runs; identical requests
/// arriving while it runs *attach* as followers and are answered from
/// the leader's reply, bit-identically, without compiling again.
///
/// The key is the request's canonical JSON with the `attempt` counter
/// zeroed — exactly the identity the schedule cache and quarantine
/// already use, so "identical" means identical semantics, not merely
/// equal hashes (string equality rules out collisions).
///
/// The enqueue runs *while the table is locked*, so a leader can never
/// finish (and sweep its followers) before its entry exists; once the
/// leader's finish removes the entry, a straggler simply opens a new
/// flight and is served from the now-warm cache. Lock order is always
/// table → stage queue, never the reverse.
pub struct SingleFlight<F> {
    flights: Mutex<HashMap<String, Vec<F>>>,
}

impl<F> Default for SingleFlight<F> {
    fn default() -> SingleFlight<F> {
        SingleFlight {
            flights: Mutex::new(HashMap::new()),
        }
    }
}

impl<F> SingleFlight<F> {
    fn lock(&self) -> MutexGuard<'_, HashMap<String, Vec<F>>> {
        self.flights
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Attach to an existing flight, or open one by running `enqueue`
    /// under the table lock. `follower` is consumed only when attached
    /// (the leader's context travels inside the enqueued job).
    pub fn join_or_open<E>(
        &self,
        key: &str,
        follower: F,
        enqueue: impl FnOnce() -> Result<(), E>,
    ) -> FlightOutcome<E> {
        let mut flights = self.lock();
        if let Some(followers) = flights.get_mut(key) {
            followers.push(follower);
            return FlightOutcome::Attached;
        }
        flights.insert(key.to_string(), Vec::new());
        match enqueue() {
            Ok(()) => FlightOutcome::Opened,
            Err(e) => {
                // No follower can have attached: the table was locked
                // the whole time.
                flights.remove(key);
                FlightOutcome::Refused(e)
            }
        }
    }

    /// Close a flight after its compile finished, returning the
    /// followers to fan the reply out to.
    pub fn finish(&self, key: &str) -> Vec<F> {
        self.lock().remove(key).unwrap_or_default()
    }

    /// Open flights right now (metrics/tests).
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// True when no flight is open.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn adaptive_batch_scales_with_depth_and_respects_bounds() {
        // Idle: batch of 1, lowest latency.
        assert_eq!(adaptive_batch(0, 4, MAX_BATCH), 1);
        assert_eq!(adaptive_batch(1, 4, MAX_BATCH), 1);
        // Moderate backlog: split across workers.
        assert_eq!(adaptive_batch(16, 4, MAX_BATCH), 4);
        assert_eq!(adaptive_batch(40, 4, MAX_BATCH), 10);
        // Saturated: clamped to the ceiling.
        assert_eq!(adaptive_batch(10_000, 4, MAX_BATCH), MAX_BATCH);
        // Hostile parameters cannot panic.
        assert_eq!(adaptive_batch(usize::MAX, 0, 0), 1);
        assert_eq!(adaptive_batch(usize::MAX, 1, MAX_BATCH), MAX_BATCH);
    }

    #[test]
    fn queue_honours_capacity_and_close() {
        let q: StageQueue<u32> = StageQueue::new(2, 1);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        assert!(matches!(q.try_push(3), Err(PushError::Full(3))));
        let mut out = Vec::new();
        assert!(q.pop_batch(&mut out));
        assert!(!out.is_empty());
        q.close();
        assert!(matches!(q.try_push(9), Err(PushError::Closed(9))));
        // Drain what remains, then the closed+empty queue says exit.
        while q.pop_batch(&mut out) {}
        assert!(out.is_empty());
    }

    #[test]
    fn consumers_wake_on_push_and_exit_on_close() {
        let q: Arc<StageQueue<u32>> = Arc::new(StageQueue::new(64, 2));
        let seen = Arc::new(AtomicUsize::new(0));
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let q = Arc::clone(&q);
                let seen = Arc::clone(&seen);
                std::thread::spawn(move || {
                    let mut batch = Vec::new();
                    while q.pop_batch(&mut batch) {
                        seen.fetch_add(batch.len(), Ordering::SeqCst);
                    }
                })
            })
            .collect();
        for i in 0..100 {
            while q.try_push(i).is_err() {
                std::thread::yield_now();
            }
        }
        q.close();
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(seen.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn a_batch_never_exceeds_the_ceiling() {
        let q: StageQueue<u32> = StageQueue::new(1024, 1);
        for i in 0..200 {
            q.try_push(i).unwrap();
        }
        let mut out = Vec::new();
        assert!(q.pop_batch(&mut out));
        assert!(out.len() <= MAX_BATCH, "batch of {}", out.len());
        assert_eq!(out, (0..out.len() as u32).collect::<Vec<_>>());
    }

    #[test]
    fn single_flight_attaches_followers_and_finishes_once() {
        let sf: SingleFlight<u32> = SingleFlight::default();
        // Leader opens.
        match sf.join_or_open("k", 1, || Ok::<(), ()>(())) {
            FlightOutcome::Opened => {}
            _ => panic!("expected Opened"),
        }
        // Identical requests attach.
        assert!(matches!(
            sf.join_or_open("k", 2, || Ok::<(), ()>(())),
            FlightOutcome::Attached
        ));
        assert!(matches!(
            sf.join_or_open("k", 3, || Ok::<(), ()>(())),
            FlightOutcome::Attached
        ));
        // A different key opens its own flight.
        assert!(matches!(
            sf.join_or_open("other", 4, || Ok::<(), ()>(())),
            FlightOutcome::Opened
        ));
        assert_eq!(sf.len(), 2);
        // Finishing hands back exactly the followers, in order.
        assert_eq!(sf.finish("k"), vec![2, 3]);
        assert_eq!(sf.len(), 1);
        // A straggler after the finish opens a fresh flight.
        assert!(matches!(
            sf.join_or_open("k", 5, || Ok::<(), ()>(())),
            FlightOutcome::Opened
        ));
    }

    #[test]
    fn a_refused_enqueue_removes_the_flight_entry() {
        let sf: SingleFlight<u32> = SingleFlight::default();
        match sf.join_or_open("k", 1, || Err::<(), &str>("full")) {
            FlightOutcome::Refused("full") => {}
            _ => panic!("expected Refused"),
        }
        assert_eq!(sf.len(), 0);
        // The key is immediately usable again.
        assert!(matches!(
            sf.join_or_open("k", 2, || Ok::<(), ()>(())),
            FlightOutcome::Opened
        ));
    }

    #[test]
    fn stage_queue_survives_a_poisoned_lock() {
        let q: Arc<StageQueue<u32>> = Arc::new(StageQueue::new(4, 1));
        let q2 = Arc::clone(&q);
        let _ = std::thread::spawn(move || {
            let _guard = q2.inner.lock().unwrap();
            panic!("poison the stage lock");
        })
        .join();
        assert!(q.try_push(7).is_ok());
        let mut out = Vec::new();
        assert!(q.pop_batch(&mut out));
        assert_eq!(out, vec![7]);
    }
}
