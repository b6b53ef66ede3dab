//! Stage plumbing shared by the daemon and the router: a bounded MPMC
//! stage queue that hands out one job per pop, and the single-flight
//! table that coalesces identical in-flight compiles.
//!
//! The daemon's reactor screens each request and enqueues one compile
//! job per flight; the router's reactor enqueues one forwarding job per
//! request. A job takes milliseconds either way (a compile, or a
//! blocking forward), so a worker pops exactly one: popping more would
//! only park jobs behind one another while another worker idles.
//!
//! Backpressure: `try_push` never blocks. A full queue is an explicit,
//! typed `busy` signal at request granularity — the replacement for
//! the old core's connection-level pool rejection — carrying the fixed
//! [`BUSY_RETRY_MS`] hint. The queue keeps no clock: deadline shedding
//! is the compile stage's job (DESIGN.md §16).

use std::collections::{HashMap, VecDeque};
use std::sync::{Condvar, Mutex, MutexGuard};

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
}

/// Poison-recovering lock: a panic in one worker must cost its request,
/// not wedge every other producer and consumer of the stage.
fn lock_inner<'a, T>(m: &'a Mutex<Inner<T>>) -> MutexGuard<'a, Inner<T>> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl<T> StageQueue<T> {
    /// A queue holding at most `cap` items (zero is clamped to 1).
    pub fn new(cap: usize) -> StageQueue<T> {
        StageQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            cap: cap.max(1),
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

    /// Block until a job arrives and take it. Returns `None` when the
    /// queue is closed *and* empty — the consumer should exit.
    pub fn pop(&self) -> Option<T> {
        let mut inner = lock_inner(&self.inner);
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self
                .ready
                .wait(inner)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }

    /// Close the queue: producers get `Closed`, consumers drain what
    /// remains and then exit.
    pub fn close(&self) {
        lock_inner(&self.inner).closed = true;
        self.ready.notify_all();
    }
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
/// The key is the request's canonical JSON
/// (`ScheduleRequest::canonical_json`, the `attempt` counter zeroed) —
/// exactly the identity the quarantine and the router's ring hash. The
/// table is indexed by the key's FNV-1a hash, which the reactor has
/// already computed for the quarantine, so a request hashes no text
/// here; the leader's key text is kept with its flight and compared on
/// a hash match, so "identical" means identical semantics, not merely
/// equal hashes: two keys that share a hash open separate flights.
///
/// The enqueue runs *while the table is locked*, so a leader can never
/// finish (and sweep its followers) before its entry exists; once the
/// leader's finish removes the entry, a straggler simply opens a new
/// flight and is served from the now-warm cache. Lock order is always
/// table → stage queue, never the reverse.
pub struct SingleFlight<F> {
    table: Mutex<Flights<F>>,
}

/// The open flights, by key hash. A hash almost always names one
/// flight; keys that collide share the list.
struct Flights<F> {
    by_hash: HashMap<u64, Vec<Flight<F>>>,
    next_id: u64,
}

struct Flight<F> {
    id: u64,
    key: String,
    followers: Vec<F>,
}

/// Names one open flight: what a leader's job carries to
/// [`SingleFlight::finish`] in place of its key text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightId {
    hash: u64,
    id: u64,
}

impl<F> Default for SingleFlight<F> {
    fn default() -> SingleFlight<F> {
        SingleFlight {
            table: Mutex::new(Flights {
                by_hash: HashMap::new(),
                next_id: 0,
            }),
        }
    }
}

impl<F> SingleFlight<F> {
    fn lock(&self) -> MutexGuard<'_, Flights<F>> {
        self.table
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Attach to an existing flight for `key` (whose hash is `hash`), or
    /// open one by running `enqueue` with the new flight's id under the
    /// table lock. `follower` is consumed only when attached (the
    /// leader's context travels inside the enqueued job), and `key` is
    /// kept only when a flight opens.
    pub fn join_or_open<E>(
        &self,
        hash: u64,
        key: String,
        follower: F,
        enqueue: impl FnOnce(FlightId) -> Result<(), E>,
    ) -> FlightOutcome<E> {
        let mut table = self.lock();
        let Flights { by_hash, next_id } = &mut *table;
        let flights = by_hash.entry(hash).or_default();
        if let Some(flight) = flights.iter_mut().find(|f| f.key == key) {
            flight.followers.push(follower);
            return FlightOutcome::Attached;
        }
        let id = *next_id;
        *next_id += 1;
        flights.push(Flight {
            id,
            key,
            followers: Vec::new(),
        });
        match enqueue(FlightId { hash, id }) {
            Ok(()) => FlightOutcome::Opened,
            Err(e) => {
                // No follower can have attached: the table was locked
                // the whole time.
                table.remove(FlightId { hash, id });
                FlightOutcome::Refused(e)
            }
        }
    }

    /// Close a flight after its compile finished, returning the
    /// followers to fan the reply out to.
    pub fn finish(&self, flight: FlightId) -> Vec<F> {
        self.lock()
            .remove(flight)
            .map(|f| f.followers)
            .unwrap_or_default()
    }

    /// Open flights right now (metrics/tests).
    pub fn len(&self) -> usize {
        self.lock().by_hash.values().map(Vec::len).sum()
    }

    /// True when no flight is open.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<F> Flights<F> {
    fn remove(&mut self, flight: FlightId) -> Option<Flight<F>> {
        let flights = self.by_hash.get_mut(&flight.hash)?;
        let at = flights.iter().position(|f| f.id == flight.id)?;
        let removed = flights.swap_remove(at);
        if flights.is_empty() {
            self.by_hash.remove(&flight.hash);
        }
        Some(removed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn queue_honours_capacity_and_close() {
        let q: StageQueue<u32> = StageQueue::new(2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        assert!(matches!(q.try_push(3), Err(PushError::Full(3))));
        assert_eq!(q.pop(), Some(1));
        q.close();
        assert!(matches!(q.try_push(9), Err(PushError::Closed(9))));
        // Drain what remains, then the closed+empty queue says exit.
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn consumers_wake_on_push_and_exit_on_close() {
        let q: Arc<StageQueue<u32>> = Arc::new(StageQueue::new(64));
        let seen = Arc::new(AtomicUsize::new(0));
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let q = Arc::clone(&q);
                let seen = Arc::clone(&seen);
                std::thread::spawn(move || {
                    while q.pop().is_some() {
                        seen.fetch_add(1, Ordering::SeqCst);
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

    /// Join `key` under `hash` with a succeeding enqueue; the new
    /// flight's id when one opened.
    fn join(sf: &SingleFlight<u32>, hash: u64, key: &str, follower: u32) -> Option<FlightId> {
        let mut opened = None;
        match sf.join_or_open(hash, key.to_string(), follower, |id| {
            opened = Some(id);
            Ok::<(), ()>(())
        }) {
            FlightOutcome::Opened => assert!(opened.is_some()),
            FlightOutcome::Attached => assert!(opened.is_none()),
            FlightOutcome::Refused(()) => unreachable!("the enqueue succeeds"),
        }
        opened
    }

    #[test]
    fn single_flight_attaches_followers_and_finishes_once() {
        let sf: SingleFlight<u32> = SingleFlight::default();
        // Leader opens; identical requests attach.
        let k = join(&sf, 1, "k", 1).expect("the first request opens");
        assert_eq!(join(&sf, 1, "k", 2), None);
        assert_eq!(join(&sf, 1, "k", 3), None);
        // A different key opens its own flight.
        let other = join(&sf, 2, "other", 4).expect("another key opens");
        assert_ne!(k, other);
        assert_eq!(sf.len(), 2);
        // Finishing hands back exactly the followers, in order.
        assert_eq!(sf.finish(k), vec![2, 3]);
        assert_eq!(sf.len(), 1);
        assert_eq!(sf.finish(k), Vec::<u32>::new(), "a flight finishes once");
        // A straggler after the finish opens a fresh flight.
        let again = join(&sf, 1, "k", 5).expect("a straggler opens anew");
        assert_ne!(again, k);
        assert_eq!(sf.finish(other), Vec::<u32>::new());
        assert_eq!(sf.finish(again), Vec::<u32>::new());
        assert!(sf.is_empty());
    }

    /// Two different keys forced onto one hash open separate flights:
    /// a follower attaches only to the flight whose key text it shares,
    /// and finishing one flight leaves the other's followers alone.
    #[test]
    fn keys_sharing_a_hash_never_coalesce() {
        let sf: SingleFlight<u32> = SingleFlight::default();
        let a = join(&sf, 7, "{\"asm\":\"add\"}", 1).expect("a opens");
        let b = join(&sf, 7, "{\"asm\":\"sub\"}", 2).expect("b opens despite the shared hash");
        assert_ne!(a, b);
        assert_eq!(sf.len(), 2);
        assert_eq!(join(&sf, 7, "{\"asm\":\"sub\"}", 3), None);
        assert_eq!(join(&sf, 7, "{\"asm\":\"add\"}", 4), None);
        assert_eq!(join(&sf, 7, "{\"asm\":\"sub\"}", 5), None);
        assert_eq!(sf.finish(b), vec![3, 5]);
        assert_eq!(sf.len(), 1);
        assert_eq!(join(&sf, 7, "{\"asm\":\"add\"}", 6), None);
        assert_eq!(sf.finish(a), vec![4, 6]);
        assert!(sf.is_empty());
    }

    #[test]
    fn a_refused_enqueue_removes_the_flight_entry() {
        let sf: SingleFlight<u32> = SingleFlight::default();
        let held = join(&sf, 3, "held", 0).expect("opens");
        match sf.join_or_open(3, "k".to_string(), 1, |_| Err::<(), &str>("full")) {
            FlightOutcome::Refused("full") => {}
            _ => panic!("expected Refused"),
        }
        assert_eq!(sf.len(), 1, "only the refused flight is removed");
        // The key is immediately usable again.
        let k = join(&sf, 3, "k", 2).expect("the key opens again");
        assert_eq!(sf.finish(k), Vec::<u32>::new());
        assert_eq!(sf.finish(held), Vec::<u32>::new());
        assert!(sf.is_empty());
    }

    #[test]
    fn stage_queue_survives_a_poisoned_lock() {
        let q: Arc<StageQueue<u32>> = Arc::new(StageQueue::new(4));
        let q2 = Arc::clone(&q);
        let _ = std::thread::spawn(move || {
            let _guard = q2.inner.lock().unwrap();
            panic!("poison the stage lock");
        })
        .join();
        assert!(q.try_push(7).is_ok());
        assert_eq!(q.pop(), Some(7));
    }
}
