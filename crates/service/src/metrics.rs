//! Server-side counters, exported over the `Metrics` frame.

use std::sync::atomic::{AtomicU64, Ordering};

use dagsched_store::StoreHealth;

use crate::cache::CacheStats;
use crate::json::Json;

/// Monotonic counters maintained by the server (all relaxed: they are
/// statistics, not synchronization).
#[derive(Debug, Default)]
pub struct Metrics {
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Schedule requests received.
    pub requests: AtomicU64,
    /// Successful responses sent.
    pub responses: AtomicU64,
    /// Error replies sent (any code).
    pub errors: AtomicU64,
    /// Connections rejected with `busy` because the queue was full.
    pub busy_rejections: AtomicU64,
    /// Requests rejected because the server was draining.
    pub drain_rejections: AtomicU64,
    /// Requests that hit their deadline.
    pub deadline_expirations: AtomicU64,
    /// Worker panics contained by the supervisor (each became a typed
    /// `internal` reply instead of a dead worker).
    pub panics_caught: AtomicU64,
    /// Workers rebuilt with a fresh arena after a contained panic.
    pub workers_respawned: AtomicU64,
    /// Requests refused with `quarantined` because the same payload had
    /// already crashed too many workers.
    pub requests_quarantined: AtomicU64,
    /// Responses served from a degraded rung of the cost ladder.
    pub degraded_replies: AtomicU64,
    /// Client retry attempts observed (requests carrying `attempt > 0`).
    pub retries_attempted: AtomicU64,
    /// Load-shedding rejections that carried a `retry_after_ms` hint.
    pub shed_with_retry_after: AtomicU64,
    /// Cache entries rehydrated from the store at startup (set once
    /// during recovery).
    pub recovered_entries: AtomicU64,
    /// Torn/corrupt WAL records truncated plus snapshot files rejected
    /// during the startup recovery (set once).
    pub recovery_truncated_records: AtomicU64,
    /// Requests answered from another request's in-flight compile
    /// (single-flight coalescing): attached as followers, never
    /// compiled, bit-identical reply.
    pub coalesced_requests: AtomicU64,
    /// Connections closed with a typed `idle-timeout` error for
    /// stalling without a complete frame (slow-loris defence).
    pub idle_timeouts: AtomicU64,
    /// Jobs popped from the compile queue.
    pub batches_dispatched: AtomicU64,
    /// Requests carried by those pops. A worker pops one job at a time,
    /// so `batched_requests / batches_dispatched` reads 1.0.
    pub batched_requests: AtomicU64,
    /// Queued requests shed with `deadline-expired` instead of being
    /// compiled after their deadline had already passed.
    pub shed_expired: AtomicU64,
}

/// NaN-safe ratio: `0.0` when the denominator is zero.
fn rate(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl Metrics {
    /// Increment a counter.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot every counter (plus the cache's, plus — when the
    /// daemon is persistent — the store's health) as a JSON object.
    /// `store` of `None` reports `"store": null`, distinguishing "not
    /// persistent" from "persistent but idle".
    pub fn snapshot(&self, cache: &CacheStats, store: Option<&StoreHealth>) -> Json {
        let g = |c: &AtomicU64| Json::from(c.load(Ordering::Relaxed));
        let store_json = match store {
            None => Json::Null,
            Some(h) => Json::obj(vec![
                ("wal_bytes", Json::from(h.wal_bytes)),
                ("snapshot_generation", Json::from(h.snapshot_generation)),
                ("fsync_count", Json::from(h.fsync_count)),
                ("appends", Json::from(h.appends)),
                ("compactions", Json::from(h.compactions)),
            ]),
        };
        Json::obj(vec![
            ("connections", g(&self.connections)),
            ("requests", g(&self.requests)),
            ("responses", g(&self.responses)),
            ("errors", g(&self.errors)),
            ("busy_rejections", g(&self.busy_rejections)),
            ("drain_rejections", g(&self.drain_rejections)),
            ("deadline_expirations", g(&self.deadline_expirations)),
            ("panics_caught", g(&self.panics_caught)),
            ("workers_respawned", g(&self.workers_respawned)),
            ("requests_quarantined", g(&self.requests_quarantined)),
            ("degraded_replies", g(&self.degraded_replies)),
            ("retries_attempted", g(&self.retries_attempted)),
            ("shed_with_retry_after", g(&self.shed_with_retry_after)),
            ("recovered_entries", g(&self.recovered_entries)),
            (
                "recovery_truncated_records",
                g(&self.recovery_truncated_records),
            ),
            ("coalesced_requests", g(&self.coalesced_requests)),
            ("idle_timeouts", g(&self.idle_timeouts)),
            ("batches_dispatched", g(&self.batches_dispatched)),
            ("batched_requests", g(&self.batched_requests)),
            ("shed_expired", g(&self.shed_expired)),
            ("store", store_json),
            (
                "panic_rate",
                Json::from(rate(
                    self.panics_caught.load(Ordering::Relaxed),
                    self.requests.load(Ordering::Relaxed),
                )),
            ),
            (
                "degraded_rate",
                Json::from(rate(
                    self.degraded_replies.load(Ordering::Relaxed),
                    self.responses.load(Ordering::Relaxed),
                )),
            ),
            (
                "cache",
                Json::obj(vec![
                    ("hits", Json::from(cache.hits)),
                    ("misses", Json::from(cache.misses)),
                    ("insertions", Json::from(cache.insertions)),
                    ("evictions", Json::from(cache.evictions)),
                    ("entries", Json::from(cache.entries)),
                    ("bytes", Json::from(cache.bytes)),
                    ("hit_rate", Json::from(cache.hit_rate())),
                ]),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reports_every_counter() {
        let m = Metrics::default();
        Metrics::bump(&m.requests);
        Metrics::bump(&m.requests);
        Metrics::bump(&m.responses);
        let snap = m.snapshot(
            &CacheStats {
                hits: 7,
                ..CacheStats::default()
            },
            None,
        );
        assert_eq!(snap.get("requests").unwrap().as_u64(), Some(2));
        assert_eq!(snap.get("responses").unwrap().as_u64(), Some(1));
        assert_eq!(
            snap.get("cache").unwrap().get("hits").unwrap().as_u64(),
            Some(7)
        );
    }

    #[test]
    fn store_health_is_null_without_persistence_and_full_with() {
        let m = Metrics::default();
        let snap = m.snapshot(&CacheStats::default(), None);
        assert!(matches!(snap.get("store"), Some(Json::Null)));

        let health = StoreHealth {
            wal_bytes: 4096,
            snapshot_generation: 3,
            fsync_count: 17,
            appends: 120,
            compactions: 2,
        };
        m.recovered_entries.store(55, Ordering::Relaxed);
        m.recovery_truncated_records.store(1, Ordering::Relaxed);
        let snap = m.snapshot(&CacheStats::default(), Some(&health));
        let store = snap.get("store").unwrap();
        assert_eq!(store.get("wal_bytes").unwrap().as_u64(), Some(4096));
        assert_eq!(store.get("snapshot_generation").unwrap().as_u64(), Some(3));
        assert_eq!(store.get("fsync_count").unwrap().as_u64(), Some(17));
        assert_eq!(store.get("compactions").unwrap().as_u64(), Some(2));
        assert_eq!(snap.get("recovered_entries").unwrap().as_u64(), Some(55));
        assert_eq!(
            snap.get("recovery_truncated_records").unwrap().as_u64(),
            Some(1)
        );
    }

    #[test]
    fn hit_rate_is_zero_not_nan_before_any_lookup() {
        let fresh = CacheStats::default();
        assert_eq!(fresh.hits + fresh.misses, 0);
        let rate = fresh.hit_rate();
        assert!(rate == 0.0 && !rate.is_nan(), "{rate}");

        // The snapshot serializes the same guarded value: a fresh
        // server's metrics frame must carry 0, never `null`/NaN.
        let snap = Metrics::default().snapshot(&fresh, None);
        assert_eq!(
            snap.get("cache").unwrap().get("hit_rate").unwrap().as_f64(),
            Some(0.0)
        );
    }

    #[test]
    fn hit_rate_covers_all_hit_all_miss_and_mixed() {
        let all_hits = CacheStats {
            hits: 5,
            ..CacheStats::default()
        };
        assert_eq!(all_hits.hit_rate(), 1.0);
        let all_misses = CacheStats {
            misses: 5,
            ..CacheStats::default()
        };
        assert_eq!(all_misses.hit_rate(), 0.0);
        let mixed = CacheStats {
            hits: 3,
            misses: 1,
            ..CacheStats::default()
        };
        assert_eq!(mixed.hit_rate(), 0.75);
    }

    #[test]
    fn untouched_counters_snapshot_as_zero() {
        let snap = Metrics::default().snapshot(&CacheStats::default(), None);
        for key in [
            "connections",
            "requests",
            "responses",
            "errors",
            "busy_rejections",
            "drain_rejections",
            "deadline_expirations",
            "panics_caught",
            "workers_respawned",
            "requests_quarantined",
            "degraded_replies",
            "retries_attempted",
            "shed_with_retry_after",
            "coalesced_requests",
            "idle_timeouts",
            "batches_dispatched",
            "batched_requests",
            "shed_expired",
        ] {
            assert_eq!(snap.get(key).unwrap().as_u64(), Some(0), "{key}");
        }
    }

    #[test]
    fn derived_rates_are_zero_not_nan_on_a_fresh_server() {
        let snap = Metrics::default().snapshot(&CacheStats::default(), None);
        for key in ["panic_rate", "degraded_rate"] {
            let v = snap.get(key).unwrap().as_f64().unwrap();
            assert!(v == 0.0 && !v.is_nan(), "{key}={v}");
        }
    }

    #[test]
    fn derived_rates_divide_the_right_counters() {
        let m = Metrics::default();
        for _ in 0..8 {
            Metrics::bump(&m.requests);
        }
        for _ in 0..4 {
            Metrics::bump(&m.responses);
        }
        for _ in 0..2 {
            Metrics::bump(&m.panics_caught);
        }
        Metrics::bump(&m.degraded_replies);
        let snap = m.snapshot(&CacheStats::default(), None);
        assert_eq!(snap.get("panic_rate").unwrap().as_f64(), Some(0.25));
        assert_eq!(snap.get("degraded_rate").unwrap().as_f64(), Some(0.25));
    }
}
