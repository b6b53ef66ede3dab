//! # dagsched-router — sharded serving for the scheduling daemon
//!
//! A std-only front-end that speaks the same length-prefixed wire
//! protocol as `dagsched-service` and fans requests out to N shard
//! daemons:
//!
//! - **Placement** ([`ring`]): a consistent-hash ring with virtual
//!   nodes over the request's content-addressed cache key, so the same
//!   request always lands on the same shard (hot caches) and
//!   membership changes move only ≈ 1/N of the key space.
//! - **Health** ([`shard`]): a per-shard circuit breaker
//!   (closed → open on a failure streak, open → half-open → closed
//!   through trial probes) plus a latency EWMA fed by probes and
//!   forwards, so gray failures — slow shards, flapping links — are
//!   scored, not just binary up/down.
//! - **Failover** ([`server`]): hedged primary (a forward that
//!   outlives the shard's recent latency quantile is raced against the
//!   next replica; first complete reply wins, the loser's connection
//!   is dropped) →
//!   replica set in ring order → any other live shard ordered by
//!   health score (`rerouted`, a cache miss rather than an error) →
//!   retryable `busy` only when nothing at all is live. This ladder is
//!   the router's only retry: each rung dials once and sends once.
//! - **Replication**: fresh compiles on a key's primary are re-issued
//!   asynchronously on its first ring successor (R = 2 by default), so
//!   losing the primary finds a warm replica.
//! - **Membership**: `add-shard` ships a generation-numbered snapshot
//!   (the PR-5 store's portable [`dagsched_store::Shipment`] encoding)
//!   from a live donor to the joiner *before* it takes ring ownership
//!   — warm-spare promotion — and `remove-shard` drops it with minimal
//!   remap.
//!
//! The router exposes the daemon's `Ping`/`Metrics`/`Shutdown` frames
//! plus the shared `Admin` frame for membership, so the existing
//! [`dagsched_service::client::Client`] talks to a router and a single
//! daemon interchangeably. Retry budgets live in the client only: the
//! client resends after a retryable error, the router only walks its
//! ladder.

pub mod ring;
pub mod server;
pub mod shard;

pub use ring::{fnv64, Ring, VNODES_PER_SHARD};
pub use server::{routing_key, serve_router, RouterConfig, RouterHandle};
pub use shard::{BreakerState, RouterMetrics, ShardState, Transition};
