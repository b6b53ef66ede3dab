//! # dagsched-service
//!
//! A long-running scheduling daemon for the `dagsched` workspace: the
//! paper's per-block pipeline behind a length-prefixed binary+JSON wire
//! protocol over TCP or Unix sockets. A single readiness-driven
//! reactor thread owns every socket and screens each request; screened
//! requests flow through one bounded compile queue (one reusable
//! `Scratch` arena per compile worker) with single-flight coalescing of
//! identical in-flight requests, a content-addressed schedule cache with LRU
//! eviction and a byte budget, per-request deadlines anchored at
//! arrival, explicit `busy` backpressure, and a SIGTERM-triggered
//! graceful drain.
//!
//! Entirely `std`: no async runtime, no serde, no external crates —
//! the workspace builds offline.
//!
//! * [`proto`] — frames, request/response payloads, typed error codes
//!   (re-exported from the shared `dagsched-proto` crate, which the
//!   cluster router consumes too).
//! * [`json`] — the minimal JSON value/parser/writer behind the
//!   payloads (also re-exported from `dagsched-proto`).
//! * [`cache`] — the content-addressed schedule cache
//!   ([`cache::ScheduleCache`]) plugged into the driver's `BlockCache`
//!   interposition point.
//! * [`engine`] — request execution (shared by the server and the load
//!   generator).
//! * [`reactor`] — the readiness-driven (nonblocking `poll(2)`) front
//!   end shared by the daemon and the cluster router.
//! * [`pipeline`] — bounded stage queues that pop one job at a time,
//!   plus single-flight compile coalescing.
//! * [`server`] — the daemon: reactor handler (request screening),
//!   compile workers, drain.
//! * [`client`] — a small blocking client.
//! * [`metrics`] — server counters.
//!
//! ```no_run
//! use dagsched_service::client::Client;
//! use dagsched_service::proto::ScheduleRequest;
//! use dagsched_service::server::{serve, Listen, ServerConfig};
//!
//! let handle = serve(
//!     Listen::Tcp("127.0.0.1:0".to_string()),
//!     ServerConfig::default(),
//! )
//! .unwrap();
//! let mut client = Client::connect(&handle.endpoint()).unwrap();
//! let resp = client
//!     .request(&ScheduleRequest::asm("add %o0, %o1, %o2"))
//!     .unwrap();
//! assert_eq!(resp.insns.len(), 1);
//! handle.begin_drain();
//! handle.join();
//! ```

pub mod cache;
pub mod client;
pub mod engine;
pub mod metrics;
pub mod persist;
pub mod pipeline;
pub mod reactor;
pub mod server;

// The wire protocol and its JSON codec live in the shared
// `dagsched-proto` crate (one framing implementation for daemon,
// client, and router); re-export them under the historical paths so
// `dagsched_service::proto::…` / `dagsched_service::json::…` keep
// working.
pub use dagsched_proto as proto;
pub use dagsched_proto::json;

pub use cache::{CacheConfig, CacheStats, ScheduleCache, MIN_ENTRY_COST};
pub use client::{Client, ClientError, RetryBudget, RetryPolicy, RetryStats};
pub use engine::{execute, EngineLimits};
pub use persist::{store_fingerprint, Persistence};
pub use proto::{
    ErrorCode, ErrorReply, FrameKind, ScheduleRequest, ScheduleResponse, DEFAULT_MAX_FRAME,
};
pub use server::{parse_endpoint, serve, Listen, ServerConfig, ServerHandle};

#[cfg(feature = "fault-injection")]
pub use faultinject::{Fault, FaultConfig};

#[cfg(feature = "fault-injection")]
pub mod faultinject;
