//! Gray-failure tests: the router behind netchaos proxies. An
//! asymmetric partition on the router→shard direction must fail over
//! within the deadline, open the victim's breaker on evidence, and
//! never duplicate a reply; healing must walk the breaker through
//! half-open trials; a slow-but-alive primary must lose the hedge race
//! while its breaker stays closed.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use dagsched_netchaos::{serve_proxy, ChaosConfig, Direction, ProxyHandle};
use dagsched_proto::json::Json;
use dagsched_router::{routing_key, serve_router, Ring, RouterConfig, RouterHandle};
use dagsched_service::client::Client;
use dagsched_service::server::{serve, Listen, ServerConfig};
use dagsched_service::{ScheduleRequest, ServerHandle};
use dagsched_workloads::PAPER_SEED;

const SHARDS: usize = 3;

struct ChaosCluster {
    dir: PathBuf,
    shards: Vec<ServerHandle>,
    proxies: Vec<ProxyHandle>,
    router: RouterHandle,
    /// The proxy endpoints, in ring order (what the router was given).
    endpoints: Vec<String>,
}

impl ChaosCluster {
    fn start(tag: &str) -> ChaosCluster {
        let dir =
            std::env::temp_dir().join(format!("dagsched-netchaos-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create test dir");

        let mut shards = Vec::new();
        let mut proxies = Vec::new();
        let mut endpoints = Vec::new();
        for i in 0..SHARDS {
            let shard_sock = dir.join(format!("shard-{i}.sock"));
            shards.push(
                serve(
                    Listen::Unix(shard_sock.clone()),
                    ServerConfig {
                        workers: 2,
                        ..ServerConfig::default()
                    },
                )
                .expect("bind shard"),
            );
            let proxy = serve_proxy(
                &format!("unix:{}", dir.join(format!("proxy-{i}.sock")).display()),
                &format!("unix:{}", shard_sock.display()),
                ChaosConfig::quiet(0x6E63 + i as u64),
            )
            .expect("bind proxy");
            endpoints.push(proxy.endpoint().to_string());
            proxies.push(proxy);
        }

        // Snappy timeouts so a blackholed forward is abandoned fast
        // enough to observe failover within the test deadline.
        let router = serve_router(
            Listen::Unix(dir.join("router.sock")),
            RouterConfig {
                shards: endpoints.clone(),
                fail_threshold: 3,
                revive_threshold: 3,
                health_check_ms: 100,
                shard_timeout: Duration::from_millis(750),
                ..RouterConfig::default()
            },
        )
        .expect("bind router");

        ChaosCluster {
            dir,
            shards,
            proxies,
            router,
            endpoints,
        }
    }

    /// Index of the proxy that is `req`'s primary under the router's
    /// ring (same members, same hash).
    fn primary_index(&self, req: &ScheduleRequest) -> usize {
        let ring = Ring::with_members(self.endpoints.iter().map(String::as_str));
        let (_, key) = routing_key(req);
        let primary = ring.primary(key).expect("ring has members").to_string();
        self.endpoints
            .iter()
            .position(|e| *e == primary)
            .expect("primary is one of ours")
    }

    /// Breaker state string for the shard behind proxy `idx`, straight
    /// from the router's metrics snapshot.
    fn breaker_of(&self, idx: usize) -> String {
        let snap = self.router.metrics();
        let shards = snap
            .get("shards")
            .and_then(Json::as_arr)
            .expect("metrics carry per-shard gauges");
        let entry = shards
            .iter()
            .find(|s| s.get("endpoint").and_then(Json::as_str) == Some(&self.endpoints[idx]))
            .expect("shard present in metrics");
        entry
            .get("breaker")
            .and_then(Json::as_str)
            .expect("breaker gauge present")
            .to_string()
    }

    fn counter(&self, name: &str) -> u64 {
        self.router
            .metrics()
            .get(name)
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("router metrics missing {name}"))
    }

    /// Wait until no shard's request counters move for a second (a
    /// hedge loser may still be crossing a slow proxy), then check the
    /// accounting identity `requests == responses + errors` on each.
    fn assert_quiet_shards_balance(&self) {
        let counts = || -> Vec<[u64; 3]> {
            self.shards
                .iter()
                .map(|s| {
                    let m = s.metrics();
                    ["requests", "responses", "errors"].map(|k| {
                        m.get(k)
                            .and_then(Json::as_u64)
                            .unwrap_or_else(|| panic!("shard metrics missing {k}"))
                    })
                })
                .collect()
        };
        let deadline = Instant::now() + Duration::from_secs(15);
        let mut last = counts();
        loop {
            std::thread::sleep(Duration::from_secs(1));
            let now = counts();
            if now == last {
                break;
            }
            assert!(Instant::now() < deadline, "shards never went quiet");
            last = now;
        }
        for (i, [requests, responses, errors]) in last.into_iter().enumerate() {
            assert_eq!(
                requests,
                responses + errors,
                "shard {i}: requests {requests}, responses {responses}, errors {errors}"
            );
        }
    }

    fn wait_for<F: Fn() -> bool>(cond: F, what: &str) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(25));
        }
    }

    fn teardown(self) {
        self.router.begin_drain();
        self.router.join();
        for p in self.proxies {
            p.shutdown();
        }
        for s in self.shards {
            s.begin_drain();
            s.join();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// ISSUE satellite: drop the router→shard direction mid-request. The
/// request still answers (bit-identically) within the deadline, the
/// victim's breaker opens on probe evidence, no reply is duplicated,
/// and healing revives the shard only after half-open trials.
#[test]
fn an_asymmetric_partition_fails_over_and_the_breaker_half_opens_back() {
    let cluster = ChaosCluster::start("partition");
    let mut client = Client::connect(&cluster.router.endpoint()).expect("connect router");
    client.set_io_timeout(Some(Duration::from_secs(20)));
    let req = ScheduleRequest::profile("grep", PAPER_SEED);
    let mut sent = 0u64;

    let reference = client.request(&req).expect("healthy warm-up");
    sent += 1;

    // Cut the request direction to the primary: its replies still flow
    // but nothing the router sends arrives — the nastiest gray failure,
    // since the link "looks" half alive.
    let primary = cluster.primary_index(&req);
    cluster.proxies[primary].set_partition(Direction::ClientToUpstream, true);

    let started = Instant::now();
    let resp = client.request(&req).expect("partitioned request answers");
    sent += 1;
    assert_eq!(resp.insns, reference.insns, "failover changed the reply");
    assert!(
        started.elapsed() < Duration::from_secs(8),
        "failover must beat the deadline, took {:?}",
        started.elapsed()
    );

    // The probes run through the same dead direction: evidence piles up
    // and the breaker opens without any more live traffic.
    ChaosCluster::wait_for(
        || cluster.breaker_of(primary) == "open",
        "the partitioned shard's breaker to open",
    );

    // With the breaker open the ladder skips the primary outright.
    for _ in 0..3 {
        let resp = client.request(&req).expect("request while breaker open");
        sent += 1;
        assert_eq!(resp.insns, reference.insns);
    }
    assert!(
        cluster.counter("failovers") + cluster.counter("hedge_wins") >= 1,
        "the partition must be absorbed by a failover or a hedge win"
    );

    // Exactly one reply per request made it back (a duplicated reply
    // would desync the stream and break the next roundtrip).
    assert_eq!(
        cluster.counter("responses"),
        sent,
        "duplicated or lost replies"
    );
    client.ping().expect("stream still framed correctly");

    // Heal the link. One probe success only half-opens the breaker;
    // `revive_threshold` consecutive successes close it.
    cluster.proxies[primary].set_partition(Direction::ClientToUpstream, false);
    ChaosCluster::wait_for(
        || cluster.breaker_of(primary) == "closed",
        "the healed shard's breaker to close",
    );
    assert!(
        cluster.counter("breaker_half_open") >= 1,
        "revival must pass through half-open"
    );
    assert!(cluster.counter("breaker_closed") >= 1);

    let resp = client.request(&req).expect("request after revival");
    assert_eq!(resp.insns, reference.insns);

    drop(client);
    cluster.teardown();
}

/// A primary that suddenly answers slowly — but *is* up — loses the
/// hedge race to its replica while its breaker stays closed: the
/// latency-aware path handles what binary health cannot see.
#[test]
fn a_slow_primary_loses_the_hedge_race_with_its_breaker_closed() {
    let cluster = ChaosCluster::start("hedge");
    let mut client = Client::connect(&cluster.router.endpoint()).expect("connect router");
    client.set_io_timeout(Some(Duration::from_secs(20)));
    let req = ScheduleRequest::profile("regex", PAPER_SEED);
    let primary = cluster.primary_index(&req);

    let reference = client.request(&req).expect("warm-up compile");
    // Warm the primary's latency window past the quantile's minimum
    // sample count: cache hits are fast, so the hedge delay collapses
    // to its lower clamp.
    for _ in 0..12 {
        let resp = client.request(&req).expect("window warm-up");
        assert_eq!(resp.insns, reference.insns);
    }

    // Make the primary slow (300ms per hop) without breaking it.
    cluster.proxies[primary].set_extra_latency_ms(300);

    let deadline = Instant::now() + Duration::from_secs(15);
    while cluster.counter("hedge_wins") == 0 {
        assert!(
            Instant::now() < deadline,
            "no hedge win after repeated slow-primary requests; \
             hedged={} wins={}",
            cluster.counter("hedged_requests"),
            cluster.counter("hedge_wins"),
        );
        let resp = client.request(&req).expect("slow-primary request");
        assert_eq!(resp.insns, reference.insns, "hedged reply differs");
    }
    assert!(cluster.counter("hedged_requests") >= 1);
    // Slow is not down: the breaker never tripped for latency alone.
    assert_eq!(
        cluster.breaker_of(primary),
        "closed",
        "a merely-slow shard must keep its breaker closed"
    );

    cluster.proxies[primary].set_extra_latency_ms(0);
    drop(client);
    // The router writes every request frame whole before it waits or
    // races, so the hedge loser's shard answers a request nobody reads
    // instead of counting a frame cut off mid-write as an error.
    cluster.assert_quiet_shards_balance();
    cluster.teardown();
}
