//! End-to-end cluster tests: routed replies are bit-identical to a
//! direct daemon, a shard death mid-load is invisible to clients, and
//! warm-spare promotion ships a snapshot before ring ownership.

use std::path::{Path, PathBuf};
use std::time::Duration;

use dagsched_proto::{hex_decode, AdminCommand};
use dagsched_router::{routing_key, serve_router, Ring, RouterConfig, RouterHandle};
use dagsched_service::client::{Client, RetryPolicy};
use dagsched_service::server::{serve, Listen, ServerConfig};
use dagsched_service::{ScheduleRequest, ServerHandle};
use dagsched_workloads::PAPER_SEED;

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dagsched-cluster-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}

fn spawn_shard(sock: &Path) -> ServerHandle {
    serve(
        Listen::Unix(sock.to_path_buf()),
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .expect("bind shard")
}

fn spawn_router(sock: &Path, shards: Vec<String>) -> RouterHandle {
    serve_router(
        Listen::Unix(sock.to_path_buf()),
        RouterConfig {
            shards,
            health_check_ms: 100,
            ..RouterConfig::default()
        },
    )
    .expect("bind router")
}

fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        max_retries: 4,
        base_delay: Duration::from_millis(5),
        max_delay: Duration::from_millis(50),
        ..RetryPolicy::default()
    }
}

/// The request mix used by every test: distinct profiles and seeds so
/// keys spread over the ring.
fn request_mix() -> Vec<ScheduleRequest> {
    let mut reqs = Vec::new();
    for profile in ["grep", "regex", "tomcatv"] {
        for seed in [PAPER_SEED, PAPER_SEED + 1] {
            reqs.push(ScheduleRequest::profile(profile, seed));
        }
    }
    reqs
}

/// ISSUE acceptance: every reply served through the router is
/// bit-identical to the same request served by a standalone daemon.
#[test]
fn routed_replies_are_bit_identical_to_a_direct_daemon() {
    let dir = test_dir("identity");
    let shard_socks: Vec<PathBuf> = (0..3)
        .map(|i| dir.join(format!("shard-{i}.sock")))
        .collect();
    let shards: Vec<ServerHandle> = shard_socks.iter().map(|p| spawn_shard(p)).collect();
    let direct_sock = dir.join("direct.sock");
    let direct = spawn_shard(&direct_sock);
    let router = spawn_router(
        &dir.join("router.sock"),
        shard_socks
            .iter()
            .map(|p| format!("unix:{}", p.display()))
            .collect(),
    );

    let mut via_router = Client::connect(&router.endpoint()).expect("connect router");
    let mut via_direct = Client::connect(&direct.endpoint()).expect("connect direct");
    for req in request_mix() {
        // Twice through the router: the second pass must be a cache
        // hit on the same shard (stable placement).
        let first = via_router.request(&req).expect("routed request");
        let second = via_router.request(&req).expect("routed repeat");
        let reference = via_direct.request(&req).expect("direct request");
        assert_eq!(first.insns, reference.insns, "routed != direct");
        assert_eq!(second.insns, reference.insns);
        assert!(
            second.stats.cache_hits > 0,
            "repeat of an identical request missed the shard cache: \
             placement is not stable"
        );
    }

    let metrics = router.metrics();
    assert_eq!(metrics.get("no_live_shard").unwrap().as_u64(), Some(0));
    assert!(metrics.get("responses").unwrap().as_u64().unwrap() >= 12);

    // Drop the clients first so the router's connection threads see
    // EOF instead of idling out their read timeout during the drain.
    drop(via_router);
    drop(via_direct);
    router.begin_drain();
    router.join();
    for s in shards {
        s.begin_drain();
        s.join();
    }
    direct.begin_drain();
    direct.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// ISSUE satellite: kill one shard mid-load and restart it — the
/// retrying client sees zero errors end to end (failover absorbs the
/// death, the prober re-admits the restart).
#[test]
fn a_shard_death_and_restart_is_invisible_to_clients() {
    let dir = test_dir("failover");
    let shard_socks: Vec<PathBuf> = (0..3)
        .map(|i| dir.join(format!("shard-{i}.sock")))
        .collect();
    let mut shards: Vec<Option<ServerHandle>> =
        shard_socks.iter().map(|s| Some(spawn_shard(s))).collect();
    let endpoints: Vec<String> = shard_socks
        .iter()
        .map(|p| format!("unix:{}", p.display()))
        .collect();
    let router = spawn_router(&dir.join("router.sock"), endpoints.clone());

    let policy = fast_retry();
    let mut client = Client::connect(&router.endpoint()).expect("connect router");
    let mix = request_mix();

    // Warm the cluster and record the reference replies.
    let mut reference = Vec::new();
    for req in &mix {
        let (resp, _) = client.request_with_retry(req, &policy).expect("warm-up");
        reference.push(resp.insns);
    }

    // The victim is the primary of the first request's key. Ring
    // points hash the socket paths, which carry the process id, so a
    // fixed shard index would own none of the mix's keys in some runs.
    let ring = Ring::with_members(endpoints.iter().map(String::as_str));
    let victim_ep = ring
        .primary(routing_key(&mix[0]).1)
        .expect("ring has members");
    let v = endpoints
        .iter()
        .position(|ep| ep == victim_ep)
        .expect("primary is a member");

    // Kill the victim the hard way mid-load: drop its handle without a
    // drain, so its socket answers connection-refused from here on.
    let victim = shards[v].take().expect("victim alive");
    victim.begin_drain();
    victim.join();

    // Every request keeps succeeding, bit-identically, while the ring
    // still names the dead shard.
    for round in 0..4 {
        for (i, req) in mix.iter().enumerate() {
            let (resp, _) = client
                .request_with_retry(req, &policy)
                .unwrap_or_else(|e| panic!("round {round} request {i} failed: {e}"));
            assert_eq!(resp.insns, reference[i], "failover changed a reply");
        }
    }

    // Restart the shard on the same socket; the prober re-admits it
    // and traffic keeps flowing.
    shards[v] = Some(spawn_shard(&shard_socks[v]));
    std::thread::sleep(Duration::from_millis(400));
    for (i, req) in mix.iter().enumerate() {
        let (resp, _) = client
            .request_with_retry(req, &policy)
            .unwrap_or_else(|e| panic!("post-restart request {i} failed: {e}"));
        assert_eq!(resp.insns, reference[i]);
    }

    let metrics = router.metrics();
    let failovers = metrics.get("failovers").unwrap().as_u64().unwrap();
    let rerouted = metrics.get("rerouted").unwrap().as_u64().unwrap();
    assert!(
        failovers + rerouted > 0,
        "the dead shard owned at least one key, so some request must \
         have failed over or rerouted"
    );

    drop(client);
    router.begin_drain();
    router.join();
    for s in shards.into_iter().flatten() {
        s.begin_drain();
        s.join();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Snapshot shipping between two daemons directly: export from a warm
/// donor, install on a cold joiner, and the joiner's first request is
/// a cache hit.
#[test]
fn a_snapshot_round_trip_warms_a_cold_daemon() {
    let dir = test_dir("shipping");
    let donor = spawn_shard(&dir.join("donor.sock"));
    let joiner = spawn_shard(&dir.join("joiner.sock"));

    let mut donor_client = Client::connect(&donor.endpoint()).expect("connect donor");
    let req = ScheduleRequest::profile("grep", PAPER_SEED);
    let reference = donor_client.request(&req).expect("warm the donor");

    let exported = donor_client
        .admin(&AdminCommand::SnapshotExport)
        .expect("snapshot export");
    let entries = exported.get("entries").unwrap().as_u64().unwrap();
    assert!(entries > 0, "a warm donor exports at least one entry");
    let shipment = exported
        .get("shipment")
        .and_then(|v| v.as_str())
        .and_then(hex_decode)
        .expect("decodable shipment");

    let mut joiner_client = Client::connect(&joiner.endpoint()).expect("connect joiner");
    let installed = joiner_client
        .admin(&AdminCommand::SnapshotInstall { shipment })
        .expect("snapshot install");
    assert_eq!(
        installed.get("installed").unwrap().as_u64(),
        Some(entries),
        "every exported entry installs on a cold daemon"
    );

    // The joiner serves the donor's working set from cache.
    let resp = joiner_client.request(&req).expect("joiner request");
    assert_eq!(resp.insns, reference.insns);
    assert!(
        resp.stats.cache_hits > 0,
        "the shipped snapshot should make this a cache hit"
    );

    drop(donor_client);
    drop(joiner_client);
    donor.begin_drain();
    donor.join();
    joiner.begin_drain();
    joiner.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// ISSUE acceptance (warm-spare promotion): `add-shard` through the
/// router ships a snapshot from a live donor to the joiner *before*
/// ring ownership, and reports > 0 entries recovered.
#[test]
fn add_shard_promotes_a_warm_spare_via_snapshot_shipping() {
    let dir = test_dir("promotion");
    let shard_socks: Vec<PathBuf> = (0..2)
        .map(|i| dir.join(format!("shard-{i}.sock")))
        .collect();
    let shards: Vec<ServerHandle> = shard_socks.iter().map(|p| spawn_shard(p)).collect();
    // Only shard 0 starts in the ring; shard 1 is the warm spare.
    let router = spawn_router(
        &dir.join("router.sock"),
        vec![format!("unix:{}", shard_socks[0].display())],
    );

    let mut client = Client::connect(&router.endpoint()).expect("connect router");
    for req in request_mix() {
        client.request(&req).expect("warm the cluster");
    }

    let spare = format!("unix:{}", shard_socks[1].display());
    let reply = client
        .admin(&AdminCommand::AddShard {
            endpoint: spare.clone(),
        })
        .expect("add-shard");
    assert_eq!(reply.get("ok").unwrap().as_bool(), Some(true));
    let installed = reply.get("installed").unwrap().as_u64().unwrap();
    assert!(
        installed > 0,
        "warm-spare promotion must recover > 0 entries before traffic"
    );

    // The ring now has both members and routed traffic still matches.
    let status = client.admin(&AdminCommand::Status).expect("status");
    let members = status.get("members").unwrap().as_arr().unwrap();
    assert_eq!(members.len(), 2);

    for req in request_mix() {
        let resp = client.request(&req).expect("post-join request");
        assert!(
            resp.stats.cache_hits > 0,
            "post-join requests hit either the old shard's cache or \
             the shipped snapshot"
        );
    }
    let metrics = router.metrics();
    assert_eq!(
        metrics.get("warm_spare_entries_shipped").unwrap().as_u64(),
        Some(installed)
    );
    assert_eq!(metrics.get("shards_added").unwrap().as_u64(), Some(1));

    // Removing the original shard leaves the joiner serving everything.
    let removed = client
        .admin(&AdminCommand::RemoveShard {
            endpoint: format!("unix:{}", shard_socks[0].display()),
        })
        .expect("remove-shard");
    assert_eq!(removed.get("ok").unwrap().as_bool(), Some(true));
    for req in request_mix() {
        client.request(&req).expect("request after remove-shard");
    }

    drop(client);
    router.begin_drain();
    router.join();
    for s in shards {
        s.begin_drain();
        s.join();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Losing every replica of a key degrades to a reroute (cache miss on
/// a foreign shard), never an error; losing *every* shard yields a
/// retryable `busy`, and recovery is automatic.
#[test]
fn total_replica_loss_degrades_to_reroute_not_error() {
    let dir = test_dir("degrade");
    let shard_socks: Vec<PathBuf> = (0..3)
        .map(|i| dir.join(format!("shard-{i}.sock")))
        .collect();
    let mut shards: Vec<Option<ServerHandle>> =
        shard_socks.iter().map(|s| Some(spawn_shard(s))).collect();
    let router = spawn_router(
        &dir.join("router.sock"),
        shard_socks
            .iter()
            .map(|p| format!("unix:{}", p.display()))
            .collect(),
    );

    let policy = fast_retry();
    let mut client = Client::connect(&router.endpoint()).expect("connect router");
    let req = ScheduleRequest::profile("grep", PAPER_SEED);
    let (reference, _) = client.request_with_retry(&req, &policy).expect("warm-up");

    // Kill two of three shards: whatever this key's R=2 replica set
    // was, at most one of its members survives — and for many keys
    // none does, exercising the reroute rung.
    for slot in shards.iter_mut().take(2) {
        let victim = slot.take().unwrap();
        victim.begin_drain();
        victim.join();
    }
    for req in request_mix() {
        let (resp, _) = client
            .request_with_retry(&req, &policy)
            .expect("one live shard still serves everything");
        assert!(!resp.insns.is_empty());
    }
    let (resp, _) = client.request_with_retry(&req, &policy).expect("degraded");
    assert_eq!(resp.insns, reference.insns);

    drop(client);
    router.begin_drain();
    router.join();
    for s in shards.into_iter().flatten() {
        s.begin_drain();
        s.join();
    }
    let _ = std::fs::remove_dir_all(&dir);
}
