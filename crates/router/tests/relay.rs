//! The router relays a shard's `Response` payload byte for byte and
//! forwards a client's payload as it arrived, and its replication rule
//! reads `stats.cache_misses` from the relayed reply: a primary hit
//! queues nothing, a primary miss queues exactly one write, for the
//! key's ring successor. Its failover ladder carries every request past
//! a primary that refuses dials, however many requests there are.
//!
//! The shards are stand-ins — threads on unix sockets that answer
//! request frames with fixed payloads — so the bytes under test are
//! ones no `ScheduleResponse` encoder would produce.

#![cfg(unix)]

use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dagsched_proto::json::Json;
use dagsched_proto::{read_frame, write_frame, FrameKind, ScheduleResponse, DEFAULT_MAX_FRAME};
use dagsched_router::{routing_key, serve_router, Ring, RouterConfig};
use dagsched_service::server::Listen;
use dagsched_service::ScheduleRequest;

/// A hit reply with whitespace and field orders of its own.
const HIT: &[u8] = concat!(
    r#"{ "degraded": false, "stats": {"cache_misses": 0, "cache_hits": 1},"#,
    r#" "insns": ["nop"], "blocks": [] }"#
)
.as_bytes();

/// The same shape, reporting three fresh compiles.
const MISS: &[u8] = concat!(
    r#"{ "degraded": false, "stats": {"cache_misses": 3, "cache_hits": 0},"#,
    r#" "insns": ["nop"], "blocks": [] }"#
)
.as_bytes();

/// A shard stand-in: answers pings, and answers every request frame
/// with [`MISS`] when its payload mentions `miss`, [`HIT`] otherwise.
/// Every request payload it receives is logged.
struct StandIn {
    endpoint: String,
    path: PathBuf,
    log: Arc<Mutex<Vec<Vec<u8>>>>,
    stop: Arc<AtomicBool>,
    thread: JoinHandle<()>,
}

impl StandIn {
    fn start(path: &Path) -> StandIn {
        let listener = UnixListener::bind(path).expect("bind stand-in");
        let log = Arc::new(Mutex::new(Vec::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let (thread_log, thread_stop) = (Arc::clone(&log), Arc::clone(&stop));
        let thread = std::thread::spawn(move || {
            for conn in listener.incoming() {
                if thread_stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(conn) = conn else { continue };
                let log = Arc::clone(&thread_log);
                std::thread::spawn(move || answer(conn, &log));
            }
        });
        StandIn {
            endpoint: format!("unix:{}", path.display()),
            path: path.to_path_buf(),
            log,
            stop,
            thread,
        }
    }

    fn requests(&self) -> Vec<Vec<u8>> {
        self.log.lock().expect("log lock").clone()
    }

    fn stop(self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the accept loop so it sees the flag.
        let _ = UnixStream::connect(&self.path);
        self.thread.join().expect("stand-in accept loop");
    }
}

fn answer(mut conn: UnixStream, log: &Mutex<Vec<Vec<u8>>>) {
    while let Ok((kind, payload)) = read_frame(&mut conn, DEFAULT_MAX_FRAME) {
        let reply: (FrameKind, &[u8]) = match kind {
            FrameKind::Ping => (FrameKind::Pong, b"null"),
            FrameKind::Request => {
                let miss = payload.windows(4).any(|w| w == b"miss");
                log.lock().expect("log lock").push(payload);
                (FrameKind::Response, if miss { MISS } else { HIT })
            }
            _ => return,
        };
        if write_frame(&mut conn, reply.0, reply.1).is_err() {
            return;
        }
    }
}

fn wait_for(cond: impl Fn() -> bool, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// One request frame from a raw client socket; the reply payload as it
/// came off the wire.
fn roundtrip(conn: &mut UnixStream, payload: &[u8]) -> Vec<u8> {
    write_frame(conn, FrameKind::Request, payload).expect("send request");
    let (kind, reply) = read_frame(conn, DEFAULT_MAX_FRAME).expect("read reply");
    assert_eq!(
        kind,
        FrameKind::Response,
        "{}",
        String::from_utf8_lossy(&reply)
    );
    reply
}

#[test]
fn shard_replies_are_relayed_byte_for_byte_and_only_misses_replicate() {
    // The fixed payloads must not be what the router would produce by
    // decoding and re-encoding them, or relaying proves nothing.
    for fixed in [HIT, MISS] {
        let value = Json::parse(std::str::from_utf8(fixed).expect("utf-8")).expect("JSON");
        let reencoded = ScheduleResponse::from_json(&value)
            .expect("a decodable response")
            .to_json()
            .to_string();
        assert_ne!(reencoded.as_bytes(), fixed);
    }

    let dir = std::env::temp_dir().join(format!("dagsched-relay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test dir");
    let shards = [
        StandIn::start(&dir.join("a.sock")),
        StandIn::start(&dir.join("b.sock")),
    ];
    let endpoints: Vec<String> = shards.iter().map(|s| s.endpoint.clone()).collect();
    let router = serve_router(
        Listen::Unix(dir.join("router.sock")),
        RouterConfig {
            shards: endpoints.clone(),
            health_check_ms: 100,
            ..RouterConfig::default()
        },
    )
    .expect("bind router");
    let counter = |name: &str| {
        router
            .metrics()
            .get(name)
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("router metrics missing {name}"))
    };
    let ring = Ring::with_members(endpoints.iter().map(String::as_str));
    let stand_in = |endpoint: &str| {
        shards
            .iter()
            .find(|s| s.endpoint == endpoint)
            .expect("a ring member is a stand-in")
    };

    let mut client = UnixStream::connect(dir.join("router.sock")).expect("connect router");
    client
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("socket timeout");

    // A hit: relayed as-is, and the client's own bytes (extra spaces
    // included) reach the primary as-is.
    let hit_payload = br#"{ "asm": "nop",  "machine": "sparc2" }"#;
    let hit_req = ScheduleRequest::asm("nop");
    let hit_primary = ring.replicas(routing_key(&hit_req).1, 2)[0].to_string();
    assert_eq!(roundtrip(&mut client, hit_payload), HIT);
    assert_eq!(
        stand_in(&hit_primary).requests(),
        vec![hit_payload.to_vec()]
    );

    // A miss: relayed as-is, and replicated once to the ring successor.
    let miss_payload = br#"{"asm": "miss"}"#;
    let miss_req = ScheduleRequest::asm("miss");
    let replicas = ring.replicas(routing_key(&miss_req).1, 2);
    let (miss_primary, successor) = (replicas[0].to_string(), replicas[1].to_string());
    assert_eq!(roundtrip(&mut client, miss_payload), MISS);
    assert!(stand_in(&miss_primary)
        .requests()
        .contains(&miss_payload.to_vec()));

    // The replicator works its queue in order and waits for each reply,
    // so once the miss's copy reached the successor, a replication of
    // the hit (had one been queued) was delivered before it.
    let mentions_miss = |p: &Vec<u8>| p.windows(4).any(|w| w == b"miss");
    wait_for(
        || stand_in(&successor).requests().iter().any(mentions_miss),
        "the miss to reach its ring successor",
    );
    wait_for(
        || counter("replication_writes") >= 1,
        "the replication write to be counted",
    );
    let received: usize = shards.iter().map(|s| s.requests().len()).sum();
    assert_eq!(
        received, 3,
        "two forwards and one replication write, nothing for the hit"
    );
    assert_eq!(counter("replication_writes"), 1);
    assert_eq!(counter("replication_dropped"), 0);
    assert_eq!(counter("responses"), 2);
    assert_eq!(counter("hedged_requests"), 0);

    drop(client);
    router.begin_drain();
    router.join();
    for shard in shards {
        shard.stop();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The failover ladder is the router's only retry, and nothing rations
/// it: while a key's primary refuses every dial (its breaker held
/// closed), each request fails over to the live replica and is
/// answered, however many arrive in a row.
#[test]
fn every_request_to_a_refusing_primary_fails_over_to_the_live_replica() {
    let dir = std::env::temp_dir().join(format!("dagsched-refused-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test dir");
    // A socket file with no listener behind it: every dial is refused.
    let refused_path = dir.join("refused.sock");
    drop(UnixListener::bind(&refused_path).expect("bind the refusing socket"));
    let refused = format!("unix:{}", refused_path.display());
    let live = StandIn::start(&dir.join("live.sock"));
    let endpoints = vec![refused.clone(), live.endpoint.clone()];
    let router = serve_router(
        Listen::Unix(dir.join("router.sock")),
        RouterConfig {
            shards: endpoints.clone(),
            // Far past the dial and probe failures this test causes:
            // the refusing shard stays up, so every ladder starts there.
            fail_threshold: 1_000,
            ..RouterConfig::default()
        },
    )
    .expect("bind router");
    let counter = |name: &str| {
        router
            .metrics()
            .get(name)
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("router metrics missing {name}"))
    };

    let ring = Ring::with_members(endpoints.iter().map(String::as_str));
    let requests: Vec<ScheduleRequest> = (0..)
        .map(|i| ScheduleRequest::asm(format!("nop {i}")))
        .filter(|req| ring.primary(routing_key(req).1) == Some(refused.as_str()))
        .take(30)
        .collect();
    let mut client = UnixStream::connect(dir.join("router.sock")).expect("connect router");
    client
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("socket timeout");
    for req in &requests {
        let payload = req.to_json().to_string();
        assert_eq!(roundtrip(&mut client, payload.as_bytes()), HIT);
    }
    assert_eq!(live.requests().len(), requests.len());
    assert_eq!(counter("failovers"), requests.len() as u64);
    assert_eq!(counter("errors"), 0);

    drop(client);
    router.begin_drain();
    router.join();
    live.stop();
    let _ = std::fs::remove_dir_all(&dir);
}
