//! End-to-end tests for the scheduling daemon: concurrent determinism
//! against the serial driver, protocol robustness against malformed
//! input, typed limit errors, backpressure, and graceful drain.

use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

use dagsched_driver::{schedule_program_batch, DriverConfig, Limits, NoCache};
use dagsched_isa::MachineModel;
use dagsched_sched::{Scheduler, SchedulerKind};
use dagsched_service::json::Json;
use dagsched_service::proto::{
    read_frame, write_frame, ErrorReply, FrameKind, ScheduleResponse, DEFAULT_MAX_FRAME,
};
use dagsched_service::server::{serve, Listen, ServerConfig};
use dagsched_service::{CacheConfig, Client, ClientError, ErrorCode, ScheduleRequest};
use dagsched_workloads::{generate, BenchmarkProfile, PAPER_SEED};

fn tcp_server(config: ServerConfig) -> dagsched_service::ServerHandle {
    serve(Listen::Tcp("127.0.0.1:0".to_string()), config).expect("bind ephemeral TCP port")
}

/// What the serial, uncached, in-process driver emits for a profile
/// under the server's default configuration (warren, no inherit, no
/// delay-slot filling).
fn serial_reference(profile: &str, seed: u64) -> Vec<String> {
    let bench = generate(BenchmarkProfile::by_name(profile).unwrap(), seed);
    let model = MachineModel::sparc2();
    let config = DriverConfig {
        scheduler: Scheduler::new(SchedulerKind::Warren),
        ..DriverConfig::default()
    };
    let (result, _) = schedule_program_batch(
        &bench.program,
        &model,
        &config,
        1,
        &Limits::none(),
        &NoCache,
    )
    .expect("serial reference");
    result.insns.iter().map(|i| i.to_string()).collect()
}

/// ISSUE acceptance: responses produced by concurrent clients hammering
/// a warm-and-cold cache are bit-identical to the serial driver.
#[test]
fn concurrent_clients_match_the_serial_driver() {
    let handle = tcp_server(ServerConfig {
        workers: 4,
        ..ServerConfig::default()
    });
    let endpoint = handle.endpoint();
    let reference = serial_reference("grep", PAPER_SEED);

    let mut threads = Vec::new();
    for _ in 0..6 {
        let endpoint = endpoint.clone();
        threads.push(std::thread::spawn(move || {
            let mut client = Client::connect(&endpoint).expect("connect");
            let mut responses = Vec::new();
            for _ in 0..4 {
                let resp = client
                    .request(&ScheduleRequest::profile("grep", PAPER_SEED))
                    .expect("request");
                responses.push(resp);
            }
            responses
        }));
    }
    let mut total_hits = 0u64;
    for t in threads {
        for resp in t.join().expect("client thread") {
            assert_eq!(resp.insns, reference, "wire response != serial driver");
            total_hits += resp.stats.cache_hits;
        }
    }
    // 24 identical requests against one cache: the steady state is hits.
    assert!(total_hits > 0, "no cache hits across 24 identical requests");

    handle.begin_drain();
    handle.join();
}

fn raw_tcp(handle: &dagsched_service::ServerHandle) -> TcpStream {
    let addr = handle.local_addr().expect("tcp server has an address");
    let s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s
}

/// The accounting identity, read from a Metrics frame once every reply
/// has been read: each request was answered exactly once, by a response
/// or by a typed error.
fn assert_every_request_answered(handle: &dagsched_service::ServerHandle) {
    let m = Client::connect(&handle.endpoint())
        .expect("connect")
        .metrics()
        .expect("metrics frame");
    let count = |key: &str| {
        m.get(key)
            .and_then(|v| v.as_u64())
            .unwrap_or_else(|| panic!("metrics frame has no `{key}`"))
    };
    assert_eq!(
        count("requests"),
        count("responses") + count("errors"),
        "requests == responses + errors: {m}"
    );
}

fn expect_error_frame(stream: &mut TcpStream) -> ErrorReply {
    let (kind, payload) = read_frame(stream, 1 << 20).expect("server reply frame");
    assert_eq!(kind, FrameKind::Error, "expected an error frame");
    let text = std::str::from_utf8(&payload).expect("error payload is UTF-8");
    let value = Json::parse(text).expect("error payload is JSON");
    ErrorReply::from_json(&value).expect("decodable error reply")
}

#[test]
fn garbage_bytes_get_a_malformed_frame_error() {
    let handle = tcp_server(ServerConfig::default());
    let mut s = raw_tcp(&handle);
    s.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
    let reply = expect_error_frame(&mut s);
    assert_eq!(reply.code, ErrorCode::MalformedFrame);
    handle.begin_drain();
    handle.join();
}

#[test]
fn oversized_frames_are_rejected_without_allocation() {
    let handle = tcp_server(ServerConfig {
        max_frame: 1024,
        ..ServerConfig::default()
    });
    let mut s = raw_tcp(&handle);
    // A well-formed header declaring a payload far beyond the cap.
    let mut header = Vec::new();
    header.extend_from_slice(b"DS");
    header.push(dagsched_service::proto::VERSION);
    header.push(FrameKind::Request as u8);
    header.extend_from_slice(&(64u32 << 20).to_le_bytes());
    header.extend_from_slice(&0u64.to_le_bytes()); // checksum (unchecked before the cap)
    s.write_all(&header).unwrap();
    let reply = expect_error_frame(&mut s);
    assert_eq!(reply.code, ErrorCode::OversizedFrame);
    handle.begin_drain();
    handle.join();
}

#[test]
fn truncated_frames_are_detected() {
    let handle = tcp_server(ServerConfig::default());
    let mut s = raw_tcp(&handle);
    // Half a header, then an orderly half-close: not a clean hangup.
    s.write_all(b"DS\x01\x01").unwrap();
    s.shutdown(Shutdown::Write).unwrap();
    let reply = expect_error_frame(&mut s);
    assert_eq!(reply.code, ErrorCode::MalformedFrame);
    assert!(
        reply.message.contains("truncated"),
        "message should name the truncation: {}",
        reply.message
    );
    handle.begin_drain();
    handle.join();
}

#[test]
fn bad_requests_and_expired_deadlines_are_typed_errors() {
    let handle = tcp_server(ServerConfig {
        max_block: Some(4),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&handle.endpoint()).expect("connect");

    // An already-expired deadline (the block itself is within limits,
    // so the deadline is the check that fires).
    let mut req = ScheduleRequest::asm("add %o0, %o1, %o2");
    req.deadline_ms = Some(0);
    match client.request(&req) {
        Err(ClientError::Server(reply)) => assert_eq!(reply.code, ErrorCode::DeadlineExpired),
        other => panic!("expected a deadline-expired error, got {other:?}"),
    }

    // A block over the server's size cap.
    let req = ScheduleRequest::asm(
        "add %o0, %o1, %o2\n\
         add %o2, %o1, %o3\n\
         add %o3, %o1, %o4\n\
         add %o4, %o1, %o5\n\
         add %o5, %o1, %o0",
    );
    match client.request(&req) {
        Err(ClientError::Server(reply)) => assert_eq!(reply.code, ErrorCode::BlockTooLarge),
        other => panic!("expected a block-too-large error, got {other:?}"),
    }

    // Unknown scheduler name.
    let mut req = ScheduleRequest::asm("add %o0, %o1, %o2");
    req.scheduler = "belady".to_string();
    match client.request(&req) {
        Err(ClientError::Server(reply)) => assert_eq!(reply.code, ErrorCode::BadRequest),
        other => panic!("expected a bad-request error, got {other:?}"),
    }

    // A well-framed payload that is not JSON.
    let mut raw = raw_tcp(&handle);
    write_frame(&mut raw, FrameKind::Request, b"schedule this, please").unwrap();
    assert_eq!(expect_error_frame(&mut raw).code, ErrorCode::ParseError);

    // The connection survives typed errors: a valid request still works.
    let resp = client
        .request(&ScheduleRequest::asm("add %o0, %o1, %o2"))
        .expect("valid request after errors");
    assert_eq!(resp.insns.len(), 1);

    assert_every_request_answered(&handle);
    handle.begin_drain();
    handle.join();
}

/// Backpressure is request-shaped under the pipelined core: when the
/// bounded compile queue is full, the overflowing *request* is told
/// `busy` (with a retry hint) while its connection stays open and
/// usable — the old core burned the whole connection instead.
#[test]
fn full_queue_answers_busy() {
    let handle = tcp_server(ServerConfig {
        workers: 1,
        queue: 1,
        cache: CacheConfig::default(),
        ..ServerConfig::default()
    });
    let endpoint = handle.endpoint();

    // Occupy the only compile worker with a lingering request.
    let endpoint_a = endpoint.clone();
    let worker_hog = std::thread::spawn(move || {
        let mut client = Client::connect(&endpoint_a).expect("connect A");
        let mut req = ScheduleRequest::asm("add %o0, %o1, %o2");
        req.linger_ms = 600;
        client.request(&req).expect("lingering request")
    });
    std::thread::sleep(Duration::from_millis(200));

    // Fill the one queue slot with a second, distinct request (distinct
    // payloads everywhere here — identical ones would coalesce into one
    // flight instead of queueing).
    let req_b = ScheduleRequest::asm("sub %o0, %o1, %o2");
    let mut b = raw_tcp(&handle);
    write_frame(
        &mut b,
        FrameKind::Request,
        req_b.to_json().to_string().as_bytes(),
    )
    .unwrap();
    std::thread::sleep(Duration::from_millis(200));

    // The third request must be told `busy` with a retry hint.
    let req_c = ScheduleRequest::asm("xor %o3, %o4, %o5");
    let mut c = raw_tcp(&handle);
    write_frame(
        &mut c,
        FrameKind::Request,
        req_c.to_json().to_string().as_bytes(),
    )
    .unwrap();
    let reply = expect_error_frame(&mut c);
    assert_eq!(reply.code, ErrorCode::Busy);
    assert!(reply.retry_after_ms.is_some(), "busy carries a retry hint");

    // The hog finishes, the queued request is served...
    let resp = worker_hog.join().expect("hog thread");
    assert_eq!(resp.insns.len(), 1, "lingering request still completes");
    let (kind, _) = read_frame(&mut b, 1 << 20).expect("queued request's reply");
    assert_eq!(
        kind,
        FrameKind::Response,
        "queued request is served, not dropped"
    );

    // ...and the busy-rejected *connection* survived: a retry on the
    // very same socket now succeeds.
    write_frame(
        &mut c,
        FrameKind::Request,
        req_c.to_json().to_string().as_bytes(),
    )
    .unwrap();
    let (kind, _) = read_frame(&mut c, 1 << 20).expect("retry after busy");
    assert_eq!(
        kind,
        FrameKind::Response,
        "connection stays usable after busy"
    );

    assert!(metric(&handle, "busy_rejections") >= 1);
    assert_every_request_answered(&handle);
    handle.begin_drain();
    handle.join();
}

#[test]
fn graceful_drain_completes_in_flight_work() {
    let handle = tcp_server(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let endpoint = handle.endpoint();

    let in_flight = std::thread::spawn(move || {
        let mut client = Client::connect(&endpoint).expect("connect");
        let mut req = ScheduleRequest::profile("grep", PAPER_SEED);
        req.linger_ms = 300;
        let first = client
            .request(&req)
            .expect("in-flight request survives drain");
        // The same connection's *next* request is refused.
        let second = client.request(&ScheduleRequest::asm("add %o0, %o1, %o2"));
        (first, second)
    });
    // Let the worker pick the request up, then pull the plug.
    std::thread::sleep(Duration::from_millis(100));
    handle.begin_drain();

    let (first, second) = in_flight.join().expect("client thread");
    assert!(!first.insns.is_empty());
    match second {
        Err(ClientError::Server(reply)) => assert_eq!(reply.code, ErrorCode::Draining),
        other => panic!("expected a draining error, got {other:?}"),
    }
    assert!(handle.draining());
    handle.join();
}

#[test]
fn shutdown_frame_drains_the_server() {
    let handle = tcp_server(ServerConfig::default());
    let mut client = Client::connect(&handle.endpoint()).expect("connect");
    client.ping().expect("ping");
    let metrics = client.metrics().expect("metrics");
    assert!(metrics.get("connections").is_some());
    client.shutdown_server().expect("shutdown ack");
    // The shutdown frame flips the drain flag; the accept loop then
    // exits on its own and `join` returns.
    handle.join();
}

fn metric(handle: &dagsched_service::ServerHandle, key: &str) -> u64 {
    handle
        .metrics()
        .get(key)
        .and_then(|v| v.as_u64())
        .unwrap_or_else(|| panic!("metrics snapshot has no `{key}`"))
}

/// Tentpole acceptance (panic isolation): a request that panics
/// mid-pipeline yields a typed `internal` reply on the same
/// connection, the worker's arena is rebuilt, and the *next* request —
/// same connection, same worker pool — is served normally.
#[test]
fn a_panicking_request_is_answered_typed_and_the_worker_survives() {
    let handle = tcp_server(ServerConfig {
        workers: 1, // the panicking worker is the only worker
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&handle.endpoint()).expect("connect");

    let mut poison = ScheduleRequest::asm("add %o0, %o1, %o2");
    poison.debug_panic = true;
    match client.request(&poison) {
        Err(ClientError::Server(reply)) => {
            assert_eq!(reply.code, ErrorCode::Internal);
            assert!(
                reply.message.contains("strike"),
                "internal reply names the quarantine strike: {}",
                reply.message
            );
        }
        other => panic!("expected a typed internal error, got {other:?}"),
    }
    assert_eq!(metric(&handle, "panics_caught"), 1);
    assert_eq!(metric(&handle, "workers_respawned"), 1);

    // The sole worker survived: a healthy request on the *same*
    // connection is served with a fresh arena.
    let resp = client
        .request(&ScheduleRequest::asm("add %o0, %o1, %o2"))
        .expect("healthy request after a contained panic");
    assert_eq!(resp.insns.len(), 1);
    assert!(!resp.degraded);

    handle.begin_drain();
    handle.join();
}

/// Tentpole acceptance (quarantine): a payload that keeps killing
/// workers is cut off with a typed `quarantined` reply instead of
/// being allowed a third strike.
#[test]
fn a_repeat_offender_payload_is_quarantined_over_the_wire() {
    let handle = tcp_server(ServerConfig::default());
    let mut client = Client::connect(&handle.endpoint()).expect("connect");

    let mut poison = ScheduleRequest::asm("sub %o0, %o1, %o2");
    poison.debug_panic = true;
    let mut codes = Vec::new();
    for attempt in 0..3u64 {
        // Retries arrive with a bumped `attempt`; the quarantine must
        // key on the payload identity, not the attempt counter.
        poison.attempt = attempt;
        match client.request(&poison) {
            Err(ClientError::Server(reply)) => codes.push(reply.code),
            other => panic!("expected an error, got {other:?}"),
        }
    }
    assert_eq!(
        codes,
        vec![
            ErrorCode::Internal,
            ErrorCode::Internal,
            ErrorCode::Quarantined
        ]
    );
    assert_eq!(metric(&handle, "panics_caught"), 2);
    assert_eq!(metric(&handle, "requests_quarantined"), 1);
    assert_eq!(metric(&handle, "retries_attempted"), 2);
    assert_every_request_answered(&handle);

    handle.begin_drain();
    handle.join();
}

/// The retrying client drives a poison payload to a terminal outcome:
/// internal (retryable) twice, then quarantined (not retryable), with
/// no hanging and no unbounded retry loop.
#[test]
fn the_retrying_client_reaches_a_terminal_outcome_under_panics() {
    let handle = tcp_server(ServerConfig::default());
    let mut client = Client::connect(&handle.endpoint()).expect("connect");
    let policy = dagsched_service::RetryPolicy {
        max_retries: 5,
        base_delay: Duration::from_millis(1),
        max_delay: Duration::from_millis(4),
        ..dagsched_service::RetryPolicy::default()
    };

    let mut poison = ScheduleRequest::asm("xor %o3, %o4, %o5");
    poison.debug_panic = true;
    match client.request_with_retry(&poison, &policy) {
        Err(ClientError::Server(reply)) => assert_eq!(
            reply.code,
            ErrorCode::Quarantined,
            "two strikes then quarantine, well inside the retry budget"
        ),
        other => panic!("expected terminal quarantine, got {other:?}"),
    }
    // Strike accounting: two contained panics, then the cut-off.
    assert_eq!(metric(&handle, "panics_caught"), 2);
    assert_eq!(metric(&handle, "requests_quarantined"), 1);

    // A healthy request through the same retry path: first try, no
    // retries spent.
    let (resp, stats) = client
        .request_with_retry(&ScheduleRequest::asm("add %o0, %o1, %o2"), &policy)
        .expect("healthy request");
    assert_eq!(resp.insns.len(), 1);
    assert_eq!(stats.attempts, 1);
    assert_eq!(stats.retries, 0);

    handle.begin_drain();
    handle.join();
}

/// Satellite (retry properties): with an always-resetting peer, the
/// retry loop obeys `overall_timeout` — it gives up within the budget
/// instead of burning the whole `max_retries` allowance.
#[test]
fn the_overall_retry_deadline_is_respected() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    // A peer that accepts the handshake and immediately hangs up:
    // every attempt fails with a retryable transport error.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind resetter");
    let addr = listener.local_addr().unwrap();
    listener.set_nonblocking(true).unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let stop_l = Arc::clone(&stop);
    let resetter = std::thread::spawn(move || {
        while !stop_l.load(Ordering::Relaxed) {
            match listener.accept() {
                Ok((s, _)) => drop(s),
                Err(_) => std::thread::sleep(Duration::from_millis(2)),
            }
        }
    });

    let policy = dagsched_service::RetryPolicy {
        // Generous enough that without the overall deadline the loop
        // would sleep for multiple seconds...
        max_retries: 1000,
        base_delay: Duration::from_millis(10),
        max_delay: Duration::from_millis(20),
        per_attempt_timeout: Some(Duration::from_millis(200)),
        // ...but the overall budget cuts it off fast.
        overall_timeout: Some(Duration::from_millis(100)),
        ..dagsched_service::RetryPolicy::default()
    };
    let mut client = Client::connect(&format!("tcp:{addr}")).expect("connect");
    let started = std::time::Instant::now();
    let result = client.request_with_retry(&ScheduleRequest::asm("add %o0, %o1, %o2"), &policy);
    let elapsed = started.elapsed();
    assert!(result.is_err(), "a resetting peer cannot yield a response");
    assert!(
        elapsed < Duration::from_secs(1),
        "gave up near the 100 ms overall budget, not after 1000 retries ({elapsed:?})"
    );

    stop.store(true, Ordering::Relaxed);
    resetter.join().expect("resetter thread");
}

/// Drain-race satellite, part 1: a connection that was accepted and
/// *queued* (not yet picked up by a worker) when the drain began is
/// still served to completion, not dropped.
#[test]
fn queued_connections_are_served_through_a_drain() {
    let handle = tcp_server(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let endpoint = handle.endpoint();

    // Occupy the only worker.
    let endpoint_a = endpoint.clone();
    let hog = std::thread::spawn(move || {
        let mut client = Client::connect(&endpoint_a).expect("connect A");
        let mut req = ScheduleRequest::asm("add %o0, %o1, %o2");
        req.linger_ms = 400;
        client.request(&req).expect("lingering request")
    });
    std::thread::sleep(Duration::from_millis(100));

    // B is accepted and sits in the pool queue behind the hog. Its
    // request bytes are already on the wire when the drain begins.
    let endpoint_b = endpoint.clone();
    let queued = std::thread::spawn(move || {
        let mut client = Client::connect(&endpoint_b).expect("connect B");
        client.request(&ScheduleRequest::asm("sub %o0, %o1, %o2"))
    });
    std::thread::sleep(Duration::from_millis(100));

    handle.begin_drain();
    assert_eq!(hog.join().expect("hog thread").insns.len(), 1);
    let queued_resp = queued
        .join()
        .expect("queued thread")
        .expect("queued connection must be served through the drain, not dropped");
    assert_eq!(queued_resp.insns.len(), 1);
    handle.join();
}

/// Drain-race satellite, part 2: connections sitting in the kernel's
/// accept backlog when the drain begins are swept up and told
/// `draining` (with a retry hint) instead of waiting forever for a
/// reply. The interleaving has a microscopic benign race (the accept
/// loop may break and sweep an empty backlog before the sockets
/// land), so the scenario retries on fresh servers; one `draining`
/// reply proves the sweep.
#[test]
fn backlog_connections_get_a_draining_reply_not_silence() {
    let mut drained = 0u32;
    for _ in 0..3 {
        let handle = tcp_server(ServerConfig::default());
        let addr = handle.local_addr().expect("tcp addr");
        // Let the accept loop settle into its idle poll sleep.
        std::thread::sleep(Duration::from_millis(40));
        handle.begin_drain();
        // These handshakes complete against the kernel backlog; the
        // accept loop is already committed to breaking out.
        let socks: Vec<TcpStream> = (0..4)
            .filter_map(|_| TcpStream::connect(addr).ok())
            .collect();
        for mut s in socks {
            s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            // A ping distinguishes the two legitimate outcomes: a
            // normally-accepted connection answers `pong`; a swept
            // backlog connection answers `draining` without reading.
            let _ = write_frame(&mut s, FrameKind::Ping, b"");
            if let Ok((FrameKind::Error, payload)) = read_frame(&mut s, 1 << 20) {
                let text = std::str::from_utf8(&payload).expect("UTF-8 error payload");
                let value = dagsched_service::json::Json::parse(text).expect("JSON error payload");
                let reply = ErrorReply::from_json(&value).expect("decodable error reply");
                assert_eq!(reply.code, ErrorCode::Draining);
                assert!(
                    reply.retry_after_ms.is_some(),
                    "draining rejection carries a retry hint"
                );
                drained += 1;
            }
        }
        handle.join();
        if drained > 0 {
            break;
        }
    }
    assert!(
        drained > 0,
        "no backlog connection received a draining reply across 3 attempts"
    );
}

/// Ping `addr` every 50 ms until `stop` is set or 10 s have passed,
/// over one kept connection or, with `redial`, a new connection per
/// ping. Returns how many pings were answered `pong`.
fn keep_pinging(
    addr: std::net::SocketAddr,
    redial: bool,
    stop: &std::sync::atomic::AtomicBool,
) -> u32 {
    use std::sync::atomic::Ordering;
    let started = std::time::Instant::now();
    let mut kept: Option<TcpStream> = None;
    let mut pongs = 0;
    while !stop.load(Ordering::Relaxed) && started.elapsed() < Duration::from_secs(10) {
        let sock = match kept.take() {
            Some(s) => Some(s),
            None => TcpStream::connect(addr).ok(),
        };
        if let Some(mut s) = sock {
            let _ = s.set_read_timeout(Some(Duration::from_secs(2)));
            let answered = write_frame(&mut s, FrameKind::Ping, b"").is_ok()
                && matches!(read_frame(&mut s, 1 << 20), Ok((FrameKind::Pong, _)));
            if answered {
                pongs += 1;
                if !redial {
                    kept = Some(s);
                }
            }
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    pongs
}

/// A draining daemon stops waiting on peers that keep pinging: a ping
/// answered inline is not drain activity. One pinger keeps its
/// connection and one dials a new connection per ping, both every
/// 50 ms — faster than the ~200 ms follow-up window, as a router's
/// health prober is. They stop on their own after 10 s, so a drain they
/// held open would end then, not hang the test.
#[test]
fn drain_finishes_while_a_peer_keeps_pinging() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let handle = tcp_server(ServerConfig::default());
    let addr = handle.local_addr().expect("tcp addr");
    let stop = Arc::new(AtomicBool::new(false));
    let pingers: Vec<_> = [false, true]
        .into_iter()
        .map(|redial| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || keep_pinging(addr, redial, &stop))
        })
        .collect();
    std::thread::sleep(Duration::from_millis(300));

    let started = std::time::Instant::now();
    handle.begin_drain();
    handle.join();
    let took = started.elapsed();
    stop.store(true, Ordering::Relaxed);
    let pongs: Vec<u32> = pingers
        .into_iter()
        .map(|p| p.join().expect("pinger thread"))
        .collect();
    assert!(
        pongs.iter().all(|&n| n > 0),
        "both pingers reached the daemon: {pongs:?}"
    );
    assert!(
        took < Duration::from_secs(2),
        "the drain took {took:?} behind peers pinging every 50 ms"
    );
}

#[cfg(unix)]
#[test]
fn unix_socket_roundtrip_and_cleanup() {
    let dir = std::env::temp_dir().join(format!("dagsched-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("server-test.sock");
    let handle = serve(Listen::Unix(path.clone()), ServerConfig::default()).expect("bind unix");
    let mut client = Client::connect(&handle.endpoint()).expect("connect unix");
    let resp = client
        .request(&ScheduleRequest::asm("add %o0, %o1, %o2"))
        .expect("unix request");
    assert_eq!(resp.insns.len(), 1);
    handle.begin_drain();
    handle.join();
    assert!(!path.exists(), "socket file is unlinked on shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The compile workers write each reply straight from the schedule: for
/// a miss, a hit and a `sim` request the raw `Response` payload is
/// exactly what the tree writer emits for the decoded response. And a
/// malformed request is refused with the code and message the tree
/// decoder's path produced.
#[cfg(unix)]
#[test]
fn reply_payloads_are_the_tree_writers_bytes() {
    use std::os::unix::net::UnixStream;
    let dir = std::env::temp_dir().join(format!("dagsched-payload-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("payload.sock");
    let handle = serve(Listen::Unix(path.clone()), ServerConfig::default()).expect("bind unix");
    let mut stream = UnixStream::connect(&path).expect("connect unix");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();

    let mut sim = ScheduleRequest::profile("regex", 3);
    sim.sim = true;
    let grep = ScheduleRequest::profile("grep", 3);
    for (label, req) in [("miss", grep.clone()), ("hit", grep), ("sim", sim)] {
        write_frame(
            &mut stream,
            FrameKind::Request,
            req.to_json().to_string().as_bytes(),
        )
        .unwrap();
        let (kind, payload) = read_frame(&mut stream, DEFAULT_MAX_FRAME).expect("reply");
        assert_eq!(kind, FrameKind::Response, "{label}");
        let text = std::str::from_utf8(&payload).expect("UTF-8 payload");
        let resp = ScheduleResponse::from_json(&Json::parse(text).expect("JSON payload"))
            .expect("decodable response");
        assert_eq!(text, resp.to_json().to_string(), "{label}");
        match label {
            "miss" => assert!(resp.stats.cache_misses > 0),
            "hit" => {
                assert_eq!(resp.stats.cache_misses, 0);
                assert!(resp.stats.cache_hits > 0);
            }
            _ => assert!(resp.cycles.is_some()),
        }
    }

    for (payload, message) in [
        (
            &b"{\"asm\":"[..],
            "request is not JSON: json error at byte 7: unexpected end of input",
        ),
        (
            b"{\"asm\":\"nop\"} x",
            "request is not JSON: json error at byte 14: trailing characters after value",
        ),
        (b"\xff", "request payload is not UTF-8"),
        (b"{\"asm\":1}", "request needs an `asm` or `profile` field"),
    ] {
        write_frame(&mut stream, FrameKind::Request, payload).unwrap();
        let (kind, reply) = read_frame(&mut stream, DEFAULT_MAX_FRAME).expect("reply");
        assert_eq!(kind, FrameKind::Error);
        let reply =
            ErrorReply::from_json(&Json::parse(std::str::from_utf8(&reply).unwrap()).unwrap())
                .expect("decodable error reply");
        assert_eq!(reply.message, message);
    }

    handle.begin_drain();
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}
