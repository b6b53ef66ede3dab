//! Single-flight coalescing and pipelined-core determinism.
//!
//! The server coalesces identical in-flight requests: one compile runs,
//! every waiter gets the same encoded reply. These tests pin the two
//! properties that make that safe — bit-identical fan-out and
//! serial-driver equivalence — over the real wire.

use std::net::TcpStream;
use std::time::Duration;

use dagsched_driver::{schedule_program_batch, DriverConfig, Limits, NoCache};
use dagsched_isa::MachineModel;
use dagsched_sched::{Scheduler, SchedulerKind};
use dagsched_service::proto::{read_frame, write_frame, FrameKind};
use dagsched_service::server::{serve, Listen, ServerConfig};
use dagsched_service::{Client, ScheduleRequest};
use dagsched_workloads::{generate, BenchmarkProfile, PAPER_SEED};

fn tcp_server(config: ServerConfig) -> dagsched_service::ServerHandle {
    serve(Listen::Tcp("127.0.0.1:0".to_string()), config).expect("bind ephemeral TCP port")
}

fn metric(handle: &dagsched_service::ServerHandle, key: &str) -> u64 {
    handle
        .metrics()
        .get(key)
        .and_then(|v| v.as_u64())
        .unwrap_or_else(|| panic!("metrics snapshot has no `{key}`"))
}

/// What the serial, uncached, in-process driver emits for a profile
/// under the server's default configuration.
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

/// Property: N concurrent identical requests run exactly one compile;
/// every connection gets bit-identical reply bytes and the other N−1
/// are counted as coalesced.
#[test]
fn identical_concurrent_requests_compile_once_with_identical_bytes() {
    // One compile worker, so the leader's linger provably holds the
    // flight open while every follower is decoded and attached.
    let handle = tcp_server(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let addr = handle.local_addr().expect("tcp address");

    let mut req = ScheduleRequest::profile("grep", PAPER_SEED);
    req.linger_ms = 500;
    let body = req.to_json().to_string();

    const N: usize = 6;
    let mut socks = Vec::new();
    for _ in 0..N {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        write_frame(&mut s, FrameKind::Request, body.as_bytes()).expect("send request");
        socks.push(s);
    }

    let mut replies = Vec::new();
    for s in &mut socks {
        let (kind, payload) = read_frame(s, 1 << 20).expect("reply frame");
        assert_eq!(kind, FrameKind::Response, "every waiter gets a response");
        replies.push(payload);
    }
    for (i, r) in replies.iter().enumerate().skip(1) {
        assert_eq!(
            r, &replies[0],
            "coalesced reply {i} differs from the leader's bytes"
        );
    }

    assert_eq!(
        metric(&handle, "coalesced_requests"),
        (N - 1) as u64,
        "exactly one compile, N-1 followers"
    );
    assert_eq!(metric(&handle, "responses"), N as u64);
    // The accounting identity, from a Metrics frame.
    let m = Client::connect(&handle.endpoint())
        .expect("connect")
        .metrics()
        .expect("metrics frame");
    let count = |key: &str| m.get(key).and_then(|v| v.as_u64()).unwrap();
    assert_eq!(
        count("requests"),
        count("responses") + count("errors"),
        "requests == responses + errors: {m}"
    );

    handle.begin_drain();
    handle.join();
}

/// The pipelined core (decode and compile stages overlapping across
/// many connections) emits exactly what the serial in-process driver
/// emits, per profile and seed.
#[test]
fn pipelined_responses_match_the_serial_driver_across_profiles() {
    let handle = tcp_server(ServerConfig {
        workers: 4,
        ..ServerConfig::default()
    });
    let endpoint = handle.endpoint();

    let cases = [
        ("grep", PAPER_SEED),
        ("grep", PAPER_SEED + 1),
        ("cccp", PAPER_SEED),
        ("cccp", PAPER_SEED + 2),
    ];
    let mut threads = Vec::new();
    for (profile, seed) in cases {
        let endpoint = endpoint.clone();
        threads.push(std::thread::spawn(move || {
            let mut client = Client::connect(&endpoint).expect("connect");
            let mut responses = Vec::new();
            for _ in 0..3 {
                responses.push(
                    client
                        .request(&ScheduleRequest::profile(profile, seed))
                        .expect("request"),
                );
            }
            (profile, seed, responses)
        }));
    }
    for t in threads {
        let (profile, seed, responses) = t.join().expect("client thread");
        let reference = serial_reference(profile, seed);
        for resp in responses {
            assert_eq!(
                resp.insns, reference,
                "pipelined response for {profile}/{seed} != serial driver"
            );
        }
    }

    handle.begin_drain();
    handle.join();
}
