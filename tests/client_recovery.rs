//! The client's recovery from broken replies. A stand-in server on a
//! Unix socket breaks the first reply of each case in one way a faulty
//! link or peer can, then closes the connection; the connection the
//! client redials answers correctly. `Client::request_with_retry` must
//! return that correct reply, having redialed at least once:
//!
//! - (a) the connection closes before the first reply byte;
//! - (b) the reply is cut off mid-payload;
//! - (c) the reply's checksum fails;
//! - (d) the reply is well framed, but its payload is not a response.

#![cfg(unix)]

use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::Duration;

use dagsched::core::PhaseStats;
use dagsched::proto::{
    read_frame, write_frame, FrameKind, ScheduleRequest, ScheduleResponse, DEFAULT_MAX_FRAME,
    FRAME_HEADER_LEN,
};
use dagsched::service::{Client, RetryPolicy};

/// How the stand-in breaks the first reply of a case.
#[derive(Debug, Clone, Copy)]
enum Break {
    CloseBeforeReply,
    CutMidPayload,
    BadChecksum,
    NotAResponse,
}

fn reply() -> ScheduleResponse {
    ScheduleResponse {
        insns: vec!["add %o0, %o1, %o2".to_string(), "nop".to_string()],
        blocks: Vec::new(),
        stats: PhaseStats {
            blocks: 1,
            ..PhaseStats::default()
        },
        cycles: None,
        degraded: false,
    }
}

fn frame(kind: FrameKind, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    write_frame(&mut out, kind, payload).expect("frame fits");
    out
}

/// Read one request and answer it broken as `how` says (the
/// connection is then dropped), or correctly when `how` is `None`.
/// Returns the request's `attempt` tag.
fn answer(conn: &mut UnixStream, how: Option<Break>) -> u64 {
    let (kind, payload) = read_frame(conn, DEFAULT_MAX_FRAME).expect("a request frame");
    assert_eq!(kind, FrameKind::Request);
    let request = ScheduleRequest::decode(&payload).expect("a well-formed request");
    let good = frame(
        FrameKind::Response,
        reply().to_json().to_string().as_bytes(),
    );
    let bytes = match how {
        None => good,
        Some(Break::CloseBeforeReply) => Vec::new(),
        Some(Break::CutMidPayload) => {
            good[..FRAME_HEADER_LEN + (good.len() - FRAME_HEADER_LEN) / 2].to_vec()
        }
        Some(Break::BadChecksum) => {
            let mut bad = good;
            let last = bad.len() - 1;
            bad[last] ^= 0x20;
            bad
        }
        Some(Break::NotAResponse) => {
            let garbled: Vec<u8> = reply()
                .to_json()
                .to_string()
                .bytes()
                .map(|b| b ^ 0x55)
                .collect();
            frame(FrameKind::Response, &garbled)
        }
    };
    std::io::Write::write_all(conn, &bytes).expect("write the reply");
    request.attempt
}

#[test]
fn a_broken_reply_is_retried_on_a_redialed_connection() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("dagsched-client-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test dir");
    let sock = dir.join("stand-in.sock");
    let listener = UnixListener::bind(&sock).expect("bind the stand-in");
    let cases = [
        Break::CloseBeforeReply,
        Break::CutMidPayload,
        Break::BadChecksum,
        Break::NotAResponse,
    ];

    // One case at a time: a broken connection, then the redial, which
    // serves until the client hangs up.
    let server = std::thread::spawn(move || {
        let mut attempts = Vec::new();
        for how in cases {
            let (mut broken, _) = listener.accept().expect("accept");
            attempts.push(answer(&mut broken, Some(how)));
            drop(broken);
            let (mut redialed, _) = listener.accept().expect("accept the redial");
            attempts.push(answer(&mut redialed, None));
            let _ = read_frame(&mut redialed, DEFAULT_MAX_FRAME); // until hang-up
        }
        attempts
    });

    // One retry and no second chance: a retry on the broken connection
    // fails the case.
    let policy = RetryPolicy {
        max_retries: 1,
        base_delay: Duration::from_millis(1),
        max_delay: Duration::from_millis(2),
        per_attempt_timeout: Some(Duration::from_secs(10)),
        ..RetryPolicy::default()
    };
    let endpoint = format!("unix:{}", sock.display());
    let request = ScheduleRequest::asm("add %o0, %o1, %o2\nnop");
    for how in cases {
        let mut client = Client::connect(&endpoint).expect("connect");
        let (resp, stats) = client
            .request_with_retry(&request, &policy)
            .unwrap_or_else(|e| panic!("{how:?}: the retry must succeed: {e}"));
        assert_eq!(resp, reply(), "{how:?}");
        assert!(stats.redials >= 1, "{how:?}: {stats:?}");
        assert_eq!(stats.retries, 1, "{how:?}: {stats:?}");
    }

    let attempts = server.join().expect("stand-in server");
    assert_eq!(
        attempts,
        [0, 1].repeat(cases.len()),
        "first attempt, then one retry"
    );
    std::fs::remove_dir_all(&dir).expect("remove test dir");
}
