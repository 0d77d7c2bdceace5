//! End-to-end determinism: the byte stream a client reads is a pure
//! function of (scenario, query stream) — independent of worker count,
//! pipelining, and even a live epoch swap mid-stream.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use hybrid_tor::service::ResidentState;
use hybrid_tor::Pipeline;
use hybridd::{answer, query_mix, read_frame, write_frame, Request, Response, Server};

fn build_state() -> ResidentState {
    let scenario = bench::build_scenario(&bench::tiny_scale());
    ResidentState::build(&scenario, &Pipeline::default())
}

/// Start a daemon on an ephemeral port; the accept thread is detached and
/// dies with the test process.
fn spawn_server(workers: usize) -> std::net::SocketAddr {
    let rebuild: hybridd::Rebuild = Arc::new(build_state);
    let server = Server::bind("127.0.0.1:0", build_state(), rebuild, workers)
        .expect("bind an ephemeral loopback port");
    let addr = server.local_addr().expect("ephemeral port resolved");
    std::thread::spawn(move || server.run());
    addr
}

/// Write every request, then read every response — deliberately pipelined
/// so multi-request batches actually form on the server side.
fn pipelined_exchange(addr: std::net::SocketAddr, requests: &[Request]) -> Vec<Vec<u8>> {
    let stream = TcpStream::connect(addr).expect("connect to the test daemon");
    stream.set_nodelay(true).ok();
    let mut writer = stream.try_clone().expect("clone the stream");
    for request in requests {
        write_frame(&mut writer, &request.encode()).expect("send a request frame");
    }
    writer.flush().expect("flush the request burst");
    let mut reader = std::io::BufReader::new(stream);
    requests.iter().map(|_| read_frame(&mut reader).expect("read a response frame")).collect()
}

fn test_mix(count: usize) -> Vec<Request> {
    let state = build_state();
    let mut mix = query_mix(state.universe(), state.hybrid_pairs(), 7, count);
    // Make sure the heavyweight frames are always exercised too.
    mix.push(Request::ReportJson);
    mix.push(Request::Universe);
    mix
}

#[test]
fn responses_are_byte_identical_across_worker_and_batch_configs() {
    let mix = test_mix(120);
    let baseline = pipelined_exchange(spawn_server(1), &mix);
    for workers in [2, 4] {
        let got = pipelined_exchange(spawn_server(workers), &mix);
        assert_eq!(got, baseline, "workers={workers} must produce the baseline byte stream");
    }
}

#[test]
fn responses_match_a_locally_computed_answer() {
    let state = build_state();
    let mix = test_mix(60);
    let got = pipelined_exchange(spawn_server(2), &mix);
    for (request, raw) in mix.iter().zip(&got) {
        assert_eq!(
            *raw,
            answer(&state, request).encode(),
            "{request:?} must answer with the locally computed bytes"
        );
    }
}

#[test]
fn a_live_reload_does_not_change_query_bytes() {
    let state = build_state();
    let mix = test_mix(60);
    // Splice a reload into the middle of the stream; every batch loads
    // the current snapshot, so the next batch answers from the new epoch.
    let mut spliced = mix.clone();
    spliced.insert(mix.len() / 2, Request::Reload);
    let addr = spawn_server(2);
    let got = pipelined_exchange(addr, &spliced);

    let mut non_reload = Vec::new();
    let mut reload_epochs = Vec::new();
    for (request, raw) in spliced.iter().zip(&got) {
        if matches!(request, Request::Reload) {
            match Response::decode(raw).expect("reload response decodes") {
                Response::Reloaded { epoch } => reload_epochs.push(epoch),
                other => panic!("reload must answer Reloaded, got {other:?}"),
            }
        } else {
            non_reload.push(raw.clone());
        }
    }
    // The initial snapshot is epoch 1; the single published rebuild is 2.
    assert_eq!(reload_epochs, vec![2]);
    // Every query before AND after the swap answers with the same bytes a
    // fresh local snapshot computes: the rebuild is deterministic and the
    // epoch is invisible to query responses (MemStats carries no epoch).
    for (request, raw) in mix.iter().zip(&non_reload) {
        assert_eq!(*raw, answer(&state, request).encode(), "{request:?} changed across a reload");
    }
}

#[test]
fn a_garbage_payload_yields_an_error_response_and_keeps_the_stream_usable() {
    let addr = spawn_server(1);
    let stream = TcpStream::connect(addr).expect("connect to the test daemon");
    stream.set_nodelay(true).ok();
    let mut writer = stream.try_clone().expect("clone the stream");
    // Unknown opcode 0: framing intact, payload malformed.
    write_frame(&mut writer, &[0]).expect("send the garbage frame");
    write_frame(&mut writer, &Request::MemStats.encode()).expect("send a valid frame");
    writer.flush().expect("flush");
    let mut reader = std::io::BufReader::new(stream);
    let first = Response::decode(&read_frame(&mut reader).expect("read the error response"))
        .expect("error response decodes");
    assert!(matches!(first, Response::Error(_)), "garbage must answer Error, got {first:?}");
    let second = Response::decode(&read_frame(&mut reader).expect("read the follow-up response"))
        .expect("follow-up response decodes");
    assert!(matches!(second, Response::MemStats(_)), "stream must stay usable, got {second:?}");
}

#[test]
fn single_shot_clients_and_slow_writers_are_served_promptly() {
    // A non-pipelined client must get an answer without waiting for a full
    // batch to form (the drain is greedy over already-buffered bytes only).
    let addr = spawn_server(2);
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).ok();
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = std::io::BufReader::new(stream);
    for _ in 0..3 {
        write_frame(&mut writer, &Request::Summary.encode()).expect("send");
        writer.flush().expect("flush");
        let raw = read_frame(&mut reader).expect("a lone request is answered without batch-mates");
        assert!(matches!(Response::decode(&raw), Ok(Response::Json(_))));
    }
}

#[test]
fn a_panicking_reload_keeps_the_epoch_and_answers_an_error() {
    // The first rebuild panics, later ones succeed: a following reload
    // publishing epoch 2 proves the failed one published nothing.
    let attempts = Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let counter = Arc::clone(&attempts);
    let rebuild: hybridd::Rebuild = Arc::new(move || {
        if counter.fetch_add(1, std::sync::atomic::Ordering::SeqCst) == 0 {
            panic!("rebuild exploded");
        }
        build_state()
    });
    let state = build_state();
    let server = Server::bind("127.0.0.1:0", build_state(), rebuild, 1)
        .expect("bind an ephemeral loopback port");
    let addr = server.local_addr().expect("ephemeral port resolved");
    let cell = server.cell();
    std::thread::spawn(move || server.run());

    let stream = TcpStream::connect(addr).expect("connect to the test daemon");
    stream.set_read_timeout(Some(Duration::from_secs(60))).ok();
    let mut writer = stream.try_clone().expect("clone the stream");
    let mut reader = std::io::BufReader::new(stream);
    let mut exchange = |request: Request| {
        write_frame(&mut writer, &request.encode()).expect("send a request frame");
        writer.flush().expect("flush");
        Response::decode(&read_frame(&mut reader).expect("the connection survives"))
            .expect("response decodes")
    };

    let failed = exchange(Request::Reload);
    assert!(
        matches!(&failed, Response::Error(message) if message.contains("rebuild exploded")),
        "a panicking rebuild must answer Error, got {failed:?}"
    );
    assert_eq!(cell.epoch(), 1, "the failed reload must not publish");
    assert_eq!(exchange(Request::Summary), answer(&state, &Request::Summary));
    assert_eq!(exchange(Request::Reload), Response::Reloaded { epoch: 2 });
}
