//! The `service-paper` workload: the release `hybridd` daemon at paper
//! scale, spawned as a child process and driven open loop with the
//! `hybridd::query_mix` request mix over loopback TCP.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use asgraph::DeltaOutcome;
use bgp_types::Asn;
use hybrid_tor::service::ResidentState;
use hybridd::{answer, query_mix, read_frame, write_frame, Request, Response};
use routesim::Scenario;

use crate::digest::{self, fnv1a};
use crate::openloop::{self, StepStats};
use crate::output::Outcome;
use crate::trace::Trace;
use crate::{stats, sys, Args, Corruption, THREADS};

/// Offered rate of the reference steps, requests per second: light
/// enough that latency is answer plus transport, not queueing behind a
/// descheduled thread on a 2-core host (see the benchmark's README).
const REFERENCE_RATE: f64 = 1000.0;

/// Share of `--seconds` spent at the reference rate.
const REFERENCE_SHARE: f64 = 0.3;

/// Rounds of one reference step plus one closed-loop chunk. Each metric
/// is the median over the rounds, so one stall of the host moves one
/// round, and the rounds spread every metric over the whole run.
const ROUNDS: u64 = 10;

/// Seconds of warm-up at the reference rate before anything is timed.
const WARMUP_SECONDS: f64 = 0.5;

/// Seconds each ladder step offers load for, across its sub-steps.
const STEP_SECONDS: f64 = 0.45;

/// Requests in the closed-loop batch `run_s` times (answered in
/// [`ROUNDS`] equal chunks).
const CLOSED_BATCH: usize = 24_000;

/// Requests answered in process per traced run.
const IN_PROCESS_QUERIES: usize = 50_000;

/// Client connections (one sender and one receiver thread each).
const CONNECTIONS: usize = 1;

/// How long a receiver waits for one response before giving up.
const READ_TIMEOUT: Duration = Duration::from_secs(5);

/// The rung the rate ladder starts from (about 9,300 requests per
/// second), well below the sustained rate; the ladder walks down from it
/// when even this rung misses the limit.
const LADDER_START: u32 = 10;

/// Sub-steps each ladder rate is offered in; the rate meets the limit
/// when most of them do.
const SUBSTEPS: usize = 3;

/// Ladder steps failing in a row that end the climb.
const FAILURES_TO_STOP: usize = 2;

/// Fine steps tried above the highest passing rung.
const FINE_STEPS: i32 = 3;

/// The AS universe and hybrid pairs a daemon serves.
type Pool = (Vec<Asn>, Vec<(Asn, Asn)>);

/// A closed-loop run: wall seconds, the answered requests, and each
/// request's round-trip seconds in request order (`None` if unanswered).
type ClosedLoop = (f64, Vec<Exchange>, Vec<Option<f64>>);

/// One answered request, kept for the output check.
struct Exchange {
    request: Request,
    hash: u64,
    error: bool,
}

/// The daemon child process; killed and reaped on drop.
struct Daemon {
    child: Child,
    addr: String,
    // Held open so the daemon's later stdout lines never hit a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Build the release `hybridd` binary next to this benchmark's own.
fn hybridd_binary() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate perfbench: {e}"))?;
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml");
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let mut build = Command::new(cargo);
    build.args(["build", "--offline", "--quiet", "-p", "hybridd", "--bin", "hybridd"]);
    if !cfg!(debug_assertions) {
        build.arg("--release");
    }
    let status = build
        .arg("--manifest-path")
        .arg(&manifest)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building hybridd failed: {status}"));
    }
    Ok(exe.with_file_name("hybridd"))
}

impl Daemon {
    /// Spawn the daemon on an OS-chosen port and wait for its "listening
    /// on" line; returns the daemon and the seconds that took.
    fn start(binary: &PathBuf) -> Result<(Daemon, f64), String> {
        let started = Instant::now();
        let mut child = Command::new(binary)
            .env("HYBRID_ADDR", "127.0.0.1:0")
            .env("HYBRID_THREADS", THREADS.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn hybridd: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match stdout.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("hybridd exited before listening".to_string());
                }
                Ok(_) => {
                    if let Some(addr) = line.trim().strip_prefix("hybridd: listening on ") {
                        break addr.to_string();
                    }
                }
            }
        };
        let setup_s = started.elapsed().as_secs_f64();
        Ok((Daemon { child, addr, _stdout: stdout }, setup_s))
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }
}

/// One framed client connection.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

fn connect(addr: &str) -> Result<Conn, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(READ_TIMEOUT)).map_err(|e| e.to_string())?;
    let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    Ok(Conn { reader, writer: BufWriter::new(stream) })
}

fn is_error(payload: &[u8]) -> bool {
    payload.first() == Some(&1)
}

/// Send one request and wait for its response.
fn roundtrip(conn: &mut Conn, request: &Request) -> Option<Vec<u8>> {
    write_frame(&mut conn.writer, &request.encode()).ok()?;
    conn.writer.flush().ok()?;
    read_frame(&mut conn.reader).ok()
}

/// The universe and hybrid pairs the daemon serves, fetched once.
fn universe(addr: &str, exchanges: &mut Vec<Exchange>) -> Result<Pool, String> {
    let mut conn = connect(addr)?;
    let raw = roundtrip(&mut conn, &Request::Universe).ok_or("universe query failed")?;
    exchanges.push(Exchange {
        request: Request::Universe,
        hash: fnv1a(&raw),
        error: is_error(&raw),
    });
    match Response::decode(&raw) {
        Ok(Response::Universe { asns, hybrid_pairs }) => Ok((asns, hybrid_pairs)),
        other => Err(format!("universe query answered with {other:?}")),
    }
}

/// Offer `requests` open loop at `rate` over fresh connections; returns
/// the step statistics and the answered requests. With `corrupt`, the
/// first response's bytes are flipped before they are recorded.
fn offer(
    addr: &str,
    requests: &[Request],
    rate: f64,
    corrupt: bool,
) -> Result<(StepStats, Vec<Exchange>), String> {
    let encoded: Vec<Vec<u8>> = requests.iter().map(Request::encode).collect();
    let mut conns: Vec<Conn> = (0..CONNECTIONS).map(|_| connect(addr)).collect::<Result<_, _>>()?;
    let n = requests.len();
    let sent = AtomicUsize::new(0);
    let received = AtomicUsize::new(0);
    let start = Instant::now();
    type Sender = (Vec<u64>, usize, usize);
    type Receiver = Vec<(usize, u64, Vec<u8>)>;
    let results: Vec<(Sender, Receiver)> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, Conn { reader, writer })| {
                let (encoded, sent, received) = (&encoded, &sent, &received);
                let sender = scope.spawn(move || {
                    let mut lateness = Vec::with_capacity(n / CONNECTIONS + 1);
                    let (mut backlog_max, mut backlog_end) = (0, 0);
                    for j in (c..n).step_by(CONNECTIONS) {
                        let due = openloop::due(j, rate);
                        loop {
                            let now = start.elapsed();
                            if now >= due {
                                break;
                            }
                            if writer.flush().is_err() {
                                return (lateness, backlog_max, backlog_end);
                            }
                            std::thread::sleep(due - now);
                        }
                        if write_frame(writer, &encoded[j]).is_err() {
                            break;
                        }
                        lateness.push(openloop::lateness(due, start.elapsed()).as_nanos() as u64);
                        let in_flight = (sent.fetch_add(1, Ordering::Relaxed) + 1)
                            .saturating_sub(received.load(Ordering::Relaxed));
                        backlog_max = backlog_max.max(in_flight);
                        backlog_end = in_flight;
                        let next = j + CONNECTIONS;
                        if (next >= n || openloop::due(next, rate) > start.elapsed())
                            && writer.flush().is_err()
                        {
                            break;
                        }
                    }
                    (lateness, backlog_max, backlog_end)
                });
                let receiver = scope.spawn(move || {
                    let mut answered = Vec::with_capacity(n / CONNECTIONS + 1);
                    for j in (c..n).step_by(CONNECTIONS) {
                        let Ok(payload) = read_frame(reader) else { break };
                        let latency = start.elapsed().saturating_sub(openloop::due(j, rate));
                        received.fetch_add(1, Ordering::Relaxed);
                        answered.push((j, latency.as_nanos() as u64, payload));
                    }
                    answered
                });
                (sender, receiver)
            })
            .collect();
        handles
            .into_iter()
            .map(|(s, r)| {
                (s.join().expect("sender thread panicked"), r.join().expect("receiver panicked"))
            })
            .collect()
    });
    let mut step = StepStats { rate, ..Default::default() };
    let mut exchanges = Vec::with_capacity(n);
    for ((lateness, backlog_max, backlog_end), answered) in results {
        step.lateness_ns.extend(lateness);
        step.backlog_max = step.backlog_max.max(backlog_max);
        step.backlog_end = step.backlog_end.max(backlog_end);
        for (j, latency, mut payload) in answered {
            if corrupt && j == 0 {
                digest::corrupt(&mut payload);
            }
            let error = is_error(&payload);
            step.failures += usize::from(error);
            step.latencies_ns.push(latency);
            exchanges.push(Exchange { request: requests[j], hash: fnv1a(&payload), error });
        }
    }
    step.failures += n - exchanges.len();
    Ok((step, exchanges))
}

/// Answer `requests` closed loop over `connections` connections.
fn closed_loop(addr: &str, requests: &[Request], connections: usize) -> Result<ClosedLoop, String> {
    let mut conns: Vec<Conn> = (0..connections).map(|_| connect(addr)).collect::<Result<_, _>>()?;
    let n = requests.len();
    let started = Instant::now();
    let per_conn: Vec<Vec<(usize, f64, Vec<u8>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                scope.spawn(move || {
                    let mut answered = Vec::new();
                    for j in (c..n).step_by(connections) {
                        let t0 = Instant::now();
                        let Some(payload) = roundtrip(conn, &requests[j]) else { break };
                        answered.push((j, t0.elapsed().as_secs_f64(), payload));
                    }
                    answered
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let wall = started.elapsed().as_secs_f64();
    let mut rtts = vec![None; n];
    let mut exchanges = Vec::with_capacity(n);
    for (j, rtt, payload) in per_conn.into_iter().flatten() {
        rtts[j] = Some(rtt);
        exchanges.push(Exchange {
            request: requests[j],
            hash: fnv1a(&payload),
            error: is_error(&payload),
        });
    }
    Ok((wall, exchanges, rtts))
}

/// The request mix of one step: `hybridd::query_mix` seeded from the
/// workload seed and the step index.
fn mix(pool: &Pool, seed: u64, step: u64, count: usize) -> Vec<Request> {
    query_mix(&pool.0, &pool.1, seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ step, count)
}

/// Everything the rate ladder found.
struct Ladder {
    /// Highest offered rate meeting the limit (0 when none did).
    sustained: f64,
    /// The step at that rate.
    best: Option<StepStats>,
    exchanges: Vec<Exchange>,
    /// Requests offered across all steps.
    sent: usize,
}

/// Climb the fixed geometric ladder from [`LADDER_START`] until two
/// rungs in a row miss the limit (stepping down instead when none meets
/// it), then try fine steps above the highest passing rung.
fn ladder(addr: &str, pool: &Pool, seed: u64) -> Result<Ladder, String> {
    let mut out = Ladder { sustained: 0.0, best: None, exchanges: Vec::new(), sent: 0 };
    let mut step_index = 100;
    // A rate meets the limit when most of its sub-steps do, so one stall
    // of the host does not decide a rung.
    let mut try_rate = |rate: f64, out: &mut Ladder| -> Result<bool, String> {
        let mut passing = Vec::new();
        for _ in 0..SUBSTEPS {
            step_index += 1;
            let count = openloop::step_requests(rate, STEP_SECONDS / SUBSTEPS as f64);
            let requests = mix(pool, seed, step_index, count);
            let (step, exchanges) = offer(addr, &requests, rate, false)?;
            out.sent += requests.len();
            out.exchanges.extend(exchanges);
            let verdict = step.verdict();
            eprintln!(
                "perfbench: step {rate:>8.0}/s p99 {:>7.1} us, lag max {:>6.1} us, backlog max {:>4}: {}",
                step.latency_p99_ns() / 1e3,
                step.lag_max_ns() as f64 / 1e3,
                step.backlog_max,
                verdict.as_ref().map_or_else(|e| e.clone(), |()| "ok".to_string())
            );
            std::thread::sleep(Duration::from_millis(20));
            if verdict.is_ok() {
                passing.push(step);
            }
        }
        let pass = 2 * passing.len() > SUBSTEPS;
        if pass && rate > out.sustained {
            out.sustained = rate;
            out.best = passing.into_iter().next();
        }
        Ok(pass)
    };
    let mut k = LADDER_START;
    let mut misses = 0;
    while misses < FAILURES_TO_STOP && k < 60 {
        if try_rate(openloop::rung(k), &mut out)? {
            misses = 0;
        } else {
            misses += 1;
        }
        k += 1;
    }
    let mut k = LADDER_START;
    while out.best.is_none() && k > 0 {
        k -= 1;
        try_rate(openloop::rung(k), &mut out)?;
    }
    if out.best.is_some() {
        let base = out.sustained;
        for f in 1..=FINE_STEPS {
            if !try_rate(base * openloop::FINE_FACTOR.powi(f), &mut out)? {
                break;
            }
        }
    }
    Ok(out)
}

/// The resident state the daemon serves, built locally the way
/// `hybridd` builds it (default paper scale, the benchmark's workers).
fn local_state() -> ResidentState {
    let knobs = crate::knobs();
    let scale = bench::paper_scale();
    let scenario = Scenario::build(&scale.topology, &knobs.sim(&scale.sim));
    ResidentState::build(&scenario, &knobs.pipeline())
}

/// Check every recorded response against `hybridd::answer` on `state`;
/// returns how many were errors or differ.
fn check(state: &ResidentState, exchanges: &[Exchange]) -> u64 {
    let failed = exchanges
        .iter()
        .filter(|ex| ex.error || ex.hash != fnv1a(&answer(state, &ex.request).encode()))
        .count();
    failed as u64
}

/// The untraced run.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let binary = hybridd_binary()?;
    let (daemon, setup_s) = Daemon::start(&binary)?;
    eprintln!(
        "perfbench: hybridd pid {} listening on {} after {setup_s:.3}s",
        daemon.pid(),
        daemon.addr
    );
    let mut exchanges = Vec::new();
    let pool = universe(&daemon.addr, &mut exchanges)?;

    let corrupt = args.corrupt == Some(Corruption::Response);
    let warmup = mix(&pool, args.seed, 0, (REFERENCE_RATE * WARMUP_SECONDS).round() as usize);
    let (_, warm_exchanges) = offer(&daemon.addr, &warmup, REFERENCE_RATE, corrupt)?;
    exchanges.extend(warm_exchanges);

    // Half the rounds run before the rate ladder and half after it, so the
    // reference latencies and the closed-loop time sample the whole run.
    let seconds = (args.seconds as f64 * REFERENCE_SHARE).max(1.0) / ROUNDS as f64;
    let (mut tails, mut chunks, mut sent) = (Vec::new(), Vec::new(), 0);
    let mut ladder = None;
    for round in 0..ROUNDS {
        if round == ROUNDS / 2 {
            ladder = Some(self::ladder(&daemon.addr, &pool, args.seed)?);
        }
        // No request floor here: the p90 reported needs far fewer samples
        // than the ladder's p99 verdict.
        let count = (REFERENCE_RATE * seconds).round() as usize;
        let reference = mix(&pool, args.seed, 10 + round, count);
        let (step, step_exchanges) = offer(&daemon.addr, &reference, REFERENCE_RATE, false)?;
        sent += reference.len();
        exchanges.extend(step_exchanges);
        let latencies_ms: Vec<f64> = step.latencies_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
        let (tail_ms, pct) = stats::tail(&latencies_ms, stats::OP_TAIL_CAP);
        tails.push(tail_ms);

        let chunk = mix(&pool, args.seed, 20 + round, CLOSED_BATCH / ROUNDS as usize);
        let (wall_s, chunk_exchanges, _) = closed_loop(&daemon.addr, &chunk, CONNECTIONS)?;
        sent += chunk.len();
        exchanges.extend(chunk_exchanges);
        chunks.push(wall_s);
        eprintln!(
            "perfbench: round {round}: {REFERENCE_RATE}/s p50 {:.1} us p{pct} {:.1} us p99 {:.1} us ({:?}); closed loop {:.3}s",
            stats::median(&latencies_ms) * 1e3,
            tail_ms * 1e3,
            step.latency_p99_ns() / 1e3,
            step.verdict(),
            wall_s
        );
    }

    let ladder = ladder.expect("the ladder runs between the rounds");
    exchanges.extend(ladder.exchanges);
    let peak_rss_mb = sys::peak_rss_mb(Some(daemon.pid()));
    drop(daemon);

    let attempted = 1 + warmup.len() + sent + ladder.sent;
    let unanswered = (attempted - exchanges.len()) as u64;
    let mut outcome = Outcome { attempted: attempted as u64, ..Default::default() };
    let t0 = Instant::now();
    outcome.failed = check(&local_state(), &exchanges) + unanswered;
    eprintln!(
        "perfbench: checked {} responses in {:.1}s",
        exchanges.len(),
        t0.elapsed().as_secs_f64()
    );
    outcome.correct = outcome.failed == 0;
    outcome.metric("setup_s", setup_s, "s");
    outcome.metric("run_s", stats::median(&chunks) * ROUNDS as f64, "s");
    outcome.metric("peak_rss_mb", peak_rss_mb, "MB");
    outcome.metric("op_tail_ms", stats::median(&tails), "ms");
    outcome.metric("ops_per_s", ladder.sustained, "1/s");
    Ok(outcome)
}

fn op_span(request: &Request) -> &'static str {
    match request {
        Request::Relationship { .. } => "service.relationship",
        Request::CustomerTree { .. } => "service.customer_tree",
        Request::Visibility { .. } => "service.visibility",
        Request::WhatIf { .. } => "service.what_if",
        Request::Summary => "service.summary",
        Request::MemStats => "service.memstats",
        _ => "service.other",
    }
}

/// The traced run of `service-paper`: the service layers alone.
pub fn run_traced(args: &Args, trace: &mut Trace) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let (traced_wall_s, untraced_wall_s) = trace_layers(args, trace, &mut outcome)?;
    outcome.correct = outcome.failed == 0;
    crate::layers::report(trace, &mut outcome, traced_wall_s, untraced_wall_s);
    Ok(outcome)
}

/// Trace the service layers: spawn the daemon, build the resident state it
/// serves in process (`service.build`), answer the mix in process under a
/// per-opcode span, send the same requests through the daemon closed loop
/// untraced and traced (transport = round trip − answer time), and climb
/// the rate ladder for the generator signals. Every daemon response is
/// checked against the in-process state and counted into `outcome`.
/// Returns the traced and untraced closed-loop wall seconds.
pub fn trace_layers(
    args: &Args,
    trace: &mut Trace,
    outcome: &mut Outcome,
) -> Result<(f64, f64), String> {
    let binary = hybridd_binary()?;
    let (daemon, setup_s) = trace.span("hybridd.start", |_| Daemon::start(&binary))?;
    eprintln!("perfbench: hybridd listening after {setup_s:.3}s");
    let knobs = crate::knobs();
    let scale = bench::paper_scale();
    let scenario = Scenario::build(&scale.topology, &knobs.sim(&scale.sim));
    let state = trace.span("service.build", |_| ResidentState::build(&scenario, &knobs.pipeline()));
    drop(scenario);

    let mut exchanges = Vec::new();
    let pool = universe(&daemon.addr, &mut exchanges)?;
    let requests = mix(&pool, args.seed, 3, IN_PROCESS_QUERIES);
    let mut answer_s = Vec::with_capacity(requests.len());
    for request in &requests {
        let t0 = Instant::now();
        let response = trace.span(op_span(request), |_| answer(&state, request));
        answer_s.push(t0.elapsed().as_secs_f64());
        if let Response::WhatIf(reply) = response {
            trace.count("service.what_if", 1.0);
            trace.count(
                match reply.outcome {
                    DeltaOutcome::Unchanged => "service.what_if_unchanged",
                    DeltaOutcome::Incremental => "service.what_if_incremental",
                    DeltaOutcome::FullRebuild => "service.what_if_rebuild",
                },
                1.0,
            );
        }
    }

    let batch = &requests[..CLOSED_BATCH];
    let cpu_before = sys::cpu_seconds(daemon.pid());
    let (untraced_wall_s, untraced_exchanges, _) = closed_loop(&daemon.addr, batch, 1)?;
    exchanges.extend(untraced_exchanges);
    let t0 = Instant::now();
    let (_, traced_exchanges, rtts) =
        trace.span("hybridd.closed_loop", |_| closed_loop(&daemon.addr, batch, 1))?;
    let traced_wall_s = t0.elapsed().as_secs_f64();
    exchanges.extend(traced_exchanges);
    let transport: Vec<f64> = rtts
        .iter()
        .zip(&answer_s)
        .filter_map(|(rtt, answer)| rtt.map(|rtt| rtt - answer))
        .collect();
    if !transport.is_empty() {
        trace.count("hybridd.transport_p50_us", stats::median(&transport) * 1e6);
    }

    let ladder = trace.span("loadgen.ladder", |_| ladder(&daemon.addr, &pool, args.seed))?;
    if let Some(best) = &ladder.best {
        trace.count("loadgen.lag_max_ms", best.lag_max_ns() as f64 / 1e6);
        trace.count("loadgen.backlog_max", best.backlog_max as f64);
    }
    // Daemon CPU over both closed loops and the ladder, per request: long
    // enough that the 10 ms tick of /proc CPU times does not matter.
    let sent = 1 + 2 * batch.len() + ladder.sent;
    if let (Some(before), Some(after)) = (cpu_before, sys::cpu_seconds(daemon.pid())) {
        trace.count("hybridd.cpu_us_per_req", (after - before) * 1e6 / (sent - 1) as f64);
    }
    exchanges.extend(ladder.exchanges);
    drop(daemon);

    outcome.attempted += sent as u64;
    outcome.failed += check(&state, &exchanges) + (sent - exchanges.len()) as u64;
    eprintln!("perfbench: service traced {traced_wall_s:.3}s, untraced {untraced_wall_s:.3}s");
    Ok((traced_wall_s, untraced_wall_s))
}
