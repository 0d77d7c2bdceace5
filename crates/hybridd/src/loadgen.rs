//! Closed-loop load generation with a deterministic query mix.
//!
//! The generator fetches the AS universe from the server once, then runs
//! `clients` closed-loop connections, each replaying a ChaCha8-derived
//! query mix (seeded from `seed` and the client index, so every run with
//! the same inputs issues the same queries in the same per-client order).
//! Per-request round-trip latencies are recorded and folded into p50/p99;
//! with `--check`, every response is byte-compared against a locally
//! rebuilt [`ResidentState`] — the same fresh `Pipeline::run` the server
//! performed — so a passing run proves the resident snapshot answers are
//! byte-equal to freshly computed pipeline results.

use std::io::{BufReader, BufWriter};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use bgp_types::{Asn, IpVersion, Relationship};
use hybrid_tor::service::ResidentState;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::protocol::{read_frame, write_frame, Request, Response, WireError};
use crate::server::answer;

/// One framed connection to a daemon.
pub struct Connection {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Connection {
    /// Connect once.
    pub fn connect(addr: &str) -> Result<Self, WireError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Connection {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
        })
    }

    /// Connect, retrying for up to `wait` (100 ms between attempts) — for
    /// racing a daemon that is still building its snapshot.
    pub fn connect_with_retry(addr: &str, wait: Duration) -> Result<Self, WireError> {
        let deadline = Instant::now() + wait;
        loop {
            match Self::connect(addr) {
                Ok(conn) => return Ok(conn),
                Err(e) if Instant::now() >= deadline => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(100)),
            }
        }
    }

    /// Send one request and read the raw response payload.
    pub fn roundtrip_raw(&mut self, request: &Request) -> Result<Vec<u8>, WireError> {
        use std::io::Write;
        write_frame(&mut self.writer, &request.encode())?;
        self.writer.flush()?;
        read_frame(&mut self.reader)
    }

    /// Send one request and decode the response.
    pub fn query(&mut self, request: &Request) -> Result<Response, WireError> {
        Response::decode(&self.roundtrip_raw(request)?)
    }
}

/// The deterministic query mix: `count` requests drawn from `universe`
/// (and `hybrid_pairs` for what-ifs) by a ChaCha8 stream seeded with
/// `seed`. Weights: 50% relationship lookups, 15% customer trees, 15%
/// visibility, 12% what-if corrections (falling back to relationship
/// lookups when the snapshot has no hybrids), 4% summaries, 4% memory
/// stats.
pub fn query_mix(
    universe: &[Asn],
    hybrid_pairs: &[(Asn, Asn)],
    seed: u64,
    count: usize,
) -> Vec<Request> {
    assert!(!universe.is_empty(), "cannot draw queries from an empty universe");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let pick_asn = |rng: &mut ChaCha8Rng| universe[rng.next_u32() as usize % universe.len()];
    let pick_plane =
        |rng: &mut ChaCha8Rng| if rng.next_u32() & 1 == 0 { IpVersion::V4 } else { IpVersion::V6 };
    (0..count)
        .map(|_| match rng.next_u32() % 100 {
            0..=49 => Request::Relationship {
                a: pick_asn(&mut rng),
                b: pick_asn(&mut rng),
                plane: pick_plane(&mut rng),
            },
            50..=64 => {
                Request::CustomerTree { root: pick_asn(&mut rng), plane: pick_plane(&mut rng) }
            }
            65..=79 => Request::Visibility { asn: pick_asn(&mut rng) },
            80..=91 if !hybrid_pairs.is_empty() => {
                let (a, b) = hybrid_pairs[rng.next_u32() as usize % hybrid_pairs.len()];
                let new = [
                    Relationship::ProviderToCustomer,
                    Relationship::CustomerToProvider,
                    Relationship::PeerToPeer,
                    Relationship::SiblingToSibling,
                ][rng.next_u32() as usize % 4];
                Request::WhatIf { a, b, plane: pick_plane(&mut rng), new, root: pick_asn(&mut rng) }
            }
            80..=91 => Request::Relationship {
                a: pick_asn(&mut rng),
                b: pick_asn(&mut rng),
                plane: pick_plane(&mut rng),
            },
            92..=95 => Request::Summary,
            _ => Request::MemStats,
        })
        .collect()
}

/// Per-client derived seed: decorrelates client streams while staying a
/// pure function of (seed, client index).
fn client_seed(seed: u64, client: usize) -> u64 {
    seed ^ (client as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Load-generation parameters.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// The daemon address (`host:port`).
    pub addr: String,
    /// Total requests across all clients.
    pub requests: usize,
    /// Closed-loop client connections.
    pub clients: usize,
    /// Mix seed.
    pub seed: u64,
    /// How long to retry the initial connection.
    pub wait: Duration,
}

/// What one load-generation run measured.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// Requests actually issued (mix requests; the universe fetch and
    /// check probes are not counted).
    pub requests: usize,
    /// Wall-clock of the measurement section.
    pub elapsed: Duration,
    /// Requests per second over the measurement section.
    pub throughput_qps: f64,
    /// Median round-trip latency, nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile round-trip latency, nanoseconds.
    pub p99_ns: u64,
    /// Responses whose bytes differed from the local expectation (always
    /// 0 without a check state).
    pub mismatches: usize,
}

fn percentile(sorted: &[u64], pct: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[(sorted.len() - 1) * pct / 100]
}

/// Run the generator. With `expected`, every response — plus one
/// report-JSON and one universe probe — is byte-compared against the
/// local state.
pub fn run(
    config: &LoadgenConfig,
    expected: Option<&ResidentState>,
) -> Result<LoadgenReport, WireError> {
    // Fetch the universe (and cross-check the big frames while at it).
    let mut probe = Connection::connect_with_retry(&config.addr, config.wait)?;
    let universe_raw = probe.roundtrip_raw(&Request::Universe)?;
    let mut mismatches = 0usize;
    if let Some(state) = expected {
        if universe_raw != answer(state, &Request::Universe).encode() {
            mismatches += 1;
        }
        let report_raw = probe.roundtrip_raw(&Request::ReportJson)?;
        if report_raw != answer(state, &Request::ReportJson).encode() {
            mismatches += 1;
        }
    }
    let (universe, hybrid_pairs) = match Response::decode(&universe_raw)? {
        // `query_mix` cannot draw from nothing; refuse here rather than
        // panic on every client thread.
        Response::Universe { asns, .. } if asns.is_empty() => {
            return Err(WireError::Io(std::io::Error::other(
                "the server's AS universe is empty: no queries to draw",
            )))
        }
        Response::Universe { asns, hybrid_pairs } => (asns, hybrid_pairs),
        other => {
            return Err(WireError::Io(std::io::Error::other(format!(
                "universe query answered with {other:?}"
            ))))
        }
    };
    drop(probe);

    let clients = config.clients.max(1);
    let per_client =
        |c: usize| config.requests / clients + usize::from(c < config.requests % clients);
    let started = Instant::now();
    let results: Vec<Result<(Vec<u64>, usize), WireError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let universe = &universe;
                let hybrid_pairs = &hybrid_pairs;
                scope.spawn(move || {
                    let mix = query_mix(
                        universe,
                        hybrid_pairs,
                        client_seed(config.seed, c),
                        per_client(c),
                    );
                    let mut conn = Connection::connect_with_retry(&config.addr, config.wait)?;
                    let mut latencies = Vec::with_capacity(mix.len());
                    let mut mismatches = 0usize;
                    for request in &mix {
                        let sent = Instant::now();
                        let raw = conn.roundtrip_raw(request)?;
                        latencies
                            .push(u64::try_from(sent.elapsed().as_nanos()).unwrap_or(u64::MAX));
                        if let Some(state) = expected {
                            if raw != answer(state, request).encode() {
                                mismatches += 1;
                            }
                        }
                    }
                    Ok((latencies, mismatches))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("loadgen client panicked")).collect()
    });
    let elapsed = started.elapsed();

    let mut latencies = Vec::with_capacity(config.requests);
    for result in results {
        let (client_latencies, client_mismatches) = result?;
        latencies.extend(client_latencies);
        mismatches += client_mismatches;
    }
    latencies.sort_unstable();
    let requests = latencies.len();
    Ok(LoadgenReport {
        requests,
        elapsed,
        throughput_qps: requests as f64 / elapsed.as_secs_f64().max(1e-9),
        p50_ns: percentile(&latencies, 50),
        p99_ns: percentile(&latencies, 99),
        mismatches,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::TcpListener;

    #[test]
    fn an_empty_universe_is_an_error_not_a_panic() {
        // A one-connection fake server that answers the universe probe
        // with an empty snapshot.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind a free port");
        let addr = listener.local_addr().expect("bound address");
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept the probe");
            let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
            let mut writer = BufWriter::new(stream);
            let request = Request::decode(&read_frame(&mut reader).expect("read the probe"));
            assert_eq!(request.expect("decode the probe"), Request::Universe);
            let empty = Response::Universe { asns: Vec::new(), hybrid_pairs: Vec::new() };
            write_frame(&mut writer, &empty.encode()).expect("answer the probe");
            writer.flush().expect("flush the answer");
        });
        let config = LoadgenConfig {
            addr: addr.to_string(),
            requests: 16,
            clients: 2,
            seed: 1,
            wait: Duration::from_secs(5),
        };
        let err = run(&config, None).expect_err("an empty universe must fail the run");
        assert!(err.to_string().contains("empty"), "{err}");
        server.join().expect("fake server");
    }
}
