//! The resident daemon: accept loop, per-connection batching, epoch-aware
//! snapshot sharing.
//!
//! Architecture (the performance story of the crate):
//!
//! * **Immutable snapshots.** The scenario state lives in an
//!   [`EpochCell`] as an `Arc<Versioned<ResidentState>>`. A connection
//!   takes a fresh handle at the start of every batch; a reload builds
//!   the replacement outside any lock and publishes it with one pointer
//!   swap, so queries never block on a rebuild.
//! * **Batching.** A connection reads one request (blocking), then drains
//!   whatever complete frames the read buffer already holds — up to a
//!   fixed cap of 32 — and answers the whole batch against the snapshot
//!   loaded at its start.
//! * **Fan-out.** A batch is answered through [`routesim::shard_map`],
//!   the same deterministic in-order worker pool the pipeline uses, so
//!   responses come back in request order at any worker count.
//!
//! Responses are a pure function of (snapshot, request) — the what-if
//! scratch graph is restored after every query — so the byte stream a
//! client sees is independent of worker count, batching, and connection
//! interleaving. The service determinism suite pins exactly that.

use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use hybrid_tor::service::ResidentState;
use routesim::shard_map;

use crate::epoch::EpochCell;
use crate::protocol::{read_frame, write_frame, Request, Response};

/// How a reloaded snapshot is produced: a closure rebuilding the resident
/// state from the daemon's original inputs.
pub type Rebuild = Arc<dyn Fn() -> ResidentState + Send + Sync>;

/// Maximum requests one connection answers per batch: pipelined clients
/// amortise the fan-out, single-shot clients never wait for batch-mates.
const MAX_BATCH: usize = 32;

/// A bound daemon, ready to serve.
pub struct Server {
    listener: TcpListener,
    cell: Arc<EpochCell<ResidentState>>,
    rebuild: Rebuild,
    workers: usize,
}

impl Server {
    /// Bind to `addr` with an initial snapshot, a rebuild recipe for
    /// [`Request::Reload`] and `workers` threads (resolved; `>= 1`) for
    /// per-batch query fan-out.
    pub fn bind(
        addr: impl ToSocketAddrs,
        state: ResidentState,
        rebuild: Rebuild,
        workers: usize,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        Ok(Server { listener, cell: Arc::new(EpochCell::new(state)), rebuild, workers })
    }

    /// The address the server actually bound (port 0 resolves here).
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// The epoch cell, for callers that publish reloads out of band.
    pub fn cell(&self) -> Arc<EpochCell<ResidentState>> {
        Arc::clone(&self.cell)
    }

    /// Accept connections forever, one handler thread per connection.
    pub fn run(self) -> std::io::Result<()> {
        for stream in self.listener.incoming() {
            let stream = match stream {
                Ok(s) => s,
                Err(_) => continue,
            };
            let cell = Arc::clone(&self.cell);
            let rebuild = Arc::clone(&self.rebuild);
            let workers = self.workers;
            std::thread::spawn(move || {
                // A failed connection only ends that connection.
                let _ = handle_connection(stream, cell, rebuild, workers);
            });
        }
        Ok(())
    }
}

/// What one batch slot resolved to before the sequential write-back pass.
enum Planned {
    /// A pure response, computed on the worker pool.
    Pure(Response),
    /// A reload: published (and answered) sequentially, in stream order.
    Reload,
}

fn handle_connection(
    stream: TcpStream,
    cell: Arc<EpochCell<ResidentState>>,
    rebuild: Rebuild,
    workers: usize,
) -> Result<(), crate::protocol::WireError> {
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    loop {
        // Block for the first request of the tick; stop serving on EOF or
        // a transport-level framing violation (a peer that sends garbage
        // lengths cannot be resynchronised).
        let first = match read_frame(&mut reader) {
            Ok(frame) => frame,
            Err(_) => return Ok(()),
        };
        let mut frames = vec![first];
        // Greedily drain already-buffered complete frames into the batch:
        // pipelined clients get amortised fan-out, single-shot clients
        // keep single-request latency.
        while frames.len() < MAX_BATCH && !reader.buffer().is_empty() {
            frames.push(match read_frame(&mut reader) {
                Ok(frame) => frame,
                Err(_) => return Ok(()),
            });
        }

        // One snapshot per batch: an uncontended read lock and an `Arc`
        // clone, so a reload is picked up by the very next batch.
        let snapshot = cell.load();
        let requests: Vec<Result<Request, crate::protocol::WireError>> =
            frames.iter().map(|frame| Request::decode(frame)).collect();
        let state = snapshot.value();
        let planned: Vec<Planned> = shard_map(&requests, workers, |request| {
            match request {
                Ok(Request::Reload) => Planned::Reload,
                Ok(request) => Planned::Pure(answer(state, request)),
                // A malformed payload is an application-level error: the
                // framing is intact, so the stream stays usable.
                Err(e) => Planned::Pure(Response::Error(e.to_string())),
            }
        });
        for plan in planned {
            let response = match plan {
                Planned::Pure(response) => response,
                // A panicking rebuild publishes nothing: the current
                // epoch keeps serving and the client gets an error frame.
                Planned::Reload => match catch_unwind(AssertUnwindSafe(|| (rebuild)())) {
                    Ok(state) => Response::Reloaded { epoch: cell.publish(state) },
                    Err(panic) => {
                        Response::Error(format!("reload failed: {}", panic_message(&*panic)))
                    }
                },
            };
            write_frame(&mut writer, &response.encode())?;
        }
        writer.flush()?;
    }
}

/// The text a panic was raised with, for the error frame a failed reload
/// answers with.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> &str {
    panic
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("rebuild panicked")
}

/// Answer one request against one snapshot. Pure: equal `(state, request)`
/// pairs produce equal responses, which is what lets the server fan a
/// batch out over workers — and what lets `loadgen --check` recompute the
/// expected bytes locally. [`Request::Reload`] is the one non-pure request
/// and is intercepted by the server loop before this function.
pub fn answer(state: &ResidentState, request: &Request) -> Response {
    match *request {
        Request::Relationship { a, b, plane } => {
            Response::Relationship(state.relationship(a, b, plane))
        }
        Request::CustomerTree { root, plane } => {
            Response::CustomerTree(state.customer_tree(root, plane))
        }
        Request::Visibility { asn } => Response::Visibility(state.visibility(asn)),
        Request::WhatIf { a, b, plane, new, root } => state
            .what_if(a, b, plane, new, root)
            .map(Response::WhatIf)
            .unwrap_or_else(Response::Error),
        Request::Summary => Response::Json(state.summary_json().to_string()),
        Request::ReportJson => Response::Json(state.report_json().to_string()),
        Request::MemStats => Response::MemStats(state.memory()),
        Request::Universe => Response::Universe {
            asns: state.universe().to_vec(),
            hybrid_pairs: state.hybrid_pairs().to_vec(),
        },
        Request::Reload => Response::Error("reload is handled by the server loop".to_string()),
    }
}
