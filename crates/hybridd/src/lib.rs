//! # hybridd
//!
//! The resident query daemon: build one scenario snapshot ([`hybrid_tor::
//! service::ResidentState`]) and serve relationship, customer-tree,
//! visibility and what-if queries over a hand-rolled length-prefixed
//! binary protocol on `std::net` — no async runtime, vendor-shim
//! friendly.
//!
//! * [`protocol`] — the wire format: framed requests/responses with
//!   strict decoding (truncation, oversizing and trailing bytes are all
//!   errors).
//! * [`server`] — the accept loop: per-connection batching, deterministic
//!   [`routesim::shard_map`] fan-out, and copy-on-write epoch snapshots
//!   ([`epoch::EpochCell`]) so reloads never block queries.
//! * [`epoch`] — the snapshot cell a reload publishes into.
//! * [`loadgen`] — closed-loop clients replaying a deterministic ChaCha8
//!   query mix, recording throughput and p50/p99 latency, optionally
//!   byte-checking every response against a locally rebuilt snapshot.
//!
//! The crate ships two binaries: `hybridd` (the daemon) and `loadgen`
//! (the measurement/validation client). See the repository README's
//! "Resident service" section for the frame layout and a quickstart.

#![deny(missing_docs)]
#![deny(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod epoch;
pub mod loadgen;
pub mod protocol;
pub mod server;

pub use loadgen::{query_mix, Connection, LoadgenConfig, LoadgenReport};
pub use protocol::{read_frame, write_frame, Request, Response, WireError, MAX_FRAME};
pub use server::{answer, Rebuild, Server};
