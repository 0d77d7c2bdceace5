//! # mrt
//!
//! A from-scratch reader and writer for the MRT routing-information export
//! format (RFC 6396), covering the record types a BGP route collector
//! archive actually contains:
//!
//! * `TABLE_DUMP_V2` — `PEER_INDEX_TABLE`, `RIB_IPV4_UNICAST` and
//!   `RIB_IPV6_UNICAST` records, i.e. the periodic full-table snapshots
//!   ("bview"/"rib" files) that the paper's methodology consumes.
//! * `BGP4MP` — `BGP4MP_MESSAGE_AS4` update messages, so incremental
//!   update archives can be replayed too.
//!
//! The BGP UPDATE wire codec (path attributes, NLRI encoding, the
//! MP_REACH_NLRI next-hop-only form used inside TABLE_DUMP_V2) is
//! implemented in [`bgp`], and is shared by both record families.
//!
//! The crate converts between the wire format and the in-memory
//! [`bgp_types::RibSnapshot`] model, which is what the rest of the
//! workspace operates on:
//!
//! ```
//! use bgp_types::{Asn, CollectorId, PathAttributes, PeerId, RibEntry, RibSnapshot};
//! use mrt::{read_snapshot, write_snapshot};
//! use std::net::{IpAddr, Ipv6Addr};
//!
//! let mut snap = RibSnapshot::new(CollectorId::new("example"), 1_280_000_000);
//! let peer = PeerId::new(Asn(6939), IpAddr::V6(Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, 1)));
//! snap.push(RibEntry::new(
//!     peer,
//!     "2001:db8:100::/40".parse().unwrap(),
//!     PathAttributes::with_path("6939 2914 3333".parse().unwrap()),
//! ));
//!
//! let mut buf = Vec::new();
//! write_snapshot(&mut buf, &snap).unwrap();
//! let decoded = read_snapshot(&buf[..]).unwrap();
//! assert_eq!(decoded.len(), 1);
//! assert_eq!(decoded.entries[0].prefix, snap.entries[0].prefix);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod bgp;
pub mod bgp4mp;
pub mod error;
pub mod reader;
pub mod record;
pub mod table_dump;
pub mod writer;

pub use bgp4mp::Bgp4mpMessage;
pub use error::MrtError;
pub use reader::{read_snapshot, read_snapshot_bytes, read_snapshot_from_path, MrtBytesReader};
pub use record::{MrtHeader, MrtRecord, MrtRecordBody, MrtType};
pub use writer::{write_snapshot, write_snapshot_to_path, MrtWriter};
