//! # bgp-types
//!
//! Primitive vocabulary shared by every other crate in the workspace:
//! autonomous-system numbers, IPv4/IPv6 prefixes, BGP communities, AS
//! paths, BGP path attributes, business relationships and RIB entries.
//!
//! The types are deliberately small, `Copy` where possible, and carry no
//! behaviour beyond parsing, formatting and validation, so that the
//! measurement pipeline (`hybrid-tor`), the simulator (`routesim`) and the
//! MRT codec (`mrt`) all speak exactly the same language.
//!
//! ## Quick example
//!
//! ```
//! use bgp_types::{Asn, Community, AsPath, Relationship, IpVersion};
//!
//! let path: AsPath = "3356 1299 6939 112".parse().unwrap();
//! assert_eq!(path.origin(), Some(Asn(112)));
//! assert_eq!(path.len(), 4);
//!
//! let c: Community = "3356:2010".parse().unwrap();
//! assert_eq!(c.asn(), Asn(3356));
//! assert_eq!(c.value(), 2010);
//!
//! assert_eq!(Relationship::ProviderToCustomer.reverse(),
//!            Relationship::CustomerToProvider);
//! assert_eq!(IpVersion::V6.to_string(), "IPv6");
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod asn;
pub mod aspath;
pub mod attrs;
pub mod community;
pub mod error;
pub mod hash;
pub mod prefix;
pub mod relationship;
pub mod rib;

pub use asn::{Asn, AsnSet};
pub use aspath::{AsPath, AsPathSegment};
pub use attrs::{Origin, PathAttributes};
pub use community::{Community, CommunitySet, LargeCommunity};
pub use error::{ParseError, TypeError};
pub use hash::{FastMap, FastSet, FastState};
pub use prefix::{IpVersion, Ipv4Net, Ipv6Net, Prefix};
pub use relationship::{Relationship, RelationshipPair};
pub use rib::{CollectorId, PeerId, RibEntry, RibSnapshot, RouteSource};
