//! Routing Information Base entries as observed at a route collector.
//!
//! A [`RibSnapshot`] is the in-memory equivalent of one MRT TABLE_DUMP_V2
//! file: the routes that every peer of one collector had installed at the
//! snapshot instant. The measurement pipeline in `hybrid-tor` consumes
//! these snapshots regardless of whether they were decoded from MRT files
//! or produced directly by the `routesim` simulator.

use std::fmt;
use std::net::IpAddr;

use serde::{Deserialize, Serialize};

use crate::asn::Asn;
use crate::attrs::PathAttributes;
use crate::prefix::{IpVersion, Prefix};

/// Identifies a route collector (e.g. "route-views2", "rrc00").
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CollectorId(pub String);

impl CollectorId {
    /// Construct from anything string-like.
    pub fn new(name: impl Into<String>) -> Self {
        CollectorId(name.into())
    }

    /// The collector name.
    pub fn name(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for CollectorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for CollectorId {
    fn from(s: &str) -> Self {
        CollectorId(s.to_string())
    }
}

/// Identifies one BGP peer (feeder) of a collector: the AS that gave us its
/// view of the routing table, and the address it peers from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PeerId {
    /// The feeder's ASN.
    pub asn: Asn,
    /// The feeder's peering address (determines which plane it feeds).
    pub addr: IpAddr,
}

impl PeerId {
    /// Construct a peer identity.
    pub fn new(asn: Asn, addr: IpAddr) -> Self {
        PeerId { asn, addr }
    }

    /// The plane implied by the peering address family. Real collectors
    /// receive IPv6 routes over IPv6 sessions almost exclusively, and the
    /// simulator follows the same convention.
    pub fn plane(&self) -> IpVersion {
        match self.addr {
            IpAddr::V4(_) => IpVersion::V4,
            IpAddr::V6(_) => IpVersion::V6,
        }
    }
}

impl fmt::Display for PeerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AS{}@{}", self.asn, self.addr)
    }
}

/// Where a RIB entry came from, for provenance in reports.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub enum RouteSource {
    /// Decoded from an MRT TABLE_DUMP_V2 file.
    #[default]
    MrtTableDump,
    /// Decoded from MRT BGP4MP update messages.
    MrtUpdates,
    /// Produced directly by the route propagation simulator.
    Simulated,
}

impl fmt::Display for RouteSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteSource::MrtTableDump => write!(f, "mrt-table-dump"),
            RouteSource::MrtUpdates => write!(f, "mrt-updates"),
            RouteSource::Simulated => write!(f, "simulated"),
        }
    }
}

/// One route: a prefix as seen from one collector peer, with its full
/// attribute set.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RibEntry {
    /// The peer that exported this route to the collector.
    pub peer: PeerId,
    /// The announced prefix.
    pub prefix: Prefix,
    /// The BGP path attributes.
    pub attrs: PathAttributes,
    /// Provenance.
    pub source: RouteSource,
}

impl RibEntry {
    /// Construct an entry.
    pub fn new(peer: PeerId, prefix: Prefix, attrs: PathAttributes) -> Self {
        RibEntry { peer, prefix, attrs, source: RouteSource::default() }
    }

    /// The plane of the announced prefix (not of the peering session).
    pub fn plane(&self) -> IpVersion {
        self.prefix.version()
    }

    /// The origin AS of the route, if determinable.
    pub fn origin_asn(&self) -> Option<Asn> {
        self.attrs.as_path.origin()
    }

    /// True if the AS path is unusable for topology measurement; see
    /// [`crate::AsPath::is_bogus`].
    pub fn has_bogus_path(&self) -> bool {
        self.attrs.as_path.is_bogus()
    }
}

impl fmt::Display for RibEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} path [{}]", self.peer, self.prefix, self.attrs.as_path)?;
        if let Some(lp) = self.attrs.local_pref {
            write!(f, " lp {lp}")?;
        }
        if !self.attrs.communities.is_empty() {
            write!(f, " comm [{}]", self.attrs.communities)?;
        }
        Ok(())
    }
}

/// All routes observed at one collector at one snapshot instant.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct RibSnapshot {
    /// Which collector this snapshot belongs to.
    pub collector: Option<CollectorId>,
    /// Snapshot timestamp, seconds since the UNIX epoch.
    pub timestamp: u64,
    /// The routes.
    pub entries: Vec<RibEntry>,
}

impl RibSnapshot {
    /// An empty snapshot for the given collector.
    pub fn new(collector: CollectorId, timestamp: u64) -> Self {
        RibSnapshot { collector: Some(collector), timestamp, entries: Vec::new() }
    }

    /// Number of routes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the snapshot holds no routes.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Add a route.
    pub fn push(&mut self, entry: RibEntry) {
        self.entries.push(entry);
    }

    /// Iterate routes of one plane only.
    pub fn plane_entries(&self, plane: IpVersion) -> impl Iterator<Item = &RibEntry> {
        self.entries.iter().filter(move |e| e.plane() == plane)
    }

    /// The distinct peers that contributed at least one route.
    pub fn peers(&self) -> Vec<PeerId> {
        let mut peers: Vec<PeerId> = self.entries.iter().map(|e| e.peer).collect();
        peers.sort();
        peers.dedup();
        peers
    }

    /// Merge another snapshot's routes into this one (used to pool multiple
    /// collectors, as the paper pools RouteViews and RIS).
    pub fn merge(&mut self, other: RibSnapshot) {
        self.entries.extend(other.entries);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::community::Community;
    use std::net::{Ipv4Addr, Ipv6Addr};

    fn v6_peer(asn: u32) -> PeerId {
        PeerId::new(Asn(asn), IpAddr::V6(Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, asn as u16)))
    }

    fn v4_peer(asn: u32) -> PeerId {
        PeerId::new(Asn(asn), IpAddr::V4(Ipv4Addr::new(192, 0, 2, asn as u8)))
    }

    fn entry(peer: PeerId, prefix: &str, path: &str) -> RibEntry {
        RibEntry::new(
            peer,
            prefix.parse().unwrap(),
            PathAttributes::with_path(path.parse().unwrap()),
        )
    }

    #[test]
    fn collector_and_peer_identity() {
        let c = CollectorId::new("route-views2");
        assert_eq!(c.name(), "route-views2");
        assert_eq!(c.to_string(), "route-views2");
        assert_eq!(CollectorId::from("rrc00"), CollectorId::new("rrc00"));

        let p = v6_peer(6939);
        assert_eq!(p.plane(), IpVersion::V6);
        assert_eq!(v4_peer(3356).plane(), IpVersion::V4);
        assert!(p.to_string().starts_with("AS6939@"));
    }

    #[test]
    fn rib_entry_accessors() {
        let e = entry(v6_peer(6939), "2001:db8::/32", "6939 2914 3333");
        assert_eq!(e.plane(), IpVersion::V6);
        assert_eq!(e.origin_asn(), Some(Asn(3333)));
        assert!(!e.has_bogus_path());
        assert_eq!(e.source, RouteSource::MrtTableDump);
        let shown = e.to_string();
        assert!(shown.contains("2001:db8::/32"));
        assert!(shown.contains("6939 2914 3333"));
    }

    #[test]
    fn bogus_path_detection() {
        let empty =
            RibEntry::new(v4_peer(1), "10.0.0.0/8".parse().unwrap(), PathAttributes::originated());
        assert!(empty.has_bogus_path());
        let looped = entry(v4_peer(1), "10.0.0.0/8", "1 2 1");
        assert!(looped.has_bogus_path());
        let private = entry(v4_peer(1), "10.0.0.0/8", "1 64512 2");
        assert!(private.has_bogus_path());
        let fine = entry(v4_peer(1), "10.0.0.0/8", "1 2 3");
        assert!(!fine.has_bogus_path());
    }

    #[test]
    fn display_includes_local_pref_and_communities() {
        let mut e = entry(v4_peer(3356), "10.0.0.0/8", "3356 112");
        e.attrs.local_pref = Some(300);
        e.attrs.communities.insert(Community::new(3356, 123));
        let s = e.to_string();
        assert!(s.contains("lp 300"));
        assert!(s.contains("3356:123"));
    }

    #[test]
    fn snapshot_filtering_and_merge() {
        let mut snap = RibSnapshot::new(CollectorId::new("sim0"), 1_280_000_000);
        assert!(snap.is_empty());
        snap.push(entry(v6_peer(6939), "2001:db8::/32", "6939 3333"));
        snap.push(entry(v4_peer(6939), "10.0.0.0/8", "6939 3333"));
        snap.push(entry(v6_peer(174), "2001:db8:1::/48", "174 3333"));
        assert_eq!(snap.len(), 3);
        assert_eq!(snap.plane_entries(IpVersion::V6).count(), 2);
        assert_eq!(snap.plane_entries(IpVersion::V4).count(), 1);
        assert_eq!(snap.peers().len(), 3);

        let mut other = RibSnapshot::new(CollectorId::new("sim1"), 1_280_000_000);
        other.push(entry(v4_peer(3356), "10.0.0.0/8", "3356 3333"));
        snap.merge(other);
        assert_eq!(snap.len(), 4);
        assert_eq!(snap.peers().len(), 4);
    }

    #[test]
    fn route_source_display() {
        assert_eq!(RouteSource::MrtTableDump.to_string(), "mrt-table-dump");
        assert_eq!(RouteSource::MrtUpdates.to_string(), "mrt-updates");
        assert_eq!(RouteSource::Simulated.to_string(), "simulated");
        assert_eq!(RouteSource::default(), RouteSource::MrtTableDump);
    }

    #[test]
    fn serde_roundtrip() {
        let e = entry(v6_peer(6939), "2001:db8::/32", "6939 2914 3333");
        let json = serde_json::to_string(&e).unwrap();
        let back: RibEntry = serde_json::from_str(&json).unwrap();
        assert_eq!(back, e);
    }
}
