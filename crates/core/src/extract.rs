//! Extraction of AS paths and AS links from collector RIB snapshots.

use serde::{Deserialize, Serialize};

use asgraph::AsGraph;
use bgp_types::{Asn, FastMap, IpVersion, RibSnapshot};

/// One distinct observed AS path on one plane, with how many RIB entries
/// carried it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObservedPath {
    /// The de-prepended AS path, collector peer first, origin last.
    pub path: Vec<Asn>,
    /// How many (peer, prefix) RIB entries used this exact path.
    pub occurrences: usize,
}

/// Everything extracted from the RIBs, per plane.
#[derive(Debug, Clone, Default)]
pub struct ExtractedData {
    /// Link-presence graph: every AS link observed on either plane
    /// (no relationship annotations yet).
    pub graph: AsGraph,
    /// Distinct IPv4 paths.
    pub paths_v4: Vec<ObservedPath>,
    /// Distinct IPv6 paths.
    pub paths_v6: Vec<ObservedPath>,
    /// Number of RIB entries inspected per plane (after sanitisation).
    pub entries_v4: usize,
    /// Number of RIB entries inspected on the IPv6 plane.
    pub entries_v6: usize,
    /// Number of RIB entries discarded as bogus (loops, reserved ASNs,
    /// empty paths), across both planes.
    pub discarded_entries: usize,
    /// How many distinct IPv6 paths traverse each link (canonical
    /// lower-ASN-first key); the paper's "visibility" of a link.
    pub v6_link_path_count: FastMap<(Asn, Asn), usize>,
}

impl ExtractedData {
    /// Distinct paths on a plane.
    pub fn paths(&self, plane: IpVersion) -> &[ObservedPath] {
        match plane {
            IpVersion::V4 => &self.paths_v4,
            IpVersion::V6 => &self.paths_v6,
        }
    }

    /// Number of distinct AS links observed on a plane.
    pub fn link_count(&self, plane: IpVersion) -> usize {
        self.graph.plane_edge_count(plane)
    }

    /// Number of distinct AS links observed on both planes.
    pub fn dual_stack_link_count(&self) -> usize {
        self.graph.dual_stack_edges().count()
    }

    /// The number of distinct IPv6 paths that traverse the given link.
    pub fn v6_link_visibility(&self, a: Asn, b: Asn) -> usize {
        let key = if a <= b { (a, b) } else { (b, a) };
        self.v6_link_path_count.get(&key).copied().unwrap_or(0)
    }
}

/// Extract paths and links from a pooled snapshot.
///
/// Paths are de-prepended and deduplicated; entries whose AS path is bogus
/// (empty, contains a loop after de-prepending, or contains reserved ASNs)
/// are discarded, as the paper's data cleaning does. Links adjacent to
/// AS_SET segments are not extracted because the true adjacency is unknown.
pub fn extract(snapshot: &RibSnapshot) -> ExtractedData {
    let mut data = ExtractedData::default();
    // Every entry's de-prepended path per plane (v4, v6); sorting brings
    // equal paths together, so deduplication is one merge of neighbours.
    let mut paths: [Vec<Vec<Asn>>; 2] = Default::default();

    for entry in &snapshot.entries {
        if entry.has_bogus_path() {
            data.discarded_entries += 1;
            continue;
        }
        let plane = entry.plane();
        match plane {
            IpVersion::V4 => data.entries_v4 += 1,
            IpVersion::V6 => data.entries_v6 += 1,
        }
        // Links (pairs inside sequence segments only).
        for (a, b) in entry.attrs.as_path.links() {
            data.graph.observe_link(a, b, plane);
        }
        // Full flattened path for path-level statistics; paths containing
        // sets still count as paths (the paper counts them) but their set
        // members are flattened in stored order.
        paths[usize::from(plane == IpVersion::V6)]
            .push(entry.attrs.as_path.deprepended_asns().collect());
    }

    // Materialise the deduplicated paths, each plane sorted by path.
    let [v4, v6] = paths;
    for (mut paths, out) in [(v4, &mut data.paths_v4), (v6, &mut data.paths_v6)] {
        paths.sort_unstable();
        for path in paths {
            match out.last_mut() {
                Some(last) if last.path == path => last.occurrences += 1,
                _ => out.push(ObservedPath { path, occurrences: 1 }),
            }
        }
    }

    // Per-link IPv6 path visibility over *distinct* paths.
    for observed in &data.paths_v6 {
        for pair in observed.path.windows(2) {
            let key = if pair[0] <= pair[1] { (pair[0], pair[1]) } else { (pair[1], pair[0]) };
            *data.v6_link_path_count.entry(key).or_insert(0) += 1;
        }
    }
    data
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_types::{CollectorId, PathAttributes, PeerId, Prefix, RibEntry};
    use std::net::IpAddr;

    fn entry(peer_asn: u32, peer_addr: &str, prefix: &str, path: &str) -> RibEntry {
        RibEntry::new(
            PeerId::new(Asn(peer_asn), peer_addr.parse::<IpAddr>().unwrap()),
            prefix.parse::<Prefix>().unwrap(),
            PathAttributes::with_path(path.parse().unwrap()),
        )
    }

    fn snapshot(entries: Vec<RibEntry>) -> RibSnapshot {
        let mut s = RibSnapshot::new(CollectorId::new("t"), 1);
        for e in entries {
            s.push(e);
        }
        s
    }

    #[test]
    fn extracts_paths_and_links_per_plane() {
        let snap = snapshot(vec![
            entry(10, "2001:db8::1", "2001:db8:100::/48", "10 20 30"),
            entry(10, "2001:db8::1", "2001:db8:200::/48", "10 20 30"), // same path
            entry(10, "2001:db8::1", "2001:db8:300::/48", "10 40"),
            entry(10, "192.0.2.1", "198.51.100.0/24", "10 20 30"),
        ]);
        let data = extract(&snap);
        assert_eq!(data.paths_v6.len(), 2);
        assert_eq!(data.paths_v4.len(), 1);
        assert_eq!(data.entries_v6, 3);
        assert_eq!(data.entries_v4, 1);
        assert_eq!(data.discarded_entries, 0);
        assert_eq!(data.link_count(IpVersion::V6), 3); // 10-20, 20-30, 10-40
        assert_eq!(data.link_count(IpVersion::V4), 2);
        assert_eq!(data.dual_stack_link_count(), 2);
        // The duplicated path has occurrences 2.
        let p = data.paths_v6.iter().find(|p| p.path == vec![Asn(10), Asn(20), Asn(30)]).unwrap();
        assert_eq!(p.occurrences, 2);
        assert_eq!(data.paths(IpVersion::V6).len(), 2);
        assert_eq!(data.paths(IpVersion::V4).len(), 1);
    }

    #[test]
    fn bogus_paths_are_discarded() {
        let snap = snapshot(vec![
            entry(10, "192.0.2.1", "198.51.100.0/24", "10 20 10"), // loop
            entry(10, "192.0.2.1", "198.51.101.0/24", "10 64512 30"), // private ASN
            entry(10, "192.0.2.1", "198.51.102.0/24", "10 20"),
        ]);
        let data = extract(&snap);
        assert_eq!(data.discarded_entries, 2);
        assert_eq!(data.paths_v4.len(), 1);
        assert_eq!(data.link_count(IpVersion::V4), 1);
    }

    #[test]
    fn prepending_is_collapsed_and_sets_break_links() {
        let snap = snapshot(vec![entry(
            10,
            "2001:db8::1",
            "2001:db8:100::/48",
            "10 10 20 {30,31} 40 40 50",
        )]);
        let data = extract(&snap);
        assert_eq!(data.paths_v6.len(), 1);
        // Links: only within sequences: 10-20 and 40-50.
        assert_eq!(data.link_count(IpVersion::V6), 2);
        assert!(data.graph.has_link(Asn(10), Asn(20), IpVersion::V6));
        assert!(data.graph.has_link(Asn(40), Asn(50), IpVersion::V6));
        assert!(!data.graph.has_link(Asn(20), Asn(30), IpVersion::V6));
        // The stored path is de-prepended but keeps set members.
        assert_eq!(
            data.paths_v6[0].path,
            vec![Asn(10), Asn(20), Asn(30), Asn(31), Asn(40), Asn(50)]
        );
    }

    #[test]
    fn link_visibility_counts_distinct_v6_paths() {
        let snap = snapshot(vec![
            entry(10, "2001:db8::1", "2001:db8:100::/48", "10 20 30"),
            entry(11, "2001:db8::2", "2001:db8:100::/48", "11 20 30"),
            entry(10, "2001:db8::1", "2001:db8:200::/48", "10 20 40"),
        ]);
        let data = extract(&snap);
        assert_eq!(data.v6_link_visibility(Asn(20), Asn(30)), 2);
        assert_eq!(data.v6_link_visibility(Asn(30), Asn(20)), 2);
        assert_eq!(data.v6_link_visibility(Asn(10), Asn(20)), 2);
        assert_eq!(data.v6_link_visibility(Asn(20), Asn(40)), 1);
        assert_eq!(data.v6_link_visibility(Asn(99), Asn(100)), 0);
    }

    #[test]
    fn empty_snapshot_extracts_nothing() {
        let data = extract(&RibSnapshot::default());
        assert_eq!(data.paths_v4.len() + data.paths_v6.len(), 0);
        assert_eq!(data.graph.node_count(), 0);
        assert_eq!(data.dual_stack_link_count(), 0);
    }

    #[test]
    fn extraction_from_simulated_scenario_is_consistent_with_truth() {
        use routesim::{Scenario, SimConfig};
        use topogen::TopologyConfig;
        let scenario = Scenario::build(&TopologyConfig::tiny(), &SimConfig::small());
        let data = extract(&scenario.pooled_snapshot(1));
        // Every observed link must exist in the ground-truth graph on the
        // same plane.
        for plane in IpVersion::BOTH {
            for edge in data.graph.plane_edges(plane) {
                assert!(
                    scenario.truth.graph.has_link(edge.a, edge.b, plane),
                    "observed {}-{} on {plane} not in ground truth",
                    edge.a,
                    edge.b
                );
            }
        }
        assert!(data.paths_v6.len() > 10);
        assert!(data.link_count(IpVersion::V4) >= data.dual_stack_link_count());
    }
}
