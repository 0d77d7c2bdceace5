//! Valley-path detection and attribution (Section 3, observation 3).

use serde::{Deserialize, Serialize};

use asgraph::valley::{classify_path, valley_free_distances, PathValidity};
use asgraph::AsGraph;
use bgp_types::{Asn, IpVersion};

use crate::extract::ExtractedData;

/// Why a valley path exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ValleyAttribution {
    /// No valley-free path exists between the path's endpoints under the
    /// same relationship annotation: the valley is required for
    /// reachability (the paper's "relaxation of the valley-free rule").
    ReachabilityRelaxation,
    /// A valley-free alternative exists; the valley is a policy violation
    /// or a plain route leak.
    PolicyViolation,
}

/// The outcome of classifying one plane's observed paths.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ValleyReport {
    /// Total distinct paths examined.
    pub total_paths: usize,
    /// Paths with at least two ASes whose every link is annotated.
    pub classifiable_paths: usize,
    /// Paths that satisfy the valley-free rule.
    pub valley_free_paths: usize,
    /// Paths that violate the valley-free rule.
    pub valley_paths: usize,
    /// Paths that could not be judged (some link unannotated).
    pub unknown_paths: usize,
    /// Valley paths attributed to reachability-driven relaxation.
    pub reachability_valleys: usize,
    /// Valley paths attributed to policy violations / leaks.
    pub violation_valleys: usize,
}

impl ValleyReport {
    /// Fraction of classifiable paths that are valleys (the paper's 13%).
    pub fn valley_fraction(&self) -> f64 {
        if self.classifiable_paths == 0 {
            0.0
        } else {
            self.valley_paths as f64 / self.classifiable_paths as f64
        }
    }

    /// Fraction of valley paths attributed to reachability (the paper's 16%).
    pub fn reachability_fraction(&self) -> f64 {
        if self.valley_paths == 0 {
            0.0
        } else {
            self.reachability_valleys as f64 / self.valley_paths as f64
        }
    }
}

/// Classify every observed path of `plane` against the relationship
/// annotation in `annotated`, and attribute each valley path to
/// reachability relaxation or policy violation.
///
/// Attribution uses the valley-free reachability between the path's first
/// AS and its origin: if no valley-free path exists between them, the
/// valley was necessary to reach the prefix at all.
pub fn analyze_valleys(
    data: &ExtractedData,
    annotated: &AsGraph,
    plane: IpVersion,
) -> ValleyReport {
    // Cache the valley-free distance maps per path head, so paths sharing a
    // feeder reuse one BFS.
    let mut reach_cache: std::collections::HashMap<Asn, Vec<Option<u32>>> =
        std::collections::HashMap::new();
    analyze_valleys_impl(data, annotated, plane, &mut |graph, head, origin| {
        let distances =
            reach_cache.entry(head).or_insert_with(|| valley_free_distances(graph, head, plane));
        graph.node(origin).and_then(|n| distances[n.index()]).is_some()
    })
}

/// [`analyze_valleys`] with an injected reachability oracle: `reachable`
/// answers "does a valley-free path from `head` to `origin` exist on the
/// annotated graph?". The default analysis passes a fresh-BFS closure; the
/// streaming ingest path ([`crate::ingest`]) passes one backed by
/// delta-repaired [`asgraph::DistanceMap`]s. Both oracles are exact, so
/// every caller produces the same report.
pub(crate) fn analyze_valleys_impl(
    data: &ExtractedData,
    annotated: &AsGraph,
    plane: IpVersion,
    reachable: &mut dyn FnMut(&AsGraph, Asn, Asn) -> bool,
) -> ValleyReport {
    let mut report = ValleyReport { total_paths: data.paths(plane).len(), ..Default::default() };

    for observed in data.paths(plane) {
        let path = &observed.path;
        if path.len() < 2 {
            continue;
        }
        match classify_path(annotated, path, plane) {
            PathValidity::Unknown { .. } => {
                report.unknown_paths += 1;
            }
            PathValidity::ValleyFree => {
                report.classifiable_paths += 1;
                report.valley_free_paths += 1;
            }
            PathValidity::Valley { .. } => {
                report.classifiable_paths += 1;
                report.valley_paths += 1;
                let head = path[0];
                let origin = *path.last().expect("non-empty");
                if reachable(annotated, head, origin) {
                    report.violation_valleys += 1;
                } else {
                    report.reachability_valleys += 1;
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::extract;
    use bgp_types::{
        CollectorId, PathAttributes, PeerId, Prefix, Relationship, RibEntry, RibSnapshot,
    };
    use std::net::IpAddr;

    fn v6_entry(prefix: &str, path: &str) -> RibEntry {
        RibEntry::new(
            PeerId::new(Asn(1), "2001:db8::1".parse::<IpAddr>().unwrap()),
            prefix.parse::<Prefix>().unwrap(),
            PathAttributes::with_path(path.parse().unwrap()),
        )
    }

    fn data_from(paths: &[&str]) -> ExtractedData {
        let mut snap = RibSnapshot::new(CollectorId::new("t"), 1);
        for (i, p) in paths.iter().enumerate() {
            snap.push(v6_entry(&format!("2001:db8:{:x}::/48", i + 1), p));
        }
        extract(&snap)
    }

    /// Annotation: 1 -c2p-> 2 -c2p-> 3; 3 -p2p- 4; 4 -p2c-> 5; plus a
    /// peer-only island 6 -p2p- 7 -p2p- 8.
    fn annotation() -> AsGraph {
        let mut g = AsGraph::new();
        g.annotate_both(Asn(2), Asn(1), Relationship::ProviderToCustomer);
        g.annotate_both(Asn(3), Asn(2), Relationship::ProviderToCustomer);
        g.annotate_both(Asn(3), Asn(4), Relationship::PeerToPeer);
        g.annotate_both(Asn(4), Asn(5), Relationship::ProviderToCustomer);
        g.annotate_both(Asn(6), Asn(7), Relationship::PeerToPeer);
        g.annotate_both(Asn(7), Asn(8), Relationship::PeerToPeer);
        g
    }

    #[test]
    fn classifies_valley_free_valley_and_unknown() {
        let data = data_from(&[
            "1 2 3 4 5",   // up, up, peer, down: valley-free
            "5 4 3 2 1",   // up, peer, down, down: valley-free
            "2 1 9",       // link 1-9 unannotated: unknown
            "4 3 2 1",     // peer then down down — wait: 4->3 p2p, 3->2 p2c, 2->1 p2c: valley-free
            "2 3 4 5",     // up, peer, down: valley-free
            "5 4 3 2",     // up, peer, down: valley-free
            "1 2 3 4 5 4", // loop would be discarded at extraction; not included
        ]);
        let g = annotation();
        let report = analyze_valleys(&data, &g, IpVersion::V6);
        assert_eq!(report.unknown_paths, 1);
        assert_eq!(report.valley_paths, 0);
        assert!(report.valley_free_paths >= 5);
        assert_eq!(report.valley_fraction(), 0.0);
        assert_eq!(report.reachability_fraction(), 0.0);
    }

    #[test]
    fn valley_paths_are_detected_and_attributed() {
        let data = data_from(&[
            // 6 -> 7 -> 8: two consecutive peering links = a valley, and no
            // valley-free alternative exists (peer-only island) so it is a
            // reachability relaxation.
            "6 7 8",
            // 5 -> 4 -> 3 -> 2 -> 1 is valley-free; but 3 -> 4 after a
            // descent: path 2 3 4 ... wait use "1 2 3" (up,up) fine. Use a
            // genuine violation with an alternative: 4 -> 5 is p2c, then
            // 5 has no other links, so craft 3 -> 4 -> 5 (peer, down) fine.
            // Violation with alternative: path "2 1" reversed? Use
            // "4 5" then "5 4 3": up, peer — valley-free. Keep it simple:
            // a down-then-up valley between annotated links where an
            // alternative exists: 1 and 9 unannotated won't do. Use
            // "3 2 1" down-down (fine) and "2 3 4 5" up-peer-down (fine).
            // The genuinely violating-with-alternative case:
            // path "5 4 3 2 3" would loop. Instead: "2 1" is p2c (down)
            // then nothing. So add a dedicated annotated triangle below.
            "11 12 13",
        ]);
        let mut g = annotation();
        // Triangle: 12 is provider of both 11 and 13; 11 and 13 also have a
        // direct peering, so 11 can reach 13 valley-free (via the peering),
        // but the observed path 11 -> 12 -> 13 climbs then descends — that
        // is valley-free too. For a violation-with-alternative we need a
        // path that descends then climbs while an alternative exists:
        // observed path 12 -> 11 -> 13 (down to 11, then 11-13 peering after
        // a descent = valley), while 12 -> 13 direct p2c exists.
        g.annotate_both(Asn(12), Asn(11), Relationship::ProviderToCustomer);
        g.annotate_both(Asn(12), Asn(13), Relationship::ProviderToCustomer);
        g.annotate_both(Asn(11), Asn(13), Relationship::PeerToPeer);
        let data2 = data_from(&["6 7 8", "12 11 13"]);
        let report = analyze_valleys(&data2, &g, IpVersion::V6);
        assert_eq!(report.valley_paths, 2);
        assert_eq!(report.reachability_valleys, 1, "6->8 has no valley-free alternative");
        assert_eq!(report.violation_valleys, 1, "12->13 has a direct valley-free path");
        assert!((report.valley_fraction() - 1.0).abs() < 1e-9);
        assert!((report.reachability_fraction() - 0.5).abs() < 1e-9);
        let _ = data; // silence unused in the simpler construction above
    }

    #[test]
    fn empty_data_produces_empty_report() {
        let report = analyze_valleys(&ExtractedData::default(), &AsGraph::new(), IpVersion::V6);
        assert_eq!(report.total_paths, 0);
        assert_eq!(report.valley_fraction(), 0.0);
        assert_eq!(report.reachability_fraction(), 0.0);
    }

    #[test]
    fn strict_simulation_yields_no_valleys_under_ground_truth() {
        use routesim::{Scenario, SimConfig};
        use topogen::TopologyConfig;
        let mut sim = SimConfig::small();
        sim.leak_probability = 0.0;
        sim.v6_reachability_relaxation = false;
        let scenario = Scenario::build(&TopologyConfig::tiny(), &sim);
        let data = extract(&scenario.pooled_snapshot(1));
        for plane in IpVersion::BOTH {
            let report = analyze_valleys(&data, &scenario.truth.graph, plane);
            assert_eq!(report.valley_paths, 0, "unexpected valleys on {plane}");
            assert_eq!(report.unknown_paths, 0, "ground truth annotates every link");
            assert!(report.valley_free_paths > 0);
        }
    }

    #[test]
    fn relaxed_v6_simulation_produces_reachability_valleys() {
        use routesim::{Scenario, SimConfig};
        use topogen::TopologyConfig;
        let mut sim = SimConfig::small();
        sim.leak_probability = 0.0;
        sim.v6_reachability_relaxation = true;
        // A sparse v6 plane makes valley-free partitions likely.
        let mut topo = TopologyConfig::tiny();
        topo.stub_ipv6_adoption = 0.25;
        topo.v6_only_peering_degree = 1.5;
        let scenario = Scenario::build(&topo, &sim);
        let data = extract(&scenario.pooled_snapshot(1));
        let report = analyze_valleys(&data, &scenario.truth.graph, IpVersion::V6);
        // The relaxation may or may not fire for a tiny topology; when it
        // does, every resulting valley must be attributed to reachability.
        assert_eq!(report.violation_valleys, 0);
        assert_eq!(report.valley_paths, report.reachability_valleys);
    }
}
