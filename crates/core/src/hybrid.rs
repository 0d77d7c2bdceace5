//! Hybrid IPv4/IPv6 relationship detection and visibility analysis.

use serde::{Deserialize, Serialize};

use bgp_types::{Asn, FastSet, IpVersion, RelationshipPair};
use topogen::HybridClass;

use crate::communities::CommunityInference;
use crate::extract::ExtractedData;

/// One detected hybrid link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HybridFinding {
    /// First endpoint (lower ASN).
    pub a: Asn,
    /// Second endpoint.
    pub b: Asn,
    /// The inferred per-plane relationships, oriented `a → b`.
    pub relationships: RelationshipPair,
    /// The hybrid class.
    pub class: HybridClass,
    /// How many distinct IPv6 paths traverse this link.
    pub v6_path_visibility: usize,
}

/// The result of the hybrid analysis (the paper's Section 3, observations
/// 1 and 2).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct HybridReport {
    /// Dual-stack links whose relationship is known on both planes.
    pub dual_stack_classified: usize,
    /// The detected hybrid links, sorted by descending IPv6 visibility.
    pub findings: Vec<HybridFinding>,
    /// Hybrids that are p2p on IPv4 and transit on IPv6.
    pub peering_v4_transit_v6: usize,
    /// Hybrids that are transit on IPv4 and p2p on IPv6.
    pub transit_v4_peering_v6: usize,
    /// Hybrids with opposite transit directions.
    pub opposite_transit: usize,
    /// Hybrids involving a sibling relationship on one plane (not part of
    /// the paper's taxonomy, reported separately).
    pub sibling_change: usize,
    /// Number of distinct IPv6 paths in the dataset.
    pub ipv6_paths: usize,
    /// IPv6 paths that traverse at least one hybrid link.
    pub ipv6_paths_with_hybrid: usize,
}

impl HybridReport {
    /// Fraction of classified dual-stack links that are hybrid.
    pub fn hybrid_fraction(&self) -> f64 {
        if self.dual_stack_classified == 0 {
            0.0
        } else {
            self.findings.len() as f64 / self.dual_stack_classified as f64
        }
    }

    /// Fraction of IPv6 paths that traverse at least one hybrid link.
    pub fn path_visibility_fraction(&self) -> f64 {
        if self.ipv6_paths == 0 {
            0.0
        } else {
            self.ipv6_paths_with_hybrid as f64 / self.ipv6_paths as f64
        }
    }

    /// Share of hybrids that are p2p on IPv4 / transit on IPv6.
    pub fn peering_v4_transit_v6_share(&self) -> f64 {
        if self.findings.is_empty() {
            0.0
        } else {
            self.peering_v4_transit_v6 as f64 / self.findings.len() as f64
        }
    }

    /// The `k` most visible hybrid links (by IPv6 path count).
    pub fn top_by_visibility(&self, k: usize) -> &[HybridFinding] {
        &self.findings[..k.min(self.findings.len())]
    }
}

/// Detect hybrid links by comparing the per-plane inferred relationships of
/// every dual-stack link observed in the data.
pub fn detect_hybrids(data: &ExtractedData, inference: &CommunityInference) -> HybridReport {
    let mut report = HybridReport { ipv6_paths: data.paths_v6.len(), ..Default::default() };

    let mut hybrid_links: FastSet<(Asn, Asn)> = FastSet::default();
    for edge in data.graph.dual_stack_edges() {
        let (a, b) = if edge.a <= edge.b { (edge.a, edge.b) } else { (edge.b, edge.a) };
        let Some(v4) = inference.relationship(a, b, IpVersion::V4) else { continue };
        let Some(v6) = inference.relationship(a, b, IpVersion::V6) else { continue };
        report.dual_stack_classified += 1;
        let pair = RelationshipPair::new(v4, v6);
        if !pair.is_hybrid() {
            continue;
        }
        let class = match HybridClass::classify(pair) {
            Some(c) => c,
            None => {
                // A sibling on one plane only: outside the paper's taxonomy.
                report.sibling_change += 1;
                continue;
            }
        };
        match class {
            HybridClass::PeeringV4TransitV6 => report.peering_v4_transit_v6 += 1,
            HybridClass::TransitV4PeeringV6 => report.transit_v4_peering_v6 += 1,
            HybridClass::OppositeTransit => report.opposite_transit += 1,
        }
        hybrid_links.insert((a, b));
        report.findings.push(HybridFinding {
            a,
            b,
            relationships: pair,
            class,
            v6_path_visibility: data.v6_link_visibility(a, b),
        });
    }

    // Visibility: IPv6 paths that cross at least one hybrid link.
    report.ipv6_paths_with_hybrid = data
        .paths_v6
        .iter()
        .filter(|p| {
            p.path.windows(2).any(|w| {
                let key = if w[0] <= w[1] { (w[0], w[1]) } else { (w[1], w[0]) };
                hybrid_links.contains(&key)
            })
        })
        .count();

    report.findings.sort_by(|x, y| {
        y.v6_path_visibility.cmp(&x.v6_path_visibility).then(x.a.cmp(&y.a)).then(x.b.cmp(&y.b))
    });
    report
}

/// Convenience used by tests and ablations: detect hybrids using the
/// *ground-truth* relationships of an annotated graph instead of an
/// inference (what a perfect-coverage measurement would see).
pub fn detect_hybrids_from_graph(
    data: &ExtractedData,
    annotated: &asgraph::AsGraph,
) -> HybridReport {
    let mut inference = CommunityInference::default();
    for edge in annotated.edges() {
        for plane in IpVersion::BOTH {
            if let Some(rel) = edge.rel(plane) {
                inference.add_vote(edge.a, edge.b, plane, rel, 1);
            }
        }
    }
    inference.resolve_all();
    detect_hybrids(data, &inference)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::extract;
    use bgp_types::{
        CollectorId, PathAttributes, PeerId, Prefix, Relationship, RibEntry, RibSnapshot,
    };
    use std::net::IpAddr;

    fn entry(prefix: &str, path: &str) -> RibEntry {
        let addr: IpAddr = if prefix.contains(':') {
            "2001:db8::1".parse().unwrap()
        } else {
            "192.0.2.1".parse().unwrap()
        };
        RibEntry::new(
            PeerId::new(Asn(10), addr),
            prefix.parse::<Prefix>().unwrap(),
            PathAttributes::with_path(path.parse().unwrap()),
        )
    }

    /// Observed data where links 10-20 and 20-30 are dual stack, plus a
    /// v6-only 10-40 link.
    fn observed() -> ExtractedData {
        let mut snap = RibSnapshot::new(CollectorId::new("t"), 1);
        for e in [
            entry("2001:db8:1::/48", "10 20 30"),
            entry("2001:db8:2::/48", "10 40"),
            entry("2001:db8:3::/48", "10 20"),
            entry("198.51.100.0/24", "10 20 30"),
        ] {
            snap.push(e);
        }
        extract(&snap)
    }

    fn inference_with(pairs: &[(u32, u32, Relationship, Relationship)]) -> CommunityInference {
        let mut inf = CommunityInference::default();
        for &(a, b, v4, v6) in pairs {
            inf.add_vote(Asn(a), Asn(b), IpVersion::V4, v4, 1);
            inf.add_vote(Asn(a), Asn(b), IpVersion::V6, v6, 1);
        }
        inf.resolve_all();
        inf
    }

    #[test]
    fn detects_and_classifies_hybrid_links() {
        let data = observed();
        let inf = inference_with(&[
            (10, 20, Relationship::PeerToPeer, Relationship::ProviderToCustomer),
            (20, 30, Relationship::ProviderToCustomer, Relationship::ProviderToCustomer),
        ]);
        let report = detect_hybrids(&data, &inf);
        assert_eq!(report.dual_stack_classified, 2);
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.peering_v4_transit_v6, 1);
        assert_eq!(report.transit_v4_peering_v6, 0);
        assert_eq!(report.opposite_transit, 0);
        let f = report.findings[0];
        assert_eq!((f.a, f.b), (Asn(10), Asn(20)));
        assert_eq!(f.class, HybridClass::PeeringV4TransitV6);
        assert_eq!(f.v6_path_visibility, 2);
        assert!((report.hybrid_fraction() - 0.5).abs() < 1e-9);
        // 2 of 3 distinct v6 paths cross 10-20.
        assert_eq!(report.ipv6_paths, 3);
        assert_eq!(report.ipv6_paths_with_hybrid, 2);
        assert!((report.path_visibility_fraction() - 2.0 / 3.0).abs() < 1e-9);
        assert!((report.peering_v4_transit_v6_share() - 1.0).abs() < 1e-9);
        assert_eq!(report.top_by_visibility(5).len(), 1);
        assert_eq!(report.top_by_visibility(0).len(), 0);
    }

    #[test]
    fn links_with_missing_plane_inference_are_not_counted() {
        let data = observed();
        // Only the v6 side of 10-20 is known.
        let mut inf = CommunityInference::default();
        inf.add_vote(Asn(10), Asn(20), IpVersion::V6, Relationship::ProviderToCustomer, 1);
        inf.resolve_all();
        let report = detect_hybrids(&data, &inf);
        assert_eq!(report.dual_stack_classified, 0);
        assert!(report.findings.is_empty());
        assert_eq!(report.hybrid_fraction(), 0.0);
        assert_eq!(report.path_visibility_fraction(), 0.0);
    }

    #[test]
    fn v6_only_links_are_never_hybrid_candidates() {
        let data = observed();
        let inf =
            inference_with(&[(10, 40, Relationship::PeerToPeer, Relationship::ProviderToCustomer)]);
        let report = detect_hybrids(&data, &inf);
        assert!(report.findings.is_empty(), "10-40 is not dual stack");
    }

    #[test]
    fn sibling_changes_are_reported_separately() {
        let data = observed();
        let inf = inference_with(&[(
            10,
            20,
            Relationship::SiblingToSibling,
            Relationship::ProviderToCustomer,
        )]);
        let report = detect_hybrids(&data, &inf);
        assert_eq!(report.sibling_change, 1);
        assert!(report.findings.is_empty());
    }

    #[test]
    fn opposite_transit_and_ordering_by_visibility() {
        let data = observed();
        let inf = inference_with(&[
            (10, 20, Relationship::ProviderToCustomer, Relationship::CustomerToProvider),
            (20, 30, Relationship::ProviderToCustomer, Relationship::PeerToPeer),
        ]);
        let report = detect_hybrids(&data, &inf);
        assert_eq!(report.findings.len(), 2);
        assert_eq!(report.opposite_transit, 1);
        assert_eq!(report.transit_v4_peering_v6, 1);
        // 10-20 is more visible (2 paths) than 20-30 (1 path).
        assert_eq!((report.findings[0].a, report.findings[0].b), (Asn(10), Asn(20)));
        assert!(report.findings[0].v6_path_visibility >= report.findings[1].v6_path_visibility);
    }

    #[test]
    fn ground_truth_detection_matches_injected_hybrids() {
        use routesim::{Scenario, SimConfig};
        use topogen::TopologyConfig;
        let scenario = Scenario::build(&TopologyConfig::tiny(), &SimConfig::small());
        let data = extract(&scenario.pooled_snapshot(1));
        let report = detect_hybrids_from_graph(&data, &scenario.truth.graph);
        // Every finding must correspond to an injected hybrid link.
        let injected: FastSet<(Asn, Asn)> = scenario
            .truth
            .hybrid_links
            .iter()
            .map(|l| if l.a <= l.b { (l.a, l.b) } else { (l.b, l.a) })
            .collect();
        for f in &report.findings {
            assert!(injected.contains(&(f.a, f.b)), "{}-{} not injected", f.a, f.b);
        }
        // And the class counts add up.
        assert_eq!(
            report.findings.len(),
            report.peering_v4_transit_v6 + report.transit_v4_peering_v6 + report.opposite_transit
        );
    }
}
