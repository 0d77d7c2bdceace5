//! The generator's output: the annotated graph plus its book-keeping.

use serde::{Deserialize, Serialize};

use asgraph::AsGraph;
use bgp_types::{Asn, FastMap, IpVersion, Relationship, RelationshipPair};

/// The structural role the generator *planned* for an AS. This is the
/// intended role, independent of what a structural classifier would infer
/// from the resulting graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PlannedTier {
    /// Member of the transit-free clique.
    Tier1,
    /// Transit provider that buys transit itself.
    Tier2,
    /// Leaf AS.
    Stub,
}

impl PlannedTier {
    /// Short label.
    pub const fn label(self) -> &'static str {
        match self {
            PlannedTier::Tier1 => "tier-1",
            PlannedTier::Tier2 => "tier-2",
            PlannedTier::Stub => "stub",
        }
    }
}

/// The kind of hybrid relationship a link received, following the paper's
/// taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum HybridClass {
    /// Peering on IPv4, transit (either direction) on IPv6 — 67% of the
    /// hybrids the paper found.
    PeeringV4TransitV6,
    /// Transit on IPv4, peering on IPv6 — the bulk of the remaining third.
    TransitV4PeeringV6,
    /// Transit on both planes but in opposite directions — the paper found
    /// exactly one such link.
    OppositeTransit,
}

impl HybridClass {
    /// Classify an oriented pair of per-plane relationships; `None` when
    /// the pair is not hybrid (or involves siblings).
    pub fn classify(pair: RelationshipPair) -> Option<HybridClass> {
        if !pair.is_hybrid() {
            return None;
        }
        match (pair.v4, pair.v6) {
            (Relationship::PeerToPeer, r6) if r6.is_transit() => {
                Some(HybridClass::PeeringV4TransitV6)
            }
            (r4, Relationship::PeerToPeer) if r4.is_transit() => {
                Some(HybridClass::TransitV4PeeringV6)
            }
            (r4, r6) if r4.is_transit() && r6.is_transit() && r4 != r6 => {
                Some(HybridClass::OppositeTransit)
            }
            _ => None,
        }
    }

    /// Short label used in reports.
    pub const fn label(self) -> &'static str {
        match self {
            HybridClass::PeeringV4TransitV6 => "p2p(v4)/transit(v6)",
            HybridClass::TransitV4PeeringV6 => "transit(v4)/p2p(v6)",
            HybridClass::OppositeTransit => "opposite-transit",
        }
    }
}

/// One link that the generator made hybrid, with its per-plane ground
/// truth (oriented `a → b`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HybridLink {
    /// First endpoint.
    pub a: Asn,
    /// Second endpoint.
    pub b: Asn,
    /// Ground-truth relationships, oriented `a → b`.
    pub relationships: RelationshipPair,
    /// The hybrid class.
    pub class: HybridClass,
}

/// Everything the generator knows about the topology it produced.
#[derive(Debug, Clone, Default)]
pub struct GroundTruth {
    /// The annotated graph: per-plane presence and true relationships.
    pub graph: AsGraph,
    /// The planned tier of every AS.
    pub tiers: FastMap<Asn, PlannedTier>,
    /// Which ASes are IPv6-capable.
    pub ipv6_capable: FastMap<Asn, bool>,
    /// Every link that was made hybrid, with its class.
    pub hybrid_links: Vec<HybridLink>,
    /// The configuration seed, for provenance.
    pub seed: u64,
}

impl GroundTruth {
    /// ASes of a given planned tier, sorted.
    pub fn ases_of_tier(&self, tier: PlannedTier) -> Vec<Asn> {
        let mut out: Vec<Asn> =
            self.tiers.iter().filter(|(_, t)| **t == tier).map(|(a, _)| *a).collect();
        out.sort();
        out
    }

    /// Number of IPv6-capable ASes.
    pub fn ipv6_as_count(&self) -> usize {
        self.ipv6_capable.values().filter(|v| **v).count()
    }

    /// Links present on a plane.
    pub fn plane_link_count(&self, plane: IpVersion) -> usize {
        self.graph.plane_edge_count(plane)
    }

    /// Links present on both planes.
    pub fn dual_stack_link_count(&self) -> usize {
        self.graph.dual_stack_edges().count()
    }

    /// The ground-truth relationship pair of a link (oriented `a → b`), if
    /// both planes are annotated.
    pub fn relationship_pair(&self, a: Asn, b: Asn) -> Option<RelationshipPair> {
        let v4 = self.graph.relationship(a, b, IpVersion::V4)?;
        let v6 = self.graph.relationship(a, b, IpVersion::V6)?;
        Some(RelationshipPair::new(v4, v6))
    }

    /// Count hybrids per class.
    pub fn hybrid_class_counts(&self) -> FastMap<HybridClass, usize> {
        let mut counts = FastMap::default();
        for link in &self.hybrid_links {
            *counts.entry(link.class).or_insert(0) += 1;
        }
        counts
    }

    /// Fraction of dual-stack links that are hybrid.
    pub fn hybrid_fraction(&self) -> f64 {
        let dual = self.dual_stack_link_count();
        if dual == 0 {
            0.0
        } else {
            self.hybrid_links.len() as f64 / dual as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Relationship::*;

    #[test]
    fn hybrid_classification() {
        use HybridClass::*;
        assert_eq!(
            HybridClass::classify(RelationshipPair::new(PeerToPeer, ProviderToCustomer)),
            Some(PeeringV4TransitV6)
        );
        assert_eq!(
            HybridClass::classify(RelationshipPair::new(PeerToPeer, CustomerToProvider)),
            Some(PeeringV4TransitV6)
        );
        assert_eq!(
            HybridClass::classify(RelationshipPair::new(ProviderToCustomer, PeerToPeer)),
            Some(TransitV4PeeringV6)
        );
        assert_eq!(
            HybridClass::classify(RelationshipPair::new(ProviderToCustomer, CustomerToProvider)),
            Some(OppositeTransit)
        );
        assert_eq!(
            HybridClass::classify(RelationshipPair::new(CustomerToProvider, ProviderToCustomer)),
            Some(OppositeTransit)
        );
        // Non-hybrid and sibling-involved pairs are not classified.
        assert_eq!(HybridClass::classify(RelationshipPair::new(PeerToPeer, PeerToPeer)), None);
        assert_eq!(
            HybridClass::classify(RelationshipPair::new(SiblingToSibling, PeerToPeer)),
            None
        );
        assert_eq!(HybridClass::PeeringV4TransitV6.label(), "p2p(v4)/transit(v6)");
    }

    #[test]
    fn ground_truth_accessors() {
        let mut truth = GroundTruth::default();
        truth.graph.annotate_both(Asn(1), Asn(2), ProviderToCustomer);
        truth.graph.annotate(Asn(1), Asn(3), IpVersion::V4, PeerToPeer);
        truth.graph.annotate(Asn(1), Asn(3), IpVersion::V6, ProviderToCustomer);
        truth.tiers.insert(Asn(1), PlannedTier::Tier1);
        truth.tiers.insert(Asn(2), PlannedTier::Stub);
        truth.tiers.insert(Asn(3), PlannedTier::Tier2);
        truth.ipv6_capable.insert(Asn(1), true);
        truth.ipv6_capable.insert(Asn(2), true);
        truth.ipv6_capable.insert(Asn(3), false);
        truth.hybrid_links.push(HybridLink {
            a: Asn(1),
            b: Asn(3),
            relationships: RelationshipPair::new(PeerToPeer, ProviderToCustomer),
            class: HybridClass::PeeringV4TransitV6,
        });

        assert_eq!(truth.ases_of_tier(PlannedTier::Tier1), vec![Asn(1)]);
        assert_eq!(truth.ipv6_as_count(), 2);
        assert_eq!(truth.plane_link_count(IpVersion::V4), 2);
        assert_eq!(truth.dual_stack_link_count(), 2);
        assert_eq!(
            truth.relationship_pair(Asn(1), Asn(3)),
            Some(RelationshipPair::new(PeerToPeer, ProviderToCustomer))
        );
        assert_eq!(
            truth.relationship_pair(Asn(3), Asn(1)),
            Some(RelationshipPair::new(PeerToPeer, CustomerToProvider))
        );
        assert_eq!(truth.hybrid_class_counts()[&HybridClass::PeeringV4TransitV6], 1);
        assert!((truth.hybrid_fraction() - 0.5).abs() < 1e-9);
        assert_eq!(PlannedTier::Stub.label(), "stub");
    }
}
