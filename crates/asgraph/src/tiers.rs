//! A coarse tier classification of ASes (tier-1 / tier-2 / stub).
//!
//! The paper observes that hybrid relationships "usually happen among
//! tier-1 or tier-2 ASes with large numbers of connections". To reproduce
//! that observation we need a tier label per AS; the classification here
//! follows the usual structural definition:
//!
//! * **Tier-1** — an AS with customers but no providers (it does not buy
//!   transit from anyone on that plane).
//! * **Tier-2** — an AS with both customers and at least one provider
//!   (a transit provider that still buys transit).
//! * **Stub** — an AS with no customers (the leaves of the hierarchy).
//!
//! ASes whose links are entirely unannotated fall back to a degree-based
//! guess so the classification is total.

use bgp_types::{Asn, FastMap, IpVersion};

use crate::graph::AsGraph;

/// The tier of an AS on one plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Tier {
    /// Transit-free AS: has customers, buys from no one.
    Tier1,
    /// Transit AS that also buys transit.
    Tier2,
    /// No customers.
    Stub,
}

impl Tier {
    /// Short display label.
    pub const fn label(self) -> &'static str {
        match self {
            Tier::Tier1 => "tier-1",
            Tier::Tier2 => "tier-2",
            Tier::Stub => "stub",
        }
    }
}

impl std::fmt::Display for Tier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The tier of every AS on one plane.
pub type TierMap = FastMap<Asn, Tier>;

/// Degree threshold above which an unannotated AS is guessed to be a
/// transit provider rather than a stub.
const UNANNOTATED_TRANSIT_DEGREE: usize = 20;

/// Classify every AS present on the given plane.
pub fn classify_tiers(graph: &AsGraph, plane: IpVersion) -> TierMap {
    let mut map = TierMap::default();
    for asn in graph.asns() {
        if graph.degree(asn, plane) == 0 {
            continue; // not present on this plane
        }
        let customers = graph.customer_degree(asn, plane);
        let providers = graph.provider_degree(asn, plane);
        let peers = graph.peer_degree(asn, plane);
        let annotated = customers + providers + peers;
        let tier = if annotated == 0 {
            // No relationship information at all: guess by degree.
            if graph.degree(asn, plane) >= UNANNOTATED_TRANSIT_DEGREE {
                Tier::Tier2
            } else {
                Tier::Stub
            }
        } else if customers > 0 && providers == 0 {
            Tier::Tier1
        } else if customers > 0 {
            Tier::Tier2
        } else {
            Tier::Stub
        };
        map.insert(asn, tier);
    }
    map
}

/// Summary counts per tier, convenient for reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TierCounts {
    /// Number of tier-1 ASes.
    pub tier1: usize,
    /// Number of tier-2 ASes.
    pub tier2: usize,
    /// Number of stub ASes.
    pub stubs: usize,
}

impl TierCounts {
    /// Count the tiers in a [`TierMap`].
    pub fn from_map(map: &TierMap) -> Self {
        let mut counts = TierCounts::default();
        for tier in map.values() {
            match tier {
                Tier::Tier1 => counts.tier1 += 1,
                Tier::Tier2 => counts.tier2 += 1,
                Tier::Stub => counts.stubs += 1,
            }
        }
        counts
    }

    /// Total classified ASes.
    pub fn total(&self) -> usize {
        self.tier1 + self.tier2 + self.stubs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_types::Relationship;

    fn hierarchy() -> AsGraph {
        let mut g = AsGraph::new();
        // Two tier-1s peering with each other.
        g.annotate_both(Asn(10), Asn(20), Relationship::PeerToPeer);
        // Tier-2s buying from the tier-1s.
        g.annotate_both(Asn(10), Asn(100), Relationship::ProviderToCustomer);
        g.annotate_both(Asn(20), Asn(200), Relationship::ProviderToCustomer);
        // Stubs buying from the tier-2s.
        g.annotate_both(Asn(100), Asn(1000), Relationship::ProviderToCustomer);
        g.annotate_both(Asn(200), Asn(2000), Relationship::ProviderToCustomer);
        g
    }

    #[test]
    fn hierarchy_is_classified_correctly() {
        let g = hierarchy();
        let tiers = classify_tiers(&g, IpVersion::V6);
        assert_eq!(tiers[&Asn(10)], Tier::Tier1);
        assert_eq!(tiers[&Asn(20)], Tier::Tier1);
        assert_eq!(tiers[&Asn(100)], Tier::Tier2);
        assert_eq!(tiers[&Asn(200)], Tier::Tier2);
        assert_eq!(tiers[&Asn(1000)], Tier::Stub);
        assert_eq!(tiers[&Asn(2000)], Tier::Stub);
    }

    #[test]
    fn counts_and_labels() {
        let g = hierarchy();
        let tiers = classify_tiers(&g, IpVersion::V6);
        let counts = TierCounts::from_map(&tiers);
        assert_eq!(counts, TierCounts { tier1: 2, tier2: 2, stubs: 2 });
        assert_eq!(counts.total(), 6);
        assert_eq!(Tier::Tier1.to_string(), "tier-1");
        assert_eq!(Tier::Tier2.label(), "tier-2");
        assert_eq!(Tier::Stub.label(), "stub");
    }

    #[test]
    fn absent_plane_means_absent_from_map() {
        let mut g = AsGraph::new();
        g.annotate(Asn(1), Asn(2), IpVersion::V4, Relationship::ProviderToCustomer);
        let v6 = classify_tiers(&g, IpVersion::V6);
        assert!(v6.is_empty());
        let v4 = classify_tiers(&g, IpVersion::V4);
        assert_eq!(v4.len(), 2);
    }

    #[test]
    fn peer_only_as_is_a_stub() {
        let mut g = AsGraph::new();
        g.annotate_both(Asn(1), Asn(2), Relationship::PeerToPeer);
        let tiers = classify_tiers(&g, IpVersion::V4);
        assert_eq!(tiers[&Asn(1)], Tier::Stub);
        assert_eq!(tiers[&Asn(2)], Tier::Stub);
    }

    #[test]
    fn unannotated_as_is_guessed_by_degree() {
        let mut g = AsGraph::new();
        // A hub with 25 unannotated links and a leaf with one.
        for i in 0..25u32 {
            g.observe_link(Asn(500), Asn(1000 + i), IpVersion::V6);
        }
        let tiers = classify_tiers(&g, IpVersion::V6);
        assert_eq!(tiers[&Asn(500)], Tier::Tier2);
        assert_eq!(tiers[&Asn(1000)], Tier::Stub);
    }

    #[test]
    fn sibling_only_core_still_classifies() {
        let mut g = AsGraph::new();
        g.annotate_both(Asn(1), Asn(2), Relationship::SiblingToSibling);
        g.annotate_both(Asn(1), Asn(3), Relationship::ProviderToCustomer);
        let tiers = classify_tiers(&g, IpVersion::V4);
        assert_eq!(tiers[&Asn(1)], Tier::Tier1);
        assert_eq!(tiers[&Asn(2)], Tier::Stub);
    }
}
