//! The `(asn, value) → meaning` lookup table used by the inference.

use serde::{Deserialize, Serialize};

use bgp_types::{Asn, Community, CommunitySet, FastMap};

use crate::meaning::{CommunityMeaning, RelationshipTag};
use crate::scheme::CommunityScheme;

/// A dictionary of documented community meanings, keyed by the full
/// community value (the defining AS is the community's high 16 bits).
///
/// This is the paper's "Rosetta Stone": it is *incomplete by construction*
/// — it contains only what operators chose to document — and the
/// measurement's coverage is bounded by it.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CommunityDictionary {
    entries: FastMap<u32, CommunityMeaning>,
}

impl CommunityDictionary {
    /// An empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of documented community values.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is documented.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Insert (or overwrite) the meaning of a community value.
    pub fn insert(&mut self, community: Community, meaning: CommunityMeaning) {
        self.entries.insert(community.as_u32(), meaning);
    }

    /// Look up a community.
    pub fn lookup(&self, community: Community) -> Option<CommunityMeaning> {
        self.entries.get(&community.as_u32()).copied()
    }

    /// Number of documented values that carry relationship information.
    pub fn relationship_entry_count(&self) -> usize {
        self.entries.values().filter(|m| matches!(m, CommunityMeaning::Relationship(_))).count()
    }

    /// The set of ASes that documented at least one relationship community.
    pub fn documenting_ases(&self) -> Vec<Asn> {
        let mut ases: Vec<Asn> = self
            .entries
            .iter()
            .filter(|(_, m)| matches!(m, CommunityMeaning::Relationship(_)))
            .map(|(raw, _)| Community::from_u32(*raw).asn())
            .collect();
        ases.sort();
        ases.dedup();
        ases
    }

    /// Merge every entry of `other` into this dictionary (other wins on
    /// conflict), e.g. to pool several registry sources as the paper pools
    /// RIPE, RADB and friends.
    pub fn merge(&mut self, other: &CommunityDictionary) {
        for (raw, meaning) in &other.entries {
            self.entries.insert(*raw, *meaning);
        }
    }

    /// Absorb the full ground-truth meanings of a scheme (used to build
    /// oracle dictionaries in tests and ablations).
    pub fn add_scheme(&mut self, scheme: &CommunityScheme) {
        for (community, meaning) in scheme.meanings() {
            self.insert(community, meaning);
        }
    }

    /// The relationship tags asserted by the communities on one route,
    /// grouped by the AS that defined each community.
    ///
    /// A route typically carries communities from several ASes along the
    /// path; each documented relationship community is one assertion about
    /// the link between its *defining* AS and the neighbor that AS learned
    /// the route from.
    pub fn relationship_assertions<'a>(
        &'a self,
        communities: &'a CommunitySet,
    ) -> impl Iterator<Item = (Asn, RelationshipTag)> + 'a {
        communities.iter().filter_map(|community| match self.lookup(community) {
            Some(CommunityMeaning::Relationship(tag)) => Some((community.asn(), tag)),
            _ => None,
        })
    }

    /// True if any community on the route is documented as a
    /// LocPrf-affecting traffic-engineering action by its defining AS —
    /// the filter the paper applies before learning LocPrf mappings.
    pub fn has_locpref_tainting_community(&self, communities: &CommunitySet) -> bool {
        communities.iter().filter_map(|c| self.lookup(c)).any(|m| m.taints_local_pref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meaning::TrafficAction;
    use crate::scheme::SchemeStyle;

    fn dict() -> CommunityDictionary {
        let mut d = CommunityDictionary::new();
        d.insert(
            Community::new(2914, 3000),
            CommunityMeaning::Relationship(RelationshipTag::FromCustomer),
        );
        d.insert(
            Community::new(2914, 3100),
            CommunityMeaning::Relationship(RelationshipTag::FromPeer),
        );
        d.insert(
            Community::new(2914, 3910),
            CommunityMeaning::TrafficEngineering(TrafficAction::LowerPreference),
        );
        d.insert(
            Community::new(6939, 666),
            CommunityMeaning::TrafficEngineering(TrafficAction::PrependOnce),
        );
        d.insert(Community::new(6939, 10000), CommunityMeaning::IngressLocation(0));
        d
    }

    #[test]
    fn round_trips_through_json() {
        let d = dict();
        let text = serde_json::to_string(&d).unwrap();
        let back: CommunityDictionary = serde_json::from_str(&text).unwrap();
        assert_eq!(back, d);
        assert_eq!(
            back.lookup(Community::new(2914, 3910)),
            Some(CommunityMeaning::TrafficEngineering(TrafficAction::LowerPreference))
        );
    }

    #[test]
    fn insert_lookup_and_counts() {
        let d = dict();
        assert_eq!(d.len(), 5);
        assert!(!d.is_empty());
        assert_eq!(
            d.lookup(Community::new(2914, 3000)),
            Some(CommunityMeaning::Relationship(RelationshipTag::FromCustomer))
        );
        assert_eq!(d.lookup(Community::new(2914, 9999)), None);
        assert_eq!(d.relationship_entry_count(), 2);
        assert_eq!(d.documenting_ases(), vec![Asn(2914)]);
        assert!(CommunityDictionary::new().is_empty());
    }

    #[test]
    fn overwrite_keeps_latest() {
        let mut d = dict();
        d.insert(Community::new(2914, 3000), CommunityMeaning::Informational);
        assert_eq!(d.lookup(Community::new(2914, 3000)), Some(CommunityMeaning::Informational));
        assert_eq!(d.len(), 5);
    }

    #[test]
    fn merge_pools_sources() {
        let mut a = CommunityDictionary::new();
        a.insert(Community::new(1, 1), CommunityMeaning::Relationship(RelationshipTag::FromPeer));
        let mut b = CommunityDictionary::new();
        b.insert(
            Community::new(2, 2),
            CommunityMeaning::Relationship(RelationshipTag::FromCustomer),
        );
        b.insert(Community::new(1, 1), CommunityMeaning::Informational);
        a.merge(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.lookup(Community::new(1, 1)), Some(CommunityMeaning::Informational));
    }

    #[test]
    fn assertions_from_a_route() {
        let d = dict();
        let communities: CommunitySet = [
            Community::new(2914, 3100), // peer tag by 2914
            Community::new(6939, 666),  // TE prepend by 6939
            Community::new(3356, 123),  // undocumented
        ]
        .into_iter()
        .collect();
        let assertions: Vec<_> = d.relationship_assertions(&communities).collect();
        assert_eq!(assertions, vec![(Asn(2914), RelationshipTag::FromPeer)]);
        assert!(!d.has_locpref_tainting_community(&communities));

        let tainted: CommunitySet = [Community::new(2914, 3910)].into_iter().collect();
        assert!(d.has_locpref_tainting_community(&tainted));
    }

    #[test]
    fn add_scheme_produces_oracle_dictionary() {
        let scheme = CommunityScheme::build(
            Asn(3356),
            SchemeStyle::ClassicHundreds,
            &[RelationshipTag::FromCustomer, RelationshipTag::FromPeer],
            2,
        );
        let mut d = CommunityDictionary::new();
        d.add_scheme(&scheme);
        assert_eq!(d.len(), scheme.meanings().len());
        assert_eq!(
            d.lookup(Community::new(3356, 100)),
            Some(CommunityMeaning::Relationship(RelationshipTag::FromCustomer))
        );
        assert_eq!(d.documenting_ases(), vec![Asn(3356)]);
    }
}
