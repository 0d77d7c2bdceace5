//! The LocPrf "Rosetta Stone": extending relationship coverage using
//! community-validated Local Preference values.
//!
//! Full feeders expose the LocPrf they assigned to each route. LocPrf is
//! only meaningful per AS (every operator chooses its own values), so the
//! paper first learns, for each feeder, which LocPrf value corresponds to
//! which relationship class — *using only routes whose first-hop
//! relationship is already known from communities and which carry no
//! traffic-engineering community* — and then applies the learned mapping
//! to that feeder's remaining routes.

use std::collections::HashMap;

use bgp_types::{Asn, IpVersion, Relationship, RibEntry, RibSnapshot};
use irr::CommunityDictionary;

use crate::communities::CommunityInference;

/// The feeder (first ASN) and its first hop (second ASN) of an entry's
/// de-prepended path, read without collecting the path.
fn feeder_and_first_hop(entry: &RibEntry) -> Option<(Asn, Asn)> {
    let mut hops = entry.attrs.as_path.deprepended_asns();
    Some((hops.next()?, hops.next()?))
}

/// The learned per-feeder LocPrf → relationship mappings.
#[derive(Debug, Clone, Default)]
pub struct LocPrfRosetta {
    /// (feeder, plane, locpref) → relationship, kept only when unambiguous.
    mappings: HashMap<(Asn, IpVersion, u32), Relationship>,
    /// (feeder, plane, locpref) combinations discarded as ambiguous.
    pub ambiguous: usize,
    /// Routes skipped because they carried a LocPrf-affecting TE community.
    pub te_filtered_routes: usize,
    /// Number of new link relationships contributed by the mapping.
    pub links_added: usize,
}

impl LocPrfRosetta {
    /// Learn the mappings from routes whose first-hop relationship is
    /// already known via communities.
    pub fn learn(
        snapshot: &RibSnapshot,
        dictionary: &CommunityDictionary,
        inference: &CommunityInference,
    ) -> Self {
        let mut rosetta = LocPrfRosetta::default();
        // (feeder, plane, locpref) -> relationships seen, one bit per
        // `Relationship as usize`
        let mut observations: HashMap<(Asn, IpVersion, u32), u8> = HashMap::new();
        for entry in &snapshot.entries {
            if entry.has_bogus_path() {
                continue;
            }
            let Some(locpref) = entry.attrs.local_pref else { continue };
            if dictionary.has_locpref_tainting_community(&entry.attrs.communities) {
                rosetta.te_filtered_routes += 1;
                continue;
            }
            let Some((feeder, first_hop)) = feeder_and_first_hop(entry) else { continue };
            let plane = entry.plane();
            // Only community-validated first hops teach us anything.
            let Some(rel) = inference.relationship(feeder, first_hop, plane) else { continue };
            *observations.entry((feeder, plane, locpref)).or_default() |= 1 << rel as u8;
        }
        for (key, rels) in observations {
            if rels.count_ones() == 1 {
                rosetta.mappings.insert(key, Relationship::ALL[rels.trailing_zeros() as usize]);
            } else {
                rosetta.ambiguous += 1;
            }
        }
        rosetta
    }

    /// Number of learned (feeder, plane, locpref) mappings.
    pub fn mapping_count(&self) -> usize {
        self.mappings.len()
    }

    /// The relationship a feeder's LocPrf value implies, if learned.
    pub fn lookup(&self, feeder: Asn, plane: IpVersion, locpref: u32) -> Option<Relationship> {
        self.mappings.get(&(feeder, plane, locpref)).copied()
    }

    /// Apply the learned mappings to the snapshot: for every route from a
    /// feeder with a learned LocPrf value whose first-hop link has no
    /// community-derived relationship, add the implied relationship to the
    /// inference. Returns the number of links added.
    pub fn apply(
        &mut self,
        snapshot: &RibSnapshot,
        dictionary: &CommunityDictionary,
        inference: &mut CommunityInference,
    ) -> usize {
        let mut added = 0;
        for entry in &snapshot.entries {
            if entry.has_bogus_path() {
                continue;
            }
            let Some(locpref) = entry.attrs.local_pref else { continue };
            if dictionary.has_locpref_tainting_community(&entry.attrs.communities) {
                continue;
            }
            let Some((feeder, first_hop)) = feeder_and_first_hop(entry) else { continue };
            let plane = entry.plane();
            let Some(rel) = self.lookup(feeder, plane, locpref) else { continue };
            if inference.add_locpref_inference(feeder, first_hop, plane, rel) {
                added += 1;
            }
        }
        self.links_added += added;
        added
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_types::{CollectorId, Community, PathAttributes, PeerId, Prefix, RibEntry};
    use irr::{CommunityMeaning, RelationshipTag, TrafficAction};
    use std::net::IpAddr;

    /// Dictionary: AS10 documents 10:1 = from customer, 10:2 = from peer,
    /// 10:99 = lower preference (TE).
    fn dictionary() -> CommunityDictionary {
        let mut d = CommunityDictionary::new();
        d.insert(
            Community::new(10, 1),
            CommunityMeaning::Relationship(RelationshipTag::FromCustomer),
        );
        d.insert(Community::new(10, 2), CommunityMeaning::Relationship(RelationshipTag::FromPeer));
        d.insert(
            Community::new(10, 99),
            CommunityMeaning::TrafficEngineering(TrafficAction::LowerPreference),
        );
        d
    }

    fn entry(
        prefix: &str,
        path: &str,
        locpref: Option<u32>,
        communities: &[Community],
    ) -> RibEntry {
        let mut attrs = PathAttributes::with_path(path.parse().unwrap());
        attrs.local_pref = locpref;
        for c in communities {
            attrs.communities.insert(*c);
        }
        RibEntry::new(
            PeerId::new(Asn(10), "2001:db8::1".parse::<IpAddr>().unwrap()),
            prefix.parse::<Prefix>().unwrap(),
            attrs,
        )
    }

    fn snapshot(entries: Vec<RibEntry>) -> RibSnapshot {
        let mut s = RibSnapshot::new(CollectorId::new("t"), 1);
        for e in entries {
            s.push(e);
        }
        s
    }

    /// AS10 is the feeder. Routes via AS20 are tagged "from customer" with
    /// LocPrf 300; routes via AS30 are untagged but carry LocPrf 300 too —
    /// the Rosetta Stone should classify 10-30 as p2c.
    #[test]
    fn learn_and_apply_extends_coverage() {
        let snap = snapshot(vec![
            entry("2001:db8:1::/48", "10 20 40", Some(300), &[Community::new(10, 1)]),
            entry("2001:db8:2::/48", "10 20 41", Some(300), &[Community::new(10, 1)]),
            entry("2001:db8:3::/48", "10 30 42", Some(300), &[]),
            entry("2001:db8:4::/48", "10 35 43", Some(200), &[Community::new(10, 2)]),
            entry("2001:db8:5::/48", "10 36 44", Some(200), &[]),
        ]);
        let dict = dictionary();
        let mut inference = CommunityInference::from_snapshot(&snap, &dict);
        assert_eq!(
            inference.relationship(Asn(10), Asn(20), IpVersion::V6),
            Some(Relationship::ProviderToCustomer)
        );
        assert_eq!(inference.relationship(Asn(10), Asn(30), IpVersion::V6), None);

        let mut rosetta = LocPrfRosetta::learn(&snap, &dict, &inference);
        assert_eq!(rosetta.mapping_count(), 2);
        assert_eq!(
            rosetta.lookup(Asn(10), IpVersion::V6, 300),
            Some(Relationship::ProviderToCustomer)
        );
        assert_eq!(rosetta.lookup(Asn(10), IpVersion::V6, 200), Some(Relationship::PeerToPeer));
        assert_eq!(rosetta.lookup(Asn(10), IpVersion::V6, 100), None);
        assert_eq!(rosetta.lookup(Asn(10), IpVersion::V4, 300), None, "plane-specific");

        let added = rosetta.apply(&snap, &dict, &mut inference);
        assert_eq!(added, 2);
        assert_eq!(rosetta.links_added, 2);
        assert_eq!(
            inference.relationship(Asn(10), Asn(30), IpVersion::V6),
            Some(Relationship::ProviderToCustomer)
        );
        assert_eq!(
            inference.relationship(Asn(10), Asn(36), IpVersion::V6),
            Some(Relationship::PeerToPeer)
        );
        assert_eq!(
            inference
                .inferred_by_source(IpVersion::V6, crate::communities::InferenceSource::LocalPref),
            2
        );
    }

    #[test]
    fn te_tainted_routes_are_excluded_from_learning_and_application() {
        let snap = snapshot(vec![
            // Validated customer route at LocPrf 300.
            entry("2001:db8:1::/48", "10 20 40", Some(300), &[Community::new(10, 1)]),
            // A TE-lowered route via a peer that happens to sit at 300 too;
            // without the filter this would make 300 ambiguous.
            entry(
                "2001:db8:2::/48",
                "10 35 43",
                Some(300),
                &[Community::new(10, 2), Community::new(10, 99)],
            ),
            // An untagged TE-lowered route: must not be classified either.
            entry("2001:db8:3::/48", "10 37 44", Some(300), &[Community::new(10, 99)]),
        ]);
        let dict = dictionary();
        let mut inference = CommunityInference::from_snapshot(&snap, &dict);
        let mut rosetta = LocPrfRosetta::learn(&snap, &dict, &inference);
        assert_eq!(rosetta.te_filtered_routes, 2);
        assert_eq!(
            rosetta.lookup(Asn(10), IpVersion::V6, 300),
            Some(Relationship::ProviderToCustomer)
        );
        let added = rosetta.apply(&snap, &dict, &mut inference);
        assert_eq!(added, 0, "TE-tainted routes must not be classified");
        assert_eq!(inference.relationship(Asn(10), Asn(37), IpVersion::V6), None);
    }

    #[test]
    fn ambiguous_locpref_values_are_dropped() {
        // LocPrf 150 maps to both a customer-tagged and a peer-tagged route.
        let snap = snapshot(vec![
            entry("2001:db8:1::/48", "10 20 40", Some(150), &[Community::new(10, 1)]),
            entry("2001:db8:2::/48", "10 35 43", Some(150), &[Community::new(10, 2)]),
            entry("2001:db8:3::/48", "10 36 44", Some(150), &[]),
        ]);
        let dict = dictionary();
        let mut inference = CommunityInference::from_snapshot(&snap, &dict);
        let mut rosetta = LocPrfRosetta::learn(&snap, &dict, &inference);
        assert_eq!(rosetta.ambiguous, 1);
        assert_eq!(rosetta.mapping_count(), 0);
        assert_eq!(rosetta.apply(&snap, &dict, &mut inference), 0);
    }

    #[test]
    fn routes_without_locpref_are_ignored() {
        let snap = snapshot(vec![
            entry("2001:db8:1::/48", "10 20 40", None, &[Community::new(10, 1)]),
            entry("2001:db8:2::/48", "10 30 42", None, &[]),
        ]);
        let dict = dictionary();
        let mut inference = CommunityInference::from_snapshot(&snap, &dict);
        let mut rosetta = LocPrfRosetta::learn(&snap, &dict, &inference);
        assert_eq!(rosetta.mapping_count(), 0);
        assert_eq!(rosetta.apply(&snap, &dict, &mut inference), 0);
    }
}
