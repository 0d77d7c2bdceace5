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

use std::collections::BTreeMap;

use bgp_types::{
    Asn, FastMap, IpVersion, PathAttributes, PeerId, Prefix, Relationship, RibSnapshot,
};
use irr::CommunityDictionary;

use crate::communities::CommunityInference;

/// What the Rosetta Stone reads of one route: its feeder (first ASN of
/// the de-prepended path), the first hop after it, its plane and its
/// LocPrf.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct LocPrfRoute {
    feeder: Asn,
    first_hop: Asn,
    plane: IpVersion,
    local_pref: u32,
}

impl LocPrfRoute {
    /// The route's summary, if it can teach or receive a mapping: its path
    /// is not bogus and has a first hop, it carries a LocPrf, and none of
    /// its communities is a LocPrf-affecting traffic-engineering action.
    fn of(
        plane: IpVersion,
        attrs: &PathAttributes,
        dictionary: &CommunityDictionary,
    ) -> Option<Self> {
        let local_pref = attrs.local_pref?;
        if attrs.as_path.is_bogus() || dictionary.has_locpref_tainting_community(&attrs.communities)
        {
            return None;
        }
        // Read without collecting the path.
        let mut hops = attrs.as_path.deprepended_asns();
        Some(LocPrfRoute { feeder: hops.next()?, first_hop: hops.next()?, plane, local_pref })
    }
}

/// The summaries of a snapshot's routes, in snapshot order.
fn snapshot_routes<'a>(
    snapshot: &'a RibSnapshot,
    dictionary: &'a CommunityDictionary,
) -> impl Iterator<Item = LocPrfRoute> + 'a {
    snapshot
        .entries
        .iter()
        .filter_map(|entry| LocPrfRoute::of(entry.plane(), &entry.attrs, dictionary))
}

/// The learned per-feeder LocPrf → relationship mappings.
#[derive(Debug, Clone, Default)]
pub struct LocPrfRosetta {
    /// (feeder, plane, locpref) → relationship, kept only when unambiguous.
    mappings: FastMap<(Asn, IpVersion, u32), Relationship>,
}

impl LocPrfRosetta {
    /// Learn the mappings from routes whose first-hop relationship is
    /// already known via communities.
    pub fn learn(
        snapshot: &RibSnapshot,
        dictionary: &CommunityDictionary,
        inference: &CommunityInference,
    ) -> Self {
        Self::learn_from(snapshot_routes(snapshot, dictionary), inference)
    }

    /// [`learn`](Self::learn) over route summaries. Each (feeder, plane,
    /// LocPrf) value keeps the set of relationships its routes' first hops
    /// have, so the summaries may come in any order and repeat.
    fn learn_from(
        routes: impl Iterator<Item = LocPrfRoute>,
        inference: &CommunityInference,
    ) -> Self {
        // (feeder, plane, locpref) -> relationships seen, one bit per
        // `Relationship as usize`
        let mut observations: FastMap<(Asn, IpVersion, u32), u8> = FastMap::default();
        for route in routes {
            // Only community-validated first hops teach us anything.
            let Some(rel) = inference.relationship(route.feeder, route.first_hop, route.plane)
            else {
                continue;
            };
            *observations.entry((route.feeder, route.plane, route.local_pref)).or_default() |=
                1 << rel as u8;
        }
        let mappings = observations
            .into_iter()
            .filter(|(_, rels)| rels.count_ones() == 1)
            .map(|(key, rels)| (key, Relationship::ALL[rels.trailing_zeros() as usize]))
            .collect();
        LocPrfRosetta { mappings }
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
    /// inference. The first such route of a link, in snapshot order,
    /// decides it. Returns the number of links added.
    pub fn apply(
        &self,
        snapshot: &RibSnapshot,
        dictionary: &CommunityDictionary,
        inference: &mut CommunityInference,
    ) -> usize {
        self.apply_to(snapshot_routes(snapshot, dictionary), inference)
    }

    /// [`apply`](Self::apply) over route summaries in snapshot order.
    fn apply_to(
        &self,
        routes: impl Iterator<Item = LocPrfRoute>,
        inference: &mut CommunityInference,
    ) -> usize {
        let mut added = 0;
        for route in routes {
            let Some(rel) = self.lookup(route.feeder, route.plane, route.local_pref) else {
                continue;
            };
            if inference.add_locpref_inference(route.feeder, route.first_hop, route.plane, rel) {
                added += 1;
            }
        }
        added
    }
}

/// The Rosetta Stone's input kept current route by route: the summary of
/// every route that can teach or receive a mapping, keyed and ordered by
/// `(prefix, peer)` — the order of [`crate::ingest::LiveRib::snapshot`].
///
/// [`LocPrfRoutes::infer`] then runs [`LocPrfRosetta::learn`] and
/// [`LocPrfRosetta::apply`] without a dictionary lookup or a path walk.
/// Routes that share a summary make the same claim, so each distinct
/// summary is stored once under a small id: learning reads each summary
/// once, and applying walks the routes in snapshot order, because the
/// first route of a link decides it, but tries each summary only at its
/// first route.
#[derive(Debug, Clone, Default)]
pub struct LocPrfRoutes {
    /// The summary id of every recorded route.
    routes: BTreeMap<(Prefix, PeerId), u32>,
    /// Per id, the summary and how many recorded routes share it; an id
    /// no route shares is on `free`.
    summaries: Vec<(LocPrfRoute, usize)>,
    ids: FastMap<LocPrfRoute, u32>,
    free: Vec<u32>,
}

impl LocPrfRoutes {
    /// Record the route under `(prefix, peer)`, replacing any route there.
    pub fn insert(
        &mut self,
        prefix: Prefix,
        peer: PeerId,
        attrs: &PathAttributes,
        dictionary: &CommunityDictionary,
    ) {
        self.remove(prefix, peer);
        let Some(route) = LocPrfRoute::of(prefix.version(), attrs, dictionary) else { return };
        let id = *self.ids.entry(route).or_insert_with(|| match self.free.pop() {
            Some(id) => {
                self.summaries[id as usize].0 = route;
                id
            }
            None => {
                self.summaries.push((route, 0));
                u32::try_from(self.summaries.len() - 1).expect("fewer than 2^32 summaries")
            }
        });
        self.summaries[id as usize].1 += 1;
        self.routes.insert((prefix, peer), id);
    }

    /// Forget the route under `(prefix, peer)`, if one is recorded.
    pub fn remove(&mut self, prefix: Prefix, peer: PeerId) {
        let Some(id) = self.routes.remove(&(prefix, peer)) else { return };
        let (route, sharing) = &mut self.summaries[id as usize];
        *sharing -= 1;
        if *sharing == 0 {
            self.ids.remove(route);
            self.free.push(id);
        }
    }

    /// Learn the mappings from `inference` (community-derived links only)
    /// and apply them to it, exactly as [`LocPrfRosetta::learn`] and
    /// [`LocPrfRosetta::apply`] would over the recorded routes. Returns
    /// the number of links added.
    pub fn infer(&self, inference: &mut CommunityInference) -> usize {
        let recorded = self.summaries.iter().filter(|(_, sharing)| *sharing > 0);
        let rosetta = LocPrfRosetta::learn_from(recorded.map(|&(route, _)| route), inference);
        // A later route with the same summary cannot add a link: the
        // first one either added it or found it taken.
        let mut tried = vec![false; self.summaries.len()];
        let firsts =
            self.routes.values().filter(|&&id| !std::mem::replace(&mut tried[id as usize], true));
        rosetta.apply_to(firsts.map(|&id| self.summaries[id as usize].0), inference)
    }
}

/// Two tables are equal when they record the same summaries under the
/// same keys; the ids are an artifact of the order routes came in.
impl PartialEq for LocPrfRoutes {
    fn eq(&self, other: &Self) -> bool {
        let summary = |table: &Self, id: u32| table.summaries[id as usize].0;
        self.ids.len() == other.ids.len()
            && self.routes.len() == other.routes.len()
            && self
                .routes
                .iter()
                .zip(&other.routes)
                .all(|((a, &i), (b, &j))| a == b && summary(self, i) == summary(other, j))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_types::{CollectorId, Community, PathAttributes, PeerId, Prefix, RibEntry};
    use irr::{CommunityMeaning, RelationshipTag, TrafficAction};
    use std::net::IpAddr;

    /// Dictionary: AS10 and AS50 document `:1` = from customer, `:2` =
    /// from peer; AS10 also documents 10:99 = lower preference (TE).
    fn dictionary() -> CommunityDictionary {
        let mut d = CommunityDictionary::new();
        for asn in [10, 50] {
            d.insert(
                Community::new(asn, 1),
                CommunityMeaning::Relationship(RelationshipTag::FromCustomer),
            );
            d.insert(
                Community::new(asn, 2),
                CommunityMeaning::Relationship(RelationshipTag::FromPeer),
            );
        }
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

        let rosetta = LocPrfRosetta::learn(&snap, &dict, &inference);
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
        let rosetta = LocPrfRosetta::learn(&snap, &dict, &inference);
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
        let rosetta = LocPrfRosetta::learn(&snap, &dict, &inference);
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
        let rosetta = LocPrfRosetta::learn(&snap, &dict, &inference);
        assert_eq!(rosetta.mapping_count(), 0);
        assert_eq!(rosetta.apply(&snap, &dict, &mut inference), 0);
    }

    /// Two routes whose summaries map to different classes on one link:
    /// the first in snapshot order decides the link. AS10 maps LocPrf 300
    /// to p2c and 100 to p2p; AS50 maps 200 to p2c and 80 to p2p.
    /// * AS10 carries 10–30 at LocPrf 300, then at 100;
    /// * AS50 exports 50–10 at LocPrf 200, then AS10 exports it at 100.
    fn first_route_decides() -> Vec<RibEntry> {
        let tag = |asn, value| [Community::new(asn, value)];
        vec![
            entry("2001:db8:1::/48", "10 20 40", Some(300), &tag(10, 1)),
            entry("2001:db8:2::/48", "10 35 40", Some(100), &tag(10, 2)),
            entry("2001:db8:3::/48", "50 21 40", Some(200), &tag(50, 1)),
            entry("2001:db8:4::/48", "50 36 40", Some(80), &tag(50, 2)),
            entry("2001:db8:5::/48", "10 30 41", Some(300), &[]),
            entry("2001:db8:6::/48", "10 30 42", Some(100), &[]),
            entry("2001:db8:7::/48", "50 10 43", Some(200), &[]),
            entry("2001:db8:8::/48", "10 50 44", Some(100), &[]),
        ]
    }

    /// The batch Rosetta Stone over `entries` in the given order.
    fn batch(entries: Vec<RibEntry>) -> CommunityInference {
        let (snap, dict) = (snapshot(entries), dictionary());
        let mut inference = CommunityInference::from_snapshot(&snap, &dict);
        LocPrfRosetta::learn(&snap, &dict, &inference).apply(&snap, &dict, &mut inference);
        inference
    }

    #[test]
    fn the_first_route_of_a_link_in_snapshot_order_decides_it() {
        let v6 = IpVersion::V6;
        let inference = batch(first_route_decides());
        assert_eq!(
            inference.relationship(Asn(10), Asn(30), v6),
            Some(Relationship::ProviderToCustomer)
        );
        assert_eq!(
            inference.relationship(Asn(50), Asn(10), v6),
            Some(Relationship::ProviderToCustomer)
        );
        // The rule is the order: reversed, the other routes decide.
        let reversed = batch(first_route_decides().into_iter().rev().collect());
        assert_eq!(reversed.relationship(Asn(10), Asn(30), v6), Some(Relationship::PeerToPeer));
        assert_eq!(reversed.relationship(Asn(50), Asn(10), v6), Some(Relationship::PeerToPeer));
    }

    #[test]
    fn the_route_table_reaches_the_batch_result_from_any_delta_order() {
        use crate::communities::CommunityVotes;
        let dict = dictionary();
        let entries = first_route_decides();
        // Insert backwards, withdrawing and re-inserting each deciding
        // route after its rival is in.
        let mut routes = LocPrfRoutes::default();
        let mut votes = CommunityVotes::default();
        let mut path = Vec::new();
        for entry in entries.iter().rev() {
            routes.insert(entry.prefix, entry.peer, &entry.attrs, &dict);
            votes.add_route(entry.plane(), &entry.attrs, &dict, &mut path);
        }
        for deciding in [&entries[4], &entries[6]] {
            routes.remove(deciding.prefix, deciding.peer);
            routes.insert(deciding.prefix, deciding.peer, &deciding.attrs, &dict);
        }
        let mut inference = votes.resolve();
        assert_eq!(routes.infer(&mut inference), 2, "10-30 and 10-50");
        let mut links: Vec<_> = inference.iter().map(|(a, b, p, l)| (a, b, p, *l)).collect();
        let expected = batch(entries);
        let mut want: Vec<_> = expected.iter().map(|(a, b, p, l)| (a, b, p, *l)).collect();
        links.sort_by_key(|&(a, b, p, _)| (a, b, p));
        want.sort_by_key(|&(a, b, p, _)| (a, b, p));
        assert_eq!(links, want);
    }
}
