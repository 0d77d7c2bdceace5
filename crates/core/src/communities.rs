//! Relationship inference from BGP Communities (the paper's core method).

use serde::{Deserialize, Serialize};

use asgraph::AsGraph;
use bgp_types::{Asn, FastMap, IpVersion, PathAttributes, Relationship, RibSnapshot};
use irr::CommunityDictionary;

/// Where an inferred relationship came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum InferenceSource {
    /// Directly asserted by a documented relationship community.
    Communities,
    /// Derived from a community-validated LocPrf mapping.
    LocalPref,
}

/// The inferred relationship of one link on one plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct InferredRelationship {
    /// Relationship oriented from the link's canonical `a` endpoint
    /// (lower ASN) to its `b` endpoint.
    pub relationship: Relationship,
    /// Number of supporting votes (RIB entries / mappings that agree).
    pub votes: usize,
    /// Number of contradicting votes that were out-voted.
    pub dissent: usize,
    /// How the relationship was obtained.
    pub source: InferenceSource,
}

/// Vote tallies for one link on one plane, before resolution, indexed by
/// `Relationship as usize` (the order of [`Relationship::ALL`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct VoteTally {
    by_relationship: [usize; 4],
}

impl VoteTally {
    fn add(&mut self, rel: Relationship, weight: usize) {
        self.by_relationship[rel as usize] += weight;
    }

    /// Take one vote back; true when the tally is left without a vote.
    fn remove(&mut self, rel: Relationship) -> bool {
        self.by_relationship[rel as usize] -= 1;
        self.by_relationship.iter().all(|&votes| votes == 0)
    }

    /// Resolve the tally: the relationship with the most votes wins;
    /// exact ties are unresolvable (the paper keeps only links whose
    /// communities agree), and so is a tally without a single vote.
    fn resolve(&self) -> Option<(Relationship, usize, usize)> {
        let votes = &self.by_relationship;
        let total: usize = votes.iter().sum();
        let best =
            (1..votes.len()).fold(0, |best, i| if votes[i] > votes[best] { i } else { best });
        let runner_up =
            (0..votes.len()).filter(|&i| i != best).map(|i| votes[i]).max().unwrap_or(0);
        if votes[best] == runner_up {
            return None; // tie: ambiguous, drop the link
        }
        Some((Relationship::ALL[best], votes[best], total - votes[best]))
    }
}

/// Call `vote(tagger, neighbor, rel)` for every relationship assertion one
/// route makes: each documented relationship community asserts the
/// relationship between its defining AS and the AS that AS learned the
/// route from — the next AS towards the origin on the de-prepended path.
/// Routes with a bogus path assert nothing. `path` is scratch space,
/// refilled only for routes that assert something.
fn route_assertions(
    attrs: &PathAttributes,
    dictionary: &CommunityDictionary,
    path: &mut Vec<Asn>,
    mut vote: impl FnMut(Asn, Asn, Relationship),
) {
    let mut assertions = dictionary.relationship_assertions(&attrs.communities).peekable();
    if assertions.peek().is_none() || attrs.as_path.is_bogus() {
        return;
    }
    path.clear();
    path.extend(attrs.as_path.deprepended_asns());
    for (tagger, tag) in assertions {
        // The tagger must be on the path and must have a neighbor
        // towards the origin.
        let Some(pos) = path.iter().position(|a| *a == tagger) else { continue };
        if pos + 1 >= path.len() {
            continue;
        }
        vote(tagger, path[pos + 1], tag.implied_relationship());
    }
}

/// The community vote tallies of a changing table, kept current route by
/// route: [`CommunityInference::from_snapshot`]'s first pass, with votes
/// that can be taken back. A tally left without a vote is dropped, so the
/// tallies always equal those of a fresh pass over the current routes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CommunityVotes {
    tallies: FastMap<(Asn, Asn, IpVersion), VoteTally>,
}

impl CommunityVotes {
    /// Count in one route's votes; `path` is scratch space.
    pub fn add_route(
        &mut self,
        plane: IpVersion,
        attrs: &PathAttributes,
        dictionary: &CommunityDictionary,
        path: &mut Vec<Asn>,
    ) {
        route_assertions(attrs, dictionary, path, |from, to, rel| {
            let (key, rel) = tally_key(from, to, plane, rel);
            self.tallies.entry(key).or_default().add(rel, 1);
        });
    }

    /// Take back one route's votes (the route must have been counted in
    /// under the same dictionary); `path` is scratch space.
    pub fn remove_route(
        &mut self,
        plane: IpVersion,
        attrs: &PathAttributes,
        dictionary: &CommunityDictionary,
        path: &mut Vec<Asn>,
    ) {
        route_assertions(attrs, dictionary, path, |from, to, rel| {
            let (key, rel) = tally_key(from, to, plane, rel);
            let tally = self.tallies.get_mut(&key).expect("voted on add");
            if tally.remove(rel) {
                self.tallies.remove(&key);
            }
        });
    }

    /// Resolve the tallies into the inference
    /// [`CommunityInference::from_snapshot`] would return for the same
    /// routes.
    pub fn resolve(&self) -> CommunityInference {
        let mut inference =
            CommunityInference { tallies: self.tallies.clone(), ..Default::default() };
        inference.resolve_all();
        inference
    }
}

/// The canonical tally key of a vote for `from → to` on `plane`, and the
/// relationship oriented to it.
fn tally_key(
    from: Asn,
    to: Asn,
    plane: IpVersion,
    rel: Relationship,
) -> ((Asn, Asn, IpVersion), Relationship) {
    let (a, b, flipped) = canonical(from, to);
    ((a, b, plane), if flipped { rel.reverse() } else { rel })
}

/// The result of community (and optionally LocPrf) based inference: a
/// per-plane map from canonical link to inferred relationship.
#[derive(Debug, Clone, Default)]
pub struct CommunityInference {
    links: FastMap<(Asn, Asn, IpVersion), InferredRelationship>,
    tallies: FastMap<(Asn, Asn, IpVersion), VoteTally>,
    /// Links dropped because their votes tied.
    pub conflicted_links: usize,
}

fn canonical(a: Asn, b: Asn) -> (Asn, Asn, bool) {
    if a <= b {
        (a, b, false)
    } else {
        (b, a, true)
    }
}

impl CommunityInference {
    /// Run the community-based inference over a pooled snapshot.
    ///
    /// For every RIB entry, every community documented as a relationship
    /// tag asserts the relationship between its defining AS and the AS
    /// that AS learned the route from — i.e. the next AS towards the
    /// origin on the entry's AS path. Each assertion is one vote; votes
    /// are tallied per (link, plane) and resolved by strict majority.
    pub fn from_snapshot(snapshot: &RibSnapshot, dictionary: &CommunityDictionary) -> Self {
        let mut inference = CommunityInference::default();
        // One scratch path, refilled only for entries that assert something.
        let mut path: Vec<Asn> = Vec::new();
        for entry in &snapshot.entries {
            let plane = entry.plane();
            route_assertions(&entry.attrs, dictionary, &mut path, |from, to, rel| {
                inference.add_vote(from, to, plane, rel, 1)
            });
        }
        inference.resolve_all();
        inference
    }

    /// Add one vote for the relationship of the link `from → to` on a
    /// plane (used by both the community pass and the LocPrf pass).
    pub fn add_vote(
        &mut self,
        from: Asn,
        to: Asn,
        plane: IpVersion,
        rel: Relationship,
        weight: usize,
    ) {
        let (key, rel) = tally_key(from, to, plane, rel);
        self.tallies.entry(key).or_default().add(rel, weight);
    }

    /// Re-resolve every tally into the final link map. Called after adding
    /// votes; idempotent.
    pub fn resolve_all(&mut self) {
        self.conflicted_links = 0;
        // Preserve LocPrf-sourced entries that have no tally of their own.
        let mut links: FastMap<(Asn, Asn, IpVersion), InferredRelationship> = self
            .links
            .iter()
            .filter(|(key, link)| {
                link.source == InferenceSource::LocalPref && !self.tallies.contains_key(*key)
            })
            .map(|(k, v)| (*k, *v))
            .collect();
        for (key, tally) in &self.tallies {
            match tally.resolve() {
                Some((rel, votes, dissent)) => {
                    links.insert(
                        *key,
                        InferredRelationship {
                            relationship: rel,
                            votes,
                            dissent,
                            source: InferenceSource::Communities,
                        },
                    );
                }
                None => self.conflicted_links += 1,
            }
        }
        self.links = links;
    }

    /// Record a LocPrf-derived relationship for a link that has no
    /// community-derived relationship yet. Returns true if it was added.
    pub fn add_locpref_inference(
        &mut self,
        from: Asn,
        to: Asn,
        plane: IpVersion,
        rel: Relationship,
    ) -> bool {
        let (key, stored) = tally_key(from, to, plane, rel);
        if self.links.contains_key(&key) || self.tallies.contains_key(&key) {
            return false;
        }
        self.links.insert(
            key,
            InferredRelationship {
                relationship: stored,
                votes: 1,
                dissent: 0,
                source: InferenceSource::LocalPref,
            },
        );
        true
    }

    /// The inferred relationship of a link on a plane, oriented `a → b`
    /// for the *query* order (not the canonical order).
    pub fn relationship(&self, a: Asn, b: Asn, plane: IpVersion) -> Option<Relationship> {
        let (lo, hi, flipped) = canonical(a, b);
        self.links.get(&(lo, hi, plane)).map(|link| {
            if flipped {
                link.relationship.reverse()
            } else {
                link.relationship
            }
        })
    }

    /// Full inference record of a link (canonical orientation).
    pub fn link(&self, a: Asn, b: Asn, plane: IpVersion) -> Option<&InferredRelationship> {
        let (lo, hi, _) = canonical(a, b);
        self.links.get(&(lo, hi, plane))
    }

    /// Number of links with an inferred relationship on a plane.
    pub fn inferred_link_count(&self, plane: IpVersion) -> usize {
        self.links.keys().filter(|(_, _, p)| *p == plane).count()
    }

    /// Number of links inferred from a given source on a plane.
    pub fn inferred_by_source(&self, plane: IpVersion, source: InferenceSource) -> usize {
        self.links.iter().filter(|((_, _, p), link)| *p == plane && link.source == source).count()
    }

    /// Iterate all inferred links: `(a, b, plane, inference)` with `a < b`.
    pub fn iter(&self) -> impl Iterator<Item = (Asn, Asn, IpVersion, &InferredRelationship)> {
        self.links.iter().map(|((a, b, plane), link)| (*a, *b, *plane, link))
    }

    /// Annotate an [`AsGraph`] (typically the extracted link-presence
    /// graph) with the inferred relationships.
    pub fn annotate_graph(&self, graph: &mut AsGraph) {
        for ((a, b, plane), link) in &self.links {
            graph.annotate(*a, *b, *plane, link.relationship);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_types::{CollectorId, Community, PathAttributes, PeerId, Prefix, RibEntry};
    use irr::{CommunityMeaning, RelationshipTag};
    use std::net::IpAddr;

    fn dictionary() -> CommunityDictionary {
        let mut d = CommunityDictionary::new();
        d.insert(
            Community::new(20, 100),
            CommunityMeaning::Relationship(RelationshipTag::FromCustomer),
        );
        d.insert(
            Community::new(20, 200),
            CommunityMeaning::Relationship(RelationshipTag::FromPeer),
        );
        d.insert(
            Community::new(10, 300),
            CommunityMeaning::Relationship(RelationshipTag::FromProvider),
        );
        d
    }

    fn entry(prefix: &str, path: &str, communities: &[Community]) -> RibEntry {
        let mut attrs = PathAttributes::with_path(path.parse().unwrap());
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

    #[test]
    fn community_votes_assert_the_link_towards_the_origin() {
        // Path 10 20 30: community 20:100 ("from customer") asserts that
        // 20 is the provider of 30.
        let snap =
            snapshot(vec![entry("2001:db8:100::/48", "10 20 30", &[Community::new(20, 100)])]);
        let inf = CommunityInference::from_snapshot(&snap, &dictionary());
        assert_eq!(
            inf.relationship(Asn(20), Asn(30), IpVersion::V6),
            Some(Relationship::ProviderToCustomer)
        );
        assert_eq!(
            inf.relationship(Asn(30), Asn(20), IpVersion::V6),
            Some(Relationship::CustomerToProvider)
        );
        // Nothing inferred about the 10-20 link or the v4 plane.
        assert_eq!(inf.relationship(Asn(10), Asn(20), IpVersion::V6), None);
        assert_eq!(inf.relationship(Asn(20), Asn(30), IpVersion::V4), None);
        assert_eq!(inf.inferred_link_count(IpVersion::V6), 1);
    }

    #[test]
    fn provider_tags_orient_the_other_way() {
        // Community 10:300 ("from provider") on path 10 20 ...: 10 learned
        // the route from its provider 20, so 10 -> 20 is c2p.
        let snap =
            snapshot(vec![entry("2001:db8:100::/48", "10 20 30", &[Community::new(10, 300)])]);
        let inf = CommunityInference::from_snapshot(&snap, &dictionary());
        assert_eq!(
            inf.relationship(Asn(10), Asn(20), IpVersion::V6),
            Some(Relationship::CustomerToProvider)
        );
    }

    #[test]
    fn majority_wins_and_ties_conflict() {
        let snap = snapshot(vec![
            entry("2001:db8:1::/48", "10 20 30", &[Community::new(20, 100)]),
            entry("2001:db8:2::/48", "10 20 30", &[Community::new(20, 100)]),
            entry("2001:db8:3::/48", "10 20 30", &[Community::new(20, 200)]),
        ]);
        let inf = CommunityInference::from_snapshot(&snap, &dictionary());
        let link = inf.link(Asn(20), Asn(30), IpVersion::V6).unwrap();
        assert_eq!(link.relationship, Relationship::ProviderToCustomer);
        assert_eq!(link.votes, 2);
        assert_eq!(link.dissent, 1);
        assert_eq!(link.source, InferenceSource::Communities);

        // A perfect tie is dropped.
        let snap = snapshot(vec![
            entry("2001:db8:1::/48", "10 20 30", &[Community::new(20, 100)]),
            entry("2001:db8:2::/48", "10 20 30", &[Community::new(20, 200)]),
        ]);
        let inf = CommunityInference::from_snapshot(&snap, &dictionary());
        assert_eq!(inf.relationship(Asn(20), Asn(30), IpVersion::V6), None);
        assert_eq!(inf.conflicted_links, 1);
    }

    #[test]
    fn undocumented_communities_and_absent_taggers_are_ignored() {
        let snap = snapshot(vec![
            // 99:100 is undocumented; 20:100 with 20 not on the path.
            entry(
                "2001:db8:1::/48",
                "10 30 40",
                &[Community::new(99, 100), Community::new(20, 100)],
            ),
            // Tagger is the origin (no next hop towards the origin).
            entry("2001:db8:2::/48", "10 20", &[Community::new(20, 100)]),
        ]);
        let inf = CommunityInference::from_snapshot(&snap, &dictionary());
        assert_eq!(inf.inferred_link_count(IpVersion::V6), 0);
    }

    #[test]
    fn per_plane_inference_is_independent() {
        let snap =
            snapshot(vec![entry("2001:db8:1::/48", "10 20 30", &[Community::new(20, 200)]), {
                let mut e = entry("198.51.100.0/24", "10 20 30", &[Community::new(20, 100)]);
                e.peer = PeerId::new(Asn(10), "192.0.2.1".parse::<IpAddr>().unwrap());
                e
            }]);
        let inf = CommunityInference::from_snapshot(&snap, &dictionary());
        assert_eq!(
            inf.relationship(Asn(20), Asn(30), IpVersion::V6),
            Some(Relationship::PeerToPeer)
        );
        assert_eq!(
            inf.relationship(Asn(20), Asn(30), IpVersion::V4),
            Some(Relationship::ProviderToCustomer)
        );
    }

    #[test]
    fn locpref_inferences_fill_gaps_without_overriding_communities() {
        let snap = snapshot(vec![entry("2001:db8:1::/48", "10 20 30", &[Community::new(20, 100)])]);
        let mut inf = CommunityInference::from_snapshot(&snap, &dictionary());
        // Cannot override the community-derived link.
        assert!(!inf.add_locpref_inference(
            Asn(20),
            Asn(30),
            IpVersion::V6,
            Relationship::PeerToPeer
        ));
        // Fills a genuinely unknown link.
        assert!(inf.add_locpref_inference(
            Asn(10),
            Asn(20),
            IpVersion::V6,
            Relationship::CustomerToProvider
        ));
        assert!(!inf.add_locpref_inference(
            Asn(20),
            Asn(10),
            IpVersion::V6,
            Relationship::PeerToPeer
        ));
        assert_eq!(
            inf.relationship(Asn(20), Asn(10), IpVersion::V6),
            Some(Relationship::ProviderToCustomer)
        );
        assert_eq!(inf.inferred_by_source(IpVersion::V6, InferenceSource::LocalPref), 1);
        assert_eq!(inf.inferred_by_source(IpVersion::V6, InferenceSource::Communities), 1);
        // Re-resolving keeps the LocPrf entry.
        inf.resolve_all();
        assert_eq!(inf.inferred_by_source(IpVersion::V6, InferenceSource::LocalPref), 1);
    }

    #[test]
    fn annotate_graph_applies_inferences() {
        let snap = snapshot(vec![entry("2001:db8:1::/48", "10 20 30", &[Community::new(20, 100)])]);
        let inf = CommunityInference::from_snapshot(&snap, &dictionary());
        let mut graph = AsGraph::new();
        graph.observe_link(Asn(20), Asn(30), IpVersion::V6);
        inf.annotate_graph(&mut graph);
        assert_eq!(
            graph.relationship(Asn(20), Asn(30), IpVersion::V6),
            Some(Relationship::ProviderToCustomer)
        );
    }

    #[test]
    fn iter_yields_canonical_links() {
        let snap = snapshot(vec![entry("2001:db8:1::/48", "10 30 20", &[Community::new(30, 100)])]);
        let mut d = dictionary();
        d.insert(
            Community::new(30, 100),
            CommunityMeaning::Relationship(RelationshipTag::FromCustomer),
        );
        let inf = CommunityInference::from_snapshot(&snap, &d);
        let links: Vec<_> = inf.iter().collect();
        assert_eq!(links.len(), 1);
        let (a, b, plane, link) = links[0];
        assert!(a < b);
        assert_eq!((a, b, plane), (Asn(20), Asn(30), IpVersion::V6));
        // 30 is provider of 20; canonical orientation 20 -> 30 is c2p.
        assert_eq!(link.relationship, Relationship::CustomerToProvider);
    }
}
