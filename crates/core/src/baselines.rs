//! Baseline Type-of-Relationship inference heuristics.
//!
//! The paper's point of comparison is the family of valley-free inference
//! algorithms (Gao 2001, Dimitropoulos et al. 2007, Oliveira et al. 2010)
//! that infer relationships from observed AS paths *without* per-plane
//! information. Two representatives are implemented here:
//!
//! * [`gao_inference`] — Gao's degree-based heuristic: on every observed
//!   path, the highest-degree AS is assumed to be the path's "top
//!   provider"; links before it are classified customer-to-provider and
//!   links after it provider-to-customer, with a final vote across all
//!   paths and a peering pass for links whose votes are balanced and whose
//!   endpoint degrees are comparable.
//! * [`degree_heuristic_inference`] — a simpler degree-ratio rule used as
//!   a sanity baseline.
//!
//! Both operate on one plane's observed paths, or (as the existing tools
//! do) on the union of both planes' paths — which is precisely what
//! produces the misinference artifacts on hybrid links.
//!
//! [`GaoVotes`] keeps Gao's per-link votes over a changing set of
//! distinct paths, so a streaming session re-votes only the paths whose
//! top provider may have moved instead of re-running [`gao_inference`].

use std::collections::BTreeSet;
use std::hash::Hash;

use serde::{Deserialize, Serialize};

use asgraph::AsGraph;
use bgp_types::{Asn, FastMap, IpVersion, Relationship};

use crate::extract::{ExtractedData, ObservedPath};

/// Which plane's paths a baseline should learn from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BaselineInput {
    /// Use only the given plane's paths.
    SinglePlane(IpVersion),
    /// Pool the paths of both planes, as IPv4-era tools did when applied
    /// to IPv6 (the paper's criticism).
    BothPlanes,
}

fn input_paths(data: &ExtractedData, input: BaselineInput) -> Vec<&ObservedPath> {
    match input {
        BaselineInput::SinglePlane(plane) => data.paths(plane).iter().collect(),
        BaselineInput::BothPlanes => data.paths_v4.iter().chain(data.paths_v6.iter()).collect(),
    }
}

fn canonical(a: Asn, b: Asn) -> (Asn, Asn, bool) {
    if a <= b {
        (a, b, false)
    } else {
        (b, a, true)
    }
}

/// A baseline's inferred relationships for a set of links (canonical
/// lower-ASN-first orientation).
#[derive(Debug, Clone, Default)]
pub struct BaselineInference {
    links: FastMap<(Asn, Asn), Relationship>,
}

impl BaselineInference {
    /// The inferred relationship of a link, oriented `a → b` in query order.
    pub fn relationship(&self, a: Asn, b: Asn) -> Option<Relationship> {
        let (lo, hi, flipped) = canonical(a, b);
        self.links.get(&(lo, hi)).map(|rel| if flipped { rel.reverse() } else { *rel })
    }

    /// Number of classified links.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// True when nothing was classified.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// Iterate links in canonical orientation.
    pub fn iter(&self) -> impl Iterator<Item = (Asn, Asn, Relationship)> + '_ {
        self.links.iter().map(|((a, b), rel)| (*a, *b, *rel))
    }

    /// Annotate a graph (both planes, since the baseline is plane-blind) on
    /// the links it has classifications for.
    pub fn annotate_graph(&self, graph: &mut AsGraph, planes: &[IpVersion]) {
        for ((a, b), rel) in &self.links {
            for plane in planes {
                if graph.has_link(*a, *b, *plane) {
                    graph.annotate(*a, *b, *plane, *rel);
                }
            }
        }
    }
}

/// A baseline's input paths interned once: every ASN and every canonical
/// link (lower ASN first) gets a dense id in first-seen order, and each
/// hop is recorded by the id of its ASN and of the link to the next hop.
/// Both baselines read degrees from here, so the two share one definition
/// of degree: the number of distinct neighbours over the pooled paths.
#[derive(Default)]
struct InternedPaths {
    /// The ASN of each ASN id.
    asns: Vec<Asn>,
    /// The endpoints (ASN ids, lower ASN first) of each link id.
    links: Vec<(u32, u32)>,
    /// The degree of each ASN id.
    degree: Vec<usize>,
    /// The ASN ids of every path, paths concatenated.
    hops: Vec<u32>,
    /// Per hop, the link id to the path's next hop (unused on a path's
    /// last hop).
    hop_links: Vec<u32>,
    /// The end of each path in `hops`.
    ends: Vec<usize>,
}

impl InternedPaths {
    fn new(data: &ExtractedData, input: BaselineInput) -> Self {
        let mut asn_ids: FastMap<Asn, u32> = FastMap::default();
        let mut link_ids: FastMap<(u32, u32), u32> = FastMap::default();
        let mut interned = InternedPaths::default();
        for p in input_paths(data, input) {
            for (i, &asn) in p.path.iter().enumerate() {
                let id = intern(&mut asn_ids, &mut interned.asns, asn);
                if i > 0 {
                    let prev = *interned.hops.last().expect("pushed for the previous hop");
                    let key = if p.path[i - 1] <= asn { (prev, id) } else { (id, prev) };
                    interned.hop_links.push(intern(&mut link_ids, &mut interned.links, key));
                }
                interned.hops.push(id);
            }
            if !p.path.is_empty() {
                interned.hop_links.push(u32::MAX);
            }
            interned.ends.push(interned.hops.len());
        }
        interned.degree = vec![0; interned.asns.len()];
        for &(a, b) in &interned.links {
            interned.degree[a as usize] += 1;
            if a != b {
                interned.degree[b as usize] += 1;
            }
        }
        interned
    }

    /// Each path as `(ASN ids, link id per hop)`.
    fn paths(&self) -> impl Iterator<Item = (&[u32], &[u32])> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts
            .zip(&self.ends)
            .map(|(start, &end)| (&self.hops[start..end], &self.hop_links[start..end]))
    }

    /// The degree of an ASN id, at least 1 (the ratio rules divide by it).
    fn degree_at_least_one(&self, id: u32) -> usize {
        self.degree[id as usize].max(1)
    }
}

/// The dense id of `key`, assigning the next free one (and recording the
/// key under it in `keys`) on first sight.
fn intern<K: Copy + Eq + Hash>(ids: &mut FastMap<K, u32>, keys: &mut Vec<K>, key: K) -> u32 {
    *ids.entry(key).or_insert_with(|| {
        keys.push(key);
        u32::try_from(keys.len() - 1).expect("fewer than 2^32 distinct keys")
    })
}

/// Gao's algorithm (simplified to its core heuristic).
pub fn gao_inference(data: &ExtractedData, input: BaselineInput) -> BaselineInference {
    let interned = InternedPaths::new(data, input);
    let degree = &interned.degree;

    // Phase 1: vote on transit direction using the top provider of each path.
    // votes[link] = (votes for "a is provider of b", votes for "b is provider of a")
    let mut votes: Vec<(usize, usize)> = vec![(0, 0); interned.links.len()];
    for (hops, hop_links) in interned.paths() {
        if hops.len() < 2 {
            continue;
        }
        let top_idx = top_provider(hops.iter().map(|&id| degree[id as usize]));
        for i in 0..hops.len() - 1 {
            let link = hop_links[i] as usize;
            // The link's canonical `a` endpoint is the lower ASN.
            let flipped = interned.links[link].0 != hops[i];
            let entry = &mut votes[link];
            if lo_is_provider(i, top_idx, flipped) {
                entry.0 += 1;
            } else {
                entry.1 += 1;
            }
        }
    }

    // Phase 2: resolve votes into relationships.
    let mut inference = BaselineInference::default();
    for (&(a, b), &(a_provider, b_provider)) in interned.links.iter().zip(&votes) {
        let rel = gao_relationship(
            interned.degree_at_least_one(a),
            interned.degree_at_least_one(b),
            a_provider,
            b_provider,
        );
        inference.links.insert((interned.asns[a as usize], interned.asns[b as usize]), rel);
    }
    inference
}

/// The index of a path's "top provider": the first hop of maximal degree.
/// Taking the *first* maximum matters: when two comparable hubs sit next
/// to each other, paths observed from either side nominate their own
/// nearer hub, the transit votes on the hub-hub link balance out, and the
/// link is recognised as peering.
fn top_provider(degrees: impl Iterator<Item = usize>) -> usize {
    let mut top = (0, 0);
    for (i, degree) in degrees.enumerate() {
        if i == 0 || degree > top.1 {
            top = (i, degree);
        }
    }
    top.0
}

/// Whether hop `i`'s link votes for its lower-ASN endpoint as the
/// provider. Before the top provider the route climbs (hop `i` is the
/// customer of hop `i + 1`); after it the route descends. `flipped` says
/// hop `i` is the link's higher-ASN endpoint.
fn lo_is_provider(i: usize, top: usize, flipped: bool) -> bool {
    (i >= top) != flipped
}

/// Gao's phase 2 for one link `a`–`b` (degrees at least 1, votes for
/// each endpoint as the provider): near-balanced votes between ASes of
/// comparable degree become peering, otherwise the majority direction
/// wins.
fn gao_relationship(
    degree_a: usize,
    degree_b: usize,
    a_provider: usize,
    b_provider: usize,
) -> Relationship {
    let ratio = degree_a as f64 / degree_b as f64;
    let total = a_provider + b_provider;
    let balanced = {
        let hi = a_provider.max(b_provider) as f64;
        total > 0 && hi / total as f64 <= 0.6
    };
    let comparable_degree = (0.2..=5.0).contains(&ratio);
    if balanced && comparable_degree {
        Relationship::PeerToPeer
    } else if a_provider >= b_provider {
        Relationship::ProviderToCustomer
    } else {
        Relationship::CustomerToProvider
    }
}

/// One canonical link's state in [`GaoVotes`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct GaoLink {
    /// Path hops that traverse the link.
    hops: usize,
    /// Votes for the lower ASN as the provider.
    lo_provider: usize,
    /// Votes for the higher ASN as the provider.
    hi_provider: usize,
}

/// Gao's phase-1 votes kept current while distinct paths come and go:
/// [`gao_inference`] over `BaselineInput::BothPlanes`, maintained path by
/// path.
///
/// Links and degrees follow [`gao_inference`]'s definition: a link is a
/// canonical pair of consecutive hops of a distinct de-prepended path on
/// either plane, and an AS's degree is its number of such links. Each
/// path votes with the top provider it was last voted with; the caller
/// keeps that index beside the path and hands it back on removal. When a
/// link appears or vanishes it moves its endpoints' degrees, which can
/// move the top provider of every path through them, so
/// [`GaoVotes::settle`] re-votes those paths before
/// [`GaoVotes::resolve`] reads the votes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GaoVotes {
    links: FastMap<(Asn, Asn), GaoLink>,
    degree: FastMap<Asn, usize>,
    /// ASes whose degree changed since the last [`GaoVotes::settle`].
    moved: BTreeSet<Asn>,
}

impl GaoVotes {
    /// Count a distinct path in and vote with it; returns the index of
    /// the top provider it voted with.
    pub fn add_path(&mut self, path: &[Asn]) -> usize {
        for pair in path.windows(2) {
            let (lo, hi, _) = canonical(pair[0], pair[1]);
            let link = self.links.entry((lo, hi)).or_default();
            link.hops += 1;
            if link.hops == 1 {
                self.shift_degrees(lo, hi, true);
            }
        }
        let top = self.top(path);
        self.vote(path, top, true);
        top
    }

    /// Withdraw a path's votes (cast with top provider `top`) and count it
    /// out.
    pub fn remove_path(&mut self, path: &[Asn], top: usize) {
        self.vote(path, top, false);
        for pair in path.windows(2) {
            let (lo, hi, _) = canonical(pair[0], pair[1]);
            let link = self.links.get_mut(&(lo, hi)).expect("counted on add");
            link.hops -= 1;
            if link.hops == 0 {
                self.links.remove(&(lo, hi));
                self.shift_degrees(lo, hi, false);
            }
        }
    }

    /// Re-vote every path through an AS whose degree moved since the last
    /// call. `paths` yields every counted path with the top provider it
    /// last voted with, which is updated in place.
    pub fn settle<'a>(&mut self, paths: impl Iterator<Item = (&'a [Asn], &'a mut usize)>) {
        if self.moved.is_empty() {
            return;
        }
        let moved: Vec<Asn> = std::mem::take(&mut self.moved).into_iter().collect();
        for (path, top) in paths {
            if !path.iter().any(|asn| moved.binary_search(asn).is_ok()) {
                continue;
            }
            let new_top = self.top(path);
            if new_top != *top {
                self.vote(path, *top, false);
                self.vote(path, new_top, true);
                *top = new_top;
            }
        }
    }

    /// The relationships the votes resolve to. Exact only once
    /// [`GaoVotes::settle`] has run over the current paths.
    pub fn resolve(&self) -> BaselineInference {
        let degree = |asn| self.degree.get(&asn).copied().unwrap_or(0).max(1);
        let links = self
            .links
            .iter()
            .map(|(&(a, b), link)| {
                let rel =
                    gao_relationship(degree(a), degree(b), link.lo_provider, link.hi_provider);
                ((a, b), rel)
            })
            .collect();
        BaselineInference { links }
    }

    fn top(&self, path: &[Asn]) -> usize {
        top_provider(path.iter().map(|asn| self.degree.get(asn).copied().unwrap_or(0)))
    }

    /// Add (`add`) or withdraw one path's votes under top provider `top`.
    fn vote(&mut self, path: &[Asn], top: usize, add: bool) {
        for (i, pair) in path.windows(2).enumerate() {
            let (lo, hi, flipped) = canonical(pair[0], pair[1]);
            let link = self.links.get_mut(&(lo, hi)).expect("counted before voting");
            let tally = if lo_is_provider(i, top, flipped) {
                &mut link.lo_provider
            } else {
                &mut link.hi_provider
            };
            if add {
                *tally += 1;
            } else {
                *tally -= 1;
            }
        }
    }

    /// A link `lo`–`hi` appeared (`up`) or vanished: move both endpoints'
    /// degrees (once for a self-link).
    fn shift_degrees(&mut self, lo: Asn, hi: Asn, up: bool) {
        let ends: &[Asn] = if lo == hi { &[lo] } else { &[lo, hi] };
        for &asn in ends {
            self.moved.insert(asn);
            let degree = self.degree.entry(asn).or_insert(0);
            if up {
                *degree += 1;
            } else {
                *degree -= 1;
                if *degree == 0 {
                    self.degree.remove(&asn);
                }
            }
        }
    }
}

/// A plain degree-ratio heuristic: the much larger AS is assumed to be the
/// provider; comparable ASes are assumed to peer.
pub fn degree_heuristic_inference(
    data: &ExtractedData,
    input: BaselineInput,
    peer_ratio: f64,
) -> BaselineInference {
    let interned = InternedPaths::new(data, input);
    let mut inference = BaselineInference::default();
    for &(a, b) in &interned.links {
        let ratio = interned.degree_at_least_one(a) as f64 / interned.degree_at_least_one(b) as f64;
        let rel = if ratio >= peer_ratio {
            Relationship::ProviderToCustomer
        } else if ratio <= 1.0 / peer_ratio {
            Relationship::CustomerToProvider
        } else {
            Relationship::PeerToPeer
        };
        inference.links.insert((interned.asns[a as usize], interned.asns[b as usize]), rel);
    }
    inference
}

/// Accuracy of a baseline against a ground-truth annotation on one plane.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct InferenceAccuracy {
    /// Links where both the baseline and the truth have a value.
    pub comparable: usize,
    /// Links classified identically.
    pub correct: usize,
    /// Transit links misclassified as peering.
    pub transit_as_peering: usize,
    /// Peering links misclassified as transit.
    pub peering_as_transit: usize,
    /// Transit links with the direction reversed.
    pub reversed_transit: usize,
    /// Any other disagreement (sibling involvement etc.).
    pub other_errors: usize,
}

impl InferenceAccuracy {
    /// Fraction of comparable links classified correctly.
    pub fn accuracy(&self) -> f64 {
        if self.comparable == 0 {
            0.0
        } else {
            self.correct as f64 / self.comparable as f64
        }
    }

    /// Evaluate a baseline against the given plane of an annotated graph.
    pub fn evaluate(
        baseline: &BaselineInference,
        truth: &AsGraph,
        plane: IpVersion,
    ) -> InferenceAccuracy {
        let mut acc = InferenceAccuracy::default();
        for (a, b, inferred) in baseline.iter() {
            let Some(actual) = truth.relationship(a, b, plane) else { continue };
            acc.comparable += 1;
            if inferred == actual {
                acc.correct += 1;
            } else if actual.is_transit() && inferred.is_peering() {
                acc.transit_as_peering += 1;
            } else if actual.is_peering() && inferred.is_transit() {
                acc.peering_as_transit += 1;
            } else if actual.is_transit() && inferred.is_transit() {
                acc.reversed_transit += 1;
            } else {
                acc.other_errors += 1;
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::extract;
    use bgp_types::{CollectorId, PathAttributes, PeerId, Prefix, RibEntry, RibSnapshot};
    use routesim::{Scenario, SimConfig};
    use std::net::IpAddr;
    use topogen::TopologyConfig;

    fn data_from(paths_v6: &[&str]) -> ExtractedData {
        let mut snap = RibSnapshot::new(CollectorId::new("t"), 1);
        for (i, p) in paths_v6.iter().enumerate() {
            snap.push(RibEntry::new(
                PeerId::new(Asn(1), "2001:db8::1".parse::<IpAddr>().unwrap()),
                format!("2001:db8:{:x}::/48", i + 1).parse::<Prefix>().unwrap(),
                PathAttributes::with_path(p.parse().unwrap()),
            ));
        }
        extract(&snap)
    }

    #[test]
    fn gao_classifies_a_clean_hierarchy() {
        // 100 is the big provider (high degree); 2,3,4 are its customers;
        // 20 is a customer of 2.
        let data = data_from(&["2 100 3", "2 100 4", "3 100 4", "20 2 100 3", "20 2 100 4"]);
        let inf = gao_inference(&data, BaselineInput::SinglePlane(IpVersion::V6));
        assert_eq!(inf.relationship(Asn(100), Asn(2)), Some(Relationship::ProviderToCustomer));
        assert_eq!(inf.relationship(Asn(100), Asn(3)), Some(Relationship::ProviderToCustomer));
        assert_eq!(inf.relationship(Asn(2), Asn(20)), Some(Relationship::ProviderToCustomer));
        assert_eq!(inf.relationship(Asn(20), Asn(2)), Some(Relationship::CustomerToProvider));
        assert!(!inf.is_empty());
        assert_eq!(inf.len(), 4);
        assert_eq!(inf.relationship(Asn(5), Asn(6)), None);
    }

    #[test]
    fn gao_detects_peering_between_comparable_tops() {
        // Two comparable hubs 100 and 200 exchange their customers' routes.
        let data = data_from(&["2 100 200 5", "3 100 200 6", "5 200 100 2", "6 200 100 3"]);
        let inf = gao_inference(&data, BaselineInput::SinglePlane(IpVersion::V6));
        assert_eq!(inf.relationship(Asn(100), Asn(200)), Some(Relationship::PeerToPeer));
        assert_eq!(inf.relationship(Asn(100), Asn(2)), Some(Relationship::ProviderToCustomer));
    }

    #[test]
    fn degree_heuristic_uses_the_ratio() {
        let data = data_from(&["2 100 3", "4 100 5", "6 100 7", "2 100 8", "3 100 9"]);
        let inf = degree_heuristic_inference(&data, BaselineInput::SinglePlane(IpVersion::V6), 2.0);
        // AS100 has degree 8, everyone else degree 1.
        assert_eq!(inf.relationship(Asn(100), Asn(3)), Some(Relationship::ProviderToCustomer));
        assert_eq!(inf.relationship(Asn(3), Asn(100)), Some(Relationship::CustomerToProvider));
        // Comparable-degree stubs peering? They share no link, so nothing.
        assert_eq!(inf.relationship(Asn(2), Asn(3)), None);
    }

    #[test]
    fn baselines_beat_chance_on_simulated_data_but_are_imperfect_on_v6() {
        let scenario = Scenario::build(&TopologyConfig::small(), &SimConfig::small());
        let data = extract(&scenario.pooled_snapshot(1));
        let gao = gao_inference(&data, BaselineInput::BothPlanes);
        let acc_v4 = InferenceAccuracy::evaluate(&gao, &scenario.truth.graph, IpVersion::V4);
        let acc_v6 = InferenceAccuracy::evaluate(&gao, &scenario.truth.graph, IpVersion::V6);
        assert!(acc_v4.comparable > 100);
        assert!(acc_v4.accuracy() > 0.5, "v4 accuracy {}", acc_v4.accuracy());
        assert!(acc_v6.accuracy() > 0.3, "v6 accuracy {}", acc_v6.accuracy());
        // The plane-blind baseline cannot be perfect on IPv6 because hybrid
        // links have, by construction, a different v6 relationship.
        assert!(acc_v6.accuracy() < 1.0);
        assert!(acc_v6.correct <= acc_v6.comparable);
        let total_errors = acc_v6.transit_as_peering
            + acc_v6.peering_as_transit
            + acc_v6.reversed_transit
            + acc_v6.other_errors;
        assert_eq!(acc_v6.comparable - acc_v6.correct, total_errors);
    }

    #[test]
    fn annotate_graph_only_touches_existing_links() {
        let data = data_from(&["2 100 3"]);
        let inf = gao_inference(&data, BaselineInput::SinglePlane(IpVersion::V6));
        let mut graph = AsGraph::new();
        graph.observe_link(Asn(2), Asn(100), IpVersion::V6);
        graph.observe_link(Asn(2), Asn(100), IpVersion::V4);
        inf.annotate_graph(&mut graph, &[IpVersion::V4, IpVersion::V6]);
        assert!(graph.relationship(Asn(2), Asn(100), IpVersion::V6).is_some());
        assert!(graph.relationship(Asn(2), Asn(100), IpVersion::V4).is_some());
        // The 100-3 link is not in the graph, so it must not be created.
        assert!(!graph.contains(Asn(3)));
    }

    #[test]
    fn accuracy_on_empty_inputs_is_zero() {
        let acc = InferenceAccuracy::default();
        assert_eq!(acc.accuracy(), 0.0);
        let empty = BaselineInference::default();
        let acc = InferenceAccuracy::evaluate(&empty, &AsGraph::new(), IpVersion::V6);
        assert_eq!(acc.comparable, 0);
    }
}
