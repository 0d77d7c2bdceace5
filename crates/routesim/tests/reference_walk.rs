//! An independent reference for the propagation walk.
//!
//! The walk in `propagate.rs` is tuned for speed: per-class edge lists,
//! in-place adoption, level buckets. This file states the same model the
//! plain way, over `AsGraph::neighbors_by_id` and an `Option<RouteInfo>`
//! per node, and a proptest demands that `propagate_origin_with` selects
//! exactly the reference's route at every AS, for every origin, on random
//! two-plane graphs with siblings, multi-homing, peers and unannotated
//! links, under every `PolicyScenario` × deployment × relaxation.
//!
//! The model, phase by phase. A route is preferred by `(class, path
//! length, next-hop ASN)`, lowest first, with Origin < Customer < Peer <
//! Provider; a candidate is installed only where the target's policy
//! accepts it and the target is not the blocked node.
//!
//! 1. Customer routes climb from the seeds over customer-to-provider and
//!    sibling links. Iterated in rounds, each recomputing every
//!    non-seed's best offer from the previous round's table, until no
//!    route moves.
//! 2. Every Origin/Customer node offers a Peer route across each peering
//!    once; then the sibling closure spreads Peer routes.
//! 3. Every routed node offers a Provider route to each customer, again in
//!    rounds to a fixed point, never displacing an Origin, Customer or
//!    Peer route; then the sibling closure spreads Provider routes.
//!
//! A sibling closure is a stack seeded with every node that holds a route
//! of its class, in ascending node id: pop the top, offer its route one
//! hop further to each sibling in adjacency order, and push each sibling
//! that takes it.
//!
//! The scenario rules come after the strict phases:
//!
//! * `RouteLeak`: the engine's leaker, if it holds a Peer or Provider
//!   route, offers a Leaked copy to its providers and peers; in rounds,
//!   every node that adopted offers it on to its customers and siblings.
//!   A node adopts the best offer of a round if it has no route, or a
//!   Provider route longer than the offer, and adopts at most once.
//! * `PrefixHijack`: the engine's attacker is seeded next to the origin
//!   as a second Origin whose routes are tainted hijacked.
//! * `SubprefixHijack`: the attacker's walk (the origin blocked) and the
//!   origin's own walk run separately; every node but the origin takes
//!   the attacker's route where it has one (longest-prefix match).
//!
//! Neither hijack applies when the attacker is the origin itself.
//!
//! Then the seeded deviations:
//!
//! 4. Leak draws: one ChaCha8 stream per walk, seeded from the options
//!    seed and the origin ASN, draws `gen_bool(leak_probability)` for
//!    every Peer/Provider node in ascending node id. Each drawn leaker
//!    offers a Leaked copy to its providers and peers; a non-leaker adopts
//!    its best offer if, before any leak, it had no route or a longer
//!    Provider route.
//! 5. Relaxation fill: a min-heap of `(path length, tie, node id)` holds
//!    every routed node with tie 0. Popping a node offers a Relaxed route
//!    to each unrouted neighbour over an annotated link, in adjacency
//!    order; a node that takes it is pushed with the tie set to the ASN
//!    of the node it learned from.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use asgraph::{AsGraph, NodeId};
use bgp_types::{Asn, IpVersion, Relationship};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use routesim::{
    propagate_origin_with, PolicyDeployment, PolicyEngine, PolicyScenario, PropagationOptions,
    RouteClass, RouteInfo, RouteTaint,
};

use Relationship::{CustomerToProvider, PeerToPeer, ProviderToCustomer, SiblingToSibling};

type Table = Vec<Option<RouteInfo>>;

struct Walk<'a> {
    graph: &'a AsGraph,
    plane: IpVersion,
    options: &'a PropagationOptions,
    engine: &'a PolicyEngine,
    origin: Asn,
    blocked: Option<NodeId>,
}

impl Walk<'_> {
    /// `node`'s neighbours over links of the given kinds, in adjacency order.
    fn over(&self, node: NodeId, kinds: &[Relationship]) -> Vec<NodeId> {
        self.graph
            .neighbors_by_id(node, self.plane)
            .filter(|(_, rel)| rel.is_some_and(|rel| kinds.contains(&rel)))
            .map(|(next, _)| next)
            .collect()
    }

    fn rank(&self, route: &RouteInfo) -> (RouteClass, u32, u32) {
        (route.class, route.path_len, self.graph.asn(route.next_hop).value())
    }

    fn admits(&self, node: NodeId, cand: &RouteInfo) -> bool {
        Some(node) != self.blocked && self.engine.accepts(node, cand)
    }

    /// `from`'s route offered one hop further as `class`.
    fn offer(from: NodeId, route: &RouteInfo, class: RouteClass) -> RouteInfo {
        RouteInfo { class, path_len: route.path_len + 1, next_hop: from, taint: route.taint }
    }

    /// Keep the better of `best` and `cand`.
    fn keep_best(&self, best: &mut Option<RouteInfo>, cand: RouteInfo) {
        if best.is_none_or(|b| self.rank(&cand) < self.rank(&b)) {
            *best = Some(cand);
        }
    }

    /// Phases 1 and 3: rounds to a fixed point. Nodes routed in `base`
    /// keep their route; every other node takes its best admissible offer
    /// of `class` from the previous round's routes over `kinds` links.
    fn rounds(&self, base: &Table, kinds: &[Relationship], class: RouteClass) -> Table {
        let mut table = base.clone();
        for _ in 0..=table.len() {
            let mut next = base.clone();
            for from in self.graph.nodes() {
                let Some(route) = table[from.index()] else { continue };
                for to in self.over(from, kinds) {
                    let cand = Self::offer(from, &route, class);
                    if base[to.index()].is_none() && self.admits(to, &cand) {
                        self.keep_best(&mut next[to.index()], cand);
                    }
                }
            }
            if next == table {
                return table;
            }
            table = next;
        }
        panic!("the {class:?} rounds did not reach a fixed point");
    }

    fn sibling_closure(&self, table: &mut Table, class: RouteClass) {
        let mut stack: Vec<NodeId> = self
            .graph
            .nodes()
            .filter(|n| table[n.index()].is_some_and(|r| r.class == class))
            .collect();
        while let Some(from) = stack.pop() {
            let route = table[from.index()].expect("stacked nodes are routed");
            for to in self.over(from, &[SiblingToSibling]) {
                let cand = Self::offer(from, &route, class);
                let improves = table[to.index()].is_none_or(|r| self.rank(&cand) < self.rank(&r));
                if self.admits(to, &cand) && improves {
                    table[to.index()] = Some(cand);
                    stack.push(to);
                }
            }
        }
    }

    /// Would a node holding `current` adopt a leaked `cand`?
    fn attracted(current: Option<RouteInfo>, cand: &RouteInfo) -> bool {
        current.is_none_or(|r| r.class == RouteClass::Provider && cand.path_len < r.path_len)
    }

    fn leak(from: NodeId, route: &RouteInfo) -> RouteInfo {
        let taint = RouteTaint { leaked: true, ..route.taint };
        RouteInfo { taint, ..Self::offer(from, route, RouteClass::Leaked) }
    }

    fn scenario_leak(&self, table: &mut Table, leaker: NodeId) {
        let mut senders = vec![leaker];
        let mut kinds = &[CustomerToProvider, PeerToPeer][..];
        while !senders.is_empty() {
            let mut best: Table = vec![None; table.len()];
            for &from in &senders {
                let route = table[from.index()].expect("leak senders are routed");
                for to in self.over(from, kinds) {
                    let cand = Self::leak(from, &route);
                    let open = to != leaker && Self::attracted(table[to.index()], &cand);
                    if open && self.admits(to, &cand) {
                        self.keep_best(&mut best[to.index()], cand);
                    }
                }
            }
            senders = self.graph.nodes().filter(|n| best[n.index()].is_some()).collect();
            for &node in &senders {
                table[node.index()] = best[node.index()];
            }
            kinds = &[ProviderToCustomer, SiblingToSibling];
        }
    }

    fn leak_draws(&self, table: &mut Table) {
        let seed = self.options.seed ^ (u64::from(self.origin.value()) << 20) ^ 0x6c65616b;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let leakers: Vec<NodeId> = self
            .graph
            .nodes()
            .filter(|n| {
                table[n.index()]
                    .is_some_and(|r| matches!(r.class, RouteClass::Peer | RouteClass::Provider))
            })
            .filter(|_| rng.gen_bool(self.options.leak_probability))
            .collect();
        let mut best: Table = vec![None; table.len()];
        for &from in &leakers {
            let route = table[from.index()].expect("leakers are routed");
            for to in self.over(from, &[CustomerToProvider, PeerToPeer]) {
                let cand = Self::leak(from, &route);
                let open = !leakers.contains(&to) && Self::attracted(table[to.index()], &cand);
                if open && self.admits(to, &cand) {
                    self.keep_best(&mut best[to.index()], cand);
                }
            }
        }
        for (slot, adopted) in table.iter_mut().zip(best) {
            if adopted.is_some() {
                *slot = adopted;
            }
        }
    }

    fn relaxation_fill(&self, table: &mut Table) {
        let mut heap: BinaryHeap<Reverse<(u32, u32, u32)>> = self
            .graph
            .nodes()
            .filter_map(|n| table[n.index()].map(|r| Reverse((r.path_len, 0, n.0))))
            .collect();
        while let Some(Reverse((_, _, from))) = heap.pop() {
            let from = NodeId(from);
            let route = table[from.index()].expect("heap nodes are routed");
            for (to, rel) in self.graph.neighbors_by_id(from, self.plane) {
                let cand = Self::offer(from, &route, RouteClass::Relaxed);
                if rel.is_some() && table[to.index()].is_none() && self.admits(to, &cand) {
                    table[to.index()] = Some(cand);
                    heap.push(Reverse((cand.path_len, self.graph.asn(from).value(), to.0)));
                }
            }
        }
    }

    fn run(&self, seeds: &[(NodeId, RouteTaint)]) -> Table {
        let mut base: Table = vec![None; self.graph.node_count()];
        for &(seed, taint) in seeds {
            let origin =
                RouteInfo { class: RouteClass::Origin, path_len: 0, next_hop: seed, taint };
            base[seed.index()] = Some(origin);
        }
        let mut table =
            self.rounds(&base, &[CustomerToProvider, SiblingToSibling], RouteClass::Customer);
        let mut peered = table.clone();
        for from in self.graph.nodes() {
            let Some(route) = table[from.index()] else { continue };
            for to in self.over(from, &[PeerToPeer]) {
                let cand = Self::offer(from, &route, RouteClass::Peer);
                if table[to.index()].is_none() && self.admits(to, &cand) {
                    self.keep_best(&mut peered[to.index()], cand);
                }
            }
        }
        table = peered;
        self.sibling_closure(&mut table, RouteClass::Peer);
        table = self.rounds(&table, &[ProviderToCustomer], RouteClass::Provider);
        self.sibling_closure(&mut table, RouteClass::Provider);
        if self.engine.scenario() == PolicyScenario::RouteLeak {
            if let Some(leaker) =
                self.engine.leaker(self.plane).filter(|&l| Some(l) != self.blocked)
            {
                if table[leaker.index()]
                    .is_some_and(|r| matches!(r.class, RouteClass::Peer | RouteClass::Provider))
                {
                    self.scenario_leak(&mut table, leaker);
                }
            }
        }
        if self.options.leak_probability > 0.0 {
            self.leak_draws(&mut table);
        }
        if self.options.reachability_relaxation {
            self.relaxation_fill(&mut table);
        }
        table
    }
}

/// The reference's route of every node for `origin` on `plane`.
fn reference(
    graph: &AsGraph,
    origin: Asn,
    plane: IpVersion,
    options: &PropagationOptions,
    engine: &PolicyEngine,
) -> Table {
    let n = graph.node_count();
    let Some(origin_node) = graph.node(origin).filter(|_| graph.degree(origin, plane) > 0) else {
        return vec![None; n];
    };
    let walk = |blocked| Walk { graph, plane, options, engine, origin, blocked };
    let clean = RouteTaint::default();
    let hijacked = RouteTaint { hijacked: true, leaked: false };
    let attacker = engine.attacker(plane).filter(|&a| a != origin_node);
    match (engine.scenario(), attacker) {
        (PolicyScenario::PrefixHijack, Some(attacker)) => {
            walk(None).run(&[(origin_node, clean), (attacker, hijacked)])
        }
        (PolicyScenario::SubprefixHijack, Some(attacker)) => {
            let more_specific = walk(Some(origin_node)).run(&[(attacker, hijacked)]);
            let own = walk(None).run(&[(origin_node, clean)]);
            (0..n)
                .map(
                    |i| if i == origin_node.index() { own[i] } else { more_specific[i].or(own[i]) },
                )
                .collect()
        }
        _ => walk(None).run(&[(origin_node, clean)]),
    }
}

/// A two-plane graph from `(a, b, kind, planes)` links: kinds 0–3 are the
/// four relationships, 4 a link present but unannotated; planes 0 is v4
/// only, 1 v6 only, 2 both.
fn build_graph(links: &[(u32, u32, u8, u8)]) -> AsGraph {
    let mut graph = AsGraph::new();
    for &(a, b, kind, planes) in links {
        if a == b {
            continue;
        }
        let (a, b) = (Asn(a), Asn(b));
        let planes: &[IpVersion] = match planes {
            0 => &[IpVersion::V4],
            1 => &[IpVersion::V6],
            _ => &IpVersion::BOTH,
        };
        let rel = [ProviderToCustomer, CustomerToProvider, PeerToPeer, SiblingToSibling]
            .get(usize::from(kind));
        for &plane in planes {
            match rel {
                Some(&rel) => graph.annotate(a, b, plane, rel),
                None => graph.observe_link(a, b, plane),
            };
        }
    }
    graph
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn the_walk_selects_the_reference_route_everywhere(
        links in prop::collection::vec((1u32..20, 1u32..20, 0u8..5, 0u8..3), 1..50),
        leak_tenths in prop_oneof![Just(0u8), 1u8..=10],
        seed in any::<u64>(),
        frozen in any::<bool>(),
    ) {
        let mut graph = build_graph(&links);
        if frozen {
            graph.freeze();
        }
        let mut origins: Vec<Asn> = graph.asns().collect();
        origins.sort();
        for scenario in [
            PolicyScenario::Classic,
            PolicyScenario::RouteLeak,
            PolicyScenario::PrefixHijack,
            PolicyScenario::SubprefixHijack,
        ] {
            for fraction in [0.0, 0.5, 1.0] {
                let deployment = PolicyDeployment { fraction, seed: seed.rotate_left(17) };
                let engine = PolicyEngine::build(&graph, scenario, deployment);
                for relaxation in [false, true] {
                    let options = PropagationOptions {
                        reachability_relaxation: relaxation,
                        leak_probability: f64::from(leak_tenths) / 10.0,
                        seed,
                        scenario,
                        deployment,
                        ..Default::default()
                    };
                    for plane in IpVersion::BOTH {
                        for &origin in &origins {
                            let walked = propagate_origin_with(&graph, origin, plane, &options, &engine);
                            let expected = reference(&graph, origin, plane, &options, &engine);
                            for node in graph.nodes() {
                                prop_assert_eq!(
                                    walked.route(&graph, graph.asn(node)),
                                    expected[node.index()],
                                    "{:?} fraction {} relaxation {} {:?} origin {} at {}",
                                    scenario, fraction, relaxation, plane, origin, graph.asn(node)
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}
