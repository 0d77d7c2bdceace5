//! Route-level pins of the propagation walk.
//!
//! The report goldens only see the routes that reach a collector feeder;
//! these tests digest *every* AS's selected route (class, path length,
//! next-hop ASN, taint) for every origin on both planes, under every
//! [`PolicyScenario`] at deployment fractions 0 and 0.5 with a 0.3 leak
//! probability, and demand the digests recorded below. The first pin
//! walks `TopologyConfig::small()` (v6 relaxation on) at 1 and 2 workers
//! under both origin schedules. The second walks fixed-seed random graphs
//! with the link shapes the generator never emits: present links without
//! an annotation, links on one plane only, sibling chains and relaxation
//! holes behind an unannotated link, with relaxation on on both planes.
//! A walk optimisation that changes any route anywhere fails here even
//! when no feeder would have noticed.

use asgraph::AsGraph;
use bgp_types::{Asn, IpVersion, Relationship};
use routesim::{
    propagate_origins, OriginScheduling, PolicyDeployment, PolicyScenario, PropagationOptions,
    RouteClass, RoutingOutcome,
};
use topogen::TopologyConfig;

/// FNV-1a, 64-bit: a tiny dependency-free digest that is stable across
/// platforms and toolchains.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }
}

fn class_code(class: RouteClass) -> u8 {
    match class {
        RouteClass::Origin => 0,
        RouteClass::Customer => 1,
        RouteClass::Peer => 2,
        RouteClass::Provider => 3,
        RouteClass::Relaxed => 4,
        RouteClass::Leaked => 5,
    }
}

/// Digest every AS's route (in ascending ASN order) of every outcome (in
/// origin order).
fn digest(graph: &AsGraph, asns: &[Asn], outcomes: &[RoutingOutcome], hash: &mut Fnv) {
    for outcome in outcomes {
        hash.u32(outcome.origin.value());
        for &asn in asns {
            match outcome.route(graph, asn) {
                None => hash.bytes(&[0xff]),
                Some(route) => {
                    hash.bytes(&[class_code(route.class)]);
                    hash.u32(route.path_len);
                    hash.u32(graph.asn(route.next_hop).value());
                    hash.bytes(&[
                        u8::from(route.taint.hijacked) | u8::from(route.taint.leaked) << 1
                    ]);
                }
            }
        }
    }
}

/// The digests recorded from the reference walk, one per
/// (scenario, deployment fraction), covering both planes.
const PINNED: [(PolicyScenario, f64, u64); 8] = [
    (PolicyScenario::Classic, 0.0, 0x9b51_18db_d22f_c31c),
    (PolicyScenario::Classic, 0.5, 0x9b51_18db_d22f_c31c),
    (PolicyScenario::RouteLeak, 0.0, 0x41be_e8ed_d52e_7683),
    (PolicyScenario::RouteLeak, 0.5, 0x667f_b22a_19b1_ebc2),
    (PolicyScenario::PrefixHijack, 0.0, 0xfd0a_2dad_fcda_04a7),
    (PolicyScenario::PrefixHijack, 0.5, 0x2ebf_36c2_16d2_d741),
    (PolicyScenario::SubprefixHijack, 0.0, 0x229b_83d0_49c9_4510),
    (PolicyScenario::SubprefixHijack, 0.5, 0x1a79_b1ab_a65d_1997),
];

#[test]
fn every_route_matches_the_pinned_digest_at_every_schedule() {
    let truth = topogen::generate(&TopologyConfig::small());
    let mut graph = truth.graph;
    graph.freeze();
    let mut asns: Vec<Asn> = graph.asns().collect();
    asns.sort();
    let has_siblings = asns.iter().any(|&a| {
        let node = graph.node(a).expect("listed ASNs are nodes");
        graph
            .neighbors_by_id(node, IpVersion::V4)
            .any(|(_, rel)| rel == Some(Relationship::SiblingToSibling))
    });
    assert!(has_siblings, "the pin must exercise the sibling closures");
    let mut mismatches = Vec::new();
    for (scenario, fraction, pinned) in PINNED {
        for workers in [1usize, 2] {
            for scheduling in [OriginScheduling::Dynamic, OriginScheduling::Static] {
                let mut hash = Fnv::new();
                for plane in IpVersion::BOTH {
                    let options = PropagationOptions {
                        reachability_relaxation: plane == IpVersion::V6,
                        leak_probability: 0.3,
                        seed: 42,
                        scenario,
                        deployment: PolicyDeployment { fraction, seed: 0x6465_706c },
                        frontier_concurrency: 1,
                        scheduling,
                    };
                    let origins: Vec<Asn> =
                        asns.iter().copied().filter(|&a| graph.degree(a, plane) > 0).collect();
                    let outcomes = propagate_origins(&graph, &origins, plane, &options, workers);
                    digest(&graph, &asns, &outcomes, &mut hash);
                }
                if hash.0 != pinned {
                    mismatches.push(format!(
                        "{scenario:?} fraction={fraction} workers={workers} \
                         scheduling={scheduling:?}: digest {:#018x}, pinned {pinned:#018x}",
                        hash.0
                    ));
                }
            }
        }
    }
    assert!(mismatches.is_empty(), "route digests diverged:\n{}", mismatches.join("\n"));
}

/// SplitMix64: the random graphs below must not move when the `rand`
/// implementation does, so they draw from this fixed generator.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform-enough draw from `0..bound` (`bound > 0`).
    fn below(&mut self, bound: u32) -> u32 {
        (self.next() % u64::from(bound)) as u32
    }

    /// True one time in `n`.
    fn one_in(&mut self, n: u32) -> bool {
        self.below(n) == 0
    }
}

/// Links created on a plane drawn from `rng`: both planes most of the
/// time, otherwise one plane only.
fn planes(rng: &mut SplitMix) -> &'static [IpVersion] {
    match rng.below(6) {
        0 => &[IpVersion::V4],
        1 => &[IpVersion::V6],
        _ => &IpVersion::BOTH,
    }
}

/// A random two-plane graph of `NODES` ASes (ASNs `1..=NODES`): a
/// provider hierarchy over ascending ASNs with peerings on top, plus
///
/// * present links without an annotation (`observe_link`), which no
///   phase may carry a route over, and links that exist on neither plane
///   (`add_link`);
/// * links on one plane only, and a few whose v6 relationship differs
///   from the v4 one (hybrids);
/// * sibling chains of three ASes;
/// * holes behind an unannotated link: an AS whose link towards the
///   routed graph is unannotated, reachable otherwise only over a second
///   peering, so only relaxation can route it, and only from the
///   annotated side.
fn random_graph(seed: u64) -> AsGraph {
    const NODES: u32 = 48;
    let mut rng = SplitMix(seed);
    let mut g = AsGraph::new();
    for child in 2..=NODES {
        for _ in 0..1 + rng.below(2) {
            let provider = Asn(1 + rng.below(child - 1));
            for &plane in planes(&mut rng) {
                g.annotate(provider, Asn(child), plane, Relationship::ProviderToCustomer);
            }
        }
    }
    for _ in 0..NODES / 2 {
        let (a, b) = (Asn(1 + rng.below(NODES)), Asn(1 + rng.below(NODES)));
        for &plane in planes(&mut rng) {
            g.annotate(a, b, plane, Relationship::PeerToPeer);
        }
    }
    for _ in 0..3 {
        let start = 1 + rng.below(NODES - 2);
        for step in 0..2 {
            g.annotate_both(
                Asn(start + step),
                Asn(start + step + 1),
                Relationship::SiblingToSibling,
            );
        }
    }
    for _ in 0..NODES / 4 {
        let (a, b) = (Asn(1 + rng.below(NODES)), Asn(1 + rng.below(NODES)));
        if rng.one_in(3) {
            g.add_link(a, b);
        } else {
            for &plane in planes(&mut rng) {
                g.observe_link(a, b, plane);
            }
        }
    }
    for _ in 0..4 {
        let (a, b) = (Asn(1 + rng.below(NODES)), Asn(1 + rng.below(NODES)));
        g.annotate(a, b, IpVersion::V6, Relationship::PeerToPeer);
    }
    for hole in 0..4 {
        let (near, far) = (Asn(1000 + 2 * hole), Asn(1001 + 2 * hole));
        g.observe_link(near, Asn(1 + rng.below(NODES)), IpVersion::V4);
        g.observe_link(near, Asn(1 + rng.below(NODES)), IpVersion::V6);
        g.annotate_both(near, far, Relationship::PeerToPeer);
        g.annotate_both(far, Asn(1 + rng.below(NODES)), Relationship::PeerToPeer);
    }
    g
}

/// The digests recorded from the reference walk over the random graphs,
/// one per scenario, covering every seed, both planes, deployment
/// fractions 0 and 0.5 and the graph both unfrozen and frozen.
const PINNED_RANDOM: [(PolicyScenario, u64); 4] = [
    (PolicyScenario::Classic, 0x3b9e_9397_42ef_e6cd),
    (PolicyScenario::RouteLeak, 0x5408_0656_9b22_8fe5),
    (PolicyScenario::PrefixHijack, 0x54ee_3469_3c41_91fa),
    (PolicyScenario::SubprefixHijack, 0x91e0_5273_01cf_a7ea),
];

#[test]
fn every_route_on_odd_link_shapes_matches_the_pinned_digest() {
    let mut mismatches = Vec::new();
    // Route classes seen behind the holes and anywhere, so the pin is
    // known to reach the relaxation and leak phases.
    let (mut relaxed_holes, mut leaked) = (0usize, 0usize);
    for (scenario, pinned) in PINNED_RANDOM {
        for frozen in [false, true] {
            let mut hash = Fnv::new();
            for seed in [1u64, 2, 3, 4] {
                let mut graph = random_graph(seed);
                if frozen {
                    graph.freeze();
                }
                let mut asns: Vec<Asn> = graph.asns().collect();
                asns.sort();
                for fraction in [0.0, 0.5] {
                    for plane in IpVersion::BOTH {
                        let options = PropagationOptions {
                            reachability_relaxation: true,
                            leak_probability: 0.3,
                            seed: 7 + seed,
                            scenario,
                            deployment: PolicyDeployment { fraction, seed: 0x6465_706c },
                            ..Default::default()
                        };
                        let origins: Vec<Asn> =
                            asns.iter().copied().filter(|&a| graph.degree(a, plane) > 0).collect();
                        let outcomes = propagate_origins(&graph, &origins, plane, &options, 2);
                        digest(&graph, &asns, &outcomes, &mut hash);
                        for outcome in &outcomes {
                            for &asn in &asns {
                                match outcome.route(&graph, asn).map(|r| r.class) {
                                    Some(RouteClass::Relaxed) if asn.value() >= 1000 => {
                                        relaxed_holes += 1
                                    }
                                    Some(RouteClass::Leaked) => leaked += 1,
                                    _ => {}
                                }
                            }
                        }
                    }
                }
            }
            if hash.0 != pinned {
                mismatches.push(format!(
                    "{scenario:?} frozen={frozen}: digest {:#018x}, pinned {pinned:#018x}",
                    hash.0
                ));
            }
        }
    }
    assert!(relaxed_holes > 0, "relaxation must fill the holes behind unannotated links");
    assert!(leaked > 0, "the leak draws must install leaked routes");
    assert!(mismatches.is_empty(), "route digests diverged:\n{}", mismatches.join("\n"));
}
