//! Route-level pin of the propagation walk.
//!
//! The report goldens only see the routes that reach a collector feeder;
//! this test digests *every* AS's selected route (class, path length,
//! next-hop ASN, taint) for every origin of `TopologyConfig::small()` on
//! both planes, under every [`PolicyScenario`] at deployment fractions 0
//! and 0.5, with v6 relaxation on and a 0.3 leak probability — and
//! demands the digests recorded below at 1 and 2 workers under both
//! origin schedules. A walk optimisation that changes any route anywhere
//! fails here even when no feeder would have noticed.

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
