//! Per-AS routing policies: LocPrf bases, community schemes, tagging and
//! scrubbing behaviour — plus the route-decision policy engine that lets
//! the propagation core dispatch acceptance per AS under adversarial
//! scenarios (route leaks, prefix hijacks) and defensive deployments
//! (ROV, ASPA-lite).

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use asgraph::{AsGraph, NodeId};
use bgp_types::{Asn, FastMap, IpVersion, Relationship};
use irr::{CommunityScheme, RelationshipTag, SchemeGenerator};
use topogen::{GroundTruth, PlannedTier};

use crate::config::SimConfig;
use crate::propagate::RouteInfo;

/// The LocPrf values an AS assigns to routes by the relationship class of
/// the neighbor it learned them from. Real ASes use wildly different
/// absolute values; what is (nearly) universal is the ordering
/// customer > peer > provider, which the paper relies on and which the
/// traffic-engineering filter must not be confused by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocPrfPlan {
    /// LocPrf for routes learned from customers.
    pub customer: u32,
    /// LocPrf for routes learned from peers.
    pub peer: u32,
    /// LocPrf for routes learned from providers.
    pub provider: u32,
    /// LocPrf for routes learned from siblings.
    pub sibling: u32,
    /// LocPrf applied when a route carries this AS's "lower preference"
    /// TE community (backup routing).
    pub lowered: u32,
}

impl LocPrfPlan {
    /// The LocPrf assigned to a route learned over a link with the given
    /// relationship (oriented `this AS → neighbor`).
    pub fn for_relationship(&self, rel: Relationship) -> u32 {
        match rel {
            Relationship::ProviderToCustomer => self.customer,
            Relationship::PeerToPeer => self.peer,
            Relationship::CustomerToProvider => self.provider,
            Relationship::SiblingToSibling => self.sibling,
        }
    }

    /// Sanity: the plan respects the conventional ordering.
    pub fn is_conventional(&self) -> bool {
        self.customer > self.peer && self.peer > self.provider && self.lowered < self.provider
    }
}

/// Everything the simulator needs to know about one AS's behaviour.
#[derive(Debug, Clone)]
pub struct AsPolicy {
    /// The AS.
    pub asn: Asn,
    /// LocPrf assignment plan.
    pub locprf: LocPrfPlan,
    /// The AS's community numbering plan.
    pub scheme: CommunityScheme,
    /// Whether the AS actually tags relationship communities at ingress.
    pub tags_relationships: bool,
    /// Whether the AS strips foreign (other ASes') communities when it
    /// re-exports a route.
    pub scrubs_foreign_communities: bool,
    /// Whether the AS's scheme is documented in the IRR.
    pub documented: bool,
    /// Whether the documentation includes the TE values.
    pub documents_te: bool,
}

impl AsPolicy {
    /// The ingress community this AS attaches for a route learned over a
    /// link with relationship `rel` (oriented `this AS → neighbor`), if it
    /// tags that class.
    pub fn ingress_community(&self, rel: Relationship) -> Option<bgp_types::Community> {
        if !self.tags_relationships {
            return None;
        }
        let tag = match rel {
            Relationship::ProviderToCustomer => RelationshipTag::FromCustomer,
            Relationship::PeerToPeer => RelationshipTag::FromPeer,
            Relationship::CustomerToProvider => RelationshipTag::FromProvider,
            Relationship::SiblingToSibling => RelationshipTag::FromSibling,
        };
        self.scheme.relationship_community(tag)
    }
}

/// The policies of every AS in a scenario.
#[derive(Debug, Clone, Default)]
pub struct PolicyTable {
    policies: FastMap<Asn, AsPolicy>,
}

impl PolicyTable {
    /// Build policies for every AS of a topology, deterministically from
    /// the simulation seed.
    pub fn build(truth: &GroundTruth, config: &SimConfig) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed ^ 0x706f_6c69);
        let scheme_generator = SchemeGenerator::default();
        let mut policies = FastMap::default();

        let mut asns: Vec<Asn> = truth.graph.asns().collect();
        asns.sort();
        for asn in asns {
            let tier = truth.tiers.get(&asn).copied().unwrap_or(PlannedTier::Stub);
            let is_transit = matches!(tier, PlannedTier::Tier1 | PlannedTier::Tier2);
            let tagging_probability = if is_transit {
                config.transit_tagging_probability
            } else {
                config.stub_tagging_probability
            };
            // Classic communities carry the tagging AS in their 16-bit
            // high half, so an AS past that space cannot define a scheme
            // at all — exactly as in the real Internet. The probability
            // draw still happens so the RNG stream (and with it every
            // pre-existing all-16-bit topology) is unchanged.
            let tags_relationships = rng.gen_bool(tagging_probability) && asn.is_16bit();

            // Pick one of a few realistic LocPrf families and jitter it, so
            // values differ across ASes but stay internally ordered.
            let family = rng.gen_range(0..3);
            let jitter = rng.gen_range(0..5) * 2;
            let locprf = match family {
                0 => LocPrfPlan {
                    customer: 300 + jitter,
                    peer: 200 + jitter,
                    provider: 100 + jitter,
                    sibling: 250 + jitter,
                    lowered: 50,
                },
                1 => LocPrfPlan {
                    customer: 120 + jitter,
                    peer: 110 + jitter,
                    provider: 100 + jitter,
                    sibling: 115 + jitter,
                    lowered: 80,
                },
                _ => LocPrfPlan {
                    customer: 900 + jitter,
                    peer: 500 + jitter,
                    provider: 200 + jitter,
                    sibling: 700 + jitter,
                    lowered: 90,
                },
            };

            let scheme = if tags_relationships {
                scheme_generator.generate(asn, &mut rng)
            } else {
                // Non-tagging ASes still have TE/location values defined.
                let mut scheme = CommunityScheme::build(
                    asn,
                    irr::SchemeStyle::ClassicHundreds,
                    &[],
                    rng.gen_range(0..6),
                );
                if !asn.is_16bit() {
                    // A 32-bit AS cannot be named in a classic community:
                    // strip every value (the `as u16` encoding would
                    // alias a real 16-bit AS and poison the inference).
                    scheme.te_values.clear();
                    scheme.location_count = 0;
                }
                scheme
            };

            let documented = tags_relationships && rng.gen_bool(config.documentation_probability);
            let documents_te = documented && rng.gen_bool(config.te_documentation_probability);
            policies.insert(
                asn,
                AsPolicy {
                    asn,
                    locprf,
                    scheme,
                    tags_relationships,
                    scrubs_foreign_communities: rng.gen_bool(config.community_scrub_probability),
                    documented,
                    documents_te,
                },
            );
        }
        PolicyTable { policies }
    }

    /// The policy of one AS (every AS in the topology has one).
    pub fn get(&self, asn: Asn) -> Option<&AsPolicy> {
        self.policies.get(&asn)
    }

    /// Number of policies.
    pub fn len(&self) -> usize {
        self.policies.len()
    }

    /// True when the table is empty.
    pub fn is_empty(&self) -> bool {
        self.policies.is_empty()
    }

    /// Iterate policies in ascending ASN order.
    pub fn iter(&self) -> impl Iterator<Item = &AsPolicy> {
        let mut asns: Vec<Asn> = self.policies.keys().copied().collect();
        asns.sort();
        asns.into_iter().map(move |a| &self.policies[&a])
    }

    /// ASes that tag relationship communities.
    pub fn tagging_ases(&self) -> Vec<Asn> {
        let mut out: Vec<Asn> =
            self.policies.values().filter(|p| p.tags_relationships).map(|p| p.asn).collect();
        out.sort();
        out
    }

    /// ASes whose schemes are documented in the IRR.
    pub fn documented_ases(&self) -> Vec<Asn> {
        let mut out: Vec<Asn> =
            self.policies.values().filter(|p| p.documented).map(|p| p.asn).collect();
        out.sort();
        out
    }
}

// ---------------------------------------------------------------------------
// Route-decision policy engine
// ---------------------------------------------------------------------------

/// The adversarial scenario a propagation runs under. `Classic` is the
/// paper's model — every AS runs the valley-free Gao–Rexford export
/// policy — and the default; the others inject one structural deviation
/// each, chosen deterministically from the graph (see
/// [`PolicyEngine::build`]), so the same configuration always produces
/// the same bytes at every worker count.
///
/// Unlike the worker knobs this *changes the output*: it is part of the
/// scenario's output identity, not an execution detail.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum PolicyScenario {
    /// Every AS runs the classic valley-free walk (the default).
    #[default]
    Classic,
    /// A chosen AS re-exports its peer-/provider-learned routes to peers
    /// and providers (a full-table route leak), and the leaked routes
    /// spread downhill from the adopters.
    RouteLeak,
    /// An attacker AS originates the victim's exact prefix; every AS
    /// picks between the two origins by the ordinary route preference.
    PrefixHijack,
    /// An attacker AS originates a more-specific subprefix of the
    /// victim's prefix; longest-prefix match means the attacker's route
    /// wins wherever it is heard at all.
    SubprefixHijack,
}

/// Deterministic per-AS sampler for partial defensive-policy deployment.
///
/// Each AS's draw is an independent ChaCha8 stream seeded from the
/// deployment seed and its own ASN, so whether an AS deploys never
/// depends on iteration order or worker count — the deployment pattern
/// is a pure function of `(fraction, seed, asn)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyDeployment {
    /// Fraction of ASes that deploy the scenario's defensive policy,
    /// in `[0, 1]`. `0` (the default) deploys nowhere, `1` everywhere.
    pub fraction: f64,
    /// Seed mixed with each ASN for the per-AS deployment draw.
    pub seed: u64,
}

impl Default for PolicyDeployment {
    fn default() -> Self {
        PolicyDeployment { fraction: 0.0, seed: 0 }
    }
}

impl PolicyDeployment {
    /// Does `asn` deploy the defensive policy under this sampling plan?
    pub fn deploys(&self, asn: Asn) -> bool {
        if self.fraction <= 0.0 {
            return false;
        }
        if self.fraction >= 1.0 {
            return true;
        }
        let mut rng =
            ChaCha8Rng::seed_from_u64(self.seed ^ (u64::from(asn.value()) << 16) ^ 0x6465_706c);
        rng.gen_bool(self.fraction)
    }
}

/// One AS's route-acceptance decision: given a candidate route, may this
/// AS install it? The propagation core consults it at every adoption
/// point, so a policy can veto routes whatever phase delivers them.
/// Acceptance depends only on the candidate's taint, which keeps
/// propagation deterministic and cacheable; a plain enum match keeps the
/// frozen-CSR hot path free of virtual calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Policy {
    /// The classic Gao–Rexford acceptor: installs everything the export
    /// rules deliver.
    #[default]
    Classic,
    /// Route-origin validation: rejects candidates whose origin is a
    /// hijack (the [`crate::propagate::RouteTaint::hijacked`] bit),
    /// modelling an AS that drops RPKI-invalid announcements.
    Rov,
    /// ASPA-lite path validation: rejects candidates that traversed a
    /// route leak (the [`crate::propagate::RouteTaint::leaked`] bit),
    /// modelling provider-set verification of the upstream path.
    AspaLite,
}

impl Policy {
    /// True when an AS running this policy accepts (installs) `candidate`.
    pub fn accepts(self, candidate: &RouteInfo) -> bool {
        match self {
            Policy::Classic => true,
            Policy::Rov => !candidate.taint.hijacked,
            Policy::AspaLite => !candidate.taint.leaked,
        }
    }
}

fn plane_slot(plane: IpVersion) -> usize {
    match plane {
        IpVersion::V4 => 0,
        IpVersion::V6 => 1,
    }
}

/// Everything the propagation core needs to run one scenario: the per-AS
/// policy assignment plus the structurally chosen attacker and leaker
/// nodes. Built once per propagation batch and shared read-only across
/// the origin workers — plain data, so sharing it cannot perturb
/// determinism.
#[derive(Debug, Clone)]
pub struct PolicyEngine {
    scenario: PolicyScenario,
    /// Per-node policy, indexed by `NodeId`; empty means "everyone runs
    /// `Policy::Classic`" and keeps the hot path allocation-free.
    policies: Vec<Policy>,
    attacker: [Option<NodeId>; 2],
    leaker: [Option<NodeId>; 2],
}

impl PolicyEngine {
    /// The engine of the default scenario: every AS classic, no attacker,
    /// no leaker. Propagating under this engine reproduces the
    /// pre-refactor walk bit for bit.
    pub fn classic() -> Self {
        PolicyEngine {
            scenario: PolicyScenario::Classic,
            policies: Vec::new(),
            attacker: [None; 2],
            leaker: [None; 2],
        }
    }

    /// Build the engine for `scenario` over `graph`.
    ///
    /// The attacker (hijack scenarios) is the highest-degree AS of each
    /// plane, the leaker ([`PolicyScenario::RouteLeak`]) the
    /// highest-degree AS that has at least one provider — both with ties
    /// broken towards the lowest ASN, a purely structural choice that
    /// ignores the deployment seed. The defensive policy —
    /// [`Policy::AspaLite`] against leaks, [`Policy::Rov`] against
    /// hijacks — is assigned to the ASes `deployment` samples.
    pub fn build(graph: &AsGraph, scenario: PolicyScenario, deployment: PolicyDeployment) -> Self {
        if scenario == PolicyScenario::Classic {
            return PolicyEngine::classic();
        }
        let defense = match scenario {
            PolicyScenario::RouteLeak => Policy::AspaLite,
            _ => Policy::Rov,
        };
        let policies = if deployment.fraction > 0.0 {
            let mut table = vec![Policy::Classic; graph.node_count()];
            for asn in graph.asns() {
                if deployment.deploys(asn) {
                    if let Some(node) = graph.node(asn) {
                        table[node.index()] = defense;
                    }
                }
            }
            table
        } else {
            Vec::new()
        };
        let mut attacker = [None; 2];
        let mut leaker = [None; 2];
        for plane in IpVersion::BOTH {
            let slot = plane_slot(plane);
            attacker[slot] = highest_degree_node(graph, plane, false);
            leaker[slot] = highest_degree_node(graph, plane, true);
        }
        PolicyEngine { scenario, policies, attacker, leaker }
    }

    /// The scenario this engine runs.
    pub fn scenario(&self) -> PolicyScenario {
        self.scenario
    }

    /// The policy assigned to `node`.
    pub fn policy_of(&self, node: NodeId) -> Policy {
        self.policies.get(node.index()).copied().unwrap_or(Policy::Classic)
    }

    /// May `node` install `candidate`? The all-classic fast path answers
    /// without touching the table.
    #[inline]
    pub fn accepts(&self, node: NodeId, candidate: &RouteInfo) -> bool {
        if self.policies.is_empty() {
            return true;
        }
        self.policy_of(node).accepts(candidate)
    }

    /// The hijack-scenario attacker on `plane`, if the plane has one.
    pub fn attacker(&self, plane: IpVersion) -> Option<NodeId> {
        self.attacker[plane_slot(plane)]
    }

    /// The route-leak leaker on `plane`, if the plane has one.
    pub fn leaker(&self, plane: IpVersion) -> Option<NodeId> {
        self.leaker[plane_slot(plane)]
    }
}

/// The highest-degree node of `plane` (ties to the lowest ASN), or the
/// highest-degree node that has a provider when `needs_provider` — the
/// deterministic structural pick for attackers and leakers. Nodes absent
/// from the plane are never picked.
fn highest_degree_node(graph: &AsGraph, plane: IpVersion, needs_provider: bool) -> Option<NodeId> {
    let mut asns: Vec<Asn> = graph.asns().collect();
    asns.sort();
    let mut best: Option<(usize, NodeId)> = None;
    for asn in asns {
        let degree = graph.degree(asn, plane);
        if degree == 0 {
            continue;
        }
        let Some(node) = graph.node(asn) else { continue };
        if needs_provider
            && !graph
                .neighbors_by_id(node, plane)
                .any(|(_, rel)| rel == Some(Relationship::CustomerToProvider))
        {
            continue;
        }
        if best.is_none_or(|(d, _)| degree > d) {
            best = Some((degree, node));
        }
    }
    best.map(|(_, node)| node)
}

#[cfg(test)]
mod tests {
    use super::*;
    use topogen::TopologyConfig;

    fn table() -> (GroundTruth, PolicyTable) {
        let truth = topogen::generate(&TopologyConfig::tiny());
        let policies = PolicyTable::build(&truth, &SimConfig::default());
        (truth, policies)
    }

    #[test]
    fn wide_asns_never_define_community_schemes() {
        // Classic communities cannot name a 32-bit AS; a truncated `as
        // u16` encoding would alias a 16-bit AS and make communities lie.
        let config =
            TopologyConfig { first_asn: 65_500, allow_32bit_asns: true, ..TopologyConfig::tiny() };
        let truth = topogen::generate(&config);
        let policies = PolicyTable::build(&truth, &SimConfig::default());
        let mut wide = 0;
        for asn in truth.graph.asns().filter(|a| !a.is_16bit()) {
            wide += 1;
            let policy = policies.get(asn).expect("every AS has a policy");
            assert!(!policy.tags_relationships, "{asn} must not tag");
            assert!(!policy.scheme.tags_relationships());
            assert!(policy.scheme.te_values.is_empty(), "{asn} must not honour TE");
            assert_eq!(policy.scheme.location_count, 0);
            assert!(!policy.documented, "nothing to document for {asn}");
        }
        assert!(wide > 0, "the fixture must actually cross the boundary");
    }

    #[test]
    fn every_as_has_a_policy() {
        let (truth, policies) = table();
        assert_eq!(policies.len(), truth.graph.node_count());
        assert!(!policies.is_empty());
        for asn in truth.graph.asns() {
            assert!(policies.get(asn).is_some(), "no policy for {asn}");
        }
        assert!(policies.get(Asn(65_123)).is_none());
    }

    #[test]
    fn locprf_plans_are_conventional() {
        let (_, policies) = table();
        for policy in policies.iter() {
            assert!(policy.locprf.is_conventional(), "{:?}", policy.locprf);
            assert_eq!(
                policy.locprf.for_relationship(Relationship::ProviderToCustomer),
                policy.locprf.customer
            );
            assert_eq!(
                policy.locprf.for_relationship(Relationship::CustomerToProvider),
                policy.locprf.provider
            );
            assert_eq!(
                policy.locprf.for_relationship(Relationship::PeerToPeer),
                policy.locprf.peer
            );
            assert_eq!(
                policy.locprf.for_relationship(Relationship::SiblingToSibling),
                policy.locprf.sibling
            );
        }
    }

    #[test]
    fn policy_build_is_deterministic() {
        let truth = topogen::generate(&TopologyConfig::tiny());
        let a = PolicyTable::build(&truth, &SimConfig::default());
        let b = PolicyTable::build(&truth, &SimConfig::default());
        assert_eq!(a.tagging_ases(), b.tagging_ases());
        assert_eq!(a.documented_ases(), b.documented_ases());
        let other = SimConfig { seed: 7, ..SimConfig::default() };
        let c = PolicyTable::build(&truth, &other);
        // Different seed; overwhelmingly likely to differ for 50+ ASes.
        assert!(a.tagging_ases() != c.tagging_ases() || a.documented_ases() != c.documented_ases());
    }

    #[test]
    fn documented_ases_are_a_subset_of_tagging_ases() {
        let (_, policies) = table();
        let tagging = policies.tagging_ases();
        for asn in policies.documented_ases() {
            assert!(tagging.contains(&asn));
        }
        assert!(!policies.tagging_ases().is_empty());
    }

    #[test]
    fn ingress_community_reflects_relationship_and_tagging() {
        let (_, policies) = table();
        let tagger = policies.get(policies.tagging_ases()[0]).unwrap();
        let c = tagger.ingress_community(Relationship::ProviderToCustomer).unwrap();
        assert_eq!(c.asn(), tagger.asn);
        // Peer tag exists too and differs from the customer tag.
        let p = tagger.ingress_community(Relationship::PeerToPeer).unwrap();
        assert_ne!(c, p);

        // A non-tagging AS never emits relationship communities.
        let non_tagger = policies.iter().find(|p| !p.tags_relationships).cloned();
        if let Some(non_tagger) = non_tagger {
            assert_eq!(non_tagger.ingress_community(Relationship::ProviderToCustomer), None);
        }
    }

    fn tainted(hijacked: bool, leaked: bool) -> RouteInfo {
        RouteInfo {
            class: crate::propagate::RouteClass::Provider,
            path_len: 2,
            next_hop: NodeId(0),
            taint: crate::propagate::RouteTaint { hijacked, leaked },
        }
    }

    #[test]
    fn policy_acceptance_follows_the_taint_table() {
        // (policy, hijacked, leaked, accepted)
        let table = [
            (Policy::Classic, false, false, true),
            (Policy::Classic, true, false, true),
            (Policy::Classic, false, true, true),
            (Policy::Classic, true, true, true),
            (Policy::Rov, false, false, true),
            (Policy::Rov, true, false, false),
            (Policy::Rov, false, true, true),
            (Policy::Rov, true, true, false),
            (Policy::AspaLite, false, false, true),
            (Policy::AspaLite, true, false, true),
            (Policy::AspaLite, false, true, false),
            (Policy::AspaLite, true, true, false),
        ];
        for (policy, hijacked, leaked, accepted) in table {
            assert_eq!(
                policy.accepts(&tainted(hijacked, leaked)),
                accepted,
                "{policy:?} hijacked={hijacked} leaked={leaked}"
            );
        }
    }

    #[test]
    fn deployment_sampler_is_deterministic_and_respects_the_bounds() {
        let half = PolicyDeployment { fraction: 0.5, seed: 9 };
        let asns: Vec<Asn> = (1u32..=512).map(Asn).collect();
        let first: Vec<bool> = asns.iter().map(|&a| half.deploys(a)).collect();
        let second: Vec<bool> = asns.iter().rev().map(|&a| half.deploys(a)).collect();
        // Same answers whatever order the ASes are asked in.
        for (i, asn) in asns.iter().enumerate() {
            assert_eq!(first[i], second[asns.len() - 1 - i], "{asn} flipped");
        }
        let deployed = first.iter().filter(|d| **d).count();
        assert!((100..400).contains(&deployed), "0.5 fraction drew {deployed}/512");
        // The endpoints are exact, not sampled.
        let none = PolicyDeployment { fraction: 0.0, seed: 9 };
        let all = PolicyDeployment { fraction: 1.0, seed: 9 };
        assert!(asns.iter().all(|&a| !none.deploys(a)));
        assert!(asns.iter().all(|&a| all.deploys(a)));
        // A different seed draws a different pattern.
        let reseeded = PolicyDeployment { fraction: 0.5, seed: 10 };
        assert!(asns.iter().any(|&a| half.deploys(a) != reseeded.deploys(a)));
    }

    #[test]
    fn classic_engine_accepts_everything_and_names_no_adversaries() {
        let truth = topogen::generate(&TopologyConfig::tiny());
        let engine = PolicyEngine::build(
            &truth.graph,
            PolicyScenario::Classic,
            PolicyDeployment { fraction: 1.0, seed: 3 },
        );
        for plane in IpVersion::BOTH {
            assert_eq!(engine.attacker(plane), None);
            assert_eq!(engine.leaker(plane), None);
        }
        for id in 0..truth.graph.node_count() as u32 {
            assert_eq!(engine.policy_of(NodeId(id)), Policy::Classic);
            assert!(engine.accepts(NodeId(id), &tainted(true, true)));
        }
    }

    #[test]
    fn engine_assigns_the_scenario_defense_to_sampled_ases() {
        let truth = topogen::generate(&TopologyConfig::tiny());
        let deployment = PolicyDeployment { fraction: 0.5, seed: 3 };
        let leak = PolicyEngine::build(&truth.graph, PolicyScenario::RouteLeak, deployment);
        let hijack = PolicyEngine::build(&truth.graph, PolicyScenario::SubprefixHijack, deployment);
        let mut defended = 0;
        for asn in truth.graph.asns() {
            let node = truth.graph.node(asn).unwrap();
            let expected = if deployment.deploys(asn) {
                defended += 1;
                (Policy::AspaLite, Policy::Rov)
            } else {
                (Policy::Classic, Policy::Classic)
            };
            assert_eq!((leak.policy_of(node), hijack.policy_of(node)), expected, "{asn}");
        }
        assert!(defended > 0, "the fixture must actually deploy somewhere");
        // Zero deployment keeps the all-classic fast path.
        let bare = PolicyEngine::build(
            &truth.graph,
            PolicyScenario::RouteLeak,
            PolicyDeployment::default(),
        );
        assert!(bare.accepts(NodeId(0), &tainted(true, true)));
    }

    #[test]
    fn attacker_and_leaker_are_structural_and_deterministic() {
        let truth = topogen::generate(&TopologyConfig::tiny());
        let deployment = PolicyDeployment { fraction: 0.3, seed: 1 };
        let a = PolicyEngine::build(&truth.graph, PolicyScenario::RouteLeak, deployment);
        // The picks ignore the deployment seed entirely.
        let b = PolicyEngine::build(
            &truth.graph,
            PolicyScenario::RouteLeak,
            PolicyDeployment { fraction: 0.9, seed: 77 },
        );
        for plane in IpVersion::BOTH {
            assert_eq!(a.attacker(plane), b.attacker(plane));
            assert_eq!(a.leaker(plane), b.leaker(plane));
            let attacker = a.attacker(plane).expect("the fixture has nodes on both planes");
            let leaker = a.leaker(plane).expect("the fixture has customers on both planes");
            let attacker_asn = truth.graph.asn(attacker);
            let leaker_asn = truth.graph.asn(leaker);
            // The attacker is a (the) highest-degree AS of the plane...
            let max_degree = truth.graph.asns().map(|x| truth.graph.degree(x, plane)).max();
            assert_eq!(Some(truth.graph.degree(attacker_asn, plane)), max_degree);
            // ...and the leaker has a provider to betray.
            assert!(truth
                .graph
                .neighbors_by_id(leaker, plane)
                .any(|(_, rel)| rel == Some(Relationship::CustomerToProvider)));
            assert!(truth.graph.degree(leaker_asn, plane) > 0);
        }
    }
}
