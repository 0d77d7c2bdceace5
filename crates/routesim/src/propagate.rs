//! Per-origin route propagation under Gao–Rexford export policies.
//!
//! For every origin prefix the simulator computes, for every AS, the best
//! route that AS would select, following the standard model:
//!
//! * an AS prefers routes learned from customers over routes learned from
//!   peers over routes learned from providers (this is what the LocPrf
//!   bases encode), breaking ties by AS-path length and then by lowest
//!   next-hop ASN;
//! * customer-learned (and self-originated) routes are exported to
//!   everyone; peer- and provider-learned routes are exported only to
//!   customers;
//! * sibling links are transparent: routes cross them without changing
//!   class.
//!
//! Two controlled deviations produce the non-valley-free paths the paper
//! observes on the IPv6 plane:
//!
//! * **reachability relaxation** — an AS that would otherwise have *no*
//!   route accepts one from any neighbor (and passes it on downhill);
//! * **route leaks** — with a small probability an AS re-exports a peer-
//!   or provider-learned route to a peer/provider that should not have
//!   received it.
//!
//! On top of the classic walk, every adoption point dispatches through a
//! per-AS [`PolicyEngine`]: under the
//! default [`PolicyScenario::Classic`] assignment every AS accepts
//! everything and the walk reproduces the pre-refactor routes bit for
//! bit, while the adversarial scenarios (route leak, prefix and
//! subprefix hijack) seed extra origins or deterministic leaks and let
//! partially deployed defensive policies (ROV, ASPA-lite) veto the
//! tainted candidates — see [`propagate_origin_with`].
//!
//! Execution is parallel across origins only: workers claim origins one
//! at a time ([`propagate_origins`]), and each origin's walk is one
//! sequential kernel over the plane's edges split by class.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use asgraph::{AsGraph, NodeId};
use bgp_types::{Asn, IpVersion, Relationship};

use crate::policy::{PolicyDeployment, PolicyEngine, PolicyScenario};

/// How origins are assigned to the workers of [`propagate_origins`].
///
/// Execution only, like every concurrency knob: both schedules write each
/// outcome back to its origin's slot, so the selected routes — and
/// therefore the report bytes — are identical whichever is picked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum OriginScheduling {
    /// Self-balancing claims (the default): each worker takes the next
    /// unclaimed origin from a shared counter, so one expensive origin
    /// occupies one worker while the others drain the rest of the list.
    #[default]
    Dynamic,
    /// Static striping (worker `w` takes origins `w, w + workers, …`),
    /// kept as the reference schedule.
    Static,
}

/// How an AS learned its best route towards the origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RouteClass {
    /// The AS originates the prefix itself.
    Origin,
    /// Learned from a customer (most preferred).
    Customer,
    /// Learned from a peer.
    Peer,
    /// Learned from a provider.
    Provider,
    /// Accepted from an arbitrary neighbor to restore reachability
    /// (valley-free relaxation).
    Relaxed,
    /// Received through a route leak.
    Leaked,
}

impl RouteClass {
    /// True for the classes that violate (or may violate) the valley-free
    /// export discipline.
    pub fn is_irregular(self) -> bool {
        matches!(self, RouteClass::Relaxed | RouteClass::Leaked)
    }
}

/// What a route has been through on its way here. Candidates inherit the
/// taint of the route their sender selected, so the bits are transitive:
/// any AS downstream of a hijacked origin or a leaked hop sees them, and
/// the defensive policies ([`crate::policy::Policy::Rov`],
/// [`crate::policy::Policy::AspaLite`]) key their vetoes off them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct RouteTaint {
    /// The route's origin is a hijacker, not the legitimate holder.
    pub hijacked: bool,
    /// The route traversed at least one leaked export.
    pub leaked: bool,
}

/// One AS's selected route towards the origin: the decoded view of the
/// packed per-node state the walk keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteInfo {
    /// How the route was learned.
    pub class: RouteClass,
    /// AS-path length in hops (origin = 0).
    pub path_len: u32,
    /// The neighbor the route was learned from (towards the origin).
    /// The origin itself points at itself.
    pub next_hop: NodeId,
    /// What the route has been through (hijacked origin, leaked hop).
    pub taint: RouteTaint,
}

/// Low three bits of a [`RouteWord`]'s metadata: the route class code,
/// `0` for "no route".
const CLASS_MASK: u32 = 0b111;
const HIJACKED_BIT: u32 = 1 << 3;
const LEAKED_BIT: u32 = 1 << 4;
/// The path length sits above the class and taint bits.
const PATH_LEN_SHIFT: u32 = 5;
/// The longest AS path a [`RouteWord`] can carry (2²⁷ − 1 hops).
const MAX_PATH_LEN: u32 = u32::MAX >> PATH_LEN_SHIFT;

/// One node's route packed into 8 bytes: the next-hop node id plus one
/// word holding class, taint and path length. The all-zero word means
/// "no route", so a table of words needs no `Option` wrapper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct RouteWord {
    next_hop: u32,
    meta: u32,
}

impl RouteWord {
    fn pack(info: &RouteInfo) -> RouteWord {
        assert!(
            info.path_len <= MAX_PATH_LEN,
            "AS path length {} exceeds the packed route bound {MAX_PATH_LEN}",
            info.path_len
        );
        let class = match info.class {
            RouteClass::Origin => 1,
            RouteClass::Customer => 2,
            RouteClass::Peer => 3,
            RouteClass::Provider => 4,
            RouteClass::Relaxed => 5,
            RouteClass::Leaked => 6,
        };
        let mut meta = class | info.path_len << PATH_LEN_SHIFT;
        if info.taint.hijacked {
            meta |= HIJACKED_BIT;
        }
        if info.taint.leaked {
            meta |= LEAKED_BIT;
        }
        RouteWord { next_hop: info.next_hop.0, meta }
    }

    #[inline]
    fn is_routed(self) -> bool {
        self.meta & CLASS_MASK != 0
    }

    #[inline]
    fn unpack(self) -> Option<RouteInfo> {
        let class = match self.meta & CLASS_MASK {
            0 => return None,
            1 => RouteClass::Origin,
            2 => RouteClass::Customer,
            3 => RouteClass::Peer,
            4 => RouteClass::Provider,
            5 => RouteClass::Relaxed,
            6 => RouteClass::Leaked,
            code => unreachable!("route class code {code} is never packed"),
        };
        Some(RouteInfo {
            class,
            path_len: self.meta >> PATH_LEN_SHIFT,
            next_hop: NodeId(self.next_hop),
            taint: RouteTaint {
                hijacked: self.meta & HIJACKED_BIT != 0,
                leaked: self.meta & LEAKED_BIT != 0,
            },
        })
    }
}

/// Every node's route of one walk, one [`RouteWord`] per node id.
#[derive(Debug, Clone, PartialEq, Eq)]
struct RouteTable {
    words: Vec<RouteWord>,
}

impl RouteTable {
    fn new(nodes: usize) -> Self {
        RouteTable { words: vec![RouteWord::default(); nodes] }
    }

    fn len(&self) -> usize {
        self.words.len()
    }

    #[inline]
    fn get(&self, node: NodeId) -> Option<RouteInfo> {
        self.words[node.index()].unpack()
    }

    #[inline]
    fn is_routed(&self, node: NodeId) -> bool {
        self.words[node.index()].is_routed()
    }

    #[inline]
    fn set(&mut self, node: NodeId, info: RouteInfo) {
        self.words[node.index()] = RouteWord::pack(&info);
    }

    /// The routed `sender`'s route offered one hop further as `class`:
    /// decoded for the policies, and packed for the table.
    #[inline]
    fn export(&self, sender: NodeId, class: RouteClass) -> (RouteInfo, RouteWord) {
        let info = self.get(sender).expect("only routed nodes export");
        let cand =
            RouteInfo { class, path_len: info.path_len + 1, next_hop: sender, taint: info.taint };
        (cand, RouteWord::pack(&cand))
    }

    /// The node's next hop towards the origin (the node itself at an
    /// origin), or `None` without a route.
    #[inline]
    fn next_hop(&self, node: NodeId) -> Option<NodeId> {
        let word = self.words[node.index()];
        word.is_routed().then_some(NodeId(word.next_hop))
    }

    #[cfg(test)]
    fn iter(&self) -> impl Iterator<Item = Option<RouteInfo>> + '_ {
        self.words.iter().map(|word| word.unpack())
    }
}

/// Options controlling the propagation deviations and its execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PropagationOptions {
    /// Enable the reachability relaxation phase.
    pub reachability_relaxation: bool,
    /// Per-(AS, origin) probability of leaking a peer/provider route.
    pub leak_probability: f64,
    /// Seed mixed with the origin ASN for the leak draws.
    pub seed: u64,
    /// The adversarial scenario the walk runs under (see
    /// [`PolicyScenario`]). Route model, not an execution detail: the
    /// non-classic scenarios change the selected routes.
    pub scenario: PolicyScenario,
    /// Partial deployment of the scenario's defensive policy (see
    /// [`PolicyDeployment`]). Route model like the scenario itself.
    pub deployment: PolicyDeployment,
    /// Read by nothing: each origin's walk is sequential. The field stays
    /// only while perfbench still names it (ROADMAP item 6). `0` and `1`
    /// (the default) are accepted; a larger value makes the propagation
    /// entry points panic rather than be silently ignored.
    pub frontier_concurrency: usize,
    /// How [`propagate_origins`] assigns origins to its workers.
    /// Execution only, like the worker counts: both schedules produce
    /// the same outcomes in the same order.
    pub scheduling: OriginScheduling,
}

impl Default for PropagationOptions {
    fn default() -> Self {
        PropagationOptions {
            reachability_relaxation: false,
            leak_probability: 0.0,
            seed: 0,
            scenario: PolicyScenario::default(),
            deployment: PolicyDeployment::default(),
            frontier_concurrency: 1,
            scheduling: OriginScheduling::default(),
        }
    }
}

impl PropagationOptions {
    /// These options pinned to an origin-to-worker schedule.
    pub fn with_scheduling(self, scheduling: OriginScheduling) -> Self {
        PropagationOptions { scheduling, ..self }
    }

    /// These options pinned to an adversarial scenario.
    pub fn with_scenario(self, scenario: PolicyScenario) -> Self {
        PropagationOptions { scenario, ..self }
    }

    /// These options pinned to a defensive deployment plan.
    pub fn with_deployment(self, deployment: PolicyDeployment) -> Self {
        PropagationOptions { deployment, ..self }
    }
}

/// The result of propagating one origin on one plane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutingOutcome {
    /// The origin AS.
    pub origin: Asn,
    /// The plane the propagation ran on.
    pub plane: IpVersion,
    routes: RouteTable,
}

impl RoutingOutcome {
    /// The selected route of an AS, if it has one.
    pub fn route(&self, graph: &AsGraph, asn: Asn) -> Option<RouteInfo> {
        graph.node(asn).and_then(|n| self.routes.get(n))
    }

    /// Number of ASes (including the origin) that have a route.
    pub fn routed_count(&self) -> usize {
        self.routes.words.iter().filter(|word| word.is_routed()).count()
    }

    /// The AS path `from → ... → origin` (inclusive on both ends) that
    /// `from` would use, reconstructed through the next-hop pointers.
    /// `None` when `from` has no route or the pointers loop. Every path
    /// the simulator emits goes through here.
    pub fn path(&self, graph: &AsGraph, from: Asn) -> Option<Vec<Asn>> {
        let mut node = graph.node(from)?;
        self.routes.next_hop(node)?;
        let mut path = vec![graph.asn(node)];
        let mut guard = 0usize;
        while let Some(next) = self.routes.next_hop(node) {
            if next == node {
                break;
            }
            node = next;
            path.push(graph.asn(node));
            guard += 1;
            if guard > self.routes.len() {
                // A replacement introduced a pointer loop; treat as unroutable.
                return None;
            }
        }
        Some(path)
    }

    /// True when the route of `from` traverses at least one irregular
    /// (relaxed or leaked) hop.
    pub fn path_is_irregular(&self, graph: &AsGraph, from: Asn) -> Option<bool> {
        let mut node = graph.node(from)?;
        self.routes.get(node)?;
        let mut guard = 0usize;
        while let Some(info) = self.routes.get(node) {
            if info.class.is_irregular() {
                return Some(true);
            }
            if info.class == RouteClass::Origin {
                return Some(false);
            }
            node = info.next_hop;
            guard += 1;
            if guard > self.routes.len() {
                return Some(true);
            }
        }
        Some(false)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Candidate {
    path_len: u32,
    tie_break: u32,
    node: u32,
}

/// Fixed-capacity bitset over node ids: membership stays a set under
/// duplicate insertions and the drain yields ids in ascending order.
/// Phase 4 keeps its leakers in one, and Phase 5 collects the routed
/// borders of its holes in one.
struct NodeBitSet {
    words: Vec<u64>,
}

impl NodeBitSet {
    fn new(nodes: usize) -> Self {
        NodeBitSet { words: vec![0; nodes.div_ceil(64)] }
    }

    #[inline]
    fn insert(&mut self, node: NodeId) {
        let i = node.index();
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    #[inline]
    fn contains(&self, node: NodeId) -> bool {
        let i = node.index();
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Move the set bits into `out` (cleared first) in ascending node-id
    /// order, leaving the set empty for the next level.
    fn drain_into(&mut self, out: &mut Vec<NodeId>) {
        out.clear();
        for (w, word) in self.words.iter_mut().enumerate() {
            let mut bits = *word;
            *word = 0;
            while bits != 0 {
                let b = bits.trailing_zeros();
                out.push(NodeId((w as u32) * 64 + b));
                bits &= bits - 1;
            }
        }
    }
}

/// Propagate one origin's prefix over one plane, building the scenario's
/// [`PolicyEngine`] from the options. Batch callers should build the
/// engine once and use [`propagate_origin_with`] instead —
/// [`propagate_origins`] does.
pub fn propagate_origin(
    graph: &AsGraph,
    origin: Asn,
    plane: IpVersion,
    options: &PropagationOptions,
) -> RoutingOutcome {
    let engine = PolicyEngine::build(graph, options.scenario, options.deployment);
    propagate_origin_with(graph, origin, plane, options, &engine)
}

/// Propagate one origin's prefix over one plane under a prebuilt
/// [`PolicyEngine`] (which must match `options.scenario` /
/// `options.deployment` — [`propagate_origin`] guarantees this).
///
/// The scenario decides the seeding:
///
/// * `Classic` and `RouteLeak` run the single-source walk from the
///   origin (`RouteLeak` adds the deterministic leak step);
/// * `PrefixHijack` seeds the attacker as a second, tainted origin and
///   lets the ordinary preference order pick the winner per AS;
/// * `SubprefixHijack` runs the attacker's walk (with the victim
///   blocked — it knows its own prefix) and the victim's walk
///   separately, then merges with the attacker winning wherever its
///   more-specific announcement was heard (longest-prefix match).
pub fn propagate_origin_with(
    graph: &AsGraph,
    origin: Asn,
    plane: IpVersion,
    options: &PropagationOptions,
    engine: &PolicyEngine,
) -> RoutingOutcome {
    propagate_in(&Batch::new(graph, plane, options, engine), origin)
}

/// What every origin of one batch shares: the plane, options and policy
/// engine, plus the plane's edges split by the class the phases read.
///
/// * `climbs`: each node's providers and siblings
///   (`CustomerToProvider` and `SiblingToSibling` links), the edges
///   Phase 1 carries a customer route up.
/// * `peers`: each node's peers, the edges Phase 2 exports over.
/// * `customers`: each node's customers (`ProviderToCustomer` links), the
///   only edges Phase 3 carries a route over.
/// * `sibling_links`: each node's siblings, the edges both sibling
///   closures forward over.
/// * `annotated`: each node's neighbours over links annotated on the
///   plane, the only edges Phase 5 relaxes across. Its holes' lists seed
///   the relaxation heap.
/// * `siblings`: the sibling-linked nodes in ascending id order, the only
///   nodes a sibling closure can ever act on.
/// * `transit`: the nodes with customers in ascending id order, the only
///   nodes Phase 3 schedules: a node without customers exports nothing
///   downhill.
///
/// All of them come from one pass over the plane's adjacency, and every
/// edge list keeps each node's neighbours in [`AsGraph::neighbors_by_id`]
/// order, so a phase that walks a list sees exactly the neighbours, in
/// exactly the order, of a filtered adjacency scan.
struct Batch<'a> {
    graph: &'a AsGraph,
    plane: IpVersion,
    options: &'a PropagationOptions,
    engine: &'a PolicyEngine,
    climbs: EdgeClass,
    peers: EdgeClass,
    customers: EdgeClass,
    sibling_links: EdgeClass,
    annotated: EdgeClass,
    siblings: Vec<NodeId>,
    transit: Vec<NodeId>,
}

impl<'a> Batch<'a> {
    /// Split the plane's edges for a batch of walks under `options`.
    ///
    /// # Panics
    ///
    /// When `options.frontier_concurrency` asks for more than one
    /// within-origin worker: the walk is sequential, and the field stays
    /// only while perfbench still names it (ROADMAP item 6), so a caller
    /// that asks for a split learns that it is gone instead of being
    /// silently ignored.
    fn new(
        graph: &'a AsGraph,
        plane: IpVersion,
        options: &'a PropagationOptions,
        engine: &'a PolicyEngine,
    ) -> Self {
        assert!(
            options.frontier_concurrency <= 1,
            "PropagationOptions::frontier_concurrency = {} asks for a within-origin split, \
             but the walk is sequential; the field stays only until perfbench stops naming it \
             (ROADMAP item 6) and must be 0 or 1",
            options.frontier_concurrency
        );
        let n = graph.node_count();
        let mut climbs = EdgeClass::with_capacity(n, 0);
        let mut peers = EdgeClass::with_capacity(n, 0);
        let mut customers = EdgeClass::with_capacity(n, 0);
        let mut sibling_links = EdgeClass::with_capacity(n, 0);
        let mut annotated = EdgeClass::with_capacity(n, 2 * graph.plane_edge_count(plane));
        let mut siblings = Vec::new();
        let mut transit = Vec::new();
        for node in graph.nodes() {
            for (next, rel) in graph.neighbors_by_id(node, plane) {
                let Some(rel) = rel else { continue };
                annotated.targets.push(next.0);
                match rel {
                    Relationship::CustomerToProvider => climbs.targets.push(next.0),
                    Relationship::PeerToPeer => peers.targets.push(next.0),
                    Relationship::ProviderToCustomer => customers.targets.push(next.0),
                    Relationship::SiblingToSibling => {
                        climbs.targets.push(next.0);
                        sibling_links.targets.push(next.0);
                    }
                }
            }
            for class in
                [&mut climbs, &mut peers, &mut customers, &mut sibling_links, &mut annotated]
            {
                class.end_node();
            }
            if sibling_links.any(node) {
                siblings.push(node);
            }
            if customers.any(node) {
                transit.push(node);
            }
        }
        Batch {
            graph,
            plane,
            options,
            engine,
            climbs,
            peers,
            customers,
            sibling_links,
            annotated,
            siblings,
            transit,
        }
    }
}

/// One class of a plane's directed edges in CSR form: node `v`'s targets
/// are `targets[offsets[v]..offsets[v + 1]]`, in adjacency order.
struct EdgeClass {
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl EdgeClass {
    fn with_capacity(nodes: usize, edges: usize) -> Self {
        let mut offsets = Vec::with_capacity(nodes + 1);
        offsets.push(0);
        EdgeClass { offsets, targets: Vec::with_capacity(edges) }
    }

    /// Close the current node's run of targets.
    fn end_node(&mut self) {
        let end =
            u32::try_from(self.targets.len()).expect("edge class exceeds the u32 offset space");
        self.offsets.push(end);
    }

    /// The node's targets in this class.
    #[inline]
    fn of(&self, node: NodeId) -> &[u32] {
        let i = node.index();
        &self.targets[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// True when the node has at least one edge in this class.
    #[inline]
    fn any(&self, node: NodeId) -> bool {
        self.offsets[node.index() + 1] > self.offsets[node.index()]
    }
}

/// [`propagate_origin_with`] for one origin of `batch`.
fn propagate_in(batch: &Batch<'_>, origin: Asn) -> RoutingOutcome {
    let (graph, plane, engine) = (batch.graph, batch.plane, batch.engine);
    let n = graph.node_count();
    let Some(origin_node) = graph.node(origin) else {
        return RoutingOutcome { origin, plane, routes: RouteTable::new(n) };
    };
    if graph.degree(origin, plane) == 0 {
        // The origin is not present on this plane at all.
        return RoutingOutcome { origin, plane, routes: RouteTable::new(n) };
    }
    let clean = RouteTaint::default();
    let hijacked = RouteTaint { hijacked: true, leaked: false };
    // A node never attacks itself: when the structural pick lands on the
    // origin, the scenario degenerates to the classic walk for this one
    // origin.
    let attacker = match engine.scenario() {
        PolicyScenario::PrefixHijack | PolicyScenario::SubprefixHijack => {
            engine.attacker(plane).filter(|&a| a != origin_node)
        }
        _ => None,
    };
    let routes = match (engine.scenario(), attacker) {
        (PolicyScenario::SubprefixHijack, Some(attacker)) => {
            let attacker_routes =
                run_walk(batch, origin, &[(attacker, hijacked)], Some(origin_node));
            let victim_routes = run_walk(batch, origin, &[(origin_node, clean)], None);
            let words = attacker_routes
                .words
                .iter()
                .zip(victim_routes.words.iter())
                .enumerate()
                .map(
                    |(i, (&atk, &vic))| {
                        if i == origin_node.index() || !atk.is_routed() {
                            vic
                        } else {
                            atk
                        }
                    },
                )
                .collect();
            RouteTable { words }
        }
        (PolicyScenario::PrefixHijack, Some(attacker)) => {
            run_walk(batch, origin, &[(origin_node, clean), (attacker, hijacked)], None)
        }
        _ => run_walk(batch, origin, &[(origin_node, clean)], None),
    };
    RoutingOutcome { origin, plane, routes }
}

/// The five-phase walk from `seeds`, with every adoption gated by the
/// engine's per-AS policy and `blocked` never installing anything
/// (neither a route nor an export — its prefix knowledge is handled by
/// the caller).
///
/// Phases 1–3 apply every candidate in place the moment it is made. Each
/// adoption is a per-target minimum over `(path_len, next-hop ASN)` (see
/// [`better`]), which is a strict total order, and a sender's route is
/// never rewritten while it exports (its own level's candidates are one
/// hop longer), so neither the winners nor the set of nodes a level
/// newly routes depend on the order the candidates arrive in.
fn run_walk(
    batch: &Batch<'_>,
    origin: Asn,
    seeds: &[(NodeId, RouteTaint)],
    blocked: Option<NodeId>,
) -> RouteTable {
    let (graph, plane, options, engine) = (batch.graph, batch.plane, batch.options, batch.engine);
    let n = graph.node_count();
    let mut routes = RouteTable::new(n);
    for &(seed, taint) in seeds {
        routes
            .set(seed, RouteInfo { class: RouteClass::Origin, path_len: 0, next_hop: seed, taint });
    }
    let admit =
        |target: NodeId, cand: &RouteInfo| Some(target) != blocked && engine.accepts(target, cand);
    // Offer `cand` (packed as `word`) to `target`; true when it was
    // installed on a node that had no route before.
    let offer = |routes: &mut RouteTable, target: NodeId, cand: &RouteInfo, word: RouteWord| {
        let current = routes.words[target.index()];
        if better(current, word, graph) && admit(target, cand) {
            routes.words[target.index()] = word;
            !current.is_routed()
        } else {
            false
        }
    };

    // ---- Phase 1: customer routes (and the origin's siblings) -----------
    // A route travels "upward": from a node to its providers, and across
    // sibling links, keeping the Customer class (`Batch::climbs`). The
    // climb is a BFS with `exporters` as its FIFO queue: a node is queued
    // when first routed, at its final level, and exports after every
    // same-level improvement, because the whole previous level is ahead
    // of it. The queue ends holding every node this phase routed: the
    // Phase 2 exporters.
    let mut exporters: Vec<NodeId> = seeds.iter().map(|&(seed, _)| seed).collect();
    let mut queued = 0;
    while let Some(&sender) = exporters.get(queued) {
        queued += 1;
        let (cand, word) = routes.export(sender, RouteClass::Customer);
        for &next in batch.climbs.of(sender) {
            if offer(&mut routes, NodeId(next), &cand, word) {
                exporters.push(NodeId(next));
            }
        }
    }

    // ---- Phase 2: peer routes --------------------------------------------
    // Nodes with a customer/origin route export it across one peering
    // link (`Batch::peers`). Exporters are never displaced by a peer
    // route, so each target simply keeps its best admissible offer.
    for &sender in &exporters {
        let (cand, word) = routes.export(sender, RouteClass::Peer);
        for &next in batch.peers.of(sender) {
            offer(&mut routes, NodeId(next), &cand, word);
        }
    }
    sibling_closure(batch, &mut routes, RouteClass::Peer, blocked);

    // ---- Phase 3: provider routes ------------------------------------------
    // Any routed node exports its best route to its customers; customers
    // that still lack a better route take it, and pass it on downhill.
    // The same BFS by level as Phase 1, with sources at different levels:
    // every routed node exports once, at its route's path length, and a
    // customer first routed at level d+1 exports at level d+1. Same-level
    // improvements only change the next hop, never the level, so the
    // levels run strictly in order. Only nodes with customers
    // (`Batch::transit`) are scheduled, and only their customer lists are
    // read.
    {
        let mut buckets: Vec<Vec<NodeId>> = Vec::new();
        let schedule = |buckets: &mut Vec<Vec<NodeId>>, level: usize, node: NodeId| {
            if buckets.len() <= level {
                buckets.resize_with(level + 1, Vec::new);
            }
            buckets[level].push(node);
        };
        for &node in &batch.transit {
            if let Some(info) = routes.get(node) {
                schedule(&mut buckets, info.path_len as usize, node);
            }
        }
        let mut level = 0;
        while level < buckets.len() {
            let frontier = std::mem::take(&mut buckets[level]);
            level += 1;
            for sender in frontier {
                let (cand, word) = routes.export(sender, RouteClass::Provider);
                for &next in batch.customers.of(sender) {
                    let next = NodeId(next);
                    if offer(&mut routes, next, &cand, word) && batch.customers.any(next) {
                        schedule(&mut buckets, level, next);
                    }
                }
            }
        }
        sibling_closure(batch, &mut routes, RouteClass::Provider, blocked);
    }

    // ---- Scenario: deterministic route leak -------------------------------------
    // The chosen leaker re-exports its peer-/provider-learned route to
    // every peer and provider — a full-table leak — and the adopters pass
    // it on downhill. Runs between the strict phases and the
    // probabilistic deviations so the seeded Phase 4/5 draws observe the
    // post-leak state exactly like any other route.
    if engine.scenario() == PolicyScenario::RouteLeak {
        if let Some(leaker) = engine.leaker(plane) {
            if Some(leaker) != blocked {
                if let Some(info) = routes.get(leaker) {
                    if matches!(info.class, RouteClass::Peer | RouteClass::Provider) {
                        deterministic_leak(
                            graph,
                            plane,
                            &mut routes,
                            leaker,
                            info,
                            engine,
                            blocked,
                        );
                    }
                }
            }
        }
    }

    // ---- Phase 4: route leaks -------------------------------------------------
    if options.leak_probability > 0.0 {
        let mut rng = ChaCha8Rng::seed_from_u64(
            options.seed ^ (u64::from(origin.value()) << 20) ^ 0x6c65616b,
        );
        // Leaks are decided against the pre-leak state so adoption cannot
        // cycle: nothing writes `routes` before the adoption loop below.
        let mut adoptions: Vec<(NodeId, RouteInfo)> = Vec::new();
        let mut leakers = NodeBitSet::new(n);
        for node in graph.nodes() {
            let Some(info) = routes.get(node) else { continue };
            if !matches!(info.class, RouteClass::Peer | RouteClass::Provider) {
                continue;
            }
            if !rng.gen_bool(options.leak_probability) {
                continue;
            }
            leakers.insert(node);
            for (next, rel) in graph.neighbors_by_id(node, plane) {
                // Forbidden exports: to providers and peers.
                let forbidden = matches!(
                    rel,
                    Some(Relationship::CustomerToProvider) | Some(Relationship::PeerToPeer)
                );
                if !forbidden {
                    continue;
                }
                let cand = RouteInfo {
                    class: RouteClass::Leaked,
                    path_len: info.path_len + 1,
                    next_hop: node,
                    taint: RouteTaint { hijacked: info.taint.hijacked, leaked: true },
                };
                let adopt = match routes.get(next) {
                    None => true,
                    // The receiver believes it is a customer/peer route, so
                    // it may replace a provider-learned route.
                    Some(existing) => {
                        existing.class == RouteClass::Provider && cand.path_len < existing.path_len
                    }
                };
                if adopt {
                    adoptions.push((next, cand));
                }
            }
        }
        adoptions
            .sort_by_key(|(next, cand)| (next.0, cand.path_len, graph.asn(cand.next_hop).value()));
        for (next, cand) in adoptions {
            // Never replace the route of a node that is itself leaking (its
            // exported route was computed from the pre-leak state).
            if leakers.contains(next) || !admit(next, &cand) {
                continue;
            }
            let replace = match routes.get(next) {
                None => true,
                Some(existing) => {
                    existing.class == RouteClass::Provider && cand.path_len < existing.path_len
                }
            };
            if replace {
                routes.set(next, cand);
            }
        }
    }

    // ---- Phase 5: reachability relaxation ---------------------------------------
    // Relaxation only fills holes and never replaces a route, so a node
    // whose annotated neighbors are all routed now stays without work
    // for the whole phase: only the routed nodes that border a hole
    // seed the heap. They are found from the holes' side, through each
    // unrouted node's annotated list (`Batch::annotated`): annotation is
    // symmetric, so a routed node borders a hole exactly when it is on
    // some hole's list. Holes are few after the strict phases, which is
    // why this side is cheaper. The seeds enter in ascending id order,
    // and the pop order of the entries is the heap's total order, so the
    // seeding changes nothing it installs. Expansion reads the same
    // lists, in adjacency order.
    if options.reachability_relaxation {
        let mut borders = NodeBitSet::new(n);
        for hole in graph.nodes().filter(|&node| !routes.is_routed(node)) {
            for &next in batch.annotated.of(hole) {
                if routes.is_routed(NodeId(next)) {
                    borders.insert(NodeId(next));
                }
            }
        }
        let mut seeds = Vec::new();
        borders.drain_into(&mut seeds);
        let mut heap: BinaryHeap<Reverse<Candidate>> = seeds
            .iter()
            .map(|&node| {
                let path_len = routes.get(node).expect("hole borders are routed").path_len;
                Reverse(Candidate { path_len, tie_break: 0, node: node.0 })
            })
            .collect();
        while let Some(Reverse(Candidate { path_len, node, .. })) = heap.pop() {
            let node = NodeId(node);
            let Some(current) = routes.get(node) else { continue };
            if current.path_len < path_len {
                continue;
            }
            for &next in batch.annotated.of(node) {
                let next = NodeId(next);
                if routes.is_routed(next) {
                    continue; // relaxation only fills holes
                }
                let cand = RouteInfo {
                    class: RouteClass::Relaxed,
                    path_len: current.path_len + 1,
                    next_hop: node,
                    taint: current.taint,
                };
                if !admit(next, &cand) {
                    continue;
                }
                routes.set(next, cand);
                heap.push(Reverse(Candidate {
                    path_len: cand.path_len,
                    tie_break: graph.asn(node).value(),
                    node: next.0,
                }));
            }
        }
    }

    routes
}

/// The [`PolicyScenario::RouteLeak`] step: the leaker exports its
/// selected peer-/provider-learned route to every peer and provider
/// (the forbidden directions — customers already received it through the
/// ordinary Phase 3 export), and the leaked routes then spread downhill
/// over provider-to-customer and sibling links. An AS adopts a leaked
/// route only where it looks attractive — it has no route at all, or the
/// leak is strictly shorter than its provider-learned route — and a node
/// that adopted never re-adopts, so the spread is monotone and
/// terminates. Deterministic: every round's candidate batch is sorted by
/// `(target, path_len, next-hop ASN)` before it is applied, and there is
/// no RNG anywhere.
fn deterministic_leak(
    graph: &AsGraph,
    plane: IpVersion,
    routes: &mut RouteTable,
    leaker: NodeId,
    info: RouteInfo,
    engine: &PolicyEngine,
    blocked: Option<NodeId>,
) {
    let leak_adopt = |current: Option<RouteInfo>, cand: &RouteInfo| match current {
        None => true,
        Some(existing) => {
            existing.class == RouteClass::Provider && cand.path_len < existing.path_len
        }
    };
    let taint = RouteTaint { hijacked: info.taint.hijacked, leaked: true };
    let mut candidates: Vec<(NodeId, RouteInfo)> = graph
        .neighbors_by_id(leaker, plane)
        .filter(|(_, rel)| {
            matches!(rel, Some(Relationship::CustomerToProvider) | Some(Relationship::PeerToPeer))
        })
        .map(|(next, _)| {
            (
                next,
                RouteInfo {
                    class: RouteClass::Leaked,
                    path_len: info.path_len + 1,
                    next_hop: leaker,
                    taint,
                },
            )
        })
        .collect();
    let mut frontier: Vec<NodeId> = Vec::new();
    while !candidates.is_empty() {
        candidates
            .sort_by_key(|(next, cand)| (next.0, cand.path_len, graph.asn(cand.next_hop).value()));
        frontier.clear();
        for (next, cand) in candidates.drain(..) {
            if next == leaker || Some(next) == blocked || !engine.accepts(next, &cand) {
                continue;
            }
            let current = routes.get(next);
            if leak_adopt(current, &cand) {
                // First adoption per target wins (the batch is sorted
                // best-first); an adopter joins the frontier once.
                if current.map(|r| r.class) != Some(RouteClass::Leaked) {
                    frontier.push(next);
                }
                routes.set(next, cand);
            }
        }
        let mut next_candidates: Vec<(NodeId, RouteInfo)> = Vec::new();
        for &node in &frontier {
            let Some(adopted) = routes.get(node) else { continue };
            for (next, rel) in graph.neighbors_by_id(node, plane) {
                let carries = matches!(
                    rel,
                    Some(Relationship::ProviderToCustomer) | Some(Relationship::SiblingToSibling)
                );
                if carries {
                    next_candidates.push((
                        next,
                        RouteInfo {
                            class: RouteClass::Leaked,
                            path_len: adopted.path_len + 1,
                            next_hop: node,
                            taint: adopted.taint,
                        },
                    ));
                }
            }
        }
        candidates = next_candidates;
    }
}

/// Propagate many origins on one plane across up to `concurrency` worker
/// threads (`0` = all available cores, `1` = the plain sequential loop).
///
/// Each origin's round is an independent pure function of `(graph, origin,
/// plane, options)` — the leak RNG is seeded per origin — so the workers
/// never interact. Each outcome lands in its origin's slot, making the
/// result byte-identical to the sequential run at every worker count.
///
/// Each origin's round is one sequential walk; `concurrency` is the only
/// parallelism. `options.frontier_concurrency` above 1 panics (see
/// [`PropagationOptions::frontier_concurrency`]).
///
/// `options.scheduling` picks how origins map onto the workers: the
/// default [`OriginScheduling::Dynamic`] lets each worker claim the next
/// unclaimed origin, [`OriginScheduling::Static`] keeps the original
/// striping. Neither is visible in the output.
pub fn propagate_origins(
    graph: &AsGraph,
    origins: &[Asn],
    plane: IpVersion,
    options: &PropagationOptions,
    concurrency: usize,
) -> Vec<RoutingOutcome> {
    map_origins(graph, origins, plane, options, concurrency, |outcome| outcome)
}

/// The shared batch driver: propagate every origin under the configured
/// schedule and pass each outcome through `keep` on the worker that
/// computed it, so only `keep`'s result outlives the walk.
pub(crate) fn map_origins<U: Send>(
    graph: &AsGraph,
    origins: &[Asn],
    plane: IpVersion,
    options: &PropagationOptions,
    concurrency: usize,
    keep: impl Fn(RoutingOutcome) -> U + Sync,
) -> Vec<U> {
    let workers = crate::shard::effective_concurrency(concurrency);
    // One engine for the whole batch: the policy assignment and the
    // attacker/leaker picks depend only on (graph, scenario, deployment),
    // never on the origin, and sharing the read-only engine across the
    // workers keeps the per-origin rounds pure.
    let engine = PolicyEngine::build(graph, options.scenario, options.deployment);
    let batch = Batch::new(graph, plane, options, &engine);
    let run = |&origin: &Asn| keep(propagate_in(&batch, origin));
    match options.scheduling {
        OriginScheduling::Dynamic => crate::shard::shard_map_dynamic(origins, workers, run),
        OriginScheduling::Static => crate::shard::shard_map(origins, workers, run),
    }
}

/// Is `candidate` better than the `current` route? The one preference
/// rule of the strict phases and the sibling closures: a route of a
/// more-preferred class is never displaced by a less-preferred one;
/// within a class the shorter path wins, then the lower next-hop ASN.
/// Compared on the packed words, whose class codes follow
/// [`RouteClass`]'s order; the next-hop ASNs are read only on a tie.
#[inline]
fn better(current: RouteWord, candidate: RouteWord, graph: &AsGraph) -> bool {
    if !current.is_routed() {
        return true;
    }
    let (have, want) = (current.meta & CLASS_MASK, candidate.meta & CLASS_MASK);
    if have != want {
        return have > want;
    }
    let (have_len, want_len) = (current.meta >> PATH_LEN_SHIFT, candidate.meta >> PATH_LEN_SHIFT);
    if have_len != want_len {
        return want_len < have_len;
    }
    graph.asn(NodeId(candidate.next_hop)) < graph.asn(NodeId(current.next_hop))
}

/// Propagate routes of the given class across sibling links (transparent
/// forwarding within an organisation), observing the per-AS policies and
/// the walk's blocked node like every other adoption point.
///
/// The LIFO queue starts from the batch's sibling-linked nodes that hold
/// a route of `class`, in ascending id order. That is exactly the
/// sequence of effective pops a queue of *every* such node would
/// produce: a node without a sibling link pops without effect.
fn sibling_closure(
    batch: &Batch<'_>,
    routes: &mut RouteTable,
    class: RouteClass,
    blocked: Option<NodeId>,
) {
    let (graph, engine) = (batch.graph, batch.engine);
    let mut queue: Vec<NodeId> = batch
        .siblings
        .iter()
        .copied()
        .filter(|&id| routes.get(id).map(|r| r.class) == Some(class))
        .collect();
    while let Some(node) = queue.pop() {
        let (cand, word) = routes.export(node, class);
        for &next in batch.sibling_links.of(node) {
            let next = NodeId(next);
            if Some(next) == blocked || !engine.accepts(next, &cand) {
                continue;
            }
            if better(routes.words[next.index()], word, graph) {
                routes.words[next.index()] = word;
                queue.push(next);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asgraph::valley::classify_path;
    use topogen::fixtures::two_plane_fixture;

    fn fixture_graph() -> AsGraph {
        two_plane_fixture().graph
    }

    #[test]
    fn route_words_round_trip_every_class_taint_and_length_bound() {
        let classes = [
            RouteClass::Origin,
            RouteClass::Customer,
            RouteClass::Peer,
            RouteClass::Provider,
            RouteClass::Relaxed,
            RouteClass::Leaked,
        ];
        for class in classes {
            for (hijacked, leaked) in [(false, false), (true, false), (false, true), (true, true)] {
                for path_len in [0, 1, MAX_PATH_LEN] {
                    let info = RouteInfo {
                        class,
                        path_len,
                        next_hop: NodeId(u32::MAX - 1),
                        taint: RouteTaint { hijacked, leaked },
                    };
                    let word = RouteWord::pack(&info);
                    assert!(word.is_routed());
                    assert_eq!(word.unpack(), Some(info));
                }
            }
        }
        assert_eq!(RouteWord::default().unpack(), None, "the zero word is \"no route\"");
        assert_eq!(std::mem::size_of::<RouteWord>(), 8);
    }

    #[test]
    #[should_panic(expected = "exceeds the packed route bound")]
    fn route_words_refuse_to_truncate_path_lengths() {
        let info = RouteInfo {
            class: RouteClass::Provider,
            path_len: MAX_PATH_LEN + 1,
            next_hop: NodeId(0),
            taint: RouteTaint::default(),
        };
        let _ = RouteWord::pack(&info);
    }

    #[test]
    fn origin_not_on_plane_routes_nothing() {
        let mut g = AsGraph::new();
        g.annotate(Asn(1), Asn(2), IpVersion::V4, Relationship::ProviderToCustomer);
        let outcome = propagate_origin(&g, Asn(2), IpVersion::V6, &PropagationOptions::default());
        assert_eq!(outcome.routed_count(), 0);
        assert_eq!(outcome.route(&g, Asn(2)), None);
        // Unknown origin behaves the same.
        let outcome = propagate_origin(&g, Asn(99), IpVersion::V4, &PropagationOptions::default());
        assert_eq!(outcome.routed_count(), 0);
    }

    #[test]
    fn every_as_gets_a_route_in_a_connected_hierarchy() {
        let g = fixture_graph();
        let outcome = propagate_origin(&g, Asn(50), IpVersion::V4, &PropagationOptions::default());
        assert_eq!(outcome.routed_count(), g.node_count());
        // The origin's provider learned it from a customer.
        assert_eq!(outcome.route(&g, Asn(30)).unwrap().class, RouteClass::Customer);
        // The tier-1 above learned from its customer chain.
        assert_eq!(outcome.route(&g, Asn(10)).unwrap().class, RouteClass::Customer);
        // The other tier-1 learned it over the peering (v4 plane).
        assert_eq!(outcome.route(&g, Asn(20)).unwrap().class, RouteClass::Peer);
        // A stub in the other branch learns it from its provider.
        assert_eq!(outcome.route(&g, Asn(53)).unwrap().class, RouteClass::Provider);
    }

    #[test]
    fn paths_are_valley_free_under_strict_policies() {
        let g = fixture_graph();
        for origin in [50u32, 53, 30, 10] {
            let outcome =
                propagate_origin(&g, Asn(origin), IpVersion::V4, &PropagationOptions::default());
            for asn in g.asns() {
                if let Some(path) = outcome.path(&g, asn) {
                    if path.len() > 1 {
                        assert!(
                            classify_path(&g, &path, IpVersion::V4).is_valley_free(),
                            "path {path:?} from {asn} to {origin} is not valley-free"
                        );
                        assert_eq!(path.last(), Some(&Asn(origin)));
                        assert_eq!(path.first(), Some(&asn));
                    }
                    assert_eq!(outcome.path_is_irregular(&g, asn), Some(false));
                }
            }
        }
    }

    #[test]
    fn customer_routes_beat_shorter_peer_routes() {
        // 1 --p2p-- 2, 1 --p2c--> 3 --p2c--> 2's prefix? Build explicitly:
        // origin 4; 2 is 4's provider; 1 peers with 4 and is provider of 2.
        // From 1: customer route via 2 (len 2) vs peer route via 4 (len 1).
        // BGP prefers the customer route despite being longer.
        let mut g = AsGraph::new();
        g.annotate_both(Asn(1), Asn(2), Relationship::ProviderToCustomer);
        g.annotate_both(Asn(2), Asn(4), Relationship::ProviderToCustomer);
        g.annotate_both(Asn(1), Asn(4), Relationship::PeerToPeer);
        let outcome = propagate_origin(&g, Asn(4), IpVersion::V4, &PropagationOptions::default());
        let route = outcome.route(&g, Asn(1)).unwrap();
        assert_eq!(route.class, RouteClass::Customer);
        assert_eq!(outcome.path(&g, Asn(1)).unwrap(), vec![Asn(1), Asn(2), Asn(4)]);
    }

    #[test]
    fn shorter_path_wins_within_a_class() {
        // Origin 5 has two providers (2 and 3); 1 is provider of both.
        // 1's customer routes via 2 and 3 are both length 2 -> tie-break by
        // lower next-hop ASN (2).
        let mut g = AsGraph::new();
        g.annotate_both(Asn(2), Asn(5), Relationship::ProviderToCustomer);
        g.annotate_both(Asn(3), Asn(5), Relationship::ProviderToCustomer);
        g.annotate_both(Asn(1), Asn(2), Relationship::ProviderToCustomer);
        g.annotate_both(Asn(1), Asn(3), Relationship::ProviderToCustomer);
        let outcome = propagate_origin(&g, Asn(5), IpVersion::V4, &PropagationOptions::default());
        assert_eq!(outcome.path(&g, Asn(1)).unwrap(), vec![Asn(1), Asn(2), Asn(5)]);
    }

    #[test]
    fn peer_only_second_hop_is_not_reachable_without_relaxation() {
        // 1 --p2p-- 2 --p2p-- 3: 3's prefix reaches 2 but must not reach 1.
        let mut g = AsGraph::new();
        g.annotate_both(Asn(1), Asn(2), Relationship::PeerToPeer);
        g.annotate_both(Asn(2), Asn(3), Relationship::PeerToPeer);
        let strict = propagate_origin(&g, Asn(3), IpVersion::V4, &PropagationOptions::default());
        assert_eq!(strict.route(&g, Asn(2)).unwrap().class, RouteClass::Peer);
        assert_eq!(strict.route(&g, Asn(1)), None);

        // With the reachability relaxation the hole is filled and marked.
        let relaxed = propagate_origin(
            &g,
            Asn(3),
            IpVersion::V4,
            &PropagationOptions { reachability_relaxation: true, ..Default::default() },
        );
        let route = relaxed.route(&g, Asn(1)).unwrap();
        assert_eq!(route.class, RouteClass::Relaxed);
        assert_eq!(relaxed.path_is_irregular(&g, Asn(1)), Some(true));
        // And the resulting path is indeed a valley.
        let path = relaxed.path(&g, Asn(1)).unwrap();
        assert!(classify_path(&g, &path, IpVersion::V4).is_valley());
    }

    #[test]
    fn relaxation_fills_partitioned_v6_plane() {
        let truth = two_plane_fixture();
        // AS52's prefix on v6: AS20's side is reachable only by descending
        // the hybrid link; fine. But check a v6-only peer path: from 41,
        // routes to 52 must exist strictly too (41 -> 20 -> 10 -> 40 -> 52
        // is c2p, peer?? 20-10 is p2c for 20 (20 is customer on v6) so
        // 41 climbs to 20, climbs to 10? no: 10->20 is p2c so 20->10 is c2p;
        // 41->20 c2p, 20->10 c2p, 10->40 p2c, 40->52 p2c: valley-free.
        let strict =
            propagate_origin(&truth.graph, Asn(52), IpVersion::V6, &PropagationOptions::default());
        assert!(strict.route(&truth.graph, Asn(41)).is_some());
        assert_eq!(strict.routed_count(), truth.graph.node_count());
    }

    #[test]
    fn leaks_create_valley_paths_deterministically() {
        // 1 and 2 are tier-1 peers; 3 buys from both; 4 buys from 1 only.
        // Origin = 4. Without leaks AS3 reaches 4 via provider 1 (3,1,4) and
        // AS2 via peer 1. With a forced leak (probability 1.0) AS3 leaks its
        // provider route to its other provider 2 — but 2 already has a peer
        // route, so adoption only happens where allowed.
        let mut g = AsGraph::new();
        g.annotate_both(Asn(1), Asn(2), Relationship::PeerToPeer);
        g.annotate_both(Asn(1), Asn(3), Relationship::ProviderToCustomer);
        g.annotate_both(Asn(2), Asn(3), Relationship::ProviderToCustomer);
        g.annotate_both(Asn(1), Asn(4), Relationship::ProviderToCustomer);
        // 5 buys from 3: it will receive whatever 3 selected.
        g.annotate_both(Asn(3), Asn(5), Relationship::ProviderToCustomer);

        let leaky = PropagationOptions { leak_probability: 1.0, seed: 1, ..Default::default() };
        let outcome = propagate_origin(&g, Asn(4), IpVersion::V4, &leaky);
        // Every AS still has a route and paths still terminate at the origin.
        assert_eq!(outcome.routed_count(), g.node_count());
        for asn in g.asns() {
            let path = outcome.path(&g, asn).unwrap();
            assert_eq!(path.last(), Some(&Asn(4)));
        }
        // The same propagation without leaks has no irregular paths.
        let clean = propagate_origin(&g, Asn(4), IpVersion::V4, &PropagationOptions::default());
        for asn in g.asns() {
            assert_eq!(clean.path_is_irregular(&g, asn), Some(false));
        }
    }

    #[test]
    fn determinism_across_runs() {
        let g = fixture_graph();
        let opts = PropagationOptions {
            reachability_relaxation: true,
            leak_probability: 0.5,
            seed: 99,
            ..Default::default()
        };
        let a = propagate_origin(&g, Asn(50), IpVersion::V6, &opts);
        let b = propagate_origin(&g, Asn(50), IpVersion::V6, &opts);
        for asn in g.asns() {
            assert_eq!(a.path(&g, asn), b.path(&g, asn));
        }
    }

    #[test]
    fn sharded_propagation_matches_sequential_at_every_worker_count() {
        let g = fixture_graph();
        let mut origins: Vec<Asn> = g.asns().collect();
        origins.sort();
        // Exercise both the strict policy path and the seeded deviations.
        let variants = [
            PropagationOptions::default(),
            PropagationOptions {
                reachability_relaxation: true,
                leak_probability: 0.5,
                seed: 7,
                ..Default::default()
            },
        ];
        for plane in IpVersion::BOTH {
            for options in &variants {
                let sequential = propagate_origins(&g, &origins, plane, options, 1);
                for workers in [0usize, 2, 3, 8] {
                    let parallel = propagate_origins(&g, &origins, plane, options, workers);
                    assert_eq!(parallel, sequential, "plane {plane:?}, workers {workers}");
                }
            }
        }
    }

    #[test]
    fn both_schedules_match_sequential_at_every_worker_count() {
        // The schedule is the second execution dimension after origin
        // workers: {Dynamic, Static} × worker counts must all reproduce the
        // sequential outcome sequence exactly, under every adversarial
        // scenario too. The adversarial legs walk `leak_graph`, where each
        // scenario changes some route: on the fixture the leaker never
        // holds a route it would leak.
        let adversarial =
            |scenario| (leak_graph(), PropagationOptions::default().with_scenario(scenario));
        let legs = [
            (fixture_graph(), PropagationOptions::default()),
            (
                fixture_graph(),
                PropagationOptions {
                    reachability_relaxation: true,
                    leak_probability: 0.5,
                    seed: 7,
                    ..Default::default()
                },
            ),
            adversarial(PolicyScenario::RouteLeak),
            adversarial(PolicyScenario::PrefixHijack),
            adversarial(PolicyScenario::SubprefixHijack),
        ];
        for plane in IpVersion::BOTH {
            for (g, options) in &legs {
                let mut origins: Vec<Asn> = g.asns().collect();
                origins.sort();
                let sequential = propagate_origins(g, &origins, plane, options, 1);
                if options.scenario != PolicyScenario::Classic {
                    let classic =
                        propagate_origins(g, &origins, plane, &PropagationOptions::default(), 1);
                    assert_ne!(sequential, classic, "{:?} changes no route", options.scenario);
                }
                for scheduling in [OriginScheduling::Dynamic, OriginScheduling::Static] {
                    let options = options.with_scheduling(scheduling);
                    for workers in [1usize, 2, 3, 8] {
                        let parallel = propagate_origins(g, &origins, plane, &options, workers);
                        assert_eq!(
                            parallel, sequential,
                            "plane {plane:?}, scheduling {scheduling:?}, workers {workers}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn sharded_propagation_handles_empty_origin_sets() {
        let g = fixture_graph();
        assert!(
            propagate_origins(&g, &[], IpVersion::V4, &PropagationOptions::default(), 4).is_empty()
        );
    }

    #[test]
    fn batch_edge_classes_equal_the_filtered_adjacency_in_order() {
        // One-plane links, links present but unannotated on a plane,
        // links on neither plane, hybrids and a sibling chain, so every
        // filter of the lists has something to drop.
        let mut g = AsGraph::new();
        g.annotate_both(Asn(1), Asn(2), Relationship::ProviderToCustomer);
        g.annotate_both(Asn(1), Asn(3), Relationship::ProviderToCustomer);
        g.annotate(Asn(1), Asn(4), IpVersion::V4, Relationship::ProviderToCustomer);
        g.annotate(Asn(4), Asn(1), IpVersion::V6, Relationship::PeerToPeer);
        g.annotate(Asn(2), Asn(5), IpVersion::V6, Relationship::ProviderToCustomer);
        g.observe_link(Asn(2), Asn(6), IpVersion::V4);
        g.observe_link(Asn(3), Asn(6), IpVersion::V6);
        g.add_link(Asn(5), Asn(6));
        g.annotate(Asn(3), Asn(5), IpVersion::V4, Relationship::PeerToPeer);
        g.observe_link(Asn(3), Asn(5), IpVersion::V6);
        g.annotate_both(Asn(6), Asn(7), Relationship::SiblingToSibling);
        g.annotate_both(Asn(7), Asn(8), Relationship::SiblingToSibling);
        g.annotate(Asn(8), Asn(1), IpVersion::V4, Relationship::CustomerToProvider);
        g.annotate(Asn(8), Asn(2), IpVersion::V6, Relationship::ProviderToCustomer);
        g.add_node(Asn(9));
        let options = PropagationOptions::default();
        let engine = PolicyEngine::classic();
        for frozen in [false, true] {
            if frozen {
                g.freeze();
            }
            for plane in IpVersion::BOTH {
                let batch = Batch::new(&g, plane, &options, &engine);
                let filtered = |node: NodeId, keep: &dyn Fn(Option<Relationship>) -> bool| {
                    g.neighbors_by_id(node, plane)
                        .filter(|&(_, rel)| keep(rel))
                        .map(|(next, _)| next.0)
                        .collect::<Vec<u32>>()
                };
                let is = |want: Relationship| move |rel: Option<Relationship>| rel == Some(want);
                let (mut siblings, mut transit) = (Vec::new(), Vec::new());
                for node in g.nodes() {
                    let context = format!("node {node:?}, plane {plane:?}, frozen {frozen}");
                    assert_eq!(
                        batch.climbs.of(node),
                        filtered(node, &|rel| {
                            is(Relationship::CustomerToProvider)(rel)
                                || is(Relationship::SiblingToSibling)(rel)
                        }),
                        "climbs of {context}"
                    );
                    assert_eq!(
                        batch.peers.of(node),
                        filtered(node, &is(Relationship::PeerToPeer)),
                        "peers of {context}"
                    );
                    assert_eq!(
                        batch.customers.of(node),
                        filtered(node, &is(Relationship::ProviderToCustomer)),
                        "customers of {context}"
                    );
                    assert_eq!(
                        batch.customers.any(node),
                        !batch.customers.of(node).is_empty(),
                        "{context}"
                    );
                    assert_eq!(
                        batch.sibling_links.of(node),
                        filtered(node, &is(Relationship::SiblingToSibling)),
                        "sibling links of {context}"
                    );
                    assert_eq!(
                        batch.annotated.of(node),
                        filtered(node, &|rel| rel.is_some()),
                        "annotated neighbours of {context}"
                    );
                    if !batch.sibling_links.of(node).is_empty() {
                        siblings.push(node);
                    }
                    if !batch.customers.of(node).is_empty() {
                        transit.push(node);
                    }
                }
                assert_eq!(batch.siblings, siblings, "plane {plane:?}, frozen {frozen}");
                assert_eq!(batch.transit, transit, "plane {plane:?}, frozen {frozen}");
                assert!(!batch.siblings.is_empty(), "the chain must show on {plane:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "PropagationOptions::frontier_concurrency = 2")]
    fn a_within_origin_split_is_refused_not_ignored() {
        let options = PropagationOptions { frontier_concurrency: 2, ..Default::default() };
        let _ = propagate_origin(&fixture_graph(), Asn(50), IpVersion::V4, &options);
    }

    #[test]
    fn sibling_links_carry_routes_transparently() {
        // origin 3; 2 is 3's provider; 1 is 2's sibling; 0 buys from 1.
        let mut g = AsGraph::new();
        g.annotate_both(Asn(2), Asn(3), Relationship::ProviderToCustomer);
        g.annotate_both(Asn(1), Asn(2), Relationship::SiblingToSibling);
        g.annotate_both(Asn(1), Asn(9), Relationship::ProviderToCustomer);
        let outcome = propagate_origin(&g, Asn(3), IpVersion::V4, &PropagationOptions::default());
        assert_eq!(outcome.route(&g, Asn(1)).unwrap().class, RouteClass::Customer);
        assert_eq!(outcome.path(&g, Asn(9)).unwrap(), vec![Asn(9), Asn(1), Asn(2), Asn(3)]);
        assert_eq!(outcome.route(&g, Asn(9)).unwrap().class, RouteClass::Provider);
    }

    // ---- adversarial scenarios -------------------------------------------

    /// The graph of `route_leak_scenario_injects_tainted_routes_deterministically`,
    /// widened: the leaker 3 learns routes over its peering with 2 and
    /// from its three providers, so it leaks for most origins, and the
    /// providers' own customers carry the leaks further down.
    fn leak_graph() -> AsGraph {
        let mut g = AsGraph::new();
        g.annotate_both(Asn(2), Asn(1), Relationship::ProviderToCustomer);
        g.annotate_both(Asn(2), Asn(3), Relationship::PeerToPeer);
        for provider in [4, 5, 6] {
            g.annotate_both(Asn(provider), Asn(3), Relationship::ProviderToCustomer);
            g.annotate_both(Asn(provider), Asn(provider + 10), Relationship::ProviderToCustomer);
        }
        g
    }

    /// Options pinned to `scenario` at the given deployment fraction
    /// (deployment seed fixed so tests are reproducible).
    fn scenario_options(scenario: PolicyScenario, fraction: f64) -> PropagationOptions {
        PropagationOptions::default()
            .with_scenario(scenario)
            .with_deployment(PolicyDeployment { fraction, seed: 0xadd5 })
    }

    #[test]
    fn route_leak_scenario_injects_tainted_routes_deterministically() {
        // Origin 1 sells transit to nobody: 1 --c2p--> 2, 2 --p2p-- 3,
        // 3 --c2p--> 4. Under Gao-Rexford, 3 learns 1's prefix over the
        // peering but must not re-export it upward, so 4 stays unrouted.
        // The leaker (3: the highest-degree AS that has a provider)
        // re-exports the peer route to 4 — a textbook route leak.
        let mut g = AsGraph::new();
        g.annotate_both(Asn(2), Asn(1), Relationship::ProviderToCustomer);
        g.annotate_both(Asn(2), Asn(3), Relationship::PeerToPeer);
        g.annotate_both(Asn(4), Asn(3), Relationship::ProviderToCustomer);
        let engine =
            PolicyEngine::build(&g, PolicyScenario::RouteLeak, PolicyDeployment::default());
        assert_eq!(engine.leaker(IpVersion::V4), g.node(Asn(3)), "3 is the expected leaker");

        let classic = propagate_origin(&g, Asn(1), IpVersion::V4, &PropagationOptions::default());
        assert_eq!(classic.route(&g, Asn(4)), None, "valley-free export keeps 4 unrouted");

        let options = scenario_options(PolicyScenario::RouteLeak, 0.0);
        let leaked = propagate_origin(&g, Asn(1), IpVersion::V4, &options);
        let route_at_4 = leaked.route(&g, Asn(4)).expect("the leak must reach 4");
        assert_eq!(route_at_4.class, RouteClass::Leaked);
        assert!(route_at_4.taint.leaked, "the leaked route carries its taint");
        // No RNG anywhere in the deterministic leak step: the outcome is
        // identical run to run.
        assert_eq!(leaked, propagate_origin(&g, Asn(1), IpVersion::V4, &options));

        // Full ASPA-lite deployment filters the leaked export back out.
        let defended = propagate_origin(
            &g,
            Asn(1),
            IpVersion::V4,
            &scenario_options(PolicyScenario::RouteLeak, 1.0),
        );
        assert_eq!(defended.route(&g, Asn(4)), None, "ASPA-lite at 100% drops the leak");
    }

    #[test]
    fn prefix_hijack_diverts_routes_and_rov_filters_them() {
        let g = fixture_graph();
        let engine =
            PolicyEngine::build(&g, PolicyScenario::PrefixHijack, PolicyDeployment::default());
        let attacker = engine.attacker(IpVersion::V4).expect("fixture has a highest-degree node");
        // Pick a victim that is not the attacker.
        let victim = g.asns().find(|&a| g.node(a) != Some(attacker)).unwrap();
        let options = scenario_options(PolicyScenario::PrefixHijack, 0.0);
        let outcome = propagate_origin(&g, victim, IpVersion::V4, &options);
        // The victim always keeps its own clean origin route; the
        // attacker originates the hijacked copy.
        let victim_route = outcome.route(&g, victim).unwrap();
        assert_eq!(victim_route.class, RouteClass::Origin);
        assert!(!victim_route.taint.hijacked);
        let attacker_route = outcome.routes.get(attacker).unwrap();
        assert_eq!(attacker_route.class, RouteClass::Origin);
        assert!(attacker_route.taint.hijacked);
        // Undefended, the hijack captures part of the topology.
        let hijacked_count = outcome.routes.iter().flatten().filter(|r| r.taint.hijacked).count();
        assert!(hijacked_count > 1, "the hijack must spread past the attacker");
        // Full ROV deployment confines the hijack to the attacker itself.
        let defended = propagate_origin(
            &g,
            victim,
            IpVersion::V4,
            &scenario_options(PolicyScenario::PrefixHijack, 1.0),
        );
        let defended_hijacked: Vec<usize> = defended
            .routes
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.filter(|r| r.taint.hijacked).map(|_| i))
            .collect();
        assert_eq!(defended_hijacked, vec![attacker.index()], "ROV at 100% confines the hijack");
    }

    #[test]
    fn subprefix_hijack_wins_everywhere_it_reaches_except_the_victim() {
        let g = fixture_graph();
        let engine =
            PolicyEngine::build(&g, PolicyScenario::SubprefixHijack, PolicyDeployment::default());
        let attacker = engine.attacker(IpVersion::V4).expect("fixture has a highest-degree node");
        let victim = g.asns().find(|&a| g.node(a) != Some(attacker)).unwrap();
        let options = scenario_options(PolicyScenario::SubprefixHijack, 0.0);
        let outcome = propagate_origin(&g, victim, IpVersion::V4, &options);
        // Longest-prefix match: the victim keeps its own clean route no
        // matter what; everything the attacker's (victim-blocked)
        // announcement reaches is captured.
        let victim_node = g.node(victim).unwrap();
        assert!(!outcome.routes.get(victim_node).unwrap().taint.hijacked);
        let hijacked: Vec<usize> = outcome
            .routes
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.filter(|r| r.taint.hijacked).map(|_| i))
            .collect();
        assert!(hijacked.len() > 1, "the more-specific prefix must capture real estate");
        // Every captured node is genuinely attacker-reachable (the
        // blocked walk covers at most the unblocked reach) ...
        let reference = propagate_origin(&g, g.asn(attacker), IpVersion::V4, &options);
        for &i in &hijacked {
            let node = NodeId(i as u32);
            assert!(reference.routes.is_routed(node), "node {i} hijacked but attacker-unreachable");
        }
        // ... and nobody loses connectivity outright: the merge falls
        // back to the victim's clean walk wherever the attacker is
        // absent, so the classic routed set survives.
        let classic = propagate_origin(&g, victim, IpVersion::V4, &PropagationOptions::default());
        for (i, route) in classic.routes.iter().enumerate() {
            if route.is_some() {
                let node = NodeId(i as u32);
                assert!(outcome.routes.is_routed(node), "node {i} lost its route to the hijack");
            }
        }
    }

    #[test]
    fn scenario_outcomes_are_worker_count_invisible() {
        let g = leak_graph();
        let mut origins: Vec<Asn> = g.asns().collect();
        origins.sort();
        let classic =
            propagate_origins(&g, &origins, IpVersion::V6, &PropagationOptions::default(), 1);
        for scenario in [
            PolicyScenario::RouteLeak,
            PolicyScenario::PrefixHijack,
            PolicyScenario::SubprefixHijack,
        ] {
            for fraction in [0.0, 0.5, 1.0] {
                let options = scenario_options(scenario, fraction);
                let sequential = propagate_origins(&g, &origins, IpVersion::V6, &options, 1);
                // Full ASPA-lite deployment may filter every leak; short
                // of it, each scenario must change some route.
                if fraction < 1.0 {
                    assert_ne!(sequential, classic, "{scenario:?} at {fraction} changes no route");
                }
                for workers in [2usize, 8] {
                    let parallel =
                        propagate_origins(&g, &origins, IpVersion::V6, &options, workers);
                    assert_eq!(
                        parallel, sequential,
                        "scenario={scenario:?} fraction={fraction} workers={workers} diverged"
                    );
                }
            }
        }
    }
}
