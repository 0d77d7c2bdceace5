//! Incremental repair of valley-free distance maps under single-edge
//! relationship corrections.
//!
//! The Figure 2 correction sweep replays one relationship change at a time
//! and re-asks, for every BFS source, "what are the shortest valley-free
//! distances now?". Recomputing the full three-phase BFS per source per
//! step is the dominant cost of the sweep. This module owns a reusable
//! [`DistanceMap`] — the per-phase label array of one source — and repairs
//! it in place when a single edge's relationship changes, re-expanding a
//! frontier only over the region the change can actually affect.
//!
//! # Correctness model
//!
//! The valley-free BFS runs over the *phase-layered* graph: states are
//! `(node, phase)` with `phase ∈ {climbing, peered, descending}` and the
//! transitions of the crate's valley-free phase machine. Distances are the
//! unique minimal fixed point of the Bellman equations over that layered
//! graph, so any procedure that converges to the fixed point reproduces
//! the full recomputation *exactly* — byte-identical metrics, not merely
//! approximately equal ones.
//!
//! Changing the relationship of one edge removes some layered transitions
//! and adds others:
//!
//! * **Additions** only ever shorten distances. They are handled by
//!   relaxing the added transitions against the current labels and
//!   propagating improvements outward (monotone label decrease with a
//!   worklist), which provably converges to the new fixed point.
//! * **Removals** may lengthen distances — but only if a removed
//!   transition was actually *supporting* a label (tail label + 1 == head
//!   label). For each removed transition that is tight, the repair scans
//!   the head state's other in-transitions in the post-change graph for an
//!   alternative support at the same distance. If every tight removal has
//!   one, no label depended on the removed transitions and the old labels
//!   remain exact; otherwise the delta cannot be bounded cheaply and the
//!   repair **falls back to a full BFS** — correctness never rests on the
//!   incremental path alone.
//!
//! The fallback criterion is deliberately conservative: it may rebuild
//! when a cleverer analysis could have repaired, but it never repairs
//! when a rebuild was needed. [`DeltaOutcome`] reports which path ran so
//! callers (the sweep's `SweepCache`-style tiers, the criterion benches)
//! can count delta repairs against full rebuilds.

use bgp_types::{Asn, IpVersion, Relationship};

use crate::graph::{AsGraph, NodeId};
use crate::valley::{layered_search, phase_transition, PHASES};

/// How [`DistanceMap::apply_correction`] resolved a correction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaOutcome {
    /// The correction provably changed no label; nothing was touched.
    Unchanged,
    /// The affected region was repaired by frontier re-expansion.
    Incremental,
    /// The delta could not be bounded; a full BFS rebuilt the map.
    FullRebuild,
}

/// What [`DistanceMap::apply_correction_with`] does when a removed
/// transition was load-bearing (tight, with no alternative support at the
/// same distance).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RemovalPolicy {
    /// Fall back to a full BFS — the original conservative behaviour and
    /// the default ([`DistanceMap::apply_correction`] always uses it).
    #[default]
    Rebuild,
    /// Repair in place: identify the states whose labels transitively
    /// depended on the removed transitions (in increasing old-label
    /// order, so support checks see their predecessors' final verdicts),
    /// invalidate them, and recompute exactly that region from its
    /// boundary. Still exact — only the amount of work changes.
    Repair,
}

/// A single-edge relationship correction, with the pre-change state
/// captured so the repair can diff old against new transitions.
///
/// `old` and `new` are oriented `a → b`. `old` is `None` when the edge was
/// not traversable on the plane before the correction (absent, not marked
/// present on the plane, or unannotated) — the correction is then a pure
/// addition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeCorrection {
    /// First endpoint.
    pub a: Asn,
    /// Second endpoint.
    pub b: Asn,
    /// The plane the correction applies to.
    pub plane: IpVersion,
    /// Effective relationship `a → b` before the correction, if the edge
    /// was traversable at all.
    pub old: Option<Relationship>,
    /// Relationship `a → b` after the correction.
    pub new: Relationship,
}

impl EdgeCorrection {
    /// Capture a correction against the *pre-change* graph: records the
    /// edge's effective old relationship (only if the link exists and is
    /// present on the plane — an annotated but plane-absent link is not
    /// traversable, so its relationship does not count as removable
    /// transitions). Call this before `graph.annotate(..)`.
    pub fn observe(graph: &AsGraph, a: Asn, b: Asn, plane: IpVersion, new: Relationship) -> Self {
        let old = if graph.has_link(a, b, plane) { graph.relationship(a, b, plane) } else { None };
        EdgeCorrection { a, b, plane, old, new }
    }
}

/// Layered transitions of one edge direction: `(from_phase, to_phase)`
/// pairs enabled by a relationship, as a fixed-size option array (at most
/// one target phase per source phase).
fn transitions_of(rel: Option<Relationship>) -> [Option<u8>; PHASES] {
    let mut out = [None; PHASES];
    if let Some(rel) = rel {
        for (phase, slot) in out.iter_mut().enumerate() {
            *slot = phase_transition(phase as u8, rel);
        }
    }
    out
}

/// A reusable valley-free distance map of one `(root, plane)` pair.
///
/// Holds the full per-phase label array of the layered BFS (not just the
/// min-over-phase view), which is exactly the state the incremental repair
/// needs to decide whether a removed transition was load-bearing.
#[derive(Debug, Clone)]
pub struct DistanceMap {
    root: Asn,
    plane: IpVersion,
    best: Vec<[u32; PHASES]>,
    out: Vec<Option<u32>>,
}

impl Default for DistanceMap {
    /// An empty map (no nodes, nothing reachable) — a placeholder for
    /// `std::mem::take`-style state shuffling, not a meaningful result.
    fn default() -> Self {
        DistanceMap { root: Asn(0), plane: IpVersion::V4, best: Vec::new(), out: Vec::new() }
    }
}

impl DistanceMap {
    /// Run the full valley-free BFS from `root` on `plane`.
    pub fn compute(graph: &AsGraph, root: Asn, plane: IpVersion) -> Self {
        let (best, out) = layered_search(graph, root, plane);
        DistanceMap { root, plane, best, out }
    }

    /// The root this map was computed from.
    pub fn root(&self) -> Asn {
        self.root
    }

    /// The plane this map was computed on.
    pub fn plane(&self) -> IpVersion {
        self.plane
    }

    /// The shortest valley-free distance to every node, indexed by
    /// [`NodeId`] index — identical to
    /// [`crate::valley::valley_free_distances`] on the current graph.
    pub fn distances(&self) -> &[Option<u32>] {
        &self.out
    }

    /// The distance to one node index (`None` = unreachable, including
    /// indices beyond the map's node range).
    pub fn distance(&self, index: usize) -> Option<u32> {
        self.out.get(index).copied().flatten()
    }

    /// Whether the node at `index` is valley-free reachable from the root.
    pub fn is_reachable(&self, index: usize) -> bool {
        self.distance(index).is_some()
    }

    /// Discard the labels and recompute them with a full BFS.
    pub fn rebuild(&mut self, graph: &AsGraph) {
        let (best, out) = layered_search(graph, self.root, self.plane);
        self.best = best;
        self.out = out;
    }

    /// Repair the map after `correction` was applied to `graph` (the graph
    /// is the *post-change* one: capture the correction with
    /// [`EdgeCorrection::observe`] first, then annotate, then repair).
    ///
    /// Whatever path is taken, the resulting labels equal a full
    /// recomputation on the post-change graph; the outcome only reports
    /// how much work that took.
    pub fn apply_correction(
        &mut self,
        graph: &AsGraph,
        correction: &EdgeCorrection,
    ) -> DeltaOutcome {
        self.apply_correction_with(graph, correction, RemovalPolicy::Rebuild)
    }

    /// [`DistanceMap::apply_correction`] with an explicit policy for
    /// load-bearing removals. `RemovalPolicy::Rebuild` reproduces
    /// `apply_correction` exactly; `RemovalPolicy::Repair` re-derives the
    /// affected region in place instead of rebuilding. Both are exact.
    pub fn apply_correction_with(
        &mut self,
        graph: &AsGraph,
        correction: &EdgeCorrection,
        policy: RemovalPolicy,
    ) -> DeltaOutcome {
        if correction.plane != self.plane {
            // A correction on the other plane cannot touch this map.
            return DeltaOutcome::Unchanged;
        }
        // Annotating can grow the graph (new endpoint ASes); the map's
        // labels are indexed per node, so a size change forces a rebuild.
        if self.best.len() != graph.node_count() {
            self.rebuild(graph);
            return DeltaOutcome::FullRebuild;
        }
        let (Some(na), Some(nb)) = (graph.node(correction.a), graph.node(correction.b)) else {
            // Endpoints absent: annotate rejected the link (self-link), so
            // the graph — and the map — are unchanged.
            return DeltaOutcome::Unchanged;
        };
        if na == nb {
            return DeltaOutcome::Unchanged;
        }

        let old_ab = transitions_of(correction.old);
        let old_ba = transitions_of(correction.old.map(Relationship::reverse));
        let new_ab = transitions_of(Some(correction.new));
        let new_ba = transitions_of(Some(correction.new.reverse()));
        if old_ab == new_ab && old_ba == new_ba {
            return DeltaOutcome::Unchanged;
        }

        // Removal safety: every removed transition that was *tight* (its
        // tail label supported its head label) must have an alternative
        // support in the post-change graph, otherwise old labels may no
        // longer be achievable and the delta is unbounded. Under
        // `RemovalPolicy::Repair` the unsupported heads become seeds for
        // an in-place repair instead of forcing a full rebuild.
        let directions = [(na, nb, &old_ab, &new_ab), (nb, na, &old_ba, &new_ba)];
        let mut removal_seeds: Vec<(u32, NodeId, u8)> = Vec::new();
        for &(u, v, old, new) in &directions {
            for phase in 0..PHASES {
                let removed = match (old[phase], new[phase]) {
                    (Some(q), nq) if nq != Some(q) => q,
                    _ => continue,
                };
                let tail = self.best[u.index()][phase];
                if tail == u32::MAX {
                    continue; // the removed transition was never usable
                }
                let head = self.best[v.index()][removed as usize];
                if head != tail.saturating_add(1) {
                    continue; // not tight: the head never leaned on it
                }
                if !self.has_support(graph, v, removed, head) {
                    match policy {
                        RemovalPolicy::Rebuild => {
                            self.rebuild(graph);
                            return DeltaOutcome::FullRebuild;
                        }
                        RemovalPolicy::Repair => removal_seeds.push((head, v, removed)),
                    }
                }
            }
        }
        let removal_repaired = !removal_seeds.is_empty();
        if removal_repaired {
            self.repair_removals(graph, removal_seeds);
        }

        // Additions only shorten labels: relax the added transitions and
        // propagate improvements. Converges to the exact new fixed point.
        let mut queue: Vec<(NodeId, u8, u32)> = Vec::new();
        for &(u, v, old, new) in &directions {
            for phase in 0..PHASES {
                let added = match (new[phase], old[phase]) {
                    (Some(q), oq) if oq != Some(q) => q,
                    _ => continue,
                };
                let tail = self.best[u.index()][phase];
                if tail == u32::MAX {
                    continue;
                }
                let dist = tail + 1;
                if dist < self.best[v.index()][added as usize] {
                    self.improve(v, added, dist);
                    queue.push((v, added, dist));
                }
            }
        }
        if queue.is_empty() {
            return if removal_repaired {
                DeltaOutcome::Incremental
            } else {
                DeltaOutcome::Unchanged
            };
        }
        // Worklist relaxation: labels only decrease and are bounded below
        // by the true distances, so processing order affects work, not the
        // result. Stale entries (already improved further) are skipped.
        while let Some((node, phase, dist)) = queue.pop() {
            if self.best[node.index()][phase as usize] < dist {
                continue;
            }
            for (next, rel) in graph.neighbors_by_id(node, self.plane) {
                let Some(rel) = rel else { continue };
                let Some(next_phase) = phase_transition(phase, rel) else { continue };
                let next_dist = dist + 1;
                if next_dist < self.best[next.index()][next_phase as usize] {
                    self.improve(next, next_phase, next_dist);
                    queue.push((next, next_phase, next_dist));
                }
            }
        }
        DeltaOutcome::Incremental
    }

    /// In-place repair after load-bearing removals, in the classic
    /// delete-then-recompute shape: first identify every state whose label
    /// transitively leaned on a removed transition (popping a min-heap in
    /// increasing old-label order, so by the time a state's support is
    /// re-checked all of its possibly-affected predecessors — which sit at
    /// strictly smaller labels — carry their final verdict), then
    /// recompute exactly that region from its boundary of intact states.
    ///
    /// `seeds` are `(old label, head node, head phase)` of removed tight
    /// transitions with no alternative support.
    fn repair_removals(&mut self, graph: &AsGraph, seeds: Vec<(u32, NodeId, u8)>) {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        // Phase A: mark the affected region. A popped state is affected
        // iff no surviving in-transition still supports its old label;
        // marking it (label := MAX) can strip support from its old tight
        // successors, which therefore join the heap one label further out.
        let mut heap: BinaryHeap<Reverse<(u32, u32, u8)>> =
            seeds.into_iter().map(|(label, node, phase)| Reverse((label, node.0, phase))).collect();
        let mut affected_states: Vec<(NodeId, u8)> = Vec::new();
        let mut affected = vec![[false; PHASES]; self.best.len()];
        while let Some(Reverse((label, raw, phase))) = heap.pop() {
            let node = NodeId(raw);
            if self.best[node.index()][phase as usize] != label {
                continue; // already marked, or a stale duplicate
            }
            if self.has_support(graph, node, phase, label) {
                continue; // an alternative predecessor still carries it
            }
            self.best[node.index()][phase as usize] = u32::MAX;
            affected[node.index()][phase as usize] = true;
            affected_states.push((node, phase));
            for (next, rel) in graph.neighbors_by_id(node, self.plane) {
                let Some(rel) = rel else { continue };
                let Some(next_phase) = phase_transition(phase, rel) else { continue };
                if self.best[next.index()][next_phase as usize] == label + 1 {
                    heap.push(Reverse((label + 1, next.0, next_phase)));
                }
            }
        }

        // Phase B: recompute the affected states. Seed each from its
        // intact in-neighbors (the region's boundary), then relax inside
        // the region; labels only decrease and are bounded below by the
        // true post-change distances, so order affects work, not results.
        let mut queue: Vec<(NodeId, u8, u32)> = Vec::new();
        for &(node, phase) in &affected_states {
            let mut candidate = u32::MAX;
            for (w, rel) in graph.neighbors_by_id(node, self.plane) {
                let Some(rel) = rel else { continue };
                let towards_node = rel.reverse();
                for from_phase in 0..PHASES {
                    if phase_transition(from_phase as u8, towards_node) != Some(phase) {
                        continue;
                    }
                    let tail = self.best[w.index()][from_phase];
                    if tail != u32::MAX {
                        candidate = candidate.min(tail + 1);
                    }
                }
            }
            if candidate < self.best[node.index()][phase as usize] {
                self.best[node.index()][phase as usize] = candidate;
                queue.push((node, phase, candidate));
            }
        }
        while let Some((node, phase, dist)) = queue.pop() {
            if self.best[node.index()][phase as usize] < dist {
                continue;
            }
            for (next, rel) in graph.neighbors_by_id(node, self.plane) {
                let Some(rel) = rel else { continue };
                let Some(next_phase) = phase_transition(phase, rel) else { continue };
                if !affected[next.index()][next_phase as usize] {
                    continue; // intact states already hold exact labels
                }
                let next_dist = dist + 1;
                if next_dist < self.best[next.index()][next_phase as usize] {
                    self.best[next.index()][next_phase as usize] = next_dist;
                    queue.push((next, next_phase, next_dist));
                }
            }
        }

        // Removals can *raise* distances, which `improve` never does:
        // refresh the min-over-phase view of every touched node.
        let mut touched: Vec<usize> = affected_states.iter().map(|&(n, _)| n.index()).collect();
        touched.sort_unstable();
        touched.dedup();
        for idx in touched {
            self.out[idx] = self.best[idx].iter().copied().filter(|&d| d != u32::MAX).min();
        }
    }

    /// Lower the label of `(node, phase)` to `dist`, keeping the
    /// min-over-phase view consistent.
    fn improve(&mut self, node: NodeId, phase: u8, dist: u32) {
        self.best[node.index()][phase as usize] = dist;
        let entry = &mut self.out[node.index()];
        if entry.is_none_or(|d| dist < d) {
            *entry = Some(dist);
        }
    }

    /// Does `(v, phase)` have an in-transition in the post-change graph
    /// whose tail label is exactly `label - 1`? (`label` is `(v, phase)`'s
    /// current label.) The root state supports itself at label 0.
    fn has_support(&self, graph: &AsGraph, v: NodeId, phase: u8, label: u32) -> bool {
        if label == 0 {
            return true; // the root's own state needs no predecessor
        }
        for (w, rel) in graph.neighbors_by_id(v, self.plane) {
            let Some(rel) = rel else { continue };
            // The in-transition travels w → v, i.e. the reverse of the
            // stored v → w orientation.
            let towards_v = rel.reverse();
            for from_phase in 0..PHASES {
                if phase_transition(from_phase as u8, towards_v) != Some(phase) {
                    continue;
                }
                let tail = self.best[w.index()][from_phase];
                if tail != u32::MAX && tail + 1 == label {
                    return true;
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::valley::valley_free_distances;

    /// Assert a map's distances equal a fresh full BFS on `graph`.
    fn assert_matches_full(map: &DistanceMap, graph: &AsGraph) {
        let full = valley_free_distances(graph, map.root(), map.plane());
        assert_eq!(map.distances(), &full[..], "root {} diverged from full BFS", map.root());
    }

    /// The misinferred topology of the impact tests: 10-20 is p2p on v6,
    /// stubs hang off both sides, a grandparent sits above 10.
    fn misinferred_graph() -> AsGraph {
        let mut g = AsGraph::new();
        g.annotate(Asn(10), Asn(20), IpVersion::V6, Relationship::PeerToPeer);
        for (p, c) in [(9, 10), (9, 8), (10, 30), (20, 41), (20, 42), (30, 50)] {
            g.annotate(Asn(p), Asn(c), IpVersion::V6, Relationship::ProviderToCustomer);
        }
        g
    }

    #[test]
    fn distance_map_matches_valley_free_distances() {
        let g = misinferred_graph();
        for root in [9u32, 10, 20, 41, 50] {
            let map = DistanceMap::compute(&g, Asn(root), IpVersion::V6);
            assert_matches_full(&map, &g);
            assert_eq!(map.root(), Asn(root));
            assert_eq!(map.plane(), IpVersion::V6);
        }
        let root_idx = g.node(Asn(9)).unwrap().index();
        let map = DistanceMap::compute(&g, Asn(9), IpVersion::V6);
        assert_eq!(map.distance(root_idx), Some(0));
        assert!(map.is_reachable(root_idx));
        assert!(!map.is_reachable(usize::MAX >> 8), "out-of-range index is unreachable");
    }

    #[test]
    fn pure_addition_is_repaired_incrementally() {
        // Annotating a previously unannotated link only adds transitions.
        let mut g = misinferred_graph();
        g.observe_link(Asn(41), Asn(42), IpVersion::V6);
        let mut map = DistanceMap::compute(&g, Asn(41), IpVersion::V6);
        let correction =
            EdgeCorrection::observe(&g, Asn(41), Asn(42), IpVersion::V6, Relationship::PeerToPeer);
        assert_eq!(correction.old, None);
        g.annotate(Asn(41), Asn(42), IpVersion::V6, Relationship::PeerToPeer);
        let outcome = map.apply_correction(&g, &correction);
        assert_eq!(outcome, DeltaOutcome::Incremental);
        assert_matches_full(&map, &g);
    }

    #[test]
    fn correcting_p2p_to_transit_repairs_the_descending_region() {
        // The paper's canonical correction: the 10-20 peering becomes
        // p2c(v6). From 9's perspective routes may now descend through 10
        // into 20's customers — labels improve; nothing old is lost
        // because the removed (climbing → peered) crossing of 10-20 was
        // not supporting any label from 9 at a shorter distance than the
        // descending path the new relationship provides.
        let mut g = misinferred_graph();
        let mut maps: Vec<DistanceMap> = [9u32, 8, 50]
            .iter()
            .map(|&r| DistanceMap::compute(&g, Asn(r), IpVersion::V6))
            .collect();
        let correction = EdgeCorrection::observe(
            &g,
            Asn(10),
            Asn(20),
            IpVersion::V6,
            Relationship::ProviderToCustomer,
        );
        assert_eq!(correction.old, Some(Relationship::PeerToPeer));
        g.annotate(Asn(10), Asn(20), IpVersion::V6, Relationship::ProviderToCustomer);
        for map in &mut maps {
            let outcome = map.apply_correction(&g, &correction);
            assert_ne!(outcome, DeltaOutcome::Unchanged, "root {}", map.root());
            assert_matches_full(map, &g);
        }
    }

    #[test]
    fn unsupported_removal_falls_back_to_full_rebuild() {
        // A two-node graph where the only link flips from p2c to c2p: the
        // old descending label of the far node loses its only support.
        let mut g = AsGraph::new();
        g.annotate(Asn(1), Asn(2), IpVersion::V6, Relationship::ProviderToCustomer);
        let mut map = DistanceMap::compute(&g, Asn(1), IpVersion::V6);
        let correction = EdgeCorrection::observe(
            &g,
            Asn(1),
            Asn(2),
            IpVersion::V6,
            Relationship::CustomerToProvider,
        );
        g.annotate(Asn(1), Asn(2), IpVersion::V6, Relationship::CustomerToProvider);
        let outcome = map.apply_correction(&g, &correction);
        assert_eq!(outcome, DeltaOutcome::FullRebuild);
        assert_matches_full(&map, &g);
    }

    #[test]
    fn untouched_region_reports_unchanged() {
        // A correction in a disconnected component cannot move any label
        // of a source on the other side, and the repair proves it without
        // re-running the BFS.
        let mut g = misinferred_graph();
        g.annotate(Asn(100), Asn(101), IpVersion::V6, Relationship::PeerToPeer);
        let mut map = DistanceMap::compute(&g, Asn(50), IpVersion::V6);
        let before = map.distances().to_vec();
        let correction = EdgeCorrection::observe(
            &g,
            Asn(100),
            Asn(101),
            IpVersion::V6,
            Relationship::ProviderToCustomer,
        );
        g.annotate(Asn(100), Asn(101), IpVersion::V6, Relationship::ProviderToCustomer);
        assert_eq!(map.apply_correction(&g, &correction), DeltaOutcome::Unchanged);
        assert_eq!(map.distances(), &before[..]);
        assert_matches_full(&map, &g);
    }

    #[test]
    fn identical_relationship_is_a_no_op() {
        let mut g = misinferred_graph();
        let mut map = DistanceMap::compute(&g, Asn(9), IpVersion::V6);
        let correction =
            EdgeCorrection::observe(&g, Asn(10), Asn(20), IpVersion::V6, Relationship::PeerToPeer);
        g.annotate(Asn(10), Asn(20), IpVersion::V6, Relationship::PeerToPeer);
        assert_eq!(map.apply_correction(&g, &correction), DeltaOutcome::Unchanged);
        assert_matches_full(&map, &g);
    }

    #[test]
    fn graph_growth_forces_a_rebuild() {
        // Annotating a link towards a brand-new AS grows the node range;
        // the map must resize via the fallback and still match.
        let mut g = misinferred_graph();
        let mut map = DistanceMap::compute(&g, Asn(9), IpVersion::V6);
        let correction = EdgeCorrection::observe(
            &g,
            Asn(50),
            Asn(60),
            IpVersion::V6,
            Relationship::ProviderToCustomer,
        );
        g.annotate(Asn(50), Asn(60), IpVersion::V6, Relationship::ProviderToCustomer);
        assert_eq!(map.apply_correction(&g, &correction), DeltaOutcome::FullRebuild);
        assert_matches_full(&map, &g);
    }

    #[test]
    fn corrections_on_the_other_plane_are_ignored() {
        let mut g = misinferred_graph();
        g.annotate(Asn(10), Asn(20), IpVersion::V4, Relationship::PeerToPeer);
        let mut map = DistanceMap::compute(&g, Asn(9), IpVersion::V6);
        let correction = EdgeCorrection::observe(
            &g,
            Asn(10),
            Asn(20),
            IpVersion::V4,
            Relationship::ProviderToCustomer,
        );
        g.annotate(Asn(10), Asn(20), IpVersion::V4, Relationship::ProviderToCustomer);
        assert_eq!(map.apply_correction(&g, &correction), DeltaOutcome::Unchanged);
        assert_matches_full(&map, &g);
    }

    #[test]
    fn repeated_corrections_stay_exact() {
        // Drive one map through a chain of flips covering additions,
        // removals with support, and fallback rebuilds.
        let mut g = misinferred_graph();
        let mut map = DistanceMap::compute(&g, Asn(8), IpVersion::V6);
        let flips = [
            (10u32, 20u32, Relationship::ProviderToCustomer),
            (9, 10, Relationship::PeerToPeer),
            (10, 20, Relationship::PeerToPeer),
            (9, 10, Relationship::ProviderToCustomer),
            (20, 41, Relationship::SiblingToSibling),
            (10, 20, Relationship::CustomerToProvider),
        ];
        for (a, b, new) in flips {
            let correction = EdgeCorrection::observe(&g, Asn(a), Asn(b), IpVersion::V6, new);
            g.annotate(Asn(a), Asn(b), IpVersion::V6, new);
            map.apply_correction(&g, &correction);
            assert_matches_full(&map, &g);
        }
    }

    #[test]
    fn repair_policy_handles_unsupported_removal_incrementally() {
        // The exact scenario that forces the default policy into a full
        // rebuild: under `Repair` the far node's orphaned label is
        // repaired in place and the result still matches a full BFS.
        let mut g = AsGraph::new();
        g.annotate(Asn(1), Asn(2), IpVersion::V6, Relationship::ProviderToCustomer);
        let mut map = DistanceMap::compute(&g, Asn(1), IpVersion::V6);
        let correction = EdgeCorrection::observe(
            &g,
            Asn(1),
            Asn(2),
            IpVersion::V6,
            Relationship::CustomerToProvider,
        );
        g.annotate(Asn(1), Asn(2), IpVersion::V6, Relationship::CustomerToProvider);
        let outcome = map.apply_correction_with(&g, &correction, RemovalPolicy::Repair);
        assert_eq!(outcome, DeltaOutcome::Incremental);
        assert_matches_full(&map, &g);
    }

    #[test]
    fn repair_raises_distances_through_a_detour() {
        // 4 is reachable at distance 2 through 2 and at distance 3 through
        // the 3 → 5 detour. Flipping 2-4 to c2p strips the short support;
        // the repair must *raise* 4's distance to the detour's 3 (a
        // direction the addition worklist alone can never move).
        let mut g = AsGraph::new();
        for (p, c) in [(1u32, 2u32), (2, 4), (1, 3), (3, 5), (5, 4)] {
            g.annotate(Asn(p), Asn(c), IpVersion::V6, Relationship::ProviderToCustomer);
        }
        let mut map = DistanceMap::compute(&g, Asn(1), IpVersion::V6);
        let four = g.node(Asn(4)).unwrap().index();
        assert_eq!(map.distance(four), Some(2));
        let correction = EdgeCorrection::observe(
            &g,
            Asn(2),
            Asn(4),
            IpVersion::V6,
            Relationship::CustomerToProvider,
        );
        g.annotate(Asn(2), Asn(4), IpVersion::V6, Relationship::CustomerToProvider);
        let outcome = map.apply_correction_with(&g, &correction, RemovalPolicy::Repair);
        assert_eq!(outcome, DeltaOutcome::Incremental);
        assert_eq!(map.distance(four), Some(3));
        assert_matches_full(&map, &g);
    }

    #[test]
    fn repair_disconnects_an_orphaned_subtree() {
        // Flipping 30-50 to c2p leaves 50 with no valley-free path from 9
        // at all: the repair must mark it unreachable, not merely longer.
        let mut g = misinferred_graph();
        let mut map = DistanceMap::compute(&g, Asn(9), IpVersion::V6);
        let fifty = g.node(Asn(50)).unwrap().index();
        assert!(map.is_reachable(fifty));
        let correction = EdgeCorrection::observe(
            &g,
            Asn(30),
            Asn(50),
            IpVersion::V6,
            Relationship::CustomerToProvider,
        );
        g.annotate(Asn(30), Asn(50), IpVersion::V6, Relationship::CustomerToProvider);
        let outcome = map.apply_correction_with(&g, &correction, RemovalPolicy::Repair);
        assert_eq!(outcome, DeltaOutcome::Incremental);
        assert!(!map.is_reachable(fifty));
        assert_matches_full(&map, &g);
    }

    #[test]
    fn repair_policy_never_rebuilds_on_a_correction_chain() {
        // The same flip chain as `repeated_corrections_stay_exact`, driven
        // through `Repair`: without graph growth the policy never falls
        // back to a rebuild, and every step still matches a full BFS.
        for root in [8u32, 9, 50] {
            let mut g = misinferred_graph();
            let mut map = DistanceMap::compute(&g, Asn(root), IpVersion::V6);
            let flips = [
                (10u32, 20u32, Relationship::ProviderToCustomer),
                (9, 10, Relationship::PeerToPeer),
                (10, 20, Relationship::PeerToPeer),
                (9, 10, Relationship::ProviderToCustomer),
                (20, 41, Relationship::SiblingToSibling),
                (10, 20, Relationship::CustomerToProvider),
            ];
            for (a, b, new) in flips {
                let correction = EdgeCorrection::observe(&g, Asn(a), Asn(b), IpVersion::V6, new);
                g.annotate(Asn(a), Asn(b), IpVersion::V6, new);
                let outcome = map.apply_correction_with(&g, &correction, RemovalPolicy::Repair);
                assert_ne!(outcome, DeltaOutcome::FullRebuild, "root {root}, flip {a}-{b}");
                assert_matches_full(&map, &g);
            }
        }
    }
}
