//! The annotated AS-level graph.

use std::collections::hash_map::Entry;

use serde::{Deserialize, Serialize};

use bgp_types::{Asn, FastMap, IpVersion, Relationship};

/// Dense node identifier inside one [`AsGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The index as a usize, for vector indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Dense edge identifier inside one [`AsGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// The index as a usize, for vector indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Per-plane state of one undirected AS link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct PlaneEdge {
    /// The link was observed carrying routes of this plane.
    present: bool,
    /// Relationship oriented from the edge's canonical `a` endpoint to its
    /// `b` endpoint, if known.
    rel: Option<Relationship>,
}

/// One undirected AS link with its per-plane annotations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Edge {
    a: NodeId,
    b: NodeId,
    planes: [PlaneEdge; 2],
}

fn plane_index(v: IpVersion) -> usize {
    match v {
        IpVersion::V4 => 0,
        IpVersion::V6 => 1,
    }
}

/// Frozen compressed-sparse-row mirror of the adjacency structure: one
/// contiguous neighbor/edge-id array indexed by per-node offsets, with
/// each directed entry's per-plane presence and relationship packed into
/// a single byte (pre-oriented source → target, so the hot loop does no
/// `edges[eid]` chase and no orientation branch). Entry order matches the
/// adjacency lists exactly — CSR traversals visit neighbors in the same
/// order as the map backend, which is what keeps reports byte-identical
/// across the two.
#[derive(Debug, Clone)]
struct CsrCore {
    /// `node_count() + 1` offsets into the directed-entry arrays.
    offsets: Vec<u32>,
    /// Neighbor node id of each directed entry.
    targets: Vec<u32>,
    /// Edge id of each directed entry (used to locate entries when an
    /// annotation-only mutation re-packs them in place).
    edge_ids: Vec<u32>,
    /// Packed per-plane state of each directed entry; see
    /// [`encode_plane`] for the byte layout.
    plane_info: [Vec<u8>; 2],
}

/// Pack one plane of one directed entry: `0` = absent on the plane, `1` =
/// present but unannotated, `2`..`5` = present with the relationship
/// (oriented `source → target`).
fn encode_plane(edge: &Edge, source: NodeId, idx: usize) -> u8 {
    let plane = edge.planes[idx];
    if !plane.present {
        return 0;
    }
    match plane.rel.map(|r| if edge.a == source { r } else { r.reverse() }) {
        None => 1,
        Some(Relationship::ProviderToCustomer) => 2,
        Some(Relationship::CustomerToProvider) => 3,
        Some(Relationship::PeerToPeer) => 4,
        Some(Relationship::SiblingToSibling) => 5,
    }
}

/// Inverse of [`encode_plane`]: `None` = not present on the plane,
/// `Some(rel)` = present with that (possibly missing) annotation.
#[inline]
fn decode_plane(byte: u8) -> Option<Option<Relationship>> {
    match byte {
        0 => None,
        1 => Some(None),
        2 => Some(Some(Relationship::ProviderToCustomer)),
        3 => Some(Some(Relationship::CustomerToProvider)),
        4 => Some(Some(Relationship::PeerToPeer)),
        _ => Some(Some(Relationship::SiblingToSibling)),
    }
}

/// Iterator over a node's plane-present neighbors, returned by
/// [`AsGraph::neighbors_by_id`]. Runs over the frozen CSR arrays when the
/// graph is frozen and over the adjacency-map backend otherwise; both
/// backends yield identical sequences.
pub struct NeighborsById<'g> {
    inner: NeighborsInner<'g>,
}

enum NeighborsInner<'g> {
    Csr { targets: &'g [u32], info: &'g [u8], pos: usize },
    Map { graph: &'g AsGraph, node: NodeId, idx: usize, pos: usize },
}

impl Iterator for NeighborsById<'_> {
    type Item = (NodeId, Option<Relationship>);

    fn next(&mut self) -> Option<Self::Item> {
        match &mut self.inner {
            NeighborsInner::Csr { targets, info, pos } => {
                while *pos < targets.len() {
                    let i = *pos;
                    *pos += 1;
                    if let Some(rel) = decode_plane(info[i]) {
                        return Some((NodeId(targets[i]), rel));
                    }
                }
                None
            }
            NeighborsInner::Map { graph, node, idx, pos } => {
                let adj = &graph.adjacency[node.index()];
                while *pos < adj.len() {
                    let (other, eid) = adj[*pos];
                    *pos += 1;
                    let edge = &graph.edges[eid.index()];
                    let plane = edge.planes[*idx];
                    if !plane.present {
                        continue;
                    }
                    let rel = plane.rel.map(|r| if edge.a == *node { r } else { r.reverse() });
                    return Some((other, rel));
                }
                None
            }
        }
    }
}

/// A read-only view of one edge, with endpoints as ASNs and the
/// relationship oriented from `a` to `b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeView {
    /// First endpoint.
    pub a: Asn,
    /// Second endpoint.
    pub b: Asn,
    /// Whether the link carries IPv4 routes.
    pub present_v4: bool,
    /// Whether the link carries IPv6 routes.
    pub present_v6: bool,
    /// IPv4 relationship oriented `a → b`, if annotated.
    pub rel_v4: Option<Relationship>,
    /// IPv6 relationship oriented `a → b`, if annotated.
    pub rel_v6: Option<Relationship>,
}

impl EdgeView {
    /// The relationship on the requested plane, oriented `a → b`.
    pub fn rel(&self, plane: IpVersion) -> Option<Relationship> {
        match plane {
            IpVersion::V4 => self.rel_v4,
            IpVersion::V6 => self.rel_v6,
        }
    }

    /// Whether the link is present on the requested plane.
    pub fn present(&self, plane: IpVersion) -> bool {
        match plane {
            IpVersion::V4 => self.present_v4,
            IpVersion::V6 => self.present_v6,
        }
    }

    /// True when the link is present on both planes.
    pub fn is_dual_stack(&self) -> bool {
        self.present_v4 && self.present_v6
    }

    /// True when both planes are annotated and the relationships differ —
    /// the paper's hybrid condition.
    pub fn is_hybrid(&self) -> bool {
        matches!((self.rel_v4, self.rel_v6), (Some(r4), Some(r6)) if r4 != r6)
    }
}

/// Per-component byte estimate behind [`AsGraph::memory_footprint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoryBreakdown {
    /// Bytes held by the adjacency-map backend (always resident).
    pub map_bytes: usize,
    /// Bytes held by the frozen CSR mirror (0 while unfrozen).
    pub csr_bytes: usize,
}

/// An undirected AS-level multigraph-free graph where every link carries
/// independent IPv4 and IPv6 presence flags and relationship annotations.
///
/// All mutating methods are idempotent: adding a node or link that already
/// exists returns the existing id.
#[derive(Debug, Clone, Default)]
pub struct AsGraph {
    asn_to_node: FastMap<Asn, NodeId>,
    node_to_asn: Vec<Asn>,
    adjacency: Vec<Vec<(NodeId, EdgeId)>>,
    edges: Vec<Edge>,
    edge_lookup: FastMap<(NodeId, NodeId), EdgeId>,
    /// Links currently marked present per plane (kept in sync by
    /// [`AsGraph::observe_link`], so [`AsGraph::plane_edge_count`] is O(1)
    /// instead of an O(E) scan per report).
    plane_present: [usize; 2],
    /// Frozen CSR mirror; `Some` while frozen, dropped by structural
    /// mutation, kept in sync in place by annotation-only mutation.
    csr: Option<CsrCore>,
}

impl AsGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of ASes.
    pub fn node_count(&self) -> usize {
        self.node_to_asn.len()
    }

    /// Number of links, regardless of plane.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Number of links present on the given plane. O(1): the count is
    /// maintained on every presence transition rather than recomputed.
    pub fn plane_edge_count(&self, plane: IpVersion) -> usize {
        self.plane_present[plane_index(plane)]
    }

    /// Add (or look up) a node for an ASN.
    pub fn add_node(&mut self, asn: Asn) -> NodeId {
        let slot = match self.asn_to_node.entry(asn) {
            Entry::Occupied(slot) => return *slot.get(),
            Entry::Vacant(slot) => slot,
        };
        let id = NodeId(
            u32::try_from(self.node_to_asn.len())
                .expect("AsGraph node count exceeds the u32 id space"),
        );
        slot.insert(id);
        self.node_to_asn.push(asn);
        self.adjacency.push(Vec::new());
        self.csr = None;
        id
    }

    /// The node id of an ASN, if present.
    pub fn node(&self, asn: Asn) -> Option<NodeId> {
        self.asn_to_node.get(&asn).copied()
    }

    /// The ASN of a node id.
    pub fn asn(&self, node: NodeId) -> Asn {
        self.node_to_asn[node.index()]
    }

    /// True if the AS is in the graph.
    pub fn contains(&self, asn: Asn) -> bool {
        self.asn_to_node.contains_key(&asn)
    }

    /// All ASNs, in insertion order.
    pub fn asns(&self) -> impl Iterator<Item = Asn> + '_ {
        self.node_to_asn.iter().copied()
    }

    /// All node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.node_to_asn.len() as u32).map(NodeId)
    }

    /// The link's endpoints in stored order, and whether that order swaps
    /// `(x, y)`: an edge stores its lower node id as `a`.
    fn canonical(&self, x: NodeId, y: NodeId) -> (NodeId, NodeId, bool) {
        if x.0 <= y.0 {
            (x, y, false)
        } else {
            (y, x, true)
        }
    }

    /// Add (or look up) the undirected link between two ASes, without
    /// marking it present on any plane. Self-links are rejected.
    pub fn add_link(&mut self, a: Asn, b: Asn) -> Option<EdgeId> {
        self.add_oriented_link(a, b).map(|(eid, _)| eid)
    }

    /// [`AsGraph::add_link`], plus whether the edge stores `b` as its `a`
    /// end, so callers orient relationships without a third lookup.
    fn add_oriented_link(&mut self, a: Asn, b: Asn) -> Option<(EdgeId, bool)> {
        if a == b {
            return None;
        }
        let na = self.add_node(a);
        let nb = self.add_node(b);
        let (lo, hi, swapped) = self.canonical(na, nb);
        let next = self.edges.len();
        let slot = match self.edge_lookup.entry((lo, hi)) {
            Entry::Occupied(slot) => return Some((*slot.get(), swapped)),
            Entry::Vacant(slot) => slot,
        };
        let eid = EdgeId(u32::try_from(next).expect("AsGraph edge count exceeds the u32 id space"));
        slot.insert(eid);
        self.edges.push(Edge { a: lo, b: hi, planes: [PlaneEdge::default(); 2] });
        self.adjacency[lo.index()].push((hi, eid));
        self.adjacency[hi.index()].push((lo, eid));
        self.csr = None;
        Some((eid, swapped))
    }

    /// Mark a link as observed on a plane (creating it if necessary).
    pub fn observe_link(&mut self, a: Asn, b: Asn, plane: IpVersion) -> Option<EdgeId> {
        self.observe_oriented_link(a, b, plane).map(|(eid, _)| eid)
    }

    /// [`AsGraph::observe_link`] with the orientation of
    /// [`AsGraph::add_oriented_link`].
    fn observe_oriented_link(
        &mut self,
        a: Asn,
        b: Asn,
        plane: IpVersion,
    ) -> Option<(EdgeId, bool)> {
        let (eid, swapped) = self.add_oriented_link(a, b)?;
        let slot = &mut self.edges[eid.index()].planes[plane_index(plane)];
        if !slot.present {
            slot.present = true;
            self.plane_present[plane_index(plane)] += 1;
            self.refresh_frozen_edge(eid);
        }
        Some((eid, swapped))
    }

    /// Annotate the relationship of a link on one plane. `rel` is oriented
    /// `a → b` (e.g. `ProviderToCustomer` means "`a` is `b`'s provider").
    /// The link is created and marked present on that plane if needed.
    pub fn annotate(
        &mut self,
        a: Asn,
        b: Asn,
        plane: IpVersion,
        rel: Relationship,
    ) -> Option<EdgeId> {
        let (eid, swapped) = self.observe_oriented_link(a, b, plane)?;
        let stored = if swapped { rel.reverse() } else { rel };
        self.edges[eid.index()].planes[plane_index(plane)].rel = Some(stored);
        self.refresh_frozen_edge(eid);
        Some(eid)
    }

    /// Annotate both planes with the same relationship (oriented `a → b`).
    pub fn annotate_both(&mut self, a: Asn, b: Asn, rel: Relationship) -> Option<EdgeId> {
        self.annotate(a, b, IpVersion::V4, rel)?;
        self.annotate(a, b, IpVersion::V6, rel)
    }

    /// Remove the relationship annotation of a link on one plane (the link
    /// itself and its presence flags stay).
    pub fn clear_relationship(&mut self, a: Asn, b: Asn, plane: IpVersion) {
        if let Some(eid) = self.edge_id(a, b) {
            self.edges[eid.index()].planes[plane_index(plane)].rel = None;
            self.refresh_frozen_edge(eid);
        }
    }

    /// Build the frozen CSR mirror the traversal hot paths consume.
    /// Idempotent. Structural mutation (a new node or link) drops the
    /// mirror; annotation-only mutation (observe / annotate / clear on an
    /// existing link) keeps it in sync in place, so a frozen graph can
    /// still absorb the correction sweep's relationship flips.
    pub fn freeze(&mut self) {
        if self.csr.is_some() {
            return;
        }
        let n = self.node_to_asn.len();
        let total: usize = self.adjacency.iter().map(Vec::len).sum();
        u32::try_from(total).expect("AsGraph CSR entry count exceeds the u32 offset space");
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(total);
        let mut edge_ids = Vec::with_capacity(total);
        let mut plane_info = [Vec::with_capacity(total), Vec::with_capacity(total)];
        offsets.push(0u32);
        for (node_idx, adj) in self.adjacency.iter().enumerate() {
            // Node ids already fit u32: add_node allocated them checked.
            let source = NodeId(node_idx as u32);
            for &(other, eid) in adj {
                let edge = &self.edges[eid.index()];
                targets.push(other.0);
                edge_ids.push(eid.0);
                for (idx, info) in plane_info.iter_mut().enumerate() {
                    info.push(encode_plane(edge, source, idx));
                }
            }
            offsets
                .push(u32::try_from(targets.len()).expect("AsGraph CSR offset exceeds u32 range"));
        }
        self.csr = Some(CsrCore { offsets, targets, edge_ids, plane_info });
    }

    /// True while a frozen CSR mirror is active.
    pub fn is_frozen(&self) -> bool {
        self.csr.is_some()
    }

    /// An estimate of the bytes resident in the graph: the adjacency-map
    /// backend plus the frozen CSR mirror when one is active. The bench
    /// layer reports this alongside timings so the regression gate can
    /// catch space as well as time regressions.
    pub fn memory_footprint(&self) -> usize {
        let b = self.memory_breakdown();
        b.map_bytes + b.csr_bytes
    }

    /// [`AsGraph::memory_footprint`] split per storage component, so
    /// resident-service gauges can report the map backend and the CSR
    /// mirror separately.
    pub fn memory_breakdown(&self) -> MemoryBreakdown {
        use std::mem::size_of;
        let adjacency_entries: usize = self.adjacency.iter().map(Vec::capacity).sum();
        let map_bytes = self.node_to_asn.capacity() * size_of::<Asn>()
            + self.adjacency.capacity() * size_of::<Vec<(NodeId, EdgeId)>>()
            + adjacency_entries * size_of::<(NodeId, EdgeId)>()
            + self.edges.capacity() * size_of::<Edge>()
            + self.asn_to_node.capacity() * (size_of::<Asn>() + size_of::<NodeId>())
            + self.edge_lookup.capacity() * (size_of::<(NodeId, NodeId)>() + size_of::<EdgeId>());
        let csr_bytes = self.csr.as_ref().map_or(0, |c| {
            (c.offsets.capacity() + c.targets.capacity() + c.edge_ids.capacity()) * size_of::<u32>()
                + c.plane_info.iter().map(Vec::capacity).sum::<usize>()
        });
        MemoryBreakdown { map_bytes, csr_bytes }
    }

    /// Re-pack the CSR bytes of both directed entries of `eid` after an
    /// annotation-only mutation. O(degree) per endpoint; a no-op when the
    /// graph is not frozen.
    fn refresh_frozen_edge(&mut self, eid: EdgeId) {
        let edge = self.edges[eid.index()];
        let Some(csr) = self.csr.as_mut() else { return };
        for source in [edge.a, edge.b] {
            let lo = csr.offsets[source.index()] as usize;
            let hi = csr.offsets[source.index() + 1] as usize;
            let k = csr.edge_ids[lo..hi]
                .iter()
                .position(|&e| e == eid.0)
                .expect("frozen CSR is missing a directed entry for an existing edge");
            for (idx, info) in csr.plane_info.iter_mut().enumerate() {
                info[lo + k] = encode_plane(&edge, source, idx);
            }
        }
    }

    /// The edge id of a link, if it exists.
    pub fn edge_id(&self, a: Asn, b: Asn) -> Option<EdgeId> {
        self.oriented_edge_id(a, b).map(|(eid, _)| eid)
    }

    /// [`AsGraph::edge_id`], plus whether the edge stores `b` as its `a` end.
    fn oriented_edge_id(&self, a: Asn, b: Asn) -> Option<(EdgeId, bool)> {
        let na = self.node(a)?;
        let nb = self.node(b)?;
        let (lo, hi, swapped) = self.canonical(na, nb);
        self.edge_lookup.get(&(lo, hi)).map(|&eid| (eid, swapped))
    }

    /// True if the link exists and is present on the plane.
    pub fn has_link(&self, a: Asn, b: Asn, plane: IpVersion) -> bool {
        self.edge_id(a, b)
            .map(|eid| self.edges[eid.index()].planes[plane_index(plane)].present)
            .unwrap_or(false)
    }

    /// The relationship of the link on a plane, oriented `a → b`.
    pub fn relationship(&self, a: Asn, b: Asn, plane: IpVersion) -> Option<Relationship> {
        let (eid, swapped) = self.oriented_edge_id(a, b)?;
        let rel = self.edges[eid.index()].planes[plane_index(plane)].rel?;
        Some(if swapped { rel.reverse() } else { rel })
    }

    /// A read-only view of an edge by id.
    pub fn edge_view(&self, eid: EdgeId) -> EdgeView {
        let e = &self.edges[eid.index()];
        EdgeView {
            a: self.asn(e.a),
            b: self.asn(e.b),
            present_v4: e.planes[0].present,
            present_v6: e.planes[1].present,
            rel_v4: e.planes[0].rel,
            rel_v6: e.planes[1].rel,
        }
    }

    /// Iterate all edges as views.
    pub fn edges(&self) -> impl Iterator<Item = EdgeView> + '_ {
        (0..self.edges.len() as u32).map(|i| self.edge_view(EdgeId(i)))
    }

    /// Iterate edges present on a plane.
    pub fn plane_edges(&self, plane: IpVersion) -> impl Iterator<Item = EdgeView> + '_ {
        self.edges().filter(move |e| e.present(plane))
    }

    /// Iterate the neighbors of an AS on a plane together with the edge's
    /// relationship oriented `asn → neighbor`.
    pub fn neighbors(
        &self,
        asn: Asn,
        plane: IpVersion,
    ) -> impl Iterator<Item = (Asn, Option<Relationship>)> + '_ {
        self.node(asn).into_iter().flat_map(move |n| {
            self.neighbors_by_id(n, plane).map(|(other, rel)| (self.asn(other), rel))
        })
    }

    /// Adjacency in node-id space: the neighbors of a node on a plane with
    /// the relationship oriented `node → neighbor`. This is the fast path
    /// used by the traversal modules and the route simulator; prefer
    /// [`AsGraph::neighbors`] when working with ASNs. On a frozen graph
    /// (see [`AsGraph::freeze`]) it runs over the flat CSR arrays instead
    /// of chasing `edges[eid]`; both backends yield the same sequence.
    pub fn neighbors_by_id(&self, node: NodeId, plane: IpVersion) -> NeighborsById<'_> {
        let idx = plane_index(plane);
        let inner = match &self.csr {
            Some(csr) => {
                let lo = csr.offsets[node.index()] as usize;
                let hi = csr.offsets[node.index() + 1] as usize;
                NeighborsInner::Csr {
                    targets: &csr.targets[lo..hi],
                    info: &csr.plane_info[idx][lo..hi],
                    pos: 0,
                }
            }
            None => NeighborsInner::Map { graph: self, node, idx, pos: 0 },
        };
        NeighborsById { inner }
    }

    /// The degree of an AS on a plane (number of present links).
    pub fn degree(&self, asn: Asn, plane: IpVersion) -> usize {
        self.neighbors(asn, plane).count()
    }

    /// The number of customers of an AS on a plane (present links where the
    /// AS is the provider).
    pub fn customer_degree(&self, asn: Asn, plane: IpVersion) -> usize {
        self.neighbors(asn, plane)
            .filter(|(_, rel)| *rel == Some(Relationship::ProviderToCustomer))
            .count()
    }

    /// The number of providers of an AS on a plane.
    pub fn provider_degree(&self, asn: Asn, plane: IpVersion) -> usize {
        self.neighbors(asn, plane)
            .filter(|(_, rel)| *rel == Some(Relationship::CustomerToProvider))
            .count()
    }

    /// The number of peers of an AS on a plane.
    pub fn peer_degree(&self, asn: Asn, plane: IpVersion) -> usize {
        self.neighbors(asn, plane).filter(|(_, rel)| *rel == Some(Relationship::PeerToPeer)).count()
    }

    /// Links present on both planes (the "dual-stack" links the hybrid
    /// analysis inspects).
    pub fn dual_stack_edges(&self) -> impl Iterator<Item = EdgeView> + '_ {
        self.edges().filter(|e| e.is_dual_stack())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_graph() -> AsGraph {
        let mut g = AsGraph::new();
        g.annotate_both(Asn(1), Asn(2), Relationship::ProviderToCustomer);
        g.annotate(Asn(1), Asn(3), IpVersion::V4, Relationship::PeerToPeer);
        g.annotate(Asn(1), Asn(3), IpVersion::V6, Relationship::ProviderToCustomer);
        g.observe_link(Asn(2), Asn(3), IpVersion::V6);
        g
    }

    #[test]
    fn nodes_are_deduplicated() {
        let mut g = AsGraph::new();
        let a = g.add_node(Asn(10));
        let b = g.add_node(Asn(10));
        assert_eq!(a, b);
        assert_eq!(g.node_count(), 1);
        assert!(g.contains(Asn(10)));
        assert!(!g.contains(Asn(11)));
        assert_eq!(g.asn(a), Asn(10));
        assert_eq!(g.node(Asn(10)), Some(a));
        assert_eq!(g.node(Asn(11)), None);
    }

    #[test]
    fn links_are_deduplicated_and_undirected() {
        let mut g = AsGraph::new();
        let e1 = g.add_link(Asn(1), Asn(2)).unwrap();
        let e2 = g.add_link(Asn(2), Asn(1)).unwrap();
        assert_eq!(e1, e2);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.edge_id(Asn(2), Asn(1)), Some(e1));
    }

    #[test]
    fn self_links_are_rejected() {
        let mut g = AsGraph::new();
        assert_eq!(g.add_link(Asn(5), Asn(5)), None);
        assert_eq!(g.annotate_both(Asn(5), Asn(5), Relationship::PeerToPeer), None);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn presence_is_per_plane() {
        let g = small_graph();
        assert!(g.has_link(Asn(1), Asn(2), IpVersion::V4));
        assert!(g.has_link(Asn(1), Asn(2), IpVersion::V6));
        assert!(!g.has_link(Asn(2), Asn(3), IpVersion::V4));
        assert!(g.has_link(Asn(2), Asn(3), IpVersion::V6));
        assert_eq!(g.plane_edge_count(IpVersion::V4), 2);
        assert_eq!(g.plane_edge_count(IpVersion::V6), 3);
        assert!(!g.has_link(Asn(1), Asn(99), IpVersion::V4));
    }

    #[test]
    fn relationship_orientation_is_consistent() {
        let g = small_graph();
        assert_eq!(
            g.relationship(Asn(1), Asn(2), IpVersion::V4),
            Some(Relationship::ProviderToCustomer)
        );
        assert_eq!(
            g.relationship(Asn(2), Asn(1), IpVersion::V4),
            Some(Relationship::CustomerToProvider)
        );
        assert_eq!(g.relationship(Asn(1), Asn(3), IpVersion::V4), Some(Relationship::PeerToPeer));
        assert_eq!(
            g.relationship(Asn(3), Asn(1), IpVersion::V6),
            Some(Relationship::CustomerToProvider)
        );
        // Unannotated plane of an existing link.
        assert_eq!(g.relationship(Asn(2), Asn(3), IpVersion::V6), None);
        // Missing link.
        assert_eq!(g.relationship(Asn(2), Asn(99), IpVersion::V4), None);
    }

    #[test]
    fn annotating_against_the_stored_order_reads_back_reversed_from_both_ends() {
        // Node 0 is AS 1, so the edge stores (1, 2) and `annotate(2, 1, ..)`
        // must store the reverse of what it was given, on a new and on an
        // existing link, frozen or not.
        for frozen in [false, true] {
            let mut g = AsGraph::new();
            g.add_node(Asn(1));
            g.add_node(Asn(2));
            g.annotate(Asn(2), Asn(1), IpVersion::V4, Relationship::ProviderToCustomer);
            if frozen {
                g.freeze();
            }
            g.annotate(Asn(2), Asn(1), IpVersion::V6, Relationship::CustomerToProvider);
            for (plane, rel) in [
                (IpVersion::V4, Relationship::ProviderToCustomer),
                (IpVersion::V6, Relationship::CustomerToProvider),
            ] {
                assert_eq!(g.relationship(Asn(2), Asn(1), plane), Some(rel));
                assert_eq!(g.relationship(Asn(1), Asn(2), plane), Some(rel.reverse()));
                let stored = g.edge_view(g.edge_id(Asn(2), Asn(1)).unwrap());
                assert_eq!((stored.a, stored.b), (Asn(1), Asn(2)));
                assert_eq!(stored.rel(plane), Some(rel.reverse()));
            }
            let one = g.node(Asn(1)).unwrap();
            let v4: Vec<_> = g.neighbors_by_id(one, IpVersion::V4).collect();
            assert_eq!(v4.len(), 1);
            assert_eq!(v4[0].1, Some(Relationship::CustomerToProvider));
        }
    }

    #[test]
    fn annotation_overwrite_and_clear() {
        let mut g = AsGraph::new();
        g.annotate(Asn(1), Asn(2), IpVersion::V6, Relationship::PeerToPeer);
        g.annotate(Asn(2), Asn(1), IpVersion::V6, Relationship::ProviderToCustomer);
        assert_eq!(
            g.relationship(Asn(1), Asn(2), IpVersion::V6),
            Some(Relationship::CustomerToProvider)
        );
        g.clear_relationship(Asn(1), Asn(2), IpVersion::V6);
        assert_eq!(g.relationship(Asn(1), Asn(2), IpVersion::V6), None);
        assert!(g.has_link(Asn(1), Asn(2), IpVersion::V6), "presence survives clearing");
    }

    #[test]
    fn neighbors_and_degrees() {
        let g = small_graph();
        let mut v6_neighbors: Vec<_> = g.neighbors(Asn(1), IpVersion::V6).collect();
        v6_neighbors.sort_by_key(|(a, _)| *a);
        assert_eq!(
            v6_neighbors,
            vec![
                (Asn(2), Some(Relationship::ProviderToCustomer)),
                (Asn(3), Some(Relationship::ProviderToCustomer)),
            ]
        );
        assert_eq!(g.degree(Asn(1), IpVersion::V4), 2);
        assert_eq!(g.degree(Asn(1), IpVersion::V6), 2);
        assert_eq!(g.degree(Asn(3), IpVersion::V4), 1);
        assert_eq!(g.customer_degree(Asn(1), IpVersion::V6), 2);
        assert_eq!(g.customer_degree(Asn(1), IpVersion::V4), 1);
        assert_eq!(g.peer_degree(Asn(1), IpVersion::V4), 1);
        assert_eq!(g.provider_degree(Asn(2), IpVersion::V4), 1);
        assert_eq!(g.degree(Asn(999), IpVersion::V4), 0, "unknown AS has degree 0");
    }

    #[test]
    fn edge_views_and_hybrid_flag() {
        let g = small_graph();
        let views: Vec<_> = g.edges().collect();
        assert_eq!(views.len(), 3);
        let hybrid: Vec<_> = g.dual_stack_edges().filter(|e| e.is_hybrid()).collect();
        assert_eq!(hybrid.len(), 1);
        let h = hybrid[0];
        assert_eq!((h.a.min(h.b), h.a.max(h.b)), (Asn(1), Asn(3)));
        assert!(h.is_dual_stack());
        assert_eq!(h.rel(IpVersion::V4), h.rel_v4);
        assert!(h.present(IpVersion::V6));

        let plain = g.edge_view(g.edge_id(Asn(1), Asn(2)).unwrap());
        assert!(!plain.is_hybrid());
        assert!(plain.is_dual_stack());

        let v6_only = g.edge_view(g.edge_id(Asn(2), Asn(3)).unwrap());
        assert!(!v6_only.is_dual_stack());
        assert!(!v6_only.is_hybrid(), "unannotated links are never hybrid");
    }

    #[test]
    fn plane_edges_filters_by_presence() {
        let g = small_graph();
        assert_eq!(g.plane_edges(IpVersion::V4).count(), 2);
        assert_eq!(g.plane_edges(IpVersion::V6).count(), 3);
    }

    #[test]
    fn asns_and_nodes_iterate_everything() {
        let g = small_graph();
        assert_eq!(g.asns().count(), 3);
        assert_eq!(g.nodes().count(), 3);
        assert_eq!(g.dual_stack_edges().count(), 2);
    }

    #[test]
    fn clone_is_independent() {
        let g = small_graph();
        let mut clone = g.clone();
        clone.annotate(Asn(7), Asn(8), IpVersion::V6, Relationship::PeerToPeer);
        assert_eq!(g.node_count(), 3);
        assert_eq!(clone.node_count(), 5);
    }

    #[test]
    fn plane_edge_counters_track_add_present_and_reannotate() {
        let mut g = AsGraph::new();
        let counts =
            |g: &AsGraph| (g.plane_edge_count(IpVersion::V4), g.plane_edge_count(IpVersion::V6));
        assert_eq!(counts(&g), (0, 0));
        // A bare link is not present on any plane.
        g.add_link(Asn(1), Asn(2));
        assert_eq!(counts(&g), (0, 0));
        g.observe_link(Asn(1), Asn(2), IpVersion::V4);
        assert_eq!(counts(&g), (1, 0));
        // Re-observing is idempotent — no double count.
        g.observe_link(Asn(2), Asn(1), IpVersion::V4);
        assert_eq!(counts(&g), (1, 0));
        // Annotating marks the plane present.
        g.annotate(Asn(1), Asn(2), IpVersion::V6, Relationship::PeerToPeer);
        assert_eq!(counts(&g), (1, 1));
        // Re-annotating an already-present plane changes nothing.
        g.annotate(Asn(2), Asn(1), IpVersion::V6, Relationship::ProviderToCustomer);
        assert_eq!(counts(&g), (1, 1));
        // Clearing the relationship keeps the presence (and the count).
        g.clear_relationship(Asn(1), Asn(2), IpVersion::V6);
        assert_eq!(counts(&g), (1, 1));
        g.annotate_both(Asn(2), Asn(3), Relationship::SiblingToSibling);
        assert_eq!(counts(&g), (2, 2));
        // The counters agree with the O(E) definition on a mixed graph.
        let g = small_graph();
        for plane in [IpVersion::V4, IpVersion::V6] {
            assert_eq!(g.plane_edge_count(plane), g.plane_edges(plane).count());
        }
    }

    /// Every (node, plane) neighbor sequence of a graph, for backend
    /// comparison.
    fn all_neighbor_seqs(g: &AsGraph) -> Vec<Vec<(NodeId, Option<Relationship>)>> {
        let mut out = Vec::new();
        for node in g.nodes() {
            for plane in [IpVersion::V4, IpVersion::V6] {
                out.push(g.neighbors_by_id(node, plane).collect());
            }
        }
        out
    }

    #[test]
    fn frozen_csr_matches_map_traversal_in_order() {
        let mut g = small_graph();
        let map_seqs = all_neighbor_seqs(&g);
        assert!(!g.is_frozen());
        g.freeze();
        assert!(g.is_frozen());
        assert_eq!(all_neighbor_seqs(&g), map_seqs, "CSR must mirror adjacency order exactly");
        // Freezing twice is a no-op.
        g.freeze();
        assert_eq!(all_neighbor_seqs(&g), map_seqs);
    }

    #[test]
    fn frozen_csr_absorbs_annotation_only_mutations_in_place() {
        // Re-annotate an existing edge, annotate a present-but-bare edge,
        // observe a new plane of an existing edge, and clear a rel: all
        // annotation-only, so the graph must stay frozen and exact. The
        // reference is an unfrozen clone taking the same mutations.
        let mut map = small_graph();
        let mut g = map.clone();
        g.freeze();
        for graph in [&mut g, &mut map] {
            graph.annotate(Asn(3), Asn(1), IpVersion::V4, Relationship::CustomerToProvider);
            graph.annotate(Asn(2), Asn(3), IpVersion::V6, Relationship::PeerToPeer);
            graph.observe_link(Asn(2), Asn(3), IpVersion::V4);
            graph.clear_relationship(Asn(1), Asn(2), IpVersion::V6);
        }
        assert!(g.is_frozen());
        assert!(!map.is_frozen());
        assert_eq!(all_neighbor_seqs(&g), all_neighbor_seqs(&map));
        for plane in [IpVersion::V4, IpVersion::V6] {
            assert_eq!(g.plane_edge_count(plane), map.plane_edge_count(plane));
        }
        assert_eq!(
            g.relationship(Asn(1), Asn(3), IpVersion::V4),
            Some(Relationship::ProviderToCustomer),
            "orientation flip in the re-annotation is respected"
        );
    }

    #[test]
    fn structural_mutation_invalidates_the_frozen_csr() {
        let mut g = small_graph();
        g.freeze();
        g.add_node(Asn(99));
        assert!(!g.is_frozen(), "a new node drops the mirror");
        g.freeze();
        g.add_link(Asn(99), Asn(1));
        assert!(!g.is_frozen(), "a new link drops the mirror");
        // annotate() on a brand-new link is structural too.
        g.freeze();
        g.annotate(Asn(50), Asn(51), IpVersion::V4, Relationship::PeerToPeer);
        assert!(!g.is_frozen());
    }

    #[test]
    fn memory_footprint_counts_the_csr_mirror() {
        let mut g = small_graph();
        let before = g.memory_footprint();
        assert!(before > 0);
        assert_eq!(g.memory_breakdown().csr_bytes, 0);
        g.freeze();
        let frozen = g.memory_breakdown();
        assert!(frozen.csr_bytes > 0, "freezing adds the CSR arrays");
        assert_eq!(frozen.map_bytes, before, "freezing leaves the maps untouched");
        assert_eq!(g.memory_footprint(), before + frozen.csr_bytes);
    }
}
