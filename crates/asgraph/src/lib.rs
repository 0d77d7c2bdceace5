//! # asgraph
//!
//! A compact AS-level topology graph with *per-plane* (IPv4/IPv6) link
//! presence and relationship annotations, plus the graph algorithms the
//! paper's analysis needs:
//!
//! * [`graph::AsGraph`] — node/edge storage with dense `u32` node ids,
//!   undirected adjacency, and an independent relationship annotation for
//!   each IP plane (the core requirement for studying *hybrid* links).
//! * [`valley`] — valley-free path validation and the three-state
//!   (uphill / peer / downhill) BFS that computes shortest valley-free
//!   paths and valley-free reachability.
//! * [`delta`] — a reusable [`delta::DistanceMap`] that repairs a
//!   valley-free distance map incrementally when one edge's relationship
//!   changes (frontier re-expansion with a proven full-BFS fallback),
//!   the engine behind the Figure 2 correction sweep.
//! * [`customer_tree`](mod@customer_tree) — customer trees and cones ("all ASes reachable
//!   from a root through p2c links"), the metric Figure 2 of the paper is
//!   built on.
//! * [`tiers`] — a simple transit-degree tier classification (tier-1 /
//!   tier-2 / stub) used to characterise where hybrid links sit.
//! * [`metrics`] — degree statistics, connected components, and plain
//!   (non-policy) shortest-path metrics.
//!
//! ```
//! use asgraph::{AsGraph, Relationship, IpVersion};
//! use bgp_types::Asn;
//!
//! let mut g = AsGraph::new();
//! // AS1 is the provider of AS2 on both planes...
//! g.annotate_both(Asn(1), Asn(2), Relationship::ProviderToCustomer);
//! // ...but AS1-AS3 is a peering on IPv4 and transit on IPv6 (hybrid).
//! g.annotate(Asn(1), Asn(3), IpVersion::V4, Relationship::PeerToPeer);
//! g.annotate(Asn(1), Asn(3), IpVersion::V6, Relationship::ProviderToCustomer);
//!
//! assert_eq!(g.relationship(Asn(1), Asn(3), IpVersion::V4), Some(Relationship::PeerToPeer));
//! assert_eq!(g.relationship(Asn(3), Asn(1), IpVersion::V6), Some(Relationship::CustomerToProvider));
//! let tree = asgraph::customer_tree::customer_tree(&g, Asn(1), IpVersion::V6);
//! assert_eq!(tree.len(), 2, "AS2 and AS3 are both in AS1's IPv6 customer tree");
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod customer_tree;
pub mod delta;
pub mod graph;
pub mod metrics;
pub mod tiers;
pub mod valley;

pub use bgp_types::{Asn, IpVersion, Relationship};
pub use customer_tree::{customer_cone_sizes, customer_tree, tree_union_metrics, TreeMetrics};
pub use delta::{DeltaOutcome, DistanceMap, EdgeCorrection, RemovalPolicy};
pub use graph::{AsGraph, EdgeId, EdgeView, MemoryBreakdown, NeighborsById, NodeId};
pub use metrics::{connected_components, degree_stats, GraphSummary};
pub use tiers::{classify_tiers, Tier, TierMap};
pub use valley::{classify_path, is_valley_free, valley_free_distances, PathValidity};
