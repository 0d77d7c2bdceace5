//! # hybrid-tor
//!
//! Detection and assessment of **hybrid IPv4/IPv6 AS relationships** —
//! the primary contribution of Giotsas & Zhou (SIGCOMM 2011), rebuilt as a
//! reusable library.
//!
//! The pipeline mirrors the paper's methodology:
//!
//! 1. [`extract`] — pull IPv4/IPv6 AS paths and AS links out of collector
//!    RIB snapshots (from MRT files or the bundled simulator), discarding
//!    bogus paths (loops, reserved ASNs).
//! 2. [`communities`] — decode the BGP Communities on every route with an
//!    IRR-derived [`irr::CommunityDictionary`] and turn each relationship
//!    community into a vote about the link between the tagging AS and the
//!    neighbor it learned the route from; aggregate votes into per-plane
//!    relationship inferences.
//! 3. [`locpref`] — learn each feeder's LocPrf → relationship mapping
//!    from routes already validated by communities (excluding routes
//!    carrying traffic-engineering communities), then use the mapping to
//!    classify additional first-hop links, extending coverage.
//! 4. [`hybrid`] — compare the two planes on every dual-stack link, flag
//!    hybrids, classify them, and measure their visibility in IPv6 paths.
//! 5. [`valley`] — classify every IPv6 path against the inferred (or
//!    ground-truth) relationships, count valley paths, and attribute
//!    valleys to reachability-driven relaxation vs. plain leaks.
//! 6. [`baselines`] — classic valley-free inference heuristics (Gao's
//!    algorithm and a degree-based variant) used both as the comparison
//!    point the paper corrects (Figure 2) and for accuracy ablations.
//! 7. [`impact`] — the customer-tree impact analysis of Figure 2:
//!    progressively replace the most-visible misinferred hybrid links with
//!    their community-derived relationships and track the average shortest
//!    valley-free path and diameter over the union of customer trees.
//! 8. [`pipeline`] / [`report`] — one-call orchestration producing a
//!    [`report::Report`] with every number the paper's Section 3 states.
//!
//! ```
//! use hybrid_tor::pipeline::{Pipeline, PipelineInput};
//! use routesim::{Scenario, SimConfig};
//! use topogen::TopologyConfig;
//!
//! let scenario = Scenario::build(&TopologyConfig::tiny(), &SimConfig::small());
//! let input = PipelineInput::builder().scenario(&scenario).build().unwrap();
//! let report = Pipeline::default().run(input);
//! assert!(report.dataset.ipv6_paths > 0);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod baselines;
pub mod communities;
pub mod extract;
pub mod hybrid;
pub mod impact;
pub mod ingest;
pub mod locpref;
pub mod pipeline;
pub mod report;
pub mod service;
pub mod valley;

pub use baselines::{degree_heuristic_inference, gao_inference, InferenceAccuracy};
pub use communities::{CommunityInference, InferenceSource, InferredRelationship};
pub use extract::{ExtractedData, ObservedPath};
pub use hybrid::{HybridFinding, HybridReport};
pub use impact::{CorrectionStep, ImpactCurve};
pub use ingest::{
    ApplyStats, ExtractCache, IngestCaches, LiveRib, RepairStats, RibDelta, TemporalSweep,
    UpdateStream, ValleyCache, WindowOutcome,
};
pub use locpref::LocPrfRosetta;
pub use pipeline::{
    Pipeline, PipelineArtifacts, PipelineInput, PipelineInputBuilder, PipelineOptions,
};
pub use report::Report;
pub use service::{ResidentState, ServiceMemory, VisibilityStats, WhatIfReply};
pub use valley::{ValleyAttribution, ValleyReport};
