//! # hybrid-as-rel
//!
//! Umbrella crate for the reproduction of *"Detecting and Assessing the
//! Hybrid IPv4/IPv6 AS Relationships"* (Giotsas & Zhou, SIGCOMM 2011).
//!
//! This crate re-exports the whole workspace under one roof so downstream
//! users can depend on a single crate:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`types`] | `bgp-types` | ASNs, prefixes, communities, AS paths, relationships, RIB entries |
//! | [`mrt`] | `mrt` | MRT (RFC 6396) TABLE_DUMP_V2 / BGP4MP reader & writer |
//! | [`graph`] | `asgraph` | annotated AS graph, valley-free traversal, customer trees, tiers |
//! | [`irr`] | `irr` | community schemes, RPSL objects, community dictionary |
//! | [`topology`] | `topogen` | synthetic Internet generator with hybrid-link ground truth |
//! | [`sim`] | `routesim` | policy-aware BGP propagation + collectors + MRT emission |
//! | [`tor`] | `hybrid-tor` | the paper's pipeline: extraction, communities, LocPrf, hybrids, valleys, Figure 2 |
//!
//! ## Quickstart
//!
//! ```
//! use hybrid_as_rel::prelude::*;
//!
//! // 1. Simulate an Internet and its route collectors (stands in for
//! //    RouteViews/RIPE RIS + the IRR).
//! let scenario = Scenario::build(&TopologyConfig::tiny(), &SimConfig::small());
//!
//! // 2. Run the paper's measurement pipeline.
//! let pipeline = Pipeline::default();
//! let report = pipeline.run(PipelineInput::from_scenario_with(&scenario, &pipeline.options));
//!
//! // 3. Inspect the headline numbers.
//! assert!(report.dataset.ipv6_coverage() > 0.0);
//! println!("{report}");
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]
#![warn(rust_2018_idioms)]

/// Primitive BGP vocabulary ([`bgp_types`]).
pub mod types {
    pub use bgp_types::*;
}

/// MRT file format support (the [`mrt`] crate).
pub mod mrt {
    pub use mrt::*;
}

/// The annotated AS-level graph and its algorithms ([`asgraph`]).
pub mod graph {
    pub use asgraph::*;
}

/// The IRR substrate (the [`irr`] crate).
pub mod irr {
    pub use irr::*;
}

/// Synthetic topology generation ([`topogen`]).
pub mod topology {
    pub use topogen::*;
}

/// BGP route propagation and collectors ([`routesim`]).
pub mod sim {
    pub use routesim::*;
}

/// The paper's measurement pipeline ([`hybrid_tor`]).
pub mod tor {
    pub use hybrid_tor::*;
}

/// The names most programs need, in one import.
pub mod prelude {
    pub use asgraph::{AsGraph, Tier};
    pub use bgp_types::{Asn, Community, IpVersion, Prefix, Relationship, RibSnapshot};
    pub use hybrid_tor::pipeline::{Pipeline, PipelineInput, PipelineOptions};
    pub use hybrid_tor::report::Report;
    pub use routesim::{Scenario, SimConfig};
    pub use topogen::{GroundTruth, TopologyConfig};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_compose() {
        let scenario = Scenario::build(&TopologyConfig::tiny(), &SimConfig::small());
        let pipeline = Pipeline::default();
        let report = pipeline.run(PipelineInput::from_scenario_with(&scenario, &pipeline.options));
        assert!(report.dataset.ipv6_paths > 0);
        let _asn: crate::types::Asn = Asn(3356);
        let _v: IpVersion = IpVersion::V6;
    }
}
