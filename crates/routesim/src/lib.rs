//! # routesim
//!
//! A policy-aware BGP route propagation simulator that plays the role of
//! the real Internet + RouteViews/RIPE RIS in this reproduction.
//!
//! Given a ground-truth topology from `topogen` and a simulation
//! configuration, the simulator:
//!
//! 1. assigns every AS a routing **policy**: per-relationship LocPrf bases
//!    (with realistic per-AS diversity), a community scheme from the `irr`
//!    crate, and whether the AS deploys ingress relationship tagging;
//! 2. **propagates** one prefix per AS per plane under the Gao–Rexford
//!    export rules (customer routes to everyone; peer/provider routes to
//!    customers only), selecting routes by LocPrf class, then path length,
//!    then a deterministic tie-break;
//! 3. optionally applies the **IPv6 valley-free relaxations** the paper
//!    describes: ASes that would otherwise have no IPv6 route accept and
//!    re-export otherwise-forbidden routes (reachability-driven valleys),
//!    plus a configurable rate of plain route leaks;
//! 4. materialises what the **collectors** see: each collector has feeder
//!    ASes; full feeders expose LocPrf (iBGP-style feeds), all feeders
//!    expose AS paths and the accumulated communities; the result is a
//!    [`bgp_types::RibSnapshot`] per collector, which can also be written
//!    to MRT TABLE_DUMP_V2 files via the `mrt` crate;
//! 5. documents a configurable subset of community schemes in a synthetic
//!    IRR registry, which the inference pipeline later parses — the same
//!    partial-knowledge situation the paper faces;
//! 6. optionally runs an **adversarial scenario** ([`PolicyScenario`]):
//!    a deterministic route leak or (sub)prefix hijack, against a
//!    partially deployed defensive policy (ROV / ASPA-lite, sampled per
//!    AS by [`PolicyDeployment`]) — the per-AS route decision dispatches
//!    through [`policy::PolicyEngine`] at every adoption point.
//!
//! The top-level entry point is [`scenario::Scenario::build`], which runs
//! all of the above and returns everything an experiment needs.

#![deny(missing_docs)]
#![deny(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod collector;
pub mod config;
pub mod policy;
pub mod propagate;
pub mod scenario;
pub mod shard;
pub mod updates;

pub use collector::{CollectorSetup, FeederKind};
pub use config::SimConfig;
pub use policy::{AsPolicy, Policy, PolicyDeployment, PolicyEngine, PolicyScenario, PolicyTable};
pub use propagate::{
    propagate_origin, propagate_origin_with, propagate_origins, OriginScheduling,
    PropagationOptions, RouteClass, RouteInfo, RouteTaint, RoutingOutcome,
};
pub use scenario::Scenario;
pub use shard::{effective_concurrency, join, shard_map, shard_map_owned};
pub use updates::UpdateStreamConfig;
