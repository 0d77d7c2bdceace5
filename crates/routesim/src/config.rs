//! Simulation configuration.

use serde::{Deserialize, Serialize};

use crate::policy::PolicyScenario;
use crate::propagate::OriginScheduling;

/// All knobs of the route-propagation and measurement-visibility model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Seed for the simulator's own RNG (independent of the topology seed
    /// so the same topology can be measured under different conditions).
    pub seed: u64,

    /// Probability that a transit AS (an AS with customers) deploys
    /// ingress relationship tagging communities.
    pub transit_tagging_probability: f64,
    /// Probability that a stub AS deploys ingress relationship tagging.
    pub stub_tagging_probability: f64,
    /// Probability that a *tagging* AS documents its communities in the
    /// IRR. Together with the tagging probabilities this bounds the
    /// inference coverage, the paper's 72%/81% numbers.
    pub documentation_probability: f64,
    /// Probability that a documented object also documents its TE values.
    pub te_documentation_probability: f64,

    /// Probability that an origin attaches a traffic-engineering community
    /// of its provider (asking for lower preference) to an announcement.
    pub te_request_probability: f64,
    /// Probability that an AS attaches an ingress-location community when
    /// it tags a route.
    pub location_tag_probability: f64,

    /// Probability that an AS strips (scrubs) foreign communities when
    /// re-exporting a route. Real transit providers often do; it reduces
    /// how far tags propagate and therefore coverage.
    pub community_scrub_probability: f64,

    /// Allow the IPv6 plane to relax the valley-free export rule for
    /// reachability: an AS with no IPv6 route to a prefix accepts and
    /// re-exports a route from any neighbor. This reproduces the paper's
    /// "relaxation of the valley-free rule to maintain IPv6 reachability".
    pub v6_reachability_relaxation: bool,
    /// Probability that an AS leaks its best route to a neighbor it should
    /// not export it to (plain misconfiguration leaks); applied per
    /// (AS, origin) pair during propagation, on both planes.
    pub leak_probability: f64,

    /// Number of collectors.
    pub collector_count: usize,
    /// Number of feeder ASes per collector (drawn without replacement,
    /// preferring well-connected ASes as real collectors do).
    pub feeders_per_collector: usize,
    /// Fraction of feeders that are "full feeders" exposing LocPrf.
    pub full_feeder_fraction: f64,

    /// Snapshot timestamp recorded in the generated RIBs/MRT files
    /// (defaults to 2010-08-01T00:00:00Z to mirror the paper's dataset).
    pub timestamp: u64,

    /// Worker threads for route propagation and RIB materialisation:
    /// `0` uses all available parallelism, `1` is the sequential path.
    /// Whatever the value, the produced snapshots are byte-identical —
    /// parallelism is an execution detail, never an output knob (the
    /// determinism suite enforces this).
    pub concurrency: usize,

    /// Read by nothing: propagation has one schedule (see
    /// [`OriginScheduling`]). The field stays only while perfbench still
    /// names it (ROADMAP item 6).
    pub scheduling: OriginScheduling,

    /// Propagate only every `origin_sample`-th eligible origin (after the
    /// deterministic ASN sort): `0` (the default) propagates all of them.
    /// Internet-scale experiment presets use a stride so a 100k-AS
    /// topology completes in seconds rather than propagating 100k
    /// origins. Unlike the worker knobs this *changes the output* — it is
    /// part of the scenario's output identity, not an execution detail.
    pub origin_sample: usize,

    /// The adversarial scenario propagation runs under (see
    /// [`PolicyScenario`]): the classic valley-free walk by default, or a
    /// deterministic route leak / (sub)prefix hijack. Like
    /// `origin_sample` this *changes the output* and is part of the
    /// scenario's output identity.
    pub policy_scenario: PolicyScenario,

    /// Fraction of ASes (in `[0, 1]`) that deploy the scenario's
    /// defensive policy — ASPA-lite against route leaks, ROV against
    /// hijacks — sampled deterministically per AS from the simulation
    /// seed (see [`crate::policy::PolicyDeployment`]). `0` (the default)
    /// deploys nowhere; inert under the classic scenario. Output
    /// identity, not an execution detail.
    pub policy_deployment: f64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 42,
            transit_tagging_probability: 0.85,
            stub_tagging_probability: 0.25,
            documentation_probability: 0.82,
            te_documentation_probability: 0.7,
            te_request_probability: 0.04,
            location_tag_probability: 0.5,
            community_scrub_probability: 0.15,
            v6_reachability_relaxation: true,
            leak_probability: 0.02,
            collector_count: 4,
            feeders_per_collector: 12,
            full_feeder_fraction: 0.5,
            timestamp: 1_280_620_800, // 2010-08-01
            concurrency: 0,
            scheduling: OriginScheduling::default(),
            origin_sample: 0,
            policy_scenario: PolicyScenario::default(),
            policy_deployment: 0.0,
        }
    }
}

impl SimConfig {
    /// A configuration with fewer collectors/feeders for small test
    /// topologies.
    pub fn small() -> Self {
        SimConfig { collector_count: 2, feeders_per_collector: 6, ..Default::default() }
    }

    /// The same configuration pinned to `concurrency` worker threads.
    pub fn with_concurrency(self, concurrency: usize) -> Self {
        SimConfig { concurrency, ..self }
    }

    /// The same configuration pinned to an origin sampling stride
    /// (`0` = propagate every eligible origin).
    pub fn with_origin_sample(self, origin_sample: usize) -> Self {
        SimConfig { origin_sample, ..self }
    }

    /// The same configuration pinned to an adversarial scenario.
    pub fn with_scenario(self, policy_scenario: PolicyScenario) -> Self {
        SimConfig { policy_scenario, ..self }
    }

    /// The same configuration pinned to a defensive deployment fraction.
    pub fn with_deployment(self, policy_deployment: f64) -> Self {
        SimConfig { policy_deployment, ..self }
    }

    /// The worker count this configuration resolves to (`0` = all cores).
    pub fn effective_concurrency(&self) -> usize {
        crate::shard::effective_concurrency(self.concurrency)
    }

    /// The propagation workers as `(origin workers, within-origin
    /// workers)`: the whole resolved budget goes to the origins, and each
    /// origin's walk is sequential. Kept in this two-value shape only
    /// while perfbench still calls it (ROADMAP item 6).
    pub fn propagation_split(&self) -> (usize, usize) {
        (self.effective_concurrency().max(1), 1)
    }

    /// Validate probability ranges and structural requirements.
    pub fn validate(&self) -> Result<(), String> {
        for (name, p) in [
            ("transit_tagging_probability", self.transit_tagging_probability),
            ("stub_tagging_probability", self.stub_tagging_probability),
            ("documentation_probability", self.documentation_probability),
            ("te_documentation_probability", self.te_documentation_probability),
            ("te_request_probability", self.te_request_probability),
            ("location_tag_probability", self.location_tag_probability),
            ("community_scrub_probability", self.community_scrub_probability),
            ("leak_probability", self.leak_probability),
            ("full_feeder_fraction", self.full_feeder_fraction),
            ("policy_deployment", self.policy_deployment),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} must be within [0, 1], got {p}"));
            }
        }
        if self.collector_count == 0 {
            return Err("collector_count must be positive".into());
        }
        if self.feeders_per_collector == 0 {
            return Err("feeders_per_collector must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_and_small_are_valid() {
        assert!(SimConfig::default().validate().is_ok());
        assert!(SimConfig::small().validate().is_ok());
        assert!(SimConfig::small().collector_count < SimConfig::default().collector_count);
    }

    #[test]
    fn validation_catches_bad_values() {
        let c = SimConfig { leak_probability: 1.5, ..SimConfig::default() };
        assert!(c.validate().unwrap_err().contains("leak_probability"));
        let c = SimConfig { collector_count: 0, ..SimConfig::default() };
        assert!(c.validate().is_err());
        let c = SimConfig { feeders_per_collector: 0, ..SimConfig::default() };
        assert!(c.validate().is_err());
        let c = SimConfig { full_feeder_fraction: -0.1, ..SimConfig::default() };
        assert!(c.validate().is_err());
    }

    #[test]
    fn origin_sample_knob_defaults_and_pins() {
        assert_eq!(SimConfig::default().origin_sample, 0, "default propagates every origin");
        let pinned = SimConfig::small().with_origin_sample(16);
        assert_eq!(pinned.origin_sample, 16);
        assert!(pinned.validate().is_ok());
    }

    #[test]
    fn scenario_knobs_default_pin_and_validate() {
        let sim = SimConfig::default();
        assert_eq!(sim.policy_scenario, PolicyScenario::Classic, "default stays classic");
        assert_eq!(sim.policy_deployment, 0.0, "default deploys nowhere");
        let pinned =
            SimConfig::small().with_scenario(PolicyScenario::RouteLeak).with_deployment(0.5);
        assert_eq!(pinned.policy_scenario, PolicyScenario::RouteLeak);
        assert_eq!(pinned.policy_deployment, 0.5);
        assert!(pinned.validate().is_ok());
        let bad = SimConfig { policy_deployment: 1.5, ..SimConfig::default() };
        assert!(bad.validate().unwrap_err().contains("policy_deployment"));
    }

    #[test]
    fn serde_roundtrip() {
        let c = SimConfig::default();
        let json = serde_json::to_string(&c).unwrap();
        let back: SimConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn concurrency_knob_resolves_and_validates() {
        assert_eq!(SimConfig::default().concurrency, 0, "default is auto");
        assert!(SimConfig::default().effective_concurrency() >= 1);
        let pinned = SimConfig::small().with_concurrency(3);
        assert_eq!(pinned.effective_concurrency(), 3);
        assert!(pinned.validate().is_ok(), "any worker count is valid");
    }

    #[test]
    fn propagation_split_bounds_nested_parallelism_by_the_budget() {
        // The whole budget goes to the origins; the walk is sequential.
        for concurrency in [1usize, 2, 3, 6] {
            let sim = SimConfig::small().with_concurrency(concurrency);
            assert_eq!(sim.propagation_split(), (concurrency, 1), "concurrency={concurrency}");
        }
    }

    #[test]
    fn propagation_split_holds_at_degenerate_budgets() {
        // `concurrency = 0` resolves to the host's cores before the split.
        let sim = SimConfig::small().with_concurrency(0);
        assert_eq!(sim.propagation_split(), (sim.effective_concurrency().max(1), 1));
    }
}
