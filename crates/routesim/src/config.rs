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

    /// Worker threads for the *within-origin* frontier expansion of the
    /// propagation (the level-synchronous Phase 1/3 walks and the Phase 2
    /// exporter scan): `0` = all available cores, `1` (the default) =
    /// sequential scans, with all parallelism going to the per-origin
    /// sharding. The two levels compose without oversubscription —
    /// [`SimConfig::propagation_split`] bounds origins × frontier workers
    /// by the budget `concurrency` resolves to. Like `concurrency`, the
    /// knob is an execution detail with byte-identical output.
    pub frontier_concurrency: usize,

    /// How origins are assigned to the propagation workers (see
    /// [`OriginScheduling`]): self-balancing claims by default, static
    /// striping as the reference schedule. Like the worker
    /// counts, an execution detail with byte-identical output.
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
            frontier_concurrency: 1,
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

    /// The same configuration pinned to `frontier_concurrency`
    /// within-origin frontier workers.
    pub fn with_frontier(self, frontier_concurrency: usize) -> Self {
        SimConfig { frontier_concurrency, ..self }
    }

    /// The same configuration pinned to an origin-to-worker schedule.
    pub fn with_scheduling(self, scheduling: OriginScheduling) -> Self {
        SimConfig { scheduling, ..self }
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

    /// Split the resolved worker budget between the two propagation
    /// levels as `(origin workers, frontier workers)`: the frontier knob
    /// is resolved first (`0` = the whole budget) and capped by the
    /// budget, then per-origin sharding gets what integer-divides into
    /// the rest — so `origins × frontier ≤ effective_concurrency()` and
    /// nested parallelism never oversubscribes the host. The default
    /// (`frontier_concurrency = 1`) keeps the whole budget on per-origin
    /// sharding, which is the right split whenever there are more origins
    /// than cores.
    pub fn propagation_split(&self) -> (usize, usize) {
        let budget = self.effective_concurrency().max(1);
        // Within the split, "all available parallelism" is the budget
        // itself — `concurrency` already resolved the host's cores.
        let frontier =
            if self.frontier_concurrency == 0 { budget } else { self.frontier_concurrency };
        let frontier = frontier.clamp(1, budget);
        ((budget / frontier).max(1), frontier)
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
        assert_eq!(SimConfig::default().frontier_concurrency, 1, "default keeps frontier seq");
        // Default split: everything to per-origin sharding.
        let sim = SimConfig::small().with_concurrency(6);
        assert_eq!(sim.propagation_split(), (6, 1));
        // A pinned frontier divides the budget.
        assert_eq!(sim.clone().with_frontier(2).propagation_split(), (3, 2));
        assert_eq!(sim.clone().with_frontier(4).propagation_split(), (1, 4));
        // Frontier 0 claims the whole budget; origins drop to one worker.
        assert_eq!(sim.clone().with_frontier(0).propagation_split(), (1, 6));
        // Oversized requests are capped by the budget.
        assert_eq!(sim.clone().with_frontier(64).propagation_split(), (1, 6));
        // Fully sequential stays fully sequential.
        assert_eq!(sim.with_concurrency(1).with_frontier(8).propagation_split(), (1, 1));
        // The product never exceeds the resolved budget.
        for concurrency in [0usize, 1, 2, 3, 8] {
            for frontier in [0usize, 1, 2, 3, 8] {
                let sim = SimConfig::small().with_concurrency(concurrency).with_frontier(frontier);
                let (origins, frontier_workers) = sim.propagation_split();
                assert!(origins * frontier_workers <= sim.effective_concurrency().max(1));
                assert!(origins >= 1 && frontier_workers >= 1);
            }
        }
    }

    #[test]
    fn propagation_split_holds_at_degenerate_budgets() {
        // Budget of one: whatever the frontier knob asks for — the whole
        // budget (0), more than the budget, or exactly one — the split
        // must collapse to the fully sequential (1, 1).
        for frontier in [0usize, 1, 2, 8, usize::MAX] {
            let sim = SimConfig::small().with_concurrency(1).with_frontier(frontier);
            assert_eq!(sim.propagation_split(), (1, 1), "frontier={frontier}");
        }
        // Frontier larger than the budget: capped at the budget, origins
        // drop to a single worker — never zero, never oversubscribed.
        let sim = SimConfig::small().with_concurrency(2).with_frontier(3);
        assert_eq!(sim.propagation_split(), (1, 2));
        let sim = SimConfig::small().with_concurrency(2).with_frontier(usize::MAX);
        assert_eq!(sim.propagation_split(), (1, 2));
        // A frontier that does not divide the budget floors the origin
        // side (5 / 2 = 2), keeping the product within the budget.
        let sim = SimConfig::small().with_concurrency(5).with_frontier(2);
        assert_eq!(sim.propagation_split(), (2, 2));
        // `concurrency = 0` resolves to the host's cores before the
        // split, so the invariant holds against that resolved budget.
        let sim = SimConfig::small().with_concurrency(0).with_frontier(usize::MAX);
        let (origins, frontier) = sim.propagation_split();
        assert_eq!(origins, 1);
        assert_eq!(frontier, sim.effective_concurrency().max(1));
    }
}
