//! End-to-end scenario assembly: topology → policies → propagation →
//! collector RIBs → IRR registry → MRT files — plus the sweep-point
//! factory ([`ScenarioPool`]) that keeps its base point's propagation
//! outcomes and reuses them for every patch that provably cannot change
//! them.

use std::collections::HashMap;
use std::io;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};
use std::path::{Path, PathBuf};

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use asgraph::AsGraph;
use bgp_types::{
    Asn, CollectorId, IpVersion, Ipv4Net, Ipv6Net, PathAttributes, PeerId, Prefix, RibEntry,
    RibSnapshot, RouteSource,
};
use irr::{IrrRegistry, TrafficAction};
use topogen::{GroundTruth, TopologyConfig};

use crate::collector::{build_collectors, CollectorSetup, FeederKind};
use crate::config::SimConfig;
use crate::policy::{PolicyDeployment, PolicyTable};
use crate::propagate::{map_origins, propagate_next_hops, NextHops, PropagationOptions};
use crate::shard::shard_map;

/// A fully materialised measurement scenario: the synthetic Internet, what
/// its operators configured, and what the collectors recorded.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The ground-truth topology and relationships.
    pub truth: GroundTruth,
    /// Per-AS policies (LocPrf plans, community schemes, tagging).
    pub policies: PolicyTable,
    /// The synthetic IRR: documentation for a subset of the schemes.
    pub registry: IrrRegistry,
    /// The collectors and their feeders.
    pub collectors: Vec<CollectorSetup>,
    /// One RIB snapshot per collector.
    pub snapshots: Vec<RibSnapshot>,
    /// The topology configuration used.
    pub topology_config: TopologyConfig,
    /// The simulation configuration used.
    pub sim_config: SimConfig,
}

/// One plane's propagation outcomes with their reuse key: the options
/// they were computed under and the origin-sampling stride, which
/// selects *which* origins were propagated. Indexed in
/// [`IpVersion::BOTH`] order.
type BaseOutcomes = [(PropagationOptions, usize, Vec<NextHops>); 2];

/// One origin's RIB entries on one plane, tagged with the index of the
/// collector each entry belongs to, in feeder-ASN order.
type OriginEntries = Vec<(usize, RibEntry)>;

/// The propagation configuration of one plane, derived from the
/// simulation config exactly as the build derives it.
fn propagation_options(sim_config: &SimConfig, plane: IpVersion) -> PropagationOptions {
    PropagationOptions {
        reachability_relaxation: plane == IpVersion::V6 && sim_config.v6_reachability_relaxation,
        leak_probability: sim_config.leak_probability,
        seed: sim_config.seed,
        scenario: sim_config.policy_scenario,
        deployment: PolicyDeployment {
            fraction: sim_config.policy_deployment,
            seed: sim_config.seed ^ 0x6465_706c,
        },
        frontier_concurrency: 1,
        scheduling: sim_config.scheduling,
    }
}

/// The origins propagated on one plane: every AS with a link on it, in
/// ASN order, strided by [`SimConfig::origin_sample`]. Sampling strides
/// the *sorted* list, so which origins survive is a pure function of the
/// topology and the knob — never of iteration order or worker count.
fn plane_origins(graph: &AsGraph, sim_config: &SimConfig, plane: IpVersion) -> Vec<Asn> {
    let mut origins: Vec<Asn> = graph.asns().filter(|a| graph.degree(*a, plane) > 0).collect();
    origins.sort();
    if sim_config.origin_sample > 1 {
        origins = origins.into_iter().step_by(sim_config.origin_sample).collect();
    }
    origins
}

/// The deterministic prefix an AS originates on a plane.
///
/// 16-bit ASNs keep the historical mapping (`10.hi.lo.0/24`,
/// `2001:db8:asn::/48`) so existing golden artefacts stay byte-identical;
/// larger ASNs — the internet-scale synthetic topologies overflow the
/// 16-bit space — map into disjoint ranges (first octet `64 + (asn >>
/// 16)` for v4, a `/64` with the high half in the third hextet for v6),
/// so prefixes stay unique across the whole generated ASN space. The v4
/// scheme has 23 usable bits; topologies are nowhere near that, and the
/// assert turns any future overflow into a loud failure instead of a
/// silent prefix collision.
pub fn origin_prefix(asn: Asn, plane: IpVersion) -> Prefix {
    let a = asn.value();
    match plane {
        IpVersion::V4 if a <= 0xFFFF => Prefix::V4(Ipv4Net::new_truncated(
            Ipv4Addr::new(10, ((a >> 8) & 0xFF) as u8, (a & 0xFF) as u8, 0),
            24,
        )),
        IpVersion::V4 => {
            assert!(a < 1 << 23, "origin_prefix cannot map ASN {a} uniquely into 10/8 + 64/2");
            Prefix::V4(Ipv4Net::new_truncated(
                Ipv4Addr::new(
                    64 + ((a >> 16) & 0x7F) as u8,
                    ((a >> 8) & 0xFF) as u8,
                    (a & 0xFF) as u8,
                    0,
                ),
                24,
            ))
        }
        IpVersion::V6 if a <= 0xFFFF => Prefix::V6(Ipv6Net::new_truncated(
            Ipv6Addr::new(0x2001, 0xdb8, (a & 0xFFFF) as u16, 0, 0, 0, 0, 0),
            48,
        )),
        IpVersion::V6 => Prefix::V6(Ipv6Net::new_truncated(
            Ipv6Addr::new(0x2001, 0xdb8, (a >> 16) as u16, (a & 0xFFFF) as u16, 0, 0, 0, 0),
            64,
        )),
    }
}

impl Scenario {
    /// Build a scenario: generate the topology, assign policies, document a
    /// subset in the IRR, select collectors, propagate every origin on both
    /// planes, and record what each feeder exports to its collector.
    pub fn build(topology_config: &TopologyConfig, sim_config: &SimConfig) -> Scenario {
        sim_config.validate().expect("invalid simulation configuration");
        let truth = topogen::generate(topology_config);
        Self::build_from_truth(truth, topology_config.clone(), sim_config)
    }

    /// Build a scenario on an existing ground truth (used by fixtures and
    /// ablations that reuse one topology under several measurement setups).
    pub fn build_from_truth(
        truth: GroundTruth,
        topology_config: TopologyConfig,
        sim_config: &SimConfig,
    ) -> Scenario {
        Self::assemble(truth, topology_config, sim_config, None).0
    }

    /// The shared build path: generate policies, registry and collectors
    /// for `sim_config`, then materialise each plane's collector RIBs. A
    /// plane is served from `base` — the pool's stored next hops — when
    /// they were computed under the same route model and origin-sampling
    /// stride; otherwise it is propagated afresh and each origin's RIB
    /// entries are materialised on the worker right after its walk, so
    /// the build never holds a plane of next hops. Also returns how many
    /// planes `base` served.
    fn assemble(
        mut truth: GroundTruth,
        topology_config: TopologyConfig,
        sim_config: &SimConfig,
        base: Option<&BaseOutcomes>,
    ) -> (Scenario, u64) {
        sim_config.validate().expect("invalid simulation configuration");
        // Serve the hot per-plane walks from the flat CSR mirror. It
        // iterates neighbours in the exact adjacency order, so every
        // downstream byte is what the map backend would produce.
        truth.graph.freeze();
        let policies = PolicyTable::build(&truth, sim_config);

        // Document the chosen subset of schemes in the registry.
        let mut registry = IrrRegistry::new();
        for policy in policies.iter() {
            if policy.documented {
                registry.document_scheme(&policy.scheme, policy.documents_te);
            }
        }

        let mut rng = ChaCha8Rng::seed_from_u64(sim_config.seed ^ 0x636f_6c6c);
        let collectors = build_collectors(&truth, sim_config, &mut rng);

        let mut snapshots: Vec<RibSnapshot> = collectors
            .iter()
            .map(|c| RibSnapshot::new(c.id.clone(), sim_config.timestamp))
            .collect();

        let mut reused = 0;
        for (slot, plane) in IpVersion::BOTH.into_iter().enumerate() {
            let options = propagation_options(sim_config, plane);
            let materialiser =
                PlaneMaterialiser::new(&truth.graph, &policies, &collectors, sim_config, plane);
            let batches = match base.map(|base| &base[slot]) {
                Some((base_options, origin_sample, next_hops))
                    if *origin_sample == sim_config.origin_sample
                        && base_options.same_route_model(&options) =>
                {
                    reused += 1;
                    let workers = sim_config.effective_concurrency();
                    shard_map(next_hops, workers, |hops| {
                        materialiser
                            .origin_entries(hops.origin, |feeder| hops.path(&truth.graph, feeder))
                    })
                }
                _ => Self::propagate_plane(&truth, sim_config, plane, &options, &materialiser),
            };
            // Batches come back in origin order, reproducing the
            // sequential entry sequence exactly.
            for batch in batches {
                for (collector_idx, entry) in batch {
                    snapshots[collector_idx].push(entry);
                }
            }
        }

        let scenario = Scenario {
            truth,
            policies,
            registry,
            collectors,
            snapshots,
            topology_config,
            sim_config: sim_config.clone(),
        };
        (scenario, reused)
    }

    /// One plane's propagation round, fused with RIB materialisation:
    /// every origin of the plane (see [`plane_origins`]), sharded across
    /// worker threads, each origin's own walk sequential on its worker.
    /// Each worker hands its live outcome straight to
    /// `materialiser` and keeps only the origin's RIB entries, which come
    /// back in origin order, so the rest of the build is oblivious to how
    /// (or whether) it was parallelised.
    fn propagate_plane(
        truth: &GroundTruth,
        sim_config: &SimConfig,
        plane: IpVersion,
        options: &PropagationOptions,
        materialiser: &PlaneMaterialiser<'_>,
    ) -> Vec<OriginEntries> {
        let graph = &truth.graph;
        let origins = plane_origins(graph, sim_config, plane);
        let workers = sim_config.effective_concurrency();
        map_origins(graph, &origins, plane, options, workers, |outcome| {
            materialiser.origin_entries(outcome.origin, |feeder| outcome.path(graph, feeder))
        })
    }

    /// Pool every collector's snapshot into one view, as the paper pools
    /// RouteViews and RIS. Uses the scenario's configured concurrency.
    pub fn merged_snapshot(&self) -> RibSnapshot {
        self.pooled_snapshot(self.sim_config.concurrency)
    }

    /// [`merged_snapshot`](Self::merged_snapshot) with an explicit worker
    /// count (`0` = all cores, `1` = sequential). Per-collector entry
    /// cloning is sharded; the pooled entry order — collector order, then
    /// each collector's own order — is identical at every worker count.
    pub fn pooled_snapshot(&self, concurrency: usize) -> RibSnapshot {
        let mut merged = RibSnapshot::new(CollectorId::new("merged"), self.sim_config.timestamp);
        let workers = crate::shard::effective_concurrency(concurrency);
        let chunks: Vec<Vec<RibEntry>> =
            shard_map(&self.snapshots, workers, |snap| snap.entries.clone());
        merged.entries = chunks.into_iter().flatten().collect();
        merged
    }

    /// Write one MRT TABLE_DUMP_V2 file per collector into `dir` and return
    /// the file paths (the directory is created if needed).
    pub fn write_mrt_files(&self, dir: impl AsRef<Path>) -> io::Result<Vec<PathBuf>> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let mut paths = Vec::with_capacity(self.snapshots.len());
        for snap in &self.snapshots {
            let name = snap
                .collector
                .as_ref()
                .map(|c| c.name().to_string())
                .unwrap_or_else(|| "collector".to_string());
            let path = dir.join(format!("{name}.rib.mrt"));
            mrt::write_snapshot_to_path(&path, snap)
                .map_err(|e| io::Error::other(e.to_string()))?;
            paths.push(path);
        }
        Ok(paths)
    }

    /// The total number of RIB entries across all collectors.
    pub fn total_rib_entries(&self) -> usize {
        self.snapshots.iter().map(|s| s.len()).sum()
    }
}

/// A sweep-point factory over one topology: generates the ground truth
/// and propagates the base configuration's planes once, then builds
/// every sweep point as a patch of the base configuration, so the
/// topology is never regenerated and propagation only re-runs on a plane
/// whose route model or origin sampling the patch changes.
///
/// This is the layer the paper-scale experiment bins sweep on (the
/// coverage sweep patches `documentation_probability`, the collector
/// sensitivity sweep patches `collector_count`; neither touches
/// propagation, so every point reuses the base's routed outcomes). Only
/// the base point's outcomes are kept: a point that propagates afresh
/// drops its outcomes once its RIBs are materialised. The reuse counters
/// report how often each happened.
#[derive(Debug, Clone)]
pub struct ScenarioPool {
    truth: GroundTruth,
    topology_config: TopologyConfig,
    sim_config: SimConfig,
    base: BaseOutcomes,
    propagation_reuses: u64,
    propagation_computes: u64,
}

impl ScenarioPool {
    /// Generate the topology and propagate both planes of the base
    /// configuration the pool derives sweep points from.
    pub fn new(topology: &TopologyConfig, sim: &SimConfig) -> ScenarioPool {
        sim.validate().expect("invalid simulation configuration");
        let mut truth = topogen::generate(topology);
        truth.graph.freeze();
        let workers = sim.effective_concurrency();
        let base = IpVersion::BOTH.map(|plane| {
            let options = propagation_options(sim, plane);
            let origins = plane_origins(&truth.graph, sim, plane);
            let next_hops = propagate_next_hops(&truth.graph, &origins, plane, &options, workers);
            (options, sim.origin_sample, next_hops)
        });
        ScenarioPool {
            truth,
            topology_config: topology.clone(),
            sim_config: sim.clone(),
            base,
            propagation_reuses: 0,
            propagation_computes: 2,
        }
    }

    /// Build the sweep point obtained by patching the base configuration
    /// — byte-identical to `Scenario::build` with the patched config.
    pub fn scenario_with(&mut self, patch: impl FnOnce(&mut SimConfig)) -> Scenario {
        let mut sim = self.sim_config.clone();
        patch(&mut sim);
        let (scenario, reused) = Scenario::assemble(
            self.truth.clone(),
            self.topology_config.clone(),
            &sim,
            Some(&self.base),
        );
        self.propagation_reuses += reused;
        self.propagation_computes += IpVersion::BOTH.len() as u64 - reused;
        scenario
    }

    /// Per-plane propagation rounds served from the base point's outcomes.
    pub fn propagation_reuses(&self) -> u64 {
        self.propagation_reuses
    }

    /// Per-plane propagation rounds actually computed (including the two
    /// the base point ran).
    pub fn propagation_computes(&self) -> u64 {
        self.propagation_computes
    }
}

/// The next hop every simulated v6 route carries.
const V6_NEXT_HOP: Ipv6Addr = Ipv6Addr::new(0x2001, 0xdb8, 0xbeef, 0, 0, 0, 0, 1);

/// One plane's RIB materialiser: turns an origin's routes into the
/// entries its plane's feeders export to their collectors. Built once per
/// plane; what it makes of an origin is a pure function of the origin and
/// the feeders' paths to it, because the route RNG is seeded per origin,
/// so it runs on whichever worker holds the origin's routes.
struct PlaneMaterialiser<'a> {
    graph: &'a AsGraph,
    policies: &'a PolicyTable,
    sim_config: &'a SimConfig,
    plane: IpVersion,
    /// The plane's feeders in ASN order: collector index, feed kind and
    /// the session identity on this plane.
    feeders: Vec<(usize, FeederKind, PeerId)>,
}

impl<'a> PlaneMaterialiser<'a> {
    fn new(
        graph: &'a AsGraph,
        policies: &'a PolicyTable,
        collectors: &[CollectorSetup],
        sim_config: &'a SimConfig,
        plane: IpVersion,
    ) -> Self {
        let mut feeders: Vec<(usize, FeederKind, PeerId)> = Vec::new();
        for (ci, collector) in collectors.iter().enumerate() {
            for feeder in collector.plane_feeders(plane) {
                feeders.push((ci, feeder.kind, feeder.peer_id(plane)));
            }
        }
        feeders.sort_by_key(|(_, _, peer)| peer.asn);
        PlaneMaterialiser { graph, policies, sim_config, plane, feeders }
    }

    /// The RIB entries `origin`'s prefix produces, one per feeder that
    /// `path_of` gives a path `feeder → … → origin`.
    fn origin_entries(
        &self,
        origin: Asn,
        path_of: impl Fn(Asn) -> Option<Vec<Asn>>,
    ) -> OriginEntries {
        let prefix = origin_prefix(origin, self.plane);
        // Per-origin deterministic RNG so results do not depend on how
        // many feeders or collectors exist.
        let mut route_rng = ChaCha8Rng::seed_from_u64(
            self.sim_config.seed ^ (u64::from(origin.value()) << 32) ^ u64::from(self.plane.afi()),
        );
        // TE request: does this origin ask its first provider for lower
        // preference on this prefix?
        let te_requested = route_rng.gen_bool(self.sim_config.te_request_probability);

        let mut entries = Vec::new();
        for &(collector_idx, kind, peer) in &self.feeders {
            let Some(path) = path_of(peer.asn) else { continue };
            let entry =
                self.build_rib_entry(prefix, &path, peer, kind, te_requested, &mut route_rng);
            entries.push((collector_idx, entry));
        }
        entries
    }

    /// Construct one collector RIB entry from a feeder's path to an origin.
    fn build_rib_entry<R: Rng>(
        &self,
        prefix: Prefix,
        path: &[Asn],
        peer: PeerId,
        feeder_kind: FeederKind,
        te_requested: bool,
        rng: &mut R,
    ) -> RibEntry {
        let (graph, policies, plane) = (self.graph, self.policies, self.plane);
        let feeder_asn = peer.asn;
        let as_path: bgp_types::AsPath = bgp_types::AsPath::from_sequence(path.to_vec());
        let mut attrs = PathAttributes::with_path(as_path);
        attrs.next_hop = Some(match plane {
            IpVersion::V4 => IpAddr::V4(Ipv4Addr::new(203, 0, 113, 1)),
            IpVersion::V6 => IpAddr::V6(V6_NEXT_HOP),
        });

        // The TE community the origin attached, addressed to its first
        // upstream (the AS right before the origin on the path), if that
        // AS has a documented lower-preference value.
        let mut te_target: Option<(Asn, bgp_types::Community)> = None;
        if te_requested && path.len() >= 2 {
            let upstream = path[path.len() - 2];
            if let Some(upstream_policy) = policies.get(upstream) {
                if let Some(c) = upstream_policy.scheme.te_community(TrafficAction::LowerPreference)
                {
                    te_target = Some((upstream, c));
                }
            }
        }
        if let Some((_, c)) = te_target {
            attrs.communities.insert(c);
        }

        // Walk the path from the origin towards the feeder, accumulating
        // the communities each AS adds at ingress (and dropping foreign
        // ones at scrubbing ASes).
        let mut per_as_locations: HashMap<Asn, u16> = HashMap::new();
        for i in (0..path.len() - 1).rev() {
            let this_as = path[i];
            let learned_from = path[i + 1];
            let Some(policy) = policies.get(this_as) else { continue };
            if policy.scrubs_foreign_communities {
                // Keep only communities defined by this AS (the usual
                // "delete foreign communities" policy), plus the TE
                // community addressed to an AS we have not reached yet.
                let own: Vec<bgp_types::Community> =
                    attrs.communities.defined_by(this_as).collect();
                let keep_te = te_target.filter(|(target, _)| {
                    // The TE target is upstream of the origin; once passed
                    // it is allowed to be scrubbed like anything else.
                    path.iter().position(|a| a == target).map(|p| p < i).unwrap_or(false)
                });
                attrs.communities = own.into_iter().collect();
                if let Some((_, c)) = keep_te {
                    attrs.communities.insert(c);
                }
            }
            if let Some(rel) = graph.relationship(this_as, learned_from, plane) {
                if let Some(c) = policy.ingress_community(rel) {
                    attrs.communities.insert(c);
                }
            }
            if policy.scheme.location_count > 0
                && rng.gen_bool(self.sim_config.location_tag_probability)
            {
                let index = *per_as_locations
                    .entry(this_as)
                    .or_insert_with(|| rng.gen_range(0..policy.scheme.location_count));
                if let Some(c) = policy.scheme.location_community(index) {
                    attrs.communities.insert(c);
                }
            }
        }

        // LocPrf: only full feeders expose it; the value is what the
        // feeder assigned given the relationship towards the neighbor it
        // learned the route from, or the TE-lowered value if the route
        // carries the feeder's lower-preference community.
        if feeder_kind == FeederKind::Full {
            if let Some(policy) = policies.get(feeder_asn) {
                let lowered = policy
                    .scheme
                    .te_community(TrafficAction::LowerPreference)
                    .map(|c| attrs.communities.contains(c))
                    .unwrap_or(false);
                let local_pref = if path.len() >= 2 {
                    let learned_from = path[1];
                    match graph.relationship(feeder_asn, learned_from, plane) {
                        Some(_) if lowered => policy.locprf.lowered,
                        Some(rel) => policy.locprf.for_relationship(rel),
                        None => policy.locprf.provider,
                    }
                } else {
                    // The feeder originates the prefix itself.
                    policy.locprf.customer
                };
                attrs.local_pref = Some(local_pref);
            }
        }

        let mut entry = RibEntry::new(peer, prefix, attrs);
        entry.source = RouteSource::Simulated;
        entry
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_types::Relationship;

    fn small_scenario() -> Scenario {
        Scenario::build(&TopologyConfig::tiny(), &SimConfig::small())
    }

    #[test]
    fn origin_prefixes_are_unique_and_plane_appropriate() {
        let mut seen = std::collections::HashSet::new();
        for asn in [100u32, 101, 356, 65000] {
            for plane in IpVersion::BOTH {
                let p = origin_prefix(Asn(asn), plane);
                assert_eq!(p.version(), plane);
                assert!(seen.insert(p), "duplicate prefix {p}");
            }
        }
    }

    #[test]
    fn origin_prefixes_stay_unique_past_the_16_bit_asn_boundary() {
        // The internet-scale topologies hand out ASNs past 65535; the
        // legacy truncating mapping collided there (ASN 65636 aliased ASN
        // 100 on both planes). Sweep a dense band straddling the boundary
        // plus the aliasing pairs explicitly.
        let mut seen = std::collections::HashSet::new();
        let asns = (65000u32..66000).chain([100, 356, 131172, 200_000, (1 << 23) - 1]);
        for asn in asns {
            for plane in IpVersion::BOTH {
                let p = origin_prefix(Asn(asn), plane);
                assert_eq!(p.version(), plane);
                assert!(seen.insert(p), "duplicate prefix {p} for ASN {asn}");
            }
        }
        // And the 16-bit mapping itself is untouched (golden stability).
        assert_eq!(origin_prefix(Asn(0x1234), IpVersion::V4).to_string(), "10.18.52.0/24");
        assert_eq!(origin_prefix(Asn(0x1234), IpVersion::V6).to_string(), "2001:db8:1234::/48");
    }

    #[test]
    fn origin_sampling_prunes_routes_deterministically() {
        let full = Scenario::build(&TopologyConfig::tiny(), &SimConfig::small());
        let sampled =
            Scenario::build(&TopologyConfig::tiny(), &SimConfig::small().with_origin_sample(4));
        assert!(sampled.total_rib_entries() > 0);
        assert!(
            sampled.total_rib_entries() < full.total_rib_entries(),
            "a stride of 4 must drop origins"
        );
        // Sampled origins are a subset selected by sorted-ASN stride, so
        // every surviving prefix also exists in the full build.
        let full_prefixes: std::collections::HashSet<Prefix> =
            full.merged_snapshot().entries.iter().map(|e| e.prefix).collect();
        for entry in &sampled.merged_snapshot().entries {
            assert!(full_prefixes.contains(&entry.prefix));
        }
        // An output knob: a pool must re-propagate for it, and the two
        // strides must agree with from-scratch builds byte for byte.
        let mut pool = ScenarioPool::new(&TopologyConfig::tiny(), &SimConfig::small());
        let rebuilt = pool.scenario_with(|s| s.origin_sample = 4);
        assert_same_outputs(&rebuilt, &sampled, "origin_sample rebuild");
        assert_eq!(pool.propagation_reuses(), 0, "the stride keys propagation reuse");
    }

    #[test]
    fn scenario_builds_and_has_routes_on_both_planes() {
        let s = small_scenario();
        assert!(s.truth.graph.is_frozen(), "propagation walks the CSR mirror");
        assert_eq!(s.snapshots.len(), s.collectors.len());
        assert!(s.total_rib_entries() > 0);
        let merged = s.merged_snapshot();
        assert_eq!(merged.len(), s.total_rib_entries());
        assert!(merged.plane_entries(IpVersion::V4).count() > 0);
        assert!(merged.plane_entries(IpVersion::V6).count() > 0);
        // v4 visibility exceeds v6 visibility (partial adoption).
        assert!(
            merged.plane_entries(IpVersion::V4).count()
                > merged.plane_entries(IpVersion::V6).count()
        );
    }

    #[test]
    fn parallel_scenario_build_is_byte_identical_to_sequential() {
        let sequential =
            Scenario::build(&TopologyConfig::tiny(), &SimConfig::small().with_concurrency(1));
        for workers in [0usize, 2, 4] {
            let parallel = Scenario::build(
                &TopologyConfig::tiny(),
                &SimConfig::small().with_concurrency(workers),
            );
            assert_eq!(parallel.snapshots, sequential.snapshots, "workers={workers}");
            assert_eq!(parallel.registry, sequential.registry, "workers={workers}");
            // Pooling order is independent of the pooling worker count too.
            assert_eq!(parallel.pooled_snapshot(workers), sequential.merged_snapshot());
        }
    }

    #[test]
    fn scheduling_knob_is_invisible_in_scenario_outputs() {
        use crate::propagate::OriginScheduling;
        let dynamic = Scenario::build(
            &TopologyConfig::tiny(),
            &SimConfig::small().with_scheduling(OriginScheduling::Dynamic),
        );
        let statically = Scenario::build(
            &TopologyConfig::tiny(),
            &SimConfig::small().with_scheduling(OriginScheduling::Static),
        );
        assert_eq!(dynamic.snapshots, statically.snapshots);
        assert_eq!(dynamic.registry, statically.registry);
        // And a scheduling-only patch reuses the pool's base outcomes.
        let mut pool = ScenarioPool::new(
            &TopologyConfig::tiny(),
            &SimConfig::small().with_scheduling(OriginScheduling::Dynamic),
        );
        let patched = pool.scenario_with(|s| s.scheduling = OriginScheduling::Static);
        assert_eq!(patched.snapshots, dynamic.snapshots);
        assert_eq!(pool.propagation_reuses(), 2, "both planes reused");
    }

    #[test]
    fn scenario_is_deterministic() {
        let a = small_scenario();
        let b = small_scenario();
        assert_eq!(a.total_rib_entries(), b.total_rib_entries());
        let ma = a.merged_snapshot();
        let mb = b.merged_snapshot();
        assert_eq!(ma, mb);
        assert_eq!(a.registry, b.registry);
    }

    #[test]
    fn paths_in_ribs_are_loop_free_and_end_at_the_origin_prefix_owner() {
        let s = small_scenario();
        for entry in &s.merged_snapshot().entries {
            assert!(!entry.has_bogus_path(), "bogus path {}", entry.attrs.as_path);
            let origin = entry.origin_asn().unwrap();
            assert_eq!(origin_prefix(origin, entry.plane()), entry.prefix);
            assert_eq!(entry.attrs.as_path.first(), Some(entry.peer.asn));
            assert_eq!(entry.peer.plane(), entry.plane());
        }
    }

    #[test]
    fn full_feeders_expose_locpref_partial_feeders_do_not() {
        let s = small_scenario();
        let full: std::collections::HashSet<Asn> = s
            .collectors
            .iter()
            .flat_map(|c| c.feeders.iter())
            .filter(|f| f.kind == FeederKind::Full)
            .map(|f| f.asn)
            .collect();
        let mut saw_full = false;
        for entry in &s.merged_snapshot().entries {
            if full.contains(&entry.peer.asn) {
                assert!(entry.attrs.local_pref.is_some(), "full feeder without LocPrf");
                saw_full = true;
            } else {
                assert!(entry.attrs.local_pref.is_none(), "partial feeder leaked LocPrf");
            }
        }
        assert!(saw_full, "expected at least one full feeder entry");
    }

    #[test]
    fn locpref_ordering_reflects_relationships_for_untainted_routes() {
        let s = small_scenario();
        // For every full feeder, group LocPrf by the true relationship to the
        // first hop and verify customer > peer > provider on average.
        let mut by_rel: HashMap<(Asn, Relationship), Vec<u32>> = HashMap::new();
        for entry in &s.merged_snapshot().entries {
            let Some(lp) = entry.attrs.local_pref else { continue };
            let path: Vec<Asn> = entry.attrs.as_path.asns().collect();
            if path.len() < 2 {
                continue;
            }
            let rel = s.truth.graph.relationship(path[0], path[1], entry.plane());
            if let Some(rel) = rel {
                by_rel.entry((entry.peer.asn, rel)).or_default().push(lp);
            }
        }
        let mut checked = 0;
        for ((feeder, _), _) in by_rel.iter() {
            let get = |rel: Relationship| {
                by_rel.get(&(*feeder, rel)).map(|v| v.iter().copied().max().unwrap_or(0))
            };
            if let (Some(c), Some(p)) =
                (get(Relationship::ProviderToCustomer), get(Relationship::CustomerToProvider))
            {
                assert!(c > p, "feeder {feeder}: customer max {c} <= provider max {p}");
                checked += 1;
            }
        }
        assert!(checked > 0, "expected at least one feeder with both classes");
    }

    #[test]
    fn communities_on_routes_reflect_true_relationships() {
        let s = small_scenario();
        let mut verified = 0;
        for entry in &s.merged_snapshot().entries {
            let path: Vec<Asn> = entry.attrs.as_path.asns().collect();
            for community in entry.attrs.communities.iter() {
                let tagger = community.asn();
                // Find the tagger on the path; the community may be a
                // relationship tag about the next hop towards the origin.
                let Some(pos) = path.iter().position(|a| *a == tagger) else { continue };
                if pos + 1 >= path.len() {
                    continue;
                }
                let Some(policy) = s.policies.get(tagger) else { continue };
                let Some(meaning) = policy.scheme.meaning_of(community.value()) else { continue };
                if let Some(tag) = meaning.relationship_tag() {
                    let expected = tag.implied_relationship();
                    let actual = s
                        .truth
                        .graph
                        .relationship(tagger, path[pos + 1], entry.plane())
                        .expect("tagged link must exist");
                    assert_eq!(
                        actual, expected,
                        "community {community} on {}",
                        entry.attrs.as_path
                    );
                    verified += 1;
                }
            }
        }
        assert!(verified > 50, "expected many relationship tags, verified {verified}");
    }

    #[test]
    fn registry_documents_only_documented_policies() {
        let s = small_scenario();
        let documented = s.policies.documented_ases();
        assert_eq!(s.registry.len(), documented.len());
        for asn in documented {
            assert!(s.registry.get(asn).is_some());
        }
    }

    #[test]
    fn mrt_files_round_trip_through_the_codec() {
        let s = small_scenario();
        let dir = std::env::temp_dir().join(format!("routesim-mrt-{}", std::process::id()));
        let paths = s.write_mrt_files(&dir).unwrap();
        assert_eq!(paths.len(), s.snapshots.len());
        let mut total = 0;
        for (path, snap) in paths.iter().zip(&s.snapshots) {
            let decoded = mrt::read_snapshot_from_path(path).unwrap();
            assert_eq!(decoded.len(), snap.len());
            assert_eq!(decoded.collector, snap.collector);
            total += decoded.len();
        }
        assert_eq!(total, s.total_rib_entries());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Canonical comparison of two scenarios' outputs: snapshots,
    /// registry and collectors must match entry for entry.
    fn assert_same_outputs(a: &Scenario, b: &Scenario, what: &str) {
        assert_eq!(a.snapshots, b.snapshots, "{what}: snapshots diverged");
        assert_eq!(a.registry, b.registry, "{what}: registry diverged");
        assert_eq!(a.collectors, b.collectors, "{what}: collectors diverged");
    }

    #[test]
    fn fused_build_matches_materialising_from_stored_next_hops() {
        use crate::policy::PolicyScenario;
        // `Scenario::build` materialises each origin from its live routes
        // on the worker that walked it; an identity sweep point of a pool
        // materialises every origin from the next hops its base point
        // stored. Both must emit the same entries in the same order under
        // every policy scenario and worker split.
        let topology = TopologyConfig::tiny();
        for scenario in [
            PolicyScenario::Classic,
            PolicyScenario::RouteLeak,
            PolicyScenario::PrefixHijack,
            PolicyScenario::SubprefixHijack,
        ] {
            for concurrency in [1usize, 2] {
                let sim = SimConfig::small()
                    .with_scenario(scenario)
                    .with_deployment(0.5)
                    .with_concurrency(concurrency);
                let what = format!("{scenario:?} concurrency={concurrency}");
                let fused = Scenario::build(&topology, &sim);
                let mut pool = ScenarioPool::new(&topology, &sim);
                let stored = pool.scenario_with(|_| {});
                assert!(fused.total_rib_entries() > 0, "{what}: no routes");
                assert_eq!(pool.propagation_reuses(), 2, "{what}: both planes reused");
                assert_same_outputs(&stored, &fused, &what);
            }
        }
    }

    #[test]
    fn rebuild_with_matches_a_from_scratch_build() {
        let topology = TopologyConfig::tiny();
        let mut pool = ScenarioPool::new(&topology, &SimConfig::small());
        // Patches the three sweep bins apply, plus a propagation-relevant
        // one that must force a recompute — all must be byte-identical to
        // building from config.
        type Patch = Box<dyn Fn(&mut SimConfig)>;
        let patches: Vec<(&str, Patch)> = vec![
            (
                "documentation rate",
                Box::new(|s: &mut SimConfig| s.documentation_probability = 0.25),
            ),
            ("collector count", Box::new(|s: &mut SimConfig| s.collector_count = 3)),
            ("leak probability", Box::new(|s: &mut SimConfig| s.leak_probability = 0.2)),
            ("concurrency only", Box::new(|s: &mut SimConfig| s.concurrency = 2)),
            ("identity", Box::new(|_| {})),
        ];
        for (what, patch) in &patches {
            let rebuilt = pool.scenario_with(patch);
            let mut sim = SimConfig::small();
            patch(&mut sim);
            let scratch = Scenario::build(&topology, &sim);
            assert_same_outputs(&rebuilt, &scratch, what);
            assert_eq!(rebuilt.sim_config, sim, "{what}: sim config not patched");
        }
    }

    #[test]
    fn rebuild_with_reuses_propagation_only_when_its_inputs_are_unchanged() {
        let mut pool = ScenarioPool::new(&TopologyConfig::tiny(), &SimConfig::small());
        let counts = |pool: &ScenarioPool| (pool.propagation_reuses(), pool.propagation_computes());
        let _ = pool.scenario_with(|s| s.documentation_probability = 0.3);
        assert_eq!(counts(&pool), (2, 2), "documentation patch must reuse both planes");
        let _ = pool.scenario_with(|s| s.leak_probability = 0.3);
        assert_eq!(counts(&pool), (2, 4), "leak patch must recompute both planes");
        // Relaxation is a v6-only input: v4 outcomes survive the patch.
        let _ = pool.scenario_with(|s| s.v6_reachability_relaxation = false);
        assert_eq!(counts(&pool), (3, 5), "relaxation patch reuses v4 and recomputes v6");
    }

    #[test]
    fn scenario_pool_counts_reuse_and_reproduces_builds() {
        let topology = TopologyConfig::tiny();
        let mut pool = ScenarioPool::new(&topology, &SimConfig::small());
        assert_eq!(pool.propagation_computes(), 2, "the base build propagates both planes");
        assert_eq!(pool.propagation_reuses(), 0);
        for rate in [0.1, 0.5, 1.0] {
            let pooled = pool.scenario_with(|s| s.documentation_probability = rate);
            let mut sim = SimConfig::small();
            sim.documentation_probability = rate;
            let scratch = Scenario::build(&topology, &sim);
            assert_same_outputs(&pooled, &scratch, "pooled sweep point");
        }
        assert_eq!(pool.propagation_reuses(), 6, "3 sweep points × 2 planes reused");
        assert_eq!(pool.propagation_computes(), 2, "no sweep point re-propagated");
        let _ = pool.scenario_with(|s| s.leak_probability = 0.5);
        assert_eq!(pool.propagation_computes(), 4, "a leak patch re-propagates both planes");
    }

    #[test]
    #[should_panic(expected = "invalid simulation configuration")]
    fn rebuild_with_rejects_invalid_patches() {
        let mut pool = ScenarioPool::new(&TopologyConfig::tiny(), &SimConfig::small());
        let _ = pool.scenario_with(|s| s.collector_count = 0);
    }

    #[test]
    fn v6_relaxation_produces_paths_where_strict_would_not() {
        // Build the same truth twice with and without relaxation and verify
        // the relaxed scenario sees at least as many IPv6 routes.
        let truth = topogen::generate(&TopologyConfig::tiny());
        let mut strict_cfg = SimConfig::small();
        strict_cfg.v6_reachability_relaxation = false;
        strict_cfg.leak_probability = 0.0;
        let mut relaxed_cfg = strict_cfg.clone();
        relaxed_cfg.v6_reachability_relaxation = true;

        let strict = Scenario::build_from_truth(truth.clone(), TopologyConfig::tiny(), &strict_cfg);
        let relaxed = Scenario::build_from_truth(truth, TopologyConfig::tiny(), &relaxed_cfg);
        let strict_v6 = strict.merged_snapshot().plane_entries(IpVersion::V6).count();
        let relaxed_v6 = relaxed.merged_snapshot().plane_entries(IpVersion::V6).count();
        assert!(relaxed_v6 >= strict_v6);
    }
}
