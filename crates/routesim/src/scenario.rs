//! End-to-end scenario assembly: topology → policies → propagation →
//! collector RIBs → IRR registry → MRT files.

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
use crate::propagate::{map_origins, PropagationOptions};
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
        let truth = topogen::generate(topology_config);
        Self::build_from_truth(truth, topology_config.clone(), sim_config)
    }

    /// Build a scenario on an existing ground truth (used by fixtures and
    /// ablations that reuse one topology under several measurement setups).
    /// Each plane is propagated afresh and each origin's RIB entries are
    /// materialised on the worker right after its walk, so the build never
    /// holds a plane of routes.
    pub fn build_from_truth(
        mut truth: GroundTruth,
        topology_config: TopologyConfig,
        sim_config: &SimConfig,
    ) -> Scenario {
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

        for plane in IpVersion::BOTH {
            let materialiser =
                PlaneMaterialiser::new(&truth.graph, &policies, &collectors, sim_config, plane);
            // Batches come back in origin order, reproducing the
            // sequential entry sequence exactly.
            for batch in Self::propagate_plane(&truth, sim_config, plane, &materialiser) {
                for (collector_idx, entry) in batch {
                    snapshots[collector_idx].push(entry);
                }
            }
        }

        Scenario {
            truth,
            policies,
            registry,
            collectors,
            snapshots,
            topology_config,
            sim_config: sim_config.clone(),
        }
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
        materialiser: &PlaneMaterialiser<'_>,
    ) -> Vec<OriginEntries> {
        let graph = &truth.graph;
        let origins = plane_origins(graph, sim_config, plane);
        let options = propagation_options(sim_config, plane);
        let workers = sim_config.effective_concurrency();
        map_origins(graph, &origins, plane, &options, workers, |outcome| {
            materialiser.origin_entries(outcome.origin, |feeder| outcome.path(graph, feeder))
        })
    }

    /// Pool every collector's snapshot into one view, as the paper pools
    /// RouteViews and RIS, on `concurrency` workers (`0` = all cores,
    /// `1` = sequential). Per-collector entry cloning is sharded; the
    /// pooled entry order — collector order, then each collector's own
    /// order — is identical at every worker count.
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
            full.pooled_snapshot(1).entries.iter().map(|e| e.prefix).collect();
        for entry in &sampled.pooled_snapshot(1).entries {
            assert!(full_prefixes.contains(&entry.prefix));
        }
    }

    #[test]
    fn scenario_builds_and_has_routes_on_both_planes() {
        let s = small_scenario();
        assert!(s.truth.graph.is_frozen(), "propagation walks the CSR mirror");
        assert_eq!(s.snapshots.len(), s.collectors.len());
        assert!(s.total_rib_entries() > 0);
        let merged = s.pooled_snapshot(1);
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
        use crate::policy::PolicyScenario;
        // Every policy scenario, with half the ASes deploying its defence,
        // so the hijack and leak walks are split across workers too.
        let topology = TopologyConfig::tiny();
        for scenario in [
            PolicyScenario::Classic,
            PolicyScenario::RouteLeak,
            PolicyScenario::PrefixHijack,
            PolicyScenario::SubprefixHijack,
        ] {
            let sim = SimConfig::small().with_scenario(scenario).with_deployment(0.5);
            let sequential = Scenario::build(&topology, &sim.clone().with_concurrency(1));
            assert!(sequential.total_rib_entries() > 0, "{scenario:?}: no routes");
            for workers in [0usize, 2, 4] {
                let what = format!("{scenario:?} workers={workers}");
                let parallel = Scenario::build(&topology, &sim.clone().with_concurrency(workers));
                assert_same_outputs(&parallel, &sequential, &what);
                // Pooling order is independent of the pooling worker count too.
                assert_eq!(
                    parallel.pooled_snapshot(workers),
                    sequential.pooled_snapshot(1),
                    "{what}"
                );
            }
        }
    }

    #[test]
    fn scenario_is_deterministic() {
        let a = small_scenario();
        let b = small_scenario();
        assert_eq!(a.total_rib_entries(), b.total_rib_entries());
        let ma = a.pooled_snapshot(1);
        let mb = b.pooled_snapshot(1);
        assert_eq!(ma, mb);
        assert_eq!(a.registry, b.registry);
    }

    #[test]
    fn paths_in_ribs_are_loop_free_and_end_at_the_origin_prefix_owner() {
        let s = small_scenario();
        for entry in &s.pooled_snapshot(1).entries {
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
        for entry in &s.pooled_snapshot(1).entries {
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
        for entry in &s.pooled_snapshot(1).entries {
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
        for entry in &s.pooled_snapshot(1).entries {
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
        let strict_v6 = strict.pooled_snapshot(1).plane_entries(IpVersion::V6).count();
        let relaxed_v6 = relaxed.pooled_snapshot(1).plane_entries(IpVersion::V6).count();
        assert!(relaxed_v6 >= strict_v6);
    }
}
