//! Customer-tree impact analysis (Figure 2 of the paper).
//!
//! The experiment starts from a *misinferred* IPv6 annotation (what a
//! plane-blind baseline produces), ranks the detected hybrid links by
//! their visibility in IPv6 paths, and corrects them one by one with the
//! community-derived relationship. After each correction it recomputes
//! the average shortest valley-free path length and the diameter over the
//! union of IPv6 customer trees. The paper reports the average falling
//! from 3.8 to 2.23 hops and the diameter from 11 to 7 as the 20 most
//! visible hybrid links are corrected.
//!
//! The sweep is the most expensive part of the pipeline (one valley-free
//! BFS per union member per correction step), so it runs on a two-tier
//! skip/delta engine on top of the workspace's sharded execution layer:
//!
//! 1. **Skip tier** — the [`SweepCache`] memo: a source whose valley-free
//!    reachable set touches neither endpoint of the corrected link
//!    provably keeps the same distance map, so its metrics are reused
//!    without touching the BFS state at all.
//! 2. **Delta tier** — sources that *do* touch the link keep a reusable
//!    [`asgraph::delta::DistanceMap`] and repair it incrementally
//!    (frontier re-expansion over the affected region, with a proven
//!    fallback to a full BFS when the delta cannot be bounded) instead of
//!    recomputing from scratch.
//!
//! Per-source work is striped across workers with [`routesim::shard_map`]
//! / [`routesim::shard_map_owned`]. Whatever the worker count and removal
//! policy, the produced [`ImpactCurve`] is byte-identical to recomputing
//! every source from scratch at every step (distance maps are a unique
//! fixed point and all accumulation is integer arithmetic combined in
//! source order). `tests/properties.rs` checks the engine against such a
//! memo-free oracle on random graphs.

use std::fmt;

use serde::{Deserialize, Serialize};

use asgraph::customer_tree::{customer_tree_union, tree_union_metrics, TreeMetrics};
use asgraph::delta::{DeltaOutcome, DistanceMap, EdgeCorrection, RemovalPolicy};
use asgraph::AsGraph;
use bgp_types::{Asn, IpVersion, Relationship};
use routesim::{effective_concurrency, shard_map, shard_map_owned};

use crate::hybrid::HybridFinding;

/// One point of the Figure 2 curve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CorrectionStep {
    /// How many hybrid links have been corrected (0 = baseline).
    pub corrected: usize,
    /// The link corrected at this step, if any.
    pub link: Option<(Asn, Asn)>,
    /// Average shortest valley-free path length over the tree union.
    pub avg_path_length: f64,
    /// Diameter of the shortest valley-free paths over the tree union.
    pub diameter: u32,
    /// Fraction of ordered union pairs that are valley-free reachable.
    pub reachability: f64,
}

/// The full correction curve.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ImpactCurve {
    /// The per-step metrics, starting with the uncorrected baseline.
    pub steps: Vec<CorrectionStep>,
}

impl ImpactCurve {
    /// The baseline (0 corrections) step.
    pub fn baseline(&self) -> Option<&CorrectionStep> {
        self.steps.first()
    }

    /// The final (all corrections applied) step.
    pub fn r#final(&self) -> Option<&CorrectionStep> {
        self.steps.last()
    }

    /// Change in average path length from baseline to final. An empty
    /// curve (no steps at all) and a single-step curve (baseline only)
    /// both report `0.0`.
    pub fn avg_path_delta(&self) -> f64 {
        match (self.baseline(), self.r#final()) {
            (Some(b), Some(f)) => f.avg_path_length - b.avg_path_length,
            _ => 0.0,
        }
    }

    /// Change in diameter from baseline to final. An empty curve and a
    /// single-step curve both report `0`.
    pub fn diameter_delta(&self) -> i64 {
        match (self.baseline(), self.r#final()) {
            (Some(b), Some(f)) => i64::from(f.diameter) - i64::from(b.diameter),
            _ => 0,
        }
    }
}

/// Build the *plane-blind* annotation that existing ToR datasets effectively
/// ship: one relationship per link, applied to both planes. For every link
/// observed in `data_graph`, the IPv4 relationship inferred from communities
/// is used when available (that is what the historical, IPv4-dominated
/// datasets encode), falling back to the plane-blind baseline heuristic.
/// On hybrid links this is precisely the misinference the paper corrects.
pub fn plane_blind_annotation(
    data_graph: &AsGraph,
    inference: &crate::communities::CommunityInference,
    baseline: &crate::baselines::BaselineInference,
) -> AsGraph {
    plane_blind_annotation_with(data_graph, inference, baseline, 1)
}

/// [`plane_blind_annotation`] with an explicit worker count (`0` = all
/// cores, `1` = sequential): the per-link relationship lookups are striped
/// across workers and applied in edge order, so the annotated graph is
/// identical whatever the worker count.
pub fn plane_blind_annotation_with(
    data_graph: &AsGraph,
    inference: &crate::communities::CommunityInference,
    baseline: &crate::baselines::BaselineInference,
    concurrency: usize,
) -> AsGraph {
    let workers = effective_concurrency(concurrency);
    let mut graph = data_graph.clone();
    let edges: Vec<_> = data_graph.edges().collect();
    let rels: Vec<Option<Relationship>> = shard_map(&edges, workers, |edge| {
        inference
            .relationship(edge.a, edge.b, IpVersion::V4)
            .or_else(|| inference.relationship(edge.a, edge.b, IpVersion::V6))
            .or_else(|| baseline.relationship(edge.a, edge.b))
    });
    for (edge, rel) in edges.iter().zip(rels) {
        if let Some(rel) = rel {
            for plane in IpVersion::BOTH {
                if edge.present(plane) {
                    graph.annotate(edge.a, edge.b, plane, rel);
                }
            }
        }
    }
    graph
}

/// Options for the correction sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ImpactOptions {
    /// How many of the most-visible hybrid links to correct.
    pub top_k: usize,
    /// Optional cap on the number of BFS sources used for the tree-union
    /// metrics (see [`tree_union_metrics`]); `None` = exact computation.
    pub source_cap: Option<usize>,
}

impl Default for ImpactOptions {
    fn default() -> Self {
        ImpactOptions { top_k: 20, source_cap: None }
    }
}

/// Execution options for the impact subsystem: worker threads and the
/// removal policy of the delta tier. Neither affects the output — the
/// curve is byte-identical at every setting; they only trade wall-clock
/// time. The default is all cores with the conservative rebuild fallback.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SweepOptions {
    /// Worker threads for the per-source BFS work: `0` uses all available
    /// parallelism, `1` is the sequential path.
    pub concurrency: usize,
    /// Repair load-bearing removals in place
    /// ([`asgraph::delta::RemovalPolicy::Repair`]) instead of falling back
    /// to a full BFS. Defaults to off (the conservative historical
    /// fallback), which is what every experiment binary runs; `true`
    /// stays only as a test reference the determinism suite and the
    /// proptests pin against the default.
    pub removal_repair: bool,
}

impl SweepOptions {
    /// Options pinned to `concurrency` worker threads (removal repair
    /// stays on its default).
    pub fn with_concurrency(concurrency: usize) -> Self {
        SweepOptions { concurrency, ..SweepOptions::default() }
    }

    /// These options with in-place removal repair switched on or off.
    pub fn with_removal_repair(self, removal_repair: bool) -> Self {
        SweepOptions { removal_repair, ..self }
    }

    /// The policy the delta tier hands to
    /// [`asgraph::delta::DistanceMap::apply_correction_with`].
    pub fn removal_policy(&self) -> RemovalPolicy {
        if self.removal_repair {
            RemovalPolicy::Repair
        } else {
            RemovalPolicy::Rebuild
        }
    }

    /// The worker count these options resolve to (`0` = all cores).
    pub fn workers(&self) -> usize {
        effective_concurrency(self.concurrency)
    }
}

/// The metrics one BFS source contributes to a [`CorrectionStep`]. All
/// fields are integers, so combining partials is order-independent and the
/// parallel sweep reproduces the sequential accumulation bit for bit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct SourcePartial {
    sum: u64,
    count: u64,
    diameter: u32,
    reachable_now: u64,
    total_pairs: u64,
}

/// Per-source memo: the source's repairable distance map (per-phase
/// labels) and the partial metrics it implied at the last step.
#[derive(Debug, Clone, Default)]
struct SourceState {
    partial: SourcePartial,
    dist: DistanceMap,
}

impl SourceState {
    /// One full valley-free BFS from `src` plus the metric accumulation
    /// over the union pairs. At the baseline step every reachable pair
    /// counts: the source's own map is its baseline-reachable row.
    fn compute(graph: &AsGraph, src: Asn, in_union: &[bool]) -> SourceState {
        let dist = DistanceMap::compute(graph, src, IpVersion::V6);
        let partial = accumulate_partial(graph, &dist, in_union, None);
        SourceState { partial, dist }
    }

    /// Repair this source's distance map after a correction (incremental
    /// when the delta is bounded, full BFS otherwise) and refresh the
    /// partial metrics when anything moved.
    fn repair(
        &mut self,
        graph: &AsGraph,
        correction: &EdgeCorrection,
        in_union: &[bool],
        baseline_row: &[bool],
        policy: RemovalPolicy,
    ) -> DeltaOutcome {
        let outcome = self.dist.apply_correction_with(graph, correction, policy);
        if outcome != DeltaOutcome::Unchanged {
            self.partial = accumulate_partial(graph, &self.dist, in_union, Some(baseline_row));
        }
        outcome
    }
}

/// Fold one source's distance map into its metric contribution. Pure
/// integer accumulation over the union pairs, so it is exactly as
/// order-stable as the distances themselves.
fn accumulate_partial(
    graph: &AsGraph,
    dist: &DistanceMap,
    in_union: &[bool],
    baseline_row: Option<&[bool]>,
) -> SourcePartial {
    let src_idx = graph.node(dist.root()).map(|n| n.index()).unwrap_or(usize::MAX);
    let mut partial = SourcePartial::default();
    for (idx, d) in dist.distances().iter().enumerate() {
        if idx == src_idx || !in_union.get(idx).copied().unwrap_or(false) {
            continue;
        }
        partial.total_pairs += 1;
        if d.is_some() {
            partial.reachable_now += 1;
        }
        let in_baseline = match baseline_row {
            Some(row) => row.get(idx).copied().unwrap_or(false),
            None => true,
        };
        if in_baseline {
            if let Some(d) = d {
                partial.sum += u64::from(*d);
                partial.count += 1;
                partial.diameter = partial.diameter.max(*d);
            }
        }
    }
    partial
}

/// Execution statistics of a correction sweep: how much of the per-source
/// work the skip tier memoized away, and how the remainder split between
/// incremental delta repairs and full BFS recomputations. Purely
/// observational — the counters never influence the curve.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SweepStats {
    /// Per-source step computations served from the memo (no BFS state
    /// touched at all).
    pub hits: u64,
    /// Per-source step computations that had to touch the BFS state.
    pub misses: u64,
    /// Misses resolved by the incremental delta engine (bounded frontier
    /// repair, including repairs that proved the map unchanged).
    pub delta_repairs: u64,
    /// Misses that ran a full valley-free BFS (the baseline pass and the
    /// delta engine's proven fallback).
    pub full_rebuilds: u64,
}

impl SweepStats {
    /// Total per-source step computations observed.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of computations served from the memo (0 when unused).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }

    /// Fraction of misses the delta engine absorbed (0 when unused).
    pub fn delta_rate(&self) -> f64 {
        if self.misses == 0 {
            0.0
        } else {
            self.delta_repairs as f64 / self.misses as f64
        }
    }
}

impl fmt::Display for SweepStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.1}% memo hits ({} of {}); {} delta repairs, {} full BFS ({:.1}% of misses \
             incremental)",
            100.0 * self.hit_rate(),
            self.hits,
            self.lookups(),
            self.delta_repairs,
            self.full_rebuilds,
            100.0 * self.delta_rate(),
        )
    }
}

/// Memoized per-source propagation state for the correction sweep — the
/// skip tier of the two-tier engine.
///
/// Correcting the link `a`–`b` can only change the valley-free distance
/// map of a source that could already reach `a` or `b`: any walk that
/// traverses the edge must first arrive at one of its endpoints through
/// unchanged edges. Sources whose reachable set misses both endpoints
/// therefore keep their distance map — and their metric contribution —
/// unchanged, and the cache reuses them instead of re-running the BFS.
/// Sources that do touch the link fall through to the delta tier, which
/// repairs their distance maps in place.
///
/// The cache is working memory for one sweep at a time (its per-source
/// state is rebuilt by every [`correction_sweep_in`] call), but the
/// counters accumulate across calls so repeated sweeps — e.g. the
/// experiment harnesses re-annotating plane after plane — can report
/// aggregate reuse via [`SweepCache::stats`].
#[derive(Debug, Clone, Default)]
pub struct SweepCache {
    states: Vec<SourceState>,
    baseline_rows: Vec<Vec<bool>>,
    stats: SweepStats,
}

impl SweepCache {
    /// An empty cache.
    pub fn new() -> Self {
        SweepCache::default()
    }

    /// The accumulated counters as a reportable snapshot.
    pub fn stats(&self) -> SweepStats {
        self.stats
    }

    /// Drop the per-source state from a previous sweep; counters persist.
    fn reset(&mut self) {
        self.states.clear();
        self.baseline_rows.clear();
    }
}

/// Fold per-source partials (in source order) into one curve step.
fn combine_step(
    partials: impl Iterator<Item = SourcePartial>,
    corrected: usize,
    link: Option<(Asn, Asn)>,
) -> CorrectionStep {
    let mut total = SourcePartial::default();
    for p in partials {
        total.sum += p.sum;
        total.count += p.count;
        total.diameter = total.diameter.max(p.diameter);
        total.reachable_now += p.reachable_now;
        total.total_pairs += p.total_pairs;
    }
    CorrectionStep {
        corrected,
        link,
        avg_path_length: if total.count == 0 { 0.0 } else { total.sum as f64 / total.count as f64 },
        diameter: total.diameter,
        reachability: if total.total_pairs == 0 {
            0.0
        } else {
            total.reachable_now as f64 / total.total_pairs as f64
        },
    }
}

/// Run the correction sweep on the IPv6 plane.
///
/// * `misinferred` — a graph whose IPv6 annotation comes from the
///   plane-blind inference (see [`plane_blind_annotation`]); it is cloned,
///   not modified.
/// * `hybrids` — the detected hybrid links, already sorted by descending
///   IPv6 path visibility (as [`crate::hybrid::HybridReport`] returns them).
///   For each corrected link the IPv6 relationship is replaced with the
///   hybrid finding's IPv6 relationship (the community-derived value).
///
/// As in the paper, the union of customer trees and the pair population
/// are fixed by the *baseline* annotation: `avg_path_length` and
/// `diameter` are computed over the ordered union pairs that were
/// valley-free reachable before any correction, so the curve shows how the
/// corrections shorten those paths (pairs that only become reachable
/// thanks to a correction are reflected in `reachability`, which is
/// measured over all ordered union pairs).
///
/// Per step, the curve folds a fresh valley-free BFS of every source over
/// those pairs; the engine only avoids recomputing what a step provably
/// leaves alone (see the module docs). This entry point runs on one
/// worker; use [`correction_sweep_with`] to pick the worker count — the
/// curve is identical either way.
pub fn correction_sweep(
    misinferred: &AsGraph,
    hybrids: &[HybridFinding],
    options: &ImpactOptions,
) -> ImpactCurve {
    correction_sweep_with(misinferred, hybrids, options, &SweepOptions::with_concurrency(1))
}

/// [`correction_sweep`] with explicit execution options and a fresh
/// throwaway [`SweepCache`].
pub fn correction_sweep_with(
    misinferred: &AsGraph,
    hybrids: &[HybridFinding],
    options: &ImpactOptions,
    sweep: &SweepOptions,
) -> ImpactCurve {
    correction_sweep_in(misinferred, hybrids, options, sweep, &mut SweepCache::new())
}

/// [`correction_sweep`] with explicit execution options and a
/// caller-owned [`SweepCache`], so hit/miss statistics can be inspected
/// (and accumulated across sweeps) afterwards.
pub fn correction_sweep_in(
    misinferred: &AsGraph,
    hybrids: &[HybridFinding],
    options: &ImpactOptions,
    sweep: &SweepOptions,
    cache: &mut SweepCache,
) -> ImpactCurve {
    let workers = sweep.workers();
    let mut graph = misinferred.clone();
    let mut curve = ImpactCurve::default();
    cache.reset();

    // Fix the union, the sources and the baseline-reachable pair set.
    let mut union = customer_tree_union(&graph, IpVersion::V6);
    union.sort();
    if union.len() < 2 {
        // Degenerate graph: fall back to the plain metric so the curve is
        // still well-formed.
        let metrics: TreeMetrics = tree_union_metrics(&graph, IpVersion::V6, options.source_cap);
        curve.steps.push(CorrectionStep {
            corrected: 0,
            link: None,
            avg_path_length: metrics.avg_path_length,
            diameter: metrics.diameter,
            reachability: metrics.reachability(),
        });
        return curve;
    }
    let mut in_union = vec![false; graph.node_count()];
    for asn in &union {
        in_union[graph.node(*asn).unwrap().index()] = true;
    }
    let sources: Vec<Asn> = match options.source_cap {
        Some(cap) if cap < union.len() => union.iter().copied().take(cap).collect(),
        _ => union.clone(),
    };
    let corrections: Vec<&HybridFinding> = hybrids.iter().take(options.top_k).collect();

    // Baseline step: one sharded BFS pass over the sources. Each source's
    // own reachability map doubles as its baseline-reachable row.
    cache.states =
        shard_map(&sources, workers, |&src| SourceState::compute(&graph, src, &in_union));
    cache.baseline_rows = cache
        .states
        .iter()
        .map(|s| s.dist.distances().iter().map(Option::is_some).collect())
        .collect();
    cache.stats.misses += sources.len() as u64;
    cache.stats.full_rebuilds += sources.len() as u64;
    curve.steps.push(combine_step(cache.states.iter().map(|s| s.partial), 0, None));

    // Steps run in order; per step, only the sources whose reachable set
    // touches the corrected link are dirty — everyone else is a skip-tier
    // hit. Dirty sources repair their distance map through the delta
    // engine, striped across the workers, each map moved to its worker
    // and back without cloning.
    let policy = sweep.removal_policy();
    for (i, finding) in corrections.iter().enumerate() {
        let a_idx = graph.node(finding.a).map(|n| n.index());
        let b_idx = graph.node(finding.b).map(|n| n.index());
        let correction = EdgeCorrection::observe(
            &graph,
            finding.a,
            finding.b,
            IpVersion::V6,
            finding.relationships.v6,
        );
        graph.annotate(finding.a, finding.b, IpVersion::V6, finding.relationships.v6);
        let touches = |state: &SourceState, idx: Option<usize>| {
            idx.is_some_and(|i| state.dist.is_reachable(i))
        };
        let dirty: Vec<usize> = (0..sources.len())
            .filter(|&si| touches(&cache.states[si], a_idx) || touches(&cache.states[si], b_idx))
            .collect();
        cache.stats.hits += (sources.len() - dirty.len()) as u64;
        cache.stats.misses += dirty.len() as u64;
        let taken: Vec<(usize, SourceState)> =
            dirty.into_iter().map(|si| (si, std::mem::take(&mut cache.states[si]))).collect();
        let repaired: Vec<(usize, SourceState, DeltaOutcome)> = {
            let graph = &graph;
            let in_union = &in_union;
            let baseline_rows = &cache.baseline_rows;
            let correction = &correction;
            shard_map_owned(taken, workers, move |(si, mut state)| {
                let outcome = state.repair(graph, correction, in_union, &baseline_rows[si], policy);
                (si, state, outcome)
            })
        };
        for (si, state, outcome) in repaired {
            match outcome {
                DeltaOutcome::FullRebuild => cache.stats.full_rebuilds += 1,
                DeltaOutcome::Incremental | DeltaOutcome::Unchanged => {
                    cache.stats.delta_repairs += 1
                }
            }
            cache.states[si] = state;
        }
        curve.steps.push(combine_step(
            cache.states.iter().map(|s| s.partial),
            i + 1,
            Some((finding.a, finding.b)),
        ));
    }
    curve
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_types::RelationshipPair;
    use topogen::HybridClass;

    /// A topology where the 10-20 link is misinferred as p2p on IPv6 while
    /// the community-derived relationship is p2c (10 provides free v6
    /// transit to 20). Stubs hang off both sides, plus a grandparent so
    /// paths must descend through 10.
    fn misinferred_graph() -> AsGraph {
        let mut g = AsGraph::new();
        g.annotate(Asn(10), Asn(20), IpVersion::V6, Relationship::PeerToPeer);
        g.annotate(Asn(10), Asn(20), IpVersion::V4, Relationship::PeerToPeer);
        for (p, c) in [(9, 10), (9, 8), (10, 30), (20, 41), (20, 42), (30, 50)] {
            g.annotate_both(Asn(p), Asn(c), Relationship::ProviderToCustomer);
        }
        g
    }

    fn finding() -> HybridFinding {
        HybridFinding {
            a: Asn(10),
            b: Asn(20),
            relationships: RelationshipPair::new(
                Relationship::PeerToPeer,
                Relationship::ProviderToCustomer,
            ),
            class: HybridClass::PeeringV4TransitV6,
            v6_path_visibility: 10,
        }
    }

    /// A second correction, flipping the 9-8 link to peering on IPv6.
    fn second_finding() -> HybridFinding {
        HybridFinding {
            a: Asn(9),
            b: Asn(8),
            relationships: RelationshipPair::new(
                Relationship::ProviderToCustomer,
                Relationship::PeerToPeer,
            ),
            class: HybridClass::TransitV4PeeringV6,
            v6_path_visibility: 5,
        }
    }

    #[test]
    fn sweep_records_baseline_plus_one_step_per_correction() {
        let curve = correction_sweep(&misinferred_graph(), &[finding()], &ImpactOptions::default());
        assert_eq!(curve.steps.len(), 2);
        assert_eq!(curve.steps[0].corrected, 0);
        assert_eq!(curve.steps[0].link, None);
        assert_eq!(curve.steps[1].corrected, 1);
        assert_eq!(curve.steps[1].link, Some((Asn(10), Asn(20))));
        assert!(curve.baseline().is_some());
        assert!(curve.r#final().is_some());
    }

    #[test]
    fn correcting_the_hybrid_link_improves_reachability() {
        let curve = correction_sweep(&misinferred_graph(), &[finding()], &ImpactOptions::default());
        let baseline = curve.baseline().unwrap();
        let fixed = curve.r#final().unwrap();
        // With 10-20 as p2p, routes that descend from AS9 into AS10 cannot
        // continue into AS20's customers; correcting it to p2c repairs that.
        assert!(fixed.reachability > baseline.reachability);
        // The avg/diameter are computed over the pairs reachable at the
        // baseline, so a correction can only keep them or shorten them.
        assert!(curve.avg_path_delta() <= 0.0);
        assert!(curve.diameter_delta() <= 0);
    }

    #[test]
    fn top_k_limits_the_number_of_corrections() {
        let findings = vec![finding(), finding(), finding()];
        let options = ImpactOptions { top_k: 2, source_cap: None };
        let curve = correction_sweep(&misinferred_graph(), &findings, &options);
        assert_eq!(curve.steps.len(), 3); // baseline + 2
    }

    #[test]
    fn empty_findings_yield_a_flat_single_point_curve() {
        let curve = correction_sweep(&misinferred_graph(), &[], &ImpactOptions::default());
        assert_eq!(curve.steps.len(), 1);
        assert_eq!(curve.avg_path_delta(), 0.0);
        assert_eq!(curve.diameter_delta(), 0);
    }

    #[test]
    fn original_graph_is_not_modified() {
        let graph = misinferred_graph();
        let before = graph.relationship(Asn(10), Asn(20), IpVersion::V6);
        let _ = correction_sweep(&graph, &[finding()], &ImpactOptions::default());
        assert_eq!(graph.relationship(Asn(10), Asn(20), IpVersion::V6), before);
    }

    #[test]
    fn deltas_of_empty_and_single_step_curves_are_zero() {
        // A curve with no steps at all (never produced by the sweep, but
        // representable) reports zero deltas instead of panicking.
        let empty = ImpactCurve::default();
        assert_eq!(empty.avg_path_delta(), 0.0);
        assert_eq!(empty.diameter_delta(), 0);
        assert!(empty.baseline().is_none());
        assert!(empty.r#final().is_none());
        // A single-step curve (baseline only): baseline == final, so both
        // deltas are exactly zero even with non-zero metrics.
        let single = ImpactCurve {
            steps: vec![CorrectionStep {
                corrected: 0,
                link: None,
                avg_path_length: 3.8,
                diameter: 11,
                reachability: 0.9,
            }],
        };
        assert_eq!(single.avg_path_delta(), 0.0);
        assert_eq!(single.diameter_delta(), 0);
    }

    /// One curve point from hand-counted totals: `sum` hops over `count`
    /// baseline-reachable ordered pairs, `reachable` of `pairs` ordered
    /// union pairs reachable now.
    fn point(
        corrected: usize,
        link: Option<(u32, u32)>,
        (sum, count): (u32, u32),
        diameter: u32,
        (reachable, pairs): (u32, u32),
    ) -> CorrectionStep {
        CorrectionStep {
            corrected,
            link: link.map(|(a, b)| (Asn(a), Asn(b))),
            avg_path_length: f64::from(sum) / f64::from(count),
            diameter,
            reachability: f64::from(reachable) / f64::from(pairs),
        }
    }

    /// The curve of [`misinferred_graph`] under `[finding(), second_finding()]`,
    /// counted by hand. All 8 ASes are in the union (56 ordered pairs). At
    /// the baseline 44 pairs are reachable, summing to 96 hops with a
    /// longest path of 4 (8 → 9 → 10 → 30 → 50); 8 and 9 cannot reach 20's
    /// side because a peer link cannot follow a descent. Making 10-20 p2c
    /// turns the plane into one tree: every pair becomes reachable, and
    /// the 44 baseline pairs keep their lengths. Making 9-8 p2p keeps every
    /// distance (8 still sits one hop from 9).
    fn hand_computed_curve() -> Vec<CorrectionStep> {
        vec![
            point(0, None, (96, 44), 4, (44, 56)),
            point(1, Some((10, 20)), (96, 44), 4, (56, 56)),
            point(2, Some((9, 8)), (96, 44), 4, (56, 56)),
        ]
    }

    #[test]
    fn sweep_matches_the_hand_computed_curve_at_any_worker_count() {
        let graph = misinferred_graph();
        let findings = [finding(), second_finding()];
        let options = ImpactOptions::default();
        for concurrency in [1usize, 2, 4] {
            for removal_repair in [false, true] {
                let sweep = SweepOptions { concurrency, removal_repair };
                let curve = correction_sweep_with(&graph, &findings, &options, &sweep);
                assert_eq!(
                    curve.steps,
                    hand_computed_curve(),
                    "concurrency={concurrency} removal_repair={removal_repair} diverged"
                );
            }
        }
    }

    #[test]
    fn cache_reuses_sources_in_untouched_components() {
        // Two disconnected provider chains; all corrections stay in the
        // first component, so every source in the second component is a
        // provable cache hit at every step.
        let mut g = misinferred_graph();
        for (p, c) in [(100, 110), (100, 120), (110, 130)] {
            g.annotate_both(Asn(p), Asn(c), Relationship::ProviderToCustomer);
        }
        let findings = [finding(), second_finding()];
        let mut cache = SweepCache::new();
        let cached = correction_sweep_in(
            &g,
            &findings,
            &ImpactOptions::default(),
            &SweepOptions::with_concurrency(1),
            &mut cache,
        );
        let stats = cache.stats();
        assert!(stats.hits > 0, "disconnected sources should be served from the memo");
        assert!(stats.misses > 0);
        assert!(stats.hit_rate() > 0.0 && stats.hit_rate() < 1.0);
        assert_eq!(stats.lookups(), stats.hits + stats.misses);
        // The second chain adds 4 union members (132 ordered pairs) and 12
        // reachable pairs of its own, 20 hops in total, never crossing
        // over.
        let expected = vec![
            point(0, None, (116, 56), 4, (56, 132)),
            point(1, Some((10, 20)), (116, 56), 4, (68, 132)),
            point(2, Some((9, 8)), (116, 56), 4, (68, 132)),
        ];
        assert_eq!(cached.steps, expected, "memoization changed the curve");
    }

    #[test]
    fn cache_counters_accumulate_across_sweeps() {
        let g = misinferred_graph();
        let findings = [finding()];
        let mut cache = SweepCache::new();
        let sweep = SweepOptions::with_concurrency(1);
        let _ = correction_sweep_in(&g, &findings, &ImpactOptions::default(), &sweep, &mut cache);
        let first = cache.stats().lookups();
        assert!(first > 0);
        let _ = correction_sweep_in(&g, &findings, &ImpactOptions::default(), &sweep, &mut cache);
        assert_eq!(
            cache.stats().lookups(),
            2 * first,
            "second sweep should add the same lookup count"
        );
    }

    #[test]
    fn plane_blind_annotation_is_identical_at_any_worker_count() {
        // plane_blind_annotation_with must not depend on the worker count;
        // exercise it through an empty inference/baseline pair (the lookup
        // closure is still evaluated per edge).
        let g = misinferred_graph();
        let inference = crate::communities::CommunityInference::default();
        let baseline = crate::baselines::BaselineInference::default();
        let sequential = plane_blind_annotation_with(&g, &inference, &baseline, 1);
        for workers in [2usize, 4] {
            let parallel = plane_blind_annotation_with(&g, &inference, &baseline, workers);
            for edge in sequential.edges() {
                for plane in IpVersion::BOTH {
                    assert_eq!(
                        parallel.relationship(edge.a, edge.b, plane),
                        sequential.relationship(edge.a, edge.b, plane),
                        "workers={workers} diverged on {}-{}",
                        edge.a,
                        edge.b
                    );
                }
            }
        }
    }

    #[test]
    fn sweep_options_resolve_and_default_sensibly() {
        assert_eq!(SweepOptions::default().concurrency, 0, "all cores by default");
        assert!(SweepOptions::default().workers() >= 1);
        assert_eq!(SweepOptions::with_concurrency(1).workers(), 1);
        assert_eq!(SweepOptions::with_concurrency(3).workers(), 3);
    }

    #[test]
    fn delta_engine_absorbs_misses_and_counters_add_up() {
        let g = misinferred_graph();
        let findings = [finding(), second_finding()];
        let mut cache = SweepCache::new();
        let curve = correction_sweep_in(
            &g,
            &findings,
            &ImpactOptions::default(),
            &SweepOptions::with_concurrency(1),
            &mut cache,
        );
        let stats = cache.stats();
        assert_eq!(stats.misses, stats.delta_repairs + stats.full_rebuilds);
        assert_eq!(stats.lookups(), stats.hits + stats.misses);
        assert!(stats.delta_repairs > 0, "dirty sources should go through the delta tier");
        assert!(stats.full_rebuilds > 0, "the baseline pass always runs full BFS computations");
        assert!(stats.delta_rate() > 0.0);
        // The rendered form mentions both sides of the split.
        let text = stats.to_string();
        assert!(text.contains("delta repairs"));
        assert!(text.contains("full BFS"));
        assert_eq!(curve.steps, hand_computed_curve(), "delta engine changed the curve");
    }

    /// A topology whose correction is removal-heavy: 4 sits at distance 2
    /// below 2 and at distance 3 behind the 3 → 5 detour, and the sweep
    /// flips 2-4 from p2c to c2p — the orphaned labels have no
    /// same-distance support, so the default policy must rebuild.
    fn removal_heavy_graph() -> AsGraph {
        let mut g = AsGraph::new();
        for (p, c) in [(1, 2), (2, 4), (1, 3), (3, 5), (5, 4)] {
            g.annotate_both(Asn(p), Asn(c), Relationship::ProviderToCustomer);
        }
        g
    }

    fn removal_finding() -> HybridFinding {
        HybridFinding {
            a: Asn(2),
            b: Asn(4),
            relationships: RelationshipPair::new(
                Relationship::ProviderToCustomer,
                Relationship::CustomerToProvider,
            ),
            class: HybridClass::TransitV4PeeringV6,
            v6_path_visibility: 3,
        }
    }

    #[test]
    fn removal_repair_reduces_full_rebuilds_without_moving_the_curve() {
        let g = removal_heavy_graph();
        let findings = [removal_finding()];
        let options = ImpactOptions::default();
        let mut fallback_cache = SweepCache::new();
        let fallback = correction_sweep_in(
            &g,
            &findings,
            &options,
            &SweepOptions::with_concurrency(1),
            &mut fallback_cache,
        );
        let mut repair_cache = SweepCache::new();
        let repaired = correction_sweep_in(
            &g,
            &findings,
            &options,
            &SweepOptions::with_concurrency(1).with_removal_repair(true),
            &mut repair_cache,
        );
        let (fallback_stats, repair_stats) = (fallback_cache.stats(), repair_cache.stats());
        assert!(
            repair_stats.full_rebuilds < fallback_stats.full_rebuilds,
            "removal repair should absorb the rebuild fallbacks ({} vs {})",
            repair_stats.full_rebuilds,
            fallback_stats.full_rebuilds,
        );
        assert!(repair_stats.delta_repairs > fallback_stats.delta_repairs);
        assert_eq!(repaired.steps, fallback.steps, "removal repair changed the curve");
        // Counted by hand: all 20 ordered pairs of the 5 ASes stay
        // reachable, 32 hops in total, longest 3, before and after the
        // flip (4 → 1 grows to 3 hops via 5 and 3; 2 → 5 shrinks to 2 via 4).
        let expected = vec![
            point(0, None, (32, 20), 3, (20, 20)),
            point(1, Some((2, 4)), (32, 20), 3, (20, 20)),
        ];
        assert_eq!(repaired.steps, expected, "removal repair diverged from the counted curve");
    }

    #[test]
    fn sweep_options_map_the_removal_knob_onto_the_delta_policy() {
        assert_eq!(SweepOptions::default().removal_policy(), RemovalPolicy::Rebuild);
        assert!(!SweepOptions::default().removal_repair, "conservative fallback is the default");
        let opts = SweepOptions::with_concurrency(3).with_removal_repair(true);
        assert_eq!(opts.removal_policy(), RemovalPolicy::Repair);
        assert_eq!(opts.concurrency, 3, "the builder leaves the worker count alone");
        assert!(!SweepOptions::with_concurrency(3).removal_repair);
    }

    #[test]
    fn empty_stats_report_zero_rates() {
        let stats = SweepStats::default();
        assert_eq!(stats.hit_rate(), 0.0);
        assert_eq!(stats.delta_rate(), 0.0);
        assert_eq!(stats.lookups(), 0);
        // Serialization round trip (the report embeds these).
        let json = serde_json::to_string(&stats).unwrap();
        let back: SweepStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back, stats);
    }
}
