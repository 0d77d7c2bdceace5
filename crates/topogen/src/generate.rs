//! The topology generation algorithm.

use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use bgp_types::{Asn, FastMap, IpVersion, Relationship, RelationshipPair};

use crate::config::TopologyConfig;
use crate::ground_truth::{GroundTruth, HybridClass, HybridLink, PlannedTier};

/// Generate a topology from a configuration.
///
/// # Panics
///
/// Panics if the configuration fails [`TopologyConfig::validate`]; the
/// experiment harness validates configurations before calling this, so a
/// panic here always indicates a programming error.
pub fn generate(config: &TopologyConfig) -> GroundTruth {
    config.validate().expect("invalid topology configuration");
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let (mut truth, degree) = base_topology(config, &mut rng);
    inject_hybrids(config, &mut truth, &degree, &mut rng);
    truth
}

/// Everything before hybrid injection: the tiered base graph on both
/// planes and the IPv6-only peering, plus the running IPv4 degree that
/// the hybrid pass weights its candidates by.
fn base_topology(
    config: &TopologyConfig,
    rng: &mut ChaCha8Rng,
) -> (GroundTruth, FastMap<Asn, usize>) {
    let mut truth = GroundTruth { seed: config.seed, ..Default::default() };

    // ---- ASN allocation -------------------------------------------------
    let mut next_asn = config.first_asn;
    let mut allocate = |count: usize| -> Vec<Asn> {
        let block: Vec<Asn> = (0..count).map(|i| Asn(next_asn + i as u32)).collect();
        next_asn += count as u32;
        block
    };
    let tier1 = allocate(config.tier1_count);
    let tier2 = allocate(config.tier2_count);
    let stubs = allocate(config.stub_count);

    for &asn in &tier1 {
        truth.tiers.insert(asn, PlannedTier::Tier1);
    }
    for &asn in &tier2 {
        truth.tiers.insert(asn, PlannedTier::Tier2);
    }
    for &asn in &stubs {
        truth.tiers.insert(asn, PlannedTier::Stub);
    }

    // ---- IPv6 adoption --------------------------------------------------
    for &asn in &tier1 {
        truth.ipv6_capable.insert(asn, true);
    }
    for &asn in &tier2 {
        truth.ipv6_capable.insert(asn, rng.gen_bool(config.tier2_ipv6_adoption));
    }
    for &asn in &stubs {
        truth.ipv6_capable.insert(asn, rng.gen_bool(config.stub_ipv6_adoption));
    }

    // All base relationships are recorded here as (a, b, rel a->b) and
    // materialised into the graph afterwards, so the hybrid pass can
    // rewrite a selection of them per plane.
    let mut base_links: Vec<(Asn, Asn, Relationship)> = Vec::new();
    // Running IPv4 degree, used for preferential attachment — the
    // map serves the later degree *reads* (v6-only peering, hybrid
    // weighting), the per-pool Fenwick samplers serve the weighted
    // provider *draws*.
    let mut degree: FastMap<Asn, usize> = FastMap::default();
    let mut tier1_sampler = DegreeSampler::new(&tier1);
    let mut tier2_sampler = DegreeSampler::new(&tier2);
    fn bump(degree: &mut FastMap<Asn, usize>, samplers: [&mut DegreeSampler; 2], a: Asn, b: Asn) {
        for asn in [a, b] {
            *degree.entry(asn).or_insert(0) += 1;
        }
        for sampler in samplers {
            sampler.bump(a);
            sampler.bump(b);
        }
    }

    // ---- Tier-1 clique ---------------------------------------------------
    for i in 0..tier1.len() {
        for j in (i + 1)..tier1.len() {
            base_links.push((tier1[i], tier1[j], Relationship::PeerToPeer));
            bump(&mut degree, [&mut tier1_sampler, &mut tier2_sampler], tier1[i], tier1[j]);
        }
    }

    // ---- Tier-2 transit --------------------------------------------------
    for &asn in &tier2 {
        let providers = rng.gen_range(config.tier2_providers.0..=config.tier2_providers.1);
        let chosen = tier1_sampler.pick(providers, rng);
        for provider in chosen {
            base_links.push((provider, asn, Relationship::ProviderToCustomer));
            bump(&mut degree, [&mut tier1_sampler, &mut tier2_sampler], provider, asn);
        }
    }

    // ---- Tier-2 peering mesh ----------------------------------------------
    if tier2.len() > 1 {
        let expected = (config.tier2_peering_degree * tier2.len() as f64 / 2.0).round() as usize;
        for _ in 0..expected {
            let a = tier2[rng.gen_range(0..tier2.len())];
            let b = tier2[rng.gen_range(0..tier2.len())];
            if a != b {
                base_links.push((a, b, Relationship::PeerToPeer));
                bump(&mut degree, [&mut tier1_sampler, &mut tier2_sampler], a, b);
            }
        }
    }

    // ---- Stubs -------------------------------------------------------------
    for &asn in &stubs {
        let providers = rng.gen_range(config.stub_providers.0..=config.stub_providers.1);
        for _ in 0..providers {
            let provider = if rng.gen_bool(config.stub_direct_tier1_probability) {
                *tier1_sampler.pick(1, rng).first().unwrap()
            } else {
                *tier2_sampler.pick(1, rng).first().unwrap()
            };
            base_links.push((provider, asn, Relationship::ProviderToCustomer));
            bump(&mut degree, [&mut tier1_sampler, &mut tier2_sampler], provider, asn);
        }
    }

    // ---- Stub IXP peering ---------------------------------------------------
    if stubs.len() > 1 {
        let expected = (config.stub_peering_degree * stubs.len() as f64 / 2.0).round() as usize;
        for _ in 0..expected {
            let a = stubs[rng.gen_range(0..stubs.len())];
            let b = stubs[rng.gen_range(0..stubs.len())];
            if a != b {
                base_links.push((a, b, Relationship::PeerToPeer));
                bump(&mut degree, [&mut tier1_sampler, &mut tier2_sampler], a, b);
            }
        }
    }

    // ---- Sibling rewrite -----------------------------------------------------
    // A small fraction of provider links become sibling links (organisations
    // running several ASes).
    for link in base_links.iter_mut() {
        if link.2 == Relationship::ProviderToCustomer && rng.gen_bool(config.sibling_fraction) {
            link.2 = Relationship::SiblingToSibling;
        }
    }

    // ---- Materialise the base (IPv4 everywhere, IPv6 where active) -----------
    for &(a, b, rel) in &base_links {
        truth.graph.annotate(a, b, IpVersion::V4, rel);
        let both_capable = truth.ipv6_capable[&a] && truth.ipv6_capable[&b];
        if both_capable && rng.gen_bool(config.link_ipv6_activation) {
            truth.graph.annotate(a, b, IpVersion::V6, rel);
        }
    }

    // ---- IPv6-only peering links ----------------------------------------------
    let v6_ases: Vec<Asn> =
        truth.ipv6_capable.iter().filter(|(_, capable)| **capable).map(|(asn, _)| *asn).collect();
    let mut v6_ases = v6_ases;
    v6_ases.sort();
    if v6_ases.len() > 1 {
        let expected =
            (config.v6_only_peering_degree * v6_ases.len() as f64 / 2.0).round() as usize;
        for _ in 0..expected {
            let a = v6_ases[rng.gen_range(0..v6_ases.len())];
            let b = v6_ases[rng.gen_range(0..v6_ases.len())];
            if a == b || truth.graph.has_link(a, b, IpVersion::V4) {
                continue;
            }
            // Relaxed v6 policies: mostly peering, occasionally free transit
            // from the better-connected side.
            let rel = if rng.gen_bool(0.85) {
                Relationship::PeerToPeer
            } else if degree.get(&a).unwrap_or(&0) >= degree.get(&b).unwrap_or(&0) {
                Relationship::ProviderToCustomer
            } else {
                Relationship::CustomerToProvider
            };
            truth.graph.annotate(a, b, IpVersion::V6, rel);
        }
    }

    (truth, degree)
}

/// Preferential-attachment sampler over a fixed pool: slot `i` carries
/// weight `degree(pool[i]) + 1`, maintained in a Fenwick (binary indexed)
/// tree so one weighted draw costs `O(log n)` instead of the `O(n)`
/// sum-and-prefix-scan the original `pick_weighted` paid per attempt —
/// the difference between minutes and sub-second topology generation at
/// the 100k-AS scale, where every stub scans the 15k-member tier-2 pool.
///
/// Draw-for-draw identical to the linear sum-and-prefix-scan it
/// replaced: each attempt takes the same single `gen_range(0..total)`,
/// and the tree descent selects exactly the slot the scan selected (the
/// one whose cumulative-weight interval contains the target), so
/// pre-existing topologies are byte-identical. The weights are integers,
/// so the tree's sums are exact and no draw needs the scan itself.
struct DegreeSampler {
    pool: Vec<Asn>,
    slot: FastMap<Asn, usize>,
    /// One-based Fenwick tree over the per-slot weights.
    tree: Vec<usize>,
    total: usize,
}

impl DegreeSampler {
    fn new(pool: &[Asn]) -> Self {
        let mut sampler = DegreeSampler {
            pool: pool.to_vec(),
            slot: pool.iter().enumerate().map(|(i, &a)| (a, i)).collect(),
            tree: vec![0; pool.len() + 1],
            total: 0,
        };
        for i in 0..pool.len() {
            // Every AS starts at degree 0, i.e. weight 1.
            sampler.add(i, 1);
        }
        sampler
    }

    fn add(&mut self, index: usize, delta: usize) {
        self.total += delta;
        let mut i = index + 1;
        while i < self.tree.len() {
            self.tree[i] += delta;
            i += i & i.wrapping_neg();
        }
    }

    /// Register one more link endpoint at `asn` (a no-op for ASes outside
    /// this sampler's pool).
    fn bump(&mut self, asn: Asn) {
        if let Some(&index) = self.slot.get(&asn) {
            self.add(index, 1);
        }
    }

    /// The slot whose cumulative-weight interval contains `target` — the
    /// largest index whose prefix sum is `<= target`, which is the slot
    /// the linear `if target < w { pick } else { target -= w }` scan
    /// stopped at.
    fn locate(&self, mut target: usize) -> usize {
        let mut pos = 0;
        let mut mask = self.tree.len().next_power_of_two() >> 1;
        while mask > 0 {
            let next = pos + mask;
            if next < self.tree.len() && self.tree[next] <= target {
                target -= self.tree[next];
                pos = next;
            }
            mask >>= 1;
        }
        pos
    }

    /// Pick `count` distinct members of the pool, weighted by
    /// `degree + 1`. Falls back to returning the whole pool when it is
    /// no larger than `count`, and to one uniform choice if rejection
    /// sampling never lands a new member within the attempt budget.
    fn pick<R: Rng>(&self, count: usize, rng: &mut R) -> Vec<Asn> {
        if self.pool.len() <= count {
            return self.pool.clone();
        }
        let mut chosen = Vec::with_capacity(count);
        let mut attempts = 0;
        while chosen.len() < count && attempts < count * 20 {
            attempts += 1;
            let target = rng.gen_range(0..self.total);
            let pick = self.pool[self.locate(target)];
            if !chosen.contains(&pick) {
                chosen.push(pick);
            }
        }
        if chosen.is_empty() {
            chosen.push(*self.pool.choose(rng).expect("pool checked non-empty"));
        }
        chosen
    }
}

/// Select dual-stack links (degree-biased) and flip their IPv6 relationship
/// so the configured fraction of dual-stack links becomes hybrid, with the
/// paper's class mix.
///
/// The links are drawn without replacement, weighted by
/// `((deg(a)+1)·(deg(b)+1))^bias` ([`sample_hybrids`]).
///
/// Draw-for-draw identical to the linear sum-and-prefix-scan it replaced
/// ([`pick_literal`]): each pick takes the same single `gen::<f64>()`
/// draw `u`, and [`HybridSampler`] selects exactly the slot the scan
/// selected for that `u`, so pre-existing topologies are byte-identical.
/// The weights are floats, so the tree's sums round differently from the
/// scan's: the tree answers only where that provably cannot change the
/// slot, and any other draw runs the scan itself.
///
/// # The guard band
///
/// Let `ε` be `f64::EPSILON` (one rounding errs by at most `ε/2`,
/// relative), `n` the number of weights, `d` the tree depth, `C_j` the
/// exact prefix sums of the weights, `T = C_n`, and `S` the tree's root.
/// By the error bound for recursive summation (Higham, "The accuracy of
/// floating point summation", SIAM J. Sci. Comput. 1993), to first order:
///
/// - The scan's fold total errs by at most `(n−1)·ε/2·T`, and each of
///   its at most `n` steps `t -= w` by `ε/2·t ≤ ε/2·T`. So its running
///   `t` stays within `(n+1)·ε·T` of the exact `u·T − C_k`, and the scan
///   selects slot `j` whenever `u·T` lies more than `(n+1)·ε·T` inside
///   `(C_{j−1}, C_j)`.
/// - Every tree node's sum is within `d·ε/2` (relative) of its exact
///   value. At leaf `j` the descent's remainder `r` is `u·S` less the at
///   most `d` left siblings on its path, so `r` stays within
///   `(2d+1)·ε·T` of `u·T − C_{j−1}`, and the computed `w_j − r` within
///   `(2d+2)·ε·T` of `C_j − u·T`.
///
/// So a leaf with `r > G` and `w_j − r > G` is the scan's slot once
/// `G ≥ (n + 2d + 3)·ε·T`. The sampler takes `G = 4·(n + 2d + 4)·ε·S`:
/// the factor 4 covers the higher-order terms and the gap between `S` and
/// `T`. An absolute `f64::MIN_POSITIVE` on top covers underflow in `u·S`
/// (sums and differences of floats never lose accuracy to underflow). The
/// tree also stands aside when `S > f64::MAX / 2`, where the scan's
/// total may overflow; so a bias large enough to overflow a weight to
/// infinity always runs the scan.
fn inject_hybrids<R: Rng>(
    config: &TopologyConfig,
    truth: &mut GroundTruth,
    degree: &FastMap<Asn, usize>,
    rng: &mut R,
) {
    let (candidates, weights, target) = hybrid_candidates(config, truth, degree);
    let selected = sample_hybrids(&weights, target, rng);

    // Assign classes: opposite-transit first (fixed count), then the
    // p2p4/transit6 share, remainder transit4/p2p6.
    let opposite_count = config.hybrid_opposite_transit_count.min(selected.len());
    let p2p4_count = (((selected.len() - opposite_count) as f64)
        * config.hybrid_p2p4_transit6_share)
        .round() as usize;

    for (rank, &idx) in selected.iter().enumerate() {
        let (a, b, v4_rel) = candidates[idx];
        let class = if rank < opposite_count {
            HybridClass::OppositeTransit
        } else if rank < opposite_count + p2p4_count {
            HybridClass::PeeringV4TransitV6
        } else {
            HybridClass::TransitV4PeeringV6
        };
        let (new_v4, new_v6) = match class {
            HybridClass::PeeringV4TransitV6 => {
                // Force v4 to peering; v6 transit flows from the
                // better-connected side (free v6 transit offers).
                let v6 = if degree.get(&a).unwrap_or(&0) >= degree.get(&b).unwrap_or(&0) {
                    Relationship::ProviderToCustomer
                } else {
                    Relationship::CustomerToProvider
                };
                (Relationship::PeerToPeer, v6)
            }
            HybridClass::TransitV4PeeringV6 => {
                // Keep (or force) a transit v4 relationship, peer on v6.
                let v4 =
                    if v4_rel.is_transit() { v4_rel } else { Relationship::ProviderToCustomer };
                (v4, Relationship::PeerToPeer)
            }
            HybridClass::OppositeTransit => {
                let v4 =
                    if v4_rel.is_transit() { v4_rel } else { Relationship::ProviderToCustomer };
                (v4, v4.reverse())
            }
        };
        truth.graph.annotate(a, b, IpVersion::V4, new_v4);
        truth.graph.annotate(a, b, IpVersion::V6, new_v6);
        truth.hybrid_links.push(HybridLink {
            a,
            b,
            relationships: RelationshipPair::new(new_v4, new_v6),
            class,
        });
    }
}

/// The links [`inject_hybrids`] draws from (dual-stack, non-sibling, in
/// `(a, b)` order), their weights `((deg(a)+1)·(deg(b)+1))^bias`, and how
/// many to draw: the configured fraction of all dual-stack links, capped
/// at the candidate count.
fn hybrid_candidates(
    config: &TopologyConfig,
    truth: &GroundTruth,
    degree: &FastMap<Asn, usize>,
) -> (Vec<(Asn, Asn, Relationship)>, Vec<f64>, usize) {
    let mut candidates: Vec<(Asn, Asn, Relationship)> = truth
        .graph
        .dual_stack_edges()
        .filter_map(|e| {
            let rel = e.rel_v4?;
            (!rel.is_sibling()).then_some((e.a, e.b, rel))
        })
        .collect();
    candidates.sort_by_key(|(a, b, _)| (*a, *b));
    let weights = candidates
        .iter()
        .map(|(a, b, _)| {
            let da = *degree.get(a).unwrap_or(&0) as f64 + 1.0;
            let db = *degree.get(b).unwrap_or(&0) as f64 + 1.0;
            (da * db).powf(config.hybrid_degree_bias)
        })
        .collect();
    let dual_total = truth.graph.dual_stack_edges().count();
    let target = ((dual_total as f64) * config.hybrid_fraction).round() as usize;
    let target = target.min(candidates.len());
    (candidates, weights, target)
}

/// Weighted sampling without replacement: up to `target` distinct slots
/// of `weights`, each drawn with one `gen::<f64>()` and then given weight
/// 0, stopping early once every weight is 0.
fn sample_hybrids<R: Rng>(weights: &[f64], target: usize, rng: &mut R) -> Vec<usize> {
    let mut sampler = HybridSampler::new(weights);
    let mut selected = Vec::with_capacity(target);
    for _ in 0..target {
        // The weights are non-negative, so the tree's total is <= 0
        // exactly when every weight is 0, as is the scan's.
        if sampler.total() <= 0.0 {
            break;
        }
        let idx = sampler.pick(rng.gen());
        selected.push(idx);
        sampler.remove(idx);
    }
    selected
}

/// The linear pick, and the one exact definition of which slot a draw
/// `u` selects: sum the weights left to right, scale `u` by the total,
/// and walk the positive weights, subtracting each, until the remainder
/// falls below one. If rounding carries the remainder past the last
/// weight, the first positive weight is taken.
fn pick_literal(weights: &[f64], u: f64) -> usize {
    let total: f64 = weights.iter().sum();
    let mut t = u * total;
    for (i, &w) in weights.iter().enumerate() {
        if w <= 0.0 {
            continue;
        }
        if t < w {
            return i;
        }
        t -= w;
    }
    weights.iter().position(|&w| w > 0.0).expect("the caller checked that the total is positive")
}

/// [`pick_literal`] in `O(log n)` over non-negative weights that lose one
/// slot per pick (see [`inject_hybrids`] for why it is exact).
///
/// An array segment tree of partial sums: the leaves are
/// `tree[base..base + len]` and node `k` holds `tree[2k] + tree[2k + 1]`.
/// Removing a slot zeroes its leaf and recomputes the nodes above it
/// from their children, never by subtraction, so a removed slot weighs
/// exactly 0 and rounding error does not build up across picks.
struct HybridSampler {
    tree: Vec<f64>,
    base: usize,
    len: usize,
    /// The guard band as a multiple of the total: `4·(n + 2d + 4)·ε`.
    guard: f64,
}

impl HybridSampler {
    fn new(weights: &[f64]) -> Self {
        let base = weights.len().next_power_of_two();
        let mut tree = vec![0.0; 2 * base];
        tree[base..base + weights.len()].copy_from_slice(weights);
        for k in (1..base).rev() {
            tree[k] = tree[2 * k] + tree[2 * k + 1];
        }
        let depth = base.trailing_zeros() as f64;
        let guard = 4.0 * (weights.len() as f64 + 2.0 * depth + 4.0) * f64::EPSILON;
        HybridSampler { tree, base, len: weights.len(), guard }
    }

    fn total(&self) -> f64 {
        self.tree[1]
    }

    fn weights(&self) -> &[f64] {
        &self.tree[self.base..self.base + self.len]
    }

    fn remove(&mut self, index: usize) {
        let mut k = self.base + index;
        self.tree[k] = 0.0;
        while k > 1 {
            k /= 2;
            self.tree[k] = self.tree[2 * k] + self.tree[2 * k + 1];
        }
    }

    /// The slot [`pick_literal`] selects for `u`.
    fn pick(&self, u: f64) -> usize {
        self.tree_pick(u).unwrap_or_else(|| pick_literal(self.weights(), u))
    }

    /// The tree's slot for `u` where it is provably the scan's: `None`
    /// when `u·S` falls within the guard band of its leaf's edges, or the
    /// total is NaN or near overflow.
    fn tree_pick(&self, u: f64) -> Option<usize> {
        let total = self.total();
        if total.is_nan() || total > f64::MAX / 2.0 {
            return None;
        }
        let band = self.guard * total + f64::MIN_POSITIVE;
        let mut r = u * total;
        let mut k = 1;
        while k < self.base {
            k *= 2;
            if r >= self.tree[k] {
                r -= self.tree[k];
                k += 1;
            }
        }
        (r > band && self.tree[k] - r > band).then_some(k - self.base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asgraph::metrics::connected_components;
    use asgraph::valley::classify_path;
    use std::collections::HashMap;

    fn truth_small() -> GroundTruth {
        generate(&TopologyConfig::small())
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(&TopologyConfig::tiny());
        let b = generate(&TopologyConfig::tiny());
        assert_eq!(a.graph.node_count(), b.graph.node_count());
        assert_eq!(a.graph.edge_count(), b.graph.edge_count());
        assert_eq!(a.hybrid_links, b.hybrid_links);
        let mut c = TopologyConfig::tiny();
        c.seed = 999;
        let d = generate(&c);
        assert_ne!(
            a.hybrid_links, d.hybrid_links,
            "different seeds should produce different hybrids"
        );
    }

    #[test]
    fn every_planned_as_is_in_the_graph() {
        let truth = truth_small();
        let config = TopologyConfig::small();
        assert_eq!(truth.tiers.len(), config.total_as_count());
        // Tier-1s and tier-2s always have links; a stub could in principle
        // be isolated only if it had zero providers, which the config forbids.
        for (&asn, _) in truth.tiers.iter() {
            assert!(truth.graph.contains(asn), "AS{asn} missing from graph");
        }
    }

    #[test]
    fn ipv4_plane_is_connected() {
        let truth = truth_small();
        let comps = connected_components(&truth.graph, IpVersion::V4);
        assert_eq!(comps.len(), 1, "IPv4 plane must be one connected component");
    }

    #[test]
    fn ipv6_plane_is_a_strict_subset_of_ases() {
        let truth = truth_small();
        let v6_ases = truth.ipv6_as_count();
        assert!(v6_ases < truth.tiers.len());
        assert!(v6_ases > truth.tiers.len() / 10);
        // Links present on v6 between v4-capable ASes must connect
        // IPv6-capable endpoints.
        for edge in truth.graph.plane_edges(IpVersion::V6) {
            assert!(truth.ipv6_capable[&edge.a], "v6 link endpoint {} not capable", edge.a);
            assert!(truth.ipv6_capable[&edge.b], "v6 link endpoint {} not capable", edge.b);
        }
    }

    #[test]
    fn some_ipv6_links_have_no_ipv4_counterpart() {
        let truth = truth_small();
        let v6_total = truth.plane_link_count(IpVersion::V6);
        let dual = truth.dual_stack_link_count();
        assert!(v6_total > dual, "expected v6-only links");
        // And the v6-only share should be substantial but not dominant
        // (paper: ~28%).
        let v6_only_share = (v6_total - dual) as f64 / v6_total as f64;
        assert!(v6_only_share > 0.05 && v6_only_share < 0.6, "share {v6_only_share}");
    }

    #[test]
    fn hybrid_fraction_matches_configuration() {
        let truth = truth_small();
        let config = TopologyConfig::small();
        let fraction = truth.hybrid_fraction();
        assert!(
            (fraction - config.hybrid_fraction).abs() < 0.02,
            "hybrid fraction {fraction} far from configured {}",
            config.hybrid_fraction
        );
        // Every recorded hybrid link must actually be hybrid in the graph.
        for link in &truth.hybrid_links {
            let pair = truth.relationship_pair(link.a, link.b).unwrap();
            assert!(pair.is_hybrid(), "{}-{} recorded hybrid but graph disagrees", link.a, link.b);
            assert_eq!(pair, link.relationships);
            assert_eq!(HybridClass::classify(pair), Some(link.class));
        }
    }

    #[test]
    fn hybrid_class_mix_matches_the_paper() {
        let truth = generate(&TopologyConfig::small());
        let counts = truth.hybrid_class_counts();
        let total = truth.hybrid_links.len() as f64;
        assert!(total >= 20.0, "need a meaningful number of hybrids, got {total}");
        let p2p4 = *counts.get(&HybridClass::PeeringV4TransitV6).unwrap_or(&0) as f64;
        assert!((p2p4 / total - 0.67).abs() < 0.1, "p2p4/transit6 share {}", p2p4 / total);
        assert_eq!(*counts.get(&HybridClass::OppositeTransit).unwrap_or(&0), 1);
    }

    #[test]
    fn hybrids_prefer_well_connected_ases() {
        let truth = truth_small();
        let mean_degree_all: f64 =
            truth.graph.asns().map(|a| truth.graph.degree(a, IpVersion::V4) as f64).sum::<f64>()
                / truth.graph.node_count() as f64;
        let mean_degree_hybrid: f64 = truth
            .hybrid_links
            .iter()
            .flat_map(|l| [l.a, l.b])
            .map(|a| truth.graph.degree(a, IpVersion::V4) as f64)
            .sum::<f64>()
            / (2 * truth.hybrid_links.len()) as f64;
        assert!(
            mean_degree_hybrid > mean_degree_all * 2.0,
            "hybrid endpoints should be well-connected: {mean_degree_hybrid} vs {mean_degree_all}"
        );
    }

    #[test]
    fn tier1_clique_is_fully_meshed_with_peering() {
        let truth = truth_small();
        let tier1 = truth.ases_of_tier(PlannedTier::Tier1);
        for (i, &a) in tier1.iter().enumerate() {
            for &b in tier1.iter().skip(i + 1) {
                assert!(truth.graph.has_link(a, b, IpVersion::V4));
                let rel = truth.graph.relationship(a, b, IpVersion::V4).unwrap();
                // Hybrid injection can turn a clique link into transit on v6
                // but the v4 side may also be rewritten only to peering.
                assert!(rel.is_peering() || rel.is_transit());
            }
        }
    }

    #[test]
    fn customer_provider_paths_are_valley_free_on_v4() {
        // A stub's path up through its provider chain to a tier-1 must be
        // valley-free under the ground-truth annotation.
        let truth = truth_small();
        let stub = truth.ases_of_tier(PlannedTier::Stub)[0];
        // Walk up: pick any provider repeatedly.
        let mut path = vec![stub];
        let mut current = stub;
        for _ in 0..6 {
            let provider = truth
                .graph
                .neighbors(current, IpVersion::V4)
                .find(|(_, rel)| *rel == Some(Relationship::CustomerToProvider))
                .map(|(asn, _)| asn);
            match provider {
                Some(p) if !path.contains(&p) => {
                    path.push(p);
                    current = p;
                }
                _ => break,
            }
        }
        if path.len() > 1 {
            assert!(classify_path(&truth.graph, &path, IpVersion::V4).is_valley_free());
        }
    }

    #[test]
    fn sibling_links_exist_but_are_rare() {
        let truth = generate(&TopologyConfig::default());
        let sibling_count = truth
            .graph
            .plane_edges(IpVersion::V4)
            .filter(|e| e.rel_v4 == Some(Relationship::SiblingToSibling))
            .count();
        let total = truth.plane_link_count(IpVersion::V4);
        assert!(sibling_count > 0);
        assert!((sibling_count as f64) < total as f64 * 0.05);
    }

    #[test]
    fn asns_stay_in_16_bit_space() {
        let truth = truth_small();
        for asn in truth.graph.asns() {
            assert!(asn.is_16bit(), "{asn} exceeds 16 bits");
            assert!(asn.is_public(), "{asn} is reserved");
        }
    }

    /// The original linear-scan weighted picker, kept verbatim as the
    /// reference [`DegreeSampler`] must match draw for draw.
    fn pick_weighted_reference<R: Rng>(
        pool: &[Asn],
        degree: &HashMap<Asn, usize>,
        count: usize,
        rng: &mut R,
    ) -> Vec<Asn> {
        if pool.len() <= count {
            return pool.to_vec();
        }
        let mut chosen = Vec::with_capacity(count);
        let mut attempts = 0;
        while chosen.len() < count && attempts < count * 20 {
            attempts += 1;
            let total: usize = pool.iter().map(|a| degree.get(a).unwrap_or(&0) + 1).sum();
            let mut target = rng.gen_range(0..total);
            let mut pick = pool[0];
            for &candidate in pool {
                let w = degree.get(&candidate).unwrap_or(&0) + 1;
                if target < w {
                    pick = candidate;
                    break;
                }
                target -= w;
            }
            if !chosen.contains(&pick) {
                chosen.push(pick);
            }
        }
        if chosen.is_empty() {
            chosen.push(*pool.choose(rng).expect("pool checked non-empty"));
        }
        chosen
    }

    #[test]
    fn fenwick_sampler_matches_the_linear_reference_draw_for_draw() {
        // Random pools and degree histories: the Fenwick-backed sampler
        // must consume the identical RNG stream and return the identical
        // picks as the linear scan it replaced, or every pre-existing
        // topology (and golden) would shift.
        let mut seed_rng = ChaCha8Rng::seed_from_u64(0x5eed);
        for round in 0..50 {
            let pool_size = 1 + (round % 17);
            let pool: Vec<Asn> = (0..pool_size).map(|i| Asn(1000 + i as u32)).collect();
            let mut degree: HashMap<Asn, usize> = HashMap::new();
            let mut sampler = DegreeSampler::new(&pool);
            for _ in 0..(round * 3) {
                let asn = pool[seed_rng.gen_range(0..pool.len())];
                *degree.entry(asn).or_insert(0) += 1;
                sampler.bump(asn);
            }
            for count in [1usize, 2, 3, pool_size, pool_size + 2] {
                let mut rng_a = ChaCha8Rng::seed_from_u64(round as u64 * 31 + count as u64);
                let mut rng_b = rng_a.clone();
                let fast = sampler.pick(count, &mut rng_a);
                let slow = pick_weighted_reference(&pool, &degree, count, &mut rng_b);
                assert_eq!(fast, slow, "round {round} count {count}");
                assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>(), "RNG streams diverged");
            }
        }
    }

    /// The float one step above / below a non-negative finite `x`
    /// (`f64::next_up` and `next_down` need a newer Rust than the MSRV).
    fn next_up(x: f64) -> f64 {
        f64::from_bits(x.to_bits() + 1)
    }

    fn next_down(x: f64) -> f64 {
        if x == 0.0 {
            0.0
        } else {
            f64::from_bits(x.to_bits() - 1)
        }
    }

    #[test]
    fn hybrid_sampler_picks_the_literal_slot_for_every_draw() {
        // Weights spread over 22 decades, with ties, zeros and removed
        // slots, so the tree's sums round apart from the scan's. Draws on
        // and one float either side of every interval edge land in the
        // guard band, where only the scan may decide.
        let mut rng = ChaCha8Rng::seed_from_u64(0xb1a5);
        let mut banded = 0;
        for _ in 0..300 {
            let n: usize = rng.gen_range(1..=150);
            let mut weights: Vec<f64> = Vec::with_capacity(n);
            for i in 0..n {
                let w = if i > 0 && rng.gen_bool(0.2) {
                    weights[rng.gen_range(0..i)]
                } else if rng.gen_bool(0.1) {
                    0.0
                } else {
                    10f64.powf(rng.gen_range(-6.0..16.0))
                };
                weights.push(w);
            }
            let mut sampler = HybridSampler::new(&weights);
            for (i, w) in weights.iter_mut().enumerate() {
                if rng.gen_bool(0.1) {
                    sampler.remove(i);
                    *w = 0.0;
                }
            }
            assert_eq!(sampler.weights(), &weights[..]);
            let total: f64 = weights.iter().sum();
            if total <= 0.0 {
                continue;
            }
            let mut draws: Vec<f64> = (0..20).map(|_| rng.gen()).collect();
            let mut prefix = 0.0;
            for &w in &weights {
                prefix += w;
                let edge = prefix / total;
                draws.extend(
                    [next_down(edge), edge, next_up(edge)].into_iter().filter(|&u| u < 1.0),
                );
            }
            for u in draws {
                let literal = pick_literal(&weights, u);
                assert_eq!(sampler.pick(u), literal, "u = {u:e} over {weights:?}");
                banded += usize::from(sampler.tree_pick(u).is_none());
            }
        }
        assert!(banded > 0, "no draw fell inside the guard band");
    }

    /// [`sample_hybrids`] with every pick made by the linear scan.
    fn sample_hybrids_literal<R: Rng>(weights: &[f64], target: usize, rng: &mut R) -> Vec<usize> {
        let mut weights = weights.to_vec();
        let mut selected = Vec::with_capacity(target);
        for _ in 0..target {
            let total: f64 = weights.iter().sum();
            if total <= 0.0 {
                break;
            }
            let idx = pick_literal(&weights, rng.gen());
            selected.push(idx);
            weights[idx] = 0.0;
        }
        selected
    }

    #[test]
    fn hybrid_sampler_matches_the_linear_scan_draw_for_draw() {
        // The candidate weights `inject_hybrids` builds, over presets,
        // seeds and biases. Bias 400 overflows weights to infinity, where
        // the scan alone decides.
        for preset in [TopologyConfig::tiny(), TopologyConfig::small(), TopologyConfig::default()] {
            for seed in 0..8 {
                let mut config = TopologyConfig { seed, ..preset.clone() };
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                let (truth, degree) = base_topology(&config, &mut rng);
                for bias in [0.0, 0.37, 1.0, 2.5, 400.0] {
                    config.hybrid_degree_bias = bias;
                    let (_, weights, target) = hybrid_candidates(&config, &truth, &degree);
                    assert!(target > 0, "seed {seed}: nothing to draw");
                    let overflows = weights.iter().any(|w| w.is_infinite());
                    assert_eq!(overflows, bias == 400.0, "seed {seed} bias {bias}");
                    let (mut rng_a, mut rng_b) = (rng.clone(), rng.clone());
                    assert_eq!(
                        sample_hybrids(&weights, target, &mut rng_a),
                        sample_hybrids_literal(&weights, target, &mut rng_b),
                        "seed {seed} bias {bias}"
                    );
                    assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>(), "RNG streams diverged");
                }
            }
        }
    }

    #[test]
    fn generation_crosses_the_16_bit_asn_boundary_when_allowed() {
        let config =
            TopologyConfig { first_asn: 65_500, allow_32bit_asns: true, ..TopologyConfig::tiny() };
        let truth = generate(&config);
        assert_eq!(truth.tiers.len(), config.total_as_count());
        let wide = truth.graph.asns().filter(|a| !a.is_16bit()).count();
        assert!(wide > 0, "the block must spill past 65535");
        let comps = connected_components(&truth.graph, IpVersion::V4);
        assert_eq!(comps.len(), 1, "32-bit ASes join the same connected topology");
    }
}
