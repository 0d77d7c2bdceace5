//! Topology generator configuration.

use serde::{Deserialize, Serialize};

/// All knobs of the synthetic topology generator.
///
/// The defaults produce a topology of roughly 6,000 ASes whose IPv6 plane
/// has on the order of 10,000 links — the same order of magnitude as the
/// August 2010 snapshot the paper measured — while staying fast enough for
/// the full pipeline to run in seconds. Every experiment can scale the
/// counts up or down.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopologyConfig {
    /// Seed for the deterministic RNG. Same config + same seed = same
    /// topology, byte for byte.
    pub seed: u64,

    /// Number of tier-1 (transit-free) ASes, fully meshed with p2p links.
    pub tier1_count: usize,
    /// Number of tier-2 transit ASes.
    pub tier2_count: usize,
    /// Number of stub ASes.
    pub stub_count: usize,

    /// Minimum / maximum providers a tier-2 AS buys transit from.
    pub tier2_providers: (usize, usize),
    /// Minimum / maximum providers a stub AS buys transit from.
    pub stub_providers: (usize, usize),
    /// Probability that a stub attaches directly to a tier-1 instead of a
    /// tier-2 for each provider slot.
    pub stub_direct_tier1_probability: f64,

    /// Expected number of tier-2/tier-2 peering links per tier-2 AS.
    pub tier2_peering_degree: f64,
    /// Expected number of IXP-style peerings per stub AS.
    pub stub_peering_degree: f64,

    /// Probability that a tier-2 AS is IPv6-capable (tier-1s always are).
    pub tier2_ipv6_adoption: f64,
    /// Probability that a stub AS is IPv6-capable.
    pub stub_ipv6_adoption: f64,
    /// Probability that a link between two IPv6-capable ASes actually
    /// carries IPv6 routes (dual-stack ASes do not necessarily enable v6
    /// on every session).
    pub link_ipv6_activation: f64,
    /// Expected number of *additional* IPv6-only peering links per
    /// IPv6-capable AS (the relaxed v6 peering the paper describes); these
    /// links have no IPv4 counterpart.
    pub v6_only_peering_degree: f64,

    /// Fraction of dual-stack links that receive a hybrid (different
    /// per-plane) relationship. The paper measured 13%.
    pub hybrid_fraction: f64,
    /// Among hybrid links, the share that are p2p on IPv4 and transit on
    /// IPv6 (the paper measured 67%); the remainder are p2c on IPv4 and
    /// p2p on IPv6, except for `hybrid_opposite_transit_count` links.
    pub hybrid_p2p4_transit6_share: f64,
    /// Number of hybrid links with *opposite* transit direction between
    /// the planes (the paper found exactly one such case).
    pub hybrid_opposite_transit_count: usize,
    /// Bias exponent for picking hybrid links: candidate dual-stack links
    /// are weighted by `((deg(a) + 1) * (deg(b) + 1))^bias`, reproducing
    /// the paper's observation that hybrids sit between well-connected
    /// ASes. 0 = no bias; must be finite and non-negative.
    pub hybrid_degree_bias: f64,

    /// Fraction of provider links replaced by sibling (s2s) links.
    pub sibling_fraction: f64,

    /// First ASN allocated; ASNs are sequential from here and by default
    /// must stay in 16-bit space so classic communities can name them.
    pub first_asn: u32,

    /// Allow the allocated ASN block to spill past the 16-bit boundary
    /// (the internet-scale presets need it — 100k ASes cannot fit under
    /// 65536). ASes with 32-bit ASNs participate fully in the topology
    /// and in routing, but — exactly as in the real Internet — classic
    /// communities cannot name them, so they never tag, and the policy
    /// layer gives them an empty community scheme.
    pub allow_32bit_asns: bool,
}

impl Default for TopologyConfig {
    fn default() -> Self {
        TopologyConfig {
            seed: 20100801,
            tier1_count: 12,
            tier2_count: 700,
            stub_count: 5300,
            tier2_providers: (1, 3),
            stub_providers: (1, 2),
            stub_direct_tier1_probability: 0.05,
            tier2_peering_degree: 3.0,
            stub_peering_degree: 0.4,
            tier2_ipv6_adoption: 0.75,
            stub_ipv6_adoption: 0.32,
            link_ipv6_activation: 0.9,
            v6_only_peering_degree: 0.9,
            hybrid_fraction: 0.13,
            hybrid_p2p4_transit6_share: 0.67,
            hybrid_opposite_transit_count: 1,
            hybrid_degree_bias: 1.0,
            sibling_fraction: 0.01,
            first_asn: 100,
            allow_32bit_asns: false,
        }
    }
}

impl TopologyConfig {
    /// A small configuration (hundreds of ASes) for unit tests and doc
    /// examples; runs in milliseconds.
    pub fn small() -> Self {
        TopologyConfig { tier1_count: 6, tier2_count: 60, stub_count: 400, ..Default::default() }
    }

    /// A tiny configuration (tens of ASes) for property tests that must
    /// run the generator hundreds of times.
    pub fn tiny() -> Self {
        TopologyConfig {
            tier1_count: 4,
            tier2_count: 12,
            stub_count: 40,
            tier2_peering_degree: 1.5,
            stub_peering_degree: 0.3,
            ..Default::default()
        }
    }

    /// A CAIDA-shaped topology at roughly `total` ASes: a 13-member
    /// tier-1 clique (the real Internet's transit-free core has hovered
    /// around that size for a decade), ~15% tier-2 transit providers and
    /// the rest stubs, with the peering knobs left at the defaults
    /// (rank-weighted provider attachment and degree-proportional peering
    /// are properties of the generator itself). Adoption probabilities
    /// stay at the paper-era defaults so the hybrid machinery has the
    /// same relative substrate at every scale.
    fn internet(total: usize) -> Self {
        let tier1_count = 13;
        let tier2_count = total * 15 / 100;
        TopologyConfig {
            tier1_count,
            tier2_count,
            stub_count: total - tier1_count - tier2_count,
            allow_32bit_asns: true,
            ..Default::default()
        }
    }

    /// A 10,000-AS internet-shaped topology (≈ the IPv6 AS count the
    /// years right after the paper).
    pub fn internet_10k() -> Self {
        Self::internet(10_000)
    }

    /// A 50,000-AS internet-shaped topology (≈ the full AS-level
    /// Internet of the mid-2010s).
    pub fn internet_50k() -> Self {
        Self::internet(50_000)
    }

    /// A 100,000-AS internet-shaped topology (beyond today's ~75k ASes —
    /// the headroom scale; overflows the 16-bit ASN space, which
    /// `allow_32bit_asns` permits).
    pub fn internet_100k() -> Self {
        Self::internet(100_000)
    }

    /// Total number of ASes this configuration will generate.
    pub fn total_as_count(&self) -> usize {
        self.tier1_count + self.tier2_count + self.stub_count
    }

    /// Validate structural constraints; returns a human-readable complaint
    /// for the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.tier1_count < 2 {
            return Err("tier1_count must be at least 2".into());
        }
        if self.tier2_count == 0 {
            return Err("tier2_count must be positive".into());
        }
        if self.tier2_providers.0 == 0 || self.stub_providers.0 == 0 {
            return Err("every non-tier-1 AS needs at least one provider".into());
        }
        if self.tier2_providers.0 > self.tier2_providers.1
            || self.stub_providers.0 > self.stub_providers.1
        {
            return Err("provider ranges must be (min <= max)".into());
        }
        for (name, p) in [
            ("stub_direct_tier1_probability", self.stub_direct_tier1_probability),
            ("tier2_ipv6_adoption", self.tier2_ipv6_adoption),
            ("stub_ipv6_adoption", self.stub_ipv6_adoption),
            ("link_ipv6_activation", self.link_ipv6_activation),
            ("hybrid_fraction", self.hybrid_fraction),
            ("hybrid_p2p4_transit6_share", self.hybrid_p2p4_transit6_share),
            ("sibling_fraction", self.sibling_fraction),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} must be within [0, 1], got {p}"));
            }
        }
        for (name, x) in [
            ("tier2_peering_degree", self.tier2_peering_degree),
            ("stub_peering_degree", self.stub_peering_degree),
            ("v6_only_peering_degree", self.v6_only_peering_degree),
            ("hybrid_degree_bias", self.hybrid_degree_bias),
        ] {
            if !x.is_finite() || x < 0.0 {
                return Err(format!("{name} must be finite and non-negative, got {x}"));
            }
        }
        let last_asn = self.first_asn as usize + self.total_as_count();
        if !self.allow_32bit_asns && last_asn > u16::MAX as usize {
            return Err(format!(
                "ASN space overflow: {} ASes starting at {} exceed the 16-bit range needed for classic communities (set allow_32bit_asns to permit this)",
                self.total_as_count(),
                self.first_asn
            ));
        }
        // Even with 32-bit ASNs allowed, the simulator's deterministic
        // origin-prefix mapping has 23 usable bits — far beyond any real
        // AS count, but worth failing loudly instead of colliding.
        if last_asn > 1 << 23 {
            return Err(format!(
                "ASN space overflow: {} ASes starting at {} exceed the 23-bit origin-prefix space",
                self.total_as_count(),
                self.first_asn
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        let c = TopologyConfig::default();
        assert!(c.validate().is_ok());
        assert_eq!(c.total_as_count(), 12 + 700 + 5300);
    }

    #[test]
    fn presets_are_valid_and_smaller() {
        assert!(TopologyConfig::small().validate().is_ok());
        assert!(TopologyConfig::tiny().validate().is_ok());
        assert!(TopologyConfig::tiny().total_as_count() < TopologyConfig::small().total_as_count());
        assert!(
            TopologyConfig::small().total_as_count() < TopologyConfig::default().total_as_count()
        );
    }

    #[test]
    fn validation_catches_bad_configs() {
        let c = TopologyConfig { tier1_count: 1, ..TopologyConfig::default() };
        assert!(c.validate().is_err());

        let c = TopologyConfig { hybrid_fraction: 1.5, ..TopologyConfig::default() };
        assert!(c.validate().unwrap_err().contains("hybrid_fraction"));

        let c = TopologyConfig { stub_providers: (3, 1), ..TopologyConfig::default() };
        assert!(c.validate().is_err());

        let c = TopologyConfig { stub_count: 70_000, ..TopologyConfig::default() };
        assert!(c.validate().unwrap_err().contains("ASN space"));

        let c = TopologyConfig { tier2_count: 0, ..TopologyConfig::default() };
        assert!(c.validate().is_err());

        let c = TopologyConfig { tier2_providers: (0, 2), ..TopologyConfig::default() };
        assert!(c.validate().is_err());

        let c = TopologyConfig { hybrid_degree_bias: f64::NAN, ..TopologyConfig::default() };
        assert!(c.validate().unwrap_err().contains("hybrid_degree_bias"));

        let c = TopologyConfig { hybrid_degree_bias: f64::INFINITY, ..TopologyConfig::default() };
        assert!(c.validate().unwrap_err().contains("hybrid_degree_bias"));

        let c = TopologyConfig { hybrid_degree_bias: -1.0, ..TopologyConfig::default() };
        assert!(c.validate().unwrap_err().contains("hybrid_degree_bias"));

        let c = TopologyConfig { v6_only_peering_degree: f64::NAN, ..TopologyConfig::default() };
        assert!(c.validate().unwrap_err().contains("v6_only_peering_degree"));

        let c = TopologyConfig { stub_peering_degree: f64::INFINITY, ..TopologyConfig::default() };
        assert!(c.validate().unwrap_err().contains("stub_peering_degree"));

        let c = TopologyConfig { tier2_peering_degree: -0.5, ..TopologyConfig::default() };
        assert!(c.validate().unwrap_err().contains("tier2_peering_degree"));
    }

    #[test]
    fn internet_presets_are_valid_and_sized_as_named() {
        for (preset, total) in [
            (TopologyConfig::internet_10k(), 10_000),
            (TopologyConfig::internet_50k(), 50_000),
            (TopologyConfig::internet_100k(), 100_000),
        ] {
            assert!(preset.validate().is_ok(), "{total}: {:?}", preset.validate());
            assert_eq!(preset.total_as_count(), total);
            assert_eq!(preset.tier1_count, 13, "tier-1 clique is CAIDA-sized");
            let tier2_share = preset.tier2_count as f64 / total as f64;
            assert!((tier2_share - 0.15).abs() < 0.01, "~15% transit, got {tier2_share}");
        }
    }

    #[test]
    fn allow_32bit_asns_lifts_only_the_16_bit_ceiling() {
        // Without the flag the 16-bit check still fires (the regression
        // guard for every pre-existing configuration)...
        let c = TopologyConfig { stub_count: 70_000, ..TopologyConfig::default() };
        assert!(c.validate().unwrap_err().contains("ASN space"));
        // ...with it the same configuration is fine...
        let c = TopologyConfig { allow_32bit_asns: true, ..c };
        assert!(c.validate().is_ok());
        // ...but the origin-prefix ceiling is a hard stop either way.
        let c = TopologyConfig { stub_count: 1 << 23, ..c };
        assert!(c.validate().unwrap_err().contains("23-bit"));
    }

    #[test]
    fn serde_roundtrip() {
        let c = TopologyConfig::small();
        let json = serde_json::to_string(&c).unwrap();
        let back: TopologyConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
    }
}
