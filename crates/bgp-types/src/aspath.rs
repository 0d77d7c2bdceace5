//! AS paths: ordered sequences of ASNs with optional AS_SET segments.

use std::fmt;
use std::str::FromStr;

use serde::{Deserialize, Serialize};

use crate::asn::Asn;
use crate::error::{ParseError, TypeError};

/// One segment of an AS path, as defined by the BGP wire format.
///
/// Almost every path is a single `Sequence`; `Set` segments appear when
/// routes are aggregated and are treated by the measurement pipeline as
/// "unknown hop" markers (links adjacent to a set are not extracted).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AsPathSegment {
    /// An ordered sequence of ASNs (AS_SEQUENCE).
    Sequence(Vec<Asn>),
    /// An unordered set of ASNs produced by aggregation (AS_SET).
    Set(Vec<Asn>),
}

impl AsPathSegment {
    /// Number of ASNs in the segment.
    pub fn len(&self) -> usize {
        match self {
            AsPathSegment::Sequence(v) | AsPathSegment::Set(v) => v.len(),
        }
    }

    /// True when the segment holds no ASNs.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The ASNs in the segment, in stored order.
    pub fn asns(&self) -> &[Asn] {
        match self {
            AsPathSegment::Sequence(v) | AsPathSegment::Set(v) => v,
        }
    }

    /// True for an AS_SET segment.
    pub fn is_set(&self) -> bool {
        matches!(self, AsPathSegment::Set(_))
    }
}

/// An AS path: the AS_PATH attribute of a BGP route.
///
/// The first ASN is the neighbor of the observation point (the collector's
/// peer) and the last ASN is the origin of the prefix.
///
/// ```
/// use bgp_types::{AsPath, Asn};
/// let p: AsPath = "6939 2914 3333".parse().unwrap();
/// assert_eq!(p.origin(), Some(Asn(3333)));
/// assert_eq!(p.first(), Some(Asn(6939)));
/// assert_eq!(p.links().collect::<Vec<_>>(),
///            vec![(Asn(6939), Asn(2914)), (Asn(2914), Asn(3333))]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct AsPath {
    segments: Vec<AsPathSegment>,
}

impl AsPath {
    /// Maximum ASNs per wire segment.
    pub const MAX_SEGMENT_LEN: usize = 255;
    /// A generous cap on segments per path; real paths have 1 or 2.
    pub const MAX_SEGMENTS: usize = 64;

    /// An empty path (only valid for iBGP-originated routes).
    pub fn empty() -> Self {
        AsPath { segments: Vec::new() }
    }

    /// Build a pure-sequence path from a list of ASNs.
    pub fn from_sequence(asns: impl Into<Vec<Asn>>) -> Self {
        let asns = asns.into();
        if asns.is_empty() {
            return Self::empty();
        }
        AsPath { segments: vec![AsPathSegment::Sequence(asns)] }
    }

    /// Build a path from explicit segments, validating wire-format limits.
    pub fn from_segments(segments: Vec<AsPathSegment>) -> Result<Self, TypeError> {
        if segments.len() > Self::MAX_SEGMENTS {
            return Err(TypeError::TooManySegments(segments.len()));
        }
        for seg in &segments {
            if seg.len() > Self::MAX_SEGMENT_LEN {
                return Err(TypeError::SegmentTooLong(seg.len()));
            }
        }
        Ok(AsPath { segments })
    }

    /// The raw segments.
    pub fn segments(&self) -> &[AsPathSegment] {
        &self.segments
    }

    /// Total number of ASN slots across all segments (the "hop count" used
    /// for path-length comparison treats an AS_SET as one hop, see
    /// [`AsPath::routing_length`]).
    pub fn len(&self) -> usize {
        self.segments.iter().map(|s| s.len()).sum()
    }

    /// True when the path has no ASNs at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// BGP path-selection length: each AS_SEQUENCE ASN counts 1, each
    /// AS_SET counts 1 regardless of size (RFC 4271 §9.1.2.2).
    pub fn routing_length(&self) -> usize {
        self.segments
            .iter()
            .map(|s| match s {
                AsPathSegment::Sequence(v) => v.len(),
                AsPathSegment::Set(_) => 1,
            })
            .sum()
    }

    /// The origin AS (last ASN of the last segment), if the path is not
    /// empty and does not end in an AS_SET.
    pub fn origin(&self) -> Option<Asn> {
        match self.segments.last()? {
            AsPathSegment::Sequence(v) => v.last().copied(),
            AsPathSegment::Set(_) => None,
        }
    }

    /// The first AS (the collector peer's ASN for collector-observed paths).
    pub fn first(&self) -> Option<Asn> {
        match self.segments.first()? {
            AsPathSegment::Sequence(v) => v.first().copied(),
            AsPathSegment::Set(v) => v.first().copied(),
        }
    }

    /// All ASNs in order of appearance (sets flattened in stored order).
    pub fn asns(&self) -> impl Iterator<Item = Asn> + '_ {
        self.segments.iter().flat_map(|s| s.asns().iter().copied())
    }

    /// True if the path contains the given ASN anywhere.
    pub fn contains(&self, asn: Asn) -> bool {
        self.asns().any(|a| a == asn)
    }

    /// All ASNs in order of appearance with path prepending removed,
    /// walked in place without allocating.
    ///
    /// Consecutive duplicates collapse only *inside* one AS_SEQUENCE
    /// segment. The same ASN on both sides of a segment boundary is
    /// yielded twice (a boundary is not a prepending run, so
    /// [`AsPath::has_loop`] reports it), and an AS_SET yields its members
    /// as stored, duplicates included. The walk equals
    /// `self.deprepended().asns()`.
    ///
    /// ```
    /// use bgp_types::{AsPath, Asn};
    /// let p: AsPath = "10 10 20 {20,30} 30 30 40".parse().unwrap();
    /// let walk: Vec<u32> = p.deprepended_asns().map(|a| a.0).collect();
    /// assert_eq!(walk, vec![10, 20, 20, 30, 30, 40]);
    /// ```
    pub fn deprepended_asns(&self) -> impl Iterator<Item = Asn> + '_ {
        self.segments.iter().flat_map(|seg| {
            let asns = seg.asns();
            let collapse = !seg.is_set();
            asns.iter()
                .enumerate()
                .filter(move |&(i, a)| !(collapse && i > 0 && asns[i - 1] == *a))
                .map(|(_, &a)| a)
        })
    }

    /// Remove consecutive duplicate ASNs caused by path prepending,
    /// returning a new path. Only applies within sequence segments; the
    /// allocation-free walk is [`AsPath::deprepended_asns`].
    pub fn deprepended(&self) -> AsPath {
        let segments = self
            .segments
            .iter()
            .map(|seg| match seg {
                AsPathSegment::Sequence(v) => {
                    let mut out: Vec<Asn> = Vec::with_capacity(v.len());
                    for &a in v {
                        if out.last() != Some(&a) {
                            out.push(a);
                        }
                    }
                    AsPathSegment::Sequence(out)
                }
                AsPathSegment::Set(v) => AsPathSegment::Set(v.clone()),
            })
            .collect();
        AsPath { segments }
    }

    /// True if any ASN appears twice in *non-adjacent* positions after
    /// de-prepending — a routing loop artifact that the measurement
    /// pipeline discards.
    pub fn has_loop(&self) -> bool {
        has_repeat(self.deprepended_asns())
    }

    /// True if the path contains any reserved/private/documentation ASN.
    pub fn has_reserved_asn(&self) -> bool {
        self.asns().any(|a| a.is_reserved())
    }

    /// True if the path is unusable for topology measurement: empty,
    /// looping after de-prepending, or carrying a reserved ASN. AS_SET
    /// paths are usable; link extraction skips the set hops.
    pub fn is_bogus(&self) -> bool {
        self.is_empty() || self.has_reserved_asn() || self.has_loop()
    }

    /// True if any segment is an AS_SET.
    pub fn has_set(&self) -> bool {
        self.segments.iter().any(|s| s.is_set())
    }

    /// Adjacent pairs of ASNs from the de-prepended pure-sequence portion
    /// of the path. Pairs adjacent to an AS_SET are *not* produced, because
    /// the true adjacency is unknown after aggregation. Pairs are oriented
    /// observation-side first: `(closer to collector, closer to origin)`.
    pub fn links(&self) -> impl Iterator<Item = (Asn, Asn)> + '_ {
        // De-prepending a segment and taking its windows keeps exactly the
        // windows of the raw segment whose two ASNs differ.
        self.segments
            .iter()
            .filter_map(|seg| match seg {
                AsPathSegment::Sequence(v) => Some(v),
                AsPathSegment::Set(_) => None,
            })
            .flat_map(|v| v.windows(2).filter(|w| w[0] != w[1]).map(|w| (w[0], w[1])))
    }

    /// Prepend an ASN at the front (what an AS does when exporting a route
    /// to a neighbor). Creates a sequence segment if needed.
    pub fn prepend(&mut self, asn: Asn) {
        match self.segments.first_mut() {
            Some(AsPathSegment::Sequence(v)) if v.len() < Self::MAX_SEGMENT_LEN => {
                v.insert(0, asn);
            }
            _ => {
                self.segments.insert(0, AsPathSegment::Sequence(vec![asn]));
            }
        }
    }

    /// A copy of this path with `asn` prepended.
    pub fn prepended(&self, asn: Asn) -> AsPath {
        let mut p = self.clone();
        p.prepend(asn);
        p
    }
}

/// Walks of up to this many hops are checked for repeats in a stack
/// buffer; longer ones (rare: real paths have a handful of hops) fall
/// back to sorting a copy.
const INLINE_HOPS: usize = 32;

/// True if the walk yields any ASN twice.
fn has_repeat(mut asns: impl Iterator<Item = Asn>) -> bool {
    let mut seen = [Asn(0); INLINE_HOPS];
    let mut len = 0;
    while let Some(asn) = asns.next() {
        if seen[..len].contains(&asn) {
            return true;
        }
        if len == INLINE_HOPS {
            let mut all = seen.to_vec();
            all.push(asn);
            all.extend(asns);
            all.sort_unstable();
            return all.windows(2).any(|w| w[0] == w[1]);
        }
        seen[len] = asn;
        len += 1;
    }
    false
}

impl fmt::Display for AsPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for seg in &self.segments {
            if !first {
                write!(f, " ")?;
            }
            first = false;
            match seg {
                AsPathSegment::Sequence(v) => {
                    for (i, a) in v.iter().enumerate() {
                        if i > 0 {
                            write!(f, " ")?;
                        }
                        write!(f, "{a}")?;
                    }
                }
                AsPathSegment::Set(v) => {
                    write!(f, "{{")?;
                    for (i, a) in v.iter().enumerate() {
                        if i > 0 {
                            write!(f, ",")?;
                        }
                        write!(f, "{a}")?;
                    }
                    write!(f, "}}")?;
                }
            }
        }
        Ok(())
    }
}

impl FromStr for AsPath {
    type Err = ParseError;

    /// Parses the textual form used by `show ip bgp` / route collectors:
    /// whitespace-separated ASNs, with AS_SETs in `{a,b,c}` braces.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        if s.is_empty() {
            return Ok(AsPath::empty());
        }
        let mut segments: Vec<AsPathSegment> = Vec::new();
        let mut current_seq: Vec<Asn> = Vec::new();
        for token in s.split_whitespace() {
            if token.starts_with('{') {
                if !current_seq.is_empty() {
                    segments.push(AsPathSegment::Sequence(std::mem::take(&mut current_seq)));
                }
                let inner = token
                    .strip_prefix('{')
                    .and_then(|t| t.strip_suffix('}'))
                    .ok_or_else(|| ParseError::syntax("{a,b} AS_SET", token.to_string()))?;
                let mut set = Vec::new();
                for part in inner.split(',').filter(|p| !p.is_empty()) {
                    set.push(part.parse::<Asn>()?);
                }
                if set.is_empty() {
                    return Err(ParseError::syntax("non-empty AS_SET", token.to_string()));
                }
                segments.push(AsPathSegment::Set(set));
            } else {
                current_seq.push(token.parse::<Asn>()?);
            }
        }
        if !current_seq.is_empty() {
            segments.push(AsPathSegment::Sequence(current_seq));
        }
        Ok(AsPath { segments })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(asns: &[u32]) -> AsPath {
        AsPath::from_sequence(asns.iter().map(|&a| Asn(a)).collect::<Vec<_>>())
    }

    #[test]
    fn parse_and_display_sequence() {
        let p: AsPath = "3356 1299 6939 112".parse().unwrap();
        assert_eq!(p, seq(&[3356, 1299, 6939, 112]));
        assert_eq!(p.to_string(), "3356 1299 6939 112");
        assert_eq!(p.len(), 4);
        assert_eq!(p.routing_length(), 4);
        assert_eq!(p.origin(), Some(Asn(112)));
        assert_eq!(p.first(), Some(Asn(3356)));
    }

    #[test]
    fn parse_and_display_with_set() {
        let p: AsPath = "3356 1299 {4,5,6}".parse().unwrap();
        assert_eq!(p.segments().len(), 2);
        assert!(p.has_set());
        assert_eq!(p.to_string(), "3356 1299 {4,5,6}");
        assert_eq!(p.origin(), None, "a path ending in an AS_SET has no single origin");
        assert_eq!(p.routing_length(), 3);
        assert_eq!(p.len(), 5);
    }

    #[test]
    fn parse_empty_and_garbage() {
        assert!("".parse::<AsPath>().unwrap().is_empty());
        assert!("   ".parse::<AsPath>().unwrap().is_empty());
        assert!("1 2 x".parse::<AsPath>().is_err());
        assert!("{}".parse::<AsPath>().is_err());
        assert!("{1,2".parse::<AsPath>().is_err());
    }

    #[test]
    fn links_skip_sets_and_prepending() {
        let p: AsPath = "10 10 20 {30,40} 50 60".parse().unwrap();
        let links: Vec<_> = p.links().collect();
        assert_eq!(links, vec![(Asn(10), Asn(20)), (Asn(50), Asn(60))]);
    }

    #[test]
    fn deprepended_collapses_adjacent_duplicates() {
        let p: AsPath = "10 10 10 20 20 30".parse().unwrap();
        assert_eq!(p.deprepended(), seq(&[10, 20, 30]));
        // Non-adjacent duplicates are preserved (that's a loop, not prepending).
        let p2: AsPath = "10 20 10".parse().unwrap();
        assert_eq!(p2.deprepended(), seq(&[10, 20, 10]));
    }

    #[test]
    fn loop_detection() {
        assert!(!seq(&[1, 2, 3]).has_loop());
        assert!(!"1 1 2 3 3".parse::<AsPath>().unwrap().has_loop());
        assert!("1 2 1".parse::<AsPath>().unwrap().has_loop());
        assert!("1 2 3 2 4".parse::<AsPath>().unwrap().has_loop());
    }

    #[test]
    fn reserved_asn_detection() {
        assert!(!seq(&[3356, 1299]).has_reserved_asn());
        assert!(seq(&[3356, 64512]).has_reserved_asn());
        assert!(seq(&[3356, 0]).has_reserved_asn());
        assert!(seq(&[3356, 23456]).has_reserved_asn());
    }

    #[test]
    fn prepend_builds_path_front_to_back() {
        let mut p = AsPath::empty();
        p.prepend(Asn(112)); // origin announces
        p.prepend(Asn(6939)); // provider exports
        p.prepend(Asn(3356));
        assert_eq!(p, seq(&[3356, 6939, 112]));
        let q = p.prepended(Asn(174));
        assert_eq!(q.first(), Some(Asn(174)));
        assert_eq!(p.len(), 3, "prepended() must not mutate the original");
    }

    #[test]
    fn prepend_respects_segment_limit() {
        let mut p = AsPath::from_sequence(vec![Asn(1); AsPath::MAX_SEGMENT_LEN]);
        p.prepend(Asn(2));
        assert_eq!(p.segments().len(), 2);
        assert_eq!(p.len(), AsPath::MAX_SEGMENT_LEN + 1);
    }

    #[test]
    fn from_segments_validates_limits() {
        let too_long = vec![AsPathSegment::Sequence(vec![Asn(1); 256])];
        assert!(matches!(AsPath::from_segments(too_long), Err(TypeError::SegmentTooLong(256))));
        let too_many = vec![AsPathSegment::Sequence(vec![Asn(1)]); 65];
        assert!(matches!(AsPath::from_segments(too_many), Err(TypeError::TooManySegments(65))));
        let fine =
            vec![AsPathSegment::Sequence(vec![Asn(1), Asn(2)]), AsPathSegment::Set(vec![Asn(3)])];
        assert!(AsPath::from_segments(fine).is_ok());
    }

    #[test]
    fn contains_and_asns_iteration() {
        let p: AsPath = "1 2 {3,4} 5".parse().unwrap();
        assert!(p.contains(Asn(3)));
        assert!(p.contains(Asn(5)));
        assert!(!p.contains(Asn(9)));
        assert_eq!(p.asns().count(), 5);
    }

    #[test]
    fn empty_path_accessors() {
        let p = AsPath::empty();
        assert!(p.is_empty());
        assert_eq!(p.origin(), None);
        assert_eq!(p.first(), None);
        assert_eq!(p.links().count(), 0);
        assert_eq!(p.to_string(), "");
        assert_eq!(AsPath::from_sequence(Vec::<Asn>::new()), p);
    }

    #[test]
    fn serde_roundtrip() {
        let p: AsPath = "3356 1299 {4,5}".parse().unwrap();
        let json = serde_json::to_string(&p).unwrap();
        let back: AsPath = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
    }
}
