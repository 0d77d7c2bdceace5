//! Streaming BGP4MP ingestion: a resident RIB that replays update
//! archives window by window, with delta-repaired temporal sweeps.
//!
//! The paper's methodology is snapshot-oriented: pool the collectors'
//! TABLE_DUMP_V2 files, run the measurement once. Real archives, though,
//! interleave periodic snapshots with continuous BGP4MP update streams,
//! and a longitudinal study replays those updates to measure how the
//! topology — and the hybrid-relationship findings — drift over time.
//! This module provides that replay path:
//!
//! * [`LiveRib`] — a resident routing table keyed by `(prefix, peer)`
//!   that applies decoded [`mrt::MrtRecord`] update messages (announce,
//!   path change, withdraw) and can emit its current state as a canonical
//!   [`RibSnapshot`] at any instant.
//! * [`UpdateStream`] — a windowed sequence of update records, parseable
//!   zero-copy from raw MRT bytes ([`UpdateStream::from_bytes`]) or
//!   wrapped around synthesised windows
//!   (`routesim::Scenario::update_stream`).
//! * [`ExtractCache`] — an incrementally maintained mirror of
//!   [`crate::extract::extract`]'s output: per-plane entry counters,
//!   distinct de-prepended paths with occurrence counts, link reference
//!   counts and the per-link distinct-IPv6-path visibility. Applying a
//!   [`RibDelta`] costs work proportional to the changed route, not the
//!   table.
//! * [`ValleyCache`] — per-head valley-free [`DistanceMap`]s reused
//!   across windows. When the annotated graph changes between windows by
//!   pure relationship *additions*, every cached map is repaired in place
//!   via [`DistanceMap::apply_correction_with`]; a single flip is
//!   repaired through the same delta engine; anything wider (an edge or
//!   node vanishing, several flips at once) resets the cache and the maps
//!   are recomputed lazily. Repairs are exact, so the valley report is
//!   byte-identical to a fresh analysis.
//! * [`TemporalSweep`] — the window driver: apply one window of updates,
//!   run the measurement pipeline over the resident table (routing the
//!   extraction and valley stages through the caches when incremental
//!   mode is on), and report per-window churn statistics.
//!
//! **Determinism contract.** Replaying a stream to window *w* produces a
//! report byte-identical to a full recompute over [`LiveRib::snapshot`]
//! at window *w* — at every worker count, with incremental repair on or
//! off. The determinism suite and a property test pin this.

use std::collections::BTreeMap;

use asgraph::{AsGraph, DeltaOutcome, DistanceMap, EdgeCorrection, RemovalPolicy};
use bgp_types::{
    Asn, CollectorId, IpVersion, PathAttributes, PeerId, Prefix, Relationship, RibEntry,
    RibSnapshot, RouteSource,
};
use bytes::{Bytes, BytesMut};
use irr::CommunityDictionary;
use mrt::{MrtBytesReader, MrtError, MrtRecord, MrtRecordBody};
use topogen::GroundTruth;

use crate::extract::{ExtractedData, ObservedPath};
use crate::pipeline::{Pipeline, PipelineInput};
use crate::report::Report;
use crate::valley::{analyze_valleys_impl, ValleyReport};

/// One route-level change produced by applying an update message: the
/// route under `(prefix, peer)` went from `old` to `new` (either side
/// `None` when the route appeared or disappeared).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RibDelta {
    /// The affected prefix (its version is the plane of the change).
    pub prefix: Prefix,
    /// The peer whose route changed.
    pub peer: PeerId,
    /// Attributes before the change (`None`: the route is new).
    pub old: Option<PathAttributes>,
    /// Attributes after the change (`None`: the route was withdrawn).
    pub new: Option<PathAttributes>,
}

/// Counters over one applied batch of update records.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ApplyStats {
    /// Announcement NLRI processed (including re-announcements).
    pub announcements: usize,
    /// Withdrawal prefixes processed (including no-op withdrawals).
    pub withdrawals: usize,
    /// Routes whose table state actually changed.
    pub changed: usize,
    /// Messages that restated the table verbatim (duplicate announce,
    /// withdraw of an absent route).
    pub redundant: usize,
}

impl ApplyStats {
    fn absorb(&mut self, other: ApplyStats) {
        self.announcements += other.announcements;
        self.withdrawals += other.withdrawals;
        self.changed += other.changed;
        self.redundant += other.redundant;
    }
}

/// A resident routing table: the collapsed `(prefix, peer)` view of a
/// pooled snapshot, mutable by BGP4MP update messages.
///
/// The table is a sorted map, so [`LiveRib::snapshot`] always emits
/// entries in one canonical order regardless of the update history that
/// produced the state — the property the replay-equals-recompute
/// contract leans on.
#[derive(Debug, Clone, Default)]
pub struct LiveRib {
    collector: Option<CollectorId>,
    timestamp: u64,
    table: BTreeMap<(Prefix, PeerId), PathAttributes>,
}

impl LiveRib {
    /// Collapse a pooled snapshot into a resident table. When the pool
    /// carries several entries for the same `(prefix, peer)` — the same
    /// feeder seen through two collectors — the last one wins, exactly as
    /// a replayed duplicate announcement would.
    pub fn from_snapshot(snapshot: &RibSnapshot) -> Self {
        let mut table = BTreeMap::new();
        for entry in &snapshot.entries {
            table.insert((entry.prefix, entry.peer), entry.attrs.clone());
        }
        LiveRib { collector: snapshot.collector.clone(), timestamp: snapshot.timestamp, table }
    }

    /// Number of resident routes.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// True when no route is resident.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// The timestamp of the last applied record (or of the base snapshot).
    pub fn timestamp(&self) -> u64 {
        self.timestamp
    }

    /// Apply one decoded MRT record. BGP4MP UPDATE messages mutate the
    /// table (withdrawals first, then announcements, as RFC 4271 orders
    /// them inside one message); every other record type — including
    /// OPEN/KEEPALIVE wrapped in BGP4MP — is ignored. Returns the
    /// route-level deltas, in the order they were applied, and updates
    /// `stats`.
    pub fn apply_record(&mut self, record: &MrtRecord, stats: &mut ApplyStats) -> Vec<RibDelta> {
        let MrtRecordBody::Bgp4mp(message) = &record.body else {
            return Vec::new();
        };
        let Some(update) = &message.update else {
            return Vec::new();
        };
        self.timestamp = record.header.timestamp as u64;
        let peer = PeerId::new(message.peer_asn, message.peer_addr);
        let mut deltas = Vec::new();
        for prefix in &update.withdrawn {
            stats.withdrawals += 1;
            match self.table.remove(&(*prefix, peer)) {
                Some(old) => {
                    stats.changed += 1;
                    deltas.push(RibDelta { prefix: *prefix, peer, old: Some(old), new: None });
                }
                None => stats.redundant += 1,
            }
        }
        for prefix in &update.announced {
            stats.announcements += 1;
            let old = self.table.insert((*prefix, peer), update.attrs.clone());
            if old.as_ref() == Some(&update.attrs) {
                stats.redundant += 1;
                continue;
            }
            stats.changed += 1;
            deltas.push(RibDelta { prefix: *prefix, peer, old, new: Some(update.attrs.clone()) });
        }
        deltas
    }

    /// The current table as a canonical snapshot: entries sorted by
    /// `(prefix, peer)`, stamped with the latest applied timestamp.
    pub fn snapshot(&self) -> RibSnapshot {
        let mut snapshot = RibSnapshot {
            collector: self.collector.clone(),
            timestamp: self.timestamp,
            entries: Vec::with_capacity(self.table.len()),
        };
        for ((prefix, peer), attrs) in &self.table {
            let mut entry = RibEntry::new(*peer, *prefix, attrs.clone());
            entry.source = RouteSource::MrtTableDump;
            snapshot.push(entry);
        }
        snapshot
    }

    /// Iterate the resident routes in canonical order.
    pub fn routes(&self) -> impl Iterator<Item = (&Prefix, &PeerId, &PathAttributes)> {
        self.table.iter().map(|((prefix, peer), attrs)| (prefix, peer, attrs))
    }
}

/// A windowed update stream: each window holds the records between two
/// consecutive table snapshots.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UpdateStream {
    windows: Vec<Vec<MrtRecord>>,
}

impl UpdateStream {
    /// Wrap pre-grouped windows (e.g. from
    /// `routesim::Scenario::update_stream`).
    pub fn from_windows(windows: Vec<Vec<MrtRecord>>) -> Self {
        UpdateStream { windows }
    }

    /// Parse a raw MRT updates file zero-copy and group consecutive
    /// records that share a header timestamp into windows — the inverse
    /// of [`UpdateStream::to_bytes`].
    pub fn from_bytes(buf: Bytes) -> Result<Self, MrtError> {
        let mut windows: Vec<Vec<MrtRecord>> = Vec::new();
        let mut current_ts = None;
        for record in MrtBytesReader::new(buf).records() {
            let record = record?;
            if current_ts != Some(record.header.timestamp) {
                current_ts = Some(record.header.timestamp);
                windows.push(Vec::new());
            }
            windows.last_mut().expect("pushed above").push(record);
        }
        Ok(UpdateStream { windows })
    }

    /// Encode every record back to MRT wire bytes, windows concatenated
    /// in order.
    pub fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::new();
        for record in self.windows.iter().flatten() {
            record.encode(&mut buf);
        }
        buf.freeze()
    }

    /// The windows, in replay order.
    pub fn windows(&self) -> &[Vec<MrtRecord>] {
        &self.windows
    }

    /// Number of windows.
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// True when the stream holds no windows.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Total records across all windows.
    pub fn record_count(&self) -> usize {
        self.windows.iter().map(Vec::len).sum()
    }
}

fn canonical(a: Asn, b: Asn) -> (Asn, Asn) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// An incrementally maintained mirror of the extraction stage.
///
/// [`ExtractCache::materialize`] produces an [`ExtractedData`] equal — in
/// every report-visible respect — to running
/// [`crate::extract::extract`] over the corresponding
/// [`LiveRib::snapshot`], but applying one [`RibDelta`] costs work
/// proportional to the changed route's path length, not to the table.
#[derive(Debug, Clone, Default)]
pub struct ExtractCache {
    entries_v4: usize,
    entries_v6: usize,
    discarded: usize,
    paths_v4: BTreeMap<Vec<Asn>, usize>,
    paths_v6: BTreeMap<Vec<Asn>, usize>,
    links_v4: BTreeMap<(Asn, Asn), usize>,
    links_v6: BTreeMap<(Asn, Asn), usize>,
    v6_path_links: BTreeMap<(Asn, Asn), usize>,
}

impl ExtractCache {
    /// Seed the cache from a resident table.
    pub fn from_rib(rib: &LiveRib) -> Self {
        let mut cache = ExtractCache::default();
        let mut path = Vec::new();
        for (prefix, _, attrs) in rib.routes() {
            cache.add(prefix.version(), attrs, &mut path);
        }
        cache
    }

    /// Fold one route-level change into the counters.
    pub fn apply(&mut self, delta: &RibDelta) {
        let plane = delta.prefix.version();
        let mut path = Vec::new();
        if let Some(old) = &delta.old {
            self.remove(plane, old, &mut path);
        }
        if let Some(new) = &delta.new {
            self.add(plane, new, &mut path);
        }
    }

    /// Count one route in. `path` is scratch space for its de-prepended
    /// path; a path's key is allocated only when the path is new.
    fn add(&mut self, plane: IpVersion, attrs: &PathAttributes, path: &mut Vec<Asn>) {
        if attrs.as_path.is_bogus() {
            self.discarded += 1;
            return;
        }
        match plane {
            IpVersion::V4 => self.entries_v4 += 1,
            IpVersion::V6 => self.entries_v6 += 1,
        }
        path.clear();
        path.extend(attrs.as_path.deprepended_asns());
        let paths = match plane {
            IpVersion::V4 => &mut self.paths_v4,
            IpVersion::V6 => &mut self.paths_v6,
        };
        if let Some(occurrences) = paths.get_mut(path.as_slice()) {
            *occurrences += 1;
        } else {
            paths.insert(path.clone(), 1);
            if plane == IpVersion::V6 {
                // A new distinct IPv6 path raises the visibility of every
                // link it traverses — over flattened hops, exactly as
                // `extract` counts them.
                for pair in path.windows(2) {
                    *self.v6_path_links.entry(canonical(pair[0], pair[1])).or_insert(0) += 1;
                }
            }
        }
        let links = match plane {
            IpVersion::V4 => &mut self.links_v4,
            IpVersion::V6 => &mut self.links_v6,
        };
        for (a, b) in attrs.as_path.links() {
            *links.entry(canonical(a, b)).or_insert(0) += 1;
        }
    }

    /// Count one route out; `path` as in [`ExtractCache::add`].
    fn remove(&mut self, plane: IpVersion, attrs: &PathAttributes, path: &mut Vec<Asn>) {
        if attrs.as_path.is_bogus() {
            self.discarded -= 1;
            return;
        }
        match plane {
            IpVersion::V4 => self.entries_v4 -= 1,
            IpVersion::V6 => self.entries_v6 -= 1,
        }
        path.clear();
        path.extend(attrs.as_path.deprepended_asns());
        let paths = match plane {
            IpVersion::V4 => &mut self.paths_v4,
            IpVersion::V6 => &mut self.paths_v6,
        };
        let occurrences = paths.get_mut(path.as_slice()).expect("removed path was added");
        *occurrences -= 1;
        if *occurrences == 0 {
            paths.remove(path.as_slice());
            if plane == IpVersion::V6 {
                for pair in path.windows(2) {
                    let key = canonical(pair[0], pair[1]);
                    let count = self.v6_path_links.get_mut(&key).expect("counted on add");
                    *count -= 1;
                    if *count == 0 {
                        self.v6_path_links.remove(&key);
                    }
                }
            }
        }
        let links = match plane {
            IpVersion::V4 => &mut self.links_v4,
            IpVersion::V6 => &mut self.links_v6,
        };
        for (a, b) in attrs.as_path.links() {
            let key = canonical(a, b);
            let count = links.get_mut(&key).expect("counted on add");
            *count -= 1;
            if *count == 0 {
                links.remove(&key);
            }
        }
    }

    /// Materialise the counters as [`ExtractedData`]. The graph inserts
    /// links in sorted order (not first-seen order, as a fresh extraction
    /// would), which permutes internal node ids but no report byte — every
    /// downstream consumer sorts or counts.
    pub fn materialize(&self) -> ExtractedData {
        let mut data = ExtractedData {
            entries_v4: self.entries_v4,
            entries_v6: self.entries_v6,
            discarded_entries: self.discarded,
            ..Default::default()
        };
        for &(a, b) in self.links_v4.keys() {
            data.graph.observe_link(a, b, IpVersion::V4);
        }
        for &(a, b) in self.links_v6.keys() {
            data.graph.observe_link(a, b, IpVersion::V6);
        }
        for (path, &occurrences) in &self.paths_v4 {
            data.paths_v4.push(ObservedPath { path: path.clone(), occurrences });
        }
        for (path, &occurrences) in &self.paths_v6 {
            data.paths_v6.push(ObservedPath { path: path.clone(), occurrences });
        }
        data.v6_link_path_count = self.v6_path_links.iter().map(|(&k, &v)| (k, v)).collect();
        data
    }
}

/// Counters over one window's valley-cache maintenance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// Relationship-relevant edge changes observed between windows.
    pub corrections: usize,
    /// Corrections the delta engine proved label-neutral.
    pub unchanged: usize,
    /// Corrections resolved by in-place frontier repair.
    pub repaired: usize,
    /// Corrections that forced a full per-map rebuild.
    pub rebuilt: usize,
    /// Cache resets (node churn, vanished edges, or too-wide diffs).
    pub resets: usize,
    /// Distance maps served from the cache this window.
    pub maps_reused: usize,
    /// Distance maps computed fresh this window.
    pub maps_computed: usize,
}

impl RepairStats {
    fn absorb(&mut self, other: RepairStats) {
        self.corrections += other.corrections;
        self.unchanged += other.unchanged;
        self.repaired += other.repaired;
        self.rebuilt += other.rebuilt;
        self.resets += other.resets;
        self.maps_reused += other.maps_reused;
        self.maps_computed += other.maps_computed;
    }
}

/// Per-head valley-free [`DistanceMap`]s reused across windows, repaired
/// through the delta engine when the annotated graph changes compatibly.
#[derive(Debug, Default)]
pub struct ValleyCache {
    policy: RemovalPolicy,
    nodes: Vec<Asn>,
    edges: BTreeMap<(Asn, Asn), Relationship>,
    maps: BTreeMap<Asn, DistanceMap>,
    stats: RepairStats,
}

impl ValleyCache {
    /// An empty cache using `policy` for load-bearing removals inside a
    /// single-flip repair.
    pub fn new(policy: RemovalPolicy) -> Self {
        ValleyCache { policy, ..Default::default() }
    }

    /// Reconcile the cache with this window's annotated graph. Cached maps
    /// survive (repaired where needed) when the node set is unchanged and
    /// the edge diff is repairable through
    /// [`DistanceMap::apply_correction_with`]: any number of pure
    /// relationship *additions*, or exactly one flip. Vanished edges,
    /// node churn or multiple simultaneous flips reset the cache — the
    /// sequential-composition argument for the delta engine only covers
    /// monotone (addition-only) batches.
    pub fn prepare(&mut self, annotated: &AsGraph) {
        let plane = IpVersion::V6;
        let new_nodes: Vec<Asn> = annotated.asns().collect();
        let mut new_edges: BTreeMap<(Asn, Asn), Relationship> = BTreeMap::new();
        for edge in annotated.plane_edges(plane) {
            let (a, b) = canonical(edge.a, edge.b);
            if let Some(rel) = annotated.relationship(a, b, plane) {
                new_edges.insert((a, b), rel);
            }
        }

        if self.nodes != new_nodes {
            self.reset();
        } else if self.edges.keys().any(|key| !new_edges.contains_key(key)) {
            // An annotated edge vanished from the plane: not expressible
            // as an `EdgeCorrection`, so the maps cannot be repaired.
            self.reset();
        } else {
            let corrections: Vec<EdgeCorrection> = new_edges
                .iter()
                .filter(|(key, rel)| self.edges.get(*key) != Some(rel))
                .map(|(&(a, b), &new)| EdgeCorrection {
                    a,
                    b,
                    plane,
                    old: self.edges.get(&(a, b)).copied(),
                    new,
                })
                .collect();
            self.stats.corrections += corrections.len();
            let flips = corrections.iter().filter(|c| c.old.is_some()).count();
            if flips > 1 || (flips == 1 && corrections.len() > 1) {
                self.reset();
            } else {
                for correction in &corrections {
                    for map in self.maps.values_mut() {
                        match map.apply_correction_with(annotated, correction, self.policy) {
                            DeltaOutcome::Unchanged => self.stats.unchanged += 1,
                            DeltaOutcome::Incremental => self.stats.repaired += 1,
                            DeltaOutcome::FullRebuild => self.stats.rebuilt += 1,
                        }
                    }
                }
            }
        }

        self.nodes = new_nodes;
        self.edges = new_edges;
    }

    fn reset(&mut self) {
        if !self.maps.is_empty() {
            self.stats.resets += 1;
        }
        self.maps.clear();
    }

    /// Whether a valley-free path `head → origin` exists on `annotated`
    /// (which must be the graph last passed to [`ValleyCache::prepare`]).
    /// Serves from a cached (possibly repaired) map, computing and caching
    /// a fresh one on miss.
    pub fn reachable(&mut self, annotated: &AsGraph, head: Asn, origin: Asn) -> bool {
        let map = match self.maps.entry(head) {
            std::collections::btree_map::Entry::Occupied(slot) => {
                self.stats.maps_reused += 1;
                slot.into_mut()
            }
            std::collections::btree_map::Entry::Vacant(slot) => {
                self.stats.maps_computed += 1;
                slot.insert(DistanceMap::compute(annotated, head, IpVersion::V6))
            }
        };
        annotated.node(origin).map(|n| map.is_reachable(n.index())).unwrap_or(false)
    }

    /// Drain this window's repair counters.
    pub fn take_stats(&mut self) -> RepairStats {
        std::mem::take(&mut self.stats)
    }

    /// Number of cached distance maps.
    pub fn cached_maps(&self) -> usize {
        self.maps.len()
    }
}

/// The cache bundle an incremental [`TemporalSweep`] threads through
/// [`Pipeline::run_with_caches`].
#[derive(Debug)]
pub struct IngestCaches {
    /// Incremental extraction counters.
    pub extract: ExtractCache,
    /// Delta-repaired valley reachability maps.
    pub valley: ValleyCache,
}

impl IngestCaches {
    /// Seed the bundle from a resident table.
    pub fn from_rib(rib: &LiveRib, policy: RemovalPolicy) -> Self {
        IngestCaches { extract: ExtractCache::from_rib(rib), valley: ValleyCache::new(policy) }
    }
}

/// Run the valley stage, through the cache when one is supplied. Both
/// arms produce byte-identical reports — the cache's oracle is exact.
pub(crate) fn run_valley_stage(
    data: &ExtractedData,
    annotated: &AsGraph,
    cache: Option<&mut ValleyCache>,
) -> ValleyReport {
    match cache {
        Some(cache) => {
            cache.prepare(annotated);
            analyze_valleys_impl(data, annotated, IpVersion::V6, &mut |graph, head, origin| {
                cache.reachable(graph, head, origin)
            })
        }
        None => crate::valley::analyze_valleys(data, annotated, IpVersion::V6),
    }
}

/// One window's outcome: the report over the table state at the window's
/// end, plus the apply/repair churn that produced it.
#[derive(Debug)]
pub struct WindowOutcome {
    /// Timestamp of the table state this window's report measures.
    pub timestamp: u64,
    /// Update-application counters for the window.
    pub apply: ApplyStats,
    /// Valley-cache repair counters (all-zero in full-recompute mode).
    pub repair: RepairStats,
    /// The measurement report at the window's end.
    pub report: Report,
}

/// The windowed longitudinal driver: replay an [`UpdateStream`] over a
/// [`LiveRib`] and measure after every window.
#[derive(Debug, Clone)]
pub struct TemporalSweep {
    /// The measurement pipeline run after each window.
    pub pipeline: Pipeline,
    /// Repair the extraction/valley state across windows (`true`) or
    /// recompute everything from the snapshot each window (`false`).
    /// Execution-only: both modes render byte-identical reports.
    pub incremental: bool,
}

impl TemporalSweep {
    /// A sweep running `pipeline` after each window.
    pub fn new(pipeline: Pipeline, incremental: bool) -> Self {
        TemporalSweep { pipeline, incremental }
    }

    /// Replay `stream` over a fresh [`LiveRib`] seeded from `base`,
    /// producing one [`WindowOutcome`] per window.
    pub fn run(
        &self,
        base: &RibSnapshot,
        dictionary: &CommunityDictionary,
        truth: Option<&GroundTruth>,
        stream: &UpdateStream,
    ) -> Vec<WindowOutcome> {
        let mut live = LiveRib::from_snapshot(base);
        let policy = self.pipeline.options.sweep.removal_policy();
        let mut caches = self.incremental.then(|| IngestCaches::from_rib(&live, policy));
        let mut outcomes = Vec::with_capacity(stream.len());
        for window in stream.windows() {
            let mut apply = ApplyStats::default();
            for record in window {
                let deltas = live.apply_record(record, &mut apply);
                if let Some(caches) = &mut caches {
                    for delta in &deltas {
                        caches.extract.apply(delta);
                    }
                }
            }
            let input = PipelineInput {
                snapshot: live.snapshot(),
                dictionary: dictionary.clone(),
                truth: truth.cloned(),
            };
            let report = match &mut caches {
                Some(caches) => self.pipeline.run_with_caches(input, caches).0,
                None => self.pipeline.run(input),
            };
            let repair = caches.as_mut().map(|c| c.valley.take_stats()).unwrap_or_default();
            outcomes.push(WindowOutcome { timestamp: live.timestamp(), apply, repair, report });
        }
        outcomes
    }
}

/// Fold per-window [`ApplyStats`]/[`RepairStats`] into stream totals.
pub fn totals(outcomes: &[WindowOutcome]) -> (ApplyStats, RepairStats) {
    let mut apply = ApplyStats::default();
    let mut repair = RepairStats::default();
    for outcome in outcomes {
        apply.absorb(outcome.apply);
        repair.absorb(outcome.repair);
    }
    (apply, repair)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::extract;
    use routesim::{Scenario, SimConfig, UpdateStreamConfig};
    use topogen::TopologyConfig;

    fn scenario() -> Scenario {
        Scenario::build(&TopologyConfig::tiny(), &SimConfig::small())
    }

    fn stream_for(scenario: &Scenario, windows: usize, events: usize, seed: u64) -> UpdateStream {
        UpdateStream::from_windows(scenario.update_stream(&UpdateStreamConfig {
            windows,
            events_per_window: events,
            seed,
        }))
    }

    fn assert_extract_matches(cache: &ExtractCache, snapshot: &RibSnapshot) {
        let incremental = cache.materialize();
        let fresh = extract(snapshot);
        assert_eq!(incremental.entries_v4, fresh.entries_v4);
        assert_eq!(incremental.entries_v6, fresh.entries_v6);
        assert_eq!(incremental.discarded_entries, fresh.discarded_entries);
        assert_eq!(incremental.paths_v4, fresh.paths_v4);
        assert_eq!(incremental.paths_v6, fresh.paths_v6);
        assert_eq!(incremental.v6_link_path_count, fresh.v6_link_path_count);
        for plane in IpVersion::BOTH {
            assert_eq!(incremental.link_count(plane), fresh.link_count(plane));
            for edge in fresh.graph.plane_edges(plane) {
                assert!(
                    incremental.graph.has_link(edge.a, edge.b, plane),
                    "missing {}-{} on {plane}",
                    edge.a,
                    edge.b
                );
            }
        }
    }

    #[test]
    fn live_rib_applies_withdraw_and_reannounce() {
        let scenario = scenario();
        let base = scenario.pooled_snapshot(1);
        let mut live = LiveRib::from_snapshot(&base);
        let before = live.len();
        assert!(before > 0);

        let stream = stream_for(&scenario, 2, 16, 3);
        let mut stats = ApplyStats::default();
        let mut deltas = 0usize;
        for record in stream.windows().iter().flatten() {
            deltas += live.apply_record(record, &mut stats).len();
        }
        assert_eq!(stats.changed, deltas);
        assert!(stats.announcements + stats.withdrawals > 0);
        assert!(stats.changed > 0, "the stream flaps real routes");
        // The table never grows beyond the base universe: the synthesiser
        // only flaps existing keys.
        assert!(live.len() <= before);
        let snap = live.snapshot();
        assert_eq!(snap.len(), live.len());
        // Canonical order: sorted by (prefix, peer).
        let mut keys: Vec<_> = snap.entries.iter().map(|e| (e.prefix, e.peer)).collect();
        let sorted = {
            let mut s = keys.clone();
            s.sort();
            s
        };
        assert_eq!(keys, sorted);
        keys.dedup();
        assert_eq!(keys.len(), snap.len(), "one route per (prefix, peer)");
    }

    #[test]
    fn extract_cache_tracks_fresh_extraction() {
        let scenario = scenario();
        let base = scenario.pooled_snapshot(1);
        let mut live = LiveRib::from_snapshot(&base);
        let mut cache = ExtractCache::from_rib(&live);
        assert_extract_matches(&cache, &live.snapshot());

        let stream = stream_for(&scenario, 3, 24, 9);
        let mut stats = ApplyStats::default();
        for window in stream.windows() {
            for record in window {
                for delta in live.apply_record(record, &mut stats) {
                    cache.apply(&delta);
                }
            }
            assert_extract_matches(&cache, &live.snapshot());
        }
    }

    #[test]
    fn update_stream_roundtrips_through_bytes() {
        let scenario = scenario();
        let stream = stream_for(&scenario, 3, 8, 2);
        let parsed = UpdateStream::from_bytes(stream.to_bytes()).unwrap();
        // The synthesiser leaves `header.length` at 0 (encode computes it),
        // so compare re-encoded bytes, not structs.
        assert_eq!(parsed.to_bytes(), stream.to_bytes(), "byte-stable round trip");
        assert_eq!(parsed.record_count(), 24);
        assert_eq!(parsed.len(), 3);
        // The ET microsecond field survives the byte round trip.
        assert_eq!(parsed.windows()[1][3].micros, Some(3_000));
    }

    #[test]
    fn temporal_sweep_incremental_matches_full_recompute() {
        let scenario = scenario();
        let base = scenario.pooled_snapshot(1);
        let dictionary = scenario.registry.build_dictionary();
        let stream = stream_for(&scenario, 3, 24, 7);
        let pipeline = Pipeline::default();

        let full = TemporalSweep::new(pipeline.clone(), false).run(
            &base,
            &dictionary,
            Some(&scenario.truth),
            &stream,
        );
        let incremental = TemporalSweep::new(pipeline, true).run(
            &base,
            &dictionary,
            Some(&scenario.truth),
            &stream,
        );
        assert_eq!(full.len(), 3);
        for (f, i) in full.iter().zip(&incremental) {
            assert_eq!(f.timestamp, i.timestamp);
            assert_eq!(f.apply, i.apply, "apply churn is mode-independent");
            assert_eq!(
                f.report.to_json(),
                i.report.to_json(),
                "window report diverged at t={}",
                f.timestamp
            );
        }
        let (_, full_repair) = totals(&full);
        assert_eq!(full_repair, RepairStats::default(), "full mode never repairs");
        let (apply, repair) = totals(&incremental);
        assert!(apply.changed > 0);
        assert!(repair.maps_computed + repair.maps_reused > 0 || repair.corrections == 0);
    }

    #[test]
    fn valley_cache_repairs_pure_additions() {
        use bgp_types::Relationship;
        // A chain 1-2-3 annotated p2c/p2c; maps cached; then a new peering
        // 3-4 appears (pure addition) — the cached map must repair, not
        // reset, and agree with a fresh BFS.
        let mut g = AsGraph::new();
        g.annotate_both(Asn(1), Asn(2), Relationship::ProviderToCustomer);
        g.annotate_both(Asn(2), Asn(3), Relationship::ProviderToCustomer);
        g.observe_link(Asn(3), Asn(4), IpVersion::V6);
        g.observe_link(Asn(1), Asn(2), IpVersion::V6);
        g.observe_link(Asn(2), Asn(3), IpVersion::V6);

        let mut cache = ValleyCache::new(RemovalPolicy::Rebuild);
        cache.prepare(&g);
        assert!(cache.reachable(&g, Asn(1), Asn(3)));
        assert!(!cache.reachable(&g, Asn(1), Asn(4)), "4 unreachable before the addition");
        assert_eq!(cache.cached_maps(), 1);

        g.annotate(Asn(3), Asn(4), IpVersion::V6, Relationship::ProviderToCustomer);
        cache.prepare(&g);
        let stats_mid = cache.stats;
        assert_eq!(stats_mid.resets, 0, "a pure addition repairs in place");
        assert_eq!(stats_mid.corrections, 1);
        assert!(cache.reachable(&g, Asn(1), Asn(4)), "repaired map sees the new edge");
        let fresh = DistanceMap::compute(&g, Asn(1), IpVersion::V6);
        let cached = cache.maps.get(&Asn(1)).unwrap();
        assert_eq!(cached.distances(), fresh.distances());
    }

    #[test]
    fn valley_cache_resets_on_vanished_edges_and_node_churn() {
        use bgp_types::Relationship;
        let mut g = AsGraph::new();
        g.annotate(Asn(1), Asn(2), IpVersion::V6, Relationship::PeerToPeer);
        g.observe_link(Asn(1), Asn(2), IpVersion::V6);
        let mut cache = ValleyCache::new(RemovalPolicy::Rebuild);
        cache.prepare(&g);
        assert!(cache.reachable(&g, Asn(1), Asn(2)));
        assert_eq!(cache.cached_maps(), 1);

        // Same node set, edge no longer annotated on the plane: rebuild a
        // graph where 1-2 exists but is unannotated.
        let mut g2 = AsGraph::new();
        g2.observe_link(Asn(1), Asn(2), IpVersion::V6);
        cache.prepare(&g2);
        assert_eq!(cache.stats.resets, 1, "vanished annotation resets the cache");
        assert_eq!(cache.cached_maps(), 0);

        assert!(!cache.reachable(&g2, Asn(1), Asn(2)));
        // Node churn resets too.
        let mut g3 = AsGraph::new();
        g3.observe_link(Asn(1), Asn(3), IpVersion::V6);
        g3.annotate(Asn(1), Asn(3), IpVersion::V6, Relationship::PeerToPeer);
        cache.prepare(&g3);
        assert_eq!(cache.stats.resets, 2);
    }
}
