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
//!   counts and the per-link distinct-IPv6-path visibility — plus Gao's
//!   per-link votes over those paths ([`crate::baselines::GaoVotes`]).
//!   Applying a [`RibDelta`] costs work proportional to the changed
//!   route, not the table, and the cache is the one intake for route
//!   changes: it queues each delta for the dictionary-dependent state.
//! * [`InferenceCache`] — the community vote tallies
//!   ([`crate::communities::CommunityVotes`]) and the LocPrf learn table
//!   ([`crate::locpref::LocPrfRoutes`]), maintained the same way under
//!   the dictionary they were built with. [`Pipeline::run_with_caches`]
//!   builds it from its first input, feeds it the deltas
//!   [`ExtractCache`] queued since, and rebuilds it when the dictionary
//!   changes.
//! * [`ValleyCache`] — per-head valley-free [`DistanceMap`]s reused
//!   across windows. When the annotated graph changes between windows by
//!   pure relationship *additions*, every cached map is repaired in place
//!   via [`DistanceMap::apply_correction_with`]; a single flip is
//!   repaired through the same delta engine; anything wider (an edge or
//!   node vanishing, several flips at once) resets the cache and the maps
//!   are recomputed lazily. Repairs are exact, so the valley report is
//!   byte-identical to a fresh analysis.
//! * [`TemporalSweep`] — the window driver: apply one window of updates,
//!   run the measurement pipeline over the resident table (serving
//!   extraction, communities, LocPrf, the Gao baseline and the valley
//!   stage from the caches when incremental mode is on, so no stage
//!   rescans the table), and report per-window churn statistics.
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

use crate::baselines::{BaselineInference, GaoVotes};
use crate::communities::{CommunityInference, CommunityVotes};
use crate::extract::{ExtractedData, ObservedPath};
use crate::locpref::LocPrfRoutes;
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

/// One distinct de-prepended path in [`ExtractCache`]: how many routes
/// carry it, and the top provider it last cast its Gao votes with.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct PathState {
    occurrences: usize,
    top: usize,
}

/// An incrementally maintained mirror of the extraction stage and of the
/// Gao baseline that reads it.
///
/// [`ExtractCache::materialize`] produces an [`ExtractedData`] equal — in
/// every report-visible respect — to running
/// [`crate::extract::extract`] over the corresponding
/// [`LiveRib::snapshot`], and [`ExtractCache::baseline`] the
/// [`BaselineInference`] of [`crate::baselines::gao_inference`] over it,
/// but applying one [`RibDelta`] costs work proportional to the changed
/// route's path length, not to the table.
///
/// The cache is the one intake for route changes: once
/// [`Pipeline::run_with_caches`] has read it, every applied delta is also
/// queued for the state that needs the dictionary to read a route
/// ([`InferenceCache`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExtractCache {
    entries_v4: usize,
    entries_v6: usize,
    discarded: usize,
    paths_v4: BTreeMap<Vec<Asn>, PathState>,
    paths_v6: BTreeMap<Vec<Asn>, PathState>,
    links_v4: BTreeMap<(Asn, Asn), usize>,
    links_v6: BTreeMap<(Asn, Asn), usize>,
    v6_path_links: BTreeMap<(Asn, Asn), usize>,
    gao: GaoVotes,
    /// Deltas applied since the last `take_pending`; `None` until the
    /// first call, so nothing queues without a reader.
    pending: Option<Vec<RibDelta>>,
}

impl ExtractCache {
    /// Seed the cache from a resident table.
    pub fn from_rib(rib: &LiveRib) -> Self {
        let mut cache = ExtractCache::default();
        let mut path = Vec::new();
        for (prefix, _, attrs) in rib.routes() {
            cache.add(prefix.version(), attrs, &mut path);
        }
        cache.settle();
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
        if let Some(pending) = &mut self.pending {
            pending.push(delta.clone());
        }
    }

    /// The deltas applied since the previous call, in order; the first
    /// call returns none and starts the queue.
    fn take_pending(&mut self) -> Vec<RibDelta> {
        self.pending.replace(Vec::new()).unwrap_or_default()
    }

    /// Number of routes counted in, bogus ones included: the length of the
    /// table the cache mirrors.
    fn route_count(&self) -> usize {
        self.entries_v4 + self.entries_v6 + self.discarded
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
        if let Some(state) = paths.get_mut(path.as_slice()) {
            state.occurrences += 1;
        } else {
            let top = self.gao.add_path(path);
            paths.insert(path.clone(), PathState { occurrences: 1, top });
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
        let state = paths.get_mut(path.as_slice()).expect("removed path was added");
        state.occurrences -= 1;
        if state.occurrences == 0 {
            let top = state.top;
            paths.remove(path.as_slice());
            self.gao.remove_path(path, top);
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

    /// Re-vote the paths whose top provider a degree change may have moved.
    fn settle(&mut self) {
        let paths = self.paths_v4.iter_mut().chain(self.paths_v6.iter_mut());
        self.gao.settle(paths.map(|(path, state)| (path.as_slice(), &mut state.top)));
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
        for (path, state) in &self.paths_v4 {
            data.paths_v4.push(ObservedPath { path: path.clone(), occurrences: state.occurrences });
        }
        for (path, state) in &self.paths_v6 {
            data.paths_v6.push(ObservedPath { path: path.clone(), occurrences: state.occurrences });
        }
        data.v6_link_path_count = self.v6_path_links.iter().map(|(&k, &v)| (k, v)).collect();
        data
    }

    /// The Gao baseline over both planes' paths, as
    /// [`crate::baselines::gao_inference`] with
    /// [`BaselineInput::BothPlanes`](crate::baselines::BaselineInput::BothPlanes)
    /// computes it from [`ExtractCache::materialize`]. Re-votes the paths a
    /// degree change touched first, so the call needs `&mut self`.
    pub fn baseline(&mut self) -> BaselineInference {
        self.settle();
        self.gao.resolve()
    }
}

/// The dictionary-dependent half of a streaming session's inference: the
/// community vote tallies and the LocPrf learn table, maintained route by
/// route under the dictionary they were built with.
///
/// [`InferenceCache::infer`] returns what [`CommunityInference::from_snapshot`]
/// followed by the LocPrf Rosetta Stone computes over the table the cache
/// mirrors, without reading the table.
#[derive(Debug, Clone, PartialEq)]
pub struct InferenceCache {
    dictionary: CommunityDictionary,
    votes: CommunityVotes,
    locpref: LocPrfRoutes,
}

impl InferenceCache {
    /// Build the cache from a snapshot in [`LiveRib::snapshot`] order.
    pub fn from_snapshot(snapshot: &RibSnapshot, dictionary: &CommunityDictionary) -> Self {
        let mut cache = InferenceCache {
            dictionary: dictionary.clone(),
            votes: CommunityVotes::default(),
            locpref: LocPrfRoutes::default(),
        };
        let mut path = Vec::new();
        for entry in &snapshot.entries {
            cache.votes.add_route(entry.plane(), &entry.attrs, dictionary, &mut path);
            cache.locpref.insert(entry.prefix, entry.peer, &entry.attrs, dictionary);
        }
        cache
    }

    /// Fold one route-level change into the tallies and the LocPrf table.
    pub fn apply(&mut self, delta: &RibDelta) {
        let plane = delta.prefix.version();
        let mut path = Vec::new();
        if let Some(old) = &delta.old {
            self.votes.remove_route(plane, old, &self.dictionary, &mut path);
            self.locpref.remove(delta.prefix, delta.peer);
        }
        if let Some(new) = &delta.new {
            self.votes.add_route(plane, new, &self.dictionary, &mut path);
            self.locpref.insert(delta.prefix, delta.peer, new, &self.dictionary);
        }
    }

    /// The community inference, extended by the LocPrf Rosetta Stone when
    /// `use_locpref` is set.
    pub fn infer(&self, use_locpref: bool) -> CommunityInference {
        let mut inference = self.votes.resolve();
        if use_locpref {
            self.locpref.infer(&mut inference);
        }
        inference
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
///
/// Route changes enter through `extract`'s [`ExtractCache::apply`] alone.
/// The extraction counters and the Gao votes take them at once; the
/// community tallies and the LocPrf table need the dictionary, which only
/// the pipeline input carries, so [`Pipeline::run_with_caches`] builds
/// them from its first input and then replays the deltas `extract` queued
/// since the previous run.
#[derive(Debug)]
pub struct IngestCaches {
    /// Incremental extraction counters and Gao votes.
    pub extract: ExtractCache,
    /// Delta-repaired valley reachability maps.
    pub valley: ValleyCache,
    inference: Option<InferenceCache>,
}

impl IngestCaches {
    /// Seed the bundle from a resident table.
    pub fn from_rib(rib: &LiveRib, policy: RemovalPolicy) -> Self {
        IngestCaches {
            extract: ExtractCache::from_rib(rib),
            valley: ValleyCache::new(policy),
            inference: None,
        }
    }

    /// Bring the bundle up to the table `snapshot` was taken from, read
    /// with `dictionary`, and split it for the pipeline's stages.
    ///
    /// # Panics
    ///
    /// If `snapshot` does not hold as many routes as the caches mirror:
    /// it was then taken from another table.
    pub(crate) fn sync(
        &mut self,
        snapshot: &RibSnapshot,
        dictionary: &CommunityDictionary,
    ) -> (&mut ExtractCache, &InferenceCache, &mut ValleyCache) {
        let cached = self.extract.route_count();
        assert!(
            snapshot.len() == cached,
            "run_with_caches: the input snapshot holds {} routes but the caches mirror {cached}; \
             the snapshot must come from the table whose deltas fed the caches",
            snapshot.len()
        );
        let pending = self.extract.take_pending();
        match &mut self.inference {
            Some(cache) if cache.dictionary == *dictionary => {
                for delta in &pending {
                    cache.apply(delta);
                }
            }
            slot => *slot = Some(InferenceCache::from_snapshot(snapshot, dictionary)),
        }
        let inference = self.inference.as_ref().expect("synced above");
        (&mut self.extract, inference, &mut self.valley)
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
    /// Maintain every stage's state across windows through
    /// [`IngestCaches`] (`true`) or recompute everything from the
    /// snapshot each window (`false`).
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
    use crate::baselines::{gao_inference, BaselineInput};
    use crate::extract::extract;
    use crate::locpref::LocPrfRosetta;
    use bgp_types::Community;
    use proptest::prelude::*;
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

    /// A sorted view of an inference, for comparing two of them.
    fn sorted_links(
        inference: &CommunityInference,
    ) -> Vec<(Asn, Asn, IpVersion, crate::communities::InferredRelationship)> {
        let mut links: Vec<_> = inference.iter().map(|(a, b, p, link)| (a, b, p, *link)).collect();
        links.sort_by_key(|&(a, b, p, _)| (a, b, p));
        links
    }

    /// A sorted view of a baseline, for comparing two of them.
    fn sorted_baseline(baseline: &BaselineInference) -> Vec<(Asn, Asn, Relationship)> {
        let mut links: Vec<_> = baseline.iter().collect();
        links.sort();
        links
    }

    /// The caches' oracle after a window: every cache equals a fresh build
    /// from the live table, each resolves to what the batch stage computes
    /// over the table's snapshot, and the cached run's report is the batch
    /// run's.
    fn assert_caches_match_a_fresh_build(
        pipeline: &Pipeline,
        caches: &mut IngestCaches,
        live: &LiveRib,
        dictionary: &CommunityDictionary,
        truth: Option<&GroundTruth>,
    ) {
        let input = || PipelineInput {
            snapshot: live.snapshot(),
            dictionary: dictionary.clone(),
            truth: truth.cloned(),
        };
        let cached = pipeline.run_with_caches(input(), caches).0.to_json();
        assert_eq!(cached, pipeline.run(input()).to_json(), "report diverged");

        let snapshot = live.snapshot();
        // The queue of pending deltas is transport, not state.
        let fresh = ExtractCache {
            pending: caches.extract.pending.clone(),
            ..ExtractCache::from_rib(live)
        };
        assert!(caches.extract == fresh, "extraction cache diverged");
        let inference = caches.inference.as_ref().expect("built by the run");
        assert!(
            *inference == InferenceCache::from_snapshot(&snapshot, dictionary),
            "inference cache diverged"
        );

        let mut batch = CommunityInference::from_snapshot(&snapshot, dictionary);
        assert_eq!(sorted_links(&inference.infer(false)), sorted_links(&batch));
        let rosetta = LocPrfRosetta::learn(&snapshot, dictionary, &batch);
        rosetta.apply(&snapshot, dictionary, &mut batch);
        let cached = inference.infer(true);
        assert_eq!(sorted_links(&cached), sorted_links(&batch), "LocPrf diverged");
        assert_eq!(cached.conflicted_links, batch.conflicted_links);

        let gao = gao_inference(&extract(&snapshot), BaselineInput::BothPlanes);
        assert_eq!(sorted_baseline(&caches.extract.baseline()), sorted_baseline(&gao));
    }

    // A hand-built probe beside the tiny scenario's table, on ASNs the
    // scenario does not use. Feeders F and H each document a customer
    // and a peer tag; F also documents a LocPrf-lowering action. Teaching
    // routes map F's LocPrf 300 to p2c and 100 to p2p, H's 200 to p2c and
    // 80 to p2p. Two links then depend on which route comes first in
    // `(prefix, peer)` order, and in both that route's summary sorts
    // after the other's:
    // * F–G, carried by F at LocPrf 300 (P1) and at 100 (P2);
    // * F–H, exported by H at LocPrf 200 (P3) and by F at 100 (P4).
    const F: u32 = 40_001;
    const H: u32 = 40_002;

    fn probe_peer(feeder: u32) -> PeerId {
        PeerId::new(Asn(feeder), format!("2001:db8:ffff::{}", feeder - 40_000).parse().unwrap())
    }

    fn probe_attrs(path: &str, local_pref: u32, tags: &[(u32, u16)]) -> PathAttributes {
        let mut attrs = PathAttributes::with_path(path.parse().unwrap());
        attrs.local_pref = Some(local_pref);
        for &(asn, value) in tags {
            attrs.communities.insert(Community::new(asn as u16, value));
        }
        attrs
    }

    /// The probe's routes: `(prefix, feeder, attributes)`.
    fn probe_routes() -> Vec<(Prefix, u32, PathAttributes)> {
        let route = |prefix: &str, feeder, path, local_pref, tags: &[(u32, u16)]| {
            (prefix.parse().unwrap(), feeder, probe_attrs(path, local_pref, tags))
        };
        vec![
            // Teaching routes.
            route("2a0f:10::/32", F, "40001 40011 40041", 300, &[(F, 1)]),
            route("2a0f:11::/32", F, "40001 40012 40041", 100, &[(F, 2)]),
            route("2a0f:12::/32", H, "40002 40021 40041", 80, &[(H, 2)]),
            route("2a0f:13::/32", H, "40002 40022 40041", 200, &[(H, 1)]),
            // P1, P2: one feeder/first-hop pair at two LocPrf values.
            route("2a0f:20::/32", F, "40001 40031 40041", 300, &[]),
            route("2a0f:21::/32", F, "40001 40031 40042", 100, &[]),
            // P3, P4: both ends of F–H export it.
            route("2a0f:30::/32", H, "40002 40001 40041", 200, &[]),
            route("2a0f:31::/32", F, "40001 40002 40042", 100, &[]),
        ]
    }

    fn probe_dictionary(mut dictionary: CommunityDictionary) -> CommunityDictionary {
        use irr::{CommunityMeaning, RelationshipTag, TrafficAction};
        for feeder in [F, H] {
            let feeder = feeder as u16;
            let from_customer = CommunityMeaning::Relationship(RelationshipTag::FromCustomer);
            dictionary.insert(Community::new(feeder, 1), from_customer);
            let from_peer = CommunityMeaning::Relationship(RelationshipTag::FromPeer);
            dictionary.insert(Community::new(feeder, 2), from_peer);
        }
        let lower = CommunityMeaning::TrafficEngineering(TrafficAction::LowerPreference);
        dictionary.insert(Community::new(F as u16, 99), lower);
        dictionary
    }

    fn record(timestamp: u32, feeder: u32, update: mrt::bgp::BgpUpdate) -> MrtRecord {
        let peer = probe_peer(feeder);
        MrtRecord::new(
            mrt::MrtHeader {
                timestamp,
                mrt_type: mrt::MrtType::Bgp4mp.code(),
                subtype: mrt::record::bgp4mp_subtype::MESSAGE_AS4,
                length: 0,
            },
            MrtRecordBody::Bgp4mp(mrt::Bgp4mpMessage {
                peer_asn: peer.asn,
                local_asn: Asn(6447),
                interface_index: 0,
                peer_addr: peer.addr,
                local_addr: "2001:db8:ffff::ffff".parse().unwrap(),
                update: Some(update),
            }),
        )
    }

    fn announce(timestamp: u32, feeder: u32, prefix: &str, attrs: PathAttributes) -> MrtRecord {
        let update = mrt::bgp::BgpUpdate {
            withdrawn: vec![],
            attrs,
            announced: vec![prefix.parse().unwrap()],
        };
        record(timestamp, feeder, update)
    }

    fn withdraw(timestamp: u32, feeder: u32, prefix: &str) -> MrtRecord {
        let update = mrt::bgp::BgpUpdate {
            withdrawn: vec![prefix.parse().unwrap()],
            attrs: PathAttributes::default(),
            announced: vec![],
        };
        record(timestamp, feeder, update)
    }

    /// Hand-built update records, each aimed at one rule of the caches.
    fn probe_records(op: usize, timestamp: u32) -> Vec<MrtRecord> {
        let t = timestamp;
        match op {
            // Duplicate announcement of a teaching route.
            0 => vec![announce(
                t,
                F,
                "2a0f:10::/32",
                probe_attrs("40001 40011 40041", 300, &[(F, 1)]),
            )],
            // Withdrawal of a route the table never held.
            1 => vec![withdraw(t, F, "2a0f:99::/32")],
            // Withdraw P1 and re-announce it: P2 decides F–G in between.
            2 => vec![withdraw(t, F, "2a0f:20::/32")],
            3 => vec![announce(t, F, "2a0f:20::/32", probe_attrs("40001 40031 40041", 300, &[]))],
            // Withdraw and re-announce P3: P4 decides F–H in between.
            4 => vec![withdraw(t, H, "2a0f:30::/32")],
            5 => vec![announce(t, H, "2a0f:30::/32", probe_attrs("40002 40001 40041", 200, &[]))],
            // A path change that alters communities and LocPrf: P1 now
            // teaches F–G as p2p at LocPrf 100 itself.
            6 => vec![announce(
                t,
                F,
                "2a0f:20::/32",
                probe_attrs("40001 40031 40043", 100, &[(F, 2)]),
            )],
            // Taint P2 with the LocPrf-lowering action.
            7 => vec![announce(
                t,
                F,
                "2a0f:21::/32",
                probe_attrs("40001 40031 40042", 100, &[(F, 99)]),
            )],
            // Withdraw the only vote on F–A1 (and F's LocPrf 300 mapping).
            8 => vec![withdraw(t, F, "2a0f:10::/32")],
            9 => vec![announce(
                t,
                F,
                "2a0f:10::/32",
                probe_attrs("40001 40011 40041", 300, &[(F, 1)]),
            )],
            // A bogus (looping) path on P4.
            10 => vec![announce(t, F, "2a0f:31::/32", probe_attrs("40001 40002 40001", 100, &[]))],
            // A new path that adds a link and moves degrees: F–G–H.
            _ => vec![announce(
                t,
                F,
                "2a0f:32::/32",
                probe_attrs("40001 40031 40002 40041", 100, &[]),
            )],
        }
    }

    /// The tiny scenario, its table with the probe routes beside it, and
    /// the dictionary with the probe's entries.
    fn probed_base() -> (Scenario, RibSnapshot, CommunityDictionary) {
        let scenario = scenario();
        let mut base = scenario.pooled_snapshot(1);
        for (prefix, feeder, attrs) in probe_routes() {
            base.push(RibEntry::new(probe_peer(feeder), prefix, attrs));
        }
        let dictionary = probe_dictionary(scenario.registry.build_dictionary());
        (scenario, base, dictionary)
    }

    #[test]
    fn the_probe_pins_locpref_first_wins_in_route_order() {
        let (_, base, dictionary) = probed_base();
        let snapshot = LiveRib::from_snapshot(&base).snapshot();
        let mut inference = CommunityInference::from_snapshot(&snapshot, &dictionary);
        let rosetta = LocPrfRosetta::learn(&snapshot, &dictionary, &inference);
        rosetta.apply(&snapshot, &dictionary, &mut inference);
        let (f, g, h) = (Asn(F), Asn(40_031), Asn(H));
        let rel = |a, b| inference.relationship(a, b, IpVersion::V6);
        assert_eq!(rel(f, g), Some(Relationship::ProviderToCustomer), "P1 (LocPrf 300) first");
        assert_eq!(rel(h, f), Some(Relationship::ProviderToCustomer), "P3 (H at 200) first");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// After every window of a random stream with hand-built records
        /// spliced in, every cache equals a fresh build from the live
        /// table and the cached report equals the batch report.
        #[test]
        fn caches_equal_a_fresh_build_after_every_window(
            seed in any::<u64>(),
            windows in 1usize..4,
            events in 4usize..32,
            probes in prop::collection::vec((0usize..4, 0usize..12), 0..16),
        ) {
            let (scenario, base, dictionary) = probed_base();
            let mut stream = stream_for(&scenario, windows, events, seed).windows().to_vec();
            for (i, &(window, op)) in probes.iter().enumerate() {
                let window = window % stream.len();
                let timestamp = stream[window].first().map_or(i as u32, |r| r.header.timestamp);
                stream[window].extend(probe_records(op, timestamp));
            }
            let pipeline = Pipeline::with_concurrency(1);
            let mut live = LiveRib::from_snapshot(&base);
            let mut caches = IngestCaches::from_rib(&live, RemovalPolicy::Rebuild);
            let truth = Some(&scenario.truth);
            assert_caches_match_a_fresh_build(&pipeline, &mut caches, &live, &dictionary, truth);
            let mut stats = ApplyStats::default();
            for window in &stream {
                for record in window {
                    for delta in live.apply_record(record, &mut stats) {
                        caches.extract.apply(&delta);
                    }
                }
                assert_caches_match_a_fresh_build(&pipeline, &mut caches, &live, &dictionary, truth);
            }
        }
    }

    #[test]
    fn a_dictionary_swap_rebuilds_the_inference_cache() {
        let (scenario, base, dictionary) = probed_base();
        let plain = scenario.registry.build_dictionary();
        let stream = stream_for(&scenario, 4, 24, 11);
        let pipeline = Pipeline::with_concurrency(2);
        let mut live = LiveRib::from_snapshot(&base);
        let mut caches = IngestCaches::from_rib(&live, RemovalPolicy::Rebuild);
        let mut stats = ApplyStats::default();
        for (window, records) in stream.windows().iter().enumerate() {
            for record in records {
                for delta in live.apply_record(record, &mut stats) {
                    caches.extract.apply(&delta);
                }
            }
            // The probe's entries vanish from the dictionary at window 2.
            let dictionary = if window < 2 { &dictionary } else { &plain };
            let input = || PipelineInput {
                snapshot: live.snapshot(),
                dictionary: dictionary.clone(),
                truth: Some(scenario.truth.clone()),
            };
            let cached = pipeline.run_with_caches(input(), &mut caches).0;
            assert_eq!(cached.to_json(), pipeline.run(input()).to_json(), "window {window}");
            assert_eq!(&caches.inference.as_ref().unwrap().dictionary, dictionary);
        }
    }

    #[test]
    #[should_panic(expected = "the snapshot must come from the table whose deltas fed the caches")]
    fn caches_refuse_a_snapshot_of_another_table() {
        let scenario = scenario();
        let base = scenario.pooled_snapshot(1);
        let live = LiveRib::from_snapshot(&base);
        let mut caches = IngestCaches::from_rib(&live, RemovalPolicy::Rebuild);
        let mut other = live.snapshot();
        other.entries.pop();
        let input = PipelineInput {
            snapshot: other,
            dictionary: scenario.registry.build_dictionary(),
            truth: None,
        };
        let _ = Pipeline::with_concurrency(1).run_with_caches(input, &mut caches);
    }
}
