//! End-to-end orchestration of the measurement.

use std::path::{Path, PathBuf};

use bgp_types::{IpVersion, RibSnapshot};
use irr::{CommunityDictionary, IrrRegistry};
use topogen::GroundTruth;

use crate::baselines::{gao_inference, BaselineInput, InferenceAccuracy};
use crate::communities::{CommunityInference, InferenceSource};
use crate::extract::extract;
use crate::hybrid::detect_hybrids;
use crate::impact::{correction_sweep_in, ImpactOptions, SweepCache, SweepOptions};
use crate::ingest::{run_valley_stage, ApplyStats, IngestCaches, LiveRib, UpdateStream};
use crate::locpref::LocPrfRosetta;
use crate::report::{DatasetSummary, Report};

/// The data a pipeline run consumes: a pooled RIB snapshot, the community
/// dictionary mined from the IRR, and (optionally, for simulated
/// scenarios) the ground truth for accuracy evaluation.
#[derive(Debug, Clone)]
pub struct PipelineInput {
    /// The pooled collector snapshot.
    pub snapshot: RibSnapshot,
    /// The community dictionary.
    pub dictionary: CommunityDictionary,
    /// Ground truth, when available.
    pub truth: Option<GroundTruth>,
}

impl PipelineInput {
    /// Start describing an input: pick one base source (a simulated
    /// scenario, MRT files on disk, or a raw snapshot), optionally replay
    /// an [`UpdateStream`] on top of it, and set the execution options
    /// once.
    ///
    /// ```
    /// use hybrid_tor::pipeline::PipelineInput;
    /// use routesim::{Scenario, SimConfig};
    /// use topogen::TopologyConfig;
    ///
    /// let scenario = Scenario::build(&TopologyConfig::tiny(), &SimConfig::small());
    /// let input = PipelineInput::builder().scenario(&scenario).build().unwrap();
    /// assert!(input.snapshot.len() > 0);
    /// ```
    pub fn builder() -> PipelineInputBuilder<'static> {
        PipelineInputBuilder::default()
    }

    /// Build the input from a simulated scenario under explicit execution
    /// options — shorthand for the builder's scenario source: pools its
    /// collectors, parses its registry, and carries the ground truth along.
    /// Per-collector snapshot pooling runs sharded, concurrently with the
    /// IRR dictionary build, when more than one worker is allowed. The
    /// pooled entry order is worker-count independent.
    pub fn from_scenario_with(scenario: &routesim::Scenario, options: &PipelineOptions) -> Self {
        Self::builder()
            .scenario(scenario)
            .options(*options)
            .build()
            .expect("scenario inputs cannot fail")
    }
}

/// One base source for a [`PipelineInputBuilder`].
#[derive(Debug, Default)]
enum InputSource<'a> {
    /// No source chosen yet; [`PipelineInputBuilder::build`] rejects it.
    #[default]
    Empty,
    /// A simulated scenario (snapshot pooling + registry parsing).
    Scenario(&'a routesim::Scenario),
    /// MRT TABLE_DUMP_V2 files plus an IRR registry dump on disk.
    Files { mrt: Vec<PathBuf>, registry: PathBuf },
    /// An already-pooled snapshot with its dictionary (and optional
    /// truth). Boxed: the assembled input dwarfs the other variants.
    Snapshot(Box<PipelineInput>),
}

/// Builder for [`PipelineInput`]: one base source, an optional update
/// stream replayed on top of it, and the execution options — declared
/// once, in one place (see [`PipelineInput::builder`]).
#[derive(Debug, Default)]
pub struct PipelineInputBuilder<'a> {
    options: PipelineOptions,
    source: InputSource<'a>,
    updates: Option<&'a UpdateStream>,
}

impl<'a> PipelineInputBuilder<'a> {
    /// Use a simulated scenario as the base source (replaces any source
    /// chosen earlier).
    pub fn scenario(self, scenario: &'a routesim::Scenario) -> Self {
        PipelineInputBuilder { source: InputSource::Scenario(scenario), ..self }
    }

    /// Use MRT files plus an IRR registry dump as the base source
    /// (replaces any source chosen earlier).
    pub fn files(self, mrt_paths: &[impl AsRef<Path>], registry_path: impl AsRef<Path>) -> Self {
        let source = InputSource::Files {
            mrt: mrt_paths.iter().map(|p| p.as_ref().to_path_buf()).collect(),
            registry: registry_path.as_ref().to_path_buf(),
        };
        PipelineInputBuilder { source, ..self }
    }

    /// Use an already-pooled snapshot as the base source (replaces any
    /// source chosen earlier). `truth` enables accuracy evaluation.
    pub fn snapshot(
        self,
        snapshot: RibSnapshot,
        dictionary: CommunityDictionary,
        truth: Option<GroundTruth>,
    ) -> Self {
        PipelineInputBuilder {
            source: InputSource::Snapshot(Box::new(PipelineInput { snapshot, dictionary, truth })),
            ..self
        }
    }

    /// Replay an update stream on top of the base source: the built input
    /// holds the [`LiveRib`] state after the stream's last window — the
    /// one-shot "table at time T" shape. For per-window measurement use
    /// [`crate::ingest::TemporalSweep`] instead.
    pub fn updates(self, stream: &'a UpdateStream) -> Self {
        PipelineInputBuilder { updates: Some(stream), ..self }
    }

    /// Execution options for source assembly (pooling / file-parse
    /// parallelism). Execution only — the built input is byte-identical
    /// at every worker count.
    pub fn options(self, options: PipelineOptions) -> Self {
        PipelineInputBuilder { options, ..self }
    }

    /// Assemble the input. Fails when no source was chosen or a file
    /// source fails to read.
    pub fn build(self) -> Result<PipelineInput, std::io::Error> {
        let options = self.options;
        let mut input = match self.source {
            InputSource::Empty => {
                return Err(std::io::Error::other(
                    "PipelineInput::builder(): no source chosen (scenario / files / snapshot)",
                ))
            }
            InputSource::Scenario(scenario) => {
                let workers = options.workers();
                let (snapshot, dictionary) = if workers > 1 {
                    std::thread::scope(|scope| {
                        // The main thread builds the dictionary, so pooling
                        // gets one worker less to keep the total at the
                        // budget.
                        let pool_workers = workers - 1;
                        let pooled = scope.spawn(move || scenario.pooled_snapshot(pool_workers));
                        let dictionary = scenario.registry.build_dictionary();
                        (pooled.join().expect("snapshot pooling worker panicked"), dictionary)
                    })
                } else {
                    (scenario.pooled_snapshot(1), scenario.registry.build_dictionary())
                };
                PipelineInput { snapshot, dictionary, truth: Some(scenario.truth.clone()) }
            }
            InputSource::Files { mrt, registry } => {
                let read = |path: &PathBuf| {
                    mrt::read_snapshot_from_path(path)
                        .map_err(|e| std::io::Error::other(e.to_string()))
                };
                let workers = options.workers();
                let mut snapshot = RibSnapshot::default();
                if workers <= 1 || mrt.len() <= 1 {
                    // Sequential: stop at the first failing file.
                    for path in &mrt {
                        snapshot.merge(read(path)?);
                    }
                } else {
                    let parsed: Vec<Result<RibSnapshot, std::io::Error>> =
                        routesim::shard_map(&mrt, workers, read);
                    for snap in parsed {
                        snapshot.merge(snap?);
                    }
                }
                let registry = IrrRegistry::load(registry)?;
                PipelineInput { snapshot, dictionary: registry.build_dictionary(), truth: None }
            }
            InputSource::Snapshot(input) => *input,
        };
        if let Some(stream) = self.updates {
            let mut live = LiveRib::from_snapshot(&input.snapshot);
            let mut stats = ApplyStats::default();
            for record in stream.windows().iter().flatten() {
                live.apply_record(record, &mut stats);
            }
            input.snapshot = live.snapshot();
        }
        Ok(input)
    }
}

/// Execution options for the pipeline: how much of the hardware to use.
///
/// Parallelism in this codebase is an execution detail, never an output
/// knob — every worker count produces byte-identical reports (the
/// determinism suite runs the same seeds at `concurrency` 1, 2 and 8 and
/// compares the JSON byte-for-byte).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineOptions {
    /// Worker threads for the parallel sections: `0` uses all available
    /// parallelism (the default), `1` is the fully sequential path.
    pub concurrency: usize,
    /// Worker threads for the within-origin frontier expansion of any
    /// route propagation run on this pipeline's behalf (`0` = all cores,
    /// `1` — the default — = sequential level scans). The pipeline itself
    /// consumes already-propagated snapshots; this field completes the
    /// one-struct description of the execution stack so callers that
    /// *do* build or rebuild scenarios for a run (the bench harness
    /// resolves `HYBRID_FRONTIER` into it and into
    /// `SimConfig::frontier_concurrency`) steer both levels from one
    /// place. Execution only — never a byte of the report.
    pub frontier_concurrency: usize,
    /// How route propagation assigns origins to its workers (see
    /// [`routesim::OriginScheduling`]): self-balancing claims by default,
    /// static striping as the reference schedule. Resolved into
    /// `SimConfig::scheduling` by [`configure_sim`](Self::configure_sim);
    /// execution only — never a byte of the report.
    pub scheduling: routesim::OriginScheduling,
    /// Serve the pipeline's graph walks (hybrid detection, valley
    /// analysis, the correction sweep) from the frozen CSR mirror of the
    /// extracted graph (`true`, the default) or the adjacency-map
    /// reference backend (`false`). Resolved into `SimConfig::csr` by
    /// [`configure_sim`](Self::configure_sim); execution only — the CSR
    /// iterates neighbours in adjacency order, so reports are
    /// byte-identical either way.
    pub csr: bool,
    /// Execution options for the Figure 2 impact subsystem (worker threads
    /// for the sharded correction sweep and its removal policy).
    /// `SweepOptions::default()` — all cores — is what
    /// `PipelineOptions::default()` carries; like `concurrency`, the knob
    /// never changes the report bytes.
    pub sweep: SweepOptions,
    /// The adversarial scenario any scenario built on this pipeline's
    /// behalf propagates under (see [`routesim::PolicyScenario`]).
    /// Resolved into `SimConfig::policy_scenario` by
    /// [`configure_sim`](Self::configure_sim). Unlike every knob above,
    /// this is an **output** knob: a non-default scenario changes the
    /// routes, so it changes the report — but it must stay invisible to
    /// worker counts (the determinism matrix pins that).
    pub policy_scenario: routesim::PolicyScenario,
    /// The fraction of ASes deploying the scenario's defensive policy
    /// (ROV / ASPA-lite), in `[0, 1]`. Resolved into
    /// `SimConfig::policy_deployment` by
    /// [`configure_sim`](Self::configure_sim). An output knob, like
    /// [`policy_scenario`](Self::policy_scenario).
    pub policy_deployment: f64,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        PipelineOptions {
            concurrency: 0,
            frontier_concurrency: 1,
            scheduling: routesim::OriginScheduling::default(),
            csr: true,
            sweep: SweepOptions::default(),
            policy_scenario: routesim::PolicyScenario::default(),
            policy_deployment: 0.0,
        }
    }
}

impl PipelineOptions {
    /// Options pinned to `concurrency` worker threads (the sweep follows
    /// the same worker count; the frontier
    /// expansion stays sequential unless [`with_frontier`](Self::with_frontier)
    /// retunes it).
    pub fn with_concurrency(concurrency: usize) -> Self {
        PipelineOptions {
            concurrency,
            sweep: SweepOptions::with_concurrency(concurrency),
            ..Default::default()
        }
    }

    /// The fully sequential execution path.
    pub fn sequential() -> Self {
        Self::with_concurrency(1)
    }

    /// These options with the given sweep execution settings.
    pub fn with_sweep(self, sweep: SweepOptions) -> Self {
        PipelineOptions { sweep, ..self }
    }

    /// These options with the given within-origin frontier worker count.
    pub fn with_frontier(self, frontier_concurrency: usize) -> Self {
        PipelineOptions { frontier_concurrency, ..self }
    }

    /// These options with the given origin-to-worker schedule.
    pub fn with_scheduling(self, scheduling: routesim::OriginScheduling) -> Self {
        PipelineOptions { scheduling, ..self }
    }

    /// These options with the CSR mirror enabled (`true`) or the
    /// adjacency-map reference backend (`false`).
    pub fn with_csr(self, csr: bool) -> Self {
        PipelineOptions { csr, ..self }
    }

    /// These options with the given adversarial scenario.
    pub fn with_scenario(self, policy_scenario: routesim::PolicyScenario) -> Self {
        PipelineOptions { policy_scenario, ..self }
    }

    /// These options with the given defensive-deployment fraction.
    pub fn with_deployment(self, policy_deployment: f64) -> Self {
        PipelineOptions { policy_deployment, ..self }
    }

    /// The worker count these options resolve to (`0` = all cores).
    pub fn workers(&self) -> usize {
        routesim::effective_concurrency(self.concurrency)
    }

    /// The frontier worker count these options resolve to (`0` = all
    /// cores).
    pub fn frontier_workers(&self) -> usize {
        routesim::effective_concurrency(self.frontier_concurrency)
    }

    /// Stamp these options onto a simulator configuration so a scenario
    /// built for this pipeline run propagates under the same worker
    /// budget, frontier split, origin schedule, graph backend and
    /// adversarial scenario. Only knobs the configuration leaves at their
    /// *default values* are overwritten (`concurrency == 0`,
    /// `frontier_concurrency == 1`, `scheduling == Dynamic`, `csr ==
    /// true`, `policy_scenario == Classic`, `policy_deployment == 0.0`);
    /// any other value is kept. Note the defaults double as the
    /// "unpinned" sentinels: a caller that wants `concurrency = 0` (all
    /// cores), `frontier_concurrency = 1` (sequential scans), dynamic
    /// scheduling, the CSR backend, the classic policy or a zero
    /// deployment *regardless of these options* must set them after this
    /// call, not before.
    pub fn configure_sim(&self, mut sim: routesim::SimConfig) -> routesim::SimConfig {
        if sim.concurrency == 0 {
            sim.concurrency = self.concurrency;
        }
        if sim.frontier_concurrency == 1 {
            sim.frontier_concurrency = self.frontier_concurrency;
        }
        if sim.scheduling == routesim::OriginScheduling::Dynamic {
            sim.scheduling = self.scheduling;
        }
        if sim.csr {
            sim.csr = self.csr;
        }
        if sim.policy_scenario == routesim::PolicyScenario::Classic {
            sim.policy_scenario = self.policy_scenario;
        }
        if sim.policy_deployment == 0.0 {
            sim.policy_deployment = self.policy_deployment;
        }
        sim
    }
}

/// The intermediate products of a pipeline run that a resident service
/// wants to keep alive after the report is assembled: the extracted
/// per-plane data, the final (LocPrf-extended) inference, and the
/// inference-annotated graph the valley analysis walked. A one-shot
/// experiment drops these; a query daemon answers relationship,
/// customer-tree, visibility and what-if queries straight from them
/// without a second `Pipeline::run`.
#[derive(Debug)]
pub struct PipelineArtifacts {
    /// The extracted graph, paths and entry counts.
    pub data: crate::extract::ExtractedData,
    /// The community inference after the LocPrf extension.
    pub inference: CommunityInference,
    /// `data.graph` with the inferred relationships annotated onto it —
    /// the graph every relationship/valley point query reads.
    pub annotated: asgraph::AsGraph,
}

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct Pipeline {
    /// Use the LocPrf Rosetta Stone to extend coverage (the paper does).
    pub use_locpref: bool,
    /// Run the Figure 2 customer-tree correction sweep (all-pairs valley-
    /// free BFS over the tree union — the expensive part).
    pub run_impact: bool,
    /// Options for the correction sweep.
    pub impact_options: ImpactOptions,
    /// Evaluate the Gao baseline against ground truth when available.
    pub evaluate_baseline: bool,
    /// Attach the sweep's execution statistics (memo hits, delta repairs
    /// vs full BFS) to the report. Off by default: the counters depend on
    /// the removal policy, so reports in the determinism matrix and the
    /// committed golden snapshots never carry them.
    pub emit_sweep_stats: bool,
    /// Execution options (worker threads for the parallel sections).
    pub options: PipelineOptions,
}

impl Default for Pipeline {
    fn default() -> Self {
        Pipeline {
            use_locpref: true,
            run_impact: false,
            impact_options: ImpactOptions::default(),
            evaluate_baseline: true,
            emit_sweep_stats: false,
            options: PipelineOptions::default(),
        }
    }
}

impl Pipeline {
    /// A pipeline that also runs the Figure 2 sweep.
    pub fn with_impact(top_k: usize, source_cap: Option<usize>) -> Self {
        Pipeline {
            run_impact: true,
            impact_options: ImpactOptions { top_k, source_cap },
            ..Default::default()
        }
    }

    /// A pipeline pinned to `concurrency` worker threads.
    pub fn with_concurrency(concurrency: usize) -> Self {
        Pipeline { options: PipelineOptions::with_concurrency(concurrency), ..Default::default() }
    }

    /// Run the full measurement and produce a [`Report`].
    ///
    /// With more than one worker allowed, the stages that are independent
    /// of one another run concurrently: extraction alongside community
    /// decoding, then — after the LocPrf extension — hybrid detection,
    /// valley analysis and the Gao baseline. Each stage computes exactly
    /// what the sequential path computes, so the report is byte-identical
    /// at every worker count.
    pub fn run(&self, input: PipelineInput) -> Report {
        self.run_with_artifacts(input).0
    }

    /// [`run`](Self::run), additionally returning the
    /// [`PipelineArtifacts`] the run produced along the way. The report is
    /// byte-identical to [`run`](Self::run) — the artifacts are state the
    /// run already built (the annotated graph existed transiently inside
    /// the valley-analysis stage) handed to the caller instead of dropped.
    pub fn run_with_artifacts(&self, input: PipelineInput) -> (Report, PipelineArtifacts) {
        self.run_inner(input, None)
    }

    /// [`run_with_artifacts`](Self::run_with_artifacts) against a live
    /// ingest session: the extraction stage materialises the incrementally
    /// maintained counters in `caches.extract` instead of rescanning the
    /// snapshot, and the valley stage's reachability oracle serves from
    /// the delta-repaired distance maps in `caches.valley`. Both caches
    /// are exact, so the report is byte-identical to
    /// [`run`](Self::run) over the same input — the streaming driver
    /// ([`crate::ingest::TemporalSweep`]) pins that per window, and the
    /// determinism suite pins it across worker counts.
    pub fn run_with_caches(
        &self,
        input: PipelineInput,
        caches: &mut IngestCaches,
    ) -> (Report, PipelineArtifacts) {
        self.run_inner(input, Some(caches))
    }

    fn run_inner(
        &self,
        input: PipelineInput,
        caches: Option<&mut IngestCaches>,
    ) -> (Report, PipelineArtifacts) {
        let PipelineInput { snapshot, dictionary, truth } = input;
        let workers = self.options.workers();
        // Split the cache bundle: extraction reads one half, the valley
        // stage mutates the other.
        let (extract_cache, valley_cache) = match caches {
            Some(caches) => (Some(&caches.extract), Some(&mut caches.valley)),
            None => (None, None),
        };

        // 1+2. Extraction and communities-based inference are independent
        //      scans of the pooled snapshot. A streaming session skips the
        //      extraction scan entirely: the counters were maintained
        //      route-by-route as updates applied.
        let (mut data, mut inference) = if let Some(cache) = extract_cache {
            (cache.materialize(), CommunityInference::from_snapshot(&snapshot, &dictionary))
        } else if workers > 1 {
            std::thread::scope(|scope| {
                let extracted = scope.spawn(|| extract(&snapshot));
                let inference = CommunityInference::from_snapshot(&snapshot, &dictionary);
                (extracted.join().expect("extraction worker panicked"), inference)
            })
        } else {
            (extract(&snapshot), CommunityInference::from_snapshot(&snapshot, &dictionary))
        };
        if self.options.csr {
            // Freeze once the graph is structurally complete; every later
            // stage only *annotates* (which the frozen mirror absorbs in
            // place), so hybrid detection, valley analysis, the baseline
            // and the correction sweep — and any clone they take — all
            // walk the flat CSR arrays.
            data.graph.freeze();
        }

        // 3. LocPrf Rosetta Stone (reads and extends the inference, so it
        //    stays on the critical path).
        if self.use_locpref {
            let mut rosetta = LocPrfRosetta::learn(&snapshot, &dictionary, &inference);
            rosetta.apply(&snapshot, &dictionary, &mut inference);
        }

        // 4+5+7a. Hybrid detection, valley analysis and the Gao baseline
        //         all read (data, inference) without touching each other.
        //         The caller thread counts against the worker budget, so
        //         only spawn up to `workers - 1` helpers.
        let (hybrids, (valleys, annotated), baseline) = if workers > 2 {
            std::thread::scope(|scope| {
                let hybrids = scope.spawn(|| detect_hybrids(&data, &inference));
                let valleys = scope.spawn(|| {
                    let mut annotated = data.graph.clone();
                    inference.annotate_graph(&mut annotated);
                    (run_valley_stage(&data, &annotated, valley_cache), annotated)
                });
                let baseline = gao_inference(&data, BaselineInput::BothPlanes);
                (
                    hybrids.join().expect("hybrid detection worker panicked"),
                    valleys.join().expect("valley analysis worker panicked"),
                    baseline,
                )
            })
        } else if workers > 1 {
            std::thread::scope(|scope| {
                let hybrids = scope.spawn(|| detect_hybrids(&data, &inference));
                let mut annotated = data.graph.clone();
                inference.annotate_graph(&mut annotated);
                let valleys = run_valley_stage(&data, &annotated, valley_cache);
                let baseline = gao_inference(&data, BaselineInput::BothPlanes);
                (
                    hybrids.join().expect("hybrid detection worker panicked"),
                    (valleys, annotated),
                    baseline,
                )
            })
        } else {
            let hybrids = detect_hybrids(&data, &inference);
            let mut annotated = data.graph.clone();
            inference.annotate_graph(&mut annotated);
            let valleys = run_valley_stage(&data, &annotated, valley_cache);
            let baseline = gao_inference(&data, BaselineInput::BothPlanes);
            (hybrids, (valleys, annotated), baseline)
        };

        // 6. Dataset summary.
        let dual_stack_classified_both = data
            .graph
            .dual_stack_edges()
            .filter(|e| {
                inference.relationship(e.a, e.b, IpVersion::V4).is_some()
                    && inference.relationship(e.a, e.b, IpVersion::V6).is_some()
            })
            .count();
        let dataset = DatasetSummary {
            ipv6_paths: data.paths_v6.len(),
            ipv4_paths: data.paths_v4.len(),
            ipv6_entries: data.entries_v6,
            ipv4_entries: data.entries_v4,
            ipv6_links: data.link_count(IpVersion::V6),
            ipv4_links: data.link_count(IpVersion::V4),
            dual_stack_links: data.dual_stack_link_count(),
            ipv6_links_classified: inference.inferred_link_count(IpVersion::V6),
            dual_stack_links_classified: dual_stack_classified_both,
            ipv6_links_from_communities: inference
                .inferred_by_source(IpVersion::V6, InferenceSource::Communities),
            ipv6_links_from_locpref: inference
                .inferred_by_source(IpVersion::V6, InferenceSource::LocalPref),
            conflicted_links: inference.conflicted_links,
            dictionary_size: dictionary.len(),
        };

        // 7b. Baseline accuracy against ground truth (the baseline itself
        //     was computed above, alongside the other independent stages).
        let (baseline_accuracy_v4, baseline_accuracy_v6) = match (&truth, self.evaluate_baseline) {
            (Some(truth), true) => (
                Some(InferenceAccuracy::evaluate(&baseline, &truth.graph, IpVersion::V4)),
                Some(InferenceAccuracy::evaluate(&baseline, &truth.graph, IpVersion::V6)),
            ),
            _ => (None, None),
        };

        // 8. Figure 2 sweep: start from the plane-blind annotation (the
        //    IPv4-derived relationship applied to the IPv6 plane, which is
        //    what the pre-existing datasets encode) and correct the most
        //    visible hybrid links with their community-derived IPv6
        //    relationship.
        let (impact, sweep_stats) = if self.run_impact {
            let misinferred = crate::impact::plane_blind_annotation_with(
                &data.graph,
                &inference,
                &baseline,
                self.options.sweep.concurrency,
            );
            let mut cache = SweepCache::new();
            let curve = correction_sweep_in(
                &misinferred,
                &hybrids.findings,
                &self.impact_options,
                &self.options.sweep,
                &mut cache,
            );
            (Some(curve), self.emit_sweep_stats.then(|| cache.stats()))
        } else {
            (None, None)
        };

        let report = Report {
            dataset,
            hybrids,
            valleys,
            impact,
            sweep_stats,
            baseline_accuracy_v4,
            baseline_accuracy_v6,
            // Recorded only off the classic default so classic reports —
            // including every pre-scenario golden snapshot — keep their
            // exact bytes.
            policy_scenario: (self.options.policy_scenario != routesim::PolicyScenario::Classic)
                .then_some(self.options.policy_scenario),
        };
        (report, PipelineArtifacts { data, inference, annotated })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use routesim::{Scenario, SimConfig};
    use topogen::TopologyConfig;

    fn scenario() -> routesim::Scenario {
        Scenario::build(&TopologyConfig::tiny(), &SimConfig::small())
    }

    fn scenario_input(scenario: &routesim::Scenario) -> PipelineInput {
        PipelineInput::builder().scenario(scenario).build().expect("scenario inputs cannot fail")
    }

    #[test]
    fn pipeline_runs_end_to_end_on_a_simulated_scenario() {
        let scenario = scenario();
        let report = Pipeline::default().run(scenario_input(&scenario));
        assert!(report.dataset.ipv6_paths > 0);
        assert!(report.dataset.ipv6_links > 0);
        assert!(report.dataset.dual_stack_links > 0);
        assert!(report.dataset.ipv6_links_classified > 0);
        assert!(report.dataset.ipv6_coverage() > 0.2, "{}", report.dataset.ipv6_coverage());
        assert!(report.dataset.ipv6_coverage() <= 1.0);
        // Dual-stack coverage should not be lower than... it usually exceeds
        // overall v6 coverage, but at minimum it is a valid fraction.
        assert!(report.dataset.dual_stack_coverage() <= 1.0);
        assert!(report.baseline_accuracy_v4.is_some());
        assert!(report.baseline_accuracy_v6.is_some());
        assert!(report.impact.is_none());
        // The display and JSON forms render without panicking.
        assert!(!report.to_string().is_empty());
        assert!(report.to_json().contains("dataset"));
    }

    #[test]
    fn detected_hybrids_match_ground_truth_relationships() {
        let scenario = scenario();
        let report = Pipeline::default().run(scenario_input(&scenario));
        // Every detected hybrid whose relationships we compare against the
        // ground truth must agree with it (communities never lie in the
        // simulator; coverage, not correctness, is the limiting factor).
        for finding in &report.hybrids.findings {
            let truth_pair = scenario.truth.relationship_pair(finding.a, finding.b).unwrap();
            assert_eq!(
                finding.relationships, truth_pair,
                "hybrid {}-{} disagrees with ground truth",
                finding.a, finding.b
            );
        }
    }

    #[test]
    fn locpref_extension_increases_or_preserves_coverage() {
        let scenario = scenario();
        let with = Pipeline::default().run(scenario_input(&scenario));
        let without =
            Pipeline { use_locpref: false, ..Default::default() }.run(scenario_input(&scenario));
        assert!(with.dataset.ipv6_links_classified >= without.dataset.ipv6_links_classified);
        assert_eq!(without.dataset.ipv6_links_from_locpref, 0);
    }

    #[test]
    fn impact_sweep_is_produced_when_requested() {
        let scenario = scenario();
        let pipeline = Pipeline::with_impact(5, Some(64));
        let report = pipeline.run(scenario_input(&scenario));
        let curve = report.impact.expect("impact requested");
        assert!(!curve.steps.is_empty());
        assert_eq!(curve.steps[0].corrected, 0);
        assert!(curve.steps.len() <= 6);
        assert!(report.sweep_stats.is_none(), "stats are opt-in");
    }

    #[test]
    fn sweep_stats_are_emitted_only_on_request_and_never_change_the_curve() {
        let scenario = scenario();
        let silent = Pipeline::with_impact(5, Some(64));
        let chatty = Pipeline { emit_sweep_stats: true, ..Pipeline::with_impact(5, Some(64)) };
        let without = silent.run(scenario_input(&scenario));
        let with = chatty.run(scenario_input(&scenario));
        let stats = with.sweep_stats.expect("stats requested");
        assert!(stats.lookups() > 0);
        assert_eq!(stats.misses, stats.delta_repairs + stats.full_rebuilds);
        assert_eq!(
            with.impact.as_ref().unwrap().steps,
            without.impact.as_ref().unwrap().steps,
            "emitting stats must not perturb the curve"
        );
        assert!(with.to_json().contains("sweep_stats"));
        assert!(!without.to_json().contains("sweep_stats"));
    }

    #[test]
    fn pipeline_from_files_round_trips_through_disk() {
        let scenario = scenario();
        let dir = std::env::temp_dir().join(format!("hybrid-tor-pipeline-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mrt_paths = scenario.write_mrt_files(&dir).unwrap();
        let registry_path = dir.join("irr.txt");
        scenario.registry.save(&registry_path).unwrap();

        let input = PipelineInput::builder().files(&mrt_paths, &registry_path).build().unwrap();
        let from_disk = Pipeline::default().run(input);
        let in_memory = Pipeline::default().run(scenario_input(&scenario));
        // LocPrf and communities survive the MRT round trip, so the headline
        // numbers match exactly.
        assert_eq!(from_disk.dataset.ipv6_links, in_memory.dataset.ipv6_links);
        assert_eq!(
            from_disk.dataset.ipv6_links_classified,
            in_memory.dataset.ipv6_links_classified
        );
        assert_eq!(from_disk.hybrids.findings.len(), in_memory.hybrids.findings.len());
        assert!(from_disk.baseline_accuracy_v4.is_none(), "no ground truth from disk");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_files_surface_an_error() {
        // Both the sequential and the sharded file parse surface the error.
        for options in [PipelineOptions::sequential(), PipelineOptions::with_concurrency(2)] {
            let result = PipelineInput::builder()
                .files(&["/nonexistent/a.mrt", "/nonexistent/b.mrt"], "/nonexistent/irr.txt")
                .options(options)
                .build();
            assert!(result.is_err(), "workers={}", options.workers());
        }
    }

    #[test]
    fn pipeline_options_resolve_worker_counts() {
        assert!(PipelineOptions::default().workers() >= 1, "auto resolves to at least one");
        assert_eq!(PipelineOptions::sequential().workers(), 1);
        assert_eq!(PipelineOptions::with_concurrency(5).workers(), 5);
        assert_eq!(Pipeline::with_concurrency(3).options.concurrency, 3);
        // The sweep follows the pipeline's worker count unless overridden.
        assert_eq!(PipelineOptions::default().sweep, SweepOptions::default());
        assert_eq!(PipelineOptions::with_concurrency(5).sweep.concurrency, 5);
        assert_eq!(Pipeline::with_concurrency(3).options.sweep.workers(), 3);
        let custom =
            PipelineOptions::with_concurrency(4).with_sweep(SweepOptions::with_concurrency(1));
        assert_eq!(custom.concurrency, 4);
        assert_eq!(custom.sweep, SweepOptions::with_concurrency(1));
    }

    #[test]
    fn frontier_knob_resolves_and_stamps_unpinned_sim_configs() {
        assert_eq!(PipelineOptions::default().frontier_concurrency, 1, "default is sequential");
        assert_eq!(PipelineOptions::sequential().frontier_workers(), 1);
        let options = PipelineOptions::with_concurrency(4).with_frontier(2);
        assert_eq!(options.frontier_workers(), 2);
        assert!(PipelineOptions::default().with_frontier(0).frontier_workers() >= 1);
        // Unpinned sim knobs take the pipeline's execution options ...
        let sim = options.configure_sim(SimConfig::small());
        assert_eq!(sim.concurrency, 4);
        assert_eq!(sim.frontier_concurrency, 2);
        // ... pinned ones are kept.
        let pinned = SimConfig::small().with_concurrency(3).with_frontier(5);
        let kept = options.configure_sim(pinned);
        assert_eq!(kept.concurrency, 3);
        assert_eq!(kept.frontier_concurrency, 5);
    }

    #[test]
    fn scheduling_knob_resolves_and_stamps_unpinned_sim_configs() {
        use routesim::OriginScheduling;
        assert_eq!(PipelineOptions::default().scheduling, OriginScheduling::Dynamic);
        let options =
            PipelineOptions::with_concurrency(4).with_scheduling(OriginScheduling::Static);
        assert_eq!(options.scheduling, OriginScheduling::Static);
        // An unpinned sim config takes the pipeline's schedule ...
        let sim = options.configure_sim(SimConfig::small());
        assert_eq!(sim.scheduling, OriginScheduling::Static);
        // ... a pinned one is kept (Dynamic is the unpinned sentinel, so a
        // config pinned to Static survives a Dynamic-scheduled pipeline).
        let pinned = SimConfig::small().with_scheduling(OriginScheduling::Static);
        let kept = PipelineOptions::default().configure_sim(pinned);
        assert_eq!(kept.scheduling, OriginScheduling::Static);
    }

    #[test]
    fn csr_knob_resolves_and_stamps_unpinned_sim_configs() {
        assert!(PipelineOptions::default().csr, "the CSR mirror is the default backend");
        let options = PipelineOptions::default().with_csr(false);
        assert!(!options.csr);
        // An unpinned sim config takes the pipeline's backend ...
        let sim = options.configure_sim(SimConfig::small());
        assert!(!sim.csr);
        // ... a pinned one is kept (`true` is the unpinned sentinel, so a
        // config pinned to the map backend survives a CSR pipeline).
        let pinned = SimConfig::small().with_csr(false);
        let kept = PipelineOptions::default().configure_sim(pinned);
        assert!(!kept.csr);
    }

    #[test]
    fn scenario_knobs_resolve_and_stamp_unpinned_sim_configs() {
        use routesim::PolicyScenario;
        assert_eq!(PipelineOptions::default().policy_scenario, PolicyScenario::Classic);
        assert_eq!(PipelineOptions::default().policy_deployment, 0.0);
        let options = PipelineOptions::default()
            .with_scenario(PolicyScenario::RouteLeak)
            .with_deployment(0.5);
        // An unpinned sim config takes the pipeline's scenario ...
        let sim = options.configure_sim(SimConfig::small());
        assert_eq!(sim.policy_scenario, PolicyScenario::RouteLeak);
        assert_eq!(sim.policy_deployment, 0.5);
        // ... a pinned one is kept (Classic / 0.0 are the unpinned
        // sentinels, so any other value survives the stamp).
        let pinned =
            SimConfig::small().with_scenario(PolicyScenario::SubprefixHijack).with_deployment(0.25);
        let kept = options.configure_sim(pinned);
        assert_eq!(kept.policy_scenario, PolicyScenario::SubprefixHijack);
        assert_eq!(kept.policy_deployment, 0.25);
    }

    #[test]
    fn concurrent_pipeline_reports_are_byte_identical_to_sequential() {
        let scenario = scenario();
        let render = |options: PipelineOptions| {
            let pipeline = Pipeline {
                run_impact: true,
                impact_options: ImpactOptions { top_k: 3, source_cap: Some(64) },
                options,
                ..Default::default()
            };
            let input = PipelineInput::from_scenario_with(&scenario, &pipeline.options);
            serde_json::to_string_pretty(&pipeline.run(input)).expect("report serializes")
        };
        let sequential = render(PipelineOptions::sequential());
        for workers in [2usize, 4] {
            let parallel = render(PipelineOptions::with_concurrency(workers));
            assert!(parallel == sequential, "concurrency={workers} diverged");
            // Neither may the origin schedule or the removal-repair tier.
            let static_schedule = render(
                PipelineOptions::with_concurrency(workers)
                    .with_scheduling(routesim::OriginScheduling::Static)
                    .with_sweep(SweepOptions::with_concurrency(workers).with_removal_repair(true)),
            );
            assert!(static_schedule == sequential, "concurrency={workers} static/repair diverged");
            // Nor may the graph backend: the adjacency-map reference path
            // must render the same bytes as the frozen CSR mirror.
            let map_backend = render(PipelineOptions::with_concurrency(workers).with_csr(false));
            assert!(map_backend == sequential, "concurrency={workers} map backend diverged");
        }
    }
}
