//! End-to-end orchestration of the measurement.

use std::io;
use std::path::Path;

use bgp_types::{IpVersion, RibSnapshot};
use irr::{CommunityDictionary, IrrRegistry};
use topogen::GroundTruth;

use crate::baselines::{gao_inference, BaselineInput, InferenceAccuracy};
use crate::communities::{CommunityInference, InferenceSource};
use crate::extract::extract;
use crate::hybrid::detect_hybrids;
use crate::impact::{correction_sweep_in, ImpactOptions, SweepCache, SweepOptions};
use crate::ingest::{run_valley_stage, IngestCaches};
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
    /// Build the input from a simulated scenario under explicit execution
    /// options: pools its collectors, parses its registry, and carries the
    /// ground truth along. Per-collector snapshot pooling runs sharded,
    /// concurrently with the IRR dictionary build, when more than one
    /// worker is allowed. The pooled entry order is worker-count
    /// independent.
    ///
    /// The other two sources need no constructor of their own: MRT files
    /// on disk go through [`from_files`](Self::from_files), and an
    /// already-pooled snapshot is the struct literal
    /// `PipelineInput { snapshot, dictionary, truth }`.
    ///
    /// ```
    /// use hybrid_tor::pipeline::{PipelineInput, PipelineOptions};
    /// use routesim::{Scenario, SimConfig};
    /// use topogen::TopologyConfig;
    ///
    /// let scenario = Scenario::build(&TopologyConfig::tiny(), &SimConfig::small());
    /// let input = PipelineInput::from_scenario_with(&scenario, &PipelineOptions::default());
    /// assert!(input.snapshot.len() > 0);
    /// ```
    pub fn from_scenario_with(scenario: &routesim::Scenario, options: &PipelineOptions) -> Self {
        // The caller builds the dictionary, so pooling gets one worker
        // less to keep the total at the budget.
        let workers = options.workers();
        let (snapshot, dictionary) = routesim::join(
            workers,
            || scenario.pooled_snapshot((workers - 1).max(1)),
            || scenario.registry.build_dictionary(),
        );
        PipelineInput { snapshot, dictionary, truth: Some(scenario.truth.clone()) }
    }

    /// Build the input from MRT TABLE_DUMP_V2 files plus an IRR registry
    /// dump on disk. The files are read sharded over the option's
    /// workers and pooled in input order, so the snapshot is the same at
    /// every worker count. Each error names the file it came from; when
    /// several MRT files fail, the first failing one in input order is
    /// the error. No ground truth comes from disk.
    pub fn from_files<P: AsRef<Path> + Sync>(
        mrt_paths: &[P],
        registry_path: impl AsRef<Path>,
        options: &PipelineOptions,
    ) -> io::Result<Self> {
        let read = |path: &P| {
            let path = path.as_ref();
            mrt::read_snapshot_from_path(path)
                .map_err(|e| io::Error::other(format!("{}: {e}", path.display())))
        };
        let mut snapshot = RibSnapshot::default();
        for parsed in routesim::shard_map(mrt_paths, options.workers(), read) {
            snapshot.merge(parsed?);
        }
        let registry_path = registry_path.as_ref();
        let registry = IrrRegistry::load(registry_path)
            .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", registry_path.display())))?;
        Ok(PipelineInput { snapshot, dictionary: registry.build_dictionary(), truth: None })
    }
}

/// Execution options for the pipeline: how much of the hardware to use.
///
/// Parallelism in this codebase is an execution detail, never an output
/// knob — every worker count produces byte-identical reports (the
/// determinism suite runs the same seeds at `concurrency` 1, 2 and 8 and
/// compares the JSON byte-for-byte). Route propagation is not the
/// pipeline's business: its knobs (origin schedule, defensive
/// deployment) live in [`routesim::SimConfig`] alone.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineOptions {
    /// Worker threads for the parallel sections: `0` uses all available
    /// parallelism (the default), `1` is the fully sequential path.
    pub concurrency: usize,
    /// Serve the pipeline's graph walks (hybrid detection, valley
    /// analysis, the correction sweep) from the frozen CSR mirror of the
    /// extracted graph (`true`, the default) or the adjacency-map
    /// reference backend (`false`). Execution only — the CSR iterates
    /// neighbours in adjacency order, so reports are byte-identical
    /// either way.
    pub csr: bool,
    /// Execution options for the Figure 2 impact subsystem (worker threads
    /// for the sharded correction sweep and its removal policy).
    /// `SweepOptions::default()` — all cores — is what
    /// `PipelineOptions::default()` carries; like `concurrency`, the knob
    /// never changes the report bytes.
    pub sweep: SweepOptions,
    /// The adversarial scenario the report is labelled with (see
    /// [`routesim::PolicyScenario`]); the routes themselves were shaped
    /// by `SimConfig::policy_scenario` when the scenario was built.
    /// Unlike every knob above, this is an **output** knob: a
    /// non-default scenario is recorded in the report.
    pub policy_scenario: routesim::PolicyScenario,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        PipelineOptions {
            concurrency: 0,
            csr: true,
            sweep: SweepOptions::default(),
            policy_scenario: routesim::PolicyScenario::default(),
        }
    }
}

impl PipelineOptions {
    /// Options pinned to `concurrency` worker threads (the sweep follows
    /// the same worker count).
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

    /// These options with the CSR mirror enabled (`true`) or the
    /// adjacency-map reference backend (`false`).
    pub fn with_csr(self, csr: bool) -> Self {
        PipelineOptions { csr, ..self }
    }

    /// The worker count these options resolve to (`0` = all cores).
    pub fn workers(&self) -> usize {
        routesim::effective_concurrency(self.concurrency)
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
    /// decoding and its LocPrf extension, then hybrid detection, valley
    /// analysis and the Gao baseline. Each stage computes exactly
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
    /// ingest session, reading the table only through `caches`:
    ///
    /// * extraction materialises the counters in `caches.extract`;
    /// * the community inference resolves the vote tallies, and the LocPrf
    ///   Rosetta Stone learns and applies from the LocPrf table, both kept
    ///   in the bundle and fed the deltas `caches.extract` queued since the
    ///   previous call (built from `input` on the first call, and rebuilt
    ///   whenever `input.dictionary` differs from the one they were built
    ///   with);
    /// * the Gao baseline resolves the votes in `caches.extract`;
    /// * the valley stage's reachability oracle serves from the
    ///   delta-repaired distance maps in `caches.valley`.
    ///
    /// `input.snapshot` must be the [`crate::ingest::LiveRib::snapshot`]
    /// of the table whose deltas fed the caches. Every cache is exact, so
    /// the report is byte-identical to [`run`](Self::run) over the same
    /// input — the streaming driver ([`crate::ingest::TemporalSweep`])
    /// pins that per window, and the determinism suite pins it across
    /// worker counts.
    ///
    /// # Panics
    ///
    /// If `input.snapshot` holds a different number of routes than the
    /// caches mirror.
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
        let caches = caches.map(|caches| caches.sync(&snapshot, &dictionary));

        // 1+2+3. Extraction and the communities-based inference are
        //        independent scans of the pooled snapshot. The LocPrf
        //        Rosetta Stone extends the inference without reading the
        //        extracted data, so it runs on the inference's side. A
        //        streaming session scans nothing: it reads its caches,
        //        maintained route by route as updates applied, and they
        //        apply the LocPrf step too.
        let (mut data, inference, caches) = match caches {
            Some((extract, inference_cache, valley)) => {
                let (data, inference) = routesim::join(
                    workers,
                    || extract.materialize(),
                    || inference_cache.infer(self.use_locpref),
                );
                (data, inference, Some((extract, valley)))
            }
            None => {
                let (data, inference) = routesim::join(
                    workers,
                    || extract(&snapshot),
                    || {
                        let mut inference =
                            CommunityInference::from_snapshot(&snapshot, &dictionary);
                        if self.use_locpref {
                            let rosetta = LocPrfRosetta::learn(&snapshot, &dictionary, &inference);
                            rosetta.apply(&snapshot, &dictionary, &mut inference);
                        }
                        inference
                    },
                );
                (data, inference, None)
            }
        };
        if self.options.csr {
            // Freeze once the graph is structurally complete; every later
            // stage only *annotates* (which the frozen mirror absorbs in
            // place), so hybrid detection, valley analysis, the baseline
            // and the correction sweep — and any clone they take — all
            // walk the flat CSR arrays.
            data.graph.freeze();
        }

        let (extract_cache, valley_cache) = caches.unzip();

        // 4+5+7a. Hybrid detection, valley analysis and the Gao baseline
        //         all read (data, inference) without touching each other.
        //         The caller thread counts against the worker budget, so
        //         the inner fan-out gets one worker less.
        let (hybrids, ((valleys, annotated), baseline)) = routesim::join(
            workers,
            || detect_hybrids(&data, &inference),
            || {
                routesim::join(
                    workers - 1,
                    || {
                        let mut annotated = data.graph.clone();
                        inference.annotate_graph(&mut annotated);
                        (run_valley_stage(&data, &annotated, valley_cache), annotated)
                    },
                    || match extract_cache {
                        Some(cache) => cache.baseline(),
                        None => gao_inference(&data, BaselineInput::BothPlanes),
                    },
                )
            },
        );

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
        PipelineInput::from_scenario_with(scenario, &PipelineOptions::default())
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

        let input =
            PipelineInput::from_files(&mrt_paths, &registry_path, &PipelineOptions::default())
                .unwrap();
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
        let scenario = scenario();
        let dir = std::env::temp_dir().join(format!("hybrid-tor-missing-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mrt_paths = scenario.write_mrt_files(&dir).unwrap();
        let registry = dir.join("absent-irr.txt");
        for options in [PipelineOptions::sequential(), PipelineOptions::with_concurrency(2)] {
            let workers = options.workers();
            // Two missing collector files: the first in input order wins.
            let missing = ["/nonexistent/a.mrt", "/nonexistent/b.mrt"];
            let err = PipelineInput::from_files(&missing, "/nonexistent/irr.txt", &options)
                .expect_err("missing MRT files must fail");
            let message = err.to_string();
            assert!(message.contains("/nonexistent/a.mrt"), "workers={workers}: {message}");
            assert!(!message.contains("/nonexistent/b.mrt"), "workers={workers}: {message}");
            // Valid collector files and a missing registry: the registry
            // path is named.
            let err = PipelineInput::from_files(&mrt_paths, &registry, &options)
                .expect_err("a missing registry must fail");
            let message = err.to_string();
            assert!(message.contains(&*registry.to_string_lossy()), "workers={workers}: {message}");
            assert_eq!(err.kind(), std::io::ErrorKind::NotFound, "workers={workers}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
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

    /// The report of `pipeline` on `scenario`, as JSON.
    fn render_on(scenario: &routesim::Scenario, pipeline: &Pipeline) -> String {
        let input = PipelineInput::from_scenario_with(scenario, &pipeline.options);
        serde_json::to_string_pretty(&pipeline.run(input)).expect("report serializes")
    }

    // The four knob tests below check that each propagation knob has one
    // home: a scenario keeps exactly the `SimConfig` value it was built
    // with (no pipeline option stamps over it), and the pipeline's reports
    // move only where the knob is an output knob.

    #[test]
    fn concurrency_knob_resolves_and_stamps_unpinned_sim_configs() {
        let reference = scenario();
        let split =
            Scenario::build(&TopologyConfig::tiny(), &SimConfig::small().with_concurrency(2));
        assert_eq!(split.sim_config.concurrency, 2, "the pin is kept");
        // Execution only: two propagation workers render the reference
        // bytes under any pipeline worker count.
        let sequential = render_on(&reference, &Pipeline::with_concurrency(1));
        for workers in [1usize, 4] {
            let report = render_on(&split, &Pipeline::with_concurrency(workers));
            assert!(report == sequential, "concurrency=2 diverged at concurrency={workers}");
        }
    }

    #[test]
    fn csr_knob_resolves_and_stamps_unpinned_sim_configs() {
        assert!(PipelineOptions::default().csr, "the CSR mirror is the default backend");
        let options = PipelineOptions::sequential().with_csr(false);
        assert!(!options.csr);
        assert_eq!(options, PipelineOptions { csr: false, ..PipelineOptions::sequential() });
        // The backend is the pipeline's own knob: scenarios always
        // propagate on the frozen CSR, whatever the pipeline walks.
        let scenario = scenario();
        assert!(scenario.truth.graph.is_frozen(), "scenarios propagate on the CSR");
        let impact = |options| Pipeline { options, ..Pipeline::with_impact(3, Some(64)) };
        let csr = render_on(&scenario, &impact(PipelineOptions::sequential()));
        let map = render_on(&scenario, &impact(options));
        assert!(map == csr, "the adjacency-map backend diverged from the CSR");
    }

    #[test]
    fn scenario_knobs_resolve_and_stamp_unpinned_sim_configs() {
        use routesim::PolicyScenario;
        assert_eq!(PipelineOptions::default().policy_scenario, PolicyScenario::Classic);
        assert_eq!(SimConfig::small().policy_scenario, PolicyScenario::Classic);
        assert_eq!(SimConfig::small().policy_deployment, 0.0);
        let leak = Scenario::build(
            &TopologyConfig::tiny(),
            &SimConfig::small().with_scenario(PolicyScenario::RouteLeak).with_deployment(0.5),
        );
        assert_eq!(leak.sim_config.policy_scenario, PolicyScenario::RouteLeak, "the pin is kept");
        assert_eq!(leak.sim_config.policy_deployment, 0.5, "the pin is kept");
        // The pipeline's scenario option labels the report and does
        // nothing else: the routes were shaped when the scenario was built.
        let options =
            PipelineOptions { policy_scenario: PolicyScenario::RouteLeak, ..Default::default() };
        let labelled = Pipeline { options, ..Default::default() }.run(scenario_input(&leak));
        assert_eq!(labelled.policy_scenario, Some(PolicyScenario::RouteLeak));
        let plain = Pipeline::default().run(scenario_input(&leak));
        assert!(plain.policy_scenario.is_none(), "Classic is never recorded");
        let unlabelled = crate::Report { policy_scenario: None, ..labelled };
        assert_eq!(unlabelled.to_json(), plain.to_json());
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
            // Neither may the removal-repair tier.
            let repair = render(
                PipelineOptions::with_concurrency(workers)
                    .with_sweep(SweepOptions::with_concurrency(workers).with_removal_repair(true)),
            );
            assert!(repair == sequential, "concurrency={workers} removal repair diverged");
            // Nor may the graph backend: the adjacency-map reference path
            // must render the same bytes as the frozen CSR mirror.
            let map_backend = render(PipelineOptions::with_concurrency(workers).with_csr(false));
            assert!(map_backend == sequential, "concurrency={workers} map backend diverged");
        }
    }
}
