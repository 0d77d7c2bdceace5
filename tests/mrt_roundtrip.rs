//! MRT round-trip integration test: a merged collector snapshot written
//! with `mrt::writer` and re-read with `mrt::read_snapshot_from_path` must
//! be equivalent, and the file source (`PipelineInput::from_files`) must
//! reproduce the in-memory measurement.

use hybrid_as_rel::mrt;
use hybrid_as_rel::prelude::*;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("hybrid-as-rel-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Entries in a canonical order: the writer groups them by prefix (RFC 6396
/// TABLE_DUMP_V2 emits one RIB record per prefix), so the round trip
/// preserves the multiset of entries but not necessarily their sequence.
/// The `source` provenance tag is normalized away — it records where an
/// entry was decoded from (`Simulated` before the trip, `MrtTableDump`
/// after) and is the one field that legitimately changes.
fn canonicalized(snapshot: &RibSnapshot) -> Vec<String> {
    let mut entries: Vec<String> = snapshot
        .entries
        .iter()
        .map(|e| {
            let mut e = e.clone();
            e.source = hybrid_as_rel::types::RouteSource::MrtTableDump;
            serde_json::to_string(&e).expect("entry serializes")
        })
        .collect();
    entries.sort();
    entries
}

#[test]
fn merged_snapshot_round_trips_through_the_writer() {
    let scenario = Scenario::build(&TopologyConfig::tiny(), &SimConfig::small());
    let snapshot = scenario.merged_snapshot();
    assert!(!snapshot.entries.is_empty(), "scenario produced an empty snapshot");

    let dir = temp_dir("mrt-roundtrip");
    let path = dir.join("merged.rib.mrt");
    mrt::write_snapshot_to_path(&path, &snapshot).expect("write snapshot");
    let decoded = mrt::read_snapshot_from_path(&path).expect("read snapshot");

    assert_eq!(decoded.collector, snapshot.collector, "collector id survives the view name");
    assert_eq!(decoded.len(), snapshot.len(), "entry count survives");
    assert_eq!(decoded.peers(), snapshot.peers(), "peer table survives");
    assert_eq!(
        canonicalized(&decoded),
        canonicalized(&snapshot),
        "entries survive the wire as a multiset"
    );
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn pipeline_from_files_matches_the_in_memory_measurement() {
    let scenario = Scenario::build(&TopologyConfig::tiny(), &SimConfig::small());
    let dir = temp_dir("mrt-pipeline");
    let mrt_paths = scenario.write_mrt_files(&dir).expect("write per-collector MRT files");
    assert!(!mrt_paths.is_empty());
    let registry_path = dir.join("irr.txt");
    scenario.registry.save(&registry_path).expect("write IRR registry dump");

    let from_disk = Pipeline::default().run(
        PipelineInput::from_files(&mrt_paths, &registry_path, &PipelineOptions::default())
            .expect("load files"),
    );
    let in_memory = Pipeline::default()
        .run(PipelineInput::from_scenario_with(&scenario, &PipelineOptions::default()));

    // Sequential and parallel file loading pool the same snapshot.
    let sequential =
        PipelineInput::from_files(&mrt_paths, &registry_path, &PipelineOptions::sequential())
            .expect("load files sequentially");
    let parallel = PipelineInput::from_files(
        &mrt_paths,
        &registry_path,
        &PipelineOptions::with_concurrency(4),
    )
    .expect("load files in parallel");
    assert_eq!(sequential.snapshot, parallel.snapshot, "pooling order depends on worker count");

    assert_eq!(from_disk.dataset.ipv6_paths, in_memory.dataset.ipv6_paths);
    assert_eq!(from_disk.dataset.ipv4_paths, in_memory.dataset.ipv4_paths);
    assert_eq!(from_disk.dataset.ipv6_links, in_memory.dataset.ipv6_links);
    assert_eq!(from_disk.dataset.dual_stack_links, in_memory.dataset.dual_stack_links);
    assert_eq!(from_disk.dataset.ipv6_links_classified, in_memory.dataset.ipv6_links_classified);
    assert_eq!(from_disk.hybrids.findings, in_memory.hybrids.findings);
    assert_eq!(from_disk.valleys.valley_paths, in_memory.valleys.valley_paths);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// File-source error paths: a missing MRT file, a
/// truncated MRT record, and bad registry paths must all surface errors
/// (on the sequential and the sharded loader alike) instead of silently
/// producing a partial measurement.
#[test]
fn pipeline_from_files_surfaces_missing_and_malformed_inputs() {
    let scenario = Scenario::build(&TopologyConfig::tiny(), &SimConfig::small());
    let dir = temp_dir("mrt-errors");
    let mrt_paths = scenario.write_mrt_files(&dir).expect("write per-collector MRT files");
    let registry_path = dir.join("irr.txt");
    scenario.registry.save(&registry_path).expect("write IRR registry dump");

    // A missing MRT file among valid ones fails the whole load, at any
    // worker count.
    let mut with_missing = mrt_paths.clone();
    with_missing.push(dir.join("missing.rib.mrt"));
    let workers = [PipelineOptions::sequential(), PipelineOptions::with_concurrency(4)];
    for options in workers {
        let err = PipelineInput::from_files(&with_missing, &registry_path, &options)
            .expect_err("missing MRT file must fail");
        assert!(err.to_string().contains("missing.rib.mrt"), "names the file: {err}");
    }

    // A stream that ends mid-record is a truncation error, not a short
    // but "successful" snapshot — alone, and after a valid file (the
    // sharded loader only engages with more than one file).
    let bytes = std::fs::read(&mrt_paths[0]).expect("read a valid MRT file");
    assert!(bytes.len() > 16, "fixture MRT file is implausibly small");
    let truncated_path = dir.join("truncated.rib.mrt");
    std::fs::write(&truncated_path, &bytes[..bytes.len() - 7]).expect("write truncated file");
    for options in workers {
        for paths in
            [vec![truncated_path.clone()], vec![mrt_paths[0].clone(), truncated_path.clone()]]
        {
            let err = PipelineInput::from_files(&paths, &registry_path, &options)
                .expect_err("truncated MRT record must fail");
            assert!(
                err.to_string().to_lowercase().contains("truncated"),
                "unexpected truncation error: {err}"
            );
            assert!(err.to_string().contains("truncated.rib.mrt"), "names the file: {err}");
        }
    }

    // Registry problems surface too: a missing dump and a directory where
    // a file is expected.
    for options in workers {
        assert!(
            PipelineInput::from_files(&mrt_paths, dir.join("missing-irr.txt"), &options).is_err()
        );
        assert!(PipelineInput::from_files(&mrt_paths, &dir, &options).is_err());
    }

    std::fs::remove_dir_all(&dir).expect("cleanup");
}
