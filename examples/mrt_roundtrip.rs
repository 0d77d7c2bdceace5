//! MRT round trip: write the simulated collectors' RIBs as real MRT
//! TABLE_DUMP_V2 files, read them back with the `mrt` crate, and run the
//! measurement pipeline from disk — the exact shape a measurement against
//! real RouteViews/RIPE RIS archives would take.
//!
//! ```sh
//! cargo run --release --example mrt_roundtrip -- /tmp/hybrid-as-rel-data
//! ```

use hybrid_as_rel::prelude::*;

fn main() {
    let out_dir = std::env::args()
        .nth(1)
        .unwrap_or_else(|| std::env::temp_dir().join("hybrid-as-rel-mrt").display().to_string());

    let topology = TopologyConfig::tiny();
    eprintln!("building scenario with {} ASes ...", topology.total_as_count());
    let scenario = Scenario::build(&topology, &SimConfig::small());

    // Write the MRT dumps and the IRR registry to disk.
    let mrt_paths = scenario.write_mrt_files(&out_dir).expect("write MRT files");
    let registry_path = std::path::Path::new(&out_dir).join("irr-registry.txt");
    scenario.registry.save(&registry_path).expect("write IRR dump");
    println!("wrote {} MRT files and an IRR dump under {out_dir}:", mrt_paths.len());
    for path in &mrt_paths {
        let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
        println!("  {} ({} bytes)", path.display(), bytes);
    }

    // Inspect one file record by record.
    let first = &mrt_paths[0];
    let bytes = std::fs::read(first).expect("read MRT file");
    let reader = hybrid_as_rel::mrt::MrtBytesReader::new(bytes.into());
    let mut rib_records = 0usize;
    let mut peer_tables = 0usize;
    for record in reader.records() {
        match record.expect("valid MRT record").body {
            hybrid_as_rel::mrt::MrtRecordBody::PeerIndexTable(_) => peer_tables += 1,
            hybrid_as_rel::mrt::MrtRecordBody::RibEntries(_) => rib_records += 1,
            _ => {}
        }
    }
    println!(
        "{}: {} PEER_INDEX_TABLE record(s), {} RIB records",
        first.display(),
        peer_tables,
        rib_records
    );

    // Run the pipeline purely from the on-disk artifacts.
    let input = PipelineInput::from_files(&mrt_paths, &registry_path, &PipelineOptions::default())
        .expect("load from disk");
    let report = Pipeline::default().run(input);
    println!("\npipeline over the decoded MRT files:");
    println!(
        "  IPv6 links {} | coverage {:.1}% | hybrids {} | valley paths {:.1}%",
        report.dataset.ipv6_links,
        100.0 * report.dataset.ipv6_coverage(),
        report.hybrids.findings.len(),
        100.0 * report.valleys.valley_fraction()
    );

    // And confirm it agrees with the in-memory run.
    let in_memory = Pipeline::default()
        .run(PipelineInput::from_scenario_with(&scenario, &PipelineOptions::default()));
    assert_eq!(report.dataset.ipv6_links, in_memory.dataset.ipv6_links);
    assert_eq!(report.hybrids.findings.len(), in_memory.hybrids.findings.len());
    println!("  matches the in-memory pipeline exactly");
}
