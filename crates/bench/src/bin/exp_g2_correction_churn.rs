//! Experiment G2 — correction churn: how much downstream repair a window
//! of updates actually costs.
//!
//! Replays the same deterministic update stream twice — once with
//! delta-repaired ingest (extraction counters folded per route, valley
//! distance maps repaired via `DistanceMap::apply_correction_with`) and
//! once with a full per-window recompute — asserts the per-window reports
//! are byte-identical, and prints the repair counters: how many
//! relationship-relevant edge corrections each window produced and how the
//! delta engine resolved them (label-neutral / frontier-repaired / rebuilt
//! / cache reset). This is the replay-equals-recompute contract of the
//! streaming ingest path, executed as an experiment. The stream is the
//! default 4 windows of 24 events.

fn main() {
    let scale = bench::scale_from_args();
    eprintln!("building scenario ({} ASes)...", scale.topology.total_as_count());
    let scenario = bench::build_scenario(&scale);

    let full = bench::run_temporal(&scenario, false);
    let incremental = bench::run_temporal(&scenario, true);
    assert_eq!(full.len(), incremental.len());
    for (w, (f, i)) in full.iter().zip(&incremental).enumerate() {
        assert_eq!(
            f.report.to_json(),
            i.report.to_json(),
            "window {w}: delta-repaired replay diverged from full recompute"
        );
    }

    let rows: Vec<Vec<String>> = incremental
        .iter()
        .enumerate()
        .map(|(w, outcome)| {
            let r = &outcome.repair;
            vec![
                w.to_string(),
                outcome.apply.changed.to_string(),
                r.corrections.to_string(),
                r.unchanged.to_string(),
                r.repaired.to_string(),
                r.rebuilt.to_string(),
                r.resets.to_string(),
                format!("{}/{}", r.maps_reused, r.maps_reused + r.maps_computed),
            ]
        })
        .collect();
    println!(
        "{}",
        bench::format_rows(
            &[
                "window",
                "route changes",
                "corrections",
                "unchanged",
                "repaired",
                "rebuilt",
                "resets",
                "maps reused",
            ],
            &rows,
        )
    );
    let (apply, repair) = hybrid_tor::ingest::totals(&incremental);
    println!(
        "replay == recompute over {} windows ({} route changes); {} corrections: {} unchanged, {} repaired, {} rebuilt, {} resets",
        incremental.len(),
        apply.changed,
        repair.corrections,
        repair.unchanged,
        repair.repaired,
        repair.rebuilt,
        repair.resets,
    );
}
