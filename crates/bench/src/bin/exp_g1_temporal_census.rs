//! Experiment G1 — longitudinal hybrid census over a replayed update
//! stream.
//!
//! The paper measures one August 2010 snapshot; a longitudinal rerun
//! replays the BGP4MP updates between consecutive table dumps and asks how
//! the hybrid-relationship findings drift window by window. This bin
//! synthesises a deterministic update stream over the scenario, replays it
//! with the streaming ingest path (delta-repaired caches; the per-window
//! reports are byte-identical to a full recompute, which
//! `exp_g2_correction_churn` asserts), and prints one row per window: table
//! churn and the headline census numbers at that instant. The stream is
//! the default 4 windows of 24 events.

fn main() {
    let scale = bench::scale_from_args();
    eprintln!("building scenario ({} ASes)...", scale.topology.total_as_count());
    let scenario = bench::build_scenario(&scale);
    let outcomes = bench::run_temporal(&scenario, true);

    let rows: Vec<Vec<String>> = outcomes
        .iter()
        .enumerate()
        .map(|(w, outcome)| {
            let h = &outcome.report.hybrids;
            let v = &outcome.report.valleys;
            vec![
                w.to_string(),
                outcome.apply.changed.to_string(),
                outcome.apply.redundant.to_string(),
                outcome.report.dataset.ipv6_paths.to_string(),
                outcome.report.dataset.ipv6_links.to_string(),
                format!("{} ({:.1}%)", h.findings.len(), 100.0 * h.hybrid_fraction()),
                v.valley_paths.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        bench::format_rows(
            &["window", "changed", "redundant", "v6 paths", "v6 links", "hybrids", "valleys"],
            &rows,
        )
    );
    let (apply, _) = hybrid_tor::ingest::totals(&outcomes);
    println!(
        "stream totals: {} announcements, {} withdrawals, {} route changes over {} windows",
        apply.announcements,
        apply.withdrawals,
        apply.changed,
        outcomes.len(),
    );
}
