//! Adversarial experiment — how much a misbehaving Internet distorts the
//! relationship inference the paper builds on.
//!
//! Each row propagates the same topology under one adversarial scenario
//! (deterministic route leak, prefix hijack, sub-prefix hijack — all
//! undefended) and re-runs the full inference pipeline; the classic row
//! is the undistorted reference. Reported per scenario: the Gao
//! baseline's accuracy against ground truth on both planes, the hybrid
//! census and its precision, and the IPv6 valley fraction. The scenario
//! and its (zero) deployment are pinned per row, so `HYBRID_SCENARIO`
//! never changes this bin's output.

fn main() {
    let scale = bench::scale_from_args();
    eprintln!(
        "running {} adversarial scenarios ({} ASes, {} worker threads, HYBRID_THREADS to \
         change)...",
        bench::ADVERSARIAL_SCENARIOS.len(),
        scale.topology.total_as_count(),
        bench::ExecKnobs::from_env().threads()
    );
    let rows: Vec<Vec<String>> = bench::leak_distortion(&scale)
        .into_iter()
        .map(|row| {
            vec![
                format!("{:?}", row.scenario),
                format!("{:.1}%", 100.0 * row.baseline_v4.accuracy()),
                format!("{:.1}%", 100.0 * row.baseline_v6.accuracy()),
                row.hybrids_detected.to_string(),
                format!("{:.1}%", 100.0 * row.hybrid_precision()),
                format!("{:.1}%", 100.0 * row.valley_fraction),
            ]
        })
        .collect();
    println!(
        "{}",
        bench::format_rows(
            &["scenario", "gao v4", "gao v6", "hybrids", "hybrid precision", "valley paths"],
            &rows
        )
    );
}
