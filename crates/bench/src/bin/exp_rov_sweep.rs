//! Adversarial experiment — defensive deployment versus inference
//! distortion.
//!
//! For each attack scenario (sub-prefix hijack defended by ROV,
//! deterministic route leak defended by ASPA-lite) the deployment
//! fraction sweeps 0 → 100%; each point re-runs the inference pipeline
//! plus the Figure 2 correction sweep, showing how much of the
//! distortion the defence removes and what the corrections still buy.
//! The scenario and deployment fraction are pinned per row, so
//! `HYBRID_SCENARIO` never changes this bin's output.

fn main() {
    let scale = bench::scale_from_args();
    let fractions = [0.0, 0.25, 0.5, 0.75, 1.0];
    eprintln!(
        "running 2 attack scenarios x {} deployment fractions ({} ASes, {} worker threads, \
         HYBRID_THREADS to change)...",
        fractions.len(),
        scale.topology.total_as_count(),
        bench::ExecKnobs::from_env().threads()
    );
    let rows: Vec<Vec<String>> = bench::rov_sweep(&scale, &fractions)
        .into_iter()
        .map(|row| {
            vec![
                format!("{:?}", row.scenario),
                format!("{:.0}%", 100.0 * row.fraction),
                format!("{:.1}%", 100.0 * row.baseline_v6.accuracy()),
                row.hybrids_detected.to_string(),
                format!("{:.1}%", 100.0 * row.valley_fraction),
                format!("{:+.2}", row.avg_path_delta),
                format!("{:+}", row.diameter_delta),
            ]
        })
        .collect();
    println!(
        "{}",
        bench::format_rows(
            &[
                "scenario",
                "deployment",
                "gao v6",
                "hybrids",
                "valley paths",
                "avg path delta",
                "diameter delta"
            ],
            &rows
        )
    );
}
