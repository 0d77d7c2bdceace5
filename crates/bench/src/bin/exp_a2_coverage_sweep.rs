//! Ablation A2 — relationship coverage as a function of how many ASes
//! document their communities in the IRR. The paper's 72% coverage is a
//! property of 2010 documentation habits; this sweep shows the dependence.

fn main() {
    let scale = bench::scale_from_args();
    let rates = [0.1, 0.25, 0.5, 0.75, 0.82, 1.0];
    eprintln!(
        "running coverage sweep over {} documentation rates ({} worker threads, HYBRID_THREADS \
         to change)...",
        rates.len(),
        bench::ExecKnobs::from_env().threads()
    );
    let rows: Vec<Vec<String>> = bench::coverage_sweep(&scale, &rates)
        .into_iter()
        .map(|(rate, v6, dual)| {
            vec![
                format!("{rate:.2}"),
                format!("{:.1}%", 100.0 * v6),
                format!("{:.1}%", 100.0 * dual),
            ]
        })
        .collect();
    println!(
        "{}",
        bench::format_rows(&["documentation rate", "IPv6 coverage", "dual-stack coverage"], &rows)
    );
}
