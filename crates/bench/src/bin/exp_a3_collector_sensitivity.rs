//! Ablation A3 — sensitivity of hybrid detection to the number of
//! collectors (vantage points). More collectors see more links and more
//! of the injected hybrids.

fn main() {
    let scale = bench::scale_from_args();
    let counts = [1usize, 2, 4, 8];
    eprintln!(
        "running collector sensitivity sweep ({} worker threads, HYBRID_THREADS to change)...",
        bench::ExecKnobs::from_env().threads()
    );
    let rows: Vec<Vec<String>> = bench::collector_sensitivity(&scale, &counts)
        .into_iter()
        .map(|(c, hybrids, fraction, links)| {
            vec![
                c.to_string(),
                links.to_string(),
                hybrids.to_string(),
                format!("{:.1}%", 100.0 * fraction),
            ]
        })
        .collect();
    println!(
        "{}",
        bench::format_rows(
            &["collectors", "IPv6 links seen", "hybrids detected", "hybrid fraction"],
            &rows
        )
    );
}
