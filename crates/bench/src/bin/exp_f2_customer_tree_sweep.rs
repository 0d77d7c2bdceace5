//! Experiment F2 — the Figure 2 customer-tree correction sweep.
//!
//! Starting from the relationships a plane-blind baseline infers, the 20
//! hybrid links most visible in IPv6 paths are corrected one by one with
//! the community-derived relationship; after each correction the average
//! shortest valley-free path length and the diameter over the union of
//! IPv6 customer trees are recomputed. The paper reports 3.8 -> 2.23 hops
//! and 11 -> 7 hops.

fn main() {
    let scale = bench::scale_from_args();
    // The all-pairs computation over the full default topology is heavy;
    // cap the number of BFS sources at paper scale to keep the sweep
    // tractable while preserving the curve's shape.
    let paper = scale.topology.total_as_count() >= bench::paper_scale().topology.total_as_count();
    let source_cap = if paper { Some(400) } else { None };
    eprintln!("building scenario ({} ASes)...", scale.topology.total_as_count());
    let scenario = bench::build_scenario(&scale);
    eprintln!(
        "running measurement + correction sweep (top 20 hybrids, {} worker threads, \
         HYBRID_THREADS to change)...",
        bench::ExecKnobs::from_env().threads()
    );
    let report = bench::run_measurement_with_impact(&scenario, 20, source_cap);
    let curve = report.impact.expect("impact sweep requested");
    let mut rows = Vec::new();
    for step in &curve.steps {
        rows.push(vec![
            step.corrected.to_string(),
            step.link.map(|(a, b)| format!("AS{a}-AS{b}")).unwrap_or_else(|| "(baseline)".into()),
            format!("{:.2}", step.avg_path_length),
            step.diameter.to_string(),
            format!("{:.1}%", 100.0 * step.reachability),
        ]);
    }
    println!(
        "{}",
        bench::format_rows(
            &["corrected", "link", "avg valley-free path", "diameter", "reachability"],
            &rows
        )
    );
    if let (Some(b), Some(f)) = (curve.baseline(), curve.r#final()) {
        println!(
            "paper: avg 3.8 -> 2.23 hops, diameter 11 -> 7; measured: avg {:.2} -> {:.2}, diameter {} -> {}",
            b.avg_path_length, f.avg_path_length, b.diameter, f.diameter
        );
    }
    if let Some(stats) = &report.sweep_stats {
        println!("sweep execution: {stats}");
    }
}
