//! Ablation A1 — accuracy of the plane-blind Gao baseline against the
//! ground truth, per plane. Quantifies why IPv6 needs its own inference.

fn main() {
    let scale = bench::scale_from_args();
    eprintln!("building scenario ({} ASes)...", scale.topology.total_as_count());
    let scenario = bench::build_scenario(&scale);
    let report = bench::run_measurement(&scenario);
    let v4 = report.baseline_accuracy_v4.expect("simulated runs carry truth");
    let v6 = report.baseline_accuracy_v6.expect("simulated runs carry truth");
    let row = |name: &str, acc: &hybrid_tor::baselines::InferenceAccuracy| {
        vec![
            name.to_string(),
            acc.comparable.to_string(),
            format!("{:.1}%", 100.0 * acc.accuracy()),
            acc.transit_as_peering.to_string(),
            acc.peering_as_transit.to_string(),
            acc.reversed_transit.to_string(),
        ]
    };
    println!(
        "{}",
        bench::format_rows(
            &["plane", "links", "accuracy", "transit->p2p", "p2p->transit", "reversed"],
            &[row("IPv4", &v4), row("IPv6", &v6)]
        )
    );
}
