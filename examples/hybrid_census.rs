//! Hybrid relationship census: the workload motivating the paper's
//! introduction. Detects dual-stack AS links whose business relationship
//! differs between the IPv4 and IPv6 planes, classifies them, checks the
//! detections against the simulator's ground truth, and lists the most
//! visible ones.
//!
//! ```sh
//! cargo run --release --example hybrid_census -- --scale small
//! ```

use hybrid_as_rel::prelude::*;
use hybrid_as_rel::topology::HybridClass;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = args
        .iter()
        .position(|a| a == "--scale")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "small".to_string());
    let topology = match scale.as_str() {
        "default" => TopologyConfig::default(),
        "tiny" => TopologyConfig::tiny(),
        _ => TopologyConfig::small(),
    };

    eprintln!("building scenario with {} ASes ...", topology.total_as_count());
    let scenario = Scenario::build(&topology, &SimConfig::default());
    let input = PipelineInput::from_scenario_with(&scenario, &PipelineOptions::default());
    let report = Pipeline::default().run(input);
    let hybrids = &report.hybrids;

    println!("== Hybrid IPv4/IPv6 relationship census ==");
    println!(
        "classified dual-stack links: {} (coverage {:.1}%)",
        hybrids.dual_stack_classified,
        100.0 * report.dataset.dual_stack_coverage()
    );
    println!(
        "hybrid links detected:       {} ({:.1}% of classified dual-stack links; paper: 13%)",
        hybrids.findings.len(),
        100.0 * hybrids.hybrid_fraction()
    );
    println!(
        "  p2p(v4)/transit(v6):       {} ({:.0}%; paper: 67%)",
        hybrids.peering_v4_transit_v6,
        100.0 * hybrids.peering_v4_transit_v6_share()
    );
    println!("  transit(v4)/p2p(v6):       {}", hybrids.transit_v4_peering_v6);
    println!("  opposite transit:          {} (paper: 1)", hybrids.opposite_transit);
    println!(
        "IPv6 paths crossing a hybrid link: {:.1}% (paper: >28%)",
        100.0 * hybrids.path_visibility_fraction()
    );

    // Validate against ground truth: how many injected hybrids did we find,
    // and were any detections wrong?
    let mut correct = 0usize;
    let mut wrong = 0usize;
    for finding in &hybrids.findings {
        match scenario.truth.relationship_pair(finding.a, finding.b) {
            Some(pair)
                if pair.is_hybrid() && HybridClass::classify(pair) == Some(finding.class) =>
            {
                correct += 1
            }
            _ => wrong += 1,
        }
    }
    println!(
        "\nground truth check: {} injected hybrids, {} detected correctly, {} false detections, recall {:.1}%",
        scenario.truth.hybrid_links.len(),
        correct,
        wrong,
        100.0 * correct as f64 / scenario.truth.hybrid_links.len().max(1) as f64
    );

    println!("\nmost visible hybrid links:");
    println!("{:<10} {:<10} {:<22} {:>10}", "AS a", "AS b", "class", "v6 paths");
    for f in hybrids.top_by_visibility(10) {
        println!(
            "{:<10} {:<10} {:<22} {:>10}",
            f.a.to_string(),
            f.b.to_string(),
            f.class.label(),
            f.v6_path_visibility
        );
    }
}
