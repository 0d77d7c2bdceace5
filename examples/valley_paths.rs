//! Valley-path analysis on the IPv6 plane: how many observed AS paths
//! violate the valley-free rule, and how many of those violations are
//! unavoidable (no valley-free alternative exists, i.e. the relaxation
//! maintains IPv6 reachability — the paper's AS6939/AS174 situation).
//!
//! ```sh
//! cargo run --release --example valley_paths
//! cargo run --release --example valley_paths -- --no-relaxation
//! ```

use hybrid_as_rel::prelude::*;

fn run(relaxation: bool, leak_probability: f64) -> Report {
    let sim = SimConfig {
        v6_reachability_relaxation: relaxation,
        leak_probability,
        ..SimConfig::default()
    };
    // A sparser IPv6 plane makes valley-free partitions more likely, which
    // is the phenomenon this example is about.
    let topology = TopologyConfig {
        stub_ipv6_adoption: 0.25,
        v6_only_peering_degree: 1.2,
        ..TopologyConfig::small()
    };
    let scenario = Scenario::build(&topology, &sim);
    Pipeline::default().run(
        PipelineInput::builder().scenario(&scenario).build().expect("scenario inputs cannot fail"),
    )
}

fn main() {
    let no_relaxation = std::env::args().any(|a| a == "--no-relaxation");

    println!("== IPv6 valley-path analysis ==");
    for (label, relaxation, leak) in [
        ("strict export policies, no leaks", false, 0.0),
        ("reachability relaxation only", true, 0.0),
        ("relaxation + occasional leaks (default)", true, 0.02),
    ] {
        if no_relaxation && relaxation {
            continue;
        }
        let report = run(relaxation, leak);
        let v = &report.valleys;
        println!("\n-- {label} --");
        println!("classifiable IPv6 paths: {}", v.classifiable_paths);
        println!(
            "valley paths:            {} ({:.1}%; paper: 13%)",
            v.valley_paths,
            100.0 * v.valley_fraction()
        );
        println!(
            "  reachability-driven:   {} ({:.1}% of valleys; paper: 16%)",
            v.reachability_valleys,
            100.0 * v.reachability_fraction()
        );
        println!("  policy violations:     {}", v.violation_valleys);
        println!("unclassifiable paths:    {}", v.unknown_paths);
    }
}
