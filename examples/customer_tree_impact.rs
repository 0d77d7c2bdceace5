//! Customer-tree impact of misinferred hybrid relationships — the Figure 1
//! example and a Figure 2 style correction sweep on a simulated topology.
//!
//! ```sh
//! cargo run --release --example customer_tree_impact
//! ```

use hybrid_as_rel::graph::customer_tree::customer_tree;
use hybrid_as_rel::prelude::*;
use hybrid_as_rel::topology::fixtures::figure1_topology;

fn main() {
    // ---- Figure 1: the five-AS illustration --------------------------------
    println!("== Figure 1: customer tree of AS1 ==");
    let transit = figure1_topology(true);
    let peering = figure1_topology(false);
    println!(
        "link 1-2 inferred as p2c -> tree = {:?}",
        customer_tree(&transit, Asn(1), IpVersion::V6)
    );
    println!(
        "link 1-2 inferred as p2p -> tree = {:?}",
        customer_tree(&peering, Asn(1), IpVersion::V6)
    );

    // ---- Figure 2: correction sweep on a simulated topology ----------------
    println!("\n== Figure 2: correcting the most-visible hybrid links ==");
    let topology = TopologyConfig::small();
    eprintln!("building scenario with {} ASes ...", topology.total_as_count());
    let scenario = Scenario::build(&topology, &SimConfig::default());
    let input =
        PipelineInput::builder().scenario(&scenario).build().expect("scenario inputs cannot fail");
    let report = Pipeline::with_impact(20, Some(200)).run(input);
    let curve = report.impact.expect("impact sweep requested");

    println!(
        "{:>10} {:>22} {:>10} {:>14}",
        "corrected", "avg valley-free path", "diameter", "reachability"
    );
    for step in &curve.steps {
        println!(
            "{:>10} {:>22.3} {:>10} {:>13.1}%",
            step.corrected,
            step.avg_path_length,
            step.diameter,
            100.0 * step.reachability
        );
    }
    println!(
        "\npaper reports 3.8 -> 2.23 hops and diameter 11 -> 7 over the 20 corrections;\n\
         the direction of change (shorter, better-connected trees) is the reproduced result."
    );
}
