//! The resident daemon binary: build one scenario snapshot, then serve
//! queries until killed.
//!
//! ```text
//! hybridd [--tiny | --small | --scale 10k|50k|100k]
//! ```
//!
//! The listen address and worker count come from the environment
//! (`HYBRID_ADDR`, `HYBRID_THREADS`); see the repository README's
//! "Resident service" section.

use std::io::Write;
use std::sync::Arc;

use hybrid_tor::service::ResidentState;
use hybridd::Server;

fn main() {
    let scale = bench::scale_from_args();
    let knobs = bench::ExecKnobs::from_env();
    let pipeline = knobs.pipeline();
    let scenario = bench::build_scenario(&scale);

    // A `Reload` request re-propagates the scenario and rebuilds the
    // snapshot from scratch, exactly as at startup.
    let state = ResidentState::build(&scenario, &pipeline);
    let rebuild: hybridd::Rebuild = Arc::new(move || ResidentState::build(&scenario, &pipeline));
    let memory = state.memory();

    let server = Server::bind(knobs.addr, state, rebuild, knobs.threads())
        .unwrap_or_else(|e| panic!("hybridd: cannot bind {}: {e}", knobs.addr));
    let addr = server.local_addr().expect("bound listener has a local address");

    // Flush explicitly: stdout may be block-buffered under a pipe, and the
    // CI smoke test greps this line to know the daemon is up.
    println!("hybridd: listening on {addr}");
    println!(
        "hybridd: resident memory {} bytes (graph map {} + graph csr {}, served and what-if copies)",
        memory.total(),
        memory.graph_map_bytes,
        memory.graph_csr_bytes,
    );
    std::io::stdout().flush().ok();

    server.run().expect("accept loop failed");
}
