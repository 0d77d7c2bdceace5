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
use std::sync::{Arc, Mutex};

use hybrid_tor::ingest::{ApplyStats, LiveRib};
use hybrid_tor::pipeline::PipelineInput;
use hybrid_tor::service::ResidentState;
use hybridd::Server;
use routesim::UpdateStreamConfig;

fn main() {
    let scale = bench::scale_from_args();
    let knobs = bench::ExecKnobs::from_env();
    let pipeline = knobs.pipeline();
    let scenario = bench::build_scenario(&scale);

    // With HYBRID_UPDATE_WINDOWS > 0 the daemon runs in streaming mode: it
    // keeps a resident LiveRib and every epoch-reload request (`X`)
    // advances one synthetic update window (cycling) before rebuilding,
    // instead of re-propagating the scenario from scratch.
    let (state, rebuild): (ResidentState, hybridd::Rebuild) = if knobs.update_windows > 0 {
        let dictionary = scenario.registry.build_dictionary();
        let truth = scenario.truth.clone();
        let stream = scenario.update_stream(&UpdateStreamConfig {
            windows: knobs.update_windows,
            ..Default::default()
        });
        let live = LiveRib::from_snapshot(&scenario.pooled_snapshot(knobs.threads()));
        let build_from = {
            let pipeline = pipeline.clone();
            move |live: &LiveRib| {
                let input = PipelineInput::builder()
                    .snapshot(live.snapshot(), dictionary.clone(), Some(truth.clone()))
                    .build()
                    .expect("snapshot sources cannot fail");
                ResidentState::from_input(input, &pipeline)
            }
        };
        let state = build_from(&live);
        let session = Mutex::new((live, 0usize));
        let rebuild: hybridd::Rebuild = Arc::new(move || {
            let mut session = session.lock().expect("ingest session lock");
            let (live, next) = &mut *session;
            if !stream.is_empty() {
                let window = *next % stream.len();
                let mut stats = ApplyStats::default();
                for record in &stream[window] {
                    live.apply_record(record, &mut stats);
                }
                *next += 1;
                println!(
                    "hybridd: applied update window {window} ({} changed, {} redundant, {} routes resident)",
                    stats.changed,
                    stats.redundant,
                    live.len(),
                );
            }
            build_from(live)
        });
        (state, rebuild)
    } else {
        let state = ResidentState::build(&scenario, &pipeline);
        let pipeline = pipeline.clone();
        let rebuild: hybridd::Rebuild =
            Arc::new(move || ResidentState::build(&scenario, &pipeline));
        (state, rebuild)
    };
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
