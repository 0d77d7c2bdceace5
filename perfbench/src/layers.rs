//! The per-layer metrics of a traced run, derived from its spans and
//! counters. Every traced run reports every metric; a layer the workload
//! never calls reads 0.

use crate::output::Outcome;
use crate::stats;
use crate::trace::Trace;

/// The service opcodes timed in process, as `service.<op>` spans.
const SERVICE_OPS: [&str; 6] =
    ["relationship", "customer_tree", "visibility", "what_if", "summary", "memstats"];

/// Every per-layer metric, in print order, with its unit.
pub fn names() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = [
        ("topogen.generate_s", "s"),
        ("routesim.propagate_s", "s"),
        ("routesim.origins", "count"),
        ("routesim.origin_us", "us"),
        ("routesim.build_s", "s"),
        ("routesim.materialise_s", "s"),
        ("routesim.rib_entries", "count"),
        ("routesim.rss_mb", "MB"),
        ("core.pool_s", "s"),
        ("core.extract_s", "s"),
        ("core.communities_s", "s"),
        ("core.locpref_s", "s"),
        ("core.hybrid_s", "s"),
        ("core.valley_s", "s"),
        ("core.baseline_s", "s"),
        ("core.report_s", "s"),
        ("core.pipeline_s", "s"),
        ("impact.sweep_s", "s"),
        ("impact.memo_hit_frac", "fraction"),
        ("impact.delta_frac", "fraction"),
        ("service.build_s", "s"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    for op in SERVICE_OPS {
        names.push((format!("service.{op}_p50_us"), "us"));
        names.push((format!("service.{op}_p99_us"), "us"));
    }
    names.extend(
        [
            ("service.what_if_unchanged_frac", "fraction"),
            ("service.what_if_incremental_frac", "fraction"),
            ("service.what_if_rebuild_frac", "fraction"),
            ("hybridd.transport_p50_us", "us"),
            ("hybridd.cpu_us_per_req", "us"),
            ("loadgen.lag_max_ms", "ms"),
            ("loadgen.backlog_max", "count"),
            ("mrt.decode_ms", "ms"),
            ("ingest.apply_us", "us"),
            ("ingest.redundant_frac", "fraction"),
            ("ingest.snapshot_ms", "ms"),
            ("ingest.pipeline_ms", "ms"),
            ("ingest.maps_reused_frac", "fraction"),
            ("ingest.valley_resets", "count"),
            ("trace.traced_wall_s", "s"),
            ("trace.untraced_wall_s", "s"),
        ]
        .into_iter()
        .map(|(n, u)| (n.to_string(), u)),
    );
    names
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// Median duration of the spans named `span`, scaled (0 when none).
fn median_of(trace: &Trace, span: &str, scale: f64) -> f64 {
    let durations = trace.durations(span);
    if durations.is_empty() {
        0.0
    } else {
        stats::median(&durations) * scale
    }
}

/// p99 duration of the spans named `span`, scaled (0 when none).
fn p99_of(trace: &Trace, span: &str, scale: f64) -> f64 {
    let durations = stats::sorted(&trace.durations(span));
    if durations.is_empty() {
        0.0
    } else {
        stats::percentile(&durations, 99.0) * scale
    }
}

fn value(trace: &Trace, name: &str) -> f64 {
    let propagate = trace.total("routesim.propagate");
    match name {
        "topogen.generate_s" => trace.total("topogen.generate"),
        "routesim.propagate_s" => propagate,
        "routesim.origin_us" => ratio(propagate * 1e6, trace.counter("routesim.origins")),
        "routesim.build_s" => trace.total("routesim.build"),
        "routesim.materialise_s" => (trace.total("routesim.build") - propagate).max(0.0),
        "mrt.decode_ms" => trace.total("mrt.decode") * 1e3,
        "ingest.apply_us" => {
            ratio(trace.total("ingest.apply") * 1e6, trace.counter("ingest.records"))
        }
        "ingest.redundant_frac" => {
            ratio(trace.counter("ingest.redundant"), trace.counter("ingest.messages"))
        }
        "ingest.snapshot_ms" => median_of(trace, "ingest.snapshot", 1e3),
        "ingest.pipeline_ms" => median_of(trace, "ingest.pipeline", 1e3),
        "ingest.maps_reused_frac" => ratio(
            trace.counter("ingest.maps_reused"),
            trace.counter("ingest.maps_reused") + trace.counter("ingest.maps_computed"),
        ),
        _ => {
            if let Some(kind) =
                name.strip_prefix("service.what_if_").and_then(|n| n.strip_suffix("_frac"))
            {
                let key = format!("service.what_if_{kind}");
                return ratio(trace.counter(&key), trace.counter("service.what_if"));
            }
            if let Some(op) = name.strip_prefix("service.").and_then(|n| n.strip_suffix("_p50_us"))
            {
                return median_of(trace, &format!("service.{op}"), 1e6);
            }
            if let Some(op) = name.strip_prefix("service.").and_then(|n| n.strip_suffix("_p99_us"))
            {
                return p99_of(trace, &format!("service.{op}"), 1e6);
            }
            if let Some(layer) = name.strip_suffix("_s") {
                if !trace.durations(layer).is_empty() {
                    return trace.total(layer);
                }
            }
            trace.counter(name)
        }
    }
}

/// Append every per-layer metric of `trace` to `outcome`, with the
/// traced and untraced wall times of the same work.
pub fn report(trace: &mut Trace, outcome: &mut Outcome, traced_wall_s: f64, untraced_wall_s: f64) {
    trace.count("trace.traced_wall_s", traced_wall_s);
    trace.count("trace.untraced_wall_s", untraced_wall_s);
    for (name, unit) in names() {
        outcome.metric(&name, value(trace, &name), unit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_per_layer_name_is_valid_and_unique() {
        let names = names();
        let unique: std::collections::BTreeSet<_> = names.iter().map(|(n, _)| n).collect();
        assert_eq!(unique.len(), names.len());
        for (name, unit) in &names {
            assert!(crate::output::valid_name(name), "{name}");
            assert!(crate::output::valid_unit(unit), "{unit}");
        }
    }

    #[test]
    fn benchmark_json_lists_every_metric_the_runs_print() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(json) = std::fs::read_to_string(path) else { return };
        let listed = json.matches("\"name\":").count();
        let mut printed: Vec<String> = names().into_iter().map(|(n, _)| n).collect();
        printed.extend(crate::E2E_METRICS.iter().map(|n| n.to_string()));
        let gated = crate::WORKLOADS.iter().filter(|w| !crate::HAND_ONLY.contains(w));
        printed.extend(gated.map(|n| n.to_string()));
        for name in &printed {
            assert!(json.contains(&format!("\"name\": \"{name}\"")), "{name} missing from {path}");
        }
        assert_eq!(listed, printed.len(), "BENCHMARK.json lists names no run prints");
    }

    #[test]
    fn untouched_layers_read_zero_and_spans_sum() {
        let mut trace = Trace::default();
        trace.span("core.extract", |_| ());
        trace.count("routesim.origins", 4.0);
        let mut outcome = Outcome::default();
        report(&mut trace, &mut outcome, 2.0, 1.5);
        let get = |name: &str| outcome.metrics.iter().find(|m| m.name == name).unwrap().value;
        assert!(get("core.extract_s") >= 0.0);
        assert_eq!(get("impact.sweep_s"), 0.0);
        assert_eq!(get("routesim.origins"), 4.0);
        assert_eq!(get("service.what_if_p99_us"), 0.0);
        assert_eq!(get("trace.traced_wall_s"), 2.0);
        assert_eq!(outcome.metrics.len(), names().len());
        assert!(outcome.to_json().is_ok());
    }
}
