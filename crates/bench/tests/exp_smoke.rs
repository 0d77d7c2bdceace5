//! exp-smoke: every experiment binary, run end to end at `--tiny` scale,
//! must reproduce its committed golden stdout byte for byte — and must
//! produce those bytes at *every* execution setting, so the smoke run
//! doubles as an end-to-end check of the determinism contract at the
//! process boundary (the stdout a user pipes into a file, not just the
//! report JSON the unit suites compare).
//!
//! Goldens live in `tests/golden/exp/` at the workspace root, next to the
//! report snapshot, so the CI golden-drift gate covers them: regenerate
//! with `UPDATE_GOLDEN=1 cargo test -p bench --test exp_smoke` and commit
//! the diff only when the output change is intended.
//!
//! The child environment is pinned (`HYBRID_THREADS`, `HYBRID_FRONTIER`,
//! `HYBRID_REMOVAL_REPAIR`, `HYBRID_DEPLOYMENT`),
//! so the comparison is reproducible whatever the caller's shell exports
//! — and the second run flips every knob to prove the bytes do not
//! depend on them. Two knobs are deliberately *inherited* rather than
//! pinned: the reference run takes `HYBRID_SCHEDULING` from the job
//! environment and the flipped run pins the *other* schedule (`static`
//! after `dynamic` or an unset knob, `dynamic` after `static`), so every
//! CI matrix leg re-proves the goldens under both origin schedules; and
//! `HYBRID_SCENARIO` is inherited by *both* runs — a scenario is an
//! output knob, so each scenario leg compares against
//! its own golden directory (`tests/golden/exp/` for classic, a
//! `tests/golden/exp/<scenario>/` subdirectory otherwise) and the
//! worker-knob flip must still reproduce the bytes within the leg.

use std::path::PathBuf;
use std::process::Command;

/// The thirteen experiment binaries and their build-time executable paths.
const BINS: &[(&str, &str)] = &[
    ("exp_a1_baseline_accuracy", env!("CARGO_BIN_EXE_exp_a1_baseline_accuracy")),
    ("exp_a2_coverage_sweep", env!("CARGO_BIN_EXE_exp_a2_coverage_sweep")),
    ("exp_a3_collector_sensitivity", env!("CARGO_BIN_EXE_exp_a3_collector_sensitivity")),
    ("exp_e1_dataset", env!("CARGO_BIN_EXE_exp_e1_dataset")),
    ("exp_e2_hybrid_census", env!("CARGO_BIN_EXE_exp_e2_hybrid_census")),
    ("exp_e3_visibility", env!("CARGO_BIN_EXE_exp_e3_visibility")),
    ("exp_e4_valley_paths", env!("CARGO_BIN_EXE_exp_e4_valley_paths")),
    ("exp_f1_customer_tree_example", env!("CARGO_BIN_EXE_exp_f1_customer_tree_example")),
    ("exp_f2_customer_tree_sweep", env!("CARGO_BIN_EXE_exp_f2_customer_tree_sweep")),
    ("exp_g1_temporal_census", env!("CARGO_BIN_EXE_exp_g1_temporal_census")),
    ("exp_g2_correction_churn", env!("CARGO_BIN_EXE_exp_g2_correction_churn")),
    ("exp_leak_distortion", env!("CARGO_BIN_EXE_exp_leak_distortion")),
    ("exp_rov_sweep", env!("CARGO_BIN_EXE_exp_rov_sweep")),
];

/// The golden directory for the active scenario leg: the classic
/// (default) scenario owns `tests/golden/exp/` itself, so the goldens
/// that predate the scenario suite keep their paths; every other
/// scenario compares against its own subdirectory, named after the
/// `HYBRID_SCENARIO` spelling CI exports (`leak`, `subprefix-hijack`).
fn golden_dir() -> PathBuf {
    let base = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/exp");
    match std::env::var("HYBRID_SCENARIO") {
        Ok(scenario) if !scenario.is_empty() && !scenario.eq_ignore_ascii_case("classic") => {
            base.join(scenario.to_ascii_lowercase())
        }
        _ => base,
    }
}

/// Run one binary at `--tiny` scale under the given execution knobs and
/// return its stdout. `scheduling` is `None` to inherit the caller's
/// `HYBRID_SCHEDULING` (the CI matrix leg), `Some` to pin it.
fn run_tiny(
    name: &str,
    exe: &str,
    threads: &str,
    frontier: &str,
    scheduling: Option<&str>,
) -> String {
    let mut command = Command::new(exe);
    command
        .arg("--tiny")
        .env("HYBRID_THREADS", threads)
        .env("HYBRID_FRONTIER", frontier)
        .env("HYBRID_REMOVAL_REPAIR", "0")
        // Pinned so the temporal bins always replay their default window
        // count, whatever the caller's shell exports.
        .env("HYBRID_UPDATE_WINDOWS", "")
        // Pinned to "no defence": the scenario legs exercise the attack
        // itself; the deployment sweep has its own bin and goldens.
        // HYBRID_SCENARIO is deliberately inherited (see the module doc).
        .env("HYBRID_DEPLOYMENT", "");
    if let Some(scheduling) = scheduling {
        command.env("HYBRID_SCHEDULING", scheduling);
    }
    let output = command.output().unwrap_or_else(|e| panic!("cannot spawn {name} ({exe}): {e}"));
    assert!(
        output.status.success(),
        "{name} --tiny exited with {}; stderr:\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).unwrap_or_else(|e| panic!("{name} stdout is not UTF-8: {e}"))
}

/// The origin schedule the flipped run pins: whichever one the inherited
/// `HYBRID_SCHEDULING` did not select.
fn flipped_schedule() -> &'static str {
    match std::env::var("HYBRID_SCHEDULING") {
        Ok(inherited) if inherited.trim().eq_ignore_ascii_case("static") => "dynamic",
        _ => "static",
    }
}

#[test]
fn exp_bins_reproduce_their_goldens_at_every_execution_setting() {
    let dir = golden_dir();
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    if update {
        std::fs::create_dir_all(&dir).expect("create tests/golden/exp");
    }
    for (name, exe) in BINS {
        // The sequential reference run pins the goldens. It inherits
        // HYBRID_SCHEDULING so the CI matrix can flip the schedule for
        // the whole golden comparison.
        let sequential = run_tiny(name, exe, "1", "1", None);
        let golden_path = dir.join(format!("{name}.txt"));
        if update {
            std::fs::write(&golden_path, &sequential)
                .unwrap_or_else(|e| panic!("write {}: {e}", golden_path.display()));
        } else {
            let golden = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
                panic!(
                    "{} is not committed ({e}); generate it with UPDATE_GOLDEN=1 \
                     cargo test -p bench --test exp_smoke",
                    golden_path.display()
                )
            });
            assert!(
                sequential == golden,
                "{name} --tiny stdout drifted from {}; if the change is intended, regenerate \
                 with UPDATE_GOLDEN=1 cargo test -p bench --test exp_smoke",
                golden_path.display()
            );
        }
        // ... and a run with both worker knobs flipped (sharded origins
        // AND a parallel frontier) and the origin schedule flipped to the
        // one the reference run did not use must produce the same bytes:
        // parallelism is never an output knob, and neither is the
        // schedule. The removal policy stays pinned — exp_f2 deliberately
        // prints the sweep's execution counters, which describe *how* the
        // sweep ran and so reflect that knob.
        let parallel = run_tiny(name, exe, "2", "2", Some(flipped_schedule()));
        assert!(
            parallel == sequential,
            "{name} --tiny stdout depends on the worker knobs \
             (HYBRID_THREADS/HYBRID_FRONTIER/HYBRID_SCHEDULING)"
        );
    }
}
