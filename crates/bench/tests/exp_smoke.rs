//! exp-smoke: every experiment binary, run end to end at `--tiny` scale,
//! must reproduce its committed golden stdout byte for byte — and must
//! produce those bytes at every worker count, so the smoke run
//! doubles as an end-to-end check of the determinism contract at the
//! process boundary (the stdout a user pipes into a file, not just the
//! report JSON the unit suites compare).
//!
//! Goldens live in `tests/golden/exp/` at the workspace root, next to the
//! report snapshot, so the CI golden-drift gate covers them: regenerate
//! with `UPDATE_GOLDEN=1 cargo test -p bench --test exp_smoke` and commit
//! the diff only when the output change is intended.
//!
//! The child environment pins `HYBRID_THREADS`, so the comparison is
//! reproducible whatever the caller's shell exports, and the second run
//! flips it (1 → 2 workers) to prove the bytes do not depend on it.
//! `HYBRID_SCENARIO` is deliberately *inherited* by both runs: a scenario
//! is an output knob, so each scenario leg compares against its own
//! golden directory (`tests/golden/exp/` for classic, a
//! `tests/golden/exp/<scenario>/` subdirectory otherwise) and the
//! worker flip must still reproduce the bytes within the leg.

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

/// Run one binary at `--tiny` scale on `threads` workers and return its
/// stdout. HYBRID_SCENARIO is inherited (see the module doc).
fn run_tiny(name: &str, exe: &str, threads: &str) -> String {
    let output = Command::new(exe)
        .arg("--tiny")
        .env("HYBRID_THREADS", threads)
        .output()
        .unwrap_or_else(|e| panic!("cannot spawn {name} ({exe}): {e}"));
    assert!(
        output.status.success(),
        "{name} --tiny exited with {}; stderr:\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).unwrap_or_else(|e| panic!("{name} stdout is not UTF-8: {e}"))
}

#[test]
fn exp_bins_reproduce_their_goldens_at_every_execution_setting() {
    let dir = golden_dir();
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    if update {
        std::fs::create_dir_all(&dir).expect("create tests/golden/exp");
    }
    for (name, exe) in BINS {
        // The sequential reference run pins the goldens.
        let sequential = run_tiny(name, exe, "1");
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
        // ... and a run on two workers must produce the same bytes:
        // parallelism is never an output knob.
        let parallel = run_tiny(name, exe, "2");
        assert!(parallel == sequential, "{name} --tiny stdout depends on HYBRID_THREADS");
    }
}
