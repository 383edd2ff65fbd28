//! The sharded windowed-executor driver must be **bitwise identical** to
//! the serial driver: `SOC_SIM_EXEC` selects how shard event windows are
//! pumped (inline vs worker threads), never what they compute. These
//! tests pin that on committed `scenarios/` gallery files — `hostile-*`
//! entries with the blacklist/retry defence armed, so the fault-injection
//! and defence paths are exercised under both drivers — and across trace
//! record→replay in both directions (recorded serial, replayed sharded,
//! and vice versa).
//!
//! Tier-1 runs the three files that between them cross every
//! driver-sensitive path (in debug, the whole gallery was 70 % of
//! `cargo test`'s wall time); the whole gallery and the big `large-n`
//! scaling point (10⁴ nodes, 8 shards) are `#[ignore]`d and run in release
//! under `cargo tier2` and CI's nightly cron.
//!
//! Every test flips the process-global `SOC_SIM_EXEC` (and, for the
//! hostile entries, `SOC_FAULT_DEFENSE`) knobs, so all flips serialize
//! through one mutex — cargo runs this file's tests on separate threads
//! of a single process.

use soc_scenario::{record_run, replay_run, ScenarioSpec};
use soc_sim::RunReport;
use std::path::PathBuf;
use std::sync::Mutex;

static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Run `f` with `SOC_SIM_EXEC` and `SOC_FAULT_DEFENSE` set, restoring
/// both afterwards.
fn with_exec<T>(exec: &str, defense: &str, f: impl FnOnce() -> T) -> T {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let prev_e = soc_types::knobs::raw("SOC_SIM_EXEC");
    let prev_d = soc_types::knobs::raw("SOC_FAULT_DEFENSE");
    std::env::set_var("SOC_SIM_EXEC", exec);
    std::env::set_var("SOC_FAULT_DEFENSE", defense);
    let out = f();
    match prev_e {
        Some(v) => std::env::set_var("SOC_SIM_EXEC", v),
        None => std::env::remove_var("SOC_SIM_EXEC"),
    }
    match prev_d {
        Some(v) => std::env::set_var("SOC_FAULT_DEFENSE", v),
        None => std::env::remove_var("SOC_FAULT_DEFENSE"),
    }
    out
}

fn gallery_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

fn load(name: &str) -> ScenarioSpec {
    let path = gallery_dir().join(name);
    ScenarioSpec::load(&path).unwrap_or_else(|e| panic!("{name}: {e}"))
}

fn run_both(spec: &ScenarioSpec, defense: &str) -> (RunReport, RunReport) {
    let serial = with_exec("serial", defense, || spec.scenario.run());
    let sharded = with_exec("sharded", defense, || spec.scenario.run());
    (serial, sharded)
}

/// Serial and sharded drivers produce bitwise-identical reports on the
/// gallery file `name`. A hostile entry runs with the defence armed so
/// blacklisting, retries and fault-stream draws all happen under both
/// drivers.
fn assert_exec_invariant(name: &str) {
    let spec = load(name);
    let hostile = spec.name.starts_with("hostile-");
    let defense = if hostile { "on" } else { "off" };
    let (serial, sharded) = run_both(&spec, defense);
    assert_eq!(
        serial.fingerprint(),
        sharded.fingerprint(),
        "{name}: sharded driver diverged from serial (defence {defense})"
    );
    if hostile {
        // Liars corrupt reports rather than dropping messages, so the
        // broad any() is the right "fault model actually fired" check.
        assert!(
            serial.faults.any(),
            "{name}: hostile entry exercised no fault path"
        );
    }
}

/// The three gallery files that between them cross every driver-sensitive
/// path: churn (the coordinator's join/leave between windows), faults with
/// the defence armed (cross-shard `Suspect` routing) and a stateful
/// workload (per-shard MMPP forks).
#[test]
fn gallery_is_exec_invariant() {
    for name in ["storm.scn", "hostile-blackhole-15.scn", "bursty-mmpp.scn"] {
        assert_exec_invariant(name);
    }
}

/// Every gallery scenario except the `large-n` scaling point, which has
/// its own test below. Run via
/// `cargo test --release -p soc-bench --test exec_equivalence -- --ignored`.
#[test]
#[ignore = "whole gallery: run in release via CI cron or manually"]
fn whole_gallery_is_exec_invariant() {
    let mut names: Vec<String> = std::fs::read_dir(gallery_dir())
        .expect("scenarios/ gallery exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "scn"))
        .map(|p| p.file_name().unwrap().to_string_lossy().to_string())
        .filter(|n| n != "large-n.scn")
        .collect();
    names.sort();
    assert!(names.len() >= 5, "gallery shrank to {}", names.len());
    for name in names {
        assert_exec_invariant(&name);
    }
}

/// A trace recorded under one driver replays bit-exactly under the other,
/// in both directions. `replay_run` itself verifies the replayed report
/// against the fingerprint embedded at record time, so each call crossing
/// the driver boundary is the assertion.
#[test]
fn record_replay_round_trips_across_exec_drivers() {
    let spec = load("bursty-mmpp.scn");

    let (rep_serial, trace_serial) = with_exec("serial", "off", || record_run(&spec));
    let replayed = with_exec("sharded", "off", || replay_run(&trace_serial))
        .expect("serial-recorded trace must replay bit-exactly under the sharded driver");
    assert_eq!(rep_serial.fingerprint(), replayed.fingerprint());

    let (rep_sharded, trace_sharded) = with_exec("sharded", "off", || record_run(&spec));
    let replayed = with_exec("serial", "off", || replay_run(&trace_sharded))
        .expect("sharded-recorded trace must replay bit-exactly under the serial driver");
    assert_eq!(rep_sharded.fingerprint(), replayed.fingerprint());

    // Both directions describe the same run.
    assert_eq!(rep_serial.fingerprint(), rep_sharded.fingerprint());
}

/// The multi-shard scaling point (10⁴ nodes across 391 LANs, 8 shards):
/// serial and sharded drivers stay bitwise identical at scale.
#[test]
#[ignore = "large scale: run in release via CI cron or manually"]
fn large_n_scaling_point_is_exec_invariant() {
    let spec = load("large-n.scn");
    let (serial, sharded) = run_both(&spec, "off");
    assert_eq!(
        serial.fingerprint(),
        sharded.fingerprint(),
        "large-n: sharded driver diverged from serial"
    );
}
