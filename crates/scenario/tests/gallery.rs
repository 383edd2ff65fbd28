//! The committed `scenarios/` gallery: every file must parse, validate,
//! and round-trip through the canonical renderer.

use soc_scenario::ScenarioSpec;
use std::path::PathBuf;

fn gallery_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

fn gallery_files() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(gallery_dir())
        .expect("scenarios/ gallery exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "scn"))
        .collect();
    files.sort();
    assert!(
        files.len() >= 5,
        "gallery shrank to {} files — the README promises one per generator",
        files.len()
    );
    files
}

#[test]
fn every_gallery_file_parses_and_round_trips() {
    for path in gallery_files() {
        let name = path.file_name().unwrap().to_string_lossy().to_string();
        let spec = ScenarioSpec::load(&path).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_ne!(spec.name, "unnamed", "{name}: gallery files must be named");
        // parse ∘ render is the identity, and render is a fixed point.
        let rendered = spec.render();
        let reparsed = ScenarioSpec::parse(&rendered)
            .unwrap_or_else(|e| panic!("{name}: canonical form failed to reparse: {e}"));
        assert_eq!(spec, reparsed, "{name}: round-trip changed the spec");
        assert_eq!(rendered, reparsed.render(), "{name}: render not idempotent");
    }
}

#[test]
fn gallery_covers_every_generator_axis() {
    use soc_workload::{ArrivalModel, DemandModel, DurationModel, NodeModel};
    let specs: Vec<ScenarioSpec> = gallery_files()
        .iter()
        .map(|p| ScenarioSpec::load(p).unwrap())
        .collect();
    let arrivals: Vec<_> = specs.iter().map(|s| s.scenario.workload.arrival).collect();
    assert!(arrivals
        .iter()
        .any(|a| matches!(a, ArrivalModel::Mmpp { .. })));
    assert!(arrivals
        .iter()
        .any(|a| matches!(a, ArrivalModel::Diurnal { .. })));
    assert!(arrivals
        .iter()
        .any(|a| matches!(a, ArrivalModel::FlashCrowd { .. })));
    assert!(specs
        .iter()
        .any(|s| matches!(s.scenario.workload.duration, DurationModel::Pareto { .. })));
    assert!(specs
        .iter()
        .any(|s| matches!(s.scenario.workload.demand, DemandModel::Hotspot { .. })));
    assert!(specs
        .iter()
        .any(|s| matches!(s.scenario.workload.nodes, NodeModel::Classes { .. })));
    assert!(specs
        .iter()
        .any(|s| s.scenario.churn_degree > 0.0 && s.scenario.checkpointing));
}

/// The gallery must keep a large-n scaling point: ≥10⁴ nodes across many
/// LANs, so the per-node tables, the routing and the WAN/LAN latency mix
/// are exercised at a footprint far beyond cache.
#[test]
fn gallery_carries_a_large_n_scaling_point() {
    let specs: Vec<ScenarioSpec> = gallery_files()
        .iter()
        .map(|p| ScenarioSpec::load(p).unwrap())
        .collect();
    assert!(
        specs
            .iter()
            .any(|s| s.scenario.n_nodes >= 10_000 && s.scenario.n_nodes / s.scenario.lan_size >= 8),
        "no gallery scenario with >=10^4 nodes across >=8 LANs"
    );
}

#[test]
fn hostile_sub_gallery_covers_every_fault_kind() {
    let specs: Vec<ScenarioSpec> = gallery_files()
        .iter()
        .map(|p| ScenarioSpec::load(p).unwrap())
        .collect();
    let faults: Vec<_> = specs.iter().map(|s| s.scenario.fault).collect();
    // A blackhole ladder that reaches the reference 15% point and beyond.
    assert!(faults.iter().any(|f| f.blackhole_frac == 0.15));
    assert!(faults.iter().any(|f| f.blackhole_frac >= 0.3));
    assert!(faults.iter().any(|f| f.liar_frac > 0.0));
    assert!(faults.iter().any(|f| f.burst_loss > 0.0 && f.loss > 0.0));
    assert!(faults
        .iter()
        .any(|f| f.partition_period_ms > 0 && f.partition_ms > 0));
    // The clean gallery must stay clean: the workload-only entries carry
    // no fault model at all.
    assert!(specs
        .iter()
        .filter(|s| !s.name.starts_with("hostile-"))
        .all(|s| !s.scenario.fault.enabled()));
}

/// Every other gallery file runs HID-CAN. Keep one pinned run of a
/// baseline protocol under churn and faults, so its join / leave, dropped
/// message and swallowed-exchange paths stay under the fingerprint diff.
#[test]
fn gallery_carries_a_non_hid_protocol() {
    use soc_sim::ProtocolChoice;
    let specs: Vec<ScenarioSpec> = gallery_files()
        .iter()
        .map(|p| ScenarioSpec::load(p).unwrap())
        .collect();
    assert!(
        specs
            .iter()
            .any(|s| s.scenario.protocol != ProtocolChoice::Hid
                && s.scenario.churn_degree > 0.0
                && s.scenario.fault.enabled()),
        "no gallery scenario runs a non-HID protocol under churn and faults"
    );
}
