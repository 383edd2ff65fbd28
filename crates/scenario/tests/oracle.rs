//! The λ-oracle (`oracle = true`) only observes: it scans every node's
//! executor and the protocol's record caches at each arrival and counts,
//! but a run with it switched on is the same realisation as the run
//! without it — every simulated count, message, sample point and protocol
//! diagnostic agrees.

use soc_scenario::ScenarioSpec;
use soc_sim::RunReport;

fn run(spec: &ScenarioSpec, oracle: bool) -> RunReport {
    let mut sc = spec.scenario;
    sc.oracle = oracle;
    sc.run()
}

fn assert_oracle_only_observes(spec: &ScenarioSpec) {
    let (off, on) = (run(spec, false), run(spec, true));
    let name = &spec.name;
    assert!(off.generated > 0, "{name}: nothing generated");
    let counts = |r: &RunReport| {
        [
            r.generated,
            r.finished,
            r.failed,
            r.rejected,
            r.killed,
            r.local_generated,
            r.local_finished,
            r.checkpoint_resubmits,
        ]
    };
    assert_eq!(counts(&on), counts(&off), "{name}: simulated counts");
    assert_eq!(on.msg_total, off.msg_total, "{name}: message total");
    assert_eq!(
        on.msg_breakdown, off.msg_breakdown,
        "{name}: message breakdown"
    );
    assert_eq!(on.series, off.series, "{name}: metric series");
    assert_eq!(on.diag, off.diag, "{name}: protocol diagnostics");
    // The oracle did run, and only in the run that asked for it.
    assert!(on.oracle_matchable.is_some_and(|m| m > 0), "{name}");
    assert!(off.oracle_matchable.is_none(), "{name}");
}

#[test]
fn oracle_leaves_the_paper_smoke_realisation_alone() {
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../scenarios/paper-smoke.scn");
    assert_oracle_only_observes(&ScenarioSpec::load(path).unwrap());
}

#[test]
fn oracle_leaves_a_churny_multi_lan_run_alone() {
    // 10 LANs of 24 ids, churn swaps and checkpoint resubmissions.
    let spec = ScenarioSpec::parse(
        "[scenario]\nname = oracle-lans\nprotocol = hid\nnodes = 192\nlan_size = 24\n\
         duration_ms = 7200000\nlambda = 0.5\nseed = 15\nchurn = 0.5\ncheckpointing = true\n\
         sample_ms = 600000\nmean_arrival_s = 600\nmean_duration_s = 600\n",
    )
    .unwrap();
    assert_oracle_only_observes(&spec);
}
