//! The tentpole guarantee: trace record → replay reproduces the original
//! run's `RunReport::fingerprint` bit-exactly, through a save/load cycle.

use soc_scenario::{record_run, replay_run, ScenarioSpec, Trace, TraceEvent};

fn spec(text: &str) -> ScenarioSpec {
    ScenarioSpec::parse(text).expect("valid spec")
}

fn assert_record_replay_bitexact(spec: &ScenarioSpec) -> soc_sim::RunReport {
    let (report, trace) = record_run(spec);
    assert!(report.generated > 0, "{}: nothing generated", spec.name);
    assert!(!trace.events.is_empty());

    // Through the filesystem: save, load, replay.
    let path = std::env::temp_dir().join(format!(
        "soc-trace-{}-{}.txt",
        spec.name,
        std::process::id()
    ));
    trace.save(&path).unwrap();
    let loaded = Trace::load(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!(trace, loaded, "{}: trace changed on disk", spec.name);

    let replayed = replay_run(&loaded).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
    assert_eq!(
        report.fingerprint(),
        replayed.fingerprint(),
        "{}: replay diverged",
        spec.name
    );
    // Belt and braces beyond the fingerprint.
    assert_eq!(report.generated, replayed.generated);
    assert_eq!(report.finished, replayed.finished);
    assert_eq!(report.msg_total, replayed.msg_total);
    assert_eq!(report.series, replayed.series);
    report
}

#[test]
fn paper_workload_replays_bit_exactly() {
    assert_record_replay_bitexact(&spec(
        "[scenario]\nname = rr-paper\nprotocol = hid\nnodes = 100\nhours = 2\n\
         mean_arrival_s = 600\nmean_duration_s = 600\nseed = 3\n",
    ));
}

#[test]
fn composite_generators_with_churn_replay_bit_exactly() {
    // The hard case: every generator axis non-default plus churn (joins
    // draw capacities mid-run) and checkpointing (resubmission queries).
    assert_record_replay_bitexact(&spec(
        "[scenario]\nname = rr-storm\nprotocol = hid\nnodes = 100\nhours = 2\n\
         mean_arrival_s = 600\nmean_duration_s = 600\nseed = 4\nchurn = 0.6\n\
         checkpointing = true\n\
         [arrival]\nmodel = mmpp\n\
         [duration]\nmodel = pareto\n\
         [demand]\nmodel = hotspot\n\
         [nodes]\nmodel = classes\n",
    ));
}

#[test]
fn replay_rejects_a_tampered_trace() {
    let (_, mut trace) = record_run(&spec(
        "[scenario]\nname = rr-tamper\nprotocol = hid\nnodes = 80\nhours = 1\n\
         mean_arrival_s = 600\nmean_duration_s = 600\nseed = 5\n",
    ));
    // Flip one recorded arrival delay: the replayed run must diverge and
    // the fingerprint check must catch it.
    let ev = trace
        .events
        .iter_mut()
        .find_map(|e| match e {
            TraceEvent::Delay { ms, .. } => Some(ms),
            _ => None,
        })
        .expect("at least one delay event");
    *ev += 60_000;
    // The shifted arrival reorders the event stream, so the failure mode is
    // either a mid-run desync (caught and converted) or, if the order
    // happens to survive, a fingerprint mismatch.
    let err = replay_run(&trace).unwrap_err();
    assert!(
        err.contains("fingerprint") || err.contains("desync") || err.contains("exhausted"),
        "unexpected error: {err}"
    );
}

#[test]
fn enabling_faults_does_not_perturb_workload_draws() {
    // The stream-isolation invariant behind `RngStreams::Fault`: switching
    // the fault model on must leave every draw crossing the
    // WorkloadSource boundary untouched, so a trace recorded on the clean
    // network stays valid for hostile replays. Churn is on (joins draw
    // capacities mid-run) but checkpointing is off — resubmission draws
    // depend on dispatch outcomes, which faults legitimately change.
    let base = "[scenario]\nname = rr-isolation\nprotocol = hid\nnodes = 100\nhours = 2\n\
         mean_arrival_s = 600\nmean_duration_s = 600\nseed = 6\nchurn = 0.5\n";
    let hostile =
        format!("{base}\n[fault]\nblackhole = 0.2\nliar = 0.1\nloss = 0.05\nburst_loss = 0.5\n");
    let (clean_report, clean_trace) = record_run(&spec(base));
    let (hostile_report, hostile_trace) = record_run(&spec(&hostile));
    // Same workload events, draw for draw — only the embedded spec differs.
    assert_eq!(clean_trace.events, hostile_trace.events);
    // And the runs themselves genuinely diverged: faults were active.
    assert_ne!(clean_report.fingerprint(), hostile_report.fingerprint());
    assert!(clean_report.faults.drops_total() == 0);
    assert!(hostile_report.faults.drops_total() > 0);
}

#[test]
fn hostile_runs_replay_bit_exactly() {
    // Fault injection is part of the determinism contract, not an
    // exception to it: record → save → load → replay under blackholes,
    // liars, lossy links and partitions reproduces the fingerprint.
    assert_record_replay_bitexact(&spec(
        "[scenario]\nname = rr-hostile\nprotocol = hid\nnodes = 100\nhours = 2\n\
         mean_arrival_s = 600\nmean_duration_s = 600\nseed = 7\nchurn = 0.4\n\
         [fault]\nblackhole = 0.15\nliar = 0.1\nloss = 0.02\nburst_loss = 0.5\n\
         partition_period_ms = 1800000\npartition_ms = 300000\n",
    ));
}

#[test]
fn defended_runs_replay_from_the_trace_alone() {
    // The defence is a `[fault]` key, so the trace's embedded spec carries
    // it: a defended recording replays defended, with nothing read from
    // the environment.
    let report = assert_record_replay_bitexact(&spec(
        "[scenario]\nname = rr-defended\nprotocol = hid\nnodes = 100\nhours = 2\n\
         mean_arrival_s = 600\nmean_duration_s = 600\nseed = 8\n\
         [fault]\nblackhole = 0.15\ndefense = true\n",
    ));
    assert!(
        report.faults.retries > 0,
        "the defence never ran: {:?}",
        report.faults
    );
}

#[cfg(feature = "tier2")]
mod tier2 {
    use super::*;

    /// Smoke-scale pin of the acceptance criterion (`cargo tier2`; ~paper shapes).
    #[test]
    fn smoke_scale_gallery_storm_replays_bit_exactly() {
        let path =
            std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios/storm.scn");
        let spec = ScenarioSpec::load(path).unwrap();
        assert_record_replay_bitexact(&spec);
    }

    /// Smoke-scale hostile pin (`cargo tier2`): the reference 15% blackhole gallery
    /// entry records and replays bit-exactly at its committed scale.
    #[test]
    fn smoke_scale_hostile_blackhole_replays_bit_exactly() {
        let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../scenarios/hostile-blackhole-15.scn");
        let spec = ScenarioSpec::load(path).unwrap();
        assert_record_replay_bitexact(&spec);
    }
}
