//! The parallel sweep engine must be a pure scheduling change: reports from
//! the fan-out path are **bitwise identical** to a plain serial loop over
//! the same cells (each `Scenario::run` owns its RNG streams, so cell
//! results cannot depend on execution order — this pins it).
//! `fig4_parallel_is_bitwise_identical` also asserts Fig. 4(a)'s ordering
//! on the reports it already has.
//!
//! The always-on tests run at the fast `bench` scale so tier-1 stays quick;
//! `smoke_scale_fig4_and_table3_identical` repeats the check at the paper's
//! smoke scale in the `tier2` module (`cargo tier2`; CI's cron runs it in
//! release).

use soc_bench::{fig4, table3, Scale};
use soc_sim::{ProtocolChoice, RunReport};

/// Serial reference for `fig4`: the exact loop the figure ran before the
/// sweep engine existed.
fn fig4_serial(scale: Scale, seed: u64) -> Vec<(f64, Vec<RunReport>)> {
    let protos = [
        ProtocolChoice::Newscast,
        ProtocolChoice::Sid,
        ProtocolChoice::Khdn,
    ];
    [0.84, 0.25]
        .into_iter()
        .map(|lambda| {
            let reports = protos
                .iter()
                .map(|&p| scale.scenario(p).lambda(lambda).seed(seed).run())
                .collect();
            (lambda, reports)
        })
        .collect()
}

/// Serial reference for `table3`.
fn table3_serial(scale: Scale, seed: u64) -> Vec<RunReport> {
    scale
        .table3_nodes
        .iter()
        .map(|&n| {
            scale
                .scenario(ProtocolChoice::Hid)
                .nodes(n)
                .lambda(0.5)
                .seed(seed)
                .run()
        })
        .collect()
}

fn assert_identical(serial: &[RunReport], parallel: &[RunReport], what: &str) {
    assert_eq!(serial.len(), parallel.len(), "{what}: row count");
    for (s, p) in serial.iter().zip(parallel) {
        assert_eq!(
            s.fingerprint(),
            p.fingerprint(),
            "{what}: {} diverged between serial and parallel",
            s.scenario
        );
    }
}

#[test]
fn fig4_parallel_is_bitwise_identical() {
    // Four workers force the genuinely-parallel work-queue path even on a
    // 1-core host, without touching process-global env.
    let scale = Scale::bench();
    let serial = fig4_serial(scale, 7);
    let parallel = fig4(scale, 7, 4);
    assert_eq!(serial.len(), parallel.len());
    for ((ls, s), (lp, p)) in serial.iter().zip(&parallel) {
        assert_eq!(ls, lp, "lambda order");
        assert_identical(s, p, "fig4");
    }
    // Fig. 4(a)'s shape on the same reports: at λ = 0.84 resources are
    // scarce and SID-CAN's directed search beats Newscast's random view
    // (seed 7: 0.172 vs 0.113).
    let (lambda, hi) = &parallel[0];
    assert_eq!(*lambda, 0.84);
    let t_ratio = |label: &str| hi.iter().find(|r| r.label == label).unwrap().t_ratio;
    let (sid, news) = (t_ratio("SID-CAN"), t_ratio("Newscast"));
    assert!(sid > news, "fig4(a) inverted: SID {sid} vs Newscast {news}");
}

#[test]
fn table3_parallel_is_bitwise_identical() {
    let scale = Scale::bench();
    let serial = table3_serial(scale, 7);
    let parallel = table3(scale, 7, 4);
    assert_identical(&serial, &parallel, "table3");
}

#[test]
fn repeated_parallel_runs_are_stable() {
    // Scheduling nondeterminism must never leak: two parallel executions
    // of the same sweep fingerprint identically.
    let scale = Scale::bench();
    let a = table3(scale, 11, 3);
    let b = table3(scale, 11, 3);
    assert_identical(&a, &b, "table3 repeat");
}

#[cfg(feature = "tier2")]
mod tier2 {
    use super::*;

    /// The acceptance-bar check at the paper's smoke scale (minutes in debug,
    /// seconds in release; `cargo tier2`).
    #[test]
    fn smoke_scale_fig4_and_table3_identical() {
        let scale = Scale::smoke();
        let serial = table3_serial(scale, 1);
        let parallel = table3(scale, 1, 4);
        assert_identical(&serial, &parallel, "table3@smoke");

        let serial = fig4_serial(scale, 1);
        let parallel = fig4(scale, 1, 4);
        for ((ls, s), (lp, p)) in serial.iter().zip(&parallel) {
            assert_eq!(ls, lp);
            assert_identical(s, p, "fig4@smoke");
        }
    }
}
