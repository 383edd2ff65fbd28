//! The phase profiler must be **observation-only**: whole-run reports
//! under `SOC_PROFILE=on` are bitwise identical to `SOC_PROFILE=off` (same
//! events, same message counts, same RNG draws — the profiler reads clocks
//! and bumps counters, nothing else). This pins it across the fig4, table3
//! and oracle-diag grids, covering every instrumented path: the dispatch
//! loop, routing and cache-probe spans in both PID-CAN and KHDN, PSM
//! prediction, the fault/latency spans and the stats flushes.
//!
//! A second test checks the summary's internal sanity: the dispatch
//! group's nanoseconds are disjoint event-loop arms so they sum to at most
//! the run's wall clock, dispatch counts equal the pops that produced
//! them, and the delivery count is bounded by the report's message total.
//!
//! The always-on tests run at the fast `bench` scale so tier-1 stays
//! quick; `smoke_scale_profile_is_observation_only` repeats the
//! equivalence check at the paper's smoke scale and is `#[ignore]`d by
//! default (CI's nightly cron runs it in release).
//!
//! All tests flip the process-global `SOC_PROFILE` variable; `with_profile`
//! serializes every flip-run-restore through a shared mutex so parallel
//! test threads cannot leak a flip into each other's runs.

use soc_bench::{diag_lambda05, fig4, table3, Scale};
use soc_sim::{ProtocolChoice, RunReport, Scenario};
use std::sync::Mutex;

static ENV_LOCK: Mutex<()> = Mutex::new(());

fn with_profile<T>(value: &str, f: impl FnOnce() -> T) -> T {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let prev = soc_types::knobs::raw("SOC_PROFILE");
    std::env::set_var("SOC_PROFILE", value);
    let out = f();
    match prev {
        Some(v) => std::env::set_var("SOC_PROFILE", v),
        None => std::env::remove_var("SOC_PROFILE"),
    }
    out
}

fn assert_identical(off: &[RunReport], on: &[RunReport], what: &str) {
    assert_eq!(off.len(), on.len(), "{what}: row count");
    for (o, p) in off.iter().zip(on) {
        assert_eq!(
            o.fingerprint(),
            p.fingerprint(),
            "{what}: {} diverged between SOC_PROFILE=off and =on",
            o.scenario
        );
        assert!(
            o.profile.is_none(),
            "{what}: off-run must carry no profile block"
        );
        assert!(
            p.profile.is_some(),
            "{what}: on-run must carry a profile block"
        );
    }
}

fn grids_identical(scale: Scale, seed: u64, tag: &str) {
    let off = with_profile("off", || table3(scale, seed));
    let on = with_profile("on", || table3(scale, seed));
    assert_identical(&off, &on, &format!("table3@{tag}"));

    // fig4 covers KHDN (greedy routing + its cache probes) and Newscast.
    let off = with_profile("off", || fig4(scale, seed));
    let on = with_profile("on", || fig4(scale, seed));
    assert_eq!(off.len(), on.len());
    for ((lo, o), (lp, p)) in off.iter().zip(&on) {
        assert_eq!(lo, lp, "lambda order");
        assert_identical(o, p, &format!("fig4@{tag}"));
    }

    // The diag grid runs the contended λ=0.5 point with the oracle on.
    let off = with_profile("off", || diag_lambda05(scale, seed));
    let on = with_profile("on", || diag_lambda05(scale, seed));
    assert_identical(&off, &on, &format!("diag@{tag}"));
}

#[test]
fn profile_is_observation_only() {
    grids_identical(Scale::bench(), 7, "bench");
}

/// Internal-consistency invariants of one profiled run.
#[test]
fn profile_summary_is_sane() {
    let report = with_profile("on", || {
        Scenario::paper(ProtocolChoice::Hid)
            .nodes(150)
            .hours(2)
            .lambda(0.5)
            .seed(7)
            .run()
    });
    let p = report.profile.as_ref().expect("profiled run has a summary");
    assert_eq!(p.phases.len(), 17, "all phases reported, fixed order");

    // Dispatch arms are disjoint slices of the event loop: their sum
    // cannot exceed the run's wall clock (+1 ms for the truncation of
    // wall_ms to whole milliseconds).
    let dispatch_ns = p.dispatch_ns();
    let wall_ns = (report.wall_ms + 1) as u64 * 1_000_000;
    assert!(
        dispatch_ns <= wall_ns,
        "dispatch phases sum to {dispatch_ns} ns > wall {wall_ns} ns"
    );
    assert!(dispatch_ns > 0, "a 2-hour run must attribute some time");

    // Every dispatched event came out of exactly one queue pop, and a pop
    // never returns more than one event. The run's one loop ends with
    // exactly one miss pop: the `pop_until` that finds nothing due by the
    // deadline.
    let pops = p.count("queue_pop");
    let dispatched = p.dispatch_count();
    assert_eq!(pops, dispatched + 1, "pops vs dispatched events");

    // Nothing pops that was never pushed.
    assert!(
        dispatched <= p.count("queue_push"),
        "dispatched {dispatched} > pushes {}",
        p.count("queue_push")
    );

    // Deliveries are bounded by the messages the stats layer charged:
    // every delivered message was sent (some sends never deliver — faults,
    // dead targets — so ≤, not =).
    assert!(
        p.count("deliver") <= report.msg_total,
        "delivered {} > msg_total {}",
        p.count("deliver"),
        report.msg_total
    );
    assert!(p.count("deliver") > 0, "a 150-node run delivers messages");

    // The render names a top dispatch phase and the tab table parses.
    let table = p.render();
    assert!(table.contains("# top dispatch phase: "));
    assert!(table.lines().count() >= 17);
}

/// The off-path must be truly off: no summary, and (within one process)
/// flipping the knob between runs takes effect per `Sim` construction.
#[test]
fn profile_off_run_has_no_summary() {
    let report = with_profile("off", || {
        Scenario::paper(ProtocolChoice::Hid)
            .nodes(60)
            .hours(1)
            .lambda(0.5)
            .seed(3)
            .run()
    });
    assert!(report.profile.is_none());
    assert!(!report.to_json().contains("\"profile\":["));
    assert!(report.to_json().contains("\"profile\":null"));
}

/// The acceptance-bar check at the paper's smoke scale — run via
/// `cargo test --release -p soc-bench --test profile_equivalence -- --ignored`.
#[test]
#[ignore = "smoke scale: run in release via CI cron or manually"]
fn smoke_scale_profile_is_observation_only() {
    grids_identical(Scale::smoke(), 1, "smoke");
}
