//! The phase profiler must be **observation-only**: whole-run reports
//! under `SOC_PROFILE=on` are bitwise identical to `SOC_PROFILE=off` (same
//! events, same message counts, same RNG draws — the profiler reads the
//! clock in the event loop and nothing else). This pins it across the
//! table3 and fig4 grids: HID-CAN, SID-CAN, Newscast and KHDN.
//!
//! A second test checks the summary's internal sanity: the queue pops and
//! the event arms tile the loop, so their nanoseconds sum to at most the
//! run's wall clock; count-only phases carry no time; event counts equal
//! the pops that produced them; and a Newscast run routes nothing and
//! probes no record cache while a HID-CAN run does both.
//!
//! The tests run at the fast `bench` scale so tier-1 stays quick.
//!
//! All tests flip the process-global `SOC_PROFILE` variable; `with_profile`
//! serializes every flip-run-restore through a shared mutex so parallel
//! test threads cannot leak a flip into each other's runs.

use soc_bench::{fig4, sweep, table3, Scale};
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

#[test]
fn profile_is_observation_only() {
    let (scale, seed) = (Scale::bench(), 7);
    let off = with_profile("off", || table3(scale, seed, sweep::thread_count()));
    let on = with_profile("on", || table3(scale, seed, sweep::thread_count()));
    assert_identical(&off, &on, "table3");

    // fig4 covers KHDN (greedy routing + its cache probes) and Newscast.
    let off = with_profile("off", || fig4(scale, seed, sweep::thread_count()));
    let on = with_profile("on", || fig4(scale, seed, sweep::thread_count()));
    assert_eq!(off.len(), on.len());
    for ((lo, o), (lp, p)) in off.iter().zip(&on) {
        assert_eq!(lo, lp, "lambda order");
        assert_identical(o, p, "fig4");
    }
}

fn profiled_run(protocol: ProtocolChoice) -> RunReport {
    with_profile("on", || {
        Scenario::paper(protocol)
            .nodes(150)
            .hours(2)
            .lambda(0.5)
            .seed(7)
            .run()
    })
}

/// Internal-consistency invariants of one profiled run.
#[test]
fn profile_summary_is_sane() {
    let report = profiled_run(ProtocolChoice::Hid);
    let p = report.profile.as_ref().expect("profiled run has a summary");
    assert_eq!(p.phases.len(), 15, "all phases reported, fixed order");

    // Queue pops and event arms tile the loop: their sum cannot exceed
    // the run's wall clock (+1 ms for the truncation of wall_ms to whole
    // milliseconds).
    let dispatch_ns = p.dispatch_ns();
    let wall_ns = (report.wall_ms + 1) as u64 * 1_000_000;
    assert!(
        dispatch_ns <= wall_ns,
        "timed phases sum to {dispatch_ns} ns > wall {wall_ns} ns"
    );
    assert!(p.ns("queue_pop") > 0 && p.ns("deliver") > 0);

    // Work inside the arms is counted, never timed.
    for label in [
        "route",
        "cache_probe",
        "psm_predict",
        "queue_push",
        "latency",
    ] {
        assert_eq!(p.ns(label), 0, "{label} is count-only");
        assert!(p.count(label) > 0, "a 150-node HID run does some {label}");
    }

    // Every handled event came out of exactly one queue pop, and a pop
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

    // Newscast bypasses CAN routing and the record cache altogether.
    let gossip = profiled_run(ProtocolChoice::Newscast);
    let g = gossip.profile.as_ref().expect("profiled run has a summary");
    assert_eq!(g.count("route"), 0, "Newscast routes nothing");
    assert_eq!(g.count("cache_probe"), 0, "Newscast probes no record cache");
    assert!(g.count("latency") > 0, "Newscast still sends");
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
