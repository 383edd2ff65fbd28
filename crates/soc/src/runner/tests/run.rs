use crate::report::RunReport;
use crate::scenario::{ProtocolChoice, Scenario};

fn quick(protocol: ProtocolChoice, seed: u64) -> RunReport {
    Scenario::quick(protocol).nodes(120).seed(seed).run()
}

#[test]
fn hid_quick_run_produces_sane_report() {
    let r = quick(ProtocolChoice::Hid, 1);
    assert!(r.generated > 100, "too few tasks: {}", r.generated);
    assert!(r.t_ratio > 0.0, "nothing finished");
    assert!(r.t_ratio <= 1.0 && r.f_ratio <= 1.0);
    assert!(r.fairness > 0.0 && r.fairness <= 1.0);
    assert!(r.msg_total > 0);
    assert_eq!(r.label, "HID-CAN");
    assert!(!r.series.is_empty());
    // Series is monotone in generated tasks.
    for w in r.series.windows(2) {
        assert!(w[1].generated >= w[0].generated);
    }
}

#[test]
fn all_protocols_run_quickly() {
    for p in ProtocolChoice::ALL {
        let r = Scenario::quick(p).nodes(80).hours(1).seed(2).run();
        assert!(r.generated > 0, "{}: nothing generated", r.label);
        assert_eq!(r.label, p.label());
        assert!(
            r.finished + r.failed + r.killed <= r.generated,
            "{}: conservation",
            r.label
        );
    }
}

#[test]
#[should_panic(expected = "duration_ms: must be < 4294967296 (2^32 ms)")]
fn a_run_of_2_pow_32_ms_fails_at_start() {
    let mut sc = Scenario::quick(ProtocolChoice::Hid).nodes(40);
    sc.duration_ms = soc_types::RUN_LIMIT_MS;
    sc.run();
}

#[test]
fn deterministic_given_seed() {
    let a = quick(ProtocolChoice::Hid, 7);
    let b = quick(ProtocolChoice::Hid, 7);
    assert_eq!(a.generated, b.generated);
    assert_eq!(a.finished, b.finished);
    assert_eq!(a.failed, b.failed);
    assert_eq!(a.msg_total, b.msg_total);
    let c = quick(ProtocolChoice::Hid, 8);
    assert!(
        c.msg_total != a.msg_total || c.finished != a.finished,
        "different seeds should differ"
    );
}

#[test]
fn churn_run_stays_consistent() {
    let r = Scenario::quick(ProtocolChoice::Hid)
        .nodes(100)
        .hours(1)
        .churn(0.5)
        .seed(3)
        .run();
    assert!(r.generated > 0);
    assert!(
        r.finished + r.failed + r.killed <= r.generated,
        "conservation under churn"
    );
}

/// ISSUE 4 satellite: every epoch bump used to orphan the node's
/// previously scheduled completion event, which still got popped and
/// discarded. The memo keeps exactly one live event per node, so dead
/// pops are bounded by what was actually scheduled, and scheduling
/// itself is bounded by allocation-changing events (each admit or
/// completion batch triggers at most one (re)schedule, and admits are
/// bounded by tasks entering execution).
#[test]
fn stale_completion_pops_are_bounded() {
    for (churn, seed) in [(0.0, 5), (0.75, 6)] {
        let r = Scenario::quick(ProtocolChoice::Hid)
            .nodes(120)
            .hours(2)
            .churn(churn)
            .seed(seed)
            .run();
        assert!(r.completion_scheduled > 0, "nothing ever scheduled");
        assert!(
            r.completion_dead_pops <= r.completion_scheduled,
            "more dead pops ({}) than scheduled events ({})",
            r.completion_dead_pops,
            r.completion_scheduled
        );
        // Each admit schedules ≤ 1 event; each valid pop reschedules
        // ≤ 1, and valid pops split into completion batches (≥ 1 finish
        // each) plus at most one residual-epsilon retry per batch — so
        // scheduled ≤ admits + 2·finishes ≤ 3·admits.
        let admits = r.generated + r.local_generated + r.checkpoint_resubmits;
        assert!(
            r.completion_scheduled <= 3 * admits,
            "scheduled ({}) exceeds the 3×admits bound ({} admits)",
            r.completion_scheduled,
            admits
        );
    }
}

#[test]
fn harder_lambda_means_more_failures() {
    let easy = Scenario::quick(ProtocolChoice::Hid)
        .nodes(120)
        .lambda(0.25)
        .seed(4)
        .run();
    let hard = Scenario::quick(ProtocolChoice::Hid)
        .nodes(120)
        .lambda(1.0)
        .seed(4)
        .run();
    assert!(
        hard.f_ratio >= easy.f_ratio,
        "λ=1 ({}) should fail at least as often as λ=0.25 ({})",
        hard.f_ratio,
        easy.f_ratio
    );
}
