//! The fault subsystem's two contracts, pinned:
//!
//! 1. **Zero-fault identity.** A run with no `[fault]` section — or an
//!    explicit all-zero one — is bitwise identical to the fault-free
//!    baseline. The FNV fingerprints below pin the runner's schedule;
//!    these tests must match them until the schedule changes
//!    deliberately. Fault
//!    randomness lives on its own `RngStreams::Fault` stream and the
//!    clean path draws none of it.
//! 2. **Measured hostility.** Under 15% blackhole nodes the undefended
//!    run degrades measurably, the blacklist/retry defence recovers a
//!    quantified fraction of the loss, and it does so without
//!    blacklisting honest nodes.

use soc_bench::{diag_hostility, Scale};
use soc_scenario::ScenarioSpec;
use soc_sim::RunReport;

fn run_spec(text: &str) -> RunReport {
    ScenarioSpec::parse(text)
        .expect("inline spec parses")
        .scenario
        .run()
}

const PIN_QUICK: &str = "[scenario]\nname = pin-quick\nprotocol = hid\nnodes = 150\n\
     duration_ms = 7200000\nlambda = 0.5\nseed = 11\nsample_ms = 600000\n\
     mean_arrival_s = 600\nmean_duration_s = 600\n";

const PIN_CHURN: &str = "[scenario]\nname = pin-churn\nprotocol = hid\nnodes = 150\n\
     duration_ms = 7200000\nlambda = 0.5\nseed = 12\nchurn = 0.5\nsample_ms = 600000\n\
     mean_arrival_s = 600\nmean_duration_s = 600\n";

const PIN_NEWSCAST: &str = "[scenario]\nname = pin-newscast\nprotocol = newscast\nnodes = 150\n\
     duration_ms = 7200000\nlambda = 0.5\nseed = 13\nsample_ms = 600000\n\
     mean_arrival_s = 600\nmean_duration_s = 600\n";

const PIN_KHDN: &str = "[scenario]\nname = pin-khdn\nprotocol = khdn\nnodes = 150\n\
     duration_ms = 7200000\nlambda = 0.5\nseed = 14\nsample_ms = 600000\n\
     mean_arrival_s = 600\nmean_duration_s = 600\n";

/// The paper's other PID-CAN variants on `PIN_QUICK`'s shape: SID's
/// fan-out (Algorithms 1–2 with every target picked by the initiator),
/// VD's virtual dimension and SoS's slacked first query.
const PIN_SID: &str = "[scenario]\nname = pin-sid\nprotocol = sid\nnodes = 150\n\
     duration_ms = 7200000\nlambda = 0.5\nseed = 17\nsample_ms = 600000\n\
     mean_arrival_s = 600\nmean_duration_s = 600\n";

const PIN_SID_VD: &str = "[scenario]\nname = pin-sid-vd\nprotocol = sid+vd\nnodes = 150\n\
     duration_ms = 7200000\nlambda = 0.5\nseed = 18\nsample_ms = 600000\n\
     mean_arrival_s = 600\nmean_duration_s = 600\n";

const PIN_HID_SOS: &str = "[scenario]\nname = pin-hid-sos\nprotocol = hid+sos\nnodes = 150\n\
     duration_ms = 7200000\nlambda = 0.5\nseed = 19\nsample_ms = 600000\n\
     mean_arrival_s = 600\nmean_duration_s = 600\n";

/// 24-node LANs: 8 LANs before churn headroom and 10 with it, so churn
/// swaps and checkpoint resubmissions cross LAN boundaries, where every
/// leg pays the WAN latency.
const PIN_LANS_CKPT: &str = "[scenario]\nname = pin-lans-ckpt\nprotocol = hid\nnodes = 192\n\
     lan_size = 24\nduration_ms = 7200000\nlambda = 0.5\nseed = 15\nchurn = 0.5\n\
     checkpointing = true\nsample_ms = 600000\nmean_arrival_s = 600\nmean_duration_s = 600\n";

/// Multi-LAN churn again, now hostile and defended (`defense = true`):
/// blackholes and liars feed per-observer blacklists while churn swaps
/// take observers and suspects away, so `node_leave` → `clear_node` /
/// `on_node_left` run with the defence layer live — the combination the
/// zero-fault pins never meet. 30-node LANs: the 240 ids (192 + churn
/// headroom) make 8 LANs.
const PIN_LANS_DEFENCE: &str = "[scenario]\nname = pin-lans-defence\nprotocol = hid\nnodes = 192\n\
     lan_size = 30\nduration_ms = 7200000\nlambda = 0.5\nseed = 16\nchurn = 0.5\n\
     sample_ms = 600000\nmean_arrival_s = 600\nmean_duration_s = 600\n\
     [fault]\nblackhole = 0.15\nliar = 0.1\ndefense = true\n";

/// Fault-free fingerprints (recorded via `repro scenario`). Zero-fault
/// runs must reproduce them bitwise. These constants are what pins
/// behaviour across engine and data-structure replacements: a change that
/// only swaps an implementation must leave every one of them alone.
///
/// The CAN-routed ones (all but Newscast, which never routes) were
/// re-recorded once when greedy routing became a strict descent of
/// `Zone::route_key`: messages aimed at split-plane targets arrive instead
/// of circling, and `PidDiag` prints `route_exhausted`. The four PID-CAN
/// ones were re-recorded again when the runner stopped cutting a run into
/// per-LAN-group partitions: the partition keyed RNG streams, id
/// namespaces and same-instant ties, so every HID run moved; Newscast and
/// KHDN always ran unpartitioned and did not. The two churny ones were
/// re-recorded once more when churn swaps and samples joined the node
/// queue: a swap at `t` no longer runs ahead of node events scheduled
/// earlier for `t`. The SID, SID+VD and HID+SoS pins came later and have
/// never been re-recorded.
#[test]
fn zero_fault_runs_match_pre_fault_pins() {
    let pins: [(&str, &str, u64); 8] = [
        ("static HID", PIN_QUICK, 0x32a5_c1b0_b1b5_f480),
        ("static SID", PIN_SID, 0xde9a_18d8_d2e7_1ebb),
        ("static SID+VD", PIN_SID_VD, 0x5542_6fd0_138c_01e7),
        ("static HID+SoS", PIN_HID_SOS, 0x45ab_8086_e74e_a6cc),
        ("churny HID", PIN_CHURN, 0x203c_b9e8_5b4d_bbd1),
        ("Newscast", PIN_NEWSCAST, 0xe326_5c4f_f52a_3bbd),
        ("KHDN", PIN_KHDN, 0x73e3_445c_f6a0_ec08),
        (
            "multi-LAN churny HID with checkpointing",
            PIN_LANS_CKPT,
            0xd278_653b_cbab_08f7,
        ),
    ];
    for (what, spec, pin) in pins {
        let r = run_spec(spec);
        assert_eq!(
            r.fingerprint_digest(),
            pin,
            "{what}: zero-fault run diverged from the pinned baseline"
        );
        assert!(!r.faults.any());
        assert_eq!(
            r.checkpoint_resubmits > 0,
            spec.contains("checkpointing = true"),
            "{what}: checkpoint resubmissions"
        );
    }
}

/// The defended hostile multi-LAN churn run, pinned like the zero-fault
/// ones: a change to how per-node rows are stored, or to how a departure
/// is announced, must leave it alone. That this run really has
/// blacklisting observers churn away is asserted where the blacklists are
/// visible — `runner::exec_tests::churn_takes_blacklisting_observers_away`,
/// same shape, in-crate.
#[test]
fn defended_hostile_multi_lan_churn_matches_pin() {
    let r = run_spec(PIN_LANS_DEFENCE);
    assert_eq!(
        r.fingerprint_digest(),
        0xc3f1_53a3_2075_da3e,
        "defended hostile multi-LAN churn diverged from the pinned baseline"
    );
    let f = &r.faults;
    assert!(f.blackhole_nodes > 0 && f.liar_nodes > 0, "{f:?}");
    assert!(f.suspicions > 0, "no strike was ever registered: {f:?}");
    assert!(f.blacklisted > 0, "nobody was ever blacklisted: {f:?}");
    assert!(r.killed > 0, "churn never took a busy node away");
}

/// Omitting `[fault]` and writing it out all-zero are the same run.
#[test]
fn fault_section_absent_equals_explicit_zero() {
    let explicit = format!(
        "{PIN_QUICK}\n[fault]\nblackhole = 0\nliar = 0\nloss = 0\nburst_loss = 0\n\
         burst_len = 8\nburst_gap = 200\npartition_period_ms = 0\npartition_ms = 0\n\
         defense = false\n"
    );
    assert_eq!(
        run_spec(PIN_QUICK).fingerprint(),
        run_spec(&explicit).fingerprint()
    );
}

fn assert_ab_verdict(ab: &soc_bench::HostilityAb, tag: &str) {
    // (1) The attack hurts: ≥15% blackholes must cost visible T-Ratio.
    assert!(
        ab.degradation() > 0.05,
        "{tag}: expected measurable degradation, got {:.3} (clean {:.3} → undefended {:.3})",
        ab.degradation(),
        ab.clean.t_ratio,
        ab.undefended.t_ratio
    );
    // (2) The defence wins a real fraction of it back.
    assert!(
        ab.recovered_fraction() > 0.25,
        "{tag}: defence recovered only {:.0}%",
        ab.recovered_fraction() * 100.0
    );
    // (3) It works by catching the evil nodes, not by shotgunning: honest
    // blacklistings stay rare next to evil ones.
    let f = &ab.defended.faults;
    assert!(
        f.suspected_evil > 0,
        "{tag}: defence never blacklisted anyone"
    );
    assert!(
        f.suspected_honest * 10 <= f.suspected_evil,
        "{tag}: too many honest blacklistings ({} honest vs {} evil)",
        f.suspected_honest,
        f.suspected_evil
    );
    // (4) The undefended run took the damage silently.
    assert_eq!(ab.undefended.faults.retries, 0);
    assert_eq!(ab.undefended.faults.blacklisted, 0);
    assert!(ab.undefended.faults.drops_blackhole > 0);
}

/// The acceptance criterion, asserted: degradation at 15% blackholes,
/// quantified recovery with the defence on.
#[test]
fn defence_recovers_measurable_fraction_under_blackholes() {
    let ab = diag_hostility(Scale::bench(), 7, 0.15);
    assert_ab_verdict(&ab, "bench");
    // Zero faults ⇒ the A/B's clean cell carries no fault accounting.
    assert!(!ab.clean.faults.any());
}

#[cfg(feature = "tier2")]
mod tier2 {
    use super::*;

    /// Same verdict at the paper's smoke scale (`cargo tier2`).
    #[test]
    fn smoke_scale_defence_verdict_holds() {
        let ab = diag_hostility(Scale::smoke(), 1, 0.15);
        assert_ab_verdict(&ab, "smoke");
    }
}

/// `repro` validates the environment before it runs anything: a value
/// outside a knob's accepted set is a usage error (exit 2) naming the
/// knob, the value and the accepted set — not a silent run of the default.
/// So is a `SOC_*` variable that is no knob at all, like the removed
/// `SOC_SIM_EXEC`, `SOC_ROUTE`, `SOC_FAULT_DEFENSE` or `SOC_BENCH_THREADS`
/// a script may still set: for `SOC_FAULT_DEFENSE`, ignoring it would run
/// the undefended simulation where `[fault] defense = true` is now the way
/// to ask for the defence.
#[test]
fn repro_refuses_a_mistyped_knob_value() {
    let scn = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../scenarios/paper-smoke.scn"
    );
    for (name, value, complaint) in [
        (
            "SOC_PROFILE",
            "enabled",
            "SOC_PROFILE=\"enabled\": expected off | on",
        ),
        (
            "SOC_SIM_EXEC",
            "sharded",
            "SOC_SIM_EXEC: not a knob; the knobs are SOC_PROFILE",
        ),
        (
            "SOC_ROUTE",
            "cached",
            "SOC_ROUTE: not a knob; the knobs are SOC_PROFILE",
        ),
        (
            "SOC_FAULT_DEFENSE",
            "on",
            "SOC_FAULT_DEFENSE: not a knob; the knobs are SOC_PROFILE",
        ),
        (
            "SOC_BENCH_THREADS",
            "4",
            "SOC_BENCH_THREADS: not a knob; the knobs are SOC_PROFILE",
        ),
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["scenario", scn])
            .env(name, value)
            .output()
            .expect("repro runs");
        assert_eq!(out.status.code(), Some(2), "{name}={value}");
        assert!(out.stdout.is_empty(), "nothing may run before the check");
        assert_eq!(String::from_utf8_lossy(&out.stderr).trim_end(), complaint);
    }
}
