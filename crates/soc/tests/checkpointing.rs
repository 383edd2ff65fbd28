//! Fig. 8 / checkpointing qualitative claims as integration tests:
//!
//! * checkpoint-based fault tolerance (§VI future work) must *recover*
//!   tasks that churn would otherwise kill — strictly fewer kills,
//!   resubmissions actually happening, and no conservation violation —
//!   across the Fig. 8 churn degrees at smoke scale;
//! * the Fig. 8 shape itself: HID-CAN degrades gracefully under churn
//!   (throughput at 50 % dynamic degree stays within the paper's band of
//!   the static run, and failed-task ratio rises monotonically-ish rather
//!   than cliffing).
//!
//! Tier-2 (smoke scale is minutes in a debug build): compiled only under
//! the `tier2` feature; `cargo tier2` and CI's nightly cron run them in
//! release.

#[cfg(feature = "tier2")]
mod tier2 {
    use soc_sim::{ProtocolChoice, Scenario};

    fn smoke(churn: f64, checkpointing: bool, seed: u64) -> soc_sim::RunReport {
        let mut sc = Scenario::paper(ProtocolChoice::Hid)
            .nodes(300)
            .hours(6)
            .lambda(0.5)
            .churn(churn)
            .seed(seed);
        sc.mean_arrival_s = 1200.0;
        sc.mean_duration_s = 1200.0;
        sc.checkpointing = checkpointing;
        sc.run()
    }

    #[test]
    fn checkpointing_recovers_killed_tasks_across_churn_degrees() {
        for churn in [0.25, 0.5, 0.75, 0.95] {
            let plain = smoke(churn, false, 1);
            let ckpt = smoke(churn, true, 1);

            assert_eq!(
                plain.checkpoint_resubmits, 0,
                "churn {churn}: plain run must not resubmit"
            );
            assert!(
                ckpt.checkpoint_resubmits > 0,
                "churn {churn}: no resubmissions recorded"
            );
            assert!(
                ckpt.killed < plain.killed.max(1),
                "churn {churn}: checkpointing did not reduce kills ({} vs {})",
                ckpt.killed,
                plain.killed
            );
            // Recovered work must not be invented: conservation holds.
            for r in [&plain, &ckpt] {
                assert!(
                    r.finished + r.failed + r.killed + r.rejected <= r.generated,
                    "churn {churn}: conservation violated ({})",
                    r.summary()
                );
            }
            // Recovery should help, never hurt, throughput.
            assert!(
                ckpt.t_ratio >= plain.t_ratio * 0.95,
                "churn {churn}: checkpointing collapsed T-Ratio ({} vs {})",
                ckpt.t_ratio,
                plain.t_ratio
            );
        }
    }

    /// The Fig. 8 shape claim: churn hurts but does not collapse HID-CAN at
    /// the paper's λ = 0.5 operating point.
    #[test]
    fn fig8_shape_churn_degrades_gracefully() {
        let degrees = [0.0, 0.25, 0.5, 0.75];
        let reports: Vec<soc_sim::RunReport> =
            degrees.iter().map(|&d| smoke(d, false, 1)).collect();
        let t0 = reports[0].t_ratio;
        assert!(t0 > 0.0, "static run finished nothing");
        let t50 = reports[2].t_ratio;
        assert!(
            t50 > 0.4 * t0,
            "fig8: 50% churn collapsed throughput ({t50} vs static {t0})"
        );
        // Killed tasks must actually appear once churn is on, and every run
        // conserves tasks.
        for (deg, r) in degrees.iter().zip(&reports) {
            if *deg > 0.0 {
                assert!(r.killed > 0, "churn {deg}: no kills recorded");
            }
            assert!(
                r.finished + r.failed + r.killed + r.rejected <= r.generated,
                "churn {deg}: conservation violated ({})",
                r.summary()
            );
        }
    }

    #[test]
    fn checkpointing_is_a_no_op_without_churn() {
        let plain = smoke(0.0, false, 2);
        let ckpt = smoke(0.0, true, 2);
        assert_eq!(plain.checkpoint_resubmits, 0);
        assert_eq!(ckpt.checkpoint_resubmits, 0, "no churn, nothing to recover");
        // Identical runs: checkpointing only activates on churn kills.
        assert_eq!(plain.fingerprint(), ckpt.fingerprint());
    }
}
