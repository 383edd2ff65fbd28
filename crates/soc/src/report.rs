//! Run reports: everything a bench/figure needs from one scenario run.

use soc_metrics::MetricPoint;
use soc_net::MsgKind;

/// Fault-injection and defence counters for one run. All-zero (the
/// default) on every clean run; the fingerprint encodes this block only
/// when some counter moved, so zero-fault runs stay byte-identical to
/// reports produced before the fault subsystem existed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultSummary {
    /// Blackhole nodes at end of run (churn re-rolls membership).
    pub blackhole_nodes: u64,
    /// Liar (corrupt-advert) nodes at end of run.
    pub liar_nodes: u64,
    /// Messages suppressed by blackhole receivers.
    pub drops_blackhole: u64,
    /// Messages lost to the iid per-hop channel.
    pub drops_loss: u64,
    /// Messages lost to the bursty Gilbert–Elliott channel.
    pub drops_burst: u64,
    /// Messages cut by partition windows.
    pub drops_partition: u64,
    /// Duty queries re-issued by the defence layer after a timeout.
    pub retries: u64,
    /// Suspicion strikes registered (defence on only).
    pub suspicions: u64,
    /// Blacklisting events over the run.
    pub blacklisted: u64,
    /// Peak simultaneously-active blacklist entries.
    pub blacklist_peak: u64,
    /// Blacklisting events whose target really was a blackhole/liar.
    pub suspected_evil: u64,
    /// Blacklisting events that hit an honest node (collateral of lossy
    /// links — the defence's false-positive cost, measured).
    pub suspected_honest: u64,
}

impl FaultSummary {
    /// Did any fault or defence counter move this run?
    pub fn any(&self) -> bool {
        *self != FaultSummary::default()
    }

    /// Total messages dropped by injected faults.
    pub fn drops_total(&self) -> u64 {
        self.drops_blackhole + self.drops_loss + self.drops_burst + self.drops_partition
    }
}

/// Aggregated outcome of one scenario run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Protocol label (paper legend name).
    pub label: String,
    /// Scenario descriptor (`n`, λ, churn, seed).
    pub scenario: String,
    /// Hourly metric samples (the plotted series of Fig. 4–8).
    pub series: Vec<MetricPoint>,
    /// Tasks generated over the run.
    pub generated: u64,
    /// Tasks finished.
    pub finished: u64,
    /// Tasks that failed discovery.
    pub failed: u64,
    /// Tasks killed by churn.
    pub killed: u64,
    /// Tasks whose candidates all rejected them on arrival (contention
    /// casualties — depress T-Ratio, excluded from F-Ratio).
    pub rejected: u64,
    /// Checkpoint-recovered resubmissions after churn kills (0 unless
    /// `Scenario::checkpointing`).
    pub checkpoint_resubmits: u64,
    /// `Ev::Completion` events actually enqueued (after the equal-prediction
    /// dedup memo).
    pub completion_scheduled: u64,
    /// Completion schedulings skipped because the new prediction matched
    /// the already-queued event (the epoch-aware memo re-validated it).
    pub completion_dedup_skips: u64,
    /// Stale completion events popped and discarded (superseded
    /// predictions, dead/rejoined nodes). Bounded by `completion_scheduled`.
    pub completion_dead_pops: u64,
    /// Tasks satisfied by the local scheduler (never queried the overlay).
    pub local_generated: u64,
    /// Locally-run tasks that finished.
    pub local_finished: u64,
    /// Oracle: of the issued queries, how many had ≥1 qualified live node
    /// at issue time (`None` unless `Scenario::oracle`).
    pub oracle_matchable: Option<u64>,
    /// Oracle: of the issued queries, how many had ≥1 qualified *cached
    /// record* somewhere in the overlay at issue time (protocol-dependent;
    /// `None` when unsupported or oracle off).
    pub oracle_record_matchable: Option<u64>,
    /// Oracle: mean number of live nodes qualifying a query at issue time.
    pub oracle_mean_matching: Option<f64>,
    /// Final T-Ratio.
    pub t_ratio: f64,
    /// Final F-Ratio.
    pub f_ratio: f64,
    /// Final Jain fairness index.
    pub fairness: f64,
    /// Mean execution efficiency of finished tasks.
    pub mean_efficiency: f64,
    /// Total messages sent/forwarded.
    pub msg_total: u64,
    /// The paper's "message delivery cost": messages per node.
    pub msg_per_node: f64,
    /// Per-kind message breakdown `(label, count)`, descending.
    pub msg_breakdown: Vec<(String, u64)>,
    /// Fault-injection and defence counters (all zero on clean runs).
    pub faults: FaultSummary,
    /// Wall-clock runtime of the simulation (diagnostics only).
    pub wall_ms: u128,
    /// Per-phase wall-time attribution (`SOC_PROFILE=on` only; `None` when
    /// the profiler is off). Observation-only diagnostics — never
    /// fingerprinted, like `wall_ms`.
    pub profile: Option<crate::profile::ProfileSummary>,
    /// Protocol-internal diagnostic counters (free-form).
    pub diag: String,
}

impl RunReport {
    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "{:<12} {:<24} T-Ratio {:.3}  F-Ratio {:.3}  fairness {:.3}  msgs/node {:.0}  (gen {}, fin {}, fail {}, rej {}, killed {})",
            self.label,
            self.scenario,
            self.t_ratio,
            self.f_ratio,
            self.fairness,
            self.msg_per_node,
            self.generated,
            self.finished,
            self.failed,
            self.rejected,
            self.killed,
        )
    }

    /// Tab-separated series rows: `hour  t_ratio  f_ratio  fairness` —
    /// the exact columns the paper plots in Fig. 4–8.
    pub fn series_rows(&self) -> String {
        let mut out = String::from("hour\tt_ratio\tf_ratio\tfairness\n");
        for p in &self.series {
            out.push_str(&format!(
                "{:.1}\t{:.4}\t{:.4}\t{:.4}\n",
                p.t_ms as f64 / 3_600_000.0,
                p.t_ratio,
                p.f_ratio,
                p.fairness
            ));
        }
        out
    }

    /// Bit-exact canonical encoding of every *deterministic* field. Floats
    /// are encoded as raw IEEE-754 bits, so two reports fingerprint equal
    /// iff the runs were bitwise identical. Every equivalence suite, pinned
    /// constant and the repo benchmark's per-rep check compare this string.
    pub fn fingerprint(&self) -> String {
        Self::encode(self)
    }

    /// [`RunReport::fingerprint`]'s body. Its parameter pattern names every
    /// field and has no `..`, so a field added to `RunReport` does not
    /// compile until it is encoded here or ignored by name with its
    /// reason; an ignored field has no binding and no `self` to reach it
    /// through, so it cannot leak into the encoding either.
    fn encode(
        RunReport {
            label,
            scenario,
            series,
            generated,
            finished,
            failed,
            killed,
            rejected,
            checkpoint_resubmits,
            completion_scheduled,
            completion_dedup_skips,
            completion_dead_pops,
            local_generated,
            local_finished,
            oracle_matchable,
            oracle_record_matchable,
            oracle_mean_matching,
            t_ratio,
            f_ratio,
            fairness,
            mean_efficiency,
            msg_total,
            msg_per_node,
            msg_breakdown,
            faults,
            // Wall-clock runtime, diagnostics only: it varies run to run by
            // construction and must never affect bitwise-equivalence checks.
            wall_ms: _,
            // Per-phase wall-time attribution (`SOC_PROFILE=on`): pure
            // observation of the run, made of wall-clock reads. Encoding it
            // would vary run to run and break the on/off bitwise
            // equivalence the `profile_equivalence` suite pins.
            profile: _,
            diag,
        }: &RunReport,
    ) -> String {
        use std::fmt::Write;
        fn f(out: &mut String, v: f64) {
            let _ = write!(out, "{:016x};", v.to_bits());
        }
        let mut out = String::with_capacity(512);
        let _ = write!(out, "{label}|{scenario}|");
        let _ = write!(
            out,
            "g{generated};f{finished};x{failed};k{killed};r{rejected};c{checkpoint_resubmits};\
             lg{local_generated};lf{local_finished};m{msg_total};cs{completion_scheduled};\
             cd{completion_dedup_skips};cp{completion_dead_pops};|",
        );
        let _ = write!(
            out,
            "om{oracle_matchable:?};or{oracle_record_matchable:?};|"
        );
        if let Some(v) = *oracle_mean_matching {
            f(&mut out, v);
        }
        for v in [
            *t_ratio,
            *f_ratio,
            *fairness,
            *mean_efficiency,
            *msg_per_node,
        ] {
            f(&mut out, v);
        }
        out.push('|');
        for p in series {
            let _ = write!(
                out,
                "t{};g{};f{};x{};k{};",
                p.t_ms, p.generated, p.finished, p.failed, p.killed
            );
            f(&mut out, p.t_ratio);
            f(&mut out, p.f_ratio);
            f(&mut out, p.fairness);
        }
        out.push('|');
        for (label, count) in msg_breakdown {
            let _ = write!(out, "{label}={count};");
        }
        let _ = write!(out, "|{diag}");
        // Fault counters are encoded only when some counter moved: clean
        // runs keep the exact pre-fault-subsystem encoding, so historical
        // fingerprints (and the zero-fault identity pins) stay valid.
        if faults.any() {
            let fs = faults;
            let _ = write!(
                out,
                "|flt:bn{};ln{};db{};dl{};du{};dp{};rt{};su{};bl{};bp{};se{};sh{};",
                fs.blackhole_nodes,
                fs.liar_nodes,
                fs.drops_blackhole,
                fs.drops_loss,
                fs.drops_burst,
                fs.drops_partition,
                fs.retries,
                fs.suspicions,
                fs.blacklisted,
                fs.blacklist_peak,
                fs.suspected_evil,
                fs.suspected_honest,
            );
        }
        out
    }

    /// Serialize the full report as one JSON object (hand-rolled writer —
    /// see [`crate::json`]; serde is unavailable offline). Floats use the
    /// shortest round-trip representation, so a parsed value compares
    /// equal to the original.
    pub fn to_json(&self) -> String {
        use crate::json::{array, Obj};
        let series = array(self.series.iter().map(|p| {
            Obj::new()
                .u64("t_ms", p.t_ms)
                .u64("generated", p.generated)
                .u64("finished", p.finished)
                .u64("failed", p.failed)
                .u64("killed", p.killed)
                .f64("t_ratio", p.t_ratio)
                .f64("f_ratio", p.f_ratio)
                .f64("fairness", p.fairness)
                .finish()
        }));
        let breakdown = array(
            self.msg_breakdown
                .iter()
                .map(|(label, count)| Obj::new().str("kind", label).u64("count", *count).finish()),
        );
        Obj::new()
            .str("label", &self.label)
            .str("scenario", &self.scenario)
            .u64("generated", self.generated)
            .u64("finished", self.finished)
            .u64("failed", self.failed)
            .u64("killed", self.killed)
            .u64("rejected", self.rejected)
            .u64("checkpoint_resubmits", self.checkpoint_resubmits)
            .u64("completion_scheduled", self.completion_scheduled)
            .u64("completion_dedup_skips", self.completion_dedup_skips)
            .u64("completion_dead_pops", self.completion_dead_pops)
            .u64("local_generated", self.local_generated)
            .u64("local_finished", self.local_finished)
            .opt_u64("oracle_matchable", self.oracle_matchable)
            .opt_u64("oracle_record_matchable", self.oracle_record_matchable)
            .opt_f64("oracle_mean_matching", self.oracle_mean_matching)
            .f64("t_ratio", self.t_ratio)
            .f64("f_ratio", self.f_ratio)
            .f64("fairness", self.fairness)
            .f64("mean_efficiency", self.mean_efficiency)
            .u64("msg_total", self.msg_total)
            .f64("msg_per_node", self.msg_per_node)
            .raw("msg_breakdown", &breakdown)
            .raw(
                "faults",
                &Obj::new()
                    .u64("blackhole_nodes", self.faults.blackhole_nodes)
                    .u64("liar_nodes", self.faults.liar_nodes)
                    .u64("drops_blackhole", self.faults.drops_blackhole)
                    .u64("drops_loss", self.faults.drops_loss)
                    .u64("drops_burst", self.faults.drops_burst)
                    .u64("drops_partition", self.faults.drops_partition)
                    .u64("retries", self.faults.retries)
                    .u64("suspicions", self.faults.suspicions)
                    .u64("blacklisted", self.faults.blacklisted)
                    .u64("blacklist_peak", self.faults.blacklist_peak)
                    .u64("suspected_evil", self.faults.suspected_evil)
                    .u64("suspected_honest", self.faults.suspected_honest)
                    .finish(),
            )
            .u64("wall_ms", self.wall_ms as u64)
            .raw(
                "profile",
                &match &self.profile {
                    None => "null".to_string(),
                    Some(p) => array(p.phases.iter().map(|ph| {
                        Obj::new()
                            .str("phase", ph.label)
                            .str("group", ph.group)
                            .u64("ns", ph.ns)
                            .u64("count", ph.count)
                            .finish()
                    })),
                },
            )
            .str("diag", &self.diag)
            .raw("series", &series)
            .finish()
    }

    /// Count for one message kind, 0 when absent.
    pub fn msg_count(&self, kind: MsgKind) -> u64 {
        self.msg_breakdown
            .iter()
            .find(|(l, _)| l == kind.label())
            .map(|&(_, c)| c)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake() -> RunReport {
        RunReport {
            label: "HID-CAN".into(),
            scenario: "n=100 λ=0.5".into(),
            series: vec![],
            generated: 100,
            finished: 60,
            failed: 10,
            killed: 0,
            rejected: 0,
            checkpoint_resubmits: 0,
            completion_scheduled: 70,
            completion_dedup_skips: 2,
            completion_dead_pops: 9,
            local_generated: 40,
            local_finished: 30,
            oracle_matchable: None,
            oracle_record_matchable: None,
            oracle_mean_matching: None,
            t_ratio: 0.6,
            f_ratio: 0.1,
            fairness: 0.8,
            mean_efficiency: 0.9,
            msg_total: 5000,
            msg_per_node: 50.0,
            msg_breakdown: vec![("state-update".into(), 3000), ("duty-query".into(), 2000)],
            faults: FaultSummary::default(),
            wall_ms: 12,
            profile: None,
            diag: String::new(),
        }
    }

    #[test]
    fn summary_contains_key_numbers() {
        let s = fake().summary();
        assert!(s.contains("HID-CAN"));
        assert!(s.contains("0.600"));
        assert!(s.contains("0.100"));
    }

    #[test]
    fn msg_count_lookup() {
        let r = fake();
        assert_eq!(r.msg_count(MsgKind::StateUpdate), 3000);
        assert_eq!(r.msg_count(MsgKind::IndexJump), 0);
    }

    #[test]
    fn series_rows_header() {
        assert!(fake().series_rows().starts_with("hour\t"));
    }

    #[test]
    fn json_emits_every_field() {
        let r = fake();
        let j = r.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"label\":\"HID-CAN\""));
        assert!(j.contains("\"scenario\":\"n=100 λ=0.5\""));
        assert!(j.contains("\"generated\":100"));
        assert!(j.contains("\"oracle_matchable\":null"));
        assert!(j.contains("\"t_ratio\":0.6"));
        assert!(j.contains("\"msg_breakdown\":[{\"kind\":\"state-update\",\"count\":3000}"));
        assert!(j.contains("\"series\":[]"));
        // Balanced braces/brackets (cheap well-formedness check).
        let depth = j.chars().fold(0i64, |d, c| match c {
            '{' | '[' => d + 1,
            '}' | ']' => d - 1,
            _ => d,
        });
        assert_eq!(depth, 0);
    }

    #[test]
    fn zero_fault_fingerprint_has_no_fault_block() {
        // The conditional encoding is the zero-fault identity mechanism:
        // a default FaultSummary must leave the encoding byte-identical to
        // the pre-fault format (no `flt:` segment at all).
        let r = fake();
        assert!(!r.fingerprint().contains("flt:"));
        let mut hostile = fake();
        hostile.faults.drops_blackhole = 3;
        let fp = hostile.fingerprint();
        assert!(fp.contains("flt:"), "fault counters must be fingerprinted");
        assert_ne!(r.fingerprint(), fp);
    }

    #[test]
    fn json_nests_fault_counters() {
        let mut r = fake();
        r.faults.retries = 4;
        r.faults.suspected_honest = 1;
        let j = r.to_json();
        assert!(j.contains("\"faults\":{"));
        assert!(j.contains("\"retries\":4"));
        assert!(j.contains("\"suspected_honest\":1"));
    }

    #[test]
    fn fingerprint_ignores_wall_clock_only() {
        let a = fake();
        let mut b = fake();
        b.wall_ms = a.wall_ms + 12345;
        assert_eq!(a.fingerprint(), b.fingerprint());
        let mut c = fake();
        c.finished += 1;
        assert_ne!(a.fingerprint(), c.fingerprint());
        let mut d = fake();
        d.t_ratio += 1e-15; // even sub-print-precision drift must show
        assert_ne!(a.fingerprint(), d.fingerprint());
    }

    #[test]
    fn fingerprint_ignores_profile() {
        // The on/off bitwise-equivalence contract: attaching a profile
        // summary must not perturb the fingerprint by a single byte.
        let a = fake();
        let mut b = fake();
        b.profile = Some(crate::profile::ProfileSummary {
            phases: vec![crate::profile::PhaseStat {
                label: "deliver",
                group: "event",
                ns: 123_456_789,
                count: 42,
            }],
        });
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn json_profile_block_none_and_some() {
        let a = fake();
        assert!(a.to_json().contains("\"profile\":null"));
        let mut b = fake();
        b.profile = Some(crate::profile::ProfileSummary {
            phases: vec![crate::profile::PhaseStat {
                label: "route",
                group: "count",
                ns: 1000,
                count: 3,
            }],
        });
        let j = b.to_json();
        assert!(j.contains(
            "\"profile\":[{\"phase\":\"route\",\"group\":\"count\",\"ns\":1000,\"count\":3}]"
        ));
    }
}
