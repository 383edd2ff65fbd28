//! Benchmark/repro harness: one entry point per paper table & figure.
//!
//! Each `figN`/`tableN` function builds the matching §IV experiment from a
//! [`Scale`] (full paper scale or a fast smoke scale), runs every protocol
//! line in the figure and returns the reports; `print_*` helpers render the
//! same rows/series the paper plots. The `repro` binary exposes these on
//! the command line; this crate's tests call the same code at
//! [`Scale::bench`] and [`Scale::smoke`].

pub mod sweep;

use soc_sim::{FaultConfig, ProtocolChoice, RunReport, Scenario};

/// Experiment sizing.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Node count for Fig. 4–8 (Table III sweeps its own counts).
    pub nodes: usize,
    /// Simulated hours (paper: 24).
    pub hours: u64,
    /// Mean task inter-arrival per node (paper: 3000 s).
    pub mean_arrival_s: f64,
    /// Mean task duration (paper: 3000 s).
    pub mean_duration_s: f64,
    /// Node counts for the Table III scalability sweep.
    pub table3_nodes: &'static [usize],
}

impl Scale {
    /// The paper's full configuration (§IV-A). A full figure takes minutes.
    pub fn full() -> Self {
        Scale {
            nodes: 2000,
            hours: 24,
            mean_arrival_s: 3000.0,
            mean_duration_s: 3000.0,
            table3_nodes: &[2000, 4000, 6000, 8000, 10000, 12000],
        }
    }

    /// Reduced scale preserving the shape (`repro`'s default, tier-2 tests).
    pub fn smoke() -> Self {
        Scale {
            nodes: 300,
            hours: 6,
            mean_arrival_s: 1200.0,
            mean_duration_s: 1200.0,
            table3_nodes: &[300, 600, 900],
        }
    }

    /// Minimal scale for tier-1 tests (each run ≲ 100 ms in release).
    pub fn bench() -> Self {
        Scale {
            nodes: 150,
            hours: 2,
            mean_arrival_s: 600.0,
            mean_duration_s: 600.0,
            table3_nodes: &[100, 200, 300],
        }
    }

    /// Base scenario with this scale applied.
    pub fn scenario(&self, p: ProtocolChoice) -> Scenario {
        let mut sc = Scenario::paper(p).nodes(self.nodes).hours(self.hours);
        sc.mean_arrival_s = self.mean_arrival_s;
        sc.mean_duration_s = self.mean_duration_s;
        sc
    }
}

/// Run every scenario of a sweep through the parallel fan-out engine with
/// `threads` workers.
///
/// One task per grid cell; results come back in cell order, so the output
/// is bitwise identical to the serial loop the figures used to run (the
/// `parallel_equivalence` integration test pins this).
fn run_cells(cells: Vec<Scenario>, threads: usize) -> Vec<RunReport> {
    sweep::map_indexed_with_threads(cells.len(), threads, |i| cells[i].run())
}

/// Fig. 4: SID-CAN vs Newscast vs KHDN-CAN at λ = 0.84 and λ = 0.25
/// (throughput-ratio series), over `threads` workers. Returns `(λ,
/// reports)` pairs.
pub fn fig4(scale: Scale, seed: u64, threads: usize) -> Vec<(f64, Vec<RunReport>)> {
    let protos = [
        ProtocolChoice::Newscast,
        ProtocolChoice::Sid,
        ProtocolChoice::Khdn,
    ];
    let lambdas = [0.84, 0.25];
    let cells: Vec<Scenario> = lambdas
        .iter()
        .flat_map(|&lambda| {
            protos
                .iter()
                .map(move |&p| scale.scenario(p).lambda(lambda).seed(seed))
        })
        .collect();
    let mut reports = run_cells(cells, threads);
    lambdas
        .into_iter()
        .map(|lambda| (lambda, reports.drain(..protos.len()).collect()))
        .collect()
}

/// Fig. 5/6/7: the six protocols at one demand ratio (λ = 1, 0.5, 0.25),
/// reporting T-Ratio, F-Ratio and fairness series.
pub fn fig5(scale: Scale, lambda: f64, seed: u64) -> Vec<RunReport> {
    run_cells(
        ProtocolChoice::FIG5
            .iter()
            .map(|&p| scale.scenario(p).lambda(lambda).seed(seed))
            .collect(),
        sweep::thread_count(),
    )
}

/// Fig. 8: HID-CAN at λ = 0.5 under churn degrees 0/25/50/75/95%.
pub fn fig8(scale: Scale, seed: u64) -> Vec<(f64, RunReport)> {
    const DEGREES: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 0.95];
    let cells: Vec<Scenario> = DEGREES
        .iter()
        .map(|&deg| {
            scale
                .scenario(ProtocolChoice::Hid)
                .lambda(0.5)
                .churn(deg)
                .seed(seed)
        })
        .collect();
    DEGREES
        .into_iter()
        .zip(run_cells(cells, sweep::thread_count()))
        .collect()
}

/// Extension (the paper's §VI future work): HID-CAN under churn with
/// checkpoint-based execution fault tolerance on/off.
pub fn fig8_checkpointing(scale: Scale, seed: u64) -> Vec<(f64, RunReport, RunReport)> {
    const DEGREES: [f64; 4] = [0.25, 0.5, 0.75, 0.95];
    // Two cells per churn degree: plain, then checkpointing.
    let cells: Vec<Scenario> = DEGREES
        .iter()
        .flat_map(|&deg| {
            let base = scale
                .scenario(ProtocolChoice::Hid)
                .lambda(0.5)
                .churn(deg)
                .seed(seed);
            let mut ck = base;
            ck.checkpointing = true;
            [base, ck]
        })
        .collect();
    let mut reports = run_cells(cells, sweep::thread_count()).into_iter();
    DEGREES
        .into_iter()
        .map(|deg| {
            let plain = reports.next().expect("plain cell");
            let ckpt = reports.next().expect("checkpointing cell");
            (deg, plain, ckpt)
        })
        .collect()
}

/// Table III: HID-CAN scalability across node counts at λ = 0.5, over
/// `threads` workers.
pub fn table3(scale: Scale, seed: u64, threads: usize) -> Vec<RunReport> {
    run_cells(
        scale
            .table3_nodes
            .iter()
            .map(|&n| {
                scale
                    .scenario(ProtocolChoice::Hid)
                    .nodes(n)
                    .lambda(0.5)
                    .seed(seed)
            })
            .collect(),
        threads,
    )
}

/// Oracle-on diagnostic for the λ = 0.5 rejection-rate anomaly (ROADMAP):
/// reruns the Table III sweep with the ground-truth oracle enabled so the
/// lost tasks can be split into
///
/// * **unmatchable** — no live node qualified when the query was issued
///   (failure inevitable, not a protocol defect),
/// * **discovery misses** — a qualified node existed but the search
///   returned no live candidate,
/// * **re-check rejections** — candidates were found, but every selected
///   node failed Inequality (2) again on task arrival (stale records /
///   contention casualties).
pub fn diag_lambda05(scale: Scale, seed: u64) -> Vec<RunReport> {
    run_cells(
        scale
            .table3_nodes
            .iter()
            .map(|&n| {
                let mut sc = scale
                    .scenario(ProtocolChoice::Hid)
                    .nodes(n)
                    .lambda(0.5)
                    .seed(seed);
                sc.oracle = true;
                sc
            })
            .collect(),
        sweep::thread_count(),
    )
}

/// One hostility A/B: the same HID-CAN λ=0.5 run on the clean network,
/// under `blackhole_frac` byzantine nodes with the defence off, and under
/// the same faults with the blacklist/retry defence on.
#[derive(Clone, Debug)]
pub struct HostilityAb {
    /// Zero-fault baseline, defence off.
    pub clean: RunReport,
    /// Hostile, `defense = false` — the undefended damage.
    pub undefended: RunReport,
    /// Hostile, `defense = true` — blacklists + bounded retry.
    pub defended: RunReport,
    /// The blackhole fraction both hostile cells ran under.
    pub blackhole_frac: f64,
}

impl HostilityAb {
    /// T-Ratio lost to the faults with no defence (clean − undefended).
    pub fn degradation(&self) -> f64 {
        self.clean.t_ratio - self.undefended.t_ratio
    }

    /// Fraction of the undefended T-Ratio loss the defence wins back:
    /// `(defended − undefended) / (clean − undefended)`. 0 = useless,
    /// 1 = full recovery; NaN-safe (0 when there was no degradation).
    pub fn recovered_fraction(&self) -> f64 {
        let lost = self.degradation();
        if lost <= 0.0 {
            return 0.0;
        }
        (self.defended.t_ratio - self.undefended.t_ratio) / lost
    }
}

/// Run the hostility A/B at one blackhole fraction: the clean, undefended
/// and defended cells in one sweep.
pub fn diag_hostility(scale: Scale, seed: u64, blackhole_frac: f64) -> HostilityAb {
    let clean_sc = scale.scenario(ProtocolChoice::Hid).lambda(0.5).seed(seed);
    let hostile = FaultConfig {
        blackhole_frac,
        ..FaultConfig::default()
    };
    let defended = FaultConfig {
        defense: true,
        ..hostile
    };
    let cells = vec![clean_sc, clean_sc.fault(hostile), clean_sc.fault(defended)];
    let [clean, undefended, defended] = run_cells(cells, sweep::thread_count())
        .try_into()
        .expect("three cells");
    HostilityAb {
        clean,
        undefended,
        defended,
        blackhole_frac,
    }
}

/// Render the hostility A/B: per-cell outcome metrics plus the defence
/// verdict (T-Ratio degradation and recovered fraction).
pub fn print_hostility(ab: &HostilityAb) -> String {
    let mut out = String::from(
        "config\tt_ratio\tf_ratio\tfinished\tfailed\tdrops\tretries\tblacklisted\tevil/honest\n",
    );
    for (label, r) in [
        ("clean", &ab.clean),
        ("undefended", &ab.undefended),
        ("defended", &ab.defended),
    ] {
        out.push_str(&format!(
            "{}\t{:.3}\t{:.3}\t{}\t{}\t{}\t{}\t{}\t{}/{}\n",
            label,
            r.t_ratio,
            r.f_ratio,
            r.finished,
            r.failed,
            r.faults.drops_total(),
            r.faults.retries,
            r.faults.blacklisted,
            r.faults.suspected_evil,
            r.faults.suspected_honest,
        ));
    }
    out.push_str(&format!(
        "# {:.0}% blackholes: T-Ratio degradation {:.3}, defence recovers {:.0}% of it\n",
        ab.blackhole_frac * 100.0,
        ab.degradation(),
        ab.recovered_fraction() * 100.0,
    ));
    out
}

/// Serialize a command's reports as one JSON document (hand-rolled writer,
/// see `soc_sim::json`): named sections, each holding full `RunReport`s —
/// the input format of the figure-plotting pipelines.
pub fn reports_json(
    cmd: &str,
    scale_label: &str,
    seed: u64,
    sections: &[(String, Vec<RunReport>)],
) -> String {
    use soc_sim::json::{array, Obj};
    let secs = array(sections.iter().map(|(label, reports)| {
        Obj::new()
            .str("label", label)
            .raw("reports", &array(reports.iter().map(|r| r.to_json())))
            .finish()
    }));
    let mut out = Obj::new()
        .str("cmd", cmd)
        .str("scale", scale_label)
        .u64("seed", seed)
        .raw("sections", &secs)
        .finish();
    out.push('\n');
    out
}

/// Render the λ = 0.5 diagnostic split (all counts relative to overlay
/// submissions).
///
/// `disc_miss_lb = failed − unmatchable` is a **lower bound** on discovery
/// misses: the oracle verdict is aggregated per run, not joined per query,
/// and an unmatchable query can still end `rejected` (stale records get it
/// dispatched) rather than `failed`. `failed` itself upper-bounds
/// discovery-related loss, so the bracket `[disc_miss_lb, failed]` is tight
/// whenever `failed ≪ rejected` — which is exactly the observed regime.
pub fn print_diag(reports: &[RunReport]) -> String {
    let mut out = String::from(
        "scenario\tgen\tfinished\tfailed\trejected\tkilled\tunmatchable\tdisc_miss_lb\trecord_hit%\tmean_match\n",
    );
    for r in reports {
        let matchable = r.oracle_matchable.unwrap_or(0);
        let unmatchable = r.generated.saturating_sub(matchable);
        let disc_miss = r.failed.saturating_sub(unmatchable);
        let record_hit =
            r.oracle_record_matchable.unwrap_or(0) as f64 / r.generated.max(1) as f64 * 100.0;
        out.push_str(&format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{:.1}\t{:.1}\n",
            r.scenario,
            r.generated,
            r.finished,
            r.failed,
            r.rejected,
            r.killed,
            unmatchable,
            disc_miss,
            record_hit,
            r.oracle_mean_matching.unwrap_or(0.0),
        ));
    }
    out
}

/// Render a set of series reports side by side (one column per protocol),
/// for the metric selected by `metric` ∈ {"t", "f", "fair"}.
pub fn print_series(reports: &[RunReport], metric: &str) -> String {
    let mut out = String::from("hour");
    for r in reports {
        out.push_str(&format!("\t{}", r.label));
    }
    out.push('\n');
    let rows = reports.iter().map(|r| r.series.len()).min().unwrap_or(0);
    for i in 0..rows {
        out.push_str(&format!(
            "{:.1}",
            reports[0].series[i].t_ms as f64 / 3_600_000.0
        ));
        for r in reports {
            let p = &r.series[i];
            let v = match metric {
                "t" => p.t_ratio,
                "f" => p.f_ratio,
                "fair" => p.fairness,
                other => panic!("unknown metric {other}"),
            };
            out.push_str(&format!("\t{v:.4}"));
        }
        out.push('\n');
    }
    out
}

/// Render Table III rows (metrics vs scale).
pub fn print_table3(reports: &[RunReport]) -> String {
    let mut out = String::from(
        "scale\tthroughput_ratio\tfailed_task_ratio\tfairness_index\tmsg_delivery_cost\n",
    );
    for r in reports {
        let n: String = r
            .scenario
            .split_whitespace()
            .find(|s| s.starts_with("n="))
            .map(|s| s[2..].to_string())
            .unwrap_or_default();
        out.push_str(&format!(
            "{}\t{:.3}\t{:.1}%\t{:.3}\t{:.0}\n",
            n,
            r.t_ratio,
            r.f_ratio * 100.0,
            r.fairness,
            r.msg_per_node
        ));
    }
    out
}

/// Render Fig. 8 rows (final metrics vs churn degree).
pub fn print_fig8(rows: &[(f64, RunReport)]) -> String {
    let mut out = String::from("dynamic_degree\tt_ratio\tf_ratio\tfairness\n");
    for (deg, r) in rows {
        out.push_str(&format!(
            "{:.0}%\t{:.3}\t{:.3}\t{:.3}\n",
            deg * 100.0,
            r.t_ratio,
            r.f_ratio,
            r.fairness
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_scale_is_small() {
        let s = Scale::smoke();
        assert!(s.nodes < Scale::full().nodes);
        assert!(s.hours < Scale::full().hours);
    }

    #[test]
    fn scenario_applies_scale() {
        let sc = Scale::smoke().scenario(ProtocolChoice::Hid);
        assert_eq!(sc.n_nodes, 300);
        assert_eq!(sc.duration_ms, 6 * 3_600_000);
        assert_eq!(sc.mean_arrival_s, 1200.0);
    }

    #[test]
    fn print_series_shapes_header() {
        let r = Scale {
            nodes: 60,
            hours: 1,
            mean_arrival_s: 600.0,
            mean_duration_s: 600.0,
            table3_nodes: &[60],
        }
        .scenario(ProtocolChoice::Hid)
        .seed(3)
        .run();
        let txt = print_series(std::slice::from_ref(&r), "t");
        assert!(txt.starts_with("hour\tHID-CAN"));
        assert!(txt.lines().count() >= 2);
    }
}
