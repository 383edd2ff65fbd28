//! The timed run: end-to-end metrics, tracing off, defaults only.
//!
//! One discarded warm-up rep, then cycles of `[calibration pairs (kernel A,
//! kernel B) interleaved with BOOTSTRAPS_PER_REP bootstrap-only runs, one
//! rep]` until the time budget is spent. Interleaving matters on a shared box:
//! the calibration and set-up samples see the same minutes of machine
//! weather as the reps they are compared with. Every host-time metric is
//! a ratio of medians (see [`crate::stats::calibrated`]).

use crate::calib::{kernel_a, ChaseBuffer};
use crate::clock::{self, timed};
use crate::stats::{calibrated, iqr_pct, median, NOISY_IQR_PCT};
use crate::verify::{conservation, run_caught, same_fingerprint, Ops};
use crate::workloads::Workload;
use crate::{host, Metric};
use soc_sim::Scenario;

/// Bootstrap-only runs sampled before each rep. A bootstrap is 10–30×
/// shorter than a rep, so it needs more samples for the same steadiness.
const BOOTSTRAPS_PER_REP: usize = 3;
/// One calibration pair (A then B, ≈0.15 s) is sampled per this many
/// seconds of rep.
const CALIB_PAIR_EVERY_S: f64 = 1.0;
/// Fewest timed reps, whatever the budget says.
const MIN_REPS: usize = 3;

/// Everything one timed run produced.
pub struct Outcome {
    /// The end-to-end metrics, in `BENCHMARK.json` order.
    pub end_to_end: Vec<Metric>,
    /// Noise diagnostics (`host.*`), for the reader of this run's output.
    pub diagnostics: Vec<Metric>,
    /// Rep spread exceeded [`NOISY_IQR_PCT`].
    pub noisy: bool,
    /// Every raw sample taken, seconds, in the order taken — so a bad run
    /// can be diagnosed from its own output.
    pub samples: [(&'static str, Vec<f64>); 4],
    /// Operations attempted and failed.
    pub ops: Ops,
}

/// The scenario's set-up alone: world build → (empty) report.
pub fn bootstrap_only(sc: &Scenario) -> Scenario {
    Scenario {
        duration_ms: 1,
        ..*sc
    }
}

/// Run `sc`, check the report, and time the lot; `None` when it panicked
/// (a run that did not finish has no time).
fn timed_rep(sc: &Scenario, reference: &str, what: &str, ops: &mut Ops) -> Option<f64> {
    let (report, secs) = timed(|| run_caught(sc));
    let finished = report.is_ok();
    ops.record(
        what,
        report.and_then(|r| same_fingerprint(&r, reference).and(conservation(&r))),
    );
    finished.then_some(secs)
}

/// Run `workload` for `seed`, measuring for about `seconds`.
pub fn run(workload: &Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let sc = workload.scenario(seed);
    let boot = bootstrap_only(&sc);
    let mut ops = Ops::default();

    let chase = ChaseBuffer::new();
    let steal0 = host::steal_ticks();
    let baseline_rss = host::rss_mb();

    // Warm-up: fills the allocator's arenas and page tables, and fixes the
    // fingerprints every later run must reproduce.
    let (warm, warm_s) = timed(|| run_caught(&sc));
    let warm = warm.map_err(|e| format!("warm-up rep {e}"))?;
    // A longer rep gets proportionally more calibration samples beside it,
    // so that calibration takes a steady ~10 % of every workload's cycle.
    let calib_pairs = (warm_s / CALIB_PAIR_EVERY_S).ceil().max(1.0) as usize;
    ops.record("warm-up rep", conservation(&warm));
    let rep_fp = warm.fingerprint();
    let boot_fp = run_caught(&boot)
        .map_err(|e| format!("warm-up bootstrap {e}"))?
        .fingerprint();

    let (mut a_s, mut b_s, mut boot_s, mut rep_s) = (vec![], vec![], vec![], vec![]);
    let mut cycle_s: Vec<f64> = Vec::new();
    let t0 = clock::now();
    while cycle_s.len() < MIN_REPS || clock::secs_since(t0) + median(&cycle_s) <= seconds {
        let cycle0 = clock::now();
        for i in 0..calib_pairs.max(BOOTSTRAPS_PER_REP) {
            if i < calib_pairs {
                a_s.push(timed(kernel_a).1);
                b_s.push(timed(|| chase.kernel_b()).1);
                ops.passed(2);
            }
            if i < BOOTSTRAPS_PER_REP {
                boot_s.extend(timed_rep(&boot, &boot_fp, "bootstrap-only run", &mut ops));
            }
        }
        rep_s.extend(timed_rep(&sc, &rep_fp, "timed rep", &mut ops));
        cycle_s.push(clock::secs_since(cycle0));
        if ops.failed > 0 && cycle_s.len() >= MIN_REPS {
            break; // the result is already void; do not burn the budget
        }
    }
    if rep_s.is_empty() || boot_s.is_empty() {
        return Err("no rep completed".to_string());
    }

    let wall_s = calibrated(&rep_s, &a_s, &b_s);
    let setup_s = calibrated(&boot_s, &a_s, &b_s);
    let tasks = (warm.generated + warm.local_generated) as f64;
    let rep_iqr = iqr_pct(&rep_s);
    let noisy = rep_iqr > NOISY_IQR_PCT;

    let end_to_end = vec![
        Metric::new("wall_s", wall_s, "s"),
        Metric::new("tasks_per_s", tasks / wall_s, "1/s"),
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("peak_rss_mb", host::peak_rss_mb() - baseline_rss, "MB"),
        Metric::new("t_ratio", warm.t_ratio, "ratio"),
        Metric::new("msgs_per_node", warm.msg_per_node, "count"),
    ];
    let diagnostics = vec![
        Metric::new("host.nproc", host::nproc() as f64, "count"),
        Metric::new("host.reps", rep_s.len() as f64, "count"),
        Metric::new("host.calib_pairs_per_rep", calib_pairs as f64, "count"),
        Metric::new("host.wall_raw_s", median(&rep_s), "s"),
        Metric::new("host.setup_raw_s", median(&boot_s), "s"),
        Metric::new("host.calib_a_ms", median(&a_s) * 1e3, "ms"),
        Metric::new("host.calib_b_ms", median(&b_s) * 1e3, "ms"),
        Metric::new("host.rep_iqr_pct", rep_iqr, "%"),
        Metric::new("host.setup_iqr_pct", iqr_pct(&boot_s), "%"),
        Metric::new(
            "host.steal_ticks",
            (host::steal_ticks() - steal0) as f64,
            "count",
        ),
        Metric::new("host.timed_s", clock::secs_since(t0), "s"),
    ];
    Ok(Outcome {
        end_to_end,
        diagnostics,
        noisy,
        samples: [
            ("calib_a_s", a_s),
            ("calib_b_s", b_s),
            ("bootstrap_s", boot_s),
            ("rep_s", rep_s),
        ],
        ops,
    })
}
