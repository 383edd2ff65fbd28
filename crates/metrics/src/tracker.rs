//! Task-outcome bookkeeping and the hourly metric time series.

use crate::fairness::EfficiencyLog;
use soc_types::SimMillis;

/// Terminal outcome of one task.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TaskOutcome {
    /// Finished execution.
    Finished,
    /// The discovery query found no qualified node (counts into F-Ratio).
    Failed,
    /// Found candidates but every selected node rejected on arrival
    /// (contention casualty; depresses T-Ratio only).
    Rejected,
    /// Lost because its execution node churned away.
    Killed,
}

/// One sampled point of the evaluation time series (a column of the paper's
/// Fig. 4–8 plots).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MetricPoint {
    /// Sample time (ms).
    pub t_ms: SimMillis,
    /// Tasks generated so far.
    pub generated: u64,
    /// Tasks finished so far.
    pub finished: u64,
    /// Tasks that failed discovery so far.
    pub failed: u64,
    /// Tasks killed by churn so far.
    pub killed: u64,
    /// T-Ratio(t) = finished / generated.
    pub t_ratio: f64,
    /// F-Ratio(t) = failed / generated.
    pub f_ratio: f64,
    /// Jain fairness index over finished tasks' efficiencies.
    pub fairness: f64,
}

/// Counts task outcomes and samples [`MetricPoint`]s.
#[derive(Clone, Debug, Default)]
pub struct TaskTracker {
    generated: u64,
    finished: u64,
    failed: u64,
    killed: u64,
    rejected: u64,
    local_generated: u64,
    local_finished: u64,
    local_killed: u64,
    eff: EfficiencyLog,
    series: Vec<MetricPoint>,
}

impl TaskTracker {
    /// Fresh tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// A task was submitted to the *overlay* (a discovery query was
    /// issued). Matches the paper's "submitted tasks" denominator: tasks
    /// the local scheduler keeps (Inequality (2) holds locally) never
    /// exercise the discovery protocol and are tracked separately.
    pub fn task_generated(&mut self) {
        self.generated += 1;
    }

    /// A task was satisfied locally without querying the overlay.
    pub fn task_local_generated(&mut self) {
        self.local_generated += 1;
    }

    /// A locally-executed task finished.
    pub fn task_local_finished(&mut self) {
        self.local_finished += 1;
    }

    /// A locally-executed task was killed by churn.
    pub fn task_local_killed(&mut self) {
        self.local_killed += 1;
    }

    /// A task's discovery query returned no qualified node.
    pub fn task_failed(&mut self) {
        self.failed += 1;
    }

    /// A task found qualified records but every selected execution node
    /// rejected it on arrival (records were stale / competitors won the
    /// race). This is a *contention* casualty: it depresses T-Ratio but is
    /// not a matching failure, so it stays out of F-Ratio (§II separates
    /// the two effects).
    pub fn task_rejected(&mut self) {
        self.rejected += 1;
    }

    /// A task finished; `efficiency` is `expected time / real time`
    /// (Equation (4)'s `e_ij`).
    pub fn task_finished(&mut self, efficiency: f64) {
        self.finished += 1;
        self.eff.record(efficiency);
    }

    /// A task was killed by churn.
    pub fn task_killed(&mut self) {
        self.killed += 1;
    }

    /// Tasks generated so far.
    pub fn generated(&self) -> u64 {
        self.generated
    }

    /// Tasks finished so far.
    pub fn finished(&self) -> u64 {
        self.finished
    }

    /// Tasks failed so far.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Tasks killed so far.
    pub fn killed(&self) -> u64 {
        self.killed
    }

    /// Tasks rejected by every candidate (contention casualties).
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Locally-run tasks (bypassed discovery).
    pub fn local_generated(&self) -> u64 {
        self.local_generated
    }

    /// Locally-run tasks that finished.
    pub fn local_finished(&self) -> u64 {
        self.local_finished
    }

    /// Locally-run tasks killed by churn.
    pub fn local_killed(&self) -> u64 {
        self.local_killed
    }

    /// Tasks still queued, querying, dispatching or running.
    pub fn in_flight(&self) -> u64 {
        self.generated - self.finished - self.failed - self.killed - self.rejected
    }

    /// T-Ratio(t): finished / generated (0 when nothing generated).
    pub fn t_ratio(&self) -> f64 {
        if self.generated == 0 {
            0.0
        } else {
            self.finished as f64 / self.generated as f64
        }
    }

    /// F-Ratio(t): failed / generated (0 when nothing generated).
    pub fn f_ratio(&self) -> f64 {
        if self.generated == 0 {
            0.0
        } else {
            self.failed as f64 / self.generated as f64
        }
    }

    /// Current Jain fairness index over finished tasks.
    pub fn fairness(&self) -> f64 {
        self.eff.jain()
    }

    /// Mean execution efficiency over finished tasks.
    pub fn mean_efficiency(&self) -> f64 {
        self.eff.mean()
    }

    /// Record a time-series sample at `now`. Sampling twice at the same
    /// timestamp replaces the earlier point with the fresher counts, so the
    /// series never carries duplicate `t_ms` entries and a re-sample always
    /// reflects every event processed at that instant (the runner's final
    /// deadline sample can coincide with the periodic chain's last tick).
    pub fn sample(&mut self, now: SimMillis) -> MetricPoint {
        let p = MetricPoint {
            t_ms: now,
            generated: self.generated,
            finished: self.finished,
            failed: self.failed,
            killed: self.killed,
            t_ratio: self.t_ratio(),
            f_ratio: self.f_ratio(),
            fairness: self.fairness(),
        };
        if self.series.last().map(|q| q.t_ms) == Some(now) {
            *self.series.last_mut().expect("non-empty series") = p;
        } else {
            self.series.push(p);
        }
        p
    }

    /// The sampled series.
    pub fn series(&self) -> &[MetricPoint] {
        &self.series
    }

    /// Conservation invariant: outcomes never exceed generation.
    pub fn check_conservation(&self) -> Result<(), String> {
        let consumed = self.finished + self.failed + self.killed + self.rejected;
        if consumed > self.generated {
            Err(format!(
                "outcome counts ({consumed}) exceed generated ({})",
                self.generated
            ))
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_track_outcomes() {
        let mut t = TaskTracker::new();
        for _ in 0..10 {
            t.task_generated();
        }
        for _ in 0..4 {
            t.task_finished(1.0);
        }
        t.task_failed();
        t.task_killed();
        assert!((t.t_ratio() - 0.4).abs() < 1e-12);
        assert!((t.f_ratio() - 0.1).abs() < 1e-12);
        assert_eq!(t.in_flight(), 4);
        t.check_conservation().unwrap();
    }

    #[test]
    fn empty_tracker_is_neutral() {
        let t = TaskTracker::new();
        assert_eq!(t.t_ratio(), 0.0);
        assert_eq!(t.f_ratio(), 0.0);
        assert_eq!(t.fairness(), 1.0);
        t.check_conservation().unwrap();
    }

    #[test]
    fn series_is_cumulative_and_ordered() {
        let mut t = TaskTracker::new();
        t.task_generated();
        t.sample(3_600_000);
        t.task_generated();
        t.task_finished(0.8);
        t.sample(7_200_000);
        let s = t.series();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].generated, 1);
        assert_eq!(s[1].generated, 2);
        assert_eq!(s[1].finished, 1);
        assert!(s[0].t_ms < s[1].t_ms);
    }

    #[test]
    fn resample_at_same_time_replaces_with_fresh_counts() {
        let mut t = TaskTracker::new();
        t.task_generated();
        t.sample(3_600_000);
        // An event lands at the same instant after the periodic sample
        // (FIFO tie-break in the event queue): the deadline re-sample must
        // absorb it, not append a duplicate or keep stale counts.
        t.task_generated();
        t.task_finished(1.0);
        t.sample(3_600_000);
        let s = t.series();
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].t_ms, 3_600_000);
        assert_eq!(s[0].generated, 2);
        assert_eq!(s[0].finished, 1);
    }

    #[test]
    fn conservation_violation_detected() {
        let mut t = TaskTracker::new();
        t.task_finished(1.0); // finished without being generated
        assert!(t.check_conservation().is_err());
    }

    #[test]
    fn fairness_follows_efficiencies() {
        let mut t = TaskTracker::new();
        for _ in 0..4 {
            t.task_generated();
        }
        t.task_finished(1.0);
        t.task_finished(1.0);
        assert_eq!(t.fairness(), 1.0);
        t.task_finished(0.1);
        assert!(t.fairness() < 1.0);
    }
}
