//! Where a run's event loop spends its wall time, behind the registered
//! `SOC_PROFILE=off|on` knob (read once per run).
//!
//! The loop reads the clock once after each queue pop and once after each
//! handled event. Each read closes the span open since the previous one
//! and opens the next, so the queue pops and the nine event arms tile the
//! loop: their nanoseconds sum to the loop's wall time, and nothing inside
//! an arm reads a clock. The work inside the arms — routing steps, cache
//! probes, PSM predictions, sends — is reported as counts, taken at the end
//! of the run from the runner's always-on counters; its cost is a count
//! times the matching repo-benchmark kernel's ns (`inscan.next_hop_ns`,
//! `overlay.probe_ns`, `psm.predict_ns`, …).
//!
//! The profiler is observation-only: it draws no randomness and steers no
//! control flow, and [`crate::RunReport::fingerprint`] ignores its
//! [`ProfileSummary`] by name. The `profile_equivalence` suite in
//! `crates/bench` pins on and off runs bit-identical.
#![expect(
    clippy::disallowed_types,
    reason = "spans are observation-only: their ProfileSummary is never fingerprinted"
)]

use std::time::Instant;

/// One reported phase. The discriminant is the row index; order here is
/// report order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Phase {
    /// `Ev::Deliver`: protocol message delivery.
    DeliverMsg,
    /// `Ev::ProtoTimer`: protocol timer callbacks.
    ProtoTimer,
    /// `Ev::Arrival`: task arrival, local-exec check, query issue.
    Arrival,
    /// `Ev::QueryTimeout`: query deadline (retry or settle).
    QueryTimeout,
    /// `Ev::TaskArrive`: dispatch payload arrival and re-check.
    TaskArrive,
    /// `Ev::Completion`: PSM completion collection.
    Completion,
    /// `Ev::Suspect`: defence-layer suspicion strikes.
    Suspect,
    /// `Ev::ChurnSwap`: one node leave and one join.
    ChurnSwap,
    /// `Ev::Sample`: periodic metric sample.
    Sample,
    /// `pop_until` in the main loop, the miss that ends it included.
    QueuePop,
    /// Routing steps (INSCAN finger step, KHDN greedy step).
    Route,
    /// Record-cache qualification probes.
    CacheProbe,
    /// PSM completion predictions.
    PsmPredict,
    /// Events scheduled on the queue.
    QueuePush,
    /// Sends to a live target, each of which samples a latency.
    Latency,
}

impl Phase {
    /// Every phase, in report order.
    pub(crate) const ALL: [Phase; 15] = [
        Phase::DeliverMsg,
        Phase::ProtoTimer,
        Phase::Arrival,
        Phase::QueryTimeout,
        Phase::TaskArrive,
        Phase::Completion,
        Phase::Suspect,
        Phase::ChurnSwap,
        Phase::Sample,
        Phase::QueuePop,
        Phase::Route,
        Phase::CacheProbe,
        Phase::PsmPredict,
        Phase::QueuePush,
        Phase::Latency,
    ];

    /// Stable snake-case label (JSON keys, benchmark metric lookups).
    pub(crate) fn label(self) -> &'static str {
        match self {
            Phase::DeliverMsg => "deliver",
            Phase::ProtoTimer => "proto_timer",
            Phase::Arrival => "arrival",
            Phase::QueryTimeout => "query_timeout",
            Phase::TaskArrive => "task_arrive",
            Phase::Completion => "completion",
            Phase::Suspect => "suspect",
            Phase::ChurnSwap => "churn_swap",
            Phase::Sample => "sample",
            Phase::QueuePop => "queue_pop",
            Phase::Route => "route",
            Phase::CacheProbe => "cache_probe",
            Phase::PsmPredict => "psm_predict",
            Phase::QueuePush => "queue_push",
            Phase::Latency => "latency",
        }
    }

    /// Which part of the loop the phase stands for: `event` (one timed
    /// arm; its count is the events handled), `pop` (the timed queue pop)
    /// or `count` (work inside the arms, counted only).
    pub(crate) fn group(self) -> &'static str {
        match self {
            Phase::QueuePop => "pop",
            Phase::Route
            | Phase::CacheProbe
            | Phase::PsmPredict
            | Phase::QueuePush
            | Phase::Latency => "count",
            _ => "event",
        }
    }
}

const N: usize = Phase::ALL.len();

/// The profiler's one clock read.
fn clock() -> Instant {
    Instant::now()
}

/// Per-phase ns and counts for one run.
#[derive(Debug)]
pub(crate) struct Profiler {
    enabled: bool,
    /// The clock read that opened the current span.
    mark: Option<Instant>,
    ns: [u64; N],
    count: [u64; N],
}

impl Profiler {
    fn with_enabled(enabled: bool) -> Self {
        Profiler {
            enabled,
            mark: None,
            ns: [0; N],
            count: [0; N],
        }
    }

    /// Construct from the `SOC_PROFILE` knob, read here once per run so
    /// the benchmark can flip it between runs inside one process.
    pub(crate) fn from_env() -> Self {
        Self::with_enabled(soc_types::knobs::value("SOC_PROFILE").as_deref() == Some("on"))
    }

    /// Open the first span, right before the loop's first pop. Reads no
    /// clock when off.
    pub(crate) fn open(&mut self) {
        if self.enabled {
            self.mark = Some(clock());
        }
    }

    /// Close the span open since the last lap (or [`Profiler::open`]),
    /// charge it and one invocation to `phase`, and open the next. A no-op
    /// when off.
    pub(crate) fn lap(&mut self, phase: Phase) {
        if let Some(mark) = &mut self.mark {
            let now = clock();
            let i = phase as usize;
            self.ns[i] += now.duration_since(*mark).as_nanos() as u64;
            self.count[i] += 1;
            *mark = now;
        }
    }

    /// Record `n` invocations of a count-only phase.
    pub(crate) fn add_count(&mut self, phase: Phase, n: u64) {
        self.count[phase as usize] += n;
    }

    /// Snapshot the rows. `None` when off: a run without `SOC_PROFILE=on`
    /// reports no profile block at all.
    pub(crate) fn summary(&self) -> Option<ProfileSummary> {
        self.enabled.then(|| ProfileSummary {
            phases: Phase::ALL
                .iter()
                .map(|&p| PhaseStat {
                    label: p.label(),
                    group: p.group(),
                    ns: self.ns[p as usize],
                    count: self.count[p as usize],
                })
                .collect(),
        })
    }
}

/// One phase's totals in a [`ProfileSummary`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseStat {
    /// The phase's label (`deliver`, `queue_pop`, `route`, …).
    pub label: &'static str,
    /// `event`, `pop` or `count` (counted only; its `ns` is 0), see
    /// `Phase::group`.
    pub group: &'static str,
    /// Monotonic nanoseconds charged to the phase.
    pub ns: u64,
    /// Invocation count.
    pub count: u64,
}

/// End-of-run snapshot of every phase, in report order. Surfaced as
/// `RunReport::profile` (and its JSON block); **never** fingerprinted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProfileSummary {
    /// Every phase: the nine event arms, the queue pop, then the five
    /// count-only phases.
    pub phases: Vec<PhaseStat>,
}

impl ProfileSummary {
    fn find(&self, label: &str) -> Option<&PhaseStat> {
        self.phases.iter().find(|p| p.label == label)
    }

    /// Total ns of one phase by label (0 when unknown).
    pub fn ns(&self, label: &str) -> u64 {
        self.find(label).map_or(0, |p| p.ns)
    }

    /// Invocation count of one phase by label (0 when unknown).
    pub fn count(&self, label: &str) -> u64 {
        self.find(label).map_or(0, |p| p.count)
    }

    /// The loop's timed ns: the queue pops and the event arms tile it, so
    /// this is ≤ the run's wall time, short of it by the set-up and the
    /// tear-down.
    pub fn dispatch_ns(&self) -> u64 {
        self.phases.iter().map(|p| p.ns).sum()
    }

    /// Events handled: the event arms' counts.
    pub fn dispatch_count(&self) -> u64 {
        self.phases
            .iter()
            .filter(|p| p.group == "event")
            .map(|p| p.count)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_records_nothing() {
        let mut p = Profiler::with_enabled(false);
        p.open();
        p.lap(Phase::DeliverMsg);
        p.add_count(Phase::QueuePush, 100);
        assert!(p.summary().is_none());
    }

    #[test]
    fn enabled_profiler_attributes_spans() {
        let mut p = Profiler::with_enabled(true);
        p.lap(Phase::DeliverMsg); // before `open`: nothing to close
        p.open();
        p.lap(Phase::QueuePop);
        std::hint::black_box(vec![0u8; 4096]);
        p.lap(Phase::DeliverMsg);
        p.lap(Phase::QueuePop);
        p.add_count(Phase::QueuePush, 7);
        let s = p.summary().expect("enabled");
        assert_eq!(s.count("deliver"), 1);
        assert_eq!(s.count("queue_pop"), 2);
        assert_eq!(s.count("queue_push"), 7);
        assert_eq!(s.ns("queue_push"), 0, "count-only phase stays untimed");
        assert_eq!(s.dispatch_count(), 1, "pops are not events");
        assert_eq!(s.dispatch_ns(), s.ns("deliver") + s.ns("queue_pop"));
    }

    #[test]
    fn from_env_reads_the_knob() {
        // No other unit test here sets SOC_PROFILE. A runner test that
        // reads it mid-flip gets a profile block, which none of them reads.
        for on in ["on", " ON\n"] {
            std::env::set_var("SOC_PROFILE", on);
            assert!(Profiler::from_env().enabled, "{on:?}");
        }
        std::env::set_var("SOC_PROFILE", "off");
        assert!(!Profiler::from_env().enabled);
        std::env::remove_var("SOC_PROFILE");
        assert!(!Profiler::from_env().enabled);
    }

    #[test]
    fn phase_taxonomy_is_consistent() {
        let events = Phase::ALL.iter().filter(|p| p.group() == "event").count();
        assert_eq!(events, 9, "one event arm per Ev variant");
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(*p as usize, i, "discriminant is the row index");
            assert!(Phase::ALL[..i].iter().all(|q| q.label() != p.label()));
        }
    }
}
