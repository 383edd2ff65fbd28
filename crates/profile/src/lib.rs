//! # soc-profile
//!
//! Per-phase runtime attribution for the scenario runner, behind the
//! registered `SOC_PROFILE=off|on` knob (read once per [`Profiler`]
//! construction).
//!
//! Every hot-path claim in this workspace so far (queue, cache, route) is
//! an A/B inference — flip a knob, compare wall clocks. This crate adds
//! the missing direct evidence: monotonic-nanosecond + invocation counters
//! for each of the runner's real phases, cheap enough to leave compiled in
//! everywhere.
//!
//! ## Discipline
//!
//! * **Observation-only.** The profiler owns no simulation state, draws no
//!   randomness and influences no control flow; `SOC_PROFILE=on` runs are
//!   pinned bitwise-identical to `off` runs by the
//!   `profile_equivalence` suite in `crates/bench`.
//! * **Never fingerprinted.** The [`ProfileSummary`] surfaced in
//!   `RunReport` is declared in `FINGERPRINT_EXCLUDED` — wall time is not
//!   simulation state.
//! * **Wall-clock confinement.** The two `Instant::now` reads live here,
//!   behind justified `soc-lint` pragmas; the `no-wall-clock` rule keeps
//!   them from leaking anywhere else in the sim crates.
//! * **Always cheap when off.** A disabled profiler reduces every probe to
//!   one branch on a `None`/`false`; there is no allocation, no syscall,
//!   no atomic. [`Cell`] counters (not atomics) are deliberate: a run
//!   stays on the thread that started it and owns its profilers, so sweep
//!   fan-out needs no synchronization.
//!
//! ## Phase taxonomy
//!
//! Phases split into two groups. **Dispatch** phases are the disjoint
//! arms of the runner's event loop — their nanoseconds sum to at most the
//! run's wall time (the sanity test pins this). **Detail** phases nest
//! *inside* dispatch arms (a `Route` span runs during a `deliver` span),
//! so they attribute where dispatch time goes and must not be added to
//! the dispatch total.

use std::cell::Cell;
use std::fmt::Write as _;
use std::time::Instant;

/// Which accounting group a phase belongs to (see module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PhaseGroup {
    /// Disjoint event-loop arms; together they cover the main loop.
    Dispatch,
    /// Nested sub-spans inside dispatch arms (overlapping the above).
    Detail,
}

impl PhaseGroup {
    /// Stable label used in reports and JSON.
    pub fn label(self) -> &'static str {
        match self {
            PhaseGroup::Dispatch => "dispatch",
            PhaseGroup::Detail => "detail",
        }
    }
}

/// One instrumented phase of the runner. Order here is report order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    // -- Dispatch group: one arm per `Ev` variant ------------------------
    /// `Ev::Deliver` — protocol message delivery (`on_message` + effects).
    DeliverMsg,
    /// `Ev::ProtoTimer` — protocol timer callbacks (`on_timer` + effects).
    ProtoTimer,
    /// `Ev::Arrival` — task arrival: workload draw, local-exec check,
    /// query issue.
    Arrival,
    /// `Ev::QueryTimeout` — query deadline handling (retry or settle).
    QueryTimeout,
    /// `Ev::TaskArrive` — dispatch payload arrival + Inequality (2)
    /// re-check.
    TaskArrive,
    /// `Ev::Completion` — PSM completion collection.
    Completion,
    /// `Ev::Suspect` — defence-layer suspicion strikes.
    Suspect,
    /// `Ev::ChurnSwap` — node leave + join.
    ChurnSwap,
    /// `Ev::Sample` — periodic metric sampling.
    Sample,
    // -- Detail group: nested sub-spans ----------------------------------
    /// Next-hop computation (INSCAN finger step / KHDN greedy step).
    Route,
    /// RecordCache qualification probes (`qualified_into`).
    CacheProbe,
    /// PSM completion prediction (`next_completion`).
    PsmPredict,
    /// Event-queue pops (`pop_until` in the main loop).
    QueuePop,
    /// Event-queue pushes — **count only** (taken from the queue's own
    /// scheduling counter at end of run; pushes are too fine to time).
    QueuePush,
    /// Per-send network latency sampling (`LanTopology::latency`).
    Latency,
    /// Fault-layer verdicts on in-flight sends (`fault_drops_send`).
    Fault,
    /// Metrics/statistics flushes (`MsgStats::record_batch`,
    /// `TaskTracker::sample`).
    StatsFlush,
}

impl Phase {
    /// Every phase, in report order (dispatch group first).
    pub const ALL: [Phase; 17] = [
        Phase::DeliverMsg,
        Phase::ProtoTimer,
        Phase::Arrival,
        Phase::QueryTimeout,
        Phase::TaskArrive,
        Phase::Completion,
        Phase::Suspect,
        Phase::ChurnSwap,
        Phase::Sample,
        Phase::Route,
        Phase::CacheProbe,
        Phase::PsmPredict,
        Phase::QueuePop,
        Phase::QueuePush,
        Phase::Latency,
        Phase::Fault,
        Phase::StatsFlush,
    ];

    /// Stable snake-case label (report tables, JSON keys).
    pub fn label(self) -> &'static str {
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
            Phase::Route => "route",
            Phase::CacheProbe => "cache_probe",
            Phase::PsmPredict => "psm_predict",
            Phase::QueuePop => "queue_pop",
            Phase::QueuePush => "queue_push",
            Phase::Latency => "latency",
            Phase::Fault => "fault",
            Phase::StatsFlush => "stats_flush",
        }
    }

    /// Accounting group (see module docs for the sum semantics).
    pub fn group(self) -> PhaseGroup {
        match self {
            Phase::DeliverMsg
            | Phase::ProtoTimer
            | Phase::Arrival
            | Phase::QueryTimeout
            | Phase::TaskArrive
            | Phase::Completion
            | Phase::Suspect
            | Phase::ChurnSwap
            | Phase::Sample => PhaseGroup::Dispatch,
            _ => PhaseGroup::Detail,
        }
    }

    fn idx(self) -> usize {
        Phase::ALL
            .iter()
            .position(|&p| p == self)
            .expect("phase in ALL")
    }
}

/// An opaque span start. `None` means the profiler was off at span start;
/// [`Profiler::stop`] with a `None` tick is a no-op, so call sites never
/// branch on the knob themselves.
#[derive(Debug)]
pub struct Tick(Instant);

const N: usize = Phase::ALL.len();

/// Per-phase ns + invocation counters for one simulation run.
///
/// Interior mutability (`Cell`) lets shared references record — the
/// protocol context holds `&Profiler` while the runner also holds one —
/// and being `!Sync` keeps it on the thread of its run (the sweep engine
/// parallelises across cells, each with its own profilers).
#[derive(Debug)]
pub struct Profiler {
    enabled: bool,
    ns: [Cell<u64>; N],
    count: [Cell<u64>; N],
}

impl Profiler {
    fn with_enabled(enabled: bool) -> Self {
        Profiler {
            enabled,
            ns: std::array::from_fn(|_| Cell::new(0)),
            count: std::array::from_fn(|_| Cell::new(0)),
        }
    }

    /// A profiler that records nothing (every probe is one branch).
    pub fn disabled() -> Self {
        Self::with_enabled(false)
    }

    /// Construct from the `SOC_PROFILE` knob — read once here, per run, so
    /// the perf harness can flip it between runs inside one process.
    pub fn from_env() -> Self {
        Self::with_enabled(soc_types::knobs::value("SOC_PROFILE").as_deref() == Some("on"))
    }

    /// Is recording on?
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Borrow as a copyable no-op-when-off handle (what `Ctx` carries).
    pub fn handle(&self) -> ProfRef<'_> {
        ProfRef(if self.enabled { Some(self) } else { None })
    }

    /// Open a span. Returns `None` (and reads no clock) when disabled.
    pub fn start(&self) -> Option<Tick> {
        if self.enabled {
            // soc-lint: allow(no-wall-clock) -- the profiler is the sanctioned wall-clock site: spans are observation-only, reported via ProfileSummary which is FINGERPRINT_EXCLUDED
            Some(Tick(Instant::now()))
        } else {
            None
        }
    }

    /// Close a span opened by [`Profiler::start`], attributing its
    /// duration and one invocation to `phase`. No-op for a `None` tick.
    pub fn stop(&self, phase: Phase, tick: Option<Tick>) {
        let Some(t) = tick else { return };
        let i = phase.idx();
        let elapsed = t.0.elapsed().as_nanos() as u64;
        self.ns[i].set(self.ns[i].get().saturating_add(elapsed));
        self.count[i].set(self.count[i].get() + 1);
    }

    /// Record `n` invocations of a count-only phase (no timing).
    pub fn add_count(&self, phase: Phase, n: u64) {
        if self.enabled {
            let i = phase.idx();
            self.count[i].set(self.count[i].get() + n);
        }
    }

    /// Snapshot the counters. `None` when the profiler is off — a run
    /// without `SOC_PROFILE=on` reports no profile block at all.
    pub fn summary(&self) -> Option<ProfileSummary> {
        if !self.enabled {
            return None;
        }
        Some(ProfileSummary {
            phases: Phase::ALL
                .iter()
                .map(|&p| PhaseStat {
                    label: p.label(),
                    group: p.group().label(),
                    ns: self.ns[p.idx()].get(),
                    count: self.count[p.idx()].get(),
                })
                .collect(),
        })
    }
}

/// Copyable, lifetime-bound profiler handle. Off-state is encoded as
/// `None`, so a disabled handle costs one pattern match per probe.
#[derive(Clone, Copy, Debug)]
pub struct ProfRef<'a>(Option<&'a Profiler>);

impl<'a> ProfRef<'a> {
    /// A handle that records nothing (the default for contexts built
    /// outside the instrumented runner — testkit, protocol unit tests).
    pub fn none() -> Self {
        ProfRef(None)
    }

    /// Open a span (no-op / `None` when detached or disabled).
    pub fn start(self) -> Option<Tick> {
        self.0.and_then(|p| p.start())
    }

    /// Close a span opened via [`ProfRef::start`].
    pub fn stop(self, phase: Phase, tick: Option<Tick>) {
        if let Some(p) = self.0 {
            p.stop(phase, tick);
        }
    }

    /// Record `n` invocations without timing.
    pub fn add_count(self, phase: Phase, n: u64) {
        if let Some(p) = self.0 {
            p.add_count(phase, n);
        }
    }
}

impl Default for ProfRef<'_> {
    fn default() -> Self {
        Self::none()
    }
}

/// One phase's totals in a [`ProfileSummary`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseStat {
    /// [`Phase::label`].
    pub label: &'static str,
    /// [`PhaseGroup::label`] (`dispatch` / `detail`).
    pub group: &'static str,
    /// Total monotonic nanoseconds attributed to the phase.
    pub ns: u64,
    /// Invocation count.
    pub count: u64,
}

/// End-of-run snapshot of every phase counter, in [`Phase::ALL`] order.
/// Surfaced as `RunReport::profile` (and its JSON block); **never**
/// fingerprinted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProfileSummary {
    /// All 17 phases, dispatch group first.
    pub phases: Vec<PhaseStat>,
}

impl ProfileSummary {
    /// Total ns of one phase by label (0 when unknown).
    pub fn ns(&self, label: &str) -> u64 {
        self.phases
            .iter()
            .find(|p| p.label == label)
            .map_or(0, |p| p.ns)
    }

    /// Invocation count of one phase by label (0 when unknown).
    pub fn count(&self, label: &str) -> u64 {
        self.phases
            .iter()
            .find(|p| p.label == label)
            .map_or(0, |p| p.count)
    }

    /// Sum of the **dispatch** group's nanoseconds — the disjoint event
    /// loop arms, so this is ≤ the run's wall time by construction.
    pub fn dispatch_ns(&self) -> u64 {
        self.phases
            .iter()
            .filter(|p| p.group == "dispatch")
            .map(|p| p.ns)
            .sum()
    }

    /// Sum of the dispatch group's invocation counts (= events popped and
    /// dispatched by the main loop).
    pub fn dispatch_count(&self) -> u64 {
        self.phases
            .iter()
            .filter(|p| p.group == "dispatch")
            .map(|p| p.count)
            .sum()
    }

    /// The costliest phase overall (dispatch and detail alike), by ns.
    pub fn top_phase(&self) -> Option<&PhaseStat> {
        self.phases.iter().max_by_key(|p| p.ns)
    }

    /// The costliest **dispatch** phase — "where does the event loop's
    /// time go" without double-counting nested detail spans.
    pub fn top_dispatch_phase(&self) -> Option<&PhaseStat> {
        self.phases
            .iter()
            .filter(|p| p.group == "dispatch")
            .max_by_key(|p| p.ns)
    }

    /// Human-readable attribution table. Dispatch rows show their share of
    /// the dispatch total; detail rows are indented and show their share
    /// of the *enclosing* dispatch total (they overlap it, not extend it).
    pub fn render(&self) -> String {
        let total = self.dispatch_ns().max(1);
        let mut out = String::from("phase\tgroup\tms\tcalls\tshare\n");
        for p in &self.phases {
            let _ = writeln!(
                out,
                "{}{}\t{}\t{:.1}\t{}\t{:.1}%",
                if p.group == "detail" { "  " } else { "" },
                p.label,
                p.group,
                p.ns as f64 / 1e6,
                p.count,
                p.ns as f64 / total as f64 * 100.0,
            );
        }
        if let Some(top) = self.top_dispatch_phase() {
            let _ = writeln!(
                out,
                "# top dispatch phase: {} ({:.1} ms, {:.0}% of dispatched time)",
                top.label,
                top.ns as f64 / 1e6,
                top.ns as f64 / total as f64 * 100.0,
            );
        }
        if let Some(top) = self.top_phase() {
            if top.group == "detail" {
                let _ = writeln!(
                    out,
                    "# costliest single span overall: {} ({:.1} ms, nested)",
                    top.label,
                    top.ns as f64 / 1e6,
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_records_nothing() {
        let p = Profiler::disabled();
        assert!(!p.is_enabled());
        let t = p.start();
        assert!(t.is_none());
        p.stop(Phase::Route, t);
        p.add_count(Phase::QueuePush, 100);
        assert!(p.summary().is_none());
    }

    #[test]
    fn enabled_profiler_attributes_spans() {
        let p = Profiler::with_enabled(true);
        let t = p.start();
        assert!(t.is_some());
        std::hint::black_box(vec![0u8; 4096]);
        p.stop(Phase::DeliverMsg, t);
        p.add_count(Phase::QueuePush, 7);
        let s = p.summary().expect("enabled");
        assert_eq!(s.count("deliver"), 1);
        assert_eq!(s.count("queue_push"), 7);
        assert_eq!(s.ns("queue_push"), 0, "count-only phase stays untimed");
        assert_eq!(s.dispatch_count(), 1);
        assert!(s.dispatch_ns() >= s.ns("deliver"));
        assert_eq!(s.top_dispatch_phase().unwrap().label, "deliver");
    }

    #[test]
    fn handle_is_noop_when_detached_or_disabled() {
        let h = ProfRef::none();
        assert!(h.start().is_none());
        h.stop(Phase::Route, None);
        h.add_count(Phase::CacheProbe, 3);

        let off = Profiler::disabled();
        let h = off.handle();
        assert!(h.start().is_none());

        let on = Profiler::with_enabled(true);
        let h = on.handle();
        let t = h.start();
        h.stop(Phase::Route, t);
        assert_eq!(on.summary().unwrap().count("route"), 1);
    }

    #[test]
    fn from_env_reads_the_knob() {
        // Serialized with nothing: this crate's tests run in one binary
        // and no other test here touches SOC_PROFILE.
        for on in ["on", " ON\n"] {
            std::env::set_var("SOC_PROFILE", on);
            assert!(Profiler::from_env().is_enabled(), "{on:?}");
        }
        std::env::set_var("SOC_PROFILE", "off");
        assert!(!Profiler::from_env().is_enabled());
        std::env::remove_var("SOC_PROFILE");
        assert!(!Profiler::from_env().is_enabled());
    }

    #[test]
    fn phase_taxonomy_is_consistent() {
        assert_eq!(Phase::ALL.len(), 17);
        let dispatch = Phase::ALL
            .iter()
            .filter(|p| p.group() == PhaseGroup::Dispatch)
            .count();
        assert_eq!(dispatch, 9, "one dispatch phase per Ev variant");
        // Labels unique + stable.
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.idx(), i);
            assert!(Phase::ALL[..i].iter().all(|q| q.label() != p.label()));
        }
    }

    #[test]
    fn render_names_top_phase() {
        let p = Profiler::with_enabled(true);
        let t = p.start();
        std::thread::yield_now();
        p.stop(Phase::Arrival, t);
        let s = p.summary().unwrap();
        let table = s.render();
        assert!(table.contains("# top dispatch phase: arrival"));
        assert!(table.starts_with("phase\tgroup\tms\tcalls\tshare"));
        assert!(table.contains("  route\tdetail"), "detail rows indented");
    }
}
