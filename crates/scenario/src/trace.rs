//! Trace record/replay over the [`WorkloadSource`] boundary.
//!
//! A recording run wraps the scenario's synthetic source and logs every
//! value it hands the runner — node capacities, arrival delays, task
//! demand/duration vectors — plus the churn swaps the runner reports.
//! A replay run feeds those values back **without touching any RNG**;
//! because the runner consumes its capacity/workload RNG streams only
//! through the source, every other stream (protocol, network, churn,
//! dispatch, overlay, topology) unrolls identically and the replayed
//! [`RunReport::fingerprint`] is bit-exact with the recorded one (pinned
//! by the `record_replay` integration test).
//!
//! Floats are serialized as raw IEEE-754 bit patterns (hex), so a trace
//! survives the filesystem without rounding.

use crate::spec::ScenarioSpec;
use rand::rngs::SmallRng;
use soc_sim::{build_source, run_scenario_with, RunReport};
use soc_types::{NodeId, ResVec, SimMillis};
use soc_workload::{TaskSpec, WorkloadSource};

/// One recorded workload decision, in simulation order.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// A provisioned node's capacity vector (f64 bits per dimension).
    Capacity { bits: Vec<u64> },
    /// Delay until the next arrival on `node`.
    Delay { node: u32, ms: u64 },
    /// The task generated on `node` (duration and demand as f64 bits).
    Task {
        /// Generating node.
        node: u32,
        /// `duration_s` bit pattern.
        duration_bits: u64,
        /// Demand vector bit patterns.
        dims: Vec<u64>,
    },
    /// A churn swap the runner reported (informational; replay verifies).
    Churn {
        /// Simulation time of the swap.
        now: u64,
        /// Departing node, if any.
        left: Option<u32>,
        /// Joining node, if any.
        joined: Option<u32>,
    },
}

/// A self-contained recorded run: the scenario that produced it, its
/// realized event stream, and the fingerprint replay must reproduce.
#[derive(Clone, Debug, PartialEq)]
pub struct Trace {
    /// The recorded scenario (embedded in rendered form on save).
    pub spec: ScenarioSpec,
    /// The realized workload/churn event stream.
    pub events: Vec<TraceEvent>,
    /// `RunReport::fingerprint()` of the recording run.
    pub fingerprint: String,
}

/// Wraps any source and logs its outputs, in the order the runner asks
/// for them.
struct RecordingSource {
    inner: Box<dyn WorkloadSource>,
    events: Vec<TraceEvent>,
}

impl WorkloadSource for RecordingSource {
    fn node_capacity(&mut self, rng: &mut SmallRng) -> ResVec {
        let cap = self.inner.node_capacity(rng);
        self.events.push(TraceEvent::Capacity {
            bits: (0..cap.dim()).map(|d| cap[d].to_bits()).collect(),
        });
        cap
    }

    fn next_delay(&mut self, node: NodeId, now: SimMillis, rng: &mut SmallRng) -> SimMillis {
        let ms = self.inner.next_delay(node, now, rng);
        self.events.push(TraceEvent::Delay { node: node.0, ms });
        ms
    }

    fn next_task(&mut self, node: NodeId, now: SimMillis, rng: &mut SmallRng) -> TaskSpec {
        let t = self.inner.next_task(node, now, rng);
        self.events.push(TraceEvent::Task {
            node: node.0,
            duration_bits: t.duration_s.to_bits(),
            dims: (0..t.expect.dim()).map(|d| t.expect[d].to_bits()).collect(),
        });
        t
    }

    fn note_churn(&mut self, now: SimMillis, left: Option<NodeId>, joined: Option<NodeId>) {
        self.inner.note_churn(now, left, joined);
        self.events.push(TraceEvent::Churn {
            now,
            left: left.map(|n| n.0),
            joined: joined.map(|n| n.0),
        });
    }
}

/// Replays a recorded event stream; panics with a position diagnostic on
/// any desynchronization (which, given a matching scenario, indicates a
/// corrupted trace).
///
/// Delay/task events are consumed through per-*node* cursors and
/// capacity/churn events through one cursor of their own, so a replay
/// checks each node's stream in its own order; a counter proves at the end
/// that every recorded event was consumed exactly once.
struct ReplaySource<'t> {
    events: &'t [TraceEvent],
    /// Indices of `Delay`/`Task` events, grouped per node, in trace order.
    per_node: Vec<Vec<usize>>,
    /// Indices of `Capacity`/`Churn` events, in trace order.
    global_seq: Vec<usize>,
    /// Per-node cursor into `per_node`.
    node_pos: Vec<usize>,
    /// Cursor into `global_seq`.
    global_pos: usize,
    /// Total events consumed.
    consumed: usize,
}

impl<'t> ReplaySource<'t> {
    fn new(events: &'t [TraceEvent]) -> Self {
        let n_nodes = events
            .iter()
            .map(|ev| match ev {
                TraceEvent::Delay { node, .. } | TraceEvent::Task { node, .. } => {
                    *node as usize + 1
                }
                _ => 0,
            })
            .max()
            .unwrap_or(0);
        let mut per_node = vec![Vec::new(); n_nodes];
        let mut global_seq = Vec::new();
        for (i, ev) in events.iter().enumerate() {
            match ev {
                TraceEvent::Delay { node, .. } | TraceEvent::Task { node, .. } => {
                    per_node[*node as usize].push(i)
                }
                TraceEvent::Capacity { .. } | TraceEvent::Churn { .. } => global_seq.push(i),
            }
        }
        ReplaySource {
            events,
            per_node,
            global_seq,
            node_pos: vec![0; n_nodes],
            global_pos: 0,
            consumed: 0,
        }
    }

    fn next_global(&mut self, wanted: &str) -> &'t TraceEvent {
        let Some(&idx) = self.global_seq.get(self.global_pos) else {
            panic!("trace exhausted: no more capacity/churn events (wanted {wanted})");
        };
        self.global_pos += 1;
        self.consumed += 1;
        &self.events[idx]
    }

    fn next_for_node(&mut self, node: NodeId, wanted: &str) -> &'t TraceEvent {
        let idx_list = self
            .per_node
            .get(node.idx())
            .unwrap_or_else(|| panic!("trace has no events for node {} (wanted {wanted})", node.0));
        let pos = self.node_pos[node.idx()];
        let Some(&idx) = idx_list.get(pos) else {
            panic!(
                "trace exhausted for node {} after {pos} events (wanted {wanted})",
                node.0
            );
        };
        self.node_pos[node.idx()] = pos + 1;
        self.consumed += 1;
        &self.events[idx]
    }
}

impl WorkloadSource for ReplaySource<'_> {
    fn node_capacity(&mut self, _rng: &mut SmallRng) -> ResVec {
        match self.next_global("capacity") {
            TraceEvent::Capacity { bits } => {
                let vals: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();
                ResVec::from_slice(&vals)
            }
            other => panic!("trace desync: wanted capacity, recorded {other:?}"),
        }
    }

    fn next_delay(&mut self, node: NodeId, _now: SimMillis, _rng: &mut SmallRng) -> SimMillis {
        match self.next_for_node(node, "delay") {
            &TraceEvent::Delay { ms, .. } => ms,
            other => panic!(
                "trace desync on node {}: wanted delay, recorded {other:?}",
                node.0
            ),
        }
    }

    fn next_task(&mut self, node: NodeId, _now: SimMillis, _rng: &mut SmallRng) -> TaskSpec {
        match self.next_for_node(node, "task") {
            TraceEvent::Task {
                duration_bits,
                dims,
                ..
            } => {
                let vals: Vec<f64> = dims.iter().map(|&b| f64::from_bits(b)).collect();
                TaskSpec {
                    expect: ResVec::from_slice(&vals),
                    duration_s: f64::from_bits(*duration_bits),
                }
            }
            other => panic!(
                "trace desync on node {}: wanted task, recorded {other:?}",
                node.0
            ),
        }
    }

    fn note_churn(&mut self, _now: SimMillis, left: Option<NodeId>, joined: Option<NodeId>) {
        match self.next_global("churn") {
            &TraceEvent::Churn {
                left: l, joined: j, ..
            } => {
                if l != left.map(|n| n.0) || j != joined.map(|n| n.0) {
                    panic!(
                        "trace desync: churn ({l:?},{j:?}) recorded, ({left:?},{joined:?}) replayed",
                    );
                }
            }
            other => panic!("trace desync: wanted churn, recorded {other:?}"),
        }
    }
}

/// Run `spec` once, recording its realized workload stream.
pub fn record_run(spec: &ScenarioSpec) -> (RunReport, Trace) {
    let mut rec = RecordingSource {
        inner: Box::new(build_source(&spec.scenario)),
        events: Vec::new(),
    };
    let report = run_scenario_with(&spec.scenario, &mut rec);
    let trace = Trace {
        spec: spec.clone(),
        events: rec.events,
        fingerprint: report.fingerprint(),
    };
    (report, trace)
}

/// Replay a trace and verify bit-exactness against the recorded
/// fingerprint. Returns the replayed report on success; a tampered or
/// mismatched trace surfaces as a descriptive `Err` (desyncs detected
/// mid-run included — the panic is caught and converted).
pub fn replay_run(trace: &Trace) -> Result<RunReport, String> {
    let mut src = ReplaySource::new(&trace.events);
    let report = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_scenario_with(&trace.spec.scenario, &mut src)
    }))
    .map_err(|payload| {
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("unknown panic");
        format!("replay aborted: {msg}")
    })?;
    if src.consumed != trace.events.len() {
        return Err(format!(
            "replay consumed {} of {} recorded events — scenario/trace mismatch",
            src.consumed,
            trace.events.len()
        ));
    }
    let fp = report.fingerprint();
    if fp != trace.fingerprint {
        return Err(format!(
            "replay fingerprint diverged from the recording\n recorded: {}\n replayed: {fp}",
            trace.fingerprint
        ));
    }
    Ok(report)
}

fn hex_list(bits: &[u64]) -> String {
    bits.iter()
        .map(|b| format!("{b:016x}"))
        .collect::<Vec<_>>()
        .join(" ")
}

fn parse_hex(tok: &str, line: usize) -> Result<u64, String> {
    u64::from_str_radix(tok, 16).map_err(|_| format!("trace line {line}: bad hex {tok:?}"))
}

fn parse_dec<T: std::str::FromStr>(tok: &str, line: usize) -> Result<T, String> {
    tok.parse()
        .map_err(|_| format!("trace line {line}: bad number {tok:?}"))
}

impl Trace {
    /// Serialize to the `soc-trace v1` text format.
    pub fn to_text(&self) -> String {
        use std::fmt::Write;
        let spec_text = self.spec.render();
        let mut out = String::with_capacity(spec_text.len() + self.events.len() * 24 + 128);
        let _ = writeln!(out, "soc-trace v1");
        let _ = writeln!(out, "spec {}", spec_text.lines().count());
        out.push_str(&spec_text);
        if !spec_text.ends_with('\n') {
            out.push('\n');
        }
        let _ = writeln!(out, "events {}", self.events.len());
        for ev in &self.events {
            match ev {
                TraceEvent::Capacity { bits } => {
                    let _ = writeln!(out, "c {}", hex_list(bits));
                }
                TraceEvent::Delay { node, ms } => {
                    let _ = writeln!(out, "a {node} {ms}");
                }
                TraceEvent::Task {
                    node,
                    duration_bits,
                    dims,
                } => {
                    let _ = writeln!(out, "t {node} {duration_bits:016x} {}", hex_list(dims));
                }
                TraceEvent::Churn { now, left, joined } => {
                    let l = left.map_or("-".to_string(), |n| n.to_string());
                    let j = joined.map_or("-".to_string(), |n| n.to_string());
                    let _ = writeln!(out, "x {now} {l} {j}");
                }
            }
        }
        let _ = writeln!(out, "fingerprint {}", self.fingerprint);
        out
    }

    /// Parse the `soc-trace v1` text format.
    pub fn from_text(text: &str) -> Result<Self, String> {
        let mut lines = text.lines().enumerate();
        let (_, header) = lines.next().ok_or("empty trace file")?;
        if header.trim() != "soc-trace v1" {
            return Err(format!("not a soc-trace v1 file (header {header:?})"));
        }
        let (ln, spec_hdr) = lines.next().ok_or("truncated trace: missing spec header")?;
        let n_spec: usize = spec_hdr
            .strip_prefix("spec ")
            .ok_or_else(|| format!("trace line {}: expected `spec <n>`", ln + 1))
            .and_then(|v| parse_dec(v.trim(), ln + 1))?;
        let mut spec_text = String::new();
        for _ in 0..n_spec {
            let (_, l) = lines
                .next()
                .ok_or("truncated trace: spec shorter than declared")?;
            spec_text.push_str(l);
            spec_text.push('\n');
        }
        let spec = ScenarioSpec::parse(&spec_text).map_err(|e| format!("embedded spec: {e}"))?;
        let (ln, ev_hdr) = lines
            .next()
            .ok_or("truncated trace: missing events header")?;
        let n_events: usize = ev_hdr
            .strip_prefix("events ")
            .ok_or_else(|| format!("trace line {}: expected `events <n>`", ln + 1))
            .and_then(|v| parse_dec(v.trim(), ln + 1))?;
        // Cap the pre-allocation: the count is untrusted header data, and a
        // corrupted file must surface as the Err path below, not as a
        // multi-TB eager allocation.
        let mut events = Vec::with_capacity(n_events.min(1 << 20));
        for _ in 0..n_events {
            let (i, l) = lines
                .next()
                .ok_or("truncated trace: fewer events than declared")?;
            let line = i + 1;
            let mut toks = l.split_ascii_whitespace();
            let kind = toks.next().ok_or(format!("trace line {line}: empty"))?;
            let ev = match kind {
                "c" => TraceEvent::Capacity {
                    bits: toks.map(|t| parse_hex(t, line)).collect::<Result<_, _>>()?,
                },
                "a" => {
                    let node = parse_dec(
                        toks.next().ok_or(format!("trace line {line}: short"))?,
                        line,
                    )?;
                    let ms = parse_dec(
                        toks.next().ok_or(format!("trace line {line}: short"))?,
                        line,
                    )?;
                    TraceEvent::Delay { node, ms }
                }
                "t" => {
                    let node = parse_dec(
                        toks.next().ok_or(format!("trace line {line}: short"))?,
                        line,
                    )?;
                    let duration_bits = parse_hex(
                        toks.next().ok_or(format!("trace line {line}: short"))?,
                        line,
                    )?;
                    TraceEvent::Task {
                        node,
                        duration_bits,
                        dims: toks.map(|t| parse_hex(t, line)).collect::<Result<_, _>>()?,
                    }
                }
                "x" => {
                    let now = parse_dec(
                        toks.next().ok_or(format!("trace line {line}: short"))?,
                        line,
                    )?;
                    let opt = |tok: &str| -> Result<Option<u32>, String> {
                        if tok == "-" {
                            Ok(None)
                        } else {
                            parse_dec(tok, line).map(Some)
                        }
                    };
                    let left = opt(toks.next().ok_or(format!("trace line {line}: short"))?)?;
                    let joined = opt(toks.next().ok_or(format!("trace line {line}: short"))?)?;
                    TraceEvent::Churn { now, left, joined }
                }
                other => return Err(format!("trace line {line}: unknown event kind {other:?}")),
            };
            events.push(ev);
        }
        let (ln, fp_line) = lines.next().ok_or("truncated trace: missing fingerprint")?;
        let fingerprint = fp_line
            .strip_prefix("fingerprint ")
            .ok_or_else(|| format!("trace line {}: expected `fingerprint <fp>`", ln + 1))?
            .to_string();
        Ok(Trace {
            spec,
            events,
            fingerprint,
        })
    }

    /// Write the trace to a file.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<(), String> {
        let path = path.as_ref();
        std::fs::write(path, self.to_text())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    }

    /// Read a trace from a file.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self, String> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Self::from_text(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> ScenarioSpec {
        ScenarioSpec::parse(
            "[scenario]\nname = trace-unit\nprotocol = hid\nnodes = 60\nhours = 1\n\
             mean_arrival_s = 600\nmean_duration_s = 600\nseed = 5\nchurn = 0.5\n",
        )
        .unwrap()
    }

    #[test]
    fn trace_text_round_trips() {
        let (_, trace) = record_run(&tiny_spec());
        assert!(!trace.events.is_empty());
        let text = trace.to_text();
        let again = Trace::from_text(&text).unwrap();
        assert_eq!(trace, again);
        assert_eq!(text, again.to_text());
    }

    #[test]
    fn float_bits_survive_serialization() {
        let ev = TraceEvent::Task {
            node: 3,
            duration_bits: (0.1f64 + 0.2).to_bits(),
            dims: vec![f64::MIN_POSITIVE.to_bits(), (1.0f64 / 3.0).to_bits()],
        };
        let t = Trace {
            spec: tiny_spec(),
            events: vec![ev.clone()],
            fingerprint: "fp".into(),
        };
        let again = Trace::from_text(&t.to_text()).unwrap();
        assert_eq!(again.events[0], ev);
    }

    #[test]
    fn corrupted_traces_are_rejected() {
        let (_, trace) = record_run(&tiny_spec());
        let text = trace.to_text();
        assert!(Trace::from_text(&text.replace("soc-trace v1", "nope")).is_err());
        assert!(Trace::from_text(&text.replace("events ", "events9 ")).is_err());
        // Truncation: drop the fingerprint line.
        let cut = text.rsplit_once("fingerprint").unwrap().0;
        assert!(Trace::from_text(cut).is_err());
    }
}
