//! The scenario file format: hand-rolled `key = value` sections.
//!
//! ```text
//! # Anything after '#' is a comment.
//! [scenario]
//! name = bursty-mmpp
//! protocol = hid          # hid|sid|hid+sos|sid+sos|sid+vd|newscast|khdn
//! nodes = 300
//! hours = 6               # or duration_ms = 21600000
//! lambda = 0.5
//! seed = 1
//!
//! [arrival]
//! model = mmpp            # poisson|mmpp|diurnal|flash-crowd
//! on_factor = 0.2
//!
//! [duration]
//! model = pareto          # exponential|pareto
//! alpha = 1.5
//!
//! [demand]
//! model = hotspot         # uniform|hotspot
//!
//! [nodes]
//! model = classes         # paper|classes
//!
//! [fault]
//! blackhole = 0.15        # fraction of nodes silently dropping messages
//! loss = 0.02             # iid per-hop drop probability
//! defense = true          # blacklist/retry defence (default false)
//! ```
//!
//! Every key except `protocol` is optional: omitted scenario keys take the
//! paper's §IV-A defaults, omitted model parameters take per-model
//! defaults. Unknown sections or keys are errors (typo protection).
//! [`ScenarioSpec::render`] emits the canonical fully-explicit form;
//! `parse ∘ render` is the identity (pinned by the round-trip tests).

use soc_sim::{FaultConfig, ProtocolChoice, Scenario};
use soc_types::RUN_LIMIT_MS;
use soc_workload::{ArrivalModel, DemandModel, DurationModel, NodeModel, WorkloadSpec};
use std::collections::BTreeMap;
use std::fmt;

/// A named, runnable scenario parsed from (or rendered to) a file.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioSpec {
    /// Display name (`name =` key; defaults to `unnamed`).
    pub name: String,
    /// The full experiment configuration.
    pub scenario: Scenario,
}

/// A parse failure with its 1-based source line.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseError {
    /// 1-based line number (0 = file-level).
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(f, "line {}: {}", self.line, self.msg)
        } else {
            write!(f, "{}", self.msg)
        }
    }
}

impl std::error::Error for ParseError {}

fn err<T>(line: usize, msg: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError {
        line,
        msg: msg.into(),
    })
}

/// One section's keys, consumed by the typed getters; leftovers are
/// unknown-key errors.
struct Section {
    entries: BTreeMap<String, (String, usize)>,
}

impl Section {
    fn new() -> Self {
        Section {
            entries: BTreeMap::new(),
        }
    }

    fn take(&mut self, key: &str) -> Option<(String, usize)> {
        self.entries.remove(key)
    }

    fn take_f64(&mut self, key: &str, default: f64) -> Result<f64, ParseError> {
        match self.take(key) {
            None => Ok(default),
            Some((v, line)) => v
                .parse::<f64>()
                .map_err(|_| ParseError {
                    line,
                    msg: format!("{key}: expected a number, got {v:?}"),
                })
                .and_then(|x| {
                    if x.is_finite() {
                        Ok(x)
                    } else {
                        err(line, format!("{key}: must be finite"))
                    }
                }),
        }
    }

    fn take_u64(&mut self, key: &str, default: u64) -> Result<u64, ParseError> {
        match self.take(key) {
            None => Ok(default),
            Some((v, line)) => v.parse::<u64>().map_err(|_| ParseError {
                line,
                msg: format!("{key}: expected an integer, got {v:?}"),
            }),
        }
    }

    fn take_u32(&mut self, key: &str, default: u32) -> Result<u32, ParseError> {
        let line = self.entries.get(key).map_or(0, |(_, line)| *line);
        let v = self.take_u64(key, u64::from(default))?;
        u32::try_from(v).or_else(|_| err(line, format!("{key}: must be ≤ {}, got {v}", u32::MAX)))
    }

    fn take_usize(&mut self, key: &str, default: usize) -> Result<usize, ParseError> {
        Ok(self.take_u64(key, default as u64)? as usize)
    }

    fn take_bool(&mut self, key: &str, default: bool) -> Result<bool, ParseError> {
        match self.take(key) {
            None => Ok(default),
            Some((v, line)) => match v.as_str() {
                "true" => Ok(true),
                "false" => Ok(false),
                other => err(line, format!("{key}: expected true/false, got {other:?}")),
            },
        }
    }

    /// Error on any key the caller did not consume.
    fn finish(self, section: &str) -> Result<(), ParseError> {
        if let Some((key, (_, line))) = self.entries.into_iter().next() {
            return err(line, format!("unknown key {key:?} in [{section}]"));
        }
        Ok(())
    }
}

fn parse_protocol(v: &str, line: usize) -> Result<ProtocolChoice, ParseError> {
    match v.to_ascii_lowercase().as_str() {
        "hid" => Ok(ProtocolChoice::Hid),
        "sid" => Ok(ProtocolChoice::Sid),
        "hid+sos" => Ok(ProtocolChoice::HidSos),
        "sid+sos" => Ok(ProtocolChoice::SidSos),
        "sid+vd" => Ok(ProtocolChoice::SidVd),
        "newscast" => Ok(ProtocolChoice::Newscast),
        "khdn" => Ok(ProtocolChoice::Khdn),
        other => err(
            line,
            format!("unknown protocol {other:?} (hid|sid|hid+sos|sid+sos|sid+vd|newscast|khdn)"),
        ),
    }
}

fn protocol_name(p: ProtocolChoice) -> &'static str {
    match p {
        ProtocolChoice::Hid => "hid",
        ProtocolChoice::Sid => "sid",
        ProtocolChoice::HidSos => "hid+sos",
        ProtocolChoice::SidSos => "sid+sos",
        ProtocolChoice::SidVd => "sid+vd",
        ProtocolChoice::Newscast => "newscast",
        ProtocolChoice::Khdn => "khdn",
    }
}

impl ScenarioSpec {
    /// Parse a scenario file.
    pub fn parse(text: &str) -> Result<Self, ParseError> {
        let mut sections: BTreeMap<String, Section> = BTreeMap::new();
        let mut current: Option<String> = None;
        for (i, raw) in text.lines().enumerate() {
            let line_no = i + 1;
            let line = match raw.find('#') {
                Some(p) => &raw[..p],
                None => raw,
            }
            .trim();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[') {
                let Some(name) = name.strip_suffix(']') else {
                    return err(line_no, format!("malformed section header {line:?}"));
                };
                let name = name.trim().to_ascii_lowercase();
                if !matches!(
                    name.as_str(),
                    "scenario" | "arrival" | "duration" | "demand" | "nodes" | "fault"
                ) {
                    return err(line_no, format!("unknown section [{name}]"));
                }
                sections.entry(name.clone()).or_insert_with(Section::new);
                current = Some(name);
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return err(line_no, format!("expected `key = value`, got {line:?}"));
            };
            let Some(ref sect) = current else {
                return err(line_no, "key before any [section] header");
            };
            let key = key.trim().to_ascii_lowercase();
            let value = value.trim().to_string();
            if value.is_empty() {
                return err(line_no, format!("{key}: empty value"));
            }
            let prev = sections
                .get_mut(sect)
                .expect("current section exists")
                .entries
                .insert(key.clone(), (value, line_no));
            if prev.is_some() {
                return err(line_no, format!("duplicate key {key:?} in [{sect}]"));
            }
        }

        let mut sc_sect = sections.remove("scenario").unwrap_or_else(Section::new);
        let Some((proto_str, proto_line)) = sc_sect.take("protocol") else {
            return err(0, "missing required key `protocol` in [scenario]");
        };
        let protocol = parse_protocol(&proto_str, proto_line)?;
        let mut sc = Scenario::paper(protocol);
        let name = sc_sect
            .take("name")
            .map(|(v, _)| v)
            .unwrap_or_else(|| "unnamed".to_string());
        sc.n_nodes = sc_sect.take_usize("nodes", sc.n_nodes)?;
        sc.lambda = sc_sect.take_f64("lambda", sc.lambda)?;
        sc.seed = sc_sect.take_u64("seed", sc.seed)?;
        sc.churn_degree = sc_sect.take_f64("churn", sc.churn_degree)?;
        sc.delta = sc_sect.take_usize("delta", sc.delta)?;
        // `hours` is the human-friendly alias; `duration_ms` wins when both
        // appear (render always emits duration_ms).
        let hours = sc_sect.take_f64("hours", sc.duration_ms as f64 / 3_600_000.0)?;
        sc.duration_ms = sc_sect.take_u64("duration_ms", (hours * 3_600_000.0).round() as u64)?;
        sc.sample_ms = sc_sect.take_u64("sample_ms", sc.sample_ms)?;
        sc.mean_arrival_s = sc_sect.take_f64("mean_arrival_s", sc.mean_arrival_s)?;
        sc.mean_duration_s = sc_sect.take_f64("mean_duration_s", sc.mean_duration_s)?;
        sc.query_timeout_ms = sc_sect.take_u64("query_timeout_ms", sc.query_timeout_ms)?;
        sc.lan_size = sc_sect.take_usize("lan_size", sc.lan_size)?;
        sc.local_exec = sc_sect.take_bool("local_exec", sc.local_exec)?;
        sc.dispatch_kbytes = sc_sect.take_f64("dispatch_kbytes", sc.dispatch_kbytes)?;
        sc.oracle = sc_sect.take_bool("oracle", sc.oracle)?;
        sc.checkpointing = sc_sect.take_bool("checkpointing", sc.checkpointing)?;
        sc_sect.finish("scenario")?;

        let mut workload = WorkloadSpec::default();
        if let Some(mut s) = sections.remove("arrival") {
            let (model, line) = s
                .take("model")
                .unwrap_or_else(|| ("poisson".to_string(), 0));
            workload.arrival = match model.as_str() {
                "poisson" => ArrivalModel::Poisson,
                "mmpp" => ArrivalModel::Mmpp {
                    on_factor: s.take_f64("on_factor", 0.3)?,
                    off_factor: s.take_f64("off_factor", 8.0)?,
                    cycle: s.take_f64("cycle", 4.0)?,
                    on_frac: s.take_f64("on_frac", 0.25)?,
                },
                "diurnal" => ArrivalModel::Diurnal {
                    amplitude: s.take_f64("amplitude", 0.8)?,
                    period_h: s.take_f64("period_h", 24.0)?,
                },
                "flash-crowd" => ArrivalModel::FlashCrowd {
                    at_h: s.take_f64("at_h", 1.0)?,
                    len_h: s.take_f64("len_h", 0.5)?,
                    factor: s.take_f64("factor", 10.0)?,
                    every_h: s.take_f64("every_h", 0.0)?,
                },
                other => {
                    return err(
                        line,
                        format!(
                            "unknown arrival model {other:?} (poisson|mmpp|diurnal|flash-crowd)"
                        ),
                    )
                }
            };
            s.finish("arrival")?;
        }
        if let Some(mut s) = sections.remove("duration") {
            let (model, line) = s
                .take("model")
                .unwrap_or_else(|| ("exponential".to_string(), 0));
            workload.duration = match model.as_str() {
                "exponential" => DurationModel::Exponential,
                "pareto" => DurationModel::Pareto {
                    alpha: s.take_f64("alpha", 1.5)?,
                },
                other => {
                    return err(
                        line,
                        format!("unknown duration model {other:?} (exponential|pareto)"),
                    )
                }
            };
            s.finish("duration")?;
        }
        if let Some(mut s) = sections.remove("demand") {
            let (model, line) = s
                .take("model")
                .unwrap_or_else(|| ("uniform".to_string(), 0));
            workload.demand = match model.as_str() {
                "uniform" => DemandModel::Uniform,
                "hotspot" => DemandModel::Hotspot {
                    corners: s.take_u32("corners", 4)?,
                    skew: s.take_f64("skew", 1.0)?,
                    width: s.take_f64("width", 0.1)?,
                },
                other => {
                    return err(
                        line,
                        format!("unknown demand model {other:?} (uniform|hotspot)"),
                    )
                }
            };
            s.finish("demand")?;
        }
        if let Some(mut s) = sections.remove("nodes") {
            let (model, line) = s.take("model").unwrap_or_else(|| ("paper".to_string(), 0));
            workload.nodes = match model.as_str() {
                "paper" => NodeModel::Paper,
                "classes" => NodeModel::Classes {
                    big_frac: s.take_f64("big_frac", 0.2)?,
                },
                other => {
                    return err(
                        line,
                        format!("unknown node model {other:?} (paper|classes)"),
                    )
                }
            };
            s.finish("nodes")?;
        }
        sc.workload = workload;

        if let Some(mut s) = sections.remove("fault") {
            let d = FaultConfig::default();
            sc.fault = FaultConfig {
                blackhole_frac: s.take_f64("blackhole", d.blackhole_frac)?,
                liar_frac: s.take_f64("liar", d.liar_frac)?,
                loss: s.take_f64("loss", d.loss)?,
                burst_loss: s.take_f64("burst_loss", d.burst_loss)?,
                burst_len: s.take_u64("burst_len", d.burst_len)?,
                burst_gap: s.take_u64("burst_gap", d.burst_gap)?,
                partition_period_ms: s.take_u64("partition_period_ms", d.partition_period_ms)?,
                partition_ms: s.take_u64("partition_ms", d.partition_ms)?,
                defense: s.take_bool("defense", d.defense)?,
            };
            s.finish("fault")?;
        }

        let spec = ScenarioSpec { name, scenario: sc };
        spec.validate().map_err(|msg| ParseError { line: 0, msg })?;
        Ok(spec)
    }

    /// Make a name safe for the text format: `#` starts a comment and
    /// control characters break line structure, so both become `-`;
    /// surrounding whitespace would not survive a parse round-trip.
    fn sanitize_name(name: &str) -> String {
        let cleaned: String = name
            .chars()
            .map(|c| if c == '#' || c.is_control() { '-' } else { c })
            .collect();
        let trimmed = cleaned.trim();
        if trimmed.is_empty() {
            "unnamed".to_string()
        } else {
            trimmed.to_string()
        }
    }

    /// Sanity-check ranges the samplers would otherwise panic on.
    pub fn validate(&self) -> Result<(), String> {
        let sc = &self.scenario;
        if self.name != Self::sanitize_name(&self.name) {
            return Err(
                "name: must be non-empty, without '#', control characters, or \
                 surrounding whitespace (it is embedded in the text format)"
                    .into(),
            );
        }
        if sc.n_nodes < 2 {
            return Err("nodes: need at least 2".into());
        }
        if !(sc.lambda > 0.0 && sc.lambda <= 1.0) {
            return Err("lambda: must be in (0, 1]".into());
        }
        if sc.mean_arrival_s <= 0.0 || sc.mean_duration_s <= 0.0 {
            return Err("mean_arrival_s / mean_duration_s: must be > 0".into());
        }
        if sc.duration_ms == 0 || sc.sample_ms == 0 {
            return Err("duration_ms / sample_ms: must be > 0".into());
        }
        if sc.duration_ms >= RUN_LIMIT_MS {
            return Err(format!("duration_ms: must be < {RUN_LIMIT_MS} (2^32 ms)"));
        }
        if sc.churn_degree < 0.0 {
            return Err("churn: must be ≥ 0".into());
        }
        if sc.delta == 0 {
            return Err("delta: must be ≥ 1".into());
        }
        if sc.query_timeout_ms == 0 {
            // Every query would settle the instant it is issued, and the
            // run would report every task failed.
            return Err("query_timeout_ms: must be ≥ 1".into());
        }
        if sc.lan_size == 0 {
            return Err("lan_size: must be ≥ 1".into());
        }
        let f = &sc.fault;
        if !(0.0..=1.0).contains(&f.blackhole_frac) || !(0.0..=1.0).contains(&f.liar_frac) {
            return Err("fault blackhole / liar: must be in [0, 1]".into());
        }
        if !(0.0..=1.0).contains(&f.loss) || !(0.0..=1.0).contains(&f.burst_loss) {
            return Err("fault loss / burst_loss: must be in [0, 1]".into());
        }
        if f.burst_len == 0 || f.burst_gap == 0 {
            return Err("fault burst_len / burst_gap: must be ≥ 1".into());
        }
        if (f.partition_period_ms == 0) != (f.partition_ms == 0) {
            return Err("fault partition_period_ms / partition_ms: set both or neither".into());
        }
        if f.partition_ms > f.partition_period_ms {
            return Err("fault partition_ms: must be ≤ partition_period_ms".into());
        }
        sc.workload.validate()
    }

    /// Canonical, fully-explicit rendering; `parse(render(x)) == x`.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let sc = &self.scenario;
        let mut out = String::with_capacity(768);
        let _ = writeln!(out, "[scenario]");
        let _ = writeln!(out, "name = {}", Self::sanitize_name(&self.name));
        let _ = writeln!(out, "protocol = {}", protocol_name(sc.protocol));
        let _ = writeln!(out, "nodes = {}", sc.n_nodes);
        let _ = writeln!(out, "duration_ms = {}", sc.duration_ms);
        let _ = writeln!(out, "lambda = {}", sc.lambda);
        let _ = writeln!(out, "seed = {}", sc.seed);
        let _ = writeln!(out, "churn = {}", sc.churn_degree);
        let _ = writeln!(out, "delta = {}", sc.delta);
        let _ = writeln!(out, "sample_ms = {}", sc.sample_ms);
        let _ = writeln!(out, "mean_arrival_s = {}", sc.mean_arrival_s);
        let _ = writeln!(out, "mean_duration_s = {}", sc.mean_duration_s);
        let _ = writeln!(out, "query_timeout_ms = {}", sc.query_timeout_ms);
        let _ = writeln!(out, "lan_size = {}", sc.lan_size);
        let _ = writeln!(out, "local_exec = {}", sc.local_exec);
        let _ = writeln!(out, "dispatch_kbytes = {}", sc.dispatch_kbytes);
        let _ = writeln!(out, "oracle = {}", sc.oracle);
        let _ = writeln!(out, "checkpointing = {}", sc.checkpointing);
        out.push('\n');
        let _ = writeln!(out, "[arrival]");
        match sc.workload.arrival {
            ArrivalModel::Poisson => {
                let _ = writeln!(out, "model = poisson");
            }
            ArrivalModel::Mmpp {
                on_factor,
                off_factor,
                cycle,
                on_frac,
            } => {
                let _ = writeln!(out, "model = mmpp");
                let _ = writeln!(out, "on_factor = {on_factor}");
                let _ = writeln!(out, "off_factor = {off_factor}");
                let _ = writeln!(out, "cycle = {cycle}");
                let _ = writeln!(out, "on_frac = {on_frac}");
            }
            ArrivalModel::Diurnal {
                amplitude,
                period_h,
            } => {
                let _ = writeln!(out, "model = diurnal");
                let _ = writeln!(out, "amplitude = {amplitude}");
                let _ = writeln!(out, "period_h = {period_h}");
            }
            ArrivalModel::FlashCrowd {
                at_h,
                len_h,
                factor,
                every_h,
            } => {
                let _ = writeln!(out, "model = flash-crowd");
                let _ = writeln!(out, "at_h = {at_h}");
                let _ = writeln!(out, "len_h = {len_h}");
                let _ = writeln!(out, "factor = {factor}");
                let _ = writeln!(out, "every_h = {every_h}");
            }
        }
        out.push('\n');
        let _ = writeln!(out, "[duration]");
        match sc.workload.duration {
            DurationModel::Exponential => {
                let _ = writeln!(out, "model = exponential");
            }
            DurationModel::Pareto { alpha } => {
                let _ = writeln!(out, "model = pareto");
                let _ = writeln!(out, "alpha = {alpha}");
            }
        }
        out.push('\n');
        let _ = writeln!(out, "[demand]");
        match sc.workload.demand {
            DemandModel::Uniform => {
                let _ = writeln!(out, "model = uniform");
            }
            DemandModel::Hotspot {
                corners,
                skew,
                width,
            } => {
                let _ = writeln!(out, "model = hotspot");
                let _ = writeln!(out, "corners = {corners}");
                let _ = writeln!(out, "skew = {skew}");
                let _ = writeln!(out, "width = {width}");
            }
        }
        out.push('\n');
        let _ = writeln!(out, "[nodes]");
        match sc.workload.nodes {
            NodeModel::Paper => {
                let _ = writeln!(out, "model = paper");
            }
            NodeModel::Classes { big_frac } => {
                let _ = writeln!(out, "model = classes");
                let _ = writeln!(out, "big_frac = {big_frac}");
            }
        }
        out.push('\n');
        let f = &sc.fault;
        let _ = writeln!(out, "[fault]");
        let _ = writeln!(out, "blackhole = {}", f.blackhole_frac);
        let _ = writeln!(out, "liar = {}", f.liar_frac);
        let _ = writeln!(out, "loss = {}", f.loss);
        let _ = writeln!(out, "burst_loss = {}", f.burst_loss);
        let _ = writeln!(out, "burst_len = {}", f.burst_len);
        let _ = writeln!(out, "burst_gap = {}", f.burst_gap);
        let _ = writeln!(out, "partition_period_ms = {}", f.partition_period_ms);
        let _ = writeln!(out, "partition_ms = {}", f.partition_ms);
        let _ = writeln!(out, "defense = {}", f.defense);
        out
    }

    /// Read and parse a scenario file.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self, String> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Self::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# bursty demo
[scenario]
name = demo
protocol = hid
nodes = 120
hours = 2
lambda = 0.5
seed = 9
mean_arrival_s = 600   # accelerated
mean_duration_s = 600

[arrival]
model = mmpp
on_factor = 0.2
";

    #[test]
    fn parses_with_defaults_and_comments() {
        let spec = ScenarioSpec::parse(SAMPLE).unwrap();
        assert_eq!(spec.name, "demo");
        assert_eq!(spec.scenario.n_nodes, 120);
        assert_eq!(spec.scenario.duration_ms, 2 * 3_600_000);
        assert_eq!(spec.scenario.delta, 3); // paper default
        match spec.scenario.workload.arrival {
            ArrivalModel::Mmpp {
                on_factor,
                off_factor,
                ..
            } => {
                assert_eq!(on_factor, 0.2);
                assert_eq!(off_factor, 8.0); // model default
            }
            other => panic!("wrong arrival model {other:?}"),
        }
    }

    #[test]
    fn render_parse_is_identity() {
        let spec = ScenarioSpec::parse(SAMPLE).unwrap();
        let rendered = spec.render();
        let reparsed = ScenarioSpec::parse(&rendered).unwrap();
        assert_eq!(spec, reparsed);
        // And rendering is a fixed point.
        assert_eq!(rendered, reparsed.render());
    }

    #[test]
    fn rejects_unknown_keys_and_sections() {
        let e = ScenarioSpec::parse("[scenario]\nprotocol = hid\nnodez = 5\n").unwrap_err();
        assert!(e.msg.contains("unknown key"), "{e}");
        assert_eq!(e.line, 3);
        // A key this parser once read and no longer does is unknown too.
        let e =
            ScenarioSpec::parse("[scenario]\nprotocol = hid\ncorner_jitter = 0.15\n").unwrap_err();
        assert!(e.msg.contains("unknown key"), "{e}");
        assert_eq!(e.line, 3);
        let e = ScenarioSpec::parse("[scnario]\nprotocol = hid\n").unwrap_err();
        assert!(e.msg.contains("unknown section"), "{e}");
        let e = ScenarioSpec::parse("[scenario]\nprotocol = zzz\n").unwrap_err();
        assert!(e.msg.contains("unknown protocol"), "{e}");
    }

    #[test]
    fn rejects_missing_protocol_and_bad_values() {
        assert!(ScenarioSpec::parse("[scenario]\nnodes = 5\n").is_err());
        let e = ScenarioSpec::parse("[scenario]\nprotocol = hid\nnodes = many\n").unwrap_err();
        assert!(e.msg.contains("expected an integer"), "{e}");
        let e = ScenarioSpec::parse("[scenario]\nprotocol = hid\nlambda = 2.0\n").unwrap_err();
        assert!(e.msg.contains("lambda"), "{e}");
        let e =
            ScenarioSpec::parse("[scenario]\nprotocol = hid\nseed = 1\nseed = 2\n").unwrap_err();
        assert!(e.msg.contains("duplicate"), "{e}");
    }

    #[test]
    fn a_lan_of_zero_nodes_is_rejected() {
        let e = ScenarioSpec::parse("[scenario]\nprotocol = hid\nnodes = 50\nlan_size = 0\n")
            .unwrap_err();
        assert!(e.msg.contains("lan_size"), "{e}");
        let ok = ScenarioSpec::parse("[scenario]\nprotocol = hid\nlan_size = 1\n").unwrap();
        assert_eq!(ok.scenario.lan_size, 1);
    }

    #[test]
    fn a_query_timeout_of_zero_is_rejected() {
        let spec = |ms: u64| format!("[scenario]\nprotocol = hid\nquery_timeout_ms = {ms}\n");
        let e = ScenarioSpec::parse(&spec(0)).unwrap_err();
        assert!(e.msg.contains("query_timeout_ms: must be ≥ 1"), "{e}");
        let ok = ScenarioSpec::parse(&spec(1)).unwrap();
        assert_eq!(ok.scenario.query_timeout_ms, 1);
    }

    #[test]
    fn hotspot_corners_past_u32_are_rejected_not_wrapped() {
        let spec = |c: u64| {
            format!("[scenario]\nprotocol = hid\n\n[demand]\nmodel = hotspot\ncorners = {c}\n")
        };
        let e = ScenarioSpec::parse(&spec(4_294_967_297)).unwrap_err();
        assert!(e.msg.contains("corners"), "{e}");
        assert_eq!(e.line, 6);
        // A count that fits in u32 is still held to the generator's bound.
        let e = ScenarioSpec::parse(&spec(u64::from(u32::MAX))).unwrap_err();
        assert!(e.msg.contains("corners must be ≤"), "{e}");
        let max = soc_workload::MAX_HOTSPOT_CORNERS;
        assert!(ScenarioSpec::parse(&spec(u64::from(max) + 1)).is_err());
        let ok = ScenarioSpec::parse(&spec(u64::from(max))).unwrap();
        match ok.scenario.workload.demand {
            DemandModel::Hotspot { corners, .. } => assert_eq!(corners, max),
            other => panic!("wrong demand model {other:?}"),
        }
    }

    #[test]
    fn a_run_of_2_pow_32_ms_is_rejected_and_one_ms_less_parses() {
        let spec = |ms: u64| format!("[scenario]\nprotocol = hid\nduration_ms = {ms}\n");
        let e = ScenarioSpec::parse(&spec(4_294_967_296)).unwrap_err();
        assert!(
            e.msg.contains("duration_ms") && e.msg.contains("4294967296"),
            "{e}"
        );
        let ok = ScenarioSpec::parse(&spec(4_294_967_295)).unwrap();
        assert_eq!(ok.scenario.duration_ms, u64::from(u32::MAX));
    }

    #[test]
    fn hostile_names_cannot_corrupt_the_format() {
        // A programmatic name with '#' or newlines would comment out or
        // split its own line; render sanitizes, validate rejects.
        let spec = ScenarioSpec {
            name: "a#b\nseed = 99".into(),
            scenario: Scenario::quick(ProtocolChoice::Hid),
        };
        assert!(spec.validate().is_err());
        let reparsed = ScenarioSpec::parse(&spec.render()).unwrap();
        assert_eq!(reparsed.name, "a-b-seed = 99");
        assert_eq!(reparsed.scenario.seed, spec.scenario.seed);
        // Sanitized specs round-trip exactly.
        assert_eq!(reparsed, ScenarioSpec::parse(&reparsed.render()).unwrap());
    }

    #[test]
    fn fault_section_parses_with_model_defaults() {
        let spec = ScenarioSpec::parse(
            "[scenario]\nprotocol = hid\n\n[fault]\nblackhole = 0.15\nloss = 0.02\n",
        )
        .unwrap();
        let f = spec.scenario.fault;
        assert_eq!(f.blackhole_frac, 0.15);
        assert_eq!(f.loss, 0.02);
        assert_eq!(f.liar_frac, 0.0);
        assert_eq!(f.burst_len, 8); // model default
        assert!(f.enabled());
        // Omitting the section entirely leaves the all-zero default.
        let clean = ScenarioSpec::parse("[scenario]\nprotocol = hid\n").unwrap();
        assert_eq!(clean.scenario.fault, FaultConfig::default());
        assert!(!clean.scenario.fault.enabled());
    }

    #[test]
    fn fault_section_round_trips() {
        let spec = ScenarioSpec::parse(
            "[scenario]\nprotocol = sid\n\n[fault]\nliar = 0.1\nburst_loss = 0.8\n\
             burst_len = 12\nburst_gap = 300\npartition_period_ms = 600000\n\
             partition_ms = 120000\ndefense = true\n",
        )
        .unwrap();
        let again = ScenarioSpec::parse(&spec.render()).unwrap();
        assert!(again.scenario.fault.defense);
        assert_eq!(spec, again);
        assert_eq!(spec.render(), again.render());
    }

    #[test]
    fn fault_section_rejects_bad_values_with_line_numbers() {
        let e = ScenarioSpec::parse("[scenario]\nprotocol = hid\n\n[fault]\nblackhole = lots\n")
            .unwrap_err();
        assert!(e.msg.contains("expected a number"), "{e}");
        assert_eq!(e.line, 5);
        let e = ScenarioSpec::parse("[scenario]\nprotocol = hid\n\n[fault]\nblackhol = 0.1\n")
            .unwrap_err();
        assert!(e.msg.contains("unknown key"), "{e}");
        assert_eq!(e.line, 5);
        let e = ScenarioSpec::parse("[scenario]\nprotocol = hid\n\n[fault]\nblackhole = 1.5\n")
            .unwrap_err();
        assert!(e.msg.contains("blackhole"), "{e}");
        let e = ScenarioSpec::parse("[scenario]\nprotocol = hid\n\n[fault]\nburst_len = 0\n")
            .unwrap_err();
        assert!(e.msg.contains("burst_len"), "{e}");
        let e = ScenarioSpec::parse(
            "[scenario]\nprotocol = hid\n\n[fault]\npartition_period_ms = 1000\n",
        )
        .unwrap_err();
        assert!(e.msg.contains("set both or neither"), "{e}");
        let e = ScenarioSpec::parse(
            "[scenario]\nprotocol = hid\n\n[fault]\npartition_period_ms = 1000\n\
             partition_ms = 2000\n",
        )
        .unwrap_err();
        assert!(e.msg.contains("≤ partition_period_ms"), "{e}");
    }

    #[test]
    fn all_protocols_round_trip() {
        for p in ProtocolChoice::ALL {
            let spec = ScenarioSpec {
                name: "p".into(),
                scenario: Scenario::quick(p),
            };
            let again = ScenarioSpec::parse(&spec.render()).unwrap();
            assert_eq!(spec, again, "{}", p.label());
        }
    }
}
