//! Scenario configuration (the knobs of §IV-A, plus the workload-shape
//! and search-diversification extensions).

use crate::report::RunReport;
use soc_net::FaultConfig;
use soc_types::SimMillis;
use soc_workload::WorkloadSpec;

/// Which discovery protocol a scenario evaluates (the six protocols of
/// Fig. 5–7 plus KHDN-CAN from Fig. 4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtocolChoice {
    /// HID-CAN (hopping index diffusion) — the paper's recommendation.
    Hid,
    /// SID-CAN (spreading index diffusion).
    Sid,
    /// HID-CAN + Slack-on-Submission.
    HidSos,
    /// SID-CAN + Slack-on-Submission.
    SidSos,
    /// SID-CAN + virtual dimension.
    SidVd,
    /// Newscast gossip baseline.
    Newscast,
    /// KHDN-CAN baseline.
    Khdn,
}

impl ProtocolChoice {
    /// Label matching the paper's figure legends.
    pub fn label(self) -> &'static str {
        match self {
            ProtocolChoice::Hid => "HID-CAN",
            ProtocolChoice::Sid => "SID-CAN",
            ProtocolChoice::HidSos => "HID-CAN+SoS",
            ProtocolChoice::SidSos => "SID-CAN+SoS",
            ProtocolChoice::SidVd => "SID-CAN+VD",
            ProtocolChoice::Newscast => "Newscast",
            ProtocolChoice::Khdn => "KHDN-CAN",
        }
    }

    /// All seven protocols.
    pub const ALL: [ProtocolChoice; 7] = [
        ProtocolChoice::Hid,
        ProtocolChoice::Sid,
        ProtocolChoice::HidSos,
        ProtocolChoice::SidSos,
        ProtocolChoice::SidVd,
        ProtocolChoice::Newscast,
        ProtocolChoice::Khdn,
    ];

    /// The six protocols compared in Fig. 5–7.
    pub const FIG5: [ProtocolChoice; 6] = [
        ProtocolChoice::Sid,
        ProtocolChoice::Hid,
        ProtocolChoice::SidSos,
        ProtocolChoice::HidSos,
        ProtocolChoice::SidVd,
        ProtocolChoice::Newscast,
    ];
}

/// A full experiment configuration. Build with [`Scenario::paper`] and the
/// chainable setters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Scenario {
    /// Protocol under test.
    pub protocol: ProtocolChoice,
    /// Number of nodes (paper: 2000–12000).
    pub n_nodes: usize,
    /// Demand ratio λ (Table II).
    pub lambda: f64,
    /// Simulated duration (paper: one day).
    pub duration_ms: SimMillis,
    /// Master seed.
    pub seed: u64,
    /// Churn "dynamic degree": fraction of nodes replaced per mean task
    /// lifetime (3000 s). 0 = static.
    pub churn_degree: f64,
    /// `δ`: qualified results wanted per query.
    pub delta: usize,
    /// Metric sampling period (paper plots hourly).
    pub sample_ms: SimMillis,
    /// Mean task inter-arrival per node, seconds (paper: 3000).
    pub mean_arrival_s: f64,
    /// Mean task duration, seconds (paper: 3000).
    pub mean_duration_s: f64,
    /// Discovery timeout: a query with no verdict by then settles with
    /// whatever it has.
    pub query_timeout_ms: SimMillis,
    /// Nodes per LAN.
    pub lan_size: usize,
    /// Execute locally when the submitting node qualifies.
    pub local_exec: bool,
    /// Task payload pushed at dispatch (KB), paid over LAN/WAN bandwidth.
    pub dispatch_kbytes: f64,
    /// Diagnostic: on every query, scan all live nodes for ground-truth
    /// qualification (O(n) per query — calibration runs only).
    pub oracle: bool,
    /// Checkpoint-based execution fault tolerance (the paper's §VI future
    /// work): tasks killed by churn are re-submitted to the overlay with
    /// the work they had already completed preserved, rather than lost.
    pub checkpointing: bool,
    /// Workload shape (arrival/duration/demand/capacity models). The
    /// default is the paper's §IV-A workload; base rates always come from
    /// `lambda`, `mean_arrival_s` and `mean_duration_s` above.
    pub workload: WorkloadSpec,
    /// Fault model: blackhole/liar nodes, lossy links, partitions. The
    /// all-zero default is the cooperative paper network, bit-for-bit.
    pub fault: FaultConfig,
}

impl Scenario {
    /// The paper's §IV-A defaults at n = 2000, λ = 0.5.
    pub fn paper(protocol: ProtocolChoice) -> Self {
        Scenario {
            protocol,
            n_nodes: 2000,
            lambda: 0.5,
            duration_ms: 86_400_000,
            seed: 1,
            churn_degree: 0.0,
            delta: 3,
            sample_ms: 3_600_000,
            mean_arrival_s: 3000.0,
            mean_duration_s: 3000.0,
            query_timeout_ms: 60_000,
            lan_size: 32,
            local_exec: true,
            dispatch_kbytes: 64.0,
            oracle: false,
            checkpointing: false,
            workload: WorkloadSpec::default(),
            fault: FaultConfig::default(),
        }
    }

    /// A scaled-down configuration for fast tests/benches: 200 nodes,
    /// 2 simulated hours, accelerated workload.
    pub fn quick(protocol: ProtocolChoice) -> Self {
        Scenario {
            n_nodes: 200,
            duration_ms: 2 * 3_600_000,
            mean_arrival_s: 600.0,
            mean_duration_s: 600.0,
            sample_ms: 600_000,
            ..Self::paper(protocol)
        }
    }

    /// Set node count.
    pub fn nodes(mut self, n: usize) -> Self {
        self.n_nodes = n;
        self
    }

    /// Set demand ratio λ.
    pub fn lambda(mut self, l: f64) -> Self {
        self.lambda = l;
        self
    }

    /// Set the master seed.
    pub fn seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    /// Set churn degree (fraction replaced per 3000 s).
    pub fn churn(mut self, degree: f64) -> Self {
        self.churn_degree = degree;
        self
    }

    /// Set simulated duration in hours.
    pub fn hours(mut self, h: u64) -> Self {
        self.duration_ms = h * 3_600_000;
        self
    }

    /// Set the workload shape.
    pub fn workload(mut self, w: WorkloadSpec) -> Self {
        self.workload = w;
        self
    }

    /// Set the fault model (all-zero disables).
    pub fn fault(mut self, f: FaultConfig) -> Self {
        self.fault = f;
        self
    }

    /// The report's scenario descriptor. Default-workload, fault-free
    /// configurations render exactly as before; extensions append tags.
    pub fn descriptor(&self) -> String {
        let mut s = format!(
            "n={} λ={} churn={} seed={}",
            self.n_nodes, self.lambda, self.churn_degree, self.seed
        );
        if !self.workload.is_paper() {
            s.push_str(&format!(" wl={}", self.workload.tag()));
        }
        if self.fault.enabled() {
            s.push_str(&format!(" flt={}", self.fault.tag()));
        }
        s
    }

    /// Run the scenario to completion.
    pub fn run(&self) -> RunReport {
        crate::runner::run_scenario(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_section_4a() {
        let s = Scenario::paper(ProtocolChoice::Hid);
        assert_eq!(s.n_nodes, 2000);
        assert_eq!(s.duration_ms, 86_400_000);
        assert_eq!(s.mean_arrival_s, 3000.0);
        assert_eq!(s.sample_ms, 3_600_000);
        assert_eq!(s.protocol.label(), "HID-CAN");
    }

    #[test]
    fn builder_chains() {
        let s = Scenario::paper(ProtocolChoice::Newscast)
            .nodes(500)
            .lambda(0.25)
            .seed(9)
            .churn(0.5)
            .hours(6);
        assert_eq!(s.n_nodes, 500);
        assert_eq!(s.lambda, 0.25);
        assert_eq!(s.seed, 9);
        assert_eq!(s.churn_degree, 0.5);
        assert_eq!(s.duration_ms, 6 * 3_600_000);
    }

    #[test]
    fn descriptor_tags_faults_only_when_enabled() {
        let clean = Scenario::quick(ProtocolChoice::Hid);
        assert!(!clean.descriptor().contains("flt="));
        let hostile = clean.fault(FaultConfig {
            blackhole_frac: 0.15,
            ..FaultConfig::default()
        });
        assert!(hostile.descriptor().contains("flt=bh0.15"));
    }

    #[test]
    fn labels_cover_fig5_legend() {
        let labels: Vec<&str> = ProtocolChoice::FIG5.iter().map(|p| p.label()).collect();
        assert!(labels.contains(&"SID-CAN"));
        assert!(labels.contains(&"HID-CAN"));
        assert!(labels.contains(&"SID-CAN+SoS"));
        assert!(labels.contains(&"HID-CAN+SoS"));
        assert!(labels.contains(&"SID-CAN+VD"));
        assert!(labels.contains(&"Newscast"));
    }
}
