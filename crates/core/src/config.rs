//! PID-CAN configuration knobs (§III + §IV-A experimental constants).

use soc_types::{SimMillis, SOC_DIMS};

/// Which index-diffusion strategy a PID-CAN instance runs (Fig. 3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiffusionMethod {
    /// SID: per-dimension initiators select all `L` same-dimension targets
    /// from their own index table and send in parallel (fewer relay hops,
    /// narrower coverage).
    Spreading,
    /// HID: Algorithms 1–2 — hop from index node to index node, re-sampling
    /// at every hop (Theorem 1: `O(log2 n)` relay delay, wider coverage).
    Hopping,
}

/// Tunable parameters of the PID-CAN protocol.
#[derive(Clone, Copy, Debug)]
pub struct PidCanConfig {
    /// Diffusion strategy (SID vs HID).
    pub diffusion: DiffusionMethod,
    /// Slack-on-Submission: query with a slacked vector first (Formula (3)).
    pub sos: bool,
    /// Add a virtual CAN dimension with random coordinates (the `+VD`
    /// competition-dispersal variant).
    pub virtual_dim: bool,
    /// `L`: negative-index notification targets per dimension. The paper
    /// fixes `L = 2` ("L has to be small constant (we always set it to 2)").
    pub fanout_l: usize,
    /// State-update cycle (§IV-A: 400 s).
    pub state_update_ms: SimMillis,
    /// Index-diffusion cycle (Algorithm 1's "tiny cycle").
    pub diffusion_ms: SimMillis,
    /// Index-table (INSCAN finger) refresh cycle.
    pub table_refresh_ms: SimMillis,
    /// State-record (cache `γ`) TTL (§IV-A: 600 s).
    pub record_ttl_ms: SimMillis,
    /// PIList entry TTL.
    pub pilist_ttl_ms: SimMillis,
    /// How many PIList entries an agent samples into a jump list
    /// (Algorithm 4's "randomly select a few indexes").
    pub jump_sample: usize,
    /// §III-B1: indexes are "continually propagated from index-node to
    /// index-node … for finding more resource records on demand" — an index
    /// node whose cache has no qualified records extends the jump list with
    /// this many samples from its *own* PIList.
    pub jump_refill: usize,
    /// Hard cap on index-jump hops per query attempt (delay bound).
    pub jump_budget: usize,
}

impl Default for PidCanConfig {
    fn default() -> Self {
        PidCanConfig {
            diffusion: DiffusionMethod::Hopping,
            sos: false,
            virtual_dim: false,
            fanout_l: 2,
            state_update_ms: 400_000,
            diffusion_ms: 60_000,
            table_refresh_ms: 600_000,
            record_ttl_ms: 600_000,
            pilist_ttl_ms: 900_000,
            jump_sample: 8,
            jump_refill: 3,
            jump_budget: 40,
        }
    }
}

impl PidCanConfig {
    /// HID-CAN (the paper's recommended configuration).
    pub fn hid() -> Self {
        Self::default()
    }

    /// SID-CAN.
    pub fn sid() -> Self {
        PidCanConfig {
            diffusion: DiffusionMethod::Spreading,
            ..Self::default()
        }
    }

    /// HID-CAN + SoS.
    pub fn hid_sos() -> Self {
        PidCanConfig {
            sos: true,
            ..Self::default()
        }
    }

    /// SID-CAN + SoS.
    pub fn sid_sos() -> Self {
        PidCanConfig {
            diffusion: DiffusionMethod::Spreading,
            sos: true,
            ..Self::default()
        }
    }

    /// SID-CAN + VD (virtual dimension).
    pub fn sid_vd() -> Self {
        PidCanConfig {
            diffusion: DiffusionMethod::Spreading,
            virtual_dim: true,
            ..Self::default()
        }
    }

    /// Multiply every protocol period/TTL by `f` (scaled-down scenarios
    /// shrink task durations; shrinking the cycles by the same factor
    /// preserves the staleness-to-lifetime ratios that drive contention).
    pub fn scale_cycles(mut self, f: f64) -> Self {
        let s = |ms: SimMillis| -> SimMillis { ((ms as f64 * f).round() as SimMillis).max(1) };
        self.state_update_ms = s(self.state_update_ms);
        self.diffusion_ms = s(self.diffusion_ms);
        self.table_refresh_ms = s(self.table_refresh_ms);
        self.record_ttl_ms = s(self.record_ttl_ms);
        self.pilist_ttl_ms = s(self.pilist_ttl_ms);
        self
    }

    /// Dimensionality of the CAN key space this configuration needs
    /// (the resource dimensions, plus one when VD is on).
    pub fn overlay_dim(&self) -> usize {
        SOC_DIMS + usize::from(self.virtual_dim)
    }

    /// Total diffusion messages per round when every branch finds targets:
    /// `ω = Σ_{j=1..d} L^j = L(L^d − 1)/(L − 1)` (§III-B1).
    pub fn omega(&self, overlay_dim: usize) -> usize {
        let l = self.fanout_l;
        if l <= 1 {
            return overlay_dim * l;
        }
        (1..=overlay_dim).map(|j| l.pow(j as u32)).sum()
    }

    /// Protocol label used in reports (matches the paper's legends).
    pub fn label(&self) -> &'static str {
        match (self.diffusion, self.sos, self.virtual_dim) {
            (DiffusionMethod::Spreading, false, false) => "SID-CAN",
            (DiffusionMethod::Hopping, false, false) => "HID-CAN",
            (DiffusionMethod::Spreading, true, false) => "SID-CAN+SoS",
            (DiffusionMethod::Hopping, true, false) => "HID-CAN+SoS",
            (DiffusionMethod::Spreading, false, true) => "SID-CAN+VD",
            (DiffusionMethod::Hopping, false, true) => "HID-CAN+VD",
            _ => "PID-CAN",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_legends() {
        assert_eq!(PidCanConfig::hid().label(), "HID-CAN");
        assert_eq!(PidCanConfig::sid().label(), "SID-CAN");
        assert_eq!(PidCanConfig::hid_sos().label(), "HID-CAN+SoS");
        assert_eq!(PidCanConfig::sid_sos().label(), "SID-CAN+SoS");
        assert_eq!(PidCanConfig::sid_vd().label(), "SID-CAN+VD");
    }

    #[test]
    fn omega_matches_paper_example() {
        // §III-B1: "if L = 2 and d = 3, the total number of messages is
        // only 14".
        let cfg = PidCanConfig::default();
        assert_eq!(cfg.omega(3), 14);
        assert_eq!(cfg.omega(2), 6);
        assert_eq!(cfg.omega(5), 62);
    }

    #[test]
    fn vd_adds_an_overlay_dimension() {
        assert_eq!(PidCanConfig::hid().overlay_dim(), 5);
        assert_eq!(PidCanConfig::sid_vd().overlay_dim(), 6);
    }

    #[test]
    fn paper_experimental_constants() {
        let c = PidCanConfig::default();
        assert_eq!(c.fanout_l, 2);
        assert_eq!(c.state_update_ms, 400_000);
    }
}
