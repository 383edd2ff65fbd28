//! Fault model: byzantine nodes, lossy links, transient partitions.
//!
//! The paper evaluates PID-CAN on a cooperative, lossless network; this
//! module supplies the hostility the evaluation never had. Three fault
//! families, all driven by the dedicated `RngStreams::Fault` stream so
//! that enabling them never perturbs the workload or network latency
//! draws (the trace-replay invariant):
//!
//! - **Blackhole / byzantine nodes.** A seeded fraction of nodes silently
//!   drop every control message they should handle or forward
//!   (fledger-style `EVIL_NO_FORWARD`). A second, disjoint-samplable
//!   fraction are *liars*: they stay live and forward, but advertise a
//!   corrupt (maximal) availability, attracting dispatches that then fail
//!   the arrival-time qualification re-check.
//! - **Message loss.** Per-hop iid drop probability, plus a bursty
//!   Gilbert–Elliott good/bad channel: a global two-state Markov chain
//!   advanced once per control send; in the bad state messages drop with
//!   `burst_loss`.
//! - **Transient partitions.** Deterministic windows during which links
//!   between the two halves of the LAN set are cut, then heal. No RNG —
//!   the schedule is a pure function of simulation time.
//!
//! `FaultConfig` is the declarative knob set (scenario `[fault]` section);
//! `FaultPlan` is the instantiated per-run state with drop counters.

use rand::{Rng, RngExt};
use soc_types::{NodeId, SimMillis};

/// Declarative fault configuration. All-zero (the default) means the
/// network is cooperative and lossless — the pre-fault behaviour,
/// bit-for-bit: no fault RNG is drawn and no counters move.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultConfig {
    /// Fraction of nodes that silently drop every message they receive.
    pub blackhole_frac: f64,
    /// Fraction of nodes that advertise corrupt (maximal) availability.
    pub liar_frac: f64,
    /// iid per-hop control-message drop probability.
    pub loss: f64,
    /// Drop probability while the Gilbert–Elliott chain is in its bad
    /// state. Zero disables the burst channel entirely.
    pub burst_loss: f64,
    /// Mean burst (bad-state) length in messages.
    pub burst_len: u64,
    /// Mean gap (good-state) length in messages.
    pub burst_gap: u64,
    /// Partition cycle period in ms; zero disables partitions.
    pub partition_period_ms: SimMillis,
    /// Length of the cut window at the start of each cycle (after the
    /// first full period elapses).
    pub partition_ms: SimMillis,
    /// Arm the blacklist/retry defence: suspicion strikes on swallowed
    /// messages, per-observer blacklists, bounded query re-issues. Not a
    /// fault kind, so [`enabled`](Self::enabled) and [`tag`](Self::tag)
    /// ignore it.
    pub defense: bool,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            blackhole_frac: 0.0,
            liar_frac: 0.0,
            loss: 0.0,
            burst_loss: 0.0,
            burst_len: 8,
            burst_gap: 200,
            partition_period_ms: 0,
            partition_ms: 0,
            defense: false,
        }
    }
}

impl FaultConfig {
    /// Is any fault kind active? When false, the run must be bitwise
    /// identical to one with no fault model at all.
    pub fn enabled(&self) -> bool {
        self.blackhole_frac > 0.0
            || self.liar_frac > 0.0
            || self.loss > 0.0
            || self.burst_loss > 0.0
            || (self.partition_period_ms > 0 && self.partition_ms > 0)
    }

    /// Compact descriptor tag, e.g. `bh0.15+loss0.02+part`. Only called
    /// when `enabled()`.
    pub fn tag(&self) -> String {
        let mut parts = Vec::new();
        if self.blackhole_frac > 0.0 {
            parts.push(format!("bh{}", self.blackhole_frac));
        }
        if self.liar_frac > 0.0 {
            parts.push(format!("liar{}", self.liar_frac));
        }
        if self.loss > 0.0 {
            parts.push(format!("loss{}", self.loss));
        }
        if self.burst_loss > 0.0 {
            parts.push(format!("burst{}", self.burst_loss));
        }
        if self.partition_period_ms > 0 && self.partition_ms > 0 {
            parts.push("part".to_string());
        }
        parts.join("+")
    }
}

/// Gilbert–Elliott channel state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum GeState {
    Good,
    Bad,
}

/// Instantiated fault state for one run: which nodes are evil, the burst
/// channel, and drop counters by kind.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    cfg: FaultConfig,
    evil: Vec<bool>,
    liar: Vec<bool>,
    ge: GeState,
    /// Messages suppressed because the receiving node is a blackhole.
    pub drops_blackhole: u64,
    /// Messages lost to the iid per-hop channel.
    pub drops_loss: u64,
    /// Messages lost to the bursty Gilbert–Elliott channel.
    pub drops_burst: u64,
    /// Messages cut by an active partition window.
    pub drops_partition: u64,
}

impl FaultPlan {
    /// Sample the per-node evil/liar assignment for `n` initial nodes.
    /// Draws from `rng` (the Fault stream) only for fractions > 0, so a
    /// zero-fault plan consumes no randomness.
    pub fn new<R: Rng>(cfg: FaultConfig, n: usize, rng: &mut R) -> Self {
        let evil = if cfg.blackhole_frac > 0.0 {
            (0..n)
                .map(|_| rng.random_bool(cfg.blackhole_frac))
                .collect()
        } else {
            vec![false; n]
        };
        let liar = if cfg.liar_frac > 0.0 {
            (0..n).map(|_| rng.random_bool(cfg.liar_frac)).collect()
        } else {
            vec![false; n]
        };
        FaultPlan {
            cfg,
            evil,
            liar,
            ge: GeState::Good,
            drops_blackhole: 0,
            drops_loss: 0,
            drops_burst: 0,
            drops_partition: 0,
        }
    }

    /// The configuration this plan was built from.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Re-roll the faultiness of a node that just (re)joined: churn
    /// replacements are as likely to be hostile as the original
    /// population.
    pub fn on_join<R: Rng>(&mut self, node: NodeId, rng: &mut R) {
        if self.cfg.blackhole_frac > 0.0 {
            self.evil[node.idx()] = rng.random_bool(self.cfg.blackhole_frac);
        }
        if self.cfg.liar_frac > 0.0 {
            self.liar[node.idx()] = rng.random_bool(self.cfg.liar_frac);
        }
    }

    /// Does `node` silently drop everything it receives?
    pub fn is_blackhole(&self, node: NodeId) -> bool {
        self.evil[node.idx()]
    }

    /// Does `node` advertise corrupt availability?
    pub fn is_liar(&self, node: NodeId) -> bool {
        self.liar[node.idx()]
    }

    /// Number of currently-marked blackhole nodes.
    pub fn blackhole_count(&self) -> u64 {
        self.evil.iter().filter(|&&e| e).count() as u64
    }

    /// Number of currently-marked liar nodes.
    pub fn liar_count(&self) -> u64 {
        self.liar.iter().filter(|&&l| l).count() as u64
    }

    /// Should this control-message hop be dropped by the loss channels?
    /// Advances the Gilbert–Elliott chain (when configured) and draws the
    /// iid channel; increments the matching counter on a drop. Callers
    /// must only invoke this when `config().enabled()` so the clean path
    /// stays RNG-free.
    pub fn channel_drop<R: Rng>(&mut self, rng: &mut R) -> bool {
        if self.cfg.burst_loss > 0.0 {
            // Advance the two-state chain once per message: flip with
            // probability 1/mean_dwell, giving geometric dwell times.
            let flip = match self.ge {
                GeState::Bad => rng.random_bool(1.0 / self.cfg.burst_len.max(1) as f64),
                GeState::Good => rng.random_bool(1.0 / self.cfg.burst_gap.max(1) as f64),
            };
            if flip {
                self.ge = match self.ge {
                    GeState::Good => GeState::Bad,
                    GeState::Bad => GeState::Good,
                };
            }
            if self.ge == GeState::Bad && rng.random_bool(self.cfg.burst_loss) {
                self.drops_burst += 1;
                return true;
            }
        }
        if self.cfg.loss > 0.0 && rng.random_bool(self.cfg.loss) {
            self.drops_loss += 1;
            return true;
        }
        false
    }

    /// Is the link between `lan_a` and `lan_b` cut by a partition at
    /// `now`? Deterministic: after the first full period, the first
    /// `partition_ms` of every period cuts links crossing the midpoint of
    /// the LAN id space. Healing is implicit when the window ends.
    pub fn partitioned(&self, now: SimMillis, lan_a: u32, lan_b: u32, n_lans: u32) -> bool {
        let period = self.cfg.partition_period_ms;
        if period == 0 || self.cfg.partition_ms == 0 || n_lans < 2 {
            return false;
        }
        if now < period || now % period >= self.cfg.partition_ms {
            return false;
        }
        let half = n_lans / 2;
        (lan_a < half) != (lan_b < half)
    }

    /// Record a partition-cut drop.
    pub fn count_partition_drop(&mut self) {
        self.drops_partition += 1;
    }

    /// Record a blackhole suppression.
    pub fn count_blackhole_drop(&mut self) {
        self.drops_blackhole += 1;
    }

    /// Total messages dropped across all fault kinds.
    pub fn drops_total(&self) -> u64 {
        self.drops_blackhole + self.drops_loss + self.drops_burst + self.drops_partition
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "unit tests seed a local RNG; no simulation stream is involved"
)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(7)
    }

    #[test]
    fn default_config_is_disabled_and_draws_nothing() {
        let cfg = FaultConfig::default();
        assert!(!cfg.enabled());
        let mut a = rng();
        let plan = FaultPlan::new(cfg, 100, &mut a);
        let mut b = rng();
        // Construction must not have consumed the stream.
        assert_eq!(a.random::<u64>(), b.random::<u64>());
        assert_eq!(plan.blackhole_count(), 0);
        assert_eq!(plan.liar_count(), 0);
        assert!(!plan.partitioned(10_000_000, 0, 5, 10));
    }

    #[test]
    fn blackhole_fraction_roughly_respected() {
        let cfg = FaultConfig {
            blackhole_frac: 0.3,
            ..FaultConfig::default()
        };
        assert!(cfg.enabled());
        let plan = FaultPlan::new(cfg, 2000, &mut rng());
        let c = plan.blackhole_count();
        assert!((400..=800).contains(&c), "blackhole count {c}");
        assert_eq!(plan.liar_count(), 0);
    }

    #[test]
    fn iid_loss_rate_roughly_respected() {
        let cfg = FaultConfig {
            loss: 0.2,
            ..FaultConfig::default()
        };
        let mut plan = FaultPlan::new(cfg, 10, &mut rng());
        let mut r = rng();
        let drops = (0..5000).filter(|_| plan.channel_drop(&mut r)).count();
        assert!((700..=1300).contains(&drops), "iid drops {drops}");
        assert_eq!(plan.drops_loss, drops as u64);
        assert_eq!(plan.drops_burst, 0);
    }

    #[test]
    fn burst_channel_clusters_losses() {
        let cfg = FaultConfig {
            burst_loss: 0.9,
            burst_len: 10,
            burst_gap: 50,
            ..FaultConfig::default()
        };
        let mut plan = FaultPlan::new(cfg, 10, &mut rng());
        let mut r = rng();
        let outcomes: Vec<bool> = (0..20_000).map(|_| plan.channel_drop(&mut r)).collect();
        let drops = outcomes.iter().filter(|&&d| d).count();
        // Bad-state occupancy ≈ len/(len+gap) = 1/6; drop rate ≈ 0.9/6.
        assert!((1500..=4500).contains(&drops), "burst drops {drops}");
        // Burstiness: a drop is much more likely right after a drop than
        // the marginal rate (the chain dwells in the bad state).
        let after_drop =
            outcomes.windows(2).filter(|w| w[0] && w[1]).count() as f64 / drops.max(1) as f64;
        let marginal = drops as f64 / outcomes.len() as f64;
        assert!(
            after_drop > 2.0 * marginal,
            "not bursty: P(drop|drop)={after_drop:.3} vs marginal {marginal:.3}"
        );
    }

    #[test]
    fn partition_windows_cut_cross_half_links_then_heal() {
        let cfg = FaultConfig {
            partition_period_ms: 1000,
            partition_ms: 200,
            ..FaultConfig::default()
        };
        let plan = FaultPlan::new(cfg, 10, &mut rng());
        // Before the first full period: never cut.
        assert!(!plan.partitioned(100, 0, 9, 10));
        // Inside a window, cross-half links are cut...
        assert!(plan.partitioned(1000, 0, 9, 10));
        assert!(plan.partitioned(1199, 2, 7, 10));
        // ...same-half links are not...
        assert!(!plan.partitioned(1100, 0, 4, 10));
        assert!(!plan.partitioned(1100, 5, 9, 10));
        // ...and the window heals.
        assert!(!plan.partitioned(1200, 0, 9, 10));
        assert!(!plan.partitioned(1999, 0, 9, 10));
        // Next cycle cuts again.
        assert!(plan.partitioned(2050, 0, 9, 10));
        // A single LAN can never partition.
        assert!(!plan.partitioned(1100, 0, 0, 1));
    }

    #[test]
    fn join_rerolls_faultiness_deterministically() {
        let cfg = FaultConfig {
            blackhole_frac: 1.0,
            ..FaultConfig::default()
        };
        let mut plan = FaultPlan::new(cfg, 10, &mut rng());
        assert!(plan.is_blackhole(NodeId(3)));
        let mut plan2 = plan.clone();
        let mut ra = rng();
        let mut rb = rng();
        plan.on_join(NodeId(3), &mut ra);
        plan2.on_join(NodeId(3), &mut rb);
        assert_eq!(plan.is_blackhole(NodeId(3)), plan2.is_blackhole(NodeId(3)));
    }

    #[test]
    fn tag_is_compact_and_covers_active_kinds() {
        let cfg = FaultConfig {
            blackhole_frac: 0.15,
            loss: 0.02,
            partition_period_ms: 600_000,
            partition_ms: 120_000,
            ..FaultConfig::default()
        };
        assert_eq!(cfg.tag(), "bh0.15+loss0.02+part");
    }
}
