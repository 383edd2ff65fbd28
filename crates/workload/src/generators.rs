//! [`SyntheticSource`]: the generator library behind every
//! [`WorkloadSpec`].
//!
//! One struct implements [`WorkloadSource`] for all model combinations.
//! The paper-default path draws *exactly* the same RNG sequence as the
//! original `PoissonArrivals`/`DemandSampler`/`NodeCapacitySampler` calls
//! (a unit test pins the parity), so switching the runner to the source
//! boundary does not disturb paper-workload runs.

use crate::demand::{BASE, TOP};
use crate::source::WorkloadSource;
use crate::spec::{ArrivalModel, DemandModel, DurationModel, NodeModel, WorkloadSpec};
use crate::{NodeCapacitySampler, PoissonArrivals, TaskSpec};
use rand::rngs::SmallRng;
use rand::{Rng, RngExt};
use soc_types::{NodeId, ResVec, SimMillis, SOC_DIMS};

/// Durations are clamped so one task cannot outlive several simulated days
/// (same guard as the paper sampler; essential for Pareto tails).
const MAX_DURATION_S: f64 = 10.0 * 86_400.0;

/// Exponential(mean) via inverse transform, in the caller's unit.
fn exp_sample<R: Rng>(mean: f64, rng: &mut R) -> f64 {
    let u: f64 = rng.random::<f64>().max(1e-12);
    -u.ln() * mean
}

use rand::rngs::splitmix64;

/// Deterministic fraction in [0, 1) for hotspot corner `k`, dimension `d`.
fn corner_frac(k: u32, d: usize) -> f64 {
    let h = splitmix64((k as u64) << 8 | d as u64);
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Per-node MMPP phase state.
#[derive(Clone, Copy, Debug)]
struct Phase {
    /// Phase end time (ms); negative = not yet initialized.
    until: f64,
    /// Currently in the ON (burst) phase?
    on: bool,
}

impl Default for Phase {
    fn default() -> Self {
        Phase {
            until: -1.0,
            on: false,
        }
    }
}

/// The synthetic workload generator: every [`WorkloadSpec`] model backed by
/// one stateful sampler.
#[derive(Clone, Debug)]
pub struct SyntheticSource {
    spec: WorkloadSpec,
    lambda: f64,
    mean_arrival_ms: f64,
    mean_duration_s: f64,
    poisson: PoissonArrivals,
    caps: NodeCapacitySampler,
    /// Per-node MMPP phase, grown lazily by node index.
    phases: Vec<Phase>,
}

impl SyntheticSource {
    /// Build a source for `spec` with the scenario's base rates.
    ///
    /// # Panics
    /// Panics when `spec.validate()` fails or a base rate is non-positive
    /// (same contract as the paper samplers).
    pub fn new(spec: WorkloadSpec, lambda: f64, mean_arrival_s: f64, mean_duration_s: f64) -> Self {
        if let Err(e) = spec.validate() {
            panic!("invalid workload spec: {e}");
        }
        assert!(lambda > 0.0 && lambda <= 1.0, "λ must be in (0,1]");
        assert!(mean_duration_s > 0.0);
        SyntheticSource {
            spec,
            lambda,
            mean_arrival_ms: mean_arrival_s * 1000.0,
            mean_duration_s,
            poisson: PoissonArrivals::new(mean_arrival_s),
            caps: NodeCapacitySampler,
            phases: Vec::new(),
        }
    }

    /// The spec this source realizes.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    fn phase_mut(&mut self, node: NodeId) -> &mut Phase {
        let idx = node.idx();
        if idx >= self.phases.len() {
            self.phases.resize(idx + 1, Phase::default());
        }
        &mut self.phases[idx]
    }

    fn mmpp_delay(&mut self, node: NodeId, now: SimMillis, rng: &mut SmallRng) -> SimMillis {
        let ArrivalModel::Mmpp {
            on_factor,
            off_factor,
            cycle,
            on_frac,
        } = self.spec.arrival
        else {
            unreachable!("mmpp_delay called for a non-MMPP arrival model");
        };
        let base = self.mean_arrival_ms;
        let on_phase_ms = on_frac * cycle * base;
        let off_phase_ms = (1.0 - on_frac) * cycle * base;
        let mut cur = now as f64;
        let st = *self.phase_mut(node);
        let mut st = if st.until < 0.0 {
            // First call on this node: start in a random phase so 2000 nodes
            // do not burst in lockstep.
            let on = rng.random::<f64>() < on_frac;
            let mean = if on { on_phase_ms } else { off_phase_ms };
            Phase {
                until: cur + exp_sample(mean, rng),
                on,
            }
        } else {
            st
        };
        let delay = loop {
            if cur >= st.until {
                st.on = !st.on;
                let mean = if st.on { on_phase_ms } else { off_phase_ms };
                st.until = cur + exp_sample(mean, rng);
            }
            let mean = if st.on {
                on_factor * base
            } else {
                off_factor * base
            };
            let d = exp_sample(mean, rng);
            if cur + d <= st.until {
                break cur + d - now as f64;
            }
            // The phase flips before the candidate arrival: advance to the
            // boundary and resample (exponential memorylessness).
            cur = st.until;
        };
        *self.phase_mut(node) = st;
        (delay.round() as SimMillis).max(1)
    }

    fn diurnal_delay(
        &self,
        now: SimMillis,
        rng: &mut SmallRng,
        amplitude: f64,
        period_h: f64,
    ) -> SimMillis {
        // Lewis–Shedler thinning against the envelope rate (1+A)/mean.
        let base_rate = 1.0 / self.mean_arrival_ms;
        let rate_max = base_rate * (1.0 + amplitude);
        let period_ms = period_h * 3_600_000.0;
        let mut t = now as f64;
        loop {
            t += exp_sample(1.0 / rate_max, rng);
            let phase = core::f64::consts::TAU * (t / period_ms);
            let rate_t = base_rate * (1.0 + amplitude * phase.sin());
            if rng.random::<f64>() * rate_max <= rate_t {
                return ((t - now as f64).round() as SimMillis).max(1);
            }
        }
    }

    fn flash_delay(
        &self,
        now: SimMillis,
        rng: &mut SmallRng,
        at_h: f64,
        len_h: f64,
        factor: f64,
        every_h: f64,
    ) -> SimMillis {
        let at = at_h * 3_600_000.0;
        let len = len_h * 3_600_000.0;
        let every = every_h * 3_600_000.0;
        // Spike membership and the next rate-change boundary after `t`.
        let segment = |t: f64| -> (bool, f64) {
            if every > 0.0 {
                let since = t - at;
                if since < 0.0 {
                    return (false, at);
                }
                let into = since % every;
                if into < len {
                    (true, t + (len - into))
                } else {
                    (false, t + (every - into))
                }
            } else if t < at {
                (false, at)
            } else if t < at + len {
                (true, at + len)
            } else {
                (false, f64::INFINITY)
            }
        };
        let mut cur = now as f64;
        loop {
            let (spiking, boundary) = segment(cur);
            let mean = if spiking {
                self.mean_arrival_ms / factor
            } else {
                self.mean_arrival_ms
            };
            let d = exp_sample(mean, rng);
            if cur + d <= boundary {
                return ((cur + d - now as f64).round() as SimMillis).max(1);
            }
            // Rate changes before the candidate: restart from the boundary.
            cur = boundary;
        }
    }

    fn sample_demand(&self, rng: &mut SmallRng) -> ResVec {
        let mut e = ResVec::zeros(SOC_DIMS);
        match self.spec.demand {
            DemandModel::Uniform => {
                // Identical draw order to `DemandSampler::sample`.
                for d in 0..SOC_DIMS {
                    let lo = BASE[d] * self.lambda;
                    let hi = TOP[d] * self.lambda;
                    e[d] = rng.random_range(lo..=hi);
                }
            }
            DemandModel::Hotspot {
                corners,
                skew,
                width,
            } => {
                // Zipf popularity over the corner ranks.
                let total: f64 = (1..=corners).map(|k| 1.0 / (k as f64).powf(skew)).sum();
                let mut pick = rng.random::<f64>() * total;
                let mut corner = corners - 1;
                for k in 1..=corners {
                    let w = 1.0 / (k as f64).powf(skew);
                    if pick < w {
                        corner = k - 1;
                        break;
                    }
                    pick -= w;
                }
                for d in 0..SOC_DIMS {
                    let lo = BASE[d] * self.lambda;
                    let hi = TOP[d] * self.lambda;
                    // Sub-box of relative `width` around the corner center,
                    // clamped inside [0,1].
                    let center = corner_frac(corner, d);
                    let lo_f = (center - width / 2.0).clamp(0.0, 1.0 - width);
                    let frac = lo_f + rng.random::<f64>() * width;
                    e[d] = lo + frac * (hi - lo);
                }
            }
        }
        e
    }

    fn sample_duration(&self, rng: &mut SmallRng) -> f64 {
        match self.spec.duration {
            DurationModel::Exponential => exp_sample(self.mean_duration_s, rng).min(MAX_DURATION_S),
            DurationModel::Pareto { alpha } => {
                // Inverse CDF with x_m chosen so E[x] = mean.
                let xm = self.mean_duration_s * (alpha - 1.0) / alpha;
                let u: f64 = rng.random::<f64>().max(1e-12);
                (xm * u.powf(-1.0 / alpha)).min(MAX_DURATION_S)
            }
        }
    }
}

impl WorkloadSource for SyntheticSource {
    fn node_capacity(&mut self, rng: &mut SmallRng) -> ResVec {
        match self.spec.nodes {
            NodeModel::Paper => self.caps.sample(rng),
            NodeModel::Classes { big_frac } => {
                let big = rng.random::<f64>() < big_frac;
                self.caps.sample_half(rng, big)
            }
        }
    }

    fn next_delay(&mut self, node: NodeId, now: SimMillis, rng: &mut SmallRng) -> SimMillis {
        match self.spec.arrival {
            ArrivalModel::Poisson => self.poisson.next_delay(rng),
            ArrivalModel::Mmpp { .. } => self.mmpp_delay(node, now, rng),
            ArrivalModel::Diurnal {
                amplitude,
                period_h,
            } => self.diurnal_delay(now, rng, amplitude, period_h),
            ArrivalModel::FlashCrowd {
                at_h,
                len_h,
                factor,
                every_h,
            } => self.flash_delay(now, rng, at_h, len_h, factor, every_h),
        }
    }

    fn next_task(&mut self, _node: NodeId, _now: SimMillis, rng: &mut SmallRng) -> TaskSpec {
        let expect = self.sample_demand(rng);
        let duration_s = self.sample_duration(rng);
        TaskSpec { expect, duration_s }
    }

    fn note_churn(&mut self, _now: SimMillis, _left: Option<NodeId>, joined: Option<NodeId>) {
        // Churn recycles NodeIds: the joiner is a fresh machine, so it must
        // not inherit the departed node's MMPP burst phase — reset the slot
        // and let the next `next_delay` draw a fresh random phase.
        if let Some(node) = joined {
            if let Some(p) = self.phases.get_mut(node.idx()) {
                *p = Phase::default();
            }
        }
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "unit tests seed a local RNG; no simulation stream is involved"
)]
mod tests {
    use super::*;
    use crate::DemandSampler;
    use rand::SeedableRng;

    fn src(spec: WorkloadSpec) -> SyntheticSource {
        SyntheticSource::new(spec, 0.5, 1200.0, 1200.0)
    }

    fn rng(seed: u64) -> SmallRng {
        SmallRng::seed_from_u64(seed)
    }

    #[test]
    fn paper_path_matches_legacy_samplers_bitwise() {
        // The default spec must consume the RNG exactly like the original
        // PoissonArrivals + DemandSampler pair, so switching the runner to
        // the source boundary leaves paper-workload runs untouched.
        let mut s = src(WorkloadSpec::default());
        let mut a = rng(99);
        let mut b = rng(99);
        let poisson = PoissonArrivals::new(1200.0);
        let demand = DemandSampler::with_mean_duration(0.5, 1200.0);
        for i in 0..200 {
            let d1 = s.next_delay(NodeId(0), i * 1000, &mut a);
            let d2 = poisson.next_delay(&mut b);
            assert_eq!(d1, d2, "delay draw {i} diverged");
            let t1 = s.next_task(NodeId(0), i * 1000, &mut a);
            let t2 = demand.sample(&mut b);
            assert_eq!(t1.expect, t2.expect, "demand draw {i} diverged");
            assert!((t1.duration_s - t2.duration_s).abs() < 1e-12);
        }
    }

    #[test]
    fn mmpp_is_burstier_than_poisson() {
        // Squared coefficient of variation of inter-arrivals: 1 for
        // exponential, > 1 for the on-off modulated process.
        let spec = WorkloadSpec {
            arrival: ArrivalModel::Mmpp {
                on_factor: 0.1,
                off_factor: 10.0,
                cycle: 8.0,
                on_frac: 0.25,
            },
            ..WorkloadSpec::default()
        };
        let mut s = src(spec);
        let mut r = rng(7);
        let mut now: SimMillis = 0;
        let xs: Vec<f64> = (0..20_000)
            .map(|_| {
                let d = s.next_delay(NodeId(3), now, &mut r);
                now += d;
                d as f64
            })
            .collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        let scv = var / (mean * mean);
        assert!(scv > 1.5, "MMPP SCV {scv} should exceed Poisson's 1.0");
    }

    #[test]
    fn diurnal_peak_outpaces_trough() {
        let spec = WorkloadSpec {
            arrival: ArrivalModel::Diurnal {
                amplitude: 0.9,
                period_h: 24.0,
            },
            ..WorkloadSpec::default()
        };
        let mut s = src(spec);
        let mut r = rng(11);
        // Count arrivals inside the peak quarter vs the trough quarter by
        // walking one long arrival chain over many days.
        let period = 24.0 * 3_600_000.0;
        let (mut peak, mut trough) = (0u32, 0u32);
        let mut now: SimMillis = 0;
        for _ in 0..30_000 {
            now += s.next_delay(NodeId(0), now, &mut r);
            let phase = (now as f64 % period) / period; // sin peaks at 0.25
            if (0.125..0.375).contains(&phase) {
                peak += 1;
            } else if (0.625..0.875).contains(&phase) {
                trough += 1;
            }
        }
        assert!(
            peak as f64 > 2.0 * trough as f64,
            "peak {peak} vs trough {trough}"
        );
    }

    #[test]
    fn flash_crowd_spikes_are_denser() {
        let spec = WorkloadSpec {
            arrival: ArrivalModel::FlashCrowd {
                at_h: 1.0,
                len_h: 1.0,
                factor: 10.0,
                every_h: 4.0,
            },
            ..WorkloadSpec::default()
        };
        let mut s = src(spec);
        let mut r = rng(13);
        let every = 4.0 * 3_600_000.0;
        let at = 3_600_000.0;
        let len = 3_600_000.0;
        let (mut inside, mut outside) = (0u32, 0u32);
        let mut now: SimMillis = 0;
        for _ in 0..20_000 {
            now += s.next_delay(NodeId(0), now, &mut r);
            let since = now as f64 - at;
            if since >= 0.0 && since % every < len {
                inside += 1;
            } else {
                outside += 1;
            }
        }
        // Spikes cover 1/4 of the time at 10x the rate: expect the clear
        // majority of arrivals inside.
        assert!(inside > 2 * outside, "inside {inside} vs outside {outside}");
    }

    #[test]
    fn pareto_durations_preserve_mean_and_fatten_tail() {
        let spec = WorkloadSpec {
            duration: DurationModel::Pareto { alpha: 2.0 },
            ..WorkloadSpec::default()
        };
        let mut s = src(spec);
        let mut exp_s = src(WorkloadSpec::default());
        let mut r = rng(17);
        let mut r2 = rng(18);
        let n = 40_000;
        let pareto: Vec<f64> = (0..n)
            .map(|_| s.next_task(NodeId(0), 0, &mut r).duration_s)
            .collect();
        let expo: Vec<f64> = (0..n)
            .map(|_| exp_s.next_task(NodeId(0), 0, &mut r2).duration_s)
            .collect();
        let mean = pareto.iter().sum::<f64>() / n as f64;
        assert!(
            (mean - 1200.0).abs() / 1200.0 < 0.1,
            "Pareto mean {mean} drifted from 1200"
        );
        // Heavy tail: far more mass beyond 8x the mean than exponential.
        let tail = |xs: &[f64]| xs.iter().filter(|&&x| x > 8.0 * 1200.0).count();
        assert!(
            tail(&pareto) > 2 * tail(&expo).max(1),
            "tail {} vs {}",
            tail(&pareto),
            tail(&expo)
        );
        // Every sample respects the Pareto minimum x_m = mean/2.
        assert!(pareto.iter().all(|&x| x >= 600.0 - 1e-9));
    }

    #[test]
    fn hotspot_demands_cluster_with_zipf_popularity() {
        let spec = WorkloadSpec {
            demand: DemandModel::Hotspot {
                corners: 4,
                skew: 1.0,
                width: 0.05,
            },
            ..WorkloadSpec::default()
        };
        let mut s = src(spec);
        let mut r = rng(23);
        // Classify each sample by nearest corner on dimension 0.
        let lo = BASE[0] * 0.5;
        let hi = TOP[0] * 0.5;
        let mut counts = [0u32; 4];
        for _ in 0..8_000 {
            let t = s.next_task(NodeId(0), 0, &mut r);
            let frac = (t.expect[0] - lo) / (hi - lo);
            let mut best = 0;
            let mut best_d = f64::INFINITY;
            for k in 0..4 {
                let d = (frac - corner_frac(k, 0)).abs();
                if d < best_d {
                    best_d = d;
                    best = k as usize;
                }
            }
            assert!(best_d <= 0.051, "sample strayed from every corner");
            counts[best] += 1;
        }
        // Zipf rank 1 must dominate rank 4 decisively.
        assert!(
            counts[0] > 2 * counts[3].max(1),
            "corner counts {counts:?} not Zipf-skewed"
        );
        // All four hotspots are live.
        assert!(counts.iter().all(|&c| c > 0), "dead hotspot: {counts:?}");
    }

    #[test]
    fn classes_split_capacity_distribution() {
        let spec = WorkloadSpec {
            nodes: NodeModel::Classes { big_frac: 0.3 },
            ..WorkloadSpec::default()
        };
        let mut s = src(spec);
        let mut r = rng(29);
        let cm = crate::nodes::cmax();
        let caps: Vec<ResVec> = (0..2000).map(|_| s.node_capacity(&mut r)).collect();
        // Bimodal memory: every node is in the bottom {512,1024} or top
        // {2048,4096} pair, and both classes appear near the 30/70 split.
        let big = caps.iter().filter(|c| c[4] >= 2048.0).count();
        assert!((500..700).contains(&big), "big-class count {big}");
        for c in &caps {
            assert!(cm.dominates(c), "class sample exceeds cmax");
            assert!(c.all_positive());
        }
    }

    #[test]
    fn churn_join_resets_mmpp_phase() {
        let spec = WorkloadSpec {
            arrival: ArrivalModel::Mmpp {
                on_factor: 0.2,
                off_factor: 8.0,
                cycle: 4.0,
                on_frac: 0.25,
            },
            ..WorkloadSpec::default()
        };
        let mut s = src(spec);
        let mut r = rng(41);
        // Establish phase state for node 5, then recycle the id via churn.
        let _ = s.next_delay(NodeId(5), 0, &mut r);
        assert!(s.phases[5].until >= 0.0, "phase should be initialized");
        s.note_churn(10_000, Some(NodeId(2)), Some(NodeId(5)));
        assert!(
            s.phases[5].until < 0.0,
            "a fresh machine must not inherit the departed node's burst phase"
        );
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        for spec in [
            WorkloadSpec::default(),
            WorkloadSpec {
                arrival: ArrivalModel::Mmpp {
                    on_factor: 0.2,
                    off_factor: 6.0,
                    cycle: 4.0,
                    on_frac: 0.3,
                },
                duration: DurationModel::Pareto { alpha: 1.5 },
                demand: DemandModel::Hotspot {
                    corners: 3,
                    skew: 1.2,
                    width: 0.1,
                },
                nodes: NodeModel::Classes { big_frac: 0.25 },
            },
        ] {
            let mut s1 = src(spec);
            let mut s2 = src(spec);
            let mut r1 = rng(31);
            let mut r2 = rng(31);
            let mut now = 0;
            for _ in 0..500 {
                assert_eq!(s1.node_capacity(&mut r1), s2.node_capacity(&mut r2));
                let d1 = s1.next_delay(NodeId(1), now, &mut r1);
                let d2 = s2.next_delay(NodeId(1), now, &mut r2);
                assert_eq!(d1, d2);
                now += d1;
                let t1 = s1.next_task(NodeId(1), now, &mut r1);
                let t2 = s2.next_task(NodeId(1), now, &mut r2);
                assert_eq!(t1.expect, t2.expect);
                assert!((t1.duration_s - t2.duration_s).abs() < 1e-12);
            }
        }
    }
}
