//! Declarative workload configuration.
//!
//! A [`WorkloadSpec`] names *which* generator shapes a run's arrivals,
//! durations, demands and node capacities; the base rates (mean
//! inter-arrival, mean duration, demand ratio λ) always come from the
//! scenario, so every spec works unchanged at smoke and full scale. The
//! paper's §IV-A setup is [`WorkloadSpec::default`]: Poisson arrivals,
//! exponential durations, uniform Table II demands, Table I capacities.
//!
//! The non-paper generators cover the scenario axes the related work says
//! dominate real clouds: bursty on-off load (DEPAS, arxiv 1202.2509),
//! diurnal and flash-crowd rate swings, heavy-tailed task durations, and
//! Zipf-skewed demand hotspots (arxiv 1902.00795).

/// How task arrivals are spaced on each node. Every model's base mean
/// inter-arrival is the scenario's `mean_arrival_s`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ArrivalModel {
    /// The paper's per-node Poisson process.
    Poisson,
    /// Markov-modulated on-off Poisson (bursty load). Each node alternates
    /// exponentially-long ON and OFF phases; arrivals in an ON phase use
    /// mean `on_factor × mean_arrival_s` (< 1 ⇒ bursts), in an OFF phase
    /// `off_factor × mean_arrival_s` (> 1 ⇒ lulls). One full ON+OFF cycle
    /// averages `cycle × mean_arrival_s`, of which a fraction `on_frac` is
    /// spent ON.
    Mmpp {
        /// ON-phase inter-arrival mean as a multiple of the base (< 1).
        on_factor: f64,
        /// OFF-phase inter-arrival mean as a multiple of the base (> 1).
        off_factor: f64,
        /// Mean ON+OFF cycle length as a multiple of the base.
        cycle: f64,
        /// Fraction of a cycle spent in the ON phase, in (0, 1).
        on_frac: f64,
    },
    /// Sinusoidal diurnal rate: `rate(t) = base · (1 + amplitude·sin(2πt /
    /// period))`, sampled exactly via Lewis–Shedler thinning.
    Diurnal {
        /// Relative swing around the base rate, in [0, 1].
        amplitude: f64,
        /// Period in simulated hours (24 = a day).
        period_h: f64,
    },
    /// Flash crowd: the arrival rate multiplies by `factor` inside spike
    /// windows starting at `at_h` (repeating every `every_h` hours when
    /// `every_h > 0`), each `len_h` hours long.
    FlashCrowd {
        /// First spike start, simulated hours.
        at_h: f64,
        /// Spike length, simulated hours.
        len_h: f64,
        /// Rate multiplier inside a spike (> 1).
        factor: f64,
        /// Spike repetition period in hours; 0 = a single spike.
        every_h: f64,
    },
}

/// How task durations are drawn. The mean is always the scenario's
/// `mean_duration_s`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DurationModel {
    /// The paper's exponential durations.
    Exponential,
    /// Heavy-tailed Pareto durations via inverse-CDF: `x = x_m · u^{-1/α}`
    /// with `x_m = mean·(α−1)/α` so the mean is preserved. Requires
    /// `α > 1` (finite mean); smaller α ⇒ heavier tail.
    Pareto {
        /// Tail index α, > 1.
        alpha: f64,
    },
}

/// The most corners a [`DemandModel::Hotspot`] may have. A draw walks the
/// Zipf weights rank by rank, so its cost grows with the corner count.
pub const MAX_HOTSPOT_CORNERS: u32 = 1024;

/// How demand vectors are placed in the Table II box `[base·λ, top·λ]^d`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DemandModel {
    /// The paper's per-dimension uniform draw.
    Uniform,
    /// Zipf-skewed hotspots: demands cluster around `corners` fixed points
    /// of the demand box, point `k` chosen with probability ∝ `1/k^skew`.
    /// Each sample lands uniformly in a sub-box of relative `width` around
    /// its corner — concentrated multi-dimensional contention.
    Hotspot {
        /// Number of hotspot corners, in `1..=MAX_HOTSPOT_CORNERS`.
        corners: u32,
        /// Zipf exponent (0 = uniform popularity; ~1 = classic skew).
        skew: f64,
        /// Relative side length of each hotspot sub-box, in (0, 1].
        width: f64,
    },
}

/// How node capacity vectors are drawn.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum NodeModel {
    /// The paper's uniform Table I grid.
    Paper,
    /// Heterogeneous capacity classes: a fraction `big_frac` of nodes
    /// sample from the top half of every Table I dimension ("server
    /// class"), the rest from the bottom half ("edge class").
    Classes {
        /// Fraction of server-class nodes, in [0, 1].
        big_frac: f64,
    },
}

/// A full workload shape: one model per axis. `Copy`, so it travels inside
/// `Scenario` through the sweep engine unchanged.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WorkloadSpec {
    /// Arrival-spacing model.
    pub arrival: ArrivalModel,
    /// Duration model.
    pub duration: DurationModel,
    /// Demand-placement model.
    pub demand: DemandModel,
    /// Capacity model.
    pub nodes: NodeModel,
}

impl Default for WorkloadSpec {
    /// The paper's §IV-A workload.
    fn default() -> Self {
        WorkloadSpec {
            arrival: ArrivalModel::Poisson,
            duration: DurationModel::Exponential,
            demand: DemandModel::Uniform,
            nodes: NodeModel::Paper,
        }
    }
}

impl WorkloadSpec {
    /// Is this exactly the paper's workload?
    pub fn is_paper(&self) -> bool {
        *self == Self::default()
    }

    /// Short composite tag (`mmpp+pareto+hotspot+classes`); paper-default
    /// axes are omitted, the full default renders as `paper`.
    pub fn tag(&self) -> String {
        let mut parts: Vec<&str> = Vec::new();
        match self.arrival {
            ArrivalModel::Poisson => {}
            ArrivalModel::Mmpp { .. } => parts.push("mmpp"),
            ArrivalModel::Diurnal { .. } => parts.push("diurnal"),
            ArrivalModel::FlashCrowd { .. } => parts.push("flash"),
        }
        if let DurationModel::Pareto { .. } = self.duration {
            parts.push("pareto");
        }
        if let DemandModel::Hotspot { .. } = self.demand {
            parts.push("hotspot");
        }
        if let NodeModel::Classes { .. } = self.nodes {
            parts.push("classes");
        }
        if parts.is_empty() {
            "paper".to_string()
        } else {
            parts.join("+")
        }
    }

    /// Check every parameter is in its documented range; returns the first
    /// violation as a message (scenario files surface this to the user).
    pub fn validate(&self) -> Result<(), String> {
        match self.arrival {
            ArrivalModel::Poisson => {}
            ArrivalModel::Mmpp {
                on_factor,
                off_factor,
                cycle,
                on_frac,
            } => {
                if on_factor <= 0.0 || off_factor <= 0.0 || cycle <= 0.0 {
                    return Err("mmpp: on_factor, off_factor and cycle must be > 0".into());
                }
                if !(0.0..1.0).contains(&on_frac) || on_frac == 0.0 {
                    return Err("mmpp: on_frac must be in (0, 1)".into());
                }
            }
            ArrivalModel::Diurnal {
                amplitude,
                period_h,
            } => {
                if !(0.0..=1.0).contains(&amplitude) {
                    return Err("diurnal: amplitude must be in [0, 1]".into());
                }
                if period_h <= 0.0 {
                    return Err("diurnal: period_h must be > 0".into());
                }
            }
            ArrivalModel::FlashCrowd {
                at_h,
                len_h,
                factor,
                every_h,
            } => {
                if at_h < 0.0 || len_h <= 0.0 {
                    return Err("flash-crowd: at_h must be ≥ 0 and len_h > 0".into());
                }
                if factor < 1.0 {
                    return Err("flash-crowd: factor must be ≥ 1".into());
                }
                if every_h < 0.0 || (every_h > 0.0 && every_h < len_h) {
                    return Err("flash-crowd: every_h must be 0 or ≥ len_h".into());
                }
            }
        }
        if let DurationModel::Pareto { alpha } = self.duration {
            if alpha <= 1.0 {
                return Err("pareto: alpha must be > 1 (finite mean)".into());
            }
        }
        if let DemandModel::Hotspot {
            corners,
            skew,
            width,
        } = self.demand
        {
            if corners == 0 {
                return Err("hotspot: corners must be ≥ 1".into());
            }
            if corners > MAX_HOTSPOT_CORNERS {
                return Err(format!(
                    "hotspot: corners must be ≤ {MAX_HOTSPOT_CORNERS}, got {corners}"
                ));
            }
            if skew < 0.0 {
                return Err("hotspot: skew must be ≥ 0".into());
            }
            if width <= 0.0 || width > 1.0 {
                return Err("hotspot: width must be in (0, 1]".into());
            }
        }
        if let NodeModel::Classes { big_frac } = self.nodes {
            if !(0.0..=1.0).contains(&big_frac) {
                return Err("classes: big_frac must be in [0, 1]".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_paper() {
        let s = WorkloadSpec::default();
        assert!(s.is_paper());
        assert_eq!(s.tag(), "paper");
        assert!(s.validate().is_ok());
    }

    #[test]
    fn tags_compose() {
        let s = WorkloadSpec {
            arrival: ArrivalModel::Mmpp {
                on_factor: 0.3,
                off_factor: 8.0,
                cycle: 4.0,
                on_frac: 0.25,
            },
            duration: DurationModel::Pareto { alpha: 1.5 },
            demand: DemandModel::Uniform,
            nodes: NodeModel::Classes { big_frac: 0.2 },
        };
        assert_eq!(s.tag(), "mmpp+pareto+classes");
        assert!(!s.is_paper());
        assert!(s.validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_parameters() {
        let infinite_mean = WorkloadSpec {
            duration: DurationModel::Pareto { alpha: 1.0 },
            ..WorkloadSpec::default()
        };
        assert!(infinite_mean.validate().is_err());
        let no_corners = WorkloadSpec {
            demand: DemandModel::Hotspot {
                corners: 0,
                skew: 1.0,
                width: 0.2,
            },
            ..WorkloadSpec::default()
        };
        assert!(no_corners.validate().is_err());
        let corners = |corners| WorkloadSpec {
            demand: DemandModel::Hotspot {
                corners,
                skew: 1.0,
                width: 0.2,
            },
            ..WorkloadSpec::default()
        };
        assert!(corners(MAX_HOTSPOT_CORNERS).validate().is_ok());
        assert!(corners(MAX_HOTSPOT_CORNERS + 1).validate().is_err());
        let over_amplitude = WorkloadSpec {
            arrival: ArrivalModel::Diurnal {
                amplitude: 1.5,
                period_h: 24.0,
            },
            ..WorkloadSpec::default()
        };
        assert!(over_amplitude.validate().is_err());
    }
}
