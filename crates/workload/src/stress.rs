//! Adversarial stress workloads: synthetic traffic shaped to attack the
//! power-management machinery rather than to model an application.
//!
//! The catalog workloads ([`crate::catalog`]) are calibrated to the
//! paper's published characteristics, which means the policies are only
//! ever evaluated on traffic they were designed around. Each
//! [`StressSpec`] instead targets one specific mechanism weakness:
//!
//! * [`StressPattern::PhaseShift`] — hot/cold traffic windows the length
//!   of one management epoch, phase-shifted by half an epoch, so every
//!   epoch the controller measures straddles a hot→cold flip and its
//!   per-epoch utilization estimate mispredicts the next epoch.
//! * [`StressPattern::WakeChainStorm`] — long quiet gaps (past every ROO
//!   idleness threshold, so all managed links power off) punctuated by
//!   back-to-back round-robin sweeps touching *every* module, forcing a
//!   wake chain down each route at once.
//! * [`StressPattern::AllLinksHot`] — alternating one saturating epoch of
//!   flit-pace round-robin traffic with one silent epoch (links power
//!   down, the AMS rescue pool refills), so each burst front needs every
//!   link hot at once and the concentrated wake stalls drain the pool.
//! * [`StressPattern::DutyFlip`] — the workload is ON for exactly one
//!   management epoch and silent for the next, toggling precisely at
//!   epoch multiples (the controller's evaluation boundary; in this
//!   codebase `eval_period` is the whole run, so the 100 µs management
//!   epoch is the boundary that matters).
//!
//! Stress workloads are first-class citizens of the configuration layer:
//! `SimConfig::builder().workload("adv.wakestorm")` resolves here after
//! the paper catalog misses, and the engine swaps the synthetic
//! [`RequestGenerator`](crate::RequestGenerator) for a [`StressGenerator`]
//! transparently — reports, audits and result caching are unchanged.

use memnet_simcore::{SimDuration, SimTime, SplitMix64};

use crate::gen::MemoryRequest;
use crate::spec::{WorkloadClass, WorkloadSpec};

/// Stream salt separating stress-generator randomness from every other
/// consumer of the base seed. The synthetic
/// [`RequestGenerator`](crate::RequestGenerator) forks raw streams 0/1/2
/// straight off the seed; before this salt existed the stress generator
/// did the same, so a stress run and a synthetic run under one seed drew
/// *identical* address/time/kind randomness — and `fork(0)` is the
/// parent stream itself (XOR with 0 is the identity), colliding with any
/// direct consumer of the seed. Forking through this salt first gives
/// stress traffic its own stream family for every replica seed.
pub const STRESS_STREAM_SALT: u64 = 0x57E5_50A7;

/// Quiet gap between wake-chain storms: comfortably past the largest ROO
/// idleness threshold (2048 ns), so every managed link is off when the
/// sweep arrives.
pub const STORM_GAP: SimDuration = SimDuration::from_ps(4_000_000);

/// Spacing between the touches of one storm sweep (back-to-back at the
/// scale of a few flit times).
pub const SWEEP_STEP: SimDuration = SimDuration::from_ps(10_000);

/// Inter-arrival during an all-links-hot burst: five 0.64 ns flit times,
/// the pace of a fully loaded response link.
pub const BURST_STEP: SimDuration = SimDuration::from_ps(3_200);

/// The adversarial traffic shape a [`StressSpec`] generates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StressPattern {
    /// Hot/cold epochs phase-shifted half an epoch against the controller.
    PhaseShift,
    /// ROO wake-chain storms: idle past every threshold, then sweep all
    /// modules.
    WakeChainStorm,
    /// Silent epoch then saturating all-module burst, draining the AMS
    /// rescue pool.
    AllLinksHot,
    /// ON/OFF duty cycle toggling exactly at management-epoch multiples.
    DutyFlip,
}

/// One adversarial workload: a base [`WorkloadSpec`] (name, footprint and
/// rate anchor, so scaling/mapping/reporting work unchanged) plus the
/// pattern that replaces the two-state arrival process.
#[derive(Debug, Clone, PartialEq)]
pub struct StressSpec {
    /// Identity and sizing; `base.name` is the stress workload's name.
    pub base: WorkloadSpec,
    /// The traffic shape.
    pub pattern: StressPattern,
}

impl StressSpec {
    /// The stress workload's name ("adv.…").
    pub fn name(&self) -> &'static str {
        self.base.name
    }
}

// Uniform-CDF control points for the stress footprints. `cdf_points` is
// `&'static`, so each footprint needs its own constant.
static CDF_8: &[(f64, f64)] = &[(0.0, 0.0), (8.0, 1.0)];
static CDF_12: &[(f64, f64)] = &[(0.0, 0.0), (12.0, 1.0)];
static CDF_16: &[(f64, f64)] = &[(0.0, 0.0), (16.0, 1.0)];

const fn base(
    name: &'static str,
    footprint_gb: u64,
    cdf: &'static [(f64, f64)],
    util: f64,
) -> WorkloadSpec {
    WorkloadSpec {
        name,
        class: WorkloadClass::Cloud,
        footprint_gb,
        channel_utilization: util,
        read_fraction: 2.0 / 3.0,
        cdf_points: cdf,
        // The pattern owns the time structure; the base duty cycle is
        // always-on (exercising the on_fraction == 1.0 "no OFF periods"
        // contract of the plain generator, should one ever run the base).
        on_fraction: 1.0,
        burst_mean: SimDuration::from_us(2),
    }
}

static STRESS: [StressSpec; 4] = [
    StressSpec { base: base("adv.phase", 12, CDF_12, 0.50), pattern: StressPattern::PhaseShift },
    StressSpec {
        base: base("adv.wakestorm", 16, CDF_16, 0.20),
        pattern: StressPattern::WakeChainStorm,
    },
    StressSpec {
        base: base("adv.hotburst", 12, CDF_12, 0.60),
        pattern: StressPattern::AllLinksHot,
    },
    StressSpec { base: base("adv.flip", 8, CDF_8, 0.40), pattern: StressPattern::DutyFlip },
];

/// All stress workloads, in catalog order.
pub fn all() -> &'static [StressSpec] {
    &STRESS
}

/// Looks up one stress workload by name.
pub fn by_name(name: &str) -> Option<StressSpec> {
    STRESS.iter().find(|s| s.base.name == name).cloned()
}

/// The stress workload names in catalog order.
pub fn names() -> Vec<&'static str> {
    STRESS.iter().map(|s| s.base.name).collect()
}

/// The network parameters a stress pattern aims at. Taken from the run's
/// configuration so the attack tracks the actual epoch length and module
/// count instead of hard-coding the defaults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StressEnv {
    /// Management epoch length (phase windows and duty flips align to it).
    pub epoch: SimDuration,
    /// Modules in the network (round-robin sweep width).
    pub n_modules: usize,
    /// Lines of physical space mapped to each module chunk.
    pub chunk_lines: u64,
}

/// Deterministic request stream for one [`StressSpec`].
///
/// Mirrors [`RequestGenerator`](crate::RequestGenerator)'s construction
/// discipline — the root forks into address (0), time (1) and kind (2)
/// streams, requests are produced in non-decreasing schedule order, and
/// equal seeds reproduce the stream exactly — except that the root is
/// first forked through [`STRESS_STREAM_SALT`], so stress streams never
/// coincide with the synthetic generator's under a shared seed.
#[derive(Debug, Clone)]
pub struct StressGenerator {
    spec: StressSpec,
    env: StressEnv,
    addr_rng: SplitMix64,
    time_rng: SplitMix64,
    kind_rng: SplitMix64,
    clock: SimTime,
    seq: u64,
    mean_ia_ps: f64,
    total_lines: u64,
}

impl StressGenerator {
    /// Creates a generator for `spec` attacking a network shaped like
    /// `env`, seeded deterministically from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the base spec is invalid or `env` is degenerate.
    pub fn new(spec: StressSpec, env: StressEnv, seed: SplitMix64) -> Self {
        spec.base.validate().expect("invalid stress base spec");
        assert!(!env.epoch.is_zero(), "stress env needs a positive epoch");
        assert!(env.n_modules > 0, "stress env needs at least one module");
        assert!(env.chunk_lines > 0, "stress env needs a positive chunk size");
        let mean_ia_ps = spec.base.mean_interarrival().as_ps() as f64;
        let total_lines = spec.base.total_lines();
        let root = seed.fork(STRESS_STREAM_SALT);
        StressGenerator {
            addr_rng: root.fork(0),
            time_rng: root.fork(1),
            kind_rng: root.fork(2),
            clock: SimTime::ZERO,
            seq: 0,
            mean_ia_ps,
            total_lines,
            spec,
            env,
        }
    }

    /// The stress workload this generator attacks with.
    pub fn spec(&self) -> &StressSpec {
        &self.spec
    }

    /// A line inside module `m`'s chunk (the last chunk may be partial).
    fn line_in_module(&mut self, m: u64) -> u64 {
        let start = m * self.env.chunk_lines;
        let span = self.env.chunk_lines.min(self.total_lines.saturating_sub(start)).max(1);
        (start + self.addr_rng.next_below(span)).min(self.total_lines - 1)
    }

    /// A line anywhere in the footprint.
    fn line_anywhere(&mut self) -> u64 {
        self.addr_rng.next_below(self.total_lines)
    }

    /// Produces the next request in schedule order.
    pub fn next_request(&mut self) -> MemoryRequest {
        let epoch = self.env.epoch.as_ps();
        let n = self.env.n_modules as u64;
        let line_addr = match self.spec.pattern {
            StressPattern::PhaseShift => {
                // Gap drawn at the rate of the half-epoch-shifted window
                // the clock currently sits in: window index flips hot/cold
                // every `epoch`, offset by epoch/2 against the controller.
                let window = (self.clock.as_ps() + epoch / 2) / epoch;
                let mean = if window.is_multiple_of(2) {
                    self.mean_ia_ps / 4.0
                } else {
                    self.mean_ia_ps * 4.0
                };
                let gap = self.time_rng.next_exp(mean);
                self.clock += SimDuration::from_ps(gap as u64);
                // Hot windows spray all modules; cold windows huddle on
                // module 0, so consolidation flips against the estimate.
                let window = (self.clock.as_ps() + epoch / 2) / epoch;
                if window.is_multiple_of(2) {
                    self.line_in_module(self.seq % n)
                } else {
                    self.line_in_module(0)
                }
            }
            StressPattern::WakeChainStorm => {
                // One quiet gap per sweep, then every module back-to-back.
                let pos = self.seq % n;
                if pos == 0 {
                    self.clock += STORM_GAP;
                } else {
                    self.clock += SWEEP_STEP;
                }
                self.line_in_module(pos)
            }
            StressPattern::AllLinksHot => {
                // Bursts fill the even epochs at flit pace across all
                // modules; odd epochs are silent (links power off, the
                // rescue pool refills — then the next burst front hits
                // every link at once). Burst-first so even a sub-epoch
                // run exercises the saturating phase.
                self.clock += BURST_STEP;
                let t = self.clock.as_ps();
                if (t / epoch) % 2 == 1 {
                    // Landed in a quiet epoch: jump to the next burst.
                    self.clock = SimTime::from_ps((t / epoch + 1) * epoch);
                }
                self.line_in_module(self.seq % n)
            }
            StressPattern::DutyFlip => {
                let gap = self.time_rng.next_exp(self.mean_ia_ps);
                self.clock += SimDuration::from_ps(gap as u64);
                let ep = self.clock.as_ps() / epoch;
                if ep % 2 == 1 {
                    // Odd epochs are silent: resume exactly on the next
                    // even epoch boundary.
                    self.clock = SimTime::from_ps((ep + 1) * epoch);
                }
                self.line_anywhere()
            }
        };
        self.seq += 1;
        MemoryRequest {
            ready_at: self.clock,
            line_addr,
            is_read: self.kind_rng.next_bool(self.spec.base.read_fraction),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env() -> StressEnv {
        StressEnv {
            epoch: SimDuration::from_us(100),
            n_modules: 4,
            chunk_lines: 4 * (1 << 30) / 64,
        }
    }

    fn generate(name: &str, n: usize, seed: u64) -> Vec<MemoryRequest> {
        let spec = by_name(name).unwrap();
        let mut g = StressGenerator::new(spec, env(), SplitMix64::new(seed));
        (0..n).map(|_| g.next_request()).collect()
    }

    #[test]
    fn catalog_has_four_valid_specs_with_distinct_names() {
        let specs = all();
        assert_eq!(specs.len(), 4);
        for s in specs {
            s.base.validate().unwrap_or_else(|e| panic!("{e}"));
            assert!(s.name().starts_with("adv."), "{}", s.name());
        }
        assert_eq!(names().len(), 4);
        assert!(by_name("adv.wakestorm").is_some());
        assert!(by_name("mixB").is_none(), "paper workloads are not stress workloads");
    }

    #[test]
    fn every_pattern_is_monotone_deterministic_and_in_range() {
        for name in names() {
            let spec = by_name(name).unwrap();
            let lines = spec.base.total_lines();
            let a = generate(name, 5_000, 11);
            let b = generate(name, 5_000, 11);
            assert_eq!(a, b, "{name} must be deterministic");
            let mut prev = SimTime::ZERO;
            for r in &a {
                assert!(r.ready_at >= prev, "{name} schedule goes backwards");
                assert!(r.line_addr < lines, "{name} address out of footprint");
                prev = r.ready_at;
            }
            let c = generate(name, 100, 12);
            assert_ne!(a[..100], c[..], "{name} must vary with the seed");
        }
    }

    #[test]
    fn wakestorm_sweeps_touch_every_module() {
        let reqs = generate("adv.wakestorm", 64, 5);
        let chunk = env().chunk_lines;
        for m in 0..env().n_modules as u64 {
            assert!(
                reqs.iter().any(|r| r.line_addr / chunk == m),
                "module {m} never touched by the storm"
            );
        }
        // Each sweep opens with the long quiet gap and then packs the
        // remaining touches tightly.
        let gaps: Vec<u64> =
            reqs.windows(2).map(|w| (w[1].ready_at - w[0].ready_at).as_ps()).collect();
        assert!(gaps.iter().any(|&g| g >= STORM_GAP.as_ps()), "no inter-storm quiet gap");
        assert!(gaps.iter().any(|&g| g <= SWEEP_STEP.as_ps()), "no tight in-sweep spacing");
    }

    #[test]
    fn duty_flip_is_silent_on_odd_epochs() {
        let e = env().epoch.as_ps();
        for r in generate("adv.flip", 20_000, 3) {
            let within = r.ready_at.as_ps() % (2 * e);
            assert!(
                within < e || within.is_multiple_of(e),
                "arrival {} ps lands inside a silent epoch",
                r.ready_at.as_ps()
            );
        }
    }

    #[test]
    fn hotburst_leaves_quiet_epochs_empty() {
        let e = env().epoch.as_ps();
        let reqs = generate("adv.hotburst", 20_000, 7);
        for r in &reqs {
            let t = r.ready_at.as_ps();
            assert!((t / e).is_multiple_of(2), "arrival at {t} ps inside a quiet epoch");
        }
        // Burst pace is flit-scale.
        let tight =
            reqs.windows(2).filter(|w| (w[1].ready_at - w[0].ready_at) <= BURST_STEP).count();
        assert!(tight > reqs.len() / 2, "burst is not saturating: {tight} tight gaps");
    }

    #[test]
    fn phase_shift_alternates_rates_across_windows() {
        let e = env().epoch.as_ps();
        let reqs = generate("adv.phase", 50_000, 9);
        // Count arrivals per half-shifted window; hot windows must hold
        // far more than cold ones.
        let mut per_window = std::collections::HashMap::new();
        for r in &reqs {
            *per_window.entry((r.ready_at.as_ps() + e / 2) / e).or_insert(0u64) += 1;
        }
        let hot: Vec<u64> =
            per_window.iter().filter(|(w, _)| *w % 2 == 0).map(|(_, &c)| c).collect();
        let cold: Vec<u64> =
            per_window.iter().filter(|(w, _)| *w % 2 == 1).map(|(_, &c)| c).collect();
        assert!(!hot.is_empty() && !cold.is_empty(), "both phases must appear");
        let hot_avg = hot.iter().sum::<u64>() as f64 / hot.len() as f64;
        let cold_avg = cold.iter().sum::<u64>() as f64 / cold.len() as f64;
        assert!(hot_avg > 4.0 * cold_avg, "hot {hot_avg:.0} vs cold {cold_avg:.0}");
    }

    #[test]
    fn partial_last_chunk_stays_in_footprint() {
        // 16 GB over 3 modules of 4 GB covers only 12: force the partial-
        // chunk clamp by shrinking the network below the footprint.
        let spec = by_name("adv.wakestorm").unwrap();
        let lines = spec.base.total_lines();
        let tight = StressEnv { n_modules: 5, ..env() };
        let mut g = StressGenerator::new(spec, tight, SplitMix64::new(1));
        for _ in 0..1_000 {
            assert!(g.next_request().line_addr < lines);
        }
    }
}
