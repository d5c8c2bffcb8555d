//! Run reports: everything a paper figure needs from one simulation.

use memnet_net::mech::{BwMode, N_BW_MODES};
use memnet_net::{LinkId, TopologyKind};
use memnet_obs::ObsSection;
use memnet_power::{EnergyBackend, EnergyBreakdown};
use memnet_simcore::{AuditReport, SimDuration};
use serde::{Deserialize, Serialize};

/// Power summary over the evaluation window.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PowerSummary {
    /// Total joules by Figure 5 category.
    pub energy: EnergyBreakdown,
    /// Evaluation window length.
    pub window: SimDuration,
    /// Number of modules.
    pub n_hmcs: usize,
}

impl PowerSummary {
    /// Average network power, watts.
    pub fn watts(&self) -> f64 {
        self.energy.watts(self.window)
    }

    /// Average power per module, watts (Figure 5/11's y-axis).
    pub fn watts_per_hmc(&self) -> f64 {
        self.energy.watts_per_hmc(self.window, self.n_hmcs)
    }

    /// Per-category average watts per module, Figure 5 order with
    /// retransmission I/O appended last. A degenerate report with zero
    /// modules reads as all-zero, matching [`Self::watts_per_hmc`]
    /// (previously this path divided by `max(1)` and silently reported
    /// network-total watts as "per HMC").
    pub fn watts_per_hmc_by_category(&self) -> [f64; 7] {
        if self.n_hmcs == 0 {
            return [0.0; 7];
        }
        let mut cats = self.energy.watts_by_category(self.window);
        for c in &mut cats {
            *c /= self.n_hmcs as f64;
        }
        cats
    }

    /// Idle I/O energy over total energy (Figure 8's y-axis).
    pub fn idle_io_fraction(&self) -> f64 {
        self.energy.idle_io_fraction()
    }

    /// I/O energy (idle + active) over total energy.
    pub fn io_fraction(&self) -> f64 {
        self.energy.io_fraction()
    }
}

/// Per-link telemetry (Figure 13's link-hours raw data).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LinkTelemetry {
    /// Which link.
    pub link: LinkId,
    /// Fraction of the window spent transmitting.
    pub utilization: f64,
    /// Time on (idle + active) per bandwidth mode, indexed by
    /// [`memnet_net::mech::BwMode::index`].
    pub mode_time: [SimDuration; N_BW_MODES],
    /// Time powered off.
    pub off_time: SimDuration,
    /// Time spent waking.
    pub waking_time: SimDuration,
    /// Wakeups performed.
    pub wake_count: u64,
    /// Time spent replaying CRC-corrupted packets from the retry buffer,
    /// per bandwidth mode (all zero in fault-free runs).
    pub retrans_time: [SimDuration; N_BW_MODES],
    /// Flits re-serialized by retry replays.
    pub retrans_flits: u64,
    /// Retry replays performed.
    pub retransmissions: u64,
}

/// Fault and resilience outcomes of one run (all zero without an active
/// fault scenario).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultSummary {
    /// Retry replays performed across all links.
    pub retries: u64,
    /// Flits re-serialized by those replays.
    pub retransmitted_flits: u64,
    /// I/O joules spent on retransmission (the report's
    /// `energy.retrans_io`, surfaced here for the fault section).
    pub retransmission_energy: f64,
    /// ROO wakes that missed their training window and retrained.
    pub wake_timeouts: u64,
    /// Accesses aborted because their destination module was unreachable.
    pub aborted_accesses: u64,
    /// Modules re-attached over spare ports after hard link failures.
    pub rerouted_modules: usize,
    /// Modules left unreachable after route-around.
    pub unreachable_modules: usize,
}

/// The complete result of one simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunReport {
    /// Workload name.
    pub workload: &'static str,
    /// Topology simulated.
    pub topology: TopologyKind,
    /// "small" or "big".
    pub scale: &'static str,
    /// Policy label.
    pub policy: &'static str,
    /// Mechanism label.
    pub mechanism: &'static str,
    /// α used.
    pub alpha: f64,
    /// Power summary.
    pub power: PowerSummary,
    /// Processor-channel utilization (busier direction of the root edge).
    pub channel_utilization: f64,
    /// Mean utilization over all links (Figure 9's dotted series).
    pub link_utilization: f64,
    /// Mean modules traversed per memory access (Figure 6).
    pub avg_modules_traversed: f64,
    /// Reads completed in the window.
    pub completed_reads: u64,
    /// Writes retired in the window.
    pub retired_writes: u64,
    /// Accesses injected (reads + writes).
    pub injected_accesses: u64,
    /// Mean read latency, nanoseconds.
    pub mean_read_latency_ns: f64,
    /// Maximum read latency, nanoseconds.
    pub max_read_latency_ns: f64,
    /// Aggregate throughput: completed accesses per microsecond — the
    /// performance metric for degradation comparisons.
    pub accesses_per_us: f64,
    /// Management epochs completed.
    pub epochs: u64,
    /// AMS violations (forced full-power transitions).
    pub violations: u64,
    /// Discrete events the engine processed (simulator-throughput
    /// denominator for the benchmark's per-event costs; identical across
    /// runs with the same configuration by determinism).
    pub events_processed: u64,
    /// Runtime invariant-audit results (empty at `AuditLevel::Off`).
    pub audit: AuditReport,
    /// Fault-injection outcomes (all zero without a fault scenario).
    pub faults: FaultSummary,
    /// Per-link detail.
    pub links: Vec<LinkTelemetry>,
    /// Time-series observability section (`None` unless `cfg.obs` enabled
    /// sampling or tracing — disabled runs serialize this as `null` and
    /// stay bit-identical to builds without the subsystem).
    pub obs: Option<ObsSection>,
}

/// Relative change `1 − ours/baseline`, guarded against degenerate
/// baselines: a zero or non-finite denominator (or a non-finite
/// numerator) yields 0.0 rather than ±∞/NaN, so a broken baseline run
/// reads as "no change" instead of poisoning every downstream figure.
fn relative_reduction(ours: f64, baseline: f64) -> f64 {
    if baseline == 0.0 || !baseline.is_finite() || !ours.is_finite() {
        0.0
    } else {
        1.0 - ours / baseline
    }
}

impl RunReport {
    /// Performance degradation of `self` versus a baseline run, as a
    /// fraction (0.03 = 3 % slower). Negative values mean `self` was
    /// faster. Returns 0.0 for degenerate (zero or non-finite) baselines.
    pub fn degradation_vs(&self, baseline: &RunReport) -> f64 {
        relative_reduction(self.accesses_per_us, baseline.accesses_per_us)
    }

    /// Network-wide power reduction of `self` versus a baseline run, as a
    /// fraction (0.25 = 25 % less power). Returns 0.0 for degenerate
    /// (zero or non-finite) baselines.
    pub fn power_reduction_vs(&self, baseline: &RunReport) -> f64 {
        relative_reduction(self.power.watts(), baseline.power.watts())
    }

    /// Idle-I/O (plus active-I/O) power reduction versus a baseline.
    /// Returns 0.0 for degenerate (zero or non-finite) baselines.
    pub fn io_power_reduction_vs(&self, baseline: &RunReport) -> f64 {
        relative_reduction(self.power.energy.io_total(), baseline.power.energy.io_total())
    }

    /// Recomputes the run's total I/O energy from the per-link residency
    /// telemetry: every link's off/waking/per-mode times priced at the
    /// model's mode power fractions. The audit layer diffs this against
    /// the engine's accumulated [`EnergyBreakdown::io_total`] — a
    /// double-entry check that catches energy-bookkeeping bugs on either
    /// side. (Idle and active residency in a mode burn the same I/O
    /// power, so the merged `mode_time` suffices.) Takes the backend as a
    /// trait object so every energy model — analytical or IDD — is held
    /// to the same conservation law.
    pub fn expected_io_energy(&self, backend: &dyn EnergyBackend) -> f64 {
        self.links
            .iter()
            .map(|t| {
                let mut joules = backend.link_off_watts() * t.off_time.as_secs()
                    + backend.link_waking_watts() * t.waking_time.as_secs();
                for (i, mt) in t.mode_time.iter().enumerate() {
                    joules += backend.link_mode_watts(BwMode::from_index(i))
                        * (mt.as_secs() + t.retrans_time[i].as_secs());
                }
                joules
            })
            .sum()
    }

    /// Recomputes retransmission I/O energy alone from per-link
    /// retransmission residency (replay time priced at each mode's active
    /// power). The audit layer diffs this against the engine's
    /// [`EnergyBreakdown::retrans_io`] ledger — the double-entry
    /// conservation check for the fault subsystem's new energy category.
    pub fn expected_retrans_io_energy(&self, backend: &dyn EnergyBackend) -> f64 {
        self.links
            .iter()
            .map(|t| {
                t.retrans_time
                    .iter()
                    .enumerate()
                    .map(|(i, rt)| backend.link_mode_watts(BwMode::from_index(i)) * rt.as_secs())
                    .sum::<f64>()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memnet_power::HmcPowerModel;

    fn report(watts_scale: f64, throughput: f64) -> RunReport {
        let energy = EnergyBreakdown {
            idle_io: 6.0 * watts_scale,
            active_io: 1.0 * watts_scale,
            logic_leak: 1.0 * watts_scale,
            logic_dyn: 0.5 * watts_scale,
            dram_leak: 1.0 * watts_scale,
            dram_dyn: 0.5 * watts_scale,
            retrans_io: 0.0,
        };
        RunReport {
            workload: "test",
            topology: TopologyKind::DaisyChain,
            scale: "small",
            policy: "full power",
            mechanism: "FP",
            alpha: 0.05,
            power: PowerSummary { energy, window: SimDuration::from_ms(1), n_hmcs: 5 },
            channel_utilization: 0.5,
            link_utilization: 0.2,
            avg_modules_traversed: 2.5,
            completed_reads: 1000,
            retired_writes: 500,
            injected_accesses: 1500,
            mean_read_latency_ns: 80.0,
            max_read_latency_ns: 200.0,
            accesses_per_us: throughput,
            epochs: 10,
            violations: 0,
            events_processed: 12345,
            audit: AuditReport::default(),
            faults: FaultSummary::default(),
            links: Vec::new(),
            obs: None,
        }
    }

    #[test]
    fn degradation_is_relative_throughput_loss() {
        let base = report(1.0, 100.0);
        let slower = report(1.0, 97.0);
        assert!((slower.degradation_vs(&base) - 0.03).abs() < 1e-12);
        assert_eq!(base.degradation_vs(&base), 0.0);
    }

    #[test]
    fn power_reduction_is_relative_watts() {
        let base = report(1.0, 100.0);
        let saver = report(0.8, 100.0);
        assert!((saver.power_reduction_vs(&base) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn io_reduction_considers_only_io() {
        let base = report(1.0, 100.0);
        let mut saver = report(1.0, 100.0);
        saver.power.energy.idle_io = 3.5; // halve idle I/O only
        let expected = 1.0 - (3.5 + 1.0) / 7.0;
        assert!((saver.io_power_reduction_vs(&base) - expected).abs() < 1e-12);
    }

    #[test]
    fn zero_baselines_compare_as_no_change() {
        let zero = report(0.0, 0.0);
        let real = report(1.0, 100.0);
        assert_eq!(real.degradation_vs(&zero), 0.0);
        assert_eq!(real.power_reduction_vs(&zero), 0.0);
        assert_eq!(real.io_power_reduction_vs(&zero), 0.0);
        // A zero run against a real baseline is a valid 100 % reduction.
        assert_eq!(zero.power_reduction_vs(&real), 1.0);
    }

    #[test]
    fn non_finite_baselines_compare_as_no_change() {
        let real = report(1.0, 100.0);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut base = report(1.0, 100.0);
            base.accesses_per_us = bad;
            base.power.energy.idle_io = bad;
            assert_eq!(real.degradation_vs(&base), 0.0, "throughput baseline {bad}");
            assert_eq!(real.power_reduction_vs(&base), 0.0, "power baseline {bad}");
            assert_eq!(real.io_power_reduction_vs(&base), 0.0, "io baseline {bad}");
            // And a non-finite numerator never leaks NaN either.
            assert_eq!(base.degradation_vs(&real), 0.0);
            assert_eq!(base.power_reduction_vs(&real), 0.0);
        }
    }

    #[test]
    fn expected_io_energy_prices_telemetry() {
        use memnet_net::link::{state_on_active, state_on_idle};
        let model = HmcPowerModel::paper();
        let mut r = report(1.0, 100.0);
        // One link: 1 s idle at full width, 1 s off, 0.5 s waking.
        let mut mode_time = [SimDuration::ZERO; N_BW_MODES];
        mode_time[BwMode::FULL_VWL.index()] = SimDuration::from_ms(1000);
        r.links.push(LinkTelemetry {
            link: LinkId(0),
            utilization: 0.0,
            mode_time,
            off_time: SimDuration::from_ms(1000),
            waking_time: SimDuration::from_ms(500),
            wake_count: 1,
            retrans_time: [SimDuration::ZERO; N_BW_MODES],
            retrans_flits: 0,
            retransmissions: 0,
        });
        let w = model.io_watts_per_unilink();
        let expected = w + w * model.link_off_fraction + 0.5 * w;
        assert!((r.expected_io_energy(&model) - expected).abs() < 1e-9);
        // And it agrees with the power model's own snapshot pricing.
        let mut snap = vec![SimDuration::ZERO; memnet_net::link::N_ACCOUNTING_STATES];
        snap[state_on_idle(BwMode::FULL_VWL)] = SimDuration::from_ms(400);
        snap[state_on_active(BwMode::FULL_VWL)] = SimDuration::from_ms(600);
        snap[memnet_net::link::STATE_OFF] = SimDuration::from_ms(1000);
        snap[memnet_net::link::STATE_WAKING] = SimDuration::from_ms(500);
        assert!((model.link_energy(&snap).io_total() - expected).abs() < 1e-9);
    }

    #[test]
    fn expected_retrans_energy_prices_replay_residency() {
        let model = HmcPowerModel::paper();
        let mut r = report(1.0, 100.0);
        let mut retrans_time = [SimDuration::ZERO; N_BW_MODES];
        retrans_time[BwMode::FULL_VWL.index()] = SimDuration::from_ms(250);
        r.links.push(LinkTelemetry {
            link: LinkId(0),
            utilization: 0.0,
            mode_time: [SimDuration::ZERO; N_BW_MODES],
            off_time: SimDuration::ZERO,
            waking_time: SimDuration::ZERO,
            wake_count: 0,
            retrans_time,
            retrans_flits: 100,
            retransmissions: 20,
        });
        let w = model.io_watts_per_unilink();
        assert!((r.expected_retrans_io_energy(&model) - 0.25 * w).abs() < 1e-12);
        // Replay residency counts toward the total I/O expectation too.
        assert!((r.expected_io_energy(&model) - 0.25 * w).abs() < 1e-12);
        // No replays → zero expectation (the audit check is vacuous but
        // still runs on fault-free runs).
        assert_eq!(report(1.0, 100.0).expected_retrans_io_energy(&model), 0.0);
    }

    #[test]
    fn zero_hmcs_never_divide_to_non_finite() {
        // Regression guard for the per-HMC averaging paths: a degenerate
        // report with zero modules must read as zero watts, not NaN/∞
        // (energy.watts_per_hmc guards n_hmcs == 0 explicitly and the
        // category path divides by max(1)). Both must agree.
        let mut r = report(1.0, 100.0);
        r.power.n_hmcs = 0;
        assert_eq!(r.power.watts_per_hmc(), 0.0);
        assert_eq!(r.power.watts_per_hmc_by_category(), [0.0; 7]);
        // A zero-length window is the other degenerate denominator.
        r.power.window = SimDuration::ZERO;
        assert_eq!(r.power.watts(), 0.0);
        assert_eq!(r.power.watts_per_hmc(), 0.0);
        assert_eq!(r.power.watts_per_hmc_by_category(), [0.0; 7]);
    }

    #[test]
    fn per_category_watts_divide_by_hmcs() {
        let r = report(1.0, 100.0);
        // 10 J over 1 ms over 5 HMCs = 2000 W per HMC total.
        assert!((r.power.watts_per_hmc() - 2000.0).abs() < 1e-9);
        let cats = r.power.watts_per_hmc_by_category();
        assert!((cats.iter().sum::<f64>() - 2000.0).abs() < 1e-9);
        assert!((r.power.idle_io_fraction() - 0.6).abs() < 1e-12);
    }
}
