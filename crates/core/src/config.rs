//! Simulation configuration and builder.

use std::error::Error;
use std::fmt;
use std::sync::Arc;

use memnet_dram::DramParams;
use memnet_faults::FaultConfig;
use memnet_net::mech::RooParams;
use memnet_net::TopologyKind;
use memnet_obs::ObsConfig;
use memnet_policy::{Mechanism, PolicyConfig, PolicyKind};
use memnet_power::{EnergyBackendKind, IddModel};
use memnet_simcore::{AuditLevel, SimDuration, SplitMix64};
use memnet_workload::{
    catalog, stress, RequestGenerator, RequestTrace, StressEnv, StressGenerator, StressSpec,
    TraceCursor, WorkloadSpec,
};
use serde::{Deserialize, Serialize};

use crate::engine::Engine;
use crate::frontend::TrafficSource;
use crate::metrics::RunReport;

/// The RNG seed of every run that neither sets one nor replays a trace
/// (a replay takes the trace's): the CLI, manifests, sweeps and the
/// figures all default to it.
pub const DEFAULT_SEED: u64 = 0xC0FFEE;

/// Which network-size study a run belongs to.
///
/// Small maps the *i*-th contiguous 4 GB of physical space to HMC *i*
/// (HMCs fully used); big maps the *i*-th contiguous 1 GB, producing a
/// network four times larger for the same footprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NetworkScale {
    /// 4 GB per HMC (the paper's small network study).
    Small,
    /// 1 GB per HMC (the paper's big network study).
    Big,
}

impl NetworkScale {
    /// Both scales, small first.
    pub const ALL: [NetworkScale; 2] = [NetworkScale::Small, NetworkScale::Big];

    /// GB of the physical address space mapped to each HMC.
    pub const fn chunk_gb(self) -> u64 {
        match self {
            NetworkScale::Small => 4,
            NetworkScale::Big => 1,
        }
    }

    /// Report label.
    pub fn label(self) -> &'static str {
        match self {
            NetworkScale::Small => "small",
            NetworkScale::Big => "big",
        }
    }

    /// Parses the CLI/manifest spellings (`small|big`).
    pub fn parse(s: &str) -> Option<NetworkScale> {
        match s {
            "small" => Some(NetworkScale::Small),
            "big" => Some(NetworkScale::Big),
            _ => None,
        }
    }
}

/// How physical lines map onto modules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AddressMapping {
    /// The *i*-th contiguous chunk goes to HMC *i* (the paper's default;
    /// consolidates accesses onto few modules so others can power down).
    Contiguous,
    /// 4 KB pages interleave round-robin over all modules (used with the
    /// §VII-A static selection comparison).
    PageInterleaved,
}

/// Which source feeds the engine front-end its request stream.
///
/// Resolved by the builder: catalog names yield [`TrafficSpec::Synthetic`],
/// `adv.*` stress names yield [`TrafficSpec::Stress`], and
/// [`SimConfigBuilder::replay`] yields [`TrafficSpec::Replay`]. All three
/// share the `MemoryRequest` injection path, so reports, audits and
/// caching behave identically.
#[derive(Debug, Clone)]
pub enum TrafficSpec {
    /// The calibrated two-state generator for [`SimConfig::workload`].
    Synthetic,
    /// An adversarial stress generator.
    Stress(StressSpec),
    /// Replay of a recorded request trace.
    Replay(Arc<RequestTrace>),
}

/// Error from [`SimConfigBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The requested workload name is not in the catalog.
    UnknownWorkload(String),
    /// α must be positive (and sensibly below 1).
    BadAlpha(String),
    /// The evaluation period must be positive.
    BadEvalPeriod,
    /// The fault scenario is malformed or names links/modules outside the
    /// network.
    BadFaults(String),
    /// The policy cannot manage links built with this mechanism.
    BadMechanism(String),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::UnknownWorkload(w) => {
                write!(
                    f,
                    "unknown workload {w:?}; valid names: {}, and stress workloads: {}",
                    catalog::names().join(", "),
                    stress::names().join(", ")
                )
            }
            ConfigError::BadAlpha(m) => write!(f, "invalid alpha: {m}"),
            ConfigError::BadEvalPeriod => f.write_str("evaluation period must be positive"),
            ConfigError::BadFaults(m) => write!(f, "invalid fault scenario: {m}"),
            ConfigError::BadMechanism(m) => write!(f, "invalid mechanism: {m}"),
        }
    }
}

impl Error for ConfigError {}

/// A complete, validated simulation configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The workload to run.
    pub workload: WorkloadSpec,
    /// Network shape.
    pub topology: TopologyKind,
    /// Small (4 GB/HMC) or big (1 GB/HMC) study.
    pub scale: NetworkScale,
    /// Management policy.
    pub policy: PolicyKind,
    /// Circuit-level link mechanism.
    pub mechanism: Mechanism,
    /// Allowable slowdown factor α.
    pub alpha: f64,
    /// Management epoch length.
    pub epoch: SimDuration,
    /// Cycle-accurate evaluation period.
    pub eval_period: SimDuration,
    /// ROO wakeup physics.
    pub roo_params: RooParams,
    /// Physical line → module mapping.
    pub mapping: AddressMapping,
    /// RNG seed (deterministic runs for equal seeds).
    pub seed: u64,
    /// Maximum outstanding reads at the processor (Table II ROB depth).
    pub max_outstanding_reads: usize,
    /// Processor-side write buffer entries.
    pub write_buffer: usize,
    /// DRAM timing parameters (Table I).
    pub dram: DramParams,
    /// Maximum ISP iterations for network-aware management (paper: 3).
    pub isp_iterations: usize,
    /// §VI-B response-link wakeup chaining (ablation knob).
    pub wake_chaining: bool,
    /// §VI-A3 leftover-AMS rescue pool (ablation knob).
    pub rescue_pool: bool,
    /// Runtime invariant-audit level (see [`memnet_simcore::audit`]).
    /// Audit checks never mutate simulation state, so the level cannot
    /// change results — only the `audit` section of the report.
    pub audit: AuditLevel,
    /// Link-fault scenario ([`FaultConfig::none`] by default: a fault-free
    /// run is bit-identical to a build without the fault subsystem).
    ///
    /// Shared behind an `Arc` so that cloning a `SimConfig` — which
    /// `run_pair` and every sweep job do — never deep-copies the
    /// degraded/failed link lists.
    pub faults: Arc<FaultConfig>,
    /// Time-series observability: per-epoch sampling and/or JSONL event
    /// tracing (see [`memnet_obs`]). Off by default; a disabled config
    /// produces bit-identical reports to a build without the subsystem.
    pub obs: ObsConfig,
    /// Where the request stream comes from (synthetic generator, stress
    /// generator, or trace replay).
    pub source: TrafficSpec,
    /// Which energy backend prices metered activity into joules
    /// (analytical paper model by default). Pricing never feeds back into
    /// simulation behavior, so the backend changes only the energy
    /// sections of the report.
    pub energy_backend: EnergyBackendKind,
    /// A fitted IDD model that prices this run in place of the stock
    /// table (see [`SimConfigBuilder::calibration`], which also selects
    /// [`EnergyBackendKind::Idd`]). A calibrated result belongs to its
    /// model, so the model is part of the run's identity.
    pub calibration: Option<Arc<IddModel>>,
}

impl SimConfig {
    /// Starts building a configuration.
    pub fn builder() -> SimConfigBuilder {
        SimConfigBuilder::new()
    }

    /// Number of HMCs the workload footprint needs at this scale.
    pub fn n_hmcs(&self) -> usize {
        self.workload.footprint_gb.div_ceil(self.scale.chunk_gb()) as usize
    }

    /// Lines of physical space mapped to each HMC chunk.
    pub fn chunk_lines(&self) -> u64 {
        self.scale.chunk_gb() * (1 << 30) / self.dram.line_bytes
    }

    /// The policy configuration this run hands to the power controller.
    pub fn policy_config(&self) -> PolicyConfig {
        let mut cfg = PolicyConfig::new(self.policy, self.mechanism, self.alpha);
        cfg.epoch = self.epoch;
        cfg.roo_params = self.roo_params;
        cfg.isp_iterations = self.isp_iterations;
        cfg.wake_chaining = self.wake_chaining;
        if !self.rescue_pool {
            cfg.rescue_max_requests = 0;
        }
        cfg
    }

    /// Runs the simulation to completion and reports.
    pub fn run(self) -> RunReport {
        Engine::new(self).run()
    }

    /// Instantiates the front-end traffic source this configuration
    /// describes. Seeding matches the pre-trace-layer engine exactly, so
    /// synthetic runs are bit-identical across this refactor.
    pub fn traffic_source(&self) -> TrafficSource {
        match &self.source {
            TrafficSpec::Synthetic => TrafficSource::Synthetic(RequestGenerator::new(
                self.workload.clone(),
                SplitMix64::new(self.seed),
            )),
            TrafficSpec::Stress(spec) => {
                let env = StressEnv {
                    epoch: self.epoch,
                    n_modules: self.n_hmcs(),
                    chunk_lines: self.chunk_lines(),
                };
                TrafficSource::Stress(StressGenerator::new(
                    spec.clone(),
                    env,
                    SplitMix64::new(self.seed),
                ))
            }
            TrafficSpec::Replay(trace) => TrafficSource::Replay(TraceCursor::new(trace.clone())),
        }
    }

    /// Records this configuration's request stream to a trace covering the
    /// evaluation period.
    ///
    /// The closed-loop front-end consumes requests *by schedule order*, at
    /// most one past the horizon: stalls only push injections later, never
    /// earlier, so every request it can ever pull has
    /// `ready_at <= eval_period` — plus the first one beyond it (which
    /// resolves to a `WaitUntil` past the end of the run). Recording
    /// exactly that prefix makes replay bit-identical to the live run.
    ///
    /// # Errors
    ///
    /// Returns an error if the source is itself a replay, or if the trace
    /// would exceed `max` requests before covering the horizon.
    pub fn record_trace(&self, max: usize) -> Result<RequestTrace, String> {
        if matches!(self.source, TrafficSpec::Replay(_)) {
            return Err("cannot record a trace from a replay run".to_owned());
        }
        let mut source = self.traffic_source();
        let horizon = memnet_simcore::SimTime::ZERO + self.eval_period;
        let mut records = Vec::new();
        loop {
            if records.len() >= max {
                return Err(format!(
                    "trace would exceed {max} requests before covering the evaluation period; \
                     shorten --eval or raise the cap"
                ));
            }
            let req = source.next_request().expect("generator sources are infinite");
            let done = req.ready_at > horizon;
            records.push(req);
            if done {
                return Ok(RequestTrace::new(self.workload.name.to_owned(), self.seed, records));
            }
        }
    }
}

/// Builder for [`SimConfig`] with paper defaults.
#[derive(Debug, Clone)]
pub struct SimConfigBuilder {
    workload: String,
    topology: TopologyKind,
    scale: NetworkScale,
    policy: PolicyKind,
    mechanism: Mechanism,
    alpha: f64,
    epoch: SimDuration,
    eval_period: SimDuration,
    roo_params: RooParams,
    mapping: AddressMapping,
    /// `None` until [`Self::seed`] sets it; [`Self::build`] then picks
    /// the replayed trace's seed, else [`DEFAULT_SEED`].
    seed: Option<u64>,
    max_outstanding_reads: usize,
    write_buffer: usize,
    dram: DramParams,
    isp_iterations: usize,
    wake_chaining: bool,
    rescue_pool: bool,
    audit: AuditLevel,
    faults: FaultConfig,
    obs: ObsConfig,
    replay: Option<Arc<RequestTrace>>,
    energy_backend: EnergyBackendKind,
    calibration: Option<Arc<IddModel>>,
}

impl SimConfigBuilder {
    /// Creates a builder with paper defaults: mixB on a small ternary
    /// tree, full power, α = 5 %, 100 µs epochs, 1 ms evaluation, seed
    /// [`DEFAULT_SEED`] (see [`Self::replay`] for a replay's), fault-free,
    /// unobserved, analytical energy. The CLI and manifests both start
    /// from here, so these are every entry point's defaults.
    pub fn new() -> Self {
        SimConfigBuilder {
            workload: "mixB".to_owned(),
            topology: TopologyKind::TernaryTree,
            scale: NetworkScale::Small,
            policy: PolicyKind::FullPower,
            mechanism: Mechanism::FullPower,
            alpha: 0.05,
            epoch: SimDuration::from_us(100),
            eval_period: SimDuration::from_ms(1),
            roo_params: RooParams::fast(),
            mapping: AddressMapping::Contiguous,
            seed: None,
            max_outstanding_reads: 64,
            write_buffer: 128,
            dram: DramParams::hmc_gen2(),
            isp_iterations: 3,
            wake_chaining: true,
            rescue_pool: true,
            audit: AuditLevel::from_env(),
            faults: FaultConfig::none(),
            obs: ObsConfig::off(),
            replay: None,
            energy_backend: EnergyBackendKind::Analytical,
            calibration: None,
        }
    }

    /// Selects the workload by its paper name ("ua.D", "mixB", ...).
    pub fn workload(mut self, name: &str) -> Self {
        self.workload = name.to_owned();
        self
    }

    /// Selects the network topology.
    pub fn topology(mut self, kind: TopologyKind) -> Self {
        self.topology = kind;
        self
    }

    /// Selects the network scale (small / big study).
    pub fn scale(mut self, scale: NetworkScale) -> Self {
        self.scale = scale;
        self
    }

    /// Selects the management policy.
    pub fn policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// Selects the circuit-level link mechanism.
    pub fn mechanism(mut self, mechanism: Mechanism) -> Self {
        self.mechanism = mechanism;
        self
    }

    /// Sets the allowable slowdown factor α (e.g. 0.025 or 0.05).
    pub fn alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }

    /// Sets the management epoch length.
    pub fn epoch(mut self, epoch: SimDuration) -> Self {
        self.epoch = epoch;
        self
    }

    /// Sets the simulated evaluation period.
    pub fn eval_period(mut self, period: SimDuration) -> Self {
        self.eval_period = period;
        self
    }

    /// Sets ROO wakeup physics (14 ns default, 20 ns sensitivity).
    pub fn roo_params(mut self, params: RooParams) -> Self {
        self.roo_params = params;
        self
    }

    /// Sets the address mapping.
    pub fn mapping(mut self, mapping: AddressMapping) -> Self {
        self.mapping = mapping;
        self
    }

    /// Sets the RNG seed, for a replay too.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Sets the maximum outstanding reads at the processor.
    pub fn max_outstanding_reads(mut self, n: usize) -> Self {
        self.max_outstanding_reads = n;
        self
    }

    /// Sets the maximum ISP iterations (network-aware management).
    pub fn isp_iterations(mut self, n: usize) -> Self {
        self.isp_iterations = n;
        self
    }

    /// Enables or disables §VI-B wakeup chaining (ablation knob).
    pub fn wake_chaining(mut self, on: bool) -> Self {
        self.wake_chaining = on;
        self
    }

    /// Enables or disables the §VI-A3 rescue pool (ablation knob).
    pub fn rescue_pool(mut self, on: bool) -> Self {
        self.rescue_pool = on;
        self
    }

    /// Sets the runtime invariant-audit level (defaults to the
    /// `MEMNET_AUDIT` environment variable, or off).
    pub fn audit(mut self, level: AuditLevel) -> Self {
        self.audit = level;
        self
    }

    /// Sets the link-fault scenario; bench sweeps carry its spec in their
    /// cache key.
    pub fn faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the observability configuration.
    pub fn obs(mut self, obs: ObsConfig) -> Self {
        self.obs = obs;
        self
    }

    /// Selects the energy backend pricing this run; bench keys carry the
    /// backend in their fingerprint.
    pub fn energy_backend(mut self, kind: EnergyBackendKind) -> Self {
        self.energy_backend = kind;
        self
    }

    /// Prices the run with a fitted IDD model (a calibration JSON, say)
    /// instead of the stock table, selecting [`EnergyBackendKind::Idd`].
    pub fn calibration(mut self, model: IddModel) -> Self {
        self.calibration = Some(Arc::new(model));
        self.energy_backend = EnergyBackendKind::Idd;
        self
    }

    /// Replays a recorded request trace instead of running a generator.
    /// The workload is forced to the one named in the trace header (its
    /// footprint sizes the network), overriding [`Self::workload`]. The
    /// run takes the trace's recorded seed, so the rerun is bit-identical
    /// to the recorded one, unless [`Self::seed`] sets another (before or
    /// after this call).
    pub fn replay(mut self, trace: Arc<RequestTrace>) -> Self {
        self.replay = Some(trace);
        self
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the invalid field.
    pub fn build(self) -> Result<SimConfig, ConfigError> {
        let seed = self.seed.or(self.replay.as_ref().map(|t| t.seed)).unwrap_or(DEFAULT_SEED);
        // A replay forces the workload named in its header (the footprint
        // sizes the network identically to the recorded run); otherwise
        // the name resolves through the paper catalog first, then the
        // adversarial stress catalog.
        let requested = match &self.replay {
            Some(trace) => trace.workload.clone(),
            None => self.workload.clone(),
        };
        let (workload, source) = if let Some(spec) = catalog::by_name(&requested) {
            (spec, TrafficSpec::Synthetic)
        } else if let Some(stress_spec) = stress::by_name(&requested) {
            (stress_spec.base.clone(), TrafficSpec::Stress(stress_spec))
        } else {
            return Err(ConfigError::UnknownWorkload(requested));
        };
        let source = match self.replay {
            Some(trace) => TrafficSpec::Replay(trace),
            None => source,
        };
        if !(self.alpha > 0.0 && self.alpha < 1.0) {
            // Both entry points take α in percent, so the refusal speaks
            // percent too, rounded to a millionth of a percent to hide the
            // fraction's binary noise (101% is held as 1.0100000000000000089).
            return Err(ConfigError::BadAlpha(format!(
                "alpha must be in (0%, 100%), got {}%",
                (self.alpha * 1e8).round() / 1e6
            )));
        }
        if self.eval_period.is_zero() {
            return Err(ConfigError::BadEvalPeriod);
        }
        if !self.policy.manages(self.mechanism) {
            return Err(ConfigError::BadMechanism(format!(
                "{} cannot manage {} links",
                self.policy.label(),
                self.mechanism
            )));
        }
        self.faults.validate().map_err(ConfigError::BadFaults)?;
        let n_hmcs = workload.footprint_gb.div_ceil(self.scale.chunk_gb()) as usize;
        for d in &self.faults.degraded {
            if d.link >= 2 * n_hmcs {
                return Err(ConfigError::BadFaults(format!(
                    "degraded link {} out of range (network has {} links)",
                    d.link,
                    2 * n_hmcs
                )));
            }
        }
        for &m in &self.faults.hard_failed {
            if m >= n_hmcs {
                return Err(ConfigError::BadFaults(format!(
                    "hard-failed module {m} out of range (network has {n_hmcs} modules)"
                )));
            }
        }
        Ok(SimConfig {
            workload,
            topology: self.topology,
            scale: self.scale,
            policy: self.policy,
            mechanism: self.mechanism,
            alpha: self.alpha,
            epoch: self.epoch,
            eval_period: self.eval_period,
            roo_params: self.roo_params,
            mapping: self.mapping,
            seed,
            max_outstanding_reads: self.max_outstanding_reads,
            write_buffer: self.write_buffer,
            dram: self.dram,
            isp_iterations: self.isp_iterations,
            wake_chaining: self.wake_chaining,
            rescue_pool: self.rescue_pool,
            audit: self.audit,
            faults: Arc::new(self.faults),
            obs: self.obs,
            source,
            energy_backend: self.energy_backend,
            calibration: self.calibration,
        })
    }
}

impl Default for SimConfigBuilder {
    fn default() -> Self {
        SimConfigBuilder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_build() {
        let cfg = SimConfig::builder().build().unwrap();
        assert_eq!(cfg.workload.name, "mixB");
        assert_eq!(cfg.n_hmcs(), 3); // 12 GB over 4 GB chunks
    }

    #[test]
    fn big_scale_quadruples_module_count() {
        let small = SimConfig::builder().workload("is.D").build().unwrap();
        let big = SimConfig::builder().workload("is.D").scale(NetworkScale::Big).build().unwrap();
        assert_eq!(small.n_hmcs(), 9); // 36 GB / 4
        assert_eq!(big.n_hmcs(), 36); // 36 GB / 1
        assert_eq!(big.chunk_lines(), (1 << 30) / 64);
    }

    #[test]
    fn static_selection_needs_the_vwl_mechanism() {
        let stat = || SimConfig::builder().policy(PolicyKind::StaticSelection);
        assert!(stat().mechanism(Mechanism::Vwl).build().is_ok());
        for mech in [
            Mechanism::FullPower,
            Mechanism::Roo,
            Mechanism::VwlRoo,
            Mechanism::Dvfs,
            Mechanism::DvfsRoo,
        ] {
            let err = stat().mechanism(mech).build().unwrap_err();
            assert!(matches!(err, ConfigError::BadMechanism(_)), "{mech}: {err}");
            assert!(err.to_string().contains(mech.label()), "names the mechanism: {err}");
        }
        // Every other policy takes every mechanism.
        for policy in [PolicyKind::FullPower, PolicyKind::NetworkUnaware, PolicyKind::NetworkAware]
        {
            assert!(SimConfig::builder().policy(policy).mechanism(Mechanism::Roo).build().is_ok());
        }
    }

    #[test]
    fn unknown_workload_is_rejected() {
        let err = SimConfig::builder().workload("nope").build().unwrap_err();
        assert!(matches!(err, ConfigError::UnknownWorkload(_)));
        // The message lists the valid names from both catalogs.
        let msg = err.to_string();
        assert!(msg.contains("mixB"), "catalog names listed: {msg}");
        assert!(msg.contains("adv.wakestorm"), "stress names listed: {msg}");
    }

    #[test]
    fn stress_workloads_resolve_through_the_stress_catalog() {
        let cfg = SimConfig::builder().workload("adv.wakestorm").build().unwrap();
        assert_eq!(cfg.workload.name, "adv.wakestorm");
        assert_eq!(cfg.n_hmcs(), 4); // 16 GB over 4 GB chunks
        assert!(matches!(cfg.source, TrafficSpec::Stress(_)));
        assert!(matches!(cfg.traffic_source(), crate::frontend::TrafficSource::Stress(_)));
    }

    #[test]
    fn replay_forces_the_trace_workload_and_source() {
        let recorded = SimConfig::builder()
            .workload("mixD")
            .eval_period(SimDuration::from_us(5))
            .build()
            .unwrap()
            .record_trace(1_000_000)
            .unwrap();
        assert_eq!(recorded.workload, "mixD");
        assert!(!recorded.is_empty());
        // All but the final (horizon-crossing) record lie inside the
        // evaluation period.
        let horizon = SimDuration::from_us(5);
        let inside = recorded
            .records()
            .iter()
            .filter(|r| r.ready_at.saturating_since(memnet_simcore::SimTime::ZERO) <= horizon)
            .count();
        assert_eq!(inside, recorded.len() - 1);

        // Building with .replay() overrides the requested workload.
        let cfg = SimConfig::builder()
            .workload("mixB")
            .replay(Arc::new(recorded))
            .eval_period(SimDuration::from_us(5))
            .build()
            .unwrap();
        assert_eq!(cfg.workload.name, "mixD");
        assert!(matches!(cfg.source, TrafficSpec::Replay(_)));
        // Replay runs cannot themselves be recorded.
        assert!(cfg.record_trace(10).is_err());
    }

    #[test]
    fn a_replay_runs_under_its_trace_seed_unless_one_is_set() {
        let window = || SimConfig::builder().eval_period(SimDuration::from_us(2));
        let recorded = window().workload("mixD").seed(5).build().unwrap();
        let trace = Arc::new(recorded.record_trace(100_000).unwrap());
        assert_eq!(window().replay(trace.clone()).build().unwrap().seed, 5);
        // An explicit seed wins, set before or after the replay.
        assert_eq!(window().seed(9).replay(trace.clone()).build().unwrap().seed, 9);
        assert_eq!(window().replay(trace).seed(9).build().unwrap().seed, 9);
        assert_eq!(window().build().unwrap().seed, DEFAULT_SEED);
    }

    #[test]
    fn record_trace_respects_the_cap() {
        let cfg = SimConfig::builder().build().unwrap(); // 1 ms horizon
        assert!(cfg.record_trace(10).is_err(), "10 requests cannot cover 1 ms");
    }

    #[test]
    fn invalid_alpha_is_rejected() {
        let err = SimConfig::builder().alpha(0.0).build().unwrap_err();
        assert!(matches!(err, ConfigError::BadAlpha(_)));
        let err = SimConfig::builder().alpha(1.5).build().unwrap_err();
        assert!(matches!(err, ConfigError::BadAlpha(_)));
        // α is given in percent on every entry point, and refused in it.
        for (alpha, shown) in [(1.5, "got 150%"), (1.01, "got 101%"), (-0.07, "got -7%")] {
            let err = SimConfig::builder().alpha(alpha).build().unwrap_err();
            assert!(err.to_string().contains(shown), "{alpha}: {err}");
        }
    }

    #[test]
    fn zero_eval_period_is_rejected() {
        let err = SimConfig::builder().eval_period(SimDuration::ZERO).build().unwrap_err();
        assert_eq!(err, ConfigError::BadEvalPeriod);
    }

    #[test]
    fn audit_level_is_settable() {
        // The default tracks MEMNET_AUDIT (process-wide), so only the
        // explicit override is asserted here.
        let cfg = SimConfig::builder().audit(AuditLevel::Full).build().unwrap();
        assert_eq!(cfg.audit, AuditLevel::Full);
        let cfg = SimConfig::builder().audit(AuditLevel::Off).build().unwrap();
        assert_eq!(cfg.audit, AuditLevel::Off);
    }

    #[test]
    fn fault_scenarios_are_validated_against_the_network() {
        // mixB on small scale = 3 HMCs = 6 links.
        let ok = SimConfig::builder()
            .faults(FaultConfig::parse("ber=1e-6,degrade=5:4,fail=2").unwrap())
            .build()
            .unwrap();
        assert!(!ok.faults.is_none());
        let err = SimConfig::builder()
            .faults(FaultConfig::parse("degrade=6:4").unwrap())
            .build()
            .unwrap_err();
        assert!(matches!(err, ConfigError::BadFaults(_)), "{err}");
        let err =
            SimConfig::builder().faults(FaultConfig::parse("fail=3").unwrap()).build().unwrap_err();
        assert!(matches!(err, ConfigError::BadFaults(_)), "{err}");
        // Defaults stay fault-free.
        assert!(SimConfig::builder().build().unwrap().faults.is_none());
    }

    #[test]
    fn policy_config_carries_tunables_through() {
        let cfg = SimConfig::builder()
            .policy(PolicyKind::NetworkAware)
            .mechanism(Mechanism::VwlRoo)
            .alpha(0.025)
            .epoch(SimDuration::from_us(50))
            .roo_params(RooParams::slow())
            .build()
            .unwrap();
        let pc = cfg.policy_config();
        assert_eq!(pc.kind, PolicyKind::NetworkAware);
        assert_eq!(pc.alpha, 0.025);
        assert_eq!(pc.epoch, SimDuration::from_us(50));
        assert_eq!(pc.roo_params, RooParams::slow());
    }
}
