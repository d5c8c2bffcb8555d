//! The epoch-based power controller implementing network-unaware (§V) and
//! network-aware (§VI) management.
//!
//! The controller is fed telemetry by the simulation engine during each
//! epoch (packet arrivals/departures per link, DRAM reads per module, link
//! idle intervals) and, at the epoch boundary, produces one power-mode
//! decision per unidirectional link. Between boundaries it performs the
//! paper's violation detection, bouncing a link to full power (after
//! consulting the network-aware rescue pool) when its measured latency
//! overhead exceeds its allowable memory slowdown.

use std::collections::VecDeque;
use std::sync::Arc;

use memnet_net::mech::{LinkPowerMode, Mechanism, RooParams, RooThreshold};
use memnet_net::{Direction, LinkId, NodeRef, Topology};
use memnet_simcore::{AuditLevel, Auditor, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

use crate::ams::{ps, AmsAccount, LatencyPs};
use crate::monitors::{DelayMonitor, IdleHistogram, WakeupSampler};
use crate::static_sel::static_width_decisions;

/// Which management policy governs the network's links.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PolicyKind {
    /// No management: every link always on at full bandwidth.
    FullPower,
    /// §V: per-module AMS budgeting (adapted prior work).
    NetworkUnaware,
    /// §VI: ISP slowdown redistribution + wakeup chaining + congestion
    /// discounting.
    NetworkAware,
    /// §VII-A: static fat/tapered-tree bandwidth selection.
    StaticSelection,
}

impl PolicyKind {
    /// Report label.
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::FullPower => "full power",
            PolicyKind::NetworkUnaware => "network-unaware",
            PolicyKind::NetworkAware => "network-aware",
            PolicyKind::StaticSelection => "static selection",
        }
    }

    /// Whether this policy can manage links built with `mechanism`.
    /// Static selection assigns the VWL widths of
    /// [`static_width_decisions`], which only a VWL link has; every other
    /// policy chooses among the mechanism's own modes.
    pub fn manages(self, mechanism: Mechanism) -> bool {
        self != PolicyKind::StaticSelection || mechanism == Mechanism::Vwl
    }

    /// Parses the CLI/manifest spellings (`fp|full`, `unaware`, `aware`,
    /// `static`).
    pub fn parse(s: &str) -> Option<PolicyKind> {
        match s {
            "fp" | "full" => Some(PolicyKind::FullPower),
            "unaware" => Some(PolicyKind::NetworkUnaware),
            "aware" => Some(PolicyKind::NetworkAware),
            "static" => Some(PolicyKind::StaticSelection),
            _ => None,
        }
    }
}

/// Tunable policy parameters (paper values as defaults via
/// [`PolicyConfig::new`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyConfig {
    /// Which policy runs.
    pub kind: PolicyKind,
    /// Which circuit-level mechanism the links support.
    pub mechanism: Mechanism,
    /// Allowable slowdown factor α (0.025 or 0.05 in the main study).
    pub alpha: f64,
    /// Epoch length (100 µs in the paper).
    pub epoch: SimDuration,
    /// ROO wakeup latency / off power.
    pub roo_params: RooParams,
    /// Maximum ISP scatter/gather iterations (3 in the paper).
    pub isp_iterations: usize,
    /// A link stays a slowdown-receiving candidate if its budget reaches
    /// this fraction of the next lower mode's FLO (25 % in the paper).
    pub src_fraction: f64,
    /// Fraction of the original leftover pool granted per rescue request
    /// (1/16 in the paper).
    pub rescue_grant_fraction: f64,
    /// Maximum rescue requests per link per epoch (4 in the paper).
    pub rescue_max_requests: u32,
    /// Share of the scatter pool given to request links when both ROO and
    /// bandwidth scaling are active (3/4 in the paper).
    pub request_pool_share: f64,
    /// Wakeup-arrival sampler period (one sample window per this many
    /// read arrivals).
    pub sampler_period: u64,
    /// Enables §VI-B response-link wakeup chaining under network-aware
    /// management (disable for ablation studies).
    pub wake_chaining: bool,
}

impl PolicyConfig {
    /// Paper-default parameters for the given policy/mechanism/α.
    pub fn new(kind: PolicyKind, mechanism: Mechanism, alpha: f64) -> Self {
        PolicyConfig {
            kind,
            mechanism,
            alpha,
            epoch: SimDuration::from_us(100),
            roo_params: RooParams::fast(),
            isp_iterations: 3,
            src_fraction: 0.25,
            rescue_grant_fraction: 1.0 / 16.0,
            rescue_max_requests: 4,
            request_pool_share: 0.75,
            sampler_period: 64,
            wake_chaining: true,
        }
    }
}

/// One per-link power-mode decision produced at an epoch boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkDecision {
    /// The link to reconfigure.
    pub link: LinkId,
    /// Target mode.
    pub mode: LinkPowerMode,
}

/// What the engine must do after feeding a packet departure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationAction {
    /// Nothing; the link stays in its mode.
    None,
    /// The link exceeded its AMS (and, under network-aware management,
    /// the rescue pool could not cover it): force full power until the
    /// epoch ends.
    ForceFullPower,
}

/// Per-link controller state for one epoch.
#[derive(Debug, Clone)]
struct LinkState {
    /// One delay monitor per candidate bandwidth mode; index 0 is the
    /// full-power monitor (the link-latency FEL estimator).
    monitors: Vec<DelayMonitor>,
    /// Virtual departure times of the packets still in the full-power
    /// monitor's queue, ascending: how many older packets an arrival
    /// queues behind at full power (the QF input).
    in_flight: VecDeque<SimTime>,
    histogram: IdleHistogram,
    sampler: WakeupSampler,
    /// Aggregate measured read-packet latency this epoch (the AEL link part).
    actual_read_latency: SimDuration,
    /// Cumulative queuing delay this epoch (QD).
    queuing_delay: SimDuration,
    /// Packets that arrived behind ≥ 3 older packets (numerator of QF).
    queued_packets: u64,
    /// All packets observed this epoch (denominator of QF).
    total_packets: u64,
    /// Slowdown budget for the running epoch.
    budget: LatencyPs,
    /// The link was bounced to full power this epoch.
    forced_full: bool,
    rescue_used: u32,
    /// Mode currently assigned by the policy.
    selected: LinkPowerMode,
    // --- ISP working state ---
    src: bool,
    src_next: bool,
    dsrc: u64,
    isp_ams: LatencyPs,
    unused: LatencyPs,
}

impl LinkState {
    fn new(mechanism: Mechanism, roo: RooParams, sampler_period: u64) -> Self {
        LinkState {
            monitors: mechanism.bw_modes().iter().map(|&m| DelayMonitor::new(m)).collect(),
            in_flight: VecDeque::new(),
            histogram: IdleHistogram::new(),
            sampler: WakeupSampler::new(roo.wakeup_latency, sampler_period),
            actual_read_latency: SimDuration::ZERO,
            queuing_delay: SimDuration::ZERO,
            queued_packets: 0,
            total_packets: 0,
            budget: 0,
            forced_full: false,
            rescue_used: 0,
            selected: mechanism.full_mode(),
            src: false,
            src_next: false,
            dsrc: 0,
            isp_ams: 0,
            unused: 0,
        }
    }

    /// QF: the fraction of this epoch's packets that queued.
    fn queuing_fraction(&self) -> f64 {
        if self.total_packets == 0 {
            0.0
        } else {
            self.queued_packets as f64 / self.total_packets as f64
        }
    }

    /// The link-latency part of this epoch's FEL.
    fn fel(&self) -> SimDuration {
        self.monitors[0].read_latency_sum()
    }

    /// Measured latency overhead so far this epoch.
    fn overhead(&self) -> LatencyPs {
        ps(self.actual_read_latency) - ps(self.fel())
    }
}

/// The power controller: one per simulated network.
///
/// See the crate docs for the telemetry protocol between the engine and
/// the controller.
#[derive(Debug, Clone)]
pub struct PowerController {
    cfg: PolicyConfig,
    topo: Arc<Topology>,
    links: Vec<LinkState>,
    /// Per-module running AMS accounts (network-unaware).
    modules: Vec<AmsAccount>,
    /// Head-module running account (network-aware).
    head: AmsAccount,
    /// Rescue pool: leftover AMS after ISP, available for grants.
    pool: LatencyPs,
    pool_original: LatencyPs,
    /// DRAM reads per module this epoch.
    dram_reads: Vec<u64>,
    /// Nominal DRAM access latency charged per read (30 ns for Table I).
    dram_nominal: SimDuration,
    epochs_completed: u64,
    violations: u64,
}

impl PowerController {
    /// Creates a controller for `topology` with all links in the
    /// mechanism's full-power mode.
    ///
    /// The topology is shared (`Arc`) with the engine rather than cloned:
    /// the controller never mutates it, and per-run deep copies of the
    /// routing tables were measurable in sweep setup cost.
    pub fn new(topology: Arc<Topology>, cfg: PolicyConfig, dram_nominal: SimDuration) -> Self {
        let n_links = topology.n_links();
        let n_modules = topology.len();
        let links = (0..n_links)
            .map(|_| LinkState::new(cfg.mechanism, cfg.roo_params, cfg.sampler_period))
            .collect();
        PowerController {
            links,
            modules: vec![AmsAccount::new(); n_modules],
            head: AmsAccount::new(),
            pool: 0,
            pool_original: 0,
            dram_reads: vec![0; n_modules],
            dram_nominal,
            epochs_completed: 0,
            violations: 0,
            topo: topology,
            cfg,
        }
    }

    /// The policy configuration.
    pub fn config(&self) -> &PolicyConfig {
        &self.cfg
    }

    /// The network under management.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// True if the engine should run network-aware response-link wakeup
    /// chaining (§VI-B): proactively waking response links along the
    /// return path and keeping an upstream response link on while any
    /// downstream one is on.
    pub fn wake_chaining(&self) -> bool {
        self.cfg.kind == PolicyKind::NetworkAware
            && self.cfg.mechanism.uses_roo()
            && self.cfg.wake_chaining
    }

    /// The mode currently assigned to `link`.
    pub fn selected_mode(&self, link: LinkId) -> LinkPowerMode {
        self.links[link.0].selected
    }

    /// The slowdown budget assigned to `link` for the running epoch.
    pub fn budget(&self, link: LinkId) -> LatencyPs {
        self.links[link.0].budget
    }

    /// Epochs completed so far.
    pub fn epochs_completed(&self) -> u64 {
        self.epochs_completed
    }

    /// Violations (forced full-power transitions) so far.
    pub fn violations(&self) -> u64 {
        self.violations
    }

    /// The initial per-link decisions to apply at simulation start.
    pub fn initial_decisions(&mut self) -> Vec<LinkDecision> {
        let decisions: Vec<LinkDecision> = match self.cfg.kind {
            PolicyKind::StaticSelection => static_width_decisions(&self.topo),
            _ => {
                let full = self.cfg.mechanism.full_mode();
                self.topo.links().map(|l| LinkDecision { link: l, mode: full }).collect()
            }
        };
        for d in &decisions {
            self.links[d.link.0].selected = d.mode;
        }
        decisions
    }

    /// Feeds a packet arrival at a link controller's queue.
    pub fn on_packet_arrival(&mut self, link: LinkId, now: SimTime, is_read: bool) {
        if is_read && self.cfg.mechanism.uses_roo() {
            self.links[link.0].sampler.on_arrival(now);
        }
    }

    /// Feeds a completed transmission: the packet arrived at `arrival`,
    /// began serializing at `start` and fully departed at `departure`.
    ///
    /// The engine reports `departure` only when the packet finally passes
    /// CRC, so under fault injection it includes every NAK turnaround and
    /// retry replay. The delay monitors and AMS accounting therefore
    /// observe retry-induced slowdown exactly like any other congestion —
    /// no fault-specific plumbing is needed for the policies to react to
    /// a noisy link.
    ///
    /// Returns whether the engine must bounce the link to full power.
    pub fn on_packet_departure(
        &mut self,
        link: LinkId,
        arrival: SimTime,
        start: SimTime,
        departure: SimTime,
        flits: u64,
        is_read: bool,
    ) -> ViolationAction {
        let managed =
            matches!(self.cfg.kind, PolicyKind::NetworkUnaware | PolicyKind::NetworkAware);
        let st = &mut self.links[link.0];
        while st.in_flight.front().is_some_and(|&done| done <= arrival) {
            st.in_flight.pop_front();
        }
        st.total_packets += 1;
        if st.in_flight.len() >= 3 {
            st.queued_packets += 1;
        }
        let (full, alternates) = st.monitors.split_first_mut().expect("a full-power monitor");
        st.in_flight.push_back(full.record(arrival, flits, is_read));
        // Unmanaged policies never read the alternate-mode monitors (only
        // `flo` does), so they feed just the full-power reference, which
        // the QF and FEL statistics come from.
        if managed {
            for m in alternates {
                m.record(arrival, flits, is_read);
            }
        }
        st.queuing_delay += start.saturating_since(arrival);
        if is_read {
            st.actual_read_latency += departure - arrival;
        }
        if !managed || st.forced_full {
            return ViolationAction::None;
        }
        // Violation detection: measured overhead vs. the link's AMS.
        if st.overhead() > st.budget {
            if self.cfg.kind == PolicyKind::NetworkAware {
                // Ask the head module for a share of the leftover pool.
                while st.rescue_used < self.cfg.rescue_max_requests && st.overhead() > st.budget {
                    let grant = ((self.pool_original as f64 * self.cfg.rescue_grant_fraction)
                        as LatencyPs)
                        .min(self.pool);
                    if grant <= 0 {
                        break;
                    }
                    self.pool -= grant;
                    st.budget += grant;
                    st.rescue_used += 1;
                }
                if st.overhead() <= st.budget {
                    return ViolationAction::None;
                }
            }
            st.forced_full = true;
            st.selected = self.cfg.mechanism.full_mode();
            self.violations += 1;
            return ViolationAction::ForceFullPower;
        }
        ViolationAction::None
    }

    /// Feeds one DRAM read serviced by `module`'s vaults.
    pub fn on_dram_read(&mut self, module: memnet_net::ModuleId) {
        self.dram_reads[module.0] += 1;
    }

    /// Feeds one link idle interval (gap between transmissions).
    pub fn on_idle_interval(&mut self, link: LinkId, interval: SimDuration) {
        if self.cfg.mechanism.uses_roo() {
            self.links[link.0].histogram.record(interval);
        }
    }

    // ------------------------------------------------------------------
    // FLO estimation
    // ------------------------------------------------------------------

    /// Predicted latency overhead of running `link` at `mode` next epoch,
    /// relative to full power (Section V-B).
    fn flo(&self, link: LinkId, mode: LinkPowerMode) -> LatencyPs {
        let st = &self.links[link.0];
        // Bandwidth part: the candidate monitor's aggregate read latency
        // minus the full-power monitor's, plus any SERDES stretch (DVFS)
        // applied to every read packet.
        let idx = self
            .cfg
            .mechanism
            .bw_modes()
            .iter()
            .position(|&m| m == mode.bw)
            .expect("mode must belong to the mechanism");
        let bw_part = (ps(st.monitors[idx].read_latency_sum()) - ps(st.fel())).max(0)
            + ps(mode.bw.serdes_overhead()) * st.monitors[0].read_packets() as LatencyPs;
        // ROO part: predicted wakeups times the per-wakeup latency cost.
        let roo_part = match mode.roo {
            None => 0,
            Some(thr) => {
                if self.wake_chaining() && link.direction() == Direction::Response {
                    // §VI-B: response-link wakeups are fully hidden.
                    0
                } else {
                    let wakeups = st.histogram.wakeups(thr) as LatencyPs;
                    let wake = ps(self.cfg.roo_params.wakeup_latency);
                    let arrivals = st.sampler.average_arrivals();
                    let mut per_wake = wake + (wake as f64 * arrivals) as LatencyPs;
                    if link.direction() == Direction::Request {
                        // §V-B: waking a request link inflates a later
                        // response link's queue (responses are 5× bigger).
                        per_wake += (wake as f64 * arrivals) as LatencyPs;
                    }
                    wakeups * per_wake
                }
            }
        };
        bw_part + roo_part
    }

    /// The FLO estimate for `link`'s currently selected mode, over the
    /// epoch currently being accumulated — a pure read exposed for
    /// observability sampling. Non-adaptive policies (full power, static
    /// selection) have no meaningful FLO and report zero. Call before
    /// [`Self::epoch_end`] closes the epoch and resets the monitors.
    pub fn flo_estimate(&self, link: LinkId) -> LatencyPs {
        match self.cfg.kind {
            PolicyKind::FullPower | PolicyKind::StaticSelection => 0,
            PolicyKind::NetworkUnaware | PolicyKind::NetworkAware => {
                self.flo(link, self.links[link.0].selected)
            }
        }
    }

    /// Expected power of `mode` on `link` as a fraction of full link
    /// power, using the idle histogram's off-time estimate.
    fn expected_power(&self, link: LinkId, mode: LinkPowerMode) -> f64 {
        let st = &self.links[link.0];
        let off_frac = match mode.roo {
            None => 0.0,
            Some(thr) => st.histogram.off_time(thr).ratio(self.cfg.epoch).clamp(0.0, 1.0),
        };
        mode.bw.power_fraction() * (1.0 - off_frac)
            + self.cfg.roo_params.off_power_fraction * off_frac
    }

    /// Static power rank of a mode, comparable across links — the order
    /// the ISP monotonicity constraint (upstream ≥ downstream) enforces.
    pub fn power_rank(mode: LinkPowerMode) -> f64 {
        Self::power_key(mode)
    }

    /// The leftover-AMS rescue pool currently held at the head module.
    pub fn rescue_pool(&self) -> LatencyPs {
        self.pool
    }

    /// Audits the controller's budget invariants into `auditor` (at
    /// [`AuditLevel::Cheap`]): per-link budgets are non-negative, no link
    /// exceeded its rescue-request ceiling, every selected mode is legal
    /// for the mechanism, the rescue pool sits within `[0, original]`,
    /// and every AMS account is consistent. The engine calls this at each
    /// epoch boundary and once more at the end of the run.
    pub fn audit_epoch(&self, auditor: &mut Auditor) {
        if !auditor.enabled(AuditLevel::Cheap) {
            return;
        }
        for (i, st) in self.links.iter().enumerate() {
            auditor.check(AuditLevel::Cheap, "ams-budget-non-negative", st.budget >= 0, || {
                format!("link {i}: epoch budget {} ps is negative", st.budget)
            });
            auditor.check(
                AuditLevel::Cheap,
                "rescue-request-ceiling",
                st.rescue_used <= self.cfg.rescue_max_requests,
                || {
                    format!(
                        "link {i}: {} rescue requests exceed the ceiling of {}",
                        st.rescue_used, self.cfg.rescue_max_requests
                    )
                },
            );
            auditor.check(
                AuditLevel::Cheap,
                "selected-mode-legal",
                self.cfg.mechanism.allows(st.selected),
                || {
                    format!(
                        "link {i}: selected mode {:?} is not a candidate of {:?}",
                        st.selected, self.cfg.mechanism
                    )
                },
            );
        }
        auditor.check(
            AuditLevel::Cheap,
            "rescue-pool-bounds",
            self.pool >= 0 && self.pool <= self.pool_original.max(0),
            || format!("rescue pool {} ps outside [0, {}]", self.pool, self.pool_original),
        );
        let accounts_ok =
            self.head.is_consistent() && self.modules.iter().all(AmsAccount::is_consistent);
        auditor.check(AuditLevel::Cheap, "ams-account-consistent", accounts_ok, || {
            format!("head {:?} or a module account has negative Σ FEL", self.head)
        });
    }

    /// The head module's running AMS account (network-aware management).
    pub fn head_account(&self) -> AmsAccount {
        self.head
    }

    /// Static power rank used for the ISP monotonicity constraint
    /// (comparable across links, unlike [`expected_power`] which depends
    /// on each link's own traffic).
    ///
    /// [`expected_power`]: Self::expected_power
    fn power_key(mode: LinkPowerMode) -> f64 {
        let roo_weight = match mode.roo {
            None | Some(RooThreshold::T2048) => 1.0,
            Some(RooThreshold::T512) => 0.75,
            Some(RooThreshold::T128) => 0.5,
            Some(RooThreshold::T32) => 0.25,
        };
        mode.bw.power_fraction() * roo_weight
    }

    /// Picks the lowest-expected-power candidate whose FLO fits `budget`.
    /// The mechanism's full mode is always admissible (a link can always
    /// run at full power).
    fn select_mode(&self, link: LinkId, budget: LatencyPs) -> (LinkPowerMode, LatencyPs) {
        let full = self.cfg.mechanism.full_mode();
        let mut best = (full, self.flo(link, full));
        let mut best_power = self.expected_power(link, full);
        for mode in self.cfg.mechanism.candidate_modes() {
            let flo = self.flo(link, mode);
            if flo > budget && mode != full {
                continue;
            }
            let p = self.expected_power(link, mode);
            if p < best_power - 1e-12 || (p < best_power + 1e-12 && flo < best.1) {
                best = (mode, flo);
                best_power = p;
            }
        }
        best
    }

    /// The FLO of the next-cheaper candidate below `mode` on `link`, if any.
    fn next_lower_mode_flo(&self, link: LinkId, mode: LinkPowerMode) -> Option<LatencyPs> {
        let current = self.expected_power(link, mode);
        self.cfg
            .mechanism
            .candidate_modes()
            .into_iter()
            .filter(|&m| self.expected_power(link, m) < current - 1e-12)
            .map(|m| (self.expected_power(link, m), self.flo(link, m)))
            .max_by(|a, b| a.0.total_cmp(&b.0))
            .map(|(_, flo)| flo)
    }

    // ------------------------------------------------------------------
    // Epoch boundary
    // ------------------------------------------------------------------

    /// Closes the epoch: updates AMS accounts, selects next-epoch modes
    /// (per §V for unaware, per §VI ISP for aware) and resets epoch state.
    pub fn epoch_end(&mut self, now: SimTime) -> Vec<LinkDecision> {
        let mut decisions = Vec::new();
        self.epoch_end_into(now, &mut decisions);
        decisions
    }

    /// Arena variant of [`Self::epoch_end`]: clears `out` and fills it
    /// with this epoch's decisions so the caller can reuse one allocation
    /// across every epoch of a run.
    pub fn epoch_end_into(&mut self, _now: SimTime, out: &mut Vec<LinkDecision>) {
        out.clear();
        self.epochs_completed += 1;
        match self.cfg.kind {
            PolicyKind::FullPower | PolicyKind::StaticSelection => {}
            PolicyKind::NetworkUnaware => self.epoch_end_unaware(out),
            PolicyKind::NetworkAware => self.epoch_end_aware(out),
        }
        self.reset_epoch_state();
    }

    /// Per-module FEL for the closing epoch: DRAM part plus the link part
    /// of its connectivity links.
    fn module_fel(&self, m: usize) -> SimDuration {
        let dram = self.dram_nominal * self.dram_reads[m];
        let req = self.links[LinkId::of(memnet_net::ModuleId(m), Direction::Request).0].fel();
        let resp = self.links[LinkId::of(memnet_net::ModuleId(m), Direction::Response).0].fel();
        dram + req + resp
    }

    /// Per-module latency overhead (AEL − FEL) for the closing epoch. The
    /// DRAM part cancels (it is charged identically to AEL and FEL).
    fn module_overhead(&self, m: usize) -> LatencyPs {
        let req = &self.links[LinkId::of(memnet_net::ModuleId(m), Direction::Request).0];
        let resp = &self.links[LinkId::of(memnet_net::ModuleId(m), Direction::Response).0];
        req.overhead() + resp.overhead()
    }

    fn epoch_end_unaware(&mut self, decisions: &mut Vec<LinkDecision>) {
        let n = self.topo.len();
        for m in 0..n {
            let fel = self.module_fel(m);
            let over = self.module_overhead(m);
            self.modules[m].record_epoch(fel, over);
        }
        decisions.reserve(self.topo.n_links());
        for m in 0..n {
            // Each connectivity link receives an equal share of the
            // module's AMS.
            let module_ams = self.modules[m].ams(self.cfg.alpha);
            let link_share = module_ams / 2;
            for dir in Direction::BOTH {
                let link = LinkId::of(memnet_net::ModuleId(m), dir);
                let (mode, _flo) = self.select_mode(link, link_share.max(0));
                let st = &mut self.links[link.0];
                st.selected = mode;
                st.budget = link_share.max(0);
                decisions.push(LinkDecision { link, mode });
            }
        }
    }

    fn epoch_end_aware(&mut self, decisions: &mut Vec<LinkDecision>) {
        let n = self.topo.len();
        // --- Network-wide AMS via Equation 1, with the §VI-C congestion
        // discount applied while reducing overheads upstream. ---
        let total_fel: SimDuration = (0..n).map(|m| self.module_fel(m)).sum();
        let mut subtree = vec![0 as LatencyPs; n];
        for m in (0..n).rev() {
            let module = memnet_net::ModuleId(m);
            let req = &self.links[LinkId::of(module, Direction::Request).0];
            let resp_link = LinkId::of(module, Direction::Response);
            let resp = &self.links[resp_link.0];
            let mut downstream = req.overhead().max(0);
            for &c in self.topo.children(module) {
                downstream += subtree[c.0];
            }
            // Congestion at this response link hides downstream overheads.
            let qf = resp.queuing_fraction();
            let discount = ((downstream as f64 * qf) as LatencyPs).min(ps(resp.queuing_delay));
            subtree[m] = (downstream - discount).max(0) + resp.overhead().max(0);
        }
        let total_overhead: LatencyPs = self
            .topo
            .modules()
            .filter(|&m| self.topo.parent(m) == NodeRef::Processor)
            .map(|m| subtree[m.0])
            .sum();
        self.head.record_epoch(total_fel, total_overhead);
        let mut pool = self.head.ams(self.cfg.alpha).max(0);

        // --- ISP initialization. ---
        let roo_only = self.cfg.mechanism.uses_roo() && !self.cfg.mechanism.uses_bw_scaling();
        for l in self.topo.links() {
            let src = if roo_only { l.direction() == Direction::Request } else { true };
            let st = &mut self.links[l.0];
            st.src = src;
            st.src_next = src;
            st.isp_ams = 0;
            st.unused = 0;
            st.selected = self.cfg.mechanism.full_mode();
        }
        if roo_only && self.wake_chaining() {
            // Response links are not SRCs because chaining hides their
            // wake latency entirely (§VI-B) — which also means they can
            // take the most aggressive threshold at zero cost.
            for i in 0..self.topo.n_links() {
                let l = LinkId(i);
                if l.direction() == Direction::Response {
                    let (mode, _flo) = self.select_mode(l, 0);
                    self.links[l.0].selected = mode;
                }
            }
        }
        self.update_dsrc();

        for _iter in 0..self.cfg.isp_iterations {
            // Scatter: split the pool across link types, then push PCS
            // values down each type's tree. A type with no SRCs cannot
            // absorb its share; that portion stays at the head.
            let (req_pool, resp_pool) = self.split_pool(pool, roo_only);
            let mut undistributed = pool - req_pool - resp_pool;
            if self.src_count(Direction::Request) > 0 {
                self.scatter(Direction::Request, req_pool);
            } else {
                undistributed += req_pool;
            }
            if self.src_count(Direction::Response) > 0 {
                self.scatter(Direction::Response, resp_pool);
            } else {
                undistributed += resp_pool;
            }
            // Gather: enforce power-mode monotonicity and collect unused
            // AMS back to the head.
            pool = undistributed + self.gather();
        }

        self.pool = pool;
        self.pool_original = pool;

        decisions.reserve(self.topo.n_links());
        for l in self.topo.links() {
            let mode = self.links[l.0].selected;
            let flo = self.flo(l, mode);
            let st = &mut self.links[l.0];
            st.budget = flo.max(st.isp_ams).max(0);
            decisions.push(LinkDecision { link: l, mode });
        }
    }

    fn split_pool(&self, pool: LatencyPs, roo_only: bool) -> (LatencyPs, LatencyPs) {
        if roo_only {
            return (pool, 0);
        }
        if self.cfg.mechanism.uses_roo() {
            let req = (pool as f64 * self.cfg.request_pool_share) as LatencyPs;
            return (req, pool - req);
        }
        // Pure bandwidth scaling: a single PCS across both types, i.e.
        // split the pool proportionally to SRC counts.
        let src_req = self.src_count(Direction::Request) as LatencyPs;
        let src_resp = self.src_count(Direction::Response) as LatencyPs;
        let total = src_req + src_resp;
        if total == 0 {
            (0, 0)
        } else {
            let req = pool * src_req / total;
            (req, pool - req)
        }
    }

    fn src_count(&self, dir: Direction) -> u64 {
        self.topo.links().filter(|l| l.direction() == dir && self.links[l.0].src).count() as u64
    }

    /// ISP scatter for one link type: each SRC adds the received PCS to
    /// its AMS, selects a mode, and forwards its leftover split over its
    /// downstream SRCs.
    fn scatter(&mut self, dir: Direction, type_pool: LatencyPs) {
        let n = self.topo.len();
        let srcs = self.src_count(dir) as LatencyPs;
        let pcs0 = if srcs == 0 { 0 } else { type_pool / srcs };
        let mut pcs_in = vec![0 as LatencyPs; n];
        for m in self.topo.modules() {
            if self.topo.parent(m) == NodeRef::Processor {
                pcs_in[m.0] = pcs0;
            }
        }
        // Account for pool remainder lost to integer division.
        if srcs > 0 {
            let used = pcs0 * srcs;
            // Stash the remainder on the first root's unused so gather
            // reclaims it.
            if let Some(root) =
                self.topo.modules().find(|&m| self.topo.parent(m) == NodeRef::Processor)
            {
                self.links[LinkId::of(root, dir).0].unused += type_pool - used;
            }
        }
        for m in 0..n {
            let module = memnet_net::ModuleId(m);
            let link = LinkId::of(module, dir);
            let pcs = pcs_in[m];
            let mut out = pcs;
            if self.links[link.0].src {
                let budget = self.links[link.0].isp_ams + pcs;
                let (mode, flo) = self.select_mode(link, budget);
                let leftover = (budget - flo).max(0);
                let next_lower = self.next_lower_mode_flo(link, mode);
                let st = &mut self.links[link.0];
                st.isp_ams = flo.min(budget).max(0);
                st.selected = mode;
                if st.dsrc > 0 {
                    let share = leftover / st.dsrc as LatencyPs;
                    out = pcs + share;
                    st.unused += leftover - share * st.dsrc as LatencyPs;
                } else {
                    st.unused += leftover;
                }
                // SRC continuation rule (§VI-A1).
                st.src_next = match next_lower {
                    None => false, // already at the lowest mode
                    Some(flo_lower) => {
                        (pcs + st.isp_ams) as f64 >= self.cfg.src_fraction * flo_lower as f64
                    }
                };
            }
            for &c in self.topo.children(module) {
                pcs_in[c.0] = out;
            }
        }
    }

    /// ISP gather: bottom-up over both link types — enforce that an
    /// upstream link runs at a power mode at least as high as every
    /// downstream link of the same type, reclaim unused AMS, and refresh
    /// SRC/DSRC state for the next iteration.
    fn gather(&mut self) -> LatencyPs {
        let mut collected: LatencyPs = 0;
        let n = self.topo.len();
        for dir in Direction::BOTH {
            for m in (0..n).rev() {
                let module = memnet_net::ModuleId(m);
                let link = LinkId::of(module, dir);
                // Monotonicity: find the highest-power downstream mode.
                let max_child_key = self
                    .topo
                    .children(module)
                    .iter()
                    .map(|&c| Self::power_key(self.links[LinkId::of(c, dir).0].selected))
                    .fold(0.0_f64, f64::max);
                let current = self.links[link.0].selected;
                if Self::power_key(current) + 1e-12 < max_child_key {
                    // Raise to the cheapest candidate at or above the bar.
                    let replacement = self
                        .cfg
                        .mechanism
                        .candidate_modes()
                        .into_iter()
                        .filter(|&mode| Self::power_key(mode) + 1e-12 >= max_child_key)
                        .min_by(|a, b| Self::power_key(*a).total_cmp(&Self::power_key(*b)))
                        .unwrap_or(self.cfg.mechanism.full_mode());
                    let old_flo = self.flo(link, current);
                    let new_flo = self.flo(link, replacement);
                    let st = &mut self.links[link.0];
                    st.unused += (old_flo - new_flo).max(0).min(st.isp_ams);
                    st.isp_ams = (st.isp_ams - (old_flo - new_flo).max(0)).max(0);
                    st.selected = replacement;
                }
                let st = &mut self.links[link.0];
                collected += st.unused;
                st.unused = 0;
                st.src = st.src_next;
            }
        }
        self.update_dsrc();
        collected
    }

    /// Recomputes every link's count of downstream same-type SRCs.
    fn update_dsrc(&mut self) {
        let n = self.topo.len();
        for dir in Direction::BOTH {
            let mut sub = vec![0u64; n];
            for m in (0..n).rev() {
                let module = memnet_net::ModuleId(m);
                let mut count = 0;
                for &c in self.topo.children(module) {
                    let child_link = LinkId::of(c, dir);
                    count += sub[c.0] + u64::from(self.links[child_link.0].src);
                }
                sub[m] = count;
                self.links[LinkId::of(module, dir).0].dsrc = count;
            }
        }
    }

    fn reset_epoch_state(&mut self) {
        for st in &mut self.links {
            for m in &mut st.monitors {
                m.reset_epoch();
            }
            st.histogram.reset_epoch();
            st.sampler.reset_epoch();
            st.actual_read_latency = SimDuration::ZERO;
            st.queuing_delay = SimDuration::ZERO;
            st.queued_packets = 0;
            st.total_packets = 0;
            st.forced_full = false;
            st.rescue_used = 0;
        }
        self.dram_reads.iter_mut().for_each(|c| *c = 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memnet_net::mech::BwMode;
    use memnet_net::{ModuleId, TopologyKind};

    fn controller(kind: PolicyKind, mech: Mechanism, n: usize) -> PowerController {
        let topo = Arc::new(Topology::build(TopologyKind::TernaryTree, n));
        PowerController::new(topo, PolicyConfig::new(kind, mech, 0.05), SimDuration::from_ns(30))
    }

    /// Feeds `count` well-spaced small read packets through a link.
    fn feed_sparse_reads(c: &mut PowerController, link: LinkId, count: u64) {
        for i in 0..count {
            let t = SimTime::from_ps(i * 1_000_000); // 1 µs apart
            c.on_packet_arrival(link, t, true);
            let done = t + SimDuration::from_ps(640);
            c.on_packet_departure(link, t, t, done, 1, true);
            c.on_idle_interval(link, SimDuration::from_ps(999_360));
        }
    }

    #[test]
    fn queuing_fraction_counts_arrivals_behind_three_full_power_packets() {
        for kind in [PolicyKind::FullPower, PolicyKind::NetworkAware] {
            let mut c = controller(kind, Mechanism::VwlRoo, 4);
            let link = LinkId::of(ModuleId(0), Direction::Request);
            // Four 5-flit packets at once: at full power they leave at
            // 3.2, 6.4, 9.6 and 12.8 ns, so only the fourth arrival finds
            // three older packets in the virtual queue.
            for _ in 0..4 {
                c.on_packet_departure(link, SimTime::ZERO, SimTime::ZERO, SimTime::ZERO, 5, true);
            }
            assert_eq!(c.links[link.0].queued_packets, 1, "{kind:?}");
            // At 6.4 ns the first two have left: two ahead, not queued.
            let t = SimTime::from_ps(6_400);
            c.on_packet_departure(link, t, t, t, 5, true);
            assert_eq!(c.links[link.0].queued_packets, 1, "{kind:?}");
            // Once the virtual queue drains, nothing is ahead.
            let t = SimTime::from_ps(1_000_000);
            c.on_packet_departure(link, t, t, t, 1, true);
            assert_eq!(c.links[link.0].in_flight.len(), 1, "{kind:?}");
            assert_eq!(c.links[link.0].total_packets, 6, "{kind:?}");
            assert!((c.links[link.0].queuing_fraction() - 1.0 / 6.0).abs() < 1e-12);
        }
    }

    #[test]
    fn idle_link_is_put_into_low_power_by_unaware_management() {
        let mut c = controller(PolicyKind::NetworkUnaware, Mechanism::Vwl, 4);
        // Give the leaf module DRAM activity so *it* earns AMS (unaware
        // management only spends budget where it is generated).
        for _ in 0..1000 {
            c.on_dram_read(ModuleId(3));
        }
        let leaf = LinkId::of(ModuleId(3), Direction::Request);
        feed_sparse_reads(&mut c, leaf, 5);
        let decisions = c.epoch_end(SimTime::ZERO + SimDuration::from_us(100));
        let leaf_mode = decisions.iter().find(|d| d.link == leaf).unwrap().mode;
        assert!(
            leaf_mode.bw.power_fraction() < 1.0,
            "an almost-idle link with budget must drop below full power, got {leaf_mode:?}"
        );
    }

    #[test]
    fn untouched_links_drop_to_lowest_power_for_free() {
        // With zero traffic every mode has zero predicted overhead, so
        // even a zero budget admits the lowest power mode (FLO <= AMS).
        let mut c = controller(PolicyKind::NetworkUnaware, Mechanism::Vwl, 4);
        let decisions = c.epoch_end(SimTime::ZERO + SimDuration::from_us(100));
        for d in decisions {
            assert_eq!(d.mode.bw.power_fraction(), 2.0 / 17.0, "{d:?}");
        }
    }

    #[test]
    fn zero_budget_with_traffic_keeps_full_power() {
        let mut c = controller(PolicyKind::NetworkUnaware, Mechanism::Vwl, 2);
        // Saturating traffic on the root link (back-to-back 5-flit
        // packets) makes every lower mode predict real overhead, but no
        // AMS was earned elsewhere to pay for it.
        let link = LinkId::of(ModuleId(0), Direction::Request);
        for i in 0..2_000u64 {
            let t = SimTime::from_ps(i * 3_200);
            c.on_packet_arrival(link, t, true);
            c.on_packet_departure(link, t, t, t + SimDuration::from_ps(3_200), 5, true);
        }
        let decisions = c.epoch_end(SimTime::ZERO + SimDuration::from_us(100));
        let mode = decisions.iter().find(|d| d.link == link).unwrap().mode;
        assert!(mode.bw.is_full_bandwidth(), "hot link with tiny budget: {mode:?}");
    }

    #[test]
    fn full_power_policy_never_decides_anything() {
        let mut c = controller(PolicyKind::FullPower, Mechanism::FullPower, 4);
        feed_sparse_reads(&mut c, LinkId(0), 10);
        assert!(c.epoch_end(SimTime::ZERO + SimDuration::from_us(100)).is_empty());
    }

    #[test]
    fn violation_forces_full_power_once_budget_exhausted() {
        let mut c = controller(PolicyKind::NetworkUnaware, Mechanism::Vwl, 2);
        let link = LinkId::of(ModuleId(1), Direction::Response);
        // Tiny budget.
        c.links[link.0].budget = 1_000; // 1 ns
                                        // A read that took 100 ns longer than full power predicts.
        c.on_packet_arrival(link, SimTime::ZERO, true);
        let action = c.on_packet_departure(
            link,
            SimTime::ZERO,
            SimTime::from_ps(100_000),
            SimTime::from_ps(103_200),
            5,
            true,
        );
        assert_eq!(action, ViolationAction::ForceFullPower);
        assert_eq!(c.violations(), 1);
        // Further packets on a forced link do not re-trigger.
        c.on_packet_arrival(link, SimTime::from_ps(200_000), true);
        let again = c.on_packet_departure(
            link,
            SimTime::from_ps(200_000),
            SimTime::from_ps(300_000),
            SimTime::from_ps(303_200),
            5,
            true,
        );
        assert_eq!(again, ViolationAction::None);
    }

    #[test]
    fn aware_rescue_pool_absorbs_violations() {
        let mut c = controller(PolicyKind::NetworkAware, Mechanism::Vwl, 2);
        let link = LinkId::of(ModuleId(1), Direction::Response);
        c.links[link.0].budget = 1_000;
        c.pool = 10_000_000_000; // 10 ms of slack
        c.pool_original = 10_000_000_000;
        let action = c.on_packet_departure(
            link,
            SimTime::ZERO,
            SimTime::from_ps(100_000),
            SimTime::from_ps(103_200),
            5,
            true,
        );
        assert_eq!(action, ViolationAction::None, "the pool should cover it");
        assert!(c.pool < 10_000_000_000);
        assert_eq!(c.violations(), 0);
    }

    #[test]
    fn isp_respects_monotonicity() {
        let mut c = controller(PolicyKind::NetworkAware, Mechanism::Vwl, 13);
        // Earn a lot of AMS via DRAM traffic and idle links.
        for _ in 0..100_000 {
            c.on_dram_read(ModuleId(0));
        }
        for l in c.topology().links().collect::<Vec<_>>() {
            feed_sparse_reads(&mut c, l, 3);
        }
        let _ = c.epoch_end(SimTime::ZERO + SimDuration::from_us(100));
        let topo = c.topology().clone();
        for l in topo.links() {
            for d in topo.downstream_same_type(l) {
                let up = PowerController::power_key(c.selected_mode(l));
                let down = PowerController::power_key(c.selected_mode(d));
                assert!(up + 1e-9 >= down, "upstream {l:?} ({up}) below downstream {d:?} ({down})");
            }
        }
    }

    #[test]
    fn aware_management_reaches_lower_modes_than_unaware_on_cold_links() {
        // A network where only module 0 is hot: aware management should
        // push the cold subtree at least as low as unaware does.
        let mut aware = controller(PolicyKind::NetworkAware, Mechanism::Vwl, 13);
        let mut unaware = controller(PolicyKind::NetworkUnaware, Mechanism::Vwl, 13);
        for c in [&mut aware, &mut unaware] {
            for _ in 0..50_000 {
                c.on_dram_read(ModuleId(0));
            }
            let hot = LinkId::of(ModuleId(0), Direction::Request);
            for i in 0..2_000u64 {
                let t = SimTime::from_ps(i * 50_000);
                c.on_packet_arrival(hot, t, true);
                c.on_packet_departure(hot, t, t, t + SimDuration::from_ps(640), 1, true);
            }
            let _ = c.epoch_end(SimTime::ZERO + SimDuration::from_us(100));
        }
        let cold = LinkId::of(ModuleId(12), Direction::Request);
        let pa = PowerController::power_key(aware.selected_mode(cold));
        let pu = PowerController::power_key(unaware.selected_mode(cold));
        assert!(pa <= pu + 1e-9, "aware {pa} should be <= unaware {pu} on cold links");
    }

    #[test]
    fn roo_only_aware_marks_response_links_overhead_free() {
        let c = controller(PolicyKind::NetworkAware, Mechanism::Roo, 4);
        assert!(c.wake_chaining());
        let resp = LinkId::of(ModuleId(2), Direction::Response);
        let mode = LinkPowerMode { bw: BwMode::FULL_VWL, roo: Some(RooThreshold::T32) };
        assert_eq!(c.flo(resp, mode), 0, "chained response wakeups are hidden");
    }

    #[test]
    fn epoch_counters_reset() {
        let mut c = controller(PolicyKind::NetworkUnaware, Mechanism::Vwl, 2);
        feed_sparse_reads(&mut c, LinkId(0), 5);
        c.on_dram_read(ModuleId(0));
        let _ = c.epoch_end(SimTime::ZERO + SimDuration::from_us(100));
        assert_eq!(c.links[0].total_packets, 0);
        assert_eq!(c.dram_reads[0], 0);
        assert_eq!(c.epochs_completed(), 1);
    }

    #[test]
    fn initial_decisions_are_full_power_for_managed_policies() {
        let mut c = controller(PolicyKind::NetworkAware, Mechanism::VwlRoo, 5);
        let ds = c.initial_decisions();
        assert_eq!(ds.len(), 10);
        for d in ds {
            assert!(d.mode.bw.is_full_bandwidth());
            assert_eq!(d.mode.roo, Some(RooThreshold::T2048));
        }
    }

    #[test]
    fn static_selection_tapers_initial_widths() {
        let mut c = controller(PolicyKind::StaticSelection, Mechanism::Vwl, 13);
        let ds = c.initial_decisions();
        let root =
            ds.iter().find(|d| d.link == LinkId::of(ModuleId(0), Direction::Request)).unwrap();
        let leaf =
            ds.iter().find(|d| d.link == LinkId::of(ModuleId(12), Direction::Request)).unwrap();
        assert!(root.mode.bw.bandwidth_fraction() > leaf.mode.bw.bandwidth_fraction());
    }
}
