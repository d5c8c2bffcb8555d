//! The discrete-event simulation engine.
//!
//! Wires the processor front-end, the link fabric, the per-module vault
//! arrays and the power controller together and runs the event loop for
//! the configured evaluation period.
//!
//! ## Packet life cycle
//!
//! 1. The front-end injects a read/write request into the request link of
//!    the root module.
//! 2. Each link serializes the packet (flit time × flits at the current
//!    bandwidth mode), hands it to the receiving module after one SERDES
//!    latency, and the router forwards it toward the destination after a
//!    4-cycle router latency.
//! 3. At the destination the request enters the addressed vault (buffered
//!    in the module's ingress hold if the 16-entry vault queue is full).
//! 4. Read completions generate 5-flit response packets that retrace the
//!    path upstream; the front-end retires the transaction when the
//!    response reaches the processor.
//!
//! ## Power management hooks
//!
//! Every link enqueue/transmission feeds the [`PowerController`]; epoch
//! boundaries apply its mode decisions (bandwidth changes take the
//! mechanism's reconfiguration latency); rapid-on/off links turn off after
//! their idleness threshold and wake on demand — or proactively for
//! response links when a DRAM read is in flight, with network-aware
//! wakeup chaining propagating wakes up the response path.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use memnet_dram::{line_to_vault_bank, IssuedOp, Vault, VaultOp};
use memnet_faults::FaultModel;
use memnet_net::link::{
    state_on_active, state_on_idle, state_retrans, LinkSim, STATE_OFF, STATE_WAKING,
};
use memnet_net::mech::{BwMode, DvfsLevel, LinkPowerMode, VwlWidth, N_BW_MODES};
use memnet_net::{Direction, LinkId, ModuleId, NodeRef, Packet, PacketKind, Topology};
use memnet_obs::{
    saturate_latency, EpochSample, LinkSample, ObsEvent, ObsEventKind, PktPoint,
    TimeSeriesRecorder, TraceMeta,
};
use memnet_policy::{PolicyKind, PowerController, ViolationAction};
use memnet_power::{EnergyBackend, EnergyBreakdown, IddModel, ModuleActivity};
use memnet_simcore::audit::approx_eq_rel;
use memnet_simcore::{AuditLevel, Auditor, EventQueue, FastHashState, SimDuration, SimTime};

use crate::config::{AddressMapping, SimConfig};
use crate::frontend::{Frontend, InjectStep};
use crate::limits::{LimitedRun, RunLimits, RunProgress, StopReason};
use crate::metrics::{FaultSummary, LinkTelemetry, PowerSummary, RunReport};

/// Router traversal latency: four pipeline cycles at the 0.64 ns flit
/// clock.
pub const ROUTER_LATENCY: SimDuration = SimDuration::from_ps(4 * 640);

/// Index into the engine's packet pool. Events reference in-flight packets
/// by slot instead of embedding the 40-byte [`Packet`], which keeps an
/// [`Event`] at 32 bytes: with its 16-byte key and link, one event-queue
/// node then fills a single 64-byte cache line instead of straddling two.
type PktSlot = u32;

#[derive(Debug, Clone)]
enum Event {
    TryInject,
    LinkTryStart(LinkId),
    LinkDone(LinkId),
    Deliver(LinkId, PktSlot),
    EnqueueLink(LinkId, PktSlot),
    VaultIngress(ModuleId, PktSlot),
    VaultTick(ModuleId, usize),
    VaultDone(ModuleId, usize, u64, bool),
    WakeDone(LinkId),
    LinkRetry(LinkId),
    TurnOffCheck(LinkId, SimTime),
    ModeApply(LinkId),
    ChainWake(LinkId),
    EpochEnd,
}

/// The assembled simulator. Construct with [`Engine::new`], execute with
/// [`Engine::run`].
pub struct Engine {
    cfg: SimConfig,
    /// Shared with the [`PowerController`]; never mutated after
    /// construction (route-around rewrites happen before the share).
    topo: Arc<Topology>,
    queue: EventQueue<Event>,
    now: SimTime,
    end: SimTime,

    links: Vec<LinkSim>,
    /// In-flight transmission per link: (packet, queue arrival, start).
    in_flight: Vec<Option<(Packet, SimTime, SimTime)>>,
    /// Packets delivered out of each link (audit conservation counter).
    delivered: Vec<u64>,
    /// Packets past the transmitter but still in the SERDES window
    /// (Deliver scheduled, not yet processed).
    in_serdes: Vec<u64>,

    /// Vaults per module (`cfg.dram.vaults`), the row stride of the flat
    /// per-vault arrays below (index `module * n_vaults + vault`).
    n_vaults: usize,
    vaults: Vec<Vault>,
    /// Module-side ingress hold per vault (packet, original arrival).
    vault_hold: Vec<VecDeque<(Packet, SimTime)>>,
    /// Earliest scheduled tick per vault (event dedup).
    vault_tick_at: Vec<SimTime>,
    /// Reads currently inside each module's vaults (for wakeup chaining).
    vault_reads_in_flight: Vec<u32>,
    /// Scratch buffer for [`Vault::advance_into`], reused across ticks.
    issued_scratch: Vec<IssuedOp>,

    controller: PowerController,
    /// Arena for the controller's per-epoch decisions, allocated once and
    /// reused every epoch (hot-path round 2: `epoch_end` used to return a
    /// fresh `Vec` per epoch).
    epoch_decisions: Vec<memnet_policy::LinkDecision>,
    frontend: Frontend,
    /// Prices metered activity into joules. Pricing is read-only with
    /// respect to simulation state, so swapping backends can never change
    /// anything but the energy sections of the report.
    backend: Box<dyn EnergyBackend>,

    /// Active fault model; `None` in fault-free runs so no fault RNG
    /// stream is ever advanced and results stay bit-identical to the
    /// pre-fault baseline.
    faults: Option<FaultModel>,
    /// Consecutive NAKs for the packet currently held by each link
    /// (reset when a transmission finally passes CRC).
    retry_attempts: Vec<u32>,
    /// Per-module reachability after route-around (all true without
    /// hard link failures).
    reachable: Vec<bool>,
    rerouted_modules: usize,
    unreachable_modules: usize,
    wake_timeouts: u64,

    /// Read packets awaiting their DRAM completion, keyed by packet id.
    /// Uses the deterministic Fx hasher: packet ids are trusted integers
    /// and SipHash showed up in the event-loop profile.
    outstanding_reads: HashMap<u64, Packet, FastHashState>,
    /// Slab of packets currently referenced by [`PktSlot`] event payloads.
    packet_pool: Vec<Packet>,
    /// Recycled slots of `packet_pool`.
    packet_free: Vec<PktSlot>,
    /// Cached `cfg.chunk_lines()` (one multiply + divide per lookup
    /// otherwise, and the mapping runs once per injected access).
    chunk_lines: u64,
    /// Cached module count as `u64` for the address mapping.
    n_modules: u64,
    /// First hop from the processor toward each destination module.
    root_of: Vec<ModuleId>,
    /// Flat next-hop table, `current * n + dest` → the next module on the
    /// unique tree path (sentinel when `current` is not on `dest`'s
    /// route). Replaces the per-packet linear scan of a route vector.
    next_hop: Vec<ModuleId>,
    next_packet_id: u64,
    /// Earliest pending TryInject event (dedup guard: completions and
    /// schedule waits would otherwise pile up duplicate events).
    inject_armed: SimTime,

    // --- metrics accumulation ---
    flits_routed: Vec<u64>,
    hops_sum: u64,
    hops_count: u64,
    events_processed: u64,
    audit: Auditor,

    // --- observability (crates/obs) ---
    /// The recorder, present only when `cfg.obs` is active: every hook
    /// site checks it, so the disabled path costs a single predictable
    /// branch and never constructs event payloads.
    obs: Option<Box<TimeSeriesRecorder>>,
    /// Per-epoch deltas for the sampler; `None` when observability is off.
    obs_epoch: Option<Box<ObsEpochState>>,
}

/// Cumulative counters at the last epoch boundary, used to turn the
/// engine's monotonic totals into per-epoch deltas. All reads the sampler
/// performs are pure, so sampling cannot perturb simulation results.
struct ObsEpochState {
    /// Index of the epoch currently accumulating.
    index: u64,
    /// Start instant of the epoch currently accumulating.
    start: SimTime,
    /// Residency snapshot per link at `start`.
    residency: Vec<Vec<SimDuration>>,
    /// Wake count per link at `start`.
    wakes: Vec<u64>,
    /// Retransmission count per link at `start`.
    retries: Vec<u64>,
    /// Vault read accesses issued per module at `start`.
    reads: Vec<u64>,
    /// Vault write accesses issued per module at `start`.
    writes: Vec<u64>,
    /// Flits routed per module at `start`.
    flits: Vec<u64>,
}

impl Engine {
    /// Builds the simulator for `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.dram` fails [`memnet_dram::DramParams::validate`];
    /// the vaults built here trust it.
    pub fn new(cfg: SimConfig) -> Engine {
        cfg.dram.validate().expect("invalid DRAM parameters");
        let n = cfg.n_hmcs();
        let built = Topology::build(cfg.topology, n);
        // Hard-failed upstream edges are routed around before anything
        // else sees the topology, so the controller, the routing tables
        // and the wake-chaining helpers all operate on the surviving tree.
        let (topo, rerouted_modules, unreachable) = if cfg.faults.hard_failed.is_empty() {
            (built, 0, Vec::new())
        } else {
            let failed: Vec<ModuleId> =
                cfg.faults.hard_failed.iter().map(|&m| ModuleId(m)).collect();
            let ra = built.route_around(&failed);
            (ra.topology, ra.rerouted.len(), ra.unreachable)
        };
        let topo = Arc::new(topo);
        let faults =
            (!cfg.faults.is_none()).then(|| FaultModel::new(&cfg.faults, topo.n_links(), cfg.seed));
        let start = SimTime::ZERO;
        let mut controller = PowerController::new(
            Arc::clone(&topo),
            cfg.policy_config(),
            cfg.dram.nominal_read_latency(),
        );
        // Initial modes apply at construction with no transition latency;
        // lane-degraded links are clamped to what they can physically run.
        let initial = controller.initial_decisions();
        let mut links: Vec<LinkSim> = initial
            .iter()
            .map(|d| {
                let lanes = faults.as_ref().and_then(|fm| fm.degraded_lanes(d.link.0));
                LinkSim::new(d.link, clamp_bw_to_lanes(d.mode.bw, lanes), start)
            })
            .collect();
        for (l, d) in links.iter_mut().zip(&initial) {
            l.set_roo_params(cfg.roo_params);
            l.set_roo_threshold(d.mode.roo);
        }
        let mut reachable = vec![true; n];
        for &m in &unreachable {
            reachable[m.0] = false;
            // A severed module's links can never carry traffic: drop
            // them to the 1 % off state for the whole run and keep the
            // ROO machinery from ever trying to wake them.
            for dir in [Direction::Request, Direction::Response] {
                let l = LinkId::of(m, dir);
                links[l.0].set_roo_threshold(None);
                links[l.0].turn_off(start);
            }
        }
        let n_vaults = cfg.dram.vaults;
        let vaults = (0..n * n_vaults).map(|_| Vault::new(&cfg.dram, start)).collect();
        let vault_hold = (0..n * n_vaults).map(|_| VecDeque::new()).collect();
        let vault_tick_at = vec![SimTime::MAX; n * n_vaults];
        let frontend =
            Frontend::new(cfg.traffic_source(), cfg.max_outstanding_reads, cfg.write_buffer);
        // Flatten the per-destination routes into a next-hop table so the
        // forwarding path is one indexed load instead of a route scan.
        let sentinel = ModuleId(usize::MAX);
        let mut root_of = vec![sentinel; n];
        let mut next_hop = vec![sentinel; n * n];
        for dest in topo.modules() {
            let route = topo.route(dest);
            root_of[dest.0] = route[0];
            for hop in route.windows(2) {
                next_hop[hop[0].0 * n + dest.0] = hop[1];
            }
        }
        let end = start + cfg.eval_period;
        let obs = cfg.obs.is_active().then(|| Box::new(TimeSeriesRecorder::new(cfg.obs.clone())));
        Engine {
            queue: EventQueue::with_capacity(4096),
            now: start,
            end,
            in_flight: vec![None; topo.n_links()],
            delivered: vec![0; topo.n_links()],
            in_serdes: vec![0; topo.n_links()],
            n_vaults,
            vaults,
            vault_hold,
            vault_tick_at,
            vault_reads_in_flight: vec![0; n],
            issued_scratch: Vec::with_capacity(32),
            controller,
            epoch_decisions: Vec::new(),
            frontend,
            backend: match &cfg.calibration {
                Some(model) => Box::new(IddModel::clone(model)),
                None => cfg.energy_backend.build(),
            },
            faults,
            retry_attempts: vec![0; topo.n_links()],
            reachable,
            rerouted_modules,
            unreachable_modules: unreachable.len(),
            wake_timeouts: 0,
            outstanding_reads: HashMap::default(),
            packet_pool: Vec::with_capacity(256),
            packet_free: Vec::with_capacity(256),
            chunk_lines: cfg.chunk_lines(),
            n_modules: n as u64,
            root_of,
            next_hop,
            next_packet_id: 0,
            inject_armed: SimTime::MAX,
            flits_routed: vec![0; n],
            hops_sum: 0,
            hops_count: 0,
            events_processed: 0,
            audit: Auditor::new(cfg.audit),
            obs,
            obs_epoch: None,
            links,
            topo,
            cfg,
        }
    }

    /// Runs the simulation to the end of the evaluation period and
    /// produces the report.
    pub fn run(self) -> RunReport {
        self.run_limited(RunLimits::none()).report
    }

    /// Runs the simulation under [`RunLimits`], stopping early when a
    /// wall-clock deadline, event budget, simulated-time cap or external
    /// cancellation fires. The report is finalized at the stop time, so
    /// early stops still produce audit-clean, conservation-balanced
    /// reports; an unlimited run is byte-identical to [`Engine::run`].
    pub fn run_limited(mut self, mut limits: RunLimits) -> LimitedRun {
        // A sim-time cap shorter than the evaluation period truncates the
        // run window up front: the loop below then stops at exactly the
        // same events a run configured with that period would process.
        let mut truncated = false;
        if let Some(cap) = limits.max_sim_time {
            let cap_at = SimTime::ZERO + cap;
            if cap_at < self.end {
                self.end = cap_at;
                truncated = true;
            }
        }
        let event_budget = limits.max_events.unwrap_or(u64::MAX);
        let deadline = limits.wall_time.map(|d| std::time::Instant::now() + d);
        // Wall clock, cancel flag and progress are polled every 4096
        // events: cheap enough to disappear from profiles, frequent
        // enough that cancellation latency stays in the milliseconds.
        let polled = deadline.is_some() || limits.cancel.is_some() || limits.progress_every > 0;
        let mut next_progress =
            if limits.progress_every > 0 { limits.progress_every } else { u64::MAX };
        let mut stop = None;

        self.begin();

        while let Some((t, ev)) = self.queue.pop_at_or_before(self.end) {
            self.dispatch(t, ev);
            if self.events_processed >= event_budget {
                stop = Some(StopReason::MaxEvents);
                break;
            }
            if polled && self.events_processed & 0xFFF == 0 {
                if let Some(flag) = &limits.cancel {
                    if flag.load(std::sync::atomic::Ordering::Relaxed) {
                        stop = Some(StopReason::Cancelled);
                        break;
                    }
                }
                if deadline.is_some_and(|d| std::time::Instant::now() >= d) {
                    stop = Some(StopReason::WallTime);
                    break;
                }
                if self.events_processed >= next_progress {
                    if let Some(cb) = &mut limits.progress {
                        cb(RunProgress { events: self.events_processed, now: self.now });
                    }
                    next_progress = next_progress.saturating_add(limits.progress_every);
                }
            }
        }
        let stop = match stop {
            // Early stop: the window ends at the last processed event so
            // residency accounting stays exact.
            Some(s) => {
                self.end = self.now;
                s
            }
            None => {
                self.now = self.end;
                if truncated {
                    StopReason::MaxSimTime
                } else {
                    StopReason::Completed
                }
            }
        };
        LimitedRun { report: self.finalize(), stop }
    }

    /// Arms the initial event population: idleness timers, the first
    /// injection, the first epoch boundary and the observability stream.
    /// Called exactly once, before the first `dispatch`.
    fn begin(&mut self) {
        // Arm idleness timers for links that start with an ROO threshold.
        for i in 0..self.topo.n_links() {
            self.arm_turnoff(LinkId(i));
        }
        let start = self.now;
        self.arm_inject(start);
        self.schedule(self.now + self.cfg.epoch, Event::EpochEnd);

        if let Some(obs) = self.obs.as_deref_mut() {
            let meta = TraceMeta {
                workload: self.cfg.workload.name,
                topology: self.cfg.topology.label(),
                policy: self.cfg.policy.label(),
                mechanism: self.cfg.mechanism.label(),
                seed: self.cfg.seed,
                epoch_ps: self.cfg.epoch.as_ps(),
                eval_ps: self.cfg.eval_period.as_ps(),
                n_links: self.topo.n_links() as u32,
                n_modules: self.topo.len() as u32,
            };
            obs.start(&meta);
            let n = self.topo.len();
            self.obs_epoch = Some(Box::new(ObsEpochState {
                index: 0,
                start: self.now,
                residency: self.links.iter().map(|l| l.residency_snapshot(start)).collect(),
                wakes: self.links.iter().map(|l| l.wake_count()).collect(),
                retries: self.links.iter().map(|l| l.retransmissions()).collect(),
                reads: vec![0; n],
                writes: vec![0; n],
                flits: vec![0; n],
            }));
        }
    }

    /// Processes one popped event: advances the clock, bumps the event
    /// counter, runs the Full-level monotonicity audit and handles the
    /// event.
    #[inline]
    fn dispatch(&mut self, t: SimTime, ev: Event) {
        debug_assert!(t >= self.now, "time went backwards");
        if self.audit.enabled(AuditLevel::Full) {
            let now = self.now;
            self.audit.check(AuditLevel::Full, "event-time-monotonic", t >= now, || {
                format!("event scheduled at {t} precedes current time {now}")
            });
        }
        self.now = t;
        self.events_processed += 1;
        self.handle(ev);
    }

    fn schedule(&mut self, at: SimTime, ev: Event) {
        self.queue.push(at, ev);
    }

    /// Parks a packet in the pool, returning the slot to embed in an
    /// event. Slots are reused LIFO so the hot set stays cache-resident.
    #[inline]
    fn pool_put(&mut self, pkt: Packet) -> PktSlot {
        match self.packet_free.pop() {
            Some(slot) => {
                self.packet_pool[slot as usize] = pkt;
                slot
            }
            None => {
                let slot = self.packet_pool.len() as PktSlot;
                self.packet_pool.push(pkt);
                slot
            }
        }
    }

    /// Retrieves a pooled packet and releases its slot.
    #[inline]
    fn pool_take(&mut self, slot: PktSlot) -> Packet {
        self.packet_free.push(slot);
        self.packet_pool[slot as usize]
    }

    /// Delivers a discrete observability event. Callers guard on
    /// `self.obs.is_some()` themselves when constructing the payload
    /// costs anything; the double check here is branch-predicted away.
    #[inline]
    fn obs_event(&mut self, kind: ObsEventKind) {
        if let Some(obs) = self.obs.as_deref_mut() {
            obs.record_event(&ObsEvent { t_ps: self.now.as_ps(), kind });
        }
    }

    /// Delivers a packet milestone when `cfg.obs.packets` asks for them.
    #[inline]
    fn pkt_event(&mut self, packet: &Packet, point: PktPoint) {
        if self.cfg.obs.packets {
            self.obs_event(ObsEventKind::Pkt {
                packet: packet.id,
                kind: packet.kind.label(),
                point,
            });
        }
    }

    fn handle(&mut self, ev: Event) {
        match ev {
            Event::TryInject => self.on_try_inject(),
            Event::LinkTryStart(l) => self.on_link_try_start(l),
            Event::LinkDone(l) => self.on_link_done(l),
            Event::Deliver(l, pkt) => self.on_deliver(l, pkt),
            Event::EnqueueLink(l, pkt) => self.on_enqueue_link(l, pkt),
            Event::VaultIngress(m, pkt) => self.on_vault_ingress(m, pkt),
            Event::VaultTick(m, v) => self.on_vault_tick(m, v),
            Event::VaultDone(m, v, id, is_read) => self.on_vault_done(m, v, id, is_read),
            Event::WakeDone(l) => self.on_wake_done(l),
            Event::LinkRetry(l) => self.on_link_retry(l),
            Event::TurnOffCheck(l, token) => self.on_turnoff_check(l, token),
            Event::ModeApply(l) => self.on_mode_apply(l),
            Event::ChainWake(l) => self.on_chain_wake(l),
            Event::EpochEnd => self.on_epoch_end(),
        }
    }

    // ------------------------------------------------------------------
    // Address mapping
    // ------------------------------------------------------------------

    fn module_of_line(&self, line: u64) -> ModuleId {
        let n = self.n_modules;
        let m = match self.cfg.mapping {
            AddressMapping::Contiguous => (line / self.chunk_lines).min(n - 1),
            AddressMapping::PageInterleaved => {
                // 4 KB pages (64 lines) rotate over modules.
                (line / 64) % n
            }
        };
        ModuleId(m as usize)
    }

    fn line_in_module(&self, line: u64) -> u64 {
        match self.cfg.mapping {
            AddressMapping::Contiguous => line % self.chunk_lines,
            AddressMapping::PageInterleaved => {
                let page = line / 64;
                (page / self.n_modules) * 64 + line % 64
            }
        }
    }

    // ------------------------------------------------------------------
    // Injection
    // ------------------------------------------------------------------

    /// Schedules a TryInject at `at` unless one is already pending at or
    /// before that time.
    fn arm_inject(&mut self, at: SimTime) {
        if at < self.inject_armed {
            self.inject_armed = at;
            self.schedule(at, Event::TryInject);
        }
    }

    fn on_try_inject(&mut self) {
        // Stale duplicate (a newer arm superseded this event): ignore.
        if self.inject_armed != self.now {
            return;
        }
        self.inject_armed = SimTime::MAX;
        loop {
            match self.frontend.step(self.now) {
                InjectStep::Inject(req) => {
                    let dest = self.module_of_line(req.line_addr);
                    if !self.reachable[dest.0] {
                        // The destination sits below a severed edge no
                        // spare port could bridge: the access cannot
                        // enter the network. Abort it at the front-end
                        // so its window slot is released and the loss
                        // is counted instead of hanging forever.
                        if req.is_read {
                            self.frontend.abort_read();
                        } else {
                            self.frontend.abort_write();
                        }
                        continue;
                    }
                    let kind = if req.is_read {
                        PacketKind::ReadRequest
                    } else {
                        PacketKind::WriteRequest
                    };
                    let pkt = Packet {
                        id: self.next_packet_id,
                        kind,
                        dest,
                        line_addr: req.line_addr,
                        created: self.now,
                    };
                    self.next_packet_id += 1;
                    self.pkt_event(&pkt, PktPoint::Inject);
                    self.hops_sum += u64::from(self.topo.depth(dest));
                    self.hops_count += 1;
                    let root = self.root_of[dest.0];
                    let link = LinkId::of(root, Direction::Request);
                    let now = self.now;
                    let slot = self.pool_put(pkt);
                    self.schedule(now, Event::EnqueueLink(link, slot));
                }
                InjectStep::WaitUntil(t) => {
                    self.arm_inject(t);
                    return;
                }
                InjectStep::ReadWindowFull | InjectStep::WriteBufferFull => return,
                // A finite (replay) source ran out: no further injections
                // this run. In-flight traffic still drains normally.
                InjectStep::Exhausted => return,
            }
        }
    }

    // ------------------------------------------------------------------
    // Links
    // ------------------------------------------------------------------

    fn on_enqueue_link(&mut self, l: LinkId, slot: PktSlot) {
        let pkt = self.pool_take(slot);
        self.controller.on_packet_arrival(l, self.now, pkt.kind.is_read());
        self.links[l.0].enqueue_unchecked(pkt, self.now);
        if self.links[l.0].is_off() {
            self.wake_link(l);
        } else if self.links[l.0].is_idle_on() {
            let now = self.now;
            self.schedule(now, Event::LinkTryStart(l));
        }
    }

    fn on_link_try_start(&mut self, l: LinkId) {
        if self.in_flight[l.0].is_some() {
            return;
        }
        let last_end = self.links[l.0].last_activity_end();
        if let Some((pkt, arrival, done)) = self.links[l.0].start_transmission(self.now) {
            // An idle gap ended: feed the ROO histogram.
            if self.now > last_end {
                self.controller.on_idle_interval(l, self.now - last_end);
            }
            self.pkt_event(&pkt, PktPoint::LinkStart(l.0 as u32));
            self.in_flight[l.0] = Some((pkt, arrival, self.now));
            self.schedule(done, Event::LinkDone(l));
        }
    }

    fn on_link_done(&mut self, l: LinkId) {
        // Link-level retry: the receiver CRC-checks the packet as its
        // last flit lands. A corrupted packet is NAK'd over the reverse
        // control channel and replayed from the transmitter's retry
        // buffer after the turnaround; `in_flight` stays occupied so the
        // link admits nothing new while the replay is pending. At the
        // retry limit the packet is delivered anyway (matching HMC-style
        // links, where an exhausted retry raises a machine check rather
        // than dropping traffic — the simulator keeps the traffic).
        if let Some(fm) = self.faults.as_mut() {
            let flits = self.in_flight[l.0].as_ref().expect("transmission in flight").0.flits();
            if self.retry_attempts[l.0] < fm.retry_limit() && fm.transmission_corrupted(l.0, flits)
            {
                self.retry_attempts[l.0] += 1;
                if self.obs.is_some() {
                    let attempt = self.retry_attempts[l.0];
                    self.obs_event(ObsEventKind::Nak { link: l.0 as u32, attempt });
                }
                self.links[l.0].finish_transmission(self.now);
                let at = self.now + self.links[l.0].retry_turnaround();
                self.schedule(at, Event::LinkRetry(l));
                return;
            }
        }
        self.retry_attempts[l.0] = 0;
        self.links[l.0].finish_transmission(self.now);
        let (pkt, arrival, start) = self.in_flight[l.0].take().expect("transmission in flight");
        self.pkt_event(&pkt, PktPoint::LinkDone(l.0 as u32));
        // Route/SERDES energy is charged to the downstream module.
        self.flits_routed[l.edge_module().0] += pkt.flits();
        // The measured departure includes any SERDES stretch beyond the
        // nominal pipeline (the constant base latency cancels against FEL).
        let departure = self.now + self.links[l.0].serdes_overhead();
        let action = self.controller.on_packet_departure(
            l,
            arrival,
            start,
            departure,
            pkt.flits(),
            pkt.kind.is_read(),
        );
        if action == ViolationAction::ForceFullPower {
            self.force_full_power(l);
        }
        let serdes = self.links[l.0].serdes_latency();
        let deliver_at = self.now + serdes;
        self.in_serdes[l.0] += 1;
        let slot = self.pool_put(pkt);
        self.schedule(deliver_at, Event::Deliver(l, slot));
        if self.links[l.0].queue_len() > 0 {
            let now = self.now;
            self.schedule(now, Event::LinkTryStart(l));
        } else {
            self.arm_turnoff(l);
        }
    }

    /// Replays the NAK'd packet still held in `in_flight` after the retry
    /// turnaround has elapsed.
    fn on_link_retry(&mut self, l: LinkId) {
        let flits = self.in_flight[l.0].as_ref().expect("retry without a held packet").0.flits();
        let done = self.links[l.0].start_retransmission(self.now, flits);
        self.schedule(done, Event::LinkDone(l));
    }

    fn on_deliver(&mut self, l: LinkId, slot: PktSlot) {
        self.in_serdes[l.0] -= 1;
        self.delivered[l.0] += 1;
        let m = l.edge_module();
        // Copy the packet out but keep the slot: every forwarding path
        // hands the same slot to the next event without touching the pool.
        let pkt = self.packet_pool[slot as usize];
        match l.direction() {
            Direction::Request => {
                if pkt.dest == m {
                    let at = self.now + ROUTER_LATENCY;
                    self.schedule(at, Event::VaultIngress(m, slot));
                } else {
                    // Forward toward the destination: one next-hop load.
                    let next = self.next_hop[m.0 * self.topo.len() + pkt.dest.0];
                    debug_assert!(next.0 != usize::MAX, "module on route");
                    let at = self.now + ROUTER_LATENCY;
                    self.schedule(
                        at,
                        Event::EnqueueLink(LinkId::of(next, Direction::Request), slot),
                    );
                }
            }
            Direction::Response => match self.topo.parent(m) {
                NodeRef::Processor => {
                    self.packet_free.push(slot);
                    self.pkt_event(&pkt, PktPoint::Retire);
                    self.frontend.complete_read(self.now - pkt.created);
                    let now = self.now;
                    self.arm_inject(now);
                }
                NodeRef::Module(p) => {
                    let at = self.now + ROUTER_LATENCY;
                    self.schedule(at, Event::EnqueueLink(LinkId::of(p, Direction::Response), slot));
                }
            },
        }
    }

    // ------------------------------------------------------------------
    // Vaults
    // ------------------------------------------------------------------

    /// Flat index of module `m`'s vault `v` in the per-vault arrays.
    #[inline]
    fn vidx(&self, m: ModuleId, v: usize) -> usize {
        m.0 * self.n_vaults + v
    }

    fn on_vault_ingress(&mut self, m: ModuleId, slot: PktSlot) {
        let pkt = self.pool_take(slot);
        self.pkt_event(&pkt, PktPoint::VaultEnqueue(m.0 as u32));
        let line = self.line_in_module(pkt.line_addr);
        let (v, bank) = line_to_vault_bank(line, &self.cfg.dram);
        if pkt.kind == PacketKind::ReadRequest {
            self.vault_reads_in_flight[m.0] += 1;
            self.outstanding_reads.insert(pkt.id, pkt);
        } else {
            // Posted write: absorbed into the module.
            self.frontend.retire_write();
            let now = self.now;
            self.arm_inject(now);
        }
        let op = VaultOp {
            id: pkt.id,
            bank,
            is_read: pkt.kind == PacketKind::ReadRequest,
            arrival: self.now,
        };
        let idx = self.vidx(m, v);
        if self.vaults[idx].enqueue(op).is_ok() {
            self.arm_vault_tick(m, v);
        } else {
            self.vault_hold[idx].push_back((pkt, self.now));
        }
    }

    fn arm_vault_tick(&mut self, m: ModuleId, v: usize) {
        let idx = self.vidx(m, v);
        if let Some(t) = self.vaults[idx].next_issue_time(self.now) {
            if t < self.vault_tick_at[idx] {
                self.vault_tick_at[idx] = t;
                self.schedule(t, Event::VaultTick(m, v));
            }
        }
    }

    fn on_vault_tick(&mut self, m: ModuleId, v: usize) {
        let idx = self.vidx(m, v);
        self.vault_tick_at[idx] = SimTime::MAX;
        let mut issued = std::mem::take(&mut self.issued_scratch);
        issued.clear();
        self.vaults[idx].advance_into(self.now, &mut issued);
        let mut reads_issued = false;
        for op in &issued {
            reads_issued |= op.op.is_read;
            self.schedule(op.completion, Event::VaultDone(m, v, op.op.id, op.op.is_read));
        }
        self.issued_scratch = issued;
        // Proactively wake the module's response link while the DRAM
        // array is being read (both §V and §VI do this for ROO links);
        // the ≥30 ns access hides the 14 ns wake.
        if reads_issued && self.cfg.mechanism.uses_roo() {
            self.wake_response_for_read(m);
        }
        self.drain_vault_hold(m, v);
        self.arm_vault_tick(m, v);
    }

    fn drain_vault_hold(&mut self, m: ModuleId, v: usize) {
        let idx = self.vidx(m, v);
        while self.vaults[idx].has_space() {
            let Some((pkt, arrival)) = self.vault_hold[idx].pop_front() else { break };
            let line = self.line_in_module(pkt.line_addr);
            let (_, bank) = line_to_vault_bank(line, &self.cfg.dram);
            let op =
                VaultOp { id: pkt.id, bank, is_read: pkt.kind == PacketKind::ReadRequest, arrival };
            self.vaults[idx].enqueue(op).expect("space was checked");
        }
    }

    fn on_vault_done(&mut self, m: ModuleId, v: usize, id: u64, is_read: bool) {
        if is_read {
            self.controller.on_dram_read(m);
            self.vault_reads_in_flight[m.0] -= 1;
            let pkt =
                self.outstanding_reads.remove(&id).expect("read completion for unknown packet");
            self.pkt_event(&pkt, PktPoint::VaultDone(m.0 as u32));
            let resp = pkt.to_response();
            let at = self.now + ROUTER_LATENCY;
            let slot = self.pool_put(resp);
            self.schedule(at, Event::EnqueueLink(LinkId::of(m, Direction::Response), slot));
        }
        self.drain_vault_hold(m, v);
        self.arm_vault_tick(m, v);
    }

    // ------------------------------------------------------------------
    // ROO mechanics
    // ------------------------------------------------------------------

    fn wake_link(&mut self, l: LinkId) {
        if !self.links[l.0].is_off() {
            return;
        }
        let mut done = self.links[l.0].start_wake(self.now);
        if self.obs.is_some() {
            self.obs_event(ObsEventKind::Wake { link: l.0 as u32 });
        }
        if let Some(fm) = self.faults.as_mut() {
            if fm.wake_times_out(l.0) {
                // The wake handshake missed its training window; one
                // more full wakeup interval retrains the link.
                self.wake_timeouts += 1;
                done = done + (done - self.now);
                if self.obs.is_some() {
                    self.obs_event(ObsEventKind::WakeTimeout { link: l.0 as u32 });
                }
            }
        }
        self.schedule(done, Event::WakeDone(l));
        // Network-aware chaining: a waking response link warns its
        // upstream response link so the wake latency pipelines.
        if self.controller.wake_chaining() && l.direction() == Direction::Response {
            self.propagate_chain(l);
        }
    }

    fn propagate_chain(&mut self, l: LinkId) {
        if let Some(up) = self.topo.upstream_same_type(l) {
            let mode = self.links[l.0].bw_mode();
            let wait = ROUTER_LATENCY + mode.serdes_latency() + mode.flit_time() * 5;
            let at = self.now + wait;
            self.schedule(at, Event::ChainWake(up));
        }
    }

    fn on_chain_wake(&mut self, l: LinkId) {
        if self.links[l.0].is_off() {
            if self.obs.is_some() {
                self.obs_event(ObsEventKind::ChainWake { link: l.0 as u32 });
            }
            self.wake_link(l);
        }
    }

    /// Wakes the response link of module `m` because its DRAM is being
    /// read (hides the wake latency behind the ≥ 30 ns DRAM access).
    fn wake_response_for_read(&mut self, m: ModuleId) {
        let resp = LinkId::of(m, Direction::Response);
        if self.links[resp.0].is_off() {
            self.wake_link(resp);
        }
    }

    fn on_wake_done(&mut self, l: LinkId) {
        self.links[l.0].finish_wake(self.now);
        if self.obs.is_some() {
            self.obs_event(ObsEventKind::WakeDone { link: l.0 as u32 });
        }
        let now = self.now;
        self.schedule(now, Event::LinkTryStart(l));
        self.arm_turnoff(l);
    }

    /// Schedules a turn-off check if the link is on-idle with a threshold.
    fn arm_turnoff(&mut self, l: LinkId) {
        let Some(thr) = self.links[l.0].roo_threshold() else { return };
        let Some(since) = self.links[l.0].idle_since() else { return };
        let fire = (since + thr.threshold()).max(self.now);
        self.schedule(fire, Event::TurnOffCheck(l, since));
    }

    fn on_turnoff_check(&mut self, l: LinkId, token: SimTime) {
        if self.in_flight[l.0].is_some() {
            // A NAK'd packet is waiting out its retry turnaround: the
            // link is on-idle but must stay up for the replay. The
            // success path re-arms the idleness timer afterwards.
            return;
        }
        let link = &self.links[l.0];
        let Some(thr) = link.roo_threshold() else { return };
        if link.idle_since() != Some(token) || link.queue_len() > 0 {
            return; // stale: the link was active since this was armed
        }
        if self.now.saturating_since(token) < thr.threshold() {
            // Threshold shrank/grew mid-wait: re-arm at the right instant.
            self.arm_turnoff(l);
            return;
        }
        // Network-aware chaining: a response link only turns off when its
        // module's DRAM is quiet and every downstream response link is off
        // (their transmitters live on this module, so the state is local).
        if self.controller.wake_chaining() && l.direction() == Direction::Response {
            let m = l.edge_module();
            // Equivalent to `downstream_same_type(l)` without allocating:
            // the downstream response links are the children's.
            let links = &self.links;
            let children_off = self
                .topo
                .children(m)
                .iter()
                .all(|&c| links[LinkId::of(c, Direction::Response).0].is_off());
            if self.vault_reads_in_flight[m.0] > 0 || !children_off {
                let recheck = self.now + thr.threshold();
                self.schedule(recheck, Event::TurnOffCheck(l, token));
                return;
            }
        }
        self.links[l.0].turn_off(self.now);
        if self.obs.is_some() {
            self.obs_event(ObsEventKind::TurnOff { link: l.0 as u32 });
        }
        // Turning off may unblock an upstream response link's turn-off;
        // its own re-check event will observe the new state.
    }

    // ------------------------------------------------------------------
    // Mode management
    // ------------------------------------------------------------------

    fn apply_decision(&mut self, link: LinkId, mode: LinkPowerMode) {
        // Links below an unbridged hard failure were shut down at
        // construction and take no further decisions.
        if !self.reachable[link.edge_module().0] {
            return;
        }
        if self.audit.enabled(AuditLevel::Full) {
            let mech = self.cfg.mechanism;
            self.audit.check(AuditLevel::Full, "mode-transition-legal", mech.allows(mode), || {
                format!("link {link:?}: decision {mode:?} is not a candidate of {mech:?}")
            });
        }
        // Physical-layer clamp, applied *after* the legality audit (the
        // audit judges the controller's decision; the clamp models a
        // lane-degraded link refusing lanes it no longer has).
        let mode = match &self.faults {
            Some(fm) => LinkPowerMode {
                bw: clamp_bw_to_lanes(mode.bw, fm.degraded_lanes(link.0)),
                roo: mode.roo,
            },
            None => mode,
        };
        // Trace only real transitions: re-selecting the current mode is
        // the common case and would drown the trace in no-ops.
        if self.obs.is_some()
            && (mode.bw != self.links[link.0].bw_mode()
                || mode.roo != self.links[link.0].roo_threshold())
        {
            self.obs_event(ObsEventKind::Mode {
                link: link.0 as u32,
                bw: mode.bw.label(),
                roo: mode.roo.map(|t| t.label()),
            });
        }
        let pending_at = self.links[link.0].request_bw_mode(mode.bw, self.now);
        if let Some(at) = pending_at {
            self.schedule(at, Event::ModeApply(link));
        }
        self.links[link.0].set_roo_threshold(mode.roo);
        if mode.roo.is_some() {
            self.arm_turnoff(link);
        }
    }

    fn force_full_power(&mut self, link: LinkId) {
        let full = self.cfg.mechanism.full_mode();
        if self.obs.is_some() {
            self.obs_event(ObsEventKind::ForcedFull { link: link.0 as u32 });
        }
        self.links[link.0].cancel_pending_bw();
        self.apply_decision(link, full);
    }

    fn on_mode_apply(&mut self, l: LinkId) {
        self.links[l.0].apply_pending_bw(self.now);
        if self.links[l.0].is_idle_on() && self.links[l.0].queue_len() > 0 {
            let now = self.now;
            self.schedule(now, Event::LinkTryStart(l));
        }
    }

    fn on_epoch_end(&mut self) {
        // Sample *before* `epoch_end` dispatches and resets the per-epoch
        // monitor state: the budgets, FLO estimates and histograms read
        // here are the ones that governed the closing epoch.
        if self.obs.is_some() {
            self.obs_sample_epoch();
            if self.cfg.policy == PolicyKind::NetworkAware {
                let rounds = self.cfg.isp_iterations as u32;
                self.obs_event(ObsEventKind::Isp { rounds });
            }
        }
        let mut decisions = std::mem::take(&mut self.epoch_decisions);
        self.controller.epoch_end_into(self.now, &mut decisions);
        for d in &decisions {
            self.apply_decision(d.link, d.mode);
        }
        self.epoch_decisions = decisions;
        self.controller.audit_epoch(&mut self.audit);
        let next = self.now + self.cfg.epoch;
        self.schedule(next, Event::EpochEnd);
    }

    // ------------------------------------------------------------------
    // Observability sampling
    // ------------------------------------------------------------------

    /// Closes the accumulating observation epoch at `self.now`: prices the
    /// residency gained since the last boundary through the same linear
    /// power model `finalize` uses (so per-epoch energies telescope to the
    /// run totals), snapshots the controller's per-link budgets and FLO
    /// estimates, and hands the sample to the recorder. Every read here is
    /// pure — sampling cannot change simulation results.
    fn obs_sample_epoch(&mut self) {
        let Some(mut st) = self.obs_epoch.take() else { return };
        let now = self.now;
        let mut energy = EnergyBreakdown::default();
        let mut links = Vec::with_capacity(self.links.len());
        for (i, link) in self.links.iter().enumerate() {
            let snap = link.residency_snapshot(now);
            let delta: Vec<SimDuration> =
                snap.iter().zip(&st.residency[i]).map(|(a, b)| *a - *b).collect();
            energy += self.backend.link_energy(&delta);
            let (mut idle, mut active, mut retrans) =
                (SimDuration::ZERO, SimDuration::ZERO, SimDuration::ZERO);
            for m in 0..N_BW_MODES {
                let bw = BwMode::from_index(m);
                idle += delta[state_on_idle(bw)];
                active += delta[state_on_active(bw)];
                retrans += delta[state_retrans(bw)];
            }
            let l = LinkId(i);
            links.push(LinkSample {
                link: i as u32,
                bw: link.bw_mode().label(),
                roo: link.roo_threshold().map(|t| t.label()),
                off_ps: delta[STATE_OFF].as_ps(),
                waking_ps: delta[STATE_WAKING].as_ps(),
                idle_ps: idle.as_ps(),
                active_ps: active.as_ps(),
                retrans_ps: retrans.as_ps(),
                queue_depth: link.queue_len() as u32,
                wakes: link.wake_count() - st.wakes[i],
                retries: link.retransmissions() - st.retries[i],
                budget_ps: saturate_latency(self.controller.budget(l)),
                flo_ps: saturate_latency(self.controller.flo_estimate(l)),
            });
            st.residency[i] = snap;
            st.wakes[i] = link.wake_count();
            st.retries[i] = link.retransmissions();
        }
        for m in self.topo.modules() {
            let row = m.0 * self.n_vaults..(m.0 + 1) * self.n_vaults;
            let reads: u64 = self.vaults[row.clone()].iter().map(|v| v.reads_issued()).sum();
            let writes: u64 = self.vaults[row].iter().map(|v| v.writes_issued()).sum();
            energy += self.backend.module_energy(
                self.topo.radix(m),
                st.start,
                now,
                &ModuleActivity {
                    dram_reads: reads - st.reads[m.0],
                    dram_writes: writes - st.writes[m.0],
                    flits_routed: self.flits_routed[m.0] - st.flits[m.0],
                },
            );
            st.reads[m.0] = reads;
            st.writes[m.0] = writes;
            st.flits[m.0] = self.flits_routed[m.0];
        }
        let sample = EpochSample {
            epoch: st.index,
            start_ps: st.start.as_ps(),
            end_ps: now.as_ps(),
            energy_j: energy.categories(),
            pool_ps: saturate_latency(self.controller.rescue_pool()),
            violations: self.controller.violations(),
            isp_rounds: if self.cfg.policy == PolicyKind::NetworkAware {
                self.cfg.isp_iterations as u32
            } else {
                0
            },
            links,
        };
        st.index += 1;
        st.start = now;
        self.obs_epoch = Some(st);
        if let Some(obs) = self.obs.as_deref_mut() {
            obs.record_epoch(sample);
        }
    }

    // ------------------------------------------------------------------
    // Finalization
    // ------------------------------------------------------------------

    pub(crate) fn finalize(mut self) -> RunReport {
        // Close the trailing partial epoch (skipped when the evaluation
        // period is an exact multiple of the epoch: the final EpochEnd
        // event already sampled at `end`).
        if self.obs_epoch.as_ref().is_some_and(|st| self.now > st.start) {
            self.obs_sample_epoch();
        }
        let obs_section = self.obs.as_deref_mut().map(TimeSeriesRecorder::finish);
        let mut audit = self.audit;
        let window = self.end - SimTime::ZERO;
        let mut energy = EnergyBreakdown::default();
        let mut telemetry = Vec::with_capacity(self.links.len());
        for link in &self.links {
            let snap = link.residency_snapshot(self.end);
            if audit.enabled(AuditLevel::Cheap) {
                let covered: SimDuration = snap.iter().copied().sum();
                let id = link.id();
                audit.check(
                    AuditLevel::Cheap,
                    "residency-covers-window",
                    covered == window,
                    || format!("link {id:?}: residency sums to {covered}, window is {window}"),
                );
                // Per-link packet conservation: everything accepted into
                // the queue was transmitted or is still queued, and
                // everything transmitted was delivered or is still on the
                // wire (transmitting or in the SERDES window).
                let sent = link.packets_sent();
                let queued = link.queue_len() as u64;
                let enqueued = link.packets_enqueued();
                audit.check(
                    AuditLevel::Cheap,
                    "link-queue-conservation",
                    enqueued == sent + queued,
                    || format!("link {id:?}: {enqueued} enqueued != {sent} sent + {queued} queued"),
                );
                let transmitting = u64::from(self.in_flight[id.0].is_some());
                let delivered = self.delivered[id.0];
                let in_serdes = self.in_serdes[id.0];
                audit.check(
                    AuditLevel::Cheap,
                    "link-delivery-conservation",
                    sent == delivered + in_serdes + transmitting,
                    || {
                        format!(
                            "link {id:?}: {sent} sent != {delivered} delivered + \
                             {in_serdes} in SERDES + {transmitting} transmitting"
                        )
                    },
                );
            }
            energy += self.backend.link_energy(&snap);
            let mut mode_time = [SimDuration::ZERO; memnet_net::mech::N_BW_MODES];
            for (i, mt) in mode_time.iter_mut().enumerate() {
                *mt = snap[2 + 2 * i] + snap[3 + 2 * i];
            }
            let mut retrans_time = [SimDuration::ZERO; memnet_net::mech::N_BW_MODES];
            for (i, rt) in retrans_time.iter_mut().enumerate() {
                *rt = snap[state_retrans(BwMode::from_index(i))];
            }
            telemetry.push(LinkTelemetry {
                link: link.id(),
                utilization: link.busy_time(self.end).ratio(window),
                mode_time,
                off_time: snap[memnet_net::link::STATE_OFF],
                waking_time: snap[memnet_net::link::STATE_WAKING],
                wake_count: link.wake_count(),
                retrans_time,
                retrans_flits: link.retrans_flits(),
                retransmissions: link.retransmissions(),
            });
        }
        for m in self.topo.modules() {
            let row = m.0 * self.n_vaults..(m.0 + 1) * self.n_vaults;
            let reads: u64 = self.vaults[row.clone()].iter().map(|v| v.reads_issued()).sum();
            let writes: u64 = self.vaults[row].iter().map(|v| v.writes_issued()).sum();
            energy += self.backend.module_energy(
                self.topo.radix(m),
                SimTime::ZERO,
                self.end,
                &ModuleActivity {
                    dram_reads: reads,
                    dram_writes: writes,
                    flits_routed: self.flits_routed[m.0],
                },
            );
        }

        let root_req = &telemetry[LinkId::of(ModuleId(0), Direction::Request).0];
        let root_resp = &telemetry[LinkId::of(ModuleId(0), Direction::Response).0];
        let channel_utilization = root_req.utilization.max(root_resp.utilization);
        let link_utilization =
            telemetry.iter().map(|t| t.utilization).sum::<f64>() / telemetry.len() as f64;

        let completed = self.frontend.completed_reads() + self.frontend.retired_writes();
        let fault_summary = FaultSummary {
            retries: self.links.iter().map(|l| l.retransmissions()).sum(),
            retransmitted_flits: self.links.iter().map(|l| l.retrans_flits()).sum(),
            retransmission_energy: energy.retrans_io,
            wake_timeouts: self.wake_timeouts,
            aborted_accesses: self.frontend.aborted_reads() + self.frontend.aborted_writes(),
            rerouted_modules: self.rerouted_modules,
            unreachable_modules: self.unreachable_modules,
        };
        let mut report = RunReport {
            workload: self.cfg.workload.name,
            topology: self.cfg.topology,
            scale: self.cfg.scale.label(),
            policy: self.cfg.policy.label(),
            mechanism: self.cfg.mechanism.label(),
            alpha: self.cfg.alpha,
            power: PowerSummary { energy, window, n_hmcs: self.topo.len() },
            channel_utilization,
            link_utilization,
            avg_modules_traversed: if self.hops_count == 0 {
                0.0
            } else {
                self.hops_sum as f64 / self.hops_count as f64
            },
            completed_reads: self.frontend.completed_reads(),
            retired_writes: self.frontend.retired_writes(),
            injected_accesses: self.frontend.injected_reads() + self.frontend.injected_writes(),
            mean_read_latency_ns: self.frontend.read_latency().mean(),
            max_read_latency_ns: self.frontend.read_latency().max().unwrap_or(0.0),
            accesses_per_us: completed as f64 / window.as_us(),
            epochs: self.controller.epochs_completed(),
            violations: self.controller.violations(),
            events_processed: self.events_processed,
            audit: Default::default(),
            faults: fault_summary,
            links: telemetry,
            obs: obs_section,
        };
        if audit.enabled(AuditLevel::Cheap) {
            // Double-entry energy conservation: reprice the per-link
            // telemetry independently and diff against the accumulated
            // breakdown. The epsilon only absorbs float-summation-order
            // noise — a real bookkeeping bug is orders of magnitude wider.
            let expected = report.expected_io_energy(self.backend.as_ref());
            let actual = report.power.energy.io_total();
            audit.check(
                AuditLevel::Cheap,
                "io-energy-conservation",
                approx_eq_rel(expected, actual, 1e-9),
                || {
                    format!(
                        "accumulated I/O energy {actual} J != {expected} J \
                         repriced from residency telemetry"
                    )
                },
            );
            // Double-entry check for the fault subsystem's ledger: the
            // accumulated retransmission energy must equal the per-link
            // replay residency repriced independently at each mode's
            // active power (exactly zero against zero when fault-free).
            audit.check_conservation(
                AuditLevel::Cheap,
                "retrans-energy-conservation",
                report.expected_retrans_io_energy(self.backend.as_ref()),
                report.power.energy.retrans_io,
                1e-9,
            );
            audit.check(
                AuditLevel::Cheap,
                "energy-physical",
                report.power.energy.is_physical(),
                || {
                    format!(
                        "energy breakdown has a negative or non-finite category: {:?}",
                        report.power.energy
                    )
                },
            );
            // Front-end transaction conservation: nothing completes that
            // was never injected, nothing injected vanishes.
            let fe = &self.frontend;
            audit.check(
                AuditLevel::Cheap,
                "read-conservation",
                fe.injected_reads()
                    == fe.completed_reads() + fe.outstanding_reads() as u64 + fe.aborted_reads(),
                || {
                    format!(
                        "{} reads injected != {} completed + {} outstanding + {} aborted",
                        fe.injected_reads(),
                        fe.completed_reads(),
                        fe.outstanding_reads(),
                        fe.aborted_reads()
                    )
                },
            );
            audit.check(
                AuditLevel::Cheap,
                "write-conservation",
                fe.injected_writes()
                    == fe.retired_writes() + fe.outstanding_writes() as u64 + fe.aborted_writes(),
                || {
                    format!(
                        "{} writes injected != {} retired + {} outstanding + {} aborted",
                        fe.injected_writes(),
                        fe.retired_writes(),
                        fe.outstanding_writes(),
                        fe.aborted_writes()
                    )
                },
            );
        }
        self.controller.audit_epoch(&mut audit);
        report.audit = audit.finish();
        report
    }
}

/// Clamps a bandwidth mode to what a lane-degraded link can physically
/// sustain: the widest VWL width whose lane count fits the surviving
/// lanes, or the fastest DVFS level whose bandwidth fraction fits
/// (falling back to the narrowest point when nothing does). `None`
/// means the link is healthy and the mode passes through untouched.
fn clamp_bw_to_lanes(bw: BwMode, lanes: Option<u8>) -> BwMode {
    let Some(lanes) = lanes else { return bw };
    match bw {
        BwMode::Vwl(w) if w.lanes() <= u32::from(lanes) => bw,
        BwMode::Vwl(_) => BwMode::Vwl(
            VwlWidth::ALL
                .into_iter()
                .find(|w| w.lanes() <= u32::from(lanes))
                .unwrap_or(VwlWidth::W1),
        ),
        BwMode::Dvfs(level) => {
            let cap = f64::from(lanes) / 16.0;
            if level.bandwidth_fraction() <= cap {
                bw
            } else {
                BwMode::Dvfs(
                    DvfsLevel::ALL
                        .into_iter()
                        .find(|l| l.bandwidth_fraction() <= cap)
                        .unwrap_or(DvfsLevel::P14),
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn audited_cfg(eval_us: u64) -> SimConfig {
        SimConfig::builder()
            .workload("mixD")
            .eval_period(SimDuration::from_us(eval_us))
            .seed(7)
            .audit(AuditLevel::Full)
            .build()
            .expect("valid configuration")
    }

    #[test]
    #[should_panic(expected = "invalid DRAM parameters")]
    fn invalid_dram_parameters_are_refused_before_any_vault_is_built() {
        let mut cfg = audited_cfg(20);
        cfg.dram.vault_buffer_entries = 0;
        let _ = Engine::new(cfg);
    }

    #[test]
    fn sim_time_cap_is_byte_identical_to_a_shorter_eval_period() {
        let direct = audited_cfg(50).run();
        let limits =
            RunLimits { max_sim_time: Some(SimDuration::from_us(50)), ..RunLimits::none() };
        let capped = Engine::new(audited_cfg(1_000)).run_limited(limits);
        assert_eq!(capped.stop, StopReason::MaxSimTime);
        assert_eq!(
            serde::json::to_string(&capped.report),
            serde::json::to_string(&direct),
            "a sim-time-capped run must equal the directly configured shorter run"
        );
        // A cap at or past the evaluation period is not a truncation.
        let limits =
            RunLimits { max_sim_time: Some(SimDuration::from_us(50)), ..RunLimits::none() };
        let uncapped = Engine::new(audited_cfg(50)).run_limited(limits);
        assert_eq!(uncapped.stop, StopReason::Completed);
    }

    #[test]
    fn event_budget_stops_exactly_and_stays_audit_clean() {
        let out = Engine::new(audited_cfg(1_000))
            .run_limited(RunLimits { max_events: Some(500), ..RunLimits::none() });
        assert_eq!(out.stop, StopReason::MaxEvents);
        assert_eq!(out.report.events_processed, 500, "the budget is exact");
        assert!(out.report.audit.checks_run > 0);
        assert!(
            out.report.audit.violations.is_empty(),
            "stopping at an event boundary keeps conservation audits clean: {:?}",
            out.report.audit.violations
        );
    }

    #[test]
    fn pre_set_cancel_flag_stops_at_the_first_poll() {
        let flag = Arc::new(std::sync::atomic::AtomicBool::new(true));
        let out = Engine::new(audited_cfg(1_000))
            .run_limited(RunLimits { cancel: Some(flag), ..RunLimits::none() });
        assert_eq!(out.stop, StopReason::Cancelled);
        assert_eq!(out.report.events_processed, 4096, "polls run every 4096 events");
        assert!(out.report.audit.violations.is_empty());
    }

    #[test]
    fn zero_wall_budget_stops_early() {
        let limits = RunLimits { wall_time: Some(std::time::Duration::ZERO), ..RunLimits::none() };
        let out = Engine::new(audited_cfg(1_000)).run_limited(limits);
        assert_eq!(out.stop, StopReason::WallTime);
        assert_eq!(out.report.events_processed, 4096);
    }

    #[test]
    fn progress_callback_sees_monotonic_samples() {
        let samples = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let sink = samples.clone();
        let limits = RunLimits {
            progress_every: 8192,
            progress: Some(Box::new(move |p: RunProgress| sink.lock().unwrap().push(p))),
            ..RunLimits::none()
        };
        let out = Engine::new(audited_cfg(200)).run_limited(limits);
        assert_eq!(out.stop, StopReason::Completed);
        let samples = samples.lock().unwrap();
        assert!(!samples.is_empty(), "a 200 us run crosses the progress stride");
        for pair in samples.windows(2) {
            assert!(pair[1].events > pair[0].events);
            assert!(pair[1].now >= pair[0].now);
        }
        assert!(samples.iter().all(|p| p.events <= out.report.events_processed));
    }

    #[test]
    fn degraded_lanes_clamp_modes_but_never_raise_them() {
        let w16 = BwMode::Vwl(VwlWidth::W16);
        let w4 = BwMode::Vwl(VwlWidth::W4);
        assert_eq!(clamp_bw_to_lanes(w16, None), w16);
        assert_eq!(clamp_bw_to_lanes(w16, Some(8)), BwMode::Vwl(VwlWidth::W8));
        assert_eq!(clamp_bw_to_lanes(w16, Some(7)), BwMode::Vwl(VwlWidth::W4));
        // A narrower request than the cap passes through unchanged.
        assert_eq!(clamp_bw_to_lanes(w4, Some(8)), w4);
        assert_eq!(clamp_bw_to_lanes(w16, Some(1)), BwMode::Vwl(VwlWidth::W1));
        let p100 = BwMode::Dvfs(DvfsLevel::P100);
        let p50 = BwMode::Dvfs(DvfsLevel::P50);
        assert_eq!(clamp_bw_to_lanes(p100, Some(8)), p50);
        assert_eq!(clamp_bw_to_lanes(p50, Some(16)), p50);
        assert_eq!(clamp_bw_to_lanes(p100, Some(12)), BwMode::Dvfs(DvfsLevel::P50));
        // Below every DVFS point, the narrowest level is the floor.
        assert_eq!(clamp_bw_to_lanes(p100, Some(1)), BwMode::Dvfs(DvfsLevel::P14));
    }
}
