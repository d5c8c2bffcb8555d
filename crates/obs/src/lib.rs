//! Time-series observability for the memory-network simulator.
//!
//! The paper's central claims are temporal — idle-I/O dominance, epoch-by-
//! epoch AMS budgeting, FLO-driven mode transitions, ISP scatter/gather
//! rounds — but a [`RunReport`](../memnet_core/struct.RunReport.html) only
//! carries end-of-run aggregates. This crate adds the missing time axis
//! without perturbing results or costing anything when switched off:
//!
//! * [`TimeSeriesRecorder`] — the engine holds one only while observability
//!   is on, so an unobserved run pays one always-false branch per hook
//!   site. It samples an [`EpochSample`] per controller epoch (per-link
//!   mode + mode residency, AMS budgets, FLO estimates, rescue pool, ISP
//!   rounds, queue depths, per-category energy, retry and wake counts)
//!   into a bounded ring buffer, and optionally streams schema-versioned
//!   JSONL events (mode transitions, wakeups, NAKs, ISP dispatches and,
//!   on request, per-packet milestones) to a trace file with decimation
//!   controls.
//! * [`summary`] — parses and validates a trace file and renders per-link
//!   residency tables plus an epoch CSV for plotting.
//!
//! Every reader the recorder touches is pure (residency snapshots, budget
//! getters, FLO estimates), so a traced run is bit-identical to an
//! untraced one — `tests/metamorphic.rs` and `tests/obs_trace.rs` in the
//! workspace root enforce both directions.

use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufWriter, Write};

use memnet_simcore::memnet_warn;
use serde::{json, Deserialize, Serialize};

pub mod summary;

/// Version of the JSONL trace schema and of the [`ObsSection`] layout.
///
/// Bump whenever a line shape, field name, or field meaning changes; the
/// summarizer refuses traces whose header carries a different version.
pub const OBS_SCHEMA_VERSION: u32 = 1;

/// Energy category labels, in the order used by [`EpochSample::energy_j`]
/// (Figure 5 order with retransmission I/O appended — the same order as
/// `EnergyBreakdown::categories`).
pub const ENERGY_CATEGORIES: [&str; 7] =
    ["idle_io", "active_io", "logic_leak", "logic_dyn", "dram_leak", "dram_dyn", "retrans_io"];

/// Observability configuration carried inside `SimConfig`.
///
/// The default (and [`ObsConfig::off`]) disables everything; the engine
/// then holds no recorder and the only residual cost is one always-false
/// branch per hook site. Nothing here reads the environment, so cached
/// results can never be poisoned by an env var the cache key does not
/// see.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObsConfig {
    /// Collect per-epoch [`EpochSample`]s into the report's `obs` section.
    pub enabled: bool,
    /// Ring-buffer capacity for retained epoch samples; older samples are
    /// evicted (and counted in [`ObsSection::samples_dropped`]) beyond it.
    pub ring_capacity: usize,
    /// Stream JSONL events and samples to this path (implies sampling).
    pub trace_path: Option<String>,
    /// Keep every Nth event (1 = keep all). Epoch samples are never
    /// decimated — only discrete events are.
    pub trace_every: u64,
    /// Hard cap on events written to the trace file; once reached the
    /// trace is marked truncated and further events are dropped.
    pub trace_max: u64,
    /// Also offer every packet milestone (inject, link start/done, vault
    /// enqueue/done, retire) as a `pkt` event, under the same decimation
    /// and cap. Meant for a trace file; it activates nothing by itself.
    pub packets: bool,
}

impl ObsConfig {
    /// Observability fully disabled (the default).
    pub fn off() -> Self {
        ObsConfig {
            enabled: false,
            ring_capacity: 4096,
            trace_path: None,
            trace_every: 1,
            trace_max: 1_000_000,
            packets: false,
        }
    }

    /// True when any recording (in-memory sampling or file tracing) is on.
    pub fn is_active(&self) -> bool {
        self.enabled || self.trace_path.is_some()
    }
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig::off()
    }
}

/// Run identity written into the trace header so a trace file is
/// self-describing.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TraceMeta {
    pub workload: &'static str,
    pub topology: &'static str,
    pub policy: &'static str,
    pub mechanism: &'static str,
    pub seed: u64,
    pub epoch_ps: u64,
    pub eval_ps: u64,
    pub n_links: u32,
    pub n_modules: u32,
}

/// A discrete simulator event worth tracing, stamped in simulated time.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsEvent {
    /// Simulated time of the event, in picoseconds.
    pub t_ps: u64,
    pub kind: ObsEventKind,
}

/// The event vocabulary of trace schema version 1.
#[derive(Debug, Clone, PartialEq)]
pub enum ObsEventKind {
    /// The controller applied a new bandwidth mode (and optionally a new
    /// ROO threshold) to a link.
    Mode { link: u32, bw: &'static str, roo: Option<&'static str> },
    /// A powered-off link began waking.
    Wake { link: u32 },
    /// A waking link finished its wake transition.
    WakeDone { link: u32 },
    /// A fault stretched a wake transition past its nominal latency.
    WakeTimeout { link: u32 },
    /// An idle link crossed its ROO threshold and powered off.
    TurnOff { link: u32 },
    /// Wake chaining propagated a wake to the next link on the route.
    ChainWake { link: u32 },
    /// The engine forced a link to full power (e.g. route-around traffic).
    ForcedFull { link: u32 },
    /// A CRC failure NAKed a packet; `attempt` is the retry ordinal.
    Nak { link: u32, attempt: u32 },
    /// The controller dispatched an ISP scatter/gather phase of `rounds`
    /// propagation rounds at an epoch boundary.
    Isp { rounds: u32 },
    /// Packet `packet` (a transaction id, shared by a read request and
    /// its response) of kind `kind` reached `point` on its path.
    Pkt { packet: u64, kind: &'static str, point: PktPoint },
}

impl ObsEventKind {
    /// The `"ev"` tag this kind serializes under.
    pub fn name(&self) -> &'static str {
        match self {
            ObsEventKind::Mode { .. } => "mode",
            ObsEventKind::Wake { .. } => "wake",
            ObsEventKind::WakeDone { .. } => "wake_done",
            ObsEventKind::WakeTimeout { .. } => "wake_timeout",
            ObsEventKind::TurnOff { .. } => "turn_off",
            ObsEventKind::ChainWake { .. } => "chain_wake",
            ObsEventKind::ForcedFull { .. } => "forced_full",
            ObsEventKind::Nak { .. } => "nak",
            ObsEventKind::Isp { .. } => "isp",
            ObsEventKind::Pkt { .. } => "pkt",
        }
    }
}

/// Where a packet milestone happened: a `pkt` event's `point`, with the
/// link or module it names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PktPoint {
    /// Injected by the processor front-end.
    Inject,
    /// Began serializing on a link.
    LinkStart(u32),
    /// Last flit left a link's transmitter.
    LinkDone(u32),
    /// Entered a module's vault queue.
    VaultEnqueue(u32),
    /// The module's DRAM access completed (reads only).
    VaultDone(u32),
    /// The read retired at the processor.
    Retire,
}

impl PktPoint {
    /// The `"point"` name this milestone serializes under.
    pub fn name(&self) -> &'static str {
        match self {
            PktPoint::Inject => "inject",
            PktPoint::LinkStart(_) => "link_start",
            PktPoint::LinkDone(_) => "link_done",
            PktPoint::VaultEnqueue(_) => "vault_enqueue",
            PktPoint::VaultDone(_) => "vault_done",
            PktPoint::Retire => "retire",
        }
    }
}

/// Per-link slice of an [`EpochSample`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkSample {
    pub link: u32,
    /// Bandwidth mode label at the end of the epoch (`BwMode::label`).
    pub bw: &'static str,
    /// ROO threshold label, when the mechanism manages one.
    pub roo: Option<&'static str>,
    /// Residency within this epoch, by accounting family, in picoseconds.
    pub off_ps: u64,
    pub waking_ps: u64,
    pub idle_ps: u64,
    pub active_ps: u64,
    pub retrans_ps: u64,
    /// Queue depth observed at the epoch boundary.
    pub queue_depth: u32,
    /// Wake transitions started during this epoch.
    pub wakes: u64,
    /// Retransmissions (NAK retries) during this epoch.
    pub retries: u64,
    /// AMS latency budget governing this epoch, in picoseconds
    /// (saturated into `i64`; budgets are `i128` internally).
    pub budget_ps: i64,
    /// Delay-monitor FLO estimate for the selected mode at epoch close.
    pub flo_ps: i64,
}

/// One epoch of time-series metrics across the whole network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpochSample {
    /// Zero-based epoch index (a trailing partial epoch gets the next
    /// index with `end_ps` short of a full period).
    pub epoch: u64,
    pub start_ps: u64,
    pub end_ps: u64,
    /// Energy spent inside this epoch per category, joules, in
    /// [`ENERGY_CATEGORIES`] order. Summing a column over all samples
    /// reproduces the aggregate report energy (the pricing model is linear
    /// in residency, so per-epoch deltas telescope).
    pub energy_j: [f64; 7],
    /// AMS rescue pool remaining at epoch close, picoseconds (saturated).
    pub pool_ps: i64,
    /// Cumulative budget violations observed so far.
    pub violations: u64,
    /// ISP propagation rounds dispatched at this epoch's close.
    pub isp_rounds: u32,
    pub links: Vec<LinkSample>,
}

/// The opt-in `obs` section attached to a `RunReport`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObsSection {
    /// [`OBS_SCHEMA_VERSION`] at recording time.
    pub schema: u32,
    /// Retained epoch samples, oldest first (ring-bounded).
    pub epochs: Vec<EpochSample>,
    /// Samples evicted from the ring (0 unless the run outgrew it).
    pub samples_dropped: u64,
    /// Discrete events offered to the recorder.
    pub events_seen: u64,
    /// Discrete events actually written to the trace file.
    pub events_written: u64,
    /// True when `trace_max` cut the event stream short.
    pub truncated: bool,
}

/// Saturates an `i128` latency (the policy crate's `LatencyPs`) into the
/// `i64` fields carried by samples.
pub fn saturate_latency(v: i128) -> i64 {
    v.clamp(i64::MIN as i128, i64::MAX as i128) as i64
}

#[derive(Serialize)]
struct TraceHeader {
    schema: &'static str,
    version: u32,
    workload: &'static str,
    topology: &'static str,
    policy: &'static str,
    mechanism: &'static str,
    seed: u64,
    epoch_ps: u64,
    eval_ps: u64,
    n_links: u32,
    n_modules: u32,
    every: u64,
    max_events: u64,
}

/// Collects per-epoch samples into a bounded ring and optionally streams
/// JSONL to a trace file.
pub struct TimeSeriesRecorder {
    cfg: ObsConfig,
    epochs: VecDeque<EpochSample>,
    samples_dropped: u64,
    events_seen: u64,
    events_written: u64,
    truncated: bool,
    writer: Option<BufWriter<File>>,
    write_failed: bool,
}

impl TimeSeriesRecorder {
    /// Opens the trace file if one is configured; a failure to open warns
    /// and degrades to in-memory sampling only.
    pub fn new(cfg: ObsConfig) -> Self {
        let writer = cfg.trace_path.as_deref().and_then(|path| match File::create(path) {
            Ok(f) => Some(BufWriter::new(f)),
            Err(e) => {
                memnet_warn!("[obs] cannot create trace file {path:?}: {e}; file tracing disabled");
                None
            }
        });
        TimeSeriesRecorder {
            cfg,
            epochs: VecDeque::new(),
            samples_dropped: 0,
            events_seen: 0,
            events_written: 0,
            truncated: false,
            writer,
            write_failed: false,
        }
    }

    fn write_line(&mut self, line: &str) {
        if let Some(w) = &mut self.writer {
            if writeln!(w, "{line}").is_err() && !self.write_failed {
                self.write_failed = true;
                memnet_warn!("[obs] trace write failed; trace file will be incomplete");
            }
        }
    }

    fn event_line(e: &ObsEvent) -> String {
        let name = e.kind.name();
        let t = e.t_ps;
        match &e.kind {
            ObsEventKind::Mode { link, bw, roo } => {
                let roo = match roo {
                    Some(r) => format!("\"{r}\""),
                    None => "null".to_owned(),
                };
                format!(
                    "{{\"t\":{t},\"ev\":\"{name}\",\"link\":{link},\"bw\":\"{bw}\",\"roo\":{roo}}}"
                )
            }
            ObsEventKind::Wake { link }
            | ObsEventKind::WakeDone { link }
            | ObsEventKind::WakeTimeout { link }
            | ObsEventKind::TurnOff { link }
            | ObsEventKind::ChainWake { link }
            | ObsEventKind::ForcedFull { link } => {
                format!("{{\"t\":{t},\"ev\":\"{name}\",\"link\":{link}}}")
            }
            ObsEventKind::Nak { link, attempt } => {
                format!("{{\"t\":{t},\"ev\":\"{name}\",\"link\":{link},\"attempt\":{attempt}}}")
            }
            ObsEventKind::Isp { rounds } => {
                format!("{{\"t\":{t},\"ev\":\"{name}\",\"rounds\":{rounds}}}")
            }
            ObsEventKind::Pkt { packet, kind, point } => {
                let at = match *point {
                    PktPoint::LinkStart(l) | PktPoint::LinkDone(l) => format!(",\"link\":{l}"),
                    PktPoint::VaultEnqueue(m) | PktPoint::VaultDone(m) => {
                        format!(",\"module\":{m}")
                    }
                    PktPoint::Inject | PktPoint::Retire => String::new(),
                };
                format!(
                    "{{\"t\":{t},\"ev\":\"{name}\",\"packet\":{packet},\"kind\":\"{kind}\",\"point\":\"{}\"{at}}}",
                    point.name()
                )
            }
        }
    }

    /// Writes the trace header. Called once before the first simulated
    /// event.
    pub fn start(&mut self, meta: &TraceMeta) {
        if self.writer.is_some() {
            let header = TraceHeader {
                schema: "memnet-trace",
                version: OBS_SCHEMA_VERSION,
                workload: meta.workload,
                topology: meta.topology,
                policy: meta.policy,
                mechanism: meta.mechanism,
                seed: meta.seed,
                epoch_ps: meta.epoch_ps,
                eval_ps: meta.eval_ps,
                n_links: meta.n_links,
                n_modules: meta.n_modules,
                every: self.cfg.trace_every,
                max_events: self.cfg.trace_max,
            };
            let line = json::to_string(&header);
            self.write_line(&line);
        }
    }

    /// Counts one discrete event and writes it unless decimation or the
    /// cap drops it.
    pub fn record_event(&mut self, event: &ObsEvent) {
        self.events_seen += 1;
        if self.writer.is_none() {
            return;
        }
        // Decimation: keep the 1st, (every+1)th, ... event seen.
        if !(self.events_seen - 1).is_multiple_of(self.cfg.trace_every) {
            return;
        }
        if self.events_written >= self.cfg.trace_max {
            self.truncated = true;
            return;
        }
        let line = Self::event_line(event);
        self.write_line(&line);
        self.events_written += 1;
    }

    /// Retains one epoch's sample in the ring and writes it to the trace
    /// file. Called once per controller epoch, plus once for a trailing
    /// partial epoch.
    pub fn record_epoch(&mut self, sample: EpochSample) {
        if self.writer.is_some() {
            let line = format!(
                "{{\"t\":{},\"ev\":\"sample\",\"sample\":{}}}",
                sample.end_ps,
                json::to_string(&sample)
            );
            self.write_line(&line);
        }
        if self.cfg.ring_capacity == 0 {
            self.samples_dropped += 1;
            return;
        }
        while self.epochs.len() >= self.cfg.ring_capacity {
            self.epochs.pop_front();
            self.samples_dropped += 1;
        }
        self.epochs.push_back(sample);
    }

    /// Writes the footer and returns the report section. Called once, at
    /// finalization.
    pub fn finish(&mut self) -> ObsSection {
        let section = ObsSection {
            schema: OBS_SCHEMA_VERSION,
            epochs: self.epochs.drain(..).collect(),
            samples_dropped: self.samples_dropped,
            events_seen: self.events_seen,
            events_written: self.events_written,
            truncated: self.truncated,
        };
        if self.writer.is_some() {
            let line = format!(
                "{{\"ev\":\"end\",\"events_seen\":{},\"events_written\":{},\"samples\":{},\"truncated\":{}}}",
                section.events_seen,
                section.events_written,
                section.epochs.len() as u64 + section.samples_dropped,
                section.truncated
            );
            self.write_line(&line);
            if let Some(w) = &mut self.writer {
                if w.flush().is_err() && !self.write_failed {
                    memnet_warn!("[obs] trace flush failed; trace file may be incomplete");
                }
            }
        }
        section
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(epoch: u64) -> EpochSample {
        EpochSample {
            epoch,
            start_ps: epoch * 100,
            end_ps: (epoch + 1) * 100,
            energy_j: [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7],
            pool_ps: 42,
            violations: epoch,
            isp_rounds: 2,
            links: vec![LinkSample {
                link: 0,
                bw: "vwl16",
                roo: Some("t512"),
                off_ps: 10,
                waking_ps: 5,
                idle_ps: 50,
                active_ps: 30,
                retrans_ps: 5,
                queue_depth: 3,
                wakes: 1,
                retries: 0,
                budget_ps: 1_000,
                flo_ps: 250,
            }],
        }
    }

    #[test]
    fn off_config_is_inactive_and_default() {
        assert!(!ObsConfig::off().is_active());
        assert_eq!(ObsConfig::off(), ObsConfig::default());
        let with_trace = ObsConfig { trace_path: Some("x.jsonl".into()), ..ObsConfig::off() };
        assert!(with_trace.is_active());
        let enabled = ObsConfig { enabled: true, ..ObsConfig::off() };
        assert!(enabled.is_active());
    }

    #[test]
    fn epoch_sample_round_trips_through_json() {
        let s = sample(3);
        let text = json::to_string(&s);
        let back: EpochSample = json::from_str(&text).expect("round trip");
        assert_eq!(back, s);
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let cfg = ObsConfig { enabled: true, ring_capacity: 2, ..ObsConfig::off() };
        let mut r = TimeSeriesRecorder::new(cfg);
        for e in 0..5 {
            r.record_epoch(sample(e));
        }
        let section = r.finish();
        assert_eq!(section.samples_dropped, 3);
        let kept: Vec<u64> = section.epochs.iter().map(|s| s.epoch).collect();
        assert_eq!(kept, vec![3, 4]);
    }

    #[test]
    fn zero_capacity_ring_keeps_nothing() {
        let cfg = ObsConfig { enabled: true, ring_capacity: 0, ..ObsConfig::off() };
        let mut r = TimeSeriesRecorder::new(cfg);
        r.record_epoch(sample(0));
        let section = r.finish();
        assert!(section.epochs.is_empty());
        assert_eq!(section.samples_dropped, 1);
    }

    #[test]
    fn events_are_counted_even_without_a_writer() {
        let cfg = ObsConfig { enabled: true, ..ObsConfig::off() };
        let mut r = TimeSeriesRecorder::new(cfg);
        for t in 0..7 {
            r.record_event(&ObsEvent { t_ps: t, kind: ObsEventKind::Wake { link: 1 } });
        }
        let section = r.finish();
        assert_eq!(section.events_seen, 7);
        assert_eq!(section.events_written, 0);
        assert!(!section.truncated);
    }

    #[test]
    fn saturate_latency_clamps_extremes() {
        assert_eq!(saturate_latency(5), 5);
        assert_eq!(saturate_latency(-5), -5);
        assert_eq!(saturate_latency(i128::MAX), i64::MAX);
        assert_eq!(saturate_latency(i128::MIN), i64::MIN);
    }

    #[test]
    fn event_lines_are_valid_json_with_the_declared_tag() {
        let events = [
            ObsEventKind::Mode { link: 3, bw: "vwl8", roo: Some("t128") },
            ObsEventKind::Mode { link: 3, bw: "dvfs100", roo: None },
            ObsEventKind::Wake { link: 0 },
            ObsEventKind::WakeDone { link: 0 },
            ObsEventKind::WakeTimeout { link: 9 },
            ObsEventKind::TurnOff { link: 2 },
            ObsEventKind::ChainWake { link: 4 },
            ObsEventKind::ForcedFull { link: 5 },
            ObsEventKind::Nak { link: 1, attempt: 2 },
            ObsEventKind::Isp { rounds: 3 },
            ObsEventKind::Pkt { packet: 4, kind: "ReadRequest", point: PktPoint::Inject },
            ObsEventKind::Pkt { packet: 4, kind: "ReadRequest", point: PktPoint::LinkDone(2) },
            ObsEventKind::Pkt { packet: 4, kind: "ReadResponse", point: PktPoint::VaultDone(1) },
        ];
        for kind in events {
            let line = TimeSeriesRecorder::event_line(&ObsEvent { t_ps: 17, kind: kind.clone() });
            let v = json::parse(&line).expect("valid json");
            assert_eq!(v.get("ev").unwrap().as_str().unwrap(), kind.name());
            assert_eq!(v.get("t").unwrap().num::<u64>().unwrap(), 17);
        }
    }
}
