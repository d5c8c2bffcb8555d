//! Trace-file validation and summarization (`memnet trace`).
//!
//! A trace is newline-delimited JSON: one header object, then interleaved
//! event and `sample` objects in time order, then one `end` footer. This
//! module re-parses that stream with the workspace's own JSON parser,
//! validates it against [`OBS_SCHEMA_VERSION`],
//! and renders the two artifacts the experiments workflow wants: a
//! per-link residency table and an epoch CSV for plotting.

use serde::{json, Deserialize};

use crate::{EpochSample, PktPoint, ENERGY_CATEGORIES, OBS_SCHEMA_VERSION};

/// Event tags valid in schema version 1, excluding `sample` and `end`.
pub const EVENT_KINDS: [&str; 10] = [
    "mode",
    "wake",
    "wake_done",
    "wake_timeout",
    "turn_off",
    "chain_wake",
    "forced_full",
    "nak",
    "isp",
    "pkt",
];

/// Everything extracted from a validated trace file.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSummary {
    /// Schema version from the header.
    pub version: u32,
    pub workload: String,
    pub policy: String,
    pub mechanism: String,
    pub n_links: u32,
    /// `(kind, count)` over the written events, in [`EVENT_KINDS`] order,
    /// zero-count kinds included.
    pub events_by_kind: Vec<(&'static str, u64)>,
    /// All epoch samples present in the file, in order.
    pub samples: Vec<EpochSample>,
    /// All `pkt` events present in the file, in order.
    pub packets: Vec<PacketEvent>,
    /// Footer bookkeeping.
    pub events_seen: u64,
    pub events_written: u64,
    pub truncated: bool,
}

/// One `pkt` line: a packet milestone read back from a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct PacketEvent {
    pub t_ps: u64,
    /// Transaction id (shared by a read request and its response).
    pub packet: u64,
    /// Packet kind at this milestone (`ReadRequest`, `WriteRequest`,
    /// `ReadResponse`).
    pub kind: String,
    pub point: PktPoint,
}

impl TraceSummary {
    /// Count of written events of `kind` (0 for unknown kinds).
    pub fn event_count(&self, kind: &str) -> u64 {
        self.events_by_kind.iter().find(|(k, _)| *k == kind).map_or(0, |(_, n)| *n)
    }
}

fn field<T: Deserialize>(v: &json::Value, key: &str) -> Result<T, String> {
    let inner = v.get(key).map_err(|e| format!("missing {key:?}: {}", e.0))?;
    T::deserialize(inner).map_err(|e| format!("bad {key:?}: {}", e.0))
}

/// Reads a `link` or `module` index and checks it against the header's
/// count of them.
fn index(v: &json::Value, key: &str, count: u32) -> Result<u32, String> {
    let i: u32 = field(v, key)?;
    if i >= count {
        return Err(format!("{key} {i} out of range ({count} {key}s)"));
    }
    Ok(i)
}

/// Reads the body of a `pkt` line stamped `t_ps`.
fn packet_event(
    v: &json::Value,
    t_ps: u64,
    n_links: u32,
    n_modules: u32,
) -> Result<PacketEvent, String> {
    let point: String = field(v, "point")?;
    let point = match point.as_str() {
        "inject" => PktPoint::Inject,
        "link_start" => PktPoint::LinkStart(index(v, "link", n_links)?),
        "link_done" => PktPoint::LinkDone(index(v, "link", n_links)?),
        "vault_enqueue" => PktPoint::VaultEnqueue(index(v, "module", n_modules)?),
        "vault_done" => PktPoint::VaultDone(index(v, "module", n_modules)?),
        "retire" => PktPoint::Retire,
        other => return Err(format!("unknown packet point {other:?}")),
    };
    Ok(PacketEvent { t_ps, packet: field(v, "packet")?, kind: field(v, "kind")?, point })
}

/// Parses and validates a JSONL trace, returning its summary.
///
/// Errors carry the 1-based line number of the offending line. Validation
/// checks: header first with the expected schema name and version, every
/// subsequent line a known event / `sample` / `end` object with the fields
/// that kind requires (links and modules within the header's counts),
/// timestamps non-decreasing, exactly one footer and nothing after it,
/// and footer counts consistent with the body.
pub fn parse_jsonl(text: &str) -> Result<TraceSummary, String> {
    let mut lines = text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty());

    let (n0, header_line) = lines.next().ok_or("empty trace file")?;
    let header = json::parse(header_line).map_err(|e| format!("line {}: {}", n0 + 1, e.0))?;
    let schema: String = field(&header, "schema").map_err(|e| format!("line {}: {e}", n0 + 1))?;
    if schema != "memnet-trace" {
        return Err(format!("line {}: schema is {schema:?}, expected \"memnet-trace\"", n0 + 1));
    }
    let version: u32 = field(&header, "version").map_err(|e| format!("line {}: {e}", n0 + 1))?;
    if version != OBS_SCHEMA_VERSION {
        return Err(format!(
            "line {}: trace schema version {version} unsupported (this build reads {OBS_SCHEMA_VERSION})",
            n0 + 1
        ));
    }
    let workload: String =
        field(&header, "workload").map_err(|e| format!("line {}: {e}", n0 + 1))?;
    let policy: String = field(&header, "policy").map_err(|e| format!("line {}: {e}", n0 + 1))?;
    let mechanism: String =
        field(&header, "mechanism").map_err(|e| format!("line {}: {e}", n0 + 1))?;
    let n_links: u32 = field(&header, "n_links").map_err(|e| format!("line {}: {e}", n0 + 1))?;
    let n_modules: u32 =
        field(&header, "n_modules").map_err(|e| format!("line {}: {e}", n0 + 1))?;

    let mut counts = [0u64; EVENT_KINDS.len()];
    let mut samples: Vec<EpochSample> = Vec::new();
    let mut packets: Vec<PacketEvent> = Vec::new();
    let mut footer: Option<(u64, u64, bool)> = None;
    let mut last_t: u64 = 0;

    for (idx, line) in lines {
        let n = idx + 1;
        if footer.is_some() {
            return Err(format!("line {n}: content after the end footer"));
        }
        let v = json::parse(line).map_err(|e| format!("line {n}: {}", e.0))?;
        let ev: String = field(&v, "ev").map_err(|e| format!("line {n}: {e}"))?;
        match ev.as_str() {
            "end" => {
                let seen: u64 = field(&v, "events_seen").map_err(|e| format!("line {n}: {e}"))?;
                let written: u64 =
                    field(&v, "events_written").map_err(|e| format!("line {n}: {e}"))?;
                let truncated: bool =
                    field(&v, "truncated").map_err(|e| format!("line {n}: {e}"))?;
                footer = Some((seen, written, truncated));
            }
            "sample" => {
                let t: u64 = field(&v, "t").map_err(|e| format!("line {n}: {e}"))?;
                if t < last_t {
                    return Err(format!("line {n}: timestamp {t} goes backwards (last {last_t})"));
                }
                last_t = t;
                let sample: EpochSample =
                    field(&v, "sample").map_err(|e| format!("line {n}: {e}"))?;
                if sample.end_ps != t {
                    return Err(format!(
                        "line {n}: sample end_ps {} disagrees with line timestamp {t}",
                        sample.end_ps
                    ));
                }
                if let Some(prev) = samples.last() {
                    if sample.epoch != prev.epoch + 1 || sample.start_ps != prev.end_ps {
                        return Err(format!(
                            "line {n}: epoch {} [{}, {}) is not contiguous with epoch {} ending at {}",
                            sample.epoch, sample.start_ps, sample.end_ps, prev.epoch, prev.end_ps
                        ));
                    }
                }
                samples.push(sample);
            }
            kind => {
                let slot = EVENT_KINDS
                    .iter()
                    .position(|k| *k == kind)
                    .ok_or_else(|| format!("line {n}: unknown event kind {kind:?}"))?;
                let t: u64 = field(&v, "t").map_err(|e| format!("line {n}: {e}"))?;
                if t < last_t {
                    return Err(format!("line {n}: timestamp {t} goes backwards (last {last_t})"));
                }
                last_t = t;
                match kind {
                    "isp" => {
                        let _: u32 = field(&v, "rounds").map_err(|e| format!("line {n}: {e}"))?;
                    }
                    "pkt" => packets.push(
                        packet_event(&v, t, n_links, n_modules)
                            .map_err(|e| format!("line {n}: {e}"))?,
                    ),
                    _ => {
                        index(&v, "link", n_links).map_err(|e| format!("line {n}: {e}"))?;
                    }
                }
                if kind == "mode" {
                    let _: String = field(&v, "bw").map_err(|e| format!("line {n}: {e}"))?;
                }
                if kind == "nak" {
                    let _: u32 = field(&v, "attempt").map_err(|e| format!("line {n}: {e}"))?;
                }
                counts[slot] += 1;
            }
        }
    }

    let (events_seen, events_written, truncated) =
        footer.ok_or("trace has no end footer (run truncated?)")?;
    let written_in_body: u64 = counts.iter().sum();
    if written_in_body != events_written {
        return Err(format!(
            "footer claims {events_written} events written but the body has {written_in_body}"
        ));
    }
    if events_written > events_seen {
        return Err(format!(
            "footer claims more events written ({events_written}) than seen ({events_seen})"
        ));
    }

    Ok(TraceSummary {
        version,
        workload,
        policy,
        mechanism,
        n_links,
        events_by_kind: EVENT_KINDS.iter().zip(counts).map(|(k, c)| (*k, c)).collect(),
        samples,
        packets,
        events_seen,
        events_written,
        truncated,
    })
}

/// Renders a per-link residency table aggregated over `samples`: percent
/// of sampled time per accounting family, plus wake/retry totals and the
/// final mode.
pub fn residency_table(samples: &[EpochSample]) -> String {
    let n_links = samples.iter().map(|s| s.links.len()).max().unwrap_or(0);
    let mut out = String::new();
    out.push_str(&format!(
        "{:>5}  {:>8}  {:>6}  {:>6}  {:>6}  {:>6}  {:>7}  {:>6}  {:>7}\n",
        "link", "mode", "off%", "wake%", "idle%", "act%", "retr%", "wakes", "retries"
    ));
    for l in 0..n_links {
        let mut ps = [0u64; 5];
        let (mut wakes, mut retries) = (0u64, 0u64);
        let mut mode = "-";
        for s in samples {
            if let Some(ls) = s.links.get(l) {
                ps[0] += ls.off_ps;
                ps[1] += ls.waking_ps;
                ps[2] += ls.idle_ps;
                ps[3] += ls.active_ps;
                ps[4] += ls.retrans_ps;
                wakes += ls.wakes;
                retries += ls.retries;
                mode = ls.bw;
            }
        }
        let total: u64 = ps.iter().sum();
        let pct = |v: u64| if total == 0 { 0.0 } else { 100.0 * v as f64 / total as f64 };
        out.push_str(&format!(
            "{:>5}  {:>8}  {:>6.2}  {:>6.2}  {:>6.2}  {:>6.2}  {:>7.3}  {:>6}  {:>7}\n",
            l,
            mode,
            pct(ps[0]),
            pct(ps[1]),
            pct(ps[2]),
            pct(ps[3]),
            pct(ps[4]),
            wakes,
            retries
        ));
    }
    out
}

/// Renders the epoch time series as CSV: one row per sample, energy per
/// category plus network-wide queue/wake/retry sums — the plotting input
/// for idle-interval and mode-residency figures.
pub fn epoch_csv(samples: &[EpochSample]) -> String {
    let mut out = String::from("epoch,start_ps,end_ps");
    for cat in ENERGY_CATEGORIES {
        out.push_str(&format!(",{cat}_j"));
    }
    out.push_str(",pool_ps,violations,isp_rounds,queue_depth,wakes,retries\n");
    for s in samples {
        out.push_str(&format!("{},{},{}", s.epoch, s.start_ps, s.end_ps));
        for j in s.energy_j {
            out.push_str(&format!(",{j:.9e}"));
        }
        let queue: u64 = s.links.iter().map(|l| u64::from(l.queue_depth)).sum();
        let wakes: u64 = s.links.iter().map(|l| l.wakes).sum();
        let retries: u64 = s.links.iter().map(|l| l.retries).sum();
        out.push_str(&format!(
            ",{},{},{},{queue},{wakes},{retries}\n",
            s.pool_ps, s.violations, s.isp_rounds
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LinkSample, ObsConfig, ObsEvent, ObsEventKind, TimeSeriesRecorder, TraceMeta};

    fn meta() -> TraceMeta {
        TraceMeta {
            workload: "mixA",
            topology: "ternary",
            policy: "aware",
            mechanism: "vwl+roo",
            seed: 7,
            epoch_ps: 100,
            eval_ps: 300,
            n_links: 2,
            n_modules: 1,
        }
    }

    fn link_sample(link: u32) -> LinkSample {
        LinkSample {
            link,
            bw: "vwl16",
            roo: Some("t512"),
            off_ps: 0,
            waking_ps: 0,
            idle_ps: 60,
            active_ps: 40,
            retrans_ps: 0,
            queue_depth: 1,
            wakes: 0,
            retries: 0,
            budget_ps: 1_000,
            flo_ps: 100,
        }
    }

    fn epoch_sample(epoch: u64) -> EpochSample {
        EpochSample {
            epoch,
            start_ps: epoch * 100,
            end_ps: (epoch + 1) * 100,
            energy_j: [1e-9; 7],
            pool_ps: 0,
            violations: 0,
            isp_rounds: 1,
            links: vec![link_sample(0), link_sample(1)],
        }
    }

    /// Writes a tiny trace through the real recorder, into a temp file.
    fn write_trace(dir: &std::path::Path, every: u64, max: u64) -> String {
        let path = dir.join("trace.jsonl");
        let cfg = ObsConfig {
            enabled: true,
            trace_path: Some(path.to_string_lossy().into_owned()),
            trace_every: every,
            trace_max: max,
            ..ObsConfig::off()
        };
        let mut r = TimeSeriesRecorder::new(cfg);
        r.start(&meta());
        for t in 0..10u64 {
            r.record_event(&ObsEvent { t_ps: t * 10, kind: ObsEventKind::Wake { link: 1 } });
        }
        r.record_epoch(epoch_sample(0));
        r.record_epoch(epoch_sample(1));
        r.finish();
        std::fs::read_to_string(&path).expect("trace written")
    }

    fn tempdir() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "memnet-obs-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    #[test]
    fn round_trip_trace_parses_and_counts() {
        let dir = tempdir();
        let text = write_trace(&dir, 1, 1_000);
        let s = parse_jsonl(&text).expect("valid trace");
        assert_eq!(s.version, OBS_SCHEMA_VERSION);
        assert_eq!(s.workload, "mixA");
        assert_eq!(s.event_count("wake"), 10);
        assert_eq!(s.samples.len(), 2);
        assert_eq!(s.events_seen, 10);
        assert_eq!(s.events_written, 10);
        assert!(!s.truncated);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn decimation_and_truncation_are_visible_in_the_trace() {
        let dir = tempdir();
        let text = write_trace(&dir, 3, 1_000);
        let s = parse_jsonl(&text).expect("valid trace");
        // Events 0, 3, 6, 9 survive every=3.
        assert_eq!(s.events_written, 4);
        assert_eq!(s.events_seen, 10);

        let text = write_trace(&dir, 1, 4);
        let s = parse_jsonl(&text).expect("valid trace");
        assert_eq!(s.events_written, 4);
        assert!(s.truncated);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejects_missing_footer_and_bad_versions() {
        let dir = tempdir();
        let text = write_trace(&dir, 1, 1_000);
        let _ = std::fs::remove_dir_all(&dir);

        let without_footer: String =
            text.lines().filter(|l| !l.contains("\"ev\":\"end\"")).collect::<Vec<_>>().join("\n");
        assert!(parse_jsonl(&without_footer).unwrap_err().contains("footer"));

        let bad_version = text.replace("\"version\":1", "\"version\":999");
        assert!(parse_jsonl(&bad_version).unwrap_err().contains("version 999"));

        assert!(parse_jsonl("").is_err());
    }

    #[test]
    fn rejects_unknown_kinds_and_out_of_range_links() {
        let dir = tempdir();
        let text = write_trace(&dir, 1, 1_000);
        let _ = std::fs::remove_dir_all(&dir);

        let unknown = text.replace("\"ev\":\"wake\"", "\"ev\":\"warp\"");
        assert!(parse_jsonl(&unknown).unwrap_err().contains("unknown event kind"));

        // Every point the recorder writes reads back. The header names 2
        // links and 1 module; `pkt` lines must stay inside them and name
        // a known point.
        let wake = "{\"t\":0,\"ev\":\"wake\",\"link\":1}";
        assert!(text.contains(wake), "{text}");
        for point in [
            PktPoint::Inject,
            PktPoint::LinkStart(1),
            PktPoint::LinkDone(1),
            PktPoint::VaultEnqueue(0),
            PktPoint::VaultDone(0),
            PktPoint::Retire,
        ] {
            let kind = ObsEventKind::Pkt { packet: 3, kind: "ReadRequest", point };
            let line = TimeSeriesRecorder::event_line(&ObsEvent { t_ps: 0, kind });
            let s = parse_jsonl(&text.replacen(wake, &line, 1)).expect("valid pkt line");
            let kind = "ReadRequest".to_owned();
            assert_eq!(s.packets, [PacketEvent { t_ps: 0, packet: 3, kind, point }]);
        }
        let pkt = |tail: &str| {
            let line =
                format!("{{\"t\":0,\"ev\":\"pkt\",\"packet\":3,\"kind\":\"ReadRequest\",{tail}}}");
            text.replacen(wake, &line, 1)
        };
        for (tail, err) in [
            ("\"point\":\"link_done\",\"link\":2", "line 2: link 2 out of range (2 links)"),
            ("\"point\":\"vault_done\",\"module\":1", "line 2: module 1 out of range (1 modules)"),
            ("\"point\":\"teleport\"", "line 2: unknown packet point \"teleport\""),
        ] {
            let got = parse_jsonl(&pkt(tail)).unwrap_err();
            assert!(got.contains(err), "{tail}: {got}");
        }
    }

    #[test]
    fn residency_table_and_csv_cover_all_links_and_epochs() {
        let samples = vec![epoch_sample(0), epoch_sample(1)];
        let table = residency_table(&samples);
        assert!(table.contains("vwl16"));
        assert_eq!(table.lines().count(), 3); // header + 2 links

        let csv = epoch_csv(&samples);
        assert_eq!(csv.lines().count(), 3); // header + 2 epochs
        assert!(csv.starts_with("epoch,start_ps,end_ps,idle_io_j"));
        assert!(csv.contains("retries"));
    }
}
