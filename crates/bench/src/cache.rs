//! Persistent, versioned on-disk result cache.
//!
//! `memnet figures` and `memnet sweep` simulate through
//! [`crate::Matrix`], which consults this cache before sweeping; the
//! `memnet serve` daemon stores and serves its jobs through it too. Only
//! the closed-form `tables`/`fig04` figures never touch it. Cached
//! results live as JSON-lines files (`*.jsonl`) in the cache directory;
//! each line is one entry:
//!
//! ```json
//! {"v":11,"fp":"v11|eval_ps=...|seed=...|wl=mixD|...","report":{...}}
//! ```
//!
//! `v` is [`CACHE_SCHEMA_VERSION`]; lines with any other version (or
//! without that header) are skipped, so stale caches degrade to misses
//! rather than errors. `fp` is [`fingerprint`] of the [`SimConfig`] that
//! ran: it folds in the schema version and every configuration field
//! except the audit level (audit checks never change results), so a
//! change to any of them invalidates the entry. The figure matrix, sweep
//! shards and the `memnet serve` daemon all name their results this way.
//!
//! A [`DiskCache`] is an index, not a store of reports. [`DiskCache::open`]
//! reads each file line by line and records where each fingerprint's line
//! lives (file, byte offset, length) from the line's `v`/`fp` header
//! alone; it decodes no report. [`DiskCache::get`] reads and decodes the
//! one line asked for and hands the caller the only copy, so a process
//! holds just the results it uses, for as long as it uses them. A line
//! whose report no longer decodes is a miss: `get` warns and drops it
//! from the index.
//!
//! Writes are atomic and collision-free under concurrent processes:
//! each [`DiskCache::store`] call writes a fresh uniquely named temp file
//! in the cache directory and `rename(2)`s it into place, so readers only
//! ever see complete files and two processes never clobber each other's
//! entries.

use std::collections::HashMap;
use std::fs;
use std::io::{BufRead, BufReader, Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use memnet_core::{RunReport, SimConfig, TrafficSpec};
use memnet_net::mech::RooParams;
use memnet_obs::ObsConfig;
use serde::{json, Deserialize, Serialize};

/// Bump when the serialized [`RunReport`] layout (or the fingerprint
/// format) changes; old cache files are then ignored wholesale.
/// History: 1 = initial layout; 2 = `RunReport` gained the `audit` field;
/// 3 = `RunReport` gained the `faults` section (plus per-link
/// retransmission telemetry) and the fingerprint a `faults=` field;
/// 4 = `RunReport` gained the `events_processed` counter;
/// 5 = `RunReport` gained the optional `obs` time-series section;
/// 6 = the fingerprint gained the `src=` traffic-source field (request-
/// trace digests distinguish replayed results);
/// 7 = the fingerprint gained the `energy=` backend field (analytical
/// and IDD pricings of one configuration are distinct results);
/// 8 = the fingerprint gained the `calib=` calibration-provenance field
/// (results priced by different fitted IDD models are distinct);
/// 9 = the fingerprint gained the `obs=` field (an observed run carries
/// the `obs` report section, so it is a distinct result);
/// 10 = multi-seed sweeps land: cells may be driven by the lockstep
/// multi-seed engine. The per-seed fingerprint format is unchanged —
/// lockstep replicas are bit-identical to solo runs — but the bump
/// draws a clean line so any result produced by a pre-lockstep build
/// re-simulates once under the new engine;
/// 11 = `RunReport` lost the always-empty `trace` field (packet
/// milestones moved to the obs trace file as `pkt` events).
pub const CACHE_SCHEMA_VERSION: u32 = 11;

/// The cache identity of a run: equal fingerprints mean byte-identical
/// reports. It reads
/// `v11|eval_ps|seed|wl|topo|scale|policy|mech|alpha|roo|map|faults|obs|src|calib|energy`,
/// with α in whole tenths of a percent, the ROO wakeup latency in whole
/// ns, a replayed trace's digest (`src=trace:…`) and a fitted IDD model's
/// (`calib=calib:…`); generators are named by their workload name. Every
/// other field (and a wakeup latency off the whole ns, as `roo_ps`)
/// follows as `|name=value` only when it differs from the
/// [`SimConfig::builder`] default, so configurations that leave it alone
/// keep their fingerprints. The audit level is left out: audit checks
/// never change results.
pub fn fingerprint(cfg: &SimConfig) -> String {
    use std::fmt::Write;
    // Destructured without `..`: a new field does not compile until it is
    // decided how it enters the fingerprint.
    let SimConfig {
        workload,
        topology,
        scale,
        policy,
        mechanism,
        alpha,
        epoch,
        eval_period,
        roo_params,
        mapping,
        seed,
        max_outstanding_reads: reads,
        write_buffer,
        dram,
        isp_iterations,
        wake_chaining,
        rescue_pool,
        audit: _,
        faults,
        obs,
        source,
        energy_backend,
        calibration,
    } = cfg;
    let RooParams { wakeup_latency, off_power_fraction: off_power } = roo_params;
    let ObsConfig { enabled, ring_capacity, trace_path, trace_every, trace_max, packets } = obs;
    let src = match source {
        TrafficSpec::Replay(trace) => format!("trace:{}", trace.digest_hex()),
        TrafficSpec::Synthetic | TrafficSpec::Stress(_) => String::new(),
    };
    let calib =
        calibration.as_ref().map_or_else(String::new, |m| format!("calib:{}", m.digest_hex()));
    let mut fp = format!(
        "v{CACHE_SCHEMA_VERSION}|eval_ps={}|seed={seed}|wl={}|topo={topology:?}|scale={scale:?}|\
         policy={policy:?}|mech={mechanism:?}|alpha={}|roo={}|map={mapping:?}|faults={}|\
         obs={enabled}|src={src}|calib={calib}|energy={}",
        eval_period.as_ps(),
        workload.name,
        (alpha * 1000.0).round() as u32,
        wakeup_latency.as_ps() / 1000,
        faults.spec(),
        energy_backend.label(),
    );
    let d = builder_defaults();
    let mut add = |name: &str, differs: bool, value: &dyn std::fmt::Display| {
        if differs {
            let _ = write!(fp, "|{name}={value}");
        }
    };
    add("epoch_ps", *epoch != d.epoch, &epoch.as_ps());
    add("isp_iterations", *isp_iterations != d.isp_iterations, isp_iterations);
    add("wake_chaining", *wake_chaining != d.wake_chaining, wake_chaining);
    add("rescue_pool", *rescue_pool != d.rescue_pool, rescue_pool);
    add("max_outstanding_reads", *reads != d.max_outstanding_reads, reads);
    add("write_buffer", *write_buffer != d.write_buffer, write_buffer);
    add("dram", *dram != d.dram, &format_args!("{dram:?}"));
    add("roo_ps", wakeup_latency.as_ps() % 1000 != 0, &wakeup_latency.as_ps());
    add("roo_off_power", *off_power != d.roo_params.off_power_fraction, off_power);
    add("obs_ring_capacity", *ring_capacity != d.obs.ring_capacity, ring_capacity);
    add("obs_trace_path", *trace_path != d.obs.trace_path, &format_args!("{trace_path:?}"));
    add("obs_trace_every", *trace_every != d.obs.trace_every, trace_every);
    add("obs_trace_max", *trace_max != d.obs.trace_max, trace_max);
    add("obs_packets", *packets != d.obs.packets, packets);
    fp
}

/// What [`SimConfig::builder`] builds when nothing is set.
pub(crate) fn builder_defaults() -> &'static SimConfig {
    static DEFAULTS: std::sync::OnceLock<SimConfig> = std::sync::OnceLock::new();
    DEFAULTS.get_or_init(|| SimConfig::builder().build().expect("the builder defaults are valid"))
}

/// One cache line as [`DiskCache::store`] writes it.
#[derive(Debug, Serialize)]
struct Entry {
    /// Schema version, [`CACHE_SCHEMA_VERSION`] at write time.
    v: u32,
    /// Configuration fingerprint.
    fp: String,
    /// The cached result. Serializes as the report itself, so the line
    /// format does not depend on how the report is held.
    report: Arc<RunReport>,
}

/// The `v`/`fp` header of one cache line, read without decoding the
/// report that follows it.
#[derive(Debug, PartialEq)]
struct Header {
    /// The line's fingerprint.
    fp: String,
    /// Byte range of the `report` value within the line.
    report: Range<usize>,
}

/// Reads a line's header: `Some` only for a current-schema line laid out
/// as [`DiskCache::store`] writes it, `{"v":…,"fp":"…","report":…}` with
/// no whitespace between the tokens. The report is not parsed; its range
/// is everything between `"report":` and the line's closing brace.
fn read_header(line: &[u8]) -> Option<Header> {
    let rest = line.strip_prefix(b"{\"v\":")?;
    let digits = rest.iter().take_while(|b| b.is_ascii_digit()).count();
    let v: u32 = std::str::from_utf8(&rest[..digits]).ok()?.parse().ok()?;
    if v != CACHE_SCHEMA_VERSION {
        return None;
    }
    let rest = rest[digits..].strip_prefix(b",\"fp\":")?;
    let quoted = json_string_len(rest)?;
    let fp = match json::parse(std::str::from_utf8(&rest[..quoted]).ok()?).ok()? {
        json::Value::Str(fp) => fp,
        _ => return None,
    };
    let rest = rest[quoted..].strip_prefix(b",\"report\":")?;
    let start = line.len() - rest.len();
    let end = line.len() - 1;
    (start < end && line[end] == b'}').then_some(Header { fp, report: start..end })
}

/// Length of the JSON string token (quotes included) that `bytes` starts
/// with, found without unescaping it.
fn json_string_len(bytes: &[u8]) -> Option<usize> {
    if bytes.first() != Some(&b'"') {
        return None;
    }
    let mut i = 1;
    while let Some(&b) = bytes.get(i) {
        match b {
            b'"' => return Some(i + 1),
            b'\\' => i += 2,
            _ => i += 1,
        }
    }
    None
}

/// Where one indexed result lives.
#[derive(Debug, Clone)]
enum Slot {
    /// One line of a cache file, newline excluded.
    Line { file: Arc<Path>, offset: u64, len: usize },
    /// A result [`DiskCache::store`] could not write, kept so later gets
    /// still hit.
    Held(Arc<RunReport>),
}

/// One indexed result, detached from its [`DiskCache`]: reading it needs
/// no borrow of the cache, so a caller sharing the cache behind a lock
/// can look a result up under the lock and read it outside.
#[derive(Debug)]
pub struct Location {
    fp: String,
    slot: Slot,
}

impl Location {
    /// Reads and decodes the result. `None` when its line can no longer
    /// be read, decoded, or no longer carries this fingerprint; that
    /// warns, and the caller should [`DiskCache::forget`] the location.
    pub fn read(&self) -> Option<Arc<RunReport>> {
        let (file, offset, len) = match &self.slot {
            Slot::Held(report) => return Some(Arc::clone(report)),
            Slot::Line { file, offset, len } => (file, *offset, *len),
        };
        match read_line_report(file, offset, len, &self.fp) {
            Ok(report) => Some(Arc::new(report)),
            Err(e) => {
                memnet_simcore::memnet_warn!(
                    "[cache] dropping unreadable entry at {}:{offset} ({e}): {}",
                    file.display(),
                    self.fp
                );
                None
            }
        }
    }
}

/// Reads the `len`-byte line at `offset` in `file` and decodes its
/// report, checking that the line still carries fingerprint `fp`.
fn read_line_report(file: &Path, offset: u64, len: usize, fp: &str) -> Result<RunReport, String> {
    let mut line = vec![0; len];
    let mut f = fs::File::open(file).map_err(|e| e.to_string())?;
    f.seek(SeekFrom::Start(offset))
        .and_then(|_| f.read_exact(&mut line))
        .map_err(|e| e.to_string())?;
    let header = read_header(&line).filter(|h| h.fp == fp).ok_or("the line changed")?;
    let text = std::str::from_utf8(&line[header.report]).map_err(|e| e.to_string())?;
    json::parse(text).and_then(|v| RunReport::deserialize(&v)).map_err(|e| e.0)
}

/// An open cache directory: an index of every current-schema entry in
/// its `*.jsonl` files.
#[derive(Debug)]
pub struct DiskCache {
    dir: PathBuf,
    index: HashMap<String, Slot>,
}

/// Per-process counter making store filenames unique even when two stores
/// land in the same nanosecond.
static STORE_SEQ: AtomicU64 = AtomicU64::new(0);

impl DiskCache {
    /// Opens (creating if needed) the cache directory and indexes every
    /// current-schema line of its `*.jsonl` files by fingerprint. Reads
    /// each line's header only; no report is decoded.
    pub fn open(dir: &Path) -> std::io::Result<DiskCache> {
        fs::create_dir_all(dir)?;
        let mut index = HashMap::new();
        let mut skipped = 0usize;
        let mut names: Vec<PathBuf> = fs::read_dir(dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "jsonl"))
            .collect();
        // Deterministic precedence: later files (and later lines) win on
        // fingerprint ties.
        names.sort();
        for path in names {
            let file: Arc<Path> = path.into();
            skipped += index_file(&file, &mut index).unwrap_or(1);
        }
        if skipped > 0 {
            memnet_simcore::memnet_warn!(
                "[cache] skipped {skipped} stale or unreadable entries in {}",
                dir.display()
            );
        }
        Ok(DiskCache { dir: dir.to_path_buf(), index })
    }

    /// The directory this cache was opened on.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of indexed entries.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True if the cache indexes no entries.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Where the result for `fp` lives, if indexed. Touches no file.
    pub fn locate(&self, fp: &str) -> Option<Location> {
        let slot = self.index.get(fp)?.clone();
        Some(Location { fp: fp.to_owned(), slot })
    }

    /// Drops a location whose [`Location::read`] failed from the index,
    /// unless the entry has since been stored afresh. (Only lines can
    /// fail to read.)
    pub fn forget(&mut self, at: &Location) {
        if let (
            Some(Slot::Line { file, offset, .. }),
            Slot::Line { file: gone, offset: gone_at, .. },
        ) = (self.index.get(&at.fp), &at.slot)
        {
            if Arc::ptr_eq(file, gone) && offset == gone_at {
                self.index.remove(&at.fp);
            }
        }
    }

    /// Looks up a result by fingerprint, reading and decoding its line.
    /// The caller gets the only copy; the cache keeps none. A line that
    /// fails to decode is a miss, warned about once and dropped from the
    /// index.
    pub fn get(&mut self, fp: &str) -> Option<Arc<RunReport>> {
        let at = self.locate(fp)?;
        let report = at.read();
        if report.is_none() {
            self.forget(&at);
        }
        report
    }

    /// Persists freshly simulated results, returning the file written
    /// (`None` when `fresh` is empty), and indexes the new lines.
    ///
    /// Each report may come owned (`RunReport`) or shared
    /// (`Arc<RunReport>`); either way the file bytes are the same, and
    /// once written the cache holds no reference to the report.
    ///
    /// When the disk write fails the batch is kept in memory instead, so
    /// subsequent `get`s still hit — a full or read-only cache directory
    /// must never cost the caller its freshly simulated reports, only
    /// the persistence. On failure the temp file is cleaned up and the
    /// error returned for the caller to log; nothing is lost but the
    /// next process's warm start.
    ///
    /// The write is atomic: a unique temp file in the cache directory is
    /// renamed into place, so concurrent processes can store
    /// simultaneously without corrupting or overwriting one another.
    pub fn store<R: Into<Arc<RunReport>>>(
        &mut self,
        fresh: impl IntoIterator<Item = (String, R)>,
    ) -> std::io::Result<Option<PathBuf>> {
        let mut body = String::new();
        let mut batch = Vec::new();
        for (fp, report) in fresh {
            let entry = Entry { v: CACHE_SCHEMA_VERSION, fp, report: report.into() };
            let start = body.len();
            json::append(&mut body, &entry);
            batch.push((entry.fp, entry.report, start..body.len()));
            body.push('\n');
        }
        if batch.is_empty() {
            return Ok(None);
        }
        match self.write_batch(&body) {
            Ok(dest) => {
                let file: Arc<Path> = dest.as_path().into();
                for (fp, _, line) in batch {
                    let slot = Slot::Line {
                        file: Arc::clone(&file),
                        offset: line.start as u64,
                        len: line.len(),
                    };
                    self.index.insert(fp, slot);
                }
                Ok(Some(dest))
            }
            Err(e) => {
                // The reports exist whether or not the disk accepted them.
                for (fp, report, _) in batch {
                    self.index.insert(fp, Slot::Held(report));
                }
                Err(e)
            }
        }
    }

    /// The disk half of [`Self::store`]: writes `body` to a unique temp
    /// file and renames it into place, removing the temp file on any
    /// failure (a partial write on a full disk must not leave `.tmp`
    /// litter for `open` to skip forever after).
    fn write_batch(&self, body: &str) -> std::io::Result<PathBuf> {
        fs::create_dir_all(&self.dir)?;
        let unique = format!(
            "{}-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos())
                .unwrap_or(0),
            STORE_SEQ.fetch_add(1, Ordering::Relaxed)
        );
        let tmp = self.dir.join(format!(".store-{unique}.tmp"));
        let dest = self.dir.join(format!("results-{unique}.jsonl"));
        let written = (|| {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(body.as_bytes())?;
            f.sync_all()?;
            fs::rename(&tmp, &dest)
        })();
        if let Err(e) = written {
            let _ = fs::remove_file(&tmp);
            return Err(e);
        }
        Ok(dest)
    }
}

/// Indexes one cache file's lines into `index`, returning how many
/// non-blank lines it skipped for lacking a current-schema header.
fn index_file(file: &Arc<Path>, index: &mut HashMap<String, Slot>) -> std::io::Result<usize> {
    let mut reader = BufReader::with_capacity(1 << 16, fs::File::open(file)?);
    let mut line = Vec::new();
    let (mut offset, mut skipped) = (0u64, 0usize);
    loop {
        line.clear();
        let n = reader.read_until(b'\n', &mut line)?;
        if n == 0 {
            return Ok(skipped);
        }
        let lead = line.len() - line.trim_ascii_start().len();
        let text = line[lead..].trim_ascii_end();
        if !text.is_empty() {
            match read_header(text) {
                Some(header) => {
                    let slot = Slot::Line {
                        file: Arc::clone(file),
                        offset: offset + lead as u64,
                        len: text.len(),
                    };
                    index.insert(header.fp, slot);
                }
                None => skipped += 1,
            }
        }
        offset += n as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Key, Settings};
    use memnet_core::{AddressMapping, NetworkScale, PolicyKind};
    use memnet_faults::FaultConfig;
    use memnet_net::TopologyKind;
    use memnet_policy::Mechanism;
    use memnet_power::{EnergyBackendKind, IddModel};
    use memnet_simcore::{AuditLevel, SimDuration};
    use memnet_workload::catalog;

    fn unique_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "memnet-cache-test-{tag}-{}-{}",
            std::process::id(),
            STORE_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_report() -> RunReport {
        SimConfig::builder()
            .workload("mixD")
            .eval_period(SimDuration::from_us(20))
            .seed(7)
            .build()
            .unwrap()
            .run()
    }

    #[test]
    fn report_round_trips_byte_identical() {
        let report = tiny_report();
        let once = json::to_string(&report);
        let back = RunReport::deserialize(&json::parse(&once).unwrap()).unwrap();
        // Re-serializing the deserialized report must reproduce the exact
        // bytes: float formatting is shortest-round-trip, so equality here
        // implies bit-identical numeric payloads.
        assert_eq!(json::to_string(&back), once);
        assert_eq!(back.workload, report.workload);
        assert_eq!(back.completed_reads, report.completed_reads);
        assert_eq!(back.power.watts().to_bits(), report.power.watts().to_bits());
    }

    #[test]
    fn store_then_reopen_recovers_entries() {
        let dir = unique_dir("reopen");
        let report = tiny_report();
        let mut cache = DiskCache::open(&dir).unwrap();
        assert!(cache.is_empty());
        let written =
            cache.store([("fp-a".to_owned(), report.clone())]).unwrap().expect("one file");
        assert!(written.exists());
        assert_eq!(cache.len(), 1);

        let mut reopened = DiskCache::open(&dir).unwrap();
        assert_eq!(reopened.len(), 1);
        let cached = reopened.get("fp-a").expect("entry survives reopen");
        assert_eq!(json::to_string(&cached), json::to_string(&report));
        assert!(reopened.get("fp-b").is_none());
        // The storing handle indexed its own line: it serves it too.
        let own = cache.get("fp-a").expect("the stored line is indexed");
        assert_eq!(json::to_string(&own), json::to_string(&report));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_writes_the_same_bytes_for_owned_and_shared_reports() {
        let report = tiny_report();
        let shared = Arc::new(report.clone());
        let line = format!(
            "{{\"v\":{CACHE_SCHEMA_VERSION},\"fp\":\"fp-a\",\"report\":{}}}\n",
            json::to_string(&report)
        );

        let owned_dir = unique_dir("owned");
        let owned_file = DiskCache::open(&owned_dir)
            .unwrap()
            .store([("fp-a".to_owned(), report)])
            .unwrap()
            .expect("one file");
        let shared_dir = unique_dir("shared");
        let mut cache = DiskCache::open(&shared_dir).unwrap();
        let shared_file =
            cache.store([("fp-a".to_owned(), Arc::clone(&shared))]).unwrap().expect("one file");

        assert_eq!(fs::read_to_string(&owned_file).unwrap(), line);
        assert_eq!(fs::read_to_string(&shared_file).unwrap(), line);
        // The cache keeps no reference to a stored report: the caller's
        // allocation is the only copy, and a get decodes a fresh one.
        assert_eq!(Arc::strong_count(&shared), 1);
        let decoded = cache.get("fp-a").unwrap();
        assert!(!Arc::ptr_eq(&decoded, &shared));
        assert_eq!(json::to_string(&decoded), json::to_string(&shared));
        let _ = fs::remove_dir_all(&owned_dir);
        let _ = fs::remove_dir_all(&shared_dir);
    }

    #[test]
    fn store_on_an_unusable_cache_dir_keeps_results_and_leaves_no_litter() {
        let dir = unique_dir("store-fail");
        let mut cache = DiskCache::open(&dir).unwrap();
        // Make the directory unusable after opening — the moral
        // equivalent of a read-only MEMNET_CACHE_DIR or a disk that
        // filled up mid-sweep (a permissions-based probe cannot work
        // here: tests may run as root, which ignores file modes).
        fs::remove_dir_all(&dir).unwrap();
        fs::write(&dir, b"a file where the cache dir should be").unwrap();

        let report = tiny_report();
        let err = cache.store([("fp-a".to_owned(), report.clone())]);
        assert!(err.is_err(), "an unusable cache dir must surface as an error, not a panic");
        // The freshly simulated result survives in memory: persistence
        // failure only costs the next process its warm start.
        let kept = cache.get("fp-a").expect("failed store keeps the result in memory");
        assert_eq!(json::to_string(&kept), json::to_string(&report));

        // A later successful store proceeds normally once the path is a
        // directory again, and no temp-file litter was left behind.
        fs::remove_file(&dir).unwrap();
        cache.store([("fp-b".to_owned(), tiny_report())]).unwrap();
        let litter: Vec<PathBuf> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "tmp"))
            .collect();
        assert!(litter.is_empty(), "failed stores must clean up temp files: {litter:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_schema_version_is_skipped() {
        let dir = unique_dir("schema");
        let mut cache = DiskCache::open(&dir).unwrap();
        cache.store([("fp-a".to_owned(), tiny_report())]).unwrap();

        // Rewrite the stored file claiming a future schema version, plus
        // one line of garbage: both must be ignored on reopen.
        let file = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .find(|p| p.extension().is_some_and(|x| x == "jsonl"))
            .unwrap();
        let doctored = fs::read_to_string(&file)
            .unwrap()
            .replace(&format!("{{\"v\":{CACHE_SCHEMA_VERSION},"), "{\"v\":999,");
        fs::write(&file, format!("{doctored}not json at all\n")).unwrap();

        let reopened = DiskCache::open(&dir).unwrap();
        assert!(reopened.is_empty(), "future-version entries must not load");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_decodes_no_report_and_get_drops_what_does_not_decode() {
        let dir = unique_dir("corrupt-bodies");
        fs::create_dir_all(&dir).unwrap();
        let good = json::to_string(&tiny_report());
        // Valid current-schema headers over report bodies that cannot
        // decode: a wrong shape, broken JSON, a truncated report.
        let bodies = ["{\"not\":\"a report\"}", "[1,2}", &good[..good.len() / 2]];
        let text: String = bodies
            .iter()
            .enumerate()
            .map(|(i, body)| {
                format!("{{\"v\":{CACHE_SCHEMA_VERSION},\"fp\":\"fp-{i}\",\"report\":{body}}}\n")
            })
            .collect();
        fs::write(dir.join("results-corrupt.jsonl"), text).unwrap();

        let mut cache = DiskCache::open(&dir).unwrap();
        assert_eq!(cache.len(), bodies.len(), "open indexes every line without decoding it");
        for i in 0..bodies.len() {
            let fp = format!("fp-{i}");
            assert!(cache.locate(&fp).is_some());
            assert!(cache.get(&fp).is_none(), "an undecodable body is a miss");
            assert!(cache.locate(&fp).is_none(), "and leaves the index");
        }
        assert!(cache.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_line_changed_after_open_is_a_miss() {
        let dir = unique_dir("changed");
        let mut cache = DiskCache::open(&dir).unwrap();
        let file = cache.store([("fp-a".to_owned(), tiny_report())]).unwrap().unwrap();
        let at = cache.locate("fp-a").unwrap();
        // Same length, another fingerprint: the offsets still land on a
        // well-formed line, which must not be served as `fp-a`.
        let text = fs::read_to_string(&file).unwrap();
        fs::write(&file, text.replace("\"fp\":\"fp-a\"", "\"fp\":\"fp-b\"")).unwrap();
        assert!(at.read().is_none());
        // A store between the failed read and its `forget` (another
        // thread simulating the same cell) survives the forget.
        cache.store([("fp-a".to_owned(), tiny_report())]).unwrap();
        cache.forget(&at);
        assert!(cache.get("fp-a").is_some(), "the fresh entry stays indexed");
        let _ = fs::remove_dir_all(&dir);
    }

    /// One line exactly as [`DiskCache::store`] writes it.
    fn real_line() -> &'static str {
        static LINE: std::sync::OnceLock<String> = std::sync::OnceLock::new();
        LINE.get_or_init(|| {
            let settings = Settings::default();
            let key = Key::main(
                "mixD",
                TopologyKind::DaisyChain,
                NetworkScale::Small,
                PolicyKind::FullPower,
                Mechanism::FullPower,
                0.05,
            );
            let fp = fingerprint(&key.config(&settings, settings.seed));
            json::to_string(&Entry { v: CACHE_SCHEMA_VERSION, fp, report: tiny_report().into() })
        })
    }

    /// The header oracle: the line up to its report, closed with a null
    /// report, must parse as JSON declaring the current schema and `fp`.
    fn header_is_current(line: &[u8], header: &Header) -> bool {
        let head = String::from_utf8_lossy(&line[..header.report.start]);
        json::parse(&format!("{head}null}}")).is_ok_and(|v| {
            v.get("v").and_then(|v| v.num::<u32>()) == Ok(CACHE_SCHEMA_VERSION)
                && v.get("fp").and_then(|fp| fp.as_str().map(str::to_owned))
                    == Ok(header.fp.clone())
        })
    }

    #[test]
    fn header_reader_indexes_real_lines_only_at_the_current_schema() {
        let line = real_line();
        let header = read_header(line.as_bytes()).expect("a stored line has a header");
        assert!(header.fp.starts_with(&format!("v{CACHE_SCHEMA_VERSION}|")));
        let body = &line[header.report.clone()];
        let report = RunReport::deserialize(&json::parse(body).unwrap()).unwrap();
        assert_eq!(json::to_string(&report), body, "the range is exactly the report");
        for v in [0, CACHE_SCHEMA_VERSION - 1, CACHE_SCHEMA_VERSION + 1, 999] {
            let other =
                line.replacen(&format!("\"v\":{CACHE_SCHEMA_VERSION},"), &format!("\"v\":{v},"), 1);
            assert_eq!(read_header(other.as_bytes()), None, "v={v}");
        }
        for bad in
            ["", "{}", "{\"v\":10}", "{\"v\":10,\"fp\":\"x\",\"report\":}", "{\"v\":10,\"fp\":\"x"]
        {
            assert_eq!(read_header(bad.as_bytes()), None, "{bad:?}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        #[test]
        fn header_reader_never_panics_on_arbitrary_bytes(
            bytes in proptest::collection::vec(proptest::any::<u8>(), 0..96),
            prefixed in proptest::any::<bool>(),
        ) {
            // Half the cases start like a real line, to get past the
            // first token.
            let mut line = if prefixed { b"{\"v\":10,\"fp\":\"".to_vec() } else { Vec::new() };
            line.extend(bytes);
            if let Some(header) = read_header(&line) {
                proptest::prop_assert!(header.report.end < line.len());
                proptest::prop_assert!(header_is_current(&line, &header), "{line:?}");
            }
        }

        #[test]
        fn header_reader_never_panics_on_mutated_real_lines(
            edits in proptest::collection::vec(
                (proptest::any::<u64>(), proptest::any::<u8>(), 0u8..3),
                1..4,
            ),
        ) {
            let mut line = real_line().as_bytes().to_vec();
            for (at, byte, op) in edits {
                // Bias edits towards the header, where the reader looks.
                let at = (at as usize) % if at % 2 == 0 { 200.min(line.len() + 1) } else { line.len() + 1 };
                match op {
                    0 if at < line.len() => line[at] = byte,
                    1 => line.insert(at.min(line.len()), byte),
                    _ if at < line.len() => {
                        line.remove(at);
                    }
                    _ => line.truncate(at),
                }
            }
            if let Some(header) = read_header(&line) {
                proptest::prop_assert!(header.report.end < line.len());
                proptest::prop_assert!(header_is_current(&line, &header), "{:?}", String::from_utf8_lossy(&line));
            }
        }
    }

    #[test]
    fn fingerprint_tracks_settings_and_schema() {
        let k = Key::main(
            "mixD",
            TopologyKind::DaisyChain,
            NetworkScale::Small,
            PolicyKind::NetworkAware,
            Mechanism::VwlRoo,
            0.05,
        );
        let s = Settings {
            eval_period: SimDuration::from_us(20),
            threads: 2,
            seed: 1,
            ..Settings::default()
        };
        let fp_of = |k: &Key, s: &Settings| fingerprint(&k.config(s, s.seed));
        let fp = fp_of(&k, &s);
        assert!(fp.starts_with(&format!("v{CACHE_SCHEMA_VERSION}|")));
        assert!(fp.contains("wl=mixD"));

        // A different seed, eval period, obs flag, or key must change the
        // fingerprint; the thread count and shard tag must not (neither
        // can affect results).
        let mut other = s.clone();
        other.seed = 2;
        assert_ne!(fp_of(&k, &other), fp);
        other = s.clone();
        other.eval_period = SimDuration::from_us(21);
        assert_ne!(fp_of(&k, &other), fp);
        other = s.clone();
        other.obs = true;
        assert_ne!(fp_of(&k, &other), fp);
        other = s.clone();
        other.threads = 9;
        other.shard = crate::shard::Shard { index: 1, of: 3 };
        assert_eq!(fp_of(&k, &other), fp);
        let mut k2 = k.clone();
        k2.alpha_tenths_pct += 1;
        assert_ne!(fp_of(&k2, &s), fp);
    }

    fn mixd(eval_us: u64, seed: u64) -> SimConfig {
        SimConfig::builder()
            .workload("mixD")
            .eval_period(SimDuration::from_us(eval_us))
            .seed(seed)
            .build()
            .unwrap()
    }

    #[test]
    fn every_field_but_the_audit_level_changes_the_fingerprint() {
        let base = mixd(20, 7);
        // Destructured without `..`, like `fingerprint`: a new field does
        // not compile here until it has a mutation below.
        let SimConfig {
            workload: _,
            topology: _,
            scale: _,
            policy: _,
            mechanism: _,
            alpha: _,
            epoch: _,
            eval_period: _,
            roo_params: RooParams { wakeup_latency: _, off_power_fraction: _ },
            mapping: _,
            seed: _,
            max_outstanding_reads: _,
            write_buffer: _,
            dram: _,
            isp_iterations: _,
            wake_chaining: _,
            rescue_pool: _,
            audit: _,
            faults: _,
            obs:
                ObsConfig {
                    enabled: _,
                    ring_capacity: _,
                    trace_path: _,
                    trace_every: _,
                    trace_max: _,
                    packets: _,
                },
            source: _,
            energy_backend: _,
            calibration: _,
        } = &base;
        type Mutation = (&'static str, fn(&mut SimConfig));
        let mutations: [Mutation; 29] = [
            ("workload", |c| c.workload = catalog::by_name("lu.D").unwrap()),
            ("topology", |c| c.topology = TopologyKind::Star),
            ("scale", |c| c.scale = NetworkScale::Big),
            ("policy", |c| c.policy = PolicyKind::NetworkAware),
            ("mechanism", |c| c.mechanism = Mechanism::Vwl),
            ("alpha", |c| c.alpha = 0.051),
            ("epoch", |c| c.epoch = SimDuration::from_us(50)),
            ("eval_period", |c| c.eval_period = SimDuration::from_us(21)),
            ("roo wakeup", |c| c.roo_params = RooParams::slow()),
            ("roo wakeup ps", |c| c.roo_params.wakeup_latency = SimDuration::from_ps(14_500)),
            ("roo off power", |c| c.roo_params.off_power_fraction = 0.02),
            ("mapping", |c| c.mapping = AddressMapping::PageInterleaved),
            ("seed", |c| c.seed = 8),
            ("max_outstanding_reads", |c| c.max_outstanding_reads = 32),
            ("write_buffer", |c| c.write_buffer = 64),
            ("dram", |c| c.dram.vault_buffer_entries = 8),
            ("isp_iterations", |c| c.isp_iterations = 1),
            ("wake_chaining", |c| c.wake_chaining = false),
            ("rescue_pool", |c| c.rescue_pool = false),
            ("faults", |c| c.faults = Arc::new(FaultConfig::parse("ber=1e-6").unwrap())),
            ("obs enabled", |c| c.obs.enabled = true),
            ("obs ring_capacity", |c| c.obs.ring_capacity = 8),
            ("obs trace_path", |c| c.obs.trace_path = Some("t.jsonl".to_owned())),
            ("obs trace_every", |c| c.obs.trace_every = 2),
            ("obs trace_max", |c| c.obs.trace_max = 5),
            ("obs packets", |c| c.obs.packets = true),
            ("source", |c| {
                let trace = mixd(2, 7).record_trace(100_000).unwrap();
                c.source = TrafficSpec::Replay(Arc::new(trace));
            }),
            ("energy_backend", |c| c.energy_backend = EnergyBackendKind::Idd),
            ("calibration", |c| c.calibration = Some(Arc::new(IddModel::hmc_gen2()))),
        ];
        let fp = fingerprint(&base);
        let mut seen = std::collections::HashSet::from([fp.clone()]);
        for (name, mutate) in mutations {
            let mut changed = base.clone();
            mutate(&mut changed);
            assert!(seen.insert(fingerprint(&changed)), "{name} must change the fingerprint");
        }
        // Audit checks never change results.
        let audited = SimConfig { audit: AuditLevel::Full, ..base.clone() };
        assert_eq!(fingerprint(&audited), fp);
        let quiet = SimConfig { audit: AuditLevel::Off, ..base };
        assert_eq!(fingerprint(&quiet), fp);
    }

    #[test]
    fn a_replay_is_named_by_its_trace_digest() {
        let replay = |seed| {
            let trace = mixd(2, seed).record_trace(100_000).unwrap();
            let hex = trace.digest_hex();
            let cfg = SimConfig::builder()
                .replay(Arc::new(trace))
                .eval_period(SimDuration::from_us(2))
                .seed(7)
                .build()
                .unwrap();
            (fingerprint(&cfg), hex)
        };
        let ((a, a_hex), (b, b_hex)) = (replay(7), replay(8));
        assert_ne!(a_hex, b_hex);
        assert!(a.contains(&format!("|src=trace:{a_hex}|")), "{a}");
        assert!(b.contains(&format!("|src=trace:{b_hex}|")), "{b}");
        assert_ne!(a, fingerprint(&mixd(2, 7)), "a replay is not the live run's result");
    }

    #[test]
    fn a_calibrated_run_is_named_by_its_model_digest() {
        let calibrated = |model: IddModel| {
            let hex = model.digest_hex();
            let cfg = SimConfig::builder().workload("mixD").calibration(model).build().unwrap();
            assert_eq!(cfg.energy_backend, EnergyBackendKind::Idd, "calibration selects idd");
            (fingerprint(&cfg), hex)
        };
        let stock = IddModel::hmc_gen2();
        let mut hot = stock.clone();
        hot.idd4r *= 1.1;
        let ((a, a_hex), (b, b_hex)) = (calibrated(stock), calibrated(hot));
        assert_ne!(a, b);
        assert!(a.contains(&format!("|calib=calib:{a_hex}|energy=idd")), "{a}");
        assert!(b.contains(&format!("|calib=calib:{b_hex}|energy=idd")), "{b}");
    }
}
