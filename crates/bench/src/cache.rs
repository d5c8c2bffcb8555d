//! Persistent, versioned on-disk result cache.
//!
//! The matrix-backed figure binaries and `memnet sweep` simulate through
//! [`crate::Matrix`], which consults this cache before sweeping; the
//! `memnet serve` daemon stores and serves its jobs through it too. The
//! closed-form `tables`/`fig04` binaries and `ablations` (which calls
//! `run_pair` directly) never touch it. Cached results live as
//! JSON-lines files (`*.jsonl`) in the cache directory; each line is one
//! entry:
//!
//! ```json
//! {"v":10,"fp":"v10|eval_ps=...|seed=...|wl=mixD|...","report":{...}}
//! ```
//!
//! `v` is [`CACHE_SCHEMA_VERSION`]; lines with any other version (or that
//! fail to parse) are skipped, so stale caches degrade to misses rather
//! than errors. `fp` is the full configuration fingerprint produced by
//! [`crate::Key::fingerprint_at`], which folds in the schema version, the
//! run-affecting [`crate::Settings`] fields (evaluation period and
//! `obs`), the cell's seed and every `Key` field — any change to any of
//! them invalidates the entry.
//!
//! Each result is held in memory once. The cache keeps every entry as an
//! `Arc<RunReport>`, and [`crate::Matrix`] holds that same allocation for
//! results it loads from here or simulates and stores here, so a sweep
//! costs one report per cell, not one per holder.
//!
//! Writes are atomic and collision-free under concurrent figure binaries:
//! each [`DiskCache::store`] call writes a fresh uniquely named temp file
//! in the cache directory and `rename(2)`s it into place, so readers only
//! ever see complete files and two processes never clobber each other's
//! entries.

use std::collections::HashMap;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use memnet_core::RunReport;
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
/// re-simulates once under the new engine.
pub const CACHE_SCHEMA_VERSION: u32 = 10;

/// One cache line on disk.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Entry {
    /// Schema version, [`CACHE_SCHEMA_VERSION`] at write time.
    v: u32,
    /// Configuration fingerprint.
    fp: String,
    /// The cached result. Serializes as the report itself, so the line
    /// format does not depend on how the report is held.
    report: Arc<RunReport>,
}

/// An open cache directory with all valid entries loaded.
#[derive(Debug)]
pub struct DiskCache {
    dir: PathBuf,
    entries: HashMap<String, Arc<RunReport>>,
}

/// Per-process counter making store filenames unique even when two stores
/// land in the same nanosecond.
static STORE_SEQ: AtomicU64 = AtomicU64::new(0);

impl DiskCache {
    /// Opens (creating if needed) the cache directory and loads every
    /// current-schema entry from its `*.jsonl` files.
    pub fn open(dir: &Path) -> std::io::Result<DiskCache> {
        fs::create_dir_all(dir)?;
        let mut entries = HashMap::new();
        let mut skipped = 0usize;
        let mut names: Vec<PathBuf> = fs::read_dir(dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "jsonl"))
            .collect();
        // Deterministic precedence: later files win on fingerprint ties.
        names.sort();
        for path in names {
            let text = match fs::read_to_string(&path) {
                Ok(t) => t,
                Err(_) => {
                    skipped += 1;
                    continue;
                }
            };
            for line in text.lines() {
                if line.trim().is_empty() {
                    continue;
                }
                match json::parse(line).and_then(|v| Entry::deserialize(&v)) {
                    Ok(e) if e.v == CACHE_SCHEMA_VERSION => {
                        entries.insert(e.fp, e.report);
                    }
                    _ => skipped += 1,
                }
            }
        }
        if skipped > 0 {
            memnet_simcore::memnet_warn!(
                "[cache] skipped {skipped} stale or unreadable entries in {}",
                dir.display()
            );
        }
        Ok(DiskCache { dir: dir.to_path_buf(), entries })
    }

    /// The directory this cache was opened on.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of loaded entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up a result by fingerprint.
    pub fn get(&self, fp: &str) -> Option<&RunReport> {
        self.get_shared(fp).map(|r| &**r)
    }

    /// [`Self::get`] as the shared allocation itself, for holders that
    /// keep the result beyond this borrow: cloning the `Arc` shares the
    /// one report instead of copying it.
    pub fn get_shared(&self, fp: &str) -> Option<&Arc<RunReport>> {
        self.entries.get(fp)
    }

    /// Persists freshly simulated results, returning the file written
    /// (`None` when `fresh` is empty).
    ///
    /// Each report may come owned (`RunReport`) or shared
    /// (`Arc<RunReport>`); either way the file bytes are the same. A
    /// shared report is kept by reference, so a caller that holds the
    /// same `Arc` and the cache share one copy of it.
    ///
    /// The entries are retained in memory so subsequent `get`s hit even
    /// when the disk write fails — a full or read-only cache directory
    /// must never cost the caller its freshly simulated reports, only
    /// the persistence. On failure the temp file is cleaned up and the
    /// error returned for the caller to log; nothing is lost but the
    /// next process's warm start.
    ///
    /// The write is atomic: a unique temp file in the cache directory is
    /// renamed into place, so concurrent figure binaries can store
    /// simultaneously without corrupting or overwriting one another.
    pub fn store<R: Into<Arc<RunReport>>>(
        &mut self,
        fresh: impl IntoIterator<Item = (String, R)>,
    ) -> std::io::Result<Option<PathBuf>> {
        let mut body = String::new();
        let mut batch = Vec::new();
        for (fp, report) in fresh {
            let entry = Entry { v: CACHE_SCHEMA_VERSION, fp, report: report.into() };
            body.push_str(&json::to_string(&entry));
            body.push('\n');
            batch.push((entry.fp, entry.report));
        }
        if batch.is_empty() {
            return Ok(None);
        }
        let result = self.write_batch(&body);
        // Memory retention is unconditional: the reports exist whether or
        // not the disk accepted them.
        for (fp, report) in batch {
            self.entries.insert(fp, report);
        }
        result.map(Some)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Key, Settings};
    use memnet_core::{NetworkScale, PolicyKind, SimConfig};
    use memnet_net::TopologyKind;
    use memnet_policy::Mechanism;
    use memnet_simcore::SimDuration;

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

        let reopened = DiskCache::open(&dir).unwrap();
        assert_eq!(reopened.len(), 1);
        let cached = reopened.get("fp-a").expect("entry survives reopen");
        assert_eq!(json::to_string(cached), json::to_string(&report));
        assert!(reopened.get("fp-b").is_none());
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
        // The cache keeps the caller's allocation, not a copy of it.
        assert!(std::ptr::eq(cache.get("fp-a").unwrap(), &*shared));
        assert_eq!(Arc::strong_count(&shared), 2);
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
        assert_eq!(json::to_string(kept), json::to_string(&report));

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
        let fp = k.fingerprint(&s);
        assert!(fp.starts_with(&format!("v{CACHE_SCHEMA_VERSION}|")));
        assert!(fp.contains("wl=mixD"));

        // A different seed, eval period, obs flag, or key must change the
        // fingerprint; the thread count and shard tag must not (neither
        // can affect results).
        let mut other = s.clone();
        other.seed = 2;
        assert_ne!(k.fingerprint(&other), fp);
        other = s.clone();
        other.eval_period = SimDuration::from_us(21);
        assert_ne!(k.fingerprint(&other), fp);
        other = s.clone();
        other.obs = true;
        assert_ne!(k.fingerprint(&other), fp);
        other = s.clone();
        other.threads = 9;
        other.shard = crate::shard::Shard { index: 1, of: 3 };
        assert_eq!(k.fingerprint(&other), fp);
        let mut k2 = k.clone();
        k2.alpha_tenths_pct += 1;
        assert_ne!(k2.fingerprint(&s), fp);
    }
}
