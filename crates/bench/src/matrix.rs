//! The experiment matrix: a memoized store of simulation results keyed by
//! configuration, filled by parallel sweeps.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use memnet_core::{AddressMapping, NetworkScale, PolicyKind, RunReport, SimConfig};
use memnet_net::mech::RooParams;
use memnet_net::TopologyKind;
use memnet_obs::ObsConfig;
use memnet_policy::Mechanism;
use memnet_power::EnergyBackendKind;

use crate::cache::{DiskCache, Location, CACHE_SCHEMA_VERSION};
use crate::settings::Settings;

/// A hashable identity for one simulation configuration.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Key {
    /// Workload name.
    pub workload: &'static str,
    /// Topology.
    pub topology: TopologyKind,
    /// Network scale.
    pub scale: NetworkScale,
    /// Policy.
    pub policy: PolicyKind,
    /// Mechanism.
    pub mechanism: Mechanism,
    /// α in tenths of a percent (25 = 2.5 %).
    pub alpha_tenths_pct: u32,
    /// ROO wakeup latency in ns (14 or 20).
    pub roo_wakeup_ns: u32,
    /// Address mapping.
    pub mapping: AddressMapping,
    /// Canonical fault-scenario spec ([`FaultConfig::spec`]); empty for
    /// fault-free runs, so pre-existing sweep dimensions are unaffected.
    ///
    /// [`FaultConfig::spec`]: memnet_faults::FaultConfig::spec
    pub faults: String,
    /// Traffic-source identity beyond the workload name: empty for
    /// synthetic/stress generators (whose streams are functions of
    /// workload + seed alone), or `trace:<digest>` for a replayed request
    /// trace. Replay keys exist so fingerprints account for trace content;
    /// they cannot be simulated by the matrix (replay runs are CLI-driven).
    pub source: String,
    /// Calibration provenance of the energy backend: empty when the stock
    /// model prices the run, or `calib:<digest>` of the calibration JSON
    /// when a fitted [`IddModel`] replaces it. Calibrated keys exist so
    /// manifest fingerprints distinguish results priced by different
    /// calibrations; they cannot be simulated by the matrix (the engine
    /// backend is injected by the caller).
    ///
    /// [`IddModel`]: memnet_power::IddModel
    pub calibration: String,
    /// Which energy backend priced the run. In the key (rather than
    /// [`Settings`]) so one matrix can hold both backends' results for
    /// the same configuration side by side — the model differential
    /// figure depends on that.
    pub energy: EnergyBackendKind,
}

impl Key {
    /// A key for the main-study configuration space.
    pub fn main(
        workload: &'static str,
        topology: TopologyKind,
        scale: NetworkScale,
        policy: PolicyKind,
        mechanism: Mechanism,
        alpha: f64,
    ) -> Key {
        Key {
            workload,
            topology,
            scale,
            policy,
            mechanism,
            alpha_tenths_pct: (alpha * 1000.0).round() as u32,
            roo_wakeup_ns: 14,
            mapping: AddressMapping::Contiguous,
            faults: String::new(),
            source: String::new(),
            calibration: String::new(),
            energy: EnergyBackendKind::Analytical,
        }
    }

    /// This key priced by a different energy backend (the model
    /// differential's sweep dimension).
    pub fn with_backend(&self, energy: EnergyBackendKind) -> Key {
        Key { energy, ..self.clone() }
    }

    /// This key with a fault scenario attached (the `faults` sweep
    /// dimension). Pass the canonical spec from
    /// [`memnet_faults::FaultConfig::spec`].
    pub fn with_faults(&self, spec: &str) -> Key {
        Key { faults: spec.to_string(), ..self.clone() }
    }

    /// This key with a replayed-trace identity attached: the trace digest
    /// (from [`RequestTrace::digest_hex`]) distinguishes cached results
    /// driven by different trace contents under the same workload name.
    ///
    /// [`RequestTrace::digest_hex`]: memnet_workload::RequestTrace::digest_hex
    pub fn with_replay(&self, digest_hex: &str) -> Key {
        Key { source: format!("trace:{digest_hex}"), ..self.clone() }
    }

    /// This key priced by a calibrated energy model: the digest of the
    /// calibration JSON distinguishes cached results priced by different
    /// fitted [`IddModel`]s under the same backend kind.
    ///
    /// [`IddModel`]: memnet_power::IddModel
    pub fn with_calibration(&self, digest_hex: &str) -> Key {
        Key { calibration: format!("calib:{digest_hex}"), ..self.clone() }
    }

    /// The full-power baseline key matching this configuration. α and the
    /// ROO wakeup latency are normalized (full-power links have neither),
    /// so every managed variant shares one baseline run.
    pub fn baseline(&self) -> Key {
        Key {
            policy: PolicyKind::FullPower,
            mechanism: Mechanism::FullPower,
            alpha_tenths_pct: 50,
            roo_wakeup_ns: 14,
            ..self.clone()
        }
    }

    /// α as a fraction.
    pub fn alpha(&self) -> f64 {
        f64::from(self.alpha_tenths_pct) / 1000.0
    }

    /// The persistent-cache identity of this configuration under
    /// `settings`: folds in the cache schema version, every run-affecting
    /// settings field (evaluation period, seed and the observability
    /// flag — the thread count and sweep shard cannot change results and
    /// are excluded), and every key field. Equal fingerprints guarantee
    /// byte-identical simulation results. (`MEMNET_AUDIT` is also
    /// excluded: audit checks cannot change results, only the diagnostic
    /// `audit` section of a cached report, which therefore reflects the
    /// level in effect when it was first simulated.)
    pub fn fingerprint(&self, settings: &Settings) -> String {
        self.fingerprint_at(settings, settings.seed)
    }

    /// [`Self::fingerprint`] under an explicit seed. Multi-seed sweeps
    /// cache each (key, seed) cell under the fingerprint a solo run with
    /// that seed would use: every cell is an ordinary solo run.
    pub fn fingerprint_at(&self, settings: &Settings, seed: u64) -> String {
        format!(
            "v{}|eval_ps={}|seed={}|wl={}|topo={:?}|scale={:?}|policy={:?}|mech={:?}|alpha={}|roo={}|map={:?}|faults={}|obs={}|src={}|calib={}|energy={}",
            CACHE_SCHEMA_VERSION,
            settings.eval_period.as_ps(),
            seed,
            self.workload,
            self.topology,
            self.scale,
            self.policy,
            self.mechanism,
            self.alpha_tenths_pct,
            self.roo_wakeup_ns,
            self.mapping,
            self.faults,
            settings.obs,
            self.source,
            self.calibration,
            self.energy.label(),
        )
    }

    /// Builds the simulation configuration for this key, or explains why
    /// the matrix cannot simulate it. Replay keys (`src=trace:<digest>`)
    /// refuse matrix simulation because the trace content lives outside
    /// the key — replay runs are CLI-driven; calibrated keys refuse
    /// because the fitted energy backend is injected by the caller. The
    /// error names the offending cell by its cache fingerprint so a
    /// sweep operator can find it in the plan.
    fn try_config(&self, settings: &Settings) -> Result<SimConfig, String> {
        if !self.source.is_empty() {
            return Err(format!(
                "replay keys refuse matrix simulation (trace content is not part of the key; \
                 replay runs are CLI-driven): {}",
                self.fingerprint(settings)
            ));
        }
        if !self.calibration.is_empty() {
            return Err(format!(
                "calibrated keys refuse matrix simulation (the fitted energy backend is injected \
                 by the caller): {}",
                self.fingerprint(settings)
            ));
        }
        let roo = if self.roo_wakeup_ns == 20 { RooParams::slow() } else { RooParams::fast() };
        let faults =
            memnet_faults::FaultConfig::parse(&self.faults).expect("matrix fault specs are valid");
        let mut builder = SimConfig::builder()
            .workload(self.workload)
            .topology(self.topology)
            .scale(self.scale)
            .policy(self.policy)
            .mechanism(self.mechanism)
            .alpha(self.alpha().max(0.001))
            .roo_params(roo)
            .mapping(self.mapping)
            .faults(faults)
            .eval_period(settings.eval_period)
            .seed(settings.seed)
            .energy_backend(self.energy);
        if settings.obs {
            builder = builder.obs(ObsConfig { enabled: true, ..ObsConfig::off() });
        }
        Ok(builder.build().expect("matrix keys are valid configurations"))
    }
}

/// What one [`Matrix::ensure`] call did, for logging and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EnsureStats {
    /// Distinct keys requested.
    pub requested: usize,
    /// Served from this process's in-memory matrix.
    pub memoized: usize,
    /// Served from the persistent on-disk cache.
    pub cache_hits: usize,
    /// Actually simulated this call.
    pub simulated: usize,
}

impl std::ops::AddAssign for EnsureStats {
    fn add_assign(&mut self, other: EnsureStats) {
        self.requested += other.requested;
        self.memoized += other.memoized;
        self.cache_hits += other.cache_hits;
        self.simulated += other.simulated;
    }
}

/// Reads and decodes every located cache entry on up to `threads` threads
/// (the caller's among them), returning the reports in input order:
/// `None` where nothing was located or the line no longer reads.
fn read_located(found: &[Option<Location>], threads: usize) -> Vec<Option<Arc<RunReport>>> {
    let next = AtomicUsize::new(0);
    let drain = || {
        let mut read = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(at) = found.get(i) else { return read };
            read.push((i, at.as_ref().and_then(Location::read)));
        }
    };
    let mut reports = vec![None; found.len()];
    let located = found.iter().flatten().count();
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..threads.min(located)).map(|_| scope.spawn(drain)).collect();
        let mine = drain();
        let theirs = helpers.into_iter().flat_map(|h| h.join().expect("cache reads never panic"));
        for (i, report) in mine.into_iter().chain(theirs) {
            reports[i] = report;
        }
    });
    reports
}

/// Memoized experiment results, backed by the persistent on-disk cache
/// when [`Settings::cache_dir`] is set.
///
/// Each cell's report is one allocation, and the matrix is its only
/// holder: the base-seed view and the seeded map share the same `Arc`,
/// whether the report was simulated here or decoded from the disk cache,
/// which keeps an index of where results live rather than the results.
#[derive(Debug, Default)]
pub struct Matrix {
    /// Base-seed results, the view every figure reads via [`Matrix::get`].
    reports: HashMap<Key, Arc<RunReport>>,
    /// Every ensured `(key, seed)` cell, including the base seed, for
    /// multi-seed consumers ([`Matrix::get_seeded`], sharded sweeps).
    seeded: HashMap<(Key, u64), Arc<RunReport>>,
    disk: Option<DiskCache>,
    /// The sum of every [`Matrix::ensure_cells`] call's stats.
    totals: EnsureStats,
}

impl Matrix {
    /// Creates an empty matrix.
    pub fn new() -> Self {
        Matrix::default()
    }

    /// Returns the open disk cache for `settings`, if caching is enabled
    /// and the directory is usable. Reopens when the directory changes.
    fn disk_for(&mut self, settings: &Settings) -> Option<&mut DiskCache> {
        let dir = settings.cache_dir.as_deref()?;
        let stale = self.disk.as_ref().is_none_or(|d| d.dir() != dir);
        if stale {
            match DiskCache::open(dir) {
                Ok(d) => self.disk = Some(d),
                Err(e) => {
                    memnet_simcore::memnet_warn!(
                        "[matrix] cannot open cache dir {}: {e}; caching disabled",
                        dir.display()
                    );
                    self.disk = None;
                    return None;
                }
            }
        }
        self.disk.as_mut()
    }

    /// Ensures every key has a result under the base seed
    /// ([`Settings::seed`]), in order of preference: already in memory,
    /// in the persistent cache, or freshly simulated (in parallel) — and
    /// persists anything fresh for the next process. Each key is one
    /// worker-pool job. Figures read only the base seed ([`Self::get`]);
    /// replica seeds ([`Settings::seeds`]) are for sweep plans, which
    /// hand their `(key, seed)` cells to [`Self::ensure_cells`].
    ///
    /// # Errors
    ///
    /// Fails without simulating anything if a key cannot be simulated by
    /// the matrix (a replay or calibrated key); the message carries the
    /// offending cell's cache fingerprint.
    pub fn ensure(&mut self, keys: &[Key], settings: &Settings) -> Result<EnsureStats, String> {
        let cells: Vec<(Key, u64)> = keys.iter().map(|k| (k.clone(), settings.seed)).collect();
        self.ensure_cells(&cells, settings)
    }

    /// [`Self::ensure`] over explicit `(key, seed)` cells — the sharded
    /// sweep entry point, where a shard may own only some seeds of a key.
    pub fn ensure_cells(
        &mut self,
        cells: &[(Key, u64)],
        settings: &Settings,
    ) -> Result<EnsureStats, String> {
        let stats = self.ensure_missing(cells, settings)?;
        self.totals += stats;
        Ok(stats)
    }

    /// The body of [`Self::ensure_cells`].
    fn ensure_missing(
        &mut self,
        cells: &[(Key, u64)],
        settings: &Settings,
    ) -> Result<EnsureStats, String> {
        // Refuse unsimulable keys up front, before any cell simulates.
        for (key, seed) in cells {
            if !self.seeded.contains_key(&(key.clone(), *seed)) {
                key.try_config(settings)?;
            }
        }
        let missing: Vec<(Key, u64)> = {
            let mut seen = std::collections::HashSet::new();
            cells
                .iter()
                .filter(|c| !self.seeded.contains_key(*c) && seen.insert((*c).clone()))
                .cloned()
                .collect()
        };
        let mut stats = EnsureStats {
            requested: {
                let distinct: std::collections::HashSet<&(Key, u64)> = cells.iter().collect();
                distinct.len()
            },
            ..EnsureStats::default()
        };
        stats.memoized = stats.requested - missing.len();
        if missing.is_empty() {
            return Ok(stats);
        }

        // Second chance: the persistent cache. Only the hits are read and
        // decoded, spread over the sweep's threads.
        let mut to_simulate: Vec<(Key, u64)> = Vec::with_capacity(missing.len());
        if let Some(disk) = self.disk_for(settings) {
            let found: Vec<Option<Location>> =
                missing.iter().map(|(k, s)| disk.locate(&k.fingerprint_at(settings, *s))).collect();
            let mut hits: Vec<((Key, u64), Arc<RunReport>)> = Vec::new();
            let reports = read_located(&found, settings.threads);
            for ((cell, at), report) in missing.into_iter().zip(found).zip(reports) {
                match report {
                    Some(r) => hits.push((cell, r)),
                    None => {
                        // A line that no longer reads is a miss from now on.
                        if let Some(at) = at {
                            disk.forget(&at);
                        }
                        to_simulate.push(cell);
                    }
                }
            }
            stats.cache_hits = hits.len();
            for ((k, s), r) in hits {
                self.insert(k, s, settings, r);
            }
        } else {
            to_simulate = missing;
        }
        stats.simulated = to_simulate.len();
        memnet_simcore::memnet_log!(
            "[matrix {}] {} cells: {} memoized, {} cache hits, {} simulated ({} threads, {} per run)",
            settings.shard,
            stats.requested,
            stats.memoized,
            stats.cache_hits,
            stats.simulated,
            settings.threads,
            settings.eval_period
        );
        if to_simulate.is_empty() {
            return Ok(stats);
        }

        // One pool job per missing cell, in plan order.
        let configs = to_simulate
            .iter()
            .map(|(k, s)| {
                let mut cfg = k.try_config(settings)?;
                cfg.seed = *s;
                Ok(cfg)
            })
            .collect::<Result<Vec<SimConfig>, String>>()?;
        let reports = memnet_core::sweep(configs, settings.threads);
        let fresh: Vec<(Key, u64, Arc<RunReport>)> =
            to_simulate.into_iter().zip(reports).map(|((k, s), r)| (k, s, Arc::new(r))).collect();
        if let Some(disk) = self.disk_for(settings) {
            let entries =
                fresh.iter().map(|(k, s, r)| (k.fingerprint_at(settings, *s), Arc::clone(r)));
            if let Err(e) = disk.store(entries) {
                memnet_simcore::memnet_warn!("[matrix] failed to persist results: {e}");
            }
        }
        for (k, s, r) in fresh {
            self.insert(k, s, settings, r);
        }
        Ok(stats)
    }

    /// Records one ensured cell: always in the seeded map, and in the
    /// base-seed view when the seed is the base seed.
    fn insert(&mut self, key: Key, seed: u64, settings: &Settings, report: Arc<RunReport>) {
        if seed == settings.seed {
            self.reports.insert(key.clone(), Arc::clone(&report));
        }
        self.seeded.insert((key, seed), report);
    }

    /// Fetches a previously ensured report (under the base seed).
    ///
    /// # Panics
    ///
    /// Panics if the key was never ensured.
    pub fn get(&self, key: &Key) -> &RunReport {
        self.reports.get(key).unwrap_or_else(|| panic!("configuration not simulated: {key:?}"))
    }

    /// Fetches a previously ensured report under an explicit seed.
    ///
    /// # Panics
    ///
    /// Panics if the `(key, seed)` cell was never ensured.
    pub fn get_seeded(&self, key: &Key, seed: u64) -> &RunReport {
        self.seeded
            .get(&(key.clone(), seed))
            .unwrap_or_else(|| panic!("configuration not simulated under seed {seed}: {key:?}"))
    }

    /// The stats of every `ensure` call so far, summed.
    pub fn totals(&self) -> EnsureStats {
        self.totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memnet_simcore::SimDuration;

    fn tiny_settings() -> Settings {
        Settings {
            eval_period: SimDuration::from_us(20),
            threads: 2,
            seed: 1,
            ..Settings::default()
        }
    }

    fn tiny_key(workload: &'static str) -> Key {
        Key::main(
            workload,
            TopologyKind::DaisyChain,
            NetworkScale::Small,
            PolicyKind::FullPower,
            Mechanism::FullPower,
            0.05,
        )
    }

    #[test]
    fn obs_settings_flow_into_the_simulation() {
        let mut m = Matrix::new();
        let k = tiny_key("mixD");
        let settings = Settings { obs: true, ..tiny_settings() };
        m.ensure(std::slice::from_ref(&k), &settings).unwrap();
        assert!(m.get(&k).obs.is_some(), "obs=true must produce the obs report section");
        let fp = k.fingerprint(&settings);
        assert!(fp.contains("|obs=true|"), "obs belongs in the fingerprint: {fp}");
    }

    #[test]
    fn ensure_is_memoized() {
        let mut m = Matrix::new();
        let k = tiny_key("mixD");
        let stats = m.ensure(&[k.clone(), k.clone()], &tiny_settings()).unwrap();
        assert_eq!(stats, EnsureStats { requested: 1, memoized: 0, cache_hits: 0, simulated: 1 });
        let before = m.get(&k).completed_reads;
        let stats = m.ensure(std::slice::from_ref(&k), &tiny_settings()).unwrap();
        assert_eq!(stats, EnsureStats { requested: 1, memoized: 1, cache_hits: 0, simulated: 0 });
        assert_eq!(m.get(&k).completed_reads, before);
        let totals = EnsureStats { requested: 2, memoized: 1, cache_hits: 0, simulated: 1 };
        assert_eq!(m.totals(), totals, "totals sum every ensure call");
    }

    #[test]
    fn warm_cache_simulates_nothing() {
        let dir =
            std::env::temp_dir().join(format!("memnet-matrix-test-warm-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let settings = Settings { cache_dir: Some(dir.clone()), ..tiny_settings() };
        let keys = [tiny_key("mixD"), tiny_key("lu.D")];

        let mut cold = Matrix::new();
        let stats = cold.ensure(&keys, &settings).unwrap();
        assert_eq!(stats, EnsureStats { requested: 2, memoized: 0, cache_hits: 0, simulated: 2 });

        // A brand-new Matrix (fresh process, in effect) must be served
        // entirely from disk: zero simulations.
        let mut warm = Matrix::new();
        let stats = warm.ensure(&keys, &settings).unwrap();
        assert_eq!(stats, EnsureStats { requested: 2, memoized: 0, cache_hits: 2, simulated: 0 });
        // Cached results are identical to the fresh ones.
        for k in &keys {
            let fresh = serde::json::to_string(cold.get(k));
            let cached = serde::json::to_string(warm.get(k));
            assert_eq!(fresh, cached, "cache must reproduce {k:?} byte-for-byte");
        }

        // A different seed invalidates: everything re-simulates.
        let reseeded = Settings { seed: 2, ..settings.clone() };
        let stats = Matrix::new().ensure(&keys, &reseeded).unwrap();
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(stats.simulated, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Asserts the matrix is the only holder of `k`'s reports: the
    /// base seed's two views share one allocation, the extra seed 2's
    /// one view holds its own, and nothing else (the disk cache least of
    /// all) holds either.
    fn assert_sole_holder(m: &Matrix, k: &Key, settings: &Settings) {
        let base = &m.reports[k];
        assert!(Arc::ptr_eq(base, &m.seeded[&(k.clone(), settings.seed)]), "base-seed views share");
        assert_eq!(Arc::strong_count(base), 2, "held by the two views only");
        assert_eq!(
            Arc::strong_count(&m.seeded[&(k.clone(), 2)]),
            1,
            "held by the seeded view only"
        );
    }

    #[test]
    fn a_cell_is_one_allocation_shared_by_both_views() {
        let dir =
            std::env::temp_dir().join(format!("memnet-matrix-test-share-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let settings = Settings { seeds: vec![2], cache_dir: Some(dir.clone()), ..tiny_settings() };
        let k = tiny_key("mixD");
        let cells = [(k.clone(), settings.seed), (k.clone(), 2)];

        let mut cold = Matrix::new();
        let stats = cold.ensure_cells(&cells, &settings).unwrap();
        assert_eq!(stats.simulated, 2);
        assert_sole_holder(&cold, &k, &settings);

        // A second matrix on the same directory decodes its hits into
        // allocations of its own, shared the same way.
        let mut warm = Matrix::new();
        let stats = warm.ensure_cells(&cells, &settings).unwrap();
        assert_eq!(stats, EnsureStats { requested: 2, memoized: 0, cache_hits: 2, simulated: 0 });
        assert_sole_holder(&warm, &k, &settings);
        assert!(!std::ptr::eq(warm.get(&k), cold.get(&k)), "each matrix decodes its own copy");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_unreadable_cache_line_is_simulated_again() {
        let dir =
            std::env::temp_dir().join(format!("memnet-matrix-test-reread-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let settings = Settings { cache_dir: Some(dir.clone()), ..tiny_settings() };
        let keys = [tiny_key("mixD"), tiny_key("lu.D")];
        let mut cold = Matrix::new();
        cold.ensure(&keys, &settings).unwrap();

        // Open the cache, then corrupt every body behind its back: the
        // headers it indexed still match, the reports no longer decode.
        let mut warm = Matrix::new();
        warm.disk_for(&settings).expect("the cache dir opens");
        for file in std::fs::read_dir(&dir).unwrap() {
            let path = file.unwrap().path();
            let text = std::fs::read_to_string(&path).unwrap();
            std::fs::write(&path, text.replace("\"report\":{", "\"report\":[")).unwrap();
        }
        let stats = warm.ensure(&keys, &settings).unwrap();
        assert_eq!(stats, EnsureStats { requested: 2, memoized: 0, cache_hits: 0, simulated: 2 });
        for k in &keys {
            let fresh = serde::json::to_string(cold.get(k));
            assert_eq!(
                fresh,
                serde::json::to_string(warm.get(k)),
                "{k:?} re-simulates identically"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_keys_change_the_fingerprint_and_refuse_to_simulate() {
        let k = tiny_key("mixD");
        let r = k.with_replay("d2995bd26ec2efe1");
        assert_ne!(k.fingerprint(&tiny_settings()), r.fingerprint(&tiny_settings()));
        assert!(r.fingerprint(&tiny_settings()).contains("src=trace:d2995bd26ec2efe1"));
        // Different trace contents → different cache identities.
        assert_ne!(
            r.fingerprint(&tiny_settings()),
            k.with_replay("0000000000000000").fingerprint(&tiny_settings())
        );
        // The sweep path reports a documented error naming the offending
        // cell by fingerprint — never a panic.
        let err = Matrix::new().ensure(std::slice::from_ref(&r), &tiny_settings()).unwrap_err();
        assert!(err.contains("replay keys refuse matrix simulation"), "{err}");
        assert!(err.contains(&r.fingerprint(&tiny_settings())), "{err}");
    }

    #[test]
    fn calibration_keys_change_the_fingerprint_and_refuse_to_simulate() {
        let k = tiny_key("mixD").with_backend(EnergyBackendKind::Idd);
        let c = k.with_calibration("00c0ffee00c0ffee");
        assert_ne!(k.fingerprint(&tiny_settings()), c.fingerprint(&tiny_settings()));
        assert!(c.fingerprint(&tiny_settings()).contains("calib=calib:00c0ffee00c0ffee"));
        assert_ne!(
            c.fingerprint(&tiny_settings()),
            k.with_calibration("deadbeefdeadbeef").fingerprint(&tiny_settings())
        );
        let err = Matrix::new().ensure(std::slice::from_ref(&c), &tiny_settings()).unwrap_err();
        assert!(err.contains("calibrated keys refuse matrix simulation"), "{err}");
        assert!(err.contains(&c.fingerprint(&tiny_settings())), "{err}");
    }

    /// Every `(key, seed)` cell of `keys` under `settings.seed_list()`,
    /// as a sweep plan lays them out.
    fn seeded_cells(keys: &[Key], settings: &Settings) -> Vec<(Key, u64)> {
        let seeds = settings.seed_list();
        keys.iter().flat_map(|k| seeds.iter().map(|&s| (k.clone(), s))).collect()
    }

    #[test]
    fn ensure_simulates_only_the_base_seed() {
        let settings = Settings { seeds: vec![2, 3], ..tiny_settings() };
        let keys = [tiny_key("mixD"), tiny_key("lu.D")];
        let mut m = Matrix::new();
        let stats = m.ensure(&keys, &settings).unwrap();
        assert_eq!(stats, EnsureStats { requested: 2, memoized: 0, cache_hits: 0, simulated: 2 });
        for k in &keys {
            assert!(m.seeded.contains_key(&(k.clone(), settings.seed)));
            for seed in [2, 3] {
                assert!(!m.seeded.contains_key(&(k.clone(), seed)), "{k:?} simulated seed {seed}");
            }
        }
    }

    #[test]
    fn multi_seed_cells_match_solo_sweeps() {
        let settings = Settings { seeds: vec![2, 3], ..tiny_settings() };
        let keys = [tiny_key("mixD"), tiny_key("lu.D")];
        let cells = seeded_cells(&keys, &settings);
        let mut m = Matrix::new();
        let stats = m.ensure_cells(&cells, &settings).unwrap();
        assert_eq!(stats, EnsureStats { requested: 6, memoized: 0, cache_hits: 0, simulated: 6 });

        // Each seed's cell is byte-identical to the same cell swept solo
        // under that seed alone.
        for k in &keys {
            assert_eq!(
                serde::json::to_string(m.get(k)),
                serde::json::to_string(m.get_seeded(k, settings.seed)),
                "the base seed serves both views",
            );
            for seed in [2u64, 3] {
                let mut solo = Matrix::new();
                solo.ensure(
                    std::slice::from_ref(k),
                    &Settings { seed, seeds: Vec::new(), ..settings.clone() },
                )
                .unwrap();
                assert_eq!(
                    serde::json::to_string(m.get_seeded(k, seed)),
                    serde::json::to_string(solo.get(k)),
                    "multi-seed cell must equal the solo sweep for seed {seed}",
                );
            }
        }

        // Re-ensuring is fully memoized, per (key, seed) cell.
        let stats = m.ensure_cells(&cells, &settings).unwrap();
        assert_eq!(stats, EnsureStats { requested: 6, memoized: 6, cache_hits: 0, simulated: 0 });
    }

    #[test]
    fn multi_seed_cells_cache_under_solo_fingerprints() {
        let dir =
            std::env::temp_dir().join(format!("memnet-matrix-test-seeds-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let settings = Settings { seeds: vec![2], cache_dir: Some(dir.clone()), ..tiny_settings() };
        let k = tiny_key("mixD");
        let cells = seeded_cells(std::slice::from_ref(&k), &settings);
        let stats = Matrix::new().ensure_cells(&cells, &settings).unwrap();
        assert_eq!(stats.simulated, 2);

        // A later solo sweep under the extra seed is served entirely from
        // the cache the multi-seed run populated.
        let solo_settings = Settings {
            seed: 2,
            seeds: Vec::new(),
            cache_dir: Some(dir.clone()),
            ..tiny_settings()
        };
        let stats = Matrix::new().ensure(std::slice::from_ref(&k), &solo_settings).unwrap();
        assert_eq!(stats, EnsureStats { requested: 1, memoized: 0, cache_hits: 1, simulated: 0 });
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stress_workloads_are_simulable_matrix_keys() {
        let mut m = Matrix::new();
        let k = tiny_key("adv.flip");
        let stats = m.ensure(std::slice::from_ref(&k), &tiny_settings()).unwrap();
        assert_eq!(stats.simulated, 1);
        assert!(m.get(&k).accesses_per_us > 0.0, "stress run produced traffic");
    }

    #[test]
    fn energy_backend_is_part_of_the_cache_identity() {
        let k = tiny_key("mixD");
        let idd = k.with_backend(EnergyBackendKind::Idd);
        assert_ne!(k.fingerprint(&tiny_settings()), idd.fingerprint(&tiny_settings()));
        assert!(idd.fingerprint(&tiny_settings()).ends_with("|energy=idd"));
        let mut m = Matrix::new();
        let stats = m.ensure(&[k.clone(), idd.clone()], &tiny_settings()).unwrap();
        assert_eq!(stats.simulated, 2, "the two backends are distinct configurations");
        // Backends reprice identical activity: every non-energy metric
        // agrees exactly, only the joules differ.
        assert_eq!(m.get(&k).completed_reads, m.get(&idd).completed_reads);
        assert_eq!(m.get(&k).events_processed, m.get(&idd).events_processed);
        assert_ne!(m.get(&k).power.energy.total(), m.get(&idd).power.energy.total());
    }

    #[test]
    fn baseline_key_swaps_policy_only() {
        let k = Key::main(
            "mixB",
            TopologyKind::Star,
            NetworkScale::Big,
            PolicyKind::NetworkAware,
            Mechanism::VwlRoo,
            0.025,
        );
        let b = k.baseline();
        assert_eq!(b.policy, PolicyKind::FullPower);
        assert_eq!(b.mechanism, Mechanism::FullPower);
        assert_eq!(b.workload, "mixB");
        assert_eq!(b.scale, NetworkScale::Big);
        assert!((k.alpha() - 0.025).abs() < 1e-9);
        // Baselines are normalized so every alpha shares one FP run.
        assert_eq!(b.alpha_tenths_pct, 50);
        assert_eq!(b, k.baseline().baseline());
    }
}
