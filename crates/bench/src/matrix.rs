//! The experiment matrix: a memoized store of simulation results keyed by
//! figure coordinate, filled by parallel sweeps.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use memnet_core::{AddressMapping, NetworkScale, PolicyKind, RunReport, SimConfig};
use memnet_faults::FaultConfig;
use memnet_net::mech::RooParams;
use memnet_net::TopologyKind;
use memnet_obs::ObsConfig;
use memnet_policy::Mechanism;
use memnet_power::EnergyBackendKind;
use memnet_simcore::SimDuration;

use crate::cache::{builder_defaults, fingerprint, DiskCache, Location};
use crate::settings::Settings;

/// A figure coordinate: one point of the paper's configuration space, by
/// which the figures look their results up. A key is not a cache
/// identity: [`Key::config`] builds the configuration that runs, and
/// [`fingerprint`] of that configuration names the result.
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
    /// fault-free runs.
    pub faults: String,
    /// Which energy backend priced the run. In the key (rather than
    /// [`Settings`]) so one matrix can hold both backends' results for
    /// the same configuration side by side — the model differential
    /// figure depends on that.
    pub energy: EnergyBackendKind,
    /// Management epoch length.
    pub epoch: SimDuration,
    /// ISP iteration cap.
    pub isp_iterations: usize,
    /// §VI-B response-link wakeup chaining.
    pub wake_chaining: bool,
    /// §VI-A3 leftover-AMS rescue pool.
    pub rescue_pool: bool,
}

impl Key {
    /// A key for the main-study configuration space, with the builder's
    /// epoch length, ISP cap, wake chaining and rescue pool.
    pub fn main(
        workload: &'static str,
        topology: TopologyKind,
        scale: NetworkScale,
        policy: PolicyKind,
        mechanism: Mechanism,
        alpha: f64,
    ) -> Key {
        let d = builder_defaults();
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
            energy: EnergyBackendKind::Analytical,
            epoch: d.epoch,
            isp_iterations: d.isp_iterations,
            wake_chaining: d.wake_chaining,
            rescue_pool: d.rescue_pool,
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

    /// The full-power baseline key matching this configuration: the
    /// main-study full-power key of its workload, topology and scale,
    /// under its mapping, faults and energy backend. α, the ROO wakeup
    /// latency and the ablation knobs are normalized (full-power links
    /// have no management to tune), so every managed variant shares one
    /// baseline run.
    pub fn baseline(&self) -> Key {
        Key {
            mapping: self.mapping,
            faults: self.faults.clone(),
            energy: self.energy,
            ..Key::main(
                self.workload,
                self.topology,
                self.scale,
                PolicyKind::FullPower,
                Mechanism::FullPower,
                0.05,
            )
        }
    }

    /// α as a fraction.
    pub fn alpha(&self) -> f64 {
        f64::from(self.alpha_tenths_pct) / 1000.0
    }

    /// The configuration this key runs under `settings` (its evaluation
    /// period and observability flag) and `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the key does not describe a valid configuration (an
    /// unknown workload, a zero α or an unparsable fault spec); figure
    /// keys never do.
    pub fn config(&self, settings: &Settings, seed: u64) -> SimConfig {
        SimConfig::builder()
            .workload(self.workload)
            .topology(self.topology)
            .scale(self.scale)
            .policy(self.policy)
            .mechanism(self.mechanism)
            .alpha(self.alpha())
            .roo_params(RooParams {
                wakeup_latency: SimDuration::from_ns(self.roo_wakeup_ns.into()),
                ..RooParams::fast()
            })
            .mapping(self.mapping)
            .epoch(self.epoch)
            .isp_iterations(self.isp_iterations)
            .wake_chaining(self.wake_chaining)
            .rescue_pool(self.rescue_pool)
            .faults(FaultConfig::parse(&self.faults).expect("matrix fault specs are valid"))
            .eval_period(settings.eval_period)
            .seed(seed)
            .energy_backend(self.energy)
            .obs(ObsConfig { enabled: settings.obs, ..ObsConfig::off() })
            .build()
            .expect("matrix keys are valid configurations")
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
/// Cells are `(key, seed)` pairs. A missing cell's configuration is built
/// once, from [`Key::config`]: its [`fingerprint`] locates the cell's
/// cache line, and on a miss that same configuration is simulated and
/// stored under it.
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
    pub fn ensure(&mut self, keys: &[Key], settings: &Settings) -> EnsureStats {
        let cells: Vec<(Key, u64)> = keys.iter().map(|k| (k.clone(), settings.seed)).collect();
        self.ensure_cells(&cells, settings)
    }

    /// [`Self::ensure`] over explicit `(key, seed)` cells — the sharded
    /// sweep entry point, where a shard may own only some seeds of a key.
    pub fn ensure_cells(&mut self, cells: &[(Key, u64)], settings: &Settings) -> EnsureStats {
        let stats = self.ensure_missing(cells, settings);
        self.totals += stats;
        stats
    }

    /// The body of [`Self::ensure_cells`].
    fn ensure_missing(&mut self, cells: &[(Key, u64)], settings: &Settings) -> EnsureStats {
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
            return stats;
        }

        // Each missing cell's configuration, built once: it names the
        // cell's cache line, and on a miss it is what simulates.
        let mut to_simulate: Vec<((Key, u64), SimConfig)> = missing
            .into_iter()
            .map(|(k, s)| {
                let cfg = k.config(settings, s);
                ((k, s), cfg)
            })
            .collect();
        // Second chance: the persistent cache. Only the hits are read and
        // decoded, spread over the sweep's threads.
        let mut fingerprints: Vec<String> = Vec::new();
        if let Some(disk) = self.disk_for(settings) {
            let fps: Vec<String> = to_simulate.iter().map(|(_, cfg)| fingerprint(cfg)).collect();
            let found: Vec<Option<Location>> = fps.iter().map(|fp| disk.locate(fp)).collect();
            let reports = read_located(&found, settings.threads);
            let mut hits: Vec<((Key, u64), Arc<RunReport>)> = Vec::new();
            let mut misses = Vec::new();
            for ((pending, fp), (at, report)) in
                to_simulate.into_iter().zip(fps).zip(found.into_iter().zip(reports))
            {
                match report {
                    Some(r) => hits.push((pending.0, r)),
                    None => {
                        // A line that no longer reads is a miss from now on.
                        if let Some(at) = at {
                            disk.forget(&at);
                        }
                        misses.push(pending);
                        fingerprints.push(fp);
                    }
                }
            }
            to_simulate = misses;
            stats.cache_hits = hits.len();
            for ((k, s), r) in hits {
                self.insert(k, s, settings, r);
            }
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
            return stats;
        }

        // One pool job per missing cell, in plan order.
        let (cells, configs): (Vec<(Key, u64)>, Vec<SimConfig>) = to_simulate.into_iter().unzip();
        let reports: Vec<Arc<RunReport>> =
            memnet_core::sweep(configs, settings.threads).into_iter().map(Arc::new).collect();
        if let Some(disk) = self.disk_for(settings) {
            if let Err(e) = disk.store(fingerprints.into_iter().zip(reports.iter().cloned())) {
                memnet_simcore::memnet_warn!("[matrix] failed to persist results: {e}");
            }
        }
        for ((k, s), r) in cells.into_iter().zip(reports) {
            self.insert(k, s, settings, r);
        }
        stats
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
        m.ensure(std::slice::from_ref(&k), &settings);
        assert!(m.get(&k).obs.is_some(), "obs=true must produce the obs report section");
        let fp = fingerprint(&k.config(&settings, settings.seed));
        assert!(fp.contains("|obs=true|"), "obs belongs in the fingerprint: {fp}");
    }

    #[test]
    fn ensure_is_memoized() {
        let mut m = Matrix::new();
        let k = tiny_key("mixD");
        let stats = m.ensure(&[k.clone(), k.clone()], &tiny_settings());
        assert_eq!(stats, EnsureStats { requested: 1, memoized: 0, cache_hits: 0, simulated: 1 });
        let before = m.get(&k).completed_reads;
        let stats = m.ensure(std::slice::from_ref(&k), &tiny_settings());
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
        let stats = cold.ensure(&keys, &settings);
        assert_eq!(stats, EnsureStats { requested: 2, memoized: 0, cache_hits: 0, simulated: 2 });

        // A brand-new Matrix (fresh process, in effect) must be served
        // entirely from disk: zero simulations.
        let mut warm = Matrix::new();
        let stats = warm.ensure(&keys, &settings);
        assert_eq!(stats, EnsureStats { requested: 2, memoized: 0, cache_hits: 2, simulated: 0 });
        // Cached results are identical to the fresh ones.
        for k in &keys {
            let fresh = serde::json::to_string(cold.get(k));
            let cached = serde::json::to_string(warm.get(k));
            assert_eq!(fresh, cached, "cache must reproduce {k:?} byte-for-byte");
        }

        // A different seed invalidates: everything re-simulates.
        let reseeded = Settings { seed: 2, ..settings.clone() };
        let stats = Matrix::new().ensure(&keys, &reseeded);
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
        let stats = cold.ensure_cells(&cells, &settings);
        assert_eq!(stats.simulated, 2);
        assert_sole_holder(&cold, &k, &settings);

        // A second matrix on the same directory decodes its hits into
        // allocations of its own, shared the same way.
        let mut warm = Matrix::new();
        let stats = warm.ensure_cells(&cells, &settings);
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
        cold.ensure(&keys, &settings);

        // Open the cache, then corrupt every body behind its back: the
        // headers it indexed still match, the reports no longer decode.
        let mut warm = Matrix::new();
        warm.disk_for(&settings).expect("the cache dir opens");
        for file in std::fs::read_dir(&dir).unwrap() {
            let path = file.unwrap().path();
            let text = std::fs::read_to_string(&path).unwrap();
            std::fs::write(&path, text.replace("\"report\":{", "\"report\":[")).unwrap();
        }
        let stats = warm.ensure(&keys, &settings);
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
        let stats = m.ensure(&keys, &settings);
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
        let stats = m.ensure_cells(&cells, &settings);
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
                );
                assert_eq!(
                    serde::json::to_string(m.get_seeded(k, seed)),
                    serde::json::to_string(solo.get(k)),
                    "multi-seed cell must equal the solo sweep for seed {seed}",
                );
            }
        }

        // Re-ensuring is fully memoized, per (key, seed) cell.
        let stats = m.ensure_cells(&cells, &settings);
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
        let stats = Matrix::new().ensure_cells(&cells, &settings);
        assert_eq!(stats.simulated, 2);

        // A later solo sweep under the extra seed is served entirely from
        // the cache the multi-seed run populated.
        let solo_settings = Settings {
            seed: 2,
            seeds: Vec::new(),
            cache_dir: Some(dir.clone()),
            ..tiny_settings()
        };
        let stats = Matrix::new().ensure(std::slice::from_ref(&k), &solo_settings);
        assert_eq!(stats, EnsureStats { requested: 1, memoized: 0, cache_hits: 1, simulated: 0 });
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stress_workloads_are_simulable_matrix_keys() {
        let mut m = Matrix::new();
        let k = tiny_key("adv.flip");
        let stats = m.ensure(std::slice::from_ref(&k), &tiny_settings());
        assert_eq!(stats.simulated, 1);
        assert!(m.get(&k).accesses_per_us > 0.0, "stress run produced traffic");
    }

    #[test]
    fn energy_backend_is_part_of_the_cache_identity() {
        let k = tiny_key("mixD");
        let idd = k.with_backend(EnergyBackendKind::Idd);
        let fp = |k: &Key| fingerprint(&k.config(&tiny_settings(), 1));
        assert_ne!(fp(&k), fp(&idd));
        assert!(fp(&idd).ends_with("|energy=idd"));
        let mut m = Matrix::new();
        let stats = m.ensure(&[k.clone(), idd.clone()], &tiny_settings());
        assert_eq!(stats.simulated, 2, "the two backends are distinct configurations");
        // Backends reprice identical activity: every non-energy metric
        // agrees exactly, only the joules differ.
        assert_eq!(m.get(&k).completed_reads, m.get(&idd).completed_reads);
        assert_eq!(m.get(&k).events_processed, m.get(&idd).events_processed);
        assert_ne!(m.get(&k).power.energy.total(), m.get(&idd).power.energy.total());
    }

    /// The fingerprint as keys spelled it before configurations named
    /// their own results, with the suffix of each ablation knob off its
    /// default (100 µs epochs, 3 ISP iterations, chaining and the rescue
    /// pool on): the oracle [`fingerprint`] must reproduce.
    fn reference_fingerprint(key: &Key, settings: &Settings, seed: u64) -> String {
        let mut fp = format!(
            "v{}|eval_ps={}|seed={}|wl={}|topo={:?}|scale={:?}|policy={:?}|mech={:?}|alpha={}|roo={}|map={:?}|faults={}|obs={}|src=|calib=|energy={}",
            crate::CACHE_SCHEMA_VERSION,
            settings.eval_period.as_ps(),
            seed,
            key.workload,
            key.topology,
            key.scale,
            key.policy,
            key.mechanism,
            key.alpha_tenths_pct,
            key.roo_wakeup_ns,
            key.mapping,
            key.faults,
            settings.obs,
            key.energy.label(),
        );
        if key.epoch != SimDuration::from_us(100) {
            fp += &format!("|epoch_ps={}", key.epoch.as_ps());
        }
        if key.isp_iterations != 3 {
            fp += &format!("|isp_iterations={}", key.isp_iterations);
        }
        if !key.wake_chaining {
            fp += "|wake_chaining=false";
        }
        if !key.rescue_pool {
            fp += "|rescue_pool=false";
        }
        fp
    }

    #[test]
    fn every_registry_cell_keeps_its_fingerprint() {
        let figures: Vec<String> =
            crate::figures::sweep_figures().into_iter().map(String::from).collect();
        let settings = [
            Settings {
                eval_period: SimDuration::from_us(20),
                seeds: vec![8, 9],
                ..tiny_settings()
            },
            Settings { eval_period: SimDuration::from_ms(1), obs: true, ..Settings::default() },
            Settings {
                eval_period: SimDuration::from_us(2),
                seed: 0xC0FFEF,
                ..Settings::default()
            },
        ];
        for s in &settings {
            for name in &figures {
                for key in crate::figures::figure_keys(name).unwrap() {
                    for seed in s.seed_list() {
                        assert_eq!(
                            fingerprint(&key.config(s, seed)),
                            reference_fingerprint(&key, s, seed)
                        );
                    }
                }
            }
            // Plans deduplicate by key, which is sound only while distinct
            // keys name distinct results.
            let plan = crate::SweepPlan::new(&figures, s).unwrap();
            let distinct: std::collections::HashSet<&str> =
                plan.cells().iter().map(|(_, _, fp)| fp.as_str()).collect();
            assert_eq!(distinct.len(), plan.len());
        }
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
        // So are the ablation knobs: every ablation row shares it too.
        let ablated = Key {
            epoch: SimDuration::from_us(25),
            isp_iterations: 1,
            wake_chaining: false,
            rescue_pool: false,
            ..k.clone()
        };
        assert_eq!(ablated.baseline(), b);
    }
}
