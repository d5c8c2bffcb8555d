//! Batch-level harness settings.

use std::path::PathBuf;

use memnet_core::DEFAULT_SEED;
use memnet_simcore::SimDuration;

use crate::shard::Shard;

/// Default location of the persistent result cache, relative to the
/// working directory.
pub const DEFAULT_CACHE_DIR: &str = "target/memnet-cache";

/// Batch-level experiment settings.
#[derive(Debug, Clone, PartialEq)]
pub struct Settings {
    /// Simulated evaluation period per run.
    pub eval_period: SimDuration,
    /// Worker threads for sweeps.
    pub threads: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Extra replica seeds simulated per matrix key alongside [`seed`].
    /// Empty (the default) means one run per key. Each `(key, seed)`
    /// cell is an ordinary sweep job whose result keeps its own cache
    /// fingerprint, exactly as if it had been swept alone.
    ///
    /// [`seed`]: Settings::seed
    pub seeds: Vec<u64>,
    /// Where the persistent result cache lives; `None` disables caching.
    pub cache_dir: Option<PathBuf>,
    /// Which sweep shard this process computes. Purely an attribution
    /// tag for the `[matrix]` log line — it never enters fingerprints,
    /// because every shard must share one cache with the unsharded run.
    pub shard: Shard,
    /// Retain per-epoch observability samples in each report. Part of
    /// the cache fingerprint: an `obs` section changes the serialized
    /// report, so observed and unobserved cells are distinct.
    pub obs: bool,
}

impl Settings {
    /// Every seed a matrix cell runs under: the base [`seed`] followed by
    /// the [`seeds`] extras, first occurrence wins on duplicates. Never
    /// empty.
    ///
    /// [`seed`]: Settings::seed
    /// [`seeds`]: Settings::seeds
    pub fn seed_list(&self) -> Vec<u64> {
        let mut list = vec![self.seed];
        for &s in &self.seeds {
            if !list.contains(&s) {
                list.push(s);
            }
        }
        list
    }
}

/// Parses a comma-separated seed list (as passed to `--seeds` or
/// `MEMNET_SEEDS`). Empty items are ignored; duplicates are rejected so
/// a typo cannot silently halve a sweep.
pub fn parse_seed_list(text: &str) -> Result<Vec<u64>, String> {
    let mut list = Vec::new();
    for item in text.split(',') {
        let item = item.trim();
        if item.is_empty() {
            continue;
        }
        let seed: u64 = item.parse().map_err(|_| format!("bad seed {item:?}"))?;
        if list.contains(&seed) {
            return Err(format!("duplicate seed {seed}"));
        }
        list.push(seed);
    }
    Ok(list)
}

impl Default for Settings {
    /// Defaults for in-process use (tests, library callers): 1 ms window,
    /// four threads, fixed seed, **no** persistent cache. `memnet
    /// figures` and `memnet sweep` read their settings from the
    /// environment instead, with the cache in [`DEFAULT_CACHE_DIR`]
    /// unless told otherwise.
    fn default() -> Self {
        Settings {
            eval_period: SimDuration::from_us(1_000),
            threads: 4,
            seed: DEFAULT_SEED,
            seeds: Vec::new(),
            cache_dir: None,
            shard: Shard::full(),
            obs: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let s = Settings::default();
        assert_eq!(s.eval_period, SimDuration::from_ms(1));
        assert!(s.threads >= 1);
        assert_eq!(s.cache_dir, None);
        assert_eq!(s.shard, Shard::full());
        assert!(!s.obs);
        assert!(s.seeds.is_empty());
        assert_eq!(s.seed_list(), vec![s.seed]);
    }

    #[test]
    fn seed_lists_parse_dedupe_and_reject_typos() {
        assert_eq!(parse_seed_list("2,3,4").unwrap(), vec![2, 3, 4]);
        assert_eq!(parse_seed_list(" 7 , 8 ,").unwrap(), vec![7, 8]);
        assert_eq!(parse_seed_list("").unwrap(), Vec::<u64>::new());
        assert!(parse_seed_list("2,two").is_err());
        assert!(parse_seed_list("2,2").is_err(), "duplicates would silently halve a sweep");

        // The base seed leads and is never duplicated by the extras.
        let s = Settings { seed: 3, seeds: vec![5, 3, 9], ..Settings::default() };
        assert_eq!(s.seed_list(), vec![3, 5, 9]);
    }
}
