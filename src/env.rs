//! The environment `memnet` reads: the harness settings of `memnet
//! figures` and `memnet sweep`.
//!
//! This is the one module of the program that reads environment
//! variables. The only other readers are the audit level
//! (`MEMNET_AUDIT`, `MEMNET_AUDIT_PANIC` in `memnet_simcore::audit`) and
//! the proptest stand-in's `PROPTEST_SEED`; `tests/warn_discipline.rs`
//! holds the code to that. Run flags have no environment copy.

use std::path::PathBuf;
use std::str::FromStr;

use memnet::bench::settings::DEFAULT_CACHE_DIR;
use memnet::bench::{parse_seed_list, Settings};
use memnet::core::DEFAULT_SEED;
use memnet_simcore::{memnet_warn, SimDuration};

/// Reads `name` from the environment, warning to stderr (and falling back
/// to the default) when the value is present but unparsable.
fn env_parse<T: FromStr>(name: &str) -> Option<T> {
    let raw = std::env::var(name).ok()?;
    match raw.parse::<T>() {
        Ok(v) => Some(v),
        Err(_) => {
            memnet_warn!("[settings] ignoring unparsable {name}={raw:?}; using default");
            None
        }
    }
}

/// Reads the harness settings from the environment, defaulting to a 1 ms
/// evaluation period, all cores, a fixed seed, and a result cache in
/// [`DEFAULT_CACHE_DIR`]:
///
/// * `MEMNET_EVAL_US` — simulated microseconds per run (`0`, or more
///   than [`SimDuration::MAX_US`], is rejected with a warning and falls
///   back to 1 ms).
/// * `MEMNET_THREADS` — sweep worker threads (`0` is rejected with a
///   warning and falls back to all cores).
/// * `MEMNET_SEED` — base RNG seed.
/// * `MEMNET_SEEDS` — comma-separated extra replica seeds per key (e.g.
///   `MEMNET_SEEDS=2,3,4`).
/// * `MEMNET_CACHE_DIR` — cache directory.
/// * `MEMNET_NO_CACHE` — set to `1`/`true` to disable the cache.
///
/// Malformed values warn to stderr and fall back to the default. The
/// sweep shard and the observability flag have no environment knob:
/// they default to `0/1` and off, and are set by the `memnet sweep
/// --shard/--obs` flags (or the serve sweep manifest).
pub fn settings() -> Settings {
    let eval_us = match env_parse::<u64>("MEMNET_EVAL_US") {
        Some(0) => {
            memnet_warn!(
                "[settings] MEMNET_EVAL_US=0 is invalid (a run needs a nonzero \
                 window); using the 1000 us default"
            );
            None
        }
        Some(us) if SimDuration::try_from_us(us).is_none() => {
            memnet_warn!(
                "[settings] MEMNET_EVAL_US={us} exceeds the {} us maximum; \
                 using the 1000 us default",
                SimDuration::MAX_US
            );
            None
        }
        other => other,
    }
    .unwrap_or(1_000);
    let threads = match env_parse::<usize>("MEMNET_THREADS") {
        Some(0) => {
            memnet_warn!(
                "[settings] MEMNET_THREADS=0 is invalid (a sweep needs at least \
                 one worker); using all cores"
            );
            None
        }
        other => other,
    }
    .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4));
    let seed = env_parse::<u64>("MEMNET_SEED").unwrap_or(DEFAULT_SEED);
    let seeds = match std::env::var("MEMNET_SEEDS") {
        Err(_) => Vec::new(),
        Ok(raw) => match parse_seed_list(&raw) {
            Ok(list) => list,
            Err(e) => {
                memnet_warn!("[settings] ignoring unparsable MEMNET_SEEDS={raw:?}: {e}");
                Vec::new()
            }
        },
    };
    let no_cache = match std::env::var("MEMNET_NO_CACHE") {
        Err(_) => false,
        Ok(raw) => match raw.to_ascii_lowercase().as_str() {
            "1" | "true" | "yes" => true,
            "0" | "false" | "no" | "" => false,
            _ => {
                memnet_warn!(
                    "[settings] ignoring unparsable MEMNET_NO_CACHE={raw:?}; \
                     caching stays enabled"
                );
                false
            }
        },
    };
    let cache_dir = if no_cache {
        None
    } else {
        match std::env::var("MEMNET_CACHE_DIR") {
            Ok(dir) if dir.trim().is_empty() => {
                memnet_warn!(
                    "[settings] ignoring empty MEMNET_CACHE_DIR; using {DEFAULT_CACHE_DIR:?}"
                );
                Some(PathBuf::from(DEFAULT_CACHE_DIR))
            }
            Ok(dir) => Some(PathBuf::from(dir)),
            Err(_) => Some(PathBuf::from(DEFAULT_CACHE_DIR)),
        }
    };
    Settings {
        eval_period: SimDuration::from_us(eval_us),
        threads: threads.max(1),
        seed,
        seeds,
        cache_dir,
        ..Settings::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Environment mutation is process-global, so everything env-related
    // lives in one test.
    #[test]
    fn settings_parse_overrides_and_survive_garbage() {
        std::env::set_var("MEMNET_EVAL_US", "250");
        std::env::set_var("MEMNET_THREADS", "3");
        std::env::set_var("MEMNET_SEED", "42");
        std::env::set_var("MEMNET_SEEDS", "43,44");
        std::env::set_var("MEMNET_CACHE_DIR", "/tmp/memnet-test-cache");
        std::env::remove_var("MEMNET_NO_CACHE");
        let s = settings();
        assert_eq!(s.eval_period, SimDuration::from_us(250));
        assert_eq!(s.threads, 3);
        assert_eq!(s.seed, 42);
        assert_eq!(s.seeds, vec![43, 44]);
        assert_eq!(s.seed_list(), vec![42, 43, 44]);
        assert_eq!(s.cache_dir.as_deref(), Some(std::path::Path::new("/tmp/memnet-test-cache")));

        // MEMNET_THREADS=0 and MEMNET_EVAL_US=0 parse but are
        // meaningless: each must warn and fall back to its default, never
        // produce 0 workers or a 1 us window.
        std::env::set_var("MEMNET_THREADS", "0");
        std::env::set_var("MEMNET_EVAL_US", "0");
        let auto = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
        let s = settings();
        assert_eq!(s.threads, auto);
        assert_eq!(s.eval_period, SimDuration::from_us(1_000));
        // Nor may the window overflow the picosecond clock: unchecked,
        // this one wrapped to 448 ns.
        std::env::set_var("MEMNET_EVAL_US", "18446744073710");
        assert_eq!(settings().eval_period, SimDuration::from_us(1_000));

        // Malformed values warn (to stderr) and fall back to defaults.
        std::env::set_var("MEMNET_EVAL_US", "a lot");
        std::env::set_var("MEMNET_THREADS", "-2");
        std::env::set_var("MEMNET_SEED", "0x12"); // hex not supported
        std::env::set_var("MEMNET_SEEDS", "1,1");
        std::env::set_var("MEMNET_NO_CACHE", "maybe");
        std::env::remove_var("MEMNET_CACHE_DIR");
        let s = settings();
        assert_eq!(s.eval_period, SimDuration::from_us(1_000));
        assert_eq!(s.seed, DEFAULT_SEED);
        assert!(s.seeds.is_empty(), "duplicate MEMNET_SEEDS warns and falls back");
        assert_eq!(s.cache_dir.as_deref(), Some(std::path::Path::new(DEFAULT_CACHE_DIR)));

        // MEMNET_NO_CACHE=1 disables the cache entirely.
        std::env::set_var("MEMNET_NO_CACHE", "1");
        assert_eq!(settings().cache_dir, None);

        for var in [
            "MEMNET_EVAL_US",
            "MEMNET_THREADS",
            "MEMNET_SEED",
            "MEMNET_SEEDS",
            "MEMNET_CACHE_DIR",
            "MEMNET_NO_CACHE",
        ] {
            std::env::remove_var(var);
        }
    }
}
