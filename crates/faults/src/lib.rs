//! Deterministic, seed-stable link-fault injection for the memory network.
//!
//! Real HMC links run a CRC + retry-buffer protocol over SerDes lanes that
//! suffer transient bit errors, error bursts, stuck lanes and (rarely) whole
//! link failures. This crate models those processes *deterministically*: every
//! fault decision is drawn from a per-link [`SplitMix64`] stream forked from
//! the run seed, so a sweep produces byte-identical results regardless of
//! thread count, and a fault-free configuration consumes **no** randomness at
//! all (bit-identical to a build without this crate).
//!
//! The crate is engine-agnostic: it decides *whether* a transmission was
//! corrupted, a wake timed out, or a link is degraded/failed. The simulation
//! engine (in `memnet-core`) owns *what happens next* (retry scheduling,
//! route-around, energy accounting).
//!
//! # Spec strings
//!
//! Fault scenarios are described by a compact comma-separated spec, used by
//! the `--faults` CLI flag, the manifest's `run.faults` field and the bench
//! cache key:
//!
//! ```text
//! ber=1e-6,burst=mild,degrade=0:8+3:4,fail=5,wake_timeout=0.01,retry_limit=8
//! ```
//!
//! | field | meaning |
//! |---|---|
//! | `ber=R` | per-flit CRC error probability in the good channel state |
//! | `burst=mild\|severe\|GB:BG:R` | Gilbert-Elliott burst process (presets or explicit `p_good_to_bad:p_bad_to_good:bad_rate`) |
//! | `degrade=L:W[+L:W...]` | link index `L` is stuck at `W` usable lanes (of 16) |
//! | `fail=M[+M...]` | the connectivity edge of module `M` is hard-failed |
//! | `wake_timeout=R` | probability a ROO wake misses its training window and retries |
//! | `retry_limit=N` | retransmission attempts per packet before forced delivery |
//!
//! The empty spec means "no faults".

#![warn(missing_docs)]

use memnet_simcore::SplitMix64;
use serde::{Deserialize, Serialize};

/// Stream salt separating fault randomness from every other consumer of the
/// run seed (the workload frontend forks its streams directly from the seed,
/// so fault draws can never perturb the generated request sequence).
/// Public so seed-derivation code elsewhere (e.g. multi-channel runs) can
/// prove its streams never collide with the per-link fault streams.
pub const FAULT_STREAM_SALT: u64 = 0xFA01_7CC5;

/// Default retransmission cap: after this many corrupted attempts the packet
/// is delivered anyway (mirrors a real controller escalating past link retry).
pub const DEFAULT_RETRY_LIMIT: u32 = 16;

/// Two-state Gilbert-Elliott burst-error channel.
///
/// The channel is either *good* (errors at the base `ber` rate) or *bad*
/// (errors at [`GilbertElliott::bad_flit_error_rate`]); it flips state with
/// the given per-flit transition probabilities. Mean burst length is
/// `1 / p_bad_to_good` flits.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GilbertElliott {
    /// Per-flit probability of the channel entering the bad state.
    pub p_good_to_bad: f64,
    /// Per-flit probability of the channel recovering to the good state.
    pub p_bad_to_good: f64,
    /// Per-flit CRC error probability while in the bad state.
    pub bad_flit_error_rate: f64,
}

impl GilbertElliott {
    /// Mild bursts: rare, short, moderately lossy (mean burst 10 flits,
    /// 1 in 1e3 flits corrupted inside a burst).
    pub fn mild() -> GilbertElliott {
        GilbertElliott { p_good_to_bad: 1e-4, p_bad_to_good: 0.1, bad_flit_error_rate: 1e-3 }
    }

    /// Severe bursts: an order of magnitude more frequent, longer (mean
    /// 20 flits) and lossier (1 in 1e2 flits corrupted inside a burst).
    pub fn severe() -> GilbertElliott {
        GilbertElliott { p_good_to_bad: 1e-3, p_bad_to_good: 0.05, bad_flit_error_rate: 1e-2 }
    }

    fn validate(&self) -> Result<(), String> {
        for (name, p) in [
            ("p_good_to_bad", self.p_good_to_bad),
            ("p_bad_to_good", self.p_bad_to_good),
            ("bad_flit_error_rate", self.bad_flit_error_rate),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("burst {name} must be a probability in [0,1], got {p}"));
            }
        }
        Ok(())
    }

    fn spec(&self) -> String {
        if *self == GilbertElliott::mild() {
            "mild".into()
        } else if *self == GilbertElliott::severe() {
            "severe".into()
        } else {
            format!("{}:{}:{}", self.p_good_to_bad, self.p_bad_to_good, self.bad_flit_error_rate)
        }
    }

    fn parse(s: &str) -> Result<GilbertElliott, String> {
        match s {
            "mild" => return Ok(GilbertElliott::mild()),
            "severe" => return Ok(GilbertElliott::severe()),
            _ => {}
        }
        let parts: Vec<&str> = s.split(':').collect();
        if parts.len() != 3 {
            return Err(format!(
                "burst must be mild, severe or p_good_to_bad:p_bad_to_good:bad_rate, got {s:?}"
            ));
        }
        let num = |p: &str| p.parse::<f64>().map_err(|e| format!("bad burst number {p:?}: {e}"));
        let ge = GilbertElliott {
            p_good_to_bad: num(parts[0])?,
            p_bad_to_good: num(parts[1])?,
            bad_flit_error_rate: num(parts[2])?,
        };
        ge.validate()?;
        Ok(ge)
    }
}

/// A link stuck at a reduced number of usable SerDes lanes.
///
/// The engine clamps every bandwidth mode applied to this link so it never
/// exceeds the surviving lane budget (VWL width, or the DVFS level of
/// equivalent bandwidth).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DegradedLink {
    /// Unidirectional link index (edge `m` owns links `2m` request /
    /// `2m + 1` response).
    pub link: usize,
    /// Usable lanes out of the full 16.
    pub lanes: u8,
}

/// Complete description of a fault scenario.
///
/// The default ([`FaultConfig::none`]) injects nothing, consumes no
/// randomness and leaves simulation results bit-identical to a fault-free
/// build.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Per-flit CRC error probability in the good channel state.
    pub flit_error_rate: f64,
    /// Optional Gilbert-Elliott burst process layered on top of the base
    /// rate.
    pub burst: Option<GilbertElliott>,
    /// Links stuck at reduced lane counts.
    pub degraded: Vec<DegradedLink>,
    /// Modules whose connectivity edge (to their parent) is hard-failed;
    /// the topology routes around them where spare ports exist.
    pub hard_failed: Vec<usize>,
    /// Probability that a ROO wake misses its SerDes training window and
    /// must retrain (paying the wake latency twice).
    pub wake_timeout_rate: f64,
    /// Retransmission attempts per packet before forced delivery.
    pub retry_limit: u32,
}

impl Default for FaultConfig {
    fn default() -> FaultConfig {
        FaultConfig::none()
    }
}

impl FaultConfig {
    /// The fault-free configuration.
    pub fn none() -> FaultConfig {
        FaultConfig {
            flit_error_rate: 0.0,
            burst: None,
            degraded: Vec::new(),
            hard_failed: Vec::new(),
            wake_timeout_rate: 0.0,
            retry_limit: DEFAULT_RETRY_LIMIT,
        }
    }

    /// Convenience constructor for a uniform per-flit error rate.
    pub fn with_flit_error_rate(rate: f64) -> FaultConfig {
        FaultConfig { flit_error_rate: rate, ..FaultConfig::none() }
    }

    /// True when this configuration injects nothing: the engine then skips
    /// fault bookkeeping entirely, guaranteeing bit-identical results to the
    /// pre-fault baseline.
    pub fn is_none(&self) -> bool {
        self.flit_error_rate == 0.0
            && self.burst.is_none()
            && self.degraded.is_empty()
            && self.hard_failed.is_empty()
            && self.wake_timeout_rate == 0.0
    }

    /// Checks ranges; returns a human-readable description of the first
    /// problem found.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.flit_error_rate) {
            return Err(format!("ber must be in [0,1], got {}", self.flit_error_rate));
        }
        if let Some(b) = &self.burst {
            b.validate()?;
        }
        for d in &self.degraded {
            if !(1..=16).contains(&d.lanes) {
                return Err(format!(
                    "degraded link {} must keep 1..=16 lanes, got {}",
                    d.link, d.lanes
                ));
            }
        }
        if !(0.0..=1.0).contains(&self.wake_timeout_rate) {
            return Err(format!("wake_timeout must be in [0,1], got {}", self.wake_timeout_rate));
        }
        if self.retry_limit == 0 {
            return Err("retry_limit must be at least 1".into());
        }
        Ok(())
    }

    /// Canonical spec string: parseable by [`FaultConfig::parse`], stable
    /// across runs (fields in fixed order, defaults omitted), and therefore
    /// safe to use as a cache-key component. The fault-free config is `""`.
    pub fn spec(&self) -> String {
        let mut parts = Vec::new();
        if self.flit_error_rate != 0.0 {
            parts.push(format!("ber={}", self.flit_error_rate));
        }
        if let Some(b) = &self.burst {
            parts.push(format!("burst={}", b.spec()));
        }
        if !self.degraded.is_empty() {
            let list: Vec<String> =
                self.degraded.iter().map(|d| format!("{}:{}", d.link, d.lanes)).collect();
            parts.push(format!("degrade={}", list.join("+")));
        }
        if !self.hard_failed.is_empty() {
            let list: Vec<String> = self.hard_failed.iter().map(|m| m.to_string()).collect();
            parts.push(format!("fail={}", list.join("+")));
        }
        if self.wake_timeout_rate != 0.0 {
            parts.push(format!("wake_timeout={}", self.wake_timeout_rate));
        }
        if self.retry_limit != DEFAULT_RETRY_LIMIT {
            parts.push(format!("retry_limit={}", self.retry_limit));
        }
        parts.join(",")
    }

    /// Parses a spec string (see the crate docs for the grammar). The empty
    /// string (or whitespace) is the fault-free config. Strict: any
    /// malformed field is an error. Degraded/failed lists are sorted and
    /// deduplicated so equivalent specs canonicalize identically.
    pub fn parse(spec: &str) -> Result<FaultConfig, String> {
        let mut cfg = FaultConfig::none();
        for field in spec.split(',').map(str::trim).filter(|f| !f.is_empty()) {
            cfg.apply_field(field)?;
        }
        cfg.normalize();
        cfg.validate()?;
        Ok(cfg)
    }

    fn normalize(&mut self) {
        self.degraded.sort_by_key(|d| d.link);
        self.degraded.dedup_by_key(|d| d.link);
        self.hard_failed.sort_unstable();
        self.hard_failed.dedup();
    }

    fn apply_field(&mut self, field: &str) -> Result<(), String> {
        let (key, value) =
            field.split_once('=').ok_or_else(|| format!("expected key=value, got {field:?}"))?;
        match key {
            "ber" => {
                self.flit_error_rate =
                    value.parse().map_err(|e| format!("bad ber {value:?}: {e}"))?;
            }
            "burst" => self.burst = Some(GilbertElliott::parse(value)?),
            "degrade" => {
                for item in value.split('+') {
                    let (l, w) = item
                        .split_once(':')
                        .ok_or_else(|| format!("degrade expects LINK:LANES, got {item:?}"))?;
                    self.degraded.push(DegradedLink {
                        link: l.parse().map_err(|e| format!("bad link index {l:?}: {e}"))?,
                        lanes: w.parse().map_err(|e| format!("bad lane count {w:?}: {e}"))?,
                    });
                }
            }
            "fail" => {
                for item in value.split('+') {
                    self.hard_failed
                        .push(item.parse().map_err(|e| format!("bad module index {item:?}: {e}"))?);
                }
            }
            "wake_timeout" => {
                self.wake_timeout_rate =
                    value.parse().map_err(|e| format!("bad wake_timeout {value:?}: {e}"))?;
            }
            "retry_limit" => {
                self.retry_limit =
                    value.parse().map_err(|e| format!("bad retry_limit {value:?}: {e}"))?;
            }
            _ => return Err(format!("unknown fault field {key:?}")),
        }
        Ok(())
    }
}

/// Per-link channel state: an independent RNG stream plus the current
/// Gilbert-Elliott channel state.
#[derive(Debug, Clone)]
struct LinkChannel {
    rng: SplitMix64,
    burst_bad: bool,
}

/// The runtime fault process: owns one RNG stream per link, forked from the
/// run seed, and answers the engine's fault questions.
///
/// Determinism contract: each link's draws depend only on the seed, the link
/// index and the *sequence of queries for that link* — which the
/// deterministic event loop fixes — so results are independent of thread
/// count and of activity on other links.
#[derive(Debug, Clone)]
pub struct FaultModel {
    cfg: FaultConfig,
    links: Vec<LinkChannel>,
    /// Per-link surviving-lane cap (`None` = healthy), precomputed for O(1)
    /// lookup on the mode-apply path.
    degraded_lanes: Vec<Option<u8>>,
}

impl FaultModel {
    /// Builds the fault process for a network with `n_links` unidirectional
    /// links, forking one decorrelated stream per link from `seed`.
    ///
    /// Degraded/failed indices beyond the network size are ignored (the
    /// config layer validates them against the actual topology).
    pub fn new(cfg: &FaultConfig, n_links: usize, seed: u64) -> FaultModel {
        let root = SplitMix64::new(seed).fork(FAULT_STREAM_SALT);
        let links = (0..n_links)
            .map(|l| LinkChannel { rng: root.fork(l as u64), burst_bad: false })
            .collect();
        let mut degraded_lanes = vec![None; n_links];
        for d in &cfg.degraded {
            if let Some(slot) = degraded_lanes.get_mut(d.link) {
                *slot = Some(d.lanes);
            }
        }
        FaultModel { cfg: cfg.clone(), links, degraded_lanes }
    }

    /// The scenario this model was built from.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Decides whether a `flits`-flit transmission over `link` failed its
    /// CRC check. Advances the link's burst channel one step per flit and
    /// draws one error decision per flit (always consuming the same number
    /// of draws regardless of outcome, so statistics are easy to reason
    /// about).
    pub fn transmission_corrupted(&mut self, link: usize, flits: u64) -> bool {
        let ch = &mut self.links[link];
        let mut corrupted = false;
        for _ in 0..flits {
            if let Some(b) = &self.cfg.burst {
                let flip =
                    ch.rng.next_bool(if ch.burst_bad { b.p_bad_to_good } else { b.p_good_to_bad });
                if flip {
                    ch.burst_bad = !ch.burst_bad;
                }
            }
            let rate = match (&self.cfg.burst, ch.burst_bad) {
                (Some(b), true) => b.bad_flit_error_rate,
                _ => self.cfg.flit_error_rate,
            };
            corrupted |= ch.rng.next_bool(rate);
        }
        corrupted
    }

    /// Decides whether a ROO wake on `link` misses its training window and
    /// must retrain (the engine doubles the wake latency).
    pub fn wake_times_out(&mut self, link: usize) -> bool {
        self.links[link].rng.next_bool(self.cfg.wake_timeout_rate)
    }

    /// Surviving lanes for `link`, or `None` when the link is healthy.
    pub fn degraded_lanes(&self, link: usize) -> Option<u8> {
        self.degraded_lanes.get(link).copied().flatten()
    }

    /// Retransmission attempts allowed per packet before forced delivery.
    pub fn retry_limit(&self) -> u32 {
        self.cfg.retry_limit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_none_and_roundtrips_empty() {
        let none = FaultConfig::none();
        assert!(none.is_none());
        assert_eq!(none.spec(), "");
        assert_eq!(FaultConfig::parse("").unwrap(), none);
        assert_eq!(FaultConfig::parse("  ").unwrap(), none);
        assert!(!FaultConfig::with_flit_error_rate(1e-9).is_none());
    }

    #[test]
    fn spec_roundtrips_and_canonicalizes() {
        let spec =
            "ber=0.001,burst=mild,degrade=3:4+0:8,fail=5+2+5,wake_timeout=0.01,retry_limit=8";
        let cfg = FaultConfig::parse(spec).unwrap();
        assert_eq!(cfg.flit_error_rate, 1e-3);
        assert_eq!(cfg.burst, Some(GilbertElliott::mild()));
        // Lists come back sorted and deduplicated.
        assert_eq!(
            cfg.degraded,
            vec![DegradedLink { link: 0, lanes: 8 }, DegradedLink { link: 3, lanes: 4 }]
        );
        assert_eq!(cfg.hard_failed, vec![2, 5]);
        assert_eq!(cfg.retry_limit, 8);
        // Canonical spec parses back to the same config.
        assert_eq!(FaultConfig::parse(&cfg.spec()).unwrap(), cfg);
        // Explicit Gilbert-Elliott parameters round-trip too.
        let custom = FaultConfig::parse("burst=0.01:0.2:0.5").unwrap();
        let b = custom.burst.unwrap();
        assert_eq!((b.p_good_to_bad, b.p_bad_to_good, b.bad_flit_error_rate), (0.01, 0.2, 0.5));
        assert_eq!(FaultConfig::parse(&custom.spec()).unwrap(), custom);
    }

    #[test]
    fn parse_rejects_malformed_and_out_of_range() {
        assert!(FaultConfig::parse("ber=fast").is_err());
        assert!(FaultConfig::parse("ber=2.0").is_err());
        assert!(FaultConfig::parse("nonsense").is_err());
        assert!(FaultConfig::parse("volts=1").is_err());
        assert!(FaultConfig::parse("burst=1:2").is_err());
        assert!(FaultConfig::parse("burst=0.5:0.5:7").is_err());
        assert!(FaultConfig::parse("degrade=0").is_err());
        assert!(FaultConfig::parse("degrade=0:32").is_err());
        assert!(FaultConfig::parse("retry_limit=0").is_err());
        assert!(FaultConfig::parse("wake_timeout=-0.5").is_err());
    }

    #[test]
    fn error_rate_statistics_are_approximately_right() {
        let mut fm = FaultModel::new(&FaultConfig::with_flit_error_rate(0.05), 2, 42);
        let n = 20_000u64;
        let hits = (0..n).filter(|_| fm.transmission_corrupted(0, 1)).count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.05).abs() < 0.01, "observed flit error rate {rate}");
        // Zero rate never corrupts (but still advances the stream the same way).
        let mut quiet = FaultModel::new(&FaultConfig::with_flit_error_rate(0.0), 1, 42);
        assert!((0..1000).all(|_| !quiet.transmission_corrupted(0, 5)));
    }

    #[test]
    fn identical_seeds_give_identical_draws_per_link() {
        let cfg = FaultConfig::parse("ber=0.2,burst=severe,wake_timeout=0.3").unwrap();
        let mut a = FaultModel::new(&cfg, 4, 7);
        let mut b = FaultModel::new(&cfg, 4, 7);
        for i in 0..500 {
            let link = i % 4;
            assert_eq!(a.transmission_corrupted(link, 5), b.transmission_corrupted(link, 5));
            assert_eq!(a.wake_times_out(link), b.wake_times_out(link));
        }
        // Draws on one link do not perturb another: a model that only ever
        // queries link 3 sees the same link-3 stream as one querying all.
        let mut solo = FaultModel::new(&cfg, 4, 7);
        let mut full = FaultModel::new(&solo.cfg, 4, 7);
        for i in 0..200 {
            for l in 0..3 {
                full.transmission_corrupted(l, (i % 5) + 1);
            }
            assert_eq!(solo.transmission_corrupted(3, 2), full.transmission_corrupted(3, 2));
        }
    }

    #[test]
    fn bursts_cluster_errors() {
        // With a zero base rate, every error comes from the bad state, so a
        // bursty channel must show back-to-back errors far more often than
        // an independent process at the same marginal rate would.
        let cfg = FaultConfig {
            burst: Some(GilbertElliott {
                p_good_to_bad: 0.01,
                p_bad_to_good: 0.2,
                bad_flit_error_rate: 0.5,
            }),
            ..FaultConfig::none()
        };
        let mut fm = FaultModel::new(&cfg, 1, 9);
        let outcomes: Vec<bool> = (0..50_000).map(|_| fm.transmission_corrupted(0, 1)).collect();
        let marginal = outcomes.iter().filter(|&&e| e).count() as f64 / outcomes.len() as f64;
        let pairs = outcomes.windows(2).filter(|w| w[0] && w[1]).count() as f64
            / (outcomes.len() - 1) as f64;
        assert!(marginal > 0.0, "burst process produced no errors");
        assert!(
            pairs > 3.0 * marginal * marginal,
            "errors not clustered: P(pair) = {pairs}, independent would be {}",
            marginal * marginal
        );
    }

    #[test]
    fn degraded_and_failed_lookups() {
        let cfg = FaultConfig::parse("degrade=1:4,fail=2").unwrap();
        let fm = FaultModel::new(&cfg, 4, 0);
        assert_eq!(fm.degraded_lanes(0), None);
        assert_eq!(fm.degraded_lanes(1), Some(4));
        assert_eq!(fm.degraded_lanes(99), None, "out-of-range lookups are healthy");
        assert_eq!(fm.config().hard_failed, vec![2]);
        assert_eq!(fm.retry_limit(), DEFAULT_RETRY_LIMIT);
    }
}
