//! The schema-versioned **memnet-manifest** run description (v1 and v2).
//!
//! A manifest is one JSON document naming a full run spec, optional
//! execution limits, and assertions evaluated against the finished
//! report:
//!
//! ```json
//! {
//!   "schema": "memnet-manifest",
//!   "v": 1,
//!   "run": {
//!     "workload": "mixD", "topology": "ternary", "scale": "small",
//!     "policy": "aware", "mechanism": "vwl+roo", "alpha_pct": 5.0,
//!     "eval_us": 1000, "seed": 7, "faults": "ber=1e-6",
//!     "energy_backend": "idd", "calibration": "calib.json",
//!     "audit": "off"
//!   },
//!   "limits": { "wall_time_ms": 60000, "max_events": 10000000,
//!               "max_sim_time_us": 500 },
//!   "assertions": { "expected_exit": "completed",
//!                   "max_total_energy_j": 0.5,
//!                   "max_avg_latency_us": 2.0 }
//! }
//! ```
//!
//! Every `run` field is optional and fills a [`SimConfigBuilder`], the
//! same spec the CLI fills, so an omitted field keeps the builder's
//! default; only `audit` starts off. A `replay` runs under the seed
//! recorded in its trace unless `seed` is set. The whole `limits` and
//! `assertions` sections may be omitted. Unknown keys are rejected at
//! every level — a typo'd assertion must not silently pass. Errors carry
//! the offending JSON field path and (best-effort) line number, following
//! the line-numbered-error idiom of the calibration CSV parser; a run
//! that names no replay is built while parsing, so its configuration
//! errors are located too.
//!
//! Manifests never read environment variables: the energy backend, audit
//! level and fault scenario are exactly what the document says (defaults:
//! `analytical`, `off`, fault-free). A manifest's fingerprint is
//! [`memnet_bench::fingerprint`] of the configuration it resolves to,
//! replayed trace and calibrated model included, so the shared result
//! cache names exactly what runs.
//!
//! **v2** adds an optional `sweep` section that describes a whole figure
//! sweep instead of a single run. The daemon farms the sweep out as one
//! job per shard and merges the shard results (see the serve crate's
//! `sweep` module); a sweep manifest carries no `run`, `limits` or
//! `assertions` sections:
//!
//! ```json
//! {
//!   "schema": "memnet-manifest",
//!   "v": 2,
//!   "sweep": { "figures": ["fig05", "fig09"], "shards": 4,
//!              "eval_us": 1000, "seed": 12648430, "obs": false,
//!              "out": "merged.jsonl" }
//! }
//! ```
//!
//! v1 documents remain accepted unchanged.

use std::fmt;
use std::sync::Arc;

use memnet_bench::figures::sweep_figures;
use memnet_bench::shard::MAX_SHARDS;
use memnet_bench::{fingerprint, Settings};
use memnet_core::{ConfigError, NetworkScale, PolicyKind, SimConfig, SimConfigBuilder};
use memnet_faults::FaultConfig;
use memnet_net::TopologyKind;
use memnet_policy::Mechanism;
use memnet_power::{EnergyBackendKind, IddModel};
use memnet_simcore::{AuditLevel, SimDuration};
use memnet_workload::RequestTrace;
use serde::json::{self, Value};

/// Manifest schema name (the `schema` field).
pub const MANIFEST_SCHEMA: &str = "memnet-manifest";
/// Newest manifest schema version this build speaks (the `v` field).
/// Every version from 1 up to this one is accepted; the `sweep` section
/// requires v2.
pub const MANIFEST_VERSION: u64 = 2;

/// A manifest validation error: the offending JSON field path, the line
/// it sits on (best-effort; absent when the document never names the
/// field), and what is wrong with it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestError {
    /// Dotted field path, e.g. `run.workload`.
    pub path: String,
    /// 1-based line of the field in the manifest text, when locatable.
    pub line: Option<usize>,
    /// What is wrong.
    pub msg: String,
}

impl ManifestError {
    pub(crate) fn new(
        path: impl Into<String>,
        line: Option<usize>,
        msg: impl Into<String>,
    ) -> ManifestError {
        ManifestError { path: path.into(), line, msg: msg.into() }
    }
}

impl fmt::Display for ManifestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.line {
            Some(n) => write!(f, "{} (line {n}): {}", self.path, self.msg),
            None => write!(f, "{}: {}", self.path, self.msg),
        }
    }
}

impl std::error::Error for ManifestError {}

/// Best-effort line lookup: the first line whose text contains the quoted
/// key. Manifest keys are flat and distinct enough that this matches the
/// field the user wrote.
fn line_of(text: &str, key: &str) -> Option<usize> {
    let needle = format!("\"{key}\"");
    text.lines().position(|l| l.contains(&needle)).map(|idx| idx + 1)
}

/// Maps a JSON parse error (which carries a byte offset) to a line.
fn line_of_byte_error(text: &str, msg: &str) -> Option<usize> {
    let offset: usize = msg.rsplit("byte ").next()?.trim_end_matches('"').parse().ok()?;
    Some(
        text.as_bytes()
            .get(..offset)
            .map_or(1, |prefix| 1 + prefix.iter().filter(|&&b| b == b'\n').count()),
    )
}

/// The `limits` section: everything that may stop the run early.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Limits {
    /// Wall-clock budget in milliseconds.
    pub wall_time_ms: Option<u64>,
    /// Event budget.
    pub max_events: Option<u64>,
    /// Simulated-time cap in microseconds.
    pub max_sim_time_us: Option<u64>,
}

/// The `assertions` section, evaluated against the finished report.
#[derive(Debug, Clone, PartialEq)]
pub struct Assertions {
    /// How the run must have ended: `completed` or `limit_exceeded`.
    pub expected_exit: String,
    /// Upper bound on total energy (joules).
    pub max_total_energy_j: Option<f64>,
    /// Upper bound on mean read latency (microseconds).
    pub max_avg_latency_us: Option<f64>,
    /// Lower bound on completed reads.
    pub min_completed_reads: Option<u64>,
    /// Upper bound on α-violation epochs.
    pub max_violations: Option<u64>,
}

impl Default for Assertions {
    fn default() -> Assertions {
        Assertions {
            expected_exit: "completed".to_owned(),
            max_total_energy_j: None,
            max_avg_latency_us: None,
            min_completed_reads: None,
            max_violations: None,
        }
    }
}

/// The `sweep` section (v2): a whole figure sweep, farmed out as
/// `shards` deterministic slices and merged byte-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Figure names to enumerate, in registry order. Defaults to every
    /// matrix-backed figure ([`memnet_bench::figures::sweep_figures`]).
    pub figures: Vec<String>,
    /// How many shards to split the cell set into (1..=[`MAX_SHARDS`]).
    pub shards: u32,
    /// The bench settings every shard runs under: [`Settings::default`]
    /// on one thread (the daemon runs shards single-threaded like any
    /// other job; thread count never affects results), with the
    /// document's `eval_us`, `seed` and `obs` (a fingerprint dimension:
    /// observed and unobserved sweeps cache separately).
    pub settings: Settings,
    /// Server-side path the merged result JSONL is written to, if any.
    pub out: Option<String>,
}

impl Default for SweepSpec {
    fn default() -> SweepSpec {
        SweepSpec {
            figures: sweep_figures().into_iter().map(String::from).collect(),
            shards: 1,
            settings: Settings { threads: 1, ..Settings::default() },
            out: None,
        }
    }
}

/// One parsed, schema-checked manifest.
#[derive(Debug, Clone)]
pub struct Manifest {
    /// The run spec: the builder's defaults with audit off, then the
    /// `run` section's fields. Never read from the environment.
    pub run: SimConfigBuilder,
    /// Server-side path to a recorded request trace to replay
    /// (`run.replay`); [`Manifest::resolve`] loads it.
    pub replay: Option<String>,
    /// Server-side path to a calibration JSON ([`IddModel`],
    /// `run.calibration`); [`Manifest::resolve`] loads it.
    pub calibration: Option<String>,
    /// Execution limits.
    pub limits: Limits,
    /// Result assertions.
    pub assertions: Assertions,
    /// The sweep spec (v2); present iff this is a sweep manifest, in
    /// which case `run`, `limits` and `assertions` hold their defaults
    /// and must not appear in the document.
    pub sweep: Option<SweepSpec>,
}

/// Field-typed accessors over a [`Value`], each error carrying the field
/// path and line.
struct Field<'a> {
    text: &'a str,
    path: String,
    key: &'a str,
    value: &'a Value,
}

impl<'a> Field<'a> {
    fn err(&self, msg: impl Into<String>) -> ManifestError {
        ManifestError::new(&self.path, line_of(self.text, self.key), msg)
    }

    fn str(&self) -> Result<&'a str, ManifestError> {
        self.value
            .as_str()
            .map_err(|_| self.err(format!("expected a string, got {:?}", self.value)))
    }

    fn u64(&self) -> Result<u64, ManifestError> {
        match self.value {
            Value::Num(_) => self
                .value
                .num::<u64>()
                .map_err(|_| self.err("expected a non-negative integer".to_owned())),
            _ => Err(self.err(format!("expected a number, got {:?}", self.value))),
        }
    }

    /// A microsecond count the simulated clock can hold.
    fn us(&self) -> Result<u64, ManifestError> {
        let n = self.u64()?;
        SimDuration::try_from_us(n).map(|_| n).ok_or_else(|| {
            self.err(format!(
                "must be at most {} (the simulated clock counts u64 picoseconds)",
                SimDuration::MAX_US
            ))
        })
    }

    fn f64(&self) -> Result<f64, ManifestError> {
        self.value
            .num::<f64>()
            .map_err(|_| self.err(format!("expected a number, got {:?}", self.value)))
    }

    fn bool(&self) -> Result<bool, ManifestError> {
        match self.value {
            Value::Bool(b) => Ok(*b),
            _ => Err(self.err(format!("expected true or false, got {:?}", self.value))),
        }
    }
}

/// Walks an object section, dispatching each key through `apply` and
/// rejecting unknown keys (naming the valid ones).
fn walk_section(
    text: &str,
    section: &str,
    value: &Value,
    known: &[&str],
    mut apply: impl FnMut(&str, Field<'_>) -> Result<(), ManifestError>,
) -> Result<(), ManifestError> {
    let Value::Obj(pairs) = value else {
        return Err(ManifestError::new(
            section,
            line_of(text, section),
            format!("expected an object, got {value:?}"),
        ));
    };
    for (key, v) in pairs {
        let path = if section.is_empty() { key.clone() } else { format!("{section}.{key}") };
        if !known.contains(&key.as_str()) {
            return Err(ManifestError::new(
                &path,
                line_of(text, key),
                format!("unknown key (valid keys: {})", known.join(", ")),
            ));
        }
        apply(key, Field { text, path, key, value: v })?;
    }
    Ok(())
}

impl Manifest {
    /// Parses and schema-checks one manifest document. Pure text-in — no
    /// file I/O happens here (see [`Manifest::resolve`] for that).
    pub fn parse(text: &str) -> Result<Manifest, ManifestError> {
        let doc = json::parse(text).map_err(|e| {
            ManifestError::new(
                "manifest",
                line_of_byte_error(text, &e.0),
                format!("not valid JSON: {}", e.0),
            )
        })?;
        let mut manifest = Manifest {
            run: SimConfig::builder().audit(AuditLevel::Off),
            replay: None,
            calibration: None,
            limits: Limits::default(),
            assertions: Assertions::default(),
            sweep: None,
        };
        let mut saw_schema = false;
        let mut version: Option<u64> = None;
        let mut run_sections: Vec<&str> = Vec::new();
        const TOP: &[&str] = &["schema", "v", "run", "limits", "assertions", "sweep"];
        walk_section(text, "", &doc, TOP, |key, f| {
            match key {
                "schema" => {
                    let s = f.str()?;
                    if s != MANIFEST_SCHEMA {
                        return Err(f.err(format!("expected {MANIFEST_SCHEMA:?}, got {s:?}")));
                    }
                    saw_schema = true;
                }
                "v" => {
                    let v = f.u64()?;
                    if !(1..=MANIFEST_VERSION).contains(&v) {
                        return Err(f.err(format!(
                            "unsupported manifest version {v} (this build speaks v1..=v{MANIFEST_VERSION})"
                        )));
                    }
                    version = Some(v);
                }
                "run" => {
                    run_sections.push("run");
                    parse_run(text, f.value, &mut manifest)?;
                }
                "limits" => {
                    run_sections.push("limits");
                    manifest.limits = parse_limits(text, f.value)?;
                }
                "assertions" => {
                    run_sections.push("assertions");
                    manifest.assertions = parse_assertions(text, f.value)?;
                }
                "sweep" => manifest.sweep = Some(parse_sweep(text, f.value)?),
                _ => unreachable!("walk_section rejects unknown keys"),
            }
            Ok(())
        })?;
        if !saw_schema {
            return Err(ManifestError::new(
                "schema",
                None,
                format!("missing; a manifest must declare \"schema\": {MANIFEST_SCHEMA:?}"),
            ));
        }
        let Some(version) = version else {
            return Err(ManifestError::new(
                "v",
                None,
                format!("missing; a manifest must declare \"v\": 1..={MANIFEST_VERSION}"),
            ));
        };
        if manifest.sweep.is_some() {
            if version < 2 {
                return Err(ManifestError::new(
                    "sweep",
                    line_of(text, "sweep"),
                    format!("the sweep section requires \"v\": 2 (this document says {version})"),
                ));
            }
            if let Some(section) = run_sections.first() {
                return Err(ManifestError::new(
                    *section,
                    line_of(text, section),
                    "a sweep manifest describes the whole sweep; it cannot also carry \
                     run/limits/assertions sections (submit a separate run manifest)",
                ));
            }
        }
        // A replay's workload comes from its trace, so only `resolve`
        // can build it; any other run is checked here, where the text
        // still locates the field at fault.
        if manifest.replay.is_none() {
            manifest.run.clone().build().map_err(|e| config_error(e, Some(text)))?;
        }
        Ok(manifest)
    }

    /// Loads the files the manifest names (replay trace, calibration),
    /// builds the validated [`SimConfig`], and computes the job's cache
    /// identity. Paths resolve relative to the executing process's
    /// working directory (the daemon's, when submitted to a server).
    pub fn resolve(&self) -> Result<ResolvedJob, ManifestError> {
        if self.sweep.is_some() {
            return Err(ManifestError::new(
                "sweep",
                None,
                "a sweep manifest is not a single run; the daemon farms it out per shard \
                 (offline: `memnet run-manifest` executes every shard sequentially)",
            ));
        }
        let load = |field: &str, path: &str| {
            std::fs::read_to_string(path)
                .map_err(|e| ManifestError::new(field, None, format!("reading {path}: {e}")))
        };
        let mut run = self.run.clone();
        if let Some(path) = &self.replay {
            let trace = RequestTrace::parse_jsonl(&load("run.replay", path)?).map_err(|e| {
                ManifestError::new("run.replay", None, format!("invalid trace {path}: {e}"))
            })?;
            run = run.replay(Arc::new(trace));
        }
        if let Some(path) = &self.calibration {
            let model =
                json::from_str::<IddModel>(&load("run.calibration", path)?).map_err(|e| {
                    let msg = format!("invalid calibration {path}: {e}");
                    ManifestError::new("run.calibration", None, msg)
                })?;
            run = run.calibration(model);
        }
        let cfg = run.build().map_err(|e| config_error(e, None))?;
        let fingerprint = fingerprint(&cfg);

        // A run truncated by an event budget or a sub-eval sim-time cap is
        // NOT the full run: it must neither hit nor populate the shared
        // cache under the full run's fingerprint. A wall-clock limit does
        // not keep a run from the cache (a finished report trivially meets
        // it), but it may stop the run it is given to, so it is part of
        // the job key: a submission without the limit never shares it.
        let truncating_sim_cap =
            self.limits.max_sim_time_us.filter(|&us| SimDuration::from_us(us) < cfg.eval_period);
        let cache_eligible = self.limits.max_events.is_none() && truncating_sim_cap.is_none();
        let mut job_key = fingerprint.clone();
        if let Some(n) = self.limits.max_events {
            job_key.push_str(&format!("|lim_events={n}"));
        }
        if let Some(us) = truncating_sim_cap {
            job_key.push_str(&format!("|lim_sim_us={us}"));
        }
        if let Some(ms) = self.limits.wall_time_ms {
            job_key.push_str(&format!("|lim_wall_ms={ms}"));
        }

        Ok(ResolvedJob { manifest: self.clone(), cfg, fingerprint, job_key, cache_eligible })
    }
}

/// Locates a [`ConfigError`] at the `run` field it names: on its line
/// when the manifest `text` is at hand and names the field.
fn config_error(e: ConfigError, text: Option<&str>) -> ManifestError {
    let key = match &e {
        ConfigError::UnknownWorkload(_) => "workload",
        ConfigError::BadAlpha(_) => "alpha_pct",
        ConfigError::BadEvalPeriod => "eval_us",
        ConfigError::BadFaults(_) => "faults",
        ConfigError::BadMechanism(_) => "mechanism",
    };
    ManifestError::new(format!("run.{key}"), text.and_then(|t| line_of(t, key)), e.to_string())
}

/// Applies the `run` section to `m`: its run fields onto the spec, its
/// two file paths beside it.
fn parse_run(text: &str, value: &Value, m: &mut Manifest) -> Result<(), ManifestError> {
    const KNOWN: &[&str] = &[
        "workload",
        "topology",
        "scale",
        "policy",
        "mechanism",
        "alpha_pct",
        "eval_us",
        "seed",
        "channels",
        "faults",
        "replay",
        "energy_backend",
        "calibration",
        "audit",
    ];
    let mut idd = false;
    walk_section(text, "run", value, KNOWN, |key, f| {
        let run = std::mem::take(&mut m.run);
        m.run = match key {
            "workload" => run.workload(f.str()?),
            "topology" => {
                let v = f.str()?;
                run.topology(TopologyKind::parse(v).ok_or_else(|| {
                    f.err(format!("unknown topology {v:?} (daisychain|ternary|star|ddrx)"))
                })?)
            }
            "scale" => {
                let v = f.str()?;
                run.scale(
                    NetworkScale::parse(v)
                        .ok_or_else(|| f.err(format!("unknown scale {v:?} (small|big)")))?,
                )
            }
            "policy" => {
                let v = f.str()?;
                run.policy(PolicyKind::parse(v).ok_or_else(|| {
                    f.err(format!("unknown policy {v:?} (fp|unaware|aware|static)"))
                })?)
            }
            "mechanism" => {
                let v = f.str()?;
                run.mechanism(Mechanism::parse(v).ok_or_else(|| {
                    f.err(format!("unknown mechanism {v:?} (fp|vwl|roo|vwl+roo|dvfs|dvfs+roo)"))
                })?)
            }
            "alpha_pct" => {
                // Cache fingerprints hold α in whole tenths of a percent
                // (`memnet_bench::fingerprint`): two values between grid
                // points would share one identity and one cached result.
                let pct = f.f64()?;
                if (pct * 10.0).round() / 10.0 != pct {
                    return Err(f.err(format!(
                        "{pct} is not a whole number of tenths of a percent (e.g. 2.5)"
                    )));
                }
                run.alpha(pct / 100.0)
            }
            "eval_us" => run.eval_period(SimDuration::from_us(f.us()?)),
            "seed" => run.seed(f.u64()?),
            "channels" => {
                // Mirrors `memnet replay`'s multichannel refusal: manifest
                // runs share the replay/record identity machinery, which
                // is single-channel (channels reseed per channel).
                if f.u64()? != 1 {
                    return Err(f.err(
                        "manifest runs are single-channel (channels reseed per channel; \
                         submit one manifest per channel instead)",
                    ));
                }
                run
            }
            "faults" => {
                let v = f.str()?;
                run.faults(
                    FaultConfig::parse(v).map_err(|e| f.err(format!("bad fault scenario: {e}")))?,
                )
            }
            "replay" => {
                m.replay = Some(f.str()?.to_owned());
                run
            }
            "energy_backend" => {
                let v = f.str()?;
                let kind = EnergyBackendKind::parse(v).ok_or_else(|| {
                    f.err(format!("unknown energy backend {v:?} (analytical|idd)"))
                })?;
                idd = kind == EnergyBackendKind::Idd;
                run.energy_backend(kind)
            }
            "calibration" => {
                m.calibration = Some(f.str()?.to_owned());
                run
            }
            "audit" => {
                let v = f.str()?;
                run.audit(
                    AuditLevel::parse(v).ok_or_else(|| {
                        f.err(format!("unknown audit level {v:?} (off|cheap|full)"))
                    })?,
                )
            }
            _ => unreachable!("walk_section rejects unknown keys"),
        };
        Ok(())
    })?;
    if m.calibration.is_some() && !idd {
        return Err(ManifestError::new(
            "run.calibration",
            line_of(text, "calibration"),
            "calibration requires \"energy_backend\": \"idd\" (the analytical model has no \
             calibratable mode table)",
        ));
    }
    Ok(())
}

fn parse_limits(text: &str, value: &Value) -> Result<Limits, ManifestError> {
    let mut limits = Limits::default();
    const KNOWN: &[&str] = &["wall_time_ms", "max_events", "max_sim_time_us"];
    walk_section(text, "limits", value, KNOWN, |key, f| {
        let n = if key == "max_sim_time_us" { f.us()? } else { f.u64()? };
        if n == 0 {
            return Err(f.err("must be positive (omit the key for no limit)"));
        }
        match key {
            "wall_time_ms" => limits.wall_time_ms = Some(n),
            "max_events" => limits.max_events = Some(n),
            "max_sim_time_us" => limits.max_sim_time_us = Some(n),
            _ => unreachable!("walk_section rejects unknown keys"),
        }
        Ok(())
    })?;
    Ok(limits)
}

fn parse_assertions(text: &str, value: &Value) -> Result<Assertions, ManifestError> {
    let mut assertions = Assertions::default();
    const KNOWN: &[&str] = &[
        "expected_exit",
        "max_total_energy_j",
        "max_avg_latency_us",
        "min_completed_reads",
        "max_violations",
    ];
    walk_section(text, "assertions", value, KNOWN, |key, f| {
        match key {
            "expected_exit" => {
                let v = f.str()?;
                if v != "completed" && v != "limit_exceeded" {
                    return Err(
                        f.err(format!("unknown exit kind {v:?} (completed|limit_exceeded)"))
                    );
                }
                assertions.expected_exit = v.to_owned();
            }
            "max_total_energy_j" => assertions.max_total_energy_j = Some(f.f64()?),
            "max_avg_latency_us" => assertions.max_avg_latency_us = Some(f.f64()?),
            "min_completed_reads" => assertions.min_completed_reads = Some(f.u64()?),
            "max_violations" => assertions.max_violations = Some(f.u64()?),
            _ => unreachable!("walk_section rejects unknown keys"),
        }
        Ok(())
    })?;
    Ok(assertions)
}

fn parse_sweep(text: &str, value: &Value) -> Result<SweepSpec, ManifestError> {
    let mut sweep = SweepSpec::default();
    const KNOWN: &[&str] = &["figures", "shards", "eval_us", "seed", "obs", "out"];
    walk_section(text, "sweep", value, KNOWN, |key, f| {
        match key {
            "figures" => {
                let arr = f
                    .value
                    .as_array()
                    .map_err(|_| f.err(format!("expected an array, got {:?}", f.value)))?;
                if arr.is_empty() {
                    return Err(f.err("must name at least one figure (omit the key for all)"));
                }
                let mut figures = Vec::with_capacity(arr.len());
                for v in arr {
                    let name = v.as_str().map_err(|_| {
                        f.err(format!("expected an array of figure names, got {v:?}"))
                    })?;
                    let valid = sweep_figures();
                    if !valid.contains(&name) {
                        return Err(f.err(format!(
                            "unknown figure {name:?} (valid figures: {})",
                            valid.join(", ")
                        )));
                    }
                    figures.push(name.to_owned());
                }
                sweep.figures = figures;
            }
            "shards" => {
                let n = f.u64()?;
                if n == 0 || n > u64::from(MAX_SHARDS) {
                    return Err(f.err(format!("must be in 1..={MAX_SHARDS}")));
                }
                sweep.shards = n as u32;
            }
            "eval_us" => {
                let n = f.us()?;
                if n == 0 {
                    return Err(f.err("must be positive"));
                }
                sweep.settings.eval_period = SimDuration::from_us(n);
            }
            "seed" => sweep.settings.seed = f.u64()?,
            "obs" => sweep.settings.obs = f.bool()?,
            "out" => sweep.out = Some(f.str()?.to_owned()),
            _ => unreachable!("walk_section rejects unknown keys"),
        }
        Ok(())
    })?;
    Ok(sweep)
}

/// A manifest resolved into something executable: the validated config
/// (replayed trace and calibrated model included) and the job's cache
/// identity.
#[derive(Debug, Clone)]
pub struct ResolvedJob {
    /// The manifest this job came from (limits and assertions live here).
    pub manifest: Manifest,
    /// The validated simulation configuration.
    pub cfg: SimConfig,
    /// Persistent-cache identity of the *full* run:
    /// [`memnet_bench::fingerprint`] of `cfg`. Equal fingerprints
    /// guarantee byte-identical reports.
    pub fingerprint: String,
    /// In-flight dedup identity: the fingerprint plus every limit that
    /// may stop the run (event budget, truncating sim-time cap, wall
    /// clock). Two manifests with equal `job_key` run under the same
    /// limits and produce byte-identical results, so one simulation
    /// serves both.
    pub job_key: String,
    /// Whether the finished report may hit / populate the shared cache
    /// under `fingerprint` (false when a limit truncates the result).
    pub cache_eligible: bool,
}

#[cfg(test)]
mod tests {
    use memnet_core::DEFAULT_SEED;

    use super::*;

    fn manifest(s: &str) -> Result<Manifest, ManifestError> {
        Manifest::parse(s)
    }

    const MINIMAL: &str = "{\"schema\":\"memnet-manifest\",\"v\":1}";

    #[test]
    fn minimal_manifest_gets_the_builder_defaults() {
        let m = manifest(MINIMAL).expect("minimal manifest parses");
        let cfg = m.resolve().expect("the defaults resolve").cfg;
        assert_eq!(fingerprint(&cfg), fingerprint(&SimConfig::builder().build().unwrap()));
        assert_eq!(cfg.workload.name, "mixB");
        assert_eq!(cfg.eval_period, SimDuration::from_ms(1));
        assert_eq!(cfg.seed, DEFAULT_SEED);
        assert_eq!(cfg.energy_backend, EnergyBackendKind::Analytical);
        // Only the audit level departs from the builder, which reads
        // MEMNET_AUDIT.
        assert_eq!(cfg.audit, AuditLevel::Off);
        assert!(cfg.faults.is_none());
        assert_eq!(m.limits, Limits::default());
        assert_eq!(m.assertions.expected_exit, "completed");
    }

    #[test]
    fn schema_and_version_are_mandatory_and_checked() {
        assert!(manifest("{}").unwrap_err().path == "schema");
        assert!(manifest("{\"schema\":\"memnet-manifest\"}").unwrap_err().path == "v");
        let err = manifest("{\"schema\":\"bogus\",\"v\":1}").unwrap_err();
        assert_eq!(err.path, "schema");
        let err = manifest("{\"schema\":\"memnet-manifest\",\"v\":3}").unwrap_err();
        assert_eq!(err.path, "v");
        assert!(err.msg.contains("unsupported"));
        // Both spoken versions parse.
        manifest("{\"schema\":\"memnet-manifest\",\"v\":1}").unwrap();
        manifest("{\"schema\":\"memnet-manifest\",\"v\":2}").unwrap();
    }

    #[test]
    fn errors_carry_field_path_and_line() {
        let text = "{\n  \"schema\": \"memnet-manifest\",\n  \"v\": 1,\n  \"run\": {\n    \
                    \"workload\": \"mixD\",\n    \"topology\": \"moebius\"\n  }\n}";
        let err = manifest(text).unwrap_err();
        assert_eq!(err.path, "run.topology");
        assert_eq!(err.line, Some(6));
        assert!(err.msg.contains("moebius"));
        assert!(err.to_string().contains("run.topology (line 6)"), "{err}");

        // An evaluation period that overflows the picosecond clock (it
        // used to wrap to a 448 ns window) is refused the same way.
        let text = "{\n  \"schema\": \"memnet-manifest\",\n  \"v\": 1,\n  \"run\": {\n    \
                    \"eval_us\": 18446744073710\n  }\n}";
        let err = manifest(text).unwrap_err();
        assert_eq!(err.path, "run.eval_us");
        assert_eq!(err.line, Some(5));
        assert!(err.msg.contains(&SimDuration::MAX_US.to_string()), "{}", err.msg);
        let max = SimDuration::MAX_US;
        manifest(&format!(
            "{{\"schema\":\"memnet-manifest\",\"v\":1,\"run\":{{\"eval_us\":{max}}}}}"
        ))
        .expect("the maximum itself is accepted");

        // An α off the 0.1% grid would share its cache identity with a
        // neighbour (0.51 and 0.54 both fingerprinted as alpha=5).
        let text = "{\n  \"schema\": \"memnet-manifest\",\n  \"v\": 1,\n  \"run\": {\n    \
                    \"workload\": \"mixD\",\n    \"alpha_pct\": 0.54\n  }\n}";
        let err = manifest(text).unwrap_err();
        assert_eq!(err.path, "run.alpha_pct");
        assert_eq!(err.line, Some(6));
        assert!(err.msg.contains("0.54"), "{}", err.msg);
        // An α outside (0%, 100%) is refused in the percent it was given.
        let text = "{\n  \"schema\": \"memnet-manifest\",\n  \"v\": 1,\n  \"run\": {\n    \
                    \"alpha_pct\": 150\n  }\n}";
        let err = manifest(text).unwrap_err();
        assert_eq!(err.path, "run.alpha_pct");
        assert_eq!(err.line, Some(5));
        assert!(err.msg.contains("got 150%"), "{}", err.msg);
        for (pct, tenths) in [(2.5, 25), (5.0, 50), (30.0, 300)] {
            let job = manifest(&format!(
                "{{\"schema\":\"memnet-manifest\",\"v\":1,\"run\":{{\"alpha_pct\":{pct}}}}}"
            ))
            .expect("grid values are accepted")
            .resolve()
            .unwrap();
            assert!(job.fingerprint.contains(&format!("|alpha={tenths}|")), "{}", job.fingerprint);
        }
    }

    #[test]
    fn unknown_keys_are_rejected_with_valid_alternatives() {
        let text = "{\"schema\":\"memnet-manifest\",\"v\":1,\n\"assertions\":{\"max_latency\":1}}";
        let err = manifest(text).unwrap_err();
        assert_eq!(err.path, "assertions.max_latency");
        assert_eq!(err.line, Some(2));
        assert!(err.msg.contains("max_avg_latency_us"), "suggests valid keys: {}", err.msg);

        let err = manifest("{\"schema\":\"memnet-manifest\",\"v\":1,\"runs\":{}}").unwrap_err();
        assert_eq!(err.path, "runs");
    }

    #[test]
    fn invalid_json_reports_a_line() {
        let err = manifest("{\n  \"schema\": \"memnet-manifest\",\n  \"v\": 1,\n").unwrap_err();
        assert_eq!(err.path, "manifest");
        assert!(err.msg.contains("not valid JSON"));
        assert_eq!(err.line, Some(4));
    }

    #[test]
    fn multichannel_is_refused_like_replay() {
        let text = "{\"schema\":\"memnet-manifest\",\"v\":1,\"run\":{\"channels\":2}}";
        let err = manifest(text).unwrap_err();
        assert_eq!(err.path, "run.channels");
        assert!(err.msg.contains("single-channel"), "{}", err.msg);
        // channels: 1 is accepted (it is the only valid value).
        manifest("{\"schema\":\"memnet-manifest\",\"v\":1,\"run\":{\"channels\":1}}").unwrap();
    }

    #[test]
    fn calibration_requires_the_idd_backend() {
        let text = "{\"schema\":\"memnet-manifest\",\"v\":1,\
                    \"run\":{\"calibration\":\"c.json\"}}";
        let err = manifest(text).unwrap_err();
        assert_eq!(err.path, "run.calibration");
        assert!(err.msg.contains("idd"));
        manifest(
            "{\"schema\":\"memnet-manifest\",\"v\":1,\
             \"run\":{\"energy_backend\":\"idd\",\"calibration\":\"c.json\"}}",
        )
        .unwrap();
    }

    #[test]
    fn zero_limits_are_rejected() {
        let err =
            manifest("{\"schema\":\"memnet-manifest\",\"v\":1,\"limits\":{\"max_events\":0}}")
                .unwrap_err();
        assert_eq!(err.path, "limits.max_events");
        assert!(err.msg.contains("positive"));
        // Nor may a limit overflow the picosecond clock (unchecked, this
        // one wrapped to a 448 ns cap).
        let err = manifest(
            "{\"schema\":\"memnet-manifest\",\"v\":1,\
             \"limits\":{\"max_sim_time_us\":18446744073710}}",
        )
        .unwrap_err();
        assert_eq!(err.path, "limits.max_sim_time_us");
        assert!(err.msg.contains(&SimDuration::MAX_US.to_string()), "{}", err.msg);
    }

    #[test]
    fn unknown_workload_is_refused_at_parse_with_its_line() {
        let err =
            manifest("{\"schema\":\"memnet-manifest\",\"v\":1,\"run\":{\"workload\":\"nope\"}}")
                .unwrap_err();
        assert_eq!(err.path, "run.workload");
        assert_eq!(err.line, Some(1));
        assert!(err.msg.contains("unknown workload \"nope\""));
        assert!(err.msg.contains("mixB"), "lists the catalog: {}", err.msg);
        // A replay runs the workload its trace names, so only `resolve`,
        // which reads the trace, can build it.
        manifest(
            "{\"schema\":\"memnet-manifest\",\"v\":1,\
             \"run\":{\"workload\":\"nope\",\"replay\":\"t.jsonl\"}}",
        )
        .expect("a replay manifest is built at resolve");
    }

    #[test]
    fn fingerprint_matches_the_bench_cache_discipline() {
        let m = manifest(
            "{\"schema\":\"memnet-manifest\",\"v\":1,\
             \"run\":{\"workload\":\"mixD\",\"eval_us\":50,\"seed\":7}}",
        )
        .unwrap();
        let job = m.resolve().unwrap();
        let version = format!("v{}|", memnet_bench::CACHE_SCHEMA_VERSION);
        assert!(job.fingerprint.starts_with(&version), "{}", job.fingerprint);
        assert!(job.fingerprint.contains("wl=mixD"));
        assert!(job.fingerprint.contains("seed=7"));
        assert!(job.cache_eligible);
        assert_eq!(job.fingerprint, job.job_key, "no limits: job key is the fingerprint");
    }

    #[test]
    fn truncating_limits_split_the_job_key_from_the_fingerprint() {
        let m = manifest(
            "{\"schema\":\"memnet-manifest\",\"v\":1,\
             \"run\":{\"workload\":\"mixD\",\"eval_us\":1000},\
             \"limits\":{\"max_sim_time_us\":50,\"wall_time_ms\":60000}}",
        )
        .unwrap();
        let job = m.resolve().unwrap();
        assert!(!job.cache_eligible, "a truncated result must not poison the cache");
        assert!(job.job_key.ends_with("|lim_sim_us=50|lim_wall_ms=60000"), "{}", job.job_key);
        assert_ne!(job.job_key, job.fingerprint);

        // A sim cap at/above the eval period is no truncation, and a pure
        // wall-clock limit never blocks caching. The wall clock may still
        // stop the run, so it keys the job.
        let m = manifest(
            "{\"schema\":\"memnet-manifest\",\"v\":1,\
             \"run\":{\"workload\":\"mixD\",\"eval_us\":1000},\
             \"limits\":{\"max_sim_time_us\":1000,\"wall_time_ms\":60000}}",
        )
        .unwrap();
        let job = m.resolve().unwrap();
        assert!(job.cache_eligible);
        assert_eq!(job.job_key, format!("{}|lim_wall_ms=60000", job.fingerprint));
    }

    #[test]
    fn sweep_section_parses_with_defaults() {
        let m = manifest("{\"schema\":\"memnet-manifest\",\"v\":2,\"sweep\":{}}").unwrap();
        let sweep = m.sweep.expect("sweep present");
        assert_eq!(sweep, SweepSpec::default());
        assert_eq!(sweep.figures.len(), sweep_figures().len(), "defaults to every figure");
        assert_eq!(sweep.shards, 1);
        assert_eq!(sweep.settings, Settings { threads: 1, ..Settings::default() });
        assert_eq!(sweep.settings.eval_period, SimDuration::from_ms(1));
        assert_eq!(sweep.settings.seed, DEFAULT_SEED);
        assert!(!sweep.settings.obs);
        assert!(sweep.out.is_none());

        let m = manifest(
            "{\"schema\":\"memnet-manifest\",\"v\":2,\
             \"sweep\":{\"figures\":[\"fig05\",\"model_diff\"],\"shards\":4,\
             \"eval_us\":50,\"seed\":7,\"obs\":true,\"out\":\"m.jsonl\"}}",
        )
        .unwrap();
        let sweep = m.sweep.unwrap();
        assert_eq!(sweep.figures, ["fig05", "model_diff"]);
        assert_eq!(sweep.shards, 4);
        assert_eq!(sweep.settings.eval_period, SimDuration::from_us(50));
        assert_eq!(sweep.settings.seed, 7);
        assert!(sweep.settings.obs);
        assert_eq!(sweep.out.as_deref(), Some("m.jsonl"));
    }

    #[test]
    fn sweep_requires_v2() {
        let err = manifest("{\"schema\":\"memnet-manifest\",\"v\":1,\n\"sweep\":{}}").unwrap_err();
        assert_eq!(err.path, "sweep");
        assert_eq!(err.line, Some(2));
        assert!(err.msg.contains("\"v\": 2"), "{}", err.msg);
    }

    #[test]
    fn sweep_excludes_run_limits_and_assertions() {
        let err = manifest(
            "{\"schema\":\"memnet-manifest\",\"v\":2,\"sweep\":{},\
             \"run\":{\"workload\":\"mixD\"}}",
        )
        .unwrap_err();
        assert_eq!(err.path, "run");
        assert!(err.msg.contains("sweep manifest"), "{}", err.msg);
        let err = manifest(
            "{\"schema\":\"memnet-manifest\",\"v\":2,\
             \"limits\":{\"max_events\":5},\"sweep\":{}}",
        )
        .unwrap_err();
        assert_eq!(err.path, "limits");
    }

    #[test]
    fn sweep_validates_figures_shards_and_obs() {
        let err = manifest(
            "{\"schema\":\"memnet-manifest\",\"v\":2,\
             \"sweep\":{\"figures\":[\"fig99\"]}}",
        )
        .unwrap_err();
        assert_eq!(err.path, "sweep.figures");
        assert!(err.msg.contains("fig99"));
        assert!(err.msg.contains("fig05"), "lists valid figures: {}", err.msg);

        let err = manifest("{\"schema\":\"memnet-manifest\",\"v\":2,\"sweep\":{\"shards\":0}}")
            .unwrap_err();
        assert_eq!(err.path, "sweep.shards");
        assert!(err.msg.contains("1..=4096"), "{}", err.msg);
        let err = manifest("{\"schema\":\"memnet-manifest\",\"v\":2,\"sweep\":{\"shards\":5000}}")
            .unwrap_err();
        assert_eq!(err.path, "sweep.shards");

        let err = manifest(
            "{\"schema\":\"memnet-manifest\",\"v\":2,\"sweep\":{\"eval_us\":18446744073710}}",
        )
        .unwrap_err();
        assert_eq!(err.path, "sweep.eval_us");
        assert!(err.msg.contains(&SimDuration::MAX_US.to_string()), "{}", err.msg);

        let err = manifest("{\"schema\":\"memnet-manifest\",\"v\":2,\"sweep\":{\"obs\":\"yes\"}}")
            .unwrap_err();
        assert_eq!(err.path, "sweep.obs");
        assert!(err.msg.contains("true or false"), "{}", err.msg);

        let err = manifest("{\"schema\":\"memnet-manifest\",\"v\":2,\"sweep\":{\"figs\":[]}}")
            .unwrap_err();
        assert_eq!(err.path, "sweep.figs");
        assert!(err.msg.contains("figures"), "suggests valid keys: {}", err.msg);
    }

    #[test]
    fn sweep_manifests_do_not_resolve_to_a_single_job() {
        let m = manifest("{\"schema\":\"memnet-manifest\",\"v\":2,\"sweep\":{}}").unwrap();
        let err = m.resolve().unwrap_err();
        assert_eq!(err.path, "sweep");
        assert!(err.msg.contains("not a single run"), "{}", err.msg);
    }
}
