//! `memnet` command-line interface: run one memory-network simulation and
//! print a report.
//!
//! ```text
//! memnet [--workload NAME] [--topology daisychain|ternary|star|ddrx]
//!        [--scale small|big] [--policy fp|unaware|aware|static]
//!        [--mechanism fp|vwl|roo|vwl+roo|dvfs|dvfs+roo]
//!        [--alpha PCT] [--eval-us N] [--seed N] [--channels K]
//!        [--faults SPEC] [--obs] [--trace FILE] [--trace-packets]
//!        [--trace-every N] [--trace-max N] [--json] [--compare]
//! memnet trace FILE [--csv OUT]
//! ```
//!
//! `--faults` takes a scenario spec like `ber=1e-6,burst=mild,fail=3`
//! (see `memnet::faults::FaultConfig::parse`); without it the run is
//! fault-free.
//!
//! `--obs` retains per-epoch time-series samples in the report; `--trace`
//! additionally streams schema-versioned JSONL events to a file
//! (decimated by `--trace-every`, capped at `--trace-max`).
//! `--trace-packets` adds every packet's milestones (inject, link
//! start/done, vault enqueue/done, retire) to the trace as `pkt` events
//! and needs a trace file. The `memnet trace` subcommand validates a
//! trace file and prints its per-link residency table; `--csv` also
//! writes the epoch time series as CSV for plotting.
//!
//! `memnet record FILE` dumps the configured workload's request stream
//! (covering the evaluation period) to a schema-versioned JSONL trace;
//! `memnet replay FILE` drives the engine from such a trace instead of
//! the synthetic generator. A replay with the trace's own seed (the
//! default when `--seed` is omitted) is bit-identical to the recorded
//! run.
//!
//! `--energy-backend analytical|idd` selects how the engine prices
//! residencies and activity (the analytical model by default); the
//! choice never changes simulated behavior,
//! only the energy accounting. `memnet calibrate MEASUREMENTS.csv` fits
//! the IDD mode table to measured watts and emits a calibration JSON;
//! `memnet diff-models` runs one configuration through both backends and
//! exits non-zero if any mode-table watt, energy category or total
//! diverges beyond `--threshold` percent.
//!
//! `memnet serve` runs the manifest-driven batch simulation daemon;
//! `memnet submit MANIFEST` sends a memnet-manifest document to it and
//! prints the standardized result payload; `memnet run-manifest MANIFEST`
//! executes the same document offline (byte-identical result);
//! `memnet shutdown` asks a daemon to drain and exit. See
//! `memnet::serve` for the manifest schema and the exit-code contract.
//!
//! `memnet sweep [--shard i/n]` computes one deterministic shard of the
//! figure matrix and dumps it as memnet-sweep JSONL; `memnet merge`
//! recombines per-shard files into output byte-identical to the
//! unsharded run (`--check` validates coverage without writing). See
//! `memnet::bench::shard` for the partition and file format.
//!
//! `memnet figures [NAME...]` renders the paper's tables and figures
//! (every registry figure by default) through the same matrix and result
//! cache, so a cache that sweeps filled renders without simulating.
//!
//! Run flags never come from the environment. `memnet sweep` and
//! `memnet figures` read their harness settings (`MEMNET_EVAL_US` and
//! friends) in the `env` module, the one module of the program that
//! reads environment variables besides the audit level.

mod env;

use std::process::ExitCode;
use std::sync::Arc;

use memnet::core::multichannel::run_channels;
use memnet::core::{report_text, NetworkScale, PolicyKind, SimConfig, SimConfigBuilder};
use memnet::faults::FaultConfig;
use memnet::net::TopologyKind;
use memnet::obs::{summary, ObsConfig};
use memnet::policy::Mechanism;
use memnet::power::{calib, EnergyBackend, EnergyBackendKind, HmcPowerModel, IddModel};
use memnet::serve::ServerConfig;
use memnet::workload::RequestTrace;
use memnet_simcore::{memnet_log, memnet_warn, SimDuration};

struct Args {
    /// The run: the builder's defaults, then the run flags.
    spec: SimConfigBuilder,
    channels: usize,
    json: bool,
    compare: bool,
    /// The one positional argument: the FILE of `record` and `replay`.
    file: Option<String>,
}

impl Args {
    /// Refuses a positional argument, for runs that take no FILE.
    fn without_file(self) -> Result<Args, String> {
        match self.file {
            Some(file) => Err(format!("unknown flag {file:?}\n{}", usage())),
            None => Ok(self),
        }
    }
}

fn usage() -> String {
    format!(
        "usage: memnet [--workload NAME] [--topology daisychain|ternary|star|ddrx]\n\
     \x20             [--scale small|big] [--policy fp|unaware|aware|static]\n\
     \x20             [--mechanism fp|vwl|roo|vwl+roo|dvfs|dvfs+roo] [--alpha PCT]\n\
     \x20             [--eval-us N] [--seed N] [--channels K] [--faults SPEC]\n\
     \x20             [--obs] [--trace FILE] [--trace-packets] [--trace-every N]\n\
     \x20             [--trace-max N] [--json] [--compare] [--list-workloads]\n\
     \x20             [--energy-backend analytical|idd]\n\
     \x20      memnet trace FILE [--csv OUT]\n\
     \x20      memnet record FILE [run flags]\n\
     \x20      memnet replay FILE [run flags]\n\
     \x20      memnet calibrate FILE [--out FILE]\n\
     \x20      memnet diff-models [run flags] [--threshold PCT] [--calibration FILE]\n\
     \x20      memnet serve [--addr A] [--workers N] [--cache-dir DIR] [--no-cache]\n\
     \x20      memnet submit MANIFEST [--addr A] [--out FILE]\n\
     \x20      memnet run-manifest MANIFEST [--out FILE]\n\
     \x20      memnet shutdown [--addr A]\n\
     \x20      memnet sweep [--shard I/N] [--figures LIST] [--seeds LIST] [--obs]\n\
     \x20                   [--out FILE]\n\
     \x20      memnet merge [--check] [--out FILE] SHARD_FILE...\n\
     \x20      memnet figures [NAME...]\n\
     \x20 --faults SPEC: fault scenario, e.g. ber=1e-6,burst=mild,degrade=2:4,fail=3\n\
     \x20 --obs:         keep per-epoch time-series samples in the report\n\
     \x20 --trace FILE:  stream JSONL events to FILE (every --trace-every'th\n\
     \x20                event, at most --trace-max of them)\n\
     \x20 --trace-packets: add each packet's milestones (inject, link, vault,\n\
     \x20                retire) to the --trace file as `pkt` events\n\
     \x20 trace FILE:    validate a JSONL trace and print its residency table;\n\
     \x20                --csv OUT also writes the epoch time series as CSV\n\
     \x20 record FILE:   dump the configured workload's request stream (covering\n\
     \x20                --eval-us) to a schema-versioned JSONL request trace\n\
     \x20 replay FILE:   drive the engine from a recorded request trace; seed\n\
     \x20                defaults to the trace's (bit-identical rerun)\n\
     \x20 --energy-backend: energy pricing model (default analytical); never\n\
     \x20                changes simulated behavior\n\
     \x20 calibrate FILE: least-squares-fit the IDD mode table to a measurement\n\
     \x20                CSV (timestamp_s,mode,watts) and emit calibration JSON\n\
     \x20 diff-models:   run one configuration through both energy backends and\n\
     \x20                exit non-zero if any quantity diverges beyond\n\
     \x20                --threshold percent (default 5); --calibration FILE\n\
     \x20                prices the IDD side with a calibrated model\n\
     \x20 serve:         run the manifest batch daemon (addr defaults to\n\
     \x20                {addr}; results cached in --cache-dir, default\n\
     \x20                {cache})\n\
     \x20 submit FILE:   send a memnet-manifest v1 JSON to a daemon; events on\n\
     \x20                stderr, result payload on stdout (or --out); exits by\n\
     \x20                the result contract (0 pass, 2 assert-fail, 3 limit,\n\
     \x20                4 rejected, 5 cancelled)\n\
     \x20 run-manifest:  execute a manifest offline with the same result payload\n\
     \x20                and exit contract as submit, byte-identical report\n\
     \x20 shutdown:      ask a daemon to drain its queue and exit\n\
     \x20 sweep:         compute one deterministic shard of the figure matrix and\n\
     \x20                dump memnet-sweep JSONL (figures default to the full\n\
     \x20                registry; eval/seed/cache from MEMNET_EVAL_US,\n\
     \x20                MEMNET_SEED, MEMNET_CACHE_DIR / MEMNET_NO_CACHE;\n\
     \x20                --seeds 2,3 adds replica seeds per cell, default\n\
     \x20                MEMNET_SEEDS)\n\
     \x20 merge:         recombine per-shard sweep files into output\n\
     \x20                byte-identical to the unsharded run (exit 0 merged,\n\
     \x20                1 I/O error, 2 mismatched or incomplete shards);\n\
     \x20                --check validates coverage without writing output\n\
     \x20 figures:       render the named tables and figures (default: all, in\n\
     \x20                paper order) to stdout; settings and cache as for sweep",
        addr = ServerConfig::default().addr,
        cache = memnet::bench::settings::DEFAULT_CACHE_DIR,
    )
}

fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut spec = SimConfig::builder();
    // The trace flags each set one field, so the observability config is
    // assembled here and joins the spec once every flag is read.
    let mut obs = ObsConfig::off();
    let (mut channels, mut json, mut compare) = (1, false, false);
    let mut file = None;
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--workload" | "-w" => spec = spec.workload(&value("--workload")?),
            "--topology" | "-t" => {
                let v = value("--topology")?;
                let kind =
                    TopologyKind::parse(&v).ok_or_else(|| format!("unknown topology {v:?}"))?;
                spec = spec.topology(kind);
            }
            "--scale" | "-s" => {
                let v = value("--scale")?;
                let scale =
                    NetworkScale::parse(&v).ok_or_else(|| format!("unknown scale {v:?}"))?;
                spec = spec.scale(scale);
            }
            "--policy" | "-p" => {
                let v = value("--policy")?;
                let policy =
                    PolicyKind::parse(&v).ok_or_else(|| format!("unknown policy {v:?}"))?;
                spec = spec.policy(policy);
            }
            "--mechanism" | "-m" => {
                let v = value("--mechanism")?;
                let mechanism =
                    Mechanism::parse(&v).ok_or_else(|| format!("unknown mechanism {v:?}"))?;
                spec = spec.mechanism(mechanism);
            }
            "--alpha" | "-a" => {
                let pct: f64 = value("--alpha")?.parse().map_err(|e| format!("bad alpha: {e}"))?;
                spec = spec.alpha(pct / 100.0);
            }
            "--eval-us" => {
                let us = value("--eval-us")?.parse().map_err(|e| format!("bad eval-us: {e}"))?;
                let period = SimDuration::try_from_us(us).ok_or_else(|| {
                    format!("bad eval-us: {us} exceeds the {} us maximum", SimDuration::MAX_US)
                })?;
                spec = spec.eval_period(period);
            }
            "--seed" => {
                spec = spec.seed(value("--seed")?.parse().map_err(|e| format!("bad seed: {e}"))?)
            }
            "--channels" => {
                channels =
                    value("--channels")?.parse().map_err(|e| format!("bad channels: {e}"))?;
                if channels == 0 {
                    return Err("bad channels: must be at least 1".to_owned());
                }
            }
            "--faults" => {
                let faults = FaultConfig::parse(&value("--faults")?)
                    .map_err(|e| format!("bad fault scenario: {e}"))?;
                spec = spec.faults(faults);
            }
            "--obs" => obs.enabled = true,
            "--trace" => obs.trace_path = Some(value("--trace")?),
            "--trace-packets" => obs.packets = true,
            "--trace-every" => {
                obs.trace_every =
                    value("--trace-every")?.parse().map_err(|e| format!("bad trace-every: {e}"))?;
                if obs.trace_every == 0 {
                    return Err("bad trace-every: must be at least 1".to_owned());
                }
            }
            "--trace-max" => {
                obs.trace_max =
                    value("--trace-max")?.parse().map_err(|e| format!("bad trace-max: {e}"))?
            }
            "--energy-backend" => {
                let v = value("--energy-backend")?;
                let kind = EnergyBackendKind::parse(&v)
                    .ok_or_else(|| format!("unknown energy backend {v:?} (analytical|idd)"))?;
                spec = spec.energy_backend(kind);
            }
            "--json" => json = true,
            "--compare" => compare = true,
            "--list-workloads" => {
                for w in memnet::workload::catalog::all() {
                    println!(
                        "{:<6} {:>3} GB  chan util {:>4.0}%  {:?}",
                        w.name,
                        w.footprint_gb,
                        100.0 * w.channel_utilization,
                        w.class
                    );
                }
                for s in memnet::workload::stress::all() {
                    println!(
                        "{:<6} {:>3} GB  chan util {:>4.0}%  Stress({:?})",
                        s.base.name,
                        s.base.footprint_gb,
                        100.0 * s.base.channel_utilization,
                        s.pattern
                    );
                }
                std::process::exit(0);
            }
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            other if file.is_none() && !other.starts_with('-') => file = Some(other.to_owned()),
            other => return Err(format!("unknown flag {other:?}\n{}", usage())),
        }
    }
    if obs.packets && obs.trace_path.is_none() {
        return Err("--trace-packets needs a trace file (--trace FILE)".to_owned());
    }
    Ok(Args { spec: spec.obs(obs), channels, json, compare, file })
}

/// Parses a `record` or `replay` invocation: its run flags and its FILE,
/// in any order.
fn parse_file_args(cmd: &str, rest: Vec<String>) -> Result<(String, Args), String> {
    let mut args = parse_args(rest)?;
    let file = args.file.take().ok_or_else(|| format!("{cmd} needs a FILE\n{}", usage()))?;
    Ok((file, args))
}

/// `memnet record FILE [run flags]`: dump the configured workload's
/// request stream to a JSONL request trace covering the evaluation period.
fn record_command(rest: Vec<String>) -> Result<(), String> {
    let (file, args) = parse_file_args("record", rest)?;
    if args.channels > 1 {
        return Err("record is single-channel (channels reseed per channel)".to_owned());
    }
    let cfg = args.spec.build().map_err(|e| e.to_string())?;
    // ~56 B/record: the cap bounds the file near 500 MB even if asked to
    // record a very long evaluation period.
    let trace = cfg.record_trace(10_000_000)?;
    std::fs::write(&file, trace.to_jsonl()).map_err(|e| format!("writing {file}: {e}"))?;
    memnet_log!(
        "recorded {} request(s) of {} (digest {}) to {file}",
        trace.len(),
        trace.workload,
        trace.digest_hex()
    );
    Ok(())
}

/// `memnet replay FILE [run flags]`: drive the engine from a recorded
/// request trace instead of the synthetic generator.
fn replay_command(rest: Vec<String>) -> Result<ExitCode, String> {
    let (file, args) = parse_file_args("replay", rest)?;
    if args.channels > 1 {
        return Err("replay is single-channel (channels reseed per channel)".to_owned());
    }
    let text = std::fs::read_to_string(&file).map_err(|e| format!("reading {file}: {e}"))?;
    let trace =
        RequestTrace::parse_jsonl(&text).map_err(|e| format!("invalid trace {file}: {e}"))?;
    memnet_log!(
        "replaying {} request(s) of {} (digest {}) from {file}",
        trace.len(),
        trace.workload,
        trace.digest_hex()
    );
    let cfg = args.spec.clone().replay(Arc::new(trace)).build().map_err(|e| e.to_string())?;
    Ok(run_and_report(&args, cfg))
}

/// `memnet calibrate FILE [--out FILE]`: least-squares-fit the IDD mode
/// table's link currents to a measurement CSV and emit the calibrated
/// model as JSON (to `--out`, else stdout).
fn calibrate_command(rest: Vec<String>) -> Result<(), String> {
    let mut file: Option<String> = None;
    let mut out: Option<String> = None;
    let mut it = rest.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => out = Some(it.next().ok_or("--out requires a value")?),
            "--help" | "-h" => {
                println!("{}", usage());
                return Ok(());
            }
            other if file.is_none() && !other.starts_with('-') => file = Some(other.to_owned()),
            other => return Err(format!("unknown calibrate argument {other:?}\n{}", usage())),
        }
    }
    let Some(file) = file else {
        return Err(format!("calibrate needs a measurement CSV\n{}", usage()));
    };
    let text = std::fs::read_to_string(&file).map_err(|e| format!("reading {file}: {e}"))?;
    let rows = calib::parse_csv(&text).map_err(|e| format!("invalid measurements {file}: {e}"))?;
    let (fitted, report) = calib::fit(&IddModel::hmc_gen2(), &rows)?;
    memnet_log!(
        "calibrated on {} row(s) ({} on-mode, {} off, {} waking); rms residual {:.3e} W",
        report.rows(),
        report.on_rows,
        report.off_rows,
        report.wake_rows,
        report.rms_watts
    );
    let json = serde::json::to_string(&fitted);
    match out {
        Some(path) => {
            std::fs::write(&path, &json).map_err(|e| format!("writing {path}: {e}"))?;
            memnet_log!("wrote calibration JSON to {path}");
        }
        None => println!("{json}"),
    }
    Ok(())
}

/// `memnet diff-models [run flags] [--threshold PCT] [--calibration FILE]`:
/// run one configuration through the analytical and IDD energy backends
/// and report every mode-table watt and energy-category divergence,
/// exiting non-zero if any exceeds the threshold.
fn diff_models_command(rest: Vec<String>) -> Result<ExitCode, String> {
    let mut threshold_pct = 5.0f64;
    let mut calibration: Option<String> = None;
    let mut flags = Vec::new();
    let mut it = rest.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--threshold" => {
                threshold_pct = it
                    .next()
                    .ok_or("--threshold requires a value")?
                    .parse()
                    .map_err(|e| format!("bad threshold: {e}"))?
            }
            "--calibration" => {
                calibration = Some(it.next().ok_or("--calibration requires a value")?)
            }
            _ => flags.push(arg),
        }
    }
    if !(threshold_pct.is_finite() && threshold_pct >= 0.0) {
        return Err(format!("bad threshold: {threshold_pct} (want a percentage >= 0)"));
    }
    let args = parse_args(flags)?.without_file()?;
    if args.channels > 1 {
        return Err("diff-models is single-channel".to_owned());
    }
    let threshold = threshold_pct / 100.0;
    let idd = match &calibration {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            serde::json::from_str::<IddModel>(&text)
                .map_err(|e| format!("invalid calibration {path}: {e}"))?
        }
        None => IddModel::hmc_gen2(),
    };
    let analytical = HmcPowerModel::paper();
    let mut flagged = 0usize;

    println!("Mode-table watts per unidirectional link");
    let (table, n) = report_text::model_diff_table(
        analytical.name(),
        idd.name(),
        &report_text::model_diff_watts_rows(&analytical, &idd),
        threshold,
    );
    print!("{table}");
    flagged += n;

    let mut cfg = args.spec.build().map_err(|e| e.to_string())?;
    let eval_us = cfg.eval_period.as_ps() / memnet_simcore::time::PS_PER_US;
    cfg.energy_backend = EnergyBackendKind::Analytical;
    let ref_report = cfg.clone().run();
    cfg.energy_backend = EnergyBackendKind::Idd;
    cfg.calibration = Some(Arc::new(idd.clone()));
    let cand_report = cfg.run();
    println!(
        "\nRun energy over {} / {} / {} ({} us)",
        ref_report.workload, ref_report.policy, ref_report.mechanism, eval_us
    );
    let (table, n) = report_text::model_diff_table(
        analytical.name(),
        idd.name(),
        &report_text::model_diff_energy_rows(&ref_report, &cand_report),
        threshold,
    );
    print!("{table}");
    flagged += n;

    if flagged > 0 {
        memnet_warn!(
            "[diff-models] {flagged} quantity(ies) diverge beyond {threshold_pct}% between \
             the two energy models"
        );
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

/// `memnet serve [--addr A] [--workers N] [--cache-dir DIR] [--no-cache]`:
/// run the manifest batch daemon until SIGINT/SIGTERM or a `shutdown`
/// request drains it.
fn serve_command(rest: Vec<String>) -> Result<(), String> {
    let mut cfg = ServerConfig {
        cache_dir: Some(memnet::bench::settings::DEFAULT_CACHE_DIR.into()),
        ..ServerConfig::default()
    };
    let mut it = rest.into_iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match arg.as_str() {
            "--addr" => cfg.addr = value("--addr")?,
            "--workers" => {
                cfg.workers =
                    value("--workers")?.parse().map_err(|e| format!("bad workers: {e}"))?
            }
            "--cache-dir" => cfg.cache_dir = Some(value("--cache-dir")?.into()),
            "--no-cache" => cfg.cache_dir = None,
            "--help" | "-h" => {
                println!("{}", usage());
                return Ok(());
            }
            other => return Err(format!("unknown serve argument {other:?}\n{}", usage())),
        }
    }
    memnet::serve::signal::install();
    let server =
        memnet::serve::Server::bind(cfg.clone()).map_err(|e| format!("bind {}: {e}", cfg.addr))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    memnet_log!(
        "memnet serve listening on {addr} ({} worker(s), cache {})",
        cfg.workers.max(1),
        cfg.cache_dir.as_deref().map_or("off".into(), |d| d.display().to_string())
    );
    let stats = server.run().map_err(|e| format!("serve: {e}"))?;
    memnet_log!(
        "memnet serve drained: {} submitted, {} simulated, {} coalesced, {} cache hit(s), \
         {} rejected, {} cancelled",
        stats.submitted,
        stats.simulated,
        stats.coalesced,
        stats.cache_hits,
        stats.rejected,
        stats.cancelled
    );
    Ok(())
}

/// Reads a manifest file and validates it locally, so schema errors come
/// back with real line numbers into the user's file. Returns the raw
/// text too (the wire form is its parsed JSON value).
fn load_manifest(path: &str) -> Result<(String, memnet::serve::Manifest), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let manifest = memnet::serve::Manifest::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    Ok((text, manifest))
}

/// Writes a result payload line to `--out` or stdout and converts its
/// embedded exit code into the process exit.
fn emit_result(json_line: &str, out: Option<&str>, exit_code: i64) -> Result<ExitCode, String> {
    match out {
        Some(path) => {
            let mut body = json_line.to_owned();
            body.push('\n');
            std::fs::write(path, body).map_err(|e| format!("writing {path}: {e}"))?;
        }
        None => println!("{json_line}"),
    }
    Ok(ExitCode::from(exit_code.clamp(0, 255) as u8))
}

/// `memnet run-manifest MANIFEST [--out FILE]`: execute one manifest
/// offline — same payload and exit contract as a daemon submission.
fn run_manifest_command(rest: Vec<String>) -> Result<ExitCode, String> {
    let mut file: Option<String> = None;
    let mut out: Option<String> = None;
    let mut it = rest.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => out = Some(it.next().ok_or("--out requires a value")?),
            "--help" | "-h" => {
                println!("{}", usage());
                return Ok(ExitCode::SUCCESS);
            }
            other if file.is_none() && !other.starts_with('-') => file = Some(other.to_owned()),
            other => return Err(format!("unknown run-manifest argument {other:?}\n{}", usage())),
        }
    }
    let Some(file) = file else {
        return Err(format!("run-manifest needs a MANIFEST file\n{}", usage()));
    };
    let (_, manifest) = match load_manifest(&file) {
        Ok(loaded) => loaded,
        Err(e) => {
            eprintln!("error: {e}");
            return Ok(ExitCode::from(memnet::serve::EXIT_REJECTED as u8));
        }
    };
    if manifest.sweep.is_some() {
        // A sweep manifest runs every shard sequentially and merges; the
        // merged text goes to the spec's own `out` path, while --out (or
        // stdout) receives the memnet-sweep-result payload.
        let (payload, _text) = match memnet::serve::run_sweep_manifest(&manifest) {
            Ok(done) => done,
            Err(e) => {
                eprintln!("error: {file}: {e}");
                return Ok(ExitCode::from(memnet::serve::EXIT_REJECTED as u8));
            }
        };
        memnet_log!(
            "{file}: {} ({}) — {} cell(s) across {} shard(s), {} simulated",
            payload.exit,
            payload.stop,
            payload.cells,
            payload.shards,
            payload.simulated
        );
        return emit_result(
            &serde::json::to_string(&payload),
            out.as_deref(),
            payload.exit_code.into(),
        );
    }
    let payload = match memnet::serve::run_manifest(&manifest) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {file}: {e}");
            return Ok(ExitCode::from(memnet::serve::EXIT_REJECTED as u8));
        }
    };
    memnet_log!(
        "{file}: {} ({}) after {} event(s)",
        payload.exit,
        payload.stop,
        payload.report.events_processed
    );
    emit_result(&serde::json::to_string(&payload), out.as_deref(), payload.exit_code.into())
}

/// `memnet submit MANIFEST [--addr A] [--out FILE]`: send a manifest to a
/// running daemon, narrate its lifecycle events on stderr, and print the
/// result payload — byte-identical to `run-manifest` when the daemon
/// simulates it fresh.
fn submit_command(rest: Vec<String>) -> Result<ExitCode, String> {
    use std::io::{BufRead, BufReader, Write};
    let mut file: Option<String> = None;
    let mut addr = ServerConfig::default().addr;
    let mut out: Option<String> = None;
    let mut it = rest.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => addr = it.next().ok_or("--addr requires a value")?,
            "--out" => out = Some(it.next().ok_or("--out requires a value")?),
            "--help" | "-h" => {
                println!("{}", usage());
                return Ok(ExitCode::SUCCESS);
            }
            other if file.is_none() && !other.starts_with('-') => file = Some(other.to_owned()),
            other => return Err(format!("unknown submit argument {other:?}\n{}", usage())),
        }
    }
    let Some(file) = file else {
        return Err(format!("submit needs a MANIFEST file\n{}", usage()));
    };
    // Validate locally first: schema errors get real line numbers into the
    // user's file instead of a position in the re-serialized wire form.
    let (text, _) = match load_manifest(&file) {
        Ok(loaded) => loaded,
        Err(e) => {
            eprintln!("error: {e}");
            return Ok(ExitCode::from(memnet::serve::EXIT_REJECTED as u8));
        }
    };
    let doc = serde::json::parse(&text).expect("validated manifest reparses");

    let mut stream = std::net::TcpStream::connect(&addr)
        .map_err(|e| format!("connecting to {addr}: {e} (is `memnet serve` running?)"))?;
    let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let line = format!("{{\"op\":\"submit\",\"manifest\":{}}}\n", serde::json::to_string(&doc));
    stream.write_all(line.as_bytes()).map_err(|e| format!("sending to {addr}: {e}"))?;

    for line in reader.lines() {
        let line = line.map_err(|e| format!("reading from {addr}: {e}"))?;
        if line.trim().is_empty() {
            continue;
        }
        let event = serde::json::parse(&line)
            .map_err(|e| format!("bad event from {addr}: {} in {line:?}", e.0))?;
        let kind = event.get("event").ok().and_then(|v| v.as_str().ok()).unwrap_or("?").to_owned();
        match kind.as_str() {
            "rejected" => {
                let msg =
                    event.get("error").ok().and_then(|v| v.as_str().ok()).unwrap_or("rejected");
                let path =
                    event.get("path").ok().and_then(|v| v.as_str().ok()).unwrap_or("manifest");
                eprintln!("error: {file}: {path}: {msg}");
                return Ok(ExitCode::from(memnet::serve::EXIT_REJECTED as u8));
            }
            "queued" => memnet_log!("{file}: queued{}", queue_note(&event)),
            "started" => memnet_log!("{file}: started"),
            "progress" => {
                // Sweep jobs report shard completions; run jobs report
                // simulation events.
                if let Ok(done) = event.get("shards_done").and_then(|v| v.num::<u64>()) {
                    let total =
                        event.get("shards").ok().and_then(|v| v.num::<u64>().ok()).unwrap_or(0);
                    memnet_log!("{file}: progress, {done}/{total} shard(s) done");
                } else {
                    let events =
                        event.get("events").ok().and_then(|v| v.num::<u64>().ok()).unwrap_or(0);
                    memnet_log!("{file}: progress, {events} event(s) processed");
                }
            }
            "done" | "failed" | "cancelled" => {
                let result = match event.get("result") {
                    Ok(result) => result,
                    Err(_) => {
                        // A sweep that failed server-side (merge or
                        // out-file error) carries an error, no payload.
                        let msg = event
                            .get("error")
                            .ok()
                            .and_then(|v| v.as_str().ok())
                            .unwrap_or("job failed without a result payload");
                        eprintln!("error: {file}: {msg}");
                        return Ok(ExitCode::from(memnet::serve::EXIT_ERROR as u8));
                    }
                };
                let exit_code = result
                    .get("exit_code")
                    .ok()
                    .and_then(|v| v.num::<i64>().ok())
                    .unwrap_or(memnet::serve::EXIT_ERROR.into());
                let exit = result.get("exit").ok().and_then(|v| v.as_str().ok()).unwrap_or("?");
                let stop = result.get("stop").ok().and_then(|v| v.as_str().ok()).unwrap_or("?");
                memnet_log!("{file}: {exit} ({stop})");
                if exit_code != i64::from(memnet::serve::EXIT_PASS) {
                    for verdict in assertion_failures(result) {
                        memnet_warn!("{file}: assertion failed: {verdict}");
                    }
                }
                return emit_result(&serde::json::to_string(result), out.as_deref(), exit_code);
            }
            "shutting-down" => {
                return Err(format!("{addr} is shutting down and refused the submission"))
            }
            "error" => {
                let msg = event.get("error").ok().and_then(|v| v.as_str().ok()).unwrap_or("?");
                return Err(format!("{addr}: {msg}"));
            }
            _ => {}
        }
    }
    Err(format!("{addr} closed the connection before returning a result"))
}

/// Renders a queued event's provenance flags for the narration line.
fn queue_note(event: &serde::json::Value) -> &'static str {
    let flag = |key: &str| matches!(event.get(key), Ok(serde::json::Value::Bool(true)));
    if flag("cached") {
        " (served from the result cache)"
    } else if flag("coalesced") {
        " (coalesced onto an identical in-flight job)"
    } else {
        ""
    }
}

/// Lists the failed assertions out of a result payload value.
fn assertion_failures(result: &serde::json::Value) -> Vec<String> {
    let Ok(serde::json::Value::Arr(verdicts)) = result.get("assertions") else {
        return Vec::new();
    };
    verdicts
        .iter()
        .filter(|v| matches!(v.get("ok"), Ok(serde::json::Value::Bool(false))))
        .map(|v| {
            let field =
                |key: &str| v.get(key).ok().and_then(|x| x.as_str().ok()).unwrap_or("?").to_owned();
            format!("{} wanted {}, got {}", field("assertion"), field("want"), field("actual"))
        })
        .collect()
}

/// `memnet shutdown [--addr A]`: ask a daemon to drain and exit.
fn shutdown_command(rest: Vec<String>) -> Result<(), String> {
    use std::io::{BufRead, BufReader, Write};
    let mut addr = ServerConfig::default().addr;
    let mut it = rest.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => addr = it.next().ok_or("--addr requires a value")?,
            "--help" | "-h" => {
                println!("{}", usage());
                return Ok(());
            }
            other => return Err(format!("unknown shutdown argument {other:?}\n{}", usage())),
        }
    }
    let mut stream = std::net::TcpStream::connect(&addr)
        .map_err(|e| format!("connecting to {addr}: {e} (is `memnet serve` running?)"))?;
    stream.write_all(b"{\"op\":\"shutdown\"}\n").map_err(|e| format!("sending to {addr}: {e}"))?;
    let mut reply = String::new();
    BufReader::new(stream)
        .read_line(&mut reply)
        .map_err(|e| format!("reading from {addr}: {e}"))?;
    if !reply.contains("shutting-down") {
        return Err(format!("unexpected reply from {addr}: {}", reply.trim()));
    }
    memnet_log!("{addr} is draining its queue and shutting down");
    Ok(())
}

/// `memnet sweep [--shard I/N] [--figures LIST] [--obs] [--out FILE]`:
/// compute one deterministic shard of the figure matrix and dump its
/// results as memnet-sweep JSONL (to `--out`, else stdout). With the
/// default `--shard 0/1` this is the unsharded whole — the document
/// `memnet merge` output is byte-compared against.
fn sweep_command(rest: Vec<String>) -> Result<ExitCode, String> {
    use memnet::bench::{figures, shard, Matrix};
    let mut shard_arg = shard::Shard::full();
    let mut figure_list: Option<Vec<String>> = None;
    let mut out: Option<String> = None;
    let mut obs = false;
    let mut seeds: Option<Vec<u64>> = None;
    let mut it = rest.into_iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match arg.as_str() {
            "--shard" => shard_arg = shard::Shard::parse(&value("--shard")?)?,
            "--figures" => {
                figure_list = Some(
                    value("--figures")?
                        .split(',')
                        .map(|s| s.trim().to_owned())
                        .filter(|s| !s.is_empty())
                        .collect(),
                )
            }
            "--out" => out = Some(value("--out")?),
            "--obs" => obs = true,
            "--seeds" => {
                let raw = value("--seeds")?;
                seeds = Some(
                    memnet::bench::parse_seed_list(&raw)
                        .map_err(|e| format!("invalid --seeds {raw:?}: {e}"))?,
                );
            }
            "--help" | "-h" => {
                println!("{}", usage());
                return Ok(ExitCode::SUCCESS);
            }
            other => return Err(format!("unknown sweep argument {other:?}\n{}", usage())),
        }
    }
    let mut settings = env::settings();
    settings.obs = obs;
    if let Some(seeds) = seeds {
        settings.seeds = seeds;
    }
    let figure_list = figure_list
        .unwrap_or_else(|| figures::sweep_figures().into_iter().map(String::from).collect());
    let plan = shard::SweepPlan::new(&figure_list, &settings)?;
    let mut matrix = Matrix::new();
    let (text, stats) = shard::run_shard(&plan, shard_arg, &settings, &mut matrix)?;
    match &out {
        Some(path) => std::fs::write(path, &text).map_err(|e| format!("writing {path}: {e}"))?,
        None => print!("{text}"),
    }
    memnet_log!(
        "[sweep {shard_arg}] {} of {} cell(s): {} memoized, {} cache hit(s), {} simulated{}",
        stats.requested,
        plan.len(),
        stats.memoized,
        stats.cache_hits,
        stats.simulated,
        out.as_deref().map(|p| format!(" -> {p}")).unwrap_or_default()
    );
    Ok(ExitCode::SUCCESS)
}

/// `memnet merge [--check] [--out FILE] SHARD_FILE...`: recombine
/// per-shard sweep files into output byte-identical to an unsharded
/// `memnet sweep` run.
///
/// Exit contract: `0` merged cleanly (or, with `--check`, coverage
/// validated without writing output); `1` I/O or usage error; `2`
/// validation failure — mismatched headers, foreign cells, or missing
/// shards/cells, with the offender named on stderr.
fn merge_command(rest: Vec<String>) -> Result<ExitCode, String> {
    use memnet::bench::shard;
    let mut check = false;
    let mut out: Option<String> = None;
    let mut files = Vec::new();
    let mut it = rest.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--out" => out = Some(it.next().ok_or("--out requires a value")?),
            "--help" | "-h" => {
                println!("{}", usage());
                return Ok(ExitCode::SUCCESS);
            }
            other if !other.starts_with('-') => files.push(other.to_owned()),
            other => return Err(format!("unknown merge argument {other:?}\n{}", usage())),
        }
    }
    if files.is_empty() {
        return Err(format!("merge needs at least one shard file\n{}", usage()));
    }
    let mut parsed = Vec::new();
    for path in &files {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        match shard::parse_sweep_file(path, &text) {
            Ok(f) => parsed.push(f),
            Err(e) => {
                eprintln!("error: {e}");
                return Ok(ExitCode::from(2));
            }
        }
    }
    let merged = match shard::merge(&parsed) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            return Ok(ExitCode::from(2));
        }
    };
    // The aggregate counters sum the shards' footers, so `requested`
    // equals the cell total an unsharded run reports.
    memnet_log!(
        "[merge] {} shard(s), {} cell(s); across shards: {} requested, {} memoized, \
         {} cache hit(s), {} simulated",
        merged.shards,
        merged.cells,
        merged.stats.requested,
        merged.stats.memoized,
        merged.stats.cache_hits,
        merged.stats.simulated
    );
    if check {
        memnet_log!("[merge] check ok: coverage complete; no output written");
        return Ok(ExitCode::SUCCESS);
    }
    match &out {
        Some(path) => {
            std::fs::write(path, &merged.text).map_err(|e| format!("writing {path}: {e}"))?;
            memnet_log!("[merge] wrote {path}");
        }
        None => print!("{}", merged.text),
    }
    Ok(ExitCode::SUCCESS)
}

/// `memnet figures [NAME...]`: render the named registry figures, in the
/// order given (every figure, in canonical order, when none is named),
/// each under its section header, then log one line summing what every
/// figure's ensure did.
fn figures_command(rest: Vec<String>) -> Result<(), String> {
    use memnet::bench::{figures, Matrix};
    let mut selected = Vec::new();
    for arg in &rest {
        if arg == "--help" || arg == "-h" {
            println!("{}", usage());
            return Ok(());
        }
        selected.push(figures::figure(arg).ok_or_else(|| {
            let names: Vec<&str> = figures::FIGURES.iter().map(|f| f.name).collect();
            format!("unknown figure {arg:?}; figures are: {}", names.join(", "))
        })?);
    }
    if selected.is_empty() {
        selected = figures::FIGURES.iter().collect();
    }
    let settings = env::settings();
    let mut matrix = Matrix::new();
    for figure in &selected {
        println!("==================== {} ====================", figure.title);
        println!("{}", (figure.render)(&mut matrix, &settings));
    }
    let totals = matrix.totals();
    memnet_log!(
        "[figures] {} figure(s), {} cell(s): {} memoized, {} cache hit(s), {} simulated",
        selected.len(),
        totals.requested,
        totals.memoized,
        totals.cache_hits,
        totals.simulated
    );
    Ok(())
}

/// `memnet trace FILE [--csv OUT]`: validate a JSONL trace and print its
/// summary and per-link residency table.
fn trace_command(rest: Vec<String>) -> ExitCode {
    let mut file: Option<String> = None;
    let mut csv: Option<String> = None;
    let mut it = rest.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--csv" => match it.next() {
                Some(out) => csv = Some(out),
                None => {
                    eprintln!("error: --csv requires a value\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other if file.is_none() && !other.starts_with('-') => file = Some(other.to_owned()),
            other => {
                eprintln!("error: unknown trace argument {other:?}\n{}", usage());
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(file) = file else {
        eprintln!("error: trace needs a FILE\n{}", usage());
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(&file) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error reading {file}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let s = match summary::parse_jsonl(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: invalid trace {file}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{file}: schema v{}, {} / {} / {}, {} links",
        s.version, s.workload, s.policy, s.mechanism, s.n_links
    );
    println!(
        "{} epoch sample(s); {} event(s) seen, {} written{}",
        s.samples.len(),
        s.events_seen,
        s.events_written,
        if s.truncated { " (truncated)" } else { "" }
    );
    let counted: Vec<String> =
        s.events_by_kind.iter().filter(|(_, n)| *n > 0).map(|(k, n)| format!("{k}={n}")).collect();
    if !counted.is_empty() {
        println!("events: {}", counted.join(" "));
    }
    if !s.samples.is_empty() {
        print!("{}", summary::residency_table(&s.samples));
    }
    if let Some(out) = csv {
        if let Err(e) = std::fs::write(&out, summary::epoch_csv(&s.samples)) {
            eprintln!("error writing {out}: {e}");
            return ExitCode::FAILURE;
        }
        memnet_log!("wrote {} epoch row(s) to {out}", s.samples.len());
    }
    ExitCode::SUCCESS
}

/// A subcommand's exit code, or `FAILURE` once its error is printed.
fn exit_code(result: Result<ExitCode, String>) -> ExitCode {
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let mut raw = std::env::args().skip(1).peekable();
    let ok = |()| ExitCode::SUCCESS;
    match raw.peek().map(String::as_str) {
        Some("trace") => return trace_command(raw.skip(1).collect()),
        Some("record") => return exit_code(record_command(raw.skip(1).collect()).map(ok)),
        Some("replay") => return exit_code(replay_command(raw.skip(1).collect())),
        Some("calibrate") => return exit_code(calibrate_command(raw.skip(1).collect()).map(ok)),
        Some("diff-models") => return exit_code(diff_models_command(raw.skip(1).collect())),
        Some("serve") => return exit_code(serve_command(raw.skip(1).collect()).map(ok)),
        Some("submit") => return exit_code(submit_command(raw.skip(1).collect())),
        Some("run-manifest") => return exit_code(run_manifest_command(raw.skip(1).collect())),
        Some("shutdown") => return exit_code(shutdown_command(raw.skip(1).collect()).map(ok)),
        Some("sweep") => return exit_code(sweep_command(raw.skip(1).collect())),
        Some("figures") => return exit_code(figures_command(raw.skip(1).collect()).map(ok)),
        Some("merge") => return exit_code(merge_command(raw.skip(1).collect())),
        _ => {}
    }
    let args = match parse_args(raw).and_then(Args::without_file) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let cfg = match args.spec.clone().build() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    run_and_report(&args, cfg)
}

/// Runs one configuration (single, multichannel or `--compare`) and prints
/// its report. Shared by the main path and `memnet replay`.
fn run_and_report(args: &Args, cfg: SimConfig) -> ExitCode {
    if args.channels > 1 {
        let mut cfg = cfg;
        if cfg.obs.is_active() {
            // Channels clone the config: a shared trace file would be
            // clobbered k times and per-channel rings never aggregate.
            memnet_warn!("[obs] --obs/--trace apply to single-channel runs only; ignoring");
            cfg.obs = ObsConfig::off();
        }
        let r = run_channels(cfg, args.channels, 1);
        if args.json {
            println!("{}", serde_json_lite(&r.total_watts, r.total_accesses_per_us));
        } else {
            println!(
                "{} channels: {:.2} W total, idle I/O {:.1}%, {:.1} acc/us, {:.1} ns mean read",
                args.channels,
                r.total_watts,
                100.0 * r.idle_io_fraction,
                r.total_accesses_per_us,
                r.mean_read_latency_ns
            );
        }
        return ExitCode::SUCCESS;
    }

    if args.compare {
        let mut cfg = cfg;
        if cfg.obs.is_active() {
            memnet_warn!("[obs] --obs/--trace apply to single runs, not --compare; ignoring");
            cfg.obs = ObsConfig::off();
        }
        let mut reports = Vec::new();
        let mut fp = cfg.clone();
        fp.policy = PolicyKind::FullPower;
        fp.mechanism = Mechanism::FullPower;
        reports.push(fp.run());
        if cfg.policy != PolicyKind::FullPower {
            reports.push(cfg.run());
        } else {
            for (p, m) in [
                (PolicyKind::NetworkUnaware, Mechanism::VwlRoo),
                (PolicyKind::NetworkAware, Mechanism::VwlRoo),
            ] {
                let mut c = cfg.clone();
                c.policy = p;
                c.mechanism = m;
                reports.push(c.run());
            }
        }
        print!("{}", report_text::comparison_table(&reports));
        return ExitCode::SUCCESS;
    }

    let faulty = !cfg.faults.is_none();
    let report = cfg.run();
    if args.json {
        match serde_json_report(&report) {
            Ok(s) => println!("{s}"),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        print!("{}", report_text::power_breakdown(&report));
        if faulty {
            print!("{}", report_text::fault_section(&report));
        }
        print!("{}", report_text::obs_section(&report));
        println!("{}", report_text::summary_line(&report));
    }
    ExitCode::SUCCESS
}

/// Minimal JSON for the multichannel summary (avoids a serde_json
/// dependency for two numbers).
fn serde_json_lite(watts: &f64, acc: f64) -> String {
    format!("{{\"total_watts\":{watts},\"accesses_per_us\":{acc}}}")
}

/// Hand-rolled JSON for the scalar fields of a report.
fn serde_json_report(r: &memnet::core::RunReport) -> Result<String, String> {
    Ok(format!(
        "{{\"workload\":\"{}\",\"topology\":\"{}\",\"scale\":\"{}\",\"policy\":\"{}\",\
         \"mechanism\":\"{}\",\"alpha\":{},\"watts\":{:.6},\"watts_per_hmc\":{:.6},\
         \"idle_io_fraction\":{:.6},\"io_fraction\":{:.6},\"channel_utilization\":{:.6},\
         \"link_utilization\":{:.6},\"avg_modules_traversed\":{:.4},\"completed_reads\":{},\
         \"mean_read_latency_ns\":{:.3},\"accesses_per_us\":{:.3},\"violations\":{},\
         \"faults\":{{\"retries\":{},\"retransmitted_flits\":{},\"retransmission_energy\":{:.9},\
         \"wake_timeouts\":{},\"aborted_accesses\":{},\"rerouted_modules\":{},\
         \"unreachable_modules\":{}}}}}",
        r.workload,
        r.topology.label(),
        r.scale,
        r.policy,
        r.mechanism,
        r.alpha,
        r.power.watts(),
        r.power.watts_per_hmc(),
        r.power.idle_io_fraction(),
        r.power.io_fraction(),
        r.channel_utilization,
        r.link_utilization,
        r.avg_modules_traversed,
        r.completed_reads,
        r.mean_read_latency_ns,
        r.accesses_per_us,
        r.violations,
        r.faults.retries,
        r.faults.retransmitted_flits,
        r.faults.retransmission_energy,
        r.faults.wake_timeouts,
        r.faults.aborted_accesses,
        r.faults.rerouted_modules,
        r.faults.unreachable_modules,
    ))
}
