//! `membench`: the memnet benchmark.
//!
//! ```text
//! membench --workload NAME --seed N --seconds S --trace 0|1 [--memnet BIN] [--tiny]
//! ```
//!
//! Runs one workload (`run_long`, `sweep_cold`, `sweep_warm`,
//! `serve_mix`) through memnet's public entry points for about `S`
//! seconds, checks its outputs, and prints as its last stdout line one
//! JSON object `{"correct","attempted","failed","metrics"}`. Untraced
//! runs (`--trace 0`) report the end-to-end metrics; traced runs report
//! the per-layer metrics. `serve_mix` drives the `memnet serve` binary
//! named by `--memnet`. End-to-end metrics are normalised to the host's
//! speed during the run (see [`host`]). See `README.md` next to this
//! crate for what every workload and metric means.

mod host;
mod layers;
mod run_long;
mod serve_mix;
mod sweep;
mod util;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use memnet_simcore::AuditLevel;

use crate::util::median;

/// End-to-end metrics and their units, in output order.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("sim_us_per_s", "sim_us/s"),
    ("cells_per_s", "1/s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p95_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics and their units, in output order.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("core.events", "count"),
    ("core.events_per_s", "1/s"),
    ("core.engine_new_us", "us"),
    ("core.report_kb", "KiB"),
    ("simcore.queue_ns", "ns"),
    ("simcore.audit_full_pct", "%"),
    ("workload.injected", "count"),
    ("workload.next_request_ns", "ns"),
    ("dram.completed_reads", "count"),
    ("dram.vault_ns", "ns"),
    ("net.link_wakes", "count"),
    ("net.avg_hops", "count"),
    ("faults.retries", "count"),
    ("policy.epochs", "count"),
    ("policy.monitor_ns", "ns"),
    ("policy.epoch_us", "us"),
    ("power.link_energy_ns", "ns"),
    ("obs.on_pct", "%"),
    ("bench.plan_ms", "ms"),
    ("bench.cache_open_ms", "ms"),
    ("bench.cache_store_ms", "ms"),
    ("bench.render_ms", "ms"),
    ("bench.hit_ratio", "ratio"),
    ("bench.pool_jobs", "count"),
    ("bench.pool_utilization", "ratio"),
    ("bench.cell_ms_p50", "ms"),
    ("bench.cell_ms_p99", "ms"),
    ("serde.decode_mb_s", "MiB/s"),
    ("serde.encode_mb_s", "MiB/s"),
    ("serve.admit_ms_p50", "ms"),
    ("serve.queue_wait_ms_p95", "ms"),
    ("serve.run_ms_p50", "ms"),
    ("serve.payload_kb", "KiB"),
    ("serve.dedup_ratio", "ratio"),
    ("serve.worker_utilization", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["run_long", "sweep_cold", "sweep_warm", "serve_mix"];

/// Everything one invocation was asked to do.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Workload name.
    pub workload: String,
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Traced run: record spans and report per-layer metrics.
    pub trace: bool,
    /// Self-test sizes: tiny windows and plans.
    pub tiny: bool,
    /// The `memnet` binary `serve_mix` launches.
    pub memnet: Option<PathBuf>,
    /// Private scratch directory of this invocation (caches, sweep files).
    pub work: PathBuf,
    /// Where traced runs leave their span files.
    pub out_dir: PathBuf,
    /// Worker threads and client connections: the host's cores, at most 2.
    pub threads: usize,
}

impl Ctx {
    /// Audit level every simulated run of this invocation uses: off when
    /// timing, `Cheap` in traced runs, which must come out audit-clean.
    pub fn audit(&self) -> AuditLevel {
        if self.trace {
            AuditLevel::Cheap
        } else {
            AuditLevel::Off
        }
    }

    /// A fresh, empty directory under the private scratch directory.
    pub fn fresh_dir(&self, tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = self.work.join(format!("{tag}-{}", NEXT.fetch_add(1, Ordering::Relaxed)));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch directory is writable");
        dir
    }
}

/// One timed repetition of a workload's unit of work.
#[derive(Debug, Clone, Copy)]
pub struct Rep {
    /// Whether spans were recorded during it.
    pub traced: bool,
    /// Wall time in seconds.
    pub secs: f64,
    /// (key, seed) cells delivered.
    pub cells: f64,
    /// Simulated microseconds delivered.
    pub sim_us: f64,
}

/// Throughput figures of a set of repetitions: medians of the
/// per-repetition rates.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rates {
    /// Simulated µs per host second.
    pub sim_us_per_s: f64,
    /// Cells per host second.
    pub cells_per_s: f64,
}

impl Rates {
    /// Median rates over `reps`.
    pub fn of<'a>(reps: impl Iterator<Item = &'a Rep> + Clone) -> Rates {
        let sim: Vec<f64> = reps.clone().map(|r| r.sim_us / r.secs).collect();
        let cells: Vec<f64> = reps.map(|r| r.cells / r.secs).collect();
        Rates { sim_us_per_s: median(&sim), cells_per_s: median(&cells) }
    }
}

/// What a workload measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: runs, cells, jobs and checks.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Digest of the simulated outputs.
    pub digest: u64,
    /// Free-form `key=value` facts printed before the result line.
    pub info: Vec<String>,
    /// The host's slowdown during the run, as this workload feels it
    /// ([`host::HostSpeed`]).
    pub slowdown: f64,
}

impl Outcome {
    /// Counts one check; a failing check also records `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Counts `n` operations (runs, cells or jobs) that completed.
    pub fn ops(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Adds a `key=value` fact to the printed summary.
    pub fn note(&mut self, key: &str, value: impl std::fmt::Display) {
        self.info.push(format!("{key}={value}"));
    }

    /// Sets the throughput and latency metrics of untraced repetitions,
    /// where one repetition is one job.
    pub fn set_job_metrics(&mut self, reps: &[Rep]) {
        let untraced: Vec<Rep> = reps.iter().filter(|r| !r.traced).copied().collect();
        let rates = Rates::of(untraced.iter());
        let ms: Vec<f64> = untraced.iter().map(|r| r.secs * 1e3).collect();
        self.set("sim_us_per_s", rates.sim_us_per_s);
        self.set("cells_per_s", rates.cells_per_s);
        self.set("jobs_per_s", median(&untraced.iter().map(|r| 1.0 / r.secs).collect::<Vec<_>>()));
        self.set("job_p50_ms", util::quantile(&ms, 0.5));
        self.set("job_p95_ms", util::quantile(&ms, 0.95));
        self.note_reps(&untraced);
    }

    /// Notes the repetition count and each repetition's seconds.
    pub fn note_reps(&mut self, reps: &[Rep]) {
        self.note("reps", reps.len());
        let secs: Vec<String> = reps.iter().map(|r| format!("{:.3}", r.secs)).collect();
        self.note("rep_s", secs.join(","));
    }

    /// Sets `trace.overhead_pct` from interleaved traced and untraced
    /// repetitions: how much slower the traced ones delivered cells.
    pub fn set_trace_overhead(&mut self, reps: &[Rep]) {
        let plain = Rates::of(reps.iter().filter(|r| !r.traced));
        let traced = Rates::of(reps.iter().filter(|r| r.traced));
        self.note("untraced_cells_per_s", plain.cells_per_s);
        self.note("traced_cells_per_s", traced.cells_per_s);
        if traced.cells_per_s > 0.0 {
            self.set("trace.overhead_pct", (plain.cells_per_s / traced.cells_per_s - 1.0) * 100.0);
        }
    }
}

/// Whether another repetition should start: until the budget is spent,
/// and at least `min` repetitions in any case.
pub fn keep_going(start: std::time::Instant, ctx: &Ctx, done: usize, min: usize) -> bool {
    done < min || start.elapsed().as_secs_f64() < ctx.seconds
}

fn usage() -> &'static str {
    "usage: membench --workload run_long|sweep_cold|sweep_warm|serve_mix --seed N \
     --seconds S --trace 0|1 [--memnet BIN] [--tiny]\n\
     \x20      membench stage --seed N --trace 0|1 --dir CACHE --out FILE [--tiny]\n\
     \x20      membench reference --threads N [--tiny]"
}

/// How an end-to-end metric follows the host's speed: times are divided
/// by the host's slowdown (-1), rates multiplied by it (1), and memory
/// is left alone (0).
fn speed_exponent(name: &str) -> i32 {
    match name {
        "setup_s" | "job_p50_ms" | "job_p95_ms" => -1,
        "sim_us_per_s" | "cells_per_s" | "jobs_per_s" => 1,
        _ => 0,
    }
}

/// Normalises the end-to-end metrics to the host's speed and returns
/// the `membench-raw` line with the values as measured.
fn normalise(outcome: &mut Outcome) -> String {
    let slowdown = outcome.slowdown;
    let mut raw = vec![format!("slowdown={slowdown}")];
    for (name, _) in END_TO_END {
        if let Some(value) = outcome.metrics.get_mut(name) {
            raw.push(format!("{name}={value}"));
            *value *= slowdown.powi(speed_exponent(name));
        }
    }
    format!("membench-raw {}", raw.join(" "))
}

/// `membench reference --threads N [--tiny]`: one host-speed sample,
/// printed as its seconds and each thread's checksum in hex.
fn reference_main(args: &[String]) -> ExitCode {
    let (mut threads, mut tiny) = (0usize, false);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--threads" => threads = it.next().and_then(|v| v.parse().ok()).unwrap_or(0),
            "--tiny" => tiny = true,
            _ => threads = 0,
        }
    }
    if threads == 0 {
        eprintln!("membench reference: bad arguments\n{}", usage());
        return ExitCode::from(2);
    }
    let (secs, sums) = host::reference(threads, tiny);
    let sums: Vec<String> = sums.iter().map(|s| format!("{s:x}")).collect();
    println!("{secs} {}", sums.join(" "));
    ExitCode::SUCCESS
}

fn parse_args(args: &[String]) -> Result<(Ctx, Option<(PathBuf, PathBuf)>), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut memnet = None;
    let mut tiny = false;
    let mut stage_dir = None;
    let mut stage_out = None;
    let mut it = args.iter();
    let staging = args.first().is_some_and(|a| a == "stage");
    if staging {
        it.next();
    }
    while let Some(arg) = it.next() {
        let mut value = || it.next().cloned().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(value()?.parse::<u64>().map_err(|e| format!("bad --seed: {e}"))?)
            }
            "--seconds" => {
                seconds = Some(value()?.parse::<f64>().map_err(|e| format!("bad --seconds: {e}"))?)
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace {other:?} (want 0 or 1)")),
                })
            }
            "--memnet" => memnet = Some(PathBuf::from(value()?)),
            "--tiny" => tiny = true,
            "--dir" => stage_dir = Some(PathBuf::from(value()?)),
            "--out" => stage_out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let seed = seed.ok_or("--seed is required")?;
    let stage = if staging {
        Some((stage_dir.ok_or("stage needs --dir")?, stage_out.ok_or("stage needs --out")?))
    } else {
        None
    };
    let workload =
        if staging { "sweep_warm".to_owned() } else { workload.ok_or("--workload is required")? };
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (want one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let seconds = if staging { 0.0 } else { seconds.ok_or("--seconds is required")? };
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err(format!("bad --seconds {seconds}"));
    }
    let out_dir = PathBuf::from(".membench");
    let ctx = Ctx {
        work: out_dir.join(format!("work-{}", std::process::id())),
        out_dir,
        workload,
        seed,
        seconds,
        trace: trace.unwrap_or(false),
        tiny,
        memnet,
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()).min(2),
    };
    if trace.is_none() {
        return Err("--trace is required".into());
    }
    Ok((ctx, stage))
}

/// Clears every `MEMNET_*` variable and pins the audit level before any
/// memnet code reads the environment, so neither this process nor the
/// daemon it launches picks up ambient settings. Returns the names
/// cleared.
fn pin_environment(audit: AuditLevel) -> Vec<String> {
    let cleared: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("MEMNET_"))
        .collect();
    for k in &cleared {
        std::env::remove_var(k);
    }
    let level = match audit {
        AuditLevel::Off => "off",
        AuditLevel::Cheap => "cheap",
        AuditLevel::Full => "full",
    };
    std::env::set_var("MEMNET_AUDIT", level);
    cleared
}

fn run(ctx: &Ctx) -> Result<Outcome, String> {
    match ctx.workload.as_str() {
        "run_long" => run_long::run(ctx),
        "sweep_cold" => sweep::run(ctx, false),
        "sweep_warm" => sweep::run(ctx, true),
        "serve_mix" => serve_mix::run(ctx),
        other => Err(format!("unknown workload {other}")),
    }
}

fn result_line(
    outcome: &Outcome,
    names: &[(&'static str, &'static str)],
) -> Result<String, String> {
    let mut metrics = Vec::new();
    for &(name, unit) in names {
        let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
        if !value.is_finite() {
            return Err(format!("metric {name} is not a finite number ({value})"));
        }
        metrics.push(format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"));
    }
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(",")
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "reference") {
        return reference_main(&args[1..]);
    }
    let (ctx, stage) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("membench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let cleared = pin_environment(ctx.audit());
    if AuditLevel::from_env() != ctx.audit() {
        eprintln!("membench: the audit level could not be pinned");
        return ExitCode::from(2);
    }
    if let Some((dir, out)) = stage {
        return match sweep::stage(&ctx, &dir, &out) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("membench stage: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if let Err(e) = std::fs::create_dir_all(&ctx.work) {
        eprintln!("membench: cannot create {}: {e}", ctx.work.display());
        return ExitCode::FAILURE;
    }
    let result = run(&ctx);
    let _ = std::fs::remove_dir_all(&ctx.work);
    let mut outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("membench {}: {e}", ctx.workload);
            return ExitCode::FAILURE;
        }
    };
    println!(
        "membench-settings workload={} seed={} seconds={} trace={} tiny={} threads={} nproc={} \
         audit={:?} cleared_env=[{}]",
        ctx.workload,
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace),
        ctx.tiny,
        ctx.threads,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        ctx.audit(),
        cleared.join(",")
    );
    println!("membench-digest {} {:016x}", ctx.workload, outcome.digest);
    println!("membench-info {}", outcome.info.join(" "));
    if !ctx.trace {
        println!("{}", normalise(&mut outcome));
    }
    for failure in &outcome.failures {
        println!("membench-failure {failure}");
    }
    let names: &[(&str, &str)] = if ctx.trace { &PER_LAYER } else { &END_TO_END };
    match result_line(&outcome, names) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("membench {}: {e}", ctx.workload);
            ExitCode::FAILURE
        }
    }
}
