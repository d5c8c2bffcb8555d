//! The `perf` command line: runs the benchmark suite and emits a
//! schema-versioned `BENCH_<git-sha>.json` report; optionally gates
//! against a baseline.
//!
//! ```text
//! perf [--quick] [--out FILE] [--check BASELINE] [--bless FILE]
//!      [--tolerance PCT] [--obs-gate PCT]
//! ```
//!
//! * `--quick` — smaller op counts (~1 s); what CI runs.
//! * `--out FILE` — report destination (default `BENCH_<sha>.json`).
//! * `--check FILE` — compare against a baseline report; exit 1 when any
//!   gated bench's events/sec fell more than the tolerance.
//! * `--bless FILE` — also write the fresh report to FILE (the re-bless
//!   flow for an intentional perf change).
//! * `--tolerance P` — gate threshold in percent (default 20).
//! * `--obs-gate P` — exit 1 when the observability recorder costs more
//!   than P percent events/sec (`end_to_end_obs_on` vs `_off`).

use std::process::ExitCode;

use memnet_simcore::{memnet_log, memnet_warn};

use crate::{find_regressions, run_suite, BenchReport};

struct Args {
    quick: bool,
    out: Option<String>,
    check: Option<String>,
    bless: Option<String>,
    tolerance: f64,
    obs_gate: Option<f64>,
}

fn usage() -> &'static str {
    "usage: perf [--quick] [--out FILE] [--check BASELINE] [--bless FILE] \
     [--tolerance PCT] [--obs-gate PCT]"
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { quick: false, out: None, check: None, bless: None, tolerance: 20.0, obs_gate: None };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--quick" => args.quick = true,
            "--out" => args.out = Some(value("--out")?),
            "--check" => args.check = Some(value("--check")?),
            "--bless" => args.bless = Some(value("--bless")?),
            "--tolerance" => {
                args.tolerance = value("--tolerance")?
                    .parse()
                    .map_err(|_| "--tolerance wants a number (percent)".to_owned())?;
            }
            "--obs-gate" => {
                args.obs_gate = Some(
                    value("--obs-gate")?
                        .parse()
                        .map_err(|_| "--obs-gate wants a number (percent)".to_owned())?,
                );
            }
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?} (try --help)")),
        }
    }
    Ok(args)
}

/// Entry point of the workspace-root `perf` binary
/// (`cargo run --release --bin perf`).
pub fn run() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            memnet_warn!("[perf] {msg}");
            return ExitCode::from(2);
        }
    };

    memnet_log!("[perf] running suite ({} mode)...", if args.quick { "quick" } else { "full" });
    let report = run_suite(args.quick);
    for b in &report.benches {
        let eps = b.events_per_sec.map(|e| format!(", {:.0} events/s", e)).unwrap_or_default();
        memnet_log!(
            "[perf]   {:<24} {:>10} ops  {:>9.1} ms  {:>9.1} ns/op{eps}",
            b.name,
            b.iters,
            b.wall_ms,
            b.per_iter_ns
        );
    }
    let rss = report
        .peak_rss_kb
        .map(|kb| format!("{kb} KiB"))
        .unwrap_or_else(|| "unavailable".to_owned());
    memnet_log!("[perf] peak RSS {rss}, git {}", report.git_sha);

    let out = args.out.clone().unwrap_or_else(|| report.filename());
    if let Err(e) = std::fs::write(&out, report.to_json() + "\n") {
        memnet_warn!("[perf] cannot write {out}: {e}");
        return ExitCode::from(2);
    }
    memnet_log!("[perf] wrote {out}");

    if let Some(path) = &args.bless {
        if let Err(e) = std::fs::write(path, report.to_json() + "\n") {
            memnet_warn!("[perf] cannot write baseline {path}: {e}");
            return ExitCode::from(2);
        }
        memnet_log!("[perf] blessed baseline {path}");
    }

    if let Some(path) = &args.check {
        let baseline = match std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| BenchReport::from_json(&text).map_err(|e| format!("{e:?}")))
        {
            Ok(b) => b,
            Err(e) => {
                memnet_warn!("[perf] cannot load baseline {path}: {e}");
                return ExitCode::from(2);
            }
        };
        match find_regressions(&baseline, &report, args.tolerance / 100.0) {
            Err(e) => {
                memnet_warn!("[perf] {e}");
                return ExitCode::from(2);
            }
            Ok(regs) if regs.is_empty() => {
                memnet_log!(
                    "[perf] gate passed: no bench regressed more than {:.0}% vs {path}",
                    args.tolerance
                );
            }
            Ok(regs) => {
                for r in &regs {
                    memnet_warn!(
                        "[perf] REGRESSION {}: {:.0} events/s vs baseline {:.0} ({:.1}% slower)",
                        r.name,
                        r.current,
                        r.baseline,
                        r.slowdown() * 100.0
                    );
                }
                memnet_warn!(
                    "[perf] gate failed; if this slowdown is intentional, re-bless with \
                     `cargo run --release --bin perf -- --quick --bless {path}`"
                );
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some(gate_pct) = args.obs_gate {
        let eps = |name: &str| {
            report.benches.iter().find(|b| b.name == name).and_then(|b| b.events_per_sec)
        };
        match (eps("end_to_end_obs_off"), eps("end_to_end_obs_on")) {
            (Some(off), Some(on)) if off > 0.0 => {
                let overhead_pct = (1.0 - on / off) * 100.0;
                if overhead_pct > gate_pct {
                    memnet_warn!(
                        "[perf] obs gate failed: recorder costs {overhead_pct:.2}% events/s \
                         ({on:.0} on vs {off:.0} off), limit {gate_pct}%"
                    );
                    return ExitCode::FAILURE;
                }
                memnet_log!(
                    "[perf] obs gate passed: recorder costs {overhead_pct:.2}% events/s \
                     (limit {gate_pct}%)"
                );
            }
            _ => {
                memnet_warn!("[perf] obs gate needs the end_to_end_obs_off/_on bench pair");
                return ExitCode::from(2);
            }
        }
    }

    ExitCode::SUCCESS
}
