//! Job execution and the standardized result payload.
//!
//! One resolved manifest becomes one job. Executing it (with or without a
//! daemon) yields a [`ResultPayload`]: the full [`RunReport`] plus the
//! stop reason, assertion verdicts, cache provenance and a process exit
//! code following a fixed contract:
//!
//! | code | meaning |
//! |------|---------|
//! | 0    | run matched every assertion (including `expected_exit`) |
//! | 1    | transport / internal error |
//! | 2    | run finished but an assertion failed |
//! | 3    | a limit stopped the run and the manifest expected completion |
//! | 4    | manifest rejected before any simulation started |
//! | 5    | job cancelled |
//!
//! The payload is built from deterministic inputs only, so the daemon's
//! first simulation of a manifest is byte-identical to an offline
//! `memnet run-manifest` of the same document.

use memnet_core::{Engine, RunLimits, RunProgress, RunReport, StopReason};
use memnet_simcore::SimDuration;
use serde::{Deserialize, Serialize};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

use crate::manifest::{Assertions, Manifest, ResolvedJob};

/// Every assertion passed (and the run exited as expected).
pub const EXIT_PASS: i32 = 0;
/// Transport or internal error.
pub const EXIT_ERROR: i32 = 1;
/// The run finished but an assertion failed.
pub const EXIT_ASSERT_FAILED: i32 = 2;
/// A limit stopped the run that the manifest expected to complete.
pub const EXIT_LIMIT_EXCEEDED: i32 = 3;
/// The manifest was rejected before any simulation started.
pub const EXIT_REJECTED: i32 = 4;
/// The job was cancelled.
pub const EXIT_CANCELLED: i32 = 5;

/// Result payload schema name.
pub const RESULT_SCHEMA: &str = "memnet-result";
/// Result payload schema version.
pub const RESULT_VERSION: u64 = 1;

/// One evaluated assertion.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Verdict {
    /// Assertion name (the manifest key).
    pub assertion: String,
    /// Whether it held.
    pub ok: bool,
    /// Observed value, rendered deterministically.
    pub actual: String,
    /// Required bound, rendered deterministically.
    pub want: String,
}

/// Where the report in a payload came from.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheNote {
    /// True when no simulation ran for this submission.
    pub hit: bool,
    /// `simulated`, `coalesced` (shared an in-flight simulation) or
    /// `disk` (served from the persistent result cache).
    pub source: String,
}

impl CacheNote {
    /// The provenance of a freshly simulated report.
    pub fn simulated() -> CacheNote {
        CacheNote { hit: false, source: "simulated".to_owned() }
    }
}

/// The standardized result of one manifest run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResultPayload {
    /// Always [`RESULT_SCHEMA`].
    pub schema: String,
    /// Always [`RESULT_VERSION`].
    pub v: u64,
    /// Bench-cache fingerprint of the run (result identity).
    pub fingerprint: String,
    /// How the engine stopped ([`StopReason::label`]).
    pub stop: String,
    /// Outcome keyword: `pass`, `assert-fail`, `limit-exceeded` or
    /// `cancelled`.
    pub exit: String,
    /// Process exit code per the contract in the module docs.
    pub exit_code: i32,
    /// Assertion verdicts, in manifest-schema order.
    pub assertions: Vec<Verdict>,
    /// Report provenance.
    pub cache: CacheNote,
    /// The full simulation report.
    pub report: RunReport,
}

/// Executes a resolved job's simulation, honoring the manifest limits
/// plus the caller's cancellation flag and progress callback.
pub fn execute(
    job: &ResolvedJob,
    cancel: Option<Arc<AtomicBool>>,
    progress_every: u64,
    progress: Option<Box<dyn FnMut(RunProgress) + Send>>,
) -> (RunReport, StopReason) {
    let engine = Engine::new(job.cfg.clone());
    let lim = &job.manifest.limits;
    let limits = RunLimits {
        wall_time: lim.wall_time_ms.map(Duration::from_millis),
        max_events: lim.max_events,
        max_sim_time: lim.max_sim_time_us.map(SimDuration::from_us),
        cancel,
        progress_every: if progress.is_some() { progress_every } else { 0 },
        progress,
    };
    let run = engine.run_limited(limits);
    (run.report, run.stop)
}

/// Evaluates the manifest assertions against a finished report and folds
/// everything into the standardized payload.
pub fn finish(
    fingerprint: &str,
    assertions: &Assertions,
    report: RunReport,
    stop: StopReason,
    cache: CacheNote,
) -> ResultPayload {
    let (exit, exit_code, verdicts) = if stop == StopReason::Cancelled {
        ("cancelled", EXIT_CANCELLED, Vec::new())
    } else {
        let verdicts = evaluate(assertions, &report, stop);
        if verdicts.iter().all(|v| v.ok) {
            ("pass", EXIT_PASS, verdicts)
        } else if stop == StopReason::Completed {
            ("assert-fail", EXIT_ASSERT_FAILED, verdicts)
        } else {
            // The run was truncated by a limit the manifest did not
            // expect — the dominant failure is the limit, not whatever
            // metric assertions the partial report happens to violate.
            match verdicts.iter().find(|v| v.assertion == "expected_exit") {
                Some(v) if !v.ok => ("limit-exceeded", EXIT_LIMIT_EXCEEDED, verdicts),
                _ => ("assert-fail", EXIT_ASSERT_FAILED, verdicts),
            }
        }
    };
    ResultPayload {
        schema: RESULT_SCHEMA.to_owned(),
        v: RESULT_VERSION,
        fingerprint: fingerprint.to_owned(),
        stop: stop.label().to_owned(),
        exit: exit.to_owned(),
        exit_code,
        assertions: verdicts,
        cache,
        report,
    }
}

fn evaluate(assertions: &Assertions, report: &RunReport, stop: StopReason) -> Vec<Verdict> {
    let mut out = Vec::new();
    out.push(Verdict {
        assertion: "expected_exit".to_owned(),
        ok: stop.exit_kind() == assertions.expected_exit,
        actual: stop.exit_kind().to_owned(),
        want: assertions.expected_exit.clone(),
    });
    if let Some(bound) = assertions.max_total_energy_j {
        let actual = report.power.energy.total();
        out.push(Verdict {
            assertion: "max_total_energy_j".to_owned(),
            ok: actual <= bound,
            actual: format!("{actual:.6}"),
            want: format!("<= {bound}"),
        });
    }
    if let Some(bound) = assertions.max_avg_latency_us {
        let actual = report.mean_read_latency_ns / 1_000.0;
        out.push(Verdict {
            assertion: "max_avg_latency_us".to_owned(),
            ok: actual <= bound,
            actual: format!("{actual:.6}"),
            want: format!("<= {bound}"),
        });
    }
    if let Some(bound) = assertions.min_completed_reads {
        let actual = report.completed_reads;
        out.push(Verdict {
            assertion: "min_completed_reads".to_owned(),
            ok: actual >= bound,
            actual: actual.to_string(),
            want: format!(">= {bound}"),
        });
    }
    if let Some(bound) = assertions.max_violations {
        let actual = report.violations;
        out.push(Verdict {
            assertion: "max_violations".to_owned(),
            ok: actual <= bound,
            actual: actual.to_string(),
            want: format!("<= {bound}"),
        });
    }
    out
}

/// Runs one manifest offline: resolve, simulate (no cancellation, no
/// progress), assert. This is `memnet run-manifest`'s engine, and — by
/// construction — byte-identical to what a daemon returns the first time
/// it simulates the same document.
pub fn run_manifest(manifest: &Manifest) -> Result<ResultPayload, crate::ManifestError> {
    let job = manifest.resolve()?;
    let (report, stop) = execute(&job, None, 0, None);
    Ok(finish(&job.fingerprint, &job.manifest.assertions, report, stop, CacheNote::simulated()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_manifest(extra: &str) -> Manifest {
        let text = format!(
            "{{\"schema\":\"memnet-manifest\",\"v\":1,\
             \"run\":{{\"workload\":\"mixD\",\"eval_us\":50,\"seed\":7}}{extra}}}"
        );
        Manifest::parse(&text).expect("test manifest parses")
    }

    #[test]
    fn passing_run_exits_zero_with_all_verdicts_ok() {
        let payload = run_manifest(&quick_manifest(
            ",\"assertions\":{\"min_completed_reads\":1,\"max_violations\":1000000}",
        ))
        .unwrap();
        assert_eq!(payload.exit, "pass");
        assert_eq!(payload.exit_code, EXIT_PASS);
        assert_eq!(payload.stop, "completed");
        assert_eq!(payload.assertions.len(), 3);
        assert!(payload.assertions.iter().all(|v| v.ok));
        assert!(!payload.cache.hit);
        assert_eq!(payload.cache.source, "simulated");
    }

    #[test]
    fn failing_assertion_exits_two_and_names_the_bound() {
        let payload =
            run_manifest(&quick_manifest(",\"assertions\":{\"max_total_energy_j\":0.0}")).unwrap();
        assert_eq!(payload.exit, "assert-fail");
        assert_eq!(payload.exit_code, EXIT_ASSERT_FAILED);
        let bad = payload.assertions.iter().find(|v| !v.ok).unwrap();
        assert_eq!(bad.assertion, "max_total_energy_j");
        assert_eq!(bad.want, "<= 0");
    }

    #[test]
    fn unexpected_limit_exits_three_expected_limit_exits_zero() {
        let hit = run_manifest(&quick_manifest(",\"limits\":{\"max_events\":500}")).unwrap();
        assert_eq!(hit.exit, "limit-exceeded");
        assert_eq!(hit.exit_code, EXIT_LIMIT_EXCEEDED);
        assert_eq!(hit.stop, "max-events");
        assert_eq!(hit.report.events_processed, 500);

        let expected = run_manifest(&quick_manifest(
            ",\"limits\":{\"max_events\":500},\
             \"assertions\":{\"expected_exit\":\"limit_exceeded\"}",
        ))
        .unwrap();
        assert_eq!(expected.exit, "pass");
        assert_eq!(expected.exit_code, EXIT_PASS);
    }

    #[test]
    fn offline_run_is_deterministic_to_the_byte() {
        let m = quick_manifest("");
        let a = serde::json::to_string(&run_manifest(&m).unwrap());
        let b = serde::json::to_string(&run_manifest(&m).unwrap());
        assert_eq!(a, b);
    }
}
