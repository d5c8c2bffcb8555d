//! `run_long`: one long network-aware VWL+ROO run of `mixB` on the big
//! ternary tree, repeated with the same seed for the whole budget.

use std::time::Instant;

use memnet_core::{Engine, NetworkScale, PolicyKind, SimConfig};
use memnet_net::TopologyKind;
use memnet_obs::ObsConfig;
use memnet_policy::Mechanism;
use memnet_simcore::{AuditLevel, SimDuration};

use crate::host::HostSpeed;
use crate::layers;
use crate::util::{median, peak_rss_mib, report_digest, Tracer};
use crate::{keep_going, Ctx, Outcome, Rep};

/// The workload every `run_long` run simulates.
pub const WORKLOAD: &str = "mixB";

/// Engine constructions timed for `setup_s` before each repetition, so
/// that its median spans the run as the rates' does.
const SETUPS_PER_REP: usize = 10;

/// Simulated microseconds per run: 20 management epochs of 100 µs.
fn eval_us(ctx: &Ctx) -> u64 {
    if ctx.tiny {
        200
    } else {
        2_000
    }
}

/// The `run_long` configuration at `eval_us` simulated microseconds.
pub fn config(ctx: &Ctx, eval_us: u64, audit: AuditLevel, obs: bool) -> SimConfig {
    let mut builder = SimConfig::builder()
        .workload(WORKLOAD)
        .topology(TopologyKind::TernaryTree)
        .scale(NetworkScale::Big)
        .policy(PolicyKind::NetworkAware)
        .mechanism(Mechanism::VwlRoo)
        .eval_period(SimDuration::from_us(eval_us))
        .seed(ctx.seed)
        .audit(audit);
    if obs {
        builder = builder.obs(ObsConfig { enabled: true, ring_capacity: 64, ..ObsConfig::off() });
    }
    builder.build().expect("the run_long configuration is valid")
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new(ctx.trace);
    let eval_us = eval_us(ctx);
    let mut host = HostSpeed::new(1, ctx.tiny);

    // Timed runs, each after its set-ups (configuration plus engine
    // construction); traced runs interleave traced and untraced
    // repetitions.
    let mut setup = Vec::new();
    let mut reps: Vec<Rep> = Vec::new();
    let mut reports = Vec::new();
    let mut peak = None;
    let start = Instant::now();
    while keep_going(start, ctx, reps.len(), if ctx.trace { 4 } else { 3 }) {
        let traced = ctx.trace && reps.len() % 2 == 1;
        tracer.enabled = traced;
        let group = reps.len() as u64;
        for _ in 0..SETUPS_PER_REP {
            let t0 = Instant::now();
            let engine = tracer.span("core.engine_new", group, |_| {
                Engine::new(config(ctx, eval_us, ctx.audit(), false))
            });
            setup.push(t0.elapsed().as_secs_f64());
            drop(engine);
        }
        let t0 = Instant::now();
        let report = tracer.span("run_long.job", group, |t| {
            let engine = t.span("core.engine_new", group, |_| {
                Engine::new(config(ctx, eval_us, ctx.audit(), false))
            });
            t.span("core.run", group, |_| engine.run())
        });
        let secs = t0.elapsed().as_secs_f64();
        out.ops(1);
        if reps.is_empty() {
            peak = peak_rss_mib("self");
        }
        host.sample();
        reps.push(Rep { traced, secs, cells: 1.0, sim_us: eval_us as f64 });
        reports.push(report);
    }
    tracer.enabled = ctx.trace;
    host.finish(&mut out);
    out.set("setup_s", median(&setup));
    out.set("core.engine_new_us", median(&setup) * 1e6);

    // Every repetition simulated the same thing.
    let digests: Vec<u64> = reports.iter().map(report_digest).collect();
    out.digest = digests[0];
    out.check(digests.iter().all(|&d| d == digests[0]), || {
        format!("run_long report digests differ across repetitions: {digests:016x?}")
    });
    let first = &reports[0];
    out.check(first.events_processed > 0 && first.epochs > 0, || {
        format!("run_long processed {} events over {} epochs", first.events_processed, first.epochs)
    });
    out.note("events_per_run", first.events_processed);
    out.note("epochs_per_run", first.epochs);
    out.note("eval_us", eval_us);

    if ctx.trace {
        let events_per_s: Vec<f64> =
            tracer.named("core.run").map(|s| first.events_processed as f64 / s.secs()).collect();
        out.set("core.events_per_s", median(&events_per_s));
        out.set_trace_overhead(&reps);
        layers::check_audit(&mut out, &reports.iter().collect::<Vec<_>>());
        layers::report_counters(&mut tracer, &mut out, &[first]);
        layers::finish_traced(ctx, &mut tracer, &mut out);
    } else {
        out.set_job_metrics(&reps);
        out.set("peak_rss_mb", peak.unwrap_or(0.0));
    }
    Ok(out)
}
