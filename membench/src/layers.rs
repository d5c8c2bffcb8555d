//! Per-layer measurements of traced runs: counters read from reports,
//! layer kernels timed through each crate's public API, and the obs and
//! audit differentials on the `run_long` configuration.

use std::sync::Arc;
use std::time::Instant;

use memnet_core::{Engine, RunReport};
use memnet_dram::{DramParams, Vault, VaultOp};
use memnet_net::mech::N_BW_MODES;
use memnet_net::{LinkId, Topology};
use memnet_policy::PowerController;
use memnet_power::EnergyBackendKind;
use memnet_simcore::{AuditLevel, EventQueue, SimDuration, SimTime, SplitMix64};
use memnet_workload::{catalog, RequestGenerator};
use serde::json;

use crate::run_long;
use crate::util::{median, Tracer};
use crate::{Ctx, Outcome};

/// Sets the report-derived counters over `reports`, and the report size
/// and encode throughput from serializing each of them once.
pub fn report_counters(tracer: &mut Tracer, out: &mut Outcome, reports: &[&RunReport]) {
    let sum = |f: &dyn Fn(&RunReport) -> u64| reports.iter().map(|r| f(r)).sum::<u64>() as f64;
    out.set("core.events", sum(&|r| r.events_processed));
    out.set("workload.injected", sum(&|r| r.injected_accesses));
    out.set("dram.completed_reads", sum(&|r| r.completed_reads));
    out.set("net.link_wakes", sum(&|r| r.links.iter().map(|l| l.wake_count).sum()));
    out.set("faults.retries", sum(&|r| r.faults.retries));
    out.set("policy.epochs", sum(&|r| r.epochs));
    let hops: Vec<f64> = reports.iter().map(|r| r.avg_modules_traversed).collect();
    out.set("net.avg_hops", hops.iter().sum::<f64>() / hops.len().max(1) as f64);
    let start = Instant::now();
    let bytes: usize = tracer.span("serde.encode_reports", 0, |_| {
        reports.iter().map(|r| json::to_string(*r).len()).sum()
    });
    let secs = start.elapsed().as_secs_f64();
    out.set("core.report_kb", bytes as f64 / reports.len().max(1) as f64 / 1024.0);
    if secs > 0.0 {
        out.set("serde.encode_mb_s", bytes as f64 / secs / (1024.0 * 1024.0));
    }
}

/// Checks that every report of a traced run came out audit-clean.
pub fn check_audit(out: &mut Outcome, reports: &[&RunReport]) {
    let dirty = reports.iter().filter(|r| !r.audit.is_clean()).count();
    let unaudited = reports.iter().filter(|r| r.audit.level != AuditLevel::Cheap).count();
    out.check(dirty == 0, || format!("{dirty} report(s) carry audit violations"));
    out.check(unaudited == 0, || format!("{unaudited} report(s) were not audited at Cheap"));
}

/// Median per-operation time in nanoseconds of `batches` runs of `f`,
/// each performing `ops` operations.
fn per_op_ns(tracer: &mut Tracer, name: &'static str, ops: u64, mut f: impl FnMut() -> u64) -> f64 {
    let mut sink = 0u64;
    let times: Vec<f64> = (0..5)
        .map(|batch| {
            let start = Instant::now();
            tracer.span(name, batch, |_| sink = sink.wrapping_add(std::hint::black_box(f())));
            start.elapsed().as_secs_f64() * 1e9 / ops as f64
        })
        .collect();
    std::hint::black_box(sink);
    median(&times)
}

/// Times the layer kernels: each crate's innermost public operation,
/// sized like the `run_long` network.
pub fn kernels(ctx: &Ctx, tracer: &mut Tracer, out: &mut Outcome) {
    let scale = if ctx.tiny { 100 } else { 1 };
    let seed = ctx.seed;

    // simcore: the engine pops one event and schedules about one more per
    // event; 64 pending events is the depth the simulator runs at.
    let n = 2_000_000 / scale;
    let ns = per_op_ns(tracer, "kernel.queue", n, || {
        let mut rng = SplitMix64::new(seed);
        let mut q = EventQueue::with_capacity(4096);
        for i in 0..64 {
            q.push(SimTime::from_ps(rng.next_below(1_000_000)), i);
        }
        let mut sum = 0u64;
        for i in 0..n {
            let (t, v) = q.pop_at_or_before(SimTime::MAX).expect("queue stays non-empty");
            sum = sum.wrapping_add(v);
            q.push(t + SimDuration::from_ps(rng.next_below(2_000_000)), i);
        }
        sum
    });
    out.set("simcore.queue_ns", ns);

    // workload: the synthetic request generator behind every run.
    let n = 2_000_000 / scale;
    let spec = catalog::by_name(run_long::WORKLOAD).expect("catalog workload").clone();
    let ns = per_op_ns(tracer, "kernel.next_request", n, || {
        let mut g = RequestGenerator::new(spec.clone(), SplitMix64::new(seed));
        (0..n).map(|_| g.next_request().line_addr).fold(0, u64::wrapping_add)
    });
    out.set("workload.next_request_ns", ns);

    // dram: one vault fed back to back, every access enqueued and issued.
    let n = 1_000_000 / scale;
    let params = DramParams::hmc_gen2();
    let ns = per_op_ns(tracer, "kernel.vault", n, || {
        let mut rng = SplitMix64::new(seed);
        let mut vault = Vault::new(&params, SimTime::ZERO);
        let mut issued = Vec::with_capacity(64);
        let mut now = SimTime::ZERO;
        let mut count = 0u64;
        for id in 0..n {
            let bank = rng.next_below(params.banks_per_vault as u64) as usize;
            let op = if id % 3 == 2 {
                VaultOp::write(id, bank, now)
            } else {
                VaultOp::read(id, bank, now)
            };
            while vault.enqueue(op).is_err() {
                now = vault.next_issue_time(now).expect("a full vault has work");
                vault.advance_into(now, &mut issued);
                count += issued.len() as u64;
                issued.clear();
            }
            now += SimDuration::from_ps(2_000);
            vault.advance_into(now, &mut issued);
            count += issued.len() as u64;
            issued.clear();
        }
        count
    });
    out.set("dram.vault_ns", ns);

    // policy: per-packet monitors and epoch ends on the run_long tree.
    let cfg = run_long::config(ctx, 100, AuditLevel::Off, false);
    let topo = Arc::new(Topology::build(cfg.topology, cfg.n_hmcs()));
    let n_links = topo.n_links() as u64;
    let controller = || {
        PowerController::new(
            Arc::clone(&topo),
            cfg.policy_config(),
            cfg.dram.nominal_read_latency(),
        )
    };
    let flit = SimDuration::from_ps(640);
    let n = 1_000_000 / scale;
    let mut pc = controller();
    let mut now = SimTime::ZERO;
    let ns = per_op_ns(tracer, "kernel.monitor", n, || {
        for p in 0..n {
            let link = LinkId((p % n_links) as usize);
            let start = now + flit;
            pc.on_packet_arrival(link, now, p % 2 == 0);
            pc.on_packet_departure(link, now, start, start + flit * 5, 5, p % 2 == 0);
            now += flit;
        }
        pc.epochs_completed()
    });
    out.set("policy.monitor_ns", ns);

    let epochs = 2_000 / scale;
    let mut pc = controller();
    let ns = per_op_ns(tracer, "kernel.epoch", epochs, || {
        let mut decisions = 0;
        for _ in 0..epochs {
            for p in 0..64 {
                let link = LinkId((p % n_links) as usize);
                let at = now + flit * (p * 7);
                pc.on_packet_arrival(link, at, p % 2 == 0);
                pc.on_packet_departure(link, at, at + flit, at + flit * 6, 5, p % 2 == 0);
            }
            now += SimDuration::from_us(100);
            decisions += pc.epoch_end(now).len() as u64;
        }
        decisions
    });
    out.set("policy.epoch_us", ns / 1e3);

    // power: pricing one link's residency snapshot.
    let n = 2_000_000 / scale;
    let backend = EnergyBackendKind::Analytical.build();
    let snapshot: Vec<SimDuration> =
        (0..2 + 3 * N_BW_MODES as u64).map(|i| SimDuration::from_ns((i + 1) * 10)).collect();
    let ns = per_op_ns(tracer, "kernel.link_energy", n, || {
        let mut acc = 0.0;
        for _ in 0..n {
            acc += backend.link_energy(std::hint::black_box(&snapshot)).io_total();
        }
        acc as u64
    });
    out.set("power.link_energy_ns", ns);

    // core: building the engine for the run_long configuration, unless the
    // workload already timed its own constructions.
    if !out.metrics.contains_key("core.engine_new_us") {
        let us: Vec<f64> = (0..21)
            .map(|i| {
                let cfg = cfg.clone();
                let start = Instant::now();
                let engine = tracer.span("core.engine_new", i, |_| Engine::new(cfg));
                let us = start.elapsed().as_secs_f64() * 1e6;
                drop(engine);
                us
            })
            .collect();
        out.set("core.engine_new_us", median(&us));
    }
}

/// Runs the `run_long` configuration with and without a feature in
/// interleaved pairs and returns the median extra host time in percent.
/// The two runs of a pair must process identical events.
fn differential(
    ctx: &Ctx,
    tracer: &mut Tracer,
    out: &mut Outcome,
    name: &'static str,
    base: (AuditLevel, bool),
    with: (AuditLevel, bool),
) -> f64 {
    let eval_us = if ctx.tiny { 20 } else { 500 };
    let mut pcts = Vec::new();
    for pair in 0..5 {
        let mut time = |(audit, obs): (AuditLevel, bool)| {
            let cfg = run_long::config(ctx, eval_us, audit, obs);
            let start = Instant::now();
            let report = tracer.span(name, pair, |_| cfg.run());
            (start.elapsed().as_secs_f64(), report)
        };
        // Alternate which side runs first, so a drifting host favours
        // neither.
        let ((t_base, r_base), (t_with, r_with)) = if pair % 2 == 0 {
            let b = time(base);
            (b, time(with))
        } else {
            let w = time(with);
            (time(base), w)
        };
        out.ops(2);
        out.check(r_base.events_processed == r_with.events_processed, || {
            format!("{name}: the feature changed the event count")
        });
        pcts.push((t_with / t_base - 1.0) * 100.0);
    }
    median(&pcts)
}

/// Measures the obs-on and audit-full costs on the `run_long`
/// configuration. Neither is on in timed runs; these are their honest
/// prices.
pub fn differentials(ctx: &Ctx, tracer: &mut Tracer, out: &mut Outcome) {
    let pct = differential(
        ctx,
        tracer,
        out,
        "diff.obs",
        (AuditLevel::Off, false),
        (AuditLevel::Off, true),
    );
    out.set("obs.on_pct", pct);
    let pct = differential(
        ctx,
        tracer,
        out,
        "diff.audit_full",
        (AuditLevel::Off, false),
        (AuditLevel::Full, false),
    );
    out.set("simcore.audit_full_pct", pct);
}

/// Writes a traced run's spans next to the other benchmark outputs.
pub fn write_spans(ctx: &Ctx, tracer: &Tracer, out: &mut Outcome) {
    let path = ctx.out_dir.join(format!("spans-{}-{}.jsonl", ctx.workload, ctx.seed));
    match tracer.write_jsonl(&path) {
        Ok(()) => out.note("spans", path.display()),
        Err(e) => out.check(false, || format!("cannot write {}: {e}", path.display())),
    }
    out.note("span_count", tracer.len());
}

/// The traced-run tail every workload shares: kernels, differentials and
/// the span file.
pub fn finish_traced(ctx: &Ctx, tracer: &mut Tracer, out: &mut Outcome) {
    kernels(ctx, tracer, out);
    differentials(ctx, tracer, out);
    write_spans(ctx, tracer, out);
}
