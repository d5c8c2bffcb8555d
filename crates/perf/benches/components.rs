//! Criterion wrappers around the shared perf kernels: one bench per hot
//! component, plus the end-to-end small run. `cargo bench -p memnet-perf`
//! prints interactive numbers; the `perf` binary runs the same kernels to
//! produce the gated `BENCH_<sha>.json` report. Two criterion-only
//! benches ride along: the ISP iteration-cap ablation behind
//! EXPERIMENTS.md §Ablations and the DRAM vault stream.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use memnet_dram::{DramParams, Vault, VaultOp};
use memnet_net::{LinkId, ModuleId, Topology, TopologyKind};
use memnet_perf::kernels;
use memnet_policy::{Mechanism, PolicyConfig, PolicyKind, PowerController};
use memnet_simcore::{SimDuration, SimTime};
use std::hint::black_box;

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("components/event_queue_churn_50k", |b| {
        b.iter(|| black_box(kernels::event_queue_churn(50_000, 11)));
    });
}

fn bench_link_pricing(c: &mut Criterion) {
    c.bench_function("components/link_pricing_20k", |b| {
        b.iter(|| black_box(kernels::link_pricing(20_000)));
    });
}

fn bench_fault_draws(c: &mut Criterion) {
    c.bench_function("components/fault_draws_100k", |b| {
        b.iter(|| black_box(kernels::fault_draws(100_000, 42)));
    });
}

fn bench_policy_epochs(c: &mut Criterion) {
    c.bench_function("components/policy_epochs_200", |b| {
        b.iter(|| black_box(kernels::policy_epochs(200)));
    });
}

fn bench_end_to_end(c: &mut Criterion) {
    c.bench_function("components/end_to_end_50us", |b| {
        b.iter(|| black_box(kernels::end_to_end(50, 7).events_processed));
    });
}

/// Builds a 34-module controller with one epoch of synthetic telemetry.
fn primed_controller(iterations: usize) -> PowerController {
    let topo = std::sync::Arc::new(Topology::build(TopologyKind::TernaryTree, 34));
    let mut cfg = PolicyConfig::new(PolicyKind::NetworkAware, Mechanism::VwlRoo, 0.05);
    cfg.isp_iterations = iterations;
    let mut c = PowerController::new(topo.clone(), cfg, SimDuration::from_ns(30));
    for m in topo.modules() {
        for _ in 0..(200 / (m.0 + 1)) {
            c.on_dram_read(ModuleId(m.0));
        }
    }
    for l in topo.links() {
        for i in 0..(400 / (l.0 + 1)) as u64 {
            let t = SimTime::from_ps(i * 250_000);
            c.on_packet_arrival(l, t, true);
            c.on_packet_departure(l, t, t, t + SimDuration::from_ps(3_200), 5, true);
            c.on_idle_interval(LinkId(l.0), SimDuration::from_ns(200));
        }
    }
    c
}

/// Ablation: cost of the ISP epoch-boundary computation as its
/// iteration cap varies (the paper caps at 3).
fn bench_isp(c: &mut Criterion) {
    let mut group = c.benchmark_group("isp_epoch_end_34_modules");
    for iterations in [1usize, 2, 3, 5] {
        group.bench_with_input(
            BenchmarkId::from_parameter(iterations),
            &iterations,
            |b, &iters| {
                b.iter_batched(
                    || primed_controller(iters),
                    |mut ctrl| {
                        black_box(ctrl.epoch_end(SimTime::from_ps(100_000_000)));
                    },
                    criterion::BatchSize::SmallInput,
                );
            },
        );
    }
    group.finish();
}

/// DRAM vault timing-model throughput.
fn bench_vault_stream(c: &mut Criterion) {
    let params = DramParams::hmc_gen2();
    c.bench_function("vault_stream_512_ops", |b| {
        b.iter(|| {
            let mut vault = Vault::new(&params, SimTime::ZERO);
            let mut now = SimTime::ZERO;
            let mut issued = 0u64;
            for i in 0..512u64 {
                while !vault.has_space() {
                    now = vault.next_issue_time(now).expect("ops queued");
                    issued += vault.advance(now).len() as u64;
                }
                let bank = (i % params.banks_per_vault as u64) as usize;
                let op = if i % 3 == 0 {
                    VaultOp::write(i, bank, now)
                } else {
                    VaultOp::read(i, bank, now)
                };
                vault.enqueue(op).expect("space was checked");
            }
            while vault.occupancy() > 0 {
                now = vault.next_issue_time(now).expect("ops queued");
                issued += vault.advance(now).len() as u64;
            }
            black_box(issued)
        });
    });
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_link_pricing,
    bench_fault_draws,
    bench_policy_epochs,
    bench_end_to_end,
    bench_isp,
    bench_vault_stream
);
criterion_main!(benches);
