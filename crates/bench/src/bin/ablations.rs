//! Ablations of the design choices DESIGN.md calls out: ISP iteration
//! cap, epoch length, response-link wakeup chaining, and the leftover-AMS
//! rescue pool, plus the host-time cost of one ISP epoch per iteration cap.
//!
//! Usage: `cargo run --release -p memnet-bench --bin ablations`. Reads
//! `MEMNET_EVAL_US` through [`Settings::from_env`], like `memnet
//! figures`: 1000 µs by default, and a malformed or zero window warns
//! and falls back to it.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use memnet_bench::Settings;
use memnet_core::{run_pair, NetworkScale, PolicyKind, SimConfig, SimConfigBuilder};
use memnet_net::{LinkId, ModuleId, Topology, TopologyKind};
use memnet_policy::{Mechanism, PolicyConfig, PowerController};
use memnet_simcore::{SimDuration, SimTime};

/// The ISP iteration caps both ISP sections sweep (the paper caps at 3).
const ISP_CAPS: [usize; 4] = [1, 2, 3, 5];

/// Timed `epoch_end` calls per cap; the median and quartiles are
/// reported.
const EPOCH_SAMPLES: usize = 101;

fn base(eval_period: SimDuration) -> SimConfigBuilder {
    SimConfig::builder()
        .workload("cg.D")
        .topology(TopologyKind::Star)
        .scale(NetworkScale::Big)
        .policy(PolicyKind::NetworkAware)
        .mechanism(Mechanism::VwlRoo)
        .alpha(0.05)
        .eval_period(eval_period)
}

fn report(label: &str, cfg: SimConfigBuilder) {
    let (managed, baseline) = run_pair(cfg.build().expect("ablation configs are valid"));
    println!(
        "{label:<28} power {:6.2} W  saved {:5.1}%  degradation {:5.2}%  violations {:4}",
        managed.power.watts(),
        100.0 * managed.power_reduction_vs(&baseline),
        100.0 * managed.degradation_vs(&baseline),
        managed.violations,
    );
}

/// A network-aware VWL+ROO controller on a 34-module ternary tree,
/// primed with one epoch of synthetic telemetry: DRAM reads skewed
/// towards the root, and packets and idle intervals on every link.
fn primed_controller(iterations: usize) -> PowerController {
    let topo = Arc::new(Topology::build(TopologyKind::TernaryTree, 34));
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

/// Host time of one epoch boundary on a freshly primed controller, as
/// (first quartile, median, third quartile) over [`EPOCH_SAMPLES`]
/// calls; priming and teardown stay outside the timed region.
fn isp_epoch_cost(iterations: usize) -> [Duration; 3] {
    let mut samples: Vec<Duration> = (0..EPOCH_SAMPLES)
        .map(|_| {
            let mut ctrl = primed_controller(iterations);
            let start = Instant::now();
            black_box(ctrl.epoch_end(SimTime::from_ps(100_000_000)));
            start.elapsed()
        })
        .collect();
    samples.sort_unstable();
    [1, 2, 3].map(|q| samples[q * (EPOCH_SAMPLES - 1) / 4])
}

fn main() {
    let eval_period = Settings::from_env().eval_period;

    println!("== ablation: ISP iteration cap (paper: 3) ==");
    for iters in ISP_CAPS {
        report(&format!("isp_iterations={iters}"), base(eval_period).isp_iterations(iters));
    }

    println!("\n== ablation: epoch length (paper: 100 us) ==");
    for epoch_us in [25u64, 50, 100, 200] {
        report(
            &format!("epoch={epoch_us}us"),
            base(eval_period).epoch(SimDuration::from_us(epoch_us)),
        );
    }

    println!("\n== ablation: response-link wakeup chaining (SVI-B) ==");
    for on in [true, false] {
        report(
            &format!("wake_chaining={on}"),
            base(eval_period).mechanism(Mechanism::Roo).wake_chaining(on),
        );
    }

    println!("\n== ablation: leftover-AMS rescue pool (SVI-A3) ==");
    for on in [true, false] {
        report(&format!("rescue_pool={on}"), base(eval_period).rescue_pool(on));
    }

    println!(
        "\n== ISP epoch cost (host time per epoch_end, 34-module ternary tree, \
         median and IQR of {EPOCH_SAMPLES}) =="
    );
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    for iters in ISP_CAPS {
        let [q1, median, q3] = isp_epoch_cost(iters);
        println!(
            "isp_iterations={iters:<13} {:8.1} us  (IQR {:.1}-{:.1})",
            us(median),
            us(q1),
            us(q3)
        );
    }
}
