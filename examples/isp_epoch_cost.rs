//! Host time of one ISP epoch boundary per iteration cap: the cost side
//! of the ISP iteration-cap ablation (`memnet figures ablations`).
//!
//! ```text
//! cargo run --release --example isp_epoch_cost
//! ```
//!
//! The times are host wall-clock, so they vary from run to run and from
//! machine to machine; compare caps within one run.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use memnet::bench::figures::ISP_CAPS;
use memnet::core::PolicyKind;
use memnet::net::{LinkId, ModuleId, Topology, TopologyKind};
use memnet::policy::{Mechanism, PolicyConfig, PowerController};
use memnet_simcore::{SimDuration, SimTime};

/// Timed `epoch_end` calls per cap; the median and quartiles are
/// reported.
const EPOCH_SAMPLES: usize = 101;

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
    println!(
        "== ISP epoch cost (host time per epoch_end, 34-module ternary tree, \
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
