//! Trace audit: trace every packet milestone of a run into an obs JSONL
//! file, then walk one read transaction through the network and split
//! read latency into request path, DRAM access and response path.
//!
//! ```text
//! cargo run --release --example trace_audit [TRACE_FILE]
//! ```
//!
//! The trace lands in TRACE_FILE (default `trace_audit.jsonl` in the
//! system temp directory); `memnet trace TRACE_FILE` summarizes it.

use std::collections::BTreeMap;

use memnet::core::{PolicyKind, SimConfig};
use memnet::net::TopologyKind;
use memnet::obs::summary::{self, PacketEvent};
use memnet::obs::{ObsConfig, PktPoint};
use memnet::policy::Mechanism;
use memnet_simcore::SimDuration;

fn ns(t_ps: u64) -> f64 {
    t_ps as f64 / 1e3
}

fn main() {
    let path = std::env::args().nth(1).unwrap_or_else(|| {
        std::env::temp_dir().join("trace_audit.jsonl").to_string_lossy().into_owned()
    });
    SimConfig::builder()
        .workload("sp.D")
        .topology(TopologyKind::DaisyChain)
        .policy(PolicyKind::NetworkUnaware)
        .mechanism(Mechanism::Roo)
        .eval_period(SimDuration::from_us(300))
        .obs(ObsConfig { trace_path: Some(path.clone()), packets: true, ..ObsConfig::off() })
        .build()
        .expect("valid configuration")
        .run();
    let text = std::fs::read_to_string(&path).expect("the run wrote its trace");
    let trace = summary::parse_jsonl(&text).expect("the run wrote a valid trace");
    println!("captured {} packet milestones in {path}", trace.packets.len());

    // Each transaction's milestones, in time order.
    let mut by_packet: BTreeMap<u64, Vec<&PacketEvent>> = BTreeMap::new();
    for e in &trace.packets {
        by_packet.entry(e.packet).or_default().push(e);
    }
    let retired: Vec<&[&PacketEvent]> = by_packet
        .values()
        .filter(|tx| tx.last().is_some_and(|e| e.point == PktPoint::Retire))
        .map(Vec::as_slice)
        .collect();
    let Some(victim) = retired.last() else {
        println!("no retired reads captured");
        return;
    };

    println!("\ntimeline of transaction #{}:", victim[0].packet);
    let mut prev: Option<u64> = None;
    for e in *victim {
        let delta = prev.map(|p| format!("(+{:.2} ns)", ns(e.t_ps - p))).unwrap_or_default();
        println!("  {:>12.3} ns  {:<24} {delta}", ns(e.t_ps), format!("{:?}", e.point));
        prev = Some(e.t_ps);
    }

    // Aggregate: where do reads spend time on average?
    let mut inject_to_vault = 0.0f64;
    let mut vault_time = 0.0f64;
    let mut vault_to_retire = 0.0f64;
    let mut counted = 0u32;
    for tx in &retired {
        let find = |p: fn(&PktPoint) -> bool| tx.iter().find(|e| p(&e.point));
        let (Some(i), Some(ve), Some(vd), Some(r)) = (
            find(|p| matches!(p, PktPoint::Inject)),
            find(|p| matches!(p, PktPoint::VaultEnqueue(_))),
            find(|p| matches!(p, PktPoint::VaultDone(_))),
            find(|p| matches!(p, PktPoint::Retire)),
        ) else {
            continue;
        };
        inject_to_vault += ns(ve.t_ps - i.t_ps);
        vault_time += ns(vd.t_ps - ve.t_ps);
        vault_to_retire += ns(r.t_ps - vd.t_ps);
        counted += 1;
    }
    if counted > 0 {
        let n = f64::from(counted);
        println!("\naverage read latency decomposition over {counted} transactions:");
        println!("  request path (inject → vault): {:7.2} ns", inject_to_vault / n);
        println!("  DRAM access                  : {:7.2} ns", vault_time / n);
        println!("  response path (vault → CPU)  : {:7.2} ns", vault_to_retire / n);
    }
}
