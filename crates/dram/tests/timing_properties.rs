//! Property tests: the vault never violates DRAM timing constraints,
//! regardless of the traffic thrown at it.

use std::collections::VecDeque;

use memnet_dram::{DramParams, IssuedOp, Vault, VaultOp};
use memnet_simcore::{SimDuration, SimTime};
use proptest::prelude::*;

/// Drives the vault to completion over an arbitrary op sequence, collecting
/// every issued operation.
fn run_vault(params: &DramParams, ops: Vec<(u64, usize, bool)>) -> Vec<IssuedOp> {
    let mut vault = Vault::new(params, SimTime::ZERO);
    let mut issued = Vec::new();
    let mut now = SimTime::ZERO;
    let mut pending = ops.into_iter().enumerate();
    let mut next = pending.next();

    loop {
        // Feed ops as space allows; arrivals are spaced 2 ns apart.
        while vault.has_space() {
            match next.take() {
                Some((i, (id, bank, is_read))) => {
                    let arrival = SimTime::from_ps(i as u64 * 2_000);
                    let op = if is_read {
                        VaultOp::read(id, bank, arrival)
                    } else {
                        VaultOp::write(id, bank, arrival)
                    };
                    vault.enqueue(op).expect("space was checked");
                    next = pending.next();
                }
                None => break,
            }
        }
        match vault.next_issue_time(now) {
            Some(t) => {
                now = t;
                issued.extend(vault.advance(now));
            }
            None => {
                if next.is_none() {
                    break;
                }
                // Queue drained but more ops remain: jump to next arrival.
                now += SimDuration::from_ns(2);
            }
        }
    }
    issued
}

fn op_strategy(banks: usize) -> impl Strategy<Value = Vec<(u64, usize, bool)>> {
    prop::collection::vec((any::<u64>(), 0..banks, any::<bool>()), 1..60)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn activates_respect_trrd(ops in op_strategy(8)) {
        let p = DramParams::hmc_gen2();
        let issued = run_vault(&p, ops);
        for w in issued.windows(2) {
            prop_assert!(
                w[1].act_start >= w[0].act_start + p.trrd,
                "tRRD violated: {:?} then {:?}", w[0], w[1]
            );
        }
    }

    #[test]
    fn per_bank_row_cycle_is_respected(ops in op_strategy(4)) {
        let p = DramParams::hmc_gen2();
        let issued = run_vault(&p, ops);
        let mut last_per_bank: Vec<Option<&IssuedOp>> = vec![None; p.banks_per_vault];
        for op in &issued {
            if let Some(prev) = last_per_bank[op.op.bank] {
                // Minimum separation: previous precharge must complete.
                let min_ready = if prev.op.is_read {
                    (prev.act_start + p.tras).max(prev.completion) + p.trp
                } else {
                    (prev.act_start + p.tras).max(prev.completion + p.twr) + p.trp
                };
                prop_assert!(
                    op.act_start >= min_ready,
                    "row cycle violated on bank {}", op.op.bank
                );
            }
            last_per_bank[op.op.bank] = Some(op);
        }
    }

    #[test]
    fn bus_bursts_never_overlap(ops in op_strategy(8)) {
        let p = DramParams::hmc_gen2();
        let issued = run_vault(&p, ops);
        let burst = p.line_burst_time();
        for w in issued.windows(2) {
            prop_assert!(
                w[1].completion >= w[0].completion + burst,
                "data bursts overlap on the shared vault bus"
            );
        }
    }

    #[test]
    fn all_ops_complete_exactly_once(ops in op_strategy(8)) {
        let p = DramParams::hmc_gen2();
        let n = ops.len();
        let issued = run_vault(&p, ops);
        prop_assert_eq!(issued.len(), n);
    }

    #[test]
    fn completions_are_monotone(ops in op_strategy(8)) {
        let p = DramParams::hmc_gen2();
        let issued = run_vault(&p, ops);
        for w in issued.windows(2) {
            prop_assert!(w[1].completion > w[0].completion);
        }
    }

    #[test]
    fn ops_issue_reads_first_then_in_arrival_order(
        steps in prop::collection::vec((any::<bool>(), 0..8usize, 0..4u64), 1..200)
    ) {
        // Enqueues interleaved with time steps, against two plain FIFOs:
        // each issued op is the reference's oldest read, else its oldest
        // write, and a full buffer refuses exactly when it holds
        // `vault_buffer_entries` ops.
        let p = DramParams::hmc_gen2();
        let mut vault = Vault::new(&p, SimTime::ZERO);
        let (mut reads, mut writes) = (VecDeque::new(), VecDeque::new());
        let mut issued = Vec::new();
        let mut now = SimTime::ZERO;
        for (id, (is_read, bank, wait)) in steps.into_iter().enumerate() {
            let op = if is_read {
                VaultOp::read(id as u64, bank, now)
            } else {
                VaultOp::write(id as u64, bank, now)
            };
            match vault.enqueue(op) {
                Ok(()) if is_read => reads.push_back(op),
                Ok(()) => writes.push_back(op),
                Err(_) => prop_assert_eq!(reads.len() + writes.len(), p.vault_buffer_entries),
            }
            prop_assert_eq!(vault.occupancy(), reads.len() + writes.len());
            now += SimDuration::from_ns(wait * 10);
            vault.advance_into(now, &mut issued);
            for done in issued.drain(..) {
                prop_assert_eq!(Some(done.op), reads.pop_front().or_else(|| writes.pop_front()));
            }
        }
    }

    #[test]
    fn latency_is_at_least_unloaded_service_time(ops in op_strategy(8)) {
        let p = DramParams::hmc_gen2();
        let issued = run_vault(&p, ops);
        for op in issued {
            prop_assert!(op.latency() >= p.nominal_read_latency());
        }
    }
}
