//! Event-driven vault model: bounded command queue, read priority,
//! per-bank close-page timing, shared data bus.
//!
//! The vault is passive: the simulation engine calls [`Vault::advance`] when
//! simulated time reaches the next possible issue instant (obtained from
//! [`Vault::next_issue_time`]), and the vault returns every operation it
//! issued together with its completion time.

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

use memnet_simcore::{SimDuration, SimTime};

use crate::params::DramParams;

/// A memory operation submitted to a vault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VaultOp {
    /// Caller-chosen identifier carried through to the completion.
    pub id: u64,
    /// Target bank within the vault.
    pub bank: usize,
    /// True for reads, false for writes.
    pub is_read: bool,
    /// When the operation entered the vault queue.
    pub arrival: SimTime,
}

impl VaultOp {
    /// Convenience constructor for a read.
    pub fn read(id: u64, bank: usize, arrival: SimTime) -> Self {
        VaultOp { id, bank, is_read: true, arrival }
    }

    /// Convenience constructor for a write.
    pub fn write(id: u64, bank: usize, arrival: SimTime) -> Self {
        VaultOp { id, bank, is_read: false, arrival }
    }
}

/// An operation the vault has issued, with its resolved timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IssuedOp {
    /// The original operation.
    pub op: VaultOp,
    /// When the activate command was issued.
    pub act_start: SimTime,
    /// When the operation's data burst finishes (read data available /
    /// write data absorbed).
    pub completion: SimTime,
}

impl IssuedOp {
    /// Queueing + service latency experienced by this operation.
    pub fn latency(&self) -> SimDuration {
        self.completion - self.op.arrival
    }
}

/// Error returned when a vault's command buffer is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VaultFull;

impl fmt::Display for VaultFull {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("vault command buffer is full")
    }
}

impl Error for VaultFull {}

/// One HMC vault: command queue, banks, and TSV data bus.
///
/// # Examples
///
/// ```
/// use memnet_dram::{DramParams, Vault, VaultOp};
/// use memnet_simcore::SimTime;
///
/// let p = DramParams::hmc_gen2();
/// let mut v = Vault::new(&p, SimTime::ZERO);
/// v.enqueue(VaultOp::write(0, 0, SimTime::ZERO))?;
/// v.enqueue(VaultOp::read(1, 1, SimTime::ZERO))?;
/// let issued = v.advance(SimTime::ZERO);
/// // The read issues first even though the write arrived first.
/// assert!(issued[0].op.is_read);
/// # Ok::<(), memnet_dram::VaultFull>(())
/// ```
#[derive(Debug, Clone)]
pub struct Vault {
    tcl: SimDuration,
    trcd: SimDuration,
    tras: SimDuration,
    trp: SimDuration,
    trrd: SimDuration,
    twr: SimDuration,
    burst: SimDuration,
    buffer_entries: usize,

    /// Per-bank earliest next-activate time (close page: precharge done).
    bank_ready: Vec<SimTime>,
    /// Earliest next activate anywhere in the vault (tRRD window).
    next_act_allowed: SimTime,
    /// Data bus free time.
    bus_free: SimTime,

    reads: VecDeque<VaultOp>,
    writes: VecDeque<VaultOp>,

    reads_issued: u64,
    writes_issued: u64,
    read_latency_total: SimDuration,
}

impl Vault {
    /// Creates an idle vault at time `start`. `params` must pass
    /// [`DramParams::validate`]; the simulator's engine checks that once
    /// per run rather than once per vault.
    pub fn new(params: &DramParams, start: SimTime) -> Self {
        Vault {
            tcl: params.tcl,
            trcd: params.trcd,
            tras: params.tras,
            trp: params.trp,
            trrd: params.trrd,
            twr: params.twr,
            burst: params.line_burst_time(),
            buffer_entries: params.vault_buffer_entries,
            bank_ready: vec![start; params.banks_per_vault],
            next_act_allowed: start,
            bus_free: start,
            reads: VecDeque::new(),
            writes: VecDeque::new(),
            reads_issued: 0,
            writes_issued: 0,
            read_latency_total: SimDuration::ZERO,
        }
    }

    /// Number of queued (not yet issued) operations.
    pub fn occupancy(&self) -> usize {
        self.reads.len() + self.writes.len()
    }

    /// True if another operation can be enqueued.
    pub fn has_space(&self) -> bool {
        self.occupancy() < self.buffer_entries
    }

    /// Adds an operation to the command queue.
    ///
    /// # Errors
    ///
    /// Returns [`VaultFull`] if the buffer is at capacity.
    ///
    /// # Panics
    ///
    /// Panics if `op.bank` is out of range.
    pub fn enqueue(&mut self, op: VaultOp) -> Result<(), VaultFull> {
        assert!(op.bank < self.bank_ready.len(), "bank {} out of range", op.bank);
        if !self.has_space() {
            return Err(VaultFull);
        }
        if op.is_read {
            self.reads.push_back(op);
        } else {
            self.writes.push_back(op);
        }
        Ok(())
    }

    /// The next operation the scheduler would pick (reads before writes).
    fn head(&self) -> Option<&VaultOp> {
        self.reads.front().or_else(|| self.writes.front())
    }

    /// Earliest time the head operation's activate could issue, given bank,
    /// tRRD and arrival constraints. `None` when the queue is empty.
    pub fn next_issue_time(&self, now: SimTime) -> Option<SimTime> {
        self.head()
            .map(|op| self.bank_ready[op.bank].max(self.next_act_allowed).max(op.arrival).max(now))
    }

    /// Issues every operation whose activate can start at or before `now`,
    /// returning them with resolved completion times (ascending).
    ///
    /// Allocates a fresh `Vec` per call; the engine's hot loop uses
    /// [`Vault::advance_into`] with a reused scratch buffer instead.
    pub fn advance(&mut self, now: SimTime) -> Vec<IssuedOp> {
        let mut issued = Vec::new();
        self.advance_into(now, &mut issued);
        issued
    }

    /// Allocation-free form of [`Vault::advance`]: appends every issued
    /// operation to `issued` (completion times ascending) instead of
    /// returning a new vector.
    pub fn advance_into(&mut self, now: SimTime, issued: &mut Vec<IssuedOp>) {
        while let Some(op) = self.head().copied() {
            let act_start = self.bank_ready[op.bank].max(self.next_act_allowed).max(op.arrival);
            if act_start > now {
                break;
            }
            // Dequeue from the appropriate priority class.
            if op.is_read {
                self.reads.pop_front();
            } else {
                self.writes.pop_front();
            }

            // Close-page sequence: ACT, column access, burst, auto-precharge.
            let column_ready = act_start + self.trcd + self.tcl;
            let burst_start = column_ready.max(self.bus_free);
            let burst_end = burst_start + self.burst;
            self.bus_free = burst_end;
            self.next_act_allowed = act_start + self.trrd;

            // Precharge may begin only after tRAS and (for writes) the write
            // recovery window following the last data.
            let precharge_start = if op.is_read {
                (act_start + self.tras).max(burst_end)
            } else {
                (act_start + self.tras).max(burst_end + self.twr)
            };
            self.bank_ready[op.bank] = precharge_start + self.trp;

            if op.is_read {
                self.reads_issued += 1;
                self.read_latency_total += burst_end - op.arrival;
            } else {
                self.writes_issued += 1;
            }
            issued.push(IssuedOp { op, act_start, completion: burst_end });
        }
    }

    /// Reads issued so far.
    pub fn reads_issued(&self) -> u64 {
        self.reads_issued
    }

    /// Writes issued so far.
    pub fn writes_issued(&self) -> u64 {
        self.writes_issued
    }

    /// Sum of (completion − arrival) over all issued reads.
    pub fn read_latency_total(&self) -> SimDuration {
        self.read_latency_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> DramParams {
        DramParams::hmc_gen2()
    }

    #[test]
    fn unloaded_read_takes_nominal_latency() {
        let p = params();
        let mut v = Vault::new(&p, SimTime::ZERO);
        v.enqueue(VaultOp::read(1, 0, SimTime::ZERO)).unwrap();
        let issued = v.advance(SimTime::ZERO);
        assert_eq!(issued.len(), 1);
        assert_eq!(issued[0].completion, SimTime::ZERO + p.nominal_read_latency());
        assert_eq!(issued[0].latency(), p.nominal_read_latency());
    }

    #[test]
    fn reads_preempt_queued_writes() {
        let p = params();
        let mut v = Vault::new(&p, SimTime::ZERO);
        v.enqueue(VaultOp::write(0, 0, SimTime::ZERO)).unwrap();
        v.enqueue(VaultOp::write(1, 1, SimTime::ZERO)).unwrap();
        v.enqueue(VaultOp::read(2, 2, SimTime::ZERO)).unwrap();
        let first = v.advance(SimTime::ZERO);
        assert!(first[0].op.is_read, "read must issue before older writes");
    }

    #[test]
    fn same_bank_back_to_back_waits_for_row_cycle() {
        let p = params();
        let mut v = Vault::new(&p, SimTime::ZERO);
        v.enqueue(VaultOp::read(1, 0, SimTime::ZERO)).unwrap();
        v.enqueue(VaultOp::read(2, 0, SimTime::ZERO)).unwrap();
        let first = v.advance(SimTime::ZERO);
        assert_eq!(first.len(), 1, "second read must wait for precharge");
        // Read: precharge starts at max(tRAS, burst_end)=30ns, ready at 41ns.
        let t2 = v.next_issue_time(SimTime::ZERO).unwrap();
        assert_eq!(t2, SimTime::from_ps(41_000));
        let second = v.advance(t2);
        assert_eq!(second.len(), 1);
        assert_eq!(second[0].act_start, t2);
    }

    #[test]
    fn different_banks_respect_trrd_only() {
        let p = params();
        let mut v = Vault::new(&p, SimTime::ZERO);
        v.enqueue(VaultOp::read(1, 0, SimTime::ZERO)).unwrap();
        v.enqueue(VaultOp::read(2, 1, SimTime::ZERO)).unwrap();
        let t = SimTime::ZERO + p.trrd;
        let mut issued = v.advance(SimTime::ZERO);
        issued.extend(v.advance(t));
        assert_eq!(issued.len(), 2);
        assert_eq!(issued[1].act_start - issued[0].act_start, p.trrd);
        // Bursts serialize on the shared bus.
        assert!(issued[1].completion >= issued[0].completion + SimDuration::ZERO);
        assert_eq!(issued[1].completion - issued[0].completion, p.line_burst_time());
    }

    #[test]
    fn write_recovery_delays_bank_reuse() {
        let p = params();
        let mut v = Vault::new(&p, SimTime::ZERO);
        v.enqueue(VaultOp::write(1, 0, SimTime::ZERO)).unwrap();
        v.enqueue(VaultOp::write(2, 0, SimTime::ZERO)).unwrap();
        v.advance(SimTime::ZERO);
        // Write burst ends at 30 ns; precharge at 30+tWR=42 ns; ready at 53 ns.
        let t2 = v.next_issue_time(SimTime::ZERO).unwrap();
        assert_eq!(t2, SimTime::from_ps(53_000));
    }

    #[test]
    fn buffer_capacity_is_enforced() {
        let p = params();
        let mut v = Vault::new(&p, SimTime::ZERO);
        for i in 0..p.vault_buffer_entries as u64 {
            v.enqueue(VaultOp::read(i, 0, SimTime::ZERO)).unwrap();
        }
        assert!(!v.has_space());
        assert_eq!(v.enqueue(VaultOp::read(99, 0, SimTime::ZERO)), Err(VaultFull));
    }

    #[test]
    fn stats_accumulate() {
        let p = params();
        let mut v = Vault::new(&p, SimTime::ZERO);
        v.enqueue(VaultOp::read(1, 0, SimTime::ZERO)).unwrap();
        v.enqueue(VaultOp::write(2, 1, SimTime::ZERO)).unwrap();
        let mut t = SimTime::ZERO;
        while v.occupancy() > 0 {
            t = v.next_issue_time(t).unwrap();
            v.advance(t);
        }
        assert_eq!(v.reads_issued(), 1);
        assert_eq!(v.writes_issued(), 1);
        assert_eq!(v.read_latency_total(), p.nominal_read_latency());
    }

    #[test]
    fn arrival_time_gates_issue() {
        let p = params();
        let mut v = Vault::new(&p, SimTime::ZERO);
        let arrival = SimTime::from_ps(5_000);
        v.enqueue(VaultOp::read(1, 0, arrival)).unwrap();
        assert!(v.advance(SimTime::ZERO).is_empty());
        assert_eq!(v.next_issue_time(SimTime::ZERO), Some(arrival));
        let issued = v.advance(arrival);
        assert_eq!(issued[0].act_start, arrival);
    }
}
