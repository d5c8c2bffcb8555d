//! Event-driven vault model: bounded command queue, read priority,
//! per-bank close-page timing, shared data bus.
//!
//! The vault is passive: the simulation engine calls [`Vault::advance`] when
//! simulated time reaches the next possible issue instant (obtained from
//! [`Vault::next_issue_time`]), and the vault returns every operation it
//! issued together with its completion time.

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

/// End of a slot list.
const NIL: u16 = u16::MAX;

/// `u32` words per command-buffer slot: the operation's id (two words),
/// its arrival in ps (two words) and a link word holding the next slot
/// of its list (low 16 bits), its bank (the next 15) and whether it is a
/// read (the top bit).
const SLOT_WORDS: usize = 5;
const BANK_SHIFT: u32 = 16;
const READ_BIT: u32 = 1 << 31;

/// The `u64` whose low and high halves are `lo` and `hi`.
fn join(lo: u32, hi: u32) -> u64 {
    u64::from(lo) | (u64::from(hi) << 32)
}

/// `value`'s low and high halves.
fn split(value: u64) -> [u32; 2] {
    [value as u32, (value >> 32) as u32]
}

/// A queued operation as its slot holds it.
#[derive(Debug, Clone, Copy)]
struct Queued {
    id: u64,
    arrival: SimTime,
    next: u16,
    bank: usize,
    is_read: bool,
}

/// A FIFO threaded through the command buffer's slots.
#[derive(Debug, Clone, Copy)]
struct Fifo {
    head: u16,
    tail: u16,
}

impl Fifo {
    const EMPTY: Fifo = Fifo { head: NIL, tail: NIL };
}

/// One HMC vault: command queue, banks, and TSV data bus.
///
/// Building a vault allocates nothing. Its bank-ready times and its
/// command buffer (`vault_buffer_entries` slots shared by reads and
/// writes) are allocated together, once, by its first
/// [`Vault::enqueue`], so a vault no request reaches never allocates.
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
    banks: usize,
    /// When the vault was built: every bank is ready from then on.
    start: SimTime,

    /// Earliest next activate anywhere in the vault (tRRD window).
    next_act_allowed: SimTime,
    /// Data bus free time.
    bus_free: SimTime,

    /// Empty until the first enqueue reserves it whole: two words per
    /// bank holding its earliest next-activate time in ps (close page:
    /// precharge done), then up to `buffer_entries` slots of
    /// [`SLOT_WORDS`], pushed as first used and then recycled through
    /// `free`, so the reservation is never outgrown. Queued slots are
    /// linked into the FIFO of their class. `u32` words keep a slot at
    /// 20 bytes.
    block: Vec<u32>,
    free: u16,
    reads: Fifo,
    writes: Fifo,
    queued: usize,

    reads_issued: u64,
    writes_issued: u64,
    read_latency_total: SimDuration,
}

impl Vault {
    /// Creates an idle vault at time `start`. `params` must pass
    /// [`DramParams::validate`]; the simulator's engine checks that once
    /// per run rather than once per vault.
    ///
    /// # Panics
    ///
    /// Panics if the vault has more banks or buffer entries than its
    /// slots can name ([`DramParams::MAX_BANKS_PER_VAULT`],
    /// [`DramParams::MAX_VAULT_BUFFER_ENTRIES`]).
    pub fn new(params: &DramParams, start: SimTime) -> Self {
        assert!(
            params.banks_per_vault <= DramParams::MAX_BANKS_PER_VAULT
                && params.vault_buffer_entries <= DramParams::MAX_VAULT_BUFFER_ENTRIES,
            "vault parameters out of range (see DramParams::validate)"
        );
        Vault {
            tcl: params.tcl,
            trcd: params.trcd,
            tras: params.tras,
            trp: params.trp,
            trrd: params.trrd,
            twr: params.twr,
            burst: params.line_burst_time(),
            buffer_entries: params.vault_buffer_entries,
            banks: params.banks_per_vault,
            start,
            next_act_allowed: start,
            bus_free: start,
            block: Vec::new(),
            free: NIL,
            reads: Fifo::EMPTY,
            writes: Fifo::EMPTY,
            queued: 0,
            reads_issued: 0,
            writes_issued: 0,
            read_latency_total: SimDuration::ZERO,
        }
    }

    /// Number of queued (not yet issued) operations.
    pub fn occupancy(&self) -> usize {
        self.queued
    }

    /// True if another operation can be enqueued.
    pub fn has_space(&self) -> bool {
        self.queued < self.buffer_entries
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
        assert!(op.bank < self.banks, "bank {} out of range", op.bank);
        if !self.has_space() {
            return Err(VaultFull);
        }
        if self.block.is_empty() {
            self.block.reserve_exact(2 * self.banks + SLOT_WORDS * self.buffer_entries);
            let start = split(self.start.as_ps());
            for _ in 0..self.banks {
                self.block.extend(start);
            }
        }
        let at = if self.free == NIL {
            self.block.extend([0; SLOT_WORDS]);
            ((self.block.len() - 2 * self.banks) / SLOT_WORDS - 1) as u16
        } else {
            let at = self.free;
            self.free = self.next(at);
            at
        };
        let op = Queued {
            id: op.id,
            arrival: op.arrival,
            next: NIL,
            bank: op.bank,
            is_read: op.is_read,
        };
        self.set_slot(at, op);
        let fifo = if op.is_read { &mut self.reads } else { &mut self.writes };
        let tail = std::mem::replace(&mut fifo.tail, at);
        if tail == NIL {
            fifo.head = at;
        } else {
            self.set_next(tail, at);
        }
        self.queued += 1;
        Ok(())
    }

    /// The slot of the next operation the scheduler would pick (reads
    /// before writes).
    fn head(&self) -> Option<u16> {
        let head = if self.reads.head != NIL { self.reads.head } else { self.writes.head };
        (head != NIL).then_some(head)
    }

    /// Earliest time the head operation's activate could issue, given bank,
    /// tRRD and arrival constraints. `None` when the queue is empty.
    pub fn next_issue_time(&self, now: SimTime) -> Option<SimTime> {
        self.head().map(|at| {
            let op = self.slot(at);
            self.bank_ready(op.bank).max(self.next_act_allowed).max(op.arrival).max(now)
        })
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
        while let Some(at) = self.head() {
            let Queued { id, arrival, next, bank, is_read } = self.slot(at);
            let act_start = self.bank_ready(bank).max(self.next_act_allowed).max(arrival);
            if act_start > now {
                break;
            }
            // Dequeue from its priority class and free the slot.
            let fifo = if is_read { &mut self.reads } else { &mut self.writes };
            fifo.head = next;
            if next == NIL {
                fifo.tail = NIL;
            }
            // A free slot keeps only its link.
            let link = self.slot_words(at) + 4;
            self.block[link] = u32::from(self.free);
            self.free = at;
            self.queued -= 1;

            // Close-page sequence: ACT, column access, burst, auto-precharge.
            let column_ready = act_start + self.trcd + self.tcl;
            let burst_start = column_ready.max(self.bus_free);
            let burst_end = burst_start + self.burst;
            self.bus_free = burst_end;
            self.next_act_allowed = act_start + self.trrd;

            // Precharge may begin only after tRAS and (for writes) the write
            // recovery window following the last data.
            let precharge_start = if is_read {
                (act_start + self.tras).max(burst_end)
            } else {
                (act_start + self.tras).max(burst_end + self.twr)
            };
            self.set_bank_ready(bank, precharge_start + self.trp);

            if is_read {
                self.reads_issued += 1;
                self.read_latency_total += burst_end - arrival;
            } else {
                self.writes_issued += 1;
            }
            let op = VaultOp { id, bank, is_read, arrival };
            issued.push(IssuedOp { op, act_start, completion: burst_end });
        }
    }

    fn bank_ready(&self, bank: usize) -> SimTime {
        let w = &self.block[2 * bank..2 * bank + 2];
        SimTime::from_ps(join(w[0], w[1]))
    }

    fn set_bank_ready(&mut self, bank: usize, at: SimTime) {
        self.block[2 * bank..2 * bank + 2].copy_from_slice(&split(at.as_ps()));
    }

    /// Where slot `slot`'s words start in `block`.
    fn slot_words(&self, slot: u16) -> usize {
        2 * self.banks + SLOT_WORDS * usize::from(slot)
    }

    fn slot(&self, slot: u16) -> Queued {
        let at = self.slot_words(slot);
        let w = &self.block[at..at + SLOT_WORDS];
        Queued {
            id: join(w[0], w[1]),
            arrival: SimTime::from_ps(join(w[2], w[3])),
            next: w[4] as u16,
            bank: ((w[4] & !READ_BIT) >> BANK_SHIFT) as usize,
            is_read: w[4] & READ_BIT != 0,
        }
    }

    fn set_slot(&mut self, slot: u16, op: Queued) {
        let at = self.slot_words(slot);
        let [id_lo, id_hi] = split(op.id);
        let [arrival_lo, arrival_hi] = split(op.arrival.as_ps());
        let read = if op.is_read { READ_BIT } else { 0 };
        let link = u32::from(op.next) | ((op.bank as u32) << BANK_SHIFT) | read;
        self.block[at..at + SLOT_WORDS]
            .copy_from_slice(&[id_lo, id_hi, arrival_lo, arrival_hi, link]);
    }

    /// The next slot on `slot`'s list.
    fn next(&self, slot: u16) -> u16 {
        self.block[self.slot_words(slot) + 4] as u16
    }

    fn set_next(&mut self, slot: u16, next: u16) {
        let at = self.slot_words(slot) + 4;
        self.block[at] = (self.block[at] & !u32::from(NIL)) | u32::from(next);
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
