//! Building a vault allocates nothing, and its bank times and command
//! buffer are allocated once, as one block, by the first enqueue, however
//! much traffic follows.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use memnet_dram::{DramParams, Vault, VaultOp};
use memnet_simcore::{SimDuration, SimTime};

/// The system allocator, counting the allocations of each thread (the
/// test harness allocates on threads of its own meanwhile).
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn a_vault_allocates_one_block_on_its_first_enqueue() {
    let p = DramParams::hmc_gen2();
    let mut vaults = Vec::with_capacity(64);
    let before = allocations();
    vaults.extend((0..64).map(|_| Vault::new(&p, SimTime::ZERO)));
    assert_eq!(allocations(), before, "building vaults allocates nothing");

    // Keep the buffer full for a while, reads and writes mixed, so every
    // slot is recycled many times over.
    let vault = &mut vaults[0];
    let mut issued = Vec::with_capacity(p.vault_buffer_entries);
    let before = allocations();
    let mut now = SimTime::ZERO;
    for id in 0..10_000u64 {
        let bank = (id * 7 % p.banks_per_vault as u64) as usize;
        let op =
            if id % 3 == 2 { VaultOp::write(id, bank, now) } else { VaultOp::read(id, bank, now) };
        while vault.enqueue(op).is_err() {
            now = vault.next_issue_time(now).expect("a full vault has work");
            vault.advance_into(now, &mut issued);
            issued.clear();
        }
        now += SimDuration::from_ps(2_000);
        vault.advance_into(now, &mut issued);
        issued.clear();
    }
    assert_eq!(vault.reads_issued() + vault.writes_issued() + vault.occupancy() as u64, 10_000);
    assert_eq!(allocations() - before, 1, "the block is allocated once");
}
