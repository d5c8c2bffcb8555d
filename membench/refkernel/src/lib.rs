//! The host-speed reference of the memnet benchmark: a fixed discrete-event
//! loop shaped like the simulator's inner loop (a binary-heap event queue
//! plus random updates to a table of node state), whose code never changes
//! with memnet. The benchmark times it between a workload's repetitions
//! to tell how fast the host is running.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Events one sample processes: about 0.14 s on a quiet reference host.
pub const EVENTS: u64 = 2_000_000;

/// Nodes with one pending event each, so the queue holds this many.
const NODES: u64 = 4096;

/// Counters updated at random: 2 MiB, which with the queue just
/// overflows a 2 MiB L2, so that like the simulator (and the sweeps'
/// JSON) the loop feels contention for the shared L3. Over a 256 KiB
/// table it ran at a steady speed through a stretch in which memnet's
/// workloads ran 1.8-2.9x slower than when the host was quiet.
const TABLE: usize = 1 << 18;

/// Runs the loop for `events` events and returns its checksum, which
/// depends only on `events`.
pub fn run(events: u64) -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut table = vec![0u64; TABLE];
    let mut clock = vec![0u64; NODES as usize];
    let mut queue = BinaryHeap::with_capacity(NODES as usize);
    for node in 0..NODES {
        queue.push(Reverse((next() % 1024, node)));
    }
    let mut sum = 0u64;
    for _ in 0..events {
        let Reverse((t, node)) = queue.pop().expect("the queue never empties");
        let r = next();
        let slot = r as usize & (TABLE - 1);
        table[slot] = table[slot].wrapping_add(t ^ node);
        let last = std::mem::replace(&mut clock[node as usize], t);
        let dt = 1 + (table[slot] ^ last) % 512;
        sum = sum.wrapping_add(dt);
        let target = if r >> 62 == 0 { (r >> 32) % NODES } else { node };
        queue.push(Reverse((t + dt, target)));
    }
    table.iter().fold(sum, |a, &b| a.rotate_left(5) ^ b)
}

#[cfg(test)]
mod tests {
    #[test]
    fn checksum_depends_only_on_the_event_count() {
        assert_eq!(super::run(10_000), super::run(10_000));
        assert_ne!(super::run(10_000), super::run(10_001));
    }
}
