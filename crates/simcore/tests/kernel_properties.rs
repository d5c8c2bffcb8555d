//! Property tests of the simulation kernel.

use memnet_simcore::stats::{BusyTracker, Histogram, OnlineStats, TimeInState};
use memnet_simcore::{EventQueue, SimDuration, SimTime, SplitMix64};
use proptest::prelude::*;

proptest! {
    #[test]
    fn event_queue_is_a_stable_time_sort(times in prop::collection::vec(0u64..1_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_ps(t), i);
        }
        let mut popped: Vec<(u64, usize)> = Vec::new();
        while let Some((t, i)) = q.pop() {
            popped.push((t.as_ps(), i));
        }
        // Expected: stable sort by time (ties keep insertion order).
        let mut expected: Vec<(u64, usize)> =
            times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        expected.sort_by_key(|&(t, _)| t);
        prop_assert_eq!(popped, expected);
    }

    #[test]
    fn event_queue_interleaved_operations_never_go_backwards(
        ops in prop::collection::vec((0u64..1_000_000, any::<bool>()), 1..300)
    ) {
        let mut q = EventQueue::new();
        let mut clock = 0u64;
        for (t, is_push) in ops {
            if is_push || q.is_empty() {
                // Never schedule in the past.
                q.push(SimTime::from_ps(clock + t), ());
            } else if let Some((popped, ())) = q.pop() {
                prop_assert!(popped.as_ps() >= clock, "time went backwards");
                clock = popped.as_ps();
            }
        }
    }

    #[test]
    fn event_queue_pops_the_time_seq_minimum_across_several_horizons(
        ops in prop::collection::vec(
            (prop_oneof![Just(0u64), 0u64..4_096, 0u64..20_000_000], 0u8..8),
            1..400,
        )
    ) {
        // The queue's two wheel levels reach about 4.4 µs past its cursor;
        // these times reach ~5 such horizons past the frontier, and some
        // land behind it. Every pop must be the (time, push order) minimum.
        let mut q = EventQueue::new();
        let mut reference: Vec<(u64, usize)> = Vec::new();
        let mut frontier = 0u64;
        for (i, (delay, op)) in ops.into_iter().enumerate() {
            if op < 6 {
                let t = if op == 5 { frontier.saturating_sub(delay) } else { frontier + delay };
                q.push(SimTime::from_ps(t), i);
                reference.push((t, i));
            } else if let Some(at) = (0..reference.len()).min_by_key(|&j| reference[j]) {
                let expected = reference.swap_remove(at);
                let (t, e) = q.pop().expect("queue tracks the reference");
                prop_assert_eq!((t.as_ps(), e), expected);
                frontier = expected.0;
            } else {
                prop_assert!(q.pop().is_none());
            }
            prop_assert_eq!(q.len(), reference.len());
        }
        reference.sort_unstable();
        let drained: Vec<(u64, usize)> =
            std::iter::from_fn(|| q.pop().map(|(t, e)| (t.as_ps(), e))).collect();
        prop_assert_eq!(drained, reference);
    }

    #[test]
    fn rng_streams_are_reproducible_and_uncorrelated(seed in any::<u64>()) {
        let a: Vec<u64> = {
            let mut r = SplitMix64::new(seed);
            (0..64).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix64::new(seed);
            (0..64).map(|_| r.next_u64()).collect()
        };
        prop_assert_eq!(&a, &b);
        let c: Vec<u64> = {
            let mut r = SplitMix64::new(seed.wrapping_add(1));
            (0..64).map(|_| r.next_u64()).collect()
        };
        prop_assert_ne!(a, c);
    }

    #[test]
    fn busy_tracker_never_exceeds_elapsed_time(
        toggles in prop::collection::vec((1u64..10_000, any::<bool>()), 1..100)
    ) {
        let mut tracker = BusyTracker::new(SimTime::ZERO);
        let mut now = 0u64;
        for (dt, busy) in toggles {
            now += dt;
            tracker.set_busy(SimTime::from_ps(now), busy);
        }
        let end = SimTime::from_ps(now + 1);
        prop_assert!(tracker.busy_time(end) <= end - SimTime::ZERO);
    }

    #[test]
    fn time_in_state_partitions_elapsed_time(
        transitions in prop::collection::vec((1u64..10_000, 0usize..5), 1..100)
    ) {
        let mut t = TimeInState::new(5, 0, SimTime::ZERO);
        let mut now = 0u64;
        for (dt, state) in transitions {
            now += dt;
            t.transition(SimTime::from_ps(now), state);
        }
        let end = SimTime::from_ps(now + 500);
        let total: SimDuration = t.snapshot(end).into_iter().sum();
        prop_assert_eq!(total, end - SimTime::ZERO);
    }

    #[test]
    fn histogram_total_counts_every_sample(
        samples in prop::collection::vec(0.0f64..10_000.0, 0..300)
    ) {
        let mut h = Histogram::new(&[32.0, 128.0, 512.0, 2048.0]);
        for &s in &samples {
            h.record(s);
        }
        prop_assert_eq!(h.total(), samples.len() as u64);
    }

    #[test]
    fn online_stats_bounds_hold(samples in prop::collection::vec(-1e6f64..1e6, 1..300)) {
        let mut s = OnlineStats::new();
        for &x in &samples {
            s.record(x);
        }
        let min = s.min().unwrap();
        let max = s.max().unwrap();
        prop_assert!(min <= max);
        prop_assert!(s.mean() >= min - 1e-9 && s.mean() <= max + 1e-9);
        prop_assert_eq!(s.count(), samples.len() as u64);
    }

    #[test]
    fn duration_arithmetic_is_consistent(a in 0u64..1u64<<40, b in 0u64..1u64<<40) {
        let da = SimDuration::from_ps(a);
        let db = SimDuration::from_ps(b);
        prop_assert_eq!((da + db).as_ps(), a + b);
        prop_assert_eq!(da.saturating_sub(db).as_ps(), a.saturating_sub(b));
        prop_assert_eq!(da.min(db).as_ps(), a.min(b));
        prop_assert_eq!(da.max(db).as_ps(), a.max(b));
        let t = SimTime::from_ps(a) + db;
        prop_assert_eq!(t - SimTime::from_ps(a), db);
    }
}
