//! Property tests for the reliability sublayer.
//!
//! Under arbitrary fault schedules — iid and bursty loss, duplication,
//! reordering, slow nodes, all drawn from `DetRng` — the wire must deliver
//! every reliable message exactly once, in per-channel order, with its
//! fault overhead fully itemized. These are the guarantees the protocol
//! layer assumes when it stopped checking `delivered` on reliable kinds.

use dsm_net::wire::MAX_ATTEMPTS;
use dsm_net::{Transit, Wire};
use dsm_sim::prop::{check, Gen};
use dsm_sim::{CostModel, DetRng, FaultProfile, Scheduler, Time, VirtualTimeScheduler};

/// A random fault profile, biased to be nasty (high probabilities are
/// common, not edge cases).
fn arb_profile(g: &mut Gen, nprocs: usize) -> FaultProfile {
    FaultProfile {
        loss: g.f64_in(0.0, 0.9),
        burst_start: g.f64_in(0.0, 0.5),
        burst_len: g.range(1, 6) as u32,
        duplicate: g.f64_in(0.0, 0.9),
        reorder: g.f64_in(0.0, 0.9),
        slow_node: if g.chance(0.3) {
            Some(g.below(nprocs))
        } else {
            None
        },
        slow_factor: 1.0 + g.f64_in(0.0, 3.0),
    }
}

#[test]
fn prop_reliable_is_exactly_once_in_order_with_itemized_overhead() {
    check("wire-exactly-once", 150, |g| {
        let nprocs = g.range(2, 5);
        let profile = arb_profile(g, nprocs);
        let costs = CostModel::default();
        let mut wire = Wire::new(nprocs, profile);
        let mut sched = VirtualTimeScheduler::new(DetRng::new(g.u64()));

        // Per-channel expectations.
        let mut sent = vec![0u64; nprocs * nprocs];
        let mut last_arrival = vec![Time::ZERO; nprocs * nprocs];
        let mut now = Time::ZERO;

        for _ in 0..g.range(20, 80) {
            let src = g.below(nprocs);
            let dst = (src + g.range(1, nprocs)) % nprocs;
            let ci = src * nprocs + dst;
            let payload = g.below(8192);
            let legs = costs.msg_legs(payload);
            let (_, w0, _) = legs;
            now += Time::from_us(g.range(1, 400) as u64);

            if g.chance(0.3) {
                // Fire-and-forget flush: lost xor duplicated, never both;
                // no sequence number consumed.
                let before = wire.delivered_seq(src, dst);
                let f = wire.resolve_flush(src, dst, legs, &mut sched);
                assert!(
                    f.delivered || !f.duplicated,
                    "lost flush cannot arrive twice"
                );
                assert_eq!(
                    wire.delivered_seq(src, dst),
                    before,
                    "flushes are unsequenced"
                );
                continue;
            }

            let d = wire.resolve_reliable(src, dst, legs, now, &mut sched);
            sent[ci] += 1;

            // Exactly once: one delivery per send, in sequence order,
            // no matter how many copies the wire carried.
            assert_eq!(
                wire.delivered_seq(src, dst),
                sent[ci],
                "every reliable send is delivered exactly once"
            );
            assert!(d.attempts >= 1 && d.attempts <= MAX_ATTEMPTS);

            // Per-channel order: a later send may not land earlier.
            let arrival = now + d.sender + d.wire;
            assert!(
                arrival >= last_arrival[ci],
                "per-channel FIFO violated: {arrival:?} < {:?}",
                last_arrival[ci]
            );
            last_arrival[ci] = arrival;

            // Overhead itemization: the wire leg is the faultless leg plus
            // exactly the reported fault overhead.
            assert_eq!(
                d.wire,
                w0 + d.retrans_wait,
                "retrans_wait must itemize all wire overhead"
            );
            // Every copy beyond the first is a lost data attempt or an
            // ack-loss echo, and the ladder never outruns the cap.
            assert_eq!(
                d.retransmits(),
                u64::from(d.attempts - 1 + d.dups_suppressed)
            );
            assert!(d.attempts + d.dups_suppressed <= MAX_ATTEMPTS);
        }

        // Nothing invented, nothing pending: each channel delivered its
        // send count.
        for src in 0..nprocs {
            for dst in 0..nprocs {
                assert_eq!(wire.delivered_seq(src, dst), sent[src * nprocs + dst]);
            }
        }
    });
}

#[test]
fn prop_zero_fault_wire_is_invisible() {
    // Whatever the traffic mix, a FaultProfile::none() wire returns the
    // cost model's legs untouched and consumes no generator state.
    check("wire-zero-fault-invisible", 100, |g| {
        let nprocs = g.range(2, 5);
        let costs = CostModel::default();
        let mut wire = Wire::new(nprocs, FaultProfile::none());
        let seed = g.u64();
        let mut sched = VirtualTimeScheduler::new(DetRng::new(seed));
        let mut now = Time::ZERO;
        for _ in 0..g.range(10, 50) {
            let src = g.below(nprocs);
            let dst = (src + g.range(1, nprocs)) % nprocs;
            let legs = costs.msg_legs(g.below(8192));
            now += Time::from_us(g.range(1, 100) as u64);
            if g.chance(0.5) {
                let d = wire.resolve_reliable(src, dst, legs, now, &mut sched);
                assert_eq!(d, Transit::clean(legs));
            } else {
                let f = wire.resolve_flush(src, dst, legs, &mut sched);
                assert_eq!(f.transit, Transit::clean(legs));
                assert!(f.delivered && !f.duplicated);
            }
        }
        // The scheduler stream was never touched.
        let mut fresh = DetRng::new(seed);
        assert_eq!(sched.wire_chance(0.5), fresh.chance(0.5));
    });
}
