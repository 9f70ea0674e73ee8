//! The one-sided (RDMA-style) transport backend.
//!
//! Models reliable-connected verbs on an early-RDMA NIC: the initiator
//! posts a work request on a queue pair, the remote NIC serves the read
//! or absorbs the write with **zero remote CPU**, and the initiator
//! polls the completion. Three properties shape everything downstream:
//!
//! * **No receiver involvement.** A fetch needs no SIGIO handler and no
//!   reply preparation — the protocol layer must keep fetchable data
//!   sealed in place (diffs are sealed eagerly at the barrier rather
//!   than lazily at serve time), and in exchange `server_cpu` is zero.
//! * **Reliable-connected semantics.** No loss, duplication, or
//!   reordering below the verbs: no retransmission ladder, no drop
//!   draws, no generator state consumed. The fault profile simply does
//!   not apply; a one-sided run is deterministic by construction.
//! * **Analytic in-order completion.** A verb's completion instant is
//!   computed at the post, with a per-QP FIFO clamp: completions on one
//!   queue pair retire in posting order, so a large read delays a small
//!   one posted behind it. The poll happens inside the same call, so no
//!   completion is ever outstanding between calls.
//!
//! Costs come from [`RdmaParams`]: a one-time queue-pair setup per
//! directed endpoint pair, sub-microsecond post/poll CPU on the
//! initiator, ~1.5 µs one-way latency, and ~1 GB/s streaming. The host
//! costs around the verbs (segv, mprotect, diff creation) stay at the
//! paper's 1998 values — that asymmetry is the experiment.

use dsm_sim::{RdmaParams, Time};

use crate::network::Transit;

/// Per directed `(src, dst)` queue-pair state.
#[derive(Clone, Debug, Default)]
pub(crate) struct QpState {
    /// Queue pair established (setup charged on the first verb).
    connected: bool,
    /// Instant the last posted op completed: the FIFO retirement clamp.
    clear_at: Time,
}

dsm_sim::impl_state!(QpState { state: connected, clear_at; });

/// The one-sided transport: the cost parameters and a QP table.
#[derive(Clone, Debug)]
pub struct Rdma {
    nprocs: usize,
    params: RdmaParams,
    pub(crate) qps: Box<[QpState]>,
}

dsm_sim::impl_state!(Rdma {
    config: nprocs, params;
    state: qps;
});

impl Rdma {
    pub fn new(nprocs: usize, params: RdmaParams) -> Rdma {
        Rdma {
            nprocs,
            params,
            qps: vec![QpState::default(); nprocs * nprocs].into(),
        }
    }

    /// Post one verb with wire time `wire` on `src → dst` at `now` and
    /// poll its completion. All CPU is the initiator's (`sender` leg);
    /// the `receiver` leg is zero by construction.
    fn post(&mut self, src: usize, dst: usize, wire: Time, now: Time) -> Transit {
        let qp = &mut self.qps[src * self.nprocs + dst];
        let mut pre = Time::from_ns(self.params.post_overhead_ns);
        if !qp.connected {
            qp.connected = true;
            pre += Time::from_ns(self.params.qp_setup_ns);
        }
        let issue_at = now + pre;
        // Per-QP FIFO retirement: this op may not complete before an
        // earlier one on the same queue pair.
        let complete_at = (issue_at + wire).max(qp.clear_at);
        qp.clear_at = complete_at;
        Transit {
            sender: pre + Time::from_ns(self.params.poll_ns),
            wire: complete_at - issue_at,
            receiver: Time::ZERO,
            attempts: 1,
            retrans_wait: Time::ZERO,
            dups_suppressed: 0,
        }
    }

    /// One-sided read of `payload` bytes out of `dst`'s memory.
    pub fn read(&mut self, src: usize, dst: usize, payload: usize, now: Time) -> Transit {
        let wire = self.params.read_wire(payload);
        self.post(src, dst, wire, now)
    }

    /// One-sided write of `payload` bytes into `dst`'s memory.
    pub fn write(&mut self, src: usize, dst: usize, payload: usize, now: Time) -> Transit {
        let wire = self.params.write_wire(payload);
        self.post(src, dst, wire, now)
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::rc::Rc;

    use super::*;
    use dsm_sim::{
        CostModel, DetRng, FaultProfile, Scheduler, SharedScheduler, SnapReader, SnapWriter, State,
        TransportKind, VirtualTimeScheduler,
    };

    use crate::{FlushKind, Network, ReliableKind};

    fn rdma(n: usize) -> Rdma {
        Rdma::new(n, RdmaParams::default())
    }

    /// A one-sided network under a hostile drop probability and fault
    /// profile, neither of which may touch a verb.
    #[expect(clippy::disallowed_methods, reason = "unit tests drive a bare Network")]
    fn one_sided(sched: SharedScheduler) -> Network {
        let fault = FaultProfile {
            loss: 1.0,
            duplicate: 1.0,
            ..FaultProfile::none()
        };
        let backend = TransportKind::OneSided;
        let params = RdmaParams::default();
        Network::with_transport(2, CostModel::default(), 1.0, fault, backend, params, sched)
    }

    #[test]
    fn qp_setup_charged_once_per_directed_pair() {
        let mut r = rdma(2);
        let p = RdmaParams::default();
        let first = r.read(0, 1, 0, Time::ZERO);
        let second = r.read(0, 1, 0, Time::from_ms(1));
        assert_eq!(
            first.sender.as_ns() - second.sender.as_ns(),
            p.qp_setup_ns,
            "setup only on the first verb"
        );
        // The reverse direction is its own QP.
        let reverse = r.write(1, 0, 64, Time::from_ms(2));
        assert_eq!(reverse.sender, first.sender);
    }

    #[test]
    fn read_waits_round_trip_write_does_not() {
        let mut r = rdma(2);
        let p = RdmaParams::default();
        r.read(0, 1, 0, Time::ZERO); // burn the setup
        let rd = r.read(0, 1, 4096, Time::from_ms(1));
        let wr = r.write(0, 1, 4096, Time::from_ms(2));
        assert_eq!(rd.wire, p.read_wire(4096));
        assert_eq!(wr.wire, p.write_wire(4096));
        assert_eq!(rd.receiver, Time::ZERO, "no remote CPU, ever");
        assert_eq!(wr.receiver, Time::ZERO);
        assert_eq!(rd.attempts, 1);
        assert_eq!(rd.retrans_wait, Time::ZERO);
    }

    #[test]
    fn completions_retire_in_posting_order_per_qp() {
        // A big read posted first delays a small one posted just after
        // on the same QP; a different QP is unaffected.
        let mut r = rdma(3);
        r.read(0, 1, 0, Time::ZERO);
        r.read(0, 2, 0, Time::ZERO); // burn both setups
        let p = RdmaParams::default();
        let now = Time::from_ms(5);
        let big = r.read(0, 1, 65536, now);
        let small_same = r.read(0, 1, 64, now);
        let small_other = r.read(0, 2, 64, now);
        assert!(
            small_same.wire > p.read_wire(64),
            "head-of-line: clamped behind the big read"
        );
        assert_eq!(
            now + Time::from_ns(p.post_overhead_ns) + small_same.wire,
            now + Time::from_ns(p.post_overhead_ns) + big.wire,
            "clamped to the big read's completion instant"
        );
        assert_eq!(small_other.wire, p.read_wire(64), "own QP, no clamp");
    }

    #[test]
    fn verbs_consume_no_generator_state() {
        // Every one-sided arm of the network, under drop 1.0 and a
        // total-loss profile, leaves the scheduler's stream untouched.
        let vts = Rc::new(RefCell::new(VirtualTimeScheduler::new(DetRng::new(7))));
        let mut n = one_sided(Rc::clone(&vts) as SharedScheduler);
        for i in 0..16 {
            let now = Time::from_ms(i);
            let rep = ReliableKind::DiffReply;
            n.fetch(
                0,
                1,
                ReliableKind::DiffRequest,
                64,
                rep,
                8192,
                Time::ZERO,
                now,
            );
            let out = n.push_update(0, 1, FlushKind::UpdateFlush, 256, now);
            assert!(out.delivered && !out.duplicated);
            n.push_reliable(1, 0, ReliableKind::DiffFlushHome, 512, now);
        }
        let mut fresh = DetRng::new(7);
        assert_eq!(vts.borrow_mut().wire_chance(0.5), fresh.chance(0.5));
    }

    #[test]
    fn push_update_is_reliable_connected() {
        // No drop or duplicate decision is even offered: a scripted
        // scheduler that would lose and duplicate everything is never
        // asked, so an explorer has no one-sided flush to enumerate.
        struct Hostile;
        impl Scheduler for Hostile {
            fn flush_drop(&mut self, _s: usize, _d: usize, _p: f64) -> bool {
                panic!("one-sided pushes take no drop decision")
            }
            fn flush_duplicate(&mut self, _s: usize, _d: usize, _p: f64) -> bool {
                panic!("one-sided pushes take no duplicate decision")
            }
        }
        let mut n = one_sided(Rc::new(RefCell::new(Hostile)));
        let out = n.push_update(0, 1, FlushKind::UpdateFlush, 128, Time::ZERO);
        assert!(out.delivered, "drop probability does not apply");
        assert!(!out.duplicated);
    }

    #[test]
    fn snapshot_round_trips_qp_and_timer_state() {
        let mut r = rdma(2);
        r.read(0, 1, 65536, Time::from_ms(1));
        r.write(1, 0, 64, Time::from_ms(2));
        let mut w = SnapWriter::new();
        r.encode(&mut w);
        let bytes = w.into_bytes();
        let mut fresh = rdma(2);
        fresh.decode(&mut SnapReader::new(&bytes)).unwrap();
        // Restored connection and clamp state behave identically: the
        // next verb on each QP costs the same in both instances (no
        // setup charged, same head-of-line clamp).
        for (src, dst) in [(0, 1), (1, 0)] {
            let a = r.read(src, dst, 64, Time::from_ms(1));
            let b = fresh.read(src, dst, 64, Time::from_ms(1));
            assert_eq!(a, b);
        }
    }
}
