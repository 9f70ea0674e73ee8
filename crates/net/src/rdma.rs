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
//! * **Posted-op completion timers.** Every verb arms a completion
//!   timer in virtual time on the [`TimerQueue`] and retires it
//!   analytically at the poll, with a per-QP FIFO clamp: completions on
//!   one queue pair retire in posting order, so a large read delays a
//!   small one posted behind it.
//!
//! Costs come from [`RdmaParams`]: a one-time queue-pair setup per
//! directed endpoint pair, sub-microsecond post/poll CPU on the
//! initiator, ~1.5 µs one-way latency, and ~1 GB/s streaming. The host
//! costs around the verbs (segv, mprotect, diff creation) stay at the
//! paper's 1998 values — that asymmetry is the experiment.

use dsm_sim::{CostModel, RdmaParams, Scheduler, Time, TimerQueue, TransportKind};

use crate::network::{FlushOutcome, Transit};
use crate::transport::{FetchDelivery, PushDelivery, Transport};

/// Per directed `(src, dst)` queue-pair state.
#[derive(Clone, Debug, Default)]
struct QpState {
    /// Queue pair established (setup charged on the first verb).
    connected: bool,
    /// Instant the last posted op completed: the FIFO retirement clamp.
    clear_at: Time,
    /// Work requests posted on this QP so far.
    posted: u64,
}

dsm_sim::impl_state!(QpState { state: connected, clear_at, posted; });

/// The one-sided transport: a QP table, the completion [`TimerQueue`],
/// and verb counters.
#[derive(Clone, Debug)]
pub struct Rdma {
    nprocs: usize,
    params: RdmaParams,
    qps: Box<[QpState]>,
    timers: TimerQueue,
    /// Queue pairs established so far (each charged `qp_setup_ns` once).
    qp_setups: u64,
    /// Work-request completions retired so far.
    completions: u64,
}

dsm_sim::impl_state!(Rdma {
    config: nprocs, params;
    state: qps, timers, qp_setups, completions;
});

impl Rdma {
    pub fn new(nprocs: usize, params: RdmaParams) -> Rdma {
        Rdma {
            nprocs,
            params,
            qps: vec![QpState::default(); nprocs * nprocs].into(),
            timers: TimerQueue::new(),
            qp_setups: 0,
            completions: 0,
        }
    }

    pub fn params(&self) -> &RdmaParams {
        &self.params
    }

    /// Queue pairs established so far.
    pub fn qp_setups(&self) -> u64 {
        self.qp_setups
    }

    /// Completions retired so far.
    pub fn completions(&self) -> u64 {
        self.completions
    }

    /// Work requests posted on `src → dst` so far.
    pub fn posted(&self, src: usize, dst: usize) -> u64 {
        self.qps[src * self.nprocs + dst].posted
    }

    /// Post one verb with wire time `wire` on `src → dst` at `now` and
    /// retire its completion. All CPU is the initiator's (`sender` leg);
    /// the `receiver` leg is zero by construction. The completion timer
    /// is armed at post time and popped at the poll — virtual, analytic,
    /// deterministic, exactly like the retransmission ladder it
    /// replaces.
    fn post(&mut self, src: usize, dst: usize, wire: Time, now: Time) -> Transit {
        let qi = src * self.nprocs + dst;
        let mut pre = Time::from_ns(self.params.post_overhead_ns);
        if !self.qps[qi].connected {
            self.qps[qi].connected = true;
            self.qp_setups += 1;
            pre += Time::from_ns(self.params.qp_setup_ns);
        }
        let issue_at = now + pre;
        // Per-QP FIFO retirement: this op may not complete before an
        // earlier one on the same queue pair.
        let complete_at = (issue_at + wire).max(self.qps[qi].clear_at);
        self.qps[qi].clear_at = complete_at;
        self.qps[qi].posted += 1;
        let timer = self.timers.schedule(complete_at);
        let (_, fired) = self
            .timers
            .pop_due(complete_at)
            .expect("armed completion timer must fire");
        debug_assert_eq!(fired, timer);
        self.completions += 1;
        Transit {
            sender: pre + Time::from_ns(self.params.poll_ns),
            wire: complete_at - issue_at,
            receiver: Time::ZERO,
            attempts: 1,
            retrans_wait: Time::ZERO,
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

impl Transport for Rdma {
    fn kind(&self) -> TransportKind {
        TransportKind::OneSided
    }

    /// The collapse: request/reply becomes one remote read of the
    /// payload. The request identifier rides the verb (not modeled as
    /// bytes) and `prep` vanishes — there is no server to prepare
    /// anything, which is why the protocol layer seals diffs eagerly.
    fn fetch(
        &mut self,
        _costs: &CostModel,
        src: usize,
        dst: usize,
        _req_payload: usize,
        rep_payload: usize,
        _prep: Time,
        now: Time,
        _sched: &mut dyn Scheduler,
    ) -> FetchDelivery {
        let t = self.read(src, dst, rep_payload, now);
        FetchDelivery {
            wait: t.total(),
            server_cpu: Time::ZERO,
            retrans_wait: Time::ZERO,
            req_attempts: 1,
            rep_attempts: 1,
            req_retransmits: 0,
            rep_retransmits: 0,
            dups_suppressed: 0,
        }
    }

    fn push_reliable(
        &mut self,
        _costs: &CostModel,
        src: usize,
        dst: usize,
        payload: usize,
        now: Time,
        _sched: &mut dyn Scheduler,
    ) -> PushDelivery {
        PushDelivery {
            transit: self.write(src, dst, payload, now),
            retransmits: 0,
            dups_suppressed: 0,
        }
    }

    /// Reliable-connected: an update push is always delivered, never
    /// duplicated, and consumes no generator state — the drop
    /// probability and fault profile are two-sided phenomena.
    fn push_update(
        &mut self,
        _costs: &CostModel,
        src: usize,
        dst: usize,
        payload: usize,
        _drop_prob: f64,
        now: Time,
        _sched: &mut dyn Scheduler,
    ) -> FlushOutcome {
        FlushOutcome {
            transit: self.write(src, dst, payload, now),
            delivered: true,
            duplicated: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_sim::{SnapReader, SnapWriter, State, VirtualTimeScheduler};

    fn rdma(n: usize) -> Rdma {
        Rdma::new(n, RdmaParams::default())
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
        assert_eq!(r.qp_setups(), 1);
        // The reverse direction is its own QP.
        r.write(1, 0, 64, Time::from_ms(2));
        assert_eq!(r.qp_setups(), 2);
        assert_eq!(r.posted(0, 1), 2);
        assert_eq!(r.posted(1, 0), 1);
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
        assert_eq!(r.completions(), 5);
    }

    #[test]
    fn verbs_consume_no_generator_state() {
        let mut r = rdma(2);
        let mut sched = VirtualTimeScheduler::from_seed(7);
        let costs = CostModel::default();
        for i in 0..16 {
            Transport::fetch(
                &mut r,
                &costs,
                0,
                1,
                64,
                8192,
                Time::from_us(100),
                Time::from_ms(i),
                &mut sched,
            );
            r.push_update(&costs, 0, 1, 256, 1.0, Time::from_ms(i), &mut sched);
        }
        let mut fresh = dsm_sim::DetRng::new(7);
        assert_eq!(sched.wire_chance(0.5), fresh.chance(0.5));
    }

    #[test]
    fn push_update_is_reliable_connected() {
        let mut r = rdma(2);
        let mut sched = VirtualTimeScheduler::from_seed(1);
        let costs = CostModel::default();
        let out = r.push_update(&costs, 0, 1, 128, 1.0, Time::ZERO, &mut sched);
        assert!(out.delivered, "drop probability does not apply");
        assert!(!out.duplicated);
    }

    #[test]
    fn snapshot_round_trips_qp_and_timer_state() {
        let mut r = rdma(2);
        r.read(0, 1, 8192, Time::from_ms(1));
        r.write(1, 0, 64, Time::from_ms(2));
        let mut w = SnapWriter::new();
        r.encode(&mut w);
        let bytes = w.into_bytes();
        let mut fresh = rdma(2);
        fresh.decode(&mut SnapReader::new(&bytes)).unwrap();
        assert_eq!(fresh.qp_setups(), r.qp_setups());
        assert_eq!(fresh.completions(), r.completions());
        assert_eq!(fresh.posted(0, 1), 1);
        // Restored clamp state behaves identically: the next read on
        // the same QP costs the same in both instances.
        let a = r.read(0, 1, 64, Time::from_ms(3));
        let b = fresh.read(0, 1, 64, Time::from_ms(3));
        assert_eq!(a, b);
    }
}
