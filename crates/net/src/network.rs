//! The charging network: cost legs, statistics, loss injection, and the
//! backend routing between the two wire personalities.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use dsm_sim::{
    CostModel, DetRng, FaultProfile, RdmaParams, SharedScheduler, Time, TransportKind,
    VirtualTimeScheduler,
};

use crate::message::{FlushKind, MsgKind, ReliableKind, HEADER_BYTES};
use crate::rdma::Rdma;
use crate::stats::NetStats;
use crate::transport::{FetchDelivery, Transport};
use crate::wire::{Wire, WireTuning};

/// The time legs of one message: the sender is charged `sender`, the
/// receiving handler is charged `receiver`, and anyone synchronously waiting
/// for the message experiences `total()`.
///
/// Reliable sends always produce a delivered `Transit` — the wire's
/// reliability sublayer retransmits until the message lands, and whatever it
/// cost is already folded into `wire` (itemized in `retrans_wait`). Only
/// [`Network::send_flush`] can lose a message, and it says so in its
/// [`FlushOutcome`], not here: there is no `delivered` flag for callers of
/// reliable kinds to ignore. On the one-sided backend the `receiver` leg of
/// any data verb is zero: remote reads and writes involve no remote CPU.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Transit {
    pub sender: Time,
    pub wire: Time,
    pub receiver: Time,
    /// Data attempts until delivery (1 on a clean wire, always 1 one-sided).
    pub attempts: u32,
    /// Portion of `wire` that is fault overhead (retransmission backoff,
    /// slow paths, head-of-line blocking, slow-node stretch). Zero on a
    /// faultless run; callers feed it to `Clock::note_retrans`.
    pub retrans_wait: Time,
}

impl Transit {
    /// End-to-end time seen by a synchronous waiter.
    pub fn total(&self) -> Time {
        self.sender + self.wire + self.receiver
    }
}

/// The result of a fire-and-forget flush: the legs, and what the unreliable
/// wire did with the message. The sender has paid `transit.sender` either
/// way (charge-then-drop); `delivered == false` means nothing arrives, and
/// `duplicated == true` means the receiver gets the message *twice* and
/// must treat the second copy idempotently. The one-sided backend is
/// reliable-connected: its pushes are always delivered, never duplicated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlushOutcome {
    pub transit: Transit,
    pub delivered: bool,
    pub duplicated: bool,
}

/// The cluster interconnect: full crossbar, per-link counters, and two
/// wire personalities behind the [`Transport`] trait — the lossy two-sided
/// [`Wire`] (acks, retransmission, droppable flushes) and the one-sided
/// [`Rdma`] backend (remote read/write verbs, zero remote CPU). Which one
/// carries *data* traffic is the run's [`TransportKind`]; synchronization
/// traffic always rides the two-sided reliable wire.
pub struct Network {
    nprocs: usize,
    costs: CostModel,
    stats: NetStats,
    /// Per (src, dst) message counts, for diagnostics and tests.
    link_msgs: Box<[u64]>,
    drop_prob: f64,
    /// The two-sided fault-injecting transport (sequence numbers, bursts,
    /// FIFO, retransmission timers). Always present: sync traffic rides it
    /// regardless of the data backend.
    wire: Wire,
    /// The one-sided transport (queue pairs, completion timers). Always
    /// present so snapshots have a uniform layout; idle under
    /// [`TransportKind::TwoSided`].
    rdma: Rdma,
    /// Which personality carries data traffic.
    backend: TransportKind,
    /// Resolves every random decision (legacy flush drops and wire fault
    /// draws). The default wraps the RNG stream handed to [`Network::new`];
    /// an exploration driver swaps in its own via [`Network::set_scheduler`].
    sched: SharedScheduler,
}

// Cost model, drop probability, backend selection and the fault profile
// are configuration; the scheduler is the cluster's, snapshotted there.
dsm_sim::impl_state!(Network {
    config: nprocs, costs, drop_prob, backend, sched;
    state: stats, link_msgs, wire, rdma;
});

impl fmt::Debug for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Network")
            .field("nprocs", &self.nprocs)
            .field("drop_prob", &self.drop_prob)
            .field("backend", &self.backend)
            .field("fault", self.wire.fault())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Network {
    pub fn new(
        nprocs: usize,
        costs: CostModel,
        drop_prob: f64,
        fault: FaultProfile,
        rng: DetRng,
    ) -> Network {
        let sched = Rc::new(RefCell::new(VirtualTimeScheduler::new(rng)));
        Network::with_scheduler(nprocs, costs, drop_prob, fault, sched)
    }

    /// Build with an explicit decision scheduler (shared with the cluster)
    /// and the default two-sided backend.
    pub fn with_scheduler(
        nprocs: usize,
        costs: CostModel,
        drop_prob: f64,
        fault: FaultProfile,
        sched: SharedScheduler,
    ) -> Network {
        Network::with_transport(
            nprocs,
            costs,
            drop_prob,
            fault,
            TransportKind::TwoSided,
            RdmaParams::default(),
            sched,
        )
    }

    /// Build with an explicit backend selection. `rdma` parameterizes the
    /// one-sided personality; it is constructed (cheaply) either way so the
    /// snapshot layout does not depend on the backend.
    #[allow(clippy::too_many_arguments)]
    pub fn with_transport(
        nprocs: usize,
        costs: CostModel,
        drop_prob: f64,
        fault: FaultProfile,
        backend: TransportKind,
        rdma: RdmaParams,
        sched: SharedScheduler,
    ) -> Network {
        assert!(nprocs >= 1);
        assert!((0.0..=1.0).contains(&drop_prob));
        assert!(fault.validate(nprocs).is_empty(), "invalid fault profile");
        assert!(rdma.validate().is_empty(), "invalid rdma params");
        Network {
            nprocs,
            costs,
            stats: NetStats::new(),
            link_msgs: vec![0; nprocs * nprocs].into(),
            drop_prob,
            wire: Wire::new(nprocs, fault, WireTuning::default()),
            rdma: Rdma::new(nprocs, rdma),
            backend,
            sched,
        }
    }

    /// Replace the decision scheduler (exploration installs its own).
    pub fn set_scheduler(&mut self, sched: SharedScheduler) {
        self.sched = sched;
    }

    /// Common bookkeeping for any send: endpoint checks, Table 1 statistics,
    /// and link counters.
    fn prepare(&mut self, src: usize, dst: usize, kind: MsgKind, payload: usize) {
        assert!(src < self.nprocs && dst < self.nprocs, "bad endpoint");
        assert_ne!(src, dst, "no self-messages: local work is not a message");
        self.stats.record(kind, payload);
        self.link_msgs[src * self.nprocs + dst] += 1;
    }

    /// Send a reliable message of `kind` from `src` to `dst` at the
    /// sender's virtual instant `now`, always on the two-sided wire —
    /// this is the synchronization path (barrier arrivals/releases), and
    /// a one-sided verb cannot interrupt the remote CPU. Data traffic
    /// goes through [`Network::fetch`] / [`Network::push_reliable`] /
    /// [`Network::push_update`] instead, which route by backend.
    ///
    /// Reliable kinds cannot be lost: the wire acks, times out, and
    /// retransmits until the message lands, and the cost of doing so is
    /// folded into the returned legs (`wire` includes backoff and
    /// head-of-line delay; `retrans_wait` itemizes it). `now` anchors the
    /// per-channel FIFO clamp; on a faultless wire it is ignored and the
    /// legs are exactly the cost model's.
    pub fn send_reliable(
        &mut self,
        src: usize,
        dst: usize,
        kind: ReliableKind,
        payload: usize,
        now: Time,
    ) -> Transit {
        self.prepare(src, dst, kind.kind(), payload);
        let d = {
            let mut sched = self.sched.borrow_mut();
            self.wire
                .push_reliable(&self.costs, src, dst, payload, now, &mut *sched)
        };
        self.stats.retransmits += d.retransmits;
        self.stats.retransmit_bytes += (payload + HEADER_BYTES) as u64 * d.retransmits;
        self.stats.dups_suppressed += d.dups_suppressed;
        d.transit
    }

    /// Send a fire-and-forget flush of `kind` (an unreliable, droppable
    /// kind) from `src` to `dst` on the two-sided wire.
    ///
    /// Charge-then-drop: statistics and the full cost legs — including the
    /// sender leg — are committed *before* the loss decision. This is the
    /// paper's semantics: flushes "can be unreliable, and therefore do not
    /// need to be acknowledged", so the sender cannot know the message was
    /// lost and pays its send-side cost either way. The faulty wire may
    /// additionally deliver the flush twice; the outcome says so and the
    /// receiver must apply the copy idempotently.
    pub fn send_flush(
        &mut self,
        src: usize,
        dst: usize,
        kind: FlushKind,
        payload: usize,
    ) -> FlushOutcome {
        self.prepare(src, dst, kind.kind(), payload);
        let out = {
            let mut sched = self.sched.borrow_mut();
            self.wire.push_update(
                &self.costs,
                src,
                dst,
                payload,
                self.drop_prob,
                Time::ZERO,
                &mut *sched,
            )
        };
        if !out.delivered {
            self.stats.flushes_dropped += 1;
        }
        if out.duplicated {
            self.stats.flushes_duplicated += 1;
        }
        out
    }

    /// Synchronously fetch data: `rep_payload` bytes from `dst`, named by
    /// a `req_payload`-byte request, with server-side preparation `prep`.
    ///
    /// Two-sided this is the classic RPC pair (`req_kind` out at `now`,
    /// `rep_kind` back after the server prepares) — draw-for-draw what the
    /// two `send_reliable` calls used to be. One-sided it collapses into a
    /// single `OneSidedRead` of the payload: no request message, no server
    /// CPU, no preparation — the protocol layer has already sealed the
    /// data in fetchable form.
    #[allow(clippy::too_many_arguments)]
    pub fn fetch(
        &mut self,
        src: usize,
        dst: usize,
        req_kind: ReliableKind,
        req_payload: usize,
        rep_kind: ReliableKind,
        rep_payload: usize,
        prep: Time,
        now: Time,
    ) -> FetchDelivery {
        match self.backend {
            TransportKind::TwoSided => {
                self.prepare(src, dst, req_kind.kind(), req_payload);
                self.prepare(dst, src, rep_kind.kind(), rep_payload);
            }
            TransportKind::OneSided => {
                self.prepare(src, dst, MsgKind::OneSidedRead, rep_payload);
            }
        }
        let d = {
            let mut sched = self.sched.borrow_mut();
            let (t, costs) = {
                let t: &mut dyn Transport = match self.backend {
                    TransportKind::TwoSided => &mut self.wire,
                    TransportKind::OneSided => &mut self.rdma,
                };
                (t, &self.costs)
            };
            t.fetch(
                costs,
                src,
                dst,
                req_payload,
                rep_payload,
                prep,
                now,
                &mut *sched,
            )
        };
        self.stats.retransmits += d.req_retransmits + d.rep_retransmits;
        self.stats.retransmit_bytes += (req_payload + HEADER_BYTES) as u64 * d.req_retransmits
            + (rep_payload + HEADER_BYTES) as u64 * d.rep_retransmits;
        self.stats.dups_suppressed += d.dups_suppressed;
        d
    }

    /// Push `payload` bytes reliably (home flushes, page migrations),
    /// routed by backend: a reliable two-sided send, or a one-sided
    /// `OneSidedWrite` verb depositing the bytes into `dst`'s memory.
    pub fn push_reliable(
        &mut self,
        src: usize,
        dst: usize,
        kind: ReliableKind,
        payload: usize,
        now: Time,
    ) -> Transit {
        match self.backend {
            TransportKind::TwoSided => self.send_reliable(src, dst, kind, payload, now),
            TransportKind::OneSided => {
                self.prepare(src, dst, MsgKind::OneSidedWrite, payload);
                let d = {
                    let mut sched = self.sched.borrow_mut();
                    self.rdma
                        .push_reliable(&self.costs, src, dst, payload, now, &mut *sched)
                };
                d.transit
            }
        }
    }

    /// Push an update flush, routed by backend: the droppable two-sided
    /// flush (see [`Network::send_flush`]), or a reliable-connected
    /// one-sided write — always delivered, never duplicated, no draws.
    pub fn push_update(
        &mut self,
        src: usize,
        dst: usize,
        kind: FlushKind,
        payload: usize,
        now: Time,
    ) -> FlushOutcome {
        match self.backend {
            TransportKind::TwoSided => self.send_flush(src, dst, kind, payload),
            TransportKind::OneSided => {
                self.prepare(src, dst, MsgKind::OneSidedWrite, payload);
                let mut sched = self.sched.borrow_mut();
                self.rdma.push_update(
                    &self.costs,
                    src,
                    dst,
                    payload,
                    self.drop_prob,
                    now,
                    &mut *sched,
                )
            }
        }
    }

    /// Messages sent from `src` to `dst` so far.
    pub fn link_count(&self, src: usize, dst: usize) -> u64 {
        self.link_msgs[src * self.nprocs + dst]
    }

    /// Statistics since construction or the last [`Network::reset_stats`].
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Clear the statistics window (used to exclude warmup, like the paper).
    /// Wire channel state (sequence numbers, FIFO clamps) and queue-pair
    /// state are connection-lifetime and survive the reset.
    pub fn reset_stats(&mut self) {
        self.stats = NetStats::new();
        self.link_msgs.fill(0);
    }

    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    pub fn costs(&self) -> &CostModel {
        &self.costs
    }

    /// Which personality carries data traffic.
    pub fn transport(&self) -> TransportKind {
        self.backend
    }

    /// The one-sided backend (verb counters, for reports and tests).
    pub fn rdma(&self) -> &Rdma {
        &self.rdma
    }

    /// The transport's fault profile.
    pub fn fault(&self) -> &FaultProfile {
        self.wire.fault()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_sim::{SnapReader, SnapWriter, State};

    fn net(drop: f64) -> Network {
        Network::new(
            4,
            CostModel::default(),
            drop,
            FaultProfile::none(),
            DetRng::new(1),
        )
    }

    fn faulty(fault: FaultProfile) -> Network {
        Network::new(4, CostModel::default(), 0.0, fault, DetRng::new(1))
    }

    fn one_sided(drop: f64, fault: FaultProfile) -> Network {
        let sched = Rc::new(RefCell::new(VirtualTimeScheduler::new(DetRng::new(1))));
        Network::with_transport(
            4,
            CostModel::default(),
            drop,
            fault,
            TransportKind::OneSided,
            RdmaParams::default(),
            sched,
        )
    }

    #[test]
    fn send_records_stats_and_links() {
        let mut n = net(0.0);
        n.send_reliable(0, 1, ReliableKind::PageRequest, 0, Time::ZERO);
        n.send_reliable(1, 0, ReliableKind::PageReply, 8192, Time::ZERO);
        assert_eq!(n.stats().msgs_of(MsgKind::PageRequest), 1);
        assert_eq!(n.stats().bytes_of(MsgKind::PageReply), 8192);
        assert_eq!(n.link_count(0, 1), 1);
        assert_eq!(n.link_count(1, 0), 1);
        assert_eq!(n.link_count(0, 2), 0);
    }

    #[test]
    fn transit_legs_match_cost_model() {
        let mut n = net(0.0);
        let out = n.send_flush(0, 1, FlushKind::UpdateFlush, 100);
        let (s, w, r) = CostModel::default().msg_legs(100 + HEADER_BYTES);
        let t = out.transit;
        assert_eq!(t.sender, s);
        assert_eq!(t.wire, w);
        assert_eq!(t.receiver, r);
        assert_eq!(t.total(), s + w + r);
        assert!(out.delivered);
        assert!(!out.duplicated);
        let t = n.send_reliable(0, 1, ReliableKind::DiffRequest, 100, Time::ZERO);
        assert_eq!((t.sender, t.wire, t.receiver), (s, w, r));
        assert_eq!(t.attempts, 1);
        assert_eq!(t.retrans_wait, Time::ZERO);
    }

    #[test]
    fn rpc_pattern_costs_160us_for_small_messages() {
        // Request + reply with zero payload (headers excluded from the
        // paper's quoted RPC number, which we model by comparing against
        // the raw cost model).
        let c = CostModel::default();
        assert_eq!(c.rpc_round_trip(0), Time::from_us(160));
    }

    #[test]
    #[should_panic(expected = "no self-messages")]
    fn self_send_rejected() {
        net(0.0).send_flush(2, 2, FlushKind::UpdateFlush, 0);
    }

    #[test]
    fn two_sided_fetch_matches_paired_sends() {
        // The routed fetch on the default backend must be byte-identical
        // to the request/reply pair the call sites used to make by hand.
        let mut routed = net(0.0);
        let mut manual = net(0.0);
        let prep = Time::from_us(200);
        let d = routed.fetch(
            0,
            1,
            ReliableKind::DiffRequest,
            64,
            ReliableKind::DiffReply,
            4096,
            prep,
            Time::from_ms(1),
        );
        let req = manual.send_reliable(0, 1, ReliableKind::DiffRequest, 64, Time::from_ms(1));
        let rep = manual.send_reliable(
            1,
            0,
            ReliableKind::DiffReply,
            4096,
            Time::from_ms(1) + req.total() + prep,
        );
        assert_eq!(d.wait, req.total() + prep + rep.total());
        assert_eq!(d.server_cpu, req.receiver + prep + rep.sender);
        assert_eq!(routed.stats(), manual.stats());
        assert_eq!(routed.link_count(0, 1), 1);
        assert_eq!(routed.link_count(1, 0), 1);
    }

    #[test]
    fn one_sided_fetch_is_one_read_with_no_server_cpu() {
        let mut n = one_sided(0.0, FaultProfile::none());
        let d = n.fetch(
            0,
            1,
            ReliableKind::DiffRequest,
            64,
            ReliableKind::DiffReply,
            8192,
            Time::from_us(200),
            Time::ZERO,
        );
        assert_eq!(d.server_cpu, Time::ZERO, "no remote CPU one-sided");
        assert_eq!((d.req_attempts, d.rep_attempts), (1, 1));
        assert_eq!(d.retrans_wait, Time::ZERO);
        // One OneSidedRead carrying the payload; the request/reply pair
        // and the server preparation are gone.
        assert_eq!(n.stats().msgs_of(MsgKind::OneSidedRead), 1);
        assert_eq!(n.stats().bytes_of(MsgKind::OneSidedRead), 8192);
        assert_eq!(n.stats().msgs_of(MsgKind::DiffRequest), 0);
        assert_eq!(n.stats().msgs_of(MsgKind::DiffReply), 0);
        assert_eq!(n.link_count(0, 1), 1);
        assert_eq!(n.link_count(1, 0), 0, "nothing flows back");
        assert_eq!(n.rdma().completions(), 1);
    }

    #[test]
    fn one_sided_pushes_are_reliable_connected() {
        // Neither the legacy drop probability nor a hostile fault profile
        // touches one-sided verbs.
        let fault = FaultProfile {
            loss: 1.0,
            duplicate: 1.0,
            ..FaultProfile::none()
        };
        let mut n = one_sided(1.0, fault);
        let out = n.push_update(0, 1, FlushKind::UpdateFlush, 256, Time::ZERO);
        assert!(out.delivered);
        assert!(!out.duplicated);
        assert_eq!(n.stats().flushes_dropped, 0);
        assert_eq!(n.stats().msgs_of(MsgKind::OneSidedWrite), 1);
        let t = n.push_reliable(0, 2, ReliableKind::DiffFlushHome, 512, Time::ZERO);
        assert_eq!(t.attempts, 1);
        assert_eq!(t.receiver, Time::ZERO);
        assert_eq!(n.stats().msgs_of(MsgKind::OneSidedWrite), 2);
        assert_eq!(n.stats().msgs_of(MsgKind::DiffFlushHome), 0);
    }

    #[test]
    fn sync_traffic_stays_two_sided_under_one_sided_backend() {
        let mut n = one_sided(0.0, FaultProfile::none());
        let t = n.send_reliable(0, 1, ReliableKind::BarrierArrive, 16, Time::ZERO);
        let (s, w, r) = CostModel::default().msg_legs(16 + HEADER_BYTES);
        assert_eq!((t.sender, t.wire, t.receiver), (s, w, r));
        assert_eq!(n.stats().msgs_of(MsgKind::BarrierArrive), 1);
        assert_eq!(n.stats().msgs_of(MsgKind::OneSidedWrite), 0);
    }

    #[test]
    fn routed_push_apis_reduce_to_legacy_sends_two_sided() {
        let mut routed = net(0.0);
        let mut legacy = net(0.0);
        let a = routed.push_reliable(0, 1, ReliableKind::DiffFlushHome, 300, Time::ZERO);
        let b = legacy.send_reliable(0, 1, ReliableKind::DiffFlushHome, 300, Time::ZERO);
        assert_eq!(a, b);
        let a = routed.push_update(0, 1, FlushKind::UpdateFlush, 128, Time::from_ms(1));
        let b = legacy.send_flush(0, 1, FlushKind::UpdateFlush, 128);
        assert_eq!(a, b);
        assert_eq!(routed.stats(), legacy.stats());
    }

    #[test]
    fn lossy_network_drops_only_flushes() {
        let mut n = net(1.0);
        let out = n.send_flush(0, 1, FlushKind::UpdateFlush, 10);
        assert!(!out.delivered);
        assert!(!out.duplicated, "a lost flush cannot be duplicated");
        assert_eq!(n.stats().flushes_dropped, 1);
        // Reliable kinds don't even expose a drop: the type says delivered.
        let t = n.send_reliable(0, 1, ReliableKind::PageRequest, 0, Time::ZERO);
        assert_eq!(t.attempts, 1, "drop_prob does not touch reliable kinds");
        let t = n.send_reliable(0, 1, ReliableKind::DiffFlushHome, 10, Time::ZERO);
        assert_eq!(t.attempts, 1, "home flushes are reliable");
    }

    #[test]
    fn dropped_flush_still_pays_sender_and_records_stats() {
        // Charge-then-drop: the sender of an unreliable flush cannot know
        // the message is lost, so its legs and the traffic statistics are
        // identical to the delivered case; only `delivered` (and the
        // drop counter) differ.
        let mut lossy = net(1.0);
        let mut clean = net(0.0);
        let out_drop = lossy.send_flush(0, 1, FlushKind::UpdateFlush, 256);
        let out_ok = clean.send_flush(0, 1, FlushKind::UpdateFlush, 256);
        assert!(!out_drop.delivered);
        assert!(out_ok.delivered);
        let (t_drop, t_ok) = (out_drop.transit, out_ok.transit);
        assert_eq!(t_drop.sender, t_ok.sender, "sender leg charged either way");
        assert_eq!(t_drop.wire, t_ok.wire);
        assert_eq!(t_drop.receiver, t_ok.receiver);
        assert_eq!(
            lossy.stats().msgs_of(MsgKind::UpdateFlush),
            clean.stats().msgs_of(MsgKind::UpdateFlush)
        );
        assert_eq!(
            lossy.stats().bytes_of(MsgKind::UpdateFlush),
            clean.stats().bytes_of(MsgKind::UpdateFlush)
        );
        assert_eq!(lossy.link_count(0, 1), 1, "link counter ticks on drop too");
        assert_eq!(lossy.stats().flushes_dropped, 1);
        assert_eq!(clean.stats().flushes_dropped, 0);
    }

    #[test]
    fn injected_scheduler_decides_drops() {
        // A scripted scheduler: drop every other flush, ignoring `prob`.
        struct EveryOther(u32);
        impl dsm_sim::Scheduler for EveryOther {
            fn flush_drop(&mut self, _s: usize, _d: usize, _p: f64) -> bool {
                self.0 += 1;
                self.0.is_multiple_of(2)
            }
        }
        let sched: dsm_sim::SharedScheduler = Rc::new(RefCell::new(EveryOther(0)));
        let mut n =
            Network::with_scheduler(2, CostModel::default(), 0.0, FaultProfile::none(), sched);
        assert!(n.send_flush(0, 1, FlushKind::UpdateFlush, 8).delivered);
        assert!(!n.send_flush(0, 1, FlushKind::UpdateFlush, 8).delivered);
        assert!(n.send_flush(0, 1, FlushKind::UpdateFlush, 8).delivered);
        assert_eq!(n.stats().flushes_dropped, 1);
    }

    #[test]
    fn partial_loss_is_deterministic_per_seed() {
        let run = |seed| {
            let mut n = Network::new(
                2,
                CostModel::default(),
                0.5,
                FaultProfile::none(),
                DetRng::new(seed),
            );
            (0..100)
                .map(|_| n.send_flush(0, 1, FlushKind::UpdateFlush, 8).delivered)
                .collect::<Vec<bool>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
        let delivered = run(7).iter().filter(|&&d| d).count();
        assert!((20..80).contains(&delivered), "roughly half should arrive");
    }

    #[test]
    fn faulty_wire_counts_retransmits() {
        let mut n = faulty(FaultProfile {
            loss: 0.5,
            ..FaultProfile::none()
        });
        let mut total_wait = Time::ZERO;
        for i in 0..50 {
            let t = n.send_reliable(0, 1, ReliableKind::PageRequest, 64, Time::from_ms(i * 20));
            total_wait += t.retrans_wait;
        }
        assert!(n.stats().retransmits > 0, "50% loss must retransmit");
        assert!(n.stats().retransmit_bytes > 0);
        assert!(total_wait > Time::ZERO, "backoff shows up in transits");
        assert_eq!(
            n.stats().msgs_of(MsgKind::PageRequest),
            50,
            "Table 1 counts logical messages, not copies"
        );
    }

    #[test]
    fn faulty_wire_duplicates_flushes() {
        let mut n = faulty(FaultProfile {
            duplicate: 1.0,
            ..FaultProfile::none()
        });
        let out = n.send_flush(0, 1, FlushKind::UpdateFlush, 8);
        assert!(out.delivered);
        assert!(out.duplicated);
        assert_eq!(n.stats().flushes_duplicated, 1);
    }

    #[test]
    fn reset_stats_clears_window() {
        let mut n = net(0.0);
        n.send_reliable(0, 1, ReliableKind::PageRequest, 0, Time::ZERO);
        n.reset_stats();
        assert_eq!(n.stats().total_msgs(), 0);
        assert_eq!(n.link_count(0, 1), 0);
    }

    #[test]
    fn snapshot_round_trips_both_personalities() {
        let mut n = one_sided(0.0, FaultProfile::none());
        n.fetch(
            0,
            1,
            ReliableKind::PageRequest,
            0,
            ReliableKind::PageReply,
            8192,
            Time::ZERO,
            Time::from_ms(1),
        );
        n.send_reliable(0, 1, ReliableKind::BarrierArrive, 16, Time::from_ms(2));
        let mut w = SnapWriter::new();
        n.encode(&mut w);
        let bytes = w.into_bytes();
        let mut fresh = one_sided(0.0, FaultProfile::none());
        fresh.decode(&mut SnapReader::new(&bytes)).unwrap();
        assert_eq!(fresh.stats(), n.stats());
        assert_eq!(fresh.rdma().completions(), 1);
        assert_eq!(fresh.rdma().posted(0, 1), 1);
    }
}
