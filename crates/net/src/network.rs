//! The charging network: cost legs, statistics, loss injection, and the
//! backend routing between the two wire personalities.

use std::fmt;

use dsm_sim::{CostModel, FaultProfile, RdmaParams, SharedScheduler, Time, TransportKind};

use crate::message::{FlushKind, MsgKind, ReliableKind, HEADER_BYTES};
use crate::rdma::{QpState, Rdma};
use crate::stats::NetStats;
use crate::wire::{ChannelState, Wire};

/// The time legs of one message: the sender is charged `sender`, the
/// receiving handler is charged `receiver`, and anyone synchronously waiting
/// for the message experiences `total()`.
///
/// Reliable sends always produce a delivered `Transit` — the wire's
/// reliability sublayer retransmits until the message lands, and whatever it
/// cost is already folded into `wire` (itemized in `retrans_wait`). Only
/// [`Network::push_update`] can lose a message, and it says so in its
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
    /// Copies resent after a lost ack, which the receiver already had and
    /// suppressed by sequence number. They cost no delivery time.
    pub dups_suppressed: u32,
}

impl Transit {
    /// The cost model's legs, untouched: one attempt, no overhead.
    pub fn clean((sender, wire, receiver): (Time, Time, Time)) -> Transit {
        Transit {
            sender,
            wire,
            receiver,
            attempts: 1,
            retrans_wait: Time::ZERO,
            dups_suppressed: 0,
        }
    }

    /// End-to-end time seen by a synchronous waiter.
    pub fn total(&self) -> Time {
        self.sender + self.wire + self.receiver
    }

    /// Copies put on the wire beyond the first: one per lost data attempt
    /// and one per lost ack.
    pub fn retransmits(&self) -> u64 {
        u64::from(self.attempts - 1 + self.dups_suppressed)
    }
}

/// The result of a fire-and-forget flush: the legs, and what the unreliable
/// wire did with the message. The sender has paid `transit.sender` either
/// way (charge-then-drop); `delivered == false` means nothing arrives, and
/// `duplicated == true` means the receiver gets the message *twice* and
/// must treat the second copy idempotently. The one-sided backend is
/// reliable-connected: its pushes are always delivered, never duplicated.
/// The flags are the only record of loss or duplication, so an outcome
/// must be consumed (`unused_must_use` is denied workspace-wide).
#[must_use]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlushOutcome {
    pub transit: Transit,
    pub delivered: bool,
    pub duplicated: bool,
}

/// What happened to one synchronous data fetch: a request/reply pair
/// (two-sided) or a single remote read (one-sided).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FetchDelivery {
    /// End-to-end time the initiator waits: request out, server
    /// preparation, data back. On the one-sided backend this is post +
    /// wire + poll — there is no server preparation to wait for.
    pub wait: Time,
    /// CPU charged to the remote node for serving the fetch (SIGIO
    /// request handling + reply preparation). Zero on the one-sided
    /// backend: that is its defining property.
    pub server_cpu: Time,
    /// Portion of `wait` that is fault overhead (both legs combined).
    pub retrans_wait: Time,
    /// Data attempts of the request leg (always 1 one-sided).
    pub req_attempts: u32,
    /// Data attempts of the reply leg (always 1 one-sided).
    pub rep_attempts: u32,
}

/// The cluster interconnect: a full crossbar with two wire personalities —
/// the lossy two-sided [`Wire`] (acks, retransmission, droppable flushes)
/// and the one-sided [`Rdma`] backend (remote read/write verbs, zero remote
/// CPU). Which one carries *data* traffic is the run's [`TransportKind`],
/// resolved by one `match` in each data verb; synchronization traffic
/// always rides the two-sided reliable wire.
pub struct Network {
    nprocs: usize,
    costs: CostModel,
    stats: NetStats,
    drop_prob: f64,
    /// The two-sided fault-injecting transport (sequence numbers, bursts,
    /// FIFO). Always present: sync traffic rides it regardless of the data
    /// backend.
    wire: Wire,
    /// The one-sided transport (queue pairs). Always present so snapshots
    /// have a uniform layout; idle under [`TransportKind::TwoSided`].
    rdma: Rdma,
    /// Which personality carries data traffic.
    backend: TransportKind,
    /// Resolves every random decision (legacy flush drops and wire fault
    /// draws); shared with the cluster, which may swap in an exploration
    /// driver's via [`Network::set_scheduler`].
    sched: SharedScheduler,
}

// Cost model, drop probability, backend selection and the fault profile
// are configuration; the scheduler is the cluster's, snapshotted there.
dsm_sim::impl_state!(Network {
    config: nprocs, costs, drop_prob, backend, sched;
    state: stats, wire, rdma;
});

/// An in-memory capture of a [`Network`]'s state ([`Network::save`]):
/// the counters, the wire's channels and the one-sided queue pairs.
#[derive(Debug)]
pub struct NetSave {
    stats: NetStats,
    channels: Box<[ChannelState]>,
    qps: Box<[QpState]>,
}

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
    /// Build with the decision scheduler (shared with the cluster) and the
    /// data backend. `rdma` parameterizes the one-sided personality; it is
    /// constructed (cheaply) either way so the snapshot layout does not
    /// depend on the backend.
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
            drop_prob,
            wire: Wire::new(nprocs, fault),
            rdma: Rdma::new(nprocs, rdma),
            backend,
            sched,
        }
    }

    /// Capture the `state` the declaration above lists, in memory.
    pub fn save(&self) -> NetSave {
        let Network {
            nprocs: _,
            costs: _,
            stats,
            drop_prob: _,
            wire,
            rdma,
            backend: _,
            sched: _,
        } = self;
        NetSave {
            stats: stats.clone(),
            channels: wire.channels.clone(),
            qps: rdma.qps.clone(),
        }
    }

    /// Return to a [`Network::save`] capture of a network built from the
    /// same configuration, in place.
    pub fn load(&mut self, save: &NetSave) {
        self.stats.clone_from(&save.stats);
        self.wire.channels.clone_from_slice(&save.channels);
        self.rdma.qps.clone_from_slice(&save.qps);
    }

    /// Replace the decision scheduler (exploration installs its own).
    pub fn set_scheduler(&mut self, sched: SharedScheduler) {
        self.sched = sched;
    }

    /// Common bookkeeping for any send: endpoint checks and Table 1
    /// statistics.
    fn prepare(&mut self, src: usize, dst: usize, kind: MsgKind, payload: usize) {
        assert!(src < self.nprocs && dst < self.nprocs, "bad endpoint");
        assert_ne!(src, dst, "no self-messages: local work is not a message");
        self.stats.record(kind, payload);
    }

    /// One reliable two-sided message through the wire's retry ladder,
    /// with its retransmission overhead folded into the statistics.
    fn reliable(&mut self, src: usize, dst: usize, payload: usize, now: Time) -> Transit {
        let legs = self.costs.msg_legs(payload + HEADER_BYTES);
        let t = self
            .wire
            .resolve_reliable(src, dst, legs, now, &mut *self.sched.borrow_mut());
        self.stats.retransmits += t.retransmits();
        self.stats.retransmit_bytes += (payload + HEADER_BYTES) as u64 * t.retransmits();
        self.stats.dups_suppressed += u64::from(t.dups_suppressed);
        t
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
        self.reliable(src, dst, payload, now)
    }

    /// Synchronously fetch data: `rep_payload` bytes from `dst`, named by
    /// a `req_payload`-byte request, with server-side preparation `prep`.
    ///
    /// Two-sided this is the paper's RPC shape: `req_kind` out at `now`,
    /// `rep_kind` back after the server prepares — draw-for-draw two
    /// `send_reliable` calls. One-sided it collapses into a single
    /// `OneSidedRead` of the payload: no request message, no server CPU,
    /// no preparation — the protocol layer has already sealed the data in
    /// fetchable form.
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
                let req = self.reliable(src, dst, req_payload, now);
                let rep = self.reliable(dst, src, rep_payload, now + req.total() + prep);
                FetchDelivery {
                    wait: req.total() + prep + rep.total(),
                    server_cpu: req.receiver + prep + rep.sender,
                    retrans_wait: req.retrans_wait + rep.retrans_wait,
                    req_attempts: req.attempts,
                    rep_attempts: rep.attempts,
                }
            }
            TransportKind::OneSided => {
                // The request identifier rides the verb (not modeled as
                // bytes) and `prep` vanishes: there is no server.
                self.prepare(src, dst, MsgKind::OneSidedRead, rep_payload);
                let t = self.rdma.read(src, dst, rep_payload, now);
                FetchDelivery {
                    wait: t.total(),
                    server_cpu: Time::ZERO,
                    retrans_wait: Time::ZERO,
                    req_attempts: 1,
                    rep_attempts: 1,
                }
            }
        }
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
                self.rdma.write(src, dst, payload, now)
            }
        }
    }

    /// Push an update flush of `kind` (an unreliable, droppable kind),
    /// routed by backend.
    ///
    /// Two-sided it is fire-and-forget, charge-then-drop: statistics and
    /// the full cost legs — including the sender leg — are committed
    /// *before* the loss decision. This is the paper's semantics: flushes
    /// "can be unreliable, and therefore do not need to be acknowledged",
    /// so the sender cannot know the message was lost and pays its
    /// send-side cost either way. The legacy drop draw comes first (the
    /// only draw on a clean wire), then the fault profile resolves the
    /// survivor; the faulty wire may deliver it twice, and the receiver
    /// must apply the copy idempotently. Flushes are unanchored: `now` is
    /// ignored.
    ///
    /// One-sided it is a reliable-connected write — always delivered,
    /// never duplicated, no draws.
    pub fn push_update(
        &mut self,
        src: usize,
        dst: usize,
        kind: FlushKind,
        payload: usize,
        now: Time,
    ) -> FlushOutcome {
        let out = match self.backend {
            TransportKind::TwoSided => {
                self.prepare(src, dst, kind.kind(), payload);
                let legs = self.costs.msg_legs(payload + HEADER_BYTES);
                let mut sched = self.sched.borrow_mut();
                let dropped = sched.flush_drop(src, dst, self.drop_prob);
                let mut out = self.wire.resolve_flush(src, dst, legs, &mut *sched);
                out.delivered &= !dropped;
                out.duplicated &= out.delivered;
                out
            }
            TransportKind::OneSided => {
                self.prepare(src, dst, MsgKind::OneSidedWrite, payload);
                FlushOutcome {
                    transit: self.rdma.write(src, dst, payload, now),
                    delivered: true,
                    duplicated: false,
                }
            }
        };
        self.stats.flushes_dropped += u64::from(!out.delivered);
        self.stats.flushes_duplicated += u64::from(out.duplicated);
        out
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
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::rc::Rc;

    use super::*;
    use dsm_sim::{DetRng, Scheduler, SnapReader, SnapWriter, State, VirtualTimeScheduler};

    #[expect(clippy::disallowed_methods, reason = "unit tests drive a bare Network")]
    fn build(backend: TransportKind, drop: f64, fault: FaultProfile, seed: u64) -> Network {
        let sched = Rc::new(RefCell::new(VirtualTimeScheduler::new(DetRng::new(seed))));
        let params = RdmaParams::default();
        Network::with_transport(4, CostModel::default(), drop, fault, backend, params, sched)
    }

    fn net(drop: f64) -> Network {
        build(TransportKind::TwoSided, drop, FaultProfile::none(), 1)
    }

    fn faulty(fault: FaultProfile) -> Network {
        build(TransportKind::TwoSided, 0.0, fault, 1)
    }

    fn one_sided(drop: f64, fault: FaultProfile) -> Network {
        build(TransportKind::OneSided, drop, fault, 1)
    }

    /// A two-sided update flush (its `now` is ignored).
    fn flush(n: &mut Network, src: usize, dst: usize, payload: usize) -> FlushOutcome {
        n.push_update(src, dst, FlushKind::UpdateFlush, payload, Time::ZERO)
    }

    #[test]
    fn send_records_stats_and_links() {
        let mut n = net(0.0);
        n.send_reliable(0, 1, ReliableKind::PageRequest, 0, Time::ZERO);
        n.send_reliable(1, 0, ReliableKind::PageReply, 8192, Time::ZERO);
        assert_eq!(n.stats().msgs_of(MsgKind::PageRequest), 1);
        assert_eq!(n.stats().bytes_of(MsgKind::PageReply), 8192);
        assert_eq!(n.stats().total_msgs(), 2);
    }

    #[test]
    fn transit_legs_match_cost_model() {
        let mut n = net(0.0);
        let out = flush(&mut n, 0, 1, 100);
        let (s, w, r) = CostModel::default().msg_legs(100 + HEADER_BYTES);
        let t = out.transit;
        assert_eq!(t.sender, s);
        assert_eq!(t.wire, w);
        assert_eq!(t.receiver, r);
        assert_eq!(t.total(), s + w + r);
        assert!(out.delivered);
        assert!(!out.duplicated);
        let t = n.send_reliable(0, 1, ReliableKind::DiffRequest, 100, Time::ZERO);
        assert_eq!(t, Transit::clean((s, w, r)));
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
        let _ = flush(&mut net(0.0), 2, 2, 0);
    }

    /// `fetch` against the two `send_reliable` calls its two-sided arm
    /// stands for, 64 times on twin networks: same legs, same statistics,
    /// and the same number of generator draws. Returns the statistics.
    fn fetch_matches_paired_sends(mut routed: Network, mut manual: Network) -> NetStats {
        let prep = Time::from_us(200);
        let (req_kind, rep_kind) = (ReliableKind::DiffRequest, ReliableKind::DiffReply);
        for i in 0..64 {
            let now = Time::from_ms(3 * i);
            let d = routed.fetch(0, 1, req_kind, 64, rep_kind, 4096, prep, now);
            let req = manual.send_reliable(0, 1, req_kind, 64, now);
            let rep = manual.send_reliable(1, 0, rep_kind, 4096, now + req.total() + prep);
            assert_eq!(d.wait, req.total() + prep + rep.total());
            assert_eq!(d.server_cpu, req.receiver + prep + rep.sender);
            assert_eq!(d.retrans_wait, req.retrans_wait + rep.retrans_wait);
            assert_eq!(d.req_attempts, req.attempts);
            assert_eq!(d.rep_attempts, rep.attempts);
        }
        assert_eq!(routed.stats(), manual.stats());
        let next = |n: &Network| n.sched.borrow_mut().wire_chance(0.5);
        for _ in 0..8 {
            assert_eq!(next(&routed), next(&manual), "draw-for-draw");
        }
        routed.stats().clone()
    }

    #[test]
    fn two_sided_fetch_matches_paired_sends() {
        // The routed fetch on the default backend must be byte-identical
        // to the request/reply pair the call sites used to make by hand.
        let stats = fetch_matches_paired_sends(net(0.0), net(0.0));
        assert_eq!(stats.msgs_of(MsgKind::DiffRequest), 64);
        assert_eq!(stats.msgs_of(MsgKind::DiffReply), 64);
        assert_eq!(stats.retransmits, 0);
    }

    #[test]
    fn lossy_fetch_matches_two_reliable_sends() {
        // The only check that a *lossy* two-sided fetch walks both retry
        // ladders exactly as two reliable sends would.
        for fault in [FaultProfile::iid_loss(), FaultProfile::burst_loss()] {
            let stats = fetch_matches_paired_sends(faulty(fault.clone()), faulty(fault));
            assert!(stats.retransmits > 0, "the ladder must be exercised");
        }
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
        // and the server preparation are gone, and nothing flows back.
        assert_eq!(n.stats().msgs_of(MsgKind::OneSidedRead), 1);
        assert_eq!(n.stats().bytes_of(MsgKind::OneSidedRead), 8192);
        assert_eq!(n.stats().total_msgs(), 1);
        let p = RdmaParams::default();
        let pre = p.qp_setup_ns + p.post_overhead_ns;
        assert_eq!(d.wait, Time::from_ns(pre + p.poll_ns) + p.read_wire(8192));
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
        // A two-sided flush is unanchored: its instant changes nothing.
        let a = routed.push_update(0, 1, FlushKind::UpdateFlush, 128, Time::from_ms(1));
        let b = flush(&mut legacy, 0, 1, 128);
        assert_eq!(a, b);
        assert_eq!(routed.stats(), legacy.stats());
    }

    #[test]
    fn lossy_network_drops_only_flushes() {
        let mut n = net(1.0);
        let out = flush(&mut n, 0, 1, 10);
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
        let out_drop = flush(&mut lossy, 0, 1, 256);
        let out_ok = flush(&mut clean, 0, 1, 256);
        assert!(!out_drop.delivered);
        assert!(out_ok.delivered);
        assert_eq!(out_drop.transit, out_ok.transit, "legs charged either way");
        assert_eq!(
            lossy.stats().msgs_of(MsgKind::UpdateFlush),
            clean.stats().msgs_of(MsgKind::UpdateFlush)
        );
        assert_eq!(
            lossy.stats().bytes_of(MsgKind::UpdateFlush),
            clean.stats().bytes_of(MsgKind::UpdateFlush)
        );
        assert_eq!(lossy.stats().flushes_dropped, 1);
        assert_eq!(clean.stats().flushes_dropped, 0);
    }

    #[test]
    fn injected_scheduler_decides_drops() {
        // A scripted scheduler: drop every other flush, ignoring `prob`.
        struct EveryOther(u32);
        impl Scheduler for EveryOther {
            fn flush_drop(&mut self, _s: usize, _d: usize, _p: f64) -> bool {
                self.0 += 1;
                self.0.is_multiple_of(2)
            }
        }
        let mut n = net(0.0);
        n.set_scheduler(Rc::new(RefCell::new(EveryOther(0))));
        assert!(flush(&mut n, 0, 1, 8).delivered);
        assert!(!flush(&mut n, 0, 1, 8).delivered);
        assert!(flush(&mut n, 0, 1, 8).delivered);
        assert_eq!(n.stats().flushes_dropped, 1);
    }

    #[test]
    fn partial_loss_is_deterministic_per_seed() {
        let run = |seed| {
            let mut n = build(TransportKind::TwoSided, 0.5, FaultProfile::none(), seed);
            (0..100)
                .map(|_| flush(&mut n, 0, 1, 8).delivered)
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
        let mut copies = 0;
        for i in 0..50 {
            let t = n.send_reliable(0, 1, ReliableKind::PageRequest, 64, Time::from_ms(i * 20));
            total_wait += t.retrans_wait;
            copies += t.retransmits();
        }
        assert!(n.stats().retransmits > 0, "50% loss must retransmit");
        assert_eq!(n.stats().retransmits, copies, "stats sum the transits");
        assert_eq!(
            n.stats().retransmit_bytes,
            copies * (64 + HEADER_BYTES) as u64
        );
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
        let out = flush(&mut n, 0, 1, 8);
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
            65536,
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
        // The queue pair is restored connected with its completion clamp:
        // the next read costs the same in both instances.
        let read = |n: &mut Network| {
            let rep = ReliableKind::PageReply;
            n.fetch(
                0,
                1,
                ReliableKind::PageRequest,
                0,
                rep,
                64,
                Time::ZERO,
                Time::from_ms(1),
            )
        };
        assert_eq!(read(&mut fresh), read(&mut n));
    }
}
