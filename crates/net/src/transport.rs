//! The [`Transport`] trait: two wire personalities under one `Network`.
//!
//! The charging [`crate::Network`] is the single entry point for every
//! logical message, but *how* data traffic crosses the wire is a backend
//! decision ([`TransportKind`]):
//!
//! * **Two-sided** — the paper's environment. A fetch is a request/reply
//!   RPC pair over the lossy [`Wire`]: the server burns CPU in a SIGIO
//!   handler preparing the reply, reliable kinds ack/timeout/retransmit,
//!   and update flushes are fire-and-forget droppable.
//! * **One-sided** — RDMA-style verbs (`crate::rdma::Rdma`). A fetch is
//!   a single remote read with *no* receiver involvement: the
//!   request/reply pair collapses into one posted operation, server CPU
//!   is zero by construction, and reliable-connected semantics mean no
//!   loss, duplication, or reordering below the verbs.
//!
//! The trait deliberately speaks in protocol verbs (fetch a page or
//! diff, push an update, push a reliable flush) rather than raw sends:
//! the personalities differ in *message shape*, not just cost, and the
//! verb level is where the shapes unify. Synchronization traffic
//! (barrier arrivals/releases) never routes through the trait — an RDMA
//! NIC does not interrupt the remote CPU, so a barrier still needs the
//! active two-sided receiver.

use dsm_sim::{CostModel, Scheduler, Time, TransportKind};

use crate::message::HEADER_BYTES;
use crate::network::{FlushOutcome, Transit};
use crate::wire::Wire;

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
    /// Extra copies of the request put on the wire.
    pub req_retransmits: u64,
    /// Extra copies of the reply put on the wire.
    pub rep_retransmits: u64,
    /// Duplicate deliveries suppressed by sequence number, both legs.
    pub dups_suppressed: u64,
}

/// What happened to one reliable one-way push (home flushes, page
/// migrations): the legs plus the retransmit accounting the stats layer
/// folds in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PushDelivery {
    pub transit: Transit,
    /// Extra copies put on the wire (zero one-sided).
    pub retransmits: u64,
    /// Suppressed duplicate deliveries (zero one-sided).
    pub dups_suppressed: u64,
}

/// One wire personality. Implemented by the two-sided lossy [`Wire`]
/// and the one-sided [`crate::rdma::Rdma`]; `Network` owns both and
/// routes data traffic to whichever the run configuration selects.
///
/// Payload sizes are protocol payload; the two-sided implementation
/// adds [`HEADER_BYTES`] per message (UDP + CVM envelope), the
/// one-sided one does not (verb headers ride the NIC, not the model).
pub trait Transport {
    /// Which personality this is.
    fn kind(&self) -> TransportKind;

    /// Synchronously fetch `rep_payload` bytes of data from `dst`,
    /// identified by a `req_payload`-byte request. `prep` is the
    /// server-side preparation cost (reply assembly) — paid and waited
    /// for two-sided, skipped entirely one-sided (the data must already
    /// be fetchable in place; the protocol layer guarantees it by
    /// sealing diffs eagerly).
    #[allow(clippy::too_many_arguments)]
    fn fetch(
        &mut self,
        costs: &CostModel,
        src: usize,
        dst: usize,
        req_payload: usize,
        rep_payload: usize,
        prep: Time,
        now: Time,
        sched: &mut dyn Scheduler,
    ) -> FetchDelivery;

    /// Push `payload` bytes from `src` to `dst`, reliably: delivery is
    /// certain on both personalities (acked/retransmitted two-sided,
    /// reliable-connected one-sided).
    fn push_reliable(
        &mut self,
        costs: &CostModel,
        src: usize,
        dst: usize,
        payload: usize,
        now: Time,
        sched: &mut dyn Scheduler,
    ) -> PushDelivery;

    /// Push an update flush. Two-sided this is fire-and-forget — the
    /// legacy drop draw and the fault profile may lose or duplicate it.
    /// One-sided it is a remote write with reliable-connected
    /// semantics: always delivered, never duplicated, no draws.
    #[allow(clippy::too_many_arguments)]
    fn push_update(
        &mut self,
        costs: &CostModel,
        src: usize,
        dst: usize,
        payload: usize,
        drop_prob: f64,
        now: Time,
        sched: &mut dyn Scheduler,
    ) -> FlushOutcome;
}

impl Transport for Wire {
    fn kind(&self) -> TransportKind {
        TransportKind::TwoSided
    }

    /// The paper's RPC shape: resolve the request at `now`, then the
    /// reply at `now + request + prep` — exactly the two
    /// `resolve_reliable` calls the protocol layer used to make, so a
    /// two-sided run is draw-for-draw identical to the pre-trait code.
    fn fetch(
        &mut self,
        costs: &CostModel,
        src: usize,
        dst: usize,
        req_payload: usize,
        rep_payload: usize,
        prep: Time,
        now: Time,
        sched: &mut dyn Scheduler,
    ) -> FetchDelivery {
        let req_legs = costs.msg_legs(req_payload + HEADER_BYTES);
        let req = self.resolve_reliable(src, dst, req_legs, now, sched);
        let req_total = req.sender + req.wire + req.receiver;
        let rep_legs = costs.msg_legs(rep_payload + HEADER_BYTES);
        let rep = self.resolve_reliable(dst, src, rep_legs, now + req_total + prep, sched);
        FetchDelivery {
            wait: req_total + prep + rep.sender + rep.wire + rep.receiver,
            server_cpu: req.receiver + prep + rep.sender,
            retrans_wait: req.retrans_wait + rep.retrans_wait,
            req_attempts: req.attempts,
            rep_attempts: rep.attempts,
            req_retransmits: req.retransmits,
            rep_retransmits: rep.retransmits,
            dups_suppressed: req.dup_suppressed + rep.dup_suppressed,
        }
    }

    fn push_reliable(
        &mut self,
        costs: &CostModel,
        src: usize,
        dst: usize,
        payload: usize,
        now: Time,
        sched: &mut dyn Scheduler,
    ) -> PushDelivery {
        let legs = costs.msg_legs(payload + HEADER_BYTES);
        let d = self.resolve_reliable(src, dst, legs, now, sched);
        PushDelivery {
            transit: Transit {
                sender: d.sender,
                wire: d.wire,
                receiver: d.receiver,
                attempts: d.attempts,
                retrans_wait: d.retrans_wait,
            },
            retransmits: d.retransmits,
            dups_suppressed: d.dup_suppressed,
        }
    }

    /// Charge-then-drop, legacy draw first (bit-identity: the only draw
    /// on a clean wire), then the fault-profile resolution for
    /// survivors.
    fn push_update(
        &mut self,
        costs: &CostModel,
        src: usize,
        dst: usize,
        payload: usize,
        drop_prob: f64,
        now: Time,
        sched: &mut dyn Scheduler,
    ) -> FlushOutcome {
        let _ = now; // flushes are unanchored: no FIFO clamp, no timers
        let legs = costs.msg_legs(payload + HEADER_BYTES);
        let dropped = sched.flush_drop(src, dst, drop_prob);
        let f = self.resolve_flush(src, dst, legs, sched);
        let delivered = !dropped && !f.lost;
        FlushOutcome {
            transit: Transit {
                sender: f.sender,
                wire: f.wire,
                receiver: f.receiver,
                attempts: 1,
                retrans_wait: Time::ZERO,
            },
            delivered,
            duplicated: delivered && f.duplicated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_sim::{FaultProfile, VirtualTimeScheduler};

    use crate::wire::WireTuning;

    #[test]
    fn wire_fetch_matches_two_resolved_sends() {
        // The trait adapter must be draw-for-draw and leg-for-leg the
        // same as the two send_reliable calls the call sites used to
        // make.
        let costs = CostModel::default();
        let mut a = Wire::new(2, FaultProfile::iid_loss(), WireTuning::default());
        let mut b = a.clone();
        let mut sa = VirtualTimeScheduler::from_seed(9);
        let mut sb = VirtualTimeScheduler::from_seed(9);
        let prep = Time::from_us(200);
        let now = Time::from_ms(3);
        let d = Transport::fetch(&mut a, &costs, 0, 1, 64, 8192, prep, now, &mut sa);
        let req = b.resolve_reliable(0, 1, costs.msg_legs(64 + HEADER_BYTES), now, &mut sb);
        let req_total = req.sender + req.wire + req.receiver;
        let rep = b.resolve_reliable(
            1,
            0,
            costs.msg_legs(8192 + HEADER_BYTES),
            now + req_total + prep,
            &mut sb,
        );
        assert_eq!(
            d.wait,
            req_total + prep + rep.sender + rep.wire + rep.receiver
        );
        assert_eq!(d.server_cpu, req.receiver + prep + rep.sender);
        assert_eq!(d.retrans_wait, req.retrans_wait + rep.retrans_wait);
        assert_eq!(
            (d.req_attempts, d.rep_attempts),
            (req.attempts, rep.attempts)
        );
        assert_eq!(
            d.req_retransmits + d.rep_retransmits,
            req.retransmits + rep.retransmits
        );
    }

    #[test]
    fn wire_kind_is_two_sided() {
        let w = Wire::new(2, FaultProfile::none(), WireTuning::default());
        assert_eq!(Transport::kind(&w), TransportKind::TwoSided);
    }
}
