//! The reliability sublayer: a lossy wire under the charging network.
//!
//! The paper's CVM runs over UDP/IP and exploits unreliability only for
//! update flushes ("flushes can be unreliable, and therefore do not need to
//! be acknowledged"); everything else is implicitly assumed delivered. This
//! module makes that assumption explicit and earns it on a faulty wire:
//! reliable kinds get ack/timeout/exponential-backoff retransmission with
//! sequence-numbered duplicate suppression and per-channel in-order
//! delivery, while droppable flushes stay fire-and-forget (lost is lost,
//! and a delivered flush may even arrive twice).
//!
//! # Timer model
//!
//! Virtual, analytic, deterministic. Attempt `k` (1-based) of a reliable
//! send times out after [`rto`]`(k) = min(RTO_BASE << (k-1), RTO_MAX)`
//! and the next copy goes out. Because the simulation is
//! barrier-synchronous and the caller blocks on the message anyway, the
//! whole retry ladder is resolved inside the send call as arithmetic on
//! the loss draws: each lost attempt adds its timeout to the wire leg, and
//! the returned [`Transit`] already contains every delay. No timer is ever
//! pending between calls, so there is no timer state to keep. An ack lost
//! on the return path does not delay delivery — the receiver already has
//! the data — but it does trigger a retransmission whose copy the receiver
//! recognizes by sequence number and drops ([`Transit::dups_suppressed`]).
//!
//! # Why zero-fault is bit-identical
//!
//! Under [`FaultProfile::none`] this module performs no generator draws
//! (`Scheduler::wire_chance` with `prob <= 0` consumes no state, and the
//! fault path is skipped entirely), applies no FIFO clamp, and returns
//! exactly the cost-model legs it was given. A lossless run is therefore
//! byte-identical to one built without the sublayer; the committed
//! `results/*.txt` files pin this.

use dsm_sim::{FaultProfile, Scheduler, Time};

use crate::network::{FlushOutcome, Transit};

/// Base retransmission timeout (attempt 1): twice the paper's 160 µs
/// small-message RPC round trip.
pub const RTO_BASE: Time = Time::from_us(320);

/// Backoff ceiling.
pub const RTO_MAX: Time = Time::from_ms(10);

/// Attempt cap. A message that has lost this many data attempts is
/// delivered anyway — the simulated wire eventually carries it — so a
/// `loss = 1.0` profile cannot hang the simulation.
pub const MAX_ATTEMPTS: u32 = 16;

/// Retransmission timeout of (1-based) attempt `attempt`.
pub fn rto(attempt: u32) -> Time {
    Time::from_ns(RTO_BASE.as_ns() << (attempt - 1).min(63)).min(RTO_MAX)
}

/// Wire-leg stretch applied to a slow-pathed (reordered) packet.
const REORDER_STRETCH: u64 = 4;

/// Per-(src, dst) channel bookkeeping.
#[derive(Clone, Debug, Default)]
struct ChannelState {
    /// Sequence number stamped on the next reliable message.
    next_seq: u64,
    /// Highest sequence delivered in order (0 = none yet).
    delivered_seq: u64,
    /// Remaining forced losses of the current loss burst.
    burst_left: u32,
    /// Instant the channel frees up: no later reliable message may be
    /// delivered before an earlier one (per-channel FIFO).
    clear_at: Time,
}

dsm_sim::impl_state!(ChannelState { state: next_seq, delivered_seq, burst_left, clear_at; });

/// The fault-injecting transport beneath [`crate::Network`].
///
/// Owns per-channel sequence/burst/FIFO state; draws every random decision
/// through the installed [`Scheduler`], so runs replay bit-identically and
/// explorers can enumerate instead of draw.
#[derive(Debug, Clone)]
pub struct Wire {
    nprocs: usize,
    fault: FaultProfile,
    channels: Box<[ChannelState]>,
}

dsm_sim::impl_state!(Wire {
    config: nprocs, fault;
    state: channels;
});

impl Wire {
    pub fn new(nprocs: usize, fault: FaultProfile) -> Wire {
        Wire {
            nprocs,
            fault,
            channels: vec![ChannelState::default(); nprocs * nprocs].into(),
        }
    }

    pub fn fault(&self) -> &FaultProfile {
        &self.fault
    }

    /// Highest in-order-delivered sequence number on `src → dst`.
    pub fn delivered_seq(&self, src: usize, dst: usize) -> u64 {
        self.channels[src * self.nprocs + dst].delivered_seq
    }

    /// Scale legs for the per-node slowdown, if `src` or `dst` is slow.
    fn scale_legs(&self, src: usize, dst: usize, legs: (Time, Time, Time)) -> (Time, Time, Time) {
        match self.fault.slow_node {
            Some(n) if n == src || n == dst => (
                legs.0.scale_f64(self.fault.slow_factor),
                legs.1.scale_f64(self.fault.slow_factor),
                legs.2.scale_f64(self.fault.slow_factor),
            ),
            _ => legs,
        }
    }

    /// One loss draw on channel `src → dst`, honouring burst state. A
    /// successful traversal may start a burst behind itself.
    fn loss_draw(&mut self, src: usize, dst: usize, sched: &mut dyn Scheduler) -> bool {
        let ci = src * self.nprocs + dst;
        if self.channels[ci].burst_left > 0 {
            self.channels[ci].burst_left -= 1;
            return true;
        }
        if sched.wire_chance(self.fault.loss) {
            return true;
        }
        if self.fault.burst_start > 0.0 && sched.wire_chance(self.fault.burst_start) {
            self.channels[ci].burst_left = self.fault.burst_len;
        }
        false
    }

    /// Resolve one reliable message sent at virtual instant `now` with the
    /// faultless cost legs `legs`. Returns the adjusted legs; delivery is
    /// certain (that is the point of the sublayer).
    pub fn resolve_reliable(
        &mut self,
        src: usize,
        dst: usize,
        legs: (Time, Time, Time),
        now: Time,
        sched: &mut dyn Scheduler,
    ) -> Transit {
        let ci = src * self.nprocs + dst;
        self.channels[ci].next_seq += 1;
        let seq = self.channels[ci].next_seq;

        if self.fault.is_none() {
            // Perfect wire: no draws, no clamp — the legs pass through
            // untouched (bit-identity with the pre-wire network).
            self.channels[ci].delivered_seq = seq;
            return Transit::clean(legs);
        }

        let (s, w, r) = self.scale_legs(src, dst, legs);
        let send_at = now + s;

        // Data ladder: each lost copy times out and is resent, until one
        // gets through (or the attempt cap forces delivery).
        let mut attempts = 1u32;
        let mut backoff = Time::ZERO;
        while self.loss_draw(src, dst, sched) && attempts < MAX_ATTEMPTS {
            backoff += rto(attempts);
            attempts += 1;
        }

        // Slow path (reordering): the winning copy may take a stretched
        // route. Per-channel FIFO below turns this into head-of-line delay
        // for later messages rather than out-of-order delivery.
        let stretch = if sched.wire_chance(self.fault.reorder) {
            w.scale(REORDER_STRETCH - 1)
        } else {
            Time::ZERO
        };

        // Ack ladder: a lost ack retransmits the data; the receiver already
        // has it and suppresses the copy by sequence number. Delivery time
        // is unaffected.
        let mut dups_suppressed = 0u32;
        while self.loss_draw(dst, src, sched) && attempts + dups_suppressed < MAX_ATTEMPTS {
            dups_suppressed += 1;
        }

        // Per-channel in-order delivery: this message may not land before a
        // previously sent one on the same channel.
        let arrival = (send_at + backoff + w + stretch).max(self.channels[ci].clear_at);
        self.channels[ci].clear_at = arrival;
        debug_assert_eq!(
            self.channels[ci].delivered_seq + 1,
            seq,
            "exactly-once, in order"
        );
        self.channels[ci].delivered_seq = seq;

        let wire = arrival - send_at;
        Transit {
            sender: s,
            wire,
            receiver: r,
            attempts,
            retrans_wait: wire.saturating_sub(legs.1),
            dups_suppressed,
        }
    }

    /// Resolve one fire-and-forget flush. May lose it outright, deliver it
    /// slow, or deliver it twice — never acknowledges, never retransmits.
    /// The caller's legacy drop draw comes first and is folded in by the
    /// caller.
    pub fn resolve_flush(
        &mut self,
        src: usize,
        dst: usize,
        legs: (Time, Time, Time),
        sched: &mut dyn Scheduler,
    ) -> FlushOutcome {
        if self.fault.is_none() {
            // One obligatory draw: the duplicate decision is a scheduler
            // hook (prob 0 consumes no generator state) so an exploring
            // scheduler can enumerate duplicate deliveries even on an
            // otherwise perfect wire.
            return FlushOutcome {
                transit: Transit::clean(legs),
                delivered: true,
                duplicated: sched.flush_duplicate(src, dst, 0.0),
            };
        }
        let (s, w, r) = self.scale_legs(src, dst, legs);
        let lost = self.loss_draw(src, dst, sched);
        let duplicated = !lost && sched.flush_duplicate(src, dst, self.fault.duplicate);
        let stretch = if !lost && sched.wire_chance(self.fault.reorder) {
            w.scale(REORDER_STRETCH - 1)
        } else {
            Time::ZERO
        };
        FlushOutcome {
            transit: Transit::clean((s, w + stretch, r)),
            delivered: !lost,
            duplicated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_sim::{CostModel, DetRng, VirtualTimeScheduler};

    fn legs() -> (Time, Time, Time) {
        CostModel::default().msg_legs(64)
    }

    fn legs_of(t: &Transit) -> (Time, Time, Time) {
        (t.sender, t.wire, t.receiver)
    }

    #[test]
    fn rto_backs_off_exponentially_to_cap() {
        assert_eq!(rto(1), Time::from_us(320));
        assert_eq!(rto(2), Time::from_us(640));
        assert_eq!(rto(3), Time::from_us(1280));
        assert_eq!(rto(10), Time::from_ms(10), "capped at RTO_MAX");
    }

    #[test]
    fn perfect_wire_passes_legs_through() {
        let mut wire = Wire::new(2, FaultProfile::none());
        let mut sched = VirtualTimeScheduler::from_seed(1);
        let d = wire.resolve_reliable(0, 1, legs(), Time::from_us(5), &mut sched);
        assert_eq!(legs_of(&d), legs());
        assert_eq!(d.attempts, 1);
        assert_eq!(d.retrans_wait, Time::ZERO);
        assert_eq!(d.retransmits(), 0);
        assert_eq!(wire.delivered_seq(0, 1), 1);
        wire.resolve_reliable(0, 1, legs(), Time::from_us(9), &mut sched);
        assert_eq!(wire.delivered_seq(0, 1), 2);
        assert_eq!(wire.delivered_seq(1, 0), 0, "channels are directional");
    }

    #[test]
    fn perfect_wire_consumes_no_generator_state() {
        let mut wire = Wire::new(2, FaultProfile::none());
        let mut sched = VirtualTimeScheduler::new(DetRng::new(7));
        for i in 0..32 {
            wire.resolve_reliable(0, 1, legs(), Time::from_us(i), &mut sched);
            let _ = wire.resolve_flush(0, 1, legs(), &mut sched);
        }
        // The scheduler's stream is untouched: it still agrees with a
        // fresh generator on the next real draw.
        let mut fresh = DetRng::new(7);
        assert_eq!(sched.wire_chance(0.5), fresh.chance(0.5));
    }

    #[test]
    fn total_loss_retransmits_to_the_attempt_cap() {
        let fault = FaultProfile {
            loss: 1.0,
            ..FaultProfile::none()
        };
        let mut wire = Wire::new(2, fault);
        let mut sched = VirtualTimeScheduler::from_seed(3);
        let d = wire.resolve_reliable(0, 1, legs(), Time::ZERO, &mut sched);
        assert_eq!(d.attempts, MAX_ATTEMPTS, "cap forces delivery");
        let expected_backoff: Time = (1..MAX_ATTEMPTS).map(rto).sum();
        assert_eq!(d.retrans_wait, expected_backoff);
        assert!(d.retransmits() >= u64::from(MAX_ATTEMPTS) - 1);
        assert_eq!(wire.delivered_seq(0, 1), 1, "still delivered exactly once");
    }

    #[test]
    fn lossy_wire_is_deterministic_per_seed() {
        let run = |seed| {
            let mut wire = Wire::new(2, FaultProfile::iid_loss());
            let mut sched = VirtualTimeScheduler::from_seed(seed);
            (0..200)
                .map(|i| {
                    let d = wire.resolve_reliable(0, 1, legs(), Time::from_us(i * 500), &mut sched);
                    (d.attempts, d.retrans_wait, d.dups_suppressed)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn burst_loss_takes_out_consecutive_messages() {
        // Force a burst: burst_start = 1 means the first successful
        // traversal arms a burst of 3 behind itself.
        let fault = FaultProfile {
            burst_start: 1.0,
            burst_len: 3,
            ..FaultProfile::none()
        };
        let mut wire = Wire::new(2, fault);
        let mut sched = VirtualTimeScheduler::from_seed(1);
        let first = wire.resolve_reliable(0, 1, legs(), Time::ZERO, &mut sched);
        assert_eq!(first.attempts, 1, "burst starts behind a success");
        let second = wire.resolve_reliable(0, 1, legs(), Time::from_ms(100), &mut sched);
        assert!(second.attempts > 1, "next message eats the burst");
    }

    #[test]
    fn fifo_clamp_keeps_per_channel_order() {
        // Two sends very close together: if the first is delayed by
        // retransmission, the second may not overtake it.
        let fault = FaultProfile {
            loss: 1.0, // every data copy up to the cap is lost
            ..FaultProfile::none()
        };
        let mut wire = Wire::new(2, fault);
        let mut sched = VirtualTimeScheduler::from_seed(1);
        let a = wire.resolve_reliable(0, 1, legs(), Time::ZERO, &mut sched);
        let b = wire.resolve_reliable(0, 1, legs(), Time::from_ns(10), &mut sched);
        let a_arrival = Time::ZERO + a.sender + a.wire;
        let b_arrival = Time::from_ns(10) + b.sender + b.wire;
        assert!(b_arrival >= a_arrival, "later send may not arrive earlier");
    }

    #[test]
    fn slow_node_stretches_legs_on_its_channels_only() {
        let mut wire = Wire::new(3, FaultProfile::slow_node(2));
        let mut sched = VirtualTimeScheduler::from_seed(1);
        let (s, w, r) = legs();
        let fast = wire.resolve_reliable(0, 1, legs(), Time::ZERO, &mut sched);
        let slow = wire.resolve_reliable(0, 2, legs(), Time::ZERO, &mut sched);
        assert_eq!(legs_of(&fast), (s, w, r));
        assert_eq!(slow.sender, s.scale_f64(2.0));
        assert_eq!(slow.receiver, r.scale_f64(2.0));
        assert!(slow.wire >= w.scale_f64(2.0));
        assert!(
            slow.retrans_wait > Time::ZERO,
            "slowdown shows up as wire overhead"
        );
    }

    #[test]
    fn flush_can_be_lost_or_duplicated_but_never_retransmitted() {
        let fault = FaultProfile {
            loss: 0.3,
            duplicate: 0.3,
            ..FaultProfile::none()
        };
        let mut wire = Wire::new(2, fault);
        let mut sched = VirtualTimeScheduler::from_seed(11);
        let mut lost = 0;
        let mut dup = 0;
        for _ in 0..400 {
            let f = wire.resolve_flush(0, 1, legs(), &mut sched);
            assert!(
                f.delivered || !f.duplicated,
                "a lost flush cannot arrive twice"
            );
            assert_eq!(f.transit.retransmits(), 0, "flushes are never resent");
            lost += u32::from(!f.delivered);
            dup += u32::from(f.duplicated);
        }
        assert!(lost > 50, "loss should bite: {lost}");
        assert!(dup > 50, "duplication should bite: {dup}");
    }

    #[test]
    fn ack_loss_suppresses_duplicates_without_delaying_delivery() {
        // Lossless forward channel 0→1; the reverse (ack) channel is the
        // same iid process, so with heavy loss some acks die and the
        // receiver sees suppressed duplicates.
        let fault = FaultProfile {
            loss: 0.4,
            ..FaultProfile::none()
        };
        let mut wire = Wire::new(2, fault);
        let mut sched = VirtualTimeScheduler::from_seed(5);
        let mut suppressed = 0;
        let mut first_try_instant_deliveries = 0;
        for i in 0..300 {
            let d = wire.resolve_reliable(0, 1, legs(), Time::from_ms(i * 10), &mut sched);
            suppressed += d.dups_suppressed;
            if d.attempts == 1 && d.retrans_wait == Time::ZERO {
                first_try_instant_deliveries += 1;
            }
        }
        assert!(
            suppressed > 20,
            "ack loss should cause suppressed dups: {suppressed}"
        );
        assert!(
            first_try_instant_deliveries > 50,
            "ack loss alone must not delay delivery"
        );
    }
}
