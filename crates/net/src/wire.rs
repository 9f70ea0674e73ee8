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
//! Virtual, analytic, deterministic. Each reliable send arms a
//! retransmission timer in a [`TimerQueue`]; attempt `k` (1-based) waits
//! `RTO(k) = min(rto_base << (k-1), rto_max)` before the timer fires and
//! the next copy goes out. Because the simulation is barrier-synchronous
//! and the caller blocks on the message anyway, the whole retry ladder is
//! resolved at the send call: lost attempts accumulate backoff into the
//! wire leg, the timer queue replays the fire/cancel sequence (observable
//! through [`Scheduler::observe_timer`]), and the final [`Transit`] the
//! caller charges already contains every delay. An ack that is lost on the
//! return path does not delay delivery — the receiver already has the data
//! — but it does trigger a retransmission whose copy the receiver
//! recognizes by sequence number and drops (`dup_suppressed`).
//!
//! # Why zero-fault is bit-identical
//!
//! Under [`FaultProfile::none`] this module performs no generator draws
//! (`Scheduler::wire_chance` with `prob <= 0` consumes no state, and the
//! fault path is skipped entirely), arms no timers, applies no FIFO clamp,
//! and returns exactly the cost-model legs it was given. A lossless run is
//! therefore byte-identical to one built without the sublayer; the
//! committed `results/*.txt` files pin this.

use dsm_sim::{FaultProfile, Scheduler, Time, TimerQueue};

/// Backoff/retry policy for reliable kinds.
#[derive(Clone, Debug)]
pub struct WireTuning {
    /// Base retransmission timeout (attempt 1). Default 320 µs: twice the
    /// paper's 160 µs small-message RPC round trip.
    pub rto_base: Time,
    /// Backoff ceiling. Default 10 ms.
    pub rto_max: Time,
    /// Attempt cap. A message that has lost this many data attempts is
    /// delivered anyway — the simulated wire eventually carries it — so a
    /// `loss = 1.0` profile cannot hang the simulation.
    pub max_attempts: u32,
}

impl Default for WireTuning {
    fn default() -> Self {
        WireTuning {
            rto_base: Time::from_us(320),
            rto_max: Time::from_ms(10),
            max_attempts: 16,
        }
    }
}

impl WireTuning {
    /// Retransmission timeout armed for (1-based) attempt `k`.
    pub fn rto(&self, attempt: u32) -> Time {
        let shifted = self.rto_base.as_ns() << (attempt - 1).min(63);
        Time::from_ns(shifted).min(self.rto_max)
    }
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

/// What happened to one reliable message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReliableDelivery {
    /// Adjusted cost legs (fault delays folded into `wire`).
    pub sender: Time,
    pub wire: Time,
    pub receiver: Time,
    /// Data attempts until the receiver had the message (1 = first try).
    pub attempts: u32,
    /// Extra wire delay versus a perfect wire (backoff + slow path + FIFO
    /// head-of-line + slow node). Zero on a faultless run.
    pub retrans_wait: Time,
    /// Channel sequence number of this message (1-based).
    pub seq: u64,
    /// Copies put on the wire beyond the first (data and ack induced).
    pub retransmits: u64,
    /// Duplicate copies the receiver suppressed by sequence number.
    pub dup_suppressed: u64,
}

/// What happened to one fire-and-forget flush.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlushDelivery {
    /// Adjusted cost legs (fault delays folded into `wire`).
    pub sender: Time,
    pub wire: Time,
    pub receiver: Time,
    /// Lost on the wire (in addition to the legacy drop draw the caller
    /// already performed).
    pub lost: bool,
    /// Delivered twice; the receiver must treat the copy idempotently.
    pub duplicated: bool,
}

/// The fault-injecting transport beneath [`crate::Network`].
///
/// Owns per-channel sequence/burst/FIFO state and the retransmission
/// [`TimerQueue`]; draws every random decision through the installed
/// [`Scheduler`], so runs replay bit-identically and explorers can
/// enumerate instead of draw.
#[derive(Debug, Clone)]
pub struct Wire {
    nprocs: usize,
    fault: FaultProfile,
    tuning: WireTuning,
    channels: Box<[ChannelState]>,
    timers: TimerQueue,
    /// Timer firings observed (diagnostics; mirrors `observe_timer` calls).
    timer_fires: u64,
}

dsm_sim::impl_state!(Wire {
    config: nprocs, fault, tuning;
    state: channels, timers, timer_fires;
});

impl Wire {
    pub fn new(nprocs: usize, fault: FaultProfile, tuning: WireTuning) -> Wire {
        Wire {
            nprocs,
            fault,
            tuning,
            channels: vec![ChannelState::default(); nprocs * nprocs].into(),
            timers: TimerQueue::new(),
            timer_fires: 0,
        }
    }

    pub fn fault(&self) -> &FaultProfile {
        &self.fault
    }

    /// Total retransmission-timer firings so far.
    pub fn timer_fires(&self) -> u64 {
        self.timer_fires
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
    /// faultless cost legs `legs`. Returns the adjusted legs plus delivery
    /// metadata; delivery is certain (that is the point of the sublayer).
    pub fn resolve_reliable(
        &mut self,
        src: usize,
        dst: usize,
        legs: (Time, Time, Time),
        now: Time,
        sched: &mut dyn Scheduler,
    ) -> ReliableDelivery {
        let ci = src * self.nprocs + dst;
        self.channels[ci].next_seq += 1;
        let seq = self.channels[ci].next_seq;
        let (s0, w0, r0) = legs;

        if self.fault.is_none() {
            // Perfect wire: no draws, no timers, no clamp — the legs pass
            // through untouched (bit-identity with the pre-wire network).
            self.channels[ci].delivered_seq = seq;
            return ReliableDelivery {
                sender: s0,
                wire: w0,
                receiver: r0,
                attempts: 1,
                retrans_wait: Time::ZERO,
                seq,
                retransmits: 0,
                dup_suppressed: 0,
            };
        }

        let (s, w, r) = self.scale_legs(src, dst, legs);
        let send_at = now + s;

        // Data ladder: retransmit on timeout until a copy gets through (or
        // the attempt cap forces delivery).
        let mut attempt = 1u32;
        let mut backoff = Time::ZERO;
        let mut retransmits = 0u64;
        loop {
            let timer = self
                .timers
                .schedule(send_at + backoff + self.tuning.rto(attempt));
            let lost = self.loss_draw(src, dst, sched);
            if !lost || attempt >= self.tuning.max_attempts {
                self.timers.cancel(timer);
                break;
            }
            let (_, fired) = self
                .timers
                .pop_due(send_at + backoff + self.tuning.rto(attempt))
                .expect("armed retransmission timer must fire");
            debug_assert_eq!(fired, timer);
            self.timer_fires += 1;
            backoff += self.tuning.rto(attempt);
            attempt += 1;
            retransmits += 1;
            sched.observe_timer(src, dst, attempt);
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
        let mut dup_suppressed = 0u64;
        let mut ack_attempt = attempt;
        while self.loss_draw(dst, src, sched) && ack_attempt < self.tuning.max_attempts {
            ack_attempt += 1;
            retransmits += 1;
            dup_suppressed += 1;
            self.timer_fires += 1;
            sched.observe_timer(src, dst, ack_attempt);
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
        ReliableDelivery {
            sender: s,
            wire,
            receiver: r,
            attempts: attempt,
            retrans_wait: wire.saturating_sub(w0),
            seq,
            retransmits,
            dup_suppressed,
        }
    }

    /// Resolve one fire-and-forget flush the caller's legacy drop draw has
    /// already let through. May lose it outright, deliver it slow, or
    /// deliver it twice — never acknowledges, never retransmits.
    pub fn resolve_flush(
        &mut self,
        src: usize,
        dst: usize,
        legs: (Time, Time, Time),
        sched: &mut dyn Scheduler,
    ) -> FlushDelivery {
        let (s0, w0, r0) = legs;
        if self.fault.is_none() {
            // One obligatory draw: the duplicate decision is a scheduler
            // hook (prob 0 consumes no generator state) so an exploring
            // scheduler can enumerate duplicate deliveries even on an
            // otherwise perfect wire.
            let duplicated = sched.flush_duplicate(src, dst, 0.0);
            return FlushDelivery {
                sender: s0,
                wire: w0,
                receiver: r0,
                lost: false,
                duplicated,
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
        FlushDelivery {
            sender: s,
            wire: w + stretch,
            receiver: r,
            lost,
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

    #[test]
    fn rto_backs_off_exponentially_to_cap() {
        let t = WireTuning::default();
        assert_eq!(t.rto(1), Time::from_us(320));
        assert_eq!(t.rto(2), Time::from_us(640));
        assert_eq!(t.rto(3), Time::from_us(1280));
        assert_eq!(t.rto(10), Time::from_ms(10), "capped at rto_max");
    }

    #[test]
    fn perfect_wire_passes_legs_through() {
        let mut wire = Wire::new(2, FaultProfile::none(), WireTuning::default());
        let mut sched = VirtualTimeScheduler::from_seed(1);
        let (s, w, r) = legs();
        let d = wire.resolve_reliable(0, 1, legs(), Time::from_us(5), &mut sched);
        assert_eq!((d.sender, d.wire, d.receiver), (s, w, r));
        assert_eq!(d.attempts, 1);
        assert_eq!(d.retrans_wait, Time::ZERO);
        assert_eq!(d.retransmits, 0);
        assert_eq!(d.seq, 1);
        assert_eq!(wire.timer_fires(), 0);
        let d2 = wire.resolve_reliable(0, 1, legs(), Time::from_us(9), &mut sched);
        assert_eq!(d2.seq, 2);
        assert_eq!(wire.delivered_seq(0, 1), 2);
        assert_eq!(wire.delivered_seq(1, 0), 0, "channels are directional");
    }

    #[test]
    fn perfect_wire_consumes_no_generator_state() {
        let mut wire = Wire::new(2, FaultProfile::none(), WireTuning::default());
        let mut sched = VirtualTimeScheduler::new(DetRng::new(7));
        for i in 0..32 {
            wire.resolve_reliable(0, 1, legs(), Time::from_us(i), &mut sched);
            wire.resolve_flush(0, 1, legs(), &mut sched);
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
        let tuning = WireTuning::default();
        let cap = tuning.max_attempts;
        let mut wire = Wire::new(2, fault, tuning.clone());
        let mut sched = VirtualTimeScheduler::from_seed(3);
        let d = wire.resolve_reliable(0, 1, legs(), Time::ZERO, &mut sched);
        assert_eq!(d.attempts, cap, "cap forces delivery");
        let expected_backoff: Time = (1..cap).map(|k| tuning.rto(k)).sum();
        assert_eq!(d.retrans_wait, expected_backoff);
        assert!(d.retransmits >= u64::from(cap) - 1);
        assert_eq!(d.seq, 1, "still delivered exactly once");
        assert_eq!(wire.delivered_seq(0, 1), 1);
    }

    #[test]
    fn lossy_wire_is_deterministic_per_seed() {
        let run = |seed| {
            let mut wire = Wire::new(2, FaultProfile::iid_loss(), WireTuning::default());
            let mut sched = VirtualTimeScheduler::from_seed(seed);
            (0..200)
                .map(|i| {
                    let d = wire.resolve_reliable(0, 1, legs(), Time::from_us(i * 500), &mut sched);
                    (d.attempts, d.retrans_wait, d.seq)
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
        let mut wire = Wire::new(2, fault, WireTuning::default());
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
            loss: 1.0, // first data copy of every message is lost
            ..FaultProfile::none()
        };
        let tuning = WireTuning {
            max_attempts: 2,
            ..WireTuning::default()
        };
        let mut wire = Wire::new(2, fault, tuning);
        let mut sched = VirtualTimeScheduler::from_seed(1);
        let a = wire.resolve_reliable(0, 1, legs(), Time::ZERO, &mut sched);
        let b = wire.resolve_reliable(0, 1, legs(), Time::from_ns(10), &mut sched);
        let a_arrival = Time::ZERO + a.sender + a.wire;
        let b_arrival = Time::from_ns(10) + b.sender + b.wire;
        assert!(b_arrival >= a_arrival, "later send may not arrive earlier");
    }

    #[test]
    fn slow_node_stretches_legs_on_its_channels_only() {
        let mut wire = Wire::new(3, FaultProfile::slow_node(2), WireTuning::default());
        let mut sched = VirtualTimeScheduler::from_seed(1);
        let (s, w, r) = legs();
        let fast = wire.resolve_reliable(0, 1, legs(), Time::ZERO, &mut sched);
        let slow = wire.resolve_reliable(0, 2, legs(), Time::ZERO, &mut sched);
        assert_eq!((fast.sender, fast.wire, fast.receiver), (s, w, r));
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
        let mut wire = Wire::new(2, fault, WireTuning::default());
        let mut sched = VirtualTimeScheduler::from_seed(11);
        let mut lost = 0;
        let mut dup = 0;
        for _ in 0..400 {
            let f = wire.resolve_flush(0, 1, legs(), &mut sched);
            assert!(
                !(f.lost && f.duplicated),
                "a lost flush cannot arrive twice"
            );
            lost += u32::from(f.lost);
            dup += u32::from(f.duplicated);
        }
        assert!(lost > 50, "loss should bite: {lost}");
        assert!(dup > 50, "duplication should bite: {dup}");
        assert_eq!(wire.timer_fires(), 0, "flushes never arm timers");
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
        let mut wire = Wire::new(2, fault, WireTuning::default());
        let mut sched = VirtualTimeScheduler::from_seed(5);
        let mut suppressed = 0;
        let mut first_try_instant_deliveries = 0;
        for i in 0..300 {
            let d = wire.resolve_reliable(0, 1, legs(), Time::from_ms(i * 10), &mut sched);
            suppressed += d.dup_suppressed;
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
