//! The decision scheduler: every nondeterministic choice the virtual
//! cluster makes, behind one trait.
//!
//! The protocols above this crate contain exactly six kinds of
//! "environment" decisions:
//!
//! * **drop** — whether an unreliable flush message is lost in transit;
//! * **duplicate** — whether a delivered unreliable flush arrives twice;
//! * **arrival** — the order in which processes run their end-of-epoch
//!   consistency work (which is the queueing order of their in-flight
//!   flushes);
//! * **delivery** — the order in which one process consumes the one-way
//!   messages addressed to it at a barrier release;
//! * **completion** — the order in which posted one-sided operations
//!   retire at one initiator (the one-sided transport's analogue of
//!   delivery: no receiver exists to consume anything);
//! * **migration** — whether a pending home-migration decision executes at
//!   this barrier or is deferred to a later one.
//!
//! In addition the wire's reliability sublayer (see `dsm-net`) consults
//! [`Scheduler::wire_chance`] for fault-profile Bernoulli draws. Its
//! retransmission timeouts are not decisions: the backoff ladder is
//! arithmetic on the draws, resolved inside the send call.
//!
//! The default [`VirtualTimeScheduler`] resolves them exactly the way the
//! cluster always has: drops come from a [`DetRng`] Bernoulli draw and every
//! ordering choice takes the first (canonical) candidate, so a run under the
//! default scheduler is bit-identical — in virtual time, statistics, and
//! results — to the pre-scheduler code. A model checker (see the
//! `dsm-explore` crate) substitutes its own implementation to enumerate
//! bounded choice sequences instead.
//!
//! This crate knows nothing about pages or messages; candidates carry
//! opaque `u32` resource labels (the cluster uses page ids) whose only
//! meaning is that two candidates with disjoint label sets *commute*.

use std::cell::RefCell;
use std::rc::Rc;

use crate::rng::DetRng;
use crate::snapio::{SnapError, SnapReader, SnapWriter};
use crate::state::{State, StateHasher};

/// Which kind of decision a choice point resolves.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ChoiceKind {
    /// Drop/deliver for one unreliable flush.
    Drop,
    /// Pre-barrier processing order among processes.
    Arrival,
    /// Consumption order of queued one-way messages at one receiver.
    Delivery,
    /// Execute-now/defer for a pending home migration.
    Migration,
    /// Duplicate-in-flight for one delivered unreliable flush.
    Duplicate,
    /// Completion order of posted one-sided operations at one initiator
    /// (only emitted under the one-sided transport, where there is no
    /// receiver whose consumption order [`ChoiceKind::Delivery`] could
    /// model — the NIC retires posted ops, and an explorer may permute
    /// the retirement order the protocol observes).
    Completion,
}

impl ChoiceKind {
    /// Stable lowercase name (used by the trace format).
    pub fn label(self) -> &'static str {
        match self {
            ChoiceKind::Drop => "drop",
            ChoiceKind::Arrival => "arrival",
            ChoiceKind::Delivery => "delivery",
            ChoiceKind::Migration => "migration",
            ChoiceKind::Duplicate => "duplicate",
            ChoiceKind::Completion => "completion",
        }
    }

    /// Inverse of [`ChoiceKind::label`].
    pub fn from_label(s: &str) -> Option<ChoiceKind> {
        match s {
            "drop" => Some(ChoiceKind::Drop),
            "arrival" => Some(ChoiceKind::Arrival),
            "delivery" => Some(ChoiceKind::Delivery),
            "migration" => Some(ChoiceKind::Migration),
            "duplicate" => Some(ChoiceKind::Duplicate),
            "completion" => Some(ChoiceKind::Completion),
            _ => None,
        }
    }
}

/// One schedulable alternative at an ordering choice point.
#[derive(Clone, Debug)]
pub struct Candidate {
    /// Acting process (arriving pid for `Arrival`; the writer for
    /// `Delivery` entries).
    pub actor: u16,
    /// Conflict footprint: sorted, deduplicated resource labels (the
    /// cluster passes page ids). Two candidates with disjoint footprints
    /// commute — scheduling them in either order reaches the same state.
    pub footprint: Vec<u32>,
}

impl Candidate {
    /// True if the two footprints share a label (candidates conflict).
    pub fn conflicts_with(&self, other: &Candidate) -> bool {
        // Both sides are sorted: one merge walk.
        let (mut i, mut j) = (0, 0);
        while i < self.footprint.len() && j < other.footprint.len() {
            match self.footprint[i].cmp(&other.footprint[j]) {
                core::cmp::Ordering::Less => i += 1,
                core::cmp::Ordering::Greater => j += 1,
                core::cmp::Ordering::Equal => return true,
            }
        }
        false
    }
}

/// Resolver for the cluster's environment decisions.
///
/// Implementations are consulted synchronously from inside the cluster and
/// must not re-enter it. `choose` returns an index into `cands`; it is only
/// called with two or more candidates.
pub trait Scheduler {
    /// True for schedule-enumerating implementations. The cluster caches
    /// this at installation and only pays for candidate construction (and
    /// state hashing) when it is set.
    fn exploring(&self) -> bool {
        false
    }

    /// Whether the unreliable flush `src → dst` is dropped. `prob` is the
    /// configured loss probability (the default implementation draws on
    /// it; an explorer enumerates instead).
    fn flush_drop(&mut self, src: usize, dst: usize, prob: f64) -> bool;

    /// One Bernoulli draw for a wire-level fault event (loss, duplication,
    /// slow-pathing) under a `FaultProfile`. The default scheduler draws on
    /// its stream; like [`DetRng::chance`], a `prob <= 0` call must consume
    /// no generator state — the zero-fault bit-identity guarantee depends
    /// on it. The base default returns `false` so scripted test schedulers
    /// see a faultless wire unless they opt in.
    fn wire_chance(&mut self, prob: f64) -> bool {
        let _ = prob;
        false
    }

    /// Whether a *delivered* unreliable flush `src → dst` is duplicated in
    /// flight. Defaults to a [`Scheduler::wire_chance`] draw; an explorer
    /// may enumerate it as a [`ChoiceKind::Duplicate`] choice point
    /// instead.
    fn flush_duplicate(&mut self, src: usize, dst: usize, prob: f64) -> bool {
        let _ = (src, dst);
        self.wire_chance(prob)
    }

    /// Pick the next candidate to schedule.
    fn choose(&mut self, kind: ChoiceKind, cands: &[Candidate]) -> usize {
        let _ = (kind, cands);
        0
    }

    /// Whether a ready home-migration decision is deferred past this
    /// barrier (`iter` is the ending iteration index).
    fn defer_migration(&mut self, iter: usize) -> bool {
        let _ = iter;
        false
    }

    /// Observe the cluster's structural state hash at the end of a
    /// barrier. Returning `false` abandons the execution (the cluster sets
    /// its pruned flag and returns early); the default continues.
    fn observe_barrier(&mut self, state_hash: u64) -> bool {
        let _ = state_hash;
        true
    }

    /// The scheduler's RNG stream state, if it owns one — snapshots must
    /// capture it so restored runs draw the same future sequence. `None`
    /// means the scheduler is stateless here (exploration schedulers keep
    /// their own state outside the cluster snapshot).
    fn rng_state(&self) -> Option<[u64; 4]> {
        None
    }

    /// Restore a stream captured by [`Scheduler::rng_state`]. No-op for
    /// schedulers that returned `None`.
    fn set_rng_state(&mut self, state: [u64; 4]) {
        let _ = state;
    }
}

/// Shared handle: the cluster and the network consult the same scheduler.
pub type SharedScheduler = Rc<RefCell<dyn Scheduler>>;

/// The handle's state is the scheduler's generator stream, if it owns one
/// ([`Scheduler::rng_state`]); a snapshot taken under a stateless
/// scheduler restores under a stateful one without touching its stream.
impl State for SharedScheduler {
    fn encode(&self, w: &mut SnapWriter) {
        self.borrow().rng_state().encode(w);
    }

    fn decode(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let mut stream: Option<[u64; 4]> = None;
        stream.decode(r)?;
        if let Some(s) = stream {
            self.borrow_mut().set_rng_state(s);
        }
        Ok(())
    }

    fn fold(&self, h: &mut StateHasher) {
        self.borrow().rng_state().fold(h);
    }
}

/// The default scheduler: the cluster's historical behaviour.
///
/// Drops draw from the owned [`DetRng`] stream exactly as the network used
/// to (a `prob <= 0` draw consumes no generator state), and every ordering
/// choice resolves to the canonical first candidate — which is what the
/// hard-coded loops did before the trait existed.
#[derive(Clone, Debug)]
pub struct VirtualTimeScheduler {
    rng: DetRng,
}

impl VirtualTimeScheduler {
    /// Wrap an RNG stream (the cluster derives one from the run seed).
    pub fn new(rng: DetRng) -> VirtualTimeScheduler {
        VirtualTimeScheduler { rng }
    }

    /// Convenience: seed a fresh stream.
    pub fn from_seed(seed: u64) -> VirtualTimeScheduler {
        VirtualTimeScheduler::new(DetRng::new(seed))
    }
}

impl Scheduler for VirtualTimeScheduler {
    fn flush_drop(&mut self, _src: usize, _dst: usize, prob: f64) -> bool {
        self.rng.chance(prob)
    }

    fn wire_chance(&mut self, prob: f64) -> bool {
        self.rng.chance(prob)
    }

    fn rng_state(&self) -> Option<[u64; 4]> {
        Some(self.rng.state())
    }

    fn set_rng_state(&mut self, state: [u64; 4]) {
        self.rng = DetRng::from_state(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scheduler_is_not_exploring() {
        let s = VirtualTimeScheduler::from_seed(1);
        assert!(!s.exploring());
    }

    #[test]
    fn drop_draws_match_raw_rng() {
        let mut s = VirtualTimeScheduler::new(DetRng::new(9));
        let mut r = DetRng::new(9);
        for i in 0..64 {
            let p = f64::from(i % 3) * 0.4;
            assert_eq!(s.flush_drop(0, 1, p), r.chance(p));
        }
    }

    #[test]
    fn zero_probability_consumes_no_state() {
        let mut s = VirtualTimeScheduler::new(DetRng::new(5));
        let mut r = DetRng::new(5);
        for _ in 0..10 {
            assert!(!s.flush_drop(0, 1, 0.0));
        }
        // The stream is untouched: the next positive draw matches a fresh
        // generator's first draw.
        assert_eq!(s.flush_drop(0, 1, 0.5), r.chance(0.5));
    }

    #[test]
    fn ordering_defaults_are_canonical() {
        let mut s = VirtualTimeScheduler::from_seed(2);
        let cands = vec![
            Candidate {
                actor: 1,
                footprint: vec![3],
            },
            Candidate {
                actor: 0,
                footprint: vec![3],
            },
        ];
        assert_eq!(s.choose(ChoiceKind::Arrival, &cands), 0);
        assert!(!s.defer_migration(0));
        assert!(s.observe_barrier(0xDEAD));
    }

    #[test]
    fn wire_chance_matches_raw_rng_and_zero_is_free() {
        let mut s = VirtualTimeScheduler::new(DetRng::new(11));
        let mut r = DetRng::new(11);
        for _ in 0..10 {
            assert!(!s.wire_chance(0.0), "zero-prob wire draw must be false");
            assert!(!s.flush_duplicate(0, 1, 0.0));
        }
        // No state was consumed above: the streams still agree.
        for i in 0..32 {
            let p = f64::from(i % 4) * 0.3;
            assert_eq!(s.wire_chance(p), r.chance(p));
        }
    }

    #[test]
    fn base_scheduler_defaults_see_a_faultless_wire() {
        // A scripted scheduler that only implements flush_drop inherits
        // fault-free wire defaults.
        struct DropAll;
        impl Scheduler for DropAll {
            fn flush_drop(&mut self, _s: usize, _d: usize, _p: f64) -> bool {
                true
            }
        }
        let mut s = DropAll;
        assert!(!s.wire_chance(1.0));
        assert!(!s.flush_duplicate(0, 1, 1.0));
    }

    #[test]
    fn conflict_detection_is_set_intersection() {
        let a = Candidate {
            actor: 0,
            footprint: vec![1, 4, 9],
        };
        let b = Candidate {
            actor: 1,
            footprint: vec![2, 4],
        };
        let c = Candidate {
            actor: 2,
            footprint: vec![3, 5],
        };
        let empty = Candidate {
            actor: 3,
            footprint: vec![],
        };
        assert!(a.conflicts_with(&b));
        assert!(b.conflicts_with(&a));
        assert!(!a.conflicts_with(&c));
        assert!(!empty.conflicts_with(&a));
    }

    #[test]
    fn kind_labels_round_trip() {
        for k in [
            ChoiceKind::Drop,
            ChoiceKind::Arrival,
            ChoiceKind::Delivery,
            ChoiceKind::Migration,
            ChoiceKind::Duplicate,
            ChoiceKind::Completion,
        ] {
            assert_eq!(ChoiceKind::from_label(k.label()), Some(k));
        }
        assert_eq!(ChoiceKind::from_label("bogus"), None);
    }
}
