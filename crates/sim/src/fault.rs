//! Wire fault profiles.
//!
//! A [`FaultProfile`] describes how the interconnect misbehaves: iid and
//! bursty loss, duplication, reordering, and a per-node slowdown. The
//! profile itself is pure data — it owns no generator state. Every random
//! decision it implies is drawn through [`crate::sched::Scheduler`] hooks
//! (`wire_chance` / `flush_duplicate`), so the same profile replays
//! bit-identically under the default scheduler and can be enumerated by an
//! exploration scheduler instead.
//!
//! The zero profile ([`FaultProfile::none`], also `Default`) is special: the
//! transport layer must not draw any generator state and must not perturb a
//! single cost leg under it, so a lossless run is bit-identical to a build
//! without the transport at all. `Scheduler::wire_chance` with `prob <= 0`
//! consuming no state (mirroring `DetRng::chance`) is part of that contract.

/// How the simulated wire loses, duplicates, delays, and reorders traffic.
///
/// Probabilities are per message (per attempt, for retransmitted reliable
/// kinds). All fields independent; `none()` disables everything.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultProfile {
    /// iid probability that any single network traversal is lost. Reliable
    /// kinds retransmit; droppable flushes are simply gone.
    pub loss: f64,
    /// Probability that a successful traversal *starts* a loss burst on its
    /// channel: the next `burst_len` messages on that (src, dst) channel are
    /// lost deterministically (Gilbert-style bad state).
    pub burst_start: f64,
    /// Number of consecutive messages lost once a burst starts.
    pub burst_len: u32,
    /// Probability that a delivered message is also duplicated in flight.
    /// Reliable kinds suppress the copy by sequence number; duplicated
    /// flushes genuinely arrive twice and must be idempotent.
    pub duplicate: f64,
    /// Probability that a delivered message takes a slow path (its wire leg
    /// is stretched). Per-channel FIFO at the receiver turns this into
    /// head-of-line delay for reliable kinds rather than visible reordering.
    pub reorder: f64,
    /// A node whose network interface runs slow: every leg of a message
    /// touching this node is scaled by `slow_factor`.
    pub slow_node: Option<usize>,
    /// Leg multiplier for `slow_node` traffic (>= 1).
    pub slow_factor: f64,
}

impl Default for FaultProfile {
    fn default() -> Self {
        FaultProfile::none()
    }
}

impl FaultProfile {
    /// The faultless wire: today's behaviour, bit for bit.
    pub fn none() -> FaultProfile {
        FaultProfile {
            loss: 0.0,
            burst_start: 0.0,
            burst_len: 0,
            duplicate: 0.0,
            reorder: 0.0,
            slow_node: None,
            slow_factor: 1.0,
        }
    }

    /// True if the profile cannot affect any message. The transport uses
    /// this to skip the fault path entirely (no draws, no channel state).
    pub fn is_none(&self) -> bool {
        self.loss <= 0.0
            && self.burst_start <= 0.0
            && self.duplicate <= 0.0
            && self.reorder <= 0.0
            && self.slow_node.is_none()
    }

    /// Campaign profile: 2% independent loss on every traversal.
    pub fn iid_loss() -> FaultProfile {
        FaultProfile {
            loss: 0.02,
            ..FaultProfile::none()
        }
    }

    /// Campaign profile: rare losses that arrive in bursts of four, plus a
    /// little background loss.
    pub fn burst_loss() -> FaultProfile {
        FaultProfile {
            loss: 0.005,
            burst_start: 0.01,
            burst_len: 4,
            ..FaultProfile::none()
        }
    }

    /// Campaign profile: a noisy but lossless switch — duplicated and
    /// slow-pathed packets, nothing missing.
    pub fn dup_reorder() -> FaultProfile {
        FaultProfile {
            duplicate: 0.02,
            reorder: 0.05,
            ..FaultProfile::none()
        }
    }

    /// Campaign profile: a wire that both loses and duplicates, so one
    /// writer's extra copy can arrive where another's flush went missing —
    /// the case that tells validation by writer name from validation by
    /// count.
    pub fn loss_dup() -> FaultProfile {
        FaultProfile {
            loss: 0.05,
            duplicate: 0.10,
            ..FaultProfile::none()
        }
    }

    /// Campaign profile: node `node`'s interface runs at half speed.
    pub fn slow_node(node: usize) -> FaultProfile {
        FaultProfile {
            slow_node: Some(node),
            slow_factor: 2.0,
            ..FaultProfile::none()
        }
    }

    /// Validate against a cluster size. Returns human-readable violations
    /// (empty == valid).
    pub fn validate(&self, nprocs: usize) -> Vec<String> {
        let mut errs = Vec::new();
        for (name, p) in [
            ("loss", self.loss),
            ("burst_start", self.burst_start),
            ("duplicate", self.duplicate),
            ("reorder", self.reorder),
        ] {
            if !(0.0..=1.0).contains(&p) {
                errs.push(format!("fault.{name} {p} out of [0,1]"));
            }
        }
        if self.burst_start > 0.0 && self.burst_len == 0 {
            errs.push("fault.burst_len must be >= 1 when burst_start > 0".into());
        }
        if self.slow_factor < 1.0 {
            errs.push(format!(
                "fault.slow_factor {} must be >= 1",
                self.slow_factor
            ));
        }
        if let Some(n) = self.slow_node {
            if n >= nprocs {
                errs.push(format!(
                    "fault.slow_node {n} out of range (nprocs {nprocs})"
                ));
            }
        }
        errs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_none() {
        assert!(FaultProfile::none().is_none());
        assert!(FaultProfile::default().is_none());
        assert!(FaultProfile::none().validate(8).is_empty());
    }

    #[test]
    fn named_profiles_are_active_and_valid() {
        for p in [
            FaultProfile::iid_loss(),
            FaultProfile::burst_loss(),
            FaultProfile::dup_reorder(),
            FaultProfile::loss_dup(),
            FaultProfile::slow_node(1),
        ] {
            assert!(!p.is_none());
            assert!(p.validate(8).is_empty(), "{p:?}");
        }
    }

    #[test]
    fn rejects_out_of_range_probability() {
        let p = FaultProfile {
            loss: 1.5,
            ..FaultProfile::none()
        };
        assert!(!p.validate(8).is_empty());
    }

    #[test]
    fn rejects_burst_without_length() {
        let p = FaultProfile {
            burst_start: 0.1,
            burst_len: 0,
            ..FaultProfile::none()
        };
        assert!(!p.validate(8).is_empty());
    }

    #[test]
    fn rejects_slow_node_out_of_range() {
        assert!(!FaultProfile::slow_node(8).validate(8).is_empty());
        assert!(FaultProfile::slow_node(7).validate(8).is_empty());
    }

    #[test]
    fn rejects_sub_unit_slow_factor() {
        let p = FaultProfile {
            slow_node: Some(0),
            slow_factor: 0.5,
            ..FaultProfile::none()
        };
        assert!(!p.validate(8).is_empty());
    }
}
