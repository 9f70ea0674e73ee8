//! Transport backend selection and the one-sided (RDMA-style) cost model.
//!
//! The paper's 1998 cost model assumes interrupt-driven two-sided
//! messaging: every remote fetch is a request/reply pair, and the server
//! burns CPU in a SIGIO handler preparing the reply. Modern interconnects
//! invert this — a one-sided remote read completes without any receiver
//! involvement, at single-digit-microsecond latency. [`TransportKind`]
//! names the two wire personalities `dsm-net`'s `Network` chooses between
//! in one `match` per data verb; [`RdmaParams`] carries the one-sided
//! latency/bandwidth/setup parameterization, defaulted to a conservative
//! early-RDMA NIC so the *host* costs (segv, mprotect, diff creation)
//! stay at the paper's 1998 values while the *wire* jumps ahead two
//! decades. That asymmetry is the experiment: protocols that spend host
//! CPU to avoid wire traffic (the update family) lose their edge when
//! the wire is nearly free.

use crate::time::Time;

/// Which wire personality carries protocol traffic.
///
/// Synchronization traffic (barrier arrivals/releases) is always carried
/// by the reliable two-sided wire — RDMA NICs do not interrupt the
/// remote CPU, so a barrier still needs an active receiver. The kind
/// only governs data traffic: page/diff fetches and update flushes.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum TransportKind {
    /// The lossy UDP-style wire: two-sided send/receive with
    /// acknowledgements, retransmission timers, and FIFO channels.
    #[default]
    TwoSided,
    /// RDMA-style one-sided verbs: remote read/write with no receiver
    /// involvement, reliable-connected semantics (no loss, duplication,
    /// or reordering below the verbs), per-queue-pair in-order completion.
    OneSided,
}

impl TransportKind {
    /// Stable lowercase name (CLI flags, reports, config digests).
    pub fn label(self) -> &'static str {
        match self {
            TransportKind::TwoSided => "two-sided",
            TransportKind::OneSided => "one-sided",
        }
    }

    /// Inverse of [`TransportKind::label`].
    pub fn from_label(s: &str) -> Option<TransportKind> {
        match s {
            "two-sided" => Some(TransportKind::TwoSided),
            "one-sided" => Some(TransportKind::OneSided),
            _ => None,
        }
    }

    /// All kinds, in label order.
    pub const ALL: [TransportKind; 2] = [TransportKind::TwoSided, TransportKind::OneSided];
}

/// Cost constants for the one-sided backend.
///
/// Defaults model a conservative first-generation RDMA interconnect
/// (VIA/early InfiniBand class): ~1.5 µs one-way latency, ~1 GB/s
/// bandwidth, sub-microsecond posting, and a one-time queue-pair setup
/// per directed endpoint pair. Deliberately *not* a 2020s NIC — the
/// point is the 1998-host/modern-wire asymmetry, and even this modest
/// wire collapses the paper's 939 µs remote page fault to ~260 µs.
#[derive(Clone, Debug)]
pub struct RdmaParams {
    /// One-time queue-pair establishment per directed `(src, dst)` pair
    /// (ns). Charged to the initiator on its first verb to that peer.
    pub qp_setup_ns: u64,
    /// Initiator CPU cost to post one work request (ns).
    pub post_overhead_ns: u64,
    /// One-way wire latency of a verb (ns). A remote read pays it twice:
    /// the request reaches the remote NIC, the data comes back.
    pub latency_ns: u64,
    /// Per-payload-byte transfer cost (ns); 1 ns/B == 1 GB/s.
    pub per_byte_ns: u64,
    /// Initiator CPU cost to poll the completion queue entry (ns).
    pub poll_ns: u64,
}

impl Default for RdmaParams {
    fn default() -> Self {
        RdmaParams {
            qp_setup_ns: 40_000,
            post_overhead_ns: 600,
            latency_ns: 1_500,
            per_byte_ns: 1,
            poll_ns: 300,
        }
    }
}

impl RdmaParams {
    /// Wire time of a one-sided *read* returning `payload` bytes: the
    /// request reaches the remote NIC, the payload streams back.
    pub fn read_wire(&self, payload: usize) -> Time {
        Time::from_ns(2 * self.latency_ns + self.per_byte_ns * payload as u64)
    }

    /// Wire time of a one-sided *write* carrying `payload` bytes: one
    /// latency out plus the payload stream (the initiator learns of
    /// completion from its local NIC; no return trip gates the data).
    pub fn write_wire(&self, payload: usize) -> Time {
        Time::from_ns(self.latency_ns + self.per_byte_ns * payload as u64)
    }

    /// Validate invariants. Returns human-readable violations.
    pub fn validate(&self) -> Vec<String> {
        let mut errs = Vec::new();
        if self.latency_ns == 0 {
            errs.push("rdma latency_ns must be > 0".into());
        }
        errs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_labels_round_trip() {
        for k in TransportKind::ALL {
            assert_eq!(TransportKind::from_label(k.label()), Some(k));
        }
        assert_eq!(TransportKind::from_label("pigeon"), None);
        assert_eq!(TransportKind::default(), TransportKind::TwoSided);
    }

    #[test]
    fn read_pays_round_trip_latency_write_pays_one() {
        let p = RdmaParams::default();
        assert_eq!(
            p.read_wire(0).as_ns() - p.write_wire(0).as_ns(),
            p.latency_ns
        );
        // Bandwidth term is linear in the payload for both verbs.
        assert_eq!(
            p.read_wire(8192).as_ns() - p.read_wire(0).as_ns(),
            8192 * p.per_byte_ns
        );
        assert_eq!(
            p.write_wire(8192).as_ns() - p.write_wire(0).as_ns(),
            8192 * p.per_byte_ns
        );
    }

    #[test]
    fn default_read_is_far_cheaper_than_paper_rpc() {
        // The paper's simple RPC is 160 µs; a one-sided 8 KB read under
        // the default parameterization is ~11 µs of wire time.
        let p = RdmaParams::default();
        assert!(p.read_wire(8192) < Time::from_us(20));
        assert!(p.validate().is_empty());
    }
}
