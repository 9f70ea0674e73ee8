//! Traffic statistics — the raw material of the paper's Table 1.

use crate::message::{MsgCategory, MsgKind, HEADER_BYTES};

/// Message and byte counters, per kind.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    msgs: [u64; MsgKind::ALL.len()],
    payload_bytes: [u64; MsgKind::ALL.len()],
    /// Flush messages dropped by the unreliable channel.
    pub flushes_dropped: u64,
    /// Flush messages the faulty wire delivered twice.
    pub flushes_duplicated: u64,
    /// Extra copies of reliable messages put on the wire (timeout
    /// retransmissions, whether triggered by data or ack loss). Not counted
    /// in the per-kind `msgs` — Table 1 counts logical messages; this is
    /// the overhead on top.
    pub retransmits: u64,
    /// Bytes (payload + header) carried by those extra copies: the
    /// retransmit overhead against which goodput is measured.
    pub retransmit_bytes: u64,
    /// Duplicate reliable deliveries the receiver suppressed by sequence
    /// number (ack-loss echoes; invisible to the protocol layer).
    pub dups_suppressed: u64,
}

dsm_sim::impl_state!(NetStats {
    state: msgs, payload_bytes, flushes_dropped, flushes_duplicated, retransmits,
        retransmit_bytes, dups_suppressed;
});

impl NetStats {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sent message.
    pub fn record(&mut self, kind: MsgKind, payload: usize) {
        self.msgs[kind.index()] += 1;
        self.payload_bytes[kind.index()] += payload as u64;
    }

    /// Messages of one kind.
    pub fn msgs_of(&self, kind: MsgKind) -> u64 {
        self.msgs[kind.index()]
    }

    /// Payload bytes of one kind.
    pub fn bytes_of(&self, kind: MsgKind) -> u64 {
        self.payload_bytes[kind.index()]
    }

    /// Messages in a category.
    pub fn msgs_in(&self, cat: MsgCategory) -> u64 {
        MsgKind::ALL
            .iter()
            .filter(|k| k.category() == cat)
            .map(|k| self.msgs_of(*k))
            .sum()
    }

    /// All messages sent, including replies.
    pub fn total_msgs(&self) -> u64 {
        self.msgs.iter().sum()
    }

    /// The paper's "Messages" column: data requests + sync requests +
    /// one-way flushes. Replies are excluded because the paper notes "there
    /// are an equal number of replies" for the request kinds.
    pub fn paper_messages(&self) -> u64 {
        self.msgs_in(MsgCategory::DataRequest)
            + self.msgs_in(MsgCategory::SyncRequest)
            + self.msgs_in(MsgCategory::Flush)
    }

    /// Total payload bytes over all kinds.
    pub fn total_payload_bytes(&self) -> u64 {
        self.payload_bytes.iter().sum()
    }

    /// Fraction of all bytes on the wire that were retransmitted copies
    /// (0 on a clean wire): wire overhead vs. goodput.
    pub fn retransmit_overhead(&self) -> f64 {
        let good = self.total_payload_bytes() + HEADER_BYTES as u64 * self.total_msgs();
        let extra = self.retransmit_bytes;
        if good + extra == 0 {
            0.0
        } else {
            extra as f64 / (good + extra) as f64
        }
    }

    /// The paper's "Data (kbytes)" column.
    pub fn data_kbytes(&self) -> f64 {
        self.total_payload_bytes() as f64 / 1024.0
    }

    /// Merge another window into this one.
    pub fn merge(&mut self, other: &NetStats) {
        for i in 0..self.msgs.len() {
            self.msgs[i] += other.msgs[i];
            self.payload_bytes[i] += other.payload_bytes[i];
        }
        self.flushes_dropped += other.flushes_dropped;
        self.flushes_duplicated += other.flushes_duplicated;
        self.retransmits += other.retransmits;
        self.retransmit_bytes += other.retransmit_bytes;
        self.dups_suppressed += other.dups_suppressed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates() {
        let mut s = NetStats::new();
        s.record(MsgKind::DiffRequest, 0);
        s.record(MsgKind::DiffReply, 100);
        s.record(MsgKind::DiffReply, 50);
        assert_eq!(s.msgs_of(MsgKind::DiffRequest), 1);
        assert_eq!(s.msgs_of(MsgKind::DiffReply), 2);
        assert_eq!(s.bytes_of(MsgKind::DiffReply), 150);
        assert_eq!(s.total_msgs(), 3);
    }

    #[test]
    fn paper_messages_excludes_replies() {
        let mut s = NetStats::new();
        s.record(MsgKind::DiffRequest, 0);
        s.record(MsgKind::DiffReply, 200);
        s.record(MsgKind::BarrierArrive, 16);
        s.record(MsgKind::BarrierRelease, 16);
        s.record(MsgKind::UpdateFlush, 64);
        assert_eq!(s.paper_messages(), 3);
        assert_eq!(s.total_msgs(), 5);
    }

    #[test]
    fn category_rollups() {
        let mut s = NetStats::new();
        s.record(MsgKind::PageRequest, 0);
        s.record(MsgKind::DiffRequest, 0);
        s.record(MsgKind::PageReply, 8192);
        assert_eq!(s.msgs_in(MsgCategory::DataRequest), 2);
        assert_eq!(s.msgs_in(MsgCategory::Reply), 1);
        assert_eq!(s.msgs_in(MsgCategory::Flush), 0);
    }

    #[test]
    fn data_kbytes_rounds_correctly() {
        let mut s = NetStats::new();
        s.record(MsgKind::PageReply, 8192);
        s.record(MsgKind::UpdateFlush, 1024);
        assert!((s.data_kbytes() - 9.0).abs() < 1e-12);
    }

    #[test]
    fn merge_combines_windows() {
        let mut a = NetStats::new();
        a.record(MsgKind::UpdateFlush, 10);
        a.flushes_dropped = 1;
        a.retransmits = 2;
        a.retransmit_bytes = 100;
        let mut b = NetStats::new();
        b.record(MsgKind::UpdateFlush, 20);
        b.record(MsgKind::PageRequest, 0);
        b.flushes_dropped = 2;
        b.flushes_duplicated = 1;
        b.retransmits = 3;
        b.retransmit_bytes = 50;
        b.dups_suppressed = 4;
        a.merge(&b);
        assert_eq!(a.msgs_of(MsgKind::UpdateFlush), 2);
        assert_eq!(a.bytes_of(MsgKind::UpdateFlush), 30);
        assert_eq!(a.msgs_of(MsgKind::PageRequest), 1);
        assert_eq!(a.flushes_dropped, 3);
        assert_eq!(a.flushes_duplicated, 1);
        assert_eq!(a.retransmits, 5);
        assert_eq!(a.retransmit_bytes, 150);
        assert_eq!(a.dups_suppressed, 4);
    }

    #[test]
    fn retransmit_overhead_fraction() {
        let mut s = NetStats::new();
        assert_eq!(s.retransmit_overhead(), 0.0, "empty window has no overhead");
        s.record(MsgKind::PageReply, 8192 - HEADER_BYTES as u64 as usize);
        assert_eq!(s.retransmit_overhead(), 0.0, "clean wire has no overhead");
        s.retransmit_bytes = 8192;
        assert!((s.retransmit_overhead() - 0.5).abs() < 1e-12);
    }
}
