//! Traffic statistics — the raw material of the paper's Table 1.

use crate::message::{MsgCategory, MsgKind};

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

    /// The paper's "Data (kbytes)" column.
    pub fn data_kbytes(&self) -> f64 {
        self.total_payload_bytes() as f64 / 1024.0
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
}
