//! Message kinds and their accounting categories.

/// Fixed per-message header bytes (UDP + CVM envelope). Headers contribute
/// to transfer *time* but not to the "data" column of Table 1, which counts
/// protocol payload.
pub const HEADER_BYTES: usize = 32;

/// Every kind of message the protocols exchange.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum MsgKind {
    /// Homeless protocols: request one or more diffs of a page (data request).
    DiffRequest,
    /// Reply carrying diffs.
    DiffReply,
    /// Home-based protocols: request a full page copy from the home (data request).
    PageRequest,
    /// Reply carrying a full page.
    PageReply,
    /// Barrier arrival at the master (sync request). Carries write notices
    /// (lmw) or version/copyset vectors (bar).
    BarrierArrive,
    /// Barrier release from the master (sync reply). Carries merged
    /// consistency information and migration decisions.
    BarrierRelease,
    /// Unreliable single-message update flush (lmw-u / bar-u data pushes).
    UpdateFlush,
    /// Diff flushed to the page's home at a barrier (bar protocols).
    DiffFlushHome,
    /// One-time full-page transfer when a page's home migrates.
    PageMigrate,
    /// One-sided remote read: the initiator pulls a page or diff straight
    /// out of the remote's memory with no receiver involvement (the
    /// one-sided transport's collapse of a request/reply pair).
    OneSidedRead,
    /// One-sided remote write: the initiator deposits a diff or page into
    /// the remote's memory (update pushes and home flushes on the
    /// one-sided transport). Reliable-connected — never dropped.
    OneSidedWrite,
}

/// Accounting category, the granularity of Table 1.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum MsgCategory {
    /// Requests for data (diff or page fetches).
    DataRequest,
    /// Synchronization traffic directed at the master.
    SyncRequest,
    /// Replies to either kind of request.
    Reply,
    /// One-way pushes: update flushes, home flushes, migrations.
    Flush,
}

impl MsgKind {
    /// The accounting category of this kind.
    pub fn category(self) -> MsgCategory {
        match self {
            MsgKind::DiffRequest | MsgKind::PageRequest | MsgKind::OneSidedRead => {
                MsgCategory::DataRequest
            }
            MsgKind::BarrierArrive => MsgCategory::SyncRequest,
            MsgKind::DiffReply | MsgKind::PageReply | MsgKind::BarrierRelease => MsgCategory::Reply,
            MsgKind::UpdateFlush
            | MsgKind::DiffFlushHome
            | MsgKind::PageMigrate
            | MsgKind::OneSidedWrite => MsgCategory::Flush,
        }
    }

    /// All kinds, for table-driven stats.
    pub const ALL: [MsgKind; 11] = [
        MsgKind::DiffRequest,
        MsgKind::DiffReply,
        MsgKind::PageRequest,
        MsgKind::PageReply,
        MsgKind::BarrierArrive,
        MsgKind::BarrierRelease,
        MsgKind::UpdateFlush,
        MsgKind::DiffFlushHome,
        MsgKind::PageMigrate,
        MsgKind::OneSidedRead,
        MsgKind::OneSidedWrite,
    ];

    /// Dense index for array-backed counters.
    pub fn index(self) -> usize {
        match self {
            MsgKind::DiffRequest => 0,
            MsgKind::DiffReply => 1,
            MsgKind::PageRequest => 2,
            MsgKind::PageReply => 3,
            MsgKind::BarrierArrive => 4,
            MsgKind::BarrierRelease => 5,
            MsgKind::UpdateFlush => 6,
            MsgKind::DiffFlushHome => 7,
            MsgKind::PageMigrate => 8,
            MsgKind::OneSidedRead => 9,
            MsgKind::OneSidedWrite => 10,
        }
    }
}

/// Message kinds a protocol may hand to the *reliable* two-sided send
/// path. The droppable/reliable split lives in the type system: a
/// droppable kind ([`FlushKind`]) is not constructible here, so routing a
/// flush through the acked path is a compile error, not a runtime panic.
/// One-sided verbs are excluded too — they are posted by the transport
/// itself, never by a protocol.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum ReliableKind {
    DiffRequest,
    DiffReply,
    PageRequest,
    PageReply,
    BarrierArrive,
    BarrierRelease,
    DiffFlushHome,
    PageMigrate,
}

impl ReliableKind {
    /// The underlying wire kind.
    pub fn kind(self) -> MsgKind {
        match self {
            ReliableKind::DiffRequest => MsgKind::DiffRequest,
            ReliableKind::DiffReply => MsgKind::DiffReply,
            ReliableKind::PageRequest => MsgKind::PageRequest,
            ReliableKind::PageReply => MsgKind::PageReply,
            ReliableKind::BarrierArrive => MsgKind::BarrierArrive,
            ReliableKind::BarrierRelease => MsgKind::BarrierRelease,
            ReliableKind::DiffFlushHome => MsgKind::DiffFlushHome,
            ReliableKind::PageMigrate => MsgKind::PageMigrate,
        }
    }
}

/// Message kinds a protocol may hand to the *unreliable* flush path. Only
/// update flushes qualify: every other kind would violate correctness if
/// lost, so droppability is a type, not a predicate.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum FlushKind {
    UpdateFlush,
}

impl FlushKind {
    /// The underlying wire kind.
    pub fn kind(self) -> MsgKind {
        match self {
            FlushKind::UpdateFlush => MsgKind::UpdateFlush,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn categories_are_consistent() {
        assert_eq!(MsgKind::DiffRequest.category(), MsgCategory::DataRequest);
        assert_eq!(MsgKind::PageRequest.category(), MsgCategory::DataRequest);
        assert_eq!(MsgKind::BarrierArrive.category(), MsgCategory::SyncRequest);
        assert_eq!(MsgKind::DiffReply.category(), MsgCategory::Reply);
        assert_eq!(MsgKind::PageReply.category(), MsgCategory::Reply);
        assert_eq!(MsgKind::BarrierRelease.category(), MsgCategory::Reply);
        assert_eq!(MsgKind::UpdateFlush.category(), MsgCategory::Flush);
        assert_eq!(MsgKind::DiffFlushHome.category(), MsgCategory::Flush);
        assert_eq!(MsgKind::PageMigrate.category(), MsgCategory::Flush);
        assert_eq!(MsgKind::OneSidedRead.category(), MsgCategory::DataRequest);
        assert_eq!(MsgKind::OneSidedWrite.category(), MsgCategory::Flush);
    }

    /// Every reliable variant.
    const RELIABLE: [ReliableKind; 8] = [
        ReliableKind::DiffRequest,
        ReliableKind::DiffReply,
        ReliableKind::PageRequest,
        ReliableKind::PageReply,
        ReliableKind::BarrierArrive,
        ReliableKind::BarrierRelease,
        ReliableKind::DiffFlushHome,
        ReliableKind::PageMigrate,
    ];

    #[test]
    fn only_update_flushes_droppable() {
        // The one flush variant is the update flush, and no reliable
        // variant can name it.
        assert_eq!(FlushKind::UpdateFlush.kind(), MsgKind::UpdateFlush);
        assert!(RELIABLE.iter().all(|r| r.kind() != MsgKind::UpdateFlush));
    }

    #[test]
    fn indices_are_dense_and_unique() {
        let mut seen = [false; MsgKind::ALL.len()];
        for kind in MsgKind::ALL {
            let i = kind.index();
            assert!(!seen[i], "duplicate index {i}");
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn typed_split_partitions_the_kinds() {
        // Every kind is reliable XOR droppable XOR one-sided: exactly one
        // typed variant names it, unless it is a transport-posted verb.
        // Routing a flush through the acked path is a compile error, not
        // a runtime panic.
        for kind in MsgKind::ALL {
            let reliable = RELIABLE.iter().filter(|r| r.kind() == kind).count();
            let flush = usize::from(FlushKind::UpdateFlush.kind() == kind);
            let one_sided = matches!(kind, MsgKind::OneSidedRead | MsgKind::OneSidedWrite);
            assert_eq!(reliable + flush + usize::from(one_sided), 1, "{kind:?}");
        }
    }
}
