//! Page identifiers, protections, and fault classification.

use core::fmt;

/// Index of a page within the shared segment.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PageId(pub u32);

dsm_sim::impl_state!(PageId(state));

impl PageId {
    /// The page containing byte address `addr` for `page_size`-byte pages.
    #[inline]
    pub fn containing(addr: usize, page_size: usize) -> PageId {
        debug_assert!(page_size.is_power_of_two());
        // Shift, not divide: page_size is a runtime value, and this sits
        // on the per-access path of every simulated load and store.
        PageId((addr >> page_size.trailing_zeros()) as u32)
    }

    /// Byte offset of `addr` within its page.
    #[inline]
    pub fn offset(addr: usize, page_size: usize) -> usize {
        addr & (page_size - 1)
    }

    /// First byte address of this page.
    #[inline]
    pub fn base(self, page_size: usize) -> usize {
        self.0 as usize * page_size
    }

    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pg{}", self.0)
    }
}

/// Access rights of one process on one page, mirroring the three useful
/// `mprotect` states (`PROT_NONE`, `PROT_READ`, `PROT_READ|PROT_WRITE`).
///
/// `Invalid` means the local copy is stale (or absent); the bytes are
/// retained because homeless LRC protocols update pre-existing replicas by
/// applying diffs.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash, Default)]
pub enum Protection {
    /// No access: local copy is stale; any access faults.
    #[default]
    Invalid,
    /// Read-only: reads proceed, writes fault (write trapping).
    Read,
    /// Full access: neither reads nor writes fault.
    ReadWrite,
}

dsm_sim::impl_state_enum!(Protection {
    0 => Invalid,
    1 => Read,
    2 => ReadWrite,
});

impl Protection {
    #[inline]
    pub fn readable(self) -> bool {
        !matches!(self, Protection::Invalid)
    }

    #[inline]
    pub fn writable(self) -> bool {
        matches!(self, Protection::ReadWrite)
    }

    /// Classify an access under this protection, or `None` if it proceeds
    /// without a fault.
    #[inline]
    pub fn check(self, write: bool) -> Option<FaultKind> {
        match (self, write) {
            (Protection::Invalid, false) => Some(FaultKind::ReadInvalid),
            (Protection::Invalid, true) => Some(FaultKind::WriteInvalid),
            (Protection::Read, true) => Some(FaultKind::WriteReadOnly),
            _ => None,
        }
    }
}

/// Why an access faulted.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultKind {
    /// Read of an invalid page: the local copy must be made current.
    ReadInvalid,
    /// Write of an invalid page: fetch, then write-enable.
    WriteInvalid,
    /// Write of a read-only page: first write of the epoch (twin point).
    WriteReadOnly,
}

impl FaultKind {
    /// True if servicing this fault must first make the page contents
    /// current (i.e. the page was `Invalid`).
    pub fn needs_validation(self) -> bool {
        matches!(self, FaultKind::ReadInvalid | FaultKind::WriteInvalid)
    }

    /// True if this fault was triggered by a write.
    pub fn is_write(self) -> bool {
        matches!(self, FaultKind::WriteInvalid | FaultKind::WriteReadOnly)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn containing_and_offset() {
        assert_eq!(PageId::containing(0, 8192), PageId(0));
        assert_eq!(PageId::containing(8191, 8192), PageId(0));
        assert_eq!(PageId::containing(8192, 8192), PageId(1));
        assert_eq!(PageId::offset(8192 + 17, 8192), 17);
        assert_eq!(PageId(3).base(8192), 3 * 8192);
    }

    #[test]
    fn protection_predicates() {
        assert!(!Protection::Invalid.readable());
        assert!(!Protection::Invalid.writable());
        assert!(Protection::Read.readable());
        assert!(!Protection::Read.writable());
        assert!(Protection::ReadWrite.readable());
        assert!(Protection::ReadWrite.writable());
    }

    #[test]
    fn fault_classification() {
        assert!(FaultKind::ReadInvalid.needs_validation());
        assert!(FaultKind::WriteInvalid.needs_validation());
        assert!(!FaultKind::WriteReadOnly.needs_validation());
        assert!(!FaultKind::ReadInvalid.is_write());
        assert!(FaultKind::WriteInvalid.is_write());
        assert!(FaultKind::WriteReadOnly.is_write());
    }
}
