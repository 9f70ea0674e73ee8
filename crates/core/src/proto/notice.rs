//! Write notices and diff naming (homeless LRC).
//!
//! "Structures called write notices are distributed to other processes via
//! existing synchronization (barrier) messages. Each write notice informs
//! the recipient that a shared page has been modified ... The write notice
//! also names the diff that needs to be applied" (§2.1.1).

use dsm_vm::PageId;

/// A notice that `writer` modified `page` during barrier `epoch`, naming
/// the diff `(page, epoch, writer)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash, Default)]
pub struct WriteNotice {
    pub page: u32,
    pub writer: u16,
    pub epoch: u64,
}

dsm_sim::impl_state!(WriteNotice { state: page, writer, epoch; });

/// Approximate wire size of one notice within a barrier message.
pub const NOTICE_WIRE_BYTES: usize = 16;

impl WriteNotice {
    pub fn new(page: PageId, writer: usize, epoch: u64) -> WriteNotice {
        WriteNotice {
            page: page.0,
            writer: writer as u16,
            epoch,
        }
    }

    pub fn page_id(&self) -> PageId {
        PageId(self.page)
    }

    /// The diff this notice names.
    pub fn diff_key(&self) -> DiffKey {
        DiffKey {
            page: self.page,
            epoch: self.epoch,
            writer: self.writer,
        }
    }
}

/// Unique name of a diff: which page, which interval, which writer.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Hash)]
pub struct DiffKey {
    pub page: u32,
    pub epoch: u64,
    pub writer: u16,
}

impl DiffKey {
    pub fn page_id(&self) -> PageId {
        PageId(self.page)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn notice_names_its_diff() {
        let n = WriteNotice::new(PageId(7), 3, 42);
        let k = n.diff_key();
        assert_eq!(k.page, 7);
        assert_eq!(k.epoch, 42);
        assert_eq!(k.writer, 3);
        assert_eq!(n.page_id(), PageId(7));
        assert_eq!(k.page_id(), PageId(7));
    }

    #[test]
    fn diff_keys_order_by_page_then_epoch() {
        let a = DiffKey {
            page: 1,
            epoch: 5,
            writer: 0,
        };
        let b = DiffKey {
            page: 1,
            epoch: 6,
            writer: 0,
        };
        let c = DiffKey {
            page: 2,
            epoch: 0,
            writer: 0,
        };
        assert!(a < b && b < c);
    }
}
