//! Write notices and diff naming (homeless LRC).
//!
//! "Structures called write notices are distributed to other processes via
//! existing synchronization (barrier) messages. Each write notice informs
//! the recipient that a shared page has been modified ... The write notice
//! also names the diff that needs to be applied" (§2.1.1).

use dsm_sim::{FastMap, SnapError, SnapReader, SnapWriter, State, StateHasher};
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

/// Every write notice merged since the last GC, kept once for the whole
/// cluster, and how far each process has consumed it.
///
/// A barrier hands every process the same merged notices, so they are
/// appended once, to one log per page. A process's *unconsumed* notices
/// for a page are the log past its cursor, minus its own: exactly what it
/// would hold had it filed every foreign notice it received, and what the
/// hash folds, so two executions hash equal exactly when every process
/// has the same notices still to consume.
#[derive(Clone, Debug, Default)]
pub(crate) struct NoticeLog {
    /// Per page, the merged notices in barrier order, which is ascending
    /// `(epoch, writer)`.
    pages: FastMap<u32, Vec<WriteNotice>>,
    /// Per process: page → length of the log prefix it has consumed (no
    /// entry: none of it).
    cursors: Box<[FastMap<u32, u32>]>,
}

impl NoticeLog {
    /// An empty log for `nprocs` processes.
    pub fn new(nprocs: usize) -> NoticeLog {
        NoticeLog {
            pages: FastMap::default(),
            cursors: (0..nprocs).map(|_| FastMap::default()).collect(),
        }
    }

    /// File one barrier's merged notices, sorted by `(epoch, page, writer)`.
    pub fn append(&mut self, merged: &[WriteNotice]) {
        for same_page in merged.chunk_by(|a, b| a.page == b.page) {
            let log = self.pages.entry(same_page[0].page).or_default();
            log.extend_from_slice(same_page);
        }
    }

    fn unconsumed_in<'a>(
        log: &'a [WriteNotice],
        cursors: &FastMap<u32, u32>,
        pid: usize,
        page: u32,
    ) -> impl Iterator<Item = &'a WriteNotice> + Clone {
        let from = cursors.get(&page).map_or(0, |&c| c as usize);
        log[from..]
            .iter()
            .filter(move |n| usize::from(n.writer) != pid)
    }

    /// `pid`'s unconsumed notices for `page`, in log order.
    pub fn unconsumed(&self, pid: usize, page: u32) -> impl Iterator<Item = &WriteNotice> {
        let log = self.pages.get(&page).map_or(&[][..], Vec::as_slice);
        Self::unconsumed_in(log, &self.cursors[pid], pid, page)
    }

    /// `pid`'s unconsumed notices for `page`, in log order, now marked
    /// consumed.
    pub fn consume(&mut self, pid: usize, page: u32) -> Vec<WriteNotice> {
        let Some(log) = self.pages.get(&page) else {
            return Vec::new();
        };
        let cursors = &mut self.cursors[pid];
        let notices = Self::unconsumed_in(log, cursors, pid, page)
            .copied()
            .collect();
        cursors.insert(page, log.len() as u32);
        notices
    }

    /// The pages on which `pid` has unconsumed notices, ascending.
    pub fn pending_pages(&self, pid: usize) -> Vec<u32> {
        let mut pages: Vec<u32> = self.pages.keys().copied().collect();
        pages.retain(|&page| self.unconsumed(pid, page).next().is_some());
        pages.sort_unstable();
        pages
    }

    /// Forget every notice (GC).
    pub fn clear(&mut self) {
        self.pages.clear();
        self.cursors.iter_mut().for_each(FastMap::clear);
    }
}

/// Hand-written: the snapshot carries the log and the cursors; the hash
/// folds each process's unconsumed notices instead, because a consumed
/// prefix no process can see again must not tell two states apart.
impl State for NoticeLog {
    fn encode(&self, w: &mut SnapWriter) {
        let NoticeLog { pages, cursors } = self;
        pages.encode(w);
        cursors.encode(w);
    }

    fn decode(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let NoticeLog { pages, cursors } = self;
        pages.decode(r)?;
        cursors.decode(r)?;
        for (&page, &c) in cursors.iter().flat_map(|c| c.iter()) {
            let len = pages.get(&page).map_or(0, Vec::len);
            r.index(u64::from(c), len + 1)?;
        }
        Ok(())
    }

    fn fold(&self, h: &mut StateHasher) {
        let NoticeLog { pages, cursors } = self;
        let mut order: Vec<(&u32, &Vec<WriteNotice>)> = pages.iter().collect();
        order.sort_unstable_by_key(|&(&page, _)| page);
        h.usize(cursors.len());
        for (pid, cursors) in cursors.iter().enumerate() {
            for &(&page, log) in &order {
                let view = Self::unconsumed_in(log, cursors, pid, page);
                let len = view.clone().count();
                if len > 0 {
                    page.fold(h);
                    h.usize(len);
                    view.for_each(|n| n.fold(h));
                }
            }
            // Pages are u32, so no page folds as this end-of-process mark.
            h.u64(u64::MAX);
        }
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

    fn hash(log: &NoticeLog) -> u64 {
        let mut h = StateHasher::new();
        log.fold(&mut h);
        h.finish()
    }

    fn bytes(log: &NoticeLog) -> Vec<u8> {
        let mut w = SnapWriter::new();
        log.encode(&mut w);
        w.into_bytes()
    }

    #[test]
    fn log_hashes_what_is_left_to_consume() {
        let n = |page, writer, epoch| WriteNotice::new(PageId(page), writer, epoch);
        let mut a = NoticeLog::new(2);
        a.append(&[n(3, 1, 1), n(5, 0, 1)]);
        assert_eq!(a.consume(0, 3), [n(3, 1, 1)]);
        assert!(a.consume(0, 3).is_empty(), "consumed once");
        // Process 0's only other notice is its own; process 1 has page 5.
        assert!(a.pending_pages(0).is_empty());
        assert_eq!(a.pending_pages(1), [5]);

        let mut b = NoticeLog::new(2);
        b.append(&[n(5, 0, 1)]);
        assert_eq!(hash(&a), hash(&b), "a consumed notice is invisible");
        assert_ne!(bytes(&a), bytes(&b), "the snapshot keeps the log");
        b.consume(1, 5);
        assert_ne!(hash(&a), hash(&b));

        let mut c = NoticeLog::new(2);
        c.decode(&mut SnapReader::new(&bytes(&a))).unwrap();
        assert_eq!((hash(&c), bytes(&c)), (hash(&a), bytes(&a)));
        c.clear();
        assert_eq!(hash(&c), hash(&NoticeLog::new(2)));

        // A cursor past the end of its page's log is refused.
        c.cursors[1].insert(7, 1);
        let bad = bytes(&c);
        assert!(NoticeLog::new(2)
            .decode(&mut SnapReader::new(&bad))
            .is_err());
    }
}
