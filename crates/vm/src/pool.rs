//! Free-lists for page buffers and diff run storage.
//!
//! The protocols allocate in a tight loop: a twin per write-trapped page
//! per interval, a run vector plus one payload vector per run per diff,
//! all dropped within a barrier (home-based) or at GC (homeless). A
//! [`BufPool`] recycles those allocations — callers `take_*` instead of
//! allocating and `put_*` instead of dropping. Pooling is pure host-side
//! mechanics: buffers carry no virtual-time cost and recycled memory is
//! always fully overwritten before use (twins by a full page copy, run
//! payloads by `extend_from_slice` onto an emptied vector), a property the
//! proptests in `frame.rs` and `diff.rs` pin down.

use crate::buf::PageBuf;
use crate::diff::{Diff, DiffRun};

/// Retention caps: a pool never holds more than this many of each kind
/// (excess is simply dropped), bounding idle memory.
const PAGES_CAP: usize = 128;
const RUN_LISTS_CAP: usize = 128;
const RUN_BUFS_CAP: usize = 512;

/// A free-list for [`PageBuf`]s (twins, copies) and the two vectors a
/// [`Diff`] is made of (the run list and each run's payload). Pooled
/// memory is interchangeable scratch, fully overwritten before reuse —
/// never logical state, so owners class it `config` in their state
/// declarations.
#[derive(Debug, Default)]
pub struct BufPool {
    pages: Vec<PageBuf>,
    run_lists: Vec<Vec<DiffRun>>,
    run_bufs: Vec<Vec<u8>>,
}

impl BufPool {
    /// An empty pool.
    pub fn new() -> BufPool {
        BufPool::default()
    }

    /// A page buffer of `len` bytes with *unspecified contents* — the
    /// caller must fully overwrite it. Recycles a pooled buffer of the
    /// same size if one is available.
    pub fn take_page(&mut self, len: usize) -> PageBuf {
        match self.pages.last() {
            Some(p) if p.len() == len => self.pages.pop().expect("checked non-empty"),
            _ => PageBuf::zeroed(len),
        }
    }

    /// Return a page buffer to the pool. Buffers of a different size than
    /// the ones already pooled (or beyond the cap) are dropped.
    pub fn put_page(&mut self, buf: PageBuf) {
        let same_size = self.pages.last().is_none_or(|p| p.len() == buf.len());
        if same_size && self.pages.len() < PAGES_CAP {
            self.pages.push(buf);
        }
    }

    /// An empty run vector (recycled capacity if available).
    pub fn take_runs(&mut self) -> Vec<DiffRun> {
        self.run_lists.pop().unwrap_or_default()
    }

    /// An empty run payload vector (recycled capacity if available).
    pub fn take_run_buf(&mut self) -> Vec<u8> {
        self.run_bufs.pop().unwrap_or_default()
    }

    /// Recycle a diff's storage: each run's payload and the run vector
    /// itself go back to their free-lists.
    pub fn put_diff(&mut self, diff: Diff) {
        self.put_runs(diff.runs);
    }

    /// Recycle a run vector (and the payloads it holds).
    pub fn put_runs(&mut self, mut runs: Vec<DiffRun>) {
        for mut run in runs.drain(..) {
            if self.run_bufs.len() < RUN_BUFS_CAP {
                run.data.clear();
                self.run_bufs.push(run.data);
            }
        }
        if self.run_lists.len() < RUN_LISTS_CAP {
            self.run_lists.push(runs);
        }
    }

    /// Pooled buffer counts `(pages, run_lists, run_bufs)` — observability
    /// for tests and debugging.
    pub fn sizes(&self) -> (usize, usize, usize) {
        (self.pages.len(), self.run_lists.len(), self.run_bufs.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PageId;

    #[test]
    fn pages_recycle_by_size() {
        let mut pool = BufPool::new();
        let mut a = pool.take_page(64);
        a.bytes_mut()[0] = 0xAB;
        pool.put_page(a);
        assert_eq!(pool.sizes().0, 1);
        // Wrong size allocates fresh (zeroed) and leaves the pooled one.
        let b = pool.take_page(128);
        assert_eq!(b.len(), 128);
        assert!(b.bytes().iter().all(|&x| x == 0));
        assert_eq!(pool.sizes().0, 1);
        // Matching size recycles; contents are unspecified (stale here),
        // which is why every caller fully overwrites.
        let c = pool.take_page(64);
        assert_eq!(c.bytes()[0], 0xAB);
        assert_eq!(pool.sizes().0, 0);
        // A mismatched put is dropped, not pooled.
        pool.put_page(PageBuf::zeroed(64));
        pool.put_page(PageBuf::zeroed(128));
        assert_eq!(pool.sizes().0, 1);
    }

    #[test]
    fn diff_storage_recycles_emptied() {
        let mut pool = BufPool::new();
        let diff = Diff {
            page: PageId(0),
            runs: vec![
                DiffRun {
                    offset: 0,
                    data: vec![1; 16],
                },
                DiffRun {
                    offset: 32,
                    data: vec![2; 8],
                },
            ],
        };
        pool.put_diff(diff);
        assert_eq!(pool.sizes(), (0, 1, 2));
        let runs = pool.take_runs();
        assert!(runs.is_empty(), "recycled run vectors arrive empty");
        let buf = pool.take_run_buf();
        assert!(buf.is_empty(), "recycled payload vectors arrive empty");
        assert!(buf.capacity() >= 8, "capacity is what gets recycled");
    }
}
