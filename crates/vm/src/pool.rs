//! Free-lists for page buffers and diff storage.
//!
//! The protocols allocate in a tight loop: a twin per write-trapped page
//! per interval and a diff per sealed page, the diff living until its last
//! recipient has consumed it — one barrier later (home-based) or at GC
//! (homeless). A [`BufPool`] recycles those allocations — callers `take_*`
//! instead of allocating and `put_*` instead of dropping. Pooling is pure
//! host-side mechanics: buffers carry no virtual-time cost and no stale
//! byte of recycled memory is ever read. A twin buffer is read only
//! where a write has saved old words into it since it was taken; a diff
//! body is appended to after being emptied. The proptests in `frame.rs`
//! and `diff.rs` pin both down.

use std::rc::Rc;

use crate::buf::PageBuf;
use crate::diff::{Body, Diff};

/// Retention caps: a pool never holds more than this many of each kind
/// (excess is simply dropped), bounding idle memory.
const PAGES_CAP: usize = 128;
const DIFFS_CAP: usize = 128;

/// A free-list for [`PageBuf`]s (twins, copies) and for the storage behind
/// a [`Diff`] (the shared box, its run table and its payload, recycled as
/// one unit). Pooled memory is interchangeable scratch whose old contents
/// are never read — never logical state, so owners class it `config` in
/// their state declarations.
#[derive(Debug, Default)]
pub struct BufPool {
    pages: Vec<PageBuf>,
    /// Emptied diff bodies, each uniquely held: a body enters only through
    /// `Rc::get_mut` in [`BufPool::put_diff`], and the pool never clones.
    diffs: Vec<Rc<Body>>,
}

impl BufPool {
    /// An empty pool.
    pub fn new() -> BufPool {
        BufPool::default()
    }

    /// A page buffer of `len` bytes with *unspecified contents* — the
    /// caller must never read a byte it has not written (a twin writes
    /// each word before its dirty ranges let anything read it). Recycles
    /// a pooled buffer of the same size if one is available.
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

    /// An empty, uniquely held diff body (recycled capacity if available).
    pub(crate) fn take_body(&mut self) -> Rc<Body> {
        self.diffs.pop().unwrap_or_default()
    }

    /// Give up one handle to a diff. Its storage goes back to the
    /// free-list only if this was the last handle; while any other is
    /// alive `Rc::get_mut` refuses, the handle is merely dropped, and the
    /// diff those others see is untouched.
    pub fn put_diff(&mut self, diff: Diff) {
        let mut body = diff.body;
        if let Some(last) = Rc::get_mut(&mut body) {
            if self.diffs.len() < DIFFS_CAP {
                last.clear();
                self.diffs.push(body);
            }
        }
    }

    /// Pooled buffer counts `(pages, diffs)` — observability for tests
    /// and debugging.
    pub fn sizes(&self) -> (usize, usize) {
        (self.pages.len(), self.diffs.len())
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
        // which is why no caller reads a byte it did not write.
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
        let mut cur = PageBuf::zeroed(64);
        cur.bytes_mut()[..16].fill(1);
        cur.bytes_mut()[32..40].fill(2);
        let diff = Diff::capture(PageId(0), &cur, &[(0, 16), (32, 40)]);
        pool.put_diff(diff);
        assert_eq!(pool.sizes(), (0, 1));
        // What comes back is empty: a diff built on it holds its own runs
        // only, and the pool is drawn down.
        let again = Diff::capture_in(PageId(0), &cur, &[(32, 40)], &mut pool);
        assert_eq!(pool.sizes(), (0, 0));
        assert_eq!(again.runs().collect::<Vec<_>>(), [(32, &[2u8; 8][..])]);
    }
}
