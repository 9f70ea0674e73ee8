//! The pristine image of the shared segment.

use std::rc::Rc;

use dsm_sim::StateHasher;

use crate::buf::PageBuf;

/// What setup wrote into the shared segment: the contents every process
/// logically receives at distribution, and the base every page frame is
/// delta-encoded against in a snapshot.
///
/// Setup grows and writes it through the cluster's sole handle;
/// [`Image::freeze`] then fixes its digest, after which the cluster shares
/// clones with every [`crate::PageStore`] and the pages never change.
/// Pages past the end — the segment may still grow mid-run, by
/// zero-initialized allocations — read as one shared zero page.
#[derive(Clone, Debug)]
pub struct Image(Rc<Contents>);

#[derive(Debug)]
struct Contents {
    pages: Vec<PageBuf>,
    zero: PageBuf,
    digest: u64,
}

impl Image {
    /// An empty image of `page_size`-byte pages.
    pub fn new(page_size: usize) -> Image {
        Image(Rc::new(Contents {
            pages: Vec::new(),
            zero: PageBuf::zeroed(page_size),
            digest: 0,
        }))
    }

    fn contents_mut(&mut self) -> &mut Contents {
        Rc::get_mut(&mut self.0).expect("the image is immutable once shared with the page stores")
    }

    /// Number of pages setup has covered.
    pub fn len(&self) -> usize {
        self.0.pages.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.pages.is_empty()
    }

    /// Setup: extend to at least `npages` zero-filled pages.
    pub fn grow(&mut self, npages: usize) {
        let Contents { pages, zero, .. } = self.contents_mut();
        while pages.len() < npages {
            pages.push(zero.clone());
        }
    }

    /// Setup: the writable contents of `page`.
    pub fn page_mut(&mut self, page: usize) -> &mut PageBuf {
        &mut self.contents_mut().pages[page]
    }

    /// End of setup: fix the digest that snapshots pin the image by.
    pub fn freeze(&mut self) {
        let Contents { pages, digest, .. } = self.contents_mut();
        let mut h = StateHasher::new();
        h.usize(pages.len());
        for p in pages.iter() {
            h.bytes(p.bytes());
        }
        *digest = h.finish();
    }

    /// The pristine contents of `page` (zero past the end).
    #[inline]
    pub fn page(&self, page: usize) -> &PageBuf {
        self.0.pages.get(page).unwrap_or(&self.0.zero)
    }

    /// Digest of the frozen contents: a snapshot restores only over the
    /// image it was taken over, and asserts so instead of re-shipping it.
    pub fn digest(&self) -> u64 {
        self.0.digest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grows_writes_freezes_and_reads_zero_past_the_end() {
        let mut a = Image::new(64);
        a.grow(2);
        a.page_mut(1).bytes_mut()[3] = 7;
        a.freeze();
        let mut b = Image::new(64);
        b.grow(2);
        b.freeze();
        assert_ne!(a.digest(), b.digest());
        let shared = a.clone();
        assert_eq!(shared.page(1).bytes()[3], 7);
        assert_eq!(shared.len(), 2);
        assert!(shared.page(9).bytes().iter().all(|&x| x == 0));
    }

    #[test]
    #[should_panic(expected = "immutable once shared")]
    fn shared_image_rejects_writes() {
        let mut a = Image::new(64);
        a.grow(1);
        let _store_handle = a.clone();
        a.page_mut(0);
    }
}
