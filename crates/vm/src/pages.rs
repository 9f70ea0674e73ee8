//! What the protocols ask of a page substrate.
//!
//! The protocol state machines in `dsm-core` never look at page bytes.
//! They ask a process's page table for a frame's protection, version,
//! applied-through floor and twin; they ask it to twin a page, seal the
//! twin into a diff, apply a diff, copy a page from another process; and
//! of a diff they ask only how big it is. [`Pages`] is exactly that list.
//! [`PageStore`] answers it with real frames and byte-for-byte [`Diff`]s —
//! that instantiation is the runtime. `dsm-plan` answers it with dataless
//! per-page digests, and the same protocol code becomes the static
//! predictor.

use core::fmt::Debug;

use crate::diff::Diff;
use crate::dirty::DirtyRanges;
use crate::image::Image;
use crate::page::{FaultKind, PageId, Protection};
use crate::pool::BufPool;
use crate::store::PageStore;

/// The size questions the protocols ask of a sealed diff.
pub trait Delta: Debug {
    /// True for the paper's "zero-length diff": nothing changed.
    fn is_empty(&self) -> bool;
    /// Bytes of modified data carried (what applying it costs).
    fn payload_bytes(&self) -> usize;
    /// Bytes on the wire, headers included.
    fn wire_bytes(&self) -> usize;
}

impl Delta for Diff {
    fn is_empty(&self) -> bool {
        Diff::is_empty(self)
    }
    fn payload_bytes(&self) -> usize {
        Diff::payload_bytes(self)
    }
    fn wire_bytes(&self) -> usize {
        Diff::wire_bytes(self)
    }
}

/// The protocol-visible state of one resident frame, minus its bytes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Meta {
    pub prot: Protection,
    /// Version of the contents the frame reflects (home-based protocols).
    pub version_seen: u32,
    /// All-writers epoch floor raised by full-page fetches (homeless
    /// protocols).
    pub applied_through: u64,
    pub has_twin: bool,
    /// Twin-free dirty tracking is armed (`bar-r`).
    pub tracking: bool,
}

/// One process's page table, as the protocols see it. Costs are the
/// caller's business: every method is pure state.
pub trait Pages {
    /// A sealed set of modifications to one page, immutable from the
    /// moment [`Pages::seal`] or [`Pages::capture`] returns it (no method
    /// takes a diff mutably). `Clone` relies on that: a clone is *another
    /// handle to the same modifications*, O(1) whatever the diff's size —
    /// which is how one sealed diff reaches the home, every copyset
    /// reader, a duplicated delivery and every later fetch reply.
    type Diff: Delta + Clone + Default;
    /// Host-side scratch the twin and diff operations draw from; one per
    /// cluster, never logical state.
    type Pool: Default;

    /// An empty table for `page_size`-byte pages.
    fn new(page_size: usize) -> Self;
    /// Grow the table to cover at least `npages` pages.
    fn ensure_pages(&mut self, npages: usize);
    /// Install the frozen segment image that first touches copy from.
    fn share_image(&mut self, image: Image);

    /// Classify an access; an untouched page is `Invalid`.
    fn check(&self, page: PageId, write: bool) -> Option<FaultKind>;
    /// The frame's protocol-visible state, `None` until first touched.
    fn meta(&self, page: PageId) -> Option<Meta>;
    /// Current protection (`Invalid` if untouched).
    #[inline]
    fn protection(&self, page: PageId) -> Protection {
        self.meta(page).map_or(Protection::Invalid, |m| m.prot)
    }

    /// First touch: a frame holding the pristine image contents, at
    /// version 1, under `prot`.
    fn materialize(&mut self, page: PageId, prot: Protection);
    /// Change protection, materializing the frame; returns the old value.
    fn set_protection(&mut self, page: PageId, prot: Protection) -> Protection;
    fn set_version_seen(&mut self, page: PageId, version: u32);
    /// Raise the applied-through floor to at least `epoch`.
    fn raise_applied_through(&mut self, page: PageId, epoch: u64);

    /// Take a twin of the current contents; keeps an existing one.
    fn make_twin(&mut self, page: PageId, pool: &mut Self::Pool);
    /// Make the twin match the current contents, taking one if absent.
    fn refresh_twin(&mut self, page: PageId, pool: &mut Self::Pool);
    /// Discard the twin, if any.
    fn drop_twin(&mut self, page: PageId, pool: &mut Self::Pool);
    /// Seal the modifications since the twin was taken into a diff and
    /// discard the twin. Panics without one.
    fn seal(&mut self, page: PageId, pool: &mut Self::Pool) -> Self::Diff;
    fn apply_diff(&mut self, page: PageId, diff: &Self::Diff);
    /// Replace the page's contents with `from`'s copy of it.
    fn copy_page(&mut self, page: PageId, from: &Self);
    /// End of one handle's life. The diff's storage goes back to `pool`
    /// with the last handle, never under a live one.
    fn recycle(pool: &mut Self::Pool, diff: Self::Diff);

    /// Start recording writes without a twin (`bar-r` certified pages).
    fn arm_tracking(&mut self, page: PageId);
    /// The ranges written since tracking was armed.
    fn tracked_ranges(&self, page: PageId) -> &DirtyRanges;
    /// Stop recording and forget the ranges.
    fn disarm_tracking(&mut self, page: PageId);
    /// The current contents of `spans`, verbatim, as a diff.
    fn capture(&self, page: PageId, spans: &[(u32, u32)], pool: &mut Self::Pool) -> Self::Diff;
}

impl Pages for PageStore {
    type Diff = Diff;
    type Pool = BufPool;

    fn new(page_size: usize) -> PageStore {
        PageStore::new(page_size)
    }
    fn ensure_pages(&mut self, npages: usize) {
        PageStore::ensure_pages(self, npages);
    }
    fn share_image(&mut self, image: Image) {
        PageStore::share_image(self, image);
    }
    #[inline]
    fn check(&self, page: PageId, write: bool) -> Option<FaultKind> {
        PageStore::check(self, page, write)
    }
    #[inline]
    fn meta(&self, page: PageId) -> Option<Meta> {
        self.frame(page).map(|f| Meta {
            prot: f.prot(),
            version_seen: f.version_seen(),
            applied_through: f.applied_through(),
            has_twin: f.has_twin(),
            tracking: f.tracking(),
        })
    }
    fn materialize(&mut self, page: PageId, prot: Protection) {
        let f = PageStore::materialize(self, page);
        f.set_prot(prot);
        f.set_version_seen(1);
    }
    fn set_protection(&mut self, page: PageId, prot: Protection) -> Protection {
        PageStore::set_protection(self, page, prot)
    }
    fn set_version_seen(&mut self, page: PageId, version: u32) {
        self.frame_mut(page).set_version_seen(version);
    }
    fn raise_applied_through(&mut self, page: PageId, epoch: u64) {
        self.frame_mut(page).raise_applied_through(epoch);
    }
    fn make_twin(&mut self, page: PageId, pool: &mut BufPool) {
        self.frame_mut(page).make_twin_in(pool);
    }
    fn refresh_twin(&mut self, page: PageId, pool: &mut BufPool) {
        self.frame_mut(page).refresh_twin_in(pool);
    }
    fn drop_twin(&mut self, page: PageId, pool: &mut BufPool) {
        self.frame_mut(page).drop_twin_into(pool);
    }
    fn seal(&mut self, page: PageId, pool: &mut BufPool) -> Diff {
        let f = self.frame_mut(page);
        let diff = f.diff_against_twin_in(page, pool);
        f.drop_twin_into(pool);
        diff
    }
    fn apply_diff(&mut self, page: PageId, diff: &Diff) {
        self.frame_mut(page).apply_diff(diff);
    }
    fn copy_page(&mut self, page: PageId, from: &PageStore) {
        let src = from.frame(page).expect("source frame present");
        self.frame_mut(page).fill_from(src.data());
    }
    fn recycle(pool: &mut BufPool, diff: Diff) {
        pool.put_diff(diff);
    }
    fn arm_tracking(&mut self, page: PageId) {
        self.frame_mut(page).arm_dirty_tracking();
    }
    fn tracked_ranges(&self, page: PageId) -> &DirtyRanges {
        self.frame(page).expect("tracked frame").dirty_ranges()
    }
    fn disarm_tracking(&mut self, page: PageId) {
        self.frame_mut(page).disarm_dirty_tracking();
    }
    fn capture(&self, page: PageId, spans: &[(u32, u32)], pool: &mut BufPool) -> Diff {
        let data = self.frame(page).expect("captured frame").data();
        Diff::capture_in(page, data, spans, pool)
    }
}
