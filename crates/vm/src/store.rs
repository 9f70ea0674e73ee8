//! A process's page table over the shared segment.

use std::rc::Rc;

use dsm_sim::{
    decode_table, encode_table, reclaim, share, SnapError, SnapReader, SnapWriter, State,
    StateHasher,
};

use crate::frame::{Frame, FrameSave};
use crate::image::Image;
use crate::page::{FaultKind, PageId, Protection};

/// All page frames of one simulated process.
///
/// Frames are allocated lazily: a band-decomposed stencil process never
/// touches most of the segment, and an untouched page behaves exactly like
/// an `Invalid` frame.
#[derive(Debug)]
pub struct PageStore {
    page_size: usize,
    frames: Vec<Option<Box<Frame>>>,
    /// The pristine segment image frames are delta-encoded against.
    image: Image,
    /// Per page, the checkpoint buffer ([`PageStore::save`] /
    /// [`PageStore::load`]) the frame's contents last equaled, and the
    /// frame's revision then. While that revision has not moved the
    /// contents are still the buffer's bytes, so a save shares it and a
    /// load of the same buffer copies nothing, neither reading a byte.
    /// An entry goes when its frame does: a frame created again restarts
    /// its revision count. A host-side cache; no snapshot or hash sees it.
    origins: Vec<Option<(u64, Rc<[u8]>)>>,
    /// Page buffers of dropped captures that nothing else holds
    /// ([`PageStore::recycle`]), for later saves to overwrite.
    spare: Vec<Rc<[u8]>>,
}

impl PageStore {
    /// An empty store for `page_size`-byte pages.
    pub fn new(page_size: usize) -> PageStore {
        assert!(page_size.is_power_of_two() && page_size >= 512);
        PageStore {
            page_size,
            frames: Vec::new(),
            image: Image::new(page_size),
            origins: Vec::new(),
            spare: Vec::new(),
        }
    }

    /// Install the (frozen) segment image this store's frames are
    /// snapshotted against.
    pub fn share_image(&mut self, image: Image) {
        self.image = image;
    }

    /// Page size in bytes.
    #[inline]
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Number of pages the table covers (segment size).
    #[inline]
    pub fn npages(&self) -> usize {
        self.frames.len()
    }

    /// Number of frames actually materialized.
    pub fn resident(&self) -> usize {
        self.frames.iter().filter(|f| f.is_some()).count()
    }

    /// Grow the table to cover at least `npages` pages.
    pub fn ensure_pages(&mut self, npages: usize) {
        if npages > self.frames.len() {
            self.frames.resize_with(npages, || None);
        }
    }

    /// Classify an access without materializing a frame: untouched pages
    /// are `Invalid`.
    #[inline]
    pub fn check(&self, page: PageId, write: bool) -> Option<FaultKind> {
        self.protection(page).check(write)
    }

    /// Current protection of `page` (`Invalid` if untouched).
    #[inline]
    pub fn protection(&self, page: PageId) -> Protection {
        self.frames
            .get(page.index())
            .and_then(|f| f.as_deref())
            .map_or(Protection::Invalid, Frame::prot)
    }

    /// Immutable access to a materialized frame.
    #[inline]
    pub fn frame(&self, page: PageId) -> Option<&Frame> {
        self.frames.get(page.index()).and_then(|f| f.as_deref())
    }

    /// Mutable access, materializing the frame on first touch.
    pub fn frame_mut(&mut self, page: PageId) -> &mut Frame {
        assert!(
            page.index() < self.frames.len(),
            "page {page:?} beyond segment ({} pages)",
            self.frames.len()
        );
        let page_size = self.page_size;
        self.frames[page.index()].get_or_insert_with(|| Box::new(Frame::new(page_size)))
    }

    /// First touch: materialize `page` holding its pristine image contents.
    pub fn materialize(&mut self, page: PageId) -> &mut Frame {
        let PageStore {
            page_size,
            frames,
            image,
            origins: _,
            spare: _,
        } = self;
        let f = frames[page.index()].get_or_insert_with(|| Box::new(Frame::new(*page_size)));
        f.fill_from(image.page(page.index()));
        f
    }

    /// Change protection, materializing the frame; returns the old value.
    ///
    /// The *caller* charges the mprotect cost — the store is pure state.
    pub fn set_protection(&mut self, page: PageId, prot: Protection) -> Protection {
        self.frame_mut(page).set_prot(prot)
    }

    /// Iterate over materialized `(PageId, &Frame)` pairs in page order.
    pub fn iter(&self) -> impl Iterator<Item = (PageId, &Frame)> + '_ {
        self.frames
            .iter()
            .enumerate()
            .filter_map(|(i, f)| f.as_deref().map(|fr| (PageId(i as u32), fr)))
    }
}

/// An in-memory capture of a [`PageStore`] ([`PageStore::save`]): the
/// table length and each resident frame's capture, in page order.
#[derive(Debug)]
pub struct StoreSave {
    npages: usize,
    frames: Vec<(u32, FrameSave)>,
}

impl StoreSave {
    /// Resident pages of this capture that do not share their buffers with
    /// the same page of `parent`.
    pub fn unshared_pages(&self, parent: &StoreSave) -> usize {
        let shared = |page: u32, f: &FrameSave| {
            let i = parent.frames.binary_search_by_key(&page, |&(p, _)| p);
            i.is_ok_and(|i| f.shares_pages_with(&parent.frames[i].1))
        };
        let frames = self.frames.iter();
        frames.filter(|&&(page, ref f)| !shared(page, f)).count()
    }
}

impl PageStore {
    /// Capture the store in memory, for the explorer's checkpoints.
    /// `parent` is the capture this run continued from. A frame untouched
    /// since the store last saved or loaded it keeps that buffer (its
    /// `origins` entry). Any other frame shares the same page's buffer in
    /// `parent` when the bytes are equal — bytes, not revisions, because
    /// a page de-materialized by a load and touched again restarts its
    /// revision count — and is copied otherwise.
    pub fn save(&mut self, parent: Option<&StoreSave>) -> StoreSave {
        let PageStore {
            page_size: _,
            frames,
            image: _,
            origins,
            spare,
        } = self;
        origins.resize_with(frames.len(), || None);
        let mut prev = parent.map_or(&[][..], |p| &p.frames[..]).iter().peekable();
        let mut saved = Vec::new();
        for (i, (slot, origin)) in frames.iter().zip(origins.iter_mut()).enumerate() {
            let Some(f) = slot else { continue };
            let page = i as u32;
            while prev.next_if(|&&(p, _)| p < page).is_some() {}
            let parent = prev.next_if(|&&(p, _)| p == page).map(|(_, s)| s);
            let bytes = f.data().bytes();
            let data = match (origin.as_ref(), parent.map(FrameSave::data)) {
                (Some((rev, buf)), _) if *rev == f.revision() => Rc::clone(buf),
                (_, prev) => share(bytes, prev, spare),
            };
            let save = f.save(parent, data);
            *origin = Some((f.revision(), Rc::clone(save.data())));
            saved.push((page, save));
        }
        StoreSave {
            npages: frames.len(),
            frames: saved,
        }
    }

    /// Return to a [`PageStore::save`] capture, reusing every frame
    /// resident on both sides. As a snapshot restore does, it
    /// de-materializes the pages the capture does not hold.
    pub fn load(&mut self, save: &StoreSave) {
        let PageStore {
            page_size,
            frames,
            image: _,
            origins,
            spare: _,
        } = self;
        frames.resize_with(save.npages, || None);
        origins.resize_with(save.npages, || None);
        let mut next = 0;
        for (page, saved) in &save.frames {
            let i = *page as usize;
            frames[next..i].fill_with(|| None);
            origins[next..i].fill_with(|| None);
            let f = frames[i].get_or_insert_with(|| Box::new(Frame::new(*page_size)));
            let current = origins[i]
                .as_ref()
                .is_some_and(|(rev, buf)| *rev == f.revision() && Rc::ptr_eq(buf, saved.data()));
            f.load(saved, !current);
            origins[i] = Some((f.revision(), Rc::clone(saved.data())));
            next = i + 1;
        }
        frames[next..].fill_with(|| None);
        origins[next..].fill_with(|| None);
    }

    /// Take back a capture no checkpoint holds any more: each page buffer
    /// nothing else shares becomes a spare for later saves.
    pub fn recycle(&mut self, save: StoreSave) {
        for (_, f) in save.frames {
            reclaim(f.into_data(), &mut self.spare);
        }
    }
}

/// Hand-written: frames are written sparsely (`encode_table`), each
/// frame's contents as delta runs against the shared image.
/// Residency itself is state: restore de-materializes pages resident now
/// but absent from the snapshot, so an untouched-page lookup behaves as
/// before the page was ever touched, and the hash folds the frame set.
impl State for PageStore {
    fn encode(&self, w: &mut SnapWriter) {
        let PageStore {
            page_size: _,
            frames,
            image,
            origins: _,
            spare: _,
        } = self;
        encode_table(frames, w, |page, f, w| {
            f.encode(PageId(page as u32), image.page(page), w);
        });
    }

    fn decode(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let PageStore {
            page_size,
            frames,
            image,
            origins,
            spare: _,
        } = self;
        origins.clear();
        decode_table(frames, r, |page, slot, r| {
            slot.get_or_insert_with(|| Box::new(Frame::new(*page_size)))
                .decode(image.page(page), r)
        })
    }

    fn fold(&self, h: &mut StateHasher) {
        let PageStore {
            page_size: _,
            frames,
            image: _,
            origins: _,
            spare: _,
        } = self;
        h.usize(frames.len());
        for f in frames {
            h.byte(u8::from(f.is_some()));
            if let Some(f) = f {
                f.fold(h);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buf::PageBuf;
    use crate::dirty::DirtyRanges;
    use crate::pool::BufPool;

    #[test]
    fn untouched_pages_are_invalid() {
        let mut s = PageStore::new(8192);
        s.ensure_pages(4);
        assert_eq!(s.check(PageId(2), false), Some(FaultKind::ReadInvalid));
        assert_eq!(s.check(PageId(2), true), Some(FaultKind::WriteInvalid));
        assert_eq!(s.protection(PageId(2)), Protection::Invalid);
        assert_eq!(s.resident(), 0);
    }

    #[test]
    fn frame_mut_materializes() {
        let mut s = PageStore::new(8192);
        s.ensure_pages(4);
        s.frame_mut(PageId(1)).write_at(0, &[7]);
        assert_eq!(s.resident(), 1);
        assert_eq!(s.frame(PageId(1)).unwrap().data().bytes()[0], 7);
        assert!(s.frame(PageId(0)).is_none());
    }

    #[test]
    fn set_protection_returns_old() {
        let mut s = PageStore::new(8192);
        s.ensure_pages(2);
        assert_eq!(
            s.set_protection(PageId(0), Protection::Read),
            Protection::Invalid
        );
        assert_eq!(
            s.set_protection(PageId(0), Protection::ReadWrite),
            Protection::Read
        );
        assert_eq!(s.check(PageId(0), true), None);
    }

    #[test]
    fn ensure_pages_grows_monotonically() {
        let mut s = PageStore::new(8192);
        s.ensure_pages(10);
        assert_eq!(s.npages(), 10);
        s.ensure_pages(5); // must not shrink
        assert_eq!(s.npages(), 10);
        s.ensure_pages(20);
        assert_eq!(s.npages(), 20);
    }

    #[test]
    #[should_panic(expected = "beyond segment")]
    fn out_of_range_frame_panics() {
        let mut s = PageStore::new(8192);
        s.ensure_pages(2);
        let _ = s.frame_mut(PageId(5));
    }

    #[test]
    fn iter_visits_resident_in_order() {
        let mut s = PageStore::new(8192);
        s.ensure_pages(8);
        s.frame_mut(PageId(5));
        s.frame_mut(PageId(1));
        s.frame_mut(PageId(3));
        let pages: Vec<u32> = s.iter().map(|(p, _)| p.0).collect();
        assert_eq!(pages, vec![1, 3, 5]);
    }

    fn image_with(byte: u8) -> Image {
        let mut image = Image::new(512);
        image.grow(4);
        image.page_mut(1).bytes_mut().fill(byte);
        image.freeze();
        image
    }

    fn hash(s: &PageStore, mut h: StateHasher) -> u64 {
        s.fold(&mut h);
        h.finish()
    }

    #[test]
    fn snapshot_round_trips_frames_and_residency() {
        let image = image_with(9);
        let mut a = PageStore::new(512);
        a.share_image(image.clone());
        a.ensure_pages(4);
        a.frame_mut(PageId(1)).fill_from(image.page(1));
        a.frame_mut(PageId(1)).make_twin();
        a.frame_mut(PageId(1)).write_at(8, &[1, 2, 3]);
        a.frame_mut(PageId(3)).set_prot(Protection::Read);
        let mut w = SnapWriter::new();
        a.encode(&mut w);
        let bytes = w.into_bytes();
        assert!(
            bytes.len() < 200,
            "delta-encoded, not {} bytes",
            bytes.len()
        );

        // Restore over a store with different residency and contents.
        let mut b = PageStore::new(512);
        b.share_image(image);
        b.ensure_pages(6);
        b.frame_mut(PageId(0)).write_at(0, &[5]);
        b.frame_mut(PageId(1)).write_at(40, &[5]);
        b.frame_mut(PageId(5));
        let mut r = SnapReader::new(&bytes);
        b.decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(b.npages(), 4);
        let resident: Vec<u32> = b.iter().map(|(p, _)| p.0).collect();
        assert_eq!(resident, vec![1, 3]);
        let f = b.frame(PageId(1)).unwrap();
        assert_eq!(f.data().bytes(), a.frame(PageId(1)).unwrap().data().bytes());
        assert_eq!(f.logical_twin().unwrap().bytes()[8], 9);
        assert!(f.dirty_ranges().covers(8));
        assert_eq!(hash(&a, StateHasher::new()), hash(&b, StateHasher::new()));
        assert_eq!(
            hash(&b, StateHasher::new()),
            hash(&b, StateHasher::uncached())
        );
        let mut w = SnapWriter::new();
        b.encode(&mut w);
        assert_eq!(w.into_bytes(), bytes);
    }

    const NPAGES: usize = 4;

    fn store(image: &Image) -> PageStore {
        let mut s = PageStore::new(512);
        s.share_image(image.clone());
        s.ensure_pages(NPAGES);
        s
    }

    fn encoded(s: &PageStore) -> Vec<u8> {
        let mut w = SnapWriter::new();
        s.encode(&mut w);
        w.into_bytes()
    }

    /// One random mutation of `s`, drawing twins from `pool`: small
    /// writes, scattered bursts past the range cap, whole-page fills, the
    /// twin and tracking lifecycles, protection changes, and stale
    /// buffers into the pool for later twins to recycle.
    fn mutate(g: &mut dsm_sim::prop::Gen, s: &mut PageStore, pool: &mut BufPool) {
        let size = s.page_size();
        let page = PageId(g.below(s.npages()) as u32);
        match g.below(10) {
            0 => s.frame_mut(page).make_twin_in(pool),
            1 => {
                s.frame_mut(page).drop_twin_into(pool);
            }
            2 => s.frame_mut(page).refresh_twin_in(pool),
            3 => {
                let mut src = PageBuf::zeroed(size);
                src.bytes_mut().copy_from_slice(&g.bytes(size));
                s.frame_mut(page).fill_from(&src);
            }
            4 => {
                for _ in 0..g.range(DirtyRanges::MAX_RANGES, 2 * DirtyRanges::MAX_RANGES) {
                    let at = 16 * g.below(size / 16);
                    s.frame_mut(page).write_at(at, &g.u64().to_le_bytes());
                }
            }
            5 => {
                let f = s.frame_mut(page);
                if !f.disarm_dirty_tracking() {
                    f.arm_dirty_tracking();
                }
            }
            6 => {
                let mut stale = PageBuf::zeroed(size);
                stale.bytes_mut().fill(g.u64() as u8);
                pool.put_page(stale);
            }
            7 => {
                let prot = [Protection::Invalid, Protection::Read, Protection::ReadWrite];
                s.set_protection(page, prot[g.below(3)]);
            }
            8 => s.frame_mut(page).raise_applied_through(g.u64() % 8),
            _ => {
                let len = g.range(1, 40);
                let at = g.below(size - len);
                s.frame_mut(page).write_at(at, &g.bytes(len));
            }
        }
    }

    #[test]
    fn a_save_with_no_write_since_the_parent_shares_every_page() {
        let image = image_with(9);
        let mut s = store(&image);
        s.frame_mut(PageId(0)).write_at(0, &[1; 8]);
        s.frame_mut(PageId(1)).make_twin();
        s.frame_mut(PageId(1)).write_at(64, &[2; 24]);
        s.frame_mut(PageId(3)).arm_dirty_tracking();
        s.frame_mut(PageId(3)).write_at(8, &[3; 8]);
        let first = s.save(None);
        let second = s.save(Some(&first));
        assert_eq!(second.unshared_pages(&first), 0);
        let mut other = store(&image);
        other.load(&first);
        assert_eq!(
            other.save(Some(&first)).unshared_pages(&first),
            0,
            "so does a load"
        );
        s.frame_mut(PageId(1)).write_at(200, &[4; 8]);
        let third = s.save(Some(&second));
        assert_eq!(
            third.unshared_pages(&second),
            1,
            "only the written page copies"
        );
    }

    /// Item 11's law for the in-memory checkpoint: a load leaves no trace
    /// of what the store held before. Loading into a store that ran ahead
    /// (recycled twin buffers, extra resident frames, collapsed ranges)
    /// and into a fresh one gives the saved store's snapshot bytes and
    /// hash, and the hash memo a load carries over agrees with a recompute.
    #[test]
    fn load_into_a_dirtied_store_equals_load_into_a_fresh_one() {
        dsm_sim::prop::check("load_into_a_dirtied_store", 150, |g| {
            let image = image_with(9);
            let (mut a, mut b) = (store(&image), store(&image));
            b.ensure_pages(NPAGES + 2);
            let mut pool = BufPool::new();
            // The DFS's stack: each save continues from the one below it.
            let mut saves: Vec<(StoreSave, Vec<u8>, u64)> = Vec::new();
            for _ in 0..g.range(1, 8) {
                if !saves.is_empty() && g.chance(0.4) {
                    // Backtrack `a` itself to a capture on the stack, and
                    // hand it back the ones above, as the explorer does.
                    let kept = g.range(1, saves.len() + 1);
                    let (save, bytes, folded) = &saves[kept - 1];
                    a.load(save);
                    assert_eq!(encoded(&a), *bytes);
                    assert_eq!(hash(&a, StateHasher::new()), *folded);
                    for (dropped, _, _) in saves.drain(kept..) {
                        a.recycle(dropped);
                    }
                }
                for _ in 0..g.range(0, 12) {
                    mutate(g, &mut a, &mut pool);
                    if g.chance(0.3) {
                        hash(&a, StateHasher::new());
                    }
                }
                for _ in 0..g.range(0, 12) {
                    mutate(g, &mut b, &mut pool);
                }
                let save = a.save(saves.last().map(|(s, _, _)| s));
                let bytes = encoded(&a);
                let folded = hash(&a, StateHasher::uncached());
                let mut fresh = store(&image);
                for s in [&mut b, &mut fresh] {
                    s.load(&save);
                    assert_eq!(encoded(s), bytes);
                    assert_eq!(hash(s, StateHasher::new()), folded);
                    assert_eq!(hash(s, StateHasher::uncached()), folded);
                }
                saves.push((save, bytes, folded));
            }
        });
    }

    #[test]
    fn a_page_touched_again_after_a_load_dropped_it_is_not_the_parents() {
        let image = image_with(9);
        let mut s = store(&image);
        let empty = s.save(None);
        s.frame_mut(PageId(1)).write_at(0, &[1; 8]);
        let rev = s.frame(PageId(1)).unwrap().revision();
        let parent = s.save(Some(&empty));
        s.load(&empty);
        assert!(s.frame(PageId(1)).is_none(), "the load de-materialized it");
        s.frame_mut(PageId(1)).write_at(0, &[2; 8]);
        assert_eq!(s.frame(PageId(1)).unwrap().revision(), rev);
        hash(&s, StateHasher::new());
        let child = s.save(Some(&parent));
        assert_eq!(child.unshared_pages(&parent), 1);
        let mut t = store(&image);
        t.load(&child);
        assert_eq!(t.frame(PageId(1)).unwrap().data().bytes()[..8], [2; 8]);
        assert_eq!(
            hash(&t, StateHasher::new()),
            hash(&s, StateHasher::uncached())
        );

        // A snapshot restore drops pages as well.
        let nothing = encoded(&store(&image));
        s.decode(&mut SnapReader::new(&nothing)).unwrap();
        s.ensure_pages(NPAGES);
        s.frame_mut(PageId(1)).write_at(0, &[3; 8]);
        assert_eq!(s.frame(PageId(1)).unwrap().revision(), rev);
        assert_eq!(s.save(Some(&child)).unshared_pages(&child), 1);
    }

    #[test]
    fn corrupt_frames_are_errors() {
        let mut a = PageStore::new(512);
        a.ensure_pages(2);
        a.frame_mut(PageId(1)).write_at(496, &[1; 16]);
        let mut w = SnapWriter::new();
        a.encode(&mut w);
        let good = w.into_bytes();
        let decode = |bytes: &[u8]| PageStore::new(512).decode(&mut SnapReader::new(bytes));
        assert!(decode(&good).is_ok());
        for cut in 0..good.len() {
            assert!(decode(&good[..cut]).is_err(), "prefix {cut}");
        }
        // A run may not leave the page.
        let at = good.len() - 4 - 8 - 16 - 1; // the run's u32 offset, then len, data, twin flag
        assert_eq!(good[at..at + 4], 496u32.to_le_bytes());
        let mut bad = good.clone();
        bad[at] += 8;
        assert!(decode(&bad).is_err());
    }
}
