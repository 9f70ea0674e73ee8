//! A process's page table over the shared segment.

use dsm_sim::{decode_table, encode_table, SnapError, SnapReader, SnapWriter, State, StateHasher};

use crate::frame::Frame;
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
}

impl PageStore {
    /// An empty store for `page_size`-byte pages.
    pub fn new(page_size: usize) -> PageStore {
        assert!(page_size.is_power_of_two() && page_size >= 512);
        PageStore {
            page_size,
            frames: Vec::new(),
            image: Image::new(page_size),
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
        } = self;
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
