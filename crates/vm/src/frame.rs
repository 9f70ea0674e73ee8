//! One process's copy of one shared page.
//!
//! The frame is the choke point every mutation of page state funnels
//! through, which lets it maintain three host-side accelerators invisibly:
//!
//! * **dirty word ranges** — while a twin exists, every content write is
//!   recorded in a [`DirtyRanges`], so [`Frame::diff_against_twin`] scans
//!   only the written ranges instead of the whole page (byte-identical
//!   output; see `diff.rs`);
//! * **a lazily filled twin** — taking a twin copies nothing. The twin is
//!   the paper's copy of the page at the first write, and outside the
//!   dirty ranges that copy still equals the contents, so the twin buffer
//!   holds only the words inside them: each write saves the old value of
//!   every word it is the first to reach ([`DirtyRanges::insert_fresh`])
//!   before overwriting it. A write that collapses the ranges saves every
//!   word not yet saved — the cost the eager copy paid on every twin;
//! * **a revision counter** — every observable mutation bumps `rev`,
//!   which keys the memo of the frame's structural hash
//!   ([`Frame::fold`]), so writes and protocol mutations invalidate it
//!   for free.
//!
//! None affects *virtual* cost: twins, diffs, and protection changes
//! are charged by the protocol layer exactly as before; dirty tracking,
//! twin filling and revision bumps are bookkeeping on the host running
//! the simulation. The diff, the snapshot and the hash all read the twin
//! as the eager copy would hold it, so none of them can tell.
//!
//! Fields are private on purpose: a mutation path that bypassed the
//! recording methods would silently break the range-diff equivalence and
//! the hash-cache invalidation, so there is no such path.

use core::cell::Cell;
use std::rc::Rc;

use dsm_sim::{SnapError, SnapReader, SnapWriter, State, StateHasher};

use crate::buf::PageBuf;
use crate::diff::Diff;
use crate::dirty::DirtyRanges;
use crate::page::{FaultKind, PageId, Protection};
use crate::pool::BufPool;

/// A page frame: local contents, protection, and (when write-trapped) the
/// twin copy taken at the first write of the interval.
#[derive(Clone, Debug)]
pub struct Frame {
    /// Local copy of the page contents. Retained even while `Invalid`,
    /// because homeless protocols validate by applying diffs to the stale
    /// replica.
    data: PageBuf,
    /// Current protection.
    prot: Protection,
    /// Twin created at the first write of the current interval, if any.
    /// Only its words inside `dirty` are meaningful (the rest of the twin
    /// is `data`), all of them once `dirty` has collapsed.
    twin: Option<PageBuf>,
    /// Version of the page contents this frame reflects (home-based
    /// protocols); unused by homeless protocols.
    version_seen: u32,
    /// Epoch index of the last local modification interval applied to this
    /// frame (homeless protocols' "applied through" watermark).
    applied_through: u64,
    /// Word ranges written since the current twin was taken (conservative
    /// superset of the words differing from the twin). Maintained while
    /// `twin` exists or `tracking` is armed; cleared whenever a twin is
    /// (re)taken or tracking is (dis)armed.
    dirty: DirtyRanges,
    /// Twin-free dirty tracking: when armed, writes are recorded in
    /// `dirty` even without a twin. Region-granularity protocols use this
    /// on pages whose writers hold a static commuting-writer certificate —
    /// the recorded ranges alone (no twin comparison) bound the delta.
    tracking: bool,
    /// Bumped on every observable mutation; keys derived-value caches.
    rev: u64,
    /// Memo of [`Frame::fold`]'s structural hash: `(revision, hash)`.
    hash_cache: Cell<Option<(u64, u64)>>,
}

impl Frame {
    /// A fresh, zeroed, invalid frame.
    pub fn new(page_size: usize) -> Frame {
        Frame {
            data: PageBuf::zeroed(page_size),
            prot: Protection::Invalid,
            twin: None,
            version_seen: 0,
            applied_through: 0,
            dirty: DirtyRanges::new(),
            tracking: false,
            rev: 0,
            hash_cache: Cell::new(None),
        }
    }

    /// Invalidate derived-value caches after a mutation.
    #[inline]
    fn touch(&mut self) {
        self.rev += 1;
    }

    // ------------------------------------------------------------------
    // Read access
    // ------------------------------------------------------------------

    /// The page contents.
    #[inline]
    pub fn data(&self) -> &PageBuf {
        &self.data
    }

    /// Current protection.
    #[inline]
    pub fn prot(&self) -> Protection {
        self.prot
    }

    /// True while a twin exists.
    #[inline]
    pub fn has_twin(&self) -> bool {
        self.twin.is_some()
    }

    /// Version of the contents this frame reflects (home-based protocols).
    #[inline]
    pub fn version_seen(&self) -> u32 {
        self.version_seen
    }

    /// Homeless "applied through" epoch watermark.
    #[inline]
    pub fn applied_through(&self) -> u64 {
        self.applied_through
    }

    /// The dirty ranges recorded since the current twin was taken (or
    /// since twin-free tracking was armed).
    #[inline]
    pub fn dirty_ranges(&self) -> &DirtyRanges {
        &self.dirty
    }

    /// True while twin-free dirty tracking is armed.
    #[inline]
    pub fn tracking(&self) -> bool {
        self.tracking
    }

    /// Mutation counter; increases on every observable change. Equal
    /// revisions on the same frame imply equal observable state.
    #[inline]
    pub fn revision(&self) -> u64 {
        self.rev
    }

    /// Classify an access against the current protection, or `None` if the
    /// access proceeds without a fault.
    #[inline]
    pub fn check(&self, write: bool) -> Option<FaultKind> {
        self.prot.check(write)
    }

    // ------------------------------------------------------------------
    // Mutation (every path records dirtiness and bumps the revision)
    // ------------------------------------------------------------------

    /// Set the protection; returns the old value.
    pub fn set_prot(&mut self, prot: Protection) -> Protection {
        if prot != self.prot {
            self.touch();
        }
        core::mem::replace(&mut self.prot, prot)
    }

    /// Set the reflected version (home-based protocols).
    pub fn set_version_seen(&mut self, v: u32) {
        if v != self.version_seen {
            self.version_seen = v;
            self.touch();
        }
    }

    /// Raise the homeless applied-through watermark to at least `epoch`.
    pub fn raise_applied_through(&mut self, epoch: u64) {
        if epoch > self.applied_through {
            self.applied_through = epoch;
            self.touch();
        }
    }

    /// Record that `[offset, offset + len)` is about to be overwritten:
    /// under a twin, save the old value of every word this is the first
    /// write to reach; otherwise, while tracking is armed, extend the
    /// cover.
    fn record(&mut self, offset: usize, len: usize) {
        if let Some(twin) = &mut self.twin {
            let data = &self.data;
            self.dirty.insert_fresh(offset, len, data.len(), |lo, hi| {
                twin.copy_span_from(data, lo, hi);
            });
        } else if self.tracking {
            // Twin-free: the recorded ranges ARE the delta (no twin to
            // compare against), so a bounded cover beats collapse-to-all.
            self.dirty.insert_coarse(offset, len);
        }
    }

    /// Write `src` into the contents at byte `offset` — the application
    /// write path. Records the range while a twin exists or tracking is
    /// armed.
    pub fn write_at(&mut self, offset: usize, src: &[u8]) {
        self.record(offset, src.len());
        self.data.bytes_mut()[offset..offset + src.len()].copy_from_slice(src);
        self.touch();
    }

    /// Replace the whole contents with `src` (page fetch / migration).
    /// Conservatively marks everything dirty if a twin exists or tracking
    /// is armed.
    pub fn fill_from(&mut self, src: &PageBuf) {
        if let Some(twin) = &mut self.twin {
            let data = &self.data;
            self.dirty.mark_all_fresh(data.len(), |lo, hi| {
                twin.copy_span_from(data, lo, hi);
            });
        } else if self.tracking {
            self.dirty.mark_all();
        }
        self.data.copy_from(src);
        self.touch();
    }

    /// Apply a diff's runs to the contents, recording each run's range.
    pub fn apply_diff(&mut self, diff: &Diff) {
        for (offset, bytes) in diff.runs() {
            self.record(offset, bytes.len());
            self.data.bytes_mut()[offset..offset + bytes.len()].copy_from_slice(bytes);
        }
        self.touch();
    }

    /// Arm twin-free dirty tracking, starting a fresh recording interval.
    /// Used by region-granularity protocols on pages whose writers carry a
    /// commuting-writer certificate: the recorded ranges bound the delta
    /// without ever paying for a twin. No-op while a twin exists (the
    /// twin's ranges already record every write).
    pub fn arm_dirty_tracking(&mut self) {
        if !self.tracking {
            self.tracking = true;
            if self.twin.is_none() {
                self.dirty.clear();
            }
            self.touch();
        }
    }

    /// Disarm twin-free tracking and forget the recorded ranges (unless a
    /// twin still needs them). Returns whether tracking was armed.
    pub fn disarm_dirty_tracking(&mut self) -> bool {
        if self.tracking {
            self.tracking = false;
            if self.twin.is_none() {
                self.dirty.clear();
            }
            self.touch();
            true
        } else {
            false
        }
    }

    /// Take a twin of the current contents (idempotent: keeps the first,
    /// and crucially keeps the dirty ranges already recorded against it).
    pub fn make_twin(&mut self) {
        self.make_twin_in(&mut BufPool::new());
    }

    /// [`Frame::make_twin`] drawing the twin buffer from `pool`. Nothing
    /// is copied: with no range dirty the twin equals the contents, and
    /// the recycled buffer is written word by word as writes reach it.
    pub fn make_twin_in(&mut self, pool: &mut BufPool) {
        if self.twin.is_none() {
            self.twin = Some(pool.take_page(self.data.len()));
            self.dirty.clear();
            self.touch();
        }
    }

    /// Discard the twin, if any, recycling its buffer into `pool`. Returns
    /// whether one existed.
    pub fn drop_twin_into(&mut self, pool: &mut BufPool) -> bool {
        match self.twin.take() {
            Some(t) => {
                pool.put_page(t);
                self.dirty.clear();
                self.touch();
                true
            }
            None => false,
        }
    }

    /// Refresh the twin to match current contents (overdrive protocols
    /// re-twin predicted pages each epoch without re-trapping), drawing a
    /// fresh twin (when none exists) from `pool`. Like
    /// [`Frame::make_twin_in`], it copies nothing: clearing the ranges
    /// is what makes the twin equal the contents.
    pub fn refresh_twin_in(&mut self, pool: &mut BufPool) {
        if self.twin.is_none() {
            self.twin = Some(pool.take_page(self.data.len()));
        }
        self.dirty.clear();
        self.touch();
    }

    // ------------------------------------------------------------------
    // State: snapshot, restore, hash (`PageStore`'s `State` impl drives
    // these; a frame alone lacks the image page its contents delta against)
    // ------------------------------------------------------------------

    /// Write the frame's observable state. Contents are delta-encoded:
    /// the data as diff runs against `base` (the pristine image page), the
    /// twin as runs against the frame's own data. Steady-state iterative
    /// applications touch a small, stable fraction of each page per epoch,
    /// so snapshots stay small even for large segments — the observation
    /// that makes diff-based DSM cheap makes diff-based snapshots cheap.
    /// The twin differs from the data only inside the dirty ranges, so a
    /// ranged scan writes the same runs a full one would.
    pub(crate) fn encode(&self, page: PageId, base: &PageBuf, w: &mut SnapWriter) {
        let Frame {
            data,
            prot,
            twin,
            version_seen,
            applied_through,
            dirty,
            tracking,
            rev: _,
            hash_cache: _,
        } = self;
        prot.encode(w);
        version_seen.encode(w);
        applied_through.encode(w);
        tracking.encode(w);
        dirty.encode(w);
        Diff::between(page, base, data).encode_runs(w);
        w.bool(twin.is_some());
        if let Some(t) = twin {
            Diff::between_ranges(page, data, t, dirty).encode_runs(w);
        }
    }

    /// Restore an [`Frame::encode`] capture in place, reusing the frame's
    /// buffers. The revision bumps, so derived-value caches refresh.
    pub(crate) fn decode(
        &mut self,
        base: &PageBuf,
        r: &mut SnapReader<'_>,
    ) -> Result<(), SnapError> {
        let Frame {
            data,
            prot,
            twin,
            version_seen,
            applied_through,
            dirty,
            tracking,
            rev,
            hash_cache: _,
        } = self;
        *rev += 1;
        prot.decode(r)?;
        version_seen.decode(r)?;
        applied_through.decode(r)?;
        tracking.decode(r)?;
        dirty.decode(r)?;
        let reach = dirty.iter().map(|(_, end)| end).max().unwrap_or(0);
        r.index(u64::from(reach), data.len() + 1)?;
        data.copy_from(base);
        apply_runs(data, r)?;
        if r.bool()? {
            let t = match twin {
                Some(t) => {
                    t.copy_from(data);
                    t
                }
                None => twin.insert(data.clone()),
            };
            apply_runs(t, r)?;
        } else {
            *twin = None;
        }
        Ok(())
    }

    /// Capture the frame in memory, for the explorer's checkpoints, with
    /// `data` a buffer holding its contents (the caller's to choose:
    /// `PageStore::save`). The twin keeps only its saved words (the dirty
    /// spans, or the whole page once collapsed), so a recycled twin
    /// buffer's stale words outside them are never read, and shares
    /// `parent`'s (the same page's save in the checkpoint this run
    /// continued from) when they are equal. A current hash memo travels
    /// along; a stale one is not recomputed.
    pub(crate) fn save(&self, parent: Option<&FrameSave>, data: Rc<[u8]>) -> FrameSave {
        let Frame {
            data: _,
            prot,
            twin,
            version_seen,
            applied_through,
            dirty,
            tracking,
            rev,
            hash_cache,
        } = self;
        let twin = twin.as_ref().map(|t| {
            let prev = parent.and_then(|p| p.twin.as_ref());
            share_spans(|| self.saved_words(t), prev)
        });
        FrameSave {
            data,
            twin,
            prot: *prot,
            version_seen: *version_seen,
            applied_through: *applied_through,
            dirty: dirty.clone(),
            tracking: *tracking,
            hash: hash_cache
                .get()
                .and_then(|(at, hash)| (at == *rev).then_some(hash)),
        }
    }

    /// Return to a [`Frame::save`] capture in place, reusing the frame's
    /// buffers; `copy_data` false skips the contents, for a caller that
    /// knows they already equal the saved ones. The revision bumps; the
    /// saved hash, if any, is reinstalled against the new revision, so the
    /// next barrier does not re-walk a frame nothing touched since.
    pub(crate) fn load(&mut self, save: &FrameSave, copy_data: bool) {
        let Frame {
            data,
            prot,
            twin,
            version_seen,
            applied_through,
            dirty,
            tracking,
            rev,
            hash_cache,
        } = self;
        if copy_data {
            data.bytes_mut().copy_from_slice(&save.data);
        }
        debug_assert!(*data.bytes() == *save.data, "contents equal the save");
        *prot = save.prot;
        *version_seen = save.version_seen;
        *applied_through = save.applied_through;
        dirty.clone_from(&save.dirty);
        *tracking = save.tracking;
        match &save.twin {
            Some(words) => {
                let t = twin.get_or_insert_with(|| PageBuf::zeroed(data.len()));
                let mut at = 0;
                for (lo, hi) in Self::saved_spans(dirty, t.len()) {
                    let len = hi - lo;
                    t.bytes_mut()[lo..hi].copy_from_slice(&words[at..at + len]);
                    at += len;
                }
                debug_assert_eq!(at, words.len(), "twin words match the dirty spans");
            }
            None => *twin = None,
        }
        *rev += 1;
        hash_cache.set(save.hash.map(|hash| (*rev, hash)));
    }

    /// The byte spans of a twin that hold saved words: the dirty ranges,
    /// or the whole page once they collapsed.
    fn saved_spans(dirty: &DirtyRanges, len: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        let (whole, ranges) = if dirty.is_all() {
            (Some((0, len)), None)
        } else {
            (
                None,
                Some(dirty.iter().map(|(s, e)| (s as usize, e as usize))),
            )
        };
        whole.into_iter().chain(ranges.into_iter().flatten())
    }

    /// The twin `t`'s saved words, as byte slices in page order.
    fn saved_words<'a>(&'a self, t: &'a PageBuf) -> impl Iterator<Item = &'a [u8]> {
        let bytes = t.bytes();
        Self::saved_spans(&self.dirty, t.len()).map(move |(lo, hi)| &bytes[lo..hi])
    }

    /// Fold the frame's structural hash: protection, versions, contents,
    /// twin. A pure function of the frame's observable state, so it is
    /// memoized keyed on the revision — every mutation path bumps the
    /// revision, invalidating the memo — and a barrier re-walks only the
    /// frames mutated since the previous one. An
    /// [uncached](StateHasher::uncached) hasher recomputes regardless.
    pub(crate) fn fold(&self, h: &mut StateHasher) {
        if h.bypasses_caches() {
            return h.u64(self.structural_hash());
        }
        let hash = match self.hash_cache.get() {
            Some((rev, hash)) if rev == self.rev => hash,
            _ => {
                let hash = self.structural_hash();
                self.hash_cache.set(Some((self.rev, hash)));
                hash
            }
        };
        h.u64(hash);
    }

    fn structural_hash(&self) -> u64 {
        let Frame {
            data,
            prot,
            twin,
            version_seen,
            applied_through,
            dirty,
            tracking,
            rev: _,
            hash_cache: _,
        } = self;
        let mut h = StateHasher::new();
        prot.fold(&mut h);
        version_seen.fold(&mut h);
        applied_through.fold(&mut h);
        h.bytes(data.bytes());
        h.byte(u8::from(twin.is_some()));
        if let Some(t) = twin {
            // Word-aligned segments fold exactly as the whole page would.
            self.twin_segments(t, |segment| h.bytes(segment));
        }
        // Twin-free dirty tracking (bar-r): the recorded ranges determine
        // the next region delta, so they are observable state — but only
        // while tracking is armed. Under a twin they are a host-side scan
        // accelerator: the diff is the same whatever they hold.
        tracking.fold(&mut h);
        if *tracking {
            dirty.fold(&mut h);
        }
        h.finish()
    }

    /// Visit the twin `t` as word-aligned byte segments in page order: the
    /// saved words inside the dirty ranges, the contents outside them.
    fn twin_segments<'a>(&'a self, t: &'a PageBuf, mut visit: impl FnMut(&'a [u8])) {
        if self.dirty.is_all() {
            return visit(t.bytes());
        }
        let (saved, data) = (t.bytes(), self.data.bytes());
        let mut at = 0;
        for (s, e) in self.dirty.iter() {
            let (s, e) = (s as usize, e as usize);
            visit(&data[at..s]);
            visit(&saved[s..e]);
            at = e;
        }
        visit(&data[at..]);
    }

    /// The twin as an eager full-page copy would hold it.
    #[cfg(test)]
    pub(crate) fn logical_twin(&self) -> Option<PageBuf> {
        let t = self.twin.as_ref()?;
        let mut bytes = Vec::with_capacity(t.len());
        self.twin_segments(t, |segment| bytes.extend_from_slice(segment));
        let mut out = PageBuf::zeroed(t.len());
        out.bytes_mut().copy_from_slice(&bytes);
        Some(out)
    }

    /// Create the diff of modifications since the twin was taken, leaving
    /// the twin in place. Scans only the recorded dirty ranges — words
    /// outside them are equal to the twin by construction, so the result
    /// is byte-identical to a full-page scan. Panics if no twin exists.
    pub fn diff_against_twin(&self, page: PageId) -> Diff {
        self.diff_against_twin_in(page, &mut BufPool::new())
    }

    /// [`Frame::diff_against_twin`] drawing run storage from `pool`.
    pub fn diff_against_twin_in(&self, page: PageId, pool: &mut BufPool) -> Diff {
        let twin = self
            .twin
            .as_ref()
            .expect("diff_against_twin called without a twin");
        Diff::between_ranges_in(page, twin, &self.data, &self.dirty, pool)
    }
}

/// An in-memory capture of one [`Frame`] ([`Frame::save`]): the contents
/// and the twin's saved words as buffers that may be shared with the
/// parent checkpoint's capture of the same page, everything else copied.
#[derive(Debug)]
pub(crate) struct FrameSave {
    data: Rc<[u8]>,
    /// The twin's saved words, its dirty spans concatenated in page order.
    twin: Option<Rc<[u8]>>,
    prot: Protection,
    version_seen: u32,
    applied_through: u64,
    dirty: DirtyRanges,
    tracking: bool,
    /// The structural hash, when the memo was current at save.
    hash: Option<u64>,
}

impl FrameSave {
    /// The saved contents.
    pub(crate) fn data(&self) -> &Rc<[u8]> {
        &self.data
    }

    /// The saved contents, giving up the rest.
    pub(crate) fn into_data(self) -> Rc<[u8]> {
        self.data
    }

    /// True when this capture's contents and twin words are `parent`'s own
    /// buffers, not copies.
    pub(crate) fn shares_pages_with(&self, parent: &FrameSave) -> bool {
        let same_twin = match (&self.twin, &parent.twin) {
            (Some(a), Some(b)) => Rc::ptr_eq(a, b),
            (a, b) => a.is_none() && b.is_none(),
        };
        Rc::ptr_eq(&self.data, &parent.data) && same_twin
    }
}

/// The byte slices `words()` yields, as one checkpoint buffer: `prev`
/// itself when it holds the same bytes, a fresh copy otherwise.
fn share_spans<'a, I: Iterator<Item = &'a [u8]>>(
    words: impl Fn() -> I,
    prev: Option<&Rc<[u8]>>,
) -> Rc<[u8]> {
    if let Some(p) = prev {
        let mut at = 0;
        let same = words().all(|w| {
            let eq = p.get(at..at + w.len()) == Some(w);
            at += w.len();
            eq
        });
        if same && at == p.len() {
            return Rc::clone(p);
        }
    }
    let mut copy = Vec::new();
    for w in words() {
        copy.extend_from_slice(w);
    }
    Rc::from(copy)
}

/// Read a run list and write it into `target`, rejecting runs that leave
/// the page.
fn apply_runs(target: &mut PageBuf, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
    for _ in 0..r.count()? {
        let offset = u64::from(r.u32()?);
        let data = r.bytes()?;
        let end = r.index(offset + data.len() as u64, target.len() + 1)?;
        target.bytes_mut()[end - data.len()..end].copy_from_slice(data);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_frame_is_invalid_and_zeroed() {
        let f = Frame::new(64);
        assert_eq!(f.prot(), Protection::Invalid);
        assert!(!f.has_twin());
        assert!(f.data().bytes().iter().all(|&b| b == 0));
    }

    #[test]
    fn check_matches_protection_matrix() {
        let mut f = Frame::new(64);
        assert_eq!(f.check(false), Some(FaultKind::ReadInvalid));
        assert_eq!(f.check(true), Some(FaultKind::WriteInvalid));
        f.set_prot(Protection::Read);
        assert_eq!(f.check(false), None);
        assert_eq!(f.check(true), Some(FaultKind::WriteReadOnly));
        f.set_prot(Protection::ReadWrite);
        assert_eq!(f.check(false), None);
        assert_eq!(f.check(true), None);
    }

    #[test]
    fn make_twin_is_idempotent() {
        let mut f = Frame::new(64);
        f.write_at(0, &[1]);
        f.make_twin();
        f.write_at(0, &[2]);
        f.make_twin(); // must keep the first twin (and the dirty ranges)
        assert_eq!(f.logical_twin().unwrap().bytes()[0], 1);
        assert!(f.dirty_ranges().covers(0), "second make_twin kept ranges");
    }

    #[test]
    fn diff_against_twin_sees_changes() {
        let mut f = Frame::new(64);
        f.make_twin();
        f.write_at(8, &[42]);
        let d = f.diff_against_twin(PageId(5));
        assert_eq!(d.page, PageId(5));
        assert_eq!(d.runs().count(), 1);
        assert!(f.has_twin(), "diff creation must not consume the twin");
    }

    #[test]
    #[should_panic(expected = "without a twin")]
    fn diff_without_twin_panics() {
        let f = Frame::new(64);
        let _ = f.diff_against_twin(PageId(0));
    }

    #[test]
    fn refresh_twin_tracks_current() {
        let mut f = Frame::new(64);
        f.make_twin();
        f.write_at(0, &[9]);
        f.refresh_twin_in(&mut BufPool::new());
        assert!(f.diff_against_twin(PageId(0)).is_empty());
        assert!(f.dirty_ranges().is_clean());
    }

    #[test]
    fn drop_twin_reports_presence() {
        let mut f = Frame::new(64);
        let mut pool = BufPool::new();
        assert!(!f.drop_twin_into(&mut pool));
        f.make_twin();
        assert!(f.drop_twin_into(&mut pool));
        assert!(!f.has_twin());
    }

    #[test]
    fn writes_before_twin_are_not_tracked() {
        let mut f = Frame::new(64);
        f.write_at(0, &[1, 2, 3]);
        assert!(f.dirty_ranges().is_clean());
        f.make_twin();
        assert!(f.dirty_ranges().is_clean());
        f.write_at(32, &[4]);
        assert!(f.dirty_ranges().covers(32));
        assert!(!f.dirty_ranges().covers(0));
    }

    #[test]
    fn fill_and_apply_mark_conservatively() {
        let mut f = Frame::new(64);
        f.make_twin();
        let src = PageBuf::zeroed(64);
        f.fill_from(&src);
        assert!(f.dirty_ranges().is_all(), "bulk replace marks everything");
        let mut g = Frame::new(64);
        g.make_twin();
        let mut sevens = PageBuf::zeroed(64);
        sevens.bytes_mut().fill(7);
        g.apply_diff(&Diff::capture(PageId(0), &sevens, &[(16, 24)]));
        assert!(g.dirty_ranges().covers(16));
        assert!(!g.dirty_ranges().covers(40));
        assert_eq!(g.data().bytes()[16], 7);
    }

    #[test]
    fn tracking_records_without_twin() {
        let mut f = Frame::new(64);
        f.write_at(0, &[1]);
        assert!(f.dirty_ranges().is_clean(), "untracked writes unrecorded");
        f.arm_dirty_tracking();
        assert!(f.tracking());
        f.write_at(16, &[2, 3]);
        assert!(!f.has_twin());
        assert!(f.dirty_ranges().covers(16));
        assert!(!f.dirty_ranges().covers(0), "pre-arm write not recorded");
        assert!(f.disarm_dirty_tracking());
        assert!(!f.tracking());
        assert!(f.dirty_ranges().is_clean(), "disarm forgets ranges");
        assert!(!f.disarm_dirty_tracking(), "second disarm is a no-op");
    }

    #[test]
    fn tracking_arm_is_noop_under_twin() {
        let mut f = Frame::new(64);
        f.make_twin();
        f.write_at(8, &[1]);
        f.arm_dirty_tracking();
        assert!(f.dirty_ranges().covers(8), "arming kept the twin's ranges");
        f.disarm_dirty_tracking();
        assert!(
            f.dirty_ranges().covers(8),
            "disarm must not forget ranges the twin still needs"
        );
    }

    #[test]
    fn revision_bumps_on_every_mutation() {
        let mut f = Frame::new(64);
        let r0 = f.revision();
        f.write_at(0, &[1]);
        let r1 = f.revision();
        assert!(r1 > r0);
        f.set_prot(Protection::Read);
        let r2 = f.revision();
        assert!(r2 > r1);
        f.set_prot(Protection::Read); // no change, no bump
        assert_eq!(f.revision(), r2);
        f.set_version_seen(3);
        f.raise_applied_through(5);
        f.raise_applied_through(4); // lower: no bump
        let r3 = f.revision();
        f.make_twin();
        assert!(f.revision() > r3);
    }

    #[test]
    fn pooled_twin_cycle_matches_fresh() {
        let mut pool = BufPool::new();
        // Seed the pool with a stale buffer so reuse is exercised.
        let mut stale = PageBuf::zeroed(64);
        stale.bytes_mut().fill(0xEE);
        pool.put_page(stale);
        let mut f = Frame::new(64);
        f.write_at(0, &[5, 6, 7]);
        f.make_twin_in(&mut pool);
        assert_eq!(pool.sizes().0, 0, "twin came from the pool");
        f.write_at(8, &[1]);
        let pooled = f.diff_against_twin_in(PageId(2), &mut pool);
        let fresh = f.diff_against_twin(PageId(2));
        assert_eq!(pooled, fresh, "pooled twin leaked no stale bytes");
        assert!(f.drop_twin_into(&mut pool));
        assert_eq!(pool.sizes().0, 1, "twin buffer recycled");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::pool::BufPool;
    use dsm_sim::prop::check;

    /// Drive a frame through a random write/twin lifecycle; at every diff
    /// point, the range-restricted diff must equal a full scan of the same
    /// twin/current pair, pooled or not — and recycled pool storage must
    /// never leak bytes into later diffs.
    #[test]
    fn tracked_diff_equals_full_scan() {
        check("tracked_diff_equals_full_scan", 150, |g| {
            const SIZE: usize = 512;
            let mut f = Frame::new(SIZE);
            let mut pool = BufPool::new();
            for _ in 0..g.range(0, 40) {
                match g.below(10) {
                    0 => f.make_twin(),
                    1 => f.make_twin_in(&mut pool),
                    2 => {
                        f.drop_twin_into(&mut pool);
                    }
                    3 => f.refresh_twin_in(&mut pool),
                    4 => {
                        let mut src = PageBuf::zeroed(SIZE);
                        src.bytes_mut().copy_from_slice(&g.bytes(SIZE));
                        f.fill_from(&src);
                    }
                    _ => {
                        let len = g.range(1, 32);
                        let at = g.below(SIZE - len);
                        f.write_at(at, &g.bytes(len));
                    }
                }
                if let Some(twin) = f.logical_twin() {
                    let full = crate::diff::Diff::between(PageId(0), &twin, f.data());
                    assert_eq!(f.diff_against_twin(PageId(0)), full);
                    let pooled = f.diff_against_twin_in(PageId(0), &mut pool);
                    assert_eq!(pooled, full);
                    pool.put_diff(pooled);
                }
            }
        });
    }

    /// A frame whose twin is a full copy taken when the twin is made, with
    /// the same dirty-range bookkeeping: the reference a lazily filled
    /// twin must be indistinguishable from.
    struct Eager {
        data: PageBuf,
        twin: Option<PageBuf>,
        dirty: DirtyRanges,
        tracking: bool,
    }

    impl Eager {
        fn record(&mut self, offset: usize, len: usize) {
            if self.twin.is_some() {
                self.dirty.insert(offset, len);
            } else if self.tracking {
                self.dirty.insert_coarse(offset, len);
            }
        }

        fn write(&mut self, offset: usize, src: &[u8]) {
            self.data.bytes_mut()[offset..offset + src.len()].copy_from_slice(src);
            self.record(offset, src.len());
        }

        fn apply(&mut self, diff: &Diff) {
            diff.apply_to(&mut self.data);
            for (offset, bytes) in diff.runs() {
                self.record(offset, bytes.len());
            }
        }

        fn fill(&mut self, src: &PageBuf) {
            self.data.copy_from(src);
            if self.twin.is_some() || self.tracking {
                self.dirty.mark_all();
            }
        }

        fn retwin(&mut self, keep: bool) {
            if !(keep && self.twin.is_some()) {
                self.twin = Some(self.data.clone());
                self.dirty.clear();
            }
        }

        fn hash(&self, f: &Frame) -> u64 {
            let mut h = StateHasher::new();
            f.prot.fold(&mut h);
            f.version_seen.fold(&mut h);
            f.applied_through.fold(&mut h);
            h.bytes(self.data.bytes());
            h.byte(u8::from(self.twin.is_some()));
            if let Some(t) = &self.twin {
                h.bytes(t.bytes());
            }
            self.tracking.fold(&mut h);
            if self.tracking {
                self.dirty.fold(&mut h);
            }
            h.finish()
        }

        fn encode(&self, f: &Frame, page: PageId, base: &PageBuf) -> Vec<u8> {
            let mut w = SnapWriter::new();
            f.prot.encode(&mut w);
            f.version_seen.encode(&mut w);
            f.applied_through.encode(&mut w);
            self.tracking.encode(&mut w);
            self.dirty.encode(&mut w);
            Diff::between(page, base, &self.data).encode_runs(&mut w);
            w.bool(self.twin.is_some());
            if let Some(t) = &self.twin {
                Diff::between(page, &self.data, t).encode_runs(&mut w);
            }
            w.into_bytes()
        }
    }

    fn random_page(g: &mut dsm_sim::prop::Gen, size: usize) -> PageBuf {
        let mut p = PageBuf::zeroed(size);
        p.bytes_mut().copy_from_slice(&g.bytes(size));
        p
    }

    /// Random write / `apply_diff` / `fill_from` / twin lifecycles, with
    /// stale buffers in the pool and scattered bursts that collapse the
    /// ranges: the diff, the structural hash and the snapshot bytes of the
    /// lazy twin equal those of an eager full copy at every step, and a
    /// restore over a stale frame hashes the same.
    #[test]
    fn lazy_twin_matches_eager_copy() {
        check("lazy_twin_matches_eager_copy", 200, |g| {
            const SIZE: usize = 1024;
            let page = PageId(3);
            let base = random_page(g, SIZE);
            let mut f = Frame::new(SIZE);
            let mut e = Eager {
                data: PageBuf::zeroed(SIZE),
                twin: None,
                dirty: DirtyRanges::new(),
                tracking: false,
            };
            let mut pool = BufPool::new();
            let mut restored = Frame::new(SIZE);
            restored.fill_from(&random_page(g, SIZE));
            restored.make_twin();
            restored.write_at(0, &[0xAB; 64]);
            for _ in 0..g.range(1, 40) {
                match g.below(12) {
                    0 => {
                        f.make_twin_in(&mut pool);
                        e.retwin(true);
                    }
                    1 => {
                        f.refresh_twin_in(&mut pool);
                        e.retwin(false);
                    }
                    2 => {
                        f.drop_twin_into(&mut pool);
                        if e.twin.take().is_some() {
                            e.dirty.clear();
                        }
                    }
                    3 => {
                        let src = random_page(g, SIZE);
                        f.fill_from(&src);
                        e.fill(&src);
                    }
                    4 => {
                        let mut spans = Vec::new();
                        let mut at = 0;
                        while at < SIZE && spans.len() < 8 {
                            let s = at + 8 * g.below(16);
                            let end = (s + 8 * g.range(1, 6)).min(SIZE);
                            if s < end {
                                spans.push((s as u32, end as u32));
                            }
                            at = end + 8;
                        }
                        let diff = Diff::capture(page, &random_page(g, SIZE), &spans);
                        f.apply_diff(&diff);
                        e.apply(&diff);
                    }
                    5 => {
                        if f.tracking() {
                            f.disarm_dirty_tracking();
                            e.tracking = false;
                            if e.twin.is_none() {
                                e.dirty.clear();
                            }
                        } else {
                            f.arm_dirty_tracking();
                            e.tracking = true;
                            if e.twin.is_none() {
                                e.dirty.clear();
                            }
                        }
                    }
                    6 => {
                        // Scattered words, more than the range cap.
                        for _ in 0..g.range(10, 2 * DirtyRanges::MAX_RANGES) {
                            let at = 16 * g.below(SIZE / 16);
                            let word = g.u64().to_le_bytes();
                            f.write_at(at, &word);
                            e.write(at, &word);
                        }
                    }
                    7 => {
                        let mut stale = PageBuf::zeroed(SIZE);
                        stale.bytes_mut().fill(g.u64() as u8);
                        pool.put_page(stale);
                    }
                    _ => {
                        let len = g.range(1, 48);
                        let at = g.below(SIZE - len);
                        let src = g.bytes(len);
                        f.write_at(at, &src);
                        e.write(at, &src);
                    }
                }
                assert_eq!(f.data().bytes(), e.data.bytes());
                assert_eq!(f.logical_twin(), e.twin);
                assert_eq!(f.structural_hash(), e.hash(&f));
                let mut w = SnapWriter::new();
                f.encode(page, &base, &mut w);
                let bytes = w.into_bytes();
                assert_eq!(bytes, e.encode(&f, page, &base));
                if let Some(t) = &e.twin {
                    let lazy = f.diff_against_twin_in(page, &mut pool);
                    assert_eq!(lazy, Diff::between(page, t, &e.data));
                    pool.put_diff(lazy);
                }
                let mut r = dsm_sim::SnapReader::new(&bytes);
                restored.decode(&base, &mut r).unwrap();
                r.finish().unwrap();
                assert_eq!(restored.structural_hash(), e.hash(&f));
            }
        });
    }
}
