//! Dataless pages: the substrate that turns `dsm_core::Cluster` into the
//! static predictor.
//!
//! A digest frame is what the protocols can see of a real frame — its
//! [`Meta`] — plus the one thing a plan knows about its contents: which
//! byte spans were modified since the twin was taken. Sealing the twin
//! yields a [`DigestDiff`], the size of the diff a real frame would have
//! produced: the *union* of the recorded spans, so a twin that
//! accumulates across epochs (lmw's lazy diffs, bar-m's long-lived
//! write-enables) counts a word rewritten every iteration once.

use dsm_core::vm::{Delta, DirtyRanges, FaultKind, Image, Meta, PageId, Pages, Protection};
use dsm_sim::FastMap;

use crate::lower::ESIZE;

/// The shape of a diff: how many words changed, in how many runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DigestDiff {
    pub words: u32,
    pub runs: u32,
}

impl Delta for DigestDiff {
    fn is_empty(&self) -> bool {
        self.runs == 0
    }
    fn payload_bytes(&self) -> usize {
        self.words as usize * ESIZE as usize
    }
    /// Page header, one header per run, payload — `Diff::wire_bytes`.
    fn wire_bytes(&self) -> usize {
        8 + 8 * self.runs as usize + self.payload_bytes()
    }
}

/// One process's page table with no page bytes behind it.
#[derive(Debug, Default)]
pub struct DigestPages {
    frames: Vec<Option<Meta>>,
    /// Per twinned page: the spans modified since the twin was taken,
    /// sorted, disjoint and non-adjacent (in-page byte offsets).
    mods: FastMap<u32, Vec<(u32, u32)>>,
}

impl DigestPages {
    fn frame_mut(&mut self, page: PageId) -> &mut Meta {
        self.frames[page.index()].get_or_insert(Meta {
            prot: Protection::Invalid,
            version_seen: 0,
            applied_through: 0,
            has_twin: false,
            tracking: false,
        })
    }

    /// (Re)start or end a twin interval: forget the recorded spans.
    fn set_twin(&mut self, page: PageId, has_twin: bool) {
        self.frame_mut(page).has_twin = has_twin;
        if let Some(spans) = self.mods.get_mut(&page.0) {
            spans.clear();
        }
    }

    /// The application write path: bytes `[lo, hi)` of `page` changed
    /// value. Like `Frame::write_at`, only a twinned frame remembers.
    pub fn record(&mut self, page: PageId, lo: u32, hi: u32) {
        if !self.meta(page).is_some_and(|m| m.has_twin) {
            return;
        }
        let spans = self.mods.entry(page.0).or_default();
        // Merge with every recorded span it overlaps or abuts.
        let first = spans.partition_point(|&(_, end)| end < lo);
        let (mut lo, mut hi, mut last) = (lo, hi, first);
        while last < spans.len() && spans[last].0 <= hi {
            lo = lo.min(spans[last].0);
            hi = hi.max(spans[last].1);
            last += 1;
        }
        spans.splice(first..last, [(lo, hi)]);
    }
}

const NO_TRACKING: &str = "bar-r's twin-free dirty tracking is not modelled on digests";

impl Pages for DigestPages {
    type Diff = DigestDiff;
    type Pool = ();

    fn new(_page_size: usize) -> DigestPages {
        DigestPages::default()
    }
    fn ensure_pages(&mut self, npages: usize) {
        if npages > self.frames.len() {
            self.frames.resize(npages, None);
        }
    }
    fn share_image(&mut self, _image: Image) {}

    #[inline]
    fn check(&self, page: PageId, write: bool) -> Option<FaultKind> {
        self.protection(page).check(write)
    }
    #[inline]
    fn meta(&self, page: PageId) -> Option<Meta> {
        self.frames[page.index()]
    }

    fn materialize(&mut self, page: PageId, prot: Protection) {
        let f = self.frame_mut(page);
        f.prot = prot;
        f.version_seen = 1;
    }
    fn set_protection(&mut self, page: PageId, prot: Protection) -> Protection {
        core::mem::replace(&mut self.frame_mut(page).prot, prot)
    }
    fn set_version_seen(&mut self, page: PageId, version: u32) {
        self.frame_mut(page).version_seen = version;
    }
    fn raise_applied_through(&mut self, page: PageId, epoch: u64) {
        let f = self.frame_mut(page);
        f.applied_through = f.applied_through.max(epoch);
    }

    fn make_twin(&mut self, page: PageId, (): &mut ()) {
        if !self.frame_mut(page).has_twin {
            self.set_twin(page, true);
        }
    }
    fn refresh_twin(&mut self, page: PageId, (): &mut ()) {
        self.set_twin(page, true);
    }
    fn drop_twin(&mut self, page: PageId, (): &mut ()) {
        self.set_twin(page, false);
    }
    fn seal(&mut self, page: PageId, (): &mut ()) -> DigestDiff {
        assert!(
            self.meta(page).is_some_and(|m| m.has_twin),
            "seal without a twin"
        );
        let spans = self.mods.get(&page.0).map_or(&[][..], Vec::as_slice);
        let diff = DigestDiff {
            words: spans.iter().map(|&(lo, hi)| (hi - lo) / ESIZE as u32).sum(),
            runs: spans.len() as u32,
        };
        self.set_twin(page, false);
        diff
    }
    // Incoming bytes would land in a live twin interval's diff, which a
    // digest cannot size; the protocols never do that on a race-free
    // plan, and a substrate that guessed would predict silently wrong.
    fn apply_diff(&mut self, page: PageId, _diff: &DigestDiff) {
        assert!(!self.frame_mut(page).has_twin, "diff applied under a twin");
    }
    fn copy_page(&mut self, page: PageId, _from: &DigestPages) {
        assert!(!self.frame_mut(page).has_twin, "page copied under a twin");
    }
    fn recycle((): &mut (), _diff: DigestDiff) {}

    fn arm_tracking(&mut self, _page: PageId) {
        unreachable!("{NO_TRACKING}")
    }
    fn tracked_ranges(&self, _page: PageId) -> &DirtyRanges {
        unreachable!("{NO_TRACKING}")
    }
    fn disarm_tracking(&mut self, _page: PageId) {
        unreachable!("{NO_TRACKING}")
    }
    fn capture(&self, _page: PageId, _spans: &[(u32, u32)], (): &mut ()) -> DigestDiff {
        unreachable!("{NO_TRACKING}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn twinned() -> DigestPages {
        let mut s = DigestPages::new(8192);
        s.ensure_pages(2);
        s.materialize(PageId(1), Protection::Read);
        s.make_twin(PageId(1), &mut ());
        s
    }

    #[test]
    fn seal_sizes_the_union_of_the_recorded_spans() {
        let mut s = twinned();
        let p = PageId(1);
        // Two epochs rewrite the same words; a third bridges two runs.
        for _ in 0..2 {
            s.record(p, 64, 128);
            s.record(p, 256, 264);
        }
        assert_eq!(s.seal(p, &mut ()), DigestDiff { words: 9, runs: 2 });
        assert!(!s.meta(p).unwrap().has_twin, "sealing consumes the twin");

        s.make_twin(p, &mut ());
        s.record(p, 0, 8);
        s.record(p, 16, 24);
        s.record(p, 8, 16);
        let d = s.seal(p, &mut ());
        assert_eq!(d, DigestDiff { words: 3, runs: 1 });
        assert_eq!((d.payload_bytes(), d.wire_bytes()), (24, 40));
    }

    #[test]
    fn untwinned_writes_and_fresh_twins_record_nothing() {
        let mut s = twinned();
        let p = PageId(1);
        s.record(p, 0, 64);
        s.refresh_twin(p, &mut ());
        assert!(s.seal(p, &mut ()).is_empty());
        s.record(p, 0, 64);
        s.make_twin(p, &mut ());
        assert!(s.seal(p, &mut ()).is_empty(), "write preceded the twin");
    }

    #[test]
    fn untouched_pages_fault_as_invalid() {
        let mut s = DigestPages::new(8192);
        s.ensure_pages(1);
        assert_eq!(s.check(PageId(0), false), Some(FaultKind::ReadInvalid));
        assert_eq!(
            s.set_protection(PageId(0), Protection::Read),
            Protection::Invalid
        );
        assert_eq!(s.check(PageId(0), true), Some(FaultKind::WriteReadOnly));
        assert_eq!(s.check(PageId(0), false), None);
    }
}
