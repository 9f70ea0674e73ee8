//! Dirty word-range tracking for twinned frames.
//!
//! While a frame holds a twin, every mutation of its contents is recorded
//! here as a word-aligned byte range. The set is a *conservative superset*
//! of the words that differ from the twin (a silent store dirties its range
//! without changing any byte), which is exactly what incremental diffing
//! needs: words outside every recorded range are guaranteed equal to the
//! twin, so [`crate::Diff::between_ranges`] can skip them entirely and
//! still produce byte-identical output to a full-page scan.
//!
//! The representation is a short sorted vector of disjoint,
//! non-adjacent `[start, end)` ranges. Scattered write patterns that
//! exceed [`DirtyRanges::MAX_RANGES`] collapse to "the whole page" —
//! at that point a full scan is no slower than a ranged one, and the
//! bookkeeping stays O(1) per write.
//!
//! The same search that merges a write in also finds the words it turns
//! dirty ([`DirtyRanges::insert_fresh`]): the frame's twin holds exactly
//! those words' old values, saved at the first write that reaches them.

/// Diff granularity in bytes; ranges are aligned to this.
const WORD: usize = 8;

/// A conservative, word-aligned summary of the byte ranges written since
/// the current twin was taken.
#[derive(Clone, Debug, Default)]
pub struct DirtyRanges {
    /// Disjoint, non-adjacent, sorted `[start, end)` byte ranges.
    ranges: Vec<(u32, u32)>,
    /// Collapsed state: the entire page must be scanned.
    all: bool,
    /// Coarsened state: [`DirtyRanges::insert_coarse`] merged across a
    /// gap, so the ranges are a cover of the written words rather than an
    /// exact record.
    coarse: bool,
}

// `coarse` is snapshotted but not hashed: it is a precision flag only —
// coarse and exact sets with the same spans scan the same bytes.
dsm_sim::impl_state!(DirtyRanges {
    state: all;
    timing: coarse;
    state: ranges;
});

impl DirtyRanges {
    /// Range-count cap; beyond it the set collapses to the whole page.
    pub const MAX_RANGES: usize = 24;

    /// An empty set (nothing written).
    pub fn new() -> DirtyRanges {
        DirtyRanges::default()
    }

    /// True if no range has been recorded (and not collapsed).
    pub fn is_clean(&self) -> bool {
        !self.all && self.ranges.is_empty()
    }

    /// True if the set collapsed to the whole page.
    pub fn is_all(&self) -> bool {
        self.all
    }

    /// True if [`DirtyRanges::insert_coarse`] ever merged across a gap:
    /// the ranges cover the written words but may include unwritten ones.
    pub fn is_coarse(&self) -> bool {
        self.coarse
    }

    /// Forget everything (a fresh twin was just taken).
    pub fn clear(&mut self) {
        self.all = false;
        self.coarse = false;
        self.ranges.clear();
    }

    /// Collapse to the whole page (a bulk mutation bypassed tracking).
    pub fn mark_all(&mut self) {
        self.all = true;
        self.ranges.clear();
    }

    /// [`DirtyRanges::mark_all`], first reporting as `fresh(lo, hi)` every
    /// byte span of `[0, page_len)` that no range covers, in ascending
    /// order (nothing if the set had already collapsed).
    pub fn mark_all_fresh(&mut self, page_len: usize, mut fresh: impl FnMut(usize, usize)) {
        if !self.all {
            let mut at = 0;
            for &(s, e) in &self.ranges {
                if at < s as usize {
                    fresh(at, s as usize);
                }
                at = e as usize;
            }
            if at < page_len {
                fresh(at, page_len);
            }
        }
        self.mark_all();
    }

    /// Record a write of `len` bytes at byte offset `start`, widened to
    /// word alignment. Overlapping and adjacent ranges merge.
    pub fn insert(&mut self, start: usize, len: usize) {
        self.insert_fresh(start, len, 0, |_, _| {});
    }

    /// [`DirtyRanges::insert`], reporting as `fresh(lo, hi)` every
    /// word-aligned byte span that turns dirty, before it is recorded: the
    /// spans of the write no range covered yet — found by the same search
    /// that merges the write in — and, if the insert collapses the set,
    /// every span of `[0, page_len)` outside the ranges. Each word is
    /// reported at most once between two [`DirtyRanges::clear`]s, which is
    /// what lets a frame fill its twin lazily: it saves exactly these
    /// spans' old words before the write overwrites them.
    pub fn insert_fresh(
        &mut self,
        start: usize,
        len: usize,
        page_len: usize,
        mut fresh: impl FnMut(usize, usize),
    ) {
        if self.all || len == 0 {
            return;
        }
        self.merge_in(start, len, &mut fresh);
        if self.ranges.len() > Self::MAX_RANGES {
            self.mark_all_fresh(page_len, fresh);
        }
    }

    /// Word-align `[start, start+len)` and merge it into the sorted set,
    /// with no cap policy applied, reporting its uncovered spans to
    /// `fresh`.
    fn merge_in(&mut self, start: usize, len: usize, fresh: &mut impl FnMut(usize, usize)) {
        let s = (start & !(WORD - 1)) as u32;
        let e = ((start + len + WORD - 1) & !(WORD - 1)) as u32;
        // First range whose end reaches s (merge candidates start here;
        // `>=` merges the adjacent case, keeping ranges non-adjacent).
        let i = self.ranges.partition_point(|&(_, re)| re < s);
        // First range that starts strictly past e (not mergeable).
        let j = i + self.ranges[i..].partition_point(|&(rs, _)| rs <= e);
        // The merge candidates are sorted and each touches [s, e): the
        // write's uncovered spans are the gaps between them.
        let mut at = s;
        for &(rs, re) in &self.ranges[i..j] {
            if at < rs {
                fresh(at as usize, rs as usize);
            }
            at = at.max(re);
        }
        if at < e {
            fresh(at as usize, e as usize);
        }
        if i == j {
            self.ranges.insert(i, (s, e));
        } else {
            let ns = self.ranges[i].0.min(s);
            let ne = self.ranges[j - 1].1.max(e);
            self.ranges[i] = (ns, ne);
            self.ranges.drain(i + 1..j);
        }
    }

    /// Like [`DirtyRanges::insert`], but *coarsen* instead of collapsing
    /// when the range count would exceed [`DirtyRanges::MAX_RANGES`]: the
    /// two ranges separated by the smallest gap are merged into one. The
    /// set is then a bounded *cover* of the written words — every write is
    /// inside some range, but a range may include words never written.
    ///
    /// Twin-free (region-granularity) flushing uses this: a cover can
    /// still be captured verbatim, and for the scattered single-word
    /// patterns that defeat exact tracking, absorbing a one-word gap costs
    /// exactly the run header it saves, so the capture stays byte-neutral
    /// with an exact diff. Callers that need containment proofs must
    /// check [`DirtyRanges::is_coarse`]: a coarse cover may straddle span
    /// gaps and has to be clipped against the proven spans instead.
    ///
    /// Twin-based diffing never uses this path — a cover would only add
    /// equal-word comparisons there, and the collapse heuristic's exact
    /// semantics are load-bearing for the twin protocols' cost model.
    pub fn insert_coarse(&mut self, start: usize, len: usize) {
        if self.all || len == 0 {
            return;
        }
        self.merge_in(start, len, &mut |_, _| {});
        while self.ranges.len() > Self::MAX_RANGES {
            // Merge the pair with the smallest gap (ties: the leftmost).
            let mut best = 0;
            let mut best_gap = u32::MAX;
            for i in 0..self.ranges.len() - 1 {
                let gap = self.ranges[i + 1].0 - self.ranges[i].1;
                if gap < best_gap {
                    best_gap = gap;
                    best = i;
                }
            }
            self.ranges[best].1 = self.ranges[best + 1].1;
            self.ranges.remove(best + 1);
            self.coarse = true;
        }
    }

    /// The recorded ranges, in ascending order. Meaningless when
    /// [`DirtyRanges::is_all`]; callers must check that first.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.ranges.iter().copied()
    }

    /// Number of recorded ranges (0 when collapsed).
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// True when no ranges are recorded. Note a collapsed set is "empty"
    /// by range count but dirty everywhere; use [`DirtyRanges::is_clean`]
    /// to test for "no writes at all".
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// True if byte `offset` falls inside a recorded range (or the set
    /// collapsed). Test / assertion helper.
    pub fn covers(&self, offset: usize) -> bool {
        if self.all {
            return true;
        }
        let o = offset as u32;
        self.ranges.iter().any(|&(s, e)| s <= o && o < e)
    }

    /// True if every recorded range lies inside the union of `spans`
    /// (sorted, disjoint `[start, end)` byte spans). A collapsed set is
    /// contained by nothing — the caller lost the information needed to
    /// prove containment. This is the dynamic grounding check for static
    /// write-set certificates: a writer's recorded dirty ranges must stay
    /// within its statically proven spans.
    pub fn within(&self, spans: &[(u32, u32)]) -> bool {
        if self.all {
            return false;
        }
        self.ranges.iter().all(|&(s, e)| {
            // Containment in a union of disjoint sorted spans means one
            // single span covers the whole range (ranges are contiguous).
            spans.iter().any(|&(ss, se)| ss <= s && e <= se)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_clean() {
        let d = DirtyRanges::new();
        assert!(d.is_clean());
        assert!(!d.is_all());
        assert_eq!(d.iter().count(), 0);
    }

    #[test]
    fn insert_widens_to_words() {
        let mut d = DirtyRanges::new();
        d.insert(13, 3); // bytes [13,16) -> words [8,16)
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![(8, 16)]);
        assert!(d.covers(8) && d.covers(15) && !d.covers(16));
    }

    #[test]
    fn adjacent_and_overlapping_merge() {
        let mut d = DirtyRanges::new();
        d.insert(0, 8);
        d.insert(8, 8); // adjacent
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![(0, 16)]);
        d.insert(32, 8);
        d.insert(4, 40); // spans both
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![(0, 48)]);
    }

    #[test]
    fn disjoint_ranges_stay_sorted() {
        let mut d = DirtyRanges::new();
        d.insert(64, 8);
        d.insert(0, 8);
        d.insert(128, 16);
        assert_eq!(
            d.iter().collect::<Vec<_>>(),
            vec![(0, 8), (64, 72), (128, 144)]
        );
    }

    #[test]
    fn collapses_past_cap() {
        let mut d = DirtyRanges::new();
        for i in 0..=DirtyRanges::MAX_RANGES {
            d.insert(i * 64, 8); // far apart: never merge
        }
        assert!(d.is_all());
        assert_eq!(d.len(), 0);
        assert!(d.covers(999_999));
        // Inserts after collapse are no-ops.
        d.insert(0, 8);
        assert!(d.is_all());
    }

    #[test]
    fn insert_reports_each_word_once() {
        fn insert(d: &mut DirtyRanges, fresh: &mut Vec<(usize, usize)>, start: usize, len: usize) {
            d.insert_fresh(start, len, 512, |lo, hi| fresh.push((lo, hi)));
        }
        let mut d = DirtyRanges::new();
        let mut fresh = Vec::new();
        insert(&mut d, &mut fresh, 16, 8);
        insert(&mut d, &mut fresh, 48, 8);
        // Words [8, 56): the gaps around both ranges.
        insert(&mut d, &mut fresh, 12, 40);
        insert(&mut d, &mut fresh, 20, 4); // already dirty: nothing
        assert_eq!(fresh, [(16, 24), (48, 56), (8, 16), (24, 48)]);
        fresh.clear();
        // One range too many: the write's word, then everything else.
        for i in 0..DirtyRanges::MAX_RANGES {
            insert(&mut d, &mut fresh, 64 + i * 16, 8);
        }
        assert!(d.is_all());
        let mut covered = [false; 512 / WORD];
        for &(lo, hi) in &fresh {
            for word in &mut covered[lo / WORD..hi / WORD] {
                assert!(!*word, "a word reported twice");
                *word = true;
            }
        }
        assert!(covered[7..].iter().all(|&c| c), "collapse saved the rest");
        assert!(!covered[1] && !covered[6], "dirty before the collapse");
        fresh.clear();
        insert(&mut d, &mut fresh, 0, 8);
        d.mark_all_fresh(512, |lo, hi| fresh.push((lo, hi)));
        assert!(fresh.is_empty(), "a collapsed set reports nothing");
    }

    #[test]
    fn clear_resets_collapse() {
        let mut d = DirtyRanges::new();
        d.mark_all();
        assert!(d.is_all());
        d.clear();
        assert!(d.is_clean());
    }

    #[test]
    fn zero_len_ignored() {
        let mut d = DirtyRanges::new();
        d.insert(40, 0);
        assert!(d.is_clean());
    }

    #[test]
    fn coarse_insert_never_collapses() {
        let mut d = DirtyRanges::new();
        for i in 0..4 * DirtyRanges::MAX_RANGES {
            d.insert_coarse(i * 64, 8); // far apart: never merge exactly
        }
        assert!(!d.is_all());
        assert!(d.is_coarse());
        assert!(d.len() <= DirtyRanges::MAX_RANGES);
        // Still a cover: every written word is inside some range.
        for i in 0..4 * DirtyRanges::MAX_RANGES {
            assert!(d.covers(i * 64), "write at {} escaped the cover", i * 64);
        }
        d.clear();
        assert!(!d.is_coarse() && d.is_clean());
    }

    #[test]
    fn coarse_insert_merges_smallest_gap_first() {
        let mut d = DirtyRanges::new();
        // MAX_RANGES ranges with one 8-byte gap between the first two and
        // huge gaps elsewhere.
        d.insert_coarse(0, 8);
        d.insert_coarse(16, 8);
        for i in 2..DirtyRanges::MAX_RANGES {
            d.insert_coarse(i * 4096, 8);
        }
        assert_eq!(d.len(), DirtyRanges::MAX_RANGES);
        assert!(!d.is_coarse());
        // One more range forces a single merge: the 8-byte gap goes.
        d.insert_coarse(2000, 8);
        assert!(d.is_coarse());
        assert_eq!(d.len(), DirtyRanges::MAX_RANGES);
        assert_eq!(d.iter().next(), Some((0, 24)));
    }

    #[test]
    fn coarse_insert_below_cap_stays_exact() {
        let mut d = DirtyRanges::new();
        d.insert_coarse(0, 8);
        d.insert_coarse(64, 16);
        assert!(!d.is_coarse());
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![(0, 8), (64, 80)]);
        assert!(d.within(&[(0, 128)]));
    }

    #[test]
    fn within_checks_span_containment() {
        let mut d = DirtyRanges::new();
        d.insert(8, 8);
        d.insert(64, 16);
        assert!(d.within(&[(0, 32), (64, 128)]));
        assert!(d.within(&[(8, 80)]));
        assert!(!d.within(&[(0, 32)]), "second range uncovered");
        assert!(!d.within(&[(0, 70)]), "range straddles span end");
        assert!(DirtyRanges::new().within(&[]), "clean set within anything");
        d.mark_all();
        assert!(!d.within(&[(0, 8192)]), "collapsed proves nothing");
    }
}
