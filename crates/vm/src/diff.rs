//! Run-length-encoded page diffs.
//!
//! A diff captures the modifications a process made to one page within one
//! interval, computed by a word-wise comparison between the page's *twin*
//! (a copy taken at the first write) and its current contents — exactly the
//! TreadMarks/CVM mechanism the paper describes: "A diff is a run-length
//! encoding of the changes made to a single virtual memory page."
//!
//! Two host-side fast paths (neither changes the produced runs by a byte):
//!
//! * **range scanning** — [`Diff::between_ranges`] restricts the comparison
//!   to the [`DirtyRanges`] a frame recorded at write time. Words outside
//!   the recorded ranges are guaranteed equal to the twin, so skipping
//!   them cannot drop or alter a run, and runs cannot span a gap (the gap
//!   words are equal, which is what terminates a run in a full scan too);
//! * **chunked comparison** — within a candidate span, clean stretches are
//!   skipped [`CHUNK_WORDS`] words at a time with a slice equality test
//!   (compiled to `memcmp`), falling back to the word walk only around
//!   actual differences.

use std::rc::Rc;

use dsm_sim::{SnapError, SnapReader, SnapWriter, State, StateHasher};

use crate::buf::PageBuf;
use crate::dirty::DirtyRanges;
use crate::page::PageId;
use crate::pool::BufPool;

/// What a diff holds, behind its handle. One unit, so the pool recycles a
/// diff whole and sealing one allocates nothing per run.
#[derive(PartialEq, Eq, Debug, Default)]
pub(crate) struct Body {
    /// `(byte offset within the page, length)` of each contiguous modified
    /// range, in ascending non-overlapping offset order.
    runs: Vec<(u32, u32)>,
    /// Every run's new bytes, back to back in run order.
    data: Vec<u8>,
}

impl Body {
    fn push(&mut self, offset: usize, bytes: &[u8]) {
        self.runs.push((offset as u32, bytes.len() as u32));
        self.data.extend_from_slice(bytes);
    }

    /// Empty the body, keeping its capacity.
    pub(crate) fn clear(&mut self) {
        self.runs.clear();
        self.data.clear();
    }
}

/// All modifications to one page in one interval.
///
/// A diff is immutable once built and a `Diff` value is a *handle* to it:
/// `clone` is O(1) and yields another handle to the same runs. That is how
/// one sealed diff serves the home, every copyset reader, a duplicated
/// delivery and every later fetch reply without being copied.
///
/// ```
/// use dsm_vm::{Diff, PageBuf, PageId};
///
/// let twin = PageBuf::zeroed(8192);
/// let mut cur = twin.clone();
/// cur.bytes_mut()[128] = 0xAB;
///
/// let diff = Diff::between(PageId(0), &twin, &cur);
/// assert_eq!(diff.runs().count(), 1);
/// assert!(diff.clone().shares_storage_with(&diff));
///
/// let mut rebuilt = twin.clone();
/// diff.apply_to(&mut rebuilt);
/// assert_eq!(rebuilt.bytes(), cur.bytes());
/// ```
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Diff {
    /// The page this diff applies to.
    pub page: PageId,
    /// Only ever written through `Rc::get_mut`, that is while this is the
    /// one handle: no handle can watch its diff change.
    pub(crate) body: Rc<Body>,
}

/// Comparison granularity: diffs are computed on 8-byte words, matching the
/// word-comparison loop of the original implementation.
const WORD: usize = 8;

/// Clean-prefix skip width: equal stretches are consumed this many words at
/// a time via slice equality (`memcmp`) before any per-word comparison.
const CHUNK_WORDS: usize = 32;

/// Scan the word span `[lo, hi)` (word indices) of `tw`/`cw`, appending
/// runs for every differing word (adjacent differing words coalesce).
/// `cb` is the current page as bytes, for run payload extraction.
fn scan_span(body: &mut Body, tw: &[u64], cw: &[u64], cb: &[u8], lo: usize, hi: usize) {
    let mut w = lo;
    while w < hi {
        // Fast path: skip clean chunks with a memcmp-style slice compare.
        loop {
            let n = (hi - w).min(CHUNK_WORDS);
            if n == 0 || tw[w..w + n] != cw[w..w + n] {
                break;
            }
            w += n;
        }
        if w >= hi {
            break;
        }
        // The chunk at `w` contains a difference: walk to it.
        while tw[w] == cw[w] {
            w += 1;
        }
        // Open a run and extend it over consecutive differing words.
        let start = w;
        while w < hi && tw[w] != cw[w] {
            w += 1;
        }
        body.push(start * WORD, &cb[start * WORD..w * WORD]);
    }
}

/// A diff of `page` whose runs `fill` writes into an empty body from
/// `pool` — recycled storage if it has any, so a steady-state seal
/// allocates nothing.
fn build(page: PageId, pool: &mut BufPool, fill: impl FnOnce(&mut Body)) -> Diff {
    let mut body = pool.take_body();
    fill(Rc::get_mut(&mut body).expect("a pooled body has one handle"));
    Diff { page, body }
}

/// Shared scanner: full page when `ranges` is `None` or collapsed,
/// recorded ranges otherwise.
fn scan(
    page: PageId,
    twin: &PageBuf,
    current: &PageBuf,
    ranges: Option<&DirtyRanges>,
    pool: &mut BufPool,
) -> Diff {
    assert_eq!(twin.len(), current.len(), "page size mismatch");
    let len = twin.len();
    let tw = twin.typed::<u64>(0..len);
    let cw = current.typed::<u64>(0..len);
    let cb = current.bytes();
    build(page, pool, |body| match ranges {
        Some(r) if !r.is_all() => {
            for (s, e) in r.iter() {
                let lo = s as usize / WORD;
                let hi = (e as usize).min(len) / WORD;
                scan_span(body, tw, cw, cb, lo, hi);
            }
        }
        _ => scan_span(body, tw, cw, cb, 0, len / WORD),
    })
}

impl Diff {
    /// Compute the diff between `twin` (contents at the first write) and
    /// `current` by a full-page scan. Runs cover every word that differs;
    /// adjacent differing words coalesce into a single run.
    pub fn between(page: PageId, twin: &PageBuf, current: &PageBuf) -> Diff {
        scan(page, twin, current, None, &mut BufPool::new())
    }

    /// [`Diff::between`], restricted to `ranges`. Produces byte-identical
    /// runs **provided** every word where `current` differs from `twin`
    /// lies inside `ranges` — the invariant [`crate::Frame`] maintains by
    /// recording every write while a twin exists.
    pub fn between_ranges(
        page: PageId,
        twin: &PageBuf,
        current: &PageBuf,
        ranges: &DirtyRanges,
    ) -> Diff {
        Self::between_ranges_in(page, twin, current, ranges, &mut BufPool::new())
    }

    /// [`Diff::between_ranges`] drawing run storage from `pool`.
    pub fn between_ranges_in(
        page: PageId,
        twin: &PageBuf,
        current: &PageBuf,
        ranges: &DirtyRanges,
        pool: &mut BufPool,
    ) -> Diff {
        scan(page, twin, current, Some(ranges), pool)
    }

    /// Capture the raw contents of `current` over `spans` (sorted,
    /// disjoint, word-aligned `[start, end)` byte spans) as one run per
    /// span — no twin, no comparison. This is the twin-free delta of a
    /// region-granularity protocol: when a static certificate proves the
    /// caller is the only writer of every span, the span contents *are*
    /// the freshest value of those words, so shipping them verbatim
    /// commutes with every concurrent writer's delta by construction.
    pub fn capture(page: PageId, current: &PageBuf, spans: &[(u32, u32)]) -> Diff {
        Self::capture_in(page, current, spans, &mut BufPool::new())
    }

    /// [`Diff::capture`] drawing run storage from `pool`.
    pub fn capture_in(
        page: PageId,
        current: &PageBuf,
        spans: &[(u32, u32)],
        pool: &mut BufPool,
    ) -> Diff {
        let len = current.len() as u32;
        let cb = current.bytes();
        build(page, pool, |body| {
            for &(s, e) in spans {
                let e = e.min(len);
                if s < e {
                    body.push(s as usize, &cb[s as usize..e as usize]);
                }
            }
        })
    }

    /// The modified ranges as `(byte offset, new bytes)`, in ascending
    /// non-overlapping offset order.
    pub fn runs(&self) -> impl Iterator<Item = (usize, &[u8])> {
        let mut rest = self.body.data.as_slice();
        self.body.runs.iter().map(move |&(offset, len)| {
            let (bytes, tail) = rest.split_at(len as usize);
            rest = tail;
            (offset as usize, bytes)
        })
    }

    /// True if `self` and `other` are handles to the same diff — one made
    /// from the other by `clone`, however many hands it passed through.
    pub fn shares_storage_with(&self, other: &Diff) -> bool {
        Rc::ptr_eq(&self.body, &other.body)
    }

    /// True if the twin and current contents were identical — the paper's
    /// "zero-length diff", which overdrive protocols use to skip flushes.
    pub fn is_empty(&self) -> bool {
        self.body.runs.is_empty()
    }

    /// Total payload bytes carried by the runs.
    pub fn payload_bytes(&self) -> usize {
        self.body.data.len()
    }

    /// Wire size: page id + run count header plus, per run, offset + length
    /// headers and the payload.
    pub fn wire_bytes(&self) -> usize {
        8 + 8 * self.body.runs.len() + self.body.data.len()
    }

    /// Apply this diff's runs to `target`.
    pub fn apply_to(&self, target: &mut PageBuf) {
        let target = target.bytes_mut();
        for (start, bytes) in self.runs() {
            target[start..start + bytes.len()].copy_from_slice(bytes);
        }
    }

    /// True if no byte range of `self` overlaps any of `other` — concurrent
    /// diffs of a data-race-free program are always disjoint, which is what
    /// makes multi-writer merging sound.
    pub fn disjoint_from(&self, other: &Diff) -> bool {
        let apart = |(a0, a): (usize, &[u8]), (b0, b): (usize, &[u8])| {
            a0 + a.len() <= b0 || b0 + b.len() <= a0
        };
        self.runs().all(|a| other.runs().all(|b| apart(a, b)))
    }

    /// Write the run list alone — a count, then each run's offset and
    /// length-prefixed bytes ([`crate::Frame`] delta-encodes its contents
    /// and twin this way).
    pub(crate) fn encode_runs(&self, w: &mut SnapWriter) {
        w.usize(self.body.runs.len());
        for (offset, bytes) in self.runs() {
            w.u32(offset as u32);
            w.bytes(bytes);
        }
    }
}

/// A snapshot and the hash see a page id and a list of runs, nothing of the
/// handle, so decoding never re-creates aliasing: every decoded diff owns
/// its body. No execution can tell, because no diff is ever written after
/// it is built.
impl State for Diff {
    fn encode(&self, w: &mut SnapWriter) {
        let Diff { page, body: _ } = self;
        page.encode(w);
        self.encode_runs(w);
    }

    fn decode(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let Diff { page, body } = self;
        page.decode(r)?;
        // Other handles keep the diff they hold; this one starts over.
        if Rc::get_mut(body).is_none() {
            *body = Rc::default();
        }
        let body = Rc::get_mut(body).expect("a fresh body has one handle");
        body.clear();
        for _ in 0..r.count()? {
            let offset = r.u32()? as usize;
            body.push(offset, r.bytes()?);
        }
        Ok(())
    }

    fn fold(&self, h: &mut StateHasher) {
        let Diff { page, body } = self;
        page.fold(h);
        h.usize(body.runs.len());
        for (offset, bytes) in self.runs() {
            h.usize(offset);
            h.usize(bytes.len());
            h.bytes(bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(offset, length)` of every run.
    fn shape(d: &Diff) -> Vec<(usize, usize)> {
        d.runs()
            .map(|(offset, bytes)| (offset, bytes.len()))
            .collect()
    }

    fn page_with(bytes: &[(usize, u8)], size: usize) -> PageBuf {
        let mut p = PageBuf::zeroed(size);
        for &(i, v) in bytes {
            p.bytes_mut()[i] = v;
        }
        p
    }

    #[test]
    fn identical_pages_give_empty_diff() {
        let a = PageBuf::zeroed(256);
        let b = PageBuf::zeroed(256);
        let d = Diff::between(PageId(0), &a, &b);
        assert!(d.is_empty());
        assert_eq!(d.payload_bytes(), 0);
        assert_eq!(d.wire_bytes(), 8);
    }

    #[test]
    fn single_word_change() {
        let twin = PageBuf::zeroed(256);
        let cur = page_with(&[(17, 0xFF)], 256);
        let d = Diff::between(PageId(1), &twin, &cur);
        // Word granularity: the run covers the containing 8-byte word.
        assert_eq!(shape(&d), [(16, 8)]);
    }

    #[test]
    fn adjacent_words_coalesce() {
        let twin = PageBuf::zeroed(256);
        let cur = page_with(&[(8, 1), (16, 2), (24, 3)], 256);
        let d = Diff::between(PageId(0), &twin, &cur);
        assert_eq!(shape(&d), [(8, 24)]);
    }

    #[test]
    fn separate_runs_stay_separate() {
        let twin = PageBuf::zeroed(256);
        let cur = page_with(&[(0, 1), (128, 2)], 256);
        let d = Diff::between(PageId(0), &twin, &cur);
        assert_eq!(shape(&d), [(0, 8), (128, 8)]);
    }

    #[test]
    fn trailing_run_is_captured() {
        let twin = PageBuf::zeroed(64);
        let cur = page_with(&[(63, 9)], 64);
        let d = Diff::between(PageId(0), &twin, &cur);
        assert_eq!(shape(&d), [(56, 8)]);
    }

    #[test]
    fn run_spanning_chunk_boundary() {
        // A run crossing the CHUNK_WORDS boundary must not split.
        let twin = PageBuf::zeroed(1024);
        let mut cur = twin.clone();
        let boundary = CHUNK_WORDS * WORD;
        for b in &mut cur.bytes_mut()[boundary - 16..boundary + 16] {
            *b = 7;
        }
        let d = Diff::between(PageId(0), &twin, &cur);
        assert_eq!(shape(&d), [(boundary - 16, 32)]);
    }

    #[test]
    fn apply_reconstructs_current() {
        let twin = page_with(&[(0, 7), (100, 8)], 256);
        let mut cur = twin.clone();
        cur.bytes_mut()[40] = 0xAA;
        cur.bytes_mut()[41] = 0xBB;
        cur.bytes_mut()[200] = 0xCC;
        let d = Diff::between(PageId(0), &twin, &cur);
        let mut rebuilt = twin.clone();
        d.apply_to(&mut rebuilt);
        assert_eq!(rebuilt.bytes(), cur.bytes());
    }

    #[test]
    fn disjoint_detection() {
        let twin = PageBuf::zeroed(256);
        let a = Diff::between(PageId(0), &twin, &page_with(&[(0, 1)], 256));
        let b = Diff::between(PageId(0), &twin, &page_with(&[(128, 1)], 256));
        let c = Diff::between(PageId(0), &twin, &page_with(&[(4, 1)], 256));
        assert!(a.disjoint_from(&b));
        assert!(b.disjoint_from(&a));
        assert!(!a.disjoint_from(&c), "same word -> overlapping runs");
    }

    #[test]
    fn wire_bytes_counts_headers() {
        let twin = PageBuf::zeroed(64);
        let cur = page_with(&[(0, 1), (32, 1)], 64);
        let d = Diff::between(PageId(0), &twin, &cur);
        assert_eq!(d.runs().count(), 2);
        assert_eq!(d.payload_bytes(), 16);
        assert_eq!(d.wire_bytes(), 8 + (8 + 8) + (8 + 8));
    }

    #[test]
    fn ranged_scan_matches_full_scan_when_ranges_cover() {
        let twin = PageBuf::zeroed(256);
        let mut cur = twin.clone();
        cur.bytes_mut()[8] = 1;
        cur.bytes_mut()[200] = 2;
        let mut ranges = DirtyRanges::new();
        ranges.insert(8, 1);
        ranges.insert(200, 1);
        // A range that was written but not actually changed (silent store).
        ranges.insert(64, 8);
        let full = Diff::between(PageId(3), &twin, &cur);
        let ranged = Diff::between_ranges(PageId(3), &twin, &cur, &ranges);
        assert_eq!(full, ranged);
        // Collapsed ranges degrade to the full scan.
        let mut all = DirtyRanges::new();
        all.mark_all();
        assert_eq!(full, Diff::between_ranges(PageId(3), &twin, &cur, &all));
    }

    #[test]
    fn capture_ships_span_contents_verbatim() {
        let cur = page_with(&[(8, 1), (9, 2), (64, 3)], 128);
        let d = Diff::capture(PageId(7), &cur, &[(8, 16), (64, 72)]);
        let runs: Vec<_> = d.runs().collect();
        assert_eq!(runs.len(), 2);
        assert_eq!((runs[0].0, &runs[0].1[..2]), (8, &[1, 2][..]));
        assert_eq!((runs[1].0, runs[1].1[0]), (64, 3));
        // Spans past the page end clip; empty spans drop.
        let e = Diff::capture(PageId(0), &cur, &[(120, 200), (40, 40)]);
        assert_eq!(shape(&e), [(120, 8)]);
        // Pooled storage must not leak stale bytes.
        let mut pool = BufPool::new();
        let p1 = Diff::capture_in(PageId(7), &cur, &[(8, 16), (64, 72)], &mut pool);
        assert_eq!(p1, d);
        pool.put_diff(p1);
        let p2 = Diff::capture_in(PageId(7), &cur, &[(8, 16), (64, 72)], &mut pool);
        assert_eq!(p2, d);
    }

    #[test]
    fn empty_ranges_give_empty_diff_without_scanning() {
        let twin = PageBuf::zeroed(256);
        let mut cur = twin.clone();
        cur.bytes_mut()[0] = 9; // differs, but no range recorded
        let d = Diff::between_ranges(PageId(0), &twin, &cur, &DirtyRanges::new());
        assert!(d.is_empty(), "no recorded range means nothing is scanned");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use dsm_sim::prop::{check, Gen};

    /// A 256-byte page with random contents. A sparse variant (mostly equal
    /// to a base page) exercises the run-coalescing logic harder than pure
    /// noise, which differs almost everywhere.
    fn random_page(g: &mut Gen) -> PageBuf {
        let mut p = PageBuf::zeroed(256);
        p.bytes_mut().copy_from_slice(&g.bytes(256));
        p
    }

    fn sparse_variant(g: &mut Gen, base: &PageBuf) -> PageBuf {
        let mut p = base.clone();
        for _ in 0..g.range(0, 12) {
            let i = g.below(256);
            p.bytes_mut()[i] = g.u64() as u8;
        }
        p
    }

    /// apply(twin, between(twin, cur)) == cur, for arbitrary contents.
    #[test]
    fn diff_roundtrip() {
        check("diff_roundtrip", 200, |g| {
            let twin = random_page(g);
            let cur = if g.chance(0.5) {
                random_page(g)
            } else {
                sparse_variant(g, &twin)
            };
            let d = Diff::between(PageId(0), &twin, &cur);
            let mut rebuilt = twin.clone();
            d.apply_to(&mut rebuilt);
            assert_eq!(rebuilt.bytes(), cur.bytes());
        });
    }

    /// Runs are sorted, non-overlapping, word-aligned, and non-empty.
    #[test]
    fn diff_runs_are_canonical() {
        check("diff_runs_are_canonical", 200, |g| {
            let twin = random_page(g);
            let cur = sparse_variant(g, &twin);
            let d = Diff::between(PageId(0), &twin, &cur);
            let mut prev_end = 0usize;
            for (i, (offset, bytes)) in d.runs().enumerate() {
                assert!(!bytes.is_empty());
                assert_eq!(offset % 8, 0);
                assert_eq!(bytes.len() % 8, 0);
                if i > 0 {
                    // Strictly separated: coalescing guarantees a gap.
                    assert!(offset > prev_end);
                }
                prev_end = offset + bytes.len();
            }
            assert!(prev_end <= 256);
        });
    }

    /// Disjoint concurrent diffs merge to the same result regardless of
    /// application order (the multi-writer soundness property).
    #[test]
    fn disjoint_merge_is_order_independent() {
        check("disjoint_merge_is_order_independent", 200, |g| {
            let twin = random_page(g);
            // Writer A modifies bytes [0,64), writer B modifies [128,192).
            let mut pa = twin.clone();
            pa.bytes_mut()[0..64].copy_from_slice(&g.bytes(64));
            let mut pb = twin.clone();
            pb.bytes_mut()[128..192].copy_from_slice(&g.bytes(64));
            let da = Diff::between(PageId(0), &twin, &pa);
            let db = Diff::between(PageId(0), &twin, &pb);
            assert!(da.disjoint_from(&db));
            let mut ab = twin.clone();
            da.apply_to(&mut ab);
            db.apply_to(&mut ab);
            let mut ba = twin.clone();
            db.apply_to(&mut ba);
            da.apply_to(&mut ba);
            assert_eq!(ab.bytes(), ba.bytes());
        });
    }

    /// The tentpole equivalence: a range-restricted scan over any ranges
    /// that cover every modified byte produces byte-identical runs to the
    /// full-page scan — with and without pooled storage, across page sizes
    /// that exercise the chunked fast path (2048 B = 256 words > chunk).
    #[test]
    fn ranged_diff_equals_full_diff() {
        check("ranged_diff_equals_full_diff", 300, |g| {
            let size = if g.chance(0.5) { 256 } else { 2048 };
            let mut twin = PageBuf::zeroed(size);
            twin.bytes_mut().copy_from_slice(&g.bytes(size));
            let mut cur = twin.clone();
            let mut ranges = DirtyRanges::new();
            // Random writes, each recorded; some are silent stores
            // (recorded but writing the bytes already there).
            for _ in 0..g.range(0, 20) {
                let len = g.range(1, 40);
                let at = g.below(size - len);
                ranges.insert(at, len);
                if g.chance(0.8) {
                    cur.bytes_mut()[at..at + len].copy_from_slice(&g.bytes(len));
                }
            }
            // Over-approximation is allowed: extra ranges that cover
            // nothing modified must not change the output.
            if g.chance(0.3) {
                ranges.insert(g.below(size - 8), 8);
            }
            let full = Diff::between(PageId(1), &twin, &cur);
            let ranged = Diff::between_ranges(PageId(1), &twin, &cur, &ranges);
            assert_eq!(full, ranged);
            let mut pool = BufPool::new();
            // Round-trip the pool twice so the second diff runs on
            // recycled (stale-capacity) storage.
            let p1 = Diff::between_ranges_in(PageId(1), &twin, &cur, &ranges, &mut pool);
            assert_eq!(full, p1);
            pool.put_diff(p1);
            let p2 = Diff::between_ranges_in(PageId(1), &twin, &cur, &ranges, &mut pool);
            assert_eq!(full, p2, "recycled buffers must not leak stale bytes");
        });
    }

    /// A sealed diff outlives every handle but the last: recycling one
    /// handle neither returns the storage nor lets later diffs built from
    /// the pool disturb what the surviving handle applies.
    #[test]
    fn recycling_under_a_live_alias_is_inert() {
        check("recycling_under_a_live_alias_is_inert", 200, |g| {
            let mut pool = BufPool::new();
            let twin = random_page(g);
            let cur = sparse_variant(g, &twin);
            let mut all = DirtyRanges::new();
            all.mark_all();
            // Warm the pool so the sealed diff sits on recycled storage.
            let warm = Diff::between_ranges_in(PageId(0), &twin, &random_page(g), &all, &mut pool);
            pool.put_diff(warm);
            let sealed = Diff::between_ranges_in(PageId(0), &twin, &cur, &all, &mut pool);
            let kept = sealed.clone();
            assert!(kept.shares_storage_with(&sealed));
            let before = pool.sizes();
            pool.put_diff(sealed);
            assert_eq!(pool.sizes(), before, "a live alias keeps the storage out");
            // Churn the pool: other diffs draw from it and return to it.
            for _ in 0..g.range(1, 6) {
                let other = random_page(g);
                let d = Diff::between_ranges_in(PageId(1), &twin, &other, &all, &mut pool);
                assert!(!d.shares_storage_with(&kept));
                pool.put_diff(d);
            }
            let mut rebuilt = twin.clone();
            kept.apply_to(&mut rebuilt);
            assert_eq!(rebuilt.bytes(), cur.bytes());
            let before = pool.sizes();
            pool.put_diff(kept);
            assert_eq!(pool.sizes().1, before.1 + 1, "the last handle recycles");
        });
    }
}
