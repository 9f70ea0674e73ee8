//! Happens-before race detection over shadow memory.
//!
//! Each process carries a vector clock; barriers join every clock (the
//! cluster's only synchronization is barrier-shaped, so after every release
//! the clocks agree — but the detector does not rely on that and performs
//! the general FastTrack-style epoch test). Every 8-byte word of touched
//! shared memory has a shadow cell holding the last write (clock, pid) and
//! the concurrent reader set (one reader inline, more spilled to a side
//! table); an access races with a prior access iff the prior stamp is not
//! `<=` the accessor's clock entry for the prior pid.
//!
//! **Silent stores are not writes.** The protocols under test propagate
//! writes by twin/diff comparison: a store of the value the writer's view
//! already holds produces no diff, no write notice, and no coherence
//! action, so no other process can ever observe it. The detector therefore
//! skips any written word whose bytes equal the writer's LRC-expected view
//! (supplied by the caller from the coherence oracle) — matching the
//! system's own value-based definition of a write, and keeping bulk
//! "read-modify-rewrite the whole row" idioms from reporting races on the
//! words they pass through unchanged.

use dsm_sim::{
    decode_table, encode_table, fold_encoding, FastMap, FastSet, SnapError, SnapReader, SnapWriter,
    State, StateHasher,
};

use crate::report::RaceKind;

/// One vector clock.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VectorClock(pub Vec<u32>);

dsm_sim::impl_state!(VectorClock(state));

impl VectorClock {
    pub fn new(n: usize) -> VectorClock {
        VectorClock(vec![0; n])
    }

    /// Elementwise max, in place.
    pub fn join(&mut self, other: &VectorClock) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a = (*a).max(*b);
        }
    }

    /// Has the stamp `(clock, pid)` happened before this clock's owner?
    #[inline]
    pub fn covers(&self, clock: u32, pid: usize) -> bool {
        clock <= self.0[pid]
    }
}

/// Shadow state of one 8-byte word. Zero clocks mean "never accessed"
/// (clock values start at 1), so the all-zero default is the identity.
#[derive(Clone, Copy, Default)]
struct Word {
    /// Last write: the writer's clock value and pid.
    wc: u32,
    wp: u16,
    /// Sole reader pid while the word has one concurrent reader;
    /// [`READERS_SHARED`] once a second reader appears, at which point
    /// the full `(clock, pid)` set lives in `RaceState::read_sets`. A
    /// pid-indexed bitmap here would cap the cluster at the word width
    /// (the dense-by-nodes bug class); the spill table scales to any
    /// process count while keeping the cell 16 bytes.
    rp: u16,
    /// Highest read clock across the tracked readers.
    rc: u32,
}

dsm_sim::impl_state!(Word { state: wc, wp, rp, rc; });

impl Word {
    /// Anything but the all-zero "never accessed" identity.
    fn is_live(&self) -> bool {
        self.wc != 0 || self.wp != 0 || self.rp != 0 || self.rc != 0
    }
}

/// Sentinel for `Word::rp`: the reader set has spilled to the side table.
const READERS_SHARED: u16 = u16::MAX;

const WORD: usize = 8;

/// The race detector.
pub struct RaceState {
    clocks: Box<[VectorClock]>,
    /// Shadow cells, indexed densely by page number (`None` = untouched).
    /// Page numbers come from segment offsets, so the vector stays small;
    /// dense indexing keeps the per-access lookup a bounds check instead
    /// of a hash probe.
    shadow: Vec<Option<Box<[Word]>>>,
    /// Word keys (addr / 8) found racy; used for dedup and to let the
    /// coherence oracle suppress mismatches on racy words (under LRC a racy
    /// read may legally return either value).
    racy: FastSet<u64>,
    /// Spilled reader sets, keyed by word: `(read clock, pid)` per reader,
    /// populated only for words with two or more concurrent readers.
    read_sets: FastMap<u64, Vec<(u32, u16)>>,
    words_per_page: usize,
    /// `log2(words_per_page)`; page sizes are powers of two by the VM's
    /// own assertion, and a shift beats a division by a runtime value in
    /// the per-access loop.
    wpp_shift: u32,
}

/// Hand-written for the shadow pages: touched pages sparsely in page
/// order (`encode_table`), and within a page only the live words — index,
/// then the cell — since most of a touched page's cells are still the
/// all-zero "never accessed" identity. The rest is the plain declaration;
/// a spilled reader set keeps its insertion order verbatim (`on_write`
/// scans it front-to-back and stops at the first unordered reader, so the
/// order is observable). The page geometry is construction-time.
impl State for RaceState {
    fn encode(&self, w: &mut SnapWriter) {
        let RaceState {
            clocks,
            shadow,
            racy,
            read_sets,
            words_per_page: _,
            wpp_shift: _,
        } = self;
        clocks.encode(w);
        encode_table(shadow, w, |_, cells, w| {
            w.usize(cells.iter().filter(|c| c.is_live()).count());
            for (widx, c) in cells.iter().enumerate().filter(|(_, c)| c.is_live()) {
                w.u32(widx as u32);
                c.encode(w);
            }
        });
        racy.encode(w);
        read_sets.encode(w);
    }

    fn decode(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let RaceState {
            clocks,
            shadow,
            racy,
            read_sets,
            words_per_page,
            wpp_shift: _,
        } = self;
        clocks.decode(r)?;
        let wpp = *words_per_page;
        decode_table(shadow, r, |_, slot, r| {
            let cells = slot.get_or_insert_with(|| vec![Word::default(); wpp].into());
            cells.fill(Word::default());
            for _ in 0..r.count()? {
                let widx = u64::from(r.u32()?);
                cells[r.index(widx, wpp)?].decode(r)?;
            }
            Ok(())
        })?;
        racy.decode(r)?;
        read_sets.decode(r)
    }

    fn fold(&self, h: &mut StateHasher) {
        fold_encoding(self, h);
    }
}

/// A race found by one access, before deduplication.
pub struct RaceHit {
    pub kind: RaceKind,
    pub word_key: u64,
    pub first_pid: usize,
    pub second_pid: usize,
}

impl RaceState {
    pub fn new(nprocs: usize, page_size: usize) -> RaceState {
        assert!(page_size.is_power_of_two() && page_size >= WORD);
        assert!(nprocs < READERS_SHARED as usize, "pid space exhausted");
        let mut clocks = vec![VectorClock::new(nprocs); nprocs];
        for (p, c) in clocks.iter_mut().enumerate() {
            c.0[p] = 1;
        }
        let words_per_page = page_size / WORD;
        RaceState {
            clocks: clocks.into(),
            shadow: Vec::new(),
            racy: FastSet::default(),
            read_sets: FastMap::default(),
            words_per_page,
            wpp_shift: words_per_page.trailing_zeros(),
        }
    }

    /// All-process barrier: join every clock into every other and advance
    /// each process's own component. Returns the number of happens-before
    /// edges the barrier added (fan-in plus fan-out through the master).
    pub fn barrier(&mut self) -> u64 {
        let n = self.clocks.len();
        let mut j = VectorClock::new(n);
        for c in &self.clocks {
            j.join(c);
        }
        for (p, c) in self.clocks.iter_mut().enumerate() {
            c.0.copy_from_slice(&j.0);
            c.0[p] += 1;
        }
        2 * (n as u64).saturating_sub(1)
    }

    /// True if `addr`'s word has been flagged racy.
    pub fn word_is_racy(&self, addr: usize) -> bool {
        self.racy.contains(&((addr / WORD) as u64))
    }

    pub fn words_shadowed(&self) -> u64 {
        let touched = self.shadow.iter().filter(|s| s.is_some()).count();
        (touched * self.words_per_page) as u64
    }

    /// The shadow cells of words `[w, hi]`, which must lie on one page;
    /// the page's cells are allocated on first touch.
    fn cells_mut(
        shadow: &mut Vec<Option<Box<[Word]>>>,
        wpp: usize,
        shift: u32,
        w: usize,
        hi: usize,
    ) -> &mut [Word] {
        let page = w >> shift;
        let base = page << shift;
        if page >= shadow.len() {
            shadow.resize_with(page + 1, || None);
        }
        let cells =
            shadow[page].get_or_insert_with(|| vec![Word::default(); wpp].into_boxed_slice());
        &mut cells[w - base..=hi - base]
    }

    /// Record a read of `[addr, addr + len)` by `pid`; push newly racy
    /// words into `out`, in ascending word order.
    pub fn on_read(&mut self, pid: usize, addr: usize, len: usize, out: &mut Vec<RaceHit>) {
        if len == 0 {
            return;
        }
        // Split borrow: the accessor's clock is only read, while the shadow
        // cells and racy set are mutated; destructuring keeps the borrow
        // checker happy without cloning the clock on every access.
        let RaceState {
            clocks,
            shadow,
            racy,
            read_sets,
            words_per_page,
            wpp_shift,
        } = self;
        let clock = &clocks[pid];
        let c = clock.0[pid];
        let me = pid as u16;
        let last = (addr + len - 1) / WORD;
        let mut w = addr / WORD;
        while w <= last {
            let hi = last.min(w | (*words_per_page - 1));
            let cells = Self::cells_mut(shadow, *words_per_page, *wpp_shift, w, hi);
            for (key, cell) in (w as u64..).zip(cells) {
                let ordered =
                    cell.wc == 0 || cell.wp == me || clock.covers(cell.wc, cell.wp as usize);
                // A repeat read in the same epoch (the stencil apps read
                // each row up to three times) changes nothing: leave the
                // cell, and its cache line, alone.
                if ordered && cell.rp == me && cell.rc == c {
                    continue;
                }
                // Prior write vs this read.
                if !ordered && racy.insert(key) {
                    out.push(RaceHit {
                        kind: RaceKind::WriteRead,
                        word_key: key,
                        first_pid: cell.wp as usize,
                        second_pid: pid,
                    });
                }
                // Record the read. One reader is tracked inline; a second
                // spills the set — each reader keeping its own clock — to
                // the side table.
                if cell.rc == 0 || cell.rp == me {
                    cell.rp = me;
                } else if cell.rp == READERS_SHARED {
                    let set = read_sets.get_mut(&key).expect("spilled read set");
                    match set.iter_mut().find(|(_, q)| *q == me) {
                        Some(e) => e.0 = e.0.max(c),
                        None => set.push((c, me)),
                    }
                } else {
                    read_sets.insert(key, vec![(cell.rc, cell.rp), (c, me)]);
                    cell.rp = READERS_SHARED;
                }
                cell.rc = cell.rc.max(c);
            }
            w = hi + 1;
        }
    }

    /// Record a write of `new` at `addr` by `pid`; push newly racy words
    /// into `out`, in ascending word order and, within a word, the prior
    /// write before the prior reads. `cur` is the writer's LRC-expected
    /// view of the same range: words where `new == cur` are silent stores
    /// and are skipped entirely (no race test, no stamp).
    pub fn on_write(
        &mut self,
        pid: usize,
        addr: usize,
        new: &[u8],
        cur: &[u8],
        out: &mut Vec<RaceHit>,
    ) {
        debug_assert_eq!(new.len(), cur.len());
        let len = new.len();
        if len == 0 {
            return;
        }
        let RaceState {
            clocks,
            shadow,
            racy,
            read_sets,
            words_per_page,
            wpp_shift,
        } = self;
        let clock = &clocks[pid];
        let c = clock.0[pid];
        let me = pid as u16;
        let first = addr / WORD;
        let last = (addr + len - 1) / WORD;
        let mut w = first;
        while w <= last {
            let hi = last.min(w | (*words_per_page - 1));
            let cells = Self::cells_mut(shadow, *words_per_page, *wpp_shift, w, hi);
            for (k, cell) in (w..).zip(cells) {
                // Already stamped by this writer this epoch and never read:
                // silent or not, the store changes nothing.
                if cell.wc == c && cell.wp == me && cell.rc == 0 {
                    continue;
                }
                // Silent store: this word is rewritten with the bytes the
                // writer already sees; the diff-based protocols cannot
                // propagate it, so it is not a write here either. Only the
                // first and last word of an access can be partly covered;
                // every word between them is one u64 compare.
                let ws = k * WORD;
                let silent = if k == first || k == last {
                    let lo = ws.max(addr) - addr;
                    let hi_b = (ws + WORD).min(addr + len) - addr;
                    new[lo..hi_b] == cur[lo..hi_b]
                } else {
                    let at = ws - addr;
                    let word = |b: &[u8]| {
                        u64::from_ne_bytes(b[at..at + WORD].try_into().expect("eight-byte slice"))
                    };
                    word(new) == word(cur)
                };
                if silent {
                    continue;
                }
                let key = k as u64;
                // Prior write vs this write.
                if cell.wc != 0
                    && cell.wp != me
                    && !clock.covers(cell.wc, cell.wp as usize)
                    && racy.insert(key)
                {
                    out.push(RaceHit {
                        kind: RaceKind::WriteWrite,
                        word_key: key,
                        first_pid: cell.wp as usize,
                        second_pid: pid,
                    });
                }
                // Prior reads vs this write: the first unordered reader of
                // a spilled set, in insertion order.
                if cell.rc != 0 {
                    let unordered = if cell.rp == READERS_SHARED {
                        let set = read_sets.get(&key).expect("spilled read set");
                        set.iter()
                            .find(|&&(qc, q)| q != me && !clock.covers(qc, q as usize))
                            .map(|&(_, q)| q)
                    } else {
                        (cell.rp != me && !clock.covers(cell.rc, cell.rp as usize))
                            .then_some(cell.rp)
                    };
                    if let Some(q) = unordered {
                        if racy.insert(key) {
                            out.push(RaceHit {
                                kind: RaceKind::ReadWrite,
                                word_key: key,
                                first_pid: q as usize,
                                second_pid: pid,
                            });
                        }
                    }
                }
                cell.wc = c;
                cell.wp = me;
            }
            w = hi + 1;
        }
    }
}

/// The word-at-a-time loop the split read and write loops replaced, kept
/// as the model they are tested against (`crate::reference`).
#[cfg(test)]
impl RaceState {
    pub(crate) fn ref_on_write(
        &mut self,
        pid: usize,
        addr: usize,
        new: &[u8],
        cur: &[u8],
        out: &mut Vec<RaceHit>,
    ) {
        self.ref_on_access(pid, addr, new.len(), Some((new, cur)), out);
    }

    pub(crate) fn ref_on_read(
        &mut self,
        pid: usize,
        addr: usize,
        len: usize,
        out: &mut Vec<RaceHit>,
    ) {
        self.ref_on_access(pid, addr, len, None, out);
    }

    fn ref_on_access(
        &mut self,
        pid: usize,
        addr: usize,
        len: usize,
        write: Option<(&[u8], &[u8])>,
        out: &mut Vec<RaceHit>,
    ) {
        if len == 0 {
            return;
        }
        let is_write = write.is_some();
        // Split borrow: the accessor's clock is only read, while the shadow
        // cells and racy set are mutated; destructuring keeps the borrow
        // checker happy without cloning the clock on every access.
        let RaceState {
            clocks,
            shadow,
            racy,
            read_sets,
            words_per_page,
            wpp_shift,
        } = self;
        let wpp = *words_per_page;
        let shift = *wpp_shift;
        let clock = &clocks[pid];
        let c = clock.0[pid];
        let first = addr / WORD;
        let last = (addr + len - 1) / WORD;
        let mut w = first;
        while w <= last {
            let page = w >> shift;
            let base = page << shift;
            let end_of_page = base + wpp - 1;
            let hi = last.min(end_of_page);
            if page >= shadow.len() {
                shadow.resize_with(page + 1, || None);
            }
            let cells =
                shadow[page].get_or_insert_with(|| vec![Word::default(); wpp].into_boxed_slice());
            for widx in (w - base)..=(hi - base) {
                let cell = &mut cells[widx];
                let key = (base + widx) as u64;
                if let Some((new, cur)) = write {
                    // Silent store: this word is rewritten with the bytes
                    // the writer already sees; the diff-based protocols
                    // cannot propagate it, so it is not a write here either.
                    let ws = key as usize * WORD;
                    let lo = ws.max(addr) - addr;
                    let hi_b = (ws + WORD).min(addr + len) - addr;
                    // Whole-word case (the overwhelmingly common one for
                    // 8-byte scalar stores): one u64 compare, no memcmp.
                    let silent = if hi_b - lo == WORD {
                        let a = u64::from_le_bytes(new[lo..lo + WORD].try_into().unwrap());
                        let b = u64::from_le_bytes(cur[lo..lo + WORD].try_into().unwrap());
                        a == b
                    } else {
                        new[lo..hi_b] == cur[lo..hi_b]
                    };
                    if silent {
                        continue;
                    }
                }
                // Prior write vs this access.
                if cell.wc != 0
                    && cell.wp as usize != pid
                    && !clock.covers(cell.wc, cell.wp as usize)
                    && racy.insert(key)
                {
                    out.push(RaceHit {
                        kind: if is_write {
                            RaceKind::WriteWrite
                        } else {
                            RaceKind::WriteRead
                        },
                        word_key: key,
                        first_pid: cell.wp as usize,
                        second_pid: pid,
                    });
                }
                if is_write {
                    // Prior reads vs this write.
                    if cell.rc != 0 {
                        if cell.rp == READERS_SHARED {
                            let set = read_sets.get(&key).expect("spilled read set");
                            for &(qc, q) in set {
                                if q as usize != pid && !clock.covers(qc, q as usize) {
                                    if racy.insert(key) {
                                        out.push(RaceHit {
                                            kind: RaceKind::ReadWrite,
                                            word_key: key,
                                            first_pid: q as usize,
                                            second_pid: pid,
                                        });
                                    }
                                    break;
                                }
                            }
                        } else if cell.rp as usize != pid
                            && !clock.covers(cell.rc, cell.rp as usize)
                            && racy.insert(key)
                        {
                            out.push(RaceHit {
                                kind: RaceKind::ReadWrite,
                                word_key: key,
                                first_pid: cell.rp as usize,
                                second_pid: pid,
                            });
                        }
                    }
                    cell.wc = c;
                    cell.wp = pid as u16;
                } else {
                    // Record the read. One reader is tracked inline; a
                    // second spills the set — each reader keeping its own
                    // clock — to the side table.
                    if cell.rc == 0 || cell.rp == pid as u16 {
                        cell.rp = pid as u16;
                    } else if cell.rp == READERS_SHARED {
                        let set = read_sets.get_mut(&key).expect("spilled read set");
                        match set.iter_mut().find(|(_, q)| *q == pid as u16) {
                            Some(e) => e.0 = e.0.max(c),
                            None => set.push((c, pid as u16)),
                        }
                    } else {
                        read_sets.insert(key, vec![(cell.rc, cell.rp), (c, pid as u16)]);
                        cell.rp = READERS_SHARED;
                    }
                    cell.rc = cell.rc.max(c);
                }
            }
            w = hi + 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PS: usize = 256;

    fn hits(st: &mut RaceState, f: impl FnOnce(&mut RaceState, &mut Vec<RaceHit>)) -> Vec<RaceHit> {
        let mut v = Vec::new();
        f(st, &mut v);
        v
    }

    /// A changing write: `len` bytes of `val` over a view of zeros.
    fn wr(st: &mut RaceState, pid: usize, addr: usize, len: usize, val: u8) -> Vec<RaceHit> {
        let new = vec![val; len];
        let cur = vec![0u8; len];
        hits(st, |s, v| s.on_write(pid, addr, &new, &cur, v))
    }

    #[test]
    fn same_epoch_write_write_races() {
        let mut st = RaceState::new(2, PS);
        assert!(wr(&mut st, 0, 16, 8, 1).is_empty());
        let h = wr(&mut st, 1, 16, 8, 2);
        assert_eq!(h.len(), 1);
        assert_eq!(h[0].kind, RaceKind::WriteWrite);
    }

    #[test]
    fn barrier_orders_accesses() {
        let mut st = RaceState::new(2, PS);
        assert!(wr(&mut st, 0, 16, 8, 1).is_empty());
        st.barrier();
        assert!(wr(&mut st, 1, 16, 8, 2).is_empty());
        st.barrier();
        assert!(hits(&mut st, |s, v| s.on_read(0, 16, 8, v)).is_empty());
    }

    #[test]
    fn read_then_unordered_write_races() {
        let mut st = RaceState::new(2, PS);
        assert!(hits(&mut st, |s, v| s.on_read(0, 8, 8, v)).is_empty());
        let h = wr(&mut st, 1, 8, 8, 1);
        assert_eq!(h.len(), 1);
        assert_eq!(h[0].kind, RaceKind::ReadWrite);
    }

    #[test]
    fn write_then_unordered_read_races() {
        let mut st = RaceState::new(2, PS);
        assert!(wr(&mut st, 0, 8, 8, 1).is_empty());
        let h = hits(&mut st, |s, v| s.on_read(1, 8, 8, v));
        assert_eq!(h.len(), 1);
        assert_eq!(h[0].kind, RaceKind::WriteRead);
    }

    #[test]
    fn concurrent_reads_do_not_race() {
        let mut st = RaceState::new(3, PS);
        for p in 0..3 {
            assert!(hits(&mut st, |s, v| s.on_read(p, 32, 8, v)).is_empty());
        }
    }

    #[test]
    fn own_rewrite_does_not_race() {
        let mut st = RaceState::new(2, PS);
        assert!(wr(&mut st, 0, 0, 8, 1).is_empty());
        assert!(wr(&mut st, 0, 0, 8, 2).is_empty());
        assert!(hits(&mut st, |s, v| s.on_read(0, 0, 8, v)).is_empty());
    }

    #[test]
    fn race_reported_once_per_word() {
        let mut st = RaceState::new(2, PS);
        let _ = wr(&mut st, 0, 16, 8, 1);
        assert_eq!(wr(&mut st, 1, 16, 8, 2).len(), 1);
        assert!(wr(&mut st, 1, 16, 8, 3).is_empty());
        assert!(st.word_is_racy(16));
        assert!(!st.word_is_racy(24));
    }

    #[test]
    fn range_access_races_per_overlapping_word() {
        let mut st = RaceState::new(2, PS);
        let _ = wr(&mut st, 0, 0, 32, 1);
        // Writes overlap in words 1 and 2 only.
        let h = wr(&mut st, 1, 8, 16, 2);
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn spans_cross_pages() {
        let mut st = RaceState::new(2, PS);
        let _ = wr(&mut st, 0, PS - 8, 16, 1);
        let h = wr(&mut st, 1, PS - 8, 16, 2);
        assert_eq!(h.len(), 2);
        assert!(st.words_shadowed() >= 2 * (PS / 8) as u64);
    }

    #[test]
    fn silent_store_is_not_a_write() {
        let mut st = RaceState::new(2, PS);
        // p0 reads the word; p1 "rewrites" it with the bytes it already
        // sees — no diff would ever leave p1, so no race.
        assert!(hits(&mut st, |s, v| s.on_read(0, 16, 8, v)).is_empty());
        let same = [5u8; 8];
        assert!(hits(&mut st, |s, v| s.on_write(1, 16, &same, &same, v)).is_empty());
        // And a silent store does not stamp the word: a later read by p0
        // still races with nothing.
        assert!(hits(&mut st, |s, v| s.on_read(0, 16, 8, v)).is_empty());
    }

    #[test]
    fn mixed_silent_and_changing_words_race_only_where_changed() {
        let mut st = RaceState::new(2, PS);
        let _ = wr(&mut st, 0, 0, 32, 1);
        // p1 rewrites 4 words but only word 2 actually changes.
        let cur = [7u8; 32];
        let mut new = [7u8; 32];
        new[16..24].fill(9);
        let h = hits(&mut st, |s, v| s.on_write(1, 0, &new, &cur, v));
        assert_eq!(h.len(), 1);
        assert_eq!(h[0].word_key, 2);
    }
}
