//! The LRC coherence oracle.
//!
//! The oracle maintains what each read is *allowed* to return under lazy
//! release consistency with barrier-only synchronization: the shared state
//! as of the last barrier (all earlier epochs' writes folded together) plus
//! the reader's own writes of the current epoch. A read observing anything
//! else on a non-racy word is a coherence violation — in particular the
//! silent divergence `bar-m` risks when its write-set prediction misses.
//!
//! State is value-level, not clock-level: a `committed` byte image of every
//! touched page plus one masked per-epoch overlay per process. Overlays
//! fold into `committed` at every barrier release in pid order (the order
//! only matters for racy words, and those are suppressed at read time).

use std::ops::Range;

use dsm_sim::{
    decode_table, encode_table, fold_encoding, FastSet, SnapError, SnapReader, SnapWriter, State,
    StateHasher,
};

use crate::report::Violation;

const WORD: usize = 8;

/// Eight set mask bytes, read as one word.
const MASK_ONES: u64 = u64::from_ne_bytes([1; WORD]);

/// One process's uncommitted writes to one page this epoch.
#[derive(Clone)]
struct Overlay {
    data: Vec<u8>,
    /// 1 per byte written this epoch.
    mask: Vec<u8>,
    /// Dirty extent: every nonzero mask byte lies in `[lo, hi)`, so the
    /// fold, the mask wipe and the read path touch only that range.
    /// Derived from the mask, not state: never encoded or hashed, and
    /// recomputed by `decode`. Empty (`lo == hi`) on the spare list.
    lo: usize,
    hi: usize,
}

impl Overlay {
    fn new(page_size: usize) -> Overlay {
        Overlay {
            data: vec![0; page_size],
            mask: vec![0; page_size],
            lo: 0,
            hi: 0,
        }
    }

    /// Record `data` as written at `[off, off + data.len())`.
    fn write(&mut self, off: usize, data: &[u8]) {
        let end = off + data.len();
        self.data[off..end].copy_from_slice(data);
        self.mask[off..end].fill(1);
        if self.lo == self.hi {
            (self.lo, self.hi) = (off, end);
        } else {
            self.lo = self.lo.min(off);
            self.hi = self.hi.max(end);
        }
    }

    /// Recompute the extent from the mask (after a restore).
    fn rescan_extent(&mut self) {
        self.lo = self.mask.iter().position(|&m| m != 0).unwrap_or(0);
        self.hi = self.mask.iter().rposition(|&m| m != 0).map_or(0, |i| i + 1);
    }

    /// The part of page range `[off, off + n)` inside the dirty extent
    /// (empty when no byte of the range can have been written).
    fn clip(&self, off: usize, n: usize) -> Range<usize> {
        off.max(self.lo)..(off + n).min(self.hi)
    }

    /// Lay this overlay's written bytes over `dst`, which holds page bytes
    /// `[off, off + dst.len())`.
    fn blend_into(&self, off: usize, dst: &mut [u8]) {
        let r = self.clip(off, dst.len());
        if !r.is_empty() {
            blend(
                &mut dst[r.start - off..r.end - off],
                &self.data[r.clone()],
                &self.mask[r],
            );
        }
    }

    /// Forget every write: wipe the mask over the extent and empty it.
    fn clear(&mut self) {
        self.mask[self.lo..self.hi].fill(0);
        (self.lo, self.hi) = (0, 0);
    }
}

/// `dst[i] = src[i]` wherever `mask[i] != 0`, eight mask bytes a step: an
/// all-clear group is skipped, an all-set group is one word copy, and only
/// a mixed group walks its bytes.
fn blend(dst: &mut [u8], src: &[u8], mask: &[u8]) {
    let bytes = |d: &mut [u8], s: &[u8], m: &[u8]| {
        for ((d, s), m) in d.iter_mut().zip(s).zip(m) {
            if *m != 0 {
                *d = *s;
            }
        }
    };
    let mut d = dst.chunks_exact_mut(WORD);
    let mut s = src.chunks_exact(WORD);
    let mut m = mask.chunks_exact(WORD);
    for ((d, s), m) in d.by_ref().zip(s.by_ref()).zip(m.by_ref()) {
        match u64::from_ne_bytes(m.try_into().expect("eight-byte chunk")) {
            0 => {}
            MASK_ONES => d.copy_from_slice(s),
            _ => bytes(d, s, m),
        }
    }
    bytes(d.into_remainder(), s.remainder(), m.remainder());
}

/// Split `[addr, addr + len)` at page boundaries (pages of `1 << shift`
/// bytes): one `(page, offset in the page, offset in the range, length)`
/// per piece, ascending.
fn pieces(
    shift: u32,
    addr: usize,
    len: usize,
) -> impl Iterator<Item = (usize, usize, usize, usize)> {
    let ps = 1usize << shift;
    let mut done = 0;
    std::iter::from_fn(move || {
        (done < len).then(|| {
            let a = addr + done;
            let off = a & (ps - 1);
            let n = (ps - off).min(len - done);
            done += n;
            (a >> shift, off, done - n, n)
        })
    })
}

/// The oracle's shadow of the shared segment.
pub struct OracleState {
    page_size: usize,
    /// `log2(page_size)`: page sizes are powers of two by the VM's own
    /// assertion, so the per-access page/offset split is a shift and a
    /// mask instead of a division by a runtime value.
    ps_shift: u32,
    /// Globally committed bytes (everything up to the last barrier),
    /// indexed densely by page number (`None` = untouched, implicitly
    /// zero, matching the cluster's zero-initialized image). Dense
    /// indexing keeps the per-access lookup a bounds check, not a hash.
    committed: Vec<Option<Vec<u8>>>,
    /// Per-process current-epoch overlays, same dense indexing.
    overlays: Box<[Vec<Option<Overlay>>]>,
    /// Overlays retired at barriers, masks wiped, awaiting reuse — the
    /// fold would otherwise free and re-`calloc` two page-sized buffers
    /// per touched page per epoch.
    spare: Vec<Overlay>,
    /// Word keys already reported stale (one violation per word).
    flagged: FastSet<u64>,
    /// Reusable buffer for the expected-bytes computation in `on_read`;
    /// the read path runs once per simulated load, so allocating it fresh
    /// each time dominates the checker's host cost.
    scratch: Vec<u8>,
}

impl OracleState {
    pub fn new(nprocs: usize, page_size: usize) -> OracleState {
        assert!(page_size.is_power_of_two());
        OracleState {
            page_size,
            ps_shift: page_size.trailing_zeros(),
            committed: Vec::new(),
            overlays: vec![Vec::new(); nprocs].into(),
            spare: Vec::new(),
            flagged: FastSet::default(),
            scratch: Vec::new(),
        }
    }

    fn committed_page(&mut self, page: usize) -> &mut Vec<u8> {
        let ps = self.page_size;
        if page >= self.committed.len() {
            self.committed.resize_with(page + 1, || None);
        }
        self.committed[page].get_or_insert_with(|| vec![0; ps])
    }

    /// Setup-time write: goes straight into the committed image.
    pub fn image_write(&mut self, addr: usize, data: &[u8]) {
        for (page, off, done, n) in pieces(self.ps_shift, addr, data.len()) {
            self.committed_page(page)[off..off + n].copy_from_slice(&data[done..done + n]);
        }
    }

    /// An application write lands in the writer's overlay until the next
    /// barrier commits it.
    pub fn on_write(&mut self, pid: usize, addr: usize, data: &[u8]) {
        let ps = self.page_size;
        // Split borrow: the overlay slot and the spare list are mutated
        // together when a page is touched for the first time this epoch.
        let OracleState {
            overlays, spare, ..
        } = self;
        let slots = &mut overlays[pid];
        for (page, off, done, n) in pieces(self.ps_shift, addr, data.len()) {
            if page >= slots.len() {
                slots.resize_with(page + 1, || None);
            }
            let ov =
                slots[page].get_or_insert_with(|| spare.pop().unwrap_or_else(|| Overlay::new(ps)));
            ov.write(off, &data[done..done + n]);
        }
    }

    /// What LRC says `pid` must observe at `[addr, addr+len)`. Also the
    /// reference the race detector compares writes against to recognize
    /// silent stores. Fills `out` (a caller-owned reusable buffer) instead
    /// of returning a fresh allocation: this runs once per simulated access.
    pub(crate) fn expected_into(&self, pid: usize, addr: usize, len: usize, out: &mut Vec<u8>) {
        out.clear();
        for (page, off, done, n) in pieces(self.ps_shift, addr, len) {
            match self.committed.get(page) {
                Some(Some(c)) => out.extend_from_slice(&c[off..off + n]),
                _ => out.resize(done + n, 0),
            }
            if let Some(Some(ov)) = self.overlays[pid].get(page) {
                ov.blend_into(off, &mut out[done..]);
            }
        }
    }

    /// True if `observed` is provably what `pid` must see at `addr`,
    /// decided in place: every page piece the reader's own overlay cannot
    /// reach is compared against the committed page (or against zeros for
    /// a page never touched). False means "not decided here" — a mismatch,
    /// or an overlay in the way — and sends the read down the word walk.
    fn read_matches_committed(&self, pid: usize, addr: usize, observed: &[u8]) -> bool {
        pieces(self.ps_shift, addr, observed.len()).all(|(page, off, done, n)| {
            let piece = &observed[done..done + n];
            let hidden =
                matches!(self.overlays[pid].get(page), Some(Some(ov)) if !ov.clip(off, n).is_empty());
            !hidden
                && match self.committed.get(page) {
                    Some(Some(c)) => piece == &c[off..off + n],
                    _ => piece.iter().all(|&b| b == 0),
                }
        })
    }

    /// Compare an observed read against the oracle. Mismatching words that
    /// are racy (per `is_racy`, keyed by byte address) are suppressed: a
    /// racy read may legally return either value. Each offending word is
    /// reported at most once per run.
    pub fn on_read(
        &mut self,
        pid: usize,
        addr: usize,
        observed: &[u8],
        epoch: u64,
        is_racy: impl Fn(usize) -> bool,
        out: &mut Vec<Violation>,
    ) {
        if observed.is_empty() || self.read_matches_committed(pid, addr, observed) {
            return;
        }
        // Borrow the scratch buffer out of self so `expected_into` can take
        // `&self`; put it back before every return.
        let mut expected = core::mem::take(&mut self.scratch);
        self.expected_into(pid, addr, observed.len(), &mut expected);
        if expected != observed {
            self.report_stale(pid, addr, observed, &expected, epoch, is_racy, out);
        }
        self.scratch = expected;
    }

    /// Walk a mismatching read word by word so racy-word suppression and
    /// violation dedup stay at the race detector's granularity.
    #[allow(clippy::too_many_arguments)]
    fn report_stale(
        &mut self,
        pid: usize,
        addr: usize,
        observed: &[u8],
        expected: &[u8],
        epoch: u64,
        is_racy: impl Fn(usize) -> bool,
        out: &mut Vec<Violation>,
    ) {
        let mut i = 0;
        while i < observed.len() {
            let a = addr + i;
            let word_start = a - a % WORD;
            let word_end = (word_start + WORD).min(addr + observed.len());
            let lo = word_start.max(addr) - addr;
            let hi = word_end - addr;
            if expected[lo..hi] != observed[lo..hi] {
                let key = (word_start / WORD) as u64;
                if !is_racy(word_start) && self.flagged.insert(key) {
                    out.push(Violation::StaleRead {
                        pid,
                        addr: word_start.max(addr),
                        epoch,
                        expected: expected[lo..hi].to_vec(),
                        observed: observed[lo..hi].to_vec(),
                    });
                }
            }
            i = hi;
        }
    }

    /// Barrier release: every process's epoch writes become globally
    /// committed. Folding runs pid-ascending, pages ascending (the dense
    /// slot order); the order is only observable on racy words, which the
    /// read path suppresses. Retired overlays go to the spare list.
    pub fn barrier_release(&mut self) {
        for pid in 0..self.overlays.len() {
            for page in 0..self.overlays[pid].len() {
                let Some(mut ov) = self.overlays[pid][page].take() else {
                    continue;
                };
                ov.blend_into(0, self.committed_page(page));
                ov.clear();
                self.spare.push(ov);
            }
        }
    }
}

/// Read one raw page image into `buf`, reusing its allocation.
fn decode_page(buf: &mut Vec<u8>, ps: usize, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
    buf.clear();
    buf.extend_from_slice(r.raw(ps)?);
    Ok(())
}

/// Hand-written: touched pages are written sparsely in page order
/// (`encode_table`) as raw `page_size`-byte images — the size is
/// construction-time configuration, so no length precedes them. The
/// page-size shift is derived at construction; the spare list and the
/// scratch buffer are host-side caches, neither captured nor disturbed.
impl State for OracleState {
    fn encode(&self, w: &mut SnapWriter) {
        let OracleState {
            page_size: _,
            ps_shift: _,
            committed,
            overlays,
            spare: _,
            flagged,
            scratch: _,
        } = self;
        encode_table(committed, w, |_, page, w| w.raw(page));
        w.usize(overlays.len());
        for slots in overlays {
            encode_table(slots, w, |_, ov, w| {
                w.raw(&ov.data);
                w.raw(&ov.mask);
            });
        }
        flagged.encode(w);
    }

    fn decode(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let OracleState {
            page_size,
            ps_shift: _,
            committed,
            overlays,
            spare,
            flagged,
            scratch: _,
        } = self;
        let ps = *page_size;
        decode_table(committed, r, |_, slot, r| {
            decode_page(slot.get_or_insert_with(Vec::new), ps, r)
        })?;
        let nprocs = r.u64()?;
        r.geometry("nprocs", overlays.len() as u64, nprocs)?;
        for slots in overlays {
            decode_table(slots, r, |_, slot, r| {
                let ov =
                    slot.get_or_insert_with(|| spare.pop().unwrap_or_else(|| Overlay::new(ps)));
                decode_page(&mut ov.data, ps, r)?;
                decode_page(&mut ov.mask, ps, r)?;
                ov.rescan_extent();
                Ok(())
            })?;
        }
        flagged.decode(r)
    }

    fn fold(&self, h: &mut StateHasher) {
        fold_encoding(self, h);
    }
}

/// The byte-at-a-time bodies the extent-bounded paths replaced, kept as
/// the model they are tested against (`crate::reference`). They ignore
/// the overlay extents; only the retiring fold resets them, since the
/// spare list is shared with `on_write`.
#[cfg(test)]
impl OracleState {
    pub(crate) fn ref_expected_into(&self, pid: usize, addr: usize, len: usize, out: &mut Vec<u8>) {
        let ps = self.page_size;
        let (shift, mask) = (self.ps_shift, ps - 1);
        out.clear();
        out.resize(len, 0);
        let mut done = 0;
        while done < len {
            let a = addr + done;
            let page = a >> shift;
            let off = a & mask;
            let n = (ps - off).min(len - done);
            if let Some(Some(c)) = self.committed.get(page) {
                out[done..done + n].copy_from_slice(&c[off..off + n]);
            }
            if let Some(Some(ov)) = self.overlays[pid].get(page) {
                for i in 0..n {
                    if ov.mask[off + i] != 0 {
                        out[done + i] = ov.data[off + i];
                    }
                }
            }
            done += n;
        }
    }

    pub(crate) fn ref_on_read(
        &mut self,
        pid: usize,
        addr: usize,
        observed: &[u8],
        epoch: u64,
        is_racy: impl Fn(usize) -> bool,
        out: &mut Vec<Violation>,
    ) {
        if observed.is_empty() {
            return;
        }
        // Borrow the scratch buffer out of self so `expected_into` can take
        // `&self`; put it back before every return.
        let mut expected = core::mem::take(&mut self.scratch);
        self.ref_expected_into(pid, addr, observed.len(), &mut expected);
        if expected != observed {
            self.report_stale(pid, addr, observed, &expected, epoch, is_racy, out);
        }
        self.scratch = expected;
    }

    pub(crate) fn ref_barrier_release(&mut self) {
        for pid in 0..self.overlays.len() {
            for page in 0..self.overlays[pid].len() {
                let Some(mut ov) = self.overlays[pid][page].take() else {
                    continue;
                };
                let c = self.committed_page(page);
                for (i, b) in c.iter_mut().enumerate() {
                    if ov.mask[i] != 0 {
                        *b = ov.data[i];
                    }
                }
                ov.mask.fill(0);
                (ov.lo, ov.hi) = (0, 0);
                self.spare.push(ov);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PS: usize = 256;

    fn read_clean(o: &mut OracleState, pid: usize, addr: usize, obs: &[u8]) -> Vec<Violation> {
        let mut v = Vec::new();
        o.on_read(pid, addr, obs, 1, |_| false, &mut v);
        v
    }

    #[test]
    fn zero_fill_default() {
        let mut o = OracleState::new(2, PS);
        assert!(read_clean(&mut o, 0, 40, &[0u8; 16]).is_empty());
    }

    #[test]
    fn own_epoch_writes_visible() {
        let mut o = OracleState::new(2, PS);
        o.on_write(0, 8, &[7u8; 8]);
        assert!(read_clean(&mut o, 0, 8, &[7u8; 8]).is_empty());
        // The other process must still see the committed (zero) bytes.
        assert!(read_clean(&mut o, 1, 8, &[0u8; 8]).is_empty());
    }

    #[test]
    fn stale_read_after_barrier() {
        let mut o = OracleState::new(2, PS);
        o.on_write(0, 8, &[7u8; 8]);
        o.barrier_release();
        let v = read_clean(&mut o, 1, 8, &[0u8; 8]);
        assert_eq!(v.len(), 1);
        assert!(matches!(
            &v[0],
            Violation::StaleRead {
                pid: 1,
                addr: 8,
                ..
            }
        ));
        // Reported once per word.
        assert!(read_clean(&mut o, 1, 8, &[0u8; 8]).is_empty());
    }

    #[test]
    fn racy_words_suppressed() {
        let mut o = OracleState::new(2, PS);
        o.on_write(0, 8, &[7u8; 8]);
        o.barrier_release();
        let mut v = Vec::new();
        o.on_read(1, 8, &[0u8; 8], 2, |_| true, &mut v);
        assert!(v.is_empty());
    }

    #[test]
    fn image_writes_seed_committed() {
        let mut o = OracleState::new(2, PS);
        o.image_write(PS - 4, &[1, 2, 3, 4, 5, 6, 7, 8]);
        assert!(read_clean(&mut o, 1, PS - 4, &[1, 2, 3, 4, 5, 6, 7, 8]).is_empty());
    }

    #[test]
    fn later_writer_wins_at_fold() {
        let mut o = OracleState::new(2, PS);
        o.on_write(0, 0, &[1u8; 8]);
        o.on_write(1, 0, &[2u8; 8]);
        o.barrier_release();
        assert!(read_clean(&mut o, 0, 0, &[2u8; 8]).is_empty());
    }

    #[test]
    fn restore_recomputes_overlay_extents() {
        let mut o = OracleState::new(2, PS);
        o.image_write(0, &[3u8; 2 * PS]);
        // Mid-epoch: p0 has written two separate spans of page 0 and one
        // that crosses into page 1; p1 a single byte.
        o.on_write(0, 40, &[7u8; 5]);
        o.on_write(0, 97, &[8u8; 30]);
        o.on_write(0, PS - 3, &[9u8; 6]);
        o.on_write(1, PS + 11, &[6u8]);
        let mut w = SnapWriter::new();
        o.encode(&mut w);
        let snap = w.into_bytes();
        let mut back = OracleState::new(2, PS);
        back.decode(&mut SnapReader::new(&snap)).unwrap();

        let extents = |o: &OracleState| -> Vec<Vec<Option<(usize, usize)>>> {
            let of = |s: &Option<Overlay>| s.as_ref().map(|ov| (ov.lo, ov.hi));
            o.overlays
                .iter()
                .map(|p| p.iter().map(of).collect())
                .collect()
        };
        assert_eq!(extents(&back), extents(&o));
        assert_eq!(extents(&back)[0], [Some((40, PS)), Some((0, 3))]);
        assert_eq!(extents(&back)[1], [None, Some((11, 12))]);

        // The owner still reads its own writes over the committed image;
        // to p1 those seven words, and the one it wrote itself, are stale.
        let mut own = vec![3u8; 2 * PS];
        own[40..45].fill(7);
        own[97..127].fill(8);
        own[PS - 3..PS + 3].fill(9);
        assert!(read_clean(&mut back, 0, 0, &own).is_empty());
        assert_eq!(read_clean(&mut back, 1, 0, &own).len(), 8);
    }

    #[test]
    fn mismatch_reports_word_slice() {
        let mut o = OracleState::new(1, PS);
        o.image_write(0, &[9u8; 24]);
        let mut obs = vec![9u8; 24];
        obs[10] = 0; // word 1 differs
        let v = read_clean(&mut o, 0, 0, &obs);
        assert_eq!(v.len(), 1);
        match &v[0] {
            Violation::StaleRead {
                addr,
                expected,
                observed,
                ..
            } => {
                assert_eq!(*addr, 8);
                assert_eq!(expected.len(), 8);
                assert_eq!(observed[2], 0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
