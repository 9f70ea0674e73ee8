//! Per-page copysets.
//!
//! "Accesses to shared pages are tracked by using per-page copysets, which
//! are bitmaps that specify which processors cache a given page" (§2.1.2).
//!
//! The paper's prototype ran on 8 nodes, so a 64-bit bitmap was ample.
//! Making node count a first-class axis (ROADMAP: up to 1024) needs a set
//! with no 64-pid ceiling whose cost still tracks *occupancy*, not cluster
//! size: the scaling prover certifies that for every app the number of
//! sharers per page is bounded by a small constant independent of N, so
//! the common case must stay allocation-free. The representation is
//! therefore hybrid: pids below 64 live in an inline bitmap word, pids 64
//! and above spill into a sorted vector. A set that never sees a pid ≥ 64
//! — every run at the paper's scale — never allocates, and its
//! [`CopySet::digest_words`] stream is exactly the single bitmap word the
//! pre-scaling format hashed, keeping all committed results byte-stable.

use dsm_sim::{SnapError, SnapReader, SnapWriter, State, StateHasher};

/// A set of processor ids: inline bitmap for pids 0..64, sorted spillover
/// for the rest. Equality, hashing, and ordering are canonical (the spill
/// vector is kept sorted and duplicate-free, and never holds pids < 64).
#[derive(Clone, PartialEq, Eq, Debug, Default, Hash, PartialOrd, Ord)]
pub struct CopySet {
    /// Bit `p` set iff process `p < 64` is a member.
    lo: u64,
    /// Members `>= 64`, ascending, no duplicates.
    spill: Vec<u16>,
}

impl CopySet {
    /// The empty set.
    pub const EMPTY: CopySet = CopySet {
        lo: 0,
        spill: Vec::new(),
    };

    /// A singleton set.
    pub fn single(pid: usize) -> CopySet {
        let mut s = CopySet::EMPTY;
        s.insert(pid);
        s
    }

    #[inline]
    pub fn insert(&mut self, pid: usize) {
        if pid < 64 {
            self.lo |= 1 << pid;
        } else {
            let pid = u16::try_from(pid).expect("pid exceeds u16 range");
            if let Err(at) = self.spill.binary_search(&pid) {
                self.spill.insert(at, pid);
            }
        }
    }

    #[inline]
    pub fn remove(&mut self, pid: usize) {
        if pid < 64 {
            self.lo &= !(1 << pid);
        } else if let Ok(pid) = u16::try_from(pid) {
            if let Ok(at) = self.spill.binary_search(&pid) {
                self.spill.remove(at);
            }
        }
    }

    #[inline]
    pub fn contains(&self, pid: usize) -> bool {
        if pid < 64 {
            self.lo & (1 << pid) != 0
        } else {
            u16::try_from(pid).is_ok_and(|p| self.spill.binary_search(&p).is_ok())
        }
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.lo == 0 && self.spill.is_empty()
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.lo.count_ones() as usize + self.spill.len()
    }

    /// Union in place.
    pub fn union_with(&mut self, other: &CopySet) {
        self.lo |= other.lo;
        if !other.spill.is_empty() {
            for &p in &other.spill {
                if let Err(at) = self.spill.binary_search(&p) {
                    self.spill.insert(at, p);
                }
            }
        }
    }

    /// Members of `self` not in `other` (set difference).
    #[must_use]
    pub fn minus(&self, other: &CopySet) -> CopySet {
        CopySet {
            lo: self.lo & !other.lo,
            spill: self
                .spill
                .iter()
                .copied()
                .filter(|p| other.spill.binary_search(p).is_err())
                .collect(),
        }
    }

    /// Iterate members in ascending pid order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        let mut bits = self.lo;
        let inline = std::iter::from_fn(move || {
            if bits == 0 {
                None
            } else {
                let p = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(p)
            }
        });
        inline.chain(self.spill.iter().map(|&p| usize::from(p)))
    }

    /// Members other than `pid`, ascending.
    pub fn others(&self, pid: usize) -> impl Iterator<Item = usize> + '_ {
        self.iter().filter(move |&p| p != pid)
    }

    /// The member with the lowest pid, if any.
    pub fn first(&self) -> Option<usize> {
        if self.lo != 0 {
            Some(self.lo.trailing_zeros() as usize)
        } else {
            self.spill.first().map(|&p| usize::from(p))
        }
    }

    /// The canonical word stream digests and structural hashes fold. A set
    /// with no spillover members yields exactly one word — the inline
    /// bitmap — which is bit-identical to the raw-`u64` stream the
    /// pre-scaling format hashed, so every committed digest over runs with
    /// fewer than 64 processes is unchanged. Spillover members follow as
    /// one word each, ascending.
    pub fn digest_words(&self) -> impl Iterator<Item = u64> + '_ {
        std::iter::once(self.lo).chain(self.spill.iter().map(|&p| u64::from(p)))
    }

    /// Heap bytes resident for this set (zero without spillover). The
    /// scaling prover's table-memory formulas count these, so the
    /// definition is part of the cross-validated surface.
    pub fn heap_bytes(&self) -> usize {
        self.spill.capacity() * size_of::<u16>()
    }
}

/// Hand-written: the snapshot holds the member list (count, then each pid
/// ascending), independent of the inline/spill split, and the hash folds
/// [`CopySet::digest_words`], the same stream check events fold.
impl State for CopySet {
    fn encode(&self, w: &mut SnapWriter) {
        w.usize(self.len());
        for p in self.iter() {
            w.u16(u16::try_from(p).expect("pid exceeds u16 range"));
        }
    }

    fn decode(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let CopySet { lo, spill } = self;
        *lo = 0;
        spill.clear();
        for _ in 0..r.count()? {
            self.insert(usize::from(r.u16()?));
        }
        Ok(())
    }

    fn fold(&self, h: &mut StateHasher) {
        for w in self.digest_words() {
            h.u64(w);
        }
    }
}

impl FromIterator<usize> for CopySet {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut s = CopySet::EMPTY;
        for pid in iter {
            s.insert(pid);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = CopySet::EMPTY;
        assert!(s.is_empty());
        s.insert(3);
        s.insert(7);
        assert!(s.contains(3) && s.contains(7) && !s.contains(4));
        assert_eq!(s.len(), 2);
        s.remove(3);
        assert!(!s.contains(3));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn insert_is_idempotent() {
        let mut s = CopySet::EMPTY;
        s.insert(5);
        s.insert(5);
        s.insert(100);
        s.insert(100);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn iter_ascending() {
        let s: CopySet = [6, 1, 4].into_iter().collect();
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1, 4, 6]);
    }

    #[test]
    fn others_excludes_self() {
        let s: CopySet = [0, 2, 5].into_iter().collect();
        assert_eq!(s.others(2).collect::<Vec<_>>(), vec![0, 5]);
        assert_eq!(s.others(1).collect::<Vec<_>>(), vec![0, 2, 5]);
    }

    #[test]
    fn union_and_first() {
        let mut a: CopySet = [1, 2].into_iter().collect();
        let b: CopySet = [2, 6].into_iter().collect();
        a.union_with(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1, 2, 6]);
        assert_eq!(a.first(), Some(1));
        assert_eq!(CopySet::EMPTY.first(), None);
    }

    #[test]
    fn boundary_pid_63() {
        let mut s = CopySet::EMPTY;
        s.insert(63);
        assert!(s.contains(63));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![63]);
    }

    #[test]
    fn single_constructor() {
        let s = CopySet::single(9);
        assert_eq!(s.len(), 1);
        assert!(s.contains(9));
    }

    #[test]
    fn spillover_past_64() {
        let s: CopySet = [2, 63, 64, 200, 1000].into_iter().collect();
        assert_eq!(s.len(), 5);
        assert!(s.contains(64) && s.contains(1000) && !s.contains(65));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![2, 63, 64, 200, 1000]);
        let mut t = s.clone();
        t.remove(200);
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![2, 63, 64, 1000]);
        assert_eq!(CopySet::single(64).first(), Some(64));
    }

    #[test]
    fn minus_is_pointwise_difference() {
        let a: CopySet = [1, 5, 64, 100].into_iter().collect();
        let b: CopySet = [5, 100, 200].into_iter().collect();
        let d = a.minus(&b);
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![1, 64]);
    }

    #[test]
    fn digest_words_match_inline_bitmap() {
        let s: CopySet = [1, 3].into_iter().collect();
        assert_eq!(s.digest_words().collect::<Vec<_>>(), vec![0b1010]);
        let t: CopySet = [1, 70].into_iter().collect();
        assert_eq!(t.digest_words().collect::<Vec<_>>(), vec![0b10, 70]);
        assert!(s.heap_bytes() == 0);
    }
}
