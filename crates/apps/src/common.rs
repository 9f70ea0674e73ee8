//! Shared helpers for the application suite.

/// Problem-size preset.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// Tiny instances for unit/integration tests (fractions of a second).
    Small,
    /// The sizes used by the paper-reproduction harnesses.
    Paper,
}

impl Scale {
    /// The name reports and command lines use for the preset.
    pub fn label(self) -> &'static str {
        match self {
            Scale::Small => "small",
            Scale::Paper => "paper",
        }
    }
}

/// Contiguous band `[lo, hi)` of `count` items for process `pid` of
/// `nprocs` (owner-computes row decomposition).
///
/// Invariants (relied on by every kernel and by the `dsm-plan` analyzer,
/// which re-derives this function symbolically):
///
/// * bands are contiguous and partition `[0, count)` exactly:
///   `band(c, p, n).1 == band(c, p+1, n).0` and the union covers `count`;
/// * ceil division front-loads the work: when `count < nprocs` the first
///   `count` processes get one item each and every **trailing** process
///   gets an *empty* band (`lo == hi == count`). Kernels must therefore
///   tolerate `lo == hi` (skip the loop, touch nothing) — a phase whose
///   writer set lowers empty everywhere is flagged by the analyzer as a
///   mis-scoped decomposition.
pub fn band(count: usize, pid: usize, nprocs: usize) -> (usize, usize) {
    let per = count.div_ceil(nprocs);
    let lo = (pid * per).min(count);
    let hi = (lo + per).min(count);
    (lo, hi)
}

/// Band over the interior rows `[1, rows-1)` of a grid with fixed
/// boundaries. Inherits [`band`]'s invariants shifted by one: trailing
/// processes get empty bands when `rows - 2 < nprocs`, and `hi <= rows-1`
/// always, so `r+1` never touches past the fixed boundary row.
pub fn interior_band(rows: usize, pid: usize, nprocs: usize) -> (usize, usize) {
    let (lo, hi) = band(rows - 2, pid, nprocs);
    (lo + 1, hi + 1)
}

/// Deterministic pseudo-random initial value in `[0, 1)` for grid seeding —
/// a cheap hash, stable across protocols and platforms.
pub fn seeded01(r: usize, c: usize, salt: u64) -> f64 {
    let mut z = (r as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((c as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F))
        .wrapping_add(salt.wrapping_mul(0x1656_67B1_9E37_79F9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bands_partition_exactly() {
        for count in [1usize, 7, 64, 100, 510] {
            for n in [1usize, 2, 3, 8] {
                let mut covered = 0;
                let mut prev_hi = 0;
                for pid in 0..n {
                    let (lo, hi) = band(count, pid, n);
                    assert_eq!(lo, prev_hi, "bands must be contiguous");
                    assert!(hi >= lo);
                    covered += hi - lo;
                    prev_hi = hi;
                }
                assert_eq!(covered, count, "bands must cover count={count} n={n}");
            }
        }
    }

    #[test]
    fn interior_band_excludes_boundaries() {
        let n = 4;
        let rows = 10;
        let (lo0, _) = interior_band(rows, 0, n);
        let (_, hi_last) = interior_band(rows, n - 1, n);
        assert_eq!(lo0, 1);
        assert_eq!(hi_last, rows - 1);
    }

    #[test]
    fn degenerate_shapes_give_trailing_empty_bands() {
        // count < nprocs: ceil division gives one item to each of the
        // first `count` processes and an empty band to the rest.
        for (count, n) in [(3usize, 8usize), (1, 4), (5, 8), (0, 3)] {
            let mut nonempty = 0;
            for pid in 0..n {
                let (lo, hi) = band(count, pid, n);
                assert!(lo <= hi && hi <= count);
                if pid >= count {
                    assert_eq!((lo, hi), (count, count), "trailing bands are empty");
                }
                nonempty += usize::from(hi > lo);
            }
            assert_eq!(nonempty, count.min(n));
        }
        // interior_band with rows - 2 < nprocs: same shape, shifted.
        for pid in 0..8 {
            let (lo, hi) = interior_band(5, pid, 8);
            assert!(lo >= 1 && hi <= 4);
            assert_eq!(hi > lo, pid < 3);
        }
    }

    #[test]
    fn seeded01_is_deterministic_and_in_range() {
        for r in 0..20 {
            for c in 0..20 {
                let v = seeded01(r, c, 42);
                assert!((0.0..1.0).contains(&v));
                assert_eq!(v, seeded01(r, c, 42));
            }
        }
        assert_ne!(seeded01(1, 2, 3), seeded01(2, 1, 3));
        assert_ne!(seeded01(1, 2, 3), seeded01(1, 2, 4));
    }
}
