//! Lowering symbolic accesses to concrete byte spans.
//!
//! The central type is [`SpanSet`]: a normalized (sorted, disjoint,
//! non-adjacent) set of half-open byte ranges over the shared segment's
//! flat address space. Everything the analyzer proves — disjointness,
//! containment, page footprints, traffic volumes — reduces to sorted-merge
//! walks over span sets.

use crate::layout::ArrayLayout;
use crate::spec::{AccessDecl, AccessKind, Cols, RowArgs, Rows, Who};

/// Every shared array in the suite stores 8-byte elements (f64 or i64).
pub const ESIZE: u64 = 8;

/// Block band `[lo, hi)` of `count` items for `pid` of `nprocs`.
///
/// This is a *deliberate duplicate* of `dsm_apps::common::band`, not a
/// re-export: the plan layer is the static model of the applications, and
/// keeping its band arithmetic independent is what gives the property test
/// (`crates/apps/tests`) something to check — that the model and the code
/// agree on every `(count, pid, nprocs)`.
///
/// Invariant (shared with the runtime version and documented there): bands
/// partition `[0, count)` contiguously, but when `count < nprocs` the
/// ceiling division hands the first `ceil(count / per)` processes all the
/// work and every *trailing* process an empty band `(count, count)`.
/// Degenerate shapes are therefore legal plan inputs and must lower to
/// empty span sets, never panic.
pub fn band(count: usize, pid: usize, nprocs: usize) -> (usize, usize) {
    let per = count.div_ceil(nprocs);
    let lo = (pid * per).min(count);
    let hi = (lo + per).min(count);
    (lo, hi)
}

/// Band over the interior rows `[1, rows-1)` of a fixed-boundary grid.
/// Duplicate of `dsm_apps::common::interior_band`, same rationale as
/// [`band`].
pub fn interior_band(rows: usize, pid: usize, nprocs: usize) -> (usize, usize) {
    let (lo, hi) = band(rows - 2, pid, nprocs);
    (lo + 1, hi + 1)
}

/// A normalized set of half-open byte ranges.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SpanSet {
    spans: Vec<(u64, u64)>,
}

impl SpanSet {
    pub fn empty() -> SpanSet {
        SpanSet::default()
    }

    /// Build from arbitrary (possibly overlapping, unsorted) raw spans.
    pub fn from_raw(mut raw: Vec<(u64, u64)>) -> SpanSet {
        raw.retain(|&(lo, hi)| lo < hi);
        raw.sort_unstable();
        let mut spans: Vec<(u64, u64)> = Vec::with_capacity(raw.len());
        for (lo, hi) in raw {
            match spans.last_mut() {
                Some(last) if lo <= last.1 => last.1 = last.1.max(hi),
                _ => spans.push((lo, hi)),
            }
        }
        SpanSet { spans }
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    pub fn spans(&self) -> &[(u64, u64)] {
        &self.spans
    }

    /// Total bytes covered.
    pub fn bytes(&self) -> u64 {
        self.spans.iter().map(|&(lo, hi)| hi - lo).sum()
    }

    /// Union with another set.
    #[must_use]
    pub fn union(&self, other: &SpanSet) -> SpanSet {
        if other.is_empty() {
            return self.clone();
        }
        if self.is_empty() {
            return other.clone();
        }
        let mut raw = self.spans.clone();
        raw.extend_from_slice(&other.spans);
        SpanSet::from_raw(raw)
    }

    /// First overlapping byte range with `other`, if any (witness for a
    /// race report).
    pub fn first_overlap(&self, other: &SpanSet) -> Option<(u64, u64)> {
        let (mut i, mut j) = (0, 0);
        while i < self.spans.len() && j < other.spans.len() {
            let (alo, ahi) = self.spans[i];
            let (blo, bhi) = other.spans[j];
            let lo = alo.max(blo);
            let hi = ahi.min(bhi);
            if lo < hi {
                return Some((lo, hi));
            }
            if ahi <= bhi {
                i += 1;
            } else {
                j += 1;
            }
        }
        None
    }

    /// Does this set fully contain `[lo, hi)`? Because spans are merged,
    /// a contained range must sit inside a single span.
    pub fn contains_range(&self, lo: u64, hi: u64) -> bool {
        if lo >= hi {
            return true;
        }
        let idx = self.spans.partition_point(|&(_, shi)| shi <= lo);
        match self.spans.get(idx) {
            Some(&(slo, shi)) => slo <= lo && hi <= shi,
            None => false,
        }
    }

    /// Sorted distinct pages touched.
    pub fn pages(&self, page_size: u64) -> Vec<u32> {
        let mut out: Vec<u32> = Vec::new();
        for &(lo, hi) in &self.spans {
            let first = lo / page_size;
            let last = (hi - 1) / page_size;
            for p in first..=last {
                if out.last() != Some(&(p as u32)) {
                    out.push(p as u32);
                }
            }
        }
        out.dedup();
        out
    }

    /// The set cut at page boundaries: `(page, lo, hi)` with in-page byte
    /// offsets, sorted. Spans are merged maximal by construction, so each
    /// piece is one run of a diff of these bytes — one `(offset, length)`
    /// header on the wire.
    pub fn page_spans(&self, page_size: u64) -> Vec<(u32, u32, u32)> {
        let mut out = Vec::new();
        for &(lo, hi) in &self.spans {
            let mut cur = lo;
            while cur < hi {
                let page = cur / page_size;
                let end = ((page + 1) * page_size).min(hi);
                let base = page * page_size;
                out.push((page as u32, (cur - base) as u32, (end - base) as u32));
                cur = end;
            }
        }
        out
    }
}

/// Lower a row expression to disjoint, sorted half-open row ranges.
pub fn lower_rows(rows: &Rows, args: &RowArgs) -> Vec<(usize, usize)> {
    let n = args.rows;
    let raw = match rows {
        Rows::All => vec![(0, n)],
        Rows::Fixed(lo, hi) => vec![((*lo).min(n), (*hi).min(n))],
        Rows::Band => vec![band(n, args.pid, args.nprocs)],
        Rows::Interior => vec![interior_band(n, args.pid, args.nprocs)],
        Rows::InteriorHalo { before, after } => {
            let (lo, hi) = interior_band(n, args.pid, args.nprocs);
            if lo >= hi {
                vec![]
            } else {
                vec![(lo.saturating_sub(*before), (hi + after).min(n))]
            }
        }
        Rows::BandHaloWrap { before, after } => {
            let (lo, hi) = band(n, args.pid, args.nprocs);
            let len = hi - lo;
            if len == 0 {
                vec![]
            } else if len + before + after >= n {
                vec![(0, n)]
            } else {
                let mut v = vec![(lo, hi)];
                if *before > 0 {
                    // Halo rows {(lo - k) mod n : k = 1..=before}.
                    if lo >= *before {
                        v.push((lo - before, lo));
                    } else {
                        v.push((n + lo - before, n));
                        if lo > 0 {
                            v.push((0, lo));
                        }
                    }
                }
                if *after > 0 {
                    // Halo rows {(hi - 1 + k) mod n : k = 1..=after}.
                    if hi + after <= n {
                        v.push((hi, hi + after));
                    } else {
                        v.push((hi, n));
                        v.push((0, hi + after - n));
                    }
                }
                v
            }
        }
        Rows::Custom(f) => f(args),
    };
    // Normalize exactly like SpanSet: sort, drop empties, merge.
    let mut raw: Vec<(usize, usize)> = raw
        .into_iter()
        .map(|(lo, hi)| (lo.min(n), hi.min(n)))
        .filter(|&(lo, hi)| lo < hi)
        .collect();
    raw.sort_unstable();
    let mut out: Vec<(usize, usize)> = Vec::with_capacity(raw.len());
    for (lo, hi) in raw {
        match out.last_mut() {
            Some(last) if lo <= last.1 => last.1 = last.1.max(hi),
            _ => out.push((lo, hi)),
        }
    }
    out
}

/// Which word set of an access to lower.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Facet {
    /// The loaded words (loads only).
    Loads,
    /// The stored words (stores only).
    Stores,
    /// The modified words (stores only; falls back to the stored words
    /// when the plan declares no tighter `mods`).
    Mods,
}

/// Lower one declared access to byte spans, appended to `raw`.
///
/// Returns without effect when the facet doesn't apply (loads asked for
/// stores and vice versa) or when `who` excludes `args.pid`.
pub fn lower_access_into(
    decl: &AccessDecl,
    lay: &ArrayLayout,
    args: &RowArgs,
    facet: Facet,
    raw: &mut Vec<(u64, u64)>,
) {
    match (decl.kind, facet) {
        (AccessKind::Load, Facet::Loads) | (AccessKind::Store, Facet::Stores | Facet::Mods) => {}
        _ => return,
    }
    if let Who::One(p) = decl.who {
        if p != args.pid {
            return;
        }
    }
    let cols = match facet {
        Facet::Mods => decl.mods.as_ref().unwrap_or(&decl.cols),
        _ => &decl.cols,
    };
    let args = RowArgs {
        rows: lay.rows,
        ..*args
    };
    let stride = lay.stride as u64;
    for (rlo, rhi) in lower_rows(&decl.rows, &args) {
        for r in rlo..rhi {
            let row_base = lay.base + (r as u64) * stride * ESIZE;
            match cols {
                Cols::All => raw.push((row_base, row_base + lay.cols as u64 * ESIZE)),
                Cols::Range(lo, hi) => {
                    let lo = (*lo).min(lay.cols) as u64;
                    let hi = (*hi).min(lay.cols) as u64;
                    if lo < hi {
                        raw.push((row_base + lo * ESIZE, row_base + hi * ESIZE));
                    }
                }
                Cols::ScaledBand { count, scale } => {
                    let (blo, bhi) = band(*count, args.pid, args.nprocs);
                    let lo = (blo * scale).min(lay.cols) as u64;
                    let hi = (bhi * scale).min(lay.cols) as u64;
                    if lo < hi {
                        raw.push((row_base + lo * ESIZE, row_base + hi * ESIZE));
                    }
                }
                Cols::Parity { colour, lo, hi } => {
                    let hi = (*hi).min(lay.cols);
                    let mut c = lo + ((colour + 2 - (r + lo) % 2) % 2);
                    while c < hi {
                        let a = row_base + c as u64 * ESIZE;
                        raw.push((a, a + ESIZE));
                        c += 2;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spanset_normalizes() {
        let s = SpanSet::from_raw(vec![(10, 20), (0, 5), (20, 30), (4, 6), (40, 40)]);
        assert_eq!(s.spans(), &[(0, 6), (10, 30)]);
        assert_eq!(s.bytes(), 26);
    }

    #[test]
    fn spanset_overlap_and_containment() {
        let a = SpanSet::from_raw(vec![(0, 16), (32, 48)]);
        let b = SpanSet::from_raw(vec![(16, 32)]);
        assert_eq!(a.first_overlap(&b), None);
        let c = SpanSet::from_raw(vec![(40, 56)]);
        assert_eq!(a.first_overlap(&c), Some((40, 48)));
        assert!(a.contains_range(4, 12));
        assert!(!a.contains_range(12, 36));
        assert!(a.contains_range(7, 7));
    }

    #[test]
    fn spanset_page_accounting() {
        let s = SpanSet::from_raw(vec![(8, 16), (4090, 4104)]);
        assert_eq!(s.pages(4096), vec![0, 1]);
        // A span straddling a page boundary is cut there, offsets in-page.
        let s = SpanSet::from_raw(vec![(4088, 4112)]);
        assert_eq!(s.page_spans(4096), vec![(0, 4088, 4096), (1, 0, 16)]);
    }

    #[test]
    fn spanset_page_runs() {
        // Two disjoint runs on page 0; the merged span (0,16) is one run.
        let s = SpanSet::from_raw(vec![(0, 8), (8, 16), (32, 40)]);
        assert_eq!(s.page_spans(4096), vec![(0, 0, 16), (0, 32, 40)]);
        // A span straddling a page boundary contributes one run to each
        // side — the diff encoding restarts its run header per page.
        let s = SpanSet::from_raw(vec![(4088, 4112), (4120, 4128)]);
        let pages: Vec<u32> = s.page_spans(4096).iter().map(|p| p.0).collect();
        assert_eq!(pages, vec![0, 1, 1]);
    }

    #[test]
    fn wrap_halo_rows() {
        // 8 rows, 4 procs: pid 0 owns [0,2). Halo 1 both sides wraps to
        // row 7.
        let args = RowArgs {
            rows: 8,
            pid: 0,
            nprocs: 4,
            iter: 0,
        };
        let r = lower_rows(
            &Rows::BandHaloWrap {
                before: 1,
                after: 1,
            },
            &args,
        );
        assert_eq!(r, vec![(0, 3), (7, 8)]);
        // Single proc: band is everything, halos collapse.
        let args1 = RowArgs {
            rows: 8,
            pid: 0,
            nprocs: 1,
            iter: 0,
        };
        let r = lower_rows(
            &Rows::BandHaloWrap {
                before: 1,
                after: 1,
            },
            &args1,
        );
        assert_eq!(r, vec![(0, 8)]);
    }

    #[test]
    fn degenerate_bands_lower_empty() {
        // count < nprocs: trailing processes get empty bands, which must
        // lower to empty range lists (the documented band invariant).
        for pid in 2..6 {
            assert_eq!(band(2, pid, 6), (2, 2));
            let args = RowArgs {
                rows: 2,
                pid,
                nprocs: 6,
                iter: 0,
            };
            assert!(lower_rows(&Rows::Band, &args).is_empty());
            assert!(lower_rows(
                &Rows::BandHaloWrap {
                    before: 1,
                    after: 1
                },
                &args
            )
            .is_empty());
        }
        // interior_band on a 4-row grid with 4 procs: rows-2 = 2 interior
        // rows; pids 2,3 empty.
        for pid in 2..4 {
            let (lo, hi) = interior_band(4, pid, 4);
            assert!(lo >= hi);
        }
    }

    #[test]
    fn parity_cols_alternate() {
        let lay = ArrayLayout {
            name: "g".into(),
            base: 0,
            rows: 4,
            cols: 8,
            stride: 8,
        };
        let decl = AccessDecl::store_mods(
            "g",
            Rows::Fixed(1, 3),
            Cols::Range(0, 8),
            Cols::Parity {
                colour: 0,
                lo: 1,
                hi: 7,
            },
        );
        let args = RowArgs {
            rows: 4,
            pid: 0,
            nprocs: 1,
            iter: 0,
        };
        let mut raw = Vec::new();
        lower_access_into(&decl, &lay, &args, Facet::Mods, &mut raw);
        let s = SpanSet::from_raw(raw);
        // Row 1: (1+c)%2==0 → c in {1,3,5}; row 2: c in {2,4,6}.
        let row1: Vec<(u64, u64)> = vec![(72, 80), (88, 96), (104, 112)];
        let row2: Vec<(u64, u64)> = vec![(144, 152), (160, 168), (176, 184)];
        let want: Vec<(u64, u64)> = row1.into_iter().chain(row2).collect();
        assert_eq!(s.spans(), &want[..]);
        // Stores facet: full declared col range.
        let mut raw = Vec::new();
        lower_access_into(&decl, &lay, &args, Facet::Stores, &mut raw);
        assert_eq!(SpanSet::from_raw(raw).bytes(), 2 * 8 * 8);
    }
}
