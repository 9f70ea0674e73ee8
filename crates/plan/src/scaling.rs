//! dsm-scale: symbolic scaling analysis over the node count.
//!
//! The predictor ([`crate::protosim`]) yields exact traffic for one
//! concrete `nprocs`. This module lifts those predictions to a
//! *symbolic* node count `N`: it probes the lowering at every `N` in a
//! contiguous fit domain, segments each metric's value series into maximal
//! windows that an integer polynomial of bounded degree reproduces
//! *exactly*, and packages the result as a piecewise closed form
//! ([`Formula`]) plus a sparsity certificate ([`Sparsity`]).
//!
//! Why piecewise polynomials are the right shape: the owner-computes
//! decomposition assigns rows by ceil division ([`crate::lower::band`]),
//! so the page-sharing geometry is a function of `per = ceil(rows/N)`
//! alone. `per` is constant on O(√rows) intervals of `N`, and within each
//! interval every traffic count is a polynomial in `N` of low degree (the
//! only `N`-dependence left is fan-out factors like the `N-1` notice
//! recipients). Past `N = rows` every band holds at most one row, the
//! geometry freezes, and one final piece extends to unbounded `N` — that
//! tail piece is what lets a formula fitted below `N = 100` predict a
//! 256-node run.
//!
//! Nothing here is trusted from theory alone: every piece is re-evaluated
//! against every probe in its window (exhaustive equality over the fit
//! domain), and the open tail is only kept when extrapolated spot probes
//! beyond the domain match exactly. Dynamic grounding — formulas vs real
//! run counters under the full checker — lives in the `scale` bench bin
//! and the crate's scaling tests.

use core::fmt::Write as _;
use core::ops::RangeInclusive;

use dsm_core::ProtocolKind;
use dsm_sim::transport::TransportKind;

use crate::layout::probe_layout;
use crate::protosim::{predict, SteadyCopysets};
use crate::schedule::build_schedule;
use crate::spec::PlannedApp;

/// Metric names, in [`ScaleSample::metrics`] order.
pub const METRICS: [&str; 5] = [
    "update_msgs",
    "update_bytes",
    "notices",
    "copyset_members",
    "table_bytes",
];

/// Highest polynomial degree a single piece may use. The decomposition
/// argument above bounds the true degree by 2 (count × fan-out); 4 leaves
/// headroom without letting the fitter disguise noise as a high-degree fit.
const MAX_DEG: usize = 4;

/// One probe of the symbolic lowering at a concrete node count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScaleSample {
    /// Metric values in [`METRICS`] order:
    ///
    /// * `update_msgs` — update-push messages (one per flush triple per
    ///   copyset recipient, home excluded for the bar family) —
    ///   dynamically `net.msgs_of(UpdateFlush)`;
    /// * `update_bytes` — wire bytes of those pushes under the diff
    ///   encoding: an 8-byte page header per message, an 8-byte header
    ///   per run, and the payload words, i.e.
    ///   `8·(flush_msgs + flush_runs + flush_words)` — dynamically
    ///   `net.bytes_of(UpdateFlush)`;
    /// * `notices` — write-notice control records: version bumps for the
    ///   bar family, notices filed at consumers (`× (N-1)`) for the lmw
    ///   family — dynamically `version_bumps` / `notices_recorded`;
    /// * `copyset_members` — total members across the steady-state
    ///   copyset table (directory occupancy);
    /// * `table_bytes` — resident bytes of that table held sparsely: one
    ///   8-byte key slot and one 8-byte inline word per entry, plus
    ///   spillover heap bytes for members past pid 63.
    pub metrics: [u64; 5],
    /// Largest steady-state copyset (max sharers of any page).
    pub max_sharers: u64,
    /// Largest steady-state copyset on app data pages — pages of the
    /// reduction scratch arrays excluded. Reduction broadcast pages are
    /// dense by design (everyone reads the result), so the claim worth
    /// certifying — nearest-neighbour sharing stays at `k` sharers no
    /// matter the node count — is about the data pages.
    pub data_sharers: u64,
}

/// Probe one `(app, protocol)` cell at a concrete `nprocs`.
///
/// Panics where [`predict`] does: inexact plans, `bar-r`.
pub fn measure<A: PlannedApp + ?Sized>(
    app: &mut A,
    proto: ProtocolKind,
    nprocs: usize,
) -> ScaleSample {
    let plan = app.plan();
    let lay = probe_layout(app, &plan, nprocs);
    let sched = build_schedule(&plan, proto, app.iters());
    let p = predict(&plan, &lay, &sched, proto, TransportKind::TwoSided);
    // Pages belonging to the reduction scratch arrays, for the data-page
    // sharing bound.
    let mut reduce_pages: Vec<(u32, u32)> = Vec::new();
    for a in &lay.arrays {
        if (a.name == crate::layout::REDUCE_SLOTS || a.name == crate::layout::REDUCE_RESULT)
            && a.bytes() > 0
        {
            let lo = (a.base / lay.page_size) as u32;
            let hi = ((a.base + a.bytes() - 1) / lay.page_size) as u32;
            reduce_pages.push((lo, hi));
        }
    }
    let is_reduce = |pg: u32| reduce_pages.iter().any(|&(lo, hi)| pg >= lo && pg <= hi);
    let mut members = 0u64;
    let mut table = 0u64;
    let mut max_sharers = 0u64;
    let mut data_sharers = 0u64;
    {
        let mut tally = |pg: u32, cs: &dsm_core::proto::CopySet| {
            let len = cs.len() as u64;
            members += len;
            table += 16 + cs.heap_bytes() as u64;
            max_sharers = max_sharers.max(len);
            if !is_reduce(pg) {
                data_sharers = data_sharers.max(len);
            }
        };
        match &p.copysets {
            SteadyCopysets::None => {}
            SteadyCopysets::PerPage(v) => v.iter().for_each(|(pg, cs)| tally(*pg, cs)),
            SteadyCopysets::PerWriter(v) => v.iter().for_each(|(pg, _, cs)| tally(*pg, cs)),
        }
    }
    ScaleSample {
        metrics: [
            p.flush_msgs,
            8 * (p.flush_msgs + p.flush_runs + p.flush_words),
            p.notices,
            members,
            table,
        ],
        max_sharers,
        data_sharers,
    }
}

/// One polynomial piece: `p(N) = Σ_j coeffs[j] · C(N - lo, j)` on
/// `lo ..= hi` (or `lo ..` when `hi` is `None` — the certified open tail).
///
/// The binomial basis makes the integer fit exact: the coefficients are
/// the forward finite differences of the probed values at `N = lo`, so no
/// rational arithmetic ever appears.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Piece {
    pub lo: u64,
    pub hi: Option<u64>,
    pub coeffs: Vec<i128>,
}

impl Piece {
    /// Evaluate at `n` (caller guarantees `n >= lo`).
    pub fn eval(&self, n: u64) -> i128 {
        let x = (n - self.lo) as i128;
        let mut acc = 0i128;
        let mut binom = 1i128; // C(x, j), updated incrementally
        for (j, &c) in self.coeffs.iter().enumerate() {
            if j > 0 {
                // C(x, j) = C(x, j-1) · (x - j + 1) / j — exact for
                // integer x ≥ 0, and collapses to 0 once j exceeds x.
                binom = binom * (x - (j as i128 - 1)) / j as i128;
            }
            acc += c * binom;
        }
        acc
    }

    /// Degree of the polynomial (index of the last non-zero coefficient).
    pub fn degree(&self) -> usize {
        self.coeffs.iter().rposition(|&c| c != 0).unwrap_or(0)
    }

    fn render(&self, out: &mut String) {
        match self.hi {
            Some(hi) if hi == self.lo => {
                let _ = write!(out, "N={}:", self.lo);
            }
            Some(hi) => {
                let _ = write!(out, "N={}..{hi}:", self.lo);
            }
            None => {
                let _ = write!(out, "N>={}:", self.lo);
            }
        }
        let mut any = false;
        for (j, &c) in self.coeffs.iter().enumerate() {
            if c == 0 && !(j == 0 && self.degree() == 0) {
                continue;
            }
            if any {
                let _ = write!(out, "{}", if c < 0 { "-" } else { "+" });
            } else if c < 0 {
                out.push('-');
            }
            let mag = c.unsigned_abs();
            if j == 0 {
                let _ = write!(out, "{mag}");
            } else {
                let _ = write!(out, "{mag}*C(N-{},{j})", self.lo);
            }
            any = true;
        }
    }
}

/// A certified piecewise polynomial in the node count.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Formula {
    /// Contiguous, ascending pieces; only the last may be open (`hi: None`).
    pub pieces: Vec<Piece>,
}

impl Formula {
    /// Evaluate at `n`; `None` outside every piece's range.
    pub fn eval(&self, n: u64) -> Option<u64> {
        let piece = self
            .pieces
            .iter()
            .find(|p| n >= p.lo && p.hi.is_none_or(|hi| n <= hi))?;
        u64::try_from(piece.eval(n)).ok()
    }

    /// Highest degree across pieces.
    pub fn degree(&self) -> usize {
        self.pieces.iter().map(Piece::degree).max().unwrap_or(0)
    }

    /// True when the final piece extends to unbounded `N`.
    pub fn has_open_tail(&self) -> bool {
        self.pieces.last().is_some_and(|p| p.hi.is_none())
    }

    /// `Some(k)` when the formula settles to the constant `k` for all
    /// large `N` (open tail of degree 0) — the shape a certified
    /// `N`-independent bound takes.
    pub fn constant_tail(&self) -> Option<u64> {
        let last = self.pieces.last()?;
        (last.hi.is_none() && last.degree() == 0)
            .then(|| u64::try_from(last.coeffs[0]).ok())
            .flatten()
    }

    /// Deterministic one-line rendering, e.g.
    /// `N=2..4:6+2*C(N-2,1); N>=5:14`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (i, p) in self.pieces.iter().enumerate() {
            if i > 0 {
                out.push_str("; ");
            }
            p.render(&mut out);
        }
        out
    }
}

/// Forward-difference fit of `window` by a polynomial of degree ≤
/// [`MAX_DEG`], or `None` when no such polynomial reproduces every value.
fn binomial_fit(window: &[i128]) -> Option<Vec<i128>> {
    let mut row = window.to_vec();
    let mut coeffs = vec![row[0]];
    for _ in 0..MAX_DEG {
        if row.len() <= 1 || row.iter().all(|&x| x == 0) {
            break;
        }
        for i in 0..row.len() - 1 {
            row[i] = row[i + 1] - row[i];
        }
        row.pop();
        coeffs.push(row[0]);
    }
    if row.len() > 1 && row.iter().any(|&x| x != row[0]) {
        return None; // degree-MAX_DEG differences not constant: no fit
    }
    while coeffs.len() > 1 && *coeffs.last().unwrap() == 0 {
        coeffs.pop();
    }
    Some(coeffs)
}

/// Segment a contiguous value series (starting at `N = lo`) into maximal
/// exactly-fitting pieces. Every returned piece is re-verified against
/// every probe in its window — the certificate is exhaustive, not trusted
/// from the difference algebra.
fn fit_series(lo: u64, vals: &[u64]) -> Formula {
    let v: Vec<i128> = vals.iter().map(|&x| x as i128).collect();
    let mut pieces = Vec::new();
    let mut i = 0usize;
    while i < v.len() {
        let mut j = i;
        let mut coeffs = vec![v[i]];
        while j + 1 < v.len() {
            match binomial_fit(&v[i..=j + 1]) {
                Some(c) => {
                    coeffs = c;
                    j += 1;
                }
                None => break,
            }
        }
        let piece = Piece {
            lo: lo + i as u64,
            hi: Some(lo + j as u64),
            coeffs,
        };
        for (k, &expect) in v[i..=j].iter().enumerate() {
            let n = piece.lo + k as u64;
            assert_eq!(
                piece.eval(n),
                expect,
                "piece {} self-check failed at N={n}",
                {
                    let mut s = String::new();
                    piece.render(&mut s);
                    s
                }
            );
        }
        pieces.push(piece);
        i = j + 1;
    }
    Formula { pieces }
}

/// The sparsity certificate: the largest steady-state copyset, as a
/// certified formula in `N`, fitted and spot-verified exactly like the
/// traffic metrics.
///
/// `data_sharers.constant_tail() == Some(k)` is the headline claim —
/// "max sharers per data page is `k`, independent of the node count" —
/// and `k ≤ 64` is what certifies the hybrid copyset's inline word (no
/// spillover) on every data page for that app × protocol. `max_sharers`
/// includes the reduction scratch pages, whose broadcast copyset grows
/// with `N` by design (that growth is exactly what the sorted spillover
/// absorbs).
#[derive(Clone, Debug)]
pub struct Sparsity {
    pub max_sharers: Formula,
    pub data_sharers: Formula,
}

/// The full certified scaling law for one `(app, protocol)` cell.
#[derive(Clone, Debug)]
pub struct ScaleLaw {
    /// One formula per [`METRICS`] entry.
    pub formulas: [Formula; 5],
    pub sparsity: Sparsity,
    /// Contiguous fit domain (every `N` in it was probed and matches).
    pub fit_lo: u64,
    pub fit_hi: u64,
    /// Spot probes beyond the domain that the open tails reproduced.
    pub spots: Vec<u64>,
}

impl ScaleLaw {
    /// Evaluate every metric at `n`; `None` when `n` precedes the domain
    /// or some formula's tail stayed bounded (spot check failed).
    pub fn eval(&self, n: u64) -> Option<[u64; 5]> {
        let mut out = [0u64; 5];
        for (slot, f) in out.iter_mut().zip(&self.formulas) {
            *slot = f.eval(n)?;
        }
        Some(out)
    }
}

/// Derive the scaling law for one cell by probing `probe` at every `N` in
/// `fit` plus each spot in `spots`.
///
/// Each metric's series is segmented into exactly-fitting polynomial
/// pieces; the final piece is opened to unbounded `N` only when it spans
/// enough probes to pin its degree (`MAX_DEG + 2`) *and* reproduces every
/// spot value. Otherwise the tail stays bounded at `fit_hi` and
/// [`ScaleLaw::eval`] refuses to extrapolate — a formula never claims
/// more than what was verified.
pub fn derive_law(
    mut probe: impl FnMut(u64) -> ScaleSample,
    fit: RangeInclusive<u64>,
    spots: &[u64],
) -> ScaleLaw {
    let (lo, hi) = (*fit.start(), *fit.end());
    assert!(lo >= 2 && hi > lo, "fit domain must start at N>=2");
    let samples: Vec<ScaleSample> = (lo..=hi).map(&mut probe).collect();
    let spot_samples: Vec<(u64, ScaleSample)> = spots
        .iter()
        .map(|&n| {
            assert!(n > hi, "spot probes must lie beyond the fit domain");
            (n, probe(n))
        })
        .collect();

    // Fit one value series and open its tail only when the last piece
    // spans enough probes to pin its degree and every spot extrapolates
    // exactly.
    let fit_one = |extract: &dyn Fn(&ScaleSample) -> u64| {
        let series: Vec<u64> = samples.iter().map(extract).collect();
        let mut f = fit_series(lo, &series);
        let last = f.pieces.last_mut().expect("non-empty domain");
        let long_enough = (last.hi.unwrap() - last.lo) as usize + 1 >= MAX_DEG + 2;
        let spots_match = spot_samples
            .iter()
            .all(|&(n, ref s)| u64::try_from(last.eval(n)) == Ok(extract(s)));
        if long_enough && spots_match {
            last.hi = None;
        }
        f
    };

    let formulas: Vec<Formula> = (0..METRICS.len())
        .map(|m| fit_one(&move |s: &ScaleSample| s.metrics[m]))
        .collect();
    let sparsity = Sparsity {
        max_sharers: fit_one(&|s: &ScaleSample| s.max_sharers),
        data_sharers: fit_one(&|s: &ScaleSample| s.data_sharers),
    };

    ScaleLaw {
        formulas: formulas.try_into().expect("five metrics"),
        sparsity,
        fit_lo: lo,
        fit_hi: hi,
        spots: spots.to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(metrics: [u64; 5], max_sharers: u64) -> ScaleSample {
        ScaleSample {
            metrics,
            max_sharers,
            data_sharers: max_sharers,
        }
    }

    #[test]
    fn constant_series_is_one_piece() {
        let f = fit_series(2, &[7; 20]);
        assert_eq!(f.pieces.len(), 1);
        assert_eq!(f.degree(), 0);
        assert_eq!(f.eval(11), Some(7));
        assert_eq!(f.render(), "N=2..21:7");
    }

    #[test]
    fn polynomial_series_recovers_exactly() {
        // p(N) = N² + 3N + 1 over N = 2..=40.
        let vals: Vec<u64> = (2u64..=40).map(|n| n * n + 3 * n + 1).collect();
        let f = fit_series(2, &vals);
        assert_eq!(f.pieces.len(), 1);
        assert_eq!(f.degree(), 2);
        for n in 2..=40 {
            assert_eq!(f.eval(n), Some(n * n + 3 * n + 1));
        }
    }

    #[test]
    fn breakpoint_splits_pieces() {
        // Linear, then a jump to a different constant.
        let mut vals: Vec<u64> = (0..10).map(|i| 5 + 3 * i).collect();
        vals.extend([100; 10]);
        let f = fit_series(2, &vals);
        assert!(f.pieces.len() >= 2, "{}", f.render());
        assert_eq!(f.eval(2), Some(5));
        assert_eq!(f.eval(11), Some(32));
        assert_eq!(f.eval(12), Some(100));
        assert_eq!(f.eval(21), Some(100));
        assert_eq!(f.eval(22), None, "no extrapolation past a bounded tail");
    }

    #[test]
    fn eval_outside_domain_is_none() {
        let f = fit_series(4, &[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(f.eval(3), None);
        assert_eq!(f.eval(12), None);
        assert!(!f.has_open_tail());
    }

    #[test]
    fn derive_law_opens_tail_when_spots_match() {
        // notices = 4(N-1); everything else constant; max sharers 3.
        let probe = |n: u64| sample([6, 128, 4 * (n - 1), 9, 48], 3);
        let law = derive_law(probe, 2..=20, &[64, 256]);
        assert!(law.formulas.iter().all(Formula::has_open_tail));
        assert_eq!(law.eval(256), Some([6, 128, 4 * 255, 9, 48]));
        assert_eq!(law.sparsity.max_sharers.constant_tail(), Some(3));
        assert_eq!(law.sparsity.data_sharers.constant_tail(), Some(3));
    }

    #[test]
    fn derive_law_keeps_tail_bounded_on_spot_mismatch() {
        // The tail piece extrapolates linearly but the far probe breaks
        // the pattern: the law must refuse to extrapolate.
        let probe = |n: u64| {
            let notices = if n > 20 { 1000 } else { 4 * (n - 1) };
            sample([6, 128, notices, 9, 48], 3)
        };
        let law = derive_law(probe, 2..=20, &[64]);
        assert!(!law.formulas[2].has_open_tail());
        assert_eq!(law.eval(64), None);
        assert_eq!(law.eval(20), Some([6, 128, 76, 9, 48]));
    }

    #[test]
    fn growing_sharers_yield_a_non_constant_certificate() {
        // Broadcast-style sharing: max sharers is N-1 while the data
        // pages stay at 2 — the certificate must expose both shapes.
        let probe = |n: u64| ScaleSample {
            metrics: [0; 5],
            max_sharers: n - 1,
            data_sharers: 2,
        };
        let law = derive_law(probe, 2..=20, &[64]);
        assert_eq!(law.sparsity.max_sharers.constant_tail(), None);
        assert_eq!(law.sparsity.max_sharers.eval(64), Some(63));
        assert_eq!(law.sparsity.data_sharers.constant_tail(), Some(2));
    }

    #[test]
    fn render_signs_and_terms() {
        let p = Piece {
            lo: 5,
            hi: None,
            coeffs: vec![-2, 0, 3],
        };
        let mut s = String::new();
        p.render(&mut s);
        assert_eq!(s, "N>=5:-2+3*C(N-5,2)");
    }
}
