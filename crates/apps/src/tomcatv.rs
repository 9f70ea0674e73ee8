//! Tomcatv: the SPEC mesh-generation benchmark, "in which the arrays have
//! been transposed to improve data locality" (the APR version).
//!
//! One iteration: compute the x-residuals and line-solve coefficients,
//! compute the y-residuals, find the maximum residual by reduction, then
//! solve a tridiagonal system along every owned mesh line and correct the
//! mesh. With the transposed layout the line solves are row-local, so only
//! the residual stencils communicate (band boundaries).

use dsm_core::{CheckCtx, DsmApp, ExecCtx, PhaseEnd, ReduceOp, SetupCtx, SharedGrid2};
use dsm_plan::{AccessDecl, AppPlan, ArrayShape, Cols, PhasePlan, PlannedApp, Rows};

use dsm_sim::State;

use crate::common::{interior_band, Scale};

/// SLOR mesh generation.
pub struct Tomcatv {
    n: usize,
    iters: usize,
    rel: f64,
    x: Option<SharedGrid2<f64>>,
    y: Option<SharedGrid2<f64>>,
    rx: Option<SharedGrid2<f64>>,
    ry: Option<SharedGrid2<f64>>,
    aa: Option<SharedGrid2<f64>>,
    dd: Option<SharedGrid2<f64>>,
    /// Per-process band residuals: one app instance simulates every
    /// process, so per-process scratch is indexed by pid (a single field
    /// would leak the last-simulated process's value into everyone's
    /// reduction contribution).
    band_residuals: Vec<f64>,
    /// Max-residual history per iteration (tests check convergence).
    pub residual_history: Vec<f64>,
}

// Size, iteration count and relaxation factor are construction
// parameters and the grid handles are re-derived in `setup`; the grids'
// data lives in shared segment pages, which the snapshot's CORE section
// captures.
dsm_sim::impl_state!(Tomcatv {
    config: n, iters, rel, x, y, rx, ry, aa, dd;
    state: band_residuals, residual_history;
});

impl Tomcatv {
    pub fn new(scale: Scale) -> Tomcatv {
        let (n, iters) = match scale {
            Scale::Small => (64, 6),
            Scale::Paper => (256, 8),
        };
        Tomcatv {
            n,
            iters,
            rel: 0.9,
            x: None,
            y: None,
            rx: None,
            ry: None,
            aa: None,
            dd: None,
            band_residuals: Vec::new(),
            residual_history: Vec::new(),
        }
    }

    /// Compute residuals (and, on the x pass, the tridiagonal
    /// coefficients) for the owned interior rows.
    fn residuals(&mut self, ctx: &mut ExecCtx<'_>, x_pass: bool) {
        let (x, y) = (self.x.unwrap(), self.y.unwrap());
        let n = self.n;
        let (lo, hi) = interior_band(n, ctx.pid(), ctx.nprocs());
        let mut xm = vec![0.0; n];
        let mut x0 = vec![0.0; n];
        let mut xp = vec![0.0; n];
        let mut ym = vec![0.0; n];
        let mut y0 = vec![0.0; n];
        let mut yp = vec![0.0; n];
        let mut out_r = vec![0.0; n];
        let mut out_aa = vec![0.0; n];
        let mut out_dd = vec![1.0; n];
        let mut res: f64 = 0.0;
        for j in lo..hi {
            x.read_row_into(ctx, j - 1, &mut xm);
            x.read_row_into(ctx, j, &mut x0);
            x.read_row_into(ctx, j + 1, &mut xp);
            y.read_row_into(ctx, j - 1, &mut ym);
            y.read_row_into(ctx, j, &mut y0);
            y.read_row_into(ctx, j + 1, &mut yp);
            out_r[0] = 0.0;
            out_r[n - 1] = 0.0;
            for i in 1..n - 1 {
                let xx = x0[i + 1] - x0[i - 1];
                let yx = y0[i + 1] - y0[i - 1];
                let xy = xp[i] - xm[i];
                let yy = yp[i] - ym[i];
                let a = 0.25 * (xy * xy + yy * yy);
                let b = 0.25 * (xx * xx + yx * yx);
                let c = 0.125 * (xx * xy + yx * yy);
                if x_pass {
                    // Line solves run along i (the transposed layout), so
                    // the tridiagonal uses the i-direction coefficient.
                    out_aa[i] = -a;
                    out_dd[i] = a + a + b * self.rel;
                    let pxx = x0[i + 1] - 2.0 * x0[i] + x0[i - 1];
                    let pyy = xp[i] - 2.0 * x0[i] + xm[i];
                    let pxy = xp[i + 1] - xp[i - 1] - xm[i + 1] + xm[i - 1];
                    out_r[i] = a * pxx + b * pyy - c * pxy;
                } else {
                    let qxx = y0[i + 1] - 2.0 * y0[i] + y0[i - 1];
                    let qyy = yp[i] - 2.0 * y0[i] + ym[i];
                    let qxy = yp[i + 1] - yp[i - 1] - ym[i + 1] + ym[i - 1];
                    out_r[i] = a * qxx + b * qyy - c * qxy;
                }
                res = res.max(out_r[i].abs());
            }
            if x_pass {
                self.rx.unwrap().write_row(ctx, j, &out_r);
                self.aa.unwrap().write_row(ctx, j, &out_aa);
                self.dd.unwrap().write_row(ctx, j, &out_dd);
                ctx.work_flops(35 * n as u64);
            } else {
                self.ry.unwrap().write_row(ctx, j, &out_r);
                ctx.work_flops(25 * n as u64);
            }
        }
        self.band_residuals
            .resize(ctx.nprocs().max(self.band_residuals.len()), 0.0);
        let slot = &mut self.band_residuals[ctx.pid()];
        *slot = if x_pass { res } else { slot.max(res) };
    }

    /// Thomas solve along each owned line, then correct the mesh. Entirely
    /// row-local thanks to the transposed layout.
    fn solve_and_update(&self, ctx: &mut ExecCtx<'_>) {
        let n = self.n;
        let (lo, hi) = interior_band(n, ctx.pid(), ctx.nprocs());
        let (x, y) = (self.x.unwrap(), self.y.unwrap());
        let (rx, ry) = (self.rx.unwrap(), self.ry.unwrap());
        let (aa, dd) = (self.aa.unwrap(), self.dd.unwrap());
        let mut raa = vec![0.0; n];
        let mut rdd = vec![0.0; n];
        let mut rrx = vec![0.0; n];
        let mut rry = vec![0.0; n];
        let mut rxr = vec![0.0; n];
        let mut ryr = vec![0.0; n];
        let mut cp = vec![0.0; n];
        for j in lo..hi {
            aa.read_row_into(ctx, j, &mut raa);
            dd.read_row_into(ctx, j, &mut rdd);
            rx.read_row_into(ctx, j, &mut rrx);
            ry.read_row_into(ctx, j, &mut rry);
            // Thomas algorithm over the interior [1, n-1) with symmetric
            // off-diagonals `aa` and diagonal `dd`.
            let thomas = |rhs: &[f64], out: &mut [f64], cp: &mut [f64]| {
                let m = n - 1;
                cp[1] = raa[1] / rdd[1];
                out[1] = rhs[1] / rdd[1];
                for i in 2..m {
                    let denom = rdd[i] - raa[i] * cp[i - 1];
                    cp[i] = raa[i] / denom;
                    out[i] = (rhs[i] - raa[i] * out[i - 1]) / denom;
                }
                for i in (1..m - 1).rev() {
                    let next = out[i + 1];
                    out[i] -= cp[i] * next;
                }
                out[0] = 0.0;
                out[m] = 0.0;
            };
            thomas(&rrx, &mut rxr, &mut cp);
            thomas(&rry, &mut ryr, &mut cp);
            // Correct the mesh.
            x.read_row_into(ctx, j, &mut rrx);
            y.read_row_into(ctx, j, &mut rry);
            for i in 1..n - 1 {
                rrx[i] += 0.5 * self.rel * rxr[i];
                rry[i] += 0.5 * self.rel * ryr[i];
            }
            x.write_row(ctx, j, &rrx);
            y.write_row(ctx, j, &rry);
            ctx.work_flops(16 * n as u64);
        }
    }
}

impl DsmApp for Tomcatv {
    fn name(&self) -> &'static str {
        "tomcat"
    }

    fn phases(&self) -> usize {
        4
    }

    fn iters(&self) -> usize {
        self.iters
    }

    fn setup(&mut self, s: &mut SetupCtx<'_>) {
        let n = self.n;
        let x = s.alloc_grid::<f64>("tc_x", n, n);
        let y = s.alloc_grid::<f64>("tc_y", n, n);
        self.rx = Some(s.alloc_grid::<f64>("tc_rx", n, n));
        self.ry = Some(s.alloc_grid::<f64>("tc_ry", n, n));
        self.aa = Some(s.alloc_grid::<f64>("tc_aa", n, n));
        self.dd = Some(s.alloc_grid::<f64>("tc_dd", n, n));
        // A distorted mesh over the unit square: straight verticals,
        // curved horizontals (tomcatv's airfoil-style initial guess).
        for j in 0..n {
            let mut rx = vec![0.0; n];
            let mut ry = vec![0.0; n];
            for i in 0..n {
                let s_ = i as f64 / (n - 1) as f64;
                let t = j as f64 / (n - 1) as f64;
                rx[i] = s_;
                ry[i] = t * (1.0 + 0.35 * (core::f64::consts::PI * s_).sin() * (1.0 - t));
            }
            s.init_row(x, j, &rx);
            s.init_row(y, j, &ry);
        }
        self.x = Some(x);
        self.y = Some(y);
    }

    fn phase(&mut self, ctx: &mut ExecCtx<'_>, _iter: usize, site: usize) -> PhaseEnd {
        match site {
            0 => self.residuals(ctx, true),
            1 => self.residuals(ctx, false),
            2 => {
                if ctx.pid() == 0 {
                    if let Some(&r) = ctx.reduction().first() {
                        self.residual_history.push(r);
                    }
                }
                return PhaseEnd::Reduce(ReduceOp::Max, vec![self.band_residuals[ctx.pid()]]);
            }
            _ => self.solve_and_update(ctx),
        }
        PhaseEnd::Barrier
    }

    fn check(&self, c: &CheckCtx<'_>) -> f64 {
        c.grid_checksum(self.x.unwrap()) + 2.0 * c.grid_checksum(self.y.unwrap())
    }

    fn save_state(&self, w: &mut dsm_sim::SnapWriter) {
        State::encode(self, w);
    }

    fn load_state(&mut self, r: &mut dsm_sim::SnapReader<'_>) -> Result<(), dsm_sim::SnapError> {
        State::decode(self, r)
    }
}

impl PlannedApp for Tomcatv {
    fn plan(&self) -> AppPlan {
        let n = self.n;
        let halo = Rows::InteriorHalo {
            before: 1,
            after: 1,
        };
        let interior = Cols::Range(1, n - 1);
        let shape = |name: &'static str| ArrayShape {
            name,
            rows: n,
            cols: n,
        };
        AppPlan {
            app: "tomcat",
            exact: true,
            value_exact: false,
            arrays: vec![
                shape("tc_x"),
                shape("tc_y"),
                shape("tc_rx"),
                shape("tc_ry"),
                shape("tc_aa"),
                shape("tc_dd"),
            ],
            phases: vec![
                // x-residuals + tridiagonal coefficients. Both meshes feed
                // the metric terms, so both are read on either pass. The
                // written rows only change in the interior columns (out_r's
                // boundary zeros and out_aa's are silent re-stores).
                PhasePlan::new(vec![
                    AccessDecl::load("tc_x", halo.clone(), Cols::All),
                    AccessDecl::load("tc_y", halo.clone(), Cols::All),
                    AccessDecl::store_mods("tc_rx", Rows::Interior, Cols::All, interior),
                    AccessDecl::store_mods("tc_aa", Rows::Interior, Cols::All, interior),
                    AccessDecl::store_mods("tc_dd", Rows::Interior, Cols::All, interior),
                ]),
                // y-residuals.
                PhasePlan::new(vec![
                    AccessDecl::load("tc_x", halo.clone(), Cols::All),
                    AccessDecl::load("tc_y", halo, Cols::All),
                    AccessDecl::store_mods("tc_ry", Rows::Interior, Cols::All, interior),
                ]),
                // Max-residual reduction.
                PhasePlan::new(vec![]).with_reduce(1),
                // Row-local Thomas solves + mesh correction. The initial
                // mesh has straight verticals — x is linear in i and
                // constant in j — so the x-residual is zero up to rounding
                // (~1 ulp of the metric terms) and the correction
                // `x += 0.5 * rel * rxr` rounds to no change: every tc_x
                // store is silent for the entire run, and its modified set
                // is empty. Only the curved y-mesh actually relaxes.
                PhasePlan::new(vec![
                    AccessDecl::load("tc_aa", Rows::Interior, Cols::All),
                    AccessDecl::load("tc_dd", Rows::Interior, Cols::All),
                    AccessDecl::load("tc_rx", Rows::Interior, Cols::All),
                    AccessDecl::load("tc_ry", Rows::Interior, Cols::All),
                    AccessDecl::load("tc_x", Rows::Interior, Cols::All),
                    AccessDecl::load("tc_y", Rows::Interior, Cols::All),
                    AccessDecl::store_mods("tc_x", Rows::Interior, Cols::All, Cols::Range(0, 0)),
                    AccessDecl::store_mods("tc_y", Rows::Interior, Cols::All, interior),
                ]),
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_core::{run_app, ProtocolKind, RunConfig};

    #[test]
    fn parallel_matches_sequential() {
        let seq = run_app(
            &mut Tomcatv::new(Scale::Small),
            RunConfig::with_nprocs(ProtocolKind::Seq, 1),
        );
        for p in [ProtocolKind::LmwU, ProtocolKind::BarI] {
            let par = run_app(
                &mut Tomcatv::new(Scale::Small),
                RunConfig::with_nprocs(p, 4),
            );
            assert_eq!(seq.checksum, par.checksum, "{}", p.label());
        }
    }

    #[test]
    fn residual_shrinks_as_mesh_relaxes() {
        let mut app = Tomcatv::new(Scale::Small);
        let _ = run_app(&mut app, RunConfig::with_nprocs(ProtocolKind::Seq, 1));
        let h = &app.residual_history;
        assert!(h.len() >= 3, "history: {h:?}");
        assert!(h.iter().all(|r| r.is_finite()));
        assert!(
            h.last().unwrap() < h.first().unwrap(),
            "tomcatv must relax: {h:?}"
        );
    }

    #[test]
    fn overdrive_handles_tomcatv() {
        // Stable write sets: overdrive engages and eliminates traps.
        let r = run_app(
            &mut Tomcatv::new(Scale::Small),
            RunConfig::with_nprocs(ProtocolKind::BarM, 4),
        );
        assert_eq!(r.stats.segvs, 0);
        assert_eq!(r.stats.mprotects, 0);
    }
}
