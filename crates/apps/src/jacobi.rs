//! Jacobi: "a stencil kernel combined with a convergence test that checks
//! the residual value using a max reduction".
//!
//! One iteration: sweep A→B, sweep B→A, then a max-reduction over the
//! per-process residuals. On the bar protocols the reduction rides the
//! barrier natively; on the lmw protocols it is emulated through shared
//! memory (extra barriers and diff traffic), as SUIF-generated code would.

use dsm_core::{CheckCtx, DsmApp, ExecCtx, PhaseEnd, ReduceOp, SetupCtx, SharedGrid2};
use dsm_plan::{AccessDecl, AppPlan, ArrayShape, Cols, PhasePlan, PlannedApp, Rows};

use dsm_sim::State;

use crate::common::{interior_band, seeded01, Scale};

/// Jacobi solver with convergence reduction.
pub struct Jacobi {
    rows: usize,
    cols: usize,
    iters: usize,
    a: Option<SharedGrid2<f64>>,
    b: Option<SharedGrid2<f64>>,
    /// Per-process residuals: one app instance simulates every process,
    /// so per-process scratch must be indexed by pid (a single field
    /// would leak the last-simulated process's value into everyone's
    /// reduction contribution).
    residuals: Vec<f64>,
    /// Residual history (one entry per completed iteration), for tests.
    pub residual_history: Vec<f64>,
}

// Dimensions are construction parameters and the grid handles are
// re-derived in `setup`; the grids' data lives in shared segment pages,
// which the snapshot's CORE section captures.
dsm_sim::impl_state!(Jacobi {
    config: rows, cols, iters, a, b;
    state: residuals, residual_history;
});

impl Jacobi {
    pub fn new(scale: Scale) -> Jacobi {
        let (rows, cols, iters) = match scale {
            Scale::Small => (66, 64, 6),
            Scale::Paper => (514, 512, 8),
        };
        Jacobi::with_dims(rows, cols, iters)
    }

    pub fn with_dims(rows: usize, cols: usize, iters: usize) -> Jacobi {
        assert!(rows >= 4 && cols >= 4);
        Jacobi {
            rows,
            cols,
            iters,
            a: None,
            b: None,
            residuals: Vec::new(),
            residual_history: Vec::new(),
        }
    }

    fn sweep(&mut self, ctx: &mut ExecCtx<'_>, from: SharedGrid2<f64>, to: SharedGrid2<f64>) {
        let (lo, hi) = interior_band(self.rows, ctx.pid(), ctx.nprocs());
        self.residuals
            .resize(ctx.nprocs().max(self.residuals.len()), 0.0);
        let cols = self.cols;
        let mut up = vec![0.0; cols];
        let mut mid = vec![0.0; cols];
        let mut down = vec![0.0; cols];
        let mut out = vec![0.0; cols];
        let mut res: f64 = 0.0;
        for r in lo..hi {
            from.read_row_into(ctx, r - 1, &mut up);
            from.read_row_into(ctx, r, &mut mid);
            from.read_row_into(ctx, r + 1, &mut down);
            out[0] = mid[0];
            out[cols - 1] = mid[cols - 1];
            for c in 1..cols - 1 {
                out[c] = 0.25 * (up[c] + down[c] + mid[c - 1] + mid[c + 1]);
                res = res.max((out[c] - mid[c]).abs());
            }
            to.write_row(ctx, r, &out);
            ctx.work_flops(6 * cols as u64);
        }
        self.residuals[ctx.pid()] = res;
    }

    /// The primary grid handle (diagnostics/tests).
    pub fn grid_a(&self) -> dsm_core::SharedGrid2<f64> {
        self.a.expect("setup first")
    }
}

impl DsmApp for Jacobi {
    fn name(&self) -> &'static str {
        "jacobi"
    }

    fn phases(&self) -> usize {
        3
    }

    fn iters(&self) -> usize {
        self.iters
    }

    fn setup(&mut self, s: &mut SetupCtx<'_>) {
        let a = s.alloc_grid::<f64>("jacobi_a", self.rows, self.cols);
        let b = s.alloc_grid::<f64>("jacobi_b", self.rows, self.cols);
        for r in 0..self.rows {
            let row: Vec<f64> = (0..self.cols)
                .map(|c| {
                    if r == 0 || r == self.rows - 1 || c == 0 || c == self.cols - 1 {
                        10.0
                    } else {
                        seeded01(r, c, 2) * 5.0
                    }
                })
                .collect();
            s.init_row(a, r, &row);
            s.init_row(b, r, &row);
        }
        self.a = Some(a);
        self.b = Some(b);
    }

    fn phase(&mut self, ctx: &mut ExecCtx<'_>, _iter: usize, site: usize) -> PhaseEnd {
        let (a, b) = (self.a.unwrap(), self.b.unwrap());
        match site {
            0 => {
                self.sweep(ctx, a, b);
                PhaseEnd::Barrier
            }
            1 => {
                self.sweep(ctx, b, a);
                PhaseEnd::Barrier
            }
            _ => {
                if ctx.pid() == 0 {
                    if let Some(&r) = ctx.reduction().first() {
                        self.residual_history.push(r);
                    }
                }
                PhaseEnd::Reduce(ReduceOp::Max, vec![self.residuals[ctx.pid()]])
            }
        }
    }

    fn check(&self, c: &CheckCtx<'_>) -> f64 {
        c.grid_checksum(self.a.unwrap())
    }

    fn save_state(&self, w: &mut dsm_sim::SnapWriter) {
        State::encode(self, w);
    }

    fn load_state(&mut self, r: &mut dsm_sim::SnapReader<'_>) -> Result<(), dsm_sim::SnapError> {
        State::decode(self, r)
    }
}

impl PlannedApp for Jacobi {
    fn plan(&self) -> AppPlan {
        let cols = self.cols;
        // A sweep reads the source grid's band plus one halo row on each
        // side and rewrites the destination band rows in full; only the
        // interior columns change value (the boundary columns are copied
        // through unchanged, a silent store).
        let sweep = |from: &'static str, to: &'static str| {
            PhasePlan::new(vec![
                AccessDecl::load(
                    from,
                    Rows::InteriorHalo {
                        before: 1,
                        after: 1,
                    },
                    Cols::All,
                ),
                AccessDecl::store_mods(to, Rows::Interior, Cols::All, Cols::Range(1, cols - 1)),
            ])
        };
        AppPlan {
            app: "jacobi",
            exact: true,
            value_exact: true,
            arrays: vec![
                ArrayShape {
                    name: "jacobi_a",
                    rows: self.rows,
                    cols,
                },
                ArrayShape {
                    name: "jacobi_b",
                    rows: self.rows,
                    cols,
                },
            ],
            phases: vec![
                sweep("jacobi_a", "jacobi_b"),
                sweep("jacobi_b", "jacobi_a"),
                PhasePlan::new(vec![]).with_reduce(1),
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
            &mut Jacobi::new(Scale::Small),
            RunConfig::with_nprocs(ProtocolKind::Seq, 1),
        );
        for p in [ProtocolKind::LmwU, ProtocolKind::BarI] {
            let par = run_app(&mut Jacobi::new(Scale::Small), RunConfig::with_nprocs(p, 4));
            assert_eq!(seq.checksum, par.checksum, "{}", p.label());
        }
    }

    #[test]
    fn residual_decreases() {
        let mut app = Jacobi::new(Scale::Small);
        let _ = run_app(&mut app, RunConfig::with_nprocs(ProtocolKind::Seq, 1));
        let h = &app.residual_history;
        assert!(h.len() >= 3, "history: {h:?}");
        assert!(
            h.last().unwrap() < h.first().unwrap(),
            "Jacobi must converge: {h:?}"
        );
    }

    #[test]
    fn lmw_reductions_generate_shared_memory_traffic() {
        // The emulated reduction writes per-process slots on one page:
        // multi-writer diffs plus extra barriers.
        let li = run_app(
            &mut Jacobi::new(Scale::Small),
            RunConfig::with_nprocs(ProtocolKind::LmwI, 4),
        );
        let bi = run_app(
            &mut Jacobi::new(Scale::Small),
            RunConfig::with_nprocs(ProtocolKind::BarI, 4),
        );
        assert!(
            li.stats.barriers > bi.stats.barriers,
            "lmw reduction emulation adds barriers: {} vs {}",
            li.stats.barriers,
            bi.stats.barriers
        );
    }
}
