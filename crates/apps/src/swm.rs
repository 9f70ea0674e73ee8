//! Swm: the SPEC shallow-water benchmark at fine synchronization
//! granularity, with a per-iteration energy reduction.
//!
//! Same numerics as [`crate::shallow`], but every kernel runs in its own
//! barrier phase (eleven phases per iteration) on a smaller grid — the
//! sync-bound end of the spectrum, which is why the paper's swm shows the
//! lowest speedups and the largest OS overhead fraction.

use dsm_core::{CheckCtx, DsmApp, ExecCtx, PhaseEnd, ReduceOp, SetupCtx};
use dsm_plan::{AccessDecl, AppPlan, Cols, PhasePlan, PlannedApp, Rows};

use dsm_sim::State;

use crate::common::Scale;
use crate::shallow::{
    loop100_plan, loop200_plan, loop300_accesses, swm_array_shapes, SwmCore, SWM_FIELDS,
};

/// Fine-grain shallow water with reductions.
pub struct Swm {
    core: SwmCore,
    iters: usize,
    energy: f64,
    /// Global energy per iteration (for tests / diagnostics).
    pub energy_history: Vec<f64>,
}

// `core` is geometry constants and grid handles; all field data lives in
// shared segment pages, which the snapshot's CORE section captures.
dsm_sim::impl_state!(Swm {
    config: core, iters;
    state: energy, energy_history;
});

impl Swm {
    pub fn new(scale: Scale) -> Swm {
        let (n, iters) = match scale {
            Scale::Small => (64, 5),
            Scale::Paper => (256, 8),
        };
        Swm {
            core: SwmCore::new(n),
            iters,
            energy: 0.0,
            energy_history: Vec::new(),
        }
    }
}

impl DsmApp for Swm {
    fn name(&self) -> &'static str {
        "swm"
    }

    fn phases(&self) -> usize {
        14
    }

    fn iters(&self) -> usize {
        self.iters
    }

    fn setup(&mut self, s: &mut SetupCtx<'_>) {
        self.core.setup(s, "swm");
    }

    fn phase(&mut self, ctx: &mut ExecCtx<'_>, _iter: usize, site: usize) -> PhaseEnd {
        match site {
            0 => self.core.loop100(ctx, true, false, false, false),
            1 => self.core.loop100(ctx, false, true, false, false),
            2 => self.core.loop100(ctx, false, false, true, false),
            3 => self.core.loop100(ctx, false, false, false, true),
            4 => self.core.loop200(ctx, true, false, false),
            5 => self.core.loop200(ctx, false, true, false),
            6 => self.core.loop200(ctx, false, false, true),
            7 => self.core.loop300(ctx, 0, Some(0)),
            8 => self.core.loop300(ctx, 0, Some(1)),
            9 => self.core.loop300(ctx, 1, Some(0)),
            10 => self.core.loop300(ctx, 1, Some(1)),
            11 => self.core.loop300(ctx, 2, Some(0)),
            12 => self.core.loop300(ctx, 2, Some(1)),
            _ => {
                if ctx.pid() == 0 {
                    if let Some(&e) = ctx.reduction().first() {
                        self.energy_history.push(e);
                    }
                }
                self.energy = self.core.band_energy(ctx);
                return PhaseEnd::Reduce(ReduceOp::Sum, vec![self.energy]);
            }
        }
        PhaseEnd::Barrier
    }

    fn check(&self, c: &CheckCtx<'_>) -> f64 {
        self.core.checksum(c)
    }

    fn save_state(&self, w: &mut dsm_sim::SnapWriter) {
        State::encode(self, w);
    }

    fn load_state(&mut self, r: &mut dsm_sim::SnapReader<'_>) -> Result<(), dsm_sim::SnapError> {
        State::decode(self, r)
    }
}

impl PlannedApp for Swm {
    fn plan(&self) -> AppPlan {
        let f = &SWM_FIELDS;
        let mut phases = vec![
            loop100_plan(f, true, false, false, false),
            loop100_plan(f, false, true, false, false),
            loop100_plan(f, false, false, true, false),
            loop100_plan(f, false, false, false, true),
            loop200_plan(f, true, false, false),
            loop200_plan(f, false, true, false),
            loop200_plan(f, false, false, true),
        ];
        for which in 0..3 {
            for part in 0..2 {
                let mut acc = Vec::new();
                loop300_accesses(f, which, Some(part), &mut acc);
                phases.push(PhasePlan::new(acc));
            }
        }
        // Energy diagnostic + sum reduction.
        phases.push(
            PhasePlan::new(vec![
                AccessDecl::load(f.u, Rows::Band, Cols::All),
                AccessDecl::load(f.v, Rows::Band, Cols::All),
                AccessDecl::load(f.p, Rows::Band, Cols::All),
            ])
            .with_reduce(1),
        );
        AppPlan {
            app: "swm",
            exact: true,
            value_exact: false,
            arrays: swm_array_shapes(f, self.core.n),
            phases,
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
            &mut Swm::new(Scale::Small),
            RunConfig::with_nprocs(ProtocolKind::Seq, 1),
        );
        for p in [ProtocolKind::LmwI, ProtocolKind::BarU] {
            let par = run_app(&mut Swm::new(Scale::Small), RunConfig::with_nprocs(p, 4));
            assert_eq!(seq.checksum, par.checksum, "{}", p.label());
        }
    }

    #[test]
    fn energy_stays_bounded() {
        let mut app = Swm::new(Scale::Small);
        let _ = run_app(&mut app, RunConfig::with_nprocs(ProtocolKind::Seq, 1));
        let h = &app.energy_history;
        assert!(h.len() >= 2);
        let first = h[0];
        for &e in h {
            assert!(e.is_finite());
            assert!(
                (e - first).abs() < first.abs() * 0.05,
                "energy drifted: {first} -> {e}"
            );
        }
    }

    #[test]
    fn finer_granularity_means_more_barriers_than_shallow() {
        let swm = run_app(
            &mut Swm::new(Scale::Small),
            RunConfig::with_nprocs(ProtocolKind::BarU, 4),
        );
        let shal = run_app(
            &mut crate::shallow::Shallow::new(Scale::Small),
            RunConfig::with_nprocs(ProtocolKind::BarU, 4),
        );
        assert!(swm.stats.barriers > shal.stats.barriers);
    }
}
