//! The pinned run behind `tests/data/golden.snap`, shared by the format
//! gate (`golden.rs`) and the corruption gate (`corrupt.rs`, which needs a
//! run the committed bytes restore into). Frozen: the golden bytes depend
//! on every line here, so it must never track other tests.

use dsm_check::Checker;
use dsm_core::{
    CheckCtx, DsmApp, ExecCtx, PhaseEnd, ProtocolKind, ReduceOp, RunConfig, SetupCtx, SharedArray,
    StepRun,
};
use dsm_sim::State;

pub const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/golden.snap");

/// Pinned app: one shared page of disjoint per-pid writes plus a reduction,
/// with private history exercising the `APP\0` section. Mirrors the shape
/// of the round-trip property's app but is frozen here — the golden bytes
/// depend on it, so it must never track other tests.
pub struct GoldenApp {
    a: Option<SharedArray<f64>>,
    history: Vec<f64>,
}

impl DsmApp for GoldenApp {
    fn name(&self) -> &'static str {
        "golden"
    }

    fn phases(&self) -> usize {
        2
    }

    fn iters(&self) -> usize {
        3
    }

    fn setup(&mut self, s: &mut SetupCtx<'_>) {
        let a = s.alloc_array::<f64>("a", 64);
        for i in 0..64 {
            s.init(a, i, i as f64);
        }
        self.a = Some(a);
    }

    fn phase(&mut self, ctx: &mut ExecCtx<'_>, iter: usize, site: usize) -> PhaseEnd {
        let a = self.a.expect("setup ran");
        let pid = ctx.pid();
        let n = ctx.nprocs();
        if site == 0 {
            for i in (pid..64).step_by(n) {
                let v = a.get(ctx, i);
                a.set(ctx, i, v + (pid + 1) as f64 + iter as f64);
            }
            PhaseEnd::Barrier
        } else {
            if pid == 0 {
                if let Some(&r) = ctx.reduction().first() {
                    self.history.push(r);
                }
            }
            let mut sum = 0.0;
            for i in (pid..64).step_by(n) {
                sum += a.get(ctx, i);
            }
            PhaseEnd::Reduce(ReduceOp::Sum, vec![sum])
        }
    }

    fn check(&self, c: &CheckCtx<'_>) -> f64 {
        let a = self.a.expect("setup ran");
        (0..64).map(|i| c.read(a, i)).sum::<f64>() + self.history.iter().sum::<f64>()
    }

    fn save_state(&self, w: &mut dsm_sim::SnapWriter) {
        self.history.encode(w);
    }

    fn load_state(&mut self, r: &mut dsm_sim::SnapReader<'_>) -> Result<(), dsm_sim::SnapError> {
        self.history.decode(r)
    }
}

impl GoldenApp {
    pub fn new() -> GoldenApp {
        GoldenApp {
            a: None,
            history: Vec::new(),
        }
    }
}

/// The pinned configuration: lmw-u, 3 procs, fixed seed.
pub fn golden_config() -> RunConfig {
    let mut cfg = RunConfig::with_nprocs(ProtocolKind::LmwU, 3);
    cfg.sim.seed = 0x5EED_601D;
    cfg
}

/// The pinned run, 3 steps in — deep enough that frames, twins, protocol
/// tables, in-flight wire state, reduction scratch, oracle state, and app
/// history are all non-trivial.
pub fn golden_run<'a>(app: &'a mut GoldenApp, checker: &Checker) -> StepRun<'a, GoldenApp> {
    let mut run = StepRun::new(app, golden_config(), Some(checker.sink()), None);
    for _ in 0..3 {
        assert!(run.step(), "the pinned run spans more than 3 steps");
    }
    run
}
