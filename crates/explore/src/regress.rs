//! The exploration regression app, plus an iteration-capping wrapper.
//!
//! [`RegressApp`] is purpose-built so that its correctness depends on
//! exactly the interleavings a single schedule cannot show: one writer
//! (pid 1) updates a fresh word of one shared page every epoch, flushing
//! each modification to its lone consumer (pid 0) as a single unreliable
//! lmw-u update; the consumer stays hands-off until a final read of every
//! word. Under the correct protocol any drop pattern is recovered at
//! fault time (uncovered notice epochs are fetched from the writer); under
//! [`dsm_core::PlantedBug::LmwUCoverageGap`] a dropped *middle* flush
//! followed by a delivered later one is silently skipped — a stale read
//! the `dsm-check` coherence oracle flags. The bug fires on no
//! all-delivered or all-dropped schedule, so only systematic fault-space
//! enumeration finds it (in a handful of schedules; see the crate tests).

use dsm_core::{CheckCtx, DsmApp, ExecCtx, PhaseEnd, SetupCtx, SharedArray};

/// Epochs in which pid 1 writes a fresh word (iteration `i` runs in epoch
/// `i + 1`; writes happen in iterations `2..=WRITE_ITERS+1`).
const WRITE_ITERS: usize = 5;
/// Total iterations: warm-up write, consumer joins copyset, WRITE_ITERS
/// flushed writes, one settle iteration, final full read.
const ITERS: usize = WRITE_ITERS + 4;

/// Ordering/fault-sensitive regression app (2 processes, lmw-u).
pub struct RegressApp {
    a: Option<SharedArray<f64>>,
}

impl RegressApp {
    pub fn new() -> RegressApp {
        RegressApp { a: None }
    }

    /// The value pid 1 writes in iteration `i` (`2 <= i <= WRITE_ITERS+1`).
    fn val(i: usize) -> f64 {
        (10 + i) as f64
    }
}

impl Default for RegressApp {
    fn default() -> Self {
        RegressApp::new()
    }
}

impl DsmApp for RegressApp {
    fn name(&self) -> &'static str {
        "regress"
    }

    fn phases(&self) -> usize {
        1
    }

    fn iters(&self) -> usize {
        ITERS
    }

    fn setup(&mut self, s: &mut SetupCtx<'_>) {
        assert_eq!(s.nprocs(), 2, "regress is a 2-process app");
        let a = s.alloc_array::<f64>("a", 16);
        for i in 0..16 {
            s.init(a, i, 0.0);
        }
        self.a = Some(a);
    }

    fn phase(&mut self, ctx: &mut ExecCtx<'_>, iter: usize, _site: usize) -> PhaseEnd {
        let a = self.a.expect("setup ran");
        match (ctx.pid(), iter) {
            // Epoch 1: establish pid 1 as the page's writer.
            (1, 0) => a.set(ctx, 0, 1.0),
            // Epoch 2: pid 0's first read faults, fetches from pid 1, and
            // joins the writer's copyset — every later write is flushed to
            // pid 0 as a single unreliable update.
            (0, 1) => {
                assert_eq!(a.get(ctx, 0), 1.0, "initial fetch");
            }
            // Epochs 3..: one fresh word per epoch, each sealed and
            // flushed at the following barrier (one drop choice each).
            (1, i) if (2..2 + WRITE_ITERS).contains(&i) => a.set(ctx, i, Self::val(i)),
            // Final epoch: pid 0 reads every written word. Stale words
            // (a dropped flush the validation skipped) are caught here by
            // the coherence oracle.
            (0, i) if i == ITERS - 1 => {
                assert_eq!(a.get(ctx, 0), 1.0);
                for w in 2..2 + WRITE_ITERS {
                    // The checker flags staleness; the value assert stays
                    // soft so the schedule still completes and reports.
                    let _ = a.get(ctx, w);
                }
            }
            _ => {}
        }
        PhaseEnd::Barrier
    }

    fn check(&self, c: &CheckCtx<'_>) -> f64 {
        let a = self.a.expect("setup ran");
        let mut sum = 0.0;
        for i in 0..16 {
            sum += c.read(a, i);
        }
        sum
    }
}

/// Delegating wrapper that caps an application's iteration count — the
/// exploration configs run the paper apps for 2–3 iterations, which keeps
/// the choice tree bounded (and keeps overdrive protocols in their
/// learning phase, where they are behaviourally bar-u).
pub struct CappedApp {
    inner: Box<dyn DsmApp>,
    iters: usize,
}

impl CappedApp {
    pub fn new(inner: Box<dyn DsmApp>, iters_cap: usize) -> CappedApp {
        let iters = if iters_cap == 0 {
            inner.iters()
        } else {
            inner.iters().min(iters_cap)
        };
        CappedApp { inner, iters }
    }
}

impl DsmApp for CappedApp {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn phases(&self) -> usize {
        self.inner.phases()
    }

    fn iters(&self) -> usize {
        self.iters
    }

    fn setup(&mut self, s: &mut SetupCtx<'_>) {
        self.inner.setup(s);
    }

    fn phase(&mut self, ctx: &mut ExecCtx<'_>, iter: usize, site: usize) -> PhaseEnd {
        self.inner.phase(ctx, iter, site)
    }

    fn check(&self, c: &CheckCtx<'_>) -> f64 {
        self.inner.check(c)
    }

    fn save_state(&self, w: &mut dsm_sim::SnapWriter) {
        self.inner.save_state(w);
    }

    fn load_state(&mut self, r: &mut dsm_sim::SnapReader<'_>) -> Result<(), dsm_sim::SnapError> {
        self.inner.load_state(r)
    }
}
