//! The application trait and runner.
//!
//! Applications are barrier-phase structured: an iteration is a fixed
//! sequence of phases, each ending in a barrier (optionally a reduction
//! barrier). The runner executes each phase body once per process — valid
//! under LRC for data-race-free programs — then drives the protocol
//! barrier.

use crate::check::CheckSink;
use crate::config::RunConfig;
use crate::drive::cluster::Cluster;
use crate::drive::ctx::{CheckCtx, ExecCtx, SetupCtx};
use crate::drive::reduce::ReduceOp;
use crate::drive::stats::RunReport;

/// How a phase ends.
#[derive(Clone, Debug, PartialEq)]
pub enum PhaseEnd {
    /// Plain barrier.
    Barrier,
    /// Reduction barrier carrying this process's contributions; the result
    /// is available next phase via [`ExecCtx::reduction`].
    Reduce(ReduceOp, Vec<f64>),
}

/// A barrier-phase structured shared-memory application.
pub trait DsmApp {
    /// Short name (Table 1 row label).
    fn name(&self) -> &'static str;

    /// Barrier phases per iteration.
    fn phases(&self) -> usize;

    /// Total iterations of the time-step loop (including warmup).
    fn iters(&self) -> usize;

    /// Allocate and initialize shared data.
    fn setup(&mut self, s: &mut SetupCtx<'_>);

    /// Run one phase body for the process in `ctx`. Every process of an
    /// epoch must return the same `PhaseEnd` variant (and reduce op).
    fn phase(&mut self, ctx: &mut ExecCtx<'_>, iter: usize, site: usize) -> PhaseEnd;

    /// Produce a result checksum from the final shared state; must be
    /// protocol-independent for a correct protocol.
    fn check(&self, c: &CheckCtx<'_>) -> f64;

    /// Serialize application-side mutable state that lives *outside* the
    /// shared segment (recorded residuals, private per-iteration buffers)
    /// for a snapshot — typically `State::encode(self, w)` over an
    /// `impl_state!` declaration of the app's fields. Apps whose only
    /// mutable state is shared memory keep the default no-op.
    fn save_state(&self, _w: &mut dsm_sim::SnapWriter) {}

    /// Restore a [`DsmApp::save_state`] capture.
    fn load_state(&mut self, _r: &mut dsm_sim::SnapReader<'_>) -> Result<(), dsm_sim::SnapError> {
        Ok(())
    }
}

/// Execute `app` under `cfg` and report statistics, time breakdown, and the
/// result checksum.
pub fn run_app<A: DsmApp + ?Sized>(app: &mut A, cfg: RunConfig) -> RunReport {
    run_app_inner(app, cfg, None, None)
}

/// Execute `app` under `cfg` with a checking sink installed for the whole
/// run — before setup, so the sink observes the initial-image writes.
///
/// The virtual-time result is identical to [`run_app`]: the sink only
/// observes, it is never charged. Checkers that need to report afterwards
/// should hand in a handle to shared state (see `dsm-check`).
pub fn run_app_checked<A: DsmApp + ?Sized>(
    app: &mut A,
    cfg: RunConfig,
    sink: Box<dyn CheckSink>,
) -> RunReport {
    run_app_inner(app, cfg, Some(sink), None)
}

/// Execute `app` under `cfg` with an explicit decision scheduler (and
/// optionally a checking sink) installed before setup. With the default
/// [`dsm_sim::VirtualTimeScheduler`] this is identical to [`run_app`];
/// `dsm-explore` passes an enumerating scheduler to drive one explored
/// schedule per call.
pub fn run_app_scheduled<A: DsmApp + ?Sized>(
    app: &mut A,
    cfg: RunConfig,
    sink: Option<Box<dyn CheckSink>>,
    sched: dsm_sim::SharedScheduler,
) -> RunReport {
    run_app_inner(app, cfg, sink, Some(sched))
}

fn run_app_inner<A: DsmApp + ?Sized>(
    app: &mut A,
    cfg: RunConfig,
    sink: Option<Box<dyn CheckSink>>,
    sched: Option<dsm_sim::SharedScheduler>,
) -> RunReport {
    let mut run = StepRun::new(app, cfg, sink, sched);
    while run.step() {}
    run.finish()
}

/// A run broken into externally-driven steps, one phase + barrier each.
///
/// The runner derives its position from the cluster's own `(iter, site)`
/// counters rather than loop variables, so a cluster restored from a
/// snapshot (`Cluster::restore`) resumes mid-run and executes
/// exactly the steps a from-scratch run would — this is what the explore
/// driver's checkpoint-restore DFS and the `travel` time-travel bench
/// build on.
pub struct StepRun<'a, A: DsmApp + ?Sized> {
    app: &'a mut A,
    cl: Cluster,
    total_iters: usize,
    warmup: usize,
}

impl<'a, A: DsmApp + ?Sized> StepRun<'a, A> {
    /// Set up `app` under `cfg` (scheduler and sink installed before
    /// setup, as [`run_app_scheduled`] does) and stop at the first step
    /// boundary: nothing has executed yet.
    pub fn new(
        app: &'a mut A,
        cfg: RunConfig,
        sink: Option<Box<dyn CheckSink>>,
        sched: Option<dsm_sim::SharedScheduler>,
    ) -> StepRun<'a, A> {
        let mut cl = Cluster::new(cfg);
        if let Some(sched) = sched {
            cl.install_scheduler(sched);
        }
        if let Some(sink) = sink {
            cl.install_check_sink(sink);
        }
        {
            let mut s = SetupCtx { cl: &mut cl };
            app.setup(&mut s);
        }
        cl.phases_per_iter = app.phases().max(1);
        cl.distribute();
        let total_iters = app.iters();
        let warmup = cl.config().warmup_iters.min(total_iters.saturating_sub(1));
        StepRun {
            app,
            cl,
            total_iters,
            warmup,
        }
    }

    /// True once every iteration has run (or the execution was pruned).
    pub fn done(&self) -> bool {
        self.cl.pruned() || self.cl.cur_iter() >= self.total_iters
    }

    /// Execute one phase body on every process plus the ending barrier.
    /// Returns false when there is nothing further to execute — run
    /// complete or execution pruned by an exploring scheduler.
    pub fn step(&mut self) -> bool {
        if self.done() {
            return false;
        }
        let iter = self.cl.cur_iter();
        let site = self.cl.cur_site();
        if site == 0 && iter == self.warmup {
            self.cl.start_measurement();
        }
        let nprocs = self.cl.nprocs();
        let mut ends: Vec<PhaseEnd> = Vec::with_capacity(nprocs);
        for pid in 0..nprocs {
            let mut ctx = ExecCtx {
                cl: &mut self.cl,
                pid,
            };
            ends.push(self.app.phase(&mut ctx, iter, site));
        }
        let reduce = coalesce_phase_ends(ends);
        self.cl.barrier_app(reduce);
        !self.done()
    }

    /// The cluster, e.g. for `state_hash` or snapshot encoding.
    pub fn cluster(&self) -> &Cluster {
        &self.cl
    }

    /// Mutable cluster access, e.g. for snapshot restore.
    pub fn cluster_mut(&mut self) -> &mut Cluster {
        &mut self.cl
    }

    /// The application (its `save_state`/`load_state` pair with the
    /// cluster's codec snapshots the whole run).
    pub fn app(&self) -> &A {
        self.app
    }

    /// Mutable application access.
    pub fn app_mut(&mut self) -> &mut A {
        self.app
    }

    /// Split borrow for snapshot restore: cluster and app together.
    pub fn cluster_and_app_mut(&mut self) -> (&mut Cluster, &mut A) {
        (&mut self.cl, self.app)
    }

    /// Compute the checksum and produce the report. Call only on a
    /// completed (not pruned) run.
    pub fn finish(self) -> RunReport {
        let checksum = {
            let c = CheckCtx { cl: &self.cl };
            self.app.check(&c)
        };
        self.cl.report(self.app.name(), checksum)
    }
}

/// Convenience: run `app` under `cfg` and attach a sequential baseline run
/// of `baseline_app` (a fresh instance of the same application).
pub fn run_app_with_baseline<A: DsmApp + ?Sized, B: DsmApp + ?Sized>(
    app: &mut A,
    baseline_app: &mut B,
    cfg: RunConfig,
) -> RunReport {
    let base_cfg = cfg.baseline();
    let base = run_app(baseline_app, base_cfg);
    let report = run_app(app, cfg);
    assert_eq!(
        base.checksum, report.checksum,
        "protocol run diverged from the sequential baseline"
    );
    report.with_baseline(base.elapsed)
}

fn coalesce_phase_ends(ends: Vec<PhaseEnd>) -> Option<(ReduceOp, Vec<Vec<f64>>)> {
    let mut op: Option<ReduceOp> = None;
    let mut contribs: Vec<Vec<f64>> = Vec::with_capacity(ends.len());
    let mut plain = 0usize;
    let n = ends.len();
    for e in ends {
        match e {
            PhaseEnd::Barrier => plain += 1,
            PhaseEnd::Reduce(o, v) => {
                match op {
                    None => op = Some(o),
                    Some(prev) => assert_eq!(prev, o, "processes disagree on reduce op"),
                }
                contribs.push(v);
            }
        }
    }
    match op {
        None => None,
        Some(o) => {
            assert_eq!(
                plain, 0,
                "all processes of an epoch must end it the same way ({plain} of {n} sent Barrier)"
            );
            Some((o, contribs))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalesce_all_barriers() {
        assert!(coalesce_phase_ends(vec![PhaseEnd::Barrier; 4]).is_none());
    }

    #[test]
    fn coalesce_reduce_collects_in_pid_order() {
        let ends = vec![
            PhaseEnd::Reduce(ReduceOp::Max, vec![1.0]),
            PhaseEnd::Reduce(ReduceOp::Max, vec![2.0]),
        ];
        let (op, c) = coalesce_phase_ends(ends).unwrap();
        assert_eq!(op, ReduceOp::Max);
        assert_eq!(c, vec![vec![1.0], vec![2.0]]);
    }

    #[test]
    #[should_panic(expected = "same way")]
    fn mixed_phase_ends_rejected() {
        coalesce_phase_ends(vec![
            PhaseEnd::Barrier,
            PhaseEnd::Reduce(ReduceOp::Sum, vec![1.0]),
        ]);
    }

    #[test]
    #[should_panic(expected = "disagree")]
    fn mixed_ops_rejected() {
        coalesce_phase_ends(vec![
            PhaseEnd::Reduce(ReduceOp::Sum, vec![1.0]),
            PhaseEnd::Reduce(ReduceOp::Max, vec![1.0]),
        ]);
    }
}
