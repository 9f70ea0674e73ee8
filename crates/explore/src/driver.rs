//! The checkpointing DFS driver: enumerate schedules, check each one.
//!
//! Schedules are enumerated by deepest-first backtracking over resolved
//! choice points (standard stateless model checking à la Loom/Shuttle/
//! VeriSoft), but executions are *not* stateless: the driver checkpoints
//! the full simulation state at every step boundary where new choice
//! points were resolved, and backtracking restores the deepest checkpoint
//! at or above the divergence point instead of re-executing the shared
//! prefix from epoch 0. A checkpoint is held in memory: the cluster as a
//! [`ClusterSave`] and the checker as a [`CheckSave`], whose pages are
//! shared with the checkpoint below it wherever they did not change, plus
//! the app's few `save_state` words. The explored tree, the schedule
//! order, and every per-schedule observation are identical to the
//! stateless driver — debug builds assert it, re-executing each restored
//! prefix from scratch and comparing structural state hashes and folded
//! check-event traces, and re-encoding the loaded cluster, app and checker
//! against the `dsm-snap` bytes taken when they were saved.
//!
//! Each execution runs under the full `dsm-check` oracle stack — race
//! detector, LRC coherence oracle, protocol invariants — and the first
//! violating schedule is reported as a replayable choice trace. Pruning is
//! a flag, not control flow: an exploring scheduler declining a barrier
//! checkpoint raises the cluster's `pruned` flag and the step loop simply
//! stops — no panic, no unwinding.

use std::cell::RefCell;
use std::rc::Rc;

use dsm_check::{CheckReport, CheckSave, Checker};
use dsm_core::{ClusterSave, DsmApp, RunConfig, StepRun};
use dsm_sim::{FastSet, SharedScheduler, SnapReader, SnapWriter};

use crate::sched::{Bounds, ChoicePoint, ExploreScheduler, SchedCheckpoint, StaticGroups, Visited};
use crate::trace::ChoiceTrace;

/// Exploration options.
#[derive(Clone, Debug)]
pub struct ExploreOpts {
    /// Hard cap on executed schedules (budget).
    pub max_schedules: usize,
    pub bounds: Bounds,
    /// Stop at the first violating schedule (replay artifacts want the
    /// shortest trace; baselines want the full count).
    pub stop_on_violation: bool,
    /// Statically predicted page-conflict groups from
    /// `dsm_plan::static_page_groups`; when set, debug builds assert that
    /// every dynamic conflict component the POR computes refines one
    /// static group.
    pub static_groups: Option<StaticGroups>,
}

impl Default for ExploreOpts {
    fn default() -> ExploreOpts {
        ExploreOpts {
            max_schedules: 1000,
            bounds: Bounds::default(),
            stop_on_violation: true,
            static_groups: None,
        }
    }
}

/// The first violating schedule found.
#[derive(Clone, Debug)]
pub struct ViolationFound {
    /// 0-based index of the violating schedule in exploration order.
    pub schedule_index: usize,
    /// The resolved choice points — a replayable trace.
    pub choices: Vec<ChoicePoint>,
    /// The checker's findings.
    pub report: CheckReport,
}

/// Outcome of one bounded exploration.
#[derive(Clone, Debug)]
pub struct ExploreReport {
    /// Executions attempted (completed + pruned).
    pub schedules: usize,
    /// Executions that ran to the end and were checked.
    pub completed: usize,
    /// Executions abandoned by visited-state pruning.
    pub pruned: usize,
    /// True if the whole bounded choice tree was covered within budget.
    pub frontier_exhausted: bool,
    /// Deepest choice log observed (tree depth indicator).
    pub max_points: usize,
    pub violation: Option<ViolationFound>,
}

/// One checkpoint of the DFS: the cluster's and the checker's in-memory
/// saves, the app's state words and the scheduler's position, taken at a
/// step boundary after `depth` choice points had been resolved. Usable
/// for any later schedule whose forced prefix agrees on the first `depth`
/// choices.
struct Checkpoint {
    depth: usize,
    /// Steps executed at capture (drives the debug re-execution oracle).
    steps: usize,
    sched: SchedCheckpoint,
    core: ClusterSave,
    /// `DsmApp::save_state`: a few words per app.
    app: Vec<u8>,
    check: CheckSave,
    /// `snapshot_run` at capture (CORE + APP) and `Checker::snapshot`:
    /// the witnesses every load must re-encode to (debug builds).
    #[cfg(debug_assertions)]
    run_bytes: Vec<u8>,
    #[cfg(debug_assertions)]
    check_bytes: Vec<u8>,
}

impl Checkpoint {
    /// Capture the run and checker at a step boundary; `parent` is the
    /// checkpoint the run continued from, whose unchanged cluster and
    /// checker pages the new save shares.
    fn take<A: DsmApp + ?Sized>(
        depth: usize,
        steps: usize,
        sched: SchedCheckpoint,
        run: &mut StepRun<'_, A>,
        checker: &Checker,
        parent: Option<&Checkpoint>,
    ) -> Checkpoint {
        Checkpoint {
            depth,
            steps,
            sched,
            core: run.cluster_mut().save(parent.map(|p| &p.core)),
            app: {
                let mut w = SnapWriter::new();
                run.app().save_state(&mut w);
                w.into_bytes()
            },
            check: checker.save(parent.map(|p| &p.check)),
            #[cfg(debug_assertions)]
            run_bytes: dsm_snap::snapshot_run(run, None),
            #[cfg(debug_assertions)]
            check_bytes: checker_bytes(checker),
        }
    }

    /// Put the run and checker back to this checkpoint.
    fn restore<A: DsmApp + ?Sized>(&self, run: &mut StepRun<'_, A>, checker: &Checker) {
        let (cluster, app) = run.cluster_and_app_mut();
        cluster.load(&self.core);
        let mut r = SnapReader::new(&self.app);
        if let Err(e) = app.load_state(&mut r).and_then(|()| r.finish()) {
            panic!("restoring app state this process saved: {e}");
        }
        checker.load(&self.check);
        #[cfg(debug_assertions)]
        {
            assert!(
                dsm_snap::snapshot_run(run, None) == self.run_bytes,
                "loaded cluster state diverges from its snapshot at save"
            );
            assert!(
                checker_bytes(checker) == self.check_bytes,
                "loaded checker state diverges from its snapshot at save"
            );
        }
    }
}

#[cfg(debug_assertions)]
fn checker_bytes(checker: &Checker) -> Vec<u8> {
    let mut w = dsm_sim::SnapWriter::new();
    checker.snapshot(&mut w);
    w.into_bytes()
}

/// Systematically explore the bounded schedule/fault space of `make_app`
/// under `cfg`, running every schedule under the full `dsm-check` oracles.
///
/// `make_app` builds the single application instance the exploration steps
/// and restores over (plus, in debug builds, fresh instances for the
/// restore-equivalence oracle); its post-`setup` state must be a pure
/// function of the configuration.
pub fn explore<F>(mut make_app: F, cfg: &RunConfig, opts: &ExploreOpts) -> ExploreReport
where
    F: FnMut() -> Box<dyn DsmApp>,
{
    let visited: Option<Visited> = opts
        .bounds
        .state_prune
        .then(|| Rc::new(RefCell::new(FastSet::default())));
    let mut out = ExploreReport {
        schedules: 0,
        completed: 0,
        pruned: 0,
        frontier_exhausted: false,
        max_points: 0,
        violation: None,
    };

    let checker = Checker::new(cfg);
    let mut scheduler = ExploreScheduler::new(opts.bounds, Vec::new(), visited.clone());
    if let Some(groups) = &opts.static_groups {
        scheduler.set_static_groups(groups.clone());
    }
    let sched = Rc::new(RefCell::new(scheduler));
    let shared: SharedScheduler = Rc::<RefCell<ExploreScheduler>>::clone(&sched);
    let mut app = make_app();
    let mut run = StepRun::new(
        app.as_mut(),
        cfg.clone(),
        Some(checker.sink()),
        Some(shared),
    );

    // Checkpoint stack along the current DFS path, strictly increasing in
    // depth; the root (depth 0, nothing executed) is always restorable.
    let root = sched.borrow().checkpoint();
    let mut stack = vec![Checkpoint::take(0, 0, root, &mut run, &checker, None)];
    let mut steps = 0usize;

    loop {
        if out.schedules >= opts.max_schedules {
            break;
        }
        // Execute the remainder of the current schedule, checkpointing each
        // step boundary that resolved new choice points.
        while !run.done() {
            run.step();
            steps += 1;
            if run.done() {
                break;
            }
            let depth = sched.borrow().log().len();
            let parent = stack.last();
            if depth > parent.map_or(0, |c| c.depth) {
                let at = sched.borrow().checkpoint();
                let cp = Checkpoint::take(depth, steps, at, &mut run, &checker, parent);
                stack.push(cp);
            }
        }
        out.schedules += 1;
        let next = {
            let sched = sched.borrow();
            let log = sched.log();
            out.max_points = out.max_points.max(log.len());
            if run.cluster().pruned() {
                out.pruned += 1;
            } else {
                out.completed += 1;
                let check = checker.report();
                if !check.is_clean() && out.violation.is_none() {
                    out.violation = Some(ViolationFound {
                        schedule_index: out.schedules - 1,
                        choices: log.to_vec(),
                        report: check,
                    });
                    if opts.stop_on_violation {
                        break;
                    }
                }
            }
            next_prefix(log)
        };
        let Some(prefix) = next else {
            out.frontier_exhausted = true;
            break;
        };
        // Backtrack: restore the deepest checkpoint whose choices the new
        // prefix still agrees with, then drop the ones below the
        // divergence, their pages going back to the cluster.
        let keep = prefix.len() - 1;
        let usable = stack.iter().rposition(|c| c.depth <= keep);
        let kept = usable.expect("the depth-0 root is always usable") + 1;
        let cp = &stack[kept - 1];
        cp.restore(&mut run, &checker);
        steps = cp.steps;
        #[cfg(debug_assertions)]
        verify_restore(&mut make_app, cfg, opts.bounds, cp, run.cluster());
        let mut resumed =
            ExploreScheduler::resume(opts.bounds, prefix, visited.clone(), cp.sched.clone());
        if let Some(groups) = &opts.static_groups {
            resumed.set_static_groups(groups.clone());
        }
        *sched.borrow_mut() = resumed;
        for dropped in stack.drain(kept..) {
            run.cluster_mut().recycle(dropped.core);
            checker.recycle(dropped.check);
        }
    }
    out
}

/// The restore-equivalence oracle (debug builds): re-execute the
/// checkpointed prefix from scratch under the same forced choices and
/// assert the restored cluster is observationally identical — same
/// structural state hash, same folded check-event trace. The checker is
/// witnessed separately, by `Checkpoint::restore`: it is loaded from
/// memory, not replayed, so trace equality says nothing about it.
#[cfg(debug_assertions)]
fn verify_restore<F>(
    make_app: &mut F,
    cfg: &RunConfig,
    bounds: Bounds,
    cp: &Checkpoint,
    restored: &dsm_core::Cluster,
) where
    F: FnMut() -> Box<dyn DsmApp>,
{
    let scheduler = ExploreScheduler::new(bounds, cp.sched.choices(), None);
    let sched = Rc::new(RefCell::new(scheduler));
    let shared: SharedScheduler = Rc::<RefCell<ExploreScheduler>>::clone(&sched);
    let mut app = make_app();
    // No sink: the trace hash folds independently of checker presence.
    let mut run = StepRun::new(app.as_mut(), cfg.clone(), None, Some(shared));
    for _ in 0..cp.steps {
        run.step();
    }
    assert_eq!(
        sched.borrow().log().len(),
        cp.depth,
        "re-executed prefix resolved different choice points"
    );
    assert_eq!(
        run.cluster().state_hash(),
        restored.state_hash(),
        "restored state diverges from from-scratch execution"
    );
    assert_eq!(
        run.cluster().trace_hash(),
        restored.trace_hash(),
        "restored check-event trace diverges from from-scratch execution"
    );
}

/// Deepest-first backtracking: the next DFS prefix, or `None` when every
/// choice point on the current path is exhausted.
fn next_prefix(log: &[ChoicePoint]) -> Option<Vec<u32>> {
    for i in (0..log.len()).rev() {
        if log[i].chosen + 1 < log[i].alts {
            let mut p: Vec<u32> = log[..i].iter().map(|c| c.chosen).collect();
            p.push(log[i].chosen + 1);
            return Some(p);
        }
    }
    None
}

/// The schedule a trace records, set up to walk under full checking: the
/// trace's choices are forced and state pruning is off, because the
/// replayed schedule must run to the end.
pub struct Replay<'a, A: DsmApp + ?Sized> {
    /// The run; at the end of the schedule once [`Replay::forward`] returns.
    pub run: StepRun<'a, A>,
    /// The scheduler the run consults.
    pub sched: Rc<RefCell<ExploreScheduler>>,
    /// The checker behind the run's sink.
    pub checker: Checker,
    bounds: Bounds,
    choices: Vec<ChoicePoint>,
}

impl<'a, A: DsmApp + ?Sized> Replay<'a, A> {
    /// Set up `app` under `cfg` (normally [`config_for_trace`]) to replay
    /// `trace`.
    pub fn new(app: &'a mut A, cfg: RunConfig, trace: &ChoiceTrace) -> Replay<'a, A> {
        let bounds = Bounds {
            state_prune: false,
            ..trace.bounds
        };
        let scheduler = ExploreScheduler::new(bounds, chosen(&trace.choices), None);
        let sched = Rc::new(RefCell::new(scheduler));
        let shared: SharedScheduler = Rc::<RefCell<ExploreScheduler>>::clone(&sched);
        let checker = Checker::new(&cfg);
        let run = StepRun::new(app, cfg, Some(checker.sink()), Some(shared));
        Replay {
            run,
            sched,
            checker,
            bounds,
            choices: trace.choices.clone(),
        }
    }

    /// Walk forward to the end of the schedule, calling `at_step(i, self)`
    /// at every step boundary before step `i` runs (0: nothing executed
    /// yet). The replayed choice points are asserted to match the trace —
    /// a changed binary whose choice tree drifted fails loudly instead of
    /// replaying a silently different schedule. Returns the findings.
    pub fn forward(&mut self, mut at_step: impl FnMut(usize, &Self)) -> CheckReport {
        for i in 0.. {
            at_step(i, self);
            if !self.run.step() {
                break;
            }
        }
        assert!(!self.run.cluster().pruned(), "replay never prunes");
        assert_eq!(
            self.sched.borrow().log(),
            &self.choices[..],
            "replayed choice points diverged from the trace"
        );
        self.checker.report()
    }

    /// Force the trace's remaining choices again from `at`, a scheduler
    /// checkpoint of this walk, once the run was restored to where `at`
    /// was taken.
    pub fn resume(&self, at: SchedCheckpoint) {
        let prefix = chosen(&self.choices);
        *self.sched.borrow_mut() = ExploreScheduler::resume(self.bounds, prefix, None, at);
    }
}

/// The alternatives a choice log took, as a forced prefix.
fn chosen(choices: &[ChoicePoint]) -> Vec<u32> {
    choices.iter().map(|c| c.chosen).collect()
}

/// Re-execute exactly the schedule a trace records, under full checking
/// ([`Replay::forward`] with nothing to do at each step).
pub fn replay<F>(mut make_app: F, cfg: &RunConfig, trace: &ChoiceTrace) -> CheckReport
where
    F: FnMut() -> Box<dyn DsmApp>,
{
    let mut app = make_app();
    Replay::new(app.as_mut(), cfg.clone(), trace).forward(|_, _| {})
}

/// The run configuration a trace describes.
pub fn config_for_trace(trace: &ChoiceTrace) -> RunConfig {
    let mut cfg = RunConfig::with_nprocs(trace.protocol, trace.nprocs);
    cfg.planted = trace.planted;
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_sim::ChoiceKind;

    fn pt(chosen: u32, alts: u32) -> ChoicePoint {
        ChoicePoint {
            kind: ChoiceKind::Drop,
            chosen,
            alts,
        }
    }

    #[test]
    fn backtracking_increments_deepest_open_point() {
        assert_eq!(next_prefix(&[pt(0, 2), pt(1, 2)]), Some(vec![1]));
        assert_eq!(next_prefix(&[pt(0, 2), pt(0, 3)]), Some(vec![0, 1]));
        assert_eq!(next_prefix(&[pt(1, 2), pt(1, 2)]), None);
        assert_eq!(next_prefix(&[]), None);
    }
}
