//! The checkpointing DFS driver: enumerate schedules, check each one.
//!
//! Schedules are enumerated by deepest-first backtracking over resolved
//! choice points (standard stateless model checking à la Loom/Shuttle/
//! VeriSoft), but executions are *not* stateless: the driver checkpoints
//! the full simulation state at every step boundary where new choice
//! points were resolved, and backtracking restores the deepest checkpoint
//! at or above the divergence point instead of re-executing the shared
//! prefix from epoch 0. A checkpoint is the cluster and app as `dsm-snap`
//! bytes (CORE + APP sections) plus the checker as an in-memory
//! [`CheckSave`], whose pages are shared with the checkpoint below it
//! wherever they did not change. The explored tree, the schedule order,
//! and every per-schedule observation are identical to the stateless
//! driver — debug builds assert it, re-executing each restored prefix from
//! scratch and comparing structural state hashes and folded check-event
//! traces, and re-encoding each loaded checker against the snapshot bytes
//! taken when it was saved.
//!
//! Each execution runs under the full `dsm-check` oracle stack — race
//! detector, LRC coherence oracle, protocol invariants — and the first
//! violating schedule is reported as a replayable choice trace. Pruning is
//! a typed outcome ([`ExploreOutcome::Pruned`]): an exploring scheduler
//! declining a barrier checkpoint raises the cluster's `pruned` flag and
//! the step loop simply stops — no panic, no unwinding control flow.

use std::cell::RefCell;
use std::rc::Rc;

use dsm_check::{CheckReport, CheckSave, Checker};
use dsm_core::{DsmApp, RunConfig, StepRun};
use dsm_sim::{FastSet, SharedScheduler};

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

/// How one explored schedule ended.
#[derive(Clone, Debug)]
pub enum ExploreOutcome {
    /// The schedule ran to the end and was checked.
    Completed(CheckReport),
    /// The schedule was abandoned by visited-state pruning at a barrier.
    Pruned,
}

/// One checkpoint of the DFS: the cluster/app snapshot, the checker's
/// in-memory save and the scheduler's position, taken at a step boundary
/// after `depth` choice points had been resolved. Usable for any later
/// schedule whose forced prefix agrees on the first `depth` choices.
struct Checkpoint {
    depth: usize,
    /// Steps executed at capture (drives the debug re-execution oracle).
    steps: usize,
    sched: SchedCheckpoint,
    /// CORE + APP sections; the checker is not in them.
    bytes: Vec<u8>,
    check: CheckSave,
    /// `Checker::snapshot` at capture: the witness every load of `check`
    /// must re-encode to (debug builds).
    #[cfg(debug_assertions)]
    check_bytes: Vec<u8>,
}

impl Checkpoint {
    /// Capture the run and checker at a step boundary; `parent` is the
    /// checkpoint the run continued from, whose unchanged checker pages
    /// the new save shares.
    fn take<A: DsmApp + ?Sized>(
        depth: usize,
        steps: usize,
        sched: SchedCheckpoint,
        run: &StepRun<'_, A>,
        checker: &Checker,
        parent: Option<&Checkpoint>,
    ) -> Checkpoint {
        Checkpoint {
            depth,
            steps,
            sched,
            bytes: dsm_snap::snapshot_run(run, None),
            check: checker.save(parent.map(|p| &p.check)),
            #[cfg(debug_assertions)]
            check_bytes: checker_bytes(checker),
        }
    }

    /// Put the run and checker back to this checkpoint.
    fn restore<A: DsmApp + ?Sized>(&self, run: &mut StepRun<'_, A>, checker: &Checker) {
        dsm_snap::restore_run(&self.bytes, run, None);
        checker.load(&self.check);
        #[cfg(debug_assertions)]
        assert!(
            checker_bytes(checker) == self.check_bytes,
            "loaded checker state diverges from its snapshot at save"
        );
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
    let mut stack = vec![Checkpoint::take(0, 0, root, &run, &checker, None)];
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
                let cp = Checkpoint::take(depth, steps, at, &run, &checker, parent);
                stack.push(cp);
            }
        }
        out.schedules += 1;
        let log = sched.borrow().log().to_vec();
        out.max_points = out.max_points.max(log.len());
        if run.cluster().pruned() {
            out.pruned += 1;
        } else {
            out.completed += 1;
            let check = checker.report();
            if !check.is_clean() && out.violation.is_none() {
                out.violation = Some(ViolationFound {
                    schedule_index: out.schedules - 1,
                    choices: log.clone(),
                    report: check,
                });
                if opts.stop_on_violation {
                    break;
                }
            }
        }
        let Some(prefix) = next_prefix(&log) else {
            out.frontier_exhausted = true;
            break;
        };
        // Backtrack: drop checkpoints below the divergence, restore the
        // deepest one whose choices the new prefix still agrees with.
        let keep = prefix.len() - 1;
        while stack.last().is_some_and(|c| c.depth > keep) {
            stack.pop();
        }
        let cp = stack.last().expect("the depth-0 root is always usable");
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

/// Execute one complete schedule from scratch under the forced `prefix`.
fn run_schedule<F>(
    make_app: &mut F,
    cfg: &RunConfig,
    bounds: Bounds,
    prefix: Vec<u32>,
    visited: Option<Visited>,
    static_groups: Option<StaticGroups>,
) -> (Vec<ChoicePoint>, ExploreOutcome)
where
    F: FnMut() -> Box<dyn DsmApp>,
{
    let mut scheduler = ExploreScheduler::new(bounds, prefix, visited);
    if let Some(groups) = static_groups {
        scheduler.set_static_groups(groups);
    }
    let sched = Rc::new(RefCell::new(scheduler));
    let shared: SharedScheduler = Rc::<RefCell<ExploreScheduler>>::clone(&sched);
    let mut app = make_app();
    let checker = Checker::new(cfg);
    let mut run = StepRun::new(
        app.as_mut(),
        cfg.clone(),
        Some(checker.sink()),
        Some(shared),
    );
    while run.step() {}
    let log = sched.borrow().log().to_vec();
    let outcome = if run.cluster().pruned() {
        ExploreOutcome::Pruned
    } else {
        ExploreOutcome::Completed(checker.report())
    };
    (log, outcome)
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

/// Re-execute exactly the schedule a trace records, under full checking.
///
/// State pruning is disabled (the replayed schedule must run to the end)
/// and the replayed choice points are asserted to match the trace — a
/// changed binary whose choice tree drifted fails loudly instead of
/// replaying a silently different schedule.
pub fn replay<F>(mut make_app: F, cfg: &RunConfig, trace: &ChoiceTrace) -> CheckReport
where
    F: FnMut() -> Box<dyn DsmApp>,
{
    let bounds = Bounds {
        state_prune: false,
        ..trace.bounds
    };
    let prefix: Vec<u32> = trace.choices.iter().map(|c| c.chosen).collect();
    let (log, outcome) = run_schedule(&mut make_app, cfg, bounds, prefix, None, None);
    let ExploreOutcome::Completed(report) = outcome else {
        panic!("replay never prunes");
    };
    assert_eq!(
        log, trace.choices,
        "replayed choice points diverged from the trace"
    );
    report
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
