//! Dynamic cross-validation: a `CheckSink` that replays a real run's
//! event stream against the static plan.
//!
//! Two claims are checked online:
//!
//! * **containment** — every application-level `Read` lands inside the
//!   plan's lowered load spans for `(pid, current epoch)` and every
//!   `Write` inside the store spans. A violation means the plan
//!   under-declares (or the epoch accounting drifted), either of which
//!   invalidates every static proof downstream;
//! * **flush observation** — `UpdateFlush` events are bucketed per
//!   barrier as `(writer, page, copyset)` triples and their traffic
//!   totalled, along with the write-notice records. A run over page
//!   digests is watched the same way: what the sink saw of it *is* the
//!   traffic half of its [`crate::protosim::Prediction`].

use std::cell::RefCell;
use std::rc::Rc;

use dsm_core::{CheckEvent, CheckSink};

use crate::layout::Layout;
use crate::lower::ESIZE;
use crate::protosim::FlushTriple;
use crate::schedule::{lower_epoch, EpochAccess, EpochSpec};
use crate::spec::AppPlan;

/// What the run produced, extracted through the sink's shared handle.
#[derive(Debug, Default)]
pub struct PlanOutcome {
    /// Containment violations, formatted for the test failure message
    /// (capped at [`PlanSink::MAX_ERRORS`]).
    pub errors: Vec<String>,
    /// Observed flush triples per barrier, sorted within each barrier.
    pub observed_flushes: Vec<Vec<FlushTriple>>,
    /// Barriers seen (must equal the schedule's barrier count at the end).
    pub barriers_seen: usize,
    /// Update messages pushed, and the payload words and diff runs they
    /// carried in total.
    pub flush_msgs: u64,
    pub flush_words: u64,
    pub flush_runs: u64,
    /// Write-notice control records: version bumps (bar family) or
    /// notices filed at consumers (lmw family).
    pub notices: u64,
}

/// The cross-validation sink. Lowers each process's spans for the current
/// epoch on demand and drops them when the barrier advances the cursor.
pub struct PlanSink {
    plan: AppPlan,
    lay: Layout,
    schedule: Vec<EpochSpec>,
    cursor: usize,
    cache: Vec<Option<EpochAccess>>,
    bucket: Vec<FlushTriple>,
    outcome: Rc<RefCell<PlanOutcome>>,
}

impl PlanSink {
    pub const MAX_ERRORS: usize = 20;

    pub fn new(
        plan: AppPlan,
        lay: Layout,
        schedule: Vec<EpochSpec>,
    ) -> (PlanSink, Rc<RefCell<PlanOutcome>>) {
        let outcome = Rc::new(RefCell::new(PlanOutcome::default()));
        let nprocs = lay.nprocs;
        (
            PlanSink {
                plan,
                lay,
                schedule,
                cursor: 0,
                cache: vec![None; nprocs],
                bucket: Vec::new(),
                outcome: Rc::clone(&outcome),
            },
            outcome,
        )
    }

    fn access(&mut self, pid: usize) -> &EpochAccess {
        if self.cache[pid].is_none() {
            let acc = match self.schedule.get(self.cursor) {
                Some(spec) => lower_epoch(&self.plan, &self.lay, spec, pid),
                // Accesses past the declared schedule fail containment
                // against empty spans.
                None => EpochAccess::default(),
            };
            self.cache[pid] = Some(acc);
        }
        self.cache[pid].as_ref().expect("just lowered")
    }

    fn check(&mut self, pid: usize, addr: usize, len: usize, is_write: bool) {
        let (lo, hi) = (addr as u64, (addr + len) as u64);
        let acc = self.access(pid);
        let spans = if is_write { &acc.stores } else { &acc.loads };
        if !spans.contains_range(lo, hi) {
            let mut out = self.outcome.borrow_mut();
            if out.errors.len() < Self::MAX_ERRORS {
                let what = if is_write { "write" } else { "read" };
                let (iter, site, kind) = self
                    .schedule
                    .get(self.cursor)
                    .map_or((usize::MAX, usize::MAX, "past-end"), |s| {
                        (s.iter, s.site, kind_name(s))
                    });
                out.errors.push(format!(
                    "{}: pid {pid} {what} [{lo:#x},{hi:#x}) outside plan at epoch {} \
                     (iter {iter} site {site} {kind})",
                    self.plan.app, self.cursor,
                ));
            }
        }
    }
}

fn kind_name(s: &EpochSpec) -> &'static str {
    match s.kind {
        crate::schedule::EpochKind::Body => "body",
        crate::schedule::EpochKind::ReduceCombine => "combine",
        crate::schedule::EpochKind::Tail => "tail",
    }
}

impl CheckSink for PlanSink {
    fn on_event(&mut self, ev: CheckEvent<'_>) {
        match ev {
            CheckEvent::Read { pid, addr, data } => self.check(pid, addr, data.len(), false),
            CheckEvent::Write { pid, addr, data } => self.check(pid, addr, data.len(), true),
            CheckEvent::UpdateFlush {
                writer,
                page,
                copyset,
                pushes,
                diff,
            } => {
                self.bucket.push((writer as u16, page, copyset.clone()));
                let payload = diff.payload_bytes();
                let mut out = self.outcome.borrow_mut();
                out.flush_msgs += pushes as u64;
                out.flush_words += (pushes * payload) as u64 / ESIZE;
                // `Diff::wire_bytes`: a page header, then a header per run.
                out.flush_runs += (pushes * (diff.wire_bytes() - 8 - payload)) as u64 / 8;
            }
            CheckEvent::VersionBump { .. } | CheckEvent::NoticeRecord { .. } => {
                self.outcome.borrow_mut().notices += 1;
            }
            CheckEvent::BarrierRelease { .. } => {
                let mut bucket = core::mem::take(&mut self.bucket);
                bucket.sort_unstable();
                let mut out = self.outcome.borrow_mut();
                out.observed_flushes.push(bucket);
                out.barriers_seen += 1;
                drop(out);
                self.cursor += 1;
                for c in &mut self.cache {
                    *c = None;
                }
            }
            _ => {}
        }
    }
}
