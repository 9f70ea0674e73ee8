//! The epoch schedule: how a plan's barrier phases map onto the epochs a
//! concrete protocol actually executes.
//!
//! For the home-based (`bar-*`) and `seq` protocols the mapping is 1:1 —
//! reductions ride natively on the barrier messages. The homeless
//! protocols emulate reductions through shared memory (see
//! `dsm_core::drive::reduce`), which turns each reduction phase into *two*
//! epochs — the phase body plus per-process slot publications, then a
//! serial combine by process 0 — with the result reads landing at the
//! start of the following epoch (or in a trailing, barrier-less epoch when
//! the reduction ends the run). The schedule spells this out so the
//! predictor and the dynamic cross-validation sink agree with the runtime
//! on epoch numbering: epoch `k` is the interval between
//! barriers `k-1` and `k`, starting at 1.

use dsm_core::ProtocolKind;

use crate::layout::{Layout, REDUCE_RESULT, REDUCE_SLOTS};
use crate::lower::{lower_access_into, Facet, SpanSet, ESIZE};
use crate::spec::{AppPlan, RowArgs};

/// What an epoch is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EpochKind {
    /// A phase body (possibly with reduction slot publications at its
    /// end).
    Body,
    /// The serial combine step of an emulated reduction: process 0 reads
    /// every slot and writes the result array.
    ReduceCombine,
    /// The barrier-less tail after a run-ending emulated reduction:
    /// everyone reads the result, then the run ends.
    Tail,
}

/// One epoch of the concrete run.
#[derive(Clone, Copy, Debug)]
pub struct EpochSpec {
    pub iter: usize,
    pub site: usize,
    pub kind: EpochKind,
    /// `Some(k)`: this epoch begins with every process reading the first
    /// `k` elements of the reduction result array (published by the
    /// combine epoch that ended just before it).
    pub result_reads: Option<usize>,
    /// `Some(k)`: this epoch ends with every process writing its `k`
    /// reduction slots.
    pub slot_writes: Option<usize>,
    /// False only for the trailing [`EpochKind::Tail`] epoch.
    pub barrier: bool,
    /// The home-migration decision fires right after this epoch's barrier
    /// (bar family, end of the first iteration).
    pub migrate_after: bool,
}

/// Expand a plan into the exact epoch sequence `protocol` executes over
/// `iters` iterations.
pub fn build_schedule(plan: &AppPlan, protocol: ProtocolKind, iters: usize) -> Vec<EpochSpec> {
    let phases = plan.phases.len().max(1);
    let emulate = !protocol.native_reductions();
    let mut out = Vec::new();
    let mut pending: Option<usize> = None;
    for iter in 0..iters {
        for site in 0..plan.phases.len() {
            let reduce = plan.phases[site].reduce.filter(|_| emulate);
            out.push(EpochSpec {
                iter,
                site,
                kind: EpochKind::Body,
                result_reads: pending.take(),
                slot_writes: reduce,
                barrier: true,
                migrate_after: protocol.is_bar() && iter == 0 && site + 1 == phases,
            });
            if let Some(k) = reduce {
                out.push(EpochSpec {
                    iter,
                    site,
                    kind: EpochKind::ReduceCombine,
                    result_reads: None,
                    slot_writes: None,
                    barrier: true,
                    migrate_after: false,
                });
                pending = Some(k);
            }
        }
    }
    if pending.is_some() {
        out.push(EpochSpec {
            iter: iters.saturating_sub(1),
            site: plan.phases.len().saturating_sub(1),
            kind: EpochKind::Tail,
            result_reads: pending,
            slot_writes: None,
            barrier: false,
            migrate_after: false,
        });
    }
    out
}

/// One process's lowered access sets for one epoch.
#[derive(Clone, Debug, Default)]
pub struct EpochAccess {
    pub loads: SpanSet,
    pub stores: SpanSet,
    /// Words whose values actually change — the diff contents. Always a
    /// subset of `stores`.
    pub mods: SpanSet,
}

/// Does `pid` modify any shared words in any body phase of iteration
/// `iter`? Decides whether its reduction-slot contribution (the residual
/// or energy of its band) changes value: a process that computes nothing
/// republishes the same value, a silent store.
fn active_in_iter(plan: &AppPlan, lay: &Layout, iter: usize, pid: usize) -> bool {
    let nprocs = lay.nprocs;
    plan.phases.iter().any(|ph| {
        ph.accesses.iter().any(|decl| {
            let arr = lay.array(decl.array);
            let args = RowArgs {
                rows: arr.rows,
                pid,
                nprocs,
                iter,
            };
            let mut mods = Vec::new();
            lower_access_into(decl, arr, &args, Facet::Mods, &mut mods);
            mods.iter().any(|&(lo, hi)| hi > lo)
        })
    })
}

/// Lower one epoch for one process against a concrete layout.
pub fn lower_epoch(plan: &AppPlan, lay: &Layout, spec: &EpochSpec, pid: usize) -> EpochAccess {
    let mut loads = Vec::new();
    let mut stores = Vec::new();
    let mut mods = Vec::new();
    let nprocs = lay.nprocs;
    match spec.kind {
        EpochKind::Body => {
            for decl in &plan.phases[spec.site].accesses {
                let arr = lay.array(decl.array);
                let args = RowArgs {
                    rows: arr.rows,
                    pid,
                    nprocs,
                    iter: spec.iter,
                };
                lower_access_into(decl, arr, &args, Facet::Loads, &mut loads);
                lower_access_into(decl, arr, &args, Facet::Stores, &mut stores);
                lower_access_into(decl, arr, &args, Facet::Mods, &mut mods);
            }
            if let Some(k) = spec.slot_writes {
                // Slot publications change value only when the process
                // computes something this iteration. A process whose body
                // phases modify no words (an empty band once `N` exceeds
                // the row count) folds over nothing and publishes the same
                // contribution every iteration — a silent store whose
                // diff is empty, producing no flush (and, on the update
                // path, no notice).
                let slots = lay.array(REDUCE_SLOTS);
                let lo = slots.base + (pid * k) as u64 * ESIZE;
                stores.push((lo, lo + k as u64 * ESIZE));
                if active_in_iter(plan, lay, spec.iter, pid) {
                    mods.push((lo, lo + k as u64 * ESIZE));
                }
            }
        }
        EpochKind::ReduceCombine => {
            if pid == 0 {
                let slots = lay.array(REDUCE_SLOTS);
                loads.push((slots.base, slots.base + slots.bytes()));
                let res = lay.array(REDUCE_RESULT);
                stores.push((res.base, res.base + res.bytes()));
                mods.push((res.base, res.base + res.bytes()));
            }
        }
        EpochKind::Tail => {}
    }
    if let Some(k) = spec.result_reads {
        let res = lay.array(REDUCE_RESULT);
        loads.push((res.base, res.base + k as u64 * ESIZE));
    }
    EpochAccess {
        loads: SpanSet::from_raw(loads),
        stores: SpanSet::from_raw(stores),
        mods: SpanSet::from_raw(mods),
    }
}

/// One page a process touches in one epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EpochTouch {
    pub page: u32,
    /// Stored to (possibly after loading); otherwise only loaded.
    pub written: bool,
}

/// Collapse lowered spans to sorted per-page touch records.
pub fn epoch_touches(acc: &EpochAccess, page_size: u64) -> Vec<EpochTouch> {
    let touch = |written| move |page| EpochTouch { page, written };
    let loads = acc.loads.pages(page_size).into_iter().map(touch(false));
    let mut out: Vec<EpochTouch> = loads.collect();
    for t in acc.stores.pages(page_size).into_iter().map(touch(true)) {
        match out.binary_search_by_key(&t.page, |o| o.page) {
            Ok(i) => out[i] = t,
            Err(i) => out.insert(i, t),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::PhasePlan;

    fn plan2(reduce_site: Option<usize>) -> AppPlan {
        let mut phases = vec![PhasePlan::default(), PhasePlan::default()];
        if let Some(s) = reduce_site {
            phases[s] = PhasePlan::default().with_reduce(1);
        }
        AppPlan {
            app: "t",
            exact: true,
            value_exact: true,
            arrays: vec![],
            phases,
        }
    }

    #[test]
    fn native_reductions_one_epoch_per_site() {
        let sched = build_schedule(&plan2(Some(1)), ProtocolKind::BarU, 3);
        assert_eq!(sched.len(), 6);
        assert!(sched.iter().all(|e| e.kind == EpochKind::Body
            && e.slot_writes.is_none()
            && e.result_reads.is_none()
            && e.barrier));
        // Migration decision after the last barrier of iteration 0.
        let migrate: Vec<usize> = sched
            .iter()
            .enumerate()
            .filter(|(_, e)| e.migrate_after)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(migrate, vec![1]);
    }

    #[test]
    fn emulated_reduction_expands_epochs() {
        // Reduce at site 1 of 2, 2 iterations: per iteration
        // body0, body1+slots, combine; result reads land in the next
        // body0, and a trailing tail epoch catches the final ones.
        let sched = build_schedule(&plan2(Some(1)), ProtocolKind::LmwU, 2);
        let kinds: Vec<EpochKind> = sched.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                EpochKind::Body,
                EpochKind::Body,
                EpochKind::ReduceCombine,
                EpochKind::Body,
                EpochKind::Body,
                EpochKind::ReduceCombine,
                EpochKind::Tail,
            ]
        );
        assert_eq!(sched[1].slot_writes, Some(1));
        assert_eq!(sched[3].result_reads, Some(1));
        assert_eq!(sched[6].result_reads, Some(1));
        assert!(!sched[6].barrier);
        assert!(sched.iter().all(|e| !e.migrate_after));
        // Barrier count: 2 iters x (1 + 2) epochs with barriers.
        assert_eq!(sched.iter().filter(|e| e.barrier).count(), 6);
    }
}
