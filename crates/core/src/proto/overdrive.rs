//! Overdrive: `bar-s` and `bar-m` (§§4–5).
//!
//! Both protocols exploit that "the set of shared data accessed by
//! individual threads is often invariant from one iteration to the next".
//! After a learning period, per-barrier-site write sets are assumed to
//! repeat:
//!
//! * **bar-s** eliminates segvs: before leaving a barrier, the pages
//!   predicted to be written in the coming epoch get their twins created
//!   and their protection set writable, so the first write never traps. At
//!   the next barrier a diff is created whether or not the write happened
//!   ("the twin and diff creations are pure overhead if the write did not
//!   happen"); zero-length diffs are simply not flushed.
//! * **bar-m** additionally eliminates mprotects: when overdrive engages,
//!   the union of all predicted write sets is made writable once, and no
//!   protection change happens again while overdrive holds. A write to a
//!   union page in the *wrong* epoch is undetectable here — "bar-m is
//!   therefore not guaranteed to maintain consistency". The cluster does
//!   not look for it: the read that observes the missed write is a stale
//!   read to `dsm-check`'s LRC oracle, like any other.
//!
//! Any trapped write during overdrive is by definition unanticipated: the
//! cluster reverts to bar-u for good at the next barrier. (The paper's
//! prototype would instead "complain loudly and exit".)

use std::collections::BTreeSet;

use dsm_sim::Category;
use dsm_vm::{PageId, Pages, Protection};

use crate::config::ProtocolKind;
use crate::drive::cluster::Cluster;

/// Full iterations of per-site write-set learning before overdrive can
/// engage; engagement additionally requires the last two observations of
/// every site to agree.
const LEARN_ITERS: usize = 2;

/// Cluster-wide overdrive mode.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OdMode {
    /// Observing write sets (protocol behaves exactly like bar-u).
    Learning,
    /// Steady state: traps eliminated per the protocol variant.
    Overdrive,
    /// Permanently fell back to bar-u after a divergence.
    Reverted,
}

dsm_sim::impl_state_enum!(OdMode {
    0 => Learning,
    1 => Overdrive,
    2 => Reverted,
});

/// Per-process overdrive state.
#[derive(Clone, Default, Debug)]
pub struct OdProc {
    /// Write sets observed this iteration, per barrier site.
    pub cur_sites: Vec<BTreeSet<u32>>,
    /// Write sets of the last completed iteration (the prediction source).
    pub prev_sites: Vec<BTreeSet<u32>>,
    /// Whether `prev_sites` holds a full iteration.
    pub have_prev: bool,
    /// bar-m: pages write-enabled for the whole overdrive phase.
    pub pre_enabled: BTreeSet<u32>,
}

dsm_sim::impl_state!(OdProc { state: cur_sites, prev_sites, have_prev, pre_enabled; });

impl OdProc {
    fn ensure_sites(&mut self, phases: usize) {
        if self.cur_sites.len() < phases {
            self.cur_sites.resize_with(phases, BTreeSet::new);
            self.prev_sites.resize_with(phases, BTreeSet::new);
        }
    }
}

impl<S: Pages> Cluster<S> {
    /// Record the write set of the epoch that just ended (learning mode).
    pub(crate) fn od_record(&mut self, site: usize) {
        let phases = self.phases_per_iter;
        for p in &mut self.procs {
            p.od.ensure_sites(phases);
            p.od.cur_sites[site] = p.dirty.iter().map(|pg| pg.0).collect();
        }
    }

    /// At an iteration boundary: check stability and possibly engage.
    ///
    /// Engagement requires [`LEARN_ITERS`] completed iterations *and* the
    /// last two iterations' write sets to agree for every process and site.
    pub(crate) fn od_iteration_boundary(&mut self) {
        if self.od_mode != OdMode::Learning {
            return;
        }
        let phases = self.phases_per_iter;
        let mut stable = true;
        for p in &mut self.procs {
            p.od.ensure_sites(phases);
            if !p.od.have_prev || p.od.cur_sites != p.od.prev_sites {
                stable = false;
            }
            core::mem::swap(&mut p.od.prev_sites, &mut p.od.cur_sites);
            for s in &mut p.od.cur_sites {
                s.clear();
            }
            p.od.have_prev = true;
        }
        if stable && self.iter + 1 >= LEARN_ITERS {
            self.od_enter();
        }
    }

    /// Engage overdrive.
    fn od_enter(&mut self) {
        self.od_mode = OdMode::Overdrive;
        if self.cfg.protocol == ProtocolKind::BarM {
            // One-time write-enable of the union of all predicted sets.
            for pid in 0..self.nprocs() {
                let union: BTreeSet<u32> = self.procs[pid]
                    .od
                    .prev_sites
                    .iter()
                    .flat_map(|s| s.iter().copied())
                    .collect();
                for pg in &union {
                    let page = PageId(*pg);
                    self.od_validate(pid, page);
                    self.set_prot(pid, page, Protection::ReadWrite);
                }
                self.procs[pid].od.pre_enabled = union;
            }
        }
    }

    /// Overdrive never twins or write-enables a copy it has not validated.
    /// A page this process writes every iteration is usually current here
    /// (it was just written and diffed) — but on a lossy wire the barrier
    /// that just ended may have invalidated it, and write-enabling it as
    /// it stands would make the stale bytes readable.
    fn od_validate(&mut self, pid: usize, page: PageId) {
        self.materialize_pristine(pid, page);
        if !self.procs[pid].store.protection(page).readable() {
            self.bar_fetch_page(pid, page);
        }
    }

    /// Arm predictions for the next epoch: twins (both variants) and write
    /// enables (bar-s only; bar-m pages are already writable).
    ///
    /// The predicted pages are pre-inserted into the dirty list, so the
    /// next barrier diffs them exactly as bar-u would have.
    pub(crate) fn od_arm(&mut self, next_site: usize) {
        debug_assert_eq!(self.od_mode, OdMode::Overdrive);
        let bar_s = self.cfg.protocol == ProtocolKind::BarS;
        let twin_cost = self.cfg.sim.costs.twin_create(self.page_size());
        for pid in 0..self.nprocs() {
            let predicted: Vec<u32> = self.procs[pid]
                .od
                .prev_sites
                .get(next_site)
                .map(|s| s.iter().copied().collect())
                .unwrap_or_default();
            for pg in predicted {
                let page = PageId(pg);
                self.od_validate(pid, page);
                // "We therefore make a twin of x and make it writable
                // before we leave barrier 1" — every predicted page is
                // twinned eagerly; for pages the home effect would not have
                // diffed, the twin is pure overhead (dropped undiffed at
                // the next barrier).
                self.procs[pid].store.refresh_twin(page, &mut self.pool);
                self.charge(pid, Category::Os, twin_cost);
                self.stats.twins += 1;
                if bar_s {
                    self.set_prot(pid, page, Protection::ReadWrite);
                } else {
                    debug_assert!(
                        self.procs[pid].store.protection(page).writable(),
                        "bar-m pre-enabled page lost write permission"
                    );
                }
                self.procs[pid].dirty.push(page);
            }
        }
    }

    /// A write trapped during overdrive: count it and revert at the next
    /// barrier.
    pub(crate) fn od_unanticipated(&mut self) {
        self.stats.overdrive_unanticipated += 1;
        self.od_revert_pending = true;
    }

    /// Execute a pending reversion: back to bar-u semantics for good.
    pub(crate) fn od_do_revert(&mut self) {
        debug_assert!(self.od_revert_pending);
        self.od_revert_pending = false;
        self.od_mode = OdMode::Reverted;
        self.stats.overdrive_reversions += 1;
        if self.cfg.protocol == ProtocolKind::BarM {
            // Restore write trapping on every pre-enabled page.
            for pid in 0..self.nprocs() {
                let pages: Vec<u32> = self.procs[pid].od.pre_enabled.iter().copied().collect();
                for pg in pages {
                    let page = PageId(pg);
                    if self.procs[pid].store.protection(page).writable() {
                        self.set_prot(pid, page, Protection::Read);
                    }
                }
                self.procs[pid].od.pre_enabled.clear();
            }
        }
    }
}
