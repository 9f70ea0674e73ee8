//! In-memory cluster checkpoints: what the explorer saves at a step
//! boundary and loads on backtrack.
//!
//! [`Cluster::save`] captures exactly what [`Cluster::snapshot`] encodes —
//! the `state` and `timing` fields of the `impl_state!` declarations — as
//! values instead of bytes. Page contents dominate that state, so each
//! process's [`StoreSave`] shares every page whose bytes did not change
//! with the checkpoint the run continued from; everything else is a plain
//! copy (a `Diff` is an O(1) handle), and [`Cluster::load`] copies it back
//! with `clone_from`, reusing the live allocations.

use dsm_net::NetSave;
use dsm_sim::{state::is_default, Clock, Sparse};
use dsm_vm::{Diff, PageId, StoreSave};

use crate::drive::cluster::{Cluster, Proc};
use crate::drive::reduce::ReduceMem;
use crate::drive::stats::RunStats;
use crate::mem::SharedSegment;
use crate::proto::bar::BarDeliveries;
use crate::proto::copyset::CopySet;
use crate::proto::lmw::LmwProc;
use crate::proto::notice::NoticeLog;
use crate::proto::overdrive::{OdMode, OdProc};

/// An in-memory capture of a [`Cluster`] ([`Cluster::save`]).
// The cluster's own flags, as independent as they are there.
#[allow(clippy::struct_excessive_bools)]
pub struct ClusterSave {
    epoch: u64,
    iter: usize,
    site: usize,
    phases_per_iter: usize,
    seg: SharedSegment,
    stats: RunStats,
    net: NetSave,
    measuring: bool,
    reduce_mem: Option<ReduceMem>,
    /// The scheduler's generator stream, if it owns one.
    rng: Option<[u64; 4]>,
    trace_hash: u64,
    homes: Vec<usize>,
    versions: Vec<u32>,
    copysets: Sparse<u32, CopySet>,
    last_write_epoch: Vec<u64>,
    last_writer: Vec<u16>,
    iter_writers: Sparse<u32, CopySet>,
    iter_write_counts: Sparse<(u32, u16), u32>,
    migrated: bool,
    od_mode: OdMode,
    od_revert_pending: bool,
    migration_pending: bool,
    last_reduction: Vec<f64>,
    procs: Box<[ProcSave]>,
    notice_log: NoticeLog,
}

/// One process's part of a [`ClusterSave`].
struct ProcSave {
    clock: Clock,
    store: StoreSave,
    dirty: Vec<PageId>,
    protect_ops_epoch: u32,
    lmw: LmwProc<Diff>,
    od: OdProc,
}

impl ClusterSave {
    /// Resident pages, over all processes, that do not share their buffers
    /// with the same page of `parent`.
    pub fn unshared_pages(&self, parent: &ClusterSave) -> usize {
        let procs = self.procs.iter().zip(parent.procs.iter());
        procs.map(|(p, q)| p.store.unshared_pages(&q.store)).sum()
    }
}

impl Proc {
    fn save(&mut self, parent: Option<&ProcSave>) -> ProcSave {
        let Proc {
            clock,
            store,
            dirty,
            protect_ops_epoch,
            lmw,
            od,
            inbox,
        } = self;
        debug_assert!(inbox.is_empty(), "inbox not empty at a step boundary");
        ProcSave {
            clock: clock.clone(),
            store: store.save(parent.map(|p| &p.store)),
            dirty: dirty.clone(),
            protect_ops_epoch: *protect_ops_epoch,
            lmw: lmw.clone(),
            od: od.clone(),
        }
    }

    fn load(&mut self, save: &ProcSave) {
        let Proc {
            clock,
            store,
            dirty,
            protect_ops_epoch,
            lmw,
            od,
            inbox,
        } = self;
        clock.clone_from(&save.clock);
        store.load(&save.store);
        dirty.clone_from(&save.dirty);
        *protect_ops_epoch = save.protect_ops_epoch;
        lmw.clone_from(&save.lmw);
        od.clone_from(&save.od);
        inbox.clear();
    }
}

impl Cluster {
    /// Capture the cluster in memory at a step boundary, for the
    /// explorer's checkpoints: what [`Cluster::snapshot`] would encode,
    /// as values. `parent` is the capture this run continued from; every
    /// page whose bytes equal the same page there shares its buffer
    /// ([`dsm_vm::PageStore::save`], which also updates the stores'
    /// host-side record of which buffer each frame equals).
    pub fn save(&mut self, parent: Option<&ClusterSave>) -> ClusterSave {
        assert!(self.distributed, "save before distribute()");
        let Cluster {
            cfg: _,
            seg,
            image: _,
            procs,
            net,
            stats,
            epoch,
            iter,
            site,
            phases_per_iter,
            homes,
            versions,
            copysets,
            last_write_epoch,
            last_writer,
            notice_log,
            iter_writers,
            iter_write_counts,
            migrated,
            od_mode,
            od_revert_pending,
            bar_deliveries,
            pushes,
            names,
            measuring,
            last_reduction,
            reduce_mem,
            distributed: _,
            check: _,
            sched,
            exploring: _,
            pruned,
            trace_hash,
            migration_pending,
            pool: _,
        } = self;
        debug_assert!(
            is_default(bar_deliveries) && pushes.is_empty() && names.is_empty() && !*pruned,
            "scratch state not empty at a step boundary"
        );
        let parent_procs = parent.map(|p| &p.procs[..]);
        ClusterSave {
            epoch: *epoch,
            iter: *iter,
            site: *site,
            phases_per_iter: *phases_per_iter,
            seg: seg.clone(),
            stats: stats.clone(),
            net: net.save(),
            measuring: *measuring,
            reduce_mem: reduce_mem.clone(),
            rng: sched.borrow().rng_state(),
            trace_hash: *trace_hash,
            homes: homes.clone(),
            versions: versions.clone(),
            copysets: copysets.clone(),
            last_write_epoch: last_write_epoch.clone(),
            last_writer: last_writer.clone(),
            iter_writers: iter_writers.clone(),
            iter_write_counts: iter_write_counts.clone(),
            migrated: *migrated,
            od_mode: *od_mode,
            od_revert_pending: *od_revert_pending,
            migration_pending: *migration_pending,
            last_reduction: last_reduction.clone(),
            procs: procs
                .iter_mut()
                .enumerate()
                .map(|(pid, p)| p.save(parent_procs.map(|q| &q[pid])))
                .collect(),
            notice_log: notice_log.clone(),
        }
    }

    /// Return to a [`Cluster::save`] capture in place, so that continuing
    /// from here is bit-identical to continuing from the original — the
    /// contract of [`Cluster::restore`]. The cluster must have been built
    /// from the same [`RunConfig`](crate::RunConfig) and completed the same
    /// setup as the one that saved.
    pub fn load(&mut self, save: &ClusterSave) {
        assert!(self.distributed, "load before distribute()");
        let Cluster {
            cfg: _,
            seg,
            image: _,
            procs,
            net,
            stats,
            epoch,
            iter,
            site,
            phases_per_iter,
            homes,
            versions,
            copysets,
            last_write_epoch,
            last_writer,
            notice_log,
            iter_writers,
            iter_write_counts,
            migrated,
            od_mode,
            od_revert_pending,
            bar_deliveries,
            pushes,
            names,
            measuring,
            last_reduction,
            reduce_mem,
            distributed: _,
            check: _,
            sched,
            exploring: _,
            pruned,
            trace_hash,
            migration_pending,
            pool: _,
        } = self;
        *epoch = save.epoch;
        *iter = save.iter;
        *site = save.site;
        *phases_per_iter = save.phases_per_iter;
        seg.clone_from(&save.seg);
        stats.clone_from(&save.stats);
        net.load(&save.net);
        *measuring = save.measuring;
        reduce_mem.clone_from(&save.reduce_mem);
        if let Some(stream) = save.rng {
            sched.borrow_mut().set_rng_state(stream);
        }
        *trace_hash = save.trace_hash;
        homes.clone_from(&save.homes);
        versions.clone_from(&save.versions);
        copysets.clone_from(&save.copysets);
        last_write_epoch.clone_from(&save.last_write_epoch);
        last_writer.clone_from(&save.last_writer);
        iter_writers.clone_from(&save.iter_writers);
        iter_write_counts.clone_from(&save.iter_write_counts);
        *migrated = save.migrated;
        *od_mode = save.od_mode;
        *od_revert_pending = save.od_revert_pending;
        *migration_pending = save.migration_pending;
        last_reduction.clone_from(&save.last_reduction);
        assert_eq!(procs.len(), save.procs.len(), "process count");
        for (p, s) in procs.iter_mut().zip(save.procs.iter()) {
            p.load(s);
        }
        notice_log.clone_from(&save.notice_log);
        *bar_deliveries = BarDeliveries::default();
        pushes.clear();
        names.clear();
        *pruned = false;
    }

    /// Take back a capture no checkpoint holds any more, so the page
    /// buffers only it held serve later saves ([`dsm_vm::PageStore::recycle`]).
    pub fn recycle(&mut self, save: ClusterSave) {
        let procs = self.procs.iter_mut().zip(save.procs.into_vec());
        for (p, s) in procs {
            p.store.recycle(s.store);
        }
    }
}
