//! The cluster: per-process state, the shared-memory access path, fault
//! dispatch, and measurement windows.
//!
//! The cluster owns every simulated process, the golden initial image of
//! the shared segment, and all protocol-global state (homes, version
//! indices, copysets). Applications run *barrier-synchronously*: within an
//! epoch each process's phase body executes in turn against its own page
//! copies — sound for data-race-free programs under LRC, because no process
//! may observe another's same-epoch writes — and the barrier engine
//! (`drive::barrier`) performs the protocol exchange between epochs.

use std::cell::RefCell;
use std::rc::Rc;

use dsm_net::{Network, ReliableKind};
use dsm_sim::{
    Category, Clock, DetRng, SharedScheduler, SnapError, SnapReader, SnapWriter, Sparse, State,
    StateHasher, Time, VirtualTimeScheduler,
};
use dsm_vm::{as_bytes, FaultKind, Image, PageBuf, PageId, PageStore, Pages, Pod, Protection};

use crate::check::{CheckEvent, CheckSink};
use crate::config::{ProtocolKind, RunConfig};
use crate::drive::stats::{RunReport, RunStats};
use crate::mem::SharedSegment;
use crate::proto::bar::{BarDeliveries, Delivery};
use crate::proto::copyset::CopySet;
use crate::proto::lmw::LmwProc;
use crate::proto::notice::NoticeLog;
use crate::proto::overdrive::{OdMode, OdProc};

/// One simulated process.
pub struct Proc<S: Pages = PageStore> {
    pub(crate) clock: Clock,
    pub(crate) store: S,
    /// Pages write-trapped (or overdrive-predicted) this epoch, in order.
    pub(crate) dirty: Vec<PageId>,
    /// Protection changes issued this epoch (stress-model input).
    pub(crate) protect_ops_epoch: u32,
    /// Homeless-protocol per-process state.
    pub lmw: LmwProc<S::Diff>,
    /// Overdrive per-process state.
    pub(crate) od: OdProc,
    /// One-way messages addressed to this process, queued by `publish`
    /// during the pre-barrier step and drained (capacity kept) at release.
    pub inbox: Vec<Delivery<S::Diff>>,
}

// Virtual time is excluded from the hash by design: the clock and the
// per-epoch mprotect count (a stress-model input) only ever feed costs,
// never control flow or the checker.
dsm_sim::impl_state!(Proc<PageStore> {
    timing: clock;
    state: store, dirty;
    timing: protect_ops_epoch;
    state: lmw, od;
    // Empty between steps: filled and drained inside one barrier.
    scratch: inbox;
});

impl<S: Pages> Proc<S> {
    fn new(page_size: usize) -> Proc<S> {
        Proc {
            clock: Clock::new(),
            store: S::new(page_size),
            dirty: Vec::new(),
            protect_ops_epoch: 0,
            lmw: LmwProc::default(),
            od: OdProc::default(),
            inbox: Vec::new(),
        }
    }
}

/// The simulated DSM cluster, generic over what a page *is* and nothing
/// else: over [`PageStore`] (the default) it is the runtime; over
/// `dsm-plan`'s dataless page digests the same protocol code is the static
/// predictor.
// The flags are genuinely independent (exploring, migrated,
// migration_pending, ...), not an encoded state machine.
#[allow(clippy::struct_excessive_bools)]
pub struct Cluster<S: Pages = PageStore> {
    pub(crate) cfg: RunConfig,
    pub(crate) seg: SharedSegment,
    /// Golden initial contents of every page (what setup wrote), frozen
    /// at `distribute()` and shared with every process's page store.
    pub(crate) image: Image,
    pub(crate) procs: Box<[Proc<S>]>,
    pub(crate) net: Network,
    pub(crate) stats: RunStats,
    /// Barrier counter; the epoch between barriers `k-1` and `k` is `k`.
    pub(crate) epoch: u64,
    pub(crate) iter: usize,
    pub(crate) site: usize,
    pub(crate) phases_per_iter: usize,
    /// Per-page home process (bar protocols).
    pub(crate) homes: Vec<usize>,
    /// Per-page version index, logically maintained by the home.
    pub(crate) versions: Vec<u32>,
    /// Per-page copysets, home-maintained and globally distributed at
    /// barriers (bar-u family). Sparse: a page gets an entry the first
    /// time any process caches it, so resident memory tracks actual
    /// sharing — O(shared pages × sharers) — never O(nodes × pages).
    pub(crate) copysets: Sparse<u32, CopySet>,
    /// Latest epoch in which each page was (noticed as) written, and by
    /// whom — maintained from merged barrier notices (homeless protocols).
    pub(crate) last_write_epoch: Vec<u64>,
    pub(crate) last_writer: Vec<u16>,
    /// Every merged write notice since the last GC, filed once for all
    /// processes, with each one's consumption cursors (homeless protocols).
    pub(crate) notice_log: NoticeLog,
    /// Writers observed during the first iteration (migration input).
    /// Sparse: entries exist only for pages somebody wrote.
    pub(crate) iter_writers: Sparse<u32, CopySet>,
    /// Write-epoch counts, keyed by (page, pid); entries exist only for
    /// pairs that actually wrote (the dense predecessor was a
    /// `page * nprocs + pid` flattened vector — O(nodes × pages)).
    pub(crate) iter_write_counts: Sparse<(u32, u16), u32>,
    pub(crate) migrated: bool,
    /// Overdrive cluster mode.
    pub(crate) od_mode: OdMode,
    pub(crate) od_revert_pending: bool,
    /// The version bumps the barrier in progress carries.
    pub(crate) bar_deliveries: BarDeliveries,
    /// Retained-capacity scratch, empty between uses: the pushes one
    /// `publish` sends, the writer names one self-validation compares.
    pub(crate) pushes: Vec<(usize, S::Diff)>,
    pub(crate) names: Vec<usize>,
    pub(crate) measuring: bool,
    /// Result of the most recent reduction, visible to all processes.
    pub(crate) last_reduction: Vec<f64>,
    /// Hidden shared arrays backing reduction emulation on lmw.
    pub(crate) reduce_mem: Option<crate::drive::reduce::ReduceMem>,
    pub(crate) distributed: bool,
    /// Optional checking sink; `None` (the default) costs one branch per
    /// choke point and leaves the run bit-identical to an unchecked one.
    pub(crate) check: Option<Box<dyn CheckSink>>,
    /// Decision scheduler shared with the network. The default
    /// [`VirtualTimeScheduler`] reproduces historical behaviour exactly;
    /// `dsm-explore` installs an enumerating one.
    pub(crate) sched: SharedScheduler,
    /// Cached `sched.exploring()` so the default path pays one branch per
    /// choice point and never constructs candidates.
    pub(crate) exploring: bool,
    /// Set when an exploring scheduler declines to continue at a barrier
    /// checkpoint: the execution is abandoned — callers unwind by early
    /// return, skipping all remaining protocol work, and the driver
    /// discards (or restores over) the now-inconsistent cluster.
    pub(crate) pruned: bool,
    /// Incremental hash of every event emitted so far (exploration only);
    /// folded into the visited-set key so pruning can never hide a checker
    /// verdict.
    pub(crate) trace_hash: u64,
    /// A migration decision was ready but the scheduler deferred it to a
    /// later barrier (exploration only; always false on the default path).
    pub(crate) migration_pending: bool,
    /// Host-side free-lists recycling twin buffers and diff run storage
    /// across flushes. Pure wall-clock optimization: pooled memory is
    /// always fully overwritten before reuse and carries no virtual cost.
    pub(crate) pool: S::Pool,
}

// What a snapshot carries and what the explorer's structural hash folds,
// field by field. Two executions with equal hashes agree on every byte of
// every resident frame and twin on every process (plus protections,
// versions seen and applied-through floors), on all protocol-global
// tables, on all homeless per-process state, and — through `trace_hash`,
// which the barrier checkpoint folds in — on the event trace the checking
// sink has observed, so a pruned execution can never hide a verdict the
// retained one would not also reach. Virtual *time* is deliberately not
// hashed: clocks and cost statistics never influence control flow or the
// checker, so schedules that differ only in timing are
// correctness-equivalent.
dsm_sim::impl_state!(Cluster<PageStore> {
    // Re-supplied by construction, setup and the installers; `restore`
    // checks the page size and the image digest instead of shipping them.
    config: cfg, image, distributed, check, exploring, pool;
    state: epoch, iter, site;
    // Run-progress values that are functions of what is already hashed
    // (the allocation map and reduction windows grow at fixed points of
    // the run; `measuring` flips at the warmup boundary), wire and cost
    // bookkeeping, and the scheduler's generator stream.
    timing: phases_per_iter, seg, stats, net, measuring, reduce_mem, sched, trace_hash;
    state: homes, versions, copysets, last_write_epoch, last_writer, iter_writers,
        iter_write_counts, migrated, od_mode, od_revert_pending, migration_pending,
        last_reduction, procs, notice_log;
    // Empty between steps: the ledger is cleared inside the barrier, and
    // a restored execution is live again however the last excursion ended.
    scratch: bar_deliveries, pushes, names, pruned;
});

impl<S: Pages> Cluster<S> {
    /// Build an empty cluster; allocate shared data through a
    /// [`crate::drive::ctx::SetupCtx`], then call [`Cluster::distribute`].
    pub fn new(cfg: RunConfig) -> Cluster<S> {
        let errs = cfg.sim.validate();
        assert!(errs.is_empty(), "invalid config: {errs:?}");
        let nprocs = cfg.sim.nprocs;
        let page_size = cfg.sim.page_size;
        let rng = DetRng::new(cfg.sim.seed);
        // The same derived stream the network always consumed, now behind
        // the scheduler trait: bit-identical to the pre-scheduler code.
        let sched: SharedScheduler =
            Rc::new(RefCell::new(VirtualTimeScheduler::new(rng.derive(0xA11CE))));
        #[expect(
            clippy::disallowed_methods,
            reason = "the engine's one Network: every verb call site lives in dsm-core"
        )]
        let net = Network::with_transport(
            nprocs.max(2), // a 1-proc baseline still constructs a network
            cfg.sim.costs.clone(),
            cfg.sim.flush_drop_prob,
            cfg.sim.fault.clone(),
            cfg.sim.transport,
            cfg.sim.rdma.clone(),
            Rc::clone(&sched),
        );
        Cluster {
            seg: SharedSegment::new(page_size),
            image: Image::new(page_size),
            procs: (0..nprocs).map(|_| Proc::new(page_size)).collect(),
            net,
            stats: RunStats::default(),
            epoch: 1,
            iter: 0,
            site: 0,
            phases_per_iter: 1,
            homes: Vec::new(),
            versions: Vec::new(),
            copysets: Sparse::default(),
            last_write_epoch: Vec::new(),
            last_writer: Vec::new(),
            notice_log: NoticeLog::new(nprocs),
            iter_writers: Sparse::default(),
            iter_write_counts: Sparse::default(),
            migrated: false,
            od_mode: OdMode::Learning,
            od_revert_pending: false,
            bar_deliveries: BarDeliveries::default(),
            pushes: Vec::new(),
            names: Vec::new(),
            measuring: false,
            last_reduction: Vec::new(),
            reduce_mem: None,
            distributed: false,
            check: None,
            sched,
            exploring: false,
            pruned: false,
            trace_hash: 0,
            migration_pending: false,
            pool: S::Pool::default(),
            cfg,
        }
    }

    /// Install a decision scheduler (shared with the network). Install
    /// before [`Cluster::distribute`] so every post-setup decision flows
    /// through it; the replaced default scheduler's RNG stream is
    /// abandoned whole, not resumed.
    pub fn install_scheduler(&mut self, sched: SharedScheduler) {
        assert!(!self.distributed, "install scheduler before distribute()");
        self.exploring = sched.borrow().exploring();
        self.net.set_scheduler(Rc::clone(&sched));
        self.sched = sched;
    }

    /// Install a checking sink. Install before setup to observe the
    /// initial-image writes; the sink then receives every access, barrier,
    /// and protocol event until removed.
    pub fn install_check_sink(&mut self, sink: Box<dyn CheckSink>) {
        self.check = Some(sink);
    }

    /// Remove and return the installed checking sink, if any.
    pub fn take_check_sink(&mut self) -> Option<Box<dyn CheckSink>> {
        self.check.take()
    }

    /// Forward one event to the installed sink, if any. Exploration also
    /// folds every event into the running trace hash (see `drive::hash`).
    #[inline]
    pub(crate) fn emit(&mut self, ev: CheckEvent<'_>) {
        if self.exploring {
            self.trace_hash = crate::drive::hash::fold_event(self.trace_hash, &ev);
        }
        if let Some(sink) = self.check.as_mut() {
            sink.on_event(ev);
        }
    }

    /// Number of processes.
    pub fn nprocs(&self) -> usize {
        self.procs.len()
    }

    /// True once an exploring scheduler has pruned this execution; the
    /// cluster's state is then unspecified until restored or discarded.
    pub fn pruned(&self) -> bool {
        self.pruned
    }

    /// The running fold over every check event emitted while exploring
    /// (zero outside exploration). Two executions with equal trace hashes
    /// emitted bit-identical event streams — the equivalence oracle the
    /// checkpoint-restore DFS debug-asserts against.
    pub fn trace_hash(&self) -> u64 {
        self.trace_hash
    }

    /// Current iteration of the time-step loop.
    pub fn cur_iter(&self) -> usize {
        self.iter
    }

    /// Current phase site within the iteration.
    pub fn cur_site(&self) -> usize {
        self.site
    }

    /// The run configuration.
    pub fn config(&self) -> &RunConfig {
        &self.cfg
    }

    /// Protocol statistics for the current measurement window.
    ///
    /// The network counters live in the network layer; this snapshot merges
    /// them in (use this rather than field access when reporting live).
    pub fn stats(&self) -> RunStats {
        let mut s = self.stats.clone();
        s.net = self.net.stats().clone();
        s
    }

    /// Diffs currently retained across all processes (homeless protocols
    /// hold them until GC; home-based protocols drop them within the
    /// barrier, so this is 0 for them between barriers).
    pub fn retained_diffs(&self) -> usize {
        self.procs.iter().map(|p| p.lmw.retained_diffs()).sum()
    }

    /// True while an overdrive protocol is running trap-free.
    pub fn overdrive_engaged(&self) -> bool {
        self.od_mode == OdMode::Overdrive
    }

    /// Per-page home process (all zero outside the bar family).
    pub fn homes(&self) -> &[usize] {
        &self.homes
    }

    /// Process `pid`'s own state, for inspection.
    pub fn proc(&self, pid: usize) -> &Proc<S> {
        &self.procs[pid]
    }

    /// Every copyset table entry as `(page, writer, members)`, unordered:
    /// the home-maintained set per page (bar update family, no writer) and
    /// each process's own view of who caches the pages it writes (lmw-u).
    pub fn copysets(&self) -> impl Iterator<Item = (u32, Option<u16>, &CopySet)> {
        let per_page = self.copysets.iter().map(|(&pg, cs)| (pg, None, cs));
        let per_writer = self.procs.iter().enumerate().flat_map(|(w, p)| {
            let w = Some(w as u16);
            p.lmw.copysets.iter().map(move |(&pg, cs)| (pg, w, cs))
        });
        per_page.chain(per_writer)
    }
}

impl Cluster {
    // ------------------------------------------------------------------
    // Manual driving (alternative to the DsmApp runner)
    // ------------------------------------------------------------------

    /// Allocation/initialization context; use before [`Cluster::distribute`].
    pub fn setup_ctx(&mut self) -> crate::drive::ctx::SetupCtx<'_> {
        crate::drive::ctx::SetupCtx { cl: self }
    }

    /// Execution context for process `pid` (one phase body at a time;
    /// separate the epochs with [`Cluster::barrier_app`]).
    pub fn exec_ctx(&mut self, pid: usize) -> crate::drive::ctx::ExecCtx<'_> {
        assert!(pid < self.nprocs(), "no process {pid}");
        crate::drive::ctx::ExecCtx { cl: self, pid }
    }

    /// Uncharged snapshot-read context for verification.
    pub fn check_ctx(&self) -> crate::drive::ctx::CheckCtx<'_> {
        crate::drive::ctx::CheckCtx { cl: self }
    }
}

impl<S: Pages> Cluster<S> {
    /// Declare the number of barrier phases per iteration (the overdrive
    /// protocols predict per phase site). The [`crate::drive::app::run_app`]
    /// runner sets this from the application automatically.
    pub fn set_phases_per_iter(&mut self, phases: usize) {
        self.phases_per_iter = phases.max(1);
    }

    /// Current page-size granularity.
    #[inline]
    pub(crate) fn page_size(&self) -> usize {
        self.cfg.sim.page_size
    }

    // ------------------------------------------------------------------
    // Setup and distribution
    // ------------------------------------------------------------------

    /// Reserve `bytes` of shared segment under `name` and grow the
    /// per-page tables to cover it; returns the base address. Pages
    /// allocated after `distribute()` are zero-initialized, which is what
    /// the frozen image reads as past its end.
    pub fn alloc(&mut self, name: &str, bytes: usize) -> usize {
        let base = self.seg.alloc(name, bytes);
        let n = self.seg.npages();
        self.homes.resize(n, 0);
        self.versions.resize(n, 1);
        // copysets / iter_writers / iter_write_counts are sparse maps:
        // entries appear lazily on first sharing, never here.
        self.last_write_epoch.resize(n, 0);
        self.last_writer.resize(n, 0);
        for p in &mut self.procs {
            p.store.ensure_pages(n);
        }
        base
    }

    /// Finish setup: freeze the initial image as the distributed state.
    ///
    /// Every process logically receives a valid read-only copy of every
    /// initialized page (the paper excludes startup distribution from its
    /// measurements, and so do we — frames materialize lazily from the
    /// image on first touch).
    pub fn distribute(&mut self) {
        assert!(!self.distributed, "distribute() called twice");
        self.image.freeze();
        for p in &mut self.procs {
            p.store.share_image(self.image.clone());
        }
        self.distributed = true;
    }
}

impl Cluster {
    // ------------------------------------------------------------------
    // Snapshot, restore, structural hash: all three walk the `State`
    // declarations, from `Cluster` down
    // ------------------------------------------------------------------

    /// Serialize the cluster's complete observable state — protocol
    /// tables, per-process page frames, virtual-time clocks, in-flight
    /// wire state, scheduler RNG. The cluster must be at a step boundary:
    /// `distribute()` done, no barrier in progress, which is exactly
    /// where the explore driver checkpoints.
    pub fn snapshot(&self, w: &mut SnapWriter) {
        assert!(self.distributed, "snapshot before distribute()");
        w.usize(self.page_size());
        w.u64(self.image.digest());
        self.encode(w);
    }

    /// Restore a [`Cluster::snapshot`] capture in place, so that
    /// continuing from here is bit-identical (same `state_hash`, same
    /// check-event trace, same results) to continuing from the original.
    /// The cluster must have been built from the same [`RunConfig`] and
    /// have completed the same setup; everything mutable past that point
    /// is overwritten. After an error the cluster is partially
    /// overwritten and only fit to be restored over again.
    pub fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        assert!(self.distributed, "restore before distribute()");
        let page_size = r.u64()?;
        r.geometry("page size", self.page_size() as u64, page_size)?;
        let digest = r.u64()?;
        r.geometry("initial image", self.image.digest(), digest)?;
        self.decode(r)
    }

    /// Structural 64-bit hash of everything that can influence future
    /// control flow or checker verdicts: the `state` fields of the
    /// [`State`] declarations. Stateless model checking keys its visited
    /// set on this (combined with the trace hash) at every barrier.
    ///
    /// Per-frame hashes are served from each frame's revision-keyed memo:
    /// at a barrier only frames mutated since the previous one are
    /// re-walked, turning the explorer's dominant cost from O(total
    /// resident memory) to O(mutated memory) per checkpoint.
    pub fn state_hash(&self) -> u64 {
        let mut h = StateHasher::new();
        self.fold(&mut h);
        h.finish()
    }

    /// [`Cluster::state_hash`] recomputing every frame hash from scratch.
    /// The differential-testing reference for the frame memo: any missed
    /// invalidation makes the two disagree.
    pub fn state_hash_uncached(&self) -> u64 {
        let mut h = StateHasher::uncached();
        self.fold(&mut h);
        h.finish()
    }
}

impl<S: Pages> Cluster<S> {
    /// Begin the measurement window (the paper starts timing "only after
    /// the applications have reached a steady state").
    pub fn start_measurement(&mut self) {
        for p in &mut self.procs {
            p.clock.reset_measurement();
        }
        self.net.reset_stats();
        self.stats = RunStats::default();
        self.measuring = true;
    }

    /// Produce the report for the current measurement window.
    pub fn report(&self, app: &str, checksum: f64) -> RunReport {
        let mut stats = self.stats.clone();
        stats.net = self.net.stats().clone();
        RunReport {
            app: app.to_string(),
            protocol: self.cfg.protocol,
            nprocs: self.nprocs(),
            per_proc: self.procs.iter().map(|p| p.clock.breakdown()).collect(),
            elapsed: self
                .procs
                .iter()
                .map(|p| p.clock.measured())
                .max()
                .unwrap_or(Time::ZERO),
            segment_pages: self.seg.npages(),
            stats,
            checksum,
            seq_elapsed: None,
        }
    }

    // ------------------------------------------------------------------
    // Charging helpers
    // ------------------------------------------------------------------

    #[inline]
    pub(crate) fn charge(&mut self, pid: usize, cat: Category, t: Time) {
        self.procs[pid].clock.advance(cat, t);
    }

    /// True when data traffic rides the one-sided RDMA backend. Protocol
    /// code branches on this for the eager/lazy diff-seal split; sync
    /// traffic is pinned two-sided regardless.
    #[inline]
    pub(crate) fn one_sided(&self) -> bool {
        self.cfg.sim.transport == dsm_sim::transport::TransportKind::OneSided
    }

    /// Charge one `mprotect` with the stress multiplier and count it.
    pub(crate) fn charge_mprotect(&mut self, pid: usize) {
        let base = Time::from_ns(self.cfg.sim.costs.mprotect_ns);
        let ops = self.procs[pid].protect_ops_epoch;
        let cost = self
            .cfg
            .sim
            .stress
            .mprotect_cost(base, ops, self.seg.npages());
        self.procs[pid].protect_ops_epoch += 1;
        self.stats.mprotects += 1;
        self.charge(pid, Category::Os, cost);
    }

    /// Charge one segv delivery and count it.
    pub(crate) fn charge_segv(&mut self, pid: usize) {
        self.stats.segvs += 1;
        let t = Time::from_ns(self.cfg.sim.costs.segv_ns);
        self.charge(pid, Category::Os, t);
    }

    /// Transition `page`'s protection for `pid`, charging an `mprotect`
    /// only when the protection actually changes.
    pub(crate) fn set_prot(&mut self, pid: usize, page: PageId, prot: Protection) {
        let old = self.procs[pid].store.set_protection(page, prot);
        if old != prot {
            self.charge_mprotect(pid);
        }
    }

    /// Tell the checker that a reliable message from `src` to `dst` was
    /// retransmitted.
    pub(crate) fn note_attempts(&mut self, src: usize, dst: usize, attempts: u32) {
        if attempts > 1 {
            self.emit(CheckEvent::WireRetransmit { src, dst, attempts });
        }
    }

    /// Fetch data from `server` on `pid`'s behalf — `(kind, bytes)` of the
    /// request and of the reply — and charge both ends: the faulting
    /// process waits out the round trip (any retransmission delay of
    /// either leg included) plus `fixed`; the server pays its handler.
    pub(crate) fn fetch_from(
        &mut self,
        pid: usize,
        server: usize,
        req: (ReliableKind, usize),
        rep: (ReliableKind, usize),
        fixed: Time,
    ) {
        let prep = Time::from_ns(self.cfg.sim.costs.page_prep_ns);
        let now = self.procs[pid].clock.now();
        let d = self
            .net
            .fetch(pid, server, req.0, req.1, rep.0, rep.1, prep, now);
        self.charge(pid, Category::Wait, d.wait + fixed);
        self.procs[pid].clock.note_retrans(d.retrans_wait);
        self.note_attempts(pid, server, d.req_attempts);
        self.note_attempts(server, pid, d.rep_attempts);
        self.charge(server, Category::Sigio, d.server_cpu);
    }

    /// Two distinct processes, mutably.
    pub(crate) fn pair_mut(
        procs: &mut [Proc<S>],
        a: usize,
        b: usize,
    ) -> (&mut Proc<S>, &mut Proc<S>) {
        assert_ne!(a, b);
        if a < b {
            let (lo, hi) = procs.split_at_mut(b);
            (&mut lo[a], &mut hi[0])
        } else {
            let (lo, hi) = procs.split_at_mut(a);
            (&mut hi[0], &mut lo[b])
        }
    }

    // ------------------------------------------------------------------
    // The access path
    // ------------------------------------------------------------------

    /// Make `[addr, addr+bytes)` accessible to `pid`, faulting as needed.
    pub(crate) fn ensure_access(&mut self, pid: usize, addr: usize, bytes: usize, write: bool) {
        debug_assert!(bytes > 0);
        let shift = self.page_size().trailing_zeros();
        let first = addr >> shift;
        let last = (addr + bytes - 1) >> shift;
        for pg in first..=last {
            self.access(pid, PageId(pg as u32), write);
        }
    }

    /// Make `page` accessible to `pid`, faulting as needed, and hand back
    /// the process's page table for the access itself.
    pub fn access(&mut self, pid: usize, page: PageId, write: bool) -> &mut S {
        debug_assert!(self.distributed, "access before distribute()");
        self.materialize_pristine(pid, page);
        let mut guard = 0;
        while let Some(kind) = self.procs[pid].store.check(page, write) {
            self.handle_fault(pid, page, kind);
            guard += 1;
            assert!(guard <= 3, "fault handler made no progress on {page:?}");
        }
        &mut self.procs[pid].store
    }

    /// First touch of a page by this process: hand it the initial
    /// distributed copy. Valid only if the page is still at its initial
    /// version; otherwise the frame materializes stale-invalid and the
    /// normal fault path brings it current.
    pub(crate) fn materialize_pristine(&mut self, pid: usize, page: PageId) {
        if self.procs[pid].store.meta(page).is_some() {
            return;
        }
        let valid = match self.cfg.protocol {
            ProtocolKind::Seq => true,
            p if p.is_lmw() => self.last_write_epoch[page.index()] == 0,
            _ => self.versions[page.index()] == 1,
        };
        let prot = if valid {
            Protection::Read
        } else {
            Protection::Invalid
        };
        self.procs[pid].store.materialize(page, prot);
        // Acquiring a cached copy makes this process part of the page's
        // copyset ("bitmaps that specify which processors cache a given
        // page"); the home-based update protocols push to it from now on.
        if self.cfg.protocol.is_bar() && self.cfg.protocol.is_update() {
            self.copyset_mut(page).insert(pid);
        }
    }

    /// The copyset of `page` (empty if no process has ever cached it).
    #[inline]
    pub(crate) fn copyset(&self, page: PageId) -> &CopySet {
        static EMPTY: CopySet = CopySet::EMPTY;
        self.copysets.get(&page.0).unwrap_or(&EMPTY)
    }

    /// The copyset of `page`, materializing its (sparse) entry on first
    /// sharing.
    #[inline]
    pub(crate) fn copyset_mut(&mut self, page: PageId) -> &mut CopySet {
        self.copysets.entry(page.0).or_default()
    }

    fn handle_fault(&mut self, pid: usize, page: PageId, kind: FaultKind) {
        match self.cfg.protocol {
            ProtocolKind::Seq => {
                // Null protocol: everything is always accessible, free.
                self.procs[pid]
                    .store
                    .set_protection(page, Protection::ReadWrite);
            }
            p if p.is_lmw() => self.lmw_fault(pid, page, kind),
            _ => self.bar_fault(pid, page, kind),
        }
    }
}

impl Cluster {
    // ------------------------------------------------------------------
    // Typed element and byte-range access (used by the handles in `mem`)
    // ------------------------------------------------------------------

    /// Developer tracing: set `DSM_WATCH=<byte addr>` (debug builds only)
    /// to log every access overlapping that address with the resident
    /// value — invaluable for differential protocol debugging.
    #[cfg(debug_assertions)]
    pub(crate) fn watch_hit(&self, pid: usize, addr: usize, len: usize, what: &str) {
        static WATCH: std::sync::OnceLock<Option<usize>> = std::sync::OnceLock::new();
        #[expect(
            clippy::disallowed_methods,
            reason = "a debug-build tracing toggle: it picks which accesses are printed and \
                      changes no simulated state, traffic or result"
        )]
        let target =
            WATCH.get_or_init(|| std::env::var("DSM_WATCH").ok().and_then(|w| w.parse().ok()));
        if let Some(target) = *target {
            if addr <= target && target < addr + len {
                let ps = self.page_size();
                let page = PageId::containing(target, ps);
                let off = PageId::offset(target, ps);
                let val = self.procs[pid].store.frame(page).map(|f| {
                    f64::from_ne_bytes(f.data().bytes()[off..off + 8].try_into().unwrap())
                });
                eprintln!("[watch] {what} pid={pid} epoch={} val={val:?}", self.epoch);
            }
        }
    }

    #[cfg(not(debug_assertions))]
    pub(crate) fn watch_hit(&self, _pid: usize, _addr: usize, _len: usize, _what: &str) {}

    pub(crate) fn read_scalar<T: Pod>(&mut self, pid: usize, addr: usize) -> T {
        let sz = core::mem::size_of::<T>();
        debug_assert!(
            addr.is_multiple_of(sz),
            "scalar access must be naturally aligned (addr {addr}, size {sz})"
        );
        self.ensure_access(pid, addr, sz, false);
        let ps = self.page_size();
        let page = PageId::containing(addr, ps);
        let off = PageId::offset(addr, ps);
        let f = self.procs[pid]
            .store
            .frame(page)
            .expect("faulted page present");
        let v = f.data().typed::<T>(off..off + sz)[0];
        self.emit(CheckEvent::Read {
            pid,
            addr,
            data: as_bytes(core::slice::from_ref(&v)),
        });
        v
    }

    pub(crate) fn write_scalar<T: Pod>(&mut self, pid: usize, addr: usize, v: T) {
        let sz = core::mem::size_of::<T>();
        debug_assert!(addr.is_multiple_of(sz));
        self.ensure_access(pid, addr, sz, true);
        let ps = self.page_size();
        let page = PageId::containing(addr, ps);
        let off = PageId::offset(addr, ps);
        self.procs[pid]
            .store
            .frame_mut(page)
            .write_at(off, as_bytes(core::slice::from_ref(&v)));
        self.emit(CheckEvent::Write {
            pid,
            addr,
            data: as_bytes(core::slice::from_ref(&v)),
        });
    }

    /// Copy `out.len()` bytes starting at `addr` into `out`.
    pub(crate) fn read_bytes(&mut self, pid: usize, addr: usize, out: &mut [u8]) {
        if out.is_empty() {
            return;
        }
        self.ensure_access(pid, addr, out.len(), false);
        self.watch_hit(pid, addr, out.len(), "read ");
        let ps = self.page_size();
        let mut done = 0;
        while done < out.len() {
            let a = addr + done;
            let page = PageId::containing(a, ps);
            let off = PageId::offset(a, ps);
            let n = (ps - off).min(out.len() - done);
            let f = self.procs[pid]
                .store
                .frame(page)
                .expect("faulted page present");
            out[done..done + n].copy_from_slice(&f.data().bytes()[off..off + n]);
            done += n;
        }
        self.emit(CheckEvent::Read {
            pid,
            addr,
            data: out,
        });
    }

    /// Copy `src` into shared memory starting at `addr`.
    pub(crate) fn write_bytes(&mut self, pid: usize, addr: usize, src: &[u8]) {
        if src.is_empty() {
            return;
        }
        self.ensure_access(pid, addr, src.len(), true);
        let ps = self.page_size();
        let mut done = 0;
        while done < src.len() {
            let a = addr + done;
            let page = PageId::containing(a, ps);
            let off = PageId::offset(a, ps);
            let n = (ps - off).min(src.len() - done);
            self.procs[pid]
                .store
                .frame_mut(page)
                .write_at(off, &src[done..done + n]);
            done += n;
        }
        self.watch_hit(pid, addr, src.len(), "write");
        self.emit(CheckEvent::Write {
            pid,
            addr,
            data: src,
        });
    }

    /// Setup-time write into the golden image (uncharged, pre-distribution).
    pub(crate) fn write_image_bytes(&mut self, addr: usize, src: &[u8]) {
        assert!(!self.distributed, "image writes only before distribute()");
        let ps = self.page_size();
        let mut done = 0;
        while done < src.len() {
            let a = addr + done;
            let page = a / ps;
            let off = a % ps;
            let n = (ps - off).min(src.len() - done);
            self.image.page_mut(page).bytes_mut()[off..off + n]
                .copy_from_slice(&src[done..done + n]);
            done += n;
        }
        self.emit(CheckEvent::ImageWrite { addr, data: src });
    }

    // ------------------------------------------------------------------
    // Uncharged snapshot reads (correctness checking)
    // ------------------------------------------------------------------

    /// Reconstruct the globally current contents of `page` without charging
    /// any cost — used by result verification after a run.
    pub(crate) fn snapshot_page(&self, page: PageId) -> PageBuf {
        match self.cfg.protocol {
            ProtocolKind::Seq => self.procs[0].store.frame(page).map_or_else(
                || self.image.page(page.index()).clone(),
                |f| f.data().clone(),
            ),
            p if p.is_lmw() => self.lmw_snapshot_page(page),
            _ => {
                // Home-based: the home copy is current after the last barrier.
                let home = self.homes[page.index()];
                self.procs[home].store.frame(page).map_or_else(
                    || self.image.page(page.index()).clone(),
                    |f| f.data().clone(),
                )
            }
        }
    }

    /// Uncharged byte-range snapshot read spanning pages.
    pub(crate) fn snapshot_bytes(&self, addr: usize, out: &mut [u8]) {
        let ps = self.page_size();
        let mut done = 0;
        while done < out.len() {
            let a = addr + done;
            let page = PageId::containing(a, ps);
            let off = PageId::offset(a, ps);
            let n = (ps - off).min(out.len() - done);
            let buf = self.snapshot_page(page);
            out[done..done + n].copy_from_slice(&buf.bytes()[off..off + n]);
            done += n;
        }
    }
}
