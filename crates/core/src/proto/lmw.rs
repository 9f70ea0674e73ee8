//! Homeless multi-writer LRC: `lmw-i` and `lmw-u`.
//!
//! Faithful to §2.1 of the paper:
//!
//! * modifications are captured as diffs against twins, **lazily** — the
//!   twin accumulates across barrier epochs and the diff is only created
//!   when some consumer requests it (or when a foreign write notice forces
//!   sealing). This is the TreadMarks behaviour the paper contrasts with
//!   the home-based family ("diffs are created promptly at the end of each
//!   interval rather than lazily, as with homeless protocols");
//! * **write notices** naming the modified intervals ride on barrier
//!   messages and invalidate remote copies. Every process receives the
//!   same merged notices, so the cluster files them once, in a
//!   [`NoticeLog`](crate::proto::notice::NoticeLog) that each process
//!   consumes past its own cursor;
//! * faults fetch the named diffs from their creators and apply them to the
//!   pre-existing replica;
//! * diffs and notices are **retained indefinitely** — "no diff, nor any of
//!   the write notices that name diffs, can be discarded until
//!   garbage-collection occurs";
//! * `lmw-u` additionally pushes diffs as single unreliable flushes to the
//!   processors in the writer's per-page copyset (sealing those pages every
//!   barrier). Arriving updates are **stored, not applied**: "lmw-u does
//!   not immediately validate pages when diffs ... arrive by update.
//!   Instead, lmw merely stores updates to locally invalid pages and checks
//!   to see if all required diffs are present when the next access to that
//!   page occurs. This next access is signaled by a segmentation fault."

use dsm_net::ReliableKind;
use dsm_sim::{Category, FastMap, Time};
use dsm_vm::{Delta, Diff, FaultKind, Frame, PageBuf, PageId, Pages, Protection};

use crate::check::CheckEvent;
use crate::config::{PlantedBug, ProtocolKind};
use crate::drive::cluster::Cluster;
use crate::proto::bar::DeliveryKind;
use crate::proto::copyset::CopySet;
use crate::proto::notice::{WriteNotice, NOTICE_WIRE_BYTES};

/// A sealed diff covering this writer's modifications in the epoch range
/// `[lo, hi]`. Foreign notices force sealing, so no other process wrote the
/// page within `[lo, hi)`; concurrent writes *at* `hi` are disjoint
/// (race-free programs), which makes `(hi, lo, writer)` a sound application
/// order.
#[derive(Clone, Debug, Default)]
pub struct Segment<D> {
    pub lo: u64,
    pub hi: u64,
    pub diff: D,
}

dsm_sim::impl_state!(Segment<Diff> { state: lo, hi, diff; });

/// Per-process homeless-protocol state.
#[derive(Clone, Default, Debug)]
pub struct LmwProc<D> {
    /// Sealed segments this process created, per page, ascending `hi`.
    /// Retained until GC (the paper's "voracious appetite for memory").
    pub segments: FastMap<u32, Vec<Segment<D>>>,
    /// Pages with an accumulating (un-diffed) twin:
    /// page → (first dirty epoch, last dirty epoch).
    pub pending: FastMap<u32, (u64, u64)>,
    /// lmw-u: updates that arrived by flush: page → (writer, lo, hi, diff).
    pub pending_updates: FastMap<u32, Vec<(u16, u64, u64, D)>>,
    /// lmw-u: this process's view of who caches each page it writes.
    pub copysets: FastMap<u32, CopySet>,
    /// Per (page, writer): highest segment `hi` applied locally. Together
    /// with the frame's `applied_through` floor (raised by full-page
    /// fetches) this decides exactly which intervals still need fetching —
    /// a coarser single watermark would re-apply multi-epoch segments whose
    /// older words can clobber this process's own newer writes.
    pub applied: FastMap<(u32, u16), u64>,
}

// Map values that are vectors keep their order verbatim: it is the
// deterministic push order, observable through fetch/apply sequencing.
dsm_sim::impl_state!(LmwProc<Diff> {
    state: segments, pending, pending_updates, copysets, applied;
});

/// A diff queued to apply at a fault: (hi, lo, writer, diff), the
/// application order.
type Apply<D> = (u64, u64, u16, D);

impl<D> LmwProc<D> {
    /// The sealed segments of `page` this process still holds whose last
    /// epoch is after `since`, in ascending `hi`.
    fn segments_since(&self, page: PageId, since: u64) -> &[Segment<D>] {
        let segs = self.segments.get(&page.0).map_or(&[][..], Vec::as_slice);
        &segs[segs.partition_point(|s| s.hi <= since)..]
    }

    /// Total retained diffs (GC-pressure metric).
    pub fn retained_diffs(&self) -> usize {
        self.segments.values().map(Vec::len).sum::<usize>()
            + self.pending_updates.values().map(Vec::len).sum::<usize>()
    }
}

impl<S: Pages> Cluster<S> {
    // ------------------------------------------------------------------
    // Fault path
    // ------------------------------------------------------------------

    pub(crate) fn lmw_fault(&mut self, pid: usize, page: PageId, kind: FaultKind) {
        self.charge_segv(pid);
        if kind.needs_validation() {
            self.lmw_validate(pid, page);
        }
        if kind.is_write() {
            if !self.procs[pid].store.meta(page).is_some_and(|m| m.has_twin) {
                self.procs[pid].store.make_twin(page, &mut self.pool);
                let twin_cost = self.cfg.sim.costs.twin_create(self.page_size());
                self.charge(pid, Category::Os, twin_cost);
                self.stats.twins += 1;
            }
            let epoch = self.epoch;
            self.procs[pid]
                .lmw
                .pending
                .entry(page.0)
                .and_modify(|(_, last)| *last = epoch)
                .or_insert((epoch, epoch));
            self.set_prot(pid, page, Protection::ReadWrite);
            self.procs[pid].dirty.push(page);
        }
    }

    /// Seal `writer`'s pending accumulation for `page` into a segment,
    /// charging the page-length comparison to `cat` on `writer`'s clock.
    /// Returns false if nothing was pending.
    fn lmw_seal(&mut self, writer: usize, page: PageId, cat: Category) -> bool {
        let Some((lo, hi)) = self.procs[writer].lmw.pending.remove(&page.0) else {
            return false;
        };
        let scan = self.cfg.sim.costs.diff_create(self.page_size());
        self.charge(writer, cat, scan);
        self.stats.diffs_created += 1;
        let diff = self.procs[writer].store.seal(page, &mut self.pool);
        if diff.is_empty() {
            self.stats.empty_diffs += 1;
            S::recycle(&mut self.pool, diff);
            return true;
        }
        let segs = self.procs[writer].lmw.segments.entry(page.0).or_default();
        // `segments_since` binary-searches on this order.
        debug_assert!(
            segs.last().is_none_or(|s| s.hi <= hi),
            "segment hi went back"
        );
        segs.push(Segment { lo, hi, diff });
        true
    }

    /// Bring `pid`'s copy of `page` current: apply stored updates, fetch
    /// missing segments from their creators, apply in interval order.
    pub(crate) fn lmw_validate(&mut self, pid: usize, page: PageId) {
        let notices = self.notice_log.consume(pid, page.0);
        for n in &notices {
            self.emit(CheckEvent::NoticeConsume {
                pid,
                page: n.page,
                writer: n.writer,
                epoch: n.epoch,
            });
        }

        if notices.is_empty() {
            // Cold fault (possible after GC): fetch a full current copy
            // from the page's last writer.
            self.lmw_fetch_full(pid, page);
            return;
        }

        let floor = self.procs[pid]
            .store
            .meta(page)
            .map_or(0, |m| m.applied_through);
        let applied_w = |lmw: &LmwProc<S::Diff>, w: u16| -> u64 {
            lmw.applied
                .get(&(page.0, w))
                .copied()
                .unwrap_or(0)
                .max(floor)
        };

        let mut to_apply: Vec<Apply<S::Diff>> = Vec::new();

        // lmw-u: consult the pending-update store — this per-fault scan is
        // exactly the data-structure overhead the paper blames for
        // Barnes/swm under lmw-u.
        //
        // Coverage is per epoch *range*: a stored update for intervals
        // [lo, hi] says nothing about the same writer's earlier (or
        // dropped) intervals, which must still be fetched.
        if self.cfg.protocol == ProtocolKind::LmwU {
            let stored = self.procs[pid]
                .lmw
                .pending_updates
                .remove(&page.0)
                .unwrap_or_default();
            let lookup = Time::from_ns(self.cfg.sim.costs.update_store_lookup_ns);
            self.charge(pid, Category::Os, lookup.scale(stored.len().max(1) as u64));
            for (w, lo, hi, diff) in stored {
                if hi > applied_w(&self.procs[pid].lmw, w) {
                    to_apply.push((hi, lo, w, diff));
                } else {
                    S::recycle(&mut self.pool, diff);
                }
            }
        }
        // Until the fetches below add to it, `to_apply` is exactly the
        // stored updates — the ranges this process can cover locally.
        let planted = self.cfg.planted;
        let is_covered = |stored: &[Apply<S::Diff>], w: u16, e: u64| {
            let mut by_w = stored.iter().filter(|&&(_, _, by, _)| by == w);
            by_w.any(|&(hi, lo, ..)| match planted {
                // Seeded regression bug: pretends a stored [lo, hi]
                // update covers every epoch up to hi, so an earlier
                // dropped flush from the same writer is never fetched.
                PlantedBug::LmwUCoverageGap => e <= hi,
                // The stale-read plant lives in the pre-barrier seal
                // path, not here — coverage stays correct.
                PlantedBug::None | PlantedBug::OneSidedStaleRead => lo <= e && e <= hi,
            })
        };

        // Which writers still have intervals we cannot cover locally, and
        // what each has had applied? One `applied` lookup per writer:
        // nothing below changes it before the apply loop. Grouping by
        // writer lists them ascending.
        let fetches = {
            let mut notices = notices;
            notices.sort_unstable_by_key(|n| (n.writer, n.epoch));
            let mut fetches: Vec<(u16, u64)> = Vec::new();
            for by_w in notices.chunk_by(|a, b| a.writer == b.writer) {
                let w = by_w[0].writer;
                let since = applied_w(&self.procs[pid].lmw, w);
                if by_w
                    .iter()
                    .any(|n| n.epoch > since && !is_covered(&to_apply, w, n.epoch))
                {
                    fetches.push((w, since));
                }
            }
            fetches
        };

        let used_net = !fetches.is_empty();
        for (w, since) in fetches {
            let writer = w as usize;
            self.emit(CheckEvent::Fetch {
                pid,
                from: writer,
                page: page.0,
            });
            if !self.one_sided() {
                // The writer seals any pending accumulation on demand
                // (lazy diff creation) — served in its sigio handler. On
                // the one-sided backend there is no serve-time handler to
                // do this: segments were sealed eagerly at the writer's
                // last pre-barrier, so everything a notice can name is
                // already fetchable in place.
                self.lmw_seal(writer, page, Category::Sigio);
            }
            let segs = self.procs[writer].lmw.segments_since(page, since);
            let reply_bytes: usize = segs.iter().map(|s| s.diff.wire_bytes()).sum();
            self.fetch_from(
                pid,
                writer,
                (ReliableKind::DiffRequest, NOTICE_WIRE_BYTES),
                (ReliableKind::DiffReply, reply_bytes),
                Time::ZERO,
            );
            // The reply is handles to the writer's own segments.
            for s in self.procs[writer].lmw.segments_since(page, since) {
                // Skip duplicates of segments already covered by updates.
                if !to_apply
                    .iter()
                    .any(|(hi, lo, tw, _)| *tw == w && *hi == s.hi && *lo == s.lo)
                {
                    to_apply.push((s.hi, s.lo, w, s.diff.clone()));
                }
            }
            if self.cfg.protocol == ProtocolKind::LmwU {
                self.procs[writer]
                    .lmw
                    .copysets
                    .entry(page.0)
                    .or_default()
                    .insert(pid);
            }
        }

        // Apply in interval order: ascending hi, then ascending lo (an
        // earlier-starting segment's words are older than a same-hi
        // segment that started at hi), then writer (same-epoch concurrent
        // diffs are disjoint, so that tie is harmless).
        to_apply.sort_by_key(|(hi, lo, w, _)| (*hi, *lo, *w));
        for (_, _, _, diff) in &to_apply {
            let cost = self.cfg.sim.costs.diff_apply(diff.payload_bytes());
            self.charge(pid, Category::Os, cost);
        }
        let store = &mut self.procs[pid].store;
        for (_, _, _, diff) in &to_apply {
            store.apply_diff(page, diff);
        }
        for (hi, _, w, _) in &to_apply {
            let e = self.procs[pid].lmw.applied.entry((page.0, *w)).or_insert(0);
            *e = (*e).max(*hi);
        }
        for (_, _, _, diff) in to_apply {
            S::recycle(&mut self.pool, diff);
        }

        self.set_prot(pid, page, Protection::Read);
        if used_net {
            self.stats.remote_misses += 1;
        } else {
            self.stats.local_faults += 1;
        }
    }

    /// Full-page fetch from the page's last writer (cold fault after GC).
    fn lmw_fetch_full(&mut self, pid: usize, page: PageId) {
        let writer = self.last_writer[page.index()] as usize;
        if writer == pid || self.last_write_epoch[page.index()] == 0 {
            // Our own copy (or the initial image) is already current.
            self.set_prot(pid, page, Protection::Read);
            self.stats.local_faults += 1;
            return;
        }
        // Make sure the server's copy is current first (it may itself hold
        // stale words written by other processes).
        if !self.procs[writer].store.protection(page).readable() {
            self.lmw_validate(writer, page);
        }
        self.emit(CheckEvent::Fetch {
            pid,
            from: writer,
            page: page.0,
        });
        let fixed = Time::from_ns(self.cfg.sim.costs.page_fault_fixed_ns);
        let reply = (ReliableKind::PageReply, self.page_size());
        self.fetch_from(pid, writer, (ReliableKind::PageRequest, 0), reply, fixed);
        let epoch = self.last_write_epoch[page.index()];
        let (me, srv) = Self::pair_mut(&mut self.procs, pid, writer);
        me.store.copy_page(page, &srv.store);
        // A full copy raises the all-writers floor.
        me.store.raise_applied_through(page, epoch);
        self.set_prot(pid, page, Protection::Read);
        self.stats.remote_misses += 1;
        if self.cfg.protocol == ProtocolKind::LmwU {
            self.procs[writer]
                .lmw
                .copysets
                .entry(page.0)
                .or_default()
                .insert(pid);
        }
    }

    // ------------------------------------------------------------------
    // Barrier hooks (called by drive::barrier)
    // ------------------------------------------------------------------

    /// End-of-epoch work before arriving at the barrier: append write
    /// notices for dirty pages to `notices`; keep twins accumulating (lazy
    /// diffs) except for lmw-u copyset pages, which are sealed and flushed
    /// now.
    pub fn lmw_pre_barrier(&mut self, pid: usize, notices: &mut Vec<WriteNotice>) {
        let mut dirty = core::mem::take(&mut self.procs[pid].dirty);
        for page in dirty.drain(..) {
            // Re-arm the write trap for the next epoch; the twin survives.
            self.set_prot(pid, page, Protection::Read);
            let cs = if self.cfg.protocol == ProtocolKind::LmwU {
                self.procs[pid]
                    .lmw
                    .copysets
                    .get(&page.0)
                    .cloned()
                    .unwrap_or(CopySet::EMPTY)
            } else {
                CopySet::EMPTY
            };
            if cs.others(pid).next().is_some() {
                // Update path: seal now and push the newest segment.
                self.lmw_seal(pid, page, Category::Os);
                let seg: Option<Segment<S::Diff>> = self.procs[pid]
                    .lmw
                    .segments
                    .get(&page.0)
                    .and_then(|v| v.last())
                    .filter(|s| s.hi == self.epoch)
                    .cloned();
                let Some(seg) = seg else {
                    // The seal produced an empty diff: nothing changed, no
                    // notice, no flush.
                    continue;
                };
                notices.push(WriteNotice::new(page, pid, self.epoch));
                // Duplicated in flight, the receiver applies the same
                // absolute-valued segment twice, which is idempotent by
                // construction (the oracle checks this).
                let kind = DeliveryKind::Segment {
                    lo: seg.lo,
                    hi: seg.hi,
                };
                let copy = |_: &mut Self, _| Some(seg.diff.clone());
                self.publish(pid, page, kind, Some(&cs), &seg.diff, copy);
            } else {
                // Invalidate path: notice only; the diff stays latent in
                // the accumulating twin until someone asks — except on
                // the one-sided backend, where no serve-time handler
                // exists to seal it on demand. There the diff is sealed
                // *eagerly*, right here, so a remote read finds every
                // noticed epoch fetchable in place. (The planted
                // `OneSidedStaleRead` bug skips exactly this seal while
                // keeping the notice: the next one-sided fetch misses the
                // segment and the oracle flags the stale read.)
                if self.one_sided() && self.cfg.planted != PlantedBug::OneSidedStaleRead {
                    self.lmw_seal(pid, page, Category::Os);
                }
                notices.push(WriteNotice::new(page, pid, self.epoch));
            }
        }
        self.procs[pid].dirty = dirty; // emptied; keeps its capacity
    }

    /// Post-release work: record and act on the merged write notices, and
    /// (lmw-u) file away arriving update flushes.
    pub(crate) fn lmw_post_release(&mut self, pid: usize, merged: &[WriteNotice]) {
        let notice_cost = Time::from_ns(self.cfg.sim.costs.write_notice_ns);
        for n in merged {
            if n.writer as usize == pid {
                continue;
            }
            self.charge(pid, Category::Os, notice_cost);
            // A foreign write forces sealing of our own accumulation for
            // that page: segments of different writers must not interleave.
            if self.procs[pid].lmw.pending.contains_key(&n.page) {
                self.lmw_seal(pid, n.page_id(), Category::Os);
            }
            // Copyset heuristic: seeing p's write notice for a page this
            // process also caches means p holds (a modified copy of) the
            // page — p belongs in our copyset for it.
            if self.cfg.protocol == ProtocolKind::LmwU
                && self.procs[pid].store.meta(n.page_id()).is_some()
            {
                self.procs[pid]
                    .lmw
                    .copysets
                    .entry(n.page)
                    .or_default()
                    .insert(n.writer as usize);
            }
            self.emit(CheckEvent::NoticeRecord {
                pid,
                page: n.page,
                writer: n.writer,
                epoch: n.epoch,
            });
            if self.procs[pid].store.protection(n.page_id()).readable() {
                self.set_prot(pid, n.page_id(), Protection::Invalid);
            }
        }
        // Updates addressed to this process, flushed before the senders
        // arrived at the barrier.
        let mut inbox = self.take_inbox(pid);
        let stored = self.procs[pid].lmw.pending_updates.values();
        let resident = stored.map(Vec::len).sum::<usize>() as u64;
        for (resident, d) in (resident..).zip(inbox.drain(..)) {
            let DeliveryKind::Segment { lo, hi } = d.kind else {
                unreachable!("lmw-u publishes only segments");
            };
            self.charge(pid, Category::Sigio, d.recv);
            // Insertion slows down as the out-of-order store grows — stale
            // copyset members never drain theirs (the Barnes pathology).
            let insert_cost = Time::from_ns(
                self.cfg.sim.costs.update_store_insert_ns
                    + self.cfg.sim.costs.update_store_per_pending_ns * resident,
            );
            self.charge(pid, Category::Os, insert_cost);
            self.stats.update_inserts += 1;
            self.procs[pid]
                .lmw
                .pending_updates
                .entry(d.page.0)
                .or_default()
                .push((d.writer as u16, lo, hi, d.diff));
        }
        self.procs[pid].inbox = inbox;
    }

    /// Stop-the-world garbage collection: make every noticed page current
    /// everywhere, then discard all retained segments, notices, and stored
    /// updates.
    pub(crate) fn lmw_maybe_gc(&mut self) {
        let total: usize = self.procs.iter().map(|p| p.lmw.retained_diffs()).sum();
        if total <= self.cfg.gc_diff_threshold {
            return;
        }
        self.stats.gc_events += 1;
        let n = self.nprocs();
        for pid in 0..n {
            for pg in self.notice_log.pending_pages(pid) {
                let page = PageId(pg);
                self.materialize_pristine(pid, page);
                if !self.procs[pid].store.protection(page).readable() {
                    self.lmw_validate(pid, page);
                }
            }
        }
        let gc_per_diff = Time::from_ns(self.cfg.sim.costs.gc_per_diff_ns);
        for pid in 0..n {
            let dropped = self.procs[pid].lmw.retained_diffs() as u64;
            self.emit(CheckEvent::GcDiscard {
                pid,
                retained: dropped as usize,
            });
            self.stats.gc_diffs_discarded += dropped;
            self.charge(pid, Category::Os, gc_per_diff.scale(dropped));
            let lmw = &mut self.procs[pid].lmw;
            for (_, segs) in lmw.segments.drain() {
                for s in segs {
                    S::recycle(&mut self.pool, s.diff);
                }
            }
            for (_, ups) in lmw.pending_updates.drain() {
                for (_, _, _, d) in ups {
                    S::recycle(&mut self.pool, d);
                }
            }
            lmw.applied.clear();
        }
        self.notice_log.clear();
    }
}

impl Cluster {
    // ------------------------------------------------------------------
    // Snapshot (verification only, uncharged)
    // ------------------------------------------------------------------

    pub(crate) fn lmw_snapshot_page(&self, page: PageId) -> PageBuf {
        let p0 = &self.procs[0];
        let mut buf = p0.store.frame(page).map_or_else(
            || self.image.page(page.index()).clone(),
            |f| f.data().clone(),
        );
        let floor = p0.store.frame(page).map_or(0, Frame::applied_through);
        let applied_w = |w: u16| -> u64 {
            p0.lmw
                .applied
                .get(&(page.0, w))
                .copied()
                .unwrap_or(0)
                .max(floor)
        };
        // Gather every relevant sealed segment plus each writer's unsealed
        // accumulation (as a virtual diff), then apply in interval order.
        let notices = self.notice_log.unconsumed(0, page.0);
        let mut writers: Vec<u16> = notices.map(|n| n.writer).collect();
        writers.sort_unstable();
        writers.dedup();
        let mut to_apply: Vec<Apply<Diff>> = Vec::new();
        for w in writers {
            let since = applied_w(w);
            let proc = &self.procs[w as usize];
            for s in proc.lmw.segments_since(page, since) {
                to_apply.push((s.hi, s.lo, w, s.diff.clone()));
            }
            if let Some(&(lo, hi)) = proc.lmw.pending.get(&page.0) {
                if let Some(f) = proc.store.frame(page) {
                    if f.has_twin() && hi > since {
                        to_apply.push((hi, lo, w, f.diff_against_twin(page)));
                    }
                }
            }
        }
        to_apply.sort_by_key(|(hi, lo, w, _)| (*hi, *lo, *w));
        for (_, _, _, diff) in &to_apply {
            diff.apply_to(&mut buf);
        }
        buf
    }
}
