//! The barrier engine.
//!
//! A barrier has five stages: per-process end-of-epoch consistency work
//! (diff creation, flushes), arrival messages at the master, master
//! processing (merge + optional native reduction), release messages, and
//! per-process post-release work (flush application, update application,
//! invalidation). Virtual time flows through the same stages: the release
//! time is the latest arrival plus master work, and everyone's wait is
//! charged to the `wait` bucket, exactly as the paper's Figure 3 accounts
//! it.

use dsm_net::ReliableKind;
use dsm_sim::{Category, Time};
use dsm_vm::Pages;

use crate::check::CheckEvent;
use crate::config::ProtocolKind;
use crate::drive::cluster::Cluster;
use crate::drive::reduce::ReduceOp;
use crate::proto::bar::BUMP_WIRE_BYTES;
use crate::proto::notice::{WriteNotice, NOTICE_WIRE_BYTES};
use crate::proto::overdrive::OdMode;

impl Cluster {
    /// An application-level barrier ending the current phase, optionally
    /// carrying a reduction (per-process contribution vectors).
    pub fn barrier_app(&mut self, reduce: Option<(ReduceOp, Vec<Vec<f64>>)>) {
        self.barrier_enter();
        match reduce {
            Some((op, contribs)) if !self.cfg.protocol.native_reductions() => {
                // Homeless protocols: SUIF-style shared-memory emulation
                // (includes its own internal barriers).
                self.reduce_emulated(op, &contribs);
            }
            other => self.barrier_checked(other),
        }
        if self.pruned {
            // Pruned mid-barrier: skip the remaining protocol work (the
            // panic-unwind path used to); state past here is unspecified.
            return;
        }
        self.barrier_leave();
    }

    /// One protocol barrier followed by the exploration checkpoint.
    pub(crate) fn barrier_checked(&mut self, reduce: Option<(ReduceOp, Vec<Vec<f64>>)>) {
        self.barrier_core(reduce);
        self.explore_barrier_checkpoint();
    }
}

/// The three stages of an application-level barrier that need no page
/// bytes. [`Cluster::barrier_app`] runs them around the reduction
/// dispatch; a dataless instantiation calls them directly.
impl<S: Pages> Cluster<S> {
    /// Overdrive bookkeeping for the epoch that just ended.
    pub fn barrier_enter(&mut self) {
        assert!(self.distributed, "barrier before distribute()");
        if self.cfg.protocol.is_overdrive() && self.od_mode == OdMode::Learning {
            self.od_record(self.site);
        }
    }

    /// Post-barrier work — migration, overdrive arming, homeless GC — and
    /// the advance to the next phase site.
    pub fn barrier_leave(&mut self) {
        let ending_site = self.site;
        let phases = self.phases_per_iter;
        if self.cfg.protocol.is_bar() {
            // The migration decision is ready at the end of the first
            // iteration; the default executes it immediately (today's
            // timing), while an exploring scheduler may defer it across
            // later barriers to probe migration-timing interleavings.
            let decision_ready = ending_site + 1 == phases && self.iter == 0;
            if !self.migrated && self.cfg.migration && (decision_ready || self.migration_pending) {
                let defer = self.exploring && {
                    let iter = self.iter;
                    self.sched.borrow_mut().defer_migration(iter)
                };
                self.migration_pending = defer;
                if !defer {
                    self.bar_migrate();
                }
            }
            if self.cfg.protocol.is_overdrive() {
                if self.od_revert_pending && self.od_mode == OdMode::Overdrive {
                    self.od_do_revert();
                }
                if ending_site + 1 == phases {
                    self.od_iteration_boundary();
                }
                if self.od_mode == OdMode::Overdrive {
                    let next_site = (ending_site + 1) % phases;
                    self.od_arm(next_site);
                }
            }
        }
        if self.cfg.protocol.is_lmw() {
            self.lmw_maybe_gc();
        }

        self.site = (ending_site + 1) % phases;
        if self.site == 0 {
            self.iter += 1;
        }
    }

    /// One protocol barrier (no site bookkeeping — also used by the
    /// reduction emulation's internal barriers).
    pub fn barrier_core(&mut self, reduce: Option<(ReduceOp, Vec<Vec<f64>>)>) {
        self.stats.barriers += 1;

        if self.cfg.protocol == ProtocolKind::Seq {
            if let Some((op, contribs)) = reduce {
                self.emit(CheckEvent::Reduction {
                    op: op.label(),
                    len: contribs[0].len(),
                });
                self.last_reduction = op.fold(&contribs);
            }
            let epoch = self.epoch;
            self.emit(CheckEvent::BarrierArrive { pid: 0, epoch });
            self.emit(CheckEvent::BarrierRelease { epoch });
            self.epoch += 1;
            return;
        }

        let n = self.nprocs();
        let master = 0usize;
        let is_lmw = self.cfg.protocol.is_lmw();
        let reprotect =
            !(self.cfg.protocol == ProtocolKind::BarM && self.od_mode == OdMode::Overdrive);

        // 1. End-of-epoch consistency work, in arrival order (the queueing
        //    order of the in-flight flushes; canonical `0..n` by default).
        let order = self.arrival_order(n);
        let mut merged_notices: Vec<WriteNotice> = Vec::new();
        let mut payloads = vec![0usize; n];
        for pid in order {
            payloads[pid] = if is_lmw {
                let before = merged_notices.len();
                self.lmw_pre_barrier(pid, &mut merged_notices);
                (merged_notices.len() - before) * NOTICE_WIRE_BYTES
            } else {
                self.bar_pre_barrier(pid, reprotect) * BUMP_WIRE_BYTES
            };
        }
        merged_notices.sort_by_key(|w| (w.epoch, w.page, w.writer));
        for n in &merged_notices {
            let i = n.page_id().index();
            if n.epoch >= self.last_write_epoch[i] {
                self.last_write_epoch[i] = n.epoch;
                self.last_writer[i] = n.writer;
            }
        }

        let red_k = reduce.as_ref().map_or(0, |(_, c)| c[0].len());
        let red_payload = red_k * 8;

        // 2. Arrivals.
        for pid in 0..n {
            let epoch = self.epoch;
            self.emit(CheckEvent::BarrierArrive { pid, epoch });
        }
        let mut land = self.procs[master].clock.now();
        for (pid, payload) in payloads.iter().enumerate().skip(1) {
            let sent_at = self.procs[pid].clock.now();
            let tr = self.net.send_reliable(
                pid,
                master,
                ReliableKind::BarrierArrive,
                payload + red_payload,
                sent_at,
            );
            self.charge(pid, Category::Os, tr.sender);
            land = land.max(sent_at + tr.sender + tr.wire);
            // Retransmission overhead delays the master's release: the
            // annex lands on the clock that ends up waiting.
            self.procs[master].clock.note_retrans(tr.retrans_wait);
            self.note_attempts(pid, master, tr.attempts);
            self.charge(master, Category::Sigio, tr.receiver);
        }
        self.procs[master].clock.wait_until(land);

        // 3. Master processing: merge + optional native reduction.
        let costs = &self.cfg.sim.costs;
        let mut master_work = costs.barrier_master_per_proc_ns * (n as u64 - 1);
        master_work += costs.write_notice_ns
            * if is_lmw {
                merged_notices.len() as u64
            } else {
                self.bar_deliveries.bumps.len() as u64
            };
        if red_k > 0 {
            master_work += costs.reduction_combine_ns * (n as u64) * red_k as u64;
        }
        self.charge(master, Category::Sigio, Time::from_ns(master_work));
        if let Some((op, contribs)) = reduce {
            self.emit(CheckEvent::Reduction {
                op: op.label(),
                len: contribs[0].len(),
            });
            self.last_reduction = op.fold(&contribs);
        }

        // 4. Releases.
        let release_payload = if is_lmw {
            merged_notices.len() * NOTICE_WIRE_BYTES
        } else {
            self.bar_deliveries.bumps.len() * BUMP_WIRE_BYTES
        } + red_payload;
        for pid in 1..n {
            let sent_at = self.procs[master].clock.now();
            let tr = self.net.send_reliable(
                master,
                pid,
                ReliableKind::BarrierRelease,
                release_payload,
                sent_at,
            );
            self.charge(master, Category::Os, tr.sender);
            let deliver_at = sent_at + tr.sender + tr.wire;
            // A retransmitted release stalls the released process, not the
            // master: annotate the waiter's clock.
            self.procs[pid].clock.note_retrans(tr.retrans_wait);
            self.note_attempts(master, pid, tr.attempts);
            self.procs[pid].clock.wait_until(deliver_at);
            self.charge(pid, Category::Os, tr.receiver);
        }

        // 5. Post-release consistency work. Every process receives the
        //    same merged notices: the cluster files them once.
        if is_lmw {
            self.notice_log.append(&merged_notices);
        }
        for pid in 0..n {
            if is_lmw {
                self.lmw_post_release(pid, &merged_notices);
            } else {
                self.bar_post_release(pid);
            }
            let local = Time::from_ns(self.cfg.sim.costs.barrier_local_ns);
            self.charge(pid, Category::Os, local);
            self.procs[pid].protect_ops_epoch = 0;
        }

        debug_assert!(self.procs.iter().all(|p| p.inbox.is_empty()));
        self.bar_deliveries.bumps.clear();
        self.bar_deliveries.writer_bumps.clear();
        let epoch = self.epoch;
        self.emit(CheckEvent::BarrierRelease { epoch });
        self.epoch += 1;
    }
}
