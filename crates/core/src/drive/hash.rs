//! Exploration plumbing: the check-event trace hash, the choice points
//! the cluster offers an exploring scheduler, and the barrier checkpoint.
//!
//! Stateless model checking (see the `dsm-explore` crate) avoids
//! re-exploring continuations of states it has already seen by keying a
//! visited set, at every barrier, on [`Cluster::state_hash`] — the fold
//! of the `State` declarations — combined with the running hash of every
//! event the checking sink has observed so far (folded incrementally by
//! [`Cluster::emit`]).

use dsm_sim::{Candidate, ChoiceKind, State, StateHasher};

use crate::check::CheckEvent;
use crate::drive::cluster::Cluster;
use crate::proto::bar::{Delivery, DeliveryKind};
use dsm_vm::Pages;

/// Fold one checker event into a running trace hash.
pub(crate) fn fold_event(acc: u64, ev: &CheckEvent<'_>) -> u64 {
    let mut h = StateHasher::seeded(acc);
    match *ev {
        CheckEvent::ImageWrite { addr, data } => {
            h.byte(1);
            h.usize(addr);
            h.bytes(data);
        }
        CheckEvent::Read { pid, addr, data } => {
            h.byte(2);
            h.usize(pid);
            h.usize(addr);
            h.bytes(data);
        }
        CheckEvent::Write { pid, addr, data } => {
            h.byte(3);
            h.usize(pid);
            h.usize(addr);
            h.bytes(data);
        }
        CheckEvent::BarrierArrive { pid, epoch } => {
            h.byte(4);
            h.usize(pid);
            h.u64(epoch);
        }
        CheckEvent::BarrierRelease { epoch } => {
            h.byte(5);
            h.u64(epoch);
        }
        CheckEvent::Reduction { op, len } => {
            h.byte(6);
            h.bytes(op.as_bytes());
            h.usize(len);
        }
        CheckEvent::Fetch { pid, from, page } => {
            h.byte(7);
            h.usize(pid);
            h.usize(from);
            h.u64(u64::from(page));
        }
        // `pushes` and `diff` feed no checker verdict and follow from
        // state the structural hash covers.
        CheckEvent::UpdateFlush {
            writer,
            page,
            copyset,
            ..
        } => {
            h.byte(8);
            h.usize(writer);
            h.u64(u64::from(page));
            copyset.fold(&mut h);
        }
        CheckEvent::VersionBump { page, old, new } => {
            h.byte(9);
            h.u64(u64::from(page));
            h.u64(u64::from(old));
            h.u64(u64::from(new));
        }
        CheckEvent::NoticeRecord {
            pid,
            page,
            writer,
            epoch,
        } => {
            h.byte(10);
            h.usize(pid);
            h.u64(u64::from(page));
            h.u64(u64::from(writer));
            h.u64(epoch);
        }
        CheckEvent::NoticeConsume {
            pid,
            page,
            writer,
            epoch,
        } => {
            h.byte(11);
            h.usize(pid);
            h.u64(u64::from(page));
            h.u64(u64::from(writer));
            h.u64(epoch);
        }
        CheckEvent::GcDiscard { pid, retained } => {
            h.byte(12);
            h.usize(pid);
            h.usize(retained);
        }
        CheckEvent::DupDelivery { writer, page, dst } => {
            h.byte(13);
            h.usize(writer);
            h.u64(u64::from(page));
            h.usize(dst);
        }
        CheckEvent::WireRetransmit { src, dst, attempts } => {
            h.byte(14);
            h.usize(src);
            h.usize(dst);
            h.u64(u64::from(attempts));
        }
        CheckEvent::FalseShareElided {
            writer,
            page,
            elided,
        } => {
            h.byte(15);
            h.usize(writer);
            h.u64(u64::from(page));
            elided.fold(&mut h);
        }
    }
    h.state()
}

impl<S: Pages> Cluster<S> {
    /// Ask the scheduler for an order over `items`, one pick at a time (so
    /// the explorer sees the shrinking candidate set).
    fn pick_order<T>(&mut self, kind: ChoiceKind, mut remaining: Vec<(Candidate, T)>) -> Vec<T> {
        let mut out = Vec::with_capacity(remaining.len());
        while remaining.len() > 1 {
            let cands: Vec<Candidate> = remaining.iter().map(|(c, _)| c.clone()).collect();
            let idx = self.sched.borrow_mut().choose(kind, &cands);
            assert!(idx < remaining.len(), "scheduler chose out of range");
            out.push(remaining.remove(idx).1);
        }
        out.extend(remaining.into_iter().map(|(_, t)| t));
        out
    }

    /// Take the one-way messages queued for `pid`, in queueing order — the
    /// canonical order. The consumer takes the reliable home flushes
    /// first, then the droppable updates, each class in the order given
    /// here, which only an exploring scheduler permutes; it drains the
    /// vector and puts it back in `Proc::inbox`.
    pub(crate) fn take_inbox(&mut self, pid: usize) -> Vec<Delivery<S::Diff>> {
        let inbox = core::mem::take(&mut self.procs[pid].inbox);
        if !self.exploring {
            return inbox;
        }
        // One-sided pushes have no receiver-side delivery event: the
        // reorder point is which posted write *completes* (retires from
        // its QP) first, so the explorer labels these picks as completion
        // choices and can enumerate one-sided completion orders distinctly
        // from two-sided delivery orders.
        let kind = if self.one_sided() {
            ChoiceKind::Completion
        } else {
            ChoiceKind::Delivery
        };
        let mut out = Vec::with_capacity(inbox.len());
        let is_home = |d: &Delivery<S::Diff>| d.kind == DeliveryKind::Home;
        let (homes, updates): (Vec<_>, Vec<_>) = inbox.into_iter().partition(is_home);
        for class in [homes, updates] {
            let cands = class.into_iter().map(|d| {
                let c = Candidate {
                    actor: 0,
                    footprint: vec![d.page.0],
                };
                (c, d)
            });
            out.extend(self.pick_order(kind, cands.collect()));
        }
        out
    }

    /// Order in which processes run their end-of-epoch consistency work —
    /// the queueing order of their in-flight flushes. Footprints are each
    /// process's dirty page set (disjoint sets commute). `0..n` when not
    /// exploring.
    pub(crate) fn arrival_order(&mut self, n: usize) -> Vec<usize> {
        if !self.exploring || n <= 1 {
            return (0..n).collect();
        }
        let cands = (0..n).map(|pid| {
            let mut fp: Vec<u32> = self.procs[pid].dirty.iter().map(|p| p.0).collect();
            fp.sort_unstable();
            fp.dedup();
            let c = Candidate {
                actor: pid as u16,
                footprint: fp,
            };
            (c, pid)
        });
        let cands = cands.collect();
        self.pick_order(ChoiceKind::Arrival, cands)
    }
}

impl Cluster {
    /// End-of-barrier exploration checkpoint: hand the combined
    /// structural + trace hash to the scheduler; if it declines to
    /// continue, raise the cluster's `pruned` flag — every caller on the
    /// barrier path returns early past it, and the driver discards or
    /// restores over the abandoned state. No-op outside exploration.
    pub(crate) fn explore_barrier_checkpoint(&mut self) {
        if !self.exploring {
            return;
        }
        let mut h = StateHasher::seeded(self.trace_hash);
        h.u64(self.state_hash());
        let combined = h.finish();
        let go = self.sched.borrow_mut().observe_barrier(combined);
        if !go {
            self.pruned = true;
        }
    }
}
