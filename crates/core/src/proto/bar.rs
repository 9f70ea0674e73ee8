//! Home-based barrier protocols: `bar-i` and `bar-u`.
//!
//! Faithful to §2.2 of the paper:
//!
//! * every page has a **home**; updates are flushed to the home at the next
//!   barrier and the diffs are **immediately discarded** (short lifetimes);
//! * the **home effect**: the home's own modifications require no diff —
//!   only a local interrupt on the first write of each epoch;
//! * page coherence uses a **per-page scalar version index**, incremented
//!   once per epoch for a home write and once per applied diff; new
//!   versions are distributed via the barrier and drive invalidations;
//! * faults are serviced by fetching a **complete page copy from the home**
//!   (always exactly one request/reply pair);
//! * homes are assigned **at runtime**: pages not written by their initial
//!   owner but written by someone else migrate after the first iteration;
//! * `bar-u` adds copyset-driven **update pushes**: writers flush their
//!   diffs directly to every consumer in the page's copyset, and consumers
//!   apply them inside the barrier — no segv, no protection change.

use dsm_net::{FlushKind, ReliableKind};
use dsm_sim::{Category, Time};
use dsm_vm::{Delta, FaultKind, PageId, Pages, Protection};

use crate::check::CheckEvent;
use crate::drive::cluster::Cluster;
use crate::proto::overdrive::OdMode;

/// Wire bytes per (page, version) entry on barrier messages.
pub const BUMP_WIRE_BYTES: usize = 12;

/// In-flight one-way messages queued during the pre-barrier step and
/// consumed at release time, plus the barrier's version-bump ledger.
///
/// Intra-barrier scratch: the deliveries drain at release and
/// `barrier_core` clears the ledger, so the whole struct is `Default` at
/// every step boundary — which is how the cluster's state declaration
/// classes it.
#[derive(Default, PartialEq)]
pub struct BarDeliveries<D> {
    /// Diffs flushed to their home: `(home, page, diff, receiver leg)`.
    pub home_flushes: Vec<(usize, PageId, D, Time)>,
    /// Update pushes to consumers: `(dst, page, diff, receiver leg)`.
    pub bar_updates: Vec<(usize, PageId, D, Time)>,
    /// lmw-u update flushes: `(dst, page, writer, lo, hi, diff, receiver leg)`.
    pub lmw_updates: Vec<(usize, PageId, u16, u64, u64, D, Time)>,
    /// Pages bumped this barrier: `(page, old_version, new_version)`,
    /// page-sorted at collection time for deterministic iteration.
    pub bumps: Vec<(PageId, u32, u32)>,
    /// Who contributed each bump: `(writer, page)`. Lets a writer account
    /// for its own modifications when deciding whether its copy is current.
    pub writer_bumps: Vec<(usize, PageId)>,
}

impl<D> BarDeliveries<D> {
    /// Record one version bump contribution for `page`, returning nothing;
    /// consecutive bumps of the same page within one barrier extend the
    /// same ledger entry.
    pub(crate) fn bump(&mut self, page: PageId, versions: &mut [u32]) {
        let old = versions[page.index()];
        versions[page.index()] = old + 1;
        if let Some(e) = self.bumps.iter_mut().find(|e| e.0 == page) {
            e.2 = old + 1;
        } else {
            self.bumps.push((page, old, old + 1));
        }
    }
}

impl<S: Pages> Cluster<S> {
    // ------------------------------------------------------------------
    // Fault path
    // ------------------------------------------------------------------

    pub(crate) fn bar_fault(&mut self, pid: usize, page: PageId, kind: FaultKind) {
        self.charge_segv(pid);
        if kind.is_write() && self.od_mode == OdMode::Overdrive {
            // A trapped write during overdrive is by definition
            // unanticipated (anticipated pages were pre-enabled).
            self.od_unanticipated(pid, page);
        }
        if kind.needs_validation() {
            self.bar_fetch_page(pid, page);
        }
        if kind.is_write() {
            let home = self.homes[page.index()];
            // The home effect: the home never diffs its own writes — unless
            // bar-u must push them to a non-empty copyset.
            let need_twin = pid != home
                || (self.cfg.protocol.is_update()
                    && self.copyset(page).others(pid).next().is_some());
            if need_twin {
                if self.barr_twin_free(pid, page) {
                    // bar-r with a commuting-writer certificate: the delta
                    // can be captured from twin-free dirty tracking over
                    // the proven spans, so the twin (and its copy cost) is
                    // skipped entirely.
                    self.procs[pid].store.arm_tracking(page);
                    self.stats.region_twin_skips += 1;
                } else {
                    let cost = self.cfg.sim.costs.twin_create(self.page_size());
                    self.procs[pid].store.make_twin(page, &mut self.pool);
                    self.charge(pid, Category::Os, cost);
                    self.stats.twins += 1;
                }
            }
            self.set_prot(pid, page, Protection::ReadWrite);
            self.procs[pid].dirty.push(page);
            if !self.migrated {
                self.note_write(pid, page);
            }
        }
    }

    /// Record first-iteration write behaviour for the migration decision.
    fn note_write(&mut self, pid: usize, page: PageId) {
        self.iter_writers.entry(page.0).or_default().insert(pid);
        let w = u16::try_from(pid).expect("pid exceeds u16 range");
        *self.iter_write_counts.entry((page.0, w)).or_insert(0) += 1;
    }

    /// Validate by fetching a complete copy from the home — "always exactly
    /// one request-reply pair".
    fn bar_fetch_page(&mut self, pid: usize, page: PageId) {
        let home = self.homes[page.index()];
        assert_ne!(pid, home, "a home page can never be invalid at its home");
        self.materialize_pristine(home, page);
        debug_assert!(
            self.procs[home].store.protection(page).readable(),
            "home copy must always be current"
        );
        let fixed = Time::from_ns(self.cfg.sim.costs.page_fault_fixed_ns);
        let reply = (ReliableKind::PageReply, self.page_size());
        self.fetch_from(pid, home, (ReliableKind::PageRequest, 0), reply, fixed);
        let version = self.versions[page.index()];
        let (me, hm) = Self::pair_mut(&mut self.procs, pid, home);
        me.store.copy_page(page, &hm.store);
        me.store.set_version_seen(page, version);
        self.set_prot(pid, page, Protection::Read);
        self.stats.remote_misses += 1;
        self.emit(CheckEvent::Fetch {
            pid,
            from: home,
            page: page.0,
        });
        if self.cfg.protocol.is_update() {
            // The home learns its consumers; distribution of copyset
            // changes piggybacks on the next barrier release.
            self.copyset_mut(page).insert(pid);
        }
    }

    // ------------------------------------------------------------------
    // Barrier hooks
    // ------------------------------------------------------------------

    /// End-of-epoch work: create and flush diffs, bump versions, re-arm
    /// write traps. Returns this process's bump-contribution count (its
    /// arrival payload).
    pub(crate) fn bar_pre_barrier(&mut self, pid: usize, reprotect: bool) -> usize {
        let ps = self.page_size();
        let dirty = core::mem::take(&mut self.procs[pid].dirty);
        let is_update = self.cfg.protocol.is_update();
        let mut contributions = 0usize;
        for page in dirty {
            let home = self.homes[page.index()];
            let meta = self.procs[pid].store.meta(page);
            if meta.is_some_and(|m| m.tracking) {
                // bar-r region path: capture the delta from the recorded
                // dirty ranges, grounded against the static certificate.
                if self.barr_pre_barrier_page(pid, page) {
                    contributions += 1;
                }
                if reprotect {
                    self.set_prot(pid, page, Protection::Read);
                }
                continue;
            }
            let has_twin = meta.is_some_and(|m| m.has_twin);
            // The home effect decides at diff time: a home page with no
            // consumers never needs its modifications summarized, even if
            // overdrive armed a (pure-overhead) twin on it.
            let use_diff = has_twin
                && (pid != home || (is_update && self.copyset(page).others(pid).next().is_some()));
            if has_twin && !use_diff {
                self.procs[pid].store.drop_twin(page, &mut self.pool);
            }
            if use_diff {
                let scan = self.cfg.sim.costs.diff_create(ps);
                self.charge(pid, Category::Os, scan);
                self.stats.diffs_created += 1;
                let diff = self.procs[pid].store.seal(page, &mut self.pool);
                if diff.is_empty() {
                    self.stats.empty_diffs += 1;
                    if self.od_mode == OdMode::Overdrive {
                        self.stats.overdrive_zero_diffs += 1;
                    }
                } else {
                    self.bar_bump(pid, page);
                    contributions += 1;
                    if pid != home {
                        self.bar_flush_home(pid, home, page, &diff);
                    }
                    if is_update {
                        let cs = self.copyset(page).clone();
                        let members: Vec<usize> = cs.others(pid).filter(|&q| q != home).collect();
                        self.emit(CheckEvent::UpdateFlush {
                            writer: pid,
                            page: page.0,
                            copyset: &cs,
                            pushes: members.len(),
                            diff: &diff,
                        });
                        for q in members {
                            self.bar_push_update(pid, q, page, &diff);
                        }
                    }
                }
                // The clones rode into the delivery queues; the original's
                // storage goes back to the free-lists.
                S::recycle(&mut self.pool, diff);
            } else {
                // Home wrote, no consumers needing a diff: version bump only
                // ("modifications made by the home node are merely noted
                // locally").
                debug_assert_eq!(pid, home, "non-home dirty pages always have twins");
                self.bar_bump(pid, page);
                contributions += 1;
            }
            if reprotect {
                self.set_prot(pid, page, Protection::Read);
            }
        }
        contributions
    }

    /// Advance `page`'s version on `pid`'s behalf: the barrier's ledger,
    /// the checker event, and the contribution record.
    pub(crate) fn bar_bump(&mut self, pid: usize, page: PageId) {
        let old = self.versions[page.index()];
        self.bar_deliveries.bump(page, &mut self.versions);
        self.emit(CheckEvent::VersionBump {
            page: page.0,
            old,
            new: old + 1,
        });
        self.bar_deliveries.writer_bumps.push((pid, page));
    }

    /// Flush `diff` reliably to `page`'s home, queueing it for the home's
    /// post-release step.
    pub(crate) fn bar_flush_home(&mut self, pid: usize, home: usize, page: PageId, diff: &S::Diff) {
        let sent_at = self.procs[pid].clock.now();
        let bytes = diff.wire_bytes();
        let tr = self
            .net
            .push_reliable(pid, home, ReliableKind::DiffFlushHome, bytes, sent_at);
        self.charge(pid, Category::Os, tr.sender);
        self.stats.note_flush(page.index(), bytes as u64);
        self.note_attempts(pid, home, tr.attempts);
        self.bar_deliveries
            .home_flushes
            .push((home, page, diff.clone(), tr.receiver));
    }

    /// Push `diff` to consumer `q` as one droppable update, queueing what
    /// the wire delivers for `q`'s post-release step.
    pub(crate) fn bar_push_update(&mut self, pid: usize, q: usize, page: PageId, diff: &S::Diff) {
        let now = self.procs[pid].clock.now();
        let bytes = diff.wire_bytes();
        let out = self
            .net
            .push_update(pid, q, FlushKind::UpdateFlush, bytes, now);
        self.charge(pid, Category::Os, out.transit.sender);
        self.stats.note_flush(page.index(), bytes as u64);
        if !out.delivered {
            return;
        }
        let update = (q, page, diff.clone(), out.transit.receiver);
        if out.duplicated {
            // The faulty wire delivered the flush twice: queue a second,
            // identical copy. Self-validation sees one update too many and
            // falls back to invalidation — slower, never wrong.
            self.emit(CheckEvent::DupDelivery {
                writer: pid,
                page: page.0,
                dst: q,
            });
            self.bar_deliveries.bar_updates.push(update.clone());
        }
        self.bar_deliveries.bar_updates.push(update);
    }

    /// Post-release work: homes apply incoming diff flushes, consumers
    /// apply update pushes, everyone else invalidates stale copies.
    pub(crate) fn bar_post_release(&mut self, pid: usize) {
        // 1. Apply diff flushes addressed to this process as home; the
        //    diffs are then dropped — their entire lifetime was one barrier.
        let all = core::mem::take(&mut self.bar_deliveries.home_flushes);
        let (mine, rest): (Vec<_>, Vec<_>) = all.into_iter().partition(|(h, ..)| *h == pid);
        self.bar_deliveries.home_flushes = rest;
        let mine = self.delivery_order(mine, |t| t.1 .0);
        for (_, page, diff, recv) in mine {
            self.charge(pid, Category::Sigio, recv);
            let cost = self.cfg.sim.costs.diff_apply(diff.payload_bytes());
            self.charge(pid, Category::Os, cost);
            self.materialize_home_frame(pid, page);
            self.procs[pid].store.apply_diff(page, &diff);
            S::recycle(&mut self.pool, diff);
        }

        // 2. The home's copy is current for every page bumped this barrier.
        let bumps: Vec<(PageId, u32, u32)> = self.bar_deliveries.bumps.clone();
        for &(page, _, newv) in &bumps {
            if self.homes[page.index()] == pid {
                self.materialize_home_frame(pid, page);
                self.procs[pid].store.set_version_seen(page, newv);
            }
        }

        // 3. Self-validation and update application. A writer's copy is
        //    current once its own contributions plus every received update
        //    cover the page's version delta; a pure consumer needs every
        //    writer's flush (lost flushes fall back to invalidation). bar-i
        //    processes receive no updates, so only sole-writer copies
        //    self-validate.
        let all = core::mem::take(&mut self.bar_deliveries.bar_updates);
        let (mine, rest): (Vec<_>, Vec<_>) = all.into_iter().partition(|(d, ..)| *d == pid);
        self.bar_deliveries.bar_updates = rest;
        let mine = self.delivery_order(mine, |t| t.1 .0);
        let mut by_page: Vec<(PageId, Vec<S::Diff>)> = Vec::new();
        for (_, page, diff, recv) in mine {
            self.charge(pid, Category::Sigio, recv);
            match by_page.iter_mut().find(|(p, _)| *p == page) {
                Some((_, v)) => v.push(diff),
                None => by_page.push((page, vec![diff])),
            }
        }
        for &(page, oldv, newv) in &bumps {
            if self.homes[page.index()] == pid {
                continue;
            }
            let received: &[S::Diff] = by_page
                .iter()
                .find(|(p, _)| *p == page)
                .map_or(&[], |(_, v)| v.as_slice());
            // bar-r certified page: elided pushes must not read as lost
            // flushes, so the expectation counts only writers that
            // actually push to this process.
            let expected = self.barr_expected_updates(pid, page).unwrap_or_else(|| {
                let my_contrib = self
                    .bar_deliveries
                    .writer_bumps
                    .iter()
                    .filter(|&&(w, p)| w == pid && p == page)
                    .count();
                (newv - oldv) as usize - my_contrib
            });
            let current = {
                let m = self.procs[pid].store.meta(page);
                m.is_some_and(|m| m.prot.readable() && m.version_seen == oldv)
                    && received.len() == expected
            };
            if current {
                for diff in received {
                    let cost = self.cfg.sim.costs.diff_apply(diff.payload_bytes());
                    self.charge(pid, Category::Os, cost);
                }
                let store = &mut self.procs[pid].store;
                for diff in received {
                    store.apply_diff(page, diff);
                }
                store.set_version_seen(page, newv);
            }
        }
        // The update diffs' lifetime ends here; recycle their storage.
        for (_, diffs) in by_page {
            for d in diffs {
                S::recycle(&mut self.pool, d);
            }
        }

        // 4. Invalidate remaining stale copies.
        let notice_cost = Time::from_ns(self.cfg.sim.costs.write_notice_ns);
        for &(page, _, newv) in &bumps {
            self.charge(pid, Category::Os, notice_cost);
            if self.homes[page.index()] == pid {
                continue;
            }
            let stale = self.procs[pid]
                .store
                .meta(page)
                .is_some_and(|m| m.prot.readable() && m.version_seen < newv);
            if stale {
                self.set_prot(pid, page, Protection::Invalid);
            }
        }
    }

    /// Materialize a frame at its home from the initial image. Unlike the
    /// pristine rule, a home materialization is *always* valid: if the home
    /// never touched the page and no flush preceded this one, the image is
    /// by definition the current content.
    fn materialize_home_frame(&mut self, pid: usize, page: PageId) {
        if self.procs[pid].store.meta(page).is_none() {
            self.procs[pid].store.materialize(page, Protection::Read);
        }
    }

    // ------------------------------------------------------------------
    // Runtime home migration (§2.2.1, third extension)
    // ------------------------------------------------------------------

    /// "We migrate any pages that have not been written by their initial
    /// owner, but have been written by at least one other process", using
    /// behaviour collected during the first iteration. Decisions ride on
    /// the barrier release; the page content moves home-to-home.
    pub(crate) fn bar_migrate(&mut self) {
        if self.migrated || !self.cfg.migration {
            return;
        }
        self.migrated = true;
        let ps = self.page_size();
        for pg in 0..self.seg.npages() {
            let page = PageId(pg as u32);
            let Some(writers) = self.iter_writers.get(&page.0) else {
                continue;
            };
            let old_home = self.homes[pg];
            if writers.is_empty() || writers.contains(old_home) {
                continue;
            }
            // Heaviest writer wins; ties go to the lowest pid.
            let mut new_home = usize::MAX;
            let mut best = 0u32;
            for w in writers.iter() {
                let key = (page.0, u16::try_from(w).expect("pid exceeds u16 range"));
                let c = self.iter_write_counts.get(&key).copied().unwrap_or(0);
                if c > best {
                    best = c;
                    new_home = w;
                }
            }
            debug_assert_ne!(new_home, usize::MAX);
            // Hand over the current content (the old home is current by
            // construction: all diffs were flushed to it).
            self.materialize_home_frame(old_home, page);
            let sent_at = self.procs[old_home].clock.now();
            let tr =
                self.net
                    .push_reliable(old_home, new_home, ReliableKind::PageMigrate, ps, sent_at);
            self.charge(old_home, Category::Os, tr.sender);
            self.note_attempts(old_home, new_home, tr.attempts);
            self.charge(new_home, Category::Sigio, tr.receiver);
            let version = self.versions[pg];
            let (old_p, new_p) = Self::pair_mut(&mut self.procs, old_home, new_home);
            // Drop any stale twin at the new home: its next write will
            // re-evaluate the home effect.
            new_p.store.drop_twin(page, &mut self.pool);
            new_p.store.copy_page(page, &old_p.store);
            new_p.store.set_version_seen(page, version);
            if !new_p.store.protection(page).readable() {
                new_p.store.set_protection(page, Protection::Read);
            }
            self.homes[pg] = new_home;
            self.stats.migrations += 1;
        }
    }
}
