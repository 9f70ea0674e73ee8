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
use dsm_vm::{Diff, FaultKind, Frame, PageId, Protection};

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
pub struct BarDeliveries {
    /// Diffs flushed to their home: `(home, page, diff, receiver leg)`.
    pub home_flushes: Vec<(usize, PageId, Diff, Time)>,
    /// Update pushes to consumers: `(dst, page, diff, receiver leg)`.
    pub bar_updates: Vec<(usize, PageId, Diff, Time)>,
    /// lmw-u update flushes: `(dst, page, writer, lo, hi, diff, receiver leg)`.
    pub lmw_updates: Vec<(usize, PageId, u16, u64, u64, Diff, Time)>,
    /// Pages bumped this barrier: `(page, old_version, new_version)`,
    /// page-sorted at collection time for deterministic iteration.
    pub bumps: Vec<(PageId, u32, u32)>,
    /// Who contributed each bump: `(writer, page)`. Lets a writer account
    /// for its own modifications when deciding whether its copy is current.
    pub writer_bumps: Vec<(usize, PageId)>,
}

impl BarDeliveries {
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

impl Cluster {
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
                    self.procs[pid].store.frame_mut(page).arm_dirty_tracking();
                    self.stats.region_twin_skips += 1;
                } else {
                    let cost = self.cfg.sim.costs.twin_create(self.page_size());
                    self.procs[pid]
                        .store
                        .frame_mut(page)
                        .make_twin_in(&mut self.pool);
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
        let ps = self.page_size();
        let prep = Time::from_ns(self.cfg.sim.costs.page_prep_ns);
        let fixed = Time::from_ns(self.cfg.sim.costs.page_fault_fixed_ns);
        let now = self.procs[pid].clock.now();
        let d = self.net.fetch(
            pid,
            home,
            ReliableKind::PageRequest,
            0,
            ReliableKind::PageReply,
            ps,
            prep,
            now,
        );
        self.charge(pid, Category::Wait, d.wait + fixed);
        // The faulting process experiences any retransmission delay of
        // either leg of the round trip.
        self.procs[pid].clock.note_retrans(d.retrans_wait);
        if d.req_attempts > 1 {
            self.emit(CheckEvent::WireRetransmit {
                src: pid,
                dst: home,
                attempts: d.req_attempts,
            });
        }
        if d.rep_attempts > 1 {
            self.emit(CheckEvent::WireRetransmit {
                src: home,
                dst: pid,
                attempts: d.rep_attempts,
            });
        }
        self.charge(home, Category::Sigio, d.server_cpu);
        let version = self.versions[page.index()];
        {
            let (me, hm) = Cluster::pair_mut(&mut self.procs, pid, home);
            let src = hm.store.frame(page).expect("home frame present");
            let f = me.store.frame_mut(page);
            f.fill_from(src.data());
            f.set_version_seen(version);
        }
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
            let tracked = self.procs[pid]
                .store
                .frame(page)
                .is_some_and(Frame::tracking);
            if tracked {
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
            let has_twin = self.procs[pid]
                .store
                .frame(page)
                .is_some_and(Frame::has_twin);
            // The home effect decides at diff time: a home page with no
            // consumers never needs its modifications summarized, even if
            // overdrive armed a (pure-overhead) twin on it.
            let use_diff = has_twin
                && (pid != home || (is_update && self.copyset(page).others(pid).next().is_some()));
            if has_twin && !use_diff {
                self.procs[pid]
                    .store
                    .frame_mut(page)
                    .drop_twin_into(&mut self.pool);
            }
            if use_diff {
                let scan = self.cfg.sim.costs.diff_create(ps);
                self.charge(pid, Category::Os, scan);
                self.stats.diffs_created += 1;
                let diff = self.procs[pid]
                    .store
                    .frame_mut(page)
                    .diff_against_twin_in(page, &mut self.pool);
                self.procs[pid]
                    .store
                    .frame_mut(page)
                    .drop_twin_into(&mut self.pool);
                if diff.is_empty() {
                    self.stats.empty_diffs += 1;
                    if self.od_mode == OdMode::Overdrive {
                        self.stats.overdrive_zero_diffs += 1;
                    }
                } else {
                    let old = self.versions[page.index()];
                    self.bar_deliveries.bump(page, &mut self.versions);
                    let new = self.versions[page.index()];
                    self.emit(CheckEvent::VersionBump {
                        page: page.0,
                        old,
                        new,
                    });
                    self.bar_deliveries.writer_bumps.push((pid, page));
                    contributions += 1;
                    if pid != home {
                        let sent_at = self.procs[pid].clock.now();
                        let tr = self.net.push_reliable(
                            pid,
                            home,
                            ReliableKind::DiffFlushHome,
                            diff.wire_bytes(),
                            sent_at,
                        );
                        self.charge(pid, Category::Os, tr.sender);
                        self.stats
                            .note_flush(page.index(), diff.wire_bytes() as u64);
                        if tr.attempts > 1 {
                            self.emit(CheckEvent::WireRetransmit {
                                src: pid,
                                dst: home,
                                attempts: tr.attempts,
                            });
                        }
                        self.bar_deliveries.home_flushes.push((
                            home,
                            page,
                            diff.clone(),
                            tr.receiver,
                        ));
                    }
                    if is_update {
                        let cs = self.copyset(page).clone();
                        self.emit(CheckEvent::UpdateFlush {
                            writer: pid,
                            page: page.0,
                            copyset: &cs,
                        });
                        let members: Vec<usize> = cs.others(pid).filter(|&q| q != home).collect();
                        for q in members {
                            let now = self.procs[pid].clock.now();
                            let out = self.net.push_update(
                                pid,
                                q,
                                FlushKind::UpdateFlush,
                                diff.wire_bytes(),
                                now,
                            );
                            self.charge(pid, Category::Os, out.transit.sender);
                            self.stats
                                .note_flush(page.index(), diff.wire_bytes() as u64);
                            if out.delivered {
                                self.bar_deliveries.bar_updates.push((
                                    q,
                                    page,
                                    diff.clone(),
                                    out.transit.receiver,
                                ));
                                if out.duplicated {
                                    // The faulty wire delivered the flush
                                    // twice: queue a second, identical copy.
                                    // Self-validation sees one update too
                                    // many and falls back to invalidation —
                                    // slower, never wrong.
                                    self.emit(CheckEvent::DupDelivery {
                                        writer: pid,
                                        page: page.0,
                                        dst: q,
                                    });
                                    self.bar_deliveries.bar_updates.push((
                                        q,
                                        page,
                                        diff.clone(),
                                        out.transit.receiver,
                                    ));
                                }
                            }
                        }
                    }
                }
                // The clones rode into the delivery queues; the original's
                // storage goes back to the free-lists.
                self.pool.put_diff(diff);
            } else {
                // Home wrote, no consumers needing a diff: version bump only
                // ("modifications made by the home node are merely noted
                // locally").
                debug_assert_eq!(pid, home, "non-home dirty pages always have twins");
                let old = self.versions[page.index()];
                self.bar_deliveries.bump(page, &mut self.versions);
                let new = self.versions[page.index()];
                self.emit(CheckEvent::VersionBump {
                    page: page.0,
                    old,
                    new,
                });
                self.bar_deliveries.writer_bumps.push((pid, page));
                contributions += 1;
            }
            if reprotect {
                self.set_prot(pid, page, Protection::Read);
            }
        }
        contributions
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
            self.procs[pid].store.frame_mut(page).apply_diff(&diff);
            self.pool.put_diff(diff);
        }

        // 2. The home's copy is current for every page bumped this barrier.
        let bumps: Vec<(PageId, u32, u32)> = self.bar_deliveries.bumps.clone();
        for &(page, _, newv) in &bumps {
            if self.homes[page.index()] == pid {
                self.materialize_home_frame(pid, page);
                self.procs[pid].store.frame_mut(page).set_version_seen(newv);
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
        let mut by_page: Vec<(PageId, Vec<Diff>)> = Vec::new();
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
            let received: &[Diff] = by_page
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
                let f = self.procs[pid].store.frame(page);
                f.is_some_and(|f| f.prot().readable() && f.version_seen() == oldv)
                    && received.len() == expected
            };
            if current {
                for diff in received {
                    let cost = self.cfg.sim.costs.diff_apply(diff.payload_bytes());
                    self.charge(pid, Category::Os, cost);
                }
                let f = self.procs[pid].store.frame_mut(page);
                for diff in received {
                    f.apply_diff(diff);
                }
                f.set_version_seen(newv);
            }
        }
        // The update diffs' lifetime ends here; recycle their storage.
        for (_, diffs) in by_page {
            for d in diffs {
                self.pool.put_diff(d);
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
                .frame(page)
                .is_some_and(|f| f.prot().readable() && f.version_seen() < newv);
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
        if self.procs[pid].store.frame(page).is_some() {
            return;
        }
        let image = self.image.page(page.index());
        let f = self.procs[pid].store.frame_mut(page);
        f.fill_from(image);
        f.set_prot(Protection::Read);
        f.set_version_seen(1);
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
            if tr.attempts > 1 {
                self.emit(CheckEvent::WireRetransmit {
                    src: old_home,
                    dst: new_home,
                    attempts: tr.attempts,
                });
            }
            self.charge(new_home, Category::Sigio, tr.receiver);
            let version = self.versions[pg];
            {
                let (old_p, new_p) = Cluster::pair_mut(&mut self.procs, old_home, new_home);
                let src = old_p.store.frame(page).expect("old home frame");
                let f = new_p.store.frame_mut(page);
                f.fill_from(src.data());
                f.set_version_seen(version);
                if !f.prot().readable() {
                    f.set_prot(Protection::Read);
                }
                // Drop any stale twin at the new home: its next write will
                // re-evaluate the home effect.
                f.drop_twin();
            }
            self.homes[pg] = new_home;
            self.stats.migrations += 1;
        }
    }
}
