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
use crate::proto::copyset::CopySet;
use crate::proto::overdrive::OdMode;

/// Wire bytes per (page, version) entry on barrier messages.
pub const BUMP_WIRE_BYTES: usize = 12;

/// How the receiver of a queued one-way message consumes it.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum DeliveryKind {
    /// A diff flushed reliably to the page's home.
    Home,
    /// A bar-u family update push to a copyset member.
    Update,
    /// An lmw-u update flush of the segment covering epochs `[lo, hi]`.
    Segment { lo: u64, hi: u64 },
}

/// One in-flight one-way message: queued in its destination's inbox by
/// [`Cluster::publish`] during the pre-barrier step, consumed at release.
/// It carries its writer's name, so the consumer validates by *who* it
/// heard from, never by how many messages arrived.
#[derive(Clone, PartialEq, Debug)]
pub struct Delivery<D> {
    pub kind: DeliveryKind,
    pub page: PageId,
    pub writer: usize,
    pub diff: D,
    /// The receiver's leg of the transit, charged when it is consumed.
    pub recv: Time,
}

/// What the barrier itself delivers: the version-bump ledger its arrival
/// and release messages carry.
///
/// Intra-barrier scratch: `barrier_core` clears the ledger, so the struct
/// is `Default` at every step boundary — which is how the cluster's state
/// declaration classes it.
#[derive(Default, PartialEq)]
pub struct BarDeliveries {
    /// Pages bumped this barrier: `(page, old_version, new_version)`,
    /// page-sorted at collection time for deterministic iteration.
    pub bumps: Vec<(PageId, u32, u32)>,
    /// Who contributed each bump: `(writer, page)` — the names a copy must
    /// have heard from (or be) to still be current after the barrier.
    pub writer_bumps: Vec<(usize, PageId)>,
}

impl<S: Pages> Cluster<S> {
    // ------------------------------------------------------------------
    // Fault path
    // ------------------------------------------------------------------

    pub(crate) fn bar_fault(&mut self, pid: usize, page: PageId, kind: FaultKind) {
        self.charge_segv(pid);
        if kind.is_write() && self.od_mode == OdMode::Overdrive {
            // A trapped write during overdrive is by definition
            // unanticipated: anticipated pages were armed current and
            // writable, so none of them can be here (and enter `dirty` a
            // second time).
            debug_assert!(
                !self.procs[pid].dirty.contains(&page),
                "an armed page trapped a write"
            );
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
    pub(crate) fn bar_fetch_page(&mut self, pid: usize, page: PageId) {
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
        // bar-m pre-granted write permission on its union for the whole
        // overdrive phase; an invalidation took it away with the copy, and
        // the fresh copy gets it back.
        let prot = if self.procs[pid].od.pre_enabled.contains(&page.0) {
            Protection::ReadWrite
        } else {
            Protection::Read
        };
        self.set_prot(pid, page, prot);
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
    pub fn bar_pre_barrier(&mut self, pid: usize, reprotect: bool) -> usize {
        let ps = self.page_size();
        let mut dirty = core::mem::take(&mut self.procs[pid].dirty);
        let is_update = self.cfg.protocol.is_update();
        let mut contributions = 0usize;
        for page in dirty.drain(..) {
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
                    let cs = is_update.then(|| self.copyset(page).clone());
                    let copy = |_: &mut Self, _| Some(diff.clone());
                    self.publish(pid, page, DeliveryKind::Update, cs.as_ref(), &diff, copy);
                }
                // Other handles rode into the inboxes; the last one to be
                // recycled returns the storage to the free-lists.
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
        self.procs[pid].dirty = dirty; // emptied; keeps its capacity
        contributions
    }

    /// Advance `page`'s version on `pid`'s behalf: the barrier's ledger
    /// (consecutive bumps of one page extend one entry), the contribution
    /// record, and the checker event.
    pub(crate) fn bar_bump(&mut self, pid: usize, page: PageId) {
        let old = self.versions[page.index()];
        self.versions[page.index()] = old + 1;
        let ledger = &mut self.bar_deliveries;
        match ledger.bumps.iter_mut().find(|e| e.0 == page) {
            Some(e) => e.2 = old + 1,
            None => ledger.bumps.push((page, old, old + 1)),
        }
        ledger.writer_bumps.push((pid, page));
        self.emit(CheckEvent::VersionBump {
            page: page.0,
            old,
            new: old + 1,
        });
    }

    /// Publish `writer`'s sealed `diff` of `page` — the one path an update
    /// takes onto the wire. Home-based kinds first flush it reliably to the
    /// page's home. Then, if `cs` names the page's consumers, every other
    /// member gets the diff `for_reader` yields for it (`None` elides the
    /// push) as one droppable update. Whatever the wire delivers is queued
    /// in its destination's inbox under the writer's name — twice, if the
    /// faulty wire delivered it twice — every time as a handle to the one
    /// sealed diff, unless `for_reader` built another.
    pub(crate) fn publish(
        &mut self,
        writer: usize,
        page: PageId,
        kind: DeliveryKind,
        cs: Option<&CopySet>,
        diff: &S::Diff,
        mut for_reader: impl FnMut(&mut Self, usize) -> Option<S::Diff>,
    ) {
        let delivery = |kind, diff, recv| Delivery {
            kind,
            page,
            writer,
            diff,
            recv,
        };
        // Flush volume is a statistic of the home-based family only.
        let home_based = kind == DeliveryKind::Update;
        let home = home_based.then(|| self.homes[page.index()]);
        if let Some(home) = home.filter(|&h| h != writer) {
            let sent_at = self.procs[writer].clock.now();
            let bytes = diff.wire_bytes();
            let tr =
                self.net
                    .push_reliable(writer, home, ReliableKind::DiffFlushHome, bytes, sent_at);
            self.charge(writer, Category::Os, tr.sender);
            self.stats.note_flush(page.index(), bytes as u64);
            self.note_attempts(writer, home, tr.attempts);
            let flush = delivery(DeliveryKind::Home, diff.clone(), tr.receiver);
            self.procs[home].inbox.push(flush);
        }
        let Some(cs) = cs else {
            return;
        };
        let mut pushes = core::mem::take(&mut self.pushes);
        let readers = cs.others(writer).filter(|&q| Some(q) != home);
        pushes.extend(readers.filter_map(|q| for_reader(self, q).map(|d| (q, d))));
        self.emit(CheckEvent::UpdateFlush {
            writer,
            page: page.0,
            copyset: cs,
            pushes: pushes.len(),
            diff,
        });
        for (q, diff) in pushes.drain(..) {
            let now = self.procs[writer].clock.now();
            let bytes = diff.wire_bytes();
            let out = self
                .net
                .push_update(writer, q, FlushKind::UpdateFlush, bytes, now);
            self.charge(writer, Category::Os, out.transit.sender);
            if home_based {
                self.stats.note_flush(page.index(), bytes as u64);
            }
            if !out.delivered {
                S::recycle(&mut self.pool, diff);
                continue;
            }
            let update = delivery(kind, diff, out.transit.receiver);
            if out.duplicated {
                self.emit(CheckEvent::DupDelivery {
                    writer,
                    page: page.0,
                    dst: q,
                });
                self.procs[q].inbox.push(update.clone());
            }
            self.procs[q].inbox.push(update);
        }
        self.pushes = pushes;
    }

    /// Post-release work: homes apply incoming diff flushes, consumers
    /// apply update pushes, everyone else invalidates stale copies.
    pub(crate) fn bar_post_release(&mut self, pid: usize) {
        // Diff flushes addressed to this process as home come first and
        // are applied at once. Update pushes wait for self-validation.
        let mut inbox = self.take_inbox(pid);
        let mut names = core::mem::take(&mut self.names);
        for d in inbox.iter().filter(|d| d.kind == DeliveryKind::Home) {
            self.charge(pid, Category::Sigio, d.recv);
            let cost = self.cfg.sim.costs.diff_apply(d.diff.payload_bytes());
            self.charge(pid, Category::Os, cost);
            self.materialize_home_frame(pid, d.page);
            self.procs[pid].store.apply_diff(d.page, &d.diff);
        }
        let updates = || inbox.iter().filter(|d| d.kind != DeliveryKind::Home);
        for d in updates() {
            self.charge(pid, Category::Sigio, d.recv);
        }

        let notice_cost = Time::from_ns(self.cfg.sim.costs.write_notice_ns);
        for i in 0..self.bar_deliveries.bumps.len() {
            let (page, oldv, newv) = self.bar_deliveries.bumps[i];
            self.charge(pid, Category::Os, notice_cost);
            if self.homes[page.index()] == pid {
                // The home's copy is current for every page bumped.
                self.materialize_home_frame(pid, page);
                self.procs[pid].store.set_version_seen(page, newv);
                continue;
            }
            let Some(m) = self.procs[pid]
                .store
                .meta(page)
                .filter(|m| m.prot.readable())
            else {
                continue;
            };
            // Self-validation. A copy that was current before the barrier
            // stays current iff this process heard, exactly once each, from
            // every *other* writer that bumped the page and pushes to it
            // (bar-r elides pushes the certificate proves unread) — compared
            // by name, so one writer's duplicate can never stand in for
            // another's lost flush. bar-i processes receive no updates, so
            // only sole-writer copies self-validate. A lost flush or a
            // duplicate falls back to invalidation: slower, never wrong.
            let received = || updates().filter(|d| d.page == page);
            let mut heard_all = || {
                names.clear();
                names.extend(received().map(|d| d.writer));
                let heard = names.len();
                let bumped = self.bar_deliveries.writer_bumps.iter();
                let owed = bumped
                    .filter(|&&(w, p)| p == page && w != pid && self.barr_pushes_to(w, pid, page));
                names.extend(owed.map(|&(w, _)| w));
                let (heard, owed) = names.split_at_mut(heard);
                heard.sort_unstable();
                owed.sort_unstable();
                heard == owed
            };
            if m.version_seen == oldv && heard_all() {
                for d in received() {
                    let cost = self.cfg.sim.costs.diff_apply(d.diff.payload_bytes());
                    self.charge(pid, Category::Os, cost);
                    self.procs[pid].store.apply_diff(page, &d.diff);
                }
                self.procs[pid].store.set_version_seen(page, newv);
            } else if m.version_seen < newv {
                self.set_prot(pid, page, Protection::Invalid);
            }
        }
        // A delivery lives one barrier; its diff's last handle recycles it.
        for d in inbox.drain(..) {
            S::recycle(&mut self.pool, d.diff);
        }
        names.clear();
        self.procs[pid].inbox = inbox;
        self.names = names;
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
