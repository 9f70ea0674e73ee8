//! Protocol-invariant checks over the event stream.
//!
//! Three families of invariants, each tied to a claim the protocols make:
//!
//! * **version monotonicity** (bar family): a page's version index moves by
//!   exactly +1 per bump, and every bump starts from the last version the
//!   checker saw — the index is a strictly increasing counter, never
//!   skipped, never rolled back;
//! * **copyset coverage** (update protocols): an update flush must address
//!   every process that ever fetched the page — `lmw-u` tracks fetchers per
//!   (page, writer) because its copysets are per-writer, the home-based
//!   family tracks the global per-page fetcher set;
//! * **GC safety** (homeless family): garbage collection validates every
//!   noticed page before discarding, so at the moment a process discards
//!   its retained state it must hold no live (recorded but unconsumed)
//!   write notice — a live notice names a diff that is about to vanish;
//! * **duplicate grounding** (lossy wire): a duplicated flush delivery must
//!   replay a flush the writer genuinely issued this epoch, toward a
//!   destination that flush addressed — the wire may repeat messages but
//!   can never invent receivers or payloads. (That the repeat is *safe* is
//!   checked by the coherence oracle: a non-idempotent double application
//!   would surface as a stale read at the next barrier.)
//! * **elision grounding** (`bar-r`): every update push the protocol skips
//!   must be excused by the static region certificate — the skipped member
//!   is proven to never load the writer's spans. An elision with no
//!   certificate behind it (no table, uncertified page, unknown writer, or
//!   a bit naming a proven reader) is a coherence hole the value-level
//!   oracle might never see, so the invariant layer flags it directly.

use std::sync::Arc;

use dsm_core::proto::CopySet;
use dsm_core::RegionTable;
use dsm_sim::{FastMap, FastSet};

use crate::report::Violation;

/// Which copyset bookkeeping a protocol wants.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum CopysetRule {
    /// No update flushes (invalidate protocols, seq): nothing to check.
    None,
    /// `lmw-u`: fetchers tracked per (page, writer).
    PerWriter,
    /// `bar-u` / `bar-s` / `bar-m`: one global fetcher set per page.
    PerPage,
}

/// One process's live (recorded, not yet consumed) notices, as a multiset.
type LiveNotices = FastMap<(u32, u16, u64), u32>;

pub struct InvariantState {
    rule: CopysetRule,
    /// Last version value seen per page.
    versions: FastMap<u32, u32>,
    /// Pages already reported for a version anomaly (one report per page
    /// and kind).
    flagged_skip: FastSet<u32>,
    flagged_regress: FastSet<u32>,
    /// Fetcher sets (sparse: entries appear on first fetch).
    per_writer_fetchers: FastMap<(u32, u16), CopySet>,
    per_page_fetchers: FastMap<u32, CopySet>,
    /// (page, writer) pairs already reported for a copyset omission.
    flagged_copyset: FastSet<(u32, u16)>,
    live: Box<[LiveNotices]>,
    /// Copysets of flushes issued this epoch, per (page, writer); cleared
    /// at every barrier release. Grounds duplicate deliveries.
    flushed_this_epoch: FastMap<(u32, u16), CopySet>,
    /// (page, writer, dst) triples already reported as ungrounded dups.
    flagged_dup: FastSet<(u32, u16, u16)>,
    /// The static region certificates the run was configured with (bar-r
    /// only); elision events are validated against these.
    regions: Option<Arc<RegionTable>>,
    /// (page, writer) pairs already reported for an ungrounded elision.
    flagged_elision: FastSet<(u32, u16)>,
}

dsm_sim::impl_state!(InvariantState {
    config: rule, regions;
    state: versions, flagged_skip, flagged_regress, per_writer_fetchers, per_page_fetchers,
        flagged_copyset, live, flushed_this_epoch, flagged_dup, flagged_elision;
});

impl InvariantState {
    pub fn new(
        nprocs: usize,
        rule: CopysetRule,
        regions: Option<Arc<RegionTable>>,
    ) -> InvariantState {
        InvariantState {
            rule,
            versions: FastMap::default(),
            flagged_skip: FastSet::default(),
            flagged_regress: FastSet::default(),
            per_writer_fetchers: FastMap::default(),
            per_page_fetchers: FastMap::default(),
            flagged_copyset: FastSet::default(),
            live: vec![LiveNotices::default(); nprocs].into(),
            flushed_this_epoch: FastMap::default(),
            flagged_dup: FastSet::default(),
            regions,
            flagged_elision: FastSet::default(),
        }
    }

    /// A copy of the tables for an in-memory checkpoint (`Checker::save`).
    pub(crate) fn save(&self) -> InvariantState {
        let InvariantState {
            rule,
            versions,
            flagged_skip,
            flagged_regress,
            per_writer_fetchers,
            per_page_fetchers,
            flagged_copyset,
            live,
            flushed_this_epoch,
            flagged_dup,
            regions,
            flagged_elision,
        } = self;
        InvariantState {
            rule: *rule,
            versions: versions.clone(),
            flagged_skip: flagged_skip.clone(),
            flagged_regress: flagged_regress.clone(),
            per_writer_fetchers: per_writer_fetchers.clone(),
            per_page_fetchers: per_page_fetchers.clone(),
            flagged_copyset: flagged_copyset.clone(),
            live: live.clone(),
            flushed_this_epoch: flushed_this_epoch.clone(),
            flagged_dup: flagged_dup.clone(),
            regions: regions.clone(),
            flagged_elision: flagged_elision.clone(),
        }
    }

    /// Overwrite the tables with a [`InvariantState::save`] capture,
    /// reusing their allocations. The rule and region table are
    /// configuration.
    pub(crate) fn load(&mut self, save: &InvariantState) {
        let InvariantState {
            rule: _,
            versions,
            flagged_skip,
            flagged_regress,
            per_writer_fetchers,
            per_page_fetchers,
            flagged_copyset,
            live,
            flushed_this_epoch,
            flagged_dup,
            regions: _,
            flagged_elision,
        } = self;
        versions.clone_from(&save.versions);
        flagged_skip.clone_from(&save.flagged_skip);
        flagged_regress.clone_from(&save.flagged_regress);
        per_writer_fetchers.clone_from(&save.per_writer_fetchers);
        per_page_fetchers.clone_from(&save.per_page_fetchers);
        flagged_copyset.clone_from(&save.flagged_copyset);
        live.clone_from(&save.live);
        flushed_this_epoch.clone_from(&save.flushed_this_epoch);
        flagged_dup.clone_from(&save.flagged_dup);
        flagged_elision.clone_from(&save.flagged_elision);
    }

    pub fn on_version_bump(&mut self, page: u32, old: u32, new: u32, out: &mut Vec<Violation>) {
        if let Some(&prev) = self.versions.get(&page) {
            if old != prev && self.flagged_regress.insert(page) {
                out.push(Violation::VersionRegression { page, prev, old });
            }
        }
        if new != old + 1 && self.flagged_skip.insert(page) {
            out.push(Violation::VersionSkip { page, old, new });
        }
        self.versions.insert(page, new);
    }

    pub fn on_fetch(&mut self, pid: usize, from: usize, page: u32) {
        match self.rule {
            CopysetRule::None => {}
            CopysetRule::PerWriter => {
                self.per_writer_fetchers
                    .entry((page, from as u16))
                    .or_default()
                    .insert(pid);
            }
            CopysetRule::PerPage => {
                self.per_page_fetchers.entry(page).or_default().insert(pid);
            }
        }
    }

    pub fn on_update_flush(
        &mut self,
        writer: usize,
        page: u32,
        copyset: &CopySet,
        out: &mut Vec<Violation>,
    ) {
        static EMPTY: CopySet = CopySet::EMPTY;
        let fetchers = match self.rule {
            CopysetRule::None => return,
            CopysetRule::PerWriter => self
                .per_writer_fetchers
                .get(&(page, writer as u16))
                .unwrap_or(&EMPTY),
            CopysetRule::PerPage => self.per_page_fetchers.get(&page).unwrap_or(&EMPTY),
        };
        let mut missing = fetchers.minus(copyset);
        missing.remove(writer);
        if !missing.is_empty() && self.flagged_copyset.insert((page, writer as u16)) {
            out.push(Violation::CopysetOmission {
                page,
                writer,
                missing,
            });
        }
        self.flushed_this_epoch
            .entry((page, writer as u16))
            .or_default()
            .union_with(copyset);
    }

    /// A duplicated flush delivery: the wire handed `dst` a second copy of
    /// `writer`'s update of `page`. Legal only if that flush really
    /// happened this epoch and addressed `dst`.
    pub fn on_dup_delivery(
        &mut self,
        writer: usize,
        page: u32,
        dst: usize,
        out: &mut Vec<Violation>,
    ) {
        let grounded = self
            .flushed_this_epoch
            .get(&(page, writer as u16))
            .is_some_and(|cs| cs.contains(dst));
        if !grounded && self.flagged_dup.insert((page, writer as u16, dst as u16)) {
            out.push(Violation::UngroundedDup { page, writer, dst });
        }
    }

    /// Barrier release: in-flight flushes of the closing epoch are all
    /// applied, so any later duplicate must replay a *new* flush.
    pub fn on_barrier_release(&mut self) {
        self.flushed_this_epoch.clear();
    }

    /// A `bar-r` elision event: `writer` skipped its update push toward
    /// every process in `elided`. Each bit must be statically excusable —
    /// the run carries a region table, the page's certificate is a
    /// single-writer or commuting-writer proof, the certificate names this
    /// writer, and the skipped process is neither the writer itself nor
    /// one of its proven readers.
    pub fn on_false_share_elided(
        &mut self,
        writer: usize,
        page: u32,
        elided: &CopySet,
        out: &mut Vec<Violation>,
    ) {
        // Excused: every process except the writer and its proven readers.
        // Ungrounded is therefore the elided members that ARE the writer or
        // one of its readers — or, with no usable certificate, all of them.
        let cert = self
            .regions
            .as_ref()
            .and_then(|rt| rt.cert(page))
            .filter(|c| c.certified())
            .and_then(|c| c.writer(writer));
        let ungrounded: CopySet = match cert {
            None => elided.clone(),
            Some(wr) => elided
                .iter()
                .filter(|&q| q == writer || wr.readers.contains(q))
                .collect(),
        };
        if !ungrounded.is_empty() && self.flagged_elision.insert((page, writer as u16)) {
            out.push(Violation::UngroundedElision {
                page,
                writer,
                ungrounded,
            });
        }
    }

    pub fn on_notice_record(&mut self, pid: usize, page: u32, writer: u16, epoch: u64) {
        *self.live[pid].entry((page, writer, epoch)).or_insert(0) += 1;
    }

    pub fn on_notice_consume(&mut self, pid: usize, page: u32, writer: u16, epoch: u64) {
        if let Some(c) = self.live[pid].get_mut(&(page, writer, epoch)) {
            *c -= 1;
            if *c == 0 {
                self.live[pid].remove(&(page, writer, epoch));
            }
        }
    }

    pub fn on_gc_discard(&mut self, pid: usize, out: &mut Vec<Violation>) {
        let mut entries: Vec<(u32, u16, u64)> = self.live[pid].keys().copied().collect();
        entries.sort_unstable();
        for (page, writer, epoch) in entries {
            out.push(Violation::GcLiveNotice {
                pid,
                page,
                writer,
                epoch,
            });
        }
        self.live[pid].clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn take(f: impl FnOnce(&mut Vec<Violation>)) -> Vec<Violation> {
        let mut v = Vec::new();
        f(&mut v);
        v
    }

    #[test]
    fn version_plus_one_is_clean() {
        let mut inv = InvariantState::new(2, CopysetRule::PerPage, None);
        assert!(take(|v| inv.on_version_bump(3, 1, 2, v)).is_empty());
        assert!(take(|v| inv.on_version_bump(3, 2, 3, v)).is_empty());
    }

    #[test]
    fn version_skip_flagged_once() {
        let mut inv = InvariantState::new(2, CopysetRule::PerPage, None);
        let v = take(|v| inv.on_version_bump(3, 1, 4, v));
        assert!(matches!(
            v[0],
            Violation::VersionSkip {
                page: 3,
                old: 1,
                new: 4
            }
        ));
        assert!(take(|v| inv.on_version_bump(3, 4, 7, v)).is_empty());
    }

    #[test]
    fn version_regression_flagged() {
        let mut inv = InvariantState::new(2, CopysetRule::PerPage, None);
        assert!(take(|v| inv.on_version_bump(3, 1, 2, v)).is_empty());
        let v = take(|v| inv.on_version_bump(3, 1, 2, v));
        assert!(matches!(
            v[0],
            Violation::VersionRegression {
                page: 3,
                prev: 2,
                old: 1
            }
        ));
    }

    fn omission(v: &Violation) -> (u32, usize, &CopySet) {
        match v {
            Violation::CopysetOmission {
                page,
                writer,
                missing,
            } => (*page, *writer, missing),
            other => panic!("expected CopysetOmission, got {other:?}"),
        }
    }

    #[test]
    fn per_page_copyset_omission() {
        let mut inv = InvariantState::new(4, CopysetRule::PerPage, None);
        inv.on_fetch(1, 0, 7);
        inv.on_fetch(2, 0, 7);
        // Copyset covers p1 but not p2.
        let v = take(|v| inv.on_update_flush(0, 7, &CopySet::single(1), v));
        assert_eq!(omission(&v[0]), (7, 0, &CopySet::single(2)));
        // Dedup per (page, writer).
        assert!(take(|v| inv.on_update_flush(0, 7, &CopySet::single(1), v)).is_empty());
    }

    #[test]
    fn per_writer_copyset_tracks_writer() {
        let mut inv = InvariantState::new(4, CopysetRule::PerWriter, None);
        inv.on_fetch(2, 1, 7); // p2 fetched p1's diffs
                               // p3 flushing page 7 owes nothing to p1's fetchers.
        assert!(take(|v| inv.on_update_flush(3, 7, &CopySet::EMPTY, v)).is_empty());
        // p1 flushing without p2 in the copyset is an omission.
        let v = take(|v| inv.on_update_flush(1, 7, &CopySet::EMPTY, v));
        assert_eq!(omission(&v[0]), (7, 1, &CopySet::single(2)));
    }

    #[test]
    fn writer_itself_never_missing() {
        let mut inv = InvariantState::new(4, CopysetRule::PerPage, None);
        inv.on_fetch(1, 0, 7);
        assert!(take(|v| inv.on_update_flush(1, 7, &CopySet::EMPTY, v)).is_empty());
    }

    #[test]
    fn fetchers_past_pid_64_tracked() {
        // The sparse fetcher sets have no 64-process ceiling: a fetch by
        // pid 200 must surface in the omission just like any other.
        let mut inv = InvariantState::new(256, CopysetRule::PerPage, None);
        inv.on_fetch(200, 0, 7);
        let v = take(|v| inv.on_update_flush(0, 7, &CopySet::EMPTY, v));
        assert_eq!(omission(&v[0]), (7, 0, &CopySet::single(200)));
    }

    #[test]
    fn gc_with_live_notice_flagged() {
        let mut inv = InvariantState::new(2, CopysetRule::None, None);
        inv.on_notice_record(1, 4, 0, 9);
        inv.on_notice_record(1, 4, 0, 9);
        inv.on_notice_consume(1, 4, 0, 9);
        let v = take(|v| inv.on_gc_discard(1, v));
        assert_eq!(v.len(), 1);
        assert!(matches!(
            v[0],
            Violation::GcLiveNotice {
                pid: 1,
                page: 4,
                writer: 0,
                epoch: 9
            }
        ));
        // State cleared after report.
        assert!(take(|v| inv.on_gc_discard(1, v)).is_empty());
    }

    #[test]
    fn grounded_dup_is_clean() {
        let mut inv = InvariantState::new(4, CopysetRule::PerPage, None);
        inv.on_fetch(2, 0, 7);
        assert!(take(|v| inv.on_update_flush(0, 7, &CopySet::single(2), v)).is_empty());
        assert!(take(|v| inv.on_dup_delivery(0, 7, 2, v)).is_empty());
    }

    #[test]
    fn ungrounded_dup_flagged_once() {
        let mut inv = InvariantState::new(4, CopysetRule::PerPage, None);
        let v = take(|v| inv.on_dup_delivery(1, 7, 2, v));
        assert!(matches!(
            v[0],
            Violation::UngroundedDup {
                page: 7,
                writer: 1,
                dst: 2
            }
        ));
        assert!(take(|v| inv.on_dup_delivery(1, 7, 2, v)).is_empty());
    }

    #[test]
    fn dup_after_barrier_is_ungrounded() {
        let mut inv = InvariantState::new(4, CopysetRule::PerPage, None);
        assert!(take(|v| inv.on_update_flush(0, 7, &CopySet::single(2), v)).is_empty());
        inv.on_barrier_release();
        let v = take(|v| inv.on_dup_delivery(0, 7, 2, v));
        assert_eq!(v.len(), 1);
    }

    fn region_table() -> Arc<RegionTable> {
        use dsm_core::{PageCert, PageClass, WriterRegions};
        Arc::new(RegionTable::new(vec![PageCert {
            page: 7,
            class: PageClass::FalseShared,
            writers: vec![
                WriterRegions {
                    writer: 0,
                    spans: vec![(0, 64)],
                    readers: CopySet::single(1),
                },
                WriterRegions {
                    writer: 1,
                    spans: vec![(64, 128)],
                    readers: CopySet::single(0),
                },
            ],
            loads: vec![],
        }]))
    }

    fn ungrounded(v: &Violation) -> (u32, usize, &CopySet) {
        match v {
            Violation::UngroundedElision {
                page,
                writer,
                ungrounded,
            } => (*page, *writer, ungrounded),
            other => panic!("expected UngroundedElision, got {other:?}"),
        }
    }

    #[test]
    fn certified_elision_is_clean() {
        let mut inv = InvariantState::new(4, CopysetRule::PerPage, Some(region_table()));
        // p0's only proven reader is p1; eliding p2 and p3 is excused.
        let elided: CopySet = [2usize, 3].into_iter().collect();
        assert!(take(|v| inv.on_false_share_elided(0, 7, &elided, v)).is_empty());
    }

    #[test]
    fn eliding_a_proven_reader_flagged_once() {
        let mut inv = InvariantState::new(4, CopysetRule::PerPage, Some(region_table()));
        // p1 is a proven reader of p0's spans: skipping it is ungrounded.
        let elided: CopySet = [1usize, 2].into_iter().collect();
        let v = take(|v| inv.on_false_share_elided(0, 7, &elided, v));
        assert_eq!(ungrounded(&v[0]), (7, 0, &CopySet::single(1)));
        assert!(take(|v| inv.on_false_share_elided(0, 7, &CopySet::single(1), v)).is_empty());
    }

    #[test]
    fn elision_without_table_flagged() {
        let mut inv = InvariantState::new(4, CopysetRule::PerPage, None);
        let v = take(|v| inv.on_false_share_elided(0, 7, &CopySet::single(2), v));
        assert_eq!(ungrounded(&v[0]), (7, 0, &CopySet::single(2)));
    }

    #[test]
    fn elision_by_unknown_writer_flagged() {
        let mut inv = InvariantState::new(4, CopysetRule::PerPage, Some(region_table()));
        // p2 holds no certificate on page 7.
        let v = take(|v| inv.on_false_share_elided(2, 7, &CopySet::single(3), v));
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn balanced_notices_are_clean() {
        let mut inv = InvariantState::new(2, CopysetRule::None, None);
        inv.on_notice_record(0, 4, 1, 9);
        inv.on_notice_consume(0, 4, 1, 9);
        assert!(take(|v| inv.on_gc_discard(0, v)).is_empty());
    }
}
