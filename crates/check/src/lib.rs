//! # dsm-check — dynamic checking for the simulated DSM cluster.
//!
//! A [`Checker`] consumes the cluster's [`CheckEvent`] stream (see
//! `dsm_core::check`) and runs three analyses over it:
//!
//! 1. **happens-before race detection** ([`race`]): vector clocks joined at
//!    every barrier, 8-byte-word shadow cells, one violation per racy word;
//! 2. **the LRC coherence oracle** ([`oracle`]): a value-level shadow of
//!    the segment that flags any non-racy read returning bytes other than
//!    "last barrier's state plus my own epoch writes" — the signal that
//!    catches `bar-m`'s silent divergence when write prediction misses;
//! 3. **protocol invariants** ([`invariants`]): version-index
//!    monotonicity, copyset ⊇ fetcher-set coverage for update flushes, no
//!    GC while a live write notice names a retained diff, and — for the
//!    region-granularity `bar-r` — every elided update push grounded by
//!    the static false-sharing certificate.
//!
//! The checker is observational: it never re-enters the cluster, charges no
//! virtual time, and a run with no sink installed is bit-identical to an
//! unchecked one. Use [`checked_run`] as a drop-in replacement for
//! `dsm_core::run_app` that also returns a [`CheckReport`].

#![forbid(unsafe_code)]

pub mod invariants;
pub mod oracle;
pub mod race;
#[cfg(test)]
mod reference;
pub mod report;

use std::cell::RefCell;
use std::ops::{Deref, DerefMut};
use std::rc::Rc;

use dsm_core::{CheckEvent, CheckSink, DsmApp, ProtocolKind, RunConfig, RunReport};
use dsm_sim::{share, SnapError, SnapReader, SnapWriter, State};

use invariants::{CopysetRule, InvariantState};
use oracle::{OracleSave, OracleState};
use race::{RaceSave, RaceState};
pub use report::{CheckReport, RaceKind, Violation};

/// Keep at most this many violations in the report; the rest only count.
const VIOLATION_CAP: usize = 256;

// The scratch buffer is a host-side cache, overwritten before every use.
dsm_sim::impl_state!(CheckState {
    state: report, race, oracle, inv, cur_epoch;
    config: scratch;
});

struct CheckState {
    report: CheckReport,
    race: RaceState,
    oracle: OracleState,
    inv: InvariantState,
    /// Epoch currently executing (the cluster's counter advances after the
    /// release event, so we track it from the releases).
    cur_epoch: u64,
    /// Reusable buffer for the writer's LRC-expected view on the write
    /// path (silent-store detection); one simulated store per fill.
    scratch: Vec<u8>,
}

impl CheckState {
    fn push(report: &mut CheckReport, v: Violation) {
        if report.violations.len() < VIOLATION_CAP {
            report.violations.push(v);
        } else {
            report.dropped_violations += 1;
        }
    }

    // Takes the event by value to mirror the CheckSink trait contract
    // (sinks own the event; the borrow inside is tied to the emitter).
    #[allow(clippy::needless_pass_by_value)]
    fn on_event(&mut self, ev: CheckEvent<'_>) {
        let CheckState {
            report,
            race,
            oracle,
            inv,
            cur_epoch,
            scratch,
        } = self;
        report.events += 1;
        let mut found: Vec<Violation> = Vec::new();
        match ev {
            CheckEvent::ImageWrite { addr, data } => {
                report.image_writes += 1;
                oracle.image_write(addr, data);
            }
            CheckEvent::Read { pid, addr, data } => {
                report.reads += 1;
                let mut hits = Vec::new();
                race.on_read(pid, addr, data.len(), &mut hits);
                for h in hits {
                    found.push(Violation::Race {
                        kind: h.kind,
                        addr: h.word_key as usize * 8,
                        epoch: *cur_epoch,
                        first_pid: h.first_pid,
                        second_pid: h.second_pid,
                    });
                }
                oracle.on_read(
                    pid,
                    addr,
                    data,
                    *cur_epoch,
                    |a| race.word_is_racy(a),
                    &mut found,
                );
            }
            CheckEvent::Write { pid, addr, data } => {
                report.writes += 1;
                // The writer's own LRC view, so the race detector can
                // discard silent stores (words rewritten with the value the
                // writer already sees never produce a diff).
                oracle.expected_into(pid, addr, data.len(), scratch);
                let mut hits = Vec::new();
                race.on_write(pid, addr, data, scratch, &mut hits);
                for h in hits {
                    found.push(Violation::Race {
                        kind: h.kind,
                        addr: h.word_key as usize * 8,
                        epoch: *cur_epoch,
                        first_pid: h.first_pid,
                        second_pid: h.second_pid,
                    });
                }
                oracle.on_write(pid, addr, data);
            }
            CheckEvent::BarrierArrive { .. } => {}
            CheckEvent::BarrierRelease { epoch } => {
                report.barriers += 1;
                report.hb_edges += race.barrier();
                oracle.barrier_release();
                inv.on_barrier_release();
                *cur_epoch = epoch + 1;
            }
            CheckEvent::Reduction { .. } => {
                report.reductions += 1;
            }
            CheckEvent::Fetch { pid, from, page } => {
                report.fetches += 1;
                inv.on_fetch(pid, from, page);
            }
            CheckEvent::UpdateFlush {
                writer,
                page,
                copyset,
                ..
            } => {
                report.update_flushes += 1;
                inv.on_update_flush(writer, page, copyset, &mut found);
            }
            CheckEvent::VersionBump { page, old, new } => {
                report.version_bumps += 1;
                inv.on_version_bump(page, old, new, &mut found);
            }
            CheckEvent::NoticeRecord {
                pid,
                page,
                writer,
                epoch,
            } => {
                report.notices_recorded += 1;
                inv.on_notice_record(pid, page, writer, epoch);
            }
            CheckEvent::NoticeConsume {
                pid,
                page,
                writer,
                epoch,
            } => {
                report.notices_consumed += 1;
                inv.on_notice_consume(pid, page, writer, epoch);
            }
            CheckEvent::GcDiscard { pid, .. } => {
                report.gc_discards += 1;
                inv.on_gc_discard(pid, &mut found);
            }
            CheckEvent::DupDelivery { writer, page, dst } => {
                report.dup_deliveries += 1;
                inv.on_dup_delivery(writer, page, dst, &mut found);
            }
            CheckEvent::WireRetransmit { attempts, .. } => {
                report.wire_retransmits += 1;
                report.wire_extra_attempts += u64::from(attempts.saturating_sub(1));
            }
            CheckEvent::FalseShareElided {
                writer,
                page,
                elided,
            } => {
                report.false_share_elisions += 1;
                inv.on_false_share_elided(writer, page, elided, &mut found);
            }
        }
        for v in found {
            Self::push(report, v);
        }
    }
}

/// An in-memory checkpoint of a [`Checker`] ([`Checker::save`]). Every
/// page-sized buffer — race shadow pages, the oracle's committed pages and
/// overlays — is an `Rc<[_]>` that may be shared with the checkpoint it
/// was saved against; everything else is a plain copy.
pub struct CheckSave {
    report: CheckReport,
    race: RaceSave,
    oracle: OracleSave,
    inv: InvariantState,
    cur_epoch: u64,
}

/// A dense page table (`None` = untouched) as checkpoint buffers, each
/// page shared with the same page of `parent` when equal to it.
fn share_table<T: Copy + PartialEq, B: Deref<Target = [T]>>(
    live: &[Option<B>],
    parent: Option<&[Option<Rc<[T]>>]>,
    spare: &mut Vec<Rc<[T]>>,
) -> Vec<Option<Rc<[T]>>> {
    let prev = |i: usize| parent?.get(i)?.as_ref();
    let pages = live.iter().enumerate();
    pages
        .map(|(i, page)| Some(share(page.as_deref()?, prev(i), spare)))
        .collect()
}

/// Copy a [`share_table`] capture back into the live table, in place for
/// every page present on both sides.
fn load_table<T: Copy, B>(live: &mut Vec<Option<B>>, saved: &[Option<Rc<[T]>>])
where
    B: DerefMut<Target = [T]> + for<'a> From<&'a [T]>,
{
    live.resize_with(saved.len(), || None);
    for (slot, page) in live.iter_mut().zip(saved) {
        match (slot.as_deref_mut(), page) {
            (Some(buf), Some(p)) => buf.copy_from_slice(p),
            (None, Some(p)) => *slot = Some(B::from(p)),
            (_, None) => *slot = None,
        }
    }
}

/// Pages of `saved` that do not share the buffer of the same page of
/// `parent`.
#[cfg(test)]
fn unshared<T>(saved: &[Option<Rc<[T]>>], parent: &[Option<Rc<[T]>>]) -> usize {
    let shared = |i: usize, p: &Rc<[T]>| matches!(parent.get(i), Some(Some(q)) if Rc::ptr_eq(p, q));
    let pages = saved.iter().enumerate();
    pages
        .filter(|(i, p)| p.as_ref().is_some_and(|p| !shared(*i, p)))
        .count()
}

/// The analyses behind a [`CheckSink`], with a handle that survives the
/// sink: install [`Checker::sink`] into a cluster (or hand it to
/// `dsm_core::run_app_checked`), then read [`Checker::report`] afterwards.
pub struct Checker {
    state: Rc<RefCell<CheckState>>,
}

struct SinkHandle {
    state: Rc<RefCell<CheckState>>,
}

impl CheckSink for SinkHandle {
    fn on_event(&mut self, ev: CheckEvent<'_>) {
        self.state.borrow_mut().on_event(ev);
    }
}

/// Which copyset discipline `protocol` promises (and the checker enforces).
fn copyset_rule(protocol: ProtocolKind) -> CopysetRule {
    if !protocol.is_update() {
        CopysetRule::None
    } else if protocol.is_lmw() {
        CopysetRule::PerWriter
    } else {
        CopysetRule::PerPage
    }
}

impl Checker {
    /// Build a checker sized for `cfg` (process count, page size,
    /// protocol-specific invariants).
    pub fn new(cfg: &RunConfig) -> Checker {
        let n = cfg.sim.nprocs;
        let ps = cfg.sim.page_size;
        Checker {
            state: Rc::new(RefCell::new(CheckState {
                report: CheckReport::default(),
                race: RaceState::new(n, ps),
                oracle: OracleState::new(n, ps),
                inv: InvariantState::new(n, copyset_rule(cfg.protocol), cfg.regions.clone()),
                cur_epoch: 1,
                scratch: Vec::new(),
            })),
        }
    }

    /// A sink sharing this checker's state; install it into the cluster.
    pub fn sink(&self) -> Box<dyn CheckSink> {
        Box::new(SinkHandle {
            state: Rc::clone(&self.state),
        })
    }

    /// Snapshot the findings so far. `words_shadowed` is filled in the
    /// copy only, so reading the report leaves the checker's state (and
    /// its snapshot bytes) as they were.
    pub fn report(&self) -> CheckReport {
        let st = self.state.borrow();
        let mut report = st.report.clone();
        report.words_shadowed = st.race.words_shadowed();
        report
    }

    /// Capture the complete checker state in memory, for the explorer's
    /// checkpoints. `parent` is the capture this run continued from: every
    /// page equal to its counterpart there is shared, not copied. The
    /// host-side scratch buffers are not captured. A copied page
    /// overwrites one that [`Checker::recycle`] handed back, if any.
    pub fn save(&self, parent: Option<&CheckSave>) -> CheckSave {
        let mut st = self.state.borrow_mut();
        let CheckState {
            report,
            race,
            oracle,
            inv,
            cur_epoch,
            scratch: _,
        } = &mut *st;
        CheckSave {
            report: report.clone(),
            race: race.save(parent.map(|p| &p.race)),
            oracle: oracle.save(parent.map(|p| &p.oracle)),
            inv: inv.save(),
            cur_epoch: *cur_epoch,
        }
    }

    /// Return to a [`Checker::save`] capture. Pages are copied into the
    /// live buffers and tables reuse their allocations, so a load whose
    /// shapes match allocates nothing. The checker must have been built
    /// from the same [`RunConfig`] as the one that saved.
    pub fn load(&self, save: &CheckSave) {
        let mut st = self.state.borrow_mut();
        let CheckState {
            report,
            race,
            oracle,
            inv,
            cur_epoch,
            scratch: _,
        } = &mut *st;
        report.clone_from(&save.report);
        race.load(&save.race);
        oracle.load(&save.oracle);
        inv.load(&save.inv);
        *cur_epoch = save.cur_epoch;
    }

    /// Take back a capture no checkpoint holds any more, so the page
    /// buffers only it held serve later saves.
    pub fn recycle(&self, save: CheckSave) {
        let mut st = self.state.borrow_mut();
        st.race.recycle(save.race);
        st.oracle.recycle(save.oracle);
    }

    /// Serialize the complete checker state — report, race detector,
    /// oracle, invariants, current epoch. A restored checker produces a
    /// bit-identical event trace and final report to one that replayed
    /// the run from the start.
    pub fn snapshot(&self, w: &mut SnapWriter) {
        self.state.borrow().encode(w);
    }

    /// Restore a [`Checker::snapshot`] capture. The checker must have
    /// been built from the same [`RunConfig`].
    pub fn restore(&self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.state.borrow_mut().decode(r)
    }
}

/// Run `app` under `cfg` with full checking; returns the normal run report
/// plus the checker's findings. Virtual time and statistics are identical
/// to an unchecked `dsm_core::run_app` of the same configuration.
pub fn checked_run<A: DsmApp + ?Sized>(app: &mut A, cfg: RunConfig) -> (RunReport, CheckReport) {
    let checker = Checker::new(&cfg);
    let run = dsm_core::run_app_checked(app, cfg, checker.sink());
    (run, checker.report())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_feeds_shared_state() {
        let cfg = RunConfig::new(ProtocolKind::BarU);
        let checker = Checker::new(&cfg);
        let mut sink = checker.sink();
        sink.on_event(CheckEvent::Write {
            pid: 0,
            addr: 64,
            data: &[1u8; 8],
        });
        sink.on_event(CheckEvent::BarrierRelease { epoch: 1 });
        let r = checker.report();
        assert_eq!(r.events, 2);
        assert_eq!(r.writes, 1);
        assert_eq!(r.barriers, 1);
        assert!(r.words_shadowed > 0);
        assert!(r.is_clean());
    }

    const PS: usize = dsm_sim::config::DEFAULT_PAGE_SIZE;

    fn feed(checker: &Checker, events: Vec<CheckEvent<'_>>) {
        let mut sink = checker.sink();
        for ev in events {
            sink.on_event(ev);
        }
    }

    fn snapshot_bytes(checker: &Checker) -> Vec<u8> {
        let mut w = SnapWriter::new();
        checker.snapshot(&mut w);
        w.into_bytes()
    }

    /// Four processes mid-epoch: committed pages 0, 1 and 3, shadow pages
    /// 0 and 1, one spilled reader set (word 8), p2's overlay on page 0
    /// and one overlay on the spare list.
    fn busy_checker() -> Checker {
        let checker = Checker::new(&RunConfig::with_nprocs(ProtocolKind::BarU, 4));
        feed(
            &checker,
            vec![
                CheckEvent::ImageWrite {
                    addr: 0,
                    data: &[3; 64],
                },
                CheckEvent::ImageWrite {
                    addr: 3 * PS,
                    data: &[4; 16],
                },
                CheckEvent::Write {
                    pid: 0,
                    addr: 64,
                    data: &[1; 8],
                },
                CheckEvent::Write {
                    pid: 1,
                    addr: PS + 8,
                    data: &[2; 16],
                },
                CheckEvent::BarrierRelease { epoch: 1 },
                CheckEvent::Read {
                    pid: 0,
                    addr: 64,
                    data: &[1; 8],
                },
                CheckEvent::Read {
                    pid: 1,
                    addr: 64,
                    data: &[1; 8],
                },
                CheckEvent::Write {
                    pid: 2,
                    addr: 128,
                    data: &[5; 8],
                },
            ],
        );
        checker
    }

    /// Materialize shadow page 10, spill a second reader set and grow the
    /// first, and race p0's write against p2's.
    fn run_ahead(checker: &Checker) {
        feed(
            checker,
            vec![
                CheckEvent::Write {
                    pid: 3,
                    addr: 10 * PS,
                    data: &[6; 8],
                },
                CheckEvent::Read {
                    pid: 2,
                    addr: 200,
                    data: &[0; 8],
                },
                CheckEvent::Read {
                    pid: 3,
                    addr: 200,
                    data: &[0; 8],
                },
                CheckEvent::Read {
                    pid: 2,
                    addr: 64,
                    data: &[1; 8],
                },
                CheckEvent::Write {
                    pid: 0,
                    addr: 128,
                    data: &[7; 8],
                },
            ],
        );
    }

    #[test]
    fn load_returns_to_the_saved_state() {
        let checker = busy_checker();
        let save = checker.save(None);
        let (bytes, report) = (snapshot_bytes(&checker), checker.report());
        run_ahead(&checker);
        let ahead = checker.report();
        assert_eq!(ahead.races(), 1);
        assert!(ahead.words_shadowed > report.words_shadowed);
        assert_ne!(snapshot_bytes(&checker), bytes);

        checker.load(&save);
        assert_eq!(snapshot_bytes(&checker), bytes);
        assert_eq!(format!("{:?}", checker.report()), format!("{report:?}"));
        // And the loaded checker runs ahead exactly as the first time.
        run_ahead(&checker);
        assert_eq!(format!("{:?}", checker.report()), format!("{ahead:?}"));
    }

    #[test]
    fn saves_with_no_access_between_share_every_page() {
        let checker = busy_checker();
        let first = checker.save(None);
        let second = checker.save(Some(&first));
        assert_eq!(second.race.unshared(&first.race), 0);
        assert_eq!(second.oracle.unshared(&first.oracle), (0, 0));
        // Against no parent, every buffer is a copy.
        assert_eq!(first.race.unshared(&second.race), 0);
        let fresh = checker.save(None);
        assert_eq!(fresh.race.unshared(&first.race), 2);
        assert_eq!(fresh.oracle.unshared(&first.oracle), (3, 2));
    }

    #[test]
    fn a_save_after_one_write_copies_only_what_it_touched() {
        let checker = busy_checker();
        let parent = checker.save(None);
        feed(
            &checker,
            vec![CheckEvent::Write {
                pid: 2,
                addr: 136,
                data: &[9; 8],
            }],
        );
        let child = checker.save(Some(&parent));
        // One shadow page, and the data and mask of one overlay.
        assert_eq!(child.race.unshared(&parent.race), 1);
        assert_eq!(child.oracle.unshared(&parent.oracle), (0, 2));
    }

    #[test]
    fn a_save_into_recycled_buffers_holds_its_own_pages() {
        let checker = busy_checker();
        let root = checker.save(None);
        run_ahead(&checker);
        let ahead = checker.save(Some(&root));
        checker.load(&root);
        checker.recycle(ahead);
        feed(
            &checker,
            vec![CheckEvent::Write {
                pid: 2,
                addr: 136,
                data: &[9; 8],
            }],
        );
        let child = checker.save(Some(&root));
        let bytes = snapshot_bytes(&checker);
        run_ahead(&checker);
        checker.load(&child);
        assert_eq!(snapshot_bytes(&checker), bytes);
    }

    #[test]
    fn save_and_load_leave_the_host_caches_alone() {
        let checker = busy_checker();
        let caches = |c: &Checker| {
            let st = c.state.borrow();
            (st.scratch.clone(), st.oracle.caches())
        };
        let before = caches(&checker);
        let save = checker.save(None);
        assert_eq!(caches(&checker), before);

        run_ahead(&checker);
        let (scratch, (oracle_scratch, live, spare, wiped)) = caches(&checker);
        assert!(wiped);
        checker.load(&save);
        let (scratch_after, (oracle_scratch_after, live_after, spare_after, wiped_after)) =
            caches(&checker);
        assert_eq!(
            (scratch_after, oracle_scratch_after),
            (scratch, oracle_scratch)
        );
        // Overlays the capture lacks are recycled, not dropped.
        assert_eq!(live_after + spare_after, live + spare);
        assert!(live_after < live && wiped_after);
    }

    #[test]
    fn a_recycled_overlay_encodes_like_a_fresh_one() {
        // p0's overlay retires to the spare list at the barrier; a checker
        // restored from that state has none. The same p1 write then draws
        // a recycled overlay in one and a fresh one in the other, and the
        // two must still encode alike.
        let cfg = RunConfig::with_nprocs(ProtocolKind::BarU, 2);
        let used = Checker::new(&cfg);
        feed(
            &used,
            vec![
                CheckEvent::Write {
                    pid: 0,
                    addr: 0,
                    data: &[7; 16],
                },
                CheckEvent::BarrierRelease { epoch: 1 },
            ],
        );
        let bytes = snapshot_bytes(&used);
        let fresh = Checker::new(&cfg);
        fresh
            .restore(&mut SnapReader::new(&bytes))
            .expect("restore");
        assert_eq!(snapshot_bytes(&fresh), bytes);
        for checker in [&used, &fresh] {
            feed(
                checker,
                vec![CheckEvent::Write {
                    pid: 1,
                    addr: 64,
                    data: &[5; 8],
                }],
            );
        }
        assert_eq!(snapshot_bytes(&used), snapshot_bytes(&fresh));
    }

    #[test]
    fn reading_the_report_leaves_the_snapshot_alone() {
        let checker = busy_checker();
        let bytes = snapshot_bytes(&checker);
        assert!(checker.report().words_shadowed > 0);
        assert_eq!(snapshot_bytes(&checker), bytes);
    }

    #[test]
    fn cross_pid_same_epoch_race_reported() {
        let cfg = RunConfig::new(ProtocolKind::BarU);
        let checker = Checker::new(&cfg);
        let mut sink = checker.sink();
        sink.on_event(CheckEvent::Write {
            pid: 0,
            addr: 64,
            data: &[1u8; 8],
        });
        sink.on_event(CheckEvent::Write {
            pid: 1,
            addr: 64,
            data: &[2u8; 8],
        });
        let r = checker.report();
        assert_eq!(r.races(), 1);
    }
}
