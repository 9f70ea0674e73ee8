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
use std::rc::Rc;

use dsm_core::{CheckEvent, CheckSink, DsmApp, ProtocolKind, RunConfig, RunReport};
use dsm_sim::{SnapError, SnapReader, SnapWriter, State};

use invariants::{CopysetRule, InvariantState};
use oracle::OracleState;
use race::RaceState;
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

    /// Snapshot the findings so far.
    pub fn report(&self) -> CheckReport {
        let mut st = self.state.borrow_mut();
        st.report.words_shadowed = st.race.words_shadowed();
        st.report.clone()
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
    use dsm_core::CountingSink;

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

    #[test]
    fn counting_sink_still_works() {
        let mut s = CountingSink::default();
        s.on_event(CheckEvent::BarrierRelease { epoch: 1 });
        assert_eq!(s.events, 1);
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
