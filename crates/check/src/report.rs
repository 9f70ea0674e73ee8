//! Typed violations and the run summary.

use std::fmt;

use dsm_core::proto::CopySet;

/// Render a pid set for a violation message: sorted pids, comma-separated.
fn pid_list(cs: &CopySet) -> String {
    let mut s = String::new();
    for (i, q) in cs.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = fmt::Write::write_fmt(&mut s, format_args!("p{q}"));
    }
    s
}

/// What kind of unsynchronized access pair a race is.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum RaceKind {
    /// Two writes with no happens-before edge between them.
    #[default]
    WriteWrite,
    /// A read, then an unordered write.
    ReadWrite,
    /// A write, then an unordered read.
    WriteRead,
}

dsm_sim::impl_state_enum!(RaceKind {
    0 => WriteWrite,
    1 => ReadWrite,
    2 => WriteRead,
});

impl fmt::Display for RaceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RaceKind::WriteWrite => "write-write",
            RaceKind::ReadWrite => "read-write",
            RaceKind::WriteRead => "write-read",
        })
    }
}

/// One checker finding. Everything the checker can complain about is one of
/// these variants; a clean run has none.
#[derive(Clone, Debug)]
pub enum Violation {
    /// Two accesses to the same 8-byte word, at least one a write, with no
    /// happens-before ordering (reported once per word).
    Race {
        kind: RaceKind,
        /// Segment byte address of the racy word.
        addr: usize,
        epoch: u64,
        first_pid: usize,
        second_pid: usize,
    },
    /// A read observed bytes that differ from what lazy release consistency
    /// requires (last-barrier state plus the reader's own in-epoch writes)
    /// on a word that is not racy — the bar-m divergence signal.
    StaleRead {
        pid: usize,
        /// Segment byte address of the first mismatching word.
        addr: usize,
        epoch: u64,
        expected: Vec<u8>,
        observed: Vec<u8>,
    },
    /// A per-page version index moved by something other than +1.
    VersionSkip { page: u32, old: u32, new: u32 },
    /// A version bump started from a version older than the last one the
    /// checker saw for that page (the index went backwards).
    VersionRegression { page: u32, prev: u32, old: u32 },
    /// An update flush whose copyset omitted processes that had fetched
    /// the page (the set of missing pids).
    CopysetOmission {
        page: u32,
        writer: usize,
        missing: CopySet,
    },
    /// A garbage collection discarded state while `pid` still held a live
    /// (recorded but never consumed) write notice naming a diff.
    GcLiveNotice {
        pid: usize,
        page: u32,
        writer: u16,
        epoch: u64,
    },
    /// A duplicated delivery with no matching flush this epoch: the wire
    /// claimed to repeat a message `writer` never sent toward `dst`.
    UngroundedDup {
        page: u32,
        writer: usize,
        dst: usize,
    },
    /// A `bar-r` push elision not excused by the static region
    /// certificate: the protocol skipped an update push toward processes
    /// (`ungrounded`) that the certificate does not prove to be
    /// non-readers of `writer`'s spans — or the page has no usable
    /// certificate at all.
    UngroundedElision {
        page: u32,
        writer: usize,
        ungrounded: CopySet,
    },
}

/// A placeholder for `Vec<Violation>` to decode into; never observed.
impl Default for Violation {
    fn default() -> Violation {
        Violation::VersionSkip {
            page: 0,
            old: 0,
            new: 0,
        }
    }
}

dsm_sim::impl_state_enum!(Violation {
    0 => Race { kind, addr, epoch, first_pid, second_pid },
    1 => StaleRead { pid, addr, epoch, expected, observed },
    2 => VersionSkip { page, old, new },
    3 => VersionRegression { page, prev, old },
    4 => CopysetOmission { page, writer, missing },
    5 => GcLiveNotice { pid, page, writer, epoch },
    6 => UngroundedDup { page, writer, dst },
    7 => UngroundedElision { page, writer, ungrounded },
});

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Race {
                kind,
                addr,
                epoch,
                first_pid,
                second_pid,
            } => write!(
                f,
                "data race ({kind}) at addr {addr:#x} in epoch {epoch}: p{first_pid} vs p{second_pid}"
            ),
            Violation::StaleRead {
                pid,
                addr,
                epoch,
                expected,
                observed,
            } => write!(
                f,
                "stale read by p{pid} at addr {addr:#x} in epoch {epoch}: expected {expected:02x?}, observed {observed:02x?}"
            ),
            Violation::VersionSkip { page, old, new } => {
                write!(f, "version index of page {page} jumped {old} -> {new}")
            }
            Violation::VersionRegression { page, prev, old } => write!(
                f,
                "version index of page {page} regressed: bump started at {old} after reaching {prev}"
            ),
            Violation::CopysetOmission {
                page,
                writer,
                missing,
            } => write!(
                f,
                "update flush of page {page} by p{writer} omitted cached readers ({})",
                pid_list(missing)
            ),
            Violation::GcLiveNotice {
                pid,
                page,
                writer,
                epoch,
            } => write!(
                f,
                "GC discarded state while p{pid} held a live notice for page {page} (writer p{writer}, epoch {epoch})"
            ),
            Violation::UngroundedDup { page, writer, dst } => write!(
                f,
                "duplicate delivery of page {page} from p{writer} to p{dst} matches no flush this epoch"
            ),
            Violation::UngroundedElision {
                page,
                writer,
                ungrounded,
            } => write!(
                f,
                "push elision on page {page} by p{writer} not excused by the region certificate ({})",
                pid_list(ungrounded)
            ),
        }
    }
}

/// Counters and findings for one checked run.
#[derive(Clone, Debug, Default)]
pub struct CheckReport {
    /// Total events received.
    pub events: u64,
    pub reads: u64,
    pub writes: u64,
    pub image_writes: u64,
    pub barriers: u64,
    pub reductions: u64,
    pub fetches: u64,
    pub update_flushes: u64,
    pub version_bumps: u64,
    pub notices_recorded: u64,
    pub notices_consumed: u64,
    pub gc_discards: u64,
    /// Duplicated flush deliveries observed (lossy wire only; zero on a
    /// faultless run).
    pub dup_deliveries: u64,
    /// Reliable messages that needed more than one transmission.
    pub wire_retransmits: u64,
    /// `bar-r` elision events (each names one or more copyset members a
    /// certificate excused from an update push); zero for every other
    /// protocol.
    pub false_share_elisions: u64,
    /// Total extra transmissions across all retried messages.
    pub wire_extra_attempts: u64,
    /// Happens-before edges induced by barriers (arrive + release fan-in/out).
    pub hb_edges: u64,
    /// 8-byte words with shadow state (allocated shadow pages × words/page).
    pub words_shadowed: u64,
    /// Findings, in detection order, capped; `dropped_violations` counts the
    /// overflow.
    pub violations: Vec<Violation>,
    pub dropped_violations: u64,
}

dsm_sim::impl_state!(CheckReport {
    state: events, reads, writes, image_writes, barriers, reductions, fetches, update_flushes,
        version_bumps, notices_recorded, notices_consumed, gc_discards, dup_deliveries,
        wire_retransmits, false_share_elisions, wire_extra_attempts, hb_edges, words_shadowed,
        violations, dropped_violations;
});

impl CheckReport {
    /// True if no violation of any kind was detected.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.dropped_violations == 0
    }

    /// Count of race findings.
    pub fn races(&self) -> usize {
        self.violations
            .iter()
            .filter(|v| matches!(v, Violation::Race { .. }))
            .count()
    }

    /// Count of stale-read findings.
    pub fn stale_reads(&self) -> usize {
        self.violations
            .iter()
            .filter(|v| matches!(v, Violation::StaleRead { .. }))
            .count()
    }

    /// Count of protocol-invariant findings (everything that is neither a
    /// race nor a stale read).
    pub fn invariant_violations(&self) -> usize {
        self.violations.len() - self.races() - self.stale_reads()
    }

    /// Multi-line human-readable summary (used by the `checked` runner and
    /// the committed baselines).
    pub fn summary(&self) -> String {
        use fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "events {}  (reads {}, writes {}, image {}, barriers {}, reductions {})",
            self.events, self.reads, self.writes, self.image_writes, self.barriers, self.reductions
        );
        let _ = writeln!(
            s,
            "protocol {} fetches, {} update flushes, {} version bumps, {} notices (+{} consumed), {} GCs",
            self.fetches,
            self.update_flushes,
            self.version_bumps,
            self.notices_recorded,
            self.notices_consumed,
            self.gc_discards
        );
        let _ = writeln!(
            s,
            "hb edges {}, words shadowed {}",
            self.hb_edges, self.words_shadowed
        );
        // Wire-fault telemetry is only printed when faults actually fired,
        // so faultless baselines are byte-identical to the pre-wire format.
        if self.wire_retransmits > 0 || self.dup_deliveries > 0 {
            let _ = writeln!(
                s,
                "wire: {} retransmitted msgs (+{} extra attempts), {} duplicated flushes",
                self.wire_retransmits, self.wire_extra_attempts, self.dup_deliveries
            );
        }
        // Region telemetry only appears for bar-r runs, keeping every
        // other protocol's baseline byte-identical.
        if self.false_share_elisions > 0 {
            let _ = writeln!(
                s,
                "regions: {} certified push elisions",
                self.false_share_elisions
            );
        }
        if self.is_clean() {
            let _ = writeln!(s, "violations: none");
        } else {
            let _ = writeln!(
                s,
                "violations: {} ({} races, {} stale reads, {} invariant){}",
                self.violations.len(),
                self.races(),
                self.stale_reads(),
                self.invariant_violations(),
                if self.dropped_violations > 0 {
                    format!(" +{} dropped", self.dropped_violations)
                } else {
                    String::new()
                }
            );
            for v in &self.violations {
                let _ = writeln!(s, "  {v}");
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_report() {
        let r = CheckReport::default();
        assert!(r.is_clean());
        assert!(r.summary().contains("violations: none"));
    }

    #[test]
    fn counts_by_kind() {
        let mut r = CheckReport::default();
        r.violations.push(Violation::Race {
            kind: RaceKind::WriteWrite,
            addr: 16,
            epoch: 3,
            first_pid: 0,
            second_pid: 1,
        });
        r.violations.push(Violation::StaleRead {
            pid: 2,
            addr: 64,
            epoch: 4,
            expected: vec![1],
            observed: vec![2],
        });
        r.violations.push(Violation::VersionSkip {
            page: 0,
            old: 1,
            new: 3,
        });
        assert!(!r.is_clean());
        assert_eq!(r.races(), 1);
        assert_eq!(r.stale_reads(), 1);
        assert_eq!(r.invariant_violations(), 1);
        let s = r.summary();
        assert!(s.contains("data race (write-write)"));
        assert!(s.contains("stale read by p2"));
        assert!(s.contains("jumped 1 -> 3"));
    }
}
