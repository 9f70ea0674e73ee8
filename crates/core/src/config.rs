//! Run configuration: protocol choice and protocol-specific knobs.

use dsm_sim::SimConfig;

/// Which protocol a run uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum ProtocolKind {
    /// Homeless multi-writer LRC, invalidate-based (paper: `lmw-i`).
    LmwI,
    /// Homeless multi-writer LRC, hybrid update (paper: `lmw-u`).
    LmwU,
    /// Home-based barrier protocol, invalidate-based (paper: `bar-i`).
    BarI,
    /// Home-based barrier protocol with update pushes (paper: `bar-u`).
    BarU,
    /// Region-granularity bar-u (`bar-r`): identical to bar-u except on
    /// pages carrying a static commuting-writer certificate (see
    /// [`crate::mem::RegionTable`]), where the twin is skipped — the
    /// delta is captured from twin-free dirty tracking over the proven
    /// write spans — and update pushes are elided for copyset members the
    /// plan proves never read the writer's region. With no region table
    /// installed it degenerates to exactly bar-u.
    BarR,
    /// Overdrive: bar-u without segvs (paper: `bar-s`).
    BarS,
    /// Overdrive: bar-s without mprotects (paper: `bar-m`).
    BarM,
    /// Null protocol: all pages always writable, barriers free. Used for
    /// the uniprocessor baseline the paper computes speedups against
    /// ("a single-process version ... with all synchronization macros
    /// nulled out").
    Seq,
}

impl ProtocolKind {
    /// Paper's abbreviation.
    pub fn label(self) -> &'static str {
        match self {
            ProtocolKind::LmwI => "lmw-i",
            ProtocolKind::LmwU => "lmw-u",
            ProtocolKind::BarI => "bar-i",
            ProtocolKind::BarU => "bar-u",
            ProtocolKind::BarR => "bar-r",
            ProtocolKind::BarS => "bar-s",
            ProtocolKind::BarM => "bar-m",
            ProtocolKind::Seq => "seq",
        }
    }

    /// Inverse of [`ProtocolKind::label`].
    pub fn from_label(s: &str) -> Option<ProtocolKind> {
        match s {
            "lmw-i" => Some(ProtocolKind::LmwI),
            "lmw-u" => Some(ProtocolKind::LmwU),
            "bar-i" => Some(ProtocolKind::BarI),
            "bar-u" => Some(ProtocolKind::BarU),
            "bar-r" => Some(ProtocolKind::BarR),
            "bar-s" => Some(ProtocolKind::BarS),
            "bar-m" => Some(ProtocolKind::BarM),
            "seq" => Some(ProtocolKind::Seq),
            _ => None,
        }
    }

    /// The four protocols of Table 1 / Figure 2, in paper order.
    pub const BASE_FOUR: [ProtocolKind; 4] = [
        ProtocolKind::LmwI,
        ProtocolKind::LmwU,
        ProtocolKind::BarI,
        ProtocolKind::BarU,
    ];

    /// All seven real protocols (everything but [`ProtocolKind::Seq`]),
    /// in the house order of the campaign, transport and scale reports.
    pub const REAL_SEVEN: [ProtocolKind; 7] = [
        ProtocolKind::LmwI,
        ProtocolKind::LmwU,
        ProtocolKind::BarI,
        ProtocolKind::BarU,
        ProtocolKind::BarS,
        ProtocolKind::BarM,
        ProtocolKind::BarR,
    ];

    /// True for the homeless LRC family.
    pub fn is_lmw(self) -> bool {
        matches!(self, ProtocolKind::LmwI | ProtocolKind::LmwU)
    }

    /// True for home-based protocols (including overdrive).
    pub fn is_bar(self) -> bool {
        matches!(
            self,
            ProtocolKind::BarI
                | ProtocolKind::BarU
                | ProtocolKind::BarR
                | ProtocolKind::BarS
                | ProtocolKind::BarM
        )
    }

    /// True if the protocol pushes updates (eliminating steady-state misses).
    pub fn is_update(self) -> bool {
        matches!(
            self,
            ProtocolKind::LmwU
                | ProtocolKind::BarU
                | ProtocolKind::BarR
                | ProtocolKind::BarS
                | ProtocolKind::BarM
        )
    }

    /// True for the region-granularity variant, the only protocol that
    /// consumes a [`crate::mem::RegionTable`].
    pub fn is_region(self) -> bool {
        matches!(self, ProtocolKind::BarR)
    }

    /// True for the overdrive variants.
    pub fn is_overdrive(self) -> bool {
        matches!(self, ProtocolKind::BarS | ProtocolKind::BarM)
    }

    /// True if barrier-native reductions are available. The homeless
    /// protocols emulate reductions through shared memory (as
    /// SUIF-generated code would); bar-i "has been augmented to provide
    /// explicit support for reductions" (§2.2.1), and the null protocol
    /// reduces for free.
    pub fn native_reductions(self) -> bool {
        self.is_bar() || self == ProtocolKind::Seq
    }
}

/// Deliberately seeded protocol bugs, used by exploration regression
/// tests: the model checker must demonstrate it can find ordering- and
/// fault-dependent bugs, so each variant gates one precisely scoped
/// deviation from the correct protocol. `None` (the default, and the only
/// value any measurement path uses) is the correct protocol.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum PlantedBug {
    /// Correct protocol.
    #[default]
    None,
    /// lmw-u fault-time coverage treats a stored update for epochs
    /// `[lo, hi]` as covering *every* epoch `<= hi`, so an earlier dropped
    /// flush from the same writer is never re-fetched. Visible only when a
    /// middle flush is lost while a later one arrives — exactly the kind of
    /// fault/ordering interleaving a single schedule cannot show.
    LmwUCoverageGap,
    /// One-sided backend only: an lmw invalidate-mode flush skips the
    /// eager pre-barrier diff seal but still posts its write notice, so a
    /// later one-sided fetch reads a diff table that is missing the
    /// noticed epoch — the classic RDMA stale-read, invisible two-sided
    /// because the server seals lazily at serve time.
    OneSidedStaleRead,
}

impl PlantedBug {
    /// Stable name (used by the exploration trace format).
    pub fn label(self) -> &'static str {
        match self {
            PlantedBug::None => "none",
            PlantedBug::LmwUCoverageGap => "lmw-u-coverage-gap",
            PlantedBug::OneSidedStaleRead => "one-sided-stale-read",
        }
    }

    /// Inverse of [`PlantedBug::label`].
    pub fn from_label(s: &str) -> Option<PlantedBug> {
        match s {
            "none" => Some(PlantedBug::None),
            "lmw-u-coverage-gap" => Some(PlantedBug::LmwUCoverageGap),
            "one-sided-stale-read" => Some(PlantedBug::OneSidedStaleRead),
            _ => None,
        }
    }
}

/// Full configuration of one run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Machine configuration (process count, page size, costs, stress).
    pub sim: SimConfig,
    /// Protocol under test.
    pub protocol: ProtocolKind,
    /// Iterations excluded from measurement; the paper starts timing "only
    /// after the applications have reached a steady state (and after all
    /// page home assignments occur)".
    pub warmup_iters: usize,
    /// Runtime home migration after the first iteration (bar protocols).
    pub migration: bool,
    /// Homeless-protocol GC trigger: when the number of retained diffs
    /// exceeds this, a stop-the-world garbage collection runs at the next
    /// barrier.
    pub gc_diff_threshold: usize,
    /// Seeded bug under exploration regression tests; [`PlantedBug::None`]
    /// everywhere else.
    pub planted: PlantedBug,
    /// Statically proven region certificates consumed by `bar-r` (and by
    /// the checker to ground `FalseShareElided` events). Ignored by every
    /// other protocol; `None` makes bar-r behave exactly like bar-u.
    pub regions: Option<std::sync::Arc<crate::mem::RegionTable>>,
}

impl RunConfig {
    /// Default configuration for `protocol` (8 procs, paper cost model).
    pub fn new(protocol: ProtocolKind) -> RunConfig {
        RunConfig {
            sim: SimConfig::default(),
            protocol,
            warmup_iters: 2,
            migration: true,
            gc_diff_threshold: 1_000_000,
            planted: PlantedBug::default(),
            regions: None,
        }
    }

    /// Same, with an explicit process count.
    pub fn with_nprocs(protocol: ProtocolKind, nprocs: usize) -> RunConfig {
        let mut c = RunConfig::new(protocol);
        c.sim.nprocs = nprocs;
        c
    }

    /// Sequential baseline configuration matching `self`'s cost model.
    #[must_use]
    pub fn baseline(&self) -> RunConfig {
        let mut c = self.clone();
        c.protocol = ProtocolKind::Seq;
        c.sim.nprocs = 1;
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper() {
        assert_eq!(ProtocolKind::LmwI.label(), "lmw-i");
        assert_eq!(ProtocolKind::BarM.label(), "bar-m");
    }

    #[test]
    fn labels_round_trip() {
        use ProtocolKind::*;
        for p in [LmwI, LmwU, BarI, BarU, BarR, BarS, BarM, Seq] {
            assert_eq!(ProtocolKind::from_label(p.label()), Some(p));
        }
        assert_eq!(ProtocolKind::from_label("bar-x"), None);
    }

    #[test]
    fn family_predicates() {
        assert!(ProtocolKind::LmwI.is_lmw());
        assert!(ProtocolKind::LmwU.is_lmw());
        assert!(!ProtocolKind::BarI.is_lmw());
        assert!(ProtocolKind::BarS.is_bar());
        assert!(!ProtocolKind::Seq.is_bar());
        assert!(!ProtocolKind::LmwI.is_update());
        assert!(ProtocolKind::LmwU.is_update());
        assert!(ProtocolKind::BarM.is_update());
        assert!(ProtocolKind::BarM.is_overdrive());
        assert!(!ProtocolKind::BarU.is_overdrive());
        assert!(ProtocolKind::BarR.is_bar());
        assert!(ProtocolKind::BarR.is_update());
        assert!(!ProtocolKind::BarR.is_overdrive());
        assert!(ProtocolKind::BarR.is_region());
        assert!(!ProtocolKind::BarU.is_region());
        assert_eq!(ProtocolKind::BarR.label(), "bar-r");
    }

    #[test]
    fn reduction_support_matches_paper() {
        assert!(!ProtocolKind::LmwI.native_reductions());
        assert!(!ProtocolKind::LmwU.native_reductions());
        assert!(ProtocolKind::BarI.native_reductions());
        assert!(ProtocolKind::BarS.native_reductions());
        assert!(ProtocolKind::Seq.native_reductions());
    }

    #[test]
    fn baseline_is_one_proc_seq() {
        let c = RunConfig::new(ProtocolKind::BarU);
        let b = c.baseline();
        assert_eq!(b.protocol, ProtocolKind::Seq);
        assert_eq!(b.sim.nprocs, 1);
        assert_eq!(b.warmup_iters, c.warmup_iters);
    }

    #[test]
    fn base_four_order() {
        let labels: Vec<&str> = ProtocolKind::BASE_FOUR.iter().map(|p| p.label()).collect();
        assert_eq!(labels, vec!["lmw-i", "lmw-u", "bar-i", "bar-u"]);
    }
}
