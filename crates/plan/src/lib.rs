//! dsm-plan: symbolic access plans and a static analyzer for the virtual
//! cluster's applications.
//!
//! Each application declares, per barrier phase, the regions of each
//! shared array it loads, stores, and actually modifies, as symbolic bands
//! over `(pid, nprocs, scale)` ([`spec`]). The analyzer lowers a plan to
//! byte spans and page footprints for a concrete `(nprocs, scale)`
//! ([`lower`], [`layout`], [`schedule`]) and then:
//!
//! * proves phase-level data-race freedom ([`race`]);
//! * classifies every written page as exclusive / true-shared /
//!   false-shared and emits commuting-writer region certificates
//!   ([`falseshare`]), grounded against real runs by [`regions`];
//! * predicts the steady-state per-page copysets and the exact per-barrier
//!   update-flush traffic by running `dsm_core`'s own protocol code over
//!   dataless page digests fed from the page-granularity footprints
//!   ([`protosim`], [`digest`]);
//! * computes static page-conflict groups that the exploration scheduler's
//!   dynamic conflict components must refine ([`groups`]);
//! * lifts the traffic predictions to a symbolic node count, deriving
//!   certified piecewise-polynomial formulas in `N` and per-app sparsity
//!   certificates for the copyset tables ([`scaling`]);
//! * emits deterministic machine-readable reports ([`report`]).
//!
//! The predictions are falsifiable: [`dynamic::PlanSink`] replays a real
//! run's check-event stream against the plan, asserting dynamic accesses ⊆
//! declared spans, and [`Prediction::read`] over the real cluster must
//! equal the digest run's.

pub mod digest;
pub mod dynamic;
pub mod falseshare;
pub mod groups;
pub mod layout;
pub mod lower;
pub mod protosim;
pub mod race;
pub mod regions;
pub mod report;
pub mod scaling;
pub mod schedule;
pub mod spec;

pub use digest::{DigestDiff, DigestPages};
pub use dynamic::{PlanOutcome, PlanSink};
pub use falseshare::{prove_regions, run_footprints, RunFootprints};
pub use groups::static_page_groups;
pub use layout::{probe_layout, ArrayLayout, Layout, REDUCE_RESULT, REDUCE_SLOTS};
pub use lower::{band, interior_band, lower_rows, SpanSet, ESIZE};
pub use protosim::{predict, total_pages, FlushTriple, Prediction, SteadyCopysets};
pub use race::{check_races, RaceReport, RaceWitness};
pub use regions::{region_digest, render_region_report, RegionOutcome, RegionSink};
pub use report::{analyze, render_app_report, render_report, AppAnalysis};
pub use scaling::{derive_law, measure, Formula, Piece, ScaleLaw, ScaleSample, Sparsity, METRICS};
pub use schedule::{
    build_schedule, epoch_touches, lower_epoch, EpochAccess, EpochKind, EpochSpec, EpochTouch,
};
pub use spec::{
    AccessDecl, AccessKind, AppPlan, ArrayShape, Cols, PhasePlan, PlannedApp, RowArgs, RowFn, Rows,
    Who,
};
