//! # dsm-explore — systematic schedule & fault-space exploration
//!
//! The `dsm-check` oracles observe the one schedule the virtual clock
//! deterministically produces; this crate enumerates the *other* ones. A
//! stateless model checker in the Loom/Shuttle tradition drives the
//! cluster through every bounded combination of:
//!
//! * **drop/deliver** for every droppable (unreliable-flush) message,
//! * **delivery order** among the one-way messages queued at a receiver,
//! * **arrival order** of per-process end-of-epoch consistency work,
//! * **migration timing** (execute at the natural barrier or defer),
//!
//! with dynamic partial-order reduction (commuting choices to disjoint
//! pages are explored once) and visited-state pruning keyed on the
//! cluster's structural hash. Every explored schedule runs under the full
//! `dsm-check` analyses; the first violating schedule is reported as a
//! replayable choice trace (see [`trace::ChoiceTrace`]).
//!
//! The `explore` binary in `dsm-bench` fronts this with per-protocol
//! budgets and the committed baselines under `results/`.

#![forbid(unsafe_code)]

pub mod driver;
pub mod regress;
pub mod sched;
pub mod trace;

pub use driver::{
    config_for_trace, explore, replay, ExploreOpts, ExploreReport, Replay, ViolationFound,
};
pub use regress::{CappedApp, RegressApp};
pub use sched::{Bounds, ChoicePoint, ExploreScheduler, SchedCheckpoint, StaticGroups, Visited};
pub use trace::ChoiceTrace;
