//! # dsm-bench — the paper-reproduction harness
//!
//! One binary per table/figure of the paper's evaluation section:
//!
//! * `table1` — Table 1 "Base Statistics" (diffs, remote misses, messages,
//!   data KB for lmw-i / lmw-u / bar-i / bar-u across the 8 applications),
//! * `fig2` — Figure 2 "8-Proc Speedups",
//! * `fig3` — Figure 3 "Time Breakdown for Bar-u",
//! * `fig4` — Figure 4 "Overdrive Speedups" (7 applications, no barnes),
//! * `summary` — the paper's §3.3/§5.1 headline ratios, paper vs measured,
//! * `sweep` — ablations (process count, page size, stress model,
//!   migration, flush loss).
//!
//! The library provides the shared run matrix (host-parallel across
//! independent runs), table formatting, and the paper's reference numbers.

#![forbid(unsafe_code)]

pub mod cli;
pub mod harness;
pub mod paper;
pub mod quick;
pub mod table;

pub use harness::{run_matrix, run_one, Outcome, RunPlan};
