//! # dsm-perf — the host-performance benchmark of `rdsm`
//!
//! Virtual time is pinned byte for byte by `results/*.txt`; what this
//! package measures is the simulator's *host* cost and which crate it
//! belongs to. Five closed-loop workloads (one client, one thread, one
//! process per workload) each report the same end-to-end metrics, and a
//! separate traced run attributes a pass to layers from the outside in:
//! spans around every call into a crate's public API, counts from the
//! library's own reports, and primitive probes.
//!
//! * [`jobs`] — the workloads and their fixed job lists;
//! * [`exec`] — set-up, the pass executor, the failure rule, the timed run;
//! * [`meter`] — the executor's observer trait and the clock-normalising meter;
//! * [`span`] — in-memory spans, self time, Chrome-trace export;
//! * [`layers`] — the traced run and the per-layer table;
//! * [`probes`] — `dsm-vm` / `dsm-net` primitive probes;
//! * [`metrics`] — the metric catalogue and the statistics reported;
//! * [`verify`] — `perf verify A.json B.json`;
//! * [`json`] — the dependency-free JSON value both directions use;
//! * [`cli`] — the command line the two bins share.
//!
//! See `perf/README.md` for the glossary and how the metrics interact.

#![forbid(unsafe_code)]

pub mod cli;
pub mod exec;
pub mod jobs;
pub mod json;
pub mod layers;
pub mod meter;
pub mod metrics;
pub mod probes;
pub mod span;
pub mod verify;
