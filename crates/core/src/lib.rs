//! # dsm-core — the paper's protocol stack
//!
//! This crate implements the contribution of Keleher's *Update Protocols and
//! Iterative Scientific Applications* (IPPS 1998): six software-DSM
//! protocols for barrier-structured iterative programs, together with the
//! shared-memory API and the cluster driver that executes applications
//! against them.
//!
//! ## Protocols
//!
//! | kind | family | description |
//! |---|---|---|
//! | [`ProtocolKind::LmwI`] | homeless LRC | multi-writer lazy release consistency with invalidation: write notices piggybacked on barriers, diffs fetched on fault, diffs retained until GC |
//! | [`ProtocolKind::LmwU`] | homeless LRC | hybrid invalidate/update: copyset-driven single-message flushes; arriving updates are stored and applied at the next local fault |
//! | [`ProtocolKind::BarI`] | home-based | statically homed pages with runtime home migration; diffs flushed to the home and discarded; whole-page fault service; per-page version indices |
//! | [`ProtocolKind::BarU`] | home-based | bar-i plus copyset-driven update pushes applied inside the barrier (no consumer segv / protection change) |
//! | [`ProtocolKind::BarR`] | home-based | bar-u at sub-page region granularity: on pages whose writers carry a static commuting-writer certificate ([`mem::RegionTable`]), twins are skipped (twin-free dirty tracking bounds the delta), update pushes are clipped to each reader's proven load spans, and pushes to proven non-readers are elided |
//! | [`ProtocolKind::BarS`] | overdrive | bar-u minus segvs: per-barrier-site write prediction, eager twins, eager write-enables |
//! | [`ProtocolKind::BarM`] | overdrive | bar-s minus mprotects: predicted pages stay writable for the whole overdrive phase |
//!
//! ## Layering
//!
//! * [`mem`] — the shared-memory API: page-granular segment allocator and
//!   typed handles ([`mem::SharedArray`], [`mem::SharedGrid2`],
//!   [`mem::SharedScalar`]).
//! * [`proto`] — protocol building blocks (copysets, write notices) and the
//!   per-family implementations.
//! * [`drive`] — the [`drive::cluster::Cluster`]: per-process state, the
//!   fault path, the barrier engine, reductions, the application trait and
//!   runner, and run statistics (Table 1 columns + Figure 3 breakdown).
//!
//! `Cluster<S: Pages = PageStore>` is generic over the per-process page
//! table ([`vm::Pages`]) and nothing else. Everything that needs page
//! bytes — the typed access path, reduction emulation, checksums,
//! snapshot/restore/`state_hash`, [`StepRun`] — is `impl Cluster<PageStore>`;
//! the protocols and the barrier engine are not, so `dsm-plan` runs them
//! over dataless digests as its static predictor.

#![forbid(unsafe_code)]
// A discarded `FlushOutcome` loses the only record of a dropped or doubled
// update: `#[must_use]` rejects `push_update(..);`, this rejects
// `let _ = push_update(..)`.
#![deny(clippy::let_underscore_must_use)]

pub mod check;
pub mod config;
pub mod drive;
pub mod mem;
pub mod proto;

pub use check::{CheckEvent, CheckSink, CountingSink};
pub use config::{DivergencePolicy, OverdriveConfig, PlantedBug, ProtocolKind, RunConfig};
pub use drive::app::{
    run_app, run_app_checked, run_app_scheduled, run_app_with_baseline, DsmApp, PhaseEnd, StepRun,
};
pub use drive::cluster::Cluster;
pub use drive::ctx::{CheckCtx, ExecCtx, SetupCtx};
pub use drive::reduce::ReduceOp;
pub use drive::stats::{RunReport, RunStats};
pub use dsm_sim::{SnapReader, SnapWriter};
pub use mem::{
    page_friendly_stride, Alloc, PageCert, PageClass, ReaderLoads, RegionTable, SharedArray,
    SharedGrid2, SharedScalar, SharedSegment, WriterRegions,
};
/// The vocabulary of [`Cluster`]'s type parameter and of its statistics,
/// for crates that instantiate or read a cluster without depending on the
/// substrate crates themselves.
pub use {dsm_net as net, dsm_vm as vm};
