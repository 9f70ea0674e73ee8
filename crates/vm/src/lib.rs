//! # dsm-vm — software MMU substrate
//!
//! This crate plays the role AIX virtual memory played for the paper's CVM:
//! page-granularity access control, fault detection, twin pages, and
//! run-length-encoded diffs. Instead of `mprotect(2)` and SIGSEGV we keep an
//! explicit per-process page table ([`store::PageStore`]) whose protection
//! checks are performed by the shared-memory access path in `dsm-core`; the
//! protocol logic that runs on a "fault" is identical to what a signal
//! handler would do, but the simulation stays deterministic and portable,
//! and the *cost* of each primitive is charged from the paper's measured
//! AIX numbers (see `dsm_sim::costs`).
//!
//! Modules:
//! * [`page`] — page ids, addresses, protections, fault kinds.
//! * [`buf`] — 8-byte-aligned page buffers and the audited byte↔scalar
//!   slice casts (the only `unsafe` in the workspace).
//! * [`diff`] — run-length-encoded page diffs: creation by twin comparison,
//!   application, sizing.
//! * [`dirty`] — word-aligned dirty-range tracking for twinned frames,
//!   feeding the incremental diff fast path.
//! * [`frame`] — one process's copy of one page: data + protection + twin.
//! * [`image`] — the pristine segment image setup wrote, shared by every
//!   store as the base its frames delta-encode against.
//! * [`pages`] — the questions the protocols ask of a page table, as a
//!   trait: [`store::PageStore`] is the runtime's answer.
//! * [`pool`] — free-lists recycling twin buffers and diff storage.
//! * [`store`] — a process's page table over the shared segment.

#![deny(unsafe_op_in_unsafe_fn)]

pub mod buf;
pub mod diff;
pub mod dirty;
pub mod frame;
pub mod image;
pub mod page;
pub mod pages;
pub mod pool;
pub mod store;

pub use buf::{as_bytes, as_bytes_mut, cast_slice, cast_slice_mut, PageBuf, Pod};
pub use diff::Diff;
pub use dirty::DirtyRanges;
pub use frame::Frame;
pub use image::Image;
pub use page::{FaultKind, PageId, Protection};
pub use pages::{Delta, Meta, Pages};
pub use pool::BufPool;
pub use store::PageStore;
