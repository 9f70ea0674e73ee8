//! Protocol implementations.
//!
//! * [`copyset`] — per-page processor bitmaps.
//! * [`notice`] — write notices and diff naming for the homeless protocols.
//! * [`lmw`] — homeless multi-writer LRC (`lmw-i`, `lmw-u`): per-process
//!   diff stores with long-lived diffs, fault-time diff fetching, stored
//!   out-of-order updates, garbage collection.
//! * [`bar`] — home-based barrier protocols (`bar-i`, `bar-u`): version
//!   indices, diff flushes to homes, whole-page fault service, runtime home
//!   migration, copyset-driven update pushes.
//! * [`barr`] — the region-granularity variant (`bar-r`): twin-free
//!   deltas and push elision on pages with a static commuting-writer
//!   certificate.
//! * [`overdrive`] — write-set prediction and the `bar-s` / `bar-m`
//!   steady-state trap elimination.
//!
//! The protocol logic is implemented as `impl<S: Pages> Cluster<S>` blocks
//! (the simulation owns every process, so cross-process steps are plain
//! method calls), generic over the page table so the same code runs over
//! real frames and over `dsm-plan`'s dataless digests; this module holds
//! their state types and pure helpers.

pub mod bar;
pub mod barr;
pub mod copyset;
pub mod lmw;
pub mod notice;
pub mod overdrive;

pub use copyset::CopySet;
pub use notice::{DiffKey, WriteNotice};
