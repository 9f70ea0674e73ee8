//! # dsm-sim — virtual-time simulation substrate
//!
//! This crate provides the execution substrate that plays the role of the
//! paper's 8-node IBM SP-2 and its instrumentation:
//!
//! * [`time`] — a nanosecond-resolution virtual time type ([`time::Time`])
//!   and per-process clocks ([`clock::Clock`]).
//! * [`costs`] — the [`costs::CostModel`], parameterized by default with the
//!   constants the paper measured on AIX / the SP-2 High-Performance Switch
//!   (160 µs RPC, 939 µs remote page fault, 128 µs segv, 12 µs `mprotect`,
//!   40 MB/s links).
//! * [`breakdown`] — the four-way time breakdown of the paper's Figure 3:
//!   application compute, operating-system overhead, `sigio` request
//!   handling, and barrier/fetch wait time.
//! * [`stress`] — the location-dependent `mprotect` degradation model
//!   (the paper reports protection-change costs "occasionally increasing
//!   ... by an order of magnitude" when the address space is manipulated in
//!   large, unpredictable patterns).
//! * [`rng`] — deterministic, seedable random number helpers so that every
//!   run of the simulation is exactly reproducible.
//! * [`sched`] — the decision [`sched::Scheduler`] trait behind which every
//!   environment choice (flush loss, message ordering, migration timing)
//!   lives, with the bit-identical default [`sched::VirtualTimeScheduler`].
//! * [`fault`] — wire [`fault::FaultProfile`]s (iid/burst loss, duplication,
//!   reordering, per-node slowdown) consumed by `dsm-net`'s reliability
//!   sublayer; the default profile is a perfect wire.
//! * [`transport`] — the [`transport::TransportKind`] backend selector and
//!   the one-sided [`transport::RdmaParams`] cost model; `dsm-net`'s
//!   `Network` matches on the kind once per data verb.
//! * [`prop`] — a small deterministic property-test harness built on
//!   [`rng::DetRng`] (the workspace builds offline and carries no external
//!   test dependencies).
//! * [`snapio`] — the byte-level encoder and fallible decoder primitives
//!   behind the `dsm-snap` snapshot format.
//! * [`state`] — the [`State`] trait and the `impl_state!` field-list
//!   declaration that derive snapshot, restore and state hash from one
//!   classification of every field.
//! * [`config`] — simulation-wide configuration shared by the higher layers.
//!
//! Nothing in this crate knows about pages, messages, or protocols; those
//! live in `dsm-vm`, `dsm-net`, and `dsm-core` respectively.

#![forbid(unsafe_code)]

pub mod breakdown;
pub mod clock;
pub mod config;
pub mod costs;
pub mod fasthash;
pub mod fault;
pub mod prop;
pub mod rng;
pub mod sched;
pub mod snapio;
pub mod state;
pub mod stress;
pub mod time;
pub mod transport;

pub use breakdown::{Category, TimeBreakdown};
pub use clock::Clock;
pub use config::SimConfig;
pub use costs::CostModel;
pub use fasthash::{FastBuild, FastMap, FastSet, IntHasher};
pub use fault::FaultProfile;
pub use rng::DetRng;
pub use sched::{Candidate, ChoiceKind, Scheduler, SharedScheduler, VirtualTimeScheduler};
pub use snapio::{SnapError, SnapErrorKind, SnapReader, SnapWriter};
pub use state::{decode_table, encode_table, fold_encoding, Sparse, State, StateHasher};
pub use stress::StressModel;
pub use time::Time;
pub use transport::{RdmaParams, TransportKind};
