//! # dsm-net — simulated interconnect
//!
//! Plays the role of the SP-2 High-Performance Switch and CVM's UDP/IP
//! messaging layer. The network does not buffer data — the protocol layer
//! in `dsm-core` moves the actual bytes — but every logical message passes
//! through one of [`Network`]'s four typed verbs: `send_reliable` for
//! synchronization, and `fetch` / `push_reliable` / `push_update` for data.
//! Each verb:
//!
//! * computes the three cost legs (sender overhead, wire, receiver
//!   overhead) from the `dsm_sim` cost model,
//! * classifies the message (data request / sync request / reply / flush)
//!   and updates the statistics that become the paper's Table 1 columns,
//! * runs reliable kinds through the [`wire`] reliability sublayer
//!   (ack/timeout/exponential-backoff retransmission resolved as
//!   arithmetic, sequence-numbered duplicate suppression, per-channel
//!   in-order delivery under a `dsm_sim` fault profile),
//! * applies optional unreliable-flush loss (the paper: flushes "can be
//!   unreliable, and therefore do not need to be acknowledged") — and, on
//!   a faulty wire, flush duplication,
//! * and, for the three data verbs, picks the backend the run selected in
//!   one `match`: the two-sided lossy [`wire`] or the one-sided RDMA-style
//!   [`rdma`] verbs. Synchronization traffic always rides the two-sided
//!   reliable wire.
//!
//! Every leg comes back as one [`Transit`]; a flush wraps it in a
//! [`FlushOutcome`], a fetch sums two of them (or one read) into a
//! [`FetchDelivery`].

#![forbid(unsafe_code)]

pub mod message;
pub mod network;
pub mod rdma;
pub mod stats;
pub mod wire;

pub use message::{FlushKind, MsgCategory, MsgKind, ReliableKind, HEADER_BYTES};
pub use network::{FetchDelivery, FlushOutcome, Network, Transit};
pub use rdma::Rdma;
pub use stats::NetStats;
pub use wire::Wire;
