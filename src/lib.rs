//! # rdsm — facade crate
//!
//! Re-exports the public API of the whole workspace. See the README for a
//! guided tour, `DESIGN.md` for the architecture, and each crate's own
//! `DESIGN.md` for its machinery.
//!
//! ```
//! use rdsm::core::{Cluster, ProtocolKind, RunConfig};
//!
//! // A 4-process cluster under the paper's bar-u protocol.
//! let mut cluster = Cluster::new(RunConfig::with_nprocs(ProtocolKind::BarU, 4));
//! let xs = {
//!     let mut s = cluster.setup_ctx();
//!     let xs = s.alloc_array::<f64>("xs", 1024);
//!     s.init(xs, 7, 3.5);
//!     xs
//! };
//! cluster.distribute();
//!
//! // Process 2 updates shared memory; after the barrier everyone sees it.
//! {
//!     let mut ctx = cluster.exec_ctx(2);
//!     let v = xs.get(&mut ctx, 7);
//!     xs.set(&mut ctx, 7, v * 2.0);
//! }
//! cluster.barrier_app(None);
//! {
//!     let mut ctx = cluster.exec_ctx(0);
//!     assert_eq!(xs.get(&mut ctx, 7), 7.0);
//! }
//! ```

#![forbid(unsafe_code)]

pub use dsm_apps as apps;
pub use dsm_check as check;
pub use dsm_core as core;
pub use dsm_net as net;
pub use dsm_plan as plan;
pub use dsm_sim as sim;
pub use dsm_vm as vm;
