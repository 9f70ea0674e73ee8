//! The cluster driver: process state, the fault path, the barrier engine,
//! reductions, the application trait/runner, and run statistics.

pub mod app;
pub mod barrier;
pub mod cluster;
pub mod ctx;
pub mod hash;
pub mod reduce;
pub mod stats;
