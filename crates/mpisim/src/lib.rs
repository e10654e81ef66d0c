//! Intra-node concurrency primitives standing in for the paper's MPI
//! and SysV shared-memory plumbing.
//!
//! The paper wraps APEC in MPI and runs 24 ranks on one node; the ranks
//! talk to the GPU scheduler through SysV shared memory (`shmat`).
//! Here the resident engine's worker threads are those ranks (see
//! `DESIGN.md`), so this crate keeps only what the engine, the service
//! tier and the router use:
//!
//! * [`SharedRegion`] is the `shmat` analogue: a fixed-size array of
//!   atomic 64-bit words shared by every worker (the scheduler keeps
//!   its per-device *load* and *history task count* arrays in one).
//! * [`BoundedQueue`] is a bounded, closable MPMC work queue — the
//!   admission-control primitive of the resident engine and the
//!   service tier (queue depth is the backpressure lever).
//! * [`ScatterGather`] gives long-lived shard workers the MPI
//!   scatter/gather shape over [`BoundedQueue`] lanes: every scattered
//!   part resolves exactly once (answered, or missing when its worker
//!   died), so gathers never hang on a dead shard.

pub mod collective;
pub mod queue;
pub mod shared;

pub use collective::{
    Envelope, Gather, Lane, LaneFault, LaneFaultPlan, OpenGather, Promise, ScatterGather,
};
pub use queue::{BoundedQueue, TryPushError};
pub use shared::SharedRegion;
