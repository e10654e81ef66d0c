//! Software GPU device model.
//!
//! We have no CUDA hardware in this environment, so the Tesla C2075s of
//! the paper are replaced by a software device model with two faces
//! (see `DESIGN.md`, substitution table):
//!
//! * a **numerical face** — [`simt`] executes kernels (notably the RRC
//!   bin-integration kernel, paper Algorithm 2) *for real* on host
//!   threads, with CUDA-style grid/block/thread indexing and the same
//!   bins-per-thread partitioning, so results and accuracy experiments
//!   are genuine computations;
//! * a **timing face** — [`cost`] charges virtual time for kernel
//!   launches, PCIe transfers and compute, parameterized by
//!   [`DeviceProps`] (Fermi C2075 and Kepler presets). The
//!   discrete-event replica uses only this face.
//!
//! [`runtime`] provides real-threaded device instances: one worker per
//! GPU draining a FIFO command queue serially (Fermi application-level
//! context switching) or with a small concurrency window (Kepler
//! Hyper-Q), exactly the two queueing disciplines the paper discusses.
//! [`memory`] models the 6 GB on-board memory with an explicit arena so
//! out-of-memory behaves like `cudaMalloc` failure rather than host
//! swapping.

pub mod cost;
pub mod fault;
pub mod memory;
pub mod props;
pub mod runtime;
pub mod simt;

pub use cost::{CostModel, MeasuredCost};
pub use fault::{DeviceFault, FaultCounters, FaultInjector, FaultKind, FaultOp, FaultPlan};
pub use memory::{DeviceMemory, DevicePtr, OutOfDeviceMemory};
pub use props::{Architecture, DeviceProps};
pub use runtime::{DeviceCounters, SimGpu, TaskError, TaskHandle};
pub use simt::{
    launch, BinIntegrationKernel, DeviceRule, FusedBinKernel, LaunchConfig, Precision, ThreadCtx,
    WeightedFoldKernel,
};
