//! A long-lived spectral query service on the hybrid engine.
//!
//! The paper's runtime computes one fixed parameter grid and exits.
//! This crate turns the same stack — [`hybrid_sched::Scheduler`] over
//! shared memory, [`gpu_sim`] devices, QAGS CPU fallback — into a
//! resident **query engine**: callers submit
//! [`SpectrumRequest`]s (plasma state + element selection + energy
//! grid id) at any time and receive [`SpectrumResponse`]s, with
//!
//! * **admission control** ([`AdmissionPolicy`], [`pqueue`]): one
//!   bounded queue per [`desim::Priority`] class with weighted-fair
//!   dequeue, an SLO gate that sheds deadline-infeasible requests with
//!   a typed [`ServiceError::DeadlineInfeasible`] before any fan-out,
//!   and a full-queue policy that either sheds with
//!   [`ServiceError::Overloaded`] or computes on the caller's thread
//!   (the paper's full-queue CPU fallback lifted one tier up);
//! * **batching** ([`service`]): in-flight requests that share a
//!   quantized plasma state ([`quantize`]) coalesce into one per-ion
//!   fan-out over the resident [`hybrid_spectral::engine::Engine`];
//! * **serving** ([`serve`]): [`ServeCore`] owns the engine, cache,
//!   metrics and grids and is the one lookup → fan-out → cache-insert
//!   path, shared by this service's batcher and the router's shard
//!   replicas;
//! * **caching** ([`cache`]): a sharded LRU of per-ion partial
//!   spectra keyed `(ion, quantized kT, density, grid)` — exact-key
//!   hits return the original allocation, so cached answers are
//!   bitwise identical to uncached ones;
//! * **observability** ([`metrics`]): throughput/shed counters, queue
//!   depth watermark, and per-stage latency quantiles on
//!   [`desim::LatencyHistogram`];
//! * **traffic** ([`traffic`]): deterministic open-loop (seeded
//!   Poisson) and closed-loop generators for benches and smoke tests.

pub mod api;
pub mod cache;
pub mod metrics;
pub mod pqueue;
pub mod quantize;
pub mod serve;
pub mod service;
pub mod traffic;

pub use api::{
    AdmissionPolicy, ElementSelection, ServiceError, SpectrumRequest, SpectrumResponse, Ticket,
};
pub use cache::{CacheKey, CacheStats, ShardedLruCache};
pub use metrics::{MetricsSnapshot, ServiceMetrics, StageLatency};
pub use pqueue::PriorityQueues;
pub use quantize::{Quantizer, StateKey};
pub use serve::{ServeCore, Served};
pub use service::{assemble, selected_ions, ServiceConfig, ServiceReport, SpectralService};
pub use traffic::{
    cycling_requests, poisson_arrivals, run_closed_loop, run_open_loop, TrafficReport,
};
