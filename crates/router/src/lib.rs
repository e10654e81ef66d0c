//! A sharded multi-engine service tier over the hybrid spectral
//! stack.
//!
//! The single-engine [`rrc_service::SpectralService`] scales one
//! resident engine; this crate partitions the ion space across **N
//! independent engine shards** — each with its own rank pool,
//! simulated devices, scheduler, cache, and fault ladder — behind one
//! [`ShardRouter`]:
//!
//! * **consistent-hash routing** ([`ring`]): a seeded [`HashRing`]
//!   assigns every ion a segment; restarts with the same seed route
//!   identically, and resizing moves only ~1/N of the keys;
//! * **scatter/gather fan-out** over [`mpi_sim::collective`] lanes:
//!   one request fans out to the segments owning its ions and the
//!   router folds the gathered per-ion partials in ascending order
//!   ([`rrc_service::assemble`]) — bitwise identical to the
//!   single-engine answer under the deterministic kernel;
//! * **replication + health-aware re-routing** ([`router`]): reads go
//!   to the least-loaded non-demoted replica of each segment; ions a
//!   replica fails re-route to a sibling, and a replica whose device
//!   breakers are all Open is demoted out of selection while its
//!   CPU fallback remains a last resort;
//! * **capacity rebalancing**: static [`hybrid_spectral::
//!   ion_task_cost`] sums per segment feed a greedy rebalancer that
//!   migrates ion ranges off heavy segments with an exactly-once
//!   handoff (single routing-table read per request) and a bounded
//!   drain of the old owner;
//! * **locality tier** ([`locality`]): a bounded router-level
//!   [`RouteCache`] of assembled spectra keyed on the quantized
//!   plasma state (a hit replays identical bits with zero
//!   scatter/gather), [`SingleFlight`] coalescing so racing identical
//!   misses admit exactly one fan-out, rendezvous state→replica
//!   affinity ([`preferred_replica`]), a seeded count-min
//!   [`HotTracker`] that replicates hot states' partials to sibling
//!   replica caches, and a migration cache handoff that ships the
//!   donor's cached partials to the new owner during a rebalance;
//! * **observability** ([`metrics`]): per-shard
//!   [`rrc_service::ServiceMetrics`] roll up into one
//!   [`RouterSnapshot`] with a stable operator-facing JSON rendering.

pub mod locality;
pub mod metrics;
pub mod resilience;
pub mod ring;
pub mod router;
pub mod shard;

pub use locality::{
    preferred_replica, CachedRoute, HotTracker, Join, RouteCache, RouteKey, SingleFlight,
};
pub use metrics::{
    ReplicaSnapshot, RouterCounters, RouterMetrics, RouterSnapshot, SegmentSnapshot,
};
pub use resilience::{QuantileWindow, TokenBucket};
pub use ring::{splitmix64, HashRing};
pub use router::{MigrationReport, RouterConfig, RouterReport, ShardRouter};
pub use shard::{ShardReplica, ShardRequest, ShardResponse};
