//! The serving core: one resident [`Engine`], its per-ion cache,
//! metrics and grids, and the one lookup → fill → cache-insert path
//! that turns a state's ions into partial spectra. The service batcher
//! and every shard replica serve through it.

use std::sync::Arc;

use hybrid_spectral::engine::{Engine, EngineConfig, IonJob};
use rrc_spectral::{EnergyGrid, GridPoint};

use crate::cache::{CacheKey, ShardedLruCache};
use crate::metrics::{MetricsSnapshot, ServiceMetrics};
use crate::quantize::StateKey;
use crate::service::ServiceReport;

/// What [`ServeCore::serve`] answered for one state.
#[derive(Debug)]
pub struct Served {
    /// `(ion, partial)` for every answered ion: the `hits` cache hits
    /// first, in the order asked, then the ions computed this time,
    /// ascending. Each `Arc` is the cache entry itself, so repeated
    /// hits return the identical allocation.
    pub partials: Vec<(usize, Arc<Vec<f64>>)>,
    /// How many leading entries of `partials` came from the cache.
    pub hits: usize,
    /// Ions the engine never answered (device faults with the retry
    /// budget exhausted), in the order asked.
    pub failed: Vec<usize>,
}

/// The engine, cache, metrics, grids and bin tables one serving tier
/// owns, and the lookup/fill path over them.
pub struct ServeCore {
    engine: Engine,
    cache: ShardedLruCache,
    metrics: ServiceMetrics,
    grids: Vec<EnergyGrid>,
    bin_tables: Vec<Arc<Vec<(f64, f64)>>>,
    fanout_retries: u32,
}

impl ServeCore {
    /// Start the engine beside an empty cache; the last three arguments
    /// mean what the [`crate::ServiceConfig`] fields of that name do.
    #[must_use]
    pub fn start(
        engine: EngineConfig,
        grids: Vec<EnergyGrid>,
        cache_capacity: usize,
        cache_shards: usize,
        fanout_retries: u32,
    ) -> ServeCore {
        ServeCore {
            bin_tables: grids.iter().map(|g| Arc::new(g.bin_pairs())).collect(),
            engine: Engine::start(engine),
            cache: ShardedLruCache::new(cache_capacity, cache_shards),
            metrics: ServiceMetrics::new(),
            grids,
            fanout_retries,
        }
    }

    /// The resident engine.
    #[must_use]
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The per-ion cache.
    #[must_use]
    pub fn cache(&self) -> &ShardedLruCache {
        &self.cache
    }

    /// The live metrics each caller records its own per-request events
    /// into (responses, device failures, admission).
    #[must_use]
    pub fn recorder(&self) -> &ServiceMetrics {
        &self.metrics
    }

    /// The energy grids a [`StateKey::grid_id`] indexes.
    #[must_use]
    pub fn grids(&self) -> &[EnergyGrid] {
        &self.grids
    }

    /// The `(lo, hi)` bin table of grid `grid_id`.
    #[must_use]
    pub fn bins(&self, grid_id: usize) -> &Arc<Vec<(f64, f64)>> {
        &self.bin_tables[grid_id]
    }

    /// Answer `ions` at state `key` (evaluated at `point`): cache hits,
    /// then an engine fan-out of the misses, each answer cached under
    /// `(ion, key)`. `deadline` (absolute engine-clock seconds, or
    /// `f64::INFINITY`) rides on every job for EDF staging.
    ///
    /// With CPU fallback disabled the engine drops a job that exhausts
    /// its device retries without a reply: the unanswered ions are
    /// fanned out again up to `fanout_retries` times (each re-fan
    /// counted by [`ServiceMetrics::on_fanout_retry`]), and whatever is
    /// still missing comes back in [`Served::failed`].
    #[must_use]
    pub fn serve(&self, key: StateKey, point: &GridPoint, ions: &[usize], deadline: f64) -> Served {
        let mut served = self.lookup(key, ions);
        self.fill_misses(key, point, deadline, &mut served);
        served
    }

    /// [`ServeCore::serve`] with every miss computed on the calling
    /// thread by [`Engine::compute_inline`] (the caller-runs admission
    /// path). Never fails an ion.
    #[must_use]
    pub fn serve_inline(&self, key: StateKey, point: &GridPoint, ions: &[usize]) -> Served {
        let mut served = self.lookup(key, ions);
        let db = &self.engine.config().db;
        let grid = &self.grids[key.grid_id];
        for ion in std::mem::take(&mut served.failed) {
            let levels = db.levels_by_index(ion).len();
            let outcome = self.engine.compute_inline(ion, 0..levels, point, grid);
            served.partials.push(self.store(key, ion, outcome.partial));
        }
        served
    }

    /// Insert pushed partials if absent and return how many went in.
    /// An entry already held is skipped — under the deterministic
    /// kernel the local bits are the same bits, and warming must never
    /// steal recency from entries real traffic is using.
    pub fn warm(&self, entries: &[(CacheKey, Arc<Vec<f64>>)]) -> u64 {
        let mut warmed = 0u64;
        for (key, value) in entries {
            if self.cache.warm_insert(*key, Arc::clone(value)) {
                warmed += 1;
            }
        }
        if warmed > 0 {
            // Exactly-once audits (computed + warmed vs. total) settle
            // per engine, so the engine's report counts warmed ions.
            self.engine.note_warm_insert(warmed);
        }
        warmed
    }

    /// The service metrics joined with the engine's live scheduler
    /// view and the cache counters.
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics
            .snapshot()
            .with_scheduler(&self.engine.scheduler_snapshot())
            .with_cache(&self.cache)
    }

    /// Take the final cache and metrics readings, then drain the
    /// engine.
    #[must_use]
    pub fn shutdown(self) -> ServiceReport {
        let cache = self.cache.stats();
        let metrics = self.metrics();
        ServiceReport {
            engine: self.engine.shutdown(),
            cache,
            metrics,
        }
    }

    /// Split `ions` into cache hits (`partials`) and misses (`failed`,
    /// until a fill answers them), both in the order asked. An all-hit
    /// lookup allocates only the hit vector.
    fn lookup(&self, key: StateKey, ions: &[usize]) -> Served {
        let mut partials = Vec::with_capacity(ions.len());
        let mut misses = Vec::new();
        for &ion in ions {
            let cache_key = CacheKey {
                ion_index: ion,
                state: key,
            };
            match self.cache.get(&cache_key) {
                Some(hit) => partials.push((ion, hit)),
                None => misses.push(ion),
            }
        }
        Served {
            hits: partials.len(),
            partials,
            failed: misses,
        }
    }

    /// Cache one freshly computed partial under `(ion, key)`.
    fn store(&self, key: StateKey, ion: usize, partial: Vec<f64>) -> (usize, Arc<Vec<f64>>) {
        let value = Arc::new(partial);
        let cache_key = CacheKey {
            ion_index: ion,
            state: key,
        };
        self.cache.insert(cache_key, Arc::clone(&value));
        (ion, value)
    }

    /// Fan the misses (`served.failed`) out until they answer or the
    /// re-fan budget is spent, appending each answer to
    /// `served.partials` (ascending). A fan-out the engine refuses as
    /// closed answers nothing; that cannot happen here, since the
    /// engine shuts down only once the core is consumed.
    fn fill_misses(&self, key: StateKey, point: &GridPoint, deadline: f64, served: &mut Served) {
        let db = &self.engine.config().db;
        let grid = &self.grids[key.grid_id];
        let bins = &self.bin_tables[key.grid_id];
        let mut refanouts = 0u32;
        while !served.failed.is_empty() {
            let pending = served.failed.iter().copied();
            let fanned = self.engine.fan_out(pending, |ion, reply| IonJob {
                ion_index: ion,
                level_range: 0..db.levels_by_index(ion).len(),
                point: *point,
                grid: grid.clone(),
                bins: Arc::clone(bins),
                tag: ion as u64,
                deadline,
                reply,
            });
            for outcome in fanned.outcomes {
                let answered = self.store(key, outcome.ion_index, outcome.partial);
                served.partials.push(answered);
            }
            let computed = &mut served.partials[served.hits..];
            computed.sort_unstable_by_key(|&(ion, _)| ion);
            served
                .failed
                .retain(|ion| computed.binary_search_by_key(ion, |&(i, _)| i).is_err());
            if served.failed.is_empty() || refanouts >= self.fanout_retries {
                break;
            }
            refanouts += 1;
            self.metrics.on_fanout_retry(served.failed.len() as u64);
        }
    }
}
