//! Probes: a timed loop over one public function of one layer, on
//! inputs taken from the workload. They price the small steps of the
//! hot path that no span can resolve (a route hit is under a
//! microsecond) and the one-off costs behind `setup_s`.
//!
//! Iteration counts are constants: every run of a workload does the
//! same probe work, whatever the host.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use atomdb::{AtomDatabase, DatabaseConfig};
use desim::LatencyHistogram;
use gpu_sim::{DeviceProps, SimGpu};
use hybrid_sched::{Next, SchedPolicy, Scheduler, StealQueues};
use hybrid_spectral::{ion_task_cost, Engine, HybridRunner};
use mpi_sim::{BoundedQueue, ScatterGather};
use quadrature::MathMode;
use rrc_router::{HashRing, ShardRouter};
use rrc_service::{
    assemble, selected_ions, CacheKey, Quantizer, ShardedLruCache, SpectralService,
    SpectrumRequest, Ticket,
};
use rrc_spectral::{ion_integrands, ParameterSpace, RrcIntegrand};

use crate::ladder::{engine_config, integrate_level, kernel_direct, level_work};
use crate::stats::{median, percentile, sorted};
use crate::workloads::{batch_config, router_config, service_config, Inputs, BATCH_RANKS};

/// One probe's result: metric name, value, loop iterations behind it.
pub type Probe = (&'static str, f64, u64);

/// Mean nanoseconds per iteration of `f` over `iters` iterations.
fn ns_per_iter(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    let started = Instant::now();
    for i in 0..iters {
        f(i);
    }
    1e9 * started.elapsed().as_secs_f64() / iters as f64
}

/// Median seconds of `f` over `iters` individually timed calls.
fn p50_s(iters: u64, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..iters)
        .map(|_| {
            let started = Instant::now();
            f();
            started.elapsed().as_secs_f64()
        })
        .collect();
    percentile(&sorted(samples), 0.5)
}

/// The hot serving paths, each isolated by construction: the same
/// request repeated against (a) a router with the route cache off, so
/// every query is an all-cached fan-out, (b) a bare service, so every
/// submit is all-cached, (c) a router with the route cache on, so every
/// query is a route hit.
fn hot_paths(inputs: &Inputs, request: &SpectrumRequest) -> Vec<Probe> {
    const FANOUTS: u64 = 2000;
    const HITS: u64 = 20_000;

    let mut cfg = router_config(inputs);
    cfg.route_cache_capacity = 0;
    let router = ShardRouter::start(cfg);
    router.query(request).expect("probe warm-up");
    let fanout_s = p50_s(FANOUTS, || {
        black_box(router.query(request).expect("all-cached fan-out"));
    });
    drop(router.shutdown());

    let service = SpectralService::start(service_config(inputs));
    let ask = || service.submit(request.clone()).and_then(Ticket::wait);
    ask().expect("probe warm-up");
    let warm_s = p50_s(FANOUTS, || {
        black_box(ask().expect("all-cached submit"));
    });
    drop(service.shutdown());

    let mut cfg = router_config(inputs);
    cfg.route_cache_capacity = cfg.route_cache_capacity.max(1);
    let router = ShardRouter::start(cfg);
    router.query(request).expect("probe warm-up");
    let hit_s = p50_s(HITS, || {
        black_box(router.query(request).expect("route hit"));
    });
    drop(router.shutdown());

    vec![
        ("router.overhead_us", 1e6 * (fanout_s - warm_s), FANOUTS),
        ("service.warm_submit_wait_us_p50", 1e6 * warm_s, FANOUTS),
        ("router.route_hit_us_p50", 1e6 * hit_s, HITS),
    ]
}

fn start_costs(inputs: &Inputs) -> Vec<Probe> {
    const STARTS: usize = 5;
    let mut router_start = Vec::new();
    let mut engine_start = Vec::new();
    let mut engine_stop = Vec::new();
    for _ in 0..STARTS {
        let started = Instant::now();
        let router = ShardRouter::start(router_config(inputs));
        router_start.push(started.elapsed().as_secs_f64());
        drop(router.shutdown());

        let started = Instant::now();
        let engine = Engine::start(engine_config(inputs));
        engine_start.push(started.elapsed().as_secs_f64());
        let stopping = Instant::now();
        black_box(engine.shutdown());
        engine_stop.push(stopping.elapsed().as_secs_f64());
    }
    let started = Instant::now();
    const GENERATIONS: u64 = 20;
    for _ in 0..GENERATIONS {
        black_box(AtomDatabase::generate(DatabaseConfig {
            max_z: 30,
            ..DatabaseConfig::default()
        }));
    }
    let generate_s = started.elapsed().as_secs_f64() / GENERATIONS as f64;
    vec![
        (
            "router.start_ms",
            1e3 * median(&router_start),
            STARTS as u64,
        ),
        (
            "core.engine_start_ms",
            1e3 * median(&engine_start),
            STARTS as u64,
        ),
        (
            "core.engine_shutdown_ms",
            1e3 * median(&engine_stop),
            STARTS as u64,
        ),
        ("atomdb.generate_ms", 1e3 * generate_s, GENERATIONS),
    ]
}

fn fabric() -> Vec<Probe> {
    const KEYS: u64 = 1_000_000;
    let ring = HashRing::new(17, 2, 64);
    let ring_ns = ns_per_iter(KEYS, |i| {
        black_box(ring.owner(black_box(i)));
    });

    const ROUND_TRIPS: u64 = 5000;
    let sg: ScatterGather<u64, u64> = ScatterGather::new(2, 16);
    let rtt_s = std::thread::scope(|scope| {
        for lane in 0..2 {
            let lane = sg.lane(lane);
            scope.spawn(move || {
                while let Some(envelope) = lane.pop() {
                    let (req, promise) = envelope.split();
                    promise.fulfill(req);
                }
            });
        }
        let rtt = p50_s(ROUND_TRIPS, || {
            black_box(sg.scatter(vec![(0, 1), (1, 2)]).gather());
        });
        sg.close();
        rtt
    });

    let queue: BoundedQueue<u64> = BoundedQueue::new(16);
    let queue_ns = ns_per_iter(KEYS, |i| {
        queue.push(i).expect("open queue");
        black_box(queue.pop());
    });

    let mut histogram = LatencyHistogram::new();
    let histogram_ns = ns_per_iter(KEYS, |i| {
        histogram.record(black_box(1e-6 * (1 + i % 1000) as f64));
    });
    black_box(histogram.count());

    vec![
        ("router.ring_owner_ns", ring_ns, KEYS),
        ("mpisim.scatter_gather_rtt_us", 1e6 * rtt_s, ROUND_TRIPS),
        ("mpisim.queue_push_pop_ns", queue_ns, KEYS),
        ("desim.histogram_record_ns", histogram_ns, KEYS),
    ]
}

fn scheduling() -> Vec<Probe> {
    const GRANTS: u64 = 1_000_000;
    let scheduler = Scheduler::with_policy(2, 6, SchedPolicy::CostAware);
    let alloc_ns = ns_per_iter(GRANTS, |i| {
        let grant = scheduler.alloc_cost(50 + i % 50).expect("a free slot");
        scheduler.free_observed(grant, 1e-4);
    });

    let staged: StealQueues<u64> = StealQueues::new(2);
    let stage_ns = ns_per_iter(GRANTS, |i| {
        staged.stage((i % 2) as usize, 50 + i % 50, i);
        match staged.next((i % 2) as usize, false) {
            Next::Local(task) => {
                black_box(task.item);
            }
            other => panic!("staged task must come back locally, got {other:?}"),
        }
    });

    const SUBMITS: u64 = 20_000;
    let gpu = SimGpu::new(DeviceProps::tesla_c2075());
    let submit_s = p50_s(SUBMITS, || gpu.submit(|| ()).wait());

    vec![
        ("sched.alloc_free_ns", alloc_ns, GRANTS),
        ("sched.stage_next_ns", stage_ns, GRANTS),
        ("gpusim.submit_wait_us", 1e6 * submit_s, SUBMITS),
    ]
}

/// The service tier's per-request small steps, sized like the request:
/// one cache entry per selected ion per state, one fold per response.
fn service_steps(inputs: &Inputs, request: &SpectrumRequest) -> Vec<Probe> {
    let ions = selected_ions(&inputs.db, request);
    let bins = inputs.grid.bins();
    let quantizer = Quantizer::new(0);

    const KEYINGS: u64 = 1_000_000;
    let key_ns = ns_per_iter(KEYINGS, |_| {
        black_box(quantizer.state_key(black_box(&request.point), 0));
    });

    // 64 states' worth of partials resident, as on `hot_zipf`.
    let cache = ShardedLruCache::new(4096, 8);
    let value = Arc::new(vec![1.0f64; bins]);
    let states: Vec<_> = (0..64u64)
        .map(|s| {
            let mut point = request.point;
            point.temperature_k += s as f64;
            quantizer.state_key(&point, 0)
        })
        .collect();
    let keys: Vec<CacheKey> = states
        .iter()
        .flat_map(|&state| {
            ions.iter()
                .map(move |&ion_index| CacheKey { ion_index, state })
        })
        .collect();
    for key in &keys {
        cache.insert(*key, Arc::clone(&value));
    }
    const LOOKUPS: u64 = 1_000_000;
    let get_ns = ns_per_iter(LOOKUPS, |i| {
        black_box(cache.get(&keys[i as usize % keys.len()]));
    });
    const INSERTS: u64 = 200_000;
    let insert_ns = ns_per_iter(INSERTS, |i| {
        let mut key = keys[i as usize % keys.len()];
        // Fresh keys, so the full cache evicts on every insert.
        key.state.grid_id = 1 + i as usize;
        cache.insert(key, Arc::clone(&value));
    });

    let partials: BTreeMap<usize, Arc<Vec<f64>>> =
        ions.iter().map(|&ion| (ion, Arc::clone(&value))).collect();
    const FOLDS: u64 = 20_000;
    let assemble_ns = ns_per_iter(FOLDS, |_| {
        black_box(assemble(bins, &ions, &partials));
    });

    vec![
        ("service.state_key_ns", key_ns, KEYINGS),
        ("service.cache_get_ns", get_ns, LOOKUPS),
        ("service.cache_insert_ns", insert_ns, INSERTS),
        ("service.assemble_us", 1e-3 * assemble_ns, FOLDS),
    ]
}

/// Kernel and quadrature cost on the request's costliest ion (by the
/// scheduler's own `ion_task_cost`), and the spectral preparation that
/// precedes every kernel.
fn numerics(inputs: &Inputs, request: &SpectrumRequest) -> Vec<Probe> {
    let db = &inputs.db;
    let point = request.point;
    let bins = inputs.grid.bin_pairs();
    let ions = selected_ions(db, request);
    let single_chunk = engine_config(inputs).deterministic_kernel;
    let heavy = ions
        .iter()
        .copied()
        .max_by_key(|&ion| ion_task_cost(db, ion, 0..db.levels_by_index(ion).len(), &point, &bins))
        .expect("a request selects at least one ion");

    const LAUNCHES: u64 = 200;
    let mut evals = 0u64;
    let started = Instant::now();
    for _ in 0..LAUNCHES {
        evals += black_box(kernel_direct(db, heavy, &point, &bins, single_chunk)).1;
    }
    let kernel_s = started.elapsed().as_secs_f64();

    const PREPARES: u64 = 2000;
    let prepare_ns = ns_per_iter(PREPARES, |_| {
        for &ion in &ions {
            let levels = db.levels_by_index(ion).len();
            if let Some(integrands) = ion_integrands(db, ion, 0..levels, &point) {
                let prepared: Vec<_> = integrands.iter().map(RrcIntegrand::prepare).collect();
                black_box(prepared);
            }
        }
    });

    const LEVEL_PASSES: u64 = 200;
    let work = level_work(db, &[heavy], &point, &bins);
    let mut out = vec![0.0f64; bins.len()];
    let mut per_level_us = |math: MathMode| {
        let ns = ns_per_iter(LEVEL_PASSES, |_| {
            for level in &work {
                integrate_level(level, &bins, &mut out, math);
            }
        });
        1e-3 * ns / work.len().max(1) as f64
    };
    let exact_us = per_level_us(MathMode::Exact);
    let vector_us = per_level_us(MathMode::Vector);
    black_box(&out);

    const VEXP_PASSES: u64 = 2000;
    const VEXP_LEN: usize = 4096;
    let mut xs = vec![0.0f64; VEXP_LEN];
    let vexp_ns = ns_per_iter(VEXP_PASSES, |_| {
        for (i, x) in xs.iter_mut().enumerate() {
            *x = -1e-3 * i as f64;
        }
        quadrature::vexp(&mut xs);
        black_box(&xs);
    });

    vec![
        (
            "gpusim.kernel_ms_heavy_ion",
            1e3 * kernel_s / LAUNCHES as f64,
            LAUNCHES,
        ),
        (
            "gpusim.kernel_mevals_s",
            1e-6 * evals as f64 / kernel_s,
            LAUNCHES,
        ),
        (
            "spectral.prepare_us_per_ion",
            1e-3 * prepare_ns / ions.len() as f64,
            PREPARES,
        ),
        ("quadrature.bins_exact_us_per_level", exact_us, LEVEL_PASSES),
        (
            "quadrature.bins_vector_us_per_level",
            vector_us,
            LEVEL_PASSES,
        ),
        (
            "quadrature.vexp_ns_per_elem",
            vexp_ns / VEXP_LEN as f64,
            VEXP_PASSES,
        ),
    ]
}

/// Kothapalli's base: the best CPU-only configuration at equal cores —
/// no devices, `MathMode::Vector`, the same rank count — on the
/// workload's own database, grid and states.
fn cpu_vector_baseline(inputs: &Inputs) -> Probe {
    const POINTS: usize = 4;
    let mut stream = inputs.stream(0, 0);
    let mut cfg = batch_config(inputs);
    cfg.ranks = BATCH_RANKS;
    cfg.gpus = 0;
    cfg.math = MathMode::Vector;
    cfg.space = ParameterSpace {
        temperatures_k: (0..POINTS)
            .map(|_| stream.next_request().point.temperature_k)
            .collect(),
        densities_cm3: vec![1.0],
        times_s: vec![0.0],
    };
    let started = Instant::now();
    black_box(HybridRunner::new(cfg).run());
    (
        "spectral.cpu_vector_ms_per_op",
        1e3 * started.elapsed().as_secs_f64() / POINTS as f64,
        POINTS as u64,
    )
}

/// Every probe, on the first request of client 0's stream.
pub fn run(inputs: &Inputs) -> Vec<Probe> {
    let request = inputs.stream(0, 0).next_request();
    let mut out = hot_paths(inputs, &request);
    out.extend(start_costs(inputs));
    out.extend(fabric());
    out.extend(scheduling());
    out.extend(service_steps(inputs, &request));
    out.extend(numerics(inputs, &request));
    out.push(cpu_vector_baseline(inputs));
    out
}
