//! SLO-driven admission: the two shed gates are typed and counted
//! separately (`shed_infeasible` at the deadline gate vs
//! `shed_queue_full` at the capacity gate), an infeasible deadline is
//! refused *before* any fan-out, bulk saturation never sheds
//! interactive traffic, and per-class latency accounting splits by
//! priority.

use std::sync::Arc;

use atomdb::{AtomDatabase, DatabaseConfig};
use desim::{Deadline, Priority, VirtualClock};
use rrc_service::{
    ElementSelection, ServiceConfig, ServiceError, SpectralService, SpectrumRequest, Ticket,
};
use rrc_spectral::{EnergyGrid, GridPoint};

fn db() -> Arc<AtomDatabase> {
    Arc::new(AtomDatabase::generate(DatabaseConfig {
        max_z: 6,
        ..DatabaseConfig::default()
    }))
}

fn config() -> ServiceConfig {
    ServiceConfig::deterministic(db(), vec![EnergyGrid::linear(50.0, 2000.0, 32)])
}

fn request(i: usize) -> SpectrumRequest {
    SpectrumRequest::new(
        GridPoint {
            temperature_k: 8.0e6 + 5.0e5 * i as f64,
            density_cm3: 1.0,
            time_s: 0.0,
            index: i,
        },
        ElementSelection::All,
        0,
    )
}

/// An already-expired deadline is refused with the typed error at the
/// SLO gate, before the request touches any queue or fan-out — and the
/// refusal lands in `shed_infeasible`, not `shed_queue_full`.
#[test]
fn expired_deadline_sheds_typed_before_any_fanout() {
    let clock = VirtualClock::manual();
    let mut cfg = config();
    cfg.engine.clock = clock.clone();
    let service = SpectralService::start(cfg);
    clock.advance(2.0);

    for i in 0..3 {
        let outcome = service.submit(request(i).with_deadline(Deadline::at(1.0)));
        assert!(
            matches!(outcome, Err(ServiceError::DeadlineInfeasible)),
            "expired deadline must shed typed, got Ok? {}",
            outcome.is_ok()
        );
    }
    let metrics = service.metrics();
    assert_eq!(metrics.shed_infeasible, 3, "{metrics:?}");
    assert_eq!(metrics.shed_queue_full, 0, "{metrics:?}");
    assert_eq!(metrics.shed, 3, "shed is the sum of the split counters");
    assert_eq!(metrics.submitted, 0, "the gate fires before the queue");
    assert_eq!(metrics.batches, 0, "zero wasted fan-outs");

    // The gate only prices deadlines: a deadline-free request sails in.
    let response = service
        .submit(request(9))
        .expect("no deadline, no SLO gate")
        .wait()
        .expect("answered");
    assert!(response.bins.iter().any(|&b| b > 0.0));
    let report = service.shutdown();
    assert_eq!(report.engine.leaked_grants, 0);
}

/// Once the cost model has a measured time scale, a deadline with zero
/// remaining budget is priced as infeasible even though it has not
/// technically expired.
#[test]
fn warmed_estimate_sheds_zero_budget_deadline() {
    let clock = VirtualClock::manual();
    let mut cfg = config();
    cfg.engine.clock = clock.clone();
    let service = SpectralService::start(cfg);

    // Cold start is deliberately optimistic (estimate 0 until the
    // first measured settle), so warm until the gate has a scale.
    let mut shed = false;
    for i in 0..50 {
        let _ = service
            .submit(request(i))
            .expect("warming request admitted")
            .wait()
            .expect("warming request answered");
        match service.submit(request(i).with_deadline(clock.deadline_in(0.0))) {
            Err(ServiceError::DeadlineInfeasible) => {
                shed = true;
                break;
            }
            Err(e) => panic!("only the SLO gate may refuse here, got {e}"),
            Ok(ticket) => {
                let _ = ticket.wait();
            }
        }
    }
    assert!(
        shed,
        "a warmed estimate must price a zero budget as infeasible"
    );
    let metrics = service.metrics();
    assert_eq!(metrics.shed_infeasible, 1, "{metrics:?}");
    assert_eq!(metrics.shed_queue_full, 0, "{metrics:?}");

    // A generous budget clears the same gate.
    let response = service
        .submit(request(99).with_deadline(clock.deadline_in(1.0e6)))
        .expect("feasible deadline admitted")
        .wait()
        .expect("answered");
    assert!(response.bins.iter().any(|&b| b > 0.0));
    let report = service.shutdown();
    assert_eq!(report.engine.leaked_grants, 0);
}

/// A burst past the class queue's capacity sheds with `Overloaded`,
/// and every such refusal lands in `shed_queue_full` — the capacity
/// gate and the SLO gate never blur into one counter.
#[test]
fn queue_full_sheds_are_counted_separately() {
    let mut cfg = config();
    cfg.request_queue_depth = 1;
    cfg.bulk_queue_depth = 1;
    cfg.max_batch = 1;
    let service = SpectralService::start(cfg);

    let mut tickets: Vec<Ticket> = Vec::new();
    let mut refused = 0u64;
    for i in 0..64 {
        match service.submit(request(i)) {
            Ok(ticket) => tickets.push(ticket),
            Err(ServiceError::Overloaded) => refused += 1,
            Err(e) => panic!("only the capacity gate may refuse here, got {e}"),
        }
    }
    for ticket in tickets {
        let _ = ticket.wait().expect("admitted requests are answered");
    }
    assert!(
        refused >= 1,
        "a 64-burst into a depth-1 queue must shed at least once"
    );
    let metrics = service.metrics();
    assert_eq!(metrics.shed_queue_full, refused, "{metrics:?}");
    assert_eq!(metrics.shed_infeasible, 0, "{metrics:?}");
    assert_eq!(metrics.shed, refused);
    assert_eq!(metrics.submitted + refused, 64);
    let report = service.shutdown();
    assert_eq!(report.engine.leaked_grants, 0);
}

/// Saturating the bulk queue sheds bulk only: interactive requests keep
/// their own bound, and the per-class latency split records responses
/// under the right tier.
#[test]
fn bulk_saturation_never_sheds_interactive() {
    let mut cfg = config();
    cfg.request_queue_depth = 64;
    cfg.bulk_queue_depth = 1;
    cfg.max_batch = 1;
    let service = SpectralService::start(cfg);

    let mut bulk_tickets: Vec<Ticket> = Vec::new();
    let mut bulk_refused = 0u64;
    for i in 0..32 {
        match service.submit(request(i % 4).with_priority(Priority::Bulk)) {
            Ok(ticket) => bulk_tickets.push(ticket),
            Err(ServiceError::Overloaded) => bulk_refused += 1,
            Err(e) => panic!("unexpected refusal {e}"),
        }
    }
    // Interactive has its own queue: every submit must be admitted no
    // matter how saturated bulk is.
    let interactive_tickets: Vec<Ticket> = (0..4)
        .map(|i| {
            service
                .submit(request(10 + i).with_priority(Priority::Interactive))
                .expect("interactive must never shed on bulk saturation")
        })
        .collect();
    let bulk_answered = bulk_tickets.len() as u64;
    for ticket in bulk_tickets {
        let _ = ticket.wait().expect("admitted bulk answered");
    }
    for ticket in interactive_tickets {
        let _ = ticket.wait().expect("interactive answered");
    }
    let metrics = service.metrics();
    assert_eq!(metrics.shed_queue_full, bulk_refused, "{metrics:?}");
    assert!(bulk_refused >= 1, "a 32-burst into depth 1 must shed bulk");
    let interactive = &metrics.per_priority[Priority::Interactive.index()];
    let bulk = &metrics.per_priority[Priority::Bulk.index()];
    assert_eq!(interactive.count, 4, "{metrics:?}");
    assert_eq!(bulk.count, bulk_answered, "{metrics:?}");
    let report = service.shutdown();
    assert_eq!(report.engine.leaked_grants, 0);
}
