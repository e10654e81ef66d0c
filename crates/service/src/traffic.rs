//! Deterministic traffic generators for the service tier.
//!
//! * **Open loop** — arrivals follow a seeded Poisson process
//!   (exponential inter-arrival times drawn from [`desim::rng()`]);
//!   the generator submits on schedule regardless of completions,
//!   so a service slower than the offered rate visibly backs up and
//!   (per admission policy) sheds. The arrival *schedule* is a pure
//!   function of `(seed, rate, count)`.
//! * **Closed loop** — `clients` threads each keep exactly one
//!   request outstanding: submit, wait, repeat. Offered load adapts
//!   to service speed; nothing is ever shed.

use rrc_spectral::GridPoint;

use crate::api::{ElementSelection, ServiceError, SpectrumRequest, Ticket};
use crate::service::SpectralService;

/// What one generator run observed.
#[derive(Debug, Clone, Copy, Default)]
pub struct TrafficReport {
    /// Requests offered to the service.
    pub offered: u64,
    /// Responses received (queued or caller-runs).
    pub completed: u64,
    /// Requests refused with [`ServiceError::Overloaded`].
    pub shed: u64,
    /// Responses computed by the caller-runs admission path.
    pub caller_ran: u64,
    /// Wall-clock seconds from first submit to last response.
    pub wall_s: f64,
}

impl TrafficReport {
    /// Completed requests per wall-clock second.
    #[must_use]
    pub fn throughput_rps(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.completed as f64 / self.wall_s
        } else {
            0.0
        }
    }
}

/// The deterministic Poisson arrival offsets (seconds from start) of
/// an open-loop run: `count` draws of `-ln(1-u)/rate`.
#[must_use]
pub fn poisson_arrivals(rate_hz: f64, count: usize, seed: u64) -> Vec<f64> {
    let mut rng = desim::rng(seed);
    let rate = rate_hz.max(1e-9);
    let mut t = 0.0f64;
    (0..count)
        .map(|_| {
            let u: f64 = rng.gen_range(0.0..1.0);
            t += -(1.0 - u).ln() / rate;
            t
        })
        .collect()
}

/// Cycle through `points` building whole-spectrum requests — the
/// repeated-query workload the cache is built for.
#[must_use]
pub fn cycling_requests(
    points: &[GridPoint],
    grid_id: usize,
    count: usize,
) -> Vec<SpectrumRequest> {
    (0..count)
        .map(|i| SpectrumRequest::new(points[i % points.len()], ElementSelection::All, grid_id))
        .collect()
}

/// Open-loop run: submit `requests[i]` at `arrivals[i]` (busy-waiting
/// the schedule), then wait for every admitted ticket.
///
/// # Panics
/// Panics if `arrivals` is shorter than `requests`.
#[must_use]
pub fn run_open_loop(
    service: &SpectralService,
    requests: Vec<SpectrumRequest>,
    arrivals: &[f64],
) -> TrafficReport {
    assert!(arrivals.len() >= requests.len(), "one arrival per request");
    let mut report = TrafficReport::default();
    let start = std::time::Instant::now();
    let mut tickets: Vec<Ticket> = Vec::with_capacity(requests.len());
    for (request, &due) in requests.into_iter().zip(arrivals) {
        while start.elapsed().as_secs_f64() < due {
            std::thread::yield_now();
        }
        report.offered += 1;
        match service.submit(request) {
            Ok(ticket) => tickets.push(ticket),
            Err(ServiceError::Overloaded) => report.shed += 1,
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
    for ticket in tickets {
        match ticket.wait() {
            Ok(response) => {
                report.completed += 1;
                if response.caller_ran {
                    report.caller_ran += 1;
                }
            }
            Err(ServiceError::Closed) => {}
            Err(e) => panic!("unexpected response error: {e}"),
        }
    }
    report.wall_s = start.elapsed().as_secs_f64();
    report
}

/// Closed-loop run: `clients` threads each submit-and-wait their
/// share of `requests` (round-robin split) one at a time.
#[must_use]
pub fn run_closed_loop(
    service: &SpectralService,
    requests: Vec<SpectrumRequest>,
    clients: usize,
) -> TrafficReport {
    let clients = clients.max(1);
    let start = std::time::Instant::now();
    let offered = requests.len() as u64;
    let mut shares: Vec<Vec<SpectrumRequest>> = (0..clients).map(|_| Vec::new()).collect();
    for (i, request) in requests.into_iter().enumerate() {
        shares[i % clients].push(request);
    }
    let mut completed = 0u64;
    let mut caller_ran = 0u64;
    std::thread::scope(|scope| {
        let handles: Vec<_> = shares
            .into_iter()
            .map(|share| {
                scope.spawn(move || {
                    let mut done = 0u64;
                    let mut inline = 0u64;
                    for request in share {
                        match service.submit(request).and_then(Ticket::wait) {
                            Ok(response) => {
                                done += 1;
                                if response.caller_ran {
                                    inline += 1;
                                }
                            }
                            Err(ServiceError::Overloaded | ServiceError::Closed) => {}
                            Err(e) => panic!("unexpected error: {e}"),
                        }
                    }
                    (done, inline)
                })
            })
            .collect();
        for handle in handles {
            let (done, inline) = handle.join().expect("traffic client panicked");
            completed += done;
            caller_ran += inline;
        }
    });
    TrafficReport {
        offered,
        completed,
        shed: offered - completed,
        caller_ran,
        wall_s: start.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_deterministic_and_increasing() {
        let a = poisson_arrivals(1000.0, 200, 42);
        let b = poisson_arrivals(1000.0, 200, 42);
        assert_eq!(a, b, "same seed, same schedule");
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        let c = poisson_arrivals(1000.0, 200, 43);
        assert_ne!(a, c, "different seed, different schedule");
        // Mean inter-arrival ~ 1/rate.
        let mean = a.last().unwrap() / 200.0;
        assert!((mean - 1e-3).abs() < 3e-4, "mean inter-arrival {mean}");
    }

    #[test]
    fn cycling_requests_cover_all_points() {
        let points: Vec<GridPoint> = (0..3)
            .map(|i| GridPoint {
                temperature_k: 1e7 + i as f64,
                density_cm3: 1.0,
                time_s: 0.0,
                index: i,
            })
            .collect();
        let reqs = cycling_requests(&points, 0, 7);
        assert_eq!(reqs.len(), 7);
        assert_eq!(reqs[0].point.index, 0);
        assert_eq!(reqs[3].point.index, 0);
        assert_eq!(reqs[5].point.index, 2);
    }
}
