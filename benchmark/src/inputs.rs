//! Seeded input generation. Everything a workload sends is a pure
//! function of `--seed`; the stack only ever sees the generated
//! requests, never the seed.

use desim::{Priority, SimRng};
use rrc_router::splitmix64;
use rrc_spectral::GridPoint;

/// Plasma temperatures are drawn uniformly from this coronal range
/// (kelvin). Every draw carries 53 random bits, so distinct draws are
/// distinct cache keys under exact quantization.
pub const TEMPERATURE_K: std::ops::Range<f64> = 8.0e6..1.6e7;

/// An independent RNG for sub-stream `stream` of `seed` (one per
/// client / per purpose, so adding a draw to one stream never shifts
/// another).
pub fn stream(seed: u64, stream: u64) -> SimRng {
    desim::rng(splitmix64(
        seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15),
    ))
}

/// One plasma state drawn from `rng`.
pub fn draw_point(rng: &mut SimRng, index: usize) -> GridPoint {
    GridPoint {
        temperature_k: rng.gen_range(TEMPERATURE_K),
        density_cm3: 1.0,
        time_s: 0.0,
        index,
    }
}

/// A fixed table of `n` plasma states (the working set of the
/// repeated-state workloads).
pub fn state_table(rng: &mut SimRng, n: usize) -> Vec<GridPoint> {
    (0..n).map(|i| draw_point(rng, i)).collect()
}

/// Zipf(s) over ranks `0..n`: rank r has weight `1/(r+1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// # Panics
    /// Panics when `n == 0`.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf needs at least one rank");
        let weights: Vec<f64> = (0..n).map(|r| ((r + 1) as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    /// The rank a uniform draw `u` in `[0, 1)` selects.
    pub fn rank(&self, u: f64) -> usize {
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }

    /// Draw one rank.
    pub fn draw(&self, rng: &mut SimRng) -> usize {
        self.rank(rng.next_f64())
    }
}

/// Arrival offsets (seconds from start, ascending) of a Poisson process
/// at `rate_hz` over `[0, seconds)`, conditioned on its expected count:
/// `round(rate × seconds)` independent uniform times, sorted. Gaps and
/// bursts are those of the free process; the offered load is the same
/// for every seed, so throughput measures the service, not the draw.
pub fn poisson_schedule(rate_hz: f64, seconds: f64, rng: &mut SimRng) -> Vec<f64> {
    let count = (rate_hz * seconds).round() as usize;
    let mut arrivals: Vec<f64> = (0..count).map(|_| rng.gen_range(0.0..seconds)).collect();
    arrivals.sort_by(f64::total_cmp);
    arrivals
}

/// Interactive with probability `interactive_share`, else bulk.
pub fn draw_priority(rng: &mut SimRng, interactive_share: f64) -> Priority {
    if rng.next_f64() < interactive_share {
        Priority::Interactive
    } else {
        Priority::Bulk
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_states_and_draws() {
        let a = state_table(&mut stream(7, 1), 32);
        let b = state_table(&mut stream(7, 1), 32);
        let c = state_table(&mut stream(8, 1), 32);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().all(|p| TEMPERATURE_K.contains(&p.temperature_k)));
        // Sub-streams of one seed are independent.
        let d = state_table(&mut stream(7, 2), 32);
        assert_ne!(a, d);
    }

    #[test]
    fn zipf_draws_repeat_and_skew() {
        let zipf = Zipf::new(64, 1.1);
        let draw = |seed| {
            let mut rng = stream(seed, 0);
            (0..20_000).map(|_| zipf.draw(&mut rng)).collect::<Vec<_>>()
        };
        let a = draw(3);
        assert_eq!(a, draw(3));
        assert_ne!(a, draw(4));
        assert!(a.iter().all(|&r| r < 64));
        let head = a.iter().filter(|&&r| r == 0).count() as f64 / a.len() as f64;
        let expect = 1.0 / (0..64).map(|r| ((r + 1) as f64).powf(-1.1)).sum::<f64>();
        assert!(
            (head - expect).abs() < 0.02,
            "rank 0 share {head} vs {expect}"
        );
        assert_eq!(zipf.rank(0.0), 0);
        assert_eq!(zipf.rank(0.999_999_999), 63);
    }

    #[test]
    fn poisson_schedule_repeats_and_respects_horizon() {
        let a = poisson_schedule(150.0, 4.0, &mut stream(11, 0));
        assert_eq!(a, poisson_schedule(150.0, 4.0, &mut stream(11, 0)));
        assert_ne!(a, poisson_schedule(150.0, 4.0, &mut stream(12, 0)));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|&t| (0.0..4.0).contains(&t)));
        assert_eq!(
            a.len(),
            600,
            "the offered load is the rate, whatever the seed"
        );
        // Exponential gaps: about 1/e of them exceed the mean gap.
        let long = a.windows(2).filter(|w| w[1] - w[0] > 1.0 / 150.0).count();
        assert!(
            (long as f64 / 599.0 - (-1.0f64).exp()).abs() < 0.08,
            "{long} long gaps"
        );
    }

    #[test]
    fn priorities_follow_the_share() {
        let mut rng = stream(5, 9);
        let n = 10_000;
        let interactive = (0..n)
            .filter(|_| draw_priority(&mut rng, 0.75) == Priority::Interactive)
            .count();
        assert!((interactive as f64 / n as f64 - 0.75).abs() < 0.02);
    }
}
