//! One-dimensional numerical integration.
//!
//! This crate provides the integration back-ends used throughout the
//! hybrid spectral-calculation system:
//!
//! * [`rules`] — fixed composite Newton–Cotes rules (midpoint, trapezoid,
//!   Simpson, Boole). Composite Simpson over 64 panels is the method the
//!   paper's GPU kernel runs per energy bin (paper Algorithm 2).
//! * [`romberg`](mod@romberg) — Romberg integration with a configurable number of
//!   dichotomy levels `k` (paper Eq. 3); used for the higher-accuracy /
//!   higher-cost experiments (paper Fig. 6, Table I).
//! * [`gauss`] — Gauss–Legendre rules with nodes computed to machine
//!   precision by Newton iteration on the Legendre polynomials.
//! * [`bins`] — fused bin-range composite quadrature
//!   ([`integrate_bins`]): one call integrates a contiguous run of
//!   energy bins, evaluating each shared bin edge exactly once while
//!   staying bitwise identical to the per-bin rules. This is the
//!   kernel-side hot path (what Algorithm 2's per-thread bin loop
//!   compiles to).
//! * [`simd`] — lane-parallel vector math ([`vexp`], a range-reduced
//!   polynomial exponential with AVX2 runtime dispatch and a portable
//!   fallback) and the [`MathMode`] switch between the bitwise-exact
//!   scalar kernels and the vectorized ones.
//! * [`adaptive`] — a QAGS-style globally adaptive quadrature (interval
//!   bisection driven by a worst-first heap, Wynn ε-extrapolation), the
//!   CPU fallback path of the scheduler, mirroring QUADPACK's `QAGS`
//!   call contract (`errabs`, `errrel`).
//!
//! All routines integrate `Fn(f64) -> f64` integrands over finite
//! intervals and report both a value and an error estimate.
//!
//! ```
//! use quadrature::{qags, romberg, simpson};
//!
//! let exact = 1.0 - (-1.0f64).exp();
//! let s = simpson(|x| (-x).exp(), 0.0, 1.0, 64);       // the GPU rule
//! let r = romberg(|x| (-x).exp(), 0.0, 1.0, 9);        // the high-accuracy rule
//! let q = qags(|x| (-x).exp(), 0.0, 1.0, 1e-12, 1e-10) // the CPU fallback
//!     .unwrap();
//! assert!((s.value - exact).abs() < 1e-9);
//! assert!((r.value - exact).abs() < 1e-12);
//! assert!((q.value - exact).abs() <= q.abs_error.max(1e-10));
//! ```

pub mod adaptive;
pub mod bins;
pub mod gauss;
pub mod romberg;
pub mod rules;
pub mod sampler;
pub mod simd;
pub mod wynn;

mod error;

pub use adaptive::{qags, qags_with, AdaptiveConfig, QagsWorkspace};
pub use bins::{
    integrate_bins, integrate_bins_sampled, integrate_bins_sampled_mode, BinPlan, BinRule,
};
pub use error::{QuadError, QuadResult};
pub use gauss::GaussLegendre;
pub use romberg::romberg;
pub use rules::{boole, midpoint, simpson, trapezoid, CompositeRule};
pub use sampler::{
    uniform_step, BatchSampler, FnSampler, LaneGrid, LaneRow, ScalarLanes, BIN_LANES,
};
pub use simd::{vexp, vexp1, MathMode};

/// Outcome of a quadrature routine: the integral estimate together with an
/// estimated absolute error.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Approximation of the definite integral.
    pub value: f64,
    /// Estimated absolute error of `value`.
    pub abs_error: f64,
    /// Number of integrand evaluations performed.
    pub evaluations: u64,
}

impl Estimate {
    /// A zero estimate with no error, e.g. for an empty interval.
    pub const ZERO: Estimate = Estimate {
        value: 0.0,
        abs_error: 0.0,
        evaluations: 0,
    };

    /// Combine two estimates over adjacent intervals.
    #[must_use]
    pub fn merge(self, other: Estimate) -> Estimate {
        Estimate {
            value: self.value + other.value,
            abs_error: self.abs_error + other.abs_error,
            evaluations: self.evaluations + other.evaluations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_fields() {
        let a = Estimate {
            value: 1.0,
            abs_error: 0.1,
            evaluations: 5,
        };
        let b = Estimate {
            value: 2.0,
            abs_error: 0.2,
            evaluations: 7,
        };
        let m = a.merge(b);
        assert_eq!(m.value, 3.0);
        assert!((m.abs_error - 0.3).abs() < 1e-15);
        assert_eq!(m.evaluations, 12);
    }

    #[test]
    fn zero_is_neutral_for_merge() {
        let a = Estimate {
            value: 4.5,
            abs_error: 0.25,
            evaluations: 11,
        };
        let m = a.merge(Estimate::ZERO);
        assert_eq!(m.value, a.value);
        assert_eq!(m.abs_error, a.abs_error);
        assert_eq!(m.evaluations, a.evaluations);
    }
}
