//! Lane-parallel vector math with zero external dependencies.
//!
//! The RRC hot path bottoms out in `exp` calls — one per quadrature
//! node once the sample loop is vectorized — so this module provides a
//! data-parallel exponential, [`vexp`], built the classic Cephes way:
//!
//! 1. **Range reduction**: decompose `x = n·ln2 + r` with `n` the
//!    nearest integer to `x·log2(e)` (computed branch-free via the
//!    round-to-nearest "magic number" `1.5·2^52`) and `ln2` split into
//!    a high and a low part so `r = (x − n·C1) − n·C2` is exact to
//!    within one rounding of the tail. This bounds `|r| ≤ ln2/2 + ε`.
//! 2. **Polynomial core**: a degree-12 Horner evaluation of the Taylor
//!    coefficients `1/k!` on `r`. The truncation remainder is below
//!    `0.3466^13/13! ≈ 1.7e−16`, comfortably inside the ≤ 1e−14
//!    relative-error budget the spectral layer requires.
//! 3. **Reassembly**: `2^n` is built by integer bit-twiddling of the
//!    exponent field and multiplied back in.
//!
//! There is one operation sequence, [`vexp1`], built on
//! [`f64::mul_add`]. Software fma is correctly rounded, so it is
//! bitwise identical to a hardware FMA lane. Two arms run it, selected
//! once per process via `is_x86_feature_detected!`:
//!
//! * **AVX2+FMA intrinsics** — four lanes per instruction, with
//!   [`vexp1`] on the remainder lanes (batch length not a multiple of
//!   the chunk width).
//! * **Portable** — [`vexp1`] one element at a time, on any target.
//!
//! So an element's bits depend neither on the host nor on where it
//! falls relative to the chunk boundaries, and every golden hash that
//! `vexp` feeds (ion populations call it in every math mode) holds on
//! any host.
//!
//! [`MathMode`] is the switch the rest of the system threads through:
//! `Exact` keeps today's scalar-`exp` bitwise behavior (and stays the
//! default under `deterministic_kernel`), `Vector` routes whole node
//! grids through [`vexp`] and enables lane-parallel quadrature
//! accumulation. NaN inputs are outside the contract (the RRC integrand
//! never produces them); arguments below −708 underflow to `0.0` and
//! above +708 overflow to `+∞`.

use std::sync::OnceLock;

/// Which math kernels the spectral hot path uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MathMode {
    /// Scalar libm `exp` and the seed summation order — bitwise
    /// reproducible, the reference everything else is checked against.
    #[default]
    Exact,
    /// Lane-parallel [`vexp`] sampling and chunked weighted
    /// accumulation — relative deviation from `Exact` ≤ 1e−12.
    Vector,
}

impl MathMode {
    /// Parse the spelling used by run-spec JSON and the CLI.
    #[must_use]
    pub fn parse(s: &str) -> Option<MathMode> {
        match s {
            "exact" => Some(MathMode::Exact),
            "vector" => Some(MathMode::Vector),
            _ => None,
        }
    }

    /// The inverse of [`MathMode::parse`].
    #[must_use]
    pub fn as_str(&self) -> &'static str {
        match self {
            MathMode::Exact => "exact",
            MathMode::Vector => "vector",
        }
    }
}

/// Lane width of the chunked loops. Fixed at 4 (`__m256d`); wider
/// hardware simply pipelines consecutive chunks.
pub const LANES: usize = 4;

/// log2(e), the range-reduction multiplier.
const LOG2E: f64 = std::f64::consts::LOG2_E;
/// 1.5·2^52: adding then subtracting rounds to the nearest integer.
const MAGIC: f64 = 6_755_399_441_055_744.0;
/// ln2 split: C1 holds the high bits exactly, C2 the remainder.
const C1: f64 = 6.931_457_519_531_25e-1;
const C2: f64 = 1.428_606_820_309_417_2e-6;
/// Arguments below this underflow to zero, above it overflow to +∞.
/// ±708 keeps `2^n` strictly inside the normal range.
const LO: f64 = -708.0;
const HI: f64 = 708.0;

/// Taylor coefficients 1/k!, highest order first (degree 12).
const POLY: [f64; 13] = [
    1.0 / 479_001_600.0,
    1.0 / 39_916_800.0,
    1.0 / 3_628_800.0,
    1.0 / 362_880.0,
    1.0 / 40_320.0,
    1.0 / 5_040.0,
    1.0 / 720.0,
    1.0 / 120.0,
    1.0 / 24.0,
    1.0 / 6.0,
    0.5,
    1.0,
    1.0,
];

/// Scalar vectorized-`exp`: the one per-element operation sequence.
/// [`f64::mul_add`] is correctly rounded, so this is bitwise identical
/// to a hardware FMA lane of the intrinsics arm.
#[must_use]
#[inline]
pub fn vexp1(x: f64) -> f64 {
    // Not `clamp`: NaN must saturate to LO exactly like the
    // `_mm256_max_pd`/`_mm256_min_pd` chain of the intrinsics path.
    #[allow(clippy::manual_clamp)]
    let xc = x.max(LO).min(HI);
    let nf = xc.mul_add(LOG2E, MAGIC);
    let n = nf - MAGIC;
    let r = (-n).mul_add(C2, (-n).mul_add(C1, xc));
    let mut p = POLY[0];
    for &c in &POLY[1..] {
        p = p.mul_add(r, c);
    }
    // n is integral and in [-1022, 1022]; 2^n is a normal double.
    let scale = f64::from_bits(((n as i64 + 1023) as u64) << 52);
    let y = p * scale;
    if x < LO {
        0.0
    } else if x > HI {
        f64::INFINITY
    } else {
        y
    }
}

/// Replace every element of `xs` with its exponential, in place.
///
/// Dispatches once per process: AVX2+FMA intrinsics when the CPU has
/// them, otherwise the portable loop. Relative error is ≤ 1e−14
/// against [`f64::exp`] over the whole finite range, and both arms give
/// bit-identical answers for an element regardless of batch length or
/// position — see the module docs.
#[inline]
pub fn vexp(xs: &mut [f64]) {
    dispatch()(xs);
}

/// `true` when the AVX2+FMA intrinsics path is active.
#[must_use]
pub fn using_avx2() -> bool {
    resolve().1
}

/// Resolved implementation: the batch entry point plus an
/// `using_avx2` flag.
type VexpImpl = (fn(&mut [f64]), bool);

fn dispatch() -> fn(&mut [f64]) {
    resolve().0
}

fn resolve() -> VexpImpl {
    static IMPL: OnceLock<VexpImpl> = OnceLock::new();
    *IMPL.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            return (vexp_avx2_entry, true);
        }
        (vexp_portable, false)
    })
}

/// Portable arm: [`vexp1`] per element.
fn vexp_portable(xs: &mut [f64]) {
    for x in xs {
        *x = vexp1(*x);
    }
}

#[cfg(target_arch = "x86_64")]
fn vexp_avx2_entry(xs: &mut [f64]) {
    // Safety: selected only after `is_x86_feature_detected!` confirmed
    // both avx2 and fma.
    unsafe { vexp_avx2(xs) }
}

/// One 4-lane exponential in the exact operation order of [`vexp1`];
/// `2^n` reassembly uses exact integer ops.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[inline]
unsafe fn exp4(x: core::arch::x86_64::__m256d) -> core::arch::x86_64::__m256d {
    use core::arch::x86_64::{
        _mm256_add_epi64, _mm256_andnot_pd, _mm256_blendv_pd, _mm256_castsi256_pd, _mm256_cmp_pd,
        _mm256_cvtepi32_epi64, _mm256_cvtpd_epi32, _mm256_fmadd_pd, _mm256_fnmadd_pd,
        _mm256_max_pd, _mm256_min_pd, _mm256_mul_pd, _mm256_set1_epi64x, _mm256_set1_pd,
        _mm256_slli_epi64, _mm256_sub_pd, _CMP_GT_OQ, _CMP_LT_OQ,
    };
    let lo = _mm256_set1_pd(LO);
    let hi = _mm256_set1_pd(HI);
    let xc = _mm256_min_pd(_mm256_max_pd(x, lo), hi);
    let magic = _mm256_set1_pd(MAGIC);
    let nf = _mm256_fmadd_pd(xc, _mm256_set1_pd(LOG2E), magic);
    let n = _mm256_sub_pd(nf, magic);
    let r = _mm256_fnmadd_pd(
        n,
        _mm256_set1_pd(C2),
        _mm256_fnmadd_pd(n, _mm256_set1_pd(C1), xc),
    );
    let mut p = _mm256_set1_pd(POLY[0]);
    for &c in &POLY[1..] {
        p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(c));
    }
    // n fits i32 exactly; build 2^n in the exponent field.
    let ni = _mm256_cvtepi32_epi64(_mm256_cvtpd_epi32(n));
    let scale = _mm256_castsi256_pd(_mm256_slli_epi64(
        _mm256_add_epi64(ni, _mm256_set1_epi64x(1023)),
        52,
    ));
    let y = _mm256_mul_pd(p, scale);
    // Underflow lanes (x < LO) to 0.0, overflow lanes (x > HI) to +∞.
    let under = _mm256_cmp_pd::<_CMP_LT_OQ>(x, lo);
    let over = _mm256_cmp_pd::<_CMP_GT_OQ>(x, hi);
    _mm256_blendv_pd(
        _mm256_andnot_pd(under, y),
        _mm256_set1_pd(f64::INFINITY),
        over,
    )
}

/// AVX2+FMA path. One chunk per iteration — the loop carries no
/// dependency, so the out-of-order window already overlaps the Horner
/// chains of consecutive chunks (wider manual interleaving was measured
/// slower here: it spills the broadcast coefficient registers).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn vexp_avx2(xs: &mut [f64]) {
    use core::arch::x86_64::{_mm256_loadu_pd, _mm256_storeu_pd};
    let mut chunks = xs.chunks_exact_mut(LANES);
    for chunk in &mut chunks {
        let y = exp4(_mm256_loadu_pd(chunk.as_ptr()));
        _mm256_storeu_pd(chunk.as_mut_ptr(), y);
    }
    for x in chunks.into_remainder() {
        *x = vexp1(*x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel_err(approx: f64, exact: f64) -> f64 {
        if exact == 0.0 {
            approx.abs()
        } else {
            ((approx - exact) / exact).abs()
        }
    }

    #[test]
    fn vexp_matches_libm_within_budget_over_the_rrc_range() {
        // Log-spaced magnitudes covering the full RRC exponent range:
        // the integrand argument is -(E - threshold)/kT, which the
        // 40 kT window clamps to [-40, 0], but grids and tests push
        // arguments anywhere in the finite range. The batch arms are
        // bitwise equal to this scalar sequence (tests below).
        let mut worst = 0.0f64;
        let mut mag = 1e-300f64;
        while mag < 708.0 {
            for x in [mag, -mag] {
                worst = worst.max(rel_err(vexp1(x), x.exp()));
            }
            mag *= 1.7;
        }
        // The cutoff region the window logic actually exercises.
        for i in 0..=4000 {
            let x = -40.0 * (i as f64) / 4000.0;
            worst = worst.max(rel_err(vexp1(x), x.exp()));
        }
        assert!(worst <= 1e-14, "worst relative error {worst:e}");
    }

    #[test]
    fn vexp1_edge_cases() {
        assert_eq!(vexp1(0.0), 1.0);
        assert_eq!(vexp1(f64::NEG_INFINITY), 0.0);
        assert_eq!(vexp1(f64::INFINITY), f64::INFINITY);
        assert_eq!(vexp1(-750.0), 0.0, "deep underflow flushes to zero");
        assert_eq!(vexp1(750.0), f64::INFINITY);
        // Just inside the clamp: still a normal, still accurate.
        let x = -707.9;
        assert!(rel_err(vexp1(x), x.exp()) <= 1e-14);
    }

    #[test]
    fn batches_are_position_invariant_for_all_remainder_lengths() {
        // Lengths covering every `len % LANES` residue: an element's
        // result must not depend on whether it landed in a full chunk
        // or the scalar remainder tail, on whichever path dispatch
        // chose. Evaluating one element at a time forces every element
        // through the tail handler.
        for len in [1usize, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 129] {
            let xs: Vec<f64> = (0..len)
                .map(|i| -40.0 * (i as f64 + 0.5) / len as f64)
                .collect();
            let mut batch = xs.clone();
            vexp(&mut batch);
            for (i, (&got, &x)) in batch.iter().zip(&xs).enumerate() {
                let mut one = [x];
                vexp(&mut one);
                assert_eq!(
                    got.to_bits(),
                    one[0].to_bits(),
                    "len {len} element {i} (x = {x})"
                );
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn vexp_arms_are_bitwise_identical() {
        if !(is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")) {
            return;
        }
        // Log-spaced magnitudes over the whole finite range, a dense
        // sweep across the clamp window, and the edges: ±0, subnormals,
        // exactly ±708 and one ulp past it, ±∞.
        let past = |x: f64| f64::from_bits(x.to_bits() + 1);
        let mut xs = vec![
            0.0,
            -0.0,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MIN_POSITIVE / 3.0,
            -f64::MIN_POSITIVE / 3.0,
            HI,
            LO,
            past(HI),
            past(LO),
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN,
        ];
        let mut mag = f64::MIN_POSITIVE;
        while mag < f64::MAX / 1.7 {
            xs.extend([mag, -mag]);
            mag *= 1.7;
        }
        xs.extend((0..4001).map(|i| -709.5 + 1419.0 * (i as f64) / 4000.0));
        // Every batch length 0..=9 puts each element in a full chunk
        // and in the remainder tail of the intrinsics arm.
        for len in 0..=9usize {
            let windows: Vec<&[f64]> = if len == 0 {
                vec![&[]]
            } else {
                xs.chunks(len).collect()
            };
            for window in windows {
                let mut a = window.to_vec();
                // Safety: guarded by the feature check above.
                unsafe { vexp_avx2(&mut a) };
                let mut b = window.to_vec();
                vexp_portable(&mut b);
                for ((&fa, &fb), &x) in a.iter().zip(&b).zip(window) {
                    assert_eq!(fa.to_bits(), fb.to_bits(), "len {len}, x = {x:e}");
                }
            }
        }
    }

    #[test]
    fn math_mode_parses_and_round_trips() {
        assert_eq!(MathMode::parse("exact"), Some(MathMode::Exact));
        assert_eq!(MathMode::parse("vector"), Some(MathMode::Vector));
        assert_eq!(MathMode::parse("fast"), None);
        assert_eq!(MathMode::default(), MathMode::Exact);
        for m in [MathMode::Exact, MathMode::Vector] {
            assert_eq!(MathMode::parse(m.as_str()), Some(m));
        }
    }
}
