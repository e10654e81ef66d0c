//! Plasma-state quantization for batching and cache keys.
//!
//! Two requests can share one ion fan-out (and one cache line) only if
//! they agree on the plasma state *exactly* — floating-point equality,
//! not closeness, because the service guarantees bitwise-reproducible
//! answers. Quantization widens "exactly" in a controlled way: masking
//! the low `drop_bits` of the f64 mantissa snaps nearby states to a
//! shared representative, and **the representative is what gets
//! computed**, so every request in the bucket still receives the
//! bitwise-identical spectrum of the same (slightly snapped) state.
//!
//! `drop_bits = 0` is the exact mode: the key is the state's own bit
//! pattern and no snapping occurs. Each dropped bit roughly doubles
//! the bucket width (~2^(drop-52) relative), trading state resolution
//! for batching and cache hit-rate.

use rrc_spectral::GridPoint;

/// Mantissa-masking quantizer for f64 plasma-state coordinates.
#[derive(Debug, Clone, Copy, Default)]
pub struct Quantizer {
    /// Low mantissa bits to zero (clamped to the 52-bit mantissa).
    pub drop_bits: u32,
}

impl Quantizer {
    /// A quantizer dropping `drop_bits` mantissa bits.
    #[must_use]
    pub fn new(drop_bits: u32) -> Quantizer {
        Quantizer {
            drop_bits: drop_bits.min(52),
        }
    }

    /// The key bits of `value` (its representative's bit pattern).
    #[must_use]
    pub fn quantize(&self, value: f64) -> u64 {
        let mask = !0u64 << self.drop_bits;
        value.to_bits() & mask
    }

    /// The representative value of a key produced by
    /// [`Quantizer::quantize`].
    #[must_use]
    pub fn dequantize(&self, bits: u64) -> f64 {
        f64::from_bits(bits)
    }

    /// The batching/cache key of a plasma state on one grid.
    ///
    /// This is **the** stable key derivation shared by every tier: the
    /// service batcher groups requests by it, the per-ion caches key on
    /// it, and the shard router's route cache, affinity placement, and
    /// hot-state tracker all consume the same key (via
    /// [`StateKey::stable_hash`] where a digest is needed). Deriving
    /// the key anywhere else would let two tiers disagree on
    /// quantization; don't.
    #[must_use]
    pub fn state_key(&self, point: &GridPoint, grid_id: usize) -> StateKey {
        StateKey {
            // Temperature is quantized directly (kT is a fixed positive
            // multiple of it, so bucketing T buckets kT identically and
            // the representative reconstructs without a division
            // round-off).
            kt_q: self.quantize(point.temperature_k),
            density_q: self.quantize(point.density_cm3),
            grid_id,
        }
    }

    /// The representative plasma state of `key` — what the batcher
    /// actually computes (and caches) for every request in the bucket.
    #[must_use]
    pub fn representative(&self, key: &StateKey) -> GridPoint {
        GridPoint {
            temperature_k: self.dequantize(key.kt_q),
            density_cm3: self.dequantize(key.density_q),
            time_s: 0.0,
            index: 0,
        }
    }
}

/// Quantized plasma state + grid: requests with equal keys are
/// batched together and share cache entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StateKey {
    /// Quantized temperature bits (kT up to the Boltzmann constant).
    pub kt_q: u64,
    /// Quantized electron-density bits.
    pub density_q: u64,
    /// The requested energy grid.
    pub grid_id: usize,
}

impl StateKey {
    /// A seeded, stable 64-bit digest of this key — a pure function of
    /// `(seed, key)`, so restarts reproduce it exactly. Every consumer
    /// that hashes quantized states (the router's rendezvous affinity
    /// weights, replica tie-breaks, and the hot-state sketch rows) goes
    /// through here, so no two tiers can disagree on how a state
    /// digests.
    #[must_use]
    pub fn stable_hash(&self, seed: u64) -> u64 {
        // splitmix64 chain — cheap, stateless, full-avalanche; the
        // same mixer the routing ring and seeded traffic use.
        fn mix(mut x: u64) -> u64 {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            x ^ (x >> 31)
        }
        mix(seed ^ mix(self.kt_q ^ mix(self.density_q ^ mix(self.grid_id as u64))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_drop_is_exact() {
        let q = Quantizer::new(0);
        for v in [1.0e7, 9.9e6, 1.234_567_890_123e7, 4.2e-3] {
            assert_eq!(q.dequantize(q.quantize(v)).to_bits(), v.to_bits());
        }
    }

    #[test]
    fn dropped_bits_bucket_neighbors() {
        // 32 dropped bits ≈ 2^-20 relative bucket width; values 1e-9
        // apart land together (away from a bucket edge).
        let q = Quantizer::new(32);
        let a = 1.000_000_001e7;
        let b = 1.000_000_002e7;
        assert_eq!(q.quantize(a), q.quantize(b), "near states share a bucket");
        let far = 1.1e7;
        assert_ne!(q.quantize(a), q.quantize(far));
        // The representative is itself a fixed point of quantization.
        let rep = q.dequantize(q.quantize(a));
        assert_eq!(q.quantize(rep), q.quantize(a));
    }

    fn key_of(q: &Quantizer, t: f64, d: f64) -> StateKey {
        q.state_key(
            &GridPoint {
                temperature_k: t,
                density_cm3: d,
                time_s: 0.0,
                index: 0,
            },
            0,
        )
    }

    #[test]
    fn stable_hash_is_deterministic_and_seed_sensitive() {
        let q = Quantizer::new(0);
        let a = key_of(&q, 1e7, 1.0);
        let b = key_of(&q, 1.1e7, 1.0);
        // Deterministic: the digest is a pure function of (seed, key),
        // so a restarted tier reproduces every routing decision.
        assert_eq!(a.stable_hash(17), a.stable_hash(17));
        // Both the seed and the key must matter.
        assert_ne!(a.stable_hash(17), a.stable_hash(18));
        assert_ne!(a.stable_hash(17), b.stable_hash(17));
        // Grid id participates too (distinct grids must not collide).
        let c = StateKey { grid_id: 1, ..a };
        assert_ne!(a.stable_hash(17), c.stable_hash(17));
    }

    #[test]
    fn state_key_separates_grid_ids() {
        let q = Quantizer::new(0);
        let p = GridPoint {
            temperature_k: 1e7,
            density_cm3: 1.0,
            time_s: 0.0,
            index: 3,
        };
        assert_ne!(q.state_key(&p, 0), q.state_key(&p, 1));
        // index/time are metadata, not state.
        let p2 = GridPoint { index: 9, ..p };
        assert_eq!(q.state_key(&p, 0), q.state_key(&p2, 0));
    }
}
