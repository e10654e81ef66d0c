//! Shared atomic memory — the `shmat` analogue.
//!
//! The paper's scheduler keeps two arrays in SysV shared memory: the
//! per-device *load* (current queue occupancy) and the per-device
//! *history task count*, both updated with atomic operations
//! (paper §III-C). [`SharedRegion`] provides the same thing for the
//! engine's worker threads: a fixed-size array of `AtomicU64` words with
//! cheap cloneable handles.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A fixed-size region of shared atomic 64-bit words.
///
/// Cloning a `SharedRegion` clones the *handle*; all clones address the
/// same memory, like multiple processes attaching one shm segment.
#[derive(Debug, Clone)]
pub struct SharedRegion {
    words: Arc<[AtomicU64]>,
}

impl SharedRegion {
    /// Allocate a zeroed region of `len` words.
    #[must_use]
    pub fn new(len: usize) -> SharedRegion {
        let words: Vec<AtomicU64> = (0..len).map(|_| AtomicU64::new(0)).collect();
        SharedRegion {
            words: words.into(),
        }
    }

    /// Number of words.
    #[must_use]
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the region is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Atomic load of word `i` (sequentially consistent — scheduler
    /// decisions read several words and the simplicity is worth more
    /// than the fence cost at these rates; see the Atomics guide on
    /// starting with `SeqCst` and weakening only with evidence).
    #[must_use]
    pub fn load(&self, i: usize) -> u64 {
        self.words[i].load(Ordering::SeqCst)
    }

    /// Atomic store to word `i`.
    pub fn store(&self, i: usize, value: u64) {
        self.words[i].store(value, Ordering::SeqCst);
    }

    /// Atomic fetch-add on word `i`; returns the previous value.
    pub fn fetch_add(&self, i: usize, delta: u64) -> u64 {
        self.words[i].fetch_add(delta, Ordering::SeqCst)
    }

    /// Atomic saturating fetch-sub on word `i`; returns the previous
    /// value. Saturates at zero instead of wrapping (a load count must
    /// never underflow even under a buggy double-free).
    pub fn fetch_sub_saturating(&self, i: usize) -> u64 {
        self.fetch_sub_saturating_by(i, 1)
    }

    /// Atomic saturating fetch-sub of `delta` on word `i`; returns the
    /// previous value. Clamps at zero instead of wrapping — a weighted
    /// load sum must never underflow even if a racing double-free
    /// over-subtracts.
    pub fn fetch_sub_saturating_by(&self, i: usize, delta: u64) -> u64 {
        let mut current = self.words[i].load(Ordering::SeqCst);
        loop {
            if current == 0 {
                return 0;
            }
            match self.words[i].compare_exchange_weak(
                current,
                current.saturating_sub(delta),
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(prev) => return prev,
                Err(actual) => current = actual,
            }
        }
    }

    /// Atomic update of word `i` via `f` (CAS loop); returns the
    /// previous value. The scheduler stores per-device EWMA rates as
    /// `f64::to_bits` words and updates them through this.
    pub fn fetch_update(&self, i: usize, mut f: impl FnMut(u64) -> u64) -> u64 {
        let mut current = self.words[i].load(Ordering::SeqCst);
        loop {
            match self.words[i].compare_exchange_weak(
                current,
                f(current),
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(prev) => return prev,
                Err(actual) => current = actual,
            }
        }
    }

    /// Atomic compare-exchange on word `i`.
    ///
    /// # Errors
    /// Returns the actual value when it differs from `expected`.
    pub fn compare_exchange(&self, i: usize, expected: u64, new: u64) -> Result<u64, u64> {
        self.words[i].compare_exchange(expected, new, Ordering::SeqCst, Ordering::SeqCst)
    }

    /// Number of live handles (clones) addressing this region — the
    /// analogue of the shm segment's attachment count. `1` means the
    /// caller holds the last handle.
    #[must_use]
    pub fn handle_count(&self) -> usize {
        Arc::strong_count(&self.words)
    }

    /// Snapshot of all words (each load is individually atomic; the
    /// vector is not a consistent cut — same as the paper's scheduler
    /// scanning `l_i`/`h_i` without a global lock).
    #[must_use]
    pub fn snapshot(&self) -> Vec<u64> {
        self.words
            .iter()
            .map(|w| w.load(Ordering::SeqCst))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_memory() {
        let a = SharedRegion::new(4);
        let b = a.clone();
        a.store(2, 99);
        assert_eq!(b.load(2), 99);
        b.fetch_add(2, 1);
        assert_eq!(a.load(2), 100);
    }

    #[test]
    fn fetch_add_returns_previous() {
        let r = SharedRegion::new(1);
        assert_eq!(r.fetch_add(0, 5), 0);
        assert_eq!(r.fetch_add(0, 3), 5);
        assert_eq!(r.load(0), 8);
    }

    #[test]
    fn fetch_sub_saturates_at_zero() {
        let r = SharedRegion::new(1);
        r.store(0, 2);
        assert_eq!(r.fetch_sub_saturating(0), 2);
        assert_eq!(r.fetch_sub_saturating(0), 1);
        assert_eq!(r.fetch_sub_saturating(0), 0);
        assert_eq!(r.load(0), 0);
    }

    #[test]
    fn fetch_sub_by_saturates_at_zero() {
        let r = SharedRegion::new(1);
        r.store(0, 10);
        assert_eq!(r.fetch_sub_saturating_by(0, 4), 10);
        assert_eq!(r.load(0), 6);
        assert_eq!(r.fetch_sub_saturating_by(0, 100), 6);
        assert_eq!(r.load(0), 0);
        assert_eq!(r.fetch_sub_saturating_by(0, 1), 0);
    }

    #[test]
    fn fetch_update_applies_closure_atomically() {
        let r = SharedRegion::new(1);
        r.store(0, 3.5f64.to_bits());
        let prev = r.fetch_update(0, |bits| (f64::from_bits(bits) * 2.0).to_bits());
        assert_eq!(f64::from_bits(prev), 3.5);
        assert_eq!(f64::from_bits(r.load(0)), 7.0);
    }

    #[test]
    fn compare_exchange_semantics() {
        let r = SharedRegion::new(1);
        assert_eq!(r.compare_exchange(0, 0, 7), Ok(0));
        assert_eq!(r.compare_exchange(0, 0, 9), Err(7));
        assert_eq!(r.load(0), 7);
    }

    #[test]
    fn concurrent_increments_do_not_lose_updates() {
        let r = SharedRegion::new(2);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let r = r.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        r.fetch_add(0, 1);
                        r.fetch_add(1, 2);
                    }
                });
            }
        });
        assert_eq!(r.load(0), 8000);
        assert_eq!(r.load(1), 16000);
    }

    #[test]
    fn snapshot_reads_all_words() {
        let r = SharedRegion::new(3);
        r.store(0, 1);
        r.store(1, 2);
        r.store(2, 3);
        assert_eq!(r.snapshot(), vec![1, 2, 3]);
        assert_eq!(r.len(), 3);
        assert!(!r.is_empty());
    }
}
