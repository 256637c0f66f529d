//! A deterministic, allocation-free multiplicative hasher (FxHash, the
//! rustc-internal scheme) for the spatial hot paths.
//!
//! The std default `SipHash` is DoS-resistant but several times slower on
//! the small fixed-width keys these crates hash by the million — grid cell
//! coordinates and layout points. Nothing here hashes attacker-controlled
//! data, and a fixed (non-random) state additionally makes every map/set
//! iteration order deterministic across runs.

use std::hash::{BuildHasherDefault, Hasher};

/// The FxHash multiplier (golden-ratio derived, as in rustc).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The hasher state. One `u64`, mixed per written word.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn write_i64(&mut self, n: i64) {
        self.add(n as u64);
    }
}

/// A `BuildHasher` with fixed state: fast and fully deterministic.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut s1: FxHashSet<(i64, i64)> = FxHashSet::default();
        let mut s2: FxHashSet<(i64, i64)> = FxHashSet::default();
        for i in 0..1000i64 {
            s1.insert((i, -i));
            s2.insert((i, -i));
        }
        let k1: Vec<_> = s1.iter().copied().collect();
        let k2: Vec<_> = s2.iter().copied().collect();
        assert_eq!(k1, k2, "fixed-state hashing must iterate identically");
    }

    #[test]
    fn distinguishes_close_keys() {
        let mut s: FxHashSet<(i64, i64)> = FxHashSet::default();
        for x in -50..50i64 {
            for y in -50..50i64 {
                s.insert((x, y));
            }
        }
        assert_eq!(s.len(), 100 * 100);
    }
}
