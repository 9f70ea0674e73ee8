//! A fast, deterministic `BuildHasher` for the simulator's hot maps.
//!
//! The checker, the LRC protocol state, and the explorer's visited set all
//! key maps by small simulator-produced integers (page numbers, word
//! indices, state hashes) and hit them on hot paths — per simulated access
//! in the checker's case — so the std SipHash (keyed, DoS-resistant) is
//! pure overhead: the keys are never attacker data. This hasher folds each
//! word with a single odd-constant multiply and finishes with an xor-shift
//! mix (the splitmix64 finalizer), which is enough to spread such keys
//! across HashMap buckets.
//!
//! Determinism matters too: the default hasher is randomly seeded per
//! process, and while no map iterates in a way that reaches the output
//! today (anything folded into results is sorted first), a fixed hasher
//! removes the only source of nondeterminism in the stack by construction.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-fold hasher for small integer keys.
#[derive(Default, Clone)]
pub struct IntHasher(u64);

/// Odd constant (from splitmix64's increment) — any odd multiplier works,
/// this one has a good bit-avalanche record.
const M: u64 = 0x9e37_79b9_7f4a_7c15;

impl IntHasher {
    #[inline]
    fn fold(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(M);
    }
}

impl Hasher for IntHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Generic path (struct keys, strings): fold 8 bytes per multiply.
        let mut it = bytes.chunks_exact(8);
        for c in it.by_ref() {
            self.fold(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rem = it.remainder();
        if !rem.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rem.len()].copy_from_slice(rem);
            self.fold(u64::from_le_bytes(tail) | 1 << 63);
        }
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.fold(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.fold(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.fold(v as u64);
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.fold(u64::from(v));
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.fold(u64::from(v));
    }

    #[inline]
    fn finish(&self) -> u64 {
        // splitmix64 finalizer: the multiply fold alone leaves low bits
        // weak, and HashMap uses the low bits for bucket selection.
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Drop-in `HashMap`/`HashSet` aliases using [`IntHasher`].
pub type FastBuild = BuildHasherDefault<IntHasher>;
#[expect(
    clippy::disallowed_types,
    reason = "the one sanctioned std map: FastBuild makes iteration order a function of the keys"
)]
pub type FastMap<K, V> = std::collections::HashMap<K, V, FastBuild>;
#[expect(
    clippy::disallowed_types,
    reason = "the one sanctioned std set: FastBuild makes iteration order a function of the keys"
)]
pub type FastSet<K> = std::collections::HashSet<K, FastBuild>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut m1: FastMap<u32, u32> = FastMap::default();
        let mut m2: FastMap<u32, u32> = FastMap::default();
        for k in 0..1000 {
            m1.insert(k, k * 3);
            m2.insert(k, k * 3);
        }
        assert_eq!(m1, m2);
        assert_eq!(m1.get(&17), Some(&51));
    }

    #[test]
    fn sequential_keys_spread() {
        use std::hash::BuildHasher;
        let b = FastBuild::default();
        // Low 6 bits (a 64-bucket table) must not collapse for the keys the
        // checker actually uses: consecutive page numbers.
        let mut buckets = std::collections::BTreeSet::new();
        for k in 0u32..64 {
            buckets.insert(b.hash_one(k) & 63);
        }
        assert!(
            buckets.len() > 32,
            "only {} distinct buckets",
            buckets.len()
        );
    }

    #[test]
    fn generic_write_handles_tails() {
        use std::hash::BuildHasher;
        let b = FastBuild::default();
        assert_ne!(b.hash_one([1u8, 2, 3]), b.hash_one([1u8, 2, 3, 0]));
        assert_ne!(b.hash_one("abc"), b.hash_one("abd"));
    }
}
