//! A deterministic integer hasher for maps keyed by the workspace's ids.
//!
//! `std`'s default `RandomState` runs SipHash-1-3 under a per-process
//! random key. For the small integer ids that key the storage engine's
//! and the history's per-operation maps (`TxnId`, `ItemId`,
//! `GlobalTxnId`) that is both slow — SipHash costs tens of nanoseconds
//! per probe — and needlessly nondeterministic: the iteration order of a
//! `RandomState` map changes from run to run.
//!
//! [`IdHasher`] folds each integer word into its state with one rotate,
//! one xor and one multiply (the "Fx" scheme), using the same 2^64/φ
//! multiplier as the storage engine's Fibonacci-hashed item index. Only
//! the high bits of a product depend on every bit of the key, so, like
//! Fibonacci hashing, `finish` rotates them down into the low bits the
//! table takes its bucket index from: ids on a stride (a site holding
//! only the even items, say) still spread over every bucket. Maps built
//! on it ([`IdMap`]) hash in a few cycles and iterate in the
//! same order on every run given the same operations.
//!
//! The hasher is not keyed, so an adversary who chooses keys can force
//! collisions. Keys of these maps are ids the system assigns, or item ids
//! checked against the site's copies before any map sees them, so that
//! trade is acceptable here; do not use it for maps keyed by untrusted
//! input.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The multiplier: 2^64 / φ, odd, so multiplication permutes `u64`.
const K: u64 = 0x9E37_79B9_7F4A_7C15;
/// How far `finish` rotates the well-mixed high bits down.
const ROTATE: u32 = 26;

/// Fx-style hasher for integer keys. See the [module docs](self).
#[derive(Clone, Copy, Debug, Default)]
pub struct IdHasher {
    hash: u64,
}

impl IdHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(ROTATE)
    }
}

/// A `HashMap` keyed by ids, hashed with [`IdHasher`]. Its hasher is
/// stateless, so every map hashes identically. Construct with
/// `IdMap::default()`.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GlobalTxnId, ItemId, SiteId, TxnId};
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(t: &T) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(t)
    }

    #[test]
    fn hashing_is_a_pure_function_of_the_key() {
        let g = GlobalTxnId::new(SiteId(3), 17);
        assert_eq!(hash_of(&g), hash_of(&GlobalTxnId::new(SiteId(3), 17)));
        assert_ne!(hash_of(&g), hash_of(&GlobalTxnId::new(SiteId(17), 3)));
        assert_ne!(hash_of(&TxnId(1)), hash_of(&TxnId(2)));
    }

    #[test]
    fn strided_ids_spread_over_low_buckets() {
        // A table of 2^10 buckets indexes by the low 10 bits. 1024 ids on
        // any stride, powers of two included, must spread about as well
        // as random keys would (which fill ~650 buckets, at most ~5 deep).
        for stride in [1u32, 2, 3, 64, 1024, 1 << 20] {
            let mut load = vec![0u32; 1024];
            for i in 0..1024u32 {
                load[hash_of(&ItemId(i.wrapping_mul(stride))) as usize & 1023] += 1;
            }
            let used = load.iter().filter(|&&n| n > 0).count();
            let deepest = load.iter().copied().max().unwrap_or(0);
            assert!(used >= 400 && deepest <= 4, "stride {stride}: {used} buckets, {deepest} deep");
        }
    }

    #[test]
    fn byte_writes_cover_partial_words() {
        let mut a = IdHasher::default();
        a.write(&[1, 2, 3]);
        let mut b = IdHasher::default();
        b.write(&[1, 2, 3, 0]);
        // Zero padding makes these equal; a different byte must not be.
        assert_eq!(a.finish(), b.finish());
        let mut c = IdHasher::default();
        c.write(&[1, 2, 4]);
        assert_ne!(a.finish(), c.finish());
    }

    #[test]
    fn iteration_order_repeats_across_maps() {
        let build = || {
            let mut m: IdMap<TxnId, u32> = IdMap::default();
            for i in (0..500u64).rev() {
                m.insert(TxnId(i * 7), i as u32);
            }
            for i in 0..100u64 {
                m.remove(&TxnId(i * 7));
            }
            m.into_iter().collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }
}
