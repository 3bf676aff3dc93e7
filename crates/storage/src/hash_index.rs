//! Open-addressing hash index keyed by [`ItemId`].
//!
//! The paper's prototype accessed items through a hash index on the item
//! identifier; this module provides that index from scratch rather than
//! leaning on `std::collections::HashMap`, both to keep the storage engine
//! self-contained and to control probe behaviour (linear probing with
//! backward-shift deletion — no tombstones, so long-lived sites never
//! degrade).
//!
//! Keys are hashed with a Fibonacci multiplicative hash, which is a good
//! fit for the small dense integer ids the workloads use.

use repl_types::ItemId;

const INITIAL_CAPACITY: usize = 16;
/// Grow when load factor exceeds 7/8.
const LOAD_NUM: usize = 7;
const LOAD_DEN: usize = 8;

#[derive(Clone, Debug)]
struct Slot<V> {
    key: ItemId,
    value: V,
}

/// A linear-probing hash table from [`ItemId`] to `V`.
///
/// Supports the operations a storage engine needs — insert, lookup,
/// in-place mutation, removal, iteration — with O(1) expected cost.
#[derive(Clone, Debug)]
pub struct HashIndex<V> {
    slots: Vec<Option<Slot<V>>>,
    len: usize,
    /// capacity mask; slots.len() is always a power of two
    mask: usize,
}

impl<V> Default for HashIndex<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> HashIndex<V> {
    /// Create an empty index.
    pub fn new() -> Self {
        Self::with_capacity(INITIAL_CAPACITY)
    }

    /// Create an empty index sized for at least `cap` entries without
    /// rehashing.
    pub fn with_capacity(cap: usize) -> Self {
        let cap = (cap.max(INITIAL_CAPACITY) * LOAD_DEN / LOAD_NUM).next_power_of_two();
        HashIndex { slots: (0..cap).map(|_| None).collect(), len: 0, mask: cap - 1 }
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the index holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn bucket(&self, key: ItemId) -> usize {
        // Fibonacci hashing: multiply by 2^64 / phi, take high bits.
        let h = (key.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> 32) as usize & self.mask
    }

    /// Insert or replace; returns the previous value for `key`, if any.
    pub fn insert(&mut self, key: ItemId, value: V) -> Option<V> {
        if (self.len + 1) * LOAD_DEN > self.slots.len() * LOAD_NUM {
            self.grow();
        }
        let mut idx = self.bucket(key);
        loop {
            match &mut self.slots[idx] {
                Some(slot) if slot.key == key => {
                    return Some(std::mem::replace(&mut slot.value, value));
                }
                Some(_) => idx = (idx + 1) & self.mask,
                empty @ None => {
                    *empty = Some(Slot { key, value });
                    self.len += 1;
                    return None;
                }
            }
        }
    }

    /// Look up `key`.
    pub fn get(&self, key: ItemId) -> Option<&V> {
        let mut idx = self.bucket(key);
        loop {
            match &self.slots[idx] {
                Some(slot) if slot.key == key => return Some(&slot.value),
                Some(_) => idx = (idx + 1) & self.mask,
                None => return None,
            }
        }
    }

    /// Look up `key`, allowing mutation of the stored value.
    pub fn get_mut(&mut self, key: ItemId) -> Option<&mut V> {
        let mut idx = self.bucket(key);
        loop {
            match &self.slots[idx] {
                Some(slot) if slot.key == key => break,
                Some(_) => idx = (idx + 1) & self.mask,
                None => return None,
            }
        }
        self.slots[idx].as_mut().map(|s| &mut s.value)
    }

    /// True if `key` is present.
    pub fn contains(&self, key: ItemId) -> bool {
        self.get(key).is_some()
    }

    /// Remove `key`, returning its value. Uses backward-shift deletion so
    /// probe chains stay intact without tombstones.
    pub fn remove(&mut self, key: ItemId) -> Option<V> {
        let mut idx = self.bucket(key);
        loop {
            match &self.slots[idx] {
                Some(slot) if slot.key == key => break,
                Some(_) => idx = (idx + 1) & self.mask,
                None => return None,
            }
        }
        let removed = self.slots[idx].take().map(|s| s.value);
        self.len -= 1;

        // Backward-shift: walk the cluster after idx and move back any entry
        // whose home bucket is outside the gap we just opened.
        let mut gap = idx;
        let mut cur = (idx + 1) & self.mask;
        while let Some(slot) = &self.slots[cur] {
            let home = self.bucket(slot.key);
            // Move the entry back iff the gap lies cyclically between its
            // home bucket and its current position.
            let between =
                if gap <= cur { home <= gap || home > cur } else { home <= gap && home > cur };
            if between {
                self.slots[gap] = self.slots[cur].take();
                gap = cur;
            }
            cur = (cur + 1) & self.mask;
        }
        removed
    }

    /// Iterate over `(key, &value)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (ItemId, &V)> {
        self.slots.iter().filter_map(|s| s.as_ref().map(|slot| (slot.key, &slot.value)))
    }

    /// Iterate over the values mutably, in the same order as [`Self::iter`].
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.slots.iter_mut().filter_map(|s| s.as_mut().map(|slot| &mut slot.value))
    }

    fn grow(&mut self) {
        let new_cap = self.slots.len() * 2;
        let old = std::mem::replace(&mut self.slots, (0..new_cap).map(|_| None).collect());
        self.mask = new_cap - 1;
        self.len = 0;
        for slot in old.into_iter().flatten() {
            self.insert(slot.key, slot.value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    #[test]
    fn insert_get_roundtrip() {
        let mut idx = HashIndex::new();
        assert!(idx.is_empty());
        for i in 0..100u32 {
            assert_eq!(idx.insert(ItemId(i), i * 10), None);
        }
        assert_eq!(idx.len(), 100);
        for i in 0..100u32 {
            assert_eq!(idx.get(ItemId(i)), Some(&(i * 10)));
        }
        assert_eq!(idx.get(ItemId(1000)), None);
    }

    #[test]
    fn insert_replaces() {
        let mut idx = HashIndex::new();
        idx.insert(ItemId(1), "a");
        assert_eq!(idx.insert(ItemId(1), "b"), Some("a"));
        assert_eq!(idx.get(ItemId(1)), Some(&"b"));
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn get_mut_mutates() {
        let mut idx = HashIndex::new();
        idx.insert(ItemId(7), 1);
        *idx.get_mut(ItemId(7)).unwrap() += 10;
        assert_eq!(idx.get(ItemId(7)), Some(&11));
        assert!(idx.get_mut(ItemId(8)).is_none());
    }

    #[test]
    fn remove_preserves_probe_chains() {
        // Force collisions by filling a small region densely.
        let mut idx = HashIndex::with_capacity(16);
        for i in 0..200u32 {
            idx.insert(ItemId(i), i);
        }
        // Remove every third key and verify the rest stay reachable.
        for i in (0..200u32).step_by(3) {
            assert_eq!(idx.remove(ItemId(i)), Some(i));
        }
        for i in 0..200u32 {
            if i % 3 == 0 {
                assert_eq!(idx.get(ItemId(i)), None);
            } else {
                assert_eq!(idx.get(ItemId(i)), Some(&i));
            }
        }
    }

    #[test]
    fn remove_missing_is_none() {
        let mut idx: HashIndex<u32> = HashIndex::new();
        assert_eq!(idx.remove(ItemId(5)), None);
        idx.insert(ItemId(5), 1);
        assert_eq!(idx.remove(ItemId(6)), None);
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn iteration_sees_all_entries() {
        let mut idx = HashIndex::new();
        for i in 0..50u32 {
            idx.insert(ItemId(i), i as u64);
        }
        let mut seen: Vec<_> = idx.iter().map(|(k, _)| k.0).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..50).collect::<Vec<_>>());
    }

    proptest! {
        /// The index must behave exactly like a HashMap under a random
        /// sequence of inserts and removes.
        #[test]
        fn model_equivalence(ops in prop::collection::vec(
            (0u32..64, prop::bool::ANY, 0u64..1000), 0..400)) {
            let mut idx = HashIndex::new();
            let mut model: HashMap<u32, u64> = HashMap::new();
            for (key, is_insert, val) in ops {
                if is_insert {
                    prop_assert_eq!(idx.insert(ItemId(key), val),
                                    model.insert(key, val));
                } else {
                    prop_assert_eq!(idx.remove(ItemId(key)), model.remove(&key));
                }
                prop_assert_eq!(idx.len(), model.len());
            }
            for (k, v) in &model {
                prop_assert_eq!(idx.get(ItemId(*k)), Some(v));
            }
        }
    }
}
