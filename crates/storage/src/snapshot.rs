//! Snapshot lifecycle management for read-only transactions.
//!
//! A [`SnapshotManager`] hands each read-only transaction a *snapshot
//! timestamp* — the store's commit timestamp at begin — and tracks which
//! snapshots are still live. Every read of the transaction resolves
//! through [`crate::mvcc::VersionChain::visible_at`] at that one
//! timestamp, so the transaction observes exactly the committed prefix
//! of the site's local history up to its begin point: no torn reads
//! (all-or-nothing per commit), no aborted versions (aborts never reach
//! a chain), no blocking (never a lock).
//!
//! The manager also computes the GC *low-water mark*: the smallest
//! timestamp any active snapshot might still read at (or the current
//! commit timestamp when none is active). Versions strictly older than
//! the newest version at-or-below the low-water mark are unreachable
//! and reclaimed when the snapshot that pinned them closes.
//!
//! The snapshot read path must never touch the lock manager; replint
//! RL011 rejects any `LockManager` mention in this file.

use std::collections::BTreeMap;

/// Handle to one active snapshot.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SnapshotId(pub u64);

/// Allocates snapshot timestamps and tracks the active set.
#[derive(Clone, Debug, Default)]
pub struct SnapshotManager {
    next: u64,
    /// Active snapshots, id → snapshot timestamp. A `BTreeMap` keeps
    /// min-timestamp queries deterministic and O(active).
    active: BTreeMap<u64, u64>,
}

impl SnapshotManager {
    /// Empty manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Open a snapshot reading at `commit_ts` (the store's current
    /// commit timestamp).
    pub fn begin(&mut self, commit_ts: u64) -> SnapshotId {
        let id = self.next;
        self.next += 1;
        self.active.insert(id, commit_ts);
        SnapshotId(id)
    }

    /// The timestamp `snap` reads at, if it is still open.
    pub fn ts_of(&self, snap: SnapshotId) -> Option<u64> {
        self.active.get(&snap.0).copied()
    }

    /// Close `snap`, returning its timestamp (`None` if unknown or
    /// already closed — closing twice is harmless).
    pub fn end(&mut self, snap: SnapshotId) -> Option<u64> {
        self.active.remove(&snap.0)
    }

    /// Number of snapshots currently open.
    pub fn active_count(&self) -> usize {
        self.active.len()
    }

    /// The GC low-water mark: the minimum timestamp of any open
    /// snapshot, or `current_ts` when none is open (then only the
    /// latest version of each item is reachable).
    pub fn low_water(&self, current_ts: u64) -> u64 {
        self.active.values().copied().min().unwrap_or(current_ts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshots_pin_their_begin_timestamp() {
        let mut m = SnapshotManager::new();
        let a = m.begin(5);
        let b = m.begin(9);
        assert_eq!(m.ts_of(a), Some(5));
        assert_eq!(m.ts_of(b), Some(9));
        assert_ne!(a, b);
    }

    #[test]
    fn low_water_is_min_active_else_current() {
        let mut m = SnapshotManager::new();
        assert_eq!(m.low_water(42), 42);
        let a = m.begin(5);
        let b = m.begin(9);
        assert_eq!(m.low_water(42), 5);
        m.end(a);
        assert_eq!(m.low_water(42), 9);
        m.end(b);
        assert_eq!(m.low_water(42), 42);
    }

    #[test]
    fn double_end_is_harmless() {
        let mut m = SnapshotManager::new();
        let a = m.begin(3);
        assert_eq!(m.end(a), Some(3));
        assert_eq!(m.end(a), None);
        assert_eq!(m.active_count(), 0);
        assert_eq!(m.ts_of(a), None);
    }
}
