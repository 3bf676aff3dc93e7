//! Per-item version chains for multi-version snapshot reads.
//!
//! Strict 2PL serializes read-only transactions against the propagation
//! write stream: every S lock a read takes is an X-lock conflict waiting
//! to happen. The classic escape (C5, Parallel Deferred Update
//! Replication) is multi-versioning — writers install *new* versions
//! stamped with a monotone commit timestamp, and read-only transactions
//! read the newest version at or below a snapshot timestamp fixed when
//! they begin. No locks, no blocking, no aborts on the read path.
//!
//! This module owns the version storage: one [`VersionChain`] per item,
//! ordered by commit timestamp. Each chain lives in its item's cell in
//! the store's hash index, so a commit reaches the chain through the
//! same probe that finds the cell. The policy layer — which timestamp a
//! snapshot gets, when chains are garbage-collected — lives in
//! [`crate::snapshot::SnapshotManager`]; the integration (stamping
//! committed write sets, the lock-free `read_snapshot` entry point) in
//! [`crate::Store`].
//!
//! While no snapshot is open a chain holds exactly one version, and a
//! commit overwrites it in place rather than appending and trimming.
//!
//! The snapshot read path must never touch the lock manager; replint
//! RL011 rejects any `LockManager` mention in this file.

use repl_types::{GlobalTxnId, Value};

/// One committed version of an item.
#[derive(Clone, Debug, PartialEq)]
pub struct Version {
    /// Commit timestamp of the transaction that installed this version
    /// (0 for the initial, pre-transactional value).
    pub commit_ts: u64,
    /// The value installed.
    pub value: Value,
    /// Logical writer (`None` for the initial value).
    pub writer: Option<GlobalTxnId>,
}

/// The versions of one item, ascending by commit timestamp.
///
/// Timestamps are strictly increasing along a chain: each commit gets a
/// fresh site-local timestamp and installs at most one version per item
/// (the deduplicated write set).
#[derive(Clone, Debug, Default)]
pub struct VersionChain {
    versions: Vec<Version>,
}

impl VersionChain {
    /// The newest version with `commit_ts <= ts`, if any version that
    /// old exists.
    pub fn visible_at(&self, ts: u64) -> Option<&Version> {
        // Binary search for the partition point: versions are ascending
        // and timestamps unique per chain.
        let idx = self.versions.partition_point(|v| v.commit_ts <= ts);
        idx.checked_sub(1).map(|i| &self.versions[i])
    }

    /// The newest version (what a fresh snapshot would read).
    pub fn latest(&self) -> Option<&Version> {
        self.versions.last()
    }

    /// Number of versions retained.
    pub fn len(&self) -> usize {
        self.versions.len()
    }

    /// True when no version has been installed (never the case for a
    /// seeded item).
    pub fn is_empty(&self) -> bool {
        self.versions.is_empty()
    }

    /// A chain holding only the initial, pre-transactional version
    /// (timestamp 0).
    pub fn seeded(value: Value, writer: Option<GlobalTxnId>) -> Self {
        VersionChain { versions: vec![Version { commit_ts: 0, value, writer }] }
    }

    /// Install a committed version. With `trim` (no snapshot open) the
    /// chain keeps only this version: the single version it holds is
    /// overwritten in place.
    pub(crate) fn install(&mut self, v: Version, trim: bool) {
        debug_assert!(
            self.versions.last().map(|last| last.commit_ts < v.commit_ts).unwrap_or(true),
            "version timestamps must be strictly increasing"
        );
        match self.versions.as_mut_slice() {
            [only] if trim => *only = v,
            _ => {
                if trim {
                    self.versions.clear();
                }
                self.versions.push(v);
            }
        }
    }

    /// Drop every version older than the newest one with
    /// `commit_ts <= low_water`: no snapshot at or above `low_water` can
    /// ever read them. Returns how many versions were dropped.
    pub(crate) fn gc_below(&mut self, low_water: u64) -> usize {
        let keep_from = self.versions.partition_point(|v| v.commit_ts <= low_water);
        let drop_n = keep_from.saturating_sub(1);
        if drop_n > 0 {
            self.versions.drain(..drop_n);
        }
        drop_n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use repl_types::SiteId;

    fn gid(n: u64) -> GlobalTxnId {
        GlobalTxnId::new(SiteId(0), n)
    }

    fn chain_with_history() -> VersionChain {
        let mut c = VersionChain::seeded(Value::Initial, None);
        c.install(Version { commit_ts: 3, value: Value::int(30), writer: Some(gid(3)) }, false);
        c.install(Version { commit_ts: 7, value: Value::int(70), writer: Some(gid(7)) }, false);
        c.install(Version { commit_ts: 9, value: Value::int(90), writer: Some(gid(9)) }, false);
        c
    }

    #[test]
    fn visibility_picks_newest_at_or_below() {
        let c = chain_with_history();
        assert_eq!(c.visible_at(0).unwrap().value, Value::Initial);
        assert_eq!(c.visible_at(2).unwrap().value, Value::Initial);
        assert_eq!(c.visible_at(3).unwrap().value, Value::int(30));
        assert_eq!(c.visible_at(8).unwrap().value, Value::int(70));
        assert_eq!(c.visible_at(100).unwrap().value, Value::int(90));
        assert_eq!(c.visible_at(8).unwrap().writer, Some(gid(7)));
        assert_eq!(c.latest().unwrap().commit_ts, 9);
    }

    #[test]
    fn gc_keeps_the_low_water_version() {
        let mut c = chain_with_history();
        // A snapshot at ts 7 still needs the ts-7 version, but nothing
        // older.
        let dropped = c.gc_below(7);
        assert_eq!(dropped, 2); // ts 0 and ts 3 go
        assert_eq!(c.len(), 2);
        assert_eq!(c.visible_at(7).unwrap().value, Value::int(70));
        assert_eq!(c.visible_at(9).unwrap().value, Value::int(90));
    }

    #[test]
    fn gc_between_versions_keeps_the_covering_one() {
        let mut c = chain_with_history();
        // Low water 5: a snapshot at 5 reads the ts-3 version, so ts 3
        // must survive even though 3 < 5.
        let dropped = c.gc_below(5);
        assert_eq!(dropped, 1); // only ts 0 goes
        assert_eq!(c.visible_at(5).unwrap().value, Value::int(30));
    }

    #[test]
    fn trimmed_install_leaves_one_version() {
        let mut c = chain_with_history();
        c.install(Version { commit_ts: 11, value: Value::int(110), writer: Some(gid(11)) }, true);
        assert_eq!(c.len(), 1);
        assert_eq!(c.visible_at(u64::MAX).unwrap().value, Value::int(110));
        // Below the surviving version nothing is visible.
        assert!(c.visible_at(0).is_none());
        // A single version is overwritten in place.
        c.install(Version { commit_ts: 12, value: Value::int(120), writer: Some(gid(12)) }, true);
        assert_eq!(c.len(), 1);
        assert_eq!(c.latest().unwrap().writer, Some(gid(12)));
    }
}
