//! The site-local storage engine.
//!
//! A [`Store`] holds the copies (primary or secondary) that live at one
//! site, executes local (sub)transactions under strict 2PL, and exposes the
//! hooks the protocol engines need:
//!
//! * lock waits surface as [`StorageError::WouldBlock`] — the engine
//!   suspends the transaction and retries the operation after the lock
//!   manager reports a grant;
//! * every installed value carries its *logical writer* (a
//!   [`GlobalTxnId`]), so applying a secondary subtransaction at a replica
//!   tags the copy with the originating transaction and the
//!   serializability checker can recover reads-from edges;
//! * commit returns the transaction's read and write sets (the write set
//!   is what gets packaged into secondary subtransactions).

use repl_types::trace::{self, TraceEvent};
use repl_types::{GlobalTxnId, IdMap, ItemId, StorageError, TxnId, Value};

use crate::hash_index::HashIndex;
use crate::lock::{LockManager, LockMode, LockOutcome};
use crate::mvcc::{Version, VersionChain};
use crate::snapshot::{SnapshotId, SnapshotManager};
use crate::undo::{UndoEntry, UndoLog};

/// One item copy stored at a site.
#[derive(Clone, Debug)]
struct Cell {
    value: Value,
    /// Logical transaction that wrote the current value (`None` = initial).
    writer: Option<GlobalTxnId>,
    /// Monotone per-copy version counter.
    version: u64,
    /// Committed versions for snapshot reads; the newest is the value
    /// as of the last commit that wrote the item.
    committed: VersionChain,
}

/// Result of a transactional read.
#[derive(Clone, Debug, PartialEq)]
pub struct ReadResult {
    /// The value read.
    pub value: Value,
    /// Logical writer of that value (`None` for the initial value).
    pub writer: Option<GlobalTxnId>,
}

/// Lifecycle state of a local (sub)transaction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TxnStatus {
    /// Executing; may read, write, commit or abort.
    Active,
    /// Finished execution but holding locks, awaiting a distributed-commit
    /// decision (BackEdge eager phase / 2PC participants).
    Prepared,
}

#[derive(Debug)]
struct TxnState {
    status: TxnStatus,
    undo: UndoLog,
    /// `(item, writer-of-version-read)` pairs, in read order.
    reads: Vec<(ItemId, Option<GlobalTxnId>)>,
    /// `(item, value)` pairs in write order (may repeat items).
    writes: Vec<(ItemId, Value)>,
    /// Logical writer of this transaction's writes (set on the first
    /// write), stamped onto the versions installed at commit.
    writer: Option<GlobalTxnId>,
}

/// Read/write sets returned by [`Store::commit`].
#[derive(Clone, Debug, Default)]
pub struct CommitInfo {
    /// `(item, writer-of-version-read)` pairs, in read order.
    pub reads: Vec<(ItemId, Option<GlobalTxnId>)>,
    /// `(item, value)` pairs in write order (may repeat items).
    pub writes: Vec<(ItemId, Value)>,
}

impl CommitInfo {
    /// The deduplicated write set: last value per item, in first-write
    /// order. This is what a secondary subtransaction carries.
    ///
    /// A linear scan of the items collected so far: transactions write a
    /// handful of items, where this beats building a map.
    pub fn write_set(&self) -> Vec<(ItemId, Value)> {
        let mut set: Vec<(ItemId, Value)> = Vec::with_capacity(self.writes.len());
        for (item, value) in &self.writes {
            match set.iter_mut().find(|(i, _)| i == item) {
                Some(slot) => slot.1 = value.clone(),
                None => set.push((*item, value.clone())),
            }
        }
        set
    }
}

/// The per-site main-memory store.
#[derive(Debug, Default)]
pub struct Store {
    cells: HashIndex<Cell>,
    locks: LockManager,
    txns: IdMap<TxnId, TxnState>,
    next_txn: u64,
    /// Undo logs of finished transactions, emptied, kept for reuse so a
    /// write does not allocate one afresh.
    spare_undo: Vec<UndoLog>,
    /// Active read-only snapshots and the GC low-water mark.
    snapshots: SnapshotManager,
    /// Monotone commit timestamp, bumped by every writing commit.
    commit_ts: u64,
}

impl Store {
    /// Create an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Install a copy of `item` with its initial value. Non-transactional;
    /// used during database population.
    pub fn create_item(&mut self, item: ItemId, value: Value) {
        let committed = VersionChain::seeded(value.clone(), None);
        self.cells.insert(item, Cell { value, writer: None, version: 0, committed });
    }

    /// True if this site stores a copy (primary or secondary) of `item`.
    pub fn has_item(&self, item: ItemId) -> bool {
        self.cells.contains(item)
    }

    /// Number of item copies stored.
    pub fn item_count(&self) -> usize {
        self.cells.len()
    }

    /// Non-transactional inspection of a copy's current value and writer
    /// (used by convergence tests and examples).
    ///
    /// Takes **no lock**; in a happens-before trace the access is recorded
    /// with the [`trace::NO_TXN`] sentinel so the race detector can flag a
    /// peek that races a concurrent writer.
    pub fn peek(&self, item: ItemId) -> Option<ReadResult> {
        let result =
            self.cells.get(item).map(|c| ReadResult { value: c.value.clone(), writer: c.writer });
        if result.is_some() && trace::is_enabled() {
            trace::record(TraceEvent::Access {
                scope: self.locks.trace_scope(),
                item,
                txn: trace::NO_TXN,
                write: false,
            });
        }
        result
    }

    /// Begin a new local (sub)transaction.
    pub fn begin(&mut self) -> TxnId {
        let id = TxnId(self.next_txn);
        self.next_txn += 1;
        self.txns.insert(
            id,
            TxnState {
                status: TxnStatus::Active,
                undo: self.spare_undo.pop().unwrap_or_default(),
                reads: Vec::new(),
                writes: Vec::new(),
                writer: None,
            },
        );
        id
    }

    /// True if `txn` is currently known (active or prepared).
    pub fn is_active(&self, txn: TxnId) -> bool {
        self.txns.contains_key(&txn)
    }

    /// Access the lock manager (deadlock detection, arrival ordinals).
    pub fn locks(&self) -> &LockManager {
        &self.locks
    }

    /// Mutable access to the lock manager.
    pub fn locks_mut(&mut self) -> &mut LockManager {
        &mut self.locks
    }

    /// The state of `txn` if it may still execute operations.
    fn active_state(
        txns: &mut IdMap<TxnId, TxnState>,
        txn: TxnId,
    ) -> Result<&mut TxnState, StorageError> {
        match txns.get_mut(&txn) {
            Some(s) if s.status == TxnStatus::Active => Ok(s),
            Some(_) => Err(StorageError::InvalidState(txn)),
            None => Err(StorageError::NoSuchTxn(txn)),
        }
    }

    /// Transactional read under an S lock.
    ///
    /// Returns [`StorageError::WouldBlock`] if the lock is unavailable; the
    /// request stays queued and the caller must retry after the grant.
    pub fn read(&mut self, txn: TxnId, item: ItemId) -> Result<ReadResult, StorageError> {
        let state = Self::active_state(&mut self.txns, txn)?;
        let cell = self.cells.get(item).ok_or(StorageError::NoSuchItem(item))?;
        match self.locks.request(txn, item, LockMode::Shared) {
            LockOutcome::Queued => Err(StorageError::WouldBlock(item)),
            LockOutcome::Granted => {
                let result = ReadResult { value: cell.value.clone(), writer: cell.writer };
                state.reads.push((item, result.writer));
                if trace::is_enabled() {
                    trace::record(TraceEvent::Access {
                        scope: self.locks.trace_scope(),
                        item,
                        txn,
                        write: false,
                    });
                }
                Ok(result)
            }
        }
    }

    /// Transactional write under an X lock, installing `value` attributed
    /// to logical writer `writer`.
    pub fn write(
        &mut self,
        txn: TxnId,
        item: ItemId,
        value: Value,
        writer: GlobalTxnId,
    ) -> Result<(), StorageError> {
        let state = Self::active_state(&mut self.txns, txn)?;
        let cell = self.cells.get_mut(item).ok_or(StorageError::NoSuchItem(item))?;
        match self.locks.request(txn, item, LockMode::Exclusive) {
            LockOutcome::Queued => Err(StorageError::WouldBlock(item)),
            LockOutcome::Granted => {
                let entry = UndoEntry {
                    item,
                    old_value: std::mem::replace(&mut cell.value, value.clone()),
                    old_writer: cell.writer.replace(writer),
                    old_version: cell.version,
                };
                cell.version += 1;
                state.undo.push(entry);
                state.writes.push((item, value));
                state.writer = Some(writer);
                if trace::is_enabled() {
                    trace::record(TraceEvent::Access {
                        scope: self.locks.trace_scope(),
                        item,
                        txn,
                        write: true,
                    });
                }
                Ok(())
            }
        }
    }

    /// Move `txn` to the `Prepared` state: execution is complete and its
    /// locks are pinned until a distributed commit decision arrives
    /// (BackEdge protocol, §4.1: backedge subtransactions "do not commit
    /// and hold on to their locks").
    pub fn prepare(&mut self, txn: TxnId) -> Result<(), StorageError> {
        Self::active_state(&mut self.txns, txn)?.status = TxnStatus::Prepared;
        Ok(())
    }

    /// Commit `txn`: release all locks (strict 2PL) and return its
    /// read/write sets plus the transactions unblocked by the release.
    ///
    /// A writing commit additionally installs one new version per
    /// written item, stamped with a fresh site-local commit timestamp —
    /// the versions snapshot reads resolve against. While no snapshot is
    /// open each chain keeps only its newest version, overwritten in
    /// place, so pure-2PL workloads pay O(1) space per item.
    pub fn commit(&mut self, txn: TxnId) -> Result<(CommitInfo, Vec<TxnId>), StorageError> {
        let TxnState { mut undo, reads, writes, writer, .. } =
            self.txns.remove(&txn).ok_or(StorageError::NoSuchTxn(txn))?;
        undo.clear();
        self.spare_undo.push(undo);
        let granted = self.locks.release_all(txn);
        if !writes.is_empty() {
            self.commit_ts += 1;
            let ts = self.commit_ts;
            let trim = self.snapshots.active_count() == 0;
            for &(item, _) in &writes {
                let cell = self.cells.get_mut(item).expect("written items exist");
                // An item written more than once is installed once. The
                // cell holds the transaction's last value for it: the X
                // lock kept every other writer out until now.
                if cell.committed.latest().is_some_and(|v| v.commit_ts == ts) {
                    continue;
                }
                let version = Version { commit_ts: ts, value: cell.value.clone(), writer };
                cell.committed.install(version, trim);
            }
        }
        Ok((CommitInfo { reads, writes }, granted))
    }

    /// Abort `txn`: roll back its writes from the undo log, release all
    /// locks, and return the transactions unblocked by the release.
    ///
    /// Safe to call on a blocked transaction (its queued lock request is
    /// cancelled) and on a prepared one (BackEdge global-deadlock aborts).
    pub fn abort(&mut self, txn: TxnId) -> Result<Vec<TxnId>, StorageError> {
        let mut state = self.txns.remove(&txn).ok_or(StorageError::NoSuchTxn(txn))?;
        for entry in state.undo.drain_rollback() {
            let cell =
                self.cells.get_mut(entry.item).expect("undo entries reference existing items");
            cell.value = entry.old_value;
            cell.writer = entry.old_writer;
            cell.version = entry.old_version;
            // Rollback rewrites the slot under the still-held X lock.
            if trace::is_enabled() {
                trace::record(TraceEvent::Access {
                    scope: self.locks.trace_scope(),
                    item: entry.item,
                    txn,
                    write: true,
                });
            }
        }
        self.spare_undo.push(state.undo);
        Ok(self.locks.release_all(txn))
    }

    /// The store's current commit timestamp (what a snapshot opened now
    /// would read at).
    pub fn current_commit_ts(&self) -> u64 {
        self.commit_ts
    }

    /// Open a read-only snapshot at the current commit timestamp.
    ///
    /// Every subsequent [`Store::read_snapshot`] through the returned
    /// handle observes exactly the committed prefix up to this point —
    /// later commits are invisible, aborted writes never were. The
    /// handle must be closed with [`Store::end_snapshot`] so version
    /// garbage collection can advance.
    pub fn begin_snapshot(&mut self) -> SnapshotId {
        self.snapshots.begin(self.commit_ts)
    }

    /// Close `snap` and garbage-collect versions below the new low-water
    /// mark (the oldest still-open snapshot, or the current commit
    /// timestamp when none remains). Closing twice is harmless.
    pub fn end_snapshot(&mut self, snap: SnapshotId) {
        if self.snapshots.end(snap).is_some() {
            let low_water = self.snapshots.low_water(self.commit_ts);
            for cell in self.cells.values_mut() {
                cell.committed.gc_below(low_water);
            }
        }
    }

    /// Number of snapshots currently open.
    pub fn active_snapshots(&self) -> usize {
        self.snapshots.active_count()
    }

    /// Total versions retained across all chains (observability for GC
    /// tests and benches).
    pub fn version_count(&self) -> usize {
        self.cells.iter().map(|(_, c)| c.committed.len()).sum()
    }

    /// Lock-free snapshot read: the version of `item` visible at
    /// `snap`'s timestamp.
    ///
    /// This path never touches the lock manager (pinned by replint
    /// RL011 and the lock-trace test): it cannot block, cannot deadlock,
    /// and cannot be aborted. Reads-from edges for the serializability
    /// checker come from the returned `writer`.
    pub fn read_snapshot(
        &self,
        snap: SnapshotId,
        item: ItemId,
    ) -> Result<ReadResult, StorageError> {
        let ts = self.snapshots.ts_of(snap).ok_or(StorageError::NoSuchSnapshot(snap.0))?;
        let version = self
            .cells
            .get(item)
            .and_then(|c| c.committed.visible_at(ts))
            .ok_or(StorageError::NoSuchItem(item))?;
        if trace::is_enabled() {
            trace::record(TraceEvent::Access {
                scope: self.trace_scope(),
                item,
                txn: trace::NO_TXN,
                write: false,
            });
        }
        Ok(ReadResult { value: version.value.clone(), writer: version.writer })
    }

    /// The store's trace scope identity (shared with its lock scope so
    /// snapshot reads and locked accesses land in one scope).
    fn trace_scope(&self) -> u64 {
        self.locks.trace_scope()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use repl_types::SiteId;

    fn gid(n: u64) -> GlobalTxnId {
        GlobalTxnId::new(SiteId(0), n)
    }

    fn store_with_items(n: u32) -> Store {
        let mut s = Store::new();
        for i in 0..n {
            s.create_item(ItemId(i), Value::Initial);
        }
        s
    }

    #[test]
    fn read_your_own_write() {
        let mut s = store_with_items(2);
        let t = s.begin();
        s.write(t, ItemId(0), Value::int(5), gid(1)).unwrap();
        let r = s.read(t, ItemId(0)).unwrap();
        assert_eq!(r.value, Value::int(5));
        assert_eq!(r.writer, Some(gid(1)));
    }

    #[test]
    fn commit_returns_sets_and_releases() {
        let mut s = store_with_items(3);
        let t1 = s.begin();
        s.read(t1, ItemId(0)).unwrap();
        s.write(t1, ItemId(1), Value::int(1), gid(1)).unwrap();
        s.write(t1, ItemId(1), Value::int(2), gid(1)).unwrap();

        let t2 = s.begin();
        assert!(matches!(s.read(t2, ItemId(1)), Err(StorageError::WouldBlock(_))));

        let (info, granted) = s.commit(t1).unwrap();
        assert_eq!(info.reads, vec![(ItemId(0), None)]);
        assert_eq!(info.write_set(), vec![(ItemId(1), Value::int(2))]);
        assert_eq!(granted, vec![t2]);

        // t2's queued read was granted; a retry must now succeed.
        let r = s.read(t2, ItemId(1)).unwrap();
        assert_eq!(r.value, Value::int(2));
        assert_eq!(r.writer, Some(gid(1)));
    }

    #[test]
    fn abort_rolls_back_all_writes() {
        let mut s = store_with_items(2);
        s.create_item(ItemId(0), Value::int(100));
        let t = s.begin();
        s.write(t, ItemId(0), Value::int(1), gid(1)).unwrap();
        s.write(t, ItemId(0), Value::int(2), gid(1)).unwrap();
        s.write(t, ItemId(1), Value::int(3), gid(1)).unwrap();
        s.abort(t).unwrap();
        assert_eq!(s.peek(ItemId(0)).unwrap().value, Value::int(100));
        assert_eq!(s.peek(ItemId(0)).unwrap().writer, None);
        assert_eq!(s.peek(ItemId(1)).unwrap().value, Value::Initial);
    }

    #[test]
    fn abort_while_blocked_cancels_wait() {
        let mut s = store_with_items(1);
        let t1 = s.begin();
        s.write(t1, ItemId(0), Value::int(1), gid(1)).unwrap();
        let t2 = s.begin();
        assert!(matches!(
            s.write(t2, ItemId(0), Value::int(2), gid(2)),
            Err(StorageError::WouldBlock(_))
        ));
        s.abort(t2).unwrap();
        assert_eq!(s.locks().blocked_count(), 0);
        let (_, granted) = s.commit(t1).unwrap();
        assert!(granted.is_empty());
        assert_eq!(s.peek(ItemId(0)).unwrap().value, Value::int(1));
    }

    #[test]
    fn missing_item_is_an_error() {
        let mut s = store_with_items(1);
        let t = s.begin();
        assert_eq!(s.read(t, ItemId(9)), Err(StorageError::NoSuchItem(ItemId(9))));
        assert_eq!(
            s.write(t, ItemId(9), Value::int(1), gid(1)),
            Err(StorageError::NoSuchItem(ItemId(9)))
        );
    }

    #[test]
    fn prepared_txn_rejects_operations_but_can_abort() {
        let mut s = store_with_items(1);
        let t = s.begin();
        s.write(t, ItemId(0), Value::int(1), gid(1)).unwrap();
        s.prepare(t).unwrap();
        assert_eq!(s.read(t, ItemId(0)), Err(StorageError::InvalidState(t)));
        // Prepared transactions still hold locks...
        let t2 = s.begin();
        assert!(matches!(s.read(t2, ItemId(0)), Err(StorageError::WouldBlock(_))));
        // ...and can be aborted by a global deadlock decision.
        s.abort(t).unwrap();
        assert_eq!(s.peek(ItemId(0)).unwrap().value, Value::Initial);
        let r = s.read(t2, ItemId(0)).unwrap();
        assert_eq!(r.value, Value::Initial);
    }

    #[test]
    fn unknown_txn_errors() {
        let mut s = store_with_items(1);
        assert_eq!(s.commit(TxnId(99)).err(), Some(StorageError::NoSuchTxn(TxnId(99))));
        assert_eq!(s.abort(TxnId(99)).err(), Some(StorageError::NoSuchTxn(TxnId(99))));
    }

    #[test]
    fn versions_advance_and_roll_back() {
        let mut s = store_with_items(1);
        let t = s.begin();
        s.write(t, ItemId(0), Value::int(1), gid(1)).unwrap();
        s.commit(t).unwrap();
        let t = s.begin();
        s.write(t, ItemId(0), Value::int(2), gid(2)).unwrap();
        s.abort(t).unwrap();
        let r = s.peek(ItemId(0)).unwrap();
        assert_eq!(r.value, Value::int(1));
        assert_eq!(r.writer, Some(gid(1)));
    }

    #[test]
    fn snapshot_pins_its_begin_prefix() {
        let mut s = store_with_items(2);
        let t = s.begin();
        s.write(t, ItemId(0), Value::int(1), gid(1)).unwrap();
        s.commit(t).unwrap();

        let snap = s.begin_snapshot();
        // Commits after the snapshot began are invisible to it.
        let t = s.begin();
        s.write(t, ItemId(0), Value::int(2), gid(2)).unwrap();
        s.write(t, ItemId(1), Value::int(3), gid(2)).unwrap();
        s.commit(t).unwrap();

        let r = s.read_snapshot(snap, ItemId(0)).unwrap();
        assert_eq!((r.value, r.writer), (Value::int(1), Some(gid(1))));
        let r = s.read_snapshot(snap, ItemId(1)).unwrap();
        assert_eq!((r.value, r.writer), (Value::Initial, None));
        // The live state moved on.
        assert_eq!(s.peek(ItemId(0)).unwrap().value, Value::int(2));
        s.end_snapshot(snap);
        // A closed snapshot is refused, not misread.
        assert_eq!(s.read_snapshot(snap, ItemId(0)), Err(StorageError::NoSuchSnapshot(snap.0)));
    }

    #[test]
    fn snapshot_read_of_unknown_item_is_an_error() {
        let mut s = store_with_items(1);
        let snap = s.begin_snapshot();
        assert_eq!(s.read_snapshot(snap, ItemId(9)), Err(StorageError::NoSuchItem(ItemId(9))));
        s.end_snapshot(snap);
    }

    #[test]
    fn snapshot_ignores_uncommitted_and_aborted_writes() {
        let mut s = store_with_items(1);
        // An active writer holds the X lock...
        let writer = s.begin();
        s.write(writer, ItemId(0), Value::int(99), gid(9)).unwrap();
        // ...but the snapshot read neither blocks nor sees the dirty value.
        let snap = s.begin_snapshot();
        let r = s.read_snapshot(snap, ItemId(0)).unwrap();
        assert_eq!(r.value, Value::Initial);
        s.abort(writer).unwrap();
        // Aborted versions never reach a chain.
        let r = s.read_snapshot(snap, ItemId(0)).unwrap();
        assert_eq!(r.value, Value::Initial);
        s.end_snapshot(snap);
        let snap = s.begin_snapshot();
        assert_eq!(s.read_snapshot(snap, ItemId(0)).unwrap().value, Value::Initial);
        s.end_snapshot(snap);
    }

    #[test]
    fn snapshot_gc_reclaims_below_low_water() {
        let mut s = store_with_items(1);
        let snap = s.begin_snapshot();
        for i in 1..=5u64 {
            let t = s.begin();
            s.write(t, ItemId(0), Value::int(i as i64), gid(i)).unwrap();
            s.commit(t).unwrap();
        }
        // The open snapshot pins the whole chain (initial + 5 versions).
        assert_eq!(s.version_count(), 6);
        assert_eq!(s.read_snapshot(snap, ItemId(0)).unwrap().value, Value::Initial);
        s.end_snapshot(snap);
        // Low water advanced to the current commit ts: one version left.
        assert_eq!(s.version_count(), 1);
        assert_eq!(s.active_snapshots(), 0);
        // And with no snapshot open, commits trim as they go.
        let t = s.begin();
        s.write(t, ItemId(0), Value::int(42), gid(7)).unwrap();
        s.commit(t).unwrap();
        assert_eq!(s.version_count(), 1);
    }

    #[test]
    fn snapshot_reads_take_zero_locks() {
        let mut s = store_with_items(1);
        let t = s.begin();
        s.write(t, ItemId(0), Value::int(7), gid(1)).unwrap();
        s.commit(t).unwrap();
        let scope = s.locks().trace_scope();
        let in_scope = |ev: &TraceEvent| match *ev {
            TraceEvent::LockAcquire { scope: sc, .. }
            | TraceEvent::LockRelease { scope: sc, .. } => sc == scope,
            _ => false,
        };

        // Control: a 2PL read of the same item does acquire a lock.
        trace::enable();
        let t = s.begin();
        s.read(t, ItemId(0)).unwrap();
        s.commit(t).unwrap();
        trace::disable();
        let control = trace::take();
        assert!(
            control.iter().any(|e| in_scope(&e.event)),
            "2PL control read recorded no lock event"
        );

        // The MVCC path: same read, zero lock events in this scope.
        trace::enable();
        let snap = s.begin_snapshot();
        let r = s.read_snapshot(snap, ItemId(0)).unwrap();
        s.end_snapshot(snap);
        trace::disable();
        let events = trace::take();
        assert_eq!(r.value, Value::int(7));
        assert!(
            events.iter().all(|e| !in_scope(&e.event)),
            "snapshot read touched the lock manager: {events:?}"
        );
        // The access itself is still visible to the race detector.
        assert!(events.iter().any(|e| matches!(
            e.event,
            TraceEvent::Access { scope: sc, txn, write: false, .. }
                if sc == scope && txn == trace::NO_TXN
        )));
    }

    mod commit_props {
        use super::*;
        use proptest::prelude::*;

        const ITEMS: u32 = 5;

        /// The write set by definition: each item once, in the order of
        /// its first write, with the value of its last write.
        fn reference_write_set(writes: &[(ItemId, Value)]) -> Vec<(ItemId, Value)> {
            let mut order: Vec<ItemId> = Vec::new();
            for (item, _) in writes {
                if !order.contains(item) {
                    order.push(*item);
                }
            }
            order
                .into_iter()
                .map(|item| {
                    let last = writes.iter().rev().find(|(i, _)| *i == item).expect("written");
                    (item, last.1.clone())
                })
                .collect()
        }

        proptest! {
            #[test]
            fn write_set_matches_its_definition(
                raw in prop::collection::vec((0u32..ITEMS, 0i64..100), 0..40),
            ) {
                let writes: Vec<(ItemId, Value)> =
                    raw.into_iter().map(|(i, v)| (ItemId(i), Value::int(v))).collect();
                let expected = reference_write_set(&writes);
                let info = CommitInfo { reads: Vec::new(), writes };
                prop_assert_eq!(info.write_set(), expected);
            }

            /// With no snapshot open every item keeps exactly one version,
            /// whatever mix of commits and aborts ran; a snapshot opened
            /// afterwards reads each item's last committed value and writer.
            #[test]
            fn without_snapshots_each_item_keeps_one_version(
                script in prop::collection::vec(
                    (prop::collection::vec((0u32..ITEMS, 0i64..1000), 1..5), prop::bool::ANY),
                    1..30,
                ),
            ) {
                let mut s = store_with_items(ITEMS);
                let mut model: Vec<(Value, Option<GlobalTxnId>)> =
                    vec![(Value::Initial, None); ITEMS as usize];
                for (n, (writes, commits)) in script.iter().enumerate() {
                    let w = gid(n as u64 + 1);
                    let t = s.begin();
                    for (item, v) in writes {
                        s.write(t, ItemId(*item), Value::int(*v), w).unwrap();
                    }
                    if *commits {
                        s.commit(t).unwrap();
                        for (item, v) in writes {
                            model[*item as usize] = (Value::int(*v), Some(w));
                        }
                    } else {
                        s.abort(t).unwrap();
                    }
                    prop_assert_eq!(s.version_count(), s.item_count());
                }
                let snap = s.begin_snapshot();
                for (item, (value, writer)) in model.iter().enumerate() {
                    let r = s.read_snapshot(snap, ItemId(item as u32)).unwrap();
                    prop_assert_eq!(&r.value, value);
                    prop_assert_eq!(&r.writer, writer);
                }
                s.end_snapshot(snap);
            }
        }
    }

    mod snapshot_props {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeMap;

        const ITEMS: u32 = 6;

        type ModelState = BTreeMap<u32, (Value, Option<GlobalTxnId>)>;

        fn initial_model() -> ModelState {
            (0..ITEMS).map(|i| (i, (Value::Initial, None))).collect()
        }

        proptest! {
            /// Snapshot reads observe exactly the committed prefix at
            /// their begin point: whole transactions or nothing (no torn
            /// reads), never an aborted write, regardless of how commits,
            /// aborts and snapshot lifetimes interleave.
            #[test]
            fn snapshots_observe_a_committed_prefix(
                script in prop::collection::vec(
                    (prop::collection::vec((0u32..ITEMS, 0i64..1000), 1..4), prop::bool::ANY),
                    1..24,
                ),
                snap_raw in prop::collection::vec(0usize..24, 0..4),
            ) {
                let snap_points: std::collections::BTreeSet<usize> =
                    snap_raw.into_iter().collect();
                let mut s = store_with_items(ITEMS);
                let mut model = initial_model();
                let mut open: Vec<(crate::snapshot::SnapshotId, ModelState)> = Vec::new();
                for (i, (writes, commits)) in script.iter().enumerate() {
                    if snap_points.contains(&i) {
                        open.push((s.begin_snapshot(), model.clone()));
                    }
                    let w = gid(i as u64 + 1);
                    let t = s.begin();
                    for (item, v) in writes {
                        s.write(t, ItemId(*item), Value::int(*v), w).unwrap();
                    }
                    if *commits {
                        s.commit(t).unwrap();
                        for (item, v) in writes {
                            model.insert(*item, (Value::int(*v), Some(w)));
                        }
                    } else {
                        s.abort(t).unwrap();
                    }
                    // Every open snapshot still reads its own prefix —
                    // all items, atomically per transaction.
                    for (snap, expected) in &open {
                        for item in 0..ITEMS {
                            let r = s.read_snapshot(*snap, ItemId(item)).unwrap();
                            let (ev, ew) = &expected[&item];
                            prop_assert_eq!(&r.value, ev, "torn/aborted read at item {}", item);
                            prop_assert_eq!(&r.writer, ew);
                        }
                    }
                }
                // The live state matches the full committed history.
                for item in 0..ITEMS {
                    let (ev, _) = &model[&item];
                    prop_assert_eq!(&s.peek(ItemId(item)).unwrap().value, ev);
                }
                for (snap, _) in open {
                    s.end_snapshot(snap);
                }
                // With every snapshot closed, GC leaves one version per item.
                prop_assert_eq!(s.version_count(), ITEMS as usize);
            }
        }
    }
}
