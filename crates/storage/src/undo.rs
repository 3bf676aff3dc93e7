//! Per-transaction undo logging.
//!
//! Strict 2PL plus in-place updates means abort must physically restore the
//! pre-images of everything the transaction wrote. The undo log records one
//! entry per write (not per item — applying entries in reverse order makes
//! repeated writes to the same item collapse correctly to the oldest
//! pre-image).

use repl_types::{GlobalTxnId, ItemId, Value};

/// The pre-image of one write.
#[derive(Clone, Debug)]
pub struct UndoEntry {
    /// Item that was overwritten.
    pub item: ItemId,
    /// Value before the write.
    pub old_value: Value,
    /// Logical writer of the overwritten version (`None` = initial value).
    pub old_writer: Option<GlobalTxnId>,
    /// Version counter before the write.
    pub old_version: u64,
}

/// Append-only undo log for a single transaction.
#[derive(Clone, Debug, Default)]
pub struct UndoLog {
    entries: Vec<UndoEntry>,
}

impl UndoLog {
    /// Create an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a pre-image.
    pub fn push(&mut self, entry: UndoEntry) {
        self.entries.push(entry);
    }

    /// Number of logged writes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been logged.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Forget every entry, keeping the allocation for reuse.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Drain the entries in reverse (rollback) order.
    pub fn drain_rollback(&mut self) -> impl Iterator<Item = UndoEntry> + '_ {
        self.entries.drain(..).rev()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rollback_order_is_reverse() {
        let mut log = UndoLog::new();
        for v in 0..3 {
            log.push(UndoEntry {
                item: ItemId(1),
                old_value: Value::int(v),
                old_writer: None,
                old_version: v as u64,
            });
        }
        let versions: Vec<u64> = log.drain_rollback().map(|e| e.old_version).collect();
        assert_eq!(versions, vec![2, 1, 0]);
        assert!(log.is_empty());
    }

    #[test]
    fn repeated_writes_restore_oldest_preimage() {
        // Simulate: item starts at 10, txn writes 20 then 30; rollback in
        // reverse restores 20 then 10 — final state 10.
        let mut log = UndoLog::new();
        log.push(UndoEntry {
            item: ItemId(1),
            old_value: Value::int(10),
            old_writer: None,
            old_version: 0,
        });
        log.push(UndoEntry {
            item: ItemId(1),
            old_value: Value::int(20),
            old_writer: None,
            old_version: 1,
        });
        let mut current = Value::int(30);
        for e in log.drain_rollback() {
            current = e.old_value;
        }
        assert_eq!(current, Value::int(10));
    }
}
