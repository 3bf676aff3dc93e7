//! Per-site main-memory storage engine.
//!
//! This crate is the workspace's stand-in for **DataBlitz**, the Bell Labs
//! main-memory storage manager on which the paper's prototype was built
//! (Bohannon et al., "The architecture of the Dalí main memory storage
//! manager"). It provides exactly what the §1.1 system model requires of a
//! site-local database:
//!
//! * a main-memory store of item copies, accessed through a custom
//!   open-addressing [`hash_index::HashIndex`] (the paper: "fast access to
//!   an item is facilitated by a hash index on the item identifier");
//! * a strict two-phase-locking [`lock::LockManager`] with shared and
//!   exclusive modes, lock upgrades, FIFO wait queues and waits-for-graph
//!   deadlock detection (the prototype used 50 ms lock timeouts instead;
//!   both mechanisms are supported — timeouts are driven by the caller's
//!   clock, cycle detection by [`lock::LockManager::find_deadlock`]);
//! * per-transaction undo logs so aborted transactions roll back cleanly;
//! * version metadata on every copy (the logical writer of the current
//!   value) so the serializability checker in `repl-core` can reconstruct
//!   reads-from relationships.
//!
//! The engine is deliberately single-threaded: in the simulation each site
//! is an event-driven actor, so internal synchronization would only add
//! noise. Lock waits are surfaced as [`StorageError::WouldBlock`]; when a
//! commit or abort releases locks the engine reports which transactions
//! became runnable so the caller can resume them.

#![warn(missing_docs)]

pub mod codec;
pub mod commit_pipeline;
pub mod hash_index;
pub mod lock;
pub mod mvcc;
pub mod snapshot;
pub mod store;
pub mod undo;
pub mod wal;

pub use commit_pipeline::{CommitBatch, CommitPipeline, PipelineStats};
pub use lock::{LockManager, LockMode, LockOutcome};
pub use mvcc::{Version, VersionChain};
pub use snapshot::{SnapshotId, SnapshotManager};
pub use store::{CommitInfo, ReadResult, Store, TxnStatus};
pub use wal::{checkpoint, recover, Checkpoint, LogRecord, WriteAheadLog};

pub use repl_types::{GlobalTxnId, ItemId, StorageError, TxnId, Value};
