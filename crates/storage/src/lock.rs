//! Strict two-phase locking with shared/exclusive modes.
//!
//! The §1.1 system model assumes every site runs strict 2PL: "a transaction
//! does not release any locks (read or write) until after it has committed".
//! This lock manager enforces exactly that discipline:
//!
//! * **Shared (S)** and **exclusive (X)** modes with the usual
//!   compatibility matrix, plus S→X **upgrades** (an upgrader is granted as
//!   soon as it is the sole holder, jumping the FIFO queue — the standard
//!   treatment that avoids trivial upgrade starvation);
//! * **FIFO wait queues**: a request is granted only when it is compatible
//!   with the current holders *and* no earlier request is still queued, so
//!   writers are never starved by a stream of readers;
//! * **Waits-for-graph deadlock detection** ([`LockManager::find_deadlock`])
//!   with the paper's fair victim policy — the *latest-arriving* transaction
//!   in the cycle is the victim, so a resubmitted secondary subtransaction
//!   (which keeps its original arrival ordinal via
//!   [`LockManager::set_arrival`]) is never chosen forever (§2: "some fair
//!   victim selection policy, e.g., the transaction which arrived at the
//!   site the latest, will have to be used").
//!
//! Timeout-based detection — what the prototype actually used (50 ms) — is
//! driven by the protocol engine's clock: the engine schedules a timer when
//! a request returns [`LockOutcome::Queued`] and calls
//! [`LockManager::cancel_wait`] + abort if it fires first.
//!
//! Because each transaction in the engine executes its operations
//! sequentially, a transaction waits on at most one item at a time; the
//! waits-for graph construction relies on this.

use std::collections::hash_map::Entry;
use std::collections::VecDeque;

use repl_types::trace::{self, TraceEvent};
use repl_types::{IdMap, ItemId, TxnId};

/// Lock mode: shared (reads) or exclusive (writes).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LockMode {
    /// Shared — compatible with other shared locks.
    Shared,
    /// Exclusive — compatible with nothing.
    Exclusive,
}

/// Result of a lock request.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LockOutcome {
    /// The lock is held; the caller may proceed.
    Granted,
    /// The request was enqueued; the caller must suspend the transaction
    /// until a grant notification (or abort it on timeout).
    Queued,
}

#[derive(Clone, Debug)]
struct Request {
    txn: TxnId,
    mode: LockMode,
    /// True if the requester already holds S on the item (upgrade).
    upgrade: bool,
}

#[derive(Default, Debug)]
struct LockState {
    /// Current holders. Invariant: either any number of `Shared` entries or
    /// exactly one `Exclusive` entry; a transaction appears at most once.
    holders: Vec<(TxnId, LockMode)>,
    queue: VecDeque<Request>,
}

impl LockState {
    fn holder_mode(&self, txn: TxnId) -> Option<LockMode> {
        self.holders.iter().find(|(t, _)| *t == txn).map(|(_, m)| *m)
    }

    fn compatible(&self, mode: LockMode, requester: TxnId) -> bool {
        match mode {
            LockMode::Shared => {
                self.holders.iter().all(|(t, m)| *t == requester || *m == LockMode::Shared)
            }
            LockMode::Exclusive => self.holders.iter().all(|(t, _)| *t == requester),
        }
    }

    fn is_idle(&self) -> bool {
        self.holders.is_empty() && self.queue.is_empty()
    }

    /// Grant as many queued requests on `item` as the FIFO-prefix policy
    /// allows, appending the transactions granted to `granted`.
    fn grant_queued(
        &mut self,
        item: ItemId,
        txns: &mut IdMap<TxnId, TxnLocks>,
        waiting_on: &mut IdMap<TxnId, ItemId>,
        scope: u64,
        granted: &mut Vec<TxnId>,
    ) {
        while let Some(front) = self.queue.front() {
            let txn = front.txn;
            let granted_mode;
            if front.upgrade {
                // Upgrade grantable only when the upgrader is the sole
                // remaining holder.
                if self.holders.len() == 1 && self.holders[0].0 == txn {
                    self.holders[0].1 = LockMode::Exclusive;
                    granted_mode = LockMode::Exclusive;
                } else {
                    break;
                }
            } else if self.compatible(front.mode, txn) {
                let mode = front.mode;
                self.holders.push((txn, mode));
                txns.get_mut(&txn).expect("a queued requester is registered").held.push(item);
                granted_mode = mode;
            } else {
                break;
            }
            self.queue.pop_front();
            waiting_on.remove(&txn);
            trace_acquire(scope, txn, item, granted_mode);
            granted.push(txn);
        }
    }
}

/// What the manager knows about one transaction.
#[derive(Debug)]
struct TxnLocks {
    /// Arrival ordinal for victim selection (latest arrival = victim).
    arrival: u64,
    /// Items on which the transaction currently holds a lock.
    held: Vec<ItemId>,
}

fn trace_acquire(scope: u64, txn: TxnId, item: ItemId, mode: LockMode) {
    if trace::is_enabled() {
        trace::record(TraceEvent::LockAcquire {
            scope,
            item,
            txn,
            exclusive: mode == LockMode::Exclusive,
        });
    }
}

/// The per-site lock manager.
///
/// Every map is keyed by an id and hashed with the deterministic
/// [`repl_types::IdHasher`]. Lock states and held-item lists that fall
/// idle are kept, emptied but with their capacity, and reused, so an
/// uncontended grant and release allocate nothing once the site has
/// warmed up.
#[derive(Debug)]
pub struct LockManager {
    table: IdMap<ItemId, LockState>,
    /// Arrival ordinal and held items of every transaction that has made
    /// a request (or had its arrival set) and not yet released.
    txns: IdMap<TxnId, TxnLocks>,
    /// The single item each blocked transaction is waiting on.
    waiting_on: IdMap<TxnId, ItemId>,
    next_arrival: u64,
    /// Idle lock states, ready for reuse.
    spare_states: Vec<LockState>,
    /// Emptied held-item lists, ready for reuse.
    spare_held: Vec<Vec<ItemId>>,
    /// Identity of this lock manager in happens-before traces.
    trace_scope: u64,
}

impl Default for LockManager {
    fn default() -> Self {
        LockManager {
            table: IdMap::default(),
            txns: IdMap::default(),
            waiting_on: IdMap::default(),
            next_arrival: 0,
            spare_states: Vec::new(),
            spare_held: Vec::new(),
            trace_scope: trace::next_scope_id(),
        }
    }
}

impl LockManager {
    /// Create an empty lock manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// The scope identity under which this manager's lock events (and the
    /// owning store's slot accesses) appear in happens-before traces.
    pub fn trace_scope(&self) -> u64 {
        self.trace_scope
    }

    /// Register (or re-register) the arrival ordinal of `txn` explicitly.
    ///
    /// Used by the engine to keep a resubmitted secondary subtransaction's
    /// original arrival so the latest-arrival victim policy is fair to it.
    pub fn set_arrival(&mut self, txn: TxnId, ordinal: u64) {
        match self.txns.entry(txn) {
            Entry::Occupied(e) => e.into_mut().arrival = ordinal,
            Entry::Vacant(e) => {
                let held = self.spare_held.pop().unwrap_or_default();
                e.insert(TxnLocks { arrival: ordinal, held });
            }
        }
        self.next_arrival = self.next_arrival.max(ordinal + 1);
    }

    /// The arrival ordinal assigned to `txn`, if any.
    pub fn arrival_of(&self, txn: TxnId) -> Option<u64> {
        self.txns.get(&txn).map(|l| l.arrival)
    }

    /// Does `txn` hold a lock on `item` at least as strong as `mode`?
    pub fn holds(&self, txn: TxnId, item: ItemId, mode: LockMode) -> bool {
        match self.table.get(&item).and_then(|s| s.holder_mode(txn)) {
            Some(LockMode::Exclusive) => true,
            Some(LockMode::Shared) => mode == LockMode::Shared,
            None => false,
        }
    }

    /// The item `txn` is currently blocked on, if any.
    pub fn waiting_on(&self, txn: TxnId) -> Option<ItemId> {
        self.waiting_on.get(&txn).copied()
    }

    /// Current holders of locks on `item` (any mode).
    pub fn holders_of(&self, item: ItemId) -> Vec<TxnId> {
        self.table
            .get(&item)
            .map(|s| s.holders.iter().map(|(t, _)| *t).collect())
            .unwrap_or_default()
    }

    /// Items currently locked by `txn`.
    pub fn held_items(&self, txn: TxnId) -> &[ItemId] {
        self.txns.get(&txn).map(|l| l.held.as_slice()).unwrap_or(&[])
    }

    /// Number of transactions currently blocked.
    pub fn blocked_count(&self) -> usize {
        self.waiting_on.len()
    }

    /// Request `mode` on `item` for `txn`.
    ///
    /// Re-entrant: requesting a mode already covered by a held lock is an
    /// immediate grant; requesting X while holding S is an upgrade.
    pub fn request(&mut self, txn: TxnId, item: ItemId, mode: LockMode) -> LockOutcome {
        let (next_arrival, spare_held) = (&mut self.next_arrival, &mut self.spare_held);
        let locks = self.txns.entry(txn).or_insert_with(|| {
            let arrival = *next_arrival;
            *next_arrival += 1;
            TxnLocks { arrival, held: spare_held.pop().unwrap_or_default() }
        });
        debug_assert!(
            !self.waiting_on.contains_key(&txn),
            "transaction {txn:?} issued a lock request while already blocked"
        );
        let spare_states = &mut self.spare_states;
        let state =
            self.table.entry(item).or_insert_with(|| spare_states.pop().unwrap_or_default());
        match state.holder_mode(txn) {
            Some(LockMode::Exclusive) => LockOutcome::Granted,
            Some(LockMode::Shared) if mode == LockMode::Shared => LockOutcome::Granted,
            Some(LockMode::Shared) => {
                // Upgrade. Granted immediately iff sole holder; otherwise
                // the upgrade request jumps ahead of plain requests but
                // behind earlier upgrades.
                if state.holders.len() == 1 {
                    state.holders[0].1 = LockMode::Exclusive;
                    trace_acquire(self.trace_scope, txn, item, LockMode::Exclusive);
                    LockOutcome::Granted
                } else {
                    let pos = state.queue.iter().take_while(|r| r.upgrade).count();
                    state
                        .queue
                        .insert(pos, Request { txn, mode: LockMode::Exclusive, upgrade: true });
                    self.waiting_on.insert(txn, item);
                    LockOutcome::Queued
                }
            }
            None => {
                if state.queue.is_empty() && state.compatible(mode, txn) {
                    state.holders.push((txn, mode));
                    locks.held.push(item);
                    trace_acquire(self.trace_scope, txn, item, mode);
                    LockOutcome::Granted
                } else {
                    state.queue.push_back(Request { txn, mode, upgrade: false });
                    self.waiting_on.insert(txn, item);
                    LockOutcome::Queued
                }
            }
        }
    }

    /// Apply `edit` to the lock state of `item`, grant the queued
    /// requests it let through (appended to `granted`), and recycle the
    /// state once nothing holds or waits for the item.
    fn settle(
        &mut self,
        item: ItemId,
        granted: &mut Vec<TxnId>,
        edit: impl FnOnce(&mut LockState),
    ) {
        let Entry::Occupied(mut entry) = self.table.entry(item) else {
            return;
        };
        let state = entry.get_mut();
        edit(state);
        state.grant_queued(item, &mut self.txns, &mut self.waiting_on, self.trace_scope, granted);
        if state.is_idle() {
            self.spare_states.push(entry.remove());
        }
    }

    /// Release every lock held by `txn` (strict 2PL: called exactly once,
    /// at commit or abort) and drop any queued request it still has.
    ///
    /// Returns the transactions whose queued requests became granted.
    pub fn release_all(&mut self, txn: TxnId) -> Vec<TxnId> {
        // Cancelling a queued request can itself unblock later requests
        // (e.g. removing a queued X lets queued S requests through);
        // those grants must be reported too or the wakeup is lost.
        let mut granted = self.cancel_wait(txn);
        let Some(TxnLocks { mut held, .. }) = self.txns.remove(&txn) else {
            return granted;
        };
        for &item in &held {
            if trace::is_enabled() {
                trace::record(TraceEvent::LockRelease { scope: self.trace_scope, item, txn });
            }
            self.settle(item, &mut granted, |s| s.holders.retain(|(t, _)| *t != txn));
        }
        if held.capacity() > 0 {
            held.clear();
            self.spare_held.push(held);
        }
        granted
    }

    /// Remove `txn`'s queued request (used when a blocked transaction is
    /// aborted by timeout). Returns transactions unblocked as a side effect
    /// — removing a queued X request can let later S requests through.
    pub fn cancel_wait(&mut self, txn: TxnId) -> Vec<TxnId> {
        let mut granted = Vec::new();
        if let Some(item) = self.waiting_on.remove(&txn) {
            self.settle(item, &mut granted, |s| s.queue.retain(|r| r.txn != txn));
        }
        granted
    }

    /// Build the waits-for graph and search it for a cycle.
    ///
    /// A blocked transaction waits for (a) every current holder of the item
    /// it wants and (b) every request queued ahead of it — (b) is exact,
    /// not conservative, because grants are strictly FIFO-prefix. Returns
    /// the transactions forming one cycle, or `None`.
    ///
    /// The search starts from the waiters in ascending [`TxnId`] order, so
    /// the same lock state yields the same cycle (and victim) on every run.
    pub fn find_deadlock(&self) -> Option<Vec<TxnId>> {
        let mut waiters: Vec<(TxnId, ItemId)> =
            self.waiting_on.iter().map(|(&t, &i)| (t, i)).collect();
        waiters.sort_unstable();
        let node_of = |t: TxnId| waiters.binary_search_by_key(&t, |&(w, _)| w).ok();
        // Edges between waiters only: a cycle must consist entirely of
        // blocked transactions.
        let edges: Vec<Vec<usize>> = waiters
            .iter()
            .map(|&(waiter, item)| {
                let Some(state) = self.table.get(&item) else { return Vec::new() };
                let holders = state.holders.iter().map(|&(t, _)| t).filter(|&t| t != waiter);
                let ahead = state.queue.iter().map(|r| r.txn).take_while(|&t| t != waiter);
                holders.chain(ahead).filter_map(node_of).collect()
            })
            .collect();

        // Iterative DFS; the stack holds the grey path with each node's
        // next edge index.
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Grey,
            Black,
        }
        let mut color = vec![Color::White; waiters.len()];
        for start in 0..waiters.len() {
            if color[start] != Color::White {
                continue;
            }
            let mut stack = vec![(start, 0usize)];
            color[start] = Color::Grey;
            while let Some(&mut (node, ref mut edge_idx)) = stack.last_mut() {
                if let Some(&next) = edges[node].get(*edge_idx) {
                    *edge_idx += 1;
                    match color[next] {
                        Color::Grey => {
                            // Found a cycle: slice the grey path from next.
                            let pos = stack.iter().position(|&(n, _)| n == next)?;
                            return Some(stack[pos..].iter().map(|&(n, _)| waiters[n].0).collect());
                        }
                        Color::White => {
                            color[next] = Color::Grey;
                            stack.push((next, 0));
                        }
                        Color::Black => {}
                    }
                } else {
                    color[node] = Color::Black;
                    stack.pop();
                }
            }
        }
        None
    }

    /// Pick the deadlock victim from a cycle: the latest-arriving
    /// transaction (the paper's fair policy).
    pub fn pick_victim(&self, cycle: &[TxnId]) -> TxnId {
        *cycle
            .iter()
            .max_by_key(|t| self.arrival_of(**t).unwrap_or(u64::MAX))
            .expect("cycle is non-empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: u64) -> TxnId {
        TxnId(n)
    }
    fn i(n: u32) -> ItemId {
        ItemId(n)
    }

    #[test]
    fn shared_locks_coexist() {
        let mut lm = LockManager::new();
        assert_eq!(lm.request(t(1), i(1), LockMode::Shared), LockOutcome::Granted);
        assert_eq!(lm.request(t(2), i(1), LockMode::Shared), LockOutcome::Granted);
        assert!(lm.holds(t(1), i(1), LockMode::Shared));
        assert!(lm.holds(t(2), i(1), LockMode::Shared));
        assert!(!lm.holds(t(1), i(1), LockMode::Exclusive));
    }

    #[test]
    fn exclusive_blocks_everything() {
        let mut lm = LockManager::new();
        assert_eq!(lm.request(t(1), i(1), LockMode::Exclusive), LockOutcome::Granted);
        assert_eq!(lm.request(t(2), i(1), LockMode::Shared), LockOutcome::Queued);
        assert_eq!(lm.request(t(3), i(1), LockMode::Exclusive), LockOutcome::Queued);
        assert_eq!(lm.waiting_on(t(2)), Some(i(1)));

        let granted = lm.release_all(t(1));
        // FIFO: the shared request (first) is granted; the exclusive one
        // behind it must keep waiting.
        assert_eq!(granted, vec![t(2)]);
        assert!(lm.holds(t(2), i(1), LockMode::Shared));
        assert_eq!(lm.waiting_on(t(3)), Some(i(1)));
    }

    #[test]
    fn fifo_prevents_writer_starvation() {
        let mut lm = LockManager::new();
        lm.request(t(1), i(1), LockMode::Shared);
        lm.request(t(2), i(1), LockMode::Exclusive); // queued
                                                     // A later shared request must NOT jump the queued writer.
        assert_eq!(lm.request(t(3), i(1), LockMode::Shared), LockOutcome::Queued);
        let granted = lm.release_all(t(1));
        assert_eq!(granted, vec![t(2)]);
        assert!(lm.holds(t(2), i(1), LockMode::Exclusive));
        let granted = lm.release_all(t(2));
        assert_eq!(granted, vec![t(3)]);
    }

    #[test]
    fn reentrant_grants() {
        let mut lm = LockManager::new();
        lm.request(t(1), i(1), LockMode::Exclusive);
        assert_eq!(lm.request(t(1), i(1), LockMode::Shared), LockOutcome::Granted);
        assert_eq!(lm.request(t(1), i(1), LockMode::Exclusive), LockOutcome::Granted);
    }

    #[test]
    fn upgrade_sole_holder_immediate() {
        let mut lm = LockManager::new();
        lm.request(t(1), i(1), LockMode::Shared);
        assert_eq!(lm.request(t(1), i(1), LockMode::Exclusive), LockOutcome::Granted);
        assert!(lm.holds(t(1), i(1), LockMode::Exclusive));
    }

    #[test]
    fn upgrade_waits_for_other_readers_then_jumps_queue() {
        let mut lm = LockManager::new();
        lm.request(t(1), i(1), LockMode::Shared);
        lm.request(t(2), i(1), LockMode::Shared);
        // t3 queues a plain X request first.
        assert_eq!(lm.request(t(3), i(1), LockMode::Exclusive), LockOutcome::Queued);
        // t1's upgrade must be ordered ahead of t3's request.
        assert_eq!(lm.request(t(1), i(1), LockMode::Exclusive), LockOutcome::Queued);
        let granted = lm.release_all(t(2));
        assert_eq!(granted, vec![t(1)]);
        assert!(lm.holds(t(1), i(1), LockMode::Exclusive));
        // t3 still waits.
        assert_eq!(lm.waiting_on(t(3)), Some(i(1)));
    }

    #[test]
    fn double_upgrade_is_a_deadlock() {
        let mut lm = LockManager::new();
        lm.request(t(1), i(1), LockMode::Shared);
        lm.request(t(2), i(1), LockMode::Shared);
        assert_eq!(lm.request(t(1), i(1), LockMode::Exclusive), LockOutcome::Queued);
        assert_eq!(lm.request(t(2), i(1), LockMode::Exclusive), LockOutcome::Queued);
        let cycle = lm.find_deadlock().expect("double upgrade must deadlock");
        assert!(cycle.contains(&t(1)) && cycle.contains(&t(2)));
        // Latest arrival is t2.
        assert_eq!(lm.pick_victim(&cycle), t(2));
    }

    #[test]
    fn classic_two_txn_deadlock_detected() {
        let mut lm = LockManager::new();
        lm.request(t(1), i(1), LockMode::Exclusive);
        lm.request(t(2), i(2), LockMode::Exclusive);
        assert_eq!(lm.request(t(1), i(2), LockMode::Exclusive), LockOutcome::Queued);
        assert_eq!(lm.request(t(2), i(1), LockMode::Exclusive), LockOutcome::Queued);
        let cycle = lm.find_deadlock().expect("deadlock");
        assert_eq!(cycle.len(), 2);
    }

    #[test]
    fn no_false_deadlock_on_simple_waits() {
        let mut lm = LockManager::new();
        lm.request(t(1), i(1), LockMode::Exclusive);
        lm.request(t(2), i(1), LockMode::Exclusive);
        lm.request(t(3), i(1), LockMode::Shared);
        assert!(lm.find_deadlock().is_none());
    }

    #[test]
    fn three_txn_cycle() {
        let mut lm = LockManager::new();
        lm.request(t(1), i(1), LockMode::Exclusive);
        lm.request(t(2), i(2), LockMode::Exclusive);
        lm.request(t(3), i(3), LockMode::Exclusive);
        lm.request(t(1), i(2), LockMode::Exclusive);
        lm.request(t(2), i(3), LockMode::Exclusive);
        lm.request(t(3), i(1), LockMode::Exclusive);
        let cycle = lm.find_deadlock().expect("3-cycle");
        assert_eq!(cycle.len(), 3);
        assert_eq!(lm.pick_victim(&cycle), t(3));
    }

    #[test]
    fn cancel_wait_unblocks_followers() {
        let mut lm = LockManager::new();
        lm.request(t(1), i(1), LockMode::Shared);
        lm.request(t(2), i(1), LockMode::Exclusive); // queued
        lm.request(t(3), i(1), LockMode::Shared); // queued behind X
                                                  // Aborting the queued writer lets the reader through.
        let granted = lm.cancel_wait(t(2));
        assert_eq!(granted, vec![t(3)]);
        assert!(lm.holds(t(3), i(1), LockMode::Shared));
    }

    #[test]
    fn release_all_clears_everything() {
        let mut lm = LockManager::new();
        lm.request(t(1), i(1), LockMode::Exclusive);
        lm.request(t(1), i(2), LockMode::Shared);
        assert_eq!(lm.held_items(t(1)).len(), 2);
        lm.release_all(t(1));
        assert!(lm.held_items(t(1)).is_empty());
        assert!(!lm.holds(t(1), i(1), LockMode::Shared));
    }

    #[test]
    fn victim_respects_explicit_arrival() {
        let mut lm = LockManager::new();
        // Simulate a resubmitted secondary keeping an old arrival ordinal.
        lm.set_arrival(t(10), 0);
        lm.request(t(10), i(1), LockMode::Exclusive);
        lm.request(t(11), i(2), LockMode::Exclusive);
        lm.request(t(10), i(2), LockMode::Exclusive);
        lm.request(t(11), i(1), LockMode::Exclusive);
        let cycle = lm.find_deadlock().unwrap();
        assert_eq!(lm.pick_victim(&cycle), t(11));
    }

    #[test]
    fn deadlock_search_repeats_across_managers() {
        // Three disjoint 2-cycles: (T1,T2), (T3,T4), (T5,T6). Every fresh
        // manager fed the same requests must report the same cycle, the
        // one through the lowest waiting id, and so the same victim.
        let build = || {
            let mut lm = LockManager::new();
            for pair in 0..3u64 {
                let (a, b) = (t(2 * pair + 1), t(2 * pair + 2));
                let (x, y) = (i(2 * pair as u32), i(2 * pair as u32 + 1));
                lm.request(a, x, LockMode::Exclusive);
                lm.request(b, y, LockMode::Exclusive);
                assert_eq!(lm.request(a, y, LockMode::Exclusive), LockOutcome::Queued);
                assert_eq!(lm.request(b, x, LockMode::Exclusive), LockOutcome::Queued);
            }
            let cycle = lm.find_deadlock().expect("three deadlocks");
            let victim = lm.pick_victim(&cycle);
            (cycle, victim)
        };
        let first = build();
        assert_eq!(first, (vec![t(1), t(2)], t(2)));
        for _ in 0..50 {
            assert_eq!(build(), first);
        }
    }

    #[test]
    fn idle_lock_state_is_recycled() {
        let mut lm = LockManager::new();
        lm.request(t(1), i(1), LockMode::Exclusive);
        lm.release_all(t(1));
        assert!(lm.table.is_empty() && lm.txns.is_empty());
        assert_eq!((lm.spare_states.len(), lm.spare_held.len()), (1, 1));
        // The next uncontended transaction reuses both.
        lm.request(t(2), i(7), LockMode::Shared);
        assert_eq!((lm.spare_states.len(), lm.spare_held.len()), (0, 0));
        assert_eq!(lm.held_items(t(2)), &[i(7)]);
        assert_eq!(lm.holders_of(i(7)), vec![t(2)]);
    }

    #[test]
    fn blocked_count_tracks_waiters() {
        let mut lm = LockManager::new();
        lm.request(t(1), i(1), LockMode::Exclusive);
        assert_eq!(lm.blocked_count(), 0);
        lm.request(t(2), i(1), LockMode::Shared);
        assert_eq!(lm.blocked_count(), 1);
        lm.release_all(t(1));
        assert_eq!(lm.blocked_count(), 0);
    }
}
