//! The layer replay: a seeded transaction stream fed serially, in
//! command order, through `Store`, `WriteAheadLog`,
//! `SiteMachine::on_input` and `encode_framed`/`FrameReader`, the way
//! the protocol crate's `protocol_step` bench drives its machines.
//! Every call is a span, so each layer's self time can be read off.

use std::collections::VecDeque;
use std::sync::Arc;

use repl_copygraph::{CopyGraph, DataPlacement, PropagationTree};
use repl_net::{encode_framed, FrameReader, WireMsg};
use repl_protocol::{Command, Input, Payload, ProtocolId, SiteMachine};
use repl_storage::{Store, WriteAheadLog};
use repl_types::{GlobalTxnId, ItemId, Op, OpKind, SiteId, Value};

use crate::trace::Spans;

/// Work counted while replaying.
#[derive(Debug, Default)]
pub struct Counts {
    pub txns: u64,
    pub inputs: u64,
    pub commands: u64,
    /// `Send` and `SendBatch` commands.
    pub sends: u64,
    /// Link frames encoded (one per send).
    pub frames: u64,
    pub link_bytes: u64,
    /// Locks held by each primary transaction at commit, summed.
    pub locks: u64,
    /// Bytes of WAL records written, summed over sites.
    pub wal_bytes: u64,
    /// Store, machine or codec calls that returned an error.
    pub errors: u64,
}

/// The transaction a call serves, and its root span.
#[derive(Clone, Copy)]
struct Cx {
    id: u64,
    root: usize,
}

/// DAG(WT) sites, each with a machine, a store, a WAL and the frame
/// reader of its incoming links, routed over the chain tree the runtime
/// builds.
pub struct Replay<'a> {
    machines: Vec<SiteMachine>,
    stores: Vec<Store>,
    wals: Vec<WriteAheadLog>,
    readers: Vec<FrameReader>,
    /// Next link sequence number, per (from, to).
    link_seq: Vec<Vec<u64>>,
    next_gid: Vec<u64>,
    spans: &'a mut Spans,
    counts: Counts,
}

impl<'a> Replay<'a> {
    pub fn new(placement: &DataPlacement, spans: &'a mut Spans) -> Replay<'a> {
        let graph = CopyGraph::from_placement(placement);
        let tree = PropagationTree::chain(&graph).expect("replayed placements are DAGs");
        let n = placement.num_sites() as usize;
        let placement = Arc::new(placement.clone());
        let (graph, tree) = (Arc::new(graph), Some(Arc::new(tree)));
        let machines = (0..n)
            .map(|s| {
                let site = SiteId(s as u32);
                SiteMachine::new(
                    site,
                    ProtocolId::DagWt,
                    placement.clone(),
                    graph.clone(),
                    tree.clone(),
                )
                .expect("DAG(WT) has its tree")
            })
            .collect();
        let mut stores: Vec<Store> = (0..n).map(|_| Store::new()).collect();
        for item in placement.items() {
            stores[placement.primary_of(item).index()].create_item(item, Value::Initial);
            for &r in placement.replicas_of(item) {
                stores[r.index()].create_item(item, Value::Initial);
            }
        }
        Replay {
            machines,
            stores,
            wals: (0..n).map(|_| WriteAheadLog::new()).collect(),
            readers: (0..n).map(|_| FrameReader::new()).collect(),
            link_seq: vec![vec![1; n]; n],
            next_gid: vec![1; n],
            spans,
            counts: Counts::default(),
        }
    }

    /// Replay `stream`; transaction `j` of it gets span id `first_id + j`.
    pub fn run(mut self, stream: &[(SiteId, Vec<Op>)], first_id: u64) -> Counts {
        for (j, (site, ops)) in stream.iter().enumerate() {
            self.txn(first_id + j as u64, *site, ops);
        }
        self.counts.wal_bytes = self.wals.iter().map(|w| w.encode().len() as u64 - 8).sum();
        self.counts
    }

    fn txn(&mut self, id: u64, site: SiteId, ops: &[Op]) {
        self.counts.txns += 1;
        let cx = Cx { id, root: self.spans.open(id, "replay.txn", None) };
        let s = site.index();
        let gid = GlobalTxnId::new(site, self.next_gid[s]);
        self.next_gid[s] += 1;
        let mut writes: Vec<(ItemId, Value)> = Vec::new();
        for op in ops.iter().filter(|o| o.kind == OpKind::Write) {
            writes.retain(|(i, _)| *i != op.item);
            writes.push((op.item, op.value.clone()));
        }
        if !self.drive(cx, s, Input::CommitIntent { gid, writes: writes.clone() }, gid) {
            self.counts.errors += 1;
            self.spans.close(cx.root);
            return;
        }
        let exec = self.spans.open(id, "storage.exec", Some(cx.root));
        let store = &mut self.stores[s];
        let t = store.begin();
        let mut ok = true;
        for op in ops {
            ok &= match op.kind {
                OpKind::Read => store.read(t, op.item).is_ok(),
                OpKind::Write => store.write(t, op.item, op.value.clone(), gid).is_ok(),
            };
        }
        self.counts.locks += store.locks().held_items(t).len() as u64;
        ok &= store.commit(t).is_ok();
        self.spans.close(exec);
        self.counts.errors += u64::from(!ok);
        if !writes.is_empty() {
            let wal = self.spans.open(id, "storage.wal_append", Some(cx.root));
            self.wals[s].append_commit(gid, &writes);
            self.spans.close(wal);
        }
        self.drive(cx, s, Input::Committed { gid, writes }, gid);
        self.spans.close(cx.root);
    }

    /// Feed `input` to site `s` and carry out every command it leads
    /// to, depth-first, as the runtime's `run_commands` does. Returns
    /// whether `gid` was cleared to commit (`CommitLocal`).
    fn drive(&mut self, cx: Cx, s: usize, input: Input, gid: GlobalTxnId) -> bool {
        let mut home = false;
        let mut work: VecDeque<(usize, Input)> = VecDeque::from([(s, input)]);
        while let Some((at, input)) = work.pop_front() {
            let span = self.spans.open(cx.id, "protocol.on_input", Some(cx.root));
            let result = self.machines[at].on_input(input);
            self.spans.close(span);
            self.counts.inputs += 1;
            let Ok(cmds) = result else {
                self.counts.errors += 1;
                continue;
            };
            self.counts.commands += cmds.len() as u64;
            let mut next: Vec<(usize, Input)> = Vec::new();
            let from = SiteId(at as u32);
            for cmd in cmds {
                match cmd {
                    Command::CommitLocal { gid: g } => home |= g == gid,
                    Command::Apply { gid, writes } => {
                        self.apply(cx, at, gid, &writes);
                        next.push((at, Input::Applied { gid }));
                    }
                    Command::ApplyMany { subs } => {
                        for (gid, writes) in subs {
                            self.apply(cx, at, gid, &writes);
                            next.push((at, Input::Applied { gid }));
                        }
                    }
                    Command::Prepare { gid, .. } => next.push((at, Input::Prepared { gid })),
                    Command::CommitPrepared { gid, writes } => self.apply(cx, at, gid, &writes),
                    Command::AbortPrepared { .. } | Command::ArmEagerTimeout { .. } => {}
                    Command::Send { to, payload } => {
                        for payload in self.ship(cx, at, to, vec![payload]) {
                            next.push((to.index(), Input::Deliver { from, payload }));
                        }
                    }
                    Command::SendBatch { to, payloads } => {
                        for payload in self.ship(cx, at, to, payloads) {
                            next.push((to.index(), Input::Deliver { from, payload }));
                        }
                    }
                }
            }
            for n in next.into_iter().rev() {
                work.push_front(n);
            }
        }
        home
    }

    /// Commit `writes` at replica `s` as one store transaction plus its
    /// WAL record, as the runtime's replica apply does.
    fn apply(&mut self, cx: Cx, s: usize, gid: GlobalTxnId, writes: &[(ItemId, Value)]) {
        if writes.is_empty() {
            return;
        }
        let span = self.spans.open(cx.id, "storage.apply", Some(cx.root));
        let store = &mut self.stores[s];
        let t = store.begin();
        let mut ok = true;
        for (item, value) in writes {
            ok &= store.write(t, *item, value.clone(), gid).is_ok();
        }
        ok &= store.commit(t).is_ok();
        let wal = self.spans.open(cx.id, "storage.wal_append", Some(span));
        self.wals[s].append_commit(gid, writes);
        self.spans.close(wal);
        self.spans.close(span);
        self.counts.errors += u64::from(!ok);
    }

    /// One link frame from `from` to `to` carrying `payloads`: encoded,
    /// then decoded by the receiver's frame reader.
    fn ship(&mut self, cx: Cx, from: usize, to: SiteId, payloads: Vec<Payload>) -> Vec<Payload> {
        self.counts.sends += 1;
        let seq = self.link_seq[from][to.index()];
        self.link_seq[from][to.index()] += payloads.len() as u64;
        let msg = match <[Payload; 1]>::try_from(payloads) {
            Ok([payload]) => WireMsg::Link { seq, payload },
            Err(payloads) => WireMsg::Batch { first_seq: seq, payloads },
        };
        let enc = self.spans.open(cx.id, "net.link_encode", Some(cx.root));
        let frame = encode_framed(&msg);
        self.spans.close(enc);
        self.counts.frames += 1;
        self.counts.link_bytes += frame.len() as u64;
        let dec = self.spans.open(cx.id, "net.link_decode", Some(cx.root));
        let reader = &mut self.readers[to.index()];
        reader.feed(&frame);
        let decoded = reader.next_msg();
        self.spans.close(dec);
        match decoded {
            Ok(Some(WireMsg::Link { payload, .. })) => vec![payload],
            Ok(Some(WireMsg::Batch { payloads, .. })) => payloads,
            _ => {
                self.counts.errors += 1;
                Vec::new()
            }
        }
    }
}
