//! The live workloads: a three-site `repld --reactor epoll` cluster,
//! driven open-loop by one generator thread on two client connections.
//!
//! The placement is Example 1.1 scaled to [`ITEMS`] items: even items
//! have their primary at s0 and replicas at s1 and s2, odd items their
//! primary at s1 and a replica at s2. Under DAG(WT) the propagation
//! tree is the chain s0 → s1 → s2. Connection 0 goes to s0, connection
//! 1 to the leaf s2.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use repl_copygraph::DataPlacement;
use repl_core::deploy::ReactorKind;
use repl_net::{encode_framed, ClientMsg, ClientReply, ExecError, FrameReader, WireMsg};
use repl_runtime::{repld_bin, LaunchOptions, ProcCluster, RuntimeProtocol};
use repl_types::{GlobalTxnId, ItemId, Op, SiteId};

use crate::rng::SplitMix;
use crate::sys;
use crate::trace::Spans;

/// Items in the scaled Example 1.1 placement.
pub const ITEMS: u32 = 10_000;
/// Operations per generated transaction.
pub const OPS: usize = 4;
/// Share of `live_read` transactions that update s0's primaries.
const READ_MIX_UPDATE_SHARE: f64 = 0.1;
/// How long to wait for the last replies of a step before counting the
/// rest as never answered.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);
/// Pause between a recency probe's reply that was still stale and the
/// next `Peek`, so polling the leaf does not crowd out its apply work.
const PROBE_GAP: Duration = Duration::from_micros(20);

/// Which transactions the generator sends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    /// 90% read-only transactions at s0 or s2, 10% updates at s0.
    Read,
    /// Only updates at s0; the s2 connection carries recency probes.
    Write,
}

/// The scaled Example 1.1 placement.
pub fn placement() -> DataPlacement {
    let mut p = DataPlacement::new(3);
    for i in 0..ITEMS {
        if i % 2 == 0 {
            p.add_item(SiteId(0), &[SiteId(1), SiteId(2)]);
        } else {
            p.add_item(SiteId(1), &[SiteId(2)]);
        }
    }
    p
}

/// One generated transaction: the connection it goes to and its ops.
#[derive(Clone, Debug, PartialEq)]
pub struct Txn {
    pub conn: usize,
    pub ops: Vec<Op>,
}

impl Txn {
    pub fn is_update(&self) -> bool {
        self.ops.iter().any(|o| o.is_write())
    }
}

/// The seeded transaction stream of a mix.
#[derive(Clone, Debug)]
pub struct Stream {
    mix: Mix,
    rng: SplitMix,
}

impl Stream {
    pub fn new(mix: Mix, seed: u64) -> Stream {
        Stream { mix, rng: SplitMix::new(seed) }
    }

    /// `OPS` distinct items: even ones (s0's copies) or any.
    fn items(&mut self, even_only: bool) -> Vec<ItemId> {
        let mut items: Vec<ItemId> = Vec::with_capacity(OPS);
        while items.len() < OPS {
            let item = if even_only {
                ItemId(2 * self.rng.below(u64::from(ITEMS / 2)) as u32)
            } else {
                ItemId(self.rng.below(u64::from(ITEMS)) as u32)
            };
            if !items.contains(&item) {
                items.push(item);
            }
        }
        items
    }

    pub fn next_txn(&mut self) -> Txn {
        let update = match self.mix {
            Mix::Write => true,
            Mix::Read => self.rng.unit() < READ_MIX_UPDATE_SHARE,
        };
        if update {
            let items = self.items(true);
            let ops = items
                .into_iter()
                .map(|i| Op::write(i, (self.rng.next() % 1_000_000) as i64))
                .collect();
            return Txn { conn: 0, ops };
        }
        let conn = (self.rng.next() % 2) as usize;
        Txn { conn, ops: self.items(conn == 0).into_iter().map(Op::read).collect() }
    }
}

/// What a reply on a client connection answers.
#[derive(Debug, PartialEq)]
pub enum Matched<T> {
    /// The oldest outstanding `Execute`, with its outcome.
    Txn(T, Result<GlobalTxnId, ExecError>),
    /// The outstanding `Peek`, with the writer of the copy it read.
    Probe(Option<GlobalTxnId>),
    /// A reply that answers nothing this connection sent.
    Unexpected(String),
}

/// Pairs replies with requests on one connection. `Execute`s are
/// answered in order, but a site answers a `Peek` as soon as it reads
/// it, ahead of any `Execute` still queued — so replies are matched by
/// kind: `Executed` to the oldest `Execute`, `Cell` to the one probe.
#[derive(Debug)]
pub struct ReplyMatcher<T> {
    execs: VecDeque<T>,
    probe: bool,
}

impl<T> ReplyMatcher<T> {
    pub fn new() -> Self {
        ReplyMatcher { execs: VecDeque::new(), probe: false }
    }

    pub fn sent_execute(&mut self, tag: T) {
        self.execs.push_back(tag);
    }

    pub fn sent_probe(&mut self) {
        debug_assert!(!self.probe, "one probe outstanding at a time");
        self.probe = true;
    }

    pub fn probe_outstanding(&self) -> bool {
        self.probe
    }

    pub fn outstanding(&self) -> usize {
        self.execs.len() + usize::from(self.probe)
    }

    pub fn on_reply(&mut self, reply: ClientReply) -> Matched<T> {
        match reply {
            ClientReply::Executed(result) => match self.execs.pop_front() {
                Some(tag) => Matched::Txn(tag, result),
                None => Matched::Unexpected("Executed with no Execute outstanding".into()),
            },
            ClientReply::Cell(cell) if self.probe => {
                self.probe = false;
                Matched::Probe(cell.and_then(|(_, writer)| writer))
            }
            other => Matched::Unexpected(format!("{other:?}")),
        }
    }
}

/// An `Execute` in flight.
#[derive(Debug)]
struct Sent {
    id: u64,
    due: Instant,
    /// The first item an update wrote (the recency probe's target).
    probe_item: Option<ItemId>,
}

struct Conn {
    stream: TcpStream,
    reader: FrameReader,
    wbuf: Vec<u8>,
    woff: usize,
    matcher: ReplyMatcher<Sent>,
}

impl Conn {
    fn open(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            reader: FrameReader::new(),
            wbuf: Vec::new(),
            woff: 0,
            matcher: ReplyMatcher::new(),
        })
    }

    fn flush(&mut self) -> io::Result<()> {
        while self.woff < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.woff..]) {
                Ok(0) => return Err(io::Error::new(io::ErrorKind::WriteZero, "site closed")),
                Ok(n) => self.woff += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if self.woff == self.wbuf.len() {
            self.wbuf.clear();
            self.woff = 0;
        }
        Ok(())
    }

    /// Read what the socket has; false once it is drained.
    fn fill(&mut self, scratch: &mut [u8]) -> io::Result<bool> {
        match self.stream.read(scratch) {
            Ok(0) => Err(io::Error::new(io::ErrorKind::UnexpectedEof, "site closed")),
            Ok(n) => {
                self.reader.feed(&scratch[..n]);
                Ok(true)
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(false),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(true),
            Err(e) => Err(e),
        }
    }
}

/// What one step of load produced.
#[derive(Debug, Default)]
pub struct StepResult {
    /// `Execute`s sent.
    pub sent: u64,
    /// Committed replies.
    pub ok: u64,
    /// `Err` or `Backpressure` replies, and unexpected frames.
    pub errors: u64,
    /// Requests never answered within the reply timeout.
    pub unanswered: u64,
    /// Commit latency of each committed transaction, timed from when it
    /// was due, in ms.
    pub latency_ms: Vec<f64>,
    /// How late each request was sent, in ms.
    pub late_ms: Vec<f64>,
    /// Commit reply at s0 until the leaf s2 shows the write, in ms.
    pub recency_ms: Vec<f64>,
    /// `Peek` probes sent.
    pub probes: u64,
    /// Update transactions committed.
    pub updates: u64,
    /// Seconds from the first due time to the last reply.
    pub span_s: f64,
    /// Summed replica backlog (`Stats.outstanding`) before and after.
    pub backlog_start: i64,
    pub backlog_end: i64,
    /// Request bytes encoded and reply bytes decoded.
    pub req_bytes: u64,
    pub reply_bytes: u64,
}

impl StepResult {
    pub fn failed(&self) -> u64 {
        self.errors + self.unanswered
    }

    /// Committed transactions per second over the step's span.
    pub fn achieved_rate(&self) -> f64 {
        if self.span_s > 0.0 {
            self.ok as f64 / self.span_s
        } else {
            0.0
        }
    }
}

/// A live cluster plus the generator's two connections.
pub struct Live {
    pub cluster: ProcCluster,
    conns: [Conn; 2],
    stream: Stream,
    next_id: u64,
    /// `Executed(Ok)` replies over the cluster's lifetime, the setup
    /// transaction included.
    pub acked: u64,
    /// Seconds from launch to the first committed transaction.
    pub setup_s: f64,
    /// Seconds `ProcCluster::launch_with_options` took.
    pub launch_s: f64,
}

/// Launch the cluster and commit one transaction through the control
/// session. The spawned `repld` binary sits next to this executable.
pub fn launch(mix: Mix, seed: u64) -> io::Result<Live> {
    let bin = repld_bin()?;
    let placement = placement();
    let opts = LaunchOptions { reactor: ReactorKind::Epoll, ..LaunchOptions::default() };
    let t0 = Instant::now();
    let cluster =
        ProcCluster::launch_with_options(&bin, &placement, RuntimeProtocol::DagWt, &opts)?;
    let launch_s = t0.elapsed().as_secs_f64();
    match cluster.execute(SiteId(0), vec![Op::write(ItemId(0), 1)])? {
        Ok(_) => {}
        Err(e) => return Err(io::Error::other(format!("setup transaction failed: {e:?}"))),
    }
    let setup_s = t0.elapsed().as_secs_f64();
    let conns = [Conn::open(&cluster.addrs()[0])?, Conn::open(&cluster.addrs()[2])?];
    Ok(Live {
        cluster,
        conns,
        stream: Stream::new(mix, seed),
        next_id: 0,
        acked: 1,
        setup_s,
        launch_s,
    })
}

impl Live {
    /// Summed `Stats.outstanding` over the sites: replica applies owed.
    pub fn backlog(&self) -> io::Result<i64> {
        let mut sum = 0;
        for s in 0..3 {
            sum += self.cluster.stats(SiteId(s))?.outstanding;
        }
        Ok(sum)
    }

    /// Offer `count` transactions at `rate` txn/s, open-loop, and wait
    /// for every reply. With `probes`, each update's commit at s0 that
    /// finds no probe running starts one: `Peek`s of its first item at
    /// s2 until the copy's writer is at or past the update.
    pub fn step(
        &mut self,
        rate: f64,
        count: u64,
        probes: bool,
        mut spans: Option<&mut Spans>,
    ) -> io::Result<StepResult> {
        let mut r = StepResult { backlog_start: self.backlog()?, ..StepResult::default() };
        let gap = Duration::from_secs_f64(1.0 / rate);
        let t0 = Instant::now() + Duration::from_micros(200);
        let give_up = t0 + gap * count as u32 + REPLY_TIMEOUT;
        let fds = [self.conns[0].stream.as_raw_fd(), self.conns[1].stream.as_raw_fd()];
        let mut scratch = vec![0u8; 64 * 1024];
        let mut k = 0u64;
        // The probed write: item, writer, when its commit reply arrived.
        let mut probe: Option<(ItemId, GlobalTxnId, Instant)> = None;
        let mut next_probe = t0;
        let mut last_reply = t0;
        loop {
            let now = Instant::now();
            while k < count {
                let due = t0 + gap * k as u32;
                if due > now {
                    break;
                }
                let txn = self.stream.next_txn();
                let id = self.next_id;
                self.next_id += 1;
                let msg = WireMsg::Client(ClientMsg::Execute(txn.ops.clone()));
                let enc_start = Instant::now();
                let frame = encode_framed(&msg);
                if let Some(s) = spans.as_deref_mut() {
                    s.record(id, "net.req_encode", enc_start, Instant::now());
                }
                r.req_bytes += frame.len() as u64;
                let conn = &mut self.conns[txn.conn];
                conn.wbuf.extend_from_slice(&frame);
                let probe_item = txn.is_update().then(|| txn.ops[0].item);
                conn.matcher.sent_execute(Sent { id, due, probe_item });
                r.late_ms.push(now.saturating_duration_since(due).as_secs_f64() * 1e3);
                r.sent += 1;
                k += 1;
            }
            if let Some((item, _, _)) = probe {
                if !self.conns[1].matcher.probe_outstanding() && now >= next_probe {
                    let frame = encode_framed(&WireMsg::Client(ClientMsg::Peek(item)));
                    self.conns[1].wbuf.extend_from_slice(&frame);
                    self.conns[1].matcher.sent_probe();
                    r.probes += 1;
                }
            }
            for c in &mut self.conns {
                c.flush()?;
            }
            for ci in 0..2 {
                while self.conns[ci].fill(&mut scratch)? {}
                let at = Instant::now();
                loop {
                    let buffered = self.conns[ci].reader.buffered();
                    let dec_start = Instant::now();
                    let msg = self.conns[ci].reader.next_msg();
                    let dec_end = Instant::now();
                    r.reply_bytes += (buffered - self.conns[ci].reader.buffered()) as u64;
                    let reply = match msg {
                        Ok(Some(WireMsg::Reply(reply))) => reply,
                        Ok(None) => break,
                        Ok(Some(other)) => {
                            return Err(io::Error::other(format!("unexpected frame {other:?}")))
                        }
                        Err(e) => return Err(io::Error::other(format!("reply decode: {e}"))),
                    };
                    last_reply = at;
                    match self.conns[ci].matcher.on_reply(reply) {
                        Matched::Txn(sent, Ok(gid)) => {
                            if let Some(s) = spans.as_deref_mut() {
                                s.record(sent.id, "net.reply_decode", dec_start, dec_end);
                            }
                            r.ok += 1;
                            self.acked += 1;
                            r.latency_ms
                                .push(at.saturating_duration_since(sent.due).as_secs_f64() * 1e3);
                            if let Some(item) = sent.probe_item {
                                r.updates += 1;
                                if probes && probe.is_none() && k < count {
                                    probe = Some((item, gid, at));
                                    next_probe = at;
                                }
                            }
                        }
                        Matched::Txn(_, Err(_)) | Matched::Unexpected(_) => r.errors += 1,
                        Matched::Probe(writer) => {
                            if let Some((_, gid, since)) = probe {
                                if writer >= Some(gid) {
                                    r.recency_ms.push(
                                        at.saturating_duration_since(since).as_secs_f64() * 1e3,
                                    );
                                    probe = None;
                                } else {
                                    next_probe = at + PROBE_GAP;
                                }
                            }
                        }
                    }
                }
            }
            let pending: usize = self.conns.iter().map(|c| c.matcher.outstanding()).sum();
            if k == count && pending == 0 && probe.is_none() {
                break;
            }
            let now = Instant::now();
            if now >= give_up {
                r.unanswered = pending as u64;
                break;
            }
            let mut wake = if k < count { t0 + gap * k as u32 } else { give_up };
            if probe.is_some() && !self.conns[1].matcher.probe_outstanding() {
                wake = wake.min(next_probe);
            }
            let mut timeout = wake.saturating_duration_since(now).min(Duration::from_millis(5));
            if self.conns.iter().any(|c| c.woff < c.wbuf.len()) {
                timeout = timeout.min(Duration::from_micros(50));
            }
            if !timeout.is_zero() {
                sys::wait_readable(&fds, timeout);
            }
        }
        r.span_s = last_reply.saturating_duration_since(t0).as_secs_f64();
        r.backlog_end = self.backlog()?;
        Ok(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use repl_types::Value;

    fn gid(seq: u64) -> GlobalTxnId {
        GlobalTxnId::new(SiteId(0), seq)
    }

    #[test]
    fn probe_reply_overtakes_queued_executes() {
        let mut m = ReplyMatcher::new();
        m.sent_execute(1u64);
        m.sent_execute(2u64);
        m.sent_probe();
        // The site answers the Peek first: it is not queued behind the
        // two Executes.
        let cell = ClientReply::Cell(Some((Value::int(5), Some(gid(9)))));
        assert_eq!(m.on_reply(cell), Matched::Probe(Some(gid(9))));
        assert!(!m.probe_outstanding());
        assert_eq!(m.on_reply(ClientReply::Executed(Ok(gid(1)))), Matched::Txn(1, Ok(gid(1))));
        assert_eq!(
            m.on_reply(ClientReply::Executed(Err(ExecError::Disconnected))),
            Matched::Txn(2, Err(ExecError::Disconnected))
        );
        assert_eq!(m.outstanding(), 0);
    }

    #[test]
    fn replies_that_answer_nothing_are_unexpected() {
        let mut m: ReplyMatcher<u64> = ReplyMatcher::new();
        assert!(matches!(m.on_reply(ClientReply::Executed(Ok(gid(1)))), Matched::Unexpected(_)));
        // A Cell with no probe outstanding answers nothing either.
        assert!(matches!(m.on_reply(ClientReply::Cell(None)), Matched::Unexpected(_)));
        m.sent_probe();
        assert_eq!(m.on_reply(ClientReply::Cell(None)), Matched::Probe(None));
    }

    #[test]
    fn streams_are_seeded_and_respect_ownership() {
        let a: Vec<Txn> = {
            let mut s = Stream::new(Mix::Read, 7);
            (0..200).map(|_| s.next_txn()).collect()
        };
        let b: Vec<Txn> = {
            let mut s = Stream::new(Mix::Read, 7);
            (0..200).map(|_| s.next_txn()).collect()
        };
        assert_eq!(a, b);
        let p = placement();
        for t in &a {
            let site = if t.conn == 0 { SiteId(0) } else { SiteId(2) };
            assert_eq!(t.ops.len(), OPS);
            for op in &t.ops {
                if op.is_write() {
                    assert_eq!(p.primary_of(op.item), site);
                } else {
                    assert!(p.has_copy(site, op.item));
                }
            }
        }
        assert!(a.iter().any(|t| t.is_update()) && a.iter().any(|t| !t.is_update()));
        let mut w = Stream::new(Mix::Write, 7);
        assert!((0..50).all(|_| w.next_txn().is_update()));
    }
}
