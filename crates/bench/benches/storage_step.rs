//! Criterion microbenches for the storage engine's transaction step:
//! 2PL locked reads vs lock-free MVCC snapshot reads, read-write mixes,
//! the live placement's 4-op transactions on a 10 000-item store, and the
//! group-commit pipeline at batch sizes 1/8/64.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use repl_storage::{CommitPipeline, Store, WriteAheadLog};
use repl_types::{GlobalTxnId, ItemId, SiteId, Value};

const ITEMS: u32 = 200;
const OPS: u32 = 8;
/// Items in the live placement (Example 1.1 scaled up).
const LIVE_ITEMS: u32 = 10_000;
/// Operations per live transaction.
const LIVE_OPS: u32 = 4;

fn store() -> Store {
    store_of(ITEMS)
}

fn store_of(items: u32) -> Store {
    let mut s = Store::new();
    for i in 0..items {
        s.create_item(ItemId(i), Value::Initial);
    }
    s
}

/// The `k`-th item of live transaction `seq`: spread over the whole
/// store, a different set each transaction.
fn live_item(seq: u64, k: u32) -> ItemId {
    ItemId(((seq * 4 + k as u64) * 2_654_435_761 % LIVE_ITEMS as u64) as u32)
}

fn gid(seq: u64) -> GlobalTxnId {
    GlobalTxnId::new(SiteId(0), seq)
}

/// Read-only transactions, 2PL path: S-lock each item, commit releases.
fn bench_read_2pl(c: &mut Criterion) {
    let mut s = store();
    c.bench_function("storage_step/read_only_2pl_8ops", |b| {
        b.iter(|| {
            let t = s.begin();
            for i in 0..OPS {
                s.read(t, ItemId(i * 7 % ITEMS)).unwrap();
            }
            s.commit(t).unwrap()
        })
    });
}

/// The same read-only transactions on the MVCC path: snapshot in, 8
/// version-chain lookups, snapshot out — no lock manager anywhere.
fn bench_read_mvcc(c: &mut Criterion) {
    let mut s = store();
    c.bench_function("storage_step/read_only_mvcc_8ops", |b| {
        b.iter(|| {
            let snap = s.begin_snapshot();
            let mut acc = 0u64;
            for i in 0..OPS {
                acc +=
                    s.read_snapshot(snap, ItemId(i * 7 % ITEMS)).unwrap().writer.is_some() as u64;
            }
            s.end_snapshot(snap);
            acc
        })
    });
}

/// A mixed transaction (half reads, half writes) on the 2PL path — the
/// write stream both protocols share.
fn bench_mixed_2pl(c: &mut Criterion) {
    let mut s = store();
    let mut seq = 0u64;
    c.bench_function("storage_step/mixed_2pl_8ops", |b| {
        b.iter(|| {
            seq += 1;
            let t = s.begin();
            for i in 0..OPS / 2 {
                s.read(t, ItemId((i * 7 + 1) % ITEMS)).unwrap();
            }
            for i in 0..OPS / 2 {
                s.write(t, ItemId(i * 13 % ITEMS), Value::int(seq as i64), gid(seq)).unwrap();
            }
            s.commit(t).unwrap()
        })
    });
}

/// MVCC reads racing a committed-write history: version chains hold a
/// few versions per item, so the binary search is exercised.
fn bench_read_mvcc_versioned(c: &mut Criterion) {
    let mut s = store();
    // Lay down 8 committed versions of every item with a snapshot pinned
    // at each depth, so the chains stay populated.
    let mut pins = Vec::new();
    for round in 0..8u64 {
        pins.push(s.begin_snapshot());
        let t = s.begin();
        for i in 0..ITEMS {
            s.write(t, ItemId(i), Value::int(round as i64), gid(round + 1)).unwrap();
        }
        s.commit(t).unwrap();
    }
    c.bench_function("storage_step/read_mvcc_8deep_chains", |b| {
        b.iter(|| {
            let snap = s.begin_snapshot();
            let mut acc = 0u64;
            for i in 0..OPS {
                acc +=
                    s.read_snapshot(snap, ItemId(i * 7 % ITEMS)).unwrap().writer.is_some() as u64;
            }
            s.end_snapshot(snap);
            acc
        })
    });
    for p in pins {
        s.end_snapshot(p);
    }
}

/// The live workloads' transactions on a 10 000-item store: 4 writes
/// and a commit (an update at s0, or a replica apply), and 4 reads and a
/// commit (a read-only transaction under 2PL).
fn bench_live_shape(c: &mut Criterion) {
    let mut s = store_of(LIVE_ITEMS);
    let mut seq = 0u64;
    c.bench_function("storage_step/live_4writes_commit", |b| {
        b.iter(|| {
            seq += 1;
            let t = s.begin();
            for k in 0..LIVE_OPS {
                s.write(t, live_item(seq, k), Value::int(seq as i64), gid(seq)).unwrap();
            }
            s.commit(t).unwrap()
        })
    });
    c.bench_function("storage_step/live_4reads_commit", |b| {
        b.iter(|| {
            seq += 1;
            let t = s.begin();
            for k in 0..LIVE_OPS {
                s.read(t, live_item(seq, k)).unwrap();
            }
            s.commit(t).unwrap()
        })
    });
}

/// The group-commit pipeline: 64 commits through batch sizes 1/8/64,
/// measuring the enqueue + flush path into the WAL.
fn bench_commit_pipeline(c: &mut Criterion) {
    for batch in [1usize, 8, 64] {
        c.bench_function(&format!("storage_step/group_commit_batch{batch}"), |b| {
            b.iter_batched(
                || (CommitPipeline::new(batch), WriteAheadLog::new()),
                |(mut pipe, mut wal)| {
                    for seq in 0..64u64 {
                        let writes = vec![(ItemId((seq % 200) as u32), Value::int(seq as i64))];
                        if pipe.enqueue(gid(seq + 1), writes) {
                            pipe.flush(&mut wal);
                        }
                    }
                    pipe.flush(&mut wal);
                    wal.len()
                },
                BatchSize::SmallInput,
            )
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_read_2pl, bench_read_mvcc, bench_mixed_2pl, bench_read_mvcc_versioned,
        bench_live_shape, bench_commit_pipeline
}
criterion_main!(benches);
