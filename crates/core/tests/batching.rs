//! Hot-path batching tests for [`MessageQueue`]:
//!
//! * admission corner cases under batching — an oversized message still
//!   enters an *empty* queue, and `post_all` keeps per-message Figure 6-9
//!   drop-on-full semantics;
//! * `take_batch` count and byte budgets;
//! * the non-blocking producer API (`post_nowait` / `post_all_nowait`)
//!   and the edge-triggered space-listener wakeup that pool executors
//!   build their parked-output flushing on;
//! * a property test driving one random post/take schedule through the
//!   queue and through a small reference model of the byte-budget FIFO,
//!   requiring identical `PostResult`s, delivery order, byte accounting
//!   and final stats.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use mobigate_core::pool::{MessagePool, Payload, PayloadMode};
use mobigate_core::queue::{Notifier, QueueConfig, QueueStats};
use mobigate_core::{FetchResult, MessageQueue, PostResult};
use mobigate_mcl::ast::ChannelKind;
use mobigate_mime::{MimeMessage, MimeType};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

fn setup(cfg: QueueConfig) -> (Arc<MessageQueue>, Arc<MessagePool>) {
    let pool = Arc::new(MessagePool::new());
    let q = MessageQueue::new(cfg, pool.clone());
    (q, pool)
}

/// A payload whose body is `n` copies of `tag` — size drives admission,
/// the tag makes delivery order observable.
fn payload(pool: &MessagePool, n: usize, tag: u8) -> Payload {
    pool.wrap(
        MimeMessage::new(&MimeType::new("application", "octet-stream"), vec![tag; n]),
        PayloadMode::Reference,
        1,
    )
}

fn small_queue() -> QueueConfig {
    QueueConfig {
        capacity_bytes: 256,
        full_wait: Duration::from_millis(5),
        ..Default::default()
    }
}

#[test]
fn oversized_message_admitted_only_when_empty() {
    let (q, pool) = setup(small_queue());
    q.attach_source();
    q.attach_sink();
    // 4 KiB into a 256-byte queue: empty buffer admits it.
    assert_eq!(q.post(payload(&pool, 4096, 1)), PostResult::Posted);
    assert_eq!(q.len(), 1);
    // A second oversized message finds a non-empty queue and must wait
    // out `T`, then drop.
    assert_eq!(q.post(payload(&pool, 4096, 2)), PostResult::Dropped);
    assert_eq!(q.stats().dropped_full, 1);
    let batch = q.take_batch(16, usize::MAX);
    assert_eq!(batch.len(), 1);
    assert_eq!(
        pool.resolve(batch.into_iter().next().unwrap())
            .unwrap()
            .body[0],
        1
    );
}

/// Buffered wire length of an `n`-byte-body message (body + MIME
/// headers) — admission accounting is in wire bytes, not body bytes.
fn unit_len(pool: &MessagePool, n: usize) -> usize {
    let p = payload(pool, n, 0);
    let len = p.buffered_len(pool);
    pool.discard(p);
    len
}

#[test]
fn take_batch_respects_count_and_byte_budgets() {
    let (q, pool) = setup(QueueConfig::default());
    let unit = unit_len(&pool, 32);
    for tag in 0..8u8 {
        assert_eq!(q.post(payload(&pool, 32, tag)), PostResult::Posted);
    }
    // Count budget.
    assert_eq!(q.take_batch(3, usize::MAX).len(), 3);
    // Byte budget: room for exactly two messages, not three.
    assert_eq!(q.take_batch(16, 2 * unit).len(), 2);
    // The head is always taken even when it alone exceeds the budget.
    assert_eq!(q.take_batch(16, 1).len(), 1);
    assert_eq!(q.len(), 2);
}

#[test]
fn post_all_admits_prefix_then_drops_on_full() {
    let pool = Arc::new(MessagePool::new());
    let unit = unit_len(&pool, 100);
    // Budget for exactly two messages: #0 and #1 fit, #2 and #3 wait
    // out the shared 5 ms Figure 6-9 budget and drop.
    let q = MessageQueue::new(
        QueueConfig {
            capacity_bytes: 2 * unit,
            full_wait: Duration::from_millis(5),
            ..Default::default()
        },
        pool.clone(),
    );
    let batch: Vec<Payload> = (0..4).map(|tag| payload(&pool, 100, tag)).collect();
    let results = q.post_all(batch);
    assert_eq!(
        results,
        vec![
            PostResult::Posted,
            PostResult::Posted,
            PostResult::Dropped,
            PostResult::Dropped,
        ]
    );
    let stats = q.stats();
    assert_eq!(stats.posted, 2);
    assert_eq!(stats.dropped_full, 2);
    assert_eq!(q.buffered_bytes(), 2 * unit);
    // The pool reclaimed the dropped messages' references.
    assert_eq!(pool.stats().resident, 2);
}

#[test]
fn post_nowait_hands_payload_back_instead_of_waiting() {
    let (q, pool) = setup(small_queue());
    assert_eq!(
        q.post_nowait(payload(&pool, 200, 1)).unwrap(),
        PostResult::Posted
    );
    // Full: the payload comes straight back, nothing is dropped.
    let p = q.post_nowait(payload(&pool, 200, 2)).unwrap_err();
    assert_eq!(q.stats().dropped_full, 0);
    // Space frees up → the same payload is admitted.
    assert!(matches!(q.try_fetch(), FetchResult::Msg(_)));
    assert_eq!(q.post_nowait(p).unwrap(), PostResult::Posted);
}

#[test]
fn post_all_nowait_returns_fifo_leftovers() {
    let pool = Arc::new(MessagePool::new());
    let unit = unit_len(&pool, 100);
    let q = MessageQueue::new(
        QueueConfig {
            capacity_bytes: 2 * unit,
            full_wait: Duration::from_millis(5),
            ..Default::default()
        },
        pool.clone(),
    );
    let batch: Vec<Payload> = (0..5).map(|tag| payload(&pool, 100, tag)).collect();
    let (results, rest) = q.post_all_nowait(batch);
    // #0 and #1 fit; the tail comes back untouched, still in emission
    // order, so the caller's re-post preserves FIFO.
    assert_eq!(results, vec![PostResult::Posted, PostResult::Posted]);
    assert_eq!(rest.len(), 3);
    // Drain, re-post the leftovers, and confirm global order 0..5.
    let mut tags = Vec::new();
    for p in q.take_batch(16, usize::MAX) {
        tags.push(pool.resolve(p).unwrap().body[0]);
    }
    let (results2, rest2) = q.post_all_nowait(rest);
    assert_eq!(results2, vec![PostResult::Posted, PostResult::Posted]);
    assert_eq!(rest2.len(), 1);
    for p in q.take_batch(16, usize::MAX) {
        tags.push(pool.resolve(p).unwrap().body[0]);
    }
    for p in rest2 {
        assert_eq!(q.post_nowait(p).unwrap(), PostResult::Posted);
    }
    for p in q.take_batch(16, usize::MAX) {
        tags.push(pool.resolve(p).unwrap().body[0]);
    }
    assert_eq!(tags, vec![0, 1, 2, 3, 4]);
}

#[test]
fn space_listener_fires_on_pop_and_sink_close() {
    let (q, pool) = setup(small_queue());
    q.attach_source();
    q.attach_sink();
    let n = Arc::new(Notifier::new());
    q.add_space_listener(n.clone());
    assert_eq!(q.post(payload(&pool, 200, 1)), PostResult::Posted);
    // Posting never wakes the producer side.
    let before = n.snapshot();
    // A pop frees capacity → edge-triggered wake.
    assert!(matches!(q.try_fetch(), FetchResult::Msg(_)));
    assert_ne!(n.snapshot(), before, "pop must wake space listeners");
    // Closing the sink unblocks parked producers too (their flush will
    // discard into the pool instead of waiting for room).
    let before = n.snapshot();
    q.detach_sink().unwrap();
    assert_ne!(n.snapshot(), before, "sink close must wake space listeners");
    q.remove_space_listener(&n);
    q.attach_sink();
    assert_eq!(q.post(payload(&pool, 10, 2)), PostResult::Posted);
    let before = n.snapshot();
    assert!(matches!(q.try_fetch(), FetchResult::Msg(_)));
    assert_eq!(n.snapshot(), before, "removed listener stays quiet");
}

// ---------------------------------------------------------------------
// The queue against a reference model of the byte-budget FIFO.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Post one message of the given size (tagged with the op index).
    Post(usize),
    /// Take a batch bounded by `(max_n, max_bytes)`.
    Take(usize, usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Sizes 1..64 against a 200-byte budget make the byte budget the
    // binding constraint; the occasional 300-byte message exercises
    // oversized-into-empty admission. Arms repeat to weight the uniform
    // choice toward posts.
    prop_oneof![
        (1usize..64).prop_map(Op::Post),
        (1usize..64).prop_map(Op::Post),
        (1usize..64).prop_map(Op::Post),
        Just(Op::Post(300)),
        (1usize..6, 1usize..128).prop_map(|(n, b)| Op::Take(n, b)),
        (1usize..6, 1usize..128).prop_map(|(n, b)| Op::Take(n, b)),
    ]
}

/// Reference model of an async channel with `full_wait == 0`: a FIFO of
/// `(tag, wire length)` under a byte budget. An empty queue admits any
/// message; a non-empty one admits only within the budget and otherwise
/// drops at once (Figure 6-9 with `T = 0`). `take` pops up to `max_n`
/// entries, stopping before one that would push the batch past
/// `max_bytes` — except the first, which is always taken.
#[derive(Default)]
struct FifoModel {
    capacity: usize,
    queue: std::collections::VecDeque<(u8, usize)>,
    bytes: usize,
    stats: QueueStats,
}

impl FifoModel {
    fn post(&mut self, tag: u8, len: usize) -> PostResult {
        if !self.queue.is_empty() && self.bytes + len > self.capacity {
            self.stats.dropped_full += 1;
            return PostResult::Dropped;
        }
        self.queue.push_back((tag, len));
        self.bytes += len;
        self.stats.posted += 1;
        PostResult::Posted
    }

    fn take(&mut self, max_n: usize, max_bytes: usize) -> Vec<u8> {
        let mut out = Vec::new();
        let mut taken_bytes = 0usize;
        while out.len() < max_n {
            let Some(&(tag, len)) = self.queue.front() else {
                break;
            };
            if !out.is_empty() && taken_bytes + len > max_bytes {
                break;
            }
            self.queue.pop_front();
            self.bytes -= len;
            taken_bytes += len;
            out.push(tag);
        }
        self.stats.fetched += out.len() as u64;
        out
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, .. ProptestConfig::default() })]

    /// Under a single-threaded producer/consumer schedule the queue's
    /// observable behavior — admission decisions, delivery order, byte
    /// accounting, lifetime stats — is exactly the reference model's.
    #[test]
    fn queue_matches_fifo_model(ops in prop::collection::vec(op_strategy(), 0..120)) {
        let capacity = 200;
        let (q, pool) = setup(QueueConfig {
            capacity_bytes: capacity,
            full_wait: Duration::ZERO,
            kind: ChannelKind::Async,
            ..Default::default()
        });
        q.attach_source();
        q.attach_sink();
        let mut model = FifoModel { capacity, ..Default::default() };

        for (i, op) in ops.iter().enumerate() {
            match *op {
                Op::Post(size) => {
                    let p = payload(&pool, size, i as u8);
                    let len = p.buffered_len(&pool);
                    prop_assert_eq!(q.post(p), model.post(i as u8, len), "op {}", i);
                }
                Op::Take(max_n, max_bytes) => {
                    let got: Vec<u8> = q
                        .take_batch(max_n, max_bytes)
                        .into_iter()
                        .map(|p| pool.resolve(p).unwrap().body[0])
                        .collect();
                    prop_assert_eq!(got, model.take(max_n, max_bytes), "op {}", i);
                }
            }
            prop_assert_eq!(q.buffered_bytes(), model.bytes, "op {}", i);
        }
        prop_assert_eq!(q.len(), model.queue.len());
        prop_assert_eq!(q.stats(), model.stats);
        prop_assert_eq!(pool.stats().resident, model.queue.len());
    }
}
