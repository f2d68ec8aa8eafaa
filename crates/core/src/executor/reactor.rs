//! The reactor back end: per-worker run queues with work stealing.
//!
//! [`Reactor`] multiplexes any number of streamlet tasks over a fixed set
//! of workers, like [`super::WorkerPool`], but replaces the single shared
//! run queue with one local queue per worker plus a global injector:
//!
//! * **Wakers, not threads.** A task blocked on input or output holds no
//!   thread — its [`crate::queue::Notifier`] sits on the queue's listener
//!   (or space-listener) list, and the edge-triggered wake hook re-queues
//!   the task when the queue transitions. Idle sessions therefore cost
//!   zero threads and one queue-table entry each.
//! * **Locality.** A wake fired *from* a reactor worker (the common case:
//!   an upstream pump posting downstream) lands on that worker's own
//!   local queue — the task's input bytes are already warm in that core's
//!   cache. Wakes from foreign threads (ingress, control plane) land on
//!   the shared injector.
//! * **Stealing.** A worker with an empty local queue drains the injector,
//!   then steals the *oldest* task from a sibling's queue (front-steal:
//!   FIFO order is preserved globally, so one hot session cannot starve
//!   cold sessions parked behind it — they get stolen away instead). The
//!   scan starts at the last victim and covers every sibling, so a worker
//!   can steal from the same sibling again and again.
//! * **Quantum.** Each pump drives one task — one fused unit after the
//!   PR 5 fusion pass — for at most [`super::PUMP_BATCH`] messages before
//!   it is requeued behind its siblings, the same cooperative budget the
//!   worker pool uses.
//!
//! **Who is woken, and when.** A push wakes a sleeping worker only when
//! it creates work the pusher will not run next: an injector push (from a
//! foreign thread), or a push onto the pusher's own local queue when that
//! queue already held a task (surplus). The first task on a worker's own
//! empty queue wakes nobody — that worker pops it next, and a woken
//! sibling would only find nothing and park again. If the worker instead
//! stalls in a slow `process`, the task waits at most one
//! [`PARK_TIMEOUT`]: every park is timed, and a worker that wakes from it
//! steals the task.
//!
//! Sleep/wake uses a Dekker-style handshake: a parking worker bumps the
//! sleeper count (SeqCst RMW), re-checks every queue, and only then
//! waits; a producer makes its enqueue visible, runs a SeqCst fence, and
//! reads the sleeper count — so either the producer sees the sleeper and
//! takes the sleep lock to notify, or the parker sees the enqueue and
//! never sleeps. The parker holds the sleep lock from its re-check into
//! the wait, which is what the shim condvar's waiter count relies on.

use super::{pump_and_reschedule, Executor, ExecutorStats, WorkerStats};
use crate::streamlet::StreamletTask;
use parking_lot::{Condvar, Mutex};
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Bound on one park. The handshake below never loses a wake for surplus
/// or injected work, so this bounds only how long a task pushed onto a
/// worker's own empty queue waits when that worker stalls in `process`
/// (see the module docs) — after that a sibling steals it.
const PARK_TIMEOUT: Duration = Duration::from_millis(100);

/// Process-wide reactor instance ids, so a worker of one reactor never
/// pushes onto the local queue of a same-indexed worker of another.
static REACTOR_IDS: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// `(reactor id, worker index)` when the current thread is a reactor
    /// worker; wake hooks use it to pick the local queue over the injector.
    static CURRENT_WORKER: Cell<Option<(u64, usize)>> = const { Cell::new(None) };
}

/// One worker's run queue plus its scheduler counters.
struct LocalQueue {
    deque: Mutex<VecDeque<Arc<StreamletTask>>>,
    /// Mirror of `deque.len()`, so thieves and the park re-check can probe
    /// emptiness without taking the lock.
    len: AtomicUsize,
    pumps: AtomicU64,
    steals: AtomicU64,
    parks: AtomicU64,
}

impl LocalQueue {
    fn new() -> Self {
        LocalQueue {
            deque: Mutex::new(VecDeque::new()),
            len: AtomicUsize::new(0),
            pumps: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            parks: AtomicU64::new(0),
        }
    }

    /// Appends `task` and returns the queue's new length.
    fn push(&self, task: Arc<StreamletTask>) -> usize {
        let mut d = self.deque.lock();
        d.push_back(task);
        self.len.store(d.len(), Ordering::Release);
        d.len()
    }

    /// Pops the oldest task. Used both by the owning worker and by thieves
    /// (front-steal keeps global FIFO order — see module docs).
    fn pop_front(&self) -> Option<Arc<StreamletTask>> {
        if self.len.load(Ordering::Acquire) == 0 {
            return None;
        }
        let mut d = self.deque.lock();
        let task = d.pop_front();
        self.len.store(d.len(), Ordering::Release);
        task
    }
}

struct ReactorState {
    id: u64,
    locals: Vec<LocalQueue>,
    /// Overflow queue for wakes arriving from non-worker threads.
    injector: Mutex<VecDeque<Arc<StreamletTask>>>,
    injector_len: AtomicUsize,
    sleep: Mutex<()>,
    cv: Condvar,
    sleepers: AtomicUsize,
    stop: AtomicBool,
}

impl ReactorState {
    /// Enqueues `task` unless it is already queued or being pumped —
    /// the same never-lose-a-wakeup gate as the worker pool.
    fn schedule(&self, task: Arc<StreamletTask>) {
        if !task.try_mark_scheduled() {
            return;
        }
        match CURRENT_WORKER.with(Cell::get) {
            Some((rid, idx)) if rid == self.id => {
                if self.locals[idx].push(task) == 1 {
                    // The only task on this worker's own queue: the worker
                    // pops it next, cache-warm, so a woken sibling would
                    // find nothing. Should the worker stall in `process`
                    // instead, a sibling's timed park (`PARK_TIMEOUT`)
                    // steals the task.
                    return;
                }
            }
            _ => {
                let mut inj = self.injector.lock();
                inj.push_back(task);
                self.injector_len.store(inj.len(), Ordering::Release);
            }
        }
        // Surplus work (or an injector push): wake a sleeper. Dekker
        // producer side: enqueue first, fence, then read the sleeper
        // count. Taking the sleep lock before notifying closes the
        // register-to-wait gap on the parker side.
        fence(Ordering::SeqCst);
        if self.sleepers.load(Ordering::Relaxed) > 0 {
            let _guard = self.sleep.lock();
            self.cv.notify_one();
        }
    }

    /// Own local queue, then the injector, then steal the oldest task
    /// from a sibling. The scan starts at the last victim (`rr`) and covers
    /// every sibling, so a worker keeps stealing from whoever holds work.
    fn next_task(&self, idx: usize, rr: &mut usize) -> Option<Arc<StreamletTask>> {
        if let Some(task) = self.locals[idx].pop_front() {
            return Some(task);
        }
        if self.injector_len.load(Ordering::Acquire) > 0 {
            let mut inj = self.injector.lock();
            if let Some(task) = inj.pop_front() {
                self.injector_len.store(inj.len(), Ordering::Release);
                return Some(task);
            }
        }
        let n = self.locals.len();
        for off in 0..n {
            let victim = (*rr + off) % n;
            if victim == idx {
                continue;
            }
            if let Some(task) = self.locals[victim].pop_front() {
                *rr = victim;
                self.locals[idx].steals.fetch_add(1, Ordering::Relaxed);
                return Some(task);
            }
        }
        None
    }

    fn has_runnable(&self) -> bool {
        self.injector_len.load(Ordering::SeqCst) > 0
            || self.locals.iter().any(|l| l.len.load(Ordering::SeqCst) > 0)
    }

    /// Dekker parker side: register as a sleeper, re-check every queue,
    /// and only then wait (holding the sleep lock from registration
    /// through the wait, so a producer's notify cannot fall in the gap).
    fn park(&self, idx: usize) {
        let mut guard = self.sleep.lock();
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        if self.has_runnable() || self.stop.load(Ordering::Acquire) {
            self.sleepers.fetch_sub(1, Ordering::SeqCst);
            return;
        }
        self.locals[idx].parks.fetch_add(1, Ordering::Relaxed);
        let _ = self.cv.wait_for(&mut guard, PARK_TIMEOUT);
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Per-worker run queues with work stealing: the third executor back end,
/// built for thousands of mostly-idle sessions per core.
pub struct Reactor {
    state: Arc<ReactorState>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Reactor {
    /// Spawns a reactor with `workers` threads (clamped to at least 1).
    pub fn new(workers: usize) -> Arc<Self> {
        let workers = workers.max(1);
        let state = Arc::new(ReactorState {
            id: REACTOR_IDS.fetch_add(1, Ordering::Relaxed),
            locals: (0..workers).map(|_| LocalQueue::new()).collect(),
            injector: Mutex::new(VecDeque::new()),
            injector_len: AtomicUsize::new(0),
            sleep: Mutex::new(()),
            cv: Condvar::new(),
            sleepers: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
        });
        let handles = (0..workers)
            .map(|i| {
                let state = state.clone();
                match std::thread::Builder::new()
                    .name(format!("mobigate-reactor-{i}"))
                    .spawn(move || worker_loop(&state, i))
                {
                    Ok(h) => h,
                    Err(e) => panic!("spawn reactor worker: {e}"),
                }
            })
            .collect();
        Arc::new(Reactor {
            state,
            workers: Mutex::new(handles),
        })
    }

    /// Number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.workers.lock().len()
    }
}

fn worker_loop(state: &Arc<ReactorState>, idx: usize) {
    CURRENT_WORKER.with(|c| c.set(Some((state.id, idx))));
    let mut rr = idx;
    while !state.stop.load(Ordering::Acquire) {
        match state.next_task(idx, &mut rr) {
            Some(task) => {
                state.locals[idx].pumps.fetch_add(1, Ordering::Relaxed);
                let st = state.clone();
                pump_and_reschedule(task, move |t| st.schedule(t));
            }
            None => state.park(idx),
        }
    }
    CURRENT_WORKER.with(|c| c.set(None));
}

impl Executor for Reactor {
    fn launch(&self, task: Arc<StreamletTask>) {
        // Identical discipline to the worker pool: a worker must never
        // park inside a downstream post, so outputs go through the
        // non-blocking path and overflow into the task's pending buffer.
        task.set_nonblocking_outputs(true);
        let state = Arc::downgrade(&self.state);
        let weak = Arc::downgrade(&task);
        task.set_wake_hook(move || {
            if let (Some(state), Some(task)) = (state.upgrade(), weak.upgrade()) {
                state.schedule(task);
            }
        });
        self.state.schedule(task);
    }

    fn name(&self) -> &'static str {
        "reactor"
    }

    fn shutdown(&self) {
        self.state.stop.store(true, Ordering::Release);
        // Take the sleep lock so the notify cannot land between a
        // parker's stop re-check and its wait.
        {
            let _guard = self.state.sleep.lock();
            self.state.cv.notify_all();
        }
        for handle in self.workers.lock().drain(..) {
            let _ = handle.join();
        }
    }

    fn stats(&self) -> Option<ExecutorStats> {
        Some(ExecutorStats {
            workers: self
                .state
                .locals
                .iter()
                .map(|l| WorkerStats {
                    pumps: l.pumps.load(Ordering::Relaxed),
                    steals: l.steals.load(Ordering::Relaxed),
                    parks: l.parks.load(Ordering::Relaxed),
                })
                .collect(),
        })
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::error::CoreError;
    use crate::pool::{MessagePool, PayloadMode};
    use crate::queue::{FetchResult, MessageQueue, PostResult, QueueConfig};
    use crate::streamlet::{Emitter, RouteOpts, StreamletCtx, StreamletHandle, StreamletLogic};
    use mobigate_mime::MimeMessage;
    use std::time::Instant;

    /// Copies every input to each of its `fanout` output ports.
    struct Spray {
        fanout: usize,
    }

    impl StreamletLogic for Spray {
        fn process(&mut self, msg: MimeMessage, ctx: &mut StreamletCtx) -> Result<(), CoreError> {
            for i in 0..self.fanout {
                ctx.emit(&format!("po{i}"), msg.clone());
            }
            Ok(())
        }
    }

    /// Forwards its input after sleeping for as many milliseconds as the
    /// body says, and prefixes it with the name of the thread that ran it.
    struct Nap;

    impl StreamletLogic for Nap {
        fn process(&mut self, msg: MimeMessage, ctx: &mut StreamletCtx) -> Result<(), CoreError> {
            let body = String::from_utf8_lossy(&msg.body).into_owned();
            let ms = body.parse().unwrap_or(0);
            std::thread::sleep(Duration::from_millis(ms));
            let thread = std::thread::current();
            let mut out = msg.clone();
            out.set_body(format!("{}:{body}", thread.name().unwrap_or("?")).into_bytes());
            ctx.emit("po", out);
            Ok(())
        }
    }

    fn queue(name: &str, pool: &Arc<MessagePool>) -> Arc<MessageQueue> {
        MessageQueue::new(
            QueueConfig {
                name: name.into(),
                ..Default::default()
            },
            pool.clone(),
        )
    }

    fn handle(
        name: &str,
        logic: Box<dyn StreamletLogic>,
        pool: &Arc<MessagePool>,
        executor: &Arc<Reactor>,
    ) -> Arc<StreamletHandle> {
        StreamletHandle::with_executor(
            name,
            name,
            false,
            logic,
            pool.clone(),
            PayloadMode::Reference,
            None,
            RouteOpts::default(),
            executor.clone(),
        )
    }

    fn post(pool: &MessagePool, q: &MessageQueue, body: &str) {
        let msg = MimeMessage::text(body);
        assert_eq!(
            q.post(pool.wrap(msg, PayloadMode::Reference, 1)),
            PostResult::Posted
        );
    }

    fn fetch(pool: &MessagePool, q: &MessageQueue, timeout: Duration) -> Option<String> {
        match q.fetch(timeout) {
            FetchResult::Msg(p) => {
                Some(String::from_utf8_lossy(&pool.resolve(p)?.body).into_owned())
            }
            _ => None,
        }
    }

    /// The steal scan must come back to the last victim: on two workers
    /// that victim is the only sibling there is. A sprayer fans every
    /// input out to four slow consumers; their wakes land on the
    /// sprayer's worker as surplus, and the other worker must keep
    /// stealing them, round after round.
    #[test]
    fn a_worker_steals_from_the_same_sibling_repeatedly() {
        const FANOUT: usize = 4;
        const ROUNDS: usize = 12;
        let executor = Reactor::new(2);
        let pool = Arc::new(MessagePool::new());
        let input = queue("in", &pool);
        let sink = queue("sink", &pool);
        let spray = handle(
            "spray",
            Box::new(Spray { fanout: FANOUT }),
            &pool,
            &executor,
        );
        spray.attach_in("pi", &input);
        let naps: Vec<_> = (0..FANOUT)
            .map(|i| {
                let q = queue(&format!("c{i}"), &pool);
                spray.attach_out(&format!("po{i}"), &q);
                let h = handle(&format!("nap{i}"), Box::new(Nap), &pool, &executor);
                h.attach_in("pi", &q);
                h.attach_out("po", &sink);
                h.start().unwrap();
                h
            })
            .collect();
        spray.start().unwrap();

        for _ in 0..ROUNDS {
            post(&pool, &input, "2");
            for _ in 0..FANOUT {
                fetch(&pool, &sink, Duration::from_secs(5)).expect("round output");
            }
        }
        let stats = executor.stats().expect("reactor keeps stats");
        spray.end();
        for h in &naps {
            h.end();
        }
        executor.shutdown();

        let most = stats.workers.iter().map(|w| w.steals).max().unwrap_or(0);
        assert!(
            most >= 2,
            "no worker stole more than once from its only sibling: {stats:?}"
        );
    }

    /// The wake a worker does not send: a task pushed onto the waker's own
    /// empty queue wakes no sibling, so if the waker then stalls in a slow
    /// `process`, the task waits for a sibling's timed park to run out —
    /// at most one `PARK_TIMEOUT` — and is stolen, not left behind the
    /// stall.
    #[test]
    fn a_task_behind_a_stalled_waker_is_stolen_within_the_park_timeout() {
        let stall = PARK_TIMEOUT * 10;
        let executor = Reactor::new(2);
        let pool = Arc::new(MessagePool::new());
        let (input, mid, out) = (queue("in", &pool), queue("mid", &pool), queue("out", &pool));
        let waker = handle("waker", Box::new(Nap), &pool, &executor);
        waker.attach_in("pi", &input);
        waker.attach_out("po", &mid);
        let downstream = handle("downstream", Box::new(Nap), &pool, &executor);
        downstream.attach_in("pi", &mid);
        downstream.attach_out("po", &out);
        downstream.start().unwrap();
        // Both inputs are queued before the waker starts, so one pump
        // forwards the first (waking `downstream` onto its own queue) and
        // then stalls in the second.
        post(&pool, &input, "0");
        post(&pool, &input, &stall.as_millis().to_string());
        // Let both workers go idle and park first.
        std::thread::sleep(PARK_TIMEOUT / 2);
        let t0 = Instant::now();
        waker.start().unwrap();

        let got = fetch(&pool, &out, stall).expect("downstream ran during the stall");
        let waited = t0.elapsed();
        // `downstream`'s thread, then `waker`'s, then the original body.
        let threads: Vec<&str> = got.split(':').collect();
        // Scheduling slack on a loaded host on top of the one timed park.
        assert!(
            waited < PARK_TIMEOUT * 3,
            "downstream waited {waited:?} behind a stalled worker (park timeout {PARK_TIMEOUT:?})"
        );
        assert_ne!(threads[0], threads[1], "the sibling ran it: {got}");

        // The stalled message still arrives once the stall ends.
        fetch(&pool, &out, stall * 2).expect("stalled message delivered");
        waker.end();
        downstream.end();
        executor.shutdown();
    }
}
