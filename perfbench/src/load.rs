//! The open-loop load driver: one sender thread (the caller) follows a
//! fixed schedule regardless of how the gateway keeps up, one receiver
//! thread collects and checks outputs. Every message is timed from the
//! moment it was *due*, so a stall also charges the wait it imposes on
//! the messages queued behind it.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// One output seen by the receiver.
#[derive(Debug, Clone, Copy)]
pub struct Arrival {
    /// Sequence number read from the output.
    pub seq: u64,
    /// When it arrived at the client or sink.
    pub at: Instant,
    /// Whether it passed the workload's output check.
    pub ok: bool,
}

/// A constant-rate segment of the schedule.
#[derive(Debug, Clone)]
pub struct Phase {
    /// Label for the report.
    pub name: String,
    /// Offered rate, messages per second.
    pub rate: f64,
    /// Length of the schedule in seconds.
    pub secs: f64,
    /// Sequence number of the phase's first message.
    pub first_seq: u64,
}

impl Phase {
    /// Messages the schedule offers.
    pub fn count(&self) -> u64 {
        (self.rate * self.secs).round().max(1.0) as u64
    }

    /// First sequence number after this phase.
    pub fn end_seq(&self) -> u64 {
        self.first_seq + self.count()
    }
}

/// What the sender does, on the sender thread.
pub trait Sender {
    /// Posts message `seq`, which the schedule made due at `due`; `false`
    /// means the gateway refused it.
    fn post(&mut self, seq: u64, due: Instant) -> bool;

    /// Period of the side actions (events, churn), if any.
    fn side_period(&self) -> Option<Duration> {
        None
    }

    /// The `k`-th side action, run at `t0 + k · side_period`.
    fn side(&mut self, _k: u64) {}
}

/// Everything measured over one phase.
#[derive(Debug, Clone, Default)]
pub struct PhaseOutcome {
    /// The schedule's label.
    pub name: String,
    /// Offered rate.
    pub rate: f64,
    /// Messages the schedule offered.
    pub offered: u64,
    /// Posts the gateway accepted.
    pub posted: u64,
    /// Posts the gateway refused (an `Err` from the ingress call).
    pub refused: u64,
    /// Messages the sender never got to before the phase's hard end.
    pub unsent: u64,
    /// Outputs that arrived and passed their check.
    pub delivered: u64,
    /// Outputs that arrived but failed their check (wrong, corrupt,
    /// mislabeled or out of order).
    pub wrong: u64,
    /// Outputs seen twice.
    pub duplicates: u64,
    /// Outputs belonging to an earlier phase.
    pub stragglers: u64,
    /// Due-to-arrival latency of each delivered message, ms.
    pub latency_ms: Vec<f64>,
    /// How late the sender issued each post, ms.
    pub late_ms: Vec<f64>,
    /// Wall time of each ingress call, µs.
    pub post_us: Vec<f64>,
    /// CPU seconds from schedule start to the end of the drain of the
    /// threads alive when the phase ends: the gateway's threads and the
    /// sender, which runs the gateway's ingress path and the side actions
    /// (its own share is copying pre-built bytes). The receiver thread,
    /// the benchmark's parsing and checking, has exited by then and is not
    /// counted.
    pub cpu_s: f64,
    /// Wall seconds from schedule start to the end of the drain.
    pub wall_s: f64,
    /// When the schedule started.
    pub t0: Option<Instant>,
}

impl PhaseOutcome {
    /// Offered messages that did not come back correct.
    pub fn failed(&self) -> u64 {
        self.offered.saturating_sub(self.delivered)
    }

    /// Folds another run of the same schedule into this one.
    pub fn merge(&mut self, o: PhaseOutcome) {
        self.offered += o.offered;
        self.posted += o.posted;
        self.refused += o.refused;
        self.unsent += o.unsent;
        self.delivered += o.delivered;
        self.wrong += o.wrong;
        self.duplicates += o.duplicates;
        self.stragglers += o.stragglers;
        self.latency_ms.extend(o.latency_ms);
        self.late_ms.extend(o.late_ms);
        self.post_us.extend(o.post_us);
        self.cpu_s += o.cpu_s;
        self.wall_s += o.wall_s;
    }
}

/// Runs `phase`: the caller's thread sends, a scoped thread receives
/// through `recv` (which waits at most the given timeout and returns the
/// next checked output). After the last post the receiver waits up to
/// `drain` for the remaining outputs; what has not arrived by then counts
/// as failed.
pub fn run_phase<S, R>(phase: &Phase, sender: &mut S, recv: R, drain: Duration) -> PhaseOutcome
where
    S: Sender + ?Sized,
    R: FnMut(Duration) -> Option<Arrival> + Send,
{
    let n = phase.count();
    let period = 1.0 / phase.rate;
    let sender_done = AtomicBool::new(false);
    let posted_total = AtomicU64::new(0);
    // Nanoseconds after t0 at which the receiver gives up.
    let drain_deadline_ns = AtomicU64::new(u64::MAX);
    let cpu0 = crate::procfs::task_cpu_ns();
    let t0 = Instant::now() + Duration::from_millis(2);
    let due = |i: u64| t0 + Duration::from_secs_f64(i as f64 * period);
    // The sender never posts a message after this instant, so a stalled
    // gateway cannot stretch a phase without bound.
    let hard_end = t0 + Duration::from_secs_f64(phase.secs * 1.25 + 0.25);

    let mut out = PhaseOutcome {
        name: phase.name.clone(),
        rate: phase.rate,
        offered: n,
        t0: Some(t0),
        ..Default::default()
    };

    std::thread::scope(|scope| {
        let receiver = scope.spawn({
            let sender_done = &sender_done;
            let posted_total = &posted_total;
            let drain_deadline_ns = &drain_deadline_ns;
            let mut recv = recv;
            let first = phase.first_seq;
            move || {
                let mut lat = vec![f64::NAN; n as usize];
                let mut seen = vec![false; n as usize];
                let (mut delivered, mut wrong, mut dups, mut stragglers) = (0u64, 0u64, 0u64, 0u64);
                loop {
                    if let Some(a) = recv(Duration::from_millis(10)) {
                        match a.seq.checked_sub(first).filter(|i| *i < n) {
                            None => stragglers += 1,
                            Some(i) => {
                                let i = i as usize;
                                if seen[i] {
                                    dups += 1;
                                } else {
                                    seen[i] = true;
                                    if a.ok {
                                        delivered += 1;
                                        let d = a.at.saturating_duration_since(due(i as u64));
                                        lat[i] = d.as_secs_f64() * 1e3;
                                    } else {
                                        wrong += 1;
                                    }
                                }
                            }
                        }
                    }
                    if sender_done.load(Ordering::Acquire) {
                        let posted = posted_total.load(Ordering::Acquire);
                        let deadline = drain_deadline_ns.load(Ordering::Acquire);
                        let now_ns = Instant::now().saturating_duration_since(t0).as_nanos() as u64;
                        if delivered + wrong >= posted || now_ns >= deadline {
                            break;
                        }
                    }
                }
                let latency: Vec<f64> = lat.into_iter().filter(|v| !v.is_nan()).collect();
                (latency, delivered, wrong, dups, stragglers)
            }
        });

        let side_period = sender.side_period();
        let mut next_side = 0u64;
        let mut late = Vec::with_capacity(n as usize);
        let mut post_us = Vec::with_capacity(n as usize);
        let (mut posted, mut refused) = (0u64, 0u64);
        for i in 0..n {
            let due_i = due(i);
            if let Some(p) = side_period {
                while t0 + p * (next_side as u32) <= due_i {
                    sleep_until(t0 + p * (next_side as u32));
                    sender.side(next_side);
                    next_side += 1;
                }
            }
            if Instant::now() >= hard_end {
                out.unsent = n - i;
                break;
            }
            sleep_until(due_i);
            let start = Instant::now();
            late.push(start.saturating_duration_since(due_i).as_secs_f64() * 1e3);
            let ok = sender.post(phase.first_seq + i, due_i);
            post_us.push(start.elapsed().as_secs_f64() * 1e6);
            if ok {
                posted += 1;
            } else {
                refused += 1;
            }
        }
        out.posted = posted;
        out.refused = refused;
        out.late_ms = late;
        out.post_us = post_us;
        let deadline = Instant::now().saturating_duration_since(t0) + drain;
        drain_deadline_ns.store(deadline.as_nanos() as u64, Ordering::Release);
        posted_total.store(posted, Ordering::Release);
        sender_done.store(true, Ordering::Release);

        let (latency, delivered, wrong, dups, stragglers) =
            receiver.join().expect("receiver thread panicked");
        out.latency_ms = latency;
        out.delivered = delivered;
        out.wrong = wrong;
        out.duplicates = dups;
        out.stragglers = stragglers;
    });
    out.wall_s = t0.elapsed().as_secs_f64();
    out.cpu_s = crate::procfs::cpu_between(&cpu0, &crate::procfs::task_cpu_ns());
    out
}

/// A rate-search probe passes when the p99 latency and the sender's p99
/// lateness stay within `limit_ms` (a growing backlog shows in both).
/// A message that failed counts as missing the limit, so a probe where
/// more than 1% of the offered messages failed cannot pass.
pub fn passes(p: &PhaseOutcome, limit_ms: f64) -> bool {
    let p99 = |v: &[f64]| {
        if v.is_empty() {
            f64::INFINITY
        } else {
            crate::stats::Latency::windowed(v).p99
        }
    };
    p.failed() * 100 <= p.offered && p99(&p.latency_ms) <= limit_ms && p99(&p.late_ms) <= limit_ms
}

/// The rate search behind `e2e.max_rate_mps`: `probe(rate)` runs one probe
/// phase at `rate`; a probe passes by [`passes`] against `limit_ms`. A
/// failed probe is run once more and the rate passes if either run does,
/// so one burst of host noise cannot move the bracket down for good.
pub fn search_max_rate(
    (lo, hi, probes): (f64, f64, usize),
    limit_ms: f64,
    mut probe: impl FnMut(f64) -> PhaseOutcome,
    notes: &mut Vec<String>,
) -> f64 {
    let mut search = crate::stats::RateSearch::new(lo, hi, probes);
    while let Some(rate) = search.next_rate() {
        let mut passed = false;
        for _ in 0..2 {
            let o = probe(rate);
            passed = passes(&o, limit_ms);
            notes.push(crate::common::phase_line(&o));
            if passed {
                break;
            }
        }
        search.record(rate, passed);
    }
    search.result()
}

/// Maxima of gauges sampled while a phase runs (traced runs).
#[derive(Debug, Default)]
pub struct Peaks {
    /// Bytes resident in the stream(s): channels plus overflow buffers.
    pub resident_bytes: AtomicU64,
    /// Messages resident in the central message pool.
    pub pool_resident: AtomicU64,
    /// Frames queued on the link ahead of the channel.
    pub link_backlog: AtomicU64,
}

impl Peaks {
    /// Raises each maximum to the sampled value.
    pub fn observe(&self, resident_bytes: u64, pool_resident: u64, link_backlog: u64) {
        self.resident_bytes
            .fetch_max(resident_bytes, Ordering::Relaxed);
        self.pool_resident
            .fetch_max(pool_resident, Ordering::Relaxed);
        self.link_backlog.fetch_max(link_backlog, Ordering::Relaxed);
    }
}

/// Wraps a receiver so that, when `every` is set, it also runs `sample`
/// at most once per `every` (on the receiver thread, between outputs).
pub fn sampling<R, F>(
    mut recv: R,
    every: Option<Duration>,
    mut sample: F,
) -> impl FnMut(Duration) -> Option<Arrival> + Send
where
    R: FnMut(Duration) -> Option<Arrival> + Send,
    F: FnMut() + Send,
{
    let mut last: Option<Instant> = None;
    move |t| {
        if let Some(every) = every {
            if last.is_none_or(|l| l.elapsed() >= every) {
                sample();
                last = Some(Instant::now());
            }
        }
        recv(t)
    }
}

/// Sleeps until `t` (returns at once when `t` has passed).
pub fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    /// A loopback "gateway": posts go straight to the receiver.
    struct Loop(mpsc::Sender<u64>, u64);
    impl Sender for Loop {
        fn post(&mut self, seq: u64, _due: Instant) -> bool {
            // Refuse every 10th message, drop every 7th silently.
            if seq % 10 == 9 {
                return false;
            }
            if seq % 7 != 6 {
                self.0.send(seq).unwrap();
            }
            true
        }
        fn side_period(&self) -> Option<Duration> {
            Some(Duration::from_millis(50))
        }
        fn side(&mut self, _k: u64) {
            self.1 += 1;
        }
    }

    #[test]
    fn phase_accounts_for_every_offered_message() {
        let (tx, rx) = mpsc::channel();
        let mut s = Loop(tx, 0);
        let phase = Phase {
            name: "t".into(),
            rate: 1000.0,
            secs: 0.2,
            first_seq: 100,
        };
        let recv = move |t: Duration| {
            rx.recv_timeout(t).ok().map(|seq| Arrival {
                seq,
                at: Instant::now(),
                ok: seq % 11 != 0,
            })
        };
        let o = run_phase(&phase, &mut s, recv, Duration::from_millis(100));
        assert_eq!(o.offered, 200);
        assert_eq!(o.refused, 20);
        assert_eq!(o.posted, 180);
        assert_eq!(o.unsent, 0);
        let silently_dropped = (100..300u64).filter(|s| s % 10 != 9 && s % 7 == 6).count() as u64;
        let wrong = (100..300u64)
            .filter(|s| s % 10 != 9 && s % 7 != 6 && s % 11 == 0)
            .count() as u64;
        assert_eq!(o.wrong, wrong);
        assert_eq!(o.delivered + o.wrong + silently_dropped, o.posted);
        assert_eq!(o.latency_ms.len() as u64, o.delivered);
        assert_eq!(o.late_ms.len(), 200);
        assert!(s.1 >= 4, "side actions ran on their cadence: {}", s.1);
    }
}
