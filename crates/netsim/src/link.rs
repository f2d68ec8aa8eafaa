//! The emulated wireless link.
//!
//! Model: a single FIFO store-and-forward hop. Each frame occupies the
//! channel for `bits / bandwidth` (serialization time), then arrives after
//! an additional propagation delay. Frames are lost independently with the
//! configured probability. All durations are *emulated* time, converted to
//! wall time by `time_scale` before sleeping.

use parking_lot::{Condvar, Mutex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Configuration of a [`WirelessLink`].
#[derive(Debug, Clone)]
pub struct LinkConfig {
    /// Link bandwidth in bits per second of emulated time.
    pub bandwidth_bps: u64,
    /// One-way propagation delay (emulated time).
    pub propagation_delay: Duration,
    /// Probability a frame is lost in transit (0.0 ..= 1.0).
    pub loss_rate: f64,
    /// Per-bit error probability. A frame survives only when *no* bit is
    /// corrupted, so the effective frame loss is
    /// `1 − (1 − ber)^(8·len)` — longer frames die more often, the classic
    /// wireless behaviour the paper's snoop/I-TCP discussion revolves
    /// around (§2.1.2).
    pub bit_error_rate: f64,
    /// Wall seconds per emulated second. `1.0` = real time; `0.01` runs a
    /// 20 Kb/s experiment 100× faster.
    pub time_scale: f64,
    /// RNG seed for loss decisions (deterministic experiments).
    pub seed: u64,
    /// Maximum frames queued ahead of the channel before senders block.
    pub queue_limit: usize,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            bandwidth_bps: 1_000_000,
            propagation_delay: Duration::from_millis(1),
            loss_rate: 0.0,
            bit_error_rate: 0.0,
            time_scale: 1.0,
            seed: 0,
            queue_limit: 1024,
        }
    }
}

/// Pure function: probability that a frame of `len` bytes survives a link
/// with per-bit error probability `ber`.
pub fn frame_survival(len: usize, ber: f64) -> f64 {
    if ber <= 0.0 {
        return 1.0;
    }
    if ber >= 1.0 {
        return 0.0;
    }
    (1.0 - ber).powi((len as i32).saturating_mul(8))
}

/// Pure function: serialization time of `bytes` at `bandwidth_bps`
/// (emulated time).
pub fn transmission_time(bytes: usize, bandwidth_bps: u64) -> Duration {
    if bandwidth_bps == 0 {
        return Duration::from_secs(3600);
    }
    Duration::from_secs_f64(bytes as f64 * 8.0 / bandwidth_bps as f64)
}

/// Link accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Frames handed to the link.
    pub sent: u64,
    /// Frames delivered to the receiver.
    pub delivered: u64,
    /// Frames dropped by the loss process.
    pub lost: u64,
    /// Frames rejected because the queue was full.
    pub rejected: u64,
    /// Payload bytes delivered.
    pub delivered_bytes: u64,
    /// Total emulated busy time of the channel, in microseconds.
    pub busy_micros: u64,
}

struct Shared {
    queue: Mutex<VecDeque<Vec<u8>>>,
    queue_cv: Condvar,
    delivered: Mutex<VecDeque<Vec<u8>>>,
    delivered_cv: Condvar,
    bandwidth_bps: AtomicU64,
    stop: AtomicBool,
    sent: AtomicU64,
    delivered_count: AtomicU64,
    lost: AtomicU64,
    rejected: AtomicU64,
    delivered_bytes: AtomicU64,
    busy_micros: AtomicU64,
    cfg: LinkConfig,
}

/// The emulated link: construct with [`WirelessLink::spawn`] to get the
/// sender/receiver endpoints.
pub struct WirelessLink {
    shared: Arc<Shared>,
    worker: Option<JoinHandle<()>>,
}

/// Sending endpoint (server side of the air gap).
#[derive(Clone)]
pub struct LinkSender {
    shared: Arc<Shared>,
}

/// Receiving endpoint (mobile-host side).
pub struct LinkReceiver {
    shared: Arc<Shared>,
}

impl WirelessLink {
    /// Starts the link worker and returns the link plus both endpoints.
    pub fn spawn(cfg: LinkConfig) -> (WirelessLink, LinkSender, LinkReceiver) {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            delivered: Mutex::new(VecDeque::new()),
            delivered_cv: Condvar::new(),
            bandwidth_bps: AtomicU64::new(cfg.bandwidth_bps),
            stop: AtomicBool::new(false),
            sent: AtomicU64::new(0),
            delivered_count: AtomicU64::new(0),
            lost: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            delivered_bytes: AtomicU64::new(0),
            busy_micros: AtomicU64::new(0),
            cfg: cfg.clone(),
        });
        let worker_shared = shared.clone();
        let worker = std::thread::Builder::new()
            .name("wireless-link".into())
            .spawn(move || link_worker(worker_shared))
            .expect("spawn link worker");
        (
            WirelessLink {
                shared: shared.clone(),
                worker: Some(worker),
            },
            LinkSender {
                shared: shared.clone(),
            },
            LinkReceiver { shared },
        )
    }

    /// Changes the link bandwidth on the fly (vertical handoff, fading…).
    pub fn set_bandwidth(&self, bps: u64) {
        self.shared.bandwidth_bps.store(bps, Ordering::Release);
    }

    /// Current bandwidth.
    pub fn bandwidth(&self) -> u64 {
        self.shared.bandwidth_bps.load(Ordering::Acquire)
    }

    /// A detached probe reading the current bandwidth (used by monitors
    /// that must not borrow the link).
    pub fn bandwidth_probe(&self) -> impl Fn() -> u64 + Send + Sync + 'static {
        let shared = self.shared.clone();
        move || shared.bandwidth_bps.load(Ordering::Acquire)
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> LinkStats {
        LinkStats {
            sent: self.shared.sent.load(Ordering::Relaxed),
            delivered: self.shared.delivered_count.load(Ordering::Relaxed),
            lost: self.shared.lost.load(Ordering::Relaxed),
            rejected: self.shared.rejected.load(Ordering::Relaxed),
            delivered_bytes: self.shared.delivered_bytes.load(Ordering::Relaxed),
            busy_micros: self.shared.busy_micros.load(Ordering::Relaxed),
        }
    }

    /// Stops the worker; undelivered frames are discarded.
    pub fn shutdown(&mut self) {
        // Both waiters check `stop` under their own mutex: flip the flag
        // under each in turn so neither notify can fall between a
        // waiter's check and its wait.
        {
            let _q = self.shared.queue.lock();
            self.shared.stop.store(true, Ordering::Release);
        }
        self.shared.queue_cv.notify_all();
        drop(self.shared.delivered.lock());
        self.shared.delivered_cv.notify_all();
        if let Some(h) = self.worker.take() {
            let _ = h.join();
        }
    }
}

impl Drop for WirelessLink {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl LinkSender {
    /// Enqueues a frame for transmission. Returns `false` when the link
    /// queue is full (frame rejected) or the link is down.
    pub fn send(&self, frame: Vec<u8>) -> bool {
        if self.shared.stop.load(Ordering::Acquire) {
            return false;
        }
        let mut q = self.shared.queue.lock();
        if q.len() >= self.shared.cfg.queue_limit {
            self.shared.rejected.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        q.push_back(frame);
        self.shared.sent.fetch_add(1, Ordering::Relaxed);
        drop(q);
        self.shared.queue_cv.notify_all();
        true
    }

    /// Frames waiting ahead of the channel.
    pub fn backlog(&self) -> usize {
        self.shared.queue.lock().len()
    }
}

impl LinkReceiver {
    /// Receives the next delivered frame, waiting up to `timeout` (wall
    /// time). `None` on timeout or link shutdown with an empty buffer.
    pub fn recv(&self, timeout: Duration) -> Option<Vec<u8>> {
        let deadline = Instant::now() + timeout;
        let mut d = self.shared.delivered.lock();
        loop {
            if let Some(frame) = d.pop_front() {
                return Some(frame);
            }
            if self.shared.stop.load(Ordering::Acquire) {
                return None;
            }
            if self
                .shared
                .delivered_cv
                .wait_until(&mut d, deadline)
                .timed_out()
            {
                return d.pop_front();
            }
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<Vec<u8>> {
        self.shared.delivered.lock().pop_front()
    }
}

fn link_worker(shared: Arc<Shared>) {
    let mut rng = StdRng::seed_from_u64(shared.cfg.seed);
    loop {
        let frame = {
            let mut q = shared.queue.lock();
            loop {
                if shared.stop.load(Ordering::Acquire) {
                    return;
                }
                if let Some(f) = q.pop_front() {
                    break f;
                }
                shared.queue_cv.wait_for(&mut q, Duration::from_millis(20));
            }
        };

        // Serialization: the channel is busy for bits/bandwidth.
        let bw = shared.bandwidth_bps.load(Ordering::Acquire);
        let tx = transmission_time(frame.len(), bw);
        shared
            .busy_micros
            .fetch_add(tx.as_micros() as u64, Ordering::Relaxed);
        let wall = tx.mul_f64(shared.cfg.time_scale)
            + shared.cfg.propagation_delay.mul_f64(shared.cfg.time_scale);
        precise_sleep(wall, &shared.stop);
        if shared.stop.load(Ordering::Acquire) {
            return;
        }

        // Loss process: flat frame loss plus length-dependent bit errors.
        let survival = (1.0 - shared.cfg.loss_rate.clamp(0.0, 1.0))
            * frame_survival(frame.len(), shared.cfg.bit_error_rate);
        if survival < 1.0 && !rng.gen_bool(survival.clamp(0.0, 1.0)) {
            shared.lost.fetch_add(1, Ordering::Relaxed);
            continue;
        }

        shared
            .delivered_bytes
            .fetch_add(frame.len() as u64, Ordering::Relaxed);
        shared.delivered_count.fetch_add(1, Ordering::Relaxed);
        shared.delivered.lock().push_back(frame);
        shared.delivered_cv.notify_all();
    }
}

/// Sleeps in small slices so shutdown stays responsive even through long
/// emulated transmissions.
fn precise_sleep(total: Duration, stop: &AtomicBool) {
    let deadline = Instant::now() + total;
    while Instant::now() < deadline {
        if stop.load(Ordering::Acquire) {
            return;
        }
        let left = deadline.saturating_duration_since(Instant::now());
        std::thread::sleep(left.min(Duration::from_millis(10)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transmission_time_math() {
        assert_eq!(transmission_time(1250, 10_000), Duration::from_secs(1));
        assert_eq!(transmission_time(0, 10_000), Duration::ZERO);
        // Zero bandwidth saturates instead of dividing by zero.
        assert!(transmission_time(1, 0) >= Duration::from_secs(3600));
    }

    #[test]
    fn frames_arrive_in_order() {
        let (_link, tx, rx) = WirelessLink::spawn(LinkConfig {
            bandwidth_bps: 100_000_000,
            propagation_delay: Duration::ZERO,
            ..Default::default()
        });
        for i in 0..20u8 {
            assert!(tx.send(vec![i; 16]));
        }
        for i in 0..20u8 {
            let f = rx.recv(Duration::from_secs(2)).expect("frame");
            assert_eq!(f[0], i);
        }
    }

    #[test]
    fn bandwidth_throttles_delivery() {
        // 8 KB at 64 Kb/s = 1 emulated second; at scale 0.05 → ≥50 ms wall.
        let (_link, tx, rx) = WirelessLink::spawn(LinkConfig {
            bandwidth_bps: 64_000,
            propagation_delay: Duration::ZERO,
            time_scale: 0.05,
            ..Default::default()
        });
        let t0 = Instant::now();
        tx.send(vec![0u8; 8000]);
        rx.recv(Duration::from_secs(5)).expect("frame");
        let elapsed = t0.elapsed();
        assert!(
            elapsed >= Duration::from_millis(45),
            "too fast: {elapsed:?}"
        );
    }

    #[test]
    fn higher_bandwidth_is_faster() {
        let run = |bps: u64| {
            let (_link, tx, rx) = WirelessLink::spawn(LinkConfig {
                bandwidth_bps: bps,
                propagation_delay: Duration::ZERO,
                time_scale: 0.01,
                ..Default::default()
            });
            let t0 = Instant::now();
            for _ in 0..5 {
                tx.send(vec![0u8; 20_000]);
            }
            for _ in 0..5 {
                rx.recv(Duration::from_secs(10)).expect("frame");
            }
            t0.elapsed()
        };
        let slow = run(100_000);
        let fast = run(2_000_000);
        assert!(fast < slow, "fast {fast:?} !< slow {slow:?}");
    }

    #[test]
    fn loss_rate_drops_frames() {
        let (link, tx, rx) = WirelessLink::spawn(LinkConfig {
            bandwidth_bps: 100_000_000,
            propagation_delay: Duration::ZERO,
            loss_rate: 0.5,
            seed: 7,
            ..Default::default()
        });
        for _ in 0..200 {
            tx.send(vec![0u8; 8]);
        }
        // Drain until quiescent.
        let mut got = 0;
        while rx.recv(Duration::from_millis(200)).is_some() {
            got += 1;
        }
        let stats = link.stats();
        assert_eq!(stats.sent, 200);
        assert_eq!(stats.delivered as usize, got);
        assert!(stats.lost > 50 && stats.lost < 150, "lost {}", stats.lost);
        assert_eq!(stats.delivered + stats.lost, 200);
    }

    #[test]
    fn frame_survival_math() {
        assert_eq!(frame_survival(100, 0.0), 1.0);
        assert_eq!(frame_survival(100, 1.0), 0.0);
        let short = frame_survival(10, 1e-4);
        let long = frame_survival(1000, 1e-4);
        assert!(long < short, "longer frames must survive less often");
        assert!((0.0..=1.0).contains(&short));
    }

    #[test]
    fn bit_errors_kill_long_frames_more() {
        let run = |len: usize| {
            let (link, tx, rx) = WirelessLink::spawn(LinkConfig {
                bandwidth_bps: 1_000_000_000,
                propagation_delay: Duration::ZERO,
                bit_error_rate: 2e-4,
                seed: 3,
                ..Default::default()
            });
            for _ in 0..100 {
                tx.send(vec![0u8; len]);
            }
            while rx.recv(Duration::from_millis(150)).is_some() {}
            link.stats().lost
        };
        let short_lost = run(16);
        let long_lost = run(2048);
        assert!(
            long_lost > short_lost + 20,
            "2 KB frames (lost {long_lost}) must die far more often than 16 B (lost {short_lost})"
        );
    }

    #[test]
    fn loss_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let (link, tx, rx) = WirelessLink::spawn(LinkConfig {
                bandwidth_bps: 100_000_000,
                propagation_delay: Duration::ZERO,
                loss_rate: 0.3,
                seed,
                ..Default::default()
            });
            for _ in 0..100 {
                tx.send(vec![0u8; 8]);
            }
            while rx.recv(Duration::from_millis(100)).is_some() {}
            link.stats().lost
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn queue_limit_rejects_overflow() {
        let (link, tx, _rx) = WirelessLink::spawn(LinkConfig {
            bandwidth_bps: 1_000, // extremely slow: queue builds up
            queue_limit: 4,
            time_scale: 1.0,
            ..Default::default()
        });
        let mut accepted = 0;
        for _ in 0..20 {
            if tx.send(vec![0u8; 10_000]) {
                accepted += 1;
            }
        }
        assert!(accepted <= 6, "accepted {accepted}");
        assert!(link.stats().rejected >= 14);
    }

    #[test]
    fn bandwidth_change_applies_mid_run() {
        let (link, tx, rx) = WirelessLink::spawn(LinkConfig {
            bandwidth_bps: 10_000,
            propagation_delay: Duration::ZERO,
            time_scale: 0.01,
            ..Default::default()
        });
        link.set_bandwidth(50_000_000);
        assert_eq!(link.bandwidth(), 50_000_000);
        let t0 = Instant::now();
        tx.send(vec![0u8; 100_000]);
        rx.recv(Duration::from_secs(5)).expect("frame");
        // At the *original* 10 Kb/s this frame would take 80 emulated
        // seconds = 800 ms wall; the boost makes it near-instant.
        assert!(t0.elapsed() < Duration::from_millis(500));
    }

    #[test]
    fn stats_track_bytes_and_busy_time() {
        let (link, tx, rx) = WirelessLink::spawn(LinkConfig {
            bandwidth_bps: 1_000_000,
            propagation_delay: Duration::ZERO,
            time_scale: 0.001,
            ..Default::default()
        });
        tx.send(vec![0u8; 12_500]); // 0.1 emulated seconds
        rx.recv(Duration::from_secs(2)).expect("frame");
        let stats = link.stats();
        assert_eq!(stats.delivered_bytes, 12_500);
        assert!(stats.busy_micros >= 90_000, "busy {}", stats.busy_micros);
    }

    #[test]
    fn shutdown_stops_cleanly() {
        let (mut link, tx, rx) = WirelessLink::spawn(LinkConfig::default());
        tx.send(vec![1, 2, 3]);
        link.shutdown();
        assert!(!tx.send(vec![4]));
        // After shutdown recv drains whatever was delivered then None.
        let _ = rx.recv(Duration::from_millis(50));
        assert!(rx.recv(Duration::from_millis(50)).is_none());
    }
}
