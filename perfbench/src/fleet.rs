//! The session-plane set-up shared by `sessions` and `adapt`: a gateway on
//! the reactor back end, one `SessionManager` template stamped into N
//! sessions, and a push-based sink `Transport` behind the template's
//! `communicator`. The sink timestamps each frame as the communicator
//! hands it over and passes it to the receiver thread, which checks it.

use crate::common::{Depths, Spans};
use crate::gen::{self, WireView};
use crate::load::{sampling, Arrival, Peaks};
use mobigate::core::{
    ExecutorConfig, MobiGate, RunningStream, ServerConfig, SessionManager, StreamletDirectory,
    StreamletPool, TelemetryConfig,
};
use mobigate::streamlets::comm::{Communicator, Transport};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The benchmark's sink `Transport`.
pub struct Sink {
    tx: mpsc::Sender<(Instant, Vec<u8>)>,
    /// Wire bytes handed over.
    pub bytes: AtomicU64,
    /// Span table of the current traced phase.
    pub spans: Mutex<Option<Arc<Spans>>>,
    traced: bool,
}

impl Transport for Sink {
    fn send(&self, wire: &[u8]) -> Result<(), String> {
        let at = Instant::now();
        if self.traced {
            if let Some(s) = self.spans.lock().expect("span lock").as_ref() {
                if let Some(seq) = gen::seq_of_wire(wire) {
                    s.stamp(&s.send, seq, at);
                }
            }
        }
        self.bytes.fetch_add(wire.len() as u64, Ordering::Relaxed);
        self.tx
            .send((at, wire.to_vec()))
            .map_err(|_| "benchmark receiver gone".to_string())
    }
}

/// Idle time between two timed set-ups: the host's speed changes from
/// one fraction of a second to the next, and set-ups taken in one burst
/// share one state.
pub const SETUP_GAP: Duration = Duration::from_millis(100);

/// A gateway holding N sessions of one template.
pub struct Fleet {
    /// The gateway.
    pub server: MobiGate,
    /// The template's session manager.
    pub manager: SessionManager,
    /// The sessions carrying traffic, by index.
    pub streams: Vec<Arc<RunningStream>>,
    /// Session name → index.
    pub index: HashMap<String, usize>,
    /// The sink behind every session's communicator.
    pub sink: Arc<Sink>,
    /// Frames the sink received, for the receiver thread.
    pub rx: Mutex<mpsc::Receiver<(Instant, Vec<u8>)>>,
    /// Outputs the receiver has taken, per traffic session.
    pub arrived: Vec<AtomicU64>,
    /// Duration of each `SessionManager::spawn` at set-up (s).
    pub spawn_s: Vec<f64>,
    /// Server build + compile + template + spawning every session (s).
    pub setup_s: f64,
    /// `MobiGate::session_manager` (compile + template) alone (s).
    pub template_s: f64,
}

/// Streamlet definitions every session template uses.
pub fn defs() -> String {
    format!(
        "{}\nstreamlet communicator {{\n    port {{ in pi : */*; }}\n    attribute {{ type = STATELESS; library = \"builtin/communicator\"; }}\n}}\n",
        mobigate::streamlets::standard_defs()
    )
}

impl Fleet {
    /// Builds the gateway and spawns `n` sessions of `template` (a `main
    /// stream` composition written against [`defs`]).
    pub fn new(template: &str, n: usize, traced: bool) -> Fleet {
        let t0 = Instant::now();
        let workers = crate::procfs::nproc();
        let server = MobiGate::with_config(
            ServerConfig {
                executor: ExecutorConfig::Reactor { workers },
                telemetry: if traced {
                    TelemetryConfig::enabled()
                } else {
                    TelemetryConfig::default()
                },
                ..ServerConfig::default()
            },
            Arc::new(StreamletDirectory::new()),
            // Sized so teardown never discards a pooled instance.
            Arc::new(StreamletPool::new(n * 8 + 64)),
        );
        mobigate::streamlets::register_builtins(server.directory());
        let (tx, rx) = mpsc::channel();
        let sink = Arc::new(Sink {
            tx,
            bytes: AtomicU64::new(0),
            spans: Mutex::new(None),
            traced,
        });
        Communicator::register(server.directory(), sink.clone());
        let t_template = Instant::now();
        let manager = server
            .session_manager(&format!("{}\n{template}", defs()))
            .expect("session template compiles");
        let template_s = t_template.elapsed().as_secs_f64();
        let mut streams = Vec::with_capacity(n);
        let mut spawn_s = Vec::with_capacity(n);
        for _ in 0..n {
            let t = Instant::now();
            streams.push(manager.spawn().expect("spawn session"));
            spawn_s.push(t.elapsed().as_secs_f64());
        }
        let index = streams
            .iter()
            .enumerate()
            .map(|(i, s)| (s.session().as_str().to_string(), i))
            .collect();
        Fleet {
            server,
            manager,
            streams,
            index,
            sink,
            rx: Mutex::new(rx),
            arrived: (0..n).map(|_| AtomicU64::new(0)).collect(),
            spawn_s,
            setup_s: t0.elapsed().as_secs_f64(),
            template_s,
        }
    }

    /// Builds `n` gateways of `template` and tears each down again,
    /// [`SETUP_GAP`] apart. Each timed set-up directly follows an untimed
    /// one: after idle time a set-up runs on cold caches, and how cold
    /// depends on what the host's other tenants did meanwhile, which moved
    /// the short `adapt` set-up by 38% between two sets of runs. Returns
    /// the set-up times and every timed session teardown time (s).
    pub fn setup_batch(
        template: &str,
        sessions: usize,
        traced: bool,
        n: usize,
    ) -> (Vec<f64>, Vec<f64>) {
        let mut setups = Vec::with_capacity(n);
        let mut teardowns = Vec::new();
        for _ in 0..n {
            std::thread::sleep(SETUP_GAP);
            Fleet::new(template, sessions, traced).teardown();
            let f = Fleet::new(template, sessions, traced);
            setups.push(f.setup_s);
            teardowns.extend(f.teardown());
        }
        (setups, teardowns)
    }

    /// Installs (or clears) the span table the sink stamps.
    pub fn set_spans(&self, spans: Option<Arc<Spans>>) {
        *self.sink.spans.lock().expect("span lock") = spans;
    }

    /// A receiver for `run_phase`: takes the next frame from the sink and
    /// checks it with `check(session index, seq, message)`. Outputs must
    /// arrive in per-session FIFO order; a regression fails the check.
    ///
    /// With `peaks`, the receiver also samples the gateway's gauges every
    /// 100 ms.
    pub fn receiver<'a>(
        &'a self,
        spans: Option<Arc<Spans>>,
        peaks: Option<&'a Peaks>,
        check: impl Fn(usize, u64, &WireView) -> bool + Send + 'a,
    ) -> impl FnMut(Duration) -> Option<Arrival> + Send + 'a {
        let mut last: HashMap<usize, u64> = HashMap::new();
        let every = peaks.map(|_| Duration::from_millis(100));
        let sample = move || {
            if let Some(p) = peaks {
                self.sample(p);
            }
        };
        sampling(
            move |t: Duration| {
                let (at, frame) = self
                    .rx
                    .lock()
                    .expect("sink receiver")
                    .recv_timeout(t)
                    .ok()?;
                let Some(view) = WireView::parse(&frame) else {
                    return Some(Arrival {
                        seq: u64::MAX,
                        at,
                        ok: false,
                    });
                };
                let seq = view.seq.unwrap_or(u64::MAX);
                if let Some(s) = &spans {
                    s.stamp(&s.arrive, seq, Instant::now());
                }
                let session = view.session.and_then(|s| self.index.get(s).copied());
                if let Some(i) = session {
                    self.arrived[i].fetch_add(1, Ordering::Release);
                }
                let ok = session.is_some_and(|i| {
                    let in_order = last.get(&i).is_none_or(|&prev| prev < seq);
                    last.insert(i, seq);
                    in_order && check(i, seq, &view)
                });
                Some(Arrival { seq, at, ok })
            },
            every,
            sample,
        )
    }

    /// Waits (at most 3 s) until no output has arrived for 100 ms,
    /// discarding what does arrive: a probe that overloaded the gateway
    /// must not leave its backlog to the next phase. The discarded
    /// outputs were already counted as failed by their own phase.
    pub fn settle(&self) {
        let rx = self.rx.lock().expect("sink receiver");
        let deadline = Instant::now() + Duration::from_secs(3);
        while Instant::now() < deadline && rx.recv_timeout(Duration::from_millis(100)).is_ok() {}
    }

    /// Emissions the traffic sessions' streamlets dropped because no
    /// channel was bound to the port (`StreamletStats::dropped_unrouted`).
    pub fn unrouted(&self) -> u64 {
        self.streams
            .iter()
            .flat_map(|s| {
                s.instance_names()
                    .into_iter()
                    .filter_map(|n| s.instance(&n))
                    .map(|h| h.stats().dropped_unrouted)
                    .collect::<Vec<_>>()
            })
            .sum()
    }

    /// Gateway-side accounting summed over every traffic session.
    pub fn depths(&self) -> Depths {
        let mut d = Depths::default();
        for s in &self.streams {
            d.add(Depths::parse(&s.debug_depths()));
        }
        d
    }

    /// Samples the gateway's gauges into `peaks`.
    pub fn sample(&self, peaks: &Peaks) {
        let resident: u64 = self
            .streams
            .iter()
            .map(|s| s.stats().resident_bytes())
            .sum();
        let pool = self.server.message_pool().stats().resident as u64;
        peaks.observe(resident, pool, 0);
    }

    /// Tears every session down, timing each teardown (s).
    pub fn teardown(self) -> Vec<f64> {
        let mut times = Vec::with_capacity(self.streams.len());
        for s in &self.streams {
            let t = Instant::now();
            self.manager.teardown(s.session());
            times.push(t.elapsed().as_secs_f64());
        }
        drop(self.streams);
        self.manager.teardown_all();
        self.server.coordination().shutdown_all();
        times
    }
}
