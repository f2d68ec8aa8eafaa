//! `webaccel`: the Figure 7-7 path. A wired sender posts the seeded web
//! mix (half 128×128 GIF-like images, half 8 KiB texts) into the §7.5
//! web-acceleration stream; the `communicator` hands frames to a
//! benchmark `Transport` over a time-scaled `WirelessLink`; a pump feeds
//! the far end into a `MobiGateClient`, whose outputs the receiver
//! checks. `LOW_BANDWIDTH` is raised at set-up, so the composition's own
//! `when` rule splices the text compressor in, exactly as the Fig 7-7
//! harness does.
//!
//! The egress copies that splice leaves behind are not drained: the
//! benchmark measures the composition as it is (see README.md).

use crate::common::{self, Counters, Depths, E2eInputs, Opts, Outcome, Spans};
use crate::gen::{self, WebPool};
use crate::load::{
    run_phase, sampling, search_max_rate, Arrival, Peaks, Phase, PhaseOutcome, Sender,
};
use crate::report::Metrics;
use crate::stats::Latency;
use mobigate::client::{ClientStreamletPool, MobiGateClient};
use mobigate::core::events::ContextEvent;
use mobigate::core::{
    EventKind, MobiGate, RunningStream, ServerConfig, StreamletDirectory, StreamletPool,
    TelemetryConfig,
};
use mobigate::mime::MimeMessage;
use mobigate::netsim::{LinkConfig, LinkReceiver, LinkSender, WirelessLink};
use mobigate::streamlets::batch::{Disaggregate, DISAGGREGATE_PEER};
use mobigate::streamlets::codec::{lzss, raster};
use mobigate::streamlets::comm::{Communicator, Transport};
use mobigate::streamlets::compress::{TextDecompress, DECOMPRESS_PEER};
use mobigate::streamlets::crypto::{Decrypt, DECRYPT_PEER, DEFAULT_KEY};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The §7.5 web-acceleration composition, verbatim from the Fig 7-7
/// harness: `comp` is declared in the main body and spliced in by the
/// `LOW_BANDWIDTH` rule.
const ACCELERATOR: &str = r#"
streamlet gif_switch {
    port { in pi : */*; out po1 : image/gif; out po2 : text; }
    attribute { type = STATELESS; library = "builtin/switch"; }
}
main stream webAccel {
    streamlet sw = new-streamlet (gif_switch);
    streamlet g2j = new-streamlet (gif2jpeg);
    streamlet ds = new-streamlet (img_down_sample);
    streamlet comp = new-streamlet (text_compress);
    streamlet out = new-streamlet (communicator);
    connect (sw.po1, g2j.pi);
    connect (g2j.po, ds.pi);
    connect (ds.po, out.pi);
    connect (sw.po2, out.pi);
    when (LOW_BANDWIDTH) {
        insert (sw.po2, out.pi, comp);
    }
}
"#;

/// Link bandwidth, bits per emulated second: below the 100 Kb/s
/// threshold at which the paper activates the compressor.
const LINK_BPS: u64 = 64_000;
/// One-way propagation delay, emulated.
const LINK_DELAY: Duration = Duration::from_millis(20);
/// Wall seconds per emulated second. At the heavy rate the link is under
/// half busy (`netsim.busy_share` reports it), so the link is not the
/// bottleneck and gateway or client changes show through.
const TIME_SCALE: f64 = 0.002;
/// Light and heavy offered rates (msg/s), sized from the path's cost
/// without the compressor splice (see README.md).
pub const LIGHT_RATE: f64 = 120.0;
/// See [`LIGHT_RATE`].
pub const HEAVY_RATE: f64 = 400.0;
/// Longest light-rate schedule one deployment serves. With its warm-up a
/// deployment carries 376 messages, about 188 texts (σ ≈ 10), so the 256
/// compressed copies that fill the egress and start the splice stall are
/// 7σ away.
const LIGHT_SECS: f64 = 3.0;
/// Longest heavy-rate schedule one deployment serves: the same 376
/// messages as [`LIGHT_SECS`].
const HEAVY_SECS: f64 = 0.9;
/// p99 limit for a rate-search probe to pass.
const LIMIT_MS: f64 = 100.0;
/// Rate-search bracket and probe count: resolution 8^(1/2^6) ≈ 3.3%.
const SEARCH: (f64, f64, usize) = (200.0, 1600.0, 7);
/// Deployments built and torn down again before each timed phase;
/// `setup_s` is the median of their set-up times. Host speed drifts over
/// the seconds of a run, so batches spread over it give a steadier median
/// than one burst.
const SETUP_BATCH: usize = 4;
/// Messages sent before each timed phase, so threads, pools and the
/// client's distributor workers exist before timing starts.
const WARMUP: u64 = 16;
/// Images and texts in the input pool.
const POOL_PER_CLASS: usize = 64;
/// How long outputs may trail the last post before they count as lost.
const DRAIN: Duration = Duration::from_millis(1500);
/// Client distributor threads (the testbed default).
const CLIENT_THREADS: usize = 4;

/// The benchmark's `Transport`: forwards frames onto the link (like the
/// testbed's `LinkTransport`) and, in the traced run, stamps the
/// gateway→link boundary.
struct BenchTransport {
    sender: LinkSender,
    spans: Option<Arc<Spans>>,
}

impl Transport for BenchTransport {
    fn send(&self, wire: &[u8]) -> Result<(), String> {
        if let Some(s) = &self.spans {
            if let Some(seq) = gen::seq_of_wire(wire) {
                s.stamp(&s.send, seq, Instant::now());
            }
        }
        if self.sender.send(wire.to_vec()) {
            Ok(())
        } else {
            Err("link queue full or link down".into())
        }
    }
}

/// One deployed gateway → link → client testbed.
struct Deployment {
    server: MobiGate,
    stream: Arc<RunningStream>,
    link: WirelessLink,
    client: Arc<MobiGateClient>,
    pump_stop: Arc<AtomicBool>,
    pump: Option<JoinHandle<()>>,
    setup_s: f64,
}

fn defs() -> String {
    format!(
        "{}\n{}\nstreamlet communicator {{\n    port {{ in pi : */*; }}\n    attribute {{ type = STATELESS; library = \"builtin/communicator\"; }}\n}}\n",
        mobigate::streamlets::standard_defs(),
        mobigate::streamlets::batch::defs(),
    )
}

fn script() -> String {
    format!("{}\n{ACCELERATOR}", defs())
}

fn deploy(traced: bool, spans: Option<Arc<Spans>>) -> Deployment {
    let t0 = Instant::now();
    let server = MobiGate::with_config(
        ServerConfig {
            telemetry: if traced {
                TelemetryConfig::enabled()
            } else {
                TelemetryConfig::default()
            },
            ..ServerConfig::default()
        },
        Arc::new(StreamletDirectory::new()),
        Arc::new(StreamletPool::new(64)),
    );
    mobigate::streamlets::register_builtins(server.directory());
    let (link, sender, receiver) = WirelessLink::spawn(LinkConfig {
        bandwidth_bps: LINK_BPS,
        propagation_delay: LINK_DELAY,
        time_scale: TIME_SCALE,
        queue_limit: usize::MAX,
        ..Default::default()
    });
    let transport = Arc::new(BenchTransport {
        sender,
        spans: spans.clone(),
    });
    Communicator::register(server.directory(), transport);
    let peers = ClientStreamletPool::new();
    peers.register_peer(DECOMPRESS_PEER, || Box::new(TextDecompress));
    peers.register_peer(DECRYPT_PEER, || Box::new(Decrypt::new(DEFAULT_KEY)));
    peers.register_peer(DISAGGREGATE_PEER, || Box::new(Disaggregate));
    let client = MobiGateClient::new(peers, CLIENT_THREADS);
    let (pump_stop, pump) = spawn_pump(receiver, client.clone(), spans);

    let stream = server
        .deploy_mcl(&script())
        .expect("deploy the Fig 7-7 composition");
    server.raise_event(&ContextEvent::broadcast(EventKind::LowBandwidth));
    assert!(
        stream.instance_names().iter().any(|n| n == "comp"),
        "LOW_BANDWIDTH must splice the compressor in"
    );
    Deployment {
        server,
        stream,
        link,
        client,
        pump_stop,
        pump: Some(pump),
        setup_s: t0.elapsed().as_secs_f64(),
    }
}

/// Set-up time is taken on deployments built for nothing else, each torn
/// down before the next; the caller joins earlier teardowns first, so no
/// phase's traffic or teardown overlaps it.
fn setup_batch(traced: bool) -> Vec<f64> {
    (0..SETUP_BATCH)
        .map(|_| {
            let d = deploy(traced, None);
            let setup_s = d.setup_s;
            d.teardown();
            setup_s
        })
        .collect()
}

fn spawn_pump(
    receiver: LinkReceiver,
    client: Arc<MobiGateClient>,
    spans: Option<Arc<Spans>>,
) -> (Arc<AtomicBool>, JoinHandle<()>) {
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = stop.clone();
    let pump = std::thread::Builder::new()
        .name("bench-pump".into())
        .spawn(move || {
            while !stop2.load(Ordering::Acquire) {
                if let Some(frame) = receiver.recv(Duration::from_millis(20)) {
                    if let Some(s) = &spans {
                        if let Some(seq) = gen::seq_of_wire(&frame) {
                            s.stamp(&s.submit, seq, Instant::now());
                        }
                    }
                    client.submit_wire(frame);
                }
            }
        })
        .expect("spawn pump");
    (stop, pump)
}

impl Deployment {
    fn teardown(mut self) {
        self.server.coordination().shutdown_all();
        self.pump_stop.store(true, Ordering::Release);
        if let Some(h) = self.pump.take() {
            h.join().expect("pump thread panicked");
        }
        self.client.shutdown();
        self.link.shutdown();
    }
}

struct WebSender<'a> {
    stream: &'a RunningStream,
    pool: &'a WebPool,
    buf: Vec<u8>,
    spans: Option<&'a Spans>,
}

impl Sender for WebSender<'_> {
    fn post(&mut self, seq: u64, due: Instant) -> bool {
        gen::wire_with_seq(seq, self.pool.base_wire(seq), &mut self.buf);
        if let Some(s) = self.spans {
            s.stamp(&s.due, seq, due);
            s.stamp(&s.post, seq, Instant::now());
        }
        self.stream.post_wire(&self.buf).is_ok()
    }
}

/// Output check: texts come back byte-identical after the client's
/// reversal; images decode at the down-sampled size.
fn check(pool: &WebPool, seq: u64, msg: &MimeMessage) -> bool {
    match pool.pick(seq) {
        (false, i) => msg.body[..] == pool.text_bodies[i][..],
        (true, _) => raster::Image::decode(&msg.body).is_ok_and(|(img, _, _)| {
            img.width == gen::IMAGE_SIDE / 2 && img.height == gen::IMAGE_SIDE / 2
        }),
    }
}

/// A phase on a fresh deployment, with what the layers report about it.
struct Measured {
    phase: PhaseOutcome,
    link: mobigate::netsim::LinkStats,
    link_backlog: u64,
    client: mobigate::client::ClientStats,
    depths: Depths,
    threads: u64,
    layers: Metrics,
    /// Span tables of the deployments this measurement covers.
    spans: Vec<Arc<Spans>>,
}

fn measure(
    pool: &WebPool,
    phase: &Phase,
    traced: bool,
    allocs: Option<fn() -> u64>,
    drain: Duration,
    teardowns: &mut Vec<JoinHandle<()>>,
) -> Measured {
    let spans = traced.then(|| Arc::new(Spans::new(phase.first_seq, phase.count())));
    let d = deploy(traced, spans.clone());
    let recv = |t: Duration| {
        let msg = d.client.recv(t)?;
        let at = Instant::now();
        let seq = gen::seq_of(&msg).unwrap_or(u64::MAX);
        if let Some(s) = &spans {
            s.stamp(&s.arrive, seq, at);
        }
        Some(Arrival {
            seq,
            at,
            ok: check(pool, seq, &msg),
        })
    };
    // Warm-up on the same deployment, then the timed phase.
    let warm = Phase {
        name: "warmup".into(),
        rate: 200.0,
        secs: WARMUP as f64 / 200.0,
        first_seq: phase.first_seq - WARMUP,
    };
    let mut sender = WebSender {
        stream: &d.stream,
        pool,
        buf: Vec::new(),
        spans: None,
    };
    run_phase(&warm, &mut sender, recv, DRAIN);
    let link0 = d.link.stats();
    sender.spans = spans.as_deref();
    let peaks = Peaks::default();
    let sample = || {
        let l = d.link.stats();
        peaks.observe(
            d.stream.stats().resident_bytes(),
            d.server.message_pool().stats().resident as u64,
            l.sent - l.delivered - l.lost,
        );
    };
    let every = traced.then_some(Duration::from_millis(50));
    let before = Counters::read(&d.server, allocs);
    let outcome = run_phase(phase, &mut sender, sampling(recv, every, sample), drain);
    let after = Counters::read(&d.server, allocs);
    let mut link = d.link.stats();
    link.delivered_bytes -= link0.delivered_bytes;
    link.busy_micros -= link0.busy_micros;
    link.sent -= link0.sent;
    link.delivered -= link0.delivered;
    let depths = Depths::parse(&d.stream.debug_depths());
    let mut layers = Metrics::default();
    if traced {
        crate::sessions::peak_layers(&peaks, &mut layers);
        layers.set(
            "netsim.backlog_max",
            peaks.link_backlog.load(Ordering::Relaxed) as f64,
            "count",
        );
        after.layers_since(&before, &outcome, &mut layers);
    }
    let end = d.link.stats();
    let m = Measured {
        phase: outcome,
        link,
        link_backlog: end.sent - end.delivered - end.lost,
        client: d.client.stats(),
        depths,
        threads: crate::procfs::threads(),
        layers,
        spans: spans.into_iter().collect(),
    };
    // A stalled deployment takes seconds to shut down (its streamlets
    // finish their Fig 6-9 waits first); that is not measured, so it runs
    // in the background while the next phase starts.
    teardowns.push(
        std::thread::Builder::new()
            .name("bench-teardown".into())
            .spawn(move || d.teardown())
            .expect("spawn teardown"),
    );
    m
}

fn conservation(m: &Measured) -> String {
    common::conservation_line(
        &m.phase,
        &[
            ("gateway_channels", m.depths.channel_dropped),
            ("link_lost", m.link.lost),
            ("link_rejected", m.link.rejected),
            ("client_parse", m.client.parse_errors),
            ("client_peer", m.client.peer_errors),
        ],
        &[("gateway", m.depths.in_flight()), ("link", m.link_backlog)],
    )
}

/// Hands out consecutive phases; each phase's warm-up takes the WARMUP
/// sequence numbers in front of it.
struct Schedule {
    next_seq: u64,
}

impl Schedule {
    fn phase(&mut self, name: &str, rate: f64, secs: f64) -> Phase {
        let p = Phase {
            name: name.into(),
            rate,
            secs,
            first_seq: self.next_seq + WARMUP,
        };
        self.next_seq = p.end_seq();
        p
    }
}

impl Measured {
    /// Folds another deployment's run of the same schedule into this one.
    /// The per-layer counters stay those of the last deployment.
    fn merge(&mut self, o: Measured) {
        self.phase.merge(o.phase);
        for (a, b) in [
            (&mut self.link.sent, o.link.sent),
            (&mut self.link.delivered, o.link.delivered),
            (&mut self.link.lost, o.link.lost),
            (&mut self.link.rejected, o.link.rejected),
            (&mut self.link.delivered_bytes, o.link.delivered_bytes),
            (&mut self.link.busy_micros, o.link.busy_micros),
            (&mut self.link_backlog, o.link_backlog),
            (&mut self.client.parse_errors, o.client.parse_errors),
            (&mut self.client.peer_errors, o.client.peer_errors),
        ] {
            *a += b;
        }
        self.client.threads = self.client.threads.max(o.client.threads);
        self.depths.add(o.depths);
        self.threads = self.threads.max(o.threads);
        self.layers = o.layers;
        self.spans.extend(o.spans);
    }
}

/// Runs `rate` for `total` seconds on fresh deployments of at most `per`
/// seconds each, with a set-up batch before each.
#[allow(clippy::too_many_arguments)]
fn series(
    name: &str,
    rate: f64,
    per: f64,
    total: f64,
    schedule: &mut Schedule,
    pool: &WebPool,
    opts: &Opts,
    setups: &mut Vec<f64>,
    teardowns: &mut Vec<JoinHandle<()>>,
    notes: &mut Vec<String>,
) -> Measured {
    let secs = per.min(total);
    let repeats = ((total / per).round() as usize).max(1);
    let mut all: Option<Measured> = None;
    for _ in 0..repeats {
        finish(std::mem::take(teardowns));
        setups.extend(setup_batch(opts.traced));
        let p = schedule.phase(name, rate, secs);
        let m = measure(pool, &p, opts.traced, opts.allocs, DRAIN, teardowns);
        notes.push(common::phase_line(&m.phase));
        notes.push(conservation(&m));
        match &mut all {
            None => all = Some(m),
            Some(a) => a.merge(m),
        }
    }
    all.expect("at least one deployment")
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Outcome {
    let pool = WebPool::new(opts.seed, POOL_PER_CLASS);
    let s = opts.seconds;
    let mut schedule = Schedule { next_seq: 0 };
    let mut out = Outcome::default();
    let mut teardowns = Vec::new();
    let mut setups = Vec::new();

    // Both rates run on short deployments, each carrying fewer texts than
    // the egress holds (see LIGHT_SECS), so every end-to-end metric
    // describes the path before the splice stall and no message of these
    // phases is lost to it. The stall phase of the traced run carries the
    // stall (see README.md).
    let light = series(
        "light",
        LIGHT_RATE,
        LIGHT_SECS,
        0.45 * s,
        &mut schedule,
        &pool,
        opts,
        &mut setups,
        &mut teardowns,
        &mut out.notes,
    );
    if opts.light_only {
        finish(teardowns);
        out.e2e.set(
            "p50_light_ms",
            Latency::windowed(&light.phase.latency_ms).p50,
            "ms",
        );
        out.attempted = light.phase.offered;
        out.failed = light.phase.failed();
        out.correct = light.phase.wrong == 0;
        return out;
    }
    let heavy = series(
        "heavy",
        HEAVY_RATE,
        HEAVY_SECS,
        0.3 * s,
        &mut schedule,
        &pool,
        opts,
        &mut setups,
        &mut teardowns,
        &mut out.notes,
    );
    let peak_rss_mib = crate::procfs::peak_rss_mib();
    out.notes.push(common::setup_line(&setups));

    // The stall: the heavy rate on one deployment for longer than the
    // egress holds. Its losses depend on how the Fig 6-9 waits fall, so
    // they are measured here (`e2e.stall_failed_ratio`), not counted as
    // failed operations.
    let stall = opts.traced.then(|| {
        finish(std::mem::take(&mut teardowns));
        let p = schedule.phase("stall", HEAVY_RATE, 0.15 * s);
        let m = measure(&pool, &p, false, None, DRAIN, &mut teardowns);
        out.notes.push(common::phase_line(&m.phase));
        out.notes.push(conservation(&m));
        m
    });

    // The rate search runs in the traced run only (see README.md).
    let max_rate = if !opts.traced {
        0.0
    } else {
        let limit = Duration::from_secs_f64(LIMIT_MS / 1e3);
        let mut notes = Vec::new();
        let max_rate = search_max_rate(
            SEARCH,
            LIMIT_MS,
            |rate| {
                let p = schedule.phase(&format!("probe{rate:.0}"), rate, 0.05 * s);
                // Anything arriving 3 limits after the last post fails the
                // probe anyway, so the probe waits no longer than that.
                let m = measure(&pool, &p, false, None, 3 * limit, &mut teardowns);
                notes.push(common::phase_line(&m.phase));
                notes.push(conservation(&m));
                m.phase
            },
            &mut Vec::new(),
        );
        out.notes.extend(notes);
        max_rate
    };
    finish(teardowns);

    out.attempted = light.phase.offered + heavy.phase.offered;
    out.failed = light.phase.failed() + heavy.phase.failed();
    out.correct = light.phase.wrong + heavy.phase.wrong == 0;
    out.notes.push(format!(
        "webaccel: link {LINK_BPS} b/s x scale {TIME_SCALE}, light {LIGHT_RATE}/s, heavy {HEAVY_RATE}/s (deployments of at most {LIGHT_SECS} s / {HEAVY_SECS} s), limit {LIMIT_MS} ms, failed_ratio {:.4} (base: {} offered at the heavy rate)",
        heavy.phase.failed() as f64 / heavy.phase.offered.max(1) as f64,
        heavy.phase.offered
    ));
    if let Some(st) = &stall {
        out.notes.push(format!(
            "webaccel stall: failed_ratio {:.4} (base: {} offered at {HEAVY_RATE}/s on one deployment), egress {} copies",
            st.phase.failed() as f64 / st.phase.offered.max(1) as f64,
            st.phase.offered,
            st.depths.egress_len
        ));
    }
    let inputs = E2eInputs {
        setups: &setups,
        light: &light.phase,
        heavy: &heavy.phase,
        max_rate,
        air_bytes: heavy.link.delivered_bytes,
        peak_rss_mib,
        // Splice and under-traffic spawn figures belong to `adapt`.
        reconfigs: &[],
        spawns: &[],
    };
    out.e2e = common::e2e_metrics(&inputs);
    out.late_p99_ms = common::late_p99(&heavy.phase);
    if opts.traced {
        let stall = stall.as_ref().expect("the traced run measures the stall");
        out.layers = layers(opts, &pool, &light, &heavy, stall);
        common::unbounded_e2e_metrics(&inputs, &mut out.layers);
        // The waterfall covers the light deployments: the path before the
        // splice stall, whose p50 `trace.overhead_ratio` compares.
        let rows = light.spans.iter().flat_map(|s| s.rows()).collect();
        common::waterfall(rows, true, &mut out.layers, &mut out.spans_jsonl);
        let client99 = out.layers.get("span.client_ms_p99").unwrap_or(0.0);
        out.layers
            .set("client.dispatch_us_p99", client99 * 1e3, "us");
    }
    out
}

/// Joins the background teardowns.
fn finish(teardowns: Vec<JoinHandle<()>>) {
    for h in teardowns {
        h.join().expect("teardown thread panicked");
    }
}

fn layers(
    opts: &Opts,
    pool: &WebPool,
    light: &Measured,
    heavy: &Measured,
    stall: &Measured,
) -> Metrics {
    let mut m = Metrics::default();
    let script = script();
    let probe = MobiGate::with_config(
        ServerConfig::default(),
        Arc::new(StreamletDirectory::new()),
        Arc::new(StreamletPool::new(8)),
    );
    m.set(
        "mcl.compile_ms",
        common::time_ms(5, || drop(probe.compile(&script))),
        "ms",
    );
    m.set(
        "mcl.template_ms",
        common::time_ms(5, || drop(probe.session_manager(&script))),
        "ms",
    );
    m.set(
        "core.stream.egress_delivered",
        stall.depths.egress_len as f64,
        "count",
    );
    m.set(
        "e2e.stall_failed_ratio",
        stall.phase.failed() as f64 / stall.phase.offered.max(1) as f64,
        "ratio",
    );
    m.set(
        "e2e.stall_p99_ms",
        Latency::windowed(&stall.phase.latency_ms).p99,
        "ms",
    );
    for (k, v, u) in heavy.layers.entries() {
        m.set(&k, v, u);
    }
    m.set("process.threads", heavy.threads as f64, "count");
    codec_layers(pool, &mut m);
    let wall = heavy.phase.wall_s.max(1e-9);
    m.set(
        "netsim.busy_share",
        heavy.link.busy_micros as f64 * TIME_SCALE / 1e6 / wall,
        "ratio",
    );
    m.set("netsim.lost", heavy.link.lost as f64, "count");
    m.set("netsim.rejected", heavy.link.rejected as f64, "count");
    m.set("client.threads", heavy.client.threads as f64, "count");
    m.set(
        "client.peer_errors",
        heavy.client.peer_errors as f64,
        "count",
    );
    common::trace_overhead(opts, &light.phase, &mut m);
    m
}

/// Single-threaded codec and MIME timings on the run's own inputs (µs per
/// call, median over the pool).
fn codec_layers(pool: &WebPool, m: &mut Metrics) {
    let us = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        t.elapsed().as_secs_f64() * 1e6
    };
    let (mut g2j, mut ds, mut comp, mut decomp, mut to_w, mut from_w) =
        (vec![], vec![], vec![], vec![], vec![], vec![]);
    for wire in &pool.images {
        let msg = MimeMessage::from_wire(wire).expect("pool image parses");
        let (img, _, _) = raster::Image::decode(&msg.body).expect("pool image decodes");
        g2j.push(us(&mut || {
            let (i, _, _) = raster::Image::decode(std::hint::black_box(&msg.body)).expect("decode");
            std::hint::black_box(i.encode(raster::Encoding::Quantized, 40));
        }));
        ds.push(us(&mut || {
            let small = raster::downsample(std::hint::black_box(&img), 2);
            std::hint::black_box(small.encode(raster::Encoding::Quantized, 40));
        }));
    }
    for (wire, body) in pool.texts.iter().zip(&pool.text_bodies) {
        let mut packed = Vec::new();
        comp.push(us(&mut || {
            packed = lzss::compress(std::hint::black_box(body))
        }));
        decomp.push(us(&mut || {
            std::hint::black_box(lzss::decompress(std::hint::black_box(&packed)));
        }));
        let mut parsed = None;
        from_w.push(us(&mut || {
            parsed = MimeMessage::from_wire(std::hint::black_box(wire)).ok()
        }));
        let msg = parsed.expect("pool text parses");
        to_w.push(us(&mut || {
            std::hint::black_box(msg.to_wire());
        }));
    }
    let med = |v: &[f64]| crate::stats::median(v).unwrap_or(0.0);
    m.set("streamlets.gif2jpeg_us", med(&g2j), "us");
    m.set("streamlets.downsample_us", med(&ds), "us");
    m.set("streamlets.text_compress_us", med(&comp), "us");
    m.set("streamlets.text_decompress_us", med(&decomp), "us");
    m.set("mime.to_wire_us", med(&to_w), "us");
    m.set("mime.from_wire_us", med(&from_w), "us");
}
