//! `sessions`: 1,000 concurrent sessions stamped from one template (three
//! redirectors → `communicator`) on the reactor back end. Each 64-byte
//! message goes to a session drawn from a Zipf(1) distribution, so a few
//! sessions are hot and most are nearly idle. There are no codecs and no
//! link: per-message cost in queues, the message pool, the executor,
//! routing and wire serialization is what this workload measures.

use crate::common::{self, Counters, E2eInputs, Opts, Outcome, Spans};
use crate::fleet::Fleet;
use crate::gen::{self, streams, WireView, Zipf};
use crate::load::{run_phase, search_max_rate, Peaks, Phase, PhaseOutcome, Sender};
use std::sync::atomic::Ordering;
use crate::report::Metrics;
use crate::stats::Latency;
use mobigate::mime::MimeMessage;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Concurrent sessions.
pub const SESSIONS: usize = 1000;
/// Message body bytes: the smallest size, where per-message cost
/// dominates.
pub const BODY_LEN: usize = 64;
/// Light and heavy offered rates (msg/s): about 13% and 33% of the
/// `e2e.max_rate_mps` this workload measures on a 2-vCPU host.
pub const LIGHT_RATE: f64 = 8000.0;
/// See [`LIGHT_RATE`].
pub const HEAVY_RATE: f64 = 20000.0;
/// p99 limit for a rate-search probe to pass.
const LIMIT_MS: f64 = 20.0;
/// Rate-search bracket and probe count: resolution 32^(1/2^7) ≈ 2.7%.
const SEARCH: (f64, f64, usize) = (4000.0, 128000.0, 8);
/// Gateways built and torn down again at the start of a run and again
/// after the heavy phase (once `VmHWM` is read), spaced out as
/// [`Fleet::setup_batch`] describes; `setup_s` is the median over these
/// and the gateway that carries the traffic. Host speed drifts over the
/// seconds of a run, so set-ups at both ends of it give a steadier median
/// than one batch.
const SETUP_BATCH: usize = 7;
/// Seconds of heavy-rate traffic sent before timing starts: the pools,
/// the reactor's workers and the host's vCPUs are all warm when the first
/// timed phase begins.
const WARMUP_SECS: f64 = 1.0;
/// How long outputs may trail the last post before they count as lost.
const DRAIN: Duration = Duration::from_millis(1000);

const TEMPLATE: &str = r#"
main stream app {
    streamlet r0 = new-streamlet (redirector);
    streamlet r1 = new-streamlet (redirector);
    streamlet r2 = new-streamlet (redirector);
    streamlet out = new-streamlet (communicator);
    connect (r0.po, r1.pi);
    connect (r1.po, r2.pi);
    connect (r2.po, out.pi);
}
"#;

struct SessionSender<'a> {
    fleet: &'a Fleet,
    zipf: &'a Zipf,
    seed: u64,
    buf: Vec<u8>,
    spans: Option<Arc<Spans>>,
}

impl Sender for SessionSender<'_> {
    fn post(&mut self, seq: u64, due: Instant) -> bool {
        let i = self.zipf.rank(gen::unit(self.seed, streams::SESSION, seq));
        gen::text_wire(seq, &gen::body(self.seed, seq, BODY_LEN), &mut self.buf);
        if let Some(s) = &self.spans {
            s.stamp(&s.due, seq, due);
            s.stamp(&s.post, seq, Instant::now());
        }
        self.fleet.streams[i].post_wire(&self.buf).is_ok()
    }
}

/// Runs `phase` on the fleet, checking that each output carries the
/// session its sequence number was drawn for and its original body.
fn phase_on(
    fleet: &Fleet,
    zipf: &Zipf,
    seed: u64,
    phase: &Phase,
    spans: Option<Arc<Spans>>,
    peaks: Option<&Peaks>,
    drain: Duration,
) -> PhaseOutcome {
    fleet.set_spans(spans.clone());
    let mut sender = SessionSender {
        fleet,
        zipf,
        seed,
        buf: Vec::new(),
        spans: spans.clone(),
    };
    let recv = fleet.receiver(spans, peaks, move |session, seq, view: &WireView| {
        session == zipf.rank(gen::unit(seed, streams::SESSION, seq))
            && view.body == &gen::body(seed, seq, BODY_LEN)[..]
    });
    let out = run_phase(phase, &mut sender, recv, drain);
    fleet.set_spans(None);
    out
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Outcome {
    let zipf = Zipf::new(SESSIONS, 1.0);
    let s = opts.seconds;
    let mut out = Outcome::default();

    let (mut setups, teardowns) =
        Fleet::setup_batch(TEMPLATE, SESSIONS, opts.traced, SETUP_BATCH);
    // Built right after the last timed set-up, so it is warm like them.
    let fleet = Fleet::new(TEMPLATE, SESSIONS, opts.traced);
    setups.push(fleet.setup_s);

    let mut seq = 0u64;
    let mut phase = |name: &str, rate: f64, secs: f64| {
        let p = Phase {
            name: name.into(),
            rate,
            secs,
            first_seq: seq,
        };
        seq = p.end_seq();
        p
    };
    let warm = phase("warmup", HEAVY_RATE, WARMUP_SECS);
    phase_on(&fleet, &zipf, opts.seed, &warm, None, None, DRAIN);

    let spans = |p: &Phase| {
        opts.traced
            .then(|| Arc::new(Spans::new(p.first_seq, p.count())))
    };
    let light_p = phase("light", LIGHT_RATE, 0.4 * s);
    let light_spans = spans(&light_p);
    let light = phase_on(
        &fleet,
        &zipf,
        opts.seed,
        &light_p,
        light_spans.clone(),
        None,
        DRAIN,
    );
    out.notes.push(common::phase_line(&light));
    if opts.light_only {
        out.e2e.set(
            "p50_light_ms",
            Latency::windowed(&light.latency_ms).p50,
            "ms",
        );
        out.attempted = light.offered;
        out.failed = light.failed();
        out.correct = light.wrong == 0;
        fleet.teardown();
        return out;
    }

    let before = Counters::read(&fleet.server, opts.allocs);
    let sink_bytes0 = fleet.sink.bytes.load(Ordering::Relaxed);
    let unrouted0 = fleet.unrouted();
    let heavy_p = phase("heavy", HEAVY_RATE, 0.4 * s);
    let peaks = Peaks::default();
    let heavy = phase_on(
        &fleet,
        &zipf,
        opts.seed,
        &heavy_p,
        None,
        opts.traced.then_some(&peaks),
        DRAIN,
    );
    let peak_rss_mib = crate::procfs::peak_rss_mib();
    let after = Counters::read(&fleet.server, opts.allocs);
    let sink_bytes = fleet.sink.bytes.load(Ordering::Relaxed) - sink_bytes0;
    let depths = fleet.depths();
    setups.extend(Fleet::setup_batch(TEMPLATE, SESSIONS, opts.traced, SETUP_BATCH).0);
    let unrouted = fleet.unrouted() - unrouted0;
    out.notes.push(common::setup_line(&setups));
    out.notes.push(common::phase_line(&heavy));
    out.notes.push(common::conservation_line(
        &heavy,
        &[
            ("gateway_channels", depths.channel_dropped),
            ("unrouted", unrouted),
        ],
        &[("gateway", depths.in_flight())],
    ));

    // The rate search runs in the traced run only (see README.md).
    let max_rate = if !opts.traced {
        0.0
    } else {
        let limit = Duration::from_secs_f64(LIMIT_MS / 1e3);
        search_max_rate(
            SEARCH,
            LIMIT_MS,
            |rate| {
                let p = phase(&format!("probe{rate:.0}"), rate, 0.05 * s);
                let o = phase_on(&fleet, &zipf, opts.seed, &p, None, None, 3 * limit);
                fleet.settle();
                o
            },
            &mut out.notes,
        )
    };

    out.attempted = light.offered + heavy.offered;
    out.failed = light.failed() + heavy.failed();
    out.correct = light.wrong + heavy.wrong == 0;
    out.notes.push(format!(
        "sessions: {SESSIONS} sessions, {BODY_LEN} B bodies, Zipf(1), reactor x {} workers, light {LIGHT_RATE}/s, heavy {HEAVY_RATE}/s, limit {LIMIT_MS} ms, failed_ratio {:.4} (base: {} offered at the heavy rate)",
        crate::procfs::nproc(),
        heavy.failed() as f64 / heavy.offered.max(1) as f64,
        heavy.offered
    ));
    let inputs = E2eInputs {
        setups: &setups,
        light: &light,
        heavy: &heavy,
        max_rate,
        air_bytes: sink_bytes,
        peak_rss_mib,
        // Splice and under-traffic spawn figures belong to `adapt`.
        reconfigs: &[],
        spawns: &[],
    };
    out.e2e = common::e2e_metrics(&inputs);
    out.late_p99_ms = common::late_p99(&heavy);
    if opts.traced {
        let mut m = Metrics::default();
        common::unbounded_e2e_metrics(&inputs, &mut m);
        m.set("mcl.compile_ms", fleet_compile_ms(&fleet), "ms");
        m.set("mcl.template_ms", fleet.template_s * 1e3, "ms");
        session_layers(&fleet.spawn_s, &teardowns, &mut m);
        after.layers_since(&before, &heavy, &mut m);
        peak_layers(&peaks, &mut m);
        m.set("core.streamlet.unrouted_drops", unrouted as f64, "count");
        if let Some(sp) = &light_spans {
            common::waterfall(sp.rows(), false, &mut m, &mut out.spans_jsonl);
        }
        let seed = opts.seed;
        mime_layers(
            |seq, buf| gen::text_wire(seq, &gen::body(seed, seq, BODY_LEN), buf),
            &mut m,
        );
        common::trace_overhead(opts, &light, &mut m);
        m.set("process.threads", crate::procfs::threads() as f64, "count");
        out.layers = m;
    }
    fleet.teardown();
    out
}

fn fleet_compile_ms(fleet: &Fleet) -> f64 {
    let script = format!("{}\n{TEMPLATE}", crate::fleet::defs());
    common::time_ms(5, || drop(fleet.server.compile(&script)))
}

/// Sampled gauge maxima.
pub fn peak_layers(p: &Peaks, m: &mut Metrics) {
    use std::sync::atomic::Ordering::Relaxed;
    m.set(
        "core.stream.resident_bytes_max",
        p.resident_bytes.load(Relaxed) as f64,
        "B",
    );
    m.set(
        "core.pool.resident_max",
        p.pool_resident.load(Relaxed) as f64,
        "count",
    );
}

/// `core.session.*` from spawn and teardown timings.
pub fn session_layers(spawns: &[f64], teardowns: &[f64], m: &mut Metrics) {
    let us: Vec<f64> = spawns.iter().map(|s| s * 1e6).collect();
    let spawn = Latency::of(&us);
    m.set("core.session.spawn_us_p50", spawn.p50, "us");
    m.set("core.session.spawn_us_p99", spawn.p99, "us");
    let ms: Vec<f64> = teardowns.iter().map(|s| s * 1e3).collect();
    m.set("core.session.teardown_ms_p99", Latency::of(&ms).p99, "ms");
}

/// `mime.*` on a workload's own messages (`wire` builds message `seq`).
pub fn mime_layers(mut wire: impl FnMut(u64, &mut Vec<u8>), m: &mut Metrics) {
    let mut buf = Vec::new();
    let (mut to_w, mut from_w) = (vec![], vec![]);
    for seq in 0..2000 {
        wire(seq, &mut buf);
        let t = Instant::now();
        let msg = MimeMessage::from_wire(std::hint::black_box(&buf)).expect("parses");
        from_w.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        std::hint::black_box(msg.to_wire());
        to_w.push(t.elapsed().as_secs_f64() * 1e6);
    }
    m.set("mime.to_wire_us", Latency::of(&to_w).p50, "us");
    m.set("mime.from_wire_us", Latency::of(&from_w).p50, "us");
}
