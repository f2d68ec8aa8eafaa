//! `adapt`: 100 sessions of a text chain (two redirectors →
//! `communicator`) on the reactor back end, with the coordination plane
//! busy beside the data path. At a fixed cadence the sender alternates two
//! side actions:
//!
//! * a splice: a targeted `LOW_BANDWIDTH` or `HIGH_BANDWIDTH` event
//!   (`MobiGate::raise_event`) whose `when` rule splices a text compressor
//!   into, or back out of, the next session in turn — both directions are
//!   MCL rules, so no splice goes through the Rust API;
//! * churn: a session is spawned and the oldest churned one torn down.
//!
//! Every output must arrive in per-session FIFO order with its original
//! text (decompressed when it crossed the compressor), so a splice that
//! loses or reorders a message fails the check.

use crate::common::{self, Counters, E2eInputs, Opts, Outcome, Spans};
use crate::fleet::Fleet;
use crate::gen::{self, streams, WireView};
use crate::load::{run_phase, search_max_rate, Peaks, Phase, Sender};
use crate::report::Metrics;
use crate::stats::{median, Latency};
use mobigate::core::events::ContextEvent;
use mobigate::core::{EventKind, ReconfigStats, RunningStream};
use mobigate::streamlets::codec::lzss;
use mobigate::streamlets::workload::MessageMix;
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sessions carrying traffic.
pub const SESSIONS: usize = 100;
/// Text body bytes.
pub const BODY_LEN: usize = 1024;
/// Light and heavy offered rates (msg/s): about 17% and 35% of the
/// `e2e.max_rate_mps` this workload measures on a 2-vCPU host.
pub const LIGHT_RATE: f64 = 5000.0;
/// See [`LIGHT_RATE`].
pub const HEAVY_RATE: f64 = 10000.0;
/// Side-action cadence: splices and churn alternate, so each happens
/// every two periods.
const SIDE_PERIOD: Duration = Duration::from_millis(50);
/// Churned sessions alive at once (the oldest is torn down on each
/// spawn beyond this).
const CHURN_KEEP: usize = 4;
/// p99 limit for a rate-search probe to pass.
const LIMIT_MS: f64 = 50.0;
/// Rate-search bracket and probe count: resolution 32^(1/2^7) ≈ 2.7%.
const SEARCH: (f64, f64, usize) = (4000.0, 128000.0, 8);
/// Gateways built and torn down again at the start of a run and again
/// after the heavy phase (once `VmHWM` is read), spaced out as
/// [`Fleet::setup_batch`] describes; `setup_s` is the median over these
/// and the gateway that carries the traffic. Host speed drifts over the
/// seconds of a run, so set-ups at both ends of it give a steadier median
/// than one batch.
const SETUP_BATCH: usize = 15;
/// Texts in the input pool.
const POOL: usize = 64;
/// Seconds of heavy-rate traffic sent before timing starts: the pools,
/// the reactor's workers and the host's vCPUs are all warm when the first
/// timed phase begins.
const WARMUP_SECS: f64 = 1.0;
/// How long outputs may trail the last post before they count as lost.
const DRAIN: Duration = Duration::from_millis(1000);
/// Longest wait for a session's outputs before its splice-out.
const QUIESCE: Duration = Duration::from_millis(50);

const TEMPLATE: &str = r#"
main stream app {
    streamlet r0 = new-streamlet (redirector);
    streamlet r1 = new-streamlet (redirector);
    streamlet out = new-streamlet (communicator);
    connect (r0.po, r1.pi);
    connect (r1.po, out.pi);
    when (LOW_BANDWIDTH) {
        streamlet comp = new-streamlet (text_compress);
        insert (r1.po, out.pi, comp);
    }
    when (HIGH_BANDWIDTH) {
        remove-streamlet (comp);
        connect (r1.po, out.pi);
    }
}
"#;

/// The seeded text pool (an all-text `MessageMix`).
fn texts(seed: u64) -> Vec<Vec<u8>> {
    MessageMix::new(seed, 0, 0, BODY_LEN)
        .take(POOL)
        .map(|m| m.body.to_vec())
        .collect()
}

fn pick(seed: u64, seq: u64) -> (usize, usize) {
    let session = (gen::unit(seed, streams::SESSION, seq) * SESSIONS as f64) as usize;
    let text = (gen::unit(seed, streams::PICK, seq) * POOL as f64) as usize;
    (session.min(SESSIONS - 1), text.min(POOL - 1))
}

/// What the side actions measured.
#[derive(Default)]
struct SideLog {
    splice_s: Vec<f64>,
    eq71: Vec<ReconfigStats>,
    splice_errors: u64,
    /// Splice-outs that went ahead with the session's outputs still
    /// outstanding after [`QUIESCE`].
    quiesce_timeouts: u64,
    spawn_s: Vec<f64>,
    teardown_s: Vec<f64>,
}

struct AdaptSender<'a> {
    fleet: &'a Fleet,
    texts: &'a [Vec<u8>],
    seed: u64,
    buf: Vec<u8>,
    spans: Option<Arc<Spans>>,
    side_actions: bool,
    compressed: Vec<bool>,
    /// Accepted posts per session.
    posted: Vec<u64>,
    /// Splice a compressor out only once its session has no output
    /// outstanding (see [`AdaptSender::splice`]).
    quiesce: bool,
    next_splice: usize,
    churn: VecDeque<Arc<RunningStream>>,
    log: SideLog,
}

impl Sender for AdaptSender<'_> {
    fn post(&mut self, seq: u64, due: Instant) -> bool {
        let (session, text) = pick(self.seed, seq);
        gen::text_wire(seq, &self.texts[text], &mut self.buf);
        if let Some(s) = &self.spans {
            s.stamp(&s.due, seq, due);
            s.stamp(&s.post, seq, Instant::now());
        }
        let ok = self.fleet.streams[session].post_wire(&self.buf).is_ok();
        self.posted[session] += u64::from(ok);
        ok
    }

    fn side_period(&self) -> Option<Duration> {
        self.side_actions.then_some(SIDE_PERIOD)
    }

    fn side(&mut self, k: u64) {
        if k.is_multiple_of(2) {
            self.splice();
        } else {
            self.churn();
        }
    }
}

impl AdaptSender<'_> {
    /// Toggles the compressor of the next session through its MCL rules.
    ///
    /// The splice-out rule (`remove-streamlet (comp); connect (r1.po,
    /// out.pi);`) reactivates `r1` before the reconnect, so an output `r1`
    /// emits in between is dropped unrouted (see README.md). How many such
    /// drops a run sees depends on timing, and an operation of the light
    /// and heavy phases must not fail by timing, so with `quiesce` the
    /// sender first waits until every post of the session has come out.
    /// The rate search splices without waiting and counts the drops.
    fn splice(&mut self) {
        let i = self.next_splice;
        self.next_splice = (i + 1) % SESSIONS;
        let stream = &self.fleet.streams[i];
        let kind = if self.compressed[i] {
            if self.quiesce {
                let deadline = Instant::now() + QUIESCE;
                while self.fleet.arrived[i].load(Ordering::Acquire) < self.posted[i] {
                    if Instant::now() >= deadline {
                        self.log.quiesce_timeouts += 1;
                        break;
                    }
                    // The outputs need the reactor's workers; on a host
                    // with as many vCPUs as workers, spinning would delay
                    // them.
                    std::thread::yield_now();
                }
            }
            EventKind::HighBandwidth
        } else {
            EventKind::LowBandwidth
        };
        let before = stream.stats().reconfigurations;
        let t = Instant::now();
        self.fleet
            .server
            .raise_event(&ContextEvent::targeted(kind, stream.session().as_str()));
        self.log.splice_s.push(t.elapsed().as_secs_f64());
        self.compressed[i] = !self.compressed[i];
        match stream.last_reconfig() {
            Some(r) if stream.stats().reconfigurations > before && r.errors == 0 => {
                self.log.eq71.push(r)
            }
            _ => self.log.splice_errors += 1,
        }
    }

    fn churn(&mut self) {
        let t = Instant::now();
        let s = self.fleet.manager.spawn().expect("spawn churn session");
        self.log.spawn_s.push(t.elapsed().as_secs_f64());
        self.churn.push_back(s);
        if self.churn.len() > CHURN_KEEP {
            let old = self.churn.pop_front().expect("non-empty churn queue");
            let t = Instant::now();
            self.fleet.manager.teardown(old.session());
            self.log.teardown_s.push(t.elapsed().as_secs_f64());
        }
    }
}

fn check(texts: &[Vec<u8>], seed: u64, session: usize, seq: u64, view: &WireView) -> bool {
    let (want_session, text) = pick(seed, seq);
    if session != want_session {
        return false;
    }
    if view.content_type == Some("text/x-lzss") {
        lzss::decompress(view.body).is_some_and(|b| b == texts[text])
    } else {
        view.body == &texts[text][..]
    }
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Outcome {
    let texts = texts(opts.seed);
    let s = opts.seconds;
    let mut out = Outcome::default();

    let (mut setups, _) =
        Fleet::setup_batch(TEMPLATE, SESSIONS, opts.traced, SETUP_BATCH);
    // Built right after the last timed set-up, so it is warm like them.
    let fleet = Fleet::new(TEMPLATE, SESSIONS, opts.traced);
    setups.push(fleet.setup_s);
    let mut sender = AdaptSender {
        fleet: &fleet,
        texts: &texts,
        seed: opts.seed,
        buf: Vec::new(),
        spans: None,
        side_actions: true,
        compressed: vec![false; SESSIONS],
        posted: vec![0; SESSIONS],
        quiesce: true,
        next_splice: 0,
        churn: VecDeque::new(),
        log: SideLog::default(),
    };

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
    let go = |sender: &mut AdaptSender,
              p: &Phase,
              spans: Option<Arc<Spans>>,
              peaks: Option<&Peaks>,
              drain| {
        sender.spans = spans.clone();
        fleet.set_spans(spans.clone());
        let texts = &texts;
        let seed = opts.seed;
        let recv = fleet.receiver(spans, peaks, move |session, seq, view: &WireView| {
            check(texts, seed, session, seq, view)
        });
        let o = run_phase(p, sender, recv, drain);
        fleet.set_spans(None);
        o
    };
    let warm = phase("warmup", HEAVY_RATE, WARMUP_SECS);
    go(&mut sender, &warm, None, None, DRAIN);
    sender.log = SideLog::default();

    let light_p = phase("light", LIGHT_RATE, 0.4 * s);
    let light_spans = opts
        .traced
        .then(|| Arc::new(Spans::new(light_p.first_seq, light_p.count())));
    let light = go(&mut sender, &light_p, light_spans.clone(), None, DRAIN);
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
    let heavy = go(
        &mut sender,
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
    // Emissions lost while a splice-out leaves `r1.po` unbound (see
    // README.md) are the one drop reason the channels do not count.
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
    // Splice and churn figures cover the light and heavy phases.
    let log = std::mem::take(&mut sender.log);

    // The rate search runs in the traced run only (see README.md). Its
    // splice-outs do not wait for their session (see `splice`), so it
    // counts the unrouted drops of the splice-out rule.
    let unrouted_search0 = fleet.unrouted();
    let max_rate = if !opts.traced {
        0.0
    } else {
        sender.quiesce = false;
        let limit = Duration::from_secs_f64(LIMIT_MS / 1e3);
        search_max_rate(
            SEARCH,
            LIMIT_MS,
            |rate| {
                let p = phase(&format!("probe{rate:.0}"), rate, 0.05 * s);
                let o = go(&mut sender, &p, None, None, 3 * limit);
                fleet.settle();
                o
            },
            &mut out.notes,
        )
    };
    let unrouted_search = fleet.unrouted() - unrouted_search0;
    for old in std::mem::take(&mut sender.churn) {
        fleet.manager.teardown(old.session());
    }

    out.attempted = light.offered + heavy.offered;
    out.failed = light.failed() + heavy.failed();
    out.correct = light.wrong + heavy.wrong == 0;
    out.notes.push(format!(
        "adapt: {SESSIONS} sessions, {BODY_LEN} B texts, reactor x {} workers, light {LIGHT_RATE}/s, heavy {HEAVY_RATE}/s, a splice every {:?} and a spawn+teardown every {:?} (both via the sender thread; splices through MCL `when` rules), {} splices ({} without a completed reconfiguration, {} splice-outs with outputs still outstanding after {QUIESCE:?}), {unrouted_search} unrouted drops in the rate search, limit {LIMIT_MS} ms, failed_ratio {:.4} (base: {} offered at the heavy rate)",
        crate::procfs::nproc(),
        SIDE_PERIOD * 2,
        SIDE_PERIOD * 2,
        log.splice_s.len(),
        log.splice_errors,
        log.quiesce_timeouts,
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
        reconfigs: &log.splice_s,
        spawns: &log.spawn_s,
    };
    out.e2e = common::e2e_metrics(&inputs);
    out.late_p99_ms = common::late_p99(&heavy);
    if opts.traced {
        let mut m = Metrics::default();
        common::unbounded_e2e_metrics(&inputs, &mut m);
        m.set("mcl.template_ms", fleet.template_s * 1e3, "ms");
        let script = format!("{}\n{TEMPLATE}", crate::fleet::defs());
        m.set(
            "mcl.compile_ms",
            common::time_ms(5, || drop(fleet.server.compile(&script))),
            "ms",
        );
        crate::sessions::session_layers(&log.spawn_s, &log.teardown_s, &mut m);
        after.layers_since(&before, &heavy, &mut m);
        crate::sessions::peak_layers(&peaks, &mut m);
        m.set(
            "core.streamlet.unrouted_drops",
            unrouted_search as f64,
            "count",
        );
        eq71_layers(&log.eq71, &mut m);
        let seed = opts.seed;
        crate::sessions::mime_layers(
            |seq, buf| gen::text_wire(seq, &texts[pick(seed, seq).1], buf),
            &mut m,
        );
        common::trace_overhead(opts, &light, &mut m);
        m.set("process.threads", crate::procfs::threads() as f64, "count");
        if let Some(sp) = &light_spans {
            common::waterfall(sp.rows(), false, &mut m, &mut out.spans_jsonl);
        }
        out.layers = m;
    }
    drop(sender);
    fleet.teardown();
    out
}

/// Equation 7-1 phases of the splices, medians in µs.
fn eq71_layers(stats: &[ReconfigStats], m: &mut Metrics) {
    let us = |f: fn(&ReconfigStats) -> Duration| {
        let v: Vec<f64> = stats.iter().map(|r| f(r).as_secs_f64() * 1e6).collect();
        median(&v).unwrap_or(0.0)
    };
    m.set(
        "core.stream.reconfig_suspend_us",
        us(|r| r.suspension_time),
        "us",
    );
    m.set(
        "core.stream.reconfig_channel_us",
        us(|r| r.channel_time),
        "us",
    );
    m.set(
        "core.stream.reconfig_activate_us",
        us(|r| r.activation_time),
        "us",
    );
}
