//! Pieces every workload shares: options, span recording, the result
//! record, and the conversion of phase outcomes into named metrics.

use crate::load::PhaseOutcome;
use crate::report::Metrics;
use crate::stats::{median, quantile, Latency};
use mobigate::core::MobiGate;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Command-line options of one run.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Input seed.
    pub seed: u64,
    /// Measured seconds, split across the run's phases.
    pub seconds: f64,
    /// Traced run: telemetry on, spans recorded, per-layer metrics out.
    pub traced: bool,
    /// Run only the set-up and the light phase (the untraced reference
    /// for `trace.overhead_ratio`).
    pub light_only: bool,
    /// Untraced light-phase p50, when the caller measured it.
    pub untraced_light_p50: Option<f64>,
    /// Allocation counter of the traced binary's global allocator.
    pub allocs: Option<fn() -> u64>,
}

/// What a workload run produces.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metrics (untraced run).
    pub e2e: Metrics,
    /// Per-layer metrics (traced run).
    pub layers: Metrics,
    /// Messages offered in the light and heavy phases.
    pub attempted: u64,
    /// Of those, messages not delivered correct.
    pub failed: u64,
    /// No output failed its check.
    pub correct: bool,
    /// Report lines printed before the result (stamp, phases,
    /// conservation).
    pub notes: Vec<String>,
    /// Span records, one JSON object per line.
    pub spans_jsonl: Vec<String>,
    /// How late the sender ran at the heavy rate, p99 (ms): validity
    /// evidence for every latency figure of the run.
    pub late_p99_ms: f64,
}

/// Per-message boundary timestamps (ns since `epoch`; 0 = not seen),
/// indexed by sequence number relative to `first`. Each field is written
/// by the thread that owns that boundary; the table is read after the
/// phase, once every writer has been joined.
pub struct Spans {
    epoch: Instant,
    first: u64,
    /// The message was due by the open-loop schedule.
    pub due: Vec<AtomicU64>,
    /// `post_wire` called.
    pub post: Vec<AtomicU64>,
    /// The benchmark `Transport::send` entered.
    pub send: Vec<AtomicU64>,
    /// The pump received the frame and handed it to `submit_wire`.
    pub submit: Vec<AtomicU64>,
    /// `MobiGateClient::recv` (or the sink) returned the output.
    pub arrive: Vec<AtomicU64>,
}

fn zeroed(n: usize) -> Vec<AtomicU64> {
    (0..n).map(|_| AtomicU64::new(0)).collect()
}

impl Spans {
    /// A table for sequence numbers `first .. first + n`.
    pub fn new(first: u64, n: u64) -> Self {
        let n = n as usize;
        Spans {
            epoch: Instant::now(),
            first,
            due: zeroed(n),
            post: zeroed(n),
            send: zeroed(n),
            submit: zeroed(n),
            arrive: zeroed(n),
        }
    }

    /// Records `at` for `seq` in `column` (ignores sequence numbers
    /// outside the table).
    pub fn stamp(&self, column: &[AtomicU64], seq: u64, at: Instant) {
        if let Some(slot) = seq
            .checked_sub(self.first)
            .and_then(|i| column.get(i as usize))
        {
            let ns = at.saturating_duration_since(self.epoch).as_nanos() as u64;
            slot.store(ns.max(1), Ordering::Relaxed);
        }
    }

    /// The complete rows: `(seq, [due, post, send, submit, arrive])` in
    /// ns.
    pub fn rows(&self) -> Vec<(u64, [u64; 5])> {
        (0..self.post.len())
            .filter_map(|i| {
                let r = [
                    self.due[i].load(Ordering::Relaxed),
                    self.post[i].load(Ordering::Relaxed),
                    self.send[i].load(Ordering::Relaxed),
                    self.submit[i].load(Ordering::Relaxed),
                    self.arrive[i].load(Ordering::Relaxed),
                ];
                Some((self.first + i as u64, r))
                    .filter(|(_, r)| r[0] > 0 && r[1] > 0 && r[4] > 0)
            })
            .collect()
    }
}

/// Largest `span.sum_error_ratio` at which the spans are taken to cover
/// `webaccel`'s end-to-end path. The segments start when `post_wire` is
/// called, the latency at the due time; the gap between them is the
/// sender's wake-up lateness, about 7% of the light-rate latency on a
/// 2-vCPU host.
pub const SPAN_TOLERANCE: f64 = 0.10;

/// Waterfall from span-table rows ([`Spans::rows`]). Segments: gateway
/// (`post` → `send`), link (`send` → `submit`), client (`submit` →
/// `arrive`). Means are additive, so `span.sum_error_ratio` compares the
/// sum of the segment means with the mean end-to-end latency, which runs
/// from the *due* time (`due` → `arrive`): sender lateness and any other
/// time no span covers show up there.
pub fn waterfall(
    rows: Vec<(u64, [u64; 5])>,
    with_link: bool,
    m: &mut Metrics,
    jsonl: &mut Vec<String>,
) {
    let ms = |a: u64, b: u64| b.saturating_sub(a) as f64 / 1e6;
    let (mut g, mut l, mut c, mut e) = (vec![], vec![], vec![], vec![]);
    for (seq, [due, post, send, submit, arrive]) in rows {
        jsonl.push(format!(
            "{{\"seq\": {seq}, \"due_ns\": {due}, \"post_ns\": {post}, \"send_ns\": {send}, \"submit_ns\": {submit}, \"arrive_ns\": {arrive}}}"
        ));
        if send == 0 || (with_link && submit == 0) {
            continue;
        }
        e.push(ms(due, arrive));
        g.push(ms(post, send));
        if with_link {
            l.push(ms(send, submit));
            c.push(ms(submit, arrive));
        } else {
            c.push(ms(send, arrive));
        }
    }
    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    for (name, v) in [("gateway", &g), ("link", &l), ("client", &c)] {
        let lat = Latency::of(v);
        m.set(&format!("span.{name}_ms_p50"), lat.p50, "ms");
        m.set(&format!("span.{name}_ms_p99"), lat.p99, "ms");
    }
    let total = mean(&e);
    let parts = mean(&g) + mean(&l) + mean(&c);
    let err = if total > 0.0 {
        (total - parts).abs() / total
    } else {
        0.0
    };
    m.set("span.sum_error_ratio", err, "ratio");
}

/// `trace.overhead_ratio`: this (traced) run's light p50 over the
/// untraced reference run's, when the caller passed one.
pub fn trace_overhead(opts: &Opts, light: &PhaseOutcome, m: &mut Metrics) {
    let traced = Latency::windowed(&light.latency_ms).p50;
    let ratio = opts
        .untraced_light_p50
        .filter(|u| *u > 0.0)
        .map_or(0.0, |u| traced / u);
    m.set("trace.overhead_ratio", ratio, "ratio");
}

/// Median wall time (ms) of `n` calls of `f`.
pub fn time_ms(n: usize, mut f: impl FnMut()) -> f64 {
    let mut v: Vec<f64> = (0..n)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// p50/p99 (ms) over a list of durations in seconds.
pub fn ms_quantiles(secs: &[f64]) -> (f64, f64) {
    let ms: Vec<f64> = secs.iter().map(|s| s * 1e3).collect();
    let l = Latency::of(&ms);
    (l.p50, l.p99)
}

/// Inputs of the end-to-end metric set every workload reports.
pub struct E2eInputs<'a> {
    /// Set-up durations (s), one per set-up in the run.
    pub setups: &'a [f64],
    /// Light-rate phase.
    pub light: &'a PhaseOutcome,
    /// Heavy-rate phase.
    pub heavy: &'a PhaseOutcome,
    /// `e2e.max_rate_mps` from the rate search (traced run).
    pub max_rate: f64,
    /// Bytes the gateway put on the air (or handed to its transport) in
    /// the heavy phase.
    pub air_bytes: u64,
    /// `VmHWM` read right after the heavy phase (MiB), before the rate
    /// search builds its larger inputs.
    pub peak_rss_mib: f64,
    /// Splice durations (s).
    pub reconfigs: &'a [f64],
    /// Stream or session instantiation durations (s).
    pub spawns: &'a [f64],
}

/// p99 of the sender's lateness over a phase (ms).
pub fn late_p99(p: &PhaseOutcome) -> f64 {
    quantile(&p.late_ms, 0.99).unwrap_or(0.0)
}

/// The end-to-end metric set, in the order BENCHMARK.json lists it.
pub fn e2e_metrics(i: &E2eInputs) -> Metrics {
    let mut m = Metrics::default();
    let delivered = i.heavy.delivered.max(1) as f64;
    m.set("setup_s", median(i.setups).unwrap_or(0.0), "s");
    m.set("p50_ms", Latency::windowed(&i.heavy.latency_ms).p50, "ms");
    m.set(
        "p50_light_ms",
        Latency::windowed(&i.light.latency_ms).p50,
        "ms",
    );
    m.set(
        "delivered_ratio",
        i.heavy.delivered as f64 / i.heavy.offered.max(1) as f64,
        "ratio",
    );
    m.set("cpu_us_per_msg", i.heavy.cpu_s * 1e6 / delivered, "us");
    m.set("peak_rss_mib", i.peak_rss_mib, "MiB");
    m.set("air_bytes_per_msg", i.air_bytes as f64 / delivered, "B");
    m
}

/// End-to-end figures whose run-to-run spread on a shared 2-vCPU host is
/// wider than any usable bound — tails, control-plane timings and the
/// saturation rate, which vCPU steal and wake-up delays move by 20-40%
/// between runs. They are reported unbounded, from the traced run, beside
/// the per-layer metrics.
pub fn unbounded_e2e_metrics(i: &E2eInputs, m: &mut Metrics) {
    m.set(
        "e2e.p99_ms",
        Latency::windowed(&i.heavy.latency_ms).p99,
        "ms",
    );
    m.set(
        "e2e.p99_light_ms",
        Latency::windowed(&i.light.latency_ms).p99,
        "ms",
    );
    m.set("e2e.max_rate_mps", i.max_rate, "msg/s");
    let (r50, r99) = ms_quantiles(i.reconfigs);
    m.set("e2e.reconfig_p50_ms", r50, "ms");
    m.set("e2e.reconfig_p99_ms", r99, "ms");
    m.set("e2e.spawn_p99_ms", ms_quantiles(i.spawns).1, "ms");
}

/// The set-up line: how many set-ups `setup_s` is the median of, and
/// their range.
pub fn setup_line(setups: &[f64]) -> String {
    let ms = |q: f64| quantile(setups, q).unwrap_or(0.0) * 1e3;
    format!(
        "setup n={} min {:.3} ms median {:.3} ms max {:.3} ms",
        setups.len(),
        ms(0.0),
        ms(0.5),
        ms(1.0)
    )
}

/// One human-readable line per phase.
pub fn phase_line(p: &PhaseOutcome) -> String {
    let l = Latency::windowed(&p.latency_ms);
    format!(
        "phase {:<10} rate {:>8.1}/s offered {:>7} posted {:>7} refused {:>5} unsent {:>5} \
         delivered {:>7} wrong {} dup {} straggler {} p50 {:.3} ms p99 {:.3} ms (n={}) \
         late_p99 {:.3} ms wall {:.2} s",
        p.name,
        p.rate,
        p.offered,
        p.posted,
        p.refused,
        p.unsent,
        p.delivered,
        p.wrong,
        p.duplicates,
        p.stragglers,
        l.p50,
        l.p99,
        l.count,
        quantile(&p.late_ms, 0.99).unwrap_or(0.0),
        p.wall_s
    )
}

/// Gateway-side accounting read from `RunningStream::debug_depths`
/// (the one public view of per-channel drops and residency that works
/// with telemetry off).
#[derive(Debug, Default, Clone, Copy)]
pub struct Depths {
    /// Messages resident in interior channels.
    pub channel_len: u64,
    /// Messages dropped by interior channels (Fig 6-9 full-queue drops
    /// and other reason-coded drops).
    pub channel_dropped: u64,
    /// Outputs parked in instance overflow buffers.
    pub pending_out: u64,
    /// Messages waiting in ingress queues.
    pub ingress_len: u64,
    /// Copies sitting in the stream egress.
    pub egress_len: u64,
}

impl Depths {
    /// Parses the `debug_depths` report of one stream.
    pub fn parse(report: &str) -> Depths {
        let mut d = Depths::default();
        let num = |line: &str, key: &str| -> u64 {
            line.split_whitespace()
                .find_map(|w| w.strip_prefix(key))
                .and_then(|v| v.parse().ok())
                .unwrap_or(0)
        };
        for line in report.lines() {
            if line.starts_with("channel ") {
                d.channel_len += num(line, "len=");
                d.channel_dropped += num(line, "dropped=");
            } else if line.starts_with("instance ") {
                d.pending_out += num(line, "pending_out=");
            } else if line.starts_with("ingress ") {
                d.ingress_len += num(line, "len=");
            } else if line.starts_with("egress") {
                d.egress_len += num(line, "len=");
            }
        }
        d
    }

    /// Sums two reports.
    pub fn add(&mut self, o: Depths) {
        self.channel_len += o.channel_len;
        self.channel_dropped += o.channel_dropped;
        self.pending_out += o.pending_out;
        self.ingress_len += o.ingress_len;
        self.egress_len += o.egress_len;
    }

    /// Messages still inside the gateway.
    pub fn in_flight(&self) -> u64 {
        self.channel_len + self.pending_out + self.ingress_len
    }
}

/// The conservation line of one phase: offered = delivered + wrong +
/// refused + unsent + reason-coded drops + in flight + residual.
pub fn conservation_line(
    p: &PhaseOutcome,
    drops: &[(&str, u64)],
    in_flight: &[(&str, u64)],
) -> String {
    let dropped: u64 = drops.iter().map(|d| d.1).sum();
    let flying: u64 = in_flight.iter().map(|d| d.1).sum();
    let accounted = p.delivered + p.wrong + p.refused + p.unsent + dropped + flying;
    let residual = p.offered as i64 - accounted as i64;
    let fmt = |v: &[(&str, u64)]| {
        v.iter()
            .map(|(k, n)| format!("{k}={n}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    format!(
        "conservation {}: offered {} = delivered {} + wrong {} + refused {} + unsent {} + drops[{}] + in_flight[{}] + residual {}",
        p.name,
        p.offered,
        p.delivered,
        p.wrong,
        p.refused,
        p.unsent,
        fmt(drops),
        fmt(in_flight),
        residual
    )
}

/// Public counters read around a phase.
pub struct Counters {
    pool: mobigate::core::pool::PoolStats,
    membuf: Option<mobigate::core::BufferPoolStats>,
    pumps: u64,
    parks: u64,
    steals: u64,
    events: mobigate::core::events::EventStats,
    allocs: u64,
    telemetry: Option<mobigate::core::MetricsSnapshot>,
}

impl Counters {
    /// Reads every counter the per-layer metrics use from `server`, and
    /// the allocation count when the binary counts allocations.
    pub fn read(server: &MobiGate, allocs: Option<fn() -> u64>) -> Counters {
        let exec = server.executor().stats().unwrap_or_default();
        Counters {
            pool: server.message_pool().stats(),
            membuf: server.buffer_pool().map(|b| b.stats()),
            pumps: exec.total_pumps(),
            parks: exec.total_parks(),
            steals: exec.total_steals(),
            events: server.events().stats(),
            allocs: allocs.map_or(0, |f| f()),
            telemetry: server.metrics_snapshot(),
        }
    }

    /// Per-layer metrics over the interval since `before`, normalized by
    /// the phase's delivered messages (counted at the client or sink).
    /// Every workload takes these metrics from here, over its heavy phase.
    pub fn layers_since(&self, before: &Counters, p: &PhaseOutcome, m: &mut Metrics) {
        let per = |a: u64, b: u64| a.saturating_sub(b) as f64 / p.delivered.max(1) as f64;
        let post = Latency::of(&p.post_us);
        m.set("core.stream.post_us_p50", post.p50, "us");
        m.set("core.stream.post_us_p99", post.p99, "us");
        m.set("core.stream.post_errors", p.refused as f64, "count");
        m.set(
            "core.pool.inserts_per_msg",
            per(self.pool.inserted, before.pool.inserted),
            "ratio",
        );
        if let (Some(a), Some(b)) = (self.membuf, before.membuf) {
            let hits = a.hits.saturating_sub(b.hits);
            let checkouts = (hits + a.misses.saturating_sub(b.misses)).max(1);
            m.set(
                "core.membuf.hit_ratio",
                hits as f64 / checkouts as f64,
                "ratio",
            );
        }
        m.set(
            "core.executor.pumps_per_msg",
            per(self.pumps, before.pumps),
            "ratio",
        );
        m.set(
            "core.executor.parks_per_msg",
            per(self.parks, before.parks),
            "ratio",
        );
        m.set(
            "core.executor.steals_per_msg",
            per(self.steals, before.steals),
            "ratio",
        );
        let published = self
            .events
            .published
            .saturating_sub(before.events.published);
        if published > 0 {
            m.set(
                "core.events.delivered_per_event",
                self.events
                    .delivered
                    .saturating_sub(before.events.delivered) as f64
                    / published as f64,
                "ratio",
            );
        }
        m.set(
            "process.allocs_per_msg",
            per(self.allocs, before.allocs),
            "ratio",
        );
        m.set("gen.late_p99_ms", late_p99(p), "ms");
        if let (Some(a), Some(b)) = (&self.telemetry, &before.telemetry) {
            let full = a.totals.dropped_full.saturating_sub(b.totals.dropped_full);
            let all = a
                .totals
                .dropped_total()
                .saturating_sub(b.totals.dropped_total());
            m.set("core.queue.drops_full", full as f64, "count");
            m.set("core.queue.drops_other", (all - full) as f64, "count");
            m.set(
                "core.streamlet.process_us_p50",
                a.totals.process_ns.quantile_bound(0.5) as f64 / 1e3,
                "us",
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depths_parse_debug_report() {
        let d = Depths::parse(
            "channel __chan0: len=3 spsc=true dropped=0\n\
             channel __reconf0: len=7 spsc=true dropped=111\n\
             instance sw: pending_out=2 state=Running\n\
             ingress sw.pi: len=4\n\
             egress: len=256\n",
        );
        assert_eq!(d.channel_len, 10);
        assert_eq!(d.channel_dropped, 111);
        assert_eq!(d.pending_out, 2);
        assert_eq!(d.ingress_len, 4);
        assert_eq!(d.egress_len, 256);
        assert_eq!(d.in_flight(), 16);
    }

    fn waterfall_of(lateness_ms: u64) -> Metrics {
        let s = Spans::new(10, 3);
        let t = s.epoch;
        let at = |ms: u64| t + std::time::Duration::from_millis(ms);
        for seq in 10..13 {
            s.stamp(&s.due, seq, at(1));
            s.stamp(&s.post, seq, at(1 + lateness_ms));
            s.stamp(&s.send, seq, at(3 + lateness_ms));
            s.stamp(&s.submit, seq, at(7 + lateness_ms));
            s.stamp(&s.arrive, seq, at(8 + lateness_ms));
        }
        s.stamp(&s.post, 99, at(1)); // outside the table: ignored
        let mut m = Metrics::default();
        let mut jsonl = vec![];
        waterfall(s.rows(), true, &mut m, &mut jsonl);
        assert_eq!(jsonl.len(), 3);
        m
    }

    #[test]
    fn waterfall_segments_add_up() {
        let m = waterfall_of(0);
        assert!((m.get("span.gateway_ms_p50").unwrap() - 2.0).abs() < 1e-9);
        assert!((m.get("span.link_ms_p50").unwrap() - 4.0).abs() < 1e-9);
        assert!((m.get("span.client_ms_p50").unwrap() - 1.0).abs() < 1e-9);
        assert!(m.get("span.sum_error_ratio").unwrap() < 1e-9);
    }

    #[test]
    fn time_before_the_first_span_shows_as_sum_error() {
        // Posted 2 ms after the due time: 2 of the 9 ms end to end are
        // covered by no segment.
        let m = waterfall_of(2);
        let err = m.get("span.sum_error_ratio").unwrap();
        assert!((err - 2.0 / 9.0).abs() < 1e-9, "{err}");
        assert!(err > SPAN_TOLERANCE);
    }
}
