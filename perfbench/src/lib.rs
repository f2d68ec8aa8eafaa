//! Open-loop end-to-end benchmark of the MobiGATE gateway.
//!
//! `perfbench --workload <webaccel|sessions|adapt> --seed <n> --seconds <s>
//! [--light-only] [--untraced-light-p50 <ms>]` runs one workload in this
//! process and prints report lines followed by one JSON result line. The
//! `perfbench-traced` binary takes the same arguments and prints the
//! per-layer metrics instead. `run.py` builds both and picks one from
//! `--trace`. README.md lists every metric.

pub mod adapt;
pub mod common;
pub mod fleet;
pub mod gen;
pub mod load;
pub mod procfs;
pub mod report;
pub mod sessions;
pub mod stats;
pub mod webaccel;

use common::{Opts, Outcome};
use report::Json;
use std::process::ExitCode;

/// The workloads, in the order BENCHMARK.json lists them.
pub const WORKLOADS: [&str; 3] = ["webaccel", "sessions", "adapt"];

/// End-to-end metrics (untraced run), as BENCHMARK.json lists them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("p50_light_ms", "ms"),
    ("delivered_ratio", "ratio"),
    ("cpu_us_per_msg", "us"),
    ("peak_rss_mib", "MiB"),
    ("air_bytes_per_msg", "B"),
];

/// Per-layer metrics (traced run), as BENCHMARK.json lists them. A
/// workload that does not exercise a layer reports 0 for it (README.md
/// says which).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("mcl.compile_ms", "ms"),
    ("mcl.template_ms", "ms"),
    ("core.session.spawn_us_p50", "us"),
    ("core.session.spawn_us_p99", "us"),
    ("core.session.teardown_ms_p99", "ms"),
    ("core.stream.post_us_p50", "us"),
    ("core.stream.post_us_p99", "us"),
    ("core.stream.post_errors", "count"),
    ("core.stream.resident_bytes_max", "B"),
    ("core.stream.egress_delivered", "count"),
    ("core.stream.reconfig_suspend_us", "us"),
    ("core.stream.reconfig_channel_us", "us"),
    ("core.stream.reconfig_activate_us", "us"),
    ("core.queue.drops_full", "count"),
    ("core.queue.drops_other", "count"),
    ("core.streamlet.process_us_p50", "us"),
    ("core.streamlet.unrouted_drops", "count"),
    ("core.pool.resident_max", "count"),
    ("core.pool.inserts_per_msg", "ratio"),
    ("core.membuf.hit_ratio", "ratio"),
    ("core.executor.pumps_per_msg", "ratio"),
    ("core.executor.parks_per_msg", "ratio"),
    ("core.executor.steals_per_msg", "ratio"),
    ("core.events.delivered_per_event", "ratio"),
    ("streamlets.gif2jpeg_us", "us"),
    ("streamlets.downsample_us", "us"),
    ("streamlets.text_compress_us", "us"),
    ("streamlets.text_decompress_us", "us"),
    ("mime.to_wire_us", "us"),
    ("mime.from_wire_us", "us"),
    ("netsim.busy_share", "ratio"),
    ("netsim.backlog_max", "count"),
    ("netsim.lost", "count"),
    ("netsim.rejected", "count"),
    ("client.dispatch_us_p99", "us"),
    ("client.threads", "count"),
    ("client.peer_errors", "count"),
    ("process.threads", "count"),
    ("process.allocs_per_msg", "ratio"),
    ("gen.late_p99_ms", "ms"),
    ("span.gateway_ms_p50", "ms"),
    ("span.gateway_ms_p99", "ms"),
    ("span.link_ms_p50", "ms"),
    ("span.link_ms_p99", "ms"),
    ("span.client_ms_p50", "ms"),
    ("span.client_ms_p99", "ms"),
    ("span.sum_error_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("e2e.p99_ms", "ms"),
    ("e2e.p99_light_ms", "ms"),
    ("e2e.max_rate_mps", "msg/s"),
    ("e2e.reconfig_p50_ms", "ms"),
    ("e2e.reconfig_p99_ms", "ms"),
    ("e2e.spawn_p99_ms", "ms"),
    ("e2e.stall_failed_ratio", "ratio"),
    ("e2e.stall_p99_ms", "ms"),
];

/// The result's metrics in canonical order: every name of the run's list,
/// 0 for a layer the workload does not exercise. Panics if a workload
/// produced a metric the list does not name (a list out of date).
pub fn result_metrics(out: &Outcome, traced: bool) -> report::Metrics {
    let (list, got) = if traced {
        (PER_LAYER, &out.layers)
    } else {
        (END_TO_END, &out.e2e)
    };
    for (name, _, _) in got.entries() {
        assert!(
            list.iter().any(|(n, _)| *n == name),
            "metric `{name}` is missing from the metric list"
        );
    }
    let mut m = report::Metrics::default();
    for (name, unit) in list {
        m.set(name, got.get(name).unwrap_or(0.0), unit);
    }
    m
}

/// Runs workload `name`; `None` for an unknown name.
pub fn run_workload(name: &str, opts: &Opts) -> Option<Outcome> {
    match name {
        "webaccel" => Some(webaccel::run(opts)),
        "sessions" => Some(sessions::run(opts)),
        "adapt" => Some(adapt::run(opts)),
        _ => None,
    }
}

struct Args {
    workload: String,
    opts: Opts,
}

fn parse_args(traced: bool, allocs: Option<fn() -> u64>) -> Result<Args, String> {
    let mut workload = None;
    let mut opts = Opts {
        seed: 1,
        seconds: 10.0,
        traced,
        light_only: false,
        untraced_light_p50: None,
        allocs,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--light-only" => opts.light_only = true,
            "--untraced-light-p50" => {
                opts.untraced_light_p50 = Some(
                    value()?
                        .parse()
                        .map_err(|e| format!("--untraced-light-p50: {e}"))?,
                )
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (expected one of {WORKLOADS:?})"
        ));
    }
    Ok(Args { workload, opts })
}

/// Entry point of both binaries.
pub fn main_with(traced: bool, allocs: Option<fn() -> u64>) -> ExitCode {
    let args = match parse_args(traced, allocs) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let opts = &args.opts;
    let Some(out) = run_workload(&args.workload, opts) else {
        return ExitCode::from(2);
    };
    let stamp = Json::Obj(vec![
        ("workload".into(), Json::Str(args.workload.clone())),
        ("seed".into(), Json::Int(opts.seed)),
        ("seconds".into(), Json::Num(opts.seconds)),
        ("traced".into(), Json::Bool(opts.traced)),
        ("nproc".into(), Json::Int(procfs::nproc() as u64)),
        ("rustc".into(), Json::Str(env_or("PERFBENCH_RUSTC"))),
        ("git_rev".into(), Json::Str(env_or("PERFBENCH_GIT_REV"))),
        ("gen_late_p99_ms".into(), Json::Num(out.late_p99_ms)),
    ]);
    println!("stamp {}", stamp.render());
    for line in &out.notes {
        println!("{line}");
    }
    if opts.traced && !out.spans_jsonl.is_empty() {
        match write_spans(&args.workload, opts.seed, &out.spans_jsonl) {
            Ok(path) => println!("spans {} records -> {path}", out.spans_jsonl.len()),
            Err(e) => println!("spans not written: {e}"),
        }
    }
    let metrics = &result_metrics(&out, opts.traced);
    println!(
        "metrics ({}):",
        if opts.traced {
            "per-layer"
        } else {
            "end-to-end"
        }
    );
    for line in metrics.lines() {
        println!("{line}");
    }
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(out.correct)),
        ("attempted".into(), Json::Int(out.attempted.max(1))),
        ("failed".into(), Json::Int(out.failed)),
        ("metrics".into(), metrics.to_json()),
    ]);
    println!("{}", result.render());
    ExitCode::SUCCESS
}

fn env_or(key: &str) -> String {
    std::env::var(key).unwrap_or_else(|_| "unknown".into())
}

/// Writes span records as JSONL under the build directory
/// (`$CARGO_TARGET_DIR`, else `perfbench/target`).
fn write_spans(workload: &str, seed: u64, lines: &[String]) -> std::io::Result<String> {
    let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".into());
    let dir = std::path::Path::new(&dir).join("perfbench-spans");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{workload}-seed{seed}.jsonl"));
    let mut text = lines.join("\n");
    text.push('\n');
    std::fs::write(&path, text)?;
    Ok(path.display().to_string())
}
