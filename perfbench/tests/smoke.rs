//! Short runs of every workload: each must pass its own output checks
//! and report every metric of its list.

use perfbench::common::{Opts, SPAN_TOLERANCE};
use perfbench::{result_metrics, run_workload, END_TO_END, PER_LAYER, WORKLOADS};

fn opts(seed: u64, seconds: f64, traced: bool) -> Opts {
    Opts {
        seed,
        seconds,
        traced,
        light_only: false,
        untraced_light_p50: None,
        allocs: None,
    }
}

fn smoke(workload: &str) {
    let out = run_workload(workload, &opts(7, 1.0, false)).expect("known workload");
    assert!(
        out.correct,
        "{workload}: an output failed its check\n{:#?}",
        out.notes
    );
    assert!(out.attempted > 0, "{workload}: nothing offered");
    let m = result_metrics(&out, false);
    for (name, _) in END_TO_END {
        let v = m.get(name).expect("listed metric present");
        assert!(v.is_finite() && v > 0.0, "{workload}: {name} = {v}");
    }
}

#[test]
fn webaccel_smoke_passes_output_checks() {
    smoke("webaccel");
}

#[test]
fn sessions_smoke_passes_output_checks() {
    smoke("sessions");
}

#[test]
fn adapt_smoke_passes_output_checks() {
    smoke("adapt");
}

#[test]
fn traced_run_reports_the_waterfall() {
    // Four seconds give the light phase about 200 messages, so a few
    // late posts cannot dominate the mean `span.sum_error_ratio` compares.
    let out = run_workload("webaccel", &opts(8, 4.0, true)).expect("known workload");
    assert!(out.correct);
    let m = result_metrics(&out, true);
    assert_eq!(m.entries().count(), PER_LAYER.len());
    for name in [
        "span.gateway_ms_p50",
        "span.link_ms_p50",
        "span.client_ms_p50",
    ] {
        assert!(m.get(name).unwrap() > 0.0, "{name}");
    }
    let err = m.get("span.sum_error_ratio").unwrap();
    assert!(
        err < SPAN_TOLERANCE,
        "spans must cover the end-to-end path: error {err}"
    );
    assert!(!out.spans_jsonl.is_empty());
}

/// BENCHMARK.json must list exactly the workloads and metrics the binary
/// reports, with the same units.
#[test]
fn benchmark_json_matches_the_metric_lists() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    let names = json.matches("\"name\":").count();
    assert_eq!(names, WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len());
    for w in WORKLOADS {
        assert!(json.contains(&format!("\"name\": \"{w}\"")), "workload {w}");
    }
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "missing `{entry}`");
    }
}
