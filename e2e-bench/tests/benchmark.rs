//! The benchmark's own tests: inputs follow the seed, every workload reports
//! every metric `BENCHMARK.json` names (with its unit) and passes its checks
//! on a short run, and a tail without enough samples beyond it is null.
//!
//! Run with `cargo test --release --manifest-path e2e-bench/Cargo.toml`.

use phase_core::json::{self, JsonValue};
use phase_e2e_bench::{
    ledger, report, run_workload, serve_warm, stats, sweep, tune_cold, RunConfig, WORKLOADS,
};

fn benchmark_json() -> JsonValue {
    json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every entry of one of BENCHMARK.json's metric lists.
fn declared(list: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(list)
        .and_then(JsonValue::as_array)
        .expect("the metric list exists")
        .iter()
        .map(|entry| {
            let field = |name| {
                entry
                    .get(name)
                    .and_then(JsonValue::as_str)
                    .expect("entries have a name and a unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn the_same_seed_gives_the_same_inputs_and_another_seed_others() {
    let seeds = |seed| sweep::op_seeds(seed).take(16).collect::<Vec<_>>();
    assert_eq!(seeds(7), seeds(7));
    assert_ne!(seeds(7), seeds(8));
    let lines = |seed| tune_cold::op_lines(seed).take(16).collect::<Vec<_>>();
    assert_eq!(lines(7), lines(7));
    assert_ne!(lines(7), lines(8));
    assert_eq!(serve_warm::computed_lines(7), serve_warm::computed_lines(7));
    assert_ne!(serve_warm::computed_lines(7), serve_warm::computed_lines(8));
    assert_eq!(serve_warm::sequence(7), serve_warm::sequence(7));
    assert_ne!(serve_warm::sequence(7), serve_warm::sequence(8));
}

#[test]
fn a_tail_with_fewer_than_ten_samples_beyond_it_is_null() {
    let short: Vec<u64> = (1..=99).map(|ms| ms * 1_000_000).collect();
    let summary = stats::summarize(&short);
    assert_eq!(summary.samples, 99);
    assert_eq!(summary.beyond_tail, 9);
    assert_eq!(summary.tail_ms, None);
    assert_eq!(summary.p50_ms, Some(50.0));

    let enough: Vec<u64> = (1..=100).map(|ms| ms * 1_000_000).collect();
    let summary = stats::summarize(&enough);
    assert_eq!(summary.beyond_tail, 10);
    assert_eq!(summary.tail_ms, Some(90.0));
}

#[test]
fn a_stall_in_a_few_blocks_does_not_move_the_latency_figures() {
    // 2000 operations of 1 ms, three blocks of which stalled at 100 ms: the
    // pooled p90 would be 100 ms.
    let mut latencies = vec![1_000_000u64; 2000];
    latencies[1000..1300].fill(100_000_000);
    let summary = stats::summarize(&latencies);
    assert_eq!(summary.blocks, 20);
    assert_eq!(summary.p50_ms, Some(1.0));
    assert_eq!(summary.tail_ms, Some(1.0));
}

#[test]
fn benchmark_json_names_the_metrics_the_benchmark_reports() {
    let workloads: Vec<String> = benchmark_json()
        .get("workloads")
        .and_then(JsonValue::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(JsonValue::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(workloads, WORKLOADS);
    let end_to_end: Vec<(String, String)> = report::END_TO_END
        .iter()
        .map(|(name, unit)| (name.to_string(), unit.to_string()))
        .collect();
    assert_eq!(declared("end_to_end"), end_to_end);
    let per_layer: Vec<(String, String)> = ledger::metric_units()
        .into_iter()
        .map(|(name, unit)| (name, unit.to_string()))
        .collect();
    assert_eq!(declared("per_layer"), per_layer);
}

/// Every declared metric is in the result with its unit; returns the values.
fn metrics_of(result: &JsonValue, list: &str) -> Vec<(String, Option<f64>)> {
    let metrics = result.get("metrics").expect("the result has metrics");
    declared(list)
        .into_iter()
        .map(|(name, unit)| {
            let metric = metrics
                .get(&name)
                .unwrap_or_else(|| panic!("metric {name} is missing"));
            assert_eq!(
                metric.get("unit").and_then(JsonValue::as_str),
                Some(unit.as_str()),
                "unit of {name}"
            );
            let value = metric.get("value").and_then(JsonValue::as_f64);
            (name, value)
        })
        .collect()
}

#[test]
fn short_runs_report_every_named_metric_and_pass_their_checks() {
    for workload in WORKLOADS {
        let config = RunConfig {
            seed: 5,
            seconds: 1.5,
            trace: false,
        };
        let run = run_workload(workload, &config).expect("a known workload");
        let result = report::build(workload, &run).result;
        assert_eq!(result.get("failed").and_then(JsonValue::as_f64), Some(0.0));
        for (name, value) in metrics_of(&result, "end_to_end") {
            match name.as_str() {
                "ok_frac" => assert_eq!(value, Some(1.0), "{workload}: ok_frac"),
                // A short run may hold too few samples for its tail.
                "tail_ms" => {}
                _ => assert!(
                    value.is_some_and(|v| v > 0.0),
                    "{workload}: {name} = {value:?}"
                ),
            }
        }

        let traced = RunConfig {
            trace: true,
            ..config
        };
        let run = run_workload(workload, &traced).expect("a known workload");
        let report = report::build(workload, &run);
        assert_eq!(
            report.detail.get("digests_agree"),
            Some(&JsonValue::Bool(true)),
            "{workload}: traced and untraced outputs agree"
        );
        assert_eq!(
            report.result.get("correct"),
            Some(&JsonValue::Bool(true)),
            "{workload}: {}",
            report.detail.render_compact()
        );
        let values = metrics_of(&report.result, "per_layer");
        assert!(
            values
                .iter()
                .all(|(_, value)| value.is_some_and(f64::is_finite)),
            "{workload}: every per-layer metric is a number"
        );
    }
}
