//! Turns a workload run into the report: every metric by name with its
//! unit, the checks' verdict, the output digests and the machine block.

use phase_core::json::JsonValue;

use crate::ledger;
use crate::stats::{self, MIN_BEYOND_TAIL, TAIL_PERCENTILE};
use crate::{Pass, WorkloadRun};

/// The end-to-end metrics every workload reports, with their units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("ok_frac", "frac"),
    ("peak_rss_mb", "MB"),
];

/// The report of one run: a detail document and the one-line result.
#[derive(Debug, Clone)]
pub struct Report {
    /// Everything the run measured and checked, for people.
    pub detail: JsonValue,
    /// `{correct, attempted, failed, metrics}`: the result line.
    pub result: JsonValue,
}

fn number(value: Option<f64>) -> JsonValue {
    value.map(JsonValue::from).unwrap_or(JsonValue::Null)
}

fn metric(value: Option<f64>, unit: &str) -> JsonValue {
    JsonValue::object()
        .field("value", number(value))
        .field("unit", unit)
}

fn pass_detail(pass: &Pass) -> JsonValue {
    let summary = stats::summarize(&pass.latencies_ns);
    JsonValue::object()
        .field("ops", summary.samples)
        .field("latency_blocks", summary.blocks)
        .field("attempted", pass.attempted)
        .field("failed", pass.failed)
        .field("elapsed_s", pass.elapsed_s)
        .field("throughput_per_s", pass.throughput_per_s())
        .field(
            "block_throughput_per_s",
            pass.block_rates()
                .into_iter()
                .map(JsonValue::from)
                .collect::<Vec<_>>(),
        )
        .field("p50_ms", number(summary.p50_ms))
        .field("tail_percentile", TAIL_PERCENTILE)
        .field("tail_ms", number(summary.tail_ms))
        .field("min_samples_beyond_tail_per_block", summary.beyond_tail)
        .field("required_samples_beyond_tail", MIN_BEYOND_TAIL)
        .field(
            "digest",
            JsonValue::object()
                .field("ops", pass.digest.taken())
                .field("value", pass.digest.finish().to_string()),
        )
        .field(
            "failures",
            pass.failures
                .iter()
                .map(|failure| JsonValue::from(failure.as_str()))
                .collect::<Vec<_>>(),
        )
}

/// Builds the report of `run`. With a traced pass the result carries the
/// per-layer metrics, otherwise the end-to-end ones.
pub fn build(workload: &str, run: &WorkloadRun) -> Report {
    let untraced = &run.untraced;
    let summary = stats::summarize(&untraced.latencies_ns);
    let mut detail = JsonValue::object()
        .field("workload", workload)
        .field(
            "setup_s_replicas",
            run.setup_s
                .iter()
                .map(|&s| JsonValue::from(s))
                .collect::<Vec<_>>(),
        )
        .field("untraced", pass_detail(untraced));
    let mut correct = untraced.failed == 0 && untraced.attempted > 0;
    let mut attempted = untraced.attempted;
    let mut failed = untraced.failed;
    let mut metrics = JsonValue::object();
    match &run.traced {
        None => {
            correct &= summary.tail_ms.is_some() && run.peak_rss_mb.is_some();
            let values = [
                Some(stats::median(&run.setup_s)),
                Some(untraced.throughput_per_s()),
                summary.p50_ms,
                summary.tail_ms,
                Some((untraced.attempted - untraced.failed) as f64 / attempted.max(1) as f64),
                run.peak_rss_mb,
            ];
            for ((name, unit), value) in END_TO_END.iter().zip(values) {
                metrics = metrics.field(name, metric(value, unit));
            }
        }
        Some((traced, ledger)) => {
            let digests_agree = traced.digest.taken() == untraced.digest.taken()
                && traced.digest.finish() == untraced.digest.finish();
            correct &= traced.failed == 0 && digests_agree;
            attempted += traced.attempted;
            failed += traced.failed + u64::from(!digests_agree);
            // The base is the untraced pass over the same operations: both
            // passes start from the same set-up state and replay one
            // sequence, and a workload's rate can drift over a long pass.
            let ops = traced.done_s.len();
            let base = untraced.mean_throughput_over(ops);
            let traced_rate = traced.mean_throughput_over(ops);
            let mut values = ledger.metrics();
            for (name, value) in [
                ("trace.ops", traced.latencies_ns.len() as f64),
                ("trace.base_throughput_per_s", base),
                ("trace.traced_throughput_per_s", traced_rate),
                ("trace.overhead_pct", (base - traced_rate) / base * 100.0),
            ] {
                if let Some(slot) = values.iter_mut().find(|(n, _)| n == name) {
                    slot.1 = value;
                }
            }
            for ((name, value), (_, unit)) in values.iter().zip(ledger::metric_units()) {
                metrics = metrics.field(name, metric(Some(*value), unit));
            }
            detail = detail
                .field("traced", pass_detail(traced))
                .field("digests_agree", digests_agree);
        }
    }
    let result = JsonValue::object()
        .field("correct", correct)
        .field("attempted", attempted)
        .field("failed", failed)
        .field("metrics", metrics);
    Report { detail, result }
}
