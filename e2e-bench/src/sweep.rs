//! `sweep` — the researcher's path. One caller, closed loop: each operation
//! is one fresh-seed Figure-6 δ-sweep (`run_study` of the Comparison study
//! `studies::fig6` defines), with the driver fanning cells across
//! [`DRIVER_THREADS`] workers. The slowest cell sets each operation's time,
//! so the event engine and the parallel driver carry the load.
//!
//! Each operation runs on a store of its own. Within the sweep the seven δ
//! points share the catalogue, the static pipeline and the stock baseline
//! cell through it, as in any study; across operations a fresh seed shares
//! nothing anyway. One bounded store shared across the run would instead
//! fill within seconds and then thrash (at 64 MiB, misses per operation
//! rose from 100 to over 300 within a 30-second run; 256 MiB only delayed
//! it), so throughput would depend on how long the run had been going.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use phase_bench::{studies, BenchSettings};
use phase_core::substrate::workload::{CatalogSpec, Workload};
use phase_core::{
    build_slots, comparison_plan, comparison_result, isolated_runtimes_cached, run_study,
    ArtifactStore, ComparisonResult, Driver, ExperimentConfig, ExperimentPlan, JsonValue,
    MetricValue, PreparedWorkload, StudyMode, StudyRow, StudySpec,
};

use crate::ledger::Ledger;
use crate::{run_phases, traced_static_pipeline, Pass, Rng, RunConfig, WorkloadRun, WARMUP_SEED};

/// Catalogue scale of every δ point.
const CATALOG_SCALE: f64 = 0.04;
/// Workload slots of every δ point.
const SLOTS: usize = 6;
/// Simulation horizon of every δ point, nanoseconds.
const HORIZON_NS: f64 = 4_000_000.0;
/// Driver worker threads.
pub const DRIVER_THREADS: usize = 2;
/// Outputs the digest covers.
pub const DIGEST_OPS: usize = 20;
/// Input stream of the measured operations' seeds.
const OPS_STREAM: u64 = 1;

/// The δ-sweep of one operation: `studies::fig6`'s points, resized and
/// reseeded.
pub fn spec(workload_seed: u64) -> StudySpec {
    let settings = BenchSettings {
        quick: true,
        perf: false,
        slots: Some(SLOTS),
        threads: DRIVER_THREADS,
        interval_override_ns: None,
        out_dir: None,
        trace_out: None,
    };
    let mut spec = studies::fig6(&settings);
    let StudyMode::Comparison { points } = &mut spec.mode else {
        unreachable!("fig6 is a comparison study");
    };
    for point in points {
        point.config.workload_seed = workload_seed;
        point.config.catalog_scale = CATALOG_SCALE;
        point.config.sim.horizon_ns = Some(HORIZON_NS);
    }
    spec
}

/// The workload seeds of a run's operations, in order.
pub fn op_seeds(seed: u64) -> impl Iterator<Item = u64> {
    let mut rng = Rng::new(seed, OPS_STREAM);
    std::iter::repeat_with(move || rng.next_u64())
}

fn points(spec: &StudySpec) -> &[phase_core::ComparisonPoint] {
    match &spec.mode {
        StudyMode::Comparison { points } => points,
        _ => unreachable!("sweep specs are comparison studies"),
    }
}

/// The rows as the compact JSON the digest covers.
fn rows_json(rows: &[StudyRow]) -> String {
    JsonValue::from(
        rows.iter()
            .map(|row| {
                row.metrics.iter().fold(
                    JsonValue::object().field("label", row.label.as_str()),
                    |doc, (name, value)| doc.field(name, value.to_json()),
                )
            })
            .collect::<Vec<_>>(),
    )
    .render_compact()
}

/// One row per δ point, in order, every number finite, marks executed.
fn check_rows(spec: &StudySpec, rows: &[StudyRow]) -> Result<(), String> {
    let points = points(spec);
    if rows.len() != points.len() {
        return Err(format!("{} rows for {} δ points", rows.len(), points.len()));
    }
    for (row, point) in rows.iter().zip(points) {
        if row.label != point.label {
            return Err(format!(
                "row '{}' where '{}' was due",
                row.label, point.label
            ));
        }
        for (name, value) in &row.metrics {
            if let MetricValue::Float(v) = value {
                if !v.is_finite() {
                    return Err(format!("row '{}': {name} is {v}", row.label));
                }
            }
        }
        for name in ["tuned_marks_executed", "static_marks"] {
            if row.u64(name) == 0 {
                return Err(format!("row '{}': {name} is 0", row.label));
            }
        }
    }
    Ok(())
}

/// Runs the workload: set-up, the untraced pass, and (if asked) the traced
/// pass.
pub fn run(config: &RunConfig) -> WorkloadRun {
    run_phases(
        config,
        || run_study(&spec(WARMUP_SEED), &ArtifactStore::new(), DRIVER_THREADS),
        drop,
        |_| untraced_pass(config),
        |_, min_ops| traced_pass(config, min_ops),
    )
}

fn untraced_pass(config: &RunConfig) -> Pass {
    let mut pass = Pass::new(DIGEST_OPS);
    for seed in op_seeds(config.seed) {
        if pass.elapsed() >= config.duration() {
            break;
        }
        let began = Instant::now();
        let spec = spec(seed);
        let report = run_study(&spec, &ArtifactStore::new(), DRIVER_THREADS);
        let latency = began.elapsed();
        pass.record(
            latency,
            &rows_json(&report.rows),
            check_rows(&spec, &report.rows),
        );
    }
    pass.finish();
    pass
}

/// The traced pass: runs until its duration has passed and it has
/// replayed at least `min_ops` operations (the untraced digest's length).
fn traced_pass(config: &RunConfig, min_ops: usize) -> (Pass, Ledger) {
    let mut pass = Pass::new(DIGEST_OPS);
    let mut ledger = Ledger::new();
    let mut driver = Duration::ZERO;
    let mut instructions = 0u64;
    let mut resident_bytes = 0;
    for seed in op_seeds(config.seed) {
        if pass.elapsed() >= config.traced_duration() && pass.attempted as usize >= min_ops {
            break;
        }
        ledger.begin_op();
        let began = Instant::now();
        let spec = spec(seed);
        let store = ArtifactStore::new();
        let op = traced_op(&mut ledger, &store, &spec);
        let latency = began.elapsed();
        ledger.end_op();
        let counters = store.snapshot();
        ledger.count("core.store_hits", counters.total_hits() as f64);
        ledger.count("core.store_misses", counters.total_misses() as f64);
        resident_bytes = resident_bytes.max(store.resident_bytes());
        driver += op.driver;
        instructions += op.instructions;
        let check = check_rows(&spec, &op.rows).and(op.check);
        pass.record(latency, &rows_json(&op.rows), check);
    }
    pass.finish();
    ledger.gauge(
        "core.store_resident_mb",
        resident_bytes as f64 / (1024.0 * 1024.0),
    );
    ledger.gauge(
        "sched.minstr_per_s",
        instructions as f64 / driver.as_secs_f64().max(f64::MIN_POSITIVE) / 1e6,
    );
    (pass, ledger)
}

struct TracedOp {
    rows: Vec<StudyRow>,
    check: Result<(), String>,
    driver: Duration,
    instructions: u64,
}

/// One δ-sweep split into the public calls `run_study`'s Comparison mode
/// makes, each inside a span.
fn traced_op(ledger: &mut Ledger, store: &ArtifactStore, spec: &StudySpec) -> TracedOp {
    let points = points(spec);
    let mut plan = ExperimentPlan::new();
    let mut prepared_points = Vec::new();
    for point in points {
        let prepared = prepare(ledger, store, &point.config);
        plan.extend(comparison_plan(&point.label, &point.config, &prepared));
        prepared_points.push(prepared);
    }
    // Identical cells of one plan (the shared stock baseline) simulate once;
    // count each distinct cell once.
    let mut distinct = HashSet::new();
    let simulated: Vec<usize> = plan
        .cells()
        .iter()
        .enumerate()
        .filter(|(_, cell)| {
            distinct.insert(store.cell_key(&cell.machine, &cell.policy, &cell.sim, &cell.slots))
        })
        .map(|(index, _)| index)
        .collect();
    let began = Instant::now();
    let outcome = ledger.time("core.driver_ms", || {
        Driver::new(DRIVER_THREADS).run_cached(plan, store)
    });
    let driver = began.elapsed();
    let instructions: u64 = simulated
        .iter()
        .map(|&index| outcome.cells[index].result.total_instructions)
        .sum();
    ledger.count("core.cells", simulated.len() as f64);
    ledger.count("sched.sim_instructions", instructions as f64);
    let mut check = Ok(());
    let rows = points
        .iter()
        .zip(&prepared_points)
        .map(|(point, prepared)| {
            let result = ledger
                .time("metrics.result_ms", || {
                    comparison_result(&point.label, &outcome, &point.config, prepared)
                })
                .expect("the plan holds both cells of every point");
            if result.tuned.total_instructions == 0 {
                check = Err(format!(
                    "point '{}': the tuned run executed nothing",
                    point.label
                ));
            }
            row(&point.label, &result, prepared)
        })
        .collect();
    TracedOp {
        rows,
        check,
        driver,
        instructions,
    }
}

/// `prepare_workload_cached`, split into its store calls.
fn prepare(
    ledger: &mut Ledger,
    store: &ArtifactStore,
    config: &ExperimentConfig,
) -> PreparedWorkload {
    let catalog_spec = CatalogSpec::standard(config.catalog_scale, config.workload_seed);
    let catalog = ledger.time("workload.catalog_ms", || store.catalog(&catalog_spec));
    let workload = Workload::random(
        &catalog,
        config.workload_slots,
        config.jobs_per_slot,
        config.workload_seed,
    );
    let instrumented: Vec<_> = catalog
        .benchmarks()
        .iter()
        .map(|bench| {
            traced_static_pipeline(
                ledger,
                store,
                bench.program(),
                &config.machine,
                &config.pipeline,
            )
        })
        .collect();
    let baseline: Vec<_> = catalog
        .benchmarks()
        .iter()
        .map(|bench| store.baseline(bench.program()))
        .collect();
    let isolated_ns = ledger.time("sched.isolation_ms", || {
        isolated_runtimes_cached(
            &catalog_spec,
            &catalog,
            &baseline,
            &config.machine,
            &config.sim,
            config.threads,
            store,
        )
    });
    PreparedWorkload {
        baseline_slots: build_slots(&workload, &catalog, &baseline),
        tuned_slots: build_slots(&workload, &catalog, &instrumented),
        isolated_ns: (*isolated_ns).clone(),
        instrumented,
    }
}

/// The row `run_study`'s Comparison mode reports for one δ point.
fn row(label: &str, result: &ComparisonResult, prepared: &PreparedWorkload) -> StudyRow {
    let static_marks: usize = prepared.instrumented.iter().map(|p| p.mark_count()).sum();
    StudyRow::new(label)
        .metric(
            "throughput_improvement_pct",
            MetricValue::Float(result.throughput.improvement_pct),
        )
        .metric(
            "avg_time_decrease_pct",
            MetricValue::Float(result.fairness.avg_time_decrease_pct),
        )
        .metric(
            "max_flow_decrease_pct",
            MetricValue::Float(result.fairness.max_flow_decrease_pct),
        )
        .metric(
            "max_stretch_decrease_pct",
            MetricValue::Float(result.fairness.max_stretch_decrease_pct),
        )
        .metric(
            "tuned_max_stretch",
            MetricValue::Float(result.tuned_fairness.max_stretch),
        )
        .metric(
            "stock_max_stretch",
            MetricValue::Float(result.baseline_fairness.max_stretch),
        )
        .metric(
            "tuned_core_switches",
            MetricValue::UInt(result.tuned.total_core_switches),
        )
        .metric(
            "tuned_marks_executed",
            MetricValue::UInt(result.tuned.total_marks_executed),
        )
        .metric("static_marks", MetricValue::UInt(static_marks as u64))
}
