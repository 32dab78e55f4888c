//! Tiered-artifact-store benchmark and CI gate (`BENCH_store.json`).
//!
//! Three measurements over one realistically warm store (a full `table1`
//! study run):
//!
//! * **spill** — bytes on disk of the phase-pack stage files, spill
//!   wall-clock, and best-of-N load wall-clock (MB/s) into a fresh store.
//! * **warm restart** — a fresh store reloaded from the spill reruns the
//!   study: rows must be bit-identical to the cold run and the typings stage
//!   must record zero misses (the whole pipeline persisted).
//! * **remote cache** — a second store warm-started purely through
//!   `artifact-get` over live TCP against a phase-serve instance wrapping
//!   the warm store; per-get hit latency reported as p50/p99, each only when
//!   at least ten gets lie beyond it (`null` otherwise).
//!
//! A failed check panics, so the run exits nonzero and CI fails visibly.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use phase_bench::studies;
use phase_core::{run_study, ArtifactStore, JsonValue};
use phase_metrics::percentile_sorted;
use phase_serve::{remote_warm_start, serve_tcp_with, TuningService, WireConfig};

/// Samples that must lie beyond a quantile before it is reported.
const MIN_BEYOND_QUANTILE: f64 = 10.0;

fn temp_dir(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("phase-bench-store-{name}-{}", std::process::id()))
}

/// Best-of-N wall seconds for loading `dir` into a fresh store; also returns
/// the artifacts loaded (identical on every repeat).
fn measure_load(dir: &Path, repeats: usize) -> (f64, usize) {
    let mut best = f64::INFINITY;
    let mut loaded = 0;
    for _ in 0..repeats {
        let store = ArtifactStore::new();
        let start = Instant::now();
        let report = store.load_spill_report(dir).expect("load spill");
        best = best.min(start.elapsed().as_secs_f64());
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        loaded = report.loaded;
    }
    (best, loaded)
}

/// The `q` quantile of a sorted sample, or `None` when fewer than
/// [`MIN_BEYOND_QUANTILE`] samples lie beyond it (count < 10/(1-q)).
fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    (sorted.len() as f64 * (1.0 - q) >= MIN_BEYOND_QUANTILE).then(|| percentile_sorted(sorted, q))
}

fn main() {
    let settings = phase_bench::init(
        "Artifact-store benchmark (BENCH_store.json)",
        "Measures the phase-pack spill (bytes on disk, spill/load MB/s), the\n\
         cold-vs-warm-restart study wall clock, and remote artifact-cache hit\n\
         latency over live TCP. Checks: warm-restart rows bit-identical to\n\
         the cold run with zero typing misses, and a clean remote sync.",
    );
    let threads = settings.threads.max(1);
    let repeats = if settings.quick { 5 } else { 9 };

    // --- Cold pass: one full study warms every store stage. ---
    let store = Arc::new(ArtifactStore::new());
    let spec = studies::table1(&settings);
    let cold_start = Instant::now();
    let cold_report = run_study(&spec, &store, threads);
    let cold_s = cold_start.elapsed().as_secs_f64();
    println!(
        "cold {}: {:.4}s ({} rows)",
        spec.name,
        cold_s,
        cold_report.rows.len()
    );

    // --- Spill, then time loads of it. ---
    let spill_dir = temp_dir("spill");
    std::fs::remove_dir_all(&spill_dir).ok();
    let spill_start = Instant::now();
    let written = store.spill_to_dir(&spill_dir).expect("spill");
    let spill_s = spill_start.elapsed().as_secs_f64();
    let spill_bytes: u64 = written
        .iter()
        .filter(|path| path.extension().is_some_and(|ext| ext == "ppk"))
        .map(|path| std::fs::metadata(path).expect("stat spill file").len())
        .sum();
    assert!(spill_bytes > 0, "the spill wrote data");
    let (load_s, loaded) = measure_load(&spill_dir, repeats);
    let mb = |bytes: u64| bytes as f64 / (1024.0 * 1024.0);
    let load_mb_per_s = mb(spill_bytes) / load_s.max(1e-12);
    println!(
        "spill: {loaded} artifacts, {spill_bytes} B in {spill_s:.5}s; \
         load {load_mb_per_s:.2} MB/s ({load_s:.5}s)"
    );

    // --- Warm restart from the spill. ---
    let warm_store = Arc::new(ArtifactStore::new());
    let warm_load_start = Instant::now();
    let warm_report_load = warm_store.load_spill_report(&spill_dir).expect("warm load");
    let warm_load_s = warm_load_start.elapsed().as_secs_f64();
    assert!(
        warm_report_load.errors.is_empty(),
        "{:?}",
        warm_report_load.errors
    );
    let warm_start = Instant::now();
    let warm_report = run_study(&spec, &warm_store, threads);
    let warm_s = warm_start.elapsed().as_secs_f64();
    let rows_identical = warm_report.rows == cold_report.rows;
    assert!(
        rows_identical,
        "warm rows must be bit-identical to cold rows"
    );
    let warm_typings_misses = warm_store
        .snapshot()
        .stage("typings")
        .map(|s| s.misses)
        .unwrap_or(0);
    assert_eq!(warm_typings_misses, 0, "warm restart recomputed typings");
    println!(
        "warm restart: load {warm_load_s:.4}s + study {warm_s:.4}s \
         (cold {cold_s:.4}s, {:.2}x), typings misses 0",
        cold_s / (warm_load_s + warm_s).max(1e-12)
    );

    // --- Remote artifact cache over live TCP. ---
    let origin = Arc::new(TuningService::with_store(Arc::clone(&store), threads));
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().expect("local addr");
    {
        let origin = Arc::clone(&origin);
        std::thread::spawn(move || {
            serve_tcp_with(
                &origin,
                listener,
                None,
                WireConfig {
                    connection_workers: 2,
                    ..WireConfig::default()
                },
            )
        });
    }
    let remote_store = Arc::new(ArtifactStore::new());
    let sync_start = Instant::now();
    let sync = remote_warm_start(addr, &remote_store).expect("remote warm start");
    let sync_s = sync_start.elapsed().as_secs_f64();
    assert!(sync.errors.is_empty(), "{:?}", sync.errors);
    assert!(sync.transferred > 0, "the remote sync moved artifacts");
    let mut latencies: Vec<f64> = sync.get_latency_ns.iter().map(|&ns| ns as f64).collect();
    latencies.sort_unstable_by(f64::total_cmp);
    let (hit_p50_ns, hit_p99_ns) = (quantile(&latencies, 0.50), quantile(&latencies, 0.99));
    let us = |ns: Option<f64>| ns.map_or("n/a".to_string(), |ns| format!("{:.1}us", ns / 1e3));
    println!(
        "remote cache: {} artifacts in {sync_s:.4}s, {} gets, p50 {} p99 {}",
        sync.transferred,
        latencies.len(),
        us(hit_p50_ns),
        us(hit_p99_ns)
    );

    // --- Report. ---
    let ns_or_null = |ns: Option<f64>| ns.map_or(JsonValue::Null, JsonValue::from);
    let mut doc = JsonValue::object();
    for (name, value) in settings.meta_json() {
        doc = doc.field(name, value);
    }
    let doc = doc
        .field(
            "spill",
            JsonValue::object()
                .field("artifacts", loaded)
                .field("bytes", spill_bytes)
                .field("spill_s", spill_s)
                .field("load_s", load_s)
                .field("load_mb_per_s", load_mb_per_s),
        )
        .field(
            "warm_restart",
            JsonValue::object()
                .field("cold_study_s", cold_s)
                .field("load_s", warm_load_s)
                .field("warm_study_s", warm_s)
                .field("speedup", cold_s / (warm_load_s + warm_s).max(1e-12))
                .field("artifacts_loaded", warm_report_load.loaded)
                .field("rows_identical", rows_identical)
                .field("typings_misses", warm_typings_misses),
        )
        .field(
            "remote_cache",
            JsonValue::object()
                .field("artifacts", sync.transferred)
                .field("admitted", sync.admitted)
                .field("sync_s", sync_s)
                .field("hit_count", latencies.len())
                .field("hit_p50_ns", ns_or_null(hit_p50_ns))
                .field("hit_p99_ns", ns_or_null(hit_p99_ns)),
        );
    let path = settings.out_path("BENCH_store.json");
    let written = phase_bench::write_report_file(&path, &doc.render()).map(|()| path);
    phase_bench::announce_report(written, "BENCH_store.json");

    std::fs::remove_dir_all(&spill_dir).ok();
}
