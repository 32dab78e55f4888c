//! `tune-cold` — the static half of the paper as a service client sees it.
//! One caller, closed loop, over loopback TCP to `serve_tcp_with`: each
//! operation is a `marks` request for a catalogue seed the service has never
//! seen, so catalogue generation, fingerprinting, profiling, typing, regions
//! and instrumentation all run, through the store's miss/insert path (and,
//! once the budget fills, its eviction path). The event engine is never
//! touched.

use std::time::{Duration, Instant};

use phase_core::json::{self, JsonValue};
use phase_core::substrate::workload::standard_benchmark_names;
use phase_serve::parse_request;

use crate::ledger::Ledger;
use crate::wire::Server;
use crate::{run_phases, traced_static_pipeline, Pass, Rng, RunConfig, WorkloadRun, WARMUP_SEED};

/// Driver workers of the service (marks requests run no simulation, so
/// this only shapes the service as deployed).
const SERVICE_THREADS: usize = 2;
/// Outputs the digest covers.
pub const DIGEST_OPS: usize = 50;
/// Input stream of the measured operations' catalogue seeds.
const OPS_STREAM: u64 = 1;

/// The `marks` request line of operation `op`, for catalogue seed
/// `catalog_seed` (the catalogue itself stays at the service default scale).
pub fn request_line(op: u64, catalog_seed: u64) -> String {
    format!("{{\"id\":\"cold-{op}\",\"kind\":\"marks\",\"catalog\":{{\"seed\":{catalog_seed}}}}}")
}

/// The request lines of a run's operations, in order.
pub fn op_lines(seed: u64) -> impl Iterator<Item = String> {
    let mut rng = Rng::new(seed, OPS_STREAM);
    (0..).map(move |op| request_line(op, rng.next_u64()))
}

/// The reply echoes the locally computed spec hash and carries one row per
/// catalogue benchmark, in catalogue order, with finite numbers.
fn check_reply(line: &str, reply: &str) -> Result<(), String> {
    let expected = parse_request(line)
        .map_err(|_| "the request line does not parse".to_string())?
        .spec_hash()
        .to_string();
    let doc = json::parse(reply).map_err(|e| format!("reply is not JSON: {e}"))?;
    let field = |name: &str| doc.get(name).and_then(JsonValue::as_str);
    if field("status") != Some("ok") || field("kind") != Some("marks") {
        return Err(format!("not a marks report: {reply:.200}"));
    }
    if field("spec_hash") != Some(expected.as_str()) {
        return Err(format!("spec_hash is not the local {expected}"));
    }
    let rows = doc
        .get("rows")
        .and_then(JsonValue::as_array)
        .ok_or("reply has no rows")?;
    let names = standard_benchmark_names();
    if rows.len() != names.len() {
        return Err(format!(
            "{} rows for {} benchmarks",
            rows.len(),
            names.len()
        ));
    }
    for (row, name) in rows.iter().zip(names) {
        if row.get("label").and_then(JsonValue::as_str) != Some(name) {
            return Err(format!("row for '{name}' is missing or out of order"));
        }
        for metric in ["marks", "added_bytes", "space_overhead_pct"] {
            match row.get(metric).and_then(JsonValue::as_f64) {
                Some(v) if v.is_finite() && v >= 0.0 => {}
                _ => return Err(format!("row '{name}': {metric} is not a finite number")),
            }
        }
    }
    Ok(())
}

/// Runs the workload: set-up, the untraced pass, and (if asked) the traced
/// pass.
pub fn run(config: &RunConfig) -> WorkloadRun {
    let warmup = request_line(u64::MAX, WARMUP_SEED);
    run_phases(
        config,
        || {
            let mut server = Server::start(SERVICE_THREADS).expect("the loopback service starts");
            let reply = server
                .request(&warmup)
                .expect("the warm-up request is answered");
            if let Err(failure) = check_reply(&warmup, &reply) {
                panic!("the warm-up reply fails its check: {failure}");
            }
            server
        },
        |server| {
            server.stop().expect("the service shuts down cleanly");
        },
        |server| untraced_pass(server, config),
        |server, min_ops| traced_pass(server, config, min_ops),
    )
}

fn untraced_pass(server: &mut Server, config: &RunConfig) -> Pass {
    let mut pass = Pass::new(DIGEST_OPS);
    for line in op_lines(config.seed) {
        if pass.elapsed() >= config.duration() {
            break;
        }
        let began = Instant::now();
        let reply = server.request(&line);
        let latency = began.elapsed();
        match reply {
            Ok(reply) => pass.record(latency, &reply, check_reply(&line, &reply)),
            Err(error) => {
                pass.record(latency, "", Err(format!("request failed: {error}")));
                break;
            }
        }
    }
    pass.finish();
    pass
}

/// The traced pass: each operation runs in-process first, split into the
/// calls the service makes (parse, the store's stage chain, the now-warm
/// `handle`, render), then once more over the wire; the wire's share is
/// the round trip minus the in-process parse, handle and render.
fn traced_pass(server: &mut Server, config: &RunConfig, min_ops: usize) -> (Pass, Ledger) {
    let service = std::sync::Arc::clone(&server.service);
    let store = service.store();
    let mut pass = Pass::new(DIGEST_OPS);
    let mut ledger = Ledger::new();
    let before = store.snapshot();
    for line in op_lines(config.seed) {
        if pass.elapsed() >= config.traced_duration() && pass.attempted as usize >= min_ops {
            break;
        }
        ledger.begin_op();
        let began = Instant::now();
        let request = ledger
            .time("serve.parse_us", || parse_request(&line))
            .expect("generated request lines parse");
        let spec = request.kind.spec().expect("marks requests carry a spec");
        let catalog = ledger.time("workload.catalog_ms", || store.catalog(&spec.catalog));
        for bench in catalog.benchmarks() {
            traced_static_pipeline(
                &mut ledger,
                store,
                bench.program(),
                &spec.machine,
                &spec.pipeline,
            );
        }
        let response = ledger.time("serve.handle_us.marks", || service.handle(&request));
        let rendered = ledger.time("serve.render_us", || response.to_json().render_compact());
        let in_process: Duration = ["serve.parse_us", "serve.handle_us.marks", "serve.render_us"]
            .iter()
            .map(|layer| ledger.op_busy(layer))
            .sum();
        let sent = Instant::now();
        let reply = server.request(&line);
        ledger.record("serve.wire_us", sent.elapsed().saturating_sub(in_process));
        let latency = began.elapsed();
        ledger.end_op();
        let check = check_reply(&line, &rendered).and_then(|()| match &reply {
            Ok(reply) if *reply == rendered => Ok(()),
            Ok(_) => Err("the wire reply differs from the in-process reply".into()),
            Err(error) => Err(format!("request failed: {error}")),
        });
        pass.record(latency, &rendered, check);
    }
    pass.finish();
    let delta = store.snapshot().delta_since(&before);
    ledger.count("core.store_hits", delta.total_hits() as f64);
    ledger.count("core.store_misses", delta.total_misses() as f64);
    ledger.gauge(
        "core.store_resident_mb",
        store.resident_bytes() as f64 / (1024.0 * 1024.0),
    );
    server.record_serving_gauges(&mut ledger);
    (pass, ledger)
}
