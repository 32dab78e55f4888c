//! `serve-warm` — the wire path with no compute. One connection keeps a
//! fixed [`WINDOW`] of requests outstanding against a service warmed in
//! set-up: ~60% answers already computed (`marks`, `isolation`,
//! `comparison`), ~20% `artifact-get` (phase-pack encode), ~10%
//! `artifact-put` (phase-pack decode and admission), ~5% `stats` and ~5%
//! malformed lines. This loads the wire, JSON parse and render, the store's
//! hit path and phase-pack; its puts use the store differently from
//! `tune-cold`'s misses.
//!
//! The window is what makes the workload steady: with one request at a time,
//! each operation's latency is a few thread hand-offs, and run-to-run
//! scheduling noise moved throughput by tens of percent.

use std::sync::Arc;
use std::time::Instant;

use phase_core::json::{self, JsonValue};
use phase_serve::{parse_request, RequestKind, ServeError, TuningResponse};

use crate::ledger::Ledger;
use crate::wire::Server;
use crate::{run_phases, Pass, Rng, RunConfig, WorkloadRun};

/// Requests kept outstanding on the connection.
pub const WINDOW: usize = 8;
/// Driver workers of the service (used in set-up, to compute the answers).
const SERVICE_THREADS: usize = 2;
/// Outputs the digest covers.
pub const DIGEST_OPS: usize = 1000;
/// Operations per category in the generated (and cycled) sequence:
/// computed answers, artifact gets, artifact puts, stats, malformed lines.
const MIX: [usize; 5] = [2400, 800, 400, 200, 200];
/// Input stream of the request specs.
const SPECS_STREAM: u64 = 1;
/// Input stream of the operation sequence.
const SEQUENCE_STREAM: u64 = 2;
/// Input stream of the artifact keys chosen for gets and puts.
const KEYS_STREAM: u64 = 3;
/// Stages the artifact gets read from, one key each.
const GET_STAGES: [&str; 6] = [
    "typings",
    "ipc_profiles",
    "instrumented",
    "baselines",
    "isolated_runtimes",
    "cells",
];
/// Stages whose fetched artifact is also put back, re-admitting it.
const PUT_STAGES: [&str; 3] = ["typings", "ipc_profiles", "instrumented"];
/// Marking granularities of the `marks` specs, one spec each.
const MARKS_GRANULARITIES: [&str; 4] = ["loop", "interval", "basic-block", "loop"];
/// `isolation` and `comparison` specs each.
const STUDY_SPECS: usize = 2;

/// Malformed lines and the error code each must be answered with.
const MALFORMED: [(&str, &str); 4] = [
    ("{\"id\":\"bad-0\",\"kind\"", "bad-json"),
    ("{\"id\":\"bad-1\",\"kind\":\"dance\"}", "unknown-kind"),
    (
        "{\"id\":\"bad-2\",\"kind\":\"marks\",\"bogus\":1}",
        "unknown-field",
    ),
    (
        "{\"id\":\"bad-3\",\"kind\":\"marks\",\"expect_hash\":\"00000000000000000000000000000000\"}",
        "hash-mismatch",
    ),
];

const STATS_LINE: &str = "{\"id\":\"stats\",\"kind\":\"stats\"}";
const LIST_LINE: &str = "{\"id\":\"list\",\"kind\":\"artifact-list\"}";

/// The request lines whose answers set-up computes, generated from the
/// seed: `marks`, then `isolation`, then `comparison` specs.
pub fn computed_lines(seed: u64) -> Vec<String> {
    let mut rng = Rng::new(seed, SPECS_STREAM);
    let mut lines = Vec::new();
    for (index, granularity) in MARKS_GRANULARITIES.iter().enumerate() {
        lines.push(format!(
            "{{\"id\":\"marks-{index}\",\"kind\":\"marks\",\"catalog\":{{\"seed\":{}}},\
             \"marking\":{{\"granularity\":\"{granularity}\"}}}}",
            rng.next_u64()
        ));
    }
    for index in 0..STUDY_SPECS {
        lines.push(format!(
            "{{\"id\":\"isolation-{index}\",\"kind\":\"isolation\",\"catalog\":{{\"seed\":{}}}}}",
            rng.next_u64()
        ));
    }
    for index in 0..STUDY_SPECS {
        lines.push(format!(
            "{{\"id\":\"comparison-{index}\",\"kind\":\"comparison\",\"workload_seed\":{}}}",
            rng.next_u64()
        ));
    }
    lines
}

/// The operation sequence: `(category, item)` pairs, categories in exact
/// [`MIX`] proportions, shuffled, items uniform within their category.
pub fn sequence(seed: u64) -> Vec<(usize, usize)> {
    let mut rng = Rng::new(seed, SEQUENCE_STREAM);
    let mut categories: Vec<usize> = MIX
        .iter()
        .enumerate()
        .flat_map(|(category, &count)| std::iter::repeat_n(category, count))
        .collect();
    for i in (1..categories.len()).rev() {
        categories.swap(i, rng.below(i + 1));
    }
    let sizes = [
        MARKS_GRANULARITIES.len() + 2 * STUDY_SPECS,
        GET_STAGES.len(),
        PUT_STAGES.len(),
        1,
        MALFORMED.len(),
    ];
    categories
        .into_iter()
        .map(|category| (category, rng.below(sizes[category])))
        .collect()
}

/// What a reply is checked against.
#[derive(Debug, Clone)]
enum Expect {
    /// The reply recorded in set-up, byte for byte.
    Bytes(String),
    /// A `stats` reply, checked by schema (its counters move).
    Stats,
}

/// The request table set-up builds: newline-terminated lines, what each
/// reply must be, where each category starts, and the operation sequence
/// as indices into the lines.
#[derive(Debug, Clone, Default)]
struct Table {
    lines: Vec<String>,
    expect: Vec<Expect>,
    starts: [usize; 5],
    sequence: Vec<usize>,
}

impl Table {
    fn push(&mut self, line: &str, expect: Expect) {
        self.lines.push(format!("{line}\n"));
        self.expect.push(expect);
    }

    /// The line index of operation `op`.
    fn line_of(&self, op: usize) -> usize {
        self.sequence[op % self.sequence.len()]
    }

    fn check(&self, index: usize, reply: &str) -> Result<(), String> {
        match &self.expect[index] {
            Expect::Bytes(expected) if expected == reply => Ok(()),
            Expect::Bytes(_) => Err(format!(
                "reply to '{:.80}' differs from the reference",
                self.lines[index].trim_end()
            )),
            Expect::Stats => check_stats(reply),
        }
    }

    /// What the digest folds in for a reply.
    fn digest_text<'a>(&self, index: usize, reply: &'a str) -> &'a str {
        match self.expect[index] {
            Expect::Bytes(_) => reply,
            Expect::Stats => "stats",
        }
    }
}

fn parse_reply(reply: &str) -> Result<JsonValue, String> {
    json::parse(reply).map_err(|e| format!("reply is not JSON: {e}"))
}

fn str_field<'a>(doc: &'a JsonValue, name: &str) -> Option<&'a str> {
    doc.get(name).and_then(JsonValue::as_str)
}

/// A `stats` reply has the service's counters, its serving block and a
/// per-stage store block.
fn check_stats(reply: &str) -> Result<(), String> {
    let doc = parse_reply(reply)?;
    if str_field(&doc, "status") != Some("ok") || str_field(&doc, "kind") != Some("stats") {
        return Err(format!("not a stats reply: {reply:.200}"));
    }
    let stats = doc.get("stats").ok_or("stats reply without counters")?;
    for name in [
        "requests",
        "reports",
        "errors",
        "resident_bytes",
        "evictions",
    ] {
        stats
            .get(name)
            .and_then(JsonValue::as_f64)
            .ok_or(format!("stats.{name} is not a number"))?;
    }
    let serving = stats
        .get("serving")
        .ok_or("stats without a serving block")?;
    for name in ["shed", "coalesced"] {
        serving
            .get(name)
            .and_then(JsonValue::as_f64)
            .ok_or(format!("stats.serving.{name} is not a number"))?;
    }
    for stage in GET_STAGES {
        stats
            .get("store")
            .and_then(|store| store.get(stage))
            .and_then(|stage| stage.get("hits"))
            .and_then(JsonValue::as_f64)
            .ok_or(format!("stats.store.{stage}.hits is not a number"))?;
    }
    Ok(())
}

/// Requests one line in set-up and returns its reply, which must be an ok
/// reply.
fn setup_request(server: &mut Server, line: &str) -> String {
    let reply = server.request(line).expect("set-up requests are answered");
    let doc = parse_reply(&reply).expect("set-up replies are JSON");
    assert_eq!(
        str_field(&doc, "status"),
        Some("ok"),
        "set-up request '{line:.80}' failed: {reply:.300}"
    );
    reply
}

/// One set-up replica: a fresh service, every distinct answer computed, and
/// the reference reply of every line recorded.
fn setup(seed: u64) -> (Server, Table) {
    let mut server = Server::start(SERVICE_THREADS).expect("the loopback service starts");
    let mut table = Table::default();
    for line in computed_lines(seed) {
        let reply = setup_request(&mut server, &line);
        table.push(&line, Expect::Bytes(reply));
    }
    let list = parse_reply(&setup_request(&mut server, LIST_LINE)).expect("listed");
    let mut keys = Rng::new(seed, KEYS_STREAM);
    table.starts[1] = table.lines.len();
    let mut payloads = Vec::new();
    for stage in GET_STAGES {
        let hashes = list
            .get("stages")
            .and_then(|stages| stages.get(stage))
            .and_then(JsonValue::as_array)
            .filter(|hashes| !hashes.is_empty())
            .unwrap_or_else(|| panic!("set-up left stage '{stage}' empty"));
        let hash = hashes[keys.below(hashes.len())]
            .as_str()
            .expect("hashes are strings")
            .to_string();
        let line = format!(
            "{{\"id\":\"get-{stage}\",\"kind\":\"artifact-get\",\"stage\":\"{stage}\",\
             \"hash\":\"{hash}\"}}"
        );
        let reply = setup_request(&mut server, &line);
        let payload = str_field(&parse_reply(&reply).expect("JSON"), "payload")
            .unwrap_or_else(|| panic!("artifact {stage}:{hash} was not found"))
            .to_string();
        payloads.push((stage, hash, payload));
        table.push(&line, Expect::Bytes(reply));
    }
    table.starts[2] = table.lines.len();
    for (stage, hash, payload) in payloads
        .into_iter()
        .filter(|(stage, _, _)| PUT_STAGES.contains(stage))
    {
        let line = format!(
            "{{\"id\":\"put-{stage}\",\"kind\":\"artifact-put\",\"stage\":\"{stage}\",\
             \"hash\":\"{hash}\",\"payload\":\"{payload}\"}}"
        );
        let reply = setup_request(&mut server, &line);
        table.push(&line, Expect::Bytes(reply));
    }
    table.starts[3] = table.lines.len();
    let stats = setup_request(&mut server, STATS_LINE);
    check_stats(&stats).expect("the stats reply has its schema");
    table.push(STATS_LINE, Expect::Stats);
    table.starts[4] = table.lines.len();
    for (line, code) in MALFORMED {
        let reply = server.request(line).expect("malformed lines are answered");
        let doc = parse_reply(&reply).expect("error replies are JSON");
        assert_eq!(str_field(&doc, "code"), Some(code), "reply to '{line}'");
        table.push(line, Expect::Bytes(reply));
    }
    table.sequence = sequence(seed)
        .into_iter()
        .map(|(category, item)| table.starts[category] + item)
        .collect();
    (server, table)
}

/// Runs the workload: set-up, the untraced pass, and (if asked) the traced
/// pass.
pub fn run(config: &RunConfig) -> WorkloadRun {
    run_phases(
        config,
        || setup(config.seed),
        |(server, _)| {
            server.stop().expect("the service shuts down cleanly");
        },
        |(server, table)| untraced_pass(server, table, config),
        |(server, table), min_ops| traced_pass(server, table, config, min_ops),
    )
}

fn untraced_pass(server: &mut Server, table: &Table, config: &RunConfig) -> Pass {
    let mut pass = Pass::new(DIGEST_OPS);
    let result = server.pipelined(
        WINDOW,
        config.duration(),
        |op| table.lines[table.line_of(op as usize)].as_str(),
        |op, latency, reply| {
            let index = table.line_of(op as usize);
            pass.record(
                latency,
                table.digest_text(index, reply),
                table.check(index, reply),
            );
        },
    );
    pass.finish();
    pass.fail_if(result.map_err(|error| format!("the connection failed: {error}")));
    pass
}

/// The layer span of a `handle` call for a request kind.
fn handle_layer(kind: &str) -> &'static str {
    match kind {
        "marks" => "serve.handle_us.marks",
        "isolation" => "serve.handle_us.isolation",
        "comparison" => "serve.handle_us.comparison",
        _ => "serve.handle_us.stats",
    }
}

/// The traced pass, one request at a time: each operation runs in-process
/// first, split into the calls `respond` makes (parse, then `handle` — or,
/// for artifact requests, the store's phase-pack export or import it wraps
/// — then render), then once more over the wire; the wire's share is the
/// round trip minus the in-process time.
fn traced_pass(
    server: &mut Server,
    table: &Table,
    config: &RunConfig,
    min_ops: usize,
) -> (Pass, Ledger) {
    let service = Arc::clone(&server.service);
    let store = service.store();
    let mut pass = Pass::new(DIGEST_OPS);
    let mut ledger = Ledger::new();
    let before = store.snapshot();
    let mut op = 0;
    while pass.elapsed() < config.traced_duration() || (pass.attempted as usize) < min_ops {
        let index = table.line_of(op);
        op += 1;
        let line = table.lines[index].trim_end();
        ledger.begin_op();
        let began = Instant::now();
        let response = match ledger.time("serve.parse_us", || parse_request(line)) {
            Err(error) => *error,
            Ok(request) => match &request.kind {
                RequestKind::ArtifactGet { stage, hash } => {
                    let payload = ledger.time("core.pack_encode_us", || {
                        store.export_artifact(stage, *hash)
                    });
                    TuningResponse::ArtifactGet {
                        id: request.id.clone(),
                        stage: stage.clone(),
                        hash: *hash,
                        payload: payload.map(Arc::new),
                    }
                }
                RequestKind::ArtifactPut {
                    stage,
                    hash,
                    payload,
                } => {
                    let admitted = ledger.time("core.pack_decode_us", || {
                        store.import_artifact(stage, *hash, payload)
                    });
                    match admitted {
                        Ok(admitted) => TuningResponse::ArtifactPut {
                            id: request.id.clone(),
                            stage: stage.clone(),
                            hash: *hash,
                            admitted,
                        },
                        Err(error) => TuningResponse::Error {
                            id: Some(request.id.clone()),
                            error: ServeError {
                                code: "bad-payload",
                                message: format!("artifact payload rejected: {error}"),
                            },
                        },
                    }
                }
                kind => ledger.time(handle_layer(kind.name()), || service.handle(&request)),
            },
        };
        let rendered = ledger.time("serve.render_us", || response.to_json().render_compact());
        let in_process = began.elapsed();
        let sent = Instant::now();
        let reply = server.request(line);
        ledger.record("serve.wire_us", sent.elapsed().saturating_sub(in_process));
        let latency = began.elapsed();
        ledger.end_op();
        let check = table.check(index, &rendered).and_then(|()| match &reply {
            Ok(reply) if matches!(table.expect[index], Expect::Stats) => check_stats(reply),
            Ok(reply) if *reply == rendered => Ok(()),
            Ok(_) => Err("the wire reply differs from the in-process reply".into()),
            Err(error) => Err(format!("request failed: {error}")),
        });
        pass.record(latency, table.digest_text(index, &rendered), check);
        if reply.is_err() {
            break;
        }
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
