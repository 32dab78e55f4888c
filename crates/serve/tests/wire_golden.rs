//! Golden test for the NDJSON wire format: a captured request/response
//! transcript pinned bit-for-bit, the malformed-request cases (truncated
//! JSON, unknown fields, unknown kinds, hash mismatches, type errors,
//! nesting bombs) answered with structured errors instead of killing the
//! loop, and the TCP front end producing the same bytes as the in-memory
//! loop.
//!
//! Regenerate the pinned output after an intentional schema change with
//! `cargo test -p phase-serve --test wire_golden -- --ignored regenerate`.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

use phase_serve::{parse_request, serve_lines, serve_tcp, ServiceConfig, TuningService};

const TRANSCRIPT_IN: &str = include_str!("golden/transcript.in");
const TRANSCRIPT_OUT: &str = include_str!("golden/transcript.out");

fn fresh_service() -> TuningService {
    // One worker thread: the golden bytes must not depend on hardware.
    TuningService::new(ServiceConfig::with_threads(1)).expect("cold start cannot fail")
}

fn run_transcript() -> (String, phase_serve::WireSummary) {
    let service = fresh_service();
    let mut out = Vec::new();
    let summary = serve_lines(&service, BufReader::new(TRANSCRIPT_IN.as_bytes()), &mut out)
        .expect("in-memory serving cannot fail");
    (
        String::from_utf8(out).expect("responses are UTF-8"),
        summary,
    )
}

#[test]
fn transcript_matches_the_pinned_capture_bit_for_bit() {
    let (output, summary) = run_transcript();
    assert_eq!(summary.responses, 10, "one response per non-empty line");
    assert_eq!(
        summary.errors, 6,
        "the six malformed lines answer structured errors"
    );
    assert_eq!(
        output, TRANSCRIPT_OUT,
        "wire bytes diverged from the pinned transcript"
    );
}

#[test]
fn malformed_lines_do_not_kill_the_loop() {
    let (output, _) = run_transcript();
    let lines: Vec<&str> = output.lines().collect();
    // The comparison request after every malformed line still got served.
    assert!(
        lines[9].contains("\"id\": \"c1\"") && lines[9].contains("\"status\": \"ok\""),
        "the loop kept serving after six bad requests: {}",
        lines[9]
    );
    for (line, code) in [
        (lines[3], "bad-json"),
        (lines[4], "unknown-field"),
        (lines[5], "unknown-kind"),
        (lines[6], "hash-mismatch"),
        (lines[7], "bad-request"),
        (lines[8], "bad-request"),
    ] {
        assert!(
            line.contains("\"status\": \"error\"") && line.contains(code),
            "expected a structured '{code}' error, got: {line}"
        );
    }
}

#[test]
fn repeated_requests_answer_identical_bytes_from_cache() {
    let service = fresh_service();
    let line = "{\"id\": \"r\", \"kind\": \"marks\", \
                \"catalog\": {\"scale\": 0.04, \"seed\": 7}}";
    let cold = service.respond(line).to_json().render_compact();
    let warm = service.respond(line).to_json().render_compact();
    assert_eq!(cold, warm, "a cache hit must not change the response bytes");
    let stats = service.stats();
    assert_eq!(stats.reports, 2);
    let instrumented = stats.store.stage("instrumented").expect("stage exists");
    assert!(
        instrumented.hits >= 15,
        "the warm request was answered from the store: {instrumented:?}"
    );
}

#[test]
fn invalid_utf8_gets_a_structured_error_and_the_loop_survives() {
    let service = fresh_service();
    let mut input = Vec::new();
    input.extend_from_slice(b"{\"id\": \"x\", \"kind\": \xff\xfe}\n");
    input.extend_from_slice(
        b"{\"id\": \"after\", \"kind\": \"marks\", \"catalog\": {\"scale\": 0.04, \"seed\": 7}}\n",
    );
    let mut out = Vec::new();
    let summary =
        serve_lines(&service, BufReader::new(&input[..]), &mut out).expect("loop survives");
    assert_eq!(summary.responses, 2);
    assert_eq!(summary.errors, 1);
    let output = String::from_utf8(out).unwrap();
    let lines: Vec<&str> = output.lines().collect();
    assert!(
        lines[0].contains("bad-json") && lines[0].contains("not valid UTF-8"),
        "structured error for raw bytes: {}",
        lines[0]
    );
    assert!(
        lines[1].contains("\"id\": \"after\"") && lines[1].contains("\"status\": \"ok\""),
        "the loop kept serving after the binary garbage: {}",
        lines[1]
    );
}

#[test]
fn deeply_nested_json_gets_a_structured_error_and_the_loop_survives() {
    let hostile = "[".repeat(100_000);
    let error = parse_request(&hostile).expect_err("a bare array is not a request");
    let rendered = error.to_json().render_compact();
    assert!(
        rendered.contains("bad-json") && rendered.contains("nesting deeper than"),
        "structured error for a nesting bomb: {rendered}"
    );

    let service = fresh_service();
    let input = format!("{hostile}\n{{\"id\": \"after\", \"kind\": \"stats\"}}\n");
    let mut out = Vec::new();
    let summary =
        serve_lines(&service, BufReader::new(input.as_bytes()), &mut out).expect("loop survives");
    assert_eq!((summary.responses, summary.errors), (2, 1));
    let output = String::from_utf8(out).unwrap();
    let lines: Vec<&str> = output.lines().collect();
    assert!(
        lines[0].contains("bad-json") && lines[0].contains("nesting deeper than"),
        "structured error on the wire: {}",
        lines[0]
    );
    assert!(
        lines[1].contains("\"id\": \"after\"") && lines[1].contains("\"status\": \"ok\""),
        "the loop kept serving after the nesting bomb: {}",
        lines[1]
    );
}

#[test]
fn tcp_front_end_matches_the_in_memory_loop() {
    let line = "{\"id\": \"tcp\", \"kind\": \"marks\", \
                \"catalog\": {\"scale\": 0.04, \"seed\": 7}}";
    let expected = fresh_service().respond(line).to_json().render_compact();

    let service = Arc::new(fresh_service());
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
    let addr = listener.local_addr().unwrap();
    let server = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || serve_tcp(&service, listener, Some(1)))
    };

    let mut stream = TcpStream::connect(addr).expect("connect to the service");
    stream
        .write_all(format!("{line}\n").as_bytes())
        .expect("send the request");
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut response = String::new();
    reader.read_line(&mut response).expect("read the response");
    // Closing the write half ends the connection's serving loop.
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("shutdown");
    server
        .join()
        .expect("server thread")
        .expect("serving succeeded");
    assert_eq!(response.trim_end(), expected);
}

/// Regenerates `golden/transcript.out`. Run explicitly after an intentional
/// wire-format change; never runs in CI.
#[test]
#[ignore]
fn regenerate() {
    let (output, _) = run_transcript();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/transcript.out");
    std::fs::write(&path, output).expect("write the golden capture");
    println!("regenerated {}", path.display());
}
