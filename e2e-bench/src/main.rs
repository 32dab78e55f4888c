//! The benchmark's command line.
//!
//! ```text
//! cargo run --release --manifest-path e2e-bench/Cargo.toml -- \
//!     --workload <sweep|tune-cold|serve-warm|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints each metric with its unit, a detail line (digests, sample counts,
//! the machine block), and as the last line the JSON result
//! `{correct, attempted, failed, metrics}`: end-to-end metrics with
//! `--trace 0`, per-layer metrics with `--trace 1`. `all` runs every
//! workload in its own child process.

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use phase_core::json::{self, JsonValue};
use phase_e2e_bench::{machine, report, run_workload, RunConfig, WORKLOADS};

const USAGE: &str =
    "usage: phase-e2e-bench --workload <sweep|tune-cold|serve-warm|all> --seed <n> \
     --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    config: RunConfig,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload '{workload}'"));
    }
    Ok(Args {
        workload,
        config: RunConfig {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        },
    })
}

/// Where the traced pass's spans are written: inside the benchmark's own
/// directory.
fn spans_path(workload: &str, seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{workload}-{seed}.ndjson"))
}

fn print_metrics(result: &JsonValue) {
    if let Some(JsonValue::Object(metrics)) = result.get("metrics") {
        for (name, metric) in metrics {
            let value = metric.get("value").and_then(JsonValue::as_f64);
            let unit = metric.get("unit").and_then(JsonValue::as_str).unwrap_or("");
            match value {
                Some(value) => println!("{name:<40} {value:>16.4} {unit}"),
                None => println!("{name:<40} {:>16} {unit}", "null"),
            }
        }
    }
}

fn run_one(args: &Args) -> ExitCode {
    let machine = machine::block();
    let run = run_workload(&args.workload, &args.config).expect("the workload name was checked");
    let report = report::build(&args.workload, &run);
    let mut detail = report
        .detail
        .field("seed", args.config.seed)
        .field("seconds", args.config.seconds)
        .field("machine", machine);
    if let Some((_, ledger)) = &run.traced {
        let path = spans_path(&args.workload, args.config.seed);
        match ledger.write_spans(&path) {
            Ok(()) => detail = detail.field("spans", path.display().to_string()),
            Err(error) => eprintln!("could not write the spans to {}: {error}", path.display()),
        }
    }
    print_metrics(&report.result);
    println!("{}", detail.render_compact());
    println!("{}", report.result.render_compact());
    ExitCode::SUCCESS
}

/// Runs every workload in its own process (so each one's `peak_rss_mb` is
/// its own) and combines their results under `<workload>.` prefixes.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let mut correct = true;
    let mut attempted = 0.0;
    let mut failed = 0.0;
    let mut metrics = JsonValue::object();
    for workload in WORKLOADS {
        let output = Command::new(&exe)
            .args(["--workload", workload, "--seed"])
            .arg(args.config.seed.to_string())
            .arg("--seconds")
            .arg(args.config.seconds.to_string())
            .args(["--trace", if args.config.trace { "1" } else { "0" }])
            .output()
            .expect("the workload process starts");
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        let result = stdout
            .lines()
            .last()
            .and_then(|line| json::parse(line).ok());
        let Some(result) = result.filter(|_| output.status.success()) else {
            eprintln!("workload {workload} failed: {}", output.status);
            return ExitCode::FAILURE;
        };
        correct &= result.get("correct") == Some(&JsonValue::Bool(true));
        attempted += result
            .get("attempted")
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0);
        failed += result
            .get("failed")
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0);
        if let Some(JsonValue::Object(fields)) = result.get("metrics") {
            for (name, metric) in fields {
                metrics = metrics.field(&format!("{workload}.{name}"), metric.clone());
            }
        }
    }
    let combined = JsonValue::object()
        .field("correct", correct)
        .field("attempted", attempted as u64)
        .field("failed", failed as u64)
        .field("metrics", metrics);
    println!("{}", combined.render_compact());
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        run_all(&args)
    } else {
        run_one(&args)
    }
}
