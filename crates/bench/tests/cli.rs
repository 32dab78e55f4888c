//! The `run_studies` command line as a process sees it: invalid input exits
//! with status 2 before any study runs, whether it arrives as a flag or as
//! the matching `PHASE_BENCH_*` environment variable.
//!
//! Each case spawns the binary with a cleared environment, so the tests
//! never depend on (or race over) the test process's own variables.

use std::process::{Command, Output};

fn run_studies(args: &[&str], env: &[(&str, &str)]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_run_studies"))
        .args(args)
        .env_clear()
        .envs(env.iter().copied())
        .output()
        .expect("run_studies starts")
}

/// Asserts a usage error (status 2, nothing run) and returns its message.
fn usage_error(output: &Output) -> String {
    assert_eq!(output.status.code(), Some(2), "{output:?}");
    assert!(output.stdout.is_empty(), "no study may start: {output:?}");
    String::from_utf8(output.stderr.clone()).expect("utf-8 stderr")
}

#[test]
fn an_unknown_study_name_exits_2_and_lists_the_valid_names() {
    let message = usage_error(&run_studies(&["--only=fig3,fig9"], &[]));
    assert!(message.contains("\"fig9\""), "{message}");
    for name in phase_bench::studies::names() {
        assert!(
            message.contains(name),
            "the message lists {name}: {message}"
        );
    }
}

#[test]
fn zero_slots_are_rejected_alike_from_the_flag_and_the_environment() {
    let flag = usage_error(&run_studies(&["--only=fig3", "--slots=0"], &[]));
    let env = usage_error(&run_studies(
        &["--only=fig3"],
        &[("PHASE_BENCH_SLOTS", "0")],
    ));
    assert_eq!(flag.replace("--slots", "PHASE_BENCH_SLOTS"), env);
}

#[test]
fn malformed_intervals_are_rejected_alike_from_the_flag_and_the_environment() {
    for raw in ["abc", "-5"] {
        let flag = usage_error(&run_studies(&[&format!("--interval={raw}")], &[]));
        let env = usage_error(&run_studies(&[], &[("PHASE_BENCH_INTERVAL", raw)]));
        assert_eq!(flag.replace("--interval", "PHASE_BENCH_INTERVAL"), env);
    }
}
