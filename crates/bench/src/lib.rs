//! # phase-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! paper's evaluation (Sondag & Rajan, CGO 2011, Section IV). Every
//! artifact is a study in the [`studies::STUDIES`] table, run by the one
//! study entry point (`cargo run -p phase-bench --release --bin run_studies
//! -- --only=<name>`; the name is also the `BENCH_<name>.json` stem):
//!
//! | paper artifact | `--only=` |
//! |---|---|
//! | Figure 3 (space overhead) | `fig3` |
//! | Figure 4 (time overhead, size-84 workload) | `fig4` |
//! | Table 1 (switches per benchmark) | `table1` |
//! | Figure 5 (cycles per core switch) | `fig5` |
//! | Figure 6 (throughput vs. IPC threshold) | `fig6` |
//! | Figure 7 (throughput vs. clustering error) | `fig7` |
//! | Section IV-C2 (lookahead sweep) | `sweep_lookahead` |
//! | Section IV-C4 (minimum-size sweep) | `sweep_min_size` |
//! | Table 2 (fairness vs. stock Linux) | `table2` |
//! | Figure 8 (speedup vs. fairness trade-off) | `fig8` |
//! | Section III / IV-B (mark statistics) | `table_mark_stats` |
//! | Section VII (3-core AMP) | `three_core` |
//! | online vs. static tuning (`BENCH_online.json`) | `online` |
//! | engine/driver baseline and perf gate (`BENCH_engine.json`) | `engine` |
//! | datacenter tail latency (`BENCH_tail.json`) | `tail` |
//!
//! A study is a declarative spec (see [`studies`]) over the shared
//! spec-driven runner of `phase-core` (`run_study`): the spec expands into an
//! `ExperimentPlan`, the cells fan across the parallel `Driver` through the
//! content-addressed `ArtifactStore`, and the unified [`StudyReport`] is
//! rendered to the legacy table text and written as `BENCH_<study>.json`.
//! A plain `run_studies` executes the thirteen paper and online studies
//! against one shared store and records the cold-versus-warm sweep
//! wall-clock in `BENCH_study.json`; `--only` runs the named studies, each
//! on a fresh store.
//!
//! The harnesses that are not studies are binaries of their own:
//!
//! | measurement | binary |
//! |---|---|
//! | tuning-service cold/warm + eviction (`BENCH_serve.json`) | `bench_serve` |
//! | open-loop serving latency + coalescing storm (`BENCH_load.json`) | `bench_load` |
//! | tiered artifact store (`BENCH_store.json`) | `bench_store` |
//! | tracing overhead (`BENCH_trace.json`) | `bench_trace` |
//!
//! Every binary reads its settings once, through [`init`], from its flags
//! and these environment variables (a flag wins over its variable, and both
//! are validated by the same rule; an invalid value exits 2):
//!
//! * `--quick` / `PHASE_BENCH_QUICK` — shrinks the catalogue and horizons so
//!   a full regeneration finishes in seconds (used by CI-style smoke runs);
//! * `--perf` / `PHASE_BENCH_PERF` — pins the engine study's scale, slots,
//!   seeds and sample count (the sims/sec perf-gate profile; overrides
//!   quick/slots);
//! * `--slots=N` / `PHASE_BENCH_SLOTS` — workload size (default varies per
//!   study);
//! * `--threads=N` / `PHASE_BENCH_THREADS` — driver worker threads (default:
//!   all hardware threads);
//! * `--interval=N` / `PHASE_BENCH_INTERVAL` — restricts the online
//!   sampling-interval sweep to one period;
//! * `--out=PATH` / `PHASE_BENCH_OUT_DIR` — where `BENCH_*.json` reports are
//!   written (default: the current directory);
//! * `--trace-out=PATH` / `PHASE_BENCH_TRACE_OUT` — dump a captured trace as
//!   NDJSON.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

use std::path::PathBuf;

use phase_core::{Driver, ExperimentConfig, JsonValue, PipelineConfig, StudyReport};
use phase_marking::MarkingConfig;
use phase_sched::SimConfig;

pub mod studies;

use studies::Study;

/// Writes the given trace records to `path` as deterministic NDJSON (one
/// record per line, sorted by logical coordinate by the trace crate).
pub fn write_trace_ndjson(
    path: &std::path::Path,
    records: &[phase_trace::TraceRecord],
) -> std::io::Result<()> {
    write_report_file(path, &phase_core::trace_export::render_ndjson(records))
}

/// The parsed harness settings every bench binary runs under. Binaries get
/// them from [`init`] (flags plus environment); tests build them directly so
/// they never touch process-global state.
#[derive(Debug, Clone, Default)]
pub struct BenchSettings {
    /// Reduced catalogue and horizon (`--quick` / `PHASE_BENCH_QUICK`).
    pub quick: bool,
    /// Pinned performance profile (`--perf` / `PHASE_BENCH_PERF`): fixed
    /// scale, slots, seeds and samples for comparable sims/sec numbers;
    /// overrides `quick` and `slots` where the two conflict.
    pub perf: bool,
    /// Workload-size override (`--slots=N` / `PHASE_BENCH_SLOTS`); `None`
    /// uses each study's own default.
    pub slots: Option<usize>,
    /// Driver worker threads (`--threads=N` / `PHASE_BENCH_THREADS`).
    pub threads: usize,
    /// Online sampling-interval override (`--interval=N` /
    /// `PHASE_BENCH_INTERVAL`).
    pub interval_override_ns: Option<f64>,
    /// Where `BENCH_*.json` reports go (`--out=PATH` /
    /// `PHASE_BENCH_OUT_DIR`); `None` writes to the current directory.
    pub out_dir: Option<PathBuf>,
    /// Where a captured trace is dumped as NDJSON (`--trace-out=PATH` /
    /// `PHASE_BENCH_TRACE_OUT`); `None` leaves tracing off.
    pub trace_out: Option<PathBuf>,
}

impl BenchSettings {
    /// Fixed settings for tests: quick mode, an explicit slot count, two
    /// driver workers, no output directory.
    pub fn for_tests(slots: usize) -> Self {
        Self {
            quick: true,
            perf: false,
            slots: Some(slots),
            threads: 2,
            interval_override_ns: None,
            out_dir: None,
            trace_out: None,
        }
    }

    /// The workload size: the override if set, otherwise the study default.
    pub fn slots_or(&self, default: usize) -> usize {
        self.slots.unwrap_or(default)
    }

    /// The settings as JSON metadata fields, shared by every report header
    /// (`write_study_report_with` and `run_studies`' `BENCH_study.json`).
    pub fn meta_json(&self) -> Vec<(&'static str, JsonValue)> {
        vec![
            ("quick", JsonValue::Bool(self.quick)),
            ("perf", JsonValue::Bool(self.perf)),
            (
                "slots",
                self.slots.map(JsonValue::from).unwrap_or(JsonValue::Null),
            ),
            ("threads", JsonValue::from(self.threads.max(1))),
        ]
    }

    /// Where a report file should be written.
    pub fn out_path(&self, file_name: &str) -> PathBuf {
        match &self.out_dir {
            Some(dir) => dir.join(file_name),
            None => PathBuf::from(file_name),
        }
    }
}

/// Writes a study report as `BENCH_<study>.json` (under `--out` if given),
/// wrapping the unified schema with the harness settings it ran under and
/// any study-specific headline fields. Returns the path written.
pub fn write_study_report_with(
    report: &StudyReport,
    settings: &BenchSettings,
    extra: &[(&str, JsonValue)],
) -> std::io::Result<PathBuf> {
    let mut meta = settings.meta_json();
    meta.extend(extra.iter().map(|(name, value)| (*name, value.clone())));
    let path = settings.out_path(&format!("BENCH_{}.json", report.study));
    write_report_file(&path, &report.to_json_with(&meta).render())?;
    Ok(path)
}

/// Writes a report file, creating the `--out` directory first — every binary
/// honouring the flag must behave the same when the directory is absent.
pub fn write_report_file(path: &std::path::Path, contents: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    std::fs::write(path, contents)
}

/// Prints the path a report was written to, or fails the whole run: a
/// missing `BENCH_*.json` must exit nonzero (as the legacy `.expect()` did)
/// so CI's smoke step cannot pass while uploading a partial artifact set.
pub fn announce_report(result: std::io::Result<PathBuf>, what: &str) {
    match result {
        Ok(path) => println!("wrote {}", path.display()),
        Err(error) => {
            eprintln!("failed to write {what}: {error}");
            std::process::exit(1);
        }
    }
}

/// Compares a freshly produced engine report against a committed baseline
/// document at the given relative tolerance, returning one message per
/// regression (empty means the gate passes).
///
/// Rows are matched by `label`; `sims_per_sec` is the gated metric, and a
/// regression is a current value more than `tolerance` below the baseline.
/// Labels present on only one side are ignored, so adding a workload (or
/// retiring one) never fails the gate by itself — only slowing down a
/// measurement both documents share does. Faster-than-baseline rows always
/// pass; refreshing the committed baseline after a real improvement is a
/// deliberate, separate commit.
pub fn perf_regressions(current: &JsonValue, baseline: &JsonValue, tolerance: f64) -> Vec<String> {
    fn rows(doc: &JsonValue) -> Vec<(String, f64)> {
        doc.get("rows")
            .and_then(JsonValue::as_array)
            .map(|rows| {
                rows.iter()
                    .filter_map(|row| {
                        Some((
                            row.get("label")?.as_str()?.to_string(),
                            row.get("sims_per_sec")?.as_f64()?,
                        ))
                    })
                    .collect()
            })
            .unwrap_or_default()
    }
    let current = rows(current);
    rows(baseline)
        .into_iter()
        .filter_map(|(label, base)| {
            let (_, now) = current.iter().find(|(l, _)| *l == label)?;
            (base > 0.0 && *now < base * (1.0 - tolerance)).then(|| {
                format!(
                    "{label}: sims/sec {now:.3} is {:.1}% below the baseline {base:.3} \
                     (tolerance {:.0}%)",
                    (1.0 - now / base) * 100.0,
                    tolerance * 100.0
                )
            })
        })
        .collect()
}

/// The experiment configuration shared by the dynamic experiments: the
/// paper's machine, the given marking technique, and a continuously fed
/// workload measured over a fixed horizon.
pub fn experiment_config_with(
    settings: &BenchSettings,
    marking: MarkingConfig,
) -> ExperimentConfig {
    let quick = settings.quick;
    ExperimentConfig {
        pipeline: PipelineConfig::with_marking(marking),
        workload_slots: settings.slots_or(18),
        jobs_per_slot: if quick { 2 } else { 6 },
        catalog_scale: if quick { 0.2 } else { 1.0 },
        threads: settings.threads.max(1),
        sim: SimConfig {
            horizon_ns: Some(if quick { 8_000_000.0 } else { 40_000_000.0 }),
            ..SimConfig::default()
        },
        ..ExperimentConfig::default()
    }
}

/// The marking variants shown in the paper's Figure 3 / Figure 4 overhead
/// plots: every basic-block, interval, and loop variant of Table 2.
pub fn overhead_variants() -> Vec<MarkingConfig> {
    MarkingConfig::table2_variants()
}

/// A flag that takes a value, the environment variable it mirrors, and the
/// one rule both sources are validated by.
struct ValuedFlag {
    flag: &'static str,
    env: &'static str,
    expected: &'static str,
    /// Stores a valid value, or returns `None` for an invalid one.
    set: fn(&mut BenchSettings, &str) -> Option<()>,
}

impl ValuedFlag {
    /// Validates `raw` (read from `source`, the flag or the variable) into
    /// `settings`.
    fn apply(&self, settings: &mut BenchSettings, source: &str, raw: &str) -> Result<(), String> {
        (self.set)(settings, raw).ok_or_else(|| {
            format!(
                "invalid {source} value: {raw:?} (expected {})",
                self.expected
            )
        })
    }
}

fn non_empty_path(raw: &str) -> Option<PathBuf> {
    (!raw.is_empty()).then(|| PathBuf::from(raw))
}

/// Every flag that takes a value.
const VALUED_FLAGS: [ValuedFlag; 5] = [
    ValuedFlag {
        flag: "--slots",
        env: "PHASE_BENCH_SLOTS",
        expected: "a positive integer",
        set: |settings, raw| {
            settings.slots = Some(raw.parse().ok().filter(|&slots: &usize| slots > 0)?);
            Some(())
        },
    },
    ValuedFlag {
        flag: "--threads",
        env: "PHASE_BENCH_THREADS",
        expected: "a worker count",
        // Zero clamps to one worker, as `Driver::new` does.
        set: |settings, raw| {
            settings.threads = raw.parse::<usize>().ok()?.max(1);
            Some(())
        },
    },
    ValuedFlag {
        flag: "--interval",
        env: "PHASE_BENCH_INTERVAL",
        expected: "nanoseconds as a positive number",
        set: |settings, raw| {
            let ns = raw
                .parse()
                .ok()
                .filter(|ns: &f64| ns.is_finite() && *ns > 0.0)?;
            settings.interval_override_ns = Some(ns);
            Some(())
        },
    },
    ValuedFlag {
        flag: "--out",
        env: "PHASE_BENCH_OUT_DIR",
        expected: "a directory path",
        set: |settings, raw| {
            settings.out_dir = Some(non_empty_path(raw)?);
            Some(())
        },
    },
    ValuedFlag {
        flag: "--trace-out",
        env: "PHASE_BENCH_TRACE_OUT",
        expected: "a file path",
        set: |settings, raw| {
            settings.trace_out = Some(non_empty_path(raw)?);
            Some(())
        },
    },
];

/// What a bench command line asks for.
#[derive(Debug)]
enum Cli {
    /// `--help` / `-h`: print the usage and exit.
    Help,
    /// Run under these settings.
    Run {
        /// The parsed settings.
        settings: BenchSettings,
        /// The studies `--only` selected, in the order given; `None` when
        /// the selector is absent.
        only: Option<Vec<&'static Study>>,
    },
}

/// Parses a bench command line (`args`, without the program name) and the
/// `PHASE_BENCH_*` environment (`env`, as name/value pairs) into one
/// [`Cli`]. Every setting has a flag and an environment variable, validated
/// by the same rule; the flag wins when both are given. `--help` wins over
/// everything else. `--only` is accepted only when `select_studies` is set
/// (the `run_studies` entry point).
///
/// An `Err` carries the message to print before exiting with status 2.
fn parse_cli<A, K, V>(args: &[A], env: &[(K, V)], select_studies: bool) -> Result<Cli, String>
where
    A: AsRef<str>,
    K: AsRef<str>,
    V: AsRef<str>,
{
    if args
        .iter()
        .any(|arg| matches!(arg.as_ref(), "--help" | "-h"))
    {
        return Ok(Cli::Help);
    }
    let var = |name: &str| {
        env.iter()
            .find(|(key, _)| key.as_ref() == name)
            .map(|(_, value)| value.as_ref())
    };
    let switched_on = |name: &str| var(name).is_some_and(|value| value != "0");
    let mut settings = BenchSettings {
        quick: switched_on("PHASE_BENCH_QUICK"),
        perf: switched_on("PHASE_BENCH_PERF"),
        threads: Driver::default().threads(),
        ..BenchSettings::default()
    };
    for valued in &VALUED_FLAGS {
        if let Some(raw) = var(valued.env) {
            valued.apply(&mut settings, valued.env, raw)?;
        }
    }

    let mut only = None;
    for arg in args {
        let arg = arg.as_ref();
        match arg {
            "--quick" | "-q" => settings.quick = true,
            "--perf" => settings.perf = true,
            _ => {
                let unrecognized = || format!("unrecognized argument: {arg} (try --help)");
                let (flag, raw) = arg.split_once('=').ok_or_else(unrecognized)?;
                if select_studies && flag == "--only" {
                    only = Some(select_studies_by_name(raw)?);
                } else {
                    let valued = VALUED_FLAGS
                        .iter()
                        .find(|valued| valued.flag == flag)
                        .ok_or_else(unrecognized)?;
                    valued.apply(&mut settings, flag, raw)?;
                }
            }
        }
    }
    Ok(Cli::Run { settings, only })
}

/// Resolves `--only`'s comma-separated study names against the table.
fn select_studies_by_name(names: &str) -> Result<Vec<&'static Study>, String> {
    names
        .split(',')
        .map(|name| {
            studies::find(name).ok_or_else(|| {
                format!(
                    "unknown study {name:?} in --only (valid names: {})",
                    studies::names().join(", ")
                )
            })
        })
        .collect()
}

/// Prints the `--help` text.
fn print_usage(artifact: &str, description: &str, select_studies: bool) {
    println!("{artifact}");
    println!("{description}");
    println!();
    let only = if select_studies {
        "[--only=NAME[,NAME]] "
    } else {
        ""
    };
    println!(
        "USAGE: {only}[--quick] [--perf] [--slots=N] [--threads=N] [--interval=N] \
         [--out=PATH] [--trace-out=PATH]"
    );
    if select_studies {
        println!(
            "  --only=NAMES  run only these studies, each on a fresh store \
             (default: the paper studies plus the warm pass); names: {}",
            studies::names().join(", ")
        );
    }
    println!("  --quick, -q   reduced catalogue/horizon (env: PHASE_BENCH_QUICK=1)");
    println!(
        "  --perf        pinned scale/seed perf profile for sims/sec gating \
         (env: PHASE_BENCH_PERF=1)"
    );
    println!(
        "  --slots=N     workload size (env: PHASE_BENCH_SLOTS; \
         default varies per artifact)"
    );
    println!(
        "  --threads=N   driver worker threads (env: PHASE_BENCH_THREADS; \
         default: all hardware threads)"
    );
    println!(
        "  --interval=N  online sampling period in ns (env: PHASE_BENCH_INTERVAL; \
         default: sweep the built-in list)"
    );
    println!(
        "  --out=PATH    directory for BENCH_*.json reports \
         (env: PHASE_BENCH_OUT_DIR; default: current directory)"
    );
    println!(
        "  --trace-out=PATH  enable structured tracing and dump the run's \
         timeline as NDJSON (env: PHASE_BENCH_TRACE_OUT; default: off)"
    );
}

/// Parses the process's command line and `PHASE_BENCH_*` environment, then
/// prints the standard header and returns the settings. `--help`
/// prints the usage and exits 0; an invalid flag or variable exits 2.
pub fn init(artifact: &str, description: &str) -> BenchSettings {
    launch(artifact, description, false).0
}

/// Like [`init`], for the `run_studies` entry point: also accepts `--only`
/// and returns the studies it selected.
pub fn init_studies(
    artifact: &str,
    description: &str,
) -> (BenchSettings, Option<Vec<&'static Study>>) {
    launch(artifact, description, true)
}

fn launch(
    artifact: &str,
    description: &str,
    select_studies: bool,
) -> (BenchSettings, Option<Vec<&'static Study>>) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let env: Vec<(String, String)> = std::env::vars_os()
        .filter_map(|(name, value)| Some((name.into_string().ok()?, value.into_string().ok()?)))
        .collect();
    match parse_cli(&args, &env, select_studies) {
        Ok(Cli::Help) => {
            print_usage(artifact, description, select_studies);
            std::process::exit(0);
        }
        Ok(Cli::Run { settings, only }) => {
            println!("== {artifact} ==");
            println!("{description}");
            if settings.quick {
                println!("(quick mode: reduced catalogue and horizon)");
            }
            println!("(driver: {} worker threads)", settings.threads);
            println!();
            (settings, only)
        }
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NO_ENV: &[(&str, &str)] = &[];

    fn parse(args: &[&str], env: &[(&str, &str)]) -> Result<BenchSettings, String> {
        match parse_cli(args, env, false)? {
            Cli::Run { settings, only } => {
                assert!(only.is_none());
                Ok(settings)
            }
            Cli::Help => panic!("unexpected --help"),
        }
    }

    /// The same bad value through the flag and through its variable fails
    /// with the same message, up to the name of the source.
    fn rejected_alike(flag: &str, env: &str, raw: &str) -> String {
        let from_flag = parse(&[&format!("{flag}={raw}")], NO_ENV).unwrap_err();
        let from_env = parse(&[], &[(env, raw)]).unwrap_err();
        assert_eq!(from_flag.replacen(flag, env, 1), from_env);
        from_env
    }

    #[test]
    fn unset_settings_keep_their_defaults_and_set_ones_apply() {
        let defaults = parse(&[], NO_ENV).unwrap();
        assert_eq!(defaults.slots, None);
        assert_eq!(defaults.slots_or(18), 18);
        assert!(!defaults.quick && !defaults.perf);
        assert!(defaults.threads >= 1);
        assert_eq!(defaults.interval_override_ns, None);
        assert_eq!(defaults.out_dir, None);
        assert_eq!(defaults.trace_out, None);

        let env = [
            ("PHASE_BENCH_SLOTS", "12"),
            ("PHASE_BENCH_QUICK", "1"),
            ("PHASE_BENCH_PERF", "0"),
            ("PHASE_BENCH_OUT_DIR", "reports"),
            ("PHASE_BENCH_TRACE_OUT", "run.ndjson"),
        ];
        let set = parse(&[], &env).unwrap();
        assert_eq!(set.slots_or(18), 12);
        assert!(set.quick);
        assert!(!set.perf, "PHASE_BENCH_PERF=0 leaves the profile off");
        assert_eq!(
            set.out_path("BENCH_x.json"),
            PathBuf::from("reports/BENCH_x.json")
        );
        assert_eq!(set.trace_out, Some(PathBuf::from("run.ndjson")));
    }

    #[test]
    fn flags_match_and_override_the_environment() {
        let args = [
            "--quick",
            "--perf",
            "--slots=6",
            "--threads=3",
            "--interval=250000",
            "--out=reports",
            "--trace-out=run.ndjson",
        ];
        let env = [
            ("PHASE_BENCH_QUICK", "1"),
            ("PHASE_BENCH_PERF", "1"),
            ("PHASE_BENCH_SLOTS", "6"),
            ("PHASE_BENCH_THREADS", "3"),
            ("PHASE_BENCH_INTERVAL", "250000"),
            ("PHASE_BENCH_OUT_DIR", "reports"),
            ("PHASE_BENCH_TRACE_OUT", "run.ndjson"),
        ];
        let from_flags = parse(&args, NO_ENV).unwrap();
        let from_env = parse(&[], &env).unwrap();
        assert_eq!(format!("{from_flags:?}"), format!("{from_env:?}"));

        let both = parse(&["--slots=4", "-q"], &[("PHASE_BENCH_SLOTS", "12")]).unwrap();
        assert_eq!(both.slots, Some(4), "the flag wins over the variable");
        assert!(both.quick);
    }

    #[test]
    fn malformed_env_values_are_rejected_not_swallowed() {
        let error = parse(&[], &[("PHASE_BENCH_SLOTS", "1o")]).unwrap_err();
        assert!(
            error.contains("PHASE_BENCH_SLOTS") && error.contains("1o"),
            "the error names the variable and the rejected value: {error}"
        );
        rejected_alike("--slots", "PHASE_BENCH_SLOTS", "1o");
    }

    #[test]
    fn zero_slots_are_rejected_from_either_source() {
        let error = rejected_alike("--slots", "PHASE_BENCH_SLOTS", "0");
        assert!(error.contains("positive integer"), "{error}");
    }

    #[test]
    fn malformed_intervals_are_rejected_from_either_source() {
        for raw in ["abc", "-5", "0", "inf", "NaN", ""] {
            rejected_alike("--interval", "PHASE_BENCH_INTERVAL", raw);
        }
        let from_env = parse(&[], &[("PHASE_BENCH_INTERVAL", "250000")]).unwrap();
        assert_eq!(from_env.interval_override_ns, Some(250_000.0));
        let from_flag = parse(&["--interval=250000"], NO_ENV).unwrap();
        assert_eq!(from_flag.interval_override_ns, Some(250_000.0));
    }

    #[test]
    fn thread_count_honours_both_sources() {
        let three = parse(&[], &[("PHASE_BENCH_THREADS", "3")]).unwrap();
        assert_eq!(three.threads, 3);
        assert_eq!(Driver::new(three.threads).threads(), 3);
        let zero = parse(&[], &[("PHASE_BENCH_THREADS", "0")]).unwrap();
        assert_eq!(zero.threads, 1, "zero clamps to one worker");
        assert_eq!(parse(&["--threads=0"], NO_ENV).unwrap().threads, 1);
        rejected_alike("--threads", "PHASE_BENCH_THREADS", "many");
    }

    #[test]
    fn empty_paths_and_unknown_arguments_are_rejected() {
        rejected_alike("--out", "PHASE_BENCH_OUT_DIR", "");
        rejected_alike("--trace-out", "PHASE_BENCH_TRACE_OUT", "");
        for arg in ["--bogus", "--slots", "--quick=1", "--only=fig3"] {
            let error = parse(&[arg], NO_ENV).unwrap_err();
            assert!(error.starts_with("unrecognized argument"), "{arg}: {error}");
        }
        let help = parse_cli(&["--bogus", "-h"], &[("PHASE_BENCH_SLOTS", "0")], false);
        assert!(matches!(help, Ok(Cli::Help)), "--help wins over errors");
    }

    #[test]
    fn only_selects_studies_by_spec_name() {
        let Ok(Cli::Run { only, .. }) = parse_cli(&["--only=tail,fig3"], NO_ENV, true) else {
            panic!("a valid selection parses");
        };
        let names: Vec<&str> = only.unwrap().iter().map(|study| study.name).collect();
        assert_eq!(names, ["tail", "fig3"]);
        let Ok(Cli::Run { only, .. }) = parse_cli(&["--quick"], NO_ENV, true) else {
            panic!("no selector parses");
        };
        assert!(only.is_none());

        let error = parse_cli(&["--only=fig3,nope"], NO_ENV, true).unwrap_err();
        assert!(error.contains("\"nope\""), "{error}");
        for name in studies::names() {
            assert!(error.contains(name), "the error lists {name}: {error}");
        }
    }

    #[test]
    fn experiment_config_uses_requested_marking() {
        let settings = parse(&[], NO_ENV).unwrap();
        let config = experiment_config_with(&settings, MarkingConfig::interval(45));
        assert_eq!(config.pipeline.marking, MarkingConfig::interval(45));
        assert!(config.sim.horizon_ns.is_some());
        assert!(config.threads >= 1);
    }

    #[test]
    fn overhead_variants_match_table2() {
        assert_eq!(overhead_variants().len(), 18);
    }

    #[test]
    fn perf_regressions_gate_on_sims_per_sec_by_label() {
        let doc = |fig4: f64, bursty: f64| {
            phase_core::json::parse(&format!(
                r#"{{"rows": [
                    {{"label": "fig4/event", "sims_per_sec": {fig4}}},
                    {{"label": "bursty/event", "sims_per_sec": {bursty}}}
                ]}}"#
            ))
            .expect("valid test document")
        };
        // Equal, faster, and within-tolerance rows all pass.
        assert!(perf_regressions(&doc(10.0, 5.0), &doc(10.0, 5.0), 0.20).is_empty());
        assert!(perf_regressions(&doc(12.0, 4.1), &doc(10.0, 5.0), 0.20).is_empty());
        // A row more than 20% below the baseline fails, naming the label.
        let regressions = perf_regressions(&doc(7.0, 5.0), &doc(10.0, 5.0), 0.20);
        assert_eq!(regressions.len(), 1);
        assert!(regressions[0].contains("fig4/event"), "{regressions:?}");
        // Labels on only one side never fail the gate.
        let extra =
            phase_core::json::parse(r#"{"rows": [{"label": "new/event", "sims_per_sec": 1.0}]}"#)
                .unwrap();
        assert!(perf_regressions(&extra, &doc(10.0, 5.0), 0.20).is_empty());
        assert!(perf_regressions(&doc(10.0, 5.0), &extra, 0.20).is_empty());
    }
}
