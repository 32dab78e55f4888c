//! The repository's end-to-end benchmark, built from outside the program.
//!
//! Three closed-loop workloads drive the reproduction through its public
//! API, each in its own process:
//!
//! * [`sweep`] — the researcher's path: fresh-seed Figure-6 δ-sweeps through
//!   `run_study`;
//! * [`tune_cold`] — the static half of the paper as a service client sees
//!   it: `marks` requests for never-seen catalogues over loopback TCP;
//! * [`serve_warm`] — the wire path against a warmed service: a pipelined
//!   mix of cached answers, artifact gets and puts, stats and malformed
//!   lines.
//!
//! Every workload times an untraced pass for the end-to-end metrics. With
//! tracing on, a second pass — from a fresh set-up, so it starts from the
//! same state — replays the same operations, splits each into the public
//! calls the program makes and records a span around each ([`ledger`]); its
//! output digest must equal the untraced pass's.

pub mod ledger;
pub mod machine;
pub mod report;
pub mod serve_warm;
pub mod stats;
pub mod sweep;
pub mod tune_cold;
pub mod wire;

use std::sync::Arc;
use std::time::{Duration, Instant};

use phase_core::substrate::amp::MachineSpec;
use phase_core::substrate::ir::Program;
use phase_core::substrate::marking::InstrumentedProgram;
use phase_core::{
    min_typed_block_size, ArtifactStore, ContentHash, PipelineConfig, StableHasher, TypingStrategy,
};

use crate::ledger::Ledger;

/// The workload names, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 3] = ["sweep", "tune-cold", "serve-warm"];

/// Seed of the set-up's warm-up work (`sweep`, `tune-cold`). Fixed, not
/// drawn from the run's seed: set-up repeats the same work on every run, so
/// `setup_s` varies only with the code and the machine.
pub const WARMUP_SEED: u64 = 0x5EED_0000_0001;

/// How many times each run repeats its set-up; `setup_s` is the median.
pub const SETUP_REPLICAS: usize = 5;

/// One run's settings, as given on the command line.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// How long the untraced pass runs.
    pub seconds: f64,
    /// Whether to follow the untraced pass with the traced one.
    pub trace: bool,
}

impl RunConfig {
    /// The untraced pass's duration.
    pub fn duration(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// The traced pass's duration: a third of the untraced pass's (it only
    /// has to cover the digest and give the layers enough calls), so a
    /// traced run costs little more than an untraced one.
    pub fn traced_duration(&self) -> Duration {
        self.duration() / 3
    }
}

/// SplitMix64: the benchmark's one generator of inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one input stream (`stream` keeps the streams of one
    /// seed apart).
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Self(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A digest over the first outputs of a pass, so two runs on one seed (and
/// the traced and untraced passes of one run) can be compared.
#[derive(Debug, Clone)]
pub struct Digest {
    hasher: StableHasher,
    taken: usize,
    limit: usize,
}

impl Digest {
    /// A digest over at most `limit` outputs.
    pub fn new(limit: usize) -> Self {
        Self {
            hasher: StableHasher::new(),
            taken: 0,
            limit,
        }
    }

    /// Folds in the output of the next operation (ignored past the limit).
    pub fn add(&mut self, output: &str) {
        if self.taken < self.limit {
            self.hasher.write_str(output);
            self.taken += 1;
        }
    }

    /// Outputs folded in so far.
    pub fn taken(&self) -> usize {
        self.taken
    }

    /// The digest of the outputs folded in so far.
    pub fn finish(&self) -> ContentHash {
        self.hasher.finish()
    }
}

/// What one measured pass produced.
#[derive(Debug, Clone)]
pub struct Pass {
    started: Instant,
    /// Latency of every completed operation, nanoseconds, in completion
    /// order.
    pub latencies_ns: Vec<u64>,
    /// Completion time of every operation, seconds since the pass started.
    pub done_s: Vec<f64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output failed its check.
    pub failed: u64,
    /// Wall-clock of the pass (set by [`Pass::finish`]).
    pub elapsed_s: f64,
    /// Digest over the first outputs.
    pub digest: Digest,
    /// The first few check failures, for the report.
    pub failures: Vec<String>,
}

impl Pass {
    /// A pass starting now, whose digest covers at most `digest_ops`
    /// outputs.
    pub fn new(digest_ops: usize) -> Self {
        Self {
            started: Instant::now(),
            latencies_ns: Vec::new(),
            done_s: Vec::new(),
            attempted: 0,
            failed: 0,
            elapsed_s: 0.0,
            digest: Digest::new(digest_ops),
            failures: Vec::new(),
        }
    }

    /// Time since the pass started.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Records one operation: its latency, its output (for the digest), and
    /// the result of its check.
    pub fn record(&mut self, latency: Duration, output: &str, check: Result<(), String>) {
        self.attempted += 1;
        self.latencies_ns
            .push(latency.as_nanos().min(u128::from(u64::MAX)) as u64);
        self.done_s.push(self.elapsed().as_secs_f64());
        self.digest.add(output);
        self.fail_if(check);
    }

    /// Counts a failed check (an `Ok` is a no-op).
    pub fn fail_if(&mut self, check: Result<(), String>) {
        if let Err(failure) = check {
            self.failed += 1;
            if self.failures.len() < 5 {
                self.failures.push(failure);
            }
        }
    }

    /// Ends the pass.
    pub fn finish(&mut self) {
        self.elapsed_s = self.elapsed().as_secs_f64();
    }

    /// Completed operations per second: the median of
    /// [`Pass::block_rates`] (see [`stats`]). Short passes fall back to the
    /// mean.
    pub fn throughput_per_s(&self) -> f64 {
        let rates = self.block_rates();
        if rates.is_empty() {
            self.mean_throughput_over(self.done_s.len())
        } else {
            stats::median(&rates)
        }
    }

    /// The completion rate of each of [`stats::BLOCKS`] blocks of
    /// consecutive operations, in order; empty for a pass with fewer than
    /// two operations per block.
    pub fn block_rates(&self) -> Vec<f64> {
        let n = self.done_s.len();
        if n < 2 * stats::BLOCKS {
            return Vec::new();
        }
        stats::block_bounds(n, stats::BLOCKS)
            .map(|(first, end)| {
                let began = if first == 0 {
                    0.0
                } else {
                    self.done_s[first - 1]
                };
                (end - first) as f64 / (self.done_s[end - 1] - began).max(f64::MIN_POSITIVE)
            })
            .collect()
    }

    /// Mean rate over the pass's first `ops` operations (all of them if it
    /// has fewer).
    pub fn mean_throughput_over(&self, ops: usize) -> f64 {
        let ops = ops.min(self.done_s.len());
        match ops {
            0 => 0.0,
            _ => ops as f64 / self.done_s[ops - 1].max(f64::MIN_POSITIVE),
        }
    }
}

/// Everything one workload run produced.
#[derive(Debug)]
pub struct WorkloadRun {
    /// Duration of each set-up replica, seconds.
    pub setup_s: Vec<f64>,
    /// The untraced pass (the end-to-end numbers).
    pub untraced: Pass,
    /// Peak resident set of the process after one set-up and the untraced
    /// pass, MiB.
    pub peak_rss_mb: Option<f64>,
    /// The traced pass and its ledger, when tracing was asked for.
    pub traced: Option<(Pass, Ledger)>,
}

/// Runs a workload's phases in the order that keeps its metrics apart: one
/// timed set-up and the untraced pass on its state; the peak resident set,
/// read then so it covers exactly one set-up and the pass (memory freed by
/// further replicas stays resident in the allocator's per-thread arenas and
/// moved the peak by a quarter between runs); the remaining
/// [`SETUP_REPLICAS`] − 1 timed set-ups; and, if asked, the traced pass on
/// a fresh set-up, so it starts from the state the untraced pass did.
/// `teardown` ends a state (stops its server).
pub fn run_phases<S>(
    config: &RunConfig,
    setup: impl Fn() -> S,
    teardown: impl Fn(S),
    untraced: impl FnOnce(&mut S) -> Pass,
    traced: impl FnOnce(&mut S, usize) -> (Pass, Ledger),
) -> WorkloadRun {
    let timed_setup = || {
        let start = Instant::now();
        let state = setup();
        (start.elapsed().as_secs_f64(), state)
    };
    let (first, mut state) = timed_setup();
    let untraced = untraced(&mut state);
    teardown(state);
    let peak_rss_mb = machine::peak_rss_mb();
    let mut setup_s = vec![first];
    for _ in 1..SETUP_REPLICAS {
        let (seconds, state) = timed_setup();
        teardown(state);
        setup_s.push(seconds);
    }
    let traced = config.trace.then(|| {
        let mut state = setup();
        let traced = traced(&mut state, untraced.digest.taken());
        teardown(state);
        traced
    });
    WorkloadRun {
        setup_s,
        untraced,
        peak_rss_mb,
        traced,
    }
}

/// Runs one workload by name; `None` for an unknown name.
pub fn run_workload(name: &str, config: &RunConfig) -> Option<WorkloadRun> {
    match name {
        "sweep" => Some(sweep::run(config)),
        "tune-cold" => Some(tune_cold::run(config)),
        "serve-warm" => Some(serve_warm::run(config)),
        _ => None,
    }
}

/// One program's static pipeline split into the store's stage calls (the
/// chain `ArtifactStore::instrumented` walks), each inside a span, with the
/// per-program counts.
pub fn traced_static_pipeline(
    ledger: &mut Ledger,
    store: &ArtifactStore,
    program: &Arc<Program>,
    machine: &MachineSpec,
    pipeline: &PipelineConfig,
) -> Arc<InstrumentedProgram> {
    ledger.time("core.fingerprint_ms", || store.program_fingerprint(program));
    if let TypingStrategy::ProfileGuided { .. } = pipeline.typing {
        let profile = ledger.time("amp.profile_ms", || {
            store.ipc_profiles(program, machine, min_typed_block_size(pipeline))
        });
        ledger.count("amp.blocks_profiled", profile.rows.len() as f64);
    }
    ledger.time("analysis.typing_ms", || {
        store.typing(program, machine, pipeline)
    });
    ledger.time("marking.regions_ms", || {
        store.regions(program, machine, pipeline)
    });
    let instrumented = ledger.time("marking.instrument_ms", || {
        store.instrumented(program, machine, pipeline)
    });
    ledger.count("workload.programs", 1.0);
    ledger.count("marking.marks", instrumented.mark_count() as f64);
    instrumented
}
