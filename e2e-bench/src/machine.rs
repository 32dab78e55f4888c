//! The machine block of the report: what a number measured here must be
//! normalised by before it is compared with one measured elsewhere.

use std::hint::black_box;
use std::time::Instant;

use phase_core::json::JsonValue;

/// Iterations of the calibration loop.
const CALIBRATION_ITERS: u64 = 20_000_000;

/// Hardware threads available to this process.
fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Nanoseconds per iteration of a fixed integer loop (a serial xorshift
/// chain, so it measures the core's clock and not its memory system).
fn calibration_ns_per_iter() -> f64 {
    let start = Instant::now();
    let mut x = black_box(0x2545_F491_4F6C_DD1Du64);
    for _ in 0..CALIBRATION_ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = black_box(x);
    }
    black_box(x);
    start.elapsed().as_nanos() as f64 / CALIBRATION_ITERS as f64
}

/// Peak resident set of this process in MiB (`VmHWM`), if the platform
/// reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// The machine block: `nproc`, the pack toolchain tag, and the calibration
/// loop's ns/iter, measured now.
pub fn block() -> JsonValue {
    JsonValue::object()
        .field("nproc", nproc())
        .field("toolchain", phase_core::pack::toolchain_tag())
        .field("calibration_ns_per_iter", calibration_ns_per_iter())
}
