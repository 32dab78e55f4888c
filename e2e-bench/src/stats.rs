//! Latency and rate summaries that hold up on a shared host, under the
//! statistical-honesty rule: a tail percentile is reported only when at
//! least [`MIN_BEYOND_TAIL`] samples lie beyond it.
//!
//! A pass is cut into up to [`BLOCKS`] blocks of consecutive operations and
//! each figure is the median of the blocks' figures, so a stall covering a
//! few blocks (a noisy neighbour stealing the CPU for seconds) moves it less
//! than it would move a figure over the pooled samples.

/// The tail percentile every workload reports as `tail_ms`.
pub const TAIL_PERCENTILE: f64 = 90.0;

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND_TAIL: usize = 10;

/// Most blocks a pass is cut into.
pub const BLOCKS: usize = 20;

/// Fewest samples in a latency block: enough for [`MIN_BEYOND_TAIL`] beyond
/// its [`TAIL_PERCENTILE`].
const MIN_BLOCK_SAMPLES: usize = 100;

/// The latency summary of one pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Completed operations.
    pub samples: usize,
    /// Blocks the samples were cut into.
    pub blocks: usize,
    /// Median over blocks of the block's median latency, milliseconds
    /// (`None` without samples).
    pub p50_ms: Option<f64>,
    /// Median over blocks of the block's [`TAIL_PERCENTILE`] latency,
    /// milliseconds; `None` when fewer than [`MIN_BEYOND_TAIL`] samples lie
    /// beyond it in some block.
    pub tail_ms: Option<f64>,
    /// Fewest samples beyond the tail percentile in any block.
    pub beyond_tail: usize,
}

/// The nearest-rank `p`-th percentile of ascending `sorted` samples, with the
/// number of samples strictly after its rank.
fn percentile(sorted: &[u64], p: f64) -> Option<(u64, usize)> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    let rank = rank.min(sorted.len());
    Some((sorted[rank - 1], sorted.len() - rank))
}

/// `[start, end)` of each of `blocks` equal blocks of `n` items.
pub fn block_bounds(n: usize, blocks: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..blocks).map(move |block| (block * n / blocks, (block + 1) * n / blocks))
}

/// Summarizes per-operation latencies in nanoseconds, in completion order.
pub fn summarize(latencies_ns: &[u64]) -> LatencySummary {
    let blocks = (latencies_ns.len() / MIN_BLOCK_SAMPLES).clamp(1, BLOCKS);
    let ms = |ns: u64| ns as f64 / 1e6;
    let mut p50s = Vec::with_capacity(blocks);
    let mut tails = Vec::with_capacity(blocks);
    let mut beyond_tail = usize::MAX;
    for (start, end) in block_bounds(latencies_ns.len(), blocks) {
        let mut sorted = latencies_ns[start..end].to_vec();
        sorted.sort_unstable();
        if let Some((ns, _)) = percentile(&sorted, 50.0) {
            p50s.push(ms(ns));
        }
        if let Some((ns, beyond)) = percentile(&sorted, TAIL_PERCENTILE) {
            tails.push(ms(ns));
            beyond_tail = beyond_tail.min(beyond);
        }
    }
    let beyond_tail = if tails.is_empty() { 0 } else { beyond_tail };
    LatencySummary {
        samples: latencies_ns.len(),
        blocks,
        p50_ms: (!p50s.is_empty()).then(|| median(&p50s)),
        tail_ms: (beyond_tail >= MIN_BEYOND_TAIL).then(|| median(&tails)),
        beyond_tail,
    }
}

/// The median of `values` (the mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}
