//! The traced pass's per-layer ledger: spans the benchmark records around
//! its calls into each crate's public functions, plus per-operation counts.
//!
//! Spans are kept in memory and written out as NDJSON when the run ends.
//! Every span carries the id of the operation that caused it; the layer
//! spans of one operation never overlap, so a layer's busy time is the sum of
//! its span durations.

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::{Duration, Instant};

/// Unit a timed layer reports its busy time per call in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeUnit {
    /// Milliseconds.
    Ms,
    /// Microseconds.
    Us,
}

impl TimeUnit {
    /// The unit's name in the report.
    pub fn name(self) -> &'static str {
        match self {
            TimeUnit::Ms => "ms",
            TimeUnit::Us => "us",
        }
    }

    fn per_ns(self) -> f64 {
        match self {
            TimeUnit::Ms => 1e-6,
            TimeUnit::Us => 1e-3,
        }
    }
}

/// Every timed layer, in report order. Each reports `<name>` (busy time per
/// call), `<name>.calls` (calls per operation) and `<name>.share` (busy time
/// over operation time). A layer a workload bypasses reports zeros.
pub const TIMED_LAYERS: [(&str, TimeUnit); 18] = [
    ("core.driver_ms", TimeUnit::Ms),
    ("sched.isolation_ms", TimeUnit::Ms),
    ("metrics.result_ms", TimeUnit::Ms),
    ("workload.catalog_ms", TimeUnit::Ms),
    ("core.fingerprint_ms", TimeUnit::Ms),
    ("amp.profile_ms", TimeUnit::Ms),
    ("analysis.typing_ms", TimeUnit::Ms),
    ("marking.regions_ms", TimeUnit::Ms),
    ("marking.instrument_ms", TimeUnit::Ms),
    ("serve.parse_us", TimeUnit::Us),
    ("serve.handle_us.marks", TimeUnit::Us),
    ("serve.handle_us.isolation", TimeUnit::Us),
    ("serve.handle_us.comparison", TimeUnit::Us),
    ("serve.handle_us.stats", TimeUnit::Us),
    ("serve.render_us", TimeUnit::Us),
    ("core.pack_encode_us", TimeUnit::Us),
    ("core.pack_decode_us", TimeUnit::Us),
    ("serve.wire_us", TimeUnit::Us),
];

/// Counts reported per operation.
pub const PER_OP_COUNTS: [&str; 7] = [
    "core.cells",
    "sched.sim_instructions",
    "workload.programs",
    "amp.blocks_profiled",
    "marking.marks",
    "core.store_hits",
    "core.store_misses",
];

/// Values reported as recorded (with their units): end-of-run gauges and
/// the tracing overhead with its base.
pub const GAUGES: [(&str, &str); 8] = [
    ("sched.minstr_per_s", "Minstr/s"),
    ("core.store_resident_mb", "MB"),
    ("serve.shed", "count"),
    ("serve.coalesced", "count"),
    ("trace.ops", "count"),
    ("trace.base_throughput_per_s", "1/s"),
    ("trace.traced_throughput_per_s", "1/s"),
    ("trace.overhead_pct", "%"),
];

/// Every per-layer metric name with its unit, in report order.
pub fn metric_units() -> Vec<(String, &'static str)> {
    let mut units = Vec::new();
    for (name, unit) in TIMED_LAYERS {
        units.push((name.to_string(), unit.name()));
        units.push((format!("{name}.calls"), "count"));
        units.push((format!("{name}.share"), "frac"));
    }
    units.extend(PER_OP_COUNTS.iter().map(|name| (name.to_string(), "count")));
    units.extend(GAUGES.iter().map(|(name, unit)| (name.to_string(), *unit)));
    units
}

#[derive(Debug, Clone, Copy)]
struct SpanRecord {
    layer: &'static str,
    op: u64,
    start_ns: u64,
    end_ns: u64,
}

/// The in-memory span and count ledger of one traced pass.
#[derive(Debug)]
pub struct Ledger {
    epoch: Instant,
    op: u64,
    op_start_ns: u64,
    ops: Vec<SpanRecord>,
    spans: Vec<SpanRecord>,
    counts: BTreeMap<&'static str, f64>,
    gauges: BTreeMap<&'static str, f64>,
}

impl Default for Ledger {
    fn default() -> Self {
        Self::new()
    }
}

impl Ledger {
    /// An empty ledger whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            op: 0,
            op_start_ns: 0,
            ops: Vec::new(),
            spans: Vec::new(),
            counts: BTreeMap::new(),
            gauges: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
    }

    /// Opens the root span of the next operation.
    pub fn begin_op(&mut self) {
        self.op_start_ns = self.now_ns();
    }

    /// Closes the current operation's root span.
    pub fn end_op(&mut self) {
        let end_ns = self.now_ns();
        self.ops.push(SpanRecord {
            layer: "op",
            op: self.op,
            start_ns: self.op_start_ns,
            end_ns,
        });
        self.op += 1;
    }

    /// Runs `call` inside a span of `layer`, returning its result.
    pub fn time<T>(&mut self, layer: &'static str, call: impl FnOnce() -> T) -> T {
        let start_ns = self.now_ns();
        let value = call();
        let end_ns = self.now_ns();
        self.spans.push(SpanRecord {
            layer,
            op: self.op,
            start_ns,
            end_ns,
        });
        value
    }

    /// Records a span of `layer` lasting `duration` that ends now (for a
    /// time derived by difference, such as the wire's share of a round
    /// trip).
    pub fn record(&mut self, layer: &'static str, duration: Duration) {
        let end_ns = self.now_ns();
        let length = duration.as_nanos().min(u128::from(end_ns)) as u64;
        self.spans.push(SpanRecord {
            layer,
            op: self.op,
            start_ns: end_ns - length,
            end_ns,
        });
    }

    /// The busy time of `layer` within the current operation so far.
    pub fn op_busy(&self, layer: &str) -> Duration {
        let ns = self
            .spans
            .iter()
            .rev()
            .take_while(|span| span.op == self.op)
            .filter(|span| span.layer == layer)
            .map(|span| span.end_ns - span.start_ns)
            .sum();
        Duration::from_nanos(ns)
    }

    /// Adds `amount` to a per-operation count.
    pub fn count(&mut self, name: &'static str, amount: f64) {
        *self.counts.entry(name).or_default() += amount;
    }

    /// Sets a gauge.
    pub fn gauge(&mut self, name: &'static str, value: f64) {
        self.gauges.insert(name, value);
    }

    /// Operations closed so far.
    pub fn ops(&self) -> usize {
        self.ops.len()
    }

    /// Every per-layer metric of [`metric_units`], as `(name, value)`.
    pub fn metrics(&self) -> Vec<(String, f64)> {
        let ops = self.ops.len().max(1) as f64;
        let op_ns: u64 = self.ops.iter().map(|op| op.end_ns - op.start_ns).sum();
        let mut metrics = Vec::new();
        for (name, unit) in TIMED_LAYERS {
            let (calls, busy_ns) = self
                .spans
                .iter()
                .filter(|span| span.layer == name)
                .fold((0u64, 0u64), |(calls, busy), span| {
                    (calls + 1, busy + (span.end_ns - span.start_ns))
                });
            let per_call = if calls == 0 {
                0.0
            } else {
                busy_ns as f64 * unit.per_ns() / calls as f64
            };
            metrics.push((name.to_string(), per_call));
            metrics.push((format!("{name}.calls"), calls as f64 / ops));
            metrics.push((
                format!("{name}.share"),
                busy_ns as f64 / op_ns.max(1) as f64,
            ));
        }
        for name in PER_OP_COUNTS {
            metrics.push((
                name.to_string(),
                self.counts.get(name).copied().unwrap_or(0.0) / ops,
            ));
        }
        for (name, _) in GAUGES {
            metrics.push((
                name.to_string(),
                self.gauges.get(name).copied().unwrap_or(0.0),
            ));
        }
        metrics
    }

    /// Writes every span (operation roots first) as NDJSON to `path`.
    pub fn write_spans(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for span in self.ops.iter().chain(&self.spans) {
            let parent = if span.layer == "op" {
                String::from("null")
            } else {
                span.op.to_string()
            };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"op\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                span.layer, span.op, parent, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}
