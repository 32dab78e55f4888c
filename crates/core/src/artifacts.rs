//! The content-addressed artifact store behind the staged pipeline.
//!
//! Every stage of the evaluation pipeline — catalogue generation, per-block
//! IPC profiling, block typing, section summarization, instrumentation, the
//! per-benchmark isolated baseline runs, and whole simulation cells — produces
//! a value that is a pure function of its inputs. [`ArtifactStore`] keys each
//! such value by a 128-bit content hash of *(program fingerprint, stage
//! config)* and shares it behind an `Arc`, so a sweep that varies one axis
//! (the tuner threshold, the clustering error, the marking technique) reuses
//! every upstream artifact instead of recomputing it. This is the *tune once,
//! run anywhere* motto applied to the harness itself, and mirrors how
//! phase-classification work amortizes one profiling pass across many tuning
//! candidates.
//!
//! The store is a sharded in-memory map (16 shards per stage, `parking_lot`
//! mutexes) with per-stage hit/miss/insert/eviction counters and an optional
//! on-disk spill of every stage in [`SPILL_STAGES`] in the binary phase-pack
//! format. Values are deterministic, so a racing double-compute under
//! contention is harmless: both workers derive bit-identical artifacts and
//! the first insert wins.
//!
//! A service-scale store cannot grow without bound: every artifact type
//! reports its size through [`StoreFootprint`], and a store built with
//! [`ArtifactStore::with_budget`] enforces a byte budget with sharded CLOCK
//! eviction ([`ShardedClockCache`]). Admission is conservative — a new
//! artifact is only retained once eviction has made room for it, so the
//! resident footprint *never* exceeds the budget — and eviction never
//! removes an entry some caller still borrows through its `Arc`.

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Weak};

use parking_lot::Mutex;
use phase_amp::MachineSpec;
use phase_analysis::BlockTyping;
use phase_ir::{AccessPattern, BranchBehavior, Instruction, Program, Terminator};
use phase_marking::{InstrumentedProgram, MarkingConfig, ProgramRegions};
use phase_online::{OnlineConfig, OnlineStats};
use phase_runtime::{TunerConfig, TunerStats};
use phase_sched::{EngineKind, JobSpec, SimConfig, SimResult};
use phase_workload::{Catalog, CatalogSpec, WorkloadSpec};

use crate::driver::Policy;
use crate::json::{parse, JsonValue};
use crate::pack;
use crate::pipeline::{
    instrument_stage, min_typed_block_size, profile_stage, regions_stage, typing_stage,
    IpcProfileArtifact, PipelineConfig, TypingStrategy,
};

/// Number of shards per stage cache.
const SHARDS: usize = 16;

/// Upper bound on the fingerprint memo maps. An entry holds only a `Weak`
/// (it costs bytes, not a program), but the memos are still cleared at the
/// cap (re-hashing is cheap and deterministic) rather than allowed to grow
/// with every catalogue a long-running service ever touches.
const FP_MEMO_CAP: usize = 4096;

/// The stages the store can persist to disk and serve over the network, in
/// spill order. Catalogues and region maps are rebuilt from their compact
/// inputs instead of being spilled (a catalogue re-derives from its spec in
/// microseconds; regions from the typing).
pub const SPILL_STAGES: [&str; 6] = [
    "typings",
    "ipc_profiles",
    "isolated_runtimes",
    "instrumented",
    "baselines",
    "cells",
];

/// What a spill load did: artifacts offered to the store, records skipped
/// for cause, and a human-readable line per failure.
#[derive(Debug, Clone, Default)]
pub struct SpillLoadReport {
    /// Artifacts decoded and offered to the store (the budget may still
    /// have declined some).
    pub loaded: usize,
    /// Records rejected by checksum, framing, or content validation.
    pub skipped: usize,
    /// One line per rejection (stage file, key when known, cause).
    pub errors: Vec<String>,
}

/// A 128-bit content hash: the artifact key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContentHash {
    /// High 64 bits.
    pub hi: u64,
    /// Low 64 bits.
    pub lo: u64,
}

impl std::fmt::Display for ContentHash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}{:016x}", self.hi, self.lo)
    }
}

impl ContentHash {
    /// Parses the hex form produced by [`ContentHash`]'s `Display`.
    pub fn from_hex(text: &str) -> Option<Self> {
        if text.len() != 32 || !text.is_ascii() {
            return None;
        }
        let hi = u64::from_str_radix(&text[..16], 16).ok()?;
        let lo = u64::from_str_radix(&text[16..], 16).ok()?;
        Some(Self { hi, lo })
    }
}

/// A deterministic two-lane FNV-1a hasher producing a [`ContentHash`].
///
/// Not cryptographic — it guards a cache of deterministic recomputable
/// values, where an accidental collision is the only failure mode that
/// matters and 128 bits make it negligible.
#[derive(Debug, Clone)]
pub struct StableHasher {
    a: u64,
    b: u64,
}

impl Default for StableHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl StableHasher {
    const OFFSET_A: u64 = 0xcbf2_9ce4_8422_2325;
    const OFFSET_B: u64 = 0x8422_2325_cbf2_9ce4;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh hasher.
    pub fn new() -> Self {
        Self {
            a: Self::OFFSET_A,
            b: Self::OFFSET_B,
        }
    }

    /// Feeds raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.a = (self.a ^ u64::from(byte)).wrapping_mul(Self::PRIME);
            self.b = (self.b ^ u64::from(byte.rotate_left(3))).wrapping_mul(Self::PRIME);
        }
    }

    /// Feeds a `u64`.
    pub fn write_u64(&mut self, value: u64) {
        self.write_bytes(&value.to_le_bytes());
    }

    /// Feeds a `usize`.
    pub fn write_usize(&mut self, value: usize) {
        self.write_u64(value as u64);
    }

    /// Feeds a `bool`.
    pub fn write_bool(&mut self, value: bool) {
        self.write_bytes(&[u8::from(value)]);
    }

    /// Feeds an `f64` by bit pattern (`-0.0` and `0.0` hash differently; both
    /// sides of the cache use the same literal so this cannot split keys).
    pub fn write_f64(&mut self, value: f64) {
        self.write_u64(value.to_bits());
    }

    /// Feeds a length-prefixed string.
    pub fn write_str(&mut self, value: &str) {
        self.write_usize(value.len());
        self.write_bytes(value.as_bytes());
    }

    /// The accumulated hash.
    pub fn finish(&self) -> ContentHash {
        ContentHash {
            hi: self.a,
            lo: self.b,
        }
    }
}

/// Anything that can feed a [`StableHasher`] deterministically.
pub trait Fingerprint {
    /// Feeds this value's identity into the hasher.
    fn fingerprint(&self, hasher: &mut StableHasher);

    /// Convenience: the hash of this value alone.
    fn content_hash(&self) -> ContentHash {
        let mut hasher = StableHasher::new();
        self.fingerprint(&mut hasher);
        hasher.finish()
    }
}

impl Fingerprint for ContentHash {
    fn fingerprint(&self, h: &mut StableHasher) {
        h.write_u64(self.hi);
        h.write_u64(self.lo);
    }
}

impl Fingerprint for MachineSpec {
    fn fingerprint(&self, h: &mut StableHasher) {
        h.write_str("machine");
        h.write_str(&self.name);
        h.write_usize(self.cores.len());
        for core in &self.cores {
            h.write_f64(core.freq_ghz);
            h.write_u64(u64::from(core.kind.0));
            h.write_usize(core.l2_group);
        }
        for cache in [&self.l1, &self.l2] {
            h.write_u64(cache.capacity_bytes);
            h.write_f64(cache.latency_cycles);
        }
        h.write_f64(self.memory_latency_ns);
        h.write_u64(self.core_switch_cycles);
    }
}

impl Fingerprint for MarkingConfig {
    fn fingerprint(&self, h: &mut StableHasher) {
        h.write_str("marking");
        h.write_str(&self.granularity.to_string());
        h.write_usize(self.min_section_size);
        h.write_usize(self.lookahead_depth);
    }
}

impl Fingerprint for TypingStrategy {
    fn fingerprint(&self, h: &mut StableHasher) {
        match self {
            TypingStrategy::StaticKMeans { seed } => {
                h.write_str("kmeans");
                h.write_u64(*seed);
            }
            TypingStrategy::ProfileGuided { ipc_threshold } => {
                h.write_str("profile");
                h.write_f64(*ipc_threshold);
            }
        }
    }
}

impl Fingerprint for PipelineConfig {
    fn fingerprint(&self, h: &mut StableHasher) {
        self.marking.fingerprint(h);
        self.typing.fingerprint(h);
        h.write_f64(self.clustering_error);
        h.write_u64(self.error_seed);
    }
}

impl Fingerprint for TunerConfig {
    fn fingerprint(&self, h: &mut StableHasher) {
        h.write_str("tuner");
        h.write_f64(self.ipc_threshold);
        h.write_u64(u64::from(self.samples_per_kind));
        h.write_u64(self.min_section_instructions);
        h.write_usize(self.counter_slots);
        h.write_bool(self.pin_preferred_fast);
    }
}

impl Fingerprint for OnlineConfig {
    fn fingerprint(&self, h: &mut StableHasher) {
        h.write_str("online");
        h.write_f64(self.sample_interval_ns);
        h.write_usize(self.max_phases);
        h.write_f64(self.distance_threshold);
        h.write_f64(self.decay);
        h.write_f64(self.ipc_weight);
        h.write_f64(self.mem_weight);
        h.write_u64(self.min_interval_instructions);
        h.write_u64(u64::from(self.samples_per_kind));
        h.write_f64(self.ipc_threshold);
        h.write_f64(self.drift_threshold);
        h.write_bool(self.pin_preferred_fast);
        h.write_u64(u64::from(self.pin_cap_per_kind));
    }
}

impl Fingerprint for SimConfig {
    fn fingerprint(&self, h: &mut StableHasher) {
        h.write_str("sim");
        h.write_f64(self.timeslice_ns);
        h.write_f64(self.load_balance_interval_ns);
        match self.horizon_ns {
            Some(ns) => {
                h.write_bool(true);
                h.write_f64(ns);
            }
            None => h.write_bool(false),
        }
        h.write_f64(self.throughput_window_ns);
        h.write_u64(self.seed);
        h.write_bool(self.charge_mark_overhead);
        h.write_str(match self.engine {
            EngineKind::RoundBased => "round",
            EngineKind::EventDriven => "event",
        });
        match self.sample_interval_ns {
            Some(ns) => {
                h.write_bool(true);
                h.write_f64(ns);
            }
            None => h.write_bool(false),
        }
    }
}

impl Fingerprint for Policy {
    fn fingerprint(&self, h: &mut StableHasher) {
        match self {
            Policy::Stock => h.write_str("stock"),
            Policy::AllCores => h.write_str("all-cores"),
            Policy::Tuned(config) => {
                h.write_str("tuned");
                config.fingerprint(h);
            }
            Policy::Online(config) => {
                h.write_str("online-policy");
                config.fingerprint(h);
            }
            Policy::Partition => h.write_str("partition"),
        }
    }
}

/// Feeds a `u32` as four little-endian bytes (the IR's ids and counts).
fn write_u32(h: &mut StableHasher, value: u32) {
    h.write_bytes(&value.to_le_bytes());
}

impl Fingerprint for Instruction {
    /// The class, then its memory reference. Only loads and stores carry
    /// one, so the class already says whether one follows.
    fn fingerprint(&self, h: &mut StableHasher) {
        h.write_bytes(&[self.class().index() as u8]);
        if let Some(mem) = self.mem_ref() {
            match mem.pattern {
                AccessPattern::Sequential => h.write_bytes(&[0]),
                AccessPattern::Strided { stride_bytes } => {
                    h.write_bytes(&[1]);
                    write_u32(h, stride_bytes);
                }
                AccessPattern::Random => h.write_bytes(&[2]),
                AccessPattern::PointerChase => h.write_bytes(&[3]),
            }
            h.write_u64(mem.region_bytes);
        }
    }
}

impl Fingerprint for Terminator {
    fn fingerprint(&self, h: &mut StableHasher) {
        match *self {
            Terminator::Jump(target) => {
                h.write_bytes(&[0]);
                write_u32(h, target.0);
            }
            Terminator::Branch {
                taken,
                fallthrough,
                behavior,
            } => {
                h.write_bytes(&[1]);
                write_u32(h, taken.0);
                write_u32(h, fallthrough.0);
                match behavior {
                    BranchBehavior::Counted { trip_count } => {
                        h.write_bytes(&[0]);
                        write_u32(h, trip_count);
                    }
                    BranchBehavior::Probabilistic { taken_probability } => {
                        h.write_bytes(&[1]);
                        h.write_f64(taken_probability);
                    }
                }
            }
            Terminator::Call { callee, return_to } => {
                h.write_bytes(&[2]);
                write_u32(h, callee.0);
                write_u32(h, return_to.0);
            }
            Terminator::Return => h.write_bytes(&[3]),
            Terminator::Exit => h.write_bytes(&[4]),
        }
    }
}

/// A walk over the whole IR: every field a pipeline stage or the simulator
/// can observe, with counts in front of every sequence so the encoding is
/// prefix-free. Block and procedure ids are positions, so they are implied
/// by the order of the walk.
impl Fingerprint for Program {
    fn fingerprint(&self, h: &mut StableHasher) {
        h.write_str("program");
        h.write_str(self.name());
        write_u32(h, self.entry().0);
        h.write_usize(self.procedures().len());
        for proc in self.procedures() {
            h.write_str(proc.name());
            write_u32(h, proc.entry().0);
            h.write_usize(proc.block_count());
            for block in proc.blocks() {
                h.write_usize(block.instructions().len());
                for instr in block.instructions() {
                    instr.fingerprint(h);
                }
                block.terminator().fingerprint(h);
            }
        }
    }
}

impl Fingerprint for CatalogSpec {
    fn fingerprint(&self, h: &mut StableHasher) {
        h.write_str("catalog");
        h.write_str(self.kind.name());
        h.write_f64(self.scale);
        h.write_u64(self.seed);
    }
}

impl Fingerprint for WorkloadSpec {
    fn fingerprint(&self, h: &mut StableHasher) {
        match *self {
            WorkloadSpec::Random {
                slots,
                jobs_per_slot,
                seed,
            } => {
                h.write_str("random");
                h.write_usize(slots);
                h.write_usize(jobs_per_slot);
                h.write_u64(seed);
            }
            WorkloadSpec::Bursty {
                slots,
                jobs_per_slot,
                waves,
                gap_ns,
                seed,
            } => {
                h.write_str("bursty");
                h.write_usize(slots);
                h.write_usize(jobs_per_slot);
                h.write_usize(waves);
                h.write_f64(gap_ns);
                h.write_u64(seed);
            }
            WorkloadSpec::Drifting {
                slots,
                jobs_per_slot,
                seed,
            } => {
                h.write_str("drifting");
                h.write_usize(slots);
                h.write_usize(jobs_per_slot);
                h.write_u64(seed);
            }
            WorkloadSpec::OpenLoop {
                slots,
                trace,
                rate_rps,
                duration_s,
                deadline_ns,
                seed,
            } => {
                h.write_str("open-loop");
                h.write_usize(slots);
                h.write_str(trace.name());
                h.write_f64(rate_rps);
                h.write_f64(duration_s);
                match deadline_ns {
                    Some(ns) => {
                        h.write_bool(true);
                        h.write_f64(ns);
                    }
                    None => h.write_bool(false),
                }
                h.write_u64(seed);
            }
        }
    }
}

/// The outcome of one executed simulation cell, as cached by the store: the
/// raw result plus whichever tuner statistics the policy produced. The cell's
/// plan position (index, group, label) is *not* part of the artifact — it is
/// re-attached by the driver on every lookup, so content-identical cells in
/// different sweep groups share one artifact.
#[derive(Debug, Clone)]
pub struct CachedCell {
    /// The simulation result (its `label` is patched per lookup).
    pub result: SimResult,
    /// Tuner statistics for `Policy::Tuned` cells.
    pub tuner_stats: Option<TunerStats>,
    /// Online-tuner statistics for `Policy::Online` cells.
    pub online_stats: Option<OnlineStats>,
}

/// Per-entry size accounting: how many bytes an artifact is charged against
/// the store's budget. Estimates are fine — what matters is that the charge
/// at admission equals the refund at eviction, which the accounting layer
/// guarantees by computing the footprint exactly once per entry.
pub trait StoreFootprint {
    /// The entry's size in bytes (an estimate of retained memory).
    fn footprint_bytes(&self) -> u64;
}

impl StoreFootprint for Vec<u8> {
    fn footprint_bytes(&self) -> u64 {
        self.len() as u64
    }
}

fn program_footprint(program: &Program) -> u64 {
    let stats = program.stats();
    stats.instructions as u64 * 24 + stats.blocks as u64 * 48 + 128
}

impl StoreFootprint for Catalog {
    fn footprint_bytes(&self) -> u64 {
        self.benchmarks()
            .iter()
            .map(|b| program_footprint(b.program()) + b.name().len() as u64 + 256)
            .sum()
    }
}

impl StoreFootprint for IpcProfileArtifact {
    fn footprint_bytes(&self) -> u64 {
        (self.rows.len() * std::mem::size_of::<crate::pipeline::IpcProfileRow>()) as u64 + 32
    }
}

impl StoreFootprint for BlockTyping {
    fn footprint_bytes(&self) -> u64 {
        self.iter().count() as u64 * 24 + 32
    }
}

impl StoreFootprint for ProgramRegions {
    fn footprint_bytes(&self) -> u64 {
        self.values()
            .map(|map| {
                map.regions()
                    .iter()
                    .map(|r| 64 + r.blocks().len() as u64 * 4)
                    .sum::<u64>()
                    + 48
            })
            .sum()
    }
}

impl StoreFootprint for InstrumentedProgram {
    fn footprint_bytes(&self) -> u64 {
        // The held `Arc<Program>` pins the whole program, so the twin is
        // charged for it even though the catalogue artifact charges the same
        // program: the budget deliberately over-counts shared allocations
        // (an upper bound stays a bound; under-counting would let evicting
        // the catalogue strand uncharged, pinned programs).
        program_footprint(self.program()) + self.marks().len() as u64 * 96 + 64
    }
}

impl StoreFootprint for HashMap<String, f64> {
    fn footprint_bytes(&self) -> u64 {
        self.keys().map(|name| name.len() as u64 + 48).sum::<u64>() + 32
    }
}

impl StoreFootprint for CachedCell {
    fn footprint_bytes(&self) -> u64 {
        let result = &self.result;
        result.label.len() as u64
            + (result.records.len() * std::mem::size_of::<phase_sched::ProcessRecord>()) as u64
            + result
                .records
                .iter()
                .map(|r| r.name.len() as u64)
                .sum::<u64>()
            + result.throughput_windows.len() as u64 * 8
            + result.core_busy_ns.len() as u64 * 8
            + std::mem::size_of::<Option<TunerStats>>() as u64
            + std::mem::size_of::<Option<OnlineStats>>() as u64
            + 64
    }
}

/// The byte budget of a bounded store: the limit plus the admission lock
/// that serializes admissions and evictions, making "resident bytes never
/// exceed the budget" a true invariant rather than an eventually-converged
/// target. The guard *carries the running resident total*, so admission is
/// O(1) per fit check and readers that take the guard can never observe a
/// torn, over-budget sum mid-admission.
#[derive(Debug)]
pub struct StoreBudget {
    max_bytes: u64,
    /// Resident bytes across every stage; every mutation (admission,
    /// eviction) happens while this lock is held.
    resident: Mutex<u64>,
}

impl StoreBudget {
    /// A budget of `max_bytes`.
    pub fn new(max_bytes: u64) -> Self {
        Self {
            max_bytes,
            resident: Mutex::new(0),
        }
    }

    /// The byte limit.
    pub fn max_bytes(&self) -> u64 {
        self.max_bytes
    }
}

/// One CLOCK slot: the artifact, its (cached) footprint, and the reference
/// bit the sweep clears before it may evict.
#[derive(Debug)]
struct Slot<V> {
    value: Arc<V>,
    bytes: u64,
    referenced: bool,
}

/// One shard's map, CLOCK ring, and counters. The counters live *inside*
/// the shard lock, so any snapshot taken under the locks is consistent:
/// `inserts - evictions == map.len()` holds exactly, never torn.
#[derive(Debug)]
struct ShardState<V> {
    map: HashMap<ContentHash, Slot<V>>,
    ring: Vec<ContentHash>,
    hand: usize,
    hits: u64,
    misses: u64,
    inserts: u64,
    evictions: u64,
    resident_bytes: u64,
}

impl<V> Default for ShardState<V> {
    fn default() -> Self {
        Self {
            map: HashMap::new(),
            ring: Vec::new(),
            hand: 0,
            hits: 0,
            misses: 0,
            inserts: 0,
            evictions: 0,
            resident_bytes: 0,
        }
    }
}

impl<V> ShardState<V> {
    /// One CLOCK sweep over this shard, freeing at least `need` bytes if it
    /// can. Referenced entries get their bit cleared (one pass of grace);
    /// entries currently borrowed through an outside `Arc` are never
    /// evicted. At most two full revolutions, so a fully-pinned shard cannot
    /// livelock the sweep.
    fn evict(&mut self, need: u64) -> u64 {
        let mut freed = 0;
        let mut scanned = 0;
        let limit = self.ring.len() * 2;
        while freed < need && !self.ring.is_empty() && scanned < limit {
            if self.hand >= self.ring.len() {
                self.hand = 0;
            }
            let key = self.ring[self.hand];
            let slot = self.map.get_mut(&key).expect("ring tracks the map");
            if slot.referenced {
                slot.referenced = false;
                self.hand += 1;
            } else if Arc::strong_count(&slot.value) > 1 {
                // Borrowed: some caller still holds the artifact.
                self.hand += 1;
            } else {
                let slot = self.map.remove(&key).expect("checked above");
                self.ring.swap_remove(self.hand);
                self.resident_bytes -= slot.bytes;
                self.evictions += 1;
                freed += slot.bytes;
            }
            scanned += 1;
        }
        freed
    }
}

/// One stage's sharded CLOCK cache: 16 shards, each an insertion ring with
/// reference bits, per-shard counters, and footprint accounting. Eviction
/// approximates LRU (CLOCK second-chance) and skips entries whose `Arc` is
/// borrowed outside the cache; successive sweeps start at successive
/// shards, so capacity pressure is spread across the shards instead of
/// draining shard 0 first.
#[derive(Debug)]
pub struct ShardedClockCache<V> {
    shards: Vec<Mutex<ShardState<V>>>,
    sweep_start: std::sync::atomic::AtomicUsize,
}

impl<V> Default for ShardedClockCache<V> {
    fn default() -> Self {
        Self {
            shards: (0..SHARDS)
                .map(|_| Mutex::new(ShardState::default()))
                .collect(),
            sweep_start: std::sync::atomic::AtomicUsize::new(0),
        }
    }
}

/// Type-erased view of a stage used by the store's cross-stage eviction.
trait EvictStage: Send + Sync {
    fn evict_bytes(&self, need: u64) -> u64;
    fn resident(&self) -> u64;
}

impl<V: Send + Sync> EvictStage for ShardedClockCache<V> {
    fn evict_bytes(&self, need: u64) -> u64 {
        self.evict(need)
    }

    fn resident(&self) -> u64 {
        self.resident_bytes()
    }
}

/// The phase-pack codec of a persisted artifact type.
trait PackCodec: StoreFootprint + Sized {
    fn encode(&self) -> Vec<u8>;
    fn decode(bytes: &[u8]) -> Result<Self, pack::PackError>;
}

/// Pairs each persisted artifact type with its `pack::encode_*` and
/// `pack::decode_*` functions.
macro_rules! pack_codecs {
    ($($ty:ty => $encode:ident, $decode:ident;)*) => {$(
        impl PackCodec for $ty {
            fn encode(&self) -> Vec<u8> {
                pack::$encode(self)
            }

            fn decode(bytes: &[u8]) -> Result<Self, pack::PackError> {
                pack::$decode(bytes)
            }
        }
    )*};
}

pack_codecs! {
    BlockTyping => encode_typing, decode_typing;
    IpcProfileArtifact => encode_profile, decode_profile;
    HashMap<String, f64> => encode_runtimes, decode_runtimes;
    InstrumentedProgram => encode_instrumented, decode_instrumented;
    CachedCell => encode_cell, decode_cell;
}

/// Type-erased view of a persisted stage, used by the spill, the spill load
/// and the network artifact cache.
trait SpilledStage {
    /// Every resident key, sorted.
    fn keys(&self) -> Vec<ContentHash>;
    /// Every resident entry as phase-pack records, sorted by key.
    fn encode_all(&self) -> Vec<(ContentHash, Vec<u8>)>;
    /// The payload of `key` if resident (counted as a hit or a miss).
    fn export(&self, key: ContentHash) -> Option<Vec<u8>>;
    /// Decodes `payload` and admits it through `store`'s budget; returns
    /// whether it is resident afterwards.
    fn import(
        &self,
        store: &ArtifactStore,
        key: ContentHash,
        payload: &[u8],
    ) -> Result<bool, pack::PackError>;
}

impl<V: PackCodec> SpilledStage for ShardedClockCache<V> {
    fn keys(&self) -> Vec<ContentHash> {
        self.entries().into_iter().map(|(key, _)| key).collect()
    }

    fn encode_all(&self) -> Vec<(ContentHash, Vec<u8>)> {
        self.entries()
            .into_iter()
            .map(|(key, value)| (key, value.encode()))
            .collect()
    }

    fn export(&self, key: ContentHash) -> Option<Vec<u8>> {
        self.lookup(key).map(|value| value.encode())
    }

    fn import(
        &self,
        store: &ArtifactStore,
        key: ContentHash,
        payload: &[u8],
    ) -> Result<bool, pack::PackError> {
        store.admit(self, key, Arc::new(V::decode(payload)?));
        Ok(self.contains(key))
    }
}

impl<V> ShardedClockCache<V> {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    fn shard(&self, key: ContentHash) -> &Mutex<ShardState<V>> {
        &self.shards[(key.lo as usize) % SHARDS]
    }

    /// Looks up `key`, counting a hit or a miss and setting the CLOCK
    /// reference bit on a hit.
    pub fn lookup(&self, key: ContentHash) -> Option<Arc<V>> {
        let mut shard = self.shard(key).lock();
        match shard.map.get_mut(&key) {
            Some(slot) => {
                slot.referenced = true;
                let value = Arc::clone(&slot.value);
                shard.hits += 1;
                Some(value)
            }
            None => {
                shard.misses += 1;
                None
            }
        }
    }

    /// Inserts `value` under `key`, charged at `bytes`. If a racing insert
    /// got there first the resident entry wins and is returned; otherwise
    /// the new entry is added with its reference bit set (one sweep of
    /// grace, like a fresh hit).
    fn admit_sized(&self, key: ContentHash, value: Arc<V>, bytes: u64) -> Arc<V> {
        let mut shard = self.shard(key).lock();
        match shard.map.entry(key) {
            std::collections::hash_map::Entry::Occupied(entry) => Arc::clone(&entry.get().value),
            std::collections::hash_map::Entry::Vacant(entry) => {
                entry.insert(Slot {
                    value: Arc::clone(&value),
                    bytes,
                    referenced: true,
                });
                shard.ring.push(key);
                shard.inserts += 1;
                shard.resident_bytes += bytes;
                value
            }
        }
    }

    /// A CLOCK sweep across the shards freeing at least `need` bytes if any
    /// unreferenced, unborrowed entries remain. Returns the bytes freed.
    pub fn evict(&self, need: u64) -> u64 {
        let start = self
            .sweep_start
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let mut freed = 0;
        for offset in 0..self.shards.len() {
            if freed >= need {
                break;
            }
            let shard = &self.shards[(start + offset) % self.shards.len()];
            freed += shard.lock().evict(need - freed);
        }
        freed
    }

    /// Total bytes currently resident in this stage.
    pub fn resident_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().resident_bytes).sum()
    }

    /// A consistent snapshot of this stage's counters: each shard's counters
    /// are read under its lock, so `inserts - evictions == entries` and the
    /// footprint sum hold exactly.
    pub fn snapshot(&self) -> StageStats {
        let mut stats = StageStats::default();
        for shard in &self.shards {
            let shard = shard.lock();
            stats.entries += shard.map.len();
            stats.hits += shard.hits;
            stats.misses += shard.misses;
            stats.inserts += shard.inserts;
            stats.evictions += shard.evictions;
            stats.resident_bytes += shard.resident_bytes;
        }
        stats
    }

    /// Whether `key` is resident, without touching the hit/miss counters or
    /// the CLOCK reference bit (a pure peek, used to report admission
    /// outcomes).
    pub fn contains(&self, key: ContentHash) -> bool {
        self.shard(key).lock().map.contains_key(&key)
    }

    /// Every entry, sorted by key (deterministic; used by the spill).
    pub fn entries(&self) -> Vec<(ContentHash, Arc<V>)> {
        let mut all: Vec<(ContentHash, Arc<V>)> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.lock()
                    .map
                    .iter()
                    .map(|(k, slot)| (*k, Arc::clone(&slot.value)))
                    .collect::<Vec<_>>()
            })
            .collect();
        all.sort_by_key(|(k, _)| *k);
        all
    }
}

impl<V: StoreFootprint> ShardedClockCache<V> {
    /// Inserts `value` under `key` unbudgeted, charging its own footprint.
    /// The resident entry wins if a racing insert got there first.
    pub fn admit(&self, key: ContentHash, value: Arc<V>) -> Arc<V> {
        let bytes = value.footprint_bytes();
        self.admit_sized(key, value, bytes)
    }

    /// Returns the cached artifact for `key`, computing it outside the shard
    /// lock on a miss (unbudgeted). Under a racing double-miss both
    /// computations produce the same deterministic value and the first
    /// insert wins.
    pub fn get_or_insert_with(&self, key: ContentHash, compute: impl FnOnce() -> V) -> Arc<V> {
        if let Some(found) = self.lookup(key) {
            return found;
        }
        self.admit(key, Arc::new(compute()))
    }
}

/// Counters of one stage: entries, lookups (hits + misses), admissions,
/// evictions, and the resident footprint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageStats {
    /// Distinct artifacts held.
    pub entries: usize,
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute.
    pub misses: u64,
    /// Artifacts admitted into the cache.
    pub inserts: u64,
    /// Artifacts evicted by the CLOCK sweep.
    pub evictions: u64,
    /// Bytes currently resident (footprint accounting).
    pub resident_bytes: u64,
}

impl StageStats {
    /// Total lookups (`hits + misses`).
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }
}

/// A snapshot of every stage's counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// `(stage name, counters)`, in pipeline order.
    pub stages: Vec<(&'static str, StageStats)>,
}

impl StoreStats {
    /// Total hits across stages.
    pub fn total_hits(&self) -> u64 {
        self.stages.iter().map(|(_, s)| s.hits).sum()
    }

    /// Total misses across stages.
    pub fn total_misses(&self) -> u64 {
        self.stages.iter().map(|(_, s)| s.misses).sum()
    }

    /// Total evictions across stages.
    pub fn total_evictions(&self) -> u64 {
        self.stages.iter().map(|(_, s)| s.evictions).sum()
    }

    /// Total resident bytes across stages.
    pub fn resident_bytes(&self) -> u64 {
        self.stages.iter().map(|(_, s)| s.resident_bytes).sum()
    }

    /// Total entries across stages.
    pub fn total_entries(&self) -> usize {
        self.stages.iter().map(|(_, s)| s.entries).sum()
    }

    /// Counters for one stage by name.
    pub fn stage(&self, name: &str) -> Option<StageStats> {
        self.stages
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| *s)
    }

    /// The change in hit/miss/insert/eviction counters since `before`
    /// (entry counts and resident bytes stay absolute — they describe the
    /// store, not the interval). This is what lets one report attribute
    /// cache behavior to one study even when many studies share a store.
    pub fn delta_since(&self, before: &StoreStats) -> StoreStats {
        StoreStats {
            stages: self
                .stages
                .iter()
                .map(|(name, after)| {
                    let prior = before.stage(name).unwrap_or_default();
                    (
                        *name,
                        StageStats {
                            entries: after.entries,
                            hits: after.hits.saturating_sub(prior.hits),
                            misses: after.misses.saturating_sub(prior.misses),
                            inserts: after.inserts.saturating_sub(prior.inserts),
                            evictions: after.evictions.saturating_sub(prior.evictions),
                            resident_bytes: after.resident_bytes,
                        },
                    )
                })
                .collect(),
        }
    }

    /// The snapshot as a JSON object (stage → `{entries, hits, misses,
    /// inserts, evictions, resident_bytes}`).
    pub fn to_json(&self) -> JsonValue {
        let mut doc = JsonValue::object();
        for (name, stats) in &self.stages {
            doc = doc.field(
                name,
                JsonValue::object()
                    .field("entries", stats.entries)
                    .field("hits", stats.hits)
                    .field("misses", stats.misses)
                    .field("inserts", stats.inserts)
                    .field("evictions", stats.evictions)
                    .field("resident_bytes", stats.resident_bytes),
            );
        }
        doc
    }
}

/// Looks `value` up in a pointer-keyed fingerprint memo, computing and
/// recording its hash on a miss. The key is sound because the entry's
/// `Weak` keeps the allocation (not the value) alive, so its address cannot
/// be handed to another value while the entry exists.
fn memoized<T>(
    memo: &Mutex<HashMap<usize, (Weak<T>, ContentHash)>>,
    value: &Arc<T>,
    hash: impl FnOnce(&T) -> ContentHash,
) -> ContentHash {
    let key = Arc::as_ptr(value) as usize;
    if let Some((_, found)) = memo.lock().get(&key) {
        return *found;
    }
    let computed = hash(value);
    let mut memo = memo.lock();
    if memo.len() >= FP_MEMO_CAP {
        memo.clear();
    }
    memo.insert(key, (Arc::downgrade(value), computed));
    computed
}

/// The content-addressed artifact store. See the module docs for the design.
#[derive(Debug, Default)]
pub struct ArtifactStore {
    catalogs: ShardedClockCache<Catalog>,
    profiles: ShardedClockCache<IpcProfileArtifact>,
    typings: ShardedClockCache<BlockTyping>,
    regions: ShardedClockCache<ProgramRegions>,
    instrumented: ShardedClockCache<InstrumentedProgram>,
    baselines: ShardedClockCache<InstrumentedProgram>,
    isolated: ShardedClockCache<HashMap<String, f64>>,
    cells: ShardedClockCache<CachedCell>,
    /// The optional byte budget. `None` (the default) grows without bound,
    /// the legacy sweep-harness behaviour; a service-scale store sets it.
    budget: Option<StoreBudget>,
    /// Program fingerprints memoized by allocation (see [`memoized`]). The
    /// held `Weak` reserves the address without keeping the program alive,
    /// so an evicted catalogue's programs are freed as soon as their last
    /// caller lets go. Cleared once it reaches [`FP_MEMO_CAP`] entries.
    program_fps: Mutex<HashMap<usize, (Weak<Program>, ContentHash)>>,
    /// Same memo (and the same bound) for instrumented programs, used when
    /// hashing job slots.
    instrumented_fps: Mutex<HashMap<usize, (Weak<InstrumentedProgram>, ContentHash)>>,
}

impl ArtifactStore {
    /// An empty, unbounded store.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty store bounded to `max_bytes` of resident artifacts. On
    /// admission the store evicts (sharded CLOCK, borrowed entries skipped)
    /// until the new artifact fits; an artifact that cannot be made to fit
    /// is returned to the caller *uncached*, so the resident footprint never
    /// exceeds the budget.
    pub fn with_budget(max_bytes: u64) -> Self {
        Self {
            budget: Some(StoreBudget::new(max_bytes)),
            ..Self::default()
        }
    }

    /// The configured byte budget, if any.
    pub fn budget_bytes(&self) -> Option<u64> {
        self.budget.as_ref().map(StoreBudget::max_bytes)
    }

    /// Total bytes currently resident across every stage. On a bounded
    /// store this reads the budget's running total under its lock — O(1),
    /// and never a torn mid-admission sum; an unbounded store sums the
    /// per-shard accounting.
    pub fn resident_bytes(&self) -> u64 {
        match &self.budget {
            Some(budget) => *budget.resident.lock(),
            None => self.resident_bytes_unguarded(),
        }
    }

    /// The per-shard accounting sum (what the budget total mirrors).
    fn resident_bytes_unguarded(&self) -> u64 {
        self.stage_list().iter().map(|(_, s)| s.resident()).sum()
    }

    /// Every stage as a type-erased eviction target, in the order the
    /// cross-stage sweep prefers victims: simulation cells first (largest,
    /// cheapest to recompute relative to their size), compact analysis
    /// artifacts last.
    fn stage_list(&self) -> [(&'static str, &dyn EvictStage); 8] {
        [
            ("cells", &self.cells),
            ("catalogs", &self.catalogs),
            ("instrumented", &self.instrumented),
            ("baselines", &self.baselines),
            ("regions", &self.regions),
            ("isolated_runtimes", &self.isolated),
            ("ipc_profiles", &self.profiles),
            ("typings", &self.typings),
        ]
    }

    /// One cross-stage eviction round freeing at least `need` bytes if it
    /// can. Stages are tried in [`ArtifactStore::stage_list`]'s fixed
    /// preference order (cells and catalogues first) — no residency re-scan
    /// per round, since every call already runs under the budget lock and
    /// extra shard-lock round-trips there stall all other admissions.
    /// Returns the bytes freed; `0` means every remaining entry is
    /// referenced or borrowed.
    fn evict_round(&self, need: u64) -> u64 {
        let mut freed = 0;
        for (_, stage) in self.stage_list() {
            if freed >= need {
                break;
            }
            freed += stage.evict_bytes(need - freed);
        }
        freed
    }

    /// Admits a freshly computed artifact, enforcing the budget when one is
    /// configured. Admission is serialized by the budget's guard (which
    /// carries the running resident total), evicts until the artifact fits,
    /// and hands the artifact back *uncached* when room cannot be made
    /// (oversized artifact, or everything else pinned) — so
    /// `resident_bytes() <= budget` is an invariant, not a goal.
    fn admit<V: StoreFootprint>(
        &self,
        cache: &ShardedClockCache<V>,
        key: ContentHash,
        value: Arc<V>,
    ) -> Arc<V> {
        let Some(budget) = &self.budget else {
            return cache.admit(key, value);
        };
        let mut resident = budget.resident.lock();
        // A racing admission may have inserted the key while we computed;
        // the resident entry wins without any new accounting.
        if let Some(found) = cache.shard(key).lock().map.get(&key) {
            return Arc::clone(&found.value);
        }
        let bytes = value.footprint_bytes();
        if bytes > budget.max_bytes {
            return value;
        }
        while *resident + bytes > budget.max_bytes {
            let freed = self.evict_round(*resident + bytes - budget.max_bytes);
            if freed == 0 {
                return value;
            }
            *resident -= freed;
        }
        *resident += bytes;
        cache.admit_sized(key, value, bytes)
    }

    /// The budget-aware lookup-or-compute every stage accessor goes
    /// through. When tracing is on, a hit/miss event (detail
    /// `stage:content-hash`) lands on the current trace, and the recompute
    /// runs under a span named after the stage.
    fn cached<V: StoreFootprint>(
        &self,
        stage: &'static str,
        cache: &ShardedClockCache<V>,
        key: ContentHash,
        compute: impl FnOnce() -> V,
    ) -> Arc<V> {
        if let Some(found) = cache.lookup(key) {
            phase_trace::event_detail("store-hit", 0, || format!("{stage}:{key}"));
            return found;
        }
        phase_trace::event_detail("store-miss", 0, || format!("{stage}:{key}"));
        let _recompute = phase_trace::span(stage);
        self.admit(cache, key, Arc::new(compute()))
    }

    /// The content fingerprint of a program (memoized per allocation).
    ///
    /// The fingerprint walks the program's IR — names, entries, every
    /// instruction class and memory reference, every terminator with its
    /// targets and branch behaviour — so two structurally identical
    /// programs share artifacts even if generated separately. The memo
    /// holds no strong reference: the caller's reference count is left
    /// unchanged.
    pub fn program_fingerprint(&self, program: &Arc<Program>) -> ContentHash {
        memoized(&self.program_fps, program, Program::content_hash)
    }

    /// The content fingerprint of an instrumented program: the underlying
    /// program plus the marking config and the exact mark set.
    pub fn instrumented_fingerprint(&self, instrumented: &Arc<InstrumentedProgram>) -> ContentHash {
        memoized(&self.instrumented_fps, instrumented, |instrumented| {
            self.instrumented_hash(instrumented)
        })
    }

    /// The un-memoized hash behind [`ArtifactStore::instrumented_fingerprint`].
    fn instrumented_hash(&self, instrumented: &InstrumentedProgram) -> ContentHash {
        let mut hasher = StableHasher::new();
        hasher.write_str("instrumented");
        self.program_fingerprint(instrumented.program())
            .fingerprint(&mut hasher);
        instrumented.config().fingerprint(&mut hasher);
        // The entry phase type is a real simulation input (it seeds each
        // process's starting phase), so zero-mark twins that differ only in
        // entry typing must not alias.
        match instrumented.entry_type() {
            Some(ty) => {
                hasher.write_bool(true);
                hasher.write_u64(u64::from(ty.0));
            }
            None => hasher.write_bool(false),
        }
        hasher.write_usize(instrumented.mark_count());
        for mark in instrumented.marks() {
            hasher.write_u64(u64::from(mark.from.proc.0));
            hasher.write_u64(u64::from(mark.from.block.0));
            hasher.write_u64(u64::from(mark.to.proc.0));
            hasher.write_u64(u64::from(mark.to.block.0));
            hasher.write_u64(u64::from(mark.phase_type.0));
            match mark.previous_type {
                Some(ty) => {
                    hasher.write_bool(true);
                    hasher.write_u64(u64::from(ty.0));
                }
                None => hasher.write_bool(false),
            }
        }
        hasher.finish()
    }

    /// Stage 1 — catalogue generation.
    pub fn catalog(&self, spec: &CatalogSpec) -> Arc<Catalog> {
        self.cached("catalogs", &self.catalogs, spec.content_hash(), || {
            spec.build()
        })
    }

    /// Stage 2 — per-block IPC profiling on the machine's fastest and slowest
    /// kinds.
    pub fn ipc_profiles(
        &self,
        program: &Arc<Program>,
        machine: &MachineSpec,
        min_block_size: usize,
    ) -> Arc<IpcProfileArtifact> {
        let mut hasher = StableHasher::new();
        hasher.write_str("ipc-profile");
        self.program_fingerprint(program).fingerprint(&mut hasher);
        machine.fingerprint(&mut hasher);
        hasher.write_usize(min_block_size);
        self.cached("ipc_profiles", &self.profiles, hasher.finish(), || {
            profile_stage(program, machine, min_block_size)
        })
    }

    /// Stage 3 — block typing. Profile-guided typing pulls stage 2 from the
    /// store, so two pipeline configs that differ only in marking share one
    /// profiling pass.
    pub fn typing(
        &self,
        program: &Arc<Program>,
        machine: &MachineSpec,
        config: &PipelineConfig,
    ) -> Arc<BlockTyping> {
        let min_block_size = min_typed_block_size(config);
        let mut hasher = StableHasher::new();
        hasher.write_str("typing");
        self.program_fingerprint(program).fingerprint(&mut hasher);
        machine.fingerprint(&mut hasher);
        config.typing.fingerprint(&mut hasher);
        hasher.write_usize(min_block_size);
        hasher.write_f64(config.clustering_error);
        hasher.write_u64(config.error_seed);
        self.cached("typings", &self.typings, hasher.finish(), || {
            let profiles = match config.typing {
                TypingStrategy::ProfileGuided { .. } => {
                    Some(self.ipc_profiles(program, machine, min_block_size))
                }
                TypingStrategy::StaticKMeans { .. } => None,
            };
            typing_stage(program, machine, config, profiles.as_deref())
        })
    }

    /// Stage 4 — section summarization (region maps at the marking
    /// granularity, with dominant types).
    pub fn regions(
        &self,
        program: &Arc<Program>,
        machine: &MachineSpec,
        config: &PipelineConfig,
    ) -> Arc<ProgramRegions> {
        let mut hasher = StableHasher::new();
        hasher.write_str("regions");
        self.program_fingerprint(program).fingerprint(&mut hasher);
        machine.fingerprint(&mut hasher);
        config.fingerprint(&mut hasher);
        self.cached("regions", &self.regions, hasher.finish(), || {
            let typing = self.typing(program, machine, config);
            regions_stage(program, &typing, &config.marking)
        })
    }

    /// Stage 5 — instrumentation (phase-mark insertion).
    pub fn instrumented(
        &self,
        program: &Arc<Program>,
        machine: &MachineSpec,
        config: &PipelineConfig,
    ) -> Arc<InstrumentedProgram> {
        let mut hasher = StableHasher::new();
        hasher.write_str("instrument");
        self.program_fingerprint(program).fingerprint(&mut hasher);
        machine.fingerprint(&mut hasher);
        config.fingerprint(&mut hasher);
        self.cached("instrumented", &self.instrumented, hasher.finish(), || {
            let regions = self.regions(program, machine, config);
            instrument_stage(program, &regions, &config.marking)
        })
    }

    /// The uninstrumented twin of a program (zero marks). Config-independent:
    /// one artifact per program, shared by every pipeline configuration —
    /// sweeps no longer rebuild the baseline per sweep point.
    pub fn baseline(&self, program: &Arc<Program>) -> Arc<InstrumentedProgram> {
        let mut hasher = StableHasher::new();
        hasher.write_str("baseline");
        self.program_fingerprint(program).fingerprint(&mut hasher);
        self.cached("baselines", &self.baselines, hasher.finish(), || {
            crate::pipeline::uninstrumented(program)
        })
    }

    /// Per-benchmark isolated runtimes for a catalogue on a machine
    /// (config-independent like the baseline twins; the stretch metric's
    /// denominator).
    pub fn isolated_runtimes(
        &self,
        catalog_spec: &CatalogSpec,
        machine: &MachineSpec,
        sim: &SimConfig,
        compute: impl FnOnce() -> HashMap<String, f64>,
    ) -> Arc<HashMap<String, f64>> {
        let mut hasher = StableHasher::new();
        hasher.write_str("isolated");
        catalog_spec.fingerprint(&mut hasher);
        machine.fingerprint(&mut hasher);
        sim.fingerprint(&mut hasher);
        self.cached(
            "isolated_runtimes",
            &self.isolated,
            hasher.finish(),
            compute,
        )
    }

    /// The cache key of a simulation cell: machine, policy, sim parameters,
    /// and the full job-slot content (names, release times, binary
    /// fingerprints). Plan position is deliberately excluded.
    pub fn cell_key(
        &self,
        machine: &MachineSpec,
        policy: &Policy,
        sim: &SimConfig,
        slots: &[Vec<JobSpec>],
    ) -> ContentHash {
        let mut hasher = StableHasher::new();
        hasher.write_str("cell");
        machine.fingerprint(&mut hasher);
        policy.fingerprint(&mut hasher);
        sim.fingerprint(&mut hasher);
        hasher.write_usize(slots.len());
        for queue in slots {
            hasher.write_usize(queue.len());
            for job in queue {
                hasher.write_str(&job.name);
                hasher.write_f64(job.release_ns);
                match job.deadline_ns {
                    Some(ns) => {
                        hasher.write_bool(true);
                        hasher.write_f64(ns);
                    }
                    None => hasher.write_bool(false),
                }
                self.instrumented_fingerprint(&job.instrumented)
                    .fingerprint(&mut hasher);
            }
        }
        hasher.finish()
    }

    /// Looks up or computes a whole simulation cell.
    pub fn cell(&self, key: ContentHash, compute: impl FnOnce() -> CachedCell) -> Arc<CachedCell> {
        self.cached("cells", &self.cells, key, compute)
    }

    /// A consistent snapshot of every stage's counters, in pipeline order.
    ///
    /// Each stage's counters are read under its shard locks, so the
    /// invariants `hits + misses == lookups` and
    /// `inserts - evictions == entries` hold exactly in the returned value —
    /// readers can never observe a torn combination (an insert counted but
    /// its entry not yet visible, or vice versa). On a bounded store the
    /// snapshot additionally holds the budget guard, so the cross-stage
    /// resident sum is taken with no admission or eviction in flight and
    /// can never exceed the budget. Both the study runner and the tuning
    /// service report through this one method.
    pub fn snapshot(&self) -> StoreStats {
        let _guard = self.budget.as_ref().map(|b| b.resident.lock());
        StoreStats {
            stages: vec![
                ("catalogs", self.catalogs.snapshot()),
                ("ipc_profiles", self.profiles.snapshot()),
                ("typings", self.typings.snapshot()),
                ("regions", self.regions.snapshot()),
                ("instrumented", self.instrumented.snapshot()),
                ("baselines", self.baselines.snapshot()),
                ("isolated_runtimes", self.isolated.snapshot()),
                ("cells", self.cells.snapshot()),
            ],
        }
    }

    /// Every persisted stage with its cache, in [`SPILL_STAGES`] order: the
    /// one table the spill, the spill load and the network artifact cache
    /// dispatch through.
    fn spill_stages(&self) -> [(&'static str, &dyn SpilledStage); 6] {
        [
            ("typings", &self.typings),
            ("ipc_profiles", &self.profiles),
            ("isolated_runtimes", &self.isolated),
            ("instrumented", &self.instrumented),
            ("baselines", &self.baselines),
            ("cells", &self.cells),
        ]
    }

    /// The persisted stage named `stage`, if any.
    fn spilled_stage(&self, stage: &str) -> Option<&dyn SpilledStage> {
        self.spill_stages()
            .into_iter()
            .find(|(name, _)| *name == stage)
            .map(|(_, cache)| cache)
    }

    /// Spills every stage in [`SPILL_STAGES`] to `dir` as phase-pack.
    ///
    /// Writes `index.json` (every stage's counters), one `<stage>.ppk` file
    /// per persisted stage, and `manifest.json` (format name, pack version,
    /// producing toolchain, and a content hash over every spilled key — the
    /// value CI cache keys hang off).
    pub fn spill_to_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let _span = phase_trace::span("store-spill");
        std::fs::create_dir_all(dir)?;
        let mut written = Vec::new();
        let index_path = dir.join("index.json");
        std::fs::write(&index_path, self.snapshot().to_json().render())?;
        written.push(index_path);

        let mut stage_docs = Vec::new();
        let mut manifest_hasher = StableHasher::new();
        manifest_hasher.write_str("spill-manifest");
        manifest_hasher.write_str(pack::toolchain_tag());
        for (stage, cache) in self.spill_stages() {
            let records = cache.encode_all();
            manifest_hasher.write_str(stage);
            manifest_hasher.write_usize(records.len());
            for (key, _) in &records {
                key.fingerprint(&mut manifest_hasher);
            }
            let file = format!("{stage}.ppk");
            let path = dir.join(&file);
            std::fs::write(&path, pack::write_pack_file(stage, &records))?;
            stage_docs.push(
                JsonValue::object()
                    .field("stage", stage)
                    .field("file", file)
                    .field("entries", records.len()),
            );
            written.push(path);
        }
        let manifest = JsonValue::object()
            .field("format", "phase-pack")
            .field("version", pack::PACK_VERSION)
            .field("toolchain", pack::toolchain_tag())
            .field("content_hash", manifest_hasher.finish().to_string())
            .field("stages", stage_docs);
        let manifest_path = dir.join("manifest.json");
        std::fs::write(&manifest_path, manifest.render())?;
        written.push(manifest_path);
        Ok(written)
    }

    /// Serializes one artifact for the network cache: `Some(phase-pack
    /// payload)` when `(stage, key)` is resident, `None` on a miss or an
    /// unknown stage. The lookup counts as a normal hit/miss on the stage.
    pub fn export_artifact(&self, stage: &str, key: ContentHash) -> Option<Vec<u8>> {
        self.spilled_stage(stage)?.export(key)
    }

    /// Decodes and admits one artifact payload (the put side of the network
    /// cache and the per-record body of the spill load). Decoding is fully
    /// validated — corrupt payloads return a [`pack::PackError`], never
    /// panic — and admission goes through the byte budget like any computed
    /// artifact. Returns whether the artifact is resident afterwards
    /// (`false` means the budget declined it).
    pub fn import_artifact(
        &self,
        stage: &str,
        key: ContentHash,
        payload: &[u8],
    ) -> Result<bool, pack::PackError> {
        self.spilled_stage(stage)
            .ok_or_else(|| pack::PackError::Malformed(format!("unknown stage '{stage}'")))?
            .import(self, key, payload)
    }

    /// Every resident key of every persistable stage, sorted within each
    /// stage — the inventory a remote worker walks to warm itself from this
    /// store.
    pub fn artifact_keys(&self) -> Vec<(&'static str, Vec<ContentHash>)> {
        self.spill_stages()
            .into_iter()
            .map(|(stage, cache)| (stage, cache.keys()))
            .collect()
    }

    /// Reloads a directory written by [`ArtifactStore::spill_to_dir`],
    /// reporting what loaded, what was skipped, and why. `loaded` counts the
    /// artifacts *offered* to the store — a bounded store admits them
    /// through the usual budget gate and may decline some.
    ///
    /// A directory without `manifest.json` holds no spill and loads
    /// nothing. Loads are otherwise *structurally* guarded: an unreadable
    /// manifest, a format other than phase-pack, or a version or toolchain
    /// mismatch rejects the whole directory as a recorded error with zero
    /// loads (a stale cache is a cold start, not a crash), and a truncated
    /// or bit-flipped record is skipped with a structured error while the
    /// intact remainder still loads. `Err` is reserved for I/O failures.
    pub fn load_spill_report(&self, dir: &Path) -> io::Result<SpillLoadReport> {
        let _span = phase_trace::span("store-load");
        let mut report = SpillLoadReport::default();
        let manifest_path = dir.join("manifest.json");
        if !manifest_path.exists() {
            return Ok(report);
        }
        // Lossy decoding: a manifest that is not UTF-8 is damage to record,
        // not an I/O failure.
        let text = String::from_utf8_lossy(&std::fs::read(&manifest_path)?).into_owned();
        let manifest = match parse(&text) {
            Ok(doc) => doc,
            Err(error) => {
                report.errors.push(format!("manifest.json: {error}"));
                return Ok(report);
            }
        };
        let format = manifest
            .get("format")
            .and_then(JsonValue::as_str)
            .unwrap_or("");
        if format != "phase-pack" {
            report.errors.push(format!(
                "manifest.json: unsupported spill format '{format}'"
            ));
            return Ok(report);
        }
        let version = manifest
            .get("version")
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0) as u64;
        let toolchain = manifest
            .get("toolchain")
            .and_then(JsonValue::as_str)
            .unwrap_or("");
        if version != pack::PACK_VERSION {
            report
                .errors
                .push(pack::PackError::BadVersion { found: version }.to_string());
            return Ok(report);
        }
        if toolchain != pack::toolchain_tag() {
            report.errors.push(
                pack::PackError::ToolchainMismatch {
                    found: toolchain.to_string(),
                }
                .to_string(),
            );
            return Ok(report);
        }
        self.load_spill_stages(dir, &mut report);
        Ok(report)
    }

    /// The per-stage load: per-file header validation, then per-record
    /// checksum + decode validation, all failure contained as skipped
    /// entries.
    fn load_spill_stages(&self, dir: &Path, report: &mut SpillLoadReport) {
        for (stage, cache) in self.spill_stages() {
            let path = dir.join(format!("{stage}.ppk"));
            let bytes = match std::fs::read(&path) {
                Ok(bytes) => bytes,
                Err(error) if error.kind() == io::ErrorKind::NotFound => continue,
                Err(error) => {
                    report.errors.push(format!("{stage}.ppk: {error}"));
                    continue;
                }
            };
            let file = match pack::read_pack_file(&bytes, stage) {
                Ok(file) => file,
                Err(error) => {
                    // Header mismatch: the whole file is foreign or stale.
                    report.errors.push(format!("{stage}.ppk: {error}"));
                    continue;
                }
            };
            for error in &file.skipped {
                report.skipped += 1;
                report.errors.push(format!("{stage}.ppk: {error}"));
            }
            for (key, payload) in file.records {
                match cache.import(self, key, &payload) {
                    Ok(_) => report.loaded += 1,
                    Err(error) => {
                        report.skipped += 1;
                        report.errors.push(format!("{stage}.ppk {key}: {error}"));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phase_workload::CatalogSpec;

    #[test]
    fn content_hash_round_trips_through_hex() {
        let hash = ContentHash {
            hi: 0x0123_4567_89ab_cdef,
            lo: 0xfedc_ba98_7654_3210,
        };
        assert_eq!(ContentHash::from_hex(&hash.to_string()), Some(hash));
        assert_eq!(ContentHash::from_hex("xyz"), None);
    }

    #[test]
    fn hasher_distinguishes_field_order_and_values() {
        let mut a = StableHasher::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = StableHasher::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish(), "length prefixes split boundaries");
        assert_ne!(
            MarkingConfig::loop_level(45).content_hash(),
            MarkingConfig::loop_level(30).content_hash()
        );
        assert_ne!(
            MarkingConfig::basic_block(15, 0).content_hash(),
            MarkingConfig::interval(15).content_hash()
        );
        assert_eq!(
            PipelineConfig::paper_best().content_hash(),
            PipelineConfig::paper_best().content_hash()
        );
    }

    #[test]
    fn catalog_stage_hits_on_equal_specs() {
        let store = ArtifactStore::new();
        let spec = CatalogSpec::standard(0.04, 7);
        let first = store.catalog(&spec);
        let second = store.catalog(&spec);
        assert!(Arc::ptr_eq(&first, &second));
        let stats = store.snapshot().stage("catalogs").unwrap();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        let other = store.catalog(&CatalogSpec::standard(0.04, 8));
        assert!(!Arc::ptr_eq(&first, &other));
        assert_eq!(store.snapshot().stage("catalogs").unwrap().entries, 2);
    }

    #[test]
    fn program_fingerprints_are_structural() {
        let store = ArtifactStore::new();
        let a = CatalogSpec::standard(0.04, 7).build();
        let b = CatalogSpec::standard(0.04, 7).build();
        // Different allocations, same content: same fingerprint.
        let fa = store.program_fingerprint(a.benchmarks()[0].program());
        let fb = store.program_fingerprint(b.benchmarks()[0].program());
        assert_eq!(fa, fb);
        let other = store.program_fingerprint(a.benchmarks()[1].program());
        assert_ne!(fa, other);
    }

    #[test]
    fn stage_table_round_trips_every_persisted_stage() {
        let store = ArtifactStore::new();
        crate::experiment::prepare_workload_cached(
            &crate::experiment::ExperimentConfig::smoke_test(),
            &store,
        );
        store.cell(ContentHash { hi: 7, lo: 11 }, || CachedCell {
            result: SimResult {
                label: "stage-table".to_string(),
                records: Vec::new(),
                total_instructions: 42,
                final_time_ns: 1.5,
                throughput_windows: vec![42],
                core_busy_ns: vec![1.5],
                total_marks_executed: 0,
                total_core_switches: 0,
            },
            tuner_stats: None,
            online_stats: None,
        });
        let names: Vec<&str> = store.spill_stages().iter().map(|(name, _)| *name).collect();
        assert_eq!(names, SPILL_STAGES);

        let fresh = ArtifactStore::new();
        for (stage, keys) in store.artifact_keys() {
            assert!(!keys.is_empty(), "{stage} is populated");
            for key in keys {
                let bytes = store.export_artifact(stage, key).expect("resident");
                assert_eq!(fresh.import_artifact(stage, key, &bytes), Ok(true));
                assert_eq!(
                    fresh.export_artifact(stage, key).as_deref(),
                    Some(&bytes[..]),
                    "{stage} {key} re-exports identical bytes"
                );
            }
        }

        let key = ContentHash { hi: 1, lo: 2 };
        assert_eq!(store.export_artifact("regions", key), None);
        assert!(matches!(
            fresh.import_artifact("regions", key, &[]),
            Err(pack::PackError::Malformed(_))
        ));
    }
}
