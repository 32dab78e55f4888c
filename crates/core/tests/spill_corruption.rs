//! Fuzz-style corruption battery for the binary spill: truncations, bit
//! flips, and stale manifests must all surface as *structured errors and
//! skipped entries* — a damaged cache degrades to a (partial) cold start,
//! and never panics, never deserializes wrong, and never returns `Err` for
//! damage the format is designed to contain.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use phase_core::substrate::sched::SimResult;
use phase_core::{
    prepare_workload_cached, ArtifactStore, CachedCell, ContentHash, ExperimentConfig,
    SpillLoadReport, SPILL_STAGES,
};

fn temp_dir(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "phase-spill-corruption-{name}-{}",
        std::process::id()
    ))
}

/// A store with every spillable stage populated: the full static pipeline
/// over the smoke-test catalogue, plus one synthetic simulation cell.
fn populated_store() -> ArtifactStore {
    let store = ArtifactStore::new();
    let config = ExperimentConfig::smoke_test();
    prepare_workload_cached(&config, &store);
    store.cell(ContentHash { hi: 7, lo: 11 }, || CachedCell {
        result: SimResult {
            label: "corruption-battery".to_string(),
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
    store
}

fn copy_spill(from: &Path, name: &str) -> PathBuf {
    let to = temp_dir(name);
    std::fs::remove_dir_all(&to).ok();
    std::fs::create_dir_all(&to).expect("create copy dir");
    for entry in std::fs::read_dir(from).expect("read spill dir") {
        let entry = entry.expect("dir entry");
        std::fs::copy(entry.path(), to.join(entry.file_name())).expect("copy spill file");
    }
    to
}

fn load_fresh(dir: &Path) -> SpillLoadReport {
    ArtifactStore::new()
        .load_spill_report(dir)
        .expect("corruption is contained, never an io::Err")
}

/// Every stage's pack file plus its record count (from the live store, so
/// assertions can distinguish damaging a populated file from an empty one).
fn pack_files(dir: &Path, store: &ArtifactStore) -> Vec<(PathBuf, usize)> {
    let counts: std::collections::HashMap<&str, usize> = store
        .artifact_keys()
        .into_iter()
        .map(|(stage, keys)| (stage, keys.len()))
        .collect();
    let files: Vec<(PathBuf, usize)> = SPILL_STAGES
        .iter()
        .map(|stage| (dir.join(format!("{stage}.ppk")), counts[stage]))
        .filter(|(path, _)| path.exists())
        .collect();
    assert_eq!(files.len(), SPILL_STAGES.len(), "every stage spilled");
    files
}

#[test]
fn truncated_pack_files_load_partially_with_structured_errors() {
    let golden = temp_dir("truncate-golden");
    let store = populated_store();
    store.spill_to_dir(&golden).expect("spill");
    let baseline = load_fresh(&golden);
    assert!(baseline.errors.is_empty(), "{:?}", baseline.errors);
    assert_eq!(baseline.skipped, 0);
    assert!(baseline.loaded > 0);

    for (victim, records) in pack_files(&golden, &store) {
        let len = std::fs::metadata(&victim).expect("stat").len() as usize;
        // Cut inside the header, mid-body, and one byte short of intact: the
        // count lives in the header, so a shortened file always loses at
        // least its final record — as a recorded skip, never a panic.
        for keep in [3, len / 2, len - 1] {
            let dir = copy_spill(&golden, "truncate-case");
            let name = victim.file_name().expect("file name");
            let bytes = std::fs::read(&victim).expect("read victim");
            std::fs::write(dir.join(name), &bytes[..keep]).expect("truncate");

            let report = load_fresh(&dir);
            assert!(
                !report.errors.is_empty(),
                "{name:?} truncated to {keep}/{len} bytes went unnoticed"
            );
            if records > 0 {
                assert!(
                    report.loaded < baseline.loaded,
                    "{name:?} truncated to {keep}/{len} bytes lost nothing?"
                );
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }
    std::fs::remove_dir_all(&golden).ok();
}

#[test]
fn bit_flips_are_skipped_never_deserialized_wrong() {
    let golden = temp_dir("bitflip-golden");
    let store = populated_store();
    store.spill_to_dir(&golden).expect("spill");
    let baseline = load_fresh(&golden);

    for (victim, _) in pack_files(&golden, &store) {
        let bytes = std::fs::read(&victim).expect("read victim");
        let name = victim.file_name().expect("file name");
        // Deterministic flip sites: the magic, the header tail, a body byte,
        // and the final checksum byte.
        for (offset, must_error) in [
            (0, true),                // magic → whole file rejected
            (5, true),                // version/toolchain → whole file rejected
            (bytes.len() / 2, false), // body → checksum skip (or a key flip,
            // which re-keys an intact record — allowed)
            (bytes.len() - 1, true), // final record's checksum → skip
        ] {
            let dir = copy_spill(&golden, "bitflip-case");
            let mut flipped = bytes.clone();
            flipped[offset] ^= 0x10;
            std::fs::write(dir.join(name), &flipped).expect("write flipped");

            let report = load_fresh(&dir);
            if must_error {
                assert!(
                    !report.errors.is_empty(),
                    "{name:?} flipped at {offset} went unnoticed"
                );
            }
            assert!(report.loaded <= baseline.loaded);
            if report.errors.is_empty() {
                assert_eq!(
                    report.loaded, baseline.loaded,
                    "{name:?} flipped at {offset}: silent loss"
                );
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }
    std::fs::remove_dir_all(&golden).ok();
}

#[test]
fn stale_manifests_are_a_structural_cold_start() {
    let golden = temp_dir("manifest-golden");
    let store = populated_store();
    store.spill_to_dir(&golden).expect("spill");
    let manifest = std::fs::read_to_string(golden.join("manifest.json")).expect("manifest");

    // A spill from a different crate version: rejected before any record is
    // deserialized, zero loads, one structured error.
    let foreign = copy_spill(&golden, "manifest-toolchain");
    let tag = phase_core::pack::toolchain_tag();
    std::fs::write(
        foreign.join("manifest.json"),
        manifest.replace(tag, "phase/999.0.0"),
    )
    .expect("tamper toolchain");
    let report = load_fresh(&foreign);
    assert_eq!(report.loaded, 0);
    assert!(
        report.errors.iter().any(|e| e.contains("toolchain")),
        "{:?}",
        report.errors
    );
    std::fs::remove_dir_all(&foreign).ok();

    // A future format version: same structural rejection.
    let future = copy_spill(&golden, "manifest-version");
    let version_field = format!("\"version\": {}", phase_core::pack::PACK_VERSION);
    std::fs::write(
        future.join("manifest.json"),
        manifest.replace(&version_field, "\"version\": 999"),
    )
    .expect("tamper version");
    let report = load_fresh(&future);
    assert_eq!(report.loaded, 0);
    assert!(
        report.errors.iter().any(|e| e.contains("version")),
        "{:?}",
        report.errors
    );
    std::fs::remove_dir_all(&future).ok();

    // A garbage manifest (bad JSON or not even UTF-8): recorded, and no
    // stage file is read — a cold start even though every intact pack file
    // is still present.
    let garbage = copy_spill(&golden, "manifest-garbage");
    for bytes in [&b"{not json"[..], &[0xff, 0xfe, b'{']] {
        std::fs::write(garbage.join("manifest.json"), bytes).expect("tamper manifest");
        let report = load_fresh(&garbage);
        assert_eq!(report.loaded, 0);
        assert!(!report.errors.is_empty());
    }
    std::fs::remove_dir_all(&garbage).ok();

    std::fs::remove_dir_all(&golden).ok();
}

#[test]
fn legacy_json_spills_without_a_manifest_are_a_clean_cold_start() {
    let dir = temp_dir("legacy-json");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create legacy dir");
    std::fs::write(
        dir.join("typings.json"),
        r#"[{"key": "0000000000000007000000000000000b", "num_types": 2,
             "entries": [{"proc": 0, "block": 1, "type": 1}]}]"#,
    )
    .expect("write legacy typings");
    std::fs::write(
        dir.join("ipc_profiles.json"),
        r#"[{"key": "0000000000000007000000000000000c", "min_block_size": 15,
             "rows": [{"proc": 0, "block": 1, "fast_ipc": 1.5, "slow_ipc": 0.5}]}]"#,
    )
    .expect("write legacy profiles");

    let store = ArtifactStore::new();
    let report = store
        .load_spill_report(&dir)
        .expect("no manifest is not an error");
    assert_eq!((report.loaded, report.skipped), (0, 0));
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    assert_eq!(store.snapshot().total_entries(), 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bounded_store_loads_binary_spill_within_budget() {
    let golden = temp_dir("bounded-golden");
    let store = populated_store();
    store.spill_to_dir(&golden).expect("spill");
    assert!(store.resident_bytes() > 32 * 1024, "spill is non-trivial");

    let budget = 32 * 1024;
    let bounded = Arc::new(ArtifactStore::with_budget(budget));
    let report = bounded
        .load_spill_report(&golden)
        .expect("bounded load succeeds");
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    assert!(
        bounded.resident_bytes() <= budget,
        "budget overrun: {} > {budget}",
        bounded.resident_bytes()
    );
    std::fs::remove_dir_all(&golden).ok();
}
