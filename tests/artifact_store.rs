//! Integration tests of the content-addressed artifact store: hit/miss
//! accounting across the staged pipeline, cross-thread determinism with
//! caching enabled, the on-disk phase-pack spill round-trip, and the byte-budget /
//! CLOCK-eviction layer behind the tuning service.

use std::sync::Arc;

use phase_tuning::substrate::amp::MachineSpec;
use phase_tuning::substrate::marking::MarkingConfig;
use phase_tuning::substrate::runtime::TunerConfig;
use phase_tuning::substrate::sched::SimConfig;
use phase_tuning::substrate::workload::{CatalogSpec, Workload};
use phase_tuning::{
    prepare_workload_cached, run_comparison_prepared, ArtifactStore, Driver, ExperimentConfig,
    ExperimentPlan, PipelineConfig, PlannedWorkload, Policy,
};

fn smoke_config(marking: MarkingConfig) -> ExperimentConfig {
    ExperimentConfig {
        pipeline: PipelineConfig::with_marking(marking),
        ..ExperimentConfig::smoke_test()
    }
}

#[test]
fn sweeping_one_axis_reuses_every_upstream_artifact() {
    let store = ArtifactStore::new();

    // First sweep point computes everything.
    let first = prepare_workload_cached(&smoke_config(MarkingConfig::loop_level(45)), &store);
    let after_first = store.snapshot();
    assert_eq!(after_first.stage("catalogs").unwrap().misses, 1);
    assert_eq!(after_first.stage("baselines").unwrap().misses, 15);
    assert_eq!(after_first.stage("isolated_runtimes").unwrap().misses, 1);
    let instrumented_misses = after_first.stage("instrumented").unwrap().misses;
    assert_eq!(instrumented_misses, 15);

    // A point that differs only in the marking reuses the catalogue, the
    // baseline twins, the isolated runtimes, and the per-block IPC profiles —
    // only typing/summarization/instrumentation rerun.
    let second = prepare_workload_cached(&smoke_config(MarkingConfig::interval(45)), &store);
    let after_second = store.snapshot();
    assert_eq!(after_second.stage("catalogs").unwrap().misses, 1);
    assert_eq!(after_second.stage("baselines").unwrap().misses, 15);
    assert_eq!(after_second.stage("isolated_runtimes").unwrap().misses, 1);
    assert!(after_second.stage("catalogs").unwrap().hits >= 1);
    assert!(after_second.stage("baselines").unwrap().hits >= 15);
    assert_eq!(
        after_second.stage("instrumented").unwrap().misses,
        instrumented_misses + 15,
        "a new marking config re-instruments"
    );
    // Loop[45] and Int[45] share the typing min-block-size, so the second
    // sweep point adds no profiling misses at all.
    assert_eq!(
        after_second.stage("ipc_profiles").unwrap().misses,
        after_first.stage("ipc_profiles").unwrap().misses
    );

    // An identical third request is answered entirely from the store.
    let third = prepare_workload_cached(&smoke_config(MarkingConfig::interval(45)), &store);
    let after_third = store.snapshot();
    assert_eq!(
        after_third.stage("instrumented").unwrap().misses,
        after_second.stage("instrumented").unwrap().misses
    );
    assert_eq!(third.isolated_ns, second.isolated_ns);
    assert_eq!(first.isolated_ns, second.isolated_ns);
}

#[test]
fn cached_and_uncached_comparisons_agree_bit_for_bit() {
    let config = smoke_config(MarkingConfig::loop_level(30));
    let store = ArtifactStore::new();
    let cached_prepared = prepare_workload_cached(&config, &store);
    let uncached_prepared = phase_tuning::prepare_workload(&config);
    assert_eq!(cached_prepared.isolated_ns, uncached_prepared.isolated_ns);

    let cached = run_comparison_prepared(&config, &cached_prepared);
    let uncached = run_comparison_prepared(&config, &uncached_prepared);
    assert_eq!(cached.baseline, uncached.baseline);
    assert_eq!(cached.tuned, uncached.tuned);
    assert_eq!(cached.fairness, uncached.fairness);
}

fn cached_plan_outcome(threads: usize, store: &ArtifactStore) -> phase_tuning::PlanOutcome {
    let catalog = store.catalog(&CatalogSpec::standard(0.05, 11));
    let machine = MachineSpec::core2_quad_amp();
    let pipeline = PipelineConfig::paper_best();
    let instrumented: Vec<_> = catalog
        .benchmarks()
        .iter()
        .map(|b| store.instrumented(b.program(), &machine, &pipeline))
        .collect();
    let baseline: Vec<_> = catalog
        .benchmarks()
        .iter()
        .map(|b| store.baseline(b.program()))
        .collect();
    let workload = Workload::random(&catalog, 4, 1, 11);
    let planned = PlannedWorkload {
        name: "w".into(),
        baseline_slots: phase_tuning::build_slots(&workload, &catalog, &baseline),
        tuned_slots: phase_tuning::build_slots(&workload, &catalog, &instrumented),
    };
    let sim = SimConfig {
        horizon_ns: Some(2_000_000.0),
        ..SimConfig::default()
    };
    let plan = ExperimentPlan::cross(
        &[planned],
        &[machine],
        &[Policy::Stock, Policy::Tuned(TunerConfig::default())],
        sim,
        0xFEED,
    );
    Driver::new(threads).run_cached(plan, store)
}

#[test]
fn caching_keeps_thread_counts_bit_identical() {
    // Fresh stores per worker count: every divergence would have to come
    // from the cache layer itself.
    let sequential = cached_plan_outcome(1, &ArtifactStore::new());
    let parallel = cached_plan_outcome(8, &ArtifactStore::new());
    assert_eq!(sequential.aggregate, parallel.aggregate);
    for (a, b) in sequential.cells.iter().zip(parallel.cells.iter()) {
        assert_eq!(a.result, b.result);
        assert_eq!(a.label, b.label);
    }

    // And a warm store must reproduce the cold outcome exactly, whatever the
    // worker count.
    let store = ArtifactStore::new();
    let cold = cached_plan_outcome(8, &store);
    let warm = cached_plan_outcome(1, &store);
    for (a, b) in cold.cells.iter().zip(warm.cells.iter()) {
        assert_eq!(a.result, b.result);
    }
    let cells = store.snapshot().stage("cells").unwrap();
    assert!(cells.hits >= 2, "warm plan hits the cell cache ({cells:?})");
}

#[test]
fn spill_round_trips_through_phase_pack() {
    let store = ArtifactStore::new();
    let config = smoke_config(MarkingConfig::loop_level(45));
    prepare_workload_cached(&config, &store);

    let dir = std::env::temp_dir().join(format!("phase-artifacts-{}", std::process::id()));
    let files = store.spill_to_dir(&dir).expect("spill succeeds");
    assert_eq!(
        files.len(),
        2 + phase_tuning::SPILL_STAGES.len(),
        "index + manifest + one pack file per persisted stage"
    );
    for file in &files {
        assert!(file.exists());
    }

    // A fresh store pre-warmed from the spill answers typing, profiling, and
    // isolated-runtime lookups without recomputing them.
    let fresh = ArtifactStore::new();
    let loaded = fresh.load_spill_report(&dir).expect("load succeeds").loaded;
    assert!(loaded > 0, "loaded {loaded} artifacts");
    let catalog = fresh.catalog(&CatalogSpec::standard(
        config.catalog_scale,
        config.workload_seed,
    ));
    let before = fresh.snapshot().stage("typings").unwrap();
    assert_eq!(before.misses, 0);
    for bench in catalog.benchmarks() {
        let reloaded = fresh.typing(bench.program(), &config.machine, &config.pipeline);
        let recomputed = store.typing(bench.program(), &config.machine, &config.pipeline);
        assert_eq!(
            reloaded.typed_block_count(),
            recomputed.typed_block_count(),
            "{}",
            bench.name()
        );
        assert_eq!(
            reloaded.agreement_with(&recomputed),
            1.0,
            "{}",
            bench.name()
        );
    }
    let after = fresh.snapshot().stage("typings").unwrap();
    assert_eq!(
        after.misses, 0,
        "every typing lookup was answered from disk"
    );
    assert_eq!(after.hits, 15);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bounded_store_reproduces_the_unbounded_outcome_within_budget() {
    let config = smoke_config(MarkingConfig::loop_level(45));
    let unbounded = ArtifactStore::new();
    let reference = run_comparison_prepared(&config, &prepare_workload_cached(&config, &unbounded));

    // A budget far below the unbounded footprint forces the CLOCK sweep to
    // run mid-preparation — and must change nothing about the answer. The
    // budget is sized against the *analysis* stages (the whole-catalogue
    // artifact is larger than it, so it is admission-rejected and simply
    // recomputed per preparation — also an answer-preserving path).
    let budget = unbounded
        .snapshot()
        .stages
        .iter()
        .filter(|(name, _)| *name != "catalogs")
        .map(|(_, s)| s.resident_bytes)
        .sum::<u64>()
        / 2;
    assert!(budget > 0, "the smoke config populates the store");
    let bounded = ArtifactStore::with_budget(budget);
    assert_eq!(bounded.budget_bytes(), Some(budget));
    for _ in 0..2 {
        let outcome = run_comparison_prepared(&config, &prepare_workload_cached(&config, &bounded));
        assert_eq!(outcome.baseline, reference.baseline);
        assert_eq!(outcome.tuned, reference.tuned);
        assert_eq!(outcome.fairness, reference.fairness);
        assert!(
            bounded.resident_bytes() <= budget,
            "resident {} exceeded budget {budget}",
            bounded.resident_bytes()
        );
    }
    let snapshot = bounded.snapshot();
    assert!(
        snapshot.total_evictions() > 0,
        "a quarter-size budget must evict: {snapshot:?}"
    );
    // The consistent snapshot keeps every stage's counters balanced.
    for (name, stage) in &snapshot.stages {
        assert_eq!(
            stage.inserts - stage.evictions,
            stage.entries as u64,
            "stage {name} out of balance"
        );
        assert_eq!(stage.lookups(), stage.hits + stage.misses);
    }
}

#[test]
fn snapshot_is_consistent_under_concurrent_mutation() {
    // Hammer one bounded store from worker threads while a reader thread
    // takes snapshots: every snapshot must satisfy the balance invariants,
    // which a torn read of independent atomics would violate.
    let store = ArtifactStore::with_budget(512 * 1024);
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        for worker in 0..4u64 {
            let store = &store;
            let stop = &stop;
            scope.spawn(move || {
                let machine = MachineSpec::core2_quad_amp();
                let pipeline = PipelineConfig::paper_best();
                let mut round = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let seed = worker * 100 + round % 3;
                    let catalog = store.catalog(&CatalogSpec::standard(0.04, seed));
                    for bench in catalog.benchmarks().iter().take(3) {
                        store.instrumented(bench.program(), &machine, &pipeline);
                    }
                    round += 1;
                }
            });
        }
        let store = &store;
        let budget = store.budget_bytes().unwrap();
        for _ in 0..200 {
            let snapshot = store.snapshot();
            for (name, stage) in &snapshot.stages {
                assert_eq!(
                    stage.inserts - stage.evictions,
                    stage.entries as u64,
                    "torn snapshot in stage {name}: {stage:?}"
                );
            }
            assert!(snapshot.resident_bytes() <= budget);
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
    });
}

#[test]
fn baseline_twins_are_shared_across_pipeline_configs() {
    let store = ArtifactStore::new();
    let catalog = store.catalog(&CatalogSpec::standard(0.05, 7));
    let program = catalog.benchmarks()[0].program();
    let a = store.baseline(program);
    let b = store.baseline(program);
    assert!(Arc::ptr_eq(&a, &b), "one baseline artifact per program");
    assert_eq!(a.mark_count(), 0);

    // Structurally identical programs from a separately generated catalogue
    // share the artifact too (content addressing, not pointer identity).
    let again = ArtifactStore::new();
    let other_catalog = CatalogSpec::standard(0.05, 7).build();
    assert_eq!(
        again.program_fingerprint(other_catalog.benchmarks()[0].program()),
        store.program_fingerprint(program)
    );
}
