//! The static tuning pipeline: from a plain program to an instrumented one.
//!
//! This is the "tune once" half of *tune once, run anywhere*: typing the
//! blocks, summarizing sections at the chosen granularity, finding phase
//! transitions, and inserting phase marks. Nothing in the pipeline looks at
//! the target machine's asymmetry — only the dynamic tuner does.
//!
//! The pipeline is split into explicit stages, each a pure function of
//! *(program, machine, config)* producing a deterministic artifact (the
//! store spills them with [`crate::pack`]):
//!
//! 1. catalogue generation (`phase-workload`, cached by `CatalogSpec`),
//! 2. per-block IPC profiling — [`profile_stage`] → [`IpcProfileArtifact`],
//! 3. block typing — [`typing_stage`] → `BlockTyping`,
//! 4. section summarization — [`regions_stage`] → `ProgramRegions`,
//! 5. instrumentation — [`instrument_stage`] → `InstrumentedProgram`.
//!
//! [`prepare_program`] chains 2–5 directly; the
//! [`ArtifactStore`](crate::ArtifactStore) chains them through its
//! content-addressed cache so sweeps reuse every stage whose inputs did not
//! change.

use phase_amp::{CostModel, MachineSpec, SharingContext};
use phase_analysis::{
    assign_block_types, typing_from_ipc_profiles, BlockTyping, StaticTypingConfig,
};
use phase_ir::{Location, Program};
use phase_marking::{
    instrument_with_regions, Granularity, InstrumentedProgram, MarkingConfig, ProgramRegions,
    RegionMap,
};
use serde::{Deserialize, Serialize};

/// How basic blocks get their phase types.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TypingStrategy {
    /// The purely static proof-of-concept analysis of Section II-A3:
    /// instruction-mix + reuse-distance features clustered with k-means.
    StaticKMeans {
        /// Seed for the clustering initialisation.
        seed: u64,
    },
    /// The typing the paper's evaluation seeds its experiments with
    /// (Section IV-A1): per-block IPC estimated on each core kind, types
    /// assigned by comparing the IPC difference against a threshold.
    ProfileGuided {
        /// IPC-difference threshold separating the two types.
        ipc_threshold: f64,
    },
}

impl Default for TypingStrategy {
    fn default() -> Self {
        TypingStrategy::ProfileGuided {
            ipc_threshold: 0.04,
        }
    }
}

/// Configuration of the static pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// The marking technique (`BB[min,la]`, `Int[min]`, `Loop[min]`).
    pub marking: MarkingConfig,
    /// How blocks are typed.
    pub typing: TypingStrategy,
    /// Fraction of typed blocks deliberately flipped to the wrong type, for
    /// the clustering-error robustness experiment (Figure 7).
    pub clustering_error: f64,
    /// Seed used when injecting clustering error.
    pub error_seed: u64,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            marking: MarkingConfig::paper_best(),
            typing: TypingStrategy::default(),
            clustering_error: 0.0,
            error_seed: 0xE44,
        }
    }
}

impl PipelineConfig {
    /// The paper's recommended configuration: `Loop[45]` marking with
    /// profile-guided typing.
    pub fn paper_best() -> Self {
        Self::default()
    }

    /// A configuration with a different marking technique, everything else
    /// as in [`PipelineConfig::paper_best`].
    pub fn with_marking(marking: MarkingConfig) -> Self {
        Self {
            marking,
            ..Self::default()
        }
    }
}

/// The minimum block size the typing stage considers under a configuration.
///
/// For the basic-block technique blocks below the marking's minimum size are
/// not typed (they can never carry marks); the interval and loop techniques
/// type every block of meaningful size so the section summaries are as
/// informed as possible and apply the size threshold at the section level
/// instead.
pub fn min_typed_block_size(config: &PipelineConfig) -> usize {
    match config.marking.granularity {
        Granularity::BasicBlock => config.marking.min_section_size,
        Granularity::Interval | Granularity::Loop => 4,
    }
}

/// One row of the per-block IPC profile: the block's estimated IPC on the
/// machine's fastest and slowest core kinds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IpcProfileRow {
    /// The profiled block.
    pub location: Location,
    /// Estimated IPC on the fastest kind.
    pub fast_ipc: f64,
    /// Estimated IPC on the slowest kind.
    pub slow_ipc: f64,
}

/// Stage 2 artifact — the per-block IPC profile of one program on one
/// machine, mirroring the execution-profile seeding of Section IV-A1. The
/// profile depends only on the machine's cost model and the size floor, so
/// every typing threshold and marking variant reuses one profiling pass.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IpcProfileArtifact {
    /// Blocks below this instruction count were skipped.
    pub min_block_size: usize,
    /// Per-block rows, in program iteration order.
    pub rows: Vec<IpcProfileRow>,
}

/// Stage 2 — per-block IPC profiling: estimate each block's IPC on the
/// fastest and slowest core kinds with the machine cost model.
pub fn profile_stage(
    program: &Program,
    machine: &MachineSpec,
    min_block_size: usize,
) -> IpcProfileArtifact {
    let model = CostModel::new(machine.clone());
    let fast_core = machine.cores_of_kind(machine.fastest_kind())[0];
    let slow_core = machine.cores_of_kind(machine.slowest_kind())[0];
    let rows = program
        .iter_blocks()
        .filter(|(_, block)| block.instruction_count() >= min_block_size)
        .map(|(location, block)| {
            let fast = model.block_cost(fast_core, block, SharingContext::exclusive());
            let slow = model.block_cost(slow_core, block, SharingContext::exclusive());
            IpcProfileRow {
                location,
                fast_ipc: fast.ipc(),
                slow_ipc: slow.ipc(),
            }
        })
        .collect();
    IpcProfileArtifact {
        min_block_size,
        rows,
    }
}

/// Stage 3 — block typing under the configured strategy, with the
/// clustering-error injection of Figure 7 applied on top.
///
/// Profile-guided typing consumes the stage 2 artifact; pass `None` to let
/// the stage compute (and discard) the profile itself, or for the k-means
/// strategy which does not use it.
pub fn typing_stage(
    program: &Program,
    machine: &MachineSpec,
    config: &PipelineConfig,
    profiles: Option<&IpcProfileArtifact>,
) -> BlockTyping {
    let min_block_size = min_typed_block_size(config);
    let typing = match config.typing {
        TypingStrategy::StaticKMeans { seed } => assign_block_types(
            program,
            &StaticTypingConfig {
                min_block_size,
                num_types: machine.kind_count().max(2),
                seed,
                max_iterations: 100,
            },
        ),
        TypingStrategy::ProfileGuided { ipc_threshold } => {
            let owned;
            let profile = match profiles {
                Some(existing) => existing,
                None => {
                    owned = profile_stage(program, machine, min_block_size);
                    &owned
                }
            };
            typing_from_ipc_profiles(
                profile
                    .rows
                    .iter()
                    .map(|row| (row.location, row.fast_ipc, row.slow_ipc)),
                ipc_threshold,
            )
        }
    };
    if config.clustering_error > 0.0 {
        typing.with_injected_error(config.clustering_error, config.error_seed)
    } else {
        typing
    }
}

/// Stage 4 — section summarization: build the region maps (sections at the
/// marking granularity, each with a dominant phase type) for every procedure.
pub fn regions_stage(
    program: &Program,
    typing: &BlockTyping,
    marking: &MarkingConfig,
) -> ProgramRegions {
    program
        .procedures()
        .iter()
        .map(|proc| (proc.id(), RegionMap::build(proc, typing, marking)))
        .collect()
}

/// Stage 5 — instrumentation: find phase transitions between sections and
/// attach one phase mark per transition edge.
pub fn instrument_stage(
    program: &Program,
    regions: &ProgramRegions,
    marking: &MarkingConfig,
) -> InstrumentedProgram {
    instrument_with_regions(program, regions, marking)
}

/// Computes the block typing of a program under the given strategy (stages 2
/// and 3 chained without a store).
pub fn type_blocks(
    program: &Program,
    machine: &MachineSpec,
    config: &PipelineConfig,
) -> BlockTyping {
    typing_stage(program, machine, config, None)
}

/// Runs the full static pipeline — profiling, typing, summarization,
/// instrumentation — without consulting an artifact store.
pub fn prepare_program(
    program: &Program,
    machine: &MachineSpec,
    config: &PipelineConfig,
) -> InstrumentedProgram {
    let typing = type_blocks(program, machine, config);
    let regions = regions_stage(program, &typing, &config.marking);
    instrument_stage(program, &regions, &config.marking)
}

/// Produces an uninstrumented twin of a program (zero phase marks), used for
/// the stock-Linux baseline runs.
pub fn uninstrumented(program: &Program) -> InstrumentedProgram {
    let typing = BlockTyping::new(0);
    let marking = MarkingConfig::paper_best();
    let regions = regions_stage(program, &typing, &marking);
    instrument_stage(program, &regions, &marking)
}

#[cfg(test)]
mod tests {
    use super::*;
    use phase_analysis::PhaseType;
    use phase_ir::{AccessPattern, Instruction, MemRef, ProgramBuilder, Terminator};

    /// A program alternating a CPU-heavy and a memory-heavy block inside a
    /// loop.
    fn two_phase_program() -> Program {
        let mut builder = ProgramBuilder::new("two-phase");
        let main = builder.declare_procedure("main");
        let mut body = builder.procedure_builder();
        let cpu = body.add_block();
        let mem = body.add_block();
        let latch = body.add_block();
        let exit = body.add_block();
        body.push_all(cpu, std::iter::repeat_n(Instruction::fp_mul(), 50));
        // A realistically memory-bound block: streaming loads over a large
        // array interleaved with a little arithmetic.
        let streaming = MemRef::new(
            AccessPattern::Strided { stride_bytes: 8 },
            128 * 1024 * 1024,
        );
        body.push_all(
            mem,
            (0..50).map(|i| {
                if i % 2 == 0 {
                    Instruction::load(streaming)
                } else {
                    Instruction::fp_add()
                }
            }),
        );
        body.push_all(latch, std::iter::repeat_n(Instruction::int_alu(), 50));
        body.terminate(cpu, Terminator::Jump(mem));
        body.terminate(mem, Terminator::Jump(latch));
        body.loop_branch(latch, cpu, exit, 10);
        body.terminate(exit, Terminator::Exit);
        builder.define_procedure(main, body).unwrap();
        builder.build().unwrap()
    }

    fn machine() -> MachineSpec {
        MachineSpec::core2_quad_amp()
    }

    #[test]
    fn profile_guided_typing_separates_cpu_and_memory_blocks() {
        let program = two_phase_program();
        let config = PipelineConfig {
            marking: MarkingConfig::basic_block(15, 0),
            typing: TypingStrategy::ProfileGuided {
                ipc_threshold: 0.04,
            },
            ..Default::default()
        };
        let typing = type_blocks(&program, &machine(), &config);
        let cpu = typing.type_of(phase_ir::Location::new(
            phase_ir::ProcId(0),
            phase_ir::BlockId(0),
        ));
        let mem = typing.type_of(phase_ir::Location::new(
            phase_ir::ProcId(0),
            phase_ir::BlockId(1),
        ));
        assert_eq!(cpu, Some(PhaseType(0)), "CPU block prefers fast cores");
        assert_eq!(mem, Some(PhaseType(1)), "memory block tolerates slow cores");
    }

    #[test]
    fn static_kmeans_strategy_also_separates_them() {
        let program = two_phase_program();
        let config = PipelineConfig {
            marking: MarkingConfig::basic_block(15, 0),
            typing: TypingStrategy::StaticKMeans { seed: 11 },
            ..Default::default()
        };
        let typing = type_blocks(&program, &machine(), &config);
        let loc = |b: u32| phase_ir::Location::new(phase_ir::ProcId(0), phase_ir::BlockId(b));
        assert_ne!(typing.type_of(loc(0)), typing.type_of(loc(1)));
    }

    #[test]
    fn prepare_program_produces_marks_for_two_phase_code() {
        let program = two_phase_program();
        let instrumented = prepare_program(
            &program,
            &machine(),
            &PipelineConfig::with_marking(MarkingConfig::basic_block(15, 0)),
        );
        assert!(instrumented.mark_count() >= 2);
        assert!(instrumented.stats().space_overhead > 0.0);
    }

    #[test]
    fn clustering_error_changes_the_typing() {
        let program = two_phase_program();
        let clean = PipelineConfig::with_marking(MarkingConfig::basic_block(15, 0));
        let noisy = PipelineConfig {
            clustering_error: 1.0,
            ..clean
        };
        let clean_typing = type_blocks(&program, &machine(), &clean);
        let noisy_typing = type_blocks(&program, &machine(), &noisy);
        assert_eq!(clean_typing.agreement_with(&noisy_typing), 0.0);
    }

    #[test]
    fn uninstrumented_twin_has_no_marks() {
        let program = two_phase_program();
        let baseline = uninstrumented(&program);
        assert_eq!(baseline.mark_count(), 0);
        assert_eq!(baseline.stats().space_overhead, 0.0);
        assert_eq!(baseline.program().name(), "two-phase");
    }

    #[test]
    fn loop_marking_places_fewer_marks_than_basic_block_marking() {
        let program = two_phase_program();
        let machine = machine();
        let bb = prepare_program(
            &program,
            &machine,
            &PipelineConfig::with_marking(MarkingConfig::basic_block(10, 0)),
        );
        let lp = prepare_program(
            &program,
            &machine,
            &PipelineConfig::with_marking(MarkingConfig::loop_level(10)),
        );
        assert!(lp.mark_count() <= bb.mark_count());
    }
}
