//! Program identity: the generator's output is pinned byte for byte, and the
//! artifact store's structural program fingerprint separates every field of
//! the IR that a pipeline stage can observe.

use std::sync::Arc;

use proptest::collection::vec;
use proptest::prelude::*;

use phase_core::substrate::ir::{
    AccessPattern, BasicBlock, BlockId, BranchBehavior, InstrClass, Instruction, MemRef, ProcId,
    Procedure, Program, ProgramBuilder, Terminator,
};
use phase_core::substrate::workload::CatalogSpec;
use phase_core::{uninstrumented, ArtifactStore, StableHasher, StoreFootprint};

/// A digest of every program listing in the catalogue, in catalogue order.
fn listing_digest(spec: &CatalogSpec) -> String {
    let mut hasher = StableHasher::new();
    for bench in spec.build().benchmarks() {
        hasher.write_str(&bench.program().to_listing());
    }
    hasher.finish().to_string()
}

/// A catalogue family's `(scale, seed)` constructor.
type Family = fn(f64, u64) -> CatalogSpec;

/// The generated programs of every catalogue family, pinned to digests
/// recorded before the IR builder switched to in-place block construction.
/// A change here means the generator (or the builder) no longer produces
/// the same programs, which silently invalidates every golden downstream.
#[test]
fn generated_programs_are_pinned_per_catalogue_family() {
    let pinned: [(Family, &str); 5] = [
        (CatalogSpec::standard, "80e52c8595453a09db93403f619b796b"),
        (CatalogSpec::mixed, "60c2c654832e7256b314e8a2836f58e4"),
        (CatalogSpec::drifting, "ce6c2e5d1a6708a0bff9adb95bd631b6"),
        (CatalogSpec::service, "8f603c6fdbcbfd62045dec5bbf1b616c"),
        (CatalogSpec::extended, "04a56c20dcf39f42ecbd3214073942cb"),
    ];
    let specs = pinned.map(|(family, _)| family(0.05, 7));
    let expected: Vec<(&str, String)> = specs
        .iter()
        .zip(pinned)
        .map(|(spec, (_, digest))| (spec.kind.name(), digest.to_string()))
        .collect();
    let actual: Vec<(&str, String)> = specs
        .iter()
        .map(|spec| (spec.kind.name(), listing_digest(spec)))
        .collect();
    assert_eq!(actual, expected, "generated program listings moved");
}

/// Raw picks for one block: one pick per body instruction, one for the
/// terminator.
type RawBlock = (Vec<u64>, u64);

/// Raw picks for a program: at least one procedure of at least three blocks.
fn raw_program() -> impl Strategy<Value = Vec<Vec<RawBlock>>> {
    vec(vec((vec(any::<u64>(), 0..6), any::<u64>()), 3..7), 1..4)
}

fn pattern(pick: u64) -> AccessPattern {
    match pick % 4 {
        0 => AccessPattern::Sequential,
        1 => AccessPattern::Strided {
            stride_bytes: 8 << ((pick >> 2) % 4),
        },
        2 => AccessPattern::Random,
        _ => AccessPattern::PointerChase,
    }
}

fn instruction(pick: u64) -> Instruction {
    let mem = MemRef::new(pattern(pick >> 4), 64 << ((pick >> 8) % 20));
    match pick % 6 {
        0 => Instruction::load(mem),
        1 => Instruction::store(mem),
        2 => Instruction::int_alu(),
        3 => Instruction::fp_add(),
        4 => Instruction::fp_mul(),
        _ => Instruction::new(InstrClass::IntDiv),
    }
}

fn terminator(pick: u64, blocks: usize, procs: usize) -> Terminator {
    let target = BlockId(((pick >> 8) % blocks as u64) as u32);
    let other = BlockId(((pick >> 16) % blocks as u64) as u32);
    match pick % 6 {
        0 => Terminator::Jump(target),
        1 => Terminator::Branch {
            taken: target,
            fallthrough: other,
            behavior: BranchBehavior::counted(1 + (pick >> 24) as u32 % 100),
        },
        2 => Terminator::Branch {
            taken: target,
            fallthrough: other,
            behavior: BranchBehavior::probabilistic(((pick >> 24) % 1001) as f64 / 1000.0),
        },
        3 => Terminator::Call {
            callee: ProcId(((pick >> 24) % procs as u64) as u32),
            return_to: target,
        },
        4 => Terminator::Return,
        _ => Terminator::Exit,
    }
}

/// Builds a valid program from raw picks. Procedure 0 always carries one
/// of every mutable field: its block 0 ends in a strided load and a counted
/// branch, its block 1 in a probabilistic branch, so the two differ.
fn build(raw: &[Vec<RawBlock>]) -> Program {
    let mut program = ProgramBuilder::new("fp");
    let ids: Vec<ProcId> = (0..raw.len())
        .map(|i| program.declare_procedure(format!("proc_{i}")))
        .collect();
    for (p, (&id, blocks)) in ids.iter().zip(raw).enumerate() {
        let mut body = program.procedure_builder();
        let block_ids: Vec<BlockId> = blocks.iter().map(|_| body.add_block()).collect();
        for (&b, (instrs, term)) in block_ids.iter().zip(blocks) {
            body.push_all(b, instrs.iter().map(|&pick| instruction(pick)));
            body.terminate(b, terminator(*term, blocks.len(), raw.len()));
        }
        if p == 0 {
            let stride = AccessPattern::Strided {
                stride_bytes: 4 + (blocks[0].1 % 60) as u32,
            };
            body.push(block_ids[0], Instruction::load(MemRef::new(stride, 4096)));
            body.loop_branch(block_ids[0], block_ids[1], block_ids[2], 7);
            body.terminate(
                block_ids[1],
                Terminator::Branch {
                    taken: block_ids[0],
                    fallthrough: block_ids[2],
                    behavior: BranchBehavior::probabilistic(0.3),
                },
            );
        }
        program.define_procedure(id, body).expect("valid body");
    }
    program.build().expect("valid program")
}

/// The fields a mutation can change, one per case.
#[derive(Debug, Clone, Copy)]
enum Field {
    InstrClass,
    MemPattern,
    Stride,
    Region,
    Target,
    TripCount,
    Probability,
    ProcName,
    BlockOrder,
}

const FIELDS: [Field; 9] = [
    Field::InstrClass,
    Field::MemPattern,
    Field::Stride,
    Field::Region,
    Field::Target,
    Field::TripCount,
    Field::Probability,
    Field::ProcName,
    Field::BlockOrder,
];

/// Every (procedure, block) of the program whose block satisfies `keep`.
fn sites(program: &Program, keep: impl Fn(&BasicBlock) -> bool) -> Vec<(ProcId, BlockId)> {
    program
        .procedures()
        .iter()
        .flat_map(|proc| {
            proc.blocks()
                .iter()
                .filter(|block| keep(block))
                .map(move |block| (proc.id(), block.id()))
        })
        .collect()
}

/// Replaces one block of `program` with `f` applied to its parts.
fn rewrite_block(
    program: &mut Program,
    (proc, block): (ProcId, BlockId),
    f: impl FnOnce(&mut Vec<Instruction>, &mut Terminator),
) {
    let slot = program
        .procedure_mut(proc)
        .and_then(|p| p.block_mut(block))
        .expect("site exists");
    let mut instrs = slot.instructions().to_vec();
    let mut term = *slot.terminator();
    f(&mut instrs, &mut term);
    *slot = BasicBlock::new(block, instrs, term);
}

/// Rewrites the first instruction of the picked site matching `keep`.
fn rewrite_instruction(
    program: &mut Program,
    pick: u64,
    keep: impl Fn(&Instruction) -> bool + Copy,
    f: impl FnOnce(&Instruction) -> Instruction,
) {
    let candidates = sites(program, |b| b.instructions().iter().any(keep));
    let site = candidates[pick as usize % candidates.len()];
    rewrite_block(program, site, |instrs, _| {
        let slot = instrs
            .iter_mut()
            .find(|i| keep(i))
            .expect("matching instruction");
        *slot = f(slot);
    });
}

fn with_mem(instr: &Instruction, f: impl FnOnce(MemRef) -> MemRef) -> Instruction {
    Instruction::memory(
        instr.class(),
        f(*instr.mem_ref().expect("memory instruction")),
    )
}

/// `program` with exactly one field changed.
fn mutate(program: &Program, field: Field, pick: u64) -> Program {
    let mut out = program.clone();
    let is_mem = |i: &Instruction| i.mem_ref().is_some();
    let is_strided = |i: &Instruction| {
        i.mem_ref()
            .is_some_and(|m| matches!(m.pattern, AccessPattern::Strided { .. }))
    };
    match field {
        Field::InstrClass => rewrite_instruction(
            &mut out,
            pick,
            |_| true,
            |i| match (i.class(), i.mem_ref()) {
                (InstrClass::Load, Some(m)) => Instruction::store(*m),
                (_, Some(m)) => Instruction::load(*m),
                (InstrClass::IntAlu, None) => Instruction::new(InstrClass::IntMul),
                (_, None) => Instruction::int_alu(),
            },
        ),
        Field::MemPattern => rewrite_instruction(&mut out, pick, is_mem, |i| {
            with_mem(i, |m| {
                let next = match m.pattern {
                    AccessPattern::Random => AccessPattern::PointerChase,
                    _ => AccessPattern::Random,
                };
                MemRef::new(next, m.region_bytes)
            })
        }),
        Field::Stride => rewrite_instruction(&mut out, pick, is_strided, |i| {
            with_mem(i, |m| match m.pattern {
                AccessPattern::Strided { stride_bytes } => MemRef::new(
                    AccessPattern::Strided {
                        stride_bytes: stride_bytes + 1,
                    },
                    m.region_bytes,
                ),
                _ => unreachable!("filtered to strided accesses"),
            })
        }),
        Field::Region => rewrite_instruction(&mut out, pick, is_mem, |i| {
            with_mem(i, |m| MemRef::new(m.pattern, m.region_bytes + 1))
        }),
        Field::Target => {
            let candidates = sites(program, |b| !b.successors().is_empty());
            let site = candidates[pick as usize % candidates.len()];
            let blocks = program.procedure_expect(site.0).block_count() as u32;
            let bump = |b: &mut BlockId| b.0 = (b.0 + 1) % blocks;
            rewrite_block(&mut out, site, |_, term| match term {
                Terminator::Jump(t) => bump(t),
                Terminator::Branch { taken, .. } => bump(taken),
                Terminator::Call { return_to, .. } => bump(return_to),
                Terminator::Return | Terminator::Exit => unreachable!("filtered to edges"),
            });
        }
        Field::TripCount | Field::Probability => {
            let counted = matches!(field, Field::TripCount);
            let candidates = sites(program, |b| match b.terminator() {
                Terminator::Branch { behavior, .. } => {
                    counted == matches!(behavior, BranchBehavior::Counted { .. })
                }
                _ => false,
            });
            let site = candidates[pick as usize % candidates.len()];
            rewrite_block(&mut out, site, |_, term| {
                if let Terminator::Branch { behavior, .. } = term {
                    *behavior = match *behavior {
                        BranchBehavior::Counted { trip_count } => {
                            BranchBehavior::counted(trip_count + 1)
                        }
                        // A step below the two decimals a listing prints.
                        BranchBehavior::Probabilistic {
                            taken_probability: p,
                        } => BranchBehavior::probabilistic(if p < 0.5 {
                            p + 0.001
                        } else {
                            p - 0.001
                        }),
                    };
                }
            });
        }
        Field::ProcName => {
            let id = ProcId((pick % program.procedures().len() as u64) as u32);
            let proc = program.procedure_expect(id);
            let renamed = Procedure::new(
                id,
                format!("{}_renamed", proc.name()),
                proc.entry(),
                proc.blocks().to_vec(),
            )
            .expect("same body");
            *out.procedure_mut(id).expect("declared") = renamed;
        }
        Field::BlockOrder => {
            // Exchange the bodies of two blocks that always differ (see
            // `build`); ids stay positional.
            let proc = program.procedure_expect(ProcId(0));
            let (a, b) = (BlockId(0), BlockId(1));
            let (body_a, body_b) = (proc.block_expect(a).clone(), proc.block_expect(b).clone());
            rewrite_block(&mut out, (ProcId(0), a), |instrs, term| {
                *instrs = body_b.instructions().to_vec();
                *term = *body_b.terminator();
            });
            rewrite_block(&mut out, (ProcId(0), b), |instrs, term| {
                *instrs = body_a.instructions().to_vec();
                *term = *body_a.terminator();
            });
        }
    }
    assert_ne!(&out, program, "{field:?} mutation changed nothing");
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Each case changes one field of a random program; the fingerprint must
    /// move, while a separately built copy must keep it.
    #[test]
    fn every_single_field_mutation_moves_the_fingerprint(
        raw in raw_program(),
        field in 0usize..FIELDS.len(),
        pick in any::<u64>(),
    ) {
        let store = ArtifactStore::new();
        let program = build(&raw);
        let base = store.program_fingerprint(&Arc::new(program.clone()));
        prop_assert_eq!(store.program_fingerprint(&Arc::new(build(&raw))), base);
        let mutated = mutate(&program, FIELDS[field], pick);
        prop_assert_ne!(
            store.program_fingerprint(&Arc::new(mutated)),
            base,
            "{:?} mutation kept the fingerprint",
            FIELDS[field]
        );
    }
}

/// The fingerprint memos hold no strong reference: fingerprinting leaves
/// every reference count as it was, and once a bounded store evicts a
/// catalogue whose last caller has let go, its programs are freed.
#[test]
fn fingerprint_memos_do_not_pin_programs() {
    let one = CatalogSpec::standard(0.02, 1).build().footprint_bytes();
    let store = ArtifactStore::with_budget(one * 3 / 2);
    let catalog = store.catalog(&CatalogSpec::standard(0.02, 1));
    let program = catalog.benchmarks()[0].program();
    let instrumented = Arc::new(uninstrumented(program));

    let before = Arc::strong_count(program);
    store.program_fingerprint(program);
    assert_eq!(Arc::strong_count(program), before);
    let before = Arc::strong_count(&instrumented);
    let inner_before = Arc::strong_count(instrumented.program());
    store.instrumented_fingerprint(&instrumented);
    assert_eq!(Arc::strong_count(&instrumented), before);
    assert_eq!(Arc::strong_count(instrumented.program()), inner_before);

    let program_weak = Arc::downgrade(program);
    let instrumented_weak = Arc::downgrade(&instrumented);
    drop(instrumented);
    drop(catalog);
    for seed in 2..5 {
        store.catalog(&CatalogSpec::standard(0.02, seed));
    }
    let evictions = store.snapshot().stage("catalogs").expect("stage").evictions;
    assert!(evictions >= 1, "the first catalogue was never evicted");
    assert!(
        program_weak.upgrade().is_none(),
        "an evicted program is still alive"
    );
    assert!(instrumented_weak.upgrade().is_none());
}
