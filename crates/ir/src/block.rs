//! Basic blocks and their terminators.
//!
//! The paper uses "the classic definition of a basic block that it is a
//! section of code that has one entry point and one exit point with no jumps
//! in between" (Section II-A1). Control transfers appear only as the block's
//! [`Terminator`].

use serde::{Deserialize, Serialize};

use crate::instr::{InstrClass, Instruction, MemRef};
use crate::mix::InstrMix;
use crate::proc::ProcId;

/// Identifier of a basic block, unique within its procedure.
///
/// Block ids double as indices into [`crate::Procedure::blocks`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize,
)]
pub struct BlockId(pub u32);

impl BlockId {
    /// The block id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for BlockId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// A program location: a block within a procedure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Location {
    /// The procedure containing the block.
    pub proc: ProcId,
    /// The block within the procedure.
    pub block: BlockId,
}

impl Location {
    /// Creates a location from its parts.
    pub fn new(proc: ProcId, block: BlockId) -> Self {
        Self { proc, block }
    }
}

impl std::fmt::Display for Location {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.proc, self.block)
    }
}

/// Run-time behaviour attached to a conditional branch.
///
/// The static analyses ignore this information entirely (they only see the
/// CFG shape); it exists so the interpreter in the scheduler substrate can
/// replay a deterministic, realistic instruction stream.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum BranchBehavior {
    /// The branch behaves like a counted loop back-edge: the *taken* edge is
    /// followed `trip_count` times, then the fall-through edge once, after
    /// which the counter resets (so re-entering the loop iterates again).
    Counted {
        /// Number of taken iterations per entry to the loop.
        trip_count: u32,
    },
    /// The taken edge is followed with the given probability, independently
    /// at every execution.
    Probabilistic {
        /// Probability in `[0, 1]` of following the taken edge.
        taken_probability: f64,
    },
}

impl BranchBehavior {
    /// A loop back-edge executed `trip_count` times per entry.
    pub fn counted(trip_count: u32) -> Self {
        BranchBehavior::Counted { trip_count }
    }

    /// A data-dependent branch taken with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `[0, 1]` or is not finite.
    pub fn probabilistic(p: f64) -> Self {
        assert!(
            p.is_finite() && (0.0..=1.0).contains(&p),
            "probability {p} out of range"
        );
        BranchBehavior::Probabilistic {
            taken_probability: p,
        }
    }
}

/// The single control transfer ending a basic block.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Terminator {
    /// Unconditional jump to another block in the same procedure.
    Jump(BlockId),
    /// Two-way conditional branch within the same procedure.
    Branch {
        /// Target when the condition holds.
        taken: BlockId,
        /// Target when the condition does not hold.
        fallthrough: BlockId,
        /// Runtime behaviour of the condition.
        behavior: BranchBehavior,
    },
    /// Call to another procedure; control returns to `return_to` in the
    /// current procedure afterwards.
    Call {
        /// The callee procedure.
        callee: ProcId,
        /// Block executed after the callee returns.
        return_to: BlockId,
    },
    /// Return from the current procedure.
    Return,
    /// Terminate the program (only meaningful in the entry procedure).
    Exit,
}

impl Terminator {
    /// Intra-procedural successor blocks of this terminator, in a fixed order.
    pub fn successors(&self) -> Vec<BlockId> {
        match *self {
            Terminator::Jump(t) => vec![t],
            Terminator::Branch {
                taken, fallthrough, ..
            } => vec![taken, fallthrough],
            Terminator::Call { return_to, .. } => vec![return_to],
            Terminator::Return | Terminator::Exit => vec![],
        }
    }

    /// The callee, if this terminator is a call.
    pub fn callee(&self) -> Option<ProcId> {
        match *self {
            Terminator::Call { callee, .. } => Some(callee),
            _ => None,
        }
    }

    /// Encoded size in bytes of the control-transfer instruction itself.
    pub fn encoded_size(&self) -> u32 {
        match self {
            Terminator::Jump(_) => InstrClass::Jump.encoded_size(),
            Terminator::Branch { .. } => InstrClass::Branch.encoded_size(),
            Terminator::Call { .. } => InstrClass::Call.encoded_size(),
            Terminator::Return => InstrClass::Return.encoded_size(),
            Terminator::Exit => InstrClass::Syscall.encoded_size(),
        }
    }
}

impl std::fmt::Display for Terminator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Terminator::Jump(t) => write!(f, "jmp {t}"),
            Terminator::Branch {
                taken,
                fallthrough,
                behavior,
            } => match behavior {
                BranchBehavior::Counted { trip_count } => {
                    write!(f, "br.loop[{trip_count}] {taken}, {fallthrough}")
                }
                BranchBehavior::Probabilistic { taken_probability } => {
                    write!(f, "br[p={taken_probability:.2}] {taken}, {fallthrough}")
                }
            },
            Terminator::Call { callee, return_to } => write!(f, "call {callee} -> {return_to}"),
            Terminator::Return => write!(f, "ret"),
            Terminator::Exit => write!(f, "exit"),
        }
    }
}

/// A straight-line section of code with one entry and one exit.
///
/// # Examples
///
/// ```
/// use phase_ir::{BasicBlock, BlockId, Instruction, Terminator};
///
/// let block = BasicBlock::new(
///     BlockId(0),
///     vec![Instruction::int_alu(), Instruction::fp_add()],
///     Terminator::Return,
/// );
/// // Two body instructions plus the terminator.
/// assert_eq!(block.instruction_count(), 3);
/// assert!(block.size_bytes() > 0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BasicBlock {
    id: BlockId,
    instructions: Vec<Instruction>,
    terminator: Terminator,
}

impl BasicBlock {
    /// Creates a basic block from its parts.
    pub fn new(id: BlockId, instructions: Vec<Instruction>, terminator: Terminator) -> Self {
        Self {
            id,
            instructions,
            terminator,
        }
    }

    /// The block's identifier.
    pub fn id(&self) -> BlockId {
        self.id
    }

    /// The straight-line instructions of the block (excluding the terminator).
    pub fn instructions(&self) -> &[Instruction] {
        &self.instructions
    }

    /// The block's own instruction vector, for builders that grow it in
    /// place.
    pub(crate) fn instructions_mut(&mut self) -> &mut Vec<Instruction> {
        &mut self.instructions
    }

    /// The control transfer ending the block.
    pub fn terminator(&self) -> &Terminator {
        &self.terminator
    }

    /// Replaces the terminator, returning the previous one.
    pub fn set_terminator(&mut self, terminator: Terminator) -> Terminator {
        std::mem::replace(&mut self.terminator, terminator)
    }

    /// Number of instructions in the block, counting the terminator.
    ///
    /// The paper's minimum-block-size threshold (e.g. `BB[15]`) counts
    /// instructions, so the terminator is included.
    pub fn instruction_count(&self) -> usize {
        self.instructions.len() + 1
    }

    /// Encoded size of the block in bytes, counting the terminator.
    pub fn size_bytes(&self) -> u32 {
        self.instructions
            .iter()
            .map(Instruction::encoded_size)
            .sum::<u32>()
            + self.terminator.encoded_size()
    }

    /// The instruction-class mix of the block.
    pub fn mix(&self) -> InstrMix {
        let mut mix = InstrMix::default();
        for instr in &self.instructions {
            mix.add(instr.class(), 1);
        }
        match self.terminator {
            Terminator::Jump(_) => mix.add(InstrClass::Jump, 1),
            Terminator::Branch { .. } => mix.add(InstrClass::Branch, 1),
            Terminator::Call { .. } => mix.add(InstrClass::Call, 1),
            Terminator::Return => mix.add(InstrClass::Return, 1),
            Terminator::Exit => mix.add(InstrClass::Syscall, 1),
        }
        mix
    }

    /// Iterator over the memory references made by the block.
    pub fn mem_refs(&self) -> impl Iterator<Item = &MemRef> {
        self.instructions.iter().filter_map(Instruction::mem_ref)
    }

    /// Number of memory accesses per execution of the block.
    pub fn memory_access_count(&self) -> usize {
        self.mem_refs().count()
    }

    /// Intra-procedural successors of the block.
    pub fn successors(&self) -> Vec<BlockId> {
        self.terminator.successors()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::AccessPattern;

    fn sample_block() -> BasicBlock {
        BasicBlock::new(
            BlockId(3),
            vec![
                Instruction::int_alu(),
                Instruction::load(MemRef::new(AccessPattern::Sequential, 4096)),
                Instruction::fp_mul(),
            ],
            Terminator::Branch {
                taken: BlockId(1),
                fallthrough: BlockId(2),
                behavior: BranchBehavior::counted(8),
            },
        )
    }

    #[test]
    fn instruction_count_includes_terminator() {
        assert_eq!(sample_block().instruction_count(), 4);
    }

    #[test]
    fn size_is_sum_of_encodings() {
        let block = sample_block();
        let expected = 3 + 4 + 5 + 2;
        assert_eq!(block.size_bytes(), expected);
    }

    #[test]
    fn mix_counts_terminator_class() {
        let mix = sample_block().mix();
        assert_eq!(mix.count(InstrClass::Branch), 1);
        assert_eq!(mix.count(InstrClass::Load), 1);
        assert_eq!(mix.total(), 4);
    }

    #[test]
    fn successors_follow_terminator_kind() {
        assert_eq!(sample_block().successors(), vec![BlockId(1), BlockId(2)]);
        let ret = BasicBlock::new(BlockId(0), vec![], Terminator::Return);
        assert!(ret.successors().is_empty());
        let call = BasicBlock::new(
            BlockId(0),
            vec![],
            Terminator::Call {
                callee: ProcId(2),
                return_to: BlockId(5),
            },
        );
        assert_eq!(call.successors(), vec![BlockId(5)]);
        assert_eq!(call.terminator().callee(), Some(ProcId(2)));
    }

    #[test]
    fn memory_access_count_sees_only_loads_and_stores() {
        assert_eq!(sample_block().memory_access_count(), 1);
    }

    #[test]
    fn set_terminator_returns_previous() {
        let mut block = sample_block();
        let old = block.set_terminator(Terminator::Return);
        assert!(matches!(old, Terminator::Branch { .. }));
        assert_eq!(*block.terminator(), Terminator::Return);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn probabilistic_branch_validates_probability() {
        let _ = BranchBehavior::probabilistic(1.5);
    }

    #[test]
    fn display_is_nonempty() {
        let block = sample_block();
        assert!(!format!("{}", block.terminator()).is_empty());
        assert_eq!(format!("{}", block.id()), "bb3");
        assert_eq!(
            format!("{}", Location::new(ProcId(1), BlockId(2))),
            "p1:bb2"
        );
    }
}
