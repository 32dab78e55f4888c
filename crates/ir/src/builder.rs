//! Fluent builders for procedures and programs.
//!
//! Builders let the workload generator and the test suites assemble programs
//! without having to keep block/procedure numbering straight by hand.

use crate::block::{BasicBlock, BlockId, BranchBehavior, Terminator};
use crate::error::IrError;
use crate::instr::Instruction;
use crate::proc::{ProcId, Procedure};
use crate::program::Program;

/// Incrementally builds the blocks of one procedure.
///
/// Blocks default to an empty body with a [`Terminator::Return`]; set the real
/// terminator with [`ProcedureBuilder::terminate`]. The first block added is
/// the entry block unless [`ProcedureBuilder::set_entry`] is called.
///
/// # Examples
///
/// ```
/// use phase_ir::{Instruction, ProgramBuilder, Terminator};
///
/// let mut program = ProgramBuilder::new("example");
/// let main = program.declare_procedure("main");
/// let mut body = program.procedure_builder();
/// let head = body.add_block();
/// let tail = body.add_block();
/// body.push(head, Instruction::int_alu());
/// body.terminate(head, Terminator::Jump(tail));
/// body.terminate(tail, Terminator::Exit);
/// program.define_procedure(main, body)?;
/// let built = program.build()?;
/// assert_eq!(built.procedure_expect(main).block_count(), 2);
/// # Ok::<(), phase_ir::IrError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct ProcedureBuilder {
    blocks: Vec<BasicBlock>,
    entry: Option<BlockId>,
}

impl ProcedureBuilder {
    /// Creates an empty procedure builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an empty block and returns its id.
    pub fn add_block(&mut self) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks
            .push(BasicBlock::new(id, Vec::new(), Terminator::Return));
        if self.entry.is_none() {
            self.entry = Some(id);
        }
        id
    }

    /// Appends one instruction to a block.
    ///
    /// # Panics
    ///
    /// Panics if `block` was not produced by this builder.
    pub fn push(&mut self, block: BlockId, instr: Instruction) {
        self.block_mut(block).instructions_mut().push(instr);
    }

    /// Appends several instructions to a block.
    ///
    /// # Panics
    ///
    /// Panics if `block` was not produced by this builder.
    pub fn push_all(&mut self, block: BlockId, instrs: impl IntoIterator<Item = Instruction>) {
        self.block_mut(block).instructions_mut().extend(instrs);
    }

    /// Sets the terminator of a block.
    ///
    /// # Panics
    ///
    /// Panics if `block` was not produced by this builder.
    pub fn terminate(&mut self, block: BlockId, terminator: Terminator) {
        self.block_mut(block).set_terminator(terminator);
    }

    /// Convenience: terminate `block` with a counted loop branch.
    ///
    /// # Panics
    ///
    /// Panics if `block` was not produced by this builder.
    pub fn loop_branch(&mut self, block: BlockId, header: BlockId, exit: BlockId, trips: u32) {
        self.terminate(
            block,
            Terminator::Branch {
                taken: header,
                fallthrough: exit,
                behavior: BranchBehavior::counted(trips),
            },
        );
    }

    /// Overrides the entry block (defaults to the first block added).
    pub fn set_entry(&mut self, block: BlockId) {
        self.entry = Some(block);
    }

    /// Number of blocks added so far.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    fn block_mut(&mut self, block: BlockId) -> &mut BasicBlock {
        self.blocks
            .get_mut(block.index())
            .unwrap_or_else(|| panic!("block {block} was not created by this builder"))
    }

    /// Finishes the procedure under the given id and name.
    ///
    /// # Errors
    ///
    /// Returns an error if no blocks were added or an edge dangles.
    pub fn finish(self, id: ProcId, name: impl Into<String>) -> Result<Procedure, IrError> {
        let entry = self.entry.ok_or(IrError::EmptyProcedure { proc: id })?;
        Procedure::new(id, name, entry, self.blocks)
    }
}

/// Incrementally builds a whole program.
///
/// Procedures are first *declared* (which fixes their [`ProcId`], so calls to
/// them can be emitted before their bodies exist) and later *defined* from a
/// [`ProcedureBuilder`]. The first declared procedure is the program entry
/// unless [`ProgramBuilder::set_entry`] is called.
#[derive(Debug, Clone)]
pub struct ProgramBuilder {
    name: String,
    names: Vec<String>,
    bodies: Vec<Option<Procedure>>,
    entry: Option<ProcId>,
}

impl ProgramBuilder {
    /// Creates a builder for a program with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            names: Vec::new(),
            bodies: Vec::new(),
            entry: None,
        }
    }

    /// Declares a procedure, reserving its id so calls can target it.
    pub fn declare_procedure(&mut self, name: impl Into<String>) -> ProcId {
        let id = ProcId(self.names.len() as u32);
        self.names.push(name.into());
        self.bodies.push(None);
        if self.entry.is_none() {
            self.entry = Some(id);
        }
        id
    }

    /// Creates a fresh [`ProcedureBuilder`] for defining a body.
    pub fn procedure_builder(&self) -> ProcedureBuilder {
        ProcedureBuilder::new()
    }

    /// Defines the body of a previously declared procedure.
    ///
    /// # Errors
    ///
    /// Returns an error if the body is empty or internally inconsistent.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not declared by this builder.
    pub fn define_procedure(&mut self, id: ProcId, body: ProcedureBuilder) -> Result<(), IrError> {
        let name = self
            .names
            .get(id.index())
            .unwrap_or_else(|| panic!("procedure {id} was not declared by this builder"))
            .clone();
        let proc = body.finish(id, name)?;
        self.bodies[id.index()] = Some(proc);
        Ok(())
    }

    /// Overrides the entry procedure (defaults to the first declared).
    pub fn set_entry(&mut self, id: ProcId) {
        self.entry = Some(id);
    }

    /// Number of declared procedures.
    pub fn procedure_count(&self) -> usize {
        self.names.len()
    }

    /// Finishes the program.
    ///
    /// # Errors
    ///
    /// Returns an error if no procedure was declared, a declared procedure was
    /// never defined, or cross-procedure validation fails.
    pub fn build(self) -> Result<Program, IrError> {
        let entry = self.entry.ok_or(IrError::EmptyProgram)?;
        let mut procedures = Vec::with_capacity(self.bodies.len());
        for (idx, body) in self.bodies.into_iter().enumerate() {
            match body {
                Some(proc) => procedures.push(proc),
                None => {
                    return Err(IrError::UndefinedProcedure {
                        proc: ProcId(idx as u32),
                        name: self.names[idx].clone(),
                    })
                }
            }
        }
        Program::new(self.name, entry, procedures)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{AccessPattern, MemRef};

    #[test]
    fn single_block_program_builds() {
        let mut pb = ProgramBuilder::new("one");
        let main = pb.declare_procedure("main");
        let mut body = pb.procedure_builder();
        let b = body.add_block();
        body.push_all(
            b,
            [
                Instruction::int_alu(),
                Instruction::load(MemRef::new(AccessPattern::Sequential, 1024)),
            ],
        );
        body.terminate(b, Terminator::Exit);
        pb.define_procedure(main, body).unwrap();
        let program = pb.build().unwrap();
        assert_eq!(program.stats().instructions, 3);
        assert_eq!(program.entry(), main);
    }

    #[test]
    fn undefined_procedure_is_reported() {
        let mut pb = ProgramBuilder::new("bad");
        let main = pb.declare_procedure("main");
        let _helper = pb.declare_procedure("helper");
        let mut body = pb.procedure_builder();
        let b = body.add_block();
        body.terminate(b, Terminator::Exit);
        pb.define_procedure(main, body).unwrap();
        let err = pb.build().unwrap_err();
        assert!(matches!(err, IrError::UndefinedProcedure { name, .. } if name == "helper"));
    }

    #[test]
    fn empty_builder_fails() {
        let pb = ProgramBuilder::new("empty");
        assert_eq!(pb.build().unwrap_err(), IrError::EmptyProgram);
    }

    #[test]
    fn empty_procedure_builder_fails() {
        let body = ProcedureBuilder::new();
        let err = body.finish(ProcId(0), "f").unwrap_err();
        assert!(matches!(err, IrError::EmptyProcedure { .. }));
    }

    #[test]
    fn loop_branch_builds_counted_back_edge() {
        let mut body = ProcedureBuilder::new();
        let head = body.add_block();
        let latch = body.add_block();
        let exit = body.add_block();
        body.terminate(head, Terminator::Jump(latch));
        body.loop_branch(latch, head, exit, 10);
        body.terminate(exit, Terminator::Return);
        let proc = body.finish(ProcId(0), "loopy").unwrap();
        match proc.block_expect(latch).terminator() {
            Terminator::Branch {
                taken,
                fallthrough,
                behavior: BranchBehavior::Counted { trip_count },
            } => {
                assert_eq!(*taken, head);
                assert_eq!(*fallthrough, exit);
                assert_eq!(*trip_count, 10);
            }
            other => panic!("expected counted branch, found {other:?}"),
        }
    }

    #[test]
    fn entry_defaults_to_first_block_and_proc() {
        let mut pb = ProgramBuilder::new("entries");
        let first = pb.declare_procedure("first");
        let second = pb.declare_procedure("second");
        for id in [first, second] {
            let mut body = pb.procedure_builder();
            let b = body.add_block();
            body.terminate(b, Terminator::Return);
            pb.define_procedure(id, body).unwrap();
        }
        pb.set_entry(second);
        let program = pb.build().unwrap();
        assert_eq!(program.entry(), second);
    }

    #[test]
    #[should_panic(expected = "not created by this builder")]
    fn pushing_to_unknown_block_panics() {
        let mut body = ProcedureBuilder::new();
        body.push(BlockId(3), Instruction::nop());
    }
}
