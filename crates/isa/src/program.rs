//! Programs: validated sequences of AI-Core instructions.
//!
//! A [`Program`] is what the lowering layer (`dv-akg`) emits for one AI
//! Core and what the simulator executes — the moral equivalent of the
//! paper's "lowered CCE C code".

use crate::addr::BufferId;
use crate::cube::CubeMatmul;
use crate::mte::DataMove;
use crate::scu::{Col2Im, Im2Col};
use crate::vector::VectorInstr;
use core::fmt;

/// Errors raised by instruction validation.
#[derive(Clone, Debug, PartialEq)]
pub enum IsaError {
    /// Repeat parameter out of range (must be 1..=255).
    BadRepeat(u16),
    /// An operand lives in a buffer the instruction cannot reach
    /// (violates the datapaths of Fig. 4).
    IllegalDatapath {
        /// instruction kind
        instr: &'static str,
        /// the offending buffer
        buffer: BufferId,
        /// which operand
        role: &'static str,
    },
    /// A positional parameter (kernel offset, c1 index, patch index,
    /// dimension) is out of range.
    BadPosition(String),
    /// A zero-byte data move.
    EmptyMove,
    /// An operand's byte span ends past the end of the address space
    /// (`usize::MAX`), so no buffer could hold it.
    SpanOverflow {
        /// instruction kind
        instr: &'static str,
        /// which operand
        role: &'static str,
    },
    /// Underlying geometry error.
    Shape(dv_tensor::ShapeError),
}

impl fmt::Display for IsaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IsaError::BadRepeat(r) => write!(f, "repeat {r} out of range 1..=255"),
            IsaError::IllegalDatapath {
                instr,
                buffer,
                role,
            } => {
                write!(f, "{instr}: operand {role} cannot use buffer {buffer}")
            }
            IsaError::BadPosition(msg) => write!(f, "bad positional parameter: {msg}"),
            IsaError::EmptyMove => write!(f, "zero-byte data move"),
            IsaError::SpanOverflow { instr, role } => {
                write!(
                    f,
                    "{instr}: operand {role}'s byte span overflows the address space"
                )
            }
            IsaError::Shape(e) => write!(f, "shape error: {e}"),
        }
    }
}

impl std::error::Error for IsaError {}

/// The end `offset + bytes` of an operand of `instr` (`bytes` is `None`
/// when the operand's length itself overflowed), or
/// [`IsaError::SpanOverflow`] when it lies past `usize::MAX`.
pub(crate) fn span_end(
    instr: &'static str,
    role: &'static str,
    offset: usize,
    bytes: Option<usize>,
) -> Result<usize, IsaError> {
    bytes
        .and_then(|b| offset.checked_add(b))
        .ok_or(IsaError::SpanOverflow { instr, role })
}

impl From<dv_tensor::ShapeError> for IsaError {
    fn from(e: dv_tensor::ShapeError) -> Self {
        IsaError::Shape(e)
    }
}

/// One AI-Core instruction.
#[derive(Clone, Debug, PartialEq)]
pub enum Instr {
    /// Vector Unit operation.
    Vector(VectorInstr),
    /// SCU im2col load.
    Im2Col(Im2Col),
    /// SCU col2im scatter-add.
    Col2Im(Col2Im),
    /// MTE flat copy.
    Move(DataMove),
    /// Cube Unit fractal matmul.
    Cube(CubeMatmul),
}

impl Instr {
    /// Validate the instruction's parameters and datapaths.
    pub fn validate(&self) -> Result<(), IsaError> {
        match self {
            Instr::Vector(i) => i.validate(),
            Instr::Im2Col(i) => i.validate(),
            Instr::Col2Im(i) => i.validate(),
            Instr::Move(i) => i.validate(),
            Instr::Cube(i) => i.validate(),
        }
    }

    /// Short mnemonic for traces and statistics.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Instr::Vector(v) => match v.op {
                crate::vector::VectorOp::Max => "vmax",
                crate::vector::VectorOp::Min => "vmin",
                crate::vector::VectorOp::Add => "vadd",
                crate::vector::VectorOp::Sub => "vsub",
                crate::vector::VectorOp::Mul => "vmul",
                crate::vector::VectorOp::MulScalar(_) => "vmuls",
                crate::vector::VectorOp::Dup(_) => "vector_dup",
                crate::vector::VectorOp::CmpEq => "vcmp_eq",
                crate::vector::VectorOp::Copy => "vcopy",
                crate::vector::VectorOp::Relu => "vrelu",
            },
            Instr::Im2Col(_) => "im2col",
            Instr::Col2Im(_) => "col2im",
            Instr::Move(_) => "mte_move",
            Instr::Cube(_) => "cube_mmad",
        }
    }
}

/// A validated instruction sequence for one AI Core.
#[derive(Clone, Debug, Default)]
pub struct Program {
    instrs: Vec<Instr>,
}

impl Program {
    /// Empty program.
    pub fn new() -> Program {
        Program { instrs: Vec::new() }
    }

    /// Append an instruction, validating it immediately so lowering bugs
    /// surface at emission rather than execution.
    pub fn push(&mut self, instr: Instr) -> Result<(), IsaError> {
        instr.validate()?;
        self.instrs.push(instr);
        Ok(())
    }

    /// The instruction sequence.
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// Number of instructions (each hardware repeat counts as one issue —
    /// that is precisely the point of the repeat parameter).
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// True when the program holds no instructions.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Count instructions by mnemonic — the quantity the paper reasons
    /// about ("The vmax instruction is issued Oh*Ow*Kh times").
    pub fn issue_count(&self, mnemonic: &str) -> usize {
        self.instrs
            .iter()
            .filter(|i| i.mnemonic() == mnemonic)
            .count()
    }

    /// Concatenate another program after this one.
    pub fn extend(&mut self, other: Program) {
        self.instrs.extend(other.instrs);
    }
}

impl IntoIterator for Program {
    type Item = Instr;
    type IntoIter = std::vec::IntoIter<Instr>;
    fn into_iter(self) -> Self::IntoIter {
        self.instrs.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Addr;
    use crate::mask::Mask;
    use crate::vector::{VectorInstr, VectorOp};

    fn vmax() -> Instr {
        Instr::Vector(VectorInstr::unit_stride(
            VectorOp::Max,
            Addr::ub(0),
            Addr::ub(256),
            Addr::ub(512),
            Mask::FULL,
            1,
        ))
    }

    #[test]
    fn push_validates() {
        let mut p = Program::new();
        assert!(p.push(vmax()).is_ok());
        assert_eq!(p.len(), 1);

        let bad = Instr::Vector(VectorInstr::unit_stride(
            VectorOp::Max,
            Addr::gm(0),
            Addr::ub(0),
            Addr::ub(0),
            Mask::FULL,
            1,
        ));
        assert!(p.push(bad).is_err());
        assert_eq!(p.len(), 1, "failed push must not append");
    }

    #[test]
    fn issue_count_by_mnemonic() {
        let mut p = Program::new();
        p.push(vmax()).unwrap();
        p.push(vmax()).unwrap();
        assert_eq!(p.issue_count("vmax"), 2);
        assert_eq!(p.issue_count("vadd"), 0);
    }

    #[test]
    fn extend_concatenates() {
        let mut a = Program::new();
        a.push(vmax()).unwrap();
        let mut b = Program::new();
        b.push(vmax()).unwrap();
        a.extend(b);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn mnemonics() {
        assert_eq!(vmax().mnemonic(), "vmax");
        let dup = Instr::Vector(VectorInstr::unit_stride(
            VectorOp::Dup(dv_fp16::F16::ZERO),
            Addr::ub(0),
            Addr::ub(0),
            Addr::ub(0),
            Mask::FULL,
            1,
        ));
        assert_eq!(dup.mnemonic(), "vector_dup");
    }
}
