//! Vector Unit instructions: elementwise f16 operations over the Unified
//! Buffer with lane masking and hardware repeat.
//!
//! Modeled after the CCE C intrinsics named by the paper — `vmax`, `vadd`,
//! `vmul` (Section V) — plus the supporting operations a complete pooling
//! lowering needs (`vector_dup` for accumulator initialisation, `vmuls`
//! for the AvgPool scale, `vcmp`-style equality for the argmax mask, and
//! `vsub` to round out the arithmetic set).
//!
//! One repeat iteration processes [`VECTOR_LANES`](crate::VECTOR_LANES)
//! f16 lanes (256 bytes). Between iterations each operand pointer advances
//! by its *repeat stride* (in bytes), which lets a single instruction
//! reduce a `(Kh, Kw)`-outer tensor against a smaller accumulator by
//! giving the accumulator a stride of zero... in fact the paper's kernels
//! only need equal strides or a zero destination stride; both are
//! expressible.

use crate::addr::{Addr, BufferId};
use crate::mask::Mask;
use crate::program::{span_end, IsaError};
use crate::{MAX_REPEAT, VECTOR_BYTES};
use dv_fp16::F16;

/// The elementwise operation a [`VectorInstr`] performs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum VectorOp {
    /// `dst = max(src0, src1)` — the reduction step of MaxPool (`vmax`).
    Max,
    /// `dst = min(src0, src1)` (`vmin`).
    Min,
    /// `dst = src0 + src1` — AvgPool reduction and the baseline backward
    /// merge (`vadd`).
    Add,
    /// `dst = src0 - src1` (`vsub`).
    Sub,
    /// `dst = src0 * src1` — the mask x gradient multiply of backward
    /// pooling (`vmul`).
    Mul,
    /// `dst = src0 * scalar` — AvgPool's `1/(Kh*Kw)` scale (`vmuls`).
    MulScalar(F16),
    /// `dst = scalar` — accumulator initialisation (`vector_dup`).
    Dup(F16),
    /// `dst = (src0 == src1) ? 1.0 : 0.0` — the compare producing the
    /// argmax mask (`vcmp` + select lowering).
    CmpEq,
    /// `dst = src0` — a plain vectorised copy (`vadds 0` / `copy_ubuf`),
    /// used by the "Maxpool with expansion" baseline that rearranges data
    /// with regular vector instructions (Section VI-B).
    Copy,
    /// `dst = max(src0, 0)` — the rectified-linear activation (`vrelu`),
    /// used by the CNN pipeline example between layers.
    Relu,
}

impl VectorOp {
    /// Does the operation read a second source operand?
    pub const fn has_src1(self) -> bool {
        matches!(
            self,
            VectorOp::Max
                | VectorOp::Min
                | VectorOp::Add
                | VectorOp::Sub
                | VectorOp::Mul
                | VectorOp::CmpEq
        )
    }

    /// Does the operation read any source operand?
    pub const fn has_src0(self) -> bool {
        !matches!(self, VectorOp::Dup(_))
    }
}

/// One Vector Unit instruction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct VectorInstr {
    /// The elementwise operation.
    pub op: VectorOp,
    /// Destination address (must be in the Unified Buffer).
    pub dst: Addr,
    /// First source (ignored for `Dup`).
    pub src0: Addr,
    /// Second source (only for two-operand ops).
    pub src1: Addr,
    /// The 128-bit lane mask.
    pub mask: Mask,
    /// Hardware repeat count (1..=255): the instruction is reissued this
    /// many times, advancing each operand by its repeat stride.
    pub repeat: u16,
    /// Destination advance per repeat, in bytes.
    pub dst_stride: usize,
    /// `src0` advance per repeat, in bytes.
    pub src0_stride: usize,
    /// `src1` advance per repeat, in bytes.
    pub src1_stride: usize,
}

impl VectorInstr {
    /// A unit-stride instruction: all operands advance by one full vector
    /// (256 bytes) per repeat — the common case for saturated kernels.
    pub fn unit_stride(
        op: VectorOp,
        dst: Addr,
        src0: Addr,
        src1: Addr,
        mask: Mask,
        repeat: u16,
    ) -> VectorInstr {
        VectorInstr {
            op,
            dst,
            src0,
            src1,
            mask,
            repeat,
            dst_stride: VECTOR_BYTES,
            src0_stride: VECTOR_BYTES,
            src1_stride: VECTOR_BYTES,
        }
    }

    /// Validate datapath legality and parameter ranges.
    ///
    /// The Vector Unit "operate\[s\] on data loaded from/stored to the
    /// Unified Buffer" (Section III-A), so every operand must live in UB.
    /// Each operand the op touches must also end in the address space:
    /// `offset + (repeat - 1) * stride + 256` may not overflow `usize`.
    pub fn validate(&self) -> Result<(), IsaError> {
        if self.repeat == 0 || self.repeat > MAX_REPEAT {
            return Err(IsaError::BadRepeat(self.repeat));
        }
        let operands = [
            (self.dst, self.dst_stride, "dst", true),
            (self.src0, self.src0_stride, "src0", self.op.has_src0()),
            (self.src1, self.src1_stride, "src1", self.op.has_src1()),
        ];
        for (addr, stride, role, used) in operands {
            if !used {
                continue;
            }
            if addr.buffer != BufferId::Ub {
                return Err(IsaError::IllegalDatapath {
                    instr: "vector",
                    buffer: addr.buffer,
                    role,
                });
            }
            let bytes = (usize::from(self.repeat) - 1)
                .checked_mul(stride)
                .and_then(|span| span.checked_add(VECTOR_BYTES));
            span_end("vector", role, addr.offset, bytes)?;
        }
        Ok(())
    }

    /// Total lanes of useful work (mask lanes x repeats) — used by the
    /// hardware counters to report utilization.
    pub fn useful_lanes(&self) -> u64 {
        self.mask.count() as u64 * self.repeat as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(op: VectorOp) -> VectorInstr {
        VectorInstr::unit_stride(op, Addr::ub(0), Addr::ub(256), Addr::ub(512), Mask::FULL, 1)
    }

    #[test]
    fn validate_accepts_ub_operands() {
        assert!(v(VectorOp::Max).validate().is_ok());
        assert!(v(VectorOp::Dup(F16::ZERO)).validate().is_ok());
    }

    #[test]
    fn validate_rejects_non_ub() {
        let mut i = v(VectorOp::Add);
        i.src1 = Addr::l1(0);
        assert!(matches!(
            i.validate(),
            Err(IsaError::IllegalDatapath { role: "src1", .. })
        ));
        let mut j = v(VectorOp::Add);
        j.dst = Addr::gm(0);
        assert!(matches!(
            j.validate(),
            Err(IsaError::IllegalDatapath { role: "dst", .. })
        ));
    }

    #[test]
    fn dup_ignores_source_buffers() {
        let mut i = v(VectorOp::Dup(F16::ONE));
        i.src0 = Addr::gm(0); // irrelevant for Dup
        i.src1 = Addr::l1(0);
        assert!(i.validate().is_ok());
    }

    #[test]
    fn repeat_bounds() {
        let mut i = v(VectorOp::Max);
        i.repeat = 0;
        assert!(matches!(i.validate(), Err(IsaError::BadRepeat(0))));
        i.repeat = 255;
        assert!(i.validate().is_ok());
    }

    /// An operand whose last repeat would end past `usize::MAX` is a typed
    /// error, never a wrapped address; an operand the op does not read is
    /// not checked.
    #[test]
    fn overflowing_spans_are_refused() {
        let mut i = v(VectorOp::Max);
        i.repeat = 2;
        i.src0 = i.dst;
        i.dst.offset = 512;
        i.src0.offset = 512;
        i.dst_stride = usize::MAX - 255;
        i.src0_stride = usize::MAX - 255;
        assert_eq!(
            i.validate(),
            Err(IsaError::SpanOverflow {
                instr: "vector",
                role: "dst"
            })
        );
        // The last repeat ends exactly at `usize::MAX`: accepted.
        let mut j = v(VectorOp::Copy);
        j.dst.offset = usize::MAX - 256;
        assert!(j.validate().is_ok());
        j.dst.offset += 1;
        assert!(matches!(
            j.validate(),
            Err(IsaError::SpanOverflow { role: "dst", .. })
        ));
        let mut k = v(VectorOp::Add);
        k.repeat = 255;
        k.src1_stride = usize::MAX / 200;
        assert!(matches!(
            k.validate(),
            Err(IsaError::SpanOverflow { role: "src1", .. })
        ));
        k.op = VectorOp::Relu; // reads no src1
        assert!(k.validate().is_ok());
    }

    #[test]
    fn useful_lanes_counts_mask_times_repeat() {
        let mut i = v(VectorOp::Max);
        i.mask = Mask::C0_ONLY;
        i.repeat = 10;
        assert_eq!(i.useful_lanes(), 160);
    }

    #[test]
    fn operand_arity() {
        assert!(VectorOp::Max.has_src1());
        assert!(VectorOp::CmpEq.has_src1());
        assert!(!VectorOp::MulScalar(F16::ONE).has_src1());
        assert!(!VectorOp::Dup(F16::ZERO).has_src0());
        assert!(VectorOp::Copy.has_src0());
        assert!(!VectorOp::Copy.has_src1());
    }
}
