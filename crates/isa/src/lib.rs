#![deny(missing_docs)]
#![forbid(unsafe_code)]
//! The DaVinci AI-Core instruction-set model (paper, Section III).
//!
//! This crate defines the instructions the simulator executes and the
//! lowering layer emits. It captures the architectural features the
//! paper's optimization exploits:
//!
//! * **Vector instructions** with a 128-bit lane mask (one bit per f16
//!   lane; 128 lanes = 256 bytes per iteration) and a hardware *repeat*
//!   parameter that reissues the instruction over consecutive 256-byte
//!   blocks without scalar-loop overhead (Section III-A, V).
//! * **`Im2Col`** — a load instruction executed by the Storage Conversion
//!   Unit while data moves L1 → {L0A, L0B, UB}; one issue produces one
//!   data-fractal (16 patches x C0 elements); repeat modes 0 and 1 iterate
//!   the positional parameters (Section III-C, Fig. 5).
//! * **`Col2Im`** — a vector-class instruction (UB → UB) performing the
//!   fractal-at-a-time scatter-*add* of the column layout back to
//!   NC1HWC0; repeat mode 1 only (Section III-D, Fig. 6).
//! * **MTE moves** between global memory and scratchpads, and the **Cube
//!   Unit** fractal matrix multiply (two fractals per cycle).
//!
//! Datapath legality (Fig. 4) is encoded in each instruction's
//! `validate()` and enforced again by the simulator at execution time.

pub mod addr;
pub mod cube;
pub mod disasm;
pub mod encode;
pub mod mask;
pub mod mte;
pub mod program;
pub mod scu;
pub mod unit;
pub mod vector;

pub use addr::{Addr, BufferId};
pub use cube::CubeMatmul;
pub use disasm::StaticStats;
pub use encode::DecodeError;
pub use mask::Mask;
pub use mte::DataMove;
pub use program::{Instr, IsaError, Program};
pub use scu::{Col2Im, Im2Col, Im2ColGeometry, PatchWalk, RepeatMode};
pub use unit::Unit;
pub use vector::{VectorInstr, VectorOp};

/// Number of f16 lanes one vector iteration processes (256 bytes).
pub const VECTOR_LANES: usize = 128;

/// Bytes one vector repeat iteration covers.
pub const VECTOR_BYTES: usize = VECTOR_LANES * 2;

/// Maximum value of the hardware repeat parameter.
pub const MAX_REPEAT: u16 = 255;
