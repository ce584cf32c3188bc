#![deny(missing_docs)]
#![forbid(unsafe_code)]
//! Functional, cycle-approximate simulator of a DaVinci (Ascend 910) AI
//! Core (paper, Section III).
//!
//! The simulator plays the role of the Ascend 910 chip in the paper's
//! evaluation. It is:
//!
//! * **functional** — every instruction really computes: buffers hold real
//!   f16 bytes, `vmax` really maxes, `Im2Col` really rearranges, `Col2Im`
//!   really scatter-adds. Every kernel's output is checked bit-exactly
//!   against the golden references in `dv-tensor`.
//! * **cycle-approximate** — each instruction charges cycles through an
//!   explicit [`cost::CostModel`]. The model captures the structural
//!   quantities the paper's speedups derive from: per-instruction issue
//!   overhead (what the hardware *repeat* parameter amortises), per-repeat
//!   vector throughput independent of how many mask lanes are enabled
//!   (what mask *saturation* exploits), SCU transformation throughput, and
//!   DMA bandwidth. Absolute cycle counts are not Ascend-910 silicon
//!   numbers; relative shapes are produced by the same mechanisms the
//!   paper describes.
//!
//! [`AiCore`] simulates one core; [`chip::Chip`] fans tiles out over up to
//! 32 cores, run on as many host threads as the host has CPUs, and
//! reports the max-over-cores cycle count, matching "the outer loops are
//! parallelized between the AI Cores available on the target device"
//! (Section IV-A).

pub mod buffers;
pub mod chip;
pub mod contention;
pub mod core;
pub mod cost;
pub mod counters;
pub mod exec;
pub mod gm;
pub mod lifetimes;
pub mod trace;

pub use crate::core::{pipe_of, AiCore};
pub use buffers::{BufferPeaks, BufferSet, SimError};
pub use chip::{Chip, ChipRun, GmDeclaration, HaloOp, HaloSpan, L2Model, MemoryModel};
pub use cost::{Backend, Capacities, CostModel, IssueModel};
pub use counters::{HwCounters, Unit};
pub use gm::LentGm;
pub use lifetimes::{BufferLifetimes, LiveRange};
pub use trace::{
    chrome_trace_json, chrome_trace_json_with_lifetimes, Breakdown, BreakdownRow, Trace,
    TraceConfig, TraceEvent,
};
