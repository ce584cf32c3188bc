#![deny(missing_docs)]
#![forbid(unsafe_code)]
//! Im2col/Col2im-based pooling for the DaVinci architecture — the paper's
//! contribution (Section V), plus every baseline it is evaluated against
//! (Section VI).
//!
//! # Implementations
//!
//! Forward MaxPool (and AvgPool):
//!
//! | builder | paper reference | instruction shape |
//! |---|---|---|
//! | `standard` | Listing 1, "Maxpool" in Figs. 7a/8 | strided `vmax`, 16/128 mask lanes, `Oh*Ow*Kh` issues (saturates automatically at stride width 1, Fig. 8a) |
//! | `im2col` | Listing 2, "Maxpool with Im2col" | `Im2Col` loads L1 -> UB into `(Kh, Kw, Oh, Ow, C0)`; `Kh*Kw` fully saturated `vmax` |
//! | `expansion` | "Maxpool with expansion", Fig. 8 | same reduction, but the layout change is done by regular vector copies inside the UB |
//! | `xysplit` | "X-Y split", Fig. 8b (Lai et al.) | width reduction then height reduction with an intermediate tensor |
//!
//! Backward MaxPool (and AvgPool):
//!
//! | builder | paper reference | merge step |
//! |---|---|---|
//! | `standard` | Listing 3 + merge | `vmul` then scattered 16-lane `vadd`, `Kh*Kw*Oh*Ow` issues, no repeat |
//! | `col2im` | Section V-B | `vmul` then `Col2Im`, `Kh*Kw` issues per tile |
//!
//! All builders lower to [`dv_isa::Program`]s executed by the `dv-sim`
//! simulator, tile against the real scratchpad capacities, and produce
//! **bit-identical f16 results** to the golden references in
//! `dv_tensor::reference` (see this crate's test suite).
//!
//! The easiest entry point is [`PoolingEngine`], which owns a simulated
//! chip and moves tensors in and out of global memory for you.

pub mod avgpool;
pub mod maxpool;
pub mod problem;
pub mod runner;
pub mod schedule;
pub mod workloads;

pub use maxpool::{build_forward_batched, tiling_threshold};
pub use problem::{ForwardImpl, LowerError, MergeImpl, PoolProblem};
pub use runner::{PoolRun, PoolingEngine, RunError};
pub use schedule::{
    chip_cycle_floor, choose_backward_algorithm, choose_backward_partition,
    choose_forward_algorithm, choose_partition, choose_segment_fusion, program_cycle_floor,
    segment_handoff_saving, Algorithm, AlgorithmChoice, PartitionAxis, Prediction, Schedule,
    SegmentFusion,
};
pub use workloads::{fig7_workloads, table1_workloads, CnnWorkload};
