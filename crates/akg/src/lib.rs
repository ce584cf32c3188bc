#![deny(missing_docs)]
#![forbid(unsafe_code)]
//! AKG/TVM-like lowering layer (paper, Section IV).
//!
//! The paper's pooling operators are written in TVM's DSL and lowered by
//! AKG to CCE C. This crate is the equivalent layer for the simulator: it
//! provides the machinery kernel builders (in `dv-core`) use to turn an
//! operator description into per-core [`dv_isa::Program`]s:
//!
//! * [`arena`] — bump allocators for global memory and the Unified
//!   Buffer, so lowering detects capacity violations before execution;
//! * [`emit`] — vectorisation helpers that realise AKG's automatic
//!   behaviours: saturate the 128-lane mask, use the hardware repeat
//!   parameter (chunked at the 255 limit), and mask partial tails;
//! * [`tiling`] — row-band tiling against the UB/L1 capacities, including
//!   the *tiling threshold* that bounds Fig. 8's x-axis.

pub mod arena;
pub mod emit;
pub mod tiling;

pub use arena::{BandMode, BandSlots, GmArena, UbArena, UbOverflow};
pub use emit::{
    dma, elementwise, expect_vector, fill_region, strided_accumulate, zero_region, EmitError,
};
pub use tiling::{
    balanced_chunks, balanced_ranges, band_input_rows, band_params, max_row_band,
    max_row_band_batched, row_bands, row_bands_batched, tiling_threshold, Band, TilingError,
};
