#![deny(missing_docs)]
#![forbid(unsafe_code)]
//! # davinci-pooling
//!
//! A from-scratch reproduction of *"Pooling Acceleration in the DaVinci
//! Architecture Using Im2col and Col2im Instructions"* (Rohwedder et al.,
//! IPDPSW 2021) on a functional, cycle-approximate simulator of a DaVinci
//! (Ascend 910) AI Core.
//!
//! The paper shows that DaVinci's `Im2Col` (a transforming *load*) and
//! `Col2Im` (a scatter-add *vector* instruction) — both designed for
//! convolution — also accelerate **pooling**: up to 3.2x for MaxPool
//! forward, 5x with the argmax mask, and 5.8x for MaxPool backward,
//! because the im2col layout lets the 128-lane Vector Unit run with a
//! saturated mask and hardware repeats.
//!
//! ## Quick start
//!
//! ```
//! use davinci_pooling::prelude::*;
//!
//! // A 32-channel 32x32 fp16 image in DaVinci's fractal NC1HWC0 layout.
//! let input = Nchw::from_fn(1, 32, 32, 32, |_, c, h, w| {
//!     F16::from_f32(((c + 3 * h + 7 * w) % 11) as f32)
//! })
//! .to_nc1hwc0();
//!
//! let engine = PoolingEngine::ascend910(); // 32 simulated AI cores
//! let params = PoolParams::K3S2;           // kernel (3,3), stride (2,2)
//!
//! let (baseline, base_run) = engine
//!     .maxpool_forward(&input, params, ForwardImpl::Standard)
//!     .unwrap();
//! let (accelerated, fast_run) = engine
//!     .maxpool_forward(&input, params, ForwardImpl::Im2col)
//!     .unwrap();
//!
//! assert_eq!(baseline.data(), accelerated.data()); // bit-identical f16
//! assert!(fast_run.cycles < base_run.cycles);      // and faster
//! ```
//!
//! ## Crates
//!
//! | crate | contents |
//! |---|---|
//! | [`fp16`] | software IEEE binary16 |
//! | [`tensor`] | NCHW / NC1HWC0 / im2col layouts + golden references |
//! | [`isa`] | the DaVinci instruction model (`Im2Col`, `Col2Im`, vector ops, MTE, Cube) |
//! | [`sim`] | the AI-Core/chip simulator with hardware counters |
//! | [`akg`] | the TVM/AKG-like lowering machinery (tiling, vectorisation) |
//! | [`core`] | the pooling implementations — the paper's contribution |
//! | [`conv`] | convolution on the Cube Unit (substrate check) |
//! | [`nn`] | a small CNN inference stack composed of the above |
//! | [`serve`] | std-only async job front-end (worker pool over the engine) |

pub use dv_akg as akg;
pub use dv_conv as conv;
pub use dv_core as core;
pub use dv_fp16 as fp16;
pub use dv_isa as isa;
pub use dv_nn as nn;
pub use dv_serve as serve;
pub use dv_sim as sim;
pub use dv_tensor as tensor;

/// Everything a typical user needs.
pub mod prelude {
    pub use dv_core::{ForwardImpl, MergeImpl, PoolingEngine};
    pub use dv_fp16::F16;
    pub use dv_serve::{JobOp, JobSpec, Server};
    pub use dv_sim::{Backend, Chip, CostModel, MemoryModel};
    pub use dv_tensor::{Nc1hwc0, Nchw, Padding, PatchTensor, PoolParams};
}
