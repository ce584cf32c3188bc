#![deny(missing_docs)]
#![forbid(unsafe_code)]
//! A small CNN inference stack on the simulated DaVinci chip.
//!
//! The paper's motivation is that pooling layers sit *between*
//! convolutions in real CNNs ("a naive implementation can hinder the
//! overall performance of a CNN"). This crate provides the composition: a
//! [`Sequential`] model whose convolutions run on the Cube Unit (via
//! `Im2Col` loads), and whose pooling/activation layers run on the Vector
//! Unit — with either the baseline or the accelerated (im2col/col2im)
//! pooling lowerings — reporting per-layer simulated cycles.
//!
//! ```
//! use dv_nn::{Layer, Sequential};
//! use dv_core::{ForwardImpl, PoolingEngine};
//! use dv_fp16::F16;
//! use dv_tensor::{Nchw, PoolParams};
//!
//! let conv_w = Nchw::from_fn(16, 16, 3, 3, |m, c, h, w| {
//!     F16::from_f32(((m + c + h + w) % 5) as f32 * 0.125 - 0.25)
//! });
//! let model = Sequential::new(PoolingEngine::ascend910())
//!     .layer(Layer::conv2d(conv_w, (1, 1)))
//!     .layer(Layer::Relu)
//!     .layer(Layer::maxpool2d(PoolParams::K3S2, ForwardImpl::Im2col))
//!     .layer(Layer::GlobalAvgPool);
//!
//! let input = Nchw::from_fn(1, 16, 16, 16, |_, c, h, w| {
//!     F16::from_f32(((c * h + w) % 7) as f32 - 3.0)
//! });
//! let (out, run) = model.forward(&input).unwrap();
//! assert_eq!((out.c, out.h, out.w), (16, 1, 1));
//! assert_eq!(run.layers.len(), 4);
//! assert!(run.total_cycles() > 0);
//! ```

mod fused;
mod model;
mod reference;
pub mod segments;

pub use fused::{fused_ub_bytes, run_fused_conv_pool, PoolKind};
pub use model::{FusionPolicy, Layer, LayerRun, NetRun, NnError, Sequential};
pub use reference::reference_forward;
pub use segments::{inception_segment, pinned_segments, segment_by_name, vgg16_segment, Segment};
