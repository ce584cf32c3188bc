#![deny(missing_docs)]
#![forbid(unsafe_code)]
//! Tensor layouts and golden reference operators for the DaVinci pooling
//! reproduction.
//!
//! The paper (Section II-A, III-B) works with three memory layouts:
//!
//! * **NCHW** — the framework-level layout: batch, channels, height, width.
//! * **NC1HWC0** — DaVinci's *fractal* layout: the channel dimension is
//!   split as `C = C1 * C0` with constant `C0 = 16` for `Float16` (a
//!   data-fractal is 4096 bits = 16 x 16 f16). Channels are zero-padded up
//!   to a multiple of `C0`.
//! * **NC1KhKwOhOwC0** — the layout produced by the `Im2Col` instruction in
//!   repeat mode 1 with loop order `[c1, (xk, yk), (x, y)]`: each
//!   `(kh, kw)` plane holds, contiguously, the element every patch selects
//!   at that kernel offset. Pooling reductions over this layout run over the
//!   *outer* `(Kh, Kw)` axes so vector instructions are fully saturated.
//!
//! The [`mod@reference`] module holds scalar golden implementations of im2col,
//! col2im, max/avg pooling forward and backward, argmax masks and direct
//! convolution. Every simulated kernel in the workspace is tested for
//! bit-identical `f16` output against these.

pub mod im2col;
pub mod layout;
pub mod pool;
pub mod reference;
pub mod shape;

pub use im2col::{col2im_fractal, coverage_multiplicity, im2col_fractal, PatchTensor};
pub use layout::{Nc1hwc0, Nchw, C0, FRACTAL_BYTES, FRACTAL_ROWS};
pub use pool::{PoolKind, PoolParams};
pub use shape::{Padding, ShapeError};

pub use dv_fp16::F16;
