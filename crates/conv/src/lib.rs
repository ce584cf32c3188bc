#![deny(missing_docs)]
#![forbid(unsafe_code)]
//! Convolution on the DaVinci Cube Unit via `Im2Col` loads — the workload
//! the Im2Col/Col2Im instructions were *designed* for (paper, Sections
//! II-A and III). Built as the substrate sanity-check for the
//! reproduction: if the simulated SCU + Cube pipeline computes real
//! convolutions correctly, the pooling results on the same instructions
//! stand on solid ground.
//!
//! # Pipeline (Fig. 1 on the simulated datapaths of Fig. 4)
//!
//! 1. the NC1HWC0 input tile moves GM -> L1 (path 1->2);
//! 2. `Im2Col` in repeat **mode 0** loads it into L0A (path 2->4): one
//!    issue per 16-patch block, its repeats sweeping `(c1, xk, yk)` so
//!    the fractal row of the `OutIn` matrix materialises in exactly the
//!    `(C1, Kh, Kw, C0)` reduction order;
//! 3. the weights — pre-laid out in the fractal "FracZ" format by
//!    [`kernels_to_fracz`], as AI frameworks do offline — move GM -> L1
//!    -> L0B (paths 1->2, 2->5);
//! 4. the Cube Unit multiplies fractal pairs into f32 accumulators in
//!    L0C;
//! 5. L0C drains to the UB (converting to f16) and the result tiles move
//!    back to GM in NC1HWC0 with `M` output channels.

pub mod fracz;
pub mod fuse;
pub mod lower;

pub use fracz::{kernels_to_fracz, kernels_to_fracz_t};
pub use fuse::fuse_conv_avgpool;
pub use lower::{
    build_conv2d, build_conv2d_backward_data, build_conv2d_implicit, build_conv2d_resident,
    run_conv2d, run_conv2d_backward_data, run_conv2d_with, ConvError, ConvLowering, ResidentConv,
};
