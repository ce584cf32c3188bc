//! MaxPool lowering: forward (four implementations), forward with argmax
//! mask, and backward (two merge implementations).

pub mod backward;
pub mod batched;
pub mod forward;

pub use backward::{
    backward_shard_staging_bytes, build_backward, build_backward_batched, build_backward_sharded,
    BackwardSource,
};
pub use batched::build_forward_batched;
pub use forward::{
    build_forward, build_forward_parallel, build_forward_with_argmax_parallel, tiling_threshold,
    Reduction,
};
