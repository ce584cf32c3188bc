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

use crate::problem::LowerError;
use dv_isa::Program;

/// Walk `bands` bands through their load and compute stages.
///
/// With `prefetch` this is the software pipeline: band `i + 1`'s load is
/// issued before band `i`'s body, into the alternate ping-pong slot, so
/// the MTE/SCU pipe runs ahead of the Vector pipe instead of WAR-stalling
/// on it. Without it each band loads, then computes. Both stages receive
/// the band index as the slot index: [`dv_akg::BandSlots::of`] answers
/// slot A for every band of a single-slotted region.
fn pipeline(
    p: &mut Program,
    bands: usize,
    prefetch: bool,
    mut load: impl FnMut(&mut Program, usize) -> Result<(), LowerError>,
    mut body: impl FnMut(&mut Program, usize) -> Result<(), LowerError>,
) -> Result<(), LowerError> {
    let ahead = usize::from(prefetch);
    for i in 0..ahead.min(bands) {
        load(p, i)?;
    }
    for i in 0..bands {
        if i + ahead < bands {
            load(p, i + ahead)?;
        }
        body(p, i)?;
    }
    Ok(())
}
