//! AvgPool lowering (paper, Section V-C).
//!
//! "The forward and backward operators of Avgpool are similar to those
//! described before. But opposed to Maxpool, the forward implementation
//! reduces using sum instead of max … a new operation is needed to
//! compute an element-wise division before saving the final output. As
//! for the backward operator, there is no need to use the Argmax mask as
//! an input" — so every AvgPool lowering is a shared MaxPool lowering
//! with a [`Reduction::Sum`] reduction or a
//! [`BackwardSource::AvgUniform`] source. The builders here spell out
//! that choice for the per-plane forward and backward.

use crate::maxpool::{build_backward, BackwardSource, Reduction};
use crate::problem::{ForwardImpl, LowerError, MergeImpl, PoolProblem};
use crate::schedule::Schedule;
use dv_fp16::F16;
use dv_isa::Program;
use dv_sim::Capacities;

/// The `1/(Kh*Kw)` scale constant used by both forward and backward.
pub fn avg_scale(prob: &PoolProblem) -> F16 {
    F16::from_f32(1.0 / (prob.params.kh * prob.params.kw) as f32)
}

/// Build AvgPool forward programs with band-level parallel splitting
/// over up to `parallel` programs and overlap-schedule control (see
/// [`crate::maxpool::build_forward_parallel`]). The paper evaluates the
/// `Standard` and `Im2col` variants ("the access pattern stays the same
/// and can benefit from using Im2Col"); `Expansion` also works, and the
/// X-Y split is refused because it re-associates the f16 sum.
#[allow(clippy::too_many_arguments)]
pub fn build_avgpool_forward_parallel(
    prob: &PoolProblem,
    impl_: ForwardImpl,
    gm_in: usize,
    gm_out: usize,
    caps: Capacities,
    parallel: usize,
    sched: Schedule,
) -> Result<Vec<Program>, LowerError> {
    crate::maxpool::build_forward_parallel(
        prob,
        impl_,
        Reduction::Sum {
            scale: avg_scale(prob),
        },
        gm_in,
        gm_out,
        caps,
        parallel,
        sched,
    )
}

/// Build AvgPool backward programs: the multiply step collapses to a
/// `vmuls` of the gradients (uniform mask), followed by the same merge —
/// scattered `vadd` or `Col2Im`. `sched` is forwarded to
/// [`build_backward`].
pub fn build_avgpool_backward(
    prob: &PoolProblem,
    merge: MergeImpl,
    gm_grad: usize,
    gm_dx: usize,
    caps: Capacities,
    sched: Schedule,
) -> Result<Vec<Program>, LowerError> {
    build_backward(
        prob,
        merge,
        BackwardSource::AvgUniform {
            scale: avg_scale(prob),
        },
        gm_grad,
        gm_dx,
        caps,
        sched,
    )
}
