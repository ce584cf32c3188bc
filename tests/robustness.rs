//! Robustness: user-facing error messages and floating-point
//! special-value behaviour across the whole stack.

use davinci_pooling::prelude::*;
use davinci_pooling::tensor::reference;

// ---------------------------------------------------------------------
// error display surfaces
// ---------------------------------------------------------------------

#[test]
fn shape_errors_render_helpfully() {
    use davinci_pooling::tensor::ShapeError;
    let e = PoolParams::K3S2.out_dims(2, 2).unwrap_err();
    let msg = e.to_string();
    assert!(msg.contains("kernel extent 3"), "{msg}");
    assert!(msg.contains("exceeds"), "{msg}");
    let e = ShapeError::DataLength {
        expected: 10,
        got: 7,
    };
    assert!(e.to_string().contains("data length 7"));
}

#[test]
fn isa_errors_render_helpfully() {
    use davinci_pooling::isa::{Addr, Instr, Mask, VectorInstr, VectorOp};
    let bad = Instr::Vector(VectorInstr::unit_stride(
        VectorOp::Add,
        Addr::gm(0),
        Addr::ub(0),
        Addr::ub(0),
        Mask::FULL,
        1,
    ));
    let msg = bad.validate().unwrap_err().to_string();
    assert!(msg.contains("vector"), "{msg}");
    assert!(msg.contains("GM"), "{msg}");
}

#[test]
fn sim_errors_render_helpfully() {
    use davinci_pooling::isa::BufferId;
    use davinci_pooling::sim::{BufferSet, Capacities};
    let b = BufferSet::new(Capacities::ASCEND910, 16);
    let msg = b.read_f16(BufferId::Gm, 64).unwrap_err().to_string();
    assert!(msg.contains("out of bounds"), "{msg}");
    assert!(msg.contains("GM"), "{msg}");
    let msg = b.read_f16(BufferId::Ub, 1).unwrap_err().to_string();
    assert!(msg.contains("misaligned"), "{msg}");
}

#[test]
fn engine_errors_render_helpfully() {
    let eng = PoolingEngine::ascend910();
    let input = Nc1hwc0::zeros(1, 1, 2, 2);
    let err = eng
        .maxpool_forward(&input, PoolParams::K3S2, ForwardImpl::Im2col)
        .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("lowering"), "{msg}");
}

#[test]
fn decode_errors_render_helpfully() {
    use davinci_pooling::isa::Program;
    let msg = Program::from_bytes(b"oops").unwrap_err().to_string();
    assert!(msg.contains("magic"), "{msg}");
}

// ---------------------------------------------------------------------
// floating-point special values through the full simulated stack
// ---------------------------------------------------------------------

fn special_input() -> Nc1hwc0 {
    // a tensor salted with NaN, +-inf, -0.0 and subnormals
    Nc1hwc0::from_fn(1, 1, 9, 9, |_, _, h, w, c0| match (h * 9 + w + c0) % 9 {
        0 => F16::NAN,
        1 => F16::INFINITY,
        2 => F16::NEG_INFINITY,
        3 => F16::NEG_ZERO,
        4 => F16::MIN_POSITIVE_SUBNORMAL,
        5 => F16::MAX,
        6 => F16::MIN,
        7 => F16::from_f32(1.5),
        _ => F16::from_f32(-2.25),
    })
}

#[test]
fn maxpool_with_special_values_matches_reference() {
    // hardware-max semantics (NaN ignored, -0 < +0) must match the
    // reference bit-for-bit for every implementation
    let input = special_input();
    let params = PoolParams::K3S2;
    let want = reference::maxpool_forward(&input, &params).unwrap();
    let eng = PoolingEngine::ascend910();
    for impl_ in [
        ForwardImpl::Standard,
        ForwardImpl::Im2col,
        ForwardImpl::Expansion,
        ForwardImpl::XYSplit,
    ] {
        let (got, _) = eng.maxpool_forward(&input, params, impl_).unwrap();
        for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{impl_:?} element {i}");
        }
    }
}

#[test]
fn avgpool_with_infinities_matches_reference() {
    // inf + finite = inf; inf + (-inf) = NaN — whatever the semantics,
    // simulated and reference paths must agree bit-for-bit
    let input = special_input();
    let params = PoolParams::K2S2;
    let want = reference::avgpool_forward(&input, &params).unwrap();
    let eng = PoolingEngine::ascend910();
    for impl_ in [ForwardImpl::Standard, ForwardImpl::Im2col] {
        let (got, _) = eng.avgpool_forward(&input, params, impl_).unwrap();
        for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{impl_:?} element {i}");
        }
    }
}

#[test]
fn backward_with_special_gradients_matches_reference() {
    let input = special_input();
    let params = PoolParams::K3S2;
    let mask = reference::maxpool_argmax_mask(&input, &params).unwrap();
    let (oh, ow) = params.out_dims(9, 9).unwrap();
    let grads = Nc1hwc0::from_fn(1, 1, oh, ow, |_, _, h, w, c0| match (h + w + c0) % 5 {
        0 => F16::INFINITY,
        1 => F16::NEG_ZERO,
        2 => F16::MIN_POSITIVE_SUBNORMAL,
        _ => F16::from_f32(2.0),
    });
    let want = reference::maxpool_backward(&mask, &grads, &params, 9, 9).unwrap();
    let eng = PoolingEngine::ascend910();
    for merge in [MergeImpl::VAdd, MergeImpl::Col2Im] {
        let (got, _) = eng
            .maxpool_backward(&mask, &grads, params, 9, 9, merge)
            .unwrap();
        for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{merge:?} element {i}");
        }
    }
}

#[test]
fn relu_with_special_values() {
    let input = special_input();
    let eng = PoolingEngine::ascend910();
    let (out, _) = eng.relu(&input).unwrap();
    for (got, x) in out.data().iter().zip(input.data()) {
        let want = x.max(F16::ZERO);
        assert_eq!(got.to_bits(), want.to_bits(), "relu({x:?})");
    }
    // spot-check semantics: NaN -> 0 is NOT what hardware max does; it
    // returns the non-NaN operand, which is 0 here
    assert_eq!(F16::NAN.max(F16::ZERO), F16::ZERO);
    // -0.0 relu's to +0.0 under totalOrder max
    assert_eq!(F16::NEG_ZERO.max(F16::ZERO), F16::ZERO);
}

// ---------------------------------------------------------------------
// tensors whose data disagrees with their declared shape
// ---------------------------------------------------------------------

/// The typed refusal every entry point gives a tensor whose public shape
/// fields were edited after construction.
fn assert_shape_mismatch<T: std::fmt::Debug>(
    got: Result<T, davinci_pooling::core::RunError>,
    what: &str,
) {
    use davinci_pooling::core::{LowerError, RunError};
    use davinci_pooling::tensor::ShapeError;
    match got {
        Err(RunError::Lower(LowerError::Shape(ShapeError::Mismatch(msg)))) => {
            assert!(msg.contains("declared shape"), "{what}: {msg}");
        }
        other => panic!("{what}: expected a typed shape mismatch, got {other:?}"),
    }
}

/// The two-core engine of the edited-shape cases.
fn edited_shape_engine() -> PoolingEngine {
    PoolingEngine::new(Chip::new(2, CostModel::ascend910_like()))
}

/// After a refusal the engine still pools a consistent 8x8 tensor, and
/// scatters its gradients back, bit-exactly.
fn assert_still_bit_exact(eng: &PoolingEngine) {
    let p = PoolParams::K3S2;
    let x = seeded(1, 1, 8, 8, 40);
    let (got, _) = eng.maxpool_forward(&x, p, ForwardImpl::Im2col).unwrap();
    let want = reference::maxpool_forward(&x, &p).unwrap();
    assert_eq!(got.data(), want.data(), "forward after a refusal");
    let mask = reference::maxpool_argmax_mask(&x, &p).unwrap();
    let grads = seeded(1, 1, 3, 3, 41);
    let (dx, _) = eng
        .maxpool_backward(&mask, &grads, p, 8, 8, MergeImpl::Col2Im)
        .unwrap();
    let want = reference::maxpool_backward(&mask, &grads, &p, 8, 8).unwrap();
    assert_eq!(dx.data(), want.data(), "backward after a refusal");
}

#[test]
fn oversized_data_under_an_edited_shape_fails_typed() {
    // 64x64 data declared 8x8: the GM region holds 8x8, so writing the
    // data in would run off the image.
    let eng = edited_shape_engine();
    let mut x = Nc1hwc0::from_fn(1, 1, 64, 64, |_, _, h, w, c0| {
        F16::from_f32(((h * 64 + w + c0) % 97) as f32)
    });
    (x.h, x.w) = (8, 8);
    let p = PoolParams::K3S2;
    for impl_ in [ForwardImpl::Standard, ForwardImpl::Im2col] {
        assert_shape_mismatch(eng.maxpool_forward(&x, p, impl_), "maxpool_forward");
        assert_shape_mismatch(
            eng.maxpool_forward_with_argmax(&x, p, impl_),
            "maxpool_forward_with_argmax",
        );
        assert_shape_mismatch(eng.avgpool_forward(&x, p, impl_), "avgpool_forward");
    }
    assert_shape_mismatch(eng.relu(&x), "relu");
    assert_still_bit_exact(&eng);
}

#[test]
fn undersized_data_under_an_edited_shape_fails_typed() {
    // 8x8 data declared 16x16: writing it into the 16x16 region would
    // leave rows of zeros, and the pool would return Ok over them.
    let eng = edited_shape_engine();
    let mut x = seeded(1, 1, 8, 8, 42);
    (x.h, x.w) = (16, 16);
    let p = PoolParams::K3S2;
    for impl_ in [ForwardImpl::Standard, ForwardImpl::Im2col] {
        assert_shape_mismatch(eng.maxpool_forward(&x, p, impl_), "maxpool_forward");
        assert_shape_mismatch(
            eng.maxpool_forward_with_argmax(&x, p, impl_),
            "maxpool_forward_with_argmax",
        );
        assert_shape_mismatch(eng.avgpool_forward(&x, p, impl_), "avgpool_forward");
    }
    assert_shape_mismatch(eng.relu(&x), "relu");
    assert_still_bit_exact(&eng);
}

#[test]
fn gradients_under_an_edited_shape_fail_typed() {
    // The mask of an 8x8 forward with 30x30 gradients declared 3x3: the
    // declared shapes agree, the gradient data does not.
    let eng = edited_shape_engine();
    let p = PoolParams::K3S2;
    let mask = reference::maxpool_argmax_mask(&seeded(1, 1, 8, 8, 43), &p).unwrap();
    let mut grads = seeded(1, 1, 30, 30, 44);
    (grads.h, grads.w) = (3, 3);
    for merge in [MergeImpl::VAdd, MergeImpl::Col2Im] {
        assert_shape_mismatch(
            eng.maxpool_backward(&mask, &grads, p, 8, 8, merge),
            "maxpool_backward",
        );
        assert_shape_mismatch(
            eng.avgpool_backward(&grads, p, 8, 8, merge),
            "avgpool_backward",
        );
    }
    // A mask whose data disagrees with its declared patch grid.
    let mut big_mask = reference::maxpool_argmax_mask(&seeded(1, 1, 30, 30, 45), &p).unwrap();
    (big_mask.oh, big_mask.ow) = (3, 3);
    let grads = seeded(1, 1, 3, 3, 46);
    assert_shape_mismatch(
        eng.maxpool_backward(&big_mask, &grads, p, 8, 8, MergeImpl::Col2Im),
        "maxpool_backward mask",
    );
    assert_still_bit_exact(&eng);
}

// ---------------------------------------------------------------------
// dilated windows on banded, batch-folded and sharded plans
// ---------------------------------------------------------------------

/// A seeded tensor with few repeated values, so a misplaced tap moves a
/// maximum or a sum.
fn seeded(n: usize, c1: usize, h: usize, w: usize, seed: u64) -> Nc1hwc0 {
    let mut s = seed | 1;
    Nc1hwc0::from_fn(n, c1, h, w, |_, _, _, _, _| {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        F16::from_f32(((s >> 40) % 61) as f32 - 30.0)
    })
}

#[test]
fn dilated_batch_fold_at_default_capacities_matches_reference() {
    // One core at the default capacities lowers the batch fold of a
    // dilated K3S2 window over two 147x147 planes; every band of the
    // fold must keep the dilated taps.
    let input = seeded(2, 1, 147, 147, 3);
    let params = PoolParams::K3S2.with_dilation((2, 2));
    let want = reference::maxpool_forward(&input, &params).unwrap();
    let eng = PoolingEngine::new(Chip::new(1, CostModel::ascend910_like()));
    let (got, _) = eng
        .maxpool_forward(&input, params, ForwardImpl::Im2col)
        .unwrap();
    assert_eq!(got.data(), want.data());
}

#[test]
fn dilated_pooling_on_banded_planes_matches_reference() {
    // 147x147 planes exceed the Unified Buffer, so both lowerings walk
    // row bands, and each partial band keeps the dilated window.
    use davinci_pooling::core::tiling_threshold;
    let input = seeded(1, 2, 147, 147, 5);
    let params = PoolParams::K3S2.with_dilation((2, 2));
    let eng = PoolingEngine::ascend910();
    let want_max = reference::maxpool_forward(&input, &params).unwrap();
    let (want_out, want_mask) = reference::maxpool_forward_with_argmax(&input, &params).unwrap();
    let want_avg = reference::avgpool_forward(&input, &params).unwrap();
    for impl_ in [ForwardImpl::Standard, ForwardImpl::Im2col] {
        let side = tiling_threshold(&params, impl_, eng.chip.caps);
        assert!(side < 147, "{impl_:?}: one band fits {side}x{side}");
        let (got, _) = eng.maxpool_forward(&input, params, impl_).unwrap();
        assert_eq!(got.data(), want_max.data(), "{impl_:?} max");
        let (out, mask, _) = eng
            .maxpool_forward_with_argmax(&input, params, impl_)
            .unwrap();
        assert_eq!(out.data(), want_out.data(), "{impl_:?} argmax out");
        assert_eq!(mask.data(), want_mask.data(), "{impl_:?} argmax mask");
        let (got, _) = eng.avgpool_forward(&input, params, impl_).unwrap();
        assert_eq!(got.data(), want_avg.data(), "{impl_:?} avg");
    }
}

#[test]
fn dilated_backward_on_sharded_planes_matches_reference() {
    // One plane on 32 cores: the planner splits it into row shards, and
    // the halo strips of the dilated taps fold back in reference order.
    let (ih, iw) = (71, 71);
    let params = PoolParams::K3S2.with_dilation((2, 2));
    let x = seeded(1, 1, ih, iw, 7);
    let mask = reference::maxpool_argmax_mask(&x, &params).unwrap();
    let (oh, ow) = params.out_dims(ih, iw).unwrap();
    let grads = seeded(1, 1, oh, ow, 8);
    let want_max = reference::maxpool_backward(&mask, &grads, &params, ih, iw).unwrap();
    let want_avg = reference::avgpool_backward(&grads, &params, ih, iw).unwrap();
    let eng = PoolingEngine::ascend910().with_sharding(true);
    for merge in [MergeImpl::VAdd, MergeImpl::Col2Im] {
        let (dx, run) = eng
            .maxpool_backward(&mask, &grads, params, ih, iw, merge)
            .unwrap();
        assert_eq!(dx.data(), want_max.data(), "{merge:?} max");
        assert!(run.core_cycles.len() > 1, "{merge:?}: the plane shards");
        let (dx, run) = eng.avgpool_backward(&grads, params, ih, iw, merge).unwrap();
        assert_eq!(dx.data(), want_avg.data(), "{merge:?} avg");
        assert!(run.core_cycles.len() > 1, "{merge:?}: the plane shards");
    }
}

#[test]
fn dilated_convolution_on_banded_l1_matches_both_references() {
    // A small L1 bands the 36x36 plane; both Cube lowerings keep the
    // (2, 3) dilation on every band and equal both references.
    use davinci_pooling::conv::{run_conv2d_with, ConvLowering};
    let tensor = |n, c, h, w, seed: u64| {
        let mut s = seed | 1;
        Nchw::from_fn(n, c, h, w, |_, _, _, _| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(17);
            F16::from_f32(((s >> 38) % 17) as f32 * 0.25 - 2.0)
        })
    };
    let (input, kernels) = (tensor(1, 48, 36, 36, 11), tensor(16, 48, 3, 3, 12));
    let params = PoolParams::new((3, 3), (1, 1)).with_dilation((2, 3));
    let direct = reference::conv2d_direct(&input, &kernels, &params).unwrap();
    let via_im2col = reference::conv2d_via_im2col(&input, &kernels, &params).unwrap();
    assert_eq!(direct.data(), via_im2col.data(), "the references agree");
    let mut chip = Chip::new(1, CostModel::ascend910_like());
    chip.caps.l1 = 32 * 1024;
    for lowering in [ConvLowering::Implicit, ConvLowering::Materialised] {
        let (got, _) = run_conv2d_with(&input, &kernels, &params, &chip, lowering).unwrap();
        assert_eq!(got.data(), direct.data(), "{lowering:?}");
    }
}
