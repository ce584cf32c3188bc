//! End-to-end correctness: every simulated pooling implementation must
//! produce **bit-identical f16 results** to the golden references in
//! `dv_tensor::reference`, across implementations, strides, kernels,
//! tiling regimes and core counts.

use dv_core::avgpool::avg_scale;
use dv_core::maxpool::{build_forward, build_forward_parallel, Reduction};
use dv_core::{ForwardImpl, LowerError, MergeImpl, PoolProblem, PoolingEngine, RunError, Schedule};
use dv_fp16::F16;
use dv_sim::{Capacities, Chip, CostModel};
use dv_tensor::reference;
use dv_tensor::{Nc1hwc0, Padding, PoolParams};

/// Deterministic pseudo-random f16-exact values (multiples of 0.25 in
/// [-4, 4)).
fn test_input(n: usize, c1: usize, h: usize, w: usize, seed: u32) -> Nc1hwc0 {
    let mut state = seed.wrapping_mul(2654435761).wrapping_add(12345);
    Nc1hwc0::from_fn(n, c1, h, w, |_, _, _, _, _| {
        state = state.wrapping_mul(1664525).wrapping_add(1013904223);
        let v = ((state >> 16) % 32) as f32 - 16.0;
        F16::from_f32(v * 0.25)
    })
}

/// Integer-valued gradients so any summation order is exact in f16.
fn int_grads(n: usize, c1: usize, h: usize, w: usize, seed: u32) -> Nc1hwc0 {
    let mut state = seed.wrapping_mul(0x9E3779B9).wrapping_add(7);
    Nc1hwc0::from_fn(n, c1, h, w, |_, _, _, _, _| {
        state = state.wrapping_mul(1664525).wrapping_add(1013904223);
        F16::from_f32(((state >> 20) % 8) as f32)
    })
}

fn engine() -> PoolingEngine {
    PoolingEngine::new(Chip::new(4, CostModel::ascend910_like()))
}

/// An engine with tiny scratchpads to force multi-band tiling on small
/// inputs.
fn tiny_engine() -> PoolingEngine {
    let mut chip = Chip::new(2, CostModel::ascend910_like());
    chip.caps = Capacities {
        l1: 48 * 1024,
        l0a: 4 * 1024,
        l0b: 4 * 1024,
        l0c: 8 * 1024,
        ub: 24 * 1024,
    };
    PoolingEngine::new(chip)
}

fn assert_tensors_eq(got: &Nc1hwc0, want: &Nc1hwc0, what: &str) {
    assert_eq!(
        (got.n, got.c1, got.h, got.w),
        (want.n, want.c1, want.h, want.w),
        "{what}: shape"
    );
    for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{what}: element {i}: {g:?} != {w:?}"
        );
    }
}

#[test]
fn maxpool_forward_all_impls_k3s2() {
    let input = test_input(1, 2, 23, 19, 1);
    let params = PoolParams::K3S2;
    let want = reference::maxpool_forward(&input, &params).unwrap();
    let eng = engine();
    for impl_ in ForwardImpl::ALL {
        let (got, _) = eng.maxpool_forward(&input, params, impl_).unwrap();
        assert_tensors_eq(&got, &want, &format!("{impl_:?} K3S2"));
    }
}

#[test]
fn maxpool_forward_all_impls_all_strides() {
    // The Fig. 8 stride sweep: kernel (3,3), strides (1,1) (2,2) (3,3).
    let eng = engine();
    for stride in [1usize, 2, 3] {
        let params = PoolParams::new((3, 3), (stride, stride));
        let input = test_input(1, 1, 20, 20, 10 + stride as u32);
        let want = reference::maxpool_forward(&input, &params).unwrap();
        for impl_ in ForwardImpl::ALL {
            let (got, _) = eng.maxpool_forward(&input, params, impl_).unwrap();
            assert_tensors_eq(&got, &want, &format!("{impl_:?} stride {stride}"));
        }
    }
}

#[test]
fn maxpool_forward_vgg_k2s2() {
    let input = test_input(1, 2, 28, 28, 3);
    let params = PoolParams::K2S2;
    let want = reference::maxpool_forward(&input, &params).unwrap();
    let eng = engine();
    for impl_ in ForwardImpl::ALL {
        let (got, _) = eng.maxpool_forward(&input, params, impl_).unwrap();
        assert_tensors_eq(&got, &want, &format!("{impl_:?} K2S2"));
    }
}

#[test]
fn maxpool_forward_asymmetric_kernel_and_stride() {
    let params = PoolParams::new((2, 3), (1, 2));
    let input = test_input(1, 1, 11, 17, 4);
    let want = reference::maxpool_forward(&input, &params).unwrap();
    let eng = engine();
    for impl_ in ForwardImpl::ALL {
        let (got, _) = eng.maxpool_forward(&input, params, impl_).unwrap();
        assert_tensors_eq(&got, &want, &format!("{impl_:?} K(2,3) S(1,2)"));
    }
}

#[test]
fn maxpool_forward_multiband_tiling() {
    // Tiny UB forces several row bands; results must not change.
    let input = test_input(1, 1, 41, 37, 5);
    let params = PoolParams::K3S2;
    let want = reference::maxpool_forward(&input, &params).unwrap();
    let eng = tiny_engine();
    for impl_ in ForwardImpl::ALL {
        let (got, _) = eng.maxpool_forward(&input, params, impl_).unwrap();
        assert_tensors_eq(&got, &want, &format!("{impl_:?} multiband"));
    }
}

#[test]
fn maxpool_forward_im2col_with_padding() {
    let params = PoolParams::with_padding((3, 3), (2, 2), Padding::uniform(1));
    let input = test_input(1, 2, 15, 15, 6);
    let want = reference::maxpool_forward(&input, &params).unwrap();
    let eng = engine();
    let (got, _) = eng
        .maxpool_forward(&input, params, ForwardImpl::Im2col)
        .unwrap();
    assert_tensors_eq(&got, &want, "Im2col padded");
    // The other lowerings reject padding explicitly.
    assert!(eng
        .maxpool_forward(&input, params, ForwardImpl::Standard)
        .is_err());
}

#[test]
fn maxpool_forward_im2col_asymmetric_padding() {
    let params = PoolParams::with_padding(
        (3, 3),
        (2, 2),
        Padding {
            top: 1,
            bottom: 0,
            left: 2,
            right: 1,
        },
    );
    let input = test_input(1, 1, 12, 13, 7);
    let want = reference::maxpool_forward(&input, &params).unwrap();
    let eng = engine();
    let (got, _) = eng
        .maxpool_forward(&input, params, ForwardImpl::Im2col)
        .unwrap();
    assert_tensors_eq(&got, &want, "Im2col asymmetric padding");
}

#[test]
fn maxpool_forward_single_patch_edge() {
    // input exactly kernel-sized: one patch.
    let params = PoolParams::new((3, 3), (2, 2));
    let input = test_input(1, 1, 3, 3, 8);
    let want = reference::maxpool_forward(&input, &params).unwrap();
    let eng = engine();
    for impl_ in ForwardImpl::ALL {
        let (got, _) = eng.maxpool_forward(&input, params, impl_).unwrap();
        assert_tensors_eq(&got, &want, &format!("{impl_:?} single patch"));
    }
}

#[test]
fn maxpool_argmax_both_impls() {
    // Quantize to few distinct values so ties occur and must match the
    // reference's mark-all-ties semantics.
    let mut input = test_input(1, 2, 17, 17, 9);
    for v in input.data_mut() {
        *v = F16::from_f32((v.to_f32() / 2.0).round());
    }
    let params = PoolParams::K3S2;
    let (want_out, want_mask) = reference::maxpool_forward_with_argmax(&input, &params).unwrap();
    let eng = engine();
    for impl_ in [ForwardImpl::Standard, ForwardImpl::Im2col] {
        let (out, mask, _) = eng
            .maxpool_forward_with_argmax(&input, params, impl_)
            .unwrap();
        assert_tensors_eq(&out, &want_out, &format!("{impl_:?} argmax out"));
        assert_eq!(mask.data(), want_mask.data(), "{impl_:?} argmax mask");
    }
}

#[test]
fn maxpool_argmax_rejects_unsupported_impls() {
    let input = test_input(1, 1, 9, 9, 2);
    let eng = engine();
    for impl_ in [ForwardImpl::Expansion, ForwardImpl::XYSplit] {
        assert!(eng
            .maxpool_forward_with_argmax(&input, PoolParams::K3S2, impl_)
            .is_err());
    }
}

#[test]
fn maxpool_backward_both_merges() {
    let input = test_input(1, 2, 21, 21, 11);
    let params = PoolParams::K3S2;
    let mask = reference::maxpool_argmax_mask(&input, &params).unwrap();
    let (oh, ow) = params.out_dims(21, 21).unwrap();
    let grads = int_grads(1, 2, oh, ow, 12);
    let want = reference::maxpool_backward(&mask, &grads, &params, 21, 21).unwrap();
    let eng = engine();
    for merge in [MergeImpl::VAdd, MergeImpl::Col2Im] {
        let (got, _) = eng
            .maxpool_backward(&mask, &grads, params, 21, 21, merge)
            .unwrap();
        assert_tensors_eq(&got, &want, &format!("{merge:?} backward"));
    }
}

/// The backward problem takes its planes from the mask, so gradients
/// with other planes, or a mask cut for another window, are a typed shape
/// error — never a silently zero plane of `dx` or a panic while the GM
/// image is written.
#[test]
fn maxpool_backward_rejects_inconsistent_mask_and_gradients() {
    use dv_core::{LowerError, RunError};
    use dv_tensor::ShapeError;
    let input = test_input(1, 2, 4, 4, 13);
    let params = PoolParams::new((2, 2), (2, 2));
    let mask = reference::maxpool_argmax_mask(&input, &params).unwrap();
    let eng = PoolingEngine::new(Chip::new(1, CostModel::ascend910_like()));
    let k3s1 = PoolParams::new((3, 3), (1, 1)); // same 2x2 patch grid on 4x4
    let cases = [
        (
            "gradients with fewer planes",
            int_grads(1, 1, 2, 2, 14),
            params,
        ),
        (
            "gradients with more planes",
            int_grads(1, 100, 2, 2, 15),
            params,
        ),
        (
            "mask cut for another window",
            int_grads(1, 2, 2, 2, 16),
            k3s1,
        ),
    ];
    for (what, grads, p) in cases {
        for merge in [MergeImpl::VAdd, MergeImpl::Col2Im] {
            let r = eng.maxpool_backward(&mask, &grads, p, 4, 4, merge);
            assert!(
                matches!(
                    r,
                    Err(RunError::Lower(LowerError::Shape(ShapeError::Mismatch(_))))
                ),
                "{what} ({merge:?}): expected a typed shape mismatch, got {:?}",
                r.map(|(dx, _)| (dx.n, dx.c1, dx.h, dx.w))
            );
        }
    }
}

#[test]
fn maxpool_backward_stride_sweep() {
    for stride in [1usize, 2, 3] {
        let params = PoolParams::new((3, 3), (stride, stride));
        let input = test_input(1, 1, 15, 15, 20 + stride as u32);
        let mask = reference::maxpool_argmax_mask(&input, &params).unwrap();
        let (oh, ow) = params.out_dims(15, 15).unwrap();
        let grads = int_grads(1, 1, oh, ow, 21);
        let want = reference::maxpool_backward(&mask, &grads, &params, 15, 15).unwrap();
        let eng = engine();
        for merge in [MergeImpl::VAdd, MergeImpl::Col2Im] {
            let (got, _) = eng
                .maxpool_backward(&mask, &grads, params, 15, 15, merge)
                .unwrap();
            assert_tensors_eq(&got, &want, &format!("{merge:?} backward stride {stride}"));
        }
    }
}

#[test]
fn maxpool_backward_multiband_tiling() {
    // Tiny UB: the halo-carry path across bands must still produce the
    // reference result (integer gradients make every order exact).
    let input = test_input(1, 1, 41, 23, 13);
    let params = PoolParams::K3S2;
    let mask = reference::maxpool_argmax_mask(&input, &params).unwrap();
    let (oh, ow) = params.out_dims(41, 23).unwrap();
    let grads = int_grads(1, 1, oh, ow, 14);
    let want = reference::maxpool_backward(&mask, &grads, &params, 41, 23).unwrap();
    let eng = tiny_engine();
    for merge in [MergeImpl::VAdd, MergeImpl::Col2Im] {
        let (got, _) = eng
            .maxpool_backward(&mask, &grads, params, 41, 23, merge)
            .unwrap();
        assert_tensors_eq(&got, &want, &format!("{merge:?} tiled backward"));
    }
}

#[test]
fn maxpool_backward_overlapping_rows_multiband() {
    // Stride (1,1): heavy vertical overlap across bands exercises the
    // halo carry hardest.
    let input = test_input(1, 1, 30, 10, 15);
    let params = PoolParams::new((3, 3), (1, 1));
    let mask = reference::maxpool_argmax_mask(&input, &params).unwrap();
    let (oh, ow) = params.out_dims(30, 10).unwrap();
    let grads = int_grads(1, 1, oh, ow, 16);
    let want = reference::maxpool_backward(&mask, &grads, &params, 30, 10).unwrap();
    let eng = tiny_engine();
    for merge in [MergeImpl::VAdd, MergeImpl::Col2Im] {
        let (got, _) = eng
            .maxpool_backward(&mask, &grads, params, 30, 10, merge)
            .unwrap();
        assert_tensors_eq(&got, &want, &format!("{merge:?} overlap backward"));
    }
}

#[test]
fn maxpool_backward_gap_rows_multiband() {
    // Stride larger than the kernel leaves input rows no patch touches;
    // tiled backward must still flush them as exact zeros (regression
    // for the dx-window sizing when Sh > Kh).
    let params = PoolParams::new((2, 2), (3, 3));
    let input = test_input(1, 1, 38, 14, 70);
    let mask = reference::maxpool_argmax_mask(&input, &params).unwrap();
    let (oh, ow) = params.out_dims(38, 14).unwrap();
    let grads = int_grads(1, 1, oh, ow, 71);
    let want = reference::maxpool_backward(&mask, &grads, &params, 38, 14).unwrap();
    let eng = tiny_engine();
    for merge in [MergeImpl::VAdd, MergeImpl::Col2Im] {
        let (got, _) = eng
            .maxpool_backward(&mask, &grads, params, 38, 14, merge)
            .unwrap();
        assert_tensors_eq(&got, &want, &format!("{merge:?} gap rows"));
        // rows 2, 5, 8, ... are untouched by any patch and must be zero
        for w in 0..14 {
            assert_eq!(got.get(0, 0, 2, w, 0), F16::ZERO);
            assert_eq!(got.get(0, 0, 5, w, 3), F16::ZERO);
        }
    }
}

#[test]
fn avgpool_forward_standard_and_im2col() {
    let input = test_input(1, 2, 19, 19, 17);
    for params in [PoolParams::K3S2, PoolParams::K2S2] {
        let want = reference::avgpool_forward(&input, &params).unwrap();
        let eng = engine();
        for impl_ in [
            ForwardImpl::Standard,
            ForwardImpl::Im2col,
            ForwardImpl::Expansion,
        ] {
            let (got, _) = eng.avgpool_forward(&input, params, impl_).unwrap();
            assert_tensors_eq(&got, &want, &format!("avg {impl_:?} {params:?}"));
        }
    }
}

/// The X-Y split reduces each window in two passes, re-associating an
/// f16 sum: the shared forward builders refuse it for AvgPool with a
/// typed error rather than return a program that differs from the
/// reference. MaxPool's X-Y split is unaffected.
#[test]
fn shared_builders_refuse_avgpool_xysplit() {
    let prob = PoolProblem::new(1, 1, 17, 17, PoolParams::K3S2).unwrap();
    let sum = Reduction::Sum {
        scale: avg_scale(&prob),
    };
    let (gm_in, gm_out, caps) = (0, prob.in_bytes(), Capacities::ASCEND910);
    let xy = ForwardImpl::XYSplit;
    for (what, result) in [
        (
            "build_forward",
            build_forward(&prob, xy, sum, gm_in, gm_out, caps),
        ),
        (
            "build_forward_parallel",
            build_forward_parallel(&prob, xy, sum, gm_in, gm_out, caps, 4, Schedule::default()),
        ),
    ] {
        assert!(
            matches!(result, Err(LowerError::Unsupported(_))),
            "{what} must refuse the AvgPool X-Y split"
        );
    }
    assert!(build_forward(&prob, xy, Reduction::Max, gm_in, gm_out, caps).is_ok());
}

#[test]
fn avgpool_forward_xysplit_is_a_typed_error() {
    let input = test_input(1, 1, 17, 17, 3);
    for eng in [engine(), engine().with_band_splitting(true)] {
        match eng.avgpool_forward(&input, PoolParams::K3S2, ForwardImpl::XYSplit) {
            Err(RunError::Lower(LowerError::Unsupported(_))) => {}
            other => panic!(
                "expected a typed refusal, got {:?}",
                other.map(|r| r.1.cycles)
            ),
        }
    }
}

#[test]
fn avgpool_backward_both_merges() {
    let params = PoolParams::K3S2;
    let (oh, ow) = params.out_dims(21, 21).unwrap();
    let grads = int_grads(1, 2, oh, ow, 18);
    let want = reference::avgpool_backward(&grads, &params, 21, 21).unwrap();
    let eng = engine();
    for merge in [MergeImpl::VAdd, MergeImpl::Col2Im] {
        let (got, _) = eng.avgpool_backward(&grads, params, 21, 21, merge).unwrap();
        assert_tensors_eq(&got, &want, &format!("avg {merge:?} backward"));
    }
}

#[test]
fn results_independent_of_core_count() {
    let input = test_input(1, 6, 17, 17, 19);
    let params = PoolParams::K3S2;
    let mut outputs = Vec::new();
    for cores in [1usize, 3, 32] {
        let eng = PoolingEngine::new(Chip::new(cores, CostModel::ascend910_like()));
        let (out, run) = eng
            .maxpool_forward(&input, params, ForwardImpl::Im2col)
            .unwrap();
        outputs.push((cores, out, run));
    }
    for w in outputs.windows(2) {
        assert_eq!(
            w[0].1.data(),
            w[1].1.data(),
            "outputs differ between {} and {} cores",
            w[0].0,
            w[1].0
        );
        // total work is identical; wall-clock cycles shrink (or stay) as
        // cores grow
        assert_eq!(w[0].2.total.cycles, w[1].2.total.cycles);
        assert!(w[0].2.cycles >= w[1].2.cycles);
    }
}

#[test]
fn im2col_beats_standard_at_stride_2_and_loses_at_stride_1() {
    // The headline structural result (Fig. 8a vs 8b), as a regression
    // test on the cost model.
    let eng = PoolingEngine::new(Chip::new(1, CostModel::ascend910_like()));
    let input = test_input(1, 1, 48, 48, 23);

    let s2 = PoolParams::new((3, 3), (2, 2));
    let (_, std_run) = eng
        .maxpool_forward(&input, s2, ForwardImpl::Standard)
        .unwrap();
    let (_, im_run) = eng
        .maxpool_forward(&input, s2, ForwardImpl::Im2col)
        .unwrap();
    assert!(
        im_run.cycles < std_run.cycles,
        "stride 2: im2col ({}) must beat standard ({})",
        im_run.cycles,
        std_run.cycles
    );

    let s1 = PoolParams::new((3, 3), (1, 1));
    let (_, std_run1) = eng
        .maxpool_forward(&input, s1, ForwardImpl::Standard)
        .unwrap();
    let (_, im_run1) = eng
        .maxpool_forward(&input, s1, ForwardImpl::Im2col)
        .unwrap();
    assert!(
        std_run1.cycles < im_run1.cycles,
        "stride 1: standard ({}) must beat im2col ({})",
        std_run1.cycles,
        im_run1.cycles
    );
}

#[test]
fn col2im_merge_beats_vadd_merge() {
    let input = test_input(1, 1, 41, 41, 29);
    let params = PoolParams::K3S2;
    let mask = reference::maxpool_argmax_mask(&input, &params).unwrap();
    let (oh, ow) = params.out_dims(41, 41).unwrap();
    let grads = int_grads(1, 1, oh, ow, 30);
    let eng = PoolingEngine::new(Chip::new(1, CostModel::ascend910_like()));
    let (_, vadd) = eng
        .maxpool_backward(&mask, &grads, params, 41, 41, MergeImpl::VAdd)
        .unwrap();
    let (_, col2im) = eng
        .maxpool_backward(&mask, &grads, params, 41, 41, MergeImpl::Col2Im)
        .unwrap();
    assert!(
        col2im.cycles < vadd.cycles,
        "col2im merge ({}) must beat vadd merge ({})",
        col2im.cycles,
        vadd.cycles
    );
}

#[test]
fn training_round_trip_forward_argmax_backward() {
    // Full training-step pipeline on the accelerated path: forward with
    // argmax (im2col), then backward (col2im), everything simulated.
    let input = test_input(1, 2, 19, 19, 31);
    let params = PoolParams::K3S2;
    let eng = engine();
    let (out, mask, _) = eng
        .maxpool_forward_with_argmax(&input, params, ForwardImpl::Im2col)
        .unwrap();
    let grads = int_grads(1, 2, out.h, out.w, 32);
    let (dx, _) = eng
        .maxpool_backward(&mask, &grads, params, 19, 19, MergeImpl::Col2Im)
        .unwrap();
    // Oracle chain entirely from references.
    let ref_mask = reference::maxpool_argmax_mask(&input, &params).unwrap();
    let want = reference::maxpool_backward(&ref_mask, &grads, &params, 19, 19).unwrap();
    assert_eq!(mask.data(), ref_mask.data());
    assert_tensors_eq(&dx, &want, "training round trip");
}

#[test]
fn issue_counts_match_paper_formulas() {
    // "vmax is issued Oh*Ow*Kh times" (standard) vs "only Kh*Kw times"
    // (im2col, modulo the 255-repeat chunking) — check the lowering
    // produces exactly the instruction counts the paper reasons about.
    let input = test_input(1, 1, 21, 21, 33);
    let params = PoolParams::K3S2;
    let (oh, ow) = params.out_dims(21, 21).unwrap();
    let eng = PoolingEngine::new(Chip::new(1, CostModel::ascend910_like()));

    let (_, std_run) = eng
        .maxpool_forward(&input, params, ForwardImpl::Standard)
        .unwrap();
    assert_eq!(
        std_run.total.issues_of("vmax"),
        (oh * ow * params.kh) as u64,
        "standard vmax issues"
    );

    let (_, im_run) = eng
        .maxpool_forward(&input, params, ForwardImpl::Im2col)
        .unwrap();
    // single band, patches = 100 -> 7 fractals -> 14 repeats, one issue
    // per (kh, kw) plane
    assert_eq!(
        im_run.total.issues_of("vmax"),
        (params.kh * params.kw) as u64,
        "im2col vmax issues"
    );
    assert_eq!(
        im_run.total.issues_of("im2col"),
        (params.kh * params.kw) as u64,
        "one mode-1 Im2Col per (kh, kw)"
    );

    // Backward: vadd merge issues Kh*Kw*Oh*Ow vadds; col2im issues Kh*Kw.
    let mask = reference::maxpool_argmax_mask(&input, &params).unwrap();
    let grads = int_grads(1, 1, oh, ow, 34);
    let (_, vadd_run) = eng
        .maxpool_backward(&mask, &grads, params, 21, 21, MergeImpl::VAdd)
        .unwrap();
    assert_eq!(
        vadd_run.total.issues_of("vadd"),
        (params.kh * params.kw * oh * ow) as u64,
        "standard merge vadd issues"
    );
    let (_, c2i_run) = eng
        .maxpool_backward(&mask, &grads, params, 21, 21, MergeImpl::Col2Im)
        .unwrap();
    assert_eq!(
        c2i_run.total.issues_of("col2im"),
        (params.kh * params.kw) as u64,
        "col2im merge issues"
    );
}

#[test]
fn vector_utilization_reflects_mask_saturation() {
    let input = test_input(1, 1, 33, 33, 35);
    let params = PoolParams::K3S2;
    let eng = PoolingEngine::new(Chip::new(1, CostModel::ascend910_like()));
    let (_, std_run) = eng
        .maxpool_forward(&input, params, ForwardImpl::Standard)
        .unwrap();
    let (_, im_run) = eng
        .maxpool_forward(&input, params, ForwardImpl::Im2col)
        .unwrap();
    // The standard lowering can only enable the 16 C0 lanes; the im2col
    // lowering saturates.
    assert!(
        std_run.total.vector_utilization() < 0.25,
        "standard utilization {}",
        std_run.total.vector_utilization()
    );
    assert!(
        im_run.total.vector_utilization() > 0.9,
        "im2col utilization {}",
        im_run.total.vector_utilization()
    );
}

#[test]
fn maxpool_backward_with_padding_single_band() {
    // Padding drops merge contributions that land in the border; both
    // merges and the argmax path must agree with the reference.
    let params = PoolParams::with_padding((3, 3), (2, 2), Padding::uniform(1));
    let input = test_input(1, 1, 13, 13, 40);
    let mask = reference::maxpool_argmax_mask(&input, &params).unwrap();
    let (oh, ow) = params.out_dims(13, 13).unwrap();
    let grads = int_grads(1, 1, oh, ow, 41);
    let want = reference::maxpool_backward(&mask, &grads, &params, 13, 13).unwrap();
    let eng = engine();
    for merge in [MergeImpl::VAdd, MergeImpl::Col2Im] {
        let (got, _) = eng
            .maxpool_backward(&mask, &grads, params, 13, 13, merge)
            .unwrap();
        assert_tensors_eq(&got, &want, &format!("{merge:?} padded backward"));
    }
}

#[test]
fn argmax_im2col_with_padding() {
    let params = PoolParams::with_padding((3, 3), (2, 2), Padding::uniform(1));
    let input = test_input(1, 1, 11, 11, 42);
    let (want_out, want_mask) = reference::maxpool_forward_with_argmax(&input, &params).unwrap();
    let eng = engine();
    let (out, mask, _) = eng
        .maxpool_forward_with_argmax(&input, params, ForwardImpl::Im2col)
        .unwrap();
    assert_tensors_eq(&out, &want_out, "padded argmax out");
    assert_eq!(mask.data(), want_mask.data(), "padded argmax mask");
}

#[test]
fn avgpool_im2col_with_padding() {
    let params = PoolParams::with_padding((3, 3), (2, 2), Padding::uniform(1));
    let input = test_input(1, 2, 11, 11, 43);
    let want = reference::avgpool_forward(&input, &params).unwrap();
    let eng = engine();
    let (got, _) = eng
        .avgpool_forward(&input, params, ForwardImpl::Im2col)
        .unwrap();
    assert_tensors_eq(&got, &want, "padded avg forward");
}

#[test]
fn engine_rejects_mismatched_backward_shapes() {
    let params = PoolParams::K3S2;
    let input = test_input(1, 1, 11, 11, 44);
    let mask = reference::maxpool_argmax_mask(&input, &params).unwrap();
    let eng = engine();
    // gradient plane doesn't match the patch grid
    let bad_grads = int_grads(1, 1, 9, 9, 45);
    assert!(eng
        .maxpool_backward(&mask, &bad_grads, params, 11, 11, MergeImpl::Col2Im)
        .is_err());
    // avg: same check
    assert!(eng
        .avgpool_backward(&bad_grads, params, 11, 11, MergeImpl::Col2Im)
        .is_err());
}

#[test]
fn engine_rejects_impossible_geometry() {
    let eng = engine();
    let input = test_input(1, 1, 2, 2, 46);
    assert!(eng
        .maxpool_forward(&input, PoolParams::K3S2, ForwardImpl::Im2col)
        .is_err());
}

#[test]
fn multiband_vertical_padding_is_rejected_not_miscomputed() {
    // Force tiling with vertical padding: the lowering must refuse
    // rather than produce wrong values.
    let params = PoolParams::with_padding((3, 3), (2, 2), Padding::uniform(1));
    let input = test_input(1, 1, 61, 61, 47);
    let eng = tiny_engine();
    let r = eng.maxpool_forward(&input, params, ForwardImpl::Im2col);
    assert!(r.is_err(), "vertical padding + tiling must be rejected");
}

#[test]
fn global_pooling_kernel_covers_whole_image() {
    // Kernel = image extent: one patch per plane (global max pooling).
    let params = PoolParams::new((9, 9), (1, 1));
    let input = test_input(1, 2, 9, 9, 48);
    let want = reference::maxpool_forward(&input, &params).unwrap();
    assert_eq!((want.h, want.w), (1, 1));
    let eng = engine();
    for impl_ in ForwardImpl::ALL {
        let (got, _) = eng.maxpool_forward(&input, params, impl_).unwrap();
        assert_tensors_eq(&got, &want, &format!("{impl_:?} global pool"));
    }
}

#[test]
fn relu_matches_scalar_reference() {
    let input = test_input(2, 3, 21, 17, 60);
    let eng = engine();
    let (out, run) = eng.relu(&input).unwrap();
    assert_eq!((out.n, out.c1, out.h, out.w), (2, 3, 21, 17));
    for (got, x) in out.data().iter().zip(input.data()) {
        assert_eq!(*got, x.max(F16::ZERO), "relu({x:?})");
    }
    assert!(run.total.issues_of("vrelu") > 0);
    assert!(
        run.total.vector_utilization() > 0.9,
        "relu is a dense elementwise op and should saturate"
    );
}

#[test]
fn relu_tiles_large_planes() {
    // plane larger than half the tiny UB forces the chunk loop
    let input = test_input(1, 1, 64, 64, 61);
    let eng = tiny_engine();
    let (out, _) = eng.relu(&input).unwrap();
    for (got, x) in out.data().iter().zip(input.data()) {
        assert_eq!(*got, x.max(F16::ZERO));
    }
}

#[test]
fn band_splitting_preserves_results_and_scales() {
    let input = test_input(1, 1, 57, 41, 50);
    let params = PoolParams::K3S2;
    let chip = Chip::new(8, CostModel::ascend910_like());
    let plane_only = PoolingEngine::new(chip.clone());
    let split = PoolingEngine::new(chip).with_band_splitting(true);
    for impl_ in ForwardImpl::ALL {
        let (a, run_a) = plane_only.maxpool_forward(&input, params, impl_).unwrap();
        let (b, run_b) = split.maxpool_forward(&input, params, impl_).unwrap();
        assert_eq!(a.data(), b.data(), "{impl_:?}: splitting changed results");
        assert!(
            run_b.cycles <= run_a.cycles,
            "{impl_:?}: splitting must not be slower ({} > {})",
            run_b.cycles,
            run_a.cycles
        );
        // total work may grow slightly (per-band DMA), but not wildly
        assert!(run_b.total.cycles < run_a.total.cycles * 2);
    }
    // argmax path splits too
    let (o1, m1, _) = plane_only
        .maxpool_forward_with_argmax(&input, params, ForwardImpl::Im2col)
        .unwrap();
    let (o2, m2, _) = split
        .maxpool_forward_with_argmax(&input, params, ForwardImpl::Im2col)
        .unwrap();
    assert_eq!(o1.data(), o2.data());
    assert_eq!(m1.data(), m2.data());
}

#[test]
fn batch_dimension_n_greater_than_one() {
    let input = test_input(2, 2, 13, 13, 36);
    let params = PoolParams::K3S2;
    let want = reference::maxpool_forward(&input, &params).unwrap();
    let eng = engine();
    for impl_ in ForwardImpl::ALL {
        let (got, _) = eng.maxpool_forward(&input, params, impl_).unwrap();
        assert_tensors_eq(&got, &want, &format!("{impl_:?} N=2"));
    }
}
