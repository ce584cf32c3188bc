//! Batch-folding behaviour tests: when the Mode-0 fold engages, when it
//! falls back to the per-plane schedule, and how failures are typed.

use dv_akg::TilingError;
use dv_core::{ForwardImpl, LowerError, MergeImpl, PoolingEngine, RunError};
use dv_fp16::F16;
use dv_sim::{Capacities, Chip, CostModel};
use dv_tensor::{reference, Nc1hwc0, Padding, PoolParams};

fn test_input(n: usize, c1: usize, h: usize, w: usize, seed: u32) -> Nc1hwc0 {
    let mut state = seed.wrapping_mul(0x9E3779B9).wrapping_add(7);
    Nc1hwc0::from_fn(n, c1, h, w, |_, _, _, _, _| {
        state = state.wrapping_mul(1664525).wrapping_add(1013904223);
        F16::from_f32(((state >> 20) % 8) as f32)
    })
}

/// A single-core engine whose UB is clamped to `ub` bytes.
fn engine_with_ub(ub: usize) -> PoolingEngine {
    let mut chip = Chip::new(1, CostModel::ascend910_like());
    chip.caps = Capacities {
        ub,
        ..Capacities::ASCEND910
    };
    PoolingEngine::new(chip)
}

#[test]
fn fold_engages_and_cuts_im2col_issues() {
    // Fig. 7-style shape where one fold chunk covers N*Kh*Kw = 36
    // positions per output fractal: 19 output fractals need 19 issues,
    // against N*Kh*Kw = 36 per-plane Mode-1 issues.
    let input = test_input(4, 1, 35, 35, 11);
    let params = PoolParams::K3S2;
    let want = reference::maxpool_forward(&input, &params).unwrap();

    let folded = engine_with_ub(Capacities::ASCEND910.ub);
    let per_plane = folded.clone().with_batching(false);
    let (out_b, run_b) = folded
        .maxpool_forward(&input, params, ForwardImpl::Im2col)
        .unwrap();
    let (out_p, run_p) = per_plane
        .maxpool_forward(&input, params, ForwardImpl::Im2col)
        .unwrap();

    assert_eq!(out_b.data(), want.data(), "fold diverged from reference");
    assert_eq!(out_b.data(), out_p.data(), "fold diverged from per-plane");
    let (ib, ip) = (
        run_b.total.issues_of("im2col"),
        run_p.total.issues_of("im2col"),
    );
    assert!(ib < ip, "fold must cut Im2Col issues ({ib} >= {ip})");
    // N=4, K3: 19 output fractals, chains of 36 fit one repeat each.
    assert_eq!(ib, 19);
    assert_eq!(ip, 36);
}

#[test]
fn fold_keeps_dilation_on_banded_plans() {
    // Small UBs band the 40x40 planes, so the fold's partial bands build
    // their own Im2Col geometry; each must keep the window's dilation.
    // `argmax` marks the plans the masked fold still fits.
    let cases = [
        (PoolParams::K3S2.with_dilation((2, 2)), 16, false),
        (PoolParams::K3S2.with_dilation((2, 2)), 32, true),
        (PoolParams::K2S2.with_dilation((3, 3)), 16, true),
    ];
    let input = test_input(2, 1, 40, 40, 37);
    for (params, ub_kib, argmax) in cases {
        let folded = engine_with_ub(ub_kib * 1024);
        let per_plane = folded.clone().with_batching(false);
        let want = reference::maxpool_forward(&input, &params).unwrap();
        let (out_b, run_b) = folded
            .maxpool_forward(&input, params, ForwardImpl::Im2col)
            .unwrap();
        let (_, run_p) = per_plane
            .maxpool_forward(&input, params, ForwardImpl::Im2col)
            .unwrap();
        assert_eq!(out_b.data(), want.data(), "{params:?} at {ub_kib} KiB");
        let (ib, ip) = (
            run_b.total.issues_of("im2col"),
            run_p.total.issues_of("im2col"),
        );
        assert!(ib < ip, "fold must engage ({ib} >= {ip}) for {params:?}");

        if argmax {
            let (want_out, want_mask) =
                reference::maxpool_forward_with_argmax(&input, &params).unwrap();
            let (out, mask, run_b) = folded
                .maxpool_forward_with_argmax(&input, params, ForwardImpl::Im2col)
                .unwrap();
            let (_, _, run_p) = per_plane
                .maxpool_forward_with_argmax(&input, params, ForwardImpl::Im2col)
                .unwrap();
            assert_eq!(out.data(), want_out.data(), "{params:?} argmax out");
            assert_eq!(mask.data(), want_mask.data(), "{params:?} argmax mask");
            let (ib, ip) = (
                run_b.total.issues_of("im2col"),
                run_p.total.issues_of("im2col"),
            );
            assert!(
                ib < ip,
                "masked fold must engage ({ib} >= {ip}) for {params:?}"
            );
        }
    }
}

#[test]
fn unprofitable_fold_falls_back_to_per_plane() {
    // At the full 256 KiB UB a 71x71 K3S2 plane runs in few, long bands:
    // per-plane Mode-1 chunks at repeat 255 beat one-issue-per-fractal
    // Mode-0 chains, so the engine must keep the per-plane schedule.
    let input = test_input(4, 1, 71, 71, 13);
    let params = PoolParams::K3S2;
    let folded = engine_with_ub(Capacities::ASCEND910.ub);
    let per_plane = folded.clone().with_batching(false);
    let (out_b, run_b) = folded
        .maxpool_forward(&input, params, ForwardImpl::Im2col)
        .unwrap();
    let (out_p, run_p) = per_plane
        .maxpool_forward(&input, params, ForwardImpl::Im2col)
        .unwrap();
    assert_eq!(out_b.data(), out_p.data());
    assert_eq!(
        run_b.total.issues_of("im2col"),
        run_p.total.issues_of("im2col"),
        "unprofitable fold must fall back to the per-plane schedule"
    );
}

#[test]
fn capacity_overflow_falls_back_not_errors() {
    // One Mode-0 chain is N*Kh*Kw fractals = 36 KiB for N=8, K3 — more
    // than the whole 16 KiB UB, so the fold cannot plan even one chunk.
    // The engine must fall back to the per-plane schedule, not error.
    let input = test_input(8, 1, 41, 41, 17);
    let params = PoolParams::K3S2;
    let want = reference::maxpool_forward(&input, &params).unwrap();

    let folded = engine_with_ub(16 * 1024);
    let per_plane = folded.clone().with_batching(false);
    let (out_b, run_b) = folded
        .maxpool_forward(&input, params, ForwardImpl::Im2col)
        .unwrap();
    let (_, run_p) = per_plane
        .maxpool_forward(&input, params, ForwardImpl::Im2col)
        .unwrap();
    assert_eq!(out_b.data(), want.data());
    assert_eq!(
        run_b.total.issues_of("im2col"),
        run_p.total.issues_of("im2col"),
        "capacity fallback must reproduce the per-plane schedule"
    );
}

#[test]
fn padded_multiband_batched_reports_typed_error() {
    // Vertical padding + a UB too small for one band: no schedule exists
    // (mirroring the single-plane PaddedMultiBand rejection), and with
    // batching on the error must carry the batched type with the
    // per-plane cause inside.
    let params = PoolParams::with_padding((3, 3), (2, 2), Padding::uniform(1));
    let input = test_input(4, 1, 61, 61, 19);
    let eng = engine_with_ub(32 * 1024);

    let err = eng
        .maxpool_forward(&input, params, ForwardImpl::Im2col)
        .unwrap_err();
    match err {
        RunError::Lower(LowerError::Tiling(TilingError::Batched { n, cause })) => {
            assert_eq!(n, 4);
            assert!(
                matches!(*cause, TilingError::PaddedMultiBand { .. }),
                "cause must be the per-plane PaddedMultiBand, got {cause:?}"
            );
        }
        other => panic!("expected typed batched tiling error, got {other:?}"),
    }

    // The per-plane schedule rejects the same shape with the plain error
    // (the PR 3 single-plane behaviour the batched variant mirrors).
    let err = eng
        .clone()
        .with_batching(false)
        .maxpool_forward(&input, params, ForwardImpl::Im2col)
        .unwrap_err();
    assert!(
        matches!(
            err,
            RunError::Lower(LowerError::Tiling(TilingError::PaddedMultiBand { .. }))
        ),
        "per-plane error must stay untyped-batched, got {err:?}"
    );
}

#[test]
fn strict_builder_types_capacity_failures() {
    use dv_core::build_forward_batched;
    use dv_core::maxpool::Reduction;
    use dv_core::PoolProblem;

    let prob = PoolProblem::new(8, 1, 41, 41, PoolParams::K3S2).unwrap();
    let caps = Capacities {
        ub: 16 * 1024,
        ..Capacities::ASCEND910
    };
    let err = build_forward_batched(
        &prob,
        Reduction::Max,
        0,
        4096,
        None,
        caps,
        dv_core::Schedule::default(),
    )
    .unwrap_err();
    match err {
        LowerError::Tiling(TilingError::Batched { n, cause }) => {
            assert_eq!(n, 8);
            assert!(
                matches!(*cause, TilingError::Capacity { .. }),
                "cause must be Capacity, got {cause:?}"
            );
        }
        other => panic!("expected batched capacity error, got {other:?}"),
    }
}

#[test]
fn backward_consolidation_saves_dispatch_and_stays_bit_exact() {
    let params = PoolParams::K3S2;
    let input = test_input(4, 2, 21, 21, 23);
    let x_ref = reference::maxpool_argmax_mask(&input, &params).unwrap();
    let (oh, ow) = params.out_dims(21, 21).unwrap();
    let dy = test_input(4, 2, oh, ow, 29);
    let want = reference::maxpool_backward(&x_ref, &dy, &params, 21, 21).unwrap();

    let folded = engine_with_ub(Capacities::ASCEND910.ub);
    let per_plane = folded.clone().with_batching(false);
    let (dx_b, run_b) = folded
        .maxpool_backward(&x_ref, &dy, params, 21, 21, MergeImpl::Col2Im)
        .unwrap();
    let (dx_p, run_p) = per_plane
        .maxpool_backward(&x_ref, &dy, params, 21, 21, MergeImpl::Col2Im)
        .unwrap();
    assert_eq!(dx_b.data(), want.data());
    assert_eq!(dx_b.data(), dx_p.data());
    // Same instruction streams, fewer program dispatches (C1 programs
    // instead of N*C1) — strictly cheaper on one core.
    assert!(
        run_b.cycles < run_p.cycles,
        "consolidation must save dispatch overhead ({} >= {})",
        run_b.cycles,
        run_p.cycles
    );
}

#[test]
fn fold_declines_when_it_would_hurt_occupancy() {
    // 4 planes over 4 cores run fully parallel per-plane; folding to one
    // program per c1 (here: 1) would serialise them. The guard must keep
    // the per-plane schedule on multi-core chips with C1 < cores.
    let input = test_input(4, 1, 35, 35, 31);
    let params = PoolParams::K3S2;
    let multi = PoolingEngine::new(Chip::new(4, CostModel::ascend910_like()));
    let per_plane = multi.clone().with_batching(false);
    let (out_b, run_b) = multi
        .maxpool_forward(&input, params, ForwardImpl::Im2col)
        .unwrap();
    let (out_p, run_p) = per_plane
        .maxpool_forward(&input, params, ForwardImpl::Im2col)
        .unwrap();
    assert_eq!(out_b.data(), out_p.data());
    assert_eq!(
        run_b.total.issues_of("im2col"),
        run_p.total.issues_of("im2col"),
        "fold must not engage when C1 < cores"
    );
    assert_eq!(run_b.cycles, run_p.cycles);
}
