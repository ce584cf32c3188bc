//! Differential property tests across the issue models.
//!
//! The dual-pipe scheduler reorders *timing*, never *execution*: results
//! must be bit-identical to the legacy single-issue machine and to the
//! golden references (`dv_tensor::reference` for single operators,
//! `dv_nn::reference_forward` for whole models), on random geometries
//! covering kernel/stride/padding, max/avg, and forward/backward.
//! Alongside the bit-match, every case checks the timing contract on the
//! *same* program (the schedule does not depend on the issue model, so
//! both engines lower identically): the dual-pipe makespan never exceeds
//! the serial sum; the serial machine never books a stall; and
//! per-instruction busy-cycle charges are issue-model-independent.

use dv_core::{ForwardImpl, MergeImpl, PoolingEngine};
use dv_fp16::F16;
use dv_nn::{reference_forward, Layer, Sequential};
use dv_sim::{Capacities, Chip, ChipRun, CostModel};
use dv_tensor::reference;
use dv_tensor::{Nc1hwc0, Nchw, Padding, PoolParams};
use proptest::prelude::*;
use proptest::sample::select;

/// Which pooling operator a case exercises.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Op {
    Max,
    Avg,
}

/// The issue models under test: dual-pipe, then the legacy single-issue
/// oracle.
fn engines() -> [(&'static str, PoolingEngine); 2] {
    [
        (
            "dual_pipe",
            PoolingEngine::new(Chip::new(2, CostModel::ascend910_like())),
        ),
        (
            "single_issue",
            PoolingEngine::new(Chip::new(2, CostModel::single_issue())),
        ),
    ]
}

/// Timing contract shared by every differential case: `runs[0]` is the
/// dual-pipe run and `runs[1]` the single-issue run of the same program.
fn check_timing(what: &str, runs: &[ChipRun; 2]) -> Result<(), TestCaseError> {
    let (dual, single) = (&runs[0], &runs[1]);
    prop_assert!(
        dual.cycles <= single.cycles,
        "{}: dual-pipe makespan {} exceeds serial {}",
        what,
        dual.cycles,
        single.cycles
    );
    prop_assert_eq!(
        single.total.stall_cycles,
        0,
        "{}: the serial machine never stalls",
        what
    );
    prop_assert_eq!(
        dual.total.busy_cycles(),
        single.total.busy_cycles(),
        "{}: per-instruction charges diverge between the issue models",
        what
    );
    Ok(())
}

/// Random kernel/stride/padding geometry plus an input size that keeps
/// `out_dims` valid (padding stays below the kernel extent).
fn geometry() -> impl Strategy<Value = (PoolParams, usize, usize)> {
    (
        2usize..=3,
        2usize..=3,
        1usize..=3,
        1usize..=3,
        0usize..=1,
        0usize..=1,
        0usize..=1,
        0usize..=1,
    )
        .prop_flat_map(|(kh, kw, sh, sw, top, bottom, left, right)| {
            let padding = Padding {
                top,
                bottom,
                left,
                right,
            };
            (
                Just(PoolParams::with_padding((kh, kw), (sh, sw), padding)),
                kh + 4..kh + 14,
                kw + 4..kw + 14,
            )
        })
}

fn batch_input(n: usize, c1: usize, h: usize, w: usize, seed: u64) -> Nc1hwc0 {
    let mut s = seed | 1;
    Nc1hwc0::from_fn(n, c1, h, w, |_, _, _, _, _| {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(99);
        F16::from_f32(((s >> 40) % 33) as f32 - 16.0)
    })
}

fn input(c1: usize, h: usize, w: usize, seed: u64) -> Nc1hwc0 {
    batch_input(1, c1, h, w, seed)
}

/// Integer-valued gradients so every summation order is exact in fp16.
fn batch_grads(n: usize, c1: usize, oh: usize, ow: usize, seed: u64) -> Nc1hwc0 {
    let mut s = seed ^ 0xD1FF;
    Nc1hwc0::from_fn(n, c1, oh, ow, |_, _, _, _, _| {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(17);
        F16::from_f32(((s >> 41) % 8) as f32)
    })
}

fn grads(oh: usize, ow: usize, seed: u64) -> Nc1hwc0 {
    batch_grads(1, 1, oh, ow, seed)
}

/// Single-core engine pairs (batch folding engages on one core), both
/// issue models, with the UB optionally shrunk to 16 KiB — which forces
/// the fold into its capacity-fallback path and the lowerings into row
/// bands.
fn batch_engines(db: bool, tiny_ub: bool) -> Vec<(&'static str, PoolingEngine)> {
    [
        ("dual_pipe", CostModel::ascend910_like()),
        ("single_issue", CostModel::single_issue()),
    ]
    .into_iter()
    .map(|(name, cost)| {
        let mut chip = Chip::new(1, cost);
        if tiny_ub {
            chip.caps = Capacities {
                ub: 16384,
                ..Capacities::ASCEND910
            };
        }
        (name, PoolingEngine::new(chip).with_double_buffering(db))
    })
    .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Forward im2col lowering: both issue models bit-match the tensor
    /// reference (and therefore each other) for max and avg pooling on
    /// random padded geometries.
    #[test]
    fn forward_bitmatches_reference_in_both_issue_models(
        (params, ih, iw) in geometry(),
        c1 in 1usize..=2,
        op in select(vec![Op::Max, Op::Avg]),
        seed in any::<u64>(),
    ) {
        prop_assume!(params.out_dims(ih, iw).is_ok());
        let x = input(c1, ih, iw, seed);
        let want = match op {
            Op::Max => reference::maxpool_forward(&x, &params).unwrap(),
            Op::Avg => reference::avgpool_forward(&x, &params).unwrap(),
        };
        let mut runs = Vec::new();
        for (model, eng) in engines() {
            let (got, run) = match op {
                Op::Max => eng.maxpool_forward(&x, params, ForwardImpl::Im2col),
                Op::Avg => eng.avgpool_forward(&x, params, ForwardImpl::Im2col),
            }
            .unwrap();
            prop_assert_eq!(
                got.data(),
                want.data(),
                "{} {:?} fwd {:?} {}x{}",
                model,
                op,
                params,
                ih,
                iw
            );
            runs.push(run);
        }
        check_timing("forward", &[runs.remove(0), runs.remove(0)])?;
    }

    /// Backward col2im merge: both issue models bit-match the tensor
    /// reference for max (through the argmax mask) and avg pooling.
    #[test]
    fn backward_bitmatches_reference_in_both_issue_models(
        (params, ih, iw) in geometry(),
        op in select(vec![Op::Max, Op::Avg]),
        seed in any::<u64>(),
    ) {
        prop_assume!(params.out_dims(ih, iw).is_ok());
        let x = input(1, ih, iw, seed);
        let (oh, ow) = params.out_dims(ih, iw).unwrap();
        let dy = grads(oh, ow, seed);
        let mask = reference::maxpool_argmax_mask(&x, &params).unwrap();
        let want = match op {
            Op::Max => reference::maxpool_backward(&mask, &dy, &params, ih, iw).unwrap(),
            Op::Avg => reference::avgpool_backward(&dy, &params, ih, iw).unwrap(),
        };
        let mut runs = Vec::new();
        for (model, eng) in engines() {
            let (got, run) = match op {
                Op::Max => eng.maxpool_backward(&mask, &dy, params, ih, iw, MergeImpl::Col2Im),
                Op::Avg => eng.avgpool_backward(&dy, params, ih, iw, MergeImpl::Col2Im),
            }
            .unwrap();
            prop_assert_eq!(
                got.data(),
                want.data(),
                "{} {:?} bwd {:?} {}x{}",
                model,
                op,
                params,
                ih,
                iw
            );
            runs.push(run);
        }
        check_timing("backward", &[runs.remove(0), runs.remove(0)])?;
    }

    /// Every forward lowering (not just im2col) is issue-model-invariant:
    /// dual-pipe and single-issue runs of the same lowering produce
    /// bit-identical outputs. Unpadded geometry, because the Standard
    /// lowering rejects padding.
    #[test]
    fn all_lowerings_are_issue_model_invariant(
        (params, ih, iw) in geometry(),
        seed in any::<u64>(),
    ) {
        let params = PoolParams::new((params.kh, params.kw), (params.sh, params.sw));
        let x = input(1, ih, iw, seed);
        let [(_, dual), (_, single)] = engines();
        for impl_ in ForwardImpl::ALL {
            let (out_d, run_d) = dual.maxpool_forward(&x, params, impl_).unwrap();
            let (out_s, run_s) = single.maxpool_forward(&x, params, impl_).unwrap();
            prop_assert_eq!(
                out_d.data(),
                out_s.data(),
                "{:?}: issue model changed results",
                impl_
            );
            check_timing("lowering", &[run_d, run_s])?;
        }
    }

    /// Band splitting is purely a scheduling decision: with the UB shrunk
    /// so the lowerings must split into row bands (including `sh < kh`
    /// halo overlap between bands), every lowering and merge stays
    /// bit-identical to the golden reference — with double-buffering on
    /// and off, under both issue models — and the timing contract between
    /// the issue models still holds on the banded programs.
    #[test]
    fn band_splitting_and_double_buffering_are_bit_exact(
        (params, ih, iw) in geometry(),
        op in select(vec![Op::Max, Op::Avg]),
        db in any::<bool>(),
        seed in any::<u64>(),
    ) {
        // Unpadded (vertical padding forbids multi-band splitting by
        // design) and biased taller so the shrunken UB forces 2+ bands.
        let params = PoolParams::new((params.kh, params.kw), (params.sh, params.sw));
        let ih = ih + 8;
        let x = input(1, ih, iw, seed);
        let (oh, ow) = params.out_dims(ih, iw).unwrap();
        let dy = grads(oh, ow, seed);
        let mask = reference::maxpool_argmax_mask(&x, &params).unwrap();

        let engines = batch_engines(db, true);

        let fwd_impls: &[ForwardImpl] = match op {
            Op::Max => &ForwardImpl::ALL,
            // The X-Y split re-associates the f16 sum; AvgPool rejects it.
            Op::Avg => &[ForwardImpl::Standard, ForwardImpl::Im2col, ForwardImpl::Expansion],
        };
        for impl_ in fwd_impls {
            let want = match op {
                Op::Max => reference::maxpool_forward(&x, &params).unwrap(),
                Op::Avg => reference::avgpool_forward(&x, &params).unwrap(),
            };
            let mut runs = Vec::new();
            for (model, eng) in &engines {
                let (got, run) = match op {
                    Op::Max => eng.maxpool_forward(&x, params, *impl_),
                    Op::Avg => eng.avgpool_forward(&x, params, *impl_),
                }
                .unwrap();
                prop_assert_eq!(
                    got.data(),
                    want.data(),
                    "{} {:?} banded fwd {:?} (db={}) {:?} {}x{}",
                    model, op, impl_, db, params, ih, iw
                );
                runs.push(run);
            }
            check_timing("banded forward", &[runs.remove(0), runs.remove(0)])?;
        }

        for merge in [MergeImpl::VAdd, MergeImpl::Col2Im] {
            let want = match op {
                Op::Max => reference::maxpool_backward(&mask, &dy, &params, ih, iw).unwrap(),
                Op::Avg => reference::avgpool_backward(&dy, &params, ih, iw).unwrap(),
            };
            let mut runs = Vec::new();
            for (model, eng) in &engines {
                let (got, run) = match op {
                    Op::Max => eng.maxpool_backward(&mask, &dy, params, ih, iw, merge),
                    Op::Avg => eng.avgpool_backward(&dy, params, ih, iw, merge),
                }
                .unwrap();
                prop_assert_eq!(
                    got.data(),
                    want.data(),
                    "{} {:?} banded bwd {:?} (db={}) {:?} {}x{}",
                    model, op, merge, db, params, ih, iw
                );
                runs.push(run);
            }
            check_timing("banded backward", &[runs.remove(0), runs.remove(0)])?;
        }
    }

    /// Batch folding is purely a scheduling decision: for `N > 1` the
    /// Mode-0 Im2Col fold (engine default) must produce bit-identical
    /// outputs to the per-plane schedule (`with_batching(false)`) and to
    /// the golden reference — across random padded geometries, max and
    /// avg, both issue models, double-buffering on/off, and with the UB
    /// shrunk so the fold exercises its capacity-fallback path. When the
    /// fold engages it must never issue *more* `Im2Col`s than per-plane.
    #[test]
    fn batched_forward_is_bit_identical_to_per_plane(
        (params, ih, iw) in geometry(),
        n in 2usize..=4,
        c1 in 1usize..=2,
        op in select(vec![Op::Max, Op::Avg]),
        db in any::<bool>(),
        tiny_ub in any::<bool>(),
        seed in any::<u64>(),
    ) {
        prop_assume!(params.out_dims(ih, iw).is_ok());
        let x = batch_input(n, c1, ih, iw, seed);
        let want = match op {
            Op::Max => reference::maxpool_forward(&x, &params).unwrap(),
            Op::Avg => reference::avgpool_forward(&x, &params).unwrap(),
        };
        for (model, folded) in batch_engines(db, tiny_ub) {
            let per_plane = folded.clone().with_batching(false);
            let run = |eng: &PoolingEngine| match op {
                Op::Max => eng.maxpool_forward(&x, params, ForwardImpl::Im2col),
                Op::Avg => eng.avgpool_forward(&x, params, ForwardImpl::Im2col),
            };
            match (run(&folded), run(&per_plane)) {
                (Ok((got_b, run_b)), Ok((got_p, run_p))) => {
                    prop_assert_eq!(
                        got_b.data(), got_p.data(),
                        "{} {:?} fold diverged from per-plane (db={} tiny={}) {:?} N={} {}x{}",
                        model, op, db, tiny_ub, params, n, ih, iw
                    );
                    prop_assert_eq!(
                        got_b.data(), want.data(),
                        "{} {:?} fold diverged from reference", model, op
                    );
                    prop_assert!(
                        run_b.total.issues_of("im2col") <= run_p.total.issues_of("im2col"),
                        "{} {:?}: fold issued more im2cols ({} > {})",
                        model, op,
                        run_b.total.issues_of("im2col"), run_p.total.issues_of("im2col")
                    );
                }
                // The fold can rescue shapes the per-plane plan rejects
                // (N accumulators can be smaller than Kh*Kw+1 planes);
                // the reverse must never happen.
                (Ok((got_b, _)), Err(_)) => {
                    prop_assert_eq!(got_b.data(), want.data());
                }
                (Err(_), Err(_)) => {} // e.g. padded multi-band on the tiny UB
                (Err(e), Ok(_)) => prop_assert!(
                    false,
                    "{}: fold errored where per-plane succeeds: {} (db={} tiny={})",
                    model, e, db, tiny_ub
                ),
            }
        }
    }

    /// The argmax-mask fold and both backward consolidations are
    /// bit-identical to the per-plane schedule and the reference for
    /// `N > 1`, in both issue models, double-buffering on/off.
    #[test]
    fn batched_argmax_and_backward_match_per_plane(
        (params, ih, iw) in geometry(),
        n in 2usize..=4,
        op in select(vec![Op::Max, Op::Avg]),
        db in any::<bool>(),
        seed in any::<u64>(),
    ) {
        prop_assume!(params.out_dims(ih, iw).is_ok());
        let x = batch_input(n, 1, ih, iw, seed);
        let (oh, ow) = params.out_dims(ih, iw).unwrap();
        let dy = batch_grads(n, 1, oh, ow, seed);
        let mask = reference::maxpool_argmax_mask(&x, &params).unwrap();
        for (model, folded) in batch_engines(db, false) {
            let per_plane = folded.clone().with_batching(false);

            if op == Op::Max {
                let (out_b, mask_b, _) = folded
                    .maxpool_forward_with_argmax(&x, params, ForwardImpl::Im2col)
                    .unwrap();
                let (out_p, mask_p, _) = per_plane
                    .maxpool_forward_with_argmax(&x, params, ForwardImpl::Im2col)
                    .unwrap();
                prop_assert_eq!(
                    out_b.data(), out_p.data(),
                    "{} argmax fold output diverged (db={}) {:?} N={}", model, db, params, n
                );
                prop_assert_eq!(
                    mask_b.data(), mask_p.data(),
                    "{} argmax fold mask diverged (db={}) {:?} N={}", model, db, params, n
                );
                prop_assert_eq!(mask_b.data(), mask.data(), "{} mask vs reference", model);
            }

            let want = match op {
                Op::Max => reference::maxpool_backward(&mask, &dy, &params, ih, iw).unwrap(),
                Op::Avg => reference::avgpool_backward(&dy, &params, ih, iw).unwrap(),
            };
            for merge in [MergeImpl::VAdd, MergeImpl::Col2Im] {
                let run = |eng: &PoolingEngine| match op {
                    Op::Max => eng.maxpool_backward(&mask, &dy, params, ih, iw, merge),
                    Op::Avg => eng.avgpool_backward(&dy, params, ih, iw, merge),
                };
                let (dx_b, _) = run(&folded).unwrap();
                let (dx_p, _) = run(&per_plane).unwrap();
                prop_assert_eq!(
                    dx_b.data(), dx_p.data(),
                    "{} {:?} bwd consolidation diverged {:?} (db={}) N={}",
                    model, op, merge, db, n
                );
                prop_assert_eq!(dx_b.data(), want.data(), "{} {:?} bwd vs reference", model, op);
            }
        }
    }

    /// Whole-model oracle: a small max+avg network simulated under either
    /// issue model bit-matches `dv_nn::reference_forward`.
    #[test]
    fn model_forward_bitmatches_nn_reference_in_both_issue_models(
        (params, ih, iw) in geometry(),
        c in 1usize..=3,
        seed in any::<u64>(),
    ) {
        let (ih, iw) = (ih + 4, iw + 4);
        prop_assume!(params.out_dims(ih, iw).is_ok());
        let (oh, ow) = params.out_dims(ih, iw).unwrap();
        prop_assume!(PoolParams::K2S2.out_dims(oh, ow).is_ok());
        let mut s = seed | 1;
        let x = Nchw::from_fn(1, c, ih, iw, |_, _, _, _| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(23);
            F16::from_f32(((s >> 40) % 33) as f32 - 16.0)
        });
        let mut outs = Vec::new();
        for (model_name, eng) in engines() {
            let model = Sequential::new(eng)
                .layer(Layer::maxpool2d(params, ForwardImpl::Im2col))
                .layer(Layer::avgpool2d(PoolParams::K2S2, ForwardImpl::Im2col));
            let (got, run) = model.forward(&x).unwrap();
            let want = reference_forward(&model, &x).unwrap();
            prop_assert_eq!(
                &got,
                &want,
                "{}: simulated model diverged from the nn reference",
                model_name
            );
            prop_assert!(run.total_cycles() > 0);
            outs.push(got);
        }
        for other in &outs[1..] {
            prop_assert_eq!(&outs[0], other, "issue models disagree on the model output");
        }
    }
}
