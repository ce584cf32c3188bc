//! Property-based end-to-end correctness: random pooling geometries
//! through every lowering must match the golden references bit-exactly.

use dv_core::{ForwardImpl, MergeImpl, PoolingEngine};
use dv_fp16::F16;
use dv_sim::{Capacities, Chip, CostModel};
use dv_tensor::reference;
use dv_tensor::{Nc1hwc0, PoolParams};
use proptest::prelude::*;

fn engine() -> PoolingEngine {
    PoolingEngine::new(Chip::new(2, CostModel::ascend910_like()))
}

/// Engine with shrunken scratchpads so even small geometries tile.
fn tiny_engine() -> PoolingEngine {
    let mut chip = Chip::new(2, CostModel::ascend910_like());
    chip.caps = Capacities {
        l1: 24 * 1024,
        l0a: 4 * 1024,
        l0b: 4 * 1024,
        l0c: 8 * 1024,
        ub: 32 * 1024,
    };
    PoolingEngine::new(chip)
}

fn geometry() -> impl Strategy<Value = (PoolParams, usize, usize)> {
    (1usize..=3, 1usize..=3, 1usize..=3, 1usize..=3).prop_flat_map(|(kh, kw, sh, sw)| {
        (
            Just(PoolParams::new((kh, kw), (sh, sw))),
            kh..kh + 14,
            kw..kw + 14,
        )
    })
}

fn input(c1: usize, h: usize, w: usize, seed: u64) -> Nc1hwc0 {
    let mut s = seed | 1;
    Nc1hwc0::from_fn(1, c1, h, w, |_, _, _, _, _| {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(99);
        F16::from_f32(((s >> 40) % 33) as f32 - 16.0)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// All four forward lowerings equal the reference on random
    /// geometries.
    #[test]
    fn forward_all_impls((params, ih, iw) in geometry(), c1 in 1usize..=2, seed in any::<u64>()) {
        let x = input(c1, ih, iw, seed);
        let want = reference::maxpool_forward(&x, &params).unwrap();
        let eng = engine();
        for impl_ in ForwardImpl::ALL {
            let (got, _) = eng.maxpool_forward(&x, params, impl_).unwrap();
            prop_assert_eq!(got.data(), want.data(), "{:?} {:?} {}x{}", impl_, params, ih, iw);
        }
    }

    /// Forward under forced tiling equals the reference, with dense and
    /// dilated windows (Expansion and X-Y split refuse dilation, so
    /// dilated draws run Standard and Im2col).
    #[test]
    fn forward_tiled(
        (params, ih, iw) in geometry(),
        (dh, dw) in (1usize..=2, 1usize..=2),
        seed in any::<u64>(),
    ) {
        let params = params.with_dilation((dh, dw));
        let x = input(1, ih + 10, iw + 10, seed);
        let want = reference::maxpool_forward(&x, &params).unwrap();
        let eng = tiny_engine();
        let impls: &[ForwardImpl] = if params.has_dilation() {
            &[ForwardImpl::Standard, ForwardImpl::Im2col]
        } else {
            &ForwardImpl::ALL
        };
        for &impl_ in impls {
            let (got, _) = eng.maxpool_forward(&x, params, impl_).unwrap();
            prop_assert_eq!(got.data(), want.data(), "{:?} {:?} tiled", impl_, params);
        }
    }

    /// Argmax masks from both lowerings equal the reference on random
    /// geometries, including tie-heavy inputs.
    #[test]
    fn argmax_both_impls((params, ih, iw) in geometry(), seed in any::<u64>()) {
        let mut x = input(1, ih, iw, seed);
        // quantize to force ties
        for v in x.data_mut() {
            *v = F16::from_f32((v.to_f32() / 4.0).round());
        }
        let (want_out, want_mask) = reference::maxpool_forward_with_argmax(&x, &params).unwrap();
        let eng = engine();
        for impl_ in [ForwardImpl::Standard, ForwardImpl::Im2col] {
            let (out, mask, _) = eng.maxpool_forward_with_argmax(&x, params, impl_).unwrap();
            prop_assert_eq!(out.data(), want_out.data(), "{:?} out", impl_);
            prop_assert_eq!(mask.data(), want_mask.data(), "{:?} mask", impl_);
        }
    }

    /// Both backward merges equal the reference on random geometries
    /// (integer gradients make all summation orders exact).
    #[test]
    fn backward_both_merges((params, ih, iw) in geometry(), seed in any::<u64>()) {
        let x = input(1, ih, iw, seed);
        let mask = reference::maxpool_argmax_mask(&x, &params).unwrap();
        let (oh, ow) = params.out_dims(ih, iw).unwrap();
        let mut s = seed ^ 0xF00D;
        let grads = Nc1hwc0::from_fn(1, 1, oh, ow, |_, _, _, _, _| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(7);
            F16::from_f32(((s >> 41) % 8) as f32)
        });
        let want = reference::maxpool_backward(&mask, &grads, &params, ih, iw).unwrap();
        let eng = engine();
        for merge in [MergeImpl::VAdd, MergeImpl::Col2Im] {
            let (got, _) = eng.maxpool_backward(&mask, &grads, params, ih, iw, merge).unwrap();
            prop_assert_eq!(got.data(), want.data(), "{:?}", merge);
        }
    }

    /// Backward under forced tiling (halo carry) equals the reference,
    /// with dense and dilated windows. A dilated plane is kept narrower,
    /// so its one-row band (overlap patches included) still fits the
    /// tiny UB.
    #[test]
    fn backward_tiled(
        (params, ih, iw) in geometry(),
        (dh, dw) in (1usize..=2, 1usize..=2),
        seed in any::<u64>(),
    ) {
        let params = params.with_dilation((dh, dw));
        let (ih, iw) = (ih + 12, iw + if params.has_dilation() { 2 } else { 6 });
        let x = input(1, ih, iw, seed);
        let mask = reference::maxpool_argmax_mask(&x, &params).unwrap();
        let (oh, ow) = params.out_dims(ih, iw).unwrap();
        let mut s = seed ^ 0xBEEF;
        let grads = Nc1hwc0::from_fn(1, 1, oh, ow, |_, _, _, _, _| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(13);
            F16::from_f32(((s >> 42) % 8) as f32)
        });
        let want = reference::maxpool_backward(&mask, &grads, &params, ih, iw).unwrap();
        let eng = tiny_engine();
        for merge in [MergeImpl::VAdd, MergeImpl::Col2Im] {
            let (got, _) = eng.maxpool_backward(&mask, &grads, params, ih, iw, merge).unwrap();
            prop_assert_eq!(got.data(), want.data(), "{:?} {:?} tiled", merge, params);
        }
    }

    /// AvgPool forward/backward equals the reference on random
    /// geometries.
    #[test]
    fn avgpool_matches((params, ih, iw) in geometry(), seed in any::<u64>()) {
        let x = input(1, ih, iw, seed);
        let want = reference::avgpool_forward(&x, &params).unwrap();
        let eng = engine();
        for impl_ in [ForwardImpl::Standard, ForwardImpl::Im2col] {
            let (got, _) = eng.avgpool_forward(&x, params, impl_).unwrap();
            prop_assert_eq!(got.data(), want.data(), "avg fwd {:?}", impl_);
        }
        let (oh, ow) = params.out_dims(ih, iw).unwrap();
        let mut s = seed ^ 0xCAFE;
        let grads = Nc1hwc0::from_fn(1, 1, oh, ow, |_, _, _, _, _| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(3);
            F16::from_f32(((s >> 43) % 8) as f32)
        });
        let want_dx = reference::avgpool_backward(&grads, &params, ih, iw).unwrap();
        for merge in [MergeImpl::VAdd, MergeImpl::Col2Im] {
            let (got, _) = eng.avgpool_backward(&grads, params, ih, iw, merge).unwrap();
            prop_assert_eq!(got.data(), want_dx.data(), "avg bwd {:?}", merge);
        }
    }

    /// The im2col lowering handles arbitrary (valid) padding bit-exactly,
    /// forward and backward (single-band regime).
    #[test]
    fn padded_im2col_forward_and_backward(
        kh in 2usize..=3, kw in 2usize..=3,
        sh in 1usize..=2, sw in 1usize..=2,
        pt in 0usize..=1, pb in 0usize..=1, plft in 0usize..=1, prt in 0usize..=1,
        seed in any::<u64>(),
    ) {
        let padding = dv_tensor::Padding { top: pt, bottom: pb, left: plft, right: prt };
        let params = PoolParams::with_padding((kh, kw), (sh, sw), padding);
        let (ih, iw) = (11, 12);
        prop_assume!(params.out_dims(ih, iw).is_ok());
        let x = input(1, ih, iw, seed);
        let want = reference::maxpool_forward(&x, &params).unwrap();
        let eng = engine();
        let (got, _) = eng.maxpool_forward(&x, params, ForwardImpl::Im2col).unwrap();
        prop_assert_eq!(got.data(), want.data(), "padded forward {:?}", params);

        // backward through the reference mask
        let mask = reference::maxpool_argmax_mask(&x, &params).unwrap();
        let (oh, ow) = params.out_dims(ih, iw).unwrap();
        let mut s = seed ^ 0x1234;
        let grads = Nc1hwc0::from_fn(1, 1, oh, ow, |_, _, _, _, _| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(5);
            F16::from_f32(((s >> 44) % 8) as f32)
        });
        let want_dx = reference::maxpool_backward(&mask, &grads, &params, ih, iw).unwrap();
        for merge in [MergeImpl::VAdd, MergeImpl::Col2Im] {
            let (dx, _) = eng.maxpool_backward(&mask, &grads, params, ih, iw, merge).unwrap();
            prop_assert_eq!(dx.data(), want_dx.data(), "padded backward {:?}", merge);
        }
    }

    /// The cycle hierarchy of Fig. 8 holds for any K=(3,3) geometry with
    /// stride >= 2 big enough to leave the issue-bound regime.
    #[test]
    fn im2col_wins_at_large_strided_sizes(stride in 2usize..=3, hw in 36usize..=56) {
        let params = PoolParams::new((3, 3), (stride, stride));
        let x = input(1, hw, hw, hw as u64);
        let eng = PoolingEngine::new(Chip::new(1, CostModel::ascend910_like()));
        let (_, std) = eng.maxpool_forward(&x, params, ForwardImpl::Standard).unwrap();
        let (_, im) = eng.maxpool_forward(&x, params, ForwardImpl::Im2col).unwrap();
        prop_assert!(im.cycles < std.cycles,
            "stride {} hw {}: im2col {} !< standard {}", stride, hw, im.cycles, std.cycles);
    }
}
