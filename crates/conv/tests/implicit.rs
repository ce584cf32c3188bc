//! Differential and seam tests for the implicit-im2col conv lowering:
//! bit-equality against the materialised path and the reference over
//! random geometries, the working-set/traffic wins on a segment-scale
//! shape, and the typed capacity decline boundary (forced tiny budgets
//! must fall back to the materialised path with bit-equal outputs and
//! the decline booked in `implicit_declines` — never a silent wrong
//! answer), in the style of `crates/core/tests/batched.rs`.

use dv_conv::{build_conv2d_resident, run_conv2d_with, ConvError, ConvLowering};
use dv_fp16::F16;
use dv_isa::BufferId;
use dv_sim::{Chip, CostModel};
use dv_tensor::{reference, Nchw, Padding, PoolParams};
use proptest::prelude::*;

fn tensor(n: usize, c: usize, h: usize, w: usize, seed: u64) -> Nchw {
    let mut s = seed | 1;
    Nchw::from_fn(n, c, h, w, |_, _, _, _| {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(17);
        F16::from_f32(((s >> 38) % 17) as f32 * 0.25 - 2.0)
    })
}

fn chip() -> Chip {
    Chip::new(1, CostModel::ascend910_like())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The implicit walk computes the same flat (c1, kh, kw) reduction
    /// the materialised path does, and the Cube accumulates sequentially
    /// in k — so outputs are bit-identical to both the materialised
    /// lowering and the direct reference for random (dense or dilated)
    /// geometries.
    #[test]
    fn implicit_matches_materialised_and_reference(
        c_groups in 1usize..=3, m in 1usize..=24,
        k in 1usize..=3, stride in 1usize..=2, d in 1usize..=2,
        hw in 6usize..=14, seed in any::<u64>(),
    ) {
        let c = c_groups * 16;
        let params = PoolParams::new((k, k), (stride, stride)).with_dilation((d, d));
        prop_assume!(params.out_dims(hw, hw).is_ok());
        let input = tensor(1, c, hw, hw, seed);
        let kernels = tensor(m, c, k, k, seed ^ 0x5A5A);
        let want = reference::conv2d_direct(&input, &kernels, &params).unwrap();
        let chip = chip();
        let (got_i, run_i) =
            run_conv2d_with(&input, &kernels, &params, &chip, ConvLowering::Implicit).unwrap();
        let (got_m, run_m) =
            run_conv2d_with(&input, &kernels, &params, &chip, ConvLowering::Materialised)
                .unwrap();
        prop_assert_eq!(got_i.data(), want.data());
        prop_assert_eq!(got_i.data(), got_m.data());
        // One resident c1 slice at a time: the implicit L1 high-water
        // mark never exceeds the materialised plan's.
        prop_assert!(run_i.peaks.of(BufferId::L1) <= run_m.peaks.of(BufferId::L1));
        // Neither forced lowering books a decline.
        prop_assert_eq!(run_i.total.implicit_declines, 0);
        prop_assert_eq!(run_m.total.implicit_declines, 0);
    }
}

/// On a multi-slice, multi-tile shape the K-outer restructure pays: one
/// L0B weight-slice load per (slice, chunk) instead of one per patch
/// tile, and an L1 working set of one slice instead of all of them.
#[test]
fn implicit_hoists_weight_reloads_and_shrinks_l1() {
    let (c, m, k, hw) = (32usize, 32usize, 3usize, 20usize);
    let params = PoolParams::new((k, k), (1, 1));
    let input = tensor(1, c, hw, hw, 21);
    let kernels = tensor(m, c, k, k, 22);
    let chip = chip();
    let (got_i, run_i) =
        run_conv2d_with(&input, &kernels, &params, &chip, ConvLowering::Implicit).unwrap();
    let (got_m, run_m) =
        run_conv2d_with(&input, &kernels, &params, &chip, ConvLowering::Materialised).unwrap();
    assert_eq!(got_i.data(), got_m.data());
    assert!(
        run_i.total.scratch_bytes < run_m.total.scratch_bytes,
        "implicit must move less scratchpad traffic ({} >= {})",
        run_i.total.scratch_bytes,
        run_m.total.scratch_bytes
    );
    assert!(
        run_i.peaks.of(BufferId::L1) < run_m.peaks.of(BufferId::L1),
        "implicit must hold a strictly smaller L1 working set ({} >= {})",
        run_i.peaks.of(BufferId::L1),
        run_m.peaks.of(BufferId::L1)
    );
    assert!(
        run_i.cycles <= run_m.cycles,
        "hoisted L0B traffic must not cost makespan ({} > {})",
        run_i.cycles,
        run_m.cycles
    );
}

/// A dilated kernel on a plane that bands in L1: every partial band keeps
/// the dilated taps, so both lowerings equal both references.
#[test]
fn banded_dilated_conv_matches_both_references() {
    let (c, m, hw) = (32usize, 16usize, 40usize);
    let params = PoolParams::new((3, 3), (1, 1)).with_dilation((2, 2));
    let input = tensor(1, c, hw, hw, 41);
    let kernels = tensor(m, c, 3, 3, 42);
    let direct = reference::conv2d_direct(&input, &kernels, &params).unwrap();
    let via_im2col = reference::conv2d_via_im2col(&input, &kernels, &params).unwrap();
    assert_eq!(direct.data(), via_im2col.data(), "the references agree");
    let mut chip = chip();
    chip.caps.l1 = 24 * 1024;
    for lowering in [ConvLowering::Implicit, ConvLowering::Materialised] {
        let (got, _) = run_conv2d_with(&input, &kernels, &params, &chip, lowering).unwrap();
        assert_eq!(got.data(), direct.data(), "{lowering:?}");
    }
}

/// Padded convolutions run bit-identically under both lowerings (both
/// fit a single band here, where vertical padding is legal).
#[test]
fn implicit_handles_padding_bit_exactly() {
    let (c, m, k, hw) = (32usize, 24usize, 3usize, 12usize);
    let params = PoolParams::with_padding((k, k), (1, 1), Padding::uniform(1));
    let input = tensor(1, c, hw, hw, 31);
    let kernels = tensor(m, c, k, k, 32);
    let want = reference::conv2d_direct(&input, &kernels, &params).unwrap();
    let chip = chip();
    let (got_i, _) =
        run_conv2d_with(&input, &kernels, &params, &chip, ConvLowering::Implicit).unwrap();
    let (got_m, _) =
        run_conv2d_with(&input, &kernels, &params, &chip, ConvLowering::Materialised).unwrap();
    assert_eq!(got_i.data(), want.data());
    assert_eq!(got_i.data(), got_m.data());
}

/// Seam: a clamped L0C cannot pin one band row of accumulators — the
/// implicit lowering must decline with a typed `Capacity` error, and
/// `Auto` must fall back to the materialised path bit-equally with the
/// decline booked in the run counters.
#[test]
fn tiny_l0c_declines_typed_and_auto_falls_back_booked() {
    let (c, m, k, hw) = (32usize, 32usize, 3usize, 20usize);
    let params = PoolParams::new((k, k), (1, 1));
    let input = tensor(1, c, hw, hw, 41);
    let kernels = tensor(m, c, k, k, 42);
    let mut chip = chip();
    // n_fr = 2: one band row needs ceil(18/16) * 2 * 1024 = 4096 B.
    chip.caps.l0c = 2048;

    let err =
        run_conv2d_with(&input, &kernels, &params, &chip, ConvLowering::Implicit).unwrap_err();
    assert!(
        matches!(
            err,
            ConvError::Capacity {
                resource: "l0c",
                ..
            }
        ),
        "expected a typed l0c capacity decline, got: {err}"
    );

    let (got_a, run_a) =
        run_conv2d_with(&input, &kernels, &params, &chip, ConvLowering::Auto).unwrap();
    let (got_m, run_m) =
        run_conv2d_with(&input, &kernels, &params, &chip, ConvLowering::Materialised).unwrap();
    assert_eq!(got_a.data(), got_m.data(), "fallback must be bit-equal");
    assert_eq!(
        run_a.total.implicit_declines, 1,
        "the decline must be booked"
    );
    assert_eq!(run_m.total.implicit_declines, 0);
    assert_eq!(
        run_a.cycles, run_m.cycles,
        "Auto's fallback runs exactly the materialised program"
    );
}

/// Seam: vertical padding + an L0C pin that forces multi-band is a
/// *capacity* decline (the materialised path re-tiles L0C per Cube tile
/// and still fits one band), so `Auto` falls back and books it.
#[test]
fn padded_l0c_pin_declines_as_capacity_not_unsupported() {
    let (c, m, k, hw) = (32usize, 32usize, 3usize, 12usize);
    let params = PoolParams::with_padding((k, k), (1, 1), Padding::uniform(1));
    let input = tensor(1, c, hw, hw, 51);
    let kernels = tensor(m, c, k, k, 52);
    let mut chip = chip();
    // Full band needs 9 * 2 * 1024 = 18432 B of L0C; 8 KiB forces
    // multi-band, which vertical padding forbids.
    chip.caps.l0c = 8 * 1024;

    let err =
        run_conv2d_with(&input, &kernels, &params, &chip, ConvLowering::Implicit).unwrap_err();
    assert!(err.is_capacity(), "expected a capacity decline, got: {err}");

    let (got_a, run_a) =
        run_conv2d_with(&input, &kernels, &params, &chip, ConvLowering::Auto).unwrap();
    let (got_m, _) =
        run_conv2d_with(&input, &kernels, &params, &chip, ConvLowering::Materialised).unwrap();
    assert_eq!(got_a.data(), got_m.data());
    assert_eq!(run_a.total.implicit_declines, 1);
}

/// Seam: a clamped L1 that cannot hold the weights plus one input slice
/// declines with a typed `l1` capacity error (no lowering could compute
/// this — `Auto` surfaces the materialised path's refusal rather than
/// silently computing anything).
#[test]
fn tiny_l1_declines_typed() {
    let (c, m, k, hw) = (32usize, 32usize, 3usize, 20usize);
    let params = PoolParams::new((k, k), (1, 1));
    let input = tensor(1, c, hw, hw, 61);
    let kernels = tensor(m, c, k, k, 62);
    let mut chip = chip();
    // Weights are 18 * 2 * 512 = 18432 B; leave less than one 3-row
    // input band (3 * 20 * 32 = 1920 B) above them.
    chip.caps.l1 = 18432 + 100;

    let err =
        run_conv2d_with(&input, &kernels, &params, &chip, ConvLowering::Implicit).unwrap_err();
    assert!(
        matches!(err, ConvError::Capacity { resource: "l1", .. }),
        "expected a typed l1 capacity decline, got: {err}"
    );
    // The materialised path needs even more L1, so Auto cannot compute
    // this problem at all — and says so.
    assert!(run_conv2d_with(&input, &kernels, &params, &chip, ConvLowering::Auto).is_err());
}

/// Seam: the resident (fused-handoff) builder declines with a typed `ub`
/// capacity error when the output planes cannot stay resident.
#[test]
fn resident_build_declines_on_tiny_ub() {
    let (c, m, k, hw) = (32usize, 32usize, 3usize, 20usize);
    let params = PoolParams::new((k, k), (1, 1));
    let mut chip = chip();
    chip.caps.ub = 4 * 1024;
    for lowering in [
        ConvLowering::Implicit,
        ConvLowering::Materialised,
        ConvLowering::Auto,
    ] {
        let err = build_conv2d_resident(c, hw, hw, m, &params, 0, 0, 0, &chip, lowering)
            .map(|_| ())
            .unwrap_err();
        assert!(
            matches!(err, ConvError::Capacity { resource: "ub", .. }),
            "expected a typed ub capacity decline, got: {err}"
        );
    }
}
