//! Backward-scaling differential wall: sub-plane backward shards with
//! halo-merge GM declarations must be **bit-identical** to the
//! single-core per-plane run and to `dv_tensor::reference` — across
//! random geometries (including `Sh < Kh` halo extremes), both merges,
//! MaxPool and AvgPool, 1/2/8/32 cores, both memory models, and every
//! engine-switch combination (double-buffer, auto-tune). The gradients
//! deliberately mix f16 magnitudes so any accumulation-order drift
//! changes bits.

use dv_akg::GmArena;
use dv_core::avgpool::avg_scale;
use dv_core::maxpool::{backward_shard_staging_bytes, build_backward_sharded, BackwardSource};
use dv_core::{MergeImpl, PoolProblem, PoolingEngine, Schedule};
use dv_fp16::F16;
use dv_sim::{Chip, CostModel, MemoryModel};
use dv_tensor::{reference, Nc1hwc0, PatchTensor, PoolParams};
use proptest::prelude::*;

/// Gradient values that punish reassociation: mantissa-rich f16s spread
/// over several binades, so `(a + b) + c != a + (b + c)` for most
/// triples and a single out-of-order merge flips bits.
fn nasty_grads(oh: usize, ow: usize, n: usize, c1: usize, seed: u64) -> Nc1hwc0 {
    let mut s = seed | 1;
    Nc1hwc0::from_fn(n, c1, oh, ow, |_, _, _, _, _| {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let mantissa = ((s >> 40) % 2048) as f32 / 64.0 - 16.0;
        let scale = [0.0625f32, 1.0, 16.0, 256.0][(s >> 32) as usize % 4];
        F16::from_f32(mantissa * scale)
    })
}

fn input(c1: usize, h: usize, w: usize, seed: u64) -> Nc1hwc0 {
    let mut s = seed | 1;
    Nc1hwc0::from_fn(1, c1, h, w, |_, _, _, _, _| {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(99);
        F16::from_f32(((s >> 40) % 33) as f32 - 16.0)
    })
}

/// Drive `build_backward_sharded` + `Chip::run_declared` directly, with
/// an explicit shard count — the differential wall's lever, independent
/// of what the partitioner would predict.
#[allow(clippy::too_many_arguments)]
fn run_sharded(
    chip: &Chip,
    mask: Option<&PatchTensor>,
    grads: &Nc1hwc0,
    params: PoolParams,
    ih: usize,
    iw: usize,
    merge: MergeImpl,
    shards: usize,
    sched: Schedule,
) -> Result<(Nc1hwc0, dv_sim::ChipRun), String> {
    let prob = PoolProblem::new(grads.n, grads.c1, ih, iw, params).map_err(|e| e.to_string())?;
    let mut gm = GmArena::new();
    let (gm_mask, source) = match mask {
        Some(_) => {
            let off = gm.alloc(prob.mask_bytes());
            (off, BackwardSource::MaxMask { gm_mask: off })
        }
        None => (
            0,
            BackwardSource::AvgUniform {
                scale: avg_scale(&prob),
            },
        ),
    };
    let gm_grad = gm.alloc(prob.out_bytes());
    let gm_dx = gm.alloc(prob.in_bytes());
    let gm_staging = gm.alloc(backward_shard_staging_bytes(&prob, shards));
    let (programs, decls) = build_backward_sharded(
        &prob, merge, source, gm_grad, gm_dx, gm_staging, shards, chip.caps, sched,
    )
    .map_err(|e| e.to_string())?;
    let mut image = vec![0u8; gm.size()];
    if let Some(m) = mask {
        let bytes = dv_fp16::as_bytes(m.data());
        image[gm_mask..gm_mask + bytes.len()].copy_from_slice(bytes);
    }
    let bytes = dv_fp16::as_bytes(grads.data());
    image[gm_grad..gm_grad + bytes.len()].copy_from_slice(bytes);
    let run = chip
        .run_declared(&mut image, &programs, &decls)
        .map_err(|e| e.to_string())?;
    let data: Vec<F16> = (0..prob.n * prob.c1 * ih * iw * dv_tensor::C0)
        .map(|i| {
            let o = gm_dx + i * 2;
            F16::from_bits(u16::from_le_bytes([image[o], image[o + 1]]))
        })
        .collect();
    let dx = Nc1hwc0::from_vec(prob.n, prob.c1, ih, iw, data).map_err(|e| e.to_string())?;
    Ok((dx, run))
}

fn chips() -> Vec<Chip> {
    [1usize, 2, 8, 32]
        .into_iter()
        .flat_map(|cores| {
            [MemoryModel::Independent, MemoryModel::ascend910_l2()]
                .into_iter()
                .map(move |m| Chip::new(cores, CostModel::ascend910_like()).with_memory(m))
        })
        .collect()
}

/// The halo extreme: a 5-row kernel at stride 1 makes every shard's
/// first band re-load four patch rows of the previous shard and emit
/// halo strips four input rows deep. Bit-exact everywhere.
#[test]
fn sh_lt_kh_halo_extreme_is_bit_exact() {
    let params = PoolParams::new((5, 2), (1, 2));
    let (ih, iw) = (17, 10);
    let x = input(1, ih, iw, 11);
    let mask = reference::maxpool_argmax_mask(&x, &params).unwrap();
    let (oh, ow) = params.out_dims(ih, iw).unwrap();
    let grads = nasty_grads(oh, ow, 1, 1, 0xA11CE);
    let want = reference::maxpool_backward(&mask, &grads, &params, ih, iw).unwrap();
    for chip in chips() {
        for merge in [MergeImpl::VAdd, MergeImpl::Col2Im] {
            for shards in [2, 3, 5] {
                let (dx, _) = run_sharded(
                    &chip,
                    Some(&mask),
                    &grads,
                    params,
                    ih,
                    iw,
                    merge,
                    shards,
                    Schedule::default(),
                )
                .unwrap();
                assert_eq!(
                    dx.data(),
                    want.data(),
                    "{merge:?} shards={shards} cores={} mem={:?}",
                    chip.cores,
                    chip.memory
                );
            }
        }
    }
}

/// AvgPool through the same sharded path (uniform mask, `vmuls`
/// multiply) is bit-exact too.
#[test]
fn avgpool_sharded_is_bit_exact() {
    let params = PoolParams::new((3, 3), (2, 2));
    let (ih, iw) = (21, 13);
    let (oh, ow) = params.out_dims(ih, iw).unwrap();
    let grads = nasty_grads(oh, ow, 1, 1, 0xBEE);
    let want = reference::avgpool_backward(&grads, &params, ih, iw).unwrap();
    for chip in chips() {
        for merge in [MergeImpl::VAdd, MergeImpl::Col2Im] {
            let (dx, _) = run_sharded(
                &chip,
                None,
                &grads,
                params,
                ih,
                iw,
                merge,
                4,
                Schedule::default(),
            )
            .unwrap();
            assert_eq!(
                dx.data(),
                want.data(),
                "{merge:?} cores={} mem={:?}",
                chip.cores,
                chip.memory
            );
        }
    }
}

/// Vertically padded and ceil-mode geometries decline with a typed
/// error — the shardability gate, not a wrong answer.
#[test]
fn padded_and_ceil_geometries_decline_typed() {
    let chip = Chip::new(8, CostModel::ascend910_like());
    let padded = PoolParams::with_padding(
        (3, 3),
        (2, 2),
        dv_tensor::Padding {
            top: 1,
            bottom: 1,
            left: 0,
            right: 0,
        },
    );
    let (ih, iw) = (20, 20);
    let x = input(1, ih, iw, 5);
    let mask = reference::maxpool_argmax_mask(&x, &padded).unwrap();
    let (oh, ow) = padded.out_dims(ih, iw).unwrap();
    let grads = nasty_grads(oh, ow, 1, 1, 7);
    let err = run_sharded(
        &chip,
        Some(&mask),
        &grads,
        padded,
        ih,
        iw,
        MergeImpl::Col2Im,
        2,
        Schedule::default(),
    )
    .unwrap_err();
    assert!(
        err.contains("unsupported"),
        "vertical padding declines typed, got: {err}"
    );

    // Horizontal padding is fine — halo strips trim the columns.
    let horiz = PoolParams::with_padding(
        (3, 3),
        (2, 2),
        dv_tensor::Padding {
            top: 0,
            bottom: 0,
            left: 1,
            right: 1,
        },
    );
    let mask = reference::maxpool_argmax_mask(&x, &horiz).unwrap();
    let (oh, ow) = horiz.out_dims(ih, iw).unwrap();
    let grads = nasty_grads(oh, ow, 1, 1, 8);
    let want = reference::maxpool_backward(&mask, &grads, &horiz, ih, iw).unwrap();
    let (dx, _) = run_sharded(
        &chip,
        Some(&mask),
        &grads,
        horiz,
        ih,
        iw,
        MergeImpl::Col2Im,
        3,
        Schedule::default(),
    )
    .unwrap();
    assert_eq!(dx.data(), want.data(), "horizontally padded shards");
}

/// Same-plane shards overlap on their gradient/mask reads, so under the
/// L2 model a multi-core sharded run serves lines from cache — and the
/// data stays bit-identical to the Independent model's.
#[test]
fn sharded_run_hits_the_l2_and_matches_independent() {
    let params = PoolParams::new((3, 3), (1, 1));
    let (ih, iw) = (40, 40);
    let x = input(1, ih, iw, 21);
    let mask = reference::maxpool_argmax_mask(&x, &params).unwrap();
    let (oh, ow) = params.out_dims(ih, iw).unwrap();
    let grads = nasty_grads(oh, ow, 1, 1, 0xD0E);
    let base = Chip::new(8, CostModel::ascend910_like());
    let (dx_i, run_i) = run_sharded(
        &base.clone().with_memory(MemoryModel::Independent),
        Some(&mask),
        &grads,
        params,
        ih,
        iw,
        MergeImpl::Col2Im,
        8,
        Schedule::default(),
    )
    .unwrap();
    let (dx_l2, run_l2) = run_sharded(
        &base.with_memory(MemoryModel::ascend910_l2()),
        Some(&mask),
        &grads,
        params,
        ih,
        iw,
        MergeImpl::Col2Im,
        8,
        Schedule::default(),
    )
    .unwrap();
    assert_eq!(dx_i.data(), dx_l2.data(), "memory models never change data");
    assert_eq!(run_i.total.l2_hits, 0, "Independent books no L2 hits");
    assert!(
        run_l2.total.l2_hits > 0,
        "same-plane shards share gradient/mask lines in the L2"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// The wall: random (dense or dilated) geometries x merge x shard
    /// count x cores x memory model, MaxPool masked backward. Every
    /// sharded run must be bit-identical to the reference (single-core
    /// per-plane is itself pinned to the reference by `prop_correctness`).
    #[test]
    fn sharded_backward_equals_reference(
        kh in 1usize..=4, kw in 1usize..=3,
        sh in 1usize..=3, sw in 1usize..=3,
        extra_h in 0usize..=13, extra_w in 0usize..=9,
        (n, c1) in (1usize..=2, 1usize..=2),
        (dh, dw) in (1usize..=2, 1usize..=2),
        shards in 2usize..=5,
        seed in any::<u64>(),
    ) {
        let params = PoolParams::new((kh, kw), (sh, sw)).with_dilation((dh, dw));
        let (ih, iw) = (params.eff_kh() + 2 + extra_h, params.eff_kw() + extra_w);
        prop_assume!(params.out_dims(ih, iw).map(|(oh, _)| oh >= 2).unwrap_or(false));
        let mut s = seed | 1;
        let x = Nc1hwc0::from_fn(n, c1, ih, iw, |_, _, _, _, _| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(99);
            F16::from_f32(((s >> 40) % 33) as f32 - 16.0)
        });
        let mask = reference::maxpool_argmax_mask(&x, &params).unwrap();
        let (oh, ow) = params.out_dims(ih, iw).unwrap();
        let grads = nasty_grads(oh, ow, n, c1, seed ^ 0xF00D);
        let want = reference::maxpool_backward(&mask, &grads, &params, ih, iw).unwrap();
        for chip in chips() {
            for merge in [MergeImpl::VAdd, MergeImpl::Col2Im] {
                let (dx, _) = run_sharded(
                    &chip, Some(&mask), &grads, params, ih, iw, merge, shards,
                    Schedule::default(),
                ).unwrap();
                prop_assert_eq!(
                    dx.data(), want.data(),
                    "{:?} {:?} shards={} cores={} mem={:?}",
                    params, merge, shards, chip.cores, chip.memory
                );
            }
        }
    }

    /// AvgPool leg of the wall (dense or dilated windows), plus the
    /// double-buffer switch: schedules never change bits.
    #[test]
    fn sharded_avg_backward_equals_reference_all_schedules(
        kh in 1usize..=3, kw in 1usize..=3,
        sh in 1usize..=3, sw in 1usize..=2,
        extra_h in 0usize..=10, extra_w in 0usize..=6,
        (dh, dw) in (1usize..=2, 1usize..=2),
        shards in 2usize..=4,
        seed in any::<u64>(),
    ) {
        let params = PoolParams::new((kh, kw), (sh, sw)).with_dilation((dh, dw));
        let (ih, iw) = (params.eff_kh() + 3 + extra_h, params.eff_kw() + extra_w);
        prop_assume!(params.out_dims(ih, iw).map(|(oh, _)| oh >= 2).unwrap_or(false));
        let (oh, ow) = params.out_dims(ih, iw).unwrap();
        let grads = nasty_grads(oh, ow, 1, 1, seed ^ 0xCAFE);
        let want = reference::avgpool_backward(&grads, &params, ih, iw).unwrap();
        let chip = Chip::new(8, CostModel::ascend910_like())
            .with_memory(MemoryModel::ascend910_l2());
        for merge in [MergeImpl::VAdd, MergeImpl::Col2Im] {
            for double in [false, true] {
                let sched = Schedule::for_cost(chip.cost, double);
                let (dx, _) = run_sharded(
                    &chip, None, &grads, params, ih, iw, merge, shards, sched,
                ).unwrap();
                prop_assert_eq!(
                    dx.data(), want.data(),
                    "{:?} {:?} shards={} double={}",
                    params, merge, shards, double
                );
            }
        }
    }

    /// Engine-level leg: the full engine with cost-model sharding (and
    /// optionally the auto-tuner) on 1/2/8/32 cores returns bit-identical
    /// dx and books either a clean sharded run or a typed decline —
    /// never a silent wrong answer.
    #[test]
    fn engine_sharding_is_transparent(
        kh in 1usize..=3, kw in 1usize..=3,
        sh in 1usize..=3, sw in 1usize..=2,
        extra in 0usize..=8,
        seed in any::<u64>(),
    ) {
        let params = PoolParams::new((kh, kw), (sh, sw));
        let (ih, iw) = (kh + 6 + extra, kw + 4 + extra);
        prop_assume!(params.out_dims(ih, iw).is_ok());
        let x = input(1, ih, iw, seed);
        let mask = reference::maxpool_argmax_mask(&x, &params).unwrap();
        let (oh, ow) = params.out_dims(ih, iw).unwrap();
        let grads = nasty_grads(oh, ow, 1, 1, seed ^ 0x5EED);
        let want = reference::maxpool_backward(&mask, &grads, &params, ih, iw).unwrap();
        for cores in [1usize, 2, 8, 32] {
            let chip = Chip::new(cores, CostModel::ascend910_like())
                .with_memory(MemoryModel::ascend910_l2());
            for tune in [false, true] {
                let eng = PoolingEngine::new(chip.clone())
                    .with_sharding(true)
                    .with_auto_tuning(tune);
                for merge in [MergeImpl::VAdd, MergeImpl::Col2Im] {
                    let (dx, run) = eng
                        .maxpool_backward(&mask, &grads, params, ih, iw, merge)
                        .unwrap();
                    prop_assert_eq!(
                        dx.data(), want.data(),
                        "{:?} {:?} cores={} tune={}", params, merge, cores, tune
                    );
                    prop_assert_eq!(run.total.tuner_mispredicted, 0,
                        "engine runs stay certified");
                }
            }
        }
    }
}
