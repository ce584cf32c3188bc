//! Fused conv→pool tile handoff: one program computes the convolution
//! with its output planes **resident in UB** and the pooling reduction
//! consumes them there — the intermediate tensor never round-trips
//! through GM.
//!
//! Why UB: this chip has no UB→L1 or L0C→L1 datapath
//! (`dv_isa::DataMove::LEGAL_PATHS`), so a Cube product can never climb
//! back into L1 to feed a second Cube pass. What *can* consume a
//! UB-resident tile is the Vector Unit — and pooling is exactly a
//! Vector-unit reduction. The conv drain leaves `n_fr` patch-major f16
//! planes in UB ([`dv_conv::ResidentConv`]); the consumer then runs the
//! canonical `(kh, kw)` reduction per pooled output row as strided
//! 16-lane vector instructions, bit-exact against the layered
//! composition (same flat reduction orders as the golden references).
//!
//! Declines are typed, never silent: pool geometries the consumer cannot
//! walk (padding, ceil-mode, too-wide rows) refuse with
//! [`ConvError::Unsupported`], and UB working sets that do not fit
//! refuse with [`ConvError::Capacity`] — the model runner falls back to
//! the layer-at-a-time path and books the decline.

use dv_akg::{dma, elementwise, fill_region, GmArena};
use dv_conv::{build_conv2d_resident, kernels_to_fracz, ConvError, ConvLowering};
use dv_fp16::F16;
use dv_isa::{Addr, Instr, Mask, VectorInstr, VectorOp, MAX_REPEAT};
use dv_sim::{Chip, ChipRun, GmDeclaration, LentGm};
use dv_tensor::{Nc1hwc0, Nchw, PoolParams, C0, FRACTAL_BYTES, FRACTAL_ROWS};

/// Bytes of one 16-channel pixel group.
const ROW: usize = C0 * 2;

/// Which reduction the fused pool consumer runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PoolKind {
    /// MaxPool: `-inf` init, `vmax` accumulate.
    Max,
    /// AvgPool: zero init, `vadd` accumulate, one `vmuls 1/(Kh*Kw)`.
    Avg,
}

/// Estimated UB working set of a fused conv→pool segment: the resident
/// conv planes plus the pooled output staging. Used by the segment
/// planner before committing to the handoff.
pub fn fused_ub_bytes(
    input_hw: (usize, usize),
    m: usize,
    conv_params: &PoolParams,
    pool_params: &PoolParams,
) -> Result<usize, dv_tensor::ShapeError> {
    let (oh, ow) = conv_params.out_dims(input_hw.0, input_hw.1)?;
    let (poh, pow) = pool_params.out_dims(oh, ow)?;
    let n_fr = m.div_ceil(FRACTAL_ROWS);
    let m_fr = (oh * ow).div_ceil(FRACTAL_ROWS);
    Ok(n_fr * ((m_fr + 1) * FRACTAL_BYTES) + n_fr * poh * pow * ROW)
}

/// Run a fused conv→pool segment on `chip`: convolution under the
/// requested lowering with a UB-resident drain, pooling consumed
/// in-place, only the *pooled* planes written to GM. Returns the pooled
/// NCHW output and the chip counters (with conv implicit-lowering
/// declines booked into `implicit_declines`).
pub fn run_fused_conv_pool(
    chip: &Chip,
    input: &Nchw,
    weights: &Nchw,
    conv_params: &PoolParams,
    kind: PoolKind,
    pool_params: &PoolParams,
    lowering: ConvLowering,
) -> Result<(Nchw, ChipRun), ConvError> {
    if input.n != 1 {
        return Err(ConvError::Unsupported("batch size must be 1".into()));
    }
    if weights.c != input.c {
        return Err(ConvError::Shape(dv_tensor::ShapeError::Mismatch(format!(
            "kernel channels {} != input channels {}",
            weights.c, input.c
        ))));
    }
    let (oh, ow) = conv_params.out_dims(input.h, input.w)?;
    let (poh, pow) = pool_params.out_dims(oh, ow)?;
    // The consumer walks in-bounds windows of the resident planes: no
    // padding taps and no ceil-mode overhang exist in UB.
    if !pool_params.padding.is_none() {
        return Err(ConvError::Unsupported(
            "fused pool consumer does not read padding taps".into(),
        ));
    }
    if pool_params.ceil_mode {
        return Err(ConvError::Unsupported(
            "fused pool consumer does not overhang rows (ceil mode)".into(),
        ));
    }
    if pow > MAX_REPEAT as usize {
        return Err(ConvError::Unsupported(format!(
            "pooled row of {pow} pixels exceeds one repeat chain"
        )));
    }

    let fractal_in = input.to_nc1hwc0();
    let (weights_fz, _k_fr, n_fr) = kernels_to_fracz(weights, conv_params);
    let out_plane_bytes = poh * pow * ROW;

    let mut arena = GmArena::new();
    let gm_in = arena.alloc(fractal_in.byte_len());
    let gm_weights = arena.alloc(weights_fz.len() * 2);
    let gm_out = arena.alloc(n_fr * out_plane_bytes);

    let (mut p, resident, declines) = build_conv2d_resident(
        input.c,
        input.h,
        input.w,
        weights.n,
        conv_params,
        gm_in,
        gm_weights,
        0,
        chip,
        lowering,
    )?;
    let ub_out = resident.end();
    let needed = ub_out + n_fr * out_plane_bytes;
    if needed > chip.caps.ub {
        return Err(ConvError::Capacity {
            resource: "ub",
            needed,
            available: chip.caps.ub,
        });
    }

    let (op, init) = match kind {
        PoolKind::Max => (VectorOp::Max, F16::NEG_INFINITY),
        PoolKind::Avg => (VectorOp::Add, F16::ZERO),
    };
    for j in 0..n_fr {
        let plane = Addr::ub(resident.base + j * resident.plane_stride);
        let out_plane = Addr::ub(ub_out + j * out_plane_bytes);
        fill_region(&mut p, out_plane, init, poh * pow * C0)?;
        // Canonical (kh, kw) accumulation order per output pixel — the
        // golden references' order, so the handoff is bit-exact against
        // the layered composition.
        for khi in 0..pool_params.kh {
            for kwi in 0..pool_params.kw {
                for r in 0..poh {
                    let src_pixel =
                        (r * pool_params.sh + khi * pool_params.dh) * ow + kwi * pool_params.dw;
                    p.push(Instr::Vector(VectorInstr {
                        op,
                        dst: out_plane.add(r * pow * ROW),
                        src0: out_plane.add(r * pow * ROW),
                        src1: plane.add(src_pixel * ROW),
                        mask: Mask::C0_ONLY,
                        repeat: pow as u16,
                        dst_stride: ROW,
                        src0_stride: ROW,
                        src1_stride: pool_params.sw * ROW,
                    }))?;
                }
            }
        }
        if kind == PoolKind::Avg {
            let scale = F16::from_f32(1.0 / (pool_params.kh * pool_params.kw) as f32);
            elementwise(
                &mut p,
                VectorOp::MulScalar(scale),
                out_plane,
                out_plane,
                out_plane,
                poh * pow * C0,
            )?;
        }
        dma(
            &mut p,
            out_plane,
            Addr::gm(gm_out + j * out_plane_bytes),
            out_plane_bytes,
        )?;
    }

    // The pooled planes at `gm_out` have exactly the layout of an
    // `n_fr`-plane NC1HWC0 tensor: lend one writable, with the input and
    // the FracZ weights read-only, and the run merges its results into it.
    let mut out = Nc1hwc0::zeros(1, n_fr, poh, pow);
    out.orig_c = weights.n;
    let programs = [p];
    let mut gm = LentGm::new(arena.size());
    gm.lend(gm_in, dv_fp16::as_bytes(fractal_in.data()))?;
    gm.lend(gm_weights, dv_fp16::as_bytes(&weights_fz))?;
    gm.lend_mut(gm_out, dv_fp16::as_bytes_mut(out.data_mut()))?;
    let mut run = chip.run_lent(&mut gm, &programs, &[GmDeclaration::scan(&programs[0])])?;
    run.total.implicit_declines += declines;
    Ok((out.to_nchw(), run))
}
