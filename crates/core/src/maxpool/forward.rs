//! Forward pooling lowerings (paper, Section V-A and VI-B).
//!
//! Every builder produces one [`Program`] per `(n, c1)` plane — the unit
//! the chip parallelises — and row-band tiles inside the program when the
//! plane exceeds the Unified Buffer.

use super::pipeline;
use crate::problem::{ForwardImpl, LowerError, PoolProblem};
use crate::schedule::Schedule;
use dv_akg::{
    balanced_chunks, band_input_rows, band_params, dma, elementwise, fill_region, max_row_band,
    row_bands, strided_accumulate, Band, BandMode, BandSlots, UbArena,
};
use dv_fp16::F16;
use dv_isa::{
    Addr, Im2Col, Im2ColGeometry, Instr, Mask, Program, RepeatMode, VectorInstr, VectorOp,
    MAX_REPEAT,
};
use dv_sim::Capacities;
use dv_tensor::{PoolParams, C0, FRACTAL_BYTES, FRACTAL_ROWS};

/// The reduction a forward pooling applies (MaxPool / AvgPool share all
/// four lowerings; AvgPool adds a final scale — Section V-C).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Reduction {
    /// `vmax` accumulation from `-inf`.
    Max,
    /// `vadd` accumulation from `0`, then one `vmuls` by `scale`
    /// (`1/(Kh*Kw)`).
    Sum {
        /// the post-reduction scale factor
        scale: F16,
    },
}

impl Reduction {
    pub(crate) fn op(self) -> VectorOp {
        match self {
            Reduction::Max => VectorOp::Max,
            Reduction::Sum { .. } => VectorOp::Add,
        }
    }

    pub(crate) fn init(self) -> F16 {
        match self {
            Reduction::Max => F16::NEG_INFINITY,
            Reduction::Sum { .. } => F16::ZERO,
        }
    }
}

const ROW: usize = C0 * 2; // bytes of one C0 group

/// Build forward pooling programs, one per `(n, c1)` plane.
///
/// `gm_in`/`gm_out` are the global-memory byte offsets of the NC1HWC0
/// input and output tensors.
pub fn build_forward(
    prob: &PoolProblem,
    impl_: ForwardImpl,
    reduction: Reduction,
    gm_in: usize,
    gm_out: usize,
    caps: Capacities,
) -> Result<Vec<Program>, LowerError> {
    build_forward_inner(
        prob,
        impl_,
        reduction,
        gm_in,
        gm_out,
        None,
        caps,
        1,
        Schedule::default(),
    )
}

/// Like [`build_forward`], but split each plane's row bands over up to
/// `parallel` total programs so a chip with more cores than `(N, C1)`
/// planes still parallelises ("each core calculates a share of the
/// output", Section VII). Forward bands write disjoint output rows, so
/// they partition freely; backward keeps one program per plane because
/// adjacent bands share a halo.
///
/// `sched` controls cross-band overlap: with [`Schedule::double`] set
/// and band splitting active, the load of band `i + 1` is issued into a
/// ping-pong (A/B) slot before the reduction of band `i` (except where
/// the band planner declines it — see [`crate::schedule`]). Results are
/// bit-identical in every mode (execution is program-order).
#[allow(clippy::too_many_arguments)]
pub fn build_forward_parallel(
    prob: &PoolProblem,
    impl_: ForwardImpl,
    reduction: Reduction,
    gm_in: usize,
    gm_out: usize,
    caps: Capacities,
    parallel: usize,
    sched: Schedule,
) -> Result<Vec<Program>, LowerError> {
    build_forward_inner(
        prob, impl_, reduction, gm_in, gm_out, None, caps, parallel, sched,
    )
}

/// Build forward pooling that additionally stores the argmax mask (in the
/// im2col patch layout) at `gm_mask` — the Fig. 7b computation — with
/// band-level parallel splitting and double-buffering control (see
/// [`build_forward_parallel`]). Only the `Standard` and `Im2col`
/// implementations support the mask, and only with `Reduction::Max`.
#[allow(clippy::too_many_arguments)]
pub fn build_forward_with_argmax_parallel(
    prob: &PoolProblem,
    impl_: ForwardImpl,
    gm_in: usize,
    gm_out: usize,
    gm_mask: usize,
    caps: Capacities,
    parallel: usize,
    sched: Schedule,
) -> Result<Vec<Program>, LowerError> {
    if !matches!(impl_, ForwardImpl::Standard | ForwardImpl::Im2col) {
        return Err(LowerError::Unsupported(format!(
            "argmax mask is lowered only for Standard and Im2col (got {impl_:?})"
        )));
    }
    build_forward_inner(
        prob,
        impl_,
        Reduction::Max,
        gm_in,
        gm_out,
        Some(gm_mask),
        caps,
        parallel,
        sched,
    )
}

#[allow(clippy::too_many_arguments)]
fn build_forward_inner(
    prob: &PoolProblem,
    impl_: ForwardImpl,
    reduction: Reduction,
    gm_in: usize,
    gm_out: usize,
    gm_mask: Option<usize>,
    caps: Capacities,
    parallel: usize,
    sched: Schedule,
) -> Result<Vec<Program>, LowerError> {
    let params = prob.params;
    // The X-Y split reduces each window in two passes, re-associating an
    // f16 sum away from the reference's order; the paper only uses it
    // for MaxPool.
    if impl_ == ForwardImpl::XYSplit && matches!(reduction, Reduction::Sum { .. }) {
        return Err(LowerError::Unsupported(
            "AvgPool X-Y split re-associates the f16 sum".into(),
        ));
    }
    // Padding support: the Im2Col instruction realises padding for free;
    // the other lowerings would need explicit border handling that the
    // paper's experiments never exercise ("No padding is used in them").
    if impl_ != ForwardImpl::Im2col && !params.padding.is_none() {
        return Err(LowerError::Unsupported(format!(
            "{impl_:?} lowering requires no padding"
        )));
    }
    // Dilation support: Im2col gets it from the instruction's geometry;
    // Standard gets it from strided addressing. Expansion and XYSplit
    // would need dilated gather patterns nobody benchmarks.
    if params.has_dilation() && !matches!(impl_, ForwardImpl::Im2col | ForwardImpl::Standard) {
        return Err(LowerError::Unsupported(format!(
            "{impl_:?} lowering does not support dilation"
        )));
    }
    // Ceil-mode overhang: windows past the input read synthesised zeros,
    // which only the coordinate-checked Im2Col gather can produce. Other
    // lowerings address the staged band directly and may only run ceil
    // geometries whose rounding happens to add no overhang.
    if impl_ != ForwardImpl::Im2col && params.ceil_mode {
        let overhang = params.ceil_overhang(prob.ih, prob.iw)?;
        if overhang != (0, 0) {
            return Err(LowerError::Unsupported(format!(
                "{impl_:?} lowering cannot read past the input \
                 (ceil-mode overhang {overhang:?})"
            )));
        }
    }

    let (oh, _ow) = prob.out_dims();
    let (mut boh, mut mode) = plan_band(prob, impl_, gm_mask.is_some(), caps, &sched)?;
    // When the chip has more cores than (N, C1) planes, shrink bands so
    // each plane yields enough independent bands to occupy its share of
    // cores (the scheduler trades tile size for parallelism).
    let planes = prob.n * prob.c1;
    let desired_groups = (parallel.max(1) / planes).max(1);
    if desired_groups > 1 {
        boh = boh.min(oh.div_ceil(desired_groups)).max(1);
    }

    // `row_bands` widens a single band to the full input extent, clamps
    // multi-band extents, and rejects padded multi-band requests with a
    // typed error.
    let bands = row_bands(&params, oh, boh, prob.ih)?;
    if bands.len() == 1 {
        mode = BandMode::Single;
    }

    // Distribute this plane count's bands over `parallel` programs:
    // forward bands touch disjoint output rows, so grouping contiguous
    // bands into separate programs lets idle cores take shares of a
    // plane when C1 < cores.
    let groups_per_plane = desired_groups.min(bands.len());

    let mut programs = Vec::with_capacity(planes * groups_per_plane);
    for (n, c1) in prob.planes() {
        let in_base = gm_in + prob.in_plane_offset(n, c1);
        let out_base = gm_out + prob.out_plane_offset(n, c1);
        // Balanced split: group sizes differ by at most one, so every
        // requested group draws work (`chunks(div_ceil)` can under-fill —
        // 5 bands over 4 groups gave (2, 2, 1): three shards for four
        // cores at the same 2-band makespan floor).
        for group in balanced_chunks(&bands, groups_per_plane) {
            // Cross-band overlap only pays off when this program cycles
            // through at least two bands; a single-band group keeps the
            // single-slot layout (and its exact instruction stream).
            let group_mode = if group.len() > 1 {
                mode
            } else {
                BandMode::Single
            };
            let layout =
                ForwardLayout::plan(prob, impl_, gm_mask.is_some(), boh, caps, group_mode)?;
            let mut p = Program::new();
            pipeline(
                &mut p,
                group.len(),
                group_mode == BandMode::PingPong,
                |p, i| emit_load(p, prob, impl_, in_base, &layout, &group[i], i),
                |p, i| {
                    emit_compute(
                        p,
                        prob,
                        impl_,
                        reduction,
                        out_base,
                        &layout,
                        &group[i],
                        i,
                        gm_mask,
                        (n, c1),
                    )
                },
            )?;
            programs.push(p);
        }
    }
    Ok(programs)
}

/// Per-program placement of the band-cycled UB regions. Planned once per
/// band group so ping-pong (A/B) slots persist across the bands the
/// program cycles through. With [`BandMode::Single`] every region has one
/// slot at the same offset a per-band layout would produce, so the
/// single-buffered instruction stream is unchanged. The Im2col input band
/// stages at L1 offset 0 (Im2col never ping-pongs — see [`plan_band`]).
struct ForwardLayout {
    /// Staged raw input rows (Standard / Expansion / XYSplit).
    ub_in: Option<BandSlots>,
    /// Column planes (Im2col / Expansion).
    ub_cols: Option<BandSlots>,
    /// X-Y split intermediate.
    ub_tmp: Option<BandSlots>,
    /// Output accumulator.
    ub_out: BandSlots,
    /// Argmax mask planes.
    ub_mask: Option<BandSlots>,
    /// Fractal-padded plane bytes at the planned band height.
    padded: usize,
}

impl ForwardLayout {
    fn plan(
        prob: &PoolProblem,
        impl_: ForwardImpl,
        with_mask: bool,
        boh_max: usize,
        caps: Capacities,
        mode: BandMode,
    ) -> Result<ForwardLayout, LowerError> {
        let params = &prob.params;
        let (_, ow) = prob.out_dims();
        let planes = params.kh * params.kw;
        let padded = PoolProblem::padded_plane_bytes(boh_max * ow);
        let in_bytes = band_input_rows(params, boh_max) * prob.iw * ROW;
        let out_bytes = boh_max * ow * ROW;
        let mut ub = UbArena::new(caps.ub);
        let mask = |ub: &mut UbArena| -> Result<Option<BandSlots>, LowerError> {
            Ok(if with_mask {
                Some(ub.alloc_band_mode(planes * padded, mode)?)
            } else {
                None
            })
        };
        let (ub_in, ub_cols, ub_tmp, ub_out, ub_mask) = match impl_ {
            ForwardImpl::Standard => {
                let i = ub.alloc_band_mode(in_bytes, mode)?;
                let o = ub.alloc_band_mode(out_bytes, mode)?;
                let m = mask(&mut ub)?;
                (Some(i), None, None, o, m)
            }
            ForwardImpl::Im2col => {
                let c = ub.alloc_band_mode(planes * padded, mode)?;
                let o = ub.alloc_band_mode(padded, mode)?;
                let m = mask(&mut ub)?;
                (None, Some(c), None, o, m)
            }
            ForwardImpl::Expansion => {
                let i = ub.alloc_band_mode(in_bytes, mode)?;
                let c = ub.alloc_band_mode(planes * padded, mode)?;
                let o = ub.alloc_band_mode(padded, mode)?;
                (Some(i), Some(c), None, o, None)
            }
            ForwardImpl::XYSplit => {
                let i = ub.alloc_band_mode(in_bytes, mode)?;
                let t = ub.alloc_band_mode(band_input_rows(params, boh_max) * ow * ROW, mode)?;
                let o = ub.alloc_band_mode(out_bytes, mode)?;
                (Some(i), None, Some(t), o, None)
            }
        };
        Ok(ForwardLayout {
            ub_in,
            ub_cols,
            ub_tmp,
            ub_out,
            ub_mask,
            padded,
        })
    }
}

/// Emit the pipe-0 (MTE/SCU) stage of one band: everything that fills
/// the band's input slot and nothing that reads it.
fn emit_load(
    p: &mut Program,
    prob: &PoolProblem,
    impl_: ForwardImpl,
    in_base: usize,
    layout: &ForwardLayout,
    band: &Band,
    slot: usize,
) -> Result<(), LowerError> {
    match impl_ {
        ForwardImpl::Im2col => emit_im2col_load(p, prob, in_base, layout, band, slot),
        _ => {
            let ub_in = Addr::ub(layout.ub_in.expect("staged-input layout").of(slot));
            dma(
                p,
                Addr::gm(in_base + band.ih0 * prob.iw * ROW),
                ub_in,
                band.ih_len * prob.iw * ROW,
            )?;
            Ok(())
        }
    }
}

/// Emit the compute stage of one band: the reduction (and any argmax
/// compares) out of the band's slot, then the band's flush — the AvgPool
/// scale, the mask planes and the output rows.
#[allow(clippy::too_many_arguments)]
fn emit_compute(
    p: &mut Program,
    prob: &PoolProblem,
    impl_: ForwardImpl,
    reduction: Reduction,
    out_base: usize,
    layout: &ForwardLayout,
    band: &Band,
    slot: usize,
    gm_mask: Option<usize>,
    (n, c1): (usize, usize),
) -> Result<(), LowerError> {
    match impl_ {
        ForwardImpl::Standard => emit_standard_compute(p, prob, reduction, layout, band, slot)?,
        ForwardImpl::Im2col => emit_im2col_compute(p, prob, reduction, layout, band, slot)?,
        ForwardImpl::Expansion => emit_expansion_compute(p, prob, reduction, layout, band, slot)?,
        ForwardImpl::XYSplit => emit_xysplit_compute(p, prob, reduction, layout, band, slot)?,
    }

    // The flush follows the argmax compares. Every stream keeps its
    // order: a Sum reduction never carries a mask, and an argmax run
    // never scales.
    let params = &prob.params;
    let (_, ow) = prob.out_dims();
    let rows = band.oh_len() * ow;
    let ub_out = Addr::ub(layout.ub_out.of(slot));
    if let Reduction::Sum { scale } = reduction {
        // Im2col reduced whole fractals; the other lowerings only the
        // valid rows (the padded tail stays at its init value).
        let elems = match impl_ {
            ForwardImpl::Im2col => PoolProblem::fractals_for(rows) * FRACTAL_ROWS * C0,
            _ => rows * C0,
        };
        elementwise(p, VectorOp::MulScalar(scale), ub_out, ub_out, ub_out, elems)?;
    }
    if let (Some(mask_base), Some(ub_mask)) = (gm_mask, layout.ub_mask) {
        let ub_mask = Addr::ub(ub_mask.of(slot));
        for kh in 0..params.kh {
            for kw in 0..params.kw {
                let plane_gm =
                    mask_base + prob.mask_plane_offset(n, c1, kh, kw) + band.oh0 * ow * ROW;
                dma(
                    p,
                    ub_mask.add((kh * params.kw + kw) * layout.padded),
                    Addr::gm(plane_gm),
                    rows * ROW,
                )?;
            }
        }
    }
    dma(
        p,
        ub_out,
        Addr::gm(out_base + band.oh0 * ow * ROW),
        rows * ROW,
    )?;
    Ok(())
}

/// Unified-Buffer footprint of one band for each implementation, in
/// bytes. `boh` = output rows in the band.
pub(crate) fn ub_footprint(
    prob: &PoolProblem,
    impl_: ForwardImpl,
    with_mask: bool,
    boh: usize,
) -> usize {
    let params = &prob.params;
    let (_, ow) = prob.out_dims();
    let in_band = band_input_rows(params, boh) * prob.iw * ROW;
    let out_band = boh * ow * ROW;
    let planes = params.kh * params.kw;
    let padded = PoolProblem::padded_plane_bytes(boh * ow);
    let mask = if with_mask { planes * padded } else { 0 };
    match impl_ {
        ForwardImpl::Standard => in_band + out_band + mask,
        // Im2col: the raw input stages in L1, the UB holds the column
        // planes plus a fractal-padded output.
        ForwardImpl::Im2col => (planes + 1) * padded + mask,
        ForwardImpl::Expansion => in_band + (planes + 1) * padded,
        ForwardImpl::XYSplit => {
            let tmp = band_input_rows(params, boh) * ow * ROW;
            in_band + tmp + out_band
        }
    }
}

/// Choose the band height and overlap mode: the largest band that fits
/// the UB (and, for Im2col, stages its input rows in L1).
///
/// When [`Schedule::double`] is set and the plane does not fit in one
/// band, the capacity query runs again against the halved budget (2x the
/// band footprint must fit) to size a [`BandMode::PingPong`] plan; if
/// even a one-row band cannot be doubled, the plan falls back to single
/// buffering. **Im2col** never ping-pongs: it keeps the MTE/SCU pipe
/// nearly saturated by design — the expansion work shares a pipe with
/// the prefetch itself — so ping-pong slots recover only the small
/// Vector reduce tail, which the Fig. 8 sweep measured below the cost of
/// the halved band.
pub(crate) fn plan_band(
    prob: &PoolProblem,
    impl_: ForwardImpl,
    with_mask: bool,
    caps: Capacities,
    sched: &Schedule,
) -> Result<(usize, BandMode), LowerError> {
    let (oh, _) = prob.out_dims();
    let fit = |copies: usize| -> Result<usize, dv_akg::TilingError> {
        max_row_band(oh, caps.ub, |b| {
            copies * ub_footprint(prob, impl_, with_mask, b)
        })
    };
    let mut boh = fit(1)?;
    if impl_ == ForwardImpl::Im2col {
        let l1_band = max_row_band(oh, caps.l1, |b| {
            band_input_rows(&prob.params, b) * prob.iw * ROW
        })?;
        boh = boh.min(l1_band);
    }
    if !sched.double || boh >= oh || impl_ == ForwardImpl::Im2col {
        return Ok((boh, BandMode::Single));
    }
    match fit(2) {
        Ok(db_boh) => Ok((db_boh, BandMode::PingPong)),
        Err(_) => Ok((boh, BandMode::Single)),
    }
}

/// The Fig. 8 *tiling threshold*: the largest square input `H = W` one
/// band can process for this implementation (N = C1 = 1).
pub fn tiling_threshold(params: &PoolParams, impl_: ForwardImpl, caps: Capacities) -> usize {
    dv_akg::tiling_threshold(caps.ub, 4096, |hw| {
        match PoolProblem::new(
            1,
            1,
            hw.max(params.eff_kh()),
            hw.max(params.eff_kw()),
            *params,
        ) {
            Ok(p) => {
                let (oh, _) = p.out_dims();
                let ub = ub_footprint(&p, impl_, false, oh);
                if impl_ == ForwardImpl::Im2col {
                    // also require the L1 staging to fit
                    if p.in_plane_bytes() > caps.l1 {
                        return usize::MAX;
                    }
                }
                ub
            }
            Err(_) => usize::MAX,
        }
    })
}

// ---------------------------------------------------------------------
// Standard (Listing 1): strided reduction on the NC1HWC0 band.
// ---------------------------------------------------------------------

fn emit_standard_compute(
    p: &mut Program,
    prob: &PoolProblem,
    reduction: Reduction,
    layout: &ForwardLayout,
    band: &Band,
    slot: usize,
) -> Result<(), LowerError> {
    let params = &prob.params;
    let (_, ow) = prob.out_dims();
    let boh = band.oh_len();
    let padded = layout.padded;

    let ub_in = Addr::ub(layout.ub_in.expect("standard layout").of(slot));
    let ub_out = Addr::ub(layout.ub_out.of(slot));
    let ub_mask = layout.ub_mask.map(|s| Addr::ub(s.of(slot)));

    // Initialise the output accumulator (the band was staged by the
    // load stage, possibly into the alternate slot).
    fill_region(p, ub_out, reduction.init(), boh * ow * C0)?;

    if params.sw == 1 {
        // Stride width 1: consecutive patches are consecutive in memory,
        // so the lowering "combin[es] the mask register set with all 128
        // elements and its repeat parameter" (Section VI-B): per output
        // row and kernel row, full-mask chunks whose Kw-repeat slides the
        // source one column (32 B) per iteration — the behaviour that
        // makes direct pooling win Fig. 8a.
        for oh_r in 0..boh {
            for kh in 0..params.kh {
                let dst_row = ub_out.add(oh_r * ow * ROW);
                let src_row = ub_in.add((oh_r * params.sh + kh * params.dh) * prob.iw * ROW);
                let elems = ow * C0;
                let mut e0 = 0usize;
                while e0 < elems {
                    let n = (elems - e0).min(dv_isa::VECTOR_LANES);
                    p.push(Instr::Vector(VectorInstr {
                        op: reduction.op(),
                        dst: dst_row.add(e0 * 2),
                        src0: dst_row.add(e0 * 2),
                        src1: src_row.add(e0 * 2),
                        mask: Mask::first_n(n),
                        repeat: params.kw as u16,
                        dst_stride: 0,
                        src0_stride: 0,
                        src1_stride: params.dw * ROW,
                    }))?;
                    e0 += n;
                }
            }
        }
    } else {
        // General case: 16 of 128 mask lanes (the C0 group), one issue
        // per (oh, ow, kh) with a Kw-repeat over the patch width.
        for oh_r in 0..boh {
            for ow_i in 0..ow {
                for kh in 0..params.kh {
                    let dst = ub_out.add((oh_r * ow + ow_i) * ROW);
                    let src = ub_in.add(
                        ((oh_r * params.sh + kh * params.dh) * prob.iw + ow_i * params.sw) * ROW,
                    );
                    strided_accumulate(
                        p,
                        reduction.op(),
                        dst,
                        src,
                        Mask::C0_ONLY,
                        params.kw as u16,
                        params.dw * ROW,
                    )?;
                }
            }
        }
    }

    // Argmax mask: compare every patch element against the patch maximum
    // (Section V-A). One vcmp per (oh, ow, kh) with a Kw repeat whose
    // destination strides across whole mask planes.
    if let Some(ub_mask) = ub_mask {
        for oh_r in 0..boh {
            for ow_i in 0..ow {
                for kh in 0..params.kh {
                    p.push(Instr::Vector(VectorInstr {
                        op: VectorOp::CmpEq,
                        dst: ub_mask.add((kh * params.kw) * padded + (oh_r * ow + ow_i) * ROW),
                        src0: ub_in.add(
                            ((oh_r * params.sh + kh * params.dh) * prob.iw + ow_i * params.sw)
                                * ROW,
                        ),
                        src1: ub_out.add((oh_r * ow + ow_i) * ROW),
                        mask: Mask::C0_ONLY,
                        repeat: params.kw as u16,
                        dst_stride: padded,
                        src0_stride: params.dw * ROW,
                        src1_stride: 0,
                    }))?;
                }
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Im2col (Listing 2): SCU loads into (Kh, Kw, Oh, Ow, C0), saturated
// reduction over the outer kernel axes.
// ---------------------------------------------------------------------

/// Emit the mode-1 `Im2Col` issues covering `bf` fractals of one
/// `(kh, kw)` plane (chunked at the hardware repeat limit).
fn emit_im2col_plane(
    p: &mut Program,
    geom: Im2ColGeometry,
    k_off: (usize, usize),
    src: Addr,
    dst: Addr,
    bf: usize,
) -> Result<(), LowerError> {
    let mut f0 = 0usize;
    while f0 < bf {
        let rep = (bf - f0).min(MAX_REPEAT as usize);
        p.push(Instr::Im2Col(Im2Col {
            geom,
            src,
            dst: dst.add(f0 * FRACTAL_BYTES),
            first_patch: f0 * FRACTAL_ROWS,
            k_off,
            c1: 0,
            repeat: rep as u16,
            mode: RepeatMode::Mode1,
        }))?;
        f0 += rep;
    }
    Ok(())
}

/// The Im2col load stage: stage the band in L1 and issue the SCU loads
/// into the band's column planes. All of it runs on pipe 0 (MTE + SCU).
fn emit_im2col_load(
    p: &mut Program,
    prob: &PoolProblem,
    in_base: usize,
    layout: &ForwardLayout,
    band: &Band,
    slot: usize,
) -> Result<(), LowerError> {
    let params = prob.params;
    let (oh_total, ow) = prob.out_dims();
    let boh = band.oh_len();
    let padded = layout.padded;
    let bf = PoolProblem::fractals_for(boh * ow);
    let ub_cols = Addr::ub(layout.ub_cols.expect("im2col layout").of(slot));
    let l1_in = Addr::l1(0);

    let geom = Im2ColGeometry::new(
        band.ih_len,
        prob.iw,
        1,
        band_params(&params, band.oh0, band.oh1, oh_total),
    )
    .map_err(LowerError::Isa)?;
    debug_assert_eq!(geom.out_dims(), (boh, ow));

    dma(
        p,
        Addr::gm(in_base + band.ih0 * prob.iw * ROW),
        l1_in,
        band.ih_len * prob.iw * ROW,
    )?;
    for kh in 0..params.kh {
        for kw in 0..params.kw {
            let plane = ub_cols.add((kh * params.kw + kw) * padded);
            emit_im2col_plane(p, geom, (kh, kw), l1_in, plane, bf)?;
        }
    }
    Ok(())
}

fn emit_im2col_compute(
    p: &mut Program,
    prob: &PoolProblem,
    reduction: Reduction,
    layout: &ForwardLayout,
    band: &Band,
    slot: usize,
) -> Result<(), LowerError> {
    let params = prob.params;
    let (_, ow) = prob.out_dims();
    let planes = params.kh * params.kw;
    let padded = layout.padded;
    let bf = PoolProblem::fractals_for(band.oh_len() * ow);

    let ub_cols = Addr::ub(layout.ub_cols.expect("im2col layout").of(slot));
    let ub_out = Addr::ub(layout.ub_out.of(slot));

    // Saturated reduction: Kh*Kw elementwise issues over the whole band.
    fill_region(p, ub_out, reduction.init(), bf * FRACTAL_ROWS * C0)?;
    for plane_idx in 0..planes {
        let plane = ub_cols.add(plane_idx * padded);
        elementwise(
            p,
            reduction.op(),
            ub_out,
            ub_out,
            plane,
            bf * FRACTAL_ROWS * C0,
        )?;
    }

    // Argmax mask: one saturated vcmp per plane, comparing the plane
    // against the reduced maximum ("comparing each patch of the input
    // with its maximum value").
    if let Some(ub_mask) = layout.ub_mask {
        let ub_mask = Addr::ub(ub_mask.of(slot));
        for plane_idx in 0..planes {
            let plane = ub_cols.add(plane_idx * padded);
            let mplane = ub_mask.add(plane_idx * padded);
            elementwise(
                p,
                VectorOp::CmpEq,
                mplane,
                plane,
                ub_out,
                bf * FRACTAL_ROWS * C0,
            )?;
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Expansion (Fig. 8): layout change with regular vector copies in the UB.
// ---------------------------------------------------------------------

fn emit_expansion_compute(
    p: &mut Program,
    prob: &PoolProblem,
    reduction: Reduction,
    layout: &ForwardLayout,
    band: &Band,
    slot: usize,
) -> Result<(), LowerError> {
    let params = &prob.params;
    let (_, ow) = prob.out_dims();
    let boh = band.oh_len();
    let planes = params.kh * params.kw;
    let padded = layout.padded;
    let bf = PoolProblem::fractals_for(boh * ow);

    let ub_in = Addr::ub(layout.ub_in.expect("expansion layout").of(slot));
    let ub_cols = Addr::ub(layout.ub_cols.expect("expansion layout").of(slot));
    let ub_out = Addr::ub(layout.ub_out.of(slot));

    // The expansion itself: copy each (kh, kw) selection into its dense
    // plane. With Sw = 1 the source is contiguous and the copy saturates;
    // otherwise it is a 16-lane strided gather per output row.
    for kh in 0..params.kh {
        for kw in 0..params.kw {
            let plane = ub_cols.add((kh * params.kw + kw) * padded);
            for oh_r in 0..boh {
                let src_row = (oh_r * params.sh + kh) * prob.iw;
                if params.sw == 1 {
                    elementwise(
                        p,
                        VectorOp::Copy,
                        plane.add(oh_r * ow * ROW),
                        ub_in.add((src_row + kw) * ROW),
                        Addr::ub(0),
                        ow * C0,
                    )?;
                } else {
                    let mut o0 = 0usize;
                    while o0 < ow {
                        let rep = (ow - o0).min(MAX_REPEAT as usize);
                        p.push(Instr::Vector(VectorInstr {
                            op: VectorOp::Copy,
                            dst: plane.add((oh_r * ow + o0) * ROW),
                            src0: ub_in.add((src_row + o0 * params.sw + kw) * ROW),
                            src1: Addr::ub(0),
                            mask: Mask::C0_ONLY,
                            repeat: rep as u16,
                            dst_stride: ROW,
                            src0_stride: params.sw * ROW,
                            src1_stride: 0,
                        }))?;
                        o0 += rep;
                    }
                }
            }
        }
    }

    // Identical reduction to the Im2col variant.
    fill_region(p, ub_out, reduction.init(), bf * FRACTAL_ROWS * C0)?;
    for plane_idx in 0..planes {
        let plane = ub_cols.add(plane_idx * padded);
        // Only the valid prefix was written by the expansion; reduce just
        // that (the padded tail of ub_out stays at its init value).
        elementwise(p, reduction.op(), ub_out, ub_out, plane, boh * ow * C0)?;
    }
    Ok(())
}

// ---------------------------------------------------------------------
// X-Y split (Fig. 8b): width reduction, then height reduction over the
// intermediate tensor ("In TVM, all computations generate a new tensor,
// and thus the in-place approach is not possible").
// ---------------------------------------------------------------------

fn emit_xysplit_compute(
    p: &mut Program,
    prob: &PoolProblem,
    reduction: Reduction,
    layout: &ForwardLayout,
    band: &Band,
    slot: usize,
) -> Result<(), LowerError> {
    let params = &prob.params;
    let (_, ow) = prob.out_dims();
    let boh = band.oh_len();

    let ub_in = Addr::ub(layout.ub_in.expect("xysplit layout").of(slot));
    let ub_tmp = Addr::ub(layout.ub_tmp.expect("xysplit layout").of(slot));
    let ub_out = Addr::ub(layout.ub_out.of(slot));

    // Step 1: reduce along the patch width into tmp[ih, ow, c0].
    fill_region(p, ub_tmp, reduction.init(), band.ih_len * ow * C0)?;
    for ih_r in 0..band.ih_len {
        if params.sw == 1 {
            for kw in 0..params.kw {
                let dst = ub_tmp.add(ih_r * ow * ROW);
                let src = ub_in.add((ih_r * prob.iw + kw) * ROW);
                elementwise(p, reduction.op(), dst, dst, src, ow * C0)?;
            }
        } else {
            for ow_i in 0..ow {
                strided_accumulate(
                    p,
                    reduction.op(),
                    ub_tmp.add((ih_r * ow + ow_i) * ROW),
                    ub_in.add((ih_r * prob.iw + ow_i * params.sw) * ROW),
                    Mask::C0_ONLY,
                    params.kw as u16,
                    ROW,
                )?;
            }
        }
    }

    // Step 2: reduce along the patch height — tmp rows are dense, so this
    // step is fully saturated.
    fill_region(p, ub_out, reduction.init(), boh * ow * C0)?;
    for oh_r in 0..boh {
        for kh in 0..params.kh {
            let dst = ub_out.add(oh_r * ow * ROW);
            let src = ub_tmp.add((oh_r * params.sh + kh) * ow * ROW);
            elementwise(p, reduction.op(), dst, dst, src, ow * C0)?;
        }
    }
    Ok(())
}
