//! Backward pooling lowerings (paper, Section V-B).
//!
//! Both implementations share the multiply step (`vmul` of the argmax
//! mask with the broadcast gradients, Listing 3 — or a `vmuls` of the
//! gradient for AvgPool's uniform mask) and differ only in the **merge
//! step**, which is "exactly the Col2im operation":
//!
//! * [`MergeImpl::VAdd`] — the standard lowering: one 16-lane `vadd` per
//!   `(kh, kw, oh, ow)` patch element, `Kh*Kw*Oh*Ow` issues, no repeat
//!   ("the scattered access pattern of the merge step leads to very poor
//!   usage of the Vector Unit").
//! * [`MergeImpl::Col2Im`] — the accelerated lowering: `Kh*Kw` `Col2Im`
//!   issues per tile, each merging a whole plane fractal-by-fractal with
//!   the hardware repeat.
//!
//! Tiling: bands of output rows, each finalizing a disjoint range of
//! `dx` rows. Because patches of adjacent bands overlap on `Kh - Sh`
//! input rows when `Sh < Kh`, a band loads (and re-multiplies) *every*
//! patch that touches its finalized rows — including the few overlap
//! patches the previous band already processed — and merges them all,
//! `Kh`-major, into a zero-initialised private window (Col2Im requires a
//! zero target, Section III-D). Contributions that land outside the
//! finalized range are scratch and are simply not DMA-ed out. Recomputing
//! the overlap instead of carrying partial sums between bands keeps every
//! `dx` pixel's accumulation entirely within one band, in exactly the
//! unsplit kernel's order — so band splitting is bit-exact even though
//! f16 addition does not associate.

use super::pipeline;
use crate::problem::{LowerError, MergeImpl, PoolProblem};
use crate::schedule::{self, Schedule};
use dv_akg::{
    balanced_ranges, band_input_rows, band_params, dma, elementwise, max_row_band, row_bands,
    zero_region, BandMode, UbArena,
};
use dv_fp16::F16;
use dv_isa::{
    Addr, Col2Im, Im2ColGeometry, Instr, Mask, Program, VectorInstr, VectorOp, MAX_REPEAT,
};
use dv_sim::{Capacities, CostModel, GmDeclaration, HaloOp, HaloSpan};
use dv_tensor::{C0, FRACTAL_BYTES, FRACTAL_ROWS};

const ROW: usize = C0 * 2;

/// Where the per-patch multiplier comes from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BackwardSource {
    /// MaxPool: the argmax mask tensor (im2col patch layout) at this GM
    /// byte offset; the multiply step is `vmul(mask, grad)`.
    MaxMask {
        /// GM byte offset of the mask tensor
        gm_mask: usize,
    },
    /// AvgPool: "the equivalent mask contains 1 in all its positions" —
    /// the multiply step collapses to `vmuls(grad, scale)` with
    /// `scale = 1/(Kh*Kw)`.
    AvgUniform {
        /// the uniform scale factor
        scale: F16,
    },
}

/// One backward band resolved to what it loads, merges, and flushes.
///
/// The band owns the patch rows `[oh0, o_hi)` and finalizes the `dx` rows
/// `[r0, r1)` (disjoint across bands, covering `[0, Ih)`); `[o_lo, o_hi)`
/// are the gradient rows of *every* patch touching those rows, including
/// overlap patches the previous band already processed; the scratch
/// window starts at input row `w_lo = o_lo * Sh` and spans `w_rows` rows —
/// wide enough for all loaded patches plus any gap/trailing zero rows the
/// finalize flushes.
#[derive(Clone, Copy, Debug)]
struct BandSpan {
    oh0: usize,
    o_lo: usize,
    o_hi: usize,
    w_lo: usize,
    w_rows: usize,
    r0: usize,
    r1: usize,
}

impl BandSpan {
    fn new(prob: &PoolProblem, oh0: usize, oh1: usize) -> Self {
        let (kh, sh) = (prob.params.eff_kh(), prob.params.sh);
        let (oh, _) = prob.out_dims();
        let last = oh1 == oh;
        let r0 = oh0 * sh;
        let r1 = if last { prob.ih } else { oh1 * sh };
        // Smallest o with o*Sh + Kh > r0: the first patch reaching r0.
        let o_lo = (r0 + 1).saturating_sub(kh).div_ceil(sh);
        let w_lo = o_lo * sh;
        let w_hi = if last {
            prob.ih
        } else {
            r1.max((oh1 - 1) * sh + kh)
        };
        BandSpan {
            oh0,
            o_lo,
            o_hi: oh1,
            w_lo,
            w_rows: w_hi - w_lo,
            r0,
            r1,
        }
    }

    /// Gradient rows (patch rows) the band loads and merges.
    fn o_len(&self) -> usize {
        self.o_hi - self.o_lo
    }
}

/// One row shard of a plane: it owns the patch rows `[oh0, oh1)` and
/// finalizes the `dx` rows `[r0, r1)`. A whole plane is the one shard
/// `[0, Oh)`, `[0, Ih)`.
#[derive(Clone, Copy, Debug)]
struct Shard {
    oh0: usize,
    oh1: usize,
    r0: usize,
    r1: usize,
}

impl Shard {
    /// The plane split into `count` balanced output-row shards, covering
    /// `[0, Oh)` and `[0, Ih)`; longer shards come first.
    fn split(prob: &PoolProblem, count: usize) -> Vec<Shard> {
        let (oh, _) = prob.out_dims();
        let sh = prob.params.sh;
        balanced_ranges(oh, count)
            .into_iter()
            .map(|(oh0, oh1)| Shard {
                oh0,
                oh1,
                r0: oh0 * sh,
                r1: if oh1 == oh { prob.ih } else { oh1 * sh },
            })
            .collect()
    }

    /// The shard's bands of at most `boh` owned patch rows each.
    fn bands(&self, prob: &PoolProblem, boh: usize) -> Vec<BandSpan> {
        (self.oh0..self.oh1)
            .step_by(boh)
            .map(|ob| BandSpan::new(prob, ob, (ob + boh).min(self.oh1)))
            .collect()
    }
}

/// Build backward pooling programs, one per `(n, c1)` plane.
///
/// `gm_grad` is the incoming-gradient tensor `(N, C1, Oh, Ow, C0)`;
/// `gm_dx` receives the input-shaped gradient `(N, C1, Ih, Iw, C0)`.
///
/// `sched` controls cross-band overlap so band `i + 1`'s DMAs overlap
/// band `i`'s multiply/merge under the dual-pipe model: the Col2Im merge
/// takes ping-pong slots for the per-band gradient and mask-gradient
/// regions; the VAdd merge, whose ping-pong was measured a loss, stays
/// single-slotted (see [`crate::schedule`]). The `dx` window stays
/// single-resident (per-band scratch — overlap contributions are
/// recomputed, never carried between bands). Results are bit-identical
/// in every mode.
pub fn build_backward(
    prob: &PoolProblem,
    merge: MergeImpl,
    source: BackwardSource,
    gm_grad: usize,
    gm_dx: usize,
    caps: Capacities,
    sched: Schedule,
) -> Result<Vec<Program>, LowerError> {
    build_backward_body(
        prob, merge, source, gm_grad, gm_dx, 0, 1, false, caps, sched,
    )
    .map(|(programs, _)| programs)
}

/// Like [`build_backward`], but consolidated per `c1`: one [`Program`]
/// covers all `N` batch planes of a `c1` slice (the UB band slots are
/// allocated once and reused plane after plane), so the chip dispatches
/// `C1` programs instead of `N * C1`. There is no `Im2Col` in the
/// backward pass to chain, so the fold here is purely program-level —
/// the per-plane instruction streams are emitted back to back and the
/// results stay bit-identical by construction.
pub fn build_backward_batched(
    prob: &PoolProblem,
    merge: MergeImpl,
    source: BackwardSource,
    gm_grad: usize,
    gm_dx: usize,
    caps: Capacities,
    sched: Schedule,
) -> Result<Vec<Program>, LowerError> {
    build_backward_body(prob, merge, source, gm_grad, gm_dx, 0, 1, true, caps, sched)
        .map(|(programs, _)| programs)
}

/// The one backward lowering behind [`build_backward`],
/// [`build_backward_batched`] and [`build_backward_sharded`]: each plane
/// splits into `shards` row shards (see [`build_backward_sharded`] for
/// why a split stays bit-exact), and each program walks one shard of
/// every plane in its group — one plane per program, or all `N` planes
/// of a `c1` slice when `fold` is set. Returns one [`GmDeclaration`] per
/// program. A whole plane is the one-shard case: it owns every patch
/// row, so it zeroes no gradient rows and stages no halo strips.
#[allow(clippy::too_many_arguments)]
fn build_backward_body(
    prob: &PoolProblem,
    merge: MergeImpl,
    source: BackwardSource,
    gm_grad: usize,
    gm_dx: usize,
    gm_staging: usize,
    shards: usize,
    fold: bool,
    caps: Capacities,
    sched: Schedule,
) -> Result<(Vec<Program>, Vec<GmDeclaration>), LowerError> {
    let params = prob.params;
    let (oh, ow) = prob.out_dims();
    let planes = params.kh * params.kw;
    let row_bytes = prob.iw * ROW;
    let (boh, mode) = plan_backward(prob, merge, caps, &sched)?;
    // `row_bands` validates the plane's split: vertical padding or
    // ceil-mode over more than one band is a typed error.
    row_bands(&params, oh, boh, prob.ih)?;
    let split: Vec<(Shard, Vec<BandSpan>)> = Shard::split(prob, shards)
        .into_iter()
        .map(|s| (s, s.bands(prob, boh)))
        .collect();

    // One UB layout for every program, sized for the tallest band
    // anywhere.
    let all_spans = || split.iter().flat_map(|(_, bands)| bands);
    let alloc_rows = all_spans().map(|b| b.w_rows).max().unwrap_or(0);
    let boh_max = all_spans().map(|b| b.o_len()).max().unwrap_or(0);
    let padded = PoolProblem::padded_plane_bytes(boh_max * ow);

    let groups: Vec<Vec<(usize, usize)>> = if fold {
        (0..prob.c1)
            .map(|c1| (0..prob.n).map(|n| (n, c1)).collect())
            .collect()
    } else {
        prob.planes().map(|nc| vec![nc]).collect()
    };

    let mut programs = Vec::with_capacity(groups.len() * split.len());
    let mut decls = Vec::with_capacity(groups.len() * split.len());
    let mut stage = gm_staging;
    for group in &groups {
        for (shard, bands) in &split {
            let shard_mode = if bands.len() == 1 {
                BandMode::Single
            } else {
                mode
            };
            let mut ub = UbArena::new(caps.ub);
            let grad_slots = ub.alloc_band_mode(padded, shard_mode)?;
            let mg_slots = ub.alloc_band_mode(planes * padded, shard_mode)?;
            let ub_dx = Addr::ub(ub.alloc(alloc_rows * row_bytes)?);

            let mut p = Program::new();
            let mut decl = GmDeclaration::default();
            for &(n, c1) in group {
                let grad_base = gm_grad + prob.out_plane_offset(n, c1);
                let dx_base = gm_dx + prob.in_plane_offset(n, c1);
                let load = |p: &mut Program, bi: usize| -> Result<(), LowerError> {
                    let span = &bands[bi];
                    let ub_grad = Addr::ub(grad_slots.of(bi));
                    emit_backward_load(
                        p,
                        prob,
                        source,
                        grad_base,
                        span,
                        padded,
                        (n, c1),
                        ub_grad,
                        Addr::ub(mg_slots.of(bi)),
                    )?;
                    if span.o_lo < shard.oh0 {
                        // Patch rows an earlier shard owns: zero their
                        // gradients so every merge of them is an exact f16
                        // no-op (move 2 of [`build_backward_sharded`]).
                        zero_region(p, ub_grad, (shard.oh0 - span.o_lo) * ow * C0)?;
                    }
                    Ok(())
                };
                let body = |p: &mut Program, bi: usize| -> Result<(), LowerError> {
                    let span = &bands[bi];
                    let ub_mg = Addr::ub(mg_slots.of(bi));
                    emit_backward_compute(
                        p,
                        prob,
                        merge,
                        source,
                        span,
                        alloc_rows,
                        padded,
                        Addr::ub(grad_slots.of(bi)),
                        ub_mg,
                        ub_dx,
                    )?;
                    emit_band_halos(
                        p,
                        prob,
                        dx_base,
                        shard.r1,
                        span,
                        padded,
                        ub_mg,
                        &mut stage,
                        &mut decl.halos,
                    )?;
                    emit_backward_finalize(p, prob, dx_base, span, ub_dx)
                };
                pipeline(
                    &mut p,
                    bands.len(),
                    shard_mode == BandMode::PingPong,
                    load,
                    body,
                )?;
                decl.finalized.push((
                    dx_base + shard.r0 * row_bytes,
                    (shard.r1 - shard.r0) * row_bytes,
                ));
            }
            programs.push(p);
            decls.push(decl);
        }
    }
    debug_assert_eq!(
        stage - gm_staging,
        backward_shard_staging_bytes(prob, shards),
        "staging cursor and sizing walk the same strip enumeration"
    );
    Ok((programs, decls))
}

/// The band height and overlap mode the backward lowering adopts — kept
/// as one function so the auto-tuner's cost estimates
/// ([`backward_est`]) band exactly as [`build_backward`] does.
fn plan_backward(
    prob: &PoolProblem,
    merge: MergeImpl,
    caps: Capacities,
    sched: &Schedule,
) -> Result<(usize, BandMode), LowerError> {
    let params = prob.params;
    let (oh, ow) = prob.out_dims();
    let planes = params.kh * params.kw;

    // Patches of the previous band that can reach into a band's
    // finalized rows and must be re-loaded: at most (effKh-1)/Sh rows,
    // where effKh is the dilated kernel extent.
    let overlap = (params.eff_kh() - 1) / params.sh;

    // Footprint: `copies` gradient bands + Kh*Kw mask-gradient plane
    // sets (both sized for the band *plus* its overlap patches) + the dx
    // scratch window (shared across bands, never doubled).
    let footprint = |copies: usize, boh: usize| {
        let padded = PoolProblem::padded_plane_bytes((boh + overlap) * ow);
        let dx_rows = band_input_rows(&params, boh + overlap) + params.sh;
        copies * (padded + planes * padded) + dx_rows * prob.iw * ROW
    };
    let boh = max_row_band(oh, caps.ub, |b| footprint(1, b))?;
    // Only the Col2Im merge ping-pongs. The VAdd merge is overwhelmingly
    // Vector-bound — the gradient and mask loads a prefetch would hide
    // are a sliver of the makespan, while halving the band height doubles
    // the per-band overlap re-expansion tax; ping-pong was measured a
    // loss on the whole Fig. 7 sweep.
    if sched.double && boh < oh && merge == MergeImpl::Col2Im {
        // Second capacity query at the halved budget; if doubling does
        // not fit even one-row bands, stay single-buffered.
        if let Ok(b) = max_row_band(oh, caps.ub, |b| footprint(2, b)) {
            return Ok((b, BandMode::PingPong));
        }
    }
    Ok((boh, BandMode::Single))
}

/// The pipe-0 (MTE) stage of one band: the gradient-band DMA and, for
/// MaxPool, the Kh*Kw argmax-mask plane DMAs into the band's slots.
#[allow(clippy::too_many_arguments)]
fn emit_backward_load(
    p: &mut Program,
    prob: &PoolProblem,
    source: BackwardSource,
    grad_base: usize,
    span: &BandSpan,
    padded: usize,
    (n, c1): (usize, usize),
    ub_grad: Addr,
    ub_mg: Addr,
) -> Result<(), LowerError> {
    let params = prob.params;
    let (_, ow) = prob.out_dims();
    let boh = span.o_len();

    dma(
        p,
        Addr::gm(grad_base + span.o_lo * ow * ROW),
        ub_grad,
        boh * ow * ROW,
    )?;
    if let BackwardSource::MaxMask { gm_mask } = source {
        for kh in 0..params.kh {
            for kw in 0..params.kw {
                let idx = kh * params.kw + kw;
                let mplane = ub_mg.add(idx * padded);
                let plane_gm =
                    gm_mask + prob.mask_plane_offset(n, c1, kh, kw) + span.o_lo * ow * ROW;
                dma(p, Addr::gm(plane_gm), mplane, boh * ow * ROW)?;
            }
        }
    }
    Ok(())
}

/// The compute stage of one band: dx-window zeroing, the multiply step
/// and the merge. The finalize DMA is a separate stage
/// ([`emit_backward_finalize`]) so a shard can stage a band's halo
/// strips between its merge and its flush.
#[allow(clippy::too_many_arguments)]
fn emit_backward_compute(
    p: &mut Program,
    prob: &PoolProblem,
    merge: MergeImpl,
    source: BackwardSource,
    span: &BandSpan,
    alloc_rows: usize,
    padded: usize,
    ub_grad: Addr,
    ub_mg: Addr,
    ub_dx: Addr,
) -> Result<(), LowerError> {
    let params = prob.params;
    let (oh, ow) = prob.out_dims();
    let boh = span.o_len();
    let planes = params.kh * params.kw;
    let valid = boh * ow * C0;

    // --- dx window preparation: Col2Im accumulates, so the whole
    // scratch window starts from zero every band (no state is carried —
    // contributions of overlap patches are recomputed instead).
    zero_region(p, ub_dx, alloc_rows * prob.iw * C0)?;

    // --- multiply step (Listing 3); the gradient band and mask planes
    // were staged by the load stage.
    match source {
        BackwardSource::MaxMask { .. } => {
            for idx in 0..planes {
                let mplane = ub_mg.add(idx * padded);
                elementwise(p, VectorOp::Mul, mplane, mplane, ub_grad, valid)?;
            }
        }
        BackwardSource::AvgUniform { scale } => {
            for idx in 0..planes {
                let mplane = ub_mg.add(idx * padded);
                elementwise(
                    p,
                    VectorOp::MulScalar(scale),
                    mplane,
                    ub_grad,
                    ub_grad,
                    valid,
                )?;
            }
        }
    }

    // --- band geometry for the merge, over the scratch window: it yields
    // exactly the band's patch grid.
    let geom = Im2ColGeometry::new(
        span.w_rows,
        prob.iw,
        1,
        band_params(&params, span.o_lo, span.o_hi, oh),
    )
    .map_err(LowerError::Isa)?;
    debug_assert_eq!(geom.out_dims(), (boh, ow));

    // --- merge step.
    match merge {
        MergeImpl::VAdd => {
            // "the vadd instructions only set 16 elements of the vector
            // mask (vectorizing on C0) and repetition is not used."
            for kh in 0..params.kh {
                for kw in 0..params.kw {
                    let mplane = ub_mg.add((kh * params.kw + kw) * padded);
                    for patch in 0..boh * ow {
                        let Some((h, w)) = geom.element_coord(patch, kh, kw) else {
                            continue; // contribution lands in padding
                        };
                        let dst = ub_dx.add((h * prob.iw + w) * ROW);
                        p.push(Instr::Vector(VectorInstr {
                            op: VectorOp::Add,
                            dst,
                            src0: dst,
                            src1: mplane.add(patch * ROW),
                            mask: Mask::C0_ONLY,
                            repeat: 1,
                            dst_stride: 0,
                            src0_stride: 0,
                            src1_stride: 0,
                        }))?;
                    }
                }
            }
        }
        MergeImpl::Col2Im => {
            let bf = PoolProblem::fractals_for(boh * ow);
            for kh in 0..params.kh {
                for kw in 0..params.kw {
                    let mplane = ub_mg.add((kh * params.kw + kw) * padded);
                    let mut f0 = 0usize;
                    while f0 < bf {
                        let rep = (bf - f0).min(MAX_REPEAT as usize);
                        p.push(Instr::Col2Im(Col2Im {
                            geom,
                            src: mplane.add(f0 * FRACTAL_BYTES),
                            dst: ub_dx,
                            first_patch: f0 * FRACTAL_ROWS,
                            k_off: (kh, kw),
                            c1: 0,
                            repeat: rep as u16,
                        }))?;
                        f0 += rep;
                    }
                }
            }
        }
    }

    Ok(())
}

/// The finalize stage of one band: only the band's own rows go back to
/// GM; scratch contributions outside `[r0, r1)` (partial sums another
/// band owns) are discarded with the window.
fn emit_backward_finalize(
    p: &mut Program,
    prob: &PoolProblem,
    dx_base: usize,
    span: &BandSpan,
    ub_dx: Addr,
) -> Result<(), LowerError> {
    let row_bytes = prob.iw * ROW;
    dma(
        p,
        ub_dx.add((span.r0 - span.w_lo) * row_bytes),
        Addr::gm(dx_base + span.r0 * row_bytes),
        (span.r1 - span.r0) * row_bytes,
    )?;
    Ok(())
}

/// Whether this geometry admits sub-plane backward sharding: vertical
/// padding and ceil-mode overhang rows have no single owner under a row
/// split (`row_bands` rejects multi-band plans for them for the same
/// reason), and a plane with one output row has nothing to split.
/// Horizontal padding is fine — halo strips trim to the valid output
/// columns.
pub(crate) fn backward_shardable(prob: &PoolProblem) -> bool {
    let params = &prob.params;
    let (oh, _) = prob.out_dims();
    params.padding.top == 0 && params.padding.bottom == 0 && !params.ceil_mode && oh >= 2
}

/// One cross-shard contribution strip: patch row `oh` (owned by the
/// emitting shard), kernel tap `(kh, kw)`, landing on input row
/// `r = oh*Sh + kh*Dh` at or past the shard's finalized rows. The strip
/// covers the tap's valid output columns `[ow_lo, ow_lo + blocks)`
/// (horizontal padding trimmed away); column `ow` lands at input column
/// `ow*Sw + kw*Dw - pad_left`, so consecutive blocks scatter `Sw` C0
/// rows apart.
#[derive(Clone, Copy, Debug)]
struct HaloStrip {
    oh: usize,
    kh: usize,
    kw: usize,
    ow_lo: usize,
    blocks: usize,
    r: usize,
    w0: usize,
}

/// Enumerate the halo strips of the patch rows `[owned.0, owned.1)` that
/// reach past a shard's finalized rows `[.., r1_shard)`: ascending `oh`,
/// then `kh`-major `(kh, kw)` — the same order the backward lowering
/// stages them in, so staging-size computation
/// ([`backward_shard_staging_bytes`]) and emission can never disagree.
/// The last shard finalizes through `Ih`, so no tap lands past it (and
/// under vertical padding, which only a one-shard plane allows, `r`
/// below would not be an input row).
fn halo_strips(prob: &PoolProblem, owned: (usize, usize), r1_shard: usize) -> Vec<HaloStrip> {
    let params = &prob.params;
    let (_, ow) = prob.out_dims();
    let pl = params.padding.left;
    let mut strips = Vec::new();
    if r1_shard == prob.ih {
        return strips;
    }
    for oh in owned.0..owned.1 {
        for kh in 0..params.kh {
            let r = oh * params.sh + kh * params.dh;
            if r < r1_shard {
                continue;
            }
            for kw in 0..params.kw {
                let tap = kw * params.dw;
                // Valid output columns: 0 <= ow*Sw + tap - pl < Iw.
                let ow_lo = pl.saturating_sub(tap).div_ceil(params.sw);
                if tap > prob.iw - 1 + pl {
                    continue;
                }
                let ow_hi = ((prob.iw - 1 + pl - tap) / params.sw).min(ow - 1);
                if ow_lo > ow_hi {
                    continue;
                }
                strips.push(HaloStrip {
                    oh,
                    kh,
                    kw,
                    ow_lo,
                    blocks: ow_hi - ow_lo + 1,
                    r,
                    w0: ow_lo * params.sw + tap - pl,
                });
            }
        }
    }
    strips
}

/// Total GM staging bytes the sharded backward needs for `prob` split
/// into `shards_per_plane` row shards. All `(n, c1)` planes share the
/// shard geometry, so this is the per-plane strip total times the plane
/// count. The runner allocates exactly this; the builder's staging
/// cursor walks the same strip enumeration and a debug assertion pins
/// the two to agree.
pub fn backward_shard_staging_bytes(prob: &PoolProblem, shards_per_plane: usize) -> usize {
    let per_plane: usize = Shard::split(prob, shards_per_plane)
        .iter()
        .flat_map(|s| halo_strips(prob, (s.oh0, s.oh1), s.r1))
        .map(|strip| strip.blocks * ROW)
        .sum();
    per_plane * prob.n * prob.c1
}

/// The MTE stage that externalises a band's cross-shard contributions:
/// one dense DMA per halo strip, from the band's mask-gradient planes
/// (each element there is a *single* multiplied contribution — the dx
/// window would already have folded taps together) into the program's
/// private GM staging region, plus the matching [`HaloSpan`] declaration
/// the chip folds back in golden `(kh, kw)` order after all cores join.
#[allow(clippy::too_many_arguments)]
fn emit_band_halos(
    p: &mut Program,
    prob: &PoolProblem,
    dx_base: usize,
    r1_shard: usize,
    span: &BandSpan,
    padded: usize,
    ub_mg: Addr,
    stage: &mut usize,
    halos: &mut Vec<HaloSpan>,
) -> Result<(), LowerError> {
    let params = &prob.params;
    let (_, ow) = prob.out_dims();
    let row_bytes = prob.iw * ROW;
    for s in halo_strips(prob, (span.oh0, span.o_hi), r1_shard) {
        let plane = s.kh * params.kw + s.kw;
        let ub_src = ub_mg.add(plane * padded + ((s.oh - span.o_lo) * ow + s.ow_lo) * ROW);
        let bytes = s.blocks * ROW;
        dma(p, ub_src, Addr::gm(*stage), bytes)?;
        halos.push(HaloSpan {
            src: *stage,
            dst: dx_base + s.r * row_bytes + s.w0 * ROW,
            blocks: s.blocks,
            block_bytes: ROW,
            src_stride: ROW,
            dst_stride: params.sw * ROW,
            op: HaloOp::Add,
            seq: plane as u64,
        });
        *stage += bytes;
    }
    Ok(())
}

/// Like [`build_backward`], but each `(n, c1)` plane splits into
/// `shards_per_plane` row shards — one program (and one
/// [`GmDeclaration`]) per shard, for [`dv_sim::Chip::run_declared`].
///
/// Each shard owns the output rows `[soh0, soh1)` and finalizes the
/// disjoint `dx` rows `[soh0*Sh, soh1*Sh)` (the last shard runs to
/// `Ih`). Bit-exactness with the unsplit kernel rests on three moves:
///
/// 1. **Shard bands keep the plane-relative load pattern.** A shard's
///    first band re-loads the gradient/mask rows of every patch reaching
///    its finalized rows — including patches an *earlier shard* owns —
///    exactly as any interior band re-loads its overlap patches. (These
///    overlapping reads are also what lets same-plane shards on
///    different cores share input lines in the chip's L2 stage.)
/// 2. **Non-owned patches are zeroed, and their merges are exact f16
///    no-ops.** The re-loaded gradient rows of earlier-shard patches are
///    zeroed before the multiply, so their mask-gradient values are all
///    `+0` (`mask * +0 = +0`, `+0 * scale = +0`) and every merge of them
///    folds `x + (+0) = x`: the dx window never holds `-0` (its zeroed
///    state is `+0` and `+0 + (-0) = +0` under round-to-nearest), so no
///    merge of a zeroed patch can change a single bit. The shard's own
///    contributions to an owned pixel therefore fold from zero in the
///    kernel-major order — and because a pixel's in-shard contributions
///    are exactly its *smallest*-`kh` ones (larger `oh` ⟺ smaller
///    `kh`), that fold is a prefix of the reference accumulation.
/// 3. **Cross-shard contributions travel as halo strips.** Each owned
///    patch row's taps landing past the shard's rows are staged to
///    private GM from the mask-gradient planes and declared as
///    [`HaloSpan`]s with `seq = kh*Kw + kw`; the chip folds all halos in
///    ascending `(seq, program, span)` order after merge-back, which for
///    any pixel is exactly the remaining `(kh, kw)`-ascending suffix of
///    the reference accumulation (two spans with the same `(kh, kw)`
///    never touch the same pixel — the source row `oh` is determined by
///    `(r, kh)`).
#[allow(clippy::too_many_arguments)]
pub fn build_backward_sharded(
    prob: &PoolProblem,
    merge: MergeImpl,
    source: BackwardSource,
    gm_grad: usize,
    gm_dx: usize,
    gm_staging: usize,
    shards_per_plane: usize,
    caps: Capacities,
    sched: Schedule,
) -> Result<(Vec<Program>, Vec<GmDeclaration>), LowerError> {
    if !backward_shardable(prob) {
        return Err(LowerError::Unsupported(
            "sub-plane backward sharding needs a vertically unpadded, non-ceil geometry \
             with at least two output rows"
                .into(),
        ));
    }
    if shards_per_plane < 2 {
        return Err(LowerError::Unsupported(
            "sub-plane backward sharding needs at least two shards per plane".into(),
        ));
    }
    build_backward_body(
        prob,
        merge,
        source,
        gm_grad,
        gm_dx,
        gm_staging,
        shards_per_plane,
        false,
        caps,
        sched,
    )
}

/// Estimated (cycles, GM bytes) of *one* backward program when each
/// plane splits into `shards` row shards — the tallest (first) shard,
/// which bounds the chip makespan; with one shard, the whole plane. Bands
/// exactly as the lowering would (same [`plan_backward`], same balanced
/// shards, same halo strips); the halo staging DMAs are priced on top as
/// serial pipe-0 work, and the overlap re-loaded gradient rows are
/// counted in the GM bytes — the estimate deliberately ignores the L2
/// stage, so a sub-plane split must win even assuming its shared reads
/// all miss. `None` when the geometry cannot be planned or sharded — the
/// candidate is then absent from the auto-tuner's ranking.
/// [`crate::schedule::choose_backward_algorithm`] scales the one-shard
/// cost to chip cycles.
pub(crate) fn backward_est(
    prob: &PoolProblem,
    merge: MergeImpl,
    masked: bool,
    caps: Capacities,
    sched: &Schedule,
    shards: usize,
) -> Option<(u64, u64)> {
    if shards > 1 && !backward_shardable(prob) {
        return None;
    }
    let cost = &sched.cost;
    let (boh, mode) = plan_backward(prob, merge, caps, sched).ok()?;
    let (oh, ow) = prob.out_dims();
    row_bands(&prob.params, oh, boh, prob.ih).ok()?;
    let shard = *Shard::split(prob, shards).first()?;
    let spans = shard.bands(prob, boh);
    let alloc_rows = spans.iter().map(|s| s.w_rows).max()?;
    let stages: Vec<schedule::BandStages> = spans
        .iter()
        .map(|s| band_cycles(prob, merge, masked, cost, s, alloc_rows))
        .collect();
    let mut cycles = if spans.len() < 2 || mode == BandMode::Single {
        schedule::serial_makespan(stages.iter().copied())
    } else {
        schedule::ping_pong_makespan(&stages)
    };
    let strips = halo_strips(prob, (shard.oh0, shard.oh1), shard.r1);
    let staging: u64 = strips.iter().map(|s| (s.blocks * ROW) as u64).sum();
    cycles += strips
        .iter()
        .map(|s| schedule::dma_est(cost, s.blocks * ROW))
        .sum::<u64>();
    let planes = (prob.params.kh * prob.params.kw) as u64;
    let grad_bytes: u64 = spans.iter().map(|s| (s.o_len() * ow * ROW) as u64).sum();
    let mask_bytes = if masked { planes * grad_bytes } else { 0 };
    let dx_bytes = ((shard.r1 - shard.r0) * prob.iw * ROW) as u64;
    Some((cycles, grad_bytes + mask_bytes + dx_bytes + staging))
}

/// Stage estimate of one backward band: the gradient band DMA and the
/// mask-plane DMAs (MaxPool only) as `load`; the window zero, the
/// multiply passes and the merge as `compute`; the dx-row DMA as `flush`.
/// No `expand` — the backward pass has no `Im2Col`.
fn band_cycles(
    prob: &PoolProblem,
    merge: MergeImpl,
    masked: bool,
    cost: &CostModel,
    span: &BandSpan,
    alloc_rows: usize,
) -> schedule::BandStages {
    let params = prob.params;
    let (_, ow) = prob.out_dims();
    let boh = span.o_len();
    let planes = (params.kh * params.kw) as u64;
    let band_bytes = boh * ow * ROW;
    let mut load = schedule::dma_est(cost, band_bytes);
    if masked {
        load += planes * schedule::dma_est(cost, band_bytes);
    }
    let merge_cycles = match merge {
        // "the vadd instructions only set 16 elements of the vector mask
        // (vectorizing on C0) and repetition is not used": one issue per
        // (plane, patch). An overestimate for padded geometries (padding
        // patches are skipped), which only biases against overlapping.
        MergeImpl::VAdd => {
            planes * (boh * ow) as u64 * (cost.issue_overhead + cost.vector_per_repeat)
        }
        // Kh*Kw hardware-repeated `Col2Im` issues sweeping the band's
        // fractals.
        MergeImpl::Col2Im => {
            let bf = PoolProblem::fractals_for(boh * ow) as u64;
            planes
                * (bf.div_ceil(MAX_REPEAT as u64) * cost.issue_overhead
                    + bf * cost.col2im_per_fractal)
        }
    };
    schedule::BandStages {
        load,
        expand: 0,
        compute: schedule::vec_sat(cost, alloc_rows * prob.iw * C0)
            + planes * schedule::vec_sat(cost, boh * ow * C0)
            + merge_cycles,
        flush: schedule::dma_est(cost, (span.r1 - span.r0) * prob.iw * ROW),
    }
}
