//! Batch-folded Im2col forward lowering (`RepeatMode::Mode0`).
//!
//! The per-plane schedule issues one program per `(n, c1)` plane and,
//! inside it, one Mode-1 `Im2Col` per `(kh, kw)` plane per band — the
//! batch dimension multiplies the instruction count by `N`. Mode 0 walks
//! the *other* axis of Fig. 5: with the `c1` field of the repeat chain
//! repurposed as the batch index (the tile's "c1 planes" are the `N`
//! batch planes of one real `c1` slice, staged contiguously in L1), a
//! single issue with `repeat = N * Kh * Kw` expands one fractal of
//! output patches across every kernel offset of every batch plane. One
//! issue per output fractal replaces `N * Kh * Kw` issues per band —
//! the hardware repeat amortises issue overhead across the batch exactly
//! as the paper's thesis demands.
//!
//! Layout: the chain of fractal `f0` lands as `N * Kh * Kw` consecutive
//! fractals (`[n][kh][kw]` order), so the column buffer is chunked *by
//! output fractal*, not by plane: only `chunk` chains need UB residency
//! at a time while the `N` per-plane accumulators stay resident for the
//! whole band. The reduction then walks each chain with one strided
//! `vmax`/`vadd` per `(n, k, half)` whose `src1` stride hops between
//! chains (`chain_bytes`) and whose `dst` stride hops between output
//! fractals — per-element accumulation order is `k`-ascending, identical
//! to the per-plane schedule, so results are bit-exact.
//!
//! Double buffering composes at the *chunk* level: the cols region gets
//! ping-pong [`BandSlots`](dv_akg::BandSlots) and chunk `i + 1`'s SCU chains are issued
//! before chunk `i`'s Vector reduction (the same software pipeline the
//! per-plane lowerings run across row bands).
//!
//! Capacity planning goes through the batch-aware `akg::tiling` wrappers
//! so every failure is typed [`TilingError::Batched`]; the engine falls
//! back to the per-plane schedule on capacity causes and surfaces the
//! typed error when no schedule exists (padded multi-band geometry).

use crate::maxpool::forward::{plan_band, Reduction};
use crate::problem::{ForwardImpl, LowerError, PoolProblem};
use crate::schedule::Schedule;
use dv_akg::{
    band_input_rows, dma, elementwise, fill_region, max_row_band_batched, row_bands,
    row_bands_batched, Band, TilingError, UbArena,
};
use dv_isa::{
    Addr, Im2Col, Im2ColGeometry, Instr, Mask, Program, RepeatMode, VectorInstr, VectorOp,
    MAX_REPEAT, VECTOR_LANES,
};
use dv_sim::Capacities;
use dv_tensor::{PoolParams, C0, FRACTAL_BYTES, FRACTAL_ROWS};

const ROW: usize = C0 * 2;
/// Bytes one full-mask vector issue covers (128 lanes of f16) — half a
/// fractal, so every fractal-granular op runs as two half issues.
const HALF: usize = VECTOR_LANES * 2;

/// The resolved batch-folded schedule for one `c1` program.
struct BatchedPlan {
    /// Row bands (shared by all `N` planes of the fold).
    bands: Vec<Band>,
    /// Fractal-padded per-plane output bytes at the planned band height.
    padded: usize,
    /// Output fractals per cols chunk (also the strided-reduce repeat,
    /// so it is clamped to [`MAX_REPEAT`]).
    chunk: usize,
    /// Whether the cols chunks got ping-pong slots.
    db: bool,
    /// L1 staging slot stride in bytes (covers the widest band of all
    /// `N` planes).
    l1_slot: usize,
    /// Number of L1 staging slots (2 = next-band prefetch escapes the
    /// WAR hazard on the current band's Im2Cols).
    l1_copies: usize,
}

/// Plan the batch fold: band height from the batch-aware capacity query
/// (N accumulators + optional N*Kh*Kw mask planes resident per band, at
/// least one cols chunk), then as many cols chunks as the leftover UB
/// holds. All failures are typed [`TilingError::Batched`].
fn plan_batched(
    prob: &PoolProblem,
    with_mask: bool,
    caps: Capacities,
    double: bool,
) -> Result<BatchedPlan, TilingError> {
    let n = prob.n;
    let params = prob.params;
    let (oh, ow) = prob.out_dims();
    let kk = params.kh * params.kw;
    let chain = n * kk * FRACTAL_BYTES;

    // Band-resident bytes, excluding the cols chunks.
    let base = |boh: usize| {
        let padded = PoolProblem::padded_plane_bytes(boh * ow);
        n * padded + if with_mask { n * kk * padded } else { 0 }
    };
    let fit = |copies: usize, l1_copies: usize| -> Result<usize, TilingError> {
        let boh = max_row_band_batched(n, oh, caps.ub, |b| base(b) + copies * chain)?;
        let l1 = max_row_band_batched(n, oh, caps.l1, |b| {
            l1_copies * n * band_input_rows(&params, b) * prob.iw * ROW
        })?;
        Ok(boh.min(l1))
    };
    // Ping-pong needs two cols chunk slots in UB and two band staging
    // slots in L1 (the latter lets the next band's prefetch DMA escape
    // its WAR hazard against the current band's Im2Cols). Each degrades
    // independently to single-buffered rather than failing the fold; the
    // L1 slots matter more for makespan, so they are dropped last.
    let ladder: &[(usize, usize)] = if double {
        &[(2, 2), (1, 2), (2, 1), (1, 1)]
    } else {
        &[(1, 1)]
    };
    let (mut copies, mut l1_copies, boh) = ladder
        .iter()
        .find_map(|&(c, lc)| fit(c, lc).ok().map(|b| (c, lc, b)))
        .ok_or_else(|| match fit(1, 1) {
            Err(e) => e,
            Ok(_) => unreachable!("ladder ends at (1, 1)"),
        })?;

    let bands = row_bands_batched(n, &params, oh, boh, prob.ih)?;
    if bands.len() == 1 {
        // No next band to prefetch — a second L1 slot would buy nothing
        // (and a widened single band may not even fit twice).
        l1_copies = 1;
    }
    // A single band widens to the full input extent; re-check the L1
    // staging of the N (possibly widened) planes against what the DMAs
    // will actually move.
    let l1_slot = n * bands.iter().map(|b| b.ih_len).max().unwrap() * prob.iw * ROW;
    if l1_copies * l1_slot > caps.l1 {
        l1_copies = 1;
    }
    if l1_slot > caps.l1 {
        return Err(TilingError::Capacity {
            min_footprint: l1_slot,
            capacity: caps.l1,
        }
        .batched(n));
    }

    let padded = PoolProblem::padded_plane_bytes(boh * ow);
    let max_bf = bands
        .iter()
        .map(|b| PoolProblem::fractals_for(b.oh_len() * ow))
        .max()
        .unwrap();
    let avail = caps.ub - base(boh);
    let mut chunk = (avail / (copies * chain))
        .min(MAX_REPEAT as usize)
        .min(max_bf);
    if copies == 2 && chunk >= max_bf {
        // Every band fits in one chunk: nothing to pipeline, so spend
        // the second slot's bytes on nothing and keep one slot.
        copies = 1;
        chunk = (avail / chain).min(MAX_REPEAT as usize).min(max_bf);
    }
    debug_assert!(chunk >= 1);
    Ok(BatchedPlan {
        bands,
        padded,
        chunk,
        db: copies == 2,
        l1_slot,
        l1_copies,
    })
}

/// `Im2Col` issues the per-plane Im2col schedule would spend on one `c1`
/// slice (all `N` planes), under the same capacities. Errors if the
/// per-plane schedule itself cannot be planned.
pub(crate) fn per_plane_im2col_issues(
    prob: &PoolProblem,
    with_mask: bool,
    caps: Capacities,
) -> Result<usize, LowerError> {
    // Instruction-count audit: band heights from the strictly serial
    // schedule, matching what the fold is compared against in PR 1's
    // issue-count tables (overlap modes never change issue counts of the
    // winning plan's bands, but the serial heights are the stable datum).
    let (boh, _) = plan_band(
        prob,
        ForwardImpl::Im2col,
        with_mask,
        caps,
        &Schedule::serial(),
    )?;
    let (oh, ow) = prob.out_dims();
    let bands = row_bands(&prob.params, oh, boh, prob.ih)?;
    let kk = prob.params.kh * prob.params.kw;
    let per_plane: usize = bands
        .iter()
        .map(|b| PoolProblem::fractals_for(b.oh_len() * ow).div_ceil(MAX_REPEAT as usize))
        .sum();
    Ok(prob.n * kk * per_plane)
}

/// Build batch-folded forward pooling: one [`Program`] per `c1` slice,
/// covering all `N` batch planes through Mode-0 `Im2Col` repeat chains.
///
/// `gm_mask` additionally stores the argmax mask (requires
/// [`Reduction::Max`], mirroring the per-plane argmax builder). Errors
/// are typed: capacity and geometry failures surface as
/// [`TilingError::Batched`] wrapping their per-plane cause, which is how
/// the engine distinguishes "fold does not fit — run per-plane" from
/// "this shape cannot be banded at all".
pub fn build_forward_batched(
    prob: &PoolProblem,
    reduction: Reduction,
    gm_in: usize,
    gm_out: usize,
    gm_mask: Option<usize>,
    caps: Capacities,
    sched: Schedule,
) -> Result<Vec<Program>, LowerError> {
    if gm_mask.is_some() && reduction != Reduction::Max {
        return Err(LowerError::Unsupported(
            "argmax mask requires Reduction::Max".into(),
        ));
    }
    let plan = plan_batched(prob, gm_mask.is_some(), caps, sched.double)?;
    let n = prob.n;
    let params = prob.params;
    let (oh, ow) = prob.out_dims();
    let kk = params.kh * params.kw;
    let chain = n * kk * FRACTAL_BYTES;
    let padded = plan.padded;

    let mut programs = Vec::with_capacity(prob.c1);
    for c1 in 0..prob.c1 {
        let mut ub = UbArena::new(caps.ub);
        // plan_batched sized everything below against caps.ub, so these
        // allocations cannot fail.
        let ub_out = Addr::ub(ub.alloc(n * padded)?);
        let ub_mask = match gm_mask {
            Some(_) => Some(Addr::ub(ub.alloc(n * kk * padded)?)),
            None => None,
        };
        let cols = ub.alloc_band(plan.chunk * chain, plan.db)?;

        // Stage a band of all N planes contiguously in L1: plane `nn` at
        // `nn * band_bytes` inside the band's ping-pong slot, matching
        // the Mode-0 walk's `src_plane_bytes` stride.
        let l1_base = |bi: usize| Addr::l1((bi % plan.l1_copies) * plan.l1_slot);
        let stage = |p: &mut Program, bi: usize, band: &dv_akg::Band| -> Result<(), LowerError> {
            let band_bytes = band.ih_len * prob.iw * ROW;
            for nn in 0..n {
                dma(
                    p,
                    Addr::gm(gm_in + prob.in_plane_offset(nn, c1) + band.ih0 * prob.iw * ROW),
                    l1_base(bi).add(nn * band_bytes),
                    band_bytes,
                )?;
            }
            Ok(())
        };

        let mut p = Program::new();
        stage(&mut p, 0, &plan.bands[0])?;
        for (bi, band) in plan.bands.iter().enumerate() {
            let boh = band.oh_len();
            let bf = PoolProblem::fractals_for(boh * ow);

            // Band geometry: multi-band splits are vertically unpadded
            // (row_bands rejects the rest), so partial bands drop Pt/Pb.
            let band_params = if band.oh0 == 0 && band.oh1 == oh {
                params
            } else {
                PoolParams::with_padding(
                    (params.kh, params.kw),
                    (params.sh, params.sw),
                    dv_tensor::Padding {
                        top: 0,
                        bottom: 0,
                        left: params.padding.left,
                        right: params.padding.right,
                    },
                )
            };
            let geom = Im2ColGeometry::new(band.ih_len, prob.iw, n, band_params)
                .map_err(LowerError::Isa)?;
            debug_assert_eq!(geom.out_dims(), (boh, ow));

            for nn in 0..n {
                fill_region(
                    &mut p,
                    ub_out.add(nn * padded),
                    reduction.init(),
                    bf * FRACTAL_ROWS * C0,
                )?;
            }

            let chunks: Vec<(usize, usize)> = (0..bf)
                .step_by(plan.chunk)
                .map(|f0| (f0, plan.chunk.min(bf - f0)))
                .collect();
            let emit_chains = |p: &mut Program, ci: usize| -> Result<(), LowerError> {
                let (f0, len) = chunks[ci];
                emit_chunk_chains(p, geom, l1_base(bi), Addr::ub(cols.of(ci)), f0, len, n, kk)
            };
            let emit_reduce = |p: &mut Program, ci: usize| -> Result<(), LowerError> {
                let (f0, len) = chunks[ci];
                let slot = Addr::ub(cols.of(ci));
                emit_chunk_reduce(p, reduction, ub_out, padded, slot, chain, f0, len, n, kk)?;
                if let Some(ub_mask) = ub_mask {
                    emit_chunk_argmax(p, ub_mask, ub_out, padded, slot, chain, f0, len, n, kk)?;
                }
                Ok(())
            };

            if cols.is_double() && chunks.len() > 1 {
                // Software pipeline: chunk i+1's SCU chains land in the
                // alternate slot before chunk i's Vector reduction.
                emit_chains(&mut p, 0)?;
                for ci in 0..chunks.len() {
                    if ci + 1 < chunks.len() {
                        emit_chains(&mut p, ci + 1)?;
                    }
                    emit_reduce(&mut p, ci)?;
                }
            } else {
                for ci in 0..chunks.len() {
                    emit_chains(&mut p, ci)?;
                    emit_reduce(&mut p, ci)?;
                }
            }

            // Software-pipeline the next band's L1 staging ahead of this
            // band's copy-out: the MTE queue is in-order, and the copy-out
            // below waits on the reduce tail. With two L1 slots the
            // prefetch lands in the alternate slot and has no hazard on
            // this band's Im2Cols at all; single-slotted it still only
            // reaches back to the already-issued Im2Cols.
            if let Some(next) = plan.bands.get(bi + 1) {
                stage(&mut p, bi + 1, next)?;
            }

            // Band finalize: per-plane output rows, then mask planes.
            for nn in 0..n {
                dma(
                    &mut p,
                    ub_out.add(nn * padded),
                    Addr::gm(gm_out + prob.out_plane_offset(nn, c1) + band.oh0 * ow * ROW),
                    boh * ow * ROW,
                )?;
            }
            if let (Some(mask_base), Some(ub_mask)) = (gm_mask, ub_mask) {
                for nn in 0..n {
                    for kh in 0..params.kh {
                        for kw in 0..params.kw {
                            let plane_gm = mask_base
                                + prob.mask_plane_offset(nn, c1, kh, kw)
                                + band.oh0 * ow * ROW;
                            dma(
                                &mut p,
                                ub_mask.add((nn * kk + kh * params.kw + kw) * padded),
                                Addr::gm(plane_gm),
                                boh * ow * ROW,
                            )?;
                        }
                    }
                }
            }
        }
        programs.push(p);
    }
    Ok(programs)
}

/// Emit the Mode-0 repeat chains of one cols chunk: one chain per output
/// fractal, each expanding all `n * kk` `(batch, kh, kw)` positions into
/// consecutive destination fractals (split only at the hardware repeat
/// limit, resuming at the equivalent `(c1, k_off)` start).
#[allow(clippy::too_many_arguments)]
fn emit_chunk_chains(
    p: &mut Program,
    geom: Im2ColGeometry,
    l1_in: Addr,
    slot: Addr,
    f0_start: usize,
    len: usize,
    n: usize,
    kk: usize,
) -> Result<(), LowerError> {
    let kw = geom.params.kw;
    let total = n * kk;
    for i in 0..len {
        let f0 = f0_start + i;
        let dst = slot.add(i * total * FRACTAL_BYTES);
        let mut flat = 0usize;
        while flat < total {
            let rep = (total - flat).min(MAX_REPEAT as usize);
            let rem = flat % kk;
            p.push(Instr::Im2Col(Im2Col {
                geom,
                src: l1_in,
                dst: dst.add(flat * FRACTAL_BYTES),
                first_patch: f0 * FRACTAL_ROWS,
                k_off: (rem / kw, rem % kw),
                c1: flat / kk,
                repeat: rep as u16,
                mode: RepeatMode::Mode0,
            }))?;
            flat += rep;
        }
    }
    Ok(())
}

/// Reduce one cols chunk into the `n` per-plane accumulators, always in
/// `k`-ascending per-element order (bit-identical to the per-plane
/// saturated reduction), choosing the repeat axis that issues fewer
/// instructions:
///
/// * **across chains** (`n * kk * 2` issues, repeat = chunk length):
///   for each `(batch, k, half)` one strided issue whose repeat walks the
///   chunk's output fractals (`dst` hops fractal-to-fractal, `src1`
///   chain-to-chain) — wins when the UB holds long chunks;
/// * **within each chain** (`len * n * 2` issues, repeat = `kk`): one
///   in-place accumulate per output fractal whose repeat walks the `kk`
///   kernel fractals of that chain (`dst_stride = 0`, the hardware
///   applies repeats sequentially) — wins when capacity forces short
///   chunks, where the across-chain form degenerates to repeat 1–2 and
///   its issue overhead would swamp the Im2Col savings.
#[allow(clippy::too_many_arguments)]
fn emit_chunk_reduce(
    p: &mut Program,
    reduction: Reduction,
    ub_out: Addr,
    padded: usize,
    slot: Addr,
    chain: usize,
    f0_start: usize,
    len: usize,
    n: usize,
    kk: usize,
) -> Result<(), LowerError> {
    if len < kk && kk <= MAX_REPEAT as usize {
        for i in 0..len {
            let f0 = f0_start + i;
            for nn in 0..n {
                let acc = ub_out.add(nn * padded + f0 * FRACTAL_BYTES);
                let src = slot.add(i * chain + nn * kk * FRACTAL_BYTES);
                for half in 0..2 {
                    p.push(Instr::Vector(VectorInstr {
                        op: reduction.op(),
                        dst: acc.add(half * HALF),
                        src0: acc.add(half * HALF),
                        src1: src.add(half * HALF),
                        mask: Mask::FULL,
                        repeat: kk as u16,
                        dst_stride: 0,
                        src0_stride: 0,
                        src1_stride: FRACTAL_BYTES,
                    }))?;
                }
            }
        }
    } else {
        for nn in 0..n {
            let out_n = ub_out.add(nn * padded + f0_start * FRACTAL_BYTES);
            for k in 0..kk {
                let src = slot.add((nn * kk + k) * FRACTAL_BYTES);
                for half in 0..2 {
                    p.push(Instr::Vector(VectorInstr {
                        op: reduction.op(),
                        dst: out_n.add(half * HALF),
                        src0: out_n.add(half * HALF),
                        src1: src.add(half * HALF),
                        mask: Mask::FULL,
                        repeat: len as u16,
                        dst_stride: FRACTAL_BYTES,
                        src0_stride: FRACTAL_BYTES,
                        src1_stride: chain,
                    }))?;
                }
            }
        }
    }
    if let Reduction::Sum { scale } = reduction {
        // Every element of this chunk's fractals is fully accumulated:
        // scale them now, contiguously per plane.
        for nn in 0..n {
            let out_n = ub_out.add(nn * padded + f0_start * FRACTAL_BYTES);
            elementwise(
                p,
                VectorOp::MulScalar(scale),
                out_n,
                out_n,
                out_n,
                len * FRACTAL_ROWS * C0,
            )?;
        }
    }
    Ok(())
}

/// Argmax compare of one cols chunk: `vcmp` of each `(batch, k)` chain
/// fractal against the finished per-plane maximum, landing in the
/// `[n][kh][kw]` mask planes. Mirrors [`emit_chunk_reduce`]'s repeat-axis
/// choice: across chains for long chunks, across the `kk` kernel
/// fractals of one chain (`dst` hopping mask-plane-to-mask-plane) when
/// capacity forces short chunks.
#[allow(clippy::too_many_arguments)]
fn emit_chunk_argmax(
    p: &mut Program,
    ub_mask: Addr,
    ub_out: Addr,
    padded: usize,
    slot: Addr,
    chain: usize,
    f0_start: usize,
    len: usize,
    n: usize,
    kk: usize,
) -> Result<(), LowerError> {
    if len < kk && kk <= MAX_REPEAT as usize {
        for i in 0..len {
            let f0 = f0_start + i;
            for nn in 0..n {
                let out_n = ub_out.add(nn * padded + f0 * FRACTAL_BYTES);
                let src = slot.add(i * chain + nn * kk * FRACTAL_BYTES);
                let mplane = ub_mask.add(nn * kk * padded + f0 * FRACTAL_BYTES);
                for half in 0..2 {
                    p.push(Instr::Vector(VectorInstr {
                        op: VectorOp::CmpEq,
                        dst: mplane.add(half * HALF),
                        src0: src.add(half * HALF),
                        src1: out_n.add(half * HALF),
                        mask: Mask::FULL,
                        repeat: kk as u16,
                        dst_stride: padded,
                        src0_stride: FRACTAL_BYTES,
                        src1_stride: 0,
                    }))?;
                }
            }
        }
    } else {
        for nn in 0..n {
            let out_n = ub_out.add(nn * padded + f0_start * FRACTAL_BYTES);
            for k in 0..kk {
                let src = slot.add((nn * kk + k) * FRACTAL_BYTES);
                let mplane = ub_mask.add((nn * kk + k) * padded + f0_start * FRACTAL_BYTES);
                for half in 0..2 {
                    p.push(Instr::Vector(VectorInstr {
                        op: VectorOp::CmpEq,
                        dst: mplane.add(half * HALF),
                        src0: src.add(half * HALF),
                        src1: out_n.add(half * HALF),
                        mask: Mask::FULL,
                        repeat: len as u16,
                        dst_stride: FRACTAL_BYTES,
                        src0_stride: chain,
                        src1_stride: FRACTAL_BYTES,
                    }))?;
                }
            }
        }
    }
    Ok(())
}
