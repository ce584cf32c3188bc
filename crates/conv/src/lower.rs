//! Lowering of 2-D convolution onto the simulated Cube Unit.
//!
//! Two forward lowerings share the Cube path:
//!
//! * **Materialised** — the original column path: every `c1` slice of the
//!   band is staged in L1 and the weight slice is reloaded into L0B for
//!   every patch tile of every K chunk.
//! * **Implicit** — on-demand fractal expansion per output tile: only one
//!   `c1` slice is resident in L1 at a time, the loop nest is K-outer so
//!   each weight slice is loaded into L0B exactly once per band, and the
//!   band's accumulators stay pinned in L0C across the whole reduction.
//!   The smaller L1 working set and the hoisted L0B traffic are the wins;
//!   when the band's accumulators do not fit L0C the lowering refuses
//!   with a typed [`ConvError::Capacity`] so callers can fall back to the
//!   materialised path (booked, never silent).
//!
//! Both lowerings can drain either to GM (fractal-padded planes) or into
//! a caller-chosen resident UB region ([`build_conv2d_resident`]) so a
//! fused consumer (e.g. a pooling reduction) can read the conv output
//! without a GM round-trip. There is no UB→L1 or L0C→L1 datapath on this
//! chip, so UB is the only place a produced tile can stay resident for a
//! Vector-unit consumer.

use core::fmt;
use dv_akg::{dma, GmArena};
use dv_fp16::F16;
use dv_isa::{
    Addr, BufferId, CubeMatmul, Im2Col, Im2ColGeometry, Instr, Program, RepeatMode, MAX_REPEAT,
};
use dv_sim::{Chip, ChipRun, CostModel, SimError};
use dv_tensor::{Nc1hwc0, Nchw, PoolParams, C0, FRACTAL_BYTES, FRACTAL_ROWS};

use crate::fracz::kernels_to_fracz;

/// Fractal edge (16 rows/columns).
const E: usize = FRACTAL_ROWS;
/// Bytes of one f32 fractal in L0C.
const L0C_FRACTAL_BYTES: usize = E * E * 4;

/// Errors from the convolution lowering/run.
#[derive(Debug)]
pub enum ConvError {
    /// The problem exceeds what this lowering tiles (see message).
    Unsupported(String),
    /// A typed capacity decline: the requested lowering needs more of
    /// one scratchpad resource than the chip has. Callers may fall back
    /// to another lowering (and must book the decline in a counter).
    Capacity {
        /// Which buffer ran out (`"l1"`, `"l0b"`, `"l0c"`, `"ub"`).
        resource: &'static str,
        /// Bytes the lowering needed at the point it declined.
        needed: usize,
        /// Bytes the chip offers for that resource.
        available: usize,
    },
    /// Instruction emission failed.
    Isa(dv_isa::IsaError),
    /// Simulation failed.
    Sim(SimError),
    /// Bad shapes.
    Shape(dv_tensor::ShapeError),
}

impl ConvError {
    /// True for the typed capacity declines a caller may fall back on.
    pub fn is_capacity(&self) -> bool {
        matches!(self, ConvError::Capacity { .. })
    }
}

impl fmt::Display for ConvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConvError::Unsupported(m) => write!(f, "unsupported: {m}"),
            ConvError::Capacity {
                resource,
                needed,
                available,
            } => write!(
                f,
                "capacity: {resource} needs {needed} B but only {available} B are available"
            ),
            ConvError::Isa(e) => write!(f, "isa: {e}"),
            ConvError::Sim(e) => write!(f, "sim: {e}"),
            ConvError::Shape(e) => write!(f, "shape: {e}"),
        }
    }
}

impl std::error::Error for ConvError {}

impl From<dv_isa::IsaError> for ConvError {
    fn from(e: dv_isa::IsaError) -> Self {
        ConvError::Isa(e)
    }
}
impl From<SimError> for ConvError {
    fn from(e: SimError) -> Self {
        ConvError::Sim(e)
    }
}
impl From<dv_tensor::ShapeError> for ConvError {
    fn from(e: dv_tensor::ShapeError) -> Self {
        ConvError::Shape(e)
    }
}

/// Which Cube-path lowering a conv run should use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConvLowering {
    /// Stage every `c1` slice of the band in L1 and materialise column
    /// fractals tile by tile (the original path).
    Materialised,
    /// Expand column fractals on demand from a single resident `c1`
    /// slice (K-outer walk, band accumulators pinned in L0C). Declines
    /// with [`ConvError::Capacity`] when it does not fit.
    Implicit,
    /// Try [`ConvLowering::Implicit`]; on a typed capacity decline fall
    /// back to the materialised path and report the decline so the
    /// caller can book `implicit_declines`.
    Auto,
}

/// Where a lowering drains the band's L0C accumulators.
#[derive(Clone, Copy)]
enum Sink {
    /// f16-stage tiles in UB, then DMA each plane's valid slice to GM.
    Gm { gm_out: usize },
    /// Leave the f16 output planes resident in UB for a fused consumer.
    Ub { base: usize, plane_stride: usize },
}

/// The planned dimensions of a materialised convolution run.
struct Plan {
    c1: usize,
    oh: usize,
    ow: usize,
    m_fr: usize,
    k_fr: usize,
    n_fr: usize,
    mt: usize,  // patch-block fractals per Cube tile
    kt: usize,  // reduction fractals per K chunk
    boh: usize, // output rows per L1 band
    weight_bytes: usize,
}

fn plan(
    input_c: usize,
    ih: usize,
    iw: usize,
    m: usize,
    params: &PoolParams,
    chip: &Chip,
) -> Result<Plan, ConvError> {
    let (oh, ow) = params.out_dims(ih, iw)?;
    let c1 = input_c.div_ceil(C0);
    let patches = oh * ow;
    let m_fr = patches.div_ceil(E);
    let k_fr = c1 * params.kh * params.kw;
    let n_fr = m.div_ceil(E);
    let weight_bytes = k_fr * n_fr * FRACTAL_BYTES;
    // Weights stay resident in L1; the input streams through the rest in
    // row bands (like the pooling kernels).
    let band_budget = chip.caps.l1.saturating_sub(weight_bytes);
    let boh = dv_akg::max_row_band(oh, band_budget, |b| {
        c1 * dv_akg::band_input_rows(params, b) * iw * C0 * 2
    })
    .map_err(|e| {
        ConvError::Unsupported(format!(
            "weights ({weight_bytes} B) leave no room in L1 for one input band: {e}"
        ))
    })?;
    if boh < oh && (params.padding.top > 0 || params.padding.bottom > 0) {
        return Err(ConvError::Unsupported(
            "vertical padding requires the image to fit one L1 band".into(),
        ));
    }
    // K is chunked: each chunk's weight slice must fit L0B, its A slice
    // must leave room for at least one patch row in L0A, and one mode-0
    // repeat chain must cover it. Accumulation over chunks happens in
    // L0C (`accumulate = true`).
    let kt = k_fr
        .min(MAX_REPEAT as usize)
        .min(chip.caps.l0b / (n_fr * FRACTAL_BYTES))
        .min(chip.caps.l0a / FRACTAL_BYTES);
    if kt == 0 {
        return Err(ConvError::Unsupported(
            "one reduction fractal does not fit the Cube buffers".into(),
        ));
    }
    // Tile patch blocks so the A tile fits L0A and the C tile fits L0C.
    let mt_a = chip.caps.l0a / (kt * FRACTAL_BYTES);
    let mt_c = chip.caps.l0c / (n_fr * L0C_FRACTAL_BYTES);
    let mt_ub = chip.caps.ub / (n_fr * FRACTAL_BYTES);
    let mt = m_fr.min(mt_a).min(mt_c).min(mt_ub);
    if mt == 0 {
        return Err(ConvError::Unsupported(
            "a single patch-block row does not fit the Cube buffers".into(),
        ));
    }
    Ok(Plan {
        c1,
        oh,
        ow,
        m_fr,
        k_fr,
        n_fr,
        mt,
        kt,
        boh,
        weight_bytes,
    })
}

/// The planned dimensions of an implicit-im2col convolution run.
struct ImplicitPlan {
    c1: usize,
    oh: usize,
    ow: usize,
    m_fr: usize,
    n_fr: usize,
    kt: usize,  // reduction fractals per K chunk (within one c1 slice)
    boh: usize, // output rows per band (L1 *and* L0C bounded)
    weight_bytes: usize,
}

fn plan_implicit(
    input_c: usize,
    ih: usize,
    iw: usize,
    m: usize,
    params: &PoolParams,
    chip: &Chip,
) -> Result<ImplicitPlan, ConvError> {
    let (oh, ow) = params.out_dims(ih, iw)?;
    let c1 = input_c.div_ceil(C0);
    let m_fr = (oh * ow).div_ceil(E);
    let kk = params.kh * params.kw;
    let k_fr = c1 * kk;
    let n_fr = m.div_ceil(E);
    let weight_bytes = k_fr * n_fr * FRACTAL_BYTES;
    // Only ONE c1 slice of the band shares L1 with the resident weights —
    // the implicit path's working-set advantage over the materialised
    // plan, which stages all `c1` slices.
    let band_budget = chip.caps.l1.saturating_sub(weight_bytes);
    let boh_l1 = dv_akg::max_row_band(oh, band_budget, |b| {
        dv_akg::band_input_rows(params, b) * iw * C0 * 2
    })
    .map_err(|_| ConvError::Capacity {
        resource: "l1",
        needed: weight_bytes + dv_akg::band_input_rows(params, 1) * iw * C0 * 2,
        available: chip.caps.l1,
    })?;
    // The whole band's accumulators stay pinned in L0C across the
    // K-outer reduction, so the band height is also L0C-bounded.
    let cap_fr = chip.caps.l0c / (n_fr * L0C_FRACTAL_BYTES);
    let boh_l0c = (cap_fr * E) / ow;
    if boh_l0c == 0 {
        return Err(ConvError::Capacity {
            resource: "l0c",
            needed: ow.div_ceil(E) * n_fr * L0C_FRACTAL_BYTES,
            available: chip.caps.l0c,
        });
    }
    let boh = boh_l1.min(boh_l0c).min(oh);
    if boh < oh && (params.padding.top > 0 || params.padding.bottom > 0) {
        if boh_l1 >= oh {
            // Only the L0C pin forced multi-band — a capacity decline the
            // caller can fall back on (the materialised path re-tiles L0C
            // per Cube tile and handles vertical padding in one band).
            return Err(ConvError::Capacity {
                resource: "l0c",
                needed: m_fr * n_fr * L0C_FRACTAL_BYTES,
                available: chip.caps.l0c,
            });
        }
        return Err(ConvError::Unsupported(
            "vertical padding requires the image to fit one L1 band".into(),
        ));
    }
    // K chunks never cross a `c1` boundary: the mode-0 repeat chain walks
    // (kh, kw) slots of the single resident slice.
    let kt = kk
        .min(MAX_REPEAT as usize)
        .min(chip.caps.l0b / (n_fr * FRACTAL_BYTES))
        .min(chip.caps.l0a / FRACTAL_BYTES);
    if kt == 0 {
        return Err(ConvError::Capacity {
            resource: "l0b",
            needed: n_fr * FRACTAL_BYTES,
            available: chip.caps.l0b.min(chip.caps.l0a),
        });
    }
    Ok(ImplicitPlan {
        c1,
        oh,
        ow,
        m_fr,
        n_fr,
        kt,
        boh,
        weight_bytes,
    })
}

/// Build the convolution program (single core; convolution here is a
/// substrate demonstration, not a parallel-scaling study).
///
/// GM layout: the NC1HWC0 input at `gm_in`, the FracZ weights at
/// `gm_weights`, and the output written as `n_fr` fractal-padded planes
/// of `m_fr * 512` bytes each at `gm_out`.
#[allow(clippy::too_many_arguments)]
pub fn build_conv2d(
    input_c: usize,
    ih: usize,
    iw: usize,
    m: usize,
    params: &PoolParams,
    gm_in: usize,
    gm_weights: usize,
    gm_out: usize,
    chip: &Chip,
) -> Result<Program, ConvError> {
    build_materialised(
        input_c,
        ih,
        iw,
        m,
        params,
        gm_in,
        gm_weights,
        Sink::Gm { gm_out },
        chip,
    )
}

#[allow(clippy::too_many_arguments)]
fn build_materialised(
    input_c: usize,
    ih: usize,
    iw: usize,
    m: usize,
    params: &PoolParams,
    gm_in: usize,
    gm_weights: usize,
    sink: Sink,
    chip: &Chip,
) -> Result<Program, ConvError> {
    let pl = plan(input_c, ih, iw, m, params, chip)?;
    let mut p = Program::new();
    let kk = params.kh * params.kw;

    // Weights stay resident at the bottom of L1; input bands stream in
    // above them.
    dma(&mut p, Addr::gm(gm_weights), Addr::l1(0), pl.weight_bytes)?;
    let l1_in = pl.weight_bytes.next_multiple_of(32);

    // `row_bands` widens a single band to the full input extent (covers
    // vertical padding — the plan enforces single-band for it — and
    // trailing rows) and clamps multi-band extents.
    let bands = dv_akg::row_bands(params, pl.oh, pl.boh, ih)
        .map_err(|e| ConvError::Unsupported(format!("band tiling failed: {e}")))?;
    let full_plane_bytes = ih * iw * C0 * 2;

    for band in &bands {
        let boh = band.oh1 - band.oh0;
        let band_patches = boh * pl.ow;
        let band_m_fr = band_patches.div_ceil(E);
        let band_plane_bytes = band.ih_len * iw * C0 * 2;
        // Stage this band's rows of every c1 plane.
        for c1i in 0..pl.c1 {
            dma(
                &mut p,
                Addr::gm(gm_in + c1i * full_plane_bytes + band.ih0 * iw * C0 * 2),
                Addr::l1(l1_in + c1i * band_plane_bytes),
                band_plane_bytes,
            )?;
        }
        let band_params = dv_akg::band_params(params, band.oh0, band.oh1, pl.oh);
        let geom = Im2ColGeometry::new(band.ih_len, iw, pl.c1, band_params)?;
        debug_assert_eq!(geom.out_dims(), (boh, pl.ow));

        let mut t = 0usize;
        while t < band_m_fr {
            let mt = pl.mt.min(band_m_fr - t);
            // Reduce over K in chunks, accumulating in L0C's f32 fractals.
            let mut k0 = 0usize;
            while k0 < pl.k_fr {
                let kt = pl.kt.min(pl.k_fr - k0);
                // The weight slice for rows [k0, k0+kt) is contiguous in
                // the FracZ layout; load2d it into L0B.
                p.push(Instr::Move(dv_isa::DataMove::new(
                    Addr::l1(k0 * pl.n_fr * FRACTAL_BYTES),
                    Addr::new(BufferId::L0B, 0),
                    kt * pl.n_fr * FRACTAL_BYTES,
                )))?;
                // One mode-0 Im2Col per patch-block row: its repeats sweep
                // the flat (c1, xk, yk) range [k0, k0+kt), materialising
                // one fractal row of the OutIn chunk in L0A.
                for i in 0..mt {
                    let first_patch = (t + i) * E;
                    debug_assert!(first_patch < band_patches);
                    p.push(Instr::Im2Col(Im2Col {
                        geom,
                        src: Addr::l1(l1_in),
                        dst: Addr::new(BufferId::L0A, i * kt * FRACTAL_BYTES),
                        first_patch,
                        k_off: ((k0 % kk) / params.kw, k0 % params.kw),
                        c1: k0 / kk,
                        repeat: kt as u16,
                        mode: RepeatMode::Mode0,
                    }))?;
                }
                p.push(Instr::Cube(CubeMatmul {
                    a: Addr::new(BufferId::L0A, 0),
                    b: Addr::new(BufferId::L0B, 0),
                    c: Addr::new(BufferId::L0C, 0),
                    m_fractals: mt,
                    k_fractals: kt,
                    n_fractals: pl.n_fr,
                    accumulate: k0 > 0,
                }))?;
                k0 += kt;
            }
            // Drain L0C (f32 -> f16), regrouping fractals by output
            // channel plane.
            match sink {
                Sink::Gm { gm_out } => {
                    // Stage in the UB, then flush the valid slice of each
                    // plane to GM (the band's last fractal may be partial).
                    let valid_bytes = (band_patches.min((t + mt) * E) - t * E) * C0 * 2;
                    for j in 0..pl.n_fr {
                        for i in 0..mt {
                            p.push(Instr::Move(dv_isa::DataMove::new(
                                Addr::new(BufferId::L0C, (i * pl.n_fr + j) * L0C_FRACTAL_BYTES),
                                Addr::ub(j * pl.mt * FRACTAL_BYTES + i * FRACTAL_BYTES),
                                L0C_FRACTAL_BYTES,
                            )))?;
                        }
                        dma(
                            &mut p,
                            Addr::ub(j * pl.mt * FRACTAL_BYTES),
                            Addr::gm(
                                gm_out
                                    + j * pl.m_fr * FRACTAL_BYTES
                                    + (band.oh0 * pl.ow + t * E) * C0 * 2,
                            ),
                            valid_bytes,
                        )?;
                    }
                }
                Sink::Ub { base, plane_stride } => {
                    // Move each fractal straight to its final patch
                    // offset in the resident plane. Tail fractals write
                    // 512 B of which the beyond-band bytes are garbage —
                    // the next band's first fractal overwrites them (the
                    // plane stride reserves one spare fractal for the
                    // final tail).
                    for j in 0..pl.n_fr {
                        for i in 0..mt {
                            p.push(Instr::Move(dv_isa::DataMove::new(
                                Addr::new(BufferId::L0C, (i * pl.n_fr + j) * L0C_FRACTAL_BYTES),
                                Addr::ub(
                                    base + j * plane_stride
                                        + (band.oh0 * pl.ow + (t + i) * E) * C0 * 2,
                                ),
                                L0C_FRACTAL_BYTES,
                            )))?;
                        }
                    }
                }
            }
            t += mt;
        }
    }
    Ok(p)
}

/// Build the *implicit-im2col* convolution program: same GM contract as
/// [`build_conv2d`], different loop nest. Only one `c1` slice of the
/// band is resident in L1 at a time, the reduction is K-outer (each
/// weight slice loaded into L0B once per band instead of once per patch
/// tile), and the band's f32 accumulators stay pinned in L0C. The
/// reduction still walks the flat (c1, kh, kw) order, so outputs are
/// bit-identical to the materialised path (the Cube accumulates
/// sequentially in k).
#[allow(clippy::too_many_arguments)]
pub fn build_conv2d_implicit(
    input_c: usize,
    ih: usize,
    iw: usize,
    m: usize,
    params: &PoolParams,
    gm_in: usize,
    gm_weights: usize,
    gm_out: usize,
    chip: &Chip,
) -> Result<Program, ConvError> {
    build_implicit(
        input_c,
        ih,
        iw,
        m,
        params,
        gm_in,
        gm_weights,
        Sink::Gm { gm_out },
        chip,
    )
}

#[allow(clippy::too_many_arguments)]
fn build_implicit(
    input_c: usize,
    ih: usize,
    iw: usize,
    m: usize,
    params: &PoolParams,
    gm_in: usize,
    gm_weights: usize,
    sink: Sink,
    chip: &Chip,
) -> Result<Program, ConvError> {
    let pl = plan_implicit(input_c, ih, iw, m, params, chip)?;
    let kk = params.kh * params.kw;
    // The GM drain stages plane tiles in UB; it needs at least one
    // fractal row per output plane.
    let drain_t = match sink {
        Sink::Gm { .. } => {
            let dt = chip.caps.ub / (pl.n_fr * FRACTAL_BYTES);
            if dt == 0 {
                return Err(ConvError::Capacity {
                    resource: "ub",
                    needed: pl.n_fr * FRACTAL_BYTES,
                    available: chip.caps.ub,
                });
            }
            dt
        }
        Sink::Ub { base, plane_stride } => {
            let needed = base + pl.n_fr * plane_stride;
            if needed > chip.caps.ub {
                return Err(ConvError::Capacity {
                    resource: "ub",
                    needed,
                    available: chip.caps.ub,
                });
            }
            0
        }
    };

    let mut p = Program::new();
    dma(&mut p, Addr::gm(gm_weights), Addr::l1(0), pl.weight_bytes)?;
    let l1_in = pl.weight_bytes.next_multiple_of(32);

    let bands = dv_akg::row_bands(params, pl.oh, pl.boh, ih)
        .map_err(|e| ConvError::Unsupported(format!("band tiling failed: {e}")))?;
    let full_plane_bytes = ih * iw * C0 * 2;

    for band in &bands {
        let boh = band.oh1 - band.oh0;
        let band_patches = boh * pl.ow;
        let band_m_fr = band_patches.div_ceil(E);
        let band_plane_bytes = band.ih_len * iw * C0 * 2;
        let band_params = dv_akg::band_params(params, band.oh0, band.oh1, pl.oh);
        // The SCU walks a single-slice geometry: the c1 axis collapses to
        // the one resident slice.
        let geom = Im2ColGeometry::new(band.ih_len, iw, 1, band_params)?;
        debug_assert_eq!(geom.out_dims(), (boh, pl.ow));

        for c1i in 0..pl.c1 {
            // Stage ONE c1 slice of this band's rows (the slot is reused
            // per slice, so the next slice's DMA waits out this slice's
            // SCU walk).
            dma(
                &mut p,
                Addr::gm(gm_in + c1i * full_plane_bytes + band.ih0 * iw * C0 * 2),
                Addr::l1(l1_in),
                band_plane_bytes,
            )?;
            let mut k0 = 0usize;
            while k0 < kk {
                let kt = pl.kt.min(kk - k0);
                // One L0B load per (slice, chunk) — the materialised path
                // reloads this slice once per patch tile.
                p.push(Instr::Move(dv_isa::DataMove::new(
                    Addr::l1((c1i * kk + k0) * pl.n_fr * FRACTAL_BYTES),
                    Addr::new(BufferId::L0B, 0),
                    kt * pl.n_fr * FRACTAL_BYTES,
                )))?;
                let mt_a = chip.caps.l0a / (kt * FRACTAL_BYTES);
                let mut t = 0usize;
                while t < band_m_fr {
                    let mt = mt_a.min(band_m_fr - t);
                    for i in 0..mt {
                        let first_patch = (t + i) * E;
                        debug_assert!(first_patch < band_patches);
                        p.push(Instr::Im2Col(Im2Col {
                            geom,
                            src: Addr::l1(l1_in),
                            dst: Addr::new(BufferId::L0A, i * kt * FRACTAL_BYTES),
                            first_patch,
                            k_off: (k0 / params.kw, k0 % params.kw),
                            c1: 0,
                            repeat: kt as u16,
                            mode: RepeatMode::Mode0,
                        }))?;
                    }
                    // Accumulate into this tile's pinned band slot.
                    p.push(Instr::Cube(CubeMatmul {
                        a: Addr::new(BufferId::L0A, 0),
                        b: Addr::new(BufferId::L0B, 0),
                        c: Addr::new(BufferId::L0C, t * pl.n_fr * L0C_FRACTAL_BYTES),
                        m_fractals: mt,
                        k_fractals: kt,
                        n_fractals: pl.n_fr,
                        accumulate: !(c1i == 0 && k0 == 0),
                    }))?;
                    t += mt;
                }
                k0 += kt;
            }
        }
        // Drain the whole band from L0C (f32 -> f16).
        match sink {
            Sink::Gm { gm_out } => {
                let mut t = 0usize;
                while t < band_m_fr {
                    let dt = drain_t.min(band_m_fr - t);
                    let valid_bytes = (band_patches.min((t + dt) * E) - t * E) * C0 * 2;
                    for j in 0..pl.n_fr {
                        for i in 0..dt {
                            p.push(Instr::Move(dv_isa::DataMove::new(
                                Addr::new(
                                    BufferId::L0C,
                                    ((t + i) * pl.n_fr + j) * L0C_FRACTAL_BYTES,
                                ),
                                Addr::ub(j * drain_t * FRACTAL_BYTES + i * FRACTAL_BYTES),
                                L0C_FRACTAL_BYTES,
                            )))?;
                        }
                        dma(
                            &mut p,
                            Addr::ub(j * drain_t * FRACTAL_BYTES),
                            Addr::gm(
                                gm_out
                                    + j * pl.m_fr * FRACTAL_BYTES
                                    + (band.oh0 * pl.ow + t * E) * C0 * 2,
                            ),
                            valid_bytes,
                        )?;
                    }
                    t += dt;
                }
            }
            Sink::Ub { base, plane_stride } => {
                for j in 0..pl.n_fr {
                    for i in 0..band_m_fr {
                        p.push(Instr::Move(dv_isa::DataMove::new(
                            Addr::new(BufferId::L0C, (i * pl.n_fr + j) * L0C_FRACTAL_BYTES),
                            Addr::ub(base + j * plane_stride + (band.oh0 * pl.ow + i * E) * C0 * 2),
                            L0C_FRACTAL_BYTES,
                        )))?;
                    }
                }
            }
        }
    }
    Ok(p)
}

/// Layout of a conv output left resident in UB by
/// [`build_conv2d_resident`]: `n_fr` patch-major f16 planes (each an
/// NC1HWC0 plane of `oh * ow` patches x 16 channels) at
/// `base + j * plane_stride`.
#[derive(Clone, Copy, Debug)]
pub struct ResidentConv {
    /// First byte of plane 0 in UB.
    pub base: usize,
    /// Bytes between consecutive output-channel-group planes. One spare
    /// fractal beyond the patch data absorbs the final tail fractal's
    /// full-width write.
    pub plane_stride: usize,
    /// Output channel groups (`m.div_ceil(16)`).
    pub n_fr: usize,
    /// Patch-block fractals per plane (`(oh*ow).div_ceil(16)`).
    pub m_fr: usize,
    /// Output rows.
    pub oh: usize,
    /// Output columns.
    pub ow: usize,
}

impl ResidentConv {
    /// First free UB byte after the resident planes.
    pub fn end(&self) -> usize {
        self.base + self.n_fr * self.plane_stride
    }
}

/// Build a convolution whose output stays **resident in UB** (no GM
/// round-trip) for a fused consumer to read — the tile-handoff half of
/// conv→pool fusion. Returns the program (the caller appends the
/// consumer's instructions), the resident layout, and the number of
/// implicit-lowering declines to book (0 or 1; only
/// [`ConvLowering::Auto`] can decline and fall back).
#[allow(clippy::too_many_arguments)]
pub fn build_conv2d_resident(
    input_c: usize,
    ih: usize,
    iw: usize,
    m: usize,
    params: &PoolParams,
    gm_in: usize,
    gm_weights: usize,
    ub_base: usize,
    chip: &Chip,
    lowering: ConvLowering,
) -> Result<(Program, ResidentConv, u64), ConvError> {
    let (oh, ow) = params.out_dims(ih, iw)?;
    let m_fr = (oh * ow).div_ceil(E);
    let n_fr = m.div_ceil(E);
    let resident = ResidentConv {
        base: ub_base,
        plane_stride: (m_fr + 1) * FRACTAL_BYTES,
        n_fr,
        m_fr,
        oh,
        ow,
    };
    let sink = Sink::Ub {
        base: resident.base,
        plane_stride: resident.plane_stride,
    };
    if resident.end() > chip.caps.ub {
        return Err(ConvError::Capacity {
            resource: "ub",
            needed: resident.end(),
            available: chip.caps.ub,
        });
    }
    let (p, declines) = match lowering {
        ConvLowering::Materialised => (
            build_materialised(input_c, ih, iw, m, params, gm_in, gm_weights, sink, chip)?,
            0,
        ),
        ConvLowering::Implicit => (
            build_implicit(input_c, ih, iw, m, params, gm_in, gm_weights, sink, chip)?,
            0,
        ),
        ConvLowering::Auto => {
            match build_implicit(input_c, ih, iw, m, params, gm_in, gm_weights, sink, chip) {
                Ok(p) => (p, 0),
                Err(e) if e.is_capacity() => (
                    build_materialised(input_c, ih, iw, m, params, gm_in, gm_weights, sink, chip)?,
                    1,
                ),
                Err(e) => return Err(e),
            }
        }
    };
    Ok((p, resident, declines))
}

/// Build a GM-to-GM forward program under the requested lowering,
/// returning the program and the implicit-decline count to book (only
/// nonzero for [`ConvLowering::Auto`] falling back).
#[allow(clippy::too_many_arguments)]
fn build_forward(
    input_c: usize,
    ih: usize,
    iw: usize,
    m: usize,
    params: &PoolParams,
    gm_in: usize,
    gm_weights: usize,
    gm_out: usize,
    chip: &Chip,
    lowering: ConvLowering,
) -> Result<(Program, u64), ConvError> {
    match lowering {
        ConvLowering::Materialised => Ok((
            build_conv2d(input_c, ih, iw, m, params, gm_in, gm_weights, gm_out, chip)?,
            0,
        )),
        ConvLowering::Implicit => Ok((
            build_conv2d_implicit(input_c, ih, iw, m, params, gm_in, gm_weights, gm_out, chip)?,
            0,
        )),
        ConvLowering::Auto => {
            match build_conv2d_implicit(input_c, ih, iw, m, params, gm_in, gm_weights, gm_out, chip)
            {
                Ok(p) => Ok((p, 0)),
                Err(e) if e.is_capacity() => Ok((
                    build_conv2d(input_c, ih, iw, m, params, gm_in, gm_weights, gm_out, chip)?,
                    1,
                )),
                Err(e) => Err(e),
            }
        }
    }
}

/// Build the backward-data ("dgrad") program: `dX = col2im(dY x W^T)` —
/// the Cube Unit computes the column-space gradient, the drain converts
/// it to f16 in the UB, and **`Col2Im` instructions perform the merge**,
/// the exact use the instruction was designed for (Section II-B).
///
/// GM layout: `gm_dy` holds dY as `m_up_fr` fractal-padded planes of
/// `patch_fr * 512` bytes (patch-major per output channel group);
/// `gm_wt` holds the transposed FracZ weights; `gm_dx` receives the
/// NC1HWC0 input gradient (`c1` planes of `ih * iw * C0` f16).
#[allow(clippy::too_many_arguments)]
pub fn build_conv2d_backward_data(
    input_c: usize,
    ih: usize,
    iw: usize,
    m: usize,
    params: &PoolParams,
    gm_dy: usize,
    gm_wt: usize,
    gm_dx: usize,
    chip: &Chip,
) -> Result<Program, ConvError> {
    let (oh, ow) = params.out_dims(ih, iw)?;
    let c1 = input_c.div_ceil(C0);
    let patches = oh * ow;
    let patch_fr = patches.div_ceil(E);
    let k_fr = c1 * params.kh * params.kw;
    let m_up_fr = m.div_ceil(E);

    // Single-tile lowering: everything must be resident at once.
    let a_fr = patch_fr * m_up_fr;
    let b_fr = m_up_fr * k_fr;
    let c_fr = patch_fr * k_fr;
    let dy_bytes = m_up_fr * patch_fr * FRACTAL_BYTES;
    let wt_bytes = b_fr * FRACTAL_BYTES;
    let mg_bytes = k_fr * patch_fr * FRACTAL_BYTES;
    let dx_bytes = c1 * ih * iw * C0 * 2;
    if a_fr * FRACTAL_BYTES > chip.caps.l0a
        || wt_bytes > chip.caps.l0b
        || c_fr * L0C_FRACTAL_BYTES > chip.caps.l0c
        || dy_bytes + wt_bytes > chip.caps.l1
        || mg_bytes + dx_bytes > chip.caps.ub
    {
        return Err(ConvError::Unsupported(
            "backward-data problem exceeds the single-tile lowering".into(),
        ));
    }

    let mut p = Program::new();
    // Stage dY and W^T in L1.
    dma(&mut p, Addr::gm(gm_dy), Addr::l1(0), dy_bytes)?;
    dma(&mut p, Addr::gm(gm_wt), Addr::l1(dy_bytes), wt_bytes)?;
    // A = dY as (patch_fr x m_up_fr) fractals: fractal (i, j) is bytes
    // [i*512, i*512+512) of dY plane j.
    for i in 0..patch_fr {
        for j in 0..m_up_fr {
            p.push(Instr::Move(dv_isa::DataMove::new(
                Addr::l1(j * patch_fr * FRACTAL_BYTES + i * FRACTAL_BYTES),
                Addr::new(BufferId::L0A, (i * m_up_fr + j) * FRACTAL_BYTES),
                FRACTAL_BYTES,
            )))?;
        }
    }
    // B = W^T, already fractal-ordered.
    p.push(Instr::Move(dv_isa::DataMove::new(
        Addr::l1(dy_bytes),
        Addr::new(BufferId::L0B, 0),
        wt_bytes,
    )))?;
    p.push(Instr::Cube(CubeMatmul {
        a: Addr::new(BufferId::L0A, 0),
        b: Addr::new(BufferId::L0B, 0),
        c: Addr::new(BufferId::L0C, 0),
        m_fractals: patch_fr,
        k_fractals: m_up_fr,
        n_fractals: k_fr,
        accumulate: false,
    }))?;
    // Drain the column-space gradient to the UB, regrouped into
    // (c1, kh, kw) planes of patch-major fractals.
    let ub_mg = Addr::ub(0);
    let ub_dx = Addr::ub(mg_bytes);
    for kk in 0..k_fr {
        for i in 0..patch_fr {
            p.push(Instr::Move(dv_isa::DataMove::new(
                Addr::new(BufferId::L0C, (i * k_fr + kk) * L0C_FRACTAL_BYTES),
                ub_mg.add(kk * patch_fr * FRACTAL_BYTES + i * FRACTAL_BYTES),
                L0C_FRACTAL_BYTES,
            )))?;
        }
    }
    // Col2Im requires a zero-initialised output (Section III-D).
    dv_akg::zero_region(&mut p, ub_dx, c1 * ih * iw * C0)?;
    let geom = Im2ColGeometry::new(ih, iw, c1, *params)?;
    for kk in 0..k_fr {
        let c1_i = kk / (params.kh * params.kw);
        let rem = kk % (params.kh * params.kw);
        let k_off = (rem / params.kw, rem % params.kw);
        let mplane = ub_mg.add(kk * patch_fr * FRACTAL_BYTES);
        let mut f0 = 0usize;
        while f0 < patch_fr {
            let rep = (patch_fr - f0).min(MAX_REPEAT as usize);
            p.push(Instr::Col2Im(dv_isa::Col2Im {
                geom,
                src: mplane.add(f0 * FRACTAL_BYTES),
                dst: ub_dx,
                first_patch: f0 * E,
                k_off,
                c1: c1_i,
                repeat: rep as u16,
            }))?;
            f0 += rep;
        }
    }
    dma(&mut p, ub_dx, Addr::gm(gm_dx), dx_bytes)?;
    Ok(p)
}

/// Host-level convenience: run backward-data on a fresh single-core chip
/// and return the NCHW input gradient plus the chip counters.
pub fn run_conv2d_backward_data(
    gradients: &Nchw,
    kernels: &Nchw,
    params: &PoolParams,
    ih: usize,
    iw: usize,
) -> Result<(Nchw, ChipRun), ConvError> {
    if gradients.n != 1 {
        return Err(ConvError::Unsupported("batch size must be 1".into()));
    }
    if gradients.c != kernels.n {
        return Err(ConvError::Shape(dv_tensor::ShapeError::Mismatch(format!(
            "gradient channels {} != kernel count {}",
            gradients.c, kernels.n
        ))));
    }
    let (oh, ow) = params.out_dims(ih, iw)?;
    if (gradients.h, gradients.w) != (oh, ow) {
        return Err(ConvError::Shape(dv_tensor::ShapeError::Mismatch(format!(
            "gradient plane {:?} != derived {:?}",
            (gradients.h, gradients.w),
            (oh, ow)
        ))));
    }
    let chip = Chip::new(1, CostModel::ascend910_like());
    let c1 = kernels.c.div_ceil(C0);
    let patch_fr = (oh * ow).div_ceil(E);
    let (wt, m_up_fr, _k_fr) = crate::fracz::kernels_to_fracz_t(kernels, params);

    let mut gm = GmArena::new();
    let gm_dy = gm.alloc(m_up_fr * patch_fr * FRACTAL_BYTES);
    let gm_wt = gm.alloc(wt.len() * 2);
    let gm_dx = gm.alloc(c1 * ih * iw * C0 * 2);

    let program = build_conv2d_backward_data(
        kernels.c, ih, iw, kernels.n, params, gm_dy, gm_wt, gm_dx, &chip,
    )?;

    let mut image = vec![0u8; gm.size()];
    // dY planes: channel group j, patch-major, fractal-padded.
    let dy_fractal = gradients.to_nc1hwc0();
    for j in 0..m_up_fr {
        let plane = dy_fractal.slice_plane(0, j);
        let base = gm_dy + j * patch_fr * FRACTAL_BYTES;
        image[base..base + plane.len() * 2].copy_from_slice(dv_fp16::as_bytes(&plane));
    }
    image[gm_wt..gm_wt + wt.len() * 2].copy_from_slice(dv_fp16::as_bytes(&wt));
    let run = chip.run(&mut image, &[program])?;

    let mut dx = Nc1hwc0::zeros(1, c1, ih, iw);
    dx.orig_c = kernels.c;
    let n = c1 * ih * iw * C0;
    let vals: Vec<F16> = (0..n)
        .map(|i| {
            let o = gm_dx + i * 2;
            F16::from_bits(u16::from_le_bytes([image[o], image[o + 1]]))
        })
        .collect();
    dx.data_mut().copy_from_slice(&vals);
    Ok((dx.to_nchw(), run))
}

/// Host-level convenience: run a full convolution on a fresh single-core
/// chip image and return the NCHW result plus the chip counters. Uses
/// the materialised lowering (the original path); see
/// [`run_conv2d_with`] to pick the lowering and the chip.
pub fn run_conv2d(
    input: &Nchw,
    kernels: &Nchw,
    params: &PoolParams,
) -> Result<(Nchw, ChipRun), ConvError> {
    let chip = Chip::new(1, CostModel::ascend910_like());
    run_conv2d_with(input, kernels, params, &chip, ConvLowering::Materialised)
}

/// Run a full convolution on the caller's chip under the requested
/// lowering. Under [`ConvLowering::Auto`] a typed capacity decline of
/// the implicit path falls back to the materialised path and books
/// `implicit_declines` into the run counters (like the engine's
/// `tuner_fallbacks` — a visible decline, never a silent substitution).
pub fn run_conv2d_with(
    input: &Nchw,
    kernels: &Nchw,
    params: &PoolParams,
    chip: &Chip,
    lowering: ConvLowering,
) -> Result<(Nchw, ChipRun), ConvError> {
    if input.n != 1 {
        return Err(ConvError::Unsupported("batch size must be 1".into()));
    }
    if kernels.c != input.c {
        return Err(ConvError::Shape(dv_tensor::ShapeError::Mismatch(format!(
            "kernel channels {} != input channels {}",
            kernels.c, input.c
        ))));
    }
    let fractal_in = input.to_nc1hwc0();
    let (weights, _k_fr, n_fr) = kernels_to_fracz(kernels, params);
    let (oh, ow) = params.out_dims(input.h, input.w)?;
    let m_fr = (oh * ow).div_ceil(E);

    let mut gm = GmArena::new();
    let gm_in = gm.alloc(fractal_in.byte_len());
    let gm_weights = gm.alloc(weights.len() * 2);
    let gm_out = gm.alloc(n_fr * m_fr * FRACTAL_BYTES);

    let (program, declines) = build_forward(
        input.c, input.h, input.w, kernels.n, params, gm_in, gm_weights, gm_out, chip, lowering,
    )?;

    let mut image = vec![0u8; gm.size()];
    image[gm_in..gm_in + fractal_in.byte_len()]
        .copy_from_slice(dv_fp16::as_bytes(fractal_in.data()));
    image[gm_weights..gm_weights + weights.len() * 2].copy_from_slice(dv_fp16::as_bytes(&weights));
    let mut run = chip.run(&mut image, &[program])?;
    // Booked post-run like the engine's tuner counters.
    run.total.implicit_declines += declines;

    // Deserialize: plane j holds patches-major (oh, ow) x 16 output
    // channels.
    let mut out = Nc1hwc0::zeros(1, n_fr, oh, ow);
    out.orig_c = kernels.n;
    for j in 0..n_fr {
        for patch in 0..oh * ow {
            for c0 in 0..C0 {
                let off = gm_out + j * m_fr * FRACTAL_BYTES + (patch * C0 + c0) * 2;
                let v = F16::from_bits(u16::from_le_bytes([image[off], image[off + 1]]));
                out.set(0, j, patch / ow, patch % ow, c0, v);
            }
        }
    }
    Ok((out.to_nchw(), run))
}
