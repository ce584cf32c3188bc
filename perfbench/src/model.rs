//! `model-seg` ops: one `Sequential::forward_fused` over a pinned
//! `dv_nn::segments` slice with a seeded input image, and its traced
//! rebuild from `dv_conv`/`dv_akg`/`dv_sim` public functions.

use crate::rng::Rng;
use crate::spans::Tracer;
use crate::workloads::{Kind, OpSpec};
use dv_akg::{dma, fill_region, GmArena};
use dv_conv::{build_conv2d_resident, kernels_to_fracz, ConvLowering};
use dv_core::{choose_segment_fusion, PoolingEngine, SegmentFusion};
use dv_fp16::{as_bytes, F16};
use dv_isa::{Addr, Instr, Mask, VectorInstr, VectorOp, MAX_REPEAT};
use dv_nn::{fused_ub_bytes, reference_forward, segment_by_name, Layer, NetRun, Sequential};
use dv_sim::ChipRun;
use dv_tensor::{Nc1hwc0, Nchw, PoolParams, C0};

pub struct SegCase {
    pub spec: OpSpec,
    pub model: Sequential,
    pub input: Nchw,
    /// Golden output from `dv_nn::reference_forward`.
    pub want: Nchw,
    pub weights: Nchw,
    pub conv: PoolParams,
    pub pool: PoolParams,
}

pub fn materialize(spec: &OpSpec, engine: &PoolingEngine) -> Result<SegCase, String> {
    let Kind::Segment(name) = spec.kind else {
        return Err(format!("{} is not a model segment", spec.label));
    };
    let seg = segment_by_name(name).ok_or_else(|| format!("no segment {name}"))?;
    let (weights, conv, pool) = match seg.layers.as_slice() {
        [Layer::Conv2d { weights, params }, Layer::MaxPool2d { params: pool, .. }] => {
            (weights.clone(), *params, *pool)
        }
        _ => return Err(format!("{name} is not a conv->maxpool segment")),
    };
    let mut rng = Rng::new(spec.values);
    // Inputs in [-2, 2), like the segment's own image, keep the f16 conv
    // sums well inside range.
    let input = Nchw::from_fn(1, spec.c, spec.h, spec.w, |_, _, _, _| rng.gradient());
    let model = Sequential::with_layers(engine.clone(), seg.layers);
    let want = reference_forward(&model, &input).map_err(|e| format!("reference: {e}"))?;
    Ok(SegCase {
        spec: spec.clone(),
        model,
        input,
        want,
        weights,
        conv,
        pool,
    })
}

pub fn same(a: &Nchw, b: &Nchw) -> bool {
    (a.n, a.c, a.h, a.w) == (b.n, b.c, b.h, b.w) && as_bytes(a.data()) == as_bytes(b.data())
}

pub fn check(case: &SegCase, out: &Nchw) -> Result<(), String> {
    if same(out, &case.want) {
        Ok(())
    } else {
        Err(format!(
            "{}: output differs from reference_forward",
            case.spec.label
        ))
    }
}

/// The op as a user runs it.
pub fn engine_call(case: &SegCase) -> Result<(Nchw, NetRun), String> {
    case.model
        .forward_fused(&case.input)
        .map_err(|e| format!("{}: {e}", case.spec.label))
}

/// Bytes of one 16-channel pixel group.
const ROW: usize = C0 * 2;

/// Rebuild `forward_fused`'s conv->maxpool tile handoff (the planner's
/// choice, then `dv_nn::run_fused_conv_pool`'s program) from public
/// functions, with a span at each layer boundary. Returns the output, the
/// chip run, and the program with the GM image it starts from.
pub fn rebuild(
    engine: &PoolingEngine,
    case: &SegCase,
    tr: &mut Tracer,
    parent: usize,
) -> Result<(Nchw, ChipRun, dv_isa::Program, Vec<u8>), String> {
    let chip = &engine.chip;
    let (x, weights, conv, pool) = (&case.input, &case.weights, &case.conv, &case.pool);
    let err = |e: &dyn std::fmt::Display| format!("{}: {e}", case.spec.label);
    let (oh, ow) = conv.out_dims(x.h, x.w).map_err(|e| err(&e))?;
    let (poh, pow) = pool.out_dims(oh, ow).map_err(|e| err(&e))?;
    let fusion = tr.span("schedule", parent, || {
        let handoff_legal =
            x.n == 1 && pool.padding.is_none() && !pool.ceil_mode && pow <= MAX_REPEAT as usize;
        let resident = fused_ub_bytes((x.h, x.w), weights.n, conv, pool).unwrap_or(usize::MAX);
        choose_segment_fusion(false, handoff_legal, resident, chip.caps)
    });
    if fusion != SegmentFusion::Handoff {
        return Err(err(&format!("planner chose {} fusion", fusion.label())));
    }
    let (fractal_in, (weights_fz, _, n_fr)) = tr.span("tensor.layout", parent, || {
        (x.to_nc1hwc0(), kernels_to_fracz(weights, conv))
    });
    let out_plane_bytes = poh * pow * ROW;
    let (gm, gm_in, gm_weights, gm_out) = tr.span("engine.gm", parent, || {
        let mut gm = GmArena::new();
        let gm_in = gm.alloc(fractal_in.byte_len());
        let gm_weights = gm.alloc(weights_fz.len() * 2);
        let gm_out = gm.alloc(n_fr * out_plane_bytes);
        (gm, gm_in, gm_weights, gm_out)
    });
    let (program, declines) = tr
        .span("lower", parent, || -> Result<_, dv_conv::ConvError> {
            let (mut p, resident, declines) = build_conv2d_resident(
                x.c,
                x.h,
                x.w,
                weights.n,
                conv,
                gm_in,
                gm_weights,
                0,
                chip,
                ConvLowering::Auto,
            )?;
            let ub_out = resident.end();
            for j in 0..n_fr {
                let plane = Addr::ub(resident.base + j * resident.plane_stride);
                let out_plane = Addr::ub(ub_out + j * out_plane_bytes);
                fill_region(&mut p, out_plane, F16::NEG_INFINITY, poh * pow * C0)?;
                for khi in 0..pool.kh {
                    for kwi in 0..pool.kw {
                        for r in 0..poh {
                            let src = (r * pool.sh + khi * pool.dh) * ow + kwi * pool.dw;
                            p.push(Instr::Vector(VectorInstr {
                                op: VectorOp::Max,
                                dst: out_plane.add(r * pow * ROW),
                                src0: out_plane.add(r * pow * ROW),
                                src1: plane.add(src * ROW),
                                mask: Mask::C0_ONLY,
                                repeat: pow as u16,
                                dst_stride: ROW,
                                src0_stride: ROW,
                                src1_stride: pool.sw * ROW,
                            }))?;
                        }
                    }
                }
                let dst = Addr::gm(gm_out + j * out_plane_bytes);
                dma(&mut p, out_plane, dst, out_plane_bytes)?;
            }
            Ok((p, declines))
        })
        .map_err(|e| err(&e))?;
    let image0 = tr.span("engine.gm", parent, || {
        let mut image = vec![0u8; gm.size()];
        let fin = as_bytes(fractal_in.data());
        image[gm_in..gm_in + fin.len()].copy_from_slice(fin);
        let wfz = as_bytes(&weights_fz);
        image[gm_weights..gm_weights + wfz.len()].copy_from_slice(wfz);
        image
    });
    let mut image = image0.clone();
    let programs = [program];
    let mut run = tr
        .span("sim", parent, || chip.run(&mut image, &programs))
        .map_err(|e| err(&e))?;
    run.total.implicit_declines += declines;
    let out = tr.span("engine.readback", parent, || {
        let mut out = Nc1hwc0::zeros(1, n_fr, poh, pow);
        out.orig_c = weights.n;
        for j in 0..n_fr {
            let base = gm_out + j * out_plane_bytes;
            for (k, b) in image[base..base + out_plane_bytes]
                .chunks_exact(2)
                .enumerate()
            {
                let v = F16::from_bits(u16::from_le_bytes([b[0], b[1]]));
                let (patch, c0) = (k / C0, k % C0);
                out.set(0, j, patch / pow, patch % pow, c0, v);
            }
        }
        out
    });
    let out = tr.span("tensor.layout", parent, || out.to_nchw());
    let [program] = programs;
    Ok((out, run, program, image0))
}
