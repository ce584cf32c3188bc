//! Pooling ops: seeded inputs with golden outputs, the engine call a user
//! makes, and the traced rebuild of that call from the layers' public
//! functions.

use crate::rng::Rng;
use crate::spans::Tracer;
use crate::workloads::{Kind, OpSpec};
use dv_akg::GmArena;
use dv_core::avgpool::{avg_scale, build_avgpool_backward, build_avgpool_forward_parallel};
use dv_core::maxpool::{
    backward_shard_staging_bytes, build_backward, build_backward_sharded, build_forward_batched,
    build_forward_parallel, build_forward_with_argmax_parallel, BackwardSource, Reduction,
};
use dv_core::{
    chip_cycle_floor, choose_backward_algorithm, choose_backward_partition,
    choose_forward_algorithm, Algorithm, AlgorithmChoice, ForwardImpl, LowerError, MergeImpl,
    PartitionAxis, PoolProblem, PoolRun, PoolingEngine, RunError,
};
use dv_fp16::{as_bytes, F16};
use dv_isa::{BufferId, Program};
use dv_serve::{JobOp, JobResult, JobSpec};
use dv_sim::{Chip, CostModel, GmDeclaration};
use dv_tensor::reference as golden;
use dv_tensor::{Nc1hwc0, PatchTensor, PoolParams, C0};

/// One pooling op with its inputs and golden outputs.
pub struct PoolCase {
    pub spec: OpSpec,
    /// Forward input; for backward ops it carries the input shape.
    pub input: Nc1hwc0,
    /// Argmax mask a max backward scatters through.
    pub mask: Option<PatchTensor>,
    pub grads: Option<Nc1hwc0>,
    /// Golden output: the pooled map, or `dx` for a backward op.
    pub want: Nc1hwc0,
    pub want_mask: Option<PatchTensor>,
    /// Golden `dx` of a train step.
    pub want_dx: Option<Nc1hwc0>,
}

fn seeded(n_c1_h_w: (usize, usize, usize, usize), rng: &mut Rng, grad: bool) -> Nc1hwc0 {
    let (n, c1, h, w) = n_c1_h_w;
    Nc1hwc0::from_fn(n, c1, h, w, |_, _, _, _, _| {
        if grad {
            rng.gradient()
        } else {
            rng.activation()
        }
    })
}

fn shape_err(e: dv_tensor::ShapeError) -> String {
    format!("golden reference: {e}")
}

/// Generate an op's inputs from its seed and compute its golden outputs
/// with `dv_tensor::reference`.
pub fn materialize(spec: &OpSpec) -> Result<PoolCase, String> {
    let mut rng = Rng::new(spec.values);
    let c1 = spec.c.div_ceil(C0);
    let p = &spec.params;
    let (oh, ow) = p.out_dims(spec.h, spec.w).map_err(shape_err)?;
    let x = seeded((1, c1, spec.h, spec.w), &mut rng, false);
    let mut case = PoolCase {
        spec: spec.clone(),
        want: Nc1hwc0::zeros(0, 0, 0, 0),
        input: x,
        mask: None,
        grads: None,
        want_mask: None,
        want_dx: None,
    };
    match spec.kind {
        Kind::MaxFwd => case.want = golden::maxpool_forward(&case.input, p).map_err(shape_err)?,
        Kind::AvgFwd => case.want = golden::avgpool_forward(&case.input, p).map_err(shape_err)?,
        Kind::MaxFwdArgmax | Kind::TrainStep => {
            let (out, mask) =
                golden::maxpool_forward_with_argmax(&case.input, p).map_err(shape_err)?;
            case.want = out;
            if spec.kind == Kind::TrainStep {
                let grads = seeded((1, c1, oh, ow), &mut rng, true);
                case.want_dx = Some(
                    golden::maxpool_backward(&mask, &grads, p, spec.h, spec.w)
                        .map_err(shape_err)?,
                );
                case.grads = Some(grads);
            }
            case.want_mask = Some(mask);
        }
        Kind::MaxBwd => {
            let mask = golden::maxpool_argmax_mask(&case.input, p).map_err(shape_err)?;
            let grads = seeded((1, c1, oh, ow), &mut rng, true);
            case.want =
                golden::maxpool_backward(&mask, &grads, p, spec.h, spec.w).map_err(shape_err)?;
            case.mask = Some(mask);
            case.grads = Some(grads);
        }
        Kind::AvgBwd => {
            let grads = seeded((1, c1, oh, ow), &mut rng, true);
            case.want = golden::avgpool_backward(&grads, p, spec.h, spec.w).map_err(shape_err)?;
            case.grads = Some(grads);
        }
        Kind::Segment(_) => return Err("a model segment is not a pooling op".into()),
    }
    Ok(case)
}

/// What one op hands back: its outputs and one chip run per engine call.
pub struct Outputs {
    pub out: Nc1hwc0,
    pub mask: Option<PatchTensor>,
    pub dx: Option<Nc1hwc0>,
    pub runs: Vec<PoolRun>,
}

impl Outputs {
    pub fn issues(&self) -> u64 {
        self.runs.iter().map(|r| r.total.total_issues()).sum()
    }
}

/// The op as a user of `PoolingEngine` runs it.
pub fn engine_call(engine: &PoolingEngine, case: &PoolCase) -> Result<Outputs, RunError> {
    let s = &case.spec;
    let fwd = ForwardImpl::Im2col;
    let merge = MergeImpl::Col2Im;
    let one = |out, mask, run| Outputs {
        out,
        mask,
        dx: None,
        runs: vec![run],
    };
    Ok(match s.kind {
        Kind::MaxFwd => {
            let (out, run) = engine.maxpool_forward(&case.input, s.params, fwd)?;
            one(out, None, run)
        }
        Kind::AvgFwd => {
            let (out, run) = engine.avgpool_forward(&case.input, s.params, fwd)?;
            one(out, None, run)
        }
        Kind::MaxFwdArgmax => {
            let (out, mask, run) =
                engine.maxpool_forward_with_argmax(&case.input, s.params, fwd)?;
            one(out, Some(mask), run)
        }
        Kind::MaxBwd => {
            let mask = case.mask.as_ref().expect("max backward has a mask");
            let grads = case.grads.as_ref().expect("backward has gradients");
            let (dx, run) = engine.maxpool_backward(mask, grads, s.params, s.h, s.w, merge)?;
            one(dx, None, run)
        }
        Kind::AvgBwd => {
            let grads = case.grads.as_ref().expect("backward has gradients");
            let (dx, run) = engine.avgpool_backward(grads, s.params, s.h, s.w, merge)?;
            one(dx, None, run)
        }
        Kind::TrainStep => {
            let (out, mask, fwd_run) =
                engine.maxpool_forward_with_argmax(&case.input, s.params, fwd)?;
            let grads = case.grads.as_ref().expect("train step has gradients");
            let (dx, bwd_run) = engine.maxpool_backward(&mask, grads, s.params, s.h, s.w, merge)?;
            Outputs {
                out,
                mask: Some(mask),
                dx: Some(dx),
                runs: vec![fwd_run, bwd_run],
            }
        }
        Kind::Segment(_) => unreachable!("segments run through dv_nn"),
    })
}

fn same_tensor(a: &Nc1hwc0, b: &Nc1hwc0) -> bool {
    (a.n, a.c1, a.h, a.w) == (b.n, b.c1, b.h, b.w) && as_bytes(a.data()) == as_bytes(b.data())
}

fn same_mask(a: &PatchTensor, b: &PatchTensor) -> bool {
    (a.n, a.c1, a.kh, a.kw, a.oh, a.ow) == (b.n, b.c1, b.kh, b.kw, b.oh, b.ow)
        && as_bytes(a.data()) == as_bytes(b.data())
}

/// Compare an op's outputs bit for bit against the golden ones.
pub fn check(
    case: &PoolCase,
    out: &Nc1hwc0,
    mask: Option<&PatchTensor>,
    dx: Option<&Nc1hwc0>,
) -> Result<(), String> {
    let label = &case.spec.label;
    if !same_tensor(out, &case.want) {
        return Err(format!("{label}: output differs from the golden reference"));
    }
    if let Some(want) = &case.want_mask {
        match mask {
            Some(m) if same_mask(m, want) => {}
            _ => {
                return Err(format!(
                    "{label}: argmax mask differs from the golden reference"
                ))
            }
        }
    }
    if let Some(want) = &case.want_dx {
        match dx {
            Some(d) if same_tensor(d, want) => {}
            _ => return Err(format!("{label}: dx differs from the golden reference")),
        }
    }
    Ok(())
}

pub fn check_job(case: &PoolCase, r: &JobResult) -> Result<(), String> {
    check(case, &r.output, r.mask.as_ref(), None)
}

/// The `dv_serve` job for a `serve-mix` op. Backward jobs run on eight
/// simulated cores with cost-model sharding, so sub-plane shards and the
/// halo fold engage; forward jobs keep `JobSpec`'s defaults.
pub fn job_spec(case: &PoolCase) -> JobSpec {
    let s = &case.spec;
    let backward = |op| {
        JobSpec::new(case.input.clone(), s.params, op)
            .with_cores(8)
            .with_sharding(true)
    };
    let grads = || case.grads.clone().expect("backward has gradients");
    match s.kind {
        Kind::MaxFwd => JobSpec::new(
            case.input.clone(),
            s.params,
            JobOp::MaxForward(ForwardImpl::Im2col),
        ),
        Kind::MaxFwdArgmax => JobSpec::new(
            case.input.clone(),
            s.params,
            JobOp::MaxForwardArgmax(ForwardImpl::Im2col),
        ),
        Kind::AvgFwd => JobSpec::new(
            case.input.clone(),
            s.params,
            JobOp::AvgForward(ForwardImpl::Im2col),
        ),
        Kind::MaxBwd => backward(JobOp::MaxBackward {
            merge: MergeImpl::Col2Im,
            mask: case.mask.clone().expect("max backward has a mask"),
            gradients: grads(),
        }),
        Kind::AvgBwd => backward(JobOp::AvgBackward {
            merge: MergeImpl::Col2Im,
            gradients: grads(),
        }),
        Kind::TrainStep | Kind::Segment(_) => unreachable!("not a serve-mix op"),
    }
}

/// The engine `dv_serve::run_job` builds for a job.
pub fn job_engine(spec: &JobSpec) -> PoolingEngine {
    let chip = Chip::new(spec.cores.max(1), CostModel::ascend910_like()).with_backend(spec.backend);
    PoolingEngine::new(chip).with_sharding(spec.sharding)
}

/// A rebuilt engine call: its outputs plus everything the traced run
/// reports about how it ran.
pub struct Rebuilt {
    pub out: Nc1hwc0,
    pub mask: Option<PatchTensor>,
    pub run: PoolRun,
    /// The dispatched programs and their GM declarations, and the GM image
    /// they started from (kept only when asked for).
    pub programs: Vec<Program>,
    pub decls: Option<Vec<GmDeclaration>>,
    pub image0: Option<Vec<u8>>,
    /// The tuner's predicted cycles for the dispatched algorithm.
    pub predicted: Option<u64>,
}

fn write(image: &mut [u8], off: usize, data: &[F16]) {
    let b = as_bytes(data);
    image[off..off + b.len()].copy_from_slice(b);
}

fn read(image: &[u8], off: usize, len: usize) -> Vec<F16> {
    image[off..off + 2 * len]
        .chunks_exact(2)
        .map(|b| F16::from_bits(u16::from_le_bytes([b[0], b[1]])))
        .collect()
}

fn lower_err(e: LowerError) -> String {
    format!("lowering: {e}")
}

/// A tuner dispatch: the chosen programs plus what certification needs.
struct Tuned {
    programs: Vec<Program>,
    alternatives: Vec<Vec<Program>>,
    fallbacks: u64,
    predicted: Option<u64>,
}

/// Walk a tuner ranking the way the engine does: the first candidate that
/// lowers is dispatched, candidates that fail before it are fallbacks,
/// later lowerable ones are kept for certification.
fn dispatch_ranked(
    tr: &mut Tracer,
    parent: usize,
    choice: &AlgorithmChoice,
    mut lower: impl FnMut(Algorithm) -> Result<Vec<Program>, LowerError>,
) -> Result<Tuned, String> {
    let mut chosen = None;
    let mut predicted = None;
    let mut alternatives = Vec::new();
    let mut fallbacks = 0;
    let mut last_err = None;
    for pred in &choice.ranking {
        let name = if chosen.is_none() {
            "lower"
        } else {
            "lower.alt"
        };
        match tr.span(name, parent, || lower(pred.algorithm)) {
            Ok(ps) if chosen.is_none() => {
                chosen = Some(ps);
                predicted = Some(pred.cycles);
            }
            Ok(ps) => alternatives.push(ps),
            Err(e) => {
                if chosen.is_none() {
                    fallbacks += 1;
                }
                last_err = Some(e);
            }
        }
    }
    match chosen {
        Some(programs) => Ok(Tuned {
            programs,
            alternatives,
            fallbacks,
            predicted,
        }),
        None => Err(last_err.map_or("tuner found no feasible algorithm".into(), lower_err)),
    }
}

/// Inputs of one engine call to rebuild.
pub enum Call<'a> {
    Forward {
        input: &'a Nc1hwc0,
        reduction: Reduction,
        with_mask: bool,
    },
    Backward {
        /// `None` for an AvgPool backward.
        mask: Option<&'a PatchTensor>,
        grads: &'a Nc1hwc0,
        ih: usize,
        iw: usize,
    },
}

/// Rebuild one engine call from `dv_core`'s public scheduling and lowering
/// functions and `Chip::run`/`run_declared`, mirroring the dispatch
/// `PoolingEngine` takes for the configurations the workloads use
/// (batch 1, Im2col forward, Col2Im merge). Every layer boundary is a span
/// under `parent`; the caller compares the result with the engine call.
pub fn rebuild(
    engine: &PoolingEngine,
    params: PoolParams,
    call: Call,
    keep_image: bool,
    tr: &mut Tracer,
    parent: usize,
) -> Result<Rebuilt, String> {
    if engine.split_bands {
        return Err("the rebuild does not cover band splitting".into());
    }
    let chip = &engine.chip;
    let (caps, cores) = (chip.caps, chip.cores);
    let sbw = engine.shared_bandwidth();
    let merge = MergeImpl::Col2Im;
    let mut decls = None;
    let mut declined = 0;
    let (prob, mut image, tuned, programs, outs) = match call {
        Call::Forward {
            input,
            reduction,
            with_mask,
        } => {
            if input.n != 1 || engine.shard {
                return Err("the forward rebuild covers batch 1 without sharding".into());
            }
            let prob =
                PoolProblem::new(input.n, input.c1, input.h, input.w, params).map_err(lower_err)?;
            let (gm, gm_in, gm_out, gm_mask) = tr.span("engine.gm", parent, || {
                let mut gm = GmArena::new();
                let gm_in = gm.alloc(prob.in_bytes());
                let gm_out = gm.alloc(prob.out_bytes());
                let gm_mask = with_mask.then(|| gm.alloc(prob.mask_bytes()));
                (gm, gm_in, gm_out, gm_mask)
            });
            let lower = |algo: Algorithm| match (algo, gm_mask) {
                (Algorithm::Fold, _) => build_forward_batched(
                    &prob,
                    reduction,
                    gm_in,
                    gm_out,
                    gm_mask,
                    caps,
                    engine.schedule(),
                ),
                (_, Some(m)) => build_forward_with_argmax_parallel(
                    &prob,
                    algo.forward_impl(),
                    gm_in,
                    gm_out,
                    m,
                    caps,
                    1,
                    engine.schedule(),
                ),
                // An untuned AvgPool goes through its own builder; the tuner
                // lowers every reduction through the shared one.
                (_, None) if !engine.auto_tune && matches!(reduction, Reduction::Sum { .. }) => {
                    build_avgpool_forward_parallel(
                        &prob,
                        algo.forward_impl(),
                        gm_in,
                        gm_out,
                        caps,
                        1,
                        engine.schedule(),
                    )
                }
                (_, None) => build_forward_parallel(
                    &prob,
                    algo.forward_impl(),
                    reduction,
                    gm_in,
                    gm_out,
                    caps,
                    1,
                    engine.schedule(),
                ),
            };
            let (programs, tuned) = if engine.auto_tune {
                let is_avg = matches!(reduction, Reduction::Sum { .. });
                let choice = tr.span("schedule", parent, || {
                    choose_forward_algorithm(
                        &prob,
                        with_mask,
                        is_avg,
                        cores,
                        &engine.schedule(),
                        caps,
                        sbw,
                    )
                });
                let t = dispatch_ranked(tr, parent, &choice, lower)?;
                (t.programs, Some((t.alternatives, t.fallbacks, t.predicted)))
            } else {
                let ps = tr
                    .span("lower", parent, || lower(Algorithm::Im2col))
                    .map_err(lower_err)?;
                (ps, None)
            };
            let image = tr.span("engine.gm", parent, || {
                let mut image = vec![0u8; gm.size()];
                write(&mut image, gm_in, input.data());
                image
            });
            (prob, image, tuned, programs, (gm_out, gm_mask, None))
        }
        Call::Backward {
            mask,
            grads,
            ih,
            iw,
        } => {
            if grads.n != 1 {
                return Err("the backward rebuild covers batch 1".into());
            }
            let prob = PoolProblem::new(grads.n, grads.c1, ih, iw, params).map_err(lower_err)?;
            let (mut gm, gm_mask, gm_grad, gm_dx) = tr.span("engine.gm", parent, || {
                let mut gm = GmArena::new();
                let gm_mask = mask.map(|_| gm.alloc(prob.mask_bytes()));
                let gm_grad = gm.alloc(prob.out_bytes());
                let gm_dx = gm.alloc(prob.in_bytes());
                (gm, gm_mask, gm_grad, gm_dx)
            });
            let source = match gm_mask {
                Some(gm_mask) => BackwardSource::MaxMask { gm_mask },
                None => BackwardSource::AvgUniform {
                    scale: avg_scale(&prob),
                },
            };
            let per_plane = |merge| match gm_mask {
                Some(_) => build_backward(
                    &prob,
                    merge,
                    source,
                    gm_grad,
                    gm_dx,
                    caps,
                    engine.schedule(),
                ),
                None => {
                    build_avgpool_backward(&prob, merge, gm_grad, gm_dx, caps, engine.schedule())
                }
            };
            let (programs, tuned) = if engine.auto_tune {
                let choice = tr.span("schedule", parent, || {
                    choose_backward_algorithm(
                        &prob,
                        gm_mask.is_some(),
                        cores,
                        &engine.schedule(),
                        caps,
                        sbw,
                    )
                });
                let lower = |algo: Algorithm| {
                    build_backward(
                        &prob,
                        algo.merge_impl(),
                        source,
                        gm_grad,
                        gm_dx,
                        caps,
                        engine.schedule(),
                    )
                };
                let t = dispatch_ranked(tr, parent, &choice, lower)?;
                (t.programs, Some((t.alternatives, t.fallbacks, t.predicted)))
            } else {
                let axis = if engine.shard {
                    tr.span("schedule", parent, || {
                        choose_backward_partition(
                            &prob,
                            merge,
                            gm_mask.is_some(),
                            cores,
                            &engine.schedule(),
                            caps,
                            sbw,
                        )
                    })
                } else {
                    PartitionAxis::PerPlane
                };
                let ps = if axis == PartitionAxis::PerRowBand {
                    // The engine's shard count: the idle-core multiple the
                    // partitioner priced.
                    let shards = (cores / (prob.n * prob.c1)).max(2);
                    let gm_staging = gm.alloc(backward_shard_staging_bytes(&prob, shards));
                    tr.span("lower", parent, || {
                        match build_backward_sharded(
                            &prob,
                            merge,
                            source,
                            gm_grad,
                            gm_dx,
                            gm_staging,
                            shards,
                            caps,
                            engine.schedule(),
                        ) {
                            Ok((ps, ds)) => {
                                decls = Some(ds);
                                Ok(ps)
                            }
                            Err(_) => {
                                declined = 1;
                                build_backward(
                                    &prob,
                                    merge,
                                    source,
                                    gm_grad,
                                    gm_dx,
                                    caps,
                                    engine.schedule(),
                                )
                            }
                        }
                    })
                } else {
                    tr.span("lower", parent, || per_plane(merge))
                }
                .map_err(lower_err)?;
                (ps, None)
            };
            let image = tr.span("engine.gm", parent, || {
                let mut image = vec![0u8; gm.size()];
                if let (Some(off), Some(m)) = (gm_mask, mask) {
                    write(&mut image, off, m.data());
                }
                write(&mut image, gm_grad, grads.data());
                image
            });
            (prob, image, tuned, programs, (0, None, Some(gm_dx)))
        }
    };
    let image0 = keep_image.then(|| image.clone());
    let mut run = tr
        .span("sim", parent, || match &decls {
            Some(d) => chip.run_declared(&mut image, &programs, d),
            None => chip.run(&mut image, &programs),
        })
        .map_err(|e| format!("simulation: {e}"))?;
    let mut predicted = None;
    if let Some((alts, fallbacks, pred)) = &tuned {
        // Post-run certification against each rejected alternative's floor.
        tr.span("schedule", parent, || {
            run.total.tuner_fallbacks += fallbacks;
            for alt in alts {
                if chip_cycle_floor(alt, cores, &chip.cost) < run.cycles {
                    run.total.tuner_mispredicted += 1;
                }
            }
        });
        predicted = *pred;
    }
    run.total.tuner_fallbacks += declined;
    let (gm_out, gm_mask, gm_dx) = outs;
    let (out, mask) = tr.span("engine.readback", parent, || {
        let (n, c1) = (prob.n, prob.c1);
        let (oh, ow) = prob.out_dims();
        if let Some(off) = gm_dx {
            let data = read(&image, off, n * c1 * prob.ih * prob.iw * C0);
            let dx = Nc1hwc0::from_vec(n, c1, prob.ih, prob.iw, data);
            return (dx.map_err(|e| e.to_string()), None);
        }
        let out = Nc1hwc0::from_vec(n, c1, oh, ow, read(&image, gm_out, n * c1 * oh * ow * C0));
        let mask = gm_mask.map(|off| {
            let (kh, kw) = (params.kh, params.kw);
            let len = n * c1 * kh * kw * oh * ow * C0;
            PatchTensor::from_vec(n, c1, kh, kw, oh, ow, read(&image, off, len))
                .map_err(|e| e.to_string())
        });
        (out.map_err(|e| e.to_string()), mask)
    });
    Ok(Rebuilt {
        out: out?,
        mask: mask.transpose()?,
        run,
        programs,
        decls,
        image0,
        predicted,
    })
}

/// Rebuild a whole op (a train step is two engine calls) and compare it
/// with the engine call it mirrors: output bytes and cycles must match.
pub fn rebuild_op(
    engine: &PoolingEngine,
    case: &PoolCase,
    engine_cycles: &[u64],
    keep_image: bool,
    tr: &mut Tracer,
    parent: usize,
) -> Result<Vec<Rebuilt>, String> {
    let s = &case.spec;
    let fwd = |with_mask, reduction| Call::Forward {
        input: &case.input,
        reduction,
        with_mask,
    };
    let grads = case.grads.as_ref();
    let backward = |mask| Call::Backward {
        mask,
        grads: grads.expect("backward has gradients"),
        ih: s.h,
        iw: s.w,
    };
    let first = match s.kind {
        Kind::MaxFwd => fwd(false, Reduction::Max),
        Kind::MaxFwdArgmax | Kind::TrainStep => fwd(true, Reduction::Max),
        Kind::AvgFwd => {
            let prob = PoolProblem::new(1, case.input.c1, s.h, s.w, s.params).map_err(lower_err)?;
            fwd(
                false,
                Reduction::Sum {
                    scale: avg_scale(&prob),
                },
            )
        }
        Kind::MaxBwd | Kind::AvgBwd => backward(case.mask.as_ref()),
        Kind::Segment(_) => unreachable!("segments rebuild through dv_nn"),
    };
    let mut out = vec![rebuild(engine, s.params, first, keep_image, tr, parent)?];
    if s.kind == Kind::TrainStep {
        // Backward through the mask the rebuilt forward produced.
        let mask = out[0].mask.clone();
        let r = rebuild(
            engine,
            s.params,
            backward(mask.as_ref()),
            keep_image,
            tr,
            parent,
        )?;
        out.push(r);
    }
    let cycles: Vec<u64> = out.iter().map(|r| r.run.cycles).collect();
    if cycles != engine_cycles {
        return Err(format!(
            "{}: rebuilt cycles {cycles:?} differ from the engine's {engine_cycles:?}",
            s.label
        ));
    }
    let (first, dx) = match s.kind {
        Kind::TrainStep => (&out[0], Some(&out[1].out)),
        _ => (&out[0], None),
    };
    check(case, &first.out, first.mask.as_ref(), dx).map_err(|e| format!("rebuilt op: {e}"))?;
    Ok(out)
}

/// Deterministic simulated statistics summed over ops.
#[derive(Clone, Debug, Default)]
pub struct SimStats {
    pub cycles: u64,
    pub issues: u64,
    pub gm_bytes: u64,
    pub stall_cycles: u64,
    pub contention_stalls: u64,
    pub l2_hits: u64,
    pub l2_miss_stalls: u64,
    pub core_max: u64,
    pub core_mean: f64,
    pub subplane_ops: u64,
    pub peak_ub: usize,
    pub peak_l1: usize,
    pub fallbacks: u64,
    pub mispredicted: u64,
    /// Predicted and measured cycles of tuner-dispatched runs.
    pub predicted: u64,
    pub predicted_measured: u64,
}

impl SimStats {
    /// Book one chip run of an op over `planes` `(n, c1)` planes.
    pub fn add(&mut self, run: &PoolRun, planes: usize, predicted: Option<u64>) {
        let t = &run.total;
        self.cycles += run.cycles;
        self.issues += t.total_issues();
        self.gm_bytes += t.gm_bytes;
        self.stall_cycles += t.stall_cycles;
        self.contention_stalls += t.contention_stalls;
        self.l2_hits += t.l2_hits;
        self.l2_miss_stalls += t.l2_miss_stalls;
        let active = run.core_cycles.len();
        if active > 0 {
            self.core_max += run.cycles;
            self.core_mean += run.core_cycles.iter().sum::<u64>() as f64 / active as f64;
        }
        if active > planes {
            self.subplane_ops += 1;
        }
        self.peak_ub = self.peak_ub.max(run.peaks.of(BufferId::Ub));
        self.peak_l1 = self.peak_l1.max(run.peaks.of(BufferId::L1));
        self.fallbacks += t.tuner_fallbacks;
        self.mispredicted += t.tuner_mispredicted;
        if let Some(p) = predicted {
            self.predicted += p;
            self.predicted_measured += run.cycles;
        }
    }

    pub fn core_imbalance(&self) -> f64 {
        if self.core_mean > 0.0 {
            self.core_max as f64 / self.core_mean
        } else {
            1.0
        }
    }

    pub fn pred_err_pct(&self) -> f64 {
        if self.predicted_measured == 0 {
            0.0
        } else {
            100.0 * (self.predicted as f64 - self.predicted_measured as f64)
                / self.predicted_measured as f64
        }
    }
}
