//! Differential property wall for the host execution backends: every
//! backend must be bit-identical to the `Scalar` reference interpreter on
//! random workloads — same GM bytes, same hardware counters, same trace
//! makespans, same scratchpad peaks. Backends are a host-speed knob only;
//! any simulated divergence is a bug.

use dv_core::{ForwardImpl, MergeImpl, PoolingEngine};
use dv_fp16::F16;
use dv_sim::{Backend, Chip, CostModel, HwCounters, IssueModel, TraceConfig};
use dv_tensor::{Nc1hwc0, PoolParams};
use proptest::prelude::*;

fn engine(issue: IssueModel, backend: Backend) -> PoolingEngine {
    engine_on(2, issue, backend)
}

fn engine_on(cores: usize, issue: IssueModel, backend: Backend) -> PoolingEngine {
    let mut cost = CostModel::ascend910_like().with_backend(backend);
    cost.issue_model = issue;
    PoolingEngine::new(Chip::new(cores, cost)).with_trace(TraceConfig::ON)
}

fn geometry() -> impl Strategy<Value = (PoolParams, usize, usize)> {
    (1usize..=3, 1usize..=3, 1usize..=3, 1usize..=3).prop_flat_map(|(kh, kw, sh, sw)| {
        (
            Just(PoolParams::new((kh, kw), (sh, sw))),
            kh..kh + 12,
            kw..kw + 12,
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

/// The simulated observables of one run, every one of which must be
/// backend-invariant.
#[derive(Debug, PartialEq)]
struct Observables {
    out: Vec<F16>,
    per_core: Vec<HwCounters>,
    total: HwCounters,
    cycles: u64,
    makespans: Vec<u64>,
    peaks: dv_sim::BufferPeaks,
}

fn observe(out: &Nc1hwc0, run: &dv_core::PoolRun) -> Observables {
    Observables {
        out: out.data().to_vec(),
        per_core: run.per_core.clone(),
        total: run.total.clone(),
        cycles: run.cycles,
        makespans: run
            .traces
            .iter()
            .map(|t| {
                t.events
                    .iter()
                    .map(|e| e.start + e.cycles)
                    .max()
                    .unwrap_or(0)
            })
            .collect(),
        peaks: run.peaks,
    }
}

const ISSUE_MODELS: [IssueModel; 2] = [IssueModel::SingleIssue, IssueModel::DualPipe];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Max pooling, forward: all backends agree with `Scalar` under both
    /// issue models, for both forward lowerings.
    #[test]
    fn backend_is_bit_identical_max_forward(
        (params, ih, iw) in geometry(), c1 in 1usize..=2, seed in any::<u64>()
    ) {
        let x = input(c1, ih, iw, seed);
        for issue in ISSUE_MODELS {
            for impl_ in [ForwardImpl::Standard, ForwardImpl::Im2col] {
                let (out, run) = engine(issue, Backend::Scalar)
                    .maxpool_forward(&x, params, impl_)
                    .unwrap();
                let want = observe(&out, &run);
                for backend in [Backend::Sliced, Backend::Threaded] {
                    let (out, run) = engine(issue, backend)
                        .maxpool_forward(&x, params, impl_)
                        .unwrap();
                    prop_assert_eq!(
                        &observe(&out, &run), &want,
                        "{:?}/{:?}/{:?} diverged from Scalar", backend, issue, impl_
                    );
                }
            }
        }
    }

    /// Max pooling, backward: both merge strategies, both issue models.
    #[test]
    fn backend_is_bit_identical_max_backward(
        (params, ih, iw) in geometry(), seed in any::<u64>()
    ) {
        let x = input(1, ih, iw, seed);
        let mask = dv_tensor::reference::maxpool_argmax_mask(&x, &params).unwrap();
        let (oh, ow) = params.out_dims(ih, iw).unwrap();
        let mut s = seed ^ 0xF00D;
        let grads = Nc1hwc0::from_fn(1, 1, oh, ow, |_, _, _, _, _| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(7);
            F16::from_f32(((s >> 41) % 8) as f32)
        });
        for issue in ISSUE_MODELS {
            for merge in [MergeImpl::VAdd, MergeImpl::Col2Im] {
                let (dx, run) = engine(issue, Backend::Scalar)
                    .maxpool_backward(&mask, &grads, params, ih, iw, merge)
                    .unwrap();
                let want = observe(&dx, &run);
                for backend in [Backend::Sliced, Backend::Threaded] {
                    let (dx, run) = engine(issue, backend)
                        .maxpool_backward(&mask, &grads, params, ih, iw, merge)
                        .unwrap();
                    prop_assert_eq!(
                        &observe(&dx, &run), &want,
                        "{:?}/{:?}/{:?} diverged from Scalar", backend, issue, merge
                    );
                }
            }
        }
    }

    /// Average pooling, forward and backward (exercises the cube matmul
    /// and L0C drain paths too).
    #[test]
    fn backend_is_bit_identical_avg(
        (params, ih, iw) in geometry(), seed in any::<u64>()
    ) {
        let x = input(1, ih, iw, seed);
        let (oh, ow) = params.out_dims(ih, iw).unwrap();
        let mut s = seed ^ 0xCAFE;
        let grads = Nc1hwc0::from_fn(1, 1, oh, ow, |_, _, _, _, _| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(3);
            F16::from_f32(((s >> 43) % 8) as f32)
        });
        for issue in ISSUE_MODELS {
            let (out, run) = engine(issue, Backend::Scalar)
                .avgpool_forward(&x, params, ForwardImpl::Im2col)
                .unwrap();
            let want_fwd = observe(&out, &run);
            let (dx, run) = engine(issue, Backend::Scalar)
                .avgpool_backward(&grads, params, ih, iw, MergeImpl::Col2Im)
                .unwrap();
            let want_bwd = observe(&dx, &run);
            for backend in [Backend::Sliced, Backend::Threaded] {
                let (out, run) = engine(issue, backend)
                    .avgpool_forward(&x, params, ForwardImpl::Im2col)
                    .unwrap();
                prop_assert_eq!(
                    &observe(&out, &run), &want_fwd,
                    "avg fwd {:?}/{:?} diverged from Scalar", backend, issue
                );
                let (dx, run) = engine(issue, backend)
                    .avgpool_backward(&grads, params, ih, iw, MergeImpl::Col2Im)
                    .unwrap();
                prop_assert_eq!(
                    &observe(&dx, &run), &want_bwd,
                    "avg bwd {:?}/{:?} diverged from Scalar", backend, issue
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// An 8-core chip on 9–11 channel planes: every simulated core runs
    /// at least one program and core 0 more than one, so `Sliced` walks
    /// eight simulated cores through one reused scratchpad set (core 0
    /// re-reading GM through its own pages) and `Threaded` maps several
    /// simulated cores onto each host thread wherever the host has fewer
    /// than eight CPUs. Every op still matches `Scalar` exactly.
    #[test]
    fn backend_is_bit_identical_on_eight_cores(
        (params, ih, iw) in geometry(), c1 in 9usize..=11, seed in any::<u64>()
    ) {
        let x = input(c1, ih, iw, seed);
        let mask = dv_tensor::reference::maxpool_argmax_mask(&x, &params).unwrap();
        let (oh, ow) = params.out_dims(ih, iw).unwrap();
        let mut s = seed ^ 0xBEEF;
        let grads = Nc1hwc0::from_fn(1, c1, oh, ow, |_, _, _, _, _| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(5);
            F16::from_f32(((s >> 42) % 8) as f32)
        });
        type Op = fn(&PoolingEngine, &Nc1hwc0, &dv_tensor::PatchTensor, &Nc1hwc0, PoolParams)
            -> Observables;
        let ops: [(&str, Op); 4] = [
            ("max fwd", |e, x, _, _, p| {
                let (out, run) = e.maxpool_forward(x, p, ForwardImpl::Im2col).unwrap();
                observe(&out, &run)
            }),
            ("max bwd", |e, x, m, g, p| {
                let (dx, run) = e
                    .maxpool_backward(m, g, p, x.h, x.w, MergeImpl::Col2Im)
                    .unwrap();
                observe(&dx, &run)
            }),
            ("avg fwd", |e, x, _, _, p| {
                let (out, run) = e.avgpool_forward(x, p, ForwardImpl::Im2col).unwrap();
                observe(&out, &run)
            }),
            ("avg bwd", |e, x, _, g, p| {
                let (dx, run) = e
                    .avgpool_backward(g, p, x.h, x.w, MergeImpl::Col2Im)
                    .unwrap();
                observe(&dx, &run)
            }),
        ];
        for (name, op) in ops {
            let want = op(&engine_on(8, IssueModel::DualPipe, Backend::Scalar), &x, &mask, &grads, params);
            prop_assert_eq!(want.per_core.len(), 8, "{}: all eight cores run", name);
            for backend in [Backend::Sliced, Backend::Threaded] {
                let got = op(&engine_on(8, IssueModel::DualPipe, backend), &x, &mask, &grads, params);
                prop_assert_eq!(&got, &want, "{} on {:?} diverged from Scalar", name, backend);
            }
        }
    }
}
