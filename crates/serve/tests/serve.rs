//! The job front-end is a *transport*, not a semantic layer: every
//! result it hands back must be bit-identical to calling the engine
//! directly with the same spec, regardless of which worker, in which
//! order, under which backend the job ran.

use dv_core::{ForwardImpl, MergeImpl, PoolingEngine};
use dv_fp16::F16;
use dv_serve::{run_job, JobOp, JobSpec, ServeError, Server};
use dv_sim::{Backend, Chip, CostModel};
use dv_tensor::{Nc1hwc0, PoolParams};

fn input(n: usize, c1: usize, h: usize, w: usize, seed: u32) -> Nc1hwc0 {
    let mut state = seed.wrapping_mul(0x9E37_79B9).wrapping_add(1);
    Nc1hwc0::from_fn(n, c1, h, w, |_, _, _, _, _| {
        state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        F16::from_f32(((state >> 16) % 128) as f32 * 0.25 - 16.0)
    })
}

fn engine(cores: usize, backend: Backend) -> PoolingEngine {
    PoolingEngine::new(Chip::new(cores, CostModel::ascend910_like()).with_backend(backend))
}

#[test]
fn queued_jobs_match_direct_engine_runs_on_every_backend() {
    let server = Server::new(3);
    let x = input(1, 2, 14, 14, 11);
    let handles: Vec<_> = Backend::ALL
        .iter()
        .map(|&b| {
            let spec = JobSpec::new(
                x.clone(),
                PoolParams::K3S2,
                JobOp::MaxForward(ForwardImpl::Im2col),
            )
            .with_backend(b)
            .with_cores(2);
            (b, server.submit(spec))
        })
        .collect();
    let (reference, ref_run) = engine(2, Backend::Scalar)
        .maxpool_forward(&x, PoolParams::K3S2, ForwardImpl::Im2col)
        .unwrap();
    for (b, h) in handles {
        let r = h.wait().unwrap_or_else(|e| panic!("{b} job failed: {e}"));
        assert_eq!(r.output.data(), reference.data(), "{b}: output diverged");
        assert_eq!(r.per_core, ref_run.per_core, "{b}: counters diverged");
        assert_eq!(r.total, ref_run.total, "{b}: totals diverged");
        assert_eq!(r.cycles, ref_run.cycles, "{b}: cycles diverged");
        assert!(r.traces.is_empty(), "{b}: untraced job returned traces");
        assert!(r.mask.is_none());
    }
}

#[test]
fn forward_argmax_then_backward_round_trips_through_the_queue() {
    let server = Server::new(2);
    let x = input(1, 1, 12, 12, 23);
    let fwd = server
        .submit(
            JobSpec::new(
                x.clone(),
                PoolParams::K3S2,
                JobOp::MaxForwardArgmax(ForwardImpl::Im2col),
            )
            .with_trace(true),
        )
        .wait()
        .expect("forward job");
    assert!(!fwd.traces.is_empty(), "traced job returned no traces");
    let mask = fwd.mask.expect("argmax job returns the mask");
    let gradients = input(1, 1, fwd.output.h, fwd.output.w, 31);

    let bwd = server
        .submit(JobSpec::new(
            x.clone(),
            PoolParams::K3S2,
            JobOp::MaxBackward {
                merge: MergeImpl::Col2Im,
                mask: mask.clone(),
                gradients: gradients.clone(),
            },
        ))
        .wait()
        .expect("backward job");

    let (dx, run) = engine(2, Backend::default())
        .maxpool_backward(
            &mask,
            &gradients,
            PoolParams::K3S2,
            x.h,
            x.w,
            MergeImpl::Col2Im,
        )
        .unwrap();
    assert_eq!(bwd.output.data(), dx.data());
    assert_eq!(bwd.total, run.total);
    assert_eq!(bwd.cycles, run.cycles);
}

#[test]
fn many_jobs_complete_out_of_order_with_correct_ids() {
    let server = Server::new(4);
    // Mixed sizes so completion order scrambles relative to submit order.
    let specs: Vec<JobSpec> = (0..8)
        .map(|i| {
            let h = 6 + 4 * (i % 3);
            JobSpec::new(
                input(1, 1, h, h, 41 + i as u32),
                PoolParams::K2S2,
                JobOp::AvgForward(ForwardImpl::Im2col),
            )
            .with_cores(1 + i % 2)
        })
        .collect();
    let handles: Vec<_> = specs.iter().map(|s| server.submit(s.clone())).collect();
    let ids: Vec<u64> = handles.iter().map(|h| h.id()).collect();
    assert_eq!(ids.len(), 8);
    assert!(
        ids.windows(2).all(|w| w[0] < w[1]),
        "ids must be unique and ordered"
    );
    for (handle, spec) in handles.into_iter().zip(&specs) {
        let expected_id = handle.id();
        let r = handle.wait().expect("job");
        assert_eq!(r.job_id, expected_id);
        let direct = run_job(expected_id, spec).expect("direct run");
        assert_eq!(r.output.data(), direct.output.data());
        assert_eq!(r.total, direct.total);
        assert_eq!(r.cycles, direct.cycles);
    }
}

#[test]
fn sharded_backward_jobs_match_direct_engine_runs_bit_for_bit() {
    use dv_tensor::reference;
    let server = Server::new(2);
    // One plane on an 8-core chip: only sub-plane (halo-merge) sharding
    // can use the extra cores, so a cycle win proves the path engaged.
    let x = input(1, 1, 64, 64, 77);
    let params = PoolParams::K3S2;
    let mask = reference::maxpool_argmax_mask(&x, &params).unwrap();
    let (oh, ow) = params.out_dims(x.h, x.w).unwrap();
    let gradients = input(1, 1, oh, ow, 78);
    let op = JobOp::MaxBackward {
        merge: MergeImpl::Col2Im,
        mask: mask.clone(),
        gradients: gradients.clone(),
    };
    let sharded = server
        .submit(
            JobSpec::new(x.clone(), params, op.clone())
                .with_cores(8)
                .with_sharding(true),
        )
        .wait()
        .expect("sharded backward job");
    // Bit-identical to the unsharded engine run, and to the reference.
    let (dx, _) = engine(8, Backend::default())
        .maxpool_backward(&mask, &gradients, params, x.h, x.w, MergeImpl::Col2Im)
        .unwrap();
    let want = reference::maxpool_backward(&mask, &gradients, &params, x.h, x.w).unwrap();
    assert_eq!(sharded.output.data(), dx.data(), "sharding changed bits");
    assert_eq!(
        sharded.output.data(),
        want.data(),
        "diverged from reference"
    );
    // Matches the direct (queue-bypassing) run of the same spec exactly.
    let direct = run_job(
        0,
        &JobSpec::new(x.clone(), params, op)
            .with_cores(8)
            .with_sharding(true),
    )
    .expect("direct sharded run");
    assert_eq!(sharded.output.data(), direct.output.data());
    assert_eq!(sharded.total, direct.total);
    assert_eq!(sharded.cycles, direct.cycles);
    // The sub-plane plan engaged: strictly fewer cycles than the
    // per-plane schedule (which can only use one core here), with no
    // decline booked.
    let unsharded = run_job(
        0,
        &JobSpec::new(
            x.clone(),
            params,
            JobOp::MaxBackward {
                merge: MergeImpl::Col2Im,
                mask: mask.clone(),
                gradients: gradients.clone(),
            },
        )
        .with_cores(8),
    )
    .expect("unsharded run");
    assert!(
        sharded.cycles < unsharded.cycles,
        "sub-plane backward shards must win on one plane x 8 cores \
         ({} vs {})",
        sharded.cycles,
        unsharded.cycles
    );
    assert_eq!(sharded.total.tuner_fallbacks, 0, "no decline on this shape");

    // AvgPool backward through the same sharded path.
    let avg = server
        .submit(
            JobSpec::new(
                x.clone(),
                params,
                JobOp::AvgBackward {
                    merge: MergeImpl::Col2Im,
                    gradients: gradients.clone(),
                },
            )
            .with_cores(8)
            .with_sharding(true),
        )
        .wait()
        .expect("sharded avg backward job");
    let want = reference::avgpool_backward(&gradients, &params, x.h, x.w).unwrap();
    assert_eq!(
        avg.output.data(),
        want.data(),
        "avg diverged from reference"
    );
}

#[test]
fn typed_backward_errors_propagate_through_wait() {
    use dv_core::RunError;
    let server = Server::new(1);
    // A mask whose patch grid cannot come from this input shape: the
    // backward builder rejects it with a typed shape error, which must
    // surface through the handle — not kill the worker, not come back
    // as Cancelled.
    let x = input(1, 1, 12, 12, 91);
    let mask = dv_tensor::reference::maxpool_argmax_mask(&x, &PoolParams::K3S2).unwrap();
    let gradients = input(1, 1, 5, 5, 92);
    let bad = JobSpec::new(
        input(1, 1, 30, 30, 93), // wrong input shape for this mask
        PoolParams::K3S2,
        JobOp::MaxBackward {
            merge: MergeImpl::Col2Im,
            mask,
            gradients,
        },
    )
    .with_cores(8)
    .with_sharding(true);
    match server.submit(bad).wait() {
        Err(ServeError::Run(RunError::Lower(e))) => {
            assert!(!e.to_string().is_empty());
        }
        other => panic!("expected a typed lowering error, got {other:?}"),
    }
    // The worker survived and still serves sharded jobs.
    let ok = JobSpec::new(
        input(1, 1, 16, 16, 94),
        PoolParams::K3S2,
        JobOp::MaxForward(ForwardImpl::Im2col),
    )
    .with_sharding(true);
    assert!(server.submit(ok).wait().is_ok());
}

#[test]
fn engine_errors_travel_back_through_the_handle() {
    let server = Server::new(1);
    // Kernel larger than the input: lowering must reject it, and the
    // rejection must surface through the handle rather than killing the
    // worker.
    let bad = JobSpec::new(
        input(1, 1, 2, 2, 7),
        PoolParams::K3S2,
        JobOp::MaxForward(ForwardImpl::Im2col),
    );
    match server.submit(bad).wait() {
        Err(ServeError::Run(_)) => {}
        other => panic!("expected a run error, got {other:?}"),
    }
    // The worker survived the failed job and still serves new ones.
    let ok = JobSpec::new(
        input(1, 1, 8, 8, 7),
        PoolParams::K3S2,
        JobOp::MaxForward(ForwardImpl::Standard),
    );
    assert!(server.submit(ok).wait().is_ok());
}

/// A backward job whose gradients carry other planes than its mask is
/// rejected with a typed error before anything is allocated, so the only
/// worker survives to run the next job.
#[test]
fn inconsistent_backward_job_fails_typed_and_keeps_the_worker() {
    use dv_core::RunError;
    let server = Server::new(1);
    let x = input(1, 2, 4, 4, 95);
    let params = PoolParams::new((2, 2), (2, 2));
    let mask = dv_tensor::reference::maxpool_argmax_mask(&x, &params).unwrap();
    let backward = |gradients| {
        JobSpec::new(
            x.clone(),
            params,
            JobOp::MaxBackward {
                merge: MergeImpl::Col2Im,
                mask: mask.clone(),
                gradients,
            },
        )
        .with_cores(1)
    };
    match server.submit(backward(input(1, 100, 2, 2, 96))).wait() {
        Err(ServeError::Run(RunError::Lower(_))) => {}
        other => panic!("expected a typed lowering error, got {other:?}"),
    }
    let good = server.submit(backward(input(1, 2, 2, 2, 97))).wait();
    assert!(good.is_ok(), "the worker must survive: {:?}", good.err());
}

#[test]
fn shutdown_drains_queued_jobs() {
    let server = Server::new(1);
    let handles: Vec<_> = (0..4)
        .map(|i| {
            server.submit(JobSpec::new(
                input(1, 1, 10, 10, 50 + i),
                PoolParams::K3S2,
                JobOp::MaxForward(ForwardImpl::Im2col),
            ))
        })
        .collect();
    server.shutdown();
    for h in handles {
        assert!(h.wait().is_ok(), "queued job dropped during shutdown");
    }
}

#[test]
fn poll_is_nonblocking_and_resolves_once() {
    let server = Server::new(1);
    let h = server.submit(JobSpec::new(
        input(1, 1, 20, 20, 61),
        PoolParams::K3S2,
        JobOp::MaxForward(ForwardImpl::Im2col),
    ));
    // Spin until the result lands; each poll returns immediately.
    let result = loop {
        if let Some(r) = h.poll() {
            break r;
        }
        std::thread::yield_now();
    };
    assert!(result.is_ok());
}
