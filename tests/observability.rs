//! End-to-end checks of the instruction-level observability layer.
//!
//! The invariant the trace recorder promises: the hardware counters and
//! the trace describe the *same* execution, so the sum of per-instruction
//! trace durations is exactly `HwCounters::busy_cycles()` — no double
//! charging, no missing instructions — and, under the legacy single-issue
//! model, that sum *is* the wall clock. Verified here on a hand-built
//! Fig. 6-style Col2Im program and on full pooling engine runs, plus a
//! round-trip of the Chrome trace export through the JSON parser and
//! determinism checks across reruns, chip clones, and both issue models.

use davinci_pooling::prelude::*;
use davinci_pooling::sim::{
    chrome_trace_json_with_lifetimes, pipe_of, AiCore, Breakdown, Chip, TraceConfig, Unit,
};
use davinci_pooling::tensor::reference;
use dv_isa::{Addr, BufferId, Col2Im, DataMove, Im2ColGeometry, Instr, Program};

const C0: usize = 16;

fn det(seed: usize, i: usize) -> F16 {
    F16::from_f32(((seed * 31 + i * 7) % 13) as f32 * 0.25 - 1.5)
}

/// Build the Fig. 6 Col2Im program: zero the output tile, DMA the patch
/// fractal into the UB, scatter-sum it back with Col2Im.
fn col2im_program() -> Program {
    let params = PoolParams::new((2, 2), (2, 2));
    let geom = Im2ColGeometry::new(8, 8, 1, params).unwrap();
    let mut p = Program::new();
    // Output tile: 8*8*C0 f16 elements at UB+8192, zero-initialised.
    dv_akg::zero_region(&mut p, Addr::ub(8192), 8 * 8 * C0).unwrap();
    // Fractal: GM -> UB.
    p.push(Instr::Move(DataMove::new(
        Addr::gm(0),
        Addr::ub(0),
        16 * C0 * 2,
    )))
    .unwrap();
    // Scatter-sum (Fig. 6, Section III-D).
    p.push(Instr::Col2Im(Col2Im {
        geom,
        src: Addr::ub(0),
        dst: Addr::ub(8192),
        first_patch: 0,
        k_off: (0, 0),
        c1: 0,
        repeat: 1,
    }))
    .unwrap();
    p
}

/// One 16-patch fractal in GM: patch p's row holds the value p+1.
fn col2im_fractal() -> Vec<F16> {
    let mut frac = Vec::with_capacity(16 * C0);
    for p in 0..16 {
        for _ in 0..C0 {
            frac.push(F16::from_f32((p + 1) as f32));
        }
    }
    frac
}

fn check_col2im_result(core: &AiCore) {
    // Functional result: patch p landed at (2*(p/4), 2*(p%4)).
    for patch in 0..16 {
        let (h, w) = (2 * (patch / 4), 2 * (patch % 4));
        let off = 8192 + (h * 8 + w) * C0 * 2;
        assert_eq!(
            core.buffers().read_f16(BufferId::Ub, off).unwrap().to_f32(),
            (patch + 1) as f32
        );
    }
}

/// The single-pipe invariant: with the legacy model selected the
/// scheduler reproduces the PR 1 serial timing exactly — the counters
/// equal the per-instruction trace sums, events are contiguous, and no
/// stall cycles appear.
#[test]
fn counters_equal_trace_sums_for_col2im_program() {
    let mut core = AiCore::new(CostModel::single_issue(), 1 << 20);
    core.set_trace(TraceConfig::ON);
    core.load_gm(0, &col2im_fractal()).unwrap();
    let p = col2im_program();
    core.run(&p).unwrap();
    check_col2im_result(&core);

    // Observability result: one event per executed instruction, durations
    // summing to the counter total, agreeing per unit and per mnemonic.
    let trace = core.trace();
    assert_eq!(trace.events.len(), p.len());
    assert_eq!(trace.dropped, 0);
    let manual_sum: u64 = trace.events.iter().map(|e| e.cycles).sum();
    assert_eq!(manual_sum, core.counters().cycles);
    assert_eq!(trace.total_cycles(), core.counters().cycles);
    assert_eq!(core.counters().busy_cycles(), core.counters().cycles);
    assert_eq!(core.counters().stall_cycles, 0);
    Breakdown::from_traces([trace])
        .verify_against(core.counters())
        .expect("breakdown agrees with counters");

    // Events are contiguous on the single-issue core: each instruction
    // starts where the previous one ended, with no stalls booked.
    let mut cursor = 0;
    for e in &trace.events {
        assert_eq!(e.start, cursor, "{} issued at the wrong cycle", e.mnemonic);
        assert_eq!(e.stall, 0);
        cursor += e.cycles;
    }
    let col2im = trace.events.last().unwrap();
    assert_eq!(col2im.mnemonic, "col2im");
    assert_eq!(col2im.src, Some(BufferId::Ub));
    assert_eq!(col2im.dst, Some(BufferId::Ub));
}

/// The same program under the dual-pipe model: bit-identical results, a
/// wall clock no larger than the serial sum, and trace durations that
/// still sum to the unit-busy total. The vdup zero-fill (Vector) and the
/// GM->UB fractal load (MTE) touch disjoint UB ranges, so the two pipes
/// overlap them and the makespan strictly beats the serial sum.
#[test]
fn dual_pipe_overlaps_col2im_program() {
    let mut core = AiCore::new(CostModel::ascend910_like(), 1 << 20);
    core.set_trace(TraceConfig::ON);
    core.load_gm(0, &col2im_fractal()).unwrap();
    let p = col2im_program();
    core.run(&p).unwrap();
    check_col2im_result(&core);

    let trace = core.trace();
    assert_eq!(trace.events.len(), p.len());
    assert_eq!(trace.total_cycles(), core.counters().busy_cycles());
    assert!(
        core.counters().cycles < core.counters().busy_cycles(),
        "independent MTE and Vector work must overlap"
    );
    Breakdown::from_traces([trace])
        .verify_against(core.counters())
        .expect("breakdown agrees with counters");

    // The fractal load issues at cycle 0 in parallel with the zero-fill,
    // and the col2im that consumes both records its RAW producer.
    let mv = trace
        .events
        .iter()
        .find(|e| e.mnemonic == "mte_move")
        .unwrap();
    assert_eq!(mv.start, 0, "load overlaps the zero-fill");
    let col2im = trace.events.last().unwrap();
    assert_eq!(col2im.mnemonic, "col2im");
    assert!(
        col2im.dep.is_some(),
        "col2im depends on in-flight producers"
    );
}

/// The invariant holds for a full Fig. 7-style engine run across every
/// core of the chip, for both pooling implementations and both issue
/// models: trace durations sum to the unit-busy total (which is the wall
/// clock itself under single-issue).
#[test]
fn counters_equal_trace_sums_for_engine_runs() {
    let input =
        Nchw::from_fn(1, 64, 35, 35, |_, c, h, w| det(5, c * 1225 + h * 35 + w)).to_nc1hwc0();
    for cost in [CostModel::ascend910_like(), CostModel::single_issue()] {
        let engine = PoolingEngine::new(Chip::new(32, cost)).with_trace(TraceConfig::ON);
        for impl_ in [ForwardImpl::Standard, ForwardImpl::Im2col] {
            let (_, run) = engine
                .maxpool_forward(&input, PoolParams::K3S2, impl_)
                .expect("forward");
            assert!(!run.traces.is_empty(), "{impl_:?}: tracing was enabled");
            let sum: u64 = run
                .traces
                .iter()
                .flat_map(|t| t.events.iter())
                .map(|e| e.cycles)
                .sum();
            assert_eq!(
                sum,
                run.total.busy_cycles(),
                "{impl_:?}/{:?}: trace durations must sum to the busy total",
                cost.issue_model
            );
            run.breakdown()
                .verify_against(&run.total)
                .expect("breakdown agrees with merged counters");
        }
    }
}

/// `maxpool_backward` with tracing produces Chrome trace-event JSON that
/// parses and carries the structure Perfetto needs: process/thread
/// metadata and complete (`X`) events with timestamps and durations.
#[test]
fn maxpool_backward_chrome_trace_parses() {
    let input =
        Nchw::from_fn(1, 32, 17, 17, |_, c, h, w| det(9, c * 289 + h * 17 + w)).to_nc1hwc0();
    let params = PoolParams::K3S2;
    let engine = PoolingEngine::ascend910().with_trace(TraceConfig::ON);
    let (pooled, mask, _) = engine
        .maxpool_forward_with_argmax(&input, params, ForwardImpl::Im2col)
        .expect("forward");
    let grads = Nc1hwc0::from_fn(1, input.c1, pooled.h, pooled.w, |_, c1, h, w, c0| {
        F16::from_f32(((c1 + h * 2 + w * 3 + c0) % 5) as f32)
    });
    let (dx, run) = engine
        .maxpool_backward(&mask, &grads, params, input.h, input.w, MergeImpl::Col2Im)
        .expect("backward");
    let want = reference::maxpool_backward(&mask, &grads, &params, input.h, input.w).unwrap();
    assert_eq!(dx.data(), want.data(), "tracing must not change results");

    let json = run.chrome_trace_json();
    assert_eq!(
        json,
        chrome_trace_json_with_lifetimes(&run.traces, &run.lifetimes)
    );
    let doc = dv_bench::json::parse(&json).expect("chrome trace JSON parses");
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .expect("traceEvents array");
    assert!(!events.is_empty());

    let mut complete = 0u64;
    let mut col2im_events = 0u64;
    let mut flow_starts = 0u64;
    let mut flow_ends = 0u64;
    let mut range_begins = 0u64;
    let mut range_ends = 0u64;
    let mut max_version = 0u64;
    let mut saw_process_meta = false;
    for e in events {
        match e.get("ph").and_then(|v| v.as_str()) {
            Some("X") => {
                complete += 1;
                assert!(e.get("ts").and_then(|v| v.as_u64()).is_some());
                assert!(e.get("dur").and_then(|v| v.as_u64()).is_some());
                assert!(e.get("pid").and_then(|v| v.as_u64()).is_some());
                assert!(e.get("tid").and_then(|v| v.as_u64()).is_some());
                if e.get("name").and_then(|v| v.as_str()) == Some("col2im") {
                    col2im_events += 1;
                }
            }
            Some("M") => {
                if e.get("name").and_then(|v| v.as_str()) == Some("process_name") {
                    saw_process_meta = true;
                }
            }
            // Buffer live ranges: async begin/end pairs on the
            // per-buffer thread rows, from the lifetime analysis.
            Some("b") | Some("e") => {
                assert_eq!(e.get("cat").and_then(|v| v.as_str()), Some("live-range"));
                assert!(e.get("id").and_then(|v| v.as_u64()).is_some());
                assert!(e.get("ts").and_then(|v| v.as_u64()).is_some());
                if e.get("ph").and_then(|v| v.as_str()) == Some("b") {
                    range_begins += 1;
                    let version = e
                        .get("args")
                        .and_then(|a| a.get("version"))
                        .and_then(|v| v.as_u64())
                        .expect("live-range begin carries its version");
                    max_version = max_version.max(version);
                } else {
                    range_ends += 1;
                }
            }
            // Flow arrows: producer retirement ("s") paired with consumer
            // issue ("f") by id — the Fig. 4 pipeline handoffs.
            Some("s") | Some("f") => {
                assert_eq!(e.get("cat").and_then(|v| v.as_str()), Some("flow"));
                assert!(e.get("id").and_then(|v| v.as_u64()).is_some());
                assert!(e.get("ts").and_then(|v| v.as_u64()).is_some());
                if e.get("ph").and_then(|v| v.as_str()) == Some("s") {
                    flow_starts += 1;
                } else {
                    flow_ends += 1;
                }
            }
            ph => panic!("unexpected event phase {ph:?}"),
        }
    }
    let traced: u64 = run.traces.iter().map(|t| t.events.len() as u64).sum();
    assert_eq!(complete, traced, "one X event per traced instruction");
    assert!(col2im_events > 0, "backward pass used Col2Im");
    assert!(saw_process_meta, "per-core process_name metadata present");
    assert!(
        flow_starts > 0,
        "dual-pipe run must carry cross-unit flow arrows"
    );
    assert_eq!(flow_starts, flow_ends, "every arrow has both endpoints");
    let ranges: u64 = run.lifetimes.iter().map(|l| l.ranges.len() as u64).sum();
    assert!(ranges > 0, "traced run must record buffer live ranges");
    assert_eq!(range_begins, ranges, "one async begin per live range");
    assert_eq!(range_begins, range_ends, "every live range closes");
    let recorded = run
        .lifetimes
        .iter()
        .flat_map(|l| &l.ranges)
        .map(|r| r.version)
        .max();
    assert_eq!(
        Some(max_version),
        recorded,
        "the exported versions must match the recorded ones"
    );

    // The rendered breakdown is the human-readable view of the same data.
    let report = run.breakdown().render();
    assert!(report.contains("col2im"));
    assert!(report.contains("stall%"));
    assert!(report.contains(&format!(
        "total cycles: {} (stalled: {})",
        run.total.busy_cycles(),
        run.total.stall_cycles
    )));
}

/// The dual-pipe stall accounting never double-books: each instruction's
/// hazard wait lands on exactly one pipe, so per core and per pipe
/// `busy + stall <= makespan`, the two pipe-stall counters sum to
/// `stall_cycles`, and that total equals the sum of the per-event stall
/// tags in the trace.
#[test]
fn pipe_stall_accounting_never_double_books() {
    // A multi-band double-buffered run on one core: plenty of cross-pipe
    // hazards, and the makespan bound is per-core exact.
    let input =
        Nchw::from_fn(1, 16, 96, 96, |_, c, h, w| det(13, c * 9216 + h * 96 + w)).to_nc1hwc0();
    let engine =
        PoolingEngine::new(Chip::new(1, CostModel::ascend910_like())).with_trace(TraceConfig::ON);
    let pipe_units: [&[Unit]; 2] = [&[Unit::Mte, Unit::Scu], &[Unit::Vector, Unit::Cube]];
    for impl_ in [ForwardImpl::Standard, ForwardImpl::Im2col] {
        let (_, run) = engine
            .maxpool_forward(&input, PoolParams::K3S2, impl_)
            .expect("forward");
        assert!(
            run.total.stall_cycles > 0,
            "{impl_:?}: a banded dual-pipe run hits hazards"
        );
        for (i, c) in run.per_core.iter().enumerate() {
            let makespan = run.core_cycles[i];
            for (pipe, units) in pipe_units.iter().enumerate() {
                let busy: u64 = units.iter().map(|u| c.cycles_of(*u)).sum();
                assert!(
                    pipe_units[pipe].iter().all(|u| pipe_of(*u) == pipe),
                    "pipe map drifted"
                );
                assert!(
                    busy + c.pipe_stalls[pipe] <= makespan,
                    "{impl_:?} core {i} pipe {pipe}: busy {busy} + stall {} \
                     exceeds the makespan {makespan}",
                    c.pipe_stalls[pipe]
                );
            }
            assert_eq!(
                c.pipe_stalls.iter().sum::<u64>(),
                c.stall_cycles,
                "{impl_:?} core {i}: per-pipe stalls must sum to the total"
            );
        }
        for t in &run.traces {
            let tags: u64 = t.events.iter().map(|e| e.stall).sum();
            assert_eq!(
                tags, run.per_core[t.core].stall_cycles,
                "{impl_:?} core {}: trace stall tags must sum to the counter",
                t.core
            );
        }
    }
}

/// Tracing must not perturb the simulation: identical cycle counts and
/// identical outputs with tracing on and off, and the capped config keeps
/// cycle totals exact while bounding memory.
#[test]
fn tracing_is_observationally_transparent() {
    let input =
        Nchw::from_fn(1, 16, 21, 21, |_, c, h, w| det(7, c * 441 + h * 21 + w)).to_nc1hwc0();
    let params = PoolParams::K3S2;

    let quiet = PoolingEngine::ascend910();
    let traced = PoolingEngine::ascend910().with_trace(TraceConfig::ON);
    let capped = PoolingEngine::ascend910().with_trace(TraceConfig::capped(4));

    let (out_q, run_q) = quiet
        .maxpool_forward(&input, params, ForwardImpl::Im2col)
        .unwrap();
    let (out_t, run_t) = traced
        .maxpool_forward(&input, params, ForwardImpl::Im2col)
        .unwrap();
    let (out_c, run_c) = capped
        .maxpool_forward(&input, params, ForwardImpl::Im2col)
        .unwrap();

    assert_eq!(out_q.data(), out_t.data());
    assert_eq!(out_q.data(), out_c.data());
    assert_eq!(run_q.total.cycles, run_t.total.cycles);
    assert_eq!(run_q.total.cycles, run_c.total.cycles);
    assert!(run_q.traces.is_empty(), "no traces kept when disabled");

    for t in &run_c.traces {
        assert!(t.events.len() <= 4, "cap respected");
        assert!(t.dropped > 0, "overflow recorded, not lost silently");
    }

    // Peaks are tracked regardless of tracing.
    assert_eq!(run_q.peaks, run_t.peaks);
    assert!(run_q.peaks.of(dv_isa::BufferId::Ub) > 0);
}

/// The simulator is deterministic in both issue models: running the same
/// workload twice — on the same engine, and on a `Chip` clone — yields
/// identical traces (starts, stalls, deps included), identical counters,
/// and identical stall totals.
#[test]
fn runs_are_deterministic_across_reruns_and_chip_clones() {
    let input =
        Nchw::from_fn(1, 32, 21, 21, |_, c, h, w| det(11, c * 441 + h * 21 + w)).to_nc1hwc0();
    let params = PoolParams::K3S2;

    for cost in [CostModel::ascend910_like(), CostModel::single_issue()] {
        let engine = PoolingEngine::new(Chip::new(4, cost)).with_trace(TraceConfig::ON);
        let cloned = PoolingEngine::new(engine.chip.clone()).with_trace(TraceConfig::ON);

        let (out_a, run_a) = engine
            .maxpool_forward(&input, params, ForwardImpl::Im2col)
            .unwrap();
        let (out_b, run_b) = engine
            .maxpool_forward(&input, params, ForwardImpl::Im2col)
            .unwrap();
        let (out_c, run_c) = cloned
            .maxpool_forward(&input, params, ForwardImpl::Im2col)
            .unwrap();

        for (label, out, run) in [("rerun", &out_b, &run_b), ("clone", &out_c, &run_c)] {
            let model = cost.issue_model;
            assert_eq!(out_a.data(), out.data(), "{model:?}/{label}: outputs");
            assert_eq!(run_a.total, run.total, "{model:?}/{label}: counters");
            assert_eq!(run_a.cycles, run.cycles, "{model:?}/{label}: cycles");
            assert_eq!(
                run_a.total.stall_cycles, run.total.stall_cycles,
                "{model:?}/{label}: stall cycles"
            );
            assert_eq!(
                run_a.traces.len(),
                run.traces.len(),
                "{model:?}/{label}: trace count"
            );
            for (ta, tb) in run_a.traces.iter().zip(&run.traces) {
                assert_eq!(ta.core, tb.core, "{model:?}/{label}: core ids");
                assert_eq!(ta.events, tb.events, "{model:?}/{label}: trace events");
            }
        }
    }
}
