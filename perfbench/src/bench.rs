//! Shared measurement machinery and the three closed-loop workloads
//! (`table1-fwd`, `train-step`, `model-seg`): one client runs the seed's
//! op list in whole passes until the run time is spent.

use crate::model::{self, SegCase};
use crate::pool::{self, PoolCase, SimStats};
use crate::spans::Tracer;
use crate::stats::{median, tail};
use crate::workloads::{op_list, Workload};
use dv_core::PoolingEngine;
use dv_sim::{Backend, MemoryModel};
use std::time::Instant;

/// What one run measured.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Errors and output mismatches; any makes the run fail.
    pub errors: Vec<String>,
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    pub fn error(&mut self, e: String) {
        self.failed += 1;
        self.errors.push(e);
    }
}

/// Run `setup` `n` times and keep the last result, with the median time.
/// Each earlier result is dropped before the next setup starts, so peak
/// memory holds one copy.
pub fn setup_median<T>(
    n: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..n {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one setup"), median(&times)))
}

/// Setups per run: `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Latencies and counts of a measured phase.
#[derive(Default)]
pub struct Phase {
    pub lat_ms: Vec<f64>,
    pub completed: u64,
    pub issues: u64,
    pub host_s: f64,
}

/// Record the end-to-end metrics of a measured phase; call it last, so
/// the heap peak covers the whole run.
pub fn end_to_end(r: &mut Report, p: &Phase, sim_cycles: u64, setup_s: f64) {
    let t = tail(&p.lat_ms);
    r.set("op_p50_ms", median(&p.lat_ms));
    r.set("ops_per_s", p.completed as f64 / p.host_s);
    r.set("sim_instr_per_s", p.issues as f64 / p.host_s);
    r.set("sim_cycles", sim_cycles as f64);
    r.set("peak_heap_mb", crate::heap::peak_mb());
    r.set("setup_s", setup_s);
    // The tail is printed, not gated: see perfbench/README.md.
    r.notes.push(format!(
        "op_tail_ms {:.3} at p{:.2} with {} of {} samples beyond it; fail_ratio {}/{}",
        t.value,
        t.pct,
        t.beyond,
        p.lat_ms.len(),
        r.failed,
        r.attempted,
    ));
}

/// Closed loop: run the op list in whole passes until `seconds` have
/// passed (at least one pass). `op(i)` returns the op's host time in ms
/// and its simulated issues, or an error.
fn closed_loop(
    r: &mut Report,
    n: usize,
    seconds: f64,
    mut op: impl FnMut(usize) -> Result<(f64, u64), String>,
) -> Phase {
    let mut p = Phase::default();
    let start = Instant::now();
    loop {
        for i in 0..n {
            r.attempted += 1;
            match op(i) {
                Ok((ms, issues)) => {
                    p.lat_ms.push(ms);
                    p.issues += issues;
                    p.completed += 1;
                }
                Err(e) => r.error(e),
            }
        }
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    p.host_s = start.elapsed().as_secs_f64();
    p
}

/// Per-layer metrics from a traced phase's spans. `issues` are the
/// simulated issues of the traced ops; `untraced_p50` is the engine's own
/// op p50 from the same run.
pub fn span_metrics(r: &mut Report, tr: &Tracer, issues: u64, untraced_p50: f64) {
    let t = tr.totals();
    let ns = |name| *t.get(name).unwrap_or(&0) as f64;
    let ops = tr.durations_ms("op");
    let n = ops.len().max(1) as f64;
    let (op, sim, lower, alt, sched) = (
        ns("op"),
        ns("sim"),
        ns("lower"),
        ns("lower.alt"),
        ns("schedule"),
    );
    r.set("sim.run_ms", sim / n / 1e6);
    r.set("sim.run_share", sim / op);
    r.set("sim.ns_per_issue", sim / issues.max(1) as f64);
    r.set("schedule.choose_us", sched / n / 1e3);
    r.set("lower.ms", lower / n / 1e6);
    r.set("lower.alt_ms", alt / n / 1e6);
    r.set("lower.share", (lower + alt) / op);
    r.set(
        "engine.other_ms",
        (op - sched - lower - alt - sim) / n / 1e6,
    );
    r.set("tensor.layout_ms", ns("tensor.layout") / n / 1e6);
    r.set("bench.trace_overhead", median(&ops) / untraced_p50);
    r.notes.push(format!(
        "traced ops {}: sim.run_share {:.4}, lower.share {:.4}",
        ops.len(),
        sim / op,
        (lower + alt) / op
    ));
}

/// The deterministic simulated statistics of one pass.
pub fn sim_metrics(r: &mut Report, s: &SimStats, lowered_issues: u64) {
    r.set("sim.gm_bytes", s.gm_bytes as f64);
    r.set("sim.stall_cycles", s.stall_cycles as f64);
    r.set("sim.contention_stalls", s.contention_stalls as f64);
    r.set("sim.l2_hits", s.l2_hits as f64);
    r.set("sim.l2_miss_stalls", s.l2_miss_stalls as f64);
    r.set("sim.core_imbalance", s.core_imbalance());
    r.set("sim.subplane_ops", s.subplane_ops as f64);
    r.set("sim.peak_ub_bytes", s.peak_ub as f64);
    r.set("sim.peak_l1_bytes", s.peak_l1 as f64);
    r.set("lower.issues", lowered_issues as f64);
    r.set("schedule.fallbacks", s.fallbacks as f64);
    r.set("schedule.mispredicted", s.mispredicted as f64);
    r.set("schedule.pred_err_pct", s.pred_err_pct());
}

/// Host time of `Chip::run` on the same programs under the threaded
/// backend over the sliced one.
#[derive(Default)]
pub struct BackendRatio {
    threaded_ns: u64,
    sliced_ns: u64,
}

impl BackendRatio {
    /// Run `programs` from `image0` under both backends; the simulated
    /// cycles must agree with `cycles`.
    pub fn add(
        &mut self,
        chip: &dv_sim::Chip,
        programs: &[dv_isa::Program],
        decls: Option<&[dv_sim::GmDeclaration]>,
        image0: &[u8],
        cycles: u64,
    ) -> Result<(), String> {
        for backend in [Backend::Sliced, Backend::Threaded] {
            let chip = chip.clone().with_backend(backend);
            let mut image = image0.to_vec();
            let t0 = Instant::now();
            let run = match decls {
                Some(d) => chip.run_declared(&mut image, programs, d),
                None => chip.run(&mut image, programs),
            }
            .map_err(|e| format!("backend rerun: {e}"))?;
            let ns = t0.elapsed().as_nanos() as u64;
            if run.cycles != cycles {
                return Err(format!(
                    "{backend:?} rerun took {} cycles, not {cycles}",
                    run.cycles
                ));
            }
            match backend {
                Backend::Threaded => self.threaded_ns += ns,
                _ => self.sliced_ns += ns,
            }
        }
        Ok(())
    }

    pub fn ratio(&self) -> f64 {
        self.threaded_ns as f64 / self.sliced_ns.max(1) as f64
    }
}

fn engine_for(w: Workload) -> PoolingEngine {
    match w {
        Workload::TrainStep => {
            PoolingEngine::new(dv_sim::Chip::ascend910().with_memory(MemoryModel::ascend910_l2()))
                .with_auto_tuning(true)
        }
        _ => PoolingEngine::ascend910(),
    }
}

/// A pooling workload after set-up: inputs, golden outputs, and the
/// engine's per-call cycles from the warm-up pass.
struct PoolBench {
    engine: PoolingEngine,
    cases: Vec<PoolCase>,
    cycles: Vec<Vec<u64>>,
}

fn pool_setup(w: Workload, seed: u64) -> Result<PoolBench, String> {
    let engine = engine_for(w);
    let cases = op_list(w, seed)
        .iter()
        .map(pool::materialize)
        .collect::<Result<Vec<_>, _>>()?;
    let mut cycles = Vec::new();
    for c in &cases {
        let o = pool::engine_call(&engine, c).map_err(|e| format!("{}: {e}", c.spec.label))?;
        pool::check(c, &o.out, o.mask.as_ref(), o.dx.as_ref())?;
        cycles.push(o.runs.iter().map(|r| r.cycles).collect());
    }
    Ok(PoolBench {
        engine,
        cases,
        cycles,
    })
}

impl PoolBench {
    fn op(&self, i: usize) -> Result<(f64, u64), String> {
        let c = &self.cases[i];
        let t0 = Instant::now();
        let o = pool::engine_call(&self.engine, c).map_err(|e| format!("{}: {e}", c.spec.label))?;
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        pool::check(c, &o.out, o.mask.as_ref(), o.dx.as_ref())?;
        let cycles: Vec<u64> = o.runs.iter().map(|r| r.cycles).collect();
        if cycles != self.cycles[i] {
            return Err(format!(
                "{}: cycles {cycles:?} changed between runs",
                c.spec.label
            ));
        }
        Ok((ms, o.issues()))
    }

    fn sim_cycles(&self) -> u64 {
        self.cycles.iter().flatten().sum()
    }
}

pub fn run_pool(w: Workload, seed: u64, seconds: f64, traced: bool) -> Result<Report, String> {
    let (b, setup_s) = setup_median(SETUPS, || pool_setup(w, seed))?;
    let mut r = Report::default();
    if !traced {
        let p = closed_loop(&mut r, b.cases.len(), seconds, |i| b.op(i));
        end_to_end(&mut r, &p, b.sim_cycles(), setup_s);
        return Ok(r);
    }
    let untraced = closed_loop(&mut r, b.cases.len(), seconds / 2.0, |i| b.op(i));
    let mut tr = Tracer::new();
    let mut stats = SimStats::default();
    let mut lowered = 0u64;
    let mut traced_issues = 0u64;
    let mut first_pass = true;
    let start = Instant::now();
    let mut k = 0u64;
    while first_pass || start.elapsed().as_secs_f64() < seconds / 2.0 {
        for (i, c) in b.cases.iter().enumerate() {
            r.attempted += 1;
            let id = tr.begin("op", None, k);
            let res = pool::rebuild_op(&b.engine, c, &b.cycles[i], false, &mut tr, id);
            tr.end(id);
            k += 1;
            match res {
                Ok(rebuilt) => {
                    for rb in &rebuilt {
                        traced_issues += rb.run.total.total_issues();
                        if first_pass {
                            stats.add(&rb.run, c.input.c1, rb.predicted);
                            lowered += rb.programs.iter().map(|p| p.len() as u64).sum::<u64>();
                        }
                    }
                }
                Err(e) => r.error(e),
            }
        }
        first_pass = false;
    }
    span_metrics(&mut r, &tr, traced_issues, median(&untraced.lat_ms));
    sim_metrics(&mut r, &stats, lowered);
    let mut ratio = BackendRatio::default();
    let mut scratch = Tracer::new();
    for (i, c) in b.cases.iter().enumerate() {
        let id = scratch.begin("op", None, 0);
        for rb in pool::rebuild_op(&b.engine, c, &b.cycles[i], true, &mut scratch, id)? {
            let image0 = rb.image0.as_deref().expect("image kept");
            ratio.add(
                &b.engine.chip,
                &rb.programs,
                rb.decls.as_deref(),
                image0,
                rb.run.cycles,
            )?;
        }
    }
    r.set("sim.threaded_over_sliced", ratio.ratio());
    write_trace(w, seed, &tr)?;
    Ok(r)
}

/// Write the traced phase's spans as Chrome trace-event JSON.
pub fn write_trace(w: Workload, seed: u64, tr: &Tracer) -> Result<(), String> {
    let dir = std::path::Path::new("perfbench/out");
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-{seed}.trace.json", w.name()));
    std::fs::write(&path, tr.chrome_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(())
}

struct SegBench {
    engine: PoolingEngine,
    cases: Vec<SegCase>,
    cycles: Vec<u64>,
    /// Simulated issues per op: `NetRun` reports cycles only, so these
    /// come from the rebuilt program, whose cycles every timed
    /// `forward_fused` must match.
    issues: Vec<u64>,
}

fn seg_setup(seed: u64) -> Result<SegBench, String> {
    let engine = PoolingEngine::ascend910();
    let cases = op_list(Workload::ModelSeg, seed)
        .iter()
        .map(|s| model::materialize(s, &engine))
        .collect::<Result<Vec<_>, _>>()?;
    let mut cycles = Vec::new();
    let mut issues = Vec::new();
    let mut tr = Tracer::new();
    // The warm-up pass runs the rebuilt op: the same simulator work as
    // `forward_fused`, plus the issue count it does not report.
    for c in &cases {
        let id = tr.begin("op", None, 0);
        let (out, run, _, _) = model::rebuild(&engine, c, &mut tr, id)?;
        model::check(c, &out)?;
        cycles.push(run.cycles);
        issues.push(run.total.total_issues());
    }
    Ok(SegBench {
        engine,
        cases,
        cycles,
        issues,
    })
}

impl SegBench {
    fn op(&self, i: usize) -> Result<(f64, u64), String> {
        let c = &self.cases[i];
        let t0 = Instant::now();
        let (out, net) = model::engine_call(c)?;
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        model::check(c, &out)?;
        if net.total_cycles() != self.cycles[i] {
            return Err(format!("{}: cycles changed between runs", c.spec.label));
        }
        Ok((ms, self.issues[i]))
    }
}

pub fn run_model(seed: u64, seconds: f64, traced: bool) -> Result<Report, String> {
    let (b, setup_s) = setup_median(SETUPS, || seg_setup(seed))?;
    let mut r = Report::default();
    if !traced {
        let p = closed_loop(&mut r, b.cases.len(), seconds, |i| b.op(i));
        end_to_end(&mut r, &p, b.cycles.iter().sum(), setup_s);
        return Ok(r);
    }
    let untraced = closed_loop(&mut r, b.cases.len(), seconds / 2.0, |i| b.op(i));
    let mut tr = Tracer::new();
    let mut stats = SimStats::default();
    let mut lowered = 0u64;
    let mut traced_issues = 0u64;
    // Wall time of the three public entry points, per op.
    let (mut fused_ms, mut layered_ms, mut conv_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut first_pass = true;
    let start = Instant::now();
    let mut k = 0u64;
    while first_pass || start.elapsed().as_secs_f64() < seconds / 2.0 {
        for (i, c) in b.cases.iter().enumerate() {
            r.attempted += 1;
            let id = tr.begin("op", None, k);
            let res = model::rebuild(&b.engine, c, &mut tr, id);
            tr.end(id);
            k += 1;
            let res = res.and_then(|(out, run, program, _)| {
                model::check(c, &out).map_err(|e| format!("rebuilt op: {e}"))?;
                if run.cycles != b.cycles[i] {
                    return Err(format!("{}: rebuilt cycles differ", c.spec.label));
                }
                Ok((run, program))
            });
            match res {
                Ok((run, program)) => {
                    traced_issues += run.total.total_issues();
                    if first_pass {
                        stats.add(&run, 1, None);
                        lowered += program.len() as u64;
                    }
                }
                Err(e) => r.error(e),
            }
            let timed = |f: &mut dyn FnMut() -> Result<dv_tensor::Nchw, String>| {
                let t0 = Instant::now();
                let out = f()?;
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                model::check(c, &out).map(|()| ms)
            };
            let results = [
                timed(&mut || model::engine_call(c).map(|(o, _)| o)),
                timed(&mut || {
                    c.model
                        .forward(&c.input)
                        .map(|(o, _)| o)
                        .map_err(|e| e.to_string())
                }),
                timed(&mut || {
                    dv_nn::run_fused_conv_pool(
                        &b.engine.chip,
                        &c.input,
                        &c.weights,
                        &c.conv,
                        dv_nn::PoolKind::Max,
                        &c.pool,
                        dv_conv::ConvLowering::Auto,
                    )
                    .map(|(o, _)| o)
                    .map_err(|e| e.to_string())
                }),
            ];
            for (res, v) in results
                .into_iter()
                .zip([&mut fused_ms, &mut layered_ms, &mut conv_ms])
            {
                r.attempted += 1;
                match res {
                    Ok(ms) => v.push(ms),
                    Err(e) => r.error(e),
                }
            }
        }
        first_pass = false;
    }
    span_metrics(&mut r, &tr, traced_issues, median(&untraced.lat_ms));
    sim_metrics(&mut r, &stats, lowered);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    r.set("nn.segment_ms", mean(&fused_ms));
    r.set("nn.layered_ms", mean(&layered_ms));
    r.set("conv.fused_ms", mean(&conv_ms));
    // Fusion outcome of each pinned segment, one forward_fused apiece.
    let (mut fused, mut declines) = (0, 0);
    for seg in dv_nn::pinned_segments() {
        let m = dv_nn::Sequential::with_layers(b.engine.clone(), seg.layers);
        let (_, net) = m
            .forward_fused(&seg.input)
            .map_err(|e| format!("{}: {e}", seg.name))?;
        fused += net.fused_segments();
        declines += net.fusion_declines;
    }
    r.set("nn.fused_segments", fused as f64);
    r.set("nn.fusion_declines", declines as f64);
    let mut ratio = BackendRatio::default();
    let mut scratch = Tracer::new();
    for (i, c) in b.cases.iter().enumerate() {
        let id = scratch.begin("op", None, 0);
        let (_, _, program, image0) = model::rebuild(&b.engine, c, &mut scratch, id)?;
        ratio.add(&b.engine.chip, &[program], None, &image0, b.cycles[i])?;
    }
    r.set("sim.threaded_over_sliced", ratio.ratio());
    write_trace(Workload::ModelSeg, seed, &tr)?;
    Ok(r)
}
