//! `serve-mix`: an open loop of seeded jobs into `dv_serve::Server`.

use crate::bench::{
    end_to_end, setup_median, sim_metrics, span_metrics, write_trace, BackendRatio, Phase, Report,
    SETUPS,
};
use crate::openloop;
use crate::pool::{self, PoolCase, SimStats};
use crate::spans::Tracer;
use crate::stats::{median, tail};
use crate::workloads::{op_list, Workload};
use dv_serve::{run_job, JobHandle, JobSpec, Server};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Worker threads in the pool.
pub const WORKERS: usize = 2;
/// Offered load in jobs per second. `WORKERS` workers completed about 400
/// jobs/s back to back at the seed commit on a 2-vCPU x86-64 VM; 95/s is
/// about a quarter of that, the highest load at which the latency
/// percentiles repeated from run to run there (at 240/s, 60%, the p50
/// spread across runs was 28%).
pub const RATE: f64 = 95.0;
/// A job slower than this, from its due time, counts as failed.
pub const LIMIT_MS: f64 = 250.0;

struct ServeBench {
    server: Server,
    cases: Vec<PoolCase>,
    specs: Vec<JobSpec>,
    cycles: Vec<u64>,
    /// Warm-up throughput with every job queued at once, in jobs/s.
    capacity: f64,
}

fn setup(seed: u64) -> Result<ServeBench, String> {
    let cases = op_list(Workload::ServeMix, seed)
        .iter()
        .map(pool::materialize)
        .collect::<Result<Vec<_>, _>>()?;
    let specs: Vec<JobSpec> = cases.iter().map(pool::job_spec).collect();
    let server = Server::new(WORKERS);
    let t0 = Instant::now();
    let handles: Vec<JobHandle> = specs.iter().map(|s| server.submit(s.clone())).collect();
    let mut cycles = Vec::new();
    for (h, c) in handles.into_iter().zip(&cases) {
        let res = h.wait().map_err(|e| format!("{}: {e}", c.spec.label))?;
        pool::check_job(c, &res)?;
        cycles.push(res.cycles);
    }
    let capacity = cases.len() as f64 / t0.elapsed().as_secs_f64();
    Ok(ServeBench {
        server,
        cases,
        specs,
        cycles,
        capacity,
    })
}

/// Outcome of one job as the collector saw it: simulated issues, or why
/// it failed.
type Done = Result<u64, String>;

/// Drive `seconds` of open-loop load; returns the arrivals and the time
/// to the last completion. `backlog` keeps the largest queue length seen
/// at a submit.
fn open_loop(
    b: &ServeBench,
    seconds: f64,
    backlog: &AtomicUsize,
) -> (Vec<openloop::Arrival<Done>>, Duration) {
    let jobs = (RATE * seconds).round().max(1.0) as usize;
    let n = b.specs.len();
    openloop::run(
        jobs,
        Duration::from_secs_f64(1.0 / RATE),
        |i| {
            let h = b.server.submit(b.specs[i % n].clone());
            backlog.fetch_max(b.server.pending(), Ordering::Relaxed);
            h
        },
        |h: JobHandle| h.wait(),
        |index, res| {
            let res = res.map_err(|e| e.to_string())?;
            let i = index % n;
            let c = &b.cases[i];
            pool::check_job(c, &res)?;
            if res.cycles != b.cycles[i] {
                return Err(format!("{}: cycles changed between runs", c.spec.label));
            }
            Ok(res.total.total_issues())
        },
    )
}

/// Book arrivals into a phase: errors fail the run, and a job past the
/// latency limit counts as failed.
fn book(r: &mut Report, arrivals: &[openloop::Arrival<Done>], elapsed: Duration) -> Phase {
    let mut p = Phase::default();
    for a in arrivals {
        r.attempted += 1;
        p.lat_ms.push(a.latency_ms());
        match &a.result {
            Ok(issues) => {
                p.completed += 1;
                p.issues += issues;
                if a.latency_ms() > LIMIT_MS {
                    r.failed += 1;
                }
            }
            Err(e) => r.error(e.clone()),
        }
    }
    p.host_s = elapsed.as_secs_f64();
    p
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Report, String> {
    let (b, setup_s) = setup_median(SETUPS, || setup(seed))?;
    let mut r = Report::default();
    r.notes.push(format!(
        "offered {RATE} jobs/s to {WORKERS} workers; warm-up throughput {:.1} jobs/s",
        b.capacity
    ));
    let backlog = AtomicUsize::new(0);
    if !traced {
        let (arrivals, elapsed) = open_loop(&b, seconds, &backlog);
        let p = book(&mut r, &arrivals, elapsed);
        end_to_end(&mut r, &p, b.cycles.iter().sum(), setup_s);
        return Ok(r);
    }
    // Direct `run_job` calls and their traced rebuilds, in whole passes.
    let mut service: Vec<Vec<f64>> = vec![Vec::new(); b.cases.len()];
    let mut tr = Tracer::new();
    let mut stats = SimStats::default();
    let mut lowered = 0u64;
    let mut traced_issues = 0u64;
    let mut first_pass = true;
    let start = Instant::now();
    let mut k = 0u64;
    while first_pass || start.elapsed().as_secs_f64() < seconds / 2.0 {
        for (i, (c, spec)) in b.cases.iter().zip(&b.specs).enumerate() {
            r.attempted += 1;
            let t0 = Instant::now();
            let direct = run_job(k, spec);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            let res = direct
                .map_err(|e| format!("{}: {e}", c.spec.label))
                .and_then(|res| pool::check_job(c, &res).map(|()| res));
            let res = res.and_then(|res| {
                service[i].push(ms);
                let engine = pool::job_engine(spec);
                let id = tr.begin("op", None, k);
                let rebuilt = pool::rebuild_op(&engine, c, &[res.cycles], false, &mut tr, id);
                tr.end(id);
                rebuilt
            });
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
    let all_service: Vec<f64> = service.iter().flatten().copied().collect();
    span_metrics(&mut r, &tr, traced_issues, median(&all_service));
    sim_metrics(&mut r, &stats, lowered);
    r.set("serve.service_ms_p50", median(&all_service));

    // The queue under the same open loop: wait is each job's latency less
    // its op's median direct service time.
    let (arrivals, elapsed) = open_loop(&b, seconds / 2.0, &backlog);
    book(&mut r, &arrivals, elapsed);
    let n = b.cases.len();
    let wait: Vec<f64> = arrivals
        .iter()
        .map(|a| (a.latency_ms() - median(&service[a.index % n])).max(0.0))
        .collect();
    let lag: Vec<f64> = arrivals.iter().map(|a| a.lag_ms()).collect();
    r.set("serve.wait_ms_p50", median(&wait));
    r.set("serve.wait_ms_tail", tail(&wait).value);
    r.set("serve.backlog_max", backlog.load(Ordering::Relaxed) as f64);
    r.set("bench.gen_lag_tail_ms", tail(&lag).value);

    let mut ratio = BackendRatio::default();
    let mut scratch = Tracer::new();
    for (i, (c, spec)) in b.cases.iter().zip(&b.specs).enumerate() {
        let engine = pool::job_engine(spec);
        let id = scratch.begin("op", None, 0);
        for rb in pool::rebuild_op(&engine, c, &[b.cycles[i]], true, &mut scratch, id)? {
            let image0 = rb.image0.as_deref().expect("image kept");
            ratio.add(
                &engine.chip,
                &rb.programs,
                rb.decls.as_deref(),
                image0,
                rb.run.cycles,
            )?;
        }
    }
    r.set("sim.threaded_over_sliced", ratio.ratio());
    write_trace(Workload::ServeMix, seed, &tr)?;
    Ok(r)
}
