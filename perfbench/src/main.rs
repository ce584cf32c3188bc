//! The repository benchmark. See `perfbench/README.md` for the workloads,
//! the metrics, and which layer each per-layer metric belongs to.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --repeat <k> --workload <name> [--seed <first>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! A single run prints human-readable notes, then one JSON result line:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. It exits non-zero when any op errs or any output differs
//! from its golden reference. `--repeat` runs `k` single runs on seeds
//! `first..first+k` and prints each metric's median and quartiles next to
//! its bound from `BENCHMARK.json`.

mod bench;
mod heap;
mod json;
mod model;
mod openloop;
mod pool;
mod rng;
mod serve;
mod spans;
mod stats;
mod workloads;

use bench::Report;
use json::{quote, Value};
use std::process::{Command, ExitCode};
use workloads::Workload;

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

const END_TO_END: [(&str, &str); 6] = [
    ("op_p50_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("sim_instr_per_s", "1/s"),
    ("sim_cycles", "cycles"),
    ("peak_heap_mb", "MiB"),
    ("setup_s", "s"),
];

/// Every per-layer metric, printed on every workload; a layer a workload
/// does not reach reads 0.
const PER_LAYER: [(&str, &str); 34] = [
    ("sim.run_ms", "ms"),
    ("sim.run_share", "ratio"),
    ("sim.ns_per_issue", "ns"),
    ("sim.threaded_over_sliced", "ratio"),
    ("sim.gm_bytes", "bytes"),
    ("sim.stall_cycles", "cycles"),
    ("sim.contention_stalls", "cycles"),
    ("sim.l2_hits", "count"),
    ("sim.l2_miss_stalls", "cycles"),
    ("sim.core_imbalance", "ratio"),
    ("sim.subplane_ops", "count"),
    ("sim.peak_ub_bytes", "bytes"),
    ("sim.peak_l1_bytes", "bytes"),
    ("schedule.choose_us", "us"),
    ("schedule.pred_err_pct", "%"),
    ("schedule.fallbacks", "count"),
    ("schedule.mispredicted", "count"),
    ("lower.ms", "ms"),
    ("lower.share", "ratio"),
    ("lower.alt_ms", "ms"),
    ("lower.issues", "count"),
    ("engine.other_ms", "ms"),
    ("serve.service_ms_p50", "ms"),
    ("serve.wait_ms_p50", "ms"),
    ("serve.wait_ms_tail", "ms"),
    ("serve.backlog_max", "count"),
    ("bench.gen_lag_tail_ms", "ms"),
    ("bench.trace_overhead", "ratio"),
    ("nn.segment_ms", "ms"),
    ("nn.layered_ms", "ms"),
    ("nn.fused_segments", "count"),
    ("nn.fusion_declines", "count"),
    ("conv.fused_ms", "ms"),
    ("tensor.layout_ms", "ms"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::Table1Fwd,
        seed: 1,
        seconds: 20.0,
        trace: false,
        repeat: None,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {v}; expected one of {}", names.join(", "))
                })?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--repeat" => {
                let k: usize = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if !(1..=100).contains(&k) {
                    return Err("--repeat must be in 1..=100".into());
                }
                args.repeat = Some(k);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

fn run_once(a: &Args) -> Result<Report, String> {
    let s = a.seconds;
    match a.workload {
        Workload::Table1Fwd | Workload::TrainStep => {
            bench::run_pool(a.workload, a.seed, s, a.trace)
        }
        Workload::ServeMix => serve::run(a.seed, s, a.trace),
        Workload::ModelSeg => bench::run_model(a.seed, s, a.trace),
    }
}

fn result_line(r: &Report, trace: bool) -> Result<String, String> {
    let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for (name, unit) in table {
        let value = match r.metrics.iter().rev().find(|(n, _)| n == name) {
            Some((_, v)) => *v,
            None if trace => 0.0,
            None => return Err(format!("metric {name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        metrics.push(format!(
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            quote(name),
            quote(unit)
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.errors.is_empty(),
        r.attempted,
        r.failed,
        metrics.join(", ")
    ))
}

fn single(a: &Args) -> ExitCode {
    let r = match run_once(a) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", a.workload.name());
            return ExitCode::FAILURE;
        }
    };
    for n in &r.notes {
        println!("# {n}");
    }
    for e in r.errors.iter().take(5) {
        eprintln!("perfbench: {e}");
    }
    match result_line(&r, a.trace) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    if r.errors.is_empty() && r.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Bounds of the end-to-end metrics, from `BENCHMARK.json` in the
/// working directory when it is there.
fn bounds() -> Vec<(String, f64)> {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        return Vec::new();
    };
    let Ok(v) = json::parse(&text) else {
        return Vec::new();
    };
    match v.get("end_to_end") {
        Some(Value::Arr(ms)) => ms
            .iter()
            .filter_map(|m| Some((m.get("name")?.str()?.to_string(), m.get("bound")?.num()?)))
            .collect(),
        _ => Vec::new(),
    }
}

fn repeat(a: &Args, k: usize) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut runs: Vec<Value> = Vec::new();
    for seed in a.seed..a.seed + k as u64 {
        let out = Command::new(&exe)
            .args(["--workload", a.workload.name(), "--seed", &seed.to_string()])
            .args(["--seconds", &a.seconds.to_string()])
            .args(["--trace", if a.trace { "1" } else { "0" }])
            .output();
        let out = match out {
            Ok(o) => o,
            Err(e) => {
                eprintln!("perfbench: seed {seed}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let stdout = String::from_utf8_lossy(&out.stdout);
        let parsed = stdout.lines().last().map(json::parse);
        match parsed {
            Some(Ok(v)) if out.status.success() => {
                println!("seed {seed}: {}", stdout.lines().last().unwrap_or(""));
                runs.push(v);
            }
            _ => {
                eprintln!(
                    "perfbench: seed {seed} failed ({}):\n{stdout}{}",
                    out.status,
                    String::from_utf8_lossy(&out.stderr)
                );
                return ExitCode::FAILURE;
            }
        }
    }
    let bounds = bounds();
    let table: &[(&str, &str)] = if a.trace { &PER_LAYER } else { &END_TO_END };
    println!(
        "{:<26} {:>14} {:>14} {:>14} {:>9} {:>7}",
        "metric", "q1", "median", "q3", "spread", "bound"
    );
    for (name, unit) in table {
        let values: Vec<f64> = runs
            .iter()
            .filter_map(|v| v.get("metrics")?.get(name)?.get("value")?.num())
            .collect();
        let (q1, q2, q3) = stats::quartiles(&values);
        let spread = if q2 != 0.0 { (q3 - q1) / q2.abs() } else { 0.0 };
        let bound = bounds
            .iter()
            .find(|(n, _)| n == name)
            .map_or("-".to_string(), |(_, b)| format!("{b}"));
        println!(
            "{:<26} {q1:>14.6} {q2:>14.6} {q3:>14.6} {spread:>9.4} {bound:>7} {unit}",
            name
        );
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match args.repeat {
        Some(k) => repeat(&args, k),
        None => single(&args),
    }
}
