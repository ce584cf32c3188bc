//! Profile a pooling run: record an instruction-level trace, export it
//! for Perfetto/chrome://tracing, and print the cycle breakdown —
//! the workflow described in README § "Profiling a run".
//!
//! ```sh
//! cargo run --release --example profile_run            # N = 1, per-plane
//! cargo run --release --example profile_run -- --batch 4
//! cargo run --release --example profile_run -- --cores 8
//! cargo run --release --example profile_run -- --backend scalar
//! ```
//!
//! With `--batch N` (N > 1) the engine's batch fold kicks in: compare
//! the `im2col` issue count in the breakdown against an N = 1 run
//! scaled by N to see the Mode-0 repeat chains amortise issue overhead
//! across the batch.
//!
//! With `--cores N` (N > 1) the run moves to an N-core chip with
//! cost-model-driven sharding and the shared-HBM contention stage
//! (`MemoryModel::ascend910_hbm()`): the engine picks a partition axis
//! for the workload, the cores' MTE streams contend for the shared
//! 256 B/cycle pipe, and the breakdown grows a `gm contention stalls`
//! line (also visible as trailing `gm-contention` slices on the MTE
//! rows of the exported trace).
//!
//! With `--algo auto` the engine's per-workload auto-tuner picks the
//! algorithm (direct reduction vs im2col — see README § "Letting the
//! tuner pick"): the run prints the tuner's ranking, its predicted
//! cycles against the measured makespan, and the typed decline counters
//! (`tuner_fallbacks` / `tuner_mispredicted`). `--algo direct` and
//! `--algo im2col` force one algorithm instead. Scenario flags reshape
//! the workload: `--dilation D` spreads the kernel taps, `--ceil-mode`
//! rounds the output up over a trailing partial window, and `--global`
//! pools each whole plane to a single pixel.
//!
//! With `--backend scalar|sliced|threaded` the run selects the *host*
//! execution backend (see ARCHITECTURE.md § "Host execution backends").
//! Simulated cycles, counters, and traces are bit-identical across
//! backends — only the host wall time printed next to them changes.
//! Diff a `--backend scalar` run against the default to see what the
//! sliced executor loops and core threading buy on your machine.
//!
//! With `--model vgg16-seg|inception-seg` the run profiles a pinned
//! whole-model conv→pool segment instead of a single pooling layer
//! (see README § "Running a model segment"): the segment executes
//! layer-at-a-time and then fused (implicit-im2col conv with the output
//! tile handed to the pool in UB — no GM round-trip), printing both
//! per-layer reports, the cycle saving, and the booked decline counters.
//! The fused output is checked bit-exact against the layered pass
//! before anything is printed.

use davinci_pooling::core::{choose_forward_algorithm, PoolProblem};
use davinci_pooling::prelude::*;
use davinci_pooling::sim::TraceConfig;

#[derive(Clone, Copy, PartialEq)]
enum Algo {
    Auto,
    Direct,
    Im2col,
}

struct Options {
    batch: usize,
    cores: usize,
    algo: Algo,
    dilation: usize,
    ceil_mode: bool,
    global: bool,
    backend: Backend,
    model: Option<String>,
}

fn parse_args() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    let mut opts = Options {
        batch: 1,
        cores: 1,
        algo: Algo::Im2col,
        dilation: 1,
        ceil_mode: false,
        global: false,
        backend: Backend::default(),
        model: None,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--batch" => {
                let v = args.next().ok_or("--batch needs a value")?;
                opts.batch = v
                    .parse()
                    .map_err(|_| format!("invalid --batch value: {v}"))?;
                if opts.batch == 0 {
                    return Err("--batch must be >= 1".into());
                }
            }
            "--cores" => {
                let v = args.next().ok_or("--cores needs a value")?;
                opts.cores = v
                    .parse()
                    .map_err(|_| format!("invalid --cores value: {v}"))?;
                if opts.cores == 0 || opts.cores > 32 {
                    return Err("--cores must be in 1..=32".into());
                }
            }
            "--algo" => {
                let v = args.next().ok_or("--algo needs a value")?;
                opts.algo = match v.as_str() {
                    "auto" => Algo::Auto,
                    "direct" => Algo::Direct,
                    "im2col" => Algo::Im2col,
                    _ => return Err(format!("invalid --algo value: {v} (auto|direct|im2col)")),
                };
            }
            "--dilation" => {
                let v = args.next().ok_or("--dilation needs a value")?;
                opts.dilation = v
                    .parse()
                    .map_err(|_| format!("invalid --dilation value: {v}"))?;
                if opts.dilation == 0 {
                    return Err("--dilation must be >= 1".into());
                }
            }
            "--ceil-mode" => opts.ceil_mode = true,
            "--global" => opts.global = true,
            "--backend" => {
                let v = args.next().ok_or("--backend needs a value")?;
                opts.backend = Backend::parse(&v).ok_or_else(|| {
                    format!("invalid --backend value: {v} (scalar|sliced|threaded)")
                })?;
            }
            "--model" => {
                let v = args.next().ok_or("--model needs a value")?;
                if davinci_pooling::nn::segment_by_name(&v).is_none() {
                    return Err(format!(
                        "invalid --model value: {v} (vgg16-seg|inception-seg)"
                    ));
                }
                opts.model = Some(v);
            }
            other => {
                return Err(format!(
                    "unknown argument: {other} (try --batch N, --cores N, \
                     --algo auto|direct|im2col, --dilation D, --ceil-mode, --global, \
                     --backend scalar|sliced|threaded, --model vgg16-seg|inception-seg)"
                ))
            }
        }
    }
    Ok(opts)
}

/// `--model`: profile a pinned whole-model conv→pool segment,
/// layer-at-a-time vs fused, and print both reports side by side.
fn profile_model(name: &str) -> Result<(), Box<dyn std::error::Error>> {
    use davinci_pooling::nn::{segment_by_name, Sequential};

    let seg = segment_by_name(name).expect("validated in parse_args");
    let model = Sequential::with_layers(PoolingEngine::ascend910(), seg.layers);
    let (layered_out, layered) = model.forward(&seg.input)?;
    let (fused_out, fused) = model.forward_fused(&seg.input)?;
    if fused_out.data() != layered_out.data() {
        return Err("fused output diverged from the layered pass".into());
    }

    println!("segment {name}: layer-at-a-time\n{}", layered.report());
    println!("segment {name}: fused\n{}", fused.report());
    let (l, f) = (layered.total_cycles(), fused.total_cycles());
    println!(
        "fused pipeline: {f} cycles vs {l} layered ({:.2}x), \
         outputs bit-identical",
        l as f64 / f.max(1) as f64
    );
    println!(
        "{} segment(s) fused, {} boundary decline(s) booked",
        fused.fused_segments(),
        fused.fusion_declines
    );
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let opts = parse_args()?;
    if let Some(name) = &opts.model {
        return profile_model(name);
    }
    // Fig. 7's middle InceptionV3 shape: 71x71, 192 channels, K3S2 —
    // reshaped by the scenario flags.
    let (ih, iw) = (71usize, 71usize);
    let input = Nchw::from_fn(opts.batch, 192, ih, iw, |n, c, h, w| {
        F16::from_f32(((n + c + 3 * h + 7 * w) % 11) as f32)
    })
    .to_nc1hwc0();
    let params = if opts.global {
        PoolParams::global(ih, iw)
    } else {
        PoolParams::K3S2
            .with_dilation((opts.dilation, opts.dilation))
            .with_ceil_mode(opts.ceil_mode)
    };

    // Profile one AI core under a 64 KiB UB budget (the perf gate's
    // batched configuration): the plane band-splits, so the trace shows
    // the double-buffered software pipelines — and with --batch N the
    // Mode-0 batch fold engages (on the full 32-core chip it declines,
    // preferring one plane per core).
    let cost = CostModel::ascend910_like();
    // With --cores N the run scales out instead: an N-core chip behind
    // the shared HBM pipe, with the engine's cost model choosing the
    // partition axis (per plane, per c1 slice, or per row band).
    let engine = if opts.cores > 1 {
        let chip = Chip::new(opts.cores, cost)
            .with_memory(MemoryModel::ascend910_hbm())
            .with_backend(opts.backend);
        PoolingEngine::new(chip)
            .with_sharding(true)
            .with_trace(TraceConfig::ON)
    } else {
        let mut chip = Chip::new(1, cost).with_backend(opts.backend);
        // Global pooling needs the whole plane resident (one output row
        // spans every input row, so band splitting cannot help), and
        // ceil-mode forbids multi-band splitting like padding does —
        // keep the full 256 KiB UB for those instead of the batched-gate
        // clamp.
        if !opts.global && !opts.ceil_mode {
            chip.caps.ub = 64 * 1024;
        }
        PoolingEngine::new(chip).with_trace(TraceConfig::ON)
    };
    let engine = engine.with_auto_tuning(opts.algo == Algo::Auto);

    // Under --algo auto the engine ignores this argument and dispatches
    // the tuner's winner; print the ranking it will decide from.
    let impl_ = match opts.algo {
        Algo::Direct => ForwardImpl::Standard,
        _ => ForwardImpl::Im2col,
    };
    if opts.algo == Algo::Auto {
        let prob = PoolProblem::new(opts.batch, input.c1, ih, iw, params)?;
        let shared = match engine.chip.memory {
            MemoryModel::SharedBandwidth { bytes_per_cycle }
            | MemoryModel::SharedBandwidthL2 {
                bytes_per_cycle, ..
            } => Some(bytes_per_cycle),
            MemoryModel::Independent => None,
        };
        let choice = choose_forward_algorithm(
            &prob,
            false,
            false,
            engine.chip.cores,
            &engine.schedule(),
            engine.chip.caps,
            shared,
        );
        println!("auto-tuner ranking (predicted cycles):");
        for p in &choice.ranking {
            println!("  {:<8} {:>9}", p.algorithm.label(), p.cycles);
        }
        println!();
    }
    let started = std::time::Instant::now();
    let (_, run) = engine.maxpool_forward(&input, params, impl_)?;
    let wall = started.elapsed();
    println!(
        "simulated {} cycles in {wall:.3?} of host wall time \
         ({} backend; cycles are backend-invariant, wall time is not)\n",
        run.cycles, engine.chip.cost.backend
    );

    let path = "pool.trace.json";
    std::fs::write(path, run.chrome_trace_json())?;
    let events: usize = run.traces.iter().map(|t| t.events.len()).sum();
    println!(
        "wrote {path}: {events} instructions across {} traced cores",
        run.traces.len()
    );
    println!("open it in chrome://tracing or https://ui.perfetto.dev\n");

    println!("{}", run.breakdown().render());

    println!("buffer high-water marks:");
    for (buffer, peak) in run.peaks.iter() {
        if peak > 0 {
            println!("  {buffer:<4} {peak:>9} bytes");
        }
    }

    // The invariant the trace rests on: counters and trace agree.
    run.breakdown()
        .verify_against(&run.total)
        .map_err(|e| format!("trace/counter mismatch: {e}"))?;
    println!(
        "\ntrace durations sum to the busy-cycle total: {} cycles \
         (dual-pipe makespan: {}, stalled: {})",
        run.total.busy_cycles(),
        run.total.cycles,
        run.total.stall_cycles
    );
    if opts.algo == Algo::Auto {
        println!(
            "\nauto-tuner: measured makespan {} cycles; {} ranked candidate(s) \
             failed to lower (tuner_fallbacks), {} win(s) could not be \
             certified against a rejected alternative's cycle floor \
             (tuner_mispredicted{})",
            run.cycles,
            run.total.tuner_fallbacks,
            run.total.tuner_mispredicted,
            if run.total.tuner_mispredicted == 0 {
                " = 0: the tuned run is provably no slower than any alternative"
            } else {
                ""
            }
        );
    }
    if opts.cores > 1 {
        println!("\nper-core makespans ({} cores, shared HBM):", opts.cores);
        for (i, (c, cc)) in run.per_core.iter().zip(&run.core_cycles).enumerate() {
            println!(
                "  core {i:>2}: {cc:>8} cycles ({} stalled on the shared pipe, \
                 {} L2 line hits, {} L2 miss-stall cycles)",
                c.contention_stalls, c.l2_hits, c.l2_miss_stalls
            );
        }
        println!(
            "chip makespan {} = slowest core; {} contention stalls, {} L2 hits \
             booked in total",
            run.cycles, run.total.contention_stalls, run.total.l2_hits
        );
    }
    Ok(())
}
