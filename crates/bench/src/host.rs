//! The host-throughput gate: host speed as a measured, regression-gated
//! contract.
//!
//! The cycle gate ([`crate::gate`]) protects the *simulated* numbers; at
//! production traffic the simulator's own wall-clock is the serving hot
//! path, so this module makes host speed a gated quantity too. Every
//! Table I workload's accelerated (Im2col) forward pass, the three Fig. 7
//! shapes' max backward through the argmax mask with the `Col2Im` merge
//! (the rows on the `vmul` and `col2im` executors), and every pinned model
//! segment's fused forward (the only rows on the Cube executor), is
//! replayed under each execution [`Backend`] and timed with the vendored
//! criterion shim's warmup-then-median loop ([`criterion::time_medians`]);
//! the measurements land in `BENCH_host.json` and are compared against
//! the committed baseline in `crates/bench/baselines/host.json`.
//!
//! Three contracts are enforced:
//!
//! * **Bit-identity, in-gate.** On every gated workload, [`collect_host`]
//!   asserts that all backends produce the same output bytes and the same
//!   simulated observables as the `Scalar` reference — backends may only
//!   move host wall-clock — and that a one-core chip runs the same
//!   programs (same output bytes, same instruction count).
//! * **Relative speed.** Wall times are machine-dependent, so the gate
//!   does not compare nanoseconds across machines: it gates the
//!   machine-portable *speedup ratios* (`scalar_ns / sliced_ns` per row)
//!   against the committed baseline with [`HOST_TOLERANCE`] slack, and
//!   [`collect_host`] asserts in-run that `Sliced` still clears the
//!   [`SLICED_FLOOR`] on at least one Table I workload — the hoisted
//!   bounds checks are the whole point of the seam, and losing them is a
//!   host-speed regression no matter what machine CI runs on. The ratios
//!   carry over only between hosts that take the same f16 SIMD path
//!   ([`dv_fp16::simd_available`]): the Table I rows' sliced `vmax`, the
//!   backward rows' sliced `vmul` and `Col2Im`, and the model rows' Cube
//!   `mmad` and L0C drain, run AVX2 lane kernels, F16C conversions and an
//!   AVX kernel where the CPU has AVX2 and F16C, and portable code
//!   otherwise, so a baseline recorded on an AVX2+F16C host fails on a
//!   host without them; [`run_host`] then says so first in its
//!   regression list.
//! * **Host time proportional to simulated work.** The 32-core chip under
//!   `Sliced` runs the same programs as a one-core chip, on one host
//!   thread either way, so their host times may differ only by per-core
//!   set-up. [`collect_host`] asserts in-run that the geometric mean of
//!   `multicore_over_single` stays at or below [`MULTICORE_CEILING`]: a
//!   reintroduced per-core GM copy or scratchpad allocation fails it on
//!   any machine.
//!
//! Absolute per-backend nanoseconds, host instructions/sec, and
//! simulated-cycles-per-wall-second are recorded alongside for trending;
//! the instruction and cycle denominators are deterministic and must
//! equal the baseline's exactly.
//!
//! Host timing is inherently noisy where cycle counts are deterministic:
//! [`run_host`] takes the best of [`HOST_GATE_RETRIES`] full collections
//! before declaring a regression (a loaded CI host needs only one quiet
//! window to pass), and each number is a median over [`HOST_SAMPLES`]
//! samples after a warmup pass. The retry loop itself is pinned by tests
//! through the [`run_host_with`] collector seam.
//!
//! `BENCH_host.json` is a [`crate::gate::Document`] ([`HOST`]) with one
//! declared section: the wall times are info columns, the denominators
//! exact columns, the speedups and throughputs derived columns.
//! [`compare_host`] adds the one check specific to this section, on the
//! sliced speedup ratio. When the executor legitimately changes speed,
//! regenerate with `cargo run --release -p dv-bench --bin repro -- gate`
//! and commit the refreshed `host.json`.

use crate::gate::{Column, Document, Policy::Derived, Policy::Exact, Policy::Info, Row, Section};
use crate::inputs::{feature_map, gradients};
use dv_conv::ConvLowering;
use dv_core::{fig7_workloads, table1_workloads, ForwardImpl, MergeImpl, PoolRun, PoolingEngine};
use dv_nn::{pinned_segments, run_fused_conv_pool, Layer, PoolKind, Sequential};
use dv_sim::{Backend, Chip, CostModel};
use dv_tensor::{reference, Nc1hwc0};
use std::time::Duration;

/// Relative speedup-ratio loss tolerated before the host gate fails
/// (15% — wall time needs more slack than the deterministic cycle
/// gate's 5%).
pub const HOST_TOLERANCE: f64 = 0.15;

/// Timed samples per (workload, backend) measurement; the reported
/// nanoseconds are the median after one warmup run.
pub const HOST_SAMPLES: usize = 5;

/// Full collections attempted before [`run_host`] declares a regression:
/// wall-clock noise clears on any one quiet window, an executor
/// regression fails all of them.
pub const HOST_GATE_RETRIES: usize = 3;

/// Host collections whose per-column median `repro gate` records as the
/// baseline ([`collect_host_median`]).
pub const BASELINE_COLLECTIONS: usize = 3;

/// The in-run floor for the `Sliced` backend: at least one Table I
/// workload must run at or above this many times the `Scalar` host
/// instructions/sec.
pub const SLICED_FLOOR: f64 = 2.0;

/// The in-run ceiling on the geometric mean of `multicore_over_single`:
/// the 32-core chip's `Sliced` host time over a one-core chip's on the
/// same programs.
pub const MULTICORE_CEILING: f64 = 1.25;

/// The committed host baseline (regenerate via `repro -- gate` when the
/// executor legitimately changes speed).
pub const COMMITTED_HOST_BASELINE: &str = include_str!("../baselines/host.json");

/// `BENCH_host.json`: one row per Table I forward, Fig. 7 max backward and
/// pinned model segment — the run timed under every backend and on a
/// one-core chip, plus the deterministic denominators (instruction issues
/// and simulated cycles, both backend-invariant) that turn wall time into
/// throughput.
pub const HOST: Document = Document {
    benchmark: "host",
    header: &[
        ("tolerance", HOST_TOLERANCE),
        ("samples", HOST_SAMPLES as f64),
    ],
    sections: &[Section {
        name: "host",
        columns: &[
            Column("instructions", Exact),
            Column("sim_cycles", Exact),
            // Median host wall time of one run per backend, and under
            // `Sliced` on a one-core chip.
            Column("scalar_ns", Info),
            Column("sliced_ns", Info),
            Column("threaded_ns", Info),
            Column("single_core_sliced_ns", Info),
            Column("sliced_speedup", Derived(4, |r, _| Some(sliced_speedup(r)))),
            Column(
                "threaded_speedup",
                Derived(4, |r, _| Some(r.ratio("scalar_ns", "threaded_ns"))),
            ),
            Column(
                "multicore_over_single",
                Derived(4, |r, _| Some(multicore_over_single(r))),
            ),
            Column(
                "scalar_instr_per_sec",
                Derived(0, |r, _| Some(per_sec(r, "instructions", "scalar_ns"))),
            ),
            Column(
                "sliced_instr_per_sec",
                Derived(0, |r, _| Some(per_sec(r, "instructions", "sliced_ns"))),
            ),
            // Simulated cycles retired per host wall-second: the
            // serving-capacity number.
            Column(
                "sliced_sim_cycles_per_sec",
                Derived(0, |r, _| Some(per_sec(r, "sim_cycles", "sliced_ns"))),
            ),
        ],
        collect: collect_host,
    }],
};

/// Host speedup of the sliced executors over the scalar reference.
fn sliced_speedup(row: &Row) -> f64 {
    row.ratio("scalar_ns", "sliced_ns")
}

/// Host time of the 32-core chip under `Sliced` over a one-core chip's.
fn multicore_over_single(row: &Row) -> f64 {
    row.ratio("sliced_ns", "single_core_sliced_ns")
}

/// `count` per second of the wall time in the `ns` column.
fn per_sec(row: &Row, count: &str, ns: &str) -> f64 {
    row.int(count) as f64 * 1e9 / row.int(ns).max(1) as f64
}

/// The default 32-core chip under `backend`.
fn engine(backend: Backend) -> PoolingEngine {
    PoolingEngine::ascend910().with_backend(backend)
}

/// A one-core chip under `Sliced`: the same programs, one simulated core.
fn single_core() -> PoolingEngine {
    PoolingEngine::new(Chip::new(1, CostModel::ascend910_like())).with_backend(Backend::Sliced)
}

/// One row: `call` timed under every backend and on [`single_core`] with
/// the criterion shim's warmup-then-median loop, the four sampled
/// round-robin so host-speed drift cancels in their ratios.
fn timed_row<T>(
    key: String,
    instructions: u64,
    sim_cycles: u64,
    call: impl Fn(&PoolingEngine) -> T,
) -> Row {
    assert!(
        instructions > 0 && sim_cycles > 0,
        "{key}: degenerate denominators"
    );
    let engines = [
        engine(Backend::Scalar),
        engine(Backend::Sliced),
        engine(Backend::Threaded),
        single_core(),
    ];
    let mut runs = engines.each_ref().map(|eng| {
        let call = &call;
        move || {
            std::hint::black_box(call(eng));
        }
    });
    let ns: Vec<u64> = criterion::time_medians(HOST_SAMPLES, &mut runs)
        .into_iter()
        .map(duration_ns)
        .collect();
    Row::new(key)
        .with("instructions", instructions)
        .with("sim_cycles", sim_cycles)
        .with("scalar_ns", ns[0])
        .with("sliced_ns", ns[1])
        .with("threaded_ns", ns[2])
        .with("single_core_sliced_ns", ns[3])
}

/// Replay every Table I workload's Im2col forward, the Fig. 7 shapes' max
/// backward and every pinned model segment's fused forward under all
/// three backends and on a one-core chip, asserting bit-identity in-gate
/// and timing each with the criterion shim's warmup-then-median loop.
/// Panics if `Sliced` fails [`SLICED_FLOOR`] on every Table I row, or if
/// the geometric mean of `multicore_over_single` exceeds
/// [`MULTICORE_CEILING`].
pub fn collect_host() -> Vec<Row> {
    let mut out = Vec::new();
    for w in table1_workloads() {
        let shape = format!("{}x{}x{}", w.h, w.w, w.c);
        let input = feature_map(1, w.c, w.h, w.w, 71);
        let key = format!("host/{}-{}/{shape}", w.cnn, w.input_idx);
        out.push(pool_row(key, |eng| {
            eng.maxpool_forward(&input, w.params, ForwardImpl::Im2col)
                .expect("host gate run")
        }));
    }
    let best = out.iter().map(sliced_speedup).fold(0.0f64, f64::max);
    assert!(
        best >= SLICED_FLOOR,
        "host gate: Sliced must clear {SLICED_FLOOR}x Scalar host \
         instructions/sec on at least one Table I workload (best {best:.2}x)"
    );
    // The max backward through the argmax mask with the Col2Im merge:
    // the rows on the `vmul` and `col2im` executors.
    for w in fig7_workloads() {
        let shape = format!("{}x{}x{}", w.h, w.w, w.c);
        let input = feature_map(1, w.c, w.h, w.w, 73);
        let mask = reference::maxpool_argmax_mask(&input, &w.params).expect("argmax mask");
        let (oh, ow) = w.out_dims();
        let grads = gradients(1, input.c1, oh, ow, 74);
        let key = format!("host/backward/{}-{}/{shape}", w.cnn, w.input_idx);
        out.push(pool_row(key, |eng| {
            eng.maxpool_backward(&mask, &grads, w.params, w.h, w.w, MergeImpl::Col2Im)
                .expect("host gate backward run")
        }));
    }
    for seg in pinned_segments() {
        let key = format!("host/model/{}", seg.name);
        let [Layer::Conv2d { weights, params }, Layer::MaxPool2d { params: pool, .. }] =
            seg.layers.as_slice()
        else {
            panic!("{key}: pinned segment must be conv -> maxpool");
        };
        let call = |eng: &PoolingEngine| {
            Sequential::with_layers(eng.clone(), seg.layers.clone())
                .forward_fused(&seg.input)
                .expect("host gate segment run")
        };
        // `forward_fused` reports cycles only: the fused kernel it runs
        // on these segments supplies the instruction count, tied to the
        // timed call by its output and cycles.
        let fused = |chip: &Chip| {
            run_fused_conv_pool(
                chip,
                &seg.input,
                weights,
                params,
                PoolKind::Max,
                pool,
                ConvLowering::Auto,
            )
            .expect("host gate fused kernel")
        };
        let (o_ref, run_ref) = call(&engine(Backend::Scalar));
        for backend in [Backend::Sliced, Backend::Threaded] {
            let (o, run) = call(&engine(backend));
            assert_eq!(
                o.data(),
                o_ref.data(),
                "{key}: {backend} output diverged from Scalar"
            );
            assert_eq!(
                run.total_cycles(),
                run_ref.total_cycles(),
                "{key}: {backend} cycles diverged from Scalar"
            );
        }
        let (o, kernel) = fused(&engine(Backend::Scalar).chip);
        assert_eq!(o.data(), o_ref.data(), "{key}: fused kernel diverged");
        assert_eq!(
            kernel.cycles,
            run_ref.total_cycles(),
            "{key}: forward_fused ran another kernel"
        );
        let (o, one) = fused(&single_core().chip);
        assert_eq!(o.data(), o_ref.data(), "{key}: one core diverged");
        assert_eq!(
            one.total.total_issues(),
            kernel.total.total_issues(),
            "{key}: one core ran other programs"
        );
        out.push(timed_row(
            key,
            kernel.total.total_issues(),
            kernel.cycles,
            call,
        ));
    }
    let rows: Vec<&Row> = out.iter().collect();
    let multicore = geomean(&rows, multicore_over_single);
    assert!(
        multicore <= MULTICORE_CEILING,
        "host gate: the 32-core chip must run its programs within \
         {MULTICORE_CEILING}x a one-core chip's Sliced host time \
         (geomean {multicore:.2}x): per-core set-up is back"
    );
    out
}

/// The rows `repro gate` records as the host baseline: each row's stored
/// columns are the median of [`BASELINE_COLLECTIONS`] full
/// [`collect_host`] runs, so the derived speedups are computed from
/// medians, and a baseline no longer carries one window's host speed.
pub fn collect_host_median() -> Vec<Row> {
    let collections: Vec<Vec<Row>> = (0..BASELINE_COLLECTIONS).map(|_| collect_host()).collect();
    median_rows(&collections)
}

/// Per-row, per-column medians of `collections` (an odd number of row
/// lists with the same keys) over [`HOST`]'s stored columns. The exact
/// columns are equal in every collection, so their median is their value.
fn median_rows(collections: &[Vec<Row>]) -> Vec<Row> {
    collections[0]
        .iter()
        .map(|row| {
            let same: Vec<&Row> = collections
                .iter()
                .map(|rows| {
                    let found = rows.iter().find(|r| r.key == row.key);
                    found.expect("every host collection has the same rows")
                })
                .collect();
            let stored = HOST.sections[0]
                .columns
                .iter()
                .filter(|c| !matches!(c.1, Derived(..)));
            stored.fold(Row::new(row.key.clone()), |out, &Column(name, _)| {
                let mut values: Vec<u64> = same.iter().map(|r| r.int(name)).collect();
                values.sort_unstable();
                out.with(name, values[values.len() / 2])
            })
        })
        .collect()
}

/// One pooling row: a reference run under `Scalar` plus the in-gate
/// bit-identity contract (every backend reproduces its output bytes,
/// counters, cycles and peaks exactly, and one core the same output from
/// the same programs), then [`timed_row`].
fn pool_row(key: String, call: impl Fn(&PoolingEngine) -> (Nc1hwc0, PoolRun)) -> Row {
    let (o_ref, run_ref) = call(&engine(Backend::Scalar));
    for backend in [Backend::Sliced, Backend::Threaded] {
        let (o, run) = call(&engine(backend));
        assert_eq!(
            o.data(),
            o_ref.data(),
            "{key}: {backend} output diverged from Scalar"
        );
        assert_eq!(
            run.total, run_ref.total,
            "{key}: {backend} counters diverged from Scalar"
        );
        assert_eq!(
            run.cycles, run_ref.cycles,
            "{key}: {backend} cycles diverged from Scalar"
        );
        assert_eq!(
            run.peaks, run_ref.peaks,
            "{key}: {backend} peaks diverged from Scalar"
        );
    }
    let (o, run) = call(&single_core());
    assert_eq!(o.data(), o_ref.data(), "{key}: one core diverged");
    assert_eq!(
        run.total.total_issues(),
        run_ref.total.total_issues(),
        "{key}: one core ran other programs"
    );
    timed_row(key, run_ref.total.total_issues(), run_ref.cycles, call)
}

fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX).max(1)
}

/// Geometric mean of the per-row sliced speedups — the gate's headline
/// number. Individual rows jitter with host load; the geomean over all
/// Table I rows is stable, and any executor regression (the fast paths
/// are shared by every row) moves it.
pub fn geomean_sliced_speedup(rows: &[&Row]) -> f64 {
    geomean(rows, sliced_speedup)
}

/// Geometric mean of one per-row ratio (0 for no rows).
fn geomean(rows: &[&Row], ratio: fn(&Row) -> f64) -> f64 {
    if rows.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = rows.iter().map(|r| ratio(r).ln()).sum();
    (log_sum / rows.len() as f64).exp()
}

/// Compare current host rows against a baseline's. Rows are matched by
/// the generic section comparison (a row on only one side fails);
/// absolute nanoseconds are machine-dependent and never compared. What
/// is gated is the machine-portable sliced speedup ratio:
///
/// * the **geometric mean** speedup over all matched rows falling more
///   than `tolerance` below the baseline's is a regression — every row
///   exercises the same fast paths, so a real executor regression moves
///   the aggregate, while single-row timing jitter does not;
/// * any single row collapsing more than `2 * tolerance` is flagged
///   too — a belt-and-braces bound wide enough to ride out load spikes.
pub fn compare_host(current: &[Row], baseline: &[Row], tolerance: f64) -> Vec<String> {
    let mut regressions = HOST.sections[0].compare(current, baseline, tolerance);
    let (matched_current, matched_base): (Vec<&Row>, Vec<&Row>) = baseline
        .iter()
        .filter_map(|b| current.iter().find(|c| c.key == b.key).map(|c| (c, b)))
        .unzip();
    for (c, b) in matched_current.iter().zip(&matched_base) {
        let (now, base) = (sliced_speedup(c), sliced_speedup(b));
        if base > 0.0 && now < base * (1.0 - 2.0 * tolerance) {
            regressions.push(format!(
                "{} (sliced speedup): {now:.2}x vs baseline {base:.2}x ({:+.1}%)",
                b.key,
                (now / base - 1.0) * 100.0
            ));
        }
    }
    let (now, base) = (
        geomean_sliced_speedup(&matched_current),
        geomean_sliced_speedup(&matched_base),
    );
    if base > 0.0 && now < base * (1.0 - tolerance) {
        regressions.push(format!(
            "geomean sliced speedup: {now:.2}x vs baseline {base:.2}x ({:+.1}%)",
            (now / base - 1.0) * 100.0
        ));
    }
    regressions
}

/// The best-of-N gate loop behind [`run_host`], with the collector
/// injected so tests can pin the retry behaviour without timing
/// anything: each attempt is a full collection + comparison, the first
/// clean attempt wins, and only `attempts` straight losses declare a
/// regression (the last attempt's list is returned).
pub fn run_host_with(
    mut collect: impl FnMut() -> Vec<Row>,
    baseline: &[Row],
    tolerance: f64,
    attempts: usize,
) -> Result<String, Vec<String>> {
    let mut regressions = Vec::new();
    for _ in 0..attempts.max(1) {
        let current = collect();
        regressions = compare_host(&current, baseline, tolerance);
        if regressions.is_empty() {
            return Ok(HOST.render(&[current], None));
        }
    }
    Err(regressions)
}

/// Run the full host gate against [`COMMITTED_HOST_BASELINE`]: collect,
/// compare, and return the rendered `BENCH_host.json` contents on
/// success or the regression list on failure. Because wall time is
/// noisy, up to [`HOST_GATE_RETRIES`] full collections are measured and
/// the first clean one passes.
///
/// On a host without AVX2 and F16C ([`dv_fp16::simd_available`] false)
/// the regression list opens with a line saying so: every row's ratio
/// depends on that path, and the committed baseline was recorded on an
/// AVX2+F16C host. The comparison itself is the same on every host.
pub fn run_host() -> Result<String, Vec<String>> {
    let mut baseline = HOST
        .parse(COMMITTED_HOST_BASELINE)
        .map_err(|e| vec![format!("committed host baseline unreadable: {e}")])?;
    let baseline = baseline.remove(0);
    run_host_with(collect_host, &baseline, HOST_TOLERANCE, HOST_GATE_RETRIES)
        .map_err(|regressions| with_path_note(regressions, dv_fp16::simd_available()))
}

/// The line that opens the regression list on a host without AVX2+F16C.
const PORTABLE_PATH_NOTE: &str = "this host has no AVX2+F16C, so the f16 kernels run \
     their portable path, while the whole committed baseline was recorded on an AVX2+F16C host";

/// `regressions`, opened by [`PORTABLE_PATH_NOTE`] unless the host takes
/// the SIMD path.
fn with_path_note(mut regressions: Vec<String>, simd: bool) -> Vec<String> {
    if !simd {
        regressions.insert(0, PORTABLE_PATH_NOTE.to_string());
    }
    regressions
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hm(key: &str, scalar_ns: u64, sliced_ns: u64) -> Row {
        Row::new(key)
            .with("instructions", 10_000)
            .with("sim_cycles", 97_836)
            .with("scalar_ns", scalar_ns)
            .with("sliced_ns", sliced_ns)
            .with("threaded_ns", sliced_ns / 2 + 1)
            .with("single_core_sliced_ns", sliced_ns)
    }

    #[test]
    fn compare_host_gates_speedup_ratio_not_nanoseconds() {
        let base = vec![hm("host/a", 4_000_000, 1_000_000)]; // 4.0x
                                                             // Twice as slow in absolute terms but the same ratio: a slower
                                                             // machine is not a regression.
        let slower_machine = vec![hm("host/a", 8_000_000, 2_000_000)];
        assert!(compare_host(&slower_machine, &base, HOST_TOLERANCE).is_empty());
        // Ratio within tolerance passes (3.6x vs 4.0x at 15%).
        let noisy = vec![hm("host/a", 3_600_000, 1_000_000)];
        assert!(compare_host(&noisy, &base, HOST_TOLERANCE).is_empty());
        // Ratio collapse fails both the per-row and geomean bounds —
        // e.g. the sliced fast path was reverted.
        let reverted = vec![hm("host/a", 4_000_000, 3_800_000)];
        let regs = compare_host(&reverted, &base, HOST_TOLERANCE);
        assert_eq!(regs.len(), 2);
        assert!(regs.iter().any(|r| r.contains("host/a (sliced speedup)")));
        assert!(regs.iter().any(|r| r.contains("geomean")));
        // Disappeared row fails.
        assert!(compare_host(&[], &base, HOST_TOLERANCE)
            .iter()
            .any(|r| r.contains("disappeared")));
    }

    #[test]
    fn compare_host_rides_out_single_row_jitter() {
        // Three tracked rows at 2.0x. One row loses 20% to a host load
        // spike while the others hold: inside the 2x-tolerance per-row
        // bound, and the geomean barely moves — the gate passes. The
        // deterministic cycle gate would flag this; the host gate must
        // not, or CI flakes.
        let base = vec![
            hm("host/a", 2_000_000, 1_000_000),
            hm("host/b", 2_000_000, 1_000_000),
            hm("host/c", 2_000_000, 1_000_000),
        ];
        let jitter = vec![
            hm("host/a", 2_000_000, 1_250_000), // 1.6x: -20%
            hm("host/b", 2_000_000, 1_000_000),
            hm("host/c", 2_000_000, 1_000_000),
        ];
        assert!(compare_host(&jitter, &base, HOST_TOLERANCE).is_empty());
        // But the same drop on every row is an executor regression and
        // must fail via the geomean bound.
        let real = vec![
            hm("host/a", 2_000_000, 1_250_000),
            hm("host/b", 2_000_000, 1_250_000),
            hm("host/c", 2_000_000, 1_250_000),
        ];
        let regs = compare_host(&real, &base, HOST_TOLERANCE);
        assert_eq!(regs.len(), 1);
        assert!(regs[0].contains("geomean"));
    }

    /// A recorded row holds each wall time's median over the
    /// collections, its speedups derived from those medians, not from any
    /// one collection.
    #[test]
    fn recorded_rows_are_per_column_medians() {
        let collections = [
            vec![hm("host/a", 9_000_000, 1_000_000), hm("host/b", 10, 5)],
            vec![hm("host/a", 4_000_000, 3_000_000), hm("host/b", 30, 5)],
            vec![hm("host/b", 20, 5), hm("host/a", 5_000_000, 2_000_000)],
        ];
        let rows = median_rows(&collections);
        assert_eq!(rows[0], hm("host/a", 5_000_000, 2_000_000));
        assert_eq!(rows[1], hm("host/b", 20, 5));
        assert_eq!(sliced_speedup(&rows[0]), 2.5);
    }

    /// On a host without AVX2+F16C the note opens the regression list;
    /// on one with them the list is left as it is.
    #[test]
    fn the_portable_path_note_opens_the_regression_list() {
        let regressions = vec!["host/a: slower".to_string()];
        assert_eq!(
            with_path_note(regressions.clone(), false),
            [PORTABLE_PATH_NOTE, "host/a: slower"]
        );
        assert_eq!(with_path_note(regressions.clone(), true), regressions);
    }

    #[test]
    fn run_host_with_takes_the_best_of_n_collections() {
        let base = vec![hm("host/a", 4_000_000, 1_000_000)]; // 4.0x
        let noisy = vec![hm("host/a", 4_000_000, 3_800_000)]; // 1.05x: loses
        let quiet = vec![hm("host/a", 4_000_000, 1_050_000)]; // 3.8x: passes

        // Two loaded windows then one quiet one: the third attempt wins
        // and its metrics (not the noisy ones) are what lands in the
        // rendered document.
        let mut calls = 0;
        let doc = run_host_with(
            || {
                calls += 1;
                if calls < 3 {
                    noisy.clone()
                } else {
                    quiet.clone()
                }
            },
            &base,
            HOST_TOLERANCE,
            3,
        )
        .expect("third collection clears the gate");
        assert_eq!(calls, 3);
        assert_eq!(HOST.parse(&doc).unwrap()[0], quiet);

        // A clean first attempt never re-collects.
        let mut calls = 0;
        run_host_with(
            || {
                calls += 1;
                quiet.clone()
            },
            &base,
            HOST_TOLERANCE,
            3,
        )
        .expect("first collection clears the gate");
        assert_eq!(calls, 1);

        // A real regression loses every attempt and surfaces the geomean
        // regression after exactly `attempts` collections.
        let mut calls = 0;
        let regs = run_host_with(
            || {
                calls += 1;
                noisy.clone()
            },
            &base,
            HOST_TOLERANCE,
            3,
        )
        .expect_err("persistent collapse is a regression");
        assert_eq!(calls, 3);
        assert!(regs.iter().any(|r| r.contains("geomean")));
    }

    #[test]
    fn committed_host_baseline_parses_and_clears_the_floor() {
        let base = HOST
            .parse(COMMITTED_HOST_BASELINE)
            .expect("host baseline parses")
            .remove(0);
        assert_eq!(
            base.len(),
            table1_workloads().len() + fig7_workloads().len() + pinned_segments().len(),
            "host baseline must track every Table I workload, Fig. 7 backward and model segment"
        );
        assert!(
            base.iter().any(|m| sliced_speedup(m) >= SLICED_FLOOR),
            "committed host baseline must record the Sliced floor win"
        );
        for m in &base {
            assert!(
                m.int("instructions") > 0 && m.int("sim_cycles") > 0,
                "{}",
                m.key
            );
        }
    }
}
