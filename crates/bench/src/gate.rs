//! The performance-regression gate.
//!
//! The whole point of this repository is the *cycle counts* — a refactor
//! that keeps outputs bit-exact but quietly doubles the simulated cycles
//! of the accelerated kernels has destroyed the artifact without failing
//! a single functional test. This module replays the paper's Fig. 7 and
//! Fig. 8 workloads plus the remaining Table I rows, writes the measured
//! cycles, speedups, and buffer-occupancy peaks to `BENCH_pooling.json`,
//! and compares them against the committed baseline in
//! `crates/bench/baselines/pooling.json`: any tracked metric more than
//! [`TOLERANCE`] worse than the baseline fails the gate (the simulator is
//! deterministic, so honest changes show up as exact deltas).
//!
//! Every cycle column is a dual-pipe makespan; the serial single-issue
//! machine is a test oracle (`tests/perf_gate.rs` pins real
//! `CostModel::single_issue()` runs), not a gate column. Buffer peaks
//! (`ub_peak`, `l1_peak`) come from [`ChipRun::peaks`], so a lowering
//! change that silently grows scratchpad footprints fails the gate
//! alongside cycle regressions.
//!
//! The `scaling` section tracks the chip-sharding path: every Fig. 7
//! shape's Im2col forward under [`PoolingEngine::with_sharding`] at
//! 1/2/8/32 cores, under both the independent memory model and the
//! shared-HBM contention stage ([`MemoryModel::ascend910_hbm`]).
//! [`collect_scaling`] asserts in-run that outputs are bit-identical at
//! every core count and in both memory models, that speedup is monotone
//! in the core count, that it stays sub-linear (no free cycles — an
//! `n`-core run can never beat `1/n` of the serial cycles), and that
//! contention degrades each core by at most the fair-share factor
//! `active_cores * per_core_peak / shared_bandwidth`. The per-core-count
//! cycle columns are then gated against the committed baseline exactly
//! like the `metrics` rows.
//!
//! The `tuner` section tracks the algorithm auto-tuner
//! ([`PoolingEngine::with_auto_tuning`]): per tracked workload, which
//! algorithm [`choose_forward_algorithm`] / [`choose_backward_algorithm`]
//! picked, its predicted and measured cycles, and each forced
//! alternative's measured cycles. [`collect_tuner`] asserts the
//! prediction-honesty contract in-run — the tuned run never falls back,
//! never books an uncertified win (`tuner_mispredicted == 0`), is
//! bit-identical to every forced algorithm, and is never slower than any
//! of them — and pins the Fig. 8 crossover as tuner *choices*: stride
//! (1, 1) auto-selects the direct reduction, stride (2, 2) im2col.
//! [`compare_tuner`] additionally fails the gate when a chosen algorithm
//! flips against the committed baseline.
//!
//! When a cost-model or lowering change moves cycles *intentionally*,
//! regenerate the baseline with
//! `cargo run --release -p dv-bench --bin repro -- gate` and commit the
//! refreshed `pooling.json` alongside the change.

use crate::inputs::{feature_map, gradients, plane};
use crate::json;
use dv_core::{
    choose_backward_algorithm, choose_forward_algorithm, fig7_workloads, table1_workloads,
    tiling_threshold, ForwardImpl, MergeImpl, PoolProblem, PoolingEngine,
};
use dv_isa::BufferId;
use dv_sim::{Chip, ChipRun, CostModel, MemoryModel};
use dv_tensor::{reference, PoolParams};
use dv_tensor::{Nc1hwc0, PatchTensor};
use std::fmt::Write as _;

/// Relative slowdown tolerated before the gate fails (5%).
pub const TOLERANCE: f64 = 0.05;

/// The committed baseline (regenerate via `repro -- gate` when a change
/// legitimately moves cycles).
pub const COMMITTED_BASELINE: &str = include_str!("../baselines/pooling.json");

/// One tracked workload: cycles for the baseline implementation and for
/// the paper's accelerated implementation, single- and double-buffered,
/// plus scratchpad occupancy ceilings.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Metric {
    /// Stable identifier, e.g. `fig7a/147x147x64` or `fig8s2/24x24`.
    pub key: String,
    /// Dual-pipe cycles of the standard (non-accelerated) implementation.
    pub standard_cycles: u64,
    /// Dual-pipe cycles of the Im2col/Col2Im-accelerated implementation.
    pub accelerated_cycles: u64,
    /// Dual-pipe cycles of the standard implementation with
    /// double-buffered row-band prefetch (equals `standard_cycles` when
    /// the workload fits a single band).
    pub standard_cycles_db: u64,
    /// Dual-pipe cycles of the accelerated implementation with
    /// double-buffered row-band prefetch.
    pub accelerated_cycles_db: u64,
    /// Peak Unified Buffer occupancy in bytes (max over both
    /// implementations).
    pub ub_peak: u64,
    /// Peak L1 buffer occupancy in bytes (max over both implementations).
    pub l1_peak: u64,
    /// Peak UB occupancy of the double-buffered runs — bounded by twice
    /// the single-buffered band footprint.
    pub ub_peak_db: u64,
    /// Peak L1 occupancy of the double-buffered runs.
    pub l1_peak_db: u64,
}

impl Metric {
    /// Dual-pipe speedup of the accelerated implementation
    /// (standard / accelerated).
    pub fn speedup(&self) -> f64 {
        self.standard_cycles as f64 / self.accelerated_cycles as f64
    }

    /// Dual-pipe speedup with double-buffered row-band prefetch.
    pub fn speedup_db(&self) -> f64 {
        self.standard_cycles_db as f64 / self.accelerated_cycles_db as f64
    }
}

/// Core counts the scaling gate sweeps — serial (1), under-subscribed
/// plane parallelism (2), the regime where band splitting starts paying
/// (8), and the full chip where 32 concurrent MTE streams oversubscribe
/// the shared HBM pipe by 4x (32 cores x 32 B/cyc vs 256 B/cyc).
pub const SCALING_CORES: [usize; 4] = [1, 2, 8, 32];

/// One scaling-gate row: a Fig. 7 shape's sharded Im2col forward at one
/// core count, measured under both memory models.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScalingMetric {
    /// Stable identifier, e.g. `scaling/147x147x64/c8`.
    pub key: String,
    /// Core count of the chip this row ran on.
    pub cores: u64,
    /// Dual-pipe chip cycles under [`MemoryModel::Independent`] (every
    /// core sees its full MTE bandwidth).
    pub cycles: u64,
    /// Dual-pipe chip cycles with the shared-HBM contention stage
    /// ([`MemoryModel::ascend910_hbm`]) booked on top.
    pub cycles_contended: u64,
    /// Contention stalls summed over all cores in the contended run.
    pub contention_stalls: u64,
}

impl ScalingMetric {
    /// Degradation the shared-bandwidth stage charged on this row
    /// (1.0 = bandwidth was never the bottleneck).
    pub fn contention_factor(&self) -> f64 {
        self.cycles_contended as f64 / self.cycles as f64
    }
}

/// Replay the Fig. 7 forward workloads through the sharded engine at
/// every [`SCALING_CORES`] count and measure the scaling curve.
///
/// Asserts the tentpole's correctness contract in-run:
///
/// * outputs are **bit-identical** at every core count and under both
///   memory models (sharding and contention are pure scheduling);
/// * independent-model cycles are **monotone non-increasing** in the
///   core count (more cores never hurt — the partition chooser can
///   always keep the narrower plan);
/// * speedup stays **sub-linear**: `cycles(n) * n >= cycles(1)` — work
///   is conserved, cores only divide it;
/// * contention is **bounded**: each core's stall keeps it within the
///   fair-share factor `max(1, active * per_core_peak / shared)` of its
///   uncontended makespan, so the shared pipe degrades but never
///   livelocks a core.
pub fn collect_scaling() -> Vec<ScalingMetric> {
    let mut out = Vec::new();
    let cost = CostModel::ascend910_like();
    let MemoryModel::SharedBandwidth {
        bytes_per_cycle: shared,
    } = MemoryModel::ascend910_hbm()
    else {
        unreachable!("ascend910_hbm is a shared-bandwidth model");
    };
    for w in fig7_workloads() {
        let shape = format!("{}x{}x{}", w.h, w.w, w.c);
        let input = feature_map(1, w.c, w.h, w.w, 71);
        let mut serial_cycles = 0u64;
        let mut prev_cycles = u64::MAX;
        let mut reference_out = None;
        for &cores in &SCALING_CORES {
            let eng = PoolingEngine::new(Chip::new(cores, cost)).with_sharding(true);
            let eng_c = PoolingEngine::new(
                Chip::new(cores, cost).with_memory(MemoryModel::ascend910_hbm()),
            )
            .with_sharding(true);
            let (o, run) = eng
                .maxpool_forward(&input, w.params, ForwardImpl::Im2col)
                .expect("scaling im2col");
            let (o_c, run_c) = eng_c
                .maxpool_forward(&input, w.params, ForwardImpl::Im2col)
                .expect("scaling im2col contended");
            assert_eq!(
                o.data(),
                o_c.data(),
                "scaling/{shape}/c{cores}: contention stage changed the output"
            );
            match &reference_out {
                None => {
                    reference_out = Some(o.data().to_vec());
                    serial_cycles = run.cycles;
                }
                Some(r) => assert_eq!(
                    o.data(),
                    &r[..],
                    "scaling/{shape}/c{cores}: sharding changed the output"
                ),
            }
            assert!(
                run.cycles <= prev_cycles,
                "scaling/{shape}/c{cores}: speedup must be monotone in the \
                 core count ({} cycles vs {} with fewer cores)",
                run.cycles,
                prev_cycles
            );
            prev_cycles = run.cycles;
            assert!(
                run.cycles * cores as u64 >= serial_cycles,
                "scaling/{shape}/c{cores}: super-linear speedup is a cost-model \
                 bug ({} x {cores} < serial {serial_cycles})",
                run.cycles
            );
            // Bounded degradation: per core, the booked stall keeps the
            // core within the fair-share factor of its uncontended
            // makespan (+1 for the stall rounding).
            let active = run_c.core_cycles.len() as u64;
            let factor = ((active * cost.move_bytes_per_cycle) as f64 / shared as f64).max(1.0);
            for (c, &cc) in run_c.per_core.iter().zip(&run_c.core_cycles) {
                let uncontended = cc - c.contention_stalls;
                assert!(
                    cc as f64 <= factor * uncontended as f64 + 1.0,
                    "scaling/{shape}/c{cores}: contention stall exceeds the \
                     fair-share bound ({cc} vs {factor:.2} x {uncontended})"
                );
            }
            out.push(ScalingMetric {
                key: format!("scaling/{shape}/c{cores}"),
                cores: cores as u64,
                cycles: run.cycles,
                cycles_contended: run_c.cycles,
                contention_stalls: run_c.total.contention_stalls,
            });
        }
    }
    out
}

/// One backward-scaling row: a Fig. 7 shape's Col2Im backward through
/// the sharded engine at one core count, measured under the independent
/// memory model and under the per-plane L2 locality stage
/// ([`MemoryModel::ascend910_l2`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BackwardScalingMetric {
    /// Stable identifier, e.g. `scaling-backward/147x147x64/c8`.
    pub key: String,
    /// Core count of the chip this row ran on.
    pub cores: u64,
    /// Dual-pipe chip cycles under [`MemoryModel::Independent`].
    pub cycles: u64,
    /// Dual-pipe chip cycles under the shared-HBM + L2 stage.
    pub cycles_l2: u64,
    /// L2 line hits booked in the L2-model run — strictly positive
    /// exactly when same-plane shards shared input lines, i.e. the run
    /// moved strictly fewer HBM bytes than the per-plane plan would.
    pub l2_hits: u64,
    /// Stall cycles charged for L2 misses in the L2-model run.
    pub l2_miss_stalls: u64,
    /// GM bytes the backward pass moved (backend- and model-invariant).
    pub gm_bytes: u64,
    /// 1 when the cost-model partitioner chose the sub-plane
    /// ([`dv_core::PartitionAxis::PerRowBand`]) plan for this row, 0 when
    /// it kept per-plane sharding. A flip against the baseline fails the
    /// gate like a tuner choice flip.
    pub sharded: u64,
    /// Sharded-lowering declines booked as
    /// [`tuner_fallbacks`](dv_sim::HwCounters::tuner_fallbacks) —
    /// asserted zero in-run on every tracked row.
    pub declines: u64,
}

impl BackwardScalingMetric {
    /// Degradation the shared-bandwidth + L2 stage charged on this row
    /// (1.0 = memory was never the bottleneck).
    pub fn l2_factor(&self) -> f64 {
        self.cycles_l2 as f64 / self.cycles.max(1) as f64
    }
}

/// Replay the Fig. 7 backward (Fig. 7c) workloads through the sharded
/// engine at every [`SCALING_CORES`] count, under both the independent
/// memory model and the L2 locality stage.
///
/// Asserts the halo-merge tentpole's contract in-run:
///
/// * gradients are **bit-identical** at every core count, under both
///   memory models, and to `dv_tensor::reference::maxpool_backward` —
///   halo-merge sharding is pure scheduling;
/// * independent-model cycles are **monotone non-increasing** in the
///   core count and speedup stays **sub-linear**
///   (`cycles(n) * n >= cycles(1)`), including across the switch to
///   sub-plane shards;
/// * nothing declines and nothing goes uncertified on a tracked row
///   (`tuner_fallbacks == 0`, `tuner_mispredicted == 0`) — the
///   partitioner only picks sub-plane splits it can actually lower;
/// * whenever the sub-plane plan is chosen under the L2 model, the run
///   books **`l2_hits > 0`**: row-band shards of one plane re-read
///   overlapping gradient/mask rows from the L2 instead of the HBM, so
///   the sharded plan moves strictly fewer HBM bytes than per-plane.
pub fn collect_backward_scaling() -> Vec<BackwardScalingMetric> {
    use dv_core::{choose_backward_partition, PartitionAxis, PoolProblem};
    let mut out = Vec::new();
    let cost = CostModel::ascend910_like();
    for w in fig7_workloads() {
        let shape = format!("{}x{}x{}", w.h, w.w, w.c);
        let input = feature_map(1, w.c, w.h, w.w, 73);
        let mask = reference::maxpool_argmax_mask(&input, &w.params).expect("mask");
        let (oh, ow) = w.out_dims();
        let grads = gradients(1, input.c1, oh, ow, 74);
        let want =
            reference::maxpool_backward(&mask, &grads, &w.params, w.h, w.w).expect("reference dx");
        let mut serial_cycles = 0u64;
        let mut prev_cycles = u64::MAX;
        for &cores in &SCALING_CORES {
            let key = format!("scaling-backward/{shape}/c{cores}");
            let eng = PoolingEngine::new(Chip::new(cores, cost)).with_sharding(true);
            let eng_l2 =
                PoolingEngine::new(Chip::new(cores, cost).with_memory(MemoryModel::ascend910_l2()))
                    .with_sharding(true);
            let (dx, run) = eng
                .maxpool_backward(&mask, &grads, w.params, w.h, w.w, MergeImpl::Col2Im)
                .expect("backward scaling");
            let (dx_l2, run_l2) = eng_l2
                .maxpool_backward(&mask, &grads, w.params, w.h, w.w, MergeImpl::Col2Im)
                .expect("backward scaling l2");
            assert_eq!(
                dx.data(),
                want.data(),
                "{key}: sharded backward diverged from the reference"
            );
            assert_eq!(
                dx.data(),
                dx_l2.data(),
                "{key}: the L2 stage changed the gradient"
            );
            if cores == SCALING_CORES[0] {
                serial_cycles = run.cycles;
            }
            assert!(
                run.cycles <= prev_cycles,
                "{key}: backward speedup must be monotone in the core count \
                 ({} cycles vs {} with fewer cores)",
                run.cycles,
                prev_cycles
            );
            prev_cycles = run.cycles;
            assert!(
                run.cycles * cores as u64 >= serial_cycles,
                "{key}: super-linear backward speedup is a cost-model bug \
                 ({} x {cores} < serial {serial_cycles})",
                run.cycles
            );
            for r in [&run, &run_l2] {
                assert_eq!(
                    (r.total.tuner_fallbacks, r.total.tuner_mispredicted),
                    (0, 0),
                    "{key}: a tracked backward row may neither decline nor go \
                     uncertified"
                );
            }
            let prob = PoolProblem::new(1, input.c1, w.h, w.w, w.params).expect("backward problem");
            let sharded_l2 = choose_backward_partition(
                &prob,
                MergeImpl::Col2Im,
                true,
                cores,
                &eng_l2.schedule(),
                eng_l2.chip.caps,
                eng_l2.shared_bandwidth(),
            ) == PartitionAxis::PerRowBand;
            if sharded_l2 {
                assert!(
                    run_l2.total.l2_hits > 0,
                    "{key}: same-plane shards must serve overlapping input rows \
                     from the L2 (zero hits booked)"
                );
            }
            let sharded = choose_backward_partition(
                &prob,
                MergeImpl::Col2Im,
                true,
                cores,
                &eng.schedule(),
                eng.chip.caps,
                eng.shared_bandwidth(),
            ) == PartitionAxis::PerRowBand;
            out.push(BackwardScalingMetric {
                key,
                cores: cores as u64,
                cycles: run.cycles,
                cycles_l2: run_l2.cycles,
                l2_hits: run_l2.total.l2_hits,
                l2_miss_stalls: run_l2.total.l2_miss_stalls,
                gm_bytes: run.total.gm_bytes,
                sharded: u64::from(sharded),
                declines: run.total.tuner_fallbacks,
            });
        }
    }
    out
}

/// One auto-tuner row: which algorithm [`choose_forward_algorithm`] /
/// [`choose_backward_algorithm`] picked for a tracked workload, its
/// predicted and measured cycles, and the measured cycles of each forced
/// alternative (0 = that alternative cannot lower the workload).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TunerMetric {
    /// Stable identifier, e.g. `tuner/fig8s2/24x24`.
    pub key: String,
    /// Label of the algorithm the tuner dispatched (`direct`, `im2col`,
    /// `fold`).
    pub chosen: String,
    /// The tuner's pre-run cycle prediction for the chosen algorithm.
    pub predicted_cycles: u64,
    /// Measured dual-pipe cycles of the tuned run.
    pub tuned_cycles: u64,
    /// Measured cycles of the forced direct-reduction run (0 when the
    /// direct lowering is infeasible for this workload).
    pub direct_cycles: u64,
    /// Measured cycles of the forced im2col run.
    pub im2col_cycles: u64,
}

/// Measure one forward tuner row and certify the prediction-honesty
/// contract in-run: on a tracked workload the tuner must not fall back,
/// its win must certify against every alternative's cycle floor
/// (`tuner_mispredicted == 0`), the tuned output must be bit-identical
/// to every forced algorithm's, and the tuned makespan must not exceed
/// any forced alternative's.
fn tuner_forward_row(
    key: String,
    eng: &PoolingEngine,
    input: &Nc1hwc0,
    (c1, h, w): (usize, usize, usize),
    params: PoolParams,
) -> TunerMetric {
    let prob = PoolProblem::new(1, c1, h, w, params).expect("tuner problem");
    let choice = choose_forward_algorithm(
        &prob,
        false,
        false,
        eng.chip.cores,
        &eng.schedule(),
        eng.chip.caps,
        None,
    );
    let winner = choice.winner().expect("tuner must rank a candidate");
    let (o_t, run) = eng
        .clone()
        .with_auto_tuning(true)
        .maxpool_forward(input, params, ForwardImpl::Standard)
        .expect("tuned forward");
    assert_eq!(
        run.total.tuner_fallbacks, 0,
        "{key}: tuner fell back on a tracked row"
    );
    assert_eq!(
        run.total.tuner_mispredicted, 0,
        "{key}: the tuner's win could not be certified on a tracked row"
    );
    let mut cycles = [0u64; 2];
    for (slot, impl_) in [ForwardImpl::Standard, ForwardImpl::Im2col]
        .into_iter()
        .enumerate()
    {
        if let Ok((o, r)) = eng.maxpool_forward(input, params, impl_) {
            assert_eq!(
                o_t.data(),
                o.data(),
                "{key}: tuned output diverged from forced {impl_:?}"
            );
            assert!(
                run.cycles <= r.cycles,
                "{key}: tuned run ({} cycles) lost to forced {impl_:?} ({} cycles)",
                run.cycles,
                r.cycles
            );
            cycles[slot] = r.cycles;
        }
    }
    TunerMetric {
        key,
        chosen: winner.label().to_string(),
        predicted_cycles: choice.predicted(winner).unwrap_or(0),
        tuned_cycles: run.cycles,
        direct_cycles: cycles[0],
        im2col_cycles: cycles[1],
    }
}

/// Measure one backward tuner row with the same in-run certification as
/// [`tuner_forward_row`]: `direct` is the scattered-vadd merge, `im2col`
/// the Col2Im merge.
fn tuner_backward_row(
    key: String,
    eng: &PoolingEngine,
    mask: &PatchTensor,
    grads: &Nc1hwc0,
    (c1, h, w): (usize, usize, usize),
    params: PoolParams,
) -> TunerMetric {
    let prob = PoolProblem::new(1, c1, h, w, params).expect("tuner problem");
    let choice = choose_backward_algorithm(
        &prob,
        true,
        eng.chip.cores,
        &eng.schedule(),
        eng.chip.caps,
        None,
    );
    let winner = choice.winner().expect("tuner must rank a candidate");
    let (dx_t, run) = eng
        .clone()
        .with_auto_tuning(true)
        .maxpool_backward(mask, grads, params, h, w, MergeImpl::VAdd)
        .expect("tuned backward");
    assert_eq!(
        run.total.tuner_fallbacks, 0,
        "{key}: tuner fell back on a tracked row"
    );
    assert_eq!(
        run.total.tuner_mispredicted, 0,
        "{key}: the tuner's win could not be certified on a tracked row"
    );
    let mut cycles = [0u64; 2];
    for (slot, merge) in [MergeImpl::VAdd, MergeImpl::Col2Im].into_iter().enumerate() {
        if let Ok((dx, r)) = eng.maxpool_backward(mask, grads, params, h, w, merge) {
            assert_eq!(
                dx_t.data(),
                dx.data(),
                "{key}: tuned gradient diverged from forced {merge:?}"
            );
            assert!(
                run.cycles <= r.cycles,
                "{key}: tuned run ({} cycles) lost to forced {merge:?} ({} cycles)",
                run.cycles,
                r.cycles
            );
            cycles[slot] = r.cycles;
        }
    }
    TunerMetric {
        key,
        chosen: winner.label().to_string(),
        predicted_cycles: choice.predicted(winner).unwrap_or(0),
        tuned_cycles: run.cycles,
        direct_cycles: cycles[0],
        im2col_cycles: cycles[1],
    }
}

/// Replay the tracked workloads through the auto-tuned engine and record
/// which algorithm it chose per row, with the prediction-honesty
/// contract asserted in-run ([`tuner_forward_row`]). Two choices are
/// pinned here because they *are* the paper's Fig. 8 crossover: stride
/// (1, 1) must auto-select the direct reduction and stride (2, 2) must
/// auto-select im2col. The backward tuner must route every Fig. 7 shape
/// through the Col2Im merge — the paper's Section V-B claim.
pub fn collect_tuner() -> Vec<TunerMetric> {
    let mut out = Vec::new();
    let eng = PoolingEngine::ascend910();
    for w in fig7_workloads() {
        let shape = format!("{}x{}x{}", w.h, w.w, w.c);
        let input = feature_map(1, w.c, w.h, w.w, 71);
        let dims = (input.c1, w.h, w.w);
        out.push(tuner_forward_row(
            format!("tuner/fig7a/{shape}"),
            &eng,
            &input,
            dims,
            w.params,
        ));

        let input = feature_map(1, w.c, w.h, w.w, 73);
        let mask = reference::maxpool_argmax_mask(&input, &w.params).expect("mask");
        let (oh, ow) = w.out_dims();
        let grads = gradients(1, input.c1, oh, ow, 74);
        let m = tuner_backward_row(
            format!("tuner/fig7c/{shape}"),
            &eng,
            &mask,
            &grads,
            dims,
            w.params,
        );
        assert_eq!(
            m.chosen, "im2col",
            "{}: the backward tuner must route the paper shapes through Col2Im",
            m.key
        );
        out.push(m);
    }

    for stride in 1usize..=3 {
        let params = PoolParams::new((3, 3), (stride, stride));
        let eng1 = PoolingEngine::new(Chip::new(1, CostModel::ascend910_like()));
        let threshold = [ForwardImpl::Standard, ForwardImpl::Im2col]
            .iter()
            .map(|i| tiling_threshold(&params, *i, eng1.chip.caps))
            .min()
            .unwrap();
        for hw in [16usize, 24, 32] {
            if hw > threshold {
                continue;
            }
            let input = plane(1, hw, hw, 80 + hw as u32);
            let m = tuner_forward_row(
                format!("tuner/fig8s{stride}/{hw}x{hw}"),
                &eng1,
                &input,
                (1, hw, hw),
                params,
            );
            match stride {
                1 => assert_eq!(
                    m.chosen, "direct",
                    "{}: stride (1,1) must auto-select the direct reduction \
                     (the Fig. 8a crossover)",
                    m.key
                ),
                2 => assert_eq!(
                    m.chosen, "im2col",
                    "{}: stride (2,2) must auto-select im2col (the Fig. 8b \
                     crossover)",
                    m.key
                ),
                _ => {}
            }
            out.push(m);
        }
    }

    for w in table1_workloads()
        .into_iter()
        .filter(|w| !w.evaluated_in_fig7)
    {
        let shape = format!("{}x{}x{}", w.h, w.w, w.c);
        let input = feature_map(1, w.c, w.h, w.w, 75);
        out.push(tuner_forward_row(
            format!("tuner/table1/{}-{}/{shape}", w.cnn, w.input_idx),
            &eng,
            &input,
            (input.c1, w.h, w.w),
            w.params,
        ));
    }
    out
}

/// One whole-model row: a pinned conv→pool segment
/// ([`dv_nn::pinned_segments`]) run end-to-end through
/// [`dv_nn::Sequential`], layer-at-a-time vs fused (UB tile handoff),
/// plus the conv layer alone under both im2col lowerings.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ModelMetric {
    /// Stable identifier, e.g. `model/vgg16-seg`.
    pub key: String,
    /// Total dual-pipe cycles of the layer-at-a-time forward pass.
    pub layered_cycles: u64,
    /// Total dual-pipe cycles of the fused (tile-handoff) forward pass.
    pub fused_cycles: u64,
    /// Cycles of the segment's conv layer under the materialised im2col
    /// lowering (full column buffer staged in L1).
    pub conv_materialised_cycles: u64,
    /// Cycles of the same conv under the implicit im2col lowering
    /// (fractal expansions emitted on demand per output tile).
    pub conv_implicit_cycles: u64,
    /// L1 high-water mark of the materialised conv run.
    pub l1_peak_materialised: u64,
    /// L1 high-water mark of the implicit conv run — the gate asserts
    /// this is *strictly* below the materialised peak on every pinned
    /// segment.
    pub l1_peak_implicit: u64,
    /// GM bytes moved by the layered composition (conv run + pool run —
    /// the intermediate tensor round-trips through GM).
    pub gm_bytes_layered: u64,
    /// GM bytes moved by the fused segment (intermediate stays resident
    /// in UB) — asserted strictly below the layered traffic.
    pub gm_bytes_fused: u64,
    /// UB high-water mark of the fused run (resident conv planes plus
    /// pooled staging).
    pub ub_peak_fused: u64,
}

impl ModelMetric {
    /// What the tile handoff buys end-to-end (layered / fused cycles).
    pub fn fused_gain(&self) -> f64 {
        self.layered_cycles as f64 / self.fused_cycles.max(1) as f64
    }

    /// How much of the materialised L1 working set the implicit
    /// lowering keeps (implicit / materialised peaks; < 1.0 = shrink).
    pub fn l1_shrink(&self) -> f64 {
        self.l1_peak_implicit as f64 / self.l1_peak_materialised.max(1) as f64
    }
}

/// Run both pinned model segments end-to-end and measure them, with the
/// whole-model correctness contract asserted in-run:
///
/// * the layered and fused passes are **bit-identical** to
///   [`dv_nn::reference_forward`] (the fused consumer replays the golden
///   reduction order, so no tolerance is needed or granted);
/// * the implicit conv lowering is bit-identical to the materialised
///   one, **never slower**, and holds a **strictly smaller** L1 working
///   set — on the InceptionV3 segment this covers the multi-band walk
///   (its 35×35 output overflows the single-band L0C accumulator pin);
/// * the fused segment moves **strictly fewer GM bytes** than the
///   layered composition (the round-trip is the thing being deleted);
/// * nothing declines on a pinned segment: every fallback counter
///   (`implicit_declines`, `fusion_declines`) must read zero.
pub fn collect_model() -> Vec<ModelMetric> {
    use dv_conv::{run_conv2d_with, ConvLowering};
    use dv_nn::{reference_forward, run_fused_conv_pool, FusionPolicy, PoolKind, Sequential};

    let mut out = Vec::new();
    for seg in dv_nn::pinned_segments() {
        let key = format!("model/{}", seg.name);
        let dv_nn::Layer::Conv2d {
            weights,
            params: conv_params,
        } = &seg.layers[0]
        else {
            panic!("{key}: pinned segment must start with a conv layer");
        };
        let dv_nn::Layer::MaxPool2d {
            params: pool_params,
            ..
        } = &seg.layers[1]
        else {
            panic!("{key}: pinned segment must end with a maxpool layer");
        };

        // The conv layer alone, both lowerings, one core.
        let chip = Chip::new(1, CostModel::ascend910_like());
        let (o_m, run_m) = run_conv2d_with(
            &seg.input,
            weights,
            conv_params,
            &chip,
            ConvLowering::Materialised,
        )
        .expect("materialised conv");
        let (o_i, run_i) = run_conv2d_with(
            &seg.input,
            weights,
            conv_params,
            &chip,
            ConvLowering::Implicit,
        )
        .expect("implicit conv");
        assert_eq!(
            o_i.data(),
            o_m.data(),
            "{key}: implicit lowering changed the conv output"
        );
        assert_eq!(
            run_i.total.implicit_declines + run_m.total.implicit_declines,
            0,
            "{key}: a forced lowering may not book declines"
        );
        assert!(
            run_i.cycles <= run_m.cycles,
            "{key}: implicit im2col may not cost cycles ({} vs {})",
            run_i.cycles,
            run_m.cycles
        );
        assert!(
            run_i.peaks.of(BufferId::L1) < run_m.peaks.of(BufferId::L1),
            "{key}: implicit im2col must hold a strictly smaller L1 working set \
             ({} vs {})",
            run_i.peaks.of(BufferId::L1),
            run_m.peaks.of(BufferId::L1)
        );

        // The fused segment vs the layered composition, for GM traffic.
        let (o_f, run_f) = run_fused_conv_pool(
            &chip,
            &seg.input,
            weights,
            conv_params,
            PoolKind::Max,
            pool_params,
            ConvLowering::Auto,
        )
        .expect("fused segment");
        assert_eq!(
            run_f.total.implicit_declines, 0,
            "{key}: the fused segment may not decline on a pinned shape"
        );
        let eng = PoolingEngine::new(Chip::new(1, CostModel::ascend910_like()));
        let (mut o_p, run_p) = eng
            .maxpool_forward(&o_m.to_nc1hwc0(), *pool_params, ForwardImpl::Im2col)
            .expect("layered pool");
        o_p.orig_c = weights.n;
        assert_eq!(
            o_f.data(),
            o_p.to_nchw().data(),
            "{key}: fused segment diverged from the layered composition"
        );
        let gm_bytes_layered = run_m.total.gm_bytes + run_p.total.gm_bytes;
        assert!(
            run_f.total.gm_bytes < gm_bytes_layered,
            "{key}: the handoff must move strictly fewer GM bytes ({} vs {})",
            run_f.total.gm_bytes,
            gm_bytes_layered
        );

        // Whole-model parity through Sequential, against the golden
        // reference.
        let model = Sequential::with_layers(
            PoolingEngine::new(Chip::new(1, CostModel::ascend910_like())),
            seg.layers.clone(),
        );
        let want = reference_forward(&model, &seg.input).expect("reference forward");
        let (layered_out, layered_run) = model.forward(&seg.input).expect("layered forward");
        let (fused_out, fused_run) = model
            .forward_fused_with(&seg.input, FusionPolicy::HandoffOnly)
            .expect("fused forward");
        assert_eq!(
            layered_out.data(),
            want.data(),
            "{key}: layered pass diverged from the reference"
        );
        assert_eq!(
            fused_out.data(),
            want.data(),
            "{key}: fused pass diverged from the reference"
        );
        assert_eq!(
            (fused_run.fused_segments(), fused_run.fusion_declines),
            (1, 0),
            "{key}: the pinned segment must fuse via the handoff"
        );

        out.push(ModelMetric {
            key,
            layered_cycles: layered_run.total_cycles(),
            fused_cycles: fused_run.total_cycles(),
            conv_materialised_cycles: run_m.cycles,
            conv_implicit_cycles: run_i.cycles,
            l1_peak_materialised: run_m.peaks.of(BufferId::L1) as u64,
            l1_peak_implicit: run_i.peaks.of(BufferId::L1) as u64,
            gm_bytes_layered,
            gm_bytes_fused: run_f.total.gm_bytes,
            ub_peak_fused: run_f.peaks.of(BufferId::Ub) as u64,
        });
    }
    out
}

/// Parse the `model` section of a `BENCH_pooling.json`-format document.
/// A baseline committed before whole-model tracking has no section and
/// parses as the empty list — [`compare_model`] then treats every
/// current row as a new ceiling.
pub fn parse_model(doc: &str) -> Result<Vec<ModelMetric>, String> {
    let v = json::parse(doc).map_err(|e| e.to_string())?;
    let Some(arr) = v.get("model").and_then(|m| m.as_arr()) else {
        return Ok(Vec::new());
    };
    let field = |m: &json::Value, name: &'static str| {
        m.get(name)
            .and_then(|c| c.as_u64())
            .ok_or(format!("model row missing \"{name}\""))
    };
    arr.iter()
        .map(|m| {
            Ok(ModelMetric {
                key: m
                    .get("key")
                    .and_then(|k| k.as_str())
                    .ok_or("model row missing \"key\"".to_string())?
                    .to_string(),
                layered_cycles: field(m, "layered_cycles")?,
                fused_cycles: field(m, "fused_cycles")?,
                conv_materialised_cycles: field(m, "conv_materialised_cycles")?,
                conv_implicit_cycles: field(m, "conv_implicit_cycles")?,
                l1_peak_materialised: field(m, "l1_peak_materialised")?,
                l1_peak_implicit: field(m, "l1_peak_implicit")?,
                gm_bytes_layered: field(m, "gm_bytes_layered")?,
                gm_bytes_fused: field(m, "gm_bytes_fused")?,
                ub_peak_fused: field(m, "ub_peak_fused")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()
}

/// Compare current model rows against a baseline's. Flags a tracked row
/// that disappeared, or any cycle/traffic/peak column more than
/// `tolerance` worse. New rows pass — they are fresh ceilings.
pub fn compare_model(
    current: &[ModelMetric],
    baseline: &[ModelMetric],
    tolerance: f64,
) -> Vec<String> {
    let mut regressions = Vec::new();
    for b in baseline {
        let Some(c) = current.iter().find(|c| c.key == b.key) else {
            regressions.push(format!("{}: tracked model row disappeared", b.key));
            continue;
        };
        for (what, now, base) in [
            ("layered", c.layered_cycles, b.layered_cycles),
            ("fused", c.fused_cycles, b.fused_cycles),
            (
                "conv materialised",
                c.conv_materialised_cycles,
                b.conv_materialised_cycles,
            ),
            (
                "conv implicit",
                c.conv_implicit_cycles,
                b.conv_implicit_cycles,
            ),
            (
                "L1 peak materialised",
                c.l1_peak_materialised,
                b.l1_peak_materialised,
            ),
            ("L1 peak implicit", c.l1_peak_implicit, b.l1_peak_implicit),
            ("GM bytes layered", c.gm_bytes_layered, b.gm_bytes_layered),
            ("GM bytes fused", c.gm_bytes_fused, b.gm_bytes_fused),
            ("UB peak fused", c.ub_peak_fused, b.ub_peak_fused),
        ] {
            let ratio = now as f64 / base.max(1) as f64;
            if base > 0 && ratio > 1.0 + tolerance {
                regressions.push(format!(
                    "{} ({what}): {now} vs baseline {base} ({:+.1}%)",
                    b.key,
                    (ratio - 1.0) * 100.0
                ));
            }
        }
    }
    regressions
}

fn metric(key: String, std: &ChipRun, acc: &ChipRun, std_db: &ChipRun, acc_db: &ChipRun) -> Metric {
    let m = Metric {
        key,
        standard_cycles: std.cycles,
        accelerated_cycles: acc.cycles,
        standard_cycles_db: std_db.cycles,
        accelerated_cycles_db: acc_db.cycles,
        ub_peak: std.peaks.of(BufferId::Ub).max(acc.peaks.of(BufferId::Ub)) as u64,
        l1_peak: std.peaks.of(BufferId::L1).max(acc.peaks.of(BufferId::L1)) as u64,
        ub_peak_db: std_db
            .peaks
            .of(BufferId::Ub)
            .max(acc_db.peaks.of(BufferId::Ub)) as u64,
        l1_peak_db: std_db
            .peaks
            .of(BufferId::L1)
            .max(acc_db.peaks.of(BufferId::L1)) as u64,
    };
    // The ping-pong layout may double the band-cycled regions but never
    // more: the planner sizes bands so 2x the footprint fits.
    assert!(
        m.ub_peak_db <= 2 * m.ub_peak && m.l1_peak_db <= 2 * m.l1_peak.max(1),
        "{}: double-buffered peaks exceed the 2x band-footprint budget \
         (UB {} vs {}, L1 {} vs {})",
        m.key,
        m.ub_peak_db,
        m.ub_peak,
        m.l1_peak_db,
        m.l1_peak
    );
    m
}

/// Replay every tracked workload and measure it.
///
/// Covers all Fig. 7 shapes (forward, forward+argmax, backward — the
/// three bold InceptionV3 rows of Table I on the 32-core chip), the
/// Fig. 8 stride study (strides 1–3 on one core at fixed sizes below the
/// tiling threshold), and the ten remaining Table I rows (forward only,
/// both implementations), so every published workload's cycle counts and
/// buffer ceilings are under regression tracking. Inputs reuse the
/// experiment seeds, so cycle counts match the corresponding
/// `experiments::*` tables exactly.
pub fn collect() -> Vec<Metric> {
    let mut out = Vec::new();
    // Headline columns run single-buffered (the PR 1-comparable
    // schedule); the `*_db` columns rerun the same workloads with
    // double-buffered row-band prefetch and must be bit-identical.
    let eng = PoolingEngine::ascend910().with_double_buffering(false);
    let eng_db = PoolingEngine::ascend910();

    for w in fig7_workloads() {
        let shape = format!("{}x{}x{}", w.h, w.w, w.c);

        // Fig. 7a — forward.
        let input = feature_map(1, w.c, w.h, w.w, 71);
        let (o_s, std) = eng
            .maxpool_forward(&input, w.params, ForwardImpl::Standard)
            .expect("fig7a standard");
        let (o_a, acc) = eng
            .maxpool_forward(&input, w.params, ForwardImpl::Im2col)
            .expect("fig7a im2col");
        let (o_sd, std_db) = eng_db
            .maxpool_forward(&input, w.params, ForwardImpl::Standard)
            .expect("fig7a standard db");
        let (o_ad, acc_db) = eng_db
            .maxpool_forward(&input, w.params, ForwardImpl::Im2col)
            .expect("fig7a im2col db");
        assert_eq!(o_s.data(), o_a.data(), "fig7a implementations disagree");
        assert_eq!(o_s.data(), o_sd.data(), "fig7a db changed standard output");
        assert_eq!(o_a.data(), o_ad.data(), "fig7a db changed im2col output");
        out.push(metric(
            format!("fig7a/{shape}"),
            &std,
            &acc,
            &std_db,
            &acc_db,
        ));

        // Fig. 7b — forward with the argmax mask.
        let input = feature_map(1, w.c, w.h, w.w, 72);
        let (o_s, m_s, std) = eng
            .maxpool_forward_with_argmax(&input, w.params, ForwardImpl::Standard)
            .expect("fig7b standard");
        let (o_a, m_a, acc) = eng
            .maxpool_forward_with_argmax(&input, w.params, ForwardImpl::Im2col)
            .expect("fig7b im2col");
        let (o_sd, m_sd, std_db) = eng_db
            .maxpool_forward_with_argmax(&input, w.params, ForwardImpl::Standard)
            .expect("fig7b standard db");
        let (o_ad, m_ad, acc_db) = eng_db
            .maxpool_forward_with_argmax(&input, w.params, ForwardImpl::Im2col)
            .expect("fig7b im2col db");
        assert_eq!(o_s.data(), o_a.data(), "fig7b implementations disagree");
        assert_eq!(m_s.data(), m_a.data(), "fig7b masks disagree");
        assert_eq!(
            (o_sd.data(), m_sd.data()),
            (o_s.data(), m_s.data()),
            "fig7b db changed standard output"
        );
        assert_eq!(
            (o_ad.data(), m_ad.data()),
            (o_a.data(), m_a.data()),
            "fig7b db changed im2col output"
        );
        out.push(metric(
            format!("fig7b/{shape}"),
            &std,
            &acc,
            &std_db,
            &acc_db,
        ));

        // Fig. 7c — backward.
        let input = feature_map(1, w.c, w.h, w.w, 73);
        let mask = reference::maxpool_argmax_mask(&input, &w.params).expect("mask");
        let (oh, ow) = w.out_dims();
        let grads = gradients(1, input.c1, oh, ow, 74);
        let (dx_s, std) = eng
            .maxpool_backward(&mask, &grads, w.params, w.h, w.w, MergeImpl::VAdd)
            .expect("fig7c vadd");
        let (dx_a, acc) = eng
            .maxpool_backward(&mask, &grads, w.params, w.h, w.w, MergeImpl::Col2Im)
            .expect("fig7c col2im");
        let (dx_sd, std_db) = eng_db
            .maxpool_backward(&mask, &grads, w.params, w.h, w.w, MergeImpl::VAdd)
            .expect("fig7c vadd db");
        let (dx_ad, acc_db) = eng_db
            .maxpool_backward(&mask, &grads, w.params, w.h, w.w, MergeImpl::Col2Im)
            .expect("fig7c col2im db");
        assert_eq!(dx_s.data(), dx_a.data(), "fig7c merges disagree");
        assert_eq!(dx_s.data(), dx_sd.data(), "fig7c db changed vadd output");
        assert_eq!(dx_a.data(), dx_ad.data(), "fig7c db changed col2im output");
        out.push(metric(
            format!("fig7c/{shape}"),
            &std,
            &acc,
            &std_db,
            &acc_db,
        ));
    }

    // Batched N=4 Fig. 7 forward rows: the Mode-0 batch fold against the
    // per-plane schedule, on one AI core with the UB clamped to 64 KiB —
    // the capacity regime where lowering the batch through the SCU pays
    // off on all three shapes. The `standard` columns carry the
    // per-plane (batching-off) schedule, the `accelerated` columns the
    // batched fold; both run the im2col implementation, so the row
    // isolates exactly what the fold buys.
    let mut chip = Chip::new(1, CostModel::ascend910_like());
    chip.caps.ub = 64 * 1024;
    let bat = PoolingEngine::new(chip.clone()).with_double_buffering(false);
    let per = bat.clone().with_batching(false);
    let bat_db = PoolingEngine::new(chip);
    let per_db = bat_db.clone().with_batching(false);
    for w in fig7_workloads() {
        let shape = format!("{}x{}x{}", w.h, w.w, w.c);
        let input = feature_map(4, w.c, w.h, w.w, 76);
        let (o_p, std) = per
            .maxpool_forward(&input, w.params, ForwardImpl::Im2col)
            .expect("fig7n4 per-plane");
        let (o_b, acc) = bat
            .maxpool_forward(&input, w.params, ForwardImpl::Im2col)
            .expect("fig7n4 batched");
        let (o_pd, std_db) = per_db
            .maxpool_forward(&input, w.params, ForwardImpl::Im2col)
            .expect("fig7n4 per-plane db");
        let (o_bd, acc_db) = bat_db
            .maxpool_forward(&input, w.params, ForwardImpl::Im2col)
            .expect("fig7n4 batched db");
        assert_eq!(o_p.data(), o_b.data(), "fig7n4 fold changed the output");
        assert_eq!(o_p.data(), o_pd.data(), "fig7n4 db changed per-plane");
        assert_eq!(o_b.data(), o_bd.data(), "fig7n4 db changed batched");
        // The fold's whole claim: strictly fewer Im2Col issues than N
        // per-plane passes, at no dual-pipe cycle cost. Cycles are held
        // on the double-buffered schedules (the engine default): those
        // give the fold its L1 band ping-pong, without which the single
        // L1 region serialises next-band staging against the current
        // band's Im2Cols and the single-program-per-c1 fold cannot hide
        // band boundaries the way 4-programs-per-c1 per-plane can.
        let (ib, ip) = (acc.total.issues_of("im2col"), std.total.issues_of("im2col"));
        assert!(
            ib < ip,
            "fig7n4/{shape}: batched fold must issue strictly fewer Im2Cols \
             ({ib} vs {ip} per-plane)"
        );
        assert!(
            acc_db.cycles <= std_db.cycles,
            "fig7n4/{shape}: batched fold may not cost dual-pipe cycles \
             ({} vs {})",
            acc_db.cycles,
            std_db.cycles
        );
        out.push(metric(
            format!("fig7n4/{shape}"),
            &std,
            &acc,
            &std_db,
            &acc_db,
        ));
    }

    // Fig. 8 — the stride study, one AI core, K(3,3).
    for stride in 1usize..=3 {
        let params = PoolParams::new((3, 3), (stride, stride));
        let eng1 = PoolingEngine::new(Chip::new(1, CostModel::ascend910_like()))
            .with_double_buffering(false);
        let eng1_db = PoolingEngine::new(Chip::new(1, CostModel::ascend910_like()));
        let threshold = [ForwardImpl::Standard, ForwardImpl::Im2col]
            .iter()
            .map(|i| tiling_threshold(&params, *i, eng1.chip.caps))
            .min()
            .unwrap();
        for hw in [16usize, 24, 32] {
            if hw > threshold {
                continue;
            }
            let input = plane(1, hw, hw, 80 + hw as u32);
            let (o_s, std) = eng1
                .maxpool_forward(&input, params, ForwardImpl::Standard)
                .expect("fig8 standard");
            let (o_a, acc) = eng1
                .maxpool_forward(&input, params, ForwardImpl::Im2col)
                .expect("fig8 im2col");
            let (o_sd, std_db) = eng1_db
                .maxpool_forward(&input, params, ForwardImpl::Standard)
                .expect("fig8 standard db");
            let (o_ad, acc_db) = eng1_db
                .maxpool_forward(&input, params, ForwardImpl::Im2col)
                .expect("fig8 im2col db");
            assert_eq!(o_s.data(), o_a.data(), "fig8 implementations disagree");
            assert_eq!(o_s.data(), o_sd.data(), "fig8 db changed standard output");
            assert_eq!(o_a.data(), o_ad.data(), "fig8 db changed im2col output");
            out.push(metric(
                format!("fig8s{stride}/{hw}x{hw}"),
                &std,
                &acc,
                &std_db,
                &acc_db,
            ));
        }
    }

    // The ten Table I rows Fig. 7 does not evaluate — forward pass only,
    // both implementations, so every published workload has its cycles
    // and buffer ceilings under regression tracking.
    for w in table1_workloads()
        .into_iter()
        .filter(|w| !w.evaluated_in_fig7)
    {
        let shape = format!("{}x{}x{}", w.h, w.w, w.c);
        let input = feature_map(1, w.c, w.h, w.w, 75);
        let (o_s, std) = eng
            .maxpool_forward(&input, w.params, ForwardImpl::Standard)
            .expect("table1 standard");
        let (o_a, acc) = eng
            .maxpool_forward(&input, w.params, ForwardImpl::Im2col)
            .expect("table1 im2col");
        let (o_sd, std_db) = eng_db
            .maxpool_forward(&input, w.params, ForwardImpl::Standard)
            .expect("table1 standard db");
        let (o_ad, acc_db) = eng_db
            .maxpool_forward(&input, w.params, ForwardImpl::Im2col)
            .expect("table1 im2col db");
        assert_eq!(o_s.data(), o_a.data(), "table1 implementations disagree");
        assert_eq!(o_s.data(), o_sd.data(), "table1 db changed standard output");
        assert_eq!(o_a.data(), o_ad.data(), "table1 db changed im2col output");
        out.push(metric(
            format!("table1/{}-{}/{shape}", w.cnn, w.input_idx),
            &std,
            &acc,
            &std_db,
            &acc_db,
        ));
    }

    out
}

/// Render metrics as the `BENCH_pooling.json` document. When `baseline`
/// is given, each metric additionally carries its dual-pipe cycle ratio
/// vs the baseline (1.0 = unchanged, >1.0 = slower). The `scaling`,
/// `scaling-backward`, `tuner`, and `model` rows land in their own
/// top-level sections — per-core-count columns (forward and backward),
/// per-workload chosen-algorithm columns, and per-segment fused-pipeline
/// columns respectively.
pub fn to_json(
    metrics: &[Metric],
    scaling: &[ScalingMetric],
    backward: &[BackwardScalingMetric],
    tuner: &[TunerMetric],
    model: &[ModelMetric],
    baseline: Option<&[Metric]>,
) -> String {
    let mut out = String::from("{\n  \"benchmark\": \"pooling\",\n");
    let _ = writeln!(out, "  \"tolerance\": {TOLERANCE},");
    out.push_str("  \"metrics\": [\n");
    for (i, m) in metrics.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"key\": \"{}\", \"standard_cycles\": {}, \"accelerated_cycles\": {}, \
             \"speedup\": {:.4}, \"standard_cycles_db\": {}, \
             \"accelerated_cycles_db\": {}, \"speedup_db\": {:.4}, \
             \"ub_peak\": {}, \"l1_peak\": {}, \
             \"ub_peak_db\": {}, \"l1_peak_db\": {}",
            m.key,
            m.standard_cycles,
            m.accelerated_cycles,
            m.speedup(),
            m.standard_cycles_db,
            m.accelerated_cycles_db,
            m.speedup_db(),
            m.ub_peak,
            m.l1_peak,
            m.ub_peak_db,
            m.l1_peak_db
        );
        if let Some(base) = baseline {
            if let Some(b) = base.iter().find(|b| b.key == m.key) {
                let _ = write!(
                    out,
                    ", \"vs_baseline_standard\": {:.4}, \"vs_baseline_accelerated\": {:.4}",
                    m.standard_cycles as f64 / b.standard_cycles as f64,
                    m.accelerated_cycles as f64 / b.accelerated_cycles as f64
                );
            }
        }
        out.push_str(if i + 1 == metrics.len() {
            "}\n"
        } else {
            "},\n"
        });
    }
    out.push_str("  ],\n  \"scaling\": [\n");
    for (i, s) in scaling.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"key\": \"{}\", \"cores\": {}, \"cycles\": {}, \
             \"cycles_contended\": {}, \"contention_stalls\": {}, \
             \"contention_factor\": {:.4}}}",
            s.key,
            s.cores,
            s.cycles,
            s.cycles_contended,
            s.contention_stalls,
            s.contention_factor()
        );
        out.push_str(if i + 1 == scaling.len() { "\n" } else { ",\n" });
    }
    out.push_str("  ],\n  \"scaling-backward\": [\n");
    for (i, s) in backward.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"key\": \"{}\", \"cores\": {}, \"cycles\": {}, \
             \"cycles_l2\": {}, \"l2_factor\": {:.4}, \"l2_hits\": {}, \
             \"l2_miss_stalls\": {}, \"gm_bytes\": {}, \"sharded\": {}, \
             \"declines\": {}}}",
            s.key,
            s.cores,
            s.cycles,
            s.cycles_l2,
            s.l2_factor(),
            s.l2_hits,
            s.l2_miss_stalls,
            s.gm_bytes,
            s.sharded,
            s.declines
        );
        out.push_str(if i + 1 == backward.len() { "\n" } else { ",\n" });
    }
    out.push_str("  ],\n  \"tuner\": [\n");
    for (i, t) in tuner.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"key\": \"{}\", \"chosen\": \"{}\", \"predicted_cycles\": {}, \
             \"tuned_cycles\": {}, \"direct_cycles\": {}, \"im2col_cycles\": {}}}",
            t.key, t.chosen, t.predicted_cycles, t.tuned_cycles, t.direct_cycles, t.im2col_cycles
        );
        out.push_str(if i + 1 == tuner.len() { "\n" } else { ",\n" });
    }
    out.push_str("  ],\n  \"model\": [\n");
    for (i, m) in model.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"key\": \"{}\", \"layered_cycles\": {}, \"fused_cycles\": {}, \
             \"fused_gain\": {:.4}, \"conv_materialised_cycles\": {}, \
             \"conv_implicit_cycles\": {}, \"l1_peak_materialised\": {}, \
             \"l1_peak_implicit\": {}, \"l1_shrink\": {:.4}, \
             \"gm_bytes_layered\": {}, \"gm_bytes_fused\": {}, \"ub_peak_fused\": {}}}",
            m.key,
            m.layered_cycles,
            m.fused_cycles,
            m.fused_gain(),
            m.conv_materialised_cycles,
            m.conv_implicit_cycles,
            m.l1_peak_materialised,
            m.l1_peak_implicit,
            m.l1_shrink(),
            m.gm_bytes_layered,
            m.gm_bytes_fused,
            m.ub_peak_fused
        );
        out.push_str(if i + 1 == model.len() { "\n" } else { ",\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Parse a `BENCH_pooling.json`-format document back into metrics.
pub fn parse_metrics(doc: &str) -> Result<Vec<Metric>, String> {
    let v = json::parse(doc).map_err(|e| e.to_string())?;
    let arr = v
        .get("metrics")
        .and_then(|m| m.as_arr())
        .ok_or("missing \"metrics\" array")?;
    let field = |m: &json::Value, name: &'static str| {
        m.get(name)
            .and_then(|c| c.as_u64())
            .ok_or(format!("metric missing \"{name}\""))
    };
    arr.iter()
        .map(|m| {
            Ok(Metric {
                key: m
                    .get("key")
                    .and_then(|k| k.as_str())
                    .ok_or("metric missing \"key\"".to_string())?
                    .to_string(),
                standard_cycles: field(m, "standard_cycles")?,
                accelerated_cycles: field(m, "accelerated_cycles")?,
                standard_cycles_db: field(m, "standard_cycles_db")?,
                accelerated_cycles_db: field(m, "accelerated_cycles_db")?,
                ub_peak: field(m, "ub_peak")?,
                l1_peak: field(m, "l1_peak")?,
                ub_peak_db: field(m, "ub_peak_db")?,
                l1_peak_db: field(m, "l1_peak_db")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()
}

/// Parse the `scaling` section of a `BENCH_pooling.json`-format
/// document. A baseline committed before the scaling gate existed has no
/// section and parses as the empty list — [`compare_scaling`] then
/// treats every current row as a new ceiling, mirroring how
/// [`parse_metrics`] handles columns added after a baseline was
/// committed.
pub fn parse_scaling(doc: &str) -> Result<Vec<ScalingMetric>, String> {
    let v = json::parse(doc).map_err(|e| e.to_string())?;
    let Some(arr) = v.get("scaling").and_then(|m| m.as_arr()) else {
        return Ok(Vec::new());
    };
    let field = |m: &json::Value, name: &'static str| {
        m.get(name)
            .and_then(|c| c.as_u64())
            .ok_or(format!("scaling row missing \"{name}\""))
    };
    arr.iter()
        .map(|m| {
            Ok(ScalingMetric {
                key: m
                    .get("key")
                    .and_then(|k| k.as_str())
                    .ok_or("scaling row missing \"key\"".to_string())?
                    .to_string(),
                cores: field(m, "cores")?,
                cycles: field(m, "cycles")?,
                cycles_contended: field(m, "cycles_contended")?,
                contention_stalls: field(m, "contention_stalls")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()
}

/// Compare current scaling rows against a baseline's. Flags a tracked
/// row that disappeared, or one whose cycles (either memory model) grew
/// by more than `tolerance`. New rows pass — they are fresh ceilings.
pub fn compare_scaling(
    current: &[ScalingMetric],
    baseline: &[ScalingMetric],
    tolerance: f64,
) -> Vec<String> {
    let mut regressions = Vec::new();
    for b in baseline {
        let Some(c) = current.iter().find(|c| c.key == b.key) else {
            regressions.push(format!("{}: tracked scaling row disappeared", b.key));
            continue;
        };
        for (what, now, base) in [
            ("independent", c.cycles, b.cycles),
            ("contended", c.cycles_contended, b.cycles_contended),
        ] {
            let ratio = now as f64 / base.max(1) as f64;
            if base > 0 && ratio > 1.0 + tolerance {
                regressions.push(format!(
                    "{} ({what}): {now} vs baseline {base} ({:+.1}%)",
                    b.key,
                    (ratio - 1.0) * 100.0
                ));
            }
        }
    }
    regressions
}

/// Parse the `scaling-backward` section of a `BENCH_pooling.json`-format
/// document. A baseline committed before the backward-scaling gate
/// existed has no section and parses as the empty list —
/// [`compare_backward_scaling`] then treats every current row as a new
/// ceiling, mirroring [`parse_scaling`].
pub fn parse_backward_scaling(doc: &str) -> Result<Vec<BackwardScalingMetric>, String> {
    let v = json::parse(doc).map_err(|e| e.to_string())?;
    let Some(arr) = v.get("scaling-backward").and_then(|m| m.as_arr()) else {
        return Ok(Vec::new());
    };
    let field = |m: &json::Value, name: &'static str| {
        m.get(name)
            .and_then(|c| c.as_u64())
            .ok_or(format!("scaling-backward row missing \"{name}\""))
    };
    arr.iter()
        .map(|m| {
            Ok(BackwardScalingMetric {
                key: m
                    .get("key")
                    .and_then(|k| k.as_str())
                    .ok_or("scaling-backward row missing \"key\"".to_string())?
                    .to_string(),
                cores: field(m, "cores")?,
                cycles: field(m, "cycles")?,
                cycles_l2: field(m, "cycles_l2")?,
                l2_hits: field(m, "l2_hits")?,
                l2_miss_stalls: field(m, "l2_miss_stalls")?,
                gm_bytes: field(m, "gm_bytes")?,
                sharded: field(m, "sharded")?,
                declines: field(m, "declines")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()
}

/// Compare current backward-scaling rows against a baseline's. Flags a
/// tracked row that disappeared, cycles (either memory model) more than
/// `tolerance` worse, a partition-choice flip (the partitioner is
/// deterministic — a flip is a policy change to re-baseline
/// deliberately), or a row whose L2 locality vanished (`l2_hits` falling
/// to zero on a row that had hits). New rows pass — fresh ceilings.
pub fn compare_backward_scaling(
    current: &[BackwardScalingMetric],
    baseline: &[BackwardScalingMetric],
    tolerance: f64,
) -> Vec<String> {
    let mut regressions = Vec::new();
    for b in baseline {
        let Some(c) = current.iter().find(|c| c.key == b.key) else {
            regressions.push(format!(
                "{}: tracked scaling-backward row disappeared",
                b.key
            ));
            continue;
        };
        for (what, now, base) in [
            ("independent", c.cycles, b.cycles),
            ("l2", c.cycles_l2, b.cycles_l2),
        ] {
            let ratio = now as f64 / base.max(1) as f64;
            if base > 0 && ratio > 1.0 + tolerance {
                regressions.push(format!(
                    "{} ({what}): {now} vs baseline {base} ({:+.1}%)",
                    b.key,
                    (ratio - 1.0) * 100.0
                ));
            }
        }
        if c.sharded != b.sharded {
            regressions.push(format!(
                "{}: backward partition choice flipped ({} -> {})",
                b.key,
                if b.sharded == 1 {
                    "sub-plane"
                } else {
                    "per-plane"
                },
                if c.sharded == 1 {
                    "sub-plane"
                } else {
                    "per-plane"
                }
            ));
        }
        if b.l2_hits > 0 && c.l2_hits == 0 {
            regressions.push(format!(
                "{}: L2 locality vanished ({} line hits -> 0)",
                b.key, b.l2_hits
            ));
        }
    }
    regressions
}

/// Parse the `tuner` section of a `BENCH_pooling.json`-format document.
/// A baseline committed before the auto-tuner existed has no section and
/// parses as the empty list — [`compare_tuner`] then treats every
/// current row as a new ceiling.
pub fn parse_tuner(doc: &str) -> Result<Vec<TunerMetric>, String> {
    let v = json::parse(doc).map_err(|e| e.to_string())?;
    let Some(arr) = v.get("tuner").and_then(|m| m.as_arr()) else {
        return Ok(Vec::new());
    };
    let field = |m: &json::Value, name: &'static str| {
        m.get(name)
            .and_then(|c| c.as_u64())
            .ok_or(format!("tuner row missing \"{name}\""))
    };
    let string = |m: &json::Value, name: &'static str| {
        m.get(name)
            .and_then(|c| c.as_str())
            .map(str::to_string)
            .ok_or(format!("tuner row missing \"{name}\""))
    };
    arr.iter()
        .map(|m| {
            Ok(TunerMetric {
                key: string(m, "key")?,
                chosen: string(m, "chosen")?,
                predicted_cycles: field(m, "predicted_cycles")?,
                tuned_cycles: field(m, "tuned_cycles")?,
                direct_cycles: field(m, "direct_cycles")?,
                im2col_cycles: field(m, "im2col_cycles")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()
}

/// Compare current tuner rows against a baseline's. Flags a tracked row
/// that disappeared, a chosen-algorithm flip (the simulator is
/// deterministic — a flip is a policy change that must be re-baselined
/// deliberately), or tuned cycles more than `tolerance` worse. New rows
/// pass — they are fresh ceilings.
pub fn compare_tuner(
    current: &[TunerMetric],
    baseline: &[TunerMetric],
    tolerance: f64,
) -> Vec<String> {
    let mut regressions = Vec::new();
    for b in baseline {
        let Some(c) = current.iter().find(|c| c.key == b.key) else {
            regressions.push(format!("{}: tracked tuner row disappeared", b.key));
            continue;
        };
        if c.chosen != b.chosen {
            regressions.push(format!(
                "{}: chosen algorithm flipped ({} -> {})",
                b.key, b.chosen, c.chosen
            ));
        }
        let ratio = c.tuned_cycles as f64 / b.tuned_cycles.max(1) as f64;
        if b.tuned_cycles > 0 && ratio > 1.0 + tolerance {
            regressions.push(format!(
                "{} (tuned): {} vs baseline {} ({:+.1}%)",
                b.key,
                c.tuned_cycles,
                b.tuned_cycles,
                (ratio - 1.0) * 100.0
            ));
        }
    }
    regressions
}

/// Compare current metrics against a baseline. Returns the list of
/// regressions — a baseline metric that disappeared, or one whose cycle
/// count (either implementation, single- or double-buffered) or buffer
/// peak grew by more than `tolerance`. An empty list means the gate passes;
/// improvements and new metrics pass.
pub fn compare(current: &[Metric], baseline: &[Metric], tolerance: f64) -> Vec<String> {
    let mut regressions = Vec::new();
    for b in baseline {
        let Some(c) = current.iter().find(|c| c.key == b.key) else {
            regressions.push(format!("{}: tracked metric disappeared", b.key));
            continue;
        };
        for (what, now, base) in [
            ("standard", c.standard_cycles, b.standard_cycles),
            ("accelerated", c.accelerated_cycles, b.accelerated_cycles),
            (
                "standard double-buffered",
                c.standard_cycles_db,
                b.standard_cycles_db,
            ),
            (
                "accelerated double-buffered",
                c.accelerated_cycles_db,
                b.accelerated_cycles_db,
            ),
            ("UB peak", c.ub_peak, b.ub_peak),
            ("L1 peak", c.l1_peak, b.l1_peak),
            ("UB peak double-buffered", c.ub_peak_db, b.ub_peak_db),
            ("L1 peak double-buffered", c.l1_peak_db, b.l1_peak_db),
        ] {
            // A metric absent from the baseline (0) that appears now is a
            // new ceiling, not a regression of an old one.
            let ratio = now as f64 / base.max(1) as f64;
            if base > 0 && ratio > 1.0 + tolerance {
                regressions.push(format!(
                    "{} ({what}): {now} vs baseline {base} ({:+.1}%)",
                    b.key,
                    (ratio - 1.0) * 100.0
                ));
            }
        }
    }
    regressions
}

/// Run the full gate against [`COMMITTED_BASELINE`]: collect, compare,
/// and return the rendered `BENCH_pooling.json` contents on success or
/// the regression list on failure.
pub fn run() -> Result<String, Vec<String>> {
    let baseline = parse_metrics(COMMITTED_BASELINE)
        .map_err(|e| vec![format!("committed baseline unreadable: {e}")])?;
    let base_scaling = parse_scaling(COMMITTED_BASELINE)
        .map_err(|e| vec![format!("committed baseline scaling unreadable: {e}")])?;
    let base_backward = parse_backward_scaling(COMMITTED_BASELINE).map_err(|e| {
        vec![format!(
            "committed baseline scaling-backward unreadable: {e}"
        )]
    })?;
    let base_tuner = parse_tuner(COMMITTED_BASELINE)
        .map_err(|e| vec![format!("committed baseline tuner unreadable: {e}")])?;
    let base_model = parse_model(COMMITTED_BASELINE)
        .map_err(|e| vec![format!("committed baseline model unreadable: {e}")])?;
    let current = collect();
    let scaling = collect_scaling();
    let backward = collect_backward_scaling();
    let tuner = collect_tuner();
    let model = collect_model();
    let mut regressions = compare(&current, &baseline, TOLERANCE);
    regressions.extend(compare_scaling(&scaling, &base_scaling, TOLERANCE));
    regressions.extend(compare_backward_scaling(
        &backward,
        &base_backward,
        TOLERANCE,
    ));
    regressions.extend(compare_tuner(&tuner, &base_tuner, TOLERANCE));
    regressions.extend(compare_model(&model, &base_model, TOLERANCE));
    if regressions.is_empty() {
        Ok(to_json(
            &current,
            &scaling,
            &backward,
            &tuner,
            &model,
            Some(&baseline),
        ))
    } else {
        Err(regressions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(key: &str, s: u64, a: u64) -> Metric {
        Metric {
            key: key.into(),
            standard_cycles: s,
            accelerated_cycles: a,
            standard_cycles_db: s.saturating_sub(s / 10),
            accelerated_cycles_db: a.saturating_sub(a / 10),
            ub_peak: 4096,
            l1_peak: 0,
            ub_peak_db: 8192,
            l1_peak_db: 0,
        }
    }

    fn sm(key: &str, cores: u64, cycles: u64) -> ScalingMetric {
        ScalingMetric {
            key: key.into(),
            cores,
            cycles,
            cycles_contended: cycles + cycles / 4,
            contention_stalls: cores * 10,
        }
    }

    fn tm(key: &str, chosen: &str, tuned: u64, direct: u64, im2col: u64) -> TunerMetric {
        TunerMetric {
            key: key.into(),
            chosen: chosen.into(),
            predicted_cycles: tuned + tuned / 10,
            tuned_cycles: tuned,
            direct_cycles: direct,
            im2col_cycles: im2col,
        }
    }

    #[test]
    fn json_round_trip() {
        let ms = vec![m("fig7a/1x1x16", 1000, 250), m("fig8s2/16x16", 77, 33)];
        let doc = to_json(&ms, &[], &[], &[], &[], None);
        assert_eq!(parse_metrics(&doc).unwrap(), ms);
        assert!(doc.contains("\"speedup_db\""));
        assert!(doc.contains("\"ub_peak\": 4096"));
        // with-baseline rendering stays parseable
        let doc2 = to_json(&ms, &[], &[], &[], &[], Some(&ms));
        assert!(doc2.contains("\"vs_baseline_standard\": 1.0000"));
        assert_eq!(parse_metrics(&doc2).unwrap(), ms);
    }

    #[test]
    fn scaling_section_round_trips_and_tolerates_legacy_baselines() {
        let ms = vec![m("fig7a/1x1x16", 1000, 250)];
        let ss = vec![
            sm("scaling/1x1x16/c1", 1, 4000),
            sm("scaling/1x1x16/c8", 8, 600),
        ];
        let doc = to_json(&ms, &ss, &[], &[], &[], None);
        assert_eq!(parse_scaling(&doc).unwrap(), ss);
        assert_eq!(parse_metrics(&doc).unwrap(), ms);
        assert!(doc.contains("\"contention_factor\": 1.2500"));
        // A baseline committed before the scaling gate has no section:
        // it parses as empty and every current row is a new ceiling.
        let legacy = to_json(&ms, &[], &[], &[], &[], None);
        let base = parse_scaling(&legacy).unwrap();
        assert!(base.is_empty());
        assert!(compare_scaling(&ss, &base, TOLERANCE).is_empty());
    }

    fn bsm(
        key: &str,
        cores: u64,
        cycles: u64,
        sharded: u64,
        l2_hits: u64,
    ) -> BackwardScalingMetric {
        BackwardScalingMetric {
            key: key.into(),
            cores,
            cycles,
            cycles_l2: cycles + cycles / 5,
            l2_hits,
            l2_miss_stalls: cycles / 8,
            gm_bytes: 1 << 20,
            sharded,
            declines: 0,
        }
    }

    #[test]
    fn backward_scaling_section_round_trips_and_tolerates_legacy_baselines() {
        let ms = vec![m("fig7a/1x1x16", 1000, 250)];
        let bs = vec![
            bsm("scaling-backward/1x1x16/c1", 1, 4000, 0, 0),
            bsm("scaling-backward/1x1x16/c8", 8, 600, 1, 420),
        ];
        let doc = to_json(&ms, &[], &bs, &[], &[], None);
        assert_eq!(parse_backward_scaling(&doc).unwrap(), bs);
        assert_eq!(parse_metrics(&doc).unwrap(), ms);
        assert!(doc.contains("\"l2_factor\": 1.2000"));
        assert!(doc.contains("\"sharded\": 1"));
        // A baseline committed before the backward-scaling gate has no
        // section: it parses as empty and every current row is a new
        // ceiling.
        let legacy = to_json(&ms, &[], &[], &[], &[], None);
        let base = parse_backward_scaling(&legacy).unwrap();
        assert!(base.is_empty());
        assert!(compare_backward_scaling(&bs, &base, TOLERANCE).is_empty());
    }

    #[test]
    fn compare_backward_scaling_flags_flips_and_regressions() {
        let base = vec![
            bsm("scaling-backward/a/c1", 1, 4000, 0, 0),
            bsm("scaling-backward/a/c8", 8, 600, 1, 420),
        ];
        // within tolerance + improvement + new row → pass
        let ok = vec![
            bsm("scaling-backward/a/c1", 1, 4100, 0, 0),
            bsm("scaling-backward/a/c8", 8, 540, 1, 500),
            bsm("scaling-backward/a/c32", 32, 200, 1, 900),
        ];
        assert!(compare_backward_scaling(&ok, &base, TOLERANCE).is_empty());
        // a 6% regression on the L2 column only → fail
        let mut slow = base.clone();
        slow[1].cycles_l2 = 770;
        let regs = compare_backward_scaling(&slow, &base, TOLERANCE);
        assert_eq!(regs.len(), 1);
        assert!(regs[0].contains("scaling-backward/a/c8 (l2)"));
        // a partition-choice flip fails even when cycles improve
        let mut flipped = base.clone();
        flipped[1].sharded = 0;
        flipped[1].cycles = 500;
        flipped[1].cycles_l2 = 600;
        let regs = compare_backward_scaling(&flipped, &base, TOLERANCE);
        assert!(regs
            .iter()
            .any(|r| r.contains("flipped (sub-plane -> per-plane)")));
        // vanished L2 locality fails
        let mut cold = base.clone();
        cold[1].l2_hits = 0;
        let regs = compare_backward_scaling(&cold, &base, TOLERANCE);
        assert_eq!(regs.len(), 1);
        assert!(regs[0].contains("L2 locality vanished"));
        // disappeared row fails
        let gone = vec![base[0].clone()];
        assert_eq!(compare_backward_scaling(&gone, &base, TOLERANCE).len(), 1);
    }

    #[test]
    fn tuner_section_round_trips_and_tolerates_legacy_baselines() {
        let ms = vec![m("fig7a/1x1x16", 1000, 250)];
        let ts = vec![
            tm("tuner/fig8s1/16x16", "direct", 2201, 2201, 3452),
            tm("tuner/fig8s2/16x16", "im2col", 1505, 3233, 1505),
        ];
        let doc = to_json(&ms, &[], &[], &ts, &[], None);
        assert_eq!(parse_tuner(&doc).unwrap(), ts);
        assert_eq!(parse_metrics(&doc).unwrap(), ms);
        assert!(doc.contains("\"chosen\": \"direct\""));
        // A baseline committed before the tuner gate has no section: it
        // parses as empty and every current row is a new ceiling.
        let legacy = to_json(&ms, &[], &[], &[], &[], None);
        let base = parse_tuner(&legacy).unwrap();
        assert!(base.is_empty());
        assert!(compare_tuner(&ts, &base, TOLERANCE).is_empty());
    }

    fn mm(key: &str, layered: u64, fused: u64) -> ModelMetric {
        ModelMetric {
            key: key.into(),
            layered_cycles: layered,
            fused_cycles: fused,
            conv_materialised_cycles: layered / 2,
            conv_implicit_cycles: (layered / 2).saturating_sub(10),
            l1_peak_materialised: 40960,
            l1_peak_implicit: 20480,
            gm_bytes_layered: 100000,
            gm_bytes_fused: 60000,
            ub_peak_fused: 131072,
        }
    }

    #[test]
    fn model_section_round_trips_and_tolerates_legacy_baselines() {
        let ms = vec![m("fig7a/1x1x16", 1000, 250)];
        let rows = vec![mm("model/vgg16-seg", 90000, 80000)];
        let doc = to_json(&ms, &[], &[], &[], &rows, None);
        assert_eq!(parse_model(&doc).unwrap(), rows);
        assert_eq!(parse_metrics(&doc).unwrap(), ms);
        assert!(doc.contains("\"fused_gain\": 1.1250"));
        assert!(doc.contains("\"l1_shrink\": 0.5000"));
        // A baseline committed before whole-model tracking has no
        // section: it parses as empty and every current row is a new
        // ceiling.
        let legacy = to_json(&ms, &[], &[], &[], &[], None);
        let base = parse_model(&legacy).unwrap();
        assert!(base.is_empty());
        assert!(compare_model(&rows, &base, TOLERANCE).is_empty());
    }

    #[test]
    fn compare_model_flags_only_real_regressions() {
        let base = vec![mm("model/a", 90000, 80000), mm("model/b", 50000, 40000)];
        // within tolerance + improvement + new row → pass
        let ok = vec![
            mm("model/a", 93000, 80000),
            mm("model/b", 45000, 36000),
            mm("model/c", 10, 9),
        ];
        assert!(compare_model(&ok, &base, TOLERANCE).is_empty());
        // 6% regression on the fused column only → fail
        let slow = vec![mm("model/a", 90000, 85000), mm("model/b", 50000, 40000)];
        let regs = compare_model(&slow, &base, TOLERANCE);
        assert_eq!(regs.len(), 1);
        assert!(regs[0].contains("model/a (fused)"));
        // an L1-peak blow-up fails even with unchanged cycles
        let mut fat = vec![mm("model/a", 90000, 80000), mm("model/b", 50000, 40000)];
        fat[0].l1_peak_implicit = 40960;
        let regs = compare_model(&fat, &base, TOLERANCE);
        assert_eq!(regs.len(), 1);
        assert!(regs[0].contains("L1 peak implicit"));
        // disappeared row → fail
        let gone = vec![mm("model/a", 90000, 80000)];
        assert_eq!(compare_model(&gone, &base, TOLERANCE).len(), 1);
    }

    #[test]
    fn compare_tuner_flags_flips_and_regressions() {
        let base = vec![
            tm("tuner/a", "direct", 1000, 1000, 2000),
            tm("tuner/b", "im2col", 500, 900, 500),
        ];
        // within tolerance + improvement + new row → pass
        let ok = vec![
            tm("tuner/a", "direct", 1040, 1040, 2000),
            tm("tuner/b", "im2col", 450, 900, 450),
            tm("tuner/c", "fold", 5, 0, 9),
        ];
        assert!(compare_tuner(&ok, &base, TOLERANCE).is_empty());
        // a chosen-algorithm flip fails even when cycles improve
        let flipped = vec![
            tm("tuner/a", "im2col", 900, 1000, 900),
            tm("tuner/b", "im2col", 500, 900, 500),
        ];
        let regs = compare_tuner(&flipped, &base, TOLERANCE);
        assert_eq!(regs.len(), 1);
        assert!(regs[0].contains("flipped (direct -> im2col)"));
        // a 6% tuned-cycle regression fails
        let slow = vec![
            tm("tuner/a", "direct", 1060, 1060, 2000),
            tm("tuner/b", "im2col", 500, 900, 500),
        ];
        assert_eq!(compare_tuner(&slow, &base, TOLERANCE).len(), 1);
        // disappeared row → fail
        let gone = vec![tm("tuner/a", "direct", 1000, 1000, 2000)];
        assert_eq!(compare_tuner(&gone, &base, TOLERANCE).len(), 1);
    }

    #[test]
    fn compare_scaling_flags_only_real_regressions() {
        let base = vec![sm("scaling/a/c1", 1, 1000), sm("scaling/a/c8", 8, 200)];
        // within tolerance + improvement + new row → pass
        let ok = vec![
            sm("scaling/a/c1", 1, 1040),
            sm("scaling/a/c8", 8, 180),
            sm("scaling/a/c32", 32, 90),
        ];
        assert!(compare_scaling(&ok, &base, TOLERANCE).is_empty());
        // 6% regression on the contended column only → fail
        let mut slow = vec![sm("scaling/a/c1", 1, 1000), sm("scaling/a/c8", 8, 200)];
        slow[1].cycles_contended = 265;
        let regs = compare_scaling(&slow, &base, TOLERANCE);
        assert_eq!(regs.len(), 1);
        assert!(regs[0].contains("scaling/a/c8 (contended)"));
        // disappeared row → fail
        let gone = vec![sm("scaling/a/c1", 1, 1000)];
        assert_eq!(compare_scaling(&gone, &base, TOLERANCE).len(), 1);
    }

    #[test]
    fn compare_flags_only_real_regressions() {
        let base = vec![m("a", 1000, 100), m("b", 1000, 100)];
        // within tolerance + improvement + new metric → pass
        let ok = vec![m("a", 1040, 100), m("b", 900, 90), m("c", 5, 5)];
        assert!(compare(&ok, &base, TOLERANCE).is_empty());
        // 6% regression on the accelerated dual-pipe column only → fail
        let mut slow = vec![m("a", 1000, 106), m("b", 1000, 100)];
        slow[0].accelerated_cycles_db = 90;
        let regs = compare(&slow, &base, TOLERANCE);
        assert_eq!(regs.len(), 1);
        assert!(regs[0].contains("a (accelerated)"));
        // disappeared metric → fail
        let gone = vec![m("a", 1000, 100)];
        assert_eq!(compare(&gone, &base, TOLERANCE).len(), 1);
    }

    #[test]
    fn compare_flags_double_buffered_and_peak_regressions() {
        let base = vec![m("a", 1000, 100)];
        // regression only in the double-buffered column
        let mut db_slow = vec![m("a", 1000, 100)];
        db_slow[0].accelerated_cycles_db = 200;
        let regs = compare(&db_slow, &base, TOLERANCE);
        assert_eq!(regs.len(), 1);
        assert!(regs[0].contains("accelerated double-buffered"));
        // UB footprint grew 2x → fail even though cycles are unchanged
        let mut fat = vec![m("a", 1000, 100)];
        fat[0].ub_peak = 8192;
        let regs = compare(&fat, &base, TOLERANCE);
        assert_eq!(regs.len(), 1);
        assert!(regs[0].contains("UB peak"));
        // L1 peak 0 in baseline: a new non-zero peak is not flagged
        // (nothing to regress against), growth from non-zero is.
        let mut l1 = vec![m("a", 1000, 100)];
        l1[0].l1_peak = 123;
        assert!(compare(&l1, &base, TOLERANCE).is_empty());
    }

    #[test]
    fn committed_baseline_parses_and_covers_all_figures() {
        let base = parse_metrics(COMMITTED_BASELINE).expect("baseline must parse");
        for prefix in [
            "fig7a/", "fig7b/", "fig7c/", "fig7n4/", "fig8s1/", "fig8s2/", "fig8s3/", "table1/",
        ] {
            assert!(
                base.iter().any(|m| m.key.starts_with(prefix)),
                "baseline missing {prefix} metrics"
            );
        }
        // Every Table I row outside Fig. 7 is tracked (10 of 13).
        assert_eq!(
            base.iter().filter(|m| m.key.starts_with("table1/")).count(),
            10
        );
        for m in &base {
            assert!(m.ub_peak > 0, "{}: UB peak must be tracked", m.key);
        }
        // The scaling section is committed: every Fig. 7 shape at every
        // swept core count, with the committed numbers already honouring
        // monotone speedup and contended >= independent.
        let scaling = parse_scaling(COMMITTED_BASELINE).expect("scaling parses");
        assert_eq!(
            scaling.len(),
            3 * SCALING_CORES.len(),
            "baseline must track every Fig. 7 shape at every swept core count"
        );
        for rows in scaling.chunks(SCALING_CORES.len()) {
            for pair in rows.windows(2) {
                assert!(
                    pair[1].cycles <= pair[0].cycles,
                    "{}: committed scaling curve is not monotone",
                    pair[1].key
                );
            }
            for s in rows {
                assert!(
                    s.cycles_contended >= s.cycles,
                    "{}: contention can only add cycles",
                    s.key
                );
            }
        }
        assert!(
            scaling
                .iter()
                .any(|s| s.cores == 32 && s.contention_stalls > 0),
            "the full chip must book contention stalls on some shape"
        );
        // The scaling-backward section is committed: every Fig. 7
        // backward row at every swept core count, with the committed
        // numbers already honouring the halo-merge contract (monotone
        // sub-linear speedup, zero declines, and L2 hits wherever the
        // sub-plane plan was chosen).
        let backward = parse_backward_scaling(COMMITTED_BASELINE).expect("scaling-backward parses");
        assert_eq!(
            backward.len(),
            3 * SCALING_CORES.len(),
            "baseline must track every Fig. 7 backward row at every swept \
             core count"
        );
        for rows in backward.chunks(SCALING_CORES.len()) {
            for pair in rows.windows(2) {
                assert!(
                    pair[1].cycles <= pair[0].cycles,
                    "{}: committed backward scaling curve is not monotone",
                    pair[1].key
                );
            }
            for s in rows {
                assert!(
                    s.cycles_l2 >= s.cycles,
                    "{}: the L2/HBM stage can only add cycles",
                    s.key
                );
                assert_eq!(s.declines, 0, "{}: committed row books a decline", s.key);
                assert!(
                    s.sharded == 0 || s.l2_hits > 0,
                    "{}: committed sub-plane row books no L2 hits",
                    s.key
                );
            }
        }
        assert!(
            backward.iter().any(|s| s.sharded == 1),
            "the committed baseline must pin at least one sub-plane backward win"
        );
        // The tuner section is committed: a chosen-algorithm column for
        // every tracked family, with the committed choices already
        // honouring the Fig. 8 crossover and the honesty contract
        // (tuned cycles never above a feasible alternative's).
        let tuner = parse_tuner(COMMITTED_BASELINE).expect("tuner section parses");
        for prefix in [
            "tuner/fig7a/",
            "tuner/fig7c/",
            "tuner/fig8s1/",
            "tuner/fig8s2/",
            "tuner/table1/",
        ] {
            assert!(
                tuner.iter().any(|t| t.key.starts_with(prefix)),
                "baseline missing {prefix} tuner rows"
            );
        }
        for t in &tuner {
            if t.key.starts_with("tuner/fig8s1/") {
                assert_eq!(t.chosen, "direct", "{}: committed crossover flipped", t.key);
            }
            if t.key.starts_with("tuner/fig8s2/") || t.key.starts_with("tuner/fig7c/") {
                assert_eq!(t.chosen, "im2col", "{}: committed crossover flipped", t.key);
            }
            for (what, alt) in [("direct", t.direct_cycles), ("im2col", t.im2col_cycles)] {
                assert!(
                    alt == 0 || t.tuned_cycles <= alt,
                    "{}: committed tuned cycles {} exceed the forced {} run's {}",
                    t.key,
                    t.tuned_cycles,
                    what,
                    alt
                );
            }
        }
        // The model section is committed: both pinned conv→pool
        // segments, with the committed numbers already honouring the
        // implicit-im2col and tile-handoff contracts.
        let model = parse_model(COMMITTED_BASELINE).expect("model section parses");
        for name in ["model/vgg16-seg", "model/inception-seg"] {
            let m = model
                .iter()
                .find(|m| m.key == name)
                .unwrap_or_else(|| panic!("baseline missing the {name} row"));
            assert!(
                m.conv_implicit_cycles <= m.conv_materialised_cycles,
                "{name}: committed implicit conv cycles exceed materialised"
            );
            assert!(
                m.l1_peak_implicit < m.l1_peak_materialised,
                "{name}: committed implicit L1 peak is not a strict shrink"
            );
            assert!(
                m.gm_bytes_fused < m.gm_bytes_layered,
                "{name}: committed fused GM traffic is not a strict win"
            );
        }
    }
}
