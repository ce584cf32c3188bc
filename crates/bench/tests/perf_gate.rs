//! The enforcing performance-regression gate: [`gate::run`] replays every
//! declared section of `BENCH_pooling.json` (Fig. 7, Fig. 8, Table I,
//! scaling, tuner and model-segment workloads) with each section's
//! contracts asserted in-run, compares every column against the committed
//! baseline (`crates/bench/baselines/pooling.json`) under its declared
//! policy, and writes `BENCH_pooling.json` at the workspace root.
//!
//! On top of the gate, these exact invariants are pinned here:
//!
//! * real single-issue runs of every Fig. 7 / Fig. 8 row land on the
//!   pinned serial baseline cycle-for-cycle (hardcoded below — no
//!   scheduling change may move them, because per-instruction charges
//!   are issue-model-independent; only an intentional *lowering* change
//!   may re-pin a row, with justification);
//! * dual-pipe mode strictly lowers the accelerated (im2col) cycle count
//!   of every Fig. 7 workload, and never exceeds single-issue on any
//!   pinned row;
//! * direct pooling still beats im2col at stride (1, 1) — the Fig. 8
//!   crossover — in the pinned serial rows (`gate::collect` asserts it
//!   in-run for the dual-pipe rows);
//! * double-buffered prefetch strictly wins on the multi-band workloads
//!   whose Vector pipe is the bottleneck, and is declined elsewhere.
//!
//! If this test fails after an *intentional* cost-model or lowering
//! change, regenerate the baseline with
//! `cargo run --release -p dv-bench --bin repro -- gate` and commit it.

use dv_bench::gate;
use std::path::Path;

/// The PR 1 cycle counts (single-issue model), verbatim from the
/// baseline committed before the dual-pipe scheduler landed:
/// (key, standard_cycles, accelerated_cycles).
///
/// Exception: the two *multi-band* backward rows (fig7c at 147 and 71)
/// were re-pinned when banded backward was made bit-exact — each band
/// now re-loads and re-merges the overlap patches instead of carrying
/// partial sums, which legitimately grows the instruction stream. The
/// single-band rows are still the PR 1 numbers cycle-for-cycle.
const SERIAL_BASELINE: &[(&str, u64, u64)] = &[
    ("fig7a/147x147x64", 332120, 97836),
    ("fig7b/147x147x64", 686895, 159629),
    ("fig7c/147x147x64", 1050334, 173041),
    ("fig7a/71x71x192", 76373, 22673),
    ("fig7b/71x71x192", 157893, 37504),
    ("fig7c/71x71x192", 219928, 36985),
    ("fig7a/35x35x288", 18152, 5714),
    ("fig7b/35x35x288", 37370, 8945),
    ("fig7c/35x35x288", 49379, 8726),
    ("fig8s1/16x16", 2201, 3452),
    ("fig8s1/24x24", 5011, 7660),
    ("fig8s2/16x16", 3233, 1505),
    ("fig8s2/24x24", 7738, 2697),
    ("fig8s2/32x32", 14231, 4649),
    ("fig8s3/16x16", 1838, 1081),
    ("fig8s3/24x24", 4408, 1840),
    ("fig8s3/32x32", 6965, 2924),
];

#[test]
fn perf_gate_no_regressions_vs_committed_baseline() {
    match gate::run() {
        Ok(doc) => {
            let root = Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("..")
                .join("..");
            std::fs::write(root.join("BENCH_pooling.json"), &doc)
                .expect("write BENCH_pooling.json");
        }
        Err(regressions) => panic!(
            "performance regressions vs the committed baseline:\n  {}\n\
             (if intentional, regenerate with `cargo run --release -p dv-bench --bin repro -- gate`)",
            regressions.join("\n  ")
        ),
    }
}

/// Replay every [`SERIAL_BASELINE`] row exactly as [`gate::collect`] runs
/// its single-buffered headline columns (the 32-core chip for Fig. 7,
/// one core for Fig. 8, the same input seeds) on both issue models. The
/// serial single-issue oracle must land on the pinned cycles, never
/// stall, and match the dual-pipe run bit for bit (outputs and buffer
/// peaks); the dual-pipe makespan never exceeds it, and strictly beats
/// it on every accelerated Fig. 7 pipeline.
#[test]
fn single_issue_runs_reproduce_the_pinned_serial_cycles() {
    use dv_bench::inputs::{feature_map, gradients, plane};
    use dv_core::{fig7_workloads, ForwardImpl, MergeImpl, PoolingEngine};
    use dv_fp16::F16;
    use dv_sim::{Chip, ChipRun, CostModel};
    use dv_tensor::{reference, PoolParams};

    // Dual-pipe first, then the serial oracle.
    let engines = |cores: usize| {
        [CostModel::ascend910_like(), CostModel::single_issue()]
            .map(|cost| PoolingEngine::new(Chip::new(cores, cost)).with_double_buffering(false))
    };
    let pinned = |key: &str| {
        SERIAL_BASELINE
            .iter()
            .find(|r| r.0 == key)
            .map(|r| (r.1, r.2))
    };
    let check = |key: &str, accelerated: bool, want: u64, runs: [(Vec<F16>, ChipRun); 2]| {
        let [(out_d, dual), (out_s, single)] = runs;
        assert_eq!(out_d, out_s, "{key}: issue model changed results");
        assert_eq!(dual.peaks, single.peaks, "{key}: peaks are timing-free");
        assert_eq!(
            single.cycles, want,
            "{key}: single-issue run must reproduce the pinned serial cycles"
        );
        assert_eq!(
            single.total.stall_cycles, 0,
            "{key}: the serial machine never stalls"
        );
        assert!(
            dual.cycles <= single.cycles,
            "{key}: the dual-pipe makespan {} exceeds the serial sum {}",
            dual.cycles,
            single.cycles
        );
        if accelerated && key.starts_with("fig7") {
            assert!(
                dual.cycles < single.cycles,
                "{key}: dual-pipe must strictly accelerate the im2col pipeline"
            );
        }
    };

    let mut checked = 0;
    let fig7 = engines(32);
    for w in fig7_workloads() {
        let shape = format!("{}x{}x{}", w.h, w.w, w.c);
        let key = format!("fig7a/{shape}");
        if let Some((s, a)) = pinned(&key) {
            let input = feature_map(1, w.c, w.h, w.w, 71);
            for (impl_, want) in [(ForwardImpl::Standard, s), (ForwardImpl::Im2col, a)] {
                let runs = fig7.each_ref().map(|e| {
                    let (out, run) = e.maxpool_forward(&input, w.params, impl_).expect(&key);
                    (out.data().to_vec(), run)
                });
                check(&key, impl_ == ForwardImpl::Im2col, want, runs);
            }
            checked += 1;
        }
        let key = format!("fig7b/{shape}");
        if let Some((s, a)) = pinned(&key) {
            let input = feature_map(1, w.c, w.h, w.w, 72);
            for (impl_, want) in [(ForwardImpl::Standard, s), (ForwardImpl::Im2col, a)] {
                let runs = fig7.each_ref().map(|e| {
                    let (out, mask, run) = e
                        .maxpool_forward_with_argmax(&input, w.params, impl_)
                        .expect(&key);
                    ([out.data(), mask.data()].concat(), run)
                });
                check(&key, impl_ == ForwardImpl::Im2col, want, runs);
            }
            checked += 1;
        }
        let key = format!("fig7c/{shape}");
        if let Some((s, a)) = pinned(&key) {
            let input = feature_map(1, w.c, w.h, w.w, 73);
            let mask = reference::maxpool_argmax_mask(&input, &w.params).expect("mask");
            let (oh, ow) = w.out_dims();
            let grads = gradients(1, input.c1, oh, ow, 74);
            for (merge, want) in [(MergeImpl::VAdd, s), (MergeImpl::Col2Im, a)] {
                let runs = fig7.each_ref().map(|e| {
                    let (dx, run) = e
                        .maxpool_backward(&mask, &grads, w.params, w.h, w.w, merge)
                        .expect(&key);
                    (dx.data().to_vec(), run)
                });
                check(&key, merge == MergeImpl::Col2Im, want, runs);
            }
            checked += 1;
        }
    }
    let fig8 = engines(1);
    for stride in 1usize..=3 {
        let params = PoolParams::new((3, 3), (stride, stride));
        for hw in [16usize, 24, 32] {
            let key = format!("fig8s{stride}/{hw}x{hw}");
            let Some((s, a)) = pinned(&key) else {
                continue;
            };
            let input = plane(1, hw, hw, 80 + hw as u32);
            for (impl_, want) in [(ForwardImpl::Standard, s), (ForwardImpl::Im2col, a)] {
                let runs = fig8.each_ref().map(|e| {
                    let (out, run) = e.maxpool_forward(&input, params, impl_).expect(&key);
                    (out.data().to_vec(), run)
                });
                check(&key, impl_ == ForwardImpl::Im2col, want, runs);
            }
            checked += 1;
        }
    }
    assert_eq!(
        checked,
        SERIAL_BASELINE.len(),
        "every pinned row was replayed"
    );
}

/// Double-buffered row-band prefetch must strictly lower the dual-pipe
/// makespan on every multi-band Fig. 8 workload whose Vector pipe is the
/// bottleneck (standard, expansion, X-Y split), and must leave the
/// SCU-bound im2col schedule untouched — while staying bit-identical to
/// the single-buffered and serial models in all cases.
#[test]
fn double_buffering_strictly_wins_on_multiband_fig8_workloads() {
    use dv_bench::inputs::plane;
    use dv_core::{ForwardImpl, PoolingEngine};
    use dv_sim::{Chip, CostModel};
    use dv_tensor::PoolParams;

    // 96x96 sits past the tiling threshold of every implementation for
    // K(3,3) at strides 1..3, so each run below splits into row bands.
    let cases: &[(usize, ForwardImpl)] = &[
        (1, ForwardImpl::Standard),
        (2, ForwardImpl::Standard),
        (3, ForwardImpl::Standard),
        (2, ForwardImpl::Expansion),
        (2, ForwardImpl::XYSplit),
        (1, ForwardImpl::Im2col),
        (2, ForwardImpl::Im2col),
        (3, ForwardImpl::Im2col),
    ];
    for &(stride, impl_) in cases {
        let params = PoolParams::new((3, 3), (stride, stride));
        let input = plane(1, 96, 96, 80 + stride as u32);
        let db = PoolingEngine::new(Chip::new(1, CostModel::ascend910_like()));
        let plain = db.clone().with_double_buffering(false);
        let serial = PoolingEngine::new(Chip::new(1, CostModel::single_issue()));
        let (o_db, r_db) = db.maxpool_forward(&input, params, impl_).expect("db");
        let (o_pl, r_pl) = plain.maxpool_forward(&input, params, impl_).expect("plain");
        let (o_se, _) = serial
            .maxpool_forward(&input, params, impl_)
            .expect("serial");
        assert_eq!(
            o_db.data(),
            o_pl.data(),
            "s{stride} {impl_:?}: double-buffering changed the result"
        );
        assert_eq!(
            o_db.data(),
            o_se.data(),
            "s{stride} {impl_:?}: issue model changed the result"
        );
        if impl_ == ForwardImpl::Im2col {
            assert_eq!(
                r_db.cycles, r_pl.cycles,
                "s{stride} {impl_:?}: the SCU-bound im2col lowering must \
                 decline prefetch and keep the reference schedule"
            );
        } else {
            assert!(
                r_db.cycles < r_pl.cycles,
                "s{stride} {impl_:?}: prefetch must strictly lower the \
                 dual-pipe makespan ({} vs {})",
                r_db.cycles,
                r_pl.cycles
            );
        }
    }
}

/// On the multi-band Fig. 7 shape, prefetch must strictly pay off for
/// the Col2Im merge (real MTE time to hide), must be declined by the
/// Vector-bound VAdd merge (halved bands double the overlap tax), and
/// the gradients must stay bit-identical across buffering modes.
#[test]
fn double_buffering_strictly_wins_on_multiband_backward() {
    use dv_bench::inputs::{feature_map, gradients};
    use dv_core::{MergeImpl, PoolingEngine};
    use dv_tensor::reference;

    let w = dv_core::fig7_workloads()[0]; // 147x147x64 — multi-band
    let input = feature_map(1, w.c, w.h, w.w, 73);
    let mask = reference::maxpool_argmax_mask(&input, &w.params).expect("mask");
    let (oh, ow) = w.out_dims();
    let grads = gradients(1, input.c1, oh, ow, 74);
    let db = PoolingEngine::ascend910();
    let plain = db.clone().with_double_buffering(false);
    for merge in [MergeImpl::VAdd, MergeImpl::Col2Im] {
        let (dx_db, r_db) = db
            .maxpool_backward(&mask, &grads, w.params, w.h, w.w, merge)
            .expect("db backward");
        let (dx_pl, r_pl) = plain
            .maxpool_backward(&mask, &grads, w.params, w.h, w.w, merge)
            .expect("plain backward");
        assert_eq!(
            dx_db.data(),
            dx_pl.data(),
            "{merge:?}: double-buffering changed the gradient"
        );
        if merge == MergeImpl::VAdd {
            assert_eq!(
                r_db.cycles, r_pl.cycles,
                "VAdd: the Vector-bound merge must decline prefetch and \
                 keep the reference schedule"
            );
        } else {
            assert!(
                r_db.cycles < r_pl.cycles,
                "{merge:?}: prefetch must strictly lower the dual-pipe \
                 makespan ({} vs {})",
                r_db.cycles,
                r_pl.cycles
            );
        }
    }
}
