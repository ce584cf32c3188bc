//! The performance-regression gate.
//!
//! The whole point of this repository is the *cycle counts* — a refactor
//! that keeps outputs bit-exact but quietly doubles the simulated cycles
//! of the accelerated kernels has destroyed the artifact without failing
//! a single functional test. This module replays the paper's Fig. 7 and
//! Fig. 8 workloads plus the remaining Table I rows, writes the measured
//! cycles, speedups, and buffer-occupancy peaks to `BENCH_pooling.json`,
//! and compares them against the committed baseline in
//! `crates/bench/baselines/pooling.json` (the simulator is
//! deterministic, so honest changes show up as exact deltas).
//!
//! The document is a declared list of [`Section`]s ([`POOLING`]). A
//! section names its JSON key, the collector that replays its workloads
//! with the section's contracts asserted in-run, and its [`Column`]s, each
//! with exactly one [`Policy`]: a ceiling within [`TOLERANCE`], an exact
//! value (a categorical flip fails), a count that must stay non-zero, an
//! info column, or a ratio derived at render time. One
//! [`Document::render`], one [`Document::parse`] and one
//! [`Document::compare`] serve every section, and the host-throughput
//! gate's document ([`crate::host::HOST`]) too. A row on only one side of
//! a comparison fails, and a baseline missing a section does not parse:
//! baselines are regenerated, never migrated. Adding a section is a
//! collector returning [`Row`]s plus one entry in [`POOLING`]; rendering,
//! parsing, comparing and the round-trip test follow from the
//! declaration.
//!
//! The sections:
//!
//! * `metrics` ([`collect`]): dual-pipe cycles of the standard and
//!   accelerated implementations, single- and double-buffered, plus
//!   scratchpad peaks from [`ChipRun::peaks`], so a lowering change that
//!   silently grows scratchpad footprints fails alongside cycle
//!   regressions. The serial single-issue machine is a test oracle
//!   (`tests/perf_gate.rs` pins real `CostModel::single_issue()` runs),
//!   not a gate column.
//! * `scaling` ([`collect_scaling`]) and `scaling-backward`
//!   ([`collect_backward_scaling`]): the sharded engine at every
//!   [`SCALING_CORES`] count, under the independent memory model and the
//!   shared-HBM contention / L2 locality stages.
//! * `tuner` ([`collect_tuner`]): which algorithm the auto-tuner
//!   ([`PoolingEngine::with_auto_tuning`]) chose per tracked workload,
//!   with its prediction and each forced alternative's cycles.
//! * `model` ([`collect_model`]): the pinned conv→pool segments, layered
//!   vs fused, and their conv under both im2col lowerings.
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
use dv_fp16::F16;
use dv_isa::BufferId;
use dv_sim::{Chip, ChipRun, CostModel, MemoryModel};
use dv_tensor::{reference, PoolParams};
use dv_tensor::{Nc1hwc0, PatchTensor};
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;
use Policy::{Ceiling, Derived, Exact, Info, NonZero};

/// Relative slowdown tolerated before the gate fails (5%).
pub const TOLERANCE: f64 = 0.05;

/// The committed baseline (regenerate via `repro -- gate` when a change
/// legitimately moves cycles).
pub const COMMITTED_BASELINE: &str = include_str!("../baselines/pooling.json");

/// Core counts the scaling gate sweeps — serial (1), under-subscribed
/// plane parallelism (2), the regime where band splitting starts paying
/// (8), and the full chip where 32 concurrent MTE streams oversubscribe
/// the shared HBM pipe by 4x (32 cores x 32 B/cyc vs 256 B/cyc).
pub const SCALING_CORES: [usize; 4] = [1, 2, 8, 32];

/// One stored value of a [`Row`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Cell {
    /// A count: cycles, bytes, line hits, or a 0/1 choice.
    Int(u64),
    /// A categorical label, e.g. the tuner's chosen algorithm.
    Text(String),
}

impl From<u64> for Cell {
    fn from(v: u64) -> Cell {
        Cell::Int(v)
    }
}

impl From<&str> for Cell {
    fn from(v: &str) -> Cell {
        Cell::Text(v.to_string())
    }
}

/// Renders the cell as its JSON value.
impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::Int(v) => write!(f, "{v}"),
            Cell::Text(t) => write!(f, "\"{t}\""),
        }
    }
}

/// One gate row: a stable key plus the stored (non-derived) columns of
/// its section, by name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Row {
    /// Stable identifier, e.g. `fig7a/147x147x64` or `tuner/fig8s2/24x24`.
    pub key: String,
    cells: BTreeMap<&'static str, Cell>,
}

impl Row {
    /// A row with no cells yet.
    pub fn new(key: impl Into<String>) -> Row {
        Row {
            key: key.into(),
            cells: BTreeMap::new(),
        }
    }

    /// Builder: store one column's value.
    pub fn with(mut self, column: &'static str, value: impl Into<Cell>) -> Row {
        self.cells.insert(column, value.into());
        self
    }

    /// The stored cell of `column`. Panics when the row has none — a
    /// collector that skipped a declared column.
    pub fn cell(&self, column: &str) -> &Cell {
        self.cells
            .get(column)
            .unwrap_or_else(|| panic!("{}: no \"{column}\" cell", self.key))
    }

    /// The count stored in `column`. Panics on a text cell.
    pub fn int(&self, column: &str) -> u64 {
        match self.cell(column) {
            Cell::Int(v) => *v,
            Cell::Text(t) => panic!("{}: \"{column}\" holds text {t:?}, not a count", self.key),
        }
    }

    /// The label stored in `column`. Panics on a count cell.
    pub fn text(&self, column: &str) -> &str {
        match self.cell(column) {
            Cell::Text(t) => t,
            Cell::Int(v) => panic!("{}: \"{column}\" holds count {v}, not a label", self.key),
        }
    }

    /// `num / den` over two count columns (a zero denominator counts as
    /// one).
    pub fn ratio(&self, num: &str, den: &str) -> f64 {
        self.int(num) as f64 / self.int(den).max(1) as f64
    }
}

/// What the gate does with one column of a row against the same row in
/// the baseline.
#[derive(Clone, Copy, Debug)]
pub enum Policy {
    /// Lower is better: more than the tolerance above the baseline
    /// fails. A zero baseline is not gated.
    Ceiling,
    /// Must equal the baseline: a categorical flip fails even when the
    /// cycles improve. The simulator is deterministic, so a flip is a
    /// policy change to re-baseline deliberately.
    Exact,
    /// Must stay non-zero wherever the baseline is non-zero.
    NonZero,
    /// Recorded for trending, never compared.
    Info,
    /// Rendered to the given number of decimals from the row and its
    /// baseline row, if any; `None` omits the column. Never stored,
    /// parsed or compared.
    Derived(usize, fn(&Row, Option<&Row>) -> Option<f64>),
}

/// One declared column: its JSON name and its [`Policy`].
#[derive(Clone, Copy, Debug)]
pub struct Column(pub &'static str, pub Policy);

/// One declared section of a gate document.
#[derive(Clone, Copy, Debug)]
pub struct Section {
    /// The section's top-level JSON key.
    pub name: &'static str,
    /// The columns after `key`, in render order.
    pub columns: &'static [Column],
    /// Replays the section's workloads, asserting its contracts in-run.
    pub collect: fn() -> Vec<Row>,
}

impl Section {
    fn render_row(&self, out: &mut String, row: &Row, base: Option<&Row>) {
        let _ = write!(out, "    {{\"key\": \"{}\"", row.key);
        for &Column(name, policy) in self.columns {
            match policy {
                Derived(decimals, f) => {
                    if let Some(v) = f(row, base) {
                        let _ = write!(out, ", \"{name}\": {v:.decimals$}");
                    }
                }
                _ => {
                    let _ = write!(out, ", \"{name}\": {}", row.cell(name));
                }
            }
        }
        out.push('}');
    }

    fn parse_row(&self, v: &json::Value) -> Result<Row, String> {
        let key = v
            .get("key")
            .and_then(json::Value::as_str)
            .ok_or(format!("{} row missing \"key\"", self.name))?;
        let mut row = Row::new(key);
        for &Column(name, policy) in self.columns {
            let cell = match (policy, v.get(name)) {
                (Derived(..), _) => continue,
                (_, Some(json::Value::Str(t))) => Cell::Text(t.clone()),
                (_, Some(n)) => Cell::Int(
                    n.as_u64()
                        .ok_or(format!("{key}: \"{name}\" is not a count"))?,
                ),
                (_, None) => return Err(format!("{key}: missing \"{name}\"")),
            };
            row = row.with(name, cell);
        }
        Ok(row)
    }

    /// Compare this section's rows against its baseline rows. A row on
    /// only one side fails; matched rows are checked column by column
    /// under each column's [`Policy`], with `tolerance` as the ceiling
    /// slack.
    pub fn compare(&self, current: &[Row], baseline: &[Row], tolerance: f64) -> Vec<String> {
        let mut regressions: Vec<String> = current
            .iter()
            .filter(|c| !baseline.iter().any(|b| b.key == c.key))
            .map(|c| {
                format!(
                    "{}: {} row missing from the baseline (regenerate it)",
                    c.key, self.name
                )
            })
            .collect();
        for b in baseline {
            let Some(c) = current.iter().find(|c| c.key == b.key) else {
                regressions.push(format!("{}: tracked {} row disappeared", b.key, self.name));
                continue;
            };
            for &Column(name, policy) in self.columns {
                match policy {
                    Ceiling => {
                        let (now, base) = (c.int(name), b.int(name));
                        let ratio = now as f64 / base.max(1) as f64;
                        if base > 0 && ratio > 1.0 + tolerance {
                            regressions.push(format!(
                                "{} ({name}): {now} vs baseline {base} ({:+.1}%)",
                                b.key,
                                (ratio - 1.0) * 100.0
                            ));
                        }
                    }
                    Exact if c.cell(name) != b.cell(name) => regressions.push(format!(
                        "{} ({name}): flipped {} -> {}",
                        b.key,
                        b.cell(name),
                        c.cell(name)
                    )),
                    NonZero if b.int(name) > 0 && c.int(name) == 0 => regressions.push(format!(
                        "{} ({name}): vanished ({} -> 0)",
                        b.key,
                        b.int(name)
                    )),
                    _ => {}
                }
            }
        }
        regressions
    }
}

/// A gate document: a `benchmark` name, scalar header fields, and the
/// declared sections, each rendered as a top-level array of rows.
#[derive(Clone, Copy, Debug)]
pub struct Document {
    /// The document's `benchmark` field.
    pub benchmark: &'static str,
    /// Scalar fields rendered after `benchmark`, e.g. the tolerance.
    pub header: &'static [(&'static str, f64)],
    /// The declared sections, in render order.
    pub sections: &'static [Section],
}

impl Document {
    /// Run every section's collector, in declaration order.
    pub fn collect(&self) -> Vec<Vec<Row>> {
        self.sections.iter().map(|s| (s.collect)()).collect()
    }

    /// Render one row list per section. With a `baseline`, derived
    /// columns relative to it (`vs_baseline_*`) are filled in for every
    /// row the baseline also has.
    pub fn render(&self, tables: &[Vec<Row>], baseline: Option<&[Vec<Row>]>) -> String {
        assert_eq!(
            tables.len(),
            self.sections.len(),
            "one row list per section"
        );
        let mut out = format!("{{\n  \"benchmark\": \"{}\",\n", self.benchmark);
        for (name, v) in self.header {
            let _ = writeln!(out, "  \"{name}\": {v},");
        }
        for (i, (s, rows)) in self.sections.iter().zip(tables).enumerate() {
            let _ = writeln!(out, "  \"{}\": [", s.name);
            for (j, row) in rows.iter().enumerate() {
                let base = baseline.and_then(|b| b[i].iter().find(|b| b.key == row.key));
                s.render_row(&mut out, row, base);
                out.push_str(if j + 1 == rows.len() { "\n" } else { ",\n" });
            }
            out.push_str(if i + 1 == tables.len() {
                "  ]\n"
            } else {
                "  ],\n"
            });
        }
        out.push_str("}\n");
        out
    }

    /// Parse a rendered document back into one row list per section. A
    /// missing section or stored column is an error.
    pub fn parse(&self, doc: &str) -> Result<Vec<Vec<Row>>, String> {
        let v = json::parse(doc).map_err(|e| e.to_string())?;
        self.sections
            .iter()
            .map(|s| {
                v.get(s.name)
                    .and_then(json::Value::as_arr)
                    .ok_or(format!("missing \"{}\" section", s.name))?
                    .iter()
                    .map(|r| s.parse_row(r))
                    .collect()
            })
            .collect()
    }

    /// [`Section::compare`] every section against its baseline rows.
    pub fn compare(
        &self,
        current: &[Vec<Row>],
        baseline: &[Vec<Row>],
        tolerance: f64,
    ) -> Vec<String> {
        let n = self.sections.len();
        assert!(
            current.len() == n && baseline.len() == n,
            "one row list per section"
        );
        self.sections
            .iter()
            .zip(current.iter().zip(baseline))
            .flat_map(|(s, (c, b))| s.compare(c, b, tolerance))
            .collect()
    }
}

/// `BENCH_pooling.json`: the cycle gate's sections.
pub const POOLING: Document = Document {
    benchmark: "pooling",
    header: &[("tolerance", TOLERANCE)],
    sections: &[
        Section {
            name: "metrics",
            columns: &[
                Column("standard_cycles", Ceiling),
                Column("accelerated_cycles", Ceiling),
                Column(
                    "speedup",
                    Derived(4, |r, _| {
                        Some(r.ratio("standard_cycles", "accelerated_cycles"))
                    }),
                ),
                // Double-buffered row-band prefetch (equal to the plain
                // columns when the workload fits a single band).
                Column("standard_cycles_db", Ceiling),
                Column("accelerated_cycles_db", Ceiling),
                Column(
                    "speedup_db",
                    Derived(4, |r, _| {
                        Some(r.ratio("standard_cycles_db", "accelerated_cycles_db"))
                    }),
                ),
                // Peak occupancy in bytes, max over both implementations.
                Column("ub_peak", Ceiling),
                Column("l1_peak", Ceiling),
                Column("ub_peak_db", Ceiling),
                Column("l1_peak_db", Ceiling),
                // Cycle ratio vs the baseline (1.0 = unchanged).
                Column(
                    "vs_baseline_standard",
                    Derived(4, |r, b| b.map(|b| vs(r, b, "standard_cycles"))),
                ),
                Column(
                    "vs_baseline_accelerated",
                    Derived(4, |r, b| b.map(|b| vs(r, b, "accelerated_cycles"))),
                ),
            ],
            collect,
        },
        Section {
            name: "scaling",
            columns: &[
                Column("cores", Info),
                Column("cycles", Ceiling),
                Column("cycles_contended", Ceiling),
                Column("contention_stalls", Info),
                Column(
                    "contention_factor",
                    Derived(4, |r, _| Some(r.ratio("cycles_contended", "cycles"))),
                ),
            ],
            collect: collect_scaling,
        },
        Section {
            name: "scaling-backward",
            columns: &[
                Column("cores", Info),
                Column("cycles", Ceiling),
                Column("cycles_l2", Ceiling),
                Column(
                    "l2_factor",
                    Derived(4, |r, _| Some(r.ratio("cycles_l2", "cycles"))),
                ),
                Column("l2_hits", NonZero),
                Column("l2_miss_stalls", Info),
                Column("gm_bytes", Info),
                // 1 = the partitioner chose the sub-plane plan.
                Column("sharded", Exact),
                Column("declines", Info),
            ],
            collect: collect_backward_scaling,
        },
        Section {
            name: "tuner",
            columns: &[
                Column("chosen", Exact),
                Column("predicted_cycles", Info),
                Column("tuned_cycles", Ceiling),
                // Forced alternatives; 0 = that lowering is infeasible.
                Column("direct_cycles", Info),
                Column("im2col_cycles", Info),
            ],
            collect: collect_tuner,
        },
        Section {
            name: "model",
            columns: &[
                Column("layered_cycles", Ceiling),
                Column("fused_cycles", Ceiling),
                Column(
                    "fused_gain",
                    Derived(4, |r, _| Some(r.ratio("layered_cycles", "fused_cycles"))),
                ),
                Column("conv_materialised_cycles", Ceiling),
                Column("conv_implicit_cycles", Ceiling),
                Column("l1_peak_materialised", Ceiling),
                Column("l1_peak_implicit", Ceiling),
                Column(
                    "l1_shrink",
                    Derived(4, |r, _| {
                        Some(r.ratio("l1_peak_implicit", "l1_peak_materialised"))
                    }),
                ),
                Column("gm_bytes_layered", Ceiling),
                Column("gm_bytes_fused", Ceiling),
                Column("ub_peak_fused", Ceiling),
            ],
            collect: collect_model,
        },
    ],
};

/// `column` of `row` relative to the same column of its baseline row.
fn vs(row: &Row, base: &Row, column: &str) -> f64 {
    row.int(column) as f64 / base.int(column).max(1) as f64
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
///   livelocks a core — and it only ever **adds** cycles;
/// * the full chip books contention stalls on at least one shape.
pub fn collect_scaling() -> Vec<Row> {
    let mut out = Vec::new();
    let cost = CostModel::ascend910_like();
    let MemoryModel::SharedBandwidth {
        bytes_per_cycle: shared,
    } = MemoryModel::ascend910_hbm()
    else {
        unreachable!("ascend910_hbm is a shared-bandwidth model");
    };
    let mut full_chip_stalls = 0u64;
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
            assert!(
                run_c.cycles >= run.cycles,
                "scaling/{shape}/c{cores}: the contention stage can only add cycles"
            );
            if cores == 32 {
                full_chip_stalls += run_c.total.contention_stalls;
            }
            out.push(
                Row::new(format!("scaling/{shape}/c{cores}"))
                    .with("cores", cores as u64)
                    .with("cycles", run.cycles)
                    .with("cycles_contended", run_c.cycles)
                    .with("contention_stalls", run_c.total.contention_stalls),
            );
        }
    }
    assert!(
        full_chip_stalls > 0,
        "the full chip must book contention stalls on some shape"
    );
    out
}

/// Replay the Fig. 7 backward (Fig. 7c) workloads through the sharded
/// engine at every [`SCALING_CORES`] count, under both the independent
/// memory model and the per-plane L2 locality stage
/// ([`MemoryModel::ascend910_l2`]).
///
/// Asserts the halo-merge tentpole's contract in-run:
///
/// * gradients are **bit-identical** at every core count, under both
///   memory models, and to `dv_tensor::reference::maxpool_backward` —
///   halo-merge sharding is pure scheduling;
/// * independent-model cycles are **monotone non-increasing** in the
///   core count and speedup stays **sub-linear**
///   (`cycles(n) * n >= cycles(1)`), including across the switch to
///   sub-plane shards; the L2 stage only ever **adds** cycles;
/// * nothing declines and nothing goes uncertified on a tracked row
///   (`tuner_fallbacks == 0`, `tuner_mispredicted == 0`) — the
///   partitioner only picks sub-plane splits it can actually lower;
/// * whenever the sub-plane plan is chosen — under the L2 model or under
///   the independent model the `sharded` column records — the L2-model
///   run books **`l2_hits > 0`**: row-band shards of one plane re-read
///   overlapping gradient/mask rows from the L2 instead of the HBM, so
///   the sharded plan moves strictly fewer HBM bytes than per-plane;
/// * at least one tracked row engages sub-plane shards.
pub fn collect_backward_scaling() -> Vec<Row> {
    use dv_core::{choose_backward_partition, PartitionAxis, PoolProblem};
    let mut out = Vec::new();
    let cost = CostModel::ascend910_like();
    let mut any_sharded = false;
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
            assert!(
                run_l2.cycles >= run.cycles,
                "{key}: the L2 memory stage can only add cycles over independent"
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
            if sharded {
                assert!(
                    run_l2.total.l2_hits > 0,
                    "{key}: same-plane row-band shards must share L2 lines"
                );
            }
            any_sharded |= sharded;
            out.push(
                Row::new(key)
                    .with("cores", cores as u64)
                    .with("cycles", run.cycles)
                    .with("cycles_l2", run_l2.cycles)
                    .with("l2_hits", run_l2.total.l2_hits)
                    .with("l2_miss_stalls", run_l2.total.l2_miss_stalls)
                    .with("gm_bytes", run.total.gm_bytes)
                    .with("sharded", u64::from(sharded))
                    .with("declines", run.total.tuner_fallbacks),
            );
        }
    }
    assert!(
        any_sharded,
        "at least one Fig. 7 backward row must engage sub-plane shards"
    );
    out
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
) -> Row {
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
    Row::new(key)
        .with("chosen", winner.label())
        .with("predicted_cycles", choice.predicted(winner).unwrap_or(0))
        .with("tuned_cycles", run.cycles)
        .with("direct_cycles", cycles[0])
        .with("im2col_cycles", cycles[1])
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
) -> Row {
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
    Row::new(key)
        .with("chosen", winner.label())
        .with("predicted_cycles", choice.predicted(winner).unwrap_or(0))
        .with("tuned_cycles", run.cycles)
        .with("direct_cycles", cycles[0])
        .with("im2col_cycles", cycles[1])
}

/// Replay the tracked workloads through the auto-tuned engine and record
/// which algorithm it chose per row, with the prediction-honesty
/// contract asserted in-run on every row: no fallback, no uncertified
/// win, bit-identical to every forced algorithm, and never slower than
/// any of them. Two choices are pinned here because they *are* the
/// paper's Fig. 8 crossover: stride (1, 1) must auto-select the direct
/// reduction and stride (2, 2) must auto-select im2col. The backward
/// tuner must route every Fig. 7 shape through the Col2Im merge — the
/// paper's Section V-B claim.
pub fn collect_tuner() -> Vec<Row> {
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
            m.text("chosen"),
            "im2col",
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
                    m.text("chosen"),
                    "direct",
                    "{}: stride (1,1) must auto-select the direct reduction \
                     (the Fig. 8a crossover)",
                    m.key
                ),
                2 => assert_eq!(
                    m.text("chosen"),
                    "im2col",
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
///   (`implicit_declines`, `fusion_declines`) must read zero;
/// * the fused segment is **never slower** than the layered pass.
pub fn collect_model() -> Vec<Row> {
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
        let (layered_cycles, fused_cycles) = (layered_run.total_cycles(), fused_run.total_cycles());
        assert!(
            fused_cycles <= layered_cycles,
            "{key}: the fused segment may never run slower than layered \
             ({fused_cycles} vs {layered_cycles})"
        );

        out.push(
            Row::new(key)
                .with("layered_cycles", layered_cycles)
                .with("fused_cycles", fused_cycles)
                .with("conv_materialised_cycles", run_m.cycles)
                .with("conv_implicit_cycles", run_i.cycles)
                .with("l1_peak_materialised", run_m.peaks.of(BufferId::L1) as u64)
                .with("l1_peak_implicit", run_i.peaks.of(BufferId::L1) as u64)
                .with("gm_bytes_layered", gm_bytes_layered)
                .with("gm_bytes_fused", run_f.total.gm_bytes)
                .with("ub_peak_fused", run_f.peaks.of(BufferId::Ub) as u64),
        );
    }
    out
}

/// Replay one `metrics` row on the grid
/// `engines[double_buffered][accelerated]`: `run(engine, accelerated)`
/// returns the output values (the mask appended for argmax runs) and the
/// chip run. Asserts in-run that all four outputs agree, that the
/// double-buffered peaks stay within the 2x band-footprint budget, and
/// that the UB peak and standard cycles are non-zero; pushes the row and
/// returns the runs as `[standard, accelerated, standard_db,
/// accelerated_db]` for row-specific contracts. `labels` names the two
/// implementations in failure messages.
fn push_metric(
    out: &mut Vec<Row>,
    key: &str,
    labels: [&str; 2],
    engines: [[&PoolingEngine; 2]; 2],
    run: impl Fn(&PoolingEngine, bool) -> (Vec<F16>, ChipRun),
) -> [ChipRun; 4] {
    let family = key.split('/').next().unwrap_or(key);
    let [(o_s, std), (o_a, acc), (o_sd, std_db), (o_ad, acc_db)] =
        [(0, false), (0, true), (1, false), (1, true)]
            .map(|(db, a)| run(engines[db][a as usize], a));
    assert_eq!(o_s, o_a, "{family} implementations disagree");
    assert_eq!(o_s, o_sd, "{family} db changed {} output", labels[0]);
    assert_eq!(o_a, o_ad, "{family} db changed {} output", labels[1]);
    let peak = |a: &ChipRun, b: &ChipRun, buf| a.peaks.of(buf).max(b.peaks.of(buf)) as u64;
    let (ub_peak, l1_peak) = (
        peak(&std, &acc, BufferId::Ub),
        peak(&std, &acc, BufferId::L1),
    );
    let (ub_peak_db, l1_peak_db) = (
        peak(&std_db, &acc_db, BufferId::Ub),
        peak(&std_db, &acc_db, BufferId::L1),
    );
    // The ping-pong layout may double the band-cycled regions but never
    // more: the planner sizes bands so 2x the footprint fits.
    assert!(
        ub_peak_db <= 2 * ub_peak && l1_peak_db <= 2 * l1_peak.max(1),
        "{key}: double-buffered peaks exceed the 2x band-footprint budget \
         (UB {ub_peak_db} vs {ub_peak}, L1 {l1_peak_db} vs {l1_peak})"
    );
    assert!(ub_peak > 0, "{key}: UB peak must be tracked");
    assert!(std.cycles > 0, "{key}: degenerate speedup");
    out.push(
        Row::new(key)
            .with("standard_cycles", std.cycles)
            .with("accelerated_cycles", acc.cycles)
            .with("standard_cycles_db", std_db.cycles)
            .with("accelerated_cycles_db", acc_db.cycles)
            .with("ub_peak", ub_peak)
            .with("l1_peak", l1_peak)
            .with("ub_peak_db", ub_peak_db)
            .with("l1_peak_db", l1_peak_db),
    );
    [std, acc, std_db, acc_db]
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
pub fn collect() -> Vec<Row> {
    const FORWARD: [&str; 2] = ["standard", "im2col"];
    let forward = |acc| {
        if acc {
            ForwardImpl::Im2col
        } else {
            ForwardImpl::Standard
        }
    };
    let mut out = Vec::new();
    // Headline columns run single-buffered (the PR 1-comparable
    // schedule); the `*_db` columns rerun the same workloads with
    // double-buffered row-band prefetch and must be bit-identical.
    let eng = PoolingEngine::ascend910().with_double_buffering(false);
    let eng_db = PoolingEngine::ascend910();
    let engines = [[&eng; 2], [&eng_db; 2]];

    for w in fig7_workloads() {
        let shape = format!("{}x{}x{}", w.h, w.w, w.c);

        // Fig. 7a — forward.
        let input = feature_map(1, w.c, w.h, w.w, 71);
        push_metric(
            &mut out,
            &format!("fig7a/{shape}"),
            FORWARD,
            engines,
            |e, acc| {
                let (o, run) = e
                    .maxpool_forward(&input, w.params, forward(acc))
                    .expect("fig7a");
                (o.data().to_vec(), run)
            },
        );

        // Fig. 7b — forward with the argmax mask.
        let input = feature_map(1, w.c, w.h, w.w, 72);
        push_metric(
            &mut out,
            &format!("fig7b/{shape}"),
            FORWARD,
            engines,
            |e, acc| {
                let (o, m, run) = e
                    .maxpool_forward_with_argmax(&input, w.params, forward(acc))
                    .expect("fig7b");
                ([o.data(), m.data()].concat(), run)
            },
        );

        // Fig. 7c — backward.
        let input = feature_map(1, w.c, w.h, w.w, 73);
        let mask = reference::maxpool_argmax_mask(&input, &w.params).expect("mask");
        let (oh, ow) = w.out_dims();
        let grads = gradients(1, input.c1, oh, ow, 74);
        push_metric(
            &mut out,
            &format!("fig7c/{shape}"),
            ["vadd", "col2im"],
            engines,
            |e, acc| {
                let merge = if acc {
                    MergeImpl::Col2Im
                } else {
                    MergeImpl::VAdd
                };
                let (dx, run) = e
                    .maxpool_backward(&mask, &grads, w.params, w.h, w.w, merge)
                    .expect("fig7c");
                (dx.data().to_vec(), run)
            },
        );
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
        let [std, acc, std_db, acc_db] = push_metric(
            &mut out,
            &format!("fig7n4/{shape}"),
            ["per-plane", "batched"],
            [[&per, &bat], [&per_db, &bat_db]],
            |e, _| {
                let (o, run) = e
                    .maxpool_forward(&input, w.params, ForwardImpl::Im2col)
                    .expect("fig7n4");
                (o.data().to_vec(), run)
            },
        );
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
            let key = format!("fig8s{stride}/{hw}x{hw}");
            let input = plane(1, hw, hw, 80 + hw as u32);
            let [std, acc, std_db, acc_db] = push_metric(
                &mut out,
                &key,
                FORWARD,
                [[&eng1; 2], [&eng1_db; 2]],
                |e, acc| {
                    let (o, run) = e
                        .maxpool_forward(&input, params, forward(acc))
                        .expect("fig8");
                    (o.data().to_vec(), run)
                },
            );
            // Below the tiling threshold the workload is a single band,
            // so double-buffering has nothing to prefetch and must leave
            // the schedule alone.
            assert_eq!(
                (std_db.cycles, acc_db.cycles),
                (std.cycles, acc.cycles),
                "{key}: single-band workloads must be unaffected by double-buffering"
            );
            if stride == 1 {
                assert!(
                    std.cycles < acc.cycles && std_db.cycles < acc_db.cycles,
                    "{key}: direct pooling must still win at stride (1,1)"
                );
            }
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
        push_metric(
            &mut out,
            &format!("table1/{}-{}/{shape}", w.cnn, w.input_idx),
            FORWARD,
            engines,
            |e, acc| {
                let (o, run) = e
                    .maxpool_forward(&input, w.params, forward(acc))
                    .expect("table1");
                (o.data().to_vec(), run)
            },
        );
    }

    out
}

/// Run the full gate against [`COMMITTED_BASELINE`]: collect every
/// section, compare, and return the rendered `BENCH_pooling.json`
/// contents on success or the regression list on failure.
pub fn run() -> Result<String, Vec<String>> {
    let baseline = POOLING
        .parse(COMMITTED_BASELINE)
        .map_err(|e| vec![format!("committed baseline unreadable: {e}")])?;
    let current = POOLING.collect();
    let regressions = POOLING.compare(&current, &baseline, TOLERANCE);
    if regressions.is_empty() {
        Ok(POOLING.render(&current, Some(&baseline)))
    } else {
        Err(regressions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::HOST;

    /// A synthetic section with one column per policy.
    const TOY: Section = Section {
        name: "toy",
        columns: &[
            Column("cycles", Ceiling),
            Column("chosen", Exact),
            Column("hits", NonZero),
            Column("stalls", Info),
            Column(
                "stall_share",
                Derived(4, |r, _| Some(r.ratio("stalls", "cycles"))),
            ),
        ],
        collect: Vec::new,
    };

    fn toy(key: &str, cycles: u64, chosen: &str, hits: u64, stalls: u64) -> Row {
        Row::new(key)
            .with("cycles", cycles)
            .with("chosen", chosen)
            .with("hits", hits)
            .with("stalls", stalls)
    }

    fn regressions(current: &[Row], baseline: &[Row]) -> Vec<String> {
        TOY.compare(current, baseline, TOLERANCE)
    }

    #[test]
    fn ceiling_fails_beyond_the_tolerance_unless_the_baseline_is_zero() {
        let base = [toy("a", 1000, "x", 1, 0), toy("z", 0, "x", 1, 0)];
        let within = [toy("a", 1040, "x", 1, 0), toy("z", 0, "x", 1, 0)];
        assert!(regressions(&within, &base).is_empty());
        let improved = [toy("a", 500, "x", 1, 0), toy("z", 0, "x", 1, 0)];
        assert!(regressions(&improved, &base).is_empty());
        let slow = [toy("a", 1060, "x", 1, 0), toy("z", 0, "x", 1, 0)];
        assert_eq!(
            regressions(&slow, &base),
            ["a (cycles): 1060 vs baseline 1000 (+6.0%)"]
        );
        // Nothing to regress against: a zero baseline is not gated.
        let grown = [toy("a", 1000, "x", 1, 0), toy("z", 5000, "x", 1, 0)];
        assert!(regressions(&grown, &base).is_empty());
    }

    #[test]
    fn exact_fails_on_a_flip_even_when_cycles_improve() {
        let base = [toy("a", 1000, "direct", 1, 0)];
        assert!(regressions(&[toy("a", 1000, "direct", 1, 0)], &base).is_empty());
        let flipped = [toy("a", 500, "im2col", 1, 0)];
        assert_eq!(
            regressions(&flipped, &base),
            ["a (chosen): flipped \"direct\" -> \"im2col\""]
        );
    }

    #[test]
    fn non_zero_fails_when_a_count_vanishes() {
        let base = [toy("a", 1000, "x", 420, 0), toy("b", 1000, "x", 0, 0)];
        let fewer = [toy("a", 1000, "x", 1, 0), toy("b", 1000, "x", 0, 0)];
        assert!(regressions(&fewer, &base).is_empty());
        let cold = [toy("a", 1000, "x", 0, 0), toy("b", 1000, "x", 0, 0)];
        assert_eq!(regressions(&cold, &base), ["a (hits): vanished (420 -> 0)"]);
    }

    #[test]
    fn info_is_never_compared() {
        let base = [toy("a", 1000, "x", 1, 10)];
        for stalls in [0, 10_000] {
            assert!(regressions(&[toy("a", 1000, "x", 1, stalls)], &base).is_empty());
        }
    }

    #[test]
    fn a_row_on_one_side_only_fails() {
        let base = [toy("a", 1000, "x", 1, 0), toy("b", 1000, "x", 1, 0)];
        assert_eq!(
            regressions(&base[..1], &base),
            ["b: tracked toy row disappeared"]
        );
        let grown = [base[0].clone(), base[1].clone(), toy("c", 1, "x", 1, 0)];
        assert_eq!(
            regressions(&grown, &base),
            ["c: toy row missing from the baseline (regenerate it)"]
        );
    }

    /// Every declared section of both gate documents survives
    /// render→parse, with and without a baseline, and renders every
    /// derived column once a baseline is given.
    #[test]
    fn every_declared_section_round_trips() {
        for doc in [POOLING, HOST] {
            let tables: Vec<Vec<Row>> = doc
                .sections
                .iter()
                .map(|s| {
                    (1..=2u64)
                        .map(|i| {
                            let mut row = Row::new(format!("{}/{i}", s.name));
                            for (j, &Column(name, policy)) in s.columns.iter().enumerate() {
                                // `chosen` is the one categorical column;
                                // other exact columns are counts that
                                // derived columns may read.
                                row = match policy {
                                    Exact if name == "chosen" => row.with(name, "label"),
                                    Derived(..) => row,
                                    _ => row.with(name, 100 * i + j as u64),
                                };
                            }
                            row
                        })
                        .collect()
                })
                .collect();
            for baseline in [None, Some(&tables[..])] {
                let text = doc.render(&tables, baseline);
                assert_eq!(doc.parse(&text).unwrap(), tables, "{}", doc.benchmark);
            }
            let text = doc.render(&tables, Some(&tables));
            for s in doc.sections {
                for &Column(name, policy) in s.columns {
                    if let Derived(..) = policy {
                        assert!(text.contains(&format!("\"{name}\": ")), "{name}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_baseline_missing_a_section_does_not_parse() {
        let empty = |doc: &Document| doc.render(&vec![Vec::new(); doc.sections.len()], None);
        let without_model = Document {
            sections: &POOLING.sections[..POOLING.sections.len() - 1],
            ..POOLING
        };
        assert!(POOLING.parse(&empty(&POOLING)).is_ok());
        assert_eq!(
            POOLING.parse(&empty(&without_model)).unwrap_err(),
            "missing \"model\" section"
        );
        assert_eq!(
            HOST.parse(&empty(&POOLING)).unwrap_err(),
            "missing \"host\" section"
        );
    }
}
