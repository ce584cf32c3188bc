//! The high-level API: run pooling operators on a simulated chip.
//!
//! [`PoolingEngine`] owns a [`Chip`], places tensors at global-memory
//! offsets, lowers the requested implementation (once per operator, shape
//! and configuration: lowerings are memoised), lends the caller's inputs
//! and freshly zeroed result tensors to the chip in place, runs it, and
//! returns those result tensors together with the chip's hardware
//! counters — the f16 results are what the tests compare bit-exactly
//! against the golden references, and the cycle counts are what the
//! benchmark harness plots against the paper's figures.

use crate::avgpool::avg_scale;
use crate::maxpool::batched::per_plane_im2col_issues;
use crate::maxpool::{
    backward_shard_staging_bytes, build_backward, build_backward_batched, build_backward_sharded,
    build_forward_batched, build_forward_parallel, build_forward_with_argmax_parallel,
    BackwardSource, Reduction,
};
use crate::problem::{checked_product, ForwardImpl, LowerError, MergeImpl, PoolProblem};
use crate::schedule::{
    chip_cycle_floor, choose_backward_algorithm, choose_backward_partition,
    choose_forward_algorithm, choose_partition, Algorithm, AlgorithmChoice, PartitionAxis,
    Schedule,
};
use core::fmt;
use dv_akg::GmArena;
use dv_fp16::F16;
use dv_isa::Program;
use dv_sim::{Capacities, Chip, ChipRun, CostModel, GmDeclaration, LentGm, MemoryModel, SimError};
use dv_tensor::{Nc1hwc0, PatchTensor, PoolKind, PoolParams, ShapeError, C0};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Errors surfaced by engine runs.
#[derive(Debug)]
pub enum RunError {
    /// Lowering failed.
    Lower(LowerError),
    /// Simulation failed.
    Sim(SimError),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Lower(e) => write!(f, "lowering: {e}"),
            RunError::Sim(e) => write!(f, "simulation: {e}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<LowerError> for RunError {
    fn from(e: LowerError) -> Self {
        RunError::Lower(e)
    }
}
impl From<SimError> for RunError {
    fn from(e: SimError) -> Self {
        RunError::Sim(e)
    }
}
impl From<ShapeError> for RunError {
    fn from(e: ShapeError) -> Self {
        RunError::Lower(LowerError::Shape(e))
    }
}

/// A pooling run's outcome: the simulated chip statistics.
pub type PoolRun = ChipRun;

/// Owns a simulated chip and runs pooling operators on it.
#[derive(Clone, Debug)]
pub struct PoolingEngine {
    /// The simulated chip (cores, cost model, capacities).
    pub chip: Chip,
    /// When set, forward lowerings split each plane's row bands across
    /// idle cores ("each core calculates a share of the output") instead
    /// of parallelising over (N, C1) planes only. Off by default to match
    /// the paper's per-plane schedule; the multi-core scaling experiment
    /// turns it on. This switch never splits a backward pass — sub-plane
    /// backward shards need halo-merge GM declarations and are only
    /// taken by the cost-model partitioner (see [`PoolingEngine::shard`]).
    /// With [`PoolingEngine::auto_tune`] set the forward path ignores it;
    /// on a multi-core chip it still keeps the backward batch
    /// consolidation off, tuned or not.
    pub split_bands: bool,
    /// Double-buffer row bands (on by default): when a plane is split
    /// into bands and twice the band footprint fits the scratchpads, the
    /// lowering gives the band-cycled regions ping-pong (A/B) slots and
    /// issues band `i + 1`'s loads before band `i`'s reduction, letting
    /// the dual-pipe issue model overlap MTE/SCU work with Vector work
    /// instead of WAR-stalling on slot reuse. Results are bit-identical
    /// either way — only the schedule changes.
    pub double_buffer: bool,
    /// Fold the batch dimension through the SCU (on by default): when a
    /// run has `N > 1` and folding cannot hurt multi-core occupancy, the
    /// Im2col forward lowers all `N` planes of a `c1` slice through one
    /// Mode-0 `Im2Col` repeat-chain program, and the backward pass
    /// consolidates its `N` per-plane streams into one program per `c1`.
    /// The engine falls back to the per-plane schedule whenever the fold
    /// does not fit the scratchpads or would issue more `Im2Col`s than
    /// it saves. Results are bit-identical either way.
    pub batching: bool,
    /// Shard forward workloads across the chip by cost model (off by
    /// default): when set, each Im2col forward picks its partition axis —
    /// per-`(n, c1)` plane, batch-folded per-`c1`, or per-row-band —
    /// from [`choose_partition`]'s multi-core makespan estimate (which
    /// folds in the chip's shared-bandwidth contention model when one is
    /// configured), instead of the fixed `split_bands`/`batching`
    /// switches. Backward passes ask [`choose_backward_partition`] the
    /// same question: on a strict predicted win each plane splits into
    /// balanced row shards whose overlapping contributions are declared
    /// as typed halo spans and folded back by the chip in the reference
    /// accumulation order ([`dv_sim::Chip::run_declared`]); when the
    /// sharded lowering declines (capacity, padded geometry), the run
    /// falls back to per-plane and books a
    /// [`dv_sim::HwCounters::tuner_fallbacks`] rather than failing or
    /// staying silent. Results are bit-identical on every axis; only the
    /// program partitioning changes. Ignored on both paths when
    /// [`PoolingEngine::auto_tune`] is set.
    pub shard: bool,
    /// Auto-tune the algorithm per workload (off by default): when set,
    /// the pooling entry points *ignore* their `impl_`/`merge` argument
    /// and dispatch the winner of [`choose_forward_algorithm`] /
    /// [`choose_backward_algorithm`] — direct reduction, per-plane
    /// Im2col, or the Mode-0 batch fold. The choice is never silently
    /// trusted: a ranked candidate that fails to lower books a
    /// [`dv_sim::HwCounters::tuner_fallbacks`], and after the run every
    /// rejected alternative is certified against its
    /// [`chip_cycle_floor`] — if the winner's measured cycles exceed an
    /// alternative's floor, the win is uncertified and the engine books
    /// a [`dv_sim::HwCounters::tuner_mispredicted`] (so
    /// `tuner_mispredicted == 0` proves the tuned run is no slower than
    /// any lowerable alternative). Results are bit-identical on every
    /// algorithm; only cycles change. The tuner takes precedence over the
    /// partition switches: neither path consults `shard`, and the forward
    /// path ignores `split_bands` and `batching` too (the fold is a ranked
    /// candidate). The backward path keeps the batch consolidation that
    /// `batching` and `split_bands` gate.
    pub auto_tune: bool,
    /// Each pooling run's lowering, memoised per [`PlanKey`]; shared by
    /// clones.
    plans: PlanCache,
}

/// A lowered run, consumed by [`PoolingEngine::execute`]: the GM size,
/// the programs to dispatch and their GM declarations, plus everything
/// the run books afterwards. Pooling runs memoise it in the engine's
/// [`PlanCache`].
#[derive(Default)]
struct Lowered {
    /// Bytes of the GM the programs address.
    gm_bytes: usize,
    programs: Vec<Program>,
    /// One declaration per program: the halo spans of a sub-plane-sharded
    /// backward, folded back by [`Chip::run_lent`], and otherwise the
    /// halo-free [`GmDeclaration::scan`].
    declared: Vec<GmDeclaration>,
    /// A sharded backward's halo staging region `(GM offset, bytes)`,
    /// lent zeroed and writable on every run of the plan.
    staging: Option<(usize, usize)>,
    /// Typed declines taken before `programs` lowered, booked as
    /// [`dv_sim::HwCounters::tuner_fallbacks`].
    fallbacks: u64,
    /// The [`chip_cycle_floor`] of each rejected (but lowerable) tuner
    /// alternative, certified against the measured cycles.
    alt_floors: Vec<u64>,
}

/// Which pooling operator a plan lowers.
#[derive(Clone, Copy, PartialEq)]
enum PlanOp {
    Forward {
        impl_: ForwardImpl,
        kind: PoolKind,
        with_mask: bool,
    },
    Backward {
        merge: MergeImpl,
        masked: bool,
    },
}

/// Everything a pooling lowering reads: the operator, the problem, the
/// five lowering switches and the chip's core count, capacities, cost
/// model and memory model. The chip's trace configuration is left out:
/// no builder reads it.
#[derive(Clone, Copy, PartialEq)]
struct PlanKey {
    op: PlanOp,
    prob: PoolProblem,
    /// `split_bands`, `double_buffer`, `batching`, `shard`, `auto_tune`.
    switches: [bool; 5],
    cores: usize,
    caps: Capacities,
    cost: CostModel,
    memory: MemoryModel,
}

/// Plans a [`PlanCache`] keeps before it evicts the oldest. The Table I
/// forward workload needs 13.
const PLAN_CACHE_CAPACITY: usize = 64;

/// Lowered pooling runs by [`PlanKey`], oldest first. A hit skips the
/// tuner's ranking, every builder and every alternative's cycle floor;
/// the run still lays out, executes and certifies as on a miss.
#[derive(Clone, Default)]
struct PlanCache(Arc<Mutex<Plans>>);

/// A [`PlanCache`]'s entries, oldest first.
type Plans = VecDeque<(PlanKey, Arc<Lowered>)>;

impl PlanCache {
    fn entries(&self) -> MutexGuard<'_, Plans> {
        // The lock is held only to look up or push an entry, never while
        // lowering, so a poisoned lock still guards whole entries.
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn get(&self, key: &PlanKey) -> Option<Arc<Lowered>> {
        let entries = self.entries();
        entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, l)| Arc::clone(l))
    }

    /// The cached plan for `key`, or else `lower`'s plan, cached. A
    /// lowering error is returned and not cached.
    fn get_or_lower(
        &self,
        key: PlanKey,
        lower: impl FnOnce() -> Result<Lowered, LowerError>,
    ) -> Result<Arc<Lowered>, LowerError> {
        if let Some(hit) = self.get(&key) {
            return Ok(hit);
        }
        let lowered = Arc::new(lower()?);
        let mut entries = self.entries();
        // A clone on another thread may have lowered the same key
        // meanwhile; both plans are equal, so keep the first.
        if !entries.iter().any(|(k, _)| *k == key) {
            if entries.len() == PLAN_CACHE_CAPACITY {
                entries.pop_front();
            }
            entries.push_back((key, Arc::clone(&lowered)));
        }
        Ok(lowered)
    }
}

impl fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PlanCache")
            .field("entries", &self.entries().len())
            .finish()
    }
}

impl From<Vec<Program>> for Lowered {
    fn from(programs: Vec<Program>) -> Self {
        Lowered {
            declared: programs.iter().map(GmDeclaration::scan).collect(),
            programs,
            ..Lowered::default()
        }
    }
}

/// Global-memory byte offsets of a forward run's tensors.
#[derive(Clone, Copy)]
struct ForwardGm {
    input: usize,
    out: usize,
    mask: Option<usize>,
}

impl PoolingEngine {
    /// An engine over an Ascend-910-like chip (32 cores).
    pub fn ascend910() -> PoolingEngine {
        PoolingEngine::new(Chip::ascend910())
    }

    /// An engine over a custom chip.
    pub fn new(chip: Chip) -> PoolingEngine {
        PoolingEngine {
            chip,
            split_bands: false,
            double_buffer: true,
            batching: true,
            shard: false,
            auto_tune: false,
            plans: PlanCache::default(),
        }
    }

    /// Enable or disable forward band splitting across idle cores.
    pub fn with_band_splitting(mut self, on: bool) -> PoolingEngine {
        self.split_bands = on;
        self
    }

    /// Enable or disable double-buffered (ping-pong) row-band prefetch
    /// (see [`PoolingEngine::double_buffer`]).
    pub fn with_double_buffering(mut self, on: bool) -> PoolingEngine {
        self.double_buffer = on;
        self
    }

    /// The same engine with per-instruction tracing configured on its
    /// chip: every returned [`PoolRun`] then carries a [`dv_sim::Trace`]
    /// per core, exportable via [`ChipRun::chrome_trace_json`] and
    /// summarisable via [`ChipRun::breakdown`].
    pub fn with_trace(mut self, trace: dv_sim::TraceConfig) -> PoolingEngine {
        self.chip = self.chip.with_trace(trace);
        self
    }

    /// Enable or disable batch folding (see [`PoolingEngine::batching`]).
    pub fn with_batching(mut self, on: bool) -> PoolingEngine {
        self.batching = on;
        self
    }

    /// Enable or disable cost-model sharding (see
    /// [`PoolingEngine::shard`]).
    pub fn with_sharding(mut self, on: bool) -> PoolingEngine {
        self.shard = on;
        self
    }

    /// Enable or disable per-workload algorithm auto-tuning (see
    /// [`PoolingEngine::auto_tune`]).
    pub fn with_auto_tuning(mut self, on: bool) -> PoolingEngine {
        self.auto_tune = on;
        self
    }

    /// The same engine with a different host execution backend on its
    /// chip. Backends change host wall-clock only — outputs, counters,
    /// traces, and peaks are bit-identical across all of them.
    pub fn with_backend(mut self, backend: dv_sim::Backend) -> PoolingEngine {
        self.chip = self.chip.with_backend(backend);
        self
    }

    /// The overlap schedule this engine's lowerings plan against: its
    /// `double_buffer` switch and its chip's cost model.
    pub fn schedule(&self) -> Schedule {
        Schedule::for_cost(self.chip.cost, self.double_buffer)
    }

    fn parallel(&self) -> usize {
        if self.split_bands {
            self.chip.cores
        } else {
            1
        }
    }

    /// The chip's shared L2/HBM bandwidth, if it models one — what the
    /// tuner's and partitioner's contention multipliers price against.
    pub fn shared_bandwidth(&self) -> Option<u64> {
        match self.chip.memory {
            MemoryModel::Independent => None,
            MemoryModel::SharedBandwidth { bytes_per_cycle } => Some(bytes_per_cycle),
            // The estimators price the L2 model by its HBM pipe alone
            // (all-miss) — conservative, so a predicted win still holds
            // when shards share lines.
            MemoryModel::SharedBandwidthL2 {
                bytes_per_cycle, ..
            } => Some(bytes_per_cycle),
        }
    }

    /// The plan-cache key of a pooling run, built from the engine's
    /// fields as they are now.
    fn plan_key(&self, op: PlanOp, prob: &PoolProblem) -> PlanKey {
        PlanKey {
            op,
            prob: *prob,
            switches: [
                self.split_bands,
                self.double_buffer,
                self.batching,
                self.shard,
                self.auto_tune,
            ],
            cores: self.chip.cores,
            caps: self.chip.caps,
            cost: self.chip.cost,
            memory: self.chip.memory,
        }
    }

    /// Walk a tuner ranking: the first candidate that lowers is
    /// dispatched; candidates that fail to lower before it are counted
    /// as typed fallbacks; each remaining lowerable candidate keeps only
    /// its [`chip_cycle_floor`], for post-run certification. An empty
    /// (or fully infeasible) ranking surfaces the last lowering error.
    fn ranked(
        &self,
        choice: &AlgorithmChoice,
        mut lower: impl FnMut(Algorithm) -> Result<Vec<Program>, LowerError>,
    ) -> Result<Lowered, LowerError> {
        let mut lowered: Option<Lowered> = None;
        let mut declines = 0u64;
        let mut last_err: Option<LowerError> = None;
        for pred in &choice.ranking {
            match lower(pred.algorithm) {
                Ok(ps) => match &mut lowered {
                    Some(l) => {
                        l.alt_floors
                            .push(chip_cycle_floor(&ps, self.chip.cores, &self.chip.cost))
                    }
                    None => {
                        lowered = Some(Lowered {
                            fallbacks: declines,
                            ..ps.into()
                        })
                    }
                },
                // Candidates that fail before the winner are its typed
                // declines, never a silent re-rank.
                Err(e) => {
                    declines += 1;
                    last_err = Some(e);
                }
            }
        }
        lowered.ok_or_else(|| {
            last_err.unwrap_or_else(|| {
                LowerError::Unsupported("auto-tuner found no feasible algorithm".into())
            })
        })
    }

    /// The one execute step: lend each input read-only and each result
    /// tensor writable at its GM offset (plus a zeroed halo staging
    /// buffer when the plan stages), run the programs, which merge their
    /// results straight into the result tensors (folding halo
    /// declarations back when there are any), book the lowering's typed
    /// declines, and certify the dispatched winner against each rejected
    /// alternative's cycle floor. A floor the measured cycles exceed
    /// means the predicted win cannot be certified — booked as a
    /// misprediction, never silently dropped. The caller zeroes the
    /// result tensors: GM no region covers reads as zeros too.
    fn execute(
        &self,
        inputs: &[(usize, &[F16])],
        results: Vec<(usize, &mut [F16])>,
        lowered: &Lowered,
    ) -> Result<PoolRun, RunError> {
        let mut staging = vec![0u8; lowered.staging.map_or(0, |(_, bytes)| bytes)];
        let mut gm = LentGm::new(lowered.gm_bytes);
        for &(offset, data) in inputs {
            gm.lend(offset, dv_fp16::as_bytes(data))?;
        }
        for (offset, data) in results {
            gm.lend_mut(offset, dv_fp16::as_bytes_mut(data))?;
        }
        if let Some((offset, _)) = lowered.staging {
            gm.lend_mut(offset, &mut staging)?;
        }
        let mut run = self
            .chip
            .run_lent(&mut gm, &lowered.programs, &lowered.declared)?;
        run.total.tuner_fallbacks += lowered.fallbacks;
        run.total.tuner_mispredicted += lowered
            .alt_floors
            .iter()
            .filter(|&&floor| floor < run.cycles)
            .count() as u64;
        Ok(run)
    }

    /// The partition axis this forward run shards over. With
    /// [`PoolingEngine::shard`] off the mapping reproduces the legacy
    /// switches exactly (batch fold if eligible, else band splitting if
    /// requested, else per-plane). With it on, the Im2col forward asks
    /// [`choose_partition`]'s multi-core makespan estimate, feeding it
    /// the chip's shared-bandwidth model so contention-heavy splits are
    /// priced; non-Im2col forwards have no batched lowering and keep the
    /// legacy mapping.
    fn forward_axis(
        &self,
        prob: &PoolProblem,
        impl_: ForwardImpl,
        with_mask: bool,
    ) -> PartitionAxis {
        if self.shard && impl_ == ForwardImpl::Im2col {
            let axis = choose_partition(
                prob,
                with_mask,
                self.chip.cores,
                &self.schedule(),
                self.shared_bandwidth(),
            );
            if axis == PartitionAxis::PerC1 && !self.batching {
                PartitionAxis::PerPlane
            } else {
                axis
            }
        } else if impl_ == ForwardImpl::Im2col && self.fold_batches(prob) {
            PartitionAxis::PerC1
        } else if self.split_bands {
            PartitionAxis::PerRowBand
        } else {
            PartitionAxis::PerPlane
        }
    }

    /// The partition axis this backward run shards over: per-plane
    /// unless cost-model sharding ([`PoolingEngine::shard`]) is on *and*
    /// [`choose_backward_partition`] predicts a strict sub-plane win.
    /// Batch folding stays the engine's separate occupancy-gated
    /// consolidation and is never an axis here.
    fn backward_axis(&self, prob: &PoolProblem, merge: MergeImpl, masked: bool) -> PartitionAxis {
        if self.shard {
            choose_backward_partition(
                prob,
                merge,
                masked,
                self.chip.cores,
                &self.schedule(),
                self.chip.caps,
                self.shared_bandwidth(),
            )
        } else {
            PartitionAxis::PerPlane
        }
    }

    /// Whether this run folds the batch dimension: only with `N > 1`,
    /// never alongside band splitting (which already re-partitions the
    /// work), and only when dropping from `N * C1` to `C1` programs
    /// cannot reduce multi-core occupancy.
    fn fold_batches(&self, prob: &PoolProblem) -> bool {
        self.batching
            && prob.n > 1
            && self.parallel() == 1
            && (self.chip.cores == 1 || prob.c1 >= self.chip.cores)
    }

    /// The per-plane forward lowering of `impl_`, band-split over up to
    /// `parallel` programs: the argmax builder when the run stores a
    /// mask, the plain one otherwise.
    fn per_plane_forward(
        &self,
        prob: &PoolProblem,
        impl_: ForwardImpl,
        reduction: Reduction,
        gm: ForwardGm,
        parallel: usize,
    ) -> Result<Vec<Program>, LowerError> {
        let (caps, sched) = (self.chip.caps, self.schedule());
        match gm.mask {
            Some(mask) => build_forward_with_argmax_parallel(
                prob, impl_, gm.input, gm.out, mask, caps, parallel, sched,
            ),
            None => build_forward_parallel(
                prob, impl_, reduction, gm.input, gm.out, caps, parallel, sched,
            ),
        }
    }

    /// Forward Im2col with batch folding: build the Mode-0 fold, keep it
    /// only if it issues strictly fewer `Im2Col`s than the per-plane
    /// schedule would, and otherwise fall back. When the fold itself
    /// fails to plan, the per-plane schedule is tried; if that also
    /// fails, the *batched* (typed) error is reported — it carries the
    /// per-plane cause.
    fn batched_forward_or_fallback(
        &self,
        prob: &PoolProblem,
        reduction: Reduction,
        gm: ForwardGm,
    ) -> Result<Vec<Program>, LowerError> {
        let per_plane =
            || self.per_plane_forward(prob, ForwardImpl::Im2col, reduction, gm, self.parallel());
        match build_forward_batched(
            prob,
            reduction,
            gm.input,
            gm.out,
            gm.mask,
            self.chip.caps,
            self.schedule(),
        ) {
            Ok(folded) => {
                let folded_issues: usize = folded.iter().map(|p| p.issue_count("im2col")).sum();
                let per_plane_issues =
                    per_plane_im2col_issues(prob, gm.mask.is_some(), self.chip.caps)
                        .map(|per_c1| per_c1 * prob.c1)
                        .unwrap_or(usize::MAX);
                if folded_issues < per_plane_issues {
                    Ok(folded)
                } else {
                    per_plane()
                }
            }
            Err(batched_err) => per_plane().map_err(|_| batched_err),
        }
    }

    /// The one forward path behind [`PoolingEngine::maxpool_forward`],
    /// [`PoolingEngine::maxpool_forward_with_argmax`] and
    /// [`PoolingEngine::avgpool_forward`]: place input, output and — when
    /// `with_mask` — the argmax mask in GM; lower through the tuner's
    /// ranking, or else by the partition axis; execute into zeroed result
    /// tensors.
    fn forward(
        &self,
        input: &Nc1hwc0,
        params: PoolParams,
        impl_: ForwardImpl,
        kind: PoolKind,
        with_mask: bool,
    ) -> Result<(Nc1hwc0, Option<PatchTensor>, PoolRun), RunError> {
        let prob = PoolProblem::new(input.n, input.c1, input.h, input.w, params)?;
        check_len("input", input.data(), prob.in_bytes())?;
        let reduction = match kind {
            PoolKind::Max => Reduction::Max,
            PoolKind::Avg => Reduction::Sum {
                scale: avg_scale(&prob),
            },
        };
        // GM allocation order (fields evaluate as written): input,
        // output, mask.
        let mut arena = GmArena::new();
        let gm = ForwardGm {
            input: arena.alloc(prob.in_bytes()),
            out: arena.alloc(prob.out_bytes()),
            mask: with_mask.then(|| arena.alloc(prob.mask_bytes())),
        };
        let op = PlanOp::Forward {
            impl_,
            kind,
            with_mask,
        };
        let lowered = self.plans.get_or_lower(self.plan_key(op, &prob), || {
            let lowered = if self.auto_tune {
                let choice = choose_forward_algorithm(
                    &prob,
                    with_mask,
                    kind == PoolKind::Avg,
                    self.chip.cores,
                    &self.schedule(),
                    self.chip.caps,
                    self.shared_bandwidth(),
                );
                self.ranked(&choice, |algo| match algo {
                    Algorithm::Fold => build_forward_batched(
                        &prob,
                        reduction,
                        gm.input,
                        gm.out,
                        gm.mask,
                        self.chip.caps,
                        self.schedule(),
                    ),
                    _ => self.per_plane_forward(&prob, algo.forward_impl(), reduction, gm, 1),
                })?
            } else {
                Lowered::from(match self.forward_axis(&prob, impl_, with_mask) {
                    PartitionAxis::PerC1 => {
                        self.batched_forward_or_fallback(&prob, reduction, gm)?
                    }
                    PartitionAxis::PerRowBand => {
                        self.per_plane_forward(&prob, impl_, reduction, gm, self.chip.cores)?
                    }
                    PartitionAxis::PerPlane => {
                        self.per_plane_forward(&prob, impl_, reduction, gm, 1)?
                    }
                })
            };
            Ok(Lowered {
                gm_bytes: arena.size(),
                ..lowered
            })
        })?;
        let (oh, ow) = prob.out_dims();
        let (kh, kw) = (prob.params.kh, prob.params.kw);
        let mut out = Nc1hwc0::zeros(prob.n, prob.c1, oh, ow);
        let mut mask = with_mask.then(|| PatchTensor::zeros(prob.n, prob.c1, kh, kw, oh, ow));
        let mut results = vec![(gm.out, out.data_mut())];
        results.extend(gm.mask.zip(mask.as_mut().map(PatchTensor::data_mut)));
        let run = self.execute(&[(gm.input, input.data())], results, &lowered)?;
        Ok((out, mask, run))
    }

    /// The backward lowering for `merge`: consolidated per `c1` when
    /// [`PoolingEngine::fold_batches`] allows it, per plane otherwise.
    fn backward_programs(
        &self,
        prob: &PoolProblem,
        merge: MergeImpl,
        source: BackwardSource,
        gm_grad: usize,
        gm_dx: usize,
    ) -> Result<Vec<Program>, LowerError> {
        let build = if self.fold_batches(prob) {
            build_backward_batched
        } else {
            build_backward
        };
        build(
            prob,
            merge,
            source,
            gm_grad,
            gm_dx,
            self.chip.caps,
            self.schedule(),
        )
    }

    /// Lower a sub-plane-sharded backward pass with its halo
    /// declarations, falling back to the per-plane lowering — and
    /// booking one [`dv_sim::HwCounters::tuner_fallbacks`] — on a typed
    /// decline. The shard count is the idle-core multiple
    /// [`choose_backward_partition`] priced.
    fn sharded_backward_or_fallback(
        &self,
        prob: &PoolProblem,
        merge: MergeImpl,
        source: BackwardSource,
        arena: &mut GmArena,
        gm_grad: usize,
        gm_dx: usize,
    ) -> Result<Lowered, LowerError> {
        let (caps, sched) = (self.chip.caps, self.schedule());
        let shards = (self.chip.cores / (prob.n * prob.c1)).max(2);
        let staging_bytes = backward_shard_staging_bytes(prob, shards);
        let gm_staging = arena.alloc(staging_bytes);
        match build_backward_sharded(
            prob, merge, source, gm_grad, gm_dx, gm_staging, shards, caps, sched,
        ) {
            Ok((programs, declared)) => Ok(Lowered {
                programs,
                declared,
                staging: Some((gm_staging, staging_bytes)),
                ..Lowered::default()
            }),
            // Typed decline: run the per-plane schedule the partitioner
            // compared against, and book the fallback.
            Err(_) => Ok(Lowered {
                fallbacks: 1,
                ..build_backward(prob, merge, source, gm_grad, gm_dx, caps, sched)?.into()
            }),
        }
    }

    /// The one backward path behind [`PoolingEngine::maxpool_backward`]
    /// (`mask` given) and [`PoolingEngine::avgpool_backward`] (uniform
    /// mask): place mask, gradients and `dx` in GM; lower through the
    /// tuner's ranking, else as sub-plane shards when the partitioner
    /// predicts a win, else folded or per plane; execute into a zeroed
    /// `dx`.
    fn backward(
        &self,
        prob: &PoolProblem,
        mask: Option<&PatchTensor>,
        gradients: &Nc1hwc0,
        merge: MergeImpl,
    ) -> Result<(Nc1hwc0, PoolRun), RunError> {
        if let Some(m) = mask {
            check_len("mask", m.data(), prob.mask_bytes())?;
        }
        check_len("gradients", gradients.data(), prob.out_bytes())?;
        let mut arena = GmArena::new();
        let gm_mask = mask.map(|m| (arena.alloc(prob.mask_bytes()), m.data()));
        let gm_grad = arena.alloc(prob.out_bytes());
        let gm_dx = arena.alloc(prob.in_bytes());
        let source = match gm_mask {
            Some((gm_mask, _)) => BackwardSource::MaxMask { gm_mask },
            None => BackwardSource::AvgUniform {
                scale: avg_scale(prob),
            },
        };
        let masked = mask.is_some();
        let op = PlanOp::Backward { merge, masked };
        let lowered = self.plans.get_or_lower(self.plan_key(op, prob), || {
            let lowered = if self.auto_tune {
                let choice = choose_backward_algorithm(
                    prob,
                    masked,
                    self.chip.cores,
                    &self.schedule(),
                    self.chip.caps,
                    self.shared_bandwidth(),
                );
                self.ranked(&choice, |algo| {
                    self.backward_programs(prob, algo.merge_impl(), source, gm_grad, gm_dx)
                })?
            } else if self.backward_axis(prob, merge, masked) == PartitionAxis::PerRowBand {
                self.sharded_backward_or_fallback(prob, merge, source, &mut arena, gm_grad, gm_dx)?
            } else {
                Lowered::from(self.backward_programs(prob, merge, source, gm_grad, gm_dx)?)
            };
            Ok(Lowered {
                gm_bytes: arena.size(),
                ..lowered
            })
        })?;
        let inputs: Vec<(usize, &[F16])> = gm_mask
            .into_iter()
            .chain([(gm_grad, gradients.data())])
            .collect();
        let mut dx = Nc1hwc0::zeros(prob.n, prob.c1, prob.ih, prob.iw);
        let run = self.execute(&inputs, vec![(gm_dx, dx.data_mut())], &lowered)?;
        Ok((dx, run))
    }

    /// MaxPool forward (Fig. 7a / Fig. 8): returns the pooled tensor and
    /// the chip counters.
    pub fn maxpool_forward(
        &self,
        input: &Nc1hwc0,
        params: PoolParams,
        impl_: ForwardImpl,
    ) -> Result<(Nc1hwc0, PoolRun), RunError> {
        let (out, _, run) = self.forward(input, params, impl_, PoolKind::Max, false)?;
        Ok((out, run))
    }

    /// MaxPool forward with the argmax mask (Fig. 7b).
    pub fn maxpool_forward_with_argmax(
        &self,
        input: &Nc1hwc0,
        params: PoolParams,
        impl_: ForwardImpl,
    ) -> Result<(Nc1hwc0, PatchTensor, PoolRun), RunError> {
        let (out, mask, run) = self.forward(input, params, impl_, PoolKind::Max, true)?;
        // `forward` returns a mask whenever it stores one.
        let mask = mask.ok_or_else(|| ShapeError::Mismatch("no argmax mask was stored".into()))?;
        Ok((out, mask, run))
    }

    /// MaxPool backward (Fig. 7c): scatter the masked gradients back to
    /// the input shape.
    pub fn maxpool_backward(
        &self,
        mask: &PatchTensor,
        gradients: &Nc1hwc0,
        params: PoolParams,
        ih: usize,
        iw: usize,
        merge: MergeImpl,
    ) -> Result<(Nc1hwc0, PoolRun), RunError> {
        let prob = PoolProblem::new(mask.n, mask.c1, ih, iw, params)?;
        let (oh, ow) = prob.out_dims();
        // The problem takes its planes from the mask: the gradients must
        // carry the same planes and the mask the params' window, or GM
        // is sized for one tensor and another is lent in its place.
        let mask_shape = (mask.n, mask.c1, mask.kh, mask.kw, mask.oh, mask.ow);
        let grad_shape = (gradients.n, gradients.c1, gradients.h, gradients.w);
        if mask_shape != (mask.n, mask.c1, params.kh, params.kw, oh, ow)
            || grad_shape != (mask.n, mask.c1, oh, ow)
        {
            return Err(ShapeError::Mismatch(format!(
                "mask (n, c1, kh, kw, oh, ow) {mask_shape:?} / gradients (n, c1, h, w) \
                 {grad_shape:?} do not match the {}x{} window and derived patch grid {:?}",
                params.kh,
                params.kw,
                (oh, ow)
            ))
            .into());
        }
        self.backward(&prob, Some(mask), gradients, merge)
    }

    /// Rectified-linear activation (`vrelu`) over a whole tensor — the
    /// elementwise layer a CNN interleaves between convolution and
    /// pooling. One program per `(n, c1)` plane; each tiles against the
    /// UB like the pooling kernels.
    pub fn relu(&self, input: &Nc1hwc0) -> Result<(Nc1hwc0, PoolRun), RunError> {
        use dv_akg::{dma, elementwise, UbArena};
        use dv_isa::{Addr, VectorOp};

        let overflow = || ShapeError::Overflow { what: "input" };
        let plane_bytes = checked_product(&[input.h, input.w, C0 * 2]).ok_or_else(overflow)?;
        let bytes = checked_product(&[input.n, input.c1, plane_bytes]).ok_or_else(overflow)?;
        check_len("input", input.data(), bytes)?;
        let mut gm = GmArena::new();
        let gm_in = gm.alloc(input.byte_len());
        let gm_out = gm.alloc(input.byte_len());

        let mut programs = Vec::new();
        for n in 0..input.n {
            for c1 in 0..input.c1 {
                let off = (n * input.c1 + c1) * plane_bytes;
                let mut p = Program::new();
                // tile the plane against the UB (in + out regions)
                let mut ub = UbArena::new(self.chip.caps.ub);
                let tile_bytes = (self.chip.caps.ub / 2 - 64).min(plane_bytes);
                let ub_in = Addr::ub(ub.alloc(tile_bytes).map_err(LowerError::Ub)?);
                let ub_out = Addr::ub(ub.alloc(tile_bytes).map_err(LowerError::Ub)?);
                let mut done = 0usize;
                while done < plane_bytes {
                    let chunk = tile_bytes.min(plane_bytes - done);
                    dma(&mut p, Addr::gm(gm_in + off + done), ub_in, chunk)
                        .map_err(LowerError::Isa)?;
                    elementwise(&mut p, VectorOp::Relu, ub_out, ub_in, ub_in, chunk / 2)
                        .map_err(LowerError::Isa)?;
                    dma(&mut p, ub_out, Addr::gm(gm_out + off + done), chunk)
                        .map_err(LowerError::Isa)?;
                    done += chunk;
                }
                programs.push(p);
            }
        }

        let lowered = Lowered {
            gm_bytes: gm.size(),
            ..programs.into()
        };
        let mut out = Nc1hwc0::zeros(input.n, input.c1, input.h, input.w);
        out.orig_c = input.orig_c;
        let run = self.execute(
            &[(gm_in, input.data())],
            vec![(gm_out, out.data_mut())],
            &lowered,
        )?;
        Ok((out, run))
    }

    /// AvgPool forward (Section V-C).
    pub fn avgpool_forward(
        &self,
        input: &Nc1hwc0,
        params: PoolParams,
        impl_: ForwardImpl,
    ) -> Result<(Nc1hwc0, PoolRun), RunError> {
        let (out, _, run) = self.forward(input, params, impl_, PoolKind::Avg, false)?;
        Ok((out, run))
    }

    /// AvgPool backward (Section V-C): uniform mask, same merge choices.
    pub fn avgpool_backward(
        &self,
        gradients: &Nc1hwc0,
        params: PoolParams,
        ih: usize,
        iw: usize,
        merge: MergeImpl,
    ) -> Result<(Nc1hwc0, PoolRun), RunError> {
        let prob = PoolProblem::new(gradients.n, gradients.c1, ih, iw, params)?;
        let (oh, ow) = prob.out_dims();
        if (gradients.h, gradients.w) != (oh, ow) {
            return Err(ShapeError::Mismatch(format!(
                "gradients {:?} do not match derived patch grid {:?}",
                (gradients.h, gradients.w),
                (oh, ow)
            ))
            .into());
        }
        self.backward(&prob, None, gradients, merge)
    }
}

/// Refuse a tensor whose data length disagrees with the `bytes` its
/// declared shape implies. The shape fields are public, so an edited
/// shape would otherwise size a GM region for one tensor and lend
/// another in its place.
fn check_len(what: &str, data: &[F16], bytes: usize) -> Result<(), ShapeError> {
    if data.len() * F16::SIZE_BYTES == bytes {
        return Ok(());
    }
    Err(ShapeError::Mismatch(format!(
        "{what} holds {} f16 values, but its declared shape implies {}",
        data.len(),
        bytes / F16::SIZE_BYTES
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tensor whose public `n` was edited so that its byte size wraps
    /// `usize` (to the 2048 bytes of its real data, in release) fails
    /// typed at every entry point, before any GM or result tensor is
    /// sized from it.
    #[test]
    fn a_wrapping_shape_edit_fails_typed() {
        let engine = PoolingEngine::new(Chip::new(2, CostModel::ascend910_like()));
        let (p, huge) = (PoolParams::K2S2, (1 << 53) + 1);
        let overflow = |r: Result<(), RunError>, what: &str| match r {
            Err(RunError::Lower(LowerError::Shape(ShapeError::Overflow { what: "input" }))) => {}
            other => panic!("{what}: expected a typed overflow, got {other:?}"),
        };
        let mut x = Nc1hwc0::zeros(1, 1, 8, 8);
        x.n = huge;
        let im2col = ForwardImpl::Im2col;
        overflow(
            engine.maxpool_forward(&x, p, im2col).map(drop),
            "maxpool_forward",
        );
        overflow(
            engine.maxpool_forward_with_argmax(&x, p, im2col).map(drop),
            "maxpool_forward_with_argmax",
        );
        overflow(
            engine.avgpool_forward(&x, p, im2col).map(drop),
            "avgpool_forward",
        );
        overflow(engine.relu(&x).map(drop), "relu");
        let mut mask = PatchTensor::zeros(1, 1, 2, 2, 4, 4);
        mask.n = huge;
        let mut grads = Nc1hwc0::zeros(1, 1, 4, 4);
        for merge in [MergeImpl::VAdd, MergeImpl::Col2Im] {
            let dx = engine.maxpool_backward(&mask, &grads, p, 8, 8, merge);
            overflow(dx.map(drop), "maxpool_backward");
        }
        grads.n = huge;
        overflow(
            engine
                .avgpool_backward(&grads, p, 8, 8, MergeImpl::Col2Im)
                .map(drop),
            "avgpool_backward",
        );
    }

    /// More distinct shapes than the plan cache holds: the cache never
    /// grows past its capacity, the oldest plan goes first, and the
    /// evicted shape lowers again to the same bits and statistics.
    #[test]
    fn plan_cache_evicts_oldest_first_and_relowers_bit_identically() {
        let engine = PoolingEngine::new(Chip::new(1, CostModel::ascend910_like()));
        let params = PoolParams::K2S2;
        let run = |h: usize| {
            let x = Nc1hwc0::from_fn(1, 1, h, 2, |_, _, y, x, c0| {
                F16::from_f32(((y * 7 + x * 3 + c0) % 11) as f32)
            });
            engine
                .maxpool_forward(&x, params, ForwardImpl::Im2col)
                .expect("a tiny plane lowers")
        };
        let key = |h: usize| {
            let op = PlanOp::Forward {
                impl_: ForwardImpl::Im2col,
                kind: PoolKind::Max,
                with_mask: false,
            };
            engine.plan_key(op, &PoolProblem::new(1, 1, h, 2, params).expect("valid"))
        };
        let (first_out, first_run) = run(2);
        let first_plan = engine.plans.get(&key(2)).expect("a miss caches its plan");
        let (_, again) = run(2);
        assert_eq!(again.cycles, first_run.cycles);
        assert_eq!(engine.plans.entries().len(), 1, "a repeated call is a hit");
        assert!(Arc::ptr_eq(
            &first_plan,
            &engine.plans.get(&key(2)).expect("still cached")
        ));
        for h in 3..3 + PLAN_CACHE_CAPACITY {
            run(h);
            assert!(engine.plans.entries().len() <= PLAN_CACHE_CAPACITY);
        }
        assert_eq!(engine.plans.entries().len(), PLAN_CACHE_CAPACITY);
        assert!(engine.plans.get(&key(2)).is_none(), "the oldest plan goes");
        assert!(engine.plans.get(&key(3)).is_some());
        let (out, run2) = run(2);
        assert_eq!(out, first_out);
        assert_eq!(run2.cycles, first_run.cycles);
        assert_eq!(run2.core_cycles, first_run.core_cycles);
        assert_eq!(run2.per_core, first_run.per_core);
        assert_eq!(run2.total, first_run.total);
        assert_eq!(run2.peaks, first_run.peaks);
        assert!(engine.plans.get(&key(3)).is_none(), "re-lowering evicts");
        assert_eq!(
            format!("{:?}", engine.plans),
            format!("PlanCache {{ entries: {PLAN_CACHE_CAPACITY} }}")
        );
    }
}
