//! The high-level API: run pooling operators on a simulated chip.
//!
//! [`PoolingEngine`] owns a [`Chip`], lays out tensors in a global-memory
//! image, lowers the requested implementation, runs it, and returns the
//! output tensors together with the chip's hardware counters — the f16
//! results are what the tests compare bit-exactly against the golden
//! references, and the cycle counts are what the benchmark harness plots
//! against the paper's figures.

use crate::avgpool::{
    build_avgpool_backward, build_avgpool_backward_batched, build_avgpool_forward_parallel,
};
use crate::maxpool::batched::per_plane_im2col_issues;
use crate::maxpool::{
    backward_shard_staging_bytes, build_backward, build_backward_batched, build_backward_sharded,
    build_forward_batched, build_forward_parallel, build_forward_with_argmax_parallel,
    BackwardSource, Reduction,
};
use crate::problem::{ForwardImpl, LowerError, MergeImpl, PoolProblem};
use crate::schedule::{
    chip_cycle_floor, choose_backward_algorithm, choose_backward_partition,
    choose_forward_algorithm, choose_partition, Algorithm, PartitionAxis, Schedule,
};
use core::fmt;
use dv_akg::GmArena;
use dv_isa::Program;
use dv_sim::{Chip, ChipRun, GmDeclaration, MemoryModel, SimError};
use dv_tensor::{Nc1hwc0, PatchTensor, PoolParams, C0};

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
    /// program partitioning changes.
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
    /// algorithm; only cycles change.
    pub auto_tune: bool,
}

/// A tuner dispatch: the chosen algorithm's programs plus everything the
/// post-run certification needs.
struct Tuned {
    programs: Vec<Program>,
    /// Lowered programs of each rejected (but lowerable) alternative.
    alternatives: Vec<Vec<Program>>,
    /// Ranked candidates that failed to lower before one succeeded.
    fallbacks: u64,
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

    /// Walk a tuner ranking: the first candidate that lowers is
    /// dispatched; candidates that fail to lower before it are counted
    /// as typed fallbacks; the remaining lowerable candidates are kept
    /// for post-run certification. An empty (or fully infeasible)
    /// ranking surfaces the last lowering error.
    fn dispatch_ranked(
        choice: &crate::schedule::AlgorithmChoice,
        mut lower: impl FnMut(Algorithm) -> Result<Vec<Program>, LowerError>,
    ) -> Result<Tuned, LowerError> {
        let mut fallbacks = 0u64;
        let mut chosen: Option<Vec<Program>> = None;
        let mut alternatives = Vec::new();
        let mut last_err: Option<LowerError> = None;
        for pred in &choice.ranking {
            match lower(pred.algorithm) {
                Ok(ps) => {
                    if chosen.is_none() {
                        chosen = Some(ps);
                    } else {
                        alternatives.push(ps);
                    }
                }
                Err(e) => {
                    if chosen.is_none() {
                        // The predicted winner could not be lowered: a
                        // typed decline, never a silent re-rank.
                        fallbacks += 1;
                    }
                    last_err = Some(e);
                }
            }
        }
        match chosen {
            Some(programs) => Ok(Tuned {
                programs,
                alternatives,
                fallbacks,
            }),
            None => Err(last_err.unwrap_or_else(|| {
                LowerError::Unsupported("auto-tuner found no feasible algorithm".into())
            })),
        }
    }

    /// Auto-tuned forward dispatch: rank the algorithm families, lower
    /// the winner (falling through the ranking on typed declines), and
    /// keep the rejected alternatives for certification.
    fn tuned_forward(
        &self,
        prob: &PoolProblem,
        reduction: Reduction,
        gm_in: usize,
        gm_out: usize,
        gm_mask: Option<usize>,
    ) -> Result<Tuned, LowerError> {
        let is_avg = matches!(reduction, Reduction::Sum { .. });
        let choice = choose_forward_algorithm(
            prob,
            gm_mask.is_some(),
            is_avg,
            self.chip.cores,
            &self.schedule(),
            self.chip.caps,
            self.shared_bandwidth(),
        );
        Self::dispatch_ranked(&choice, |algo| match algo {
            Algorithm::Fold => build_forward_batched(
                prob,
                reduction,
                gm_in,
                gm_out,
                gm_mask,
                self.chip.caps,
                self.schedule(),
            ),
            _ => match gm_mask {
                Some(m) => build_forward_with_argmax_parallel(
                    prob,
                    algo.forward_impl(),
                    gm_in,
                    gm_out,
                    m,
                    self.chip.caps,
                    1,
                    self.schedule(),
                ),
                None => build_forward_parallel(
                    prob,
                    algo.forward_impl(),
                    reduction,
                    gm_in,
                    gm_out,
                    self.chip.caps,
                    1,
                    self.schedule(),
                ),
            },
        })
    }

    /// Auto-tuned backward dispatch: rank the merge families and lower
    /// the winner. Batch folding stays the engine's occupancy-gated
    /// consolidation (identical per-plane streams either way).
    fn tuned_backward(
        &self,
        prob: &PoolProblem,
        source: BackwardSource,
        gm_grad: usize,
        gm_dx: usize,
    ) -> Result<Tuned, LowerError> {
        let masked = matches!(source, BackwardSource::MaxMask { .. });
        let choice = choose_backward_algorithm(
            prob,
            masked,
            self.chip.cores,
            &self.schedule(),
            self.chip.caps,
            self.shared_bandwidth(),
        );
        Self::dispatch_ranked(&choice, |algo| {
            let merge = algo.merge_impl();
            if self.fold_batches(prob) {
                build_backward_batched(
                    prob,
                    merge,
                    source,
                    gm_grad,
                    gm_dx,
                    self.chip.caps,
                    self.schedule(),
                )
            } else {
                build_backward(
                    prob,
                    merge,
                    source,
                    gm_grad,
                    gm_dx,
                    self.chip.caps,
                    self.schedule(),
                )
            }
        })
    }

    /// Post-run honesty booking: surface every decline the tuner took
    /// and certify the dispatched winner against each rejected
    /// alternative's cycle floor. A floor the measured cycles exceed
    /// means the predicted win cannot be certified — booked as a
    /// misprediction, never silently dropped.
    fn book_tuner(&self, run: &mut PoolRun, tuned: &Tuned) {
        run.total.tuner_fallbacks += tuned.fallbacks;
        for alt in &tuned.alternatives {
            if chip_cycle_floor(alt, self.chip.cores, &self.chip.cost) < run.cycles {
                run.total.tuner_mispredicted += 1;
            }
        }
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

    /// Shards per plane a sub-plane backward split uses — the idle-core
    /// multiple [`choose_backward_partition`] priced.
    fn backward_shards(&self, prob: &PoolProblem) -> usize {
        (self.chip.cores / (prob.n * prob.c1)).max(2)
    }

    /// Lower a sharded backward pass, falling back to the per-plane
    /// lowering on a typed decline. Returns the programs, the halo
    /// declarations when the sharded lowering ran, and the decline count
    /// the caller books as [`dv_sim::HwCounters::tuner_fallbacks`].
    #[allow(clippy::too_many_arguments, clippy::type_complexity)]
    fn sharded_backward_or_fallback(
        &self,
        prob: &PoolProblem,
        merge: MergeImpl,
        source: BackwardSource,
        gm: &mut GmArena,
        gm_grad: usize,
        gm_dx: usize,
    ) -> Result<(Vec<Program>, Option<Vec<GmDeclaration>>, u64), LowerError> {
        let shards = self.backward_shards(prob);
        let gm_staging = gm.alloc(backward_shard_staging_bytes(prob, shards));
        match build_backward_sharded(
            prob,
            merge,
            source,
            gm_grad,
            gm_dx,
            gm_staging,
            shards,
            self.chip.caps,
            self.schedule(),
        ) {
            Ok((programs, decls)) => Ok((programs, Some(decls), 0)),
            Err(_) => {
                // Typed decline: run the per-plane schedule the
                // partitioner compared against, and book the fallback.
                let programs = build_backward(
                    prob,
                    merge,
                    source,
                    gm_grad,
                    gm_dx,
                    self.chip.caps,
                    self.schedule(),
                )?;
                Ok((programs, None, 1))
            }
        }
    }

    /// How many shares each plane's bands split into under `axis`.
    fn axis_parallel(&self, axis: PartitionAxis) -> usize {
        match axis {
            PartitionAxis::PerRowBand => self.chip.cores,
            PartitionAxis::PerPlane | PartitionAxis::PerC1 => 1,
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
        gm_in: usize,
        gm_out: usize,
        gm_mask: Option<usize>,
    ) -> Result<Vec<Program>, LowerError> {
        let per_plane = || -> Result<Vec<Program>, LowerError> {
            match gm_mask {
                Some(m) => build_forward_with_argmax_parallel(
                    prob,
                    ForwardImpl::Im2col,
                    gm_in,
                    gm_out,
                    m,
                    self.chip.caps,
                    self.parallel(),
                    self.schedule(),
                ),
                None => build_forward_parallel(
                    prob,
                    ForwardImpl::Im2col,
                    reduction,
                    gm_in,
                    gm_out,
                    self.chip.caps,
                    self.parallel(),
                    self.schedule(),
                ),
            }
        };
        match build_forward_batched(
            prob,
            reduction,
            gm_in,
            gm_out,
            gm_mask,
            self.chip.caps,
            self.schedule(),
        ) {
            Ok(folded) => {
                let folded_issues: usize = folded.iter().map(|p| p.issue_count("im2col")).sum();
                let per_plane_issues =
                    per_plane_im2col_issues(prob, gm_mask.is_some(), self.chip.caps)
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

    fn problem(input: &Nc1hwc0, params: PoolParams) -> Result<PoolProblem, LowerError> {
        PoolProblem::new(input.n, input.c1, input.h, input.w, params)
    }

    /// MaxPool forward (Fig. 7a / Fig. 8): returns the pooled tensor and
    /// the chip counters.
    pub fn maxpool_forward(
        &self,
        input: &Nc1hwc0,
        params: PoolParams,
        impl_: ForwardImpl,
    ) -> Result<(Nc1hwc0, PoolRun), RunError> {
        let prob = Self::problem(input, params)?;
        let mut gm = GmArena::new();
        let gm_in = gm.alloc(prob.in_bytes());
        let gm_out = gm.alloc(prob.out_bytes());
        let (programs, tuned) = if self.auto_tune {
            let t = self.tuned_forward(&prob, Reduction::Max, gm_in, gm_out, None)?;
            (Vec::new(), Some(t))
        } else {
            let ps = match self.forward_axis(&prob, impl_, false) {
                PartitionAxis::PerC1 => {
                    self.batched_forward_or_fallback(&prob, Reduction::Max, gm_in, gm_out, None)?
                }
                axis => build_forward_parallel(
                    &prob,
                    impl_,
                    Reduction::Max,
                    gm_in,
                    gm_out,
                    self.chip.caps,
                    self.axis_parallel(axis),
                    self.schedule(),
                )?,
            };
            (ps, None)
        };
        let mut image = vec![0u8; gm.size()];
        write_tensor(&mut image, gm_in, input.data());
        let mut run = self.chip.run(
            &mut image,
            tuned.as_ref().map_or(&programs, |t| &t.programs),
        )?;
        if let Some(t) = &tuned {
            self.book_tuner(&mut run, t);
        }
        let out = read_plane_tensor(&image, gm_out, &prob);
        Ok((out, run))
    }

    /// MaxPool forward with the argmax mask (Fig. 7b).
    pub fn maxpool_forward_with_argmax(
        &self,
        input: &Nc1hwc0,
        params: PoolParams,
        impl_: ForwardImpl,
    ) -> Result<(Nc1hwc0, PatchTensor, PoolRun), RunError> {
        let prob = Self::problem(input, params)?;
        let mut gm = GmArena::new();
        let gm_in = gm.alloc(prob.in_bytes());
        let gm_out = gm.alloc(prob.out_bytes());
        let gm_mask = gm.alloc(prob.mask_bytes());
        let (programs, tuned) = if self.auto_tune {
            let t = self.tuned_forward(&prob, Reduction::Max, gm_in, gm_out, Some(gm_mask))?;
            (Vec::new(), Some(t))
        } else {
            let ps = match self.forward_axis(&prob, impl_, true) {
                PartitionAxis::PerC1 => self.batched_forward_or_fallback(
                    &prob,
                    Reduction::Max,
                    gm_in,
                    gm_out,
                    Some(gm_mask),
                )?,
                axis => build_forward_with_argmax_parallel(
                    &prob,
                    impl_,
                    gm_in,
                    gm_out,
                    gm_mask,
                    self.chip.caps,
                    self.axis_parallel(axis),
                    self.schedule(),
                )?,
            };
            (ps, None)
        };
        let mut image = vec![0u8; gm.size()];
        write_tensor(&mut image, gm_in, input.data());
        let mut run = self.chip.run(
            &mut image,
            tuned.as_ref().map_or(&programs, |t| &t.programs),
        )?;
        if let Some(t) = &tuned {
            self.book_tuner(&mut run, t);
        }
        let out = read_plane_tensor(&image, gm_out, &prob);
        let mask = read_mask_tensor(&image, gm_mask, &prob);
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
        // carry the same planes and the mask the params' window, or the
        // GM image is sized for one tensor and written from another.
        let mask_shape = (mask.n, mask.c1, mask.kh, mask.kw, mask.oh, mask.ow);
        let grad_shape = (gradients.n, gradients.c1, gradients.h, gradients.w);
        if mask_shape != (mask.n, mask.c1, params.kh, params.kw, oh, ow)
            || grad_shape != (mask.n, mask.c1, oh, ow)
        {
            return Err(RunError::Lower(LowerError::Shape(
                dv_tensor::ShapeError::Mismatch(format!(
                    "mask (n, c1, kh, kw, oh, ow) {mask_shape:?} / gradients (n, c1, h, w) \
                     {grad_shape:?} do not match the {}x{} window and derived patch grid {:?}",
                    params.kh,
                    params.kw,
                    (oh, ow)
                )),
            )));
        }
        let mut gm = GmArena::new();
        let gm_mask = gm.alloc(prob.mask_bytes());
        let gm_grad = gm.alloc(prob.out_bytes());
        let gm_dx = gm.alloc(prob.in_bytes());
        let source = BackwardSource::MaxMask { gm_mask };
        let mut decls: Option<Vec<GmDeclaration>> = None;
        let mut declined = 0u64;
        let (programs, tuned) = if self.auto_tune {
            let t = self.tuned_backward(&prob, source, gm_grad, gm_dx)?;
            (Vec::new(), Some(t))
        } else if self.backward_axis(&prob, merge, true) == PartitionAxis::PerRowBand {
            let (ps, ds, d) =
                self.sharded_backward_or_fallback(&prob, merge, source, &mut gm, gm_grad, gm_dx)?;
            decls = ds;
            declined = d;
            (ps, None)
        } else if self.fold_batches(&prob) {
            let ps = build_backward_batched(
                &prob,
                merge,
                source,
                gm_grad,
                gm_dx,
                self.chip.caps,
                self.schedule(),
            )?;
            (ps, None)
        } else {
            let ps = build_backward(
                &prob,
                merge,
                source,
                gm_grad,
                gm_dx,
                self.chip.caps,
                self.schedule(),
            )?;
            (ps, None)
        };
        let mut image = vec![0u8; gm.size()];
        write_tensor(&mut image, gm_mask, mask.data());
        write_tensor(&mut image, gm_grad, gradients.data());
        let ps = tuned.as_ref().map_or(&programs, |t| &t.programs);
        let mut run = match &decls {
            Some(d) => self.chip.run_declared(&mut image, ps, d)?,
            None => self.chip.run(&mut image, ps)?,
        };
        if let Some(t) = &tuned {
            self.book_tuner(&mut run, t);
        }
        run.total.tuner_fallbacks += declined;
        let dx = read_input_tensor(&image, gm_dx, &prob);
        Ok((dx, run))
    }

    /// Rectified-linear activation (`vrelu`) over a whole tensor — the
    /// elementwise layer a CNN interleaves between convolution and
    /// pooling. One program per `(n, c1)` plane; each tiles against the
    /// UB like the pooling kernels.
    pub fn relu(&self, input: &Nc1hwc0) -> Result<(Nc1hwc0, PoolRun), RunError> {
        use dv_akg::{dma, elementwise, UbArena};
        use dv_isa::{Addr, Program, VectorOp};

        let plane_bytes = input.h * input.w * C0 * 2;
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

        let mut image = vec![0u8; gm.size()];
        write_tensor(&mut image, gm_in, input.data());
        let run = self.chip.run(&mut image, &programs)?;
        let data = read_f16s(&image, gm_out, input.len());
        let mut out = Nc1hwc0::from_vec(input.n, input.c1, input.h, input.w, data)
            .expect("engine-produced shape");
        out.orig_c = input.orig_c;
        Ok((out, run))
    }

    /// AvgPool forward (Section V-C).
    pub fn avgpool_forward(
        &self,
        input: &Nc1hwc0,
        params: PoolParams,
        impl_: ForwardImpl,
    ) -> Result<(Nc1hwc0, PoolRun), RunError> {
        let prob = Self::problem(input, params)?;
        let mut gm = GmArena::new();
        let gm_in = gm.alloc(prob.in_bytes());
        let gm_out = gm.alloc(prob.out_bytes());
        let (programs, tuned) = if self.auto_tune {
            let scale = crate::avgpool::avg_scale(&prob);
            let t = self.tuned_forward(&prob, Reduction::Sum { scale }, gm_in, gm_out, None)?;
            (Vec::new(), Some(t))
        } else {
            let ps = match self.forward_axis(&prob, impl_, false) {
                PartitionAxis::PerC1 => {
                    let scale = crate::avgpool::avg_scale(&prob);
                    self.batched_forward_or_fallback(
                        &prob,
                        Reduction::Sum { scale },
                        gm_in,
                        gm_out,
                        None,
                    )?
                }
                axis => build_avgpool_forward_parallel(
                    &prob,
                    impl_,
                    gm_in,
                    gm_out,
                    self.chip.caps,
                    self.axis_parallel(axis),
                    self.schedule(),
                )?,
            };
            (ps, None)
        };
        let mut image = vec![0u8; gm.size()];
        write_tensor(&mut image, gm_in, input.data());
        let mut run = self.chip.run(
            &mut image,
            tuned.as_ref().map_or(&programs, |t| &t.programs),
        )?;
        if let Some(t) = &tuned {
            self.book_tuner(&mut run, t);
        }
        let out = read_plane_tensor(&image, gm_out, &prob);
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
            return Err(RunError::Lower(LowerError::Shape(
                dv_tensor::ShapeError::Mismatch(format!(
                    "gradients {:?} do not match derived patch grid {:?}",
                    (gradients.h, gradients.w),
                    (oh, ow)
                )),
            )));
        }
        let mut gm = GmArena::new();
        let gm_grad = gm.alloc(prob.out_bytes());
        let gm_dx = gm.alloc(prob.in_bytes());
        let source = BackwardSource::AvgUniform {
            scale: crate::avgpool::avg_scale(&prob),
        };
        let mut decls: Option<Vec<GmDeclaration>> = None;
        let mut declined = 0u64;
        let (programs, tuned) = if self.auto_tune {
            let t = self.tuned_backward(&prob, source, gm_grad, gm_dx)?;
            (Vec::new(), Some(t))
        } else if self.backward_axis(&prob, merge, false) == PartitionAxis::PerRowBand {
            let (ps, ds, d) =
                self.sharded_backward_or_fallback(&prob, merge, source, &mut gm, gm_grad, gm_dx)?;
            decls = ds;
            declined = d;
            (ps, None)
        } else if self.fold_batches(&prob) {
            let ps = build_avgpool_backward_batched(
                &prob,
                merge,
                gm_grad,
                gm_dx,
                self.chip.caps,
                self.schedule(),
            )?;
            (ps, None)
        } else {
            let ps = build_avgpool_backward(
                &prob,
                merge,
                gm_grad,
                gm_dx,
                self.chip.caps,
                self.schedule(),
            )?;
            (ps, None)
        };
        let mut image = vec![0u8; gm.size()];
        write_tensor(&mut image, gm_grad, gradients.data());
        let ps = tuned.as_ref().map_or(&programs, |t| &t.programs);
        let mut run = match &decls {
            Some(d) => self.chip.run_declared(&mut image, ps, d)?,
            None => self.chip.run(&mut image, ps)?,
        };
        if let Some(t) = &tuned {
            self.book_tuner(&mut run, t);
        }
        run.total.tuner_fallbacks += declined;
        let dx = read_input_tensor(&image, gm_dx, &prob);
        Ok((dx, run))
    }
}

fn write_tensor(image: &mut [u8], offset: usize, data: &[dv_fp16::F16]) {
    let bytes = dv_fp16::as_bytes(data);
    image[offset..offset + bytes.len()].copy_from_slice(bytes);
}

fn read_f16s(image: &[u8], offset: usize, len: usize) -> Vec<dv_fp16::F16> {
    (0..len)
        .map(|i| {
            let o = offset + i * 2;
            dv_fp16::F16::from_bits(u16::from_le_bytes([image[o], image[o + 1]]))
        })
        .collect()
}

/// Read the output tensor `(N, C1, Oh, Ow, C0)`.
fn read_plane_tensor(image: &[u8], offset: usize, prob: &PoolProblem) -> Nc1hwc0 {
    let (oh, ow) = prob.out_dims();
    let data = read_f16s(image, offset, prob.n * prob.c1 * oh * ow * C0);
    Nc1hwc0::from_vec(prob.n, prob.c1, oh, ow, data).expect("engine-produced shape")
}

/// Read the input-shaped tensor `(N, C1, Ih, Iw, C0)`.
fn read_input_tensor(image: &[u8], offset: usize, prob: &PoolProblem) -> Nc1hwc0 {
    let data = read_f16s(image, offset, prob.n * prob.c1 * prob.ih * prob.iw * C0);
    Nc1hwc0::from_vec(prob.n, prob.c1, prob.ih, prob.iw, data).expect("engine-produced shape")
}

/// Read the argmax mask `(N, C1, Kh, Kw, Oh, Ow, C0)`.
fn read_mask_tensor(image: &[u8], offset: usize, prob: &PoolProblem) -> PatchTensor {
    let (oh, ow) = prob.out_dims();
    let len = prob.n * prob.c1 * prob.params.kh * prob.params.kw * oh * ow * C0;
    let data = read_f16s(image, offset, len);
    PatchTensor::from_vec(
        prob.n,
        prob.c1,
        prob.params.kh,
        prob.params.kw,
        oh,
        ow,
        data,
    )
    .expect("engine-produced shape")
}
