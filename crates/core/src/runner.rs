//! The high-level API: run pooling operators on a simulated chip.
//!
//! [`PoolingEngine`] owns a [`Chip`], lays out tensors in a global-memory
//! image, lowers the requested implementation, runs it, and returns the
//! output tensors together with the chip's hardware counters — the f16
//! results are what the tests compare bit-exactly against the golden
//! references, and the cycle counts are what the benchmark harness plots
//! against the paper's figures.

use crate::avgpool::avg_scale;
use crate::maxpool::batched::per_plane_im2col_issues;
use crate::maxpool::{
    backward_shard_staging_bytes, build_backward, build_backward_batched, build_backward_sharded,
    build_forward_batched, build_forward_parallel, build_forward_with_argmax_parallel,
    BackwardSource, Reduction,
};
use crate::problem::{ForwardImpl, LowerError, MergeImpl, PoolProblem};
use crate::schedule::{
    chip_cycle_floor, choose_backward_algorithm, choose_backward_partition,
    choose_forward_algorithm, choose_partition, Algorithm, AlgorithmChoice, PartitionAxis,
    Schedule,
};
use core::fmt;
use dv_akg::GmArena;
use dv_fp16::F16;
use dv_isa::Program;
use dv_sim::{Chip, ChipRun, GmDeclaration, MemoryModel, SimError};
use dv_tensor::{Nc1hwc0, PatchTensor, PoolKind, PoolParams, ShapeError, C0};

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
}

/// A lowered run, consumed by [`PoolingEngine::execute`]: the programs
/// to dispatch plus everything the run books afterwards.
#[derive(Default)]
struct Lowered {
    programs: Vec<Program>,
    /// Halo declarations of a sub-plane-sharded backward, folded back by
    /// [`Chip::run_declared`].
    halos: Option<Vec<GmDeclaration>>,
    /// Typed declines taken before `programs` lowered, booked as
    /// [`dv_sim::HwCounters::tuner_fallbacks`].
    fallbacks: u64,
    /// Lowered programs of each rejected (but lowerable) tuner
    /// alternative, certified against the measured cycles.
    alternatives: Vec<Vec<Program>>,
}

impl From<Vec<Program>> for Lowered {
    fn from(programs: Vec<Program>) -> Self {
        Lowered {
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
    fn ranked(
        choice: &AlgorithmChoice,
        mut lower: impl FnMut(Algorithm) -> Result<Vec<Program>, LowerError>,
    ) -> Result<Lowered, LowerError> {
        let mut lowered: Option<Lowered> = None;
        let mut declines = 0u64;
        let mut last_err: Option<LowerError> = None;
        for pred in &choice.ranking {
            match lower(pred.algorithm) {
                Ok(ps) => match &mut lowered {
                    Some(l) => l.alternatives.push(ps),
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

    /// The one execute step: lay out the GM image with each input written
    /// at its offset, run the programs (folding halo declarations back
    /// when there are any), book the lowering's typed declines, and
    /// certify the dispatched winner against each rejected alternative's
    /// cycle floor. A floor the measured cycles exceed means the
    /// predicted win cannot be certified — booked as a misprediction,
    /// never silently dropped.
    fn execute(
        &self,
        gm: &GmArena,
        inputs: &[(usize, &[F16])],
        lowered: &Lowered,
    ) -> Result<(Vec<u8>, PoolRun), RunError> {
        let mut image = vec![0u8; gm.size()];
        for &(offset, data) in inputs {
            let bytes = dv_fp16::as_bytes(data);
            image[offset..offset + bytes.len()].copy_from_slice(bytes);
        }
        let mut run = match &lowered.halos {
            Some(halos) => self
                .chip
                .run_declared(&mut image, &lowered.programs, halos)?,
            None => self.chip.run(&mut image, &lowered.programs)?,
        };
        run.total.tuner_fallbacks += lowered.fallbacks;
        for alt in &lowered.alternatives {
            if chip_cycle_floor(alt, self.chip.cores, &self.chip.cost) < run.cycles {
                run.total.tuner_mispredicted += 1;
            }
        }
        Ok((image, run))
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
    /// [`PoolingEngine::avgpool_forward`]: lay out input, output and —
    /// when `with_mask` — the argmax mask in GM; lower through the tuner's
    /// ranking, or else by the partition axis; execute; read back.
    fn forward(
        &self,
        input: &Nc1hwc0,
        params: PoolParams,
        impl_: ForwardImpl,
        kind: PoolKind,
        with_mask: bool,
    ) -> Result<(Nc1hwc0, Option<PatchTensor>, PoolRun), RunError> {
        let prob = PoolProblem::new(input.n, input.c1, input.h, input.w, params)?;
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
            Self::ranked(&choice, |algo| match algo {
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
                PartitionAxis::PerC1 => self.batched_forward_or_fallback(&prob, reduction, gm)?,
                PartitionAxis::PerRowBand => {
                    self.per_plane_forward(&prob, impl_, reduction, gm, self.chip.cores)?
                }
                PartitionAxis::PerPlane => {
                    self.per_plane_forward(&prob, impl_, reduction, gm, 1)?
                }
            })
        };
        let (image, run) = self.execute(&arena, &[(gm.input, input.data())], &lowered)?;
        let (oh, ow) = prob.out_dims();
        let out = read_tensor(&image, gm.out, (prob.n, prob.c1, oh, ow))?;
        let mask = gm.mask.map(|m| read_mask(&image, m, &prob)).transpose()?;
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
        let gm_staging = arena.alloc(backward_shard_staging_bytes(prob, shards));
        match build_backward_sharded(
            prob, merge, source, gm_grad, gm_dx, gm_staging, shards, caps, sched,
        ) {
            Ok((programs, halos)) => Ok(Lowered {
                programs,
                halos: Some(halos),
                ..Lowered::default()
            }),
            // Typed decline: run the per-plane schedule the partitioner
            // compared against, and book the fallback.
            Err(_) => Ok(Lowered {
                programs: build_backward(prob, merge, source, gm_grad, gm_dx, caps, sched)?,
                fallbacks: 1,
                ..Lowered::default()
            }),
        }
    }

    /// The one backward path behind [`PoolingEngine::maxpool_backward`]
    /// (`mask` given) and [`PoolingEngine::avgpool_backward`] (uniform
    /// mask): lay out mask, gradients and `dx` in GM; lower through the
    /// tuner's ranking, else as sub-plane shards when the partitioner
    /// predicts a win, else folded or per plane; execute; read `dx` back.
    fn backward(
        &self,
        prob: &PoolProblem,
        mask: Option<&PatchTensor>,
        gradients: &Nc1hwc0,
        merge: MergeImpl,
    ) -> Result<(Nc1hwc0, PoolRun), RunError> {
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
        let lowered = if self.auto_tune {
            let choice = choose_backward_algorithm(
                prob,
                mask.is_some(),
                self.chip.cores,
                &self.schedule(),
                self.chip.caps,
                self.shared_bandwidth(),
            );
            Self::ranked(&choice, |algo| {
                self.backward_programs(prob, algo.merge_impl(), source, gm_grad, gm_dx)
            })?
        } else if self.backward_axis(prob, merge, mask.is_some()) == PartitionAxis::PerRowBand {
            self.sharded_backward_or_fallback(prob, merge, source, &mut arena, gm_grad, gm_dx)?
        } else {
            Lowered::from(self.backward_programs(prob, merge, source, gm_grad, gm_dx)?)
        };
        let inputs: Vec<(usize, &[F16])> = gm_mask
            .into_iter()
            .chain([(gm_grad, gradients.data())])
            .collect();
        let (image, run) = self.execute(&arena, &inputs, &lowered)?;
        let dx = read_tensor(&image, gm_dx, (prob.n, prob.c1, prob.ih, prob.iw))?;
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
        // `forward` reads a mask back whenever it stores one.
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
        // carry the same planes and the mask the params' window, or the
        // GM image is sized for one tensor and written from another.
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

        let (image, run) = self.execute(&gm, &[(gm_in, input.data())], &programs.into())?;
        let mut out = read_tensor(&image, gm_out, (input.n, input.c1, input.h, input.w))?;
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

/// `len` f16 values from the GM image at `offset`. A region running past
/// the image reads as empty, which the tensor constructors reject as a
/// typed length mismatch.
fn read_f16s(image: &[u8], offset: usize, len: usize) -> Vec<F16> {
    match image.get(offset..offset + len * 2) {
        Some(bytes) => bytes
            .chunks_exact(2)
            .map(|b| F16::from_bits(u16::from_le_bytes([b[0], b[1]])))
            .collect(),
        None => Vec::new(),
    }
}

/// Read an `(N, C1, H, W, C0)` tensor from the GM image.
fn read_tensor(
    image: &[u8],
    offset: usize,
    (n, c1, h, w): (usize, usize, usize, usize),
) -> Result<Nc1hwc0, ShapeError> {
    Nc1hwc0::from_vec(n, c1, h, w, read_f16s(image, offset, n * c1 * h * w * C0))
}

/// Read the argmax mask `(N, C1, Kh, Kw, Oh, Ow, C0)` from the GM image.
fn read_mask(image: &[u8], offset: usize, prob: &PoolProblem) -> Result<PatchTensor, ShapeError> {
    let (oh, ow) = prob.out_dims();
    let (kh, kw) = (prob.params.kh, prob.params.kw);
    let data = read_f16s(image, offset, prob.n * prob.c1 * kh * kw * oh * ow * C0);
    PatchTensor::from_vec(prob.n, prob.c1, kh, kw, oh, ow, data)
}
