//! Cross-band overlap scheduling: how a lowering decides *whether* to
//! overlap band `i + 1`'s loads with band `i`'s compute, and what the
//! planners predict a banded program costs.
//!
//! The one overlap mechanism is ping-pong ([`dv_akg::BandMode::PingPong`]):
//! every band-cycled region gets two software-addressed slots, halving
//! the band height, so band `i + 1`'s loads target the slot the Vector
//! pipe is not reading. It was measured per lowering and is declined
//! where the halved band costs more than the overlap recovers — the
//! Im2col forward and the VAdd-merge backward stay single-slotted. The
//! closed-form stage estimators here price each band's pipe-0 (MTE/SCU)
//! and pipe-1 (Vector) cycles from the [`CostModel`] constants; the
//! tuner and the partitioners rank candidates with them. The simulator's
//! dual-pipe makespan is the ground truth the estimates approximate.

use crate::problem::{ForwardImpl, MergeImpl, PoolProblem};
use dv_akg::{row_bands, Band, BandMode};
use dv_isa::{Program, MAX_REPEAT, VECTOR_LANES};
use dv_sim::{Capacities, CostModel};
use dv_tensor::{C0, FRACTAL_ROWS};

const ROW: usize = C0 * 2;

/// Per-workload scheduling knobs a lowering plans against, resolved by
/// [`crate::PoolingEngine`] from its `double_buffer` switch and its
/// chip's cost model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Schedule {
    /// Allow cross-band overlap at all (the engine's `double_buffer`
    /// switch). Off means strictly serial single-slot bands.
    pub double: bool,
    /// The cycle charges the stage estimators price with.
    pub cost: CostModel,
}

impl Schedule {
    /// The schedule of an engine running `cost` with overlap allowed or
    /// not.
    pub fn for_cost(cost: CostModel, double: bool) -> Schedule {
        Schedule { double, cost }
    }

    /// Strictly serial banding: no prefetch. What `double_buffer = false`
    /// engines and instruction-count audits use.
    pub fn serial() -> Schedule {
        Schedule::for_cost(CostModel::ascend910_like(), false)
    }
}

impl Default for Schedule {
    /// Overlap allowed, priced with the default cost model.
    fn default() -> Schedule {
        Schedule::for_cost(CostModel::ascend910_like(), true)
    }
}

/// Estimated busy cycles of one band's four schedule stages. Pipe 0
/// (MTE/SCU) runs `load`, `expand` and `flush` in program order; pipe 1
/// (Vector) runs `compute`.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct BandStages {
    /// Staging DMAs: the input (or gradient + mask) band loads.
    pub load: u64,
    /// `Im2Col` expansions the compute stage waits on (0 for backward).
    pub expand: u64,
    /// Vector work: fills, reductions, compares, multiplies, merges.
    pub compute: u64,
    /// Result DMAs back to GM (output, mask planes, dx rows).
    pub flush: u64,
}

/// Cycles of a full-mask elementwise pass over `elems` f16 elements, as
/// `dv_akg::emit::elementwise` chunks it: `MAX_REPEAT`-repeat issues over
/// the 128-lane blocks plus one tail issue.
pub(crate) fn vec_sat(cost: &CostModel, elems: usize) -> u64 {
    let full = elems / VECTOR_LANES;
    let tail = usize::from(!elems.is_multiple_of(VECTOR_LANES));
    let issues = full.div_ceil(MAX_REPEAT as usize) + tail;
    let reps = full + tail;
    issues as u64 * cost.issue_overhead + reps as u64 * cost.vector_per_repeat
}

/// Cycles of one MTE move of `bytes` bytes, issue overhead included.
pub(crate) fn dma_est(cost: &CostModel, bytes: usize) -> u64 {
    cost.issue_overhead + cost.move_cycles(bytes)
}

/// Makespan of running every band's stages strictly in sequence — the
/// single-slot schedule, where band `i + 1`'s loads wait for band `i`'s
/// last read.
pub(crate) fn serial_makespan(stages: impl IntoIterator<Item = BandStages>) -> u64 {
    stages
        .into_iter()
        .map(|s| s.load + s.expand + s.compute + s.flush)
        .sum()
}

/// Makespan estimate of a ping-pong band pipeline, where band `i + 1`'s
/// loads land in the alternate slot while band `i` computes.
///
/// Modelled as the in-order pipe-0 stream `load(0), expand(0), load(1),
/// flush(0), expand(1), load(2), flush(1), …`: `compute(i)` starts once
/// its inputs are staged (after `expand(i)` when there is one, else
/// after `load(i)`) and pipe 1 is free, and `flush(i)` waits on
/// `compute(i)` (RAW), so pipe 0 never runs more than one band ahead.
/// The only overlap credited is band `i + 1`'s loads (and, transitively,
/// work behind them) against band `i`'s compute — which keeps the
/// estimate honest on pipe-0-bound workloads, where an idealised
/// two-stage pipeline bound overpromises.
pub(crate) fn ping_pong_makespan(stages: &[BandStages]) -> u64 {
    let Some(first) = stages.first() else {
        return 0;
    };
    let mut t = first.load; // pipe-0 cursor
    let mut load_done = t; // completion of the latest band load
    let mut r = 0u64; // pipe-1 cursor
    for (i, s) in stages.iter().enumerate() {
        t += s.expand;
        let staged = if s.expand > 0 { t } else { load_done };
        r = r.max(staged) + s.compute;
        if let Some(next) = stages.get(i + 1) {
            t += next.load;
            load_done = t;
        }
        t = t.max(r) + s.flush;
    }
    t.max(r)
}

/// Finer-grained stage estimate of one Im2col-forward band. The forward
/// compute is not a monolith: the reduction for plane `p` only waits on
/// plane `p`'s `Im2Col` chain (RAW per plane), so on the dual-pipe
/// machine the vector chain *trails* the expansion stream and mostly
/// hides under it. Modelling that trailing is what keeps the serial
/// estimate honest; summing whole stages overstates it by roughly one
/// compute per band.
#[derive(Clone, Copy, Debug)]
pub(crate) struct FwdStages {
    /// Input-band DMA into L1.
    pub load: u64,
    /// `Im2Col` chain of one `(kh, kw)` plane.
    pub plane_expand: u64,
    /// `Kh * Kw`.
    pub planes: u64,
    /// One full-band vector pass (the fill, one reduction, or one mask
    /// compare — all chunk identically).
    pub plane_vec: u64,
    /// One argmax mask-plane DMA back to GM (0 without a mask).
    pub mask_dma: u64,
    /// The output-band DMA back to GM.
    pub out_dma: u64,
}

impl FwdStages {
    fn expand(&self) -> u64 {
        self.planes * self.plane_expand
    }

    /// When this band's saturated reduction completes, given the pipe-1
    /// cursor `r_prev` (previous band's last vector instruction this
    /// chain queues behind) and the pipe-0 time its last expansion
    /// lands. The fill runs as soon as pipe 1 frees up; reduction `p`
    /// waits only on expansion `p` (RAW per plane), so the chain trails
    /// the expansion stream.
    fn reduce_end(&self, r_prev: u64, expand_end: u64) -> u64 {
        let first_staged = expand_end - self.expand() + self.plane_expand;
        let chain = r_prev.max(first_staged) + (1 + self.planes) * self.plane_vec;
        // Even a fully-hidden chain still exposes the last plane's
        // reduction past the last expansion.
        chain.max(expand_end + self.plane_vec)
    }

    /// Walk the flush stage from pipe-0 time `p0`: each mask-plane DMA
    /// RAW-waits only on *its* compare (which trails the reduction on
    /// pipe 1), then the output DMA waits on the reduction. Returns the
    /// pipe-0 completion time.
    fn flush_end(&self, p0: u64, reduce_end: u64) -> u64 {
        let mut t = p0;
        let mut cmp = reduce_end;
        if self.mask_dma > 0 {
            for _ in 0..self.planes {
                cmp += self.plane_vec;
                t = t.max(cmp) + self.mask_dma;
            }
        }
        t.max(reduce_end) + self.out_dma
    }
}

/// Makespan of the single-slot (serial) Im2col forward on the dual-pipe
/// machine. Pipe 0 runs `load, expand, flush` per band back-to-back;
/// the flush RAW-waits on the band's vector chain; the next band's fill
/// WAR-waits on the output DMA, so pipe 1 resumes only after the flush
/// completes.
pub(crate) fn forward_serial_makespan(stages: &[FwdStages]) -> u64 {
    let mut t = 0u64; // pipe-0 cursor
    let mut r = 0u64; // pipe-1 cursor
    for s in stages {
        t += s.load + s.expand();
        let re = s.reduce_end(r, t);
        t = s.flush_end(t, re);
        // The next fill's WAR on the out region binds to this flush.
        r = t;
    }
    t
}

/// Which axis a sharded forward partitions the chip's work over — the
/// three splits Section V-A admits ("the outer loops are parallelized
/// between the AI Cores available").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PartitionAxis {
    /// One program per `(n, c1)` plane — the paper's per-plane schedule
    /// and the only shape every lowering supports. Covers the
    /// "per-batch-element" split: with `C1 = 1` each program *is* one
    /// batch element.
    PerPlane,
    /// Batch fold: one program per `c1` slice carrying all `N` batch
    /// planes through a Mode-0 `Im2Col` repeat chain. Fewer, bigger
    /// programs — worthwhile exactly when occupancy survives the drop
    /// from `N * C1` to `C1` programs.
    PerC1,
    /// Row bands: each plane's output rows split across otherwise-idle
    /// cores, one program per band group. More, smaller programs — buys
    /// occupancy when there are fewer planes than cores, at the price of
    /// per-band halo reloads and issue overhead.
    PerRowBand,
}

/// Estimated (cycles, GM bytes) of one Im2col-forward program covering a
/// `1/groups` row-band share of one plane (`groups == 1`: the whole
/// plane). `None` when the geometry cannot be banded that way (vertical
/// padding, degenerate heights) — the caller must not pick that split.
fn shard_est(
    prob: &PoolProblem,
    with_mask: bool,
    cost: &CostModel,
    groups: usize,
) -> Option<(u64, u64)> {
    let (oh, ow) = prob.out_dims();
    let g = groups.clamp(1, oh);
    let boh = oh.div_ceil(g);
    let bands = row_bands(&prob.params, oh, boh, prob.ih).ok()?;
    // The tallest (first) band bounds the shard makespan.
    let s = forward_im2col_band(prob, with_mask, cost, &bands[0]);
    let cycles = forward_serial_makespan(std::slice::from_ref(&s));
    let band_out = bands[0].oh_len() * ow * ROW;
    let mask_out = if with_mask {
        prob.params.kh * prob.params.kw * band_out
    } else {
        0
    };
    let gm = bands[0].ih_len * prob.iw * ROW + band_out + mask_out;
    Some((cycles, gm as u64))
}

/// Estimated chip makespan of `programs` identical shards of `per` =
/// (cycles, GM bytes) each, round-robined over `cores`. Under a shared
/// L2/HBM pipe of `shared` bytes/cycle the estimate is inflated by the
/// analytic contention multiplier `max(1, concurrent * demand / shared)`
/// — the uniform-streams closed form of the simulator's fluid model
/// (`dv_sim::contention`), which is exact when all concurrent shards are
/// identical, as they are here.
fn chip_makespan(
    programs: usize,
    per: (u64, u64),
    cores: usize,
    cost: &CostModel,
    shared: Option<u64>,
) -> f64 {
    if programs == 0 {
        return 0.0;
    }
    let rounds = programs.div_ceil(cores) as f64;
    let per_cycles = (per.0 + cost.core_dispatch).max(1) as f64;
    let factor = match shared {
        Some(b) => {
            let concurrent = programs.min(cores) as f64;
            let demand = (per.1 as f64 / per_cycles).min(cost.move_bytes_per_cycle as f64);
            (concurrent * demand / b.max(1) as f64).max(1.0)
        }
        None => 1.0,
    };
    rounds * per_cycles * factor
}

/// Pick the partition axis for a sharded Im2col forward: estimate the
/// chip makespan of each feasible split with the same per-band cost
/// predictor the overlap decisions use, inflate by the shared-bandwidth
/// contention multiplier when the chip models one, and take the cheapest.
/// Ties prefer [`PartitionAxis::PerC1`] over [`PartitionAxis::PerPlane`]
/// (the fold also saves `Im2Col` issues, which the makespan estimate
/// does not see) and `PerPlane` over [`PartitionAxis::PerRowBand`] (band
/// splits pay halo reloads the win must clear).
pub fn choose_partition(
    prob: &PoolProblem,
    with_mask: bool,
    cores: usize,
    sched: &Schedule,
    shared_bandwidth: Option<u64>,
) -> PartitionAxis {
    let cost = &sched.cost;
    let planes = prob.n * prob.c1;
    let Some(plane) = shard_est(prob, with_mask, cost, 1) else {
        return PartitionAxis::PerPlane;
    };
    let mut best = (
        chip_makespan(planes, plane, cores, cost, shared_bandwidth),
        PartitionAxis::PerPlane,
    );
    if prob.n > 1 {
        let folded = (
            plane.0.saturating_mul(prob.n as u64),
            plane.1.saturating_mul(prob.n as u64),
        );
        let est = chip_makespan(prob.c1, folded, cores, cost, shared_bandwidth);
        if est <= best.0 {
            best = (est, PartitionAxis::PerC1);
        }
    }
    let groups = cores.checked_div(planes).unwrap_or(0);
    if groups > 1 {
        if let Some(band) = shard_est(prob, with_mask, cost, groups) {
            let est = chip_makespan(planes * groups, band, cores, cost, shared_bandwidth);
            if est < best.0 {
                best = (est, PartitionAxis::PerRowBand);
            }
        }
    }
    best.1
}

/// Stage estimate of one Im2col-forward band at its actual height.
pub(crate) fn forward_im2col_band(
    prob: &PoolProblem,
    with_mask: bool,
    cost: &CostModel,
    band: &Band,
) -> FwdStages {
    let params = &prob.params;
    let (_, ow) = prob.out_dims();
    let boh = band.oh_len();
    let planes = (params.kh * params.kw) as u64;
    let bf = PoolProblem::fractals_for(boh * ow);
    let elems = bf * FRACTAL_ROWS * C0;
    let band_bytes = boh * ow * ROW;
    let plane_expand = bf.div_ceil(MAX_REPEAT as usize) as u64 * cost.issue_overhead
        + bf as u64 * cost.im2col_per_fractal;
    let plane_vec = vec_sat(cost, elems);
    FwdStages {
        load: dma_est(cost, band.ih_len * prob.iw * ROW),
        plane_expand,
        planes,
        plane_vec,
        mask_dma: if with_mask {
            dma_est(cost, band_bytes)
        } else {
            0
        },
        out_dma: dma_est(cost, band_bytes),
    }
}

// ---------------------------------------------------------------------
// The auto-tuner: rank whole algorithm families per workload.
// ---------------------------------------------------------------------

/// The algorithm families [`choose_forward_algorithm`] and
/// [`choose_backward_algorithm`] rank — the auto-tuner's dispatch table.
/// Each maps onto the existing lowering switches: the tuner never invents
/// a new lowering, it only decides which one runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algorithm {
    /// Direct reduction on the NC1HWC0 layout: [`ForwardImpl::Standard`]
    /// forward, [`MergeImpl::VAdd`] backward — the lowering that wins
    /// Fig. 8a's stride-(1,1) regime.
    Direct,
    /// The paper's accelerated path: [`ForwardImpl::Im2col`] forward,
    /// [`MergeImpl::Col2Im`] backward, one program per `(n, c1)` plane.
    Im2col,
    /// The Mode-0 batch fold (forward only): all `N` planes of a `c1`
    /// slice through one `Im2Col` repeat-chain program.
    Fold,
}

impl Algorithm {
    /// Stable name for baselines, gate sections and CLI flags.
    pub fn label(self) -> &'static str {
        match self {
            Algorithm::Direct => "direct",
            Algorithm::Im2col => "im2col",
            Algorithm::Fold => "fold",
        }
    }

    /// The forward lowering this algorithm dispatches.
    pub fn forward_impl(self) -> ForwardImpl {
        match self {
            Algorithm::Direct => ForwardImpl::Standard,
            Algorithm::Im2col | Algorithm::Fold => ForwardImpl::Im2col,
        }
    }

    /// The backward merge this algorithm dispatches.
    pub fn merge_impl(self) -> MergeImpl {
        match self {
            Algorithm::Direct => MergeImpl::VAdd,
            Algorithm::Im2col | Algorithm::Fold => MergeImpl::Col2Im,
        }
    }
}

/// One ranked candidate: an algorithm and its predicted chip cycles.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Prediction {
    /// The candidate algorithm.
    pub algorithm: Algorithm,
    /// Predicted chip cycles (banding, round-robin dispatch and the
    /// shared-bandwidth contention multiplier folded in).
    pub cycles: u64,
}

/// The tuner's verdict: every feasible candidate, cheapest first. An
/// infeasible candidate (padded direct reduction, a fold with `N = 1`, a
/// geometry no band plan fits) is simply absent — the engine dispatches
/// [`AlgorithmChoice::winner`] and certifies the run against the rest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AlgorithmChoice {
    /// Feasible candidates sorted by predicted cycles, ascending. Ties
    /// prefer `Fold`, then `Im2col`, then `Direct` (the sort is stable
    /// and that is the insertion order): the fold consolidates `Im2Col`
    /// issues the estimate does not see, and `Direct` must strictly beat
    /// the paper's accelerated path to displace it.
    pub ranking: Vec<Prediction>,
}

impl AlgorithmChoice {
    /// The algorithm the engine dispatches (cheapest predicted cycles).
    pub fn winner(&self) -> Option<Algorithm> {
        self.ranking.first().map(|p| p.algorithm)
    }

    /// The predicted cycles of one candidate, if it was feasible.
    pub fn predicted(&self, algo: Algorithm) -> Option<u64> {
        self.ranking
            .iter()
            .find(|p| p.algorithm == algo)
            .map(|p| p.cycles)
    }
}

/// Stage estimate of one direct-reduction (Standard) forward band,
/// mirroring `emit_standard_compute`'s issue counts: the accumulator
/// fill, then — with `Sw == 1` — `Boh * Kh` row chains of
/// `ceil(Ow*C0/128)` full-mask issues each repeating `Kw` times, or the
/// general `Boh * Ow * Kh` 16-lane issues; one extra saturated pass for
/// the AvgPool scale; `Boh * Ow * Kh` compare issues plus `Kh * Kw`
/// mask-plane DMAs when the argmax mask is kept.
fn standard_band_stages(
    prob: &PoolProblem,
    with_mask: bool,
    is_avg: bool,
    cost: &CostModel,
    band: &Band,
) -> BandStages {
    let params = &prob.params;
    let (_, ow) = prob.out_dims();
    let boh = band.oh_len();
    let issue = cost.issue_overhead + params.kw as u64 * cost.vector_per_repeat;
    let reduce_issues = if params.sw == 1 {
        (boh * params.kh * (ow * C0).div_ceil(VECTOR_LANES)) as u64
    } else {
        (boh * ow * params.kh) as u64
    };
    let mut compute = vec_sat(cost, boh * ow * C0) + reduce_issues * issue;
    if is_avg {
        compute += vec_sat(cost, boh * ow * C0);
    }
    let band_bytes = boh * ow * ROW;
    let mut flush = dma_est(cost, band_bytes);
    if with_mask {
        compute += (boh * ow * params.kh) as u64 * issue;
        flush += (params.kh * params.kw) as u64 * dma_est(cost, band_bytes);
    }
    BandStages {
        load: dma_est(cost, band.ih_len * prob.iw * ROW),
        expand: 0,
        compute,
        flush,
    }
}

/// Estimated (cycles, GM bytes) of one plane's forward program under
/// `impl_`, banded exactly as the lowering would band it (same
/// `plan_band`, same feasibility gates as `build_forward_inner`). `None`
/// when the implementation cannot run this geometry — the candidate is
/// then absent from the ranking, never silently mispriced.
fn forward_plane_est(
    prob: &PoolProblem,
    impl_: ForwardImpl,
    with_mask: bool,
    is_avg: bool,
    caps: Capacities,
    sched: &Schedule,
) -> Option<(u64, u64)> {
    let cost = &sched.cost;
    let params = &prob.params;
    if impl_ != ForwardImpl::Im2col {
        // Mirror build_forward_inner's gates: only the coordinate-checked
        // Im2Col gather realises padding and ceil-mode overhang reads.
        if !params.padding.is_none() {
            return None;
        }
        if params.ceil_mode && params.ceil_overhang(prob.ih, prob.iw).ok()? != (0, 0) {
            return None;
        }
        if params.has_dilation() && impl_ != ForwardImpl::Standard {
            return None;
        }
    }
    let (oh, ow) = prob.out_dims();
    let (boh, mode) =
        crate::maxpool::forward::plan_band(prob, impl_, with_mask, caps, sched).ok()?;
    let bands = row_bands(params, oh, boh, prob.ih).ok()?;
    let cycles = match impl_ {
        ForwardImpl::Im2col => {
            // `plan_band` never gives the Im2col forward ping-pong slots,
            // so its bands always run back to back.
            let stages: Vec<FwdStages> = bands
                .iter()
                .map(|b| forward_im2col_band(prob, with_mask, cost, b))
                .collect();
            let mut c = forward_serial_makespan(&stages);
            if is_avg {
                // The AvgPool scale: one extra saturated pass per band.
                c += stages.iter().map(|s| s.plane_vec).sum::<u64>();
            }
            c
        }
        _ => {
            let stages: Vec<BandStages> = bands
                .iter()
                .map(|b| standard_band_stages(prob, with_mask, is_avg, cost, b))
                .collect();
            if bands.len() < 2 || mode == BandMode::Single {
                serial_makespan(stages.iter().copied())
            } else {
                ping_pong_makespan(&stages)
            }
        }
    };
    let in_bytes: u64 = bands
        .iter()
        .map(|b| (b.ih_len * prob.iw * ROW) as u64)
        .sum();
    let out_bytes = (oh * ow * ROW) as u64;
    let mask_bytes = if with_mask {
        (params.kh * params.kw) as u64 * out_bytes
    } else {
        0
    };
    Some((cycles, in_bytes + out_bytes + mask_bytes))
}

/// Rank the forward algorithm families for one workload: per-plane
/// direct reduction, per-plane Im2col, and the Mode-0 batch fold, each
/// priced by the same per-band stage estimators the overlap and
/// partition decisions use and scaled to chip cycles by the round-robin
/// + contention makespan model. Infeasible candidates are absent.
pub fn choose_forward_algorithm(
    prob: &PoolProblem,
    with_mask: bool,
    is_avg: bool,
    cores: usize,
    sched: &Schedule,
    caps: Capacities,
    shared_bandwidth: Option<u64>,
) -> AlgorithmChoice {
    let cost = &sched.cost;
    let planes = prob.n * prob.c1;
    let mut ranking = Vec::new();
    let mut push = |algorithm, programs: usize, per: (u64, u64)| {
        let est = chip_makespan(programs, per, cores, cost, shared_bandwidth);
        ranking.push(Prediction {
            algorithm,
            cycles: est.round() as u64,
        });
    };
    let im2col = forward_plane_est(prob, ForwardImpl::Im2col, with_mask, is_avg, caps, sched);
    // Insertion order encodes tie preference (see [`AlgorithmChoice`]).
    if prob.n > 1 {
        if let Some(plane) = im2col {
            let folded = (
                plane.0.saturating_mul(prob.n as u64),
                plane.1.saturating_mul(prob.n as u64),
            );
            push(Algorithm::Fold, prob.c1, folded);
        }
    }
    if let Some(plane) = im2col {
        push(Algorithm::Im2col, planes, plane);
    }
    if let Some(plane) =
        forward_plane_est(prob, ForwardImpl::Standard, with_mask, is_avg, caps, sched)
    {
        push(Algorithm::Direct, planes, plane);
    }
    ranking.sort_by_key(|p| p.cycles);
    AlgorithmChoice { ranking }
}

/// Rank the backward merge families for one workload: the Col2Im merge
/// ([`Algorithm::Im2col`]) against the unrepeated 16-lane VAdd merge
/// ([`Algorithm::Direct`]), priced per plane by the same band estimators
/// the overlap decisions use. Batch folding is orthogonal here — the
/// backward fold emits identical per-plane streams, so the engine keeps
/// its occupancy-gated consolidation on whichever merge wins.
pub fn choose_backward_algorithm(
    prob: &PoolProblem,
    masked: bool,
    cores: usize,
    sched: &Schedule,
    caps: Capacities,
    shared_bandwidth: Option<u64>,
) -> AlgorithmChoice {
    let cost = &sched.cost;
    let planes = prob.n * prob.c1;
    let mut ranking = Vec::new();
    for (algorithm, merge) in [
        (Algorithm::Im2col, MergeImpl::Col2Im),
        (Algorithm::Direct, MergeImpl::VAdd),
    ] {
        if let Some(per) =
            crate::maxpool::backward::backward_est(prob, merge, masked, caps, sched, 1)
        {
            let est = chip_makespan(planes, per, cores, cost, shared_bandwidth);
            ranking.push(Prediction {
                algorithm,
                cycles: est.round() as u64,
            });
        }
    }
    ranking.sort_by_key(|p| p.cycles);
    AlgorithmChoice { ranking }
}

/// Pick the partition axis for a sharded backward pass: the per-plane
/// schedule against sub-plane row shards, both priced through the same
/// `rounds x (shard + dispatch) x contention` chip-makespan formula the
/// forward partitioner uses ([`choose_partition`]). The sub-plane split
/// is taken only on a *strict* predicted win — it pays overlap re-loads,
/// grad zeroing and halo staging DMAs the estimate sees, plus a
/// merge-back fold it does not — and only when there are idle cores to
/// feed (`cores > planes`). The per-shard estimate deliberately ignores
/// the chip's L2 locality stage, so a chosen split wins even if every
/// shared read misses; batch folding (`PerC1`) stays the engine's
/// orthogonal occupancy-gated consolidation and is never returned here.
pub fn choose_backward_partition(
    prob: &PoolProblem,
    merge: MergeImpl,
    masked: bool,
    cores: usize,
    sched: &Schedule,
    caps: Capacities,
    shared_bandwidth: Option<u64>,
) -> PartitionAxis {
    let cost = &sched.cost;
    let planes = prob.n * prob.c1;
    let Some(plane) = crate::maxpool::backward::backward_est(prob, merge, masked, caps, sched, 1)
    else {
        return PartitionAxis::PerPlane;
    };
    let best = chip_makespan(planes, plane, cores, cost, shared_bandwidth);
    let groups = cores.checked_div(planes).unwrap_or(0);
    if groups > 1 {
        if let Some(shard) =
            crate::maxpool::backward::backward_est(prob, merge, masked, caps, sched, groups)
        {
            let (oh, _) = prob.out_dims();
            let shards = dv_akg::balanced_ranges(oh, groups).len();
            let est = chip_makespan(planes * shards, shard, cores, cost, shared_bandwidth);
            if est < best {
                return PartitionAxis::PerRowBand;
            }
        }
    }
    PartitionAxis::PerPlane
}

/// A certified lower bound on the cycles one program adds to its core,
/// valid under both issue models: each pipe is in-order and every
/// instruction occupies its pipe for its full
/// [`CostModel::instr_cycles`] charge — the same single source of truth
/// the executors charge through — so the dual-pipe makespan can never
/// undercut the busier pipe's busy total, and the single-issue sum is
/// the two totals added.
pub fn program_cycle_floor(p: &Program, cost: &CostModel) -> u64 {
    let mut pipes = [0u64; 2];
    for instr in p.instrs() {
        pipes[dv_sim::pipe_of(instr.unit())] += cost.instr_cycles(instr);
    }
    pipes[0].max(pipes[1])
}

/// A certified lower bound on [`dv_sim::Chip::run`]'s chip cycles for
/// `programs`, mirroring its round-robin core assignment and per-program
/// dispatch charge exactly; contention stalls only ever add on top, so
/// the bound holds under any memory model. This is what the engine
/// certifies a tuned run against: a rejected alternative whose floor is
/// still below the winner's *measured* cycles means the predicted win
/// cannot be certified, and the engine books a
/// [`dv_sim::HwCounters::tuner_mispredicted`] instead of staying silent.
pub fn chip_cycle_floor(programs: &[Program], cores: usize, cost: &CostModel) -> u64 {
    let cores = cores.max(1);
    (0..cores.min(programs.len()))
        .map(|c| {
            let mut cycles = 0u64;
            let mut on_core = 0u64;
            for p in programs.iter().skip(c).step_by(cores) {
                cycles += program_cycle_floor(p, cost);
                on_core += 1;
            }
            cycles + on_core * cost.core_dispatch
        })
        .max()
        .unwrap_or(0)
}

/// How a conv→pool layer boundary executes — the cross-layer half of the
/// fused-pipeline planner.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SegmentFusion {
    /// The boundary disappears: conv + AvgPool fold into one Cube-path
    /// convolution with box-smeared weights (`dv_conv::fuse_conv_avgpool`
    /// — the paper's Section VIII direction). No pooling pass runs at
    /// all; numerics differ from the composition by documented f16
    /// reassociation rounding.
    Algebraic,
    /// Tile handoff: the conv output planes stay **resident in UB** and
    /// the pool reduction consumes them there. Bit-exact with the
    /// layered composition (same flat reduction orders), minus the GM
    /// round-trip for the intermediate. UB is the only legal residence:
    /// this chip has no UB→L1 or L0C→L1 datapath, so a Cube product can
    /// never climb back to L1 for a second Cube pass — Vector-unit
    /// consumers in UB are exactly what the handoff can feed.
    Handoff,
    /// Layer-at-a-time: the intermediate round-trips through GM (the
    /// decline path — always legal).
    Layered,
}

impl SegmentFusion {
    /// Display label for reports and gate keys.
    pub fn label(&self) -> &'static str {
        match self {
            SegmentFusion::Algebraic => "algebraic",
            SegmentFusion::Handoff => "handoff",
            SegmentFusion::Layered => "layered",
        }
    }
}

/// Decide how a conv→pool boundary should run. `algebraic_legal` and
/// `handoff_legal` are the callers' typed legality checks (fusion
/// algebra applies / the pool consumer can be emitted);
/// `resident_ub_bytes` is the handoff's total UB working set (resident
/// conv planes + pool output staging). The chooser prefers the
/// algebraic fold (it deletes the whole pooling pass), then the handoff
/// when its working set fits the UB, and declines to the layered
/// composition otherwise — a typed decline the caller must book, never
/// a silent substitution.
pub fn choose_segment_fusion(
    algebraic_legal: bool,
    handoff_legal: bool,
    resident_ub_bytes: usize,
    caps: Capacities,
) -> SegmentFusion {
    if algebraic_legal {
        SegmentFusion::Algebraic
    } else if handoff_legal && resident_ub_bytes <= caps.ub {
        SegmentFusion::Handoff
    } else {
        SegmentFusion::Layered
    }
}

/// Estimated cycles a fused handoff saves at one boundary: the
/// intermediate tensor is written to GM once and read back once by the
/// layered composition, and not at all by the handoff.
pub fn segment_handoff_saving(cost: &CostModel, intermediate_bytes: usize) -> u64 {
    2 * dma_est(cost, intermediate_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn st(load: u64, expand: u64, compute: u64, flush: u64) -> BandStages {
        BandStages {
            load,
            expand,
            compute,
            flush,
        }
    }

    #[test]
    fn ping_pong_makespan_overlaps_only_the_next_load() {
        // Single band: strictly serial, no overlap possible.
        assert_eq!(ping_pong_makespan(&[st(10, 4, 6, 2)]), 22);
        // Two compute-bound backward-shaped bands (no expand): band 1's
        // load (8) hides fully under band 0's compute (100):
        // load0=8, c0 at 8..108, load1 at 8..16, flush0 at 108..110,
        // c1 at 108..208, flush1 at 208..210.
        assert_eq!(
            ping_pong_makespan(&[st(8, 0, 100, 2), st(8, 0, 100, 2)]),
            210
        );
        // The same bands serially: 2 * 110.
        assert_eq!(serial_makespan([st(8, 0, 100, 2), st(8, 0, 100, 2)]), 220);
        // Pipe-0-bound forward-shaped bands: the flush RAW-waits on the
        // compute, and the next expand sits behind the flush, so almost
        // nothing overlaps — the model must NOT promise a pipeline here.
        // load0=10, expand0 at 10..110, c0 at 110..115, load1 at
        // 110..120, flush0 at 120..123 (pipe 0 was the later constraint),
        // expand1 at 123..223, c1 at 223..228, flush1 at 228..231.
        assert_eq!(
            ping_pong_makespan(&[st(10, 100, 5, 3), st(10, 100, 5, 3)]),
            231
        );
        assert_eq!(serial_makespan([st(10, 100, 5, 3), st(10, 100, 5, 3)]), 236);
    }

    #[test]
    fn ping_pong_never_exceeds_serial() {
        let cases: &[&[BandStages]] = &[
            &[st(5, 9, 4, 1)],
            &[st(10, 3, 7, 8), st(2, 2, 9, 1), st(4, 0, 4, 4)],
            &[
                st(0, 4, 6, 0),
                st(3, 3, 1, 7),
                st(1, 7, 2, 2),
                st(5, 0, 0, 1),
            ],
        ];
        for bands in cases {
            assert!(ping_pong_makespan(bands) <= serial_makespan(bands.iter().copied()));
        }
    }

    fn fs(
        load: u64,
        plane_expand: u64,
        planes: u64,
        plane_vec: u64,
        mask_dma: u64,
        out_dma: u64,
    ) -> FwdStages {
        FwdStages {
            load,
            plane_expand,
            planes,
            plane_vec,
            mask_dma,
            out_dma,
        }
    }

    #[test]
    fn forward_models_trail_the_reduction_under_the_expansions() {
        // One band, no mask: load 10, two plane expansions of 5, vector
        // passes of 3, out DMA 4. Expansions end at 20; the chain
        // (fill + 2 reductions) trails them, finishing at 24 — the
        // exposed cost is one pass past the last expansion plus the
        // queued fill — and the flush lands at 28.
        let b = fs(10, 5, 2, 3, 0, 4);
        assert_eq!(forward_serial_makespan(&[b]), 28);
        // Two such bands serially: band 1's chain re-queues behind the
        // flush (fill WAR on the out DMA), ending at 52; flush at 56.
        assert_eq!(forward_serial_makespan(&[b, b]), 56);
    }

    #[test]
    fn forward_flush_interleaves_mask_dmas_with_compares() {
        // Single band with a mask: expansions end at 20 (2 planes of 9
        // after a load of 2), reduction at 23. Each mask DMA (10)
        // RAW-waits only on its own compare (3): cmp0 at 26 gates DMA0
        // (26..36), cmp1 at 29 is ready before DMA1 (36..46), out DMA
        // lands at 50 — NOT reduction + all compares + all DMAs (53).
        let b = fs(2, 9, 2, 3, 10, 4);
        assert_eq!(forward_serial_makespan(&[b]), 50);
    }

    fn prob(n: usize, c1: usize, hw: usize) -> PoolProblem {
        PoolProblem::new(n, c1, hw, hw, dv_tensor::PoolParams::K3S2).unwrap()
    }

    #[test]
    fn choose_partition_covers_the_three_axes() {
        let sched = Schedule::default();
        // One big plane, 32 cores: only a band split draws the chip.
        assert_eq!(
            choose_partition(&prob(1, 1, 147), false, 32, &sched, None),
            PartitionAxis::PerRowBand
        );
        // Plenty of c1 slices and N > 1: the batch fold keeps every core
        // busy with fewer programs.
        assert_eq!(
            choose_partition(&prob(4, 64, 36), false, 32, &sched, None),
            PartitionAxis::PerC1
        );
        // N > 1 but c1 < cores: folding to 4 programs would idle 28
        // cores — the per-plane split wins.
        assert_eq!(
            choose_partition(&prob(8, 4, 36), false, 32, &sched, None),
            PartitionAxis::PerPlane
        );
        // Single core: occupancy is moot, the fold's consolidation wins
        // (matches the legacy fold_batches gate).
        assert_eq!(
            choose_partition(&prob(4, 2, 36), false, 1, &sched, None),
            PartitionAxis::PerC1
        );
        // Enough planes to cover the cores: no reason to band-split.
        assert_eq!(
            choose_partition(&prob(1, 32, 73), false, 32, &sched, None),
            PartitionAxis::PerPlane
        );
    }

    #[test]
    fn choose_partition_never_bands_padded_geometry() {
        let padded =
            dv_tensor::PoolParams::with_padding((3, 3), (2, 2), dv_tensor::Padding::uniform(1));
        let p = PoolProblem::new(1, 1, 56, 56, padded).unwrap();
        // Banding is infeasible (padding forbids multi-band planes), so
        // even a 32-core chip must stay per-plane.
        assert_eq!(
            choose_partition(&p, false, 32, &Schedule::default(), None),
            PartitionAxis::PerPlane
        );
    }

    #[test]
    fn scarce_shared_bandwidth_discourages_wide_splits() {
        let sched = Schedule::default();
        let p = prob(1, 1, 147);
        // Independent memory: band-split across all 32 cores.
        assert_eq!(
            choose_partition(&p, false, 32, &sched, None),
            PartitionAxis::PerRowBand
        );
        // A starved shared pipe (1 B/cycle): 32 concurrent streams pay a
        // 32x contention multiplier plus the halo reloads, and the
        // estimate keeps the plane whole.
        assert_eq!(
            choose_partition(&p, false, 32, &sched, Some(1)),
            PartitionAxis::PerPlane
        );
    }

    #[test]
    fn vec_sat_counts_issue_chunks_and_tail() {
        let cost = CostModel::ascend910_like();
        assert_eq!(vec_sat(&cost, 0), 0);
        // 128 elems: one issue, one repeat.
        assert_eq!(vec_sat(&cost, 128), cost.issue_overhead + 1);
        // 129 elems: full block + tail issue.
        assert_eq!(vec_sat(&cost, 129), 2 * cost.issue_overhead + 2);
        // MAX_REPEAT blocks + 1: second chunk issue.
        let elems = (MAX_REPEAT as usize + 1) * 128;
        assert_eq!(
            vec_sat(&cost, elems),
            2 * cost.issue_overhead + (MAX_REPEAT as u64 + 1)
        );
    }

    fn choice(p: &PoolProblem, mask: bool) -> AlgorithmChoice {
        choose_forward_algorithm(
            p,
            mask,
            false,
            1,
            &Schedule::default(),
            Capacities::ASCEND910,
            None,
        )
    }

    #[test]
    fn forward_tuner_reproduces_the_fig8_crossover() {
        // Fig. 8a: at stride (1, 1) the direct reduction's full-mask
        // Kw-repeat row chains beat the Im2col expansion tax...
        let s1 =
            PoolProblem::new(1, 1, 56, 56, dv_tensor::PoolParams::new((3, 3), (1, 1))).unwrap();
        assert_eq!(choice(&s1, false).winner(), Some(Algorithm::Direct));
        // ...and at stride (2, 2) the 16-lane issue-per-element pattern
        // loses to the saturated Im2col reduction (Fig. 8 crossover).
        let s2 = PoolProblem::new(1, 1, 56, 56, dv_tensor::PoolParams::K3S2).unwrap();
        assert_eq!(choice(&s2, false).winner(), Some(Algorithm::Im2col));
        // The ranking is sorted ascending and exposes both predictions.
        let c = choice(&s2, false);
        assert!(c.ranking.windows(2).all(|w| w[0].cycles <= w[1].cycles));
        assert!(c.predicted(Algorithm::Direct) > c.predicted(Algorithm::Im2col));
    }

    #[test]
    fn forward_tuner_drops_infeasible_candidates() {
        // Padding: only Im2col can lower it, so Direct must be absent.
        let padded =
            dv_tensor::PoolParams::with_padding((3, 3), (2, 2), dv_tensor::Padding::uniform(1));
        let p = PoolProblem::new(1, 1, 56, 56, padded).unwrap();
        let c = choice(&p, false);
        assert_eq!(c.predicted(Algorithm::Direct), None);
        assert_eq!(c.winner(), Some(Algorithm::Im2col));
        // Ceil-mode overhang: 6x6 K3S2+ceil rounds up to 3x3 outputs and
        // reads one synthesised row/column past the input — Im2col only.
        let ceil = dv_tensor::PoolParams::K3S2.with_ceil_mode(true);
        let p = PoolProblem::new(1, 1, 6, 6, ceil).unwrap();
        assert_eq!(p.out_dims(), (3, 3));
        let c = choice(&p, false);
        assert_eq!(c.predicted(Algorithm::Direct), None);
        assert_eq!(c.winner(), Some(Algorithm::Im2col));
        // N = 1: no fold candidate.
        assert_eq!(choice(&p, false).predicted(Algorithm::Fold), None);
    }

    #[test]
    fn forward_tuner_folds_batches_when_occupancy_survives() {
        // The choose_partition PerC1 scenario: plenty of c1 slices, N > 1
        // — the fold's consolidated dispatch wins the ranking too.
        let p = prob(4, 64, 36);
        let c = choose_forward_algorithm(
            &p,
            false,
            false,
            32,
            &Schedule::default(),
            Capacities::ASCEND910,
            None,
        );
        assert_eq!(c.winner(), Some(Algorithm::Fold));
    }

    #[test]
    fn backward_tuner_prefers_col2im_on_the_paper_shapes() {
        // Fig. 7c's point: the scattered VAdd merge issues Kh*Kw*Oh*Ow
        // unrepeated 16-lane adds; Col2Im replaces them with Kh*Kw
        // hardware-repeated issues. The tuner must see that.
        let p = prob(1, 1, 73);
        let c = choose_backward_algorithm(
            &p,
            true,
            1,
            &Schedule::default(),
            Capacities::ASCEND910,
            None,
        );
        assert_eq!(c.winner(), Some(Algorithm::Im2col));
        assert!(c.predicted(Algorithm::Direct) > c.predicted(Algorithm::Im2col));
    }

    #[test]
    fn algorithm_labels_and_lowering_map() {
        assert_eq!(Algorithm::Direct.label(), "direct");
        assert_eq!(Algorithm::Im2col.label(), "im2col");
        assert_eq!(Algorithm::Fold.label(), "fold");
        assert_eq!(Algorithm::Direct.forward_impl(), ForwardImpl::Standard);
        assert_eq!(Algorithm::Fold.forward_impl(), ForwardImpl::Im2col);
        assert_eq!(Algorithm::Direct.merge_impl(), MergeImpl::VAdd);
        assert_eq!(Algorithm::Im2col.merge_impl(), MergeImpl::Col2Im);
    }

    #[test]
    fn cycle_floors_never_exceed_measured_cycles() {
        use crate::maxpool::build_forward;
        use crate::maxpool::forward::Reduction;
        let p = prob(1, 2, 36);
        let gm_in = 0;
        let gm_out = p.in_bytes();
        for cost in [CostModel::ascend910_like(), CostModel::single_issue()] {
            for impl_ in [ForwardImpl::Standard, ForwardImpl::Im2col] {
                let programs = build_forward(
                    &p,
                    impl_,
                    Reduction::Max,
                    gm_in,
                    gm_out,
                    Capacities::ASCEND910,
                )
                .unwrap();
                let chip = dv_sim::Chip {
                    cores: 2,
                    cost,
                    ..dv_sim::Chip::ascend910()
                };
                let mut image = vec![0u8; p.in_bytes() + p.out_bytes()];
                let run = chip.run(&mut image, &programs).unwrap();
                let floor = chip_cycle_floor(&programs, chip.cores, &cost);
                assert!(
                    floor <= run.cycles,
                    "floor {floor} exceeds measured {} ({impl_:?}, {:?})",
                    run.cycles,
                    cost.issue_model
                );
                // The floor is not vacuous: it must carry real charges.
                assert!(floor > 0);
            }
        }
    }

    #[test]
    fn segment_fusion_prefers_algebraic_then_handoff() {
        let caps = Capacities::ASCEND910;
        assert_eq!(
            choose_segment_fusion(true, true, caps.ub / 2, caps),
            SegmentFusion::Algebraic
        );
        assert_eq!(
            choose_segment_fusion(false, true, caps.ub / 2, caps),
            SegmentFusion::Handoff
        );
        // The handoff working set exactly filling the UB is still legal.
        assert_eq!(
            choose_segment_fusion(false, true, caps.ub, caps),
            SegmentFusion::Handoff
        );
    }

    #[test]
    fn segment_fusion_declines_to_layered() {
        let caps = Capacities::ASCEND910;
        // Consumer cannot be emitted -> layered.
        assert_eq!(
            choose_segment_fusion(false, false, 0, caps),
            SegmentFusion::Layered
        );
        // Working set exceeds the UB by one byte -> layered.
        assert_eq!(
            choose_segment_fusion(false, true, caps.ub + 1, caps),
            SegmentFusion::Layered
        );
        assert_eq!(SegmentFusion::Layered.label(), "layered");
        assert_eq!(SegmentFusion::Algebraic.label(), "algebraic");
        assert_eq!(SegmentFusion::Handoff.label(), "handoff");
    }

    #[test]
    fn handoff_saving_is_two_round_trips() {
        let cost = CostModel::ascend910_like();
        let bytes = 64 * 1024;
        assert_eq!(
            segment_handoff_saving(&cost, bytes),
            2 * (cost.issue_overhead + cost.move_cycles(bytes))
        );
        assert!(segment_handoff_saving(&cost, bytes) > 0);
    }
}
