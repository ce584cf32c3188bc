//! Multi-core execution: an Ascend-910-like chip with up to 32 AI Cores.
//!
//! "If multiple AI Cores are available, multiple tiles can be processed in
//! parallel" (paper, Section V-A) — the lowering layer partitions work
//! (over `C1`, row bands, or batch elements) into one program per tile and
//! the chip executes them round-robin over its cores, each core running
//! its share sequentially. The reported cycle count is the maximum over
//! cores, plus a per-tile dispatch charge and — under
//! [`MemoryModel::SharedBandwidth`] — the extra completion time each
//! core's MTE streams lose to L2/HBM contention (see
//! [`crate::contention`]).
//!
//! Concurrency model: a run's global memory is a [`LentGm`], the same
//! `len`-byte address space as a flat image made of regions the caller
//! lends at fixed offsets — read-only inputs, writable results — and
//! zeros elsewhere, so the chip reads the caller's tensors in place
//! ([`Chip::run_lent`]; [`Chip::run`] and [`Chip::run_declared`] lend one
//! flat image whole). Every core reads the regions through a shared
//! borrow and writes into copy-on-write pages of its own, which it also
//! reads back through (real cores share GM, but our kernels never
//! communicate through GM mid-run: a program sees its own core's earlier
//! writes, never another core's). The active cores run on
//! `min(active cores, available_parallelism())` scoped host threads under
//! [`Backend::Threaded`] and on the calling thread otherwise; each host
//! thread reuses one scratchpad set, re-zeroed up to its high-water marks
//! between simulated cores, and a panic on any host thread ends the run
//! as [`SimError::HostPanic`]. After all cores join, the byte ranges each
//! program was observed writing are copied from its core's pages into
//! the writable regions. Three safety nets guard the merge:
//!
//! 1. **Pre-flight disjointness.** Each program's *declared* GM output
//!    ranges (its `Move`-to-GM instructions) are checked pairwise-disjoint
//!    across programs with an active-end sweep — overlapping writes from
//!    different cores are a lowering bug ([`SimError::GmOverlap`]).
//! 2. **Pre-flight coverage.** Every declared write span inside GM must
//!    lie in writable lent regions ([`SimError::UnlentGmWrite`]
//!    otherwise), so no merged byte can land in an input or in nothing.
//! 3. **Execution cross-check.** The write spans each core *actually
//!    observed* (from `ExecInfo`) are verified to fall inside the
//!    program's declared ranges ([`SimError::UndeclaredGmWrite`]
//!    otherwise), and the merge-back copies exactly the observed spans —
//!    so a GM write the static scan failed to predict can never be
//!    silently dropped.
//!
//! **Halo-merge declarations.** Backward row-band shards whose kernel
//! exceeds the stride both contribute to the dx rows at their seam, which
//! the disjointness rule would reject. [`Chip::run_declared`] admits a
//! richer [`GmDeclaration`]: disjoint *finalized* spans (merged back by
//! copy, exactly as above) plus typed [`HaloSpan`]s — each names a
//! privately-staged GM strip the program wrote with ordinary `Move`s and
//! the strided destination region it must be *combined* into. Staging
//! strips join the disjointness check and the execution cross-check like
//! finalized spans; destinations may overlap other programs' finalized
//! rows (that is the point); both ends must be lent writable. After every
//! core joins and all observed writes are copied back, the halo spans of
//! **all** programs are folded into GM one at a time in ascending
//! `(seq, program, span)` order — a pinned global accumulation order, so
//! the lowering can reproduce a reference summation exactly (f16 addition is commutative but not
//! associative; the fold applies one binary op per element per span). The
//! fold itself is host-side bookkeeping outside simulated time, the same
//! fiction as the copy merge-back; the staging traffic that feeds it was
//! paid for by the real `Move` instructions that wrote the strips.

use crate::buffers::{BufferPeaks, SimError};
use crate::contention::{contention_stalls, l2_hit_lines};
pub use crate::contention::{L2Model, MemoryModel};
use crate::core::AiCore;
use crate::cost::{Backend, Capacities, CostModel};
use crate::counters::HwCounters;
use crate::exec::footprint;
use crate::gm::{GmPages, LentGm};
use crate::lifetimes::BufferLifetimes;
use crate::trace::{Trace, TraceConfig};
use dv_fp16::F16;
use dv_isa::{BufferId, Instr, Program};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// How a halo span's staged bytes combine into their destination: f16
/// `dst += src` element-wise, or f16 `dst = max(dst, src)` (the
/// compare-merge used by mask-style merges; NaN handling follows
/// [`F16::max`], matching the vector unit's `vmax`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HaloOp {
    /// `dst = dst + src` per f16 element.
    Add,
    /// `dst = max(dst, src)` per f16 element.
    Max,
}

/// One overlapping contribution a program makes to GM rows another
/// program finalizes: a staged source strip (contiguous-ish, written by
/// the program's own `Move`s into a private GM scratch region) and the
/// strided destination it folds into at merge-back.
///
/// The strip is `blocks` blocks of `block_bytes` bytes; block `b` reads
/// `src + b*src_stride` and folds into `dst + b*dst_stride`. For the
/// backward halo strips this scatters one pooling-window row: a block is
/// one C0 row (32 bytes), `src_stride == block_bytes` (the staging copy
/// is dense) and `dst_stride` is `stride_w` rows (the output pixels the
/// window row touches).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HaloSpan {
    /// GM byte offset of the staged source strip (must lie in a region
    /// private to this program — it joins the disjointness check).
    pub src: usize,
    /// GM byte offset of the first destination block.
    pub dst: usize,
    /// Number of blocks.
    pub blocks: usize,
    /// Bytes per block (a whole number of f16 elements).
    pub block_bytes: usize,
    /// Source step between consecutive blocks.
    pub src_stride: usize,
    /// Destination step between consecutive blocks.
    pub dst_stride: usize,
    /// How the staged bytes combine into the destination.
    pub op: HaloOp,
    /// Global fold position: all halo spans of a run are applied in
    /// ascending `(seq, program index, span index)` order. The backward
    /// lowering sets `seq = kh*KW + kw` so later-band contributions land
    /// in the reference col2im's kernel-major accumulation order.
    pub seq: u64,
}

impl HaloSpan {
    /// The staged source bytes `[start, end)` this span claims.
    pub fn src_span(&self) -> (usize, usize) {
        let len = (self.blocks.max(1) - 1) * self.src_stride + self.block_bytes;
        (self.src, self.src + len)
    }

    /// The destination bytes `[start, end)` this span folds into.
    pub fn dst_span(&self) -> (usize, usize) {
        let len = (self.blocks.max(1) - 1) * self.dst_stride + self.block_bytes;
        (self.dst, self.dst + len)
    }
}

/// One program's declared GM footprint for a [`Chip::run_declared`] run:
/// finalized spans `(offset, len)` it owns outright (copied back,
/// disjoint across programs) plus halo spans it contributes to rows other
/// programs own (folded back in pinned order).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GmDeclaration {
    /// Disjointly-owned output spans, `(byte offset, byte len)` — the
    /// same shape [`Chip::run`] derives from the program's GM `Move`s.
    pub finalized: Vec<(usize, usize)>,
    /// Overlapping contributions, staged privately and folded at
    /// merge-back.
    pub halos: Vec<HaloSpan>,
}

impl GmDeclaration {
    /// A halo-free declaration.
    pub fn plain(finalized: Vec<(usize, usize)>) -> GmDeclaration {
        GmDeclaration {
            finalized,
            halos: Vec::new(),
        }
    }

    /// What [`Chip::run`] derives for every program from its static
    /// GM-write scan: a halo-free declaration of the ranges the program's
    /// `Move`s to GM write.
    pub fn scan(program: &Program) -> GmDeclaration {
        GmDeclaration::plain(gm_write_ranges(program))
    }

    /// Every GM range this program claims to *write* (finalized spans
    /// plus halo staging strips), as `(offset, len)` — the set the
    /// cross-program disjointness check and the execution cross-check
    /// run against. Halo *destinations* are deliberately absent: they
    /// overlap other programs' finalized rows by design and are only
    /// touched by the host-side fold, never by the program's own stores.
    pub fn claimed(&self) -> Vec<(usize, usize)> {
        let mut rs = self.finalized.clone();
        for h in &self.halos {
            let (s, e) = h.src_span();
            rs.push((s, e - s));
        }
        rs
    }
}

/// Pre-flight validation of halo spans: geometry must be well-formed and
/// both ends in bounds, before any core executes.
fn validate_halos(declared: &[GmDeclaration], gm_len: usize) -> Result<(), SimError> {
    for (pi, d) in declared.iter().enumerate() {
        for h in &d.halos {
            if h.blocks == 0 || h.block_bytes == 0 {
                return Err(SimError::HaloMalformed {
                    program: pi,
                    reason: "zero-sized halo span",
                });
            }
            if h.block_bytes % 2 != 0 {
                return Err(SimError::HaloMalformed {
                    program: pi,
                    reason: "block_bytes is not a whole number of f16 elements",
                });
            }
            if h.blocks > 1 && (h.src_stride < h.block_bytes || h.dst_stride < h.block_bytes) {
                return Err(SimError::HaloMalformed {
                    program: pi,
                    reason: "stride shorter than the block it steps over",
                });
            }
            let (s0, s1) = h.src_span();
            if s1 > gm_len {
                return Err(SimError::HaloOutOfBounds {
                    program: pi,
                    end: "src",
                    span: (s0, s1),
                    capacity: gm_len,
                });
            }
            let (d0, d1) = h.dst_span();
            if d1 > gm_len {
                return Err(SimError::HaloOutOfBounds {
                    program: pi,
                    end: "dst",
                    span: (d0, d1),
                    capacity: gm_len,
                });
            }
        }
    }
    Ok(())
}

/// Pre-flight coverage: refuse a declared write span — finalized, halo
/// staging or halo destination — that `gm`'s writable regions do not
/// cover, before any core executes. Bytes past the end of GM are left to
/// the moves that would touch them, which fail as out of bounds exactly
/// as on a flat image.
fn check_lent(declared: &[GmDeclaration], gm: &LentGm<'_>) -> Result<(), SimError> {
    for (pi, d) in declared.iter().enumerate() {
        let finalized = d
            .finalized
            .iter()
            .map(|&(off, len)| ("finalized", (off, off + len)));
        let halos = d
            .halos
            .iter()
            .flat_map(|h| [("halo src", h.src_span()), ("halo dst", h.dst_span())]);
        for (kind, (start, end)) in finalized.chain(halos) {
            if !gm.writable_covers(start, end.min(gm.len())) {
                return Err(SimError::UnlentGmWrite {
                    program: pi,
                    kind,
                    span: (start, end),
                });
            }
        }
    }
    Ok(())
}

/// Fold one halo span into global memory (host-side, after all cores
/// join): one binary f16 op per element, block by block.
fn apply_halo(gm: &mut LentGm<'_>, h: &HaloSpan) {
    let (mut src, mut dst) = (vec![0; h.block_bytes], vec![0; h.block_bytes]);
    for b in 0..h.blocks {
        gm.read(h.src + b * h.src_stride, &mut src);
        gm.read(h.dst + b * h.dst_stride, &mut dst);
        for (d, s) in dst.chunks_exact_mut(2).zip(src.chunks_exact(2)) {
            let s = F16::from_bits(u16::from_le_bytes([s[0], s[1]]));
            let v = F16::from_bits(u16::from_le_bytes([d[0], d[1]]));
            let r = match h.op {
                HaloOp::Add => v + s,
                HaloOp::Max => v.max(s),
            };
            d.copy_from_slice(&r.to_bits().to_le_bytes());
        }
        gm.write(h.dst + b * h.dst_stride, &dst);
    }
}

/// A simulated multi-core chip.
#[derive(Clone, Debug)]
pub struct Chip {
    /// Number of AI Cores (Ascend 910: 32).
    pub cores: usize,
    /// Cost model shared by all cores.
    pub cost: CostModel,
    /// Scratchpad capacities per core.
    pub caps: Capacities,
    /// Per-instruction trace recording (off by default).
    pub trace: TraceConfig,
    /// How concurrent cores share the path to global memory
    /// ([`MemoryModel::Independent`] by default — the legacy behaviour).
    pub memory: MemoryModel,
}

/// The result of a chip run.
#[derive(Clone, Debug)]
pub struct ChipRun {
    /// Counters per physical core (index parallel to `core_cycles` and
    /// `traces`), dispatch included.
    pub per_core: Vec<HwCounters>,
    /// Cycles per core including dispatch overhead and (under a shared
    /// memory model) contention stalls.
    pub core_cycles: Vec<u64>,
    /// The chip-level cycle count: max over cores (cores run in
    /// parallel).
    pub cycles: u64,
    /// Sum of all counters — total work, for utilization statistics.
    pub total: HwCounters,
    /// Per-core instruction traces (empty unless the chip's
    /// [`TraceConfig`] enables tracing). `Trace::core` holds the physical
    /// core id.
    pub traces: Vec<Trace>,
    /// Scratchpad occupancy high-water marks, max over all cores.
    pub peaks: BufferPeaks,
    /// Per-core buffer live ranges (empty unless tracing was enabled —
    /// lifetime recording is gated with the trace). Index parallel to
    /// `traces`; `BufferLifetimes::core` holds the physical core id.
    pub lifetimes: Vec<BufferLifetimes>,
}

impl ChipRun {
    /// Export this run's traces as Chrome trace-event JSON (empty trace
    /// list when tracing was off — the JSON is still valid). Buffer live
    /// ranges are included as async "live-range" slices per scratchpad
    /// row.
    pub fn chrome_trace_json(&self) -> String {
        crate::trace::chrome_trace_json_with_lifetimes(&self.traces, &self.lifetimes)
    }

    /// Per-(unit, mnemonic) cycle breakdown aggregated over all cores.
    pub fn breakdown(&self) -> crate::trace::Breakdown {
        crate::trace::Breakdown::from_traces(&self.traces)
    }
}

impl Chip {
    /// An Ascend-910-like chip: 32 cores, default cost model, independent
    /// memory paths (opt into contention with [`Chip::with_memory`]).
    pub fn ascend910() -> Chip {
        Chip {
            cores: 32,
            cost: CostModel::ascend910_like(),
            caps: Capacities::ASCEND910,
            trace: TraceConfig::OFF,
            memory: MemoryModel::Independent,
        }
    }

    /// A chip with a custom core count and cost model.
    pub fn new(cores: usize, cost: CostModel) -> Chip {
        assert!(cores > 0, "a chip needs at least one core");
        Chip {
            cores,
            cost,
            caps: Capacities::ASCEND910,
            trace: TraceConfig::OFF,
            memory: MemoryModel::Independent,
        }
    }

    /// The same chip with a different trace configuration.
    pub fn with_trace(mut self, trace: TraceConfig) -> Chip {
        self.trace = trace;
        self
    }

    /// The same chip with a different memory-hierarchy model.
    pub fn with_memory(mut self, memory: MemoryModel) -> Chip {
        self.memory = memory;
        self
    }

    /// The same chip with a different host execution backend. Backends
    /// only change host wall-clock: simulated results, counters, traces,
    /// and peaks are identical across all of them.
    pub fn with_backend(mut self, backend: Backend) -> Chip {
        self.cost = self.cost.with_backend(backend);
        self
    }

    /// Execute `programs` (one per tile) over the cores, reading and
    /// updating the global-memory image `gm` in place (lent whole and
    /// writable, see [`Chip::run_lent`]).
    pub fn run(&self, gm: &mut [u8], programs: &[Program]) -> Result<ChipRun, SimError> {
        // Recover each program's declared GM output ranges up front —
        // halo-free, so disjointness is exactly the legacy invariant.
        let declared: Vec<GmDeclaration> = programs.iter().map(GmDeclaration::scan).collect();
        self.run_declared(gm, programs, &declared)
    }

    /// [`Chip::run`] with explicit per-program [`GmDeclaration`]s — the
    /// entry point for lowerings whose shards overlap on purpose
    /// (sub-plane backward row bands); see [`Chip::run_lent`].
    pub fn run_declared(
        &self,
        gm: &mut [u8],
        programs: &[Program],
        declared: &[GmDeclaration],
    ) -> Result<ChipRun, SimError> {
        self.run_lent(&mut LentGm::whole(gm), programs, declared)
    }

    /// Execute `programs` over the cores on the regions lent in `gm`,
    /// merging their results into its writable regions. `declared[j]`
    /// governs program `j` ([`GmDeclaration::scan`] derives the halo-free
    /// one): its finalized spans and halo staging strips must be disjoint
    /// from every other program's ([`SimError::GmOverlap`]), every
    /// declared write span must lie in writable regions
    /// ([`SimError::UnlentGmWrite`]), execution-observed writes must stay
    /// inside the declaration ([`SimError::UndeclaredGmWrite`]), and after
    /// the copy merge-back every halo span folds into GM in ascending
    /// `(seq, program, span)` order.
    pub fn run_lent(
        &self,
        gm: &mut LentGm<'_>,
        programs: &[Program],
        declared: &[GmDeclaration],
    ) -> Result<ChipRun, SimError> {
        assert_eq!(
            programs.len(),
            declared.len(),
            "one GmDeclaration per program"
        );
        validate_halos(declared, gm.len())?;
        let claimed: Vec<Vec<(usize, usize)>> =
            declared.iter().map(GmDeclaration::claimed).collect();
        check_disjoint(&claimed)?;
        check_lent(declared, gm)?;
        self.run_with_declared(gm, programs, &claimed, declared)
    }

    /// The body of [`Chip::run_lent`] with the claimed merge-back ranges
    /// made explicit. Split out so tests can feed a claim list that
    /// disagrees with what execution does and watch the cross-check fire.
    fn run_with_declared(
        &self,
        gm: &mut LentGm<'_>,
        programs: &[Program],
        declared: &[Vec<(usize, usize)>],
        halo_decls: &[GmDeclaration],
    ) -> Result<ChipRun, SimError> {
        // Round-robin programs onto cores: core `c` runs programs `c`,
        // `c + cores`, ..., so exactly the first `active` cores have work.
        let active = self.cores.min(programs.len());

        struct CoreResult {
            counters: HwCounters,
            cycles: u64,
            /// Observed GM write spans, checked against the declarations,
            /// and the pages they were written into.
            writes: Vec<(usize, usize)>,
            pages: GmPages,
            /// Coalesced GM read spans — the L2 locality stage's input
            /// (unused, and cheap, under the other memory models).
            reads: Vec<(usize, usize)>,
            trace: Trace,
            lifetimes: BufferLifetimes,
            peaks: BufferPeaks,
        }

        // Simulated core `core_id` on `core`, fresh or recycled; shared by
        // every backend so the choice of host threads cannot fork
        // simulated semantics.
        let run_core = |core: &mut AiCore<'_>, core_id: usize| -> Result<CoreResult, SimError> {
            let mut dispatch = 0u64;
            let mut writes = Vec::new();
            for j in (core_id..programs.len()).step_by(self.cores) {
                core.run(&programs[j])?;
                dispatch += self.cost.core_dispatch;
                // Cross-check the write spans execution observed against
                // the declaration; merge-back copies exactly these.
                let observed = coalesce(core.take_gm_writes());
                let allowed = coalesce(
                    declared[j]
                        .iter()
                        .map(|&(off, len)| (off, off + len))
                        .collect(),
                );
                for &(start, end) in &observed {
                    if !allowed.iter().any(|&(a, b)| a <= start && end <= b) {
                        return Err(SimError::UndeclaredGmWrite {
                            program: j,
                            observed: (start, end),
                        });
                    }
                }
                writes.extend(observed);
            }
            let counters = core.counters().clone();
            let cycles = counters.cycles + dispatch;
            let mut trace = core.take_trace();
            trace.core = core_id;
            let mut lifetimes = core.take_lifetimes();
            lifetimes.core = core_id;
            Ok(CoreResult {
                counters,
                cycles,
                writes,
                pages: core.take_gm_pages(),
                reads: coalesce(core.take_gm_reads()),
                trace,
                lifetimes,
                peaks: *core.buffers().peaks(),
            })
        };

        // `Threaded` spreads the active cores over as many host threads
        // as the host has cores, the calling thread included; the other
        // backends run them all on the calling thread. Either way the
        // lowest failing core's error wins, so results never depend on
        // the host.
        let hosts = match self.cost.backend {
            Backend::Threaded => {
                let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
                active.min(cpus).max(1)
            }
            Backend::Scalar | Backend::Sliced => 1,
        };
        // Host thread `t` runs simulated cores `t`, `t + hosts`, ... on
        // one reused scratchpad set, stopping at its first failure (no
        // later core of its own can be the lowest failing one). The set
        // serves any of the programs, so it is sized to all of them.
        let footprint = footprint(programs, self.caps);
        let gm_ref: &LentGm<'_> = gm;
        let mut active = fan_out(hosts, |first, out| {
            let mut core = AiCore::on_lent_gm(self.cost, self.caps, footprint, gm_ref);
            core.set_trace(self.trace);
            for (k, core_id) in (first..active).step_by(hosts).enumerate() {
                if k > 0 {
                    core.recycle();
                }
                let result = run_core(&mut core, core_id);
                let failed = result.is_err();
                out.push((core_id, result));
                if failed {
                    break;
                }
            }
        })?;

        // Memory-hierarchy stage: book the completion time each core's
        // MTE streams lose to the shared L2/HBM path. Independent cores
        // lose nothing; this is exactly the legacy behaviour. Under the
        // L2 model, cross-core read reuse is subtracted from each core's
        // HBM demand first (`l2_hits`/`l2_miss_stalls` booking;
        // `contention_stalls` stays 0 so the accountings never mix).
        let (stalls, l2_hits): (Vec<u64>, Option<Vec<(u64, u64)>>) = match self.memory {
            MemoryModel::Independent => (vec![0; active.len()], None),
            MemoryModel::SharedBandwidth { bytes_per_cycle } => {
                let demands: Vec<(u64, u64)> = active
                    .iter()
                    .map(|r| (r.cycles, r.counters.gm_bytes))
                    .collect();
                (
                    contention_stalls(&demands, bytes_per_cycle, self.cost.move_bytes_per_cycle),
                    None,
                )
            }
            MemoryModel::SharedBandwidthL2 {
                bytes_per_cycle,
                l2,
            } => {
                let reads: Vec<&[(usize, usize)]> =
                    active.iter().map(|r| r.reads.as_slice()).collect();
                let hits = l2_hit_lines(&reads, l2.line, l2.capacity);
                let demands: Vec<(u64, u64)> = active
                    .iter()
                    .zip(&hits)
                    .map(|(r, &(_, hit_bytes))| {
                        (r.cycles, r.counters.gm_bytes.saturating_sub(hit_bytes))
                    })
                    .collect();
                (
                    contention_stalls(&demands, bytes_per_cycle, self.cost.move_bytes_per_cycle),
                    Some(hits),
                )
            }
        };

        let mut per_core = Vec::new();
        let mut core_cycles = Vec::new();
        let mut traces = Vec::new();
        let mut lifetimes = Vec::new();
        let mut total = HwCounters::default();
        let mut peaks = BufferPeaks::default();
        let mut max_cycles = 0u64;
        for (i, (mut r, stall)) in active.drain(..).zip(stalls).enumerate() {
            for &(start, end) in &r.writes {
                r.pages.copy_span_into(gm, start, end);
            }
            match &l2_hits {
                Some(hits) => {
                    r.counters.l2_hits = hits[i].0;
                    r.counters.l2_miss_stalls = stall;
                    r.trace.l2_stalls = stall;
                }
                None => {
                    r.counters.contention_stalls = stall;
                    r.trace.contention = stall;
                }
            }
            max_cycles = max_cycles.max(r.cycles + stall);
            total.merge(&r.counters);
            peaks.merge_max(&r.peaks);
            core_cycles.push(r.cycles + stall);
            per_core.push(r.counters);
            if self.trace.enabled {
                traces.push(r.trace);
                lifetimes.push(r.lifetimes);
            }
        }

        // Halo merge-back: with every program's finalized and staged
        // bytes copied into `gm`, fold all halo spans in ascending
        // `(seq, program, span)` order — the single pinned accumulation
        // order multi-core bit-exactness hangs on.
        let mut folds: Vec<(u64, usize, usize)> = Vec::new();
        for (pi, d) in halo_decls.iter().enumerate() {
            for si in 0..d.halos.len() {
                folds.push((d.halos[si].seq, pi, si));
            }
        }
        folds.sort_unstable();
        for &(_, pi, si) in &folds {
            apply_halo(gm, &halo_decls[pi].halos[si]);
        }
        Ok(ChipRun {
            per_core,
            core_cycles,
            cycles: max_cycles,
            total,
            traces,
            peaks,
            lifetimes,
        })
    }
}

/// Results of simulated cores, each tagged with its core id.
type CoreResults<T> = Vec<(usize, Result<T, SimError>)>;

/// Run one share of simulated cores on each of `hosts` host threads, the
/// calling thread included. `share(t, out)` runs host thread `t`'s
/// cores `t`, `t + hosts`, ... in order, pushing each core's result to
/// `out` and stopping after its first failure. A share that panics is
/// caught (as `dv-serve` catches a panicking job) and ends as a typed
/// [`SimError::HostPanic`] for the core it was on: the one after its
/// last pushed result. Returns every core's result in core order, or
/// the lowest failing core's error — the same on every host.
fn fan_out<T: Send>(
    hosts: usize,
    share: impl Fn(usize, &mut CoreResults<T>) + Sync,
) -> Result<Vec<T>, SimError> {
    let run_share = |t: usize| {
        let mut out = Vec::new();
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| share(t, &mut out))) {
            let core = out.last().map_or(t, |&(c, _)| c + hosts);
            let message = panic_message(payload.as_ref());
            out.push((core, Err(SimError::HostPanic { core, message })));
        }
        out
    };
    let mut results = std::thread::scope(|s| {
        let run_share = &run_share;
        let handles: Vec<_> = (1..hosts).map(|t| s.spawn(move || run_share(t))).collect();
        let mut all = run_share(0);
        for h in handles {
            // `run_share` catches every panic of its share.
            all.extend(h.join().unwrap_or_else(|payload| resume_unwind(payload)));
        }
        all
    });
    results.sort_unstable_by_key(|&(core, _)| core);
    results.into_iter().map(|(_, r)| r).collect()
}

/// The message a panic was raised with.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|msg| msg.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "a panic without a message".to_string())
}

/// The byte ranges a program declares it will write to global memory (its
/// `Move` instructions with a GM destination — the only GM-writing
/// instruction the ISA admits; execution cross-checks this claim against
/// the write spans actually observed).
fn gm_write_ranges(p: &Program) -> Vec<(usize, usize)> {
    p.instrs()
        .iter()
        .filter_map(|i| match i {
            Instr::Move(m) if m.dst.buffer == BufferId::Gm => Some((m.dst.offset, m.bytes)),
            _ => None,
        })
        .collect()
}

/// Sort half-open `(start, end)` spans and merge overlapping or abutting
/// neighbours; empty spans vanish.
fn coalesce(mut spans: Vec<(usize, usize)>) -> Vec<(usize, usize)> {
    spans.retain(|&(s, e)| e > s);
    spans.sort_unstable();
    let mut out: Vec<(usize, usize)> = Vec::with_capacity(spans.len());
    for (s, e) in spans {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

/// Check that no two *programs* write overlapping GM ranges (overlap
/// within one program is fine — a program may legally rewrite its own
/// output).
///
/// Active-end sweep over the ranges in start order: `best` is the
/// processed range with the maximum end, `alt` the maximum-end processed
/// range owned by a *different* program than `best` (so any processed
/// range of any other owner ends at or before `alt.1`). A new range
/// conflicts iff it starts before `best`'s end with a different owner, or
/// before `alt`'s end otherwise. A plain `windows(2)` compare misses
/// containment: `(0,100,p0), (10,20,p0), (30,40,p1)` sorts the inner
/// same-program range between the container and the victim.
fn check_disjoint(ranges: &[Vec<(usize, usize)>]) -> Result<(), SimError> {
    let mut flat: Vec<(usize, usize, usize)> = Vec::new(); // (start, end, program)
    for (pi, rs) in ranges.iter().enumerate() {
        for &(off, len) in rs {
            if len > 0 {
                flat.push((off, off + len, pi));
            }
        }
    }
    flat.sort_unstable();
    // Sentinel owners that can never equal a real program index.
    let mut best: (usize, usize, usize) = (0, 0, usize::MAX);
    let mut alt: (usize, usize, usize) = (0, 0, usize::MAX);
    for &(s, e, p) in &flat {
        let hit = if s < best.1 && p != best.2 {
            Some(best)
        } else if s < alt.1 && p != alt.2 {
            Some(alt)
        } else {
            None
        };
        if let Some((os, oe, op)) = hit {
            return Err(SimError::GmOverlap {
                prog_a: op,
                range_a: (os, oe),
                prog_b: p,
                range_b: (s, e),
            });
        }
        if e > best.1 {
            if p != best.2 && best.2 != usize::MAX {
                alt = best;
            }
            best = (s, e, p);
        } else if p != best.2 && e > alt.1 {
            alt = (s, e, p);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dv_fp16::F16;
    use dv_isa::{Addr, DataMove, Mask, VectorInstr, VectorOp};
    use proptest::prelude::*;

    /// A program that doubles 128 f16 values: GM[in] -> UB, vadd, UB ->
    /// GM[out].
    fn doubler(in_off: usize, out_off: usize) -> Program {
        let mut p = Program::new();
        p.push(Instr::Move(DataMove::new(
            Addr::gm(in_off),
            Addr::ub(0),
            256,
        )))
        .unwrap();
        p.push(Instr::Vector(VectorInstr::unit_stride(
            VectorOp::Add,
            Addr::ub(256),
            Addr::ub(0),
            Addr::ub(0),
            Mask::FULL,
            1,
        )))
        .unwrap();
        p.push(Instr::Move(DataMove::new(
            Addr::ub(256),
            Addr::gm(out_off),
            256,
        )))
        .unwrap();
        p
    }

    /// A pure streaming program: GM[in] -> UB -> GM[out], `bytes` long.
    fn streamer(in_off: usize, out_off: usize, bytes: usize) -> Program {
        let mut p = Program::new();
        p.push(Instr::Move(DataMove::new(
            Addr::gm(in_off),
            Addr::ub(0),
            bytes,
        )))
        .unwrap();
        p.push(Instr::Move(DataMove::new(
            Addr::ub(0),
            Addr::gm(out_off),
            bytes,
        )))
        .unwrap();
        p
    }

    fn gm_with(vals: &[F16], bytes: usize) -> Vec<u8> {
        let mut gm = vec![0u8; bytes];
        gm[..vals.len() * 2].copy_from_slice(dv_fp16::as_bytes(vals));
        gm
    }

    #[test]
    fn parallel_tiles_produce_correct_gm() {
        let vals: Vec<F16> = (0..512).map(|i| F16::from_f32((i % 100) as f32)).collect();
        let mut gm = gm_with(&vals, 4096);
        // four tiles of 128 elements, outputs at byte 2048 onward
        let programs: Vec<Program> = (0..4).map(|t| doubler(t * 256, 2048 + t * 256)).collect();
        let chip = Chip::new(4, CostModel::ascend910_like());
        let run = chip.run(&mut gm, &programs).unwrap();
        let out = dv_fp16::from_bytes(&gm[2048..2048 + 1024]);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(v.to_f32(), 2.0 * ((i % 100) as f32), "element {i}");
        }
        assert_eq!(run.per_core.len(), 4);
        assert!(run.cycles > 0);
    }

    #[test]
    fn chip_cycles_is_max_not_sum() {
        let vals: Vec<F16> = (0..512).map(|i| F16::from_f32(i as f32 % 7.0)).collect();
        let programs: Vec<Program> = (0..4).map(|t| doubler(t * 256, 2048 + t * 256)).collect();

        let mut gm1 = gm_with(&vals, 4096);
        let chip1 = Chip::new(1, CostModel::ascend910_like());
        let seq = chip1.run(&mut gm1, &programs).unwrap();

        let mut gm4 = gm_with(&vals, 4096);
        let chip4 = Chip::new(4, CostModel::ascend910_like());
        let par = chip4.run(&mut gm4, &programs).unwrap();

        assert_eq!(gm1, gm4, "results identical regardless of core count");
        // 4 equal tiles: 4 cores should be ~4x faster.
        assert_eq!(seq.cycles, 4 * par.cycles);
        // total work identical
        assert_eq!(seq.total.cycles, par.total.cycles);
    }

    #[test]
    fn more_cores_than_tiles_is_fine() {
        let vals: Vec<F16> = (0..128).map(|_| F16::ONE).collect();
        let mut gm = gm_with(&vals, 2048);
        let chip = Chip::new(32, CostModel::ascend910_like());
        let run = chip.run(&mut gm, &[doubler(0, 1024)]).unwrap();
        assert_eq!(run.per_core.len(), 1, "idle cores report nothing");
        let out = dv_fp16::from_bytes(&gm[1024..1280]);
        assert!(out.iter().all(|v| v.to_f32() == 2.0));
    }

    #[test]
    fn overlapping_gm_writes_detected() {
        let mut gm = vec![0u8; 4096];
        // both tiles write to byte 2048
        let programs = vec![doubler(0, 2048), doubler(256, 2048)];
        let chip = Chip::new(2, CostModel::ascend910_like());
        match chip.run(&mut gm, &programs) {
            Err(SimError::GmOverlap { prog_a, prog_b, .. }) => {
                assert_eq!((prog_a, prog_b), (0, 1));
            }
            other => panic!("expected GmOverlap, got {other:?}"),
        }
    }

    /// The exact miss from the issue: p0 declares (0,100) and (10,20) —
    /// the inner range sorts *between* the container and p1's (30,40), so
    /// the adjacent-`windows(2)` compare saw only same-program and
    /// non-overlapping neighbour pairs and let the contained cross-program
    /// range through.
    #[test]
    fn containment_across_a_same_program_neighbour_is_detected() {
        let ranges = vec![vec![(0, 100), (10, 10)], vec![(30, 10)]];
        match check_disjoint(&ranges) {
            Err(SimError::GmOverlap {
                prog_a,
                range_a,
                prog_b,
                range_b,
            }) => {
                assert_eq!((prog_a, prog_b), (0, 1));
                assert_eq!(range_a, (0, 100));
                assert_eq!(range_b, (30, 40));
            }
            other => panic!("expected GmOverlap, got {other:?}"),
        }
    }

    /// The same containment miss driven end-to-end through real programs:
    /// p0 streams a 256-byte output plus a small rewrite inside it, p1
    /// streams 32 bytes landing strictly inside p0's big range.
    #[test]
    fn contained_overlap_between_programs_rejected_at_run() {
        let mut gm = vec![0u8; 8192];
        let mut p0 = streamer(0, 4096, 256);
        // a same-program rewrite inside [4096, 4352) that sorts between
        // the container and the victim
        p0.push(Instr::Move(DataMove::new(
            Addr::ub(0),
            Addr::gm(4096 + 16),
            32,
        )))
        .unwrap();
        let p1 = streamer(512, 4096 + 64, 32);
        let chip = Chip::new(2, CostModel::ascend910_like());
        match chip.run(&mut gm, &[p0, p1]) {
            Err(SimError::GmOverlap { prog_a, prog_b, .. }) => {
                assert_eq!((prog_a, prog_b), (0, 1));
            }
            other => panic!("expected GmOverlap, got {other:?}"),
        }
    }

    /// Overlap *within* one program stays legal: a program may rewrite its
    /// own output.
    #[test]
    fn same_program_overlap_is_allowed() {
        let mut gm = vec![0u8; 4096];
        let mut p0 = streamer(0, 2048, 256);
        p0.push(Instr::Move(DataMove::new(Addr::ub(0), Addr::gm(2064), 32)))
            .unwrap();
        let chip = Chip::new(1, CostModel::ascend910_like());
        chip.run(&mut gm, &[p0]).unwrap();
    }

    /// An observed GM write outside the declared merge-back ranges is a
    /// typed error, not silently dropped bytes. Driven through the
    /// declared-ranges seam: execution writes GM[1024,1280) but the
    /// declaration claims only the first half.
    #[test]
    fn undeclared_gm_write_is_a_typed_error() {
        let vals: Vec<F16> = (0..128).map(|_| F16::ONE).collect();
        let mut gm = gm_with(&vals, 2048);
        let programs = [doubler(0, 1024)];
        let chip = Chip::new(1, CostModel::ascend910_like());
        let no_halos = vec![GmDeclaration::default()];
        let declared = vec![vec![(1024, 128)]];
        match chip.run_with_declared(&mut LentGm::whole(&mut gm), &programs, &declared, &no_halos) {
            Err(SimError::UndeclaredGmWrite { program, observed }) => {
                assert_eq!(program, 0);
                assert_eq!(observed, (1024, 1280));
            }
            other => panic!("expected UndeclaredGmWrite, got {other:?}"),
        }
        // The honest declaration passes and merges the bytes back.
        let declared = vec![vec![(1024, 256)]];
        chip.run_with_declared(&mut LentGm::whole(&mut gm), &programs, &declared, &no_halos)
            .unwrap();
        let out = dv_fp16::from_bytes(&gm[1024..1280]);
        assert!(out.iter().all(|v| v.to_f32() == 2.0));
    }

    /// Naive O(n²) all-pairs reference for cross-program overlap.
    fn overlaps_naive(ranges: &[Vec<(usize, usize)>]) -> bool {
        for (pa, ra) in ranges.iter().enumerate() {
            for (pb, rb) in ranges.iter().enumerate() {
                if pa >= pb {
                    continue;
                }
                for &(oa, la) in ra {
                    for &(ob, lb) in rb {
                        if la > 0 && lb > 0 && oa < ob + lb && ob < oa + la {
                            return true;
                        }
                    }
                }
            }
        }
        false
    }

    proptest! {
        #[test]
        fn disjointness_sweep_matches_naive_reference(
            ranges in proptest::collection::vec(
                proptest::collection::vec((0usize..96, 0usize..24), 0..8),
                0..6,
            )
        ) {
            let sweep_ok = check_disjoint(&ranges).is_ok();
            prop_assert_eq!(sweep_ok, !overlaps_naive(&ranges));
        }
    }

    #[test]
    fn traced_run_matches_counters_and_tracks_peaks() {
        let vals: Vec<F16> = (0..512).map(|i| F16::from_f32((i % 50) as f32)).collect();
        let mut gm = gm_with(&vals, 4096);
        let programs: Vec<Program> = (0..4).map(|t| doubler(t * 256, 2048 + t * 256)).collect();
        let chip =
            Chip::new(2, CostModel::ascend910_like()).with_trace(crate::trace::TraceConfig::ON);
        let run = chip.run(&mut gm, &programs).unwrap();

        // One trace per active core, each consistent with that core's
        // counters, and the aggregate consistent with the totals.
        assert_eq!(run.traces.len(), run.per_core.len());
        for (t, c) in run.traces.iter().zip(&run.per_core) {
            assert_eq!(t.total_cycles(), c.cycles);
            assert_eq!(t.events.len(), c.total_issues() as usize);
        }
        run.breakdown().verify_against(&run.total).unwrap();

        // The doubler stages 512 bytes in UB per tile.
        assert_eq!(run.peaks.of(BufferId::Ub), 512);
        assert_eq!(run.peaks.of(BufferId::L1), 0);

        let json = run.chrome_trace_json();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"name\":\"vadd\""));

        // Live ranges ride along with the trace: each core saw its UB
        // staging region live, and the export carries async slices.
        assert_eq!(run.lifetimes.len(), run.traces.len());
        for lt in &run.lifetimes {
            assert!(lt.of(BufferId::Ub).count() > 0);
        }
        assert!(json.contains("\"cat\":\"live-range\""));

        // Untraced runs record nothing but count identically.
        let mut gm2 = gm_with(&vals, 4096);
        let untraced = Chip::new(2, CostModel::ascend910_like())
            .run(&mut gm2, &programs)
            .unwrap();
        assert!(untraced.traces.is_empty());
        assert!(untraced.lifetimes.is_empty());
        assert_eq!(untraced.total, run.total);
    }

    /// Every core reads the one shared image through its own written
    /// pages: a later program on the same core sees that core's earlier
    /// GM write, a program on another core sees the original image, and
    /// merge-back lands both. Same on every backend.
    #[test]
    fn gm_writes_stay_private_to_their_core_until_merge_back() {
        let x: Vec<F16> = (0..128).map(|i| F16::from_f32(i as f32)).collect();
        let y: Vec<F16> = (0..128).map(|i| F16::from_f32(-(i as f32))).collect();
        let mut image = gm_with(&x, 8192);
        image[512..768].copy_from_slice(dv_fp16::as_bytes(&y));
        // Core 0 runs p0 then p2; core 1 runs p1.
        let programs = [
            streamer(512, 0, 256),  // p0: GM[0..256) = y
            streamer(0, 1024, 256), // p1: copies GM[0..256)
            streamer(0, 2048, 256), // p2: copies GM[0..256)
        ];
        for backend in Backend::ALL {
            let mut gm = image.clone();
            Chip::new(2, CostModel::ascend910_like())
                .with_backend(backend)
                .run(&mut gm, &programs)
                .unwrap();
            assert_eq!(dv_fp16::from_bytes(&gm[0..256]), &y[..], "{backend}");
            assert_eq!(
                dv_fp16::from_bytes(&gm[1024..1280]),
                &x[..],
                "{backend}: another core sees the image"
            );
            assert_eq!(
                dv_fp16::from_bytes(&gm[2048..2304]),
                &y[..],
                "{backend}: the same core reads its own write"
            );
        }
    }

    /// A move past the end of the shared image is still a typed
    /// out-of-bounds error on every backend.
    #[test]
    fn out_of_range_gm_move_is_out_of_bounds() {
        let programs = [streamer(0, 1024, 256), streamer(4096 - 128, 2048, 256)];
        for backend in Backend::ALL {
            let mut gm = vec![0u8; 4096];
            let err = Chip::new(2, CostModel::ascend910_like())
                .with_backend(backend)
                .run(&mut gm, &programs)
                .unwrap_err();
            assert_eq!(
                err,
                SimError::OutOfBounds {
                    buffer: BufferId::Gm,
                    offset: 4096 - 128,
                    len: 256,
                    capacity: 4096,
                },
                "{backend}"
            );
        }
    }

    /// When programs fail on two cores, every backend reports the lowest
    /// failing core's error, however the cores map onto host threads.
    #[test]
    fn lowest_failing_core_error_wins_on_every_backend() {
        // Program `c` reads 64 * c bytes past the end of GM.
        let fails = |c: usize| streamer(16384 - 64 * c, 8192 + 512 * c, 256);
        for (bad, lowest) in [([2, 3], 2), ([1, 3], 1)] {
            let programs: Vec<Program> = (0..4)
                .map(|c| {
                    if bad.contains(&c) {
                        fails(c)
                    } else {
                        doubler(c * 256, 4096 + c * 256)
                    }
                })
                .collect();
            let want = SimError::OutOfBounds {
                buffer: BufferId::Gm,
                offset: 16384 - 64 * lowest,
                len: 256,
                capacity: 16384,
            };
            for backend in Backend::ALL {
                let mut gm = vec![0u8; 16384];
                let err = Chip::new(4, CostModel::ascend910_like())
                    .with_backend(backend)
                    .run(&mut gm, &programs)
                    .unwrap_err();
                assert_eq!(err, want, "{backend}, failing cores {bad:?}");
            }
        }
    }

    /// A host thread that panics ends the run as a typed error carrying
    /// the message, attributed to the core it was on, whether the panic
    /// is on the calling thread or a spawned one; the lowest failing
    /// core's error still wins, panic or not.
    #[test]
    fn a_panicking_host_thread_is_a_typed_error() {
        let out_of_bounds = SimError::OutOfBounds {
            buffer: BufferId::Gm,
            offset: 0,
            len: 1,
            capacity: 0,
        };
        // Cores 0..6; `panics` raises on its core, `fails` errs on its.
        let drive = |hosts: usize, panics: usize, fails: usize| {
            fan_out(hosts, |first, out: &mut CoreResults<usize>| {
                for core in (first..6).step_by(hosts) {
                    if core == panics {
                        panic!("core {core} exploded");
                    }
                    let failed = core == fails;
                    out.push((
                        core,
                        if failed {
                            Err(out_of_bounds.clone())
                        } else {
                            Ok(core)
                        },
                    ));
                    if failed {
                        break;
                    }
                }
            })
        };
        for hosts in 1..=4 {
            let panic_on = |core: usize| SimError::HostPanic {
                core,
                message: format!("core {core} exploded"),
            };
            assert_eq!(drive(hosts, 4, 9), Err(panic_on(4)), "{hosts} hosts");
            assert_eq!(drive(hosts, 0, 9), Err(panic_on(0)), "{hosts} hosts");
            assert_eq!(
                drive(hosts, 3, 2),
                Err(out_of_bounds.clone()),
                "{hosts} hosts"
            );
            assert_eq!(drive(hosts, 1, 5), Err(panic_on(1)), "{hosts} hosts");
            assert_eq!(drive(hosts, 9, 9), Ok((0..6).collect()), "{hosts} hosts");
        }
        let msg = SimError::HostPanic {
            core: 4,
            message: "boom".into(),
        }
        .to_string();
        assert!(msg.contains("core 4") && msg.contains("boom"), "{msg}");
    }

    #[test]
    fn empty_program_list() {
        let mut gm = vec![0u8; 64];
        let chip = Chip::new(2, CostModel::ascend910_like());
        let run = chip.run(&mut gm, &[]).unwrap();
        assert_eq!(run.cycles, 0);
        assert!(run.per_core.is_empty());
    }

    #[test]
    fn shared_bandwidth_books_contention_without_changing_results() {
        // Four 8 KiB streamers on four cores: each demands ~27 B/cyc, so
        // a 32 B/cyc pipe is ~3.4x oversubscribed.
        let vals: Vec<F16> = (0..4096).map(|i| F16::from_f32((i % 31) as f32)).collect();
        let programs: Vec<Program> = (0..4)
            .map(|t| streamer(t * 8192, 32768 + t * 8192, 8192))
            .collect();

        let mut gm_i = gm_with(&vals, 65536);
        let indep = Chip::new(4, CostModel::ascend910_like());
        let run_i = indep.run(&mut gm_i, &programs).unwrap();

        let mut gm_s = gm_with(&vals, 65536);
        let shared =
            Chip::new(4, CostModel::ascend910_like()).with_memory(MemoryModel::SharedBandwidth {
                bytes_per_cycle: 32,
            });
        let run_s = shared.run(&mut gm_s, &programs).unwrap();

        assert_eq!(gm_i, gm_s, "contention reshapes time, never data");
        assert_eq!(run_i.total.contention_stalls, 0);
        assert!(run_s.total.contention_stalls > 0);
        assert!(run_s.cycles > run_i.cycles);
        let dispatch = shared.cost.core_dispatch; // one program per core
        for (cc, c) in run_s.core_cycles.iter().zip(&run_s.per_core) {
            assert_eq!(
                *cc,
                c.cycles + dispatch + c.contention_stalls,
                "core cycles = work + dispatch + booked stall"
            );
            assert!(c.contention_stalls > 0);
        }
        // Everything except the stall booking matches the independent run.
        for (a, b) in run_i.per_core.iter().zip(&run_s.per_core) {
            assert_eq!(a.cycles, b.cycles);
            assert_eq!(a.gm_bytes, b.gm_bytes);
        }
    }

    /// Two programs stage strips privately and declare halo folds into
    /// the *same* destination span. The fold order is pinned by `seq`:
    /// an Add before a Max gives `max(0 + 10, 5) = 10`, the reverse
    /// gives `max(0, 5) + 10 = 15` — so the result proves which order
    /// ran, and flipping `seq` flips it deterministically.
    fn halo_order_run(seq_add: u64, seq_max: u64) -> f32 {
        let mut gm = vec![0u8; 4096];
        let tens: Vec<F16> = (0..16).map(|_| F16::from_f32(10.0)).collect();
        let fives: Vec<F16> = (0..16).map(|_| F16::from_f32(5.0)).collect();
        gm[0..32].copy_from_slice(dv_fp16::as_bytes(&tens));
        gm[64..96].copy_from_slice(dv_fp16::as_bytes(&fives));
        let programs = [streamer(0, 1024, 32), streamer(64, 1152, 32)];
        let halo = |src: usize, op: HaloOp, seq: u64| HaloSpan {
            src,
            dst: 2048,
            blocks: 1,
            block_bytes: 32,
            src_stride: 32,
            dst_stride: 32,
            op,
            seq,
        };
        let declared = vec![
            GmDeclaration {
                finalized: vec![],
                halos: vec![halo(1024, HaloOp::Add, seq_add)],
            },
            GmDeclaration {
                finalized: vec![],
                halos: vec![halo(1152, HaloOp::Max, seq_max)],
            },
        ];
        let chip = Chip::new(2, CostModel::ascend910_like());
        chip.run_declared(&mut gm, &programs, &declared).unwrap();
        dv_fp16::from_bytes(&gm[2048..2080])[0].to_f32()
    }

    #[test]
    fn halo_spans_fold_in_pinned_seq_order() {
        assert_eq!(halo_order_run(0, 1), 10.0, "Add (seq 0) before Max (seq 1)");
        assert_eq!(halo_order_run(1, 0), 15.0, "Max (seq 0) before Add (seq 1)");
    }

    /// Halo staging strips join the cross-program disjointness check:
    /// a finalized span of one program overlapping another program's
    /// staging strip is the same lowering bug as two overlapping
    /// finalized spans.
    #[test]
    fn halo_staging_joins_the_disjointness_check() {
        let mut gm = vec![0u8; 4096];
        let programs = [streamer(0, 1024, 256), streamer(64, 1152, 32)];
        let declared = vec![
            GmDeclaration::plain(vec![(1024, 256)]),
            GmDeclaration {
                finalized: vec![],
                halos: vec![HaloSpan {
                    src: 1152, // strictly inside program 0's [1024, 1280)
                    dst: 2048,
                    blocks: 1,
                    block_bytes: 32,
                    src_stride: 32,
                    dst_stride: 32,
                    op: HaloOp::Add,
                    seq: 0,
                }],
            },
        ];
        let chip = Chip::new(2, CostModel::ascend910_like());
        match chip.run_declared(&mut gm, &programs, &declared) {
            Err(SimError::GmOverlap { prog_a, prog_b, .. }) => {
                assert_eq!((prog_a, prog_b), (0, 1));
            }
            other => panic!("expected GmOverlap, got {other:?}"),
        }
    }

    /// A staged write the declaration does not claim (neither finalized
    /// nor halo src) is the familiar typed error, not dropped bytes.
    #[test]
    fn undeclared_halo_staging_write_is_typed() {
        let mut gm = vec![0u8; 4096];
        let programs = [streamer(0, 1024, 32)];
        let declared = vec![GmDeclaration {
            finalized: vec![],
            halos: vec![HaloSpan {
                src: 2048, // the program actually stages at 1024
                dst: 3072,
                blocks: 1,
                block_bytes: 32,
                src_stride: 32,
                dst_stride: 32,
                op: HaloOp::Add,
                seq: 0,
            }],
        }];
        let chip = Chip::new(1, CostModel::ascend910_like());
        match chip.run_declared(&mut gm, &programs, &declared) {
            Err(SimError::UndeclaredGmWrite { program, observed }) => {
                assert_eq!(program, 0);
                assert_eq!(observed, (1024, 1056));
            }
            other => panic!("expected UndeclaredGmWrite, got {other:?}"),
        }
    }

    /// Halo geometry is validated before any core executes: destinations
    /// past the end of GM and degenerate spans are typed pre-flight
    /// errors.
    #[test]
    fn halo_bounds_and_geometry_are_validated() {
        let mut gm = vec![0u8; 4096];
        let programs = [streamer(0, 1024, 32)];
        let mk = |dst: usize, blocks: usize| {
            vec![GmDeclaration {
                finalized: vec![],
                halos: vec![HaloSpan {
                    src: 1024,
                    dst,
                    blocks,
                    block_bytes: 32,
                    src_stride: 32,
                    dst_stride: 64,
                    op: HaloOp::Add,
                    seq: 0,
                }],
            }]
        };
        let chip = Chip::new(1, CostModel::ascend910_like());
        match chip.run_declared(&mut gm, &programs, &mk(4090, 1)) {
            Err(SimError::HaloOutOfBounds { program, end, .. }) => {
                assert_eq!(program, 0);
                assert_eq!(end, "dst");
            }
            other => panic!("expected HaloOutOfBounds, got {other:?}"),
        }
        match chip.run_declared(&mut gm, &programs, &mk(2048, 0)) {
            Err(SimError::HaloMalformed { program, .. }) => assert_eq!(program, 0),
            other => panic!("expected HaloMalformed, got {other:?}"),
        }
    }

    proptest! {
        /// The disjointness sweep over *claimed* ranges (finalized spans
        /// plus halo staging strips) agrees with the naive all-pairs
        /// reference — the halo-aware extension of the legacy property.
        #[test]
        fn claimed_disjointness_matches_naive_reference(
            decls in proptest::collection::vec(
                (
                    proptest::collection::vec((0usize..96, 0usize..24), 0..4),
                    proptest::collection::vec((0usize..96, 1usize..3, 2usize..17), 0..3),
                ),
                0..5,
            )
        ) {
            let decls: Vec<GmDeclaration> = decls
                .into_iter()
                .map(|(finalized, halos)| GmDeclaration {
                    finalized,
                    halos: halos
                        .into_iter()
                        .map(|(src, blocks, half_block)| HaloSpan {
                            src,
                            dst: 4096,
                            blocks,
                            block_bytes: half_block * 2,
                            src_stride: half_block * 2,
                            dst_stride: half_block * 2,
                            op: HaloOp::Add,
                            seq: 0,
                        })
                        .collect(),
                })
                .collect();
            let claimed: Vec<Vec<(usize, usize)>> =
                decls.iter().map(GmDeclaration::claimed).collect();
            let sweep_ok = check_disjoint(&claimed).is_ok();
            prop_assert_eq!(sweep_ok, !overlaps_naive(&claimed));
        }
    }

    /// Two cores streaming the *same* input region under the shared-L2
    /// model: the second reader's lines hit in L2, its HBM demand drops,
    /// and the booking lands in `l2_hits`/`l2_miss_stalls` (with
    /// `contention_stalls` untouched). Results are bit-identical to the
    /// independent run, and a capacity too small for the footprint
    /// degrades exactly to the plain shared-bandwidth stalls.
    #[test]
    fn shared_l2_serves_overlapping_reads_and_books_miss_stalls() {
        let vals: Vec<F16> = (0..4096).map(|i| F16::from_f32((i % 31) as f32)).collect();
        // Both programs read [0, 8192); disjoint outputs.
        let programs = vec![streamer(0, 16384, 8192), streamer(0, 32768, 8192)];

        let mut gm_i = gm_with(&vals, 65536);
        let run_i = Chip::new(2, CostModel::ascend910_like())
            .run(&mut gm_i, &programs)
            .unwrap();
        assert_eq!(run_i.total.l2_hits, 0, "no L2 stage, no L2 traffic");

        let mut gm_l2 = gm_with(&vals, 65536);
        let l2_chip =
            Chip::new(2, CostModel::ascend910_like()).with_memory(MemoryModel::SharedBandwidthL2 {
                bytes_per_cycle: 32,
                l2: L2Model {
                    capacity: 1 << 20,
                    line: 64,
                },
            });
        let run_l2 = l2_chip.run(&mut gm_l2, &programs).unwrap();
        assert_eq!(gm_i, gm_l2, "the L2 stage reshapes time, never data");
        assert_eq!(run_l2.total.contention_stalls, 0);
        assert_eq!(
            run_l2.total.l2_hits,
            8192 / 64,
            "core 1 re-reads every line"
        );
        assert_eq!(run_l2.per_core[0].l2_hits, 0, "core 0 fetched first");
        assert_eq!(run_l2.per_core[1].l2_hits, 8192 / 64);

        let mut gm_s = gm_with(&vals, 65536);
        let run_s = Chip::new(2, CostModel::ascend910_like())
            .with_memory(MemoryModel::SharedBandwidth {
                bytes_per_cycle: 32,
            })
            .run(&mut gm_s, &programs)
            .unwrap();
        assert!(
            run_l2.total.l2_miss_stalls < run_s.total.contention_stalls,
            "served lines shrink the HBM demand and with it the stall"
        );

        // A capacity smaller than the footprint thrashes: zero hits and
        // exactly the plain shared-bandwidth stalls, booked as misses.
        let mut gm_t = gm_with(&vals, 65536);
        let run_t = Chip::new(2, CostModel::ascend910_like())
            .with_memory(MemoryModel::SharedBandwidthL2 {
                bytes_per_cycle: 32,
                l2: L2Model {
                    capacity: 4096,
                    line: 64,
                },
            })
            .run(&mut gm_t, &programs)
            .unwrap();
        assert_eq!(gm_t, gm_i);
        assert_eq!(run_t.total.l2_hits, 0);
        assert_eq!(run_t.total.l2_miss_stalls, run_s.total.contention_stalls);
    }

    #[test]
    fn ample_shared_bandwidth_is_indistinguishable_from_independent() {
        let vals: Vec<F16> = (0..512).map(|i| F16::from_f32((i % 13) as f32)).collect();
        let programs: Vec<Program> = (0..4).map(|t| doubler(t * 256, 2048 + t * 256)).collect();
        let mut gm_i = gm_with(&vals, 4096);
        let run_i = Chip::new(4, CostModel::ascend910_like())
            .run(&mut gm_i, &programs)
            .unwrap();
        let mut gm_s = gm_with(&vals, 4096);
        let run_s = Chip::new(4, CostModel::ascend910_like())
            .with_memory(MemoryModel::ascend910_hbm())
            .run(&mut gm_s, &programs)
            .unwrap();
        assert_eq!(gm_i, gm_s);
        assert_eq!(run_i.cycles, run_s.cycles);
        assert_eq!(run_s.total.contention_stalls, 0);
        assert_eq!(run_i.core_cycles, run_s.core_cycles);
    }
}
