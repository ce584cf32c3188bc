//! One AI Core: buffers + counters + cost model, executing programs.
//!
//! Two issue models are supported (selected by
//! [`CostModel::issue_model`](crate::cost::CostModel)):
//!
//! * **single-issue** — the legacy serial machine: each instruction
//!   issues when the previous one retires, so `HwCounters::cycles` is the
//!   sum of per-instruction charges by construction;
//! * **dual-pipe** — instructions dispatch in program order onto two
//!   in-order pipes (MTE/SCU on one, Vector/Cube on the other), each
//!   pipe executing its stream back-to-back. Cross-pipe ordering is
//!   enforced only where it must be: a per-buffer byte-range scoreboard
//!   makes a consumer wait for the retirement of any in-flight producer
//!   whose span overlaps (RAW), and a writer wait for overlapping
//!   in-flight readers/writers (WAR/WAW). `HwCounters::cycles` is then
//!   the *makespan* over both pipes — never larger than the serial sum,
//!   and strictly smaller whenever independent MTE and Vector work
//!   overlaps (the paper's `Im2Col` pipeline is built on exactly that).
//!
//! The dual-pipe hazard rule is one rule: an instruction issues at the
//! later of its pipe's free cycle and the retirement of every earlier
//! instruction it has a RAW, WAR or WAW overlap with, in any buffer.
//!
//! Functional execution always happens in program order, so both issue
//! models produce bit-identical buffer contents — only the timing
//! differs. A program boundary is a full barrier: both pipes join before
//! the next program begins.

use crate::buffers::{BufferSet, SimError};
use crate::cost::{Capacities, CostModel, IssueModel};
use crate::counters::HwCounters;
use crate::exec::{execute_info, ExecInfo, MemSpan};
use crate::gm::{GmPages, LentGm};
use crate::lifetimes::{BufferLifetimes, LifetimeRecorder};
use crate::trace::{Trace, TraceConfig, TraceEvent};
use dv_fp16::F16;
use dv_isa::{BufferId, Program, Unit};
use std::collections::VecDeque;

/// Which issue pipe a unit's instructions dispatch to: MTE and SCU share
/// the load/store pipe (0), Vector and Cube share the compute pipe (1).
/// Indexes [`HwCounters::pipe_stalls`].
pub fn pipe_of(unit: Unit) -> usize {
    match unit {
        Unit::Mte | Unit::Scu => 0,
        Unit::Vector | Unit::Cube => 1,
    }
}

/// One in-flight access on a pipe's scoreboard queue.
struct InFlight {
    span: MemSpan,
    write: bool,
    /// Cycle at which the access retires.
    finish: u64,
}

/// Execute every instruction of `program`, charging `counters` under the
/// configured issue model, and report each instruction's timing to
/// `sink(pc, info, start, stall, raw_dep)`. `raw_dep` (the trace's flow
/// arrow) is computed only when `trace_deps` is set, and is `None`
/// otherwise.
fn run_program(
    bufs: &mut BufferSet<'_>,
    cost: &CostModel,
    counters: &mut HwCounters,
    issued: &mut usize,
    program: &Program,
    trace_deps: bool,
    mut sink: impl FnMut(usize, &ExecInfo, u64, u64, Option<usize>),
) -> Result<(), SimError> {
    match cost.issue_model {
        IssueModel::SingleIssue => {
            for (pc, instr) in program.instrs().iter().enumerate() {
                let start = counters.cycles;
                let info = execute_info(instr, bufs, cost)?;
                info.apply(counters);
                sink(pc, &info, start, 0, None);
                *issued += 1;
            }
        }
        IssueModel::DualPipe => {
            // Both pipes join at program boundaries: start from the
            // core's current makespan.
            let base = counters.cycles;
            let mut pipe_free = [base; 2];
            // Each pipe's in-flight accesses, in issue order. A pipe is
            // in order, so finish cycles never decrease along its queue,
            // and every access on an instruction's own queue retires by
            // its pipe's free cycle: only the other pipe's accesses that
            // retire later can delay it.
            let mut in_flight: [VecDeque<InFlight>; 2] = Default::default();
            // Program-order writer log feeding the trace's flow arrows:
            // the latest writer of each span, independent of issue
            // timing. Nothing else reads it, so it stays empty untraced.
            let mut writers: Vec<(MemSpan, usize)> = Vec::new();
            for (pc, instr) in program.instrs().iter().enumerate() {
                // Functional execution stays in program order — results
                // are bit-identical to the single-issue model.
                let info = execute_info(instr, bufs, cost)?;
                let pipe = pipe_of(info.unit);

                // The other pipe's accesses that retire by this pipe's
                // free cycle can delay no instruction of this pipe, now
                // or later: drop them from the front.
                let other = &mut in_flight[1 - pipe];
                while other.front().is_some_and(|e| e.finish <= pipe_free[pipe]) {
                    other.pop_front();
                }
                // Hazard scan, newest first: RAW against in-flight
                // writers, WAR/WAW of this instruction's write against
                // every in-flight access. Finishes fall going back, so
                // the first overlap found retires last and ends the scan.
                let start = other
                    .iter()
                    .rev()
                    .find(|e| {
                        let raw =
                            e.write && info.reads.iter().flatten().any(|r| r.overlaps(&e.span));
                        raw || info.write.is_some_and(|w| w.overlaps(&e.span))
                    })
                    .map_or(pipe_free[pipe], |e| e.finish);
                // RAW producer for the trace's flow arrow: the latest
                // program-order writer of any byte this instruction
                // reads.
                let dep = writers
                    .iter()
                    .filter(|(span, _)| info.reads.iter().flatten().any(|r| r.overlaps(span)))
                    .map(|&(_, seq)| seq)
                    .max();

                let stall = start - pipe_free[pipe];
                let finish = start + info.cycles;
                pipe_free[pipe] = finish;

                info.apply_busy(counters);
                // One wait per instruction, booked against its own pipe:
                // even when an instruction hits both a RAW and a WAR/WAW
                // hazard, `start` is the single latest finish among them,
                // so the stall can never be double-counted.
                counters.stall_cycles += stall;
                counters.pipe_stalls[pipe] += stall;
                counters.cycles = counters.cycles.max(finish);

                let queue = &mut in_flight[pipe];
                for r in info.reads.iter().flatten() {
                    queue.push_back(InFlight {
                        span: *r,
                        write: false,
                        finish,
                    });
                }
                if let Some(w) = info.write {
                    queue.push_back(InFlight {
                        span: w,
                        write: true,
                        finish,
                    });
                    if trace_deps {
                        // Fully-shadowed older writers can no longer be
                        // the latest producer of any byte; drop them so
                        // the log stays as small as the active working
                        // set.
                        writers.retain(|(s, _)| {
                            !(s.buffer == w.buffer && w.start <= s.start && s.end <= w.end)
                        });
                        writers.push((w, *issued));
                    }
                }

                sink(pc, &info, start, stall, dep);
                *issued += 1;
            }
        }
    }
    Ok(())
}

/// A single simulated AI Core with its own view of global memory.
///
/// A standalone core ([`AiCore::new`]) owns a private, zero-initialised
/// GM. In a multi-core run, [`crate::chip::Chip`] gives every core a view
/// of the run's [`LentGm`] (`'g` is that borrow): a core reads the lent
/// regions through the pages it has written and never writes them
/// itself, and the chip merges the (disjoint) written ranges afterwards —
/// the cores in our workloads never communicate through GM mid-kernel.
#[derive(Clone, Debug)]
pub struct AiCore<'g> {
    bufs: BufferSet<'g>,
    counters: HwCounters,
    cost: CostModel,
    trace_cfg: TraceConfig,
    trace: Trace,
    lifetimes: LifetimeRecorder,
    programs_run: usize,
    /// Instructions executed since the last counter reset — the sequence
    /// space `TraceEvent::dep` indexes into.
    issued: usize,
    /// GM byte spans `[start, end)` written since the last
    /// [`AiCore::take_gm_writes`] — the execution-observed endpoints the
    /// chip cross-checks its statically declared merge-back ranges
    /// against. Always recorded (tracing on or off).
    gm_writes: Vec<(usize, usize)>,
    /// GM byte spans `[start, end)` read since the last
    /// [`AiCore::take_gm_reads`] — the footprint the chip's L2 locality
    /// stage ([`crate::chip::MemoryModel::SharedBandwidthL2`]) rounds to
    /// cache lines. Always recorded, like `gm_writes`.
    gm_reads: Vec<(usize, usize)>,
}

impl AiCore<'static> {
    /// A core with Ascend-910 scratchpad capacities and a `gm_bytes`-byte
    /// global memory.
    pub fn new(cost: CostModel, gm_bytes: usize) -> AiCore<'static> {
        AiCore::with_capacities(cost, Capacities::ASCEND910, gm_bytes)
    }

    /// A core with explicit scratchpad capacities (used by tests and by
    /// the tiling-threshold experiments).
    pub fn with_capacities(cost: CostModel, caps: Capacities, gm_bytes: usize) -> AiCore<'static> {
        AiCore::on_buffers(cost, BufferSet::new(caps, gm_bytes))
    }
}

impl<'g> AiCore<'g> {
    /// A core whose GM is a view of the run's lent GM `gm`, with
    /// scratchpads allocated at the `footprint` of the programs it will
    /// run ([`BufferSet::lent`]).
    pub(crate) fn on_lent_gm(
        cost: CostModel,
        caps: Capacities,
        footprint: Capacities,
        gm: &'g LentGm<'g>,
    ) -> AiCore<'g> {
        AiCore::on_buffers(cost, BufferSet::lent(caps, footprint, gm))
    }

    fn on_buffers(cost: CostModel, bufs: BufferSet<'g>) -> AiCore<'g> {
        AiCore {
            bufs,
            counters: HwCounters::default(),
            cost,
            trace_cfg: TraceConfig::OFF,
            trace: Trace::default(),
            lifetimes: LifetimeRecorder::default(),
            programs_run: 0,
            issued: 0,
            gm_writes: Vec::new(),
            gm_reads: Vec::new(),
        }
    }

    /// Enable or disable per-instruction trace recording. When disabled
    /// (the default) the run loop pays a single predictable branch per
    /// instruction and stores nothing.
    pub fn set_trace(&mut self, cfg: TraceConfig) {
        self.trace_cfg = cfg;
    }

    /// The trace recorded so far (empty unless tracing was enabled).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Take ownership of the recorded trace, leaving an empty one.
    pub fn take_trace(&mut self) -> Trace {
        std::mem::take(&mut self.trace)
    }

    /// Drain the buffer live ranges recorded so far (empty unless tracing
    /// was enabled — lifetime recording is gated with the trace).
    pub fn take_lifetimes(&mut self) -> BufferLifetimes {
        self.lifetimes.take()
    }

    /// Drain the GM byte spans `[start, end)` the executed instructions
    /// actually wrote since the last call — the ground truth the chip's
    /// merge-back derives from, independent of any static scan of the
    /// program text.
    pub fn take_gm_writes(&mut self) -> Vec<(usize, usize)> {
        std::mem::take(&mut self.gm_writes)
    }

    /// Drain the GM byte spans `[start, end)` the executed instructions
    /// actually read since the last call — the demand stream the chip's
    /// shared-L2 model partitions into hits and HBM misses.
    pub fn take_gm_reads(&mut self) -> Vec<(usize, usize)> {
        std::mem::take(&mut self.gm_reads)
    }

    /// Load f16 data into global memory at a byte offset.
    pub fn load_gm(&mut self, offset: usize, data: &[F16]) -> Result<(), SimError> {
        self.bufs.load_f16_slice(BufferId::Gm, offset, data)
    }

    /// Read f16 data back from global memory.
    pub fn read_gm(&self, offset: usize, len: usize) -> Result<Vec<F16>, SimError> {
        self.bufs.read_f16_slice(BufferId::Gm, offset, len)
    }

    /// Execute a program to completion, accumulating counters (and trace
    /// events, if tracing is enabled).
    pub fn run(&mut self, program: &Program) -> Result<(), SimError> {
        let program_idx = self.programs_run;
        let AiCore {
            bufs,
            counters,
            cost,
            trace_cfg,
            trace,
            lifetimes,
            issued,
            gm_writes,
            gm_reads,
            ..
        } = self;
        run_program(
            bufs,
            cost,
            counters,
            issued,
            program,
            trace_cfg.enabled,
            |pc, info, start, stall, dep| {
                if let Some(w) = info.write {
                    if w.buffer == BufferId::Gm {
                        gm_writes.push((w.start, w.end));
                    }
                }
                for r in info.reads.iter().flatten() {
                    if r.buffer == BufferId::Gm {
                        gm_reads.push((r.start, r.end));
                    }
                }
                if trace_cfg.enabled {
                    lifetimes.record(info, start, start + info.cycles);
                    trace.push(
                        trace_cfg,
                        TraceEvent {
                            pc,
                            program: program_idx,
                            mnemonic: info.mnemonic,
                            unit: info.unit,
                            start,
                            cycles: info.cycles,
                            stall,
                            dep,
                            repeat: info.repeat,
                            useful_lanes: info.useful_lanes,
                            total_lanes: info.total_lanes,
                            src: info.src,
                            dst: info.dst,
                            bytes: info.bytes(),
                        },
                    );
                }
            },
        )?;
        self.programs_run += 1;
        Ok(())
    }

    /// The hardware counters accumulated so far.
    pub fn counters(&self) -> &HwCounters {
        &self.counters
    }

    /// Return to the state of a freshly built core over the same GM and
    /// trace configuration, reusing the scratchpad allocations
    /// (re-zeroed up to their high-water marks). Written GM pages not
    /// taken with [`AiCore::take_gm_pages`] are dropped.
    pub(crate) fn recycle(&mut self) {
        self.bufs.reset();
        self.counters = HwCounters::default();
        self.trace = Trace::default();
        self.lifetimes = LifetimeRecorder::default();
        self.programs_run = 0;
        self.issued = 0;
        self.gm_writes.clear();
        self.gm_reads.clear();
    }

    /// Move out the GM pages this core has written — where the chip
    /// merges its observed write spans back from.
    pub(crate) fn take_gm_pages(&mut self) -> GmPages {
        self.bufs.take_gm_pages()
    }

    /// The cost model in effect.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Direct buffer access for white-box tests.
    pub fn buffers(&self) -> &BufferSet<'g> {
        &self.bufs
    }

    /// Mutable buffer access for white-box tests.
    pub fn buffers_mut(&mut self) -> &mut BufferSet<'g> {
        &mut self.bufs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::Backend;
    use crate::exec::footprint;
    use dv_isa::{Addr, CubeMatmul, DataMove, Instr, Mask, VectorInstr, VectorOp};

    #[test]
    fn run_executes_sequentially_and_counts() {
        let mut core = AiCore::new(CostModel::ascend910_like(), 4096);
        let data: Vec<F16> = (0..128).map(|i| F16::from_f32(i as f32)).collect();
        core.load_gm(0, &data).unwrap();

        let mut p = Program::new();
        p.push(Instr::Move(DataMove::new(Addr::gm(0), Addr::ub(0), 256)))
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
            Addr::gm(1024),
            256,
        )))
        .unwrap();
        core.run(&p).unwrap();

        let out = core.read_gm(1024, 128).unwrap();
        for (i, v) in out.iter().enumerate() {
            assert_eq!(v.to_f32(), (2 * i) as f32);
        }
        assert_eq!(core.counters().issues_of("mte_move"), 2);
        assert_eq!(core.counters().issues_of("vadd"), 1);
        assert!(core.counters().cycles > 0);

        // The core observed exactly one GM write span — the store to
        // [1024, 1280) — and draining it leaves the list empty.
        assert_eq!(core.take_gm_writes(), vec![(1024, 1280)]);
        assert!(core.take_gm_writes().is_empty());
    }

    #[test]
    fn relu_clamps_negatives() {
        let mut core = AiCore::new(CostModel::ascend910_like(), 0);
        let vals: Vec<F16> = [-2.0f32, -0.5, 0.0, 0.5, 3.0]
            .iter()
            .map(|&x| F16::from_f32(x))
            .collect();
        core.buffers_mut()
            .load_f16_slice(dv_isa::BufferId::Ub, 0, &vals)
            .unwrap();
        let mut p = Program::new();
        p.push(Instr::Vector(VectorInstr::unit_stride(
            VectorOp::Relu,
            Addr::ub(1024),
            Addr::ub(0),
            Addr::ub(0),
            Mask::first_n(5),
            1,
        )))
        .unwrap();
        core.run(&p).unwrap();
        let out = core
            .buffers()
            .read_f16_slice(dv_isa::BufferId::Ub, 1024, 5)
            .unwrap();
        let got: Vec<f32> = out.iter().map(|x| x.to_f32()).collect();
        assert_eq!(got, vec![0.0, 0.0, 0.0, 0.5, 3.0]);
    }

    #[test]
    fn error_propagates_from_mid_program() {
        let mut core = AiCore::new(CostModel::ascend910_like(), 64);
        let mut p = Program::new();
        p.push(Instr::Move(DataMove::new(Addr::gm(0), Addr::l1(0), 2)))
            .unwrap();
        p.push(Instr::Move(DataMove::new(
            Addr::gm(0),
            Addr::l1(0),
            1 << 21,
        )))
        .unwrap(); // larger than L1
        assert!(core.run(&p).is_err());
    }

    /// A move and a vector op on disjoint UB ranges: under dual-pipe they
    /// overlap (makespan < sum, zero stalls); under single-issue they
    /// serialise.
    fn independent_pair() -> Program {
        let mut p = Program::new();
        // Vector pipe: initialise UB[4096..4608).
        p.push(Instr::Vector(VectorInstr::unit_stride(
            VectorOp::Dup(F16::ZERO),
            Addr::ub(4096),
            Addr::ub(4096),
            Addr::ub(4096),
            Mask::FULL,
            2,
        )))
        .unwrap();
        // MTE pipe: independent load into UB[0..2048).
        p.push(Instr::Move(DataMove::new(Addr::gm(0), Addr::ub(0), 2048)))
            .unwrap();
        p
    }

    #[test]
    fn dual_pipe_overlaps_independent_work() {
        let p = independent_pair();
        let mut dual = AiCore::new(CostModel::ascend910_like(), 4096);
        dual.run(&p).unwrap();
        let mut single = AiCore::new(CostModel::single_issue(), 4096);
        single.run(&p).unwrap();

        // Identical work, identical busy cycles — but the dual-pipe
        // makespan is the max of the two charges, not the sum.
        assert_eq!(dual.counters().busy_cycles(), single.counters().cycles);
        let cost = CostModel::ascend910_like();
        let vdup = cost.issue_overhead + 2 * cost.vector_per_repeat;
        let mv = cost.issue_overhead + cost.move_cycles(2048);
        assert_eq!(single.counters().cycles, vdup + mv);
        assert_eq!(dual.counters().cycles, vdup.max(mv));
        assert_eq!(dual.counters().stall_cycles, 0);
    }

    #[test]
    fn dual_pipe_stalls_on_raw_hazard() {
        // move writes UB[0..256), vadd reads it: the vector pipe must
        // wait for the move to retire, and the wait is booked as stall.
        let mut p = Program::new();
        p.push(Instr::Move(DataMove::new(Addr::gm(0), Addr::ub(0), 256)))
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
        let mut core = AiCore::new(CostModel::ascend910_like(), 4096);
        core.set_trace(TraceConfig::ON);
        core.run(&p).unwrap();

        let cost = core.cost();
        let mv = cost.issue_overhead + cost.move_cycles(256);
        let vadd = cost.issue_overhead + cost.vector_per_repeat;
        assert_eq!(core.counters().cycles, mv + vadd, "RAW chain serialises");
        assert_eq!(core.counters().stall_cycles, mv);
        let ev = &core.trace().events;
        assert_eq!(ev[1].start, mv, "vadd issues when the move retires");
        assert_eq!(ev[1].stall, mv);
        assert_eq!(
            ev[1].dep,
            Some(0),
            "RAW producer recorded for the flow arrow"
        );
        assert_eq!(ev[0].stall, 0);
        assert_eq!(ev[0].dep, None);
    }

    /// vadd reads UB[0..256); the following move overwrites the same
    /// range (WAR) from the other pipe.
    fn war_pair() -> Program {
        let mut p = Program::new();
        p.push(Instr::Vector(VectorInstr::unit_stride(
            VectorOp::Add,
            Addr::ub(256),
            Addr::ub(0),
            Addr::ub(0),
            Mask::FULL,
            1,
        )))
        .unwrap();
        p.push(Instr::Move(DataMove::new(Addr::gm(0), Addr::ub(0), 256)))
            .unwrap();
        p
    }

    #[test]
    fn dual_pipe_enforces_war_hazard() {
        // The move must wait for the read to retire (WAR), despite
        // running on the other pipe.
        let mut core = AiCore::new(CostModel::ascend910_like(), 4096);
        core.load_gm(0, &[F16::ONE; 128]).unwrap();
        core.set_trace(TraceConfig::ON);
        core.run(&war_pair()).unwrap();
        let cost = core.cost();
        let vadd = cost.issue_overhead + cost.vector_per_repeat;
        let ev = &core.trace().events;
        assert_eq!(ev[1].start, vadd, "move waits out the overlapping read");
        assert_eq!(ev[1].stall, vadd);
        assert_eq!(ev[1].dep, None, "WAR is ordering, not a dataflow edge");
    }

    #[test]
    fn dual_pipe_programs_are_barriers() {
        // The same two independent instructions, but split across two
        // programs: the barrier forbids cross-program overlap.
        let pair = independent_pair();
        let mut split_a = Program::new();
        split_a.push(pair.instrs()[0].clone()).unwrap();
        let mut split_b = Program::new();
        split_b.push(pair.instrs()[1].clone()).unwrap();

        let mut fused = AiCore::new(CostModel::ascend910_like(), 4096);
        fused.run(&pair).unwrap();
        let mut split = AiCore::new(CostModel::ascend910_like(), 4096);
        split.run(&split_a).unwrap();
        split.run(&split_b).unwrap();
        assert!(fused.counters().cycles < split.counters().cycles);
        assert_eq!(
            split.counters().cycles,
            split.counters().busy_cycles(),
            "one instruction per program degenerates to serial timing"
        );
    }

    #[test]
    fn dual_pipe_never_exceeds_single_issue() {
        // Property on a mixed program: makespan <= serial sum, and both
        // models produce identical buffer contents.
        let data: Vec<F16> = (0..512).map(|i| F16::from_f32((i % 37) as f32)).collect();
        let mut p = Program::new();
        p.push(Instr::Move(DataMove::new(Addr::gm(0), Addr::ub(0), 1024)))
            .unwrap();
        p.push(Instr::Vector(VectorInstr::unit_stride(
            VectorOp::Dup(F16::NEG_INFINITY),
            Addr::ub(2048),
            Addr::ub(2048),
            Addr::ub(2048),
            Mask::FULL,
            4,
        )))
        .unwrap();
        p.push(Instr::Vector(VectorInstr::unit_stride(
            VectorOp::Max,
            Addr::ub(2048),
            Addr::ub(0),
            Addr::ub(2048),
            Mask::FULL,
            4,
        )))
        .unwrap();
        p.push(Instr::Move(DataMove::new(
            Addr::ub(2048),
            Addr::gm(4096),
            1024,
        )))
        .unwrap();

        let mut dual = AiCore::new(CostModel::ascend910_like(), 8192);
        dual.load_gm(0, &data).unwrap();
        dual.run(&p).unwrap();
        let mut single = AiCore::new(CostModel::single_issue(), 8192);
        single.load_gm(0, &data).unwrap();
        single.run(&p).unwrap();

        assert_eq!(
            dual.read_gm(4096, 512).unwrap(),
            single.read_gm(4096, 512).unwrap(),
            "issue model must never change results"
        );
        assert!(dual.counters().cycles <= single.counters().cycles);
        assert!(dual.counters().cycles < single.counters().cycles);
        assert_eq!(dual.counters().busy_cycles(), single.counters().cycles);
        assert_eq!(dual.counters().issues, single.counters().issues);
    }

    /// A program touching every scratchpad, ending near the top of each
    /// so the high-water marks are large, and storing back to GM.
    fn writes_everything(caps: Capacities) -> Program {
        let mut p = Program::new();
        let moves = [
            (Addr::gm(0), Addr::l1(caps.l1 - 1024), 1024),
            (Addr::l1(caps.l1 - 1024), Addr::new(BufferId::L0A, 0), 512),
            (Addr::l1(caps.l1 - 512), Addr::new(BufferId::L0B, 0), 512),
        ];
        for (src, dst, bytes) in moves {
            p.push(Instr::Move(DataMove::new(src, dst, bytes))).unwrap();
        }
        p.push(Instr::Cube(CubeMatmul {
            a: Addr::new(BufferId::L0A, 0),
            b: Addr::new(BufferId::L0B, 0),
            c: Addr::new(BufferId::L0C, caps.l0c - 1024),
            m_fractals: 1,
            k_fractals: 1,
            n_fractals: 1,
            accumulate: false,
        }))
        .unwrap();
        let tail = [
            (
                Addr::new(BufferId::L0C, caps.l0c - 1024),
                Addr::ub(4096),
                1024,
            ),
            (Addr::l1(caps.l1 - 1024), Addr::ub(caps.ub - 1024), 1024),
            (Addr::ub(4096), Addr::gm(4096), 512),
        ];
        for (src, dst, bytes) in tail {
            p.push(Instr::Move(DataMove::new(src, dst, bytes))).unwrap();
        }
        p
    }

    /// A program that writes UB, then fails partway through a vector
    /// instruction whose third repeat leaves UB: two blocks land first.
    fn fails_partway(caps: Capacities) -> Program {
        let mut p = Program::new();
        p.push(Instr::Move(DataMove::new(Addr::gm(256), Addr::ub(0), 256)))
            .unwrap();
        p.push(Instr::Vector(VectorInstr {
            op: VectorOp::Copy,
            dst: Addr::ub(caps.ub - 512),
            src0: Addr::ub(0),
            src1: Addr::ub(0),
            mask: Mask::FULL,
            repeat: 3,
            dst_stride: 256,
            src0_stride: 0,
            src1_stride: 0,
        }))
        .unwrap();
        p
    }

    /// Reads what earlier programs left in every buffer, and GM that
    /// `writes_everything` overwrote on this core.
    fn probe(caps: Capacities) -> Program {
        let mut p = Program::new();
        let moves = [
            (Addr::gm(4096), Addr::ub(8192), 512),
            (Addr::l1(caps.l1 - 1024), Addr::ub(9216), 1024),
            (
                Addr::new(BufferId::L0C, caps.l0c - 1024),
                Addr::ub(10240),
                1024,
            ),
        ];
        for (src, dst, bytes) in moves {
            p.push(Instr::Move(DataMove::new(src, dst, bytes))).unwrap();
        }
        p.push(Instr::Cube(CubeMatmul {
            a: Addr::new(BufferId::L0A, 0),
            b: Addr::new(BufferId::L0B, 0),
            c: Addr::new(BufferId::L0C, 0),
            m_fractals: 1,
            k_fractals: 1,
            n_fractals: 1,
            accumulate: true,
        }))
        .unwrap();
        p.push(Instr::Vector(VectorInstr::unit_stride(
            VectorOp::Max,
            Addr::ub(12288),
            Addr::ub(caps.ub - 1024),
            Addr::ub(8192),
            Mask::FULL,
            4,
        )))
        .unwrap();
        p.push(Instr::Move(DataMove::new(
            Addr::ub(8192),
            Addr::gm(6144),
            1024,
        )))
        .unwrap();
        p
    }

    /// A core recycled after a program that wrote every scratchpad, one
    /// that failed partway and one that wrote GM runs the next program
    /// byte for byte like a freshly built core over the same image:
    /// never-written scratch reads zeros, GM reads the image, and the
    /// counters, peaks, traces, live ranges and GM spans are equal. Both
    /// sets are sized, as in a chip run, to the four programs' footprint.
    #[test]
    fn recycled_core_runs_like_a_fresh_one() {
        let caps = Capacities::ASCEND910;
        let image: Vec<u8> = (0..8192u32).map(|i| (i * 37 % 61) as u8).collect();
        let mut gm = LentGm::new(image.len());
        gm.lend(0, &image).unwrap();
        let programs = [
            writes_everything(caps),
            fails_partway(caps),
            streamer_to(2048),
            probe(caps),
        ];
        let fp = footprint(&programs, caps);
        for backend in Backend::ALL {
            let cost = CostModel::ascend910_like().with_backend(backend);
            let mut used = AiCore::on_lent_gm(cost, caps, fp, &gm);
            used.set_trace(TraceConfig::ON);
            used.run(&programs[0]).unwrap();
            used.recycle();
            assert!(used.run(&programs[1]).is_err());
            used.recycle();
            used.run(&programs[2]).unwrap();
            used.recycle();

            let mut fresh = AiCore::on_lent_gm(cost, caps, fp, &gm);
            fresh.set_trace(TraceConfig::ON);
            for core in [&mut used, &mut fresh] {
                core.run(&programs[3]).unwrap();
            }
            assert_eq!(used.counters(), fresh.counters(), "{backend}");
            assert_eq!(used.buffers().peaks(), fresh.buffers().peaks(), "{backend}");
            assert_eq!(used.trace().events, fresh.trace().events, "{backend}");
            assert_eq!(
                used.take_lifetimes().ranges,
                fresh.take_lifetimes().ranges,
                "{backend}"
            );
            assert_eq!(used.take_gm_writes(), fresh.take_gm_writes(), "{backend}");
            assert_eq!(used.take_gm_reads(), fresh.take_gm_reads(), "{backend}");
            for id in [
                BufferId::Gm,
                BufferId::L1,
                BufferId::L0A,
                BufferId::L0B,
                BufferId::L0C,
                BufferId::Ub,
            ] {
                assert!(
                    used.buffers().bytes(id) == fresh.buffers().bytes(id),
                    "{backend}: {id} differs from a fresh core"
                );
            }
            // The probe's GM read saw the image, not the recycled core's
            // earlier store to the same bytes.
            assert_eq!(
                used.buffers().bytes(BufferId::Ub)[8192..8704],
                image[4096..4608]
            );
        }
    }

    /// GM[0..256) -> UB -> GM[out..out + 256).
    fn streamer_to(out: usize) -> Program {
        let mut p = Program::new();
        p.push(Instr::Move(DataMove::new(Addr::gm(0), Addr::ub(0), 256)))
            .unwrap();
        p.push(Instr::Move(DataMove::new(Addr::ub(0), Addr::gm(out), 256)))
            .unwrap();
        p
    }
}
