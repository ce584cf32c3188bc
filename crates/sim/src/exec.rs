//! Instruction execution: functional semantics + cycle charging.

use crate::buffers::{scratch_sizes, scratch_slot, BufferSet, CubeViews, SimError};
use crate::cost::{Backend, Capacities, CostModel};
use crate::counters::{HwCounters, Unit};
use dv_fp16::{arith_rows, int_rows, Rows, Source, F16};
use dv_isa::{
    Addr, BufferId, Col2Im, CubeMatmul, DataMove, Im2Col, Instr, Mask, Program, RepeatMode,
    VectorInstr, VectorOp, VECTOR_BYTES, VECTOR_LANES,
};
use dv_tensor::{C0, FRACTAL_BYTES, FRACTAL_ROWS};

/// A contiguous byte range in one buffer — the unit of hazard tracking
/// for the dual-pipe scoreboard. Spans are conservative bounding boxes:
/// a strided vector operand reports the whole `[base, last + 256)`
/// window it sweeps, never less than what the instruction touches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct MemSpan {
    pub buffer: BufferId,
    /// First byte touched.
    pub start: usize,
    /// One past the last byte touched.
    pub end: usize,
}

impl MemSpan {
    fn new(addr: Addr, bytes: usize) -> MemSpan {
        MemSpan {
            buffer: addr.buffer,
            start: addr.offset,
            end: addr.offset + bytes,
        }
    }

    /// Do two spans overlap (same buffer, intersecting byte ranges)?
    pub fn overlaps(&self, other: &MemSpan) -> bool {
        self.buffer == other.buffer && self.start < other.end && other.start < self.end
    }
}

/// A strided operand's bounding box: `repeat` (at least 1) blocks of
/// `block` bytes, each `stride` bytes after the previous.
fn strided_span(addr: Addr, block: usize, stride: usize, repeat: usize) -> MemSpan {
    MemSpan::new(addr, (repeat - 1) * stride + block)
}

/// The byte ranges a valid instruction reads (RAW hazard sources) and
/// the one it writes (RAW producer, WAR/WAW target): up to three reads —
/// two vector sources, a Cube a/b/c-accumulate triple, or a `Col2Im`
/// source plus the destination plane its read-modify-write reads.
///
/// This is the one definition of what an instruction touches: the
/// dual-pipe scoreboard, the trace's live ranges and a chip run's
/// scratchpad [`footprint`] all take it from here, and every byte any
/// executor accesses lies inside these spans. Validation bounds each
/// span below `usize::MAX`, so none of the sums can overflow.
pub(crate) fn operand_spans(instr: &Instr) -> ([Option<MemSpan>; 3], Option<MemSpan>) {
    match instr {
        Instr::Vector(v) => {
            let rep = usize::from(v.repeat);
            let operand = |addr, stride| strided_span(addr, VECTOR_BYTES, stride, rep);
            let reads = [
                v.op.has_src0().then(|| operand(v.src0, v.src0_stride)),
                v.op.has_src1().then(|| operand(v.src1, v.src1_stride)),
                None,
            ];
            (reads, Some(operand(v.dst, v.dst_stride)))
        }
        Instr::Im2Col(i) => {
            // The whole range of source c1 planes the repeats gather from.
            let plane = i.geom.src_plane_bytes();
            let (c1_min, c1_max) = i.c1_range();
            let read = MemSpan {
                buffer: i.src.buffer,
                start: i.src.offset + c1_min * plane,
                end: i.src.offset + (c1_max + 1) * plane,
            };
            let write = MemSpan::new(i.dst, usize::from(i.repeat) * FRACTAL_BYTES);
            ([Some(read), None, None], Some(write))
        }
        Instr::Col2Im(c) => {
            let src = MemSpan::new(c.src, usize::from(c.repeat) * FRACTAL_BYTES);
            // The scatter-add reads *and* writes the destination c1 plane.
            let plane = c.geom.src_plane_bytes();
            let dst_plane =
                MemSpan::new(Addr::new(c.dst.buffer, c.dst.offset + c.c1 * plane), plane);
            ([Some(src), Some(dst_plane), None], Some(dst_plane))
        }
        Instr::Move(m) => (
            [Some(MemSpan::new(m.src, m.bytes)), None, None],
            Some(MemSpan::new(m.dst, m.dst_bytes())),
        ),
        Instr::Cube(c) => {
            const E: usize = dv_isa::cube::FRACTAL_EDGE;
            let (mf, kf, nf) = (c.m_fractals, c.k_fractals, c.n_fractals);
            let a = MemSpan::new(c.a, mf * kf * E * E * 2);
            let b = MemSpan::new(c.b, kf * nf * E * E * 2);
            let acc = MemSpan::new(c.c, mf * nf * E * E * 4); // f32 accumulators
            ([Some(a), Some(b), c.accumulate.then_some(acc)], Some(acc))
        }
    }
}

/// The bytes of each scratchpad that `programs` can touch: the largest
/// end of any instruction's [`operand_spans`] over all of them, clamped
/// to the capacity in `caps`. A scratchpad allocated at this size serves
/// every access the programs make; an instruction whose span runs past
/// the capacity leaves that scratchpad at its full capacity, where it
/// fails as it would anyway.
pub(crate) fn footprint(programs: &[Program], caps: Capacities) -> Capacities {
    let mut ends = [0; 5];
    for instr in programs.iter().flat_map(Program::instrs) {
        let (reads, write) = operand_spans(instr);
        for span in reads.into_iter().chain([write]).flatten() {
            if let Some(s) = scratch_slot(span.buffer) {
                ends[s] = ends[s].max(span.end);
            }
        }
    }
    let caps = scratch_sizes(caps);
    let [l1, l0a, l0b, l0c, ub] = std::array::from_fn(|s| ends[s].min(caps[s]));
    Capacities {
        l1,
        l0a,
        l0b,
        l0c,
        ub,
    }
}

/// Bytes of one fractal row: the C0 channel group of one patch.
const ROW_BYTES: usize = C0 * 2;

/// Can `reps` blocks of `block_bytes` f16 bytes, `stride` apart starting
/// at `addr`, be accessed through the unchecked slice path? Declines —
/// conservatively, sending the instruction to the reference interpreter —
/// on L0C (f16 views of the f32 accumulator buffer must keep erroring),
/// misaligned offsets, odd strides, and any span not provably inside the
/// buffer. `reps` must be at least 1.
fn f16_rect_ok(
    bufs: &BufferSet<'_>,
    addr: Addr,
    stride: usize,
    reps: usize,
    block_bytes: usize,
) -> bool {
    if addr.buffer == BufferId::L0C || !addr.offset.is_multiple_of(2) {
        return false;
    }
    if reps > 1 && !stride.is_multiple_of(2) {
        return false;
    }
    let Some(span) = (reps - 1)
        .checked_mul(stride)
        .and_then(|s| s.checked_add(block_bytes))
    else {
        return false;
    };
    addr.offset
        .checked_add(span)
        .is_some_and(|end| end <= bufs.capacity(addr.buffer))
}

/// One lane of a vector instruction — the reference interpreter's
/// arithmetic, which the sliced fast path's row kernels
/// ([`dv_fp16::int_rows`], [`dv_fp16::arith_rows`]) must reproduce bit for
/// bit; the integer kernels run it as their lane.
#[inline(always)]
fn vector_lane_op(op: VectorOp, a: F16, b: F16) -> F16 {
    match op {
        VectorOp::Max => a.max(b),
        VectorOp::Min => a.min(b),
        VectorOp::Add => a + b,
        VectorOp::Sub => a - b,
        VectorOp::Mul => a * b,
        VectorOp::MulScalar(s) => a * s,
        VectorOp::Dup(s) => s,
        VectorOp::CmpEq => {
            if a == b {
                F16::ONE
            } else {
                F16::ZERO
            }
        }
        VectorOp::Copy => a,
        VectorOp::Relu => a.max(F16::ZERO),
    }
}

/// [`vector_lane_op`] kept out of line for the interpreter's lane loop,
/// whose op is not a constant: inlined there, the whole match made the
/// `Scalar` loop about 15% slower (a full-mask 255-repeat `vmax`: 300 →
/// 345 µs on a 2-vCPU x86-64 VM).
#[inline(never)]
fn interpreted_lane(op: VectorOp, a: F16, b: F16) -> F16 {
    vector_lane_op(op, a, b)
}

/// Everything the simulator learns from executing one instruction: the
/// counter charges *and* the metadata the trace recorder stores. Every
/// executor returns one of these and the charges are applied at a single
/// site ([`ExecInfo::apply`] / the dual-pipe scheduler), so
/// hardware-counter totals stay consistent with the trace by
/// construction.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ExecInfo {
    pub mnemonic: &'static str,
    pub unit: Unit,
    pub cycles: u64,
    /// Hardware repeat count (1 for non-repeating instructions).
    pub repeat: u32,
    /// Enabled vector lanes over all repeats (0 for non-vector).
    pub useful_lanes: u64,
    /// Lane slots over all repeats (0 for non-vector).
    pub total_lanes: u64,
    pub src: Option<BufferId>,
    pub dst: Option<BufferId>,
    pub gm_bytes: u64,
    pub scratch_bytes: u64,
    /// Byte ranges the instruction read ([`operand_spans`]).
    pub reads: [Option<MemSpan>; 3],
    /// Byte range the instruction wrote ([`operand_spans`]).
    pub write: Option<MemSpan>,
}

impl ExecInfo {
    /// Total data traffic (GM + scratchpad) this instruction caused.
    pub fn bytes(&self) -> u64 {
        self.gm_bytes + self.scratch_bytes
    }

    /// Charge this instruction into the hardware counters, advancing the
    /// wall clock by its full cycle charge (single-issue timing).
    pub fn apply(&self, counters: &mut HwCounters) {
        counters.record(self.mnemonic, self.unit, self.cycles);
        self.apply_traffic(counters);
    }

    /// Charge this instruction's busy time and traffic without advancing
    /// the wall clock — the dual-pipe scheduler sets the makespan itself.
    pub fn apply_busy(&self, counters: &mut HwCounters) {
        counters.record_busy(self.mnemonic, self.unit, self.cycles);
        self.apply_traffic(counters);
    }

    fn apply_traffic(&self, counters: &mut HwCounters) {
        if self.total_lanes > 0 {
            counters.record_lanes(self.useful_lanes, self.total_lanes);
        }
        counters.gm_bytes += self.gm_bytes;
        counters.scratch_bytes += self.scratch_bytes;
    }
}

/// Execute one instruction against the buffer set, charging `cost` cycles
/// into `counters`.
pub fn execute(
    instr: &Instr,
    bufs: &mut BufferSet<'_>,
    cost: &CostModel,
    counters: &mut HwCounters,
) -> Result<(), SimError> {
    let info = execute_info(instr, bufs, cost)?;
    info.apply(counters);
    Ok(())
}

/// Execute one instruction and report what happened without touching any
/// counters — the single entry point both [`execute`] and the tracing
/// core loop build on.
pub(crate) fn execute_info(
    instr: &Instr,
    bufs: &mut BufferSet<'_>,
    cost: &CostModel,
) -> Result<ExecInfo, SimError> {
    instr.validate()?;
    // All cycle charging funnels through `CostModel::instr_cycles`, so
    // static costing (the auto-tuner's certified floors) and execution can
    // never disagree on an instruction's charge.
    let cycles = cost.instr_cycles(instr);
    let backend = cost.backend;
    let mut info = match instr {
        Instr::Vector(v) => exec_vector(v, bufs, instr.mnemonic(), backend),
        Instr::Im2Col(i) => exec_im2col(i, bufs, backend),
        Instr::Col2Im(c) => exec_col2im(c, bufs, backend),
        Instr::Move(m) => exec_move(m, bufs, backend),
        Instr::Cube(c) => exec_cube(c, bufs, backend),
    }?;
    info.cycles = cycles;
    (info.reads, info.write) = operand_spans(instr);
    Ok(info)
}

fn exec_vector(
    v: &VectorInstr,
    bufs: &mut BufferSet<'_>,
    mnemonic: &'static str,
    backend: Backend,
) -> Result<ExecInfo, SimError> {
    if !(backend.sliced_exec() && vector_sliced(v, bufs)) {
        // Reference interpreter: per-element checked access. Also the
        // fallback whenever the sliced path's one-shot span validation
        // declines, so error values and partial-write effects stay
        // bit-identical across backends.
        // `validate` bounds only the operands the op reads, so an unread
        // one's base is never computed.
        let base = |addr: Addr, stride: usize, read: bool, rep: usize| {
            if read {
                addr.offset + rep * stride
            } else {
                0
            }
        };
        for rep in 0..v.repeat as usize {
            let dst_base = base(v.dst, v.dst_stride, true, rep);
            let src0_base = base(v.src0, v.src0_stride, v.op.has_src0(), rep);
            let src1_base = base(v.src1, v.src1_stride, v.op.has_src1(), rep);
            for lane in 0..VECTOR_LANES {
                if !v.mask.lane(lane) {
                    continue;
                }
                let off = lane * 2;
                let a = if v.op.has_src0() {
                    bufs.read_f16(v.src0.buffer, src0_base + off)?
                } else {
                    F16::ZERO
                };
                let b = if v.op.has_src1() {
                    bufs.read_f16(v.src1.buffer, src1_base + off)?
                } else {
                    F16::ZERO
                };
                bufs.write_f16(v.dst.buffer, dst_base + off, interpreted_lane(v.op, a, b))?;
            }
        }
    }
    Ok(ExecInfo {
        mnemonic,
        unit: Unit::Vector,
        cycles: 0, // set by execute_info from CostModel::instr_cycles
        repeat: v.repeat as u32,
        useful_lanes: v.useful_lanes(),
        total_lanes: VECTOR_LANES as u64 * v.repeat as u64,
        src: v.op.has_src0().then_some(v.src0.buffer),
        dst: Some(v.dst.buffer),
        gm_bytes: 0,
        scratch_bytes: 0,
        reads: [None; 3], // set by execute_info from operand_spans
        write: None,
    })
}

/// The maximal runs `[start, end)` of enabled lanes of a mask, in lane
/// order — decoded once per instruction, not tested per lane and repeat.
struct LaneRuns {
    /// At most 64 runs (alternating lanes); the first `len` are set.
    runs: [(u16, u16); VECTOR_LANES / 2],
    len: usize,
}

impl LaneRuns {
    fn of(mask: &Mask) -> LaneRuns {
        let (lo, hi) = mask.to_words();
        let mut rest = (u128::from(hi) << 64) | u128::from(lo);
        let mut out = LaneRuns {
            runs: [(0, 0); VECTOR_LANES / 2],
            len: 0,
        };
        while rest != 0 {
            let start = rest.trailing_zeros();
            let end = start + (rest >> start).trailing_ones();
            out.runs[out.len] = (start as u16, end as u16);
            out.len += 1;
            rest = if end as usize == VECTOR_LANES {
                0
            } else {
                rest & (u128::MAX << end)
            };
        }
        out
    }

    fn as_slice(&self) -> &[(u16, u16)] {
        &self.runs[..self.len]
    }
}

/// The `Sliced`/`Threaded` vector fast path: validate every operand's
/// whole strided span once, decode the mask's lane runs once, place each
/// source the op reads against the destination, and run the instruction
/// as one call of a row kernel ([`dv_fp16::int_rows`] or
/// [`dv_fp16::arith_rows`]) on f16 views of UB: one row per (repeat, lane
/// run), in the interpreter's order, each row's sources read before its
/// lanes are written.
///
/// That gives the interpreter's bytes when every source either *is* the
/// destination (same offset and stride: each lane reads only the lane it
/// writes) or lies wholly outside the destination's span (nothing it reads
/// is written), whatever the strides; any other aliasing declines. With
/// one lane run and every stride equal to its length the rows of all
/// repeats are contiguous, and run as one flat row.
///
/// Returns `false` — touching no memory — when the instruction cannot be
/// proven safe up front; the caller then runs the reference interpreter,
/// which reproduces the exact error (and any partial writes preceding
/// it).
fn vector_sliced(v: &VectorInstr, bufs: &mut BufferSet<'_>) -> bool {
    let reps = v.repeat as usize;
    let runs = LaneRuns::of(&v.mask);
    let runs = runs.as_slice();
    let Some(&(_, top)) = runs.last() else {
        return true; // no enabled lanes: no memory is touched
    };
    let (top, block) = (usize::from(top), usize::from(top) * 2);
    let sources = [
        (v.src0, v.src0_stride, v.op.has_src0()),
        (v.src1, v.src1_stride, v.op.has_src1()),
    ];
    if !f16_rect_ok(bufs, v.dst, v.dst_stride, reps, block)
        || sources
            .iter()
            .any(|&(addr, stride, read)| read && !f16_rect_ok(bufs, addr, stride, reps, block))
    {
        return false;
    }
    // Lanes a repeat advances an operand by (a single repeat advances
    // nothing, whatever its stride).
    let step = |stride: usize| if reps == 1 { 0 } else { stride / 2 };
    let dst_step = step(v.dst_stride);
    let lo = v.dst.offset / 2;
    let hi = lo + (reps - 1) * dst_step + top;
    let Some(lanes) = f16_view(bufs.scratch_mut(BufferId::Ub)) else {
        return false;
    };
    let (below, rest) = lanes.split_at_mut(lo);
    let (dst, above) = rest.split_at_mut(hi - lo);
    let (below, above) = (&*below, &*above);
    // Each source is the destination, or a slice wholly below or above
    // it; anything else declines.
    let mut srcs = [Source::Dst; 2];
    for (src, &(addr, stride, read)) in srcs.iter_mut().zip(&sources) {
        let (first, step) = (addr.offset / 2, step(stride));
        *src = if !read || (first == lo && step == dst_step) {
            Source::Dst
        } else if first + (reps - 1) * step + top <= lo {
            Source::Lanes {
                lanes: below,
                first,
                step,
            }
        } else if hi <= first {
            Source::Lanes {
                lanes: above,
                first: first - hi,
                step,
            }
        } else {
            return false;
        };
    }
    // One run whose length every stride equals: the repeats' rows tile
    // one flat row (at most 255 × 128 lanes, so its end fits a `u16`).
    const _: () = assert!(dv_isa::MAX_REPEAT as usize * VECTOR_LANES <= u16::MAX as usize);
    let flat;
    let mut rows = Rows {
        repeat: reps,
        runs,
        dst_step,
    };
    if let [(start, end)] = *runs {
        let len = usize::from(end - start);
        let tiles = |src: &Source<'_>| match *src {
            Source::Dst => true,
            Source::Lanes { step, .. } => step == len,
        };
        if reps > 1 && dst_step == len && srcs.iter().all(tiles) {
            flat = [(start, start + (reps * len) as u16)];
            rows = Rows {
                repeat: 1,
                runs: &flat,
                dst_step: 0,
            };
        }
    }
    let [a, b] = srcs;
    // Each arm passes a constant op, so the kernels compile one loop per
    // op. The integer kernels run the interpreter's lane; the arithmetic
    // ones its `f32` operation, which they narrow under the `F16`
    // operators' NaN rule.
    let lane = vector_lane_op;
    match v.op {
        VectorOp::Max => int_rows(dst, rows, a, b, |x, y| lane(VectorOp::Max, x, y)),
        VectorOp::Min => int_rows(dst, rows, a, b, |x, y| lane(VectorOp::Min, x, y)),
        VectorOp::CmpEq => int_rows(dst, rows, a, b, |x, y| lane(VectorOp::CmpEq, x, y)),
        VectorOp::Copy => int_rows(dst, rows, a, b, |x, y| lane(VectorOp::Copy, x, y)),
        VectorOp::Relu => int_rows(dst, rows, a, b, |x, y| lane(VectorOp::Relu, x, y)),
        VectorOp::Dup(k) => int_rows(dst, rows, a, b, move |x, y| lane(VectorOp::Dup(k), x, y)),
        VectorOp::Add => arith_rows(dst, rows, a, b, None, |x, y| x + y),
        VectorOp::Sub => arith_rows(dst, rows, a, b, None, |x, y| x - y),
        VectorOp::Mul => arith_rows(dst, rows, a, b, None, |x, y| x * y),
        VectorOp::MulScalar(k) => arith_rows(dst, rows, a, b, Some(k), |x, y| x * y),
    }
    bufs.note_peak(
        BufferId::Ub,
        v.dst.offset + (reps - 1) * v.dst_stride + block,
    );
    true
}

/// A scratchpad's bytes as f16 lanes (the last byte of an odd capacity
/// left out: no validated f16 access reaches it), or `None` if they are
/// not 2-byte aligned in host memory.
fn f16_view(bytes: &mut [u8]) -> Option<&mut [F16]> {
    let even = bytes.len() & !1;
    dv_fp16::try_from_bytes_mut(&mut bytes[..even])
}

fn exec_im2col(
    i: &Im2Col,
    bufs: &mut BufferSet<'_>,
    backend: Backend,
) -> Result<ExecInfo, SimError> {
    let geom = &i.geom;
    let iw = geom.iw;
    if !(backend.sliced_exec() && im2col_sliced(i, bufs)) {
        let positions = i.repeat_positions();
        for (frac_idx, &(c1, xk, yk, first_patch)) in positions.iter().enumerate() {
            let plane_base = i.src.offset + c1 * geom.src_plane_bytes();
            let frac_base = i.dst.offset + frac_idx * FRACTAL_BYTES;
            for row in 0..FRACTAL_ROWS {
                let patch = first_patch + row;
                let coord = geom.element_coord(patch, xk, yk);
                for c0 in 0..C0 {
                    let v = match coord {
                        Some((h, w)) => {
                            let off = plane_base + ((h * iw + w) * C0 + c0) * 2;
                            bufs.read_f16(i.src.buffer, off)?
                        }
                        // Padding border or past-the-grid patch slots load
                        // zeros.
                        None => F16::ZERO,
                    };
                    bufs.write_f16(i.dst.buffer, frac_base + (row * C0 + c0) * 2, v)?;
                }
            }
        }
    }
    Ok(ExecInfo {
        mnemonic: "im2col",
        unit: Unit::Scu,
        cycles: 0, // set by execute_info from CostModel::instr_cycles
        repeat: i.repeat as u32,
        useful_lanes: 0,
        total_lanes: 0,
        src: Some(i.src.buffer),
        dst: Some(i.dst.buffer),
        gm_bytes: 0,
        scratch_bytes: i.repeat as u64 * FRACTAL_BYTES as u64,
        reads: [None; 3], // set by execute_info from operand_spans
        write: None,
    })
}

/// Sliced `Im2Col`: validate the destination fractal range and the whole
/// source c1-plane range once (a patch walk only resolves elements inside
/// their plane), then copy whole 32-byte C0 rows along one
/// [`dv_isa::PatchWalk`], restarted per fractal at the repeat's kernel
/// offset; mode 0 advances `(c1, xk, yk)` as an odometer.
fn im2col_sliced(i: &Im2Col, bufs: &mut BufferSet<'_>) -> bool {
    let geom = &i.geom;
    let plane = geom.src_plane_bytes();
    let frac_bytes = i.repeat as usize * FRACTAL_BYTES;
    let (_, c1_max) = i.c1_range();
    let src_ok = i.src.buffer != BufferId::L0C
        && i.src.offset.is_multiple_of(2)
        && i.src.offset + (c1_max + 1) * plane <= bufs.capacity(i.src.buffer);
    if !src_ok || !f16_rect_ok(bufs, i.dst, 0, 1, frac_bytes) {
        return false;
    }
    // L1 into L0A, L0B or UB (validated): two distinct buffers.
    let (src, dst) = bufs.scratch_pair(i.src.buffer, i.dst.buffer);
    let (kh, kw) = (geom.params.kh, geom.params.kw);
    let (mut c1, mut xk, mut yk) = (i.c1, i.k_off.0, i.k_off.1);
    let mut first = i.first_patch;
    let mut walk = geom.patch_walk(first, i.k_off);
    let mut out = i.dst.offset;
    for _ in 0..i.repeat {
        walk.restart(first, (xk, yk));
        let plane_base = i.src.offset + c1 * plane;
        for coord in walk.by_ref().take(FRACTAL_ROWS) {
            let row = &mut dst[out..out + ROW_BYTES];
            match coord {
                Some((h, w)) => {
                    let at = plane_base + (h * geom.iw + w) * ROW_BYTES;
                    row.copy_from_slice(&src[at..at + ROW_BYTES]);
                }
                None => row.fill(0),
            }
            out += ROW_BYTES;
        }
        match i.mode {
            RepeatMode::Mode1 => first += FRACTAL_ROWS,
            RepeatMode::Mode0 => {
                yk += 1;
                if yk == kw {
                    yk = 0;
                    xk += 1;
                    if xk == kh {
                        xk = 0;
                        c1 += 1;
                    }
                }
            }
        }
    }
    bufs.note_peak(i.dst.buffer, i.dst.offset + frac_bytes);
    true
}

fn exec_col2im(
    c: &Col2Im,
    bufs: &mut BufferSet<'_>,
    backend: Backend,
) -> Result<ExecInfo, SimError> {
    let geom = &c.geom;
    let iw = geom.iw;
    let (xk, yk) = c.k_off;
    let plane_base = c.dst.offset + c.c1 * geom.src_plane_bytes();
    if !(backend.sliced_exec() && col2im_sliced(c, bufs, plane_base)) {
        for rep in 0..c.repeat as usize {
            let frac_base = c.src.offset + rep * FRACTAL_BYTES;
            for row in 0..FRACTAL_ROWS {
                let patch = c.first_patch + rep * FRACTAL_ROWS + row;
                // Patch slots past the grid and padding-border positions
                // are skipped — their contributions do not land anywhere.
                let Some((h, w)) = geom.element_coord(patch, xk, yk) else {
                    continue;
                };
                for c0 in 0..C0 {
                    let src_off = frac_base + (row * C0 + c0) * 2;
                    let dst_off = plane_base + ((h * iw + w) * C0 + c0) * 2;
                    let add = bufs.read_f16(c.src.buffer, src_off)?;
                    let cur = bufs.read_f16(c.dst.buffer, dst_off)?;
                    bufs.write_f16(c.dst.buffer, dst_off, cur + add)?;
                }
            }
        }
    }
    // Architecturally Col2Im "acts as a vector instruction" (Section
    // III-D), so its cycles are attributed to the Vector Unit.
    Ok(ExecInfo {
        mnemonic: "col2im",
        unit: Unit::Vector,
        cycles: 0, // set by execute_info from CostModel::instr_cycles
        repeat: c.repeat as u32,
        useful_lanes: 0,
        total_lanes: 0,
        src: Some(c.src.buffer),
        dst: Some(c.dst.buffer),
        gm_bytes: 0,
        scratch_bytes: 2 * c.repeat as u64 * FRACTAL_BYTES as u64, // RMW
        reads: [None; 3], // set by execute_info from operand_spans
        write: None,
    })
}

/// Sliced `Col2Im`: validate the source fractal range and the whole
/// destination c1 plane once, then run the scatter-add read-modify-write
/// (destination row `+` source row) along one [`dv_isa::PatchWalk`] over
/// all repeats, through `dv_fp16::add_slices`.
///
/// A validated geometry (stride at least 1) sends the patch slots of one
/// instruction to distinct destination rows. So when the source fractals
/// lie outside the destination plane, as every lowering places them, no
/// row reads another row's write, and rows are added [`ROWS_PER_BATCH`]
/// at a time. A source that overlaps the plane declines (`false`) before
/// touching memory, leaving the instruction to the interpreter. The
/// running write high-water mark is tracked because skipped patch slots
/// can leave the tail of the plane untouched.
fn col2im_sliced(c: &Col2Im, bufs: &mut BufferSet<'_>, plane_base: usize) -> bool {
    let geom = &c.geom;
    let slots = c.repeat as usize * FRACTAL_ROWS;
    let plane_end = plane_base + geom.src_plane_bytes();
    let dst_ok = c.dst.buffer != BufferId::L0C
        && plane_base.is_multiple_of(2)
        && plane_end <= bufs.capacity(c.dst.buffer);
    if !dst_ok || !f16_rect_ok(bufs, c.src, 0, 1, slots * ROW_BYTES) {
        return false;
    }
    let (src_start, src_end) = (c.src.offset, c.src.offset + slots * ROW_BYTES);
    if !(src_end <= plane_base || plane_end <= src_start) {
        return false;
    }
    let Some(ub) = f16_view(bufs.scratch_mut(BufferId::Ub)) else {
        return false;
    };
    let (mut cur, mut add) = ([F16::ZERO; VECTOR_LANES], [F16::ZERO; VECTOR_LANES]);
    let mut dsts = [0usize; ROWS_PER_BATCH];
    let mut rows = 0;
    let mut peak: Option<usize> = None;
    let walk = geom.patch_walk(c.first_patch, c.k_off);
    for (slot, coord) in walk.take(slots).enumerate() {
        let Some((h, w)) = coord else {
            continue;
        };
        // Lanes of the source row and of the destination row it adds to.
        let src = c.src.offset / 2 + slot * C0;
        let dst = plane_base / 2 + (h * geom.iw + w) * C0;
        let lanes = rows * C0..(rows + 1) * C0;
        cur[lanes.clone()].copy_from_slice(&ub[dst..dst + C0]);
        add[lanes].copy_from_slice(&ub[src..src + C0]);
        dsts[rows] = dst;
        rows += 1;
        if rows == ROWS_PER_BATCH {
            add_rows(ub, &dsts, &cur, &add);
            rows = 0;
        }
        let end = (dst + C0) * 2;
        peak = Some(peak.map_or(end, |p| p.max(end)));
    }
    add_rows(ub, &dsts[..rows], &cur, &add);
    if let Some(end) = peak {
        bufs.note_peak(c.dst.buffer, end);
    }
    true
}

/// C0 rows one `col2im_sliced` batch adds: one vector instruction's
/// width.
const ROWS_PER_BATCH: usize = VECTOR_LANES / C0;

/// Add the gathered C0 rows (`cur + add`, row `i` in lanes `16 i ..`) and
/// write row `i` back to UB lanes `dsts[i] ..` (span pre-validated).
fn add_rows(ub: &mut [F16], dsts: &[usize], cur: &[F16], add: &[F16]) {
    let n = dsts.len() * C0;
    let mut sum = [F16::ZERO; VECTOR_LANES];
    dv_fp16::add_slices(&cur[..n], &add[..n], &mut sum[..n]);
    for (&dst, row) in dsts.iter().zip(sum.chunks_exact(C0)) {
        ub[dst..dst + C0].copy_from_slice(row);
    }
}

fn exec_move(
    m: &DataMove,
    bufs: &mut BufferSet<'_>,
    backend: Backend,
) -> Result<ExecInfo, SimError> {
    if m.src.buffer == BufferId::L0C {
        // The L0C -> UB drain converts f32 accumulators to f16; `bytes`
        // counts source (f32) bytes.
        if !m.bytes.is_multiple_of(4) {
            return Err(SimError::Misaligned {
                buffer: BufferId::L0C,
                offset: m.bytes,
                align: 4,
            });
        }
        let n = m.bytes / 4;
        if !(backend.sliced_exec() && drain_sliced(m, bufs, n)) {
            for e in 0..n {
                let v = bufs.read_f32_l0c(m.src.offset + e * 4)?;
                bufs.write_f16(m.dst.buffer, m.dst.offset + e * 2, F16::from_f32(v))?;
            }
        }
    } else {
        bufs.copy(
            m.src.buffer,
            m.src.offset,
            m.dst.buffer,
            m.dst.offset,
            m.bytes,
        )?;
    }
    let touches_gm = m.src.buffer == BufferId::Gm || m.dst.buffer == BufferId::Gm;
    Ok(ExecInfo {
        mnemonic: "mte_move",
        unit: Unit::Mte,
        cycles: 0, // set by execute_info from CostModel::instr_cycles
        repeat: 1,
        useful_lanes: 0,
        total_lanes: 0,
        src: Some(m.src.buffer),
        dst: Some(m.dst.buffer),
        gm_bytes: if touches_gm { m.bytes as u64 } else { 0 },
        scratch_bytes: if touches_gm { 0 } else { m.bytes as u64 },
        reads: [None; 3], // set by execute_info from operand_spans
        write: None,
    })
}

/// Sliced L0C -> f16 drain: both spans validated once, then the
/// accumulators are narrowed by [`dv_fp16::narrow`] (F16C where the CPU
/// has it) straight into the destination's f16 lanes, one vector
/// instruction's width at a time. The f16 destination can never be L0C
/// (`f16_rect_ok` declines it), so the two views are always distinct
/// buffers.
fn drain_sliced(m: &DataMove, bufs: &mut BufferSet<'_>, n: usize) -> bool {
    if n == 0 {
        return true;
    }
    let src_ok = m.src.offset.is_multiple_of(4)
        && m.src
            .offset
            .checked_add(m.bytes)
            .is_some_and(|end| end <= bufs.capacity(BufferId::L0C));
    if !src_ok || !f16_rect_ok(bufs, m.dst, 0, 1, n * 2) {
        return false;
    }
    let (l0c, dst) = bufs.scratch_pair(BufferId::L0C, m.dst.buffer);
    let Some(dst) = f16_view(dst) else {
        return false;
    };
    let mut wide = [0.0f32; VECTOR_LANES];
    let accs = l0c[m.src.offset..m.src.offset + n * 4].chunks(VECTOR_LANES * 4);
    let outs = dst[m.dst.offset / 2..m.dst.offset / 2 + n].chunks_mut(VECTOR_LANES);
    for (accs, out) in accs.zip(outs) {
        for (x, acc) in wide.iter_mut().zip(accs.chunks_exact(4)) {
            *x = f32::from_le_bytes([acc[0], acc[1], acc[2], acc[3]]);
        }
        dv_fp16::narrow(&wide[..out.len()], out);
    }
    bufs.note_peak(m.dst.buffer, m.dst.offset + n * 2);
    true
}

fn exec_cube(
    c: &CubeMatmul,
    bufs: &mut BufferSet<'_>,
    backend: Backend,
) -> Result<ExecInfo, SimError> {
    const E: usize = dv_isa::cube::FRACTAL_EDGE; // 16
    let (mf, kf, nf) = (c.m_fractals, c.k_fractals, c.n_fractals);
    if !(backend.sliced_exec() && cube_sliced(c, bufs)) {
        // Tiles are stored as row-major grids of fractals, each fractal
        // row-major 16x16 f16 (f32 in L0C).
        let a_frac = |bufs: &BufferSet<'_>, fi: usize, fj: usize, r: usize, col: usize| {
            bufs.read_f16(
                c.a.buffer,
                c.a.offset + ((fi * kf + fj) * E * E + r * E + col) * 2,
            )
        };
        let b_frac = |bufs: &BufferSet<'_>, fi: usize, fj: usize, r: usize, col: usize| {
            bufs.read_f16(
                c.b.buffer,
                c.b.offset + ((fi * nf + fj) * E * E + r * E + col) * 2,
            )
        };
        for mi in 0..mf * E {
            for ni in 0..nf * E {
                let mut acc = if c.accumulate {
                    bufs.read_f32_l0c(
                        c.c.offset + (((mi / E) * nf + ni / E) * E * E + (mi % E) * E + ni % E) * 4,
                    )?
                } else {
                    0.0f32
                };
                for ki in 0..kf * E {
                    let a = a_frac(bufs, mi / E, ki / E, mi % E, ki % E)?;
                    let b = b_frac(bufs, ki / E, ni / E, ki % E, ni % E)?;
                    acc += a.to_f32() * b.to_f32();
                }
                // Which NaN a NaN `acc` holds depends on codegen; the
                // stored one does not.
                bufs.write_f32_l0c(
                    c.c.offset + (((mi / E) * nf + ni / E) * E * E + (mi % E) * E + ni % E) * 4,
                    dv_fp16::mac_nan_rule(acc),
                )?;
            }
        }
    }
    Ok(ExecInfo {
        mnemonic: "cube_mmad",
        unit: Unit::Cube,
        cycles: 0, // set by execute_info from CostModel::instr_cycles
        repeat: 1,
        useful_lanes: 0,
        total_lanes: 0,
        src: Some(c.a.buffer),
        dst: Some(c.c.buffer),
        gm_bytes: 0,
        scratch_bytes: 0,
        reads: [None; 3], // set by execute_info from operand_spans
        write: None,
    })
}

/// Sliced Cube matmul: validate the a/b f16 tiles and the L0C
/// accumulator span once, widen B, and then each fractal row of A, to
/// `f32` into the buffer set's reused staging buffers
/// ([`BufferSet::cube_views`]), and run [`dv_fp16::mac_block`] in place on
/// L0C, four rows of one C fractal at a time: the kernel holds those 64
/// accumulators over the whole `k` loop, reading each B row once per four
/// rows. Every output still adds its products in ascending `k` from its
/// initial value and stores a NaN as the interpreter does
/// ([`dv_fp16::mac_nan_rule`]) — the bit-exact contract (f32 addition is
/// not associative).
fn cube_sliced(c: &CubeMatmul, bufs: &mut BufferSet<'_>) -> bool {
    const E: usize = dv_isa::cube::FRACTAL_EDGE;
    const _: () = assert!(dv_fp16::MAC_EDGE == E, "the kernel's blocks are fractals");
    let (mf, kf, nf) = (c.m_fractals, c.k_fractals, c.n_fractals);
    let (a_bytes, b_bytes) = (mf * kf * E * E * 2, kf * nf * E * E * 2);
    let c_ok = c.c.buffer == BufferId::L0C
        && c.c.offset.is_multiple_of(4)
        && c.c
            .offset
            .checked_add(mf * nf * E * E * 4)
            .is_some_and(|end| end <= bufs.capacity(BufferId::L0C));
    if !c_ok || !f16_rect_ok(bufs, c.a, 0, 1, a_bytes) || !f16_rect_ok(bufs, c.b, 0, 1, b_bytes) {
        return false;
    }
    let CubeViews {
        l0a,
        l0b,
        l0c,
        staging: [a_row, b_tile],
    } = bufs.cube_views();
    let a = dv_fp16::try_from_bytes(&l0a[c.a.offset..c.a.offset + a_bytes]);
    let b = dv_fp16::try_from_bytes(&l0b[c.b.offset..c.b.offset + b_bytes]);
    let (Some(a), Some(b)) = (a, b) else {
        return false;
    };
    // Fractal (i, j) of a tile with `cols` fractal columns starts at
    // `(i * cols + j) * E * E`; one kernel step is one fractal along k.
    let b = widen_into(b_tile, b);
    for (fi, a) in a.chunks_exact(kf * E * E).enumerate() {
        let a = widen_into(a_row, a);
        for fj in 0..nf {
            for r0 in (0..E).step_by(dv_fp16::MAC_ROWS) {
                let at = c.c.offset + ((fi * nf + fj) * E * E + r0 * E) * 4;
                let acc = &mut l0c[at..at + dv_fp16::MAC_BLOCK_BYTES];
                if !c.accumulate {
                    acc.fill(0);
                }
                dv_fp16::mac_block(acc, &a[r0 * E..], E * E, &b[fj * E * E..], nf * E * E, kf);
            }
        }
    }
    bufs.note_peak(BufferId::L0C, c.c.offset + mf * nf * E * E * 4);
    true
}

/// `src` widened into the front of `buf`, which grows to exactly its
/// length if it is shorter.
fn widen_into<'b>(buf: &'b mut Vec<f32>, src: &[F16]) -> &'b [f32] {
    if buf.len() < src.len() {
        buf.reserve_exact(src.len() - buf.len());
        buf.resize(src.len(), 0.0);
    }
    let out = &mut buf[..src.len()];
    dv_fp16::widen(src, out);
    out
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;
    use crate::gm::LentGm;
    use dv_isa::{Addr, Mask};
    use dv_tensor::PoolParams;

    /// The scratchpads in slot order ([`scratch_sizes`]).
    const SCRATCHPADS: [BufferId; 5] = [
        BufferId::L1,
        BufferId::L0A,
        BufferId::L0B,
        BufferId::L0C,
        BufferId::Ub,
    ];

    fn setup() -> (BufferSet<'static>, CostModel, HwCounters) {
        (
            BufferSet::new(Capacities::ASCEND910, 1 << 20),
            CostModel::ascend910_like(),
            HwCounters::default(),
        )
    }

    fn f(x: f32) -> F16 {
        F16::from_f32(x)
    }

    #[test]
    fn vmax_masked_lanes_only() {
        let (mut bufs, cost, mut ctr) = setup();
        let a: Vec<F16> = (0..128).map(|i| f(i as f32)).collect();
        let b: Vec<F16> = (0..128).map(|i| f((127 - i) as f32)).collect();
        bufs.load_f16_slice(BufferId::Ub, 0, &a).unwrap();
        bufs.load_f16_slice(BufferId::Ub, 256, &b).unwrap();
        let i = Instr::Vector(VectorInstr::unit_stride(
            VectorOp::Max,
            Addr::ub(512),
            Addr::ub(0),
            Addr::ub(256),
            Mask::first_n(16),
            1,
        ));
        execute(&i, &mut bufs, &cost, &mut ctr).unwrap();
        let out = bufs.read_f16_slice(BufferId::Ub, 512, 128).unwrap();
        for lane in 0..16 {
            assert_eq!(out[lane].to_f32(), (127 - lane).max(lane) as f32);
        }
        for lane in 16..128 {
            assert_eq!(out[lane], F16::ZERO, "masked lane {lane} must not write");
        }
        assert_eq!(ctr.cycles, cost.issue_overhead + 1);
        assert_eq!(ctr.vector_useful_lanes, 16);
        assert_eq!(ctr.vector_total_lanes, 128);
    }

    #[test]
    fn vector_repeat_with_strides() {
        let (mut bufs, cost, mut ctr) = setup();
        // accumulate max over 3 blocks into one block: dst_stride = 0.
        let init: Vec<F16> = vec![F16::NEG_INFINITY; 128];
        bufs.load_f16_slice(BufferId::Ub, 0, &init).unwrap();
        for rep in 0..3usize {
            let vals: Vec<F16> = (0..128).map(|i| f((i * (rep + 1)) as f32)).collect();
            bufs.load_f16_slice(BufferId::Ub, 1024 + rep * 256, &vals)
                .unwrap();
        }
        let i = Instr::Vector(VectorInstr {
            op: VectorOp::Max,
            dst: Addr::ub(0),
            src0: Addr::ub(0),
            src1: Addr::ub(1024),
            mask: Mask::FULL,
            repeat: 3,
            dst_stride: 0,
            src0_stride: 0,
            src1_stride: 256,
        });
        execute(&i, &mut bufs, &cost, &mut ctr).unwrap();
        let out = bufs.read_f16_slice(BufferId::Ub, 0, 128).unwrap();
        for lane in 0..128 {
            assert_eq!(out[lane].to_f32(), (lane * 3) as f32);
        }
        assert_eq!(ctr.cycles, cost.issue_overhead + 3);
    }

    #[test]
    fn vdup_initialises() {
        let (mut bufs, cost, mut ctr) = setup();
        let i = Instr::Vector(VectorInstr::unit_stride(
            VectorOp::Dup(F16::NEG_INFINITY),
            Addr::ub(0),
            Addr::ub(0),
            Addr::ub(0),
            Mask::FULL,
            2,
        ));
        execute(&i, &mut bufs, &cost, &mut ctr).unwrap();
        let out = bufs.read_f16_slice(BufferId::Ub, 0, 256).unwrap();
        assert!(out.iter().all(|&x| x == F16::NEG_INFINITY));
    }

    #[test]
    fn vcmp_eq_produces_indicator() {
        let (mut bufs, cost, mut ctr) = setup();
        bufs.load_f16_slice(BufferId::Ub, 0, &[f(1.0), f(2.0), f(3.0)])
            .unwrap();
        bufs.load_f16_slice(BufferId::Ub, 256, &[f(1.0), f(9.0), f(3.0)])
            .unwrap();
        let i = Instr::Vector(VectorInstr::unit_stride(
            VectorOp::CmpEq,
            Addr::ub(512),
            Addr::ub(0),
            Addr::ub(256),
            Mask::first_n(3),
            1,
        ));
        execute(&i, &mut bufs, &cost, &mut ctr).unwrap();
        let out = bufs.read_f16_slice(BufferId::Ub, 512, 3).unwrap();
        assert_eq!(out, vec![F16::ONE, F16::ZERO, F16::ONE]);
    }

    #[test]
    fn move_gm_to_l1_and_counters() {
        let (mut bufs, cost, mut ctr) = setup();
        let vals: Vec<F16> = (0..64).map(|i| f(i as f32)).collect();
        bufs.load_f16_slice(BufferId::Gm, 0, &vals).unwrap();
        let i = Instr::Move(DataMove::new(Addr::gm(0), Addr::l1(0), 128));
        execute(&i, &mut bufs, &cost, &mut ctr).unwrap();
        assert_eq!(bufs.read_f16_slice(BufferId::L1, 0, 64).unwrap(), vals);
        assert_eq!(ctr.gm_bytes, 128);
        assert_eq!(ctr.cycles, cost.issue_overhead + cost.move_cycles(128));
    }

    /// Fig. 5 end-to-end: four mode-0 repeats of one Im2Col load the 8x8
    /// image into four fractals in the (kh, kw)-indexed order.
    #[test]
    fn im2col_figure_5() {
        let (mut bufs, cost, mut ctr) = setup();
        let params = PoolParams::new((2, 2), (2, 2));
        let geom = dv_isa::Im2ColGeometry::new(8, 8, 1, params).unwrap();
        // Input plane HWC0 in L1, value = h*8 + w (same for all c0).
        let mut plane = Vec::with_capacity(8 * 8 * C0);
        for h in 0..8 {
            for w in 0..8 {
                for _ in 0..C0 {
                    plane.push(f((h * 8 + w) as f32));
                }
            }
        }
        bufs.load_f16_slice(BufferId::L1, 0, &plane).unwrap();
        let i = Instr::Im2Col(Im2Col {
            geom,
            src: Addr::l1(0),
            dst: Addr::ub(0),
            first_patch: 0,
            k_off: (0, 0),
            c1: 0,
            repeat: 4,
            mode: dv_isa::RepeatMode::Mode0,
        });
        execute(&i, &mut bufs, &cost, &mut ctr).unwrap();
        // Fractal 0 = kernel offset (0,0): patch p at (2*(p/4), 2*(p%4)).
        for p in 0..16 {
            let (ph, pw) = (2 * (p / 4), 2 * (p % 4));
            let v = bufs.read_f16(BufferId::Ub, (p * C0) * 2).unwrap().to_f32();
            assert_eq!(v, (ph * 8 + pw) as f32, "fractal 0 patch {p}");
        }
        // Fractal 1 = kernel offset (0,1): same patches shifted right.
        for p in 0..16 {
            let (ph, pw) = (2 * (p / 4), 2 * (p % 4) + 1);
            let v = bufs
                .read_f16(BufferId::Ub, FRACTAL_BYTES + p * C0 * 2)
                .unwrap()
                .to_f32();
            assert_eq!(v, (ph * 8 + pw) as f32, "fractal 1 patch {p}");
        }
        // Fractal 3 = kernel offset (1,1).
        for p in 0..16 {
            let (ph, pw) = (2 * (p / 4) + 1, 2 * (p % 4) + 1);
            let v = bufs
                .read_f16(BufferId::Ub, 3 * FRACTAL_BYTES + p * C0 * 2)
                .unwrap()
                .to_f32();
            assert_eq!(v, (ph * 8 + pw) as f32, "fractal 3 patch {p}");
        }
        assert_eq!(ctr.issues_of("im2col"), 1);
        assert_eq!(
            ctr.cycles,
            cost.issue_overhead + 4 * cost.im2col_per_fractal
        );
    }

    /// Fig. 6: one Col2Im merges one fractal back into a zero-initialised
    /// output, summing at the scattered positions.
    #[test]
    fn col2im_figure_6() {
        let (mut bufs, cost, mut ctr) = setup();
        let params = PoolParams::new((2, 2), (2, 2));
        let geom = dv_isa::Im2ColGeometry::new(8, 8, 1, params).unwrap();
        // Input fractal at UB+0: patch p row holds value p+1.
        let mut frac = Vec::with_capacity(16 * C0);
        for p in 0..16 {
            for _ in 0..C0 {
                frac.push(f((p + 1) as f32));
            }
        }
        bufs.load_f16_slice(BufferId::Ub, 0, &frac).unwrap();
        // Output tile at UB+8192 (already zero).
        let i = Instr::Col2Im(Col2Im {
            geom,
            src: Addr::ub(0),
            dst: Addr::ub(8192),
            first_patch: 0,
            k_off: (0, 0),
            c1: 0,
            repeat: 1,
        });
        execute(&i, &mut bufs, &cost, &mut ctr).unwrap();
        // Patch p maps to input position (2*(p/4), 2*(p%4)); offset (0,0).
        for p in 0..16 {
            let (h, w) = (2 * (p / 4), 2 * (p % 4));
            let off = 8192 + ((h * 8 + w) * C0) * 2;
            assert_eq!(
                bufs.read_f16(BufferId::Ub, off).unwrap().to_f32(),
                (p + 1) as f32
            );
        }
        // Non-patch positions stay zero.
        assert_eq!(
            bufs.read_f16(BufferId::Ub, 8192 + C0 * 2).unwrap(),
            F16::ZERO
        );
        // Running the same Col2Im again doubles the values (sum semantics).
        execute(&i, &mut bufs, &cost, &mut ctr).unwrap();
        assert_eq!(bufs.read_f16(BufferId::Ub, 8192).unwrap().to_f32(), 2.0);
        assert_eq!(ctr.issues_of("col2im"), 2);
    }

    #[test]
    fn cube_matmul_single_fractal() {
        let (mut bufs, cost, mut ctr) = setup();
        // A = I (16x16 identity), B = ramp; C must equal B.
        let mut a = vec![F16::ZERO; 256];
        for i in 0..16 {
            a[i * 16 + i] = F16::ONE;
        }
        let b: Vec<F16> = (0..256).map(|i| f((i % 23) as f32)).collect();
        bufs.load_f16_slice(BufferId::L0A, 0, &a).unwrap();
        bufs.load_f16_slice(BufferId::L0B, 0, &b).unwrap();
        let i = Instr::Cube(CubeMatmul {
            a: Addr::new(BufferId::L0A, 0),
            b: Addr::new(BufferId::L0B, 0),
            c: Addr::new(BufferId::L0C, 0),
            m_fractals: 1,
            k_fractals: 1,
            n_fractals: 1,
            accumulate: false,
        });
        execute(&i, &mut bufs, &cost, &mut ctr).unwrap();
        for e in 0..256 {
            assert_eq!(bufs.read_f32_l0c(e * 4).unwrap(), b[e].to_f32());
        }
        assert_eq!(ctr.cycles, cost.issue_overhead + cost.cube_per_fractal_pair);
    }

    #[test]
    fn cube_accumulate_mode() {
        let (mut bufs, cost, mut ctr) = setup();
        let ones = vec![F16::ONE; 256];
        bufs.load_f16_slice(BufferId::L0A, 0, &ones).unwrap();
        bufs.load_f16_slice(BufferId::L0B, 0, &ones).unwrap();
        let mut mm = CubeMatmul {
            a: Addr::new(BufferId::L0A, 0),
            b: Addr::new(BufferId::L0B, 0),
            c: Addr::new(BufferId::L0C, 0),
            m_fractals: 1,
            k_fractals: 1,
            n_fractals: 1,
            accumulate: false,
        };
        execute(&Instr::Cube(mm), &mut bufs, &cost, &mut ctr).unwrap();
        assert_eq!(bufs.read_f32_l0c(0).unwrap(), 16.0);
        mm.accumulate = true;
        execute(&Instr::Cube(mm), &mut bufs, &cost, &mut ctr).unwrap();
        assert_eq!(bufs.read_f32_l0c(0).unwrap(), 32.0);
    }

    #[test]
    fn l0c_drain_converts_f32_to_f16() {
        let (mut bufs, cost, mut ctr) = setup();
        bufs.write_f32_l0c(0, 3.125).unwrap();
        bufs.write_f32_l0c(4, -2.0).unwrap();
        let i = Instr::Move(DataMove::new(Addr::new(BufferId::L0C, 0), Addr::ub(0), 8));
        execute(&i, &mut bufs, &cost, &mut ctr).unwrap();
        assert_eq!(bufs.read_f16(BufferId::Ub, 0).unwrap().to_f32(), 3.125);
        assert_eq!(bufs.read_f16(BufferId::Ub, 2).unwrap().to_f32(), -2.0);
    }

    #[test]
    fn oob_vector_access_errors() {
        let (mut bufs, cost, mut ctr) = setup();
        let cap = bufs.capacity(BufferId::Ub);
        let i = Instr::Vector(VectorInstr::unit_stride(
            VectorOp::Add,
            Addr::ub(cap - 64), // 128 lanes x 2B = 256B needed
            Addr::ub(0),
            Addr::ub(256),
            Mask::FULL,
            1,
        ));
        assert!(matches!(
            execute(&i, &mut bufs, &cost, &mut ctr),
            Err(SimError::OutOfBounds { .. })
        ));
    }

    /// Run one instruction under every backend on identically-prepared
    /// buffer sets and require the result value, every buffer's bytes,
    /// the peaks, and the counters to match the `Scalar` reference
    /// exactly — including error cases and the partial writes that
    /// precede them.
    ///
    /// A valid instruction also runs, on every backend, on scratchpads
    /// allocated at its [`footprint`], loaded with the bytes below it:
    /// the result, counters, peaks and bytes (zeros past the footprint)
    /// must equal the full-capacity run's, the bytes it holds past the
    /// footprint left out. A span that under-reports what an executor
    /// touches sends that access past the allocation.
    fn assert_backends_identical(i: &Instr, load: impl Fn(&mut BufferSet<'static>)) {
        assert_backends_identical_on(Capacities::ASCEND910, 1 << 16, i, load);
    }

    /// [`assert_backends_identical`] on buffers of the given sizes.
    fn assert_backends_identical_on(
        caps: Capacities,
        gm_bytes: usize,
        i: &Instr,
        load: impl Fn(&mut BufferSet<'static>),
    ) {
        let mut program = Program::new();
        let fp = program
            .push(i.clone())
            .is_ok()
            .then(|| footprint(&[program], caps));
        let mut reference: Option<(Result<(), SimError>, BufferSet, HwCounters)> = None;
        for backend in Backend::ALL {
            let mut bufs = BufferSet::new(caps, gm_bytes);
            load(&mut bufs);
            let cost = CostModel::ascend910_like().with_backend(backend);
            let gm = bufs.bytes(BufferId::Gm);
            let mut lent = LentGm::new(gm.len());
            lent.lend(0, &gm).unwrap();
            let mut cut = fp.map(|fp| (fp, bufs.cut_to(fp, &lent), HwCounters::default()));
            let mut ctr = HwCounters::default();
            let r = execute(i, &mut bufs, &cost, &mut ctr);
            if let Some((fp, small, small_ctr)) = &mut cut {
                let small_r = execute(i, small, &cost, small_ctr);
                assert_eq!(small_r, r, "{backend}: footprint result diverged on {i:?}");
                assert_eq!(
                    small_ctr, &ctr,
                    "{backend}: footprint counters diverged on {i:?}"
                );
                assert_eq!(
                    small.peaks(),
                    bufs.peaks(),
                    "{backend}: footprint peaks on {i:?}"
                );
                for (id, size) in SCRATCHPADS.into_iter().zip(scratch_sizes(*fp)) {
                    let mut want = bufs.bytes(id);
                    want[size..].fill(0);
                    assert!(
                        small.bytes(id) == want,
                        "{backend}: {id} bytes diverged on a footprint-sized set on {i:?}"
                    );
                }
            }
            match &reference {
                None => reference = Some((r, bufs, ctr)),
                Some((r0, b0, c0)) => {
                    assert_eq!(&r, r0, "{backend}: result diverged on {i:?}");
                    assert_eq!(&ctr, c0, "{backend}: counters diverged on {i:?}");
                    assert_eq!(
                        bufs.peaks(),
                        b0.peaks(),
                        "{backend}: peaks diverged on {i:?}"
                    );
                    for id in [
                        BufferId::Gm,
                        BufferId::L1,
                        BufferId::L0A,
                        BufferId::L0B,
                        BufferId::L0C,
                        BufferId::Ub,
                    ] {
                        assert!(
                            bufs.bytes(id) == b0.bytes(id),
                            "{backend}: {id} bytes diverged on {i:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn sliced_vector_at_exact_capacity_boundary() {
        let cap = Capacities::ASCEND910.ub;
        // The last 256-byte block of UB: in bounds by exactly zero slack.
        let i = Instr::Vector(VectorInstr::unit_stride(
            VectorOp::Add,
            Addr::ub(cap - 256),
            Addr::ub(0),
            Addr::ub(256),
            Mask::FULL,
            1,
        ));
        assert_backends_identical(&i, |b| {
            let vals: Vec<F16> = (0..256).map(|k| f((k % 19) as f32)).collect();
            b.load_f16_slice(BufferId::Ub, 0, &vals).unwrap();
        });
    }

    #[test]
    fn sliced_oob_error_and_partial_writes_match_scalar() {
        let cap = Capacities::ASCEND910.ub;
        // Three strided repeats; the third starts at the capacity edge,
        // so the reference writes two blocks and then errors. The sliced
        // path must decline up front and reproduce both the bytes and
        // the error.
        let i = Instr::Vector(VectorInstr {
            op: VectorOp::Add,
            dst: Addr::ub(cap - 512),
            src0: Addr::ub(0),
            src1: Addr::ub(0),
            mask: Mask::FULL,
            repeat: 3,
            dst_stride: 256,
            src0_stride: 0,
            src1_stride: 0,
        });
        assert_backends_identical(&i, |b| {
            let vals: Vec<F16> = (0..128).map(|k| f((k % 7) as f32)).collect();
            b.load_f16_slice(BufferId::Ub, 0, &vals).unwrap();
        });
    }

    #[test]
    fn sliced_misalignment_and_odd_strides_match_scalar() {
        // Odd destination offset: misaligned before any write.
        let i = Instr::Vector(VectorInstr::unit_stride(
            VectorOp::Copy,
            Addr::ub(129),
            Addr::ub(0),
            Addr::ub(0),
            Mask::first_n(4),
            1,
        ));
        assert_backends_identical(&i, |_| {});
        // Odd stride: the second repeat's base is misaligned, so the
        // reference writes one block and then errors mid-instruction.
        let i = Instr::Vector(VectorInstr {
            op: VectorOp::Copy,
            dst: Addr::ub(1024),
            src0: Addr::ub(0),
            src1: Addr::ub(0),
            mask: Mask::first_n(2),
            repeat: 2,
            dst_stride: 257,
            src0_stride: 0,
            src1_stride: 0,
        });
        assert_backends_identical(&i, |b| {
            b.load_f16_slice(BufferId::Ub, 0, &[f(3.0), f(4.0)])
                .unwrap();
        });
    }

    #[test]
    fn sliced_empty_mask_touches_nothing_like_scalar() {
        let cap = Capacities::ASCEND910.ub;
        // Every lane disabled: even an out-of-range base must not fire,
        // because no element is touched (matching the reference loop).
        let i = Instr::Vector(VectorInstr::unit_stride(
            VectorOp::Add,
            Addr::ub(cap - 2),
            Addr::ub(cap - 2),
            Addr::ub(cap - 2),
            Mask::first_n(0),
            2,
        ));
        assert_backends_identical(&i, |_| {});
    }

    #[test]
    fn sliced_accumulate_in_place_matches_scalar() {
        // src0 == dst with stride 0: each repeat must observe the
        // previous repeat's writes (the max-accumulate idiom).
        let i = Instr::Vector(VectorInstr {
            op: VectorOp::Max,
            dst: Addr::ub(0),
            src0: Addr::ub(0),
            src1: Addr::ub(1024),
            mask: Mask::FULL,
            repeat: 3,
            dst_stride: 0,
            src0_stride: 0,
            src1_stride: 256,
        });
        assert_backends_identical(&i, |b| {
            b.load_f16_slice(BufferId::Ub, 0, &vec![F16::NEG_INFINITY; 128])
                .unwrap();
            for rep in 0..3usize {
                let vals: Vec<F16> = (0..128).map(|k| f(((k * (rep + 1)) % 31) as f32)).collect();
                b.load_f16_slice(BufferId::Ub, 1024 + rep * 256, &vals)
                    .unwrap();
            }
        });
    }

    #[test]
    fn sliced_im2col_and_col2im_match_scalar_at_boundaries() {
        let params = PoolParams::new((2, 2), (2, 2));
        let geom = dv_isa::Im2ColGeometry::new(8, 8, 1, params).unwrap();
        let plane: Vec<F16> = (0..8 * 8 * C0).map(|k| f((k % 13) as f32)).collect();
        let cap = Capacities::ASCEND910.ub;
        // Destination fractals ending exactly at UB capacity.
        let i = Instr::Im2Col(Im2Col {
            geom,
            src: Addr::l1(0),
            dst: Addr::ub(cap - 4 * FRACTAL_BYTES),
            first_patch: 0,
            k_off: (0, 0),
            c1: 0,
            repeat: 4,
            mode: dv_isa::RepeatMode::Mode0,
        });
        assert_backends_identical(&i, |b| {
            b.load_f16_slice(BufferId::L1, 0, &plane).unwrap();
        });
        // And one fractal beyond: the reference errors partway through.
        let i = Instr::Im2Col(Im2Col {
            geom,
            src: Addr::l1(0),
            dst: Addr::ub(cap - 3 * FRACTAL_BYTES),
            first_patch: 0,
            k_off: (0, 0),
            c1: 0,
            repeat: 4,
            mode: dv_isa::RepeatMode::Mode0,
        });
        assert_backends_identical(&i, |b| {
            b.load_f16_slice(BufferId::L1, 0, &plane).unwrap();
        });
        // Col2Im scatter-add with src and dst in the same buffer, the
        // destination plane flush against the capacity edge.
        let plane_bytes = geom.src_plane_bytes();
        let i = Instr::Col2Im(Col2Im {
            geom,
            src: Addr::ub(0),
            dst: Addr::ub(cap - plane_bytes),
            first_patch: 0,
            k_off: (0, 0),
            c1: 0,
            repeat: 1,
        });
        assert_backends_identical(&i, |b| {
            let frac: Vec<F16> = (0..16 * C0).map(|k| f((k % 9 + 1) as f32)).collect();
            b.load_f16_slice(BufferId::Ub, 0, &frac).unwrap();
        });
    }

    #[test]
    fn sliced_drain_and_cube_match_scalar() {
        let cap = Capacities::ASCEND910.ub;
        // L0C drain landing exactly at the UB capacity edge.
        let i = Instr::Move(DataMove::new(
            Addr::new(BufferId::L0C, 0),
            Addr::ub(cap - 64),
            128,
        ));
        assert_backends_identical(&i, |b| {
            for e in 0..32 {
                b.write_f32_l0c(e * 4, e as f32 * 0.25 - 2.0).unwrap();
            }
        });
        // And one past it: the reference converts a prefix, then errors.
        let i = Instr::Move(DataMove::new(
            Addr::new(BufferId::L0C, 0),
            Addr::ub(cap - 62),
            128,
        ));
        assert_backends_identical(&i, |b| {
            for e in 0..32 {
                b.write_f32_l0c(e * 4, e as f32 * 0.5).unwrap();
            }
        });
        // Cube with accumulate: f32 accumulation order is part of the
        // bit-exact contract.
        let i = Instr::Cube(CubeMatmul {
            a: Addr::new(BufferId::L0A, 0),
            b: Addr::new(BufferId::L0B, 0),
            c: Addr::new(BufferId::L0C, 0),
            m_fractals: 1,
            k_fractals: 2,
            n_fractals: 1,
            accumulate: true,
        });
        assert_backends_identical(&i, |b| {
            let a: Vec<F16> = (0..512).map(|k| f(((k % 17) as f32) * 0.125)).collect();
            let bb: Vec<F16> = (0..512)
                .map(|k| f(((k % 23) as f32) * 0.25 - 1.0))
                .collect();
            b.load_f16_slice(BufferId::L0A, 0, &a).unwrap();
            b.load_f16_slice(BufferId::L0B, 0, &bb).unwrap();
            for e in 0..256 {
                b.write_f32_l0c(e * 4, (e % 11) as f32).unwrap();
            }
        });
    }

    /// f16 edge values: signed zeros, infinities, quiet and signalling
    /// NaN payloads of both signs, subnormals, ±MAX and two ordinary
    /// values.
    const EDGES: [u16; 16] = [
        0x0000, 0x8000, 0x7C00, 0xFC00, 0x7E00, 0x7C01, 0xFE01, 0x7FFF, 0x0001, 0x03FF, 0x8001,
        0x83FF, 0x7BFF, 0xFBFF, 0x3C00, 0xC100,
    ];

    /// The row kernels against the `Scalar` interpreter, bit for bit in
    /// every buffer's bytes, counters, peaks and result, on operands drawn
    /// from the f16 edge values: every op × mask shape (full, prefix,
    /// `C0_ONLY`, two runs, empty, alternating lanes, the first lane, the
    /// last lane) × repeat 1, 2, 3 and 255 × destination (stride 256,
    /// stride 0, a stride shorter than the run, and one whose third repeat
    /// runs off the end of UB, so the partial writes before the error are
    /// compared too) × a placement for each source the op reads: the
    /// destination itself, disjoint below, disjoint above, the
    /// destination's offset with another stride, a partial overlap from
    /// above, one lane and 32 lanes below the destination (overlapping it
    /// unless the run is short and there is one repeat), stride 0, and a
    /// stride shorter than the run. The direct path takes the identical
    /// and disjoint placements (coalescing full unit-stride rows); the
    /// others decline to the interpreter.
    #[test]
    fn vector_lane_runs_match_scalar_on_the_edge_grid() {
        let ops = [
            VectorOp::Max,
            VectorOp::Min,
            VectorOp::Add,
            VectorOp::Sub,
            VectorOp::Mul,
            VectorOp::CmpEq,
            VectorOp::Copy,
            VectorOp::Relu,
            VectorOp::MulScalar(F16::from_bits(0x83FF)),
            VectorOp::MulScalar(F16::from_bits(0x7E01)),
            VectorOp::Dup(F16::NEG_INFINITY),
            VectorOp::Dup(F16::from_bits(0xFE01)),
        ];
        let alternating = 0x5555_5555_5555_5555;
        let masks = [
            Mask::FULL,
            Mask::first_n(37),
            Mask::C0_ONLY,
            Mask::from_words(0xFFFF << 8, 0xFFFF_FFFF << 36),
            Mask::EMPTY,
            Mask::from_words(alternating, alternating),
            Mask::first_n(1),
            Mask::from_words(0, 1 << 63),
        ];
        const REGION: usize = 64 << 10;
        let caps = Capacities {
            l1: 64,
            l0a: 64,
            l0b: 64,
            l0c: 64,
            ub: 4 * REGION,
        };
        let (a, b, c) = (0, REGION, 2 * REGION);
        // (offset, stride) of the destination.
        let dsts = [(b, 256), (b, 0), (b, 32), (caps.ub - 512, 256)];
        // (offset, stride) of a source placed against a destination.
        let placements = |(d, s): (usize, usize)| {
            [
                (d, s),       // the destination itself
                (a, 256),     // disjoint below
                (c, 256),     // disjoint above
                (d, s + 256), // the same offset, another stride
                (d + 2, s),   // a partial overlap from above
                (d - 2, s),   // one lane below, overlapping
                (d - 64, s),  // 32 lanes below, overlapping
                (c + 128, 0), // stride 0
                (a + 64, 32), // a stride shorter than the run
            ]
        };
        let image: Vec<F16> = (0..3 * REGION / 2)
            .map(|k| {
                let h = (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 59;
                F16::from_bits(EDGES[h as usize % EDGES.len()])
            })
            .collect();
        for op in ops {
            for dst in dsts {
                // A source the op does not read keeps one placement.
                let src0s = &placements(dst)[..if op.has_src0() { 9 } else { 1 }];
                let src1s = &placements(dst)[..if op.has_src1() { 9 } else { 1 }];
                for &(src0, src0_stride) in src0s {
                    for &(src1, src1_stride) in src1s {
                        for mask in masks {
                            for repeat in [1, 2, 3, 255] {
                                let i = Instr::Vector(VectorInstr {
                                    op,
                                    dst: Addr::ub(dst.0),
                                    src0: Addr::ub(src0),
                                    src1: Addr::ub(src1),
                                    mask,
                                    repeat,
                                    dst_stride: dst.1,
                                    src0_stride,
                                    src1_stride,
                                });
                                assert_backends_identical_on(caps, 0, &i, |bufs| {
                                    bufs.load_f16_slice(BufferId::Ub, 0, &image).unwrap();
                                });
                            }
                        }
                    }
                }
            }
        }
    }

    /// An operand span or Cube tile that would end past `usize::MAX` is a
    /// typed ISA error on every backend, in debug and in release, before
    /// any byte moves or any cycle is charged: never an arithmetic
    /// overflow panic, and never a wrapped address run as a negative
    /// stride. The SCU cases place plane 1 of an 8×8 K2S2 tile one plane
    /// below the top of the address space.
    #[test]
    fn overflowing_operand_spans_are_typed_errors_on_every_backend() {
        let wraps = Instr::Vector(VectorInstr {
            op: VectorOp::Max,
            dst: Addr::ub(512),
            src0: Addr::ub(512),
            src1: Addr::ub(0),
            mask: Mask::FULL,
            repeat: 2,
            dst_stride: usize::MAX - 255,
            src0_stride: usize::MAX - 255,
            src1_stride: 0,
        });
        let huge_tile = Instr::Cube(CubeMatmul {
            a: Addr::new(BufferId::L0A, 0),
            b: Addr::new(BufferId::L0B, 0),
            c: Addr::new(BufferId::L0C, 0),
            m_fractals: 1 << 60,
            k_fractals: 1,
            n_fractals: 1,
            accumulate: false,
        });
        let geom = dv_isa::Im2ColGeometry::new(8, 8, 2, PoolParams::new((2, 2), (2, 2))).unwrap();
        let top_plane = 0usize.wrapping_sub(geom.src_plane_bytes());
        let im2col = Instr::Im2Col(Im2Col {
            geom,
            src: Addr::l1(top_plane),
            dst: Addr::ub(0),
            first_patch: 0,
            k_off: (0, 0),
            c1: 1,
            repeat: 1,
            mode: RepeatMode::Mode1,
        });
        let col2im = Instr::Col2Im(Col2Im {
            geom,
            src: Addr::ub(0),
            dst: Addr::ub(top_plane),
            first_patch: 0,
            k_off: (0, 0),
            c1: 1,
            repeat: 1,
        });
        for i in [wraps, huge_tile, im2col, col2im] {
            let load = |bufs: &mut BufferSet<'static>| {
                let vals: Vec<F16> = (0..512).map(|k| f((k % 29) as f32 - 9.0)).collect();
                bufs.load_f16_slice(BufferId::Ub, 0, &vals).unwrap();
            };
            assert_backends_identical(&i, load);
            for backend in Backend::ALL {
                let mut bufs = BufferSet::new(Capacities::ASCEND910, 1 << 16);
                load(&mut bufs);
                let cost = CostModel::ascend910_like().with_backend(backend);
                let mut ctr = HwCounters::default();
                let r = execute(&i, &mut bufs, &cost, &mut ctr);
                assert!(
                    matches!(r, Err(SimError::Isa(dv_isa::IsaError::SpanOverflow { .. }))),
                    "{backend}: {r:?}"
                );
                assert_eq!(ctr, HwCounters::default(), "{backend}");
            }
        }
    }

    /// `Col2Im` on the batched row path against the `Scalar` interpreter,
    /// bit for bit, on f16 edge values: source fractals apart from the
    /// destination plane (rows added eight at a time), and inside it ahead
    /// of or just below the rows they add into (declined to the
    /// interpreter).
    #[test]
    fn col2im_rows_match_scalar_on_the_edge_grid() {
        let caps = Capacities {
            l1: 64,
            l0a: 64,
            l0b: 64,
            l0c: 64,
            ub: 64 << 10,
        };
        let image: Vec<F16> = (0..caps.ub / 2)
            .map(|k| {
                let h = (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 59;
                F16::from_bits(EDGES[h as usize % EDGES.len()])
            })
            .collect();
        let geometries = [
            (8, 8, PoolParams::new((2, 2), (2, 2))),
            (
                9,
                9,
                PoolParams::with_padding((3, 3), (2, 2), dv_tensor::Padding::uniform(1)),
            ),
            (7, 7, PoolParams::new((3, 3), (1, 1))),
        ];
        let base = 32 << 10;
        for (ih, iw, params) in geometries {
            let geom = dv_isa::Im2ColGeometry::new(ih, iw, 2, params).unwrap();
            let plane = geom.src_plane_bytes();
            for c1 in [0, 1] {
                let plane_base = base + c1 * plane;
                // Apart, below the plane; inside it, ahead of the first
                // rows; two bytes below the first patch's row.
                for src in [0, plane_base + 3 * ROW_BYTES + 2, plane_base - 2] {
                    for (first_patch, k_off, repeat) in [(0, (0, 0), 1), (5, (1, 1), 3)] {
                        let i = Instr::Col2Im(Col2Im {
                            geom,
                            src: Addr::ub(src),
                            dst: Addr::ub(base),
                            first_patch,
                            k_off,
                            c1,
                            repeat,
                        });
                        assert_backends_identical_on(caps, 0, &i, |bufs| {
                            bufs.load_f16_slice(BufferId::Ub, 0, &image).unwrap();
                        });
                    }
                }
            }
        }
    }

    /// The Cube wall: `cube_mmad` on every backend against the `Scalar`
    /// interpreter, bit for bit in L0C (and every other buffer), counters,
    /// peaks and result. It covers the model segments' tile shapes
    /// (m×k×n fractals 14×9×4, 8×9×4, 14×9×8, 11×9×8), small and odd
    /// ones, accumulate on and off, operands from the f16 edge values and
    /// seeded finite ones, and NaN-laden and finite initial accumulators;
    /// then a tile ending exactly at L0C capacity and one fractal past it,
    /// which is a typed error with the same partial writes everywhere.
    #[test]
    fn cube_tiles_match_scalar_on_the_edge_grid() {
        const E: usize = dv_isa::cube::FRACTAL_EDGE;
        let hash = |k: usize, salt: usize| {
            (((k ^ (salt << 32)) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as usize
        };
        let edge = |k: usize, salt: usize| F16::from_bits(EDGES[hash(k, salt) % EDGES.len()]);
        // Any sign, exponents 2^-4 to 2^3, any mantissa: products carry
        // up to 22 significant bits, so the f32 sums round and their
        // order shows.
        let finite = |k: usize, salt: usize| {
            let h = hash(k, salt);
            F16::from_bits(((h & 1) << 15 | (11 + (h >> 1) % 8) << 10 | (h >> 4) & 0x3FF) as u16)
        };
        // f32 accumulators: NaN payloads of both signs, infinities and
        // signed zeros among finite values, or finite values only.
        let nan_init = |k: usize| match hash(k, 5) % 8 {
            0 => f32::from_bits(0x7FC0_0001),
            1 => f32::from_bits(0xFF80_0F00),
            2 => f32::INFINITY,
            3 => -0.0,
            _ => (hash(k, 6) % 97) as f32 * 0.37 - 30.0,
        };
        let finite_init = |k: usize| {
            let h = hash(k, 7) as u32;
            f32::from_bits((h & 1) << 31 | (120 + (h >> 1) % 16) << 23 | (h & 0x7F_FFFF))
        };
        let caps = Capacities::ASCEND910;
        let load = |mm: &CubeMatmul, edges: bool, nan_acc: bool| {
            let (mf, kf, nf) = (mm.m_fractals, mm.k_fractals, mm.n_fractals);
            let value = |k: usize, salt: usize| {
                if edges {
                    edge(k, salt)
                } else {
                    finite(k, salt)
                }
            };
            let a: Vec<F16> = (0..mf * kf * E * E).map(|k| value(k, 1)).collect();
            let b: Vec<F16> = (0..kf * nf * E * E).map(|k| value(k, 2)).collect();
            let (c0, c_len) = (mm.c.offset / 4, mf * nf * E * E);
            move |bufs: &mut BufferSet<'static>| {
                bufs.load_f16_slice(BufferId::L0A, 0, &a).unwrap();
                bufs.load_f16_slice(BufferId::L0B, 0, &b).unwrap();
                let l0c = bufs.capacity(BufferId::L0C) / 4;
                for e in c0..(c0 + c_len).min(l0c) {
                    let x = if nan_acc { nan_init(e) } else { finite_init(e) };
                    bufs.write_f32_l0c(e * 4, x).unwrap();
                }
            }
        };
        let mmad = |(m, k, n): (usize, usize, usize), c_at: usize, accumulate: bool| CubeMatmul {
            a: Addr::new(BufferId::L0A, 0),
            b: Addr::new(BufferId::L0B, 0),
            c: Addr::new(BufferId::L0C, c_at),
            m_fractals: m,
            k_fractals: k,
            n_fractals: n,
            accumulate,
        };
        let shapes = [
            (14, 9, 4),
            (8, 9, 4),
            (14, 9, 8),
            (11, 9, 8),
            (1, 1, 1),
            (3, 5, 2),
        ];
        for shape in shapes {
            for accumulate in [false, true] {
                for (edges, nan_acc) in [(true, true), (true, false), (false, true), (false, false)]
                {
                    let mm = mmad(shape, 0, accumulate);
                    let i = Instr::Cube(mm);
                    assert_backends_identical_on(caps, 0, &i, load(&mm, edges, nan_acc));
                }
            }
        }
        // (3, 5, 2) writes 6 C fractals: flush against the end of L0C,
        // then one fractal past it.
        let tile = 6 * E * E * 4;
        for (c_at, fits) in [
            (caps.l0c - tile, true),
            (caps.l0c - tile + E * E * 4, false),
        ] {
            for accumulate in [false, true] {
                let mm = mmad((3, 5, 2), c_at, accumulate);
                let i = Instr::Cube(mm);
                assert_backends_identical_on(caps, 0, &i, load(&mm, true, true));
                let mut bufs = BufferSet::new(caps, 0);
                load(&mm, true, true)(&mut bufs);
                let cost = CostModel::ascend910_like().with_backend(Backend::Sliced);
                let r = execute(&i, &mut bufs, &cost, &mut HwCounters::default());
                assert_eq!(r.is_ok(), fits, "{c_at}: {r:?}");
                if !fits {
                    assert!(matches!(r, Err(SimError::OutOfBounds { .. })), "{r:?}");
                }
            }
        }
    }

    /// A geometry edited after construction (its fields are public) is a
    /// typed ISA error at execute, for both SCU instructions, never the
    /// `out_dims` panic.
    #[test]
    fn edited_geometry_is_a_typed_error_at_execute() {
        let (mut bufs, cost, mut ctr) = setup();
        let mut geom =
            dv_isa::Im2ColGeometry::new(8, 8, 1, PoolParams::new((2, 2), (2, 2))).unwrap();
        geom.params = PoolParams::new((9, 9), (1, 1));
        let im2col = Instr::Im2Col(Im2Col {
            geom,
            src: Addr::l1(0),
            dst: Addr::ub(0),
            first_patch: 0,
            k_off: (0, 0),
            c1: 0,
            repeat: 1,
            mode: dv_isa::RepeatMode::Mode1,
        });
        let col2im = Instr::Col2Im(Col2Im {
            geom,
            src: Addr::ub(0),
            dst: Addr::ub(8192),
            first_patch: 0,
            k_off: (0, 0),
            c1: 0,
            repeat: 1,
        });
        for i in [im2col, col2im] {
            assert!(matches!(
                execute(&i, &mut bufs, &cost, &mut ctr),
                Err(SimError::Isa(dv_isa::IsaError::Shape(_)))
            ));
        }
        assert_eq!(ctr, HwCounters::default());
    }

    #[test]
    fn invalid_instruction_rejected_at_execute() {
        let (mut bufs, cost, mut ctr) = setup();
        let i = Instr::Move(DataMove::new(Addr::gm(0), Addr::new(BufferId::L0A, 0), 4));
        assert!(matches!(
            execute(&i, &mut bufs, &cost, &mut ctr),
            Err(SimError::Isa(_))
        ));
    }
}
