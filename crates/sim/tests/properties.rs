//! Property-based tests: every simulated instruction against a scalar
//! model of its semantics, over randomized operands, masks, repeats and
//! strides — and the dual-pipe scoreboard against a reference model of
//! its one hazard rule, over randomized straight-line programs.

use dv_fp16::F16;
use dv_isa::{
    Addr, BufferId, Col2Im, CubeMatmul, DataMove, Im2Col, Im2ColGeometry, Instr, Mask, RepeatMode,
    VectorInstr, VectorOp, VECTOR_LANES,
};
use dv_sim::{AiCore, CostModel, TraceConfig};
use dv_tensor::{im2col_fractal, Nc1hwc0, PoolParams, C0, FRACTAL_BYTES, FRACTAL_ROWS};
use proptest::prelude::*;

fn core() -> AiCore<'static> {
    AiCore::new(CostModel::ascend910_like(), 1 << 16)
}

fn f16s(len: usize, seed: u64) -> Vec<F16> {
    let mut s = seed | 1;
    (0..len)
        .map(|_| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            F16::from_f32(((s >> 34) % 65) as f32 * 0.5 - 16.0)
        })
        .collect()
}

fn vec_op() -> impl Strategy<Value = VectorOp> {
    prop_oneof![
        Just(VectorOp::Max),
        Just(VectorOp::Min),
        Just(VectorOp::Add),
        Just(VectorOp::Sub),
        Just(VectorOp::Mul),
        Just(VectorOp::CmpEq),
        Just(VectorOp::Copy),
        Just(VectorOp::Relu),
        (-8i32..=8).prop_map(|s| VectorOp::MulScalar(F16::from_f32(s as f32 * 0.5))),
        (-8i32..=8).prop_map(|s| VectorOp::Dup(F16::from_f32(s as f32 * 0.5))),
    ]
}

fn scalar_semantics(op: VectorOp, a: F16, b: F16) -> F16 {
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

/// A byte span `[start, end)` in one buffer, as the hazard oracle sees
/// it.
type Span = (BufferId, usize, usize);

/// One generated instruction with the pipe and byte spans the hazard
/// oracle charges it against — derived here from the instruction's
/// operands, independently of the simulator's own bookkeeping.
struct Gen {
    instr: Instr,
    pipe: usize,
    reads: Vec<Span>,
    write: Span,
}

/// Slot offsets shared by every buffer: with operands of 256 bytes to
/// 8 KiB, neighbouring low slots overlap often, so RAW, WAR and WAW
/// hazards are dense in every buffer, GM included; the high slots are
/// far apart, so one pipe can run long ahead of the other.
const SLOTS: [usize; 8] = [0, 256, 512, 768, 16 << 10, 24 << 10, 32 << 10, 48 << 10];

/// [`gen_instr`]'s kinds on pipe 0 and on pipe 1.
const PIPE0_KINDS: [u8; 7] = [0, 1, 2, 3, 7, 8, 9];
const PIPE1_KINDS: [u8; 5] = [4, 5, 6, 10, 11];

/// The SCU instructions' geometry: 8×8 planes, K1S1 (four fractals per
/// plane), two c1 planes of 2 KiB.
fn scu_geometry() -> Im2ColGeometry {
    Im2ColGeometry::new(8, 8, 2, PoolParams::new((1, 1), (1, 1))).unwrap()
}

/// Decode `(kind, a, b, c, blocks)`, `a` the destination's slot and `b`,
/// `c` the sources'. On pipe 0: MTE moves GM->UB, UB->GM, GM->L1, L1->UB
/// (the scratchpad-to-scratchpad path; Fig. 4 has no UB->UB move) and
/// L1->L0A/L0B of `blocks * 256` bytes, `Im2Col` L1->UB/L0A of `2 *
/// blocks` fractals from plane `c % 2`, and the L0C->UB drain of `blocks`
/// 2 KiB of accumulators. On pipe 1: Vector `vadd`/`vcopy`/`vdup` over UB
/// (`blocks` repeats), Cube `mmad` (`blocks`×8×`blocks` fractals,
/// accumulating for odd `c`) and `Col2Im` of `2 * blocks` fractals into
/// plane `c % 2`. The Cube takes 24-48 cycles, the SCU instructions
/// 56-96 and the drain 80-144, against 17-32 for the others.
fn gen_instr((kind, a, b, c, blocks): (u8, usize, usize, usize, usize)) -> Gen {
    use BufferId::{Gm, Ub, L0A, L0B, L0C, L1};
    let bytes = blocks * 256;
    let span = |buf: BufferId, slot: usize, len: usize| (buf, SLOTS[slot], SLOTS[slot] + len);
    let addr = |buf: BufferId, slot: usize| Addr::new(buf, SLOTS[slot]);
    let mv = |src: BufferId, dst: BufferId, bytes: usize, written: usize| Gen {
        instr: Instr::Move(DataMove::new(addr(src, b), addr(dst, a), bytes)),
        pipe: 0,
        reads: vec![span(src, b, bytes)],
        write: span(dst, a, written),
    };
    let vector = |op: VectorOp, sources: usize| Gen {
        instr: Instr::Vector(VectorInstr::unit_stride(
            op,
            addr(Ub, a),
            addr(Ub, b),
            addr(Ub, c),
            Mask::FULL,
            blocks as u16,
        )),
        pipe: 1,
        reads: [span(Ub, b, bytes), span(Ub, c, bytes)][..sources].to_vec(),
        write: span(Ub, a, bytes),
    };
    let geom = scu_geometry();
    let plane = geom.src_plane_bytes();
    let (c1, fractals) = (c % 2, 2 * blocks);
    let im2col = |dst: BufferId| Gen {
        instr: Instr::Im2Col(Im2Col {
            geom,
            src: addr(L1, b),
            dst: addr(dst, a),
            first_patch: 0,
            k_off: (0, 0),
            c1,
            repeat: fractals as u16,
            mode: RepeatMode::Mode1,
        }),
        pipe: 0,
        reads: vec![(L1, SLOTS[b] + c1 * plane, SLOTS[b] + (c1 + 1) * plane)],
        write: span(dst, a, fractals * FRACTAL_BYTES),
    };
    let fractal = 16 * 16;
    match kind {
        0 => mv(Gm, Ub, bytes, bytes),
        1 => mv(Ub, Gm, bytes, bytes),
        2 => mv(Gm, L1, bytes, bytes),
        3 => mv(L1, Ub, bytes, bytes),
        4 => vector(VectorOp::Add, 2),
        5 => vector(VectorOp::Copy, 1),
        6 => vector(VectorOp::Dup(F16::ONE), 0),
        7 => mv(L1, [L0A, L0B][c % 2], bytes, bytes),
        8 => im2col([Ub, L0A][c % 2]),
        9 => mv(L0C, Ub, blocks * 2048, blocks * 1024),
        10 => {
            let (m, k, n, accumulate) = (blocks, 8, blocks, c % 2 == 1);
            let acc = span(L0C, a, m * n * fractal * 4);
            let mut reads = vec![
                span(L0A, b, m * k * fractal * 2),
                span(L0B, c, k * n * fractal * 2),
            ];
            if accumulate {
                reads.push(acc);
            }
            Gen {
                instr: Instr::Cube(CubeMatmul {
                    a: addr(L0A, b),
                    b: addr(L0B, c),
                    c: addr(L0C, a),
                    m_fractals: m,
                    k_fractals: k,
                    n_fractals: n,
                    accumulate,
                }),
                pipe: 1,
                reads,
                write: acc,
            }
        }
        _ => {
            let dst_plane = (Ub, SLOTS[a] + c1 * plane, SLOTS[a] + (c1 + 1) * plane);
            Gen {
                instr: Instr::Col2Im(Col2Im {
                    geom,
                    src: addr(Ub, b),
                    dst: addr(Ub, a),
                    first_patch: 0,
                    k_off: (0, 0),
                    c1,
                    repeat: fractals as u16,
                }),
                pipe: 1,
                reads: vec![span(Ub, b, fractals * FRACTAL_BYTES), dst_plane],
                write: dst_plane,
            }
        }
    }
}

/// The reference model: each instruction starts at the later of its
/// pipe's free cycle and the finish of every earlier instruction it has
/// a RAW, WAR or WAW overlap with, in any buffer. Returns each
/// instruction's `(start, stall)` and the makespan.
fn hazard_oracle(gens: &[Gen], cost: &CostModel) -> (Vec<(u64, u64)>, u64) {
    let overlaps = |x: &Span, y: &Span| x.0 == y.0 && x.1 < y.2 && y.1 < x.2;
    let mut pipe_free = [0u64; 2];
    let mut finish: Vec<u64> = Vec::with_capacity(gens.len());
    let mut timing = Vec::with_capacity(gens.len());
    for (i, g) in gens.iter().enumerate() {
        let mut start = pipe_free[g.pipe];
        for (e, &f) in gens[..i].iter().zip(&finish) {
            let raw = g.reads.iter().any(|r| overlaps(r, &e.write));
            let war = e.reads.iter().any(|r| overlaps(r, &g.write));
            let waw = overlaps(&g.write, &e.write);
            if raw || war || waw {
                start = start.max(f);
            }
        }
        timing.push((start, start - pipe_free[g.pipe]));
        pipe_free[g.pipe] = start + cost.instr_cycles(&g.instr);
        finish.push(pipe_free[g.pipe]);
    }
    (timing, finish.into_iter().max().unwrap_or(0))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The dual-pipe scoreboard implements exactly one hazard rule: on
    /// random straight-line programs of up to 200 MTE, SCU, Vector and
    /// Cube instructions over overlapping spans, every traced issue cycle
    /// and stall, and the traced and untraced stall totals, per-pipe
    /// stalls and makespan equal the reference model's. Each program
    /// puts its own share (10-90%) of instructions on pipe 1, so one
    /// pipe often runs far ahead of the other: in-flight queues of more
    /// than 100 accesses occur.
    #[test]
    fn scoreboard_matches_the_hazard_reference_model(
        pipe1_share in 1usize..10,
        ops in prop::collection::vec(
            (0usize..10, 0usize..35, 0usize..8, 0usize..8, 0usize..8, 1usize..=2),
            1..=200,
        ),
    ) {
        let gens: Vec<Gen> = ops
            .into_iter()
            .map(|(pick, kind, a, b, c, blocks)| {
                let kind = if pick < pipe1_share {
                    PIPE1_KINDS[kind % PIPE1_KINDS.len()]
                } else {
                    PIPE0_KINDS[kind % PIPE0_KINDS.len()]
                };
                gen_instr((kind, a, b, c, blocks))
            })
            .collect();
        let mut p = dv_isa::Program::new();
        for g in &gens {
            p.push(g.instr.clone()).unwrap();
        }
        let mut traced = core();
        traced.set_trace(TraceConfig::ON);
        traced.run(&p).unwrap();
        let mut untraced = core();
        untraced.run(&p).unwrap();

        let (want, makespan) = hazard_oracle(&gens, traced.cost());
        let events = &traced.trace().events;
        prop_assert_eq!(events.len(), gens.len());
        for (i, (e, &(start, stall))) in events.iter().zip(&want).enumerate() {
            prop_assert_eq!((e.start, e.stall), (start, stall), "instruction {}", i);
        }
        let mut pipe_stalls = [0u64; 2];
        for (g, &(_, stall)) in gens.iter().zip(&want) {
            pipe_stalls[g.pipe] += stall;
        }
        for counters in [traced.counters(), untraced.counters()] {
            prop_assert_eq!(counters.cycles, makespan);
            prop_assert_eq!(counters.stall_cycles, pipe_stalls[0] + pipe_stalls[1]);
            prop_assert_eq!(counters.pipe_stalls, pipe_stalls);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Vector instructions with disjoint operands match the scalar model
    /// lane by lane; masked-off lanes never write.
    #[test]
    fn vector_instr_matches_scalar_model(
        op in vec_op(),
        mask_lanes in 0usize..=VECTOR_LANES,
        repeat in 1u16..=4,
        seed in any::<u64>(),
    ) {
        let mut core = core();
        let total = VECTOR_LANES * repeat as usize;
        let src0v = f16s(total, seed);
        let src1v = f16s(total, seed ^ 0x1111);
        let sentinel = F16::from_f32(-999.0);
        core.buffers_mut().load_f16_slice(BufferId::Ub, 0, &src0v).unwrap();
        core.buffers_mut().load_f16_slice(BufferId::Ub, 8192, &src1v).unwrap();
        core.buffers_mut()
            .load_f16_slice(BufferId::Ub, 16384, &vec![sentinel; total])
            .unwrap();
        let mask = Mask::first_n(mask_lanes);
        let instr = Instr::Vector(VectorInstr::unit_stride(
            op,
            Addr::ub(16384),
            Addr::ub(0),
            Addr::ub(8192),
            mask,
            repeat,
        ));
        if mask_lanes == 0 {
            // empty mask is legal and writes nothing
        }
        let mut p = dv_isa::Program::new();
        p.push(instr).unwrap();
        core.run(&p).unwrap();
        let out = core.buffers().read_f16_slice(BufferId::Ub, 16384, total).unwrap();
        for r in 0..repeat as usize {
            for lane in 0..VECTOR_LANES {
                let i = r * VECTOR_LANES + lane;
                if lane < mask_lanes {
                    let want = scalar_semantics(op, src0v[i], src1v[i]);
                    prop_assert_eq!(out[i], want, "repeat {} lane {}", r, lane);
                } else {
                    prop_assert_eq!(out[i], sentinel, "masked lane {} wrote", lane);
                }
            }
        }
    }

    /// In-place accumulation with dst == src0, stride 0, and a strided
    /// src1 reduces sequentially — the baseline pooling pattern.
    #[test]
    fn strided_accumulation_is_sequential(repeat in 1u16..=5, seed in any::<u64>()) {
        let mut core = core();
        let init = f16s(16, seed ^ 0xAA);
        let src = f16s(16 * repeat as usize, seed);
        core.buffers_mut().load_f16_slice(BufferId::Ub, 0, &init).unwrap();
        core.buffers_mut().load_f16_slice(BufferId::Ub, 4096, &src).unwrap();
        let instr = Instr::Vector(VectorInstr {
            op: VectorOp::Add,
            dst: Addr::ub(0),
            src0: Addr::ub(0),
            src1: Addr::ub(4096),
            mask: Mask::C0_ONLY,
            repeat,
            dst_stride: 0,
            src0_stride: 0,
            src1_stride: 32,
        });
        let mut p = dv_isa::Program::new();
        p.push(instr).unwrap();
        core.run(&p).unwrap();
        let out = core.buffers().read_f16_slice(BufferId::Ub, 0, 16).unwrap();
        for lane in 0..16 {
            let mut acc = init[lane];
            for r in 0..repeat as usize {
                acc += src[r * 16 + lane];
            }
            prop_assert_eq!(out[lane], acc, "lane {}", lane);
        }
    }

    /// A full mode-1 Im2Col plane load equals the corresponding slice of
    /// the golden im2col transform, for random geometries.
    #[test]
    fn im2col_instruction_matches_reference(
        kh in 1usize..=3, kw in 1usize..=3,
        sh in 1usize..=3, sw in 1usize..=3,
        ih in 6usize..=14, iw in 6usize..=14,
        xk_sel in 0usize..9, yk_sel in 0usize..9,
        seed in any::<u64>(),
    ) {
        let params = PoolParams::new((kh, kw), (sh, sw));
        prop_assume!(params.out_dims(ih, iw).is_ok());
        let geom = Im2ColGeometry::new(ih, iw, 1, params).unwrap();
        let (xk, yk) = (xk_sel % kh, yk_sel % kw);
        let input = Nc1hwc0::from_fn(1, 1, ih, iw, |_, _, h, w, c0| {
            F16::from_f32(((seed as usize + h * 131 + w * 17 + c0) % 251) as f32 - 125.0)
        });
        let mut core = core();
        core.buffers_mut()
            .load_f16_slice(BufferId::L1, 0, input.data())
            .unwrap();
        let bf = geom.fractals_per_plane();
        let mut p = dv_isa::Program::new();
        p.push(Instr::Im2Col(Im2Col {
            geom,
            src: Addr::l1(0),
            dst: Addr::ub(0),
            first_patch: 0,
            k_off: (xk, yk),
            c1: 0,
            repeat: bf as u16,
            mode: RepeatMode::Mode1,
        })).unwrap();
        core.run(&p).unwrap();

        let golden = im2col_fractal(&input, &params).unwrap();
        let (oh, ow) = geom.out_dims();
        for patch in 0..oh * ow {
            for c0 in 0..C0 {
                let got = core
                    .buffers()
                    .read_f16(BufferId::Ub, (patch * C0 + c0) * 2)
                    .unwrap();
                let want = golden.get(0, 0, xk, yk, patch / ow, patch % ow, c0);
                prop_assert_eq!(got, want, "patch {} c0 {}", patch, c0);
            }
        }
        // zero-fill of the padded tail slots
        for patch in oh * ow..bf * FRACTAL_ROWS {
            let got = core
                .buffers()
                .read_f16(BufferId::Ub, (patch * C0) * 2)
                .unwrap();
            prop_assert_eq!(got, F16::ZERO, "tail patch {}", patch);
        }
    }

    /// Col2Im of one plane equals the golden col2im restricted to that
    /// kernel offset (scatter into a zeroed target).
    #[test]
    fn col2im_instruction_matches_reference(
        kh in 1usize..=3, kw in 1usize..=3,
        sh in 1usize..=2, sw in 1usize..=2,
        ih in 6usize..=12, iw in 6usize..=12,
        xk_sel in 0usize..9, yk_sel in 0usize..9,
        seed in any::<u64>(),
    ) {
        let params = PoolParams::new((kh, kw), (sh, sw));
        prop_assume!(params.out_dims(ih, iw).is_ok());
        let geom = Im2ColGeometry::new(ih, iw, 1, params).unwrap();
        let (xk, yk) = (xk_sel % kh, yk_sel % kw);
        let (oh, ow) = geom.out_dims();
        let bf = geom.fractals_per_plane();
        // a full patch tensor that is zero everywhere except our plane
        let mut patches = dv_tensor::PatchTensor::zeros(1, 1, kh, kw, oh, ow);
        let vals = f16s(bf * FRACTAL_ROWS * C0, seed);
        let mut plane = vec![F16::ZERO; bf * FRACTAL_ROWS * C0];
        for patch in 0..oh * ow {
            for c0 in 0..C0 {
                let v = vals[patch * C0 + c0];
                plane[patch * C0 + c0] = v;
                patches.set(0, 0, xk, yk, patch / ow, patch % ow, c0, v);
            }
        }
        let golden = dv_tensor::col2im_fractal(&patches, &params, ih, iw).unwrap();

        let mut core = core();
        core.buffers_mut().load_f16_slice(BufferId::Ub, 0, &plane).unwrap();
        // output region at 16384, already zero
        let mut p = dv_isa::Program::new();
        p.push(Instr::Col2Im(Col2Im {
            geom,
            src: Addr::ub(0),
            dst: Addr::ub(16384),
            first_patch: 0,
            k_off: (xk, yk),
            c1: 0,
            repeat: bf as u16,
        })).unwrap();
        core.run(&p).unwrap();
        for h in 0..ih {
            for w in 0..iw {
                for c0 in 0..C0 {
                    let got = core.buffers()
                        .read_f16(BufferId::Ub, 16384 + ((h * iw + w) * C0 + c0) * 2)
                        .unwrap();
                    prop_assert_eq!(got, golden.get(0, 0, h, w, c0),
                        "({}, {}, {})", h, w, c0);
                }
            }
        }
    }

    /// Cube matmul over random fractal tiles equals the f32-accumulating
    /// reference matmul.
    #[test]
    fn cube_matches_reference_matmul(
        mf in 1usize..=2, kf in 1usize..=2, nf in 1usize..=2,
        seed in any::<u64>(),
    ) {
        const E: usize = 16;
        let a = f16s(mf * kf * E * E, seed);
        let b = f16s(kf * nf * E * E, seed ^ 0x77);
        let mut core = core();
        core.buffers_mut().load_f16_slice(BufferId::L0A, 0, &a).unwrap();
        core.buffers_mut().load_f16_slice(BufferId::L0B, 0, &b).unwrap();
        let mut p = dv_isa::Program::new();
        p.push(Instr::Cube(CubeMatmul {
            a: Addr::new(BufferId::L0A, 0),
            b: Addr::new(BufferId::L0B, 0),
            c: Addr::new(BufferId::L0C, 0),
            m_fractals: mf,
            k_fractals: kf,
            n_fractals: nf,
            accumulate: false,
        })).unwrap();
        core.run(&p).unwrap();

        // flatten the fractal grids into row-major matrices
        let (m, k, n) = (mf * E, kf * E, nf * E);
        let flat = |grid: &[F16], _rows: usize, col_fr: usize, r: usize, c: usize| {
            grid[((r / E) * col_fr + c / E) * E * E + (r % E) * E + (c % E)]
        };
        let mut am = vec![F16::ZERO; m * k];
        for r in 0..m { for c in 0..k { am[r * k + c] = flat(&a, m, kf, r, c); } }
        let mut bm = vec![F16::ZERO; k * n];
        for r in 0..k { for c in 0..n { bm[r * n + c] = flat(&b, k, nf, r, c); } }
        let want = dv_tensor::reference::matmul_f32acc(&am, &bm, m, k, n);

        for r in 0..m {
            for c in 0..n {
                let off = (((r / E) * nf + c / E) * E * E + (r % E) * E + (c % E)) * 4;
                let got = core.buffers().read_f32_l0c(off).unwrap();
                prop_assert_eq!(F16::from_f32(got), want[r * n + c], "({}, {})", r, c);
            }
        }
    }

    /// Data moves preserve bytes exactly along every legal path that can
    /// carry f16 data.
    #[test]
    fn moves_preserve_data(len_words in 1usize..=512, seed in any::<u64>()) {
        let vals = f16s(len_words, seed);
        let mut core = core();
        core.load_gm(0, &vals).unwrap();
        let bytes = len_words * 2;
        let mut p = dv_isa::Program::new();
        p.push(Instr::Move(DataMove::new(Addr::gm(0), Addr::l1(0), bytes))).unwrap();
        p.push(Instr::Move(DataMove::new(Addr::l1(0), Addr::ub(0), bytes))).unwrap();
        p.push(Instr::Move(DataMove::new(Addr::ub(0), Addr::gm(8192), bytes))).unwrap();
        core.run(&p).unwrap();
        prop_assert_eq!(core.read_gm(8192, len_words).unwrap(), vals);
    }

    /// Cycle accounting is deterministic and additive: running the same
    /// program twice exactly doubles every counter.
    #[test]
    fn counters_are_deterministic_and_additive(repeat in 1u16..=8, seed in any::<u64>()) {
        let vals = f16s(VECTOR_LANES * repeat as usize, seed);
        let mut p = dv_isa::Program::new();
        p.push(Instr::Vector(VectorInstr::unit_stride(
            VectorOp::Add, Addr::ub(0), Addr::ub(8192), Addr::ub(16384),
            Mask::FULL, repeat,
        ))).unwrap();
        let mut core1 = core();
        core1.buffers_mut().load_f16_slice(BufferId::Ub, 8192, &vals).unwrap();
        core1.run(&p).unwrap();
        let once = core1.counters().clone();
        core1.run(&p).unwrap();
        let twice = core1.counters().clone();
        prop_assert_eq!(twice.cycles, 2 * once.cycles);
        prop_assert_eq!(twice.vector_total_lanes, 2 * once.vector_total_lanes);
        prop_assert_eq!(twice.issues_of("vadd"), 2 * once.issues_of("vadd"));
    }
}

/// Fractal-size constants that the instruction encodings rely on.
#[test]
fn fractal_constants_hold() {
    assert_eq!(FRACTAL_BYTES, 512);
    assert_eq!(FRACTAL_ROWS * C0 * 2, FRACTAL_BYTES);
}

/// One Mode-0 chain at repeat = 252 (just under the 255 limit) walking 28
/// source planes — the instruction shape the batched N>1 fold emits, with
/// the batch staged as consecutive `c1` planes. Every produced fractal
/// must equal the golden im2col of the plane the odometer says it came
/// from.
#[test]
fn long_mode0_chain_over_many_planes_matches_reference() {
    let params = PoolParams::K3S2;
    let (ih, iw, planes) = (10usize, 10, 28);
    let geom = Im2ColGeometry::new(ih, iw, planes, params).unwrap();
    let (oh, ow) = geom.out_dims();
    assert_eq!(oh * ow, FRACTAL_ROWS, "one fractal per (c1, xk, yk)");
    let kk = params.kh * params.kw;
    let repeat = planes * kk;
    assert_eq!(repeat, 252);

    // N=28 planes contiguous in L1 at src_plane_bytes stride — exactly
    // how the batched lowering stages a batch.
    let input = Nc1hwc0::from_fn(planes, 1, ih, iw, |n, _, h, w, c0| {
        F16::from_f32(((n * 41 + h * 13 + w * 5 + c0) % 127) as f32 - 63.0)
    });
    let mut core = core();
    core.buffers_mut()
        .load_f16_slice(BufferId::L1, 0, input.data())
        .unwrap();

    let mut p = dv_isa::Program::new();
    p.push(Instr::Im2Col(Im2Col {
        geom,
        src: Addr::l1(0),
        dst: Addr::ub(0),
        first_patch: 0,
        k_off: (0, 0),
        c1: 0,
        repeat: repeat as u16,
        mode: RepeatMode::Mode0,
    }))
    .unwrap();
    core.run(&p).unwrap();

    let golden = im2col_fractal(&input, &params).unwrap();
    for frac in 0..repeat {
        let (c1, rem) = (frac / kk, frac % kk);
        let (xk, yk) = (rem / params.kw, rem % params.kw);
        for patch in 0..oh * ow {
            for c0 in 0..C0 {
                let got = core
                    .buffers()
                    .read_f16(BufferId::Ub, frac * FRACTAL_BYTES + (patch * C0 + c0) * 2)
                    .unwrap();
                let want = golden.get(c1, 0, xk, yk, patch / ow, patch % ow, c0);
                assert_eq!(
                    got, want,
                    "fractal {frac} (c1={c1} k=({xk},{yk})) patch {patch}"
                );
            }
        }
    }
    // One issue, charged per produced fractal — the instruction-count win
    // the fold banks on.
    let ctr = core.counters();
    assert_eq!(ctr.issues_of("im2col"), 1);
    assert_eq!(
        ctr.cycles,
        CostModel::ascend910_like().issue_overhead
            + repeat as u64 * CostModel::ascend910_like().im2col_per_fractal
    );
}

/// A Mode-0 chain resumed mid-walk (nonzero `c1` and kernel offset, a
/// tail fractal past the patch grid): the split-at-255 continuation case.
/// Real patch rows must match the golden im2col; rows past the grid must
/// be zero-filled.
#[test]
fn mode0_chain_resumed_mid_walk_with_tail_fractal() {
    let params = PoolParams::K3S2;
    let (ih, iw, planes) = (11usize, 11, 4);
    let geom = Im2ColGeometry::new(ih, iw, planes, params).unwrap();
    let (oh, ow) = geom.out_dims();
    assert_eq!(oh * ow, 25, "25 patches: second fractal has a 9-row tail");
    let kk = params.kh * params.kw;

    let input = Nc1hwc0::from_fn(planes, 1, ih, iw, |n, _, h, w, c0| {
        F16::from_f32(((n * 17 + h * 7 + w * 3 + c0) % 97) as f32 * 0.25)
    });
    let mut core = core();
    core.buffers_mut()
        .load_f16_slice(BufferId::L1, 0, input.data())
        .unwrap();

    // Resume exactly where a 255-capped chunk would have stopped: flat
    // position 14 = (c1=1, xk=1, yk=2), second fractal (first_patch=16).
    let (start_c1, start_k) = (1usize, (1usize, 2));
    let start_flat = start_c1 * kk + start_k.0 * params.kw + start_k.1;
    let repeat = planes * kk - start_flat;
    let mut p = dv_isa::Program::new();
    p.push(Instr::Im2Col(Im2Col {
        geom,
        src: Addr::l1(0),
        dst: Addr::ub(0),
        first_patch: 16,
        k_off: start_k,
        c1: start_c1,
        repeat: repeat as u16,
        mode: RepeatMode::Mode0,
    }))
    .unwrap();
    core.run(&p).unwrap();

    let golden = im2col_fractal(&input, &params).unwrap();
    for frac in 0..repeat {
        let flat = start_flat + frac;
        let (c1, rem) = (flat / kk, flat % kk);
        let (xk, yk) = (rem / params.kw, rem % params.kw);
        for row in 0..FRACTAL_ROWS {
            let patch = 16 + row;
            for c0 in 0..C0 {
                let got = core
                    .buffers()
                    .read_f16(BufferId::Ub, frac * FRACTAL_BYTES + (row * C0 + c0) * 2)
                    .unwrap();
                let want = if patch < oh * ow {
                    golden.get(c1, 0, xk, yk, patch / ow, patch % ow, c0)
                } else {
                    F16::ZERO // past-the-grid slots zero-fill
                };
                assert_eq!(got, want, "fractal {frac} row {row} c0 {c0}");
            }
        }
    }
}
