//! Execute AKG-emitted instruction sequences on the simulator and check
//! them against plain scalar loops — the contract between the lowering
//! helpers and the machine.

use dv_akg::{elementwise, fill_region, strided_accumulate, zero_region};
use dv_fp16::F16;
use dv_isa::{Addr, BufferId, Mask, Program, VectorOp};
use dv_sim::{AiCore, CostModel};
use proptest::prelude::*;

fn run(program: &Program, preload: &[(usize, Vec<F16>)]) -> AiCore<'static> {
    let mut core = AiCore::new(CostModel::ascend910_like(), 0);
    for (off, data) in preload {
        core.buffers_mut()
            .load_f16_slice(BufferId::Ub, *off, data)
            .unwrap();
    }
    core.run(program).unwrap();
    core
}

fn vals(len: usize, seed: u64) -> Vec<F16> {
    let mut s = seed | 1;
    (0..len)
        .map(|_| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(11);
            F16::from_f32(((s >> 35) % 31) as f32 - 15.0)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `elementwise` over any region length equals the scalar loop — tail
    /// masking, repeat chunking and all.
    #[test]
    fn elementwise_equals_scalar_loop(elems in 1usize..=2000, seed in any::<u64>()) {
        let a = vals(elems, seed);
        let b = vals(elems, seed ^ 0x5555);
        let mut p = Program::new();
        elementwise(&mut p, VectorOp::Add, Addr::ub(0), Addr::ub(16384), Addr::ub(32768), elems)
            .unwrap();
        let core = run(&p, &[(16384, a.clone()), (32768, b.clone())]);
        let out = core.buffers().read_f16_slice(BufferId::Ub, 0, elems).unwrap();
        for i in 0..elems {
            prop_assert_eq!(out[i], a[i] + b[i], "element {}", i);
        }
    }

    /// `elementwise` never writes past the region end.
    #[test]
    fn elementwise_respects_region_end(elems in 1usize..=300, seed in any::<u64>()) {
        let a = vals(elems + 64, seed);
        let sentinel = F16::from_f32(-123.0);
        let mut p = Program::new();
        elementwise(&mut p, VectorOp::Copy, Addr::ub(0), Addr::ub(16384), Addr::ub(16384), elems)
            .unwrap();
        let mut core = AiCore::new(CostModel::ascend910_like(), 0);
        core.buffers_mut().load_f16_slice(BufferId::Ub, 16384, &a).unwrap();
        core.buffers_mut()
            .load_f16_slice(BufferId::Ub, 0, &vec![sentinel; elems + 64])
            .unwrap();
        core.run(&p).unwrap();
        let out = core.buffers().read_f16_slice(BufferId::Ub, 0, elems + 64).unwrap();
        for i in 0..elems {
            prop_assert_eq!(out[i], a[i]);
        }
        for (i, v) in out.iter().enumerate().skip(elems) {
            prop_assert_eq!(*v, sentinel, "wrote past end at {}", i);
        }
    }

    /// `fill_region`/`zero_region` set exactly the requested elements.
    #[test]
    fn fill_sets_exact_region(elems in 1usize..=600, c in -7i32..=7) {
        let v = F16::from_f32(c as f32);
        let mut p = Program::new();
        fill_region(&mut p, Addr::ub(64), v, elems).unwrap();
        let core = run(&p, &[]);
        let out = core.buffers().read_f16_slice(BufferId::Ub, 0, elems + 96).unwrap();
        // bytes before the region untouched (zero-initialised buffers)
        for item in out.iter().take(32) {
            prop_assert_eq!(*item, F16::ZERO);
        }
        for i in 0..elems {
            prop_assert_eq!(out[32 + i], v);
        }
        for i in elems..elems + 64 {
            prop_assert_eq!(out[32 + i], F16::ZERO, "past region at {}", i);
        }
    }

    /// `strided_accumulate` computes the same reduction as a scalar loop
    /// over the strided source.
    #[test]
    fn strided_accumulate_equals_scalar(repeat in 1u16..=9, stride_c0 in 1usize..=4,
                                        seed in any::<u64>()) {
        let stride = stride_c0 * 32;
        let src_len = 16 * (1 + (repeat as usize - 1) * stride_c0);
        let src = vals(src_len, seed);
        let init = vals(16, seed ^ 0x9999);
        let mut p = Program::new();
        strided_accumulate(&mut p, VectorOp::Max, Addr::ub(0), Addr::ub(8192),
                           Mask::C0_ONLY, repeat, stride).unwrap();
        let core = run(&p, &[(0, init.clone()), (8192, src.clone())]);
        let out = core.buffers().read_f16_slice(BufferId::Ub, 0, 16).unwrap();
        for lane in 0..16 {
            let mut acc = init[lane];
            for r in 0..repeat as usize {
                acc = acc.max(src[r * stride_c0 * 16 + lane]);
            }
            prop_assert_eq!(out[lane], acc, "lane {}", lane);
        }
    }
}

#[test]
fn zero_region_zeroes() {
    let mut p = Program::new();
    fill_region(&mut p, Addr::ub(0), F16::from_f32(5.0), 200).unwrap();
    zero_region(&mut p, Addr::ub(0), 100).unwrap();
    let core = run(&p, &[]);
    let out = core.buffers().read_f16_slice(BufferId::Ub, 0, 200).unwrap();
    for (i, v) in out.iter().enumerate() {
        let want = if i < 100 { 0.0 } else { 5.0 };
        assert_eq!(v.to_f32(), want, "element {i}");
    }
}
