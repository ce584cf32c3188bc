//! Exhaustive and grid proofs for the f16 arithmetic the simulator's
//! executors run.
//!
//! * [`F16::max`] and [`F16::min`] on every ordered pair of bit patterns
//!   equal their earlier branching definitions, kept here as oracles.
//! * `+ - *`, through the operators and through the batch kernels, equal
//!   an independent oracle over every exponent pair × sign × edge
//!   mantissa plus seeded random mantissas: exact `f64` arithmetic on the
//!   decoded operands, rounded straight to `f16`, then the NaN rule.
//!
//! The oracles are pure functions of their inputs, so no reference data
//! is pinned. The F16C conversions themselves are checked on every input
//! by the crate's `convert` unit tests. Release timings, one test at a
//! time on a 2-vCPU x86-64 VM with F16C: `max` 7.0 s, `min` 8.7 s, the
//! grid under 0.1 s.

use dv_fp16::{add_slices, mul_slices, sub_slices, F16};

/// Every `f16` bit pattern in ascending order.
fn every_f16() -> Vec<F16> {
    (0..=u16::MAX).map(F16::from_bits).collect()
}

/// `F16::max` as it was written before the branch-free form: NaN tests,
/// then IEEE `totalOrder` through an `i32` key.
fn branching_max(a: u16, b: u16) -> u16 {
    if branching_is_nan(a) {
        return b;
    }
    if branching_is_nan(b) {
        return a;
    }
    if branching_key(a) < branching_key(b) {
        b
    } else {
        a
    }
}

/// `F16::min` as it was written before the branch-free form.
fn branching_min(a: u16, b: u16) -> u16 {
    if branching_is_nan(a) {
        return b;
    }
    if branching_is_nan(b) {
        return a;
    }
    if branching_key(a) > branching_key(b) {
        b
    } else {
        a
    }
}

fn branching_is_nan(x: u16) -> bool {
    (x & 0x7C00) == 0x7C00 && (x & 0x03FF) != 0
}

fn branching_key(bits: u16) -> i32 {
    let v = bits as i32;
    if v & 0x8000 != 0 {
        -(v & 0x7FFF) - 1
    } else {
        v
    }
}

/// Every pair `(a, b)`: `new(a, b)` over the whole row of `b` (a loop the
/// optimiser vectorises) against the oracle, lane by lane.
fn sweep_pairs(name: &str, new: fn(F16, F16) -> F16, oracle: fn(u16, u16) -> u16) {
    let all = every_f16();
    let mut row = vec![F16::ZERO; all.len()];
    for a in all.iter().copied() {
        for (r, &b) in row.iter_mut().zip(&all) {
            *r = new(a, b);
        }
        for (r, b) in row.iter().zip(&all) {
            let want = oracle(a.to_bits(), b.to_bits());
            assert!(
                r.to_bits() == want,
                "{name}({:#06x}, {:#06x}) = {:#06x}, want {want:#06x}",
                a.to_bits(),
                b.to_bits(),
                r.to_bits()
            );
        }
    }
}

#[test]
fn max_matches_its_branching_definition_on_every_pair() {
    sweep_pairs("max", F16::max, branching_max);
}

#[test]
fn min_matches_its_branching_definition_on_every_pair() {
    sweep_pairs("min", F16::min, branching_min);
}

/// The exact value of an `f16` bit pattern, decoded without the crate.
fn exact(bits: u16) -> f64 {
    let sign = if bits & 0x8000 != 0 { -1.0 } else { 1.0 };
    let exp = i32::from((bits >> 10) & 0x1F);
    let man = f64::from(bits & 0x03FF);
    sign * match exp {
        0 => man * 2f64.powi(-24),
        31 if man == 0.0 => f64::INFINITY,
        31 => f64::NAN,
        e => (1024.0 + man) * 2f64.powi(e - 25),
    }
}

/// Round a non-NaN `f64` straight to the nearest `f16`, ties to even.
/// Below 2^-14 the grid is the subnormal spacing 2^-24; above it each
/// binade has 1024 steps. The code of a value `n` steps up binade `e` is
/// `((e + 14) << 10) + n` for the normals and `n` for the subnormals,
/// so a carry out of the mantissa lands in the next exponent and past
/// the largest binade in infinity.
fn round_to_f16(x: f64) -> u16 {
    let sign = if x.is_sign_negative() { 0x8000 } else { 0 };
    let m = x.abs();
    if m.is_infinite() {
        return sign | 0x7C00;
    }
    let e = if m < 2f64.powi(-14) {
        -14
    } else {
        ((m.to_bits() >> 52) as i32) - 1023
    };
    let n = (m / 2f64.powi(e - 10)).round_ties_even() as u32;
    let code = (((e + 14) as u32) << 10) + n;
    sign | code.min(0x7C00) as u16
}

#[derive(Clone, Copy, Debug)]
enum Arith {
    Add,
    Sub,
    Mul,
}

impl Arith {
    /// The `F16` operator.
    fn operator(self, a: F16, b: F16) -> F16 {
        match self {
            Arith::Add => a + b,
            Arith::Sub => a - b,
            Arith::Mul => a * b,
        }
    }

    /// The batch kernel.
    fn batch(self, a: &[F16], b: &[F16], out: &mut [F16]) {
        match self {
            Arith::Add => add_slices(a, b, out),
            Arith::Sub => sub_slices(a, b, out),
            Arith::Mul => mul_slices(a, b, out),
        }
    }
}

/// The oracle: the NaN rule on the operands, then the exact `f64`
/// result rounded to `f16`, with an invalid operation giving `0xFE00`.
fn oracle(op: Arith, a: u16, b: u16) -> u16 {
    let nan = |x: u16| x & 0x7FFF > 0x7C00;
    if nan(a) {
        return a | 0x0200;
    }
    if nan(b) {
        return b | 0x0200;
    }
    let (x, y) = (exact(a), exact(b));
    let r = match op {
        Arith::Add => x + y,
        Arith::Sub => x - y,
        Arith::Mul => x * y,
    };
    if r.is_nan() {
        0xFE00
    } else {
        round_to_f16(r)
    }
}

/// splitmix64, for the seeded random mantissas.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Every exponent pair (0 = zero/subnormal, 31 = infinity/NaN) × both
/// signs of each operand × the edge mantissas {0, 1, 2, 0x200, 0x3FF}
/// on each side, plus eight seeded random mantissa pairs per exponent
/// and sign pair.
fn grid() -> (Vec<F16>, Vec<F16>) {
    const EDGE: [u16; 5] = [0, 1, 2, 0x200, 0x3FF];
    let mut state = 0x0DAF_F0D5_u64;
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for ea in 0..32u16 {
        for eb in 0..32u16 {
            for sign in 0..4u16 {
                let (sa, sb) = ((sign & 1) << 15, (sign >> 1) << 15);
                let mut mantissas: Vec<(u16, u16)> = EDGE
                    .iter()
                    .flat_map(|&ma| EDGE.iter().map(move |&mb| (ma, mb)))
                    .collect();
                for _ in 0..8 {
                    let r = next(&mut state);
                    mantissas.push((r as u16 & 0x3FF, (r >> 16) as u16 & 0x3FF));
                }
                for (ma, mb) in mantissas {
                    a.push(F16::from_bits(sa | ea << 10 | ma));
                    b.push(F16::from_bits(sb | eb << 10 | mb));
                }
            }
        }
    }
    (a, b)
}

#[test]
fn arithmetic_matches_the_exact_oracle_on_the_exponent_grid() {
    let (a, b) = grid();
    assert_eq!(a.len(), 32 * 32 * 4 * (25 + 8));
    let mut batch = vec![F16::ZERO; a.len()];
    for op in [Arith::Add, Arith::Sub, Arith::Mul] {
        op.batch(&a, &b, &mut batch);
        for ((&x, &y), &z) in a.iter().zip(&b).zip(&batch) {
            let want = oracle(op, x.to_bits(), y.to_bits());
            let got = op.operator(x, y).to_bits();
            assert!(
                got == want,
                "{op:?}({:#06x}, {:#06x}): operator {got:#06x}, oracle {want:#06x}",
                x.to_bits(),
                y.to_bits()
            );
            assert!(
                z.to_bits() == want,
                "{op:?}({:#06x}, {:#06x}): batch {:#06x}, oracle {want:#06x}",
                x.to_bits(),
                y.to_bits(),
                z.to_bits()
            );
        }
    }
}

/// The oracle's own rounding, on values whose `f16` is known: the
/// largest finite value and the tie above it, the subnormal/normal
/// boundary, a tie to even, and a tie that rounds away to even.
#[test]
fn oracle_rounding_is_nearest_even() {
    assert_eq!(round_to_f16(65504.0), 0x7BFF);
    assert_eq!(round_to_f16(65519.99), 0x7BFF);
    assert_eq!(round_to_f16(65520.0), 0x7C00);
    assert_eq!(round_to_f16(-1e9), 0xFC00);
    assert_eq!(round_to_f16(2f64.powi(-14)), 0x0400);
    assert_eq!(round_to_f16(1023.0 * 2f64.powi(-24)), 0x03FF);
    assert_eq!(round_to_f16(2f64.powi(-25)), 0x0000);
    assert_eq!(round_to_f16(3.0 * 2f64.powi(-25)), 0x0002);
    assert_eq!(round_to_f16(1.0 + 2f64.powi(-11)), 0x3C00);
    assert_eq!(round_to_f16(1.0 + 3.0 * 2f64.powi(-11)), 0x3C02);
    assert_eq!(round_to_f16(-0.0), 0x8000);
    for bits in (0..0x7C00u16).chain(0x8000..0xFC00) {
        assert_eq!(round_to_f16(exact(bits)), bits, "{bits:#06x}");
    }
}
