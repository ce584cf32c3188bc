//! Arithmetic operators for [`F16`], computed by widening to `f32` and
//! rounding the result back to the nearest `f16`, plus their batch forms
//! over slices ([`add_slices`], [`sub_slices`], [`mul_slices`]), which
//! convert eight lanes at a time where the CPU has F16C.
//!
//! For a single operation this is the correctly rounded `f16` result:
//! the `f32` intermediate is exact for products of two `f16` values and
//! carries at least `2 * 11 + 2` significant bits for sums and
//! differences, so rounding to `f32` and then to `f16` never
//! double-rounds (the exponent grid in `tests/exhaustive.rs` checks it
//! against an exact `f64` oracle). Division is correctly rounded to
//! `f32` first and may double-round in rare cases; the simulator does
//! not rely on exact division.
//!
//! # The NaN rule
//!
//! IEEE 754 leaves open which payload a NaN result carries, and x86 code
//! does not pick one consistently: `NaN + NaN` keeps the first operand's
//! payload in scalar code but the second's in a vectorised loop, and
//! `inf - inf` is `0xFE00` when computed at run time but `0x7E00` when
//! the compiler folds it. So every `+ − × ÷` result passes through one
//! explicit rule, whatever the host or the codegen:
//!
//! 1. a NaN left operand `a` wins, quieted: `a | 0x0200`;
//! 2. otherwise a NaN right operand `b` wins, quieted the same way;
//! 3. otherwise an invalid operation (`inf − inf`, `0 × inf`, `0 / 0`,
//!    `inf / inf`) gives `0xFE00`, the bits x86 produces at run time.
//!
//! Quieting keeps the sign and the payload, which is what widening a NaN
//! to `f32` and narrowing it back does, so the rule only fixes *which*
//! NaN survives.

use crate::convert::{f16_bits_from_f32, widen_op_narrow};
use crate::F16;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// The NaN an invalid operation produces (rule 3).
const INVALID: u16 = 0xFE00;

/// The quiet bit of an `f16` NaN.
const QUIET: u16 = 0x0200;

/// Apply the NaN rule to `r`, the rounded result of `a ∘ b`. Written as
/// three selects, so a loop over it vectorises without branches.
#[inline(always)]
fn nan_rule(a: u16, b: u16, r: u16) -> u16 {
    let nan = |x: u16| (x & 0x7FFF) as i16 > 0x7C00;
    let r = if nan(r) { INVALID } else { r };
    let r = if nan(b) { b | QUIET } else { r };
    if nan(a) {
        a | QUIET
    } else {
        r
    }
}

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $op:tt) => {
        impl $trait for F16 {
            type Output = F16;
            #[inline(always)]
            fn $method(self, rhs: F16) -> F16 {
                let r = f16_bits_from_f32(self.to_f32() $op rhs.to_f32());
                F16(nan_rule(self.0, rhs.0, r))
            }
        }
    };
}

impl_binop!(Add, add, +);
impl_binop!(Sub, sub, -);
impl_binop!(Mul, mul, *);
impl_binop!(Div, div, /);

/// `out[i] = a[i] + b[i]` for every `i`, bit-identical to the `+`
/// operator lane by lane (NaN rule included): the lanes are widened,
/// added in `f32` and narrowed in one pass (F16C where the CPU has it),
/// then the NaN rule runs over the whole batch.
///
/// # Panics
/// If the three slices differ in length.
pub fn add_slices(a: &[F16], b: &[F16], out: &mut [F16]) {
    zip_arith(a, b, out, |x, y| x + y);
}

/// `out[i] = a[i] - b[i]`, bit-identical to the `-` operator; see
/// [`add_slices`].
///
/// # Panics
/// If the three slices differ in length.
pub fn sub_slices(a: &[F16], b: &[F16], out: &mut [F16]) {
    zip_arith(a, b, out, |x, y| x - y);
}

/// `out[i] = a[i] * b[i]`, bit-identical to the `*` operator; see
/// [`add_slices`].
///
/// # Panics
/// If the three slices differ in length.
pub fn mul_slices(a: &[F16], b: &[F16], out: &mut [F16]) {
    zip_arith(a, b, out, |x, y| x * y);
}

/// The batch kernel behind the `*_slices` functions and the arithmetic
/// row kernels: one conversion pass (`widen_op_narrow`), then the NaN
/// rule over the whole batch.
#[inline(always)]
pub(crate) fn zip_arith(a: &[F16], b: &[F16], out: &mut [F16], op: impl Fn(f32, f32) -> f32) {
    assert!(
        a.len() == out.len() && b.len() == out.len(),
        "f16 batch: slice lengths differ ({}, {}, {})",
        a.len(),
        b.len(),
        out.len()
    );
    widen_op_narrow(a, b, out, op);
    for ((r, a), b) in out.iter_mut().zip(a).zip(b) {
        r.0 = nan_rule(a.0, b.0, r.0);
    }
}

macro_rules! impl_assign {
    ($trait:ident, $method:ident, $op:tt) => {
        impl $trait for F16 {
            #[inline(always)]
            fn $method(&mut self, rhs: F16) {
                *self = *self $op rhs;
            }
        }
    };
}

impl_assign!(AddAssign, add_assign, +);
impl_assign!(SubAssign, sub_assign, -);
impl_assign!(MulAssign, mul_assign, *);
impl_assign!(DivAssign, div_assign, /);

impl Neg for F16 {
    type Output = F16;
    #[inline(always)]
    fn neg(self) -> F16 {
        F16::neg(self)
    }
}

impl Sum for F16 {
    fn sum<I: Iterator<Item = F16>>(iter: I) -> F16 {
        iter.fold(F16::ZERO, |acc, x| acc + x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;

    #[test]
    fn exact_small_integer_arithmetic() {
        let a = F16::from_f32(3.0);
        let b = F16::from_f32(4.0);
        assert_eq!((a + b).to_f32(), 7.0);
        assert_eq!((a - b).to_f32(), -1.0);
        assert_eq!((a * b).to_f32(), 12.0);
        assert_eq!((b / F16::from_f32(2.0)).to_f32(), 2.0);
    }

    #[test]
    fn addition_rounds_to_nearest() {
        // 2048 + 1 is not representable (f16 spacing at 2048 is 2);
        // ties-to-even keeps 2048.
        let big = F16::from_f32(2048.0);
        let one = F16::ONE;
        assert_eq!((big + one).to_f32(), 2048.0);
        // 2048 + 3 = 2051 ties between 2050 (odd mantissa) and 2052
        // (even mantissa); ties-to-even picks 2052.
        assert_eq!((big + F16::from_f32(3.0)).to_f32(), 2052.0);
    }

    #[test]
    fn overflow_saturates_to_infinity() {
        let max = F16::MAX;
        assert!((max + max).is_infinite());
        assert!((max * F16::from_f32(2.0)).is_infinite());
    }

    #[test]
    fn assign_ops_match_binops() {
        let mut x = F16::from_f32(1.5);
        x += F16::from_f32(2.5);
        assert_eq!(x.to_f32(), 4.0);
        x *= F16::from_f32(0.5);
        assert_eq!(x.to_f32(), 2.0);
        x -= F16::ONE;
        assert_eq!(x.to_f32(), 1.0);
        x /= F16::from_f32(4.0);
        assert_eq!(x.to_f32(), 0.25);
    }

    #[test]
    fn neg_operator() {
        assert_eq!((-F16::ONE), F16::NEG_ONE);
        assert_eq!((-F16::ZERO), F16::NEG_ZERO);
    }

    #[test]
    fn sum_accumulates_in_f16_order() {
        // Summation happens in f16 after every step — required so the
        // simulator (which accumulates in buffer precision) matches the
        // reference operators exactly.
        let xs: Vec<F16> = (1..=10).map(|i| F16::from_f32(i as f32)).collect();
        let s: F16 = xs.iter().copied().sum();
        assert_eq!(s.to_f32(), 55.0);
    }

    /// `inf - inf` folded by the compiler and computed at run time give
    /// one NaN (without the rule: 0x7E00 folded, 0xFE00 at run time).
    #[test]
    fn invalid_result_does_not_depend_on_constant_folding() {
        let folded = F16::INFINITY - F16::INFINITY;
        let run_time = black_box(F16::INFINITY) - black_box(F16::INFINITY);
        assert_eq!(folded, run_time);
        assert_eq!(run_time, F16(INVALID));
    }

    /// Two NaN operands keep the left one's payload in a loop the
    /// optimiser vectorises as in scalar code (without the rule: 0xFE01
    /// vectorised, 0x7E01 scalar).
    #[test]
    fn nan_operand_order_does_not_depend_on_vectorisation() {
        let a = black_box([F16(0x7C01); 64]);
        let b = black_box([F16(0xFE01); 64]);
        let lanes: Vec<F16> = a.iter().zip(&b).map(|(&a, &b)| a + b).collect();
        let scalar = black_box(F16(0x7C01)) + black_box(F16(0xFE01));
        assert_eq!(scalar, F16(0x7E01));
        assert!(lanes.iter().all(|&x| x == scalar), "{lanes:?}");
    }

    #[test]
    fn nan_rule_picks_left_then_right_then_invalid() {
        let (qa, sb) = (F16(0xFC05), F16(0x7C09));
        assert_eq!(qa * sb, F16(0xFE05));
        assert_eq!(sb * qa, F16(0x7E09));
        assert_eq!(F16::ONE - sb, F16(0x7E09));
        assert_eq!(F16::ZERO * F16::NEG_INFINITY, F16(INVALID));
        assert_eq!(F16::ZERO / F16::ZERO, F16(INVALID));
        assert_eq!(F16::ONE / F16::ZERO, F16::INFINITY);
    }

    #[test]
    fn batch_kernels_match_the_operators_at_every_length() {
        // Lengths across the 8-lane conversion groups and the 128-lane
        // chunks, on values mixing NaNs, infinities and subnormals.
        let edge = [
            0x0000, 0x8000, 0x7C00, 0xFC00, 0x7E00, 0x7C01, 0xFE01, 0x0001, 0x83FF, 0x7BFF, 0x3C00,
            0xC100, 0x1400, 0x5A3D,
        ];
        for n in [0, 1, 7, 8, 9, 16, 127, 128, 129, 300] {
            let a: Vec<F16> = (0..n).map(|i| F16(edge[i % edge.len()])).collect();
            let b: Vec<F16> = (0..n)
                .map(|i| F16(edge[(i * 5 + 3) % edge.len()]))
                .collect();
            let mut out = vec![F16(0x1234); n];
            add_slices(&a, &b, &mut out);
            assert!(out
                .iter()
                .zip(a.iter().zip(&b))
                .all(|(&o, (&a, &b))| o == a + b));
            sub_slices(&a, &b, &mut out);
            assert!(out
                .iter()
                .zip(a.iter().zip(&b))
                .all(|(&o, (&a, &b))| o == a - b));
            mul_slices(&a, &b, &mut out);
            assert!(out
                .iter()
                .zip(a.iter().zip(&b))
                .all(|(&o, (&a, &b))| o == a * b));
        }
    }

    #[test]
    #[should_panic(expected = "slice lengths differ")]
    fn batch_kernels_reject_mismatched_lengths() {
        add_slices(&[F16::ONE; 3], &[F16::ONE; 2], &mut [F16::ZERO; 3]);
    }
}
