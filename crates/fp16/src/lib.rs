#![deny(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]
//! Software IEEE 754 binary16 ("half precision", `f16`) arithmetic.
//!
//! The DaVinci architecture computes pooling and convolution in `Float16`:
//! the fractal memory layout fixes the innermost dimension `C0 = 16` because
//! a data-fractal is 4096 bits = 16 rows x 16 `f16` elements (paper,
//! Section III-B). This crate provides a bit-exact software `f16` so the
//! simulator's buffers hold *real* half-precision values and every simulated
//! kernel can be checked for bit-identical results against golden references.
//!
//! Design notes:
//! * [`F16`] is a `#[repr(transparent)]` wrapper over the raw `u16` bit
//!   pattern, so buffers of `F16` can be viewed as byte slices with no
//!   conversion cost.
//! * Arithmetic is performed by converting to `f32`, computing, and rounding
//!   back to the nearest `f16` (round-to-nearest-even). This matches how
//!   half-precision ALUs that internally widen behave, and — crucially for
//!   pooling — `max`, `add` and `mul` of values that are exactly
//!   representable in `f16` produce exactly representable results for max
//!   (always) and correctly rounded results for add/mul.
//! * NaN results follow one explicit rule, not the host's: a NaN left
//!   operand wins, then a NaN right operand (either quieted with
//!   `| 0x0200`), and an invalid operation such as `inf - inf` gives
//!   `0xFE00`. Without it a result's NaN bits would depend on whether the
//!   compiler folded, reordered or vectorised the operation (see the
//!   `ops` module docs).
//! * The batch kernels [`add_slices`], [`sub_slices`] and [`mul_slices`]
//!   widen, compute in `f32` and narrow whole slices in one pass, then
//!   apply the NaN rule over the batch. They convert with the x86 F16C
//!   instructions eight lanes at a time when the CPU has them (`avx2` and
//!   `f16c`, detected at run time) and with the scalar conversions
//!   otherwise. Every result is bit-identical to the scalar operators on
//!   any host.
//! * The slice conversions [`widen`] (exact) and [`narrow`] (round to
//!   nearest even) convert eight lanes at a time the same way, and
//!   [`mac_block`] is the `f32` multiply-accumulate microkernel behind the
//!   simulated Cube Unit: one 4 × 16 block of accumulators held in
//!   registers (AVX ones where the CPU has them) over the whole `k` loop,
//!   each output summed in ascending `k` with the product and the sum
//!   rounded separately, and an output that ends NaN stored as
//!   [`MAC_NAN`] (see the `mac` module).
//! * [`int_rows`] and [`arith_rows`] are the row kernels behind the
//!   simulated Vector Unit: one lane operation, passed as a closure, over
//!   every row of one vector instruction — for each repeat, each lane run
//!   — computed in place on `f16` lanes (a byte buffer becomes lanes
//!   through [`try_from_bytes_mut`], which returns `None` instead of
//!   panicking on a misaligned buffer). A [`Source`] is the destination
//!   row itself or a slice apart from it, so each row can read all its
//!   sources and then write, and the rows still reproduce a
//!   lane-at-a-time loop bit for bit. [`int_rows`] (`max`, `min`,
//!   `cmp_eq`, `relu`, copy, dup) is one source compiled for AVX2 and for
//!   the baseline target; [`arith_rows`] runs an `f32` operation through
//!   the batch kernels 128 lanes at a time.
//! * [`simd_available`] (x86-64 with `avx2` and `f16c`) says which path
//!   this CPU takes for every kernel; there is no option to choose one,
//!   and no `fma`.
//! * Comparison (`total_cmp`, `PartialOrd`) follows IEEE semantics; `vmax`
//!   in the simulator uses [`F16::max`] which propagates the non-NaN operand
//!   like hardware max instructions do. [`F16::max`] and [`F16::min`]
//!   compare 16-bit order keys without branches, so a loop over them
//!   vectorises.
//!
//! The equivalences are proven exhaustively: the `convert` module's tests
//! check [`widen`] on all 65,536 `f16` and [`narrow`] on all 2^32 `f32`
//! bit patterns against the scalar conversions, the AVX compilation of
//! [`mac_block`] against the portable one, and the AVX2 compilation of the
//! `max`, `min` and `cmp_eq` rows against the portable one on all 2^32
//! operand pairs; `tests/exhaustive.rs` checks
//! `max`/`min` on all 2^32 operand pairs against their earlier branching
//! definitions and `+ - *` (operators and batch kernels) over every
//! exponent pair, sign and edge mantissa against an exact `f64` oracle
//! with the NaN rule.

mod convert;
mod mac;
mod ops;
mod rows;

pub use convert::{
    as_bytes, as_bytes_mut, f16_bits_from_f32, f32_from_f16_bits, from_bytes, narrow,
    simd_available, try_from_bytes, try_from_bytes_mut, widen,
};
pub use mac::{mac_block, mac_nan_rule, MAC_BLOCK_BYTES, MAC_EDGE, MAC_NAN, MAC_ROWS};
pub use ops::{add_slices, mul_slices, sub_slices};
pub use rows::{arith_rows, int_rows, Rows, Source};

use core::fmt;

/// An IEEE 754 binary16 floating point number, stored as its raw bit pattern.
///
/// ```
/// use dv_fp16::F16;
/// let a = F16::from_f32(1.5);
/// let b = F16::from_f32(2.25);
/// assert_eq!((a + b).to_f32(), 3.75);
/// assert_eq!(F16::NEG_INFINITY.max(a), a);
/// ```
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash)]
#[repr(transparent)]
pub struct F16(pub u16);

impl F16 {
    /// Positive zero.
    pub const ZERO: F16 = F16(0x0000);
    /// Negative zero.
    pub const NEG_ZERO: F16 = F16(0x8000);
    /// One.
    pub const ONE: F16 = F16(0x3C00);
    /// Negative one.
    pub const NEG_ONE: F16 = F16(0xBC00);
    /// Positive infinity.
    pub const INFINITY: F16 = F16(0x7C00);
    /// Negative infinity — the identity of `max`, used to initialise
    /// MaxPool accumulators (the paper initialises the output tile with
    /// "the minimum value of the data type in use").
    pub const NEG_INFINITY: F16 = F16(0xFC00);
    /// A quiet NaN.
    pub const NAN: F16 = F16(0x7E00);
    /// Largest finite value, 65504.
    pub const MAX: F16 = F16(0x7BFF);
    /// Smallest finite value, -65504.
    pub const MIN: F16 = F16(0xFBFF);
    /// Smallest positive normal value, 2^-14.
    pub const MIN_POSITIVE: F16 = F16(0x0400);
    /// Smallest positive subnormal value, 2^-24.
    pub const MIN_POSITIVE_SUBNORMAL: F16 = F16(0x0001);
    /// The difference between 1.0 and the next larger representable number.
    pub const EPSILON: F16 = F16(0x1400);

    /// Size of one element in bytes; the fractal geometry (`C0 = 16`,
    /// 4096-bit fractals) depends on this being 2.
    pub const SIZE_BYTES: usize = 2;

    /// Construct from a raw bit pattern.
    #[inline(always)]
    pub const fn from_bits(bits: u16) -> Self {
        F16(bits)
    }

    /// The raw bit pattern.
    #[inline(always)]
    pub const fn to_bits(self) -> u16 {
        self.0
    }

    /// Convert from `f32` with round-to-nearest-even.
    #[inline(always)]
    pub fn from_f32(x: f32) -> Self {
        F16(f16_bits_from_f32(x))
    }

    /// Widen to `f32` (exact: every `f16` is representable in `f32`).
    #[inline(always)]
    pub fn to_f32(self) -> f32 {
        f32_from_f16_bits(self.0)
    }

    /// Widen to `f64`.
    #[inline(always)]
    pub fn to_f64(self) -> f64 {
        self.to_f32() as f64
    }

    /// `true` if the value is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        (self.0 & 0x7FFF) > 0x7C00
    }

    /// `true` if the value is +inf or -inf.
    #[inline]
    pub fn is_infinite(self) -> bool {
        (self.0 & 0x7FFF) == 0x7C00
    }

    /// `true` if the value is neither infinite nor NaN.
    #[inline]
    pub fn is_finite(self) -> bool {
        (self.0 & 0x7C00) != 0x7C00
    }

    /// `true` if the value is subnormal (non-zero with a zero exponent).
    #[inline]
    pub fn is_subnormal(self) -> bool {
        (self.0 & 0x7C00) == 0 && (self.0 & 0x03FF) != 0
    }

    /// `true` for +0.0 and -0.0.
    #[inline]
    pub fn is_zero(self) -> bool {
        (self.0 & 0x7FFF) == 0
    }

    /// `true` if the sign bit is set (note: -0.0 is sign-negative).
    #[inline]
    pub fn is_sign_negative(self) -> bool {
        (self.0 & 0x8000) != 0
    }

    /// IEEE 754 `maximum`-like max as implemented by hardware vmax:
    /// if one operand is NaN, returns the other; -0.0 < +0.0.
    ///
    /// Branch-free: two NaN tests and one comparison of
    /// [`total_cmp`](F16::total_cmp) order keys pick an operand, so a
    /// loop over `max` vectorises.
    #[inline]
    pub fn max(self, other: F16) -> F16 {
        let take_other = self.is_nan()
            | (!other.is_nan() & (Self::order_key(self.0) < Self::order_key(other.0)));
        if take_other {
            other
        } else {
            self
        }
    }

    /// IEEE 754 `minimum`-like min (NaN-ignoring), dual of [`F16::max`].
    #[inline]
    pub fn min(self, other: F16) -> F16 {
        let take_other = self.is_nan()
            | (!other.is_nan() & (Self::order_key(self.0) > Self::order_key(other.0)));
        if take_other {
            other
        } else {
            self
        }
    }

    /// Total order over bit patterns (IEEE 754 `totalOrder`): orders
    /// -NaN < -inf < ... < -0 < +0 < ... < +inf < +NaN.
    #[inline]
    pub fn total_cmp(self, other: F16) -> core::cmp::Ordering {
        Self::order_key(self.0).cmp(&Self::order_key(other.0))
    }

    /// The bit pattern as a two's complement key in `totalOrder`: a
    /// negative value's magnitude bits are flipped, so larger magnitudes
    /// sort earlier and -0.0 (key -1) sorts just before +0.0 (key 0).
    #[inline(always)]
    fn order_key(bits: u16) -> i16 {
        let negative = ((bits as i16) >> 15) as u16; // all ones iff the sign is set
        (bits ^ (negative >> 1)) as i16
    }

    /// Absolute value (clears the sign bit).
    #[inline]
    pub fn abs(self) -> F16 {
        F16(self.0 & 0x7FFF)
    }

    /// Negation (flips the sign bit, exact even for NaN/inf). Also
    /// available through the `Neg` operator.
    #[inline]
    #[allow(clippy::should_implement_trait)]
    pub fn neg(self) -> F16 {
        F16(self.0 ^ 0x8000)
    }

    /// Units-in-last-place distance between two finite values, used by the
    /// test suite to assert "correct within N ulp".
    pub fn ulp_distance(self, other: F16) -> u32 {
        let a = i32::from(Self::order_key(self.0));
        let b = i32::from(Self::order_key(other.0));
        (a - b).unsigned_abs()
    }
}

impl fmt::Debug for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "F16({} /0x{:04x})", self.to_f32(), self.0)
    }
}

impl fmt::Display for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.to_f32(), f)
    }
}

impl PartialOrd for F16 {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        // IEEE partial order: NaN compares unordered; -0 == +0.
        let (a, b) = (self.to_f32(), other.to_f32());
        a.partial_cmp(&b)
    }
}

impl From<f32> for F16 {
    #[inline]
    fn from(x: f32) -> Self {
        F16::from_f32(x)
    }
}

impl From<F16> for f32 {
    #[inline]
    fn from(x: F16) -> Self {
        x.to_f32()
    }
}

impl From<i16> for F16 {
    #[inline]
    fn from(x: i16) -> Self {
        F16::from_f32(x as f32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_are_correct_bit_patterns() {
        assert_eq!(F16::ZERO.to_f32(), 0.0);
        assert_eq!(F16::ONE.to_f32(), 1.0);
        assert_eq!(F16::NEG_ONE.to_f32(), -1.0);
        assert_eq!(F16::MAX.to_f32(), 65504.0);
        assert_eq!(F16::MIN.to_f32(), -65504.0);
        assert!(F16::INFINITY.to_f32().is_infinite());
        assert!(F16::NEG_INFINITY.to_f32().is_infinite());
        assert!(F16::NEG_INFINITY.to_f32() < 0.0);
        assert!(F16::NAN.is_nan());
        assert_eq!(F16::MIN_POSITIVE.to_f32(), 2.0_f32.powi(-14));
        assert_eq!(F16::MIN_POSITIVE_SUBNORMAL.to_f32(), 2.0_f32.powi(-24));
        assert_eq!(F16::EPSILON.to_f32(), 2.0_f32.powi(-10));
    }

    #[test]
    fn classification() {
        assert!(F16::ZERO.is_zero());
        assert!(F16::NEG_ZERO.is_zero());
        assert!(F16::NEG_ZERO.is_sign_negative());
        assert!(!F16::ZERO.is_sign_negative());
        assert!(F16::NAN.is_nan());
        assert!(!F16::INFINITY.is_nan());
        assert!(F16::INFINITY.is_infinite());
        assert!(F16::ONE.is_finite());
        assert!(F16::MIN_POSITIVE_SUBNORMAL.is_subnormal());
        assert!(!F16::MIN_POSITIVE.is_subnormal());
    }

    #[test]
    fn max_is_neg_infinity_identity() {
        for bits in [0x0000u16, 0x8000, 0x3C00, 0xBC00, 0x7BFF, 0xFBFF, 0x0001] {
            let x = F16(bits);
            assert_eq!(F16::NEG_INFINITY.max(x), x, "max(-inf, {x:?})");
            assert_eq!(x.max(F16::NEG_INFINITY), x, "max({x:?}, -inf)");
        }
    }

    #[test]
    fn max_ignores_nan_like_hardware() {
        let one = F16::ONE;
        assert_eq!(F16::NAN.max(one), one);
        assert_eq!(one.max(F16::NAN), one);
        assert!(F16::NAN.max(F16::NAN).is_nan());
    }

    #[test]
    fn min_is_dual_of_max() {
        let a = F16::from_f32(-3.0);
        let b = F16::from_f32(7.5);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        assert_eq!(F16::INFINITY.min(b), b);
    }

    #[test]
    fn total_cmp_orders_signed_zeros_and_infinities() {
        use core::cmp::Ordering::*;
        assert_eq!(F16::NEG_ZERO.total_cmp(F16::ZERO), Less);
        assert_eq!(F16::NEG_INFINITY.total_cmp(F16::MIN), Less);
        assert_eq!(F16::MAX.total_cmp(F16::INFINITY), Less);
        assert_eq!(F16::ONE.total_cmp(F16::ONE), Equal);
        assert_eq!(F16::from_f32(-2.0).total_cmp(F16::from_f32(-1.0)), Less);
    }

    #[test]
    fn neg_and_abs() {
        assert_eq!(F16::ONE.neg(), F16::NEG_ONE);
        assert_eq!(F16::NEG_ONE.abs(), F16::ONE);
        assert_eq!(F16::NEG_INFINITY.neg(), F16::INFINITY);
        assert_eq!(F16::NEG_ZERO.abs(), F16::ZERO);
    }

    #[test]
    fn ulp_distance_adjacent() {
        let one = F16::ONE;
        let next = F16(one.0 + 1);
        assert_eq!(one.ulp_distance(next), 1);
        assert_eq!(one.ulp_distance(one), 0);
        // totalOrder treats the zeros as distinct adjacent points
        assert_eq!(F16::NEG_ZERO.ulp_distance(F16::ZERO), 1);
    }

    #[test]
    fn byte_views_round_trip() {
        let xs = vec![F16::ONE, F16::from_f32(-2.5), F16::NAN, F16(0x1234)];
        let bytes = as_bytes(&xs);
        assert_eq!(bytes.len(), 8);
        let back = from_bytes(bytes);
        assert_eq!(back, &xs[..]);
        // little-endian check: 1.0 = 0x3C00 => bytes [0x00, 0x3C]
        assert_eq!(&bytes[0..2], &[0x00, 0x3C]);
        let mut ys = xs.clone();
        as_bytes_mut(&mut ys)[2..4].copy_from_slice(&[0x00, 0x3C]);
        assert_eq!(ys, [F16::ONE, F16::ONE, F16::NAN, F16(0x1234)]);
    }

    /// The checked views return `None`, never panic, on an odd length or
    /// a slice that is not 2-byte aligned, and view aligned bytes in
    /// place.
    #[test]
    fn checked_views_refuse_odd_lengths_and_misalignment() {
        let mut xs = [F16::ONE, F16(0x1234), F16::NAN, F16::ZERO];
        let bytes = as_bytes_mut(&mut xs);
        assert!(try_from_bytes(&bytes[..3]).is_none());
        assert!(try_from_bytes(&bytes[1..5]).is_none());
        assert!(try_from_bytes_mut(&mut bytes[1..5]).is_none());
        assert_eq!(
            try_from_bytes(&bytes[2..6]),
            Some(&[F16(0x1234), F16::NAN][..])
        );
        try_from_bytes_mut(&mut bytes[4..8]).expect("aligned")[1] = F16::NEG_ONE;
        assert_eq!(xs, [F16::ONE, F16(0x1234), F16::NAN, F16::NEG_ONE]);
    }

    #[test]
    #[should_panic(expected = "odd byte length")]
    fn from_bytes_rejects_odd_length() {
        let bytes = [0u8; 3];
        let _ = from_bytes(&bytes);
    }
}
