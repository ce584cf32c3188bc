//! The 128-bit vector lane mask.
//!
//! "The Vector Unit … uses a 128-bit mask register in which every bit
//! represents one element of a vector instruction that may be processed or
//! not" (paper, Section III-A). Saturating this mask is the first of the
//! two performance factors the paper identifies for vector code
//! (Section V): a `vmax` over strided NC1HWC0 data can only set 16 of 128
//! lanes (the contiguous C0 group), wasting 7/8 of the unit's throughput,
//! while the im2col layout lets all 128 lanes be set.

use crate::VECTOR_LANES;
use core::fmt;

/// A 128-bit lane mask; bit `i` enables f16 lane `i` of each repeat
/// iteration.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Mask {
    bits: [u64; 2],
}

impl Mask {
    /// All 128 lanes enabled — the saturated mask of the accelerated
    /// kernels.
    pub const FULL: Mask = Mask {
        bits: [u64::MAX, u64::MAX],
    };

    /// No lanes enabled (useful as a guard value in tests).
    pub const EMPTY: Mask = Mask { bits: [0, 0] };

    /// The first 16 lanes — one C0 channel group, the mask of the
    /// baseline strided kernels.
    pub const C0_ONLY: Mask = Mask { bits: [0xFFFF, 0] };

    /// Enable the first `n` lanes (`n <= 128`).
    pub fn first_n(n: usize) -> Mask {
        assert!(n <= VECTOR_LANES, "mask width {n} exceeds {VECTOR_LANES}");
        let bits = match n {
            0 => [0, 0],
            1..=63 => [(1u64 << n) - 1, 0],
            64 => [u64::MAX, 0],
            65..=127 => [u64::MAX, (1u64 << (n - 64)) - 1],
            _ => [u64::MAX, u64::MAX],
        };
        Mask { bits }
    }

    /// Build from an explicit pair of words (`bits[0]` holds lanes 0–63).
    pub const fn from_words(lo: u64, hi: u64) -> Mask {
        Mask { bits: [lo, hi] }
    }

    /// The pair of words [`Mask::from_words`] takes (`lo` holds lanes
    /// 0–63).
    pub const fn to_words(&self) -> (u64, u64) {
        (self.bits[0], self.bits[1])
    }

    /// Is lane `i` enabled?
    #[inline]
    pub fn lane(&self, i: usize) -> bool {
        debug_assert!(i < VECTOR_LANES);
        (self.bits[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Number of enabled lanes.
    pub fn count(&self) -> usize {
        (self.bits[0].count_ones() + self.bits[1].count_ones()) as usize
    }

    /// Lane utilization in [0, 1] — the quantity Fig. 7/8's speedups trace
    /// back to.
    pub fn utilization(&self) -> f64 {
        self.count() as f64 / VECTOR_LANES as f64
    }

    /// True when every lane is enabled.
    pub fn is_full(&self) -> bool {
        self.bits == [u64::MAX, u64::MAX]
    }

    /// True when no lane is enabled.
    pub fn is_empty(&self) -> bool {
        self.bits == [0, 0]
    }
}

impl fmt::Debug for Mask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Mask({}/{} lanes)", self.count(), VECTOR_LANES)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants() {
        assert_eq!(Mask::FULL.count(), 128);
        assert!(Mask::FULL.is_full());
        assert_eq!(Mask::EMPTY.count(), 0);
        assert!(Mask::EMPTY.is_empty());
        assert_eq!(Mask::C0_ONLY.count(), 16);
        assert!((Mask::C0_ONLY.utilization() - 0.125).abs() < 1e-12);
    }

    #[test]
    fn first_n_boundaries() {
        assert_eq!(Mask::first_n(0), Mask::EMPTY);
        assert_eq!(Mask::first_n(16), Mask::C0_ONLY);
        assert_eq!(Mask::first_n(128), Mask::FULL);
        assert_eq!(Mask::first_n(64).count(), 64);
        assert_eq!(Mask::first_n(65).count(), 65);
        assert_eq!(Mask::first_n(127).count(), 127);
        // lanes are contiguous from 0
        let m = Mask::first_n(100);
        for i in 0..128 {
            assert_eq!(m.lane(i), i < 100, "lane {i}");
        }
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn first_n_overflow_panics() {
        let _ = Mask::first_n(129);
    }

    #[test]
    fn from_words_lane_mapping() {
        let m = Mask::from_words(0b1010, 0b1);
        assert!(!m.lane(0));
        assert!(m.lane(1));
        assert!(!m.lane(2));
        assert!(m.lane(3));
        assert!(m.lane(64));
        assert!(!m.lane(65));
        assert_eq!(m.count(), 3);
    }
}
