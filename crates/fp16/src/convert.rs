//! Bit-exact conversions between IEEE 754 binary32 and binary16, the
//! crate's byte views, and the SIMD dispatch of its kernels.
//!
//! `f32 -> f16` uses round-to-nearest, ties-to-even — the default IEEE
//! rounding mode and the one hardware `vconv` instructions implement.
//! `f16 -> f32` is exact.
//!
//! The scalar functions [`f16_bits_from_f32`] and [`f32_from_f16_bits`]
//! define the conversions. The slice conversions [`widen`] and
//! [`narrow`], and the fused widen → `f32` op → narrow pass behind the
//! batch arithmetic kernels, produce the same bits eight lanes at a time
//! with the x86 F16C instructions (`vcvtph2ps`; `vcvtps2ph` rounding to
//! nearest even) when the CPU reports `avx2` and `f16c` at run time
//! ([`simd_available`]), and run the scalar functions otherwise and on
//! the last `len % 8` lanes. Under the same check the multiply-accumulate
//! kernel ([`crate::mac_block`]) runs its AVX compilation and the integer
//! row kernel [`crate::int_rows`] its AVX2 compilation, and each its
//! portable one otherwise. This module holds every `unsafe` block and
//! `#[target_feature]` function of the crate, the byte views
//! [`as_bytes`], [`as_bytes_mut`], [`from_bytes`], [`try_from_bytes`] and
//! [`try_from_bytes_mut`] included; no enabled feature set includes
//! `fma`. Its tests compare the two F16C conversions with the scalar
//! functions on all 65,536 `f16` (also through [`widen`]) and all 2^32
//! `f32` bit patterns (through [`narrow`]), the AVX multiply-accumulate
//! kernel with the portable one, and the AVX2 `max`, `min` and `cmp_eq`
//! rows with the portable ones on all 2^32 operand pairs (on a CPU
//! without AVX2 and F16C there is no second path to compare, and those
//! tests pass without checking).

use crate::rows::{Rows, Source};
use crate::F16;

/// Does this CPU run the SIMD forms of the kernels: x86-64 with `avx2`
/// and `f16c`? Where it does not, [`widen`], [`narrow`], the batch
/// arithmetic kernels, [`crate::mac_block`] and the row kernels
/// ([`crate::int_rows`], [`crate::arith_rows`]) run their portable forms,
/// with the same results and less speed.
pub fn simd_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        f16c::available()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// `dst[i] = src[i]` widened to `f32` (exact), bit-identical to
/// [`f32_from_f16_bits`] lane by lane; eight lanes at a time with F16C
/// where the CPU has it.
///
/// # Panics
/// If the two slices differ in length.
pub fn widen(src: &[F16], dst: &mut [f32]) {
    assert!(
        src.len() == dst.len(),
        "widen: slice lengths differ ({}, {})",
        src.len(),
        dst.len()
    );
    let scalar = |(x, h): (&mut f32, &F16)| *x = f32_from_f16_bits(h.0);
    #[cfg(target_arch = "x86_64")]
    if f16c::available() {
        let whole = src.len() - src.len() % f16c::LANES;
        // SAFETY: the CPU supports `avx` and `f16c` (checked just above).
        unsafe { f16c::widen(&src[..whole], &mut dst[..whole]) };
        dst[whole..].iter_mut().zip(&src[whole..]).for_each(scalar);
        return;
    }
    dst.iter_mut().zip(src).for_each(scalar);
}

/// `dst[i] = src[i]` narrowed to `f16`, rounding to nearest even,
/// bit-identical to [`f16_bits_from_f32`] lane by lane; eight lanes at a
/// time with F16C where the CPU has it.
///
/// # Panics
/// If the two slices differ in length.
pub fn narrow(src: &[f32], dst: &mut [F16]) {
    assert!(
        src.len() == dst.len(),
        "narrow: slice lengths differ ({}, {})",
        src.len(),
        dst.len()
    );
    let scalar = |(h, x): (&mut F16, &f32)| h.0 = f16_bits_from_f32(*x);
    #[cfg(target_arch = "x86_64")]
    if f16c::available() {
        let whole = src.len() - src.len() % f16c::LANES;
        // SAFETY: the CPU supports `avx` and `f16c` (checked just above).
        unsafe { f16c::narrow(&src[..whole], &mut dst[..whole]) };
        dst[whole..].iter_mut().zip(&src[whole..]).for_each(scalar);
        return;
    }
    dst.iter_mut().zip(src).for_each(scalar);
}

/// [`crate::mac_block`]'s dispatch: the AVX compilation of the kernel
/// when the CPU has it, the portable compilation otherwise.
#[inline]
pub(crate) fn mac_block(
    c: &mut [u8],
    a: &[f32],
    a_step: usize,
    b: &[f32],
    b_step: usize,
    depth: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if f16c::available() {
        // SAFETY: the CPU supports `avx` and `f16c` (checked just above).
        unsafe { f16c::mac_block(c, a, a_step, b, b_step, depth) };
        return;
    }
    crate::mac::mac_block_body(c, a, a_step, b, b_step, depth);
}

/// [`crate::int_rows`]' dispatch: the AVX2 compilation of its one source
/// when the CPU has it, the portable compilation otherwise.
#[inline]
pub(crate) fn int_rows(
    dst: &mut [F16],
    rows: &Rows<'_>,
    a: Source<'_>,
    b: Source<'_>,
    op: impl Fn(F16, F16) -> F16 + Copy,
) {
    #[cfg(target_arch = "x86_64")]
    if f16c::available() {
        // SAFETY: the CPU supports `avx2` (checked just above).
        unsafe { f16c::int_rows(dst, rows, a, b, op) };
        return;
    }
    crate::rows::int_rows_body(dst, rows, a, b, op);
}

/// `out[i] = narrow(op(widen(a[i]), widen(b[i])))` in one pass, with no
/// `f32` slices in between: the batch arithmetic kernels' conversion
/// step, bit-identical to converting lane by lane with the scalar
/// functions. The caller checks that the three lengths are equal.
#[inline(always)]
pub(crate) fn widen_op_narrow(a: &[F16], b: &[F16], out: &mut [F16], op: impl Fn(f32, f32) -> f32) {
    debug_assert!(a.len() == out.len() && b.len() == out.len());
    let scalar = |(r, (a, b)): (&mut F16, (&F16, &F16))| {
        r.0 = f16_bits_from_f32(op(f32_from_f16_bits(a.0), f32_from_f16_bits(b.0)));
    };
    #[cfg(target_arch = "x86_64")]
    if f16c::available() {
        let whole = out.len() - out.len() % f16c::LANES;
        // SAFETY: the CPU supports `avx` and `f16c` (checked just above).
        unsafe { f16c::widen_op_narrow(&a[..whole], &b[..whole], &mut out[..whole], &op) };
        out[whole..]
            .iter_mut()
            .zip(a[whole..].iter().zip(&b[whole..]))
            .for_each(scalar);
        return;
    }
    out.iter_mut().zip(a.iter().zip(b)).for_each(scalar);
}

/// The x86 SIMD compilations: the F16C forms of the conversions (each
/// converts whole groups of [`LANES`] lanes; the tails go through the
/// scalar functions), and the AVX and AVX2 compilations of the
/// multiply-accumulate and integer row kernels.
#[cfg(target_arch = "x86_64")]
mod f16c {
    use crate::rows::{Rows, Source};
    use crate::F16;
    use std::arch::x86_64::_MM_FROUND_TO_NEAREST_INT;
    use std::arch::x86_64::{__m128i, __m256, _mm256_cvtph_ps, _mm256_cvtps_ph};

    /// Lanes one F16C instruction converts.
    pub(super) const LANES: usize = 8;

    /// Does this CPU run the SIMD kernels (`avx2`, which implies `avx`,
    /// and `f16c`)? The standard library caches the CPUID probe, so this
    /// is a load and a test after the first call.
    #[inline]
    pub(super) fn available() -> bool {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("f16c")
    }

    /// Eight halves to eight singles (`vcvtph2ps`).
    #[inline]
    #[target_feature(enable = "avx,f16c")]
    fn to_f32(h: &[F16]) -> [f32; LANES] {
        let h: [F16; LANES] = h.try_into().expect("one group of lanes");
        // SAFETY: `[F16; 8]` and `__m128i` are both 16 bytes with no
        // padding, `F16` is `repr(transparent)` over `u16` (so these are
        // the eight raw halves `vcvtph2ps` reads), and every bit pattern
        // is a valid `__m128i`. Likewise `__m256` and `[f32; 8]` are both
        // 32 bytes and every bit pattern is a valid `f32`.
        unsafe {
            let h = core::mem::transmute::<[F16; LANES], __m128i>(h);
            core::mem::transmute::<__m256, [f32; LANES]>(_mm256_cvtph_ps(h))
        }
    }

    /// Eight singles to eight halves (`vcvtps2ph`), rounding to nearest
    /// even: immediate 0, so `MXCSR.RC` is not consulted.
    #[inline]
    #[target_feature(enable = "avx,f16c")]
    fn to_f16(x: [f32; LANES]) -> [F16; LANES] {
        // SAFETY: as in `to_f32`: equal sizes, no padding, and every bit
        // pattern valid for the target type.
        unsafe {
            let x = core::mem::transmute::<[f32; LANES], __m256>(x);
            let h = _mm256_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(x);
            core::mem::transmute::<__m128i, [F16; LANES]>(h)
        }
    }

    /// [`super::widen`] on whole groups of lanes.
    ///
    /// # Safety
    /// The CPU must support `avx` and `f16c`.
    #[target_feature(enable = "avx,f16c")]
    pub(super) unsafe fn widen(src: &[F16], dst: &mut [f32]) {
        for (h, x) in src.chunks_exact(LANES).zip(dst.chunks_exact_mut(LANES)) {
            x.copy_from_slice(&to_f32(h));
        }
    }

    /// [`super::narrow`] on whole groups of lanes.
    ///
    /// # Safety
    /// The CPU must support `avx` and `f16c`.
    #[target_feature(enable = "avx,f16c")]
    pub(super) unsafe fn narrow(src: &[f32], dst: &mut [F16]) {
        for (x, h) in src.chunks_exact(LANES).zip(dst.chunks_exact_mut(LANES)) {
            let x: [f32; LANES] = x.try_into().expect("one group of lanes");
            h.copy_from_slice(&to_f16(x));
        }
    }

    /// [`crate::mac_block`] compiled for AVX: the portable source, whose
    /// 4 × 16 accumulators then fit eight 256-bit registers, with each
    /// `b` row two loads and each `a` value one broadcast. `fma` is not
    /// enabled, so every product is rounded before its add.
    ///
    /// # Safety
    /// The CPU must support `avx`.
    #[target_feature(enable = "avx")]
    pub(super) unsafe fn mac_block(
        c: &mut [u8],
        a: &[f32],
        a_step: usize,
        b: &[f32],
        b_step: usize,
        depth: usize,
    ) {
        crate::mac::mac_block_body(c, a, a_step, b, b_step, depth);
    }

    /// [`crate::int_rows`] compiled for AVX2: the portable source, whose
    /// lane loops then run on sixteen `f16` lanes per 256-bit integer
    /// operation.
    ///
    /// # Safety
    /// The CPU must support `avx2`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn int_rows(
        dst: &mut [F16],
        rows: &Rows<'_>,
        a: Source<'_>,
        b: Source<'_>,
        op: impl Fn(F16, F16) -> F16 + Copy,
    ) {
        crate::rows::int_rows_body(dst, rows, a, b, op);
    }

    /// [`super::widen_op_narrow`] on the whole groups of lanes the three
    /// slices share: both operand groups widened, `op` applied lane by
    /// lane (inlined here, so the eight lanes compile to one AVX
    /// operation), the results narrowed.
    ///
    /// # Safety
    /// The CPU must support `avx` and `f16c`.
    #[target_feature(enable = "avx,f16c")]
    pub(super) unsafe fn widen_op_narrow(
        a: &[F16],
        b: &[F16],
        out: &mut [F16],
        op: &impl Fn(f32, f32) -> f32,
    ) {
        let groups = a.chunks_exact(LANES).zip(b.chunks_exact(LANES));
        for ((a, b), out) in groups.zip(out.chunks_exact_mut(LANES)) {
            let (x, y) = (to_f32(a), to_f32(b));
            out.copy_from_slice(&to_f16(core::array::from_fn(|i| op(x[i], y[i]))));
        }
    }

    /// The slice conversions against the scalar functions on every input
    /// bit pattern, and the AVX compilation of the multiply-accumulate
    /// kernel against the portable one. On a CPU without F16C there is
    /// nothing to compare.
    #[cfg(test)]
    mod tests {
        use super::available;
        use crate::convert::{as_bytes, f16_bits_from_f32, f32_from_f16_bits, narrow, widen};
        use crate::mac::{mac_block_body, MAC_BLOCK_BYTES, MAC_EDGE, MAC_ROWS};
        use crate::rows::{int_rows_body, Rows, Source};
        use crate::F16;

        #[test]
        fn widen_matches_the_scalar_conversion_on_every_f16() {
            if !available() {
                return;
            }
            let all: Vec<F16> = (0..=u16::MAX).map(F16).collect();
            // From lane 0 every lane is in an F16C group; from lane 3 the
            // last five run the scalar tail.
            for first in [0, 3] {
                let mut x = vec![0.0f32; all.len() - first];
                widen(&all[first..], &mut x);
                for (h, x) in all[first..].iter().zip(x) {
                    let want = f32_from_f16_bits(h.0);
                    assert!(
                        x.to_bits() == want.to_bits(),
                        "widen({:#06x}) = {:#010x}, scalar {:#010x}",
                        h.0,
                        x.to_bits(),
                        want.to_bits()
                    );
                }
            }
        }

        /// Release: 9.5 s on a 2-vCPU x86-64 VM.
        #[test]
        fn narrow_matches_the_scalar_conversion_on_every_f32() {
            const CHUNK: usize = 1 << 12;
            if !available() {
                return;
            }
            let (mut x, mut h) = (vec![0.0f32; CHUNK], vec![F16::ZERO; CHUNK]);
            for first in (0..=u32::MAX).step_by(CHUNK) {
                for (i, x) in x.iter_mut().enumerate() {
                    *x = f32::from_bits(first + i as u32);
                }
                narrow(&x, &mut h);
                for (x, h) in x.iter().zip(&h) {
                    let want = f16_bits_from_f32(*x);
                    assert!(
                        h.0 == want,
                        "narrow({:#010x}) = {:#06x}, scalar {want:#06x}",
                        x.to_bits(),
                        h.0
                    );
                }
            }
            // A length that leaves a scalar tail.
            narrow(&x[..CHUNK - 3], &mut h[..CHUNK - 3]);
            assert!(x[..CHUNK - 3]
                .iter()
                .zip(&h)
                .all(|(x, h)| h.0 == f16_bits_from_f32(*x)));
        }

        /// The AVX and the portable (baseline x86-64) compilations of the
        /// one kernel source give the same bytes on operands from the f16
        /// edge values (NaN payloads of both signs, infinities,
        /// subnormals, signed zeros) and on seeded finite values, from
        /// NaN, infinite and finite accumulators, at several depths and
        /// steps.
        #[test]
        fn avx_mac_block_matches_the_portable_compilation() {
            if !available() {
                return;
            }
            const EDGES: [u16; 16] = [
                0x0000, 0x8000, 0x7C00, 0xFC00, 0x7E00, 0x7C01, 0xFE01, 0x7FFF, 0x0001, 0x03FF,
                0x8001, 0x83FF, 0x7BFF, 0xFBFF, 0x3C00, 0xC100,
            ];
            fn hash(k: usize, salt: u64) -> usize {
                ((k as u64 ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as usize
            }
            fn edge(k: usize, salt: u64) -> f32 {
                f32_from_f16_bits(EDGES[hash(k, salt) % EDGES.len()])
            }
            // Any sign, exponents 2^-4 to 2^3, any mantissa: the sums
            // round.
            fn finite(k: usize, salt: u64) -> f32 {
                let h = hash(k, salt);
                f32_from_f16_bits(
                    ((h & 1) << 15 | (11 + (h >> 1) % 8) << 10 | (h >> 4) & 0x3FF) as u16,
                )
            }
            let values: [fn(usize, u64) -> f32; 2] = [edge, finite];
            let blocks = MAC_ROWS * MAC_EDGE;
            for (depth, a_step, b_step) in [(1, 64, 256), (3, 256, 256), (9, 256, 1024), (4, 64, 0)]
            {
                for (salt, value) in [(1, values[0]), (2, values[1])] {
                    let a: Vec<f32> = (0..depth * a_step.max(blocks))
                        .map(|k| value(k, salt))
                        .collect();
                    let b: Vec<f32> = (0..depth * b_step.max(256))
                        .map(|k| value(k, salt + 7))
                        .collect();
                    for init in values {
                        let c0: Vec<u8> = (0..blocks)
                            .flat_map(|k| init(k, salt + 13).to_le_bytes())
                            .collect();
                        let (mut portable, mut avx) = (c0.clone(), c0);
                        assert_eq!(avx.len(), MAC_BLOCK_BYTES);
                        mac_block_body(&mut portable, &a, a_step, &b, b_step, depth);
                        // SAFETY: the CPU supports `avx` and `f16c` (checked above).
                        unsafe { super::mac_block(&mut avx, &a, a_step, &b, b_step, depth) };
                        assert!(
                            avx == portable,
                            "depth {depth}, steps {a_step}/{b_step}, salt {salt}: AVX and portable diverged"
                        );
                    }
                }
            }
        }

        /// The AVX2 and the portable compilations of the integer row
        /// kernels give the same lanes for `max`, `min` and `cmp_eq` on
        /// every pair of f16 bit patterns, with both sources apart from
        /// the destination and with the destination as the left source
        /// (the in-place `vmax` of the Im2col forward). Release: 13 s on a
        /// 2-vCPU x86-64 VM.
        #[test]
        fn avx2_lane_kernels_match_the_portable_compilation() {
            if !available() {
                return;
            }
            const HALF: usize = 1 << 15;
            // Two repeats of one 32768-lane run cover all 65,536 lanes.
            let all: Vec<F16> = (0..=u16::MAX).map(F16).collect();
            fn each(lanes: &[F16]) -> Source<'_> {
                Source::Lanes {
                    lanes,
                    first: 0,
                    step: HALF,
                }
            }
            // Each operation passes as its own function item or closure, so
            // both compilations inline it (a function pointer would not be).
            fn check(name: &str, all: &[F16], op: impl Fn(F16, F16) -> F16 + Copy) {
                let rows = Rows {
                    repeat: 2,
                    runs: &[(0, HALF as u16)],
                    dst_step: HALF,
                };
                let (mut portable, mut avx2) =
                    (vec![F16::ZERO; 2 * HALF], vec![F16::ZERO; 2 * HALF]);
                let mut xs = vec![F16::ZERO; 2 * HALF];
                for x in 0..=u16::MAX {
                    xs.fill(F16(x));
                    for (a, init) in [(each(&xs), F16::ZERO), (Source::Dst, F16(x))] {
                        portable.fill(init);
                        avx2.fill(init);
                        int_rows_body(&mut portable, &rows, a, each(all), op);
                        // SAFETY: the CPU supports `avx2` (checked by the caller).
                        unsafe { super::int_rows(&mut avx2, &rows, a, each(all), op) };
                        assert!(
                            as_bytes(&avx2) == as_bytes(&portable),
                            "{name}({x:#06x}, _), a {a:?}: AVX2 and portable diverged"
                        );
                    }
                }
            }
            check("max", &all, F16::max);
            check("min", &all, F16::min);
            check(
                "cmp_eq",
                &all,
                |x, y| if x == y { F16::ONE } else { F16::ZERO },
            );
        }
    }
}

/// Reinterpret a slice of `F16` as raw little-endian bytes.
///
/// The simulator's scratchpad buffers are byte-addressed, so kernels and
/// tests use this to move tensors in and out without copying element by
/// element.
pub fn as_bytes(slice: &[F16]) -> &[u8] {
    // SAFETY: F16 is repr(transparent) over u16 with alignment 2 and no
    // padding; any bit pattern is a valid F16.
    unsafe { core::slice::from_raw_parts(slice.as_ptr().cast::<u8>(), slice.len() * 2) }
}

/// Reinterpret a mutable slice of `F16` as raw little-endian bytes — how
/// a caller lends a result tensor to the simulator's byte-addressed
/// global memory, which then writes the results straight into it.
pub fn as_bytes_mut(slice: &mut [F16]) -> &mut [u8] {
    // SAFETY: as in `as_bytes`; the bytes borrow the slice mutably, and
    // any bytes written form valid F16s.
    unsafe { core::slice::from_raw_parts_mut(slice.as_mut_ptr().cast::<u8>(), slice.len() * 2) }
}

/// Reinterpret raw bytes as a slice of `F16`. Panics if the byte slice is
/// misaligned or has odd length; [`try_from_bytes`] returns `None`
/// instead.
pub fn from_bytes(bytes: &[u8]) -> &[F16] {
    assert!(
        bytes.len().is_multiple_of(2),
        "odd byte length {}",
        bytes.len()
    );
    try_from_bytes(bytes).expect("misaligned f16 byte slice")
}

/// Can `bytes` be viewed as `F16` lanes: even length, and 2-byte aligned
/// in host memory (an allocator may place a byte buffer anywhere)?
fn f16_viewable(bytes: &[u8]) -> bool {
    bytes.len().is_multiple_of(2)
        && (bytes.as_ptr() as usize).is_multiple_of(core::mem::align_of::<F16>())
}

/// Raw bytes as `F16` lanes, or `None` if the slice has odd length or is
/// not 2-byte aligned in host memory. Never panics.
pub fn try_from_bytes(bytes: &[u8]) -> Option<&[F16]> {
    if !f16_viewable(bytes) {
        return None;
    }
    // SAFETY: length and alignment checked just above; any bit pattern is
    // a valid F16.
    Some(unsafe { core::slice::from_raw_parts(bytes.as_ptr().cast::<F16>(), bytes.len() / 2) })
}

/// Raw bytes as mutable `F16` lanes, or `None` if the slice has odd
/// length or is not 2-byte aligned in host memory: how the simulator's
/// executors compute straight on a byte-addressed scratchpad's f16
/// lanes. Never panics.
pub fn try_from_bytes_mut(bytes: &mut [u8]) -> Option<&mut [F16]> {
    if !f16_viewable(bytes) {
        return None;
    }
    // SAFETY: length and alignment checked just above; the lanes borrow
    // the bytes mutably, and any bits written form valid bytes.
    Some(unsafe {
        core::slice::from_raw_parts_mut(bytes.as_mut_ptr().cast::<F16>(), bytes.len() / 2)
    })
}

/// Convert an `f32` to the nearest `f16` bit pattern (round-to-nearest-even).
///
/// Handles normals, subnormals, signed zeros, infinities, NaN (preserving
/// "quietness" by setting the top mantissa bit), overflow to infinity and
/// underflow to zero.
pub fn f16_bits_from_f32(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp32 = ((bits >> 23) & 0xFF) as i32;
    let man32 = bits & 0x007F_FFFF;

    if exp32 == 0xFF {
        // Infinity or NaN.
        return if man32 == 0 {
            sign | 0x7C00
        } else {
            // Quiet NaN; keep top mantissa bits where possible.
            let payload = (man32 >> 13) as u16 & 0x03FF;
            sign | 0x7C00 | payload | 0x0200
        };
    }

    // Unbiased exponent.
    let exp = exp32 - 127;

    if exp > 15 {
        // Overflows f16 range (max normal exponent is 15) -> infinity.
        return sign | 0x7C00;
    }

    if exp >= -14 {
        // Normal f16 range. 10-bit mantissa; round 23 -> 10 bits.
        let exp16 = (exp + 15) as u32; // 1..=30
        let man = man32;
        let shifted = man >> 13;
        let round_bit = (man >> 12) & 1;
        let sticky = man & 0x0FFF;
        let mut m = shifted;
        if round_bit == 1 && (sticky != 0 || (shifted & 1) == 1) {
            m += 1;
        }
        // Addition (not OR) so a mantissa carry (m == 0x400) propagates
        // into the exponent; if the exponent was 30 this correctly yields
        // infinity 0x7C00.
        let result = (exp16 << 10) + m;
        return sign | result as u16;
    }

    if exp >= -25 {
        // Subnormal f16 (or rounds up into the smallest normal).
        // Value = 1.man32 * 2^exp; align into a 10-bit subnormal mantissa
        // with exponent -14. The implicit leading 1 must be materialised.
        let man = man32 | 0x0080_0000; // 24-bit significand
        let shift = (-exp - 14 + 13) as u32; // in 14..=24 for exp in -25..=-15
        debug_assert!((14..=24).contains(&shift));
        let shifted = man >> shift;
        let round_mask = 1u32 << (shift - 1);
        let sticky_mask = round_mask - 1;
        let round_bit = (man & round_mask) != 0;
        let sticky = (man & sticky_mask) != 0;
        let mut m = shifted;
        if round_bit && (sticky || (shifted & 1) == 1) {
            m += 1;
        }
        // m can reach 0x400 = smallest normal; the bit layout is again
        // continuous so plain addition is correct.
        return sign | m as u16;
    }

    // Underflows to (signed) zero.
    sign
}

/// Convert an `f16` bit pattern to the exactly equal `f32`.
pub fn f32_from_f16_bits(bits: u16) -> f32 {
    let sign = ((bits & 0x8000) as u32) << 16;
    let exp = ((bits >> 10) & 0x1F) as u32;
    let man = (bits & 0x03FF) as u32;

    let out = if exp == 0 {
        if man == 0 {
            sign // signed zero
        } else {
            // Subnormal: value = man * 2^-24. Normalise into f32: with the
            // most significant set bit of `man` at index k, the value is
            // 1.xxx * 2^(k - 24).
            let k = 31 - man.leading_zeros(); // 0..=9
            let exp32 = k + 103; // 127 + (k - 24)
            let man_norm = (man << (10 - k)) & 0x03FF; // drop implicit bit
            sign | (exp32 << 23) | (man_norm << 13)
        }
    } else if exp == 0x1F {
        if man == 0 {
            sign | 0x7F80_0000 // infinity
        } else {
            sign | 0x7FC0_0000 | (man << 13) // NaN, keep payload, force quiet
        }
    } else {
        let exp32 = exp + 127 - 15;
        sign | (exp32 << 23) | (man << 13)
    };
    f32::from_bits(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exhaustive: every f16 bit pattern must survive a round trip through
    /// f32 (the conversion f16->f32 is exact, so f32->f16 must return the
    /// original bits, modulo NaN payload quieting).
    #[test]
    fn exhaustive_f16_to_f32_round_trip() {
        for bits in 0u16..=u16::MAX {
            let x = f32_from_f16_bits(bits);
            let back = f16_bits_from_f32(x);
            let exp = (bits >> 10) & 0x1F;
            let man = bits & 0x03FF;
            if exp == 0x1F && man != 0 {
                // NaN: sign+quiet bit preserved, payload may be altered.
                assert!(
                    (back >> 10) & 0x1F == 0x1F && back & 0x03FF != 0,
                    "NaN {bits:04x} -> {back:04x}"
                );
            } else {
                assert_eq!(back, bits, "round trip failed for {bits:04x} ({x})");
            }
        }
    }

    #[test]
    fn known_values() {
        assert_eq!(f16_bits_from_f32(0.0), 0x0000);
        assert_eq!(f16_bits_from_f32(-0.0), 0x8000);
        assert_eq!(f16_bits_from_f32(1.0), 0x3C00);
        assert_eq!(f16_bits_from_f32(-2.0), 0xC000);
        assert_eq!(f16_bits_from_f32(65504.0), 0x7BFF);
        assert_eq!(f16_bits_from_f32(0.5), 0x3800);
        assert_eq!(f16_bits_from_f32(0.099975586), 0x2E66); // nearest to 0.1
        assert_eq!(f32_from_f16_bits(0x3555), 0.33325195); // ~1/3
    }

    #[test]
    fn overflow_rounds_to_infinity() {
        assert_eq!(f16_bits_from_f32(65520.0), 0x7C00); // ties-to-even up
        assert_eq!(f16_bits_from_f32(1e9), 0x7C00);
        assert_eq!(f16_bits_from_f32(-1e9), 0xFC00);
        assert_eq!(f16_bits_from_f32(f32::INFINITY), 0x7C00);
        assert_eq!(f16_bits_from_f32(f32::NEG_INFINITY), 0xFC00);
    }

    #[test]
    fn underflow_rounds_to_zero() {
        assert_eq!(f16_bits_from_f32(1e-9), 0x0000);
        assert_eq!(f16_bits_from_f32(-1e-9), 0x8000);
        // Half of the smallest subnormal ties to even -> zero.
        let half_min_sub = 2.0_f32.powi(-25);
        assert_eq!(f16_bits_from_f32(half_min_sub), 0x0000);
        // Just above half of the smallest subnormal rounds up.
        let just_above = f32::from_bits(half_min_sub.to_bits() + 1);
        assert_eq!(f16_bits_from_f32(just_above), 0x0001);
    }

    #[test]
    fn subnormal_boundaries() {
        // Largest subnormal: (1023/1024) * 2^-14.
        let largest_sub = 1023.0_f32 * 2.0_f32.powi(-24);
        assert_eq!(f16_bits_from_f32(largest_sub), 0x03FF);
        // Smallest normal.
        assert_eq!(f16_bits_from_f32(2.0_f32.powi(-14)), 0x0400);
        // Smallest subnormal.
        assert_eq!(f16_bits_from_f32(2.0_f32.powi(-24)), 0x0001);
    }

    #[test]
    fn ties_round_to_even() {
        // 1.0 + 2^-11 is exactly between 1.0 (0x3C00) and 1.0+2^-10
        // (0x3C01); even mantissa wins -> 0x3C00.
        let tie = 1.0 + 2.0_f32.powi(-11);
        assert_eq!(f16_bits_from_f32(tie), 0x3C00);
        // 1.0 + 3*2^-11 is between 0x3C01 and 0x3C02; even -> 0x3C02.
        let tie2 = 1.0 + 3.0 * 2.0_f32.powi(-11);
        assert_eq!(f16_bits_from_f32(tie2), 0x3C02);
    }

    #[test]
    fn mantissa_carry_into_exponent() {
        // Value slightly below 2.0 that rounds up across the binade.
        let x = 1.99999; // rounds to 2.0 in f16
        assert_eq!(f16_bits_from_f32(x), 0x4000);
        // Value slightly below 65536 that would round to 2^16 -> infinity.
        assert_eq!(f16_bits_from_f32(65535.0), 0x7C00);
    }

    #[test]
    fn nan_conversion_preserves_nanness_and_sign() {
        let qnan = f32::NAN;
        let b = f16_bits_from_f32(qnan);
        assert_eq!((b >> 10) & 0x1F, 0x1F);
        assert_ne!(b & 0x03FF, 0);
        let neg_nan = f32::from_bits(f32::NAN.to_bits() | 0x8000_0000);
        let nb = f16_bits_from_f32(neg_nan);
        assert_ne!(nb & 0x8000, 0);
        assert!(f32_from_f16_bits(nb).is_nan());
    }
}
