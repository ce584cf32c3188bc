//! The `f32` multiply-accumulate microkernel behind the simulated Cube
//! Unit's `mmad`: f16 operands widened to `f32` (exactly), products and
//! sums rounded to `f32`, one output block held in registers over the
//! whole reduction.
//!
//! # Order and rounding
//!
//! Every output adds its products in ascending `k`, from its initial
//! value: `c ← c + a[0]·b[0]`, then `c ← c + a[1]·b[1]`, and so on, each
//! product rounded to `f32` and each sum rounded again, exactly as a
//! scalar `acc += a * b` loop computes it. The kernel never fuses a
//! multiply into an add (no `fma` is enabled, and Rust does not contract
//! `a * b + c`) and never reassociates, so a finite or infinite result is
//! the same on every host and in every compilation.
//!
//! # The NaN rule
//!
//! Which NaN payload an `f32` multiply or add keeps is not fixed by the
//! source: the compiler may swap the operands of a commutative `fmul` or
//! `fadd`, and the AVX and SSE2 compilations of one loop were seen to
//! keep different payloads. So an output that ends NaN is stored as
//! [`MAC_NAN`] (`0xFFC0_0000`, the NaN x86 produces for an invalid
//! operation), whatever NaN the arithmetic left. Narrowed to `f16` it is
//! `0xFE00`, the f16 operators' invalid result. The rule is one select
//! per output, applied once after the reduction ([`mac_nan_rule`]); an
//! interpreter that applies it to its own `acc += a * b` loop reproduces
//! the kernel bit for bit.

/// Rows of the output block one [`mac_block`] call accumulates.
pub const MAC_ROWS: usize = 4;

/// Edge of the square blocks the operands are stored in, which is also
/// the width of the output block: one 16-wide fractal row.
pub const MAC_EDGE: usize = 16;

/// Bytes of the output block of one [`mac_block`] call:
/// [`MAC_ROWS`] rows of [`MAC_EDGE`] little-endian `f32`.
pub const MAC_BLOCK_BYTES: usize = MAC_ROWS * MAC_EDGE * 4;

/// The bits of the `f32` NaN every multiply-accumulate output that ends
/// NaN is stored as.
pub const MAC_NAN: u32 = 0xFFC0_0000;

/// The multiply-accumulate NaN rule: `x`, or the NaN [`MAC_NAN`] if `x`
/// is any NaN.
#[inline(always)]
pub fn mac_nan_rule(x: f32) -> f32 {
    if x.is_nan() {
        f32::from_bits(MAC_NAN)
    } else {
        x
    }
}

/// Accumulate one block of [`MAC_ROWS`] × [`MAC_EDGE`] outputs of a
/// product of block-stored `f32` matrices into `c`, in place:
///
/// `c[r][j] ← rule(c[r][j] + a[r][0]·b[0][j] + a[r][1]·b[1][j] + …)`
///
/// for `r < 4`, `j < 16` and `k < 16 · depth`, in the order and rounding
/// of the module docs, with the NaN rule ([`mac_nan_rule`]) applied once
/// per output at the end.
///
/// Layout, with `k = 16 d + i`:
/// * `c` holds the outputs as little-endian `f32` bytes, row-major
///   (row `r` at bytes `64 r ..`), the layout of four rows of an L0C
///   fractal;
/// * `a[r][k]` is `a[d * a_step + 16 r + i]`: step `d` of `a` holds rows
///   `r` of a row-major 16 × 16 block;
/// * `b[k][j]` is `b[d * b_step + 16 i + j]`: step `d` of `b` is a
///   row-major 16 × 16 block.
///
/// Runs the AVX compilation of the kernel when the CPU has `avx2` and
/// `f16c` ([`crate::simd_available`]), the portable one otherwise; the
/// two give the same bits.
///
/// # Panics
/// If `c` is not [`MAC_BLOCK_BYTES`] long, or a step of `a` or `b` runs
/// past the end of its slice.
pub fn mac_block(c: &mut [u8], a: &[f32], a_step: usize, b: &[f32], b_step: usize, depth: usize) {
    assert!(
        c.len() == MAC_BLOCK_BYTES,
        "mac_block: {} accumulator bytes, want {MAC_BLOCK_BYTES}",
        c.len()
    );
    crate::convert::mac_block(c, a, a_step, b, b_step, depth);
}

/// The kernel's one source, inlined into both compilations: the block's
/// 64 accumulators are loaded into a local array (registers, when the
/// target has enough), each `b` row is read once per block of rows and
/// each `a` value broadcast across it, and the results are stored back
/// through the NaN rule.
#[inline(always)]
pub(crate) fn mac_block_body(
    c: &mut [u8],
    a: &[f32],
    a_step: usize,
    b: &[f32],
    b_step: usize,
    depth: usize,
) {
    const E: usize = MAC_EDGE;
    let mut acc = [[0.0f32; E]; MAC_ROWS];
    for (row, bytes) in acc.iter_mut().zip(c.chunks_exact(E * 4)) {
        for (x, b) in row.iter_mut().zip(bytes.chunks_exact(4)) {
            *x = f32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        }
    }
    for d in 0..depth {
        let a: &[f32; MAC_ROWS * E] = a[d * a_step..][..MAC_ROWS * E]
            .try_into()
            .expect("one step of a");
        let b: &[f32; E * E] = b[d * b_step..][..E * E].try_into().expect("one step of b");
        for i in 0..E {
            let y: [f32; E] = b[i * E..(i + 1) * E].try_into().expect("one b row");
            for (r, row) in acc.iter_mut().enumerate() {
                let x = a[r * E + i];
                for j in 0..E {
                    row[j] += x * y[j];
                }
            }
        }
    }
    for (row, bytes) in acc.iter().zip(c.chunks_exact_mut(E * 4)) {
        for (&x, out) in row.iter().zip(bytes.chunks_exact_mut(4)) {
            out.copy_from_slice(&mac_nan_rule(x).to_le_bytes());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The scalar loop the kernel must reproduce, one output at a time.
    fn oracle(c: &mut [u8], a: &[f32], a_step: usize, b: &[f32], b_step: usize, depth: usize) {
        for r in 0..MAC_ROWS {
            for j in 0..MAC_EDGE {
                let at = (r * MAC_EDGE + j) * 4;
                let mut acc = f32::from_le_bytes(c[at..at + 4].try_into().unwrap());
                for k in 0..depth * MAC_EDGE {
                    let (d, i) = (k / MAC_EDGE, k % MAC_EDGE);
                    acc += a[d * a_step + r * MAC_EDGE + i] * b[d * b_step + i * MAC_EDGE + j];
                }
                c[at..at + 4].copy_from_slice(&mac_nan_rule(acc).to_le_bytes());
            }
        }
    }

    #[test]
    fn block_matches_the_scalar_loop_on_strided_steps() {
        // Values whose sums round, so any reordering shows.
        let val = |k: usize, m: usize| ((k * 7919 % m) as f32 - (m / 2) as f32) * 0.37;
        let (a_step, b_step, depth) = (256 + 64, 3 * 256, 3);
        let a: Vec<f32> = (0..(depth - 1) * a_step + 64).map(|k| val(k, 61)).collect();
        let b: Vec<f32> = (0..(depth - 1) * b_step + 256)
            .map(|k| val(k, 97))
            .collect();
        for init in [0.0f32, 1.0e-3, -5.5] {
            let mut want: Vec<u8> = (0..64)
                .flat_map(|k| (init * k as f32).to_le_bytes())
                .collect();
            let mut got = want.clone();
            oracle(&mut want, &a, a_step, &b, b_step, depth);
            mac_block(&mut got, &a, a_step, &b, b_step, depth);
            assert_eq!(got, want, "init {init}");
        }
    }

    #[test]
    fn a_nan_output_is_stored_as_the_rule_nan() {
        let mut a = vec![1.0f32; 64];
        a[0] = f32::from_bits(0x7FC0_1234);
        let b = vec![f32::INFINITY; 256];
        let mut c = vec![0u8; MAC_BLOCK_BYTES];
        // Row 0 meets the NaN; rows 1-3 stay +inf.
        mac_block(&mut c, &a, 0, &b, 0, 1);
        let out: Vec<u32> = c
            .chunks_exact(4)
            .map(|x| u32::from_le_bytes(x.try_into().unwrap()))
            .collect();
        assert!(out[..16].iter().all(|&x| x == MAC_NAN));
        assert!(out[16..].iter().all(|&x| x == f32::INFINITY.to_bits()));
        assert_eq!(crate::f16_bits_from_f32(f32::from_bits(MAC_NAN)), 0xFE00);
    }

    #[test]
    fn zero_depth_applies_only_the_rule() {
        let mut c: Vec<u8> = (0..64u32)
            .flat_map(|k| {
                if k == 5 {
                    0x7F80_0001
                } else {
                    (k as f32).to_bits()
                }
                .to_le_bytes()
            })
            .collect();
        mac_block(&mut c, &[], 0, &[], 0, 0);
        assert_eq!(u32::from_le_bytes(c[20..24].try_into().unwrap()), MAC_NAN);
        assert_eq!(f32::from_le_bytes(c[24..28].try_into().unwrap()), 6.0);
    }

    #[test]
    #[should_panic(expected = "accumulator bytes")]
    fn a_short_accumulator_block_panics() {
        mac_block(&mut [0u8; 255], &[0.0; 64], 0, &[0.0; 256], 0, 1);
    }
}
