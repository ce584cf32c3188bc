//! The row kernels behind the simulated Vector Unit: one lane operation
//! over every row of one vector instruction, computed in place on `f16`
//! lanes.
//!
//! # Rows
//!
//! A call computes rows in this order: for each repeat `r` below
//! [`Rows::repeat`], each lane run `[s, e)` of [`Rows::runs`] in turn.
//! Row `(r, [s, e))` writes `dst[r * dst_step + s .. r * dst_step + e]`
//! and reads, from each [`Source`], either that same destination row
//! ([`Source::Dst`]) or the lanes `[s, e)` of its own `r`-th step
//! ([`Source::Lanes`]). Each row reads all its sources, then writes all
//! its lanes. A source that is the destination therefore reads, lane by
//! lane, exactly what a lane-at-a-time loop would (each lane reads only
//! the lane it writes), and a separate slice is never written; so in the
//! rows' order the result equals the loop's bit for bit, whatever the
//! steps, even where the rows of successive repeats overlap.
//!
//! # Kernels
//!
//! The caller names the lane operation as a closure, so each operation
//! compiles to its own loop. [`int_rows`] runs an operation on `f16`
//! lanes (`max`, `min`, `cmp_eq`, `relu`, copy, dup): one source,
//! [`int_rows_body`], compiled twice, for AVX2 (sixteen lanes per
//! 256-bit operation) and for the baseline target; [`crate::simd_available`]
//! picks one at run time, and both give the same bits. [`arith_rows`]
//! runs an `f32` operation through the crate's batch kernels (F16C widen
//! → `f32` op → narrow, then the NaN rule) row by row, [`CHUNK`] lanes at
//! a time, staging a destination chunk on the stack when it is also a
//! source.

use crate::ops::zip_arith;
use crate::F16;

/// Where a row kernel reads one operand.
#[derive(Clone, Copy, Debug)]
pub enum Source<'s> {
    /// The destination row itself, read before it is written; also the
    /// placement of an operand the operation does not read.
    Dst,
    /// A slice apart from the destination: row `(r, [s, e))` reads
    /// `lanes[first + r * step + s .. first + r * step + e]`.
    Lanes {
        /// The slice.
        lanes: &'s [F16],
        /// Lane of repeat 0's lane 0.
        first: usize,
        /// Lanes one repeat advances by.
        step: usize,
    },
}

impl<'s> Source<'s> {
    /// The lanes `[s, e)` of repeat `r`, or `None` for the destination.
    #[inline(always)]
    fn row(self, r: usize, s: usize, e: usize) -> Option<&'s [F16]> {
        match self {
            Source::Dst => None,
            Source::Lanes { lanes, first, step } => {
                let at = first + r * step;
                Some(&lanes[at + s..at + e])
            }
        }
    }
}

/// The rows one call of a row kernel computes (see the module docs).
#[derive(Clone, Copy, Debug)]
pub struct Rows<'r> {
    /// Repeats.
    pub repeat: usize,
    /// Lane runs `[start, end)` of one repeat, in the order they run.
    pub runs: &'r [(u16, u16)],
    /// Lanes one repeat advances the destination by.
    pub dst_step: usize,
}

/// Lanes an arithmetic row kernel converts per batch-kernel call.
const CHUNK: usize = 128;

/// `dst[i] = op(a[i], b[i])` over every row of `rows`, in order, in place
/// on `f16` lanes (see the module docs); the AVX2 compilation where the
/// CPU has AVX2 and F16C ([`crate::simd_available`]), the portable one
/// otherwise, with the same bits. A [`Source::Lanes`] is read whether or
/// not `op` uses it, so an operand the operation ignores should be
/// [`Source::Dst`].
///
/// # Panics
/// If a row falls outside `dst` or outside a source slice.
pub fn int_rows(
    dst: &mut [F16],
    rows: Rows<'_>,
    a: Source<'_>,
    b: Source<'_>,
    op: impl Fn(F16, F16) -> F16 + Copy,
) {
    crate::convert::int_rows(dst, &rows, a, b, op);
}

/// `dst[i] = narrow(op(widen(a[i]), widen(b[i])))` over every row of
/// `rows`, in order, in place on `f16` lanes (see the module docs), with
/// the NaN rule of the batch kernels, so that `|x, y| x + y` gives the
/// bits of the `F16` operator `+`. A `scalar` is the right operand of
/// every lane in place of `b`, which is then not read.
///
/// # Panics
/// If a row falls outside `dst` or outside a source slice.
pub fn arith_rows(
    dst: &mut [F16],
    rows: Rows<'_>,
    a: Source<'_>,
    b: Source<'_>,
    scalar: Option<F16>,
    op: impl Fn(f32, f32) -> f32 + Copy,
) {
    let scalar = scalar.map(|k| [k; CHUNK]);
    let mut staged = [F16::ZERO; CHUNK];
    for_each_row(dst, &rows, a, b, |out, a, b| {
        for (c, out) in out.chunks_mut(CHUNK).enumerate() {
            let lanes = c * CHUNK..c * CHUNK + out.len();
            let staged = &mut staged[..out.len()];
            if a.is_none() || (b.is_none() && scalar.is_none()) {
                staged.copy_from_slice(out);
            }
            let x = a.map_or(&*staged, |a| &a[lanes.clone()]);
            let y = match (&scalar, b) {
                (Some(k), _) => &k[..out.len()],
                (None, Some(b)) => &b[lanes],
                (None, None) => &*staged,
            };
            zip_arith(x, y, out, op);
        }
    });
}

/// Call `row(out, a, b)` on every row of `rows`, in order: `out` the
/// destination row, `a` and `b` the source rows (`None` for the
/// destination).
#[inline(always)]
fn for_each_row<'s>(
    dst: &mut [F16],
    rows: &Rows<'_>,
    a: Source<'s>,
    b: Source<'s>,
    mut row: impl FnMut(&mut [F16], Option<&'s [F16]>, Option<&'s [F16]>),
) {
    for r in 0..rows.repeat {
        let at = r * rows.dst_step;
        for &(s, e) in rows.runs {
            let (s, e) = (usize::from(s), usize::from(e));
            row(&mut dst[at + s..at + e], a.row(r, s, e), b.row(r, s, e));
        }
    }
}

/// [`int_rows`]' one source, inlined into both compilations
/// (`crate::convert::int_rows`): one loop per placement of the sources,
/// each a plain zip the optimiser vectorises.
#[inline(always)]
pub(crate) fn int_rows_body(
    dst: &mut [F16],
    rows: &Rows<'_>,
    a: Source<'_>,
    b: Source<'_>,
    op: impl Fn(F16, F16) -> F16 + Copy,
) {
    for_each_row(dst, rows, a, b, |out, a, b| match (a, b) {
        (None, None) => out.iter_mut().for_each(|d| *d = op(*d, *d)),
        (Some(a), None) => {
            for (d, &x) in out.iter_mut().zip(a) {
                *d = op(x, *d);
            }
        }
        (None, Some(b)) => {
            for (d, &y) in out.iter_mut().zip(b) {
                *d = op(*d, y);
            }
        }
        (Some(a), Some(b)) => {
            for ((d, &x), &y) in out.iter_mut().zip(a).zip(b) {
                *d = op(x, y);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The lane-at-a-time loop the kernels must reproduce: for each row
    /// in order, lane by lane, read the operands (from the destination as
    /// it stands) and write the result.
    fn oracle(
        lane: impl Fn(F16, F16) -> F16,
        dst: &mut [F16],
        rows: Rows<'_>,
        a: Source<'_>,
        b: Source<'_>,
    ) {
        let read = |dst: &[F16], src: Source<'_>, r: usize, d: usize, i: usize| match src {
            Source::Dst => dst[d],
            Source::Lanes { lanes, first, step } => lanes[first + r * step + i],
        };
        for r in 0..rows.repeat {
            for &(s, e) in rows.runs {
                for i in usize::from(s)..usize::from(e) {
                    let d = r * rows.dst_step + i;
                    let (x, y) = (read(dst, a, r, d, i), read(dst, b, r, d, i));
                    dst[d] = lane(x, y);
                }
            }
        }
    }

    const EDGES: [u16; 16] = [
        0x0000, 0x8000, 0x7C00, 0xFC00, 0x7E00, 0x7C01, 0xFE01, 0x7FFF, 0x0001, 0x03FF, 0x8001,
        0x83FF, 0x7BFF, 0xFBFF, 0x3C00, 0xC100,
    ];

    fn edge_lanes(n: usize, salt: u64) -> Vec<F16> {
        (0..n)
            .map(|k| {
                let h = ((k as u64) ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 59;
                F16(EDGES[h as usize % EDGES.len()])
            })
            .collect()
    }

    /// `kernel` against the lane-at-a-time loop over `lane`, on in-place
    /// and separate sources, over overlapping rows (a step shorter than
    /// the run), gapped rows, two runs per repeat and one long row.
    fn check(
        name: &str,
        lane: impl Fn(F16, F16) -> F16 + Copy,
        kernel: impl Fn(&mut [F16], Rows<'_>, Source<'_>, Source<'_>),
    ) {
        let shapes = [(3, 1), (4, 40), (5, 96), (1, 0)];
        let runs: [&[(u16, u16)]; 4] = [&[(0, 128)], &[(0, 16)], &[(2, 9), (64, 128)], &[(0, 300)]];
        let src = edge_lanes(4096, 7);
        for ((repeat, dst_step), runs) in shapes.into_iter().zip(runs) {
            let rows = Rows {
                repeat,
                runs,
                dst_step,
            };
            let far = Source::Lanes {
                lanes: &src,
                first: 5,
                step: 130,
            };
            for (a, b) in [
                (Source::Dst, far),
                (far, Source::Dst),
                (Source::Dst, Source::Dst),
                (far, far),
            ] {
                let mut want = edge_lanes(1024, 3);
                let mut got = want.clone();
                oracle(lane, &mut want, rows, a, b);
                kernel(&mut got, rows, a, b);
                assert!(got == want, "{name} {rows:?} {a:?} {b:?}");
            }
        }
    }

    #[test]
    fn int_rows_match_the_lane_at_a_time_loop() {
        let eq = |x: F16, y: F16| if x == y { F16::ONE } else { F16::ZERO };
        let relu = |x: F16, _| x.max(F16::ZERO);
        let copy = |x: F16, _| x;
        let dup = |_, _| F16(0xFE01);
        check("max", F16::max, |d, r, a, b| int_rows(d, r, a, b, F16::max));
        check("min", F16::min, |d, r, a, b| int_rows(d, r, a, b, F16::min));
        check("cmp_eq", eq, |d, r, a, b| int_rows(d, r, a, b, eq));
        check("relu", relu, |d, r, a, b| int_rows(d, r, a, b, relu));
        check("copy", copy, |d, r, a, b| int_rows(d, r, a, b, copy));
        check("dup", dup, |d, r, a, b| int_rows(d, r, a, b, dup));
    }

    #[test]
    fn arith_rows_match_the_lane_at_a_time_loop() {
        let k = F16(0x83FF);
        check(
            "add",
            |x, y| x + y,
            |d, r, a, b| arith_rows(d, r, a, b, None, |x, y| x + y),
        );
        check(
            "sub",
            |x, y| x - y,
            |d, r, a, b| arith_rows(d, r, a, b, None, |x, y| x - y),
        );
        check(
            "mul",
            |x, y| x * y,
            |d, r, a, b| arith_rows(d, r, a, b, None, |x, y| x * y),
        );
        check(
            "muls",
            |x, _| x * k,
            |d, r, a, b| arith_rows(d, r, a, b, Some(k), |x, y| x * y),
        );
    }

    #[test]
    #[should_panic(expected = "range end index")]
    fn a_row_past_the_destination_panics() {
        let rows = Rows {
            repeat: 2,
            runs: &[(0, 8)],
            dst_step: 8,
        };
        int_rows(
            &mut [F16::ZERO; 15],
            rows,
            Source::Dst,
            Source::Dst,
            |x, _| x,
        );
    }
}
