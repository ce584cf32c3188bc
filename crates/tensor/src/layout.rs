//! Dense `f16` tensors in the two framework layouts the paper uses:
//! NCHW and DaVinci's fractal NC1HWC0 (Section III-B).

use crate::shape::ShapeError;
use dv_fp16::F16;

/// The constant fractal channel split for `Float16`: a data-fractal is
/// 4096 bits = 16 rows x `C0` elements, so `C0 = 16` (paper, Section
/// III-B; for `Unsigned8` it would be 32 — this workspace is f16-only,
/// as is the paper).
pub const C0: usize = 16;

/// Number of patch rows in one fractal: `Im2Col` always loads "the next 16
/// consecutive patches" per fractal (Section III-C).
pub const FRACTAL_ROWS: usize = 16;

/// Bytes in one data-fractal (4096 bits).
pub const FRACTAL_BYTES: usize = FRACTAL_ROWS * C0 * F16::SIZE_BYTES;

/// A dense tensor in `NCHW` layout (batch, channel, height, width),
/// row-major with `W` innermost.
#[derive(Clone, Debug, PartialEq)]
pub struct Nchw {
    /// Batch size `N`. The paper fixes `N = 1` throughout; the layout
    /// still carries it for generality.
    pub n: usize,
    /// Channels `C`.
    pub c: usize,
    /// Height `H`.
    pub h: usize,
    /// Width `W`.
    pub w: usize,
    data: Vec<F16>,
}

impl Nchw {
    /// All-zero tensor.
    pub fn zeros(n: usize, c: usize, h: usize, w: usize) -> Nchw {
        Nchw {
            n,
            c,
            h,
            w,
            data: vec![F16::ZERO; n * c * h * w],
        }
    }

    /// Build from existing data (length must equal `n*c*h*w`).
    pub fn from_vec(
        n: usize,
        c: usize,
        h: usize,
        w: usize,
        data: Vec<F16>,
    ) -> Result<Nchw, ShapeError> {
        let expected = n * c * h * w;
        if data.len() != expected {
            return Err(ShapeError::DataLength {
                expected,
                got: data.len(),
            });
        }
        Ok(Nchw { n, c, h, w, data })
    }

    /// Build by evaluating `f(n, c, h, w)` at every index.
    pub fn from_fn(
        n: usize,
        c: usize,
        h: usize,
        w: usize,
        mut f: impl FnMut(usize, usize, usize, usize) -> F16,
    ) -> Nchw {
        let mut data = Vec::with_capacity(n * c * h * w);
        for ni in 0..n {
            for ci in 0..c {
                for hi in 0..h {
                    for wi in 0..w {
                        data.push(f(ni, ci, hi, wi));
                    }
                }
            }
        }
        Nchw { n, c, h, w, data }
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Linear index of `(n, c, h, w)`.
    #[inline]
    pub fn index(&self, n: usize, c: usize, h: usize, w: usize) -> usize {
        debug_assert!(n < self.n && c < self.c && h < self.h && w < self.w);
        ((n * self.c + c) * self.h + h) * self.w + w
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, n: usize, c: usize, h: usize, w: usize) -> F16 {
        self.data[self.index(n, c, h, w)]
    }

    /// Mutable element accessor.
    #[inline]
    pub fn get_mut(&mut self, n: usize, c: usize, h: usize, w: usize) -> &mut F16 {
        let i = self.index(n, c, h, w);
        &mut self.data[i]
    }

    /// Set one element.
    #[inline]
    pub fn set(&mut self, n: usize, c: usize, h: usize, w: usize, v: F16) {
        let i = self.index(n, c, h, w);
        self.data[i] = v;
    }

    /// The flat element slice.
    pub fn data(&self) -> &[F16] {
        &self.data
    }

    /// The flat mutable element slice.
    pub fn data_mut(&mut self) -> &mut [F16] {
        &mut self.data
    }

    /// Convert to the fractal NC1HWC0 layout, zero-padding the channel
    /// dimension up to the next multiple of `C0` (Section III-B: "If the
    /// original number of channels is not divisible by C0, the C0
    /// dimension must be zero-padded").
    pub fn to_nc1hwc0(&self) -> Nc1hwc0 {
        let c1 = self.c.div_ceil(C0);
        let mut out = Nc1hwc0::zeros(self.n, c1, self.h, self.w);
        out.orig_c = self.c;
        for n in 0..self.n {
            for c in 0..self.c {
                for h in 0..self.h {
                    for w in 0..self.w {
                        out.set(n, c / C0, h, w, c % C0, self.get(n, c, h, w));
                    }
                }
            }
        }
        out
    }
}

/// A dense tensor in DaVinci's fractal `NC1HWC0` layout: channels split as
/// `C = C1 * C0`, `C0 = 16` innermost (so that loads/stores always move
/// whole 16-element channel groups), zero-padded when `C % 16 != 0`.
#[derive(Clone, Debug, PartialEq)]
pub struct Nc1hwc0 {
    /// Batch size `N`.
    pub n: usize,
    /// Outer channel count `C1 = ceil(C / C0)`.
    pub c1: usize,
    /// Height `H`.
    pub h: usize,
    /// Width `W`.
    pub w: usize,
    /// The original (unpadded) channel count, retained so a round trip to
    /// NCHW can drop the zero padding.
    pub orig_c: usize,
    data: Vec<F16>,
}

impl Nc1hwc0 {
    /// All-zero tensor with `orig_c = c1 * C0` (fully used channels).
    pub fn zeros(n: usize, c1: usize, h: usize, w: usize) -> Nc1hwc0 {
        Nc1hwc0 {
            n,
            c1,
            h,
            w,
            orig_c: c1 * C0,
            data: vec![F16::ZERO; n * c1 * h * w * C0],
        }
    }

    /// Build from existing data (length must be `n*c1*h*w*C0`).
    pub fn from_vec(
        n: usize,
        c1: usize,
        h: usize,
        w: usize,
        data: Vec<F16>,
    ) -> Result<Nc1hwc0, ShapeError> {
        let expected = n * c1 * h * w * C0;
        if data.len() != expected {
            return Err(ShapeError::DataLength {
                expected,
                got: data.len(),
            });
        }
        Ok(Nc1hwc0 {
            n,
            c1,
            h,
            w,
            orig_c: c1 * C0,
            data,
        })
    }

    /// Build by evaluating `f(n, c1, h, w, c0)` at every index.
    pub fn from_fn(
        n: usize,
        c1: usize,
        h: usize,
        w: usize,
        mut f: impl FnMut(usize, usize, usize, usize, usize) -> F16,
    ) -> Nc1hwc0 {
        let mut data = Vec::with_capacity(n * c1 * h * w * C0);
        for ni in 0..n {
            for c1i in 0..c1 {
                for hi in 0..h {
                    for wi in 0..w {
                        for c0i in 0..C0 {
                            data.push(f(ni, c1i, hi, wi, c0i));
                        }
                    }
                }
            }
        }
        Nc1hwc0 {
            n,
            c1,
            h,
            w,
            orig_c: c1 * C0,
            data,
        }
    }

    /// Total number of elements (including channel zero padding).
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Size in bytes — what the tensor occupies in a scratchpad buffer.
    pub fn byte_len(&self) -> usize {
        self.data.len() * F16::SIZE_BYTES
    }

    /// Linear index of `(n, c1, h, w, c0)`.
    #[inline]
    pub fn index(&self, n: usize, c1: usize, h: usize, w: usize, c0: usize) -> usize {
        debug_assert!(
            n < self.n && c1 < self.c1 && h < self.h && w < self.w && c0 < C0,
            "index ({n},{c1},{h},{w},{c0}) out of bounds for {:?}",
            (self.n, self.c1, self.h, self.w, C0)
        );
        (((n * self.c1 + c1) * self.h + h) * self.w + w) * C0 + c0
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, n: usize, c1: usize, h: usize, w: usize, c0: usize) -> F16 {
        self.data[self.index(n, c1, h, w, c0)]
    }

    /// Set one element.
    #[inline]
    pub fn set(&mut self, n: usize, c1: usize, h: usize, w: usize, c0: usize, v: F16) {
        let i = self.index(n, c1, h, w, c0);
        self.data[i] = v;
    }

    /// The flat element slice (layout order: N, C1, H, W, C0).
    pub fn data(&self) -> &[F16] {
        &self.data
    }

    /// The flat mutable element slice.
    pub fn data_mut(&mut self) -> &mut [F16] {
        &mut self.data
    }

    /// Extract the `(H, W, C0)` plane of one `(n, c1)` slice as a
    /// contiguous copy — the unit of work a single AI Core receives after
    /// C1-tiling (Section V-A).
    pub fn slice_plane(&self, n: usize, c1: usize) -> Vec<F16> {
        let start = self.index(n, c1, 0, 0, 0);
        let len = self.h * self.w * C0;
        self.data[start..start + len].to_vec()
    }

    /// Convert back to NCHW, dropping channel zero-padding beyond
    /// `orig_c`.
    pub fn to_nchw(&self) -> Nchw {
        let mut out = Nchw::zeros(self.n, self.orig_c, self.h, self.w);
        for n in 0..self.n {
            for c in 0..self.orig_c {
                for h in 0..self.h {
                    for w in 0..self.w {
                        out.set(n, c, h, w, self.get(n, c / C0, h, w, c % C0));
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize, c: usize, h: usize, w: usize) -> Nchw {
        Nchw::from_fn(n, c, h, w, |ni, ci, hi, wi| {
            F16::from_f32((ni * 1000 + ci * 100 + hi * 10 + wi) as f32)
        })
    }

    #[test]
    fn nchw_indexing_row_major() {
        let t = ramp(1, 2, 3, 4);
        assert_eq!(t.index(0, 0, 0, 0), 0);
        assert_eq!(t.index(0, 0, 0, 3), 3);
        assert_eq!(t.index(0, 0, 1, 0), 4);
        assert_eq!(t.index(0, 1, 0, 0), 12);
        assert_eq!(t.get(0, 1, 2, 3).to_f32(), 123.0);
    }

    #[test]
    fn nchw_to_fractal_round_trip_exact_multiple() {
        let t = ramp(1, 32, 5, 7); // C = 32 = 2 * C0
        let f = t.to_nc1hwc0();
        assert_eq!(f.c1, 2);
        assert_eq!(f.orig_c, 32);
        assert_eq!(f.to_nchw(), t);
    }

    #[test]
    fn nchw_to_fractal_pads_channels_with_zeros() {
        let t = ramp(1, 20, 3, 3); // C = 20 -> C1 = 2, 12 channels padded
        let f = t.to_nc1hwc0();
        assert_eq!(f.c1, 2);
        assert_eq!(f.orig_c, 20);
        // padded channels must read zero
        for c0 in 4..C0 {
            for h in 0..3 {
                for w in 0..3 {
                    assert_eq!(f.get(0, 1, h, w, c0), F16::ZERO);
                }
            }
        }
        // round trip drops the padding
        assert_eq!(f.to_nchw(), t);
    }

    #[test]
    fn fractal_layout_c0_innermost() {
        let f = Nc1hwc0::from_fn(1, 1, 2, 2, |_, _, h, w, c0| {
            F16::from_f32((h * 100 + w * 10 + c0) as f32)
        });
        // consecutive memory along c0
        assert_eq!(f.data()[0].to_f32(), 0.0);
        assert_eq!(f.data()[1].to_f32(), 1.0);
        assert_eq!(f.data()[C0].to_f32(), 10.0); // next w
        assert_eq!(f.data()[2 * C0].to_f32(), 100.0); // next h
    }

    #[test]
    fn plane_slicing_round_trip() {
        let t = ramp(2, 32, 4, 4).to_nc1hwc0();
        let mut planes = Vec::new();
        for n in 0..2 {
            for c1 in 0..2 {
                let plane = t.slice_plane(n, c1);
                assert_eq!(plane.len(), 4 * 4 * C0);
                assert_eq!(plane[0], t.get(n, c1, 0, 0, 0));
                planes.extend(plane);
            }
        }
        assert_eq!(planes, t.data(), "the planes in order are the tensor");
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Nchw::from_vec(1, 1, 2, 2, vec![F16::ZERO; 4]).is_ok());
        assert!(matches!(
            Nchw::from_vec(1, 1, 2, 2, vec![F16::ZERO; 5]),
            Err(ShapeError::DataLength {
                expected: 4,
                got: 5
            })
        ));
        assert!(Nc1hwc0::from_vec(1, 1, 1, 1, vec![F16::ZERO; C0]).is_ok());
        assert!(Nc1hwc0::from_vec(1, 1, 1, 1, vec![F16::ZERO; 15]).is_err());
    }

    #[test]
    fn fractal_constants() {
        // A fractal is 4096 bits of f16: 16 rows x 16 elements x 2 bytes.
        assert_eq!(FRACTAL_BYTES * 8, 4096);
        assert_eq!(C0 * FRACTAL_ROWS * F16::SIZE_BYTES, FRACTAL_BYTES);
    }
}
