//! Pooling problem descriptions and shared lowering plumbing.

use core::fmt;
use dv_akg::{TilingError, UbOverflow};
use dv_isa::IsaError;
use dv_tensor::{PoolParams, ShapeError, C0, FRACTAL_BYTES, FRACTAL_ROWS};

/// Which forward implementation to lower (Section V-A / VI-B).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ForwardImpl {
    /// Strided reduction directly on the NC1HWC0 tile (Listing 1).
    Standard,
    /// `Im2Col`-load based (Listing 2) — the paper's contribution.
    Im2col,
    /// Layout change done in the UB with regular vector copies.
    Expansion,
    /// Width-then-height split reduction (Lai et al.).
    XYSplit,
}

impl ForwardImpl {
    /// All variants, for sweeps.
    pub const ALL: [ForwardImpl; 4] = [
        ForwardImpl::Standard,
        ForwardImpl::Im2col,
        ForwardImpl::Expansion,
        ForwardImpl::XYSplit,
    ];

    /// Display name matching the paper's figure legends.
    pub fn label(self) -> &'static str {
        match self {
            ForwardImpl::Standard => "Maxpool",
            ForwardImpl::Im2col => "Maxpool with Im2col",
            ForwardImpl::Expansion => "Maxpool with expansion",
            ForwardImpl::XYSplit => "Maxpool with X-Y split",
        }
    }
}

/// Which backward merge implementation to lower (Section V-B).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MergeImpl {
    /// Scattered 16-lane `vadd` loop — the standard lowering.
    VAdd,
    /// `Col2Im` instructions — the paper's contribution.
    Col2Im,
}

impl MergeImpl {
    /// Display name matching the paper's figure legends.
    pub fn label(self) -> &'static str {
        match self {
            MergeImpl::VAdd => "Maxpool backward",
            MergeImpl::Col2Im => "Maxpool backward with Col2im",
        }
    }
}

/// Lowering errors.
#[derive(Clone, Debug, PartialEq)]
pub enum LowerError {
    /// A tile plan exceeded a scratchpad capacity.
    Ub(UbOverflow),
    /// Even the minimal tile does not fit.
    Tiling(TilingError),
    /// Instruction emission failed (lowering bug surfaced by validation).
    Isa(IsaError),
    /// Geometry error.
    Shape(ShapeError),
    /// A feature combination this lowering does not support.
    Unsupported(String),
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LowerError::Ub(e) => write!(f, "{e}"),
            LowerError::Tiling(e) => write!(f, "{e}"),
            LowerError::Isa(e) => write!(f, "{e}"),
            LowerError::Shape(e) => write!(f, "{e}"),
            LowerError::Unsupported(msg) => write!(f, "unsupported: {msg}"),
        }
    }
}

impl std::error::Error for LowerError {}

impl From<UbOverflow> for LowerError {
    fn from(e: UbOverflow) -> Self {
        LowerError::Ub(e)
    }
}
impl From<TilingError> for LowerError {
    fn from(e: TilingError) -> Self {
        LowerError::Tiling(e)
    }
}
impl From<IsaError> for LowerError {
    fn from(e: IsaError) -> Self {
        LowerError::Isa(e)
    }
}
impl From<ShapeError> for LowerError {
    fn from(e: ShapeError) -> Self {
        LowerError::Shape(e)
    }
}

/// The product of `factors` multiplied left to right, or `None` when a
/// partial product overflows `usize`.
pub(crate) fn checked_product(factors: &[usize]) -> Option<usize> {
    factors.iter().try_fold(1usize, |p, &f| p.checked_mul(f))
}

/// A pooling problem: shapes plus geometry (global-memory placement is
/// supplied separately by the runner).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolProblem {
    /// Batch size `N`.
    pub n: usize,
    /// Outer channel count `C1`.
    pub c1: usize,
    /// Input height `Ih`.
    pub ih: usize,
    /// Input width `Iw`.
    pub iw: usize,
    /// Kernel / stride / padding.
    pub params: PoolParams,
}

impl PoolProblem {
    /// Construct and validate: the geometry must be poolable, `n` and
    /// `c1` nonzero, and the input, output and mask byte sizes must fit
    /// in `usize` ([`ShapeError::Overflow`] otherwise), so the size
    /// methods below never wrap.
    pub fn new(
        n: usize,
        c1: usize,
        ih: usize,
        iw: usize,
        params: PoolParams,
    ) -> Result<PoolProblem, LowerError> {
        let (oh, ow) = params.out_dims(ih, iw)?;
        if n == 0 || c1 == 0 {
            return Err(LowerError::Unsupported("n and c1 must be nonzero".into()));
        }
        // Each size multiplied in the order of its method below, with
        // every partial product checked.
        let total = |plane: Option<usize>| plane.and_then(|b| checked_product(&[n, c1, b]));
        let out_plane = checked_product(&[oh, ow, C0 * 2]);
        let mask_plane = out_plane.and_then(|b| checked_product(&[params.kh, params.kw, b]));
        let sizes = [
            ("input", total(checked_product(&[ih, iw, C0 * 2]))),
            ("output", total(out_plane)),
            ("mask", total(mask_plane)),
        ];
        if let Some(&(what, _)) = sizes.iter().find(|(_, bytes)| bytes.is_none()) {
            return Err(ShapeError::Overflow { what }.into());
        }
        Ok(PoolProblem {
            n,
            c1,
            ih,
            iw,
            params,
        })
    }

    /// `(Oh, Ow)` output extents.
    pub fn out_dims(&self) -> (usize, usize) {
        self.params.out_dims(self.ih, self.iw).expect("validated")
    }

    /// Bytes of one input `(H, W, C0)` plane.
    pub fn in_plane_bytes(&self) -> usize {
        self.ih * self.iw * C0 * 2
    }

    /// Bytes of one output `(Oh, Ow, C0)` plane.
    pub fn out_plane_bytes(&self) -> usize {
        let (oh, ow) = self.out_dims();
        oh * ow * C0 * 2
    }

    /// Bytes of one argmax-mask plane set `(Kh, Kw, Oh, Ow, C0)` for one
    /// `(n, c1)`.
    pub fn mask_plane_bytes(&self) -> usize {
        self.params.kh * self.params.kw * self.out_plane_bytes()
    }

    /// Total input tensor bytes.
    pub fn in_bytes(&self) -> usize {
        self.n * self.c1 * self.in_plane_bytes()
    }

    /// Total output tensor bytes.
    pub fn out_bytes(&self) -> usize {
        self.n * self.c1 * self.out_plane_bytes()
    }

    /// Total argmax-mask tensor bytes.
    pub fn mask_bytes(&self) -> usize {
        self.n * self.c1 * self.mask_plane_bytes()
    }

    /// Iterate `(n, c1)` plane indices — the unit of multi-core
    /// parallelism ("this computation is divided in the C1 dimension").
    pub fn planes(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let c1 = self.c1;
        (0..self.n).flat_map(move |n| (0..c1).map(move |c| (n, c)))
    }

    /// GM byte offset of input plane `(n, c1)` relative to the tensor
    /// base.
    pub fn in_plane_offset(&self, n: usize, c1: usize) -> usize {
        (n * self.c1 + c1) * self.in_plane_bytes()
    }

    /// GM byte offset of output plane `(n, c1)` relative to the tensor
    /// base.
    pub fn out_plane_offset(&self, n: usize, c1: usize) -> usize {
        (n * self.c1 + c1) * self.out_plane_bytes()
    }

    /// GM byte offset of mask plane `(n, c1, kh, kw)` relative to the
    /// tensor base.
    pub fn mask_plane_offset(&self, n: usize, c1: usize, kh: usize, kw: usize) -> usize {
        ((n * self.c1 + c1) * self.params.kh * self.params.kw + kh * self.params.kw + kw)
            * self.out_plane_bytes()
    }

    /// Fractals covering `patches` patches.
    pub fn fractals_for(patches: usize) -> usize {
        patches.div_ceil(FRACTAL_ROWS)
    }

    /// Bytes of a fractal-padded patch plane covering `patches` patches.
    pub fn padded_plane_bytes(patches: usize) -> usize {
        Self::fractals_for(patches) * FRACTAL_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prob() -> PoolProblem {
        PoolProblem::new(1, 4, 147, 147, PoolParams::K3S2).unwrap()
    }

    #[test]
    fn sizes_match_inception_first_pool() {
        let p = prob();
        assert_eq!(p.out_dims(), (73, 73));
        assert_eq!(p.in_plane_bytes(), 147 * 147 * 32);
        assert_eq!(p.out_plane_bytes(), 73 * 73 * 32);
        assert_eq!(p.in_bytes(), 4 * p.in_plane_bytes());
        assert_eq!(p.mask_plane_bytes(), 9 * p.out_plane_bytes());
    }

    #[test]
    fn plane_enumeration() {
        let p = PoolProblem::new(2, 3, 8, 8, PoolParams::K2S2).unwrap();
        let planes: Vec<_> = p.planes().collect();
        assert_eq!(planes.len(), 6);
        assert_eq!(planes[0], (0, 0));
        assert_eq!(planes[5], (1, 2));
    }

    #[test]
    fn plane_offsets_contiguous() {
        let p = prob();
        assert_eq!(p.in_plane_offset(0, 0), 0);
        assert_eq!(p.in_plane_offset(0, 1), p.in_plane_bytes());
        assert_eq!(p.out_plane_offset(0, 2), 2 * p.out_plane_bytes());
        // mask plane (n=0,c1=1,kh=2,kw=1) with K=(3,3)
        assert_eq!(
            p.mask_plane_offset(0, 1, 2, 1),
            (9 + 7) * p.out_plane_bytes()
        );
    }

    #[test]
    fn fractal_padding_helpers() {
        assert_eq!(PoolProblem::fractals_for(16), 1);
        assert_eq!(PoolProblem::fractals_for(17), 2);
        assert_eq!(PoolProblem::padded_plane_bytes(33), 3 * FRACTAL_BYTES);
    }

    #[test]
    fn invalid_problems_rejected() {
        assert!(PoolProblem::new(0, 1, 8, 8, PoolParams::K2S2).is_err());
        assert!(PoolProblem::new(1, 0, 8, 8, PoolParams::K2S2).is_err());
        assert!(PoolProblem::new(1, 1, 1, 8, PoolParams::K3S2).is_err());
    }

    /// A size that wraps `usize` is a typed error: unchecked, `(1 << 53) +
    /// 1` planes of an 8x8 input wrap to a 2048-byte input in release.
    #[test]
    fn byte_size_overflow_is_a_typed_error() {
        let overflow = |what| Err(LowerError::Shape(ShapeError::Overflow { what }));
        let huge = (1 << 53) + 1;
        assert_eq!(
            PoolProblem::new(huge, 1, 8, 8, PoolParams::K2S2),
            overflow("input")
        );
        assert_eq!(
            PoolProblem::new(1, huge, 8, 8, PoolParams::K2S2),
            overflow("input")
        );
        assert_eq!(
            PoolProblem::new(1, 1, 1 << 32, 1 << 32, PoolParams::K2S2),
            overflow("input")
        );
        // The input fits, the 9-tap mask does not.
        let n = usize::MAX / (16 * 16 * 32 * 2);
        assert!(PoolProblem::new(n, 1, 16, 16, PoolParams::K2S2).is_ok());
        assert_eq!(
            PoolProblem::new(n, 1, 16, 16, PoolParams::new((3, 3), (1, 1))),
            overflow("mask")
        );
        let p = PoolProblem::new(n, 1, 16, 16, PoolParams::K2S2).unwrap();
        assert_eq!(p.in_bytes(), n * 16 * 16 * 32);
        assert_eq!(p.mask_bytes(), 4 * p.out_bytes());
    }
}
