//! Shape arithmetic shared by every crate: zero padding, Equation 1 of the
//! paper (output patch counts), and validation errors.

use core::fmt;

/// Zero padding applied around the spatial `(H, W)` plane before patches
/// are selected. Matches the `Im2Col` instruction parameters `Pl, Pr, Pt,
/// Pb` (paper, Section III-C).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct Padding {
    /// Rows of zeros above the image (`Pt`).
    pub top: usize,
    /// Rows of zeros below the image (`Pb`).
    pub bottom: usize,
    /// Columns of zeros left of the image (`Pl`).
    pub left: usize,
    /// Columns of zeros right of the image (`Pr`).
    pub right: usize,
}

impl Padding {
    /// No padding — the configuration used by all of the paper's
    /// experiments ("No padding is used in them").
    pub const NONE: Padding = Padding {
        top: 0,
        bottom: 0,
        left: 0,
        right: 0,
    };

    /// Symmetric padding of `p` on every side.
    pub const fn uniform(p: usize) -> Padding {
        Padding {
            top: p,
            bottom: p,
            left: p,
            right: p,
        }
    }

    /// Total vertical padding `Pt + Pb`.
    pub const fn vertical(&self) -> usize {
        self.top + self.bottom
    }

    /// Total horizontal padding `Pl + Pr`.
    pub const fn horizontal(&self) -> usize {
        self.left + self.right
    }

    /// True when no padding is applied on any side.
    pub const fn is_none(&self) -> bool {
        self.top == 0 && self.bottom == 0 && self.left == 0 && self.right == 0
    }
}

/// Errors produced when a pooling/convolution geometry is inconsistent.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShapeError {
    /// Kernel height/width of zero.
    ZeroKernel,
    /// Stride height/width of zero.
    ZeroStride,
    /// Dilation height/width of zero.
    ZeroDilation,
    /// Input too small for even one patch: `Ih + Pt + Pb < Kh` (or the
    /// width equivalent).
    KernelLargerThanInput {
        /// padded input extent in the failing dimension
        padded: usize,
        /// kernel extent in the failing dimension
        kernel: usize,
    },
    /// Padding at least as large as the kernel would create patches made
    /// entirely of zeros, which frameworks reject.
    PaddingTooLarge {
        /// the offending padding amount
        padding: usize,
        /// kernel extent in that dimension
        kernel: usize,
    },
    /// A tensor constructor was handed a data vector of the wrong length.
    DataLength {
        /// expected element count
        expected: usize,
        /// provided element count
        got: usize,
    },
    /// Two tensors that must agree in shape do not.
    Mismatch(String),
    /// A tensor's byte size does not fit in `usize`.
    Overflow {
        /// which tensor
        what: &'static str,
    },
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShapeError::ZeroKernel => write!(f, "kernel dimensions must be nonzero"),
            ShapeError::ZeroStride => write!(f, "stride dimensions must be nonzero"),
            ShapeError::ZeroDilation => write!(f, "dilation dimensions must be nonzero"),
            ShapeError::KernelLargerThanInput { padded, kernel } => write!(
                f,
                "kernel extent {kernel} exceeds padded input extent {padded}"
            ),
            ShapeError::PaddingTooLarge { padding, kernel } => write!(
                f,
                "padding {padding} must be smaller than kernel extent {kernel}"
            ),
            ShapeError::DataLength { expected, got } => {
                write!(
                    f,
                    "data length {got} does not match shape volume {expected}"
                )
            }
            ShapeError::Mismatch(msg) => write!(f, "shape mismatch: {msg}"),
            ShapeError::Overflow { what } => {
                write!(f, "the {what} tensor's byte size overflows usize")
            }
        }
    }
}

impl std::error::Error for ShapeError {}

/// Equation 1 of the paper for one dimension:
/// `O = floor((I + P_lo + P_hi - K) / S) + 1`.
///
/// Returns an error when the padded input cannot fit a single patch.
pub fn out_extent(
    input: usize,
    pad_lo: usize,
    pad_hi: usize,
    kernel: usize,
    stride: usize,
) -> Result<usize, ShapeError> {
    out_extent_ext(input, pad_lo, pad_hi, kernel, stride, 1, false)
}

/// Generalised Equation 1 with dilation and ceil-mode rounding:
/// `O = round((I + P_lo + P_hi - ((K-1)*D + 1)) / S) + 1`, where `round`
/// is `floor` normally and `ceil` when `ceil_mode` is set.
///
/// Ceil mode follows the PyTorch convention: when the rounding makes the
/// last window start entirely inside the `lo`-side padding *or beyond the
/// real input* (`(O-1) * S >= I + P_lo`), the extra output is dropped —
/// such a window would read only synthesised zeros past the data.
pub fn out_extent_ext(
    input: usize,
    pad_lo: usize,
    pad_hi: usize,
    kernel: usize,
    stride: usize,
    dilation: usize,
    ceil_mode: bool,
) -> Result<usize, ShapeError> {
    if kernel == 0 {
        return Err(ShapeError::ZeroKernel);
    }
    if stride == 0 {
        return Err(ShapeError::ZeroStride);
    }
    if dilation == 0 {
        return Err(ShapeError::ZeroDilation);
    }
    // The window's span on the padded image: (K-1)*D + 1.
    let eff_kernel = (kernel - 1)
        .checked_mul(dilation)
        .and_then(|x| x.checked_add(1))
        .ok_or_else(|| ShapeError::Mismatch("dilated kernel extent overflows usize".into()))?;
    if pad_lo >= eff_kernel || pad_hi >= eff_kernel {
        return Err(ShapeError::PaddingTooLarge {
            padding: pad_lo.max(pad_hi),
            kernel: eff_kernel,
        });
    }
    let padded = input
        .checked_add(pad_lo)
        .and_then(|x| x.checked_add(pad_hi))
        .ok_or_else(|| ShapeError::Mismatch("padded input extent overflows usize".into()))?;
    if padded < eff_kernel {
        return Err(ShapeError::KernelLargerThanInput {
            padded,
            kernel: eff_kernel,
        });
    }
    let span = padded - eff_kernel;
    let mut out = span / stride + 1;
    if ceil_mode && span % stride != 0 {
        out += 1;
        // PyTorch clamp: the rounded-up window must start before the end
        // of the real data, not entirely within padding / past the input.
        if (out - 1) * stride >= input + pad_lo {
            out -= 1;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equation_1_matches_paper_examples() {
        // Fig. 5: Ih = Iw = 8, K = 2, S = 2, no padding -> Oh = Ow = 4.
        assert_eq!(out_extent(8, 0, 0, 2, 2), Ok(4));
        // InceptionV3 first maxpool: 147, K=3, S=2 -> 73.
        assert_eq!(out_extent(147, 0, 0, 3, 2), Ok(73));
        // 71 -> 35; 35 -> 17 (Fig. 7 shapes).
        assert_eq!(out_extent(71, 0, 0, 3, 2), Ok(35));
        assert_eq!(out_extent(35, 0, 0, 3, 2), Ok(17));
        // VGG16: 224, K=2, S=2 -> 112.
        assert_eq!(out_extent(224, 0, 0, 2, 2), Ok(112));
    }

    #[test]
    fn equation_1_with_padding() {
        // 5 input, pad 1 each side, K=3, S=1 -> same-size output 5.
        assert_eq!(out_extent(5, 1, 1, 3, 1), Ok(5));
        // 4 input, pad 1/0, K=3, S=2 -> floor((4+1-3)/2)+1 = 2.
        assert_eq!(out_extent(4, 1, 0, 3, 2), Ok(2));
    }

    #[test]
    fn degenerate_shapes_rejected() {
        assert_eq!(out_extent(8, 0, 0, 0, 1), Err(ShapeError::ZeroKernel));
        assert_eq!(out_extent(8, 0, 0, 2, 0), Err(ShapeError::ZeroStride));
        assert_eq!(
            out_extent(2, 0, 0, 3, 1),
            Err(ShapeError::KernelLargerThanInput {
                padded: 2,
                kernel: 3
            })
        );
        assert_eq!(
            out_extent(8, 3, 0, 3, 1),
            Err(ShapeError::PaddingTooLarge {
                padding: 3,
                kernel: 3
            })
        );
    }

    #[test]
    fn padded_extent_overflow_is_an_error_not_a_panic() {
        // `usize::MAX + 2` would wrap; must surface as a ShapeError.
        let err = out_extent(usize::MAX, 1, 1, 2, 1).unwrap_err();
        assert!(err.to_string().contains("overflows"));
    }

    #[test]
    fn single_patch_edge_case() {
        // Input exactly kernel-sized: one patch regardless of stride.
        assert_eq!(out_extent(3, 0, 0, 3, 1), Ok(1));
        assert_eq!(out_extent(3, 0, 0, 3, 7), Ok(1));
    }

    #[test]
    fn dilation_shrinks_the_output_extent() {
        // 10 input, K=3, D=2: effective window 5 -> floor((10-5)/1)+1 = 6.
        assert_eq!(out_extent_ext(10, 0, 0, 3, 1, 2, false), Ok(6));
        // Effective window exactly the input: one patch.
        assert_eq!(out_extent_ext(5, 0, 0, 3, 1, 2, false), Ok(1));
        // Effective window larger than the padded input: rejected with the
        // *effective* extent in the error.
        assert_eq!(
            out_extent_ext(4, 0, 0, 3, 1, 2, false),
            Err(ShapeError::KernelLargerThanInput {
                padded: 4,
                kernel: 5
            })
        );
        // Zero dilation is a typed error, not a wrap.
        assert_eq!(
            out_extent_ext(8, 0, 0, 3, 1, 0, false),
            Err(ShapeError::ZeroDilation)
        );
        // Padding is judged against the effective kernel: pad 3 < eff 5.
        assert_eq!(out_extent_ext(8, 3, 3, 3, 1, 2, false), Ok(10));
        assert_eq!(
            out_extent_ext(8, 3, 3, 3, 1, 1, false),
            Err(ShapeError::PaddingTooLarge {
                padding: 3,
                kernel: 3
            })
        );
    }

    #[test]
    fn ceil_mode_rounds_partial_windows_up() {
        // 5 input, K=2, S=2: floor -> 2, ceil -> 3 (last window covers
        // only row 4 and reads one synthesised zero past the edge).
        assert_eq!(out_extent_ext(5, 0, 0, 2, 2, 1, false), Ok(2));
        assert_eq!(out_extent_ext(5, 0, 0, 2, 2, 1, true), Ok(3));
        // Exact division: ceil changes nothing.
        assert_eq!(out_extent_ext(8, 0, 0, 2, 2, 1, true), Ok(4));
        // 7 input, K=3, S=2: span 4 divides evenly -> 3 either way.
        assert_eq!(out_extent_ext(7, 0, 0, 3, 2, 1, true), Ok(3));
    }

    #[test]
    fn ceil_mode_clamps_windows_starting_in_padding() {
        // 3 input, pad 1/1, K=2, S=2: unclamped ceil would produce 3
        // outputs, but the third window starts at padded index 4 =
        // I + P_lo — entirely past the data. PyTorch clamps to 2.
        assert_eq!(out_extent_ext(3, 1, 1, 2, 2, 1, true), Ok(2));
        // 6 input, pad 2/2, K=3, S=4: unclamped ceil -> 3, but
        // (3-1)*4 = 8 >= 6+2 — clamped to the floor answer 2.
        assert_eq!(out_extent_ext(6, 2, 2, 3, 4, 1, true), Ok(2));
        // Control: 6 input, pad 1/1, K=3, S=2 keeps its extra ceil output
        // ((4-1)*2 = 6 < 6+1 — the window still touches real data).
        assert_eq!(out_extent_ext(6, 1, 1, 3, 2, 1, false), Ok(3));
        assert_eq!(out_extent_ext(6, 1, 1, 3, 2, 1, true), Ok(4));
    }

    #[test]
    fn padding_helpers() {
        let p = Padding::uniform(2);
        assert_eq!(p.vertical(), 4);
        assert_eq!(p.horizontal(), 4);
        assert!(!p.is_none());
        assert!(Padding::NONE.is_none());
    }
}
