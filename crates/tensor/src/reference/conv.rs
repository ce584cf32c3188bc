//! Reference convolution and matrix multiplication — the substrate the
//! Im2Col/Col2Im instructions were designed for (paper, Section II-A).
//!
//! The Cube Unit accumulates f16 products in f32 (standard for systolic
//! matrix units; Section III-A models the unit after the TPU's MXU), so
//! both references here accumulate in f32 and round once at the end.

use crate::layout::{Nchw, C0};
use crate::pool::PoolParams;
use crate::shape::ShapeError;
use dv_fp16::F16;

/// Direct (nested-loop) 2D convolution in NCHW:
/// `out[n,m,oh,ow] = sum over (c,kh,kw) of in[n,c,oh*Sh+kh*Dh-Pt,ow*Sw+kw*Dw-Pl] * ker[m,c,kh,kw]`.
///
/// `kernels` is an `Nchw` tensor reinterpreted as `(M, C, Kh, Kw)` — M
/// output feature maps of C-channel `(Kh, Kw)` filters.
pub fn conv2d_direct(
    input: &Nchw,
    kernels: &Nchw,
    params: &PoolParams,
) -> Result<Nchw, ShapeError> {
    if kernels.c != input.c {
        return Err(ShapeError::Mismatch(format!(
            "kernel channels {} != input channels {}",
            kernels.c, input.c
        )));
    }
    if kernels.h != params.kh || kernels.w != params.kw {
        return Err(ShapeError::Mismatch(format!(
            "kernel tensor {:?} does not match params {:?}",
            (kernels.h, kernels.w),
            (params.kh, params.kw)
        )));
    }
    let (oh, ow) = params.out_dims(input.h, input.w)?;
    let m = kernels.n;
    let pt = params.padding.top as isize;
    let pl = params.padding.left as isize;
    let mut out = Nchw::zeros(input.n, m, oh, ow);
    for n in 0..input.n {
        for mi in 0..m {
            for ohi in 0..oh {
                for owi in 0..ow {
                    let mut acc = 0.0f32;
                    for c in 0..input.c {
                        for khi in 0..params.kh {
                            for kwi in 0..params.kw {
                                let h = (ohi * params.sh + khi * params.dh) as isize - pt;
                                let w = (owi * params.sw + kwi * params.dw) as isize - pl;
                                if h < 0 || w < 0 || h as usize >= input.h || w as usize >= input.w
                                {
                                    continue; // zero padding contributes 0
                                }
                                let x = input.get(n, c, h as usize, w as usize).to_f32();
                                let k = kernels.get(mi, c, khi, kwi).to_f32();
                                acc += x * k;
                            }
                        }
                    }
                    out.set(n, mi, ohi, owi, F16::from_f32(acc));
                }
            }
        }
    }
    Ok(out)
}

/// Reference matrix multiply `C = A x B` with f16 inputs and f32
/// accumulation, `A` is `(m, k)` row-major, `B` is `(k, n)` row-major.
/// This is the oracle for the simulated Cube Unit's fractal matmul.
pub fn matmul_f32acc(a: &[F16], b: &[F16], m: usize, k: usize, n: usize) -> Vec<F16> {
    assert_eq!(a.len(), m * k, "A dimensions");
    assert_eq!(b.len(), k * n, "B dimensions");
    let mut c = vec![F16::ZERO; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for l in 0..k {
                acc += a[i * k + l].to_f32() * b[l * n + j].to_f32();
            }
            c[i * n + j] = F16::from_f32(acc);
        }
    }
    c
}

/// Convolution computed the framework way: im2col the input (fractal
/// layout), flatten kernels, and matrix-multiply — the algorithm of
/// Fig. 1. Used in tests to show `conv_im2col == conv_direct` and as
/// oracle for the Cube-Unit pipeline in `dv-conv`.
pub fn conv2d_via_im2col(
    input: &Nchw,
    kernels: &Nchw,
    params: &PoolParams,
) -> Result<Nchw, ShapeError> {
    if kernels.c != input.c {
        return Err(ShapeError::Mismatch(format!(
            "kernel channels {} != input channels {}",
            kernels.c, input.c
        )));
    }
    let (oh, ow) = params.out_dims(input.h, input.w)?;
    let fractal = input.to_nc1hwc0();
    let patches = crate::im2col::im2col_fractal(&fractal, params)?;
    let m = kernels.n;
    // OutIn: rows = patches (Oh*Ow), cols = C1*Kh*Kw*C0 (channel-padded).
    let k_len = fractal.c1 * params.kh * params.kw * C0;
    let rows = oh * ow;
    let mut out_in = vec![F16::ZERO; rows * k_len];
    for ohi in 0..oh {
        for owi in 0..ow {
            let row = ohi * ow + owi;
            let mut col = 0;
            for c1 in 0..fractal.c1 {
                for khi in 0..params.kh {
                    for kwi in 0..params.kw {
                        for c0 in 0..C0 {
                            out_in[row * k_len + col] = patches.get(0, c1, khi, kwi, ohi, owi, c0);
                            col += 1;
                        }
                    }
                }
            }
        }
    }
    // OutKer: rows = C1*Kh*Kw*C0 in the same order, cols = M.
    let mut out_ker = vec![F16::ZERO; k_len * m];
    for mi in 0..m {
        let mut row = 0;
        for c1 in 0..fractal.c1 {
            for khi in 0..params.kh {
                for kwi in 0..params.kw {
                    for c0 in 0..C0 {
                        let c = c1 * C0 + c0;
                        let v = if c < kernels.c {
                            kernels.get(mi, c, khi, kwi)
                        } else {
                            F16::ZERO // channel padding contributes nothing
                        };
                        out_ker[row * m + mi] = v;
                        row += 1;
                    }
                }
            }
        }
    }
    let prod = matmul_f32acc(&out_in, &out_ker, rows, k_len, m);
    // prod is (Oh*Ow, M); transpose into NCHW (1, M, Oh, Ow).
    let mut out = Nchw::zeros(input.n, m, oh, ow);
    for mi in 0..m {
        for ohi in 0..oh {
            for owi in 0..ow {
                out.set(0, mi, ohi, owi, prod[(ohi * ow + owi) * m + mi]);
            }
        }
    }
    Ok(out)
}

/// Reference backward-data ("dgrad") of a convolution implemented with
/// im2col: `dx = col2im(dY x W^T)` (paper, Section II-B: "Col2im is used
/// in the backward propagation pass of convolutional layers implemented
/// with Im2col").
///
/// `gradients` is `(1, M, Oh, Ow)` NCHW; `kernels` is `(M, C, Kh, Kw)`.
/// The matmul accumulates in f32 (Cube semantics); the col2im merge sums
/// in f16 in the canonical order, exactly like the simulated pipeline.
pub fn conv2d_backward_data(
    gradients: &Nchw,
    kernels: &Nchw,
    params: &PoolParams,
    ih: usize,
    iw: usize,
) -> Result<Nchw, ShapeError> {
    let (oh, ow) = params.out_dims(ih, iw)?;
    if (gradients.h, gradients.w) != (oh, ow) || gradients.c != kernels.n {
        return Err(ShapeError::Mismatch(format!(
            "gradients {:?} x{} do not match geometry {:?} x{}",
            (gradients.h, gradients.w),
            gradients.c,
            (oh, ow),
            kernels.n
        )));
    }
    let m = kernels.n;
    let c1 = kernels.c.div_ceil(C0);
    let k_len = c1 * params.kh * params.kw * C0;
    // dY as (patches x M) row-major.
    let rows = oh * ow;
    let mut dy = vec![F16::ZERO; rows * m];
    for mi in 0..m {
        for ohi in 0..oh {
            for owi in 0..ow {
                dy[(ohi * ow + owi) * m + mi] = gradients.get(0, mi, ohi, owi);
            }
        }
    }
    // W^T as (M x K) row-major, K ordered (c1, kh, kw, c0).
    let mut wt = vec![F16::ZERO; m * k_len];
    for mi in 0..m {
        let mut k = 0;
        for c1i in 0..c1 {
            for khi in 0..params.kh {
                for kwi in 0..params.kw {
                    for c0 in 0..C0 {
                        let ch = c1i * C0 + c0;
                        wt[mi * k_len + k] = if ch < kernels.c {
                            kernels.get(mi, ch, khi, kwi)
                        } else {
                            F16::ZERO
                        };
                        k += 1;
                    }
                }
            }
        }
    }
    let mg = matmul_f32acc(&dy, &wt, rows, m, k_len);
    // Reshape (patches x K) into the patch tensor and col2im-merge.
    let mut patches = crate::im2col::PatchTensor::zeros(1, c1, params.kh, params.kw, oh, ow);
    for p in 0..rows {
        let mut k = 0;
        for c1i in 0..c1 {
            for khi in 0..params.kh {
                for kwi in 0..params.kw {
                    for c0 in 0..C0 {
                        patches.set(0, c1i, khi, kwi, p / ow, p % ow, c0, mg[p * k_len + k]);
                        k += 1;
                    }
                }
            }
        }
    }
    let dx_fractal = crate::im2col::col2im_fractal(&patches, params, ih, iw)?;
    // back to NCHW, dropping channel padding
    let mut trimmed = Nchw::zeros(1, kernels.c, ih, iw);
    for c in 0..kernels.c {
        for h in 0..ih {
            for w in 0..iw {
                trimmed.set(0, c, h, w, dx_fractal.get(0, c / C0, h, w, c % C0));
            }
        }
    }
    Ok(trimmed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn det(seed: u32, i: usize) -> F16 {
        // small deterministic pseudo-random values exactly representable
        // in f16 so f32-accumulated paths agree bit-exactly
        let v = ((seed as usize * 31 + i * 17) % 13) as f32 - 6.0;
        F16::from_f32(v * 0.25)
    }

    #[test]
    fn conv_identity_kernel_is_subsampling() {
        // 1x1 kernel of 1.0 with stride 2 just subsamples.
        let input = Nchw::from_fn(1, 1, 4, 4, |_, _, h, w| F16::from_f32((h * 4 + w) as f32));
        let kernels = Nchw::from_vec(1, 1, 1, 1, vec![F16::ONE]).unwrap();
        let params = PoolParams::new((1, 1), (2, 2));
        let out = conv2d_direct(&input, &kernels, &params).unwrap();
        assert_eq!((out.h, out.w), (2, 2));
        assert_eq!(out.get(0, 0, 0, 0).to_f32(), 0.0);
        assert_eq!(out.get(0, 0, 0, 1).to_f32(), 2.0);
        assert_eq!(out.get(0, 0, 1, 0).to_f32(), 8.0);
        assert_eq!(out.get(0, 0, 1, 1).to_f32(), 10.0);
    }

    #[test]
    fn conv_sum_kernel() {
        // all-ones 2x2 kernel computes the patch sum.
        let input = Nchw::from_fn(1, 1, 3, 3, |_, _, h, w| F16::from_f32((h * 3 + w) as f32));
        let kernels = Nchw::from_vec(1, 1, 2, 2, vec![F16::ONE; 4]).unwrap();
        let params = PoolParams::new((2, 2), (1, 1));
        let out = conv2d_direct(&input, &kernels, &params).unwrap();
        assert_eq!(out.get(0, 0, 0, 0).to_f32(), 0.0 + 1.0 + 3.0 + 4.0);
        assert_eq!(out.get(0, 0, 1, 1).to_f32(), 4.0 + 5.0 + 7.0 + 8.0);
    }

    #[test]
    fn matmul_small_known() {
        // [1 2; 3 4] x [5 6; 7 8] = [19 22; 43 50]
        let a: Vec<F16> = [1.0, 2.0, 3.0, 4.0]
            .iter()
            .map(|&x| F16::from_f32(x))
            .collect();
        let b: Vec<F16> = [5.0, 6.0, 7.0, 8.0]
            .iter()
            .map(|&x| F16::from_f32(x))
            .collect();
        let c = matmul_f32acc(&a, &b, 2, 2, 2);
        let vals: Vec<f32> = c.iter().map(|x| x.to_f32()).collect();
        assert_eq!(vals, vec![19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn im2col_conv_equals_direct_conv() {
        // multi-channel, multi-kernel, overlapping stride
        let input = Nchw::from_fn(1, 5, 6, 7, |_, c, h, w| det(1, c * 100 + h * 10 + w));
        let kernels = Nchw::from_fn(3, 5, 3, 3, |m, c, h, w| {
            det(2, m * 1000 + c * 100 + h * 10 + w)
        });
        let params = PoolParams::new((3, 3), (2, 2));
        let direct = conv2d_direct(&input, &kernels, &params).unwrap();
        let via = conv2d_via_im2col(&input, &kernels, &params).unwrap();
        assert_eq!(direct, via);
    }

    #[test]
    fn im2col_conv_equals_direct_conv_with_padding() {
        use crate::shape::Padding;
        let input = Nchw::from_fn(1, 3, 5, 5, |_, c, h, w| det(3, c * 100 + h * 10 + w));
        let kernels = Nchw::from_fn(2, 3, 3, 3, |m, c, h, w| {
            det(4, m * 1000 + c * 100 + h * 10 + w)
        });
        let params = PoolParams::with_padding((3, 3), (1, 1), Padding::uniform(1));
        let direct = conv2d_direct(&input, &kernels, &params).unwrap();
        let via = conv2d_via_im2col(&input, &kernels, &params).unwrap();
        assert_eq!((direct.h, direct.w), (5, 5)); // same-size conv
        assert_eq!(direct, via);
    }

    #[test]
    fn backward_data_1x1_is_transposed_pointwise_conv() {
        // 1x1 kernel, stride 1: dx[c, h, w] = sum_m dY[m, h, w] * W[m, c].
        let m = 3;
        let c = 5;
        let grads = Nchw::from_fn(1, m, 4, 4, |_, mi, h, w| det(7, mi * 16 + h * 4 + w));
        let kernels = Nchw::from_fn(m, c, 1, 1, |mi, ci, _, _| det(8, mi * c + ci));
        let params = PoolParams::new((1, 1), (1, 1));
        let dx = conv2d_backward_data(&grads, &kernels, &params, 4, 4).unwrap();
        assert_eq!((dx.c, dx.h, dx.w), (c, 4, 4));
        for ci in 0..c {
            for h in 0..4 {
                for w in 0..4 {
                    let mut acc = 0.0f32;
                    for mi in 0..m {
                        acc += grads.get(0, mi, h, w).to_f32() * kernels.get(mi, ci, 0, 0).to_f32();
                    }
                    assert_eq!(dx.get(0, ci, h, w), F16::from_f32(acc), "({ci},{h},{w})");
                }
            }
        }
    }

    #[test]
    fn backward_data_shapes_validated() {
        let grads = Nchw::zeros(1, 3, 4, 4);
        let kernels = Nchw::zeros(3, 5, 3, 3);
        let params = PoolParams::new((3, 3), (1, 1));
        // gradients plane must match Eq.1-derived (oh, ow)
        assert!(conv2d_backward_data(&grads, &kernels, &params, 4, 4).is_err());
        assert!(conv2d_backward_data(&grads, &kernels, &params, 6, 6).is_ok());
        // gradient channels must equal kernel count
        let bad = Nchw::zeros(1, 2, 4, 4);
        assert!(conv2d_backward_data(&bad, &kernels, &params, 6, 6).is_err());
    }

    #[test]
    fn backward_data_gradient_flows_only_to_covered_pixels() {
        // stride 3 with kernel 2: input pixels in the gap receive zero.
        let params = PoolParams::new((2, 2), (3, 3));
        let kernels = Nchw::from_fn(1, 1, 2, 2, |_, _, _, _| F16::ONE);
        let grads = Nchw::from_fn(1, 1, 2, 2, |_, _, _, _| F16::ONE);
        let dx = conv2d_backward_data(&grads, &kernels, &params, 5, 5).unwrap();
        let mult = crate::im2col::coverage_multiplicity(&params, 5, 5);
        for h in 0..5 {
            for w in 0..5 {
                let want = mult[h * 5 + w] as f32;
                assert_eq!(dx.get(0, 0, h, w).to_f32(), want, "({h},{w})");
            }
        }
    }

    #[test]
    fn conv_rejects_mismatched_channels() {
        let input = Nchw::zeros(1, 3, 5, 5);
        let kernels = Nchw::zeros(2, 4, 3, 3);
        let params = PoolParams::new((3, 3), (1, 1));
        assert!(conv2d_direct(&input, &kernels, &params).is_err());
        assert!(conv2d_via_im2col(&input, &kernels, &params).is_err());
    }
}
