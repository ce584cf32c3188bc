//! Row-band tiling against scratchpad capacities.
//!
//! "Using TVM's schedule, this computation is divided in the C1 dimension
//! so that a tile of size (Ih, Iw, C0) is computed at a time … unless
//! further tiling is needed" (paper, Section V-A). Further tiling, when a
//! plane exceeds the Unified Buffer, happens over output rows here. The
//! *tiling threshold* — "the maximum size before tiling is required" —
//! bounds the x-axis of Fig. 8.

use core::fmt;
use dv_tensor::PoolParams;

/// Band tiling failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TilingError {
    /// Even a single output row exceeds the capacity.
    Capacity {
        /// Footprint in bytes of the smallest possible band.
        min_footprint: usize,
        /// The capacity it must fit into.
        capacity: usize,
    },
    /// Degenerate request: zero output rows, a zero band height, or a
    /// band taller than the output extent.
    Degenerate {
        /// Output rows of the plane being tiled.
        oh: usize,
        /// Requested band height (0 when no band was derived yet).
        boh: usize,
    },
    /// Vertical (`Pt`/`Pb`) padding combined with more than one band:
    /// the per-band geometry would need padding rows synthesised in the
    /// middle of the plane, which no lowering here supports.
    PaddedMultiBand {
        /// Output rows of the plane being tiled.
        oh: usize,
        /// Requested band height.
        boh: usize,
    },
    /// A batch-folded (N-plane Mode0 repeat-chain) plan failed. The cause
    /// tells the engine whether to fall back to the per-plane schedule
    /// (`Capacity`: N planes simply do not fit one band) or to reject the
    /// request outright (`PaddedMultiBand`: padded geometry cannot be
    /// banded at all, batched or not).
    Batched {
        /// The batch size the fold attempted to cover.
        n: usize,
        /// The underlying single-plan failure.
        cause: Box<TilingError>,
    },
}

impl TilingError {
    /// Wrap this error as the cause of a failed batch-folded plan over
    /// `n` planes. Already-batched errors are returned unchanged so
    /// nested planning layers never double-wrap.
    pub fn batched(self, n: usize) -> TilingError {
        match self {
            TilingError::Batched { .. } => self,
            cause => TilingError::Batched {
                n,
                cause: Box::new(cause),
            },
        }
    }

    /// The root cause of a (possibly batched) tiling failure.
    pub fn root_cause(&self) -> &TilingError {
        match self {
            TilingError::Batched { cause, .. } => cause.root_cause(),
            other => other,
        }
    }
}

impl fmt::Display for TilingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TilingError::Capacity {
                min_footprint,
                capacity,
            } => write!(
                f,
                "cannot tile: one output row needs {min_footprint} bytes but capacity is {capacity}"
            ),
            TilingError::Degenerate { oh, boh } => write!(
                f,
                "degenerate band tiling: {boh}-row bands over {oh} output rows"
            ),
            TilingError::PaddedMultiBand { oh, boh } => write!(
                f,
                "vertical padding requires a single band, but {boh}-row bands \
                 split {oh} output rows"
            ),
            TilingError::Batched { n, cause } => {
                write!(f, "batch-folded plan over N={n} planes failed: {cause}")
            }
        }
    }
}

impl std::error::Error for TilingError {}

/// One band of output rows and the input rows it consumes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Band {
    /// First output row (inclusive).
    pub oh0: usize,
    /// Last output row (exclusive).
    pub oh1: usize,
    /// First input row the band reads.
    pub ih0: usize,
    /// Number of input rows the band reads.
    pub ih_len: usize,
}

impl Band {
    /// Output rows in the band.
    pub fn oh_len(&self) -> usize {
        self.oh1 - self.oh0
    }
}

/// Input rows consumed by `boh` output rows: `(boh - 1) * Sh + EffKh`,
/// where `EffKh = (Kh - 1) * Dh + 1` is the dilated kernel's span.
pub fn band_input_rows(params: &PoolParams, boh: usize) -> usize {
    (boh - 1) * params.sh + params.eff_kh()
}

/// The pooling geometry of the band covering output rows `[oh0, oh1)` of
/// an `oh`-row plane, as the band's `Im2Col`/`Col2Im` instructions see it
/// over the band's staged input rows. The whole plane keeps `params`. A
/// partial band drops the vertical (`Pt`/`Pb`) padding and keeps the
/// kernel, stride, horizontal padding and dilation: [`row_bands`] only
/// splits vertically unpadded, non-ceil planes, so no padding row lies
/// inside a partial band's window.
pub fn band_params(params: &PoolParams, oh0: usize, oh1: usize, oh: usize) -> PoolParams {
    if oh0 == 0 && oh1 == oh {
        return *params;
    }
    PoolParams {
        padding: dv_tensor::Padding {
            top: 0,
            bottom: 0,
            ..params.padding
        },
        ..*params
    }
}

/// Largest band height (in output rows) whose footprint fits `capacity`.
/// `footprint(boh)` must be monotonically non-decreasing. Errors if even
/// one row does not fit, or if `oh == 0` (there is no band to size —
/// previously this silently returned a band taller than the plane).
pub fn max_row_band(
    oh: usize,
    capacity: usize,
    footprint: impl Fn(usize) -> usize,
) -> Result<usize, TilingError> {
    if oh == 0 {
        return Err(TilingError::Degenerate { oh, boh: 0 });
    }
    if footprint(1) > capacity {
        return Err(TilingError::Capacity {
            min_footprint: footprint(1),
            capacity,
        });
    }
    // Binary search the largest feasible band.
    let (mut lo, mut hi) = (1usize, oh);
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        if footprint(mid) <= capacity {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    Ok(lo)
}

/// Split `oh` output rows into bands of at most `boh` rows, computing each
/// band's input-row window for the given pooling geometry over an input
/// of `ih` rows.
///
/// The input windows are normalised against the real extent so every
/// caller sees the same geometry the DMA layer must honour:
///
/// * a **single band** covers the whole input: its `ih_len` is widened to
///   `ih`, which both absorbs vertical padding (where the formula window
///   exceeds the plane) and picks up trailing rows no output row reads
///   (where the stride leaves a remainder) — previously every caller
///   re-implemented this clamp by hand;
/// * **multiple bands** are clamped so `ih0 + ih_len <= ih` (defensive:
///   exact for every unpadded geometry, but a guarantee the emitters may
///   rely on when sizing DMAs).
///
/// Degenerate requests (`oh == 0`, `boh == 0`, `boh > oh`) and vertical
/// (`Pt`/`Pb`) padding that would split into more than one band return
/// typed errors instead of producing out-of-range windows.
pub fn row_bands(
    params: &PoolParams,
    oh: usize,
    boh: usize,
    ih: usize,
) -> Result<Vec<Band>, TilingError> {
    if oh == 0 || boh == 0 || boh > oh {
        return Err(TilingError::Degenerate { oh, boh });
    }
    // Ceil-mode is rejected alongside vertical padding: the rounded-up
    // last band overhangs the plane, so only a single full-plane band
    // (whose geometry carries the rounding) can be lowered.
    if oh.div_ceil(boh) > 1
        && (params.padding.top > 0 || params.padding.bottom > 0 || params.ceil_mode)
    {
        return Err(TilingError::PaddedMultiBand { oh, boh });
    }
    let mut bands = Vec::with_capacity(oh.div_ceil(boh));
    let mut oh0 = 0;
    while oh0 < oh {
        let oh1 = (oh0 + boh).min(oh);
        let ih0 = oh0 * params.sh;
        let ih_len = band_input_rows(params, oh1 - oh0);
        bands.push(Band {
            oh0,
            oh1,
            ih0,
            ih_len,
        });
        oh0 = oh1;
    }
    if bands.len() == 1 {
        bands[0].ih_len = ih;
    } else {
        for b in &mut bands {
            b.ih_len = b.ih_len.min(ih - b.ih0);
        }
    }
    Ok(bands)
}

/// Batch-aware variant of [`max_row_band`]: sizes one band that must hold
/// `n` folded planes at once. `footprint(boh)` receives the band height
/// and must already account for the N-plane residency (the caller knows
/// its own layout); this wrapper only types the failure as
/// [`TilingError::Batched`] so the engine can distinguish "N planes blew
/// the budget — fall back to per-plane" from a geometry that could never
/// be tiled.
pub fn max_row_band_batched(
    n: usize,
    oh: usize,
    capacity: usize,
    footprint: impl Fn(usize) -> usize,
) -> Result<usize, TilingError> {
    max_row_band(oh, capacity, footprint).map_err(|e| e.batched(n))
}

/// Batch-aware variant of [`row_bands`]: the band schedule a fold over
/// `n` planes shares (every plane of the batch walks identical bands, so
/// the geometry is the single-plane one). Failures are wrapped as
/// [`TilingError::Batched`].
pub fn row_bands_batched(
    n: usize,
    params: &PoolParams,
    oh: usize,
    boh: usize,
    ih: usize,
) -> Result<Vec<Band>, TilingError> {
    row_bands(params, oh, boh, ih).map_err(|e| e.batched(n))
}

/// Split `items` into at most `groups` contiguous chunks whose lengths
/// differ by at most one — the shard split a multi-core chip wants.
///
/// `slice.chunks(len.div_ceil(groups))` rounds the chunk size up and so
/// can *under-produce* groups: 5 bands into 4 groups gives chunks of 2 →
/// (2, 2, 1), three shards for four cores, and the chip makespan is the
/// 2-band shard anyway. The balanced split gives (2, 1, 1, 1): the same
/// makespan floor with every core drawing work. When there are fewer
/// items than groups each item gets its own chunk; empty chunks are
/// never produced.
pub fn balanced_chunks<T>(items: &[T], groups: usize) -> Vec<&[T]> {
    let g = groups.clamp(1, items.len().max(1));
    if items.is_empty() {
        return Vec::new();
    }
    let base = items.len() / g;
    let rem = items.len() % g;
    let mut out = Vec::with_capacity(g);
    let mut at = 0;
    for i in 0..g {
        let take = base + usize::from(i < rem);
        out.push(&items[at..at + take]);
        at += take;
    }
    out
}

/// Split the index range `[0, n)` into at most `groups` contiguous
/// `(start, end)` ranges whose lengths differ by at most one — the
/// index-space twin of [`balanced_chunks`], for callers that shard a
/// *range* (e.g. a plane's output rows across sub-plane backward shards)
/// rather than a slice of prebuilt items. Longer ranges come first, empty
/// ranges are never produced, and the ranges concatenate to `[0, n)`.
pub fn balanced_ranges(n: usize, groups: usize) -> Vec<(usize, usize)> {
    if n == 0 {
        return Vec::new();
    }
    let g = groups.clamp(1, n);
    let base = n / g;
    let rem = n % g;
    let mut out = Vec::with_capacity(g);
    let mut at = 0;
    for i in 0..g {
        let take = base + usize::from(i < rem);
        out.push((at, at + take));
        at += take;
    }
    out
}

/// The largest square input extent `H = W` for which `footprint(hw)` fits
/// `capacity` — the Fig. 8 "tiling threshold". `footprint` must be
/// monotone in `hw`. Probes up to `max_hw`.
pub fn tiling_threshold(
    capacity: usize,
    max_hw: usize,
    footprint: impl Fn(usize) -> usize,
) -> usize {
    let (mut lo, mut hi) = (0usize, max_hw);
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        if footprint(mid) <= capacity {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;

    const K3S2: PoolParams = PoolParams::K3S2;

    #[test]
    fn band_input_rows_formula() {
        assert_eq!(band_input_rows(&K3S2, 1), 3);
        assert_eq!(band_input_rows(&K3S2, 2), 5);
        assert_eq!(band_input_rows(&K3S2, 10), 21);
        let s1 = PoolParams::new((3, 3), (1, 1));
        assert_eq!(band_input_rows(&s1, 5), 7);
        // Dilation widens the window: eff Kh = (3-1)*2 + 1 = 5.
        let dilated = PoolParams::new((3, 3), (2, 2)).with_dilation((2, 2));
        assert_eq!(band_input_rows(&dilated, 1), 5);
        assert_eq!(band_input_rows(&dilated, 4), 11);
    }

    #[test]
    fn band_params_drop_vertical_padding_and_keep_dilation() {
        let pad = dv_tensor::Padding {
            top: 1,
            bottom: 2,
            left: 3,
            right: 4,
        };
        let params = PoolParams::with_padding((3, 3), (2, 2), pad).with_dilation((2, 3));
        assert_eq!(band_params(&params, 0, 9, 9), params);
        let band = band_params(&params, 3, 6, 9);
        assert_eq!((band.padding.top, band.padding.bottom), (0, 0));
        assert_eq!((band.padding.left, band.padding.right), (3, 4));
        assert_eq!((band.dh, band.dw), (2, 3));
        assert_eq!((band.kh, band.kw, band.sh, band.sw), (3, 3, 2, 2));
    }

    #[test]
    fn row_bands_reject_ceil_mode_multi_band() {
        let ceil = PoolParams::new((3, 3), (2, 2)).with_ceil_mode(true);
        // 8x8 input -> 4 ceil-rounded output rows; splitting them must be
        // refused because the last band overhangs the plane.
        let err = row_bands(&ceil, 4, 2, 8).unwrap_err();
        assert_eq!(err, TilingError::PaddedMultiBand { oh: 4, boh: 2 });
        // One full-plane band is fine and covers the whole input.
        let bands = row_bands(&ceil, 4, 4, 8).unwrap();
        assert_eq!(bands.len(), 1);
        assert_eq!(bands[0].ih_len, 8);
    }

    #[test]
    fn dilated_bands_cover_the_dilated_window() {
        let dilated = PoolParams::new((3, 3), (2, 2)).with_dilation((2, 2));
        // 13 input rows -> (13-5)/2+1 = 5 output rows; bands of 2.
        let bands = row_bands(&dilated, 5, 2, 13).unwrap();
        assert_eq!(bands.len(), 3);
        // Each 2-row band reads (2-1)*2 + 5 = 7 rows; the last single-row
        // band reads 5 rows ending exactly at the plane.
        assert_eq!(bands[0].ih_len, 7);
        assert_eq!(bands[2].ih0, 8);
        assert_eq!(bands[2].ih_len, 5);
        assert_eq!(bands[2].ih0 + bands[2].ih_len, 13);
    }

    #[test]
    fn max_row_band_monotone_search() {
        // footprint = 100 bytes per output row
        let b = max_row_band(50, 1000, |boh| boh * 100).unwrap();
        assert_eq!(b, 10);
        // plenty of capacity: whole extent
        let b = max_row_band(50, 1_000_000, |boh| boh * 100).unwrap();
        assert_eq!(b, 50);
    }

    #[test]
    fn max_row_band_single_row_too_big() {
        let err = max_row_band(50, 10, |boh| boh * 100).unwrap_err();
        assert_eq!(
            err,
            TilingError::Capacity {
                min_footprint: 100,
                capacity: 10
            }
        );
    }

    #[test]
    fn max_row_band_rejects_empty_extent() {
        // Previously oh = 0 skipped the search and returned Ok(1): a band
        // taller than the plane it is supposed to tile.
        let err = max_row_band(0, 1000, |boh| boh * 100).unwrap_err();
        assert_eq!(err, TilingError::Degenerate { oh: 0, boh: 0 });
    }

    #[test]
    fn row_bands_reject_degenerate_requests() {
        for (oh, boh) in [(0, 1), (5, 0), (5, 6)] {
            let err = row_bands(&K3S2, oh, boh, 147).unwrap_err();
            assert_eq!(err, TilingError::Degenerate { oh, boh });
        }
    }

    #[test]
    fn row_bands_reject_padded_multi_band() {
        let padded = PoolParams::with_padding((3, 3), (2, 2), dv_tensor::Padding::uniform(1));
        let err = row_bands(&padded, 8, 4, 15).unwrap_err();
        assert_eq!(err, TilingError::PaddedMultiBand { oh: 8, boh: 4 });
        // A single padded band is fine and covers the whole input.
        let bands = row_bands(&padded, 8, 8, 15).unwrap();
        assert_eq!(bands.len(), 1);
        assert_eq!(bands[0].ih_len, 15);
    }

    #[test]
    fn row_bands_cover_exactly() {
        let bands = row_bands(&K3S2, 73, 10, 147).unwrap();
        assert_eq!(bands.len(), 8);
        assert_eq!(
            bands[0],
            Band {
                oh0: 0,
                oh1: 10,
                ih0: 0,
                ih_len: 21
            }
        );
        assert_eq!(bands[7].oh0, 70);
        assert_eq!(bands[7].oh1, 73);
        assert_eq!(bands[7].ih0, 140);
        assert_eq!(bands[7].ih_len, 7); // 2*2 + 3
                                        // coverage: no gaps, no overlaps in output rows
        for w in bands.windows(2) {
            assert_eq!(w[0].oh1, w[1].oh0);
        }
        // last band's input rows end exactly at the input extent
        assert_eq!(bands[7].ih0 + bands[7].ih_len, 147);
    }

    #[test]
    fn row_bands_single_band_widens_to_input_extent() {
        // Formula window is 35 rows; the plane has 36 (one trailing row
        // no output reads). A single band must cover all of it.
        let bands = row_bands(&K3S2, 17, 17, 36).unwrap();
        assert_eq!(bands.len(), 1);
        assert_eq!(bands[0].ih_len, 36);
        // Exact geometry: window == extent.
        let bands = row_bands(&K3S2, 17, 17, 35).unwrap();
        assert_eq!(bands[0].ih_len, 35);
    }

    #[test]
    fn row_bands_clamp_to_input_extent() {
        // K3S3 over 16 input rows: oh = 5, formula window of the last
        // band would end at 15 — already inside the plane — but a
        // too-small `ih` must clamp every band.
        let k3s3 = PoolParams::new((3, 3), (3, 3));
        let bands = row_bands(&k3s3, 5, 2, 16).unwrap();
        assert_eq!(bands.len(), 3);
        for b in &bands {
            assert!(b.ih0 + b.ih_len <= 16, "band {b:?} overruns the input");
        }
        // Last band: output rows [4, 5), input rows [12, 15).
        assert_eq!(bands[2].ih0, 12);
        assert_eq!(bands[2].ih_len, 3);
    }

    #[test]
    fn bands_overlap_in_input_when_stride_lt_kernel() {
        let bands = row_bands(&K3S2, 4, 2, 9).unwrap();
        // band 0 reads rows [0, 5), band 1 reads [4, 9): one-row halo
        assert_eq!(bands[0].ih0 + bands[0].ih_len, 5);
        assert_eq!(bands[1].ih0, 4);
    }

    #[test]
    fn batched_wrappers_type_failures() {
        // Capacity failure: 4 planes of 100 bytes/row against 150 bytes.
        let err = max_row_band_batched(4, 50, 150, |boh| 4 * boh * 100).unwrap_err();
        assert_eq!(
            err,
            TilingError::Batched {
                n: 4,
                cause: Box::new(TilingError::Capacity {
                    min_footprint: 400,
                    capacity: 150
                })
            }
        );
        assert_eq!(
            err.root_cause(),
            &TilingError::Capacity {
                min_footprint: 400,
                capacity: 150
            }
        );
        // Padded multi-band failure keeps its typed cause.
        let padded = PoolParams::with_padding((3, 3), (2, 2), dv_tensor::Padding::uniform(1));
        let err = row_bands_batched(4, &padded, 8, 4, 15).unwrap_err();
        assert_eq!(
            err.root_cause(),
            &TilingError::PaddedMultiBand { oh: 8, boh: 4 }
        );
        // Success passes through untouched.
        let bands = row_bands_batched(4, &K3S2, 73, 10, 147).unwrap();
        assert_eq!(bands, row_bands(&K3S2, 73, 10, 147).unwrap());
        assert_eq!(
            max_row_band_batched(4, 50, 4000, |boh| 4 * boh * 100).unwrap(),
            10
        );
    }

    #[test]
    fn batched_wrapping_is_idempotent() {
        let inner = TilingError::Degenerate { oh: 0, boh: 0 };
        let once = inner.clone().batched(4);
        let twice = once.clone().batched(8);
        assert_eq!(once, twice, "already-batched errors must not re-wrap");
        assert_eq!(once.root_cause(), &inner);
        // Display mentions both the batch and the cause.
        let msg = once.to_string();
        assert!(msg.contains("N=4"), "{msg}");
        assert!(msg.contains("degenerate"), "{msg}");
    }

    #[test]
    fn balanced_chunks_even_out_the_remainder() {
        let items = [0, 1, 2, 3, 4];
        let chunks = balanced_chunks(&items, 4);
        assert_eq!(chunks.len(), 4, "all four groups draw work");
        let sizes: Vec<usize> = chunks.iter().map(|c| c.len()).collect();
        assert_eq!(sizes, vec![2, 1, 1, 1]);
        // The naive div_ceil split under-produces groups on the same
        // input: chunks of 2 over 5 items is only three groups.
        assert_eq!(items.chunks(items.len().div_ceil(4)).count(), 3);
        // Order and coverage are preserved.
        let flat: Vec<i32> = chunks.concat();
        assert_eq!(flat, items);
    }

    #[test]
    fn balanced_ranges_mirror_balanced_chunks() {
        for n in 0..40 {
            let items: Vec<usize> = (0..n).collect();
            for g in 0..10 {
                let ranges = balanced_ranges(n, g);
                let chunks = balanced_chunks(&items, g);
                assert_eq!(ranges.len(), chunks.len(), "n={n} g={g}");
                let mut expect = 0;
                for ((a, b), chunk) in ranges.iter().zip(&chunks) {
                    assert_eq!(*a, expect, "ranges concatenate");
                    assert_eq!(b - a, chunk.len(), "n={n} g={g}");
                    assert!(b > a, "never empty");
                    expect = *b;
                }
                assert_eq!(expect, n, "ranges cover [0, n)");
            }
        }
    }

    #[test]
    fn balanced_chunks_edge_cases() {
        let items = [1, 2, 3];
        // More groups than items: one item per chunk, never empty chunks.
        assert_eq!(balanced_chunks(&items, 7).len(), 3);
        // One group: everything together.
        assert_eq!(balanced_chunks(&items, 1), vec![&items[..]]);
        // Zero groups is clamped to one rather than panicking.
        assert_eq!(balanced_chunks(&items, 0), vec![&items[..]]);
        // Empty input: no chunks.
        assert!(balanced_chunks::<i32>(&[], 4).is_empty());
        // Exact division: equal sizes.
        let eight = [0u8; 8];
        assert!(balanced_chunks(&eight, 4).iter().all(|c| c.len() == 2));
        // Sizes always differ by at most one.
        for n in 1..40 {
            let v: Vec<usize> = (0..n).collect();
            for g in 1..10 {
                let sizes: Vec<usize> = balanced_chunks(&v, g).iter().map(|c| c.len()).collect();
                let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(max - min <= 1, "n={n} g={g} sizes={sizes:?}");
                assert_eq!(sizes.iter().sum::<usize>(), n);
            }
        }
    }

    #[test]
    fn threshold_binary_search() {
        // footprint = hw^2 bytes, capacity 10_000 -> threshold 100
        assert_eq!(tiling_threshold(10_000, 1024, |hw| hw * hw), 100);
        assert_eq!(tiling_threshold(9_999, 1024, |hw| hw * hw), 99);
        // capacity smaller than any size -> 0
        assert_eq!(tiling_threshold(0, 1024, |hw| hw * hw + 1), 0);
    }
}
