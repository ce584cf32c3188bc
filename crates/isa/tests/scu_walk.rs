//! Property tests pinning the SCU repeat-walk semantics against an
//! independent scalar reference.
//!
//! The batched Mode-0 lowering in `dv-core` leans on two contracts:
//! the exact `[c1, (xk, yk)]` odometer order of Mode-0 repeats (the
//! batch fold repurposes `c1` as the batch index), and the ability to
//! split a long chain at the 255-repeat limit and resume mid-walk.
//! These tests pin both against hand-rolled references, independent of
//! the div/mod arithmetic inside `Im2Col::repeat_positions`.

use dv_isa::{Addr, Im2Col, Im2ColGeometry, Instr, Program, RepeatMode};
use dv_tensor::{Padding, PoolParams, FRACTAL_ROWS};
use proptest::prelude::*;

/// Scalar reference for the Mode-0 walk: a literal `[c1][xk][yk]`
/// odometer, incremented one digit at a time.
fn mode0_odometer(
    geom: &Im2ColGeometry,
    c1: usize,
    k_off: (usize, usize),
    first_patch: usize,
    repeat: usize,
) -> Vec<(usize, usize, usize, usize)> {
    let (kh, kw) = (geom.params.kh, geom.params.kw);
    let (mut c1, mut xk, mut yk) = (c1, k_off.0, k_off.1);
    let mut out = Vec::with_capacity(repeat);
    for _ in 0..repeat {
        out.push((c1, xk, yk, first_patch));
        yk += 1;
        if yk == kw {
            yk = 0;
            xk += 1;
        }
        if xk == kh {
            xk = 0;
            c1 += 1;
        }
    }
    out
}

/// A random valid geometry plus a random in-bounds start position.
fn arb_geom_and_start() -> impl Strategy<
    Value = (
        Im2ColGeometry,
        usize,          // c1
        (usize, usize), // k_off
        usize,          // first_patch
    ),
> {
    (
        (1usize..=4, 1usize..=4, 1usize..=3, 1usize..=3),
        (8usize..=24, 8usize..=24, 1usize..=4),
        (any::<u16>(), any::<u16>(), any::<u16>()),
    )
        .prop_filter_map(
            "valid geometry",
            |((kh, kw, sh, sw), (ih, iw, c1_len), (r0, r1, r2))| {
                let params = PoolParams::new((kh, kw), (sh, sw));
                let geom = Im2ColGeometry::new(ih, iw, c1_len, params).ok()?;
                let c1 = r0 as usize % c1_len;
                let k_off = ((r1 as usize / kw) % kh, r1 as usize % kw);
                let first_patch = r2 as usize % geom.patch_count();
                Some((geom, c1, k_off, first_patch))
            },
        )
}

fn im2col(
    geom: Im2ColGeometry,
    c1: usize,
    k_off: (usize, usize),
    first_patch: usize,
    repeat: u16,
    mode: RepeatMode,
) -> Im2Col {
    Im2Col {
        geom,
        src: Addr::l1(0),
        dst: Addr::ub(0),
        first_patch,
        k_off,
        c1,
        repeat,
        mode,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Mode-0 repeats walk the `[c1, (xk, yk)]` odometer from the
    /// instruction's start position, holding the patch position fixed.
    #[test]
    fn mode0_walk_matches_scalar_odometer(
        (geom, c1, k_off, first_patch) in arb_geom_and_start(),
        rep_seed in any::<u16>(),
    ) {
        let (kh, kw) = (geom.params.kh, geom.params.kw);
        let avail = geom.c1_len * kh * kw - (c1 * kh * kw + k_off.0 * kw + k_off.1);
        let repeat = 1 + rep_seed as usize % avail.min(255);
        let i = im2col(geom, c1, k_off, first_patch, repeat as u16, RepeatMode::Mode0);
        prop_assert!(i.validate().is_ok(), "{:?}", i.validate());

        let walk = i.repeat_positions();
        prop_assert_eq!(&walk, &mode0_odometer(&geom, c1, k_off, first_patch, repeat));
        // Every visited position is itself a valid single-issue position.
        for &(c1, xk, yk, patch) in &walk {
            prop_assert!(c1 < geom.c1_len && xk < kh && yk < kw);
            prop_assert!(patch < geom.patch_count());
        }
    }

    /// Mode-1 repeats advance the patch position by one fractal (16
    /// patches) per issue, holding `(c1, xk, yk)` fixed.
    #[test]
    fn mode1_walk_matches_scalar_reference(
        (geom, c1, k_off, first_patch) in arb_geom_and_start(),
        rep_seed in any::<u16>(),
    ) {
        let max_fr = (geom.patch_count() - first_patch).div_ceil(FRACTAL_ROWS);
        let repeat = 1 + rep_seed as usize % max_fr.min(255);
        let i = im2col(geom, c1, k_off, first_patch, repeat as u16, RepeatMode::Mode1);
        prop_assert!(i.validate().is_ok(), "{:?}", i.validate());

        let want: Vec<_> = (0..repeat)
            .map(|f| (c1, k_off.0, k_off.1, first_patch + f * FRACTAL_ROWS))
            .collect();
        prop_assert_eq!(i.repeat_positions(), want);
    }

    /// `validate` accepts exactly the in-bounds repeat counts: the last
    /// legal repeat passes, one more fails — in both modes.
    #[test]
    fn validate_accepts_exactly_the_in_bounds_repeats(
        (geom, c1, k_off, first_patch) in arb_geom_and_start(),
    ) {
        let (kh, kw) = (geom.params.kh, geom.params.kw);
        let avail0 = geom.c1_len * kh * kw - (c1 * kh * kw + k_off.0 * kw + k_off.1);
        if avail0 < 255 {
            let ok = im2col(geom, c1, k_off, first_patch, avail0 as u16, RepeatMode::Mode0);
            prop_assert!(ok.validate().is_ok());
            let over = im2col(geom, c1, k_off, first_patch, avail0 as u16 + 1, RepeatMode::Mode0);
            prop_assert!(over.validate().is_err());
        }
        let avail1 = (geom.patch_count() - first_patch).div_ceil(FRACTAL_ROWS);
        if avail1 < 255 {
            let ok = im2col(geom, c1, k_off, first_patch, avail1 as u16, RepeatMode::Mode1);
            prop_assert!(ok.validate().is_ok());
            let over = im2col(geom, c1, k_off, first_patch, avail1 as u16 + 1, RepeatMode::Mode1);
            prop_assert!(over.validate().is_err());
        }
    }

    /// A full Mode-0 chain from `(c1, xk, yk) = (0, 0, 0)` visits every
    /// `(c1, xk, yk)` combination exactly once, in lexicographic order.
    #[test]
    fn full_mode0_chain_is_a_lexicographic_bijection(
        (geom, _, _, first_patch) in arb_geom_and_start(),
    ) {
        let (kh, kw) = (geom.params.kh, geom.params.kw);
        let total = geom.c1_len * kh * kw;
        prop_assume!(total <= 255);
        let i = im2col(geom, 0, (0, 0), first_patch, total as u16, RepeatMode::Mode0);
        prop_assert!(i.validate().is_ok());

        let walk = i.repeat_positions();
        let mut expect = Vec::new();
        for c1 in 0..geom.c1_len {
            for xk in 0..kh {
                for yk in 0..kw {
                    expect.push((c1, xk, yk, first_patch));
                }
            }
        }
        prop_assert_eq!(walk, expect);
    }

    /// Splitting a Mode-0 chain at an arbitrary point and resuming a
    /// second instruction at the decomposed flat position reproduces the
    /// unsplit walk — the contract the batched emitter's 255-repeat
    /// chunking relies on.
    #[test]
    fn mode0_chain_split_resumes_seamlessly(
        (geom, _, _, first_patch) in arb_geom_and_start(),
        cut_seed in any::<u16>(),
    ) {
        let (kh, kw) = (geom.params.kh, geom.params.kw);
        let total = geom.c1_len * kh * kw;
        prop_assume!((2..=255).contains(&total));
        let whole = im2col(geom, 0, (0, 0), first_patch, total as u16, RepeatMode::Mode0);

        let cut = 1 + cut_seed as usize % (total - 1);
        let head = im2col(geom, 0, (0, 0), first_patch, cut as u16, RepeatMode::Mode0);
        // Resume exactly as the batched lowering does: decompose the flat
        // index of the next unvisited position.
        let (c1, rem) = (cut / (kh * kw), cut % (kh * kw));
        let tail = im2col(
            geom,
            c1,
            (rem / kw, rem % kw),
            first_patch,
            (total - cut) as u16,
            RepeatMode::Mode0,
        );
        prop_assert!(head.validate().is_ok() && tail.validate().is_ok());

        let mut stitched = head.repeat_positions();
        stitched.extend(tail.repeat_positions());
        prop_assert_eq!(stitched, whole.repeat_positions());
    }
}

/// Mode-0 forms with `repeat > 1` survive the binary encoding round trip
/// and disassemble with their mode and repeat visible.
#[test]
fn mode0_repeat_chain_encodes_and_disassembles() {
    // A batched-fold shape: c1_len = 4 "planes" (batch), K3 kernel,
    // one chain = 36 fractals from the very first position.
    let geom = Im2ColGeometry::new(35, 35, 4, PoolParams::K3S2).unwrap();
    let i = im2col(geom, 0, (0, 0), 16, 36, RepeatMode::Mode0);
    assert!(i.validate().is_ok());

    let mut p = Program::new();
    p.push(Instr::Im2Col(i)).unwrap();
    let q = Program::from_bytes(&p.to_bytes()).unwrap();
    assert_eq!(p.instrs(), q.instrs());

    let text = format!("{}", Instr::Im2Col(i));
    assert!(text.contains("mode=0"), "disasm missing mode: {text}");
    assert!(text.contains("rep=36"), "disasm missing repeat: {text}");
    assert!(text.contains("patch=16"), "disasm missing patch: {text}");
}

/// A random geometry with padding, dilation and ceil-mode overhang, which
/// the patch walk's incremental arithmetic must resolve exactly like
/// `element_coord`.
fn arb_padded_geom() -> impl Strategy<Value = Im2ColGeometry> {
    (
        (1usize..=4, 1usize..=4, 1usize..=3, 1usize..=3),
        (1usize..=2, 1usize..=2, 0usize..=2, 0usize..=2),
        (4usize..=20, 4usize..=20, any::<bool>()),
    )
        .prop_filter_map(
            "valid geometry",
            |((kh, kw, sh, sw), (dh, dw, pv, ph), (ih, iw, ceil))| {
                let params = PoolParams::with_padding((kh, kw), (sh, sw), Padding::uniform(pv))
                    .with_dilation((dh, dw))
                    .with_ceil_mode(ceil);
                let params = PoolParams {
                    padding: Padding {
                        left: ph,
                        right: ph,
                        ..params.padding
                    },
                    ..params
                };
                Im2ColGeometry::new(ih, iw, 1, params).ok()
            },
        )
}

proptest! {
    /// Every slot of a patch walk — on the grid, in the padding border
    /// and past the grid's end — resolves like `element_coord`, also
    /// after a restart at another patch and kernel offset.
    #[test]
    fn patch_walk_matches_element_coord(
        geom in arb_padded_geom(),
        starts in (any::<u16>(), any::<u16>()),
        offs in (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()),
    ) {
        let (kh, kw) = (geom.params.kh, geom.params.kw);
        let patches = geom.patch_count();
        let first = starts.0 as usize % patches;
        let k_off = (offs.0 as usize % kh, offs.1 as usize % kw);
        let slots = patches - first + 2 * FRACTAL_ROWS;
        let walk: Vec<_> = geom.patch_walk(first, k_off).take(slots).collect();
        let want: Vec<_> = (first..first + slots)
            .map(|p| geom.element_coord(p, k_off.0, k_off.1))
            .collect();
        prop_assert_eq!(walk, want);

        let mut walk = geom.patch_walk(first, k_off);
        walk.nth(starts.1 as usize % slots);
        let again = starts.1 as usize % patches;
        let k_off = (offs.2 as usize % kh, offs.3 as usize % kw);
        walk.restart(again, k_off);
        let walk: Vec<_> = walk.take(FRACTAL_ROWS).collect();
        let want: Vec<_> = (again..again + FRACTAL_ROWS)
            .map(|p| geom.element_coord(p, k_off.0, k_off.1))
            .collect();
        prop_assert_eq!(walk, want);
    }
}
