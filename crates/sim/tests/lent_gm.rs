//! The lent-region wall: a chip run over regions the caller lends
//! ([`LentGm`]) matches the same run over one flat image byte for byte —
//! results, counters, cycles, peaks, traces and L2 hits — on every
//! backend, and a declared write that no writable region covers is a
//! typed error before any core runs.

use dv_fp16::F16;
use dv_isa::{Addr, BufferId, DataMove, Instr, Mask, Program, VectorInstr, VectorOp};
use dv_sim::{
    Backend, Chip, ChipRun, CostModel, GmDeclaration, HaloOp, HaloSpan, L2Model, LentGm,
    MemoryModel, SimError, TraceConfig,
};

/// Bytes of GM in every run here: four 4 KiB pages.
const GM: usize = 16384;

/// The wall's layout, `(offset, bytes, writable)`: an input whose last
/// page it shares with the output (page 1 is `[4096, 8192)`), a 16-byte
/// alignment gap, the output, a gap, a halo staging region of its own, a
/// gap, and a second input. Every other byte is zero.
const A: (usize, usize, bool) = (0, 6000, false);
const B: (usize, usize, bool) = (6016, 1024, true);
const S: (usize, usize, bool) = (8192, 512, true);
const C: (usize, usize, bool) = (9000, 1000, false);

/// `GM[src..src + bytes)` -> UB -> `GM[dst..)`, doubled on the way when
/// `double` (one 128-lane `vadd` per 256 bytes).
fn mover(src: usize, dst: usize, bytes: usize, double: bool) -> Program {
    let mut p = Program::new();
    p.push(Instr::Move(DataMove::new(
        Addr::gm(src),
        Addr::ub(0),
        bytes,
    )))
    .unwrap();
    let mut out = Addr::ub(0);
    if double {
        out = Addr::ub(bytes);
        p.push(Instr::Vector(VectorInstr::unit_stride(
            VectorOp::Add,
            out,
            Addr::ub(0),
            Addr::ub(0),
            Mask::FULL,
            (bytes / 256) as u16,
        )))
        .unwrap();
    }
    p.push(Instr::Move(DataMove::new(out, Addr::gm(dst), bytes)))
        .unwrap();
    p
}

/// A flat image holding a distinct f16 pattern in every region of
/// `layout` and zeros everywhere else.
fn image(layout: &[(usize, usize, bool)]) -> Vec<u8> {
    let mut gm = vec![0u8; GM];
    for &(at, bytes, _) in layout {
        let vals: Vec<F16> = (0..bytes / 2)
            .map(|i| F16::from_f32(((at / 8 + i * 7) % 53) as f32 - 20.0))
            .collect();
        gm[at..at + bytes].copy_from_slice(dv_fp16::as_bytes(&vals));
    }
    gm
}

/// The same programs run over a flat image and over lent regions.
struct Both {
    flat_run: Result<ChipRun, SimError>,
    lent_run: Result<ChipRun, SimError>,
    /// The flat image after its run.
    flat: Vec<u8>,
    /// The `layout` regions after theirs.
    regions: Vec<Vec<u8>>,
}

/// Run `programs` on `chip` once over the flat `image` of `layout` and
/// once over its regions lent separately.
fn flat_and_lent(
    chip: &Chip,
    layout: &[(usize, usize, bool)],
    programs: &[Program],
    declared: &[GmDeclaration],
) -> Both {
    let original = image(layout);
    let mut flat = original.clone();
    let flat_run = chip.run_declared(&mut flat, programs, declared);
    let mut regions: Vec<Vec<u8>> = layout
        .iter()
        .map(|&(at, bytes, _)| original[at..at + bytes].to_vec())
        .collect();
    let mut gm = LentGm::new(GM);
    for (&(at, _, writable), bytes) in layout.iter().zip(&mut regions) {
        if writable {
            gm.lend_mut(at, bytes).unwrap();
        } else {
            gm.lend(at, bytes).unwrap();
        }
    }
    let lent_run = chip.run_lent(&mut gm, programs, declared);
    Both {
        flat_run,
        lent_run,
        flat,
        regions,
    }
}

/// Everything a run reports, compared field by field.
fn assert_same_run(flat: &ChipRun, lent: &ChipRun, what: &str) {
    assert_eq!(flat.cycles, lent.cycles, "{what}: cycles");
    assert_eq!(flat.core_cycles, lent.core_cycles, "{what}: core cycles");
    assert_eq!(flat.per_core, lent.per_core, "{what}: per-core counters");
    assert_eq!(flat.total, lent.total, "{what}: totals");
    assert_eq!(flat.peaks, lent.peaks, "{what}: peaks");
    assert_eq!(flat.traces.len(), lent.traces.len(), "{what}: traces");
    for (f, l) in flat.traces.iter().zip(&lent.traces) {
        assert_eq!(f.events, l.events, "{what}: trace events");
        assert_eq!(
            (f.core, f.dropped, f.contention, f.l2_stalls),
            (l.core, l.dropped, l.contention, l.l2_stalls),
            "{what}: trace bookings"
        );
    }
    assert_eq!(
        flat.chrome_trace_json(),
        lent.chrome_trace_json(),
        "{what}: trace export and live ranges"
    );
}

/// Writable regions hold exactly the flat run's bytes; every other byte
/// of the flat run is the original image (nothing outside the writable
/// regions was written).
fn assert_same_bytes(
    layout: &[(usize, usize, bool)],
    flat: &[u8],
    regions: &[Vec<u8>],
    what: &str,
) {
    let mut expect = image(layout);
    for (&(at, bytes, writable), region) in layout.iter().zip(regions) {
        if writable {
            assert_eq!(
                &flat[at..at + bytes],
                &region[..],
                "{what}: region at {at:#x}"
            );
            expect[at..at + bytes].copy_from_slice(region);
        }
    }
    assert!(
        flat == expect,
        "{what}: the flat run wrote outside the writable regions"
    );
}

/// Four programs on two cores over the wall's layout: adjacent output
/// spans from both cores, a read across the input, the gap and the
/// output on the page they share, a core reading back its own earlier
/// write, a read across a gap into scratch that holds earlier data, and
/// a halo fold from the staging region into another program's rows.
fn wall_programs() -> (Vec<Program>, Vec<GmDeclaration>) {
    let out = B.0;
    let programs = vec![
        mover(0, out, 256, true),           // core 0: input rows, doubled
        mover(5888, out + 256, 256, false), // core 1: A tail, gap, B head
        mover(out, out + 512, 256, true),   // core 0: its own write, doubled
        mover(C.0 - 8, S.0, 256, false),    // core 1: gap and C, staged
    ];
    let mut declared: Vec<GmDeclaration> = programs.iter().map(GmDeclaration::scan).collect();
    declared[3] = GmDeclaration {
        finalized: vec![],
        halos: vec![HaloSpan {
            src: S.0,
            dst: out,
            blocks: 8,
            block_bytes: 32,
            src_stride: 32,
            dst_stride: 32,
            op: HaloOp::Add,
            seq: 0,
        }],
    };
    (programs, declared)
}

#[test]
fn lent_regions_run_like_one_flat_image_on_every_backend() {
    let layout = [A, B, S, C];
    let (programs, declared) = wall_programs();
    let l2 = MemoryModel::SharedBandwidthL2 {
        bytes_per_cycle: 32,
        l2: L2Model {
            capacity: 1 << 20,
            line: 64,
        },
    };
    for backend in Backend::ALL {
        for memory in [MemoryModel::Independent, l2] {
            let chip = Chip::new(2, CostModel::ascend910_like())
                .with_backend(backend)
                .with_memory(memory)
                .with_trace(TraceConfig::ON);
            let what = format!("{backend}, {memory:?}");
            let Both {
                flat_run,
                lent_run,
                flat,
                regions,
            } = flat_and_lent(&chip, &layout, &programs, &declared);
            let (flat_run, lent_run) = (flat_run.unwrap(), lent_run.unwrap());
            assert_same_run(&flat_run, &lent_run, &what);
            assert_same_bytes(&layout, &flat, &regions, &what);
            if memory == l2 {
                assert!(lent_run.total.l2_hits > 0, "{what}: the L2 stage ran");
            }
            // The halo fold added the staged strip into core 0's rows.
            let staged = dv_fp16::from_bytes(&regions[2][..256]);
            let input = dv_fp16::from_bytes(&image(&layout)[..256]).to_vec();
            let out = dv_fp16::from_bytes(&regions[1][..256]);
            for i in 0..128 {
                assert_eq!(
                    out[i],
                    (input[i] + input[i]) + staged[i],
                    "{what}: element {i}"
                );
            }
        }
    }
}

/// The flat wrappers lend the whole image as one writable region, so a
/// plain run through [`Chip::run`] equals a [`Chip::run_lent`] over
/// [`LentGm::whole`] and over the same bytes lent as one region.
#[test]
fn the_flat_wrappers_lend_one_writable_region() {
    let (programs, _) = wall_programs();
    let programs = &programs[..3];
    let declared: Vec<GmDeclaration> = programs.iter().map(GmDeclaration::scan).collect();
    let chip = Chip::new(2, CostModel::ascend910_like()).with_trace(TraceConfig::ON);
    let mut flat = image(&[A, B, S, C]);
    let mut whole = flat.clone();
    let run = chip.run(&mut flat, programs).unwrap();
    let lent = chip
        .run_lent(&mut LentGm::whole(&mut whole), programs, &declared)
        .unwrap();
    assert_same_run(&run, &lent, "whole");
    assert_eq!(flat, whole);
}

/// Moves past the end of GM fail with the same typed out-of-bounds error
/// over lent regions as over a flat image: the coverage check leaves
/// bytes past the end to the moves.
#[test]
fn out_of_range_moves_fail_alike() {
    let chip = Chip::new(1, CostModel::ascend910_like());
    let cases = [
        (mover(GM - 128, B.0, 256, false), vec![A, B]),
        // The tail of GM is lent writable: only the bytes past the end
        // of GM are uncovered.
        (
            mover(0, GM - 128, 256, false),
            vec![A, (GM - 128, 128, true)],
        ),
    ];
    for (program, layout) in cases {
        let declared = [GmDeclaration::scan(&program)];
        let Both {
            flat_run, lent_run, ..
        } = flat_and_lent(&chip, &layout, std::slice::from_ref(&program), &declared);
        let err = lent_run.unwrap_err();
        assert!(
            matches!(
                err,
                SimError::OutOfBounds {
                    buffer: BufferId::Gm,
                    capacity: GM,
                    ..
                }
            ),
            "{err:?}"
        );
        assert_eq!(flat_run.unwrap_err(), err);
    }
}

/// A declared write span that writable regions do not cover is refused
/// before any core runs: into an input, into a gap, a halo staged
/// outside every region, a halo folding into an input.
#[test]
fn unlent_declared_writes_are_typed_errors_before_any_core_runs() {
    let layout = [A, B, S, C];
    let chip = Chip::new(2, CostModel::ascend910_like());
    let ok = mover(0, B.0 + 512, 256, false);
    let halo = |src: usize, dst: usize| GmDeclaration {
        finalized: vec![],
        halos: vec![HaloSpan {
            src,
            dst,
            blocks: 1,
            block_bytes: 32,
            src_stride: 32,
            dst_stride: 32,
            op: HaloOp::Max,
            seq: 0,
        }],
    };
    let cases = [
        (mover(0, 256, 64, false), None, "finalized", (256, 320)),
        (mover(0, 7100, 64, false), None, "finalized", (7100, 7164)),
        (mover(0, 6000, 32, false), None, "finalized", (6000, 6032)),
        (
            mover(0, 12288, 32, false),
            Some(halo(12288, B.0)),
            "halo src",
            (12288, 12320),
        ),
        (
            mover(0, S.0, 32, false),
            Some(halo(S.0, C.0)),
            "halo dst",
            (C.0, C.0 + 32),
        ),
    ];
    for (bad, decl, kind, span) in cases {
        let programs = [ok.clone(), bad.clone()];
        let declared = [
            GmDeclaration::scan(&ok),
            decl.unwrap_or_else(|| GmDeclaration::scan(&bad)),
        ];
        let Both {
            lent_run, regions, ..
        } = flat_and_lent(&chip, &layout, &programs, &declared);
        assert_eq!(
            lent_run.unwrap_err(),
            SimError::UnlentGmWrite {
                program: 1,
                kind,
                span
            }
        );
        assert_eq!(regions[1], image(&layout)[B.0..B.0 + B.1], "no core ran");
    }
}

/// Lending itself is checked: a region that overlaps one lent before it,
/// or runs past the end of GM, is a typed error.
#[test]
fn overlapping_or_oversized_regions_are_typed_errors() {
    let (a, b) = (vec![0u8; 64], vec![0u8; 64]);
    let mut gm = LentGm::new(256);
    gm.lend(64, &a).unwrap();
    let overlap = gm.lend(100, &b).unwrap_err();
    assert_eq!(
        overlap,
        SimError::GmRegionOverlap {
            lent: (64, 128),
            new: (100, 164)
        }
    );
    assert!(overlap.to_string().contains("overlaps"), "{overlap}");
    assert_eq!(
        gm.lend(224, &b).unwrap_err(),
        SimError::OutOfBounds {
            buffer: BufferId::Gm,
            offset: 224,
            len: 64,
            capacity: 256
        }
    );
    gm.lend(128, &b).unwrap();
}
