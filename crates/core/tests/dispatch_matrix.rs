//! Dispatch matrix: every `PoolingEngine` switch combination, on a
//! single-core chip with a 16 KiB Unified Buffer and on an 8-core chip
//! with the shared-L2 memory model, over five small shapes and all five
//! entry points.
//!
//! Every `Ok` output must be bit-exact against `dv_tensor::reference`.
//! The simulated cost of each (chip, combination) row — summed cycles,
//! issues, tuner fallbacks and tuner mispredictions, plus the number of
//! typed errors — is pinned in [`PINNED`], so any change to which
//! programs the engine dispatches shows up here. On a mismatch the test
//! prints the chip's full actual table (paste it over that chip's rows
//! of [`PINNED`] only when a dispatch change is intended) and names every
//! combination that moved.
//!
//! The shapes reach every dispatch path: the batch fold (N > 1 on one
//! core, and `c1 = 8` on eight), row bands (the small UB) and band
//! splitting, sub-plane backward shards (the unpadded single-plane shapes
//! on eight cores), the tuner's ranking with its fallbacks and
//! mispredictions (the small UB), and the typed refusal of padded
//! Standard lowerings.
//!
//! Every engine runs its case list twice. The engine memoises each
//! call's lowering, so the second pass is served from its plan cache and
//! must equal the first call for call: output bits, cycles, per-core and
//! total counters, and buffer peaks. Further tests check that editing an
//! engine's public fields never serves a stale plan and that threads
//! sharing one cache agree.

use dv_core::{ForwardImpl, MergeImpl, PoolingEngine};
use dv_fp16::F16;
use dv_sim::{BufferPeaks, Chip, CostModel, HwCounters, MemoryModel};
use dv_tensor::reference;
use dv_tensor::{Nc1hwc0, Padding, PoolParams};

/// One pinned row: chip, switch combination, then summed cycles, summed
/// issues, tuner fallbacks, tuner mispredictions and typed errors.
type Row = (&'static str, &'static str, [u64; 5]);

const PINNED: &[Row] = &[
    ("1core-16k", "-- -- -- -- --", [483342, 24101, 0, 0, 4]),
    ("1core-16k", "sb -- -- -- --", [483342, 24101, 0, 0, 4]),
    ("1core-16k", "-- db -- -- --", [503376, 25660, 0, 0, 4]),
    ("1core-16k", "sb db -- -- --", [503376, 25660, 0, 0, 4]),
    ("1core-16k", "-- -- ba -- --", [469756, 23657, 0, 0, 4]),
    ("1core-16k", "sb -- ba -- --", [469756, 23657, 0, 0, 4]),
    ("1core-16k", "-- db ba -- --", [489790, 25216, 0, 0, 4]),
    ("1core-16k", "sb db ba -- --", [489790, 25216, 0, 0, 4]),
    ("1core-16k", "-- -- -- sh --", [483342, 24101, 0, 0, 4]),
    ("1core-16k", "sb -- -- sh --", [483342, 24101, 0, 0, 4]),
    ("1core-16k", "-- db -- sh --", [503376, 25660, 0, 0, 4]),
    ("1core-16k", "sb db -- sh --", [503376, 25660, 0, 0, 4]),
    ("1core-16k", "-- -- ba sh --", [469756, 23657, 0, 0, 4]),
    ("1core-16k", "sb -- ba sh --", [469756, 23657, 0, 0, 4]),
    ("1core-16k", "-- db ba sh --", [489790, 25216, 0, 0, 4]),
    ("1core-16k", "sb db ba sh --", [489790, 25216, 0, 0, 4]),
    ("1core-16k", "-- -- -- -- at", [257008, 9622, 4, 4, 2]),
    ("1core-16k", "sb -- -- -- at", [257008, 9622, 4, 4, 2]),
    ("1core-16k", "-- db -- -- at", [300414, 12424, 4, 2, 2]),
    ("1core-16k", "sb db -- -- at", [300414, 12424, 4, 2, 2]),
    ("1core-16k", "-- -- ba -- at", [250352, 9622, 4, 4, 2]),
    ("1core-16k", "sb -- ba -- at", [250352, 9622, 4, 4, 2]),
    ("1core-16k", "-- db ba -- at", [293758, 12424, 4, 2, 2]),
    ("1core-16k", "sb db ba -- at", [293758, 12424, 4, 2, 2]),
    ("1core-16k", "-- -- -- sh at", [257008, 9622, 4, 4, 2]),
    ("1core-16k", "sb -- -- sh at", [257008, 9622, 4, 4, 2]),
    ("1core-16k", "-- db -- sh at", [300414, 12424, 4, 2, 2]),
    ("1core-16k", "sb db -- sh at", [300414, 12424, 4, 2, 2]),
    ("1core-16k", "-- -- ba sh at", [250352, 9622, 4, 4, 2]),
    ("1core-16k", "sb -- ba sh at", [250352, 9622, 4, 4, 2]),
    ("1core-16k", "-- db ba sh at", [293758, 12424, 4, 2, 2]),
    ("1core-16k", "sb db ba sh at", [293758, 12424, 4, 2, 2]),
    ("8core-l2", "-- -- -- -- --", [154816, 18557, 0, 0, 3]),
    ("8core-l2", "sb -- -- -- --", [119309, 20022, 0, 0, 6]),
    ("8core-l2", "-- db -- -- --", [154816, 18557, 0, 0, 3]),
    ("8core-l2", "sb db -- -- --", [119309, 20022, 0, 0, 6]),
    ("8core-l2", "-- -- ba -- --", [152755, 17941, 0, 0, 3]),
    ("8core-l2", "sb -- ba -- --", [119309, 20022, 0, 0, 6]),
    ("8core-l2", "-- db ba -- --", [152755, 17941, 0, 0, 3]),
    ("8core-l2", "sb db ba -- --", [119309, 20022, 0, 0, 6]),
    ("8core-l2", "-- -- -- sh --", [105551, 25743, 0, 0, 3]),
    ("8core-l2", "sb -- -- sh --", [79854, 26060, 0, 0, 3]),
    ("8core-l2", "-- db -- sh --", [105551, 25743, 0, 0, 3]),
    ("8core-l2", "sb db -- sh --", [79854, 26060, 0, 0, 3]),
    ("8core-l2", "-- -- ba sh --", [103490, 25127, 0, 0, 3]),
    ("8core-l2", "sb -- ba sh --", [78561, 25444, 0, 0, 3]),
    ("8core-l2", "-- db ba sh --", [103490, 25127, 0, 0, 3]),
    ("8core-l2", "sb db ba sh --", [78561, 25444, 0, 0, 3]),
    ("8core-l2", "-- -- -- -- at", [70660, 6016, 0, 0, 0]),
    ("8core-l2", "sb -- -- -- at", [70660, 6016, 0, 0, 0]),
    ("8core-l2", "-- db -- -- at", [70660, 6016, 0, 0, 0]),
    ("8core-l2", "sb db -- -- at", [70660, 6016, 0, 0, 0]),
    ("8core-l2", "-- -- ba -- at", [69892, 6016, 0, 0, 0]),
    ("8core-l2", "sb -- ba -- at", [70660, 6016, 0, 0, 0]),
    ("8core-l2", "-- db ba -- at", [69892, 6016, 0, 0, 0]),
    ("8core-l2", "sb db ba -- at", [70660, 6016, 0, 0, 0]),
    ("8core-l2", "-- -- -- sh at", [70660, 6016, 0, 0, 0]),
    ("8core-l2", "sb -- -- sh at", [70660, 6016, 0, 0, 0]),
    ("8core-l2", "-- db -- sh at", [70660, 6016, 0, 0, 0]),
    ("8core-l2", "sb db -- sh at", [70660, 6016, 0, 0, 0]),
    ("8core-l2", "-- -- ba sh at", [69892, 6016, 0, 0, 0]),
    ("8core-l2", "sb -- ba sh at", [70660, 6016, 0, 0, 0]),
    ("8core-l2", "-- db ba sh at", [69892, 6016, 0, 0, 0]),
    ("8core-l2", "sb db ba sh at", [70660, 6016, 0, 0, 0]),
];

/// The switches in combination order: bit `i` of a combination sets
/// switch `i`.
const SWITCHES: [&str; 5] = ["sb", "db", "ba", "sh", "at"];

/// `"sb db -- -- at"`-style label of a combination.
fn label(combo: u32) -> String {
    SWITCHES
        .iter()
        .enumerate()
        .map(|(i, s)| if combo >> i & 1 == 1 { *s } else { "--" })
        .collect::<Vec<_>>()
        .join(" ")
}

fn engine(chip: &Chip, combo: u32) -> PoolingEngine {
    let on = |i: u32| combo >> i & 1 == 1;
    PoolingEngine::new(chip.clone())
        .with_band_splitting(on(0))
        .with_double_buffering(on(1))
        .with_batching(on(2))
        .with_sharding(on(3))
        .with_auto_tuning(on(4))
}

/// One shape of the matrix with its inputs.
struct Case {
    name: &'static str,
    params: PoolParams,
    x: Nc1hwc0,
    grads: Nc1hwc0,
}

/// Mantissa-rich values over several binades with frequent ties, so a
/// reordered sum or a different argmax tie-break changes bits.
fn values(n: usize, c1: usize, h: usize, w: usize, seed: u64) -> Nc1hwc0 {
    let mut s = seed | 1;
    Nc1hwc0::from_fn(n, c1, h, w, |_, _, _, _, _| {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let mantissa = ((s >> 40) % 64) as f32 / 4.0 - 8.0;
        let scale = [0.0625f32, 1.0, 16.0][(s >> 32) as usize % 3];
        F16::from_f32(mantissa * scale)
    })
}

fn case(
    name: &'static str,
    (n, c1, h, w): (usize, usize, usize, usize),
    params: PoolParams,
) -> Case {
    let (oh, ow) = params.out_dims(h, w).expect("valid matrix shape");
    Case {
        name,
        params,
        x: values(n, c1, h, w, (h * 31 + n) as u64),
        grads: values(n, c1, oh, ow, (w * 17 + c1) as u64),
    }
}

fn cases() -> Vec<Case> {
    vec![
        case("n1", (1, 1, 17, 17), PoolParams::K3S2),
        case("n2c2", (2, 2, 13, 13), PoolParams::K3S2),
        case("n4c8", (4, 8, 6, 6), PoolParams::K2S2),
        case("stride1", (1, 1, 11, 11), PoolParams::new((3, 3), (1, 1))),
        case(
            "padded",
            (1, 1, 9, 9),
            PoolParams::with_padding((3, 3), (2, 2), Padding::uniform(1)),
        ),
    ]
}

/// The simulated cost of one call, or its typed error.
type Outcome = Result<[u64; 4], String>;

/// Everything one call returns: output bits (`F16` equality compares
/// bits), the argmax mask when there is one, and the chip statistics.
#[derive(Debug, PartialEq)]
struct Full {
    out: Vec<F16>,
    mask: Option<Vec<F16>>,
    cycles: u64,
    per_core: Vec<HwCounters>,
    total: HwCounters,
    peaks: BufferPeaks,
}

/// One call's full result, or its typed error.
type Call = Result<Full, String>;

fn full(out: &[F16], mask: Option<&[F16]>, run: dv_core::PoolRun) -> Call {
    Ok(Full {
        out: out.to_vec(),
        mask: mask.map(<[F16]>::to_vec),
        cycles: run.cycles,
        per_core: run.per_core,
        total: run.total,
        peaks: run.peaks,
    })
}

fn outcome(call: &Call) -> Outcome {
    let f = call.as_ref().map_err(Clone::clone)?;
    Ok([
        f.cycles,
        f.total.total_issues(),
        f.total.tuner_fallbacks,
        f.total.tuner_mispredicted,
    ])
}

/// A bit-exact check: `F16` equality compares bits.
fn assert_bits(got: &[F16], want: &[F16], what: &str) {
    assert!(got == want, "{what}: output differs from reference");
}

/// Run all ten calls (five entry points, two implementations each) of
/// one case, checking every `Ok` output bit for bit.
fn calls(e: &PoolingEngine, c: &Case, what: &str) -> Vec<Call> {
    let p = c.params;
    let (ih, iw) = (c.x.h, c.x.w);
    let want_max = reference::maxpool_forward(&c.x, &p).expect("reference");
    let want_avg = reference::avgpool_forward(&c.x, &p).expect("reference");
    let mask = reference::maxpool_argmax_mask(&c.x, &p).expect("reference");
    let want_dx_max = reference::maxpool_backward(&mask, &c.grads, &p, ih, iw).expect("reference");
    let want_dx_avg = reference::avgpool_backward(&c.grads, &p, ih, iw).expect("reference");
    let mut out = Vec::new();
    for impl_ in [ForwardImpl::Standard, ForwardImpl::Im2col] {
        let what = format!("{what} {impl_:?}");
        out.push(
            e.maxpool_forward(&c.x, p, impl_)
                .map_err(|err| err.to_string())
                .and_then(|(y, run)| {
                    assert_bits(
                        y.data(),
                        want_max.data(),
                        &format!("{what} maxpool_forward"),
                    );
                    full(y.data(), None, run)
                }),
        );
        out.push(
            e.avgpool_forward(&c.x, p, impl_)
                .map_err(|err| err.to_string())
                .and_then(|(y, run)| {
                    assert_bits(
                        y.data(),
                        want_avg.data(),
                        &format!("{what} avgpool_forward"),
                    );
                    full(y.data(), None, run)
                }),
        );
        out.push(
            e.maxpool_forward_with_argmax(&c.x, p, impl_)
                .map_err(|err| err.to_string())
                .and_then(|(y, m, run)| {
                    let what = format!("{what} maxpool_forward_with_argmax");
                    assert_bits(y.data(), want_max.data(), &what);
                    assert_bits(m.data(), mask.data(), &format!("{what} mask"));
                    full(y.data(), Some(m.data()), run)
                }),
        );
    }
    for merge in [MergeImpl::VAdd, MergeImpl::Col2Im] {
        let what = format!("{what} {merge:?}");
        out.push(
            e.maxpool_backward(&mask, &c.grads, p, ih, iw, merge)
                .map_err(|err| err.to_string())
                .and_then(|(dx, run)| {
                    assert_bits(
                        dx.data(),
                        want_dx_max.data(),
                        &format!("{what} maxpool_backward"),
                    );
                    full(dx.data(), None, run)
                }),
        );
        out.push(
            e.avgpool_backward(&c.grads, p, ih, iw, merge)
                .map_err(|err| err.to_string())
                .and_then(|(dx, run)| {
                    assert_bits(
                        dx.data(),
                        want_dx_avg.data(),
                        &format!("{what} avgpool_backward"),
                    );
                    full(dx.data(), None, run)
                }),
        );
    }
    out
}

/// Calls per case in [`calls`]: the first six are forward calls.
const FORWARD_CALLS: usize = 6;

/// Every call of every case on one engine, in case order.
fn pass(e: &PoolingEngine, cases: &[Case], what: &str) -> Vec<Call> {
    cases
        .iter()
        .flat_map(|c| calls(e, c, &format!("{what} {}", c.name)))
        .collect()
}

/// Run the matrix on one chip and compare it against its half of
/// [`PINNED`].
fn check_chip(chip_name: &'static str, chip: Chip) {
    let cases = cases();
    // Per combination: every call's outcome, in case order.
    let outcomes: Vec<Vec<Outcome>> = (0..32u32)
        .map(|combo| {
            let e = engine(&chip, combo);
            let what = format!("{chip_name} [{}]", label(combo));
            let misses = pass(&e, &cases, &what);
            // The engine holds fewer plans than its cache's capacity, so
            // every `Ok` call of this pass is a hit.
            let hits = pass(&e, &cases, &what);
            for (i, (miss, hit)) in misses.iter().zip(&hits).enumerate() {
                assert_eq!(hit, miss, "{what}: call {i} differs on a plan-cache hit");
            }
            misses.iter().map(outcome).collect()
        })
        .collect();

    // `auto_tune` takes precedence: with it set, `shard` never changes a
    // call, and neither `split_bands` nor `batching` changes a forward
    // call.
    let per_case = outcomes[0].len() / cases.len();
    for combo in (0..32u32).filter(|c| c >> 4 & 1 == 1) {
        let unshard = combo & !(1 << 3);
        assert_eq!(
            outcomes[combo as usize],
            outcomes[unshard as usize],
            "{chip_name}: [{}] differs from [{}]: auto_tune must ignore shard",
            label(combo),
            label(unshard)
        );
        let plain = combo & !1 & !(1 << 2);
        for (i, (a, b)) in outcomes[combo as usize]
            .iter()
            .zip(&outcomes[plain as usize])
            .enumerate()
            .filter(|(i, _)| i % per_case < FORWARD_CALLS)
        {
            assert_eq!(
                a,
                b,
                "{chip_name}: forward call {i} of [{}] differs from [{}]: auto_tune \
                 must ignore split_bands and batching on the forward path",
                label(combo),
                label(plain)
            );
        }
    }

    let actual: Vec<(String, [u64; 5])> = outcomes
        .iter()
        .enumerate()
        .map(|(combo, calls)| {
            let mut sums = [0u64; 5];
            for o in calls {
                match o {
                    Ok(v) => (0..4).for_each(|i| sums[i] += v[i]),
                    Err(_) => sums[4] += 1,
                }
            }
            (label(combo as u32), sums)
        })
        .collect();
    let pinned: Vec<&Row> = PINNED.iter().filter(|r| r.0 == chip_name).collect();
    let moved: Vec<&str> = actual
        .iter()
        .enumerate()
        .filter(|(i, (combo, sums))| {
            pinned
                .get(*i)
                .is_none_or(|r| (r.1, r.2) != (combo.as_str(), *sums))
        })
        .map(|(_, (combo, _))| combo.as_str())
        .collect();
    if !moved.is_empty() || pinned.len() != actual.len() {
        let table: String = actual
            .iter()
            .map(|(combo, sums)| format!("    ({chip_name:?}, {combo:?}, {sums:?}),\n"))
            .collect();
        panic!(
            "{chip_name}: dispatch changed for {} of {} combinations: {moved:?}\n\
             actual rows (cycles, issues, fallbacks, mispredicted, errors):\n{table}",
            moved.len(),
            actual.len()
        );
    }
}

#[test]
fn one_core_small_ub() {
    check_chip("1core-16k", small_ub_chip());
}

#[test]
fn eight_cores_shared_l2() {
    check_chip(
        "8core-l2",
        Chip::new(8, CostModel::ascend910_like()).with_memory(MemoryModel::ascend910_l2()),
    );
}

/// The one-core, 16 KiB-UB chip of [`one_core_small_ub`].
fn small_ub_chip() -> Chip {
    let mut chip = Chip::new(1, CostModel::ascend910_like());
    chip.caps.ub = 16 * 1024;
    chip
}

/// The plan cache keys on the engine's fields as they are at each call:
/// a clone (which shares the cache) with an edited field must equal a
/// fresh engine built with that configuration, and the original engine
/// must keep returning its first results.
#[test]
fn edited_config_never_serves_a_stale_plan() {
    let cases = cases();
    let chip = small_ub_chip();
    // `-- db -- -- --`: double buffering on, batching off.
    let original = engine(&chip, 1 << 1);
    let first = pass(&original, &cases, "original");

    let mut clone = original.clone();
    clone.double_buffer = false;
    let fresh = engine(&clone.chip, 0);
    let edited = pass(&clone, &cases, "clone db off");
    assert_ne!(edited, first, "double buffering moves the cycles here");
    assert_eq!(edited, pass(&fresh, &cases, "fresh db off"));

    clone.chip.caps.ub = 64 * 1024;
    let fresh = engine(&clone.chip, 0);
    assert_eq!(
        pass(&clone, &cases, "clone ub 64k"),
        pass(&fresh, &cases, "fresh ub 64k")
    );

    clone.chip.memory = MemoryModel::ascend910_l2();
    let fresh = engine(&clone.chip, 0);
    assert_eq!(
        pass(&clone, &cases, "clone l2"),
        pass(&fresh, &cases, "fresh l2")
    );

    assert_eq!(pass(&original, &cases, "original again"), first);
}

/// Two threads calling one key through clones of one engine (one shared
/// cache) get identical results, equal to a fresh engine's.
#[test]
fn threads_sharing_a_plan_cache_agree() {
    let cases = cases();
    let chip = Chip::new(8, CostModel::ascend910_like()).with_memory(MemoryModel::ascend910_l2());
    // `-- db ba -- at`: the tuner ranks, lowers and certifies alternatives.
    let shared = engine(&chip, 1 << 1 | 1 << 2 | 1 << 4);
    let barrier = std::sync::Barrier::new(2);
    let results: Vec<Vec<Call>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|t| {
                let (e, cases, barrier) = (shared.clone(), &cases, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    (0..3)
                        .flat_map(|_| calls(&e, &cases[0], &format!("thread {t}")))
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("no thread panics"))
            .collect()
    });
    assert_eq!(results[0], results[1]);
    let fresh = calls(&engine(&chip, 1 << 1 | 1 << 2 | 1 << 4), &cases[0], "fresh");
    for round in results[0].chunks(fresh.len()) {
        assert_eq!(round, fresh.as_slice());
    }
}
