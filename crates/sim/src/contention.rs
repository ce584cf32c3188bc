//! The chip's memory-hierarchy stage: what concurrent cores share.
//!
//! The per-core simulation treats its MTE as a private pipe to global
//! memory, which is the right model for one core but a fiction at chip
//! scale: on the real device all 32 AI Cores draw their GM traffic
//! through one L2/HBM path, and implicit-convolution-style kernels are
//! memory-bandwidth-bound there (Zhou et al., arXiv 2110.03901). A
//! multi-core speedup measured without that shared path over-reports.
//!
//! [`MemoryModel`] makes the stage pluggable. The default,
//! [`MemoryModel::Independent`], preserves the legacy behaviour exactly
//! (every committed baseline and cost regression was measured under it).
//! [`MemoryModel::SharedBandwidth`] post-processes a chip run with a
//! deterministic *fluid* model: each core is summarised as a demand
//! stream — its pre-contention makespan `T_c` and GM byte volume `D_c`
//! spread uniformly over it — and the shared pipe's bandwidth is divided
//! max-min fairly among the cores still running. A core whose allocation
//! falls short of its demand progresses at the matching fraction of real
//! time; the extra completion time is booked per core as
//! [`HwCounters::contention_stalls`](crate::HwCounters::contention_stalls).
//!
//! The fluid summary deliberately avoids re-timing individual
//! instructions, so per-core counters, traces, and buffer contents are
//! untouched — contention only stretches each core's completion time,
//! which keeps the model deterministic, order-independent, and exactly
//! zero-cost when the aggregate demand fits the pipe.

/// A shared L2 cache in front of the HBM pipe: capacity and line size.
///
/// The locality model is deliberately coarse — a line-granular snapshot
/// of which cores *read* which GM lines over the whole run, not a timed
/// cache simulation. Row-band shards of one plane read overlapping halo
/// input rows; when the chip's combined read footprint fits the
/// capacity, every line only pays HBM once (the first reader misses, all
/// other cores' reads of the same line hit), so same-plane shards stop
/// each paying full HBM traffic. Hits are booked per core as
/// [`HwCounters::l2_hits`](crate::HwCounters::l2_hits); the residual
/// miss demand contends for the HBM pipe exactly like
/// [`MemoryModel::SharedBandwidth`], booked as
/// [`HwCounters::l2_miss_stalls`](crate::HwCounters::l2_miss_stalls).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct L2Model {
    /// Total cache capacity in bytes; a run whose distinct-line read
    /// footprint exceeds it gets no hits (whole-run thrash, the
    /// conservative degenerate case).
    pub capacity: u64,
    /// Cache line size in bytes; read spans are rounded out to lines.
    pub line: u64,
}

/// How concurrent cores share the path to global memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemoryModel {
    /// Fully independent cores — the legacy fiction: every core sees its
    /// full MTE bandwidth regardless of what the others stream. The
    /// default for every constructor, so existing baselines are
    /// unchanged.
    Independent,
    /// All cores draw GM traffic through one shared L2/HBM pipe,
    /// allocated max-min fairly among the cores still running. A core's
    /// demand is capped by its own MTE peak
    /// ([`CostModel::move_bytes_per_cycle`](crate::CostModel)), so the
    /// pipe only binds once enough cores stream at once.
    SharedBandwidth {
        /// Total bytes per cycle the shared pipe sustains.
        bytes_per_cycle: u64,
    },
    /// [`MemoryModel::SharedBandwidth`] with an [`L2Model`] in front of
    /// the pipe: GM reads of a line some other core already fetched are
    /// served from L2 and subtracted from the core's HBM demand before
    /// the fair-share stage runs. Contention under this model is booked
    /// as `l2_miss_stalls` (with `contention_stalls` staying 0), so the
    /// two models' accounting never mixes.
    SharedBandwidthL2 {
        /// Total bytes per cycle the shared HBM pipe sustains.
        bytes_per_cycle: u64,
        /// The shared cache in front of it.
        l2: L2Model,
    },
}

impl MemoryModel {
    /// An Ascend-910-like shared pipe: 256 B/cycle — eight times the
    /// 32 B/cycle per-core MTE peak, so up to eight saturating streams
    /// coexist free of charge and a 32-core all-streaming chip degrades
    /// by at most 4x.
    pub fn ascend910_hbm() -> MemoryModel {
        MemoryModel::SharedBandwidth {
            bytes_per_cycle: 256,
        }
    }

    /// The Ascend-910 shared pipe with its 32 MiB on-chip L2 (512-byte
    /// lines) in front: same HBM bandwidth as
    /// [`MemoryModel::ascend910_hbm`], but row-band shards of one plane
    /// share cached input rows instead of each paying full HBM traffic.
    pub fn ascend910_l2() -> MemoryModel {
        MemoryModel::SharedBandwidthL2 {
            bytes_per_cycle: 256,
            l2: L2Model {
                capacity: 32 * 1024 * 1024,
                line: 512,
            },
        }
    }
}

/// Per-core L2 outcome of one chip run: `(hit_lines, hit_bytes)`.
///
/// `reads[c]` is core `c`'s observed GM read spans (half-open byte
/// ranges). Each core's spans are rounded out to `line`-byte lines and
/// deduplicated; if the chip-wide distinct-line footprint exceeds
/// `capacity` nobody hits (whole-run thrash). Otherwise each line's
/// single HBM fetch is attributed to the lowest core index that read it
/// and every *other* reader of the line scores a hit — deterministic by
/// construction (set arithmetic in core-index order, no timing).
///
/// The sets are merged line intervals, not lines: a core's hits are the
/// lines its intervals share with the union of the lower cores'
/// intervals (a two-pointer sweep), and that union after the last core
/// is the footprint.
pub(crate) fn l2_hit_lines(
    reads: &[&[(usize, usize)]],
    line: u64,
    capacity: u64,
) -> Vec<(u64, u64)> {
    let line = line.max(1) as usize;
    let mut fetched: Vec<(usize, usize)> = Vec::new();
    let hits: Vec<(u64, u64)> = reads
        .iter()
        .map(|spans| {
            let lines = merged(
                spans
                    .iter()
                    .filter(|&&(start, end)| end > start)
                    .map(|&(start, end)| (start / line, (end - 1) / line + 1))
                    .collect(),
            );
            let hits = shared_lines(&fetched, &lines) as u64;
            fetched = merged(fetched.iter().chain(&lines).copied().collect());
            (hits, hits * line as u64)
        })
        .collect();
    let footprint: usize = fetched.iter().map(|&(first, end)| end - first).sum();
    if footprint as u64 * line as u64 > capacity {
        return vec![(0, 0); reads.len()];
    }
    hits
}

/// Sort half-open intervals and join the ones that overlap or touch.
fn merged(mut intervals: Vec<(usize, usize)>) -> Vec<(usize, usize)> {
    intervals.sort_unstable();
    let mut out: Vec<(usize, usize)> = Vec::with_capacity(intervals.len());
    for (start, end) in intervals {
        match out.last_mut() {
            Some(last) if start <= last.1 => last.1 = last.1.max(end),
            _ => out.push((start, end)),
        }
    }
    out
}

/// How many points two sorted, disjoint interval lists share.
fn shared_lines(a: &[(usize, usize)], b: &[(usize, usize)]) -> usize {
    let (mut i, mut j, mut shared) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        let (lo, hi) = (a[i].0.max(b[j].0), a[i].1.min(b[j].1));
        shared += hi.saturating_sub(lo);
        if a[i].1 < b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    shared
}

/// Per-core extra completion cycles under the shared-bandwidth fluid
/// model. `streams[c]` is core `c`'s demand summary: its pre-contention
/// completion time in cycles (dispatch included) and its GM byte volume.
/// `shared` is the pipe's total bytes/cycle, `per_core` each core's own
/// MTE peak (the demand cap).
///
/// Max-min fair-share fluid simulation: every core's demand rate is
/// `d_c = min(per_core, D_c / T_c)`; within each segment the pipe's
/// bandwidth is water-filled over the active cores, each progressing at
/// `r_c = alloc_c / d_c <= 1` virtual cycles per real cycle (cores with
/// no GM traffic run at full rate); the segment ends when the first core
/// finishes. At most `streams.len()` segments, all arithmetic in a fixed
/// order — deterministic by construction.
pub(crate) fn contention_stalls(streams: &[(u64, u64)], shared: u64, per_core: u64) -> Vec<u64> {
    let n = streams.len();
    let shared = shared.max(1) as f64;
    let per_core = per_core.max(1) as f64;
    // Demand rates, capped by the per-core MTE peak.
    let demand: Vec<f64> = streams
        .iter()
        .map(|&(t, bytes)| {
            if t == 0 {
                0.0
            } else {
                (bytes as f64 / t as f64).min(per_core)
            }
        })
        .collect();
    let mut remaining: Vec<f64> = streams.iter().map(|&(t, _)| t as f64).collect();
    let mut finish = vec![0.0f64; n];
    let mut active: Vec<usize> = (0..n).filter(|&i| remaining[i] > 0.0).collect();
    let mut now = 0.0f64;
    while !active.is_empty() {
        // Water-fill the pipe over the active demanders: repeatedly give
        // every stream below the fair share its full demand, then split
        // the leftover evenly among the rest.
        let mut rate = vec![1.0f64; n];
        let mut unsat: Vec<usize> = active
            .iter()
            .copied()
            .filter(|&i| demand[i] > 0.0)
            .collect();
        let mut budget = shared;
        loop {
            if unsat.is_empty() {
                break;
            }
            let fair = budget / unsat.len() as f64;
            let (sated, rest): (Vec<usize>, Vec<usize>) =
                unsat.iter().partition(|&&i| demand[i] <= fair + 1e-12);
            if sated.is_empty() {
                for &i in &rest {
                    rate[i] = (fair / demand[i]).min(1.0);
                }
                break;
            }
            for &i in &sated {
                budget -= demand[i];
            }
            unsat = rest;
        }
        // Advance to the first finisher.
        let dt = active
            .iter()
            .map(|&i| remaining[i] / rate[i])
            .fold(f64::INFINITY, f64::min);
        now += dt;
        for &i in &active {
            remaining[i] -= dt * rate[i];
        }
        active.retain(|&i| {
            let done = remaining[i] <= 1e-6;
            if done {
                finish[i] = now;
            }
            !done
        });
    }
    streams
        .iter()
        .zip(&finish)
        .map(|(&(t, _), &f)| (f - t as f64).max(0.0).round() as u64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// [`l2_hit_lines`] as first written, one set entry per line: the
    /// oracle for the interval form.
    fn l2_hit_lines_by_set(
        reads: &[&[(usize, usize)]],
        line: u64,
        capacity: u64,
    ) -> Vec<(u64, u64)> {
        use std::collections::BTreeSet;
        let line = line.max(1) as usize;
        let per_core: Vec<BTreeSet<usize>> = reads
            .iter()
            .map(|spans| {
                let mut lines = BTreeSet::new();
                for &(start, end) in spans.iter() {
                    if end > start {
                        for l in (start / line)..=((end - 1) / line) {
                            lines.insert(l);
                        }
                    }
                }
                lines
            })
            .collect();
        let mut footprint: BTreeSet<usize> = BTreeSet::new();
        for lines in &per_core {
            footprint.extend(lines.iter().copied());
        }
        if footprint.len() as u64 * line as u64 > capacity {
            return vec![(0, 0); reads.len()];
        }
        let mut fetched: BTreeSet<usize> = BTreeSet::new();
        per_core
            .iter()
            .map(|lines| {
                let hits = lines.iter().filter(|l| fetched.contains(l)).count() as u64;
                fetched.extend(lines.iter().copied());
                (hits, hits * line as u64)
            })
            .collect()
    }

    proptest! {
        /// Random read spans (empty, overlapping, touching and nested
        /// ones included) on up to eight cores, line sizes from 1 byte
        /// up and capacities on both sides of the footprint: the
        /// interval form counts exactly what the line sets count.
        #[test]
        fn interval_hits_equal_the_line_set_oracle(
            cores in proptest::collection::vec(
                proptest::collection::vec((0usize..4096, 0usize..1500), 0..12),
                0..8,
            ),
            line in prop_oneof![Just(1u64), Just(2u64), 1u64..700, Just(512u64)],
            capacity in prop_oneof![Just(u64::MAX), 0u64..20_000],
        ) {
            let spans: Vec<Vec<(usize, usize)>> = cores
                .iter()
                .map(|c| c.iter().map(|&(start, len)| (start, start + len)).collect())
                .collect();
            let reads: Vec<&[(usize, usize)]> = spans.iter().map(Vec::as_slice).collect();
            prop_assert_eq!(
                l2_hit_lines(&reads, line, capacity),
                l2_hit_lines_by_set(&reads, line, capacity)
            );
        }
    }

    #[test]
    fn later_readers_of_a_line_hit_and_thrash_clears_every_hit() {
        // Core 0 reads lines 0-1, core 1 lines 1-3, core 2 lines 0 and 3:
        // core 1 hits line 1, core 2 hits both of its lines.
        let reads: [&[(usize, usize)]; 3] =
            [&[(0, 1024)], &[(600, 2048)], &[(10, 20), (1600, 1601)]];
        assert_eq!(
            l2_hit_lines(&reads, 512, 4 * 512),
            vec![(0, 0), (1, 512), (2, 1024)]
        );
        // A footprint of 4 lines does not fit 3: nobody hits.
        assert_eq!(l2_hit_lines(&reads, 512, 3 * 512), vec![(0, 0); 3]);
    }

    #[test]
    fn no_contention_when_demand_fits_the_pipe() {
        // 4 cores each demanding 20 B/cyc against a 256 B/cyc pipe.
        let streams = vec![(1000, 20_000); 4];
        assert_eq!(contention_stalls(&streams, 256, 32), vec![0; 4]);
        // A lone core can never contend with itself.
        assert_eq!(contention_stalls(&[(500, 16_000)], 256, 32), vec![0]);
        // Idle cores report nothing.
        assert_eq!(contention_stalls(&[(0, 0)], 256, 32), vec![0]);
    }

    #[test]
    fn uniform_saturating_streams_split_the_pipe_evenly() {
        // 32 cores each at the 32 B/cyc per-core peak demand 1024 B/cyc
        // against a 256 B/cyc pipe: everyone runs at rate 1/4, so each
        // core takes 4x as long — 3x its makespan in stalls.
        let streams = vec![(1000, 32_000); 32];
        let stalls = contention_stalls(&streams, 256, 32);
        assert_eq!(stalls, vec![3000; 32]);
    }

    #[test]
    fn demand_is_capped_by_the_per_core_peak() {
        // A core cannot demand more than its own MTE sustains, no matter
        // how many bytes it moved: 8 such cores exactly fill the pipe.
        let streams = vec![(100, 1_000_000); 8];
        assert_eq!(contention_stalls(&streams, 256, 32), vec![0; 8]);
    }

    #[test]
    fn light_streams_are_not_taxed_for_heavy_neighbours() {
        // Max-min fairness: a 2 B/cyc stream among 31 saturating ones
        // gets its full demand (2 < 256/32 fair share) and finishes on
        // time; the heavy streams split the rest.
        let mut streams = vec![(1000, 32_000); 31];
        streams.push((1000, 2_000));
        let stalls = contention_stalls(&streams, 256, 32);
        assert_eq!(stalls[31], 0, "unsaturated stream rides free");
        assert!(stalls[..31].iter().all(|&s| s > 0));
        // Two fluid segments: while the light stream runs (its full 1000
        // cycles) the heavy ones share 254 B/cyc, progressing at
        // 254/(31*32) each; after it finishes they split the whole 256.
        let r1 = 254.0_f64 / (31.0 * 32.0);
        let r2 = 256.0_f64 / (31.0 * 32.0);
        let expect = ((1000.0 - 1000.0 * r1) / r2).round() as u64;
        assert!(stalls[..31].iter().all(|&s| s == expect), "{stalls:?}");
    }

    #[test]
    fn more_bandwidth_never_hurts() {
        let streams: Vec<(u64, u64)> = (0..6).map(|i| (500 + 100 * i, 10_000 * (i + 1))).collect();
        let mut prev: Option<u64> = None;
        for bw in [32u64, 64, 128, 256, 512] {
            let total: u64 = contention_stalls(&streams, bw, 32).iter().sum();
            if let Some(p) = prev {
                assert!(total <= p, "stalls must shrink as the pipe widens");
            }
            prev = Some(total);
        }
        assert_eq!(prev, Some(0), "a wide-enough pipe charges nothing");
    }

    #[test]
    fn compute_bound_cores_keep_running_while_streams_contend() {
        // One pure-compute core (no GM traffic) and two saturating
        // streams on a pipe with room for one: compute core unaffected.
        let streams = vec![(1000, 0), (1000, 32_000), (1000, 32_000)];
        let stalls = contention_stalls(&streams, 32, 32);
        assert_eq!(stalls[0], 0);
        assert_eq!(stalls[1], 1000);
        assert_eq!(stalls[2], 1000);
    }

    #[test]
    fn deterministic_across_calls() {
        let streams: Vec<(u64, u64)> = (0..32).map(|i| (1_000 + 37 * i, 5_000 + 991 * i)).collect();
        let a = contention_stalls(&streams, 256, 32);
        let b = contention_stalls(&streams, 256, 32);
        assert_eq!(a, b);
    }
}
