//! Hardware counters.
//!
//! "The cycle count numbers were obtained using the hardware counters of
//! the chip" (paper, Section VI). The simulator's counters additionally
//! expose the decomposition the paper reasons about: issue counts per
//! mnemonic, per-unit cycles, and vector-lane utilization.

use std::collections::BTreeMap;

// The unit ↔ instruction mapping is architectural, so it lives in the ISA
// crate; re-exported here for backwards compatibility.
pub use dv_isa::Unit;

/// Cycle and event counters for one program execution.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HwCounters {
    /// Wall-clock cycles: under the single-issue model this equals
    /// [`HwCounters::busy_cycles`] (every instruction serialises); under
    /// the dual-pipe model it is the makespan over both pipes, which is
    /// never larger.
    pub cycles: u64,
    /// Cycles an issue pipe sat idle waiting on a scoreboard hazard
    /// (always 0 under the single-issue model).
    pub stall_cycles: u64,
    /// Stall cycles attributed to each issue pipe (index 0 = MTE/SCU,
    /// index 1 = Vector/Cube — see [`crate::pipe_of`]). Invariant:
    /// `pipe_stalls[0] + pipe_stalls[1] == stall_cycles`, because every
    /// instruction's wait is booked against exactly one pipe even when it
    /// hits several hazards at once.
    pub pipe_stalls: [u64; 2],
    /// Cycles attributed to each unit (issue overhead included).
    pub unit_cycles: BTreeMap<Unit, u64>,
    /// Instruction issues per mnemonic.
    pub issues: BTreeMap<&'static str, u64>,
    /// Enabled vector lanes summed over all vector repeat iterations.
    pub vector_useful_lanes: u64,
    /// Total vector lane slots (128 x repeats) over all vector
    /// instructions — the denominator of utilization.
    pub vector_total_lanes: u64,
    /// Bytes read from / written to global memory.
    pub gm_bytes: u64,
    /// Bytes moved between private buffers (including the Im2Col and
    /// Col2Im traffic).
    pub scratch_bytes: u64,
    /// Cycles this core's MTE streams were slowed by *other* cores
    /// drawing on the shared L2/HBM path (booked by the chip's
    /// [`crate::chip::MemoryModel`] after all cores join; always 0 under
    /// [`crate::chip::MemoryModel::Independent`] and on single-core
    /// runs). Unlike `stall_cycles` this is not an intra-core scoreboard
    /// wait: it extends the core's completion time past
    /// [`HwCounters::cycles`] without belonging to any one instruction.
    pub contention_stalls: u64,
    /// GM read lines this core drew from the shared L2 instead of HBM —
    /// another core had already fetched the line, so the read cost no
    /// HBM traffic (booked by the chip under
    /// [`crate::chip::MemoryModel::SharedBandwidthL2`] after all cores
    /// join; always 0 under the other memory models).
    pub l2_hits: u64,
    /// Contention stalls under the L2 memory model: the fair-share HBM
    /// stage applied to this core's *miss* traffic only (GM bytes minus
    /// the bytes its `l2_hits` lines served from cache). Booked like
    /// [`HwCounters::contention_stalls`] — which stays 0 under the L2
    /// model, so the two accountings never mix — and extends completion
    /// time past [`HwCounters::cycles`] the same way.
    pub l2_miss_stalls: u64,
    /// Auto-tuner mispredictions: the dispatched algorithm's *measured*
    /// cycles exceeded a certified lower bound of an alternative the
    /// tuner rejected — the predicted win could not be certified, and the
    /// doubt is surfaced here rather than silently dropped (a zero count
    /// *proves* the tuned run was no slower than any lowerable
    /// alternative; a nonzero count means an alternative's floor sits
    /// below the measured cycles, which casts doubt on the choice without
    /// necessarily meaning the alternative would actually have run
    /// faster). Booked by the engine after the run, like
    /// `contention_stalls`; always 0 when auto-tuning is off.
    pub tuner_mispredicted: u64,
    /// Auto-tuner fallbacks: the predicted winner could not be lowered
    /// (e.g. a batched fold that does not fit) and the engine ran the
    /// next-ranked algorithm instead — a typed, counted decline, not a
    /// silent substitution.
    pub tuner_fallbacks: u64,
    /// Implicit-im2col declines: the conv runner asked for the implicit
    /// (on-demand fractal expansion) lowering, it refused with a typed
    /// capacity error, and the run fell back to the materialised column
    /// path instead — booked post-run by the runner like
    /// `tuner_fallbacks`, never a silent wrong answer.
    pub implicit_declines: u64,
}

impl HwCounters {
    /// Record an instruction: its mnemonic, unit, and cycle charge.
    /// Advances the wall clock by the full charge — single-issue timing.
    pub fn record(&mut self, mnemonic: &'static str, unit: Unit, cycles: u64) {
        self.cycles += cycles;
        self.record_busy(mnemonic, unit, cycles);
    }

    /// Record an instruction's work without advancing the wall clock —
    /// the dual-pipe scheduler charges unit busy time here and sets
    /// [`HwCounters::cycles`] from the pipe makespan itself.
    pub fn record_busy(&mut self, mnemonic: &'static str, unit: Unit, cycles: u64) {
        *self.unit_cycles.entry(unit).or_default() += cycles;
        *self.issues.entry(mnemonic).or_default() += 1;
    }

    /// Total unit-busy cycles — the sum of per-instruction charges. In
    /// single-issue mode this equals [`HwCounters::cycles`]; in dual-pipe
    /// mode it is what the per-instruction trace durations sum to.
    pub fn busy_cycles(&self) -> u64 {
        self.unit_cycles.values().sum()
    }

    /// Record vector-lane activity.
    pub fn record_lanes(&mut self, useful: u64, total: u64) {
        self.vector_useful_lanes += useful;
        self.vector_total_lanes += total;
    }

    /// Vector-lane utilization in [0, 1] — the paper's first performance
    /// factor made measurable.
    pub fn vector_utilization(&self) -> f64 {
        if self.vector_total_lanes == 0 {
            0.0
        } else {
            self.vector_useful_lanes as f64 / self.vector_total_lanes as f64
        }
    }

    /// Total instruction issues.
    pub fn total_issues(&self) -> u64 {
        self.issues.values().sum()
    }

    /// Issues of one mnemonic.
    pub fn issues_of(&self, mnemonic: &str) -> u64 {
        self.issues.get(mnemonic).copied().unwrap_or(0)
    }

    /// Cycles attributed to one unit.
    pub fn cycles_of(&self, unit: Unit) -> u64 {
        self.unit_cycles.get(&unit).copied().unwrap_or(0)
    }

    /// Merge another counter set into this one (used when a logical
    /// operator runs as several tiled programs on one core).
    pub fn merge(&mut self, other: &HwCounters) {
        self.cycles += other.cycles;
        self.stall_cycles += other.stall_cycles;
        self.pipe_stalls[0] += other.pipe_stalls[0];
        self.pipe_stalls[1] += other.pipe_stalls[1];
        for (u, c) in &other.unit_cycles {
            *self.unit_cycles.entry(*u).or_default() += c;
        }
        for (m, c) in &other.issues {
            *self.issues.entry(m).or_default() += c;
        }
        self.vector_useful_lanes += other.vector_useful_lanes;
        self.vector_total_lanes += other.vector_total_lanes;
        self.gm_bytes += other.gm_bytes;
        self.scratch_bytes += other.scratch_bytes;
        self.contention_stalls += other.contention_stalls;
        self.l2_hits += other.l2_hits;
        self.l2_miss_stalls += other.l2_miss_stalls;
        self.tuner_mispredicted += other.tuner_mispredicted;
        self.tuner_fallbacks += other.tuner_fallbacks;
        self.implicit_declines += other.implicit_declines;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates() {
        let mut c = HwCounters::default();
        c.record("vmax", Unit::Vector, 10);
        c.record("vmax", Unit::Vector, 5);
        c.record("im2col", Unit::Scu, 7);
        assert_eq!(c.cycles, 22);
        assert_eq!(c.issues_of("vmax"), 2);
        assert_eq!(c.issues_of("im2col"), 1);
        assert_eq!(c.cycles_of(Unit::Vector), 15);
        assert_eq!(c.cycles_of(Unit::Scu), 7);
        assert_eq!(c.total_issues(), 3);
        assert_eq!(c.busy_cycles(), c.cycles);
    }

    #[test]
    fn record_busy_leaves_wall_clock_alone() {
        let mut c = HwCounters::default();
        c.record_busy("im2col", Unit::Scu, 40);
        c.record_busy("vmax", Unit::Vector, 17);
        assert_eq!(c.cycles, 0, "busy recording must not advance the clock");
        assert_eq!(c.busy_cycles(), 57);
        assert_eq!(c.issues_of("im2col"), 1);
        c.cycles = 40; // scheduler sets the makespan
        c.stall_cycles = 3;
        let mut merged = HwCounters::default();
        merged.merge(&c);
        merged.merge(&c);
        assert_eq!(merged.cycles, 80);
        assert_eq!(merged.stall_cycles, 6);
        assert_eq!(merged.busy_cycles(), 114);
    }

    #[test]
    fn utilization() {
        let mut c = HwCounters::default();
        assert_eq!(c.vector_utilization(), 0.0);
        c.record_lanes(16, 128);
        assert!((c.vector_utilization() - 0.125).abs() < 1e-12);
        c.record_lanes(128, 128);
        assert!((c.vector_utilization() - (144.0 / 256.0)).abs() < 1e-12);
    }

    #[test]
    fn merge_sums_everything() {
        let mut a = HwCounters::default();
        a.record("vadd", Unit::Vector, 3);
        a.record_lanes(16, 128);
        a.gm_bytes = 100;
        let mut b = HwCounters::default();
        b.record("vadd", Unit::Vector, 4);
        b.record("col2im", Unit::Vector, 9);
        b.record_lanes(128, 128);
        b.scratch_bytes = 50;
        b.contention_stalls = 9;
        b.l2_hits = 7;
        b.l2_miss_stalls = 5;
        b.tuner_mispredicted = 2;
        b.tuner_fallbacks = 1;
        b.implicit_declines = 3;
        a.merge(&b);
        assert_eq!(a.cycles, 16);
        assert_eq!(a.contention_stalls, 9);
        assert_eq!(a.l2_hits, 7);
        assert_eq!(a.l2_miss_stalls, 5);
        assert_eq!(a.tuner_mispredicted, 2);
        assert_eq!(a.tuner_fallbacks, 1);
        assert_eq!(a.implicit_declines, 3);
        assert_eq!(a.issues_of("vadd"), 2);
        assert_eq!(a.issues_of("col2im"), 1);
        assert_eq!(a.vector_total_lanes, 256);
        assert_eq!(a.gm_bytes, 100);
        assert_eq!(a.scratch_bytes, 50);
    }
}
