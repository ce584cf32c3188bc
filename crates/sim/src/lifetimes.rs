//! Buffer lifetime analysis: first-write/last-read live ranges.
//!
//! [`crate::buffers::BufferPeaks`] answers "how many bytes did a kernel
//! ever occupy"; this module answers *when* each byte span was alive. A
//! [`LiveRange`] opens at an instruction's write into a scratchpad span
//! and is extended by every later access that overlaps it; a fresh
//! (non-read-modify-write) store over the same bytes closes the old
//! range and opens a new one. The input is the same `ExecInfo`
//! read/write endpoints the dual-pipe scoreboard hazards on, so the
//! analysis costs nothing new at execution time and agrees with the
//! hazard model by construction.
//!
//! The payoff is the double-buffering diagnosis: with a single band slot
//! the trace shows one long range per region, reused back-to-back (every
//! band's load WAR-stalls on the previous band's reads); with ping-pong
//! (A/B) slots the ranges interleave across two offsets and the MTE load
//! of band `i + 1` overlaps the Vector reduction of band `i`. The Chrome
//! exporter renders each range as an async "live-range" slice per buffer
//! row ([`crate::trace::chrome_trace_json_with_lifetimes`]).
//!
//! Recording is gated with tracing ([`crate::trace::TraceConfig`]): an
//! untraced run pays nothing.

use crate::exec::{ExecInfo, MemSpan};
use dv_isa::BufferId;

/// One live range: a byte span in one scratchpad, from the cycle of its
/// producing write to the retirement of its last overlapping access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LiveRange {
    /// The scratchpad holding the span (never [`BufferId::Gm`]).
    pub buffer: BufferId,
    /// First byte of the span.
    pub start: usize,
    /// One past the last byte of the span.
    pub end: usize,
    /// Core-local cycle at which the producing write issued.
    pub first_write: u64,
    /// Core-local cycle at which the last overlapping access retired.
    pub last_use: u64,
    /// Version of the span: 0 for the first write into these bytes, then
    /// one more than the highest version the producing write killed — a
    /// count of the fresh overwrites the span has seen. Because a writer
    /// waits out every overlapping in-flight access (WAR/WAW), version
    /// `n + 1` of a span never opens before version `n` closes.
    pub version: u64,
}

impl LiveRange {
    /// Bytes covered by the span.
    pub fn bytes(&self) -> usize {
        self.end - self.start
    }

    /// Cycles the span was live.
    pub fn cycles(&self) -> u64 {
        self.last_use - self.first_write
    }
}

/// The live ranges observed on one AI Core, in order of `first_write`.
#[derive(Clone, Debug, Default)]
pub struct BufferLifetimes {
    /// Physical core id (filled in by the chip; 0 for a lone core).
    pub core: usize,
    /// All closed ranges, ordered by opening cycle.
    pub ranges: Vec<LiveRange>,
}

impl BufferLifetimes {
    /// Ranges living in one buffer.
    pub fn of(&self, buffer: BufferId) -> impl Iterator<Item = &LiveRange> {
        self.ranges.iter().filter(move |r| r.buffer == buffer)
    }

    /// The largest number of ranges of `buffer` simultaneously live at
    /// any cycle — 2 on a double-buffered region, 1 on a single slot.
    pub fn peak_overlap(&self, buffer: BufferId) -> usize {
        let mut edges: Vec<(u64, i32)> = Vec::new();
        for r in self.of(buffer) {
            edges.push((r.first_write, 1));
            edges.push((r.last_use, -1));
        }
        // Close before open at the same cycle: touching ranges (a reuse
        // of the same slot) do not count as overlapping.
        edges.sort_by_key(|&(t, d)| (t, d));
        let (mut live, mut peak) = (0i32, 0i32);
        for (_, d) in edges {
            live += d;
            peak = peak.max(live);
        }
        peak.max(0) as usize
    }
}

/// Accumulates live ranges as instructions execute. Owned by the core's
/// run loop; drained into a [`BufferLifetimes`] at collection time.
#[derive(Clone, Debug, Default)]
pub(crate) struct LifetimeRecorder {
    active: Vec<LiveRange>,
    closed: Vec<LiveRange>,
}

impl LifetimeRecorder {
    /// Record one executed instruction's accesses. `start`/`finish` are
    /// its issue and retirement cycles from the issue model in effect.
    pub fn record(&mut self, info: &ExecInfo, start: u64, finish: u64) {
        for r in info.reads.iter().flatten() {
            self.touch(r, finish);
        }
        let Some(w) = info.write else { return };
        if w.buffer == BufferId::Gm {
            return;
        }
        // A write that overlaps one of the same instruction's reads is a
        // read-modify-write (Col2Im scatters into its destination plane):
        // it extends the existing range instead of opening a new one.
        let rmw = info.reads.iter().flatten().any(|r| r.overlaps(&w));
        if rmw && self.active.iter().any(|a| spans_overlap(a, &w)) {
            self.touch(&w, finish);
            return;
        }
        // A fresh store kills whatever lived there and opens a new range
        // one version above the highest one it displaced.
        let mut version = 0;
        let mut i = 0;
        while i < self.active.len() {
            if spans_overlap(&self.active[i], &w) {
                version = version.max(self.active[i].version + 1);
                self.closed.push(self.active.swap_remove(i));
            } else {
                i += 1;
            }
        }
        self.active.push(LiveRange {
            buffer: w.buffer,
            start: w.start,
            end: w.end,
            first_write: start,
            last_use: finish,
            version,
        });
    }

    /// Extend every active range an access overlaps.
    fn touch(&mut self, span: &MemSpan, finish: u64) {
        if span.buffer == BufferId::Gm {
            return;
        }
        for a in &mut self.active {
            if spans_overlap(a, span) {
                a.last_use = a.last_use.max(finish);
            }
        }
    }

    /// Drain everything recorded so far into a [`BufferLifetimes`],
    /// leaving the recorder empty.
    pub fn take(&mut self) -> BufferLifetimes {
        let mut ranges = std::mem::take(&mut self.closed);
        ranges.append(&mut self.active);
        ranges.sort_by_key(|r| (r.first_write, r.buffer, r.start));
        BufferLifetimes { core: 0, ranges }
    }
}

fn spans_overlap(r: &LiveRange, s: &MemSpan) -> bool {
    r.buffer == s.buffer && r.start < s.end && s.start < r.end
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(buffer: BufferId, start: usize, end: usize) -> MemSpan {
        MemSpan { buffer, start, end }
    }

    fn info(reads: [Option<MemSpan>; 3], write: Option<MemSpan>) -> ExecInfo {
        ExecInfo {
            mnemonic: "test",
            unit: dv_isa::Unit::Vector,
            cycles: 0,
            repeat: 1,
            useful_lanes: 0,
            total_lanes: 0,
            src: None,
            dst: None,
            gm_bytes: 0,
            scratch_bytes: 0,
            reads,
            write,
        }
    }

    #[test]
    fn write_read_overwrite_produces_two_ranges() {
        let mut rec = LifetimeRecorder::default();
        let ub = |a, b| span(BufferId::Ub, a, b);
        // Write [0, 256) at cycle 0..10, read it at 10..20, overwrite at
        // 20..30, read again at 30..40.
        rec.record(&info([None; 3], Some(ub(0, 256))), 0, 10);
        rec.record(&info([Some(ub(0, 256)), None, None], None), 10, 20);
        rec.record(&info([None; 3], Some(ub(0, 256))), 20, 30);
        rec.record(&info([Some(ub(0, 256)), None, None], None), 30, 40);
        let lt = rec.take();
        assert_eq!(lt.ranges.len(), 2);
        assert_eq!((lt.ranges[0].first_write, lt.ranges[0].last_use), (0, 20));
        assert_eq!((lt.ranges[1].first_write, lt.ranges[1].last_use), (20, 40));
        assert_eq!(lt.peak_overlap(BufferId::Ub), 1);
        assert_eq!(
            (lt.ranges[0].version, lt.ranges[1].version),
            (0, 1),
            "an overwrite opens the next version of the span"
        );
    }

    #[test]
    fn rmw_extends_instead_of_killing() {
        let mut rec = LifetimeRecorder::default();
        let ub = |a, b| span(BufferId::Ub, a, b);
        rec.record(&info([None; 3], Some(ub(0, 512))), 0, 10);
        // Col2Im-style RMW: reads source and destination plane, writes
        // the destination plane.
        rec.record(
            &info(
                [Some(ub(1024, 1536)), Some(ub(0, 512)), None],
                Some(ub(0, 512)),
            ),
            10,
            30,
        );
        let lt = rec.take();
        let dst: Vec<_> = lt.of(BufferId::Ub).filter(|r| r.start == 0).collect();
        assert_eq!(dst.len(), 1, "RMW must not split the destination range");
        assert_eq!((dst[0].first_write, dst[0].last_use), (0, 30));
    }

    #[test]
    fn gm_spans_are_ignored() {
        let mut rec = LifetimeRecorder::default();
        rec.record(&info([None; 3], Some(span(BufferId::Gm, 0, 256))), 0, 10);
        assert!(rec.take().ranges.is_empty());
    }

    #[test]
    fn ping_pong_slots_overlap_in_time() {
        let mut rec = LifetimeRecorder::default();
        let ub = |a, b| span(BufferId::Ub, a, b);
        // Slot A live 0..30, slot B live 10..50, next band back in A.
        rec.record(&info([None; 3], Some(ub(0, 256))), 0, 10);
        rec.record(&info([None; 3], Some(ub(256, 512))), 10, 20);
        rec.record(&info([Some(ub(0, 256)), None, None], None), 20, 30);
        rec.record(&info([Some(ub(256, 512)), None, None], None), 40, 50);
        rec.record(&info([None; 3], Some(ub(0, 256))), 35, 45);
        let lt = rec.take();
        assert_eq!(lt.ranges.len(), 3);
        assert_eq!(lt.peak_overlap(BufferId::Ub), 2);
    }
}
