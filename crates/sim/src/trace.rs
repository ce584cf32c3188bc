//! Instruction-level execution tracing.
//!
//! The paper's speedup claims rest on *where* cycles go — issue overhead
//! vs. repeat iterations, Vector Unit vs. SCU vs. MTE. [`Trace`] records
//! one [`TraceEvent`] per executed instruction (mnemonic, unit, issue
//! cycle, duration, repeat count, lane usage, buffer endpoints and bytes
//! moved), gated behind [`TraceConfig`] so an untraced run pays only a
//! branch per instruction. Two consumers are built in:
//!
//! * [`chrome_trace_json`] — export to the Chrome trace-event format,
//!   loadable in `chrome://tracing` or <https://ui.perfetto.dev> (one
//!   process per AI Core, one thread row per functional unit, and a flow
//!   arrow from each producer to the consumer it stalled — the paper's
//!   Fig. 4 pipeline view);
//! * [`Breakdown`] — a per-(unit, mnemonic) cycle/issue/stall/lane/byte
//!   aggregation, rendered as an aligned text report.
//!
//! Invariant (asserted by the end-to-end tests): the sum of all traced
//! durations equals [`HwCounters::busy_cycles`] for the same execution —
//! and equals [`HwCounters::cycles`] under the single-issue model, where
//! nothing overlaps.

use crate::counters::{HwCounters, Unit};
use crate::lifetimes::BufferLifetimes;
use dv_isa::BufferId;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Tracing configuration for a core or chip run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceConfig {
    /// Record per-instruction events. Off by default: the recorder is a
    /// single predictable branch per instruction when disabled.
    pub enabled: bool,
    /// Optional cap on recorded events per core (0 = unlimited). When the
    /// cap is hit, further events are counted in [`Trace::dropped`] but
    /// not stored — cycle sums remain exact via the counters.
    pub max_events_per_core: usize,
}

impl TraceConfig {
    /// Tracing disabled (the default).
    pub const OFF: TraceConfig = TraceConfig {
        enabled: false,
        max_events_per_core: 0,
    };

    /// Tracing enabled, unbounded.
    pub const ON: TraceConfig = TraceConfig {
        enabled: true,
        max_events_per_core: 0,
    };

    /// Tracing enabled with a per-core event cap.
    pub const fn capped(max_events_per_core: usize) -> TraceConfig {
        TraceConfig {
            enabled: true,
            max_events_per_core,
        }
    }
}

/// One executed instruction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Index of the instruction in its program.
    pub pc: usize,
    /// Index of the program within the core's work list.
    pub program: usize,
    /// Stable mnemonic (see `dv_isa::Instr::mnemonic`).
    pub mnemonic: &'static str,
    /// Functional unit that executed the instruction.
    pub unit: Unit,
    /// Core-local cycle at which the instruction issued.
    pub start: u64,
    /// Cycles charged (issue overhead + iteration cost).
    pub cycles: u64,
    /// Cycles the instruction waited on its issue pipe for a scoreboard
    /// hazard to clear (always 0 under the single-issue model).
    pub stall: u64,
    /// Trace-event index of the latest program-order writer of any byte
    /// this instruction reads (RAW) — the source of the Chrome-trace
    /// flow arrow. Derived from program order, not issue timing, so
    /// WAR/WAW waits never add an arrow. `None` under the single-issue
    /// model.
    pub dep: Option<usize>,
    /// Hardware repeat count (1 for non-repeating instructions).
    pub repeat: u32,
    /// Enabled vector lanes summed over repeats (0 for non-vector).
    pub useful_lanes: u64,
    /// Total lane slots over repeats (0 for non-vector).
    pub total_lanes: u64,
    /// Source buffer, when the instruction reads one.
    pub src: Option<BufferId>,
    /// Destination buffer, when the instruction writes one.
    pub dst: Option<BufferId>,
    /// Bytes of data traffic the instruction caused.
    pub bytes: u64,
}

/// The recorded execution of one AI Core.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Physical core id (filled in by the chip; 0 for a lone core).
    pub core: usize,
    /// Events in execution order.
    pub events: Vec<TraceEvent>,
    /// Events not stored because `max_events_per_core` was reached.
    pub dropped: u64,
    /// Extra completion cycles the chip's memory model booked against
    /// this core for shared L2/HBM contention (always 0 under
    /// [`MemoryModel::Independent`](crate::chip::MemoryModel) and for a
    /// lone core's own trace). Not part of any event: contention
    /// stretches the core's completion time without belonging to one
    /// instruction, so it rides on the trace itself and shows up in the
    /// Chrome export as a trailing `gm-contention` slice on the MTE row.
    pub contention: u64,
    /// Extra completion cycles booked for HBM contention on this core's
    /// L2 *misses* under
    /// [`MemoryModel::SharedBandwidthL2`](crate::chip::MemoryModel) —
    /// the L2-model twin of [`Trace::contention`] (which stays 0 under
    /// that model). Rides on the trace the same way and shows up in the
    /// Chrome export as a trailing `l2-miss-stalls` slice on the MTE
    /// row.
    pub l2_stalls: u64,
}

impl Trace {
    /// Sum of all recorded durations (equals `HwCounters::cycles` when no
    /// events were dropped).
    pub fn total_cycles(&self) -> u64 {
        self.events.iter().map(|e| e.cycles).sum()
    }

    /// Record an event, honouring the configured cap.
    pub(crate) fn push(&mut self, cfg: &TraceConfig, event: TraceEvent) {
        if cfg.max_events_per_core != 0 && self.events.len() >= cfg.max_events_per_core {
            self.dropped += 1;
        } else {
            self.events.push(event);
        }
    }
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn unit_tid(unit: Unit) -> usize {
    match unit {
        Unit::Vector => 0,
        Unit::Scu => 1,
        Unit::Mte => 2,
        Unit::Cube => 3,
    }
}

/// Thread row hosting a buffer's live-range slices (instruction rows use
/// the unit tids 0–3).
fn buffer_tid(buffer: BufferId) -> usize {
    10 + match buffer {
        BufferId::Gm => 0,
        BufferId::L1 => 1,
        BufferId::L0A => 2,
        BufferId::L0B => 3,
        BufferId::L0C => 4,
        BufferId::Ub => 5,
    }
}

/// Export traces (one per core) as Chrome trace-event JSON.
///
/// Open the resulting file in `chrome://tracing` or
/// <https://ui.perfetto.dev>: each AI Core appears as a process, each
/// functional unit as a thread row, each instruction as a complete (`X`)
/// event whose duration is its simulated cycle count (1 cycle = 1 µs of
/// trace time). Cross-unit RAW dependencies (recorded by the dual-pipe
/// scoreboard in [`TraceEvent::dep`]) additionally emit flow (`s`/`f`)
/// arrows from the producer's retirement to the consumer's issue — e.g.
/// from an `mte_move` load to the `vmax` that computes on it, the
/// pipeline picture of the paper's Fig. 4.
pub fn chrome_trace_json(traces: &[Trace]) -> String {
    chrome_trace_json_with_lifetimes(traces, &[])
}

/// [`chrome_trace_json`] plus buffer live ranges: each
/// [`crate::lifetimes::LiveRange`] becomes an async (`b`/`e`) slice pair
/// with category `live-range` on a per-buffer thread row of its core's
/// process. A double-buffered kernel shows two interleaved slice chains
/// per region (slot A and slot B overlapping in time); a single-buffered
/// one shows back-to-back reuse of one offset.
pub fn chrome_trace_json_with_lifetimes(traces: &[Trace], lifetimes: &[BufferLifetimes]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let mut flow_id = 0usize;
    let mut push = |out: &mut String, ev: String| {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
        out.push_str(&ev);
    };
    for t in traces {
        push(
            &mut out,
            format!(
                "{{\"ph\":\"M\",\"pid\":{},\"name\":\"process_name\",\
                 \"args\":{{\"name\":\"AI Core {}\"}}}}",
                t.core, t.core
            ),
        );
        for unit in Unit::ALL {
            push(
                &mut out,
                format!(
                    "{{\"ph\":\"M\",\"pid\":{},\"tid\":{},\"name\":\"thread_name\",\
                     \"args\":{{\"name\":\"{}\"}}}}",
                    t.core,
                    unit_tid(unit),
                    escape_json(unit.name())
                ),
            );
        }
        for e in &t.events {
            let mut args = format!(
                "\"pc\":{},\"program\":{},\"repeat\":{},\"bytes\":{}",
                e.pc, e.program, e.repeat, e.bytes
            );
            if e.stall > 0 {
                let _ = write!(args, ",\"stall\":{}", e.stall);
            }
            if e.total_lanes > 0 {
                let _ = write!(
                    args,
                    ",\"useful_lanes\":{},\"total_lanes\":{}",
                    e.useful_lanes, e.total_lanes
                );
            }
            if let Some(src) = e.src {
                let _ = write!(args, ",\"src\":\"{src}\"");
            }
            if let Some(dst) = e.dst {
                let _ = write!(args, ",\"dst\":\"{dst}\"");
            }
            push(
                &mut out,
                format!(
                    "{{\"ph\":\"X\",\"pid\":{},\"tid\":{},\"name\":\"{}\",\
                     \"cat\":\"{}\",\"ts\":{},\"dur\":{},\"args\":{{{args}}}}}",
                    t.core,
                    unit_tid(e.unit),
                    escape_json(e.mnemonic),
                    escape_json(e.unit.name()),
                    e.start,
                    e.cycles
                ),
            );
        }
        // Flow arrows for cross-unit RAW dependencies: from the producer's
        // retirement on its unit row to the consumer's issue on its own.
        // Same-unit dependencies are implicit in the row's ordering, so
        // arrows are reserved for the inter-pipe handoffs (move -> vector
        // op) that the dual-pipe model exists to expose.
        for e in &t.events {
            let Some(seq) = e.dep else { continue };
            let Some(p) = t.events.get(seq) else { continue };
            if p.unit == e.unit {
                continue;
            }
            push(
                &mut out,
                format!(
                    "{{\"ph\":\"s\",\"pid\":{},\"tid\":{},\"name\":\"dep\",\
                     \"cat\":\"flow\",\"id\":{},\"ts\":{}}}",
                    t.core,
                    unit_tid(p.unit),
                    flow_id,
                    p.start + p.cycles
                ),
            );
            push(
                &mut out,
                format!(
                    "{{\"ph\":\"f\",\"bp\":\"e\",\"pid\":{},\"tid\":{},\"name\":\"dep\",\
                     \"cat\":\"flow\",\"id\":{},\"ts\":{}}}",
                    t.core,
                    unit_tid(e.unit),
                    flow_id,
                    e.start
                ),
            );
            flow_id += 1;
        }
        // Shared-memory contention: one slice on the MTE row starting
        // where the core's own work ends — the completion-time stretch
        // the chip's memory model booked against this core.
        if t.contention > 0 {
            let ts = t
                .events
                .iter()
                .map(|e| e.start + e.cycles)
                .max()
                .unwrap_or(0);
            push(
                &mut out,
                format!(
                    "{{\"ph\":\"X\",\"pid\":{},\"tid\":{},\"name\":\"gm-contention\",\
                     \"cat\":\"contention\",\"ts\":{},\"dur\":{},\"args\":{{}}}}",
                    t.core,
                    unit_tid(Unit::Mte),
                    ts,
                    t.contention
                ),
            );
        }
        // L2-model twin: the HBM stall on this core's miss traffic.
        if t.l2_stalls > 0 {
            let ts = t
                .events
                .iter()
                .map(|e| e.start + e.cycles)
                .max()
                .unwrap_or(0);
            push(
                &mut out,
                format!(
                    "{{\"ph\":\"X\",\"pid\":{},\"tid\":{},\"name\":\"l2-miss-stalls\",\
                     \"cat\":\"contention\",\"ts\":{},\"dur\":{},\"args\":{{}}}}",
                    t.core,
                    unit_tid(Unit::Mte),
                    ts,
                    t.l2_stalls
                ),
            );
        }
    }
    // Buffer live ranges: async slice pairs on one thread row per
    // buffer, under the owning core's process.
    let mut range_id = 0usize;
    for lt in lifetimes {
        let mut named = [false; 6];
        for r in &lt.ranges {
            let tid = buffer_tid(r.buffer);
            if !std::mem::replace(&mut named[tid - 10], true) {
                push(
                    &mut out,
                    format!(
                        "{{\"ph\":\"M\",\"pid\":{},\"tid\":{},\"name\":\"thread_name\",\
                         \"args\":{{\"name\":\"{} live ranges\"}}}}",
                        lt.core, tid, r.buffer
                    ),
                );
            }
            push(
                &mut out,
                format!(
                    "{{\"ph\":\"b\",\"cat\":\"live-range\",\"id\":{},\"pid\":{},\"tid\":{},\
                     \"name\":\"{} [{}..{})\",\"ts\":{},\
                     \"args\":{{\"bytes\":{},\"version\":{}}}}}",
                    range_id,
                    lt.core,
                    tid,
                    r.buffer,
                    r.start,
                    r.end,
                    r.first_write,
                    r.bytes(),
                    r.version
                ),
            );
            push(
                &mut out,
                format!(
                    "{{\"ph\":\"e\",\"cat\":\"live-range\",\"id\":{},\"pid\":{},\"tid\":{},\
                     \"name\":\"{} [{}..{})\",\"ts\":{}}}",
                    range_id, lt.core, tid, r.buffer, r.start, r.end, r.last_use
                ),
            );
            range_id += 1;
        }
    }
    out.push_str("]}");
    out
}

/// One row of the per-unit/per-mnemonic breakdown.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BreakdownRow {
    /// Functional unit.
    pub unit: Unit,
    /// Instruction mnemonic.
    pub mnemonic: &'static str,
    /// Number of issues.
    pub issues: u64,
    /// Total cycles charged.
    pub cycles: u64,
    /// Total cycles stalled on scoreboard hazards before issue.
    pub stalls: u64,
    /// Total hardware repeats.
    pub repeats: u64,
    /// Enabled vector lanes (0 for non-vector rows).
    pub useful_lanes: u64,
    /// Lane slots (0 for non-vector rows).
    pub total_lanes: u64,
    /// Bytes of data traffic.
    pub bytes: u64,
}

impl BreakdownRow {
    /// Lane utilization in `[0, 1]`, or `None` for non-vector rows.
    pub fn utilization(&self) -> Option<f64> {
        (self.total_lanes > 0).then(|| self.useful_lanes as f64 / self.total_lanes as f64)
    }
}

/// Per-(unit, mnemonic) aggregation of one or more traces — the roofline
/// view: which unit burned the cycles and how well its lanes were used.
#[derive(Clone, Debug, Default)]
pub struct Breakdown {
    /// Aggregated rows, keyed and sorted by `(unit, mnemonic)`.
    pub rows: Vec<BreakdownRow>,
    /// Shared-memory contention stalls summed over all traced cores
    /// ([`Trace::contention`]) — kept outside the rows because contention
    /// belongs to no instruction, but checked by
    /// [`Breakdown::verify_against`] so the books still balance.
    pub contention_stalls: u64,
    /// L2-miss HBM stalls summed over all traced cores
    /// ([`Trace::l2_stalls`]) — the shared-L2 model's counterpart of
    /// `contention_stalls`, kept outside the rows and balanced against
    /// the counters the same way.
    pub l2_miss_stalls: u64,
}

impl Breakdown {
    /// Aggregate over traces (typically: all cores of one chip run).
    pub fn from_traces<'a>(traces: impl IntoIterator<Item = &'a Trace>) -> Breakdown {
        let mut map: BTreeMap<(Unit, &'static str), BreakdownRow> = BTreeMap::new();
        let mut contention_stalls = 0u64;
        let mut l2_miss_stalls = 0u64;
        for t in traces {
            contention_stalls += t.contention;
            l2_miss_stalls += t.l2_stalls;
            for e in &t.events {
                let row = map.entry((e.unit, e.mnemonic)).or_insert(BreakdownRow {
                    unit: e.unit,
                    mnemonic: e.mnemonic,
                    issues: 0,
                    cycles: 0,
                    stalls: 0,
                    repeats: 0,
                    useful_lanes: 0,
                    total_lanes: 0,
                    bytes: 0,
                });
                row.issues += 1;
                row.cycles += e.cycles;
                row.stalls += e.stall;
                row.repeats += e.repeat as u64;
                row.useful_lanes += e.useful_lanes;
                row.total_lanes += e.total_lanes;
                row.bytes += e.bytes;
            }
        }
        Breakdown {
            rows: map.into_values().collect(),
            contention_stalls,
            l2_miss_stalls,
        }
    }

    /// Total cycles across all rows.
    pub fn total_cycles(&self) -> u64 {
        self.rows.iter().map(|r| r.cycles).sum()
    }

    /// Total stall cycles across all rows.
    pub fn total_stalls(&self) -> u64 {
        self.rows.iter().map(|r| r.stalls).sum()
    }

    /// Cycles attributed to one unit.
    pub fn unit_cycles(&self, unit: Unit) -> u64 {
        self.rows
            .iter()
            .filter(|r| r.unit == unit)
            .map(|r| r.cycles)
            .sum()
    }

    /// Render as an aligned text table, most expensive row first.
    pub fn render(&self) -> String {
        let mut rows = self.rows.clone();
        rows.sort_by_key(|r| std::cmp::Reverse(r.cycles));
        let total = self.total_cycles().max(1);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<8} {:<12} {:>10} {:>12} {:>8} {:>8} {:>12} {:>7} {:>6}",
            "unit", "mnemonic", "issues", "cycles", "cyc%", "stall%", "bytes", "repeat", "lane%"
        );
        for r in &rows {
            let lane = r
                .utilization()
                .map(|u| format!("{:.1}", 100.0 * u))
                .unwrap_or_else(|| "-".to_string());
            let _ = writeln!(
                out,
                "{:<8} {:<12} {:>10} {:>12} {:>7.1}% {:>7.1}% {:>12} {:>7} {:>6}",
                r.unit.name(),
                r.mnemonic,
                r.issues,
                r.cycles,
                100.0 * r.cycles as f64 / total as f64,
                100.0 * r.stalls as f64 / total as f64,
                r.bytes,
                r.repeats,
                lane
            );
        }
        let _ = writeln!(
            out,
            "total cycles: {} (stalled: {})",
            self.total_cycles(),
            self.total_stalls()
        );
        if self.contention_stalls > 0 {
            let _ = writeln!(out, "gm contention stalls: {}", self.contention_stalls);
        }
        if self.l2_miss_stalls > 0 {
            let _ = writeln!(out, "l2 miss stalls: {}", self.l2_miss_stalls);
        }
        out
    }

    /// Cross-check against hardware counters: every mnemonic's issue
    /// count and every unit's cycle total must match. Returns the first
    /// discrepancy found. Durations are compared against
    /// [`HwCounters::busy_cycles`]: under the dual-pipe model the wall
    /// clock is a makespan, but per-instruction charges still sum to the
    /// unit-busy total in both issue models.
    pub fn verify_against(&self, counters: &HwCounters) -> Result<(), String> {
        if self.total_cycles() != counters.busy_cycles() {
            return Err(format!(
                "trace cycles {} != counter busy cycles {}",
                self.total_cycles(),
                counters.busy_cycles()
            ));
        }
        if self.total_stalls() != counters.stall_cycles {
            return Err(format!(
                "trace stalls {} != counter stall cycles {}",
                self.total_stalls(),
                counters.stall_cycles
            ));
        }
        for unit in Unit::ALL {
            if self.unit_cycles(unit) != counters.cycles_of(unit) {
                return Err(format!(
                    "unit {} trace cycles {} != counter cycles {}",
                    unit,
                    self.unit_cycles(unit),
                    counters.cycles_of(unit)
                ));
            }
        }
        for r in &self.rows {
            if r.issues != counters.issues_of(r.mnemonic) {
                return Err(format!(
                    "mnemonic {} trace issues {} != counter issues {}",
                    r.mnemonic,
                    r.issues,
                    counters.issues_of(r.mnemonic)
                ));
            }
        }
        if self.contention_stalls != counters.contention_stalls {
            return Err(format!(
                "trace contention stalls {} != counter contention stalls {}",
                self.contention_stalls, counters.contention_stalls
            ));
        }
        if self.l2_miss_stalls != counters.l2_miss_stalls {
            return Err(format!(
                "trace l2 miss stalls {} != counter l2 miss stalls {}",
                self.l2_miss_stalls, counters.l2_miss_stalls
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(mnemonic: &'static str, unit: Unit, start: u64, cycles: u64) -> TraceEvent {
        TraceEvent {
            pc: 0,
            program: 0,
            mnemonic,
            unit,
            start,
            cycles,
            stall: 0,
            dep: None,
            repeat: 1,
            useful_lanes: 0,
            total_lanes: 0,
            src: None,
            dst: None,
            bytes: 0,
        }
    }

    #[test]
    fn breakdown_aggregates_and_sums() {
        let t = Trace {
            core: 0,
            events: vec![
                ev("vmax", Unit::Vector, 0, 17),
                ev("vmax", Unit::Vector, 17, 17),
                ev("mte_move", Unit::Mte, 34, 20),
            ],
            dropped: 0,
            contention: 0,
            l2_stalls: 0,
        };
        let b = Breakdown::from_traces([&t]);
        assert_eq!(b.rows.len(), 2);
        assert_eq!(b.total_cycles(), 54);
        assert_eq!(b.unit_cycles(Unit::Vector), 34);
        assert_eq!(b.unit_cycles(Unit::Mte), 20);
        let vmax = b.rows.iter().find(|r| r.mnemonic == "vmax").unwrap();
        assert_eq!(vmax.issues, 2);
        let rendered = b.render();
        assert!(rendered.contains("vmax"));
        assert!(rendered.contains("total cycles: 54"));
    }

    #[test]
    fn verify_against_counters() {
        let t = Trace {
            core: 0,
            events: vec![ev("vadd", Unit::Vector, 0, 10)],
            dropped: 0,
            contention: 0,
            l2_stalls: 0,
        };
        let mut c = HwCounters::default();
        c.record("vadd", Unit::Vector, 10);
        assert_eq!(Breakdown::from_traces([&t]).verify_against(&c), Ok(()));
        c.record("vadd", Unit::Vector, 1);
        assert!(Breakdown::from_traces([&t]).verify_against(&c).is_err());
    }

    #[test]
    fn chrome_json_contains_events_and_metadata() {
        let t = Trace {
            core: 3,
            events: vec![ev("im2col", Unit::Scu, 5, 36)],
            dropped: 0,
            contention: 0,
            l2_stalls: 0,
        };
        let json = chrome_trace_json(&[t]);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"name\":\"im2col\""));
        assert!(json.contains("\"ts\":5"));
        assert!(json.contains("\"dur\":36"));
        assert!(json.contains("AI Core 3"));
    }

    #[test]
    fn chrome_json_emits_flow_arrows_for_cross_unit_deps() {
        let producer = ev("mte_move", Unit::Mte, 0, 20);
        let mut consumer = ev("vmax", Unit::Vector, 20, 17);
        consumer.stall = 20;
        consumer.dep = Some(0);
        // Same-unit dependency: implicit in row order, no arrow.
        let mut chained = ev("vadd", Unit::Vector, 37, 17);
        chained.dep = Some(1);
        let t = Trace {
            core: 0,
            events: vec![producer, consumer, chained],
            dropped: 0,
            contention: 0,
            l2_stalls: 0,
        };
        let json = chrome_trace_json(&[t]);
        assert!(json.contains("\"stall\":20"));
        assert_eq!(json.matches("\"ph\":\"s\"").count(), 1);
        assert_eq!(json.matches("\"ph\":\"f\"").count(), 1);
        // Arrow leaves the move at its retirement and lands on the vmax
        // at its issue cycle.
        assert!(json.contains(
            "\"ph\":\"s\",\"pid\":0,\"tid\":2,\"name\":\"dep\",\"cat\":\"flow\",\"id\":0,\"ts\":20"
        ));
        assert!(json.contains("\"ph\":\"f\",\"bp\":\"e\",\"pid\":0,\"tid\":0,\"name\":\"dep\",\"cat\":\"flow\",\"id\":0,\"ts\":20"));
    }

    #[test]
    fn chrome_json_emits_live_range_slices() {
        use crate::lifetimes::LiveRange;
        let lt = BufferLifetimes {
            core: 1,
            ranges: vec![
                LiveRange {
                    buffer: BufferId::Ub,
                    start: 0,
                    end: 256,
                    first_write: 5,
                    last_use: 40,
                    version: 0,
                },
                LiveRange {
                    buffer: BufferId::Ub,
                    start: 256,
                    end: 512,
                    first_write: 20,
                    last_use: 60,
                    version: 3,
                },
            ],
        };
        let json = chrome_trace_json_with_lifetimes(&[], &[lt]);
        // One thread-name row for the UB, one b/e pair per range.
        assert_eq!(json.matches("\"name\":\"UB live ranges\"").count(), 1);
        assert_eq!(json.matches("\"ph\":\"b\"").count(), 2);
        assert_eq!(json.matches("\"ph\":\"e\"").count(), 2);
        assert!(json.contains(
            "{\"ph\":\"b\",\"cat\":\"live-range\",\"id\":0,\"pid\":1,\"tid\":15,\
             \"name\":\"UB [0..256)\",\"ts\":5,\"args\":{\"bytes\":256,\"version\":0}}"
        ));
        assert!(
            json.contains("\"args\":{\"bytes\":256,\"version\":3}"),
            "the span's version rides along in the slice args"
        );
        assert!(json.contains(
            "{\"ph\":\"e\",\"cat\":\"live-range\",\"id\":1,\"pid\":1,\"tid\":15,\
             \"name\":\"UB [256..512)\",\"ts\":60}"
        ));
        // Plain export of the same traces carries no live-range events.
        assert!(!chrome_trace_json(&[]).contains("live-range"));
    }

    #[test]
    fn breakdown_tracks_stalls_and_render_shows_them() {
        let mut a = ev("vmax", Unit::Vector, 0, 10);
        a.stall = 4;
        let b = ev("vmax", Unit::Vector, 10, 10);
        let t = Trace {
            core: 0,
            events: vec![a, b],
            dropped: 0,
            contention: 0,
            l2_stalls: 0,
        };
        let bd = Breakdown::from_traces([&t]);
        assert_eq!(bd.total_stalls(), 4);
        let rendered = bd.render();
        assert!(rendered.contains("stall%"));
        assert!(rendered.contains("(stalled: 4)"));

        let mut c = HwCounters::default();
        c.record("vmax", Unit::Vector, 10);
        c.record("vmax", Unit::Vector, 10);
        assert!(bd.verify_against(&c).is_err(), "stall mismatch detected");
        c.stall_cycles = 4;
        assert_eq!(bd.verify_against(&c), Ok(()));
    }

    #[test]
    fn contention_rides_through_breakdown_and_chrome_export() {
        let t = Trace {
            core: 2,
            events: vec![ev("mte_move", Unit::Mte, 0, 20)],
            dropped: 0,
            contention: 77,
            l2_stalls: 0,
        };
        let bd = Breakdown::from_traces([&t]);
        assert_eq!(bd.contention_stalls, 77);
        assert!(bd.render().contains("gm contention stalls: 77"));

        // The books must balance: counters missing the booked stall fail
        // verification, matching counters pass.
        let mut c = HwCounters::default();
        c.record("mte_move", Unit::Mte, 20);
        assert!(bd.verify_against(&c).is_err(), "unbalanced contention");
        c.contention_stalls = 77;
        assert_eq!(bd.verify_against(&c), Ok(()));

        // Chrome export: one gm-contention slice on the MTE row, starting
        // where the core's own work ends.
        let json = chrome_trace_json(&[t]);
        assert!(json.contains(
            "{\"ph\":\"X\",\"pid\":2,\"tid\":2,\"name\":\"gm-contention\",\
             \"cat\":\"contention\",\"ts\":20,\"dur\":77,\"args\":{}}"
        ));
        // A contention-free trace carries no such slice.
        let quiet = Trace {
            core: 0,
            events: vec![ev("vadd", Unit::Vector, 0, 5)],
            dropped: 0,
            contention: 0,
            l2_stalls: 0,
        };
        assert!(!chrome_trace_json(&[quiet]).contains("gm-contention"));
    }

    #[test]
    fn render_survives_empty_and_zero_cycle_breakdowns() {
        // No traces at all: the percentage columns must not divide by the
        // zero cycle total.
        let empty = Breakdown::from_traces([]);
        let rendered = empty.render();
        assert!(!rendered.contains("NaN"), "empty render: {rendered}");
        assert!(rendered.contains("total cycles: 0"));

        // Rows exist but every charge is zero cycles — same hazard.
        let t = Trace {
            core: 0,
            events: vec![ev("vmax", Unit::Vector, 0, 0)],
            dropped: 0,
            contention: 0,
            l2_stalls: 0,
        };
        let zero = Breakdown::from_traces([&t]);
        assert_eq!(zero.total_cycles(), 0);
        let rendered = zero.render();
        assert!(!rendered.contains("NaN"), "zero-cycle render: {rendered}");
        assert!(rendered.contains("vmax"));
        assert!(rendered.contains("0.0%"));
    }

    #[test]
    fn cap_drops_but_counts() {
        let cfg = TraceConfig::capped(1);
        let mut t = Trace::default();
        t.push(&cfg, ev("a", Unit::Mte, 0, 1));
        t.push(&cfg, ev("b", Unit::Mte, 1, 1));
        assert_eq!(t.events.len(), 1);
        assert_eq!(t.dropped, 1);
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape_json("a\"b\\c\n"), "a\\\"b\\\\c\\u000a");
    }
}
