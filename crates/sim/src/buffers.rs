//! The AI Core's scratch-pad memories.
//!
//! Each buffer is a fixed-capacity byte array with its own address space
//! (paper, Section III-A: scratch-pads need no tags or coherence, but the
//! program must manage placement and consistency explicitly). Out-of-range
//! accesses are hard errors — the "failure injection" surface of the test
//! suite.
//!
//! Element conventions: every buffer holds f16 elements **except L0C**,
//! which holds f32 accumulators (systolic matrix units accumulate f16
//! products at full precision; the precision drop to f16 happens on the
//! L0C -> UB drain path, as on real hardware).

use core::fmt;
use dv_fp16::F16;
use dv_isa::BufferId;

use crate::cost::Capacities;
use crate::gm::{GmPages, GmView, LentGm};

/// Simulation errors.
#[derive(Clone, Debug, PartialEq)]
pub enum SimError {
    /// Access outside a buffer's capacity.
    OutOfBounds {
        /// buffer accessed
        buffer: BufferId,
        /// starting byte offset
        offset: usize,
        /// access length in bytes
        len: usize,
        /// the buffer's capacity
        capacity: usize,
    },
    /// f16 accesses must be 2-byte aligned; f32 (L0C) 4-byte aligned.
    Misaligned {
        /// buffer accessed
        buffer: BufferId,
        /// offending byte offset
        offset: usize,
        /// required alignment
        align: usize,
    },
    /// Instruction-level validation failure.
    Isa(dv_isa::IsaError),
    /// An element-typed access hit the wrong buffer (e.g. f16 read of
    /// L0C).
    WrongElementType {
        /// buffer accessed
        buffer: BufferId,
        /// what the access expected
        expected: &'static str,
    },
    /// Two programs of one chip run declared overlapping GM write
    /// ranges — a lowering bug (shards must partition the output), caught
    /// before any core executes.
    GmOverlap {
        /// first program index
        prog_a: usize,
        /// its overlapping byte range `[start, end)`
        range_a: (usize, usize),
        /// second program index
        prog_b: usize,
        /// its overlapping byte range `[start, end)`
        range_b: (usize, usize),
    },
    /// A program's *executed* GM writes (observed from the instruction
    /// stream's `ExecInfo` endpoints) fell outside the ranges its static
    /// scan declared — the merge-back would silently drop the bytes, so
    /// the run fails instead.
    UndeclaredGmWrite {
        /// offending program index
        program: usize,
        /// observed write span `[start, end)` in GM bytes
        observed: (usize, usize),
    },
    /// A halo span in a program's GM declaration reaches outside global
    /// memory — either its staged source strip or its scattered merge
    /// destination. Caught before any core executes, like
    /// [`SimError::GmOverlap`].
    HaloOutOfBounds {
        /// offending program index
        program: usize,
        /// which end of the span is out of range: "src" or "dst"
        end: &'static str,
        /// the offending byte span `[start, end)`
        span: (usize, usize),
        /// global-memory capacity in bytes
        capacity: usize,
    },
    /// A halo span's geometry is malformed (zero-length blocks, odd
    /// `block_bytes` for f16 data, or a stride shorter than the block it
    /// steps over, which would self-overlap the scatter) — a lowering
    /// bug, rejected before any core executes.
    HaloMalformed {
        /// offending program index
        program: usize,
        /// what is wrong with it
        reason: &'static str,
    },
    /// A region lent to a run's GM ([`crate::LentGm`]) overlaps one lent
    /// before it.
    GmRegionOverlap {
        /// the region already lent, `[start, end)`
        lent: (usize, usize),
        /// the overlapping new region, `[start, end)`
        new: (usize, usize),
    },
    /// A program declares a GM write span (finalized, halo staging or
    /// halo destination) that the writable regions lent to the run do
    /// not cover, so its bytes would have nowhere to land. Caught before
    /// any core executes.
    UnlentGmWrite {
        /// offending program index
        program: usize,
        /// which declared span: "finalized", "halo src" or "halo dst"
        kind: &'static str,
        /// the span `[start, end)` in GM bytes
        span: (usize, usize),
    },
    /// The host thread simulating a core panicked (a simulator bug); the
    /// panic is caught and ends the run as this error.
    HostPanic {
        /// the simulated core the host thread was running
        core: usize,
        /// the panic's message
        message: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::OutOfBounds {
                buffer,
                offset,
                len,
                capacity,
            } => write!(
                f,
                "out of bounds: {buffer}+0x{offset:x}..+{len} exceeds capacity {capacity}"
            ),
            SimError::Misaligned {
                buffer,
                offset,
                align,
            } => write!(
                f,
                "misaligned: {buffer}+0x{offset:x} requires align {align}"
            ),
            SimError::Isa(e) => write!(f, "isa: {e}"),
            SimError::WrongElementType { buffer, expected } => {
                write!(f, "{buffer} does not hold {expected} elements")
            }
            SimError::GmOverlap {
                prog_a,
                range_a,
                prog_b,
                range_b,
            } => write!(
                f,
                "programs {prog_a} and {prog_b} write overlapping GM ranges \
                 [{:#x},{:#x}) and [{:#x},{:#x})",
                range_a.0, range_a.1, range_b.0, range_b.1
            ),
            SimError::UndeclaredGmWrite { program, observed } => write!(
                f,
                "program {program} wrote GM [{:#x},{:#x}) outside its declared \
                 merge-back ranges",
                observed.0, observed.1
            ),
            SimError::HaloOutOfBounds {
                program,
                end,
                span,
                capacity,
            } => write!(
                f,
                "program {program}'s halo {end} span [{:#x},{:#x}) exceeds GM \
                 capacity {capacity}",
                span.0, span.1
            ),
            SimError::HaloMalformed { program, reason } => {
                write!(
                    f,
                    "program {program} declared a malformed halo span: {reason}"
                )
            }
            SimError::GmRegionOverlap { lent, new } => write!(
                f,
                "GM region [{:#x},{:#x}) overlaps the region [{:#x},{:#x}) lent before it",
                new.0, new.1, lent.0, lent.1
            ),
            SimError::UnlentGmWrite {
                program,
                kind,
                span,
            } => write!(
                f,
                "program {program} declares a {kind} GM write [{:#x},{:#x}) that no \
                 writable lent region covers",
                span.0, span.1
            ),
            SimError::HostPanic { core, message } => write!(
                f,
                "the host thread simulating core {core} panicked: {message}"
            ),
        }
    }
}

impl std::error::Error for SimError {}

impl From<dv_isa::IsaError> for SimError {
    fn from(e: dv_isa::IsaError) -> Self {
        SimError::Isa(e)
    }
}

/// Display/iteration order of the buffers tracked by [`BufferPeaks`].
const TRACKED: [BufferId; 6] = [
    BufferId::Gm,
    BufferId::L1,
    BufferId::L0A,
    BufferId::L0B,
    BufferId::L0C,
    BufferId::Ub,
];

fn peak_index(id: BufferId) -> usize {
    match id {
        BufferId::Gm => 0,
        BufferId::L1 => 1,
        BufferId::L0A => 2,
        BufferId::L0B => 3,
        BufferId::L0C => 4,
        BufferId::Ub => 5,
    }
}

/// Occupancy high-water marks: for each buffer, the highest byte offset
/// ever written plus the write's length. Scratchpads have no allocator —
/// the lowering layer lays data out manually — so the peak written end
/// is the tightest capacity the kernel actually needed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BufferPeaks {
    peaks: [usize; 6],
}

impl BufferPeaks {
    /// Peak occupancy of one buffer in bytes (0 if never written).
    pub fn of(&self, id: BufferId) -> usize {
        self.peaks[peak_index(id)]
    }

    /// All `(buffer, peak_bytes)` pairs in display order.
    pub fn iter(&self) -> impl Iterator<Item = (BufferId, usize)> + '_ {
        TRACKED.iter().map(|&id| (id, self.of(id)))
    }

    /// Pointwise maximum with another peak set (used when merging cores).
    pub fn merge_max(&mut self, other: &BufferPeaks) {
        for (p, o) in self.peaks.iter_mut().zip(other.peaks) {
            *p = (*p).max(o);
        }
    }

    fn note(&mut self, id: BufferId, end: usize) {
        let p = &mut self.peaks[peak_index(id)];
        *p = (*p).max(end);
    }
}

/// Index of a scratchpad in [`BufferSet`]'s array (`None` for GM).
pub(crate) fn scratch_slot(id: BufferId) -> Option<usize> {
    peak_index(id).checked_sub(1)
}

/// [`BufferSet::cube_views`]: L0A and L0B to read, L0C to write, and two
/// host-side `f32` staging buffers the set keeps across instructions.
pub(crate) struct CubeViews<'s> {
    pub l0a: &'s [u8],
    pub l0b: &'s [u8],
    pub l0c: &'s mut [u8],
    pub staging: &'s mut [Vec<f32>; 2],
}

/// The five scratchpad sizes of `caps` in [`TRACKED`] order after GM.
pub(crate) fn scratch_sizes(caps: Capacities) -> [usize; 5] {
    [caps.l1, caps.l0a, caps.l0b, caps.l0c, caps.ub]
}

/// All memories reachable from one AI Core: its five scratchpads and its
/// view of global memory.
#[derive(Clone, Debug)]
pub struct BufferSet<'g> {
    gm: GmView<'g>,
    /// L1, L0A, L0B, L0C and UB, in [`TRACKED`] order after GM. Each is
    /// allocated at most at its capacity; bytes past its allocation are
    /// zeros that no access of the programs it was sized for reaches.
    scratch: [Vec<u8>; 5],
    /// The simulated capacities, in the same order: every bounds check
    /// and error is against these, whatever the allocation.
    caps: [usize; 5],
    peaks: BufferPeaks,
    /// Host-side `f32` copies of a Cube instruction's operands
    /// ([`CubeViews::staging`]): no simulated state, kept so that each
    /// `mmad` reuses them instead of allocating.
    widened: [Vec<f32>; 2],
}

impl BufferSet<'static> {
    /// Allocate scratchpads at the given capacities plus a private
    /// `gm_bytes`-byte global memory. All memories are zero-initialised.
    pub fn new(caps: Capacities, gm_bytes: usize) -> BufferSet<'static> {
        let caps = scratch_sizes(caps);
        BufferSet::on_gm(caps, caps, GmView::zeros(gm_bytes))
    }
}

impl<'g> BufferSet<'g> {
    /// Scratchpads of capacities `caps`, allocated at `sizes` (each at
    /// most its capacity), over the GM view `gm`.
    fn on_gm(caps: [usize; 5], sizes: [usize; 5], gm: GmView<'g>) -> BufferSet<'g> {
        BufferSet {
            gm,
            scratch: sizes.map(|size| vec![0; size]),
            caps,
            peaks: BufferPeaks::default(),
            widened: [Vec::new(), Vec::new()],
        }
    }

    /// Scratchpads of capacities `caps` over a view of the run's lent GM:
    /// reads see `gm` until this set writes a page, writes never reach
    /// it. Each scratchpad is allocated at its `footprint`
    /// ([`crate::exec::footprint`] of the programs the set will run), and
    /// reads as zeros past it.
    pub(crate) fn lent(
        caps: Capacities,
        footprint: Capacities,
        gm: &'g LentGm<'g>,
    ) -> BufferSet<'g> {
        BufferSet::on_gm(
            scratch_sizes(caps),
            scratch_sizes(footprint),
            GmView::of(gm),
        )
    }

    /// This set's scratchpad bytes below `footprint` and its peaks, on a
    /// set allocated at `footprint` over `gm` — test convenience for
    /// running one instruction two ways.
    #[cfg(test)]
    pub(crate) fn cut_to<'h>(&self, footprint: Capacities, gm: &'h LentGm<'h>) -> BufferSet<'h> {
        let mut cut = BufferSet::on_gm(self.caps, scratch_sizes(footprint), GmView::of(gm));
        for (to, from) in cut.scratch.iter_mut().zip(&self.scratch) {
            let n = to.len();
            to.copy_from_slice(&from[..n]);
        }
        cut.peaks = self.peaks;
        cut
    }

    /// Return to the state of a freshly built set over the same image:
    /// each scratchpad is re-zeroed up to its high-water mark (every
    /// write notes one), the peaks clear and the written GM pages drop.
    pub(crate) fn reset(&mut self) {
        for (buf, &peak) in self.scratch.iter_mut().zip(&self.peaks.peaks[1..]) {
            buf[..peak].fill(0);
        }
        self.peaks = BufferPeaks::default();
        drop(self.gm.take_pages());
    }

    /// Move the GM pages written so far out of this set.
    pub(crate) fn take_gm_pages(&mut self) -> GmPages {
        self.gm.take_pages()
    }

    /// Occupancy high-water marks accumulated over all writes so far.
    pub fn peaks(&self) -> &BufferPeaks {
        &self.peaks
    }

    /// Capacity in bytes of one buffer.
    pub fn capacity(&self, id: BufferId) -> usize {
        match scratch_slot(id) {
            Some(s) => self.caps[s],
            None => self.gm.len(),
        }
    }

    /// One scratchpad's bytes, mutably — the fast executors access
    /// operands through this after validating the full span once. Callers
    /// note the peak of what they write with [`BufferSet::note_peak`].
    /// Panics on GM, which only [`BufferSet::copy`] and the element
    /// accessors reach.
    pub(crate) fn scratch_mut(&mut self, id: BufferId) -> &mut [u8] {
        &mut self.scratch[scratch_slot(id).expect("GM is not a scratchpad")]
    }

    /// Two distinct scratchpads: `src` to read, `dst` to write.
    pub(crate) fn scratch_pair(&mut self, src: BufferId, dst: BufferId) -> (&[u8], &mut [u8]) {
        let s = scratch_slot(src).expect("GM is not a scratchpad");
        let d = scratch_slot(dst).expect("GM is not a scratchpad");
        assert_ne!(s, d, "scratch_pair needs two distinct buffers");
        if s < d {
            let (lo, hi) = self.scratch.split_at_mut(d);
            (&lo[s], &mut hi[0])
        } else {
            let (lo, hi) = self.scratch.split_at_mut(s);
            (&hi[0], &mut lo[d])
        }
    }

    /// The Cube executor's views of this set.
    pub(crate) fn cube_views(&mut self) -> CubeViews<'_> {
        let [_, l0a, l0b, l0c, _] = &mut self.scratch;
        CubeViews {
            l0a,
            l0b,
            l0c,
            staging: &mut self.widened,
        }
    }

    /// Record a write high-water mark directly — the fast paths write
    /// through raw slices (bypassing [`BufferSet::write_f16`]), so they
    /// note the peak once per instruction with the maximum written end,
    /// which equals the running maximum the per-element path would have
    /// accumulated.
    pub(crate) fn note_peak(&mut self, id: BufferId, end: usize) {
        self.peaks.note(id, end);
    }

    fn check(&self, id: BufferId, offset: usize, len: usize, align: usize) -> Result<(), SimError> {
        let cap = self.capacity(id);
        if !offset.is_multiple_of(align) {
            return Err(SimError::Misaligned {
                buffer: id,
                offset,
                align,
            });
        }
        if offset.checked_add(len).is_none_or(|end| end > cap) {
            return Err(SimError::OutOfBounds {
                buffer: id,
                offset,
                len,
                capacity: cap,
            });
        }
        Ok(())
    }

    /// Copy checked bytes `[offset, offset + out.len())` of any buffer.
    fn read_bytes(&self, id: BufferId, offset: usize, out: &mut [u8]) {
        match scratch_slot(id) {
            Some(s) => out.copy_from_slice(&self.scratch[s][offset..offset + out.len()]),
            None => self.gm.read(offset, out),
        }
    }

    /// Write checked bytes at `offset` of any buffer, noting the peak.
    fn write_bytes(&mut self, id: BufferId, offset: usize, data: &[u8]) {
        self.peaks.note(id, offset + data.len());
        match scratch_slot(id) {
            Some(s) => self.scratch[s][offset..offset + data.len()].copy_from_slice(data),
            None => self.gm.write(offset, data),
        }
    }

    /// Read one f16 element at a byte offset.
    pub fn read_f16(&self, id: BufferId, offset: usize) -> Result<F16, SimError> {
        if id == BufferId::L0C {
            return Err(SimError::WrongElementType {
                buffer: id,
                expected: "f16",
            });
        }
        self.check(id, offset, 2, 2)?;
        let mut b = [0; 2];
        self.read_bytes(id, offset, &mut b);
        Ok(F16::from_bits(u16::from_le_bytes(b)))
    }

    /// Write one f16 element at a byte offset.
    pub fn write_f16(&mut self, id: BufferId, offset: usize, v: F16) -> Result<(), SimError> {
        if id == BufferId::L0C {
            return Err(SimError::WrongElementType {
                buffer: id,
                expected: "f16",
            });
        }
        self.check(id, offset, 2, 2)?;
        self.write_bytes(id, offset, &v.to_bits().to_le_bytes());
        Ok(())
    }

    /// Read one f32 accumulator from L0C.
    pub fn read_f32_l0c(&self, offset: usize) -> Result<f32, SimError> {
        self.check(BufferId::L0C, offset, 4, 4)?;
        let mut b = [0; 4];
        self.read_bytes(BufferId::L0C, offset, &mut b);
        Ok(f32::from_le_bytes(b))
    }

    /// Write one f32 accumulator to L0C.
    pub fn write_f32_l0c(&mut self, offset: usize, v: f32) -> Result<(), SimError> {
        self.check(BufferId::L0C, offset, 4, 4)?;
        self.write_bytes(BufferId::L0C, offset, &v.to_le_bytes());
        Ok(())
    }

    /// Bulk byte copy between buffers (the MTE's work). Overlapping
    /// same-buffer copies behave like a DMA engine with a store queue:
    /// the destination receives the source bytes as they were before
    /// the copy.
    pub fn copy(
        &mut self,
        src: BufferId,
        src_off: usize,
        dst: BufferId,
        dst_off: usize,
        len: usize,
    ) -> Result<(), SimError> {
        self.check(src, src_off, len, 1)?;
        self.check(dst, dst_off, len, 1)?;
        self.peaks.note(dst, dst_off + len);
        match (scratch_slot(src), scratch_slot(dst)) {
            (Some(s), Some(d)) if s == d => {
                self.scratch[s].copy_within(src_off..src_off + len, dst_off);
            }
            (Some(_), Some(_)) => {
                let (from, to) = self.scratch_pair(src, dst);
                to[dst_off..dst_off + len].copy_from_slice(&from[src_off..src_off + len]);
            }
            (None, Some(d)) => self
                .gm
                .read(src_off, &mut self.scratch[d][dst_off..dst_off + len]),
            (Some(s), None) => self
                .gm
                .write(dst_off, &self.scratch[s][src_off..src_off + len]),
            (None, None) => {
                // No instruction moves GM to GM; the public API still
                // may, through a staging copy.
                let mut tmp = vec![0; len];
                self.gm.read(src_off, &mut tmp);
                self.gm.write(dst_off, &tmp);
            }
        }
        Ok(())
    }

    /// Load a slice of f16 values into a buffer starting at a byte
    /// offset — test/driver convenience.
    pub fn load_f16_slice(
        &mut self,
        id: BufferId,
        offset: usize,
        data: &[F16],
    ) -> Result<(), SimError> {
        if id == BufferId::L0C {
            return Err(SimError::WrongElementType {
                buffer: id,
                expected: "f16",
            });
        }
        let bytes = dv_fp16::as_bytes(data);
        self.check(id, offset, bytes.len(), 2)?;
        self.write_bytes(id, offset, bytes);
        Ok(())
    }

    /// Read `len` f16 values from a buffer starting at a byte offset.
    pub fn read_f16_slice(
        &self,
        id: BufferId,
        offset: usize,
        len: usize,
    ) -> Result<Vec<F16>, SimError> {
        if id == BufferId::L0C {
            return Err(SimError::WrongElementType {
                buffer: id,
                expected: "f16",
            });
        }
        self.check(id, offset, len * 2, 2)?;
        let mut bytes = vec![0; len * 2];
        self.read_bytes(id, offset, &mut bytes);
        Ok(bytes
            .chunks_exact(2)
            .map(|b| F16::from_bits(u16::from_le_bytes([b[0], b[1]])))
            .collect())
    }

    /// Every byte of one buffer up to its capacity, a scratchpad's
    /// zeros past its allocation included — test convenience for
    /// whole-state comparisons.
    #[cfg(test)]
    pub(crate) fn bytes(&self, id: BufferId) -> Vec<u8> {
        let mut out = vec![0; self.capacity(id)];
        match scratch_slot(id) {
            Some(s) => out[..self.scratch[s].len()].copy_from_slice(&self.scratch[s]),
            None => self.gm.read(0, &mut out),
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> BufferSet<'static> {
        BufferSet::new(
            Capacities {
                l1: 128,
                l0a: 64,
                l0b: 64,
                l0c: 64,
                ub: 128,
            },
            256,
        )
    }

    #[test]
    fn f16_round_trip() {
        let mut b = small();
        b.write_f16(BufferId::Ub, 10, F16::from_f32(1.5)).unwrap();
        assert_eq!(b.read_f16(BufferId::Ub, 10).unwrap().to_f32(), 1.5);
    }

    #[test]
    fn zero_initialised() {
        let b = small();
        assert_eq!(b.read_f16(BufferId::L1, 0).unwrap(), F16::ZERO);
        assert_eq!(b.read_f32_l0c(0).unwrap(), 0.0);
    }

    #[test]
    fn out_of_bounds_detected() {
        let mut b = small();
        assert!(matches!(
            b.read_f16(BufferId::Ub, 128),
            Err(SimError::OutOfBounds { .. })
        ));
        assert!(matches!(
            b.write_f16(BufferId::Ub, 127, F16::ZERO),
            Err(SimError::Misaligned { .. }) | Err(SimError::OutOfBounds { .. })
        ));
        assert!(matches!(b.write_f16(BufferId::Ub, 126, F16::ZERO), Ok(())));
        assert!(matches!(
            b.copy(BufferId::Gm, 200, BufferId::L1, 0, 100),
            Err(SimError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn misalignment_detected() {
        let b = small();
        assert!(matches!(
            b.read_f16(BufferId::Ub, 1),
            Err(SimError::Misaligned { align: 2, .. })
        ));
        assert!(matches!(
            b.read_f32_l0c(2),
            Err(SimError::Misaligned { align: 4, .. })
        ));
    }

    #[test]
    fn l0c_is_f32_only() {
        let mut b = small();
        assert!(matches!(
            b.read_f16(BufferId::L0C, 0),
            Err(SimError::WrongElementType { .. })
        ));
        assert!(matches!(
            b.write_f16(BufferId::L0C, 0, F16::ZERO),
            Err(SimError::WrongElementType { .. })
        ));
        b.write_f32_l0c(4, 2.5).unwrap();
        assert_eq!(b.read_f32_l0c(4).unwrap(), 2.5);
    }

    #[test]
    fn copy_between_buffers() {
        let mut b = small();
        b.load_f16_slice(BufferId::Gm, 0, &[F16::ONE, F16::from_f32(2.0)])
            .unwrap();
        b.copy(BufferId::Gm, 0, BufferId::L1, 4, 4).unwrap();
        assert_eq!(b.read_f16(BufferId::L1, 4).unwrap(), F16::ONE);
        assert_eq!(b.read_f16(BufferId::L1, 6).unwrap().to_f32(), 2.0);
    }

    #[test]
    fn overlapping_same_buffer_copy() {
        let mut b = small();
        let vals: Vec<F16> = (0..8).map(|i| F16::from_f32(i as f32)).collect();
        b.load_f16_slice(BufferId::Ub, 0, &vals).unwrap();
        // shift right by one element, overlapping
        b.copy(BufferId::Ub, 0, BufferId::Ub, 2, 14).unwrap();
        let out = b.read_f16_slice(BufferId::Ub, 2, 7).unwrap();
        let expect: Vec<F16> = (0..7).map(|i| F16::from_f32(i as f32)).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn peaks_track_highest_written_end() {
        let mut b = small();
        assert_eq!(b.peaks().of(BufferId::Ub), 0);
        b.write_f16(BufferId::Ub, 10, F16::ONE).unwrap();
        assert_eq!(b.peaks().of(BufferId::Ub), 12);
        b.write_f16(BufferId::Ub, 2, F16::ONE).unwrap();
        assert_eq!(b.peaks().of(BufferId::Ub), 12, "lower writes keep the peak");
        b.copy(BufferId::Ub, 0, BufferId::L1, 20, 8).unwrap();
        assert_eq!(b.peaks().of(BufferId::L1), 28);
        b.write_f32_l0c(8, 1.0).unwrap();
        assert_eq!(b.peaks().of(BufferId::L0C), 12);
        // Failed writes do not move the peak.
        assert!(b.write_f16(BufferId::Ub, 1000, F16::ONE).is_err());
        assert_eq!(b.peaks().of(BufferId::Ub), 12);

        let mut other = BufferPeaks::default();
        other.note(BufferId::Ub, 100);
        let mut merged = *b.peaks();
        merged.merge_max(&other);
        assert_eq!(merged.of(BufferId::Ub), 100);
        assert_eq!(merged.of(BufferId::L1), 28);
        assert_eq!(merged.iter().count(), 6);
    }

    /// The public GM-to-GM copy over lent regions reads and writes like
    /// the same copy over one flat image: from a read-only input, across
    /// an alignment gap, onto a page the input and a writable output
    /// share, and merged back into the output alone.
    #[test]
    fn gm_to_gm_copy_over_lent_regions_matches_a_flat_image() {
        let caps = Capacities {
            l1: 128,
            l0a: 64,
            l0b: 64,
            l0c: 64,
            ub: 128,
        };
        let input: Vec<u8> = (0..6000u32).map(|i| (i % 251) as u8).collect();
        let out_at = 6016;
        let mut flat = vec![0u8; 16384];
        flat[..6000].copy_from_slice(&input);
        flat[out_at..out_at + 2048].fill(0x5A);
        let mut out = vec![0x5Au8; 2048];
        let mut flat_copy = flat.clone();
        {
            let mut lent = LentGm::new(flat.len());
            lent.lend(0, &input).unwrap();
            lent.lend_mut(out_at, &mut out).unwrap();
            let mut whole = LentGm::whole(&mut flat_copy);
            let (mut a, mut b) = (
                BufferSet::lent(caps, caps, &lent),
                BufferSet::lent(caps, caps, &whole),
            );
            for set in [&mut a, &mut b] {
                // 5900..6100 spans the input's tail, the gap and the output.
                set.copy(BufferId::Gm, 5900, BufferId::Gm, out_at + 100, 200)
                    .unwrap();
                set.copy(BufferId::Gm, 16, BufferId::Gm, out_at + 1000, 1000)
                    .unwrap();
            }
            assert_eq!(a.bytes(BufferId::Gm), b.bytes(BufferId::Gm));
            assert_eq!(a.peaks(), b.peaks());
            let (pa, pb) = (a.take_gm_pages(), b.take_gm_pages());
            for (start, end) in [(out_at + 100, out_at + 300), (out_at + 1000, out_at + 2000)] {
                pa.copy_span_into(&mut lent, start, end);
                pb.copy_span_into(&mut whole, start, end);
            }
        }
        assert_eq!(out, flat_copy[out_at..out_at + 2048]);
        assert_eq!(flat_copy[..out_at], flat[..out_at], "only the output moved");
        assert_eq!(out[100..200], input[5900..6000]);
        assert_eq!(out[200..216], [0; 16], "the gap reads as zeros");
    }

    #[test]
    fn slice_round_trip() {
        let mut b = small();
        let vals: Vec<F16> = (0..16).map(|i| F16::from_f32(i as f32 * 0.5)).collect();
        b.load_f16_slice(BufferId::Ub, 32, &vals).unwrap();
        assert_eq!(b.read_f16_slice(BufferId::Ub, 32, 16).unwrap(), vals);
    }
}
