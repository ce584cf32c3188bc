//! Bump allocators for memory planning.
//!
//! Scratch-pad memories force the program to manage placement explicitly
//! (paper, Section III-A). Kernel builders plan their buffer layouts with
//! these arenas; exceeding a capacity is a lowering-time error, mirroring
//! how AKG rejects schedules whose tiles do not fit.

use core::fmt;

/// Alignment for all allocations: one fractal row (32 bytes) keeps every
/// region aligned for f16, f32 and fractal accesses.
pub const ALLOC_ALIGN: usize = 32;

/// Error: a Unified-Buffer plan exceeded capacity.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UbOverflow {
    /// Bytes requested by the failing allocation.
    pub requested: usize,
    /// Bytes already allocated.
    pub used: usize,
    /// The buffer capacity.
    pub capacity: usize,
}

impl fmt::Display for UbOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "UB plan overflow: requested {} with {} of {} bytes used",
            self.requested, self.used, self.capacity
        )
    }
}

impl std::error::Error for UbOverflow {}

/// Bump allocator over a fixed-capacity scratchpad (UB, L1, ...).
#[derive(Clone, Debug)]
pub struct UbArena {
    next: usize,
    capacity: usize,
}

impl UbArena {
    /// An arena over `capacity` bytes.
    pub fn new(capacity: usize) -> UbArena {
        UbArena { next: 0, capacity }
    }

    /// Allocate `bytes` bytes, aligned to [`ALLOC_ALIGN`]. Returns the
    /// byte offset.
    pub fn alloc(&mut self, bytes: usize) -> Result<usize, UbOverflow> {
        let start = self.next.next_multiple_of(ALLOC_ALIGN);
        let end = start.checked_add(bytes).ok_or(UbOverflow {
            requested: bytes,
            used: self.next,
            capacity: self.capacity,
        })?;
        if end > self.capacity {
            return Err(UbOverflow {
                requested: bytes,
                used: self.next,
                capacity: self.capacity,
            });
        }
        self.next = end;
        Ok(start)
    }

    /// Bytes allocated so far (including alignment gaps).
    pub fn used(&self) -> usize {
        self.next
    }

    /// Bytes still available.
    pub fn remaining(&self) -> usize {
        self.capacity - self.next
    }

    /// Allocate a band-cycled region: one slot when `double` is false, a
    /// ping-pong (A/B) pair when it is true. Double-buffering lets the
    /// MTE load of band `i + 1` target the slot the Vector pipe is *not*
    /// reading, so the dual-pipe scoreboard sees no WAR hazard between
    /// consecutive bands.
    pub fn alloc_band(&mut self, bytes: usize, double: bool) -> Result<BandSlots, UbOverflow> {
        let a = self.alloc(bytes)?;
        let b = if double {
            Some(self.alloc(bytes)?)
        } else {
            None
        };
        Ok(BandSlots { a, b })
    }

    /// Allocate a band-cycled region under a [`BandMode`]:
    /// [`BandMode::PingPong`] gets the A/B pair, [`BandMode::Single`] one
    /// slot.
    pub fn alloc_band_mode(
        &mut self,
        bytes: usize,
        mode: BandMode,
    ) -> Result<BandSlots, UbOverflow> {
        self.alloc_band(bytes, mode == BandMode::PingPong)
    }
}

/// How a band-cycled region is provisioned for cross-band overlap.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BandMode {
    /// One slot; consecutive bands serialise on WAR/WAW slot reuse.
    Single,
    /// Two software-addressed slots (A/B) cycled by band parity; the
    /// instruction stream itself alternates addresses, so band `i + 1`'s
    /// loads overlap band `i`'s compute.
    PingPong,
}

/// The slot offsets of a band-cycled region (see [`UbArena::alloc_band`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BandSlots {
    /// Offset of slot A (bands 0, 2, 4, … — and every band when single).
    pub a: usize,
    /// Offset of slot B (bands 1, 3, 5, …), present when double-buffered.
    pub b: Option<usize>,
}

impl BandSlots {
    /// The slot offset serving band `band`: parity picks A or B; a
    /// single-buffered region always answers A.
    pub fn of(&self, band: usize) -> usize {
        match self.b {
            Some(b) if band % 2 == 1 => b,
            _ => self.a,
        }
    }

    /// Whether the region really has two slots.
    pub fn is_double(&self) -> bool {
        self.b.is_some()
    }
}

/// Bump allocator over global memory — unbounded, used to lay out the
/// tensors of a workload before building its programs.
#[derive(Clone, Debug, Default)]
pub struct GmArena {
    next: usize,
}

impl GmArena {
    /// A fresh, empty arena.
    pub fn new() -> GmArena {
        GmArena::default()
    }

    /// Allocate `bytes` bytes, aligned; returns the byte offset.
    pub fn alloc(&mut self, bytes: usize) -> usize {
        let start = self.next.next_multiple_of(ALLOC_ALIGN);
        self.next = start + bytes;
        start
    }

    /// Total bytes the global-memory image needs.
    pub fn size(&self) -> usize {
        self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ub_arena_allocates_aligned() {
        let mut a = UbArena::new(1024);
        let x = a.alloc(10).unwrap();
        let y = a.alloc(10).unwrap();
        assert_eq!(x, 0);
        assert_eq!(y, 32, "second allocation aligned past the first");
        assert_eq!(a.used(), 42);
    }

    #[test]
    fn ub_arena_overflow_detected() {
        let mut a = UbArena::new(64);
        assert!(a.alloc(64).is_ok());
        let err = a.alloc(1).unwrap_err();
        assert_eq!(err.capacity, 64);
        assert_eq!(err.requested, 1);
    }

    #[test]
    fn ub_arena_exact_fit() {
        let mut a = UbArena::new(64);
        assert_eq!(a.alloc(32).unwrap(), 0);
        assert_eq!(a.alloc(32).unwrap(), 32);
        assert_eq!(a.remaining(), 0);
        assert!(a.alloc(1).is_err());
    }

    #[test]
    fn band_slots_alternate_by_parity() {
        let mut a = UbArena::new(1024);
        let single = a.alloc_band(100, false).unwrap();
        assert!(!single.is_double());
        assert_eq!(single.of(0), single.of(1));
        let double = a.alloc_band(100, true).unwrap();
        assert!(double.is_double());
        assert_eq!(double.of(0), double.of(2));
        assert_eq!(double.of(1), double.of(3));
        assert_ne!(double.of(0), double.of(1));
        // Pair costs two aligned slots: A at 128, B at 256, 100 bytes each.
        assert_eq!(double.a, 128);
        assert_eq!(double.b, Some(256));
        assert_eq!(a.used(), 356);
    }

    #[test]
    fn band_slots_overflow_detected() {
        let mut a = UbArena::new(150);
        assert!(a.alloc_band(100, false).is_ok());
        let mut a = UbArena::new(150);
        assert!(a.alloc_band(100, true).is_err());
    }

    #[test]
    fn band_mode_maps_to_slots() {
        let mut a = UbArena::new(1024);
        assert!(!a
            .alloc_band_mode(100, BandMode::Single)
            .unwrap()
            .is_double());
        assert!(a
            .alloc_band_mode(100, BandMode::PingPong)
            .unwrap()
            .is_double());
    }

    #[test]
    fn gm_arena_grows() {
        let mut g = GmArena::new();
        let a = g.alloc(100);
        let b = g.alloc(100);
        assert_eq!(a, 0);
        assert_eq!(b, 128);
        assert_eq!(g.size(), 228);
    }
}
