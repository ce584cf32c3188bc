//! Memory Transfer Engine (MTE) data movement between buffers.
//!
//! "Data movement between these buffers must be explicitly managed by the
//! application" (paper, Section III-A). A [`DataMove`] is a flat byte copy
//! along one of the legal datapath arrows of Fig. 4. Layout
//! transformations during movement belong to the SCU instructions, not to
//! plain moves.

use crate::addr::{Addr, BufferId};
use crate::program::{span_end, IsaError};

/// A flat copy of `bytes` bytes from `src` to `dst`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DataMove {
    /// Source address.
    pub src: Addr,
    /// Destination address.
    pub dst: Addr,
    /// Number of bytes to move.
    pub bytes: usize,
}

impl DataMove {
    /// Construct a move.
    pub const fn new(src: Addr, dst: Addr, bytes: usize) -> DataMove {
        DataMove { src, dst, bytes }
    }

    /// The datapaths of Fig. 4 a plain move may take. Numbers refer to the
    /// figure's labels: global memory exchanges with L1 (1<->2), the
    /// Unified Buffer (1<->8) and receives results from L0C via the UB;
    /// L1 feeds the UB (2->8) and the Cube input buffers (2->4, 2->5 —
    /// the untransformed `load2d` used for pre-laid-out weights); the
    /// Cube output L0C drains to the UB (6->8).
    pub const LEGAL_PATHS: [(BufferId, BufferId); 8] = [
        (BufferId::Gm, BufferId::L1),
        (BufferId::L1, BufferId::Gm),
        (BufferId::Gm, BufferId::Ub),
        (BufferId::Ub, BufferId::Gm),
        (BufferId::L1, BufferId::Ub),
        (BufferId::L1, BufferId::L0A),
        (BufferId::L1, BufferId::L0B),
        (BufferId::L0C, BufferId::Ub),
    ];

    /// Bytes the move writes: `bytes`, or half of it for the L0C -> UB
    /// drain, which converts each `f32` accumulator it reads to an f16.
    pub fn dst_bytes(&self) -> usize {
        if self.src.buffer == BufferId::L0C {
            self.bytes / 2
        } else {
            self.bytes
        }
    }

    /// Validate the copy follows a legal datapath, is non-empty, and that
    /// both its spans end inside the address space.
    pub fn validate(&self) -> Result<(), IsaError> {
        if self.bytes == 0 {
            return Err(IsaError::EmptyMove);
        }
        let path = (self.src.buffer, self.dst.buffer);
        if !Self::LEGAL_PATHS.contains(&path) {
            return Err(IsaError::IllegalDatapath {
                instr: "move",
                buffer: self.dst.buffer,
                role: "path",
            });
        }
        span_end("move", "src", self.src.offset, Some(self.bytes))?;
        span_end("move", "dst", self.dst.offset, Some(self.dst_bytes()))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legal_paths_validate() {
        for (s, d) in DataMove::LEGAL_PATHS {
            let m = DataMove::new(Addr::new(s, 0), Addr::new(d, 0), 64);
            assert!(m.validate().is_ok(), "{s}->{d}");
        }
    }

    /// A span that would end past `usize::MAX` is a typed error; the L0C
    /// drain's destination is half its source.
    #[test]
    fn overflowing_spans_are_refused() {
        let mut m = DataMove::new(Addr::gm(usize::MAX - 64), Addr::ub(0), 64);
        assert!(m.validate().is_ok(), "ends exactly at usize::MAX");
        m.src.offset += 1;
        assert_eq!(
            m.validate(),
            Err(IsaError::SpanOverflow {
                instr: "move",
                role: "src"
            })
        );
        let drain =
            |dst: usize| DataMove::new(Addr::new(BufferId::L0C, 0), Addr::ub(dst), 64).validate();
        assert_eq!(
            DataMove::new(Addr::new(BufferId::L0C, 0), Addr::ub(0), 64).dst_bytes(),
            32
        );
        assert!(drain(usize::MAX - 32).is_ok());
        assert!(matches!(
            drain(usize::MAX - 31),
            Err(IsaError::SpanOverflow { role: "dst", .. })
        ));
    }

    #[test]
    fn illegal_paths_rejected() {
        // GM cannot write the cube input buffers directly (only via L1).
        let m = DataMove::new(Addr::gm(0), Addr::new(BufferId::L0B, 0), 64);
        assert!(m.validate().is_err());
        // The cube input buffers never drain anywhere.
        let m = DataMove::new(Addr::new(BufferId::L0A, 0), Addr::ub(0), 64);
        assert!(m.validate().is_err());
        // L0C only drains to the UB.
        let m = DataMove::new(Addr::new(BufferId::L0C, 0), Addr::l1(0), 64);
        assert!(m.validate().is_err());
    }

    #[test]
    fn empty_move_rejected() {
        let m = DataMove::new(Addr::gm(0), Addr::l1(0), 0);
        assert!(matches!(m.validate(), Err(IsaError::EmptyMove)));
    }
}
