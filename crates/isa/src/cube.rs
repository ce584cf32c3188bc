//! The Cube Unit's fractal matrix multiplication.
//!
//! "The Cube Unit receives data-fractals from its input buffers. A
//! data-fractal is a small matrix of a constant size of 4096 bits. The
//! Cube Unit can multiply two data-fractals per clock cycle" (paper,
//! Section III-A). A fractal viewed as a matrix is 16 x 16 f16.
//!
//! [`CubeMatmul`] multiplies an `(m x k)`-fractal tile in L0A by a
//! `(k x n)`-fractal tile in L0B into an `(m x n)`-fractal tile in L0C,
//! accumulating in f32 like real systolic arrays. Dimensions are counted
//! in fractals (units of 16).

use crate::addr::{Addr, BufferId};
use crate::program::{span_end, IsaError};

/// Edge length (rows or columns) of one fractal viewed as a matrix.
pub const FRACTAL_EDGE: usize = 16;

/// A Cube-Unit matrix multiply over fractal tiles.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CubeMatmul {
    /// Left operand base (L0A), row-major fractals of an `(m*16, k*16)`
    /// matrix.
    pub a: Addr,
    /// Right operand base (L0B), row-major fractals of a `(k*16, n*16)`
    /// matrix.
    pub b: Addr,
    /// Output base (L0C), row-major fractals of an `(m*16, n*16)` matrix.
    pub c: Addr,
    /// Row fractals of A and C.
    pub m_fractals: usize,
    /// Inner-dimension fractals.
    pub k_fractals: usize,
    /// Column fractals of B and C.
    pub n_fractals: usize,
    /// When true, add into the existing contents of C instead of
    /// overwriting — used to accumulate over K tiles larger than L0A/L0B.
    pub accumulate: bool,
}

impl CubeMatmul {
    /// Number of fractal-pair multiplications the instruction performs
    /// (one per cycle in the cost model).
    pub fn fractal_ops(&self) -> usize {
        self.m_fractals * self.k_fractals * self.n_fractals
    }

    /// Bytes of the A, B and C tiles (C holds `f32` accumulators), or
    /// `None` where one overflows `usize`.
    fn tile_bytes(&self) -> [Option<usize>; 3] {
        const FRACTAL: usize = FRACTAL_EDGE * FRACTAL_EDGE;
        let tile = |rows: usize, cols: usize, elem: usize| {
            rows.checked_mul(cols)?.checked_mul(FRACTAL * elem)
        };
        [
            tile(self.m_fractals, self.k_fractals, 2),
            tile(self.k_fractals, self.n_fractals, 2),
            tile(self.m_fractals, self.n_fractals, 4),
        ]
    }

    /// Validate datapath legality (A from L0A, B from L0B, C into L0C),
    /// non-degenerate dimensions, and sizes inside the address space:
    /// every tile must end by `usize::MAX`, and the fractal-pair count
    /// must fit a `usize`.
    pub fn validate(&self) -> Result<(), IsaError> {
        if self.m_fractals == 0 || self.k_fractals == 0 || self.n_fractals == 0 {
            return Err(IsaError::BadPosition("cube dims must be nonzero".into()));
        }
        let tiles = [
            (self.a, BufferId::L0A, "a"),
            (self.b, BufferId::L0B, "b"),
            (self.c, BufferId::L0C, "c"),
        ];
        for ((addr, want, role), bytes) in tiles.into_iter().zip(self.tile_bytes()) {
            if addr.buffer != want {
                return Err(IsaError::IllegalDatapath {
                    instr: "cube",
                    buffer: addr.buffer,
                    role,
                });
            }
            span_end("cube", role, addr.offset, bytes)?;
        }
        let ops = self.m_fractals.checked_mul(self.k_fractals);
        if ops.and_then(|mk| mk.checked_mul(self.n_fractals)).is_none() {
            return Err(IsaError::SpanOverflow {
                instr: "cube",
                role: "fractal count",
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mm() -> CubeMatmul {
        CubeMatmul {
            a: Addr::new(BufferId::L0A, 0),
            b: Addr::new(BufferId::L0B, 0),
            c: Addr::new(BufferId::L0C, 0),
            m_fractals: 2,
            k_fractals: 3,
            n_fractals: 4,
            accumulate: false,
        }
    }

    #[test]
    fn fractal_ops_product() {
        assert_eq!(mm().fractal_ops(), 24);
    }

    #[test]
    fn validates_buffer_roles() {
        assert!(mm().validate().is_ok());
        let mut bad = mm();
        bad.a = Addr::ub(0);
        assert!(bad.validate().is_err());
        let mut bad = mm();
        bad.c = Addr::new(BufferId::L0B, 0);
        assert!(bad.validate().is_err());
    }

    /// Fractal counts whose tile sizes (or whose tile end) overflow
    /// `usize` are a typed error, not a wrapped size.
    #[test]
    fn rejects_overflowing_tiles() {
        let mut bad = mm();
        bad.m_fractals = 1 << 60;
        assert_eq!(
            bad.validate(),
            Err(IsaError::SpanOverflow {
                instr: "cube",
                role: "a"
            })
        );
        let mut bad = mm();
        bad.n_fractals = usize::MAX / 512;
        bad.k_fractals = 1;
        bad.m_fractals = 1;
        assert!(matches!(
            bad.validate(),
            Err(IsaError::SpanOverflow { role: "c", .. })
        ));
        let mut bad = mm();
        bad.b.offset = usize::MAX - 100;
        assert!(matches!(
            bad.validate(),
            Err(IsaError::SpanOverflow { role: "b", .. })
        ));
        // Every tile fits, but m·k·n does not.
        let mut bad = mm();
        (bad.m_fractals, bad.k_fractals, bad.n_fractals) = (1 << 27, 1 << 27, 1 << 26);
        assert!(matches!(
            bad.validate(),
            Err(IsaError::SpanOverflow {
                role: "fractal count",
                ..
            })
        ));
    }

    #[test]
    fn rejects_zero_dims() {
        let mut bad = mm();
        bad.k_fractals = 0;
        assert!(bad.validate().is_err());
    }
}
