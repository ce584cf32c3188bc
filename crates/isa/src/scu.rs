//! Storage Conversion Unit instructions: `Im2Col` and `Col2Im`
//! (paper, Sections III-C and III-D).
//!
//! ## `Im2Col`
//!
//! A load instruction: while a data-fractal moves from L1 into L0A, L0B or
//! the Unified Buffer, the SCU rearranges it into column form. One issue
//! loads **one fractal** = 16 consecutive patches x C0 elements: it
//! selects the 16 patches starting at the instruction's patch position,
//! picks the element at kernel-relative offset `(xk, yk)` from each, and
//! loads that element's C0 channel group, producing a 16 x C0 block
//! (Fig. 5). Positions that fall into the zero-padding border load zeros;
//! patch slots past the end of the patch grid also load zeros (the
//! lowering pads its tiles to whole fractals).
//!
//! Two repeat modes reissue the instruction automatically:
//! * **mode 0** iterates the kernel offset `(xk, yk)` row-major, then the
//!   `c1` index — the loop `[c1, (xk, yk)]` with `(x, y)` fixed;
//! * **mode 1** iterates the patch position — "reissues Im2Col for the
//!   next (x, y) position after skipping the 16 currently selected
//!   patches".
//!
//! With loop order `[c1, (xk, yk), (x, y)]` realised as one mode-1
//! instruction per `(c1, xk, yk)`, the output is the transposed fractal
//! order whose overall shape is the tensor `(C1, Kh, Kw, Oh, Ow, C0)` —
//! the layout the accelerated forward pooling reduces over (Section V-A).
//!
//! ## `Col2Im`
//!
//! The backward operator: a vector-class instruction from UB to UB. One
//! issue takes one input fractal, loads the *current* values of the 16 x
//! C0 scattered output positions it maps to, **adds**, and stores back
//! (Fig. 6) — which is why the output must be zero-initialised first.
//! Only repeat mode 1 exists for `Col2Im` (Section III-D).

use crate::addr::{Addr, BufferId};
use crate::program::{span_end, IsaError};
use crate::MAX_REPEAT;
use dv_tensor::{PoolParams, C0, FRACTAL_BYTES, FRACTAL_ROWS};

/// Which positional parameter the hardware repeat iterates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RepeatMode {
    /// Iterate `(xk, yk)` row-major, then `c1` ("acts as the loops of
    /// `[c1, (xk, yk)]`"). `Im2Col` only.
    Mode0,
    /// Iterate the patch position by 16 patches per repeat ("acts as the
    /// loop of `[(x, y)]`").
    Mode1,
}

/// The geometry parameters "constant for all instructions loading the same
/// input" (Section III-C): input extents, padding, strides, kernel — i.e.
/// a [`PoolParams`] plus the input tile extents, and the tile's C1 count
/// needed to locate `c1` planes in the source buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Im2ColGeometry {
    /// Input tile height `Ih`.
    pub ih: usize,
    /// Input tile width `Iw`.
    pub iw: usize,
    /// Number of `C1` planes resident in the source tile.
    pub c1_len: usize,
    /// Kernel / stride / padding.
    pub params: PoolParams,
}

impl Im2ColGeometry {
    /// Construct and validate the geometry (Equation 1 must be
    /// satisfiable).
    pub fn new(ih: usize, iw: usize, c1_len: usize, params: PoolParams) -> Result<Self, IsaError> {
        let geom = Im2ColGeometry {
            ih,
            iw,
            c1_len,
            params,
        };
        geom.validate()?;
        Ok(geom)
    }

    /// Re-derive `(Oh, Ow)` (Equation 1) and check `c1_len`. The fields
    /// are public, so a geometry edited after [`Self::new`] is checked
    /// again here by every instruction's `validate` — a typed error, never
    /// the panic of [`Self::out_dims`].
    pub fn validate(&self) -> Result<(usize, usize), IsaError> {
        let dims = self
            .params
            .out_dims(self.ih, self.iw)
            .map_err(IsaError::Shape)?;
        if self.c1_len == 0 {
            return Err(IsaError::Shape(dv_tensor::ShapeError::Mismatch(
                "c1_len must be nonzero".into(),
            )));
        }
        Ok(dims)
    }

    /// `(Oh, Ow)` patch counts (Equation 1). Panics on a geometry that
    /// [`Self::validate`] rejects.
    pub fn out_dims(&self) -> (usize, usize) {
        self.params
            .out_dims(self.ih, self.iw)
            .expect("validated at construction")
    }

    /// Total number of patches `Oh * Ow`.
    pub fn patch_count(&self) -> usize {
        let (oh, ow) = self.out_dims();
        oh * ow
    }

    /// Number of fractals needed to cover all patches for one
    /// `(c1, xk, yk)` combination: `ceil(Oh*Ow / 16)`.
    pub fn fractals_per_plane(&self) -> usize {
        self.patch_count().div_ceil(FRACTAL_ROWS)
    }

    /// Byte size of one `(H, W, C0)` source plane in the source buffer.
    /// Every instruction's `validate` refuses a geometry whose plane size
    /// overflows `usize`.
    pub fn src_plane_bytes(&self) -> usize {
        self.ih * self.iw * C0 * 2
    }

    /// [`Self::src_plane_bytes`], or [`IsaError::SpanOverflow`] for
    /// `instr` when it overflows `usize`.
    fn checked_plane_bytes(&self, instr: &'static str) -> Result<usize, IsaError> {
        let plane = self
            .ih
            .checked_mul(self.iw)
            .and_then(|hw| hw.checked_mul(C0 * 2));
        span_end(instr, "plane", 0, plane)
    }

    /// Convert the paper's positional parameter — "the starting position
    /// in the image `(x, y)`", i.e. the coordinates of a patch's top-left
    /// corner, where padding makes negative coordinates legal — into the
    /// linear patch index the instruction encoding uses. Errors when
    /// `(x, y)` does not sit on the patch grid.
    pub fn patch_index_of_xy(&self, x: isize, y: isize) -> Result<usize, IsaError> {
        let (oh, ow) = self.out_dims();
        let gx = x + self.params.padding.top as isize;
        let gy = y + self.params.padding.left as isize;
        if gx < 0 || gy < 0 {
            return Err(IsaError::BadPosition(format!(
                "({x}, {y}) lies outside even the padded image"
            )));
        }
        let (gx, gy) = (gx as usize, gy as usize);
        if gx % self.params.sh != 0 || gy % self.params.sw != 0 {
            return Err(IsaError::BadPosition(format!(
                "({x}, {y}) is not on the stride grid ({}, {})",
                self.params.sh, self.params.sw
            )));
        }
        let (p, q) = (gx / self.params.sh, gy / self.params.sw);
        if p >= oh || q >= ow {
            return Err(IsaError::BadPosition(format!(
                "({x}, {y}) starts patch ({p}, {q}) outside the {oh}x{ow} grid"
            )));
        }
        Ok(p * ow + q)
    }

    /// Resolve patch linear index -> the input-coordinate `(h, w)` of the
    /// element at kernel offset `(xk, yk)`, or `None` when it falls into
    /// the padding border. Patch indices at or beyond
    /// [`Self::patch_count`] also resolve to `None` (zero-fill slots).
    pub fn element_coord(&self, patch: usize, xk: usize, yk: usize) -> Option<(usize, usize)> {
        let (oh, ow) = self.out_dims();
        if patch >= oh * ow {
            return None;
        }
        let (p, q) = (patch / ow, patch % ow);
        let h =
            (p * self.params.sh + xk * self.params.dh) as isize - self.params.padding.top as isize;
        let w =
            (q * self.params.sw + yk * self.params.dw) as isize - self.params.padding.left as isize;
        if h < 0 || w < 0 || h as usize >= self.ih || w as usize >= self.iw {
            None
        } else {
            Some((h as usize, w as usize))
        }
    }
}

/// Consecutive patch slots at one kernel offset, resolved to source
/// elements: slot `i` yields what [`Im2ColGeometry::element_coord`] gives
/// for patch `first_patch + i`, but `(Oh, Ow)` is derived once per walk
/// and the patch position `(p, q)` advances by addition. This is the
/// per-instruction indirection walk the simulator's fast `Im2Col` and
/// `Col2Im` executors share. The walk never ends: slots past the patch
/// grid resolve to `None` (zero-fill for `Im2Col`, skipped by `Col2Im`).
#[derive(Clone, Debug)]
pub struct PatchWalk {
    grid: usize,
    ow: usize,
    ih: isize,
    iw: isize,
    sh: isize,
    sw: isize,
    params: PoolParams,
    /// Patches left on the grid from the current slot on.
    left: usize,
    q: usize,
    h: isize,
    w: isize,
    /// `w` at `q = 0` for the current kernel offset.
    w0: isize,
}

impl PatchWalk {
    /// Continue from patch `first_patch` at kernel offset `k_off`,
    /// keeping the derived grid — one call per mode-0 repeat.
    pub fn restart(&mut self, first_patch: usize, k_off: (usize, usize)) {
        let pr = &self.params;
        let (p, q) = (first_patch / self.ow, first_patch % self.ow);
        self.left = self.grid.saturating_sub(first_patch);
        self.q = q;
        self.w0 = (k_off.1 * pr.dw) as isize - pr.padding.left as isize;
        self.w = self.w0 + (q * pr.sw) as isize;
        self.h = (p * pr.sh + k_off.0 * pr.dh) as isize - pr.padding.top as isize;
    }
}

impl Iterator for PatchWalk {
    type Item = Option<(usize, usize)>;

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        if self.left == 0 {
            return Some(None);
        }
        self.left -= 1;
        let (h, w) = (self.h, self.w);
        self.q += 1;
        self.w += self.sw;
        if self.q == self.ow {
            self.q = 0;
            self.w = self.w0;
            self.h += self.sh;
        }
        let inside = h >= 0 && w >= 0 && h < self.ih && w < self.iw;
        Some(inside.then_some((h as usize, w as usize)))
    }
}

impl Im2ColGeometry {
    /// A [`PatchWalk`] from patch `first_patch` at kernel offset `k_off`.
    /// Panics on a geometry that [`Self::validate`] rejects.
    pub fn patch_walk(&self, first_patch: usize, k_off: (usize, usize)) -> PatchWalk {
        let (oh, ow) = self.out_dims();
        let mut walk = PatchWalk {
            grid: oh * ow,
            ow,
            ih: self.ih as isize,
            iw: self.iw as isize,
            sh: self.params.sh as isize,
            sw: self.params.sw as isize,
            params: self.params,
            left: 0,
            q: 0,
            h: 0,
            w: 0,
            w0: 0,
        };
        walk.restart(first_patch, k_off);
        walk
    }
}

/// The `Im2Col` load instruction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Im2Col {
    /// Geometry shared by all issues over the same input.
    pub geom: Im2ColGeometry,
    /// Base address of the source NC1HWC0 tile (must be **L1** — Im2Col
    /// loads L1 -> {L0A, L0B, UB}, paths 2->4, 2->5, 2->8 of Fig. 4).
    pub src: Addr,
    /// Base address fractals are stored to, consecutively.
    pub dst: Addr,
    /// Linear index of the first patch to load ("the starting position in
    /// the image (x, y)", linearised over the patch grid).
    pub first_patch: usize,
    /// Kernel-relative position `(xk, yk)`.
    pub k_off: (usize, usize),
    /// `C1`-dimension index `c1`.
    pub c1: usize,
    /// Repeat count (number of fractals produced).
    pub repeat: u16,
    /// Which positional parameter the repeats iterate.
    pub mode: RepeatMode,
}

impl Im2Col {
    /// Validate datapath legality and positional parameters.
    pub fn validate(&self) -> Result<(), IsaError> {
        if self.repeat == 0 || self.repeat > MAX_REPEAT {
            return Err(IsaError::BadRepeat(self.repeat));
        }
        if self.src.buffer != BufferId::L1 {
            return Err(IsaError::IllegalDatapath {
                instr: "im2col",
                buffer: self.src.buffer,
                role: "src",
            });
        }
        if !matches!(
            self.dst.buffer,
            BufferId::L0A | BufferId::L0B | BufferId::Ub
        ) {
            return Err(IsaError::IllegalDatapath {
                instr: "im2col",
                buffer: self.dst.buffer,
                role: "dst",
            });
        }
        let plane = self.geom.checked_plane_bytes("im2col")?;
        let (oh, ow) = self.geom.validate()?;
        let patches = oh * ow;
        let (kh, kw) = (self.geom.params.kh, self.geom.params.kw);
        if self.k_off.0 >= kh || self.k_off.1 >= kw {
            return Err(IsaError::BadPosition(format!(
                "kernel offset {:?} outside kernel ({kh},{kw})",
                self.k_off
            )));
        }
        if self.c1 >= self.geom.c1_len {
            return Err(IsaError::BadPosition(format!(
                "c1 index {} outside tile c1_len {}",
                self.c1, self.geom.c1_len
            )));
        }
        if self.first_patch >= patches {
            return Err(IsaError::BadPosition(format!(
                "first patch {} outside patch grid {patches}",
                self.first_patch,
            )));
        }
        // Mode-1 repeats must not run off the padded patch grid.
        if self.mode == RepeatMode::Mode1 {
            let max_fractals = (patches - self.first_patch).div_ceil(FRACTAL_ROWS);
            if (self.repeat as usize) > max_fractals {
                return Err(IsaError::BadPosition(format!(
                    "mode-1 repeat {} exceeds remaining fractals {max_fractals}",
                    self.repeat
                )));
            }
        } else {
            // Mode-0 repeats iterate (xk, yk) then c1 and must stay inside.
            let start = (self.c1 * kh * kw) + self.k_off.0 * kw + self.k_off.1;
            let avail = self.geom.c1_len * kh * kw - start;
            if (self.repeat as usize) > avail {
                return Err(IsaError::BadPosition(format!(
                    "mode-0 repeat {} exceeds remaining (c1, xk, yk) slots {avail}",
                    self.repeat
                )));
            }
        }
        // The source span covers planes up to `c1_max`, the destination
        // one fractal per repeat.
        let (_, c1_max) = self.c1_range();
        span_end(
            "im2col",
            "src",
            self.src.offset,
            (c1_max + 1).checked_mul(plane),
        )?;
        let fractals = usize::from(self.repeat) * FRACTAL_BYTES;
        span_end("im2col", "dst", self.dst.offset, Some(fractals))?;
        Ok(())
    }

    /// The sequence of `(c1, xk, yk, first_patch)` positions the repeats
    /// visit, in issue order — the simulator executes these one fractal
    /// each, and tests check mode semantics against this.
    #[allow(clippy::explicit_counter_loop)]
    pub fn repeat_positions(&self) -> Vec<(usize, usize, usize, usize)> {
        let (kh, kw) = (self.geom.params.kh, self.geom.params.kw);
        let mut out = Vec::with_capacity(self.repeat as usize);
        match self.mode {
            RepeatMode::Mode1 => {
                for i in 0..self.repeat as usize {
                    out.push((
                        self.c1,
                        self.k_off.0,
                        self.k_off.1,
                        self.first_patch + i * FRACTAL_ROWS,
                    ));
                }
            }
            RepeatMode::Mode0 => {
                let mut flat = self.c1 * kh * kw + self.k_off.0 * kw + self.k_off.1;
                for _ in 0..self.repeat as usize {
                    let c1 = flat / (kh * kw);
                    let rem = flat % (kh * kw);
                    out.push((c1, rem / kw, rem % kw, self.first_patch));
                    flat += 1;
                }
            }
        }
        out
    }

    /// The `[c1_min, c1_max]` source planes the repeats gather from
    /// (mode 0 walks `c1` forward; mode 1 stays on one plane).
    pub fn c1_range(&self) -> (usize, usize) {
        match self.mode {
            RepeatMode::Mode1 => (self.c1, self.c1),
            RepeatMode::Mode0 => {
                let taps = self.geom.params.kh * self.geom.params.kw;
                let first = self.c1 * taps + self.k_off.0 * self.geom.params.kw + self.k_off.1;
                (self.c1, (first + self.repeat as usize - 1) / taps)
            }
        }
    }
}

/// The `Col2Im` scatter-add instruction (UB -> UB, repeat mode 1 only).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Col2Im {
    /// Geometry of the **output** NC1HWC0 tile ("Col2Im receives the same
    /// parameters as Im2Col referring to its output").
    pub geom: Im2ColGeometry,
    /// Base of the input fractals (Unified Buffer).
    pub src: Addr,
    /// Base of the output NC1HWC0 tile (Unified Buffer, zero-initialised
    /// by the program before the first issue).
    pub dst: Addr,
    /// Linear index of the first patch the first fractal maps to.
    pub first_patch: usize,
    /// Kernel-relative position `(xk, yk)`.
    pub k_off: (usize, usize),
    /// `C1`-dimension index within the destination tile.
    pub c1: usize,
    /// Repeat count (number of fractals merged); mode 1 semantics.
    pub repeat: u16,
}

impl Col2Im {
    /// Validate datapath legality and positional parameters.
    pub fn validate(&self) -> Result<(), IsaError> {
        if self.repeat == 0 || self.repeat > MAX_REPEAT {
            return Err(IsaError::BadRepeat(self.repeat));
        }
        for (addr, role) in [(self.src, "src"), (self.dst, "dst")] {
            if addr.buffer != BufferId::Ub {
                return Err(IsaError::IllegalDatapath {
                    instr: "col2im",
                    buffer: addr.buffer,
                    role,
                });
            }
        }
        let plane = self.geom.checked_plane_bytes("col2im")?;
        let (oh, ow) = self.geom.validate()?;
        let patches = oh * ow;
        let (kh, kw) = (self.geom.params.kh, self.geom.params.kw);
        if self.k_off.0 >= kh || self.k_off.1 >= kw {
            return Err(IsaError::BadPosition(format!(
                "kernel offset {:?} outside kernel ({kh},{kw})",
                self.k_off
            )));
        }
        if self.c1 >= self.geom.c1_len {
            return Err(IsaError::BadPosition(format!(
                "c1 index {} outside tile c1_len {}",
                self.c1, self.geom.c1_len
            )));
        }
        if self.first_patch >= patches {
            return Err(IsaError::BadPosition(format!(
                "first patch {} outside patch grid {patches}",
                self.first_patch,
            )));
        }
        let max_fractals = (patches - self.first_patch).div_ceil(FRACTAL_ROWS);
        if (self.repeat as usize) > max_fractals {
            return Err(IsaError::BadPosition(format!(
                "repeat {} exceeds remaining fractals {max_fractals}",
                self.repeat
            )));
        }
        // One source fractal per repeat; the destination up to the end of
        // plane `c1`.
        let fractals = usize::from(self.repeat) * FRACTAL_BYTES;
        span_end("col2im", "src", self.src.offset, Some(fractals))?;
        span_end(
            "col2im",
            "dst",
            self.dst.offset,
            (self.c1 + 1).checked_mul(plane),
        )?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig5_geom() -> Im2ColGeometry {
        // Fig. 5: 8x8 input, K=(2,2), S=(2,2), no padding -> 4x4 patches.
        Im2ColGeometry::new(8, 8, 1, PoolParams::new((2, 2), (2, 2))).unwrap()
    }

    #[test]
    fn fig5_geometry_has_16_patches() {
        let g = fig5_geom();
        assert_eq!(g.out_dims(), (4, 4));
        assert_eq!(g.patch_count(), 16);
        assert_eq!(g.fractals_per_plane(), 1);
    }

    #[test]
    fn element_coord_resolves_patches() {
        let g = fig5_geom();
        // patch 0 at (0,0): kernel offset (0,1) -> input (0,1)
        assert_eq!(g.element_coord(0, 0, 1), Some((0, 1)));
        // patch 5 = (row 1, col 1) -> starts at (2,2); offset (1,0) -> (3,2)
        assert_eq!(g.element_coord(5, 1, 0), Some((3, 2)));
        // patch 16 is off the grid -> zero-fill
        assert_eq!(g.element_coord(16, 0, 0), None);
    }

    #[test]
    fn element_coord_padding_is_none() {
        use dv_tensor::Padding;
        let params = PoolParams::with_padding((3, 3), (2, 2), Padding::uniform(1));
        let g = Im2ColGeometry::new(5, 5, 1, params).unwrap();
        // patch 0 starts at (-1,-1); offset (0,0) is in the border.
        assert_eq!(g.element_coord(0, 0, 0), None);
        assert_eq!(g.element_coord(0, 1, 1), Some((0, 0)));
    }

    fn fig5_im2col(mode: RepeatMode, repeat: u16) -> Im2Col {
        Im2Col {
            geom: fig5_geom(),
            src: Addr::l1(0),
            dst: Addr::ub(0),
            first_patch: 0,
            k_off: (0, 0),
            c1: 0,
            repeat,
            mode,
        }
    }

    #[test]
    fn mode0_iterates_kernel_offsets() {
        // "the input in Figure 5 can be fully loaded by issuing a single
        // Im2Col starting at (xk, yk) = (0,0) with repeat mode 0 to repeat
        // four times, changing (xk, yk) from (0,0) to (0,1), (1,0) and
        // (1,1)".
        let i = fig5_im2col(RepeatMode::Mode0, 4);
        assert!(i.validate().is_ok());
        assert_eq!(
            i.repeat_positions(),
            vec![(0, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0), (0, 1, 1, 0)]
        );
    }

    #[test]
    fn mode0_continues_into_next_c1() {
        let mut g = fig5_geom();
        g.c1_len = 2;
        let i = Im2Col {
            geom: g,
            src: Addr::l1(0),
            dst: Addr::ub(0),
            first_patch: 0,
            k_off: (1, 1),
            c1: 0,
            repeat: 2,
            mode: RepeatMode::Mode0,
        };
        assert!(i.validate().is_ok());
        // "If the length of C1 is bigger than 1, Im2Col in repetition mode
        // 0 will continue to the next c1 index and iterate over (xk, yk)
        // again."
        assert_eq!(i.repeat_positions(), vec![(0, 1, 1, 0), (1, 0, 0, 0)]);
    }

    #[test]
    fn mode1_iterates_patch_blocks() {
        let params = PoolParams::new((2, 2), (2, 2));
        let g = Im2ColGeometry::new(16, 8, 1, params).unwrap(); // 8x4 = 32 patches
        let i = Im2Col {
            geom: g,
            src: Addr::l1(0),
            dst: Addr::ub(0),
            first_patch: 0,
            k_off: (0, 1),
            c1: 0,
            repeat: 2,
            mode: RepeatMode::Mode1,
        };
        assert!(i.validate().is_ok());
        assert_eq!(i.repeat_positions(), vec![(0, 0, 1, 0), (0, 0, 1, 16)]);
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        let mut i = fig5_im2col(RepeatMode::Mode1, 1);
        i.k_off = (2, 0);
        assert!(matches!(i.validate(), Err(IsaError::BadPosition(_))));

        let mut i = fig5_im2col(RepeatMode::Mode1, 1);
        i.c1 = 1;
        assert!(matches!(i.validate(), Err(IsaError::BadPosition(_))));

        let mut i = fig5_im2col(RepeatMode::Mode1, 2); // only 1 fractal exists
        i.repeat = 2;
        assert!(matches!(i.validate(), Err(IsaError::BadPosition(_))));

        let mut i = fig5_im2col(RepeatMode::Mode0, 5); // only 4 (xk,yk) slots
        i.repeat = 5;
        assert!(matches!(i.validate(), Err(IsaError::BadPosition(_))));

        let mut i = fig5_im2col(RepeatMode::Mode1, 1);
        i.src = Addr::gm(0);
        assert!(matches!(
            i.validate(),
            Err(IsaError::IllegalDatapath {
                instr: "im2col",
                role: "src",
                ..
            })
        ));

        let mut i = fig5_im2col(RepeatMode::Mode1, 1);
        i.dst = Addr::new(BufferId::L0C, 0);
        assert!(matches!(
            i.validate(),
            Err(IsaError::IllegalDatapath {
                instr: "im2col",
                role: "dst",
                ..
            })
        ));
    }

    #[test]
    fn col2im_validation() {
        let g = fig5_geom();
        let ok = Col2Im {
            geom: g,
            src: Addr::ub(0),
            dst: Addr::ub(4096),
            first_patch: 0,
            k_off: (0, 0),
            c1: 0,
            repeat: 1,
        };
        assert!(ok.validate().is_ok());

        let mut bad = ok;
        bad.src = Addr::l1(0); // Col2Im is UB -> UB only (path 8 -> 8)
        assert!(matches!(
            bad.validate(),
            Err(IsaError::IllegalDatapath {
                instr: "col2im",
                ..
            })
        ));

        let mut bad = ok;
        bad.repeat = 2; // Fig. 6's example "could not be loaded using a
                        // repetition" — the grid has only 16 patches.
        assert!(bad.validate().is_err());
    }

    /// Every SCU operand whose span would end past `usize::MAX` is a
    /// typed error: the plane size, the source planes up to `c1_max`
    /// and the destination fractals of `Im2Col`, the source fractals and
    /// the destination planes up to `c1` of `Col2Im`. A span ending
    /// exactly at `usize::MAX` is accepted.
    #[test]
    fn overflowing_operand_spans_are_refused() {
        let plane = fig5_geom().src_plane_bytes();
        let span = |instr, role| Err(IsaError::SpanOverflow { instr, role });
        // Mode 0 from (c1 0, k 1,1) walks into plane 1 of two.
        let mut i = Im2Col {
            geom: Im2ColGeometry::new(8, 8, 2, PoolParams::new((2, 2), (2, 2))).unwrap(),
            k_off: (1, 1),
            repeat: 2,
            ..fig5_im2col(RepeatMode::Mode0, 1)
        };
        i.src.offset = usize::MAX - 2 * plane;
        assert!(i.validate().is_ok());
        i.src.offset += 1;
        assert_eq!(i.validate(), span("im2col", "src"));
        // The probe: one plane below the top of the address space, c1 = 1.
        let mut probe = i;
        probe.src.offset = 0usize.wrapping_sub(plane);
        (probe.c1, probe.k_off, probe.repeat) = (1, (0, 0), 1);
        assert_eq!(probe.validate(), span("im2col", "src"));
        let mut i = fig5_im2col(RepeatMode::Mode0, 4);
        i.dst.offset = usize::MAX - 4 * 512 + 1;
        assert_eq!(i.validate(), span("im2col", "dst"));
        i.geom.ih = usize::MAX / 64;
        assert_eq!(i.validate(), span("im2col", "plane"));

        let mut c = Col2Im {
            geom: Im2ColGeometry::new(8, 8, 2, PoolParams::new((2, 2), (2, 2))).unwrap(),
            src: Addr::ub(usize::MAX - 512),
            dst: Addr::ub(usize::MAX - 2 * plane),
            first_patch: 0,
            k_off: (0, 0),
            c1: 1,
            repeat: 1,
        };
        assert!(c.validate().is_ok());
        c.dst.offset += 1;
        assert_eq!(c.validate(), span("col2im", "dst"));
        c.dst.offset = 0;
        c.src.offset += 1;
        assert_eq!(c.validate(), span("col2im", "src"));
        c.geom.iw = usize::MAX / 64;
        assert_eq!(c.validate(), span("col2im", "plane"));
    }

    #[test]
    fn xy_coordinates_round_trip() {
        // Fig. 5's geometry: patches start every 2 pixels.
        let g = fig5_geom();
        assert_eq!(g.patch_index_of_xy(0, 0), Ok(0));
        assert_eq!(g.patch_index_of_xy(0, 2), Ok(1));
        assert_eq!(g.patch_index_of_xy(2, 0), Ok(4));
        assert_eq!(g.patch_index_of_xy(6, 6), Ok(15));
        for p in 0..g.patch_count() {
            let (x, y) = (p / 4 * 2, p % 4 * 2);
            assert_eq!(
                g.patch_index_of_xy(x as isize, y as isize),
                Ok(p),
                "patch {p}"
            );
        }
        // off-grid and out-of-range positions are rejected
        assert!(g.patch_index_of_xy(1, 0).is_err());
        assert!(g.patch_index_of_xy(0, 3).is_err());
        assert!(g.patch_index_of_xy(8, 0).is_err());
        assert!(g.patch_index_of_xy(-1, 0).is_err());
    }

    #[test]
    fn xy_coordinates_with_padding_are_negative() {
        use dv_tensor::Padding;
        let params = PoolParams::with_padding((3, 3), (2, 2), Padding::uniform(1));
        let g = Im2ColGeometry::new(5, 5, 1, params).unwrap();
        // the first patch starts in the padding border
        assert_eq!(g.patch_index_of_xy(-1, -1), Ok(0));
        assert_eq!(g.patch_index_of_xy(1, -1), Ok(g.out_dims().1));
        assert!(g.patch_index_of_xy(-2, 0).is_err());
    }

    /// The geometry's fields are public: one edited after `new` must
    /// fail both instructions' `validate` with a typed error, never the
    /// `out_dims` panic, so `Program::push` refuses it cleanly.
    #[test]
    fn edited_geometry_fails_typed_through_push() {
        use crate::program::{Instr, Program};
        let kernel_9x9 = |mut g: Im2ColGeometry| {
            g.params = PoolParams::new((9, 9), (1, 1));
            g
        };
        let no_planes = |mut g: Im2ColGeometry| {
            g.c1_len = 0;
            g
        };
        for edit in [kernel_9x9, no_planes] {
            let mut p = Program::new();
            let im2col = Im2Col {
                geom: edit(fig5_geom()),
                ..fig5_im2col(RepeatMode::Mode0, 1)
            };
            assert!(matches!(
                p.push(Instr::Im2Col(im2col)),
                Err(IsaError::Shape(_))
            ));
            let col2im = Col2Im {
                geom: edit(fig5_geom()),
                src: Addr::ub(0),
                dst: Addr::ub(4096),
                first_patch: 0,
                k_off: (0, 0),
                c1: 0,
                repeat: 1,
            };
            assert!(matches!(
                p.push(Instr::Col2Im(col2im)),
                Err(IsaError::Shape(_))
            ));
            assert!(p.is_empty());
        }
        let err = kernel_9x9(fig5_geom()).validate().unwrap_err();
        assert!(matches!(
            err,
            IsaError::Shape(dv_tensor::ShapeError::KernelLargerThanInput { .. })
        ));
    }

    #[test]
    fn geometry_rejects_invalid_pooling() {
        assert!(Im2ColGeometry::new(2, 2, 1, PoolParams::new((3, 3), (1, 1))).is_err());
        assert!(Im2ColGeometry::new(8, 8, 0, PoolParams::new((2, 2), (2, 2))).is_err());
    }
}
