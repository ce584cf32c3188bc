//! Global memory as a chip run sees it: a `len`-byte address space made
//! of regions the caller lends at fixed offsets — read-only inputs and
//! writable results — with zeros everywhere else.
//!
//! On the DaVinci chip tensors already sit in GM and the MTE reads them
//! in place (paper, Section III). The simulator does the same: every
//! core of a run reads the lent regions through one shared borrow and
//! writes copy-on-write pages of its own (`GmView`), and after all cores
//! finish the chip merges the observed write spans from those pages
//! straight into the writable regions (`GmPages::copy_span_into`). No
//! bytes are staged into or read back out of a separate image. A flat
//! image is the special case of one region covering all of GM
//! ([`LentGm::whole`]).

use crate::buffers::SimError;
use core::fmt;
use dv_isa::BufferId;

/// Bytes per copy-on-write page of a core's GM view.
const GM_PAGE: usize = 4096;

/// How a region is lent to a run.
enum Lent<'a> {
    /// The run may read these bytes, never change them.
    ReadOnly(&'a [u8]),
    /// The run reads these bytes and merges its writes into them.
    Writable(&'a mut [u8]),
}

/// One lent region, at GM byte offset `at`.
struct Region<'a> {
    at: usize,
    bytes: Lent<'a>,
}

impl Region<'_> {
    fn bytes(&self) -> &[u8] {
        match &self.bytes {
            Lent::ReadOnly(b) => b,
            Lent::Writable(b) => b,
        }
    }

    fn end(&self) -> usize {
        self.at + self.bytes().len()
    }
}

impl fmt::Debug for Region<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self.bytes {
            Lent::ReadOnly(_) => "read-only",
            Lent::Writable(_) => "writable",
        };
        write!(f, "{kind} [{:#x}, {:#x})", self.at, self.end())
    }
}

/// A run's global memory: `len` bytes in which the caller lends regions
/// at fixed offsets, read-only ([`LentGm::lend`]) or writable
/// ([`LentGm::lend_mut`]); every byte no region covers reads as zero.
///
/// Offsets and bounds are those of a flat `len`-byte image, so a program
/// runs the same on either. Before any core runs,
/// [`crate::Chip::run_lent`] refuses a declared write span that the
/// writable regions do not cover ([`SimError::UnlentGmWrite`]); the
/// results land in the writable regions and nowhere else.
#[derive(Debug)]
pub struct LentGm<'a> {
    len: usize,
    /// Sorted by offset, pairwise disjoint, each inside `len`, none
    /// empty.
    regions: Vec<Region<'a>>,
}

impl<'a> LentGm<'a> {
    /// `len` bytes of GM with nothing lent yet: all zeros.
    pub fn new(len: usize) -> LentGm<'a> {
        LentGm {
            len,
            regions: Vec::new(),
        }
    }

    /// One flat image lent whole and writable — what
    /// [`crate::Chip::run`] and [`crate::Chip::run_declared`] run on.
    pub fn whole(image: &'a mut [u8]) -> LentGm<'a> {
        let mut gm = LentGm::new(image.len());
        gm.insert(0, Lent::Writable(image))
            .expect("one region covering all of GM fits");
        gm
    }

    /// Lend `bytes` read-only at GM offset `at`. A region that runs past
    /// the end of GM is [`SimError::OutOfBounds`]; one that overlaps an
    /// earlier region is [`SimError::GmRegionOverlap`].
    pub fn lend(&mut self, at: usize, bytes: &'a [u8]) -> Result<(), SimError> {
        self.insert(at, Lent::ReadOnly(bytes))
    }

    /// Lend `bytes` writable at GM offset `at`: the run reads them and
    /// merges its writes into them. Errors as [`LentGm::lend`].
    pub fn lend_mut(&mut self, at: usize, bytes: &'a mut [u8]) -> Result<(), SimError> {
        self.insert(at, Lent::Writable(bytes))
    }

    fn insert(&mut self, at: usize, bytes: Lent<'a>) -> Result<(), SimError> {
        let region = Region { at, bytes };
        let len = region.bytes().len();
        if at.checked_add(len).is_none_or(|end| end > self.len) {
            return Err(SimError::OutOfBounds {
                buffer: BufferId::Gm,
                offset: at,
                len,
                capacity: self.len,
            });
        }
        if len == 0 {
            return Ok(());
        }
        let i = self.regions.partition_point(|r| r.at < at);
        let neighbours = [i.checked_sub(1), Some(i)];
        if let Some(r) = neighbours
            .into_iter()
            .flatten()
            .filter_map(|j| self.regions.get(j))
            .find(|r| r.at < at + len && at < r.end())
        {
            return Err(SimError::GmRegionOverlap {
                lent: (r.at, r.end()),
                new: (at, at + len),
            });
        }
        self.regions.insert(i, region);
        Ok(())
    }

    /// Bytes of GM.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Copy GM bytes `[off, off + out.len())` (range pre-checked).
    pub(crate) fn read(&self, off: usize, out: &mut [u8]) {
        read_regions(&self.regions, off, out);
    }

    /// Whether writable regions cover every byte of `[start, end)`.
    pub(crate) fn writable_covers(&self, start: usize, end: usize) -> bool {
        let mut at = start;
        for r in &self.regions[self.first_ending_after(start)..] {
            if at >= end || r.at > at || matches!(r.bytes, Lent::ReadOnly(_)) {
                break;
            }
            at = r.end();
        }
        at >= end
    }

    /// Copy `data` to GM `[off, off + data.len())`, which writable
    /// regions cover (every caller's span was checked with
    /// [`LentGm::writable_covers`] before any core ran).
    pub(crate) fn write(&mut self, off: usize, data: &[u8]) {
        let end = off + data.len();
        debug_assert!(self.writable_covers(off, end), "unlent GM write");
        let first = self.first_ending_after(off);
        for r in &mut self.regions[first..] {
            if r.at >= end {
                break;
            }
            if let Lent::Writable(bytes) = &mut r.bytes {
                let (s, e) = (off.max(r.at), end.min(r.at + bytes.len()));
                bytes[s - r.at..e - r.at].copy_from_slice(&data[s - off..e - off]);
            }
        }
    }

    /// Index of the first region that ends after `off`.
    fn first_ending_after(&self, off: usize) -> usize {
        self.regions.partition_point(|r| r.end() <= off)
    }
}

/// Copy `[off, off + out.len())` out of `regions` (sorted, disjoint):
/// lent bytes where a region covers them, zeros elsewhere.
fn read_regions(regions: &[Region<'_>], off: usize, out: &mut [u8]) {
    let end = off + out.len();
    let mut at = off;
    for r in &regions[regions.partition_point(|r| r.end() <= off)..] {
        if r.at >= end {
            break;
        }
        if r.at > at {
            out[at - off..r.at - off].fill(0);
            at = r.at;
        }
        let stop = r.end().min(end);
        out[at - off..stop - off].copy_from_slice(&r.bytes()[at - r.at..stop - r.at]);
        at = stop;
    }
    out[at - off..].fill(0);
}

/// One core's view of global memory: the run's lent regions (zeros where
/// nothing is lent), read through the pages this core has written.
/// Writes go to private copies of their pages and never reach the
/// regions; the chip merges them afterwards.
#[derive(Clone, Debug)]
pub(crate) struct GmView<'g> {
    regions: &'g [Region<'g>],
    len: usize,
    /// Written pages by page number, each a private copy of its lent
    /// bytes taken on the first write.
    pages: Vec<Option<Box<[u8]>>>,
    /// Numbers of the `Some` entries of `pages`.
    dirty: Vec<usize>,
}

impl<'g> GmView<'g> {
    /// A view of the run's global memory `gm`.
    pub(crate) fn of(gm: &'g LentGm<'g>) -> GmView<'g> {
        GmView::over(&gm.regions, gm.len)
    }

    /// A view of `len` bytes of zeros — a standalone core's private GM.
    pub(crate) fn zeros(len: usize) -> GmView<'static> {
        GmView::over(&[], len)
    }

    fn over(regions: &'g [Region<'g>], len: usize) -> GmView<'g> {
        GmView {
            regions,
            len,
            pages: vec![None; len.div_ceil(GM_PAGE)],
            dirty: Vec::new(),
        }
    }

    /// Bytes of GM.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Page `p`, copied out of the lent regions on its first write.
    fn page_mut(&mut self, p: usize) -> &mut [u8] {
        if self.pages[p].is_none() {
            let (start, end) = (p * GM_PAGE, ((p + 1) * GM_PAGE).min(self.len));
            let mut page = vec![0; end - start].into_boxed_slice();
            read_regions(self.regions, start, &mut page);
            self.pages[p] = Some(page);
            self.dirty.push(p);
        }
        self.pages[p].as_deref_mut().expect("materialised above")
    }

    /// Copy `[off, off + out.len())` into `out` (range pre-checked). The
    /// bytes of each run of unwritten pages come from the lent regions in
    /// one pass.
    pub(crate) fn read(&self, off: usize, out: &mut [u8]) {
        let mut lent_from = 0;
        for (p, at, done, n) in page_pieces(off, out.len()) {
            if let Some(page) = &self.pages[p] {
                read_regions(self.regions, off + lent_from, &mut out[lent_from..done]);
                out[done..done + n].copy_from_slice(&page[at..at + n]);
                lent_from = done + n;
            }
        }
        read_regions(self.regions, off + lent_from, &mut out[lent_from..]);
    }

    /// Copy `data` to `[off, off + data.len())` (range pre-checked).
    pub(crate) fn write(&mut self, off: usize, data: &[u8]) {
        for (p, at, done, n) in page_pieces(off, data.len()) {
            self.page_mut(p)[at..at + n].copy_from_slice(&data[done..done + n]);
        }
    }

    /// Move the written pages out, leaving the view equal to the lent
    /// regions.
    pub(crate) fn take_pages(&mut self) -> GmPages {
        let mut pages: Vec<(usize, Box<[u8]>)> = self
            .dirty
            .drain(..)
            .map(|p| (p, self.pages[p].take().expect("dirty pages are written")))
            .collect();
        pages.sort_unstable_by_key(|&(p, _)| p);
        GmPages { pages }
    }
}

/// The GM pages one core wrote, taken out of its view so the chip can
/// merge the observed write spans back after every core has finished.
#[derive(Debug)]
pub(crate) struct GmPages {
    /// `(page number, bytes)`, sorted by page number.
    pages: Vec<(usize, Box<[u8]>)>,
}

impl GmPages {
    /// Copy GM `[start, end)` from these pages into the writable regions
    /// of `gm`. Every byte of the span must have been written
    /// (execution-observed write spans are).
    pub(crate) fn copy_span_into(&self, gm: &mut LentGm<'_>, start: usize, end: usize) {
        for (p, at, done, n) in page_pieces(start, end - start) {
            let i = self
                .pages
                .binary_search_by_key(&p, |&(q, _)| q)
                .expect("an observed GM write materialised its page");
            gm.write(start + done, &self.pages[i].1[at..at + n]);
        }
    }
}

/// Split the GM span `[off, off + len)` at page boundaries into pieces
/// `(page number, offset in the page, offset in the span, length)`.
fn page_pieces(off: usize, len: usize) -> impl Iterator<Item = (usize, usize, usize, usize)> {
    let mut done = 0;
    std::iter::from_fn(move || {
        (done < len).then(|| {
            let at = off + done;
            let n = (GM_PAGE - at % GM_PAGE).min(len - done);
            let piece = (at / GM_PAGE, at % GM_PAGE, done, n);
            done += n;
            piece
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 64 bytes of GM: read-only `[8, 16)`, writable `[24, 32)` and
    /// `[32, 40)` (adjacent), zeros elsewhere.
    fn lent<'a>(input: &'a [u8], out_a: &'a mut [u8], out_b: &'a mut [u8]) -> LentGm<'a> {
        let mut gm = LentGm::new(64);
        gm.lend_mut(32, out_b).unwrap();
        gm.lend(8, input).unwrap();
        gm.lend_mut(24, out_a).unwrap();
        gm
    }

    #[test]
    fn reads_see_lent_bytes_and_zeros_between() {
        let input: Vec<u8> = (1..=8).collect();
        let (mut a, mut b) = ([0xAA; 8], [0xBB; 8]);
        let gm = lent(&input, &mut a, &mut b);
        let mut all = [0xFF; 64];
        gm.read(0, &mut all);
        let mut want = [0; 64];
        want[8..16].copy_from_slice(&input);
        want[24..32].fill(0xAA);
        want[32..40].fill(0xBB);
        assert_eq!(all, want);
        let mut piece = [0xFF; 12];
        gm.read(12, &mut piece);
        assert_eq!(piece, want[12..24]);
        gm.read(40, &mut []);
    }

    #[test]
    fn writes_land_in_writable_regions_across_a_seam() {
        let input = [7u8; 8];
        let (mut a, mut b) = ([0; 8], [0; 8]);
        {
            let mut gm = lent(&input, &mut a, &mut b);
            assert!(gm.writable_covers(24, 40), "adjacent writable regions");
            assert!(gm.writable_covers(30, 30), "an empty span is covered");
            assert!(!gm.writable_covers(8, 16), "read-only");
            assert!(!gm.writable_covers(20, 28), "a gap before the region");
            assert!(!gm.writable_covers(36, 44), "a gap after the region");
            gm.write(28, &[1, 2, 3, 4, 5, 6, 7, 8]);
        }
        assert_eq!(a, [0, 0, 0, 0, 1, 2, 3, 4]);
        assert_eq!(b, [5, 6, 7, 8, 0, 0, 0, 0]);
    }

    #[test]
    fn overlapping_and_oversized_regions_are_typed_errors() {
        let (x, y) = ([0u8; 16], [0u8; 16]);
        let mut gm = LentGm::new(64);
        gm.lend(16, &x).unwrap();
        assert_eq!(
            gm.lend(24, &y),
            Err(SimError::GmRegionOverlap {
                lent: (16, 32),
                new: (24, 40)
            })
        );
        assert_eq!(
            gm.lend(8, &y),
            Err(SimError::GmRegionOverlap {
                lent: (16, 32),
                new: (8, 24)
            })
        );
        assert_eq!(
            gm.lend(56, &y),
            Err(SimError::OutOfBounds {
                buffer: BufferId::Gm,
                offset: 56,
                len: 16,
                capacity: 64
            })
        );
        assert!(gm.lend(usize::MAX, &y).is_err(), "offset overflow");
        gm.lend(0, &y).unwrap();
        gm.lend(64, &[]).unwrap();
        assert_eq!(
            format!("{:?}", gm.regions),
            "[read-only [0x0, 0x10), read-only [0x10, 0x20)]"
        );
    }

    /// A core's first write to a page that straddles a read-only and a
    /// writable region copies both into its page; reads see the write
    /// over the lent bytes, and the merge-back lands only the span it is
    /// given, in the writable region.
    #[test]
    fn a_written_page_straddling_two_regions_reads_through() {
        let input: Vec<u8> = (0..=255).cycle().take(GM_PAGE).collect();
        let mut out = vec![0x55u8; GM_PAGE];
        let seam = GM_PAGE / 2 + GM_PAGE;
        let mut gm = LentGm::new(3 * GM_PAGE);
        gm.lend(GM_PAGE / 2, &input).unwrap();
        gm.lend_mut(seam, &mut out).unwrap();
        let mut view = GmView::of(&gm);
        view.write(seam - 4, &[9; 8]);
        let mut got = vec![0; 3 * GM_PAGE];
        view.read(0, &mut got);
        let mut want = vec![0; 3 * GM_PAGE];
        gm.read(0, &mut want);
        assert_eq!(
            want[seam - 4..seam + 4],
            [252, 253, 254, 255, 0x55, 0x55, 0x55, 0x55]
        );
        want[seam - 4..seam + 4].fill(9);
        assert_eq!(got, want);
        let pages = view.take_pages();
        pages.copy_span_into(&mut gm, seam, seam + 4);
        drop(gm);
        assert_eq!(out[..6], [9, 9, 9, 9, 0x55, 0x55]);
    }
}
