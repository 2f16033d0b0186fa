//! The QUDA device-field memory layout (Section V-B, Eqs. 3–5, Fig. 2).
//!
//! A field with `N_int` internal reals per site over `sites` sites is stored
//! as `N_int / N_vec` *blocks*. Each block holds one short-vector
//! (`N_vec` reals) per site, so consecutive threads (sites) read consecutive
//! `N_vec`-real chunks — the coalescing condition. Blocks are separated by a
//! padding region of `pad` sites to break partition camping; the paper picks
//! `pad = Vs = X·Y·Z` so a ghost time-slice of gauge links fits exactly
//! inside the pad.
//!
//! The linear index of internal real `n` at site `x` is Eq. 5:
//!
//! ```text
//! i = N_vec * ( stride * (n / N_vec) + x ) + n % N_vec ,   stride = sites + pad
//! ```
//!
//! The host containers store Eq. 5 at `N_vec = N_int` ([`NVec::SiteMajor`]):
//! one block, so each site's reals are contiguous at `N_int · x` and the pad
//! is one run of `pad` sites after the last one. That is the order a CPU
//! core streams best; the paper's 16-byte blocking
//! ([`NVec::optimal_for_bytes`]), which coalesces GPU threads, is what the
//! device cost model charges.
//!
//! [`FieldLayout::index`] is that definition, kept as the test oracle (with
//! [`FieldLayout::pad_index`] and [`FieldLayout::decompose`]). The field
//! accessors never call it per real: they move a whole site through
//! [`FieldLayout::gather`]/[`FieldLayout::scatter`], which match on `N_vec`
//! once and walk the site's blocks with the width a compile-time constant,
//! so the `k`-th block is the `N_vec`-real slice at
//! `N_vec * (k * stride + x)` — one base plus fixed offsets, no divide.
//!
//! A layout describes the Eq. 5 body only. Halo storage is not part of it:
//! the gauge field's temporal ghost links sit in the pad slots
//! ([`FieldLayout::pad_index`], Section VI-B), and a spinor field keeps the
//! ghosts of every open dimension in per-dimension arrays beside its body,
//! so a reduction over the body never sees a ghost.

use crate::geometry::LatticeDims;

/// Short-vector lengths: QUDA's (`float`, `float2`/`double`, `float4`) and
/// the site-major order the host containers store.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum NVec {
    /// Scalar loads.
    N1,
    /// 2-wide (16-byte `double2`, optimal in double precision).
    N2,
    /// 4-wide (16-byte `float4`, optimal in single/half precision).
    N4,
    /// One vector of all `N_int` reals: each site contiguous.
    SiteMajor,
}

impl NVec {
    /// Numeric width for a field of `n_int` reals per site.
    #[inline(always)]
    pub fn width(self, n_int: usize) -> usize {
        match self {
            NVec::N1 => 1,
            NVec::N2 => 2,
            NVec::N4 => 4,
            NVec::SiteMajor => n_int,
        }
    }

    /// The paper's optimum for a given storage width in bytes: 16-byte
    /// vectors, i.e. `float4` for 4-byte reals and `double2` for 8-byte.
    pub fn optimal_for_bytes(storage_bytes: usize) -> NVec {
        match storage_bytes {
            8 => NVec::N2,
            4 => NVec::N4,
            2 => NVec::N4, // short4 in half precision
            1 => NVec::N4, // char4 in the 8-bit extension
            _ => NVec::N1,
        }
    }
}

/// The widths [`FieldLayout::gather`]/[`FieldLayout::scatter`] move at a
/// compile-time width: the paper's short vectors and the site-major widths
/// of the containers (compressed and full links, spinor, clover).
const GATHER_WIDTHS: [usize; 7] = [1, 2, 4, 12, 18, 24, 72];

/// Memory layout of one field (Eq. 5 of the paper).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct FieldLayout {
    /// Number of real data sites (V, or V/2 for single-parity fields).
    pub sites: usize,
    /// Padding sites between blocks (the paper uses one spatial volume).
    pub pad: usize,
    /// Internal reals per site (24 spinor, 12 compressed link, 72 clover).
    pub n_int: usize,
    /// Short-vector length.
    pub n_vec: usize,
}

impl FieldLayout {
    /// Build a layout; `n_int` must be divisible by `n_vec`, and the
    /// resolved width must be one the site movers handle.
    pub fn new(sites: usize, pad: usize, n_int: usize, n_vec: NVec) -> Self {
        let nv = n_vec.width(n_int);
        assert!(n_int % nv == 0, "n_int={n_int} not divisible by n_vec={nv}");
        assert!(GATHER_WIDTHS.contains(&nv), "n_vec={nv} has no gather width");
        assert!(sites > 0);
        FieldLayout { sites, pad, n_int, n_vec: nv }
    }

    /// Distance between blocks in units of short vectors: `sites + pad`.
    #[inline(always)]
    pub fn stride(&self) -> usize {
        self.sites + self.pad
    }

    /// Number of blocks: `N_int / N_vec`.
    #[inline(always)]
    pub fn blocks(&self) -> usize {
        self.n_int / self.n_vec
    }

    /// Total reals of the blocked, padded body.
    #[inline(always)]
    pub fn body_len(&self) -> usize {
        self.blocks() * self.stride() * self.n_vec
    }

    /// Eq. 5: linear index of internal real `n` at site `x`.
    #[inline(always)]
    pub fn index(&self, site: usize, n: usize) -> usize {
        debug_assert!(site < self.sites, "site {site} out of {}", self.sites);
        debug_assert!(n < self.n_int);
        self.n_vec * (self.stride() * (n / self.n_vec) + site) + n % self.n_vec
    }

    /// Index of internal real `n` for pad slot `slot` (0..pad) — where the
    /// gauge-field ghost time-slice lives (Section VI-B / Fig. 2).
    #[inline(always)]
    pub fn pad_index(&self, slot: usize, n: usize) -> usize {
        debug_assert!(slot < self.pad, "pad slot {slot} out of {}", self.pad);
        debug_assert!(n < self.n_int);
        self.n_vec * (self.stride() * (n / self.n_vec) + self.sites + slot) + n % self.n_vec
    }

    /// Block position of pad slot `slot` (0..pad), for
    /// [`FieldLayout::gather`]/[`FieldLayout::scatter`]: `sites + slot`.
    #[inline(always)]
    pub fn pad_pos(&self, slot: usize) -> usize {
        debug_assert!(slot < self.pad, "pad slot {slot} out of {}", self.pad);
        self.sites + slot
    }

    /// Read the `n_int` reals stored at block position `pos` (a site, or
    /// [`FieldLayout::pad_pos`] of a pad slot) into `out`, in internal order
    /// `n`, converting each element with `load`. Reads exactly the elements
    /// at `index(pos, n)`; one bounds check per block, no divide.
    #[inline(always)]
    pub fn gather<E: Copy, T>(&self, buf: &[E], pos: usize, out: &mut [T], load: impl Fn(E) -> T) {
        debug_assert!(pos < self.stride(), "position {pos} out of {}", self.stride());
        debug_assert_eq!(out.len(), self.n_int);
        let stride = self.stride();
        match self.n_vec {
            1 => gather_nv::<1, E, T>(buf, stride, pos, out, load),
            2 => gather_nv::<2, E, T>(buf, stride, pos, out, load),
            4 => gather_nv::<4, E, T>(buf, stride, pos, out, load),
            12 => gather_nv::<12, E, T>(buf, stride, pos, out, load),
            18 => gather_nv::<18, E, T>(buf, stride, pos, out, load),
            24 => gather_nv::<24, E, T>(buf, stride, pos, out, load),
            72 => gather_nv::<72, E, T>(buf, stride, pos, out, load),
            nv => unreachable!("n_vec {nv} is not an NVec width"),
        }
    }

    /// Write the `n_int` reals of `reals` (internal order `n`) to block
    /// position `pos`, converting each with `store`: the inverse of
    /// [`FieldLayout::gather`], touching exactly the elements it reads.
    #[inline(always)]
    pub fn scatter<E, T: Copy>(
        &self,
        buf: &mut [E],
        pos: usize,
        reals: &[T],
        store: impl Fn(T) -> E,
    ) {
        debug_assert!(pos < self.stride(), "position {pos} out of {}", self.stride());
        debug_assert_eq!(reals.len(), self.n_int);
        let stride = self.stride();
        match self.n_vec {
            1 => scatter_nv::<1, E, T>(buf, stride, pos, reals, store),
            2 => scatter_nv::<2, E, T>(buf, stride, pos, reals, store),
            4 => scatter_nv::<4, E, T>(buf, stride, pos, reals, store),
            12 => scatter_nv::<12, E, T>(buf, stride, pos, reals, store),
            18 => scatter_nv::<18, E, T>(buf, stride, pos, reals, store),
            24 => scatter_nv::<24, E, T>(buf, stride, pos, reals, store),
            72 => scatter_nv::<72, E, T>(buf, stride, pos, reals, store),
            nv => unreachable!("n_vec {nv} is not an NVec width"),
        }
    }

    /// Inverse of [`FieldLayout::index`], for testing and reshuffling:
    /// returns `(site, n)` for a body index, or `None` if the index falls in
    /// padding or beyond the body.
    pub fn decompose(&self, i: usize) -> Option<(usize, usize)> {
        if i >= self.body_len() {
            return None;
        }
        let nv = self.n_vec;
        let within = i % nv;
        let chunk = i / nv;
        let site = chunk % self.stride();
        let block = chunk / self.stride();
        if site >= self.sites {
            return None; // padding
        }
        Some((site, block * nv + within))
    }

    /// Bytes of device memory the body occupies at `storage_bytes` per real
    /// (ghosts and normalization arrays are accounted by the field types).
    pub fn device_bytes(&self, storage_bytes: usize) -> usize {
        self.body_len() * storage_bytes
    }
}

/// [`FieldLayout::gather`] at compile-time width `NV`: block `k` of
/// position `pos` starts at `NV * (k * stride + pos)`.
#[inline(always)]
fn gather_nv<const NV: usize, E: Copy, T>(
    buf: &[E],
    stride: usize,
    pos: usize,
    out: &mut [T],
    load: impl Fn(E) -> T,
) {
    let mut at = NV * pos;
    for block in out.chunks_exact_mut(NV) {
        for (o, &e) in block.iter_mut().zip(&buf[at..at + NV]) {
            *o = load(e);
        }
        at += NV * stride;
    }
}

/// [`FieldLayout::scatter`] at compile-time width `NV`.
#[inline(always)]
fn scatter_nv<const NV: usize, E, T: Copy>(
    buf: &mut [E],
    stride: usize,
    pos: usize,
    reals: &[T],
    store: impl Fn(T) -> E,
) {
    let mut at = NV * pos;
    for block in reals.chunks_exact(NV) {
        for (e, &r) in buf[at..at + NV].iter_mut().zip(block) {
            *e = store(r);
        }
        at += NV * stride;
    }
}

/// Layout constructors matching QUDA's field species.
pub mod species {
    use super::*;
    use quda_math::clover::CLOVER_REALS;
    use quda_math::spinor::SPINOR_REALS;

    /// Reals per compressed link matrix (2 rows × 3 colors × complex).
    pub const LINK_COMPRESSED_REALS: usize = 12;
    /// Reals per full link matrix.
    pub const LINK_FULL_REALS: usize = 18;

    /// Single-parity spinor layout with a `Vs/2` pad (used by the even-odd
    /// solver).
    pub fn spinor_cb(dims: &LatticeDims, n_vec: NVec) -> FieldLayout {
        let sites = dims.half_volume();
        let pad = dims.half_spatial_volume();
        FieldLayout::new(sites, pad, SPINOR_REALS, n_vec)
    }

    /// Single-parity gauge layout (per direction μ), 12 reals per link
    /// compressed or 18 full, with the `Vs/2` pad that doubles as the ghost
    /// slice (Fig. 2).
    pub fn gauge_cb(dims: &LatticeDims, n_vec: NVec, compressed: bool) -> FieldLayout {
        let sites = dims.half_volume();
        let pad = dims.half_spatial_volume();
        let n_int = if compressed { LINK_COMPRESSED_REALS } else { LINK_FULL_REALS };
        FieldLayout::new(sites, pad, n_int, n_vec)
    }

    /// Single-parity clover layout (72 reals/site).
    pub fn clover_cb(dims: &LatticeDims, n_vec: NVec) -> FieldLayout {
        let sites = dims.half_volume();
        let pad = dims.half_spatial_volume();
        FieldLayout::new(sites, pad, CLOVER_REALS, n_vec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::LatticeDims;

    #[test]
    fn eq4_reduces_to_eq5_with_zero_pad() {
        // With pad = 0, Eq. 5 is exactly Eq. 4.
        let l = FieldLayout::new(100, 0, 24, NVec::N4);
        let v = 100;
        for &(x, n) in &[(0usize, 0usize), (7, 3), (99, 23), (42, 12)] {
            let expect = 4 * (v * (n / 4) + x) + n % 4;
            assert_eq!(l.index(x, n), expect);
        }
    }

    #[test]
    fn index_is_bijective_over_body() {
        let l = FieldLayout::new(48, 8, 24, NVec::N4);
        let mut seen = vec![false; l.body_len()];
        for site in 0..l.sites {
            for n in 0..l.n_int {
                let i = l.index(site, n);
                assert!(!seen[i], "collision at site={site} n={n}");
                seen[i] = true;
                assert_eq!(l.decompose(i), Some((site, n)));
            }
        }
        // Unvisited positions are exactly the pad slots.
        let unvisited = seen.iter().filter(|&&s| !s).count();
        assert_eq!(unvisited, l.pad * l.blocks() * l.n_vec);
    }

    #[test]
    fn consecutive_sites_are_coalesced() {
        // Threads x and x+1 must read adjacent N_vec-real chunks.
        let l = FieldLayout::new(64, 16, 24, NVec::N4);
        for n0 in [0usize, 4, 20] {
            for x in 0..l.sites - 1 {
                assert_eq!(l.index(x + 1, n0), l.index(x, n0) + 4);
            }
        }
    }

    #[test]
    fn cursor_matches_index_at_every_width() {
        for nv in [NVec::N1, NVec::N2, NVec::N4, NVec::SiteMajor] {
            let l = FieldLayout::new(6, 2, 12, nv);
            let mut buf = vec![usize::MAX; l.body_len() + 2];
            for pos in 0..l.stride() {
                let tags: Vec<usize> = (0..12).map(|n| 100 * pos + n).collect();
                l.scatter(&mut buf, pos, &tags, |t| t);
                let mut back = [0usize; 12];
                l.gather(&buf, pos, &mut back, |e| e);
                assert_eq!(back[..], tags[..]);
            }
            for (n, &tag) in buf[..l.body_len()].iter().enumerate() {
                let (pos, k) = (tag / 100, tag % 100);
                let i = if pos < l.sites { l.index(pos, k) } else { l.pad_index(pos - 6, k) };
                assert_eq!(i, n, "{nv:?}");
            }
            assert!(buf[l.body_len()..].iter().all(|&e| e == usize::MAX));
        }
    }

    #[test]
    fn pad_region_disjoint_from_body() {
        let l = FieldLayout::new(32, 8, 12, NVec::N4);
        let mut body = vec![false; l.body_len()];
        for site in 0..l.sites {
            for n in 0..l.n_int {
                body[l.index(site, n)] = true;
            }
        }
        for slot in 0..l.pad {
            for n in 0..l.n_int {
                let i = l.pad_index(slot, n);
                assert!(!body[i], "pad overlaps body at slot={slot} n={n}");
                assert!(i < l.body_len());
            }
        }
    }

    #[test]
    fn gauge_ghost_slice_fits_exactly_in_pad() {
        // The paper chose pad = Vs so a time-slice of links hides in it.
        let dims = LatticeDims::new(4, 4, 4, 8);
        let l = species::gauge_cb(&dims, NVec::N4, true);
        assert_eq!(l.pad, dims.half_spatial_volume());
        // One ghost link per pad slot, all 12 reals addressable.
        for slot in 0..l.pad {
            for n in 0..l.n_int {
                let i = l.pad_index(slot, n);
                assert!(i < l.body_len());
            }
        }
    }

    #[test]
    fn optimal_nvec_is_16_bytes() {
        assert_eq!(NVec::optimal_for_bytes(4), NVec::N4); // float4
        assert_eq!(NVec::optimal_for_bytes(8), NVec::N2); // double2
        assert_eq!(NVec::optimal_for_bytes(2), NVec::N4); // short4
    }

    #[test]
    fn spinor_blocks_match_paper_example() {
        // "in single precision ... 6 blocks would be needed to store the 24V
        // numbers that make up a color-spinor" (Fig. 2 caption).
        let dims = LatticeDims::new(4, 4, 4, 4);
        let l = species::spinor_cb(&dims, NVec::N4);
        assert_eq!(l.blocks(), 6);
        // "in 2-row storage, the gauge field would need 3 blocks".
        let g = species::gauge_cb(&dims, NVec::N4, true);
        assert_eq!(g.blocks(), 3);
    }

    #[test]
    fn full_gauge_is_site_major_at_18_reals() {
        let dims = LatticeDims::new(4, 4, 4, 4);
        let g = species::gauge_cb(&dims, NVec::SiteMajor, false);
        assert_eq!(g.n_int, 18);
        assert_eq!(g.n_vec, 18);
        assert_eq!(g.blocks(), 1);
    }

    #[test]
    fn site_major_stores_each_site_contiguously() {
        for n_int in [12, 18, 24, 72] {
            let l = FieldLayout::new(10, 3, n_int, NVec::SiteMajor);
            assert_eq!((l.n_vec, l.blocks()), (n_int, 1));
            assert_eq!(l.body_len(), n_int * 13);
            for x in 0..l.sites {
                for n in 0..n_int {
                    assert_eq!(l.index(x, n), n_int * x + n);
                }
            }
            for slot in 0..l.pad {
                for n in 0..n_int {
                    assert_eq!(l.pad_index(slot, n), n_int * (l.sites + slot) + n);
                }
            }
        }
    }

    #[test]
    fn device_bytes_scale_with_storage() {
        let l = FieldLayout::new(128, 32, 24, NVec::N4);
        assert_eq!(l.device_bytes(4), l.body_len() * 4);
        assert_eq!(l.device_bytes(2), l.body_len() * 2);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn indivisible_nvec_rejected() {
        FieldLayout::new(10, 0, 18, NVec::N4);
    }

    #[test]
    #[should_panic(expected = "no gather width")]
    fn site_major_width_without_a_gather_arm_rejected() {
        FieldLayout::new(10, 0, 6, NVec::SiteMajor);
    }
}
