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
//! [`FieldLayout::index`] is that definition, with [`FieldLayout::pad_index`]
//! and [`FieldLayout::decompose`]. It is the device model's geometry, not a
//! host storage order: `quda-multigpu`'s `perf.rs` charges device bytes and
//! the paper's 16-byte blocking ([`NVec::optimal_for_bytes`]) through it,
//! and `quda-gpusim` models the partition camping the pad prevents. The host
//! containers allocate no pad and no blocks: a field stores `sites × N_int`
//! reals, site `x` being the run `N_int·x .. N_int·(x + 1)`, and every
//! ghost, the gauge field's temporal links included, lives in a
//! per-dimension store beside the sites.

use crate::geometry::LatticeDims;

/// Short-vector lengths: QUDA's `float`, `float2`/`double2` and `float4`.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum NVec {
    /// Scalar loads.
    N1,
    /// 2-wide (16-byte `double2`, optimal in double precision).
    N2,
    /// 4-wide (16-byte `float4`, optimal in single/half precision).
    N4,
}

impl NVec {
    /// Numeric width in reals.
    #[inline(always)]
    pub fn width(self) -> usize {
        match self {
            NVec::N1 => 1,
            NVec::N2 => 2,
            NVec::N4 => 4,
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
    /// Build a layout; `n_int` must be divisible by `n_vec`.
    pub fn new(sites: usize, pad: usize, n_int: usize, n_vec: NVec) -> Self {
        let nv = n_vec.width();
        assert!(n_int % nv == 0, "n_int={n_int} not divisible by n_vec={nv}");
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
    /// device keeps the gauge-field ghost time-slice (Section VI-B / Fig. 2).
    #[inline(always)]
    pub fn pad_index(&self, slot: usize, n: usize) -> usize {
        debug_assert!(slot < self.pad, "pad slot {slot} out of {}", self.pad);
        debug_assert!(n < self.n_int);
        self.n_vec * (self.stride() * (n / self.n_vec) + self.sites + slot) + n % self.n_vec
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
    /// (ghosts and normalization arrays are accounted separately).
    pub fn device_bytes(&self, storage_bytes: usize) -> usize {
        self.body_len() * storage_bytes
    }
}

/// Layout constructors matching QUDA's field species.
pub mod species {
    use super::*;
    use quda_math::clover::CLOVER_REALS;
    use quda_math::spinor::SPINOR_REALS;

    /// Reals per compressed link matrix (2 rows × 3 colors × complex).
    pub const LINK_COMPRESSED_REALS: usize = 12;

    /// Single-parity spinor layout with a `Vs/2` pad (used by the even-odd
    /// solver).
    pub fn spinor_cb(dims: &LatticeDims, n_vec: NVec) -> FieldLayout {
        let sites = dims.half_volume();
        let pad = dims.half_spatial_volume();
        FieldLayout::new(sites, pad, SPINOR_REALS, n_vec)
    }

    /// Single-parity gauge layout (per direction μ), 12 reals per
    /// 2-row-compressed link, with the `Vs/2` pad that doubles as the ghost
    /// slice on the device (Fig. 2).
    pub fn gauge_cb(dims: &LatticeDims, n_vec: NVec) -> FieldLayout {
        let sites = dims.half_volume();
        let pad = dims.half_spatial_volume();
        FieldLayout::new(sites, pad, LINK_COMPRESSED_REALS, n_vec)
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
        let l = species::gauge_cb(&dims, NVec::N4);
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
        let g = species::gauge_cb(&dims, NVec::N4);
        assert_eq!(g.blocks(), 3);
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
}
