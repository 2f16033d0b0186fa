//! Precomputed nearest-neighbor stencil tables for the even-odd Dirac
//! operator, with explicit classification of domain-boundary crossings.
//!
//! The paper's multi-GPU decomposition slices only the time dimension
//! (Section VI-A); the 4-d generalization (arXiv:1109.2935) opens any subset
//! of dimensions, the paper's case being `[false, false, false, true]`. A
//! table built with [`Stencil::with_open`] marks crossings of each open
//! dimension as ghost references carrying the per-dimension *face index* —
//! the position of the site within its boundary slice — which is exactly
//! the offset used in both the ghost zones of the spinor field and the
//! ghost-link store of the gauge field.

use crate::geometry::{Coord, LatticeDims, Parity, DIR_X, DIR_Y, DIR_Z};

/// How a neighbor access resolves.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum BoundaryKind {
    /// Neighbor is a local site; `idx` is its checkerboard index.
    Interior,
    /// Neighbor lives on the backward neighboring domain of the hop's
    /// dimension; `idx` is the face index into the backward ghost zone.
    GhostBackward,
    /// Neighbor lives on the forward neighboring domain of the hop's
    /// dimension; `idx` is the face index into the forward ghost zone.
    GhostForward,
}

/// One resolved neighbor reference.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct NeighborRef {
    /// Checkerboard index (Interior) or face index (Ghost*).
    pub idx: u32,
    /// Classification.
    pub kind: BoundaryKind,
}

/// Stencil tables for one output parity.
#[derive(Clone, Debug)]
pub struct ParityStencil {
    /// `fwd[mu][site]`: the +μ neighbor of each site.
    pub fwd: [Vec<NeighborRef>; 4],
    /// `bwd[mu][site]`: the −μ neighbor of each site.
    pub bwd: [Vec<NeighborRef>; 4],
    /// For each site, the *highest* open dimension on whose boundary the
    /// site lies (`None` = interior of every open dimension). Driving the
    /// exterior updates in ascending-dimension order and gating each site
    /// on its highest face dimension updates every boundary site exactly
    /// once, after all the ghosts it reads have arrived — including corner
    /// sites on several faces at once.
    pub last_face_dim: Vec<Option<u8>>,
}

/// Complete stencil for both parities.
#[derive(Clone, Debug)]
pub struct Stencil {
    /// Local lattice dimensions.
    pub dims: LatticeDims,
    /// Per-dimension domain-boundary flags, X..T. An open dimension's
    /// periodic wraps resolve to ghost references instead of local sites.
    pub open: [bool; 4],
    /// Tables indexed by output parity (`[even, odd]`).
    pub parity: [ParityStencil; 2],
}

impl Stencil {
    /// Build the stencil for a local volume with only the temporal
    /// boundary optionally open: [`Stencil::with_open`] at the paper's 1-d
    /// slice.
    pub fn new(dims: LatticeDims, t_open: bool) -> Self {
        Self::with_open(dims, [false, false, false, t_open])
    }

    /// Build the stencil with an arbitrary set of open dimensions (the
    /// 4-d process-grid decomposition).
    pub fn with_open(dims: LatticeDims, open: [bool; 4]) -> Self {
        let even = build_parity(&dims, Parity::Even, open);
        let odd = build_parity(&dims, Parity::Odd, open);
        Stencil { dims, open, parity: [even, odd] }
    }

    /// Table for a given output parity.
    #[inline(always)]
    pub fn for_parity(&self, p: Parity) -> &ParityStencil {
        &self.parity[p.as_usize()]
    }

    /// Face index of a coordinate on a `dir`-boundary slice: its
    /// checkerboard position within that slice. One transverse coordinate
    /// is halved (Y for X-faces, X otherwise), so a site and its cross-face
    /// neighbor — which differ only in the `dir` coordinate — share the
    /// index. For `dir = 3` it is the site's checkerboard index modulo the
    /// time-slice (`cb mod Vs/2`).
    #[inline(always)]
    pub fn face_index_dim(dims: &LatticeDims, c: Coord, dir: usize) -> usize {
        match dir {
            DIR_X => c.y / 2 + (dims.y / 2) * (c.z + dims.z * c.t),
            DIR_Y => c.x / 2 + (dims.x / 2) * (c.z + dims.z * c.t),
            DIR_Z => c.x / 2 + (dims.x / 2) * (c.y + dims.y * c.t),
            _ => c.x / 2 + (dims.x / 2) * (c.y + dims.y * c.z),
        }
    }

    /// Inverse of [`Stencil::face_index_dim`]: the coordinate of face site
    /// `face` on the `dir`-boundary slice `c_dir = fixed`, for a site of
    /// checkerboard `parity`. The halved transverse coordinate is
    /// reconstructed from the parity constraint.
    pub fn face_coord(
        dims: &LatticeDims,
        dir: usize,
        parity: Parity,
        fixed: usize,
        face: usize,
    ) -> Coord {
        let p = parity.as_usize();
        match dir {
            DIR_X => {
                let yh = face % (dims.y / 2);
                let rest = face / (dims.y / 2);
                let (z, t) = (rest % dims.z, rest / dims.z);
                let y = 2 * yh + ((p + fixed + z + t) & 1);
                Coord::new(fixed, y, z, t)
            }
            DIR_Y => {
                let xh = face % (dims.x / 2);
                let rest = face / (dims.x / 2);
                let (z, t) = (rest % dims.z, rest / dims.z);
                let x = 2 * xh + ((p + fixed + z + t) & 1);
                Coord::new(x, fixed, z, t)
            }
            DIR_Z => {
                let xh = face % (dims.x / 2);
                let rest = face / (dims.x / 2);
                let (y, t) = (rest % dims.y, rest / dims.y);
                let x = 2 * xh + ((p + y + fixed + t) & 1);
                Coord::new(x, y, fixed, t)
            }
            _ => {
                let xh = face % (dims.x / 2);
                let rest = face / (dims.x / 2);
                let (y, z) = (rest % dims.y, rest / dims.y);
                let x = 2 * xh + ((p + y + z + fixed) & 1);
                Coord::new(x, y, z, fixed)
            }
        }
    }

    /// Face sites per parity of a `dir`-boundary slice of `dims`.
    #[inline(always)]
    pub fn face_sites_dim(dims: &LatticeDims, dir: usize) -> usize {
        dims.volume() / dims.extent(dir) / 2
    }
}

fn build_parity(dims: &LatticeDims, out_parity: Parity, open: [bool; 4]) -> ParityStencil {
    let n = dims.half_volume();
    let mut fwd: [Vec<NeighborRef>; 4] = std::array::from_fn(|_| Vec::with_capacity(n));
    let mut bwd: [Vec<NeighborRef>; 4] = std::array::from_fn(|_| Vec::with_capacity(n));
    let mut last_face_dim = Vec::with_capacity(n);
    for cb in 0..n {
        let c = dims.cb_coord(out_parity, cb);
        let mut last = None;
        for (dim, &is_open) in open.iter().enumerate() {
            if is_open && (c.get(dim) == 0 || c.get(dim) == dims.extent(dim) - 1) {
                last = Some(dim as u8);
            }
        }
        last_face_dim.push(last);
        for (mu, table) in fwd.iter_mut().enumerate() {
            table.push(resolve(dims, c, mu, true, open));
        }
        for (mu, table) in bwd.iter_mut().enumerate() {
            table.push(resolve(dims, c, mu, false, open));
        }
    }
    ParityStencil { fwd, bwd, last_face_dim }
}

fn resolve(dims: &LatticeDims, c: Coord, mu: usize, forward: bool, open: [bool; 4]) -> NeighborRef {
    let (nc, wrapped) = dims.neighbor(c, mu, forward);
    if open[mu] && wrapped {
        let face = Stencil::face_index_dim(dims, nc, mu) as u32;
        let kind = if forward { BoundaryKind::GhostForward } else { BoundaryKind::GhostBackward };
        NeighborRef { idx: face, kind }
    } else {
        NeighborRef { idx: dims.cb_index(nc) as u32, kind: BoundaryKind::Interior }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::DIR_T;

    fn dims() -> LatticeDims {
        LatticeDims::new(4, 4, 6, 8)
    }

    #[test]
    fn closed_stencil_has_no_ghosts() {
        let s = Stencil::new(dims(), false);
        for p in [Parity::Even, Parity::Odd] {
            let t = s.for_parity(p);
            for mu in 0..4 {
                assert!(t.fwd[mu].iter().all(|r| r.kind == BoundaryKind::Interior));
                assert!(t.bwd[mu].iter().all(|r| r.kind == BoundaryKind::Interior));
            }
            assert!(t.last_face_dim.iter().all(|l| l.is_none()));
        }
    }

    #[test]
    fn open_stencil_marks_only_temporal_faces() {
        let d = dims();
        let s = Stencil::new(d, true);
        for p in [Parity::Even, Parity::Odd] {
            let t = s.for_parity(p);
            for (cb, r) in t.fwd[DIR_T].iter().enumerate() {
                let c = d.cb_coord(p, cb);
                if c.t == d.t - 1 {
                    assert_eq!(r.kind, BoundaryKind::GhostForward);
                } else {
                    assert_eq!(r.kind, BoundaryKind::Interior);
                }
            }
            for (cb, r) in t.bwd[DIR_T].iter().enumerate() {
                let c = d.cb_coord(p, cb);
                if c.t == 0 {
                    assert_eq!(r.kind, BoundaryKind::GhostBackward);
                } else {
                    assert_eq!(r.kind, BoundaryKind::Interior);
                }
            }
            // Spatial directions never ghost.
            for mu in [DIR_X, DIR_Y, DIR_Z] {
                assert!(t.fwd[mu].iter().all(|r| r.kind == BoundaryKind::Interior));
                assert!(t.bwd[mu].iter().all(|r| r.kind == BoundaryKind::Interior));
            }
        }
    }

    #[test]
    fn interior_refs_match_geometry() {
        let d = dims();
        let s = Stencil::new(d, false);
        for p in [Parity::Even, Parity::Odd] {
            let t = s.for_parity(p);
            for cb in 0..d.half_volume() {
                let c = d.cb_coord(p, cb);
                for mu in 0..4 {
                    let (nf, _) = d.neighbor(c, mu, true);
                    assert_eq!(t.fwd[mu][cb].idx as usize, d.cb_index(nf));
                    let (nb, _) = d.neighbor(c, mu, false);
                    assert_eq!(t.bwd[mu][cb].idx as usize, d.cb_index(nb));
                }
            }
        }
    }

    #[test]
    fn ghost_face_indices_cover_half_spatial_volume() {
        let d = dims();
        let s = Stencil::new(d, true);
        let half_vs = d.half_spatial_volume();
        for p in [Parity::Even, Parity::Odd] {
            let t = s.for_parity(p);
            let mut seen_fwd = vec![false; half_vs];
            let mut seen_bwd = vec![false; half_vs];
            for r in &t.fwd[DIR_T] {
                if r.kind == BoundaryKind::GhostForward {
                    assert!(!seen_fwd[r.idx as usize], "duplicate face index");
                    seen_fwd[r.idx as usize] = true;
                }
            }
            for r in &t.bwd[DIR_T] {
                if r.kind == BoundaryKind::GhostBackward {
                    assert!(!seen_bwd[r.idx as usize]);
                    seen_bwd[r.idx as usize] = true;
                }
            }
            assert!(seen_fwd.iter().all(|&x| x), "forward face not fully covered");
            assert!(seen_bwd.iter().all(|&x| x));
        }
    }

    #[test]
    fn face_flags_match_time_coordinate() {
        let d = dims();
        let s = Stencil::new(d, true);
        for p in [Parity::Even, Parity::Odd] {
            let t = s.for_parity(p);
            for cb in 0..d.half_volume() {
                let c = d.cb_coord(p, cb);
                // With only T open, last_face_dim reduces to the T flags.
                let on_t_face = c.t == 0 || c.t == d.t - 1;
                assert_eq!(t.last_face_dim[cb], on_t_face.then_some(DIR_T as u8));
            }
        }
    }

    #[test]
    fn face_index_dim_agrees_between_site_and_cross_face_neighbor() {
        // The property that makes sender and receiver ghost offsets line
        // up in every dimension, not just T.
        let d = dims();
        for dir in 0..4 {
            for p in [Parity::Even, Parity::Odd] {
                for cb in 0..d.half_volume() {
                    let c = d.cb_coord(p, cb);
                    for forward in [true, false] {
                        let (nc, _) = d.neighbor(c, dir, forward);
                        assert_eq!(
                            Stencil::face_index_dim(&d, c, dir),
                            Stencil::face_index_dim(&d, nc, dir),
                            "dir={dir} c={c:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn face_coord_inverts_face_index_dim_on_every_boundary() {
        let d = dims();
        for dir in 0..4 {
            let fs = Stencil::face_sites_dim(&d, dir);
            for fixed in [0, d.extent(dir) - 1] {
                for p in [Parity::Even, Parity::Odd] {
                    let mut seen = vec![false; fs];
                    for face in 0..fs {
                        let c = Stencil::face_coord(&d, dir, p, fixed, face);
                        assert_eq!(c.get(dir), fixed);
                        assert_eq!(c.parity(), p, "reconstructed parity wrong");
                        let idx = Stencil::face_index_dim(&d, c, dir);
                        assert_eq!(idx, face, "face_coord must invert face_index_dim");
                        assert!(!seen[idx], "face enumeration must be a bijection");
                        seen[idx] = true;
                    }
                }
            }
        }
    }

    #[test]
    fn open_dimensions_ghost_and_closed_wrap_in_4d_stencil() {
        let d = dims();
        let open = [true, false, true, true];
        let s = Stencil::with_open(d, open);
        for p in [Parity::Even, Parity::Odd] {
            let t = s.for_parity(p);
            for cb in 0..d.half_volume() {
                let c = d.cb_coord(p, cb);
                for mu in 0..4 {
                    let fwd_ghost = open[mu] && c.get(mu) == d.extent(mu) - 1;
                    let bwd_ghost = open[mu] && c.get(mu) == 0;
                    assert_eq!(t.fwd[mu][cb].kind == BoundaryKind::GhostForward, fwd_ghost);
                    assert_eq!(t.bwd[mu][cb].kind == BoundaryKind::GhostBackward, bwd_ghost);
                }
                // last_face_dim is the maximum open boundary dimension.
                let expect = (0..4)
                    .filter(|&dim| {
                        open[dim] && (c.get(dim) == 0 || c.get(dim) == d.extent(dim) - 1)
                    })
                    .max()
                    .map(|dim| dim as u8);
                assert_eq!(t.last_face_dim[cb], expect);
            }
        }
    }

    #[test]
    fn warp_divergence_condition_holds() {
        // Section VI-C: "warp divergence is avoided because the number of
        // spatial sites Vs is divisible by the warp size" — check the
        // production volumes.
        for (l, t) in [(24usize, 128usize), (32, 256)] {
            let d = LatticeDims::spatial_cube(l, t);
            assert_eq!(d.spatial_volume() % 32, 0);
            assert_eq!(d.half_spatial_volume() % 32, 0);
        }
    }
}
