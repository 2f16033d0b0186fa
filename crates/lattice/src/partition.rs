//! Domain decomposition across GPUs.
//!
//! The paper parallelizes "by only dividing the time dimension, with the
//! full extent of the spatial dimensions confined to a single GPU", slicing
//! T into N equal local extents (Section VI-A): rank `r` of a periodic 1-d
//! ring owns global time-slices `[r·T/N, (r+1)·T/N)`.
//!
//! [`DecompPlan`] is the one decomposition type: the multi-dimensional
//! process grids of the sequel paper (arXiv:1109.2935), up to `nx×ny×nz×nt`
//! domains with a periodic ring per partitioned dimension. The paper's
//! temporal slicing is the plan `[1, 1, 1, N]`.

use crate::geometry::{Coord, LatticeDims};

/// A process grid decomposing a global lattice over up to four dimensions.
///
/// Rank `r` sits at grid coordinates `coords_of(r)` with the X grid
/// coordinate fastest, so a `[1, 1, 1, N]` plan numbers ranks along the
/// paper's 1-d temporal ring (`rank == ct`). Each partitioned
/// dimension forms an independent periodic ring; every local extent is
/// even and at least 2, which keeps local checkerboard parity equal to
/// global parity (all domain origins are even in every coordinate).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct DecompPlan {
    global: LatticeDims,
    grid: [usize; 4],
}

impl DecompPlan {
    /// Create a plan; each `grid[d]` must divide the global extent of
    /// dimension `d` with an even local extent of at least 2.
    pub fn new(global: LatticeDims, grid: [usize; 4]) -> Self {
        Self::try_new(global, grid).unwrap_or_else(|e| panic!("invalid process grid: {e}"))
    }

    /// Fallible constructor used when enumerating candidate grids.
    pub fn try_new(global: LatticeDims, grid: [usize; 4]) -> Result<Self, String> {
        for (dim, &g) in grid.iter().enumerate() {
            if g < 1 {
                return Err(format!("grid[{dim}] must be >= 1"));
            }
            let extent = global.extent(dim);
            if extent % g != 0 {
                return Err(format!("extent {extent} of dim {dim} not divisible by {g}"));
            }
            let local = extent / g;
            if local < 2 || local % 2 != 0 {
                return Err(format!("local extent {local} of dim {dim} must be even and >= 2"));
            }
        }
        Ok(DecompPlan { global, grid })
    }

    /// The full lattice.
    #[inline(always)]
    pub fn global(&self) -> LatticeDims {
        self.global
    }

    /// The process-grid extents `[nx, ny, nz, nt]`.
    #[inline(always)]
    pub fn grid(&self) -> [usize; 4] {
        self.grid
    }

    /// Total number of ranks (domains) in the grid.
    pub fn n_ranks(&self) -> usize {
        self.grid.iter().product()
    }

    /// The local lattice dimensions on every rank.
    pub fn local_dims(&self) -> LatticeDims {
        LatticeDims::new(
            self.global.x / self.grid[0],
            self.global.y / self.grid[1],
            self.global.z / self.grid[2],
            self.global.t / self.grid[3],
        )
    }

    /// Local extent of dimension `dim`.
    #[inline(always)]
    pub fn local_extent(&self, dim: usize) -> usize {
        self.global.extent(dim) / self.grid[dim]
    }

    /// Grid coordinates of `rank` (X fastest).
    pub fn coords_of(&self, rank: usize) -> [usize; 4] {
        debug_assert!(rank < self.n_ranks());
        let [gx, gy, gz, _] = self.grid;
        [rank % gx, rank / gx % gy, rank / (gx * gy) % gz, rank / (gx * gy * gz)]
    }

    /// Rank at grid coordinates `c` (inverse of [`DecompPlan::coords_of`]).
    pub fn rank_of(&self, c: [usize; 4]) -> usize {
        let [gx, gy, gz, _] = self.grid;
        c[0] + gx * (c[1] + gy * (c[2] + gz * c[3]))
    }

    /// Neighbor of `rank` one step along `dim` on that dimension's
    /// periodic ring.
    pub fn neighbor(&self, rank: usize, dim: usize, forward: bool) -> usize {
        let mut c = self.coords_of(rank);
        let g = self.grid[dim];
        c[dim] = if forward { (c[dim] + 1) % g } else { (c[dim] + g - 1) % g };
        self.rank_of(c)
    }

    /// Global coordinate of the local origin (site (0,0,0,0)) of `rank`.
    /// Every component is even, so local parity equals global parity.
    pub fn origin(&self, rank: usize) -> Coord {
        let c = self.coords_of(rank);
        Coord::new(
            c[0] * self.local_extent(0),
            c[1] * self.local_extent(1),
            c[2] * self.local_extent(2),
            c[3] * self.local_extent(3),
        )
    }

    /// Global coordinate of local site `local` on `rank`.
    pub fn global_coord(&self, rank: usize, local: Coord) -> Coord {
        let o = self.origin(rank);
        Coord::new(o.x + local.x, o.y + local.y, o.z + local.z, o.t + local.t)
    }

    /// Whether dimension `dim` has real domain boundaries (ghost exchange
    /// needed). Single-domain dimensions keep periodic wraps local.
    #[inline(always)]
    pub fn open(&self, dim: usize) -> bool {
        self.grid[dim] > 1
    }

    /// The per-dimension open-boundary flags, X..T.
    pub fn open_dims(&self) -> [bool; 4] {
        [self.open(0), self.open(1), self.open(2), self.open(3)]
    }

    /// Partitioned dimensions in ascending order (the fixed exchange and
    /// exterior-update order of the 4-d driver).
    pub fn active_dims(&self) -> impl Iterator<Item = usize> + '_ {
        (0..4).filter(|&d| self.open(d))
    }

    /// Whether any dimension is partitioned.
    pub fn is_partitioned(&self) -> bool {
        self.n_ranks() > 1
    }

    /// Face sites per parity exchanged with each neighbor along `dim`:
    /// half the local boundary-slice volume.
    pub fn face_sites_cb(&self, dim: usize) -> usize {
        let ld = self.local_dims();
        ld.volume() / ld.extent(dim) / 2
    }
}

/// The grid extents as `nx×ny×nz×nt`, e.g. `4x1x1x16`.
impl std::fmt::Display for DecompPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let [nx, ny, nz, nt] = self.grid;
        write!(f, "{nx}x{ny}x{nz}x{nt}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn time_plan(global: LatticeDims, n: usize) -> DecompPlan {
        DecompPlan::new(global, [1, 1, 1, n])
    }

    #[test]
    fn paper_partitions_are_valid() {
        // The configurations measured in Section VII.
        let big = LatticeDims::spatial_cube(32, 256);
        let small = LatticeDims::spatial_cube(24, 128);
        for n in [1usize, 2, 4, 8, 16, 32] {
            assert_eq!(time_plan(big, n).local_extent(3) * n, 256);
            assert_eq!(time_plan(small, n).local_extent(3) * n, 128);
        }
        // Weak scaling local volumes: 32^4 and 24^3x32 per GPU.
        assert_eq!(time_plan(big, 8).local_dims(), LatticeDims::hypercubic(32));
        assert_eq!(time_plan(small, 4).local_dims(), LatticeDims::new(24, 24, 24, 32));
    }

    #[test]
    fn rank_time_mapping_roundtrip() {
        // Rank r of a temporal plan owns global slices [r·T/N, (r+1)·T/N).
        let p = time_plan(LatticeDims::new(4, 4, 4, 16), 4);
        assert_eq!(p.active_dims().collect::<Vec<_>>(), vec![3]);
        for t in 0..16 {
            let (r, lt) = (t / 4, t % 4);
            assert_eq!(p.coords_of(r), [0, 0, 0, r]);
            assert_eq!(p.global_coord(r, Coord::new(1, 2, 3, lt)), Coord::new(1, 2, 3, t));
        }
    }

    #[test]
    fn ring_topology() {
        let p = time_plan(LatticeDims::new(4, 4, 4, 16), 4);
        assert_eq!(p.neighbor(3, 3, true), 0);
        assert_eq!(p.neighbor(0, 3, false), 3);
        for r in 0..4 {
            assert_eq!(p.neighbor(p.neighbor(r, 3, true), 3, false), r);
        }
    }

    #[test]
    fn local_volume_sums_to_global() {
        let d = LatticeDims::new(8, 8, 8, 32);
        for n in [1, 2, 4, 8, 16] {
            assert_eq!(time_plan(d, n).local_dims().volume() * n, d.volume());
        }
    }

    #[test]
    fn single_rank_is_unpartitioned() {
        assert!(!time_plan(LatticeDims::new(4, 4, 4, 8), 1).is_partitioned());
        assert!(time_plan(LatticeDims::new(4, 4, 4, 8), 2).is_partitioned());
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn indivisible_t_rejected() {
        time_plan(LatticeDims::new(4, 4, 4, 10), 4);
    }

    #[test]
    #[should_panic(expected = "must be even")]
    fn odd_local_t_rejected() {
        // T=12 over 6 ranks -> local T=2 ok; over 12 ranks -> local T=1 bad.
        time_plan(LatticeDims::new(4, 4, 4, 12), 6);
        time_plan(LatticeDims::new(4, 4, 4, 12), 12);
    }

    #[test]
    fn face_sites() {
        let p = time_plan(LatticeDims::spatial_cube(24, 128), 8);
        assert_eq!(p.face_sites_cb(3), 24 * 24 * 24 / 2);
    }

    #[test]
    fn face_site_accounting() {
        let total = |p: &DecompPlan| p.active_dims().map(|d| p.face_sites_cb(d)).sum::<usize>();
        let big = LatticeDims::spatial_cube(32, 256);
        let zt = DecompPlan::new(big, [1, 1, 2, 8]);
        assert_eq!(zt.local_dims(), LatticeDims::new(32, 32, 16, 32));
        assert_eq!(
            [zt.face_sites_cb(2), zt.face_sites_cb(3)],
            [32 * 32 * 32 / 2, 32 * 32 * 16 / 2]
        );
        assert_eq!(total(&zt), 32 * 32 * 16 / 2 + 32 * 32 * 32 / 2);
        let four_d = DecompPlan::new(big, [2, 2, 2, 2]);
        assert_eq!(four_d.local_dims(), LatticeDims::new(16, 16, 16, 128));
        assert_eq!(four_d.face_sites_cb(0), 16 * 16 * 128 / 2);
        assert_eq!(four_d.face_sites_cb(3), 16 * 16 * 16 / 2);
        // Three spatial faces of 16x16x128 plus one temporal face of 16^3.
        assert_eq!(total(&four_d), 3 * (16 * 16 * 128 / 2) + 16 * 16 * 16 / 2);
        assert_eq!(four_d.to_string(), "2x2x2x2");
    }

    #[test]
    fn four_d_plan_coords_roundtrip_and_origins_are_even() {
        let d = LatticeDims::new(8, 8, 8, 16);
        let plan = DecompPlan::new(d, [2, 2, 2, 2]);
        assert_eq!(plan.n_ranks(), 16);
        assert_eq!(plan.local_dims(), LatticeDims::new(4, 4, 4, 8));
        for r in 0..16 {
            assert_eq!(plan.rank_of(plan.coords_of(r)), r);
            let o = plan.origin(r);
            for dim in 0..4 {
                assert_eq!(o.get(dim) % 2, 0, "odd origin breaks parity alignment");
                // Each dimension's ring is involutive.
                assert_eq!(plan.neighbor(plan.neighbor(r, dim, true), dim, false), r);
            }
        }
        assert_eq!(plan.active_dims().collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        // X-face: half the YZT slice; T-face: half the spatial slice.
        assert_eq!(plan.face_sites_cb(0), 4 * 4 * 8 / 2);
        assert_eq!(plan.face_sites_cb(3), 4 * 4 * 4 / 2);
    }

    #[test]
    fn invalid_grids_are_rejected() {
        let d = LatticeDims::new(8, 8, 8, 16);
        assert!(DecompPlan::try_new(d, [3, 1, 1, 1]).is_err(), "3 does not divide 8");
        assert!(DecompPlan::try_new(d, [4, 1, 1, 1]).is_ok(), "local X extent 2 is fine");
        assert!(DecompPlan::try_new(d, [1, 1, 1, 8]).is_ok());
        assert!(DecompPlan::try_new(d, [8, 1, 1, 1]).is_err(), "local X extent 1 is odd");
        assert!(DecompPlan::try_new(d, [1, 1, 1, 16]).is_err(), "local T extent 1");
        assert!(DecompPlan::try_new(d, [0, 1, 1, 1]).is_err());
    }
}
