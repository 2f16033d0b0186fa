//! Scattering global host fields to domain sub-lattices and gathering them
//! back — the data movement Chroma performs around a parallel QUDA solve.
//!
//! Every function addresses a [`DecompPlan`] process grid; the paper's
//! time-slicing is the `1×1×1×N` plan.

use quda_fields::clover_build::{clover_site, sigma_matrices};
use quda_fields::host::{GaugeConfig, HostSpinorField};
use quda_lattice::geometry::Parity;
use quda_lattice::partition::DecompPlan;
use quda_math::clover::CloverSite;

/// The local gauge configuration of `rank` under a process-grid plan.
pub fn slice_config(global: &GaugeConfig, plan: &DecompPlan, rank: usize) -> GaugeConfig {
    assert_eq!(global.dims, plan.global());
    let local_dims = plan.local_dims();
    let mut local = GaugeConfig::unit(local_dims);
    for c in local_dims.coords() {
        let gc = plan.global_coord(rank, c);
        for mu in 0..4 {
            *local.link_mut(c, mu) = *global.link(gc, mu);
        }
    }
    local
}

/// The local part of a host spinor field under a process-grid plan.
pub fn slice_spinor(global: &HostSpinorField, plan: &DecompPlan, rank: usize) -> HostSpinorField {
    assert_eq!(global.dims, plan.global());
    let local_dims = plan.local_dims();
    let mut local = HostSpinorField::zero(local_dims);
    for c in local_dims.coords() {
        *local.get_mut(c) = *global.get(plan.global_coord(rank, c));
    }
    local
}

/// Reassemble a global field from every rank's local field (rank order)
/// under a process-grid plan.
pub fn gather_spinor(locals: &[HostSpinorField], plan: &DecompPlan) -> HostSpinorField {
    assert_eq!(locals.len(), plan.n_ranks());
    let mut global = HostSpinorField::zero(plan.global());
    let local_dims = plan.local_dims();
    for (rank, local) in locals.iter().enumerate() {
        assert_eq!(local.dims, local_dims);
        for c in local_dims.coords() {
            *global.get_mut(plan.global_coord(rank, c)) = *local.get(c);
        }
    }
    global
}

/// Compute the clover term for `rank`'s local sites **from the global
/// configuration** — the clover leaves of *any* boundary slice reach into
/// the neighboring domain, so a purely local computation would be wrong
/// there, and every parity-site is computed at its global coordinate.
/// (Chroma hands QUDA a precomputed clover field for the same reason.)
/// Local parity equals global parity because every domain origin is even.
pub fn local_clover(
    global: &GaugeConfig,
    plan: &DecompPlan,
    rank: usize,
    c_sw: f64,
) -> [Vec<CloverSite<f64>>; 2] {
    let sigma = sigma_matrices();
    let local_dims = plan.local_dims();
    let build = |parity: Parity| -> Vec<CloverSite<f64>> {
        (0..local_dims.half_volume())
            .map(|cb| {
                let gc = plan.global_coord(rank, local_dims.cb_coord(parity, cb));
                clover_site(global, &sigma, gc, c_sw)
            })
            .collect()
    };
    [build(Parity::Even), build(Parity::Odd)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use quda_fields::gauge_gen::{random_spinor_field, weak_field};
    use quda_lattice::geometry::{Coord, LatticeDims};

    /// The paper's decomposition: four temporal slices of 4×4×2×8.
    fn setup() -> (GaugeConfig, DecompPlan) {
        let d = LatticeDims::new(4, 4, 2, 8);
        (weak_field(d, 0.15, 3), DecompPlan::new(d, [1, 1, 1, 4]))
    }

    /// Global coordinate of local `c` on temporal rank `rank`.
    fn global_t(plan: &DecompPlan, rank: usize, c: Coord) -> Coord {
        Coord::new(c.x, c.y, c.z, rank * plan.local_extent(3) + c.t)
    }

    #[test]
    fn slices_cover_global_config() {
        let (cfg, plan) = setup();
        for rank in 0..plan.n_ranks() {
            let local = slice_config(&cfg, &plan, rank);
            for c in local.dims.coords() {
                assert_eq!(local.link(c, 2), cfg.link(global_t(&plan, rank, c), 2));
            }
        }
    }

    #[test]
    fn scatter_gather_roundtrip() {
        let (_, plan) = setup();
        let global = random_spinor_field(plan.global(), 7);
        let locals: Vec<_> = (0..plan.n_ranks()).map(|r| slice_spinor(&global, &plan, r)).collect();
        let back = gather_spinor(&locals, &plan);
        assert_eq!(back.max_site_dist(&global), 0.0);
    }

    #[test]
    fn local_clover_matches_global_clover() {
        // The sliced clover must agree with the full-lattice computation at
        // every local site — including the boundary slices where a naive
        // local computation would wrap incorrectly.
        let (cfg, plan) = setup();
        let global_both = quda_fields::clover_build::clover_both_parities(&cfg, 1.3);
        for rank in [0usize, 3] {
            let local = local_clover(&cfg, &plan, rank, 1.3);
            let ld = plan.local_dims();
            for p in [Parity::Even, Parity::Odd] {
                for cb in 0..ld.half_volume() {
                    let gc = global_t(&plan, rank, ld.cb_coord(p, cb));
                    let gcb = plan.global().cb_index(gc);
                    // Parities agree because local T extents are even.
                    assert_eq!(gc.parity(), p);
                    let expect = &global_both[p.as_usize()][gcb];
                    let got = &local[p.as_usize()][cb];
                    let mut diff = 0.0f64;
                    for b in 0..2 {
                        for i in 0..6 {
                            diff = diff.max((expect.block[b].diag[i] - got.block[b].diag[i]).abs());
                        }
                        for k in 0..15 {
                            diff = diff.max(
                                (expect.block[b].offdiag[k].re - got.block[b].offdiag[k].re).abs(),
                            );
                        }
                    }
                    assert!(diff < 1e-14, "rank={rank} p={p:?} cb={cb} diff={diff}");
                }
            }
        }
    }

    #[test]
    fn grid_scatter_gather_roundtrip_four_d() {
        let d = LatticeDims::new(4, 4, 4, 8);
        let plan = DecompPlan::new(d, [2, 1, 2, 2]);
        let global = random_spinor_field(d, 17);
        let locals: Vec<_> = (0..plan.n_ranks()).map(|r| slice_spinor(&global, &plan, r)).collect();
        let back = gather_spinor(&locals, &plan);
        assert_eq!(back.max_site_dist(&global), 0.0);
        // Each local field really is the rank's sub-block.
        for (r, local) in locals.iter().enumerate() {
            for c in plan.local_dims().coords() {
                assert_eq!(local.get(c), global.get(plan.global_coord(r, c)));
            }
        }
    }

    #[test]
    fn grid_local_clover_matches_global_on_spatial_split() {
        // Clover leaves at X/Z domain boundaries reach into neighboring
        // domains; the grid slicer must still reproduce the full-lattice
        // clover at every local site.
        let d = LatticeDims::new(4, 4, 4, 4);
        let plan = DecompPlan::new(d, [2, 1, 2, 1]);
        let cfg = weak_field(d, 0.15, 29);
        let global_both = quda_fields::clover_build::clover_both_parities(&cfg, 1.3);
        for rank in 0..plan.n_ranks() {
            let local = local_clover(&cfg, &plan, rank, 1.3);
            let ld = plan.local_dims();
            for p in [Parity::Even, Parity::Odd] {
                for cb in 0..ld.half_volume() {
                    let gc = plan.global_coord(rank, ld.cb_coord(p, cb));
                    assert_eq!(gc.parity(), p, "even origins keep parities aligned");
                    let expect = &global_both[p.as_usize()][plan.global().cb_index(gc)];
                    let got = &local[p.as_usize()][cb];
                    let mut diff = 0.0f64;
                    for b in 0..2 {
                        for i in 0..6 {
                            diff = diff.max((expect.block[b].diag[i] - got.block[b].diag[i]).abs());
                        }
                        for k in 0..15 {
                            diff = diff.max(
                                (expect.block[b].offdiag[k].re - got.block[b].offdiag[k].re).abs(),
                            );
                        }
                    }
                    assert!(diff < 1e-14, "rank={rank} p={p:?} cb={cb} diff={diff}");
                }
            }
        }
    }

    #[test]
    fn naive_local_clover_would_be_wrong_at_boundaries() {
        // Sanity check of the *reason* for local_clover: computing the
        // clover from the sliced config (periodic local wrap) differs at
        // boundary time-slices.
        let (cfg, plan) = setup();
        let rank = 1;
        let local_cfg = slice_config(&cfg, &plan, rank);
        let naive = quda_fields::clover_build::clover_both_parities(&local_cfg, 1.0);
        let correct = local_clover(&cfg, &plan, rank, 1.0);
        let ld = plan.local_dims();
        let mut boundary_diff = 0.0f64;
        for cb in 0..ld.half_volume() {
            let c = ld.cb_coord(Parity::Even, cb);
            if c.t != 0 && c.t != ld.t - 1 {
                continue;
            }
            for b in 0..2 {
                for i in 0..6 {
                    boundary_diff = boundary_diff.max(
                        (naive[0][cb].block[b].diag[i] - correct[0][cb].block[b].diag[i]).abs(),
                    );
                }
            }
        }
        assert!(boundary_diff > 1e-8, "expected naive slicing to be wrong at the boundary");
    }
}
