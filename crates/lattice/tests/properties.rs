//! Property-based tests of geometry and layout over randomized lattice
//! shapes: index bijectivity, stencil involution, layout disjointness.

use proptest::prelude::*;
use quda_lattice::geometry::{Coord, LatticeDims, Parity};
use quda_lattice::layout::{FieldLayout, NVec};
use quda_lattice::partition::DecompPlan;
use quda_lattice::stencil::{BoundaryKind, Stencil};

fn arb_dims() -> impl Strategy<Value = LatticeDims> {
    // Small even extents keep the exhaustive checks fast.
    let even = prop_oneof![Just(2usize), Just(4), Just(6)];
    (even.clone(), even.clone(), even.clone(), prop_oneof![Just(4usize), Just(8), Just(12)])
        .prop_map(|(x, y, z, t)| LatticeDims::new(x, y, z, t))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn lex_and_cb_indexing_are_bijective(d in arb_dims()) {
        let mut seen = vec![false; d.volume()];
        for p in [Parity::Even, Parity::Odd] {
            for cb in 0..d.half_volume() {
                let c = d.cb_coord(p, cb);
                prop_assert_eq!(c.parity(), p);
                prop_assert_eq!(d.cb_index(c), cb);
                let lex = d.lex_index(c);
                prop_assert!(!seen[lex]);
                seen[lex] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn neighbor_moves_are_involutive_and_parity_flipping(d in arb_dims()) {
        for c in d.coords() {
            for mu in 0..4 {
                let (f, _) = d.neighbor(c, mu, true);
                prop_assert_eq!(f.parity(), c.parity().other());
                let (back, _) = d.neighbor(f, mu, false);
                prop_assert_eq!(back, c);
            }
        }
    }

    #[test]
    fn layout_body_and_pad_partition_memory(
        d in arb_dims(),
        nvec in prop_oneof![Just(NVec::N1), Just(NVec::N2), Just(NVec::N4)],
    ) {
        let l = FieldLayout::new(d.half_volume(), d.half_spatial_volume(), 24, nvec);
        let mut kind = vec![0u8; l.body_len()]; // 0 untouched, 1 site, 2 pad
        for site in 0..l.sites {
            for n in 0..l.n_int {
                let i = l.index(site, n);
                prop_assert_eq!(kind[i], 0);
                kind[i] = 1;
                prop_assert_eq!(l.decompose(i), Some((site, n)));
            }
        }
        for slot in 0..l.pad {
            for n in 0..l.n_int {
                let i = l.pad_index(slot, n);
                prop_assert_eq!(kind[i], 0, "pad overlaps site data");
                kind[i] = 2;
            }
        }
        prop_assert!(kind.iter().all(|&k| k != 0), "memory neither site nor pad");
    }

    #[test]
    fn coalescing_holds_for_all_nvec(
        d in arb_dims(),
        nvec in prop_oneof![Just(NVec::N2), Just(NVec::N4)],
    ) {
        let l = FieldLayout::new(d.half_volume(), 16, 24, nvec);
        let v = nvec.width();
        for n0 in (0..24).step_by(v) {
            for site in 0..l.sites.saturating_sub(1) {
                prop_assert_eq!(l.index(site + 1, n0), l.index(site, n0) + v);
            }
        }
    }

    #[test]
    fn open_stencil_ghosts_exactly_on_time_boundaries(d in arb_dims()) {
        let s = Stencil::new(d, true);
        for p in [Parity::Even, Parity::Odd] {
            let t = s.for_parity(p);
            for cb in 0..d.half_volume() {
                let c = d.cb_coord(p, cb);
                let fwd_ghost = t.fwd[3][cb].kind == BoundaryKind::GhostForward;
                let bwd_ghost = t.bwd[3][cb].kind == BoundaryKind::GhostBackward;
                prop_assert_eq!(fwd_ghost, c.t == d.t - 1);
                prop_assert_eq!(bwd_ghost, c.t == 0);
                for mu in 0..3 {
                    prop_assert_eq!(t.fwd[mu][cb].kind, BoundaryKind::Interior);
                    prop_assert_eq!(t.bwd[mu][cb].kind, BoundaryKind::Interior);
                }
            }
        }
    }

    #[test]
    fn partitions_tile_the_time_axis(d in arb_dims(), log_n in 0usize..3) {
        let n = 1usize << log_n;
        prop_assume!(d.t % n == 0 && (d.t / n) % 2 == 0 && d.t / n >= 2);
        let plan = DecompPlan::new(d, [1, 1, 1, n]);
        let local_t = plan.local_extent(3);
        let mut owner = vec![usize::MAX; d.t];
        for rank in 0..n {
            for lt in 0..local_t {
                let g = plan.global_coord(rank, Coord::new(0, 0, 0, lt)).t;
                prop_assert_eq!(owner[g], usize::MAX, "time slice owned twice");
                owner[g] = rank;
                prop_assert_eq!(g / local_t, rank);
                prop_assert_eq!(g % local_t, lt);
            }
        }
        prop_assert!(owner.iter().all(|&o| o != usize::MAX));
    }
}
