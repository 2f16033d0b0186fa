//! Property-based tests of field storage: precision round-trips, ghost
//! isolation, upload/download fidelity, and gauge-generation invariants.

use proptest::prelude::*;
use quda_fields::gauge_gen::{random_spinor_field, weak_field};
use quda_fields::host::HostSpinorField;
use quda_fields::precision::{Double, Half, Precision, Quarter, Single};
use quda_fields::{GaugeFieldCb, SpinorFieldCb};
use quda_lattice::geometry::{LatticeDims, Parity};
use quda_math::real::Real;
use quda_math::spinor::{HalfSpinor, HALF_SPINOR_REALS};

fn arb_dims() -> impl Strategy<Value = LatticeDims> {
    let even = prop_oneof![Just(2usize), Just(4)];
    (even.clone(), even.clone(), even.clone(), prop_oneof![Just(4usize), Just(6)])
        .prop_map(|(x, y, z, t)| LatticeDims::new(x, y, z, t))
}

/// The half spinor written to face `face` of the `dir` ghost zone: entries
/// in `{a, -a, 0}` with `a` a power of two that differs per zone, so the
/// read-back is exact at every precision (the quantized norm is `a`) and
/// any write landing in another zone or face shows.
fn ghost_value<P: Precision>(
    dir: usize,
    backward: bool,
    face: usize,
    seed: u64,
) -> HalfSpinor<P::Arith> {
    let a = 2f64.powi(2 * dir as i32 + i32::from(backward) - 3);
    let mut reals = [P::Arith::ZERO; HALF_SPINOR_REALS];
    for (n, r) in reals.iter_mut().enumerate() {
        *r = P::Arith::from_f64(match (face + n + seed as usize) % 3 {
            0 => a,
            1 => -a,
            _ => 0.0,
        });
    }
    HalfSpinor::from_reals(&reals)
}

/// Every ghost half spinor of every open dimension of `f` but `skip`, in
/// store order.
fn other_ghosts<P: Precision>(f: &SpinorFieldCb<P>, skip: usize) -> Vec<HalfSpinor<P::Arith>> {
    let mut out = Vec::new();
    for dir in (0..4).filter(|&dir| dir != skip && f.has_ghost(dir)) {
        for backward in [true, false] {
            out.extend((0..f.face_sites(dir)).map(|face| f.get_ghost(dir, backward, face)));
        }
    }
    out
}

/// Write every face of every open dimension of a field opened on `open`,
/// one dimension at a time: the sites, `norm_sqr` and the other
/// dimensions' ghosts never move, and each ghost reads back what was
/// written.
fn ghost_isolation<P: Precision>(host: &HostSpinorField, open: [bool; 4], seed: u64) {
    let mut dev = SpinorFieldCb::<P>::new_open(host.dims, open);
    dev.upload(host, Parity::Odd);
    let sites: Vec<_> = (0..dev.sites()).map(|cb| dev.get(cb)).collect();
    let norm = dev.norm_sqr();
    for dir in 0..4 {
        assert_eq!(dev.has_ghost(dir), open[dir], "{} dim {dir}", P::NAME);
        if !open[dir] {
            continue;
        }
        let before = other_ghosts(&dev, dir);
        for backward in [true, false] {
            for face in 0..dev.face_sites(dir) {
                dev.set_ghost(dir, backward, face, &ghost_value::<P>(dir, backward, face, seed));
            }
        }
        for backward in [true, false] {
            for face in 0..dev.face_sites(dir) {
                let want = ghost_value::<P>(dir, backward, face, seed);
                assert_eq!(dev.get_ghost(dir, backward, face), want, "{} dim {dir}", P::NAME);
            }
        }
        assert_eq!(other_ghosts(&dev, dir), before, "{} dim {dir} leaked", P::NAME);
    }
    for (cb, sp) in sites.iter().enumerate() {
        assert_eq!(dev.get(cb), *sp, "{} site {cb}", P::NAME);
    }
    assert_eq!(dev.norm_sqr().to_bits(), norm.to_bits(), "{}", P::NAME);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn upload_download_is_identity_in_double(d in arb_dims(), seed in 0u64..1000) {
        let host = random_spinor_field(d, seed);
        for parity in [Parity::Even, Parity::Odd] {
            let mut dev = SpinorFieldCb::<Double>::new(d, false);
            dev.upload(&host, parity);
            let mut back = HostSpinorField::zero(d);
            dev.download(&mut back, parity);
            for cb in 0..dev.sites() {
                prop_assert_eq!(back.get_cb(parity, cb), host.get_cb(parity, cb));
            }
        }
    }

    #[test]
    fn single_precision_roundtrip_is_f32_accurate(d in arb_dims(), seed in 0u64..1000) {
        let host = random_spinor_field(d, seed);
        let mut dev = SpinorFieldCb::<Single>::new(d, false);
        dev.upload(&host, Parity::Odd);
        let mut back = HostSpinorField::zero(d);
        dev.download(&mut back, Parity::Odd);
        for cb in 0..dev.sites() {
            let diff = (*back.get_cb(Parity::Odd, cb) - *host.get_cb(Parity::Odd, cb)).max_abs();
            prop_assert!(diff < 1e-6);
        }
    }

    #[test]
    fn half_precision_error_scales_with_site_norm(d in arb_dims(), seed in 0u64..1000) {
        let host = random_spinor_field(d, seed);
        let mut dev = SpinorFieldCb::<Half>::new(d, false);
        dev.upload(&host, Parity::Even);
        let mut back = HostSpinorField::zero(d);
        dev.download(&mut back, Parity::Even);
        for cb in 0..dev.sites() {
            let orig = host.get_cb(Parity::Even, cb);
            let diff = (*back.get_cb(Parity::Even, cb) - *orig).max_abs();
            let bound = orig.max_abs() / 32767.0 + 1e-7;
            prop_assert!(diff <= bound * 1.01, "diff {diff} bound {bound}");
        }
    }

    #[test]
    fn ghost_writes_never_leak_into_sites(
        d in arb_dims(),
        seed in 0u64..1000,
        mask in 0u8..16,
    ) {
        let open = std::array::from_fn(|dir| mask & (1 << dir) != 0);
        let host = random_spinor_field(d, seed);
        ghost_isolation::<Double>(&host, open, seed);
        ghost_isolation::<Single>(&host, open, seed);
        ghost_isolation::<Half>(&host, open, seed);
        ghost_isolation::<Quarter>(&host, open, seed);
    }

    #[test]
    fn gauge_upload_preserves_links_to_precision(d in arb_dims(), seed in 0u64..1000) {
        let cfg = weak_field(d, 0.15, seed);
        let mut g = GaugeFieldCb::<Single>::new(d, true);
        g.upload(&cfg);
        for p in [Parity::Even, Parity::Odd] {
            for cb in (0..g.sites()).step_by(3) {
                let c = d.cb_coord(p, cb);
                for mu in 0..4 {
                    let got: quda_math::su3::Su3<f64> = g.link(p, mu, cb).cast();
                    let diff = (got - *cfg.link(c, mu)).norm_sqr().sqrt();
                    prop_assert!(diff < 1e-5, "link error {diff}");
                }
            }
        }
    }

    #[test]
    fn weak_field_plaquette_bounded(seed in 0u64..200, eps in 0.01f64..0.2) {
        let d = LatticeDims::new(4, 4, 2, 2);
        let cfg = weak_field(d, eps, seed);
        let p = cfg.average_plaquette();
        prop_assert!(p <= 1.0 + 1e-12);
        prop_assert!(p > 0.5, "plaquette {p} too disordered for eps {eps}");
        prop_assert!(cfg.is_unitary(1e-9));
    }

    #[test]
    fn norm_is_parity_sum(d in arb_dims(), seed in 0u64..1000) {
        // |ψ|² over the host field = |ψ_e|² + |ψ_o|² over device fields.
        let host = random_spinor_field(d, seed);
        let mut even = SpinorFieldCb::<Double>::new(d, false);
        even.upload(&host, Parity::Even);
        let mut odd = SpinorFieldCb::<Double>::new(d, false);
        odd.upload(&host, Parity::Odd);
        let total = even.norm_sqr() + odd.norm_sqr();
        prop_assert!((total - host.norm_sqr()).abs() < 1e-9 * host.norm_sqr().max(1.0));
    }
}
