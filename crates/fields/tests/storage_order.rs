//! Storage-order pins: a field written through its accessors holds
//! `P::store` of internal real `n` of site `cb` at `data[N·cb + n]`, where
//! `N` is the site's real count (24 spinor, 12 link, 72 clover), so site
//! `cb` is the run `data[N·cb .. N·(cb + 1)]` and `data.len() == N·sites`:
//! no pad. The gauge field's ghost links of every dimension, T included,
//! are in `ghost[parity][dir]`, link `face` at `12·face + n`, and nothing
//! is anywhere else.
//!
//! Checkpoints, face codecs and `io.rs` serialise `data` raw, so these
//! tests are what says the bytes a field stores are fixed, whatever path
//! the accessors take to reach them. Elements are compared through
//! `Precision::elem_to_le_bytes`, i.e. bit for bit, at all four precisions.

use quda_fields::gauge_gen::{random_spinor_field, weak_field};
use quda_fields::precision::{Double, Half, Precision, Quarter, Single};
use quda_fields::{CloverFieldCb, GaugeFieldCb, SpinorFieldCb};
use quda_lattice::geometry::{LatticeDims, Parity, DIR_T};
use quda_math::clover::CloverSite;
use quda_math::complex::C64;
use quda_math::real::Real;
use quda_math::spinor::Spinor;
use quda_math::su3::Su3;

fn dims() -> LatticeDims {
    LatticeDims::new(4, 2, 2, 6)
}

fn bytes<P: Precision>(e: P::Elem) -> Vec<u8> {
    let mut out = Vec::new();
    P::elem_to_le_bytes(e, &mut out);
    out
}

/// Assert `data` holds exactly `expected` (index → element) and the
/// default element everywhere else.
fn assert_exactly<P: Precision>(data: &[P::Elem], expected: &[(usize, P::Elem)], what: &str) {
    let mut want: Vec<Option<P::Elem>> = vec![None; data.len()];
    for &(i, e) in expected {
        assert!(want[i].is_none(), "{what}: two reals map to data[{i}]");
        want[i] = Some(e);
    }
    for (i, (&got, w)) in data.iter().zip(&want).enumerate() {
        let w = w.unwrap_or_default();
        assert_eq!(bytes::<P>(got), bytes::<P>(w), "{what} at {} data[{i}]", P::NAME);
    }
}

/// Site `cb`'s stored elements are exactly the run
/// `data[n·cb .. n·(cb + 1)]`, `n = stored.len()`.
fn assert_site_run<P: Precision>(data: &[P::Elem], cb: usize, stored: &[P::Elem], what: &str) {
    let n = stored.len();
    let run = &data[n * cb..n * (cb + 1)];
    let got: Vec<Vec<u8>> = run.iter().map(|&e| bytes::<P>(e)).collect();
    let want: Vec<Vec<u8>> = stored.iter().map(|&e| bytes::<P>(e)).collect();
    assert_eq!(got, want, "{what} at {} site {cb}", P::NAME);
}

fn spinor_order<P: Precision>() {
    let d = dims();
    let host = random_spinor_field(d, 11);
    let mut f = SpinorFieldCb::<P>::new(d, true);
    let site = |cb| -> Spinor<P::Arith> { host.get_cb(Parity::Odd, cb).cast() };
    for cb in 0..f.sites() {
        f.set(cb, &site(cb));
    }
    let mut expected = Vec::new();
    for cb in 0..f.sites() {
        let mut stored = site(cb);
        if P::NEEDS_NORM {
            let norm = stored.max_abs();
            let norm = if norm == 0.0 { 1.0 } else { norm };
            assert_eq!(f.norm[cb], norm as f32);
            stored = stored.scale_re(P::Arith::from_f64(1.0 / norm));
        }
        let elems: Vec<P::Elem> = stored.to_reals().iter().map(|&r| P::store(r)).collect();
        assert_site_run::<P>(&f.data, cb, &elems, "spinor");
        for (n, &e) in elems.iter().enumerate() {
            expected.push((24 * cb + n, e));
        }
    }
    assert_eq!(f.data.len(), 24 * f.sites());
    assert_exactly::<P>(&f.data, &expected, "spinor");
}

fn link_reals(u: &Su3<f64>) -> Vec<f64> {
    (0..2).flat_map(|i| (0..3).flat_map(move |j| [u.m[i][j].re, u.m[i][j].im])).collect()
}

fn gauge_order<P: Precision>() {
    let d = dims();
    let config = weak_field(d, 0.2, 5);
    let mut g = GaugeFieldCb::<P>::new(d, true);
    let sites = g.sites();
    let link = |p: Parity, mu, k| *config.link(d.cb_coord(p, k % sites), mu);
    for p in [Parity::Even, Parity::Odd] {
        for mu in 0..4 {
            for cb in 0..sites {
                g.set_link(p, mu, cb, &link(p, mu, cb));
            }
            for face in 0..g.face_sites_dim(mu) {
                g.set_ghost_link(p, mu, face, &link(p.other(), mu, face + 3));
            }
        }
    }
    assert_eq!(g.face_sites_dim(DIR_T), d.half_spatial_volume());
    let store = |r: f64| P::store(P::Arith::from_f64(r));
    let stored =
        |u: &Su3<f64>| -> Vec<P::Elem> { link_reals(u).iter().map(|&r| store(r)).collect() };
    for p in [Parity::Even, Parity::Odd] {
        for mu in 0..4 {
            let what = format!("gauge {p:?} mu={mu}");
            let data = &g.data[p.as_usize()][mu];
            assert_eq!(data.len(), 12 * sites, "{what}");
            let mut expected = Vec::new();
            for cb in 0..sites {
                let elems = stored(&link(p, mu, cb));
                assert_site_run::<P>(data, cb, &elems, &what);
                expected.extend(elems.into_iter().enumerate().map(|(n, e)| (12 * cb + n, e)));
            }
            assert_exactly::<P>(data, &expected, &what);
            // Every dimension's ghost links, T's included, in its own store.
            let what = format!("gauge ghost {p:?} dir={mu}");
            let ghost = &g.ghost[p.as_usize()][mu];
            assert_eq!(ghost.len(), 12 * g.face_sites_dim(mu), "{what}");
            let mut expected = Vec::new();
            for face in 0..g.face_sites_dim(mu) {
                let elems = stored(&link(p.other(), mu, face + 3));
                assert_site_run::<P>(ghost, face, &elems, &what);
                expected.extend(elems.into_iter().enumerate().map(|(n, e)| (12 * face + n, e)));
            }
            assert_exactly::<P>(ghost, &expected, &what);
        }
    }
}

fn sample_clover(seed: usize) -> CloverSite<f64> {
    let mut s = CloverSite::identity();
    for (bi, b) in s.block.iter_mut().enumerate() {
        for (i, d) in b.diag.iter_mut().enumerate() {
            *d = 1.0 + 0.3 * ((seed + 7 * i + bi) as f64 * 0.41).sin();
        }
        for (k, z) in b.offdiag.iter_mut().enumerate() {
            *z = C64::new(
                0.2 * ((seed * 3 + k) as f64 * 0.7).sin(),
                0.2 * ((seed * 5 + k) as f64 * 0.3).cos(),
            );
        }
    }
    s
}

fn clover_order<P: Precision>() {
    let mut f = CloverFieldCb::<P>::new(dims());
    for cb in 0..f.sites() {
        f.set(cb, &sample_clover(cb));
    }
    let mut expected = Vec::new();
    for cb in 0..f.sites() {
        let mut stored = sample_clover(cb);
        if P::NEEDS_NORM {
            let norm = stored.max_abs();
            let norm = if norm == 0.0 { 1.0 } else { norm };
            assert_eq!(f.norm[cb], norm as f32);
            let inv = 1.0 / norm;
            for b in stored.block.iter_mut() {
                b.diag.iter_mut().for_each(|d| *d *= inv);
                b.offdiag.iter_mut().for_each(|z| *z = z.scale(inv));
            }
        }
        let elems: Vec<P::Elem> =
            stored.to_reals().iter().map(|&r| P::store(P::Arith::from_f64(r))).collect();
        assert_site_run::<P>(&f.data, cb, &elems, "clover");
        for (n, &e) in elems.iter().enumerate() {
            expected.push((72 * cb + n, e));
        }
    }
    assert_eq!(f.data.len(), 72 * f.sites());
    assert_exactly::<P>(&f.data, &expected, "clover");
}

#[test]
fn spinor_storage_order_is_eq5_at_every_precision() {
    spinor_order::<Double>();
    spinor_order::<Single>();
    spinor_order::<Half>();
    spinor_order::<Quarter>();
}

#[test]
fn gauge_storage_order_is_site_runs_with_ghosts_per_dimension_at_every_precision() {
    gauge_order::<Double>();
    gauge_order::<Single>();
    gauge_order::<Half>();
    gauge_order::<Quarter>();
}

#[test]
fn clover_storage_order_is_eq5_at_every_precision() {
    clover_order::<Double>();
    clover_order::<Single>();
    clover_order::<Half>();
    clover_order::<Quarter>();
}
