//! Storage-order pins: a field written through its accessors holds
//! `P::store` of internal real `n` of site `cb` at `data[layout.index(cb, n)]`
//! (Eq. 5), the T ghost links at `layout.pad_index(slot, n)` of the T array,
//! and nothing anywhere else: the X/Y/Z arrays' pads stay at the default
//! element, whatever ghost links are written. Every container stores Eq. 5
//! at `N_vec = N_int`, so site `cb` is the run
//! `data[n_int·cb .. n_int·(cb + 1)]`.
//!
//! Checkpoints, face codecs and `io.rs` serialise `data` raw, so these
//! tests are what says the bytes a field stores are fixed, whatever path
//! the accessors take to reach them. Elements are compared through
//! `Precision::elem_to_le_bytes`, i.e. bit for bit, at all four precisions.

use quda_fields::gauge_gen::{random_spinor_field, weak_field};
use quda_fields::precision::{Double, Half, Precision, Quarter, Single};
use quda_fields::{CloverFieldCb, GaugeFieldCb, SpinorFieldCb};
use quda_lattice::geometry::{LatticeDims, Parity, DIR_T};
use quda_lattice::layout::FieldLayout;
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

/// Site-major storage: `n_vec == n_int`, and site `cb`'s stored elements
/// are exactly the run `data[n_int·cb .. n_int·(cb + 1)]`.
fn assert_site_run<P: Precision>(
    layout: &FieldLayout,
    data: &[P::Elem],
    cb: usize,
    stored: &[P::Elem],
    what: &str,
) {
    assert_eq!(layout.n_vec, layout.n_int, "{what}: not site-major");
    let run = &data[layout.n_int * cb..layout.n_int * (cb + 1)];
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
        assert_site_run::<P>(&f.layout, &f.data, cb, &elems, "spinor");
        for (n, &e) in elems.iter().enumerate() {
            expected.push((f.layout.index(cb, n), e));
        }
    }
    assert_exactly::<P>(&f.data, &expected, "spinor");
}

fn link_reals(u: &Su3<f64>, rows: usize) -> Vec<f64> {
    (0..rows).flat_map(|i| (0..3).flat_map(move |j| [u.m[i][j].re, u.m[i][j].im])).collect()
}

fn gauge_order<P: Precision>(compressed: bool) {
    let d = dims();
    let config = weak_field(d, 0.2, 5);
    let mut g = GaugeFieldCb::<P>::new(d, compressed);
    let rows = if compressed { 2 } else { 3 };
    let (sites, pad) = (g.layout.sites, g.layout.pad);
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
    assert_eq!(g.face_sites_dim(DIR_T), pad);
    let store = |r: f64| P::store(P::Arith::from_f64(r));
    for p in [Parity::Even, Parity::Odd] {
        for mu in 0..4 {
            let what = format!("gauge compressed={compressed} {p:?} mu={mu}");
            let data = &g.data[p.as_usize()][mu];
            let mut expected = Vec::new();
            for cb in 0..sites {
                let elems: Vec<P::Elem> =
                    link_reals(&link(p, mu, cb), rows).iter().map(|&r| store(r)).collect();
                assert_site_run::<P>(&g.layout, data, cb, &elems, &what);
                for (n, &e) in elems.iter().enumerate() {
                    expected.push((g.layout.index(cb, n), e));
                }
            }
            // Only the T block's pad holds ghosts; X/Y/Z ghosts live off-block.
            let pad_ghosts = if mu == DIR_T { pad } else { 0 };
            for face in 0..pad_ghosts {
                for (n, &r) in link_reals(&link(p.other(), mu, face + 3), rows).iter().enumerate() {
                    expected.push((g.layout.pad_index(face, n), store(r)));
                }
            }
            assert_exactly::<P>(data, &expected, &what);
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
        assert_site_run::<P>(&f.layout, &f.data, cb, &elems, "clover");
        for (n, &e) in elems.iter().enumerate() {
            expected.push((f.layout.index(cb, n), e));
        }
    }
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
fn gauge_storage_order_is_eq5_with_ghosts_in_the_pad_at_every_precision() {
    for compressed in [true, false] {
        gauge_order::<Double>(compressed);
        gauge_order::<Single>(compressed);
        gauge_order::<Half>(compressed);
        gauge_order::<Quarter>(compressed);
    }
}

#[test]
fn clover_storage_order_is_eq5_at_every_precision() {
    clover_order::<Double>();
    clover_order::<Single>();
    clover_order::<Half>();
    clover_order::<Quarter>();
}
