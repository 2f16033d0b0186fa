//! Clover-term application kernels on checkerboard fields.

use crate::dslash::{active_lanes, MAX_RHS_BATCH};
use quda_fields::precision::Precision;
use quda_fields::{CloverFieldCb, SpinorFieldCb};
use quda_math::clover::CloverBasisMap;

/// `outs[r][cb] = T[cb] · ins[r][cb]` for every lane with `active[r]`,
/// where `T` is a packed clover-type field (either the shifted term
/// `(4+m) + A` or its inverse), applied to spinors stored in the
/// non-relativistic basis. The packed clover site is decoded once for the
/// whole block — the field-reuse that motivates multi-RHS batching — and
/// each lane's arithmetic chain does not depend on the others, so a lane
/// of a batch is bit-identical to that lane alone; inactive slots are
/// untouched.
pub fn clover_apply_cb_multi<P: Precision>(
    outs: &mut [SpinorFieldCb<P>],
    term: &CloverFieldCb<P>,
    ins: &[SpinorFieldCb<P>],
    map: &CloverBasisMap,
    active: &[bool],
) {
    let n = ins.len();
    assert_eq!(outs.len(), n);
    assert_eq!(active.len(), n);
    assert!(n <= MAX_RHS_BATCH, "batch exceeds MAX_RHS_BATCH");
    for (out, input) in outs.iter_mut().zip(ins) {
        assert_eq!(out.sites(), term.sites());
        assert_eq!(input.sites(), term.sites());
    }
    let mut idx_buf = [0usize; MAX_RHS_BATCH];
    let idxs = active_lanes(active, &mut idx_buf);
    (0..term.sites()).for_each(|cb| {
        let t = term.get(cb);
        for &r in idxs {
            let v = map.apply_nr(&t, &ins[r].get(cb));
            outs[r].set(cb, &v);
        }
    });
}

/// Fused `outs[r][cb] = T[cb]·as_[r][cb] + s·bs[r][cb]` for every lane with
/// `active[r]` — the final combine of the even-odd preconditioned operator
/// (`s = −¼` against the double hop) — decoding the packed clover site once
/// for the whole block. Per active lane bit-identical to that lane alone;
/// inactive slots are untouched.
pub fn clover_axpy_cb_multi<P: Precision>(
    outs: &mut [SpinorFieldCb<P>],
    term: &CloverFieldCb<P>,
    as_: &[SpinorFieldCb<P>],
    s: P::Arith,
    bs: &[SpinorFieldCb<P>],
    map: &CloverBasisMap,
    active: &[bool],
) {
    let n = as_.len();
    assert_eq!(outs.len(), n);
    assert_eq!(bs.len(), n);
    assert_eq!(active.len(), n);
    assert!(n <= MAX_RHS_BATCH, "batch exceeds MAX_RHS_BATCH");
    for ((out, a), b) in outs.iter_mut().zip(as_).zip(bs) {
        assert_eq!(out.sites(), term.sites());
        assert_eq!(a.sites(), term.sites());
        assert_eq!(b.sites(), term.sites());
    }
    let mut idx_buf = [0usize; MAX_RHS_BATCH];
    let idxs = active_lanes(active, &mut idx_buf);
    (0..term.sites()).for_each(|cb| {
        let t = term.get(cb);
        for &r in idxs {
            let v = map.apply_nr(&t, &as_[r].get(cb)) + bs[r].get(cb).scale_re(s);
            outs[r].set(cb, &v);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use quda_fields::clover_build::clover_sites_cb;
    use quda_fields::gauge_gen::{random_spinor_field, weak_field};
    use quda_fields::precision::{Double, Half, Quarter, Single};
    use quda_lattice::geometry::{LatticeDims, Parity};
    use quda_math::real::Real;
    use quda_math::spinor::Spinor;
    use std::slice::{from_mut, from_ref};

    fn dims() -> LatticeDims {
        LatticeDims::new(4, 4, 2, 4)
    }

    /// `out = T·input`: batch 1 of [`clover_apply_cb_multi`].
    fn apply1<P: Precision>(
        out: &mut SpinorFieldCb<P>,
        term: &CloverFieldCb<P>,
        input: &SpinorFieldCb<P>,
        map: &CloverBasisMap,
    ) {
        clover_apply_cb_multi(from_mut(out), term, from_ref(input), map, &[true]);
    }

    /// `out = T·a + s·b`: batch 1 of [`clover_axpy_cb_multi`].
    fn axpy1<P: Precision>(
        out: &mut SpinorFieldCb<P>,
        term: &CloverFieldCb<P>,
        a: &SpinorFieldCb<P>,
        s: P::Arith,
        b: &SpinorFieldCb<P>,
        map: &CloverBasisMap,
    ) {
        clover_axpy_cb_multi(from_mut(out), term, from_ref(a), s, from_ref(b), map, &[true]);
    }

    #[test]
    fn identity_term_is_identity() {
        let d = dims();
        let term = CloverFieldCb::<Double>::new(d); // identity sites
        let host = random_spinor_field(d, 3);
        let mut input = SpinorFieldCb::<Double>::new(d, false);
        input.upload(&host, Parity::Even);
        let mut out = SpinorFieldCb::<Double>::new(d, false);
        let map = CloverBasisMap::new();
        apply1(&mut out, &term, &input, &map);
        for cb in 0..out.sites() {
            assert!((out.get(cb) - input.get(cb)).norm_sqr() < 1e-24);
        }
    }

    #[test]
    fn apply_then_inverse_is_identity() {
        let d = dims();
        let cfg = weak_field(d, 0.15, 23);
        let sites = clover_sites_cb(&cfg, 1.2, Parity::Odd);
        let mut term = CloverFieldCb::<Double>::new(d);
        let mut inv = CloverFieldCb::<Double>::new(d);
        for (cb, a) in sites.iter().enumerate() {
            let t = a.shifted(4.1);
            term.set(cb, &t);
            inv.set(cb, &t.invert().expect("invertible"));
        }
        let host = random_spinor_field(d, 9);
        let mut x = SpinorFieldCb::<Double>::new(d, false);
        x.upload(&host, Parity::Odd);
        let mut tx = SpinorFieldCb::<Double>::new(d, false);
        let mut back = SpinorFieldCb::<Double>::new(d, false);
        let map = CloverBasisMap::new();
        apply1(&mut tx, &term, &x, &map);
        apply1(&mut back, &inv, &tx, &map);
        for cb in 0..x.sites() {
            let diff = (back.get(cb) - x.get(cb)).norm_sqr();
            assert!(diff < 1e-18, "cb={cb} diff={diff}");
        }
    }

    #[test]
    fn every_lane_count_matches_batch_one() {
        // Every batch width n, with all lanes active and with the first, a
        // middle or the last lane masked: each active lane of both kernels
        // must be bit-identical to a batch-1 launch on that lane and each
        // masked slot must keep its sentinel.
        fn check<P: Precision>() {
            let d = dims();
            let cfg = weak_field(d, 0.12, 31);
            let mut term = CloverFieldCb::<P>::new(d);
            for (cb, a) in clover_sites_cb(&cfg, 1.1, Parity::Even).iter().enumerate() {
                term.set(cb, &a.shifted(4.3));
            }
            let map = CloverBasisMap::new();
            let field = |seed: u64| {
                let mut f = SpinorFieldCb::<P>::new(d, false);
                f.upload(&random_spinor_field(d, seed), Parity::Even);
                f
            };
            let ins: Vec<_> = (0..MAX_RHS_BATCH).map(|k| field(40 + k as u64)).collect();
            let bs: Vec<_> = (0..MAX_RHS_BATCH).map(|k| field(80 + k as u64)).collect();
            let sentinel = Spinor::point(1, 2).scale_re(P::Arith::from_f64(0.75));
            let fresh = || {
                let mut f = SpinorFieldCb::<P>::new(d, false);
                f.fill_sites(|_| sentinel);
                f
            };
            let untouched = fresh();
            let s = P::Arith::from_f64(-0.25);
            let mut applied1 = Vec::new();
            let mut combined1 = Vec::new();
            for (a, b) in ins.iter().zip(&bs) {
                let (mut applied, mut combined) = (fresh(), fresh());
                apply1(&mut applied, &term, a, &map);
                axpy1(&mut combined, &term, a, s, b, &map);
                applied1.push(applied);
                combined1.push(combined);
            }
            for n in 1..=MAX_RHS_BATCH {
                for masked in [None, Some(0), Some(n / 2), Some(n - 1)] {
                    let active: Vec<bool> = (0..n).map(|r| Some(r) != masked).collect();
                    let mut applied: Vec<_> = (0..n).map(|_| fresh()).collect();
                    clover_apply_cb_multi(&mut applied, &term, &ins[..n], &map, &active);
                    let mut combined: Vec<_> = (0..n).map(|_| fresh()).collect();
                    clover_axpy_cb_multi(
                        &mut combined,
                        &term,
                        &ins[..n],
                        s,
                        &bs[..n],
                        &map,
                        &active,
                    );
                    for r in 0..n {
                        let (ea, ec) = if active[r] {
                            (&applied1[r], &combined1[r])
                        } else {
                            (&untouched, &untouched)
                        };
                        for cb in 0..term.sites() {
                            let at = format!("n={n} masked={masked:?} r={r} cb={cb}");
                            assert_eq!(applied[r].get(cb), ea.get(cb), "apply {at}");
                            assert_eq!(combined[r].get(cb), ec.get(cb), "axpy {at}");
                        }
                    }
                }
            }
        }
        check::<Double>();
        check::<Single>();
        check::<Half>();
        check::<Quarter>();
    }

    #[test]
    fn axpy_fusion_matches_composition() {
        let d = dims();
        let cfg = weak_field(d, 0.1, 2);
        let sites = clover_sites_cb(&cfg, 1.0, Parity::Even);
        let mut term = CloverFieldCb::<Double>::new(d);
        for (cb, a) in sites.iter().enumerate() {
            term.set(cb, &a.shifted(4.0));
        }
        let map = CloverBasisMap::new();
        let ha = random_spinor_field(d, 4);
        let hb = random_spinor_field(d, 6);
        let mut a = SpinorFieldCb::<Double>::new(d, false);
        let mut b = SpinorFieldCb::<Double>::new(d, false);
        a.upload(&ha, Parity::Even);
        b.upload(&hb, Parity::Even);
        let mut fused = SpinorFieldCb::<Double>::new(d, false);
        axpy1(&mut fused, &term, &a, -0.25, &b, &map);
        let mut ta = SpinorFieldCb::<Double>::new(d, false);
        apply1(&mut ta, &term, &a, &map);
        for cb in 0..a.sites() {
            let expect = ta.get(cb) + b.get(cb).scale_re(-0.25);
            assert!((fused.get(cb) - expect).norm_sqr() < 1e-24);
        }
    }
}
