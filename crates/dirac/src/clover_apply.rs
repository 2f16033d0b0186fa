//! Clover-term application kernels on checkerboard fields.

use crate::dslash::{Lanes, MAX_RHS_BATCH};
use quda_fields::precision::Precision;
use quda_fields::{CloverFieldCb, SpinorFieldCb};
use quda_math::clover::CloverBasisMap;

/// `out[cb] = T[cb] · in[cb]` where `T` is a packed clover-type field
/// (either the shifted term `(4+m) + A` or its inverse), applied to spinors
/// stored in the non-relativistic basis.
pub fn clover_apply_cb<P: Precision>(
    out: &mut SpinorFieldCb<P>,
    term: &CloverFieldCb<P>,
    input: &SpinorFieldCb<P>,
    map: &CloverBasisMap,
) {
    assert_eq!(out.sites(), input.sites());
    assert_eq!(term.sites(), input.sites());
    out.fill_sites(|cb| map.apply_nr(&term.get(cb), &input.get(cb)));
}

/// Fused `out[cb] = T[cb]·a[cb] + s·b[cb]` — the final combine of the
/// even-odd preconditioned operator (`s = −¼` against the double hop).
pub fn clover_axpy_cb<P: Precision>(
    out: &mut SpinorFieldCb<P>,
    term: &CloverFieldCb<P>,
    a: &SpinorFieldCb<P>,
    s: P::Arith,
    b: &SpinorFieldCb<P>,
    map: &CloverBasisMap,
) {
    assert_eq!(a.sites(), b.sites());
    out.fill_sites(|cb| map.apply_nr(&term.get(cb), &a.get(cb)) + b.get(cb).scale_re(s));
}

/// Batched [`clover_apply_cb`]: `outs[r][cb] = T[cb] · ins[r][cb]` for
/// every lane with `active[r]`, decoding the packed clover site once for
/// the whole block — the field-reuse that motivates multi-RHS batching.
///
/// Per active lane the output is bit-identical to [`clover_apply_cb`]
/// (the decoded term is a pure read, and each lane's arithmetic chain is
/// unchanged); inactive slots are untouched.
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
    let idxs = match Lanes::select(active, &mut idx_buf) {
        Lanes::None => return,
        Lanes::One(r) => return clover_apply_cb(&mut outs[r], term, &ins[r], map),
        Lanes::Many(idxs) => idxs,
    };
    (0..term.sites()).for_each(|cb| {
        let t = term.get(cb);
        for &r in idxs {
            let v = map.apply_nr(&t, &ins[r].get(cb));
            outs[r].set(cb, &v);
        }
    });
}

/// Batched [`clover_axpy_cb`]: `outs[r][cb] = T[cb]·as_[r][cb] +
/// s·bs[r][cb]` for every lane with `active[r]`, decoding the packed
/// clover site once for the whole block. Per active lane bit-identical to
/// [`clover_axpy_cb`]; inactive slots are untouched.
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
    let idxs = match Lanes::select(active, &mut idx_buf) {
        Lanes::None => return,
        Lanes::One(r) => return clover_axpy_cb(&mut outs[r], term, &as_[r], s, &bs[r], map),
        Lanes::Many(idxs) => idxs,
    };
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
    use quda_fields::precision::Double;
    use quda_lattice::geometry::{LatticeDims, Parity};

    fn dims() -> LatticeDims {
        LatticeDims::new(4, 4, 2, 4)
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
        clover_apply_cb(&mut out, &term, &input, &map);
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
        clover_apply_cb(&mut tx, &term, &x, &map);
        clover_apply_cb(&mut back, &inv, &tx, &map);
        for cb in 0..x.sites() {
            let diff = (back.get(cb) - x.get(cb)).norm_sqr();
            assert!(diff < 1e-18, "cb={cb} diff={diff}");
        }
    }

    #[test]
    fn multi_kernels_bit_identical_to_scalar_and_skip_inactive() {
        let d = dims();
        let cfg = weak_field(d, 0.12, 31);
        let sites = clover_sites_cb(&cfg, 1.1, Parity::Even);
        let mut term = CloverFieldCb::<Double>::new(d);
        for (cb, a) in sites.iter().enumerate() {
            term.set(cb, &a.shifted(4.3));
        }
        let map = CloverBasisMap::new();
        let n = 3usize;
        let mut ins = Vec::new();
        let mut bs = Vec::new();
        for k in 0..n {
            let mut f = SpinorFieldCb::<Double>::new(d, false);
            f.upload(&random_spinor_field(d, 40 + k as u64), Parity::Even);
            ins.push(f);
            let mut g = SpinorFieldCb::<Double>::new(d, false);
            g.upload(&random_spinor_field(d, 80 + k as u64), Parity::Even);
            bs.push(g);
        }
        let active = [true, false, true];
        let sentinel = quda_math::spinor::Spinor::point(1, 2).scale_re(7.5);

        let mut outs: Vec<_> = (0..n).map(|_| SpinorFieldCb::<Double>::new(d, false)).collect();
        for out in &mut outs {
            out.fill_sites(|_| sentinel);
        }
        clover_apply_cb_multi(&mut outs, &term, &ins, &map, &active);
        for r in 0..n {
            let mut scalar = SpinorFieldCb::<Double>::new(d, false);
            clover_apply_cb(&mut scalar, &term, &ins[r], &map);
            for cb in 0..term.sites() {
                if active[r] {
                    assert_eq!(outs[r].get(cb), scalar.get(cb), "apply r={r} cb={cb}");
                } else {
                    assert_eq!(outs[r].get(cb), sentinel, "inactive slot touched r={r} cb={cb}");
                }
            }
        }

        let mut outs2: Vec<_> = (0..n).map(|_| SpinorFieldCb::<Double>::new(d, false)).collect();
        clover_axpy_cb_multi(&mut outs2, &term, &ins, -0.25, &bs, &map, &active);
        for r in 0..n {
            if !active[r] {
                continue;
            }
            let mut scalar = SpinorFieldCb::<Double>::new(d, false);
            clover_axpy_cb(&mut scalar, &term, &ins[r], -0.25, &bs[r], &map);
            for cb in 0..term.sites() {
                assert_eq!(outs2[r].get(cb), scalar.get(cb), "axpy r={r} cb={cb}");
            }
        }

        check_one_lane::<Double>();
        check_one_lane::<quda_fields::precision::Single>();
        check_one_lane::<quda_fields::precision::Half>();
        check_one_lane::<quda_fields::precision::Quarter>();
    }

    /// One active lane of a full-width batch takes the scalar kernels: that
    /// lane must match them bit for bit and the seven masked outputs must
    /// stay untouched, at every precision.
    fn check_one_lane<P: Precision>() {
        use quda_math::real::Real;
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
        let sentinel = quda_math::spinor::Spinor::point(1, 2).scale_re(P::Arith::from_f64(0.75));
        let fresh = || {
            let mut f = SpinorFieldCb::<P>::new(d, false);
            f.fill_sites(|_| sentinel);
            f
        };
        let untouched = fresh();
        let s = P::Arith::from_f64(-0.25);
        for lane in [0, MAX_RHS_BATCH / 2, MAX_RHS_BATCH - 1] {
            let mut active = [false; MAX_RHS_BATCH];
            active[lane] = true;
            let mut applied: Vec<_> = (0..MAX_RHS_BATCH).map(|_| fresh()).collect();
            clover_apply_cb_multi(&mut applied, &term, &ins, &map, &active);
            let mut apply_scalar = fresh();
            clover_apply_cb(&mut apply_scalar, &term, &ins[lane], &map);
            let mut combined: Vec<_> = (0..MAX_RHS_BATCH).map(|_| fresh()).collect();
            clover_axpy_cb_multi(&mut combined, &term, &ins, s, &bs, &map, &active);
            let mut axpy_scalar = fresh();
            clover_axpy_cb(&mut axpy_scalar, &term, &ins[lane], s, &bs[lane], &map);
            for r in 0..MAX_RHS_BATCH {
                let (ea, ec) = if r == lane {
                    (&apply_scalar, &axpy_scalar)
                } else {
                    (&untouched, &untouched)
                };
                for cb in 0..term.sites() {
                    assert_eq!(applied[r].get(cb), ea.get(cb), "apply lane={lane} r={r} cb={cb}");
                    assert_eq!(combined[r].get(cb), ec.get(cb), "axpy lane={lane} r={r} cb={cb}");
                }
            }
        }
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
        clover_axpy_cb(&mut fused, &term, &a, -0.25, &b, &map);
        let mut ta = SpinorFieldCb::<Double>::new(d, false);
        clover_apply_cb(&mut ta, &term, &a, &map);
        for cb in 0..a.sites() {
            let expect = ta.get(cb) + b.get(cb).scale_re(-0.25);
            assert!((fused.get(cb) - expect).norm_sqr() < 1e-24);
        }
    }
}
