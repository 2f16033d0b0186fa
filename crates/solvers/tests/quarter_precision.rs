//! The 8-bit ("quarter") storage extension, end to end.
//!
//! Section V-C3 notes the texture path accepts "a signed 16-bit (or even
//! 8-bit) integer". The paper never productionizes 8-bit; we implement it
//! as an extension and measure what reliable updates can and cannot rescue
//! at ~2.4 significant digits of storage.

use quda_dirac::{WilsonCloverOp, WilsonParams};
use quda_fields::gauge_gen::{random_spinor_field, weak_field};
use quda_fields::precision::{Double, Half, Quarter};
use quda_lattice::geometry::{LatticeDims, Parity};
use quda_solvers::operator::{LinearOperator, MatPcOp};
use quda_solvers::params::SolverParams;
use quda_solvers::{bicgstab_reliable, blas};
use std::slice::{from_mut, from_ref};

fn dims() -> LatticeDims {
    LatticeDims::new(4, 4, 4, 4)
}

#[test]
fn quarter_matpc_approximates_double() {
    let d = dims();
    let cfg = weak_field(d, 0.1, 7);
    let wp = WilsonParams { mass: 0.3, c_sw: 1.0 };
    let hi = WilsonCloverOp::<Double>::from_config(&cfg, wp);
    let lo = WilsonCloverOp::<Quarter>::from_config(&cfg, wp);
    let host = random_spinor_field(d, 8);
    let mut x_hi = hi.alloc_spinor();
    x_hi.upload(&host, Parity::Odd);
    let mut x_lo = lo.alloc_spinor();
    x_lo.upload(&host, Parity::Odd);
    let (mut o_hi, mut a, mut b) = (hi.alloc_spinor(), hi.alloc_spinor(), hi.alloc_spinor());
    hi.apply_matpc(&mut o_hi, &x_hi, &mut a, &mut b, false);
    let (mut o_lo, mut c, mut e) = (lo.alloc_spinor(), lo.alloc_spinor(), lo.alloc_spinor());
    lo.apply_matpc(&mut o_lo, &x_lo, &mut c, &mut e, false);
    let mut num = 0.0;
    let mut den = 0.0;
    for cb in 0..o_hi.sites() {
        let hi_v = o_hi.get(cb);
        let lo_v = o_lo.get(cb).cast::<f64>();
        num += (hi_v - lo_v).norm_sqr();
        den += hi_v.norm_sqr();
    }
    let rel = (num / den).sqrt();
    // ~1/254 per element, amplified by the stencil sum: a few percent.
    assert!(rel < 0.08, "quarter-precision matvec error {rel}");
    assert!(rel > 1e-4, "suspiciously accurate for 8-bit storage: {rel}");
}

#[test]
fn double_quarter_reliable_updates_still_converge() {
    // Reliable updates recompute the truth in f64, so even 8-bit sloppy
    // iterations make progress — just with more frequent updates (δ must
    // be loose) and more iterations than double-half.
    let d = dims();
    let cfg = weak_field(d, 0.1, 9);
    let wp = WilsonParams { mass: 0.3, c_sw: 1.0 };
    let mut hi = MatPcOp::new(WilsonCloverOp::<Double>::from_config(&cfg, wp));
    let mut lo = MatPcOp::new(WilsonCloverOp::<Quarter>::from_config(&cfg, wp));
    let host = random_spinor_field(d, 10);
    let mut b = hi.alloc();
    b.upload(&host, Parity::Odd);
    let mut x = hi.alloc();
    blas::zero(&mut x);
    let params = SolverParams { tol: 1e-8, max_iter: 8000, delta: 0.3 };
    let res = bicgstab_reliable(&mut hi, &mut lo, from_mut(&mut x), from_ref(&b), &params, &mut [])
        .remove(0);
    assert!(res.converged, "double-quarter failed: residual {}", res.final_residual);
    assert!(res.final_residual <= 1e-8);
    assert!(res.reliable_updates >= 2);
}

#[test]
fn quarter_needs_more_iterations_than_half() {
    let d = dims();
    let cfg = weak_field(d, 0.1, 11);
    let wp = WilsonParams { mass: 0.3, c_sw: 1.0 };
    let host = random_spinor_field(d, 12);
    let params = SolverParams { tol: 1e-8, max_iter: 8000, delta: 0.3 };

    let mut hi = MatPcOp::new(WilsonCloverOp::<Double>::from_config(&cfg, wp));
    let mut b = hi.alloc();
    b.upload(&host, Parity::Odd);

    let mut lo_half = MatPcOp::new(WilsonCloverOp::<Half>::from_config(&cfg, wp));
    let mut x1 = hi.alloc();
    blas::zero(&mut x1);
    let res_half =
        bicgstab_reliable(&mut hi, &mut lo_half, from_mut(&mut x1), from_ref(&b), &params, &mut [])
            .remove(0);

    let mut lo_quarter = MatPcOp::new(WilsonCloverOp::<Quarter>::from_config(&cfg, wp));
    let mut x2 = hi.alloc();
    blas::zero(&mut x2);
    let res_quarter = bicgstab_reliable(
        &mut hi,
        &mut lo_quarter,
        from_mut(&mut x2),
        from_ref(&b),
        &params,
        &mut [],
    )
    .remove(0);

    assert!(res_half.converged && res_quarter.converged);
    assert!(
        res_quarter.iterations >= res_half.iterations,
        "quarter ({}) should not beat half ({}) in iterations",
        res_quarter.iterations,
        res_half.iterations
    );
    // The memory advantage is real though: 8-bit fields are half the size
    // of half-precision ones.
    let f_half = quda_fields::SpinorFieldCb::<Half>::new(d, false).device_bytes();
    let f_quarter = quda_fields::SpinorFieldCb::<Quarter>::new(d, false).device_bytes();
    assert!(f_quarter < f_half);
}
