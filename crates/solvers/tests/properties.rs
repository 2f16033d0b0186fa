//! Property-based tests of the solver layer: blas algebraic identities over
//! random vectors and solver convergence over random well-conditioned
//! systems.

use proptest::prelude::*;
use quda_dirac::{WilsonCloverOp, WilsonParams};
use quda_fields::gauge_gen::{random_spinor_field, weak_field};
use quda_fields::precision::Double;
use quda_fields::SpinorFieldCb;
use quda_lattice::geometry::{LatticeDims, Parity};
use quda_math::complex::C64;
use quda_solvers::blas::{self, BlasCounters};
use quda_solvers::operator::MatPcOp;
use quda_solvers::params::SolverParams;

fn dims() -> LatticeDims {
    LatticeDims::new(4, 4, 2, 4)
}

fn field(seed: u64) -> SpinorFieldCb<Double> {
    let host = random_spinor_field(dims(), seed);
    let mut f = SpinorFieldCb::new(dims(), false);
    f.upload(&host, Parity::Odd);
    f
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn caxpy_norm_is_consistent_with_parts(seed in 0u64..500, re in -2.0f64..2.0, im in -2.0f64..2.0) {
        let x = field(seed);
        let mut y = field(seed + 1);
        let y0 = y.clone();
        let a = C64::new(re, im);
        let mut c = BlasCounters::default();
        let n = blas::caxpy_norm(a, &x, &mut y, &mut c);
        // y = y0 + a x, n = |y|².
        let mut expect_norm = 0.0;
        for cb in 0..x.sites() {
            let expect = y0.get(cb) + x.get(cb).scale(a.cast());
            expect_norm += expect.norm_sqr();
            prop_assert!((y.get(cb) - expect).norm_sqr() < 1e-22);
        }
        prop_assert!((n - expect_norm).abs() < 1e-8 * expect_norm.max(1.0));
    }

    #[test]
    fn norms_are_positive_definite(seed in 0u64..500) {
        let x = field(seed);
        let mut c = BlasCounters::default();
        let n = blas::norm2(&x, &mut c);
        prop_assert!(n > 0.0);
        let d = blas::cdot(&x, &x, &mut c);
        prop_assert!((d.re - n).abs() < 1e-9 * n);
        prop_assert!(d.im.abs() < 1e-9 * n);
    }

    #[test]
    fn dot_conjugate_symmetry(s1 in 0u64..500, s2 in 500u64..1000) {
        let x = field(s1);
        let y = field(s2);
        let mut c = BlasCounters::default();
        let xy = blas::cdot(&x, &y, &mut c);
        let yx = blas::cdot(&y, &x, &mut c);
        prop_assert!((xy.re - yx.re).abs() < 1e-9);
        prop_assert!((xy.im + yx.im).abs() < 1e-9);
    }

    #[test]
    fn bicgstab_solves_random_weak_field_systems(seed in 0u64..100, mass in 0.15f64..0.6) {
        let d = dims();
        let cfg = weak_field(d, 0.15, seed);
        let mut op = MatPcOp::new(WilsonCloverOp::<Double>::from_config(
            &cfg,
            WilsonParams { mass, c_sw: 1.0 },
        ));
        let host = random_spinor_field(d, seed + 77);
        let mut b = quda_solvers::operator::LinearOperator::alloc(&op);
        b.upload(&host, Parity::Odd);
        let mut x = quda_solvers::operator::LinearOperator::alloc(&op);
        blas::zero(&mut x);
        let res = quda_solvers::bicgstab(
            &mut op,
            std::slice::from_mut(&mut x),
            std::slice::from_ref(&b),
            &SolverParams { tol: 1e-9, max_iter: 500, delta: 0.0 },
            &mut [],
        )
        .remove(0);
        prop_assert!(res.converged, "mass={mass} seed={seed} residual={}", res.final_residual);
        prop_assert!(res.final_residual < 1e-8);
    }

    #[test]
    fn solver_iterations_grow_as_mass_decreases(seed in 0u64..50) {
        // The quark mass controls the condition number (Section II).
        let d = dims();
        let cfg = weak_field(d, 0.2, seed);
        let host = random_spinor_field(d, seed + 5);
        let mut iters = Vec::new();
        for mass in [1.0, 0.3, 0.05] {
            let mut op = MatPcOp::new(WilsonCloverOp::<Double>::from_config(
                &cfg,
                WilsonParams { mass, c_sw: 1.0 },
            ));
            let mut b = quda_solvers::operator::LinearOperator::alloc(&op);
            b.upload(&host, Parity::Odd);
            let mut x = quda_solvers::operator::LinearOperator::alloc(&op);
            blas::zero(&mut x);
            let res = quda_solvers::bicgstab(
                &mut op,
                std::slice::from_mut(&mut x),
                std::slice::from_ref(&b),
                &SolverParams { tol: 1e-8, max_iter: 2000, delta: 0.0 },
                &mut [],
            )
            .remove(0);
            prop_assert!(res.converged);
            iters.push(res.iterations);
        }
        prop_assert!(
            iters[0] <= iters[2],
            "heavier quark should not need more iterations: {iters:?}"
        );
    }
}
