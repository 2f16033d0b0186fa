//! Spectral estimation: condition numbers of the normal operator.
//!
//! Section II asserts that "even-odd preconditioning is used to accelerate
//! the solution finding process" and that "the quark mass controls the
//! condition number of the matrix, and hence the convergence of such
//! iterative solvers". This module makes both statements measurable:
//! power iteration bounds the largest eigenvalue of `M̂†M̂`, inverse power
//! iteration (each step one CGNR solve) bounds the smallest, and their
//! ratio is the squared-condition number that governs CG-type convergence.

use crate::blas::{self, BlasCounters};
use crate::operator::LinearOperator;
use crate::params::SolverParams;
use quda_fields::precision::Precision;
use quda_fields::SpinorFieldCb;
use quda_math::complex::C64;
use quda_math::real::Real;
use std::slice::from_mut;

/// The mask of the one-field applications below.
const ONE: &[bool] = &[true];

/// Result of a spectral probe.
#[derive(Copy, Clone, Debug)]
pub struct SpectrumEstimate {
    /// Largest eigenvalue of `M̂†M̂` (Rayleigh quotient at convergence).
    pub lambda_max: f64,
    /// Smallest eigenvalue of `M̂†M̂`.
    pub lambda_min: f64,
}

impl SpectrumEstimate {
    /// Condition number of the normal operator, `λmax/λmin` — the square of
    /// the condition number of `M̂` itself.
    pub fn condition_normal(&self) -> f64 {
        self.lambda_max / self.lambda_min
    }
}

/// The global sum of one local real reduction.
fn global_sum<P: Precision>(op: &mut dyn LinearOperator<P>, local: f64) -> f64 {
    let mut sum = [local];
    op.reduce(&mut sum);
    sum[0]
}

/// The real part of the global sum of one local complex reduction.
fn global_sum_re<P: Precision>(op: &mut dyn LinearOperator<P>, local: C64) -> f64 {
    let mut sum = [local.re, local.im];
    op.reduce(&mut sum);
    sum[0]
}

fn normalize<P: Precision>(
    x: &mut SpinorFieldCb<P>,
    op: &mut dyn LinearOperator<P>,
    c: &mut BlasCounters,
) -> f64 {
    let n2 = global_sum(op, blas::norm2(x, c));
    let inv = 1.0 / n2.sqrt();
    for cb in 0..x.sites() {
        let v = x.get(cb).scale_re(P::Arith::from_f64(inv));
        x.set(cb, &v);
    }
    n2.sqrt()
}

/// Power iteration for the largest eigenvalue of `A = M̂†M̂`.
pub fn lambda_max<P: Precision>(
    op: &mut dyn LinearOperator<P>,
    seed_field: &SpinorFieldCb<P>,
    iterations: usize,
) -> f64 {
    let mut c = BlasCounters::default();
    let mut x = seed_field.clone();
    normalize(&mut x, op, &mut c);
    let mut mid = op.alloc();
    let mut ax = op.alloc();
    let mut lambda = 0.0;
    for _ in 0..iterations {
        op.apply(from_mut(&mut mid), from_mut(&mut x), ONE);
        op.apply_dagger(from_mut(&mut ax), from_mut(&mut mid), ONE);
        // Rayleigh quotient <x, Ax> (x normalized).
        lambda = global_sum_re(op, blas::cdot(&x, &ax, &mut c));
        std::mem::swap(&mut x, &mut ax);
        normalize(&mut x, op, &mut c);
    }
    lambda
}

/// Inverse power iteration for the smallest eigenvalue of `A = M̂†M̂`:
/// each step solves `M̂ y = x` (CGNR), i.e. applies `A⁻¹ = M̂⁻¹ M̂⁻†`
/// implicitly through the normal equations.
pub fn lambda_min<P: Precision>(
    op: &mut dyn LinearOperator<P>,
    seed_field: &SpinorFieldCb<P>,
    iterations: usize,
    solve_tol: f64,
) -> f64 {
    let mut c = BlasCounters::default();
    let mut x = seed_field.clone();
    normalize(&mut x, op, &mut c);
    let params = SolverParams { tol: solve_tol, max_iter: 10_000, delta: 0.0 };
    let mut y = op.alloc();
    let mut lambda = f64::INFINITY;
    for _ in 0..iterations {
        // y ≈ A⁻¹ x: two triangular half-solves via one CGNR on A y = x
        // (cgnr solves M̂ y = x in the least-squares sense; for the
        // eigenvalue of A we need A⁻¹, i.e. solve A y = x directly).
        blas::zero(&mut y);
        solve_normal(op, &mut y, &x, &params, &mut c);
        // Rayleigh quotient of A at the new vector: λ_min ≈ <y,x>/<y,Ay>
        // ... simpler: x normalized, y = A⁻¹x, so <x, y> ≈ 1/λ along the
        // dominant small mode.
        let xy = global_sum_re(op, blas::cdot(&x, &y, &mut c));
        lambda = 1.0 / xy;
        std::mem::swap(&mut x, &mut y);
        normalize(&mut x, op, &mut c);
    }
    lambda
}

/// Solve `M̂†M̂ y = b` by running CGNR against `M̂†` then `M̂`… which is
/// exactly CG on the normal operator with right-hand side `M̂† (M̂⁻† b)`.
/// We avoid double work by noting `A y = b  ⇔  M̂ y = z, M̂† z = b`; both
/// stages reuse [`cgnr`].
fn solve_normal<P: Precision>(
    op: &mut dyn LinearOperator<P>,
    y: &mut SpinorFieldCb<P>,
    b: &SpinorFieldCb<P>,
    params: &SolverParams,
    c: &mut BlasCounters,
) {
    // Stage 1: M̂† z = b. CGNR solves M̂ x = b; for the dagger system swap
    // roles by solving with the adjoint operator: wrap via closure is not
    // possible with the trait, so use CG on A directly:
    // A y = b with A Hermitian positive definite — plain CG.
    let target2 = params.tol * params.tol * global_sum(op, blas::norm2(b, c));
    let mut r = op.alloc();
    blas::copy(&mut r, b, c); // y = 0 ⇒ r = b
    let mut p = op.alloc();
    blas::copy(&mut p, &r, c);
    let mut mid = op.alloc();
    let mut ap = op.alloc();
    let mut rsq = global_sum(op, blas::norm2(&r, c));
    let mut it = 0;
    while rsq > target2 && it < params.max_iter {
        op.apply(from_mut(&mut mid), from_mut(&mut p), ONE);
        op.apply_dagger(from_mut(&mut ap), from_mut(&mut mid), ONE);
        let p_ap = global_sum_re(op, blas::cdot(&p, &ap, c));
        if p_ap <= 0.0 {
            break;
        }
        let alpha = rsq / p_ap;
        blas::axpy(alpha, &p, y, c);
        let rsq_new = global_sum(op, blas::caxpy_norm(C64::new(-alpha, 0.0), &ap, &mut r, c));
        let beta = rsq_new / rsq;
        rsq = rsq_new;
        blas::xpay(&r, beta, &mut p, c);
        it += 1;
    }
}

/// Convenience: estimate both ends of the spectrum.
pub fn estimate_spectrum<P: Precision>(
    op: &mut dyn LinearOperator<P>,
    seed_field: &SpinorFieldCb<P>,
    power_iters: usize,
    inverse_iters: usize,
) -> SpectrumEstimate {
    SpectrumEstimate {
        lambda_max: lambda_max(op, seed_field, power_iters),
        lambda_min: lambda_min(op, seed_field, inverse_iters, 1e-10),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::MatPcOp;
    use quda_dirac::{WilsonCloverOp, WilsonParams};
    use quda_fields::gauge_gen::{random_spinor_field, weak_field};
    use quda_fields::precision::Double;
    use quda_lattice::geometry::{LatticeDims, Parity};

    fn op_with_mass(mass: f64, seed: u64) -> MatPcOp<Double> {
        let d = LatticeDims::new(4, 4, 2, 4);
        let cfg = weak_field(d, 0.15, seed);
        MatPcOp::new(WilsonCloverOp::from_config(&cfg, WilsonParams { mass, c_sw: 1.0 }))
    }

    fn seed_vec(op: &MatPcOp<Double>, seed: u64) -> SpinorFieldCb<Double> {
        let d = op.op.dims;
        let host = random_spinor_field(d, seed);
        let mut x = op.op.alloc_spinor();
        x.upload(&host, Parity::Odd);
        x
    }

    #[test]
    fn free_field_spectrum_is_exact() {
        // On the unit gauge field M̂ is a (shifted) circulant: its extreme
        // eigenvalues are analytically bounded by the constant mode
        // λ_const = s − 16/s with s = 4+m, and the spectrum of A contains
        // λ_const². Power iteration must return something ≥ that and ≤ the
        // trivial upper bound (s + 16/s)².
        let d = LatticeDims::new(4, 4, 2, 4);
        let cfg = quda_fields::host::GaugeConfig::unit(d);
        let mut op = MatPcOp::new(WilsonCloverOp::<Double>::from_config(
            &cfg,
            WilsonParams { mass: 0.5, c_sw: 0.0 },
        ));
        let seed = seed_vec(&op, 3);
        let lmax = lambda_max(&mut op, &seed, 40);
        let s = 4.5f64;
        let upper = (s + 16.0 / s) * (s + 16.0 / s);
        let lower = (s - 16.0 / s) * (s - 16.0 / s);
        assert!(lmax <= upper * 1.001, "λmax {lmax} above {upper}");
        assert!(lmax >= lower * 0.999, "λmax {lmax} below constant-mode bound {lower}");
    }

    #[test]
    fn condition_number_grows_as_mass_shrinks() {
        // "The quark mass controls the condition number of the matrix"
        // (Section II).
        let mut heavy = op_with_mass(1.0, 5);
        let seed_h = seed_vec(&heavy, 6);
        let k_heavy = estimate_spectrum(&mut heavy, &seed_h, 30, 8).condition_normal();
        let mut light = op_with_mass(0.05, 5);
        let seed_l = seed_vec(&light, 6);
        let k_light = estimate_spectrum(&mut light, &seed_l, 30, 8).condition_normal();
        assert!(
            k_light > k_heavy,
            "lighter quark must be worse conditioned: κ_light={k_light:.2} κ_heavy={k_heavy:.2}"
        );
    }

    #[test]
    fn spectrum_is_positive_and_ordered() {
        let mut op = op_with_mass(0.3, 9);
        let seed = seed_vec(&op, 10);
        let est = estimate_spectrum(&mut op, &seed, 30, 8);
        assert!(est.lambda_min > 0.0);
        assert!(est.lambda_max > est.lambda_min);
        assert!(est.condition_normal() > 1.0);
    }

    #[test]
    fn solver_iterations_track_condition_number() {
        // BiCGstab iteration counts on the same right-hand side should
        // order with the measured condition numbers.
        let host = random_spinor_field(LatticeDims::new(4, 4, 2, 4), 20);
        let mut counts = Vec::new();
        let mut kappas = Vec::new();
        for mass in [1.0, 0.1] {
            let mut op = op_with_mass(mass, 21);
            let mut b = op.alloc();
            b.upload(&host, Parity::Odd);
            let mut x = op.alloc();
            blas::zero(&mut x);
            let res = crate::bicgstab::bicgstab(
                &mut op,
                std::slice::from_mut(&mut x),
                std::slice::from_ref(&b),
                &SolverParams { tol: 1e-9, max_iter: 2000, delta: 0.0 },
                &mut [],
            )
            .remove(0);
            assert!(res.converged);
            counts.push(res.iterations);
            let seed = seed_vec(&op, 22);
            kappas.push(estimate_spectrum(&mut op, &seed, 25, 6).condition_normal());
        }
        assert!(kappas[1] > kappas[0]);
        assert!(counts[1] >= counts[0], "counts {counts:?} vs kappas {kappas:?}");
    }
}
