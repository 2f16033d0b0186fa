//! Conjugate gradients on the normal equations (CGNR).
//!
//! The Wilson-clover matrix is non-Hermitian, so CG is applied to
//! `M̂† M̂ x = M̂† b` (Section II: "either Conjugate Gradients on the normal
//! equations (CGNE or CGNR) is used, or ... BiCGstab").

use crate::blas::{self, BlasCounters};
use crate::checkpoint::{self, CheckpointCounters, CheckpointSink, CHECKPOINT_EVERY};
use crate::mixed::MAX_RECOVERIES;
use crate::operator::{residual_norm2_multi, traced, traced_iter, LinearOperator};
use crate::params::{SolveResult, SolverParams};
use quda_fields::precision::Precision;
use quda_fields::SpinorFieldCb;
use quda_math::complex::C64;
use quda_obs::Phase;
use std::slice::from_mut;

/// Solve `M̂ xs[k] = bs[k]` for every `k` via CG on the normal equations;
/// a single system is the batch of one.
///
/// Like [`bicgstab_reliable`](crate::mixed::bicgstab_reliable), each lane
/// keeps its own rollback copy of the solution, refreshed every
/// `CHECKPOINT_EVERY` iterations, and its own recovery budget: a
/// corrupted (non-finite) reduction rolls that lane back and rebuilds its
/// residual. A fault reported by [`LinearOperator::fault`] aborts every
/// in-flight lane with [`SolveResult::error`] set.
///
/// `sinks` is empty (no checkpointing) or holds one sink per lane. Each
/// lane deposits its iterate (CGNR rebuilds its residual from `x` at
/// entry, so a resume is a warm start) at entry and at every rollback-copy
/// refresh while not converged; iteration/matvec counters continue across
/// incarnations.
pub fn cgnr<P: Precision>(
    op: &mut dyn LinearOperator<P>,
    xs: &mut [SpinorFieldCb<P>],
    bs: &[SpinorFieldCb<P>],
    params: &SolverParams,
    sinks: &mut [&mut dyn CheckpointSink],
) -> Vec<SolveResult> {
    let n = xs.len();
    assert_eq!(bs.len(), n, "solution/source batch length mismatch");
    assert!(sinks.is_empty() || sinks.len() == n, "one checkpoint sink per lane, or none");
    if n == 0 {
        return Vec::new();
    }
    let tracer = op.tracer();
    let mut cs: Vec<BlasCounters> = (0..n).map(|_| BlasCounters::default()).collect();
    let mut matvecs = vec![0u64; n];
    let mut iterations = vec![0usize; n];
    let mut epochs = vec![0u64; n];
    let mut converged = vec![false; n];
    let mut zero_b = vec![false; n];
    let mut active = vec![false; n];
    let mut recoveries = vec![0u64; n];
    let mut abort_error: Vec<Option<String>> = (0..n).map(|_| None).collect();
    let mut history: Vec<Vec<f64>> = (0..n).map(|_| Vec::with_capacity(params.max_iter)).collect();

    // A resume snapshot installed by the elastic supervisor: warm-start
    // the lane from the checkpointed iterate and continue its counters.
    for k in 0..n {
        let x = &mut xs[k];
        if let Some(ctr) = checkpoint::resume(sinks, k, &tracer, |ck| ck.restore_x(x).is_ok()) {
            matvecs[k] = ctr.matvecs_hi;
            iterations[k] = ctr.iterations as usize;
            epochs[k] = ctr.epoch;
        }
    }

    let mut b_norm2 = vec![0.0f64; n];
    for k in 0..n {
        b_norm2[k] = traced(&tracer, Phase::Blas, || blas::norm2(&bs[k], &mut cs[k]));
    }
    traced(&tracer, Phase::Reduce, || op.reduce(&mut b_norm2));
    for k in 0..n {
        if b_norm2[k] == 0.0 {
            blas::zero(&mut xs[k]);
            zero_b[k] = true;
            converged[k] = true;
        } else {
            active[k] = true;
        }
    }

    // Normal-equation right-hand sides b' = M̂† b, one fused dagger sweep.
    let mut b_works: Vec<_> = (0..n).map(|_| op.alloc()).collect();
    let mut bps: Vec<_> = (0..n).map(|_| op.alloc()).collect();
    for k in 0..n {
        if active[k] {
            blas::copy(&mut b_works[k], &bs[k], &mut cs[k]);
        }
    }
    op.apply_dagger(&mut bps, &mut b_works, &active);
    let mut bp_norm2 = vec![0.0f64; n];
    for k in 0..n {
        if !active[k] {
            continue;
        }
        matvecs[k] += 1;
        bp_norm2[k] = blas::norm2(&bps[k], &mut cs[k]);
    }
    traced(&tracer, Phase::Reduce, || op.reduce(&mut bp_norm2));
    let target2: Vec<f64> = (0..n).map(|k| params.tol * params.tol * bp_norm2[k]).collect();

    // r = b' − A x with A = M̂†M̂ (each x may carry an initial guess).
    let mut mids: Vec<_> = (0..n).map(|_| op.alloc()).collect();
    let mut rs: Vec<_> = (0..n).map(|_| op.alloc()).collect();
    op.apply(&mut mids, xs, &active);
    op.apply_dagger(&mut rs, &mut mids, &active);
    let mut rsq = vec![0.0f64; n];
    for k in 0..n {
        if !active[k] {
            continue;
        }
        matvecs[k] += 2;
        rsq[k] = blas::xmy_norm(&bps[k], &mut rs[k], &mut cs[k]);
    }
    traced(&tracer, Phase::Reduce, || op.reduce(&mut rsq));
    for k in 0..n {
        if active[k] && rsq[k] <= target2[k] {
            converged[k] = true;
            active[k] = false;
        }
    }

    let mut ps: Vec<_> = (0..n).map(|_| op.alloc()).collect();
    let mut aps: Vec<_> = (0..n).map(|_| op.alloc()).collect();
    let mut checkpoint_xs: Vec<_> = (0..n).map(|_| op.alloc()).collect();
    for k in 0..n {
        if zero_b[k] {
            continue;
        }
        blas::copy(&mut ps[k], &rs[k], &mut cs[k]);
        blas::copy(&mut checkpoint_xs[k], &xs[k], &mut cs[k]);
        epochs[k] += 1;
        let ctr = CheckpointCounters::warm_start(epochs[k], iterations[k], matvecs[k], rsq[k]);
        checkpoint::deposit(sinks, k, &tracer, ctr, &xs[k], None);
    }
    // Per-sweep lane masks and the fused-reduction staging buffer (stale
    // slots of dropped lanes are summed but never read).
    let mut stage = vec![false; n];
    let mut corrupt = vec![false; n];
    let mut red = vec![0.0f64; n];
    let mut sweep: u64 = 0;

    loop {
        for k in 0..n {
            if active[k] && iterations[k] >= params.max_iter {
                active[k] = false;
            }
        }
        if !active.iter().any(|&a| a) {
            break;
        }
        if let Some(f) = op.fault() {
            for k in 0..n {
                if active[k] {
                    // Abort path, entered at most once per batch.
                    // quda-lint: allow(hot-alloc)
                    abort_error[k] = Some(f.message.clone());
                    active[k] = false;
                }
            }
            break;
        }
        sweep += 1;
        // Ap = M̂† M̂ p for the whole active block: two fused gauge sweeps.
        traced_iter(&tracer, Phase::Matvec, sweep, || {
            op.apply(&mut mids, &mut ps, &active);
            op.apply_dagger(&mut aps, &mut mids, &active);
        });
        // α needs the globally reduced p·Ap before x and r can move, so
        // the sweep's scalar work runs in packed passes around each fused
        // collective.
        stage.copy_from_slice(&active);
        corrupt.fill(false);
        for k in 0..n {
            if !active[k] {
                continue;
            }
            matvecs[k] += 2;
            red[k] = traced(&tracer, Phase::Blas, || blas::cdot(&ps[k], &aps[k], &mut cs[k]).re);
        }
        traced(&tracer, Phase::Reduce, || op.reduce(&mut red));
        for k in 0..n {
            if !active[k] {
                continue;
            }
            let p_ap = red[k];
            // Non-finiteness must be tested before positivity (a NaN would
            // sail through the check and poison x via α).
            if !p_ap.is_finite() {
                corrupt[k] = true;
                stage[k] = false;
                continue;
            }
            if p_ap <= 0.0 {
                active[k] = false; // loss of positivity: breakdown
                stage[k] = false;
                continue;
            }
            let alpha = rsq[k] / p_ap;
            red[k] = traced(&tracer, Phase::Blas, || {
                blas::axpy(alpha, &ps[k], &mut xs[k], &mut cs[k]);
                blas::caxpy_norm(C64::new(-alpha, 0.0), &aps[k], &mut rs[k], &mut cs[k])
            });
        }
        traced(&tracer, Phase::Reduce, || op.reduce(&mut red));
        for k in 0..n {
            if !active[k] {
                continue;
            }
            let mut rsq_new = rsq[k];
            if stage[k] {
                rsq_new = red[k];
                corrupt[k] = !rsq_new.is_finite();
            }
            if corrupt[k] {
                if let Some(f) = op.fault() {
                    // quda-lint: allow(hot-alloc)
                    abort_error[k] = Some(f.message);
                    active[k] = false;
                    continue;
                }
                recoveries[k] += 1;
                if recoveries[k] > MAX_RECOVERIES {
                    // Formatted at most once per RHS, on its abort path.
                    // quda-lint: allow(hot-alloc)
                    abort_error[k] = Some(format!(
                        "corrupted solver state persisted after {MAX_RECOVERIES} rollbacks"
                    ));
                    active[k] = false;
                    continue;
                }
                // Roll this RHS back and rebuild r = b' − A x from its
                // checkpoint; the single-RHS applies are bit-identical to
                // the fused sweep, so only this system is perturbed.
                blas::copy(&mut xs[k], &checkpoint_xs[k], &mut cs[k]);
                op.apply(from_mut(&mut mids[k]), from_mut(&mut xs[k]), &[true]);
                op.apply_dagger(from_mut(&mut rs[k]), from_mut(&mut mids[k]), &[true]);
                matvecs[k] += 2;
                rsq[k] = blas::xmy_norm(&bps[k], &mut rs[k], &mut cs[k]);
                op.reduce(from_mut(&mut rsq[k]));
                blas::copy(&mut ps[k], &rs[k], &mut cs[k]);
                continue;
            }
            let beta = rsq_new / rsq[k];
            rsq[k] = rsq_new;
            traced(&tracer, Phase::Blas, || blas::xpay(&rs[k], beta, &mut ps[k], &mut cs[k]));
            iterations[k] += 1;
            history[k].push((rsq[k] / bp_norm2[k].max(f64::MIN_POSITIVE)).sqrt());
            let done = rsq[k] <= target2[k];
            if iterations[k] % CHECKPOINT_EVERY == 0 {
                blas::copy(&mut checkpoint_xs[k], &xs[k], &mut cs[k]);
                if !done {
                    epochs[k] += 1;
                    let ctr = CheckpointCounters::warm_start(
                        epochs[k],
                        iterations[k],
                        matvecs[k],
                        rsq[k],
                    );
                    checkpoint::deposit(sinks, k, &tracer, ctr, &xs[k], None);
                }
            }
            if done {
                converged[k] = true;
                active[k] = false;
            }
        }
    }

    // True residuals of the original systems: one fused sweep, one fused
    // reduction (the `Ap` workspaces are dead after the loop).
    for k in 0..n {
        stage[k] = !zero_b[k];
    }
    let mut true_r2 = vec![0.0f64; n];
    residual_norm2_multi(op, &mut aps, xs, bs, &mut cs, &stage, &mut true_r2);
    let mut results = Vec::with_capacity(n);
    for k in 0..n {
        if zero_b[k] {
            results.push(SolveResult { converged: true, ..Default::default() });
            continue;
        }
        matvecs[k] += 1;
        let final_residual = (true_r2[k] / b_norm2[k]).sqrt();
        results.push(SolveResult {
            converged: converged[k] && abort_error[k].is_none(),
            iterations: iterations[k],
            matvecs: matvecs[k],
            reliable_updates: 0,
            final_residual,
            op_flops: matvecs[k] * op.flops_per_apply(),
            blas: std::mem::take(&mut cs[k]),
            residual_history: std::mem::take(&mut history[k]),
            recoveries: recoveries[k],
            comm_recoveries: 0,
            error: abort_error[k].take(),
        });
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::MatPcOp;
    use quda_dirac::{WilsonCloverOp, WilsonParams};
    use quda_fields::gauge_gen::{random_spinor_field, weak_field};
    use quda_fields::precision::Double;
    use quda_lattice::geometry::{LatticeDims, Parity};
    use std::slice::{from_mut, from_ref};

    fn setup(seed: u64) -> (MatPcOp<Double>, SpinorFieldCb<Double>) {
        let d = LatticeDims::new(4, 4, 4, 4);
        let cfg = weak_field(d, 0.15, seed);
        let op = WilsonCloverOp::<Double>::from_config(&cfg, WilsonParams { mass: 0.2, c_sw: 1.0 });
        let wrapped = MatPcOp::new(op);
        let host = random_spinor_field(d, seed + 50);
        let mut b = wrapped.alloc();
        b.upload(&host, Parity::Odd);
        (wrapped, b)
    }

    /// Batch-1 CGNR from the guess in `x`.
    fn cgnr1(
        op: &mut dyn LinearOperator<Double>,
        x: &mut SpinorFieldCb<Double>,
        b: &SpinorFieldCb<Double>,
        params: &SolverParams,
    ) -> SolveResult {
        cgnr(op, from_mut(x), from_ref(b), params, &mut []).remove(0)
    }

    #[test]
    fn cgnr_converges_and_solves() {
        let (mut op, b) = setup(7);
        let mut x = op.alloc();
        blas::zero(&mut x);
        let res =
            cgnr1(&mut op, &mut x, &b, &SolverParams { tol: 1e-10, max_iter: 1000, delta: 0.0 });
        assert!(res.converged, "residual {}", res.final_residual);
        assert!(res.final_residual < 1e-8);
    }

    #[test]
    fn cgnr_needs_more_matvecs_than_bicgstab() {
        // CGNR does 2 matvecs/iteration on the squared system; BiCGstab is
        // generally cheaper on these well-conditioned weak-field matrices —
        // the reason BiCGstab is the production solver (Section II).
        let (mut op, b) = setup(8);
        let params = SolverParams { tol: 1e-8, max_iter: 1000, delta: 0.0 };
        let mut x1 = op.alloc();
        blas::zero(&mut x1);
        let cg_res = cgnr1(&mut op, &mut x1, &b, &params);
        let mut x2 = op.alloc();
        blas::zero(&mut x2);
        let bi_res =
            crate::bicgstab::bicgstab(&mut op, from_mut(&mut x2), from_ref(&b), &params, &mut [])
                .remove(0);
        assert!(cg_res.converged && bi_res.converged);
        assert!(
            cg_res.matvecs >= bi_res.matvecs,
            "cg {} vs bicgstab {}",
            cg_res.matvecs,
            bi_res.matvecs
        );
    }

    #[test]
    fn cgnr_recovers_from_corrupted_reduction() {
        use crate::test_faults::FaultyOp;
        let (op, b) = setup(10);
        // Collectives 1-3 are the entry norms; iteration i reduces p·Ap in
        // collective 2i + 2, so collective 10 corrupts the p·Ap of the
        // fourth iteration.
        let mut op = FaultyOp::corrupting(op, 10, f64::NAN);
        let mut x = op.alloc();
        blas::zero(&mut x);
        let res =
            cgnr1(&mut op, &mut x, &b, &SolverParams { tol: 1e-10, max_iter: 1000, delta: 0.0 });
        assert!(res.converged, "residual {} error {:?}", res.final_residual, res.error);
        assert_eq!(res.recoveries, 1, "one transient needs exactly one rollback");
        assert!(res.final_residual < 1e-8);
    }

    #[test]
    fn cgnr_poisoned_operator_reports_error() {
        use crate::test_faults::FaultyOp;
        let (op, b) = setup(11);
        let mut op = FaultyOp::poisoned(op, "rank 1 is dead");
        let mut x = op.alloc();
        blas::zero(&mut x);
        let res =
            cgnr1(&mut op, &mut x, &b, &SolverParams { tol: 1e-10, max_iter: 100, delta: 0.0 });
        assert!(!res.converged);
        assert_eq!(res.error.as_deref(), Some("rank 1 is dead"));
    }

    #[test]
    fn warm_start_reduces_iterations() {
        let (mut op, b) = setup(9);
        let params = SolverParams { tol: 1e-9, max_iter: 1000, delta: 0.0 };
        let mut x_cold = op.alloc();
        blas::zero(&mut x_cold);
        let cold = cgnr1(&mut op, &mut x_cold, &b, &params);
        // Restart from the converged solution: should take ~0 iterations.
        let mut x_warm = x_cold.clone();
        let warm = cgnr1(&mut op, &mut x_warm, &b, &params);
        assert!(warm.iterations <= cold.iterations / 2);
    }
}
