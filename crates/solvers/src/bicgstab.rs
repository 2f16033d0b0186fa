//! BiCGstab — the paper's production solver for the non-Hermitian
//! even-odd preconditioned Wilson-clover matrix (Section II, reference \[8\]).

use crate::blas::{self, BlasCounters};
use crate::checkpoint::{self, CheckpointCounters, CheckpointSink, CHECKPOINT_EVERY};
use crate::operator::{residual_norm2_multi, traced, traced_iter, LinearOperator};
use crate::params::{SolveResult, SolverParams};
use quda_fields::precision::Precision;
use quda_fields::SpinorFieldCb;
use quda_math::complex::C64;
use quda_obs::Phase;

/// Solve `M̂ xs[k] = bs[k]` for every `k` with plain (uniform-precision)
/// BiCGstab; a single system is the batch of one.
///
/// Each `xs[k]` is used as the initial guess and holds its solution on
/// return; the results are in RHS order. Every lane runs its own scalar
/// recurrence, so its solution, iteration count and residual history do
/// not depend on what else is in the batch (see the crate docs).
///
/// `sinks` is empty (no checkpointing) or holds one sink per lane.
/// Uniform-precision BiCGstab has no reliable-update boundary, so each
/// lane deposits its iterate (BiCGstab recomputes `r = b − M̂x` at entry,
/// so a resume is a warm start) at entry and every `CHECKPOINT_EVERY`
/// iterations while not converged; iteration/matvec counters continue
/// across incarnations.
pub fn bicgstab<P: Precision>(
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
    let target2: Vec<f64> = (0..n).map(|k| params.tol * params.tol * b_norm2[k]).collect();

    // Entry residuals r = b − M̂ x: one fused sweep, one fused reduction.
    let mut rs: Vec<_> = (0..n).map(|_| op.alloc()).collect();
    let mut r_norm2 = vec![0.0f64; n];
    residual_norm2_multi(op, &mut rs, xs, bs, &mut cs, &active, &mut r_norm2);
    for k in 0..n {
        if !active[k] {
            continue;
        }
        matvecs[k] += 1;
        epochs[k] += 1;
        let ctr = CheckpointCounters::warm_start(epochs[k], iterations[k], matvecs[k], r_norm2[k]);
        checkpoint::deposit(sinks, k, &tracer, ctr, &xs[k], None);
        if r_norm2[k] <= target2[k] {
            converged[k] = true;
            active[k] = false;
        }
    }

    let mut r0s: Vec<_> = (0..n).map(|_| op.alloc()).collect();
    let mut ps: Vec<_> = (0..n).map(|_| op.alloc()).collect();
    let mut vs: Vec<_> = (0..n).map(|_| op.alloc()).collect();
    let mut ts: Vec<_> = (0..n).map(|_| op.alloc()).collect();
    for k in 0..n {
        if zero_b[k] {
            continue;
        }
        blas::copy(&mut r0s[k], &rs[k], &mut cs[k]);
        blas::copy(&mut ps[k], &rs[k], &mut cs[k]);
    }
    let mut rho: Vec<C64> = (0..n).map(|k| C64::new(r_norm2[k], 0.0)).collect();
    let mut alphas = vec![C64::new(0.0, 0.0); n];
    let mut omegas = vec![C64::new(0.0, 0.0); n];
    let mut stage = vec![false; n];
    // Staging buffers for the fused reductions, one slot layout per
    // algorithmic point. Slots of lanes that dropped out carry stale
    // values: they are still summed by the collective (every rank agrees
    // on the lane masks) but never read back.
    let mut red_a = vec![0.0f64; 2 * n]; // r0·v as (re, im) per lane
    let mut red_b = vec![0.0f64; n]; // ‖s‖² per lane
    let mut red_d = vec![0.0f64; 3 * n]; // (t·s re, t·s im, ‖t‖²) / (‖r‖², ρ re, ρ im)
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
        // A fault parked by a poisoned operator (dead rank, exhausted
        // retries) is terminal for every in-flight system: uniform-precision
        // BiCGstab has no rollback checkpoint.
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
        // v = M̂ p for the whole active block: one fused gauge sweep.
        traced_iter(&tracer, Phase::Matvec, sweep, || op.apply(&mut vs, &mut ps, &active));
        stage.copy_from_slice(&active);
        // α needs the globally reduced r0·v before the half-step residual
        // can be formed, so the sweep's scalar work runs in packed passes
        // around each fused collective.
        for k in 0..n {
            if !active[k] {
                continue;
            }
            matvecs[k] += 1;
            let r0v_local =
                traced(&tracer, Phase::Blas, || blas::cdot(&r0s[k], &vs[k], &mut cs[k]));
            red_a[2 * k] = r0v_local.re;
            red_a[2 * k + 1] = r0v_local.im;
        }
        traced(&tracer, Phase::Reduce, || op.reduce(&mut red_a));
        for k in 0..n {
            if !active[k] {
                continue;
            }
            let r0v = C64::new(red_a[2 * k], red_a[2 * k + 1]);
            if !r0v.re.is_finite() || !r0v.im.is_finite() {
                active[k] = false; // corrupted reduction; the tail decides
                stage[k] = false;
                continue;
            }
            if r0v.norm_sqr() == 0.0 {
                active[k] = false; // breakdown
                stage[k] = false;
                continue;
            }
            let alpha = rho[k].div(r0v);
            alphas[k] = alpha;
            // s = r − α v (stored in r), ‖s‖².
            red_b[k] = traced(&tracer, Phase::Blas, || {
                blas::caxpy_norm(-alpha, &vs[k], &mut rs[k], &mut cs[k])
            });
        }
        traced(&tracer, Phase::Reduce, || op.reduce(&mut red_b));
        for k in 0..n {
            if !stage[k] {
                continue;
            }
            let s_norm2 = red_b[k];
            if !s_norm2.is_finite() {
                active[k] = false;
                stage[k] = false;
                continue;
            }
            if s_norm2 <= target2[k] {
                // Early exit on the half-step: x += α p.
                traced(&tracer, Phase::Blas, || {
                    blas::caxpy(alphas[k], &ps[k], &mut xs[k], &mut cs[k])
                });
                iterations[k] += 1;
                converged[k] = true;
                active[k] = false;
                stage[k] = false;
            }
        }
        if !stage.iter().any(|&s| s) {
            continue;
        }
        // t = M̂ s for the systems still in flight this sweep.
        traced_iter(&tracer, Phase::Matvec, sweep, || op.apply(&mut ts, &mut rs, &stage));
        // ω = <t, s> / <t, t>: both reductions in one collective.
        for k in 0..n {
            if !stage[k] {
                continue;
            }
            matvecs[k] += 1;
            let (dot, nn) =
                traced(&tracer, Phase::Blas, || blas::cdot_norm_a(&ts[k], &rs[k], &mut cs[k]));
            red_d[3 * k] = dot.re;
            red_d[3 * k + 1] = dot.im;
            red_d[3 * k + 2] = nn;
        }
        traced(&tracer, Phase::Reduce, || op.reduce(&mut red_d));
        for k in 0..n {
            if !stage[k] {
                continue;
            }
            let ts_c = C64::new(red_d[3 * k], red_d[3 * k + 1]);
            let tt = red_d[3 * k + 2];
            if tt == 0.0 {
                active[k] = false;
                stage[k] = false;
                continue;
            }
            let omega = ts_c.scale(1.0 / tt);
            omegas[k] = omega;
            let (r_local, rho_local) = traced(&tracer, Phase::Blas, || {
                // x += α p + ω s.
                blas::caxpbypz(alphas[k], &ps[k], omega, &rs[k], &mut xs[k], &mut cs[k]);
                // r = s − ω t, ‖r‖².
                let r_local = blas::caxpy_norm(-omega, &ts[k], &mut rs[k], &mut cs[k]);
                // ρ' = <r0, r>.
                (r_local, blas::cdot(&r0s[k], &rs[k], &mut cs[k]))
            });
            red_d[3 * k] = r_local;
            red_d[3 * k + 1] = rho_local.re;
            red_d[3 * k + 2] = rho_local.im;
        }
        // ‖r‖² and ρ' in one collective.
        traced(&tracer, Phase::Reduce, || op.reduce(&mut red_d));
        for k in 0..n {
            if !stage[k] {
                continue;
            }
            r_norm2[k] = red_d[3 * k];
            if !r_norm2[k].is_finite() {
                active[k] = false;
                continue;
            }
            let rho_new = C64::new(red_d[3 * k + 1], red_d[3 * k + 2]);
            let beta = rho_new.div(rho[k]) * alphas[k].div(omegas[k]);
            rho[k] = rho_new;
            // p = r + β (p − ω v).
            traced(&tracer, Phase::Blas, || {
                blas::cxpaypbz(&rs[k], -(beta * omegas[k]), &vs[k], beta, &mut ps[k], &mut cs[k])
            });
            iterations[k] += 1;
            history[k].push((r_norm2[k] / b_norm2[k]).sqrt());
            if r_norm2[k] <= target2[k] {
                converged[k] = true;
                active[k] = false;
            } else if iterations[k] % CHECKPOINT_EVERY == 0 {
                epochs[k] += 1;
                let ctr = CheckpointCounters::warm_start(
                    epochs[k],
                    iterations[k],
                    matvecs[k],
                    r_norm2[k],
                );
                checkpoint::deposit(sinks, k, &tracer, ctr, &xs[k], None);
            }
        }
    }

    // True-residual checks: one fused sweep, one fused reduction (the
    // `t` workspaces are dead after the loop and serve as scratch).
    for k in 0..n {
        stage[k] = !zero_b[k];
    }
    let mut true_r2 = vec![0.0f64; n];
    residual_norm2_multi(op, &mut ts, xs, bs, &mut cs, &stage, &mut true_r2);
    let mut results = Vec::with_capacity(n);
    for k in 0..n {
        if zero_b[k] {
            results.push(SolveResult { converged: true, ..Default::default() });
            continue;
        }
        matvecs[k] += 1;
        let final_residual = (true_r2[k] / b_norm2[k]).sqrt();
        results.push(SolveResult {
            converged: converged[k]
                && final_residual <= params.tol * 10.0
                && abort_error[k].is_none(),
            iterations: iterations[k],
            matvecs: matvecs[k],
            reliable_updates: 0,
            final_residual,
            op_flops: matvecs[k] * op.flops_per_apply(),
            blas: std::mem::take(&mut cs[k]),
            residual_history: std::mem::take(&mut history[k]),
            recoveries: 0,
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
    use quda_fields::precision::{Double, Single};
    use quda_lattice::geometry::{LatticeDims, Parity};
    use std::slice::{from_mut, from_ref};

    const N: usize = 3;

    fn op<P: Precision>(seed: u64) -> MatPcOp<P> {
        let d = LatticeDims::new(4, 4, 4, 4);
        let cfg = weak_field(d, 0.15, seed);
        MatPcOp::new(WilsonCloverOp::<P>::from_config(&cfg, WilsonParams { mass: 0.2, c_sw: 1.0 }))
    }

    fn source<P: Precision>(op: &MatPcOp<P>, seed: u64) -> SpinorFieldCb<P> {
        let host = random_spinor_field(op.op.dims, seed);
        let mut b = op.alloc();
        b.upload(&host, Parity::Odd);
        b
    }

    fn setup<P: Precision>(seed: u64) -> (MatPcOp<P>, SpinorFieldCb<P>) {
        let op = op::<P>(seed);
        let b = source(&op, seed + 100);
        (op, b)
    }

    /// Batch-1 solve from a zero guess.
    fn solve<P: Precision>(
        op: &mut dyn LinearOperator<P>,
        x: &mut SpinorFieldCb<P>,
        b: &SpinorFieldCb<P>,
        params: &SolverParams,
    ) -> SolveResult {
        blas::zero(x);
        bicgstab(op, from_mut(x), from_ref(b), params, &mut []).remove(0)
    }

    fn zeros<P: Precision>(op: &MatPcOp<P>, n: usize) -> Vec<SpinorFieldCb<P>> {
        (0..n)
            .map(|_| {
                let mut x = op.alloc();
                blas::zero(&mut x);
                x
            })
            .collect()
    }

    #[test]
    fn converges_in_double_to_1e10() {
        let (mut op, b) = setup::<Double>(1);
        let mut x = op.alloc();
        let params = SolverParams { tol: 1e-10, max_iter: 500, delta: 0.0 };
        let res = solve(&mut op, &mut x, &b, &params);
        assert!(res.converged, "final residual {}", res.final_residual);
        assert!(res.final_residual <= 1e-9);
        assert!(res.iterations > 1);
    }

    #[test]
    fn converges_in_single_to_1e5() {
        let (mut op, b) = setup::<Single>(2);
        let mut x = op.alloc();
        let params = SolverParams { tol: 1e-5, max_iter: 500, delta: 0.0 };
        let res = solve(&mut op, &mut x, &b, &params);
        assert!(res.converged, "final residual {}", res.final_residual);
    }

    #[test]
    fn zero_rhs_returns_zero_solution() {
        let (mut op, _) = setup::<Double>(3);
        let b = op.alloc();
        let mut x = op.alloc();
        let res = solve(&mut op, &mut x, &b, &SolverParams::default());
        assert!(res.converged);
        assert_eq!(x.norm_sqr(), 0.0);
    }

    #[test]
    fn solution_actually_solves_system() {
        let (mut op, b) = setup::<Double>(4);
        let mut x = op.alloc();
        let params = SolverParams { tol: 1e-11, max_iter: 500, delta: 0.0 };
        let res = solve(&mut op, &mut x, &b, &params);
        assert!(res.converged);
        let mut mx = op.alloc();
        op.apply(from_mut(&mut mx), from_mut(&mut x), &[true]);
        let mut diff2 = 0.0;
        for cb in 0..b.sites() {
            diff2 += (mx.get(cb) - b.get(cb)).norm_sqr();
        }
        let rel = (diff2 / b.norm_sqr()).sqrt();
        assert!(rel < 1e-10, "rel={rel}");
    }

    #[test]
    fn poisoned_operator_reports_error() {
        use crate::test_faults::FaultyOp;
        let (op, b) = setup::<Double>(6);
        let mut op = FaultyOp::poisoned(op, "allreduce failed: rank 1 is dead");
        let mut x = op.alloc();
        let res =
            solve(&mut op, &mut x, &b, &SolverParams { tol: 1e-8, max_iter: 100, delta: 0.0 });
        assert!(!res.converged);
        assert_eq!(res.error.as_deref(), Some("allreduce failed: rank 1 is dead"));
    }

    #[test]
    fn flop_accounting_is_positive_and_consistent() {
        let (mut op, b) = setup::<Double>(5);
        let mut x = op.alloc();
        let res =
            solve(&mut op, &mut x, &b, &SolverParams { tol: 1e-8, max_iter: 500, delta: 0.0 });
        assert!(res.op_flops > 0);
        assert!(res.blas.flops > 0);
        assert_eq!(res.op_flops, res.matvecs * op.flops_per_apply());
        // Blas overhead should be a modest fraction of the matvec work
        // ("the complete solver typically runs 10 to 20% slower than would
        // the matrix-vector product in isolation", Section V-E).
        let frac = res.blas.flops as f64 / res.op_flops as f64;
        assert!(frac < 0.5, "blas fraction {frac}");
    }

    #[test]
    fn zero_source_slot_resolves_trivially_amid_live_systems() {
        let mut op = op::<Double>(24);
        let mut bs: Vec<_> = (0..N).map(|k| source(&op, 600 + k as u64)).collect();
        blas::zero(&mut bs[1]);
        let params = SolverParams { tol: 1e-10, max_iter: 500, delta: 0.0 };
        let mut xs = zeros(&op, N);
        let multi = bicgstab(&mut op, &mut xs, &bs, &params, &mut []);
        assert!(multi[1].converged);
        assert_eq!(multi[1].iterations, 0);
        assert_eq!(xs[1].norm_sqr(), 0.0);
        assert!(multi[0].converged && multi[2].converged);
        assert!(multi[0].iterations > 0 && multi[2].iterations > 0);
    }

    #[test]
    fn empty_batch_returns_no_results() {
        let mut op = op::<Double>(25);
        let params = SolverParams::default();
        let res = bicgstab(&mut op, &mut [], &[], &params, &mut []);
        assert!(res.is_empty());
    }

    #[test]
    fn poisoned_operator_aborts_every_rhs() {
        use crate::test_faults::FaultyOp;
        let base = op::<Double>(26);
        let bs: Vec<_> = (0..N).map(|k| source(&base, 700 + k as u64)).collect();
        let mut op = FaultyOp::poisoned(base, "allreduce failed: rank 1 is dead");
        let mut xs: Vec<_> = (0..N).map(|_| op.alloc()).collect();
        for x in &mut xs {
            blas::zero(x);
        }
        let params = SolverParams { tol: 1e-8, max_iter: 100, delta: 0.0 };
        let res = bicgstab(&mut op, &mut xs, &bs, &params, &mut []);
        for (k, r) in res.iter().enumerate() {
            assert!(!r.converged, "rhs {k} must not converge");
            assert_eq!(r.error.as_deref(), Some("allreduce failed: rank 1 is dead"));
        }
    }
}
