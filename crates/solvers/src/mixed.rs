//! Mixed-precision solvers (Section V-D).
//!
//! Two strategies are implemented:
//!
//! * [`bicgstab_reliable`] — QUDA's production approach: the Krylov
//!   iteration runs entirely in the fast *sloppy* precision; whenever the
//!   iterated residual has dropped by a factor δ relative to its maximum
//!   since the last update, the solution is accumulated into the
//!   high-precision vector and the *true* residual `b − M̂x` is recomputed
//!   in high precision and injected ("reliable updates", reference \[21\]). The
//!   direction is preserved across updates, so a single Krylov space is
//!   maintained throughout the solve.
//! * [`bicgstab_defect_correction`] — the traditional alternative the paper
//!   compares against conceptually: an outer loop that restarts a fresh
//!   low-precision solve on the current high-precision residual. Restarting
//!   discards the Krylov space and "increases the total number of solver
//!   iterations" (Section V-D); the ablation benchmark quantifies it.

use crate::blas::{self, BlasCounters};
use crate::checkpoint::{self, CheckpointCounters, CheckpointSink};
use crate::operator::{residual_norm2, residual_norm2_multi, traced, traced_iter, LinearOperator};
use crate::params::{SolveResult, SolverParams};
use quda_fields::precision::Precision;
use quda_fields::SpinorFieldCb;
use quda_math::complex::C64;
use quda_obs::Phase;

/// Rollback budget: how many times a solve may restore its checkpoint after
/// detecting corrupted state before giving up with a terminal error. A
/// genuine transient (one corrupted reduction) needs exactly one rollback;
/// persistent corruption exhausts the budget quickly instead of looping
/// forever (DESIGN.md §7).
pub(crate) const MAX_RECOVERIES: u64 = 8;

/// A reliable update that *grows* the true residual by more than this
/// factor is treated as corrupted state rather than ordinary sloppy drift.
const DIVERGE_FACTOR: f64 = 1e6;

/// Outcome of one lane's sloppy BiCGstab iteration (including any reliable
/// update), recorded per lane and resolved once per fused sweep of
/// [`bicgstab_reliable`]'s main loop.
#[derive(Clone, Copy)]
enum Step {
    /// Iteration completed normally; keep going.
    Continue,
    /// The reliable update's true residual met the target.
    Converged,
    /// The outer precision's rounding floor was reached (stalled updates).
    Floor,
    /// `r0·v` or ρ vanished: re-seed the shadow residual and retry.
    Breakdown,
    /// `‖t‖² = 0`: the Krylov space is exhausted.
    Exhausted,
    /// A non-finite or diverged quantity appeared: the working state is
    /// corrupt and must be rolled back to the checkpoint.
    Corrupt,
}

/// Add a low-precision correction into a high-precision vector:
/// `x_hi += conv(e_lo)`.
fn accumulate<H: Precision, L: Precision>(
    x_hi: &mut SpinorFieldCb<H>,
    e_lo: &SpinorFieldCb<L>,
    scratch_hi: &mut SpinorFieldCb<H>,
    c: &mut BlasCounters,
) {
    scratch_hi.convert_from(e_lo);
    blas::axpy(1.0, scratch_hi, x_hi, c);
}

/// Mixed-precision BiCGstab with reliable updates, for every `k` of
/// `M̂ xs[k] = bs[k]`; a single system is the batch of one.
///
/// `H` is the outer ("true") precision, `L` the sloppy precision the Krylov
/// iteration runs in. The paper's production modes are double-half,
/// single-half, and (for reference) double-single. The sloppy sweeps are
/// fused across the active block; reliable updates, rollbacks and the tail
/// run per lane in high precision through the single-RHS operator paths.
///
/// The solve is *self-healing* per lane (DESIGN.md §7): the high-precision
/// solution is checkpointed at every good reliable update, and any
/// non-finite or wildly diverged quantity (e.g. a corrupted global
/// reduction) rolls that lane back to its checkpoint and rebuilds its
/// Krylov space from a fresh true residual. Rollbacks are counted in
/// [`SolveResult::recoveries`] and capped; a fault reported by the
/// operators' [`LinearOperator::fault`] hook (a dead rank, say) is not
/// recoverable and aborts the in-flight lanes with [`SolveResult::error`]
/// set.
///
/// `sinks` is empty (no checkpointing) or holds one sink per lane. Each
/// lane deposits a [`SolverCheckpoint`](crate::checkpoint::SolverCheckpoint)
/// at entry and at every good reliable update — the points where its
/// high-precision state has just been validated against the true residual.
/// Because the reliable-update decision is made from a globally reduced
/// norm, every rank deposits the same epochs at the same iterations, so no
/// extra collectives are needed and the numerics are bit-identical to the
/// checkpoint-free solve. If a lane's sink yields a resume snapshot, that
/// lane rolls *forward* from it: the iterate and true residual are
/// restored, the entry residual is skipped, the Krylov space is rebuilt
/// from the restored residual — the protocol the rollback path uses — and
/// all progress counters continue from their checkpointed values. The
/// supervisor must install a resume snapshot on either all ranks or none,
/// since resuming changes the collective stream.
pub fn bicgstab_reliable<H: Precision, L: Precision>(
    op_hi: &mut dyn LinearOperator<H>,
    op_lo: &mut dyn LinearOperator<L>,
    xs: &mut [SpinorFieldCb<H>],
    bs: &[SpinorFieldCb<H>],
    params: &SolverParams,
    sinks: &mut [&mut dyn CheckpointSink],
) -> Vec<SolveResult> {
    let n = xs.len();
    assert_eq!(bs.len(), n, "solution/source batch length mismatch");
    assert!(sinks.is_empty() || sinks.len() == n, "one checkpoint sink per lane, or none");
    if n == 0 {
        return Vec::new();
    }
    // Both operators live on the same rank; either handle reaches the same
    // per-rank recorder. The sloppy one drives the iteration, so use it.
    let tracer = op_lo.tracer();
    let mut cs: Vec<BlasCounters> = (0..n).map(|_| BlasCounters::default()).collect();
    // Each lane's scalar progress state is exactly what its checkpoint
    // carries: epoch, iterations, matvecs, reliable updates, rollbacks,
    // stall count, and the residual norms the update logic tracks.
    let mut st = vec![CheckpointCounters::default(); n];
    let mut converged = vec![false; n];
    let mut abort_error: Vec<Option<String>> = (0..n).map(|_| None).collect();
    let mut history: Vec<Vec<f64>> = (0..n).map(|_| Vec::with_capacity(params.max_iter)).collect();
    // Slots resolved before the loop (zero sources, converged guesses).
    let mut results: Vec<Option<SolveResult>> = (0..n).map(|_| None).collect();

    let mut b_norm2 = vec![0.0f64; n];
    for k in 0..n {
        b_norm2[k] = traced(&tracer, Phase::Blas, || blas::norm2(&bs[k], &mut cs[k]));
    }
    traced(&tracer, Phase::Reduce, || op_hi.reduce(&mut b_norm2));
    for k in 0..n {
        if b_norm2[k] == 0.0 {
            blas::zero(&mut xs[k]);
            results[k] = Some(SolveResult { converged: true, ..Default::default() });
        }
    }
    let target2: Vec<f64> = (0..n).map(|k| params.tol * params.tol * b_norm2[k]).collect();

    // A resume snapshot installed by the elastic supervisor: restore the
    // lane's iterate and true residual instead of starting from the
    // caller's guess, and continue its counters.
    let mut r_his: Vec<_> = (0..n).map(|_| op_hi.alloc()).collect();
    let mut resumed = vec![false; n];
    for k in 0..n {
        if results[k].is_some() {
            continue;
        }
        let (x, r_hi) = (&mut xs[k], &mut r_his[k]);
        if let Some(ctr) = checkpoint::resume(sinks, k, &tracer, |ck| {
            ck.has_residual() && ck.restore_x(x).is_ok() && ck.restore_r(r_hi).is_ok()
        }) {
            st[k] = ctr;
            resumed[k] = true;
        }
    }

    // Entry true residuals of the other lanes in high precision: one fused
    // sweep, one fused reduction.
    let live: Vec<bool> = (0..n).map(|k| results[k].is_none() && !resumed[k]).collect();
    if live.iter().any(|&l| l) {
        let mut r2 = vec![0.0f64; n];
        residual_norm2_multi(op_hi, &mut r_his, xs, bs, &mut cs, &live, &mut r2);
        for k in 0..n {
            if !live[k] {
                continue;
            }
            st[k].matvecs_hi += 1;
            st[k].r2 = r2[k];
            st[k].last_update_r2 = r2[k];
            if r2[k] <= target2[k] {
                results[k] = Some(SolveResult {
                    converged: true,
                    final_residual: (r2[k] / b_norm2[k]).sqrt(),
                    matvecs: st[k].matvecs_hi,
                    op_flops: st[k].matvecs_hi * op_hi.flops_per_apply(),
                    blas: std::mem::take(&mut cs[k]),
                    ..Default::default()
                });
            }
        }
    }
    let mut active: Vec<bool> = (0..n).map(|k| results[k].is_none()).collect();

    // Sloppy-precision working sets.
    let mut rs: Vec<_> = (0..n).map(|_| op_lo.alloc()).collect();
    let mut r0s: Vec<_> = (0..n).map(|_| op_lo.alloc()).collect();
    let mut ps: Vec<_> = (0..n).map(|_| op_lo.alloc()).collect();
    let mut vs: Vec<_> = (0..n).map(|_| op_lo.alloc()).collect();
    let mut ts: Vec<_> = (0..n).map(|_| op_lo.alloc()).collect();
    let mut x_sloppys: Vec<_> = (0..n).map(|_| op_lo.alloc()).collect();
    let mut scratch_his: Vec<_> = (0..n).map(|_| op_hi.alloc()).collect();
    // Per-lane rollback checkpoints: the high-precision solution as of the
    // last known good state (start, then every good reliable update).
    let mut checkpoint_xs: Vec<_> = (0..n).map(|_| op_hi.alloc()).collect();
    for k in 0..n {
        if !active[k] {
            continue;
        }
        st[k].maxrr = st[k].r2.sqrt();
        rs[k].convert_from(&r_his[k]);
        blas::copy(&mut r0s[k], &rs[k], &mut cs[k]);
        blas::copy(&mut ps[k], &rs[k], &mut cs[k]);
        blas::zero(&mut x_sloppys[k]);
        blas::copy(&mut checkpoint_xs[k], &xs[k], &mut cs[k]);
        // Deposit the just-validated entry state (the epoch continues
        // across incarnations), so a rank death before the first reliable
        // update still leaves a consistent resume point behind.
        st[k].epoch += 1;
        checkpoint::deposit(sinks, k, &tracer, st[k], &xs[k], Some(&r_his[k]));
    }
    let mut rho: Vec<C64> = (0..n).map(|k| C64::new(st[k].r2, 0.0)).collect();
    let mut alphas = vec![C64::new(0.0, 0.0); n];
    let mut omegas = vec![C64::new(0.0, 0.0); n];
    let mut stage = vec![false; n];
    let mut steps = vec![Step::Continue; n];
    // Staging buffers for the fused sloppy-precision reductions (stale
    // slots of dropped lanes are summed but never read). Reliable updates
    // stay on the per-lane high-precision paths.
    let mut red_a = vec![0.0f64; 2 * n]; // r0·v as (re, im) per lane
    let mut red_b = vec![0.0f64; n]; // ‖s‖² per lane
    let mut red_d = vec![0.0f64; 3 * n]; // (t·s re, t·s im, ‖t‖²) / (‖r‖², ρ re, ρ im)
    let mut sweep: u64 = 0;

    loop {
        for k in 0..n {
            if active[k] && st[k].iterations >= params.max_iter as u64 {
                active[k] = false;
            }
        }
        if !active.iter().any(|&a| a) {
            break;
        }
        // A fault parked by a poisoned operator (dead rank, exhausted
        // retries) is terminal: no rollback can bring the peer back.
        if let Some(f) = op_lo.fault().or_else(|| op_hi.fault()) {
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
        // v = M̂ p for the whole active block: one fused sloppy sweep.
        traced_iter(&tracer, Phase::Matvec, sweep, || op_lo.apply(&mut vs, &mut ps, &active));
        stage.copy_from_slice(&active);
        steps.fill(Step::Continue);
        // α needs the globally reduced r0·v before the half-step residual
        // can be formed, so the sweep's scalar work runs in packed passes
        // around each fused collective.
        for k in 0..n {
            if !active[k] {
                continue;
            }
            st[k].matvecs_lo += 1;
            let r0v_local =
                traced(&tracer, Phase::Blas, || blas::cdot(&r0s[k], &vs[k], &mut cs[k]));
            red_a[2 * k] = r0v_local.re;
            red_a[2 * k + 1] = r0v_local.im;
        }
        traced(&tracer, Phase::Reduce, || op_lo.reduce(&mut red_a));
        for k in 0..n {
            if !active[k] {
                continue;
            }
            let r0v = C64::new(red_a[2 * k], red_a[2 * k + 1]);
            if !r0v.re.is_finite() || !r0v.im.is_finite() {
                steps[k] = Step::Corrupt;
                stage[k] = false;
                continue;
            }
            if r0v.norm_sqr() == 0.0 || rho[k].norm_sqr() == 0.0 {
                steps[k] = Step::Breakdown;
                stage[k] = false;
                continue;
            }
            let alpha = rho[k].div(r0v);
            alphas[k] = alpha;
            red_b[k] = traced(&tracer, Phase::Blas, || {
                blas::caxpy_norm(-alpha, &vs[k], &mut rs[k], &mut cs[k])
            });
        }
        traced(&tracer, Phase::Reduce, || op_lo.reduce(&mut red_b));
        for k in 0..n {
            if stage[k] && !red_b[k].is_finite() {
                steps[k] = Step::Corrupt;
                stage[k] = false;
            }
        }
        if stage.iter().any(|&s| s) {
            // t = M̂ s for the systems still in flight this sweep.
            traced_iter(&tracer, Phase::Matvec, sweep, || op_lo.apply(&mut ts, &mut rs, &stage));
            for k in 0..n {
                if !stage[k] {
                    continue;
                }
                st[k].matvecs_lo += 1;
                let (dot, nn) =
                    traced(&tracer, Phase::Blas, || blas::cdot_norm_a(&ts[k], &rs[k], &mut cs[k]));
                red_d[3 * k] = dot.re;
                red_d[3 * k + 1] = dot.im;
                red_d[3 * k + 2] = nn;
            }
            traced(&tracer, Phase::Reduce, || op_lo.reduce(&mut red_d));
        }
        for k in 0..n {
            if !stage[k] {
                continue;
            }
            let ts_c = C64::new(red_d[3 * k], red_d[3 * k + 1]);
            let tt = red_d[3 * k + 2];
            if !tt.is_finite() || !ts_c.re.is_finite() || !ts_c.im.is_finite() {
                steps[k] = Step::Corrupt;
                stage[k] = false;
                continue;
            }
            if tt == 0.0 {
                steps[k] = Step::Exhausted;
                stage[k] = false;
                continue;
            }
            let omega = ts_c.scale(1.0 / tt);
            omegas[k] = omega;
            let (r2_local, rho_local) = traced(&tracer, Phase::Blas, || {
                blas::caxpbypz(alphas[k], &ps[k], omega, &rs[k], &mut x_sloppys[k], &mut cs[k]);
                let r2_local = blas::caxpy_norm(-omega, &ts[k], &mut rs[k], &mut cs[k]);
                (r2_local, blas::cdot(&r0s[k], &rs[k], &mut cs[k]))
            });
            red_d[3 * k] = r2_local;
            red_d[3 * k + 1] = rho_local.re;
            red_d[3 * k + 2] = rho_local.im;
        }
        if stage.iter().any(|&s| s) {
            traced(&tracer, Phase::Reduce, || op_lo.reduce(&mut red_d));
        }
        for k in 0..n {
            if !stage[k] {
                continue;
            }
            let s = &mut st[k];
            steps[k] = 'body: {
                let r2_iter = red_d[3 * k];
                if !r2_iter.is_finite() {
                    break 'body Step::Corrupt;
                }
                let rho_new = C64::new(red_d[3 * k + 1], red_d[3 * k + 2]);
                let omega = omegas[k];
                let beta = rho_new.div(rho[k]) * alphas[k].div(omega);
                rho[k] = rho_new;
                traced(&tracer, Phase::Blas, || {
                    blas::cxpaypbz(&rs[k], -(beta * omega), &vs[k], beta, &mut ps[k], &mut cs[k])
                });
                s.iterations += 1;
                history[k].push((r2_iter / b_norm2[k]).sqrt());

                let r_norm = r2_iter.sqrt();
                s.maxrr = s.maxrr.max(r_norm);
                let want_update = r_norm < params.delta * s.maxrr || r2_iter <= target2[k];
                if want_update {
                    // A guard (not a closure) so the `break 'body` exits
                    // below still close the span on the way out.
                    let mut ru_span = tracer.span(Phase::ReliableUpdate);
                    ru_span.set_iter(sweep);
                    // Reliable update: accumulate and recompute the true
                    // residual in high precision, for this lane only.
                    accumulate(&mut xs[k], &x_sloppys[k], &mut scratch_his[k], &mut cs[k]);
                    blas::zero(&mut x_sloppys[k]);
                    s.r2 = residual_norm2(op_hi, &mut r_his[k], &mut xs[k], &bs[k], &mut cs[k]);
                    s.matvecs_hi += 1;
                    s.reliable_updates += 1;
                    if !s.r2.is_finite() || s.r2 > s.last_update_r2 * DIVERGE_FACTOR {
                        break 'body Step::Corrupt;
                    }
                    if s.r2 <= target2[k] {
                        break 'body Step::Converged;
                    }
                    if s.r2 >= s.last_update_r2 * 0.8 {
                        s.stalls += 1;
                        if s.stalls >= 3 {
                            break 'body Step::Floor;
                        }
                    } else {
                        s.stalls = 0;
                    }
                    s.last_update_r2 = s.r2;
                    rs[k].convert_from(&r_his[k]);
                    s.maxrr = s.r2.sqrt();
                    // The search direction p survives the update (single
                    // Krylov space); only ρ is re-evaluated against the
                    // refreshed residual.
                    let local = blas::cdot(&r0s[k], &rs[k], &mut cs[k]);
                    let mut global = [local.re, local.im];
                    op_lo.reduce(&mut global);
                    rho[k] = C64::new(global[0], global[1]);
                    // This state passed the high-precision check: refresh
                    // this lane's rollback checkpoint and deposit it for
                    // the elastic supervisor. The reliable-update decision
                    // came from a globally reduced norm, so every rank
                    // deposits this epoch.
                    blas::copy(&mut checkpoint_xs[k], &xs[k], &mut cs[k]);
                    s.epoch += 1;
                    checkpoint::deposit(sinks, k, &tracer, *s, &xs[k], Some(&r_his[k]));
                }
                Step::Continue
            };
        }
        // Resolve each lane's step once per sweep.
        for k in 0..n {
            if !active[k] {
                continue;
            }
            match steps[k] {
                Step::Continue => {}
                Step::Converged => {
                    converged[k] = true;
                    active[k] = false;
                }
                Step::Floor | Step::Exhausted => {
                    active[k] = false;
                }
                Step::Breakdown => {
                    // BiCGstab breakdown: re-seed the shadow residual.
                    blas::copy(&mut r0s[k], &rs[k], &mut cs[k]);
                    let mut r2 = [blas::norm2(&rs[k], &mut cs[k])];
                    op_lo.reduce(&mut r2);
                    rho[k] = C64::new(r2[0], 0.0);
                    blas::copy(&mut ps[k], &rs[k], &mut cs[k]);
                }
                Step::Corrupt => {
                    // NaN caused by a comm failure is not transient;
                    // surface the typed fault instead of burning the
                    // rollback budget.
                    if let Some(f) = op_lo.fault().or_else(|| op_hi.fault()) {
                        // quda-lint: allow(hot-alloc)
                        abort_error[k] = Some(f.message);
                        active[k] = false;
                        continue;
                    }
                    let s = &mut st[k];
                    s.recoveries += 1;
                    if s.recoveries > MAX_RECOVERIES {
                        // Formatted at most once per lane, on its abort path.
                        // quda-lint: allow(hot-alloc)
                        abort_error[k] = Some(format!(
                            "corrupted solver state persisted after {MAX_RECOVERIES} rollbacks"
                        ));
                        active[k] = false;
                        continue;
                    }
                    // Roll this lane back to its checkpoint and rebuild its
                    // Krylov space from a fresh true residual.
                    blas::copy(&mut xs[k], &checkpoint_xs[k], &mut cs[k]);
                    s.r2 = residual_norm2(op_hi, &mut r_his[k], &mut xs[k], &bs[k], &mut cs[k]);
                    s.matvecs_hi += 1;
                    rs[k].convert_from(&r_his[k]);
                    blas::copy(&mut r0s[k], &rs[k], &mut cs[k]);
                    blas::copy(&mut ps[k], &rs[k], &mut cs[k]);
                    blas::zero(&mut x_sloppys[k]);
                    rho[k] = C64::new(s.r2, 0.0);
                    s.maxrr = s.r2.sqrt();
                    s.last_update_r2 = s.r2;
                    s.stalls = 0;
                }
            }
        }
    }

    // Per-lane tails: fold in any un-accumulated sloppy progress (pointless
    // after a terminal error — the sloppy state is untrustworthy).
    for k in 0..n {
        if results[k].is_some() {
            continue;
        }
        let s = &mut st[k];
        if !converged[k] && abort_error[k].is_none() {
            accumulate(&mut xs[k], &x_sloppys[k], &mut scratch_his[k], &mut cs[k]);
            s.r2 = residual_norm2(op_hi, &mut r_his[k], &mut xs[k], &bs[k], &mut cs[k]);
            s.matvecs_hi += 1;
            converged[k] = s.r2 <= target2[k];
        }
        results[k] = Some(SolveResult {
            converged: converged[k],
            iterations: s.iterations as usize,
            matvecs: s.matvecs_lo + s.matvecs_hi,
            reliable_updates: s.reliable_updates,
            final_residual: (s.r2 / b_norm2[k]).sqrt(),
            op_flops: s.matvecs_lo * op_lo.flops_per_apply()
                + s.matvecs_hi * op_hi.flops_per_apply(),
            blas: std::mem::take(&mut cs[k]),
            residual_history: std::mem::take(&mut history[k]),
            recoveries: s.recoveries,
            comm_recoveries: 0,
            error: abort_error[k].take(),
        });
    }
    results.into_iter().map(|r| r.unwrap_or_default()).collect()
}

/// Mixed-precision defect correction (restarted inner solves) — the
/// baseline strategy reliable updates improve on.
pub fn bicgstab_defect_correction<H: Precision, L: Precision>(
    op_hi: &mut dyn LinearOperator<H>,
    op_lo: &mut dyn LinearOperator<L>,
    x: &mut SpinorFieldCb<H>,
    b: &SpinorFieldCb<H>,
    params: &SolverParams,
    inner_tol: f64,
) -> SolveResult {
    let mut c = BlasCounters::default();
    let mut iterations = 0usize;
    let mut matvecs: u64 = 0;
    let mut op_flops: u64 = 0;
    let mut restarts: u64 = 0;
    let mut history: Vec<f64> = Vec::with_capacity(params.max_iter);
    let tracer = op_hi.tracer();

    let mut b_norm2 = [traced(&tracer, Phase::Blas, || blas::norm2(b, &mut c))];
    traced(&tracer, Phase::Reduce, || op_hi.reduce(&mut b_norm2));
    let b_norm2 = b_norm2[0];
    if b_norm2 == 0.0 {
        blas::zero(x);
        return SolveResult { converged: true, ..Default::default() };
    }
    let target2 = params.tol * params.tol * b_norm2;
    let mut r_hi = op_hi.alloc();
    let mut b_lo = op_lo.alloc();
    let mut e_lo = op_lo.alloc();
    let mut scratch_hi = op_hi.alloc();

    let mut r2 = residual_norm2(op_hi, &mut r_hi, x, b, &mut c);
    matvecs += 1;
    op_flops += op_hi.flops_per_apply();
    let max_outer = 100;
    let mut outer = 0;
    let mut abort_error: Option<String> = None;
    while r2 > target2 && outer < max_outer && iterations < params.max_iter {
        b_lo.convert_from(&r_hi);
        blas::zero(&mut e_lo);
        let inner_params =
            SolverParams { tol: inner_tol, max_iter: params.max_iter - iterations, delta: 0.0 };
        let inner = crate::bicgstab::bicgstab(
            op_lo,
            std::slice::from_mut(&mut e_lo),
            std::slice::from_ref(&b_lo),
            &inner_params,
            &mut [],
        )
        .pop()
        .unwrap_or_default();
        iterations += inner.iterations;
        history.extend(inner.residual_history.iter().copied());
        matvecs += inner.matvecs;
        op_flops += inner.matvecs * op_lo.flops_per_apply();
        c.merge(&inner.blas);
        if let Some(e) = inner.error {
            abort_error = Some(e);
            break;
        }
        r2 = traced_iter(&tracer, Phase::ReliableUpdate, restarts + 1, || {
            accumulate(x, &e_lo, &mut scratch_hi, &mut c);
            residual_norm2(op_hi, &mut r_hi, x, b, &mut c)
        });
        matvecs += 1;
        op_flops += op_hi.flops_per_apply();
        restarts += 1;
        outer += 1;
        if inner.iterations == 0 {
            break; // inner solver stalled; avoid spinning
        }
    }

    SolveResult {
        converged: r2 <= target2 && abort_error.is_none(),
        iterations,
        matvecs,
        reliable_updates: restarts,
        final_residual: (r2 / b_norm2).sqrt(),
        op_flops,
        blas: c,
        residual_history: history,
        recoveries: 0,
        comm_recoveries: 0,
        error: abort_error,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::MatPcOp;
    use quda_dirac::{WilsonCloverOp, WilsonParams};
    use quda_fields::gauge_gen::{random_spinor_field, weak_field};
    use quda_fields::precision::{Double, Half, Single};
    use quda_lattice::geometry::{LatticeDims, Parity};
    use std::slice::{from_mut, from_ref};

    fn dims() -> LatticeDims {
        LatticeDims::new(4, 4, 4, 4)
    }

    /// Batch-1 reliable BiCGstab from the guess in `x`.
    fn reliable<H: Precision, L: Precision>(
        hi: &mut dyn LinearOperator<H>,
        lo: &mut dyn LinearOperator<L>,
        x: &mut SpinorFieldCb<H>,
        b: &SpinorFieldCb<H>,
        params: &SolverParams,
    ) -> SolveResult {
        bicgstab_reliable(hi, lo, from_mut(x), from_ref(b), params, &mut []).remove(0)
    }

    fn ops<H: Precision, L: Precision>(seed: u64) -> (MatPcOp<H>, MatPcOp<L>, SpinorFieldCb<H>) {
        let d = dims();
        let cfg = weak_field(d, 0.15, seed);
        let params = WilsonParams { mass: 0.2, c_sw: 1.0 };
        let hi = MatPcOp::new(WilsonCloverOp::<H>::from_config(&cfg, params));
        let lo = MatPcOp::new(WilsonCloverOp::<L>::from_config(&cfg, params));
        let host = random_spinor_field(d, seed + 7);
        let mut b = hi.alloc();
        b.upload(&host, Parity::Odd);
        (hi, lo, b)
    }

    #[test]
    fn double_single_reaches_1e10() {
        let (mut hi, mut lo, b) = ops::<Double, Single>(1);
        let mut x = hi.alloc();
        blas::zero(&mut x);
        let params = SolverParams { tol: 1e-10, max_iter: 2000, delta: 1e-2 };
        let res = reliable(&mut hi, &mut lo, &mut x, &b, &params);
        assert!(res.converged, "residual {}", res.final_residual);
        assert!(res.reliable_updates > 0, "expected at least one reliable update");
    }

    #[test]
    fn single_half_reaches_2e7() {
        // The paper's workhorse mode near its production target (VII-A).
        // On a random right-hand side the f32 outer precision's rounding
        // floor sits at ≈1.4e-7 relative here, so the test targets 2e-7;
        // the paper's ‖r‖ = 1e-7 was measured on unit point sources at much
        // larger volume. (EXPERIMENTS.md discusses the floor.)
        let (mut hi, mut lo, b) = ops::<Single, Half>(2);
        let mut x = hi.alloc();
        blas::zero(&mut x);
        let mut params = SolverParams::paper_defaults("single-half");
        params.tol = 2e-7;
        let res = reliable(&mut hi, &mut lo, &mut x, &b, &params);
        assert!(res.converged, "residual {}", res.final_residual);
        assert!(res.final_residual <= 2e-7);
        assert!(res.reliable_updates > 0);
    }

    #[test]
    fn double_half_reaches_1e12() {
        // Half-precision iterations with a double-precision anchor still
        // reach deep targets — the point of reliable updates.
        let (mut hi, mut lo, b) = ops::<Double, Half>(3);
        let mut x = hi.alloc();
        blas::zero(&mut x);
        let params = SolverParams { tol: 1e-12, max_iter: 4000, delta: 1e-2 };
        let res = reliable(&mut hi, &mut lo, &mut x, &b, &params);
        assert!(res.converged, "residual {}", res.final_residual);
        assert!(res.final_residual <= 1e-12);
        assert!(res.reliable_updates >= 2);
    }

    #[test]
    fn mixed_solution_matches_uniform_double() {
        let (mut hi, mut lo, b) = ops::<Double, Single>(4);
        let params = SolverParams { tol: 1e-11, max_iter: 2000, delta: 1e-2 };
        let mut x_mixed = hi.alloc();
        blas::zero(&mut x_mixed);
        reliable(&mut hi, &mut lo, &mut x_mixed, &b, &params);
        let mut x_pure = hi.alloc();
        blas::zero(&mut x_pure);
        crate::bicgstab::bicgstab(&mut hi, from_mut(&mut x_pure), from_ref(&b), &params, &mut []);
        let mut diff2 = 0.0;
        for cb in 0..x_pure.sites() {
            diff2 += (x_mixed.get(cb) - x_pure.get(cb)).norm_sqr();
        }
        let rel = (diff2 / x_pure.norm_sqr()).sqrt();
        assert!(rel < 1e-8, "solutions differ: rel={rel}");
    }

    #[test]
    fn defect_correction_converges_but_restarts() {
        let (mut hi, mut lo, b) = ops::<Double, Single>(5);
        let mut x = hi.alloc();
        blas::zero(&mut x);
        let params = SolverParams { tol: 1e-10, max_iter: 4000, delta: 1e-2 };
        let res = bicgstab_defect_correction(&mut hi, &mut lo, &mut x, &b, &params, 1e-2);
        assert!(res.converged, "residual {}", res.final_residual);
        assert!(res.reliable_updates >= 2, "expected multiple restarts");
    }

    #[test]
    fn corrupted_reduction_rolls_back_and_reconverges() {
        use crate::test_faults::FaultyOp;
        let (mut hi, lo, b) = ops::<Double, Single>(6);
        // Corrupt one sloppy global reduction mid-solve: each sloppy
        // iteration is four collectives and the first reliable update
        // comes at iteration 6, so collective 13 is the r0·v of iteration
        // 4. The solver must roll back to its entry checkpoint and still
        // reach the target.
        let mut lo = FaultyOp::corrupting(lo, 13, f64::NAN);
        let mut x = hi.alloc();
        blas::zero(&mut x);
        let params = SolverParams { tol: 1e-10, max_iter: 2000, delta: 1e-2 };
        let res = reliable(&mut hi, &mut lo, &mut x, &b, &params);
        assert!(res.converged, "residual {} error {:?}", res.final_residual, res.error);
        assert_eq!(res.recoveries, 1, "one transient needs exactly one rollback");
        assert!(res.error.is_none());
        assert!(res.final_residual <= 1e-10);
        // The recovered solution solves the same system: check against a
        // fault-free solve.
        let (mut hi2, mut lo2, b2) = ops::<Double, Single>(6);
        let mut x_clean = hi2.alloc();
        blas::zero(&mut x_clean);
        let clean = reliable(&mut hi2, &mut lo2, &mut x_clean, &b2, &params);
        assert!(clean.converged);
        assert_eq!(clean.recoveries, 0);
        let mut diff2 = 0.0;
        for cb in 0..x.sites() {
            diff2 += (x.get(cb) - x_clean.get(cb)).norm_sqr();
        }
        let rel = (diff2 / x_clean.norm_sqr()).sqrt();
        assert!(rel < 1e-7, "recovered solution drifted: rel={rel}");
    }

    #[test]
    fn persistent_corruption_exhausts_rollback_budget() {
        use crate::test_faults::FaultyOp;
        let (mut hi, lo, b) = ops::<Double, Single>(8);
        let mut lo = FaultyOp::corrupting_from(lo, 12, f64::NAN);
        let mut x = hi.alloc();
        blas::zero(&mut x);
        let params = SolverParams { tol: 1e-10, max_iter: 2000, delta: 1e-2 };
        let res = reliable(&mut hi, &mut lo, &mut x, &b, &params);
        assert!(!res.converged);
        assert!(res.error.is_some(), "persistent corruption must surface an error");
        assert!(res.recoveries >= super::MAX_RECOVERIES);
    }

    #[test]
    fn poisoned_operator_aborts_with_error_not_hang() {
        use crate::test_faults::FaultyOp;
        let (mut hi, lo, b) = ops::<Double, Single>(9);
        let mut lo = FaultyOp::poisoned(lo, "recv from rank 2 tag 1: rank 2 is dead");
        let mut x = hi.alloc();
        blas::zero(&mut x);
        let params = SolverParams { tol: 1e-10, max_iter: 2000, delta: 1e-2 };
        let res = reliable(&mut hi, &mut lo, &mut x, &b, &params);
        assert!(!res.converged);
        assert_eq!(res.error.as_deref(), Some("recv from rank 2 tag 1: rank 2 is dead"));
        assert_eq!(res.iterations, 0, "fault must abort before iterating");
        assert_eq!(res.recoveries, 0, "a comm fault is not a rollback");
    }

    #[test]
    fn reliable_updates_beat_defect_correction_on_hard_system() {
        // Use a disordered gauge field (ill-conditioned matrix) so the
        // restart penalty is visible, as claimed in Section V-D.
        let d = dims();
        let cfg = quda_fields::gauge_gen::random_field(d, 77);
        let wp = WilsonParams { mass: 0.05, c_sw: 1.0 };
        let mut hi = MatPcOp::new(WilsonCloverOp::<Double>::from_config(&cfg, wp));
        let mut lo = MatPcOp::new(WilsonCloverOp::<Single>::from_config(&cfg, wp));
        let host = random_spinor_field(d, 78);
        let mut b = hi.alloc();
        b.upload(&host, Parity::Odd);
        let params = SolverParams { tol: 1e-8, max_iter: 20_000, delta: 1e-1 };
        let mut x1 = hi.alloc();
        blas::zero(&mut x1);
        let rel = reliable(&mut hi, &mut lo, &mut x1, &b, &params);
        let mut x2 = hi.alloc();
        blas::zero(&mut x2);
        let dc = bicgstab_defect_correction(&mut hi, &mut lo, &mut x2, &b, &params, 1e-1);
        assert!(rel.converged && dc.converged);
        assert!(
            rel.iterations <= dc.iterations + dc.iterations / 4,
            "reliable {} vs defect-correction {}",
            rel.iterations,
            dc.iterations
        );
    }
}
