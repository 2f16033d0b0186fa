//! The operator abstraction the Krylov solvers run against.
//!
//! Both the single-device operator (`quda-dirac`) and the multi-GPU
//! operator (`quda-multigpu`) implement [`LinearOperator`]. The trait also
//! carries the *global reduction* hook: on a partitioned lattice every blas
//! reduction is only a local partial sum, and "the only other required
//! addition to the code was the insertion of MPI reductions for each of the
//! linear algebra reduction kernels" (Section VI-E).

use crate::blas::BlasCounters;
pub use quda_dirac::MatPcOp;
use quda_dirac::NoHalo;
use quda_fields::precision::Precision;
use quda_fields::SpinorFieldCb;
use quda_lattice::geometry::LatticeDims;
use quda_obs::{Phase, Tracer};
use std::slice::from_mut;

/// A fault recorded by an operator implementation — typically a
/// communication failure (dead peer, exhausted retries) on a partitioned
/// lattice (DESIGN.md §7).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OpFault {
    /// Human-readable description of the underlying failure.
    pub message: String,
}

/// A linear operator on single-parity spinor fields.
pub trait LinearOperator<P: Precision> {
    /// Lattice extents of the (local) domain.
    fn dims(&self) -> LatticeDims;
    /// Allocate a compatible workspace vector.
    fn alloc(&self) -> SpinorFieldCb<P>;
    /// Batched `outs[r] ← M̂ ins[r]` for every `r` with `active[r]`; a
    /// single field is the one-element batch (`std::slice::from_mut`,
    /// `&[true]`).
    ///
    /// `ins` is mutable because a partitioned implementation fills its
    /// ghost zones in place before the stencil reads them — exactly
    /// what the MPI face exchange does to the operand buffer (Section
    /// VI-C). The contract every implementation keeps: per active RHS the
    /// output is **bit-identical** to applying it alone, and inactive
    /// slots are untouched — that is what lets the blocked solvers freeze
    /// converged systems without perturbing the rest.
    fn apply(
        &mut self,
        outs: &mut [SpinorFieldCb<P>],
        ins: &mut [SpinorFieldCb<P>],
        active: &[bool],
    );
    /// Batched `outs[r] ← M̂† ins[r]`; same contract as
    /// [`LinearOperator::apply`].
    fn apply_dagger(
        &mut self,
        outs: &mut [SpinorFieldCb<P>],
        ins: &mut [SpinorFieldCb<P>],
        active: &[bool],
    );
    /// Effective flops of one `apply`.
    fn flops_per_apply(&self) -> u64;
    /// Globalize a batch of local reductions in place: one collective
    /// (an allreduce on a partitioned run) for the whole slice, the
    /// identity on a single device.
    ///
    /// A real reduction is the one-element slice `[x]`, a complex one the
    /// pair `[re, im]`. The contract: component `k` on return is
    /// bit-identical whatever else shares the slice, because a vector
    /// allreduce combines every component in the same rank order. That is
    /// what lets the blocked solvers fuse the per-RHS reductions of one
    /// algorithmic point into a single collective without perturbing any
    /// member's value.
    fn reduce(&mut self, _locals: &mut [f64]) {}
    /// Number of local data sites.
    fn sites(&self) -> usize {
        self.dims().half_volume()
    }
    /// A pending fault recorded by the implementation, if any.
    ///
    /// A partitioned operator cannot return `Result` from the hot
    /// `apply`/`reduce` paths without penalizing every uniform-precision
    /// call site, so a failed exchange or reduction instead *poisons* the
    /// operator: `apply` becomes a no-op, `reduce` fills NaN, and the
    /// original typed error is parked here for the solvers to poll at
    /// iteration boundaries. The default (single-device) implementation
    /// never faults.
    fn fault(&self) -> Option<OpFault> {
        None
    }
    /// The phase recorder handle for this operator's rank. The default
    /// (single-device) implementation returns the disabled tracer, so
    /// solver instrumentation is free unless a traced parallel operator
    /// is underneath.
    fn tracer(&self) -> Tracer {
        Tracer::disabled()
    }
}

/// Run `f` inside a span of `phase` on `tracer` — sugar keeping the
/// solver loops readable where a guard binding would be noise.
pub fn traced<R>(tracer: &Tracer, phase: Phase, f: impl FnOnce() -> R) -> R {
    let _span = tracer.span(phase);
    f()
}

/// Like [`traced`], tagging the span with the solver iteration.
pub fn traced_iter<R>(tracer: &Tracer, phase: Phase, iter: u64, f: impl FnOnce() -> R) -> R {
    let mut span = tracer.span(phase);
    span.set_iter(iter);
    f()
}

/// The single device: the even-odd composition with closed boundaries.
impl<P: Precision> LinearOperator<P> for MatPcOp<P> {
    fn dims(&self) -> LatticeDims {
        self.op.dims
    }

    fn alloc(&self) -> SpinorFieldCb<P> {
        self.op.alloc_spinor()
    }

    fn apply(
        &mut self,
        outs: &mut [SpinorFieldCb<P>],
        ins: &mut [SpinorFieldCb<P>],
        active: &[bool],
    ) {
        let Ok(()) = self.matpc(&mut NoHalo, outs, ins, active, false);
    }

    fn apply_dagger(
        &mut self,
        outs: &mut [SpinorFieldCb<P>],
        ins: &mut [SpinorFieldCb<P>],
        active: &[bool],
    ) {
        let Ok(()) = self.matpc(&mut NoHalo, outs, ins, active, true);
    }

    fn flops_per_apply(&self) -> u64 {
        self.op.dims.half_volume() as u64 * quda_dirac::flops::MATPC_FLOPS_PER_SITE
    }
}

/// Compute the residual `r ← b − M̂ x` and return the *global* `‖r‖²`.
pub fn residual_norm2<P: Precision>(
    op: &mut dyn LinearOperator<P>,
    r: &mut SpinorFieldCb<P>,
    x: &mut SpinorFieldCb<P>,
    b: &SpinorFieldCb<P>,
    counters: &mut BlasCounters,
) -> f64 {
    let tracer = op.tracer();
    traced(&tracer, Phase::Matvec, || op.apply(from_mut(r), from_mut(x), &[true]));
    let mut norm2 = [traced(&tracer, Phase::Blas, || crate::blas::xmy_norm(b, r, counters))];
    traced(&tracer, Phase::Reduce, || op.reduce(&mut norm2));
    norm2[0]
}

/// Compute `rs[k] ← bs[k] − M̂ xs[k]` and the *global* `‖rs[k]‖²` into
/// `out[k]` for every lane with `live[k]`, in one fused sweep and one
/// fused reduction.
///
/// Bit-identical per lane to [`residual_norm2`]: the
/// [`LinearOperator::apply`] contract pins the batched mat-vec to the
/// one-lane apply, and [`LinearOperator::reduce`] combines each
/// component in the same rank order as a one-element reduction. Dead lanes
/// keep their `out` slot untouched locally (the collective still sums the
/// stale slot; it is never read back).
pub(crate) fn residual_norm2_multi<P: Precision>(
    op: &mut dyn LinearOperator<P>,
    rs: &mut [SpinorFieldCb<P>],
    xs: &mut [SpinorFieldCb<P>],
    bs: &[SpinorFieldCb<P>],
    cs: &mut [BlasCounters],
    live: &[bool],
    out: &mut [f64],
) {
    let tracer = op.tracer();
    traced(&tracer, Phase::Matvec, || op.apply(rs, xs, live));
    for (k, alive) in live.iter().enumerate() {
        if *alive {
            out[k] = traced(&tracer, Phase::Blas, || {
                crate::blas::xmy_norm(&bs[k], &mut rs[k], &mut cs[k])
            });
        }
    }
    traced(&tracer, Phase::Reduce, || op.reduce(out));
}

#[cfg(test)]
mod tests {
    use super::*;
    use quda_dirac::{WilsonCloverOp, WilsonParams};
    use quda_fields::gauge_gen::{random_spinor_field, weak_field};
    use quda_fields::precision::Double;
    use quda_lattice::geometry::Parity;

    #[test]
    fn matpc_op_applies_and_counts_flops() {
        let d = LatticeDims::new(4, 4, 2, 4);
        let cfg = weak_field(d, 0.1, 1);
        let op = WilsonCloverOp::<Double>::from_config(&cfg, WilsonParams { mass: 0.3, c_sw: 1.0 });
        let mut wrapped = MatPcOp::new(op);
        let host = random_spinor_field(d, 2);
        let mut x = wrapped.alloc();
        x.upload(&host, Parity::Odd);
        let mut out = wrapped.alloc();
        wrapped.apply(from_mut(&mut out), from_mut(&mut x), &[true]);
        assert!(out.norm_sqr() > 0.0);
        assert_eq!(wrapped.flops_per_apply(), d.half_volume() as u64 * 3696);
        // The default reduction is the identity.
        let mut locals = [2.5, -1.0];
        wrapped.reduce(&mut locals);
        assert_eq!(locals, [2.5, -1.0]);
    }

    #[test]
    fn residual_of_exact_solution_is_zero() {
        let d = LatticeDims::new(4, 4, 2, 4);
        let cfg = weak_field(d, 0.1, 5);
        let op = WilsonCloverOp::<Double>::from_config(&cfg, WilsonParams { mass: 0.3, c_sw: 1.0 });
        let mut wrapped = MatPcOp::new(op);
        let host = random_spinor_field(d, 9);
        let mut x = wrapped.alloc();
        x.upload(&host, Parity::Odd);
        let mut b = wrapped.alloc();
        wrapped.apply(from_mut(&mut b), from_mut(&mut x), &[true]);
        let mut r = wrapped.alloc();
        let mut c = BlasCounters::default();
        let n = residual_norm2(&mut wrapped, &mut r, &mut x, &b, &mut c);
        assert!(n < 1e-20);
    }
}
