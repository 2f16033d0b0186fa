//! Test-only operator wrappers that inject faults into the reduction path,
//! mimicking what a corrupted allreduce or a dead rank does to a
//! partitioned solve (DESIGN.md §7).

use crate::operator::{LinearOperator, OpFault};
use quda_fields::precision::Precision;
use quda_fields::SpinorFieldCb;
use quda_lattice::geometry::LatticeDims;

/// Wraps an operator and corrupts the `corrupt_at`-th collective (1-based;
/// 0 disables), or — when `fault` is set — behaves like a poisoned
/// partitioned operator: every reduction returns NaN and the fault hook
/// reports the error.
///
/// A collective is one call to `reduce`, whatever its width — one
/// allreduce on a partitioned run — and a hit replaces that call's whole
/// output with `corruption`.
pub(crate) struct FaultyOp<P: Precision, O: LinearOperator<P>> {
    pub inner: O,
    pub corrupt_at: u64,
    pub corruption: f64,
    pub collectives: u64,
    /// Corrupt every reduction from `corrupt_at` onward instead of just the
    /// one (models persistent rather than transient corruption).
    pub persistent: bool,
    pub fault: Option<String>,
    _p: std::marker::PhantomData<P>,
}

impl<P: Precision, O: LinearOperator<P>> FaultyOp<P, O> {
    pub fn corrupting(inner: O, corrupt_at: u64, corruption: f64) -> Self {
        FaultyOp {
            inner,
            corrupt_at,
            corruption,
            collectives: 0,
            persistent: false,
            fault: None,
            _p: std::marker::PhantomData,
        }
    }

    pub fn corrupting_from(inner: O, corrupt_at: u64, corruption: f64) -> Self {
        FaultyOp { persistent: true, ..FaultyOp::corrupting(inner, corrupt_at, corruption) }
    }

    /// Count one collective; whether it is to be corrupted.
    fn hit(&mut self) -> bool {
        self.collectives += 1;
        if self.persistent {
            self.corrupt_at > 0 && self.collectives >= self.corrupt_at
        } else {
            self.collectives == self.corrupt_at
        }
    }

    pub fn poisoned(inner: O, message: &str) -> Self {
        FaultyOp {
            inner,
            corrupt_at: 0,
            corruption: f64::NAN,
            collectives: 0,
            persistent: false,
            fault: Some(message.to_string()),
            _p: std::marker::PhantomData,
        }
    }
}

impl<P: Precision, O: LinearOperator<P>> LinearOperator<P> for FaultyOp<P, O> {
    fn dims(&self) -> LatticeDims {
        self.inner.dims()
    }

    fn alloc(&self) -> SpinorFieldCb<P> {
        self.inner.alloc()
    }

    fn apply(
        &mut self,
        outs: &mut [SpinorFieldCb<P>],
        ins: &mut [SpinorFieldCb<P>],
        active: &[bool],
    ) {
        if self.fault.is_some() {
            return;
        }
        self.inner.apply(outs, ins, active);
    }

    fn apply_dagger(
        &mut self,
        outs: &mut [SpinorFieldCb<P>],
        ins: &mut [SpinorFieldCb<P>],
        active: &[bool],
    ) {
        if self.fault.is_some() {
            return;
        }
        self.inner.apply_dagger(outs, ins, active);
    }

    fn flops_per_apply(&self) -> u64 {
        self.inner.flops_per_apply()
    }

    fn reduce(&mut self, locals: &mut [f64]) {
        if self.fault.is_some() {
            locals.fill(f64::NAN);
        } else if self.hit() {
            locals.fill(self.corruption);
        } else {
            self.inner.reduce(locals);
        }
    }

    fn fault(&self) -> Option<OpFault> {
        self.fault.clone().map(|message| OpFault { message })
    }
}
