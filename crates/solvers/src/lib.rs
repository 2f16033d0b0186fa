//! # quda-solvers
//!
//! Krylov solvers for the even-odd preconditioned Wilson-clover system:
//!
//! * [`blas`] — fused, cost-accounted BLAS1 kernels (Section V-E);
//! * [`operator`] — the [`operator::LinearOperator`] abstraction with the
//!   global-reduction hook the parallel solver needs (Section VI-E), and
//!   its single-device implementation: `quda-dirac`'s batched even-odd
//!   composition [`MatPcOp`] under the closed-boundary `NoHalo`;
//! * [`bicgstab`](mod@bicgstab) — the production non-symmetric solver;
//! * [`cg`](mod@cg) — CG on the normal equations (CGNR);
//! * [`mixed`] — mixed-precision reliable updates and the defect-correction
//!   baseline (Section V-D);
//! * [`checkpoint`] — the per-lane snapshots and sinks of elastic
//!   resilience (DESIGN.md §12);
//! * [`params`] — solver parameters matching Section VII-A;
//! * [`spectral`] — power/inverse-power spectrum probes quantifying the
//!   condition-number claims of Section II.
//!
//! There is one implementation per method, and it is blocked: every solver
//! takes a slice of right-hand sides (a single system is the one-element
//! slice, `std::slice::from_mut`/`from_ref`) so a batch shares each gauge
//! sweep through [`operator::LinearOperator::apply`] while every
//! scalar recurrence stays *per lane* (DESIGN.md §14):
//!
//! * each right-hand side carries its own residual, search direction,
//!   scalar state (α, β, ρ, ω, …), rollback copy, recovery budget and
//!   checkpoint sink;
//! * the per-lane reductions of each algorithmic point are packed, in lane
//!   order, into **one fused vector allreduce**
//!   ([`operator::LinearOperator::reduce`]). A vector allreduce
//!   combines every component in the same rank order as a scalar
//!   allreduce, so each lane's reduced values — and therefore its
//!   iteration count and solution — do not depend on the rest of the
//!   batch, while the collective count per iteration is a constant;
//! * a lane that converges (or breaks down) drops out of the *active
//!   mask*: its vectors are frozen and the remaining lanes keep iterating
//!   in a smaller fused sweep.
//!
//! Every active-mask decision is derived from globally reduced values, so
//! the mask is identical on every rank and the collective stream stays
//! rank-uniform (the `QUDA_LOCKSTEP=1` sanitizer passes). Rollbacks,
//! reliable updates, and true-residual tails apply the operator to a
//! one-element batch, which the `apply` contract guarantees is
//! bit-identical to that lane of the batched sweep.

#![warn(missing_docs)]
// The no-panic invariant (xtask lint rule `no-panic`), also machine-checked
// at compile time: a panicking rank hangs its peers mid-allreduce.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod bicgstab;
pub mod blas;
pub mod cg;
pub mod checkpoint;
pub mod mixed;
pub mod operator;
pub mod params;
pub mod spectral;
#[cfg(test)]
pub(crate) mod test_faults;

pub use bicgstab::bicgstab;
pub use cg::cgnr;
pub use checkpoint::{
    CheckpointCounters, CheckpointError, CheckpointSink, SolverCheckpoint, CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
};
pub use mixed::{bicgstab_defect_correction, bicgstab_reliable};
pub use operator::{LinearOperator, MatPcOp, OpFault};
pub use params::{SolveResult, SolverParams};
pub use spectral::{estimate_spectrum, lambda_max, lambda_min, SpectrumEstimate};
