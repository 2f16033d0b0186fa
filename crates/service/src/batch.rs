//! Batch compatibility: which queued requests may share one blocked solve.

use quda_core::{PrecisionMode, QudaInvertParam, SolverKind, TraceConfig};
use quda_multigpu::rank_op::CommStrategy;

use crate::request::ServiceGaugeId;

/// The compatibility class of a request: two requests fuse into one
/// multi-RHS solve **iff** their keys are equal, which guarantees they
/// share the gauge field, operator, precision mode, solver, and every
/// control that steers the iteration. Floats enter by bit pattern
/// (`f64::to_bits`), so "equal" means *exactly* equal — anything looser
/// would change iteration counts and break the bit-identity contract.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchKey {
    /// Cached gauge field.
    pub gauge: ServiceGaugeId,
    /// Quark mass bits.
    pub mass_bits: u64,
    /// Clover coefficient bits.
    pub c_sw_bits: u64,
    /// Residual-target bits.
    pub tol_bits: u64,
    /// Reliable-update δ bits.
    pub delta_bits: u64,
    /// Iteration cap.
    pub max_iter: usize,
    /// Precision mode.
    pub mode: PrecisionMode,
    /// Krylov method.
    pub solver: SolverKind,
    /// Face-exchange strategy.
    pub strategy: CommStrategy,
    /// GPUs the solve partitions over.
    pub num_gpus: usize,
    /// Trace depth (a traced solve records; an untraced one must not pay
    /// for a batchmate's recording).
    pub trace: TraceConfig,
    /// Lockstep-sanitizer toggle.
    pub lockstep: bool,
    /// Death budget (an elastic request must not run fail-fast behind a
    /// budget-0 head, nor a fail-fast one pay for checkpoints).
    pub max_rank_deaths: usize,
}

impl BatchKey {
    /// Derive the compatibility class of a request.
    pub fn of(gauge: ServiceGaugeId, param: &QudaInvertParam) -> BatchKey {
        BatchKey {
            gauge,
            mass_bits: param.mass.to_bits(),
            c_sw_bits: param.c_sw.to_bits(),
            tol_bits: param.tol.to_bits(),
            delta_bits: param.delta.to_bits(),
            max_iter: param.max_iter,
            mode: param.mode,
            solver: param.solver,
            strategy: param.strategy,
            num_gpus: param.num_gpus,
            trace: param.trace,
            lockstep: param.lockstep,
            max_rank_deaths: param.max_rank_deaths,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> QudaInvertParam {
        QudaInvertParam::paper_mode(PrecisionMode::Double, 2)
    }

    #[test]
    fn same_controls_same_key_regardless_of_tenant_and_deadline() {
        let g = ServiceGaugeId(3);
        let a = base().with_tenant(1);
        let b = base().with_tenant(2).with_deadline(std::time::Duration::from_secs(5));
        assert_eq!(BatchKey::of(g, &a), BatchKey::of(g, &b));
    }

    #[test]
    fn any_solve_control_splits_the_key() {
        let g = ServiceGaugeId(0);
        let k = BatchKey::of(g, &base());
        assert_ne!(k, BatchKey::of(ServiceGaugeId(1), &base()));
        assert_ne!(k, BatchKey::of(g, &base().with_mass(0.2)));
        assert_ne!(k, BatchKey::of(g, &base().with_tol(1e-9)));
        assert_ne!(k, BatchKey::of(g, &base().with_solver(SolverKind::Cgnr)));
        assert_ne!(k, BatchKey::of(g, &QudaInvertParam::paper_mode(PrecisionMode::SingleHalf, 2)));
        assert_ne!(k, BatchKey::of(g, &base().with_max_rank_deaths(1)));
        // Even a same-value, different-bit-pattern float splits: -0.0 vs 0.0.
        assert_ne!(
            k,
            BatchKey::of(
                g,
                &base()
                    .with_mass(-0.0)
                    .with_mass(0.0) // same value...
                    .with_mass(f64::from_bits(base().mass.to_bits() ^ 1))
            )
        );
    }
}
