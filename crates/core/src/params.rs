//! Parameter structs of the public interface, mirroring QUDA's
//! `QudaGaugeParam` / `QudaInvertParam` C structs in Rust style.

use quda_gpusim::cards::GpuSpec;
use quda_gpusim::transfer::NumaPlacement;
use quda_lattice::geometry::LatticeDims;
use quda_multigpu::driver::SolverKind;
use quda_multigpu::rank_op::CommStrategy;
use quda_multigpu::{CommHealth, PrecisionMode, RecoveryReport};
use quda_obs::{PhaseBreakdown, Trace, TraceConfig};
use quda_solvers::params::SolverParams;

/// Gauge-loading parameters.
#[derive(Copy, Clone, Debug)]
pub struct QudaGaugeParam {
    /// Lattice extents.
    pub dims: LatticeDims,
    /// Whether to validate SU(3)-ness of every link on load.
    pub check_unitarity: bool,
    /// Unitarity tolerance.
    pub unitarity_tol: f64,
}

impl QudaGaugeParam {
    /// Defaults for a given lattice.
    pub fn new(dims: LatticeDims) -> Self {
        QudaGaugeParam { dims, check_unitarity: true, unitarity_tol: 1e-8 }
    }
}

/// Inversion parameters — the knobs Section VII-A reports.
#[derive(Copy, Clone, Debug)]
pub struct QudaInvertParam {
    /// Quark mass `m`.
    pub mass: f64,
    /// Clover coefficient `c_sw` (0 = plain Wilson).
    pub c_sw: f64,
    /// Relative residual target.
    pub tol: f64,
    /// Iteration cap.
    pub max_iter: usize,
    /// Reliable-update δ.
    pub delta: f64,
    /// Precision mode.
    pub mode: PrecisionMode,
    /// Krylov method.
    pub solver: SolverKind,
    /// Face-exchange strategy.
    pub strategy: CommStrategy,
    /// GPUs to parallelize over (T must divide evenly).
    pub num_gpus: usize,
    /// How much the inversion records about its own phases
    /// ([`TraceConfig::Off`] by default — tracing costs nothing unless
    /// asked for).
    pub trace: TraceConfig,
    /// Run the solve under the comm lockstep sanitizer, which turns a
    /// cross-rank collective divergence into a located
    /// `CommError::LockstepDivergence` instead of a hang. Defaults to the
    /// `QUDA_LOCKSTEP` environment variable (off when unset).
    pub lockstep: bool,
    /// Rank deaths the inversion may survive by checkpointing at
    /// reliable-update boundaries and resuming on a rebuilt world
    /// (DESIGN.md §12). The default `0` is the fail-fast driver: no
    /// checkpoints, first death aborts.
    pub max_rank_deaths: usize,
    /// Right-hand sides the caller intends to solve together. A hint for
    /// the inversion service's batcher (capped by the library's
    /// `MAX_RHS_BATCH`); direct [`invert_multi`](crate::Quda::invert_multi)
    /// calls take the batch size from the source slice instead.
    pub num_rhs: usize,
    /// Tenant identity for service-side admission control and weighted-fair
    /// scheduling (DESIGN.md §14). Ignored by direct inversions.
    pub tenant: u32,
    /// Deadline for service-side scheduling: a queued request whose wait
    /// exceeds this is rejected rather than dispatched. `None` (the
    /// default) never expires. Ignored by direct inversions.
    pub deadline: Option<std::time::Duration>,
}

impl QudaInvertParam {
    /// The paper's production settings for a precision mode.
    pub fn paper_mode(mode: PrecisionMode, num_gpus: usize) -> Self {
        let sp = SolverParams::paper_defaults(mode.name());
        QudaInvertParam {
            mass: 0.1,
            c_sw: 1.0,
            tol: sp.tol,
            max_iter: sp.max_iter,
            delta: sp.delta,
            mode,
            solver: SolverKind::BiCgStab,
            strategy: CommStrategy::Overlap,
            num_gpus,
            trace: TraceConfig::Off,
            lockstep: quda_comm::LockstepConfig::from_env().is_some(),
            max_rank_deaths: 0,
            num_rhs: 1,
            tenant: 0,
            deadline: None,
        }
    }

    /// Set the quark mass.
    pub fn with_mass(mut self, mass: f64) -> Self {
        self.mass = mass;
        self
    }

    /// Set the relative residual target.
    pub fn with_tol(mut self, tol: f64) -> Self {
        self.tol = tol;
        self
    }

    /// Select the Krylov method.
    pub fn with_solver(mut self, solver: SolverKind) -> Self {
        self.solver = solver;
        self
    }

    /// Select the face-exchange strategy.
    pub fn with_strategy(mut self, strategy: CommStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Select how much the inversion traces itself.
    pub fn with_trace(mut self, trace: TraceConfig) -> Self {
        self.trace = trace;
        self
    }

    /// Turn the comm lockstep sanitizer on or off for this inversion.
    pub fn with_lockstep(mut self, lockstep: bool) -> Self {
        self.lockstep = lockstep;
        self
    }

    /// Allow the inversion to survive up to `n` rank deaths by resuming
    /// from checkpoints on a rebuilt world.
    pub fn with_max_rank_deaths(mut self, n: usize) -> Self {
        self.max_rank_deaths = n;
        self
    }

    /// Hint how many right-hand sides the caller will batch together.
    pub fn with_num_rhs(mut self, n: usize) -> Self {
        self.num_rhs = n;
        self
    }

    /// Tag requests with a tenant identity for the inversion service's
    /// admission control and fair scheduler.
    pub fn with_tenant(mut self, tenant: u32) -> Self {
        self.tenant = tenant;
        self
    }

    /// Give queued service requests a deadline: expire rather than solve
    /// once the queue wait exceeds it.
    pub fn with_deadline(mut self, deadline: std::time::Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Convert to the solver-layer parameter struct.
    pub fn solver_params(&self) -> SolverParams {
        SolverParams { tol: self.tol, max_iter: self.max_iter, delta: self.delta }
    }
}

/// Statistics returned by an inversion: functional results plus the
/// calibrated performance model's view of the same run on the "9g" cluster.
#[derive(Clone, Debug)]
pub struct InvertStats {
    /// Whether the residual target was met.
    pub converged: bool,
    /// Krylov iterations (sloppy precision for mixed modes).
    pub iterations: usize,
    /// Operator applications.
    pub matvecs: u64,
    /// Reliable updates performed.
    pub reliable_updates: u64,
    /// Solver-reported relative residual of the preconditioned system.
    pub solver_residual: f64,
    /// Independently verified relative residual of the *full* system,
    /// computed with the dense host reference operator.
    pub true_residual: f64,
    /// Effective flops of the solve (paper counting).
    pub effective_flops: u64,
    /// Modeled wall time of this solve on `num_gpus` GTX 285s (s).
    pub modeled_seconds: f64,
    /// Modeled sustained effective Gflops (aggregate).
    pub modeled_gflops: f64,
    /// Modeled device memory per GPU (bytes).
    pub memory_per_gpu: usize,
    /// Solver checkpoint rollbacks performed after detected corruption.
    pub recoveries: u64,
    /// Messages recovered by link-level retransmission across all ranks.
    pub comm_recoveries: u64,
}

/// Per-request queueing telemetry attached by the inversion service
/// (DESIGN.md §14): where the request waited, how it was batched, and how
/// deep its tenant's queue was at submission. Direct inversions leave it
/// at the default (zero wait, batch of one).
#[derive(Clone, Copy, Debug, Default)]
pub struct QueueTelemetry {
    /// Tenant the request was accounted to.
    pub tenant: u32,
    /// Time spent queued before the batch was dispatched.
    pub queue_wait: std::time::Duration,
    /// Number of right-hand sides in the dispatched batch (0 for direct
    /// inversions that never crossed the service; the service always
    /// reports at least 1).
    pub batch_size: usize,
    /// The tenant's queue depth observed at submission, *including* this
    /// request — backpressure made visible.
    pub queue_depth: usize,
}

/// Everything an inversion reports: the classic [`InvertStats`] plus the
/// *measured* per-phase breakdown, the communication-health record, and
/// (under [`TraceConfig::Full`]) the raw span trace.
///
/// Dereferences to [`InvertStats`], so existing `stats.converged`-style
/// call sites keep working on the report.
#[derive(Clone, Debug)]
pub struct InvertReport {
    /// Functional and modeled statistics (the pre-tracing report).
    pub stats: InvertStats,
    /// Measured wall-time breakdown by phase, aggregated over ranks.
    /// Empty (zero phases) when tracing was [`TraceConfig::Off`].
    pub phases: PhaseBreakdown,
    /// World-wide communication-health summary (always collected — the
    /// counters are kept by the communicators regardless of tracing).
    pub comm: CommHealth,
    /// The raw recorded trace; individual spans are only retained under
    /// [`TraceConfig::Full`].
    pub trace: Trace,
    /// Elastic-recovery telemetry: every survived rank death (with its
    /// recovery latency and resume epoch) plus checkpoint overhead
    /// counters. Empty unless [`QudaInvertParam::max_rank_deaths`] was
    /// raised above `0` *and* checkpoints/deaths actually occurred.
    pub recovery: RecoveryReport,
    /// Queueing telemetry stamped by the inversion service; default for
    /// direct inversions.
    pub queue: QueueTelemetry,
}

impl std::ops::Deref for InvertReport {
    type Target = InvertStats;
    fn deref(&self) -> &InvertStats {
        &self.stats
    }
}

impl InvertReport {
    /// Export the recorded spans in Chrome trace-event JSON (load via
    /// `chrome://tracing` or [Perfetto](https://ui.perfetto.dev)). Returns
    /// an empty-but-valid document unless the solve ran under
    /// [`TraceConfig::Full`].
    pub fn to_chrome_trace(&self) -> String {
        self.trace.to_chrome_trace()
    }
}

/// Hardware context for the performance model.
#[derive(Copy, Clone, Debug)]
pub struct QudaDeviceParam {
    /// Card model (Table I).
    pub gpu: GpuSpec,
    /// Process placement (Section VII-D).
    pub numa: NumaPlacement,
}

impl Default for QudaDeviceParam {
    fn default() -> Self {
        QudaDeviceParam { gpu: quda_gpusim::cards::gtx285(), numa: NumaPlacement::Good }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_mode_settings() {
        let p = QudaInvertParam::paper_mode(PrecisionMode::SingleHalf, 8);
        assert_eq!(p.tol, 1e-7);
        assert_eq!(p.delta, 1e-1);
        assert_eq!(p.num_gpus, 8);
        let d = QudaInvertParam::paper_mode(PrecisionMode::Double, 4);
        assert_eq!(d.tol, 1e-14);
        assert_eq!(d.delta, 1e-5);
    }

    #[test]
    fn default_device_is_gtx285() {
        let d = QudaDeviceParam::default();
        assert_eq!(d.gpu.name, "GeForce GTX 285");
    }
}
