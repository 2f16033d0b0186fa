//! # quda-core
//!
//! The public interface of `quda-rs` — a Rust reproduction of
//! *"Parallelizing the QUDA Library for Multi-GPU Calculations in Lattice
//! Quantum Chromodynamics"* (Babich, Clark, Joó, SC10 2010).
//!
//! The shape mirrors QUDA's C interface ("a simple C interface to allow for
//! easy integration with LQCD application software", Section V): create a
//! [`Quda`] context, [`Quda::load_gauge`] a configuration, and call
//! [`Quda::invert`] with a [`QudaInvertParam`] describing the precision
//! mode, solver, GPU count, and communication strategy. Every inversion
//! returns both the solution and an [`InvertReport`]: the classic
//! [`InvertStats`] (iterations, verified residual, modeled performance)
//! plus a *measured* per-phase wall-time breakdown, the world-wide
//! communication-health record, and — under [`TraceConfig::Full`] — a raw
//! span trace exportable as Chrome trace-event JSON.
//!
//! ```
//! use quda_core::{Quda, QudaInvertParam, TraceConfig};
//! use quda_fields::gauge_gen::weak_field;
//! use quda_fields::host::HostSpinorField;
//! use quda_lattice::geometry::{Coord, LatticeDims};
//! use quda_multigpu::PrecisionMode;
//!
//! let dims = LatticeDims::new(4, 4, 4, 8);
//! let mut quda = Quda::new(2).unwrap(); // two (simulated) GPUs
//! quda.load_gauge(weak_field(dims, 0.1, 42)).unwrap();
//! let source = HostSpinorField::point_source(dims, Coord::new(0, 0, 0, 0), 0, 0);
//! let param = QudaInvertParam::paper_mode(PrecisionMode::DoubleHalf, 2)
//!     .with_mass(0.3)
//!     .with_tol(1e-10)
//!     .with_trace(TraceConfig::Summary);
//! let (solution, report) = quda.invert(&source, &param).unwrap();
//! assert!(report.converged); // derefs to the classic InvertStats
//! assert!(report.true_residual < 1e-9);
//! assert!(solution.norm_sqr() > 0.0);
//! // The measured breakdown: where the wall time actually went.
//! assert!(!report.phases.phases.is_empty());
//! assert!(report.phases.overlap_efficiency >= 0.0);
//! ```

#![warn(missing_docs)]

pub mod params;

pub use params::{
    InvertReport, InvertStats, QudaDeviceParam, QudaGaugeParam, QudaInvertParam, QueueTelemetry,
};
pub use quda_comm::CommError;
pub use quda_multigpu::driver::ChaosSpec;
pub use quda_multigpu::driver::SolverKind;
pub use quda_multigpu::rank_op::CommStrategy;
pub use quda_multigpu::{CommHealth, PrecisionMode, RecoveryEvent, RecoveryReport};
pub use quda_obs::{Phase, PhaseBreakdown, Trace, TraceConfig};

use std::sync::Arc;

use quda_dirac::WilsonParams;
use quda_fields::host::{GaugeConfig, HostSpinorField};
use quda_lattice::partition::DecompPlan;
use quda_multigpu::driver::{
    solve_full_grid_multi, verify_full_solution, ElasticPolicy, GridSolveSpec,
};
use quda_multigpu::perf::{evaluate, solver_memory_per_gpu, PerfInput};
use quda_solvers::params::SolverParams;

/// Handle to a gauge configuration registered in a [`Quda`] context —
/// the Rust shape of QUDA's `loadGaugeQuda`/`freeGaugeQuda` lifecycle.
/// The underlying field is reference-counted: [`Quda::gauge_ref`] hands
/// out [`Arc`] clones, so freeing the handle drops the context's
/// reference without invalidating fields a service worker still holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GaugeId(u64);

/// Errors the interface can report.
#[derive(Debug, Clone, PartialEq)]
pub enum QudaError {
    /// No gauge field loaded.
    NoGauge,
    /// Gauge field failed the unitarity check.
    NotUnitary,
    /// Lattice/partition mismatch (T not divisible, local T odd, …).
    BadPartition(String),
    /// Source dims do not match the loaded gauge field.
    DimsMismatch,
    /// A [`GaugeId`] that was never registered, or was already freed.
    UnknownGauge(GaugeId),
    /// More right-hand sides than one fused sweep can carry
    /// (`quda_dirac::MAX_RHS_BATCH`); split the batch.
    BatchTooLarge {
        /// Right-hand sides requested.
        requested: usize,
        /// The per-batch cap.
        max: usize,
    },
    /// The working set does not fit device memory at this GPU count.
    OutOfDeviceMemory {
        /// Required bytes per GPU.
        required: usize,
        /// Available bytes per GPU.
        available: usize,
    },
    /// The parallel solve failed with an unrecoverable communication error
    /// (dead rank, timeout, exhausted retries). Carries the structured
    /// [`CommError`] — match on it to distinguish a dead rank from a
    /// timeout, or reach it generically via
    /// [`source()`](std::error::Error::source).
    Comm(CommError),
}

impl std::fmt::Display for QudaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QudaError::NoGauge => write!(f, "no gauge field loaded"),
            QudaError::NotUnitary => write!(f, "gauge links are not special-unitary"),
            QudaError::BadPartition(s) => write!(f, "bad partition: {s}"),
            QudaError::DimsMismatch => write!(f, "field dimensions do not match gauge field"),
            QudaError::UnknownGauge(id) => write!(f, "unknown or freed gauge handle {id:?}"),
            QudaError::BatchTooLarge { requested, max } => {
                write!(f, "batch of {requested} right-hand sides exceeds the cap of {max}")
            }
            QudaError::OutOfDeviceMemory { required, available } => {
                write!(f, "out of device memory: need {required} B/GPU, have {available} B/GPU")
            }
            QudaError::Comm(e) => write!(f, "communication failure: {e}"),
        }
    }
}

impl std::error::Error for QudaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            QudaError::Comm(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CommError> for QudaError {
    fn from(e: CommError) -> QudaError {
        QudaError::Comm(e)
    }
}

/// The library context (the moral equivalent of `initQuda` + the state the
/// C interface keeps behind the scenes).
pub struct Quda {
    num_gpus: usize,
    device: QudaDeviceParam,
    /// Registered gauge configurations, insertion-ordered. A `Vec` rather
    /// than a map: contexts hold a handful of fields, and iteration order
    /// matters for deterministic diagnostics.
    gauges: Vec<(GaugeId, Arc<GaugeConfig>)>,
    /// The handle inversions run against (the most recently loaded,
    /// selected, or adopted gauge).
    current: Option<GaugeId>,
    next_gauge_id: u64,
    /// Enforce the device-memory footprint before running (off by default;
    /// turning it on reproduces the paper's "at least 8 GPUs are needed"
    /// behaviour at full lattice sizes). Set via
    /// [`Quda::with_memory_enforcement`].
    enforce_memory: bool,
}

impl Quda {
    /// Initialize for `num_gpus` simulated devices.
    ///
    /// Fails with [`QudaError::BadPartition`] for a zero-device context
    /// rather than panicking.
    pub fn new(num_gpus: usize) -> Result<Self, QudaError> {
        if num_gpus == 0 {
            return Err(QudaError::BadPartition(
                "a context needs at least one GPU (num_gpus = 0)".to_owned(),
            ));
        }
        Ok(Quda {
            num_gpus,
            device: QudaDeviceParam::default(),
            gauges: Vec::new(),
            current: None,
            next_gauge_id: 0,
            enforce_memory: false,
        })
    }

    /// Select a different card model or NUMA placement.
    pub fn with_device(mut self, device: QudaDeviceParam) -> Self {
        self.device = device;
        self
    }

    /// Enable or disable the device-memory gate: when on, an inversion
    /// whose working set exceeds per-GPU memory fails with
    /// [`QudaError::OutOfDeviceMemory`] instead of running.
    pub fn with_memory_enforcement(mut self, enforce: bool) -> Self {
        self.enforce_memory = enforce;
        self
    }

    /// Number of devices this context parallelizes over.
    pub fn num_gpus(&self) -> usize {
        self.num_gpus
    }

    /// Load a gauge configuration (validating unitarity) and select it for
    /// subsequent inversions — `loadGaugeQuda`. Previously loaded fields
    /// stay registered under their handles until [`Quda::free_gauge`].
    pub fn load_gauge(&mut self, cfg: GaugeConfig) -> Result<GaugeId, QudaError> {
        let param = QudaGaugeParam::new(cfg.dims);
        self.load_gauge_with(cfg, &param)
    }

    /// Load with explicit parameters.
    pub fn load_gauge_with(
        &mut self,
        cfg: GaugeConfig,
        param: &QudaGaugeParam,
    ) -> Result<GaugeId, QudaError> {
        if param.check_unitarity && !cfg.is_unitary(param.unitarity_tol) {
            return Err(QudaError::NotUnitary);
        }
        Ok(self.register(Arc::new(cfg)))
    }

    /// Register an already-validated shared gauge field and select it —
    /// the path inversion-service workers use, so a field cached once is
    /// never copied or re-validated per worker.
    pub fn adopt_gauge(&mut self, cfg: Arc<GaugeConfig>) -> GaugeId {
        self.register(cfg)
    }

    fn register(&mut self, cfg: Arc<GaugeConfig>) -> GaugeId {
        let id = GaugeId(self.next_gauge_id);
        self.next_gauge_id += 1;
        self.gauges.push((id, cfg));
        self.current = Some(id);
        id
    }

    /// Make `id` the gauge field subsequent inversions run against.
    pub fn select_gauge(&mut self, id: GaugeId) -> Result<(), QudaError> {
        if !self.gauges.iter().any(|(g, _)| *g == id) {
            return Err(QudaError::UnknownGauge(id));
        }
        self.current = Some(id);
        Ok(())
    }

    /// Drop a registered gauge field — `freeGaugeQuda`. The context's
    /// reference goes away; [`Arc`] clones handed out by
    /// [`Quda::gauge_ref`] keep the field alive elsewhere. Freeing the
    /// selected field leaves the context with no selection.
    pub fn free_gauge(&mut self, id: GaugeId) -> Result<(), QudaError> {
        let i =
            self.gauges.iter().position(|(g, _)| *g == id).ok_or(QudaError::UnknownGauge(id))?;
        self.gauges.remove(i);
        if self.current == Some(id) {
            self.current = None;
        }
        Ok(())
    }

    /// A shared reference to a registered gauge field.
    pub fn gauge_ref(&self, id: GaugeId) -> Result<Arc<GaugeConfig>, QudaError> {
        self.gauges
            .iter()
            .find(|(g, _)| *g == id)
            .map(|(_, c)| Arc::clone(c))
            .ok_or(QudaError::UnknownGauge(id))
    }

    /// The currently selected gauge handle, if any.
    pub fn current_gauge(&self) -> Option<GaugeId> {
        self.current
    }

    fn selected(&self) -> Result<&Arc<GaugeConfig>, QudaError> {
        let id = self.current.ok_or(QudaError::NoGauge)?;
        self.gauges.iter().find(|(g, _)| *g == id).map(|(_, c)| c).ok_or(QudaError::NoGauge)
    }

    /// Average plaquette of the selected configuration.
    pub fn plaquette(&self) -> Result<f64, QudaError> {
        Ok(self.selected()?.average_plaquette())
    }

    /// Solve `M x = b` — `invertQuda`.
    ///
    /// Runs the *functional* parallel solve (thread ranks, real ghost
    /// exchanges, real mixed-precision arithmetic), independently verifies
    /// the solution against the dense host reference operator, and returns
    /// an [`InvertReport`]: the classic [`InvertStats`] (including the
    /// performance model's timing of the same run shape) plus the measured
    /// phase breakdown and communication health of this run, governed by
    /// [`QudaInvertParam::trace`]. It is [`Quda::invert_multi`] over the
    /// one-element slice of `source`.
    pub fn invert(
        &mut self,
        source: &HostSpinorField,
        param: &QudaInvertParam,
    ) -> Result<(HostSpinorField, InvertReport), QudaError> {
        // One source in, one lane out.
        self.invert_multi(std::slice::from_ref(source), param).map(|mut out| out.swap_remove(0))
    }

    /// Solve `M x = bᵢ` for a batch of right-hand sides sharing the gauge
    /// field, operator, and solver controls — the API the inversion
    /// service batches onto (DESIGN.md §14).
    ///
    /// The batch runs as *one* blocked Krylov solve: fused multi-RHS
    /// Dslash sweeps read the gauge links once per sweep and exchange one
    /// set of face messages for the whole block. Each returned solution,
    /// iteration count, and residual is **bit-identical** to a standalone
    /// [`Quda::invert`] of that source (the batched-equivalence suite
    /// enforces this at every precision); batches above
    /// `quda_dirac::MAX_RHS_BATCH` are rejected with
    /// [`QudaError::BatchTooLarge`]. With
    /// [`QudaInvertParam::max_rank_deaths`] above `0` every lane survives
    /// rank deaths, each resuming from its own checkpoint.
    pub fn invert_multi(
        &mut self,
        sources: &[HostSpinorField],
        param: &QudaInvertParam,
    ) -> Result<Vec<(HostSpinorField, InvertReport)>, QudaError> {
        let chaos = ChaosSpec {
            lockstep: param
                .lockstep
                .then(|| quda_comm::LockstepConfig::from_env().unwrap_or_default()),
            ..ChaosSpec::default()
        };
        self.invert_multi_with_chaos(sources, param, &chaos)
    }

    /// [`Quda::invert_multi`] under an explicit fault-injection and timeout
    /// policy — the entry point chaos tests and resilience benchmarks
    /// drive, and the one implementation behind every inversion. With
    /// [`QudaInvertParam::max_rank_deaths`] above `0` the solve runs
    /// elastically: injected rank deaths are survived by rolling every lane
    /// back to its last checkpoint on a rebuilt world, and every recovery is
    /// reported in each lane's [`InvertReport::recovery`].
    pub fn invert_multi_with_chaos(
        &mut self,
        sources: &[HostSpinorField],
        param: &QudaInvertParam,
        chaos: &ChaosSpec,
    ) -> Result<Vec<(HostSpinorField, InvertReport)>, QudaError> {
        if sources.is_empty() {
            return Ok(Vec::new());
        }
        if sources.len() > quda_dirac::MAX_RHS_BATCH {
            return Err(QudaError::BatchTooLarge {
                requested: sources.len(),
                max: quda_dirac::MAX_RHS_BATCH,
            });
        }
        let cfg = Arc::clone(self.selected()?);
        let (spec, mem) = self.solve_spec(&cfg, sources, param)?;
        let policy = ElasticPolicy { max_rank_deaths: param.max_rank_deaths, chaos: chaos.clone() };
        let multi = solve_full_grid_multi(&cfg, sources, &spec, &policy, param.trace)?;
        let phases = multi.trace.breakdown();
        let lanes = multi.solutions.into_iter().zip(multi.results).zip(multi.recovery).zip(sources);
        let report = |(((x, result), recovery), source): (_, &HostSpinorField)| {
            let report = InvertReport {
                stats: self.build_stats(&cfg, source, &x, &result, &spec, mem),
                phases: phases.clone(),
                comm: multi.comm.clone(),
                trace: multi.trace.clone(),
                recovery,
                queue: QueueTelemetry::default(),
            };
            (x, report)
        };
        Ok(lanes.map(report).collect())
    }

    /// Validate sources/partition/memory and build the solve spec.
    fn solve_spec(
        &self,
        cfg: &GaugeConfig,
        sources: &[HostSpinorField],
        param: &QudaInvertParam,
    ) -> Result<(GridSolveSpec, usize), QudaError> {
        if sources.iter().any(|s| s.dims != cfg.dims) {
            return Err(QudaError::DimsMismatch);
        }
        let num_gpus = param.num_gpus.max(1);
        // The interface's decomposition is the paper's: `num_gpus` temporal
        // slices.
        let plan =
            DecompPlan::try_new(cfg.dims, [1, 1, 1, num_gpus]).map_err(QudaError::BadPartition)?;
        let mem = solver_memory_per_gpu(&plan, param.mode);
        let capacity = {
            let dev = quda_gpusim::memory::DeviceMemory::new(self.device.gpu.ram_bytes());
            dev.capacity()
        };
        if self.enforce_memory && mem > capacity {
            return Err(QudaError::OutOfDeviceMemory { required: mem, available: capacity });
        }
        let spec = GridSolveSpec {
            plan,
            wilson: WilsonParams { mass: param.mass, c_sw: param.c_sw },
            mode: param.mode,
            strategy: param.strategy,
            solver: param.solver,
            params: SolverParams { tol: param.tol, max_iter: param.max_iter, delta: param.delta },
        };
        Ok((spec, mem))
    }

    /// Independently verify one solution and fold in the performance
    /// model's view of the same run shape.
    fn build_stats(
        &self,
        cfg: &GaugeConfig,
        source: &HostSpinorField,
        x: &HostSpinorField,
        result: &quda_solvers::params::SolveResult,
        spec: &GridSolveSpec,
        mem: usize,
    ) -> InvertStats {
        let true_residual = verify_full_solution(cfg, &spec.wilson, x, source);
        // Performance model of this run shape on the simulated cluster.
        let mut perf_in = PerfInput::paper(spec.plan, spec.mode, spec.strategy);
        perf_in.gpu = self.device.gpu;
        perf_in.numa = self.device.numa;
        let report = evaluate(&perf_in);
        let iterations = result.iterations.max(1);
        let modeled_seconds = report.iteration_time_s * iterations as f64;
        InvertStats {
            converged: result.converged,
            iterations: result.iterations,
            matvecs: result.matvecs,
            reliable_updates: result.reliable_updates,
            solver_residual: result.final_residual,
            true_residual,
            effective_flops: result.total_flops(),
            modeled_seconds,
            modeled_gflops: report.sustained_gflops,
            memory_per_gpu: mem,
            recoveries: result.recoveries,
            comm_recoveries: result.comm_recoveries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quda_fields::gauge_gen::{random_spinor_field, weak_field};
    use quda_lattice::geometry::{Coord, LatticeDims};

    fn dims() -> LatticeDims {
        LatticeDims::new(4, 4, 2, 8)
    }

    fn ctx_with_gauge() -> Quda {
        let mut q = Quda::new(2).unwrap();
        q.load_gauge(weak_field(dims(), 0.15, 7)).unwrap();
        q
    }

    #[test]
    fn zero_gpus_is_an_error_not_a_panic() {
        assert!(matches!(Quda::new(0), Err(QudaError::BadPartition(_))));
        assert_eq!(Quda::new(1).unwrap().num_gpus(), 1);
    }

    #[test]
    fn invert_without_gauge_fails() {
        let mut q = Quda::new(1).unwrap();
        let b = HostSpinorField::zero(dims());
        let p = QudaInvertParam::paper_mode(PrecisionMode::Double, 1);
        assert!(matches!(q.invert(&b, &p), Err(QudaError::NoGauge)));
    }

    #[test]
    fn non_unitary_gauge_rejected() {
        let mut q = Quda::new(1).unwrap();
        let mut cfg = GaugeConfig::unit(dims());
        cfg.links[0].m[0][0].re = 5.0;
        assert_eq!(q.load_gauge(cfg), Err(QudaError::NotUnitary));
    }

    #[test]
    fn bad_partition_rejected() {
        let mut q = ctx_with_gauge();
        let b = random_spinor_field(dims(), 1);
        let mut p = QudaInvertParam::paper_mode(PrecisionMode::Double, 2);
        p.num_gpus = 3; // 8 % 3 != 0
        assert!(matches!(q.invert(&b, &p), Err(QudaError::BadPartition(_))));
        p.num_gpus = 4; // local T = 2: fine
        p.tol = 1e-8;
        p.mass = 0.3;
        assert!(q.invert(&b, &p).is_ok());
    }

    #[test]
    fn dims_mismatch_rejected() {
        let mut q = ctx_with_gauge();
        let b = HostSpinorField::zero(LatticeDims::new(4, 4, 4, 8));
        let p = QudaInvertParam::paper_mode(PrecisionMode::Double, 2);
        assert!(matches!(q.invert(&b, &p), Err(QudaError::DimsMismatch)));
    }

    #[test]
    fn point_source_inversion_verifies() {
        let mut q = ctx_with_gauge();
        let b = HostSpinorField::point_source(dims(), Coord::new(1, 0, 1, 2), 1, 2);
        let mut p = QudaInvertParam::paper_mode(PrecisionMode::Double, 2);
        p.mass = 0.3;
        p.tol = 1e-10;
        let (x, stats) = q.invert(&b, &p).unwrap();
        assert!(stats.converged);
        assert!(stats.true_residual < 1e-9, "true residual {}", stats.true_residual);
        assert!(x.norm_sqr() > 0.0);
        assert!(stats.modeled_gflops > 0.0);
        assert!(stats.modeled_seconds > 0.0);
        assert!(stats.memory_per_gpu > 0);
    }

    #[test]
    fn mixed_mode_through_interface() {
        let mut q = ctx_with_gauge();
        let b = random_spinor_field(dims(), 3);
        let mut p = QudaInvertParam::paper_mode(PrecisionMode::SingleHalf, 2);
        p.mass = 0.3;
        p.tol = 1e-6;
        let (_, stats) = q.invert(&b, &p).unwrap();
        assert!(stats.converged, "residual {}", stats.true_residual);
        assert!(stats.true_residual < 1e-5);
    }

    #[test]
    fn memory_enforcement_rejects_oversized_problems() {
        // A full 32³×256 mixed-precision problem on one GTX 285 must OOM.
        let q = Quda::new(1).unwrap().with_memory_enforcement(true);
        assert!(q.enforce_memory);
        // Don't actually allocate the big lattice: just check the gate.
        let big = LatticeDims::spatial_cube(32, 256);
        let need =
            solver_memory_per_gpu(&DecompPlan::new(big, [1, 1, 1, 1]), PrecisionMode::SingleHalf);
        assert!(need > quda_gpusim::cards::gtx285().ram_bytes());
    }

    #[test]
    fn plaquette_reported() {
        let q = ctx_with_gauge();
        let p = q.plaquette().unwrap();
        assert!(p > 0.9 && p <= 1.0);
    }

    #[test]
    fn free_gauge_clears_state() {
        let mut q = ctx_with_gauge();
        let id = q.current_gauge().unwrap();
        q.free_gauge(id).unwrap();
        assert!(matches!(q.plaquette(), Err(QudaError::NoGauge)));
        assert_eq!(q.free_gauge(id), Err(QudaError::UnknownGauge(id)));
        assert_eq!(q.select_gauge(id), Err(QudaError::UnknownGauge(id)));
    }

    #[test]
    fn gauge_handles_select_and_outlive_free() {
        let mut q = Quda::new(2).unwrap();
        let a = q.load_gauge(weak_field(dims(), 0.15, 7)).unwrap();
        let b = q.load_gauge(weak_field(dims(), 0.05, 8)).unwrap();
        assert_ne!(a, b);
        // Loading selects the newest; both stay registered.
        assert_eq!(q.current_gauge(), Some(b));
        let plaq_b = q.plaquette().unwrap();
        q.select_gauge(a).unwrap();
        let plaq_a = q.plaquette().unwrap();
        assert_ne!(plaq_a, plaq_b);
        // A handed-out Arc survives the context freeing its reference.
        let held = q.gauge_ref(a).unwrap();
        q.free_gauge(a).unwrap();
        assert!(held.average_plaquette() > 0.0);
        assert!(matches!(q.gauge_ref(a), Err(QudaError::UnknownGauge(_))));
        // Freeing the selected gauge cleared the selection.
        assert!(matches!(q.plaquette(), Err(QudaError::NoGauge)));
        q.select_gauge(b).unwrap();
        assert_eq!(q.plaquette().unwrap(), plaq_b);
    }

    #[test]
    fn adopt_gauge_skips_validation_and_shares() {
        let cfg = std::sync::Arc::new(weak_field(dims(), 0.15, 7));
        let mut q = Quda::new(2).unwrap();
        let id = q.adopt_gauge(std::sync::Arc::clone(&cfg));
        assert_eq!(q.current_gauge(), Some(id));
        // No copy was made: the registry holds the same allocation.
        assert!(std::sync::Arc::ptr_eq(&q.gauge_ref(id).unwrap(), &cfg));
    }

    #[test]
    fn invert_multi_trivial_batches() {
        let mut q = ctx_with_gauge();
        let p = QudaInvertParam::paper_mode(PrecisionMode::Double, 2);
        assert!(q.invert_multi(&[], &p).unwrap().is_empty());
        let too_many: Vec<HostSpinorField> =
            (0..quda_dirac::MAX_RHS_BATCH + 1).map(|_| HostSpinorField::zero(dims())).collect();
        assert!(matches!(
            q.invert_multi(&too_many, &p),
            Err(QudaError::BatchTooLarge { requested: 9, max: 8 })
        ));
    }

    #[test]
    fn invert_multi_matches_single_invert() {
        let mut q = ctx_with_gauge();
        let p = QudaInvertParam::paper_mode(PrecisionMode::Double, 2)
            .with_mass(0.3)
            .with_tol(1e-10)
            .with_num_rhs(2);
        let bs: Vec<HostSpinorField> =
            (0..2).map(|k| random_spinor_field(dims(), 30 + k)).collect();
        let batched = q.invert_multi(&bs, &p).unwrap();
        assert_eq!(batched.len(), 2);
        for ((x, rep), b) in batched.iter().zip(&bs) {
            let (x_solo, rep_solo) = q.invert(b, &p).unwrap();
            assert!(rep.converged);
            assert_eq!(rep.iterations, rep_solo.iterations);
            assert_eq!(x.max_site_dist(&x_solo), 0.0);
            // Direct inversions carry default queue telemetry.
            assert_eq!(rep.queue.batch_size, 0);
        }
    }

    #[test]
    fn batched_elastic_inversion_is_admitted() {
        // A death budget on a batch is an ordinary request: fault-free, it
        // completes bit-identically to the budget-0 batch, and every lane
        // reports its own (empty) recovery with checkpoints deposited.
        let mut q = ctx_with_gauge();
        let p =
            QudaInvertParam::paper_mode(PrecisionMode::Double, 2).with_mass(0.3).with_tol(1e-10);
        let bs: Vec<HostSpinorField> =
            (0..2).map(|k| random_spinor_field(dims(), 40 + k)).collect();
        let plain = q.invert_multi(&bs, &p).unwrap();
        let elastic = q.invert_multi(&bs, &p.with_max_rank_deaths(1)).unwrap();
        assert_eq!(elastic.len(), 2);
        for ((x, rep), (x_plain, rep_plain)) in elastic.iter().zip(&plain) {
            assert!(rep.converged);
            assert_eq!(rep.iterations, rep_plain.iterations);
            assert_eq!(x.max_site_dist(x_plain), 0.0);
            assert_eq!(rep.recovery.deaths_survived(), 0);
            assert!(rep.recovery.checkpoints_taken > 0);
            assert_eq!(rep_plain.recovery.checkpoints_taken, 0);
        }
    }

    #[test]
    fn cgnr_solver_through_interface() {
        let mut q = ctx_with_gauge();
        let b = random_spinor_field(dims(), 9);
        let mut p = QudaInvertParam::paper_mode(PrecisionMode::Double, 2);
        p.solver = SolverKind::Cgnr;
        p.mass = 0.3;
        p.tol = 1e-9;
        let (_, stats) = q.invert(&b, &p).unwrap();
        assert!(stats.converged);
        assert!(stats.true_residual < 1e-7);
    }
}
