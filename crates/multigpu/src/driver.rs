//! Multi-rank solve driver: spawns one thread per "GPU", wires up the
//! communicator world(s), runs the even-odd preconditioned solve (source
//! preparation → Krylov solve on the odd parity → even reconstruction), and
//! gathers the global solution — the full path a Chroma propagator
//! calculation drives through the parallel library.

use crate::rank_op::{CommStrategy, ParallelWilsonCloverOp};
use crate::reshard::{CheckpointStore, GlobalCheckpoint};
use crate::slice::{gather_spinor, slice_spinor};
use quda_comm::{CommConfig, CommError, CommStats, Communicator, FaultPlan, LockstepConfig};
use quda_dirac::WilsonParams;
use quda_fields::host::{GaugeConfig, HostSpinorField};
use quda_fields::precision::{Double, Half, Precision, Quarter, Single};
use quda_fields::SpinorFieldCb;
use quda_lattice::geometry::Parity;
use quda_lattice::partition::DecompPlan;
use quda_obs::{Phase, Recorder, Trace, TraceConfig};
use quda_solvers::blas;
use quda_solvers::checkpoint::{CheckpointSink, SolverCheckpoint};
use quda_solvers::operator::LinearOperator;
use quda_solvers::params::{SolveResult, SolverParams};
use std::sync::Arc;
use std::time::Duration;

/// The solver precision modes measured in the paper (Section VII-A).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum PrecisionMode {
    /// Uniform double.
    Double,
    /// Uniform single.
    Single,
    /// Uniform half (not a production mode; useful for ablations).
    Half,
    /// Mixed single-half (reliable updates).
    SingleHalf,
    /// Mixed double-half.
    DoubleHalf,
    /// Mixed double-single.
    DoubleSingle,
    /// Mixed double-quarter (8-bit sloppy iterations — the Section V-C3
    /// "(or even 8-bit)" extension).
    DoubleQuarter,
}

impl PrecisionMode {
    /// The paper's name for the mode.
    pub fn name(self) -> &'static str {
        match self {
            PrecisionMode::Double => "double",
            PrecisionMode::Single => "single",
            PrecisionMode::Half => "half",
            PrecisionMode::SingleHalf => "single-half",
            PrecisionMode::DoubleHalf => "double-half",
            PrecisionMode::DoubleSingle => "double-single",
            PrecisionMode::DoubleQuarter => "double-quarter",
        }
    }

    /// Whether this is a mixed-precision mode.
    pub fn is_mixed(self) -> bool {
        matches!(
            self,
            PrecisionMode::SingleHalf
                | PrecisionMode::DoubleHalf
                | PrecisionMode::DoubleSingle
                | PrecisionMode::DoubleQuarter
        )
    }
}

/// Which Krylov solver to run (Section V: "QUDA provides highly optimized
/// CG and BiCGstab linear solvers").
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SolverKind {
    /// BiCGstab — the production solver.
    BiCgStab,
    /// CG on the normal equations (uniform-precision modes only).
    Cgnr,
}

/// Fault-injection and timeout policy for a parallel solve: a deterministic
/// [`FaultPlan`] applied to every communicator in the world plus the
/// timeout/retry configuration (DESIGN.md §7). The default injects nothing
/// and uses the production timeouts.
#[derive(Clone, Debug)]
pub struct ChaosSpec {
    /// Deterministic fault plan, or `None` for a fault-free world.
    pub plan: Option<FaultPlan>,
    /// Timeout and retry policy for every communicator.
    pub comm: CommConfig,
    /// Lockstep-sanitizer policy, applied to every communicator of the
    /// world (`None` = off). The default honours the `QUDA_LOCKSTEP`
    /// environment variable, so a whole test suite can be run under the
    /// sanitizer without touching call sites.
    pub lockstep: Option<LockstepConfig>,
}

impl Default for ChaosSpec {
    fn default() -> Self {
        ChaosSpec { plan: None, comm: CommConfig::default(), lockstep: LockstepConfig::from_env() }
    }
}

/// Everything needed to run one parallel solve over a 4-d process grid
/// ([`DecompPlan`]); the paper's temporal slicing is the `1×1×1×N` plan.
#[derive(Copy, Clone, Debug)]
pub struct GridSolveSpec {
    /// Process-grid decomposition (global dims + grid extents).
    pub plan: DecompPlan,
    /// Operator parameters.
    pub wilson: WilsonParams,
    /// Precision mode.
    pub mode: PrecisionMode,
    /// Face-exchange strategy.
    pub strategy: CommStrategy,
    /// Krylov method.
    pub solver: SolverKind,
    /// Solver controls.
    pub params: SolverParams,
}

/// Aggregate communication-health record for a completed parallel solve:
/// the world-wide counter sums plus the per-rank [`CommStats`] they were
/// summed from (a mixed-precision solve merges each rank's high- and
/// low-precision communicators into one record).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CommHealth {
    /// Timeout ticks spent waiting or backing off in `recv`, world-wide.
    pub retries: u64,
    /// Messages recovered from the link-level pristine store.
    pub recovered: u64,
    /// Stale duplicate frames discarded by sequence-number dedup.
    pub duplicates_dropped: u64,
    /// Frames whose checksum or length check failed on arrival.
    pub checksum_failures: u64,
    /// The per-rank records the totals were summed from (index = rank).
    pub per_rank: Vec<CommStats>,
}

impl CommHealth {
    /// Sum a set of per-rank records into a world-wide health summary.
    pub fn from_per_rank(per_rank: Vec<CommStats>) -> CommHealth {
        // Host-side bookkeeping over already-joined worker results, not a
        // lattice reduction: every rank's stats are in hand here.
        // quda-lint: allow(global-reduce)
        let total = per_rank.iter().copied().fold(CommStats::default(), CommStats::merged);
        CommHealth {
            retries: total.retries,
            recovered: total.recovered,
            duplicates_dropped: total.duplicates_dropped,
            checksum_failures: total.checksum_failures,
            per_rank,
        }
    }

    /// `true` when the wire was clean: no recoveries, duplicates, or
    /// checksum failures anywhere in the world. Retries are *not* counted
    /// against cleanliness — a rank blocking for a slow peer ticks the
    /// retry counter without anything being wrong on the wire.
    pub fn is_clean(&self) -> bool {
        self.recovered == 0 && self.duplicates_dropped == 0 && self.checksum_failures == 0
    }
}

/// The full outcome of a traced parallel solve: the solution, the solver
/// statistics, the recorded phase [`Trace`], and the communication-health
/// summary. Produced by [`solve_full_grid_elastic`].
#[derive(Clone, Debug)]
pub struct TracedSolve {
    /// Global solution (both parities).
    pub solution: HostSpinorField,
    /// Rank-identical solver statistics (world-summed `comm_recoveries`).
    pub result: SolveResult,
    /// The recorded per-rank phase trace (empty under [`TraceConfig::Off`]).
    pub trace: Trace,
    /// World-wide communication-health record.
    pub comm: CommHealth,
}

/// Run the full even-odd solve `M x = b` over a 4-d process grid with the
/// default options: no injected faults, fail-fast, tracing off. Returns the
/// global solution (both parities) and the (rank-identical) solve
/// statistics.
///
/// Fails with the root-cause communication error when a rank dies, times
/// out, or exhausts its retries — the whole world is torn down rather than
/// left hanging.
pub fn solve_full_grid(
    cfg: &GaugeConfig,
    b: &HostSpinorField,
    spec: &GridSolveSpec,
) -> Result<(HostSpinorField, SolveResult), CommError> {
    solve_full_grid_elastic(cfg, b, spec, &ElasticPolicy::default(), TraceConfig::Off)
        .map(|es| (es.solve.solution, es.solve.result))
}

/// How far the elastic driver is allowed to go to keep a solve alive
/// (DESIGN.md §12).
#[derive(Clone, Debug, Default)]
pub struct ElasticPolicy {
    /// Rank deaths the solve may survive before giving up and surfacing
    /// the error. `0` (the default) *is* the fail-fast driver: no
    /// checkpoints are taken and the first death aborts the world.
    pub max_rank_deaths: usize,
    /// Fault-injection and timeout policy applied to every world
    /// incarnation. Kill/panic schedules fire in the incarnation whose
    /// generation they are scoped to (see [`FaultPlan::with_generation`]).
    pub chaos: ChaosSpec,
}

/// One survived rank death.
#[derive(Clone, Debug)]
pub struct RecoveryEvent {
    /// The rank whose death aborted the previous incarnation.
    pub dead_rank: usize,
    /// Human-readable root cause (`RankDead` or the panic message).
    pub cause: String,
    /// Checkpoint epoch the replacement world resumed this lane from, or
    /// `None` if no consistent checkpoint of the lane could be assembled
    /// and it restarted from scratch.
    pub resumed_epoch: Option<u64>,
    /// Wall-clock time to assemble and validate the resume snapshot.
    pub latency: Duration,
}

/// Recovery telemetry of one lane (right-hand side) of an elastic solve.
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// Every survived death, in order.
    pub events: Vec<RecoveryEvent>,
    /// The lane's checkpoints deposited across all ranks and incarnations.
    pub checkpoints_taken: u64,
    /// Serialized bytes of those checkpoints.
    pub checkpoint_bytes: u64,
}

impl RecoveryReport {
    /// Number of rank deaths the solve survived.
    pub fn deaths_survived(&self) -> usize {
        self.events.len()
    }
}

/// The outcome of an elastic solve: the traced solve plus its recovery
/// telemetry.
#[derive(Clone, Debug)]
pub struct ElasticSolve {
    /// The completed solve (solution, stats, trace, comm health).
    pub solve: TracedSolve,
    /// What it took to get there.
    pub recovery: RecoveryReport,
}

/// [`solve_full_grid`] under an explicit fault-injection, timeout and
/// recovery policy, with phase tracing: every rank's communicator, ghost
/// exchange, dslash, and solver loop record spans into a world-shared
/// [`Recorder`], returned as [`TracedSolve::trace`] (per-dimension wire and
/// exterior phases `wire_x` ... `exterior_z` for multi-dimensional plans)
/// alongside the per-rank communication-health summary.
///
/// This is [`solve_full_grid_multi`] over the one-element slice of `b`;
/// see there for how a solve survives rank death.
pub fn solve_full_grid_elastic(
    cfg: &GaugeConfig,
    b: &HostSpinorField,
    spec: &GridSolveSpec,
    policy: &ElasticPolicy,
    trace: TraceConfig,
) -> Result<ElasticSolve, CommError> {
    let mut multi = solve_full_grid_multi(cfg, std::slice::from_ref(b), spec, policy, trace)?;
    // One source in, one lane out; the fallbacks only keep this path
    // panic-free.
    let solution = multi.solutions.pop().unwrap_or_else(|| HostSpinorField::zero(cfg.dims));
    let result = multi.results.pop().unwrap_or_default();
    let recovery = multi.recovery.pop().unwrap_or_default();
    let solve = TracedSolve { solution, result, trace: multi.trace, comm: multi.comm };
    Ok(ElasticSolve { solve, recovery })
}

/// The world loop: run the solve on a fresh world incarnation, and while
/// the death budget allows, replace a world that lost a rank and resume
/// every lane from its own newest globally consistent checkpoint.
fn run_world<H: Precision, L: Precision>(
    cfg: &GaugeConfig,
    bs: &[HostSpinorField],
    spec: &GridSolveSpec,
    mixed: bool,
    policy: &ElasticPolicy,
    trace: TraceConfig,
) -> Result<MultiSolve, CommError> {
    let plan = spec.plan;
    // One recorder across every incarnation: recovery and checkpoint spans
    // of all generations land in the same per-rank buffers.
    let recorder = Recorder::new(plan.n_ranks(), trace);
    let store = Arc::new(CheckpointStore::new(plan.n_ranks(), bs.len()));
    let mut recovery = vec![RecoveryReport::default(); bs.len()];
    let mut resume: Vec<Option<GlobalCheckpoint>> = vec![None; bs.len()];
    let mut generation: u32 = 0;
    loop {
        // Kills are generation-scoped: a schedule consumed by the previous
        // incarnation must not re-fire in the replacement world.
        let chaos = ChaosSpec {
            // Cold elastic-recovery path: one clone per world incarnation
            // (i.e. per rank death), never per solver iteration, and the
            // schedule must be re-stamped with the new generation.
            // quda-lint: allow(hot-alloc)
            plan: policy.chaos.plan.clone().map(|p| p.with_generation(generation)),
            comm: policy.chaos.comm,
            lockstep: policy.chaos.lockstep,
        };
        // A zero death budget disables the sinks entirely: no deposits, no
        // resume state — the fail-fast path pays nothing for elasticity.
        let elastic =
            if policy.max_rank_deaths == 0 { None } else { Some((&store, resume.as_slice())) };
        let attempt = run_attempt::<H, L>(cfg, bs, spec, mixed, &chaos, &recorder, elastic);
        match attempt {
            Ok((solutions, results, per_rank)) => {
                for (lane, report) in recovery.iter_mut().enumerate() {
                    let st = store.stats(lane);
                    report.checkpoints_taken = st.checkpoints_taken;
                    report.checkpoint_bytes = st.bytes_written;
                }
                return Ok(MultiSolve {
                    solutions,
                    results,
                    trace: recorder.finish(),
                    comm: CommHealth::from_per_rank(per_rank),
                    recovery,
                });
            }
            Err(e) => {
                let dead_rank = match &e {
                    CommError::RankDead { rank } => *rank,
                    CommError::RankPanicked { rank, .. } => *rank,
                    // Anything that is not a rank death (timeout storm,
                    // lockstep divergence, ...) is not survivable.
                    _ => return Err(e),
                };
                if generation as usize >= policy.max_rank_deaths {
                    return Err(e);
                }
                resume = roll_back::<H>(&store, &plan, dead_rank, &e, &mut recovery);
                generation += 1;
            }
        }
    }
}

/// Roll every lane back to its own newest globally consistent checkpoint
/// after `dead_rank` died with `cause`, and record the recovery in each
/// lane's report. A lane with no consistent checkpoint (death before its
/// first deposit landed everywhere, or a corrupt store) restarts from
/// scratch on its own; the other lanes still resume. Cold: runs once per
/// rank death, bounded by the death budget.
fn roll_back<H: Precision>(
    store: &CheckpointStore,
    plan: &DecompPlan,
    dead_rank: usize,
    cause: &CommError,
    recovery: &mut [RecoveryReport],
) -> Vec<Option<GlobalCheckpoint>> {
    let cause = cause.to_string();
    let take = |(lane, report): (usize, &mut RecoveryReport)| {
        let t0 = quda_obs::clock::monotonic();
        let resume = store.take_global::<H>(plan, lane).ok();
        report.events.push(RecoveryEvent {
            dead_rank,
            cause: cause.clone(),
            resumed_epoch: resume.as_ref().map(|g| g.epoch),
            latency: quda_obs::clock::monotonic().saturating_sub(t0),
        });
        resume
    };
    recovery.iter_mut().enumerate().map(take).collect()
}

/// Recover a readable message from a rank thread's panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Spawn one world incarnation — a thread per rank, each holding its
/// endpoint of a high- and a low-precision communicator world wired to the
/// shared recorder and the chaos policy — run `body` on every rank, and
/// join. Returns the rank bodies' outputs in rank order, or the root cause
/// of the first failure.
fn run_ranks<T: Send>(
    n_ranks: usize,
    chaos: &ChaosSpec,
    recorder: &Recorder,
    body: impl Fn(usize, Communicator, Communicator) -> Result<T, CommError> + Sync,
) -> Result<Vec<T>, CommError> {
    let world_hi = quda_comm::comm_world_with(n_ranks, chaos.comm, chaos.plan.clone());
    let world_lo = quda_comm::comm_world_with(n_ranks, chaos.comm, chaos.plan.clone());
    let mut results: Vec<Result<T, CommError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = world_hi
            .into_iter()
            .zip(world_lo)
            .enumerate()
            .map(|(rank, (mut comm_hi, mut comm_lo))| {
                // Both precision worlds of a rank feed the same per-rank buffer.
                let tracer = recorder.tracer(rank);
                comm_hi.set_tracer(tracer.clone());
                comm_lo.set_tracer(tracer);
                if let Some(ls) = chaos.lockstep {
                    comm_hi.enable_lockstep(ls);
                    comm_lo.enable_lockstep(ls);
                }
                let body = &body;
                scope.spawn(move || body(rank, comm_hi, comm_lo))
            })
            .collect();
        // Handles are in rank order. A panicked rank thread (its
        // communicator is marked dead by `Drop`, so peers unblock) is
        // reported as `RankPanicked` carrying the panic message — distinct
        // from a rank the fault plan killed, which reports its own
        // `RankDead`.
        handles
            .into_iter()
            .enumerate()
            .map(|(rank, h)| {
                h.join().unwrap_or_else(|payload| {
                    Err(CommError::RankPanicked { rank, message: panic_message(payload) })
                })
            })
            .collect()
    });
    // Prefer the root cause over cascade effects: a rank whose own thread
    // panicked, or that reports its *own* death (fault-killed), is the
    // origin; every other rank merely observed a neighbour going silent
    // afterwards. Taking the error out by index moves it — no clone in the
    // scan, and rank order of the surviving results is irrelevant past here
    // because a panic aborts the attempt.
    if let Some(i) = results.iter().position(|r| matches!(r, Err(CommError::RankPanicked { .. }))) {
        results.swap_remove(i)?;
    }
    for (rank, r) in results.iter().enumerate() {
        if let Err(CommError::RankDead { rank: dead }) = r {
            if *dead == rank {
                return Err(CommError::RankDead { rank: *dead });
            }
        }
    }
    results.into_iter().collect()
}

/// Run the solve on one world incarnation and gather each lane's global
/// solution. `elastic` wires every lane of each rank to the shared
/// [`CheckpointStore`] and, after a recovery, hands it its re-sharded slice
/// of that lane's resume snapshot; `None` is the fail-fast path with
/// checkpointing disabled.
#[allow(clippy::type_complexity)]
fn run_attempt<H: Precision, L: Precision>(
    cfg: &GaugeConfig,
    bs: &[HostSpinorField],
    spec: &GridSolveSpec,
    mixed: bool,
    chaos: &ChaosSpec,
    recorder: &Recorder,
    elastic: Option<(&Arc<CheckpointStore>, &[Option<GlobalCheckpoint>])>,
) -> Result<(Vec<HostSpinorField>, Vec<SolveResult>, Vec<CommStats>), CommError> {
    let plan = spec.plan;
    let ranks = run_ranks(plan.n_ranks(), chaos, recorder, |rank, comm_hi, comm_lo| {
        let sinks = match elastic {
            None => Vec::new(),
            Some((store, resume)) => resume
                .iter()
                .enumerate()
                .map(|(lane, g)| RankSink {
                    store: Arc::clone(store),
                    rank,
                    lane,
                    resume: g.as_ref().map(|g| g.reshard::<H>(&plan, rank)),
                })
                .collect(),
        };
        run_rank::<H, L>(cfg, bs, spec, rank, comm_hi, comm_lo, mixed, sinks)
    })?;
    let mut by_lane: Vec<Vec<HostSpinorField>> =
        (0..bs.len()).map(|_| Vec::with_capacity(plan.n_ranks())).collect();
    let mut results: Option<Vec<SolveResult>> = None;
    let mut comm_recoveries = 0;
    let mut per_rank = Vec::with_capacity(ranks.len());
    for (fields, res, comm) in ranks {
        comm_recoveries += comm.recovered;
        if results.is_none() {
            results = Some(res);
        }
        for (k, f) in fields.into_iter().enumerate() {
            by_lane[k].push(f);
        }
        per_rank.push(comm);
    }
    // `comm_world_with` asserts `n_ranks >= 1`, so `results` is always set;
    // the default only keeps this path panic-free. Wire recoveries belong
    // to the shared exchange, not to one lane: every lane carries the
    // world-wide total.
    let mut results = results.unwrap_or_default();
    for res in &mut results {
        res.comm_recoveries = comm_recoveries;
    }
    let solutions = by_lane.iter().map(|locals| gather_spinor(locals, &plan)).collect();
    Ok((solutions, results, per_rank))
}

/// One rank's checkpoint plumbing for one lane: snapshots go to the
/// world-shared store, and the resume slice (installed by the supervisor
/// after a recovery) is handed to the solver exactly once.
struct RankSink {
    store: Arc<CheckpointStore>,
    rank: usize,
    lane: usize,
    resume: Option<SolverCheckpoint>,
}

impl CheckpointSink for RankSink {
    fn save(&mut self, ckpt: SolverCheckpoint) {
        self.store.deposit(self.rank, self.lane, ckpt.counters.epoch, ckpt.to_bytes());
    }

    fn resume(&mut self) -> Option<SolverCheckpoint> {
        self.resume.take()
    }
}

/// One rank's share of the solve of every source in `bs`: one batched
/// even-odd preparation, one blocked Krylov solve (a single source is the
/// batch of one), one batched reconstruction. `sinks` holds one sink per
/// source on the elastic path and is empty on the fail-fast path.
#[allow(clippy::too_many_arguments)]
fn run_rank<H: Precision, L: Precision>(
    cfg: &GaugeConfig,
    bs: &[HostSpinorField],
    spec: &GridSolveSpec,
    rank: usize,
    comm_hi: Communicator,
    comm_lo: Communicator,
    mixed: bool,
    mut sinks: Vec<RankSink>,
) -> Result<(Vec<HostSpinorField>, Vec<SolveResult>, CommStats), CommError> {
    let plan = spec.plan;
    let mut op_hi =
        ParallelWilsonCloverOp::<H>::new(cfg, plan, rank, comm_hi, spec.wilson, spec.strategy)?;
    let n = bs.len();

    // Even-odd preparation: upload both parities of every source and form
    // b̂_o = b_o + ½ D_oe T_ee⁻¹ b_e for the whole batch in one call.
    let all = vec![true; n];
    let locals: Vec<_> = bs.iter().map(|b| slice_spinor(b, &plan, rank)).collect();
    let upload = |parity| -> Vec<SpinorFieldCb<H>> {
        let field = |local| {
            let mut f = op_hi.alloc();
            f.upload(local, parity);
            f
        };
        locals.iter().map(field).collect()
    };
    let (b_evens, b_odds) = (upload(Parity::Even), upload(Parity::Odd));
    let mut bhats: Vec<_> = (0..n).map(|_| op_hi.alloc()).collect();
    op_hi.prepare_source(&mut bhats, &b_evens, &b_odds, &all)?;
    let mut x_odds: Vec<_> = (0..n).map(|_| op_hi.alloc()).collect();
    x_odds.iter_mut().for_each(blas::zero);
    let mut sinks: Vec<&mut dyn CheckpointSink> =
        sinks.iter_mut().map(|s| s as &mut dyn CheckpointSink).collect();

    // Solve M̂ x_o = b̂_o for the whole batch in one blocked Krylov solve,
    // under a `Batch` span so traces show the fused region.
    let tracer = op_hi.tracer();
    let mut lo_stats = CommStats::default();
    let results = {
        let _batch = tracer.span(Phase::Batch);
        if mixed {
            assert_eq!(
                spec.solver,
                SolverKind::BiCgStab,
                "mixed-precision modes use the reliably updated BiCGstab solver"
            );
            let mut op_lo = ParallelWilsonCloverOp::<L>::new(
                cfg,
                plan,
                rank,
                comm_lo,
                spec.wilson,
                spec.strategy,
            )?;
            let res = quda_solvers::mixed::bicgstab_reliable(
                &mut op_hi,
                &mut op_lo,
                &mut x_odds,
                &bhats,
                &spec.params,
                &mut sinks,
            );
            if let Some(e) = op_lo.take_comm_fault() {
                return Err(e);
            }
            lo_stats = op_lo.comm_stats();
            res
        } else {
            let (op, params) = (&mut op_hi, &spec.params);
            match spec.solver {
                SolverKind::BiCgStab => {
                    quda_solvers::bicgstab::bicgstab(op, &mut x_odds, &bhats, params, &mut sinks)
                }
                SolverKind::Cgnr => {
                    quda_solvers::cg::cgnr(op, &mut x_odds, &bhats, params, &mut sinks)
                }
            }
        }
    };
    // A solver abort caused by a communication failure is surfaced as the
    // original typed error, not as a numeric-corruption abort.
    if let Some(e) = op_hi.take_comm_fault() {
        return Err(e);
    }

    // Even reconstruction x_e = T_ee⁻¹ (b_e + ½ D_eo x_o), one call for the
    // whole batch.
    let mut x_evens: Vec<_> = (0..n).map(|_| op_hi.alloc()).collect();
    op_hi.reconstruct_even(&mut x_evens, &b_evens, &mut x_odds, &all)?;
    let download = |(x_even, x_odd): (&SpinorFieldCb<H>, &SpinorFieldCb<H>)| {
        let mut x_host = HostSpinorField::zero(plan.local_dims());
        x_even.download(&mut x_host, Parity::Even);
        x_odd.download(&mut x_host, Parity::Odd);
        x_host
    };
    let x_hosts = x_evens.iter().zip(&x_odds).map(download).collect();
    let rank_stats = op_hi.comm_stats().merged(lo_stats);
    Ok((x_hosts, results, rank_stats))
}

/// The full outcome of a batched multi-RHS parallel solve: per-RHS global
/// solutions, solver statistics and recovery telemetry, plus the shared
/// phase trace and communication-health record of the batch.
#[derive(Clone, Debug)]
pub struct MultiSolve {
    /// Global solutions (both parities), in RHS order.
    pub solutions: Vec<HostSpinorField>,
    /// Per-RHS solver statistics. `comm_recoveries` carries the batch's
    /// world-wide total on every entry — wire recoveries belong to the
    /// shared exchange, not to one RHS.
    pub results: Vec<SolveResult>,
    /// The recorded per-rank phase trace (empty under [`TraceConfig::Off`]).
    pub trace: Trace,
    /// World-wide communication-health record.
    pub comm: CommHealth,
    /// Per-RHS recovery telemetry: every lane lists every survived death,
    /// with the epoch *that lane* resumed from, and its own checkpoint
    /// counts.
    pub recovery: Vec<RecoveryReport>,
}

/// Run a batched multi-RHS even-odd solve over a 4-d process grid under an
/// explicit fault-injection, timeout and recovery policy — the one world
/// loop every driver entry point runs (a single source is the batch of
/// one).
///
/// Every system shares the gauge field, operator, and solver controls; the
/// Krylov sweeps are fused through the blocked solvers so the gauge links
/// are read once per sweep — and one face message per direction is sent —
/// for the whole block. Each returned solution and iteration count is
/// **bit-identical** to what [`solve_full_grid`] produces for that source
/// alone (the batched-equivalence suite enforces this).
///
/// The solve *survives rank death*: every rank deposits each lane's
/// checkpoints into a world-shared store keyed by rank and lane, and when a
/// rank dies (or its thread panics) mid-solve the supervisor tears the world
/// down, assembles each lane's newest globally consistent checkpoint,
/// re-shards it onto a fresh world, and resumes mid-Krylov — up to
/// [`ElasticPolicy::max_rank_deaths`] times. With a budget of `0` the
/// checkpoint sinks are disabled (zero cost, no deposits) and the first
/// death fails the solve fast.
pub fn solve_full_grid_multi(
    cfg: &GaugeConfig,
    bs: &[HostSpinorField],
    spec: &GridSolveSpec,
    policy: &ElasticPolicy,
    trace: TraceConfig,
) -> Result<MultiSolve, CommError> {
    assert!(
        bs.len() <= quda_dirac::MAX_RHS_BATCH,
        "batch of {} right-hand sides exceeds MAX_RHS_BATCH = {}",
        bs.len(),
        quda_dirac::MAX_RHS_BATCH
    );
    let (p, t) = (policy, trace);
    match spec.mode {
        PrecisionMode::Double => run_world::<Double, Double>(cfg, bs, spec, false, p, t),
        PrecisionMode::Single => run_world::<Single, Single>(cfg, bs, spec, false, p, t),
        PrecisionMode::Half => run_world::<Half, Half>(cfg, bs, spec, false, p, t),
        PrecisionMode::SingleHalf => run_world::<Single, Half>(cfg, bs, spec, true, p, t),
        PrecisionMode::DoubleHalf => run_world::<Double, Half>(cfg, bs, spec, true, p, t),
        PrecisionMode::DoubleSingle => run_world::<Double, Single>(cfg, bs, spec, true, p, t),
        PrecisionMode::DoubleQuarter => run_world::<Double, Quarter>(cfg, bs, spec, true, p, t),
    }
}

/// Verify a solution of the *full* system on the host:
/// returns `‖b − M x‖ / ‖b‖` computed with the dense reference operator.
pub fn verify_full_solution(
    cfg: &GaugeConfig,
    wilson: &WilsonParams,
    x: &HostSpinorField,
    b: &HostSpinorField,
) -> f64 {
    use quda_fields::clover_build::clover_both_parities;
    use quda_math::clover::CloverSite;
    let d = cfg.dims;
    let both = clover_both_parities(cfg, wilson.c_sw);
    let mut by_lex = vec![CloverSite::identity(); d.volume()];
    for p in [Parity::Even, Parity::Odd] {
        for cb in 0..d.half_volume() {
            by_lex[d.lex_index(d.cb_coord(p, cb))] = both[p.as_usize()][cb];
        }
    }
    let mx = quda_dirac::reference::apply_wilson_clover_host(cfg, &by_lex, wilson, x);
    // Host-side check over the *full* lexicographic lattice — not a
    // rank-local partial, so there is no global reduce to route through.
    // quda-lint: allow(global-reduce)
    let mut r2 = 0.0;
    for i in 0..d.volume() {
        r2 += (b.data[i] - mx.data[i]).norm_sqr();
    }
    (r2 / b.norm_sqr()).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use quda_fields::gauge_gen::{random_spinor_field, weak_field};
    use quda_lattice::geometry::LatticeDims;

    /// The paper's decomposition: `ranks` temporal slices of 4×4×2×8.
    fn spec(ranks: usize, mode: PrecisionMode, strategy: CommStrategy, tol: f64) -> GridSolveSpec {
        let d = LatticeDims::new(4, 4, 2, 8);
        GridSolveSpec {
            plan: DecompPlan::new(d, [1, 1, 1, ranks]),
            wilson: WilsonParams { mass: 0.3, c_sw: 1.0 },
            mode,
            strategy,
            solver: SolverKind::BiCgStab,
            params: SolverParams { tol, max_iter: 2000, delta: 1e-1 },
        }
    }

    /// Fail-fast solve under an explicit chaos policy.
    fn solve_chaos(
        cfg: &GaugeConfig,
        b: &HostSpinorField,
        spec: &GridSolveSpec,
        chaos: &ChaosSpec,
    ) -> Result<(HostSpinorField, SolveResult), CommError> {
        let policy = ElasticPolicy { max_rank_deaths: 0, chaos: chaos.clone() };
        solve_full_grid_elastic(cfg, b, spec, &policy, TraceConfig::Off)
            .map(|es| (es.solve.solution, es.solve.result))
    }

    fn run(spec: &GridSolveSpec, seed: u64) -> (f64, SolveResult) {
        let cfg = weak_field(spec.plan.global(), 0.15, seed);
        let b = random_spinor_field(spec.plan.global(), seed + 1);
        let (x, res) = solve_full_grid(&cfg, &b, spec).expect("solve");
        let rel = verify_full_solution(&cfg, &spec.wilson, &x, &b);
        (rel, res)
    }

    #[test]
    fn two_rank_double_solve_verifies_against_reference() {
        let (rel, res) = run(&spec(2, PrecisionMode::Double, CommStrategy::NoOverlap, 1e-10), 3);
        assert!(res.converged);
        assert!(rel < 1e-9, "full-system residual {rel}");
    }

    #[test]
    fn overlap_strategy_gives_same_answer() {
        let s1 = spec(2, PrecisionMode::Double, CommStrategy::NoOverlap, 1e-10);
        let s2 = spec(2, PrecisionMode::Double, CommStrategy::Overlap, 1e-10);
        let cfg = weak_field(s1.plan.global(), 0.15, 9);
        let b = random_spinor_field(s1.plan.global(), 10);
        let (x1, r1) = solve_full_grid(&cfg, &b, &s1).expect("solve");
        let (x2, r2) = solve_full_grid(&cfg, &b, &s2).expect("solve");
        // Identical numerics: same iteration count, bit-identical solutions
        // (deterministic reductions make this exact).
        assert_eq!(r1.iterations, r2.iterations);
        assert_eq!(x1.max_site_dist(&x2), 0.0);
    }

    #[test]
    fn four_rank_matches_one_rank() {
        let s1 = spec(1, PrecisionMode::Double, CommStrategy::NoOverlap, 1e-10);
        let s4 = spec(4, PrecisionMode::Double, CommStrategy::Overlap, 1e-10);
        let cfg = weak_field(s1.plan.global(), 0.15, 21);
        let b = random_spinor_field(s1.plan.global(), 22);
        let (x1, r1) = solve_full_grid(&cfg, &b, &s1).expect("solve");
        let (x4, r4) = solve_full_grid(&cfg, &b, &s4).expect("solve");
        assert!(r1.converged && r4.converged);
        let dist = x1.max_site_dist(&x4);
        assert!(dist < 1e-10, "1-rank vs 4-rank distance {dist}");
    }

    #[test]
    fn mixed_single_half_parallel_solve() {
        let (rel, res) = run(&spec(2, PrecisionMode::SingleHalf, CommStrategy::Overlap, 2e-6), 31);
        assert!(res.converged, "residual {rel}");
        assert!(rel < 1e-5, "full-system residual {rel}");
        assert!(res.reliable_updates > 0);
    }

    #[test]
    fn mixed_double_half_parallel_solve() {
        let (rel, res) =
            run(&spec(2, PrecisionMode::DoubleHalf, CommStrategy::NoOverlap, 1e-10), 41);
        assert!(res.converged, "residual {rel}");
        assert!(rel < 1e-9, "full-system residual {rel}");
    }

    #[test]
    fn batched_parallel_solve_bit_identical_to_sequential() {
        for mode in [PrecisionMode::Double, PrecisionMode::SingleHalf] {
            let tol = if mode == PrecisionMode::Double { 1e-10 } else { 2e-6 };
            let s = spec(2, mode, CommStrategy::NoOverlap, tol);
            let cfg = weak_field(s.plan.global(), 0.15, 51);
            let bs: Vec<HostSpinorField> =
                (0..3).map(|k| random_spinor_field(s.plan.global(), 60 + k)).collect();
            let multi =
                solve_full_grid_multi(&cfg, &bs, &s, &ElasticPolicy::default(), TraceConfig::Off)
                    .expect("batched solve");
            assert_eq!(multi.solutions.len(), 3);
            assert_eq!(multi.results.len(), 3);
            for (k, b) in bs.iter().enumerate() {
                let (x_solo, r_solo) = solve_full_grid(&cfg, b, &s).expect("solo solve");
                assert!(multi.results[k].converged, "mode {mode:?} rhs {k} did not converge");
                assert_eq!(
                    multi.results[k].iterations, r_solo.iterations,
                    "mode {mode:?} rhs {k} iteration count drifted"
                );
                assert_eq!(
                    multi.solutions[k].max_site_dist(&x_solo),
                    0.0,
                    "mode {mode:?} rhs {k} solution not bit-identical"
                );
            }
        }
    }

    #[test]
    fn batched_solve_records_batch_phase_span() {
        let s = spec(2, PrecisionMode::Double, CommStrategy::NoOverlap, 1e-10);
        let cfg = weak_field(s.plan.global(), 0.15, 71);
        let bs: Vec<HostSpinorField> =
            (0..2).map(|k| random_spinor_field(s.plan.global(), 80 + k)).collect();
        let multi =
            solve_full_grid_multi(&cfg, &bs, &s, &ElasticPolicy::default(), TraceConfig::Summary)
                .expect("batched solve");
        let breakdown = multi.trace.breakdown();
        let batch = breakdown.get(Phase::Batch).expect("no Batch span recorded");
        assert!(batch.count > 0, "no Batch span recorded");
    }

    #[test]
    fn killed_rank_aborts_world_with_rank_dead() {
        // A 4-rank world where rank 2 goes dead mid-exchange must terminate
        // with `RankDead` within the timeout — never hang (ISSUE acceptance).
        let s = spec(4, PrecisionMode::Double, CommStrategy::NoOverlap, 1e-10);
        let cfg = weak_field(s.plan.global(), 0.15, 5);
        let b = random_spinor_field(s.plan.global(), 6);
        let chaos = ChaosSpec {
            plan: Some(quda_comm::FaultPlan::new(77).kill_rank(2, 25)),
            comm: CommConfig {
                timeout: std::time::Duration::from_secs(2),
                ..CommConfig::default()
            },
            ..ChaosSpec::default()
        };
        let t0 = std::time::Instant::now();
        let err = solve_chaos(&cfg, &b, &s, &chaos).expect_err("a dead rank must abort the solve");
        assert_eq!(err, CommError::RankDead { rank: 2 });
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(30),
            "world took {:?} to notice the dead rank",
            t0.elapsed()
        );
    }

    #[test]
    fn skipped_collective_surfaces_as_located_divergence_not_hang() {
        // Rank 1 silently skips one of its allreduces mid-solve — the
        // classic rank-divergent-branch bug. Without the sanitizer every
        // later reduction pairs off-by-one and the solve either hangs or
        // converges to garbage; with it, the world tears down with the
        // divergent rank identified. Collective 4
        // (0-based) is the first iteration's fused (t·s, ‖t‖²) allreduce;
        // the (‖r‖², ρ) one follows with no face exchange in between, so the
        // skipping rank's next contribution lands in the peer's pending
        // collective and the fingerprints disagree there.
        let s = spec(2, PrecisionMode::Double, CommStrategy::NoOverlap, 1e-10);
        let cfg = weak_field(s.plan.global(), 0.15, 23);
        let b = random_spinor_field(s.plan.global(), 24);
        let chaos = ChaosSpec {
            plan: Some(quda_comm::FaultPlan::new(5).skip_collective(1, 4)),
            comm: CommConfig {
                timeout: std::time::Duration::from_secs(2),
                ..CommConfig::default()
            },
            lockstep: Some(LockstepConfig { check_every: 1 }),
        };
        let t0 = std::time::Instant::now();
        let err = solve_chaos(&cfg, &b, &s, &chaos)
            .expect_err("a skipped collective must abort the solve");
        match err {
            CommError::LockstepDivergence { rank, .. } => assert_eq!(rank, 1),
            other => panic!("expected LockstepDivergence, got {other:?}"),
        }
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(10),
            "divergence took {:?} to surface",
            t0.elapsed()
        );
    }

    #[test]
    fn lossy_world_converges_identically_to_fault_free() {
        // 1% message drop: link-level recovery replays pristine payloads, so
        // the solve is bit-identical to the fault-free one and the recovery
        // events are visible in the result (ISSUE acceptance).
        let s = spec(2, PrecisionMode::Double, CommStrategy::NoOverlap, 1e-10);
        let cfg = weak_field(s.plan.global(), 0.15, 13);
        let b = random_spinor_field(s.plan.global(), 14);
        let (x_clean, r_clean) = solve_full_grid(&cfg, &b, &s).expect("fault-free solve");
        let chaos = ChaosSpec {
            plan: Some(quda_comm::FaultPlan::new(99).drop(0.01)),
            ..ChaosSpec::default()
        };
        let (x_lossy, r_lossy) = solve_chaos(&cfg, &b, &s, &chaos).expect("lossy solve");
        assert!(r_lossy.converged);
        assert!(r_lossy.comm_recoveries > 0, "expected drops to be recovered");
        assert_eq!(r_clean.iterations, r_lossy.iterations);
        assert_eq!(r_clean.final_residual, r_lossy.final_residual);
        assert_eq!(x_clean.max_site_dist(&x_lossy), 0.0);
    }

    #[test]
    fn corrupting_world_converges_identically_to_fault_free() {
        // Bit-flips and truncations are caught by the frame checksum/length
        // check and replayed from the pristine store — still bit-identical.
        let s = spec(2, PrecisionMode::Double, CommStrategy::Overlap, 1e-10);
        let cfg = weak_field(s.plan.global(), 0.15, 17);
        let b = random_spinor_field(s.plan.global(), 18);
        let (x_clean, r_clean) = solve_full_grid(&cfg, &b, &s).expect("fault-free solve");
        let chaos = ChaosSpec {
            plan: Some(quda_comm::FaultPlan::new(7).bit_flip(0.01).truncate(0.005)),
            ..ChaosSpec::default()
        };
        let (x_lossy, r_lossy) = solve_chaos(&cfg, &b, &s, &chaos).expect("corrupted solve");
        assert!(r_lossy.converged);
        assert!(r_lossy.comm_recoveries > 0);
        assert_eq!(r_clean.iterations, r_lossy.iterations);
        assert_eq!(x_clean.max_site_dist(&x_lossy), 0.0);
    }

    /// Heavier soak: every message-level fault class at once, on a 4-rank
    /// mixed-precision solve. Run via
    /// `cargo test -p quda-multigpu --features chaos`.
    #[test]
    #[cfg(feature = "chaos")]
    fn chaos_soak_combined_faults_stay_bit_identical() {
        let s = spec(4, PrecisionMode::DoubleHalf, CommStrategy::Overlap, 1e-10);
        let cfg = weak_field(s.plan.global(), 0.15, 51);
        let b = random_spinor_field(s.plan.global(), 52);
        let (x_clean, r_clean) = solve_full_grid(&cfg, &b, &s).expect("fault-free solve");
        for seed in [1u64, 2, 3] {
            let chaos = ChaosSpec {
                plan: Some(
                    quda_comm::FaultPlan::new(seed)
                        .drop(0.02)
                        .bit_flip(0.02)
                        .truncate(0.01)
                        .duplicate(0.05)
                        .delay(0.05, std::time::Duration::from_millis(1)),
                ),
                ..ChaosSpec::default()
            };
            let (x, r) =
                solve_chaos(&cfg, &b, &s, &chaos).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(r.converged, "seed {seed}");
            assert!(r.comm_recoveries > 0, "seed {seed}: no faults actually landed");
            assert_eq!(r_clean.iterations, r.iterations, "seed {seed}");
            assert_eq!(x_clean.max_site_dist(&x), 0.0, "seed {seed}");
        }
    }

    #[test]
    fn panicked_rank_surfaces_typed_panic_error() {
        // A rank whose worker thread panics (injected bug, not a scheduled
        // death) must surface as `RankPanicked` carrying the panic message
        // — previously it was mislabelled as a plain `RankDead`.
        let s = spec(4, PrecisionMode::Double, CommStrategy::NoOverlap, 1e-10);
        let cfg = weak_field(s.plan.global(), 0.15, 5);
        let b = random_spinor_field(s.plan.global(), 6);
        let chaos = ChaosSpec {
            plan: Some(quda_comm::FaultPlan::new(3).panic_rank(1, 30)),
            comm: CommConfig {
                timeout: std::time::Duration::from_secs(2),
                ..CommConfig::default()
            },
            ..ChaosSpec::default()
        };
        let err =
            solve_chaos(&cfg, &b, &s, &chaos).expect_err("a panicked rank must abort the solve");
        match err {
            CommError::RankPanicked { rank, message } => {
                assert_eq!(rank, 1);
                assert!(message.contains("injected panic"), "message: {message}");
            }
            other => panic!("expected RankPanicked, got {other:?}"),
        }
    }

    #[test]
    fn elastic_solve_survives_a_rank_death() {
        let s = spec(2, PrecisionMode::DoubleHalf, CommStrategy::NoOverlap, 1e-10);
        let cfg = weak_field(s.plan.global(), 0.15, 61);
        let b = random_spinor_field(s.plan.global(), 62);
        let (x_clean, r_clean) = solve_full_grid(&cfg, &b, &s).expect("fault-free solve");
        let policy = ElasticPolicy {
            max_rank_deaths: 1,
            chaos: ChaosSpec {
                plan: Some(quda_comm::FaultPlan::new(11).kill_rank(1, 150)),
                comm: CommConfig {
                    timeout: std::time::Duration::from_secs(2),
                    ..CommConfig::default()
                },
                ..ChaosSpec::default()
            },
        };
        let es = solve_full_grid_elastic(&cfg, &b, &s, &policy, TraceConfig::Off)
            .expect("elastic solve must survive one death");
        assert!(es.solve.result.converged);
        assert_eq!(es.recovery.deaths_survived(), 1);
        let ev = &es.recovery.events[0];
        assert_eq!(ev.dead_rank, 1);
        assert!(ev.latency > Duration::ZERO, "recovery latency must be measured");
        assert!(es.recovery.checkpoints_taken > 0, "no checkpoints were deposited");
        // Same answer as the fault-free solve, to solver tolerance.
        let rel = verify_full_solution(&cfg, &s.wilson, &es.solve.solution, &b);
        let rel_clean = verify_full_solution(&cfg, &s.wilson, &x_clean, &b);
        assert!(rel < 1e-9, "post-recovery residual {rel}");
        assert!((rel - rel_clean).abs() < 1e-9, "fault-free {rel_clean} vs recovered {rel}");
        assert!(r_clean.converged);
    }

    #[test]
    fn elastic_budget_zero_is_bit_identical_fail_fast() {
        let s = spec(2, PrecisionMode::Double, CommStrategy::NoOverlap, 1e-10);
        let cfg = weak_field(s.plan.global(), 0.15, 71);
        let b = random_spinor_field(s.plan.global(), 72);
        // Fault-free, the budget must not touch the numerics: budget 0 (sink
        // disabled, no checkpoints) and budget 1 (a deposit at every
        // reliable-update boundary) give the bit-identical answer.
        let policy = ElasticPolicy { max_rank_deaths: 0, chaos: ChaosSpec::default() };
        let es = solve_full_grid_elastic(&cfg, &b, &s, &policy, TraceConfig::Off)
            .expect("fault-free solve");
        let policy = ElasticPolicy { max_rank_deaths: 1, chaos: ChaosSpec::default() };
        let armed = solve_full_grid_elastic(&cfg, &b, &s, &policy, TraceConfig::Off)
            .expect("fault-free solve with a death budget");
        assert_eq!(es.solve.solution.max_site_dist(&armed.solve.solution), 0.0);
        assert_eq!(es.solve.result.iterations, armed.solve.result.iterations);
        assert_eq!(es.solve.result.final_residual, armed.solve.result.final_residual);
        assert_eq!(es.recovery.deaths_survived(), 0);
        assert_eq!(es.recovery.checkpoints_taken, 0);
        assert!(armed.recovery.checkpoints_taken > 0);
        // With a kill injected, budget 0 fails fast with the typed error.
        let chaos = ChaosSpec {
            plan: Some(quda_comm::FaultPlan::new(77).kill_rank(1, 25)),
            comm: CommConfig {
                timeout: std::time::Duration::from_secs(2),
                ..CommConfig::default()
            },
            ..ChaosSpec::default()
        };
        let policy = ElasticPolicy { max_rank_deaths: 0, chaos };
        let err = solve_full_grid_elastic(&cfg, &b, &s, &policy, TraceConfig::Off)
            .expect_err("budget 0 must fail fast");
        assert_eq!(err, CommError::RankDead { rank: 1 });
    }

    #[test]
    fn batched_budget_two_is_bit_identical_to_budget_zero_and_zero_fails_fast() {
        // Arming the budget gives every lane of every rank a sink; the
        // deposits must not move any lane's numerics by a bit.
        let s = spec(2, PrecisionMode::DoubleHalf, CommStrategy::NoOverlap, 1e-10);
        let cfg = weak_field(s.plan.global(), 0.15, 91);
        let bs: Vec<HostSpinorField> =
            (0..3).map(|k| random_spinor_field(s.plan.global(), 92 + k)).collect();
        let solve = |max_rank_deaths, chaos| {
            let policy = ElasticPolicy { max_rank_deaths, chaos };
            solve_full_grid_multi(&cfg, &bs, &s, &policy, TraceConfig::Off)
        };
        let plain = solve(0, ChaosSpec::default()).expect("fault-free batch");
        let armed = solve(2, ChaosSpec::default()).expect("fault-free batch with a budget");
        for k in 0..3 {
            assert!(plain.results[k].converged, "lane {k} did not converge");
            assert_eq!(plain.solutions[k].max_site_dist(&armed.solutions[k]), 0.0, "lane {k}");
            assert_eq!(plain.results[k].iterations, armed.results[k].iterations, "lane {k}");
            assert_eq!(plain.recovery[k].checkpoints_taken, 0, "lane {k}");
            assert!(armed.recovery[k].checkpoints_taken > 0, "lane {k} never deposited");
        }
        // With a kill injected, budget 0 fails the whole batch fast.
        let chaos = ChaosSpec {
            plan: Some(quda_comm::FaultPlan::new(78).kill_rank(1, 40)),
            comm: CommConfig {
                timeout: std::time::Duration::from_secs(2),
                ..CommConfig::default()
            },
            ..ChaosSpec::default()
        };
        let err = solve(0, chaos).expect_err("budget 0 must fail fast");
        assert_eq!(err, CommError::RankDead { rank: 1 });
    }

    /// Heavier elastic soak: two sequential deaths plus message-level
    /// faults. Run via `cargo test -p quda-multigpu --features chaos`.
    #[test]
    #[cfg(feature = "chaos")]
    fn chaos_soak_two_sequential_deaths_with_lossy_wire() {
        let s = spec(4, PrecisionMode::DoubleHalf, CommStrategy::Overlap, 1e-10);
        let cfg = weak_field(s.plan.global(), 0.15, 81);
        let b = random_spinor_field(s.plan.global(), 82);
        let (x_clean, _) = solve_full_grid(&cfg, &b, &s).expect("fault-free solve");
        let rel_clean = verify_full_solution(&cfg, &s.wilson, &x_clean, &b);
        let policy = ElasticPolicy {
            max_rank_deaths: 2,
            chaos: ChaosSpec {
                plan: Some(
                    quda_comm::FaultPlan::new(9)
                        .drop(0.005)
                        .kill_rank_in_generation(0, 2, 150)
                        .kill_rank_in_generation(1, 0, 200),
                ),
                comm: CommConfig {
                    timeout: std::time::Duration::from_secs(2),
                    ..CommConfig::default()
                },
                ..ChaosSpec::default()
            },
        };
        let es = solve_full_grid_elastic(&cfg, &b, &s, &policy, TraceConfig::Off)
            .expect("elastic solve must survive both deaths");
        assert!(es.solve.result.converged);
        assert_eq!(es.recovery.deaths_survived(), 2);
        assert_eq!(es.recovery.events[0].dead_rank, 2);
        assert_eq!(es.recovery.events[1].dead_rank, 0);
        let rel = verify_full_solution(&cfg, &s.wilson, &es.solve.solution, &b);
        assert!(rel < 1e-9, "post-recovery residual {rel} (clean {rel_clean})");
    }

    #[test]
    fn mode_names_match_paper() {
        assert_eq!(PrecisionMode::SingleHalf.name(), "single-half");
        assert_eq!(PrecisionMode::DoubleHalf.name(), "double-half");
        assert!(PrecisionMode::SingleHalf.is_mixed());
        assert!(!PrecisionMode::Double.is_mixed());
    }
}
