//! End-to-end elastic-resilience acceptance (ISSUE 8): solves that survive
//! injected rank deaths — including two *sequential* deaths across world
//! incarnations — and converge to the same residual norm as the fault-free
//! solve, with per-death recovery telemetry surfaced through the public
//! interface.

use quda_comm::{CommConfig, CommError, FaultPlan};
use quda_core::{ChaosSpec, PrecisionMode, Quda, QudaInvertParam};
use quda_dirac::WilsonParams;
use quda_fields::gauge_gen::{random_spinor_field, weak_field};
use quda_lattice::geometry::LatticeDims;
use quda_lattice::partition::DecompPlan;
use quda_multigpu::driver::{
    solve_full_grid, solve_full_grid_elastic, verify_full_solution, ElasticPolicy, GridSolveSpec,
    SolverKind,
};
use quda_multigpu::rank_op::CommStrategy;
use quda_obs::TraceConfig;
use quda_solvers::params::SolverParams;
use std::slice::from_ref;
use std::time::Duration;

fn chaos_with(plan: FaultPlan) -> ChaosSpec {
    ChaosSpec {
        plan: Some(plan),
        comm: CommConfig { timeout: Duration::from_secs(2), ..CommConfig::default() },
        ..ChaosSpec::default()
    }
}

/// Two sequential rank deaths on a 2x1x1x2 process grid: the tentpole
/// acceptance. The elastic solve must converge to the same residual norm as
/// the fault-free solve (within solver tolerance) and report both
/// recoveries with positive latency.
#[test]
fn grid_2112_survives_two_sequential_deaths() {
    let global = LatticeDims::new(8, 4, 2, 8);
    let plan = DecompPlan::new(global, [2, 1, 1, 2]);
    let spec = GridSolveSpec {
        plan,
        wilson: WilsonParams { mass: 0.3, c_sw: 1.0 },
        mode: PrecisionMode::DoubleHalf,
        strategy: CommStrategy::NoOverlap,
        solver: SolverKind::BiCgStab,
        params: SolverParams { tol: 1e-10, max_iter: 2000, delta: 1e-1 },
    };
    let cfg = weak_field(global, 0.15, 101);
    let b = random_spinor_field(global, 102);
    let (x_clean, r_clean) = solve_full_grid(&cfg, &b, &spec).expect("fault-free solve");
    assert!(r_clean.converged);
    let rel_clean = verify_full_solution(&cfg, &spec.wilson, &x_clean, &b);

    let policy = ElasticPolicy {
        max_rank_deaths: 2,
        chaos: chaos_with(
            FaultPlan::new(5).kill_rank_in_generation(0, 3, 150).kill_rank_in_generation(1, 1, 200),
        ),
    };
    let es = solve_full_grid_elastic(&cfg, &b, &spec, &policy, TraceConfig::Off)
        .expect("elastic solve must survive two sequential deaths");
    assert!(es.solve.result.converged, "residual {}", es.solve.result.final_residual);
    assert_eq!(es.recovery.deaths_survived(), 2);
    assert_eq!(es.recovery.events[0].dead_rank, 3);
    assert_eq!(es.recovery.events[1].dead_rank, 1);
    for (i, ev) in es.recovery.events.iter().enumerate() {
        assert!(ev.latency > Duration::ZERO, "death {i}: unmeasured recovery latency");
    }
    assert!(es.recovery.checkpoints_taken > 0);
    assert!(es.recovery.checkpoint_bytes > 0);
    // Same answer as fault-free, to solver tolerance.
    let rel = verify_full_solution(&cfg, &spec.wilson, &es.solve.solution, &b);
    assert!(rel < 1e-9, "post-recovery residual {rel} (fault-free {rel_clean})");
}

/// The paper's 1x1x1x4 temporal decomposition survives two sequential
/// deaths.
#[test]
fn legacy_1114_survives_two_sequential_deaths() {
    let global = LatticeDims::new(4, 4, 2, 8);
    let spec = GridSolveSpec {
        plan: DecompPlan::new(global, [1, 1, 1, 4]),
        wilson: WilsonParams { mass: 0.3, c_sw: 1.0 },
        mode: PrecisionMode::DoubleHalf,
        strategy: CommStrategy::Overlap,
        solver: SolverKind::BiCgStab,
        params: SolverParams { tol: 1e-10, max_iter: 2000, delta: 1e-1 },
    };
    let cfg = weak_field(global, 0.15, 111);
    let b = random_spinor_field(global, 112);
    let (x_clean, _) = solve_full_grid(&cfg, &b, &spec).expect("fault-free solve");
    let rel_clean = verify_full_solution(&cfg, &spec.wilson, &x_clean, &b);

    let policy = ElasticPolicy {
        max_rank_deaths: 2,
        chaos: chaos_with(
            FaultPlan::new(6).kill_rank_in_generation(0, 2, 150).kill_rank_in_generation(1, 0, 250),
        ),
    };
    let es = solve_full_grid_elastic(&cfg, &b, &spec, &policy, TraceConfig::Off)
        .expect("elastic solve must survive two sequential deaths");
    assert!(es.solve.result.converged);
    assert_eq!(es.recovery.deaths_survived(), 2);
    let rel = verify_full_solution(&cfg, &spec.wilson, &es.solve.solution, &b);
    assert!(rel < 1e-9, "post-recovery residual {rel} (fault-free {rel_clean})");
}

/// A third death with a budget of two must surface the typed error.
#[test]
fn budget_exhaustion_surfaces_the_death() {
    let global = LatticeDims::new(4, 4, 2, 8);
    let spec = GridSolveSpec {
        plan: DecompPlan::new(global, [1, 1, 1, 2]),
        wilson: WilsonParams { mass: 0.3, c_sw: 1.0 },
        mode: PrecisionMode::Double,
        strategy: CommStrategy::NoOverlap,
        solver: SolverKind::BiCgStab,
        params: SolverParams { tol: 1e-10, max_iter: 2000, delta: 0.0 },
    };
    let cfg = weak_field(global, 0.15, 121);
    let b = random_spinor_field(global, 122);
    let policy = ElasticPolicy {
        max_rank_deaths: 1,
        chaos: chaos_with(
            FaultPlan::new(7).kill_rank_in_generation(0, 1, 100).kill_rank_in_generation(1, 0, 100),
        ),
    };
    let err = solve_full_grid_elastic(&cfg, &b, &spec, &policy, TraceConfig::Off)
        .expect_err("the second death exceeds the budget");
    assert_eq!(err, CommError::RankDead { rank: 0 });
}

/// `max_rank_deaths = 0` pins the bit-identical fail-fast contract at the
/// public-interface level: same solution bits fault-free, same typed error
/// under a kill, and an empty recovery report.
#[test]
fn zero_budget_invert_is_bit_identical_fail_fast() {
    let dims = LatticeDims::new(4, 4, 2, 8);
    let cfg = weak_field(dims, 0.15, 131);
    let b = random_spinor_field(dims, 132);

    let mut q = Quda::new(2).expect("context");
    q.load_gauge(cfg.clone()).expect("gauge");
    let p =
        QudaInvertParam::paper_mode(PrecisionMode::DoubleHalf, 2).with_mass(0.3).with_tol(1e-10);
    assert_eq!(p.max_rank_deaths, 0, "fail-fast is the default");
    let (x0, rep0) = q.invert(&b, &p).expect("classic invert");
    let (x1, rep1) = q.invert(&b, &p.with_max_rank_deaths(0)).expect("elastic-0 invert");
    assert_eq!(x0.max_site_dist(&x1), 0.0, "budget 0 must be bit-identical");
    assert_eq!(rep0.stats.iterations, rep1.stats.iterations);
    assert_eq!(rep1.recovery.deaths_survived(), 0);
    assert_eq!(rep1.recovery.checkpoints_taken, 0);

    // Under a kill, budget 0 fails fast with the classic typed error.
    let chaos = chaos_with(FaultPlan::new(8).kill_rank(1, 50));
    let err = q.invert_multi_with_chaos(from_ref(&b), &p, &chaos).expect_err("budget 0 fails fast");
    match err {
        quda_core::QudaError::Comm(CommError::RankDead { rank }) => assert_eq!(rank, 1),
        other => panic!("expected Comm(RankDead), got {other:?}"),
    }
}

/// The public interface surfaces recovery telemetry: an invert with an
/// injected death and a death budget reports the event in
/// `InvertReport::recovery`.
#[test]
fn invert_report_carries_recovery_telemetry() {
    let dims = LatticeDims::new(4, 4, 2, 8);
    let cfg = weak_field(dims, 0.15, 141);
    let b = random_spinor_field(dims, 142);
    let mut q = Quda::new(2).expect("context");
    q.load_gauge(cfg).expect("gauge");
    let p = QudaInvertParam::paper_mode(PrecisionMode::DoubleHalf, 2)
        .with_mass(0.3)
        .with_tol(1e-10)
        .with_max_rank_deaths(1);
    let chaos = chaos_with(FaultPlan::new(9).kill_rank(1, 150));
    let (x, report) =
        q.invert_multi_with_chaos(from_ref(&b), &p, &chaos).expect("elastic invert").swap_remove(0);
    assert!(report.stats.converged);
    assert!(report.stats.true_residual < 1e-9);
    assert!(x.norm_sqr() > 0.0);
    assert_eq!(report.recovery.deaths_survived(), 1);
    assert_eq!(report.recovery.events[0].dead_rank, 1);
    assert!(report.recovery.events[0].latency > Duration::ZERO);
    assert!(report.recovery.checkpoints_taken > 0);
}

/// A batch of three right-hand sides survives a rank death through the
/// public interface: every lane resumes from its own checkpoint, converges
/// and verifies, and reports the death with the epoch it resumed from.
#[test]
fn batch_of_three_survives_a_rank_death() {
    let dims = LatticeDims::new(4, 4, 2, 8);
    let mut q = Quda::new(2).expect("context");
    q.load_gauge(weak_field(dims, 0.15, 161)).expect("gauge");
    let sources: Vec<_> = (0..3).map(|k| random_spinor_field(dims, 162 + k)).collect();
    let p = QudaInvertParam::paper_mode(PrecisionMode::DoubleHalf, 2)
        .with_mass(0.3)
        .with_tol(1e-10)
        .with_max_rank_deaths(1);
    let chaos = chaos_with(FaultPlan::new(12).kill_rank(1, 150));
    let lanes = q.invert_multi_with_chaos(&sources, &p, &chaos).expect("elastic batch");
    assert_eq!(lanes.len(), 3);
    for (k, (x, report)) in lanes.iter().enumerate() {
        assert!(report.stats.converged, "lane {k} did not converge");
        assert!(report.stats.true_residual < 1e-9, "lane {k}: residual {}", report.true_residual);
        assert!(x.norm_sqr() > 0.0);
        assert_eq!(report.recovery.deaths_survived(), 1, "lane {k}");
        let ev = &report.recovery.events[0];
        assert_eq!(ev.dead_rank, 1, "lane {k}");
        assert!(ev.resumed_epoch.is_some(), "lane {k} restarted from scratch");
        assert!(report.recovery.checkpoints_taken > 0, "lane {k}");
    }
}

/// A panicking rank (injected bug) is classified as `RankPanicked` with
/// the message — and is just as survivable as a scheduled death.
#[test]
fn panicked_rank_is_survivable_and_typed() {
    let global = LatticeDims::new(4, 4, 2, 8);
    let spec = GridSolveSpec {
        plan: DecompPlan::new(global, [1, 1, 1, 2]),
        wilson: WilsonParams { mass: 0.3, c_sw: 1.0 },
        mode: PrecisionMode::DoubleHalf,
        strategy: CommStrategy::NoOverlap,
        solver: SolverKind::BiCgStab,
        params: SolverParams { tol: 1e-10, max_iter: 2000, delta: 1e-1 },
    };
    let cfg = weak_field(global, 0.15, 151);
    let b = random_spinor_field(global, 152);
    let policy = ElasticPolicy {
        max_rank_deaths: 1,
        chaos: chaos_with(FaultPlan::new(10).panic_rank(0, 150)),
    };
    let es = solve_full_grid_elastic(&cfg, &b, &spec, &policy, TraceConfig::Off)
        .expect("elastic solve must survive a panicked rank");
    assert!(es.solve.result.converged);
    assert_eq!(es.recovery.deaths_survived(), 1);
    let ev = &es.recovery.events[0];
    assert_eq!(ev.dead_rank, 0);
    assert!(ev.cause.contains("panicked"), "cause: {}", ev.cause);
    assert!(ev.cause.contains("injected panic"), "cause: {}", ev.cause);
}
