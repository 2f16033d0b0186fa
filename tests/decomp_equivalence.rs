//! Cross-decomposition equivalence suite (ISSUE 7 headline test).
//!
//! The dimension-generic ghost-exchange driver must be *provably* a
//! generalization of the paper's 1-d temporal slicing, not a parallel
//! implementation that happens to agree:
//!
//! * a `1×1×1×N` process grid is **bit-identical** to the legacy time-slice
//!   path it replaced — same iteration count, same matvec count, same true
//!   residual, same solution bits, pinned as literals captured from the
//!   legacy single-field exchange and its driver at the commit before
//!   their deletion;
//! * every valid 2-d / 3-d / 4-d grid converges to the same solution within
//!   solver tolerance, with every rank passing the lockstep sanitizer at
//!   `check_every: 1` (identical collective fingerprints on every rank);
//! * the overlapped schedule exposes its per-direction wire/exterior phases
//!   in the trace, one pair per partitioned dimension.

use quda_comm::LockstepConfig;
use quda_dirac::WilsonParams;
use quda_fields::gauge_gen::{random_spinor_field, weak_field};
use quda_fields::host::{GaugeConfig, HostSpinorField};
use quda_lattice::geometry::LatticeDims;
use quda_lattice::partition::DecompPlan;
use quda_multigpu::rank_op::CommStrategy;
use quda_multigpu::{
    solve_full_grid, solve_full_grid_elastic, verify_full_solution, ChaosSpec, ElasticPolicy,
    GridSolveSpec, PrecisionMode, SolverKind, TracedSolve,
};
use quda_obs::{Phase, TraceConfig};
use quda_solvers::params::SolverParams;

fn wilson() -> WilsonParams {
    WilsonParams { mass: 0.2, c_sw: 1.0 }
}

fn grid_spec(plan: DecompPlan, strategy: CommStrategy, tol: f64) -> GridSolveSpec {
    GridSolveSpec {
        plan,
        wilson: wilson(),
        mode: PrecisionMode::Double,
        strategy,
        solver: SolverKind::BiCgStab,
        params: SolverParams { tol, max_iter: 2000, delta: 1e-1 },
    }
}

/// A fail-fast solve under the lockstep sanitizer at maximum strictness:
/// every rank's collective fingerprint is cross-checked on every operation.
fn solve_under_lockstep(
    cfg: &GaugeConfig,
    b: &HostSpinorField,
    spec: &GridSolveSpec,
    trace: TraceConfig,
) -> Result<TracedSolve, quda_comm::CommError> {
    let chaos =
        ChaosSpec { lockstep: Some(LockstepConfig { check_every: 1 }), ..ChaosSpec::default() };
    let policy = ElasticPolicy { max_rank_deaths: 0, chaos };
    solve_full_grid_elastic(cfg, b, spec, &policy, trace).map(|es| es.solve)
}

/// FNV-1a over the solution's f64 bit patterns, site-major.
fn solution_bits(x: &HostSpinorField) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for site in &x.data {
        for color in site.s.iter().flat_map(|spin| &spin.c) {
            for v in [color.re, color.im] {
                h = (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

#[test]
fn one_d_grid_is_bit_identical_to_legacy_time_slicing() {
    // What the legacy 1-d path (its own partition type, single-field face
    // exchange and driver entry point) produced on this problem, captured
    // at the last commit that had it: (ranks, iterations,
    // matvecs, final_residual bits, solution bits). The grid driver on the
    // 1×1×1×N plan must keep reproducing them — same messages, same order,
    // same arithmetic — under either strategy.
    const LEGACY: [(usize, usize, u64, u64, u64); 3] = [
        (1, 35, 71, 0x3dd8_9662_733c_a4c4, 0xfe08_c687_4638_8a12),
        (2, 35, 71, 0x3dd8_9662_92f1_fd42, 0x78a8_b801_8253_22d2),
        (4, 35, 71, 0x3dd8_9662_c57c_8327, 0x2c4a_0f23_f992_2fe6),
    ];
    let d = LatticeDims::new(4, 4, 2, 8);
    let cfg = weak_field(d, 0.15, 101);
    let b = random_spinor_field(d, 102);
    for (ranks, iterations, matvecs, residual_bits, x_bits) in LEGACY {
        for strategy in [CommStrategy::NoOverlap, CommStrategy::Overlap] {
            let plan = DecompPlan::new(d, [1, 1, 1, ranks]);
            let (x, r) =
                solve_full_grid(&cfg, &b, &grid_spec(plan, strategy, 1e-10)).expect("grid solve");
            assert!(r.converged);
            assert_eq!(r.iterations, iterations, "{ranks} ranks {strategy:?}");
            assert_eq!(r.matvecs, matvecs);
            assert_eq!(
                r.final_residual.to_bits(),
                residual_bits,
                "true residual must be bit-equal"
            );
            assert_eq!(solution_bits(&x), x_bits, "{ranks} ranks {strategy:?}");
        }
    }
}

struct Reference {
    cfg: GaugeConfig,
    b: HostSpinorField,
    x: HostSpinorField,
}

/// The paper's 1-d decomposition (1×1×1×4) of the ISSUE's 8×8×8×16 lattice,
/// solved once.
fn reference_8x8x8x16() -> Reference {
    let d = LatticeDims::new(8, 8, 8, 16);
    let cfg = weak_field(d, 0.1, 2024);
    let b = random_spinor_field(d, 2025);
    let spec = grid_spec(DecompPlan::new(d, [1, 1, 1, 4]), CommStrategy::Overlap, 1e-9);
    let (x, r) = solve_full_grid(&cfg, &b, &spec).expect("1-d reference solve");
    assert!(r.converged, "reference residual {}", r.final_residual);
    Reference { cfg, b, x }
}

#[test]
fn multi_dim_grids_converge_to_the_legacy_solution_under_lockstep() {
    // One 2-d, one 3-d, and one 4-d decomposition of the same 8×8×8×16
    // problem (ISSUE acceptance), each world running the lockstep sanitizer
    // at check_every: 1 — any rank whose collective fingerprint diverges
    // from its peers' aborts the solve with a located error, so completion
    // certifies that all ranks issued identical collective sequences.
    let rf = reference_8x8x8x16();
    let d = rf.cfg.dims;
    let cases: [(&str, [usize; 4]); 3] = [
        ("2-d (Z,T)", [1, 1, 2, 2]),
        ("3-d (Y,Z,T)", [1, 2, 2, 2]),
        ("4-d (X,Y,Z,T)", [2, 2, 2, 2]),
    ];
    for (label, grid) in cases {
        let plan = DecompPlan::new(d, grid);
        let spec = grid_spec(plan, CommStrategy::Overlap, 1e-9);
        let ts = solve_under_lockstep(&rf.cfg, &rf.b, &spec, TraceConfig::Off)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        assert!(ts.result.converged, "{label}: residual {}", ts.result.final_residual);
        assert!(ts.comm.is_clean(), "{label}: dirty wire {:?}", ts.comm);
        let dist = rf.x.max_site_dist(&ts.solution);
        assert!(dist < 1e-6, "{label}: distance to legacy solution {dist}");
        let rel = verify_full_solution(&rf.cfg, &wilson(), &ts.solution, &rf.b);
        assert!(rel < 1e-7, "{label}: full-system residual {rel}");
    }
}

#[test]
fn overlap_schedule_exposes_per_direction_phases() {
    // The overlapped 4-d schedule progresses each direction independently;
    // the trace must show one wire + one exterior phase per partitioned
    // dimension, and none for unpartitioned dimensions.
    let d = LatticeDims::new(4, 4, 4, 8);
    let cfg = weak_field(d, 0.12, 301);
    let b = random_spinor_field(d, 302);
    let plan = DecompPlan::new(d, [1, 2, 1, 2]);
    let spec = grid_spec(plan, CommStrategy::Overlap, 1e-9);
    let ts =
        solve_under_lockstep(&cfg, &b, &spec, TraceConfig::Summary).expect("traced grid solve");
    assert!(ts.result.converged);
    let bd = ts.trace.breakdown();
    for dim in 0..4 {
        let cut = plan.open(dim);
        assert_eq!(
            bd.get(Phase::wire_dim(dim)).is_some(),
            cut,
            "wire phase for dim {dim} (cut: {cut})"
        );
        assert_eq!(
            bd.get(Phase::exterior_dim(dim)).is_some(),
            cut,
            "exterior phase for dim {dim} (cut: {cut})"
        );
    }
    // Interior compute ran under the overlapped schedule.
    assert!(bd.get(Phase::Interior).is_some(), "interior phase missing");
}
