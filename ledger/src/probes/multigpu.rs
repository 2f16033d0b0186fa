//! `quda-multigpu`: the face codec, and the grid driver alone on the
//! `solve_volume_*` problem — two ranks against one, overlap against
//! no-overlap, and the elastic driver's checkpoint and recovery costs.
//! Each driver figure is the median of [`SOLVE_CALLS`] whole solves.

use quda_comm::FaultPlan;
use quda_core::{PrecisionMode, QudaInvertParam, TraceConfig};
use quda_dirac::WilsonParams;
use quda_fields::precision::{Double, Half, Precision};
use quda_lattice::partition::DecompPlan;
use quda_math::spinor::HALF_SPINOR_REALS;
use quda_multigpu::driver::{
    solve_full_grid, solve_full_grid_elastic, ChaosSpec, ElasticPolicy, GridSolveSpec,
};
use quda_multigpu::rank_op::CommStrategy;
use quda_multigpu::{decode_face_into, encode_face};

use super::{plan, Bench, Values, CALLS, KERNEL_DIMS, SOLVE_CALLS};
use crate::workloads::{dims, solve_param, SOLVE_DIMS};

/// The grid-driver spec `Quda::invert` would build from `param`.
pub fn grid_spec(param: &QudaInvertParam, plan: DecompPlan) -> GridSolveSpec {
    GridSolveSpec {
        plan,
        wilson: WilsonParams { mass: param.mass, c_sw: param.c_sw },
        mode: param.mode,
        strategy: param.strategy,
        solver: param.solver,
        params: param.solver_params(),
    }
}

fn face_codec<P: Precision>(bench: &mut Bench, name: &'static str) -> f64 {
    // One temporal face of the kernel lattice.
    let sites = dims(KERNEL_DIMS).half_spatial_volume();
    let values: Vec<f64> =
        (0..sites * HALF_SPINOR_REALS).map(|i| ((i * 37 % 101) as f64 - 50.0) * 0.01).collect();
    let mut decoded = Vec::with_capacity(values.len());
    bench.sample(name, CALLS, || {
        let wire = encode_face::<P>(&values);
        decode_face_into::<P>(&wire, sites, &mut decoded).expect("own wire decodes");
    })
}

pub fn run(bench: &mut Bench) -> Values {
    let codec_double = face_codec::<Double>(bench, "multigpu.face_codec_double");
    let codec_half = face_codec::<Half>(bench, "multigpu.face_codec_half");

    let cfg = bench.solve.gauge.clone();
    let b = bench.solve.sources[0].clone();
    let global = dims(SOLVE_DIMS);
    let double = solve_param(PrecisionMode::Double);
    let grid = |bench: &mut Bench, name, spec: GridSolveSpec| {
        bench.sample(name, SOLVE_CALLS, || {
            let (_, result) = solve_full_grid(&cfg, &b, &spec).expect("fault-free solve");
            assert!(result.converged, "{name}: probe solve did not converge");
        })
    };
    let two_ranks = grid(bench, "multigpu.solve_grid", grid_spec(&double, plan(global)));
    let one_rank = grid(
        bench,
        "multigpu.solve_grid_1r",
        grid_spec(&double, DecompPlan::new(global, [1, 1, 1, 1])),
    );
    let no_overlap = grid(
        bench,
        "multigpu.solve_grid_no_overlap",
        grid_spec(&double.with_strategy(CommStrategy::NoOverlap), plan(global)),
    );

    // Elastic costs on the mixed-precision problem, where reliable updates
    // give the checkpoints their boundaries.
    let mixed = grid_spec(&solve_param(PrecisionMode::DoubleHalf), plan(global));
    let elastic = |bench: &mut Bench, name, policy: ElasticPolicy, calls| {
        let mut latency_ms = Vec::new();
        let t = bench.sample(name, calls, || {
            let out = solve_full_grid_elastic(&cfg, &b, &mixed, &policy, TraceConfig::Off)
                .expect("elastic solve survives its budget");
            assert!(out.solve.result.converged, "{name}: probe solve did not converge");
            latency_ms.extend(out.recovery.events.iter().map(|e| e.latency.as_secs_f64() * 1e3));
        });
        (t, latency_ms)
    };
    let (plain, _) = elastic(bench, "multigpu.elastic_off", ElasticPolicy::default(), SOLVE_CALLS);
    let budget = ElasticPolicy { max_rank_deaths: 2, ..ElasticPolicy::default() };
    let (checkpointed, _) = elastic(bench, "multigpu.elastic_ckpt", budget, SOLVE_CALLS);
    // One scheduled death: rank 1 dies after 200 sends of the first world.
    let kill = ElasticPolicy {
        max_rank_deaths: 1,
        chaos: ChaosSpec {
            plan: Some(FaultPlan::new(33).kill_rank_in_generation(0, 1, 200)),
            ..ChaosSpec::default()
        },
    };
    let (_, recoveries) = elastic(bench, "multigpu.elastic_kill", kill, 1);
    assert_eq!(recoveries.len(), 1, "the scheduled kill must fire exactly once");

    Values::from([
        ("multigpu.face_codec_double_us", codec_double * 1e6),
        ("multigpu.face_codec_half_us", codec_half * 1e6),
        ("multigpu.solve_grid_s", two_ranks),
        ("multigpu.scaling_eff_2r", one_rank / (2.0 * two_ranks)),
        ("multigpu.overlap_vs_nooverlap", two_ranks / no_overlap),
        ("multigpu.ckpt_overhead_frac", (checkpointed - plain) / plain),
        ("multigpu.recovery_latency_ms", recoveries[0]),
    ])
}
