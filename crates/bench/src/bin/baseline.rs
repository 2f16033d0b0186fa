//! Emit the workspace performance baseline as JSON on stdout.
//!
//! ```text
//! cargo run --release -p quda-bench --bin baseline > BENCH_baseline.json
//! ```
//!
//! The committed `BENCH_baseline.json` gives future changes a before/after:
//! everything under `"modeled"` and `"functional"` is deterministic (the
//! calibrated performance model and the fixed-seed solves), so any diff
//! there is a real behavior change, not measurement noise. Only
//! `"measured_wall_seconds"` varies with the host; it is informational.
//!
//! With `--measured` the output additionally carries `"fig_hotpath"`:
//! wall-clock kernel times for the streamed BLAS/dslash/face-codec hot
//! paths against their naive per-site reference shapes (see
//! [`quda_bench::hotpath`] for the clock methodology). Also
//! host-dependent, also informational.

use quda_bench::{curve_point, PAPER_GPU_COUNTS};
use quda_core::{PrecisionMode, Quda, QudaInvertParam};
use quda_fields::gauge_gen::weak_field;
use quda_fields::host::HostSpinorField;
use quda_lattice::geometry::{Coord, LatticeDims};
use quda_lattice::partition::DecompPlan;
use quda_multigpu::perf::{best_grid, PerfInput};
use quda_multigpu::rank_op::CommStrategy;

/// One modeled scaling curve as a JSON array (null = infeasible point).
fn curve_json(
    global: impl Fn(usize) -> LatticeDims,
    mode: PrecisionMode,
    strategy: CommStrategy,
    enforce_memory: bool,
) -> String {
    let vals: Vec<String> = PAPER_GPU_COUNTS
        .iter()
        .map(|&gpus| {
            curve_point(global(gpus), gpus, mode, strategy, enforce_memory)
                .map_or_else(|| "null".to_string(), |g| format!("{g:.1}"))
        })
        .collect();
    format!("[{}]", vals.join(", "))
}

/// One process-grid model row: the paper's T-only slice vs the best grid
/// at a simulated rank count. Deterministic — pure model output.
fn grid_row(dims: LatticeDims, ranks: usize) -> String {
    let inp = PerfInput::paper(
        DecompPlan::new(dims, [1, 1, 1, 1]),
        PrecisionMode::Single,
        CommStrategy::NoOverlap,
    );
    let t_only = curve_point(dims, ranks, PrecisionMode::Single, CommStrategy::NoOverlap, false)
        .map_or_else(|| "null".to_string(), |g| format!("{g:.1}"));
    let (bg, bf) = best_grid(&inp, ranks).expect("at least one valid grid");
    format!(
        "      {{\"gpus\": {ranks}, \"t_only_gflops\": {t_only}, \
         \"best_grid\": \"{bg}\", \"best_gflops\": {bf:.1}}}"
    )
}

/// One functional fixed-seed solve; returns (json, wall_seconds).
fn functional_json(mode: PrecisionMode, lockstep: bool) -> (String, f64) {
    let dims = LatticeDims::new(8, 8, 8, 16);
    let cfg = weak_field(dims, 0.1, 2024);
    let mut quda = Quda::new(2).expect("context");
    quda.load_gauge(cfg).expect("gauge load");
    let source = HostSpinorField::point_source(dims, Coord::new(0, 0, 0, 0), 0, 0);
    let param =
        QudaInvertParam::paper_mode(mode, 2).with_mass(0.2).with_tol(1e-10).with_lockstep(lockstep);
    let start = std::time::Instant::now();
    let (_, report) = quda.invert(&source, &param).expect("invert");
    let wall = start.elapsed().as_secs_f64();
    let json = format!(
        "{{\"converged\": {}, \"iterations\": {}, \"matvecs\": {}, \
         \"reliable_updates\": {}, \"true_residual\": {:.6e}, \
         \"effective_flops\": {}, \"modeled_seconds\": {:.6}, \
         \"modeled_gflops\": {:.1}}}",
        report.converged,
        report.iterations,
        report.matvecs,
        report.reliable_updates,
        report.true_residual,
        report.effective_flops,
        report.modeled_seconds,
        report.modeled_gflops,
    );
    (json, wall)
}

fn main() {
    let measured = std::env::args().any(|a| a == "--measured");
    let weak24 = |gpus: usize| LatticeDims::new(24, 24, 24, 32 * gpus);
    let strong32 = |_: usize| LatticeDims::spatial_cube(32, 256);
    let strong24 = |_: usize| LatticeDims::spatial_cube(24, 128);

    let (double_plain, wall_double) = functional_json(PrecisionMode::Double, false);
    let (double_lockstep, wall_lockstep) = functional_json(PrecisionMode::Double, true);
    let (double_half, wall_half) = functional_json(PrecisionMode::DoubleHalf, false);

    println!("{{");
    println!("  \"schema\": \"quda-bench-baseline/v1\",");
    println!("  \"gpu_counts\": [1, 2, 4, 8, 16, 32],");
    println!("  \"modeled\": {{");
    println!("    \"fig4b_weak_24c32_overlap\": {{");
    for (i, (name, mode)) in [
        ("single", PrecisionMode::Single),
        ("double", PrecisionMode::Double),
        ("single_half", PrecisionMode::SingleHalf),
        ("double_half", PrecisionMode::DoubleHalf),
    ]
    .iter()
    .enumerate()
    {
        let comma = if i == 3 { "" } else { "," };
        println!(
            "      \"{name}\": {}{comma}",
            curve_json(weak24, *mode, CommStrategy::Overlap, false)
        );
    }
    println!("    }},");
    println!("    \"fig5a_strong_32c256_single_half\": {{");
    println!(
        "      \"overlap\": {}",
        curve_json(strong32, PrecisionMode::SingleHalf, CommStrategy::Overlap, true)
    );
    println!("    }},");
    println!("    \"fig6_strong_24c128_no_overlap\": {{");
    for (i, (name, mode)) in [
        ("single", PrecisionMode::Single),
        ("double", PrecisionMode::Double),
        ("single_half", PrecisionMode::SingleHalf),
        ("double_half", PrecisionMode::DoubleHalf),
    ]
    .iter()
    .enumerate()
    {
        let comma = if i == 3 { "" } else { "," };
        println!(
            "      \"{name}\": {}{comma}",
            curve_json(strong24, *mode, CommStrategy::NoOverlap, true)
        );
    }
    println!("    }},");
    let grid_ranks = [64usize, 128, 256];
    println!("    \"fig_multidim_strong_32c256_single\": [");
    for (i, &ranks) in grid_ranks.iter().enumerate() {
        let comma = if i == grid_ranks.len() - 1 { "" } else { "," };
        println!("{}{comma}", grid_row(LatticeDims::spatial_cube(32, 256), ranks));
    }
    println!("    ],");
    println!("    \"fig_multidim_weak_32c2t_single\": [");
    for (i, &ranks) in grid_ranks.iter().enumerate() {
        let comma = if i == grid_ranks.len() - 1 { "" } else { "," };
        println!("{}{comma}", grid_row(LatticeDims::new(32, 32, 32, 2 * ranks), ranks));
    }
    println!("    ]");
    println!("  }},");
    println!("  \"functional\": {{");
    println!("    \"lattice\": \"8x8x8x16\", \"gpus\": 2, \"mass\": 0.2, \"tol\": 1e-10,");
    println!("    \"double\": {double_plain},");
    println!("    \"double_lockstep\": {double_lockstep},");
    println!("    \"double_half\": {double_half},");
    println!("    \"lockstep_counters_match\": {}", double_plain == double_lockstep);
    println!("  }},");
    println!("  \"fig_batch\": {},", quda_bench::batchbench::fig_batch_json());
    if measured {
        println!("  \"fig_hotpath\": {},", quda_bench::hotpath::fig_hotpath_json());
    }
    println!("  \"measured_wall_seconds\": {{");
    println!("    \"comment\": \"host-dependent, informational only\",");
    println!("    \"double\": {wall_double:.3},");
    println!("    \"double_lockstep\": {wall_lockstep:.3},");
    println!("    \"double_half\": {wall_half:.3}");
    println!("  }}");
    println!("}}");
}
