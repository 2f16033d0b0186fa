//! Fig. 5(a): strong scaling on V = 32³×256, single and single-half, with
//! and without overlapping communication and computation, plus the
//! deliberately-bad NUMA placement curve.
//!
//! Paper landmarks: overlap increasingly helps at scale; the mixed solver
//! needs >= 8 GPUs (memory footprint); >3 Tflops at 32 GPUs; bad NUMA
//! placement visibly lowers the curve (Sections VII-C, VII-D).

use quda_bench::{curve_point, header, row, PAPER_GPU_COUNTS};
use quda_gpusim::transfer::NumaPlacement;
use quda_lattice::geometry::LatticeDims;
use quda_lattice::partition::DecompPlan;
use quda_multigpu::perf::{evaluate, PerfInput};
use quda_multigpu::rank_op::CommStrategy;
use quda_multigpu::PrecisionMode;

fn main() {
    let global = LatticeDims::spatial_cube(32, 256);
    header(
        "Fig. 5(a) — strong scaling, V = 32^3x256 (memory-feasible points only)",
        &["sgl/no-ovl", "mix/no-ovl", "sgl/ovl", "mix/ovl", "mix/ovl-badNUMA"],
    );
    for gpus in PAPER_GPU_COUNTS {
        let bad_numa = DecompPlan::try_new(global, [1, 1, 1, gpus]).ok().and_then(|plan| {
            let mut inp = PerfInput::paper(plan, PrecisionMode::SingleHalf, CommStrategy::Overlap);
            inp.numa = NumaPlacement::Bad;
            let r = evaluate(&inp);
            r.fits_memory.then_some(r.sustained_gflops)
        });
        let vals = [
            curve_point(global, gpus, PrecisionMode::Single, CommStrategy::NoOverlap, true),
            curve_point(global, gpus, PrecisionMode::SingleHalf, CommStrategy::NoOverlap, true),
            curve_point(global, gpus, PrecisionMode::Single, CommStrategy::Overlap, true),
            curve_point(global, gpus, PrecisionMode::SingleHalf, CommStrategy::Overlap, true),
            bad_numa,
        ];
        println!("{gpus:>6} {}", row(&vals));
    }
    println!("\npaper: mixed precision requires >= 8 GPUs (footprint of both precisions);");
    println!("uniform single runs already on 4; >3 Tflops sustained at 32 GPUs;");
    println!("overlapped > non-overlapped, growing with GPU count; bad NUMA below good.");
}
