//! # quda-bench
//!
//! Harnesses that regenerate every table and figure of the paper's
//! evaluation (Section VII) from the calibrated performance model and the
//! functional library. One binary per exhibit:
//!
//! | binary         | exhibit  | content                                              |
//! |----------------|----------|------------------------------------------------------|
//! | `table1`       | Table I  | NVIDIA card specifications                           |
//! | `fig4a`        | Fig 4(a) | weak scaling, 32⁴ per GPU                            |
//! | `fig4b`        | Fig 4(b) | weak scaling, 24³×32 per GPU, four precision modes   |
//! | `fig5a`        | Fig 5(a) | strong scaling 32³×256 (+ bad-NUMA curve)            |
//! | `fig5b`        | Fig 5(b) | strong scaling 24³×128 (overlap plateau)             |
//! | `fig6`         | Fig 6    | strong scaling 24³×128, four precisions, no overlap  |
//! | `fig7`         | Fig 7    | PCI-E latency microbenchmark                         |
//! | `cpu_baseline` | §VII-C   | "9q" CPU cluster vs GPU cluster (×10 claim)          |
//!
//! Absolute numbers come from a model of 2010 hardware; the *shapes* (who
//! wins, by what factor, where curves cross or plateau) are the
//! reproduction targets. EXPERIMENTS.md records paper-vs-model values.
//!
//! `baseline` collects the model curves and a few fixed-seed solves into
//! `BENCH_baseline.json`, all deterministic. Host timings of kernels,
//! solves and the service are the measured ledger's (`ledger/`), not this
//! crate's.

#![warn(missing_docs)]

use quda_lattice::geometry::LatticeDims;
use quda_lattice::partition::DecompPlan;
use quda_multigpu::perf::{evaluate, PerfInput};
use quda_multigpu::rank_op::CommStrategy;
use quda_multigpu::PrecisionMode;

/// GPU counts measured in the paper's scaling plots.
pub const PAPER_GPU_COUNTS: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// Evaluate one point of a scaling curve; `None` when the partition is
/// invalid or (with `enforce_memory`) the working set does not fit device
/// memory — the paper's mixed-precision curves start at 8 GPUs on the large
/// lattice for exactly that reason.
pub fn curve_point(
    global: LatticeDims,
    gpus: usize,
    mode: PrecisionMode,
    strategy: CommStrategy,
    enforce_memory: bool,
) -> Option<f64> {
    let plan = DecompPlan::try_new(global, [1, 1, 1, gpus]).ok()?;
    let report = evaluate(&PerfInput::paper(plan, mode, strategy));
    if enforce_memory && !report.fits_memory {
        return None;
    }
    Some(report.sustained_gflops)
}

/// Render a row of curve values, with `-` for infeasible points.
pub fn row(values: &[Option<f64>]) -> String {
    values
        .iter()
        .map(|v| match v {
            Some(g) => format!("{g:>12.0}"),
            None => format!("{:>12}", "-"),
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// Print a standard figure header.
pub fn header(title: &str, cols: &[&str]) {
    println!("{title}");
    print!("{:>6}", "GPUs");
    for c in cols {
        print!(" {c:>12}");
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn infeasible_points_are_none() {
        // 32³×256 mixed on 4 GPUs exceeds device memory (Section VII-C).
        let g = LatticeDims::spatial_cube(32, 256);
        assert!(curve_point(g, 4, PrecisionMode::SingleHalf, CommStrategy::Overlap, true).is_none());
        assert!(curve_point(g, 8, PrecisionMode::SingleHalf, CommStrategy::Overlap, true).is_some());
        // Indivisible T.
        assert!(curve_point(g, 3, PrecisionMode::Single, CommStrategy::Overlap, false).is_none());
    }

    #[test]
    fn row_renders_dashes() {
        let s = row(&[Some(1234.0), None]);
        assert!(s.contains("1234"));
        assert!(s.contains('-'));
    }
}
