//! Scaling study: functional verification that 1-, 2-, and 4-rank solves
//! give the same answer, followed by the performance model's strong-scaling
//! table for the paper's production volumes and its best process grid at
//! 4 to 512 GPUs.
//!
//! ```text
//! cargo run --release --example scaling_study
//! ```

use quda_core::{CommStrategy, PrecisionMode, Quda, QudaInvertParam};
use quda_fields::gauge_gen::{random_spinor_field, weak_field};
use quda_lattice::geometry::LatticeDims;
use quda_lattice::partition::DecompPlan;
use quda_multigpu::perf::{best_grid, evaluate, PerfInput};

fn main() {
    functional_agreement();
    println!();
    modeled_strong_scaling();
    modeled_grid_scaling();
}

/// Part 1 — run the *same* solve on 1, 2, and 4 thread-GPUs and show the
/// answers agree to solver tolerance (the parallelization is exact).
fn functional_agreement() {
    let dims = LatticeDims::new(4, 4, 4, 8);
    let cfg = weak_field(dims, 0.12, 99);
    let b = random_spinor_field(dims, 100);
    println!("functional agreement on {dims} (double precision, tol 1e-11):");
    let mut reference: Option<quda_fields::host::HostSpinorField> = None;
    for ranks in [1usize, 2, 4] {
        let mut quda = Quda::new(ranks).unwrap();
        quda.load_gauge(cfg.clone()).unwrap();
        let p = QudaInvertParam::paper_mode(PrecisionMode::Double, ranks)
            .with_mass(0.3)
            .with_tol(1e-11);
        let (x, stats) = quda.invert(&b, &p).unwrap();
        let dist = reference.as_ref().map(|r| r.max_site_dist(&x)).unwrap_or(0.0);
        println!(
            "  {ranks} rank(s): {} iterations, residual {:.2e}, max site distance to 1-rank {:.2e}",
            stats.iterations, stats.true_residual, dist
        );
        assert!(stats.converged);
        if let Some(r) = &reference {
            assert!(r.max_site_dist(&x) < 1e-9);
        } else {
            reference = Some(x);
        }
    }
}

/// Part 2 — the calibrated model's strong-scaling table at the paper's
/// volumes (compare with Fig. 5).
fn modeled_strong_scaling() {
    let big = LatticeDims::spatial_cube(32, 256);
    let small = LatticeDims::spatial_cube(24, 128);
    for (name, dims) in [("32^3x256", big), ("24^3x128", small)] {
        println!("modeled strong scaling, V = {name}, single-half, GTX 285 cluster:");
        println!(
            "  {:>5} {:>16} {:>16} {:>10}",
            "GPUs", "overlap Gflops", "no-ovlp Gflops", "comm %"
        );
        for gpus in [2usize, 4, 8, 16, 32] {
            let Ok(plan) = DecompPlan::try_new(dims, [1, 1, 1, gpus]) else {
                continue;
            };
            let ov = PerfInput::paper(plan, PrecisionMode::SingleHalf, CommStrategy::Overlap);
            let no = evaluate(&PerfInput { strategy: CommStrategy::NoOverlap, ..ov });
            let ov = evaluate(&ov);
            let fits = if ov.fits_memory { "" } else { "  (exceeds device memory)" };
            println!(
                "  {:>5} {:>16.0} {:>16.0} {:>9.1}%{}",
                gpus,
                ov.sustained_gflops,
                no.sustained_gflops,
                ov.comm_fraction * 100.0,
                fits
            );
        }
        println!();
    }
}

/// Part 3 — past the 1-d slice's reach: up to 512 simulated ranks need a
/// multi-dimensional process grid (Section VI-A future work; the
/// dimension-generic exchange makes these grids real, not just modeled).
fn modeled_grid_scaling() {
    let sweep = (2..=9).map(|log2| 1usize << log2);
    let row = |ranks: usize, dims: LatticeDims| {
        let inp = PerfInput::paper(
            DecompPlan::new(dims, [1, 1, 1, 1]),
            PrecisionMode::Single,
            CommStrategy::NoOverlap,
        );
        let t_only = DecompPlan::try_new(dims, [1, 1, 1, ranks])
            .ok()
            .map(|plan| evaluate(&PerfInput { plan, ..inp }).sustained_gflops);
        match (t_only, best_grid(&inp, ranks)) {
            (Some(t), Some((g, b))) => println!(
                "    {ranks:>5} {t:>14.0} {b:>14.0} {:>12} {:>9.1}%",
                g.to_string(),
                100.0 * (b / t - 1.0)
            ),
            (None, Some((g, b))) => {
                println!(
                    "    {ranks:>5} {:>14} {b:>14.0} {:>12} {:>10}  (1-d impossible)",
                    "-",
                    g.to_string(),
                    "-"
                )
            }
            _ => println!("    {ranks:>5} no valid grid"),
        }
    };
    let header = || {
        println!(
            "    {:>5} {:>14} {:>14} {:>12} {:>10}",
            "GPUs", "T-only Gflops", "best Gflops", "best grid", "md gain"
        )
    };
    println!("modeled multi-dimensional scaling, single precision, no overlap:");
    println!("  strong scaling, V = 32^3x256:");
    header();
    for ranks in sweep.clone() {
        row(ranks, LatticeDims::spatial_cube(32, 256));
    }
    println!("  weak scaling, V = 32^3x(2 GPUs):");
    header();
    for ranks in sweep {
        row(ranks, LatticeDims::new(32, 32, 32, 2 * ranks));
    }
    println!("\npaper: the 1-d slice was chosen for the asymmetric production lattices and");
    println!("simplicity; beyond ~T/4 GPUs the surface/volume ratio favors a 2-d grid,");
    println!("and past T/2 the 1-d slice is impossible (local T extent < 2).");
}
