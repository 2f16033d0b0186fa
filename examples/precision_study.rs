//! Precision study: solve the same system in every mode of Section VII-A
//! and compare iterations, residuals, and the modeled performance; then run
//! the reliable-updates vs defect-correction ablation of Section V-D.
//!
//! ```text
//! cargo run --release --example precision_study
//! ```

use quda_core::{PrecisionMode, Quda, QudaInvertParam};
use quda_dirac::{WilsonCloverOp, WilsonParams};
use quda_fields::gauge_gen::{random_spinor_field, weak_field};
use quda_fields::precision::{Double, Single};
use quda_lattice::geometry::{LatticeDims, Parity};
use quda_solvers::operator::MatPcOp;
use quda_solvers::params::SolverParams;
use quda_solvers::{bicgstab_defect_correction, bicgstab_reliable, blas};

fn main() {
    mode_comparison();
    println!();
    reliable_vs_defect_correction();
}

fn mode_comparison() {
    let dims = LatticeDims::new(4, 4, 4, 8);
    let cfg = weak_field(dims, 0.12, 55);
    let b = random_spinor_field(dims, 56);
    println!("precision-mode comparison on {dims} (2 simulated GPUs):");
    println!(
        "  {:>13} {:>8} {:>6} {:>8} {:>12} {:>10} {:>12}",
        "mode", "target", "iters", "updates", "residual", "Gflops", "mem/GPU MiB"
    );
    let modes = [
        (PrecisionMode::Double, 1e-12),
        (PrecisionMode::Single, 1e-6),
        (PrecisionMode::SingleHalf, 1e-6),
        (PrecisionMode::DoubleHalf, 1e-12),
        (PrecisionMode::DoubleSingle, 1e-12),
    ];
    for (mode, tol) in modes {
        let mut quda = Quda::new(2).unwrap();
        quda.load_gauge(cfg.clone()).unwrap();
        let p = QudaInvertParam::paper_mode(mode, 2).with_mass(0.3).with_tol(tol);
        let (_, stats) = quda.invert(&b, &p).unwrap();
        println!(
            "  {:>13} {:>8.0e} {:>6} {:>8} {:>12.2e} {:>10.0} {:>12.1}",
            mode.name(),
            tol,
            stats.iterations,
            stats.reliable_updates,
            stats.true_residual,
            stats.modeled_gflops,
            stats.memory_per_gpu as f64 / (1024.0 * 1024.0)
        );
        assert!(stats.converged, "{} failed to converge", mode.name());
    }
}

/// Section V-D: reliable updates preserve a single Krylov space, "as opposed
/// to the traditional approach of defect correction which explicitly
/// restarts the Krylov space with every correction, increasing the total
/// number of solver iterations."
fn reliable_vs_defect_correction() {
    let dims = LatticeDims::new(4, 4, 4, 4);
    // A disordered field gives an ill-conditioned matrix where the restart
    // penalty is clearly visible.
    let cfg = quda_fields::gauge_gen::random_field(dims, 77);
    let wp = WilsonParams { mass: 0.05, c_sw: 1.0 };
    let mut hi = MatPcOp::new(WilsonCloverOp::<Double>::from_config(&cfg, wp));
    let mut lo = MatPcOp::new(WilsonCloverOp::<Single>::from_config(&cfg, wp));
    let host = random_spinor_field(dims, 78);
    let mut b = quda_solvers::operator::LinearOperator::alloc(&hi);
    b.upload(&host, Parity::Odd);
    let params = SolverParams { tol: 1e-8, max_iter: 20_000, delta: 1e-1 };

    let mut x1 = quda_solvers::operator::LinearOperator::alloc(&hi);
    blas::zero(&mut x1);
    let rel = bicgstab_reliable(
        &mut hi,
        &mut lo,
        std::slice::from_mut(&mut x1),
        std::slice::from_ref(&b),
        &params,
        &mut [],
    )
    .remove(0);
    let mut x2 = quda_solvers::operator::LinearOperator::alloc(&hi);
    blas::zero(&mut x2);
    let dc = bicgstab_defect_correction(&mut hi, &mut lo, &mut x2, &b, &params, 1e-1);

    println!("mixed-precision strategy ablation (disordered field, double-single, tol 1e-8):");
    println!(
        "  reliable updates:  {:>5} iterations, {:>2} updates, residual {:.2e}",
        rel.iterations, rel.reliable_updates, rel.final_residual
    );
    println!(
        "  defect correction: {:>5} iterations, {:>2} restarts, residual {:.2e}",
        dc.iterations, dc.reliable_updates, dc.final_residual
    );
    let penalty = dc.iterations as f64 / rel.iterations.max(1) as f64;
    println!("  restart penalty: {penalty:.2}x iterations");
}
