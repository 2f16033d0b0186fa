//! Visualize the mechanism of Section V-D: the iterated residual of a
//! mixed-precision solve with reliable updates, next to a uniform-precision
//! solve of the same system. The mixed trace shows the characteristic
//! sawtooth — sloppy iterations drift optimistically low, and each
//! high-precision replacement snaps the estimate back to the truth —
//! "allowing the bulk of the computation to be performed in fast low
//! precision, with periodic updates in high precision".
//!
//! ```text
//! cargo run --release --example convergence_history
//! ```

use quda_dirac::{WilsonCloverOp, WilsonParams};
use quda_fields::gauge_gen::{random_spinor_field, weak_field};
use quda_fields::precision::{Double, Half};
use quda_lattice::geometry::{LatticeDims, Parity};
use quda_solvers::operator::{LinearOperator, MatPcOp};
use quda_solvers::params::SolverParams;
use quda_solvers::{bicgstab, bicgstab_reliable, blas};
use std::slice::{from_mut, from_ref};

fn bar(log_r: f64) -> String {
    // Map log10(residual) in [-12, 0] to a bar of 48 chars.
    let width = ((-log_r) / 12.0 * 48.0).clamp(0.0, 48.0) as usize;
    "#".repeat(width)
}

fn main() {
    let dims = LatticeDims::new(4, 4, 4, 8);
    let cfg = weak_field(dims, 0.12, 2718);
    let wp = WilsonParams { mass: 0.25, c_sw: 1.0 };
    let host = random_spinor_field(dims, 2719);

    let mut hi = MatPcOp::new(WilsonCloverOp::<Double>::from_config(&cfg, wp));
    let mut lo = MatPcOp::new(WilsonCloverOp::<Half>::from_config(&cfg, wp));
    let mut b = hi.alloc();
    b.upload(&host, Parity::Odd);
    let params = SolverParams { tol: 1e-11, max_iter: 2000, delta: 1e-1 };

    let mut x1 = hi.alloc();
    blas::zero(&mut x1);
    let pure = bicgstab(&mut hi, from_mut(&mut x1), from_ref(&b), &params, &mut []).remove(0);
    let mut x2 = hi.alloc();
    blas::zero(&mut x2);
    let mixed =
        bicgstab_reliable(&mut hi, &mut lo, from_mut(&mut x2), from_ref(&b), &params, &mut [])
            .remove(0);

    println!(
        "uniform double BiCGstab ({} iterations, residual {:.1e}):",
        pure.iterations, pure.final_residual
    );
    print_history(&pure.residual_history);
    println!();
    println!(
        "mixed double-half with reliable updates ({} iterations, {} updates, residual {:.1e}):",
        mixed.iterations, mixed.reliable_updates, mixed.final_residual
    );
    println!("(watch for upward snaps: high-precision residual replacements)");
    print_history(&mixed.residual_history);

    assert!(pure.converged && mixed.converged);
    // The mechanism's signature: the mixed history is non-monotone (it
    // jumps up at reliable updates) while converging overall.
    let ups = mixed.residual_history.windows(2).filter(|w| w[1] > w[0] * 1.5).count();
    println!("\nupward corrections in the mixed trace: {ups}");
}

fn print_history(history: &[f64]) {
    let stride = (history.len() / 24).max(1);
    for (i, &r) in history.iter().enumerate() {
        if i % stride == 0 || i + 1 == history.len() {
            println!("  {:>4} {:>9.2e} |{}", i + 1, r, bar(r.log10()));
        }
    }
}
