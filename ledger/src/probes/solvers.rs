//! `quda-solvers`: the streamed BLAS kernels on the kernel lattice and the
//! checkpoint round trip on one rank's block of the `solve_volume_*`
//! problem. Bytes are the kernels' own `BlasCounters` reals times the
//! storage width, so bandwidth is *computed*.

use quda_fields::gauge_gen::random_spinor_field;
use quda_fields::precision::{Double, Half, Precision};
use quda_fields::SpinorFieldCb;
use quda_lattice::geometry::Parity;
use quda_solvers::blas::{self, BlasCounters};
use quda_solvers::checkpoint::{CheckpointCounters, SolverCheckpoint};

use super::{rank_dims, Bench, Values, CALLS, KERNEL_DIMS};
use crate::workloads::{dims, SOLVE_DIMS};

fn pair<P: Precision>(bench: &Bench) -> (SpinorFieldCb<P>, SpinorFieldCb<P>) {
    let d = dims(KERNEL_DIMS);
    let mut x = SpinorFieldCb::<P>::new(d, true);
    let mut y = SpinorFieldCb::<P>::new(d, true);
    x.upload(&random_spinor_field(d, bench.seed + 1), Parity::Odd);
    y.upload(&random_spinor_field(d, bench.seed + 2), Parity::Odd);
    (x, y)
}

pub fn run(bench: &mut Bench) -> Values {
    let mut c = BlasCounters::default();
    let (x, mut y) = pair::<Double>(bench);
    // a = 0 keeps y bounded over repeated calls without changing the work.
    blas::axpy(0.0, &x, &mut y, &mut c);
    let axpy_bytes = c.reals as f64 * Double::STORAGE_BYTES as f64;
    let axpy = bench.sample("solvers.axpy", CALLS, || blas::axpy(0.0, &x, &mut y, &mut c));
    let xmy_norm = bench.sample("solvers.xmy_norm", CALLS, || {
        std::hint::black_box(blas::xmy_norm(&x, &mut y, &mut c));
    });
    let cdot = bench.sample("solvers.cdot", CALLS, || {
        std::hint::black_box(blas::cdot(&x, &y, &mut c));
    });
    let (xh, mut yh) = pair::<Half>(bench);
    let axpy_half =
        bench.sample("solvers.axpy_half", CALLS, || blas::axpy(0.0, &xh, &mut yh, &mut c));

    // What one rank deposits at a reliable-update boundary: x and r.
    let local = rank_dims(dims(SOLVE_DIMS));
    let mut lx = SpinorFieldCb::<Double>::new(local, true);
    lx.upload(&random_spinor_field(local, bench.seed + 3), Parity::Odd);
    let lr = lx.clone();
    let mut restored = SpinorFieldCb::<Double>::new(local, true);
    let mut ckpt_bytes = 0;
    let ckpt = bench.sample("solvers.ckpt_roundtrip", CALLS, || {
        let snap = SolverCheckpoint::capture(CheckpointCounters::default(), &lx, Some(&lr));
        let bytes = snap.to_bytes();
        ckpt_bytes = bytes.len();
        let back = SolverCheckpoint::from_bytes(&bytes).expect("own bytes decode");
        back.restore_x(&mut restored).expect("same shape");
    });

    Values::from([
        ("solvers.axpy_us", axpy * 1e6),
        ("solvers.xmy_norm_us", xmy_norm * 1e6),
        ("solvers.cdot_us", cdot * 1e6),
        ("solvers.blas_gbs_computed", axpy_bytes / axpy / 1e9),
        ("solvers.axpy_half_us", axpy_half * 1e6),
        ("solvers.ckpt_roundtrip_us", ckpt * 1e6),
        ("solvers.ckpt_bytes", ckpt_bytes as f64),
    ])
}
