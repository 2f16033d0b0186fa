//! Criterion benchmarks of complete solves in the paper's precision modes,
//! plus the reliable-updates vs defect-correction ablation (Section V-D).

use criterion::{criterion_group, criterion_main, Criterion};
use quda_dirac::{WilsonCloverOp, WilsonParams};
use quda_fields::gauge_gen::{random_spinor_field, weak_field};
use quda_fields::precision::{Double, Half, Single};
use quda_lattice::geometry::{LatticeDims, Parity};
use quda_solvers::operator::MatPcOp;
use quda_solvers::params::SolverParams;
use quda_solvers::{bicgstab, bicgstab_defect_correction, bicgstab_reliable, blas, cgnr};
use std::hint::black_box;
use std::slice::{from_mut, from_ref};

fn dims() -> LatticeDims {
    LatticeDims::new(4, 4, 4, 8)
}

fn bench_uniform_solvers(c: &mut Criterion) {
    let d = dims();
    let cfg = weak_field(d, 0.12, 31);
    let wp = WilsonParams { mass: 0.25, c_sw: 1.0 };
    let host = random_spinor_field(d, 32);
    let mut group = c.benchmark_group("solve_uniform");
    group.sample_size(10);

    let mut op64 = MatPcOp::new(WilsonCloverOp::<Double>::from_config(&cfg, wp));
    let mut b64 = quda_solvers::operator::LinearOperator::alloc(&op64);
    b64.upload(&host, Parity::Odd);
    group.bench_function("bicgstab_double_1e-10", |b| {
        b.iter(|| {
            let mut x = quda_solvers::operator::LinearOperator::alloc(&op64);
            blas::zero(&mut x);
            black_box(bicgstab(
                &mut op64,
                from_mut(&mut x),
                from_ref(&b64),
                &SolverParams { tol: 1e-10, max_iter: 500, delta: 0.0 },
                &mut [],
            ))
        })
    });
    group.bench_function("cgnr_double_1e-10", |b| {
        b.iter(|| {
            let mut x = quda_solvers::operator::LinearOperator::alloc(&op64);
            blas::zero(&mut x);
            black_box(cgnr(
                &mut op64,
                from_mut(&mut x),
                from_ref(&b64),
                &SolverParams { tol: 1e-10, max_iter: 1000, delta: 0.0 },
                &mut [],
            ))
        })
    });

    let mut op32 = MatPcOp::new(WilsonCloverOp::<Single>::from_config(&cfg, wp));
    let mut b32 = quda_solvers::operator::LinearOperator::alloc(&op32);
    b32.upload(&host, Parity::Odd);
    group.bench_function("bicgstab_single_1e-5", |b| {
        b.iter(|| {
            let mut x = quda_solvers::operator::LinearOperator::alloc(&op32);
            blas::zero(&mut x);
            black_box(bicgstab(
                &mut op32,
                from_mut(&mut x),
                from_ref(&b32),
                &SolverParams { tol: 1e-5, max_iter: 500, delta: 0.0 },
                &mut [],
            ))
        })
    });
    group.finish();
}

fn bench_mixed_solvers(c: &mut Criterion) {
    let d = dims();
    let cfg = weak_field(d, 0.12, 41);
    let wp = WilsonParams { mass: 0.25, c_sw: 1.0 };
    let host = random_spinor_field(d, 42);
    let mut group = c.benchmark_group("solve_mixed");
    group.sample_size(10);

    let mut hi = MatPcOp::new(WilsonCloverOp::<Double>::from_config(&cfg, wp));
    let mut lo_half = MatPcOp::new(WilsonCloverOp::<Half>::from_config(&cfg, wp));
    let mut lo_single = MatPcOp::new(WilsonCloverOp::<Single>::from_config(&cfg, wp));
    let mut b = quda_solvers::operator::LinearOperator::alloc(&hi);
    b.upload(&host, Parity::Odd);
    let params = SolverParams { tol: 1e-10, max_iter: 3000, delta: 1e-2 };

    group.bench_function("reliable_double_half", |bch| {
        bch.iter(|| {
            let mut x = quda_solvers::operator::LinearOperator::alloc(&hi);
            blas::zero(&mut x);
            black_box(bicgstab_reliable(
                &mut hi,
                &mut lo_half,
                from_mut(&mut x),
                from_ref(&b),
                &params,
                &mut [],
            ))
        })
    });
    group.bench_function("reliable_double_single", |bch| {
        bch.iter(|| {
            let mut x = quda_solvers::operator::LinearOperator::alloc(&hi);
            blas::zero(&mut x);
            black_box(bicgstab_reliable(
                &mut hi,
                &mut lo_single,
                from_mut(&mut x),
                from_ref(&b),
                &params,
                &mut [],
            ))
        })
    });
    group.bench_function("defect_correction_double_single", |bch| {
        bch.iter(|| {
            let mut x = quda_solvers::operator::LinearOperator::alloc(&hi);
            blas::zero(&mut x);
            black_box(bicgstab_defect_correction(
                &mut hi,
                &mut lo_single,
                &mut x,
                &b,
                &params,
                1e-2,
            ))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_uniform_solvers, bench_mixed_solvers);
criterion_main!(benches);
