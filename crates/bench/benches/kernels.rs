//! Criterion microbenchmarks of the compute kernels: the Wilson-clover
//! hopping term in all three precisions, the clover multiply, the fused
//! blas routines, and the layout/projector primitives they are built from.
//!
//! These measure the *functional* Rust kernels on the host CPU. They do not
//! reproduce GPU numbers (the calibrated model does that); they exist to
//! track the relative cost structure — e.g. dslash ≫ clover ≫ blas per
//! site, and the modest overhead of half-precision (de)quantization.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use quda_dirac::dslash::{dslash_cb, DslashRegion};
use quda_dirac::{WilsonCloverOp, WilsonParams};
use quda_fields::gauge_gen::{random_spinor_field, weak_field};
use quda_fields::precision::{Double, Half, Single};
use quda_fields::SpinorFieldCb;
use quda_lattice::geometry::{LatticeDims, Parity};
use quda_lattice::layout::{species, NVec};
use quda_math::gamma::{GammaBasis, SpinBasis};
use quda_solvers::blas::{self, BlasCounters};
use std::hint::black_box;

fn dims() -> LatticeDims {
    LatticeDims::new(8, 8, 8, 8)
}

fn bench_dslash(c: &mut Criterion) {
    let d = dims();
    let cfg = weak_field(d, 0.1, 1);
    let host = random_spinor_field(d, 2);
    let basis = SpinBasis::new(GammaBasis::NonRelativistic);
    let stencil = quda_lattice::stencil::Stencil::new(d, false);
    let mut group = c.benchmark_group("dslash");
    group.throughput(Throughput::Elements(d.half_volume() as u64));
    group.sample_size(10);

    macro_rules! bench_prec {
        ($p:ty, $name:expr) => {{
            let mut gauge = quda_fields::GaugeFieldCb::<$p>::new(d, true);
            gauge.upload(&cfg);
            let mut input = SpinorFieldCb::<$p>::new(d, false);
            input.upload(&host, Parity::Odd);
            let mut out = SpinorFieldCb::<$p>::new(d, false);
            group.bench_function(BenchmarkId::new("full", $name), |b| {
                b.iter(|| {
                    dslash_cb(
                        black_box(&mut out),
                        &gauge,
                        &input,
                        Parity::Even,
                        &stencil,
                        &basis,
                        false,
                        DslashRegion::All,
                    )
                })
            });
        }};
    }
    bench_prec!(Double, "double");
    bench_prec!(Single, "single");
    bench_prec!(Half, "half");
    group.finish();
}

fn bench_matpc(c: &mut Criterion) {
    let d = dims();
    let cfg = weak_field(d, 0.1, 3);
    let host = random_spinor_field(d, 4);
    let mut group = c.benchmark_group("matpc");
    group.throughput(Throughput::Elements(d.half_volume() as u64));
    group.sample_size(10);

    macro_rules! bench_prec {
        ($p:ty, $name:expr) => {{
            let op = WilsonCloverOp::<$p>::from_config(&cfg, WilsonParams { mass: 0.2, c_sw: 1.0 });
            let mut x = op.alloc_spinor();
            x.upload(&host, Parity::Odd);
            let mut out = op.alloc_spinor();
            let (mut t1, mut t2) = (op.alloc_spinor(), op.alloc_spinor());
            group.bench_function($name, |b| {
                b.iter(|| op.apply_matpc(black_box(&mut out), &x, &mut t1, &mut t2, false))
            });
        }};
    }
    bench_prec!(Double, "double");
    bench_prec!(Single, "single");
    bench_prec!(Half, "half");
    group.finish();
}

fn bench_blas(c: &mut Criterion) {
    let d = dims();
    let host = random_spinor_field(d, 5);
    let mut x = SpinorFieldCb::<Single>::new(d, false);
    x.upload(&host, Parity::Odd);
    let mut y = SpinorFieldCb::<Single>::new(d, false);
    y.upload(&host, Parity::Even);
    let mut group = c.benchmark_group("blas");
    group.throughput(Throughput::Elements(d.half_volume() as u64));
    group.sample_size(20);
    let mut counters = BlasCounters::default();
    group.bench_function("axpy", |b| {
        b.iter(|| blas::axpy(0.5, &x, black_box(&mut y), &mut counters))
    });
    group.bench_function("norm2", |b| b.iter(|| black_box(blas::norm2(&x, &mut counters))));
    group.bench_function("cdot", |b| b.iter(|| black_box(blas::cdot(&x, &y, &mut counters))));
    group.bench_function("caxpy_norm", |b| {
        b.iter(|| {
            black_box(blas::caxpy_norm(
                quda_math::complex::C64::new(0.1, -0.2),
                &x,
                black_box(&mut y),
                &mut counters,
            ))
        })
    });
    group.finish();
}

fn bench_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("primitives");
    // Layout indexing (Eq. 5).
    let d = dims();
    let layout = species::spinor_cb(&d, NVec::N4);
    group.bench_function("layout_index", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for site in (0..layout.sites).step_by(7) {
                for n in 0..24 {
                    acc = acc.wrapping_add(layout.index(site, n));
                }
            }
            black_box(acc)
        })
    });
    // Projector roundtrip.
    let basis = SpinBasis::new(GammaBasis::NonRelativistic);
    let sp = random_spinor_field(LatticeDims::new(2, 2, 2, 2), 9).data[0];
    group.bench_function("project_reconstruct", |b| {
        b.iter(|| {
            let mut acc = quda_math::spinor::Spinor::<f64>::zero();
            for mu in 0..4 {
                let p = &basis.proj[mu][1];
                acc += p.reconstruct(&p.project(black_box(&sp)));
            }
            black_box(acc)
        })
    });
    // SU(3) compress/reconstruct.
    let u = weak_field(LatticeDims::new(2, 2, 2, 2), 0.2, 1).links[3];
    group.bench_function("su3_reconstruct", |b| {
        b.iter(|| black_box(black_box(&u).compress().reconstruct()))
    });
    // Half-precision quantization of one spinor.
    let reals: [f32; 24] = std::array::from_fn(|i| (i as f32 * 0.31).sin());
    group.bench_function("fixed16_quantize_spinor", |b| {
        b.iter(|| {
            let mut out = [quda_math::half::Fixed16::default(); 24];
            black_box(quda_math::half::encode_site(
                black_box(&reals),
                &mut out,
                quda_math::half::Fixed16::quantize,
            ))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_dslash, bench_matpc, bench_blas, bench_primitives);
criterion_main!(benches);
