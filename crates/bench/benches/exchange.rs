//! Criterion benchmarks of the parallelization machinery itself: the wire
//! frame, face gather/scatter, ghost exchange across thread-ranks, and the
//! parallel operator application in both communication strategies.

use criterion::{criterion_group, criterion_main, Criterion};
use quda_dirac::WilsonParams;
use quda_fields::gauge_gen::{random_spinor_field, weak_field};
use quda_fields::precision::{Double, Single};
use quda_fields::SpinorFieldCb;
use quda_lattice::geometry::{LatticeDims, Parity, DIR_T};
use quda_lattice::partition::DecompPlan;
use quda_lattice::stencil::Stencil;
use quda_math::gamma::{GammaBasis, SpinBasis};
use quda_math::spinor::HALF_SPINOR_REALS;
use quda_multigpu::ghost::{recv_faces, send_faces};
use quda_multigpu::rank_op::{CommStrategy, ParallelWilsonCloverOp};
use quda_solvers::operator::LinearOperator;
use std::hint::black_box;
use std::slice::{from_mut, from_ref};

fn dims() -> LatticeDims {
    LatticeDims::new(8, 8, 8, 8)
}

/// The per-message wire cost: `Frame::seal` + `Frame::verify` (checksum
/// on both ends) of one face, and a double-precision face exchange looped
/// back through a one-rank world at the 8³×8 rank shape.
fn bench_wire(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire");
    // One service-rank face (4³ slice, double) and one solve_volume rank
    // face (8³ slice, double): checkerboarded sites × 12 reals × 8 B.
    for (name, face_sites) in [("frame_unframe_3072B", 32), ("frame_unframe_24576B", 256)] {
        let mut frame = quda_comm::pack_f64(&vec![0.25; face_sites * HALF_SPINOR_REALS]);
        group.bench_function(name, |b| {
            b.iter(|| {
                let frame = black_box(&mut frame);
                frame.seal();
                frame.verify().expect("frame")
            })
        });
    }
    let d = dims();
    let host = random_spinor_field(d, 1);
    let basis = SpinBasis::new(GammaBasis::NonRelativistic);
    let stencil = Stencil::new(d, true);
    let plan = DecompPlan::new(d, [1, 1, 1, 1]);
    let mut world = quda_comm::comm_world(1);
    let mut comm = world.pop().unwrap();
    let mut f = SpinorFieldCb::<Double>::new(d, true);
    f.upload(&host, Parity::Odd);
    group.bench_function("loopback_faces_double", |b| {
        b.iter(|| {
            let comm = black_box(&mut comm);
            let (one, odd) = (&[true], Parity::Odd);
            send_faces(comm, from_ref(&f), one, &basis, &stencil, &plan, DIR_T, odd, false)
                .expect("send");
            recv_faces(comm, from_mut(&mut f), one, &plan, DIR_T).expect("recv")
        })
    });
    group.finish();
}

fn bench_ghost_exchange(c: &mut Criterion) {
    let d = dims();
    let host = random_spinor_field(d, 1);
    let basis = SpinBasis::new(GammaBasis::NonRelativistic);
    let stencil = Stencil::new(d, true);
    // A single-rank plan: the T faces loop back to the sender.
    let plan = DecompPlan::new(d, [1, 1, 1, 1]);
    let mut group = c.benchmark_group("ghost");
    group.sample_size(20);
    group.bench_function("self_exchange_single", |b| {
        let mut world = quda_comm::comm_world(1);
        let mut comm = world.pop().unwrap();
        let mut f = SpinorFieldCb::<Single>::new(d, true);
        f.upload(&host, Parity::Odd);
        b.iter(|| {
            let comm = black_box(&mut comm);
            let (one, odd) = (&[true], Parity::Odd);
            send_faces(comm, from_ref(&f), one, &basis, &stencil, &plan, DIR_T, odd, false)
                .expect("send");
            recv_faces(comm, from_mut(&mut f), one, &plan, DIR_T).expect("recv")
        })
    });
    group.finish();
}

fn bench_parallel_matpc(c: &mut Criterion) {
    let d = dims();
    let cfg = weak_field(d, 0.1, 5);
    let wp = WilsonParams { mass: 0.2, c_sw: 1.0 };
    let plan = DecompPlan::new(d, [1, 1, 1, 1]);
    let mut group = c.benchmark_group("parallel_matpc");
    group.sample_size(10);
    for strategy in [CommStrategy::NoOverlap, CommStrategy::Overlap] {
        let mut world = quda_comm::comm_world(1);
        let comm = world.pop().unwrap();
        let mut op = ParallelWilsonCloverOp::<Single>::new(&cfg, plan, 0, comm, wp, strategy)
            .expect("op init");
        let host = random_spinor_field(d, 6);
        let mut x = op.alloc();
        x.upload(&host, Parity::Odd);
        let mut out = op.alloc();
        let name = format!("{strategy:?}");
        let (out, x) = (from_mut(&mut out), from_mut(&mut x));
        group
            .bench_function(&name, |b| b.iter(|| op.apply(black_box(&mut *out), &mut *x, &[true])));
    }
    group.finish();
}

criterion_group!(benches, bench_wire, bench_ghost_exchange, bench_parallel_matpc);
criterion_main!(benches);
