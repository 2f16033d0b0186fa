//! Property-based tests of the parallelization layer: over randomized
//! volumes, rank counts, precisions, and strategies, the partitioned
//! operator must agree with the single-device one, and the performance
//! model must respect its structural invariants.

use proptest::prelude::*;
use quda_comm::{tags, Frame};
use quda_dirac::{gather_face_site, WilsonCloverOp, WilsonParams};
use quda_fields::gauge_gen::{random_spinor_field, weak_field};
use quda_fields::host::HostSpinorField;
use quda_fields::precision::{Double, Half, Precision, Quarter, Single};
use quda_fields::SpinorFieldCb;
use quda_lattice::geometry::{Coord, LatticeDims, Parity, DIR_T};
use quda_lattice::partition::DecompPlan;
use quda_lattice::stencil::Stencil;
use quda_math::gamma::{GammaBasis, SpinBasis};
use quda_math::half;
use quda_math::real::Real;
use quda_math::spinor::{HalfSpinor, HALF_SPINOR_REALS};
use quda_multigpu::ghost::recv_faces;
use quda_multigpu::perf::{candidate_plans, evaluate, PerfInput};
use quda_multigpu::rank_op::{CommStrategy, ParallelWilsonCloverOp};
use quda_multigpu::{
    decode_face_into, exchange_spinor_ghosts, face_wire_bytes, gather_spinor, slice_spinor,
    PrecisionMode,
};
use quda_solvers::operator::LinearOperator;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::slice::from_mut;

/// The codec's wire round trip, recomputed from the same public
/// `quantize_sites16/8` helpers the exchange uses: what a face value looks
/// like after gather → quantize → wire → dequantize at precision `P`.
fn wire_round_trip<P: Precision>(values: &[f64]) -> Vec<f64> {
    match (P::NEEDS_NORM, P::STORAGE_BYTES) {
        (false, 8) => values.to_vec(),
        (false, _) => values.iter().map(|&x| x as f32 as f64).collect(),
        (true, 1) => {
            let (mut ints, mut norms) = (Vec::new(), Vec::new());
            half::quantize_sites8(values, HALF_SPINOR_REALS, &mut ints, &mut norms);
            let mut out = Vec::new();
            half::dequantize_sites8(&ints, &norms, HALF_SPINOR_REALS, &mut out);
            out
        }
        (true, _) => {
            let (mut ints, mut norms) = (Vec::new(), Vec::new());
            half::quantize_sites16(values, HALF_SPINOR_REALS, &mut ints, &mut norms);
            let mut out = Vec::new();
            half::dequantize_sites16(&ints, &norms, HALF_SPINOR_REALS, &mut out);
            out
        }
    }
}

/// Full gather→quantize→wire→dequantize→scatter round trip across a
/// 2-rank world cut along `dim`: after the exchange, every ghost value
/// must exactly equal the wire round trip of the peer's gathered face
/// (then narrowed to `P`'s arithmetic type, as the scatter stores it).
fn codec_round_trip<P: Precision>(
    gdims: LatticeDims,
    dim: usize,
    parity: Parity,
    dagger: bool,
    seed: u64,
) {
    let mut grid = [1usize; 4];
    grid[dim] = 2;
    let plan = DecompPlan::new(gdims, grid);
    let d = plan.local_dims();
    let basis = SpinBasis::new(GammaBasis::NonRelativistic);
    let stencil = Stencil::with_open(d, plan.open_dims());
    let hosts = [random_spinor_field(d, seed), random_spinor_field(d, seed + 1)];
    let world = quda_comm::comm_world(2);
    let handles: Vec<_> = world
        .into_iter()
        .zip(hosts.clone())
        .map(|(mut comm, host)| {
            let basis = basis.clone();
            let stencil = stencil.clone();
            std::thread::spawn(move || {
                let mut f = SpinorFieldCb::<P>::new_open(d, plan.open_dims());
                f.upload(&host, parity);
                exchange_spinor_ghosts(
                    &mut comm,
                    from_mut(&mut f),
                    &[true],
                    &basis,
                    &stencil,
                    &plan,
                    parity,
                    dagger,
                )
                .expect("exchange");
                (comm.rank(), f)
            })
        })
        .collect();
    let mut results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    results.sort_by_key(|(r, _)| *r);
    for (rank, field) in &results {
        // Both neighbors on a 2-rank ring are the peer.
        let peer = 1 - rank;
        let mut pf = SpinorFieldCb::<P>::new_open(d, plan.open_dims());
        pf.upload(&hosts[peer], parity);
        let faces = pf.face_sites(dim);
        // backward ghost ← peer's forward-sent face; forward ghost ← the
        // peer's backward-sent face.
        for (backward, to_forward) in [(true, true), (false, false)] {
            let mut vals = Vec::with_capacity(faces * HALF_SPINOR_REALS);
            for f in 0..faces {
                let h = gather_face_site(&pf, &basis, &stencil, dim, to_forward, f, parity, dagger);
                for x in h.to_reals() {
                    vals.push(x.to_f64());
                }
            }
            let rt = wire_round_trip::<P>(&vals);
            for f in 0..faces {
                let got = field.get_ghost(dim, backward, f).to_reals();
                for k in 0..HALF_SPINOR_REALS {
                    let expect = P::Arith::from_f64(rt[f * HALF_SPINOR_REALS + k]).to_f64();
                    assert_eq!(
                        got[k].to_f64(),
                        expect,
                        "rank {rank} dim {dim} backward {backward} face {f} real {k}"
                    );
                }
            }
        }
    }
}

/// Write `sites` (each a norm and 12 storage integers) as the wire payload
/// of one face at precision `P`: every site's elements, then every norm.
fn wire_face<P: Precision>(sites: &[(f32, [i16; HALF_SPINOR_REALS])]) -> Frame {
    let mut frame = Frame::zeroed(face_wire_bytes::<P>(sites.len()));
    let (elems, norms) = frame.split_at_mut(sites.len() * HALF_SPINOR_REALS * P::STORAGE_BYTES);
    let elems = elems.chunks_exact_mut(P::STORAGE_BYTES);
    for (e, &q) in elems.zip(sites.iter().flat_map(|(_, ints)| ints)) {
        // Little-endian: an i8 is the low byte of the same i16.
        e.copy_from_slice(&q.to_le_bytes()[..P::STORAGE_BYTES]);
    }
    for (n, (norm, _)) in norms.chunks_exact_mut(4).zip(sites) {
        n.copy_from_slice(&norm.to_le_bytes());
    }
    frame
}

/// Copying the wire into the ghost zone (what `recv_faces` does) must give
/// `to_bits`-identical `ghost`/`ghost_norm` to dequantising the wire and
/// re-quantising each site through `set_ghost`. `sites` is split over the
/// two T faces of a one-rank world, filled up with all-zero sites.
fn assert_copy_matches_requantise<P>(sites: &[(f32, [i16; HALF_SPINOR_REALS])])
where
    P: Precision,
    P::Elem: PartialEq + std::fmt::Debug,
{
    let d = LatticeDims::new(32, 32, 16, 2);
    let plan = DecompPlan::new(d, [1, 1, 1, 1]);
    let mut world = quda_comm::comm_world(1);
    let mut comm = world.pop().unwrap();
    let faces = d.half_spatial_volume();
    let zero = (1.0f32, [0i16; HALF_SPINOR_REALS]);
    let mut vals = Vec::new();
    let mut copied = SpinorFieldCb::<P>::new(d, true);
    let mut oracle = SpinorFieldCb::<P>::new(d, true);
    for chunk in sites.chunks(2 * faces) {
        let mut chunk = chunk.to_vec();
        chunk.resize(2 * faces, zero);
        for (backward, face_sites) in [(true, &chunk[..faces]), (false, &chunk[faces..])] {
            let wire = wire_face::<P>(face_sites);
            decode_face_into::<P>(&wire, faces, &mut vals).unwrap();
            for (f, site) in vals.chunks_exact(HALF_SPINOR_REALS).enumerate() {
                let mut reals = [P::Arith::ZERO; HALF_SPINOR_REALS];
                for (r, &x) in reals.iter_mut().zip(site) {
                    *r = P::Arith::from_f64(x);
                }
                oracle.set_ghost(DIR_T, backward, f, &HalfSpinor::from_reals(&reals));
            }
            comm.send(0, tags::face(DIR_T, backward), wire).unwrap();
        }
        recv_faces(&mut comm, from_mut(&mut copied), &[true], &plan, DIR_T).unwrap();
        let norms = copied.ghost_norm[DIR_T].iter().zip(&oracle.ghost_norm[DIR_T]);
        if let Some(i) = norms.map(|(c, o)| c.to_bits() == o.to_bits()).position(|same| !same) {
            panic!("{} norm of ghost slot {i} differs for {:?}", P::NAME, chunk[i]);
        }
        if let Some(i) = (0..copied.ghost[DIR_T].len())
            .position(|i| copied.ghost[DIR_T][i] != oracle.ghost[DIR_T][i])
        {
            let (c, o) = (copied.ghost[DIR_T][i], oracle.ghost[DIR_T][i]);
            let site = chunk[i / HALF_SPINOR_REALS];
            panic!("{} ghost real {i}: copied {c:?}, requantised {o:?} for {site:?}", P::NAME);
        }
    }
}

/// Every storage integer `P`'s quantiser produces (`±i16::MAX`, `±i8::MAX`
/// at most: it clamps), in one non-leading slot of a site whose leading
/// slot is at `±max`, as a sup-norm-quantised site always is, over a fixed
/// set of norms: 1.0, the normal f32 extremes, and draws over 2^±30; plus
/// the all-zero site.
fn exhaustive_sites<P: Precision>() -> Vec<(f32, [i16; HALF_SPINOR_REALS])> {
    let max = if P::STORAGE_BYTES == 2 { i16::MAX } else { i8::MAX as i16 };
    let mut rng = SmallRng::seed_from_u64(46);
    let mut norms = vec![1.0f32, f32::MIN_POSITIVE, f32::MAX];
    norms.extend((0..2).map(|_| (rng.gen::<f64>() * 60.0 - 30.0).exp2() as f32));
    // The other slots hold a fixed in-range pattern of both signs.
    let mut ints = [0i16; HALF_SPINOR_REALS];
    for (j, q) in ints.iter_mut().enumerate() {
        *q = (j as i16 * 37 % max) * if j % 2 == 0 { 1 } else { -1 };
    }
    let mut sites = vec![(1.0, [0; HALF_SPINOR_REALS])];
    for &norm in &norms {
        for lead in [max, -max] {
            for v in -max..=max {
                (ints[0], ints[7]) = (lead, v);
                sites.push((norm, ints));
            }
        }
    }
    sites
}

#[test]
fn copying_the_wire_equals_requantising_it() {
    assert_copy_matches_requantise::<Half>(&exhaustive_sites::<Half>());
    assert_copy_matches_requantise::<Quarter>(&exhaustive_sites::<Quarter>());
}

fn coord_get(c: Coord, dim: usize) -> usize {
    [c.x, c.y, c.z, c.t][dim]
}

fn arb_case() -> impl Strategy<Value = (LatticeDims, usize, CommStrategy, bool)> {
    let spatial = prop_oneof![Just(2usize), Just(4)];
    (
        spatial.clone(),
        spatial.clone(),
        spatial,
        prop_oneof![Just(8usize), Just(12)],
        prop_oneof![Just(1usize), Just(2), Just(4)],
        prop_oneof![Just(CommStrategy::NoOverlap), Just(CommStrategy::Overlap)],
        proptest::bool::ANY,
    )
        .prop_filter_map("partition must divide", |(x, y, z, t, ranks, strategy, dagger)| {
            let d = LatticeDims::new(x, y, z, t);
            (t % ranks == 0 && (t / ranks) % 2 == 0 && t / ranks >= 2)
                .then_some((d, ranks, strategy, dagger))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// ISSUE 7 satellite: the per-dimension face codecs round-trip
    /// exactly at every precision, on every axis — including the
    /// non-contiguous strided gathers of X/Y faces on asymmetric local
    /// volumes.
    #[test]
    fn face_codecs_round_trip_on_every_axis_and_precision(
        dim in 0usize..4,
        cut_extent in prop_oneof![Just(4usize), Just(8)],
        other in (
            prop_oneof![Just(2usize), Just(4), Just(6)],
            prop_oneof![Just(2usize), Just(4), Just(6)],
            prop_oneof![Just(2usize), Just(4), Just(6)],
        ),
        odd_parity in proptest::bool::ANY,
        dagger in proptest::bool::ANY,
        seed in 0u64..1000,
    ) {
        let mut ext = [other.0, other.1, other.2, 4];
        ext[dim] = cut_extent;
        let gdims = LatticeDims::new(ext[0], ext[1], ext[2], ext[3]);
        let parity = if odd_parity { Parity::Odd } else { Parity::Even };
        codec_round_trip::<Double>(gdims, dim, parity, dagger, seed);
        codec_round_trip::<Single>(gdims, dim, parity, dagger, seed);
        codec_round_trip::<Half>(gdims, dim, parity, dagger, seed);
        codec_round_trip::<Quarter>(gdims, dim, parity, dagger, seed);
    }

    /// Checkerboard-parity invariant of the face enumeration: every face
    /// coordinate has the requested parity, sits on the fixed slice, and
    /// the enumeration is a bijection onto that slice's parity sites
    /// (`face_index_dim` inverts `face_coord`).
    #[test]
    fn face_enumeration_preserves_checkerboard_parity(
        dim in 0usize..4,
        ext in (
            prop_oneof![Just(2usize), Just(4), Just(6)],
            prop_oneof![Just(2usize), Just(4), Just(6)],
            prop_oneof![Just(2usize), Just(4), Just(6)],
            prop_oneof![Just(2usize), Just(4), Just(6)],
        ),
        odd_parity in proptest::bool::ANY,
        at_far_end in proptest::bool::ANY,
    ) {
        let d = LatticeDims::new(ext.0, ext.1, ext.2, ext.3);
        let parity = if odd_parity { Parity::Odd } else { Parity::Even };
        let fixed = if at_far_end { d.extent(dim) - 1 } else { 0 };
        let n = Stencil::face_sites_dim(&d, dim);
        let mut seen = std::collections::HashSet::new();
        for face in 0..n {
            let c = Stencil::face_coord(&d, dim, parity, fixed, face);
            prop_assert_eq!(c.parity(), parity, "face {} of dim {}", face, dim);
            prop_assert_eq!(coord_get(c, dim), fixed);
            for t in 0..4 {
                prop_assert!(coord_get(c, t) < d.extent(t));
            }
            prop_assert_eq!(Stencil::face_index_dim(&d, c, dim), face, "not inverse at {}", face);
            seen.insert(d.cb_index(c));
        }
        prop_assert_eq!(seen.len(), n, "enumeration revisited a checkerboard site");
    }

    #[test]
    fn parallel_matpc_always_matches_single_device(
        (dims, ranks, strategy, dagger) in arb_case(),
        seed in 0u64..1000,
    ) {
        let cfg = weak_field(dims, 0.15, seed);
        let wp = WilsonParams { mass: 0.25, c_sw: 1.0 };
        let input = random_spinor_field(dims, seed + 1);
        // Single-device reference.
        let ref_op = WilsonCloverOp::<Double>::from_config(&cfg, wp);
        let mut x = ref_op.alloc_spinor();
        x.upload(&input, Parity::Odd);
        let mut out = ref_op.alloc_spinor();
        let (mut t1, mut t2) = (ref_op.alloc_spinor(), ref_op.alloc_spinor());
        ref_op.apply_matpc(&mut out, &x, &mut t1, &mut t2, dagger);
        let mut expect = HostSpinorField::zero(dims);
        out.download(&mut expect, Parity::Odd);
        // Partitioned.
        let plan = DecompPlan::new(dims, [1, 1, 1, ranks]);
        let world = quda_comm::comm_world(ranks);
        let handles: Vec<_> = world
            .into_iter()
            .enumerate()
            .map(|(rank, comm)| {
                let cfg = cfg.clone();
                let input = input.clone();
                std::thread::spawn(move || {
                    let mut op = ParallelWilsonCloverOp::<Double>::new(
                        &cfg, plan, rank, comm, wp, strategy,
                    )
                    .expect("op init");
                    let local = slice_spinor(&input, &plan, rank);
                    let mut x = op.alloc();
                    x.upload(&local, Parity::Odd);
                    let mut out = op.alloc();
                    let (outs, xs) = (from_mut(&mut out), from_mut(&mut x));
                    if dagger {
                        op.apply_dagger(outs, xs, &[true]);
                    } else {
                        op.apply(outs, xs, &[true]);
                    }
                    let mut host = HostSpinorField::zero(plan.local_dims());
                    out.download(&mut host, Parity::Odd);
                    (rank, host)
                })
            })
            .collect();
        let mut locals: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        locals.sort_by_key(|(r, _)| *r);
        let locals: Vec<_> = locals.into_iter().map(|(_, f)| f).collect();
        let got = gather_spinor(&locals, &plan);
        let dist = expect.max_site_dist(&got);
        prop_assert!(
            dist < 1e-11,
            "dims={dims} ranks={ranks} strategy={strategy:?} dagger={dagger}: dist={dist}"
        );
    }

    #[test]
    fn perf_model_invariants(
        log_ranks in 0usize..6,
        pick in 0usize..64,
        mode in prop_oneof![
            Just(PrecisionMode::Single),
            Just(PrecisionMode::Double),
            Just(PrecisionMode::SingleHalf),
            Just(PrecisionMode::DoubleHalf),
        ],
    ) {
        let ranks = 1usize << log_ranks;
        let global = LatticeDims::spatial_cube(24, 128);
        // Any power-of-two process grid of `ranks` GPUs, multi-d included.
        let candidates = candidate_plans(global, ranks);
        prop_assume!(!candidates.is_empty());
        let plan = candidates[pick % candidates.len()];
        for strategy in [CommStrategy::NoOverlap, CommStrategy::Overlap] {
            let r = evaluate(&PerfInput::paper(plan, mode, strategy));
            prop_assert!(r.iteration_time_s > 0.0);
            prop_assert!(r.sustained_gflops > 0.0);
            prop_assert!((0.0..=1.0).contains(&r.comm_fraction));
            prop_assert!(r.memory_per_gpu > 0);
            // Aggregate = per-GPU × ranks.
            prop_assert!((r.sustained_gflops - r.per_gpu_gflops * ranks as f64).abs() < 1e-6 * r.sustained_gflops);
        }
        // Memory shrinks when the plan cuts T twice as finely.
        let mut grid = plan.grid();
        grid[3] *= 2;
        if let Ok(finer) = DecompPlan::try_new(global, grid) {
            let m1 = quda_multigpu::solver_memory_per_gpu(&plan, mode);
            let m2 = quda_multigpu::solver_memory_per_gpu(&finer, mode);
            prop_assert!(m2 < m1);
        }
    }
}
