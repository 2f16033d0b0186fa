//! Integration tests of the communication protocol against the paper's
//! stated wire properties: only 12 numbers per face site cross the network
//! (footnote 3), half precision adds one normalization per site
//! (Section VI-C), the gauge ghost is exchanged exactly once at
//! initialization (Section VI-B), and message counts per dslash match the
//! one-message-per-direction structure of Section VI-D1.

use quda_dirac::WilsonParams;
use quda_fields::gauge_gen::{random_spinor_field, weak_field};
use quda_fields::precision::{Double, Half, Single};
use quda_lattice::geometry::{LatticeDims, Parity};
use quda_lattice::partition::DecompPlan;
use quda_multigpu::rank_op::{CommStrategy, ParallelWilsonCloverOp};
use quda_solvers::operator::LinearOperator;
use std::slice::from_mut;

fn dims() -> LatticeDims {
    LatticeDims::new(4, 4, 2, 8)
}

/// The paper's decomposition of [`dims`]: `ranks` temporal slices.
fn t_plan(ranks: usize) -> DecompPlan {
    DecompPlan::new(dims(), [1, 1, 1, ranks])
}

/// Run a closure on every rank of a 2-rank world, returning rank results.
fn on_two_ranks<T: Send + 'static>(
    f: impl Fn(usize, quda_comm::Communicator) -> T + Send + Sync + Clone + 'static,
) -> Vec<T> {
    let world = quda_comm::comm_world(2);
    let handles: Vec<_> = world
        .into_iter()
        .enumerate()
        .map(|(rank, comm)| {
            let f = f.clone();
            std::thread::spawn(move || f(rank, comm))
        })
        .collect();
    handles.into_iter().map(|h| h.join().unwrap()).collect()
}

fn traffic_for_one_matpc<P: quda_fields::precision::Precision>() -> (u64, u64) {
    let d = dims();
    let plan = t_plan(2);
    let cfg = weak_field(d, 0.1, 3);
    let host = random_spinor_field(d, 4);
    let results = on_two_ranks(move |rank, comm| {
        let mut op = ParallelWilsonCloverOp::<P>::new(
            &cfg,
            plan,
            rank,
            comm,
            WilsonParams { mass: 0.3, c_sw: 1.0 },
            CommStrategy::NoOverlap,
        )
        .expect("op init");
        let init_bytes = op.comm.sent_bytes();
        let init_msgs = op.comm.sent_messages();
        let mut x = op.alloc();
        x.upload(&quda_multigpu::slice_spinor(&host, &plan, rank), Parity::Odd);
        let mut out = op.alloc();
        op.apply(from_mut(&mut out), from_mut(&mut x), &[true]);
        (op.comm.sent_bytes() - init_bytes, op.comm.sent_messages() - init_msgs)
    });
    results[0]
}

#[test]
fn face_messages_carry_exactly_12_reals_per_site() {
    // 2 dslashes per matpc; each sends 2 faces; face = Vs/2 sites.
    let face_sites = dims().half_spatial_volume() as u64;
    let (bytes_f64, msgs) = traffic_for_one_matpc::<Double>();
    assert_eq!(msgs, 4, "2 dslashes x 2 directions");
    assert_eq!(bytes_f64, 4 * face_sites * 12 * 8, "12 f64 per face site");
    let (bytes_f32, _) = traffic_for_one_matpc::<Single>();
    assert_eq!(bytes_f32, 4 * face_sites * 12 * 4);
    // Half: 12 i16 + one f32 norm per site (Section VI-C).
    let (bytes_half, _) = traffic_for_one_matpc::<Half>();
    assert_eq!(bytes_half, 4 * face_sites * (12 * 2 + 4));
    // The 12-component optimization halves traffic vs naive 24 components.
    assert!(bytes_f32 < 4 * face_sites * 24 * 4);
}

#[test]
fn gauge_ghost_exchanged_once_at_init() {
    let d = dims();
    let plan = t_plan(2);
    let cfg = weak_field(d, 0.1, 9);
    let results = on_two_ranks(move |rank, comm| {
        let op = ParallelWilsonCloverOp::<Single>::new(
            &cfg,
            plan,
            rank,
            comm,
            WilsonParams { mass: 0.3, c_sw: 1.0 },
            CommStrategy::NoOverlap,
        )
        .expect("op init");
        (op.comm.sent_messages(), op.comm.sent_bytes())
    });
    // Exactly one message per parity at init (the f64-encoded link slice).
    let half_vs = dims().half_spatial_volume() as u64;
    for (msgs, bytes) in results {
        assert_eq!(msgs, 2, "one gauge ghost message per parity");
        assert_eq!(bytes, 2 * half_vs * 18 * 8);
    }
}

#[test]
fn overlap_and_no_overlap_send_identical_traffic() {
    let d = dims();
    let plan = t_plan(2);
    let cfg = weak_field(d, 0.1, 5);
    let host = random_spinor_field(d, 6);
    let count = |strategy: CommStrategy| {
        let cfg = cfg.clone();
        let host = host.clone();
        let results = on_two_ranks(move |rank, comm| {
            let mut op = ParallelWilsonCloverOp::<Single>::new(
                &cfg,
                plan,
                rank,
                comm,
                WilsonParams { mass: 0.3, c_sw: 1.0 },
                strategy,
            )
            .expect("op init");
            let base = op.comm.sent_bytes();
            let mut x = op.alloc();
            x.upload(&quda_multigpu::slice_spinor(&host, &plan, rank), Parity::Odd);
            let mut out = op.alloc();
            op.apply(from_mut(&mut out), from_mut(&mut x), &[true]);
            op.comm.sent_bytes() - base
        });
        results[0]
    };
    assert_eq!(count(CommStrategy::NoOverlap), count(CommStrategy::Overlap));
}

#[test]
fn reductions_count_matches_solver_structure() {
    // Every reduction kernel in the parallel solver triggers one allreduce
    // (Section VI-E): check the blas counter tallies them.
    let d = dims();
    let cfg = weak_field(d, 0.1, 7);
    let host = random_spinor_field(d, 8);
    let plan = t_plan(1);
    let mut world = quda_comm::comm_world(1);
    let comm = world.pop().unwrap();
    let mut op = ParallelWilsonCloverOp::<Double>::new(
        &cfg,
        plan,
        0,
        comm,
        WilsonParams { mass: 0.3, c_sw: 1.0 },
        CommStrategy::NoOverlap,
    )
    .expect("op init");
    let mut b = op.alloc();
    b.upload(&host, Parity::Odd);
    let mut x = op.alloc();
    quda_solvers::blas::zero(&mut x);
    let res = quda_solvers::bicgstab(
        &mut op,
        std::slice::from_mut(&mut x),
        std::slice::from_ref(&b),
        &quda_solvers::params::SolverParams { tol: 1e-9, max_iter: 200, delta: 0.0 },
        &mut [],
    )
    .remove(0);
    assert!(res.converged);
    // Per iteration: r0·v, ‖s‖, (t·s, ‖t‖), ‖r‖, r0·r — at least 4
    // reduction kernels per iteration plus setup/teardown.
    assert!(
        res.blas.reductions as usize >= 4 * res.iterations,
        "reductions {} for {} iterations",
        res.blas.reductions,
        res.iterations
    );
}

/// Run a closure on every rank of a 2-rank world built with an explicit
/// fault plan and timeout policy.
fn on_two_faulty_ranks<T: Send + 'static>(
    plan: quda_comm::FaultPlan,
    config: quda_comm::CommConfig,
    f: impl Fn(usize, quda_comm::Communicator) -> T + Send + Sync + Clone + 'static,
) -> Vec<T> {
    let world = quda_comm::comm_world_with(2, config, Some(plan));
    let handles: Vec<_> = world
        .into_iter()
        .enumerate()
        .map(|(rank, comm)| {
            let f = f.clone();
            std::thread::spawn(move || f(rank, comm))
        })
        .collect();
    handles.into_iter().map(|h| h.join().unwrap()).collect()
}

/// One matpc application on the paper's 2-rank temporal world under `plan`;
/// returns each rank's (max |out - reference|, recovery stats) where the
/// reference is the same application on a fault-free world.
fn matpc_under_faults(plan: quda_comm::FaultPlan) -> Vec<(f64, quda_comm::CommStats)> {
    grid_matpc_under_faults(dims(), [1, 1, 1, 2], plan)
}

#[test]
fn dropped_faces_are_recovered_bit_identically() {
    // An aggressive 20% drop rate: every lost face is replayed from the
    // link-level pristine store, so ghost zones are bit-identical.
    let results = matpc_under_faults(quda_comm::FaultPlan::new(21).drop(0.2));
    let recovered: u64 = results.iter().map(|(_, s)| s.recovered).sum();
    assert!(recovered > 0, "expected at least one drop across 12 messages");
    for (dist, _) in results {
        assert_eq!(dist, 0.0, "recovery must be bit-identical");
    }
}

#[test]
fn delayed_faces_arrive_and_match() {
    // Delays reorder nothing here (per-(peer,tag) FIFO) but do exercise the
    // receiver's backoff path; the result must still be exact.
    let plan = quda_comm::FaultPlan::new(22).delay(0.5, std::time::Duration::from_millis(20));
    for (dist, stats) in matpc_under_faults(plan) {
        assert_eq!(dist, 0.0);
        // Waiting out a delay is not a recovery event.
        assert_eq!(stats.recovered, 0);
    }
}

#[test]
fn corrupted_faces_are_detected_and_retransmitted() {
    // Bit-flips and truncations must be caught by the frame checksum and
    // length checks — never silently accepted into a ghost zone.
    let plan = quda_comm::FaultPlan::new(23).bit_flip(0.3).truncate(0.1);
    let results = matpc_under_faults(plan);
    let caught: u64 = results.iter().map(|(_, s)| s.checksum_failures).sum();
    let recovered: u64 = results.iter().map(|(_, s)| s.recovered).sum();
    assert!(caught > 0, "expected corrupted frames to be flagged");
    assert!(recovered >= caught, "every flagged frame must be re-fetched");
    for (dist, _) in results {
        assert_eq!(dist, 0.0);
    }
}

#[test]
fn duplicated_faces_are_deduplicated() {
    let results = matpc_under_faults(quda_comm::FaultPlan::new(24).duplicate(0.5));
    let dropped: u64 = results.iter().map(|(_, s)| s.duplicates_dropped).sum();
    assert!(dropped > 0, "expected duplicate frames to be discarded");
    for (dist, _) in results {
        assert_eq!(dist, 0.0);
    }
}

// ---- non-temporal faces (ISSUE 7 satellite): the protocol guarantees hold
// for every partitioned dimension, not just the paper's T slicing. ----

/// One matpc on a 2-rank world cut along `grid`'s single open dimension,
/// under `plan`; returns each rank's (max |out − fault-free out|, stats).
fn grid_matpc_under_faults(
    dims: LatticeDims,
    grid: [usize; 4],
    plan: quda_comm::FaultPlan,
) -> Vec<(f64, quda_comm::CommStats)> {
    let decomp = DecompPlan::new(dims, grid);
    let cfg = weak_field(dims, 0.1, 31);
    let host = random_spinor_field(dims, 32);

    let apply = move |rank: usize, comm: quda_comm::Communicator| {
        let mut op = ParallelWilsonCloverOp::<Double>::new(
            &cfg,
            decomp,
            rank,
            comm,
            WilsonParams { mass: 0.3, c_sw: 1.0 },
            CommStrategy::NoOverlap,
        )
        .expect("op init");
        let mut x = op.alloc();
        x.upload(&quda_multigpu::slice_spinor(&host, &decomp, rank), Parity::Odd);
        let mut out = op.alloc();
        op.apply(from_mut(&mut out), from_mut(&mut x), &[true]);
        assert!(op.comm_fault().is_none(), "fault: {:?}", op.comm_fault());
        let mut vals = Vec::with_capacity(out.sites() * 24);
        for cb in 0..out.sites() {
            let site = out.get(cb);
            for sp in 0..4 {
                for co in 0..3 {
                    vals.push(site.s[sp].c[co].re);
                    vals.push(site.s[sp].c[co].im);
                }
            }
        }
        (vals, op.comm_stats())
    };

    let clean = on_two_ranks(apply.clone());
    let faulty = on_two_faulty_ranks(plan, quda_comm::CommConfig::default(), apply);
    clean
        .into_iter()
        .zip(faulty)
        .map(|((cv, _), (fv, stats))| {
            let dist = cv.iter().zip(&fv).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max);
            (dist, stats)
        })
        .collect()
}

#[test]
fn dropped_x_faces_are_recovered_bit_identically() {
    // The X-face wire (non-contiguous gather, tags::face(0, ·)) rides the
    // same link-level recovery as the T face: a 20% drop rate must leave
    // the ghost zones bit-identical.
    let results =
        grid_matpc_under_faults(dims(), [2, 1, 1, 1], quda_comm::FaultPlan::new(41).drop(0.2));
    let recovered: u64 = results.iter().map(|(_, s)| s.recovered).sum();
    assert!(recovered > 0, "expected at least one dropped X-face");
    for (dist, _) in results {
        assert_eq!(dist, 0.0, "X-face recovery must be bit-identical");
    }
}

#[test]
fn corrupted_z_faces_are_detected_and_retransmitted() {
    // Bit-flipped Z-face frames must be flagged by the checksum and
    // replayed — never scattered into a ghost zone.
    let d = LatticeDims::new(4, 4, 4, 4);
    let plan = quda_comm::FaultPlan::new(42).bit_flip(0.3).truncate(0.1);
    let results = grid_matpc_under_faults(d, [1, 1, 2, 1], plan);
    let caught: u64 = results.iter().map(|(_, s)| s.checksum_failures).sum();
    let recovered: u64 = results.iter().map(|(_, s)| s.recovered).sum();
    assert!(caught > 0, "expected corrupted Z-face frames to be flagged");
    assert!(recovered >= caught);
    for (dist, _) in results {
        assert_eq!(dist, 0.0);
    }
}

/// A rank killed mid-exchange in dimension `grid` must surface as a
/// *located* `RankDead` within the timeout — never a hang (ISSUE 7
/// satellite: the non-T faces inherit the full failure-detection protocol).
fn dead_rank_is_located(dims: LatticeDims, grid: [usize; 4]) {
    use quda_multigpu::{
        solve_full_grid_elastic, ChaosSpec, ElasticPolicy, GridSolveSpec, PrecisionMode, SolverKind,
    };
    let spec = GridSolveSpec {
        plan: DecompPlan::new(dims, grid),
        wilson: WilsonParams { mass: 0.3, c_sw: 1.0 },
        mode: PrecisionMode::Double,
        strategy: CommStrategy::Overlap,
        solver: SolverKind::BiCgStab,
        params: quda_solvers::params::SolverParams { tol: 1e-10, max_iter: 2000, delta: 1e-1 },
    };
    let cfg = weak_field(dims, 0.1, 51);
    let b = random_spinor_field(dims, 52);
    let chaos = ChaosSpec {
        // 9 messages in: past the gauge-ghost init, inside the spinor-face
        // exchange of the first few operator applications.
        plan: Some(quda_comm::FaultPlan::new(43).kill_rank(1, 9)),
        comm: quda_comm::CommConfig {
            timeout: std::time::Duration::from_secs(2),
            ..quda_comm::CommConfig::default()
        },
        ..ChaosSpec::default()
    };
    let t0 = std::time::Instant::now();
    let policy = ElasticPolicy { max_rank_deaths: 0, chaos };
    let err = solve_full_grid_elastic(&cfg, &b, &spec, &policy, quda_obs::TraceConfig::Off)
        .expect_err("a dead rank must abort the grid solve");
    assert_eq!(err, quda_comm::CommError::RankDead { rank: 1 });
    assert!(
        t0.elapsed() < std::time::Duration::from_secs(30),
        "world took {:?} to notice the dead rank",
        t0.elapsed()
    );
}

#[test]
fn dead_rank_during_x_face_exchange_is_located_not_hung() {
    dead_rank_is_located(dims(), [2, 1, 1, 1]);
}

#[test]
fn dead_rank_during_z_face_exchange_is_located_not_hung() {
    dead_rank_is_located(LatticeDims::new(4, 4, 4, 4), [1, 1, 2, 1]);
}
