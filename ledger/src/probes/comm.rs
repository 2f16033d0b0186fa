//! `quda-comm`: what a two-rank world costs to bring up, one face-sized
//! round trip, and one allreduce — the fixed costs a small solve pays per
//! exchange and per reduction.

use quda_comm::{comm_world, pack_f64, tags};
use quda_math::spinor::HALF_SPINOR_REALS;

use super::{plan, Bench, Values, CALLS};
use crate::workloads::{dims, RANKS, SOLVE_DIMS};

pub fn run(bench: &mut Bench) -> Values {
    // Spawn a world, meet once at a barrier, tear down: the per-solve
    // world cost with no solve in it.
    let spawn = bench.sample("comm.world_spawn", CALLS, || {
        std::thread::scope(|s| {
            for mut comm in comm_world(RANKS) {
                s.spawn(move || comm.barrier().expect("barrier"));
            }
        });
    });

    // One double-precision temporal face of the solve_volume problem.
    let face_sites = plan(dims(SOLVE_DIMS)).face_sites_cb(3);
    let face = pack_f64(&vec![0.25; face_sites * HALF_SPINOR_REALS]);
    let mut world = comm_world(RANKS);
    let mut peer = world.pop().expect("rank 1");
    let mut root = world.pop().expect("rank 0");
    let (mut pingpong, mut allreduce) = (0.0, 0.0);
    // One untimed exchange first, then CALLS timed ones, per probe.
    let rounds = CALLS + 1;
    std::thread::scope(|s| {
        s.spawn(|| {
            for _ in 0..rounds {
                let got = peer.recv(0, tags::FACE_T_FWD).expect("ping");
                peer.send(0, tags::FACE_T_BWD, got).expect("pong");
            }
            for _ in 0..rounds {
                peer.allreduce_sum_f64(1.0).expect("allreduce");
            }
        });
        let mut exchange = || {
            root.send(1, tags::FACE_T_FWD, face.clone()).expect("ping");
            std::hint::black_box(root.recv(1, tags::FACE_T_BWD).expect("pong"));
        };
        exchange();
        pingpong = bench.sample("comm.pingpong", CALLS, exchange);
        let mut reduce = || {
            std::hint::black_box(root.allreduce_sum_f64(1.0).expect("allreduce"));
        };
        reduce();
        allreduce = bench.sample("comm.allreduce", CALLS, reduce);
    });

    Values::from([
        ("comm.world_spawn_us", spawn * 1e6),
        ("comm.pingpong_us", pingpong * 1e6),
        ("comm.allreduce_us", allreduce * 1e6),
    ])
}
