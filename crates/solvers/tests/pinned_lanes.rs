//! The blocked Krylov drivers against literals captured from the
//! single-right-hand-side solvers they replaced.
//!
//! Every literal below was produced by the separate single-RHS
//! implementations (`bicgstab`, `cgnr`, `bicgstab_reliable` and their
//! checkpointing variants) on the same fixtures, before those bodies were
//! deleted. A single solve is now the batch of one, so these pins are what
//! keeps "batch 1 = the old single solve" and "lane k of a batch = lane k
//! alone" from drifting:
//!
//! * numerics — for every lane of a batch of 3: iterations, matvecs,
//!   reliable updates, the final residual's bits, and FNV-1a hashes of the
//!   residual history's bits and of the solution's storage bytes;
//! * the checkpoint protocol — each lane's deposit sequence as (epoch,
//!   iterations, FNV-1a of the serialized snapshot), the outcome of
//!   resuming from the second deposit, and the deposits the resumed solve
//!   makes; alone and as a batch of 2 with one sink per lane.

use quda_dirac::{WilsonCloverOp, WilsonParams};
use quda_fields::gauge_gen::{random_spinor_field, weak_field};
use quda_fields::precision::{Double, Half, Precision, Single};
use quda_fields::SpinorFieldCb;
use quda_lattice::geometry::{LatticeDims, Parity};
use quda_solvers::checkpoint::{CheckpointSink, SolverCheckpoint};
use quda_solvers::operator::{LinearOperator, MatPcOp};
use quda_solvers::params::{SolveResult, SolverParams};
use quda_solvers::{bicgstab, bicgstab_reliable, blas, cgnr};

/// (iterations, matvecs, reliable_updates, final_residual bits, FNV of the
/// residual history bits, FNV of the solution storage bytes).
type Pin = (usize, u64, u64, u64, u64, u64);

/// (epoch, iterations, FNV of `SolverCheckpoint::to_bytes`).
type Deposit = (u64, u64, u64);

/// (iterations, matvecs, final_residual bits) of a resumed solve.
type Resume = (usize, u64, u64);

const BICGSTAB_DOUBLE: [Pin; 3] = [
    (28, 58, 0, 0x3dd3aa23823f363f, 0x3b4c1cd346490e96, 0x11f2fe0dd43b5b9d),
    (28, 58, 0, 0x3dd53acb0573c6ed, 0x597b74c7d32b8875, 0x6906cb6dfedeb9a6),
    (27, 55, 0, 0x3ddad11418c82589, 0x790ebd9b16b378b4, 0x21d89a3a7904c9f1),
];
const BICGSTAB_SINGLE: [Pin; 3] = [
    (12, 26, 0, 0x3ed7ee07e2e54b40, 0xc0c11cd4e3ff8d35, 0x10105a4535f668d7),
    (12, 25, 0, 0x3ee4d294ce588959, 0x92b0bc1b52e80f6f, 0xf33ae12a695df081),
    (12, 26, 0, 0x3ed8e1a98b7148d2, 0x12a49c87960cab9a, 0x4b44e4003dc08c17),
];
const CGNR_DOUBLE: [Pin; 3] = [
    (49, 102, 0, 0x3dd8bb649b23e3e9, 0xadb340979692960f, 0x2251474c5e065422),
    (49, 102, 0, 0x3dd7d083ffacfb12, 0xaf122fc69bf18991, 0xe4571a910be9f304),
    (49, 102, 0, 0x3ddc248c35b619bc, 0xdfb7488a3e3ced7c, 0x451e959c990b6a95),
];
const RELIABLE_DOUBLE_SINGLE: [Pin; 3] = [
    (26, 58, 5, 0x3dd245aa9f4eda2c, 0xfc54511379415a1d, 0xf6b31256e7ea871d),
    (26, 57, 4, 0x3dd3a806cbc704df, 0x66b547880e441bb7, 0xdefbb66cac3eb55e),
    (26, 58, 5, 0x3dd990388a6672bc, 0xe42c1007b83e9519, 0xf857c559da132390),
];
const RELIABLE_DOUBLE_HALF: [Pin; 3] = [
    (28, 62, 5, 0x3dd731b4e453a2c7, 0x6ba36e6e02f0d569, 0xf214872c54178b96),
    (35, 75, 4, 0x3dd099ac2e283772, 0xb1598f226a640271, 0xf28d9d57f37e9eaa),
    (31, 68, 5, 0x3dd6a4cbcd6d6b5b, 0x3012ffea3eec2269, 0x06297d6fa87122cf),
];

/// One method's checkpoint protocol on lanes 0 and 1 of its fixture.
struct Protocol {
    deposits: [&'static [Deposit]; 2],
    resume: [Resume; 2],
    resumed_deposits: [&'static [Deposit]; 2],
}

const BICGSTAB_PROTOCOL: Protocol = Protocol {
    deposits: [
        &[(1, 0, 0x5067729e3391b08e), (2, 16, 0x58a2d20a361db85a)],
        &[(1, 0, 0x569e4bea3db8900a), (2, 16, 0x1bd2ae392be0af8b)],
    ],
    resume: [(26, 55, 0x3dd5cf80c314be12), (26, 55, 0x3dd19102e21be061)],
    resumed_deposits: [&[(3, 16, 0x183ee5f7c6ec6d63)], &[(3, 16, 0x4507ab334778dff6)]],
};

const CGNR_PROTOCOL: Protocol = Protocol {
    deposits: [
        &[
            (1, 0, 0xf1f515eb91f0ae89),
            (2, 16, 0x610e913308410223),
            (3, 32, 0xc64316edd6b54a12),
            (4, 48, 0xe7156cbee24290ac),
        ],
        &[
            (1, 0, 0xec64da56ce1bf4e6),
            (2, 16, 0x84a418589049a9dc),
            (3, 32, 0x4d71961b2a84e08e),
            (4, 48, 0xe4eed5b4ea8a990e),
        ],
    ],
    resume: [(49, 105, 0x3de06f7f7b033a65), (49, 105, 0x3de04e641422351d)],
    resumed_deposits: [
        &[(3, 16, 0xed243302354c19b3), (4, 32, 0xe1dd65a7655c3baa), (5, 48, 0x050e981eed788293)],
        &[(3, 16, 0xd65f26c493379afa), (4, 32, 0xe161a40227487ba5), (5, 48, 0x12aaf604c0c997f4)],
    ],
};

const RELIABLE_PROTOCOL: Protocol = Protocol {
    deposits: [
        &[
            (1, 0, 0xfac71a4d866839f0),
            (2, 7, 0xc0871e8230fc7bdf),
            (3, 11, 0xd45c8b2f5cf5cae7),
            (4, 17, 0x8133a2c77a9cdc75),
            (5, 24, 0x8932ecd3d6db7e20),
        ],
        &[
            (1, 0, 0x31b45dfa51d02eb9),
            (2, 8, 0x2af0153efea1f400),
            (3, 14, 0x90299eba267cf9ac),
            (4, 21, 0x5650ce4398d37526),
        ],
    ],
    resume: [(29, 64, 0x3dcddeba72a6d7d0), (27, 60, 0x3dc53d597bf831fa)],
    resumed_deposits: [
        &[
            (3, 7, 0xf8a666c378b12b7e),
            (4, 13, 0x79d4c60e12183a99),
            (5, 20, 0x8fccbc411b6898ed),
            (6, 27, 0xcc619c22b762a56a),
        ],
        &[
            (3, 8, 0x6fe8ef39961fb8ea),
            (4, 15, 0xe6cfd91bcef735a7),
            (5, 20, 0x9f39132c2ba7a41e),
            (6, 25, 0xa35e43255f1d3200),
        ],
    ],
};

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn solution_fnv<P: Precision>(x: &SpinorFieldCb<P>) -> u64 {
    let mut bytes = Vec::new();
    for &e in &x.data {
        P::elem_to_le_bytes(e, &mut bytes);
    }
    for &n in &x.norm {
        bytes.extend_from_slice(&n.to_le_bytes());
    }
    fnv1a(&bytes)
}

fn history_fnv(history: &[f64]) -> u64 {
    let bytes: Vec<u8> = history.iter().flat_map(|v| v.to_bits().to_le_bytes()).collect();
    fnv1a(&bytes)
}

/// The 4⁴ weak-field fixture operator for gauge seed `seed`.
fn op<P: Precision>(seed: u64) -> MatPcOp<P> {
    let d = LatticeDims::new(4, 4, 4, 4);
    let cfg = weak_field(d, 0.15, seed);
    MatPcOp::new(WilsonCloverOp::<P>::from_config(&cfg, WilsonParams { mass: 0.2, c_sw: 1.0 }))
}

/// Odd-parity sources `first`, `first + 1`, … and zero initial guesses.
fn fixture<P: Precision>(
    op: &MatPcOp<P>,
    first: u64,
    n: usize,
) -> (Vec<SpinorFieldCb<P>>, Vec<SpinorFieldCb<P>>) {
    let bs = (0..n)
        .map(|k| {
            let host = random_spinor_field(op.op.dims, first + k as u64);
            let mut b = op.alloc();
            b.upload(&host, Parity::Odd);
            b
        })
        .collect();
    let xs = (0..n)
        .map(|_| {
            let mut x = op.alloc();
            blas::zero(&mut x);
            x
        })
        .collect();
    (bs, xs)
}

fn assert_pinned<P: Precision>(
    what: &str,
    res: &[SolveResult],
    xs: &[SpinorFieldCb<P>],
    pins: &[Pin],
) {
    assert_eq!(res.len(), pins.len());
    for (k, ((r, x), pin)) in res.iter().zip(xs).zip(pins).enumerate() {
        assert!(r.converged, "{what} lane {k} did not converge");
        let got = (
            r.iterations,
            r.matvecs,
            r.reliable_updates,
            r.final_residual.to_bits(),
            history_fnv(&r.residual_history),
            solution_fnv(x),
        );
        assert_eq!(got, *pin, "{what} lane {k}");
    }
}

#[test]
fn bicgstab_lanes_match_single_rhs_literals() {
    let params = SolverParams { tol: 1e-10, max_iter: 500, delta: 0.0 };
    let mut o = op::<Double>(21);
    let (bs, mut xs) = fixture(&o, 300, 3);
    let res = bicgstab(&mut o, &mut xs, &bs, &params, &mut []);
    assert_pinned("double", &res, &xs, &BICGSTAB_DOUBLE);

    let params = SolverParams { tol: 1e-5, max_iter: 500, delta: 0.0 };
    let mut o = op::<Single>(21);
    let (bs, mut xs) = fixture(&o, 300, 3);
    let res = bicgstab(&mut o, &mut xs, &bs, &params, &mut []);
    assert_pinned("single", &res, &xs, &BICGSTAB_SINGLE);
}

#[test]
fn cgnr_lanes_match_single_rhs_literals() {
    let params = SolverParams { tol: 1e-10, max_iter: 1000, delta: 0.0 };
    let mut o = op::<Double>(22);
    let (bs, mut xs) = fixture(&o, 400, 3);
    let res = cgnr(&mut o, &mut xs, &bs, &params, &mut []);
    assert_pinned("double", &res, &xs, &CGNR_DOUBLE);
}

#[test]
fn reliable_bicgstab_lanes_match_single_rhs_literals() {
    let params = SolverParams { tol: 1e-10, max_iter: 2000, delta: 1e-2 };
    let mut hi = op::<Double>(23);
    let mut lo = op::<Single>(23);
    let (bs, mut xs) = fixture(&hi, 500, 3);
    let res = bicgstab_reliable(&mut hi, &mut lo, &mut xs, &bs, &params, &mut []);
    assert_pinned("double-single", &res, &xs, &RELIABLE_DOUBLE_SINGLE);

    let mut lo = op::<Half>(23);
    let (bs, mut xs) = fixture(&hi, 500, 3);
    let res = bicgstab_reliable(&mut hi, &mut lo, &mut xs, &bs, &params, &mut []);
    assert_pinned("double-half", &res, &xs, &RELIABLE_DOUBLE_HALF);
}

/// A sink that records every deposit and hands out one resume snapshot.
#[derive(Default)]
struct Recording {
    saved: Vec<SolverCheckpoint>,
    resume: Option<SolverCheckpoint>,
}

impl CheckpointSink for Recording {
    fn save(&mut self, ckpt: SolverCheckpoint) {
        self.saved.push(ckpt);
    }

    fn resume(&mut self) -> Option<SolverCheckpoint> {
        self.resume.take()
    }
}

impl Recording {
    fn deposits(&self) -> Vec<Deposit> {
        self.saved
            .iter()
            .map(|c| (c.counters.epoch, c.counters.iterations, fnv1a(&c.to_bytes())))
            .collect()
    }
}

fn zeros(n: usize, like: &SpinorFieldCb<Double>) -> Vec<SpinorFieldCb<Double>> {
    (0..n)
        .map(|_| {
            let mut x = like.clone();
            blas::zero(&mut x);
            x
        })
        .collect()
}

/// Check one method's protocol on the two lanes `bs`; `solve` runs it on
/// the given initial guesses and sources with the given sinks.
fn check_protocol(
    what: &str,
    bs: &[SpinorFieldCb<Double>],
    mut solve: impl FnMut(
        &mut [SpinorFieldCb<Double>],
        &[SpinorFieldCb<Double>],
        &mut [&mut dyn CheckpointSink],
    ) -> Vec<SolveResult>,
    pin: &Protocol,
) {
    let mut solo = Vec::new();
    for k in 0..2 {
        let b = std::slice::from_ref(&bs[k]);
        // Alone: the deposit sequence.
        let mut x = zeros(1, &bs[k]);
        let mut rec = Recording::default();
        let res = solve(&mut x, b, &mut [&mut rec]).remove(0);
        assert!(res.converged, "{what} lane {k}");
        assert_eq!(rec.deposits(), pin.deposits[k], "{what} lane {k}: deposits");
        // Resumed from the second deposit, from a zero guess.
        let mut x = zeros(1, &bs[k]);
        let mut resumed = Recording { resume: Some(rec.saved[1].clone()), ..Default::default() };
        let r = solve(&mut x, b, &mut [&mut resumed]).remove(0);
        assert!(r.converged, "{what} lane {k}: resumed");
        assert_eq!(
            (r.iterations, r.matvecs, r.final_residual.to_bits()),
            pin.resume[k],
            "{what} lane {k}: resumed outcome"
        );
        assert_eq!(
            resumed.deposits(),
            pin.resumed_deposits[k],
            "{what} lane {k}: resumed deposits"
        );
        solo.push(res);
    }
    // Together: each lane's sink sees exactly its batch-1 sequence.
    let mut xs = zeros(2, &bs[0]);
    let (mut r0, mut r1) = (Recording::default(), Recording::default());
    let res = solve(&mut xs, bs, &mut [&mut r0, &mut r1]);
    for (k, rec) in [r0, r1].iter().enumerate() {
        assert_eq!(rec.deposits(), pin.deposits[k], "{what} batch lane {k}: deposits");
        assert_eq!(res[k].iterations, solo[k].iterations, "{what} batch lane {k}");
        assert_eq!(res[k].matvecs, solo[k].matvecs, "{what} batch lane {k}");
        assert_eq!(res[k].final_residual.to_bits(), solo[k].final_residual.to_bits());
    }
}

#[test]
fn bicgstab_checkpoint_protocol_matches_literals() {
    let params = SolverParams { tol: 1e-10, max_iter: 500, delta: 0.0 };
    let mut o = op::<Double>(21);
    let (bs, _) = fixture(&o, 300, 2);
    let solve = |xs: &mut [SpinorFieldCb<Double>],
                 bs: &[SpinorFieldCb<Double>],
                 sinks: &mut [&mut dyn CheckpointSink]| {
        bicgstab(&mut o, xs, bs, &params, sinks)
    };
    check_protocol("bicgstab", &bs, solve, &BICGSTAB_PROTOCOL);
}

#[test]
fn cgnr_checkpoint_protocol_matches_literals() {
    let params = SolverParams { tol: 1e-10, max_iter: 1000, delta: 0.0 };
    let mut o = op::<Double>(22);
    let (bs, _) = fixture(&o, 400, 2);
    let solve =
        |xs: &mut [SpinorFieldCb<Double>],
         bs: &[SpinorFieldCb<Double>],
         sinks: &mut [&mut dyn CheckpointSink]| { cgnr(&mut o, xs, bs, &params, sinks) };
    check_protocol("cgnr", &bs, solve, &CGNR_PROTOCOL);
}

#[test]
fn reliable_checkpoint_protocol_matches_literals() {
    let params = SolverParams { tol: 1e-10, max_iter: 2000, delta: 1e-2 };
    let mut hi = op::<Double>(23);
    let mut lo = op::<Single>(23);
    let (bs, _) = fixture(&hi, 500, 2);
    let solve = |xs: &mut [SpinorFieldCb<Double>],
                 bs: &[SpinorFieldCb<Double>],
                 sinks: &mut [&mut dyn CheckpointSink]| {
        bicgstab_reliable(&mut hi, &mut lo, xs, bs, &params, sinks)
    };
    check_protocol("reliable", &bs, solve, &RELIABLE_PROTOCOL);
}
