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
//!   residual history's bits and of the solution's stored elements, site
//!   by site;
//! * the checkpoint protocol — each lane's deposit sequence as (epoch,
//!   iterations, FNV-1a of the snapshot's counters and restored sites), the
//!   outcome of resuming from the second deposit, and the deposits the
//!   resumed solve makes; alone and as a batch of 2 with one sink per lane.
//!   The deposit hash covers what a resume reads back, not the wire
//!   format's byte layout, so a format change that keeps the state keeps
//!   the literals.

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
/// residual history bits, FNV of the solution's stored elements).
type Pin = (usize, u64, u64, u64, u64, u64);

/// (epoch, iterations, FNV of the counters and the restored sites).
type Deposit = (u64, u64, u64);

/// (iterations, matvecs, final_residual bits) of a resumed solve.
type Resume = (usize, u64, u64);

const BICGSTAB_DOUBLE: [Pin; 3] = [
    (28, 58, 0, 0x3dd3aa23823f363f, 0x3b4c1cd346490e96, 0xe1edb4d9e3c88015),
    (28, 58, 0, 0x3dd53acb0573c6ed, 0x597b74c7d32b8875, 0xd4864b340540596e),
    (27, 55, 0, 0x3ddad11418c82589, 0x790ebd9b16b378b4, 0x16751fd43ade3eb9),
];
const BICGSTAB_SINGLE: [Pin; 3] = [
    (12, 26, 0, 0x3ed7ee07e2e54b40, 0xc0c11cd4e3ff8d35, 0x20a7a93f613389eb),
    (12, 25, 0, 0x3ee4d294ce588959, 0x92b0bc1b52e80f6f, 0x67ce4eb9ba97fd69),
    (12, 26, 0, 0x3ed8e1a98b7148d2, 0x12a49c87960cab9a, 0x745f496394dc16b3),
];
const CGNR_DOUBLE: [Pin; 3] = [
    (49, 102, 0, 0x3dd8bb649b23e3e9, 0xadb340979692960f, 0x52da8acb7adae8ba),
    (49, 102, 0, 0x3dd7d083ffacfb12, 0xaf122fc69bf18991, 0xa54c20096af5e16c),
    (49, 102, 0, 0x3ddc248c35b619bc, 0xdfb7488a3e3ced7c, 0x764ef008b8a61e15),
];
const RELIABLE_DOUBLE_SINGLE: [Pin; 3] = [
    (26, 58, 5, 0x3dd245aa9f4eda2c, 0xfc54511379415a1d, 0xe56838ba936a4339),
    (26, 57, 4, 0x3dd3a806cbc704df, 0x66b547880e441bb7, 0x2742e874e238ad4e),
    (26, 58, 5, 0x3dd990388a6672bc, 0xe42c1007b83e9519, 0xca27e8c273ea2924),
];
const RELIABLE_DOUBLE_HALF: [Pin; 3] = [
    (28, 62, 5, 0x3dd731b4e453a2c7, 0x6ba36e6e02f0d569, 0xb4fc6cacb519a862),
    (35, 75, 4, 0x3dd099ac2e283772, 0xb1598f226a640271, 0x3bc38728816a62b2),
    (31, 68, 5, 0x3dd6a4cbcd6d6b5b, 0x3012ffea3eec2269, 0x8a0392d11def792f),
];

/// One method's checkpoint protocol on lanes 0 and 1 of its fixture.
struct Protocol {
    deposits: [&'static [Deposit]; 2],
    resume: [Resume; 2],
    resumed_deposits: [&'static [Deposit]; 2],
}

const BICGSTAB_PROTOCOL: Protocol = Protocol {
    deposits: [
        &[(1, 0, 0x3a1aa12b22a42877), (2, 16, 0xfe8ce53635775e2e)],
        &[(1, 0, 0x7aa0a4f636a1ed0f), (2, 16, 0xbadcccf7e7545c95)],
    ],
    resume: [(26, 55, 0x3dd5cf80c314be12), (26, 55, 0x3dd19102e21be061)],
    resumed_deposits: [&[(3, 16, 0xf4db61f350fddf33)], &[(3, 16, 0xb3144ec72f54acfe)]],
};

const CGNR_PROTOCOL: Protocol = Protocol {
    deposits: [
        &[
            (1, 0, 0xf9a1bd6b4de1c13e),
            (2, 16, 0x8db3e7da49238bb9),
            (3, 32, 0x6817b08df49f0300),
            (4, 48, 0x940cba7fb2c54f66),
        ],
        &[
            (1, 0, 0x758a7415bb0c9576),
            (2, 16, 0x91fc5f4becf3344e),
            (3, 32, 0x9ba726c7d949db6e),
            (4, 48, 0x320c9eaffd8123cc),
        ],
    ],
    resume: [(49, 105, 0x3de06f7f7b033a65), (49, 105, 0x3de04e641422351d)],
    resumed_deposits: [
        &[(3, 16, 0xac28b25abe957765), (4, 32, 0x80a8f4245af61fac), (5, 48, 0x5ddc1a7f91612ced)],
        &[(3, 16, 0x7e208ba20d1feffc), (4, 32, 0xddca22bee4649e10), (5, 48, 0x4004bbeeb1695dd0)],
    ],
};

const RELIABLE_PROTOCOL: Protocol = Protocol {
    deposits: [
        &[
            (1, 0, 0x61c1840106635f18),
            (2, 7, 0xf4119ffe48d0e7be),
            (3, 11, 0x432a3283450854af),
            (4, 17, 0x5374a06bff9c2761),
            (5, 24, 0x977d4916cd757396),
        ],
        &[
            (1, 0, 0x31174562a722bd69),
            (2, 8, 0xd46609fae34a3a5b),
            (3, 14, 0x79cb56f0c5cb0551),
            (4, 21, 0xba76386989bb3c53),
        ],
    ],
    resume: [(29, 64, 0x3dcddeba72a6d7d0), (27, 60, 0x3dc53d597bf831fa)],
    resumed_deposits: [
        &[
            (3, 7, 0xbf4fedca3a2a365f),
            (4, 13, 0xeb8883931c55d10b),
            (5, 20, 0xdc93d5cfe08c0d3e),
            (6, 27, 0xbd348c26c0c97723),
        ],
        &[
            (3, 8, 0x7e47bd1d4194b402),
            (4, 15, 0x3fbdcee5d04e4069),
            (5, 20, 0x54cedc6f9e0c171b),
            (6, 25, 0x931ca0de8d7c4d9c),
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

/// FNV-1a of every site's stored elements in `(cb, n)` order (site `cb`
/// is the run `data[24·cb .. 24·(cb + 1)]`), then of the site norms.
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
    /// Each deposit as a resume sees it: restored into fields shaped like
    /// `like`, then hashed with its counters.
    fn deposits(&self, like: &SpinorFieldCb<Double>) -> Vec<Deposit> {
        self.saved
            .iter()
            .map(|c| (c.counters.epoch, c.counters.iterations, state_fnv(c, like)))
            .collect()
    }
}

/// FNV-1a of every counter and of the bits of every site of the restored
/// `x` (and `r`, when the snapshot carries it).
fn state_fnv(c: &SolverCheckpoint, like: &SpinorFieldCb<Double>) -> u64 {
    let k = &c.counters;
    let mut bytes = Vec::new();
    for v in [k.epoch, k.iterations, k.matvecs_hi, k.matvecs_lo, k.reliable_updates, k.recoveries] {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    bytes.extend_from_slice(&k.stalls.to_le_bytes());
    for v in [k.r2, k.maxrr, k.last_update_r2] {
        bytes.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    let mut push_sites = |f: &SpinorFieldCb<Double>| {
        for cb in 0..f.sites() {
            for v in f.get(cb).to_reals() {
                bytes.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
    };
    let mut x = like.clone();
    c.restore_x(&mut x).expect("deposit restores into its own shape");
    push_sites(&x);
    if c.has_residual() {
        let mut r = like.clone();
        c.restore_r(&mut r).expect("residual restores into its own shape");
        push_sites(&r);
    }
    fnv1a(&bytes)
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
        assert_eq!(rec.deposits(&bs[k]), pin.deposits[k], "{what} lane {k}: deposits");
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
            resumed.deposits(&bs[k]),
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
        assert_eq!(rec.deposits(&bs[k]), pin.deposits[k], "{what} batch lane {k}: deposits");
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
