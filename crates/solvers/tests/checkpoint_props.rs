//! Property tests for the elastic-resilience checkpoint format:
//! serialize → deserialize is bit-identical for all four precisions over
//! arbitrary (including odd-extent) local volumes, and corruption anywhere
//! in the buffer is rejected with a typed error — never a panic. The
//! format carries sites only, so a snapshot restores into a field of any
//! ghost shape, and a version-1 buffer is refused by its version.

use proptest::prelude::*;
use quda_fields::precision::{Double, Half, Precision, Quarter, Single};
use quda_fields::SpinorFieldCb;
use quda_lattice::geometry::LatticeDims;
use quda_math::real::Real;
use quda_math::spinor::Spinor;
use quda_solvers::checkpoint::{
    CheckpointCounters, CheckpointError, SolverCheckpoint, CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
};

/// Deterministically filled field: every site carries data derived from a
/// cheap LCG so payload bytes are dense and non-trivial at every precision.
fn filled<P: Precision>(dims: LatticeDims, open: [bool; 4], seed: u64) -> SpinorFieldCb<P> {
    let mut f = SpinorFieldCb::<P>::new_open(dims, open);
    let mut state = seed | 1;
    let mut next = || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        P::Arith::from_f64(((state >> 33) as i32 as f64) / 2.0e9)
    };
    for cb in 0..f.sites() {
        let mut sp = Spinor::<P::Arith>::zero();
        for s in 0..4 {
            for c in 0..3 {
                sp.s[s].c[c].re = next();
                sp.s[s].c[c].im = next();
            }
        }
        f.set(cb, &sp);
    }
    f
}

/// Round-trip the capture through bytes and back; assert the parsed
/// checkpoint, its re-serialization, and a restore-then-recapture are all
/// bit-identical to the original. Works uniformly over the storage
/// precision because the format carries raw storage bytes.
fn assert_round_trip<P: Precision>(dims: LatticeDims, open: [bool; 4], seed: u64, with_r: bool) {
    let x = filled::<P>(dims, open, seed);
    let r = filled::<P>(dims, open, seed ^ 0xdead_beef);
    let counters = CheckpointCounters {
        epoch: seed % 97,
        iterations: seed % 1031,
        matvecs_hi: seed % 13,
        matvecs_lo: seed % 2063,
        reliable_updates: seed % 7,
        recoveries: seed % 3,
        stalls: (seed % 2) as u32,
        r2: (seed as f64) * 1.0e-12 + 1.0e-30,
        maxrr: (seed as f64).sqrt() * 1.0e-6,
        last_update_r2: (seed as f64) * 1.0e-12,
    };
    let ck = SolverCheckpoint::capture(counters, &x, with_r.then_some(&r));
    let bytes = ck.to_bytes();
    let back = SolverCheckpoint::from_bytes(&bytes).expect("valid buffer must parse");
    assert_eq!(back, ck, "parsed checkpoint differs from capture");
    assert_eq!(back.to_bytes(), bytes, "re-serialization is not stable");
    // Restore into fresh fields and recapture: the bytes must be identical,
    // i.e. serialize/deserialize is the identity on the stored data.
    let mut x2 = SpinorFieldCb::<P>::new_open(dims, open);
    back.restore_x(&mut x2).expect("restore x");
    if with_r {
        let mut r2f = SpinorFieldCb::<P>::new_open(dims, open);
        back.restore_r(&mut r2f).expect("restore r");
        let again = SolverCheckpoint::capture(counters, &x2, Some(&r2f));
        assert_eq!(again.to_bytes(), bytes, "restore → recapture not bit-identical");
    } else {
        let again = SolverCheckpoint::capture(counters, &x2, None);
        assert_eq!(again.to_bytes(), bytes, "restore → recapture not bit-identical");
    }
}

/// Arbitrary asymmetric local volumes (extents must be even and >= 2 for
/// even-odd preconditioning — enforced by `LatticeDims::new`), including
/// the skinny 2-extent shapes a deep process-grid decomposition produces.
fn dims_strategy() -> impl Strategy<Value = LatticeDims> {
    (1usize..=3, 1usize..=3, 1usize..=3, 1usize..=3)
        .prop_map(|(x, y, z, t)| LatticeDims::new(2 * x, 2 * y, 2 * z, 2 * t))
}

fn open_strategy() -> impl Strategy<Value = [bool; 4]> {
    use proptest::bool::ANY;
    (ANY, ANY, ANY, ANY).prop_map(|(a, b, c, d)| [a, b, c, d])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn round_trip_bit_identical_all_precisions(
        dims in dims_strategy(),
        open in open_strategy(),
        seed in 0u64..1_000_000_000_000,
        with_r in proptest::bool::ANY,
    ) {
        assert_round_trip::<Double>(dims, open, seed, with_r);
        assert_round_trip::<Single>(dims, open, seed, with_r);
        assert_round_trip::<Half>(dims, open, seed, with_r);
        assert_round_trip::<Quarter>(dims, open, seed, with_r);
    }

    #[test]
    fn corruption_anywhere_is_a_typed_error_never_a_panic(
        dims in dims_strategy(),
        seed in 0u64..1_000_000_000_000,
        pos_frac in 0.0f64..1.0,
        mask in 1u8..=255,
    ) {
        let x = filled::<Single>(dims, [false, true, false, true], seed);
        let ck = SolverCheckpoint::capture(CheckpointCounters::default(), &x, Some(&x));
        let bytes = ck.to_bytes();
        // Flip bits at an arbitrary position: FNV-1a is injective per byte
        // step, so any single-byte change must fail the checksum (or the
        // magic/version checks for a mangled prefix) — typed, not a panic.
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        let mut bad = bytes.clone();
        bad[pos] ^= mask;
        prop_assert!(SolverCheckpoint::from_bytes(&bad).is_err());
        // Truncation at an arbitrary point is also a typed rejection.
        let cut = (bytes.len() as f64 * pos_frac) as usize;
        prop_assert!(SolverCheckpoint::from_bytes(&bytes[..cut]).is_err());
    }
}

/// FNV-1a 64, the checkpoint trailer's hash.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn version_1_buffer_with_a_valid_checksum_is_refused() {
    assert_eq!(CHECKPOINT_VERSION, 4);
    // A version-1 header: magic, version, double tag, no residual, 2⁴
    // dims, the open-faces mask, then the counters; the checksum is valid,
    // so only the version can reject it.
    let mut body = Vec::new();
    body.extend_from_slice(&CHECKPOINT_MAGIC);
    body.extend_from_slice(&1u16.to_le_bytes());
    body.push(quda_fields::precision::PrecisionTag::Double.to_byte());
    body.push(0);
    for _ in 0..4 {
        body.extend_from_slice(&2u32.to_le_bytes());
    }
    body.push(0b1000);
    body.extend_from_slice(&[0u8; 6 * 8 + 4 + 3 * 8]);
    let sum = fnv1a(&body);
    body.extend_from_slice(&sum.to_le_bytes());
    assert_eq!(SolverCheckpoint::from_bytes(&body), Err(CheckpointError::UnsupportedVersion(1)));
}

/// Take a valid buffer, stamp version `old` and re-seal the checksum: only
/// the version can reject it.
fn refuses_old_version(old: u16) {
    let x = filled::<Double>(LatticeDims::new(2, 2, 2, 4), [false; 4], 7);
    let ck = SolverCheckpoint::capture(CheckpointCounters::default(), &x, Some(&x));
    let bytes = ck.to_bytes();
    let mut body = bytes[..bytes.len() - 8].to_vec();
    body[4..6].copy_from_slice(&old.to_le_bytes());
    let sum = fnv1a(&body);
    body.extend_from_slice(&sum.to_le_bytes());
    assert_eq!(SolverCheckpoint::from_bytes(&body), Err(CheckpointError::UnsupportedVersion(old)));
    assert_eq!(SolverCheckpoint::from_bytes(&bytes), Ok(ck));
}

#[test]
fn version_2_buffer_with_a_valid_checksum_is_refused() {
    // A v2 body is the blocked Eq. 5 order and a v3 body the site-major one
    // with the pad appended; either would parse into the wrong sites.
    for old in [2, 3] {
        refuses_old_version(old);
    }
}

/// Capture from a T-open field; restore into a closed and an all-open
/// field of the same geometry; both hold the captured sites bit for bit.
fn restores_across_ghost_shapes<P: Precision>(seed: u64) {
    let dims = LatticeDims::new(4, 2, 4, 6);
    let x = filled::<P>(dims, [false, false, false, true], seed);
    let r = filled::<P>(dims, [false, false, false, true], seed + 1);
    let ck = SolverCheckpoint::capture(CheckpointCounters::default(), &x, Some(&r));
    let back = SolverCheckpoint::from_bytes(&ck.to_bytes()).expect("own bytes decode");
    for open in [[false; 4], [true; 4]] {
        let mut x2 = SpinorFieldCb::<P>::new_open(dims, open);
        let mut r2 = SpinorFieldCb::<P>::new_open(dims, open);
        back.restore_x(&mut x2).expect("sites restore into any ghost shape");
        back.restore_r(&mut r2).expect("sites restore into any ghost shape");
        for cb in 0..x.sites() {
            assert_eq!(x2.get(cb), x.get(cb), "{} x site {cb}, open {open:?}", P::NAME);
            assert_eq!(r2.get(cb), r.get(cb), "{} r site {cb}, open {open:?}", P::NAME);
        }
        assert_eq!(x2.norm, x.norm, "{} site norms, open {open:?}", P::NAME);
        // A re-capture from the new shape is the same snapshot.
        let again = SolverCheckpoint::capture(CheckpointCounters::default(), &x2, Some(&r2));
        assert_eq!(again.to_bytes(), ck.to_bytes(), "{} open {open:?}", P::NAME);
    }
}

#[test]
fn t_open_capture_restores_into_closed_and_all_open_fields() {
    restores_across_ghost_shapes::<Double>(11);
    restores_across_ghost_shapes::<Single>(12);
    restores_across_ghost_shapes::<Half>(13);
    restores_across_ghost_shapes::<Quarter>(14);
}

/// `solvers.ckpt_bytes` of the ledger probe: one rank's 8⁴ double block of
/// the 8³×16 two-rank solve, T open, deposited with x and r.
#[test]
fn ckpt_bytes_of_the_ledger_probe_drop_by_the_end_zones_and_the_mask() {
    let dims = LatticeDims::new(8, 8, 8, 8);
    let x = SpinorFieldCb::<Double>::new(dims, true);
    let ck = SolverCheckpoint::capture(CheckpointCounters::default(), &x, Some(&x));
    // Version 1 wrote 983,277 bytes for this snapshot. Per field it also
    // carried the T end zone, 2 faces × 256 sites × 12 reals × 8 B =
    // 49,152 B, and six more 8-byte section prefixes (the six X/Y/Z ghost
    // and norm sections, empty here); once per checkpoint, the open-faces
    // mask byte.
    const V1_BYTES: usize = 983_277;
    let end_zone = 2 * 256 * 12 * 8;
    let dropped = 2 * (end_zone + 6 * 8) + 1;
    assert_eq!(dropped, 98_401);
    // Version 4 drops each field's Eq. 5 pad, 256 sites × 24 reals × 8 B:
    // version 3 wrote 884,876 bytes.
    const V3_BYTES: usize = 884_876;
    assert_eq!(V1_BYTES - dropped, V3_BYTES);
    let pad = 256 * 24 * 8;
    assert_eq!(ck.to_bytes().len(), V3_BYTES - 2 * pad);
    assert_eq!(ck.to_bytes().len(), 786_572);
    // What is left: the 101-byte v1 header less the mask, two sections per
    // field (the sites and the empty site norms), and the trailer.
    let body = 24 * dims.half_volume() * 8;
    assert_eq!(ck.to_bytes().len(), 100 + 2 * (8 + body + 8) + 8);
    assert_eq!(ck.payload_bytes(), 2 * body);
}
