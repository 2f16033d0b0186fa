//! The site kernels against literals captured from the scalar kernels.
//!
//! Every literal below was produced by the single-field `dslash_cb`,
//! `clover_apply_cb` and `clover_axpy_cb` bodies, before the scalar twins
//! were deleted and a single field became batch 1 of the `_multi` sweeps.
//! Each literal is an FNV-1a hash over the bit patterns of every real of
//! every output site (`get(cb)`, widened losslessly to `f64`), so a single
//! flipped bit anywhere in an output moves it.
//!
//! * `dslash_cb` — all four precisions × `dagger` ∈ {false, true} × the
//!   regions `All`, `Interior`, `FacesDim(0)`, `FacesDim(3)`, on an open
//!   `[true, false, false, true]` stencil whose spinor and link ghosts are
//!   a periodic self-exchange (`gather_face_site` on the same field);
//! * the clover apply and the fused clover axpy — all four precisions.

use quda_dirac::clover_apply::{clover_apply_cb_multi, clover_axpy_cb_multi};
use quda_dirac::{dslash_cb, gather_face_site, DslashRegion};
use quda_fields::clover_build::clover_sites_cb;
use quda_fields::gauge_gen::{random_spinor_field, weak_field};
use quda_fields::precision::{Double, Half, Precision, Quarter, Single};
use quda_fields::{CloverFieldCb, GaugeFieldCb, SpinorFieldCb};
use quda_lattice::geometry::{LatticeDims, Parity};
use quda_lattice::stencil::Stencil;
use quda_math::clover::CloverBasisMap;
use quda_math::gamma::{GammaBasis, SpinBasis};
use quda_math::real::Real;
use quda_math::su3::Su3;
use std::slice::{from_mut, from_ref};

/// Per precision: `dagger = false` then `true`, each over [`REGIONS`].
const DSLASH_DOUBLE: [u64; 8] = [
    0x7cc9d4451720c67c,
    0x5a084053a4182a73,
    0x13146238a193b3c4,
    0x416bd42019aac0c3,
    0x927ef28f0471585e,
    0xa940354e71c5bb35,
    0x2438548da17c0ed7,
    0x3bb7f96456d6b560,
];
const DSLASH_SINGLE: [u64; 8] = [
    0x70997122dcabdb11,
    0x5b277495b22d433b,
    0xd705d28342c6df89,
    0xe7f117aad45c1a4f,
    0xa10731cf822844c3,
    0x8eaa35678836f333,
    0x6e9bf59c1bf769ff,
    0x5a282f4422d35c77,
];
const DSLASH_HALF: [u64; 8] = [
    0x576e5485f9c9700e,
    0x1b6b903e2232d333,
    0x71ab238854781137,
    0xe0a39a5768f234a2,
    0xcc1014e2fa09ae08,
    0x1591916fd09140ed,
    0x08e54eba4360e2cb,
    0xfd76ff673d11675e,
];
const DSLASH_QUARTER: [u64; 8] = [
    0x5e7803b6570804dd,
    0xf1582141bd19163e,
    0xea53b3587ab21295,
    0x3484b05c55b1cd6e,
    0xc708f4a09109aba1,
    0xfadd8ab1d20df3cd,
    0x2c6b20f05a5145c0,
    0x4a38a3a1126380fc,
];

/// Per precision: (clover apply, clover axpy with `s = −¼`).
const CLOVER_DOUBLE: [u64; 2] = [0x75d82f3b0a631ee9, 0xbb43bdb3f39ccdf3];
const CLOVER_SINGLE: [u64; 2] = [0x00b6143094b0a00f, 0xf4122c6a27c3b984];
const CLOVER_HALF: [u64; 2] = [0x84610f0ee0854da4, 0x9d7abef1f7786e5a];
const CLOVER_QUARTER: [u64; 2] = [0xce68e22a6d7eb296, 0x029d5ca10950540c];

const REGIONS: [DslashRegion; 4] = [
    DslashRegion::All,
    DslashRegion::Interior,
    DslashRegion::FacesDim(0),
    DslashRegion::FacesDim(3),
];

/// The open dimensions of the Dslash fixture.
const OPEN: [bool; 4] = [true, false, false, true];

fn fnv1a<P: Precision>(field: &SpinorFieldCb<P>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for cb in 0..field.sites() {
        for r in field.get(cb).to_reals() {
            for b in r.to_f64().to_bits().to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

fn check(what: &str, got: &[u64], want: &[u64]) {
    assert_eq!(got, want, "{what}: got {got:#018x?}");
}

/// Hashes of `dslash_cb` (Even output, Odd input) for both `dagger` values
/// over [`REGIONS`], each launch into a fresh field.
fn dslash_hashes<P: Precision>() -> [u64; 8] {
    let d = LatticeDims::new(4, 4, 4, 6);
    let cfg = weak_field(d, 0.2, 17);
    let basis = SpinBasis::new(GammaBasis::NonRelativistic);
    let stencil = Stencil::with_open(d, OPEN);
    let mut gauge = GaugeFieldCb::<P>::new(d, true);
    gauge.upload(&cfg);
    // Link ghosts: the last slice of each open dimension, parity of x−μ̂
    // (Odd for Even output sites), as a periodic self-exchange delivers.
    for dim in (0..4).filter(|&m| OPEN[m]) {
        for face in 0..gauge.face_sites_dim(dim) {
            let c = Stencil::face_coord(&d, dim, Parity::Odd, d.extent(dim) - 1, face);
            let u: Su3<f64> = gauge.link(Parity::Odd, dim, d.cb_index(c)).cast();
            gauge.set_ghost_link(Parity::Odd, dim, face, &u);
        }
    }
    let mut full = SpinorFieldCb::<P>::new(d, false);
    full.upload(&random_spinor_field(d, 5), Parity::Odd);
    let mut hashes = [0u64; 8];
    for (k, dagger) in [false, true].into_iter().enumerate() {
        let mut input = SpinorFieldCb::<P>::new_open(d, OPEN);
        input.fill_sites(|cb| full.get(cb));
        for dim in (0..4).filter(|&m| OPEN[m]) {
            for face in 0..input.face_sites(dim) {
                for backward in [true, false] {
                    let h = gather_face_site(
                        &full,
                        &basis,
                        &stencil,
                        dim,
                        backward,
                        face,
                        Parity::Odd,
                        dagger,
                    );
                    input.set_ghost(dim, backward, face, &h);
                }
            }
        }
        for (j, &region) in REGIONS.iter().enumerate() {
            let mut out = SpinorFieldCb::<P>::new(d, false);
            dslash_cb(&mut out, &gauge, &input, Parity::Even, &stencil, &basis, dagger, region);
            hashes[4 * k + j] = fnv1a(&out);
        }
    }
    hashes
}

/// Hashes of the clover apply and the fused clover axpy on one field.
fn clover_hashes<P: Precision>() -> [u64; 2] {
    let d = LatticeDims::new(4, 4, 2, 4);
    let cfg = weak_field(d, 0.12, 31);
    let mut term = CloverFieldCb::<P>::new(d);
    for (cb, a) in clover_sites_cb(&cfg, 1.1, Parity::Even).iter().enumerate() {
        term.set(cb, &a.shifted(4.3));
    }
    let map = CloverBasisMap::new();
    let field = |seed: u64| {
        let mut f = SpinorFieldCb::<P>::new(d, false);
        f.upload(&random_spinor_field(d, seed), Parity::Even);
        f
    };
    let (a, b) = (field(40), field(80));
    let mut applied = SpinorFieldCb::<P>::new(d, false);
    clover_apply_cb_multi(from_mut(&mut applied), &term, from_ref(&a), &map, &[true]);
    let mut combined = SpinorFieldCb::<P>::new(d, false);
    let s = P::Arith::from_f64(-0.25);
    clover_axpy_cb_multi(
        from_mut(&mut combined),
        &term,
        from_ref(&a),
        s,
        from_ref(&b),
        &map,
        &[true],
    );
    [fnv1a(&applied), fnv1a(&combined)]
}

#[test]
fn dslash_cb_matches_pins() {
    check("double", &dslash_hashes::<Double>(), &DSLASH_DOUBLE);
    check("single", &dslash_hashes::<Single>(), &DSLASH_SINGLE);
    check("half", &dslash_hashes::<Half>(), &DSLASH_HALF);
    check("quarter", &dslash_hashes::<Quarter>(), &DSLASH_QUARTER);
}

#[test]
fn clover_kernels_match_pins() {
    check("double", &clover_hashes::<Double>(), &CLOVER_DOUBLE);
    check("single", &clover_hashes::<Single>(), &CLOVER_SINGLE);
    check("half", &clover_hashes::<Half>(), &CLOVER_HALF);
    check("quarter", &clover_hashes::<Quarter>(), &CLOVER_QUARTER);
}
