//! Property-based tests of the per-site algebra: SU(3) structure under
//! compression, projector identities, the fixed non-relativistic projection
//! against the projector tables, clover Hermiticity, and the
//! half-precision quantization error bound — over randomized inputs.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use quda_math::clover::{CloverBlock, CloverSite, BLOCK_OFFDIAG};
use quda_math::colorvec::ColorVec;
use quda_math::complex::C64;
use quda_math::gamma::{GammaBasis, SpinBasis};
use quda_math::half::{decode_site, encode_site, max_quantization_error, Fixed16};
use quda_math::nr;
use quda_math::real::Real;
use quda_math::spinor::{HalfSpinor, Spinor};
use quda_math::su3::Su3;

fn arb_c64() -> impl Strategy<Value = C64> {
    (-1.0f64..1.0, -1.0f64..1.0).prop_map(|(re, im)| C64::new(re, im))
}

fn arb_su3() -> impl Strategy<Value = Su3<f64>> {
    // Random complex matrix, projected onto the group. Bias towards
    // non-degenerate rows so Gram-Schmidt is well conditioned.
    proptest::collection::vec(arb_c64(), 9).prop_filter_map("degenerate rows", |v| {
        let mut m = Su3::identity();
        for i in 0..3 {
            for j in 0..3 {
                m.m[i][j] += v[i * 3 + j];
            }
        }
        let u = m.reunitarize();
        u.is_special_unitary(1e-9).then_some(u)
    })
}

fn arb_spinor() -> impl Strategy<Value = Spinor<f64>> {
    proptest::collection::vec(arb_c64(), 12).prop_map(|v| {
        let mut sp = Spinor::zero();
        for s in 0..4 {
            for c in 0..3 {
                sp.s[s].c[c] = v[s * 3 + c];
            }
        }
        sp
    })
}

/// The 24 reals of a spinor that exercises signed zeros and subnormals:
/// per real a `kind` and a value in (−1, 1), read by [`edge_spinor`].
fn arb_edge_reals() -> impl Strategy<Value = Vec<(u8, f64)>> {
    proptest::collection::vec((0u8..7, -1.0f64..1.0), 24)
}

/// `kind` 0 is +0.0, 1 is −0.0, 2 the smallest subnormal with the sign of
/// `x`, 3 a subnormal `x · MIN_POSITIVE`, anything else `x` itself — in
/// `T`'s own format, so single precision sees its own subnormals.
fn edge_spinor<T: Real>(reals: &[(u8, f64)]) -> Spinor<T> {
    let f64_min = T::from_f64(f64::MIN_POSITIVE).to_f64() > 0.0;
    let (tiny, min_pos) = if f64_min {
        (f64::from_bits(1), f64::MIN_POSITIVE)
    } else {
        (f32::from_bits(1) as f64, f32::MIN_POSITIVE as f64)
    };
    let r: Vec<T> = reals
        .iter()
        .map(|&(kind, x)| match kind {
            0 => T::from_f64(0.0),
            1 => T::from_f64(-0.0),
            2 => T::from_f64(tiny.copysign(x)),
            3 => T::from_f64(x * min_pos),
            _ => T::from_f64(x),
        })
        .collect();
    Spinor::from_reals(&r)
}

/// The bit patterns of a spinor's reals (widening to f64 is exact, signed
/// zeros and subnormals included).
fn bits<T: Real>(sp: &Spinor<T>) -> Vec<u64> {
    sp.to_reals().iter().map(|x| x.to_f64().to_bits()).collect()
}

/// One `(μ, sign)` hop of the Dslash site kernel through the fixed
/// [`nr`] functions and through the basis's `HalfProj` tables, into a
/// fresh `+0.0` accumulator and into the running pair `fixed`/`tables`:
/// the projections must be equal and the accumulators identical in every
/// bit.
fn hop_matches_tables<const MU: usize, const PLUS: bool, T: Real>(
    basis: &SpinBasis,
    u: &Su3<T>,
    psi: &Spinor<T>,
    fixed: &mut Spinor<T>,
    tables: &mut Spinor<T>,
) -> Result<(), TestCaseError> {
    let proj = &basis.proj[MU][usize::from(PLUS)];
    let (h, h_ref) = (nr::project::<MU, PLUS, T>(psi), proj.project(psi));
    prop_assert_eq!(h, h_ref, "project mu={} plus={}", MU, PLUS);
    let link = |h: &HalfSpinor<T>| HalfSpinor { h: [u.mul_vec(&h.h[0]), u.mul_vec(&h.h[1])] };
    for (f, t) in [(&mut Spinor::zero(), &mut Spinor::zero()), (fixed, tables)] {
        nr::accumulate::<MU, PLUS, T>(f, &link(&h));
        *t += proj.reconstruct(&link(&h_ref));
        prop_assert_eq!(bits(f), bits(t), "accumulate mu={} plus={}", MU, PLUS);
    }
    Ok(())
}

/// All eight `(μ, sign)` hops, one spinor each, carried through one pair of
/// accumulators that start at `+0.0` as the kernel's do.
fn all_hops_match_tables<T: Real>(u: &Su3<T>, psis: &[Spinor<T>]) -> Result<(), TestCaseError> {
    let basis = SpinBasis::new(GammaBasis::NonRelativistic);
    let (f, t) = (&mut Spinor::zero(), &mut Spinor::zero());
    hop_matches_tables::<0, false, T>(&basis, u, &psis[0], f, t)?;
    hop_matches_tables::<0, true, T>(&basis, u, &psis[1], f, t)?;
    hop_matches_tables::<1, false, T>(&basis, u, &psis[2], f, t)?;
    hop_matches_tables::<1, true, T>(&basis, u, &psis[3], f, t)?;
    hop_matches_tables::<2, false, T>(&basis, u, &psis[4], f, t)?;
    hop_matches_tables::<2, true, T>(&basis, u, &psis[5], f, t)?;
    hop_matches_tables::<3, false, T>(&basis, u, &psis[6], f, t)?;
    hop_matches_tables::<3, true, T>(&basis, u, &psis[7], f, t)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn reunitarized_matrices_are_group_elements(u in arb_su3()) {
        prop_assert!(u.is_special_unitary(1e-9));
        // Elements bounded by 1 — the precondition of half-precision gauge
        // storage.
        prop_assert!(u.max_abs() <= 1.0 + 1e-9);
    }

    #[test]
    fn compression_roundtrip_preserves_link(u in arb_su3()) {
        let rec = u.compress().reconstruct();
        let mut diff = 0.0f64;
        for i in 0..3 {
            for j in 0..3 {
                diff = diff.max((rec.m[i][j] - u.m[i][j]).norm_sqr());
            }
        }
        prop_assert!(diff < 1e-18, "reconstruction error {diff}");
    }

    #[test]
    fn adjoint_multiplication_preserves_norm(u in arb_su3(), v in arb_spinor()) {
        let w = u.mul_vec(&v.s[0]);
        prop_assert!((w.norm_sqr() - v.s[0].norm_sqr()).abs() < 1e-10);
        let back = u.adj_mul_vec(&w);
        let diff: f64 = (0..3).map(|i| (back.c[i] - v.s[0].c[i]).norm_sqr()).sum();
        prop_assert!(diff < 1e-18, "U†U != 1 on vector: {diff}");
    }

    #[test]
    fn projector_identities_hold_on_random_spinors(sp in arb_spinor()) {
        for basis in [GammaBasis::DeGrandRossi, GammaBasis::NonRelativistic] {
            let b = SpinBasis::new(basis);
            for mu in 0..4 {
                let plus = &b.proj[mu][1];
                let minus = &b.proj[mu][0];
                // P+ + P- = 2.
                let sum = plus.apply_dense(&sp) + minus.apply_dense(&sp);
                prop_assert!((sum - sp.scale_re(2.0)).norm_sqr() < 1e-20);
                // P± is idempotent up to the factor 2: P±² = 2 P±.
                let p2 = plus.apply_dense(&plus.apply_dense(&sp));
                prop_assert!((p2 - plus.apply_dense(&sp).scale_re(2.0)).norm_sqr() < 1e-18);
                // The rank-2 path agrees with the dense path.
                let via_half = plus.reconstruct(&plus.project(&sp));
                prop_assert!((via_half - plus.apply_dense(&sp)).norm_sqr() < 1e-20);
            }
        }
    }

    #[test]
    fn fixed_projection_matches_the_tables_bit_for_bit(
        u in arb_su3(),
        reals in proptest::collection::vec(arb_edge_reals(), 8),
    ) {
        let psis: Vec<Spinor<f64>> = reals.iter().map(|r| edge_spinor(r)).collect();
        all_hops_match_tables(&u, &psis)?;
        let psis: Vec<Spinor<f32>> = reals.iter().map(|r| edge_spinor(r)).collect();
        all_hops_match_tables(&u.cast::<f32>(), &psis)?;
    }

    #[test]
    fn clover_block_apply_is_hermitian(
        diag in proptest::collection::vec(-2.0f64..2.0, 6),
        off in proptest::collection::vec(arb_c64(), BLOCK_OFFDIAG),
        x in arb_spinor(),
        y in arb_spinor(),
    ) {
        let mut block = CloverBlock::identity();
        block.diag.copy_from_slice(&diag);
        block.offdiag.copy_from_slice(&off);
        let site = CloverSite { block: [block, block] };
        let lhs = x.dot(&site.apply_chiral(&y));
        let rhs = site.apply_chiral(&x).dot(&y);
        prop_assert!((lhs.re - rhs.re).abs() < 1e-9);
        prop_assert!((lhs.im - rhs.im).abs() < 1e-9);
    }

    #[test]
    fn clover_inverse_is_inverse(
        diag in proptest::collection::vec(3.0f64..6.0, 6),
        off in proptest::collection::vec(arb_c64(), BLOCK_OFFDIAG),
        x in arb_spinor(),
    ) {
        // Diagonally dominant => invertible.
        let mut block = CloverBlock::identity();
        block.diag.copy_from_slice(&diag);
        for (dst, src) in block.offdiag.iter_mut().zip(&off) {
            *dst = src.scale(0.2);
        }
        let site = CloverSite { block: [block, block] };
        let inv = site.invert().expect("diagonally dominant block must invert");
        let inv_site = CloverSite { block: inv.block };
        let back = inv_site.apply_chiral(&site.apply_chiral(&x));
        prop_assert!((back - x).norm_sqr() < 1e-16);
    }

    #[test]
    fn quantization_error_within_bound(vals in proptest::collection::vec(-100.0f32..100.0, 24)) {
        let vals: [f32; 24] = vals.try_into().expect("24 reals drawn");
        let mut q = [Fixed16::default(); 24];
        let norm = encode_site(&vals, &mut q, Fixed16::quantize);
        let back = decode_site(&q, norm, Fixed16::dequantize);
        let bound = max_quantization_error(norm) * 1.01 + 1e-12;
        for (a, b) in vals.iter().zip(&back) {
            prop_assert!((a - b).abs() <= bound, "{a} vs {b}, bound {bound}");
        }
    }

    #[test]
    fn spinor_reals_roundtrip(sp in arb_spinor()) {
        let r = sp.to_reals();
        prop_assert_eq!(Spinor::from_reals(&r), sp);
    }

    #[test]
    fn dot_products_are_cauchy_schwarz(a in arb_spinor(), b in arb_spinor()) {
        let d = a.dot(&b);
        let bound = a.norm_sqr().sqrt() * b.norm_sqr().sqrt();
        prop_assert!(d.norm_sqr().sqrt() <= bound * (1.0 + 1e-12));
    }

    #[test]
    fn conj_cross_reproduces_det_one(u in arb_su3()) {
        // The reconstructed third row makes det exactly 1.
        let rec = u.compress().reconstruct();
        let det = rec.det();
        prop_assert!((det.re - 1.0).abs() < 1e-9);
        prop_assert!(det.im.abs() < 1e-9);
    }

    #[test]
    fn colorvec_scaling_linear(v in arb_spinor(), s in -3.0f64..3.0) {
        let scaled: ColorVec<f64> = v.s[1].scale_re(s);
        prop_assert!((scaled.norm_sqr() - s * s * v.s[1].norm_sqr()).abs() < 1e-10);
    }
}
