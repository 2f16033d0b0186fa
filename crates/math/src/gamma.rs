//! Euclidean gamma matrices, spin bases, and rank-2 projector machinery.
//!
//! The Wilson operator applies the spin projectors `P±μ = 1 ± γμ` to each
//! neighbor spinor. Because each projector has rank 2, only two of the four
//! projected spin components are independent; QUDA exploits this to halve the
//! SU(3) multiplies and to transfer only 12 numbers per face site.
//!
//! Two bases are provided:
//!
//! * **DeGrand-Rossi** — the common "chiral" basis in which `γ5` is diagonal
//!   and the clover term is block diagonal (that is where the 72-real clover
//!   packing comes from);
//! * **non-relativistic** — the basis reached by the similarity transform of
//!   Section V-C2, in which `γ4` (and hence `P±4`, Eq. 6) is *diagonal*, so a
//!   temporal projection is a plain copy of 12 contiguous numbers. This is
//!   the basis the multi-GPU ghost-zone exchange relies on.
//!
//! All gamma matrices in both bases have exactly one nonzero, unit-modulus
//! entry per row; the [`PermPhase`] form captures that and lets kernels apply
//! a gamma with 4 complex "multiplies" that are really sign flips and
//! re/im swaps.

use crate::complex::{Complex, C64};
use crate::real::Real;
use crate::spinor::{HalfSpinor, Spinor};

/// Number of spacetime dimensions (and of gamma matrices).
pub const NDIM: usize = 4;

/// Dense 4×4 complex matrix in spin space.
pub type Mat4 = [[C64; 4]; 4];

/// Zero 4×4 matrix.
pub fn mat4_zero() -> Mat4 {
    [[C64::zero(); 4]; 4]
}

/// Identity 4×4 matrix.
pub fn mat4_identity() -> Mat4 {
    let mut m = mat4_zero();
    for i in 0..4 {
        m[i][i] = C64::one();
    }
    m
}

/// Dense matrix product.
pub fn mat4_mul(a: &Mat4, b: &Mat4) -> Mat4 {
    let mut out = mat4_zero();
    for i in 0..4 {
        for j in 0..4 {
            let mut acc = C64::zero();
            for k in 0..4 {
                acc += a[i][k] * b[k][j];
            }
            out[i][j] = acc;
        }
    }
    out
}

/// Dense matrix sum.
pub fn mat4_add(a: &Mat4, b: &Mat4) -> Mat4 {
    let mut out = mat4_zero();
    for i in 0..4 {
        for j in 0..4 {
            out[i][j] = a[i][j] + b[i][j];
        }
    }
    out
}

/// Scale a dense matrix.
pub fn mat4_scale(a: &Mat4, s: C64) -> Mat4 {
    let mut out = *a;
    for row in out.iter_mut() {
        for z in row.iter_mut() {
            *z *= s;
        }
    }
    out
}

/// Hermitian conjugate.
pub fn mat4_adjoint(a: &Mat4) -> Mat4 {
    let mut out = mat4_zero();
    for i in 0..4 {
        for j in 0..4 {
            out[i][j] = a[j][i].conj();
        }
    }
    out
}

/// Apply a dense spin matrix to a spinor: `out_s = Σ_t m[s][t] ψ_t`
/// (acting on the spin index only; color is untouched).
pub fn mat4_apply<T: Real>(m: &Mat4, psi: &Spinor<T>) -> Spinor<T> {
    let mut out = Spinor::zero();
    for s in 0..4 {
        for t in 0..4 {
            let coeff = m[s][t];
            if coeff.re == 0.0 && coeff.im == 0.0 {
                continue;
            }
            let c = Complex::<T>::new(T::from_f64(coeff.re), T::from_f64(coeff.im));
            out.s[s] += psi.s[t].scale(c);
        }
    }
    out
}

/// Maximum absolute difference between two dense matrices.
pub fn mat4_max_diff(a: &Mat4, b: &Mat4) -> f64 {
    let mut d: f64 = 0.0;
    for i in 0..4 {
        for j in 0..4 {
            d = d.max((a[i][j].re - b[i][j].re).abs());
            d = d.max((a[i][j].im - b[i][j].im).abs());
        }
    }
    d
}

fn c(re: f64, im: f64) -> C64 {
    C64::new(re, im)
}

/// The DeGrand-Rossi gamma matrices (Hermitian, `γμ² = 1`).
pub fn degrand_rossi_gammas() -> [Mat4; 4] {
    let z = C64::zero();
    let i = c(0.0, 1.0);
    let ni = c(0.0, -1.0);
    let one = c(1.0, 0.0);
    let none = c(-1.0, 0.0);
    let g1: Mat4 = [[z, z, z, i], [z, z, i, z], [z, ni, z, z], [ni, z, z, z]];
    let g2: Mat4 = [[z, z, z, none], [z, z, one, z], [z, one, z, z], [none, z, z, z]];
    let g3: Mat4 = [[z, z, i, z], [z, z, z, ni], [ni, z, z, z], [z, i, z, z]];
    let g4: Mat4 = [[z, z, one, z], [z, z, z, one], [one, z, z, z], [z, one, z, z]];
    [g1, g2, g3, g4]
}

/// The unitary similarity transform `S` taking the DeGrand-Rossi basis to the
/// non-relativistic basis: `γ_NR = S γ_DR S†`, chosen so `S γ4 S† =
/// diag(1,1,-1,-1)`.
pub fn nr_transform() -> Mat4 {
    let r = 1.0 / f64::sqrt(2.0);
    let z = C64::zero();
    let p = c(r, 0.0);
    let n = c(-r, 0.0);
    // Block form (1/√2) [[I, I], [-I, I]].
    [[p, z, p, z], [z, p, z, p], [n, z, p, z], [z, n, z, p]]
}

/// Which gamma-matrix basis a field or operator is expressed in.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum GammaBasis {
    /// Chiral basis: `γ5` diagonal; clover block diagonal.
    DeGrandRossi,
    /// QUDA's internal basis: `γ4` diagonal, so `P±4` is diagonal (Eq. 6).
    NonRelativistic,
}

/// A gamma matrix in permutation-phase form:
/// `(γ ψ)_s = phase[s] · ψ_{perm[s]}`.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct PermPhase {
    /// Column of the single nonzero in each row.
    pub perm: [usize; 4],
    /// Value of that nonzero (unit modulus).
    pub phase: [C64; 4],
}

impl PermPhase {
    /// Extract the permutation-phase form from a dense matrix, or `None` if
    /// any row does not have exactly one nonzero unit-modulus entry.
    pub fn from_dense(m: &Mat4) -> Option<Self> {
        let mut perm = [0usize; 4];
        let mut phase = [C64::zero(); 4];
        for s in 0..4 {
            let mut found = None;
            for t in 0..4 {
                let z = m[s][t];
                if z.re.abs() > 1e-12 || z.im.abs() > 1e-12 {
                    if found.is_some() {
                        return None;
                    }
                    found = Some((t, z));
                }
            }
            let (t, z) = found?;
            if (z.norm_sqr() - 1.0).abs() > 1e-9 {
                return None;
            }
            perm[s] = t;
            phase[s] = z;
        }
        Some(PermPhase { perm, phase })
    }

    /// Reconstitute the dense form.
    pub fn to_dense(&self) -> Mat4 {
        let mut m = mat4_zero();
        for s in 0..4 {
            m[s][self.perm[s]] = self.phase[s];
        }
        m
    }

    /// Apply to a spinor.
    pub fn apply<T: Real>(&self, psi: &Spinor<T>) -> Spinor<T> {
        let mut out = Spinor::zero();
        for s in 0..4 {
            let ph =
                Complex::<T>::new(T::from_f64(self.phase[s].re), T::from_f64(self.phase[s].im));
            out.s[s] = psi.s[self.perm[s]].scale(ph);
        }
        out
    }
}

/// Compiled form of a rank-2 projector `P±μ = 1 ± γμ`.
///
/// `rows` names the two spin components that must actually be computed and
/// multiplied by the link matrix; `rec_*` describes how all four output spin
/// components are recovered from those two products. For the diagonalized
/// temporal projectors, the two computed rows are a plain ×2 copy of existing
/// components and two of the reconstruction coefficients are zero — which is
/// exactly why a temporal face transfer is 12 contiguous numbers.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct HalfProj {
    /// Dense form, for reference and testing.
    pub dense: Mat4,
    /// The two independent row indices.
    pub rows: [usize; 2],
    /// Terms building each computed row: `h_i = Σ_k coeff · ψ_{col}`.
    /// Each row has at most 2 terms; unused slots have `count` excluded.
    pub terms: [[(usize, C64); 2]; 2],
    /// Number of valid terms per computed row (1 or 2).
    pub nterms: [usize; 2],
    /// For each output spin s: which computed row it copies (0 or 1).
    pub rec_src: [usize; 4],
    /// Coefficient applied to that computed row (possibly zero).
    pub rec_coeff: [C64; 4],
}

impl HalfProj {
    /// Build the compiled projector from `1 + sign·γ`.
    ///
    /// Panics if the matrix is not rank ≤ 2 with the row structure produced
    /// by `1 ± γ` for a Hermitian unit-modulus permutation gamma — which is
    /// an internal invariant, verified by the constructor tests.
    pub fn new(gamma: &Mat4, sign: f64) -> Self {
        let p = mat4_add(&mat4_identity(), &mat4_scale(gamma, c(sign, 0.0)));
        let mut rows_vec: Vec<usize> = Vec::new();
        let mut rec_src = [0usize; 4];
        let mut rec_coeff = [C64::zero(); 4];
        // Classify each row of P as zero, a multiple of an earlier chosen
        // row, or a new independent row.
        for s in 0..4 {
            let row_s = p[s];
            let zero = row_s.iter().all(|z| z.re.abs() < 1e-12 && z.im.abs() < 1e-12);
            if zero {
                rec_src[s] = 0;
                rec_coeff[s] = C64::zero();
                continue;
            }
            let mut matched = false;
            for (ri, &r) in rows_vec.iter().enumerate() {
                if let Some(cf) = row_multiple(&p[r], &row_s) {
                    rec_src[s] = ri;
                    rec_coeff[s] = cf;
                    matched = true;
                    break;
                }
            }
            if !matched {
                assert!(rows_vec.len() < 2, "projector rank exceeds 2");
                rec_src[s] = rows_vec.len();
                rec_coeff[s] = C64::one();
                rows_vec.push(s);
            }
        }
        assert!(!rows_vec.is_empty(), "projector is zero");
        // Rank-1 cannot happen for 1 ± γ with γ² = 1 traceless; but be safe
        // and duplicate the row so indices stay valid.
        if rows_vec.len() == 1 {
            rows_vec.push(rows_vec[0]);
        }
        let rows = [rows_vec[0], rows_vec[1]];
        let mut terms = [[(0usize, C64::zero()); 2]; 2];
        let mut nterms = [0usize; 2];
        for i in 0..2 {
            let mut k = 0;
            for t in 0..4 {
                let z = p[rows[i]][t];
                if z.re.abs() > 1e-12 || z.im.abs() > 1e-12 {
                    assert!(k < 2, "projector row has more than 2 terms");
                    terms[i][k] = (t, z);
                    k += 1;
                }
            }
            assert!(k >= 1);
            nterms[i] = k;
        }
        HalfProj { dense: p, rows, terms, nterms, rec_src, rec_coeff }
    }

    /// Project a full spinor to the two independent components.
    #[inline]
    pub fn project<T: Real>(&self, psi: &Spinor<T>) -> HalfSpinor<T> {
        let mut h = HalfSpinor::zero();
        for i in 0..2 {
            let mut acc = crate::colorvec::ColorVec::zero();
            for k in 0..self.nterms[i] {
                let (col, cf) = self.terms[i][k];
                acc += mul_c64(&psi.s[col], cf);
            }
            h.h[i] = acc;
        }
        h
    }

    /// Expand two (already link-multiplied) color vectors back to the full
    /// 4-component spinor contribution.
    #[inline]
    pub fn reconstruct<T: Real>(&self, h: &HalfSpinor<T>) -> Spinor<T> {
        let mut out = Spinor::zero();
        for s in 0..4 {
            let cf = self.rec_coeff[s];
            if cf.re == 0.0 && cf.im == 0.0 {
                continue;
            }
            out.s[s] = mul_c64(&h.h[self.rec_src[s]], cf);
        }
        out
    }

    /// Apply the full dense projector (reference path for tests).
    pub fn apply_dense<T: Real>(&self, psi: &Spinor<T>) -> Spinor<T> {
        mat4_apply(&self.dense, psi)
    }
}

#[inline(always)]
fn mul_c64<T: Real>(v: &crate::colorvec::ColorVec<T>, cf: C64) -> crate::colorvec::ColorVec<T> {
    // Fast paths for the coefficients that actually occur (±1, ±i, 2).
    if cf.im == 0.0 {
        if cf.re == 1.0 {
            return *v;
        }
        if cf.re == -1.0 {
            return -*v;
        }
        return v.scale_re(T::from_f64(cf.re));
    }
    if cf.re == 0.0 {
        if cf.im == 1.0 {
            return v.mul_i();
        }
        if cf.im == -1.0 {
            return v.mul_neg_i();
        }
    }
    v.scale(Complex::new(T::from_f64(cf.re), T::from_f64(cf.im)))
}

fn row_multiple(base: &[C64; 4], row: &[C64; 4]) -> Option<C64> {
    // Find coefficient c with row = c * base, if it exists.
    let mut coeff: Option<C64> = None;
    for t in 0..4 {
        let b = base[t];
        let r = row[t];
        let bz = b.re.abs() < 1e-12 && b.im.abs() < 1e-12;
        let rz = r.re.abs() < 1e-12 && r.im.abs() < 1e-12;
        match (bz, rz) {
            (true, true) => {}
            (true, false) | (false, true) => return None,
            (false, false) => {
                let q = r.div(b);
                match coeff {
                    None => coeff = Some(q),
                    Some(cprev) => {
                        if (q.re - cprev.re).abs() > 1e-10 || (q.im - cprev.im).abs() > 1e-10 {
                            return None;
                        }
                    }
                }
            }
        }
    }
    coeff
}

/// A complete spin basis: the four gammas, `γ5`, and the compiled projectors
/// for all eight directions.
#[derive(Clone, Debug)]
pub struct SpinBasis {
    /// Which basis this is.
    pub basis: GammaBasis,
    /// Dense gamma matrices `γ1..γ4`.
    pub gamma: [Mat4; 4],
    /// Dense `γ5 = γ1 γ2 γ3 γ4`.
    pub gamma5: Mat4,
    /// Permutation-phase forms of the gammas.
    pub pp: [PermPhase; 4],
    /// `proj[mu][0] = P−μ = 1 − γμ`, `proj[mu][1] = P+μ = 1 + γμ`.
    pub proj: [[HalfProj; 2]; 4],
}

impl SpinBasis {
    /// Construct the requested basis.
    pub fn new(basis: GammaBasis) -> Self {
        let dr = degrand_rossi_gammas();
        let gamma: [Mat4; 4] = match basis {
            GammaBasis::DeGrandRossi => dr,
            GammaBasis::NonRelativistic => {
                let s = nr_transform();
                let sdag = mat4_adjoint(&s);
                [
                    mat4_mul(&mat4_mul(&s, &dr[0]), &sdag),
                    mat4_mul(&mat4_mul(&s, &dr[1]), &sdag),
                    mat4_mul(&mat4_mul(&s, &dr[2]), &sdag),
                    mat4_mul(&mat4_mul(&s, &dr[3]), &sdag),
                ]
            }
        };
        // Clean numerical fuzz from the similarity transform so the
        // perm-phase extraction sees exact zeros and ±1.
        let gamma = gamma.map(|g| {
            let mut out = g;
            for row in out.iter_mut() {
                for z in row.iter_mut() {
                    if z.re.abs() < 1e-12 {
                        z.re = 0.0;
                    }
                    if z.im.abs() < 1e-12 {
                        z.im = 0.0;
                    }
                    z.re = round_unit(z.re);
                    z.im = round_unit(z.im);
                }
            }
            out
        });
        let gamma5 = mat4_mul(&mat4_mul(&gamma[0], &gamma[1]), &mat4_mul(&gamma[2], &gamma[3]));
        let pp = [
            PermPhase::from_dense(&gamma[0]).expect("γ1 is perm-phase"),
            PermPhase::from_dense(&gamma[1]).expect("γ2 is perm-phase"),
            PermPhase::from_dense(&gamma[2]).expect("γ3 is perm-phase"),
            PermPhase::from_dense(&gamma[3]).expect("γ4 is perm-phase"),
        ];
        let proj = [
            [HalfProj::new(&gamma[0], -1.0), HalfProj::new(&gamma[0], 1.0)],
            [HalfProj::new(&gamma[1], -1.0), HalfProj::new(&gamma[1], 1.0)],
            [HalfProj::new(&gamma[2], -1.0), HalfProj::new(&gamma[2], 1.0)],
            [HalfProj::new(&gamma[3], -1.0), HalfProj::new(&gamma[3], 1.0)],
        ];
        SpinBasis { basis, gamma, gamma5, pp, proj }
    }

    /// The projector `1 + sign·γμ` with `mu` in `0..4`.
    pub fn projector(&self, mu: usize, sign: f64) -> &HalfProj {
        &self.proj[mu][if sign > 0.0 { 1 } else { 0 }]
    }
}

fn round_unit(x: f64) -> f64 {
    for target in [-1.0, 0.0, 1.0] {
        if (x - target).abs() < 1e-12 {
            return target;
        }
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bases() -> [SpinBasis; 2] {
        [SpinBasis::new(GammaBasis::DeGrandRossi), SpinBasis::new(GammaBasis::NonRelativistic)]
    }

    #[test]
    fn clifford_algebra_holds_in_both_bases() {
        for b in bases() {
            for mu in 0..4 {
                for nu in 0..4 {
                    let anti = mat4_add(
                        &mat4_mul(&b.gamma[mu], &b.gamma[nu]),
                        &mat4_mul(&b.gamma[nu], &b.gamma[mu]),
                    );
                    let expect = if mu == nu {
                        mat4_scale(&mat4_identity(), C64::new(2.0, 0.0))
                    } else {
                        mat4_zero()
                    };
                    assert!(
                        mat4_max_diff(&anti, &expect) < 1e-12,
                        "{{γ{mu},γ{nu}}} wrong in {:?}",
                        b.basis
                    );
                }
            }
        }
    }

    #[test]
    fn gammas_hermitian() {
        for b in bases() {
            for mu in 0..4 {
                assert!(mat4_max_diff(&b.gamma[mu], &mat4_adjoint(&b.gamma[mu])) < 1e-12);
            }
        }
    }

    #[test]
    fn gamma5_diagonal_in_degrand_rossi() {
        let b = SpinBasis::new(GammaBasis::DeGrandRossi);
        for s in 0..4 {
            for t in 0..4 {
                if s != t {
                    assert!(b.gamma5[s][t].norm_sqr() < 1e-20);
                }
            }
            assert!((b.gamma5[s][s].re.abs() - 1.0).abs() < 1e-12);
            assert!(b.gamma5[s][s].im.abs() < 1e-12);
        }
    }

    #[test]
    fn gamma4_diagonal_in_nr_basis() {
        let b = SpinBasis::new(GammaBasis::NonRelativistic);
        let g4 = &b.gamma[3];
        // diag(1, 1, -1, -1) — this is what makes Eq. 6 hold.
        for s in 0..4 {
            for t in 0..4 {
                if s != t {
                    assert!(g4[s][t].norm_sqr() < 1e-20, "off-diagonal γ4 in NR basis");
                }
            }
        }
        assert!((g4[0][0].re - 1.0).abs() < 1e-12);
        assert!((g4[1][1].re - 1.0).abs() < 1e-12);
        assert!((g4[2][2].re + 1.0).abs() < 1e-12);
        assert!((g4[3][3].re + 1.0).abs() < 1e-12);
    }

    #[test]
    fn temporal_projectors_match_eq6() {
        // P+4 = diag(2,2,0,0), P-4 = diag(0,0,2,2) in the NR basis.
        let b = SpinBasis::new(GammaBasis::NonRelativistic);
        let pplus = &b.proj[3][1].dense;
        let pminus = &b.proj[3][0].dense;
        let mut expect_p = mat4_zero();
        expect_p[0][0] = C64::new(2.0, 0.0);
        expect_p[1][1] = C64::new(2.0, 0.0);
        let mut expect_m = mat4_zero();
        expect_m[2][2] = C64::new(2.0, 0.0);
        expect_m[3][3] = C64::new(2.0, 0.0);
        assert!(mat4_max_diff(pplus, &expect_p) < 1e-12);
        assert!(mat4_max_diff(pminus, &expect_m) < 1e-12);
    }

    #[test]
    fn projector_algebra() {
        // (1±γ)² = 2(1±γ);  (1+γ)(1-γ) = 0.
        for b in bases() {
            for mu in 0..4 {
                let p = &b.proj[mu][1].dense;
                let m = &b.proj[mu][0].dense;
                let p2 = mat4_mul(p, p);
                assert!(mat4_max_diff(&p2, &mat4_scale(p, C64::new(2.0, 0.0))) < 1e-12);
                let pm = mat4_mul(p, m);
                assert!(mat4_max_diff(&pm, &mat4_zero()) < 1e-12);
            }
        }
    }

    fn sample_spinor() -> Spinor<f64> {
        let mut sp = Spinor::zero();
        for s in 0..4 {
            for co in 0..3 {
                sp.s[s].c[co] = C64::new(
                    0.3 * (s as f64 + 1.0) - 0.1 * co as f64,
                    0.2 * co as f64 - 0.15 * s as f64,
                );
            }
        }
        sp
    }

    #[test]
    fn project_reconstruct_equals_dense_projector() {
        let psi = sample_spinor();
        for b in bases() {
            for mu in 0..4 {
                for pi in 0..2 {
                    let proj = &b.proj[mu][pi];
                    let via_half = proj.reconstruct(&proj.project(&psi));
                    let via_dense = proj.apply_dense(&psi);
                    let diff = (via_half - via_dense).norm_sqr();
                    assert!(diff < 1e-24, "mu={mu} pi={pi} basis={:?} diff={diff}", b.basis);
                }
            }
        }
    }

    #[test]
    fn perm_phase_roundtrip() {
        for b in bases() {
            for mu in 0..4 {
                let d = b.pp[mu].to_dense();
                assert!(mat4_max_diff(&d, &b.gamma[mu]) < 1e-12);
                // Application matches dense application.
                let psi = sample_spinor();
                let a = b.pp[mu].apply(&psi);
                let c = mat4_apply(&b.gamma[mu], &psi);
                assert!((a - c).norm_sqr() < 1e-24);
            }
        }
    }

    #[test]
    fn nr_transform_is_unitary() {
        let s = nr_transform();
        let prod = mat4_mul(&s, &mat4_adjoint(&s));
        assert!(mat4_max_diff(&prod, &mat4_identity()) < 1e-12);
    }

    #[test]
    fn bases_are_similar() {
        // γ_NR = S γ_DR S† means traces agree.
        let dr = SpinBasis::new(GammaBasis::DeGrandRossi);
        let nr = SpinBasis::new(GammaBasis::NonRelativistic);
        for mu in 0..4 {
            let tr_dr: C64 = (0..4).fold(C64::zero(), |a, i| a + dr.gamma[mu][i][i]);
            let tr_nr: C64 = (0..4).fold(C64::zero(), |a, i| a + nr.gamma[mu][i][i]);
            assert!((tr_dr.re - tr_nr.re).abs() < 1e-12);
            assert!((tr_dr.im - tr_nr.im).abs() < 1e-12);
        }
    }

    #[test]
    fn spatial_projection_transfers_12_numbers() {
        // Every projector, in every basis, reduces to 2 independent color
        // vectors = 12 reals — footnote 3 of the paper.
        for b in bases() {
            for mu in 0..4 {
                for pi in 0..2 {
                    let h = b.proj[mu][pi].project(&sample_spinor());
                    assert_eq!(h.to_reals().len(), 12);
                }
            }
        }
    }
}
