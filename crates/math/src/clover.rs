//! The clover term: a local 12×12 Hermitian matrix per site, packed into
//! 72 real numbers.
//!
//! In a chiral basis the matrix `A = 1 + (c_sw/2) σ_{μν} F_{μν}` is block
//! diagonal in chirality: two Hermitian 6×6 blocks over (2 spins ⊗ 3 colors).
//! Each block is fully described by 6 real diagonal entries + 15 complex
//! lower-triangle entries = 36 reals — hence the paper's "72 real numbers"
//! (Section II, footnote 1).
//!
//! The even-odd preconditioned operator also needs `(4 + m + A)⁻¹` on one
//! parity; the inverse of a block is computed with a dense Hermitian solve
//! and stored in the same packed form.

use crate::colorvec::ColorVec;
use crate::complex::{Complex, C64};
use crate::gamma::{mat4_adjoint, nr_transform, Mat4};
use crate::real::Real;
use crate::spinor::Spinor;

/// Dimension of one chiral block (2 spins × 3 colors).
pub const BLOCK_DIM: usize = 6;
/// Number of packed reals per site (two blocks × 36).
pub const CLOVER_REALS: usize = 72;
/// Off-diagonal complex entries per block: 6·5/2.
pub const BLOCK_OFFDIAG: usize = 15;

/// One packed Hermitian 6×6 block: real diagonal + lower triangle.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct CloverBlock<T> {
    /// Real diagonal entries.
    pub diag: [T; BLOCK_DIM],
    /// Lower-triangle entries `(i > j)` in row-major order:
    /// (1,0), (2,0), (2,1), (3,0), ...
    pub offdiag: [Complex<T>; BLOCK_OFFDIAG],
}

/// Index of `(i, j)` with `i > j` in the packed lower triangle.
#[inline(always)]
pub fn tri_index(i: usize, j: usize) -> usize {
    debug_assert!(i > j && i < BLOCK_DIM);
    i * (i - 1) / 2 + j
}

impl<T: Real> CloverBlock<T> {
    /// The identity block.
    pub fn identity() -> Self {
        CloverBlock { diag: [T::ONE; BLOCK_DIM], offdiag: [Complex::zero(); BLOCK_OFFDIAG] }
    }

    /// Element `(i, j)` of the full Hermitian matrix.
    pub fn get(&self, i: usize, j: usize) -> Complex<T> {
        if i == j {
            Complex::from_real(self.diag[i])
        } else if i > j {
            self.offdiag[tri_index(i, j)]
        } else {
            self.offdiag[tri_index(j, i)].conj()
        }
    }

    /// Build from a dense Hermitian 6×6 (f64) matrix. Asymmetric parts are
    /// averaged away; the diagonal imaginary part is dropped.
    pub fn from_dense(m: &[[C64; BLOCK_DIM]; BLOCK_DIM]) -> Self {
        let mut b =
            CloverBlock { diag: [T::ZERO; BLOCK_DIM], offdiag: [Complex::zero(); BLOCK_OFFDIAG] };
        for (i, row) in m.iter().enumerate() {
            b.diag[i] = T::from_f64(row[i].re);
            for (j, &z) in row[..i].iter().enumerate() {
                let avg = (z + m[j][i].conj()).scale(0.5);
                b.offdiag[tri_index(i, j)] = Complex::new(T::from_f64(avg.re), T::from_f64(avg.im));
            }
        }
        b
    }

    /// Expand to a dense f64 matrix.
    pub fn to_dense(&self) -> [[C64; BLOCK_DIM]; BLOCK_DIM] {
        std::array::from_fn(|i| std::array::from_fn(|j| self.get(i, j).cast()))
    }

    /// Matrix-vector product on a 6-component complex vector.
    #[inline]
    pub fn mul_vec(&self, v: &[Complex<T>; BLOCK_DIM]) -> [Complex<T>; BLOCK_DIM] {
        std::array::from_fn(|i| {
            let mut acc = v[i].scale(self.diag[i]);
            for (j, &vj) in v.iter().enumerate() {
                if j != i {
                    acc = self.get(i, j).mul_add(vj, acc);
                }
            }
            acc
        })
    }

    /// Add `shift` to the diagonal (builds `4 + m + A` from `A`).
    pub fn shifted(&self, shift: T) -> Self {
        let mut out = *self;
        for d in out.diag.iter_mut() {
            *d += shift;
        }
        out
    }

    /// Invert via Gaussian elimination with partial pivoting in f64.
    ///
    /// Returns `None` if the block is numerically singular.
    pub fn invert(&self) -> Option<Self> {
        let a = self.to_dense();
        let inv = invert_dense6(&a)?;
        Some(Self::from_dense(&inv))
    }

    /// Precision cast.
    pub fn cast<U: Real>(&self) -> CloverBlock<U> {
        CloverBlock {
            diag: self.diag.map(|d| U::from_f64(d.to_f64())),
            offdiag: self.offdiag.map(|z| z.cast()),
        }
    }

    /// Sup-norm over the packed reals (for half-precision normalization).
    pub fn max_abs(&self) -> f64 {
        let mut m = self.diag.iter().map(|d| d.to_f64().abs()).fold(0.0, f64::max);
        for z in &self.offdiag {
            m = m.max(z.re.to_f64().abs()).max(z.im.to_f64().abs());
        }
        m
    }

    /// Flatten to 36 reals (diag then offdiag pairs).
    pub fn to_reals(&self) -> [T; 36] {
        let mut out = [T::ZERO; 36];
        let (diag, offdiag) = out.split_at_mut(BLOCK_DIM);
        diag.copy_from_slice(&self.diag);
        for (pair, z) in offdiag.chunks_exact_mut(2).zip(&self.offdiag) {
            pair[0] = z.re;
            pair[1] = z.im;
        }
        out
    }

    /// Inverse of [`CloverBlock::to_reals`].
    pub fn from_reals(r: &[T]) -> Self {
        assert!(r.len() >= 36);
        let mut b =
            CloverBlock { diag: [T::ZERO; BLOCK_DIM], offdiag: [Complex::zero(); BLOCK_OFFDIAG] };
        b.diag.copy_from_slice(&r[..BLOCK_DIM]);
        for (z, pair) in b.offdiag.iter_mut().zip(r[BLOCK_DIM..36].chunks_exact(2)) {
            *z = Complex::new(pair[0], pair[1]);
        }
        b
    }
}

/// Dense complex 6×6 inverse (Gauss-Jordan with partial pivoting).
fn invert_dense6(a: &[[C64; BLOCK_DIM]; BLOCK_DIM]) -> Option<[[C64; BLOCK_DIM]; BLOCK_DIM]> {
    let n = BLOCK_DIM;
    let mut aug = [[C64::zero(); 2 * BLOCK_DIM]; BLOCK_DIM];
    for (i, (row, a_row)) in aug.iter_mut().zip(a).enumerate() {
        row[..n].copy_from_slice(a_row);
        row[n + i] = C64::one();
    }
    // The pivot walk of a 6×6 Gauss-Jordan elimination: it runs when the
    // operator is built, once per site, never inside an apply.
    // quda-lint: allow(hot-index)
    for col in 0..n {
        // Pivot.
        let mut best = col;
        let mut best_mag = aug[col][col].norm_sqr();
        for row in (col + 1)..n {
            let mag = aug[row][col].norm_sqr();
            if mag > best_mag {
                best = row;
                best_mag = mag;
            }
        }
        if best_mag < 1e-28 {
            return None;
        }
        aug.swap(col, best);
        let pivot_inv = aug[col][col].inv();
        for z in aug[col].iter_mut() {
            *z *= pivot_inv;
        }
        let pivot = aug[col];
        for (row, r) in aug.iter_mut().enumerate() {
            if row == col {
                continue;
            }
            let factor = r[col];
            if factor.norm_sqr() == 0.0 {
                continue;
            }
            for (z, &p) in r.iter_mut().zip(&pivot) {
                *z -= factor * p;
            }
        }
    }
    let mut out = [[C64::zero(); BLOCK_DIM]; BLOCK_DIM];
    for (o, row) in out.iter_mut().zip(&aug) {
        o.copy_from_slice(&row[n..]);
    }
    Some(out)
}

/// The packed per-site clover term: two chiral blocks, 72 reals total.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct CloverSite<T> {
    /// Upper (chirality +) and lower (chirality −) blocks, in the
    /// DeGrand-Rossi chiral spin ordering: block 0 = spins {0,1},
    /// block 1 = spins {2,3}.
    pub block: [CloverBlock<T>; 2],
}

impl<T: Real> CloverSite<T> {
    /// The identity clover term (free field).
    pub fn identity() -> Self {
        CloverSite { block: [CloverBlock::identity(); 2] }
    }

    /// Apply to a spinor expressed in the **chiral** basis.
    pub fn apply_chiral(&self, psi: &Spinor<T>) -> Spinor<T> {
        let mut out = Spinor::zero();
        for (b, base_spin) in [(0usize, 0usize), (1, 2)] {
            let mut v = [Complex::zero(); BLOCK_DIM];
            for sp in 0..2 {
                for co in 0..3 {
                    v[sp * 3 + co] = psi.s[base_spin + sp].c[co];
                }
            }
            let w = self.block[b].mul_vec(&v);
            for sp in 0..2 {
                for co in 0..3 {
                    out.s[base_spin + sp].c[co] = w[sp * 3 + co];
                }
            }
        }
        out
    }

    /// Add `shift` to both diagonals (builds `(4+m) + A`).
    pub fn shifted(&self, shift: T) -> Self {
        CloverSite { block: [self.block[0].shifted(shift), self.block[1].shifted(shift)] }
    }

    /// Invert both blocks.
    pub fn invert(&self) -> Option<Self> {
        Some(CloverSite { block: [self.block[0].invert()?, self.block[1].invert()?] })
    }

    /// Precision cast.
    pub fn cast<U: Real>(&self) -> CloverSite<U> {
        CloverSite { block: [self.block[0].cast(), self.block[1].cast()] }
    }

    /// Sup-norm over the 72 packed reals.
    pub fn max_abs(&self) -> f64 {
        self.block[0].max_abs().max(self.block[1].max_abs())
    }

    /// Flatten to the canonical 72-real layout.
    pub fn to_reals(&self) -> [T; CLOVER_REALS] {
        let mut out = [T::ZERO; CLOVER_REALS];
        out[..36].copy_from_slice(&self.block[0].to_reals());
        out[36..].copy_from_slice(&self.block[1].to_reals());
        out
    }

    /// Inverse of [`CloverSite::to_reals`].
    pub fn from_reals(r: &[T]) -> Self {
        assert!(r.len() >= CLOVER_REALS);
        CloverSite {
            block: [CloverBlock::from_reals(&r[..36]), CloverBlock::from_reals(&r[36..72])],
        }
    }
}

/// Cached spin-basis conversion matrices for applying a (chirally packed)
/// clover term to spinors stored in the non-relativistic basis.
///
/// `A_NR ψ = S (A_chiral (S† ψ))` where `S` is [`nr_transform`].
#[derive(Clone, Debug)]
pub struct CloverBasisMap {
    /// `S` (chiral → NR).
    pub s: Mat4,
    /// `S†` (NR → chiral).
    pub s_dag: Mat4,
}

impl Default for CloverBasisMap {
    fn default() -> Self {
        Self::new()
    }
}

impl CloverBasisMap {
    /// Build the transform pair.
    pub fn new() -> Self {
        let s = nr_transform();
        let s_dag = mat4_adjoint(&s);
        CloverBasisMap { s, s_dag }
    }

    /// Apply a clover site term to a spinor given in the NR basis:
    /// `S (A_chiral (S† ψ))`, with both basis changes written out as the
    /// fixed butterflies `S† = (1/√2)[[I, −I], [I, I]]` and
    /// `S = (1/√2)[[I, I], [−I, I]]`.
    ///
    /// Each row adds the dense rows' two terms in their order, scaled by the
    /// map's own `1/√2`, and each stored row starts from `+0.0` as
    /// [`mat4_apply`](crate::gamma::mat4_apply) does. So the result equals
    /// the dense composition `S · A · S†` bit for bit; the `S†` rows skip
    /// the start, which can only flip the sign of a zero that the stored
    /// rows' start clears again.
    pub fn apply_nr<T: Real>(&self, a: &CloverSite<T>, psi: &Spinor<T>) -> Spinor<T> {
        let r = T::from_f64(self.s[0][0].re);
        let h = |v: &ColorVec<T>| v.scale_re(r);
        let p = &psi.s;
        let chi = Spinor {
            s: [h(&p[0]) - h(&p[2]), h(&p[1]) - h(&p[3]), h(&p[0]) + h(&p[2]), h(&p[1]) + h(&p[3])],
        };
        let q = a.apply_chiral(&chi).s;
        let z = ColorVec::zero();
        Spinor {
            s: [
                z + h(&q[0]) + h(&q[2]),
                z + h(&q[1]) + h(&q[3]),
                z - h(&q[0]) + h(&q[2]),
                z - h(&q[1]) + h(&q[3]),
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gamma::{mat4_apply, mat4_identity, mat4_max_diff, mat4_mul};
    use crate::spinor::SPINOR_REALS;

    fn sample_block() -> CloverBlock<f64> {
        let mut b = CloverBlock::identity();
        for i in 0..BLOCK_DIM {
            b.diag[i] = 1.0 + 0.1 * i as f64;
        }
        for k in 0..BLOCK_OFFDIAG {
            b.offdiag[k] = C64::new(0.03 * k as f64 - 0.1, 0.02 * (k % 5) as f64);
        }
        b
    }

    fn sample_spinor() -> Spinor<f64> {
        let mut sp = Spinor::zero();
        for s in 0..4 {
            for co in 0..3 {
                sp.s[s].c[co] = C64::new(0.2 * s as f64 + 0.1, -0.3 * co as f64 + 0.05);
            }
        }
        sp
    }

    #[test]
    fn tri_index_covers_lower_triangle() {
        let mut seen = [false; BLOCK_OFFDIAG];
        for i in 0..BLOCK_DIM {
            for j in 0..i {
                let k = tri_index(i, j);
                assert!(!seen[k]);
                seen[k] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn dense_roundtrip_is_hermitian() {
        let b = sample_block();
        let d = b.to_dense();
        for i in 0..BLOCK_DIM {
            for j in 0..BLOCK_DIM {
                assert!((d[i][j].re - d[j][i].re).abs() < 1e-15);
                assert!((d[i][j].im + d[j][i].im).abs() < 1e-15);
            }
        }
        let back = CloverBlock::<f64>::from_dense(&d);
        assert_eq!(back, b);
    }

    #[test]
    fn packed_site_is_72_reals() {
        let site = CloverSite { block: [sample_block(), sample_block().shifted(0.5)] };
        let r = site.to_reals();
        assert_eq!(r.len(), CLOVER_REALS);
        assert_eq!(CloverSite::from_reals(&r), site);
    }

    #[test]
    fn mul_vec_matches_dense() {
        let b = sample_block();
        let d = b.to_dense();
        let v: [C64; 6] = std::array::from_fn(|i| C64::new(0.1 * i as f64, 1.0 - 0.2 * i as f64));
        let fast = b.mul_vec(&v);
        for i in 0..BLOCK_DIM {
            let mut acc = C64::zero();
            for j in 0..BLOCK_DIM {
                acc += d[i][j] * v[j];
            }
            assert!((fast[i].re - acc.re).abs() < 1e-13);
            assert!((fast[i].im - acc.im).abs() < 1e-13);
        }
    }

    #[test]
    fn invert_gives_inverse() {
        let b = sample_block().shifted(4.0); // well-conditioned
        let inv = b.invert().unwrap();
        let v: [C64; 6] = std::array::from_fn(|i| C64::new(1.0 - 0.11 * i as f64, 0.07 * i as f64));
        let w = inv.mul_vec(&b.mul_vec(&v));
        for i in 0..BLOCK_DIM {
            assert!((w[i].re - v[i].re).abs() < 1e-10);
            assert!((w[i].im - v[i].im).abs() < 1e-10);
        }
    }

    #[test]
    fn singular_block_returns_none() {
        let mut b = CloverBlock::<f64>::identity();
        b.diag = [0.0; BLOCK_DIM];
        assert!(b.invert().is_none());
    }

    #[test]
    fn identity_clover_is_identity_map() {
        let a = CloverSite::<f64>::identity();
        let psi = sample_spinor();
        assert!((a.apply_chiral(&psi) - psi).norm_sqr() < 1e-28);
        let map = CloverBasisMap::new();
        assert!((map.apply_nr(&a, &psi) - psi).norm_sqr() < 1e-24);
    }

    #[test]
    fn apply_is_hermitian_operator() {
        // <x, A y> = <A x, y> for the site operator.
        let a = CloverSite { block: [sample_block(), sample_block().shifted(-0.2)] };
        let x = sample_spinor();
        let mut y = sample_spinor();
        y.s[1].c[2] = C64::new(-1.0, 0.7);
        let lhs = x.dot(&a.apply_chiral(&y));
        let rhs = a.apply_chiral(&x).dot(&y);
        assert!((lhs.re - rhs.re).abs() < 1e-12);
        assert!((lhs.im - rhs.im).abs() < 1e-12);
    }

    #[test]
    fn nr_application_is_similarity_transform() {
        // A_NR = S A_chiral S† as dense spin-color operators: the butterfly
        // map equals the dense composition bit for bit, in both precisions,
        // on the smooth sample and on spinors and clover terms drawn from
        // signed zeros, subnormals and a few exact values, so that output
        // rows summing two zeros of either sign occur.
        fn check<T: Real>() {
            let map = CloverBasisMap::new();
            let pool = [0.0, -0.0, 0.0, -0.0, 1.0, -1.0, 0.5, -0.25, 1e-310, -1e-310];
            let mut state = 0x9e37_79b9_7f4a_7c15u64;
            let mut draw = || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                T::from_f64(pool[(state % pool.len() as u64) as usize])
            };
            let bits = |sp: &Spinor<T>| sp.to_reals().map(|x| x.to_f64().to_bits());
            let sample = sample_block().cast::<T>();
            let mut cases = vec![(
                CloverSite { block: [sample, sample.shifted(T::from_f64(-0.2))] },
                sample_spinor().cast::<T>(),
            )];
            for _ in 0..500 {
                let a = CloverSite::from_reals(&[(); CLOVER_REALS].map(|_| draw()));
                let psi = Spinor::from_reals(&[(); SPINOR_REALS].map(|_| draw()));
                cases.push((a, psi));
            }
            // Spinors of signed zeros through terms of signed zeros: where
            // a stored row adds two −0.0 (the zero spinor through the −0.0
            // term does, in colour 0), only its +0.0 start gives the dense
            // result's sign.
            let zero = |z: f64| CloverBlock {
                diag: [T::from_f64(z); BLOCK_DIM],
                offdiag: [Complex::new(T::from_f64(z), T::from_f64(z)); BLOCK_OFFDIAG],
            };
            for a in [zero(0.0), zero(-0.0)].map(|b| CloverSite { block: [b, b] }) {
                cases.push((a, Spinor::zero()));
                for _ in 0..100 {
                    cases.push((
                        a,
                        Spinor::from_reals(&[(); SPINOR_REALS].map(|_| draw() * T::ZERO)),
                    ));
                }
            }
            for (a, psi) in &cases {
                let via_map = map.apply_nr(a, psi);
                let expect = mat4_apply(&map.s, &a.apply_chiral(&mat4_apply(&map.s_dag, psi)));
                assert_eq!(bits(&via_map), bits(&expect), "{} a={a:?} psi={psi:?}", T::NAME);
            }
        }
        let map = CloverBasisMap::new();
        // S S† = 1.
        let prod = mat4_mul(&map.s, &map.s_dag);
        assert!(mat4_max_diff(&prod, &mat4_identity()) < 1e-12);
        check::<f64>();
        check::<f32>();
    }

    #[test]
    fn shifted_adds_to_diagonal_only() {
        let b = sample_block();
        let s = b.shifted(2.5);
        for i in 0..BLOCK_DIM {
            assert_eq!(s.diag[i], b.diag[i] + 2.5);
        }
        assert_eq!(s.offdiag, b.offdiag);
    }

    #[test]
    fn cast_roundtrip() {
        let b = sample_block();
        let lo: CloverBlock<f32> = b.cast();
        let hi: CloverBlock<f64> = lo.cast();
        for i in 0..BLOCK_DIM {
            assert!((hi.diag[i] - b.diag[i]).abs() < 1e-6);
        }
    }

    #[test]
    fn max_abs_bounds_all_entries() {
        let site = CloverSite { block: [sample_block(), sample_block().shifted(3.0)] };
        let m = site.max_abs();
        for r in site.to_reals() {
            assert!(r.abs() <= m);
        }
    }
}
