//! Dense reference implementation of the Wilson-clover operator.
//!
//! This path deliberately shares *nothing* with the optimized kernels: it
//! uses natural site ordering, dense 4×4 spin projectors, full 3×3 links,
//! and f64 throughout. It exists so the layout-aware, projector-trick,
//! precision-truncated device kernels have an independent ground truth.
//! In particular it runs none of the fixed non-relativistic spin code of
//! [`quda_math::nr`] and the clover apply's butterfly: projectors are the
//! dense `1 ± γμ` matrices, and the clover term's basis change is the dense
//! composition `S · A_chiral · S†` of [`mat4_apply`].
//!
//! Convention: spinor fields are expressed in the **non-relativistic**
//! gamma basis (QUDA's internal basis); the clover term is packed in chiral
//! blocks and conjugated into that basis by the dense transform `S`.

use quda_fields::host::{GaugeConfig, HostSpinorField};
use quda_math::clover::{CloverBasisMap, CloverSite};
use quda_math::gamma::{mat4_apply, GammaBasis, SpinBasis};
use quda_math::spinor::Spinor;

/// Parameters of the Wilson-clover matrix (Eq. 2).
#[derive(Copy, Clone, Debug)]
pub struct WilsonParams {
    /// Quark mass parameter `m`.
    pub mass: f64,
    /// Sheikholeslami-Wohlert coefficient `c_sw` (0 disables the clover
    /// term, giving plain Wilson).
    pub c_sw: f64,
}

impl WilsonParams {
    /// The diagonal shift `4 + m`.
    pub fn diag_shift(&self) -> f64 {
        4.0 + self.mass
    }
}

/// Apply the hopping term `D ψ` (Eq. 2, the sum only) at every site:
/// `(Dψ)(x) = Σ_μ P−μ U_μ(x) ψ(x+μ) + P+μ U†_μ(x−μ) ψ(x−μ)`.
pub fn apply_hopping_host(
    cfg: &GaugeConfig,
    basis: &SpinBasis,
    psi: &HostSpinorField,
) -> HostSpinorField {
    assert_eq!(cfg.dims, psi.dims);
    let dims = cfg.dims;
    let mut out = HostSpinorField::zero(dims);
    for c in dims.coords() {
        let mut acc = Spinor::zero();
        for mu in 0..4 {
            // Forward: P−μ ⊗ U_μ(x) ψ(x+μ).
            let (cf, _) = dims.neighbor(c, mu, true);
            let projected = mat4_apply(&basis.proj[mu][0].dense, psi.get(cf));
            let mut hop = Spinor::zero();
            for s in 0..4 {
                hop.s[s] = cfg.link(c, mu).mul_vec(&projected.s[s]);
            }
            acc += hop;
            // Backward: P+μ ⊗ U†_μ(x−μ) ψ(x−μ).
            let (cb, _) = dims.neighbor(c, mu, false);
            let projected = mat4_apply(&basis.proj[mu][1].dense, psi.get(cb));
            let mut hop = Spinor::zero();
            for s in 0..4 {
                hop.s[s] = cfg.link(cb, mu).adj_mul_vec(&projected.s[s]);
            }
            acc += hop;
        }
        *out.get_mut(c) = acc;
    }
    out
}

/// Apply the dagger of the hopping term (projector signs swapped,
/// link/adjoint roles swapped).
pub fn apply_hopping_dagger_host(
    cfg: &GaugeConfig,
    basis: &SpinBasis,
    psi: &HostSpinorField,
) -> HostSpinorField {
    assert_eq!(cfg.dims, psi.dims);
    let dims = cfg.dims;
    let mut out = HostSpinorField::zero(dims);
    for c in dims.coords() {
        let mut acc = Spinor::zero();
        for mu in 0..4 {
            // Forward: P+μ ⊗ U_μ(x) ψ(x+μ).
            let (cf, _) = dims.neighbor(c, mu, true);
            let projected = mat4_apply(&basis.proj[mu][1].dense, psi.get(cf));
            let mut hop = Spinor::zero();
            for s in 0..4 {
                hop.s[s] = cfg.link(c, mu).mul_vec(&projected.s[s]);
            }
            acc += hop;
            // Backward: P−μ ⊗ U†_μ(x−μ) ψ(x−μ).
            let (cb, _) = dims.neighbor(c, mu, false);
            let projected = mat4_apply(&basis.proj[mu][0].dense, psi.get(cb));
            let mut hop = Spinor::zero();
            for s in 0..4 {
                hop.s[s] = cfg.link(cb, mu).adj_mul_vec(&projected.s[s]);
            }
            acc += hop;
        }
        *out.get_mut(c) = acc;
    }
    out
}

/// Apply the full Wilson-clover matrix
/// `M ψ = (4 + m + A) ψ − ½ D ψ` (Eq. 2) on the host.
///
/// `clover[lex]` is the per-site clover term `A(x)` in chiral packing
/// (zero blocks for plain Wilson).
pub fn apply_wilson_clover_host(
    cfg: &GaugeConfig,
    clover: &[CloverSite<f64>],
    params: &WilsonParams,
    psi: &HostSpinorField,
) -> HostSpinorField {
    let dims = cfg.dims;
    assert_eq!(clover.len(), dims.volume());
    let basis = SpinBasis::new(GammaBasis::NonRelativistic);
    let map = CloverBasisMap::new();
    let hop = apply_hopping_host(cfg, &basis, psi);
    let mut out = HostSpinorField::zero(dims);
    let shift = params.diag_shift();
    for c in dims.coords() {
        let i = dims.lex_index(c);
        let chiral = clover[i].apply_chiral(&mat4_apply(&map.s_dag, psi.get(c)));
        let local = psi.get(c).scale_re(shift) + mat4_apply(&map.s, &chiral);
        *out.get_mut(c) = local - hop.data[i].scale_re(0.5);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use quda_fields::gauge_gen::{random_spinor_field, weak_field};
    use quda_lattice::geometry::{Coord, LatticeDims};

    fn dims() -> LatticeDims {
        LatticeDims::new(4, 4, 4, 4)
    }

    fn zero_clover(dims: LatticeDims) -> Vec<CloverSite<f64>> {
        let mut z = CloverSite::identity();
        for b in z.block.iter_mut() {
            b.diag = [0.0; 6];
        }
        vec![z; dims.volume()]
    }

    #[test]
    fn free_field_constant_spinor_is_eigenvector() {
        // On a unit gauge field, a spatially constant spinor ψ has
        // D ψ = Σ_μ (P−μ + P+μ) ψ = 8 ψ, so M ψ = (4+m)ψ − 4ψ = m ψ.
        let d = dims();
        let cfg = GaugeConfig::unit(d);
        let mut psi = HostSpinorField::zero(d);
        let mut sp = Spinor::zero();
        for s in 0..4 {
            for c in 0..3 {
                sp.s[s].c[c] =
                    quda_math::complex::C64::new(0.3 * s as f64 + 0.1, 0.2 - 0.05 * c as f64);
            }
        }
        for v in psi.data.iter_mut() {
            *v = sp;
        }
        let params = WilsonParams { mass: 0.25, c_sw: 0.0 };
        let out = apply_wilson_clover_host(&cfg, &zero_clover(d), &params, &psi);
        for c in d.coords() {
            let expect = sp.scale_re(0.25);
            let diff = (*out.get(c) - expect).norm_sqr();
            assert!(diff < 1e-22, "site {c:?}: diff {diff}");
        }
    }

    #[test]
    fn operator_is_linear() {
        let d = dims();
        let cfg = weak_field(d, 0.15, 4);
        let clover = zero_clover(d);
        let params = WilsonParams { mass: 0.1, c_sw: 0.0 };
        let a = random_spinor_field(d, 1);
        let b = random_spinor_field(d, 2);
        let mut sum = HostSpinorField::zero(d);
        for i in 0..d.volume() {
            sum.data[i] = a.data[i] + b.data[i].scale_re(2.0);
        }
        let ma = apply_wilson_clover_host(&cfg, &clover, &params, &a);
        let mb = apply_wilson_clover_host(&cfg, &clover, &params, &b);
        let msum = apply_wilson_clover_host(&cfg, &clover, &params, &sum);
        for i in 0..d.volume() {
            let expect = ma.data[i] + mb.data[i].scale_re(2.0);
            assert!((msum.data[i] - expect).norm_sqr() < 1e-20);
        }
    }

    #[test]
    fn dagger_is_true_adjoint_of_hopping() {
        // <x, D y> == <D† x, y> over the whole lattice.
        let d = dims();
        let cfg = weak_field(d, 0.2, 8);
        let basis = SpinBasis::new(GammaBasis::NonRelativistic);
        let x = random_spinor_field(d, 11);
        let y = random_spinor_field(d, 12);
        let dy = apply_hopping_host(&cfg, &basis, &y);
        let ddag_x = apply_hopping_dagger_host(&cfg, &basis, &x);
        let mut lhs = quda_math::complex::C64::zero();
        let mut rhs = quda_math::complex::C64::zero();
        for i in 0..d.volume() {
            lhs += x.data[i].dot(&dy.data[i]);
            rhs += ddag_x.data[i].dot(&y.data[i]);
        }
        assert!((lhs.re - rhs.re).abs() < 1e-9 * lhs.re.abs().max(1.0));
        assert!((lhs.im - rhs.im).abs() < 1e-9);
    }

    #[test]
    fn hopping_couples_only_nearest_neighbors() {
        // A point source spreads exactly to the 8 neighbors under D.
        let d = dims();
        let cfg = weak_field(d, 0.1, 3);
        let basis = SpinBasis::new(GammaBasis::NonRelativistic);
        let src_at = Coord::new(1, 2, 3, 0);
        let psi = HostSpinorField::point_source(d, src_at, 0, 0);
        let out = apply_hopping_host(&cfg, &basis, &psi);
        let mut supported_neighbors = 0;
        for c in d.coords() {
            let is_neighbor = (0..4).any(|mu| {
                let (f, _) = d.neighbor(c, mu, true);
                let (b, _) = d.neighbor(c, mu, false);
                f == src_at || b == src_at
            });
            let n = out.get(c).norm_sqr();
            if is_neighbor {
                // Note: a diagonal temporal projector may legitimately kill
                // a single-spin source in the T direction, so not every
                // neighbor is required to be nonzero.
                if n > 0.0 {
                    supported_neighbors += 1;
                }
            } else {
                assert_eq!(n, 0.0, "unexpected support at {c:?}");
            }
        }
        assert!(supported_neighbors >= 6, "got {supported_neighbors} supported neighbors");
    }

    #[test]
    fn clover_term_enters_diagonally() {
        // With a nonzero clover term, M differs from plain Wilson only
        // pointwise (no new couplings).
        let d = dims();
        let cfg = weak_field(d, 0.1, 5);
        let clover = quda_fields::clover_build::clover_both_parities(&cfg, 1.0);
        // Repack per-lex-site.
        let mut by_lex = zero_clover(d);
        for p in [quda_lattice::geometry::Parity::Even, quda_lattice::geometry::Parity::Odd] {
            for cb in 0..d.half_volume() {
                let c = d.cb_coord(p, cb);
                by_lex[d.lex_index(c)] = clover[p.as_usize()][cb];
            }
        }
        let params = WilsonParams { mass: 0.1, c_sw: 1.0 };
        let psi = HostSpinorField::point_source(d, Coord::new(0, 0, 0, 0), 1, 1);
        let with_clover = apply_wilson_clover_host(&cfg, &by_lex, &params, &psi);
        let without = apply_wilson_clover_host(&cfg, &zero_clover(d), &params, &psi);
        for c in d.coords() {
            let i = d.lex_index(c);
            let differs = (with_clover.data[i] - without.data[i]).norm_sqr() > 1e-24;
            if differs {
                // Differences appear only where ψ is nonzero (the source).
                assert!(psi.data[i].norm_sqr() > 0.0, "clover created coupling at {c:?}");
            }
        }
    }
}
