//! Construction of the clover term from the gauge field.
//!
//! The Sheikholeslami-Wohlert improvement term is
//! `A(x) = (c_sw / 2) Σ_{μ<ν} σ_μν ⊗ i F̂_μν(x)`, where `F̂_μν` is the
//! traceless anti-Hermitian clover-leaf average of the field strength —
//! the sum of the four plaquettes in the `μν` plane touching `x`:
//!
//! `F̂_μν = (Q_μν − Q†_μν)/8 − (trace part)`, with `Q_μν` the four-leaf sum.
//!
//! In the DeGrand-Rossi chiral basis every `σ_μν = (i/2)[γ_μ, γ_ν]` is block
//! diagonal in chirality, so `A` packs into the two Hermitian 6×6 blocks of
//! [`CloverSite`] — the 72-real representation of the paper's footnote 1.

use crate::host::GaugeConfig;
use quda_lattice::geometry::{Coord, Parity};
use quda_math::clover::{CloverBlock, CloverSite, BLOCK_DIM};
use quda_math::complex::C64;
use quda_math::gamma::{mat4_mul, mat4_scale, mat4_zero, GammaBasis, Mat4, SpinBasis};
use quda_math::su3::Su3;

/// `σ_μν = (i/2)[γ_μ, γ_ν]` for all pairs, in the DeGrand-Rossi basis.
pub fn sigma_matrices() -> [[Mat4; 4]; 4] {
    let basis = SpinBasis::new(GammaBasis::DeGrandRossi);
    let mut sigma = [[mat4_zero(); 4]; 4];
    for mu in 0..4 {
        for nu in 0..4 {
            if mu == nu {
                continue;
            }
            let gg = mat4_mul(&basis.gamma[mu], &basis.gamma[nu]);
            let gg2 = mat4_mul(&basis.gamma[nu], &basis.gamma[mu]);
            let mut comm = mat4_zero();
            for i in 0..4 {
                for j in 0..4 {
                    comm[i][j] = gg[i][j] - gg2[i][j];
                }
            }
            sigma[mu][nu] = mat4_scale(&comm, C64::new(0.0, 0.5));
        }
    }
    sigma
}

/// The four-leaf clover sum `Q_μν(x)`.
pub fn clover_leaf_sum(cfg: &GaugeConfig, c: Coord, mu: usize, nu: usize) -> Su3<f64> {
    let d = &cfg.dims;
    let fwd = |c: Coord, dir: usize| d.neighbor(c, dir, true).0;
    let bwd = |c: Coord, dir: usize| d.neighbor(c, dir, false).0;

    // Leaf 1: forward μ, forward ν.
    let l1 = {
        let c_mu = fwd(c, mu);
        let c_nu = fwd(c, nu);
        *cfg.link(c, mu)
            * *cfg.link(c_mu, nu)
            * cfg.link(c_nu, mu).adjoint()
            * cfg.link(c, nu).adjoint()
    };
    // Leaf 2: forward ν, backward μ.
    let l2 = {
        let c_bmu = bwd(c, mu);
        let c_bmu_nu = fwd(c_bmu, nu);
        *cfg.link(c, nu)
            * cfg.link(c_bmu_nu, mu).adjoint()
            * cfg.link(c_bmu, nu).adjoint()
            * *cfg.link(c_bmu, mu)
    };
    // Leaf 3: backward μ, backward ν.
    let l3 = {
        let c_bmu = bwd(c, mu);
        let c_bnu = bwd(c, nu);
        let c_bmu_bnu = bwd(c_bmu, nu);
        cfg.link(c_bmu, mu).adjoint()
            * cfg.link(c_bmu_bnu, nu).adjoint()
            * *cfg.link(c_bmu_bnu, mu)
            * *cfg.link(c_bnu, nu)
    };
    // Leaf 4: backward ν, forward μ.
    let l4 = {
        let c_bnu = bwd(c, nu);
        let c_bnu_mu = fwd(c_bnu, mu);
        cfg.link(c_bnu, nu).adjoint()
            * *cfg.link(c_bnu, mu)
            * *cfg.link(c_bnu_mu, nu)
            * cfg.link(c, mu).adjoint()
    };
    l1 + l2 + l3 + l4
}

/// The traceless anti-Hermitian field strength `F̂_μν(x)` from the clover
/// leaves, multiplied by `i` so the result is Hermitian (and traceless).
pub fn field_strength_i(cfg: &GaugeConfig, c: Coord, mu: usize, nu: usize) -> Su3<f64> {
    let q = clover_leaf_sum(cfg, c, mu, nu);
    let anti = (q - q.adjoint()).scale_re(1.0 / 8.0);
    // Remove the trace part (anti is anti-Hermitian, trace is imaginary).
    let tr = anti.trace();
    let mut traceless = anti;
    for i in 0..3 {
        traceless.m[i][i] -= tr.scale(1.0 / 3.0);
    }
    // i * F is Hermitian.
    let mut out = Su3::zero();
    for i in 0..3 {
        for j in 0..3 {
            out.m[i][j] = traceless.m[i][j].mul_i();
        }
    }
    out
}

/// Build the clover term `A(x)` at one site, packed into chiral blocks.
pub fn clover_site(
    cfg: &GaugeConfig,
    sigma: &[[Mat4; 4]; 4],
    c: Coord,
    c_sw: f64,
) -> CloverSite<f64> {
    // Dense chiral blocks, indexed (spin_in_block * 3 + color).
    let mut dense = [[[C64::zero(); BLOCK_DIM]; BLOCK_DIM]; 2];
    for mu in 0..4 {
        for nu in (mu + 1)..4 {
            let f = field_strength_i(cfg, c, mu, nu);
            let s = &sigma[mu][nu];
            for b in 0..2 {
                let base = 2 * b;
                for sp1 in 0..2 {
                    for sp2 in 0..2 {
                        let coeff = s[base + sp1][base + sp2].scale(c_sw / 2.0);
                        if coeff.norm_sqr() == 0.0 {
                            continue;
                        }
                        for c1 in 0..3 {
                            for c2 in 0..3 {
                                dense[b][sp1 * 3 + c1][sp2 * 3 + c2] += coeff * f.m[c1][c2];
                            }
                        }
                    }
                }
            }
        }
    }
    CloverSite { block: [CloverBlock::from_dense(&dense[0]), CloverBlock::from_dense(&dense[1])] }
}

/// Build the clover term for every site of one parity, in checkerboard
/// order. `c_sw` is the Sheikholeslami-Wohlert coefficient.
pub fn clover_sites_cb(cfg: &GaugeConfig, c_sw: f64, parity: Parity) -> Vec<CloverSite<f64>> {
    let sigma = sigma_matrices();
    let d = cfg.dims;
    (0..d.half_volume()).map(|cb| clover_site(cfg, &sigma, d.cb_coord(parity, cb), c_sw)).collect()
}

/// Convenience: verify the clover term vanishes on a free (unit) field.
pub fn is_zero_clover(site: &CloverSite<f64>, tol: f64) -> bool {
    site.max_abs() <= tol
}

/// Check the σ matrices stay within chiral blocks — the structural fact the
/// 72-real packing relies on.
pub fn sigma_is_block_diagonal(sigma: &[[Mat4; 4]; 4]) -> bool {
    for mu in 0..4 {
        for nu in 0..4 {
            if mu == nu {
                continue;
            }
            let s = &sigma[mu][nu];
            for i in 0..4 {
                for j in 0..4 {
                    let same_block = (i / 2) == (j / 2);
                    if !same_block && s[i][j].norm_sqr() > 1e-24 {
                        return false;
                    }
                }
            }
        }
    }
    true
}

/// Build both-parity clover vectors for a full lattice (helper used by the
/// operator constructors).
pub fn clover_both_parities(cfg: &GaugeConfig, c_sw: f64) -> [Vec<CloverSite<f64>>; 2] {
    [clover_sites_cb(cfg, c_sw, Parity::Even), clover_sites_cb(cfg, c_sw, Parity::Odd)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gauge_gen::weak_field;
    use quda_lattice::geometry::LatticeDims;
    use quda_math::gamma::mat4_adjoint;

    #[test]
    fn sigma_matrices_are_hermitian_and_block_diagonal() {
        let sigma = sigma_matrices();
        assert!(sigma_is_block_diagonal(&sigma));
        for mu in 0..4 {
            for nu in 0..4 {
                if mu == nu {
                    continue;
                }
                let s = &sigma[mu][nu];
                let sd = mat4_adjoint(s);
                for i in 0..4 {
                    for j in 0..4 {
                        assert!((s[i][j].re - sd[i][j].re).abs() < 1e-12);
                        assert!((s[i][j].im - sd[i][j].im).abs() < 1e-12);
                    }
                }
            }
        }
    }

    #[test]
    fn sigma_antisymmetric_in_indices() {
        let sigma = sigma_matrices();
        for mu in 0..4 {
            for nu in 0..4 {
                if mu == nu {
                    continue;
                }
                for i in 0..4 {
                    for j in 0..4 {
                        assert!((sigma[mu][nu][i][j].re + sigma[nu][mu][i][j].re).abs() < 1e-12);
                        assert!((sigma[mu][nu][i][j].im + sigma[nu][mu][i][j].im).abs() < 1e-12);
                    }
                }
            }
        }
    }

    #[test]
    fn free_field_clover_vanishes() {
        let cfg = GaugeConfig::unit(LatticeDims::new(4, 4, 4, 4));
        let sites = clover_sites_cb(&cfg, 1.0, Parity::Even);
        assert!(sites.iter().all(|s| is_zero_clover(s, 1e-13)));
    }

    #[test]
    fn weak_field_clover_is_small_and_nonzero() {
        let cfg = weak_field(LatticeDims::new(4, 4, 4, 4), 0.1, 21);
        let sites = clover_sites_cb(&cfg, 1.0, Parity::Odd);
        let max = sites.iter().map(|s| s.max_abs()).fold(0.0, f64::max);
        assert!(max > 1e-6, "clover should be nonzero on a noisy field");
        assert!(max < 1.0, "clover should be perturbatively small, got {max}");
    }

    #[test]
    fn clover_scales_linearly_with_csw() {
        let cfg = weak_field(LatticeDims::new(4, 4, 2, 2), 0.1, 9);
        let sigma = sigma_matrices();
        let c = Coord::new(1, 2, 0, 1);
        let a1 = clover_site(&cfg, &sigma, c, 1.0);
        let a2 = clover_site(&cfg, &sigma, c, 2.0);
        for b in 0..2 {
            for i in 0..6 {
                assert!((a2.block[b].diag[i] - 2.0 * a1.block[b].diag[i]).abs() < 1e-12);
            }
            for k in 0..15 {
                assert!(
                    (a2.block[b].offdiag[k].re - 2.0 * a1.block[b].offdiag[k].re).abs() < 1e-12
                );
            }
        }
    }

    #[test]
    fn field_strength_is_hermitian_and_traceless() {
        let cfg = weak_field(LatticeDims::new(4, 4, 2, 2), 0.2, 33);
        let f = field_strength_i(&cfg, Coord::new(0, 1, 0, 1), 0, 3);
        // Hermitian.
        let fd = f.adjoint();
        assert!((f - fd).norm_sqr() < 1e-24);
        // Traceless.
        let tr = f.trace();
        assert!(tr.re.abs() < 1e-12 && tr.im.abs() < 1e-12);
    }

    #[test]
    fn leaf_sum_reduces_to_four_identities_on_free_field() {
        let cfg = GaugeConfig::unit(LatticeDims::new(2, 2, 2, 2));
        let q = clover_leaf_sum(&cfg, Coord::new(0, 0, 0, 0), 0, 1);
        let expect = Su3::identity().scale_re(4.0);
        assert!((q - expect).norm_sqr() < 1e-24);
    }
}
