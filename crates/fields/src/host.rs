//! Host-side ("CPU") fields in natural ordering and full double precision.
//!
//! Mirrors how QUDA is used from Chroma: the application holds fields on the
//! host in a conventional layout (Eq. 3 — internal indices fastest), and the
//! library reorders/truncates them on upload to the device. Gauge
//! generation, source construction, and correctness references all operate
//! on these.

use quda_lattice::geometry::{Coord, LatticeDims, Parity};
use quda_math::spinor::Spinor;
use quda_math::su3::Su3;

/// A full-lattice gauge configuration: one `Su3<f64>` per site and
/// direction, natural (lexicographic) site ordering.
#[derive(Clone, Debug)]
pub struct GaugeConfig {
    /// Lattice extents.
    pub dims: LatticeDims,
    /// `links[site * 4 + mu]` with `site` lexicographic.
    pub links: Vec<Su3<f64>>,
}

impl GaugeConfig {
    /// The free-field (unit) configuration.
    pub fn unit(dims: LatticeDims) -> Self {
        GaugeConfig { dims, links: vec![Su3::identity(); dims.volume() * 4] }
    }

    /// Link `U_μ(x)`.
    #[inline(always)]
    pub fn link(&self, c: Coord, mu: usize) -> &Su3<f64> {
        &self.links[self.dims.lex_index(c) * 4 + mu]
    }

    /// Mutable link accessor.
    #[inline(always)]
    pub fn link_mut(&mut self, c: Coord, mu: usize) -> &mut Su3<f64> {
        &mut self.links[self.dims.lex_index(c) * 4 + mu]
    }

    /// The product of links around the `μν` plaquette at `x`:
    /// `U_μ(x) U_ν(x+μ) U_μ†(x+ν) U_ν†(x)`.
    pub fn plaquette_matrix(&self, c: Coord, mu: usize, nu: usize) -> Su3<f64> {
        let d = &self.dims;
        let (c_mu, _) = d.neighbor(c, mu, true);
        let (c_nu, _) = d.neighbor(c, nu, true);
        *self.link(c, mu)
            * *self.link(c_mu, nu)
            * self.link(c_nu, mu).adjoint()
            * self.link(c, nu).adjoint()
    }

    /// Average plaquette `⟨(1/3) Re Tr P_{μν}⟩` over all sites and the six
    /// planes. Equals 1 for the unit configuration and decreases with the
    /// noise amplitude of a weak-field configuration.
    pub fn average_plaquette(&self) -> f64 {
        let mut sum = 0.0;
        let mut count = 0usize;
        for c in self.dims.coords() {
            for mu in 0..4 {
                for nu in (mu + 1)..4 {
                    sum += self.plaquette_matrix(c, mu, nu).trace().re / 3.0;
                    count += 1;
                }
            }
        }
        sum / count as f64
    }

    /// Check that every link is special-unitary to tolerance.
    pub fn is_unitary(&self, tol: f64) -> bool {
        self.links.iter().all(|u| u.is_special_unitary(tol))
    }
}

/// A full-lattice spinor field on the host, natural ordering, f64.
#[derive(Clone, Debug)]
pub struct HostSpinorField {
    /// Lattice extents.
    pub dims: LatticeDims,
    /// One spinor per lexicographic site.
    pub data: Vec<Spinor<f64>>,
}

impl HostSpinorField {
    /// All-zero field.
    pub fn zero(dims: LatticeDims) -> Self {
        HostSpinorField { dims, data: vec![Spinor::zero(); dims.volume()] }
    }

    /// A point source at coordinate `c` with unit weight in `(spin, color)` —
    /// the sources used by the Chroma propagator driver (Section VII-A).
    pub fn point_source(dims: LatticeDims, c: Coord, spin: usize, color: usize) -> Self {
        let mut f = Self::zero(dims);
        f.data[dims.lex_index(c)] = Spinor::point(spin, color);
        f
    }

    /// Access by coordinate.
    #[inline(always)]
    pub fn get(&self, c: Coord) -> &Spinor<f64> {
        &self.data[self.dims.lex_index(c)]
    }

    /// Mutable access by coordinate.
    #[inline(always)]
    pub fn get_mut(&mut self, c: Coord) -> &mut Spinor<f64> {
        let i = self.dims.lex_index(c);
        &mut self.data[i]
    }

    /// Access by checkerboard address.
    #[inline(always)]
    pub fn get_cb(&self, parity: Parity, cb: usize) -> &Spinor<f64> {
        self.get(self.dims.cb_coord(parity, cb))
    }

    /// Mutable access by checkerboard address.
    #[inline(always)]
    pub fn get_cb_mut(&mut self, parity: Parity, cb: usize) -> &mut Spinor<f64> {
        self.get_mut(self.dims.cb_coord(parity, cb))
    }

    /// Squared 2-norm over the whole lattice.
    pub fn norm_sqr(&self) -> f64 {
        self.data.iter().map(Spinor::norm_sqr).sum()
    }

    /// Maximum site-spinor distance to another field.
    pub fn max_site_dist(&self, other: &Self) -> f64 {
        assert_eq!(self.dims, other.dims);
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (*a - *b).norm_sqr().sqrt())
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quda_lattice::geometry::DIR_X;

    #[test]
    fn unit_gauge_has_plaquette_one() {
        let g = GaugeConfig::unit(LatticeDims::new(4, 4, 4, 4));
        assert!((g.average_plaquette() - 1.0).abs() < 1e-14);
        assert!(g.is_unitary(1e-14));
    }

    #[test]
    fn plaquette_matrix_is_unitary() {
        let g = GaugeConfig::unit(LatticeDims::new(2, 2, 2, 2));
        let p = g.plaquette_matrix(Coord::new(0, 0, 0, 0), DIR_X, 3);
        assert!(p.is_special_unitary(1e-14));
    }

    #[test]
    fn point_source_norm() {
        let d = LatticeDims::new(4, 4, 4, 8);
        let f = HostSpinorField::point_source(d, Coord::new(1, 2, 3, 4), 2, 1);
        assert_eq!(f.norm_sqr(), 1.0);
        assert_eq!(f.get(Coord::new(1, 2, 3, 4)).s[2].c[1].re, 1.0);
    }

    #[test]
    fn cb_access_consistent_with_coord_access() {
        let d = LatticeDims::new(4, 4, 2, 2);
        let mut f = HostSpinorField::zero(d);
        for (i, sp) in f.data.iter_mut().enumerate() {
            sp.s[0].c[0].re = i as f64;
        }
        for p in [Parity::Even, Parity::Odd] {
            for cb in 0..d.half_volume() {
                let c = d.cb_coord(p, cb);
                assert_eq!(f.get_cb(p, cb).s[0].c[0].re, d.lex_index(c) as f64);
            }
        }
    }

    #[test]
    fn max_site_dist_detects_difference() {
        let d = LatticeDims::new(2, 2, 2, 2);
        let a = HostSpinorField::zero(d);
        let mut b = HostSpinorField::zero(d);
        b.data[3].s[1].c[2].im = 2.0;
        assert_eq!(a.max_site_dist(&b), 2.0);
        assert_eq!(a.max_site_dist(&a), 0.0);
    }
}
