//! Single-parity clover fields (72 packed reals per site, stored one site
//! after another with no pad), with half-precision normalization.

use crate::precision::Precision;
use quda_lattice::geometry::LatticeDims;
use quda_math::clover::{CloverSite, CLOVER_REALS};
use quda_math::real::Real;

/// A single-parity clover field with precision-`P` device storage.
///
/// The even-odd preconditioned operator keeps two of these per parity: the
/// shifted term `T = (4+m) + A` and (on the inner parity) its inverse.
#[derive(Clone, Debug)]
pub struct CloverFieldCb<P: Precision> {
    /// Lattice extents.
    pub dims: LatticeDims,
    /// Packed element storage: `sites × 72` reals, site `cb` being the run
    /// `data[72·cb .. 72·(cb + 1)]`.
    pub data: Vec<P::Elem>,
    /// Per-site normalization (half precision only).
    pub norm: Vec<f32>,
}

impl<P: Precision> CloverFieldCb<P> {
    /// Allocate with every site set to the identity clover term.
    pub fn new(dims: LatticeDims) -> Self {
        let sites = dims.half_volume();
        let data = vec![P::Elem::default(); CLOVER_REALS * sites];
        let norm = if P::NEEDS_NORM { vec![1.0; sites] } else { Vec::new() };
        let mut f = CloverFieldCb { dims, data, norm };
        let id = CloverSite::<f64>::identity();
        for cb in 0..f.sites() {
            f.set(cb, &id);
        }
        f
    }

    /// Number of sites (half volume).
    #[inline(always)]
    pub fn sites(&self) -> usize {
        self.dims.half_volume()
    }

    /// Store the clover term at site `cb` (given in f64; truncated to `P`).
    pub fn set(&mut self, cb: usize, site: &CloverSite<f64>) {
        debug_assert!(cb < self.sites(), "site {cb} out of {}", self.sites());
        let mut stored = *site;
        if P::NEEDS_NORM {
            let norm = site.max_abs();
            let norm = if norm == 0.0 { 1.0 } else { norm };
            self.norm[cb] = norm as f32;
            let inv = 1.0 / norm;
            for b in stored.block.iter_mut() {
                for d in b.diag.iter_mut() {
                    *d *= inv;
                }
                for z in b.offdiag.iter_mut() {
                    *z = z.scale(inv);
                }
            }
        }
        let run = &mut self.data[CLOVER_REALS * cb..CLOVER_REALS * (cb + 1)];
        for (e, &r) in run.iter_mut().zip(&stored.to_reals()) {
            *e = P::store(P::Arith::from_f64(r));
        }
    }

    /// Load the clover term at site `cb` through the site codec
    /// ([`Precision::load_site`]).
    pub fn get(&self, cb: usize) -> CloverSite<P::Arith> {
        debug_assert!(cb < self.sites(), "site {cb} out of {}", self.sites());
        CloverSite::from_reals(&P::load_site::<CLOVER_REALS>(&self.data, &self.norm, cb))
    }

    /// Device bytes occupied.
    pub fn device_bytes(&self) -> usize {
        self.data.len() * P::STORAGE_BYTES + self.norm.len() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::precision::{Double, Half};
    use quda_math::complex::C64;

    fn dims() -> LatticeDims {
        LatticeDims::new(4, 4, 2, 2)
    }

    fn sample_site(seed: usize) -> CloverSite<f64> {
        let mut s = CloverSite::identity();
        for (bi, b) in s.block.iter_mut().enumerate() {
            for i in 0..6 {
                b.diag[i] = 1.0 + 0.1 * ((seed + i + bi) as f64 * 0.41).sin();
            }
            for k in 0..15 {
                b.offdiag[k] = C64::new(
                    0.1 * ((seed * 3 + k) as f64 * 0.7).sin(),
                    0.1 * ((seed * 5 + k) as f64 * 0.3).cos(),
                );
            }
        }
        s
    }

    #[test]
    fn roundtrip_double_exact() {
        let mut f = CloverFieldCb::<Double>::new(dims());
        for cb in 0..f.sites() {
            f.set(cb, &sample_site(cb));
        }
        for cb in 0..f.sites() {
            assert_eq!(f.get(cb), sample_site(cb));
        }
    }

    #[test]
    fn new_field_is_identity() {
        let f = CloverFieldCb::<Double>::new(dims());
        let id = CloverSite::<f64>::identity();
        for cb in 0..f.sites() {
            assert_eq!(f.get(cb), id);
        }
    }

    #[test]
    fn half_roundtrip_bounded_error() {
        let mut f = CloverFieldCb::<Half>::new(dims());
        for cb in 0..f.sites() {
            f.set(cb, &sample_site(cb));
        }
        for cb in 0..f.sites() {
            let expect = sample_site(cb);
            let got = f.get(cb);
            let bound = expect.max_abs() / 32767.0 + 1e-5;
            for b in 0..2 {
                for i in 0..6 {
                    assert!((got.block[b].diag[i] as f64 - expect.block[b].diag[i]).abs() <= bound);
                }
                for k in 0..15 {
                    assert!(
                        (got.block[b].offdiag[k].re as f64 - expect.block[b].offdiag[k].re).abs()
                            <= bound
                    );
                }
            }
        }
    }

    #[test]
    fn layout_has_72_reals_per_site() {
        let f = CloverFieldCb::<Double>::new(dims());
        assert_eq!(f.data.len(), 72 * f.sites());
    }
}
