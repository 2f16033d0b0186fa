//! Gauge (link) fields on the host, in the paper's 2-row compression.
//!
//! Storage is per parity and per direction: `data[parity][mu]` holds
//! `sites × 12` reals, link `cb` being the run `data[12·cb .. 12·(cb + 1)]`
//! (the first two rows; the third is reconstructed on load, Section V-C2).
//! There is no pad: on a GPU the pad of Eq. 5 breaks partition camping and
//! hides the temporal ghost links (Fig. 2), and `quda-lattice`'s layout with
//! `quda-multigpu`'s `perf.rs` model that. Here every partitioned dimension,
//! T included, keeps its ghost links in its own store, `ghost[parity][dir]`,
//! and one accessor pair, [`GaugeFieldCb::ghost_link`]/
//! [`GaugeFieldCb::set_ghost_link`], serves all four.

use crate::host::GaugeConfig;
use crate::precision::Precision;
use quda_lattice::geometry::{LatticeDims, Parity};
use quda_lattice::layout::species::LINK_COMPRESSED_REALS;
use quda_lattice::stencil::Stencil;
use quda_math::complex::Complex;
use quda_math::real::Real;
use quda_math::su3::{Su3, Su3Compressed};

/// A both-parity gauge field with precision-`P` device storage.
#[derive(Clone, Debug)]
pub struct GaugeFieldCb<P: Precision> {
    /// Lattice extents.
    pub dims: LatticeDims,
    /// `data[parity][mu]`: `sites × 12` reals, one compressed link per site.
    pub data: [[Vec<P::Elem>; 4]; 2],
    /// Ghost links: `ghost[parity][dir]` holds the backward neighbor's
    /// boundary slice of `U_dir`, one compressed link per face site,
    /// allocated lazily on first write.
    pub ghost: [[Vec<P::Elem>; 4]; 2],
}

impl<P: Precision> GaugeFieldCb<P> {
    /// Allocate a unit (identity-link) field. Links are always stored
    /// 2-row compressed; `compressed` must be `true`.
    pub fn new(dims: LatticeDims, compressed: bool) -> Self {
        assert!(compressed, "links are stored 2-row compressed");
        let make = || vec![P::Elem::default(); LINK_COMPRESSED_REALS * dims.half_volume()];
        let mut field = GaugeFieldCb {
            dims,
            data: [[make(), make(), make(), make()], [make(), make(), make(), make()]],
            ghost: Default::default(),
        };
        let id = Su3::<f64>::identity();
        for parity in [Parity::Even, Parity::Odd] {
            for mu in 0..4 {
                for cb in 0..field.sites() {
                    field.set_link(parity, mu, cb, &id);
                }
            }
        }
        field
    }

    /// Number of sites per parity.
    #[inline(always)]
    pub fn sites(&self) -> usize {
        self.dims.half_volume()
    }

    /// Store the first two rows of `u` as link `k` of `buf`.
    #[inline(always)]
    fn write_link(buf: &mut [P::Elem], k: usize, u: &Su3<f64>) {
        let run = &mut buf[LINK_COMPRESSED_REALS * k..LINK_COMPRESSED_REALS * (k + 1)];
        for (pair, z) in run.chunks_exact_mut(2).zip(u.m[..2].iter().flatten()) {
            pair[0] = P::store(P::Arith::from_f64(z.re));
            pair[1] = P::store(P::Arith::from_f64(z.im));
        }
    }

    /// Load link `k` of `buf` and reconstruct its third row.
    #[inline(always)]
    fn read_link(buf: &[P::Elem], k: usize) -> Su3<P::Arith> {
        let run = &buf[LINK_COMPRESSED_REALS * k..LINK_COMPRESSED_REALS * (k + 1)];
        let load = |e| P::Arith::from_f64(P::load(e).to_f64());
        let mut c = Su3Compressed::<P::Arith>::default();
        for (z, pair) in c.rows.iter_mut().flatten().zip(run.chunks_exact(2)) {
            *z = Complex::new(load(pair[0]), load(pair[1]));
        }
        c.reconstruct()
    }

    /// Store the link `U_μ` at checkerboard site `cb` of `parity`.
    pub fn set_link(&mut self, parity: Parity, mu: usize, cb: usize, u: &Su3<f64>) {
        debug_assert!(cb < self.sites(), "site {cb} out of {}", self.sites());
        Self::write_link(&mut self.data[parity.as_usize()][mu], cb, u);
    }

    /// Load and reconstruct the link `U_μ` at `cb`.
    pub fn link(&self, parity: Parity, mu: usize, cb: usize) -> Su3<P::Arith> {
        debug_assert!(cb < self.sites(), "site {cb} out of {}", self.sites());
        Self::read_link(&self.data[parity.as_usize()][mu], cb)
    }

    /// Face sites per parity of a `dir`-boundary slice.
    #[inline(always)]
    pub fn face_sites_dim(&self, dir: usize) -> usize {
        Stencil::face_sites_dim(&self.dims, dir)
    }

    /// Store the ghost copy of `U_dir` at face site `face` of the backward
    /// `dir`-boundary, allocating the `dir` store on first write.
    pub fn set_ghost_link(&mut self, parity: Parity, dir: usize, face: usize, u: &Su3<f64>) {
        let fs = self.face_sites_dim(dir);
        let buf = &mut self.ghost[parity.as_usize()][dir];
        if buf.is_empty() {
            buf.resize(fs * LINK_COMPRESSED_REALS, P::Elem::default());
        }
        Self::write_link(buf, face, u);
    }

    /// Load the ghost copy of `U_dir` at face site `face` of the backward
    /// `dir`-boundary (the counterpart of [`GaugeFieldCb::set_ghost_link`]).
    pub fn ghost_link(&self, parity: Parity, dir: usize, face: usize) -> Su3<P::Arith> {
        let buf = &self.ghost[parity.as_usize()][dir];
        if buf.is_empty() {
            // Never written (lazy store): identity, matching a fresh field.
            return Su3::identity();
        }
        Self::read_link(buf, face)
    }

    /// Upload an entire host configuration (both parities, all directions).
    pub fn upload(&mut self, config: &GaugeConfig) {
        assert_eq!(config.dims, self.dims);
        for parity in [Parity::Even, Parity::Odd] {
            for cb in 0..self.sites() {
                let c = self.dims.cb_coord(parity, cb);
                for mu in 0..4 {
                    let u = *config.link(c, mu);
                    self.set_link(parity, mu, cb, &u);
                }
            }
        }
    }

    /// Device bytes occupied by the 8 link arrays and every ghost store.
    pub fn device_bytes(&self) -> usize {
        let elems: usize = self.data.iter().chain(&self.ghost).flatten().map(Vec::len).sum();
        elems * P::STORAGE_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::precision::{Double, Half, Quarter, Single};
    use quda_lattice::geometry::DIR_T;
    use quda_math::complex::C64;

    fn dims() -> LatticeDims {
        LatticeDims::new(4, 4, 2, 4)
    }

    fn sample_link(seed: usize) -> Su3<f64> {
        let mut u = Su3::identity();
        let k = seed as f64;
        u.m[0][1] = C64::new(0.1 * (k * 0.7).sin(), 0.2 * (k * 0.3).cos());
        u.m[1][2] = C64::new(-0.15, 0.1 * (k * 0.9).sin());
        u.m[2][0] = C64::new(0.05 * (k).cos(), -0.12);
        u.reunitarize()
    }

    #[test]
    fn new_field_is_unit() {
        let g = GaugeFieldCb::<Double>::new(dims(), true);
        for p in [Parity::Even, Parity::Odd] {
            for mu in 0..4 {
                let u = g.link(p, mu, 5);
                assert!((u - Su3::identity()).norm_sqr() < 1e-24);
            }
        }
    }

    #[test]
    fn compressed_roundtrip_reconstructs_third_row() {
        let mut g = GaugeFieldCb::<Double>::new(dims(), true);
        for cb in 0..g.sites() {
            g.set_link(Parity::Odd, 2, cb, &sample_link(cb));
        }
        for cb in 0..g.sites() {
            let expect = sample_link(cb);
            let got = g.link(Parity::Odd, 2, cb);
            assert!((got - expect).norm_sqr() < 1e-20, "cb={cb}");
        }
    }

    #[test]
    fn half_precision_links_stay_unitary_enough() {
        // Unitarity bounds elements to [-1,1], so direct quantization works
        // (Section V-C3) and the reconstructed link is near-unitary.
        let mut g = GaugeFieldCb::<Half>::new(dims(), true);
        for cb in 0..g.sites() {
            g.set_link(Parity::Even, 3, cb, &sample_link(cb));
        }
        for cb in 0..g.sites() {
            let u: Su3<f64> = g.link(Parity::Even, 3, cb).cast();
            assert!(u.is_special_unitary(1e-3), "cb={cb}");
            assert!((u - sample_link(cb)).norm_sqr().sqrt() < 1e-3);
        }
    }

    #[test]
    fn t_ghost_links_do_not_clobber_sites() {
        let mut g = GaugeFieldCb::<Single>::new(dims(), true);
        for cb in 0..g.sites() {
            g.set_link(Parity::Odd, DIR_T, cb, &sample_link(cb));
        }
        let faces = g.face_sites_dim(DIR_T);
        for f in 0..faces {
            g.set_ghost_link(Parity::Odd, DIR_T, f, &sample_link(1000 + f));
        }
        for cb in 0..g.sites() {
            let got: Su3<f64> = g.link(Parity::Odd, DIR_T, cb).cast();
            assert!((got - sample_link(cb)).norm_sqr() < 1e-10, "site clobbered at {cb}");
        }
        for f in 0..faces {
            let got: Su3<f64> = g.ghost_link(Parity::Odd, DIR_T, f).cast();
            assert!((got - sample_link(1000 + f)).norm_sqr() < 1e-10);
        }
    }

    #[test]
    fn ghost_links_roundtrip_in_every_dimension() {
        let mut g = GaugeFieldCb::<Double>::new(dims(), true);
        for mu in 0..4 {
            for cb in 0..g.sites() {
                g.set_link(Parity::Even, mu, cb, &sample_link(10 * cb + mu));
            }
        }
        for dir in 0..4 {
            for f in 0..g.face_sites_dim(dir) {
                g.set_ghost_link(Parity::Even, dir, f, &sample_link(1000 * (dir + 1) + f));
            }
        }
        for dir in 0..4 {
            for f in 0..g.face_sites_dim(dir) {
                let got: Su3<f64> = g.ghost_link(Parity::Even, dir, f).cast();
                assert!((got - sample_link(1000 * (dir + 1) + f)).norm_sqr() < 1e-20);
            }
        }
        for mu in 0..4 {
            for cb in 0..g.sites() {
                let got: Su3<f64> = g.link(Parity::Even, mu, cb).cast();
                assert!((got - sample_link(10 * cb + mu)).norm_sqr() < 1e-20, "site {cb}");
            }
        }
        // T is one dimension among four: each holds one link per face site,
        // and unwritten parities stay unallocated (lazy store).
        for dir in 0..4 {
            let len = g.ghost[Parity::Even.as_usize()][dir].len();
            assert_eq!(len, LINK_COMPRESSED_REALS * g.face_sites_dim(dir), "dir {dir}");
        }
        assert!(g.ghost[Parity::Odd.as_usize()].iter().all(|v| v.is_empty()));
    }

    /// A fresh field's unwritten ghost links read as the identity, like its
    /// sites, in every dimension and at every precision.
    fn unwritten_ghost_links_are_unit<P: Precision>() {
        let g = GaugeFieldCb::<P>::new(dims(), true);
        for p in [Parity::Even, Parity::Odd] {
            for dir in 0..4 {
                let u: Su3<f64> = g.ghost_link(p, dir, 0).cast();
                assert!((u - Su3::identity()).norm_sqr() < 1e-24, "{} {p:?} dir {dir}", P::NAME);
            }
        }
    }

    #[test]
    fn unwritten_ghost_links_are_unit_in_every_dimension() {
        unwritten_ghost_links_are_unit::<Double>();
        unwritten_ghost_links_are_unit::<Single>();
        unwritten_ghost_links_are_unit::<Half>();
        unwritten_ghost_links_are_unit::<Quarter>();
    }

    #[test]
    fn upload_matches_host_config() {
        let d = dims();
        let mut cfg = GaugeConfig::unit(d);
        for (i, u) in cfg.links.iter_mut().enumerate() {
            *u = sample_link(i);
        }
        let mut g = GaugeFieldCb::<Double>::new(d, true);
        g.upload(&cfg);
        for p in [Parity::Even, Parity::Odd] {
            for cb in 0..g.sites() {
                let c = d.cb_coord(p, cb);
                for mu in 0..4 {
                    let got = g.link(p, mu, cb);
                    assert!((got - *cfg.link(c, mu)).norm_sqr() < 1e-20);
                }
            }
        }
    }

    #[test]
    fn compression_halves_link_storage_not_quite() {
        // 12 stored reals per link against the 18 of a full link (what the
        // ghost exchange sends on the wire).
        let g = GaugeFieldCb::<Single>::new(dims(), true);
        assert!(g.data.iter().flatten().all(|d| d.len() == 12 * g.sites()));
        assert_eq!(g.device_bytes(), 8 * g.sites() * 12 * 4);
        assert!(g.device_bytes() < 8 * g.sites() * 18 * 4);
    }
}
