//! Gauge (link) fields in the QUDA device layout, with 2-row compression
//! and the pad-resident ghost slice of Section VI-B.
//!
//! Storage is per parity and per direction: `data[parity][mu]` is one
//! Eq. 5 array at `N_vec = N_int` — 12 (compressed) or 18 (full) contiguous
//! reals per site, then the pad. The pad is one half spatial volume —
//! exactly the size of one time-slice of links — so the ghost copy of
//! `U_T(x−T̂)` from the backward neighbor is written into the pad of the T
//! array at the face index of the site ("the ghost zone of link matrices
//! can be hidden entirely in the padding", Fig. 2). X/Y/Z faces are not
//! pads; their ghost links live in `side_ghost`. One accessor pair,
//! [`GaugeFieldCb::ghost_link`]/[`GaugeFieldCb::set_ghost_link`], routes
//! every direction.

use crate::host::GaugeConfig;
use crate::precision::Precision;
use quda_lattice::geometry::{LatticeDims, Parity, DIR_T};
use quda_lattice::layout::{species, FieldLayout, NVec};
use quda_lattice::stencil::Stencil;
use quda_math::complex::Complex;
use quda_math::real::Real;
use quda_math::su3::{Su3, Su3Compressed};

/// A both-parity gauge field with precision-`P` device storage.
#[derive(Clone, Debug)]
pub struct GaugeFieldCb<P: Precision> {
    /// Lattice extents.
    pub dims: LatticeDims,
    /// Per-direction layout (identical for all directions).
    pub layout: FieldLayout,
    /// Whether 2-row compression is active.
    pub compressed: bool,
    /// `data[parity][mu]`.
    pub data: [[Vec<P::Elem>; 4]; 2],
    /// Ghost links for X/Y/Z decompositions: `side_ghost[parity][dir]` holds
    /// the backward neighbor's boundary slice of `U_dir`, one link per face
    /// site, allocated lazily on first write. The temporal ghost slice stays
    /// in the pad of `data[parity][DIR_T]` (Section VI-B) — only X/Y/Z need
    /// dedicated storage, because their faces are not block pads.
    pub side_ghost: [[Vec<P::Elem>; 3]; 2],
}

impl<P: Precision> GaugeFieldCb<P> {
    /// Allocate a unit (identity-link) field.
    pub fn new(dims: LatticeDims, compressed: bool) -> Self {
        let layout = species::gauge_cb(&dims, NVec::SiteMajor, compressed);
        let make = || vec![P::Elem::default(); layout.body_len()];
        let mut field = GaugeFieldCb {
            dims,
            layout,
            compressed,
            data: [[make(), make(), make(), make()], [make(), make(), make(), make()]],
            side_ghost: [
                [Vec::new(), Vec::new(), Vec::new()],
                [Vec::new(), Vec::new(), Vec::new()],
            ],
        };
        let id = Su3::<f64>::identity();
        for parity in [Parity::Even, Parity::Odd] {
            for mu in 0..4 {
                for cb in 0..layout.sites {
                    field.set_link(parity, mu, cb, &id);
                }
            }
        }
        field
    }

    /// Number of sites per parity.
    #[inline(always)]
    pub fn sites(&self) -> usize {
        self.layout.sites
    }

    /// Reals stored per link.
    #[inline(always)]
    pub fn link_reals(&self) -> usize {
        self.layout.n_int
    }

    /// Write one link's reals to block position `pos` (a site, or
    /// [`FieldLayout::pad_pos`] of a ghost slot).
    fn write_reals(buf: &mut [P::Elem], layout: &FieldLayout, pos: usize, reals: &[f64]) {
        layout.scatter(buf, pos, reals, |r| P::store(P::Arith::from_f64(r)));
    }

    /// Read one link's reals from block position `pos`.
    fn read_reals(buf: &[P::Elem], layout: &FieldLayout, pos: usize, out: &mut [f64]) {
        layout.gather(buf, pos, out, |e| P::load(e).to_f64());
    }

    /// Serialize `u` into `out` (stack scratch — link reads and writes sit
    /// on the per-iteration dslash path and must not touch the heap);
    /// returns the number of reals filled (12 compressed, 18 full).
    fn link_to_reals(&self, u: &Su3<f64>, out: &mut [f64; 18]) -> usize {
        let rows = if self.compressed { 2 } else { 3 };
        let mut k = 0;
        for i in 0..rows {
            for j in 0..3 {
                out[k] = u.m[i][j].re;
                out[k + 1] = u.m[i][j].im;
                k += 2;
            }
        }
        k
    }

    fn reals_to_link(&self, reals: &[f64]) -> Su3<P::Arith> {
        if self.compressed {
            let mut c = Su3Compressed::<P::Arith>::default();
            let mut k = 0;
            for i in 0..2 {
                for j in 0..3 {
                    c.rows[i][j] = Complex::new(
                        P::Arith::from_f64(reals[k]),
                        P::Arith::from_f64(reals[k + 1]),
                    );
                    k += 2;
                }
            }
            c.reconstruct()
        } else {
            let mut u = Su3::zero();
            let mut k = 0;
            for i in 0..3 {
                for j in 0..3 {
                    u.m[i][j] = Complex::new(
                        P::Arith::from_f64(reals[k]),
                        P::Arith::from_f64(reals[k + 1]),
                    );
                    k += 2;
                }
            }
            u
        }
    }

    /// Store the link `U_μ` at checkerboard site `cb` of `parity`.
    pub fn set_link(&mut self, parity: Parity, mu: usize, cb: usize, u: &Su3<f64>) {
        debug_assert!(cb < self.sites(), "site {cb} out of {}", self.sites());
        let mut reals = [0.0f64; 18];
        let n = self.link_to_reals(u, &mut reals);
        Self::write_reals(&mut self.data[parity.as_usize()][mu], &self.layout, cb, &reals[..n]);
    }

    /// Load (and, if compressed, reconstruct) the link `U_μ` at `cb`.
    pub fn link(&self, parity: Parity, mu: usize, cb: usize) -> Su3<P::Arith> {
        debug_assert!(cb < self.sites(), "site {cb} out of {}", self.sites());
        let mut reals = [0.0f64; 18];
        let n = self.link_reals();
        Self::read_reals(&self.data[parity.as_usize()][mu], &self.layout, cb, &mut reals[..n]);
        self.reals_to_link(&reals[..n])
    }

    /// Face sites per parity of a `dir`-boundary slice.
    #[inline(always)]
    pub fn face_sites_dim(&self, dir: usize) -> usize {
        Stencil::face_sites_dim(&self.dims, dir)
    }

    /// Store the ghost copy of `U_dir` at face site `face` of the backward
    /// `dir`-boundary. T lives in the pad of `data[parity][DIR_T]`
    /// (Section VI-B); X/Y/Z go to `side_ghost`, allocated on first write.
    pub fn set_ghost_link(&mut self, parity: Parity, dir: usize, face: usize, u: &Su3<f64>) {
        let mut reals = [0.0f64; 18];
        let n = self.link_to_reals(u, &mut reals);
        if dir == DIR_T {
            let pos = self.layout.pad_pos(face);
            let buf = &mut self.data[parity.as_usize()][DIR_T];
            return Self::write_reals(buf, &self.layout, pos, &reals[..n]);
        }
        let fs = self.face_sites_dim(dir);
        let buf = &mut self.side_ghost[parity.as_usize()][dir];
        if buf.is_empty() {
            buf.resize(fs * n, P::Elem::default());
        }
        for (k, &r) in reals[..n].iter().enumerate() {
            buf[face * n + k] = P::store(P::Arith::from_f64(r));
        }
    }

    /// Load the ghost copy of `U_dir` at face site `face` of the backward
    /// `dir`-boundary (the counterpart of [`GaugeFieldCb::set_ghost_link`]).
    pub fn ghost_link(&self, parity: Parity, dir: usize, face: usize) -> Su3<P::Arith> {
        let mut reals = [0.0f64; 18];
        let n = self.link_reals();
        if dir == DIR_T {
            let pos = self.layout.pad_pos(face);
            let buf = &self.data[parity.as_usize()][DIR_T];
            Self::read_reals(buf, &self.layout, pos, &mut reals[..n]);
            return self.reals_to_link(&reals[..n]);
        }
        let buf = &self.side_ghost[parity.as_usize()][dir];
        if buf.is_empty() {
            // Never written (lazy store): identity, matching a fresh field.
            return Su3::identity();
        }
        for (k, r) in reals[..n].iter_mut().enumerate() {
            *r = P::load(buf[face * n + k]).to_f64();
        }
        self.reals_to_link(&reals[..n])
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

    /// Device bytes occupied by all 8 arrays.
    pub fn device_bytes(&self) -> usize {
        8 * self.layout.device_bytes(P::STORAGE_BYTES)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::precision::{Double, Half, Single};
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
    fn full_storage_roundtrip() {
        let mut g = GaugeFieldCb::<Double>::new(dims(), false);
        assert_eq!(g.link_reals(), 18);
        g.set_link(Parity::Even, 0, 3, &sample_link(9));
        let got = g.link(Parity::Even, 0, 3);
        assert!((got - sample_link(9)).norm_sqr() < 1e-28);
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
    fn ghost_links_live_in_pad_and_do_not_clobber_sites() {
        let mut g = GaugeFieldCb::<Single>::new(dims(), true);
        for cb in 0..g.sites() {
            g.set_link(Parity::Odd, DIR_T, cb, &sample_link(cb));
        }
        let faces = g.layout.pad;
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
    fn side_ghost_links_roundtrip_and_t_routes_to_pad() {
        let mut g = GaugeFieldCb::<Double>::new(dims(), true);
        for mu in 0..4 {
            for cb in 0..g.sites() {
                g.set_link(Parity::Even, mu, cb, &sample_link(10 * cb + mu));
            }
        }
        assert_eq!(g.face_sites_dim(DIR_T), g.layout.pad);
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
        // The T ghosts sit in the pad, beside the sites they must not clobber.
        for mu in 0..4 {
            for cb in 0..g.sites() {
                let got: Su3<f64> = g.link(Parity::Even, mu, cb).cast();
                assert!((got - sample_link(10 * cb + mu)).norm_sqr() < 1e-20, "site {cb}");
            }
        }
        // Only X/Y/Z use the side store, and unwritten parities stay
        // unallocated (lazy side store).
        assert!(g.side_ghost[Parity::Even.as_usize()].iter().all(|v| !v.is_empty()));
        assert!(g.side_ghost[Parity::Odd.as_usize()].iter().all(|v| v.is_empty()));
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
        // 12 vs 18 reals per link.
        let c = GaugeFieldCb::<Single>::new(dims(), true);
        let f = GaugeFieldCb::<Single>::new(dims(), false);
        assert_eq!(c.link_reals(), 12);
        assert_eq!(f.link_reals(), 18);
        assert!(c.device_bytes() < f.device_bytes());
    }
}
