//! Single-parity ("checkerboard") spinor fields.
//!
//! The even-odd preconditioned solver works entirely on one parity, so this
//! is the workhorse vector type. The host stores sites only: `V/2 × 24`
//! reals, site `cb` being the run `data[24·cb .. 24·(cb + 1)]`, which is
//! the order a CPU core streams. The paper's 16-byte blocking and
//! partition-camping pad (Eq. 5, Fig. 2), which serve GPU threads, are
//! modeled in `quda-multigpu`'s `perf.rs` and in `quda-gpusim`, not
//! allocated. Every open dimension of a
//! process grid, T included, carries a ghost zone beside the body: `2 ×
//! face_sites` half spinors, backward face first — Section VI-C's end zone,
//! one per dimension. Keeping the ghosts outside the body means reductions
//! never see them. In half and quarter precision a per-site `f32`
//! normalization array rides along, and each ghost zone has its own
//! per-half-spinor norms.

use crate::host::HostSpinorField;
use crate::precision::Precision;
use quda_lattice::geometry::{LatticeDims, Parity};
use quda_lattice::stencil::Stencil;
use quda_math::spinor::{HalfSpinor, Spinor, HALF_SPINOR_REALS, SPINOR_REALS};
use std::ops::Range;

/// A single-parity spinor field with precision-`P` device storage.
#[derive(Clone, Debug)]
pub struct SpinorFieldCb<P: Precision> {
    /// Lattice extents (of the full lattice; the field covers one parity).
    pub dims: LatticeDims,
    /// Site storage: `sites × 24` reals, one site after another.
    pub data: Vec<P::Elem>,
    /// Per-site normalization constants (half and quarter precision only;
    /// otherwise empty).
    pub norm: Vec<f32>,
    /// Ghost zone of each dimension `X..T`: `2 × face_sites` half spinors,
    /// backward face first; empty for a closed dimension.
    pub ghost: [Vec<P::Elem>; 4],
    /// Ghost normalization constants (half and quarter precision only), one
    /// per ghost half spinor, in the same order.
    pub ghost_norm: [Vec<f32>; 4],
}

impl<P: Precision> SpinorFieldCb<P> {
    /// Allocate a zero field; `with_ghost` opens the temporal dimension:
    /// [`SpinorFieldCb::new_open`] at the paper's `1×1×1×N` slicing.
    pub fn new(dims: LatticeDims, with_ghost: bool) -> Self {
        Self::new_open(dims, [false, false, false, with_ghost])
    }

    /// Allocate a zero field with ghost zones for every open dimension of a
    /// 4-d process-grid decomposition.
    pub fn new_open(dims: LatticeDims, open: [bool; 4]) -> Self {
        let sites = dims.half_volume();
        let data = vec![P::Elem::default(); SPINOR_REALS * sites];
        let norm = if P::NEEDS_NORM { vec![1.0; sites] } else { Vec::new() };
        let mut ghost: [Vec<P::Elem>; 4] = Default::default();
        let mut ghost_norm: [Vec<f32>; 4] = Default::default();
        for dir in (0..4).filter(|&dir| open[dir]) {
            // Both faces, backward first.
            let slots = 2 * Stencil::face_sites_dim(&dims, dir);
            ghost[dir] = vec![P::Elem::default(); slots * HALF_SPINOR_REALS];
            if P::NEEDS_NORM {
                ghost_norm[dir] = vec![1.0; slots];
            }
        }
        SpinorFieldCb { dims, data, norm, ghost, ghost_norm }
    }

    /// Number of data sites (half volume).
    #[inline(always)]
    pub fn sites(&self) -> usize {
        self.dims.half_volume()
    }

    /// Whether the field carries a ghost zone for dimension `dir`.
    #[inline(always)]
    pub fn has_ghost(&self, dir: usize) -> bool {
        !self.ghost[dir].is_empty()
    }

    /// Face sites per parity of a `dir`-boundary slice (`V / L_dir / 2`;
    /// `Vs/2` for T).
    #[inline(always)]
    pub fn face_sites(&self, dir: usize) -> usize {
        Stencil::face_sites_dim(&self.dims, dir)
    }

    /// Read the spinor at checkerboard site `cb`.
    #[inline]
    pub fn get(&self, cb: usize) -> Spinor<P::Arith> {
        Spinor::from_reals(&self.load(cb))
    }

    /// Read the 24 reals of checkerboard site `cb` through the site codec
    /// ([`Precision::load_site`]).
    #[inline(always)]
    pub fn load(&self, cb: usize) -> [P::Arith; SPINOR_REALS] {
        debug_assert!(cb < self.sites(), "site {cb} out of {}", self.sites());
        P::load_site(&self.data, &self.norm, cb)
    }

    /// Write the spinor at checkerboard site `cb` (quantizing in half
    /// precision with a freshly computed per-site normalization).
    #[inline]
    pub fn set(&mut self, cb: usize, sp: &Spinor<P::Arith>) {
        self.store(cb, &sp.to_reals());
    }

    /// Write the 24 reals of checkerboard site `cb` through the site codec
    /// ([`Precision::store_site`]).
    #[inline(always)]
    pub fn store(&mut self, cb: usize, site: &[P::Arith; SPINOR_REALS]) {
        debug_assert!(cb < self.sites(), "site {cb} out of {}", self.sites());
        P::store_site(&mut self.data, &mut self.norm, cb, site);
    }

    /// Every site of the field as one writable [`SitesMut`] range.
    #[inline]
    pub fn sites_mut(&mut self) -> SitesMut<'_, P> {
        SitesMut { data: &mut self.data, norm: &mut self.norm, first: 0 }
    }

    /// Read the ghost half spinor of dimension `dir` at face site `face`
    /// (`backward` selects which face's data).
    #[inline]
    pub fn get_ghost(&self, dir: usize, backward: bool, face: usize) -> HalfSpinor<P::Arith> {
        let slot = self.ghost_slot(dir, backward, face);
        HalfSpinor::from_reals(&P::load_site::<HALF_SPINOR_REALS>(
            &self.ghost[dir],
            &self.ghost_norm[dir],
            slot,
        ))
    }

    /// Write the ghost half spinor of dimension `dir` at face site `face`
    /// (quantizing in half precision with a freshly computed norm).
    #[inline]
    pub fn set_ghost(&mut self, dir: usize, backward: bool, face: usize, h: &HalfSpinor<P::Arith>) {
        let slot = self.ghost_slot(dir, backward, face);
        P::store_site(&mut self.ghost[dir], &mut self.ghost_norm[dir], slot, &h.to_reals());
    }

    /// Half-spinor slot of face site `face` in the `dir` ghost zone.
    #[inline(always)]
    fn ghost_slot(&self, dir: usize, backward: bool, face: usize) -> usize {
        let faces = self.ghost[dir].len() / (2 * HALF_SPINOR_REALS);
        debug_assert!(face < faces, "face {face} out of {faces} in dim {dir}");
        if backward {
            face
        } else {
            faces + face
        }
    }

    /// Set every site to `f(cb)`, in ascending site order.
    pub fn fill_sites(&mut self, mut f: impl FnMut(usize) -> Spinor<P::Arith>) {
        for cb in 0..self.sites() {
            let v = f(cb);
            self.set(cb, &v);
        }
    }

    /// Squared 2-norm over data sites only — ghosts are excluded, which is
    /// the whole point of storing them beside the sites (Section VI-C:
    /// "when doing reductions, this end zone can be simply excluded").
    pub fn norm_sqr(&self) -> f64 {
        (0..self.sites()).map(|cb| self.get(cb).norm_sqr()).sum()
    }

    /// Upload one parity of a host field.
    pub fn upload(&mut self, host: &HostSpinorField, parity: Parity) {
        assert_eq!(host.dims, self.dims);
        for cb in 0..self.sites() {
            let sp = host.get_cb(parity, cb).cast::<P::Arith>();
            self.set(cb, &sp);
        }
    }

    /// Download into one parity of a host field.
    pub fn download(&self, host: &mut HostSpinorField, parity: Parity) {
        assert_eq!(host.dims, self.dims);
        for cb in 0..self.sites() {
            *host.get_cb_mut(parity, cb) = self.get(cb).cast::<f64>();
        }
    }

    /// Copy (with precision conversion) from a field of another precision —
    /// the transfer the mixed-precision solver performs at reliable updates.
    pub fn convert_from<Q: Precision>(&mut self, other: &SpinorFieldCb<Q>) {
        assert_eq!(self.dims, other.dims);
        for cb in 0..self.sites() {
            let sp = other.get(cb).cast::<P::Arith>();
            self.set(cb, &sp);
        }
    }

    /// Device bytes occupied (body + site norms + every ghost zone with its
    /// norms).
    pub fn device_bytes(&self) -> usize {
        let ghosts: usize = self
            .ghost
            .iter()
            .map(|g| g.len() * P::STORAGE_BYTES)
            .chain(self.ghost_norm.iter().map(|n| n.len() * 4))
            .sum();
        self.data.len() * P::STORAGE_BYTES + self.norm.len() * 4 + ghosts
    }
}

/// A contiguous range of a spinor field's sites, open for writing. A
/// threaded kernel cuts the whole field's range ([`SpinorFieldCb::sites_mut`])
/// into disjoint ranges with [`SitesMut::split_front`] and each worker
/// stores into its own in place, through the same site codec as
/// [`SpinorFieldCb::store`]: in half and quarter precision the site's
/// `data` run and its `norm` are written in lockstep.
pub struct SitesMut<'a, P: Precision> {
    data: &'a mut [P::Elem],
    norm: &'a mut [f32],
    /// Checkerboard index of the range's first site.
    first: usize,
}

impl<'a, P: Precision> SitesMut<'a, P> {
    /// The checkerboard sites this range covers.
    #[inline]
    pub fn sites(&self) -> Range<usize> {
        self.first..self.first + self.data.len() / SPINOR_REALS
    }

    /// Detach the first `n` sites as a range of their own; `self` keeps the
    /// rest. Panics if the range holds fewer than `n` sites.
    pub fn split_front(&mut self, n: usize) -> SitesMut<'a, P> {
        let (data, rest) = std::mem::take(&mut self.data).split_at_mut(SPINOR_REALS * n);
        self.data = rest;
        let norms = if P::NEEDS_NORM { n } else { 0 };
        let (norm, rest) = std::mem::take(&mut self.norm).split_at_mut(norms);
        self.norm = rest;
        let first = self.first;
        self.first += n;
        SitesMut { data, norm, first }
    }

    /// Write the spinor at checkerboard site `cb`, which must lie in
    /// [`SitesMut::sites`] (quantizing in half precision with a freshly
    /// computed per-site normalization).
    #[inline]
    pub fn set(&mut self, cb: usize, sp: &Spinor<P::Arith>) {
        debug_assert!(self.sites().contains(&cb), "site {cb} out of {:?}", self.sites());
        P::store_site(self.data, self.norm, cb - self.first, &sp.to_reals());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::precision::{Double, Half, Single};
    use quda_math::complex::C64;

    fn dims() -> LatticeDims {
        LatticeDims::new(4, 4, 4, 6)
    }

    fn sample_spinor(seed: usize) -> Spinor<f64> {
        let mut sp = Spinor::zero();
        for s in 0..4 {
            for c in 0..3 {
                let k = (seed * 12 + s * 3 + c) as f64;
                sp.s[s].c[c] = C64::new((k * 0.37).sin(), (k * 0.61).cos() * 0.5);
            }
        }
        sp
    }

    #[test]
    fn set_get_roundtrip_double_exact() {
        let mut f = SpinorFieldCb::<Double>::new(dims(), false);
        for cb in 0..f.sites() {
            f.set(cb, &sample_spinor(cb));
        }
        for cb in 0..f.sites() {
            assert_eq!(f.get(cb), sample_spinor(cb));
        }
    }

    #[test]
    fn set_get_roundtrip_half_within_tolerance() {
        let mut f = SpinorFieldCb::<Half>::new(dims(), false);
        for cb in 0..f.sites() {
            f.set(cb, &sample_spinor(cb).cast());
        }
        for cb in 0..f.sites() {
            let expect = sample_spinor(cb).cast::<f32>();
            let got = f.get(cb);
            let bound = expect.max_abs() as f32 / 32767.0 + 1e-6;
            for s in 0..4 {
                for c in 0..3 {
                    assert!((got.s[s].c[c].re - expect.s[s].c[c].re).abs() <= bound);
                    assert!((got.s[s].c[c].im - expect.s[s].c[c].im).abs() <= bound);
                }
            }
        }
    }

    #[test]
    fn half_norm_array_tracks_sup_norm() {
        let mut f = SpinorFieldCb::<Half>::new(dims(), false);
        let mut sp = Spinor::<f32>::zero();
        sp.s[2].c[1].im = -5.0;
        f.set(7, &sp);
        assert_eq!(f.norm[7], 5.0);
        let got = f.get(7);
        assert!((got.s[2].c[1].im + 5.0).abs() < 1e-3);
    }

    #[test]
    fn ghost_roundtrip_and_isolation() {
        let mut f = SpinorFieldCb::<Single>::new(dims(), true);
        // Fill sites, then ghosts; neither disturbs the other.
        for cb in 0..f.sites() {
            f.set(cb, &sample_spinor(cb).cast());
        }
        let h =
            HalfSpinor { h: [sample_spinor(3).cast::<f32>().s[0], sample_spinor(4).cast().s[1]] };
        for face in 0..f.face_sites(3) {
            f.set_ghost(3, true, face, &h);
            f.set_ghost(3, false, face, &h);
        }
        for cb in 0..f.sites() {
            let expect = sample_spinor(cb).cast::<f32>();
            assert_eq!(f.get(cb), expect);
        }
        assert_eq!(f.get_ghost(3, true, 0), h);
        assert_eq!(f.get_ghost(3, false, f.face_sites(3) - 1), h);
    }

    #[test]
    fn ghost_roundtrip_half_precision_with_norms() {
        let mut f = SpinorFieldCb::<Half>::new(dims(), true);
        let mut h = HalfSpinor::<f32>::zero();
        h.h[0].c[0].re = 3.0;
        h.h[1].c[2].im = -1.5;
        f.set_ghost(3, false, 2, &h);
        let got = f.get_ghost(3, false, 2);
        assert!((got.h[0].c[0].re - 3.0).abs() < 1e-3);
        assert!((got.h[1].c[2].im + 1.5).abs() < 1e-3);
        // The "end zone of size 2Vs elements added to the normalization
        // field" (Section VI-C), kept beside the site norms.
        assert_eq!(f.norm.len(), f.sites());
        assert_eq!(f.ghost_norm[3].len(), 2 * f.face_sites(3));
    }

    #[test]
    fn norm_excludes_ghost_end_zone() {
        let mut f = SpinorFieldCb::<Double>::new(dims(), true);
        let mut sp = Spinor::zero();
        sp.s[0].c[0].re = 2.0;
        f.set(0, &sp);
        let mut h = HalfSpinor::zero();
        h.h[0].c[0].re = 100.0;
        f.set_ghost(3, true, 0, &h);
        f.set_ghost(3, false, 0, &h);
        assert_eq!(f.norm_sqr(), 4.0); // ghosts not double counted
    }

    #[test]
    fn upload_download_roundtrip() {
        let d = dims();
        let mut host = HostSpinorField::zero(d);
        for (i, sp) in host.data.iter_mut().enumerate() {
            *sp = sample_spinor(i);
        }
        let mut dev = SpinorFieldCb::<Double>::new(d, false);
        dev.upload(&host, Parity::Odd);
        let mut back = HostSpinorField::zero(d);
        dev.download(&mut back, Parity::Odd);
        for cb in 0..dev.sites() {
            assert_eq!(back.get_cb(Parity::Odd, cb), host.get_cb(Parity::Odd, cb));
        }
        // Even parity untouched.
        for cb in 0..dev.sites() {
            assert_eq!(*back.get_cb(Parity::Even, cb), Spinor::zero());
        }
    }

    #[test]
    fn convert_between_precisions() {
        let d = dims();
        let mut hi = SpinorFieldCb::<Double>::new(d, false);
        for cb in 0..hi.sites() {
            hi.set(cb, &sample_spinor(cb));
        }
        let mut lo = SpinorFieldCb::<Half>::new(d, false);
        lo.convert_from(&hi);
        let mut back = SpinorFieldCb::<Double>::new(d, false);
        back.convert_from(&lo);
        for cb in 0..hi.sites() {
            let a = hi.get(cb);
            let b = back.get(cb);
            let bound = a.max_abs() / 32767.0 + 1e-6;
            assert!((a - b).max_abs() <= bound, "cb={cb}");
        }
    }

    #[test]
    fn side_ghost_roundtrip_all_dims_and_t_routes_to_end_zone() {
        let d = dims();
        let mut f = SpinorFieldCb::<Single>::new_open(d, [true, true, true, true]);
        let h =
            HalfSpinor { h: [sample_spinor(5).cast::<f32>().s[2], sample_spinor(6).cast().s[3]] };
        // T is one open dimension among four: same store, same accessors.
        for dir in 0..4 {
            assert!(f.has_ghost(dir));
            assert_eq!(f.face_sites(dir), d.volume() / d.extent(dir) / 2);
            assert_eq!(f.ghost[dir].len(), 2 * f.face_sites(dir) * HALF_SPINOR_REALS);
            for backward in [true, false] {
                for face in 0..f.face_sites(dir) {
                    f.set_ghost(dir, backward, face, &h);
                    assert_eq!(f.get_ghost(dir, backward, face), h);
                }
            }
        }
        assert_eq!(f.data.len(), SPINOR_REALS * f.sites());
        // Sites are untouched by ghost writes.
        for cb in 0..f.sites() {
            assert_eq!(f.get(cb), Spinor::zero());
        }
    }

    #[test]
    fn half_precision_ghost_norms_in_any_dimension() {
        let d = dims();
        let mut f = SpinorFieldCb::<Half>::new_open(d, [false, true, false, false]);
        assert!(f.has_ghost(1));
        assert!(!f.has_ghost(0) && !f.has_ghost(2) && !f.has_ghost(3));
        let mut h = HalfSpinor::<f32>::zero();
        h.h[0].c[1].re = 7.0;
        h.h[1].c[0].im = -2.5;
        f.set_ghost(1, false, 3, &h);
        let got = f.get_ghost(1, false, 3);
        assert!((got.h[0].c[1].re - 7.0).abs() < 1e-3);
        assert!((got.h[1].c[0].im + 2.5).abs() < 1e-3);
        assert_eq!(f.ghost_norm[1].len(), 2 * f.face_sites(1));
    }

    #[test]
    fn arith_blocks_cover_exactly_the_live_reals() {
        let mut f = SpinorFieldCb::<Double>::new(dims(), true);
        for cb in 0..f.sites() {
            f.set(cb, &sample_spinor(cb));
        }
        // A site load is the site's run of the storage (real n of site x
        // sits at offset 24·x + n), and nothing else.
        assert_eq!(f.data.len(), SPINOR_REALS * f.sites());
        for (cb, run) in f.data.chunks_exact(SPINOR_REALS).enumerate() {
            assert_eq!(&f.load(cb)[..], run);
        }
        // Site stores land where `get` reads.
        for cb in 0..f.sites() {
            let doubled = f.load(cb).map(|r| 2.0 * r);
            f.store(cb, &doubled);
        }
        for cb in 0..f.sites() {
            assert_eq!(f.get(cb), sample_spinor(cb).scale_re(2.0));
        }
        // In half precision the load scales the run by the site's norm.
        let mut h = SpinorFieldCb::<Half>::new(dims(), false);
        h.set(3, &sample_spinor(3).cast());
        let run = &h.data[SPINOR_REALS * 3..SPINOR_REALS * 4];
        for (x, &e) in h.load(3).iter().zip(run) {
            assert_eq!(*x, Half::load(e) * h.norm[3]);
        }
    }

    #[test]
    fn combinators_match_explicit_loops() {
        let mut f = SpinorFieldCb::<Single>::new(dims(), false);
        f.fill_sites(|cb| sample_spinor(cb).cast());
        let mut g = SpinorFieldCb::<Single>::new(dims(), false);
        for cb in 0..g.sites() {
            g.set(cb, &sample_spinor(cb).cast());
        }
        assert_eq!(f.data, g.data);
        let n: f64 = (0..f.sites()).map(|cb| f.get(cb).norm_sqr()).sum();
        assert_eq!(n, f.norm_sqr());
    }

    #[test]
    fn device_bytes_ordering() {
        let d = dims();
        let dd = SpinorFieldCb::<Double>::new(d, true).device_bytes();
        let ss = SpinorFieldCb::<Single>::new(d, true).device_bytes();
        let hh = SpinorFieldCb::<Half>::new(d, true).device_bytes();
        assert!(dd > ss && ss > hh);
        assert_eq!(dd, ss * 2);
    }
}
