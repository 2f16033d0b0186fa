//! An optimized CPU hopping-term implementation — the functional
//! counterpart of the "9q" cluster's "highly optimized SSE routines"
//! (Section VII-C).
//!
//! Unlike the device-field kernels (which read 2-row links, reconstruct the
//! third row and convert each site's stored run through the precision),
//! this path is organized the way a CPU wants: site-major flat `f32`
//! arrays (each site's 24 spinor reals contiguous — one or two cache
//! lines), full 18-real links (no reconstruction arithmetic), precomputed
//! flat neighbor tables, and Rayon parallelism over output sites. It is
//! used to (a) cross-check the device fields against a third independent
//! implementation and (b) measure real sustained per-core Gflops to compare
//! with the 2 Gflops/core the paper reports for Nehalem + SSE.
//!
//! Its spin projection stays the basis-generic
//! [`HalfProj`](quda_math::gamma::HalfProj) tables, not the
//! device kernels' fixed [`quda_math::nr`] code, so the two paths share no
//! spin arithmetic. Each hop interprets those tables and adds a full
//! 24-real `Spinor`, on purpose: an independent oracle must not share the
//! kernel's shortcuts. The ledger's `dirac.dslash_vs_cpu_opt` divides by
//! this path, so that ratio, and ROADMAP item 7's ≥ 0.8 target on it, are
//! taken against a reference that pays the runtime spin algebra the device
//! kernels compiled away, not against a tuned CPU ceiling.

use quda_fields::host::{GaugeConfig, HostSpinorField};
use quda_lattice::geometry::{LatticeDims, Parity};
use quda_math::gamma::{GammaBasis, SpinBasis};
use quda_math::spinor::Spinor;
use rayon::prelude::*;

/// Reals per site spinor.
const NS: usize = 24;
/// Reals per full link.
const NL: usize = 18;

/// Flat-array single-parity spinor storage (site-major, f32).
#[derive(Clone, Debug)]
pub struct FlatSpinor {
    /// `data[site * 24 + n]`.
    pub data: Vec<f32>,
    /// Sites per parity.
    pub sites: usize,
}

impl FlatSpinor {
    /// Zero field for one parity of `dims`.
    pub fn new(dims: LatticeDims) -> Self {
        let sites = dims.half_volume();
        FlatSpinor { data: vec![0.0; sites * NS], sites }
    }

    /// Import one parity of a host field.
    pub fn from_host(host: &HostSpinorField, parity: Parity) -> Self {
        let dims = host.dims;
        let mut f = Self::new(dims);
        for cb in 0..f.sites {
            let sp = host.get_cb(parity, cb);
            let r = sp.cast::<f32>().to_reals();
            f.data[cb * NS..(cb + 1) * NS].copy_from_slice(&r);
        }
        f
    }

    /// Export to one parity of a host field.
    pub fn to_host(&self, host: &mut HostSpinorField, parity: Parity) {
        for cb in 0..self.sites {
            let sp = Spinor::<f32>::from_reals(&self.data[cb * NS..(cb + 1) * NS]);
            *host.get_cb_mut(parity, cb) = sp.cast();
        }
    }
}

/// The optimized CPU hopping operator for one output parity.
pub struct CpuDslash {
    dims: LatticeDims,
    /// Flat links: `gauge[parity][mu][site * 18 + k]`.
    gauge: [[Vec<f32>; 4]; 2],
    /// Neighbor tables per output parity: `fwd[p][mu][site]`, `bwd[p][mu][site]`.
    fwd: [[Vec<u32>; 4]; 2],
    bwd: [[Vec<u32>; 4]; 2],
    basis: SpinBasis,
}

impl CpuDslash {
    /// Build from a host configuration (closed boundaries: this is the
    /// single-node baseline path).
    pub fn new(cfg: &GaugeConfig) -> Self {
        let dims = cfg.dims;
        let sites = dims.half_volume();
        let mut gauge: [[Vec<f32>; 4]; 2] =
            std::array::from_fn(|_| std::array::from_fn(|_| vec![0.0; sites * NL]));
        for parity in [Parity::Even, Parity::Odd] {
            for cb in 0..sites {
                let c = dims.cb_coord(parity, cb);
                for mu in 0..4 {
                    let u = cfg.link(c, mu);
                    let dst = &mut gauge[parity.as_usize()][mu][cb * NL..(cb + 1) * NL];
                    let mut k = 0;
                    for i in 0..3 {
                        for j in 0..3 {
                            dst[k] = u.m[i][j].re as f32;
                            dst[k + 1] = u.m[i][j].im as f32;
                            k += 2;
                        }
                    }
                }
            }
        }
        let mut fwd: [[Vec<u32>; 4]; 2] =
            std::array::from_fn(|_| std::array::from_fn(|_| Vec::with_capacity(sites)));
        let mut bwd: [[Vec<u32>; 4]; 2] =
            std::array::from_fn(|_| std::array::from_fn(|_| Vec::with_capacity(sites)));
        for parity in [Parity::Even, Parity::Odd] {
            for cb in 0..sites {
                let c = dims.cb_coord(parity, cb);
                for mu in 0..4 {
                    let (f, _) = dims.neighbor(c, mu, true);
                    fwd[parity.as_usize()][mu].push(dims.cb_index(f) as u32);
                    let (b, _) = dims.neighbor(c, mu, false);
                    bwd[parity.as_usize()][mu].push(dims.cb_index(b) as u32);
                }
            }
        }
        CpuDslash { dims, gauge, fwd, bwd, basis: SpinBasis::new(GammaBasis::NonRelativistic) }
    }

    /// Lattice extents.
    pub fn dims(&self) -> LatticeDims {
        self.dims
    }

    /// `out = D ψ` for `out_parity` (reads the opposite parity of `inp`),
    /// parallelized over output sites with Rayon.
    pub fn apply(&self, out: &mut FlatSpinor, inp: &FlatSpinor, out_parity: Parity) {
        let p = out_parity.as_usize();
        let ip = out_parity.other().as_usize();
        let basis = &self.basis;
        let gauge_out = &self.gauge[p];
        let gauge_in = &self.gauge[ip];
        let fwd = &self.fwd[p];
        let bwd = &self.bwd[p];
        let inp_data = &inp.data;
        out.data.par_chunks_mut(NS).enumerate().for_each(|(cb, out_site)| {
            let mut acc = Spinor::<f32>::zero();
            for mu in 0..4 {
                // Forward hop: P−μ U_μ(x) ψ(x+μ).
                let proj_f = &basis.proj[mu][0];
                let n = fwd[mu][cb] as usize;
                let psi = Spinor::<f32>::from_reals(&inp_data[n * NS..(n + 1) * NS]);
                let h = proj_f.project(&psi);
                let u = &gauge_out[mu][cb * NL..(cb + 1) * NL];
                let t = quda_math::spinor::HalfSpinor {
                    h: [mul_link(u, &h.h[0], false), mul_link(u, &h.h[1], false)],
                };
                acc += proj_f.reconstruct(&t);
                // Backward hop: P+μ U†_μ(x−μ) ψ(x−μ).
                let proj_b = &basis.proj[mu][1];
                let n = bwd[mu][cb] as usize;
                let psi = Spinor::<f32>::from_reals(&inp_data[n * NS..(n + 1) * NS]);
                let h = proj_b.project(&psi);
                let u = &gauge_in[mu][n * NL..(n + 1) * NL];
                let t = quda_math::spinor::HalfSpinor {
                    h: [mul_link(u, &h.h[0], true), mul_link(u, &h.h[1], true)],
                };
                acc += proj_b.reconstruct(&t);
            }
            out_site.copy_from_slice(&acc.to_reals());
        });
    }

    /// Effective flops of one application (paper counting, per site).
    pub fn flops_per_apply(&self) -> u64 {
        self.dims.half_volume() as u64 * crate::flops::DSLASH_FLOPS_PER_SITE
    }

    /// Measure sustained effective Gflops over `reps` applications.
    pub fn measure_gflops(&self, reps: usize) -> f64 {
        let mut inp = FlatSpinor::new(self.dims);
        for (i, x) in inp.data.iter_mut().enumerate() {
            *x = ((i * 2_654_435_761) as f32 * 1e-9).sin();
        }
        let mut out = FlatSpinor::new(self.dims);
        let start = std::time::Instant::now();
        for _ in 0..reps {
            self.apply(&mut out, &inp, Parity::Even);
            std::mem::swap(&mut out, &mut inp);
        }
        let secs = start.elapsed().as_secs_f64();
        (self.flops_per_apply() * reps as u64) as f64 / secs / 1e9
    }
}

/// `U v` (or `U† v`) with `U` an 18-real row-major flat link.
#[inline(always)]
fn mul_link(
    u: &[f32],
    v: &quda_math::colorvec::ColorVec<f32>,
    adjoint: bool,
) -> quda_math::colorvec::ColorVec<f32> {
    let mut out = quda_math::colorvec::ColorVec::zero();
    for i in 0..3 {
        let mut re = 0.0f32;
        let mut im = 0.0f32;
        for j in 0..3 {
            let k = if adjoint { (j * 3 + i) * 2 } else { (i * 3 + j) * 2 };
            let (ur, ui) = (u[k], u[k + 1]);
            let (ui_eff, vr, vi) =
                if adjoint { (-ui, v.c[j].re, v.c[j].im) } else { (ui, v.c[j].re, v.c[j].im) };
            re += ur * vr - ui_eff * vi;
            im += ur * vi + ui_eff * vr;
        }
        out.c[i].re = re;
        out.c[i].im = im;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::apply_hopping_host;
    use quda_fields::gauge_gen::{random_spinor_field, weak_field};

    #[test]
    fn matches_reference_hopping() {
        let d = LatticeDims::new(4, 4, 4, 6);
        let cfg = weak_field(d, 0.2, 61);
        let host = random_spinor_field(d, 62);
        let op = CpuDslash::new(&cfg);
        let inp = FlatSpinor::from_host(&host, Parity::Odd);
        let mut out = FlatSpinor::new(d);
        op.apply(&mut out, &inp, Parity::Even);
        let mut got = HostSpinorField::zero(d);
        out.to_host(&mut got, Parity::Even);
        let basis = SpinBasis::new(GammaBasis::NonRelativistic);
        let expect = apply_hopping_host(&cfg, &basis, &host);
        for cb in 0..d.half_volume() {
            let e = expect.get_cb(Parity::Even, cb);
            let g = got.get_cb(Parity::Even, cb);
            let rel = (*g - *e).norm_sqr().sqrt() / e.norm_sqr().sqrt().max(1e-30);
            assert!(rel < 1e-5, "cb={cb} rel={rel}");
        }
    }

    #[test]
    fn roundtrip_host_flat() {
        let d = LatticeDims::new(4, 4, 2, 4);
        let host = random_spinor_field(d, 63);
        let flat = FlatSpinor::from_host(&host, Parity::Even);
        let mut back = HostSpinorField::zero(d);
        flat.to_host(&mut back, Parity::Even);
        for cb in 0..d.half_volume() {
            let diff = (*back.get_cb(Parity::Even, cb) - *host.get_cb(Parity::Even, cb)).max_abs();
            assert!(diff < 1e-6);
        }
    }

    #[test]
    fn sustained_gflops_is_order_one_per_core() {
        // The paper's CPU baseline is ~2 Gflops/core with hand-tuned SSE on
        // 2010 Nehalems; portable Rust on a modern core should land within
        // an order of magnitude (sanity gate, not a performance contract).
        let d = LatticeDims::new(8, 8, 8, 8);
        let cfg = weak_field(d, 0.1, 64);
        let op = CpuDslash::new(&cfg);
        let g = op.measure_gflops(3);
        assert!(g > 0.05, "implausibly slow: {g} Gflops");
        assert!(g < 500.0, "implausibly fast: {g} Gflops");
    }
}
