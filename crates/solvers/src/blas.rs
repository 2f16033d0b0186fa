//! Fused vector-vector (BLAS1-like) kernels on checkerboard spinor fields.
//!
//! Section V-E: QUDA's solvers are built from streaming kernels fused
//! "wherever possible to reduce memory traffic". We mirror that structure:
//! each routine makes exactly one pass over its operands, reductions
//! accumulate in f64 (as QUDA does on the device), and each routine reports
//! its flop/byte cost through [`BlasOp`] so the performance model can charge
//! the 10–20% solver overhead the paper quotes honestly.
//!
//! All reductions run over data sites only — the ghost zones are excluded
//! by construction (Section VI-C).
//!
//! Each kernel is written once, for every storage precision: one loop
//! over the sites in ascending order that loads each operand's 24 reals
//! through the fields' site codec (`Precision::load_site`: a plain copy in
//! double and single, a dequantize-and-scale in half and quarter), does
//! its arithmetic on those reals and stores the result through the same
//! codec (`Precision::store_site`, which normalizes and quantizes in half
//! and quarter). The reductions fold each site with the tree of
//! `Spinor::norm_sqr`/`Spinor::dot` (`fold_site`), so every kernel is
//! bit-identical to its `get`/`set` + `Spinor` composition. No heap
//! allocation anywhere, so steady-state solver iterations stay
//! allocation-free.

use quda_fields::precision::Precision;
use quda_fields::SpinorFieldCb;
use quda_math::complex::{Complex, C64};
use quda_math::real::Real;
use quda_math::spinor::SPINOR_REALS;
use std::ops::AddAssign;

/// Identity of a fused kernel, with per-site costs for the perf model.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct BlasOp {
    /// Kernel name (matches the QUDA naming style).
    pub name: &'static str,
    /// Effective flops per site.
    pub flops_per_site: u64,
    /// Reals streamed per site (reads + writes).
    pub reals_per_site: u64,
    /// Whether the kernel ends in a global reduction.
    pub is_reduction: bool,
}

/// Per-solve accounting of blas work.
#[derive(Clone, Debug, Default)]
pub struct BlasCounters {
    /// Total effective flops.
    pub flops: u64,
    /// Total reals streamed.
    pub reals: u64,
    /// Number of reduction kernels launched (each needs an MPI allreduce in
    /// the parallel solver, Section VI-E).
    pub reductions: u64,
}

impl BlasCounters {
    /// Charge one launch of `op` over `sites` sites.
    pub fn charge(&mut self, op: &BlasOp, sites: usize) {
        self.flops += op.flops_per_site * sites as u64;
        self.reals += op.reals_per_site * sites as u64;
        if op.is_reduction {
            self.reductions += 1;
        }
    }

    /// Merge another counter set (e.g. from a second solve phase).
    pub fn merge(&mut self, other: &BlasCounters) {
        self.flops += other.flops;
        self.reals += other.reals;
        self.reductions += other.reductions;
    }
}

/// `y ← x` (24 reals read, 24 written).
pub const OP_COPY: BlasOp =
    BlasOp { name: "copy", flops_per_site: 0, reals_per_site: 48, is_reduction: false };
/// `y ← a·x + y` with real `a`.
pub const OP_AXPY: BlasOp =
    BlasOp { name: "axpy", flops_per_site: 48, reals_per_site: 72, is_reduction: false };
/// `y ← x + a·y` with real `a`.
pub const OP_XPAY: BlasOp =
    BlasOp { name: "xpay", flops_per_site: 48, reals_per_site: 72, is_reduction: false };
/// `y ← a·x + y` with complex `a`.
pub const OP_CAXPY: BlasOp =
    BlasOp { name: "caxpy", flops_per_site: 96, reals_per_site: 72, is_reduction: false };
/// `z ← x + a·y + b·z` with complex `a`, `b` (the fused BiCGstab update).
pub const OP_CXPAYPBZ: BlasOp =
    BlasOp { name: "cxpaypbz", flops_per_site: 216, reals_per_site: 120, is_reduction: false };
/// `x ← x + a·p + b·s` with complex `a`, `b`.
pub const OP_CAXPBYPZ: BlasOp =
    BlasOp { name: "caxpbypz", flops_per_site: 192, reals_per_site: 120, is_reduction: false };
/// `‖x‖²` reduction.
pub const OP_NORM2: BlasOp =
    BlasOp { name: "norm2", flops_per_site: 48, reals_per_site: 24, is_reduction: true };
/// `⟨x, y⟩` complex reduction.
pub const OP_CDOT: BlasOp =
    BlasOp { name: "cDotProduct", flops_per_site: 96, reals_per_site: 48, is_reduction: true };
/// Fused `y ← x − a·y; return ‖y‖²`.
pub const OP_XMAY_NORM: BlasOp =
    BlasOp { name: "xmayNormCB", flops_per_site: 96, reals_per_site: 72, is_reduction: true };
/// Fused `⟨x, y⟩` and `‖y‖²` in one pass (BiCGstab's ω numerator/denominator).
pub const OP_CDOT_NORM: BlasOp = BlasOp {
    name: "cDotProductNormB",
    flops_per_site: 144,
    reals_per_site: 48,
    is_reduction: true,
};

/// One site's reduction term: colorvec partials folded from `zero` in
/// ascending complex order, then a four-way fold of the partials from
/// `zero` — the tree of `Spinor::norm_sqr` and `Spinor::dot`. `term(k)` is
/// the contribution of the site's `k`-th complex.
#[inline(always)]
fn fold_site<S: Copy + AddAssign>(zero: S, mut term: impl FnMut(usize) -> S) -> S {
    let mut site = zero;
    for cv in 0..4 {
        let mut part = zero;
        for c in 0..3 {
            part += term(3 * cv + c);
        }
        site += part;
    }
    site
}

/// The reals of one site, as the codec loads and stores them.
type Site<A> = [A; SPINOR_REALS];

/// The `k`-th complex of a site.
#[inline(always)]
fn cplx<A: Real>(s: &Site<A>, k: usize) -> Complex<A> {
    Complex::new(s[2 * k], s[2 * k + 1])
}

/// `‖s‖²` of one site in f64.
#[inline(always)]
fn site_norm2<A: Real>(s: &Site<A>) -> f64 {
    fold_site(0.0, |k| cplx(s, k).norm_sqr().to_f64())
}

/// `⟨x, y⟩` of one site in f64.
#[inline(always)]
fn site_dot<A: Real>(x: &Site<A>, y: &Site<A>) -> C64 {
    fold_site(C64::zero(), |k| cplx(x, k).cast::<f64>().conj() * cplx(y, k).cast::<f64>())
}

/// Load, update and store every site of one field's storage in place,
/// through the site codec, in ascending site order. The storage arrives as
/// `&mut` slices, which the compiler knows alias no other operand, so it
/// may interleave a site's stores with the loads that follow them.
#[inline(always)]
fn each_site_mut<P: Precision>(
    data: &mut [P::Elem],
    norm: &mut [f32],
    mut f: impl FnMut(usize, &mut Site<P::Arith>),
) {
    for cb in 0..data.len() / SPINOR_REALS {
        let mut site = P::load_site(data, norm, cb);
        f(cb, &mut site);
        P::store_site(data, norm, cb, &site);
    }
}

/// `y_k ← f(x_k, y_k)` over every complex of every site, returning the
/// new `‖y‖²` when `NORM` is set (and 0 otherwise).
#[inline(always)]
fn update2<P: Precision, const NORM: bool>(
    x: &SpinorFieldCb<P>,
    y: &mut SpinorFieldCb<P>,
    f: impl Fn(Complex<P::Arith>, Complex<P::Arith>) -> Complex<P::Arith>,
) -> f64 {
    debug_assert_eq!(x.sites(), y.sites());
    let mut n = 0.0;
    each_site_mut::<P>(&mut y.data, &mut y.norm, |cb, ys| {
        let xs = x.load(cb);
        n += fold_site(0.0, |k| {
            let v = f(cplx(&xs, k), cplx(ys, k));
            (ys[2 * k], ys[2 * k + 1]) = (v.re, v.im);
            if NORM {
                v.norm_sqr().to_f64()
            } else {
                0.0
            }
        });
    });
    n
}

/// `w_k ← f(u_k, v_k, w_k)` over every complex of every site.
#[inline(always)]
fn update3<P: Precision>(
    u: &SpinorFieldCb<P>,
    v: &SpinorFieldCb<P>,
    w: &mut SpinorFieldCb<P>,
    f: impl Fn(Complex<P::Arith>, Complex<P::Arith>, Complex<P::Arith>) -> Complex<P::Arith>,
) {
    debug_assert_eq!(u.sites(), w.sites());
    debug_assert_eq!(v.sites(), w.sites());
    each_site_mut::<P>(&mut w.data, &mut w.norm, |cb, ws| {
        let (us, vs) = (u.load(cb), v.load(cb));
        for (k, wz) in ws.chunks_exact_mut(2).enumerate() {
            let r = f(cplx(&us, k), cplx(&vs, k), Complex::new(wz[0], wz[1]));
            (wz[0], wz[1]) = (r.re, r.im);
        }
    });
}

/// Set every site to zero.
pub fn zero<P: Precision>(x: &mut SpinorFieldCb<P>) {
    for cb in 0..x.sites() {
        x.store(cb, &[P::Arith::ZERO; SPINOR_REALS]);
    }
}

/// `dst ← src`.
pub fn copy<P: Precision>(
    dst: &mut SpinorFieldCb<P>,
    src: &SpinorFieldCb<P>,
    c: &mut BlasCounters,
) {
    debug_assert_eq!(dst.sites(), src.sites());
    for cb in 0..src.sites() {
        dst.store(cb, &src.load(cb));
    }
    c.charge(&OP_COPY, src.sites());
}

/// `y ← a·x + y` (real `a`).
pub fn axpy<P: Precision>(
    a: f64,
    x: &SpinorFieldCb<P>,
    y: &mut SpinorFieldCb<P>,
    c: &mut BlasCounters,
) {
    let a = P::Arith::from_f64(a);
    update2::<P, false>(x, y, |xz, yz| yz + xz.scale(a));
    c.charge(&OP_AXPY, x.sites());
}

/// `y ← x + a·y` (real `a`).
pub fn xpay<P: Precision>(
    x: &SpinorFieldCb<P>,
    a: f64,
    y: &mut SpinorFieldCb<P>,
    c: &mut BlasCounters,
) {
    let a = P::Arith::from_f64(a);
    update2::<P, false>(x, y, |xz, yz| xz + yz.scale(a));
    c.charge(&OP_XPAY, x.sites());
}

/// `y ← a·x + y` (complex `a`).
pub fn caxpy<P: Precision>(
    a: C64,
    x: &SpinorFieldCb<P>,
    y: &mut SpinorFieldCb<P>,
    c: &mut BlasCounters,
) {
    let a = cast_c::<P>(a);
    update2::<P, false>(x, y, |xz, yz| yz + xz * a);
    c.charge(&OP_CAXPY, x.sites());
}

/// `z ← x + a·y + b·z` (complex `a`, `b`) — BiCGstab's search-direction
/// update `p = r + β(p − ω v)` in one fused pass.
pub fn cxpaypbz<P: Precision>(
    x: &SpinorFieldCb<P>,
    a: C64,
    y: &SpinorFieldCb<P>,
    b: C64,
    z: &mut SpinorFieldCb<P>,
    c: &mut BlasCounters,
) {
    let a = cast_c::<P>(a);
    let b = cast_c::<P>(b);
    update3(x, y, z, |xz, yz, zz| xz + yz * a + zz * b);
    c.charge(&OP_CXPAYPBZ, x.sites());
}

/// `x ← x + a·p + b·s` (complex `a`, `b`) — BiCGstab's solution update.
pub fn caxpbypz<P: Precision>(
    a: C64,
    p: &SpinorFieldCb<P>,
    b: C64,
    s: &SpinorFieldCb<P>,
    x: &mut SpinorFieldCb<P>,
    c: &mut BlasCounters,
) {
    let a = cast_c::<P>(a);
    let b = cast_c::<P>(b);
    update3(p, s, x, |pz, sz, xz| xz + pz * a + sz * b);
    c.charge(&OP_CAXPBYPZ, p.sites());
}

/// `‖x‖²` with f64 accumulation (local part; the parallel solver allreduces).
pub fn norm2<P: Precision>(x: &SpinorFieldCb<P>, c: &mut BlasCounters) -> f64 {
    c.charge(&OP_NORM2, x.sites());
    let mut n = 0.0;
    for cb in 0..x.sites() {
        n += site_norm2(&x.load(cb));
    }
    n
}

/// `⟨x, y⟩` with f64 accumulation (local part).
pub fn cdot<P: Precision>(x: &SpinorFieldCb<P>, y: &SpinorFieldCb<P>, c: &mut BlasCounters) -> C64 {
    c.charge(&OP_CDOT, x.sites());
    let mut d = C64::zero();
    for cb in 0..x.sites() {
        d += site_dot(&x.load(cb), &y.load(cb));
    }
    d
}

/// Fused `y ← x − a·y; return ‖y‖²` (BiCGstab's `s = r − α v` step).
pub fn xmay_norm<P: Precision>(
    x: &SpinorFieldCb<P>,
    a: C64,
    y: &mut SpinorFieldCb<P>,
    c: &mut BlasCounters,
) -> f64 {
    let a = cast_c::<P>(a);
    let n = update2::<P, true>(x, y, |xz, yz| xz - yz * a);
    c.charge(&OP_XMAY_NORM, x.sites());
    n
}

/// Fused `y ← x − y; return ‖y‖²` — residual formation against a fresh
/// operator application (`r ← b − Ax` with `Ax` staged in `y`). Like every
/// reduction kernel here this returns the *local* part; partitioned callers
/// route it through `LinearOperator::reduce`.
pub fn xmy_norm<P: Precision>(
    x: &SpinorFieldCb<P>,
    y: &mut SpinorFieldCb<P>,
    c: &mut BlasCounters,
) -> f64 {
    let n = update2::<P, true>(x, y, |xz, yz| xz - yz);
    c.charge(&OP_XMAY_NORM, x.sites());
    n
}

/// Fused `y ← y + a·x; return ‖y‖²` (complex `a`) — the `s = r − αv` and
/// `r = s − ωt` steps of BiCGstab with their norms folded in.
pub const OP_CAXPY_NORM: BlasOp =
    BlasOp { name: "caxpyNorm", flops_per_site: 144, reals_per_site: 72, is_reduction: true };

/// Fused `y ← y + a·x; return ‖y‖²`.
pub fn caxpy_norm<P: Precision>(
    a: C64,
    x: &SpinorFieldCb<P>,
    y: &mut SpinorFieldCb<P>,
    c: &mut BlasCounters,
) -> f64 {
    let a = cast_c::<P>(a);
    let n = update2::<P, true>(x, y, |xz, yz| yz + xz * a);
    c.charge(&OP_CAXPY_NORM, x.sites());
    n
}

/// Fused `(⟨x, y⟩, ‖x‖²)` in one pass — ω's numerator and denominator.
pub fn cdot_norm_a<P: Precision>(
    x: &SpinorFieldCb<P>,
    y: &SpinorFieldCb<P>,
    c: &mut BlasCounters,
) -> (C64, f64) {
    c.charge(&OP_CDOT_NORM, x.sites());
    let (mut d, mut n) = (C64::zero(), 0.0);
    for cb in 0..x.sites() {
        let xs = x.load(cb);
        d += site_dot(&xs, &y.load(cb));
        n += site_norm2(&xs);
    }
    (d, n)
}

#[inline(always)]
fn cast_c<P: Precision>(a: C64) -> Complex<P::Arith> {
    Complex::new(P::Arith::from_f64(a.re), P::Arith::from_f64(a.im))
}

#[cfg(test)]
mod tests {
    use super::*;
    use quda_fields::gauge_gen::random_spinor_field;
    use quda_fields::precision::{Double, Half, Quarter, Single};
    use quda_lattice::geometry::{LatticeDims, Parity};
    use quda_math::spinor::Spinor;

    fn dims() -> LatticeDims {
        LatticeDims::new(4, 4, 2, 4)
    }

    fn field(seed: u64) -> SpinorFieldCb<Double> {
        let host = random_spinor_field(dims(), seed);
        let mut f = SpinorFieldCb::new(dims(), false);
        f.upload(&host, Parity::Odd);
        f
    }

    /// A second lattice shape (96 sites per parity), so the bit-identity
    /// checks do not rest on one site count.
    fn odd_dims() -> LatticeDims {
        LatticeDims::new(4, 4, 2, 6)
    }

    fn field_p<P: Precision>(d: LatticeDims, seed: u64) -> SpinorFieldCb<P> {
        let host = random_spinor_field(d, seed);
        let mut f = SpinorFieldCb::new(d, false);
        f.upload(&host, Parity::Odd);
        f
    }

    #[test]
    fn axpy_matches_manual() {
        let x = field(1);
        let mut y = field(2);
        let y0 = y.clone();
        let mut c = BlasCounters::default();
        axpy(0.5, &x, &mut y, &mut c);
        for cb in 0..x.sites() {
            let expect = y0.get(cb) + x.get(cb).scale_re(0.5);
            assert!((y.get(cb) - expect).norm_sqr() < 1e-28);
        }
        assert_eq!(c.flops, 48 * x.sites() as u64);
        assert_eq!(c.reductions, 0);
    }

    #[test]
    fn norm_and_dot_consistent() {
        let x = field(3);
        let mut c = BlasCounters::default();
        let n = norm2(&x, &mut c);
        let d = cdot(&x, &x, &mut c);
        assert!((n - d.re).abs() < 1e-10);
        assert!(d.im.abs() < 1e-10);
        assert_eq!(c.reductions, 2);
    }

    #[test]
    fn fused_xmay_norm_matches_composition() {
        let x = field(4);
        let mut y = field(5);
        let y0 = y.clone();
        let a = C64::new(0.3, -0.7);
        let mut c = BlasCounters::default();
        let n = xmay_norm(&x, a, &mut y, &mut c);
        let mut expect_norm = 0.0;
        for cb in 0..x.sites() {
            let expect = x.get(cb) - y0.get(cb).scale(a.cast());
            expect_norm += expect.norm_sqr();
            assert!((y.get(cb) - expect).norm_sqr() < 1e-26);
        }
        assert!((n - expect_norm).abs() < 1e-10);
    }

    #[test]
    fn fused_xmy_norm_matches_composition() {
        let x = field(16);
        let mut y = field(17);
        let y0 = y.clone();
        let mut c = BlasCounters::default();
        let n = xmy_norm(&x, &mut y, &mut c);
        let mut expect_norm = 0.0;
        for cb in 0..x.sites() {
            let expect = x.get(cb) - y0.get(cb);
            expect_norm += expect.norm_sqr();
            assert!((y.get(cb) - expect).norm_sqr() < 1e-26);
        }
        assert!((n - expect_norm).abs() < 1e-10);
        assert_eq!(c.reductions, 1);
    }

    #[test]
    fn fused_bicgstab_updates_match_composition() {
        let p = field(6);
        let s = field(7);
        let mut x = field(8);
        let x0 = x.clone();
        let a = C64::new(1.1, 0.2);
        let b = C64::new(-0.4, 0.9);
        let mut c = BlasCounters::default();
        caxpbypz(a, &p, b, &s, &mut x, &mut c);
        for cb in 0..p.sites() {
            let expect = x0.get(cb) + p.get(cb).scale(a.cast()) + s.get(cb).scale(b.cast());
            assert!((x.get(cb) - expect).norm_sqr() < 1e-26);
        }
        let r = field(9);
        let v = field(10);
        let mut z = field(11);
        let z0 = z.clone();
        cxpaypbz(&r, a, &v, b, &mut z, &mut c);
        for cb in 0..r.sites() {
            let expect = r.get(cb) + v.get(cb).scale(a.cast()) + z0.get(cb).scale(b.cast());
            assert!((z.get(cb) - expect).norm_sqr() < 1e-26);
        }
    }

    #[test]
    fn cdot_norm_fusion() {
        let x = field(12);
        let y = field(13);
        let mut c = BlasCounters::default();
        let (d, n) = cdot_norm_a(&x, &y, &mut c);
        let d2 = cdot(&x, &y, &mut c);
        let n2 = norm2(&x, &mut c);
        assert!((d.re - d2.re).abs() < 1e-10 && (d.im - d2.im).abs() < 1e-10);
        assert!((n - n2).abs() < 1e-10);
    }

    #[test]
    fn zero_and_copy() {
        let mut x = field(14);
        let mut c = BlasCounters::default();
        let y = field(15);
        copy(&mut x, &y, &mut c);
        for cb in 0..x.sites() {
            assert_eq!(x.get(cb), y.get(cb));
        }
        zero(&mut x);
        assert_eq!(norm2(&x, &mut c), 0.0);
    }

    #[test]
    fn single_precision_blas_accumulates_in_f64() {
        // Summing many equal values stays exact in the f64 accumulator even
        // when the storage is f32.
        let d = dims();
        let mut x = SpinorFieldCb::<Single>::new(d, false);
        let mut sp = Spinor::<f32>::zero();
        sp.s[0].c[0].re = 1.0;
        for cb in 0..x.sites() {
            x.set(cb, &sp);
        }
        let mut c = BlasCounters::default();
        let n = norm2(&x, &mut c);
        assert_eq!(n, x.sites() as f64);
    }

    /// The per-site load every field read made before the site codec:
    /// load each element, then scale the spinor by the site's norm.
    fn oracle_get<P: Precision>(f: &SpinorFieldCb<P>, cb: usize) -> Spinor<P::Arith> {
        let run = &f.data[SPINOR_REALS * cb..SPINOR_REALS * (cb + 1)];
        let reals: Vec<P::Arith> = run.iter().map(|&e| P::load(e)).collect();
        let sp = Spinor::from_reals(&reals);
        if P::NEEDS_NORM {
            sp.scale_re(P::Arith::from_f64(f.norm[cb] as f64))
        } else {
            sp
        }
    }

    /// The matching per-site store: sup-norm (1 for a zero site), scale by
    /// its reciprocal, store each element.
    fn oracle_set<P: Precision>(f: &mut SpinorFieldCb<P>, cb: usize, sp: &Spinor<P::Arith>) {
        let mut stored = *sp;
        if P::NEEDS_NORM {
            let norm = sp.max_abs();
            let norm = if norm == 0.0 { 1.0 } else { norm };
            f.norm[cb] = norm as f32;
            stored = sp.scale_re(P::Arith::from_f64(1.0 / norm));
        }
        let run = &mut f.data[SPINOR_REALS * cb..SPINOR_REALS * (cb + 1)];
        for (e, r) in run.iter_mut().zip(stored.to_reals()) {
            *e = P::store(r);
        }
    }

    /// `y_cb ← f(cb, y_cb)` site by site through the oracle load and store,
    /// returning `Σ ‖new y_cb‖²` in ascending site order.
    fn oracle_update<P: Precision>(
        y: &mut SpinorFieldCb<P>,
        f: impl Fn(usize, Spinor<P::Arith>) -> Spinor<P::Arith>,
    ) -> f64 {
        let mut n = 0.0;
        for cb in 0..y.sites() {
            let v = f(cb, oracle_get(y, cb));
            n += v.norm_sqr();
            oracle_set(y, cb, &v);
        }
        n
    }

    /// A field's stored bits: every element's storage bytes and every norm.
    fn bits<P: Precision>(f: &SpinorFieldCb<P>) -> (Vec<u8>, Vec<u32>) {
        let mut data = Vec::new();
        for &e in &f.data {
            P::elem_to_le_bytes(e, &mut data);
        }
        (data, f.norm.iter().map(|n| n.to_bits()).collect())
    }

    /// Every kernel must reproduce its `get`/`set` + `Spinor` composition
    /// *bit for bit* — same reals, same operations, same fold order, same
    /// stored elements and norms. This is what keeps solver trajectories
    /// byte-stable. The oracle's load and store are written out here, apart
    /// from the fields' site codec.
    fn assert_kernels_bit_identical<P: Precision>(d: LatticeDims) {
        let x = field_p::<P>(d, 31);
        let y0 = field_p::<P>(d, 32);
        let z0 = field_p::<P>(d, 33);
        let mut c = BlasCounters::default();
        let (a, b, ar) = (C64::new(0.375, -1.25), C64::new(-0.625, 0.5), 0.8125);
        let (act, bct, art) = (cast_c::<P>(a), cast_c::<P>(b), P::Arith::from_f64(ar));
        let get = oracle_get::<P>;
        let same = |got: f64, want: f64, name: &str| {
            assert_eq!(got.to_bits(), want.to_bits(), "{} {name}", P::NAME);
        };

        // Reductions against explicit per-site folds.
        let (mut n_ref, mut d_ref) = (0.0, C64::zero());
        for cb in 0..x.sites() {
            n_ref += get(&x, cb).norm_sqr();
            d_ref += get(&x, cb).dot(&get(&y0, cb));
        }
        same(norm2(&x, &mut c), n_ref, "norm2");
        let dd = cdot(&x, &y0, &mut c);
        same(dd.re, d_ref.re, "cdot re");
        same(dd.im, d_ref.im, "cdot im");
        let (dn, nn) = cdot_norm_a(&x, &y0, &mut c);
        same(dn.re, d_ref.re, "cdot_norm_a re");
        same(dn.im, d_ref.im, "cdot_norm_a im");
        same(nn, n_ref, "cdot_norm_a norm");

        // Two-operand kernels, chained so each starts from the last result.
        let mut y = y0.clone();
        let mut y_ref = y0.clone();
        axpy(ar, &x, &mut y, &mut c);
        oracle_update(&mut y_ref, |cb, yv| yv + get(&x, cb).scale_re(art));
        assert_eq!(bits(&y), bits(&y_ref), "{} axpy", P::NAME);
        xpay(&x, ar, &mut y, &mut c);
        oracle_update(&mut y_ref, |cb, yv| get(&x, cb) + yv.scale_re(art));
        assert_eq!(bits(&y), bits(&y_ref), "{} xpay", P::NAME);
        caxpy(a, &x, &mut y, &mut c);
        oracle_update(&mut y_ref, |cb, yv| yv + get(&x, cb).scale(act));
        assert_eq!(bits(&y), bits(&y_ref), "{} caxpy", P::NAME);
        let n = xmay_norm(&x, a, &mut y, &mut c);
        same(n, oracle_update(&mut y_ref, |cb, yv| get(&x, cb) - yv.scale(act)), "xmay_norm");
        assert_eq!(bits(&y), bits(&y_ref), "{} xmay_norm", P::NAME);
        let n = xmy_norm(&x, &mut y, &mut c);
        same(n, oracle_update(&mut y_ref, |cb, yv| get(&x, cb) - yv), "xmy_norm");
        assert_eq!(bits(&y), bits(&y_ref), "{} xmy_norm", P::NAME);
        let n = caxpy_norm(a, &x, &mut y, &mut c);
        same(n, oracle_update(&mut y_ref, |cb, yv| yv + get(&x, cb).scale(act)), "caxpy_norm");
        assert_eq!(bits(&y), bits(&y_ref), "{} caxpy_norm", P::NAME);

        // Three-operand kernels, then copy and zero, on a third field.
        let mut z = z0.clone();
        let mut z_ref = z0;
        cxpaypbz(&x, a, &y, b, &mut z, &mut c);
        oracle_update(&mut z_ref, |cb, zv| {
            get(&x, cb) + get(&y_ref, cb).scale(act) + zv.scale(bct)
        });
        assert_eq!(bits(&z), bits(&z_ref), "{} cxpaypbz", P::NAME);
        caxpbypz(a, &x, b, &y, &mut z, &mut c);
        oracle_update(&mut z_ref, |cb, zv| {
            zv + get(&x, cb).scale(act) + get(&y_ref, cb).scale(bct)
        });
        assert_eq!(bits(&z), bits(&z_ref), "{} caxpbypz", P::NAME);
        copy(&mut z, &y, &mut c);
        oracle_update(&mut z_ref, |cb, _| get(&y_ref, cb));
        assert_eq!(bits(&z), bits(&z_ref), "{} copy", P::NAME);
        zero(&mut z);
        oracle_update(&mut z_ref, |_, _| Spinor::zero());
        assert_eq!(bits(&z), bits(&z_ref), "{} zero", P::NAME);
    }

    #[test]
    fn kernels_bit_identical_double() {
        assert_kernels_bit_identical::<Double>(dims());
        assert_kernels_bit_identical::<Double>(odd_dims());
    }

    #[test]
    fn kernels_bit_identical_single() {
        assert_kernels_bit_identical::<Single>(dims());
        assert_kernels_bit_identical::<Single>(odd_dims());
    }

    #[test]
    fn kernels_bit_identical_half() {
        assert_kernels_bit_identical::<Half>(dims());
        assert_kernels_bit_identical::<Half>(odd_dims());
    }

    #[test]
    fn kernels_bit_identical_quarter() {
        assert_kernels_bit_identical::<Quarter>(dims());
        assert_kernels_bit_identical::<Quarter>(odd_dims());
    }
}
