//! Fused vector-vector (BLAS1-like) kernels on checkerboard spinor fields.
//!
//! Section V-E: QUDA's solvers are built from streaming kernels fused
//! "wherever possible to reduce memory traffic". We mirror that structure:
//! each routine makes exactly one pass over its operands, reductions
//! accumulate in f64 (as QUDA does on the device), and each routine reports
//! its flop/byte cost through [`BlasOp`] so the performance model can charge
//! the 10–20% solver overhead the paper quotes honestly.
//!
//! All reductions run over data sites only — the ghost end zone is excluded
//! by construction (Section VI-C).
//!
//! Each kernel has two implementations with bit-identical results:
//!
//! * a `fast` path for the float precisions, which streams the blocked
//!   storage (Eq. 5) directly through `arith_blocks` — contiguous slices,
//!   no per-real index computation, no bounds checks in the hot loop;
//! * a per-site fallback for the normalized fixed-point precisions, built
//!   on the sanctioned `SpinorFieldCb` combinators (`fill_sites`,
//!   `fold_sites`, `update_fold_sites`), which own the quantization.

use quda_fields::precision::Precision;
use quda_fields::SpinorFieldCb;
use quda_math::complex::{Complex, C64};
use quda_math::real::Real;
use quda_math::spinor::Spinor;

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

/// Direct streaming implementations over the blocked float storage.
///
/// Every routine here is bit-identical to the per-site combinator path:
/// the element-wise kernels apply the same scalar operations to the same
/// stored reals (storage *is* the arithmetic type, `get`/`set` are pure
/// load/store), and the reduction kernels replay the exact accumulation
/// tree of `Spinor::norm_sqr`/`Spinor::dot` — per-colorvec partials
/// folded from zero in ascending complex order, a four-way fold per site,
/// and a global fold in ascending site order — out of tile-sized stack
/// partials. No heap allocation anywhere, so steady-state solver
/// iterations stay allocation-free.
mod fast {
    use super::*;

    /// Sites per reduction tile: bounds the stack partials while letting
    /// every block row be streamed in long contiguous runs.
    const TILE: usize = 64;
    /// Upper bound on `layout.blocks()` (24 reals/site, scalar worst case).
    const MAX_BLOCKS: usize = 24;

    /// Gather the per-block body slices into a stack array; `None` when
    /// the precision has no direct arithmetic view.
    fn blocks_of<'a, P: Precision>(
        f: &'a SpinorFieldCb<P>,
        out: &mut [&'a [P::Arith]; MAX_BLOCKS],
    ) -> Option<usize> {
        let mut n = 0;
        for (slot, b) in out.iter_mut().zip(f.arith_blocks()?) {
            *slot = b;
            n += 1;
        }
        Some(n)
    }

    /// Zero every live real.
    pub fn fill_zero<P: Precision>(x: &mut SpinorFieldCb<P>) -> bool {
        let Some(blocks) = x.arith_blocks_mut() else { return false };
        for b in blocks {
            b.fill(P::Arith::ZERO);
        }
        true
    }

    /// `dst ← src` over every live real.
    pub fn copy<P: Precision>(dst: &mut SpinorFieldCb<P>, src: &SpinorFieldCb<P>) -> bool {
        let Some(s) = src.arith_blocks() else { return false };
        let Some(d) = dst.arith_blocks_mut() else { return false };
        for (db, sb) in d.zip(s) {
            db.copy_from_slice(sb);
        }
        true
    }

    /// `y_i ← f(x_i, y_i)` over every live real.
    pub fn zip2<P: Precision>(
        x: &SpinorFieldCb<P>,
        y: &mut SpinorFieldCb<P>,
        f: impl Fn(P::Arith, P::Arith) -> P::Arith,
    ) -> bool {
        let Some(xb) = x.arith_blocks() else { return false };
        let Some(yb) = y.arith_blocks_mut() else { return false };
        for (xs, ys) in xb.zip(yb) {
            for (xv, yv) in xs.iter().zip(ys.iter_mut()) {
                *yv = f(*xv, *yv);
            }
        }
        true
    }

    /// `y_k ← f(x_k, y_k)` over every live complex.
    pub fn zip2c<P: Precision>(
        x: &SpinorFieldCb<P>,
        y: &mut SpinorFieldCb<P>,
        f: impl Fn(Complex<P::Arith>, Complex<P::Arith>) -> Complex<P::Arith>,
    ) -> bool {
        let Some(xb) = x.arith_blocks() else { return false };
        let Some(yb) = y.arith_blocks_mut() else { return false };
        for (xs, ys) in xb.zip(yb) {
            for (xz, yz) in xs.chunks_exact(2).zip(ys.chunks_exact_mut(2)) {
                let v = f(Complex::new(xz[0], xz[1]), Complex::new(yz[0], yz[1]));
                yz[0] = v.re;
                yz[1] = v.im;
            }
        }
        true
    }

    /// `w_k ← f(u_k, v_k, w_k)` over every live complex.
    pub fn zip3c<P: Precision>(
        u: &SpinorFieldCb<P>,
        v: &SpinorFieldCb<P>,
        w: &mut SpinorFieldCb<P>,
        f: impl Fn(Complex<P::Arith>, Complex<P::Arith>, Complex<P::Arith>) -> Complex<P::Arith>,
    ) -> bool {
        let Some(ub) = u.arith_blocks() else { return false };
        let Some(vb) = v.arith_blocks() else { return false };
        let Some(wb) = w.arith_blocks_mut() else { return false };
        for ((us, vs), ws) in ub.zip(vb).zip(wb) {
            for ((uz, vz), wz) in
                us.chunks_exact(2).zip(vs.chunks_exact(2)).zip(ws.chunks_exact_mut(2))
            {
                let r = f(
                    Complex::new(uz[0], uz[1]),
                    Complex::new(vz[0], vz[1]),
                    Complex::new(wz[0], wz[1]),
                );
                wz[0] = r.re;
                wz[1] = r.im;
            }
        }
        true
    }

    /// Fold a tile's four colorvec partials per site and accumulate into
    /// `acc`, replaying `Spinor::norm_sqr`'s four-way fold and the
    /// site-order global fold.
    fn fold_tile(partial: &[[f64; TILE]; 4], tl: usize, acc: &mut f64) {
        let [p0, p1, p2, p3] = partial;
        for (((&a0, &a1), &a2), &a3) in p0.iter().zip(p1).zip(p2).zip(p3).take(tl) {
            let mut site = 0.0;
            site += a0;
            site += a1;
            site += a2;
            site += a3;
            *acc += site;
        }
    }

    /// Complex counterpart of [`fold_tile`] for `Spinor::dot`.
    fn fold_tile_c(partial: &[[C64; TILE]; 4], tl: usize, acc: &mut C64) {
        let [p0, p1, p2, p3] = partial;
        for (((&a0, &a1), &a2), &a3) in p0.iter().zip(p1).zip(p2).zip(p3).take(tl) {
            let mut site = C64::zero();
            site += a0;
            site += a1;
            site += a2;
            site += a3;
            *acc += site;
        }
    }

    /// `‖x‖²` with the exact per-site fold tree.
    pub fn norm2<P: Precision>(x: &SpinorFieldCb<P>) -> Option<f64> {
        let mut blk: [&[P::Arith]; MAX_BLOCKS] = [&[]; MAX_BLOCKS];
        let nb = blocks_of(x, &mut blk)?;
        let nv = x.layout.n_vec;
        let half = nv / 2;
        if half == 0 {
            return None;
        }
        let sites = x.sites();
        let mut n = 0.0;
        let mut t0 = 0;
        while t0 < sites {
            let tl = TILE.min(sites - t0);
            // partial[cv][t] accumulates colorvec cv's complex norms of
            // tile site t in ascending complex order — the fold of
            // ColorVec::norm_sqr, started from 0.0.
            let mut partial = [[0.0f64; TILE]; 4];
            for (b, &body) in blk.iter().take(nb).enumerate() {
                let seg = &body[nv * t0..nv * (t0 + tl)];
                for (t, site) in seg.chunks_exact(nv).enumerate() {
                    for (c, z) in site.chunks_exact(2).enumerate() {
                        let cv = (b * half + c) / 3;
                        partial[cv][t] += Complex::new(z[0], z[1]).norm_sqr().to_f64();
                    }
                }
            }
            fold_tile(&partial, tl, &mut n);
            t0 += TILE;
        }
        Some(n)
    }

    /// `⟨x, y⟩` with the exact per-site fold tree.
    pub fn cdot<P: Precision>(x: &SpinorFieldCb<P>, y: &SpinorFieldCb<P>) -> Option<C64> {
        let mut xblk: [&[P::Arith]; MAX_BLOCKS] = [&[]; MAX_BLOCKS];
        let mut yblk: [&[P::Arith]; MAX_BLOCKS] = [&[]; MAX_BLOCKS];
        let nb = blocks_of(x, &mut xblk)?;
        blocks_of(y, &mut yblk)?;
        let nv = x.layout.n_vec;
        let half = nv / 2;
        if half == 0 {
            return None;
        }
        let sites = x.sites();
        let mut acc = C64::zero();
        let mut t0 = 0;
        while t0 < sites {
            let tl = TILE.min(sites - t0);
            let mut partial = [[C64::zero(); TILE]; 4];
            for (b, (&xs, &ys)) in xblk.iter().zip(yblk.iter()).take(nb).enumerate() {
                let xseg = &xs[nv * t0..nv * (t0 + tl)];
                let yseg = &ys[nv * t0..nv * (t0 + tl)];
                for (t, (xsite, ysite)) in
                    xseg.chunks_exact(nv).zip(yseg.chunks_exact(nv)).enumerate()
                {
                    for (c, (xz, yz)) in
                        xsite.chunks_exact(2).zip(ysite.chunks_exact(2)).enumerate()
                    {
                        let cv = (b * half + c) / 3;
                        let xv = Complex::new(xz[0], xz[1]).cast::<f64>();
                        let yv = Complex::new(yz[0], yz[1]).cast::<f64>();
                        partial[cv][t] += xv.conj() * yv;
                    }
                }
            }
            fold_tile_c(&partial, tl, &mut acc);
            t0 += TILE;
        }
        Some(acc)
    }

    /// Fused `(⟨x, y⟩, ‖x‖²)` with the exact per-site fold trees.
    pub fn cdot_norm_a<P: Precision>(
        x: &SpinorFieldCb<P>,
        y: &SpinorFieldCb<P>,
    ) -> Option<(C64, f64)> {
        let mut xblk: [&[P::Arith]; MAX_BLOCKS] = [&[]; MAX_BLOCKS];
        let mut yblk: [&[P::Arith]; MAX_BLOCKS] = [&[]; MAX_BLOCKS];
        let nb = blocks_of(x, &mut xblk)?;
        blocks_of(y, &mut yblk)?;
        let nv = x.layout.n_vec;
        let half = nv / 2;
        if half == 0 {
            return None;
        }
        let sites = x.sites();
        let mut dot = C64::zero();
        let mut n = 0.0;
        let mut t0 = 0;
        while t0 < sites {
            let tl = TILE.min(sites - t0);
            let mut dpart = [[C64::zero(); TILE]; 4];
            let mut npart = [[0.0f64; TILE]; 4];
            for (b, (&xs, &ys)) in xblk.iter().zip(yblk.iter()).take(nb).enumerate() {
                let xseg = &xs[nv * t0..nv * (t0 + tl)];
                let yseg = &ys[nv * t0..nv * (t0 + tl)];
                for (t, (xsite, ysite)) in
                    xseg.chunks_exact(nv).zip(yseg.chunks_exact(nv)).enumerate()
                {
                    for (c, (xz, yz)) in
                        xsite.chunks_exact(2).zip(ysite.chunks_exact(2)).enumerate()
                    {
                        let cv = (b * half + c) / 3;
                        let xa = Complex::new(xz[0], xz[1]);
                        let xv = xa.cast::<f64>();
                        let yv = Complex::new(yz[0], yz[1]).cast::<f64>();
                        dpart[cv][t] += xv.conj() * yv;
                        npart[cv][t] += xa.norm_sqr().to_f64();
                    }
                }
            }
            fold_tile_c(&dpart, tl, &mut dot);
            fold_tile(&npart, tl, &mut n);
            t0 += TILE;
        }
        Some((dot, n))
    }

    /// Fused `y_k ← f(x_k, y_k); return ‖y‖²` with the exact fold tree —
    /// the shape of `xmay_norm`, `xmy_norm` and `caxpy_norm`.
    pub fn zip2c_norm<P: Precision>(
        x: &SpinorFieldCb<P>,
        y: &mut SpinorFieldCb<P>,
        f: impl Fn(Complex<P::Arith>, Complex<P::Arith>) -> Complex<P::Arith>,
    ) -> Option<f64> {
        let mut xblk: [&[P::Arith]; MAX_BLOCKS] = [&[]; MAX_BLOCKS];
        let nb = blocks_of(x, &mut xblk)?;
        let nv = y.layout.n_vec;
        let half = nv / 2;
        if half == 0 {
            return None;
        }
        let row = nv * y.layout.stride();
        let live = nv * y.layout.sites;
        let body_len = y.layout.body_len();
        let ybody = P::arith_view_mut(&mut y.data[..body_len])?;
        let sites = x.sites();
        let mut n = 0.0;
        let mut t0 = 0;
        while t0 < sites {
            let tl = TILE.min(sites - t0);
            let mut partial = [[0.0f64; TILE]; 4];
            for (b, yrow) in ybody.chunks_exact_mut(row).take(nb).enumerate() {
                let yseg = &mut yrow[..live][nv * t0..nv * (t0 + tl)];
                let xseg = &xblk[b][nv * t0..nv * (t0 + tl)];
                for (t, (xsite, ysite)) in
                    xseg.chunks_exact(nv).zip(yseg.chunks_exact_mut(nv)).enumerate()
                {
                    for (c, (xz, yz)) in
                        xsite.chunks_exact(2).zip(ysite.chunks_exact_mut(2)).enumerate()
                    {
                        let v = f(Complex::new(xz[0], xz[1]), Complex::new(yz[0], yz[1]));
                        yz[0] = v.re;
                        yz[1] = v.im;
                        let cv = (b * half + c) / 3;
                        partial[cv][t] += v.norm_sqr().to_f64();
                    }
                }
            }
            fold_tile(&partial, tl, &mut n);
            t0 += TILE;
        }
        Some(n)
    }
}

/// Set every site to zero.
pub fn zero<P: Precision>(x: &mut SpinorFieldCb<P>) {
    if fast::fill_zero(x) {
        return;
    }
    x.fill_sites(|_| Spinor::zero());
}

/// `dst ← src`.
pub fn copy<P: Precision>(
    dst: &mut SpinorFieldCb<P>,
    src: &SpinorFieldCb<P>,
    c: &mut BlasCounters,
) {
    debug_assert_eq!(dst.sites(), src.sites());
    if !fast::copy(dst, src) {
        dst.fill_sites(|cb| src.get(cb));
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
    if !fast::zip2(x, y, |xv, yv| yv + xv * a) {
        y.update_sites(|cb, yv| yv + x.get(cb).scale_re(a));
    }
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
    if !fast::zip2(x, y, |xv, yv| xv + yv * a) {
        y.update_sites(|cb, yv| x.get(cb) + yv.scale_re(a));
    }
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
    if !fast::zip2c(x, y, |xz, yz| yz + xz * a) {
        y.update_sites(|cb, yv| yv + x.get(cb).scale(a));
    }
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
    if !fast::zip3c(x, y, z, |xz, yz, zz| xz + yz * a + zz * b) {
        z.update_sites(|cb, zv| x.get(cb) + y.get(cb).scale(a) + zv.scale(b));
    }
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
    if !fast::zip3c(p, s, x, |pz, sz, xz| xz + pz * a + sz * b) {
        x.update_sites(|cb, xv| xv + p.get(cb).scale(a) + s.get(cb).scale(b));
    }
    c.charge(&OP_CAXPBYPZ, p.sites());
}

/// `‖x‖²` with f64 accumulation (local part; the parallel solver allreduces).
pub fn norm2<P: Precision>(x: &SpinorFieldCb<P>, c: &mut BlasCounters) -> f64 {
    c.charge(&OP_NORM2, x.sites());
    match fast::norm2(x) {
        Some(n) => n,
        None => x.fold_sites(0.0, |n, _, v| n + v.norm_sqr()),
    }
}

/// `⟨x, y⟩` with f64 accumulation (local part).
pub fn cdot<P: Precision>(x: &SpinorFieldCb<P>, y: &SpinorFieldCb<P>, c: &mut BlasCounters) -> C64 {
    c.charge(&OP_CDOT, x.sites());
    match fast::cdot(x, y) {
        Some(d) => d,
        None => x.fold_sites(C64::zero(), |acc, cb, xv| acc + xv.dot(&y.get(cb))),
    }
}

/// Fused `y ← x − a·y; return ‖y‖²` (BiCGstab's `s = r − α v` step).
pub fn xmay_norm<P: Precision>(
    x: &SpinorFieldCb<P>,
    a: C64,
    y: &mut SpinorFieldCb<P>,
    c: &mut BlasCounters,
) -> f64 {
    let ac = cast_c::<P>(a);
    let n = match fast::zip2c_norm(x, y, |xz, yz| xz - yz * ac) {
        Some(n) => n,
        None => y.update_fold_sites(0.0, |n, cb, yv| {
            let v = x.get(cb) - yv.scale(ac);
            (v, n + v.norm_sqr())
        }),
    };
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
    let n = match fast::zip2c_norm(x, y, |xz, yz| xz - yz) {
        Some(n) => n,
        None => y.update_fold_sites(0.0, |n, cb, yv| {
            let v = x.get(cb) - yv;
            (v, n + v.norm_sqr())
        }),
    };
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
    let ac = cast_c::<P>(a);
    let n = match fast::zip2c_norm(x, y, |xz, yz| yz + xz * ac) {
        Some(n) => n,
        None => y.update_fold_sites(0.0, |n, cb, yv| {
            let v = yv + x.get(cb).scale(ac);
            (v, n + v.norm_sqr())
        }),
    };
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
    match fast::cdot_norm_a(x, y) {
        Some(r) => r,
        None => x.fold_sites((C64::zero(), 0.0), |(dot, n), cb, xs| {
            (dot + xs.dot(&y.get(cb)), n + xs.norm_sqr())
        }),
    }
}

#[inline(always)]
fn cast_c<P: Precision>(a: C64) -> Complex<P::Arith> {
    Complex::new(P::Arith::from_f64(a.re), P::Arith::from_f64(a.im))
}

#[cfg(test)]
mod tests {
    use super::*;
    use quda_fields::gauge_gen::random_spinor_field;
    use quda_fields::precision::{Double, Half, Single};
    use quda_lattice::geometry::{LatticeDims, Parity};

    fn dims() -> LatticeDims {
        LatticeDims::new(4, 4, 2, 4)
    }

    fn field(seed: u64) -> SpinorFieldCb<Double> {
        let host = random_spinor_field(dims(), seed);
        let mut f = SpinorFieldCb::new(dims(), false);
        f.upload(&host, Parity::Odd);
        f
    }

    /// A lattice whose site count is not a multiple of the reduction tile,
    /// so the partial-tile tail path is exercised.
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
        let mut sp = quda_math::spinor::Spinor::<f32>::zero();
        sp.s[0].c[0].re = 1.0;
        for cb in 0..x.sites() {
            x.set(cb, &sp);
        }
        let mut c = BlasCounters::default();
        let n = norm2(&x, &mut c);
        assert_eq!(n, x.sites() as f64);
    }

    /// The fast streaming paths must reproduce the per-site reference
    /// *bit for bit*: same reals, same operations, same fold order. This
    /// is what keeps solver trajectories byte-stable across the refactor.
    fn assert_fast_paths_bit_identical<P: Precision>(d: LatticeDims) {
        let x = field_p::<P>(d, 31);
        let y0 = field_p::<P>(d, 32);
        let mut c = BlasCounters::default();
        let a = C64::new(0.375, -1.25);
        let ar = 0.8125;

        // norm2 / cdot / cdot_norm_a against explicit per-site folds.
        let mut n_ref = 0.0;
        let mut d_ref = C64::zero();
        for cb in 0..x.sites() {
            n_ref += x.get(cb).norm_sqr();
            d_ref += x.get(cb).dot(&y0.get(cb));
        }
        assert_eq!(norm2(&x, &mut c).to_bits(), n_ref.to_bits());
        let dd = cdot(&x, &y0, &mut c);
        assert_eq!((dd.re.to_bits(), dd.im.to_bits()), (d_ref.re.to_bits(), d_ref.im.to_bits()));
        let (dn, nn) = cdot_norm_a(&x, &y0, &mut c);
        assert_eq!(dn.re.to_bits(), d_ref.re.to_bits());
        assert_eq!(nn.to_bits(), n_ref.to_bits());

        // Element-wise kernels against a per-site get/set replay.
        let mut y = y0.clone();
        let mut y_ref = y0.clone();
        axpy(ar, &x, &mut y, &mut c);
        let art = P::Arith::from_f64(ar);
        for cb in 0..x.sites() {
            let v = y_ref.get(cb) + x.get(cb).scale_re(art);
            y_ref.set(cb, &v);
        }
        for cb in 0..x.sites() {
            assert_eq!(y.get(cb), y_ref.get(cb), "axpy site {cb}");
        }
        caxpy(a, &x, &mut y, &mut c);
        let act = Complex::new(P::Arith::from_f64(a.re), P::Arith::from_f64(a.im));
        for cb in 0..x.sites() {
            let v = y_ref.get(cb) + x.get(cb).scale(act);
            y_ref.set(cb, &v);
        }
        for cb in 0..x.sites() {
            assert_eq!(y.get(cb), y_ref.get(cb), "caxpy site {cb}");
        }

        // Fused write+norm kernel against a per-site replay.
        let n = xmay_norm(&x, a, &mut y, &mut c);
        let mut n_ref2 = 0.0;
        for cb in 0..x.sites() {
            let v = x.get(cb) - y_ref.get(cb).scale(act);
            n_ref2 += v.norm_sqr();
            y_ref.set(cb, &v);
        }
        assert_eq!(n.to_bits(), n_ref2.to_bits());
        for cb in 0..x.sites() {
            assert_eq!(y.get(cb), y_ref.get(cb), "xmay_norm site {cb}");
        }
    }

    #[test]
    fn fast_paths_bit_identical_double() {
        assert_fast_paths_bit_identical::<Double>(dims());
        assert_fast_paths_bit_identical::<Double>(odd_dims());
    }

    #[test]
    fn fast_paths_bit_identical_single() {
        assert_fast_paths_bit_identical::<Single>(dims());
        assert_fast_paths_bit_identical::<Single>(odd_dims());
    }

    #[test]
    fn half_precision_fallback_still_works() {
        // Half has no direct view; the combinator path carries it.
        let x = field_p::<Half>(odd_dims(), 41);
        let mut y = field_p::<Half>(odd_dims(), 42);
        let y0 = y.clone();
        let mut c = BlasCounters::default();
        axpy(0.5, &x, &mut y, &mut c);
        for cb in 0..x.sites() {
            let expect = y0.get(cb) + x.get(cb).scale_re(0.5);
            let bound = expect.max_abs() / 16000.0 + 1e-5;
            assert!((y.get(cb) - expect).max_abs() <= bound);
        }
        let n = norm2(&x, &mut c);
        let mut n_ref = 0.0;
        for cb in 0..x.sites() {
            n_ref += x.get(cb).norm_sqr();
        }
        assert_eq!(n.to_bits(), n_ref.to_bits());
    }
}
