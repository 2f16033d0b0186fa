//! The Wilson-clover operator and its even-odd (Schur) preconditioned form,
//! composed once for every device count.
//!
//! With `M = (4+m+A) − ½D ≡ T − ½D` and sites split by parity,
//!
//! ```text
//! M = [ T_ee     −½ D_eo ]
//!     [ −½ D_oe   T_oo   ]
//! ```
//!
//! the odd-odd Schur complement is `M̂ = T_oo − ¼ D_oe T_ee⁻¹ D_eo`
//! (Section II: "even-odd preconditioning is used to accelerate the
//! solution finding process ... to solve the Schur complement system").
//! Solving `M̂ x_o = b̂_o` with `b̂_o = b_o + ½ D_oe T_ee⁻¹ b_e` and
//! reconstructing `x_e = T_ee⁻¹ (b_e + ½ D_eo x_o)` solves the full system.
//!
//! [`MatPcOp`] runs that composition over a batch of right-hand sides on
//! the `_multi` kernels. Every hopping term goes through a [`Halo`], which
//! fills the operand's ghost zones first: [`NoHalo`] is the single device
//! with closed boundaries, and a rank of a partitioned lattice supplies the
//! face exchange (Section VI: the parallel operator is the single-GPU
//! kernels plus a face exchange before each hop).

use crate::clover_apply::{clover_apply_cb_multi, clover_axpy_cb_multi};
use crate::dslash::{dslash_cb_multi, DslashRegion, MAX_RHS_BATCH};
use crate::reference::WilsonParams;
use quda_fields::clover_build::clover_both_parities;
use quda_fields::precision::Precision;
use quda_fields::{CloverFieldCb, GaugeConfig, GaugeFieldCb, SpinorFieldCb};
use quda_lattice::geometry::{LatticeDims, Parity};
use quda_lattice::stencil::Stencil;
use quda_math::clover::CloverBasisMap;
use quda_math::gamma::{GammaBasis, SpinBasis};
use quda_math::real::Real;
use std::convert::Infallible;
use std::slice::{from_mut, from_ref};

/// Which parity the preconditioned system lives on.
pub const SOLVE_PARITY: Parity = Parity::Odd;
/// The inner (eliminated) parity.
pub const INNER_PARITY: Parity = Parity::Even;

/// The mask of a one-element batch.
const ONE: &[bool] = &[true];

/// The Wilson-clover operator's device-side fields on one (local) domain.
pub struct WilsonCloverOp<P: Precision> {
    /// Lattice extents.
    pub dims: LatticeDims,
    /// Mass and clover coefficient.
    pub params: WilsonParams,
    /// Device gauge field (2-row compressed).
    pub gauge: GaugeFieldCb<P>,
    /// Shifted clover term `T = (4+m) + A` per parity.
    pub clover: [CloverFieldCb<P>; 2],
    /// Inverse `T⁻¹` per parity.
    pub clover_inv: [CloverFieldCb<P>; 2],
    /// Neighbor tables (closed boundaries for the single-device op).
    pub stencil: Stencil,
    /// Non-relativistic spin basis.
    pub basis: SpinBasis,
    /// Chiral↔NR conversion for the clover application.
    pub map: CloverBasisMap,
}

/// How the operands of a hopping term get their off-domain neighbors.
pub trait Halo<P: Precision> {
    /// Why the ghosts could not be filled.
    type Error;
    /// `outs[r] ← D ins[r]` on `out_parity` for every `r` with `active[r]`:
    /// fill the ghosts of `ins` that `out_parity` reads, then apply the
    /// hopping term, overlapping the interior with the fill where the halo
    /// can. Inactive slots are left untouched.
    fn hop(
        &mut self,
        op: &WilsonCloverOp<P>,
        outs: &mut [SpinorFieldCb<P>],
        ins: &mut [SpinorFieldCb<P>],
        active: &[bool],
        out_parity: Parity,
        dagger: bool,
    ) -> Result<(), Self::Error>;
}

/// The single device's halo: closed boundaries, so there is nothing to
/// fill and the hop is one whole-volume sweep.
#[derive(Copy, Clone, Debug, Default)]
pub struct NoHalo;

impl NoHalo {
    /// The hopping term over the whole volume, reading the operands (and
    /// whatever their ghost zones already hold) as they are.
    pub fn dslash<P: Precision>(
        op: &WilsonCloverOp<P>,
        outs: &mut [SpinorFieldCb<P>],
        ins: &[SpinorFieldCb<P>],
        active: &[bool],
        out_parity: Parity,
        dagger: bool,
    ) {
        let (gauge, stencil, basis, all) = (&op.gauge, &op.stencil, &op.basis, DslashRegion::All);
        dslash_cb_multi(outs, gauge, ins, out_parity, stencil, basis, dagger, all, active);
    }
}

impl<P: Precision> Halo<P> for NoHalo {
    type Error = Infallible;

    fn hop(
        &mut self,
        op: &WilsonCloverOp<P>,
        outs: &mut [SpinorFieldCb<P>],
        ins: &mut [SpinorFieldCb<P>],
        active: &[bool],
        out_parity: Parity,
        dagger: bool,
    ) -> Result<(), Infallible> {
        NoHalo::dslash(op, outs, ins, active, out_parity, dagger);
        Ok(())
    }
}

impl<P: Precision> WilsonCloverOp<P> {
    /// Build the single-device operator from a host gauge configuration:
    /// computes the clover field, shifts, inverts, and uploads everything
    /// at precision `P`.
    pub fn from_config(cfg: &GaugeConfig, params: WilsonParams) -> Self {
        Self::from_config_open(cfg, params, [false; 4], None)
    }

    /// As [`WilsonCloverOp::from_config`], but with any set of open
    /// (domain-boundary) dimensions — a rank of a 4-d process-grid
    /// decomposition opens every partitioned dimension — and an optional
    /// externally computed clover field (per parity, in checkerboard
    /// order), needed there because clover leaves at a domain boundary
    /// reach into neighboring domains.
    pub fn from_config_open(
        cfg: &GaugeConfig,
        params: WilsonParams,
        open: [bool; 4],
        clover_override: Option<[Vec<quda_math::clover::CloverSite<f64>>; 2]>,
    ) -> Self {
        let dims = cfg.dims;
        let mut gauge = GaugeFieldCb::<P>::new(dims, true);
        gauge.upload(cfg);
        let clover_sites =
            clover_override.unwrap_or_else(|| clover_both_parities(cfg, params.c_sw));
        let shift = params.diag_shift();
        let mut clover = [CloverFieldCb::<P>::new(dims), CloverFieldCb::<P>::new(dims)];
        let mut clover_inv = [CloverFieldCb::<P>::new(dims), CloverFieldCb::<P>::new(dims)];
        for p in 0..2 {
            for cb in 0..dims.half_volume() {
                let t = clover_sites[p][cb].shifted(shift);
                clover[p].set(cb, &t);
                clover_inv[p].set(cb, &t.invert().expect("shifted clover term must be invertible"));
            }
        }
        WilsonCloverOp {
            dims,
            params,
            gauge,
            clover,
            clover_inv,
            stencil: Stencil::with_open(dims, open),
            basis: SpinBasis::new(GammaBasis::NonRelativistic),
            map: CloverBasisMap::new(),
        }
    }

    /// Allocate a workspace spinor field matching this operator. On a
    /// partitioned run every vector the hopping term may read carries a
    /// ghost zone for each open dimension.
    pub fn alloc_spinor(&self) -> SpinorFieldCb<P> {
        SpinorFieldCb::new_open(self.dims, self.stencil.open)
    }

    /// `out = M̂ ψ` on one field with closed boundaries: batch 1 of
    /// [`MatPcOp::matpc`] under [`NoHalo`], with caller-provided scratch so
    /// a shared `input` needs no ghost writes.
    pub fn apply_matpc(
        &self,
        out: &mut SpinorFieldCb<P>,
        input: &SpinorFieldCb<P>,
        tmp: &mut SpinorFieldCb<P>,
        tmp2: &mut SpinorFieldCb<P>,
        dagger: bool,
    ) {
        let (ins, tmp1s) = (from_ref(input), from_mut(tmp));
        NoHalo::dslash(self, tmp1s, ins, ONE, INNER_PARITY, dagger);
        let Ok(()) = self.matpc_after_hop(
            &mut NoHalo,
            from_mut(out),
            ins,
            tmp1s,
            from_mut(tmp2),
            ONE,
            dagger,
        );
    }

    /// `M̂` past its first hop: with `tmp1s[r] = D_eo ins[r]` in place,
    /// `outs[r] = T_oo ins[r] − ¼ D_oe T_ee⁻¹ tmp1s[r]` (the dagger variant
    /// swaps the hopping adjoints; the `T` terms are Hermitian).
    #[allow(clippy::too_many_arguments)]
    fn matpc_after_hop<H: Halo<P>>(
        &self,
        halo: &mut H,
        outs: &mut [SpinorFieldCb<P>],
        ins: &[SpinorFieldCb<P>],
        tmp1s: &mut [SpinorFieldCb<P>],
        tmp2s: &mut [SpinorFieldCb<P>],
        active: &[bool],
        dagger: bool,
    ) -> Result<(), H::Error> {
        // tmp2 <- T_ee⁻¹ tmp1.
        clover_apply_cb_multi(
            tmp2s,
            &self.clover_inv[INNER_PARITY.as_usize()],
            tmp1s,
            &self.map,
            active,
        );
        // tmp1 <- D_oe tmp2 (odd output).
        halo.hop(self, tmp1s, tmp2s, active, SOLVE_PARITY, dagger)?;
        // out <- T_oo ψ − ¼ tmp1.
        let quarter = P::Arith::from_f64(-0.25);
        let t_oo = &self.clover[SOLVE_PARITY.as_usize()];
        clover_axpy_cb_multi(outs, t_oo, ins, quarter, tmp1s, &self.map, active);
        Ok(())
    }
}

/// `outs[r] = bs[r] + ½ hops[r]` for every active lane — the combine shared
/// by source preparation and even reconstruction.
fn plus_half_hop<P: Precision>(
    outs: &mut [SpinorFieldCb<P>],
    bs: &[SpinorFieldCb<P>],
    hops: &[SpinorFieldCb<P>],
    active: &[bool],
) {
    let half = P::Arith::from_f64(0.5);
    let lanes = outs.iter_mut().zip(bs).zip(hops).zip(active);
    for (((out, b), hop), _) in lanes.filter(|(_, &a)| a) {
        for cb in 0..out.sites() {
            let v = b.get(cb) + hop.get(cb).scale_re(half);
            out.set(cb, &v);
        }
    }
}

/// The even-odd preconditioned operator over a batch of right-hand sides:
/// the operator plus one pair of scratch fields per lane, grown to the
/// largest batch seen so steady-state sweeps never allocate.
///
/// Every method takes the [`Halo`] its hops run through and an `active`
/// mask. Per active lane the result is bit-identical to running that lane
/// alone (the `_multi` kernel contract); inactive slots are left untouched.
pub struct MatPcOp<P: Precision> {
    /// The underlying operator and device fields.
    pub op: WilsonCloverOp<P>,
    tmp1s: Vec<SpinorFieldCb<P>>,
    tmp2s: Vec<SpinorFieldCb<P>>,
}

impl<P: Precision> MatPcOp<P> {
    /// Wrap an operator; scratch is allocated on first use.
    pub fn new(op: WilsonCloverOp<P>) -> Self {
        MatPcOp { op, tmp1s: Vec::new(), tmp2s: Vec::new() }
    }

    /// Admit a batch of `n` lanes: the operator and `n` scratch pairs, or
    /// `None` when no lane is active.
    #[allow(clippy::type_complexity)]
    fn lanes(
        &mut self,
        n: usize,
        active: &[bool],
    ) -> Option<(&WilsonCloverOp<P>, &mut [SpinorFieldCb<P>], &mut [SpinorFieldCb<P>])> {
        assert_eq!(active.len(), n, "active mask must cover every lane");
        assert!(n <= MAX_RHS_BATCH, "batch exceeds MAX_RHS_BATCH");
        if !active.contains(&true) {
            return None;
        }
        while self.tmp1s.len() < n {
            self.tmp1s.push(self.op.alloc_spinor());
            self.tmp2s.push(self.op.alloc_spinor());
        }
        Some((&self.op, &mut self.tmp1s[..n], &mut self.tmp2s[..n]))
    }

    /// `outs[r] = M̂ ins[r]` (`M̂†` with `dagger`); the halo may write the
    /// ghost zones of `ins`.
    pub fn matpc<H: Halo<P>>(
        &mut self,
        halo: &mut H,
        outs: &mut [SpinorFieldCb<P>],
        ins: &mut [SpinorFieldCb<P>],
        active: &[bool],
        dagger: bool,
    ) -> Result<(), H::Error> {
        let Some((op, tmp1s, tmp2s)) = self.lanes(ins.len(), active) else {
            return Ok(());
        };
        // tmp1 <- D_eo ψ (even output from odd input).
        halo.hop(op, tmp1s, ins, active, INNER_PARITY, dagger)?;
        op.matpc_after_hop(halo, outs, ins, tmp1s, tmp2s, active, dagger)
    }

    /// The preconditioned sources `b̂_o = b_o + ½ D_oe T_ee⁻¹ b_e`.
    pub fn prepare_source<H: Halo<P>>(
        &mut self,
        halo: &mut H,
        outs: &mut [SpinorFieldCb<P>],
        b_evens: &[SpinorFieldCb<P>],
        b_odds: &[SpinorFieldCb<P>],
        active: &[bool],
    ) -> Result<(), H::Error> {
        let Some((op, tmp1s, tmp2s)) = self.lanes(b_evens.len(), active) else {
            return Ok(());
        };
        clover_apply_cb_multi(
            tmp1s,
            &op.clover_inv[INNER_PARITY.as_usize()],
            b_evens,
            &op.map,
            active,
        );
        halo.hop(op, tmp2s, tmp1s, active, SOLVE_PARITY, false)?;
        plus_half_hop(outs, b_odds, tmp2s, active);
        Ok(())
    }

    /// The even-parity solutions `x_e = T_ee⁻¹ (b_e + ½ D_eo x_o)`; the
    /// halo may write the ghost zones of `x_odds`.
    pub fn reconstruct_even<H: Halo<P>>(
        &mut self,
        halo: &mut H,
        x_evens: &mut [SpinorFieldCb<P>],
        b_evens: &[SpinorFieldCb<P>],
        x_odds: &mut [SpinorFieldCb<P>],
        active: &[bool],
    ) -> Result<(), H::Error> {
        let Some((op, tmp1s, tmp2s)) = self.lanes(x_odds.len(), active) else {
            return Ok(());
        };
        halo.hop(op, tmp1s, x_odds, active, INNER_PARITY, false)?;
        plus_half_hop(tmp2s, b_evens, tmp1s, active);
        clover_apply_cb_multi(
            x_evens,
            &op.clover_inv[INNER_PARITY.as_usize()],
            tmp2s,
            &op.map,
            active,
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::apply_wilson_clover_host;
    use quda_fields::clover_build::clover_both_parities;
    use quda_fields::gauge_gen::{random_spinor_field, weak_field};
    use quda_fields::precision::{Double, Single};
    use quda_fields::HostSpinorField;
    use quda_math::clover::CloverSite;
    use quda_math::complex::C64;
    use quda_math::spinor::Spinor;

    fn dims() -> LatticeDims {
        LatticeDims::new(4, 4, 4, 4)
    }

    fn params() -> WilsonParams {
        WilsonParams { mass: 0.2, c_sw: 1.0 }
    }

    fn clover_by_lex(cfg: &GaugeConfig, c_sw: f64) -> Vec<CloverSite<f64>> {
        let d = cfg.dims;
        let both = clover_both_parities(cfg, c_sw);
        let mut out = vec![CloverSite::identity(); d.volume()];
        for p in [Parity::Even, Parity::Odd] {
            for cb in 0..d.half_volume() {
                out[d.lex_index(d.cb_coord(p, cb))] = both[p.as_usize()][cb];
            }
        }
        out
    }

    #[test]
    fn schur_solution_solves_full_system() {
        // The dense host operator is the oracle: for random x, set
        // b = M_ref [x_e, x_o]; then M̂ x_o = b̂_o and reconstruction returns
        // x_e. Batch 3 with the middle lane masked, which must come back
        // untouched bit for bit.
        let d = dims();
        let cfg = weak_field(d, 0.1, 13);
        let mut mat = MatPcOp::new(WilsonCloverOp::<Double>::from_config(&cfg, params()));
        let clover = clover_by_lex(&cfg, params().c_sw);
        let xs: Vec<HostSpinorField> = (0..3).map(|k| random_spinor_field(d, 21 + k)).collect();
        let bs: Vec<_> =
            xs.iter().map(|x| apply_wilson_clover_host(&cfg, &clover, &params(), x)).collect();
        let upload = |hosts: &[HostSpinorField], parity| -> Vec<SpinorFieldCb<Double>> {
            let field = |h| {
                let mut f = mat.op.alloc_spinor();
                f.upload(h, parity);
                f
            };
            hosts.iter().map(field).collect()
        };
        let (b_evens, b_odds) = (upload(&bs, INNER_PARITY), upload(&bs, SOLVE_PARITY));
        let mut x_odds = upload(&xs, SOLVE_PARITY);
        let sentinel = Spinor::point(1, 2).scale_re(7.5);
        let fresh = || -> Vec<SpinorFieldCb<Double>> {
            let field = |_| {
                let mut f = mat.op.alloc_spinor();
                f.fill_sites(|_| sentinel);
                f
            };
            (0..3).map(field).collect()
        };
        let (mut bhats, mut mxs, mut x_evens) = (fresh(), fresh(), fresh());
        let active = [true, false, true];
        let Ok(()) = mat.prepare_source(&mut NoHalo, &mut bhats, &b_evens, &b_odds, &active);
        let Ok(()) = mat.matpc(&mut NoHalo, &mut mxs, &mut x_odds, &active, false);
        let Ok(()) =
            mat.reconstruct_even(&mut NoHalo, &mut x_evens, &b_evens, &mut x_odds, &active);
        for r in 0..3 {
            for cb in 0..d.half_volume() {
                if active[r] {
                    let diff = (mxs[r].get(cb) - bhats[r].get(cb)).norm_sqr().sqrt();
                    assert!(diff < 1e-10, "lane {r} cb={cb}: M̂ x_o − b̂_o = {diff}");
                    let x_e = *xs[r].get_cb(INNER_PARITY, cb);
                    let diff = (x_evens[r].get(cb) - x_e).norm_sqr().sqrt();
                    assert!(diff < 1e-10, "lane {r} cb={cb}: reconstructed x_e off by {diff}");
                } else {
                    for field in [&bhats[r], &mxs[r], &x_evens[r]] {
                        assert_eq!(field.get(cb), sentinel, "masked lane touched at cb={cb}");
                    }
                }
            }
        }
    }

    #[test]
    fn matpc_dagger_is_adjoint() {
        let d = dims();
        let cfg = weak_field(d, 0.2, 3);
        let op = WilsonCloverOp::<Double>::from_config(&cfg, params());
        let hx = random_spinor_field(d, 1);
        let hy = random_spinor_field(d, 2);
        let mut x = op.alloc_spinor();
        let mut y = op.alloc_spinor();
        x.upload(&hx, SOLVE_PARITY);
        y.upload(&hy, SOLVE_PARITY);
        let mut t1 = op.alloc_spinor();
        let mut t2 = op.alloc_spinor();
        let mut my = op.alloc_spinor();
        op.apply_matpc(&mut my, &y, &mut t1, &mut t2, false);
        let mut mdx = op.alloc_spinor();
        op.apply_matpc(&mut mdx, &x, &mut t1, &mut t2, true);
        let mut lhs = C64::zero();
        let mut rhs = C64::zero();
        for cb in 0..x.sites() {
            lhs += x.get(cb).dot(&my.get(cb));
            rhs += mdx.get(cb).dot(&y.get(cb));
        }
        assert!((lhs.re - rhs.re).abs() < 1e-9 * lhs.re.abs().max(1.0));
        assert!((lhs.im - rhs.im).abs() < 1e-9);
    }

    #[test]
    fn normal_operator_is_positive() {
        let d = dims();
        let cfg = weak_field(d, 0.15, 41);
        let op = WilsonCloverOp::<Double>::from_config(&cfg, params());
        let hx = random_spinor_field(d, 33);
        let mut x = op.alloc_spinor();
        x.upload(&hx, SOLVE_PARITY);
        let mut out = op.alloc_spinor();
        let (mut m, mut t1, mut t2) = (op.alloc_spinor(), op.alloc_spinor(), op.alloc_spinor());
        op.apply_matpc(&mut m, &x, &mut t1, &mut t2, false);
        op.apply_matpc(&mut out, &m, &mut t1, &mut t2, true);
        let mut dot = C64::zero();
        for cb in 0..x.sites() {
            dot += x.get(cb).dot(&out.get(cb));
        }
        assert!(dot.re > 0.0, "<x, M†M x> must be positive, got {}", dot.re);
        assert!(dot.im.abs() < 1e-9 * dot.re);
    }

    #[test]
    fn single_precision_matpc_close_to_double() {
        let d = dims();
        let cfg = weak_field(d, 0.1, 8);
        let op64 = WilsonCloverOp::<Double>::from_config(&cfg, params());
        let op32 = WilsonCloverOp::<Single>::from_config(&cfg, params());
        let host = random_spinor_field(d, 55);
        let mut x64 = op64.alloc_spinor();
        x64.upload(&host, SOLVE_PARITY);
        let mut x32 = op32.alloc_spinor();
        x32.upload(&host, SOLVE_PARITY);
        let (mut o64, mut a64, mut b64) =
            (op64.alloc_spinor(), op64.alloc_spinor(), op64.alloc_spinor());
        op64.apply_matpc(&mut o64, &x64, &mut a64, &mut b64, false);
        let (mut o32, mut a32, mut b32) =
            (op32.alloc_spinor(), op32.alloc_spinor(), op32.alloc_spinor());
        op32.apply_matpc(&mut o32, &x32, &mut a32, &mut b32, false);
        for cb in 0..o64.sites() {
            let hi = o64.get(cb);
            let lo = o32.get(cb).cast::<f64>();
            let rel = (hi - lo).norm_sqr().sqrt() / hi.norm_sqr().sqrt().max(1e-30);
            assert!(rel < 5e-5, "cb={cb} rel={rel}");
        }
    }
}
