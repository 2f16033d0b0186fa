//! The optimized checkerboard dslash kernel.
//!
//! This is the Rust analog of QUDA's Wilson dslash CUDA kernel: it walks
//! sites of one parity, gathers the eight projected neighbor half-spinors,
//! multiplies by the 2-row compressed links, and reconstructs — using
//! the field containers' site runs and the ghost zones of Section VI for
//! every dimension the stencil marks open.
//!
//! The spin projection is fixed per `(μ, sign)`, as in the paper's kernels
//! (Section V): each of the four directions is one hop function,
//! monomorphised on `μ` and on the projector signs of its forward and
//! backward hop, that projects and reconstructs with the adds and ±i
//! rotations of [`quda_math::nr`] and reads no projector table. That is the
//! non-relativistic basis, the only one an operator builds; a launch with
//! any other [`SpinBasis`] panics rather than apply it as that basis.
//!
//! Every face, T included, is shipped as the sender's projection
//! `P±μ ψ` and read back as stored. In the non-relativistic basis
//! `P±4 = 1 ± γ4` is diag(2,2,0,0), so a T face is still a copy of two spin
//! components (Section VI-C footnote 3) — scaled by 2, which moves no bit.
//!
//! The kernel can be restricted to the interior or to the boundary sites of
//! the open dimensions ([`DslashRegion`]) so the multi-GPU driver can
//! overlap the interior computation with face communication (Section
//! VI-D2).
//!
//! Like a thread of the paper's kernel, each worker writes the sites it
//! computes where they live. A launch cuts every active output field into
//! contiguous site ranges, one per core at or above `PAR_THRESHOLD` and
//! one below it, and each worker stores its range in place through the
//! field's site store ([`SitesMut`]). Nothing is staged, and the
//! sequential sweep is the one-worker case, run on the calling thread.

use quda_fields::precision::Precision;
use quda_fields::{GaugeFieldCb, SitesMut, SpinorFieldCb};
use quda_lattice::geometry::Parity;
use quda_lattice::stencil::{BoundaryKind, ParityStencil, Stencil};
use quda_math::gamma::{GammaBasis, SpinBasis};
use quda_math::nr;
use quda_math::spinor::{HalfSpinor, Spinor};
use rayon::prelude::*;

/// Which sites a dslash launch covers.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum DslashRegion {
    /// The whole local volume (the no-overlap strategy, Section VI-D1).
    All,
    /// Only sites on no open-dimension boundary — safe to run while faces
    /// are still in flight.
    Interior,
    /// Only boundary sites of open dimensions — run after ghosts arrive.
    Faces,
    /// Only boundary sites whose *highest* open boundary dimension is the
    /// given one. Driving the open dimensions in ascending order with this
    /// region updates every boundary site exactly once (corner sites run
    /// with their last-arriving face) — the per-direction pipeline of the
    /// 4-d decomposition (arXiv:1109.2935).
    FacesDim(usize),
}

/// Output sites at which a launch's sweep splits across every core; below
/// it one worker, the calling thread, sweeps them all (a spawn costs more
/// than it saves there). No workload reaches it: a `solve_volume_*` rank
/// sweeps 2,048 checkerboard sites and a service rank 128, so only the
/// 16³×32 kernel probes and the 8×8×8×16 tests run more than one worker.
const PAR_THRESHOLD: usize = 4096;

/// Largest number of right-hand sides one batched dslash sweep carries.
///
/// The batched kernel keeps one accumulator per RHS on the stack, so the
/// bound must be a compile-time constant; 8 covers the service's batching
/// sweet spot (gauge reads amortize ~8× before the spinor traffic of the
/// RHS block itself dominates, Eq. 3–5).
pub const MAX_RHS_BATCH: usize = 8;

/// The indices of the set lanes of `active`, in lane order, compacted into
/// `buf`: the one place a `_multi` kernel reads the mask, so its site loop
/// never branches on it.
pub(crate) fn active_lanes<'a>(
    active: &[bool],
    buf: &'a mut [usize; MAX_RHS_BATCH],
) -> &'a [usize] {
    let mut n = 0;
    for (r, _) in active.iter().enumerate().filter(|(_, &a)| a) {
        buf[n] = r;
        n += 1;
    }
    &buf[..n]
}

/// Apply one parity of the hopping term:
/// `out(x) = Σ_μ P∓μ U_μ(x) ψ(x+μ) + P±μ U†_μ(x−μ) ψ(x−μ)`
/// for `x` of `out_parity`, reading `input` (the opposite parity).
///
/// With `dagger` the projector signs swap (the adjoint hopping term).
/// Ghost zones of `input` (and the ghost links of `gauge`)
/// are consulted where the stencil says the neighbor is off-domain. This is
/// batch 1 of [`dslash_cb_multi`].
#[allow(clippy::too_many_arguments)]
pub fn dslash_cb<P: Precision>(
    out: &mut SpinorFieldCb<P>,
    gauge: &GaugeFieldCb<P>,
    input: &SpinorFieldCb<P>,
    out_parity: Parity,
    stencil: &Stencil,
    basis: &SpinBasis,
    dagger: bool,
    region: DslashRegion,
) {
    dslash_cb_multi(
        std::slice::from_mut(out),
        gauge,
        std::slice::from_ref(input),
        out_parity,
        stencil,
        basis,
        dagger,
        region,
        &[true],
    );
}

/// Batched multi-RHS hopping term: one gauge-link read per `(site, μ)`
/// serves every active right-hand side (Eq. 3–5 amortization).
///
/// `outs[r]` receives the hopping term of `inputs[r]` for every `r` with
/// `active[r]`; inactive slots are left untouched (per-RHS convergence
/// masking in the blocked solvers). Per RHS the arithmetic — operand
/// values, operation order, rounding — does not depend on which other
/// lanes ride along, so a lane of a batch is bit-identical to that lane
/// launched alone; the only difference is that the compressed
/// link is decoded once per `(site, μ)` instead of once per RHS. The sweep
/// is monomorphised on the active-lane count and on `dagger`, so its
/// per-site scratch is sized by the lanes that run, not by
/// [`MAX_RHS_BATCH`], and its projector signs are constants.
///
/// Panics unless `basis` is the non-relativistic basis, the one the site
/// kernel has compiled in.
#[allow(clippy::too_many_arguments)]
pub fn dslash_cb_multi<P: Precision>(
    outs: &mut [SpinorFieldCb<P>],
    gauge: &GaugeFieldCb<P>,
    inputs: &[SpinorFieldCb<P>],
    out_parity: Parity,
    stencil: &Stencil,
    basis: &SpinBasis,
    dagger: bool,
    region: DslashRegion,
    active: &[bool],
) {
    assert_eq!(outs.len(), inputs.len(), "outs/inputs must pair up per RHS");
    assert_eq!(active.len(), inputs.len(), "active mask must cover every RHS");
    assert!(inputs.len() <= MAX_RHS_BATCH, "batch exceeds MAX_RHS_BATCH");
    assert_nr(basis);
    // One arm per lane count below; widening the batch means adding arms.
    const _: () = assert!(MAX_RHS_BATCH == 8);
    let mut idx_buf = [0usize; MAX_RHS_BATCH];
    let idxs = active_lanes(active, &mut idx_buf);
    // The forward hop projects with P+μ exactly under dagger, the backward
    // hop with the other sign; both signs are passed, as stable Rust cannot
    // negate a const parameter.
    macro_rules! sweep_by_count {
        ($($n:literal)+) => {
            match (idxs.len(), dagger) {
                $(
                    ($n, false) => sweep::<P, $n, false, true>(
                        outs, gauge, inputs, idxs, out_parity, stencil, region,
                    ),
                    ($n, true) => sweep::<P, $n, true, false>(
                        outs, gauge, inputs, idxs, out_parity, stencil, region,
                    ),
                )+
                _ => {} // no active lane
            }
        };
    }
    sweep_by_count!(1 2 3 4 5 6 7 8);
}

/// The site kernels compile in the non-relativistic spin projection
/// ([`quda_math::nr`]); any other basis would be applied as if it were that
/// one, so it is refused.
fn assert_nr(basis: &SpinBasis) {
    assert_eq!(
        basis.basis,
        GammaBasis::NonRelativistic,
        "the Dslash kernels apply the non-relativistic spin basis only"
    );
}

/// One launch over the `N` compacted lanes `idxs`: the region filter, the
/// worker split and the store of every Dslash. Each of the `w` workers runs
/// [`dslash_site`] over the region sites of one contiguous range of output
/// sites and stores them in place. Below [`PAR_THRESHOLD`], `w = 1` and the
/// range runs on the calling thread with no spawn and no allocation, which
/// keeps a steady-state solver iteration allocation-free.
fn sweep<P: Precision, const N: usize, const FWD_PLUS: bool, const BWD_PLUS: bool>(
    outs: &mut [SpinorFieldCb<P>],
    gauge: &GaugeFieldCb<P>,
    inputs: &[SpinorFieldCb<P>],
    idxs: &[usize],
    out_parity: Parity,
    stencil: &Stencil,
    region: DslashRegion,
) {
    let idxs: [usize; N] = std::array::from_fn(|k| idxs[k]);
    let table = stencil.for_parity(out_parity);
    let sites = inputs[idxs[0]].sites();
    let in_region = |cb: &usize| match region {
        DslashRegion::All => true,
        DslashRegion::Interior => table.last_face_dim[*cb].is_none(),
        DslashRegion::Faces => table.last_face_dim[*cb].is_some(),
        DslashRegion::FacesDim(d) => table.last_face_dim[*cb] == Some(d as u8),
    };
    let sweep_range = |lanes: &mut [SitesMut<'_, P>; N]| {
        for cb in lanes[0].sites().filter(in_region) {
            let accs = dslash_site::<P, N, FWD_PLUS, BWD_PLUS>(
                gauge, inputs, &idxs, out_parity, table, cb,
            );
            for (lane, acc) in lanes.iter_mut().zip(&accs) {
                lane.set(cb, acc);
            }
        }
    };
    let mut lanes = outs
        .get_disjoint_mut(idxs)
        .expect("active lanes are ascending and distinct")
        .map(SpinorFieldCb::sites_mut);
    let w = if sites >= PAR_THRESHOLD { rayon::current_num_threads() } else { 1 };
    if w == 1 {
        return sweep_range(&mut lanes);
    }
    let per = sites.div_ceil(w);
    let mut ranges = Vec::with_capacity(w);
    while !lanes[0].sites().is_empty() {
        let n = per.min(lanes[0].sites().len());
        ranges.push(lanes.each_mut().map(|lane| lane.split_front(n)));
    }
    ranges.par_chunks_mut(1).for_each(|job| job.iter_mut().for_each(&sweep_range));
}

/// The per-site gather-multiply-reconstruct for the `N` lanes `idxs`: one
/// [`hop`] per direction, its projector signs fixed at compile time.
#[inline]
fn dslash_site<P: Precision, const N: usize, const FWD_PLUS: bool, const BWD_PLUS: bool>(
    gauge: &GaugeFieldCb<P>,
    inputs: &[SpinorFieldCb<P>],
    idxs: &[usize; N],
    out_parity: Parity,
    table: &ParityStencil,
    cb: usize,
) -> [Spinor<P::Arith>; N] {
    let mut accs = [Spinor::zero(); N];
    let acc = &mut accs;
    hop::<P, N, 0, FWD_PLUS, BWD_PLUS>(acc, gauge, inputs, idxs, out_parity, table, cb);
    hop::<P, N, 1, FWD_PLUS, BWD_PLUS>(acc, gauge, inputs, idxs, out_parity, table, cb);
    hop::<P, N, 2, FWD_PLUS, BWD_PLUS>(acc, gauge, inputs, idxs, out_parity, table, cb);
    hop::<P, N, 3, FWD_PLUS, BWD_PLUS>(acc, gauge, inputs, idxs, out_parity, table, cb);
    accs
}

/// The forward and backward hop of direction `MU` for every lane: the link
/// (and neighbor/ghost bookkeeping) is resolved once per hop and reused
/// across the block. The forward hop projects with `P+μ` when `FWD_PLUS`
/// (under dagger, `P−μ` otherwise), the backward hop when `BWD_PLUS`.
#[inline(always)]
fn hop<
    P: Precision,
    const N: usize,
    const MU: usize,
    const FWD_PLUS: bool,
    const BWD_PLUS: bool,
>(
    accs: &mut [Spinor<P::Arith>; N],
    gauge: &GaugeFieldCb<P>,
    inputs: &[SpinorFieldCb<P>],
    idxs: &[usize; N],
    out_parity: Parity,
    table: &ParityStencil,
    cb: usize,
) {
    // The projected half-spinor of every lane, staged into one block per
    // hop: the gather loop (neighbor resolution, ghost branches,
    // projection) and the link-apply loop each stay tight, and the link is
    // decoded once for the whole block.
    let mut block = [HalfSpinor::zero(); N];
    // Forward hop: the link lives on the output site.
    let nref = table.fwd[MU][cb];
    let u = gauge.link(out_parity, MU, cb);
    for (h, &r) in block.iter_mut().zip(idxs) {
        let input = &inputs[r];
        *h = match nref.kind {
            BoundaryKind::Interior => nr::project::<MU, FWD_PLUS, _>(&input.get(nref.idx as usize)),
            // The sender already applied the projection.
            BoundaryKind::GhostForward => input.get_ghost(MU, false, nref.idx as usize),
            BoundaryKind::GhostBackward => unreachable!("forward hop cannot use backward ghost"),
        };
    }
    for (acc, h) in accs.iter_mut().zip(&block) {
        let t = HalfSpinor { h: [u.mul_vec(&h.h[0]), u.mul_vec(&h.h[1])] };
        nr::accumulate::<MU, FWD_PLUS, _>(acc, &t);
    }

    // Backward hop: the link lives on the neighbor site (or in the ghost
    // store when off-domain).
    let nref = table.bwd[MU][cb];
    let (u, from_ghost) = match nref.kind {
        BoundaryKind::Interior => (gauge.link(out_parity.other(), MU, nref.idx as usize), false),
        BoundaryKind::GhostBackward => {
            (gauge.ghost_link(out_parity.other(), MU, nref.idx as usize), true)
        }
        BoundaryKind::GhostForward => unreachable!("backward hop cannot use forward ghost"),
    };
    for (h, &r) in block.iter_mut().zip(idxs) {
        let input = &inputs[r];
        *h = if from_ghost {
            input.get_ghost(MU, true, nref.idx as usize)
        } else {
            nr::project::<MU, BWD_PLUS, _>(&input.get(nref.idx as usize))
        };
    }
    for (acc, h) in accs.iter_mut().zip(&block) {
        let t = HalfSpinor { h: [u.adj_mul_vec(&h.h[0]), u.adj_mul_vec(&h.h[1])] };
        nr::accumulate::<MU, BWD_PLUS, _>(acc, &t);
    }
}

/// Gather the projected half-spinor a neighbor will need from face site
/// `face` of the `dir`-boundary of `field` (the sending half of Fig. 3,
/// generalized to any dimension).
///
/// `to_forward` gathers the last (`true`) or first (`false`) `dir`-slice;
/// `parity` is the checkerboard parity of `field`. The *sender* applies the
/// full projection in every dimension ("only 12 numbers need be
/// transferred"), with the same fixed [`nr::project`] the receiving hop
/// would run, so the receiver consumes the stored half directly. Panics
/// unless `basis` is the non-relativistic basis.
#[allow(clippy::too_many_arguments)]
pub fn gather_face_site<P: Precision>(
    field: &SpinorFieldCb<P>,
    basis: &SpinBasis,
    stencil: &Stencil,
    dir: usize,
    to_forward: bool,
    face: usize,
    parity: Parity,
    dagger: bool,
) -> HalfSpinor<P::Arith> {
    assert_nr(basis);
    let dims = stencil.dims;
    let fixed = if to_forward { dims.extent(dir) - 1 } else { 0 };
    let c = Stencil::face_coord(&dims, dir, parity, fixed, face);
    let psi = field.get(dims.cb_index(c));
    // A face sent forward becomes the receiver's backward ghost, which its
    // backward hop consumes with P+μ (P−μ under dagger); a face sent
    // backward, its forward hop with P−μ (P+μ under dagger).
    match (dir, to_forward != dagger) {
        (0, false) => nr::project::<0, false, _>(&psi),
        (0, true) => nr::project::<0, true, _>(&psi),
        (1, false) => nr::project::<1, false, _>(&psi),
        (1, true) => nr::project::<1, true, _>(&psi),
        (2, false) => nr::project::<2, false, _>(&psi),
        (2, true) => nr::project::<2, true, _>(&psi),
        (3, false) => nr::project::<3, false, _>(&psi),
        (3, true) => nr::project::<3, true, _>(&psi),
        _ => panic!("face direction {dir} is not in 0..4"),
    }
}

/// Counts of work for one dslash launch, for the performance model. Face
/// classification follows the stencil's `last_face_dim` table, so the counts
/// are exact for any set of open dimensions.
pub fn dslash_site_count(stencil: &Stencil, region: DslashRegion) -> usize {
    let total = stencil.dims.half_volume();
    let table = &stencil.for_parity(Parity::Even).last_face_dim;
    match region {
        DslashRegion::All => total,
        DslashRegion::Faces => table.iter().filter(|l| l.is_some()).count(),
        DslashRegion::Interior => table.iter().filter(|l| l.is_none()).count(),
        DslashRegion::FacesDim(d) => table.iter().filter(|l| **l == Some(d as u8)).count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{apply_hopping_dagger_host, apply_hopping_host};
    use quda_fields::gauge_gen::{random_spinor_field, weak_field};
    use quda_fields::precision::{Double, Half, Quarter, Single};
    use quda_fields::HostSpinorField;
    use quda_lattice::geometry::{LatticeDims, DIR_T};
    use quda_math::gamma::GammaBasis;
    use quda_math::real::Real;

    fn dims() -> LatticeDims {
        LatticeDims::new(4, 4, 4, 6)
    }

    fn setup(
        d: LatticeDims,
    ) -> (
        quda_fields::GaugeConfig,
        GaugeFieldCb<Double>,
        HostSpinorField,
        SpinorFieldCb<Double>,
        SpinBasis,
        Stencil,
    ) {
        let cfg = weak_field(d, 0.2, 17);
        let mut gauge = GaugeFieldCb::<Double>::new(d, true);
        gauge.upload(&cfg);
        let host = random_spinor_field(d, 5);
        let mut dev = SpinorFieldCb::<Double>::new(d, false);
        dev.upload(&host, Parity::Odd);
        let basis = SpinBasis::new(GammaBasis::NonRelativistic);
        let stencil = Stencil::new(d, false);
        (cfg, gauge, host, dev, basis, stencil)
    }

    #[test]
    fn dslash_matches_reference_hopping() {
        let d = dims();
        let (cfg, gauge, host, dev, basis, stencil) = setup(d);
        let mut out = SpinorFieldCb::<Double>::new(d, false);
        dslash_cb(&mut out, &gauge, &dev, Parity::Even, &stencil, &basis, false, DslashRegion::All);
        let reference = apply_hopping_host(&cfg, &basis, &host);
        for cb in 0..out.sites() {
            let expect = *reference.get_cb(Parity::Even, cb);
            let got = out.get(cb).cast::<f64>();
            assert!((got - expect).norm_sqr() < 1e-20, "cb={cb}");
        }
    }

    #[test]
    fn dagger_dslash_matches_reference() {
        let d = dims();
        let (cfg, gauge, host, dev, basis, stencil) = setup(d);
        let mut out = SpinorFieldCb::<Double>::new(d, false);
        dslash_cb(&mut out, &gauge, &dev, Parity::Even, &stencil, &basis, true, DslashRegion::All);
        let reference = apply_hopping_dagger_host(&cfg, &basis, &host);
        for cb in 0..out.sites() {
            let expect = *reference.get_cb(Parity::Even, cb);
            let got = out.get(cb).cast::<f64>();
            assert!((got - expect).norm_sqr() < 1e-20, "cb={cb}");
        }
    }

    #[test]
    #[should_panic(expected = "non-relativistic spin basis only")]
    fn dslash_refuses_a_degrand_rossi_basis() {
        let d = dims();
        let (_, gauge, _, dev, _, stencil) = setup(d);
        let basis = SpinBasis::new(GammaBasis::DeGrandRossi);
        let mut out = SpinorFieldCb::<Double>::new(d, false);
        dslash_cb(&mut out, &gauge, &dev, Parity::Even, &stencil, &basis, false, DslashRegion::All);
    }

    #[test]
    #[should_panic(expected = "non-relativistic spin basis only")]
    fn face_gather_refuses_a_degrand_rossi_basis() {
        let d = dims();
        let (_, _, _, dev, _, _) = setup(d);
        let basis = SpinBasis::new(GammaBasis::DeGrandRossi);
        let open = Stencil::with_open(d, [true, false, false, false]);
        gather_face_site(&dev, &basis, &open, 0, true, 0, Parity::Odd, false);
    }

    #[test]
    fn interior_plus_faces_equals_all() {
        let d = dims();
        let (_, gauge, _, dev, basis, stencil) = setup(d);
        let mut all = SpinorFieldCb::<Double>::new(d, false);
        dslash_cb(&mut all, &gauge, &dev, Parity::Even, &stencil, &basis, false, DslashRegion::All);
        let mut split = SpinorFieldCb::<Double>::new(d, false);
        dslash_cb(
            &mut split,
            &gauge,
            &dev,
            Parity::Even,
            &stencil,
            &basis,
            false,
            DslashRegion::Interior,
        );
        dslash_cb(
            &mut split,
            &gauge,
            &dev,
            Parity::Even,
            &stencil,
            &basis,
            false,
            DslashRegion::Faces,
        );
        for cb in 0..all.sites() {
            assert_eq!(all.get(cb), split.get(cb), "cb={cb}");
        }
    }

    #[test]
    fn region_site_counts_partition_volume() {
        let stencil = Stencil::new(dims(), true);
        let all = dslash_site_count(&stencil, DslashRegion::All);
        let int = dslash_site_count(&stencil, DslashRegion::Interior);
        let faces = dslash_site_count(&stencil, DslashRegion::Faces);
        assert_eq!(all, int + faces);
        assert_eq!(faces, 2 * dims().half_spatial_volume());
    }

    #[test]
    fn single_precision_dslash_close_to_double() {
        let d = dims();
        let cfg = weak_field(d, 0.2, 17);
        let host = random_spinor_field(d, 5);
        let basis = SpinBasis::new(GammaBasis::NonRelativistic);
        let stencil = Stencil::new(d, false);
        let mut gauge = GaugeFieldCb::<Single>::new(d, true);
        gauge.upload(&cfg);
        let mut dev = SpinorFieldCb::<Single>::new(d, false);
        dev.upload(&host, Parity::Odd);
        let mut out = SpinorFieldCb::<Single>::new(d, false);
        dslash_cb(&mut out, &gauge, &dev, Parity::Even, &stencil, &basis, false, DslashRegion::All);
        let reference = apply_hopping_host(&cfg, &basis, &host);
        for cb in 0..out.sites() {
            let expect = *reference.get_cb(Parity::Even, cb);
            let got = out.get(cb).cast::<f64>();
            let rel = (got - expect).norm_sqr().sqrt() / expect.norm_sqr().sqrt().max(1e-30);
            assert!(rel < 1e-5, "cb={cb} rel={rel}");
        }
    }

    #[test]
    fn spatial_ghost_path_reproduces_periodic_wrap_single_rank() {
        // Same self-exchange check as the temporal one, but for an open X
        // boundary: side ghosts + side ghost links must reproduce the closed
        // (periodic) dslash exactly.
        let d = dims();
        let (_, mut gauge, _, dev, basis, _) = setup(d);
        let closed = Stencil::new(d, false);
        let open = Stencil::with_open(d, [true, false, false, false]);
        let mut expect = SpinorFieldCb::<Double>::new(d, false);
        dslash_cb(
            &mut expect,
            &gauge,
            &dev,
            Parity::Even,
            &closed,
            &basis,
            false,
            DslashRegion::All,
        );

        let mut dev_g = SpinorFieldCb::<Double>::new_open(d, [true, false, false, false]);
        for cb in 0..dev_g.sites() {
            dev_g.set(cb, &dev.get(cb));
        }
        let fs = dev_g.face_sites(0);
        for face in 0..fs {
            // Input parity is Odd; periodic self-exchange.
            let from_last =
                gather_face_site(&dev, &basis, &open, 0, true, face, Parity::Odd, false);
            dev_g.set_ghost(0, true, face, &from_last);
            let from_first =
                gather_face_site(&dev, &basis, &open, 0, false, face, Parity::Odd, false);
            dev_g.set_ghost(0, false, face, &from_first);
        }
        // Side ghost links: U_x on the last X-slice of the (same) domain,
        // parity of x−x̂ = Odd for Even output sites.
        for face in 0..fs {
            let c = Stencil::face_coord(&d, 0, Parity::Odd, d.x - 1, face);
            let u: quda_math::su3::Su3<f64> = gauge.link(Parity::Odd, 0, d.cb_index(c)).cast();
            gauge.set_ghost_link(Parity::Odd, 0, face, &u);
        }
        let mut got = SpinorFieldCb::<Double>::new(d, false);
        dslash_cb(&mut got, &gauge, &dev_g, Parity::Even, &open, &basis, false, DslashRegion::All);
        for cb in 0..got.sites() {
            let diff = (got.get(cb) - expect.get(cb)).norm_sqr();
            assert!(diff < 1e-22, "cb={cb} diff={diff}");
        }
    }

    #[test]
    fn faces_dim_regions_partition_the_face_set() {
        let d = dims();
        let (_, gauge, _, dev, basis, _) = setup(d);
        let open = [true, false, true, true];
        let stencil = Stencil::with_open(d, open);
        // Interior + each FacesDim (ascending) must together equal All —
        // with every ghost zone zero the numerics don't matter, only the
        // site coverage; use a ghost-bearing input so ghost reads are legal.
        let mut dev_g = SpinorFieldCb::<Double>::new_open(d, open);
        for cb in 0..dev_g.sites() {
            dev_g.set(cb, &dev.get(cb));
        }
        let mut split = SpinorFieldCb::<Double>::new(d, false);
        dslash_cb(
            &mut split,
            &gauge,
            &dev_g,
            Parity::Even,
            &stencil,
            &basis,
            false,
            DslashRegion::Interior,
        );
        let mut covered = dslash_site_count(&stencil, DslashRegion::Interior);
        for dim in 0..4 {
            if !open[dim] {
                assert_eq!(dslash_site_count(&stencil, DslashRegion::FacesDim(dim)), 0);
                continue;
            }
            dslash_cb(
                &mut split,
                &gauge,
                &dev_g,
                Parity::Even,
                &stencil,
                &basis,
                false,
                DslashRegion::FacesDim(dim),
            );
            covered += dslash_site_count(&stencil, DslashRegion::FacesDim(dim));
        }
        let mut all = SpinorFieldCb::<Double>::new(d, false);
        dslash_cb(
            &mut all,
            &gauge,
            &dev_g,
            Parity::Even,
            &stencil,
            &basis,
            false,
            DslashRegion::All,
        );
        for cb in 0..all.sites() {
            assert_eq!(all.get(cb), split.get(cb), "cb={cb}");
        }
        assert_eq!(covered, d.half_volume());
    }

    /// `n` Odd-parity inputs on a stencil open in `open`, with every site
    /// and ghost filled (the ghosts by periodic self-exchange), and a gauge
    /// field whose ghost links are the self-exchanged last slices.
    fn open_fixture<P: Precision>(
        d: LatticeDims,
        open: [bool; 4],
        n: usize,
    ) -> (GaugeFieldCb<P>, Vec<SpinorFieldCb<P>>, SpinBasis, Stencil) {
        let basis = SpinBasis::new(GammaBasis::NonRelativistic);
        let stencil = Stencil::with_open(d, open);
        let mut gauge = GaugeFieldCb::<P>::new(d, true);
        gauge.upload(&weak_field(d, 0.2, 17));
        let open_dims = || (0..4).filter(move |&m| open[m]);
        for dim in open_dims() {
            for face in 0..gauge.face_sites_dim(dim) {
                let c = Stencil::face_coord(&d, dim, Parity::Odd, d.extent(dim) - 1, face);
                let u: quda_math::su3::Su3<f64> =
                    gauge.link(Parity::Odd, dim, d.cb_index(c)).cast();
                gauge.set_ghost_link(Parity::Odd, dim, face, &u);
            }
        }
        let inputs = (0..n)
            .map(|r| {
                let mut full = SpinorFieldCb::<P>::new(d, false);
                full.upload(&random_spinor_field(d, 100 + r as u64), Parity::Odd);
                let mut dev = SpinorFieldCb::<P>::new_open(d, open);
                dev.fill_sites(|cb| full.get(cb));
                for dim in open_dims() {
                    for face in 0..dev.face_sites(dim) {
                        for backward in [true, false] {
                            let h = gather_face_site(
                                &full,
                                &basis,
                                &stencil,
                                dim,
                                backward,
                                face,
                                Parity::Odd,
                                false,
                            );
                            dev.set_ghost(dim, backward, face, &h);
                        }
                    }
                }
                dev
            })
            .collect();
        (gauge, inputs, basis, stencil)
    }

    #[test]
    fn every_lane_count_matches_batch_one() {
        // Every monomorphised width n, with all lanes active and with the
        // first, a middle or the last lane masked: each active lane must be
        // bit-identical to a batch-1 launch on that lane and each masked
        // slot must keep its sentinel — both daggers, every region.
        fn check<P: Precision>() {
            let d = LatticeDims::new(4, 2, 2, 4);
            let (gauge, inputs, basis, stencil) =
                open_fixture::<P>(d, [true, false, false, true], MAX_RHS_BATCH);
            let sentinel = Spinor::point(1, 2).scale_re(P::Arith::from_f64(0.75));
            let fresh = || {
                let mut f = SpinorFieldCb::<P>::new(d, false);
                f.fill_sites(|_| sentinel);
                f
            };
            let untouched = fresh();
            let mut regions = vec![DslashRegion::All, DslashRegion::Interior, DslashRegion::Faces];
            regions.extend((0..4).map(DslashRegion::FacesDim));
            for dagger in [false, true] {
                for &region in &regions {
                    let launch = |outs: &mut [SpinorFieldCb<P>], active: &[bool]| {
                        let ins = &inputs[..outs.len()];
                        let (parity, stencil, basis) = (Parity::Even, &stencil, &basis);
                        dslash_cb_multi(
                            outs, &gauge, ins, parity, stencil, basis, dagger, region, active,
                        );
                    };
                    let singles: Vec<_> = inputs
                        .iter()
                        .map(|input| {
                            let mut out = fresh();
                            let (parity, stencil, basis) = (Parity::Even, &stencil, &basis);
                            dslash_cb(
                                &mut out, &gauge, input, parity, stencil, basis, dagger, region,
                            );
                            out
                        })
                        .collect();
                    for n in 1..=MAX_RHS_BATCH {
                        for masked in [None, Some(0), Some(n / 2), Some(n - 1)] {
                            let active: Vec<bool> = (0..n).map(|r| Some(r) != masked).collect();
                            let mut outs: Vec<_> = (0..n).map(|_| fresh()).collect();
                            launch(&mut outs, &active);
                            for (r, out) in outs.iter().enumerate() {
                                let expect = if active[r] { &singles[r] } else { &untouched };
                                for cb in 0..out.sites() {
                                    assert_eq!(
                                        out.get(cb),
                                        expect.get(cb),
                                        "n={n} masked={masked:?} dagger={dagger} {region:?} \
                                         rhs={r} cb={cb}"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
        check::<Double>();
        check::<Single>();
        check::<Half>();
        check::<Quarter>();
    }

    #[test]
    fn parallel_sweep_matches_batch_one_and_reference() {
        // 8×8×8×16 has PAR_THRESHOLD checkerboard sites, so every launch
        // here splits its sweep across every core, each worker storing its
        // own range in place (at all four precisions, so the per-site norm
        // is cut with the data at both norm precisions). Returns the batch-1
        // outputs (the n = 1 launches) after checking every lane of
        // batches of 3 and 8 against them bit for bit.
        fn batch_one<P: Precision>(
            cfg: &quda_fields::GaugeConfig,
            hosts: &[HostSpinorField],
            basis: &SpinBasis,
            stencil: &Stencil,
        ) -> Vec<SpinorFieldCb<P>> {
            let d = cfg.dims;
            let mut gauge = GaugeFieldCb::<P>::new(d, true);
            gauge.upload(cfg);
            let inputs: Vec<_> = hosts
                .iter()
                .map(|h| {
                    let mut f = SpinorFieldCb::<P>::new(d, false);
                    f.upload(h, Parity::Odd);
                    f
                })
                .collect();
            let (parity, region) = (Parity::Even, DslashRegion::All);
            let singles: Vec<_> = inputs
                .iter()
                .map(|input| {
                    let mut out = SpinorFieldCb::<P>::new(d, false);
                    dslash_cb(&mut out, &gauge, input, parity, stencil, basis, false, region);
                    out
                })
                .collect();
            for n in [3, MAX_RHS_BATCH] {
                let mut outs: Vec<_> = (0..n).map(|_| SpinorFieldCb::<P>::new(d, false)).collect();
                let (ins, active) = (&inputs[..n], &[true; MAX_RHS_BATCH][..n]);
                dslash_cb_multi(
                    &mut outs, &gauge, ins, parity, stencil, basis, false, region, active,
                );
                for (r, out) in outs.iter().enumerate() {
                    for cb in 0..out.sites() {
                        assert_eq!(out.get(cb), singles[r].get(cb), "n={n} rhs={r} cb={cb}");
                    }
                }
            }
            singles
        }
        let d = LatticeDims::new(8, 8, 8, 16);
        assert!(d.half_volume() >= PAR_THRESHOLD);
        let cfg = weak_field(d, 0.2, 17);
        let basis = SpinBasis::new(GammaBasis::NonRelativistic);
        let stencil = Stencil::new(d, false);
        let hosts: Vec<_> =
            (0..MAX_RHS_BATCH).map(|r| random_spinor_field(d, 60 + r as u64)).collect();
        batch_one::<Single>(&cfg, &hosts, &basis, &stencil);
        batch_one::<Half>(&cfg, &hosts, &basis, &stencil);
        batch_one::<Quarter>(&cfg, &hosts, &basis, &stencil);
        let singles = batch_one::<Double>(&cfg, &hosts, &basis, &stencil);
        let references: Vec<HostSpinorField> =
            hosts.iter().map(|host| apply_hopping_host(&cfg, &basis, host)).collect();
        for (single, reference) in singles.iter().zip(&references) {
            for cb in 0..single.sites() {
                let expect = *reference.get_cb(Parity::Even, cb);
                let got = single.get(cb).cast::<f64>();
                assert!((got - expect).norm_sqr() < 1e-20, "cb={cb}");
            }
        }
    }

    #[test]
    fn batched_dslash_region_split_matches_all() {
        // Interior + per-dimension faces through the batched kernel must
        // partition the volume exactly like the single-RHS kernel does, on
        // one worker (4×4×4×6) and split across every core (8×8×8×16). Each
        // in-place store writes only its region's sites of the active
        // lanes: the masked middle lane keeps its sentinel bit for bit, and
        // after the interior launch every face site still holds it.
        fn check(d: LatticeDims) {
            let open = [true, false, false, true];
            let stencil = Stencil::with_open(d, open);
            let cfg = weak_field(d, 0.2, 23);
            let mut gauge = GaugeFieldCb::<Double>::new(d, true);
            gauge.upload(&cfg);
            let basis = SpinBasis::new(GammaBasis::NonRelativistic);
            let n = 3;
            let inputs: Vec<SpinorFieldCb<Double>> = (0..n)
                .map(|r| {
                    let host = random_spinor_field(d, 40 + r as u64);
                    let mut full = SpinorFieldCb::<Double>::new(d, false);
                    full.upload(&host, Parity::Odd);
                    let mut dev = SpinorFieldCb::<Double>::new_open(d, open);
                    for cb in 0..dev.sites() {
                        dev.set(cb, &full.get(cb));
                    }
                    dev
                })
                .collect();
            let sentinel = Spinor::point(1, 2).scale_re(0.75);
            let bits = |sp: Spinor<f64>| sp.to_reals().map(f64::to_bits);
            let fresh = || -> Vec<SpinorFieldCb<Double>> {
                (0..n)
                    .map(|_| {
                        let mut f = SpinorFieldCb::<Double>::new(d, false);
                        f.fill_sites(|_| sentinel);
                        f
                    })
                    .collect()
            };
            let active = [true, false, true];
            let launch = |outs: &mut [SpinorFieldCb<Double>], region: DslashRegion| {
                let (parity, stencil, basis) = (Parity::Even, &stencil, &basis);
                dslash_cb_multi(
                    outs, &gauge, &inputs, parity, stencil, basis, false, region, &active,
                );
            };
            let mut all = fresh();
            launch(&mut all, DslashRegion::All);
            let mut split = fresh();
            launch(&mut split, DslashRegion::Interior);
            let faces = &stencil.for_parity(Parity::Even).last_face_dim;
            for r in [0, 2] {
                for (cb, _) in faces.iter().enumerate().filter(|(_, f)| f.is_some()) {
                    assert_eq!(bits(split[r].get(cb)), bits(sentinel), "rhs={r} face cb={cb}");
                }
            }
            for dim in 0..4 {
                launch(&mut split, DslashRegion::FacesDim(dim));
            }
            for r in 0..n {
                for cb in 0..all[r].sites() {
                    assert_eq!(all[r].get(cb), split[r].get(cb), "rhs={r} cb={cb}");
                }
            }
            for cb in 0..d.half_volume() {
                assert_eq!(bits(all[1].get(cb)), bits(sentinel), "masked lane, All, cb={cb}");
                assert_eq!(bits(split[1].get(cb)), bits(sentinel), "masked lane, split, cb={cb}");
            }
        }
        check(dims());
        let d = LatticeDims::new(8, 8, 8, 16);
        assert!(d.half_volume() >= PAR_THRESHOLD);
        check(d);
    }

    #[test]
    fn ghost_path_reproduces_periodic_wrap_single_rank() {
        // Fill ghosts by hand with the wrapped data and check the open-
        // boundary dslash equals the closed-boundary one.
        let d = dims();
        let (_, mut gauge, _, dev_open, basis, _) = setup(d);
        let closed = Stencil::new(d, false);
        let open = Stencil::new(d, true);
        let mut expect = SpinorFieldCb::<Double>::new(d, false);
        dslash_cb(
            &mut expect,
            &gauge,
            &dev_open,
            Parity::Even,
            &closed,
            &basis,
            false,
            DslashRegion::All,
        );

        // Build a ghost-bearing copy of the input and populate its T ghost
        // zone with the periodic wrap (self-exchange).
        let mut dev_g = SpinorFieldCb::<Double>::new(d, true);
        for cb in 0..dev_g.sites() {
            dev_g.set(cb, &dev_open.get(cb));
        }
        let half_vs = d.half_spatial_volume();
        for face in 0..half_vs {
            // Backward ghost of this domain = last slice of the (same)
            // domain under periodicity.
            let from_last =
                gather_face_site(&dev_open, &basis, &open, DIR_T, true, face, Parity::Odd, false);
            dev_g.set_ghost(DIR_T, true, face, &from_last);
            let from_first =
                gather_face_site(&dev_open, &basis, &open, DIR_T, false, face, Parity::Odd, false);
            dev_g.set_ghost(DIR_T, false, face, &from_first);
        }
        // Ghost links: the T ghost store must hold the links of the last
        // time-slice (periodic self-copy), parity of x−T̂ = Odd.
        let cfgd = d;
        for face in 0..half_vs {
            let cb_last = (cfgd.t - 1) * half_vs + face;
            let u: quda_math::su3::Su3<f64> = gauge.link(Parity::Odd, DIR_T, cb_last).cast();
            gauge.set_ghost_link(Parity::Odd, DIR_T, face, &u);
        }
        let mut got = SpinorFieldCb::<Double>::new(d, false);
        dslash_cb(&mut got, &gauge, &dev_g, Parity::Even, &open, &basis, false, DslashRegion::All);
        for cb in 0..got.sites() {
            let diff = (got.get(cb) - expect.get(cb)).norm_sqr();
            assert!(diff < 1e-22, "cb={cb} diff={diff}");
        }
    }
}
