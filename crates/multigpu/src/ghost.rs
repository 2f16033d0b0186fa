//! Spinor-face and gauge-ghost exchange between domains
//! (Sections VI-B, VI-C; Fig. 3), for any partitioned dimension.
//!
//! Per dslash application each rank, for every open dimension of its
//! [`DecompPlan`],
//!
//! 1. gathers the projected 12 components of every site on its two boundary
//!    slices — the sender-side projection `P±μ ψ` in every dimension, "it is
//!    true in general (for all directions) that only 12 numbers need be
//!    transferred" (for T, where `P±4` is diagonal, a copy of two spin
//!    components scaled by 2 — footnote 3) — encoding each one straight
//!    into the payload of the [`Frame`] it sends,
//! 2. sends the last-slice face *forward* on that dimension's ring (it
//!    becomes the receiver's backward ghost) and the first-slice face
//!    *backward*; the communicator seals the frame in place and moves it,
//! 3. copies each received payload into the spinor field's ghost zone for
//!    that dimension, read back as stored by the Dslash.
//!
//! So a face crosses one buffer from gather to ghost zone, as in the
//! paper's gather kernel writing the send buffer and the receive landing in
//! the ghost zone (Fig. 3). The send and receive halves are separate
//! functions so the overlapped strategy can compute the interior volume
//! between them and progress each direction independently (Section VI-D2).
//!
//! The wire format is the ghost store's own layout: the storage elements of
//! every site (f64, f32, or the quantized `i16`/`i8` components), then, in
//! half and quarter precision, one `f32` normalization per face site — "for
//! half precision the extra normalization constant for each (12 component)
//! spinor is also required" (Section VI-C). Receiving is therefore a copy,
//! never a decode and re-quantization. The format is identical for every
//! dimension; only face areas and tags differ.
//!
//! There is one exchange: a slice of right-hand sides with an `active`
//! mask, addressed by a plan and a dimension. The paper's single-field
//! temporal exchange is the one-element slice on a `1×1×1×N` plan.

use quda_comm::{le_bytes, tags, CommError, Communicator, DecodeError, Frame};
use quda_dirac::gather_face_site;
use quda_fields::precision::Precision;
use quda_fields::{GaugeFieldCb, SpinorFieldCb};
use quda_lattice::geometry::Parity;
use quda_lattice::partition::DecompPlan;
use quda_lattice::stencil::Stencil;
use quda_math::half;
use quda_math::real::Real;
use quda_math::spinor::HALF_SPINOR_REALS;
use quda_math::su3::Su3;
use quda_obs::Phase;

/// Encode a gathered face (one f64 per real, `faces × 12` entries) at the
/// wire precision of `P`: [`send_faces`]'s per-site encoder, site by site.
pub fn encode_face<P: Precision>(values: &[f64]) -> Frame {
    assert_eq!(values.len() % HALF_SPINOR_REALS, 0, "values must be whole face sites");
    let sites = values.len() / HALF_SPINOR_REALS;
    let mut frame = Frame::zeroed(face_wire_bytes::<P>(sites));
    for (s, site) in values.chunks_exact(HALF_SPINOR_REALS).enumerate() {
        encode_site::<P>(site, &mut frame, sites, s);
    }
    frame
}

/// Write face site `s` of a `sites`-site payload at the wire precision of
/// `P`: its 12 elements into the element run and, in half and quarter, its
/// `f32` norm into the norm run that follows every element. Sites are
/// independent, so a fused multi-RHS face is byte-identical to the
/// concatenation of its per-RHS encodings.
fn encode_site<P: Precision>(site: &[f64], payload: &mut [u8], sites: usize, s: usize) {
    let run = HALF_SPINOR_REALS * P::STORAGE_BYTES;
    let (elems, norms) = payload.split_at_mut(sites * run);
    let (elems, norm) = (&mut elems[s * run..(s + 1) * run], 4 * s..4 * s + 4);
    match (P::NEEDS_NORM, P::STORAGE_BYTES) {
        (false, 8) => put_le(elems, site, f64::to_le_bytes),
        (false, _) => put_le(elems, site, |x| (x as f32).to_le_bytes()),
        (true, 1) => {
            let mut ints = [0i8; HALF_SPINOR_REALS];
            norms[norm].copy_from_slice(&half::quantize_site8(site, &mut ints).to_le_bytes());
            put_le(elems, &ints, i8::to_le_bytes);
        }
        (true, _) => {
            let mut ints = [0i16; HALF_SPINOR_REALS];
            norms[norm].copy_from_slice(&half::quantize_site16(site, &mut ints).to_le_bytes());
            put_le(elems, &ints, i16::to_le_bytes);
        }
    }
}

/// Write the little-endian bytes of each element of `src` into `dst`.
fn put_le<T: Copy, const N: usize>(dst: &mut [u8], src: &[T], to_le: impl Fn(T) -> [u8; N]) {
    for (d, &x) in dst.chunks_exact_mut(N).zip(src) {
        d.copy_from_slice(&to_le(x));
    }
}

/// Decode a face payload back to f64 values, refilling `out` in place so
/// a steady-state receive loop reuses the scratch buffer's capacity.
///
/// The exchange itself never decodes: [`recv_faces`] copies the wire into
/// the ghost zone. Followed by `set_ghost` of each site, this is the
/// reference that copy is tested against.
///
/// The payload length is validated against what `sites` faces must occupy
/// at precision `P` *before* any slicing, so a short or oversized message —
/// whether from a faulty link or a confused peer — surfaces as a typed
/// [`DecodeError`] instead of a panic. On error `out` is left cleared.
pub fn decode_face_into<P: Precision>(
    bytes: &[u8],
    sites: usize,
    out: &mut Vec<f64>,
) -> Result<(), DecodeError> {
    out.clear();
    let expected = face_wire_bytes::<P>(sites);
    if bytes.len() != expected {
        return Err(DecodeError::Truncated { expected, got: bytes.len() });
    }
    let (elems, norms) = bytes.split_at(sites * HALF_SPINOR_REALS * P::STORAGE_BYTES);
    let norms: Vec<f32> = norms.chunks_exact(4).map(|c| f32::from_le_bytes(le_bytes(c))).collect();
    match (P::NEEDS_NORM, P::STORAGE_BYTES) {
        (false, 8) => out.extend(elems.chunks_exact(8).map(|c| f64::from_le_bytes(le_bytes(c)))),
        (false, _) => {
            out.extend(elems.chunks_exact(4).map(|c| f32::from_le_bytes(le_bytes(c)) as f64))
        }
        (true, 1) => {
            let ints: Vec<i8> = elems.iter().map(|&b| b as i8).collect();
            half::dequantize_sites8(&ints, &norms, HALF_SPINOR_REALS, out);
        }
        (true, _) => {
            let ints: Vec<i16> =
                elems.chunks_exact(2).map(|c| i16::from_le_bytes(le_bytes(c))).collect();
            half::dequantize_sites16(&ints, &norms, HALF_SPINOR_REALS, out);
        }
    }
    Ok(())
}

/// Bytes on the wire for one face at precision `P` (used by traffic
/// accounting and tested against the actual payloads).
pub fn face_wire_bytes<P: Precision>(face_sites: usize) -> usize {
    face_wire_bytes_dyn(P::STORAGE_BYTES, P::NEEDS_NORM, face_sites, 1)
}

/// Runtime-parameterized face sizing — the single definition of the wire
/// format's byte count, shared by the generic exchange path above and the
/// performance model (which works from `PrecisionTag`s, not generics).
///
/// `n_rhs` is the number of right-hand sides riding in one fused message
/// (the exchange concatenates the RHS blocks face-by-face, so the payload
/// scales linearly).
pub fn face_wire_bytes_dyn(
    storage_bytes: usize,
    needs_norm: bool,
    face_sites: usize,
    n_rhs: usize,
) -> usize {
    let data = face_sites * n_rhs * HALF_SPINOR_REALS * storage_bytes;
    let norms = if needs_norm { face_sites * n_rhs * 4 } else { 0 };
    data + norms
}

/// Gather the `dim` boundary faces of every *active* right-hand side into
/// one fused message per direction and start the sends (Fig. 3's
/// device-to-host gather + non-blocking message passing) on that
/// dimension's periodic rank ring. `parity` is the checkerboard parity of
/// `fields` (the X/Y/Z face enumerations are parity-dependent). A single
/// field is the one-element slice with `active = &[true]`.
///
/// Each projected half spinor is encoded straight into the payload of the
/// [`Frame`] that is sent, the RHS blocks one after another. Because every
/// wire codec works in independent per-site blocks (plain reals for the
/// float precisions, per-site quantization groups for half/quarter), the
/// fused message is byte-identical to concatenating the per-RHS encodings —
/// each RHS's ghost values are bit-identical to what an exchange of that
/// field alone would deliver, while the message *count* stays that of one
/// RHS (the batching win: per-message latency and tag traffic amortize
/// across the block).
#[allow(clippy::too_many_arguments)]
pub fn send_faces<P: Precision>(
    comm: &mut Communicator,
    fields: &[SpinorFieldCb<P>],
    active: &[bool],
    basis: &quda_math::gamma::SpinBasis,
    stencil: &Stencil,
    plan: &DecompPlan,
    dim: usize,
    parity: Parity,
    dagger: bool,
) -> Result<(), CommError> {
    assert_eq!(fields.len(), active.len());
    let n_active = active.iter().filter(|&&a| a).count();
    assert!(n_active > 0, "face send needs at least one active RHS");
    let faces = fields[0].face_sites(dim);
    let sites = n_active * faces;
    let rank = comm.rank();
    let tracer = comm.tracer().clone();
    let gather_block = |to_forward: bool| -> Frame {
        let mut gather = tracer.span(Phase::Gather);
        let mut frame = Frame::zeroed(face_wire_bytes::<P>(sites));
        for (k, (field, _)) in fields.iter().zip(active).filter(|(_, &a)| a).enumerate() {
            assert!(field.has_ghost(dim), "field has no ghost zone for dim {dim}");
            for f in 0..faces {
                let h = gather_face_site(field, basis, stencil, dim, to_forward, f, parity, dagger);
                let mut site = [0.0; HALF_SPINOR_REALS];
                for (x, r) in site.iter_mut().zip(h.to_reals()) {
                    *x = r.to_f64();
                }
                encode_site::<P>(&site, &mut frame, sites, k * faces + f);
            }
        }
        gather.set_bytes(frame.len() as u64);
        frame
    };
    // Last dim-slices → forward neighbor on this dimension's ring.
    let fwd_wire = gather_block(true);
    comm.send(plan.neighbor(rank, dim, true), tags::face(dim, true), fwd_wire)?;
    // First dim-slices → backward neighbor.
    let bwd_wire = gather_block(false);
    comm.send(plan.neighbor(rank, dim, false), tags::face(dim, false), bwd_wire)
}

/// Receive both fused faces of dimension `dim` and copy each active RHS's
/// segment into that field's ghost zone (the receiving half of
/// [`send_faces`]). The wire wait is attributed to the per-dimension phase
/// ([`Phase::wire_dim`]), so a multi-dimensional trace shows each
/// direction's exposed communication separately.
///
/// The wire carries the ghost store's own layout — elements at the storage
/// precision, then one `f32` norm per site in half and quarter — so the
/// scatter is a copy of each RHS's element run and norm run: no decode and
/// no second quantization. A payload whose length is not that of
/// `n_active × faces` sites is a [`DecodeError::Truncated`], reported
/// before any ghost is written.
pub fn recv_faces<P: Precision>(
    comm: &mut Communicator,
    fields: &mut [SpinorFieldCb<P>],
    active: &[bool],
    plan: &DecompPlan,
    dim: usize,
) -> Result<(), CommError> {
    assert_eq!(fields.len(), active.len());
    let n_active = active.iter().filter(|&&a| a).count();
    assert!(n_active > 0, "face receive needs at least one active RHS");
    let rank = comm.rank();
    let tag_fwd = tags::face(dim, true);
    let tag_bwd = tags::face(dim, false);
    let tracer = comm.tracer().clone();
    // From the backward neighbor: its last slices = our backward ghosts.
    let from = plan.neighbor(rank, dim, false);
    let frame = {
        let mut wire = tracer.span(Phase::wire_dim(dim));
        let frame = comm.recv(from, tag_fwd)?;
        wire.set_bytes(frame.len() as u64);
        frame
    };
    {
        let _scatter = tracer.span(Phase::Scatter);
        store_faces(fields, active, dim, true, &frame).map_err(|error| CommError::Decode {
            from,
            tag: tag_fwd,
            error,
        })?;
    }
    // From the forward neighbor: its first slices = our forward ghosts.
    let from = plan.neighbor(rank, dim, true);
    let frame = {
        let mut wire = tracer.span(Phase::wire_dim(dim));
        let frame = comm.recv(from, tag_bwd)?;
        wire.set_bytes(frame.len() as u64);
        frame
    };
    let _scatter = tracer.span(Phase::Scatter);
    store_faces(fields, active, dim, false, &frame).map_err(|error| CommError::Decode {
        from,
        tag: tag_bwd,
        error,
    })
}

/// Copy each active RHS's block of a received face `payload` into the
/// `backward` (else forward) half of that field's `dim` ghost zone: its
/// elements into `ghost` and, in half and quarter, its norms into
/// `ghost_norm`. A payload that is not exactly the active RHS's faces is
/// rejected before anything is written.
fn store_faces<P: Precision>(
    fields: &mut [SpinorFieldCb<P>],
    active: &[bool],
    dim: usize,
    backward: bool,
    payload: &[u8],
) -> Result<(), DecodeError> {
    let n_active = active.iter().filter(|&&a| a).count();
    let faces = fields[0].face_sites(dim);
    let expected = face_wire_bytes::<P>(n_active * faces);
    if payload.len() != expected {
        return Err(DecodeError::Truncated { expected, got: payload.len() });
    }
    let run = faces * HALF_SPINOR_REALS * P::STORAGE_BYTES;
    let (elems, norms) = payload.split_at(n_active * run);
    let (lo, hi) = if backward { (0, faces) } else { (faces, 2 * faces) };
    let lanes = fields.iter_mut().zip(active).filter(|(_, &a)| a).map(|(field, _)| field);
    for (k, field) in lanes.enumerate() {
        assert!(field.has_ghost(dim), "field has no ghost zone for dim {dim}");
        let ghost = &mut field.ghost[dim][lo * HALF_SPINOR_REALS..hi * HALF_SPINOR_REALS];
        let wire = elems[k * run..(k + 1) * run].chunks_exact(P::STORAGE_BYTES);
        for (e, w) in ghost.iter_mut().zip(wire.filter_map(P::elem_from_le_bytes)) {
            *e = w;
        }
        if P::NEEDS_NORM {
            let wire = norms[4 * k * faces..4 * (k + 1) * faces].chunks_exact(4);
            for (n, w) in field.ghost_norm[dim][lo..hi].iter_mut().zip(wire) {
                *n = f32::from_le_bytes(le_bytes(w));
            }
        }
    }
    Ok(())
}

/// Blocking exchange over every partitioned dimension of `plan`, in
/// ascending dimension order: all sends first, then all receives (the
/// no-overlap strategy's communication phase, Section VI-D1) — one message
/// per `(dimension, direction)` regardless of the batch size.
#[allow(clippy::too_many_arguments)]
pub fn exchange_spinor_ghosts<P: Precision>(
    comm: &mut Communicator,
    fields: &mut [SpinorFieldCb<P>],
    active: &[bool],
    basis: &quda_math::gamma::SpinBasis,
    stencil: &Stencil,
    plan: &DecompPlan,
    parity: Parity,
    dagger: bool,
) -> Result<(), CommError> {
    for dim in plan.active_dims() {
        send_faces(comm, fields, active, basis, stencil, plan, dim, parity, dagger)?;
    }
    for dim in plan.active_dims() {
        recv_faces(comm, fields, active, plan, dim)?;
    }
    Ok(())
}

/// One-time exchange of the gauge ghost slices at program initialization
/// (Section VI-B: "since the link matrices are constant throughout the
/// execution of the linear solver, we transfer the adjoining link matrices
/// in the program initialization"), for every partitioned dimension of
/// `plan`: per open dimension and parity, each rank sends the `U_dim` links
/// of its *last* dim-slice forward on that dimension's ring; the receiver
/// stores them in the per-dimension ghost-link store consumed by the
/// backward hop of the dslash.
pub fn exchange_gauge_ghosts<P: Precision>(
    comm: &mut Communicator,
    gauge: &mut GaugeFieldCb<P>,
    plan: &DecompPlan,
) -> Result<(), CommError> {
    let dims = plan.local_dims();
    let rank = comm.rank();
    let max_faces =
        plan.active_dims().map(|d| Stencil::face_sites_dim(&dims, d)).max().unwrap_or(0);
    let mut flat = Vec::with_capacity(max_faces * 18);
    for dim in plan.active_dims() {
        let faces = Stencil::face_sites_dim(&dims, dim);
        let to = plan.neighbor(rank, dim, true);
        let from = plan.neighbor(rank, dim, false);
        for parity in [Parity::Even, Parity::Odd] {
            let tag = tags::gauge_dim(dim, parity.as_usize());
            flat.clear();
            for face in 0..faces {
                let c = Stencil::face_coord(&dims, dim, parity, dims.extent(dim) - 1, face);
                let u: Su3<f64> = gauge.link(parity, dim, dims.cb_index(c)).cast();
                for i in 0..3 {
                    for j in 0..3 {
                        flat.push(u.m[i][j].re);
                        flat.push(u.m[i][j].im);
                    }
                }
            }
            comm.send(to, tag, quda_comm::pack_f64(&flat))?;
            let recv = quda_comm::unpack_f64(&comm.recv(from, tag)?)
                .map_err(|error| CommError::Decode { from, tag, error })?;
            if recv.len() != faces * 18 {
                return Err(CommError::SizeMismatch { expected: faces * 18, got: recv.len() });
            }
            for face in 0..faces {
                let mut u = Su3::zero();
                let base = face * 18;
                let mut k = 0;
                for i in 0..3 {
                    for j in 0..3 {
                        u.m[i][j] =
                            quda_math::complex::C64::new(recv[base + k], recv[base + k + 1]);
                        k += 2;
                    }
                }
                gauge.set_ghost_link(parity, dim, face, &u);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use quda_fields::gauge_gen::random_spinor_field;
    use quda_fields::precision::{Double, Half, Quarter, Single};
    use quda_lattice::geometry::{LatticeDims, DIR_T};
    use quda_math::gamma::{GammaBasis, SpinBasis};
    use quda_math::spinor::HalfSpinor;
    use std::slice::{from_mut, from_ref};

    fn dims() -> LatticeDims {
        LatticeDims::new(4, 4, 2, 4)
    }

    /// A single-rank plan: sends on any dimension loop back to the sender,
    /// so an explicit `dim` exchange reproduces the periodic wrap.
    fn self_plan() -> DecompPlan {
        DecompPlan::new(dims(), [1, 1, 1, 1])
    }

    /// One field, always active — the single-RHS parameter value.
    const ONE: &[bool] = &[true];

    #[test]
    fn wire_bytes_match_payloads() {
        let d = dims();
        let basis = SpinBasis::new(GammaBasis::NonRelativistic);
        let stencil = Stencil::new(d, true);
        let plan = self_plan();
        let host = random_spinor_field(d, 3);
        macro_rules! check {
            ($p:ty) => {{
                let mut world = quda_comm::comm_world(1);
                let mut comm = world.pop().unwrap();
                let mut f = SpinorFieldCb::<$p>::new(d, true);
                f.upload(&host, Parity::Odd);
                let (odd, t) = (Parity::Odd, DIR_T);
                send_faces(&mut comm, from_ref(&f), ONE, &basis, &stencil, &plan, t, odd, false)
                    .unwrap();
                let per_face = face_wire_bytes::<$p>(f.face_sites(DIR_T)) as u64;
                assert_eq!(comm.sent_bytes(), 2 * per_face);
                // self-exchange drains the queue
                recv_faces(&mut comm, from_mut(&mut f), ONE, &plan, t).unwrap();
            }};
        }
        check!(Double);
        check!(Single);
        check!(Half);
    }

    /// Loop the T faces of `f` back into its own ghost zone.
    fn self_exchange_t<P: Precision>(f: &mut SpinorFieldCb<P>, basis: &SpinBasis, st: &Stencil) {
        let mut world = quda_comm::comm_world(1);
        let mut comm = world.pop().unwrap();
        let plan = self_plan();
        send_faces(&mut comm, from_ref(f), ONE, basis, st, &plan, DIR_T, Parity::Odd, false)
            .unwrap();
        recv_faces(&mut comm, from_mut(f), ONE, &plan, DIR_T).unwrap();
    }

    /// The projected T-face half spinor a neighbor would receive.
    fn t_face<P: Precision>(
        f: &SpinorFieldCb<P>,
        basis: &SpinBasis,
        stencil: &Stencil,
        to_forward: bool,
        face: usize,
    ) -> HalfSpinor<P::Arith> {
        gather_face_site(f, basis, stencil, DIR_T, to_forward, face, Parity::Odd, false)
    }

    #[test]
    fn self_exchange_matches_periodic_wrap() {
        // On a 1-rank world the exchange must reproduce periodic boundary
        // data: backward ghost = own last slice, forward ghost = own first
        // slice (projected components).
        let d = dims();
        let basis = SpinBasis::new(GammaBasis::NonRelativistic);
        let stencil = Stencil::new(d, true);
        let host = random_spinor_field(d, 9);
        let mut f = SpinorFieldCb::<Double>::new(d, true);
        f.upload(&host, Parity::Odd);
        self_exchange_t(&mut f, &basis, &stencil);
        let faces = f.face_sites(DIR_T);
        for face in 0..faces {
            let expect_b = t_face(&f, &basis, &stencil, true, face);
            assert_eq!(f.get_ghost(DIR_T, true, face), expect_b, "backward ghost face {face}");
            let expect_f = t_face(&f, &basis, &stencil, false, face);
            assert_eq!(f.get_ghost(DIR_T, false, face), expect_f, "forward ghost face {face}");
        }
    }

    #[test]
    fn two_rank_exchange_crosses_domains() {
        let plan = DecompPlan::new(LatticeDims::new(4, 4, 2, 8), [1, 1, 1, 2]);
        let d = plan.local_dims();
        let basis = SpinBasis::new(GammaBasis::NonRelativistic);
        let stencil = Stencil::new(d, true);
        let world = quda_comm::comm_world(2);
        let hosts = [random_spinor_field(d, 1), random_spinor_field(d, 2)];
        let handles: Vec<_> = world
            .into_iter()
            .zip(hosts.clone())
            .map(|(mut comm, host)| {
                let basis = basis.clone();
                let stencil = stencil.clone();
                std::thread::spawn(move || {
                    let mut f = SpinorFieldCb::<Double>::new(d, true);
                    f.upload(&host, Parity::Odd);
                    exchange_spinor_ghosts(
                        &mut comm,
                        from_mut(&mut f),
                        ONE,
                        &basis,
                        &stencil,
                        &plan,
                        Parity::Odd,
                        false,
                    )
                    .unwrap();
                    (comm.rank(), f)
                })
            })
            .collect();
        let mut results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        results.sort_by_key(|(r, _)| *r);
        // Rank 0's forward ghost must equal rank 1's first-slice gather.
        let mut f1 = SpinorFieldCb::<Double>::new(d, true);
        f1.upload(&hosts[1], Parity::Odd);
        let faces = f1.face_sites(DIR_T);
        for face in 0..faces {
            let expect = t_face(&f1, &basis, &stencil, false, face);
            assert_eq!(results[0].1.get_ghost(DIR_T, false, face), expect);
        }
        // Rank 1's backward ghost = rank 0's last-slice gather.
        let mut f0 = SpinorFieldCb::<Double>::new(d, true);
        f0.upload(&hosts[0], Parity::Odd);
        for face in 0..faces {
            let expect = t_face(&f0, &basis, &stencil, true, face);
            assert_eq!(results[1].1.get_ghost(DIR_T, true, face), expect);
        }
    }

    #[test]
    fn half_precision_exchange_bounded_error() {
        let d = dims();
        let basis = SpinBasis::new(GammaBasis::NonRelativistic);
        let stencil = Stencil::new(d, true);
        let host = random_spinor_field(d, 4);
        let mut f = SpinorFieldCb::<Half>::new(d, true);
        f.upload(&host, Parity::Odd);
        self_exchange_t(&mut f, &basis, &stencil);
        for face in 0..f.face_sites(DIR_T) {
            let expect = t_face(&f, &basis, &stencil, true, face);
            let got = f.get_ghost(DIR_T, true, face);
            for i in 0..2 {
                for c in 0..3 {
                    let err = (got.h[i].c[c].re - expect.h[i].c[c].re).abs();
                    assert!(err < 2e-4, "face {face} err {err}");
                }
            }
        }
    }

    #[test]
    fn fused_multi_rhs_exchange_bit_identical_to_sequential() {
        // The fused batched exchange must leave every active RHS's ghost
        // zone bit-identical to what an exchange of that field alone
        // delivers, at every wire precision, while sending one message per
        // direction.
        fn check<P: Precision>() {
            let d = dims();
            let open = [false, false, false, true];
            let basis = SpinBasis::new(GammaBasis::NonRelativistic);
            let stencil = Stencil::new(d, true);
            let plan = self_plan();
            let n = 4;
            let mut fused: Vec<SpinorFieldCb<P>> = (0..n)
                .map(|r| {
                    let mut f = SpinorFieldCb::<P>::new_open(d, open);
                    f.upload(&random_spinor_field(d, 60 + r as u64), Parity::Odd);
                    f
                })
                .collect();
            let mut active = vec![true; n];
            active[1] = false;
            let mut world = quda_comm::comm_world(1);
            let mut comm = world.pop().unwrap();
            let before = comm.sent_messages();
            send_faces(&mut comm, &fused, &active, &basis, &stencil, &plan, 3, Parity::Odd, false)
                .unwrap();
            recv_faces(&mut comm, &mut fused, &active, &plan, 3).unwrap();
            assert_eq!(comm.sent_messages() - before, 2, "one fused message per direction");
            for r in 0..n {
                if !active[r] {
                    continue;
                }
                let mut single = SpinorFieldCb::<P>::new_open(d, open);
                single.upload(&random_spinor_field(d, 60 + r as u64), Parity::Odd);
                self_exchange_t(&mut single, &basis, &stencil);
                for face in 0..single.face_sites(3) {
                    for backward in [true, false] {
                        assert_eq!(
                            fused[r].get_ghost(3, backward, face),
                            single.get_ghost(3, backward, face),
                            "rhs={r} backward={backward} face={face}"
                        );
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
    fn fused_wire_bytes_match_rhs_scaled_sizing() {
        // The fused payload must match `face_wire_bytes_dyn(.., n_rhs)` —
        // the single source of truth the ghost-sizing lint enforces.
        let d = dims();
        let open = [false, false, false, true];
        let basis = SpinBasis::new(GammaBasis::NonRelativistic);
        let stencil = Stencil::new(d, true);
        let plan = self_plan();
        let n = 3;
        let mut fields: Vec<SpinorFieldCb<Half>> = (0..n)
            .map(|r| {
                let mut f = SpinorFieldCb::<Half>::new_open(d, open);
                f.upload(&random_spinor_field(d, 80 + r as u64), Parity::Odd);
                f
            })
            .collect();
        let active = vec![true; n];
        let mut world = quda_comm::comm_world(1);
        let mut comm = world.pop().unwrap();
        let before = comm.sent_bytes();
        send_faces(&mut comm, &fields, &active, &basis, &stencil, &plan, 3, Parity::Odd, false)
            .unwrap();
        let faces = fields[0].face_sites(3);
        let expect = face_wire_bytes_dyn(Half::STORAGE_BYTES, Half::NEEDS_NORM, faces, n) as u64;
        assert_eq!(comm.sent_bytes() - before, 2 * expect);
        recv_faces(&mut comm, &mut fields, &active, &plan, 3).unwrap();
    }

    /// The dimensions an exchange test covers on `plan`: the cut ones, or
    /// all four on a one-rank plan, whose faces loop back (the periodic
    /// wrap).
    fn exchanged(plan: &DecompPlan) -> [bool; 4] {
        if plan.is_partitioned() {
            plan.open_dims()
        } else {
            [true; 4]
        }
    }

    /// Lane `k` of `rank`'s fields on a `plan` world, uploaded from a seed
    /// unique to the pair.
    fn lane<P: Precision>(plan: &DecompPlan, rank: usize, k: usize) -> SpinorFieldCb<P> {
        let d = plan.local_dims();
        let mut f = SpinorFieldCb::<P>::new_open(d, exchanged(plan));
        f.upload(&random_spinor_field(d, 100 + 10 * rank as u64 + k as u64), Parity::Odd);
        f
    }

    /// The raw little-endian bytes of stored elements.
    fn elem_bytes<P: Precision>(elems: &[P::Elem]) -> Vec<u8> {
        let mut out = Vec::new();
        for &e in elems {
            P::elem_to_le_bytes(e, &mut out);
        }
        out
    }

    /// Assert that `got`'s ghost zones (every dimension) are bit-identical
    /// to `want`'s.
    fn assert_same_ghosts<P: Precision>(
        got: &SpinorFieldCb<P>,
        want: &SpinorFieldCb<P>,
        what: &str,
    ) {
        for dim in 0..4 {
            let (g, w) = (elem_bytes::<P>(&got.ghost[dim]), elem_bytes::<P>(&want.ghost[dim]));
            assert!(g == w, "{what}: ghost of dim {dim} differs");
            let bits = |f: &SpinorFieldCb<P>| -> Vec<u32> {
                f.ghost_norm[dim].iter().map(|n| n.to_bits()).collect()
            };
            assert!(bits(got) == bits(want), "{what}: ghost norms of dim {dim} differ");
        }
    }

    /// The ghosts `rank`'s lane `k` must hold after an exchange over every
    /// open dimension of `plan`: each neighbor's gathered face, encoded,
    /// decoded by `decode_face_into` and stored through `set_ghost` — the
    /// dequantise-and-requantise path the exchange's wire copy replaced.
    fn oracle_ghosts<P: Precision>(plan: &DecompPlan, rank: usize, k: usize) -> SpinorFieldCb<P> {
        let d = plan.local_dims();
        let open = exchanged(plan);
        let (basis, stencil) =
            (SpinBasis::new(GammaBasis::NonRelativistic), Stencil::with_open(d, open));
        let mut want = SpinorFieldCb::<P>::new_open(d, open);
        let mut decoded = Vec::new();
        for dim in (0..4).filter(|&dim| open[dim]) {
            // Backward ghost: the backward neighbor's forward-sent face.
            for backward in [true, false] {
                let src = lane::<P>(plan, plan.neighbor(rank, dim, !backward), k);
                let faces = src.face_sites(dim);
                let mut vals = Vec::new();
                for f in 0..faces {
                    let h = gather_face_site(
                        &src,
                        &basis,
                        &stencil,
                        dim,
                        backward,
                        f,
                        Parity::Odd,
                        false,
                    );
                    vals.extend(h.to_reals().iter().map(|r| r.to_f64()));
                }
                decode_face_into::<P>(&encode_face::<P>(&vals), faces, &mut decoded).unwrap();
                for (f, site) in decoded.chunks_exact(HALF_SPINOR_REALS).enumerate() {
                    let mut reals = [P::Arith::ZERO; HALF_SPINOR_REALS];
                    for (r, &x) in reals.iter_mut().zip(site) {
                        *r = P::Arith::from_f64(x);
                    }
                    want.set_ghost(dim, backward, f, &HalfSpinor::from_reals(&reals));
                }
            }
        }
        want
    }

    /// One blocking exchange on every rank of `plan`, then every lane
    /// against the oracle; a masked lane keeps the ghosts it started with.
    fn check_exchange_against_oracle<P: Precision>(plan: DecompPlan, active: &'static [bool]) {
        let d = plan.local_dims();
        let handles: Vec<_> = quda_comm::comm_world(plan.n_ranks())
            .into_iter()
            .map(|mut comm| {
                std::thread::spawn(move || {
                    let rank = comm.rank();
                    let (basis, stencil) = (
                        SpinBasis::new(GammaBasis::NonRelativistic),
                        Stencil::with_open(d, exchanged(&plan)),
                    );
                    let mut fields: Vec<_> =
                        (0..active.len()).map(|k| lane::<P>(&plan, rank, k)).collect();
                    if plan.is_partitioned() {
                        exchange_spinor_ghosts(
                            &mut comm,
                            &mut fields,
                            active,
                            &basis,
                            &stencil,
                            &plan,
                            Parity::Odd,
                            false,
                        )
                        .unwrap();
                    } else {
                        // No dimension is cut, so run the exchange's
                        // per-dimension body on all four.
                        for dim in 0..4 {
                            send_faces(
                                &mut comm,
                                &fields,
                                active,
                                &basis,
                                &stencil,
                                &plan,
                                dim,
                                Parity::Odd,
                                false,
                            )
                            .unwrap();
                        }
                        for dim in 0..4 {
                            recv_faces(&mut comm, &mut fields, active, &plan, dim).unwrap();
                        }
                    }
                    (rank, fields)
                })
            })
            .collect();
        for h in handles {
            let (rank, fields) = h.join().unwrap();
            for (k, field) in fields.iter().enumerate() {
                let what = format!("{} rank {rank} lane {k} of {active:?}", P::NAME);
                if active[k] {
                    assert_same_ghosts(field, &oracle_ghosts::<P>(&plan, rank, k), &what);
                } else {
                    assert_same_ghosts(field, &lane::<P>(&plan, rank, k), &what);
                }
            }
        }
    }

    #[test]
    fn exchange_is_bit_identical_to_decode_and_set_ghost() {
        fn check<P: Precision>() {
            let one_rank = DecompPlan::new(LatticeDims::new(4, 4, 2, 4), [1, 1, 1, 1]);
            let grid = DecompPlan::new(LatticeDims::new(8, 4, 2, 8), [2, 1, 1, 2]);
            for plan in [one_rank, grid] {
                check_exchange_against_oracle::<P>(plan, &[true]);
                check_exchange_against_oracle::<P>(plan, &[true, false, true]);
            }
        }
        check::<Double>();
        check::<Single>();
        check::<Half>();
        check::<Quarter>();
    }

    #[test]
    fn hostile_face_lengths_are_typed_errors_that_write_no_ghost() {
        fn check<P: Precision>() {
            let plan = self_plan();
            let active = [true, false, true];
            let fields: Vec<_> = (0..3).map(|k| lane::<P>(&plan, 0, k)).collect();
            let good = face_wire_bytes::<P>(2 * fields[0].face_sites(DIR_T));
            // Short and long by one byte, empty, and one lane's worth.
            for len in [good - 1, good + 1, 0, good / 2] {
                // Hostile first (backward-ghost) face, then a hostile second
                // face after a well-formed first.
                for (first, second) in [(len, good), (good, len)] {
                    let mut world = quda_comm::comm_world(1);
                    let mut comm = world.pop().unwrap();
                    comm.send(0, tags::face(DIR_T, true), Frame::zeroed(first)).unwrap();
                    comm.send(0, tags::face(DIR_T, false), Frame::zeroed(second)).unwrap();
                    let mut got = fields.clone();
                    let err = recv_faces(&mut comm, &mut got, &active, &plan, DIR_T).unwrap_err();
                    let (bad_tag, written) = if first == len {
                        (tags::face(DIR_T, true), 0)
                    } else {
                        (tags::face(DIR_T, false), fields[0].face_sites(DIR_T))
                    };
                    assert_eq!(
                        err,
                        CommError::Decode {
                            from: 0,
                            tag: bad_tag,
                            error: DecodeError::Truncated { expected: good, got: len },
                        }
                    );
                    // The hostile face wrote nothing; a well-formed first
                    // face fills the backward ghosts (here with zeros).
                    for (g, f) in got.iter().zip(&fields) {
                        let zone = written * HALF_SPINOR_REALS..;
                        let (ge, fe) = (
                            elem_bytes::<P>(&g.ghost[DIR_T][zone.clone()]),
                            elem_bytes::<P>(&f.ghost[DIR_T][zone]),
                        );
                        assert!(ge == fe, "{} hostile length {len} wrote a ghost", P::NAME);
                        let (gn, fnorm) = (&g.ghost_norm[DIR_T], &f.ghost_norm[DIR_T]);
                        assert_eq!(gn.get(written..), fnorm.get(written..), "{len}");
                    }
                }
            }
        }
        check::<Double>();
        check::<Single>();
        check::<Half>();
        check::<Quarter>();
    }

    /// Run the gauge ghost exchange on a two-rank `plan` whose ranks hold
    /// *identical* local configs (a translation-invariant world), so every
    /// received ghost link must equal the rank's own last-slice link.
    fn gauge_exchange_on_identical_ranks<P: Precision>(plan: DecompPlan) -> Vec<GaugeFieldCb<P>> {
        let d = plan.local_dims();
        let cfg = quda_fields::gauge_gen::weak_field(d, 0.2, 8);
        let handles: Vec<_> = quda_comm::comm_world(2)
            .into_iter()
            .map(|mut comm| {
                let cfg = cfg.clone();
                std::thread::spawn(move || {
                    let mut gauge = GaugeFieldCb::<P>::new(d, true);
                    gauge.upload(&cfg);
                    exchange_gauge_ghosts(&mut comm, &mut gauge, &plan).unwrap();
                    gauge
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }

    #[test]
    fn gauge_ghost_self_exchange_is_periodic() {
        let plan = DecompPlan::new(LatticeDims::new(4, 4, 2, 8), [1, 1, 1, 2]);
        let d = plan.local_dims();
        let half_vs = d.half_spatial_volume();
        for gauge in gauge_exchange_on_identical_ranks::<Single>(plan) {
            for p in [Parity::Even, Parity::Odd] {
                for face in 0..half_vs {
                    let cb_last = (d.t - 1) * half_vs + face;
                    let expect: Su3<f64> = gauge.link(p, DIR_T, cb_last).cast();
                    let got: Su3<f64> = gauge.ghost_link(p, DIR_T, face).cast();
                    assert!((got - expect).norm_sqr() < 1e-10);
                }
            }
        }
    }

    #[test]
    fn grid_x_self_exchange_matches_projected_wrap() {
        // Single-rank X exchange loops the messages back: the backward
        // ghost must equal the projection of the own last X-slice, the
        // forward ghost that of the first X-slice.
        let d = dims();
        let open = [true, false, false, false];
        let basis = SpinBasis::new(GammaBasis::NonRelativistic);
        let stencil = Stencil::with_open(d, open);
        let plan = DecompPlan::new(d, [1, 1, 1, 1]);
        let host = random_spinor_field(d, 21);
        let mut world = quda_comm::comm_world(1);
        let mut comm = world.pop().unwrap();
        let mut f = SpinorFieldCb::<Double>::new_open(d, open);
        f.upload(&host, Parity::Odd);
        for dagger in [false, true] {
            send_faces(
                &mut comm,
                from_ref(&f),
                ONE,
                &basis,
                &stencil,
                &plan,
                0,
                Parity::Odd,
                dagger,
            )
            .unwrap();
            recv_faces(&mut comm, from_mut(&mut f), ONE, &plan, 0).unwrap();
            for face in 0..f.face_sites(0) {
                let eb = gather_face_site(&f, &basis, &stencil, 0, true, face, Parity::Odd, dagger);
                assert_eq!(f.get_ghost(0, true, face), eb, "bwd ghost face {face}");
                let ef =
                    gather_face_site(&f, &basis, &stencil, 0, false, face, Parity::Odd, dagger);
                assert_eq!(f.get_ghost(0, false, face), ef, "fwd ghost face {face}");
            }
        }
    }

    #[test]
    fn grid_two_rank_x_exchange_crosses_domains() {
        let gd = LatticeDims::new(8, 4, 2, 4);
        let plan = DecompPlan::new(gd, [2, 1, 1, 1]);
        let d = plan.local_dims();
        let basis = SpinBasis::new(GammaBasis::NonRelativistic);
        let stencil = Stencil::with_open(d, plan.open_dims());
        let hosts = [random_spinor_field(d, 31), random_spinor_field(d, 32)];
        let world = quda_comm::comm_world(2);
        let handles: Vec<_> = world
            .into_iter()
            .zip(hosts.clone())
            .map(|(mut comm, host)| {
                let basis = basis.clone();
                let stencil = stencil.clone();
                std::thread::spawn(move || {
                    let mut f = SpinorFieldCb::<Double>::new_open(d, plan.open_dims());
                    f.upload(&host, Parity::Odd);
                    exchange_spinor_ghosts(
                        &mut comm,
                        from_mut(&mut f),
                        ONE,
                        &basis,
                        &stencil,
                        &plan,
                        Parity::Odd,
                        false,
                    )
                    .unwrap();
                    (comm.rank(), f)
                })
            })
            .collect();
        let mut results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        results.sort_by_key(|(r, _)| *r);
        // Rank 0's forward X ghost must equal rank 1's first-slice
        // projection (already projected on the sender for X).
        let mut f1 = SpinorFieldCb::<Double>::new_open(d, plan.open_dims());
        f1.upload(&hosts[1], Parity::Odd);
        for face in 0..f1.face_sites(0) {
            let expect =
                gather_face_site(&f1, &basis, &stencil, 0, false, face, Parity::Odd, false);
            assert_eq!(results[0].1.get_ghost(0, false, face), expect);
        }
        // Rank 1's backward X ghost = rank 0's last-slice projection.
        let mut f0 = SpinorFieldCb::<Double>::new_open(d, plan.open_dims());
        f0.upload(&hosts[0], Parity::Odd);
        for face in 0..f0.face_sites(0) {
            let expect = gather_face_site(&f0, &basis, &stencil, 0, true, face, Parity::Odd, false);
            assert_eq!(results[1].1.get_ghost(0, true, face), expect);
        }
    }

    #[test]
    fn grid_gauge_exchange_two_rank_z() {
        let plan = DecompPlan::new(LatticeDims::new(4, 4, 4, 4), [1, 1, 2, 1]);
        let d = plan.local_dims();
        let faces = Stencil::face_sites_dim(&d, 2);
        for gauge in gauge_exchange_on_identical_ranks::<Double>(plan) {
            for p in [Parity::Even, Parity::Odd] {
                for face in 0..faces {
                    let c = Stencil::face_coord(&d, 2, p, d.z - 1, face);
                    let expect: Su3<f64> = gauge.link(p, 2, d.cb_index(c)).cast();
                    let got: Su3<f64> = gauge.ghost_link(p, 2, face).cast();
                    assert!((got - expect).norm_sqr() < 1e-20, "parity {p:?} face {face}");
                }
            }
        }
    }
}
