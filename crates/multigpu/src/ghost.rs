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
//!    components scaled by 2 — footnote 3),
//! 2. sends the last-slice face *forward* on that dimension's ring (it
//!    becomes the receiver's backward ghost) and the first-slice face
//!    *backward*,
//! 3. stores received faces in the spinor field's ghost zone for that
//!    dimension, read back as stored by the Dslash.
//!
//! The send and receive halves are separate functions so the overlapped
//! strategy can compute the interior volume between them and progress each
//! direction independently (Section VI-D2).
//!
//! Wire format matches the storage precision: f64 or f32 payloads for the
//! float precisions; half precision sends the quantized `i16` components
//! followed by one `f32` normalization per face site — "for half precision
//! the extra normalization constant for each (12 component) spinor is also
//! required" (Section VI-C). The format is identical for every dimension;
//! only face areas and tags differ.
//!
//! There is one exchange: a slice of right-hand sides with an `active`
//! mask, addressed by a plan and a dimension. The paper's single-field
//! temporal exchange is the one-element slice on a `1×1×1×N` plan.

use bytes::Bytes;
use quda_comm::{tags, CommError, Communicator, DecodeError};
use quda_dirac::gather_face_site;
use quda_fields::precision::Precision;
use quda_fields::{GaugeFieldCb, SpinorFieldCb};
use quda_lattice::geometry::Parity;
use quda_lattice::partition::DecompPlan;
use quda_lattice::stencil::Stencil;
use quda_math::half;
use quda_math::real::Real;
use quda_math::spinor::{HalfSpinor, HALF_SPINOR_REALS};
use quda_math::su3::Su3;
use quda_obs::Phase;

/// Encode a gathered face (one f64 per real, `faces × 12` entries) at the
/// wire precision of `P`.
pub fn encode_face<P: Precision>(values: &[f64]) -> Bytes {
    match (P::NEEDS_NORM, P::STORAGE_BYTES) {
        (false, 8) => quda_comm::pack_f64(values),
        (false, _) => quda_comm::pack_le(values, |x| (x as f32).to_le_bytes()),
        (true, 1) => {
            // Quarter precision: 8-bit components with a shared per-site
            // f32 norm — the wire matches the storage width, like half.
            let sites = values.len() / HALF_SPINOR_REALS;
            let mut ints = Vec::with_capacity(values.len());
            let mut norms = Vec::with_capacity(sites);
            half::quantize_sites8(values, HALF_SPINOR_REALS, &mut ints, &mut norms);
            let mut buf = Vec::with_capacity(values.len() + sites * 4);
            quda_comm::extend_le(&mut buf, &ints, i8::to_le_bytes);
            quda_comm::extend_le(&mut buf, &norms, f32::to_le_bytes);
            Bytes::from(buf)
        }
        (true, _) => {
            // Half precision: per-site quantization with a shared norm.
            let sites = values.len() / HALF_SPINOR_REALS;
            let mut ints = Vec::with_capacity(values.len());
            let mut norms = Vec::with_capacity(sites);
            half::quantize_sites16(values, HALF_SPINOR_REALS, &mut ints, &mut norms);
            let mut buf = Vec::with_capacity(ints.len() * 2 + norms.len() * 4);
            quda_comm::extend_le(&mut buf, &ints, i16::to_le_bytes);
            quda_comm::extend_le(&mut buf, &norms, f32::to_le_bytes);
            Bytes::from(buf)
        }
    }
}

/// Decode a face payload back to f64 values, refilling `out` in place so
/// a steady-state receive loop reuses the scratch buffer's capacity.
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
    match (P::NEEDS_NORM, P::STORAGE_BYTES) {
        (false, 8) => {
            out.extend(bytes.chunks_exact(8).map(|c| f64::from_le_bytes(quda_comm::le_bytes(c))));
        }
        (false, _) => {
            out.extend(
                bytes.chunks_exact(4).map(|c| f32::from_le_bytes(quda_comm::le_bytes(c)) as f64),
            );
        }
        (true, 1) => {
            let split = sites * HALF_SPINOR_REALS;
            let norms = quda_comm::unpack_f32(&bytes[split..])?;
            let ints: Vec<i8> = bytes[..split].iter().map(|&b| b as i8).collect();
            half::dequantize_sites8(&ints, &norms, HALF_SPINOR_REALS, out);
        }
        (true, _) => {
            let split = sites * HALF_SPINOR_REALS * 2;
            let ints = quda_comm::unpack_i16(&bytes[..split])?;
            let norms = quda_comm::unpack_f32(&bytes[split..])?;
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
/// The RHS blocks are concatenated face-by-face before encoding. Because
/// every wire codec works in independent per-site blocks (plain reals for
/// the float precisions, per-site quantization groups for half/quarter),
/// encoding the concatenation is byte-identical to concatenating the
/// per-RHS encodings — each RHS's decoded ghost values are bit-identical
/// to what an exchange of that field alone would deliver, while the message
/// *count* stays that of one RHS (the batching win: per-message latency and
/// tag traffic amortize across the block).
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
    let rank = comm.rank();
    let tracer = comm.tracer().clone();
    let gather_block = |to_forward: bool| -> Bytes {
        let mut gather = tracer.span(Phase::Gather);
        let mut vals = Vec::with_capacity(n_active * faces * HALF_SPINOR_REALS);
        for (field, _) in fields.iter().zip(active.iter()).filter(|(_, &a)| a) {
            assert!(field.has_ghost(dim), "field has no ghost zone for dim {dim}");
            for f in 0..faces {
                let h = gather_face_site(field, basis, stencil, dim, to_forward, f, parity, dagger);
                for r in h.to_reals() {
                    vals.push(r.to_f64());
                }
            }
        }
        let wire = encode_face::<P>(&vals);
        gather.set_bytes(wire.len() as u64);
        wire
    };
    // Last dim-slices → forward neighbor on this dimension's ring.
    let fwd_wire = gather_block(true);
    comm.send(plan.neighbor(rank, dim, true), tags::face(dim, true), fwd_wire)?;
    // First dim-slices → backward neighbor.
    let bwd_wire = gather_block(false);
    comm.send(plan.neighbor(rank, dim, false), tags::face(dim, false), bwd_wire)
}

/// Receive both fused faces of dimension `dim` and scatter each active
/// RHS's segment into that field's ghost zone (the receiving half of
/// [`send_faces`]). The wire wait is attributed to the per-dimension phase
/// ([`Phase::wire_dim`]), so a multi-dimensional trace shows each
/// direction's exposed communication separately.
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
    let faces = fields[0].face_sites(dim);
    let rank = comm.rank();
    let tag_fwd = tags::face(dim, true);
    let tag_bwd = tags::face(dim, false);
    let tracer = comm.tracer().clone();
    // One fused scratch buffer serves both directions' decodes.
    let mut values = Vec::with_capacity(n_active * faces * HALF_SPINOR_REALS);
    let seg = faces * HALF_SPINOR_REALS;
    // From the backward neighbor: its last slices = our backward ghosts.
    let from = plan.neighbor(rank, dim, false);
    let payload = {
        let mut wire = tracer.span(Phase::wire_dim(dim));
        let payload = comm.recv(from, tag_fwd)?;
        wire.set_bytes(payload.len() as u64);
        payload
    };
    {
        let _scatter = tracer.span(Phase::Scatter);
        decode_face_into::<P>(&payload, n_active * faces, &mut values)
            .map_err(|error| CommError::Decode { from, tag: tag_fwd, error })?;
        for (k, (field, _)) in fields.iter_mut().zip(active.iter()).filter(|(_, &a)| a).enumerate()
        {
            store_ghost(field, dim, true, &values[k * seg..(k + 1) * seg]);
        }
    }
    // From the forward neighbor: its first slices = our forward ghosts.
    let from = plan.neighbor(rank, dim, true);
    let payload = {
        let mut wire = tracer.span(Phase::wire_dim(dim));
        let payload = comm.recv(from, tag_bwd)?;
        wire.set_bytes(payload.len() as u64);
        payload
    };
    {
        let _scatter = tracer.span(Phase::Scatter);
        decode_face_into::<P>(&payload, n_active * faces, &mut values)
            .map_err(|error| CommError::Decode { from, tag: tag_bwd, error })?;
        for (k, (field, _)) in fields.iter_mut().zip(active.iter()).filter(|(_, &a)| a).enumerate()
        {
            store_ghost(field, dim, false, &values[k * seg..(k + 1) * seg]);
        }
    }
    Ok(())
}

fn store_ghost<P: Precision>(
    field: &mut SpinorFieldCb<P>,
    dim: usize,
    backward: bool,
    values: &[f64],
) {
    let faces = field.face_sites(dim);
    assert_eq!(values.len(), faces * HALF_SPINOR_REALS);
    for f in 0..faces {
        let mut reals = [P::Arith::ZERO; HALF_SPINOR_REALS];
        for (k, r) in reals.iter_mut().enumerate() {
            *r = P::Arith::from_f64(values[f * HALF_SPINOR_REALS + k]);
        }
        let h = HalfSpinor::from_reals(&reals);
        field.set_ghost(dim, backward, f, &h);
    }
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
    use quda_fields::precision::{Double, Half, Single};
    use quda_lattice::geometry::{LatticeDims, DIR_T};
    use quda_math::gamma::{GammaBasis, SpinBasis};
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
        check::<quda_fields::precision::Quarter>();
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
