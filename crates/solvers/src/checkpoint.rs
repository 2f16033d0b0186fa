//! Solver checkpoints for elastic resilience (DESIGN.md §12).
//!
//! A [`SolverCheckpoint`] is a consistent snapshot of one rank's share of a
//! Krylov solve — the high-precision iterate, optionally the true residual
//! vector, and the scalar solver counters — taken at a reliable-update
//! boundary (the natural consistent cut: the update decision is made from a
//! *globally reduced* residual norm, so every rank takes the same
//! checkpoints at the same iterations without any extra collectives).
//!
//! The wire format is versioned and checksummed so a checkpoint written by
//! one world incarnation can be validated before a replacement world trusts
//! it: `"QCKP"` magic, format version, precision tag, local lattice
//! geometry, the counter block, the raw *storage bytes* of each field's
//! sites — `sites × 24` reals with no pad and, in half and quarter
//! precision, the site norms (bit-exact — no quantization round trip, so
//! serialize/deserialize is the identity for all four precisions) — and a
//! trailing FNV-1a-64 checksum over everything that precedes it.
//! Corruption anywhere in the buffer surfaces as a typed
//! [`CheckpointError`], never a panic.
//!
//! Ghost zones are not solver state: the next face exchange rewrites them
//! before anything reads them. So a snapshot restores into a field of the
//! same geometry whatever its open dimensions.
//!
//! Solvers do not talk to storage directly: they take one
//! [`CheckpointSink`] per right-hand side, hand each lane's snapshots to its
//! sink and ask it for a resume point at entry. An empty sink slice is the
//! non-elastic path: nothing is captured, so it does literally zero extra
//! work. There is no RNG state to capture — every solver in this crate is
//! deterministic — and comm sequence state is deliberately *not* included:
//! a replacement world rebuilds its links (and their sequence numbers)
//! from scratch.

use quda_fields::precision::{Precision, PrecisionTag};
use quda_fields::SpinorFieldCb;
use quda_lattice::geometry::LatticeDims;
use quda_obs::{Phase, Tracer};
use std::fmt;

/// Leading magic of every serialized checkpoint.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"QCKP";

/// Current checkpoint format version. Version 4 carries the sites alone,
/// one 24-real run per site. Versions 2 and 3 carried the Eq. 5 pad (2 in
/// the blocked order), so they are refused rather than decoded.
pub const CHECKPOINT_VERSION: u16 = 4;

/// Why a checkpoint buffer was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// Buffer ends before a required section.
    Truncated {
        /// Bytes the section needs.
        expected: usize,
        /// Bytes actually remaining.
        got: usize,
    },
    /// Buffer does not start with [`CHECKPOINT_MAGIC`].
    BadMagic,
    /// Format version this build cannot read.
    UnsupportedVersion(u16),
    /// Trailing checksum does not match the body.
    BadChecksum {
        /// Checksum carried in the buffer.
        expected: u64,
        /// Checksum recomputed over the body.
        got: u64,
    },
    /// Precision tag byte is not a known precision.
    BadPrecisionTag(u8),
    /// Bytes remain after the last section.
    TrailingBytes(usize),
    /// Restore target has a different storage precision.
    PrecisionMismatch {
        /// Precision the checkpoint was captured at.
        stored: PrecisionTag,
        /// Precision of the restore target.
        requested: PrecisionTag,
    },
    /// Restore target has different lattice geometry.
    GeometryMismatch,
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Truncated { expected, got } => {
                write!(f, "checkpoint truncated: section needs {expected} bytes, {got} remain")
            }
            CheckpointError::BadMagic => write!(f, "not a checkpoint (bad magic)"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint version {v}")
            }
            CheckpointError::BadChecksum { expected, got } => write!(
                f,
                "checkpoint checksum mismatch: trailer says {expected:#018x}, body hashes to {got:#018x}"
            ),
            CheckpointError::BadPrecisionTag(b) => {
                write!(f, "unknown precision tag byte {b:#04x}")
            }
            CheckpointError::TrailingBytes(n) => {
                write!(f, "{n} unexpected bytes after the last checkpoint section")
            }
            CheckpointError::PrecisionMismatch { stored, requested } => write!(
                f,
                "checkpoint holds {} data but {} was requested",
                stored.name(),
                requested.name()
            ),
            CheckpointError::GeometryMismatch => {
                write!(f, "checkpoint geometry does not match the restore target")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Scalar solver state captured alongside the field payloads.
///
/// `epoch` is the checkpoint sequence number within one solve — identical
/// across ranks because checkpoints are taken at collectively decided
/// reliable-update boundaries, which is what lets a supervisor pick a
/// globally consistent snapshot by epoch alone.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CheckpointCounters {
    /// Checkpoint sequence number (1-based; 1 is the solve-entry snapshot).
    pub epoch: u64,
    /// Krylov iterations completed.
    pub iterations: u64,
    /// High-precision operator applications so far.
    pub matvecs_hi: u64,
    /// Sloppy-precision operator applications so far.
    pub matvecs_lo: u64,
    /// Reliable updates performed so far.
    pub reliable_updates: u64,
    /// Corruption rollbacks performed so far.
    pub recoveries: u64,
    /// Consecutive non-improving reliable updates (stall detector state).
    pub stalls: u32,
    /// True residual norm² at the checkpoint.
    pub r2: f64,
    /// Running maximum of the iterated residual norm since the last update.
    pub maxrr: f64,
    /// True residual norm² at the previous reliable update.
    pub last_update_r2: f64,
}

/// Raw little-endian storage bytes of one field's sites: the site reals
/// and the site norms (empty above half precision).
#[derive(Clone, Debug, PartialEq, Eq)]
struct FieldPayload {
    data: Vec<u8>,
    norm: Vec<u8>,
}

impl FieldPayload {
    fn byte_len(&self) -> usize {
        self.data.len() + self.norm.len()
    }
}

fn encode_field<P: Precision>(f: &SpinorFieldCb<P>) -> FieldPayload {
    let mut data = Vec::with_capacity(f.data.len() * P::STORAGE_BYTES);
    for &e in &f.data {
        P::elem_to_le_bytes(e, &mut data);
    }
    let mut norm = Vec::with_capacity(f.norm.len() * 4);
    for &n in &f.norm {
        norm.extend_from_slice(&n.to_le_bytes());
    }
    FieldPayload { data, norm }
}

fn decode_elems<P: Precision>(bytes: &[u8], out: &mut [P::Elem]) -> Result<(), CheckpointError> {
    if bytes.len() != out.len() * P::STORAGE_BYTES {
        return Err(CheckpointError::GeometryMismatch);
    }
    for (slot, chunk) in out.iter_mut().zip(bytes.chunks_exact(P::STORAGE_BYTES)) {
        *slot = P::elem_from_le_bytes(chunk).ok_or(CheckpointError::GeometryMismatch)?;
    }
    Ok(())
}

fn decode_norms(bytes: &[u8], out: &mut [f32]) -> Result<(), CheckpointError> {
    if bytes.len() != out.len() * 4 {
        return Err(CheckpointError::GeometryMismatch);
    }
    for (slot, chunk) in out.iter_mut().zip(bytes.chunks_exact(4)) {
        *slot =
            f32::from_le_bytes(chunk.try_into().map_err(|_| CheckpointError::GeometryMismatch)?);
    }
    Ok(())
}

fn decode_field<P: Precision>(
    payload: &FieldPayload,
    f: &mut SpinorFieldCb<P>,
) -> Result<(), CheckpointError> {
    decode_elems::<P>(&payload.data, &mut f.data)?;
    decode_norms(&payload.norm, &mut f.norm)
}

/// FNV-1a 64-bit hash — small, dependency-free, and plenty for detecting
/// storage corruption (the comm layer's frame checksum guards the wire; this
/// guards the checkpoint at rest).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One rank's snapshot of a solve: counters plus the high-precision iterate
/// and (for reliable-update solvers) the true residual vector.
#[derive(Clone, Debug, PartialEq)]
pub struct SolverCheckpoint {
    /// Scalar solver state.
    pub counters: CheckpointCounters,
    tag: PrecisionTag,
    dims: [u32; 4],
    x: FieldPayload,
    r: Option<FieldPayload>,
}

impl SolverCheckpoint {
    /// Snapshot `x` (and optionally the true residual `r`) plus `counters`.
    ///
    /// The raw storage bytes of the sites are copied, so the snapshot
    /// round-trips bit-identically at every precision; ghosts are left out.
    pub fn capture<P: Precision>(
        counters: CheckpointCounters,
        x: &SpinorFieldCb<P>,
        r: Option<&SpinorFieldCb<P>>,
    ) -> SolverCheckpoint {
        SolverCheckpoint {
            counters,
            tag: P::TAG,
            dims: [
                x.dims.extent(0) as u32,
                x.dims.extent(1) as u32,
                x.dims.extent(2) as u32,
                x.dims.extent(3) as u32,
            ],
            x: encode_field(x),
            r: r.map(encode_field),
        }
    }

    /// The storage precision the snapshot was captured at.
    pub fn precision(&self) -> PrecisionTag {
        self.tag
    }

    /// Local lattice extents of the captured fields.
    pub fn dims(&self) -> LatticeDims {
        LatticeDims::new(
            self.dims[0] as usize,
            self.dims[1] as usize,
            self.dims[2] as usize,
            self.dims[3] as usize,
        )
    }

    /// Whether the snapshot carries the true residual vector.
    pub fn has_residual(&self) -> bool {
        self.r.is_some()
    }

    /// Total field-payload bytes (telemetry; excludes the fixed header).
    pub fn payload_bytes(&self) -> usize {
        self.x.byte_len() + self.r.as_ref().map_or(0, FieldPayload::byte_len)
    }

    fn check_target<P: Precision>(&self, f: &SpinorFieldCb<P>) -> Result<(), CheckpointError> {
        if P::TAG != self.tag {
            return Err(CheckpointError::PrecisionMismatch { stored: self.tag, requested: P::TAG });
        }
        if f.dims != self.dims() {
            return Err(CheckpointError::GeometryMismatch);
        }
        Ok(())
    }

    /// Restore the iterate's sites into `x` (geometry and precision must
    /// match; `x`'s ghost zones are left as they are).
    pub fn restore_x<P: Precision>(&self, x: &mut SpinorFieldCb<P>) -> Result<(), CheckpointError> {
        self.check_target(x)?;
        decode_field(&self.x, x)
    }

    /// Restore the true residual into `r`. Fails with
    /// [`CheckpointError::GeometryMismatch`] if the snapshot carries none.
    pub fn restore_r<P: Precision>(&self, r: &mut SpinorFieldCb<P>) -> Result<(), CheckpointError> {
        self.check_target(r)?;
        let payload = self.r.as_ref().ok_or(CheckpointError::GeometryMismatch)?;
        decode_field(payload, r)
    }

    /// Serialize to the versioned, checksummed wire format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.payload_bytes() + 256);
        out.extend_from_slice(&CHECKPOINT_MAGIC);
        out.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
        out.push(self.tag.to_byte());
        out.push(u8::from(self.r.is_some()));
        for d in self.dims {
            out.extend_from_slice(&d.to_le_bytes());
        }
        let c = &self.counters;
        for v in
            [c.epoch, c.iterations, c.matvecs_hi, c.matvecs_lo, c.reliable_updates, c.recoveries]
        {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&c.stalls.to_le_bytes());
        for v in [c.r2, c.maxrr, c.last_update_r2] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        write_payload(&mut out, &self.x);
        if let Some(r) = &self.r {
            write_payload(&mut out, r);
        }
        let sum = fnv1a(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    /// Parse and validate a serialized checkpoint.
    ///
    /// The trailing checksum is verified *first*, so corruption anywhere in
    /// the buffer — header, counters, payload, or the checksum itself —
    /// surfaces as [`CheckpointError::BadChecksum`] (or `Truncated` for a
    /// short buffer) rather than a misparse.
    pub fn from_bytes(bytes: &[u8]) -> Result<SolverCheckpoint, CheckpointError> {
        if bytes.len() < 8 {
            return Err(CheckpointError::Truncated { expected: 8, got: bytes.len() });
        }
        let (body, trailer) = bytes.split_at(bytes.len() - 8);
        let expected = u64::from_le_bytes(
            trailer.try_into().map_err(|_| CheckpointError::BadChecksum { expected: 0, got: 0 })?,
        );
        let got = fnv1a(body);
        if got != expected {
            return Err(CheckpointError::BadChecksum { expected, got });
        }
        let mut cur = Cursor { buf: body, pos: 0 };
        if cur.take(4)? != CHECKPOINT_MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = cur.u16()?;
        if version != CHECKPOINT_VERSION {
            return Err(CheckpointError::UnsupportedVersion(version));
        }
        let tag_byte = cur.u8()?;
        let tag =
            PrecisionTag::from_byte(tag_byte).ok_or(CheckpointError::BadPrecisionTag(tag_byte))?;
        let has_r = cur.u8()? != 0;
        let dims = [cur.u32()?, cur.u32()?, cur.u32()?, cur.u32()?];
        let counters = CheckpointCounters {
            epoch: cur.u64()?,
            iterations: cur.u64()?,
            matvecs_hi: cur.u64()?,
            matvecs_lo: cur.u64()?,
            reliable_updates: cur.u64()?,
            recoveries: cur.u64()?,
            stalls: cur.u32()?,
            r2: cur.f64()?,
            maxrr: cur.f64()?,
            last_update_r2: cur.f64()?,
        };
        let x = read_payload(&mut cur)?;
        let r = if has_r { Some(read_payload(&mut cur)?) } else { None };
        let remaining = body.len() - cur.pos;
        if remaining != 0 {
            return Err(CheckpointError::TrailingBytes(remaining));
        }
        Ok(SolverCheckpoint { counters, tag, dims, x, r })
    }
}

fn write_payload(out: &mut Vec<u8>, p: &FieldPayload) {
    for s in [&p.data, &p.norm] {
        out.extend_from_slice(&(s.len() as u64).to_le_bytes());
        out.extend_from_slice(s);
    }
}

fn read_payload(cur: &mut Cursor<'_>) -> Result<FieldPayload, CheckpointError> {
    // Restore is a deposit boundary: the payload must own its bytes beyond
    // the borrowed wire buffer, once per section per rollback.
    let mut section = || -> Result<Vec<u8>, CheckpointError> {
        let len = cur.u64()? as usize;
        // quda-lint: allow(hot-alloc)
        Ok(cur.take(len)?.to_vec())
    };
    Ok(FieldPayload { data: section()?, norm: section()? })
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let remaining = self.buf.len() - self.pos;
        if remaining < n {
            return Err(CheckpointError::Truncated { expected: n, got: remaining });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, CheckpointError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.u64()?))
    }
}

/// Deposit and refresh cadence, in iterations, of the uniform-precision
/// solvers: BiCGstab deposits a snapshot and CGNR refreshes its rollback
/// copy (and deposits) every this many iterations — cheap enough to be
/// negligible, frequent enough that a rollback or resume loses little
/// progress (DESIGN.md §7, §12).
pub(crate) const CHECKPOINT_EVERY: usize = 16;

impl CheckpointCounters {
    /// Counters of a warm-start snapshot: the uniform-precision solvers
    /// rebuild their residual from the iterate at entry, so only progress
    /// counters travel with it.
    pub(crate) fn warm_start(epoch: u64, iterations: usize, matvecs: u64, r2: f64) -> Self {
        CheckpointCounters {
            epoch,
            iterations: iterations as u64,
            matvecs_hi: matvecs,
            r2,
            ..Default::default()
        }
    }
}

/// Capture lane `k`'s solver state and deposit it into that lane's sink
/// under a [`Phase::Checkpoint`] span (with the payload size and epoch
/// recorded on the span). A no-op when `sinks` is empty. Shared by every
/// solver's checkpoint sites.
pub(crate) fn deposit<P: Precision>(
    sinks: &mut [&mut dyn CheckpointSink],
    k: usize,
    tracer: &Tracer,
    counters: CheckpointCounters,
    x: &SpinorFieldCb<P>,
    r: Option<&SpinorFieldCb<P>>,
) {
    let Some(sink) = sinks.get_mut(k) else { return };
    let mut span = tracer.span(Phase::Checkpoint);
    span.set_iter(counters.epoch);
    let ck = SolverCheckpoint::capture(counters, x, r);
    span.set_bytes(ck.payload_bytes() as u64);
    sink.save(ck);
}

/// Ask lane `k`'s sink for a resume snapshot and hand it to `restore`
/// under a [`Phase::Recovery`] span. Returns the snapshot's counters when
/// `restore` accepted it; `None` without a sink, without a snapshot, or
/// when the snapshot does not fit the solve (the check is deterministic
/// and identical on every rank, so all ranks fall back together).
pub(crate) fn resume(
    sinks: &mut [&mut dyn CheckpointSink],
    k: usize,
    tracer: &Tracer,
    restore: impl FnOnce(&SolverCheckpoint) -> bool,
) -> Option<CheckpointCounters> {
    let ck = sinks.get_mut(k)?.resume()?;
    let mut span = tracer.span(Phase::Recovery);
    span.set_bytes(ck.payload_bytes() as u64);
    restore(&ck).then_some(ck.counters)
}

/// Where a solver deposits one right-hand side's snapshots and looks for
/// its resume point.
///
/// `resume` is consulted once at solve entry; `save` is called at every
/// checkpoint boundary.
pub trait CheckpointSink {
    /// Deposit a fresh snapshot.
    fn save(&mut self, ckpt: SolverCheckpoint);
    /// A snapshot to resume from, if the supervisor installed one.
    fn resume(&mut self) -> Option<SolverCheckpoint>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use quda_fields::precision::{Double, Half};
    use quda_math::spinor::Spinor;

    fn sample_field(dims: LatticeDims) -> SpinorFieldCb<Double> {
        let mut f = SpinorFieldCb::<Double>::new(dims, true);
        for cb in 0..f.sites() {
            let mut sp = Spinor::zero();
            sp.s[0].c[0].re = cb as f64 * 0.25 - 1.0;
            sp.s[3].c[2].im = -(cb as f64) * 0.125;
            f.set(cb, &sp);
        }
        f
    }

    #[test]
    fn round_trip_with_residual_is_identity() {
        let dims = LatticeDims::new(4, 4, 2, 4);
        let x = sample_field(dims);
        let r = sample_field(dims);
        let counters = CheckpointCounters {
            epoch: 3,
            iterations: 41,
            matvecs_hi: 5,
            matvecs_lo: 82,
            reliable_updates: 2,
            recoveries: 1,
            stalls: 1,
            r2: 1.5e-9,
            maxrr: 4.2e-4,
            last_update_r2: 1.5e-9,
        };
        let ck = SolverCheckpoint::capture(counters, &x, Some(&r));
        let bytes = ck.to_bytes();
        let back = SolverCheckpoint::from_bytes(&bytes).expect("valid checkpoint");
        assert_eq!(back, ck);
        assert_eq!(back.to_bytes(), bytes, "serialization is stable");
        let mut x2 = SpinorFieldCb::<Double>::new(dims, true);
        back.restore_x(&mut x2).expect("restore x");
        assert_eq!(x2.data, x.data);
        let mut r2f = SpinorFieldCb::<Double>::new(dims, true);
        back.restore_r(&mut r2f).expect("restore r");
        assert_eq!(r2f.data, r.data);
        assert_eq!(back.counters, counters);
    }

    #[test]
    fn precision_and_geometry_mismatches_are_typed() {
        let dims = LatticeDims::new(4, 4, 2, 4);
        let x = sample_field(dims);
        let ck = SolverCheckpoint::capture(CheckpointCounters::default(), &x, None);
        let mut wrong_precision = SpinorFieldCb::<Half>::new(dims, true);
        assert_eq!(
            ck.restore_x(&mut wrong_precision),
            Err(CheckpointError::PrecisionMismatch {
                stored: PrecisionTag::Double,
                requested: PrecisionTag::Half,
            })
        );
        let mut wrong_dims = SpinorFieldCb::<Double>::new(LatticeDims::new(4, 4, 2, 6), true);
        assert_eq!(ck.restore_x(&mut wrong_dims), Err(CheckpointError::GeometryMismatch));
        // Ghosts are not state: a closed field of the same geometry fits.
        let mut no_ghost = SpinorFieldCb::<Double>::new(dims, false);
        assert_eq!(ck.restore_x(&mut no_ghost), Ok(()));
        assert_eq!(no_ghost.data, x.data);
        let mut ok = SpinorFieldCb::<Double>::new(dims, true);
        assert_eq!(ck.restore_r(&mut ok), Err(CheckpointError::GeometryMismatch));
    }

    #[test]
    fn corruption_is_rejected_by_checksum() {
        let dims = LatticeDims::new(2, 2, 2, 4);
        let x = sample_field(dims);
        let ck = SolverCheckpoint::capture(CheckpointCounters::default(), &x, None);
        let bytes = ck.to_bytes();
        // Flip one bit in the magic, the counters, and the payload.
        for pos in [0, 40, bytes.len() / 2] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x10;
            assert!(
                matches!(
                    SolverCheckpoint::from_bytes(&bad),
                    Err(CheckpointError::BadChecksum { .. })
                ),
                "corruption at byte {pos} must fail the checksum"
            );
        }
        // Corrupting the trailer itself is also a checksum failure.
        let mut bad = bytes.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0xff;
        assert!(matches!(
            SolverCheckpoint::from_bytes(&bad),
            Err(CheckpointError::BadChecksum { .. })
        ));
        // Truncation is typed too.
        assert_eq!(
            SolverCheckpoint::from_bytes(&bytes[..4]),
            Err(CheckpointError::Truncated { expected: 8, got: 4 })
        );
    }
}
